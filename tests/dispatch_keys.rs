//! The module key text of every dispatch the DSL can reach, pinned as
//! literal strings.
//!
//! Each case runs one operation with tracing on, first blocking and
//! then inside a nonblocking scope, and asserts the canonical key of
//! every traced dispatch — `func(k1=v1,…)`, exactly what is hashed into
//! the module name and written to the on-disk index. In the
//! nonblocking run it also asserts that `plan()` names, for each node
//! the flush will run, the same kernel function the flush dispatched.
//! Cases cover every lowering (expression kind, scalar right-hand side,
//! reduction, the fused forms) with and without mask, complement,
//! accumulator, replace and transpose.
//!
//! Every test holds `stats_serial()`: tracing is a switch on the global
//! runtime, so a sibling's dispatches must not land in another test's
//! traces.

use pygb::{
    apply, reduce, reduce_rows, reduce_rows_t, Accumulator, ArithmeticSemiring, BinaryOp, DType,
    LogicalSemiring, Matrix, MaxMonoid, MinPlusSemiring, Replace, UnaryOp, Vector,
};
use pygb_integration::stats_serial;

/// The canonical keys `op` dispatches, in order, with tracing on.
fn traced(op: &mut dyn FnMut()) -> Vec<String> {
    let rt = pygb::runtime();
    rt.take_traces();
    rt.set_tracing(true);
    op();
    rt.set_tracing(false);
    rt.take_traces().into_iter().map(|t| t.key).collect()
}

/// `op` run inside a nonblocking scope: the kernels `plan()` names for
/// the optimized DAG just before the scope flushes, and the keys the
/// flush dispatched.
fn traced_nonblocking(op: &mut dyn FnMut()) -> (Vec<String>, Vec<String>) {
    let mut planned = Vec::new();
    let keys = traced(&mut || {
        let _nb = pygb_runtime::nonblocking().expect("engine installs");
        op();
        planned = pygb_runtime::plan()
            .optimized
            .into_iter()
            .map(|n| n.kernel)
            .collect();
    });
    (planned, keys)
}

fn func(key: &str) -> &str {
    &key[..key.find('(').expect("canonical keys have a parameter list")]
}

/// Assert the keys `op` dispatches blocking and nonblocking, and that
/// the plan names each nonblocking dispatch's function.
fn pin_modes(mut op: impl FnMut(), blocking: &[&str], nonblocking: &[&str]) {
    assert_eq!(traced(&mut op), blocking, "blocking keys");
    let (planned, keys) = traced_nonblocking(&mut op);
    assert_eq!(keys, nonblocking, "nonblocking keys");
    let funcs: Vec<&str> = keys.iter().map(|k| func(k)).collect();
    assert_eq!(planned, funcs, "plan() kernels vs dispatched functions");
}

/// [`pin_modes`] for an operation that dispatches the same keys in
/// both modes.
fn pin(op: impl FnMut(), keys: &[&str]) {
    pin_modes(op, keys, keys);
}

/// [`pin`] for Sec. IV's region temporary: a computed right-hand side
/// assigned into an index region is one plan node, named by its
/// expression's kernel, that dispatches twice — the expression into a
/// temporary, then `assign_*` from the temporary.
fn pin_region_temporary(mut op: impl FnMut(), keys: [&str; 2]) {
    assert_eq!(traced(&mut op), keys, "blocking keys");
    let (planned, nonblocking) = traced_nonblocking(&mut op);
    assert_eq!(nonblocking, keys, "nonblocking keys");
    assert_eq!(planned, [func(keys[0])], "plan() kernel");
}

/// Assert the keys of a terminating operation (a scalar reduction),
/// which dispatches immediately in either mode and never enters a plan.
fn pin_terminating(mut op: impl FnMut(), blocking: &[&str], nonblocking: &[&str]) {
    assert_eq!(traced(&mut op), blocking, "blocking keys");
    let keys = traced(&mut || {
        let _nb = pygb_runtime::nonblocking().expect("engine installs");
        op();
    });
    assert_eq!(keys, nonblocking, "nonblocking keys");
}

fn fp64(vals: &[f64]) -> Vector {
    Vector::from_dense(vals)
}

/// A 3×3 `int32` matrix with every row and column nonempty, so no
/// result is provably empty and the optimizer folds nothing away.
fn a3() -> Matrix {
    Matrix::from_triples(
        3,
        3,
        [(0usize, 1usize, 2i32), (1, 2, 3), (2, 0, 4), (1, 1, 5)],
    )
    .unwrap()
}

/// A mask with a non-`bool` dtype, so `mask_type` shows in the key.
fn mask3() -> Vector {
    Vector::from_pairs(3, [(0usize, 1i64), (2, 7)]).unwrap()
}

fn mask33() -> Matrix {
    Matrix::from_triples(3, 3, [(0usize, 0usize, 1u8), (1, 2, 1), (2, 2, 1)]).unwrap()
}

// ---------------------------------------------------------------------
// Vector expressions.
// ---------------------------------------------------------------------

#[test]
fn mxv_and_vxm() {
    let _serial = stats_serial();
    let a = a3();
    let u = fp64(&[1.0, 2.0, 3.0]);
    let m = mask3();
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    let _sr = MinPlusSemiring.enter();
    pin(
        || w.no_mask().assign(a.mxv(&u)).unwrap(),
        &["mxv(a_type=int32,at=0,c_type=fp64,replace=0,semiring=Min_MinIdentity_Plus,u_type=fp64)"],
    );
    pin(
        || w.no_mask().assign(a.t().mxv(&u)).unwrap(),
        &["mxv(a_type=int32,at=1,c_type=fp64,replace=0,semiring=Min_MinIdentity_Plus,u_type=fp64)"],
    );
    pin(
        || w.masked(&m).accum_assign(a.mxv(&u)).unwrap(),
        &["mxv(a_type=int32,accum=Min,at=0,c_type=fp64,complement=0,mask_type=int64,replace=0,semiring=Min_MinIdentity_Plus,u_type=fp64)"],
    );
    pin(
        || w.masked(&m).replace().assign(u.vxm(&a)).unwrap(),
        &["vxm(a_type=int32,at=0,c_type=fp64,complement=0,mask_type=int64,replace=1,semiring=Min_MinIdentity_Plus,u_type=fp64)"],
    );
    pin(
        || w.masked_complement(&m).accum_assign(u.vxm(a.t())).unwrap(),
        &["vxm(a_type=int32,accum=Min,at=1,c_type=fp64,complement=1,mask_type=int64,replace=0,semiring=Min_MinIdentity_Plus,u_type=fp64)"],
    );
}

#[test]
fn bfs_step_under_logical_semiring_and_replace() {
    let _serial = stats_serial();
    let g = a3().cast(DType::Bool);
    let mut levels = Vector::new(3, DType::UInt64);
    levels.set(0, 1u64).unwrap();
    let mut frontier = Vector::new(3, DType::Bool);
    frontier.set(0, true).unwrap();
    let f0 = frontier.clone();
    pin(
        || levels.masked(&f0).assign_scalar(2u64).unwrap(),
        &["assign_v_const(c_type=uint64,complement=0,mask_type=bool,replace=0,value_type=uint64)"],
    );
    let _sr = LogicalSemiring.enter();
    let _rp = Replace.enter();
    pin(
        || {
            let expr = g.t().mxv(&f0);
            frontier.masked_complement(&levels).assign(expr).unwrap()
        },
        &["mxv(a_type=bool,at=1,c_type=bool,complement=1,mask_type=uint64,replace=1,semiring=LogicalOr_Zero_LogicalAnd,u_type=bool)"],
    );
}

#[test]
fn ewise_add_and_mult() {
    let _serial = stats_serial();
    let u = fp64(&[1.0, 2.0, 3.0]);
    let v = Vector::from_dense(&[4i16, 5, 6]);
    let m = mask3();
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    pin(
        || w.no_mask().assign(&u + &v).unwrap(),
        &["ewise_add_v(binop=Plus,c_type=fp64,replace=0,u_type=fp64,v_type=int16)"],
    );
    pin(
        || w.no_mask().assign(&u * &v).unwrap(),
        &["ewise_mult_v(binop=Times,c_type=fp64,replace=0,u_type=fp64,v_type=int16)"],
    );
    let _max = BinaryOp::new("Max").unwrap().enter();
    let _acc = Accumulator::new("Minus").unwrap().enter();
    pin(
        || w.masked_complement(&m).replace().accum_assign(&v + &u).unwrap(),
        &["ewise_add_v(accum=Minus,binop=Max,c_type=fp64,complement=1,mask_type=int64,replace=1,u_type=int16,v_type=fp64)"],
    );
    pin(
        || w.masked(&m).accum_assign(u.ewise_mult(&u)).unwrap(),
        &["ewise_mult_v(accum=Minus,binop=Max,c_type=fp64,complement=0,mask_type=int64,replace=0,u_type=fp64,v_type=fp64)"],
    );
}

#[test]
fn apply_extract_and_reduce_rows() {
    let _serial = stats_serial();
    let a = a3();
    let u = fp64(&[1.0, 2.0, 3.0]);
    let m = mask3();
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    let mut w2 = fp64(&[0.5, 0.5]);
    {
        let _op = UnaryOp::new("AdditiveInverse").unwrap().enter();
        pin(
            || w.masked(&m).assign(apply(&u)).unwrap(),
            &["apply_v(c_type=fp64,complement=0,mask_type=int64,replace=0,u_type=fp64,unary=AdditiveInverse)"],
        );
        let _acc = Accumulator::new("Times").unwrap().enter();
        pin(
            || w.masked_complement(&m).replace().accum_assign(apply(&u)).unwrap(),
            &["apply_v(accum=Times,c_type=fp64,complement=1,mask_type=int64,replace=1,u_type=fp64,unary=AdditiveInverse)"],
        );
    }
    {
        // Bound constants are bundle arguments, not key parameters.
        let _op = UnaryOp::bound("Times", 0.85).unwrap().enter();
        pin(
            || w.no_mask().assign(apply(&u)).unwrap(),
            &["apply_v(c_type=fp64,replace=0,u_type=fp64,unary=Bind2nd(Times))"],
        );
        let _op = UnaryOp::bound_first("Minus", 1.0).unwrap().enter();
        pin(
            || w.no_mask().assign(apply(&u)).unwrap(),
            &["apply_v(c_type=fp64,replace=0,u_type=fp64,unary=Bind1st(Minus))"],
        );
    }
    pin(
        || w2.no_mask().assign(u.extract(vec![2, 0])).unwrap(),
        &["extract_v(c_type=fp64,replace=0,u_type=fp64)"],
    );
    pin(
        || w.no_mask().assign(reduce_rows(&a)).unwrap(),
        &["reduce_rows(a_type=int32,at=0,c_type=fp64,monoid=Plus_Zero,replace=0)"],
    );
    let _mon = MaxMonoid.enter();
    let _acc = Accumulator::new("Plus").unwrap().enter();
    pin(
        || w.masked_complement(&m).accum_assign(reduce_rows_t(&a.t())).unwrap(),
        &["reduce_rows(a_type=int32,accum=Plus,at=1,c_type=fp64,complement=1,mask_type=int64,monoid=Max_MaxIdentity,replace=0)"],
    );
    let m2 = Vector::from_pairs(2, [(1usize, 3u16)]).unwrap();
    pin(
        || {
            w2.masked(&m2)
                .replace()
                .accum_assign(u.extract(1..3))
                .unwrap()
        },
        &["extract_v(accum=Plus,c_type=fp64,complement=0,mask_type=uint16,replace=1,u_type=fp64)"],
    );
}

#[test]
fn container_references_and_regions() {
    let _serial = stats_serial();
    let u = fp64(&[1.0, 2.0, 3.0]);
    let small = Vector::from_dense(&[7i32, 8]);
    let m = mask3();
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    // `w[None] = u` is an identity apply (Fig. 8).
    pin(
        || w.no_mask().assign(&u).unwrap(),
        &["apply_v(c_type=fp64,replace=0,u_type=fp64,unary=Identity)"],
    );
    pin(
        || w.masked(&m).assign(&u).unwrap(),
        &["apply_v(c_type=fp64,complement=0,mask_type=int64,replace=0,u_type=fp64,unary=Identity)"],
    );
    pin(
        || w.no_mask().slice(1..3).assign(&small).unwrap(),
        &["assign_v(c_type=fp64,replace=0,u_type=int32)"],
    );
    {
        let _acc = Accumulator::new("Second").unwrap().enter();
        pin(
            || w.masked(&m).replace().slice(0..2).accum_assign(&small).unwrap(),
            &["assign_v(accum=Second,c_type=fp64,complement=0,mask_type=int64,replace=1,u_type=int32)"],
        );
    }
    pin_region_temporary(
        || {
            w.masked_complement(&m)
                .slice(vec![0, 2])
                .assign(&small + &small)
                .unwrap()
        },
        [
            "ewise_add_v(binop=Plus,c_type=fp64,replace=0,u_type=int32,v_type=int32)",
            "assign_v(c_type=fp64,complement=1,mask_type=int64,replace=0,u_type=fp64)",
        ],
    );
}

#[test]
fn scalar_assignments() {
    let _serial = stats_serial();
    let m = mask3();
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    pin(
        || w.no_mask().slice(..).assign_scalar(2.5f64).unwrap(),
        &["assign_v_const(c_type=fp64,replace=0,value_type=fp64)"],
    );
    pin(
        || {
            w.masked_complement(&m)
                .replace()
                .assign_scalar(3i32)
                .unwrap()
        },
        &["assign_v_const(c_type=fp64,complement=1,mask_type=int64,replace=1,value_type=int32)"],
    );
    let _acc = Accumulator::new("Max").unwrap().enter();
    pin(
        || w.masked(&m).slice(0..2).accum_assign_scalar(4u8).unwrap(),
        &["assign_v_const(accum=Max,c_type=fp64,complement=0,mask_type=int64,replace=0,value_type=uint8)"],
    );

    let mm = mask33();
    let mut c = Matrix::new(3, 3, DType::Int64);
    pin(
        || c.no_mask().assign_scalar(1i64).unwrap(),
        &["assign_m_const(c_type=int64,replace=0,value_type=int64)"],
    );
    pin(
        || {
            c.masked(&mm)
                .region(0..2, vec![2, 0])
                .assign_scalar(2.0f32)
                .unwrap()
        },
        &["assign_m_const(c_type=int64,complement=0,mask_type=uint8,replace=0,value_type=fp32)"],
    );
    pin(
        || c.masked_complement(&mm).replace().accum_assign_scalar(3i64).unwrap(),
        &["assign_m_const(accum=Max,c_type=int64,complement=1,mask_type=uint8,replace=1,value_type=int64)"],
    );
}

// ---------------------------------------------------------------------
// Fused forms.
// ---------------------------------------------------------------------

#[test]
fn fused_mxv_apply() {
    let _serial = stats_serial();
    let a = a3();
    let u = fp64(&[1.0, 2.0, 3.0]);
    let m = mask3();
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    let _sr = ArithmeticSemiring.enter();
    let _op = UnaryOp::bound("Plus", 0.5).unwrap().enter();
    pin(
        || w.no_mask().assign(a.mxv(&u).then_apply().unwrap()).unwrap(),
        &["mxv_apply(a_type=int32,at=0,c_type=fp64,replace=0,semiring=Plus_Zero_Times,u_type=fp64,unary=Bind2nd(Plus))"],
    );
    pin(
        || w.masked(&m).replace().assign(u.vxm(a.t()).then_apply().unwrap()).unwrap(),
        &["vxm_apply(a_type=int32,at=1,c_type=fp64,complement=0,mask_type=int64,replace=1,semiring=Plus_Zero_Times,u_type=fp64,unary=Bind2nd(Plus))"],
    );
    pin(
        || {
            let expr = a.t().mxv(&u).then_apply().unwrap();
            w.masked_complement(&m).accum_assign(expr).unwrap()
        },
        &["mxv_apply(a_type=int32,accum=Plus,at=1,c_type=fp64,complement=1,mask_type=int64,replace=0,semiring=Plus_Zero_Times,u_type=fp64,unary=Bind2nd(Plus))"],
    );
    // Through a temporary, the nonblocking runtime fuses the two
    // dispatches into the same module.
    pin_modes(
        || {
            let t = Vector::from_expr(u.vxm(&a)).unwrap();
            w.no_mask().assign(apply(&t)).unwrap();
        },
        &[
            "vxm(a_type=int32,at=0,c_type=fp64,replace=0,semiring=Plus_Zero_Times,u_type=fp64)",
            "apply_v(c_type=fp64,replace=0,u_type=fp64,unary=Bind2nd(Plus))",
        ],
        &["vxm_apply(a_type=int32,at=0,c_type=fp64,replace=0,semiring=Plus_Zero_Times,u_type=fp64,unary=Bind2nd(Plus))"],
    );
}

#[test]
fn fused_ewise_chain() {
    let _serial = stats_serial();
    let u = fp64(&[1.0, 2.0, 3.0]);
    let v = fp64(&[10.0, 20.0, 30.0]);
    let x = Vector::from_dense(&[2i64, 2, 2]);
    let mut w = fp64(&[0.5, 0.5, 0.5]);
    pin_modes(
        || {
            let t = Vector::from_expr(&u + &v).unwrap();
            w.no_mask().assign(&t * &x).unwrap();
        },
        &[
            "ewise_add_v(binop=Plus,c_type=fp64,replace=0,u_type=fp64,v_type=fp64)",
            "ewise_mult_v(binop=Times,c_type=fp64,replace=0,u_type=fp64,v_type=int64)",
        ],
        &["fused_ewise_chain(binop=Plus,binop2=Times,c_type=fp64,chain=add_mult,replace=0,square=0,tleft=1,u_type=fp64,v_type=fp64,w_type=int64)"],
    );
    pin_modes(
        || {
            let t = Vector::from_expr(&u * &v).unwrap();
            w.no_mask().assign(&t + &t).unwrap();
        },
        &[
            "ewise_mult_v(binop=Times,c_type=fp64,replace=0,u_type=fp64,v_type=fp64)",
            "ewise_add_v(binop=Plus,c_type=fp64,replace=0,u_type=fp64,v_type=fp64)",
        ],
        &["fused_ewise_chain(binop=Times,binop2=Plus,c_type=fp64,chain=mult_add,replace=0,square=1,tleft=1,u_type=fp64,v_type=fp64)"],
    );
}

#[test]
fn scalar_reductions() {
    let _serial = stats_serial();
    let a = a3();
    let u = fp64(&[1.0, 2.0, 3.0]);
    pin_terminating(
        || assert_eq!(reduce(&u).unwrap().as_f64(), 6.0),
        &["reduce_v_scalar(c_type=fp64,monoid=Plus_Zero)"],
        &["reduce_v_scalar(c_type=fp64,monoid=Plus_Zero)"],
    );
    let _mon = MaxMonoid.enter();
    pin_terminating(
        || assert_eq!(reduce(&a).unwrap().as_i64(), 5),
        &["reduce_m_scalar(c_type=int32,monoid=Max_MaxIdentity)"],
        &["reduce_m_scalar(c_type=int32,monoid=Max_MaxIdentity)"],
    );
}

#[test]
fn fused_ewise_reduce() {
    let _serial = stats_serial();
    let u = fp64(&[1.0, 2.0, 3.0, 4.0]);
    let v = Vector::from_dense(&[1i32, 1, 1, 1]);
    let mut d = Vector::new(4, DType::Fp64);
    pin_terminating(
        || {
            d.no_mask().assign(&u * &v).unwrap();
            assert_eq!(reduce(&d).unwrap().as_f64(), 10.0);
        },
        &[
            "ewise_mult_v(binop=Times,c_type=fp64,replace=0,u_type=fp64,v_type=int32)",
            "reduce_v_scalar(c_type=fp64,monoid=Plus_Zero)",
        ],
        &["fused_ewise_reduce(binop=Times,c_type=fp64,ewise=mult,monoid=Plus_Zero,u_type=fp64,v_type=int32)"],
    );
}

// ---------------------------------------------------------------------
// Matrix expressions.
// ---------------------------------------------------------------------

#[test]
fn mxm() {
    let _serial = stats_serial();
    let a = a3();
    let b = a3().cast(DType::Fp32);
    let mm = mask33();
    let mut c = Matrix::new(3, 3, DType::Fp64);
    let _sr = ArithmeticSemiring.enter();
    pin(
        || c.no_mask().assign(a.matmul(&b)).unwrap(),
        &["mxm(a_type=int32,at=0,b_type=fp32,bt=0,c_type=fp64,replace=0,semiring=Plus_Zero_Times)"],
    );
    pin(
        || c.masked(&mm).replace().assign(a.t().matmul(b.t())).unwrap(),
        &["mxm(a_type=int32,at=1,b_type=fp32,bt=1,c_type=fp64,complement=0,mask_type=uint8,replace=1,semiring=Plus_Zero_Times)"],
    );
    pin(
        || c.masked_complement(&mm).accum_assign(a.matmul(a.t())).unwrap(),
        &["mxm(a_type=int32,accum=Plus,at=0,b_type=int32,bt=1,c_type=fp64,complement=1,mask_type=uint8,replace=0,semiring=Plus_Zero_Times)"],
    );
}

#[test]
fn matrix_ewise_apply_transpose_extract() {
    let _serial = stats_serial();
    let a = a3();
    let b = a3().cast(DType::Fp32);
    let mm = mask33();
    let mut c = Matrix::new(3, 3, DType::Fp64);
    let mut c2 = Matrix::new(2, 3, DType::Fp64);
    pin(
        || c.no_mask().assign(&a + &b).unwrap(),
        &["ewise_add_m(a_type=int32,at=0,b_type=fp32,binop=Plus,bt=0,c_type=fp64,replace=0)"],
    );
    pin(
        || c.masked(&mm).assign(a.t().ewise_mult(&b)).unwrap(),
        &["ewise_mult_m(a_type=int32,at=1,b_type=fp32,binop=Times,bt=0,c_type=fp64,complement=0,mask_type=uint8,replace=0)"],
    );
    {
        let _acc = Accumulator::new("Plus").unwrap().enter();
        let _op = BinaryOp::new("Min").unwrap().enter();
        pin(
            || c.masked_complement(&mm).replace().accum_assign(a.ewise_add(b.t())).unwrap(),
            &["ewise_add_m(a_type=int32,accum=Plus,at=0,b_type=fp32,binop=Min,bt=1,c_type=fp64,complement=1,mask_type=uint8,replace=1)"],
        );
    }
    {
        let _op = UnaryOp::new("LogicalNot").unwrap().enter();
        pin(
            || c.no_mask().assign(apply(&a)).unwrap(),
            &["apply_m(a_type=int32,at=0,c_type=fp64,replace=0,unary=LogicalNot)"],
        );
        let _acc = Accumulator::new("LogicalOr").unwrap().enter();
        pin(
            || c.masked_complement(&mm).replace().accum_assign(apply(&a)).unwrap(),
            &["apply_m(a_type=int32,accum=LogicalOr,at=0,c_type=fp64,complement=1,mask_type=uint8,replace=1,unary=LogicalNot)"],
        );
    }
    pin(
        || c.no_mask().assign(&a.t()).unwrap(),
        &["transpose_m(a_type=int32,c_type=fp64,replace=0)"],
    );
    pin(
        || c.masked(&mm).assign(a.t().expr()).unwrap(),
        &["transpose_m(a_type=int32,c_type=fp64,complement=0,mask_type=uint8,replace=0)"],
    );
    pin(
        || c2.no_mask().assign(a.extract(vec![2, 0], ..)).unwrap(),
        &["extract_m(a_type=int32,at=0,c_type=fp64,replace=0)"],
    );
    let mm2 = Matrix::from_triples(2, 3, [(0usize, 1usize, true)]).unwrap();
    let _acc = Accumulator::new("Min").unwrap().enter();
    pin(
        || c2.masked(&mm2).accum_assign(a.extract(1..3, ..)).unwrap(),
        &["extract_m(a_type=int32,accum=Min,at=0,c_type=fp64,complement=0,mask_type=bool,replace=0)"],
    );
}

#[test]
fn matrix_references_and_regions() {
    let _serial = stats_serial();
    let a = a3();
    let small = Matrix::from_dense(&[vec![1u16, 2], vec![3, 4]]).unwrap();
    let mm = mask33();
    let mut c = Matrix::new(3, 3, DType::Fp64);
    pin(
        || c.no_mask().assign(&a).unwrap(),
        &["apply_m(a_type=int32,c_type=fp64,replace=0,unary=Identity)"],
    );
    pin(
        || c.masked_complement(&mm).assign(&a).unwrap(),
        &["apply_m(a_type=int32,c_type=fp64,complement=1,mask_type=uint8,replace=0,unary=Identity)"],
    );
    pin(
        || c.no_mask().region(1..3, 0..2).assign(&small).unwrap(),
        &["assign_m(a_type=uint16,c_type=fp64,replace=0)"],
    );
    {
        let _acc = Accumulator::new("Plus").unwrap().enter();
        pin(
            || {
                c.masked_complement(&mm)
                    .replace()
                    .region(0..2, 1..3)
                    .accum_assign(&small)
                    .unwrap()
            },
            &["assign_m(a_type=uint16,accum=Plus,c_type=fp64,complement=1,mask_type=uint8,replace=1)"],
        );
    }
    let _sr = ArithmeticSemiring.enter();
    pin_region_temporary(
        || c.masked(&mm).region(vec![0, 2], 1..3).assign(small.matmul(&small)).unwrap(),
        [
            "mxm(a_type=uint16,at=0,b_type=uint16,bt=0,c_type=fp64,replace=0,semiring=Plus_Zero_Times)",
            "assign_m(a_type=fp64,c_type=fp64,complement=0,mask_type=uint8,replace=0)",
        ],
    );
}
