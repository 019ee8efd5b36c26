//! Section V's planned deferred-chain compilation, implemented and
//! verified: `f(A ⊕.⊗ u)` as one module vs. two.

use pygb::prelude::*;
use pygb_integration::stats_serial;

fn graph() -> Matrix {
    Matrix::from_dense(&[
        vec![0.0f64, 0.5, 0.5],
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
    ])
    .unwrap()
}

#[test]
fn fused_chain_matches_two_step_evaluation() {
    let _serial = stats_serial();
    let m = graph();
    let u = Vector::from_dense(&[0.3f64, 0.3, 0.4]);

    // Two dispatches: vxm, then apply.
    let two_step = {
        let _sr = ArithmeticSemiring.enter();
        let mut t = Vector::new(3, DType::Fp64);
        t.no_mask().assign(u.vxm(&m)).unwrap();
        let _op = UnaryOp::bound("Plus", 0.05).unwrap().enter();
        let mut out = Vector::new(3, DType::Fp64);
        out.no_mask().assign(apply(&t)).unwrap();
        out
    };

    // One dispatch: the fused chain.
    let fused = {
        let _sr = ArithmeticSemiring.enter();
        let _op = UnaryOp::bound("Plus", 0.05).unwrap().enter();
        let expr = u.vxm(&m).then_apply().unwrap();
        let mut out = Vector::new(3, DType::Fp64);
        out.no_mask().assign(expr).unwrap();
        out
    };

    assert_eq!(two_step.extract_pairs(), fused.extract_pairs());
}

#[test]
fn fused_chain_is_one_dispatch() {
    let _serial = stats_serial();
    let m = graph();
    let u = Vector::from_dense(&[1.0f64, 1.0, 1.0]);
    let _sr = ArithmeticSemiring.enter();
    let _op = UnaryOp::bound("Times", 2.0).unwrap().enter();

    // Warm both code paths so compiles don't muddy the count.
    let warm = u.vxm(&m).then_apply().unwrap();
    let mut out = Vector::new(3, DType::Fp64);
    out.no_mask().assign(warm).unwrap();

    let before = pygb::runtime().cache().stats().snapshot();
    let expr = u.vxm(&m).then_apply().unwrap();
    out.no_mask().assign(expr).unwrap();
    let after = pygb::runtime().cache().stats().snapshot();
    assert_eq!(
        after.total_dispatches() - before.total_dispatches(),
        1,
        "the whole chain must be one module dispatch"
    );
}

#[test]
fn fused_chain_respects_mask_accum_replace() {
    let _serial = stats_serial();
    // The write controls apply to the *applied* result, once.
    let m = graph();
    let u = Vector::from_dense(&[1.0f64, 1.0, 1.0]);
    let mask = Vector::from_pairs(3, [(0usize, true)]).unwrap();
    let _sr = ArithmeticSemiring.enter();
    let _op = UnaryOp::bound("Times", 10.0).unwrap().enter();

    let mut out = Vector::from_pairs(3, [(2usize, 99.0f64)]).unwrap();
    let expr = m.mxv(&u).then_apply().unwrap();
    out.masked(&mask).replace().assign(expr).unwrap();
    // Only position 0 written (masked); old entry at 2 cleared (replace).
    assert_eq!(out.nvals(), 1);
    assert_eq!(out.get(0).unwrap().as_f64(), 10.0); // (0.5 + 0.5) · 10
}

#[test]
fn mxv_and_vxm_orientations() {
    let _serial = stats_serial();
    let m = graph();
    let u = Vector::from_dense(&[1.0f64, 2.0, 3.0]);
    let _sr = ArithmeticSemiring.enter();
    let _op = UnaryOp::new("AdditiveInverse").unwrap().enter();

    let mxv = Vector::from_expr(m.mxv(&u).then_apply().unwrap()).unwrap();
    let vxm = Vector::from_expr(u.vxm(&m).then_apply().unwrap()).unwrap();
    // mxv row 0: −(0.5·2 + 0.5·3) = −2.5; vxm col 0: −(1·2) = −2.
    assert_eq!(mxv.get(0).unwrap().as_f64(), -2.5);
    assert_eq!(vxm.get(0).unwrap().as_f64(), -2.0);
}

#[test]
fn fusion_requires_a_product_head() {
    let _serial = stats_serial();
    let u = Vector::from_dense(&[1.0f64]);
    let v = Vector::from_dense(&[2.0f64]);
    let err = (&u + &v).then_apply().unwrap_err();
    assert!(matches!(err, PygbError::Unsupported { .. }));
}

#[test]
fn fusion_without_unary_in_context_errors_at_eval() {
    let _serial = stats_serial();
    let m = graph();
    let u = Vector::from_dense(&[1.0f64, 1.0, 1.0]);
    let _sr = ArithmeticSemiring.enter();
    let expr = m.mxv(&u).then_apply().unwrap(); // no unary in context
    let mut out = Vector::new(3, DType::Fp64);
    let err = out.no_mask().assign(expr).unwrap_err();
    assert!(matches!(
        err,
        PygbError::MissingOperator {
            needed: "unary operator",
            ..
        }
    ));
}
