//! Differential tests: every optimized operation kernel vs. the dense
//! reference oracle in [`gbtl::reference`].
//!
//! Each case generates random sparse operands (including stored-falsy
//! mask entries), then runs the optimized kernel and the naive oracle
//! side by side across every decoration combination — no mask /
//! structural mask / complemented mask / opaque mask × no accumulator /
//! Plus accumulator × merge / replace — and across the operand orientations
//! (plain, transposed, dual) that drive kernel selection. Results must
//! be *identical*, stored pattern and values: the masked SpGEMM, the
//! mask-guided dot-product SpGEMM, and the push/pull SpMV paths all
//! combine contributions in the same k-ascending order as the oracle,
//! so even floating-point outputs match bitwise.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gbtl::ops::accum::{Accumulate, MaybeAccum};
use gbtl::ops::kind::BinaryOpKind;
use gbtl::prelude::*;
use gbtl::reference;
use gbtl::MxmFamily;

const N: usize = 8;

type VecModel = BTreeMap<usize, i64>;
type MatModel = BTreeMap<(usize, usize), i64>;

fn vec_model() -> impl Strategy<Value = VecModel> {
    proptest::collection::btree_map(0..N, -8i64..9, 0..N)
}

fn mat_model() -> impl Strategy<Value = MatModel> {
    proptest::collection::btree_map((0..N, 0..N), -8i64..9, 0..(N * N / 2))
}

/// Mask models draw values from {0, 1} so stored-but-falsy entries are
/// exercised (a stored 0 must NOT enable a position).
fn vec_mask_model() -> impl Strategy<Value = VecModel> {
    proptest::collection::btree_map(0..N, 0i64..2, 0..N)
}

fn mat_mask_model() -> impl Strategy<Value = MatModel> {
    proptest::collection::btree_map((0..N, 0..N), 0i64..2, 0..(N * N / 2))
}

fn to_vector(m: &VecModel) -> Vector<i64> {
    Vector::from_pairs(N, m.iter().map(|(&i, &v)| (i, v))).unwrap()
}

fn to_matrix(m: &MatModel) -> Matrix<i64> {
    Matrix::from_triples(N, N, m.iter().map(|(&(i, j), &v)| (i, j, v))).unwrap()
}

/// A sized vector built from the model's entries below `len`.
fn to_sized_vector(m: &VecModel, len: usize) -> Vector<i64> {
    Vector::from_pairs(
        len,
        m.iter().filter(|&(&i, _)| i < len).map(|(&i, &v)| (i, v)),
    )
    .unwrap()
}

fn op_err(ctx: &str) -> impl Fn(GblasError) -> TestCaseError + '_ {
    move |e| TestCaseError::fail(format!("{ctx}: {e}"))
}

/// A vector mask kernels cannot consult structurally (the trait's
/// default probe): the write step must fall back to per-position
/// `allows` for it.
struct OpaqueVectorMask<'m>(&'m Vector<i64>);

impl VectorMask for OpaqueVectorMask<'_> {
    fn mask_size(&self) -> IndexType {
        self.0.size()
    }
    fn allows(&self, i: IndexType) -> bool {
        self.0.allows(i)
    }
}

// ---------------------------------------------------------------------
// mxv / vxm
// ---------------------------------------------------------------------

fn spmv_case<T, Mk, S>(
    w: &Vector<T>,
    mask: &Mk,
    a: MatrixArg<'_, T>,
    u: &Vector<T>,
    sr: &S,
    vxm_form: bool,
    ctx: &str,
) -> TestCaseResult
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    S: Semiring<T>,
{
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = w.clone();
            let r = if vxm_form {
                operations::vxm(&mut got, mask, NoAccumulate, sr, u, a, replace)
            } else {
                operations::mxv(&mut got, mask, NoAccumulate, sr, a, u, replace)
            };
            r.map_err(op_err(ctx))?;
            let want = if vxm_form {
                reference::vxm(w, mask, &NoAccumulate, sr, u, a, replace)
            } else {
                reference::mxv(w, mask, &NoAccumulate, sr, a, u, replace)
            };
            prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<T>::new());
            let mut got = w.clone();
            let r = if vxm_form {
                operations::vxm(&mut got, mask, acc, sr, u, a, replace)
            } else {
                operations::mxv(&mut got, mask, acc, sr, a, u, replace)
            };
            r.map_err(op_err(ctx))?;
            let want = if vxm_form {
                reference::vxm(w, mask, &acc, sr, u, a, replace)
            } else {
                reference::mxv(w, mask, &acc, sr, a, u, replace)
            };
            prop_assert_eq!(&got, &want, "{} plus-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

fn run_spmv_suite<T: Scalar, S: Semiring<T>>(
    sr: &S,
    am: &MatModel,
    um: &VecModel,
    wm: &VecModel,
    km: &VecModel,
) -> TestCaseResult {
    let a = to_matrix(am).cast::<T>();
    let at = a.transpose_owned();
    let u = to_vector(um).cast::<T>();
    let w = to_vector(wm).cast::<T>();
    let mask = to_vector(km);
    // Three spellings of the same logical operand `a`: plain (pull),
    // transposed (push), dual (density-switched).
    let args = [
        ("plain", MatrixArg::Plain(&a)),
        ("transposed", transpose(&at)),
        ("dual", dual(&a, &at)),
    ];
    for vxm_form in [false, true] {
        let name = if vxm_form { "vxm" } else { "mxv" };
        for (orient, arg) in args {
            let ctx = format!("{name}/{orient}");
            spmv_case(&w, &NoMask, arg, &u, sr, vxm_form, &format!("{ctx}/nomask"))?;
            spmv_case(&w, &mask, arg, &u, sr, vxm_form, &format!("{ctx}/mask"))?;
            spmv_case(
                &w,
                &complement(&mask),
                arg,
                &u,
                sr,
                vxm_form,
                &format!("{ctx}/comp"),
            )?;
            spmv_case(
                &w,
                &OpaqueVectorMask(&mask),
                arg,
                &u,
                sr,
                vxm_form,
                &format!("{ctx}/opaque"),
            )?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// mxm
// ---------------------------------------------------------------------

/// The pre-decided family is one more generated input of the mxm
/// properties: `None` is plain [`operations::mxm`].
fn family_model() -> impl Strategy<Value = Option<MxmFamily>> {
    (0usize..3).prop_map(|i| {
        [
            None,
            Some(MxmFamily::MaskedDot),
            Some(MxmFamily::MaskedGustavson),
        ][i]
    })
}

/// A mask kernels cannot consult structurally (the trait's default
/// probe), so every masked family is illegal for it.
struct OpaqueMask<'m>(&'m Matrix<i64>);

impl MatrixMask for OpaqueMask<'_> {
    fn mask_shape(&self) -> (IndexType, IndexType) {
        self.0.shape()
    }
    fn allows(&self, i: IndexType, j: IndexType) -> bool {
        self.0.allows(i, j)
    }
}

/// The kernel `mxm_with` must report: `family` decides only where both
/// masked families are legal (plain structural mask, `Bᵀ` rows there);
/// everywhere else it falls back to what the probes select.
fn expected_mxm_kernel<T: Scalar>(
    probe: MaskProbe,
    b: &MatrixArg<'_, T>,
    family: Option<MxmFamily>,
) -> MxmKernel {
    match probe {
        MaskProbe::All | MaskProbe::Opaque => MxmKernel::Gustavson,
        MaskProbe::Structural if b.transposed_rows().is_some() => match family {
            Some(MxmFamily::MaskedGustavson) => MxmKernel::MaskedGustavson,
            Some(MxmFamily::MaskedDot) | None => MxmKernel::MaskedDot,
        },
        MaskProbe::Structural | MaskProbe::StructuralComplement => MxmKernel::MaskedGustavson,
    }
}

fn mxm_case<T, Mk>(
    family: Option<MxmFamily>,
    c: &Matrix<T>,
    mask: &Mk,
    a: MatrixArg<'_, T>,
    b: MatrixArg<'_, T>,
    ctx: &str,
) -> TestCaseResult
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
{
    let sr = ArithmeticSemiring::<T>::new();
    let kernel = expected_mxm_kernel(mask.probe(), &b, family);
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = c.clone();
            let ran =
                operations::mxm_with(family, &mut got, mask, NoAccumulate, &sr, a, b, replace)
                    .map_err(op_err(ctx))?;
            let want = reference::mxm(c, mask, &NoAccumulate, &sr, a, b, replace);
            prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
            prop_assert_eq!(ran, kernel, "{} {:?}", ctx, family);
        }
        {
            let acc = Accumulate(Plus::<T>::new());
            let mut got = c.clone();
            let ran = operations::mxm_with(family, &mut got, mask, acc, &sr, a, b, replace)
                .map_err(op_err(ctx))?;
            let want = reference::mxm(c, mask, &acc, &sr, a, b, replace);
            prop_assert_eq!(&got, &want, "{} plus-accum z={}", ctx, replace.0);
            prop_assert_eq!(ran, kernel, "{} {:?}", ctx, family);
        }
    }
    Ok(())
}

fn run_mxm_suite<T: Scalar>(
    am: &MatModel,
    bm: &MatModel,
    cm: &MatModel,
    km: &MatModel,
    family: Option<MxmFamily>,
) -> TestCaseResult {
    let a = to_matrix(am).cast::<T>();
    let at = a.transpose_owned();
    let b = to_matrix(bm).cast::<T>();
    let bt = b.transpose_owned();
    let c = to_matrix(cm).cast::<T>();
    let mask = to_matrix(km);
    let a_args = [
        ("a", MatrixArg::Plain(&a)),
        ("aT", transpose(&at)),
        ("aD", dual(&a, &at)),
    ];
    // `bT` with a structural mask selects the dot-product kernel; the
    // other orientations select masked/unmasked Gustavson.
    let b_args = [
        ("b", MatrixArg::Plain(&b)),
        ("bT", transpose(&bt)),
        ("bD", dual(&b, &bt)),
    ];
    for (an, aarg) in a_args {
        for (bn, barg) in b_args {
            let ctx = format!("mxm/{an}x{bn}");
            mxm_case(family, &c, &NoMask, aarg, barg, &format!("{ctx}/nomask"))?;
            mxm_case(family, &c, &mask, aarg, barg, &format!("{ctx}/mask"))?;
            let comp = complement(&mask);
            mxm_case(family, &c, &comp, aarg, barg, &format!("{ctx}/comp"))?;
            let opaque = OpaqueMask(&mask);
            mxm_case(family, &c, &opaque, aarg, barg, &format!("{ctx}/opaque"))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Element-wise, apply, reduce
// ---------------------------------------------------------------------

fn ewise_vec_case<T, Mk, Op>(
    w: &Vector<T>,
    mask: &Mk,
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
    add: bool,
    ctx: &str,
) -> TestCaseResult
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    Op: BinaryOp<T> + Copy,
{
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = w.clone();
            let r = if add {
                operations::e_wise_add_vector(&mut got, mask, NoAccumulate, op, u, v, replace)
            } else {
                operations::e_wise_mult_vector(&mut got, mask, NoAccumulate, op, u, v, replace)
            };
            r.map_err(op_err(ctx))?;
            let want = if add {
                reference::e_wise_add_vector(w, mask, &NoAccumulate, op, u, v, replace)
            } else {
                reference::e_wise_mult_vector(w, mask, &NoAccumulate, op, u, v, replace)
            };
            prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<T>::new());
            let mut got = w.clone();
            let r = if add {
                operations::e_wise_add_vector(&mut got, mask, acc, op, u, v, replace)
            } else {
                operations::e_wise_mult_vector(&mut got, mask, acc, op, u, v, replace)
            };
            r.map_err(op_err(ctx))?;
            let want = if add {
                reference::e_wise_add_vector(w, mask, &acc, op, u, v, replace)
            } else {
                reference::e_wise_mult_vector(w, mask, &acc, op, u, v, replace)
            };
            prop_assert_eq!(&got, &want, "{} plus-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

fn ewise_mat_case<T, Mk>(
    c: &Matrix<T>,
    mask: &Mk,
    a: MatrixArg<'_, T>,
    b: MatrixArg<'_, T>,
    add: bool,
    ctx: &str,
) -> TestCaseResult
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
{
    let op = Min::<T>::new();
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = c.clone();
            let r = if add {
                operations::e_wise_add_matrix(&mut got, mask, NoAccumulate, op, a, b, replace)
            } else {
                operations::e_wise_mult_matrix(&mut got, mask, NoAccumulate, op, a, b, replace)
            };
            r.map_err(op_err(ctx))?;
            let want = if add {
                reference::e_wise_add_matrix(c, mask, &NoAccumulate, op, a, b, replace)
            } else {
                reference::e_wise_mult_matrix(c, mask, &NoAccumulate, op, a, b, replace)
            };
            prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<T>::new());
            let mut got = c.clone();
            let r = if add {
                operations::e_wise_add_matrix(&mut got, mask, acc, op, a, b, replace)
            } else {
                operations::e_wise_mult_matrix(&mut got, mask, acc, op, a, b, replace)
            };
            r.map_err(op_err(ctx))?;
            let want = if add {
                reference::e_wise_add_matrix(c, mask, &acc, op, a, b, replace)
            } else {
                reference::e_wise_mult_matrix(c, mask, &acc, op, a, b, replace)
            };
            prop_assert_eq!(&got, &want, "{} plus-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

fn apply_vec_case<T, Mk, F>(
    w: &Vector<T>,
    mask: &Mk,
    f: F,
    u: &Vector<T>,
    ctx: &str,
) -> TestCaseResult
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    F: UnaryOp<T> + Copy,
{
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = w.clone();
            operations::apply_vector(&mut got, mask, NoAccumulate, f, u, replace)
                .map_err(op_err(ctx))?;
            let want = reference::apply_vector(w, mask, &NoAccumulate, f, u, replace);
            prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<T>::new());
            let mut got = w.clone();
            operations::apply_vector(&mut got, mask, acc, f, u, replace).map_err(op_err(ctx))?;
            let want = reference::apply_vector(w, mask, &acc, f, u, replace);
            prop_assert_eq!(&got, &want, "{} plus-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

fn apply_mat_case<T, Mk, F>(
    c: &Matrix<T>,
    mask: &Mk,
    f: F,
    a: MatrixArg<'_, T>,
    ctx: &str,
) -> TestCaseResult
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    F: UnaryOp<T> + Copy,
{
    for replace in [Replace(false), Replace(true)] {
        let mut got = c.clone();
        operations::apply_matrix(&mut got, mask, NoAccumulate, f, a, replace)
            .map_err(op_err(ctx))?;
        let want = reference::apply_matrix(c, mask, &NoAccumulate, f, a, replace);
        prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
    }
    Ok(())
}

fn reduce_case<T, Mk>(w: &Vector<T>, mask: &Mk, a: MatrixArg<'_, T>, ctx: &str) -> TestCaseResult
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
{
    let monoid = PlusMonoid::<T>::new();
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = w.clone();
            operations::reduce_matrix_to_vector(&mut got, mask, NoAccumulate, &monoid, a, replace)
                .map_err(op_err(ctx))?;
            let want =
                reference::reduce_matrix_to_vector(w, mask, &NoAccumulate, &monoid, a, replace);
            prop_assert_eq!(&got, &want, "{} no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Min::<T>::new());
            let mut got = w.clone();
            operations::reduce_matrix_to_vector(&mut got, mask, acc, &monoid, a, replace)
                .map_err(op_err(ctx))?;
            let want = reference::reduce_matrix_to_vector(w, mask, &acc, &monoid, a, replace);
            prop_assert_eq!(&got, &want, "{} min-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// assign / extract
// ---------------------------------------------------------------------

fn assign_case<Mk>(
    w: &Vector<i64>,
    mask: &Mk,
    u: &Vector<i64>,
    ix: &Indices,
    ctx: &str,
) -> TestCaseResult
where
    Mk: VectorMask + ?Sized,
{
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = w.clone();
            operations::assign_vector(&mut got, mask, NoAccumulate, u, ix, replace)
                .map_err(op_err(ctx))?;
            let want = reference::assign_vector(w, mask, &NoAccumulate, u, ix, replace);
            prop_assert_eq!(&got, &want, "{} assign no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<i64>::new());
            let mut got = w.clone();
            operations::assign_vector(&mut got, mask, acc, u, ix, replace).map_err(op_err(ctx))?;
            let want = reference::assign_vector(w, mask, &acc, u, ix, replace);
            prop_assert_eq!(&got, &want, "{} assign plus-accum z={}", ctx, replace.0);
        }
        {
            let mut got = w.clone();
            operations::assign_vector_constant(&mut got, mask, NoAccumulate, 42, ix, replace)
                .map_err(op_err(ctx))?;
            let want = reference::assign_vector_constant(w, mask, &NoAccumulate, 42, ix, replace);
            prop_assert_eq!(&got, &want, "{} const no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<i64>::new());
            let mut got = w.clone();
            operations::assign_vector_constant(&mut got, mask, acc, 42, ix, replace)
                .map_err(op_err(ctx))?;
            let want = reference::assign_vector_constant(w, mask, &acc, 42, ix, replace);
            prop_assert_eq!(&got, &want, "{} const plus-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

fn extract_case<Mk>(
    w: &Vector<i64>,
    mask: &Mk,
    u: &Vector<i64>,
    ix: &Indices,
    ctx: &str,
) -> TestCaseResult
where
    Mk: VectorMask + ?Sized,
{
    for replace in [Replace(false), Replace(true)] {
        {
            let mut got = w.clone();
            operations::extract_vector(&mut got, mask, NoAccumulate, u, ix, replace)
                .map_err(op_err(ctx))?;
            let want = reference::extract_vector(w, mask, &NoAccumulate, u, ix, replace);
            prop_assert_eq!(&got, &want, "{} extract no-accum z={}", ctx, replace.0);
        }
        {
            let acc = Accumulate(Plus::<i64>::new());
            let mut got = w.clone();
            operations::extract_vector(&mut got, mask, acc, u, ix, replace).map_err(op_err(ctx))?;
            let want = reference::extract_vector(w, mask, &acc, u, ix, replace);
            prop_assert_eq!(&got, &want, "{} extract plus-accum z={}", ctx, replace.0);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn spmv_matches_oracle(a in mat_model(), u in vec_model(), w in vec_model(), k in vec_mask_model()) {
        run_spmv_suite(&ArithmeticSemiring::<i64>::new(), &a, &u, &w, &k)?;
    }

    #[test]
    fn spmv_minplus_matches_oracle(a in mat_model(), u in vec_model(), w in vec_model(), k in vec_mask_model()) {
        run_spmv_suite(&MinPlusSemiring::<i64>::new(), &a, &u, &w, &k)?;
    }

    #[test]
    fn spmv_oracle_dtype_sweep(a in mat_model(), u in vec_model(), w in vec_model(), k in vec_mask_model()) {
        run_spmv_suite(&ArithmeticSemiring::<f64>::new(), &a, &u, &w, &k)?;
        run_spmv_suite(&ArithmeticSemiring::<i32>::new(), &a, &u, &w, &k)?;
        run_spmv_suite(&ArithmeticSemiring::<u8>::new(), &a, &u, &w, &k)?;
        run_spmv_suite(&LogicalSemiring::<bool>::new(), &a, &u, &w, &k)?;
    }

    #[test]
    fn spgemm_matches_oracle(a in mat_model(), b in mat_model(), c in mat_model(), k in mat_mask_model(), family in family_model()) {
        run_mxm_suite::<i64>(&a, &b, &c, &k, family)?;
    }

    #[test]
    fn spgemm_oracle_dtype_sweep(a in mat_model(), b in mat_model(), c in mat_model(), k in mat_mask_model(), family in family_model()) {
        run_mxm_suite::<f64>(&a, &b, &c, &k, family)?;
        run_mxm_suite::<i32>(&a, &b, &c, &k, family)?;
        run_mxm_suite::<u8>(&a, &b, &c, &k, family)?;
        run_mxm_suite::<bool>(&a, &b, &c, &k, family)?;
    }

    #[test]
    fn ewise_vector_matches_oracle(u in vec_model(), v in vec_model(), w in vec_model(), k in vec_mask_model()) {
        let (u, v, w) = (to_vector(&u), to_vector(&v), to_vector(&w));
        let mask = to_vector(&k);
        for add in [true, false] {
            let ctx = if add { "eadd" } else { "emult" };
            ewise_vec_case(&w, &NoMask, Plus::<i64>::new(), &u, &v, add, &format!("{ctx}/plus/nomask"))?;
            ewise_vec_case(&w, &mask, Plus::<i64>::new(), &u, &v, add, &format!("{ctx}/plus/mask"))?;
            ewise_vec_case(&w, &complement(&mask), Min::<i64>::new(), &u, &v, add, &format!("{ctx}/min/comp"))?;
            ewise_vec_case(&w, &OpaqueVectorMask(&mask), Plus::<i64>::new(), &u, &v, add, &format!("{ctx}/plus/opaque"))?;
        }
    }

    #[test]
    fn ewise_matrix_matches_oracle(am in mat_model(), bm in mat_model(), cm in mat_model(), k in mat_mask_model()) {
        let (a, b, c) = (to_matrix(&am), to_matrix(&bm), to_matrix(&cm));
        let (at, bt) = (a.transpose_owned(), b.transpose_owned());
        let mask = to_matrix(&k);
        for add in [true, false] {
            let ctx = if add { "eadd_m" } else { "emult_m" };
            ewise_mat_case(&c, &NoMask, MatrixArg::Plain(&a), transpose(&bt), add, &format!("{ctx}/nomask"))?;
            ewise_mat_case(&c, &mask, transpose(&at), MatrixArg::Plain(&b), add, &format!("{ctx}/mask"))?;
            ewise_mat_case(&c, &complement(&mask), dual(&a, &at), dual(&b, &bt), add, &format!("{ctx}/comp"))?;
        }
    }

    #[test]
    fn apply_matches_oracle(um in vec_model(), wm in vec_model(), k in vec_mask_model(), am in mat_model()) {
        let (u, w) = (to_vector(&um), to_vector(&wm));
        let mask = to_vector(&k);
        apply_vec_case(&w, &NoMask, AdditiveInverse::<i64>::new(), &u, "apply/ainv/nomask")?;
        apply_vec_case(&w, &mask, Bind2nd::new(Times::<i64>::new(), 3), &u, "apply/x3/mask")?;
        apply_vec_case(&w, &complement(&mask), Bind2nd::new(Plus::<i64>::new(), 7), &u, "apply/+7/comp")?;
        apply_vec_case(&w, &OpaqueVectorMask(&mask), Bind2nd::new(Times::<i64>::new(), 3), &u, "apply/x3/opaque")?;

        let a = to_matrix(&am);
        let at = a.transpose_owned();
        let c = to_matrix(&am).cast::<i64>();
        let mmask = Matrix::from_triples(N, N, k.iter().map(|(&i, &v)| (i, i, v))).unwrap();
        apply_mat_case(&c, &NoMask, AdditiveInverse::<i64>::new(), MatrixArg::Plain(&a), "applym/nomask")?;
        apply_mat_case(&c, &mmask, AdditiveInverse::<i64>::new(), transpose(&at), "applym/mask")?;
        apply_mat_case(&c, &complement(&mmask), AdditiveInverse::<i64>::new(), dual(&a, &at), "applym/comp")?;
    }

    #[test]
    fn reduce_matches_oracle(am in mat_model(), wm in vec_model(), k in vec_mask_model()) {
        let a = to_matrix(&am);
        let at = a.transpose_owned();
        let w = to_vector(&wm);
        let mask = to_vector(&k);
        for (orient, arg) in [
            ("plain", MatrixArg::Plain(&a)),
            ("transposed", transpose(&at)),
            ("dual", dual(&a, &at)),
        ] {
            reduce_case(&w, &NoMask, arg, &format!("reduce/{orient}/nomask"))?;
            reduce_case(&w, &mask, arg, &format!("reduce/{orient}/mask"))?;
            reduce_case(&w, &complement(&mask), arg, &format!("reduce/{orient}/comp"))?;

            prop_assert_eq!(
                operations::reduce_matrix_scalar(&PlusMonoid::<i64>::new(), arg),
                reference::reduce_matrix_scalar(&PlusMonoid::<i64>::new(), arg),
                "scalar reduce {}", orient
            );
        }
        let u = to_vector(&wm);
        prop_assert_eq!(
            operations::reduce_vector_scalar(&PlusMonoid::<i64>::new(), &u),
            reference::reduce_vector_scalar(&PlusMonoid::<i64>::new(), &u)
        );
        prop_assert_eq!(
            operations::reduce_vector_scalar(&MinMonoid::<i64>::new(), &u),
            reference::reduce_vector_scalar(&MinMonoid::<i64>::new(), &u)
        );
    }

    #[test]
    fn assign_matches_oracle(
        wm in vec_model(),
        um in vec_model(),
        k in vec_mask_model(),
        picks in proptest::collection::btree_set(0..N, 0..N),
        bounds in (0..N, 0..N),
    ) {
        let w = to_vector(&wm);
        let mask = to_vector(&k);
        let (x, y) = bounds;
        let (lo, hi) = (x.min(y), x.max(y));
        let list: Vec<usize> = picks.iter().copied().collect();
        for ix in [Indices::All, Indices::Range(lo, hi), Indices::List(list)] {
            let len = ix.len(N);
            let u = to_sized_vector(&um, len);
            assign_case(&w, &NoMask, &u, &ix, "assign/nomask")?;
            assign_case(&w, &mask, &u, &ix, "assign/mask")?;
            assign_case(&w, &complement(&mask), &u, &ix, "assign/comp")?;
            assign_case(&w, &OpaqueVectorMask(&mask), &u, &ix, "assign/opaque")?;
        }
    }

    #[test]
    fn extract_matches_oracle(
        wm in vec_model(),
        um in vec_model(),
        k in vec_mask_model(),
        picks in proptest::collection::vec(0..N, 0..N),
        bounds in (0..N, 0..N),
    ) {
        let u = to_vector(&um);
        let (x, y) = bounds;
        let (lo, hi) = (x.min(y), x.max(y));
        // `picks` may repeat source indices — legal for extract.
        for ix in [Indices::All, Indices::Range(lo, hi), Indices::List(picks.clone())] {
            let len = ix.len(N);
            let w = to_sized_vector(&wm, len);
            let mask = to_sized_vector(&k, len);
            extract_case(&w, &NoMask, &u, &ix, "extract/nomask")?;
            extract_case(&w, &mask, &u, &ix, "extract/mask")?;
            extract_case(&w, &complement(&mask), &u, &ix, "extract/comp")?;
        }
    }
}

// ---------------------------------------------------------------------
// The write step at sizes where the mask cursor skips far
// ---------------------------------------------------------------------

/// A sparse vector model for dimensions in the thousands: up to 48
/// scattered entries (gaps of ~n/48) plus one run of up to 64
/// consecutive entries whose values alternate, so a mask run mixes
/// stored truthy and stored falsy entries. Positions are seeds, folded
/// into `0..n` once `n` is drawn.
type BigModel = (Vec<(usize, i64)>, (usize, usize, i64));

fn big_model(values: std::ops::Range<i64>) -> impl Strategy<Value = BigModel> {
    (
        proptest::collection::vec((any::<usize>(), values.clone()), 0..48),
        (any::<usize>(), 0usize..64, values),
    )
}

fn big_vector(n: usize, (scattered, (start, len, v)): &BigModel) -> Vector<i64> {
    let start = start % n;
    let run = (start..(start + len).min(n)).map(|i| (i, v + (i % 2) as i64));
    let pairs = scattered.iter().map(|&(p, x)| (p % n, x)).chain(run);
    Vector::from_pairs_dedup_with(n, pairs, |_, b| b).unwrap()
}

fn big_matrix(ncols: usize, rows: &[BigModel]) -> Matrix<i64> {
    let triples: Vec<_> = rows
        .iter()
        .enumerate()
        .flat_map(|(i, m)| {
            big_vector(ncols, m)
                .iter()
                .map(move |(j, v)| (i, j, v))
                .collect::<Vec<_>>()
        })
        .collect();
    Matrix::from_triples(rows.len(), ncols, triples).unwrap()
}

const ACCUMS: [MaybeAccum; 2] = [MaybeAccum(None), MaybeAccum(Some(BinaryOpKind::Plus))];

proptest! {
    #[test]
    fn vector_write_step_matches_oracle_at_large_n(
        n in 1000usize..4096,
        cm in big_model(-8..9),
        tm in big_model(-8..9),
        km in big_model(0..2),
    ) {
        let (c, t, mask) = (big_vector(n, &cm), big_vector(n, &tm), big_vector(n, &km));
        let (comp, opaque) = (complement(&mask), OpaqueVectorMask(&mask));
        let masks: [(&str, &dyn VectorMask); 4] =
            [("nomask", &NoMask), ("mask", &mask), ("comp", &comp), ("opaque", &opaque)];
        for (name, mk) in masks {
            for accum in ACCUMS {
                for replace in [Replace(false), Replace(true)] {
                    let ctx = format!("n={n} {name} {accum:?} z={}", replace.0);
                    let mut got = c.clone();
                    gbtl::write::write_vector(&mut got, mk, &accum, t.clone(), replace);
                    let want = reference::write_vector(&c, mk, &accum, &t, replace);
                    prop_assert_eq!(&got, &want, "write_vector {}", ctx);

                    let mut got = c.clone();
                    operations::assign_vector_constant(&mut got, mk, accum, 42, &Indices::All, replace)
                        .map_err(op_err(&ctx))?;
                    let want = reference::assign_vector_constant(&c, mk, &accum, 42, &Indices::All, replace);
                    prop_assert_eq!(&got, &want, "assign_vector_constant {}", ctx);
                }
            }
        }
    }

    #[test]
    fn matrix_write_step_matches_oracle_at_large_n(
        ncols in 1000usize..2500,
        nrows in 1usize..5,
        cm in proptest::collection::vec(big_model(-8..9), 4),
        zm in proptest::collection::vec(big_model(-8..9), 4),
        km in proptest::collection::vec(big_model(0..2), 4),
        picks in proptest::collection::btree_set(0usize..1000, 0..24),
        bounds in (0usize..5, 0usize..5),
    ) {
        let c = big_matrix(ncols, &cm[..nrows]);
        let z = big_matrix(ncols, &zm[..nrows]);
        let mask = big_matrix(ncols, &km[..nrows]);
        let (comp, opaque) = (complement(&mask), OpaqueMask(&mask));
        let masks: [(&str, &dyn MatrixMask); 4] =
            [("nomask", &NoMask), ("mask", &mask), ("comp", &comp), ("opaque", &opaque)];
        let (lo, hi) = (bounds.0.min(bounds.1).min(nrows), bounds.0.max(bounds.1).min(nrows));
        let regions = [
            (Indices::All, Indices::All),
            (Indices::Range(lo, hi), Indices::List(picks.iter().copied().collect())),
        ];
        for (name, mk) in masks {
            for accum in ACCUMS {
                for replace in [Replace(false), Replace(true)] {
                    let ctx = format!("{nrows}x{ncols} {name} {accum:?} z={}", replace.0);
                    let mut got = c.clone();
                    gbtl::write::write_matrix(&mut got, mk, &accum, z.clone(), replace);
                    let want = reference::write_matrix(&c, mk, &accum, &z, replace);
                    prop_assert_eq!(&got, &want, "write_matrix {}", ctx);

                    for (rows, cols) in &regions {
                        let mut got = c.clone();
                        operations::assign_matrix_constant(&mut got, mk, accum, 42, rows, cols, replace)
                            .map_err(op_err(&ctx))?;
                        let want = reference::assign_matrix_constant(&c, mk, &accum, 42, rows, cols, replace);
                        prop_assert_eq!(&got, &want, "assign_matrix_constant {:?}x{:?} {}", rows, cols, ctx);
                    }
                }
            }
        }
    }
}

/// The family is an argument, not state: a pre-decided call that fails
/// its dimension check leaves nothing behind for the next `mxm` on the
/// thread, which selects as if the failed call never happened.
#[test]
fn failed_mxm_with_does_not_affect_next_mxm() {
    let sr = ArithmeticSemiring::<i64>::new();
    let a = Matrix::from_triples(N, N, (0..N).map(|i| (i, (i + 1) % N, 2i64))).unwrap();
    let at = a.transpose_owned();
    let mask = Matrix::from_triples(N, N, (0..N).map(|i| (i, (i + 2) % N, 1i64))).unwrap();

    let mut wrong_shape = Matrix::<i64>::new(N + 1, N);
    let err = operations::mxm_with(
        Some(MxmFamily::MaskedGustavson),
        &mut wrong_shape,
        &mask,
        NoAccumulate,
        &sr,
        &a,
        transpose(&at),
        Replace(false),
    );
    assert!(err.is_err());

    let c = Matrix::<i64>::new(N, N);
    let mut got = c.clone();
    let ran = operations::mxm(
        &mut got,
        &mask,
        NoAccumulate,
        &sr,
        &a,
        transpose(&at),
        Replace(false),
    )
    .unwrap();
    assert_eq!(ran, MxmKernel::MaskedDot);
    let want = reference::mxm(
        &c,
        &mask,
        &NoAccumulate,
        &sr,
        &a,
        transpose(&at),
        Replace(false),
    );
    assert_eq!(got, want);
}
