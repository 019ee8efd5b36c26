//! JIT kernels: the compiled-module bodies the registry instantiates.
//!
//! Each GraphBLAS operation contributes a *factory* keyed by function
//! name. A factory reads the output dtype from the [`ModuleKey`]
//! (`-DC_TYPE=...` in the paper's pipeline) and monomorphizes the
//! generic kernel body for exactly that type — the Rust analog of
//! instantiating `operation_binding.cpp`.
//!
//! How much of the key a module is compiled *for* depends on the
//! operation, and the split is set by measurement (EXPERIMENTS.md,
//! "operator-specialized SpMV modules"):
//!
//! * **The SpMV family** (`mxv`, `vxm`, `mxv_apply`, `vxm_apply`) is
//!   instantiated on the dtype *and* the key's `semiring` triple
//!   (`-DADD_BINOP=Min -DIDENTITY=MinIdentity -DMULT_BINOP=Plus`): the
//!   eight named semirings of `gbtl::ops::semiring` become the
//!   zero-sized type argument of the one generic kernel body, so the
//!   inner loop contains the operators. Such a module checks that the
//!   bundle it is called with carries the triple it was built for and
//!   refuses any other. Every other triple — user-defined operators,
//!   `(Max, MaxIdentity, Plus)`, … — instantiates the same body on
//!   [`KindSemiring`], which interprets the bundle's operator kinds
//!   per element.
//! * **Everything else** (`mxm`, eWise, apply, reduce, assign, the
//!   accumulator of every operation) is instantiated on the dtype only
//!   and interprets its operator kinds from the bundle; their *names*
//!   are still part of the key, so the module space matches the
//!   paper's. Bound constants (`BinaryOp_Bind2nd(damping)`) are runtime
//!   constructor arguments in GBTL too and always travel in the bundle.
//!
//! Operand stores arrive pre-cast to the kernel's domain. A matrix mask
//! arrives as its store's memoized `Bool` view; a vector mask arrives in
//! its own dtype and is coerced entry by entry where the kernel reads it.

use std::sync::Arc;

use gbtl::ops::accum::MaybeAccum;
use gbtl::ops::kind::{
    AppliedUnaryKind, BinaryOpKind, IdentityKind, KindMonoid, KindSemiring, KindUnaryOp,
};
use gbtl::ops::semiring as named;
use gbtl::{Indices, MatrixMask, Semiring, VectorMask};
use pygb_jit::kernel::FnKernel;
use pygb_jit::registry::Factory;
use pygb_jit::{FactoryRegistry, JitError, Kernel, ModuleKey};
use pygb_obs::Census;

use crate::dtype::DType;
use crate::facts::{KernelChoice, SpmvDirection};
use crate::store::{Element, MatrixStore, VectorStore};
use crate::value::DynScalar;

/// Argument bundle for kernels producing a matrix.
pub(crate) struct MatArgs {
    /// The output container (taken from the target; put back after).
    pub c: MatrixStore,
    /// Optional boolean mask pattern (a `Bool` store).
    pub mask: Option<Arc<MatrixStore>>,
    /// Whether the mask is complemented.
    pub complemented: bool,
    /// First matrix operand.
    pub a: Option<Arc<MatrixStore>>,
    /// Whether `a` is transposed.
    pub at: bool,
    /// Second matrix operand.
    pub b: Option<Arc<MatrixStore>>,
    /// Whether `b` is transposed.
    pub bt: bool,
    /// Semiring (mxm).
    pub semiring: Option<KindSemiring>,
    /// Binary operator (eWise).
    pub binop: Option<BinaryOpKind>,
    /// Unary operator (apply).
    pub unary: Option<AppliedUnaryKind>,
    /// Accumulator.
    pub accum: Option<BinaryOpKind>,
    /// Replace flag.
    pub replace: bool,
    /// Row index region (assign / extract).
    pub rows: Option<Indices>,
    /// Column index region (assign / extract).
    pub cols: Option<Indices>,
    /// Constant value (assign-constant).
    pub value: Option<DynScalar>,
    /// Plan-time kernel choice (default: the probes decide).
    pub choice: KernelChoice,
}

impl MatArgs {
    pub(crate) fn new(c: MatrixStore) -> Self {
        MatArgs {
            c,
            mask: None,
            complemented: false,
            a: None,
            at: false,
            b: None,
            bt: false,
            semiring: None,
            binop: None,
            unary: None,
            accum: None,
            replace: false,
            rows: None,
            cols: None,
            value: None,
            choice: KernelChoice::default(),
        }
    }
}

/// Argument bundle for kernels producing a vector. Public so a proof
/// suite outside the crate can invoke two instantiations of one key —
/// the registered factory's and [`interpreted_spmv`]'s — on the same
/// bundle.
pub struct VecArgs {
    /// The output container.
    pub c: VectorStore,
    /// Optional mask, in its own dtype: a stored value masks in when it
    /// coerces to `true`.
    pub mask: Option<Arc<VectorStore>>,
    /// Whether the mask is complemented.
    pub complemented: bool,
    /// Matrix operand (mxv / vxm / row-reduce).
    pub a: Option<Arc<MatrixStore>>,
    /// Whether `a` is transposed.
    pub at: bool,
    /// First vector operand.
    pub u: Option<Arc<VectorStore>>,
    /// Second vector operand.
    pub v: Option<Arc<VectorStore>>,
    /// Third vector operand (fused eWise chains).
    pub w: Option<Arc<VectorStore>>,
    /// Semiring (mxv / vxm).
    pub semiring: Option<KindSemiring>,
    /// Binary operator (eWise).
    pub binop: Option<BinaryOpKind>,
    /// Second binary operator (outer op of fused eWise chains).
    pub binop2: Option<BinaryOpKind>,
    /// Unary operator (apply).
    pub unary: Option<AppliedUnaryKind>,
    /// Monoid (row-reduce / fused eWise-reduce).
    pub monoid: Option<KindMonoid>,
    /// Accumulator.
    pub accum: Option<BinaryOpKind>,
    /// Replace flag.
    pub replace: bool,
    /// Index region (assign / extract).
    pub ix: Option<Indices>,
    /// Constant value (assign-constant).
    pub value: Option<DynScalar>,
    /// Scalar result (fused eWise-reduce), written by the kernel.
    pub out: Option<DynScalar>,
    /// Plan-time kernel choice (default: the orientation decides).
    pub choice: KernelChoice,
}

impl VecArgs {
    /// A bundle around output container `c` with every other slot empty.
    pub fn new(c: VectorStore) -> Self {
        VecArgs {
            c,
            mask: None,
            complemented: false,
            a: None,
            at: false,
            u: None,
            v: None,
            w: None,
            semiring: None,
            binop: None,
            binop2: None,
            unary: None,
            monoid: None,
            accum: None,
            replace: false,
            ix: None,
            value: None,
            out: None,
            choice: KernelChoice::default(),
        }
    }
}

/// Argument bundle for scalar-producing reductions.
pub(crate) struct ScalarArgs {
    /// Matrix operand (reduce_m_scalar).
    pub a: Option<Arc<MatrixStore>>,
    /// Vector operand (reduce_v_scalar).
    pub u: Option<Arc<VectorStore>>,
    /// The reduction monoid.
    pub monoid: Option<KindMonoid>,
    /// The result, written by the kernel.
    pub out: Option<DynScalar>,
}

// ---------------------------------------------------------------------
// Mask adapters: runtime mask choice as a single concrete type.
// ---------------------------------------------------------------------

enum MMask<'x> {
    None,
    Plain(&'x gbtl::Matrix<bool>),
    Comp(&'x gbtl::Matrix<bool>),
}

impl MatrixMask for MMask<'_> {
    fn mask_shape(&self) -> (usize, usize) {
        match self {
            MMask::None => (usize::MAX, usize::MAX),
            MMask::Plain(m) | MMask::Comp(m) => m.shape(),
        }
    }
    #[inline]
    fn allows(&self, i: usize, j: usize) -> bool {
        match self {
            MMask::None => true,
            MMask::Plain(m) => MatrixMask::allows(*m, i, j),
            MMask::Comp(m) => !MatrixMask::allows(*m, i, j),
        }
    }
    fn is_all(&self) -> bool {
        matches!(self, MMask::None)
    }
    fn probe(&self) -> gbtl::MaskProbe {
        match self {
            MMask::None => gbtl::MaskProbe::All,
            MMask::Plain(_) => gbtl::MaskProbe::Structural,
            MMask::Comp(_) => gbtl::MaskProbe::StructuralComplement,
        }
    }
    fn stored_cols_in_row(&self, i: usize) -> &[usize] {
        match self {
            MMask::None => &[],
            MMask::Plain(m) | MMask::Comp(m) => m.stored_cols_in_row(i),
        }
    }
    #[inline]
    fn stored_truthy_in_row(&self, i: usize, p: usize) -> bool {
        match self {
            MMask::None => false,
            MMask::Plain(m) | MMask::Comp(m) => m.stored_truthy_in_row(i, p),
        }
    }
    fn truthy_cols_in_row(&self, i: usize, out: &mut Vec<usize>) {
        match self {
            MMask::None => {}
            MMask::Plain(m) | MMask::Comp(m) => m.truthy_cols_in_row(i, out),
        }
    }
}

fn mmask(mask: &Option<Arc<MatrixStore>>, complemented: bool) -> Result<MMask<'_>, JitError> {
    if mask.is_none() {
        return Ok(MMask::None);
    }
    let m = typed_m::<bool>(mask, "mask")?;
    Ok(if complemented {
        MMask::Comp(m)
    } else {
        MMask::Plain(m)
    })
}

/// A vector mask in its own dtype (see [`VectorStore`]'s `VectorMask`
/// impl), plain or complemented.
enum VMask<'x> {
    None,
    Plain(&'x VectorStore),
    Comp(&'x VectorStore),
}

impl VectorMask for VMask<'_> {
    fn mask_size(&self) -> usize {
        match self {
            VMask::None => usize::MAX,
            VMask::Plain(v) | VMask::Comp(v) => v.size(),
        }
    }
    #[inline]
    fn allows(&self, i: usize) -> bool {
        match self {
            VMask::None => true,
            VMask::Plain(v) => v.allows(i),
            VMask::Comp(v) => !v.allows(i),
        }
    }
    fn is_all(&self) -> bool {
        matches!(self, VMask::None)
    }
    fn probe(&self) -> gbtl::MaskProbe {
        match self {
            VMask::None => gbtl::MaskProbe::All,
            VMask::Plain(_) => gbtl::MaskProbe::Structural,
            VMask::Comp(_) => gbtl::MaskProbe::StructuralComplement,
        }
    }
    fn stored_indices(&self) -> &[usize] {
        match self {
            VMask::None => &[],
            VMask::Plain(v) | VMask::Comp(v) => v.stored_indices(),
        }
    }
    #[inline]
    fn stored_truthy(&self, p: usize) -> bool {
        match self {
            VMask::None => false,
            VMask::Plain(v) | VMask::Comp(v) => v.stored_truthy(p),
        }
    }
    fn truthy_indices(&self, out: &mut Vec<usize>) {
        match self {
            VMask::None => {}
            VMask::Plain(v) | VMask::Comp(v) => v.truthy_indices(out),
        }
    }
}

fn vmask(mask: &Option<Arc<VectorStore>>, complemented: bool) -> VMask<'_> {
    match (mask, complemented) {
        (None, _) => VMask::None,
        (Some(v), false) => VMask::Plain(v),
        (Some(v), true) => VMask::Comp(v),
    }
}

// ---------------------------------------------------------------------
// Typed access helpers.
// ---------------------------------------------------------------------

fn bad(what: &str) -> JitError {
    JitError::bad_key(format!("kernel argument bundle missing `{what}`"))
}

fn typed_m<'x, T: Element>(
    s: &'x Option<Arc<MatrixStore>>,
    what: &str,
) -> Result<&'x gbtl::Matrix<T>, JitError> {
    let store = s.as_ref().ok_or_else(|| bad(what))?;
    T::unwrap_matrix(store).ok_or_else(|| {
        JitError::bad_key(format!(
            "`{what}` has dtype {} but kernel was instantiated for {}",
            store.dtype(),
            T::DTYPE
        ))
    })
}

fn typed_v<'x, T: Element>(
    s: &'x Option<Arc<VectorStore>>,
    what: &str,
) -> Result<&'x gbtl::Vector<T>, JitError> {
    let store = s.as_ref().ok_or_else(|| bad(what))?;
    T::unwrap_vector(store).ok_or_else(|| {
        JitError::bad_key(format!(
            "`{what}` has dtype {} but kernel was instantiated for {}",
            store.dtype(),
            T::DTYPE
        ))
    })
}

fn take_c_m<T: Element>(args: &mut MatArgs) -> Result<gbtl::Matrix<T>, JitError> {
    let c = std::mem::replace(&mut args.c, MatrixStore::placeholder());
    T::unwrap_matrix_owned(c).ok_or_else(|| JitError::bad_key("output dtype mismatch"))
}

fn take_c_v<T: Element>(args: &mut VecArgs) -> Result<gbtl::Vector<T>, JitError> {
    let c = std::mem::replace(&mut args.c, VectorStore::placeholder());
    T::unwrap_vector_owned(c).ok_or_else(|| JitError::bad_key("output dtype mismatch"))
}

fn view<T: gbtl::Scalar>(m: &gbtl::Matrix<T>, transposed: bool) -> gbtl::MatrixArg<'_, T> {
    if transposed {
        gbtl::transpose(m)
    } else {
        gbtl::MatrixArg::Plain(m)
    }
}

/// Resolve the SpMV operand under a plan-time direction choice.
///
/// At this layer orientation is *forced*: a plain operand always runs
/// pull, a transposed one always runs push (there is no dual view, so
/// the gbtl density probe never fires). A choice that agrees with the
/// forced direction changes nothing; one that disagrees swaps in the
/// memoized transpose of the store ([`MatrixStore::transpose_view`])
/// with the orientation flag flipped — same logical operand, opposite
/// kernel direction. `natural_pull` is whether the undecided selection
/// pulls (`!at` for mxv, `at` for vxm).
fn spmv_operand(args: &VecArgs, natural_pull: bool) -> (Option<Arc<MatrixStore>>, bool) {
    let (a, at) = (&args.a, args.at);
    let Some(dir) = args.choice.spmv else {
        return (a.clone(), at);
    };
    Census::StaticKernelHints.inc();
    let want_pull = dir == SpmvDirection::Pull;
    match a {
        Some(src) if want_pull != natural_pull => (Some(src.transpose_view()), !at),
        _ => (a.clone(), at),
    }
}

/// Count the substrate's SpGEMM kernel report in the selection census.
fn record_mxm_select(kernel: gbtl::MxmKernel) {
    match kernel {
        gbtl::MxmKernel::Gustavson => Census::SelSpgemm,
        gbtl::MxmKernel::MaskedGustavson => Census::SelMaskedSpgemm,
        gbtl::MxmKernel::MaskedDot => Census::SelDotSpgemm,
    }
    .inc();
}

/// Count the substrate's SpMV kernel report in the selection census.
fn record_spmv_select(kernel: gbtl::SpmvKernel) {
    match kernel {
        gbtl::SpmvKernel::Pull => Census::SelPull,
        gbtl::SpmvKernel::MaskedPull => Census::SelMaskedPull,
        gbtl::SpmvKernel::Push => Census::SelPush,
        gbtl::SpmvKernel::MaskedPush => Census::SelMaskedPush,
    }
    .inc();
}

// ---------------------------------------------------------------------
// Kernel bodies, generic over the instantiated domain type.
// ---------------------------------------------------------------------

fn k_mxm<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let sr = args.semiring.ok_or_else(|| bad("semiring"))?;
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let b = typed_m::<T>(&args.b, "b")?;
    let family = args.choice.mxm;
    let r = gbtl::operations::mxm_with(
        family,
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        &sr,
        view(a, args.at),
        view(b, args.bt),
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    let kernel = r.map_err(JitError::op)?;
    let honored = matches!(
        (family, kernel),
        (Some(gbtl::MxmFamily::MaskedDot), gbtl::MxmKernel::MaskedDot)
            | (
                Some(gbtl::MxmFamily::MaskedGustavson),
                gbtl::MxmKernel::MaskedGustavson
            )
    );
    if honored {
        Census::StaticKernelHints.inc();
    }
    record_mxm_select(kernel);
    Ok(())
}

fn k_ewise_add_m<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let op = KindUnaryWrap::binop(args.binop)?;
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let b = typed_m::<T>(&args.b, "b")?;
    let r = gbtl::operations::e_wise_add_matrix(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        op,
        view(a, args.at),
        view(b, args.bt),
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

fn k_ewise_mult_m<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let op = KindUnaryWrap::binop(args.binop)?;
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let b = typed_m::<T>(&args.b, "b")?;
    let r = gbtl::operations::e_wise_mult_matrix(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        op,
        view(a, args.at),
        view(b, args.bt),
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

fn k_apply_m<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let op = KindUnaryOp(args.unary.ok_or_else(|| bad("unary"))?);
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let r = gbtl::operations::apply_matrix(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        op,
        view(a, args.at),
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

fn k_transpose_m<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let r = gbtl::operations::transpose_into(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        view(a, args.at),
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

fn k_extract_m<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let rows = args.rows.clone().ok_or_else(|| bad("rows"))?;
    let cols = args.cols.clone().ok_or_else(|| bad("cols"))?;
    let r = gbtl::operations::extract_matrix(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        view(a, args.at),
        &rows,
        &cols,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

fn k_assign_m<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let mut c = take_c_m::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let rows = args.rows.clone().unwrap_or(Indices::All);
    let cols = args.cols.clone().unwrap_or(Indices::All);
    let r = gbtl::operations::assign_matrix(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        a,
        &rows,
        &cols,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

fn k_assign_m_const<T: Element>(args: &mut MatArgs) -> Result<(), JitError> {
    let value = T::from_dyn(args.value.ok_or_else(|| bad("value"))?);
    let rows = args.rows.clone().unwrap_or(Indices::All);
    let cols = args.cols.clone().unwrap_or(Indices::All);
    let mut c = take_c_m::<T>(args)?;
    let r = gbtl::operations::assign_matrix_constant(
        &mut c,
        &mmask(&args.mask, args.complemented)?,
        MaybeAccum(args.accum),
        value,
        &rows,
        &cols,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_matrix(c);
    r.map_err(JitError::op)
}

/// Which member of the SpMV family a module is: read from the key's
/// function name at instantiation, captured by the module's closure.
#[derive(Copy, Clone)]
struct SpmvForm {
    /// `uᵀ ⊕.⊗ A` (`vxm`, `vxm_apply`) rather than `A ⊕.⊗ u`.
    vxm: bool,
    /// Section V's deferred-chain module (`mxv_apply`, `vxm_apply`): the
    /// product and the subsequent `apply` run inside ONE kernel
    /// invocation — the intermediate lives only as a local, and the
    /// mask/accumulate/replace write happens once, on the applied
    /// result.
    apply: bool,
}

impl SpmvForm {
    fn of(key: &ModuleKey) -> Result<Self, JitError> {
        let (vxm, apply) = match key.func() {
            "mxv" => (false, false),
            "vxm" => (true, false),
            "mxv_apply" => (false, true),
            "vxm_apply" => (true, true),
            other => {
                return Err(JitError::bad_key(format!(
                    "`{other}` is not an SpMV module"
                )))
            }
        };
        Ok(SpmvForm { vxm, apply })
    }
}

/// A semiring type the SpMV body can be instantiated on, and how a call
/// obtains its value from the bundle it arrives with.
trait ModuleSemiring<T: gbtl::Scalar>: Semiring<T> {
    /// Whether the operators are part of the type (compiled into the
    /// inner loop) rather than read from the bundle per element.
    const SPECIALIZED: bool;
    fn from_bundle(bundle: Option<KindSemiring>) -> Result<Self, JitError>;
}

/// The interpreter: whatever triple the bundle carries.
impl<T: gbtl::Scalar> ModuleSemiring<T> for KindSemiring {
    const SPECIALIZED: bool = false;
    fn from_bundle(bundle: Option<KindSemiring>) -> Result<Self, JitError> {
        bundle.ok_or_else(|| bad("semiring"))
    }
}

/// The operator-specialized semirings: each zero-sized `gbtl` type with
/// the `(add, identity, mult)` triple it computes. The triple is matched,
/// not the DSL-level name, so `Semiring::new(Monoid("Plus", "Zero"),
/// "Times")` lands on `ArithmeticSemiring` like the predefined constant
/// does (both produce the key `Plus_Zero_Times`).
macro_rules! specialized_semirings {
    ($($ty:ident = ($add:ident, $identity:ident, $mult:ident)),* $(,)?) => {
        $(
            /// Zero-sized: nothing to read from the bundle, but a module
            /// must refuse a bundle it was not built for — the key's
            /// operator *names* can collide (a user operator registered
            /// as `"Plus"`), the kinds cannot.
            impl<T: gbtl::Scalar> ModuleSemiring<T> for named::$ty<T> {
                const SPECIALIZED: bool = true;
                fn from_bundle(bundle: Option<KindSemiring>) -> Result<Self, JitError> {
                    const BUILT_FOR: KindSemiring = KindSemiring {
                        add: KindMonoid {
                            op: BinaryOpKind::$add,
                            identity: IdentityKind::$identity,
                        },
                        mult: BinaryOpKind::$mult,
                    };
                    match bundle {
                        Some(BUILT_FOR) => Ok(Self::new()),
                        Some(other) => Err(JitError::bad_key(format!(
                            "bundle carries semiring `{}` but the module was \
                             instantiated for {}",
                            crate::dispatch::semiring_key(other),
                            stringify!($ty)
                        ))),
                        None => Err(bad("semiring")),
                    }
                }
            }
        )*

        /// The registered factory's instantiation for dtype `T`: the
        /// key's `semiring` parameter resolved to one of the
        /// specialized semirings when the triple names it, to the
        /// interpreter otherwise.
        fn spmv_module_for_key<T: Element>(
            form: SpmvForm,
            key: &ModuleKey,
        ) -> Result<Box<dyn Kernel>, JitError> {
            let triple = key.require("semiring")?;
            $(
                if triple
                    == concat!(stringify!($add), "_", stringify!($identity), "_", stringify!($mult))
                {
                    return counted_spmv_module::<T, named::$ty<T>>(form, key);
                }
            )*
            counted_spmv_module::<T, KindSemiring>(form, key)
        }

        #[cfg(test)]
        const SPECIALIZED_SEMIRING_NAMES: &[&str] = &[$(stringify!($ty)),*];
    };
}

specialized_semirings! {
    ArithmeticSemiring = (Plus, Zero, Times),
    LogicalSemiring = (LogicalOr, Zero, LogicalAnd),
    MinPlusSemiring = (Min, MinIdentity, Plus),
    MaxTimesSemiring = (Max, MaxIdentity, Times),
    MinSelect1stSemiring = (Min, MinIdentity, First),
    MinSelect2ndSemiring = (Min, MinIdentity, Second),
    MaxSelect1stSemiring = (Max, MaxIdentity, First),
    MaxSelect2ndSemiring = (Max, MaxIdentity, Second),
}

/// The one SpMV body: `w⟨m, z⟩ = w ⊙ (A ⊕.⊗ u)` in either operand
/// order, optionally with a unary `apply` fused onto the product. `S`
/// is the module's semiring type — operators in the type, or the
/// interpreter.
fn k_spmv<T: Element, S: ModuleSemiring<T>>(
    args: &mut VecArgs,
    form: SpmvForm,
) -> Result<(), JitError> {
    let sr = S::from_bundle(args.semiring)?;
    let post = if form.apply {
        Some(KindUnaryOp(args.unary.ok_or_else(|| bad("unary"))?))
    } else {
        None
    };
    let mut c = take_c_v::<T>(args)?;
    let natural_pull = if form.vxm { args.at } else { !args.at };
    let (astore, at) = spmv_operand(args, natural_pull);
    let a = typed_m::<T>(&astore, "a")?;
    let u = typed_v::<T>(&args.u, "u")?;
    // u·A = Aᵀ·u: `vxm` is `mxv` on the flipped view.
    let a = if form.vxm {
        view(a, at).flip()
    } else {
        view(a, at)
    };
    let mask = vmask(&args.mask, args.complemented);
    let (accum, replace) = (MaybeAccum(args.accum), gbtl::Replace(args.replace));
    let r = match post {
        None => gbtl::operations::mxv(&mut c, &mask, accum, &sr, a, u, replace),
        Some(op) => {
            // The unmasked product goes through the same `mxv`
            // instantiation as the masked one (an absent mask and
            // accumulator are values of `VMask` / `MaybeAccum`), so a
            // `(T, S)` pair costs one copy of the kernels, not two.
            let mut temp = gbtl::Vector::<T>::new(c.size());
            gbtl::operations::mxv(
                &mut temp,
                &VMask::None,
                MaybeAccum(None),
                &sr,
                a,
                u,
                gbtl::Replace(false),
            )
            .and_then(|sel| {
                gbtl::operations::apply_vector(&mut c, &mask, accum, op, &temp, replace)
                    .map(|()| sel)
            })
        }
    };
    args.c = T::wrap_vector(c);
    record_spmv_select(r.map_err(JitError::op)?);
    Ok(())
}

fn k_ewise_add_v<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let op = KindUnaryWrap::binop(args.binop)?;
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let v = typed_v::<T>(&args.v, "v")?;
    let r = gbtl::operations::e_wise_add_vector(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        op,
        u,
        v,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

fn k_ewise_mult_v<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let op = KindUnaryWrap::binop(args.binop)?;
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let v = typed_v::<T>(&args.v, "v")?;
    let r = gbtl::operations::e_wise_mult_vector(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        op,
        u,
        v,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

fn k_apply_v<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let op = KindUnaryOp(args.unary.ok_or_else(|| bad("unary"))?);
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let r = gbtl::operations::apply_vector(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        op,
        u,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

fn k_extract_v<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let ix = args.ix.clone().ok_or_else(|| bad("ix"))?;
    let r = gbtl::operations::extract_vector(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        u,
        &ix,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

fn k_assign_v<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let ix = args.ix.clone().unwrap_or(Indices::All);
    let r = gbtl::operations::assign_vector(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        u,
        &ix,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

fn k_assign_v_const<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let value = T::from_dyn(args.value.ok_or_else(|| bad("value"))?);
    let ix = args.ix.clone().unwrap_or(Indices::All);
    let mut c = take_c_v::<T>(args)?;
    let r = gbtl::operations::assign_vector_constant(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        value,
        &ix,
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

/// The nonblocking runtime's fused eWise-chain module: two chained
/// element-wise operations (`t = u inner v; c = t outer w`, or the
/// square form `c = t outer t`) run as ONE kernel invocation. The
/// intermediate lives only as a local, and the mask/accumulate/replace
/// write happens once, on the outer result.
fn k_fused_ewise_chain<T: Element>(
    args: &mut VecArgs,
    inner_add: bool,
    outer_add: bool,
    tleft: bool,
    square: bool,
) -> Result<(), JitError> {
    let inner = KindUnaryWrap::binop(args.binop)?;
    let outer = gbtl::ops::kind::KindBinaryOp(args.binop2.ok_or_else(|| bad("binop2"))?);
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let v = typed_v::<T>(&args.v, "v")?;
    let w = if square {
        None
    } else {
        Some(typed_v::<T>(&args.w, "w")?)
    };
    let mut t = gbtl::Vector::<T>::new(u.size());
    let inner_r = if inner_add {
        gbtl::operations::e_wise_add_vector(
            &mut t,
            &gbtl::NoMask,
            gbtl::NoAccumulate,
            inner,
            u,
            v,
            gbtl::Replace(false),
        )
    } else {
        gbtl::operations::e_wise_mult_vector(
            &mut t,
            &gbtl::NoMask,
            gbtl::NoAccumulate,
            inner,
            u,
            v,
            gbtl::Replace(false),
        )
    };
    let r = inner_r.and_then(|()| {
        let (l, rr): (&gbtl::Vector<T>, &gbtl::Vector<T>) = match w {
            None => (&t, &t),
            Some(w) if tleft => (&t, w),
            Some(w) => (w, &t),
        };
        if outer_add {
            gbtl::operations::e_wise_add_vector(
                &mut c,
                &vmask(&args.mask, args.complemented),
                MaybeAccum(args.accum),
                outer,
                l,
                rr,
                gbtl::Replace(args.replace),
            )
        } else {
            gbtl::operations::e_wise_mult_vector(
                &mut c,
                &vmask(&args.mask, args.complemented),
                MaybeAccum(args.accum),
                outer,
                l,
                rr,
                gbtl::Replace(args.replace),
            )
        }
    });
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

/// The nonblocking runtime's fused eWise-then-reduce module: the
/// element-wise result is materialized into `c` AND folded to the
/// scalar in `args.out` within one kernel invocation, saving the
/// separate reduce dispatch.
fn k_fused_ewise_reduce<T: Element>(args: &mut VecArgs, is_add: bool) -> Result<(), JitError> {
    let op = KindUnaryWrap::binop(args.binop)?;
    let monoid = args.monoid.ok_or_else(|| bad("monoid"))?;
    let mut c = take_c_v::<T>(args)?;
    let u = typed_v::<T>(&args.u, "u")?;
    let v = typed_v::<T>(&args.v, "v")?;
    let r = if is_add {
        gbtl::operations::e_wise_add_vector(
            &mut c,
            &gbtl::NoMask,
            gbtl::NoAccumulate,
            op,
            u,
            v,
            gbtl::Replace(false),
        )
    } else {
        gbtl::operations::e_wise_mult_vector(
            &mut c,
            &gbtl::NoMask,
            gbtl::NoAccumulate,
            op,
            u,
            v,
            gbtl::Replace(false),
        )
    };
    if let Err(e) = r {
        args.c = T::wrap_vector(c);
        return Err(JitError::op(e));
    }
    let s: T = gbtl::operations::reduce_vector_scalar(&monoid, &c);
    args.out = Some(s.to_dyn());
    args.c = T::wrap_vector(c);
    Ok(())
}

fn k_reduce_rows<T: Element>(args: &mut VecArgs) -> Result<(), JitError> {
    let monoid = args.monoid.ok_or_else(|| bad("monoid"))?;
    let mut c = take_c_v::<T>(args)?;
    let a = typed_m::<T>(&args.a, "a")?;
    let r = gbtl::operations::reduce_matrix_to_vector(
        &mut c,
        &vmask(&args.mask, args.complemented),
        MaybeAccum(args.accum),
        &monoid,
        view(a, args.at),
        gbtl::Replace(args.replace),
    );
    args.c = T::wrap_vector(c);
    r.map_err(JitError::op)
}

fn k_reduce_m_scalar<T: Element>(args: &mut ScalarArgs) -> Result<(), JitError> {
    let monoid = args.monoid.ok_or_else(|| bad("monoid"))?;
    let a = typed_m::<T>(&args.a, "a")?;
    let out: T = gbtl::operations::reduce_matrix_scalar(&monoid, a);
    args.out = Some(out.to_dyn());
    Ok(())
}

fn k_reduce_v_scalar<T: Element>(args: &mut ScalarArgs) -> Result<(), JitError> {
    let monoid = args.monoid.ok_or_else(|| bad("monoid"))?;
    let u = typed_v::<T>(&args.u, "u")?;
    let out: T = gbtl::operations::reduce_vector_scalar(&monoid, u);
    args.out = Some(out.to_dyn());
    Ok(())
}

/// Helper for binop presence (kept out of kernel bodies for brevity).
struct KindUnaryWrap;
impl KindUnaryWrap {
    fn binop(op: Option<BinaryOpKind>) -> Result<gbtl::ops::kind::KindBinaryOp, JitError> {
        op.map(gbtl::ops::kind::KindBinaryOp)
            .ok_or_else(|| bad("binop"))
    }
}

// ---------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------

/// The dtype a module is instantiated for: the key's `c_type`.
fn key_dtype(key: &ModuleKey) -> Result<DType, JitError> {
    DType::from_name(key.require("c_type")?).map_err(|e| JitError::bad_key(e.to_string()))
}

/// Evaluate `$e` with `$T` bound to the Rust type of dtype `$ct` — the
/// `-DC_TYPE=...` template selection of the paper's
/// `operation_binding.cpp`.
macro_rules! with_dtype {
    ($ct:expr, $T:ident => $e:expr) => {
        with_dtype!(@arms $ct, $T, $e;
            Bool bool, Int8 i8, Int16 i16, Int32 i32, Int64 i64, UInt8 u8,
            UInt16 u16, UInt32 u32, UInt64 u64, Fp32 f32, Fp64 f64)
    };
    (@arms $ct:expr, $T:ident, $e:expr; $($dtype:ident $ty:ty),*) => {
        match $ct {
            $(DType::$dtype => {
                type $T = $ty;
                $e
            })*
        }
    };
}

/// Instantiate a kernel whose body is `$body::<T>` for the key's dtype.
macro_rules! dtype_factory {
    ($argty:ty, $body:ident) => {{
        fn instantiate(key: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
            let ct = key_dtype(key)?;
            let desc = format!("{}<{}> [{}]", key.func(), ct, key.module_name());
            Ok(with_dtype!(ct, T => Box::new(FnKernel::new(
                key.func(),
                desc,
                |a: &mut $argty| $body::<T>(a),
            )) as Box<dyn Kernel>))
        }
        instantiate
    }};
}

/// One SpMV-family module: [`k_spmv`] monomorphized on `(T, S)`.
fn spmv_module<T: Element, S: ModuleSemiring<T> + 'static>(
    form: SpmvForm,
    key: &ModuleKey,
) -> Result<Box<dyn Kernel>, JitError> {
    let desc = format!(
        "{}<{}, {}{}> [{}]",
        key.func(),
        T::DTYPE,
        if S::SPECIALIZED { "" } else { "interpreted " },
        key.require("semiring")?,
        key.module_name()
    );
    Ok(Box::new(FnKernel::new(
        key.func(),
        desc,
        move |a: &mut VecArgs| k_spmv::<T, S>(a, form),
    )))
}

/// [`spmv_module`], counted in the census by which way it went.
fn counted_spmv_module<T: Element, S: ModuleSemiring<T> + 'static>(
    form: SpmvForm,
    key: &ModuleKey,
) -> Result<Box<dyn Kernel>, JitError> {
    let module = spmv_module::<T, S>(form, key)?;
    if S::SPECIALIZED {
        Census::SpecializedModules
    } else {
        Census::InterpretedModules
    }
    .inc();
    Ok(module)
}

/// Factory for `mxv`, `vxm`, `mxv_apply` and `vxm_apply`: besides the
/// dtype, the key's `semiring` triple picks the module's semiring type
/// (`-DADD_BINOP=… -DIDENTITY=… -DMULT_BINOP=…`). Runs once per key, on
/// the cold path.
fn spmv_factory(key: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
    let form = SpmvForm::of(key)?;
    with_dtype!(key_dtype(key)?, T => spmv_module_for_key::<T>(form, key))
}

/// The SpMV-family module for `key` with the operator interpreter as
/// its semiring whatever triple the key names — the instantiation every
/// unlisted triple gets from the registered factory. Exists so a proof
/// suite can run a specialized module and the interpreter on one
/// bundle; dispatch never calls it.
pub fn interpreted_spmv(key: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
    let form = SpmvForm::of(key)?;
    with_dtype!(key_dtype(key)?, T => spmv_module::<T, KindSemiring>(form, key))
}

/// Factory for the nonblocking runtime's fused eWise-chain module. The
/// key carries the chain shape besides the dtype: `chain` names the
/// inner/outer op families (`add_add` … `mult_mult`), `tleft` whether
/// the intermediate feeds the outer op's left slot, `square` whether it
/// feeds both slots.
fn fused_ewise_chain_factory(key: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
    let ct = key_dtype(key)?;
    let (inner_add, outer_add) = match key.require("chain")? {
        "add_add" => (true, true),
        "add_mult" => (true, false),
        "mult_add" => (false, true),
        "mult_mult" => (false, false),
        other => {
            return Err(JitError::bad_key(format!(
                "unknown eWise chain shape `{other}`"
            )))
        }
    };
    let tleft = key.require("tleft")? == "1";
    let square = key.require("square")? == "1";
    let desc = format!("fused_ewise_chain<{ct}> [{}]", key.module_name());
    Ok(with_dtype!(ct, T => Box::new(FnKernel::new(
        "fused_ewise_chain",
        desc,
        move |a: &mut VecArgs| k_fused_ewise_chain::<T>(a, inner_add, outer_add, tleft, square),
    )) as Box<dyn Kernel>))
}

/// Factory for the fused eWise-then-reduce module; the key's `ewise`
/// parameter picks the element-wise family (`add` / `mult`).
fn fused_ewise_reduce_factory(key: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
    let ct = key_dtype(key)?;
    let is_add = match key.require("ewise")? {
        "add" => true,
        "mult" => false,
        other => return Err(JitError::bad_key(format!("unknown eWise family `{other}`"))),
    };
    let desc = format!("fused_ewise_reduce<{ct}> [{}]", key.module_name());
    Ok(with_dtype!(ct, T => Box::new(FnKernel::new(
        "fused_ewise_reduce",
        desc,
        move |a: &mut VecArgs| k_fused_ewise_reduce::<T>(a, is_add),
    )) as Box<dyn Kernel>))
}

/// The kernel-function table: one row per function PyGB registers —
/// its [`Func`] variant, its name in module keys and in the registry,
/// and the factory instantiating it. [`register_all`] registers exactly
/// these rows, and dispatch names every module key through
/// [`Func::name`], so the two cannot drift apart.
macro_rules! kernel_functions {
    ($($(#[$doc:meta])* $func:ident = $name:literal => $factory:expr,)*) => {
        /// A kernel function: the `func` of a module key, as decided by
        /// [`crate::dispatch::kernel`].
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        pub enum Func {
            $($(#[$doc])* $func,)*
        }

        impl Func {
            /// Every kernel function, in registration order.
            pub(crate) const ALL: &'static [Func] = &[$(Func::$func),*];

            /// The function's name in module keys and the registry.
            pub fn name(self) -> &'static str {
                match self {
                    $(Func::$func => $name,)*
                }
            }

            fn factory(self) -> Factory {
                match self {
                    $(Func::$func => $factory,)*
                }
            }
        }
    };
}

kernel_functions! {
    /// `C = A ⊕.⊗ B`.
    Mxm = "mxm" => dtype_factory!(MatArgs, k_mxm),
    /// `w = A ⊕.⊗ u`.
    Mxv = "mxv" => spmv_factory,
    /// `w = uᵀ ⊕.⊗ A`.
    Vxm = "vxm" => spmv_factory,
    /// `w = f(A ⊕.⊗ u)` as one module (Section V's deferred chain).
    MxvApply = "mxv_apply" => spmv_factory,
    /// `w = f(uᵀ ⊕.⊗ A)` as one module.
    VxmApply = "vxm_apply" => spmv_factory,
    /// `C = A ⊕ B`.
    EwiseAddM = "ewise_add_m" => dtype_factory!(MatArgs, k_ewise_add_m),
    /// `C = A ⊗ B`.
    EwiseMultM = "ewise_mult_m" => dtype_factory!(MatArgs, k_ewise_mult_m),
    /// `w = u ⊕ v`.
    EwiseAddV = "ewise_add_v" => dtype_factory!(VecArgs, k_ewise_add_v),
    /// `w = u ⊗ v`.
    EwiseMultV = "ewise_mult_v" => dtype_factory!(VecArgs, k_ewise_mult_v),
    /// `C = f(A)`.
    ApplyM = "apply_m" => dtype_factory!(MatArgs, k_apply_m),
    /// `w = f(u)`.
    ApplyV = "apply_v" => dtype_factory!(VecArgs, k_apply_v),
    /// `C = Aᵀ`.
    TransposeM = "transpose_m" => dtype_factory!(MatArgs, k_transpose_m),
    /// `C = A(rows, cols)`.
    ExtractM = "extract_m" => dtype_factory!(MatArgs, k_extract_m),
    /// `w = u(ix)`.
    ExtractV = "extract_v" => dtype_factory!(VecArgs, k_extract_v),
    /// `C(rows, cols) = A`.
    AssignM = "assign_m" => dtype_factory!(MatArgs, k_assign_m),
    /// `w(ix) = u`.
    AssignV = "assign_v" => dtype_factory!(VecArgs, k_assign_v),
    /// `C(rows, cols) = k`.
    AssignMConst = "assign_m_const" => dtype_factory!(MatArgs, k_assign_m_const),
    /// `w(ix) = k`.
    AssignVConst = "assign_v_const" => dtype_factory!(VecArgs, k_assign_v_const),
    /// `w = ⊕ⱼ A(:, j)`.
    ReduceRows = "reduce_rows" => dtype_factory!(VecArgs, k_reduce_rows),
    /// `s = ⊕ A`.
    ReduceMScalar = "reduce_m_scalar" => dtype_factory!(ScalarArgs, k_reduce_m_scalar),
    /// `s = ⊕ u`.
    ReduceVScalar = "reduce_v_scalar" => dtype_factory!(ScalarArgs, k_reduce_v_scalar),
    /// Two chained eWise ops as one module (nonblocking fusion).
    FusedEwiseChain = "fused_ewise_chain" => fused_ewise_chain_factory,
    /// An eWise op and the reduction consuming it as one module
    /// (nonblocking fusion).
    FusedEwiseReduce = "fused_ewise_reduce" => fused_ewise_reduce_factory,
}

/// Register every PyGB operation's factory into `registry`. Public so
/// benchmarks can build isolated registries to measure instantiation
/// ("compile") cost without touching the global cache.
pub fn register_all(registry: &FactoryRegistry) {
    // Route the substrate's kernel entry/exit reports into the
    // observability layer: per-family latency histograms plus a
    // complete trace span per kernel execution.
    gbtl::hooks::install_kernel_observer(pygb_obs::observe_kernel);
    // Mirror the substrate's push/pull density threshold into the
    // metrics (parts-per-million, since counters are integral) so
    // long-lived services report the value actually in effect.
    pygb_obs::registry()
        .counter("tunables/push_pull_density_ppm")
        .set((gbtl::push_pull_density() * 1e6).round() as u64);
    for &func in Func::ALL {
        registry.register(func.name(), func.factory());
    }
}

/// Number of distinct operation factories PyGB registers (Table I's
/// operations, the two fused deferred-chain modules of Section V, and
/// the two composite modules produced by the nonblocking runtime's
/// fusion pass).
pub const NUM_REGISTERED_OPERATIONS: usize = Func::ALL.len();

#[cfg(test)]
mod tests {
    use super::*;

    fn fp64_key(func: &str) -> ModuleKey {
        ModuleKey::new(func).with("c_type", "fp64")
    }

    #[test]
    fn all_factories_registered() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        assert_eq!(reg.len(), NUM_REGISTERED_OPERATIONS);
    }

    #[test]
    fn mxm_kernel_end_to_end() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        let kernel = reg.instantiate(&fp64_key("mxm")).unwrap();

        let a = gbtl::Matrix::from_triples(2, 2, [(0usize, 1usize, 2.0f64)]).unwrap();
        let b = gbtl::Matrix::from_triples(2, 2, [(1usize, 0usize, 3.0f64)]).unwrap();
        let mut args = MatArgs::new(MatrixStore::new(2, 2, DType::Fp64));
        args.a = Some(Arc::new(f64::wrap_matrix(a)));
        args.b = Some(Arc::new(f64::wrap_matrix(b)));
        args.semiring = KindSemiring::from_name("ArithmeticSemiring");
        kernel.invoke(&mut args).unwrap();
        assert_eq!(args.c.get(0, 0), Some(DynScalar::Fp64(6.0)));
        assert_eq!(args.c.nvals(), 1);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        let kernel = reg.instantiate(&fp64_key("mxm")).unwrap();
        let a = gbtl::Matrix::<i32>::new(2, 2);
        let mut args = MatArgs::new(MatrixStore::new(2, 2, DType::Fp64));
        args.a = Some(Arc::new(i32::wrap_matrix(a.clone())));
        args.b = Some(Arc::new(i32::wrap_matrix(a)));
        args.semiring = KindSemiring::from_name("ArithmeticSemiring");
        let err = kernel.invoke(&mut args).unwrap_err();
        assert!(err.to_string().contains("int32"));
    }

    /// A 2-vertex `mxv` bundle over `sr`: `A = [[·, 2], [·, ·]]`, `u = [·, 3]`.
    fn mxv_args(sr: KindSemiring) -> VecArgs {
        let a = gbtl::Matrix::from_triples(2, 2, [(0usize, 1usize, 2.0f64)]).unwrap();
        let u = gbtl::Vector::from_pairs(2, [(1usize, 3.0f64)]).unwrap();
        let mut args = VecArgs::new(VectorStore::new(2, DType::Fp64));
        args.a = Some(Arc::new(f64::wrap_matrix(a)));
        args.u = Some(Arc::new(f64::wrap_vector(u)));
        args.semiring = Some(sr);
        args
    }

    fn mxv_key(sr: KindSemiring) -> ModuleKey {
        fp64_key("mxv").with("semiring", crate::dispatch::semiring_key(sr))
    }

    #[test]
    fn semiring_mismatch_rejected() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        let min_plus = KindSemiring::from_name("MinPlusSemiring").unwrap();
        let kernel = reg.instantiate(&mxv_key(min_plus)).unwrap();
        // The bundle it was built for runs: 2 + 3.
        let mut args = mxv_args(min_plus);
        kernel.invoke(&mut args).unwrap();
        assert_eq!(args.c.get(0), Some(DynScalar::Fp64(5.0)));
        // Any other bundle is refused, and the output container is
        // still in the bundle (nothing was taken).
        let mut other = mxv_args(KindSemiring::from_name("ArithmeticSemiring").unwrap());
        let err = kernel.invoke(&mut other).unwrap_err();
        assert!(matches!(err, JitError::BadKey { .. }), "{err}");
        assert!(err.to_string().contains("MinPlusSemiring"), "{err}");
        assert_eq!(other.c.size(), 2);
        let mut none = mxv_args(min_plus);
        none.semiring = None;
        assert!(kernel.invoke(&mut none).is_err());
        // What the check exists for: operator *names* make the key, and
        // a user operator may take a built-in's name; the kinds differ.
        let fake_plus = gbtl::ops::kind::register_user_binary_op(
            "Plus",
            |a, b| a - b,
            Some(IdentityKind::Zero),
        );
        let fake = KindSemiring::new(
            KindMonoid::new(fake_plus, IdentityKind::Zero),
            BinaryOpKind::Times,
        );
        assert_eq!(mxv_key(fake).get("semiring"), Some("Plus_Zero_Times"));
        let arithmetic = reg.instantiate(&mxv_key(fake)).unwrap();
        assert!(arithmetic.invoke(&mut mxv_args(fake)).is_err());
        // The interpreter reads whatever the bundle carries.
        let interp = interpreted_spmv(&mxv_key(min_plus)).unwrap();
        let mut args = mxv_args(KindSemiring::from_name("ArithmeticSemiring").unwrap());
        interp.invoke(&mut args).unwrap();
        assert_eq!(args.c.get(0), Some(DynScalar::Fp64(6.0)));
    }

    #[test]
    fn specialization_table_is_the_named_semirings() {
        // Every predefined semiring name resolves to a specialized
        // module whose built-for triple is the one `from_name` assembles.
        assert_eq!(SPECIALIZED_SEMIRING_NAMES.len(), 8);
        for name in SPECIALIZED_SEMIRING_NAMES {
            let sr = KindSemiring::from_name(name).unwrap();
            for func in ["mxv", "vxm", "mxv_apply", "vxm_apply"] {
                let key = fp64_key(func).with("semiring", crate::dispatch::semiring_key(sr));
                let kernel = spmv_factory(&key).unwrap();
                let triple = key.get("semiring").unwrap();
                assert!(
                    kernel
                        .describe()
                        .starts_with(&format!("{func}<fp64, {triple}> [")),
                    "{name}: {}",
                    kernel.describe()
                );
            }
            spmv_factory(&mxv_key(sr))
                .unwrap()
                .invoke(&mut mxv_args(sr))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // An unlisted triple gets the interpreter, and says so.
        let max_plus = KindSemiring::new(
            KindMonoid::new(BinaryOpKind::Max, IdentityKind::MaxIdentity),
            BinaryOpKind::Plus,
        );
        let kernel = spmv_factory(&mxv_key(max_plus)).unwrap();
        assert!(
            kernel
                .describe()
                .starts_with("mxv<fp64, interpreted Max_MaxIdentity_Plus> ["),
            "{}",
            kernel.describe()
        );
        let mut args = mxv_args(max_plus);
        kernel.invoke(&mut args).unwrap();
        assert_eq!(args.c.get(0), Some(DynScalar::Fp64(5.0)));
        // No semiring in the key is a malformed key, found at
        // instantiation rather than at the first call.
        assert!(spmv_factory(&fp64_key("mxv")).is_err());
        assert!(interpreted_spmv(&fp64_key("mxm")).is_err());
    }

    #[test]
    fn unknown_ctype_rejected_at_instantiation() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        let key = ModuleKey::new("mxm").with("c_type", "complex64");
        assert!(reg.instantiate(&key).is_err());
        let missing = ModuleKey::new("mxm");
        assert!(reg.instantiate(&missing).is_err());
    }

    #[test]
    fn reduce_scalar_kernel() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        let kernel = reg
            .instantiate(&ModuleKey::new("reduce_v_scalar").with("c_type", "int64"))
            .unwrap();
        let u = gbtl::Vector::from_pairs(4, [(0usize, 2i64), (3, 40)]).unwrap();
        let mut args = ScalarArgs {
            a: None,
            u: Some(Arc::new(i64::wrap_vector(u))),
            monoid: Some(KindMonoid {
                op: BinaryOpKind::Plus,
                identity: IdentityKind::Zero,
            }),
            out: None,
        };
        kernel.invoke(&mut args).unwrap();
        assert_eq!(args.out, Some(DynScalar::Int64(42)));
    }

    #[test]
    fn wrong_args_type_is_abi_mismatch() {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        let kernel = reg.instantiate(&fp64_key("mxm")).unwrap();
        let mut wrong = 5u8;
        assert!(matches!(
            kernel.invoke(&mut wrong),
            Err(JitError::ArgumentTypeMismatch { .. })
        ));
    }
}
