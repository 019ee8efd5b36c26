//! The dispatch layer — Fig. 9's `operate()`:
//!
//! ```python
//! def operator(func, **kwargs):
//!     for kw, arg in kwargs.items():
//!         kwargs[kw] = arg.dtype
//!     m = get_module(kwargs)
//!     getattr(m, func)(**kwargs)
//! ```
//!
//! Every evaluation takes one path:
//!
//! 1. **Front door.** `eval_vector` / `eval_matrix` take an
//!    assignment `C⟨M⟩[region] ⊙= rhs` whose right-hand side is an
//!    expression or a scalar, and share one preamble: static analysis,
//!    enqueue (nonblocking) or flush and settle (blocking), and Sec. IV's
//!    region temporary.
//! 2. **Lowering table.** [`kernel`] decides the kernel function of
//!    every operation, here and nowhere else (`plan()` reads it too).
//!    `lower_vector` / `lower_matrix` then fill the operand slots of
//!    each expression kind through one `Lowering` helper per slot —
//!    matrix operand with its transpose flag, vector operand, semiring,
//!    binary op, unary op, monoid, mask, accumulator and replace — each
//!    of which writes the key parameter (dtype and operator *names*),
//!    the argument-bundle field and the operand's upcast to the output
//!    dtype in one go. The [`ModuleKey`] is built under its final name
//!    from the start.
//! 3. **Tail.** [`JitRuntime::dispatch`] renders and hashes the key
//!    once, fetches or instantiates the module and invokes it. A
//!    [`pygb_jit::PipelineTrace`] exists only while tracing is on: the
//!    front stages travel as numbers. Error provenance (the op name and
//!    its rendered operands) is formatted only when the kernel fails.
//!
//! The scalar reductions and the nonblocking runtime's fused
//! eWise-reduce lower through the same slots and share the tail.

use std::any::Any;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gbtl::ops::kind::{AppliedUnaryKind, BinaryOpKind, KindMonoid, KindSemiring};
use gbtl::Indices;
use pygb_jit::{JitError, JitRuntime, ModuleKey, Stage};

use crate::dtype::DType;
use crate::error::{PygbError, Result};
use crate::expr::{
    identity_unary, MatOperand, MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind,
};
use crate::facts::KernelChoice;
use crate::kernels::{self, Func, MatArgs, ScalarArgs, VecArgs};
use crate::matrix::Matrix;
use crate::nb::{MatRhs, VecRhs};
use crate::store::{MatrixStore, VectorStore};
use crate::value::DynScalar;
use crate::vector::Vector;

/// The JIT runtime PyGB dispatches through, with all operation
/// factories registered (done once per process).
pub fn runtime() -> &'static Arc<JitRuntime> {
    static REGISTERED: OnceLock<()> = OnceLock::new();
    let rt = pygb_jit::global();
    REGISTERED.get_or_init(|| kernels::register_all(rt.registry()));
    rt
}

// --- key-string helpers (operator names, not values) ---

/// The key's `semiring` parameter for a triple
/// (`Min_MinIdentity_Plus`): what the SpMV factories resolve to a
/// semiring type.
pub fn semiring_key(sr: KindSemiring) -> String {
    format!(
        "{}_{}_{}",
        sr.add.op.name(),
        sr.add.identity.name(),
        sr.mult.name()
    )
}

fn monoid_key(m: KindMonoid) -> String {
    format!("{}_{}", m.op.name(), m.identity.name())
}

fn unary_key(u: AppliedUnaryKind) -> String {
    // Bound constants are runtime arguments (like GBTL's
    // `BinaryOp_Bind2nd(damping)`), so they stay out of the key.
    match u {
        AppliedUnaryKind::Pure(k) => k.name().to_string(),
        AppliedUnaryKind::Bind1st(op, _) => format!("Bind1st({})", op.name()),
        AppliedUnaryKind::Bind2nd(op, _) => format!("Bind2nd({})", op.name()),
    }
}

fn flag(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

/// The operand as dtype `to`: the store itself or its memoized cast
/// (converted once per store, not once per op). The Rust analog of the
/// element-wise conversion GBTL's templates do inside the kernel.
fn cast_m(store: &Arc<MatrixStore>, to: DType) -> Result<Arc<MatrixStore>> {
    // Operands may be deferred placeholders in nonblocking mode; read
    // through the runtime's resolution map (flushing if necessary)
    // *before* asking for a view, so a view is only ever memoized on
    // the real store, never on the empty placeholder naming it.
    Ok(crate::nb::resolved_mat(store)?.cast_view(to))
}

fn cast_v(store: &Arc<VectorStore>, to: DType) -> Result<Arc<VectorStore>> {
    let store = crate::nb::resolved_vec(store)?;
    Ok(if store.dtype() == to {
        store
    } else {
        Arc::new(store.cast(to))
    })
}

fn missing(needed: &'static str, operation: &'static str) -> PygbError {
    PygbError::MissingOperator { needed, operation }
}

// ---------------------------------------------------------------------
// The lowering table.
// ---------------------------------------------------------------------

/// One operation as dispatch sees it — what [`kernel`] names.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a> {
    /// `w⟨m⟩[region] ⊙= rhs`; `region` says whether an index region
    /// was given.
    Vector {
        /// The right-hand side.
        rhs: &'a VecRhs,
        /// Whether the assignment targets an index region.
        region: bool,
    },
    /// `C⟨M⟩[region] ⊙= rhs`.
    Matrix {
        /// The right-hand side.
        rhs: &'a MatRhs,
        /// Whether the assignment targets an index region.
        region: bool,
    },
    /// `s = reduce(u)`.
    ReduceVector,
    /// `s = reduce(A)`.
    ReduceMatrix,
    /// The nonblocking runtime's eWise producer fused into the
    /// reduction that consumes it.
    FusedEwiseReduce,
}

/// The kernel function `op` dispatches as. Decided here and nowhere
/// else: lowering names the module key with it and `plan()` reports
/// it. A computed right-hand side assigned into a region is named by
/// its expression (Sec. IV evaluates it into a temporary first).
pub fn kernel(op: Op<'_>) -> Func {
    use MatrixExprKind as M;
    use VectorExprKind as V;
    match op {
        Op::Vector { rhs, region } => match rhs {
            VecRhs::Scalar(_) => Func::AssignVConst,
            VecRhs::Expr(e) => match &e.kind {
                V::MxV { .. } => Func::Mxv,
                V::VxM { .. } => Func::Vxm,
                V::EWiseAdd { .. } => Func::EwiseAddV,
                V::EWiseMult { .. } => Func::EwiseMultV,
                V::Apply { .. } => Func::ApplyV,
                V::Extract { .. } => Func::ExtractV,
                V::ReduceRows { .. } => Func::ReduceRows,
                V::FusedMxvApply { vxm: false, .. } => Func::MxvApply,
                V::FusedMxvApply { vxm: true, .. } => Func::VxmApply,
                V::FusedEwiseChain { .. } => Func::FusedEwiseChain,
                V::Ref { .. } if region => Func::AssignV,
                // `w[None] = u` — an identity apply, as Fig. 8 lines 13-14.
                V::Ref { .. } => Func::ApplyV,
            },
        },
        Op::Matrix { rhs, region } => match rhs {
            MatRhs::Scalar(_) => Func::AssignMConst,
            MatRhs::Expr(e) => match &e.kind {
                M::MxM { .. } => Func::Mxm,
                M::EWiseAdd { .. } => Func::EwiseAddM,
                M::EWiseMult { .. } => Func::EwiseMultM,
                M::Apply { .. } => Func::ApplyM,
                M::Transpose { .. } => Func::TransposeM,
                M::Extract { .. } => Func::ExtractM,
                M::Ref { .. } if region => Func::AssignM,
                M::Ref { .. } => Func::ApplyM,
            },
        },
        Op::ReduceVector => Func::ReduceVScalar,
        Op::ReduceMatrix => Func::ReduceMScalar,
        Op::FusedEwiseReduce => Func::FusedEwiseReduce,
    }
}

/// A module key under construction, filled one operand slot at a time.
/// Each slot writes its key parameters and returns the value for the
/// matching argument-bundle field, with operands already cast to the
/// output dtype `ct`.
struct Lowering {
    func: Func,
    key: ModuleKey,
    ct: DType,
}

/// Key parameters of the first and second matrix operand: dtype and
/// transpose flag.
const A: [&str; 2] = ["a_type", "at"];
const B: [&str; 2] = ["b_type", "bt"];

impl Lowering {
    fn new(op: Op<'_>, ct: DType) -> Self {
        let func = kernel(op);
        let mut key = ModuleKey::new(func.name());
        key.set("c_type", ct.name());
        Lowering { func, key, ct }
    }

    /// A matrix operand and its transpose flag.
    fn mat(
        &mut self,
        [ty, transposed]: [&'static str; 2],
        a: &MatOperand,
    ) -> Result<(Option<Arc<MatrixStore>>, bool)> {
        self.key.set(transposed, flag(a.transposed));
        Ok((self.mat_store(ty, &a.store)?, a.transposed))
    }

    /// A matrix operand used as stored (no transpose flag in the key).
    fn mat_store(
        &mut self,
        ty: &'static str,
        a: &Arc<MatrixStore>,
    ) -> Result<Option<Arc<MatrixStore>>> {
        self.key.set(ty, a.dtype().name());
        Ok(Some(cast_m(a, self.ct)?))
    }

    /// A vector operand.
    fn vec(&mut self, ty: &'static str, u: &Arc<VectorStore>) -> Result<Option<Arc<VectorStore>>> {
        self.key.set(ty, u.dtype().name());
        Ok(Some(cast_v(u, self.ct)?))
    }

    fn semiring(
        &mut self,
        sr: Option<KindSemiring>,
        operation: &'static str,
    ) -> Result<Option<KindSemiring>> {
        let sr = sr.ok_or_else(|| missing("semiring", operation))?;
        self.key.set("semiring", semiring_key(sr));
        Ok(Some(sr))
    }

    fn binop(
        &mut self,
        param: &'static str,
        op: Option<BinaryOpKind>,
        operation: &'static str,
    ) -> Result<Option<BinaryOpKind>> {
        let op = op.ok_or_else(|| missing("binary operator", operation))?;
        self.key.set(param, op.name());
        Ok(Some(op))
    }

    fn unary(
        &mut self,
        op: Option<AppliedUnaryKind>,
        operation: &'static str,
    ) -> Result<Option<AppliedUnaryKind>> {
        let op = op.ok_or_else(|| missing("unary operator", operation))?;
        self.key.set("unary", unary_key(op));
        Ok(Some(op))
    }

    fn monoid(
        &mut self,
        m: Option<KindMonoid>,
        operation: &'static str,
    ) -> Result<Option<KindMonoid>> {
        let m = m.ok_or_else(|| missing("monoid", operation))?;
        self.key.set("monoid", monoid_key(m));
        Ok(Some(m))
    }

    /// The accumulator and replace flag.
    fn accum_replace(
        &mut self,
        accum: Option<BinaryOpKind>,
        replace: bool,
    ) -> (Option<BinaryOpKind>, bool) {
        if let Some(a) = accum {
            self.key.set("accum", a.name());
        }
        self.key.set("replace", flag(replace));
        (accum, replace)
    }

    /// A vector mask, as stored: kernels coerce its values where they
    /// read them. The key records the mask's dtype and the complement
    /// flag.
    fn vec_mask(
        &mut self,
        mask: &Option<(Arc<VectorStore>, bool)>,
    ) -> Result<(Option<Arc<VectorStore>>, bool)> {
        let Some((m, complemented)) = mask else {
            return Ok((None, false));
        };
        self.mask_params(m.dtype(), *complemented);
        Ok((Some(crate::nb::resolved_vec(m)?), *complemented))
    }

    /// A matrix mask: its memoized `Bool` view.
    fn mat_mask(
        &mut self,
        mask: &Option<(Arc<MatrixStore>, bool)>,
    ) -> Result<(Option<Arc<MatrixStore>>, bool)> {
        let Some((m, complemented)) = mask else {
            return Ok((None, false));
        };
        self.mask_params(m.dtype(), *complemented);
        Ok((Some(cast_m(m, DType::Bool)?), *complemented))
    }

    fn mask_params(&mut self, dtype: DType, complemented: bool) {
        self.key.set("mask_type", dtype.name());
        self.key.set("complement", flag(complemented));
    }

    fn scalar(&mut self, value: DynScalar) -> Option<DynScalar> {
        self.key.set("value_type", value.dtype().name());
        Some(value)
    }
}

/// The vector rows of the lowering table: `w⟨mask⟩[region] ⊙= rhs` as a
/// module key and an argument bundle (output container still to fill).
fn lower_vector(
    ct: DType,
    mask: &Option<(Arc<VectorStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<Indices>,
    rhs: &VecRhs,
    choice: KernelChoice,
) -> Result<(ModuleKey, VecArgs)> {
    use VectorExprKind as V;
    let mut l = Lowering::new(
        Op::Vector {
            rhs,
            region: region.is_some(),
        },
        ct,
    );
    let mut args = VecArgs::new(VectorStore::placeholder());
    (args.mask, args.complemented) = l.vec_mask(mask)?;
    (args.accum, args.replace) = l.accum_replace(accum, replace);
    args.choice = choice;
    args.ix = region;
    let e = match rhs {
        VecRhs::Scalar(value) => {
            args.value = l.scalar(*value);
            return Ok((l.key, args));
        }
        VecRhs::Expr(e) => e,
    };
    let name = crate::analyze::vec_op_name(e);
    match &e.kind {
        V::MxV { a, u, semiring } | V::VxM { u, a, semiring } => {
            (args.a, args.at) = l.mat(A, a)?;
            args.u = l.vec("u_type", u)?;
            args.semiring = l.semiring(*semiring, name)?;
        }
        V::EWiseAdd { u, v, op } | V::EWiseMult { u, v, op } => {
            args.u = l.vec("u_type", u)?;
            args.v = l.vec("v_type", v)?;
            args.binop = l.binop("binop", *op, name)?;
        }
        V::Apply { u, op } => {
            args.u = l.vec("u_type", u)?;
            args.unary = l.unary(*op, name)?;
        }
        V::Extract { u, ix } => {
            args.u = l.vec("u_type", u)?;
            args.ix = Some(ix.clone());
        }
        V::ReduceRows { a, monoid } => {
            (args.a, args.at) = l.mat(A, a)?;
            args.monoid = l.monoid(*monoid, name)?;
        }
        V::FusedMxvApply {
            a,
            u,
            semiring,
            unary,
            ..
        } => {
            (args.a, args.at) = l.mat(A, a)?;
            args.u = l.vec("u_type", u)?;
            args.semiring = l.semiring(*semiring, "mxv")?;
            args.unary = l.unary(*unary, "fused apply")?;
        }
        V::FusedEwiseChain {
            u,
            v,
            w,
            inner,
            outer,
            inner_add,
            outer_add,
            inner_left,
        } => {
            args.u = l.vec("u_type", u)?;
            args.v = l.vec("v_type", v)?;
            if let Some(w) = w {
                args.w = l.vec("w_type", w)?;
            }
            args.binop = l.binop("binop", Some(*inner), name)?;
            args.binop2 = l.binop("binop2", Some(*outer), name)?;
            let chain = match (inner_add, outer_add) {
                (true, true) => "add_add",
                (true, false) => "add_mult",
                (false, true) => "mult_add",
                (false, false) => "mult_mult",
            };
            l.key.set("chain", chain);
            l.key.set("tleft", flag(*inner_left));
            l.key.set("square", flag(w.is_none()));
        }
        V::Ref { u } => {
            args.u = l.vec("u_type", u)?;
            if l.func == Func::ApplyV {
                args.unary = l.unary(Some(identity_unary()), name)?;
            }
        }
    }
    Ok((l.key, args))
}

/// The matrix rows of the lowering table (see `lower_vector`).
fn lower_matrix(
    ct: DType,
    mask: &Option<(Arc<MatrixStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<(Indices, Indices)>,
    rhs: &MatRhs,
    choice: KernelChoice,
) -> Result<(ModuleKey, MatArgs)> {
    use MatrixExprKind as M;
    let mut l = Lowering::new(
        Op::Matrix {
            rhs,
            region: region.is_some(),
        },
        ct,
    );
    let mut args = MatArgs::new(MatrixStore::placeholder());
    (args.mask, args.complemented) = l.mat_mask(mask)?;
    (args.accum, args.replace) = l.accum_replace(accum, replace);
    args.choice = choice;
    (args.rows, args.cols) = region.unzip();
    let e = match rhs {
        MatRhs::Scalar(value) => {
            args.value = l.scalar(*value);
            return Ok((l.key, args));
        }
        MatRhs::Expr(e) => e,
    };
    let name = crate::analyze::mat_op_name(e);
    match &e.kind {
        M::MxM { a, b, semiring } => {
            (args.a, args.at) = l.mat(A, a)?;
            (args.b, args.bt) = l.mat(B, b)?;
            args.semiring = l.semiring(*semiring, name)?;
        }
        M::EWiseAdd { a, b, op } | M::EWiseMult { a, b, op } => {
            (args.a, args.at) = l.mat(A, a)?;
            (args.b, args.bt) = l.mat(B, b)?;
            args.binop = l.binop("binop", *op, name)?;
        }
        M::Apply { a, op } => {
            (args.a, args.at) = l.mat(A, a)?;
            args.unary = l.unary(*op, name)?;
        }
        M::Transpose { a } => args.a = l.mat_store("a_type", a)?,
        M::Extract { a, rows, cols } => {
            (args.a, args.at) = l.mat(A, a)?;
            args.rows = Some(rows.clone());
            args.cols = Some(cols.clone());
        }
        M::Ref { a } => {
            args.a = l.mat_store("a_type", a)?;
            if l.func == Func::ApplyM {
                args.unary = l.unary(Some(identity_unary()), name)?;
            }
        }
    }
    Ok((l.key, args))
}

// ---------------------------------------------------------------------
// The tail.
// ---------------------------------------------------------------------

/// Hand a lowered key and bundle to the JIT runtime, with Fig. 9's
/// front stages as numbers: the expression's construction (when there
/// is an expression) and type inference, i.e. lowering.
fn run(
    key: &ModuleKey,
    args: &mut dyn Any,
    build_ns: Option<u64>,
    infer_ns: u64,
) -> std::result::Result<(), JitError> {
    let infer = (Stage::TypeInference, infer_ns);
    match build_ns {
        Some(ns) => runtime().dispatch(key, args, &[(Stage::ExpressionConstruction, ns), infer]),
        None => runtime().dispatch(key, args, &[infer]),
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Front doors.
// ---------------------------------------------------------------------

/// Evaluate `target⟨mask⟩[region] ⊙= rhs` — the engine behind every
/// vector assignment (`w[m] = expr`, `w[m] += expr`, `w[m][:] = k`),
/// and what the nonblocking runtime runs each deferred vector node
/// through.
pub(crate) fn eval_vector(
    target: &mut Vector,
    mask: Option<(Arc<VectorStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<Indices>,
    rhs: VecRhs,
    choice: KernelChoice,
) -> Result<()> {
    // Static analysis first, on both paths: a malformed operation is
    // rejected here — at the statement that built it — whether it would
    // have executed now or been enqueued into the op-DAG.
    {
        let _sp = pygb_obs::span(pygb_obs::Cat::Analyze, "analyze/vector");
        match &rhs {
            VecRhs::Expr(e) => crate::analyze::check_vector(target, &mask, replace, &region, e)?,
            VecRhs::Scalar(v) => {
                crate::analyze::check_vector_scalar(target, &mask, replace, &region, v)?
            }
        }
    }
    let build_ns = match &rhs {
        // The expression tree timed its own construction; surface it as
        // a build-phase span (its end is approximated by "now").
        VecRhs::Expr(e) => {
            pygb_obs::observe_phase(pygb_obs::Cat::Build, "build/vector_expr", e.build_ns);
            Some(e.build_ns)
        }
        VecRhs::Scalar(_) => None,
    };

    if crate::nb::is_deferring() {
        return crate::nb::enqueue_vector(target, mask, accum, replace, region, rhs);
    }
    // Blocking path: any deferred work must land first, and the target
    // may still hold a pending placeholder from an earlier deferral.
    crate::nb::flush()?;
    target.settle()?;

    // Sec. IV: a non-container expression assigned into an index region
    // forces an intermediate evaluation — "GBTL has no way to express
    // it as a single merged operation".
    if let (Some(_), VecRhs::Expr(e)) = (&region, &rhs) {
        if !matches!(e.kind, VectorExprKind::Ref { .. }) {
            let mut temp = Vector::new(e.result_size(), target.dtype());
            eval_vector(&mut temp, None, None, false, None, rhs, choice)?;
            let rhs = VecRhs::Expr(VectorExpr::from(&temp));
            return eval_vector(
                target,
                mask,
                accum,
                replace,
                region,
                rhs,
                KernelChoice::default(),
            );
        }
    }

    let infer_start = Instant::now();
    let (key, mut args) =
        lower_vector(target.dtype(), &mask, accum, replace, region, &rhs, choice)?;
    let infer_ns = elapsed_ns(infer_start);
    args.c = target.take_store();
    let outcome = run(&key, &mut args, build_ns, infer_ns);
    target.put_store(args.c);
    outcome.map_err(|e| {
        let (op, operands) = match &rhs {
            VecRhs::Expr(e) => (
                crate::analyze::vec_op_name(e),
                crate::analyze::describe_vector_expr(e),
            ),
            VecRhs::Scalar(_) => ("assign", format!("[{} {}]", target.size(), target.dtype())),
        };
        PygbError::from(e).with_op(op, operands)
    })
}

/// Matrix analog of `eval_vector`: `C[M, z] = expr`, `C[M] += expr`,
/// `C[M][i, j] = k`.
pub(crate) fn eval_matrix(
    target: &mut Matrix,
    mask: Option<(Arc<MatrixStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<(Indices, Indices)>,
    rhs: MatRhs,
    choice: KernelChoice,
) -> Result<()> {
    {
        let _sp = pygb_obs::span(pygb_obs::Cat::Analyze, "analyze/matrix");
        match &rhs {
            MatRhs::Expr(e) => crate::analyze::check_matrix(target, &mask, replace, &region, e)?,
            MatRhs::Scalar(v) => {
                crate::analyze::check_matrix_scalar(target, &mask, replace, &region, v)?
            }
        }
    }
    let build_ns = match &rhs {
        MatRhs::Expr(e) => {
            pygb_obs::observe_phase(pygb_obs::Cat::Build, "build/matrix_expr", e.build_ns);
            Some(e.build_ns)
        }
        MatRhs::Scalar(_) => None,
    };

    if crate::nb::is_deferring() {
        return crate::nb::enqueue_matrix(target, mask, accum, replace, region, rhs);
    }
    crate::nb::flush()?;
    target.settle()?;

    if let (Some(_), MatRhs::Expr(e)) = (&region, &rhs) {
        if !matches!(e.kind, MatrixExprKind::Ref { .. }) {
            let (r, c) = e.result_shape();
            let mut temp = Matrix::new(r, c, target.dtype());
            eval_matrix(&mut temp, None, None, false, None, rhs, choice)?;
            let rhs = MatRhs::Expr(MatrixExpr::from(&temp));
            return eval_matrix(
                target,
                mask,
                accum,
                replace,
                region,
                rhs,
                KernelChoice::default(),
            );
        }
    }

    let infer_start = Instant::now();
    let (key, mut args) =
        lower_matrix(target.dtype(), &mask, accum, replace, region, &rhs, choice)?;
    let infer_ns = elapsed_ns(infer_start);
    args.c = target.take_store();
    let outcome = run(&key, &mut args, build_ns, infer_ns);
    target.put_store(args.c);
    outcome.map_err(|e| {
        let (op, operands) = match &rhs {
            MatRhs::Expr(e) => (
                crate::analyze::mat_op_name(e),
                crate::analyze::describe_matrix_expr(e),
            ),
            MatRhs::Scalar(_) => (
                "assign",
                format!("[{}x{} {}]", target.nrows(), target.ncols(), target.dtype()),
            ),
        };
        PygbError::from(e).with_op(op, operands)
    })
}

/// Dispatch the nonblocking runtime's fused eWise-then-reduce composite
/// module: evaluate `u op v` into a fresh vector of dimension `size`
/// and dtype `ct` AND fold it to a scalar with `monoid`, in one kernel
/// invocation. Returns the materialized vector (the producer's result,
/// still observable) and the scalar.
pub fn dispatch_fused_ewise_reduce(
    size: usize,
    ct: DType,
    u: Arc<VectorStore>,
    v: Arc<VectorStore>,
    op: BinaryOpKind,
    is_add: bool,
    monoid: KindMonoid,
) -> Result<(VectorStore, DynScalar)> {
    let infer_start = Instant::now();
    let mut l = Lowering::new(Op::FusedEwiseReduce, ct);
    let mut args = VecArgs::new(VectorStore::new(size, ct));
    args.u = l.vec("u_type", &u)?;
    args.v = l.vec("v_type", &v)?;
    args.binop = l.binop("binop", Some(op), "eWise-reduce")?;
    l.key.set("ewise", if is_add { "add" } else { "mult" });
    args.monoid = l.monoid(Some(monoid), "reduce")?;
    run(&l.key, &mut args, None, elapsed_ns(infer_start))?;
    let out = args
        .out
        .take()
        .ok_or_else(|| PygbError::Jit(JitError::bad_key("fused eWise-reduce produced no value")))?;
    Ok((args.c, out))
}

// ---------------------------------------------------------------------
// Terminating scalar reductions (`s = reduce(A)`, `s = reduce(u)`).
// ---------------------------------------------------------------------

/// The monoid `reduce` falls back to when none is in context — the
/// paper's Fig. 5a reduces outside the `with` block and the text says
/// "Reduce uses the PlusMonoid".
const DEFAULT_REDUCE_MONOID: KindMonoid = KindMonoid {
    op: BinaryOpKind::Plus,
    identity: gbtl::ops::kind::IdentityKind::Zero,
};

/// `gb.reduce(x)` — fold a whole container to a scalar with the monoid
/// from context (PlusMonoid if none). Terminating: dispatches
/// immediately.
pub fn reduce<A: ReduceArg>(a: A) -> Result<DynScalar> {
    a.reduce_scalar()
}

/// Operand kinds accepted by [`reduce`].
pub trait ReduceArg {
    /// Run the reduction.
    fn reduce_scalar(self) -> Result<DynScalar>;
}

/// Lower and dispatch a scalar reduction whose operand is already in
/// `args` (uncast: the module is instantiated for the operand's dtype).
fn reduce_to_scalar(
    op: Op<'_>,
    ct: DType,
    monoid: KindMonoid,
    mut args: ScalarArgs,
) -> Result<DynScalar> {
    let infer_start = Instant::now();
    let mut l = Lowering::new(op, ct);
    args.monoid = l.monoid(Some(monoid), "reduce")?;
    run(&l.key, &mut args, None, elapsed_ns(infer_start))?;
    args.out
        .ok_or_else(|| PygbError::Jit(JitError::bad_key("reduce produced no value")))
}

impl ReduceArg for &Matrix {
    fn reduce_scalar(self) -> Result<DynScalar> {
        let monoid = crate::context::resolve_monoid().unwrap_or(DEFAULT_REDUCE_MONOID);
        // Reduce-to-scalar is a terminating operation: deferred work
        // feeding this container must land first.
        crate::nb::flush()?;
        let args = ScalarArgs {
            a: Some(crate::nb::resolved_mat(&self.store)?),
            u: None,
            monoid: None,
            out: None,
        };
        reduce_to_scalar(Op::ReduceMatrix, self.dtype(), monoid, args)
    }
}

impl ReduceArg for &Vector {
    fn reduce_scalar(self) -> Result<DynScalar> {
        // Terminating operation. Give the engine a chance to fuse the
        // reduction into the pending producer (one composite module)
        // before falling back to flush + plain reduce.
        let monoid = crate::context::resolve_monoid().unwrap_or(DEFAULT_REDUCE_MONOID);
        if let Some(out) = crate::nb::try_fused_reduce(&self.store, monoid)? {
            return Ok(out);
        }
        crate::nb::flush()?;
        let args = ScalarArgs {
            a: None,
            u: Some(crate::nb::resolved_vec(&self.store)?),
            monoid: None,
            out: None,
        };
        reduce_to_scalar(Op::ReduceVector, self.dtype(), monoid, args)
    }
}
