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
//! Every expression evaluation lands here: operand dtypes are read,
//! upcasts applied (inputs are cast to the output container's dtype,
//! masks coerced to boolean), the [`ModuleKey`] is assembled from the
//! dtypes and operator *names*, and the kernel is fetched from the JIT
//! runtime and invoked. Stage timings accumulate into a
//! [`pygb_jit::PipelineTrace`].

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gbtl::ops::kind::{AppliedUnaryKind, BinaryOpKind, KindMonoid, KindSemiring};
use gbtl::Indices;
use pygb_jit::{JitRuntime, ModuleKey, PipelineTrace, Stage};

use crate::dtype::DType;
use crate::error::{PygbError, Result};
use crate::expr::{
    identity_unary, MatOperand, MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind,
};
use crate::facts::KernelChoice;
use crate::kernels::{self, MatArgs, ScalarArgs, VecArgs};
use crate::matrix::Matrix;
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

fn common_key_flags(
    key: &mut ModuleKey,
    accum: Option<BinaryOpKind>,
    replace: bool,
    mask_dtype: Option<DType>,
    complemented: bool,
) {
    if let Some(a) = accum {
        key.set("accum", a.name());
    }
    key.set("replace", flag(replace));
    if let Some(md) = mask_dtype {
        key.set("mask_type", md.name());
        key.set("complement", flag(complemented));
    }
}

/// Evaluate a matrix expression into `target` under the given output
/// controls — the engine behind `C[M, z] = expr` and `+=`.
pub(crate) fn eval_matrix(
    target: &mut Matrix,
    mask: Option<(Arc<MatrixStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: Option<bool>,
    region: Option<(Indices, Indices)>,
    expr: MatrixExpr,
    choice: KernelChoice,
) -> Result<()> {
    let replace = replace.unwrap_or(false);

    // Static analysis first, on both paths: a malformed operation is
    // rejected here — at the statement that built it — whether it would
    // have executed now or been enqueued into the op-DAG.
    {
        let _sp = pygb_obs::span(pygb_obs::Cat::Analyze, "analyze/matrix");
        crate::analyze::check_matrix(target, &mask, replace, &region, &expr)?;
    }
    // The expression tree timed its own construction; surface it as a
    // build-phase span (its end is approximated by "now").
    pygb_obs::observe_phase(pygb_obs::Cat::Build, "build/matrix_expr", expr.build_ns);

    if crate::nb::is_deferring() {
        return crate::nb::enqueue_matrix(
            target,
            mask,
            accum,
            replace,
            region,
            crate::nb::MatRhs::Expr(expr),
        );
    }
    // Blocking path: any deferred work must land first, and the target
    // may still hold a pending placeholder from an earlier deferral.
    crate::nb::flush_pending()?;
    target.settle()?;

    // Sec. IV: a non-container expression assigned into an index region
    // forces an intermediate evaluation — "GBTL has no way to express
    // it as a single merged operation".
    if region.is_some() && !matches!(expr.kind, MatrixExprKind::Ref { .. }) {
        let (r, c) = expr.result_shape();
        let mut temp = Matrix::new(r, c, target.dtype());
        eval_matrix(&mut temp, None, None, Some(false), None, expr, choice)?;
        let temp_expr = MatrixExpr::from(&temp);
        return eval_matrix(
            target,
            mask,
            accum,
            Some(replace),
            region,
            temp_expr,
            KernelChoice::default(),
        );
    }

    // Op provenance for any downstream failure (kernel, JIT cache):
    // captured before the expression is consumed.
    let op_name = crate::analyze::mat_op_name(&expr);
    let operands = crate::analyze::describe_matrix_expr(&expr);

    let mut trace = PipelineTrace::new(String::new());
    trace.record(Stage::ExpressionConstruction, expr.build_ns);

    let ct = target.dtype();
    let infer_start = Instant::now();

    let mut key = ModuleKey::new("");
    key.set("c_type", ct.name());
    let mut args = MatArgs::new(MatrixStore::placeholder());
    args.accum = accum;
    args.replace = replace;
    args.choice = choice;
    if let Some((m, comp)) = &mask {
        args.mask = Some(cast_m(m, DType::Bool)?);
        args.complemented = *comp;
        common_key_flags(&mut key, accum, replace, Some(m.dtype()), *comp);
    } else {
        common_key_flags(&mut key, accum, replace, None, false);
    }

    let func: &'static str = match expr.kind {
        MatrixExprKind::MxM { a, b, semiring } => {
            let sr = semiring.ok_or_else(|| missing("semiring", "mxm"))?;
            key.set("a_type", a.dtype().name());
            key.set("b_type", b.dtype().name());
            key.set("semiring", semiring_key(sr));
            key.set("at", flag(a.transposed));
            key.set("bt", flag(b.transposed));
            args.at = a.transposed;
            args.bt = b.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.b = Some(cast_m(&b.store, ct)?);
            args.semiring = Some(sr);
            "mxm"
        }
        MatrixExprKind::EWiseAdd { a, b, op } => {
            let op = op.ok_or_else(|| missing("binary operator", "eWiseAdd"))?;
            fill_ewise_m(&mut key, &mut args, a, b, op, ct)?;
            "ewise_add_m"
        }
        MatrixExprKind::EWiseMult { a, b, op } => {
            let op = op.ok_or_else(|| missing("binary operator", "eWiseMult"))?;
            fill_ewise_m(&mut key, &mut args, a, b, op, ct)?;
            "ewise_mult_m"
        }
        MatrixExprKind::Apply { a, op } => {
            let op = op.ok_or_else(|| missing("unary operator", "apply"))?;
            key.set("a_type", a.dtype().name());
            key.set("unary", unary_key(op));
            key.set("at", flag(a.transposed));
            args.at = a.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.unary = Some(op);
            "apply_m"
        }
        MatrixExprKind::Transpose { a } => {
            key.set("a_type", a.dtype().name());
            args.a = Some(cast_m(&a, ct)?);
            "transpose_m"
        }
        MatrixExprKind::Extract { a, rows, cols } => {
            key.set("a_type", a.dtype().name());
            key.set("at", flag(a.transposed));
            args.at = a.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.rows = Some(rows);
            args.cols = Some(cols);
            "extract_m"
        }
        MatrixExprKind::Ref { a } => {
            key.set("a_type", a.dtype().name());
            if let Some((rows, cols)) = region {
                args.a = Some(cast_m(&a, ct)?);
                args.rows = Some(rows);
                args.cols = Some(cols);
                "assign_m"
            } else {
                // C[None] = A — an identity apply, as Fig. 8 lines 13-14.
                key.set("unary", "Identity");
                args.a = Some(cast_m(&a, ct)?);
                args.unary = Some(identity_unary());
                "apply_m"
            }
        }
    };
    let key = rekey(key, func);
    trace.record(
        Stage::TypeInference,
        infer_start.elapsed().as_nanos() as u64,
    );
    trace.key = key.canonical();

    args.c = target.take_store();
    let outcome = runtime().dispatch(&key, &mut args, trace);
    target.put_store(args.c);
    outcome.map_err(|e| PygbError::from(e).with_op(op_name, operands))?;
    Ok(())
}

fn fill_ewise_m(
    key: &mut ModuleKey,
    args: &mut MatArgs,
    a: MatOperand,
    b: MatOperand,
    op: BinaryOpKind,
    ct: DType,
) -> Result<()> {
    key.set("a_type", a.dtype().name());
    key.set("b_type", b.dtype().name());
    key.set("binop", op.name());
    key.set("at", flag(a.transposed));
    key.set("bt", flag(b.transposed));
    args.at = a.transposed;
    args.bt = b.transposed;
    args.a = Some(cast_m(&a.store, ct)?);
    args.b = Some(cast_m(&b.store, ct)?);
    args.binop = Some(op);
    Ok(())
}

/// Constant assignment into a matrix region (`C[M][i, j] = value`).
pub(crate) fn assign_matrix_scalar(
    target: &mut Matrix,
    mask: Option<(Arc<MatrixStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<(Indices, Indices)>,
    value: DynScalar,
) -> Result<()> {
    {
        let _sp = pygb_obs::span(pygb_obs::Cat::Analyze, "analyze/matrix_scalar");
        crate::analyze::check_matrix_scalar(target, &mask, replace, &region, &value)?;
    }

    if crate::nb::is_deferring() {
        return crate::nb::enqueue_matrix(
            target,
            mask,
            accum,
            replace,
            region,
            crate::nb::MatRhs::Scalar(value),
        );
    }
    crate::nb::flush_pending()?;
    target.settle()?;

    let mut trace = PipelineTrace::new(String::new());
    let ct = target.dtype();
    let infer_start = Instant::now();
    let mut key = ModuleKey::new("assign_m_const");
    key.set("c_type", ct.name());
    key.set("value_type", value.dtype().name());
    let mut args = MatArgs::new(MatrixStore::placeholder());
    args.accum = accum;
    args.replace = replace;
    args.value = Some(value);
    if let Some((rows, cols)) = region {
        args.rows = Some(rows);
        args.cols = Some(cols);
    }
    if let Some((m, comp)) = &mask {
        args.mask = Some(cast_m(m, DType::Bool)?);
        args.complemented = *comp;
        common_key_flags(&mut key, accum, replace, Some(m.dtype()), *comp);
    } else {
        common_key_flags(&mut key, accum, replace, None, false);
    }
    trace.record(
        Stage::TypeInference,
        infer_start.elapsed().as_nanos() as u64,
    );
    trace.key = key.canonical();

    args.c = target.take_store();
    let outcome = runtime().dispatch(&key, &mut args, trace);
    target.put_store(args.c);
    outcome.map_err(|e| {
        PygbError::from(e).with_op(
            "assign",
            format!("[{}x{} {}]", target.nrows(), target.ncols(), target.dtype()),
        )
    })?;
    Ok(())
}

/// Evaluate a vector expression into `target`.
pub(crate) fn eval_vector(
    target: &mut Vector,
    mask: Option<(Arc<VectorStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: Option<bool>,
    region: Option<Indices>,
    expr: VectorExpr,
    choice: KernelChoice,
) -> Result<()> {
    let replace = replace.unwrap_or(false);

    // Static analysis first, on both paths (see `eval_matrix`).
    {
        let _sp = pygb_obs::span(pygb_obs::Cat::Analyze, "analyze/vector");
        crate::analyze::check_vector(target, &mask, replace, &region, &expr)?;
    }
    pygb_obs::observe_phase(pygb_obs::Cat::Build, "build/vector_expr", expr.build_ns);

    if crate::nb::is_deferring() {
        return crate::nb::enqueue_vector(
            target,
            mask,
            accum,
            replace,
            region,
            crate::nb::VecRhs::Expr(expr),
        );
    }
    crate::nb::flush_pending()?;
    target.settle()?;

    if region.is_some() && !matches!(expr.kind, VectorExprKind::Ref { .. }) {
        let size = expr.result_size();
        let mut temp = Vector::new(size, target.dtype());
        eval_vector(&mut temp, None, None, Some(false), None, expr, choice)?;
        let temp_expr = VectorExpr::from(&temp);
        return eval_vector(
            target,
            mask,
            accum,
            Some(replace),
            region,
            temp_expr,
            KernelChoice::default(),
        );
    }

    let op_name = crate::analyze::vec_op_name(&expr);
    let operands = crate::analyze::describe_vector_expr(&expr);

    let mut trace = PipelineTrace::new(String::new());
    trace.record(Stage::ExpressionConstruction, expr.build_ns);

    let ct = target.dtype();
    let infer_start = Instant::now();
    let mut key = ModuleKey::new("");
    key.set("c_type", ct.name());
    let mut args = VecArgs::new(VectorStore::placeholder());
    args.accum = accum;
    args.replace = replace;
    args.choice = choice;
    if let Some((m, comp)) = &mask {
        let m_res = crate::nb::resolved_vec(m)?;
        args.mask = Some(Arc::new(m_res.to_bool_vector()));
        args.complemented = *comp;
        common_key_flags(&mut key, accum, replace, Some(m.dtype()), *comp);
    } else {
        common_key_flags(&mut key, accum, replace, None, false);
    }

    let func: &'static str = match expr.kind {
        VectorExprKind::MxV { a, u, semiring } => {
            let sr = semiring.ok_or_else(|| missing("semiring", "mxv"))?;
            key.set("a_type", a.dtype().name());
            key.set("u_type", u.dtype().name());
            key.set("semiring", semiring_key(sr));
            key.set("at", flag(a.transposed));
            args.at = a.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.u = Some(cast_v(&u, ct)?);
            args.semiring = Some(sr);
            "mxv"
        }
        VectorExprKind::VxM { u, a, semiring } => {
            let sr = semiring.ok_or_else(|| missing("semiring", "vxm"))?;
            key.set("a_type", a.dtype().name());
            key.set("u_type", u.dtype().name());
            key.set("semiring", semiring_key(sr));
            key.set("at", flag(a.transposed));
            args.at = a.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.u = Some(cast_v(&u, ct)?);
            args.semiring = Some(sr);
            "vxm"
        }
        VectorExprKind::EWiseAdd { u, v, op } => {
            let op = op.ok_or_else(|| missing("binary operator", "eWiseAdd"))?;
            key.set("u_type", u.dtype().name());
            key.set("v_type", v.dtype().name());
            key.set("binop", op.name());
            args.u = Some(cast_v(&u, ct)?);
            args.v = Some(cast_v(&v, ct)?);
            args.binop = Some(op);
            "ewise_add_v"
        }
        VectorExprKind::EWiseMult { u, v, op } => {
            let op = op.ok_or_else(|| missing("binary operator", "eWiseMult"))?;
            key.set("u_type", u.dtype().name());
            key.set("v_type", v.dtype().name());
            key.set("binop", op.name());
            args.u = Some(cast_v(&u, ct)?);
            args.v = Some(cast_v(&v, ct)?);
            args.binop = Some(op);
            "ewise_mult_v"
        }
        VectorExprKind::Apply { u, op } => {
            let op = op.ok_or_else(|| missing("unary operator", "apply"))?;
            key.set("u_type", u.dtype().name());
            key.set("unary", unary_key(op));
            args.u = Some(cast_v(&u, ct)?);
            args.unary = Some(op);
            "apply_v"
        }
        VectorExprKind::Extract { u, ix } => {
            key.set("u_type", u.dtype().name());
            args.u = Some(cast_v(&u, ct)?);
            args.ix = Some(ix);
            "extract_v"
        }
        VectorExprKind::ReduceRows { a, monoid } => {
            let m = monoid.ok_or_else(|| missing("monoid", "reduce"))?;
            key.set("a_type", a.dtype().name());
            key.set("monoid", monoid_key(m));
            key.set("at", flag(a.transposed));
            args.at = a.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.monoid = Some(m);
            "reduce_rows"
        }
        VectorExprKind::FusedMxvApply {
            a,
            u,
            semiring,
            unary,
            vxm,
        } => {
            let sr = semiring.ok_or_else(|| missing("semiring", "mxv"))?;
            let op = unary.ok_or_else(|| missing("unary operator", "fused apply"))?;
            key.set("a_type", a.dtype().name());
            key.set("u_type", u.dtype().name());
            key.set("semiring", semiring_key(sr));
            key.set("unary", unary_key(op));
            key.set("at", flag(a.transposed));
            args.at = a.transposed;
            args.a = Some(cast_m(&a.store, ct)?);
            args.u = Some(cast_v(&u, ct)?);
            args.semiring = Some(sr);
            args.unary = Some(op);
            if vxm {
                "vxm_apply"
            } else {
                "mxv_apply"
            }
        }
        VectorExprKind::FusedEwiseChain {
            u,
            v,
            w,
            inner,
            outer,
            inner_add,
            outer_add,
            inner_left,
        } => {
            key.set("u_type", u.dtype().name());
            key.set("v_type", v.dtype().name());
            if let Some(w) = &w {
                key.set("w_type", w.dtype().name());
            }
            key.set("binop", inner.name());
            key.set("binop2", outer.name());
            key.set(
                "chain",
                match (inner_add, outer_add) {
                    (true, true) => "add_add",
                    (true, false) => "add_mult",
                    (false, true) => "mult_add",
                    (false, false) => "mult_mult",
                },
            );
            key.set("tleft", flag(inner_left));
            key.set("square", flag(w.is_none()));
            args.u = Some(cast_v(&u, ct)?);
            args.v = Some(cast_v(&v, ct)?);
            args.w = w.map(|w| cast_v(&w, ct)).transpose()?;
            args.binop = Some(inner);
            args.binop2 = Some(outer);
            "fused_ewise_chain"
        }
        VectorExprKind::Ref { u } => {
            key.set("u_type", u.dtype().name());
            if let Some(ix) = region {
                args.u = Some(cast_v(&u, ct)?);
                args.ix = Some(ix);
                "assign_v"
            } else {
                key.set("unary", "Identity");
                args.u = Some(cast_v(&u, ct)?);
                args.unary = Some(identity_unary());
                "apply_v"
            }
        }
    };
    let key = rekey(key, func);
    trace.record(
        Stage::TypeInference,
        infer_start.elapsed().as_nanos() as u64,
    );
    trace.key = key.canonical();

    args.c = target.take_store();
    let outcome = runtime().dispatch(&key, &mut args, trace);
    target.put_store(args.c);
    outcome.map_err(|e| PygbError::from(e).with_op(op_name, operands))?;
    Ok(())
}

/// Constant assignment into a vector region (`w[m][:] = value`).
pub(crate) fn assign_vector_scalar(
    target: &mut Vector,
    mask: Option<(Arc<VectorStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<Indices>,
    value: DynScalar,
) -> Result<()> {
    {
        let _sp = pygb_obs::span(pygb_obs::Cat::Analyze, "analyze/vector_scalar");
        crate::analyze::check_vector_scalar(target, &mask, replace, &region, &value)?;
    }

    if crate::nb::is_deferring() {
        return crate::nb::enqueue_vector(
            target,
            mask,
            accum,
            replace,
            region,
            crate::nb::VecRhs::Scalar(value),
        );
    }
    crate::nb::flush_pending()?;
    target.settle()?;

    let mut trace = PipelineTrace::new(String::new());
    let ct = target.dtype();
    let infer_start = Instant::now();
    let mut key = ModuleKey::new("assign_v_const");
    key.set("c_type", ct.name());
    key.set("value_type", value.dtype().name());
    let mut args = VecArgs::new(VectorStore::placeholder());
    args.accum = accum;
    args.replace = replace;
    args.value = Some(value);
    args.ix = region;
    if let Some((m, comp)) = &mask {
        let m = crate::nb::resolved_vec(m)?;
        args.mask = Some(Arc::new(m.to_bool_vector()));
        args.complemented = *comp;
        common_key_flags(&mut key, accum, replace, Some(m.dtype()), *comp);
    } else {
        common_key_flags(&mut key, accum, replace, None, false);
    }
    trace.record(
        Stage::TypeInference,
        infer_start.elapsed().as_nanos() as u64,
    );
    trace.key = key.canonical();

    args.c = target.take_store();
    let outcome = runtime().dispatch(&key, &mut args, trace);
    target.put_store(args.c);
    outcome.map_err(|e| {
        PygbError::from(e).with_op("assign", format!("[{} {}]", target.size(), target.dtype()))
    })?;
    Ok(())
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
    let mut trace = PipelineTrace::new(String::new());
    let infer_start = Instant::now();
    let mut key = ModuleKey::new("fused_ewise_reduce");
    key.set("c_type", ct.name());
    key.set("u_type", u.dtype().name());
    key.set("v_type", v.dtype().name());
    key.set("binop", op.name());
    key.set("ewise", if is_add { "add" } else { "mult" });
    key.set("monoid", monoid_key(monoid));
    trace.record(
        Stage::TypeInference,
        infer_start.elapsed().as_nanos() as u64,
    );
    trace.key = key.canonical();
    let mut args = VecArgs::new(VectorStore::new(size, ct));
    args.u = Some(cast_v(&u, ct)?);
    args.v = Some(cast_v(&v, ct)?);
    args.binop = Some(op);
    args.monoid = Some(monoid);
    runtime().dispatch(&key, &mut args, trace)?;
    let out = args.out.take().ok_or_else(|| {
        PygbError::Jit(pygb_jit::JitError::bad_key(
            "fused eWise-reduce produced no value",
        ))
    })?;
    Ok((args.c, out))
}

/// Rebuild a key under its final function name (the function is decided
/// while inspecting the expression, after parameters have accumulated).
fn rekey(old: ModuleKey, func: &str) -> ModuleKey {
    let mut key = ModuleKey::new(func);
    for (k, v) in old.params() {
        key.set(k, v);
    }
    key
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

impl ReduceArg for &Matrix {
    fn reduce_scalar(self) -> Result<DynScalar> {
        let monoid = crate::context::resolve_monoid().unwrap_or(DEFAULT_REDUCE_MONOID);
        // Reduce-to-scalar is a terminating operation: deferred work
        // feeding this container must land first.
        crate::nb::flush_pending()?;
        let store = crate::nb::resolved_mat(&self.store)?;
        let mut trace = PipelineTrace::new(String::new());
        let infer_start = Instant::now();
        let mut key = ModuleKey::new("reduce_m_scalar");
        key.set("c_type", self.dtype().name());
        key.set("monoid", monoid_key(monoid));
        trace.record(
            Stage::TypeInference,
            infer_start.elapsed().as_nanos() as u64,
        );
        trace.key = key.canonical();
        let mut args = ScalarArgs {
            a: Some(store),
            u: None,
            monoid: Some(monoid),
            out: None,
        };
        runtime().dispatch(&key, &mut args, trace)?;
        args.out
            .ok_or_else(|| PygbError::Jit(pygb_jit::JitError::bad_key("reduce produced no value")))
    }
}

impl ReduceArg for &Vector {
    fn reduce_scalar(self) -> Result<DynScalar> {
        let monoid = crate::context::resolve_monoid().unwrap_or(DEFAULT_REDUCE_MONOID);
        // Terminating operation. Give the engine a chance to fuse the
        // reduction into the pending producer (one composite module)
        // before falling back to flush + plain reduce.
        if let Some(out) = crate::nb::try_fused_reduce(&self.store, monoid)? {
            return Ok(out);
        }
        crate::nb::flush_pending()?;
        let store = crate::nb::resolved_vec(&self.store)?;
        let mut trace = PipelineTrace::new(String::new());
        let infer_start = Instant::now();
        let mut key = ModuleKey::new("reduce_v_scalar");
        key.set("c_type", self.dtype().name());
        key.set("monoid", monoid_key(monoid));
        trace.record(
            Stage::TypeInference,
            infer_start.elapsed().as_nanos() as u64,
        );
        trace.key = key.canonical();
        let mut args = ScalarArgs {
            a: None,
            u: Some(store),
            monoid: Some(monoid),
            out: None,
        };
        runtime().dispatch(&key, &mut args, trace)?;
        args.out
            .ok_or_else(|| PygbError::Jit(pygb_jit::JitError::bad_key("reduce produced no value")))
    }
}
