//! Plan-time static analysis — `pygb-analyze`, the expression half.
//!
//! Every dispatch entry point ([`crate::dispatch`]) runs this pass
//! *before* deciding whether to execute or enqueue, so a malformed
//! operation fails at the statement that built it — with a diagnostic
//! naming the op, every operand's shape and dtype, and the rendered
//! source expression — never first at a nonblocking flush far from the
//! offending line. The DAG half (aliasing and fusion legality) lives in
//! `pygb-runtime`'s `analyze` module.
//!
//! Three families of checks:
//!
//! 1. **Shape/size inference** over [`MatrixExpr`]/[`VectorExpr`] trees:
//!    `mxm`/`mxv`/`vxm` conformability, element-wise operand equality,
//!    extract/assign index bounds, region-length agreement, and
//!    result-vs-target dimensions.
//! 2. **Dtype promotion** against the Table 1 lattice
//!    ([`DType::promote_checked`]): lossy promotions and lossy
//!    result-into-target casts are recorded as lints by default and
//!    become hard [`PygbError::Invalid`] errors while a
//!    [`crate::operators::StrictTypes`] guard is in context. (Every
//!    pair of the 11 dtypes has a defined promotion, so an *undefined*
//!    promotion cannot arise; lossy ones can.)
//! 3. **Mask-domain checks**: a mask whose size differs from the
//!    output's is an error; `replace` without a mask and a complemented
//!    empty mask are lints (see [`take_lints`]).
//!
//! Lints accumulate in a thread-local buffer drained by [`take_lints`];
//! they never fail an operation in default mode.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use gbtl::Indices;

use crate::context;
use crate::dtype::DType;
use crate::error::{PygbError, Result};
use crate::expr::{MatOperand, MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind};
use crate::matrix::Matrix;
use crate::store::{MatrixStore, VectorStore};
use crate::value::DynScalar;
use crate::vector::Vector;

// ---------------------------------------------------------------------
// Lints.
// ---------------------------------------------------------------------

/// Keep the lint buffer bounded when nobody drains it.
const LINT_CAP: usize = 64;

thread_local! {
    static LINTS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn push_lint(msg: String) {
    LINTS.with(|l| {
        let mut l = l.borrow_mut();
        if l.len() < LINT_CAP {
            l.push(msg);
        }
    });
}

/// Drain the calling thread's analyzer lints (advisory findings that
/// did not fail the operation: lossy promotions in default mode,
/// `replace` without a mask, a complemented empty mask).
pub fn take_lints() -> Vec<String> {
    LINTS.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Append a lint from another analysis layer (the runtime's sparsity
/// pass emits structure lints — provably-empty results consumed
/// downstream, masks provably disjoint from the operand pattern — into
/// the same buffer so they ride the serve `OK … WARN k` frames).
pub fn emit_lint(msg: String) {
    push_lint(msg);
}

fn strict() -> bool {
    context::strict_types_active()
}

// ---------------------------------------------------------------------
// Rendering: operands as `[shape dtype]`, expressions as `op(...)`.
// ---------------------------------------------------------------------

fn vfmt(s: &VectorStore) -> String {
    format!("[{} {}]", s.size(), s.dtype())
}

fn ofmt(a: &MatOperand) -> String {
    format!("[{}x{} {}]", a.nrows(), a.ncols(), a.dtype())
}

fn sfmt(s: &MatrixStore) -> String {
    format!("[{}x{} {}]", s.nrows(), s.ncols(), s.dtype())
}

/// An operation rendered for diagnostics (`mxv([3x3 fp64], [3 fp64])`),
/// formatted only when a diagnostic is produced: the analyzer runs on
/// every dispatch, and almost none of them produce one.
#[derive(Clone, Copy)]
struct Rendered<'a>(&'a dyn Fn() -> String);

impl fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&(self.0)())
    }
}

impl From<Rendered<'_>> for String {
    fn from(r: Rendered<'_>) -> String {
        (r.0)()
    }
}

/// The GraphBLAS op name a vector expression dispatches as.
pub fn vec_op_name(e: &VectorExpr) -> &'static str {
    match &e.kind {
        VectorExprKind::MxV { .. } => "mxv",
        VectorExprKind::VxM { .. } => "vxm",
        VectorExprKind::EWiseAdd { .. } => "eWiseAdd",
        VectorExprKind::EWiseMult { .. } => "eWiseMult",
        VectorExprKind::Apply { .. } => "apply",
        VectorExprKind::Extract { .. } => "extract",
        VectorExprKind::ReduceRows { .. } => "reduce",
        VectorExprKind::Ref { .. } => "assign",
        VectorExprKind::FusedMxvApply { vxm: true, .. } => "vxm",
        VectorExprKind::FusedMxvApply { vxm: false, .. } => "mxv",
        VectorExprKind::FusedEwiseChain { .. } => "eWise chain",
    }
}

/// The GraphBLAS op name a matrix expression dispatches as.
pub fn mat_op_name(e: &MatrixExpr) -> &'static str {
    match &e.kind {
        MatrixExprKind::MxM { .. } => "mxm",
        MatrixExprKind::EWiseAdd { .. } => "eWiseAdd",
        MatrixExprKind::EWiseMult { .. } => "eWiseMult",
        MatrixExprKind::Apply { .. } => "apply",
        MatrixExprKind::Transpose { .. } => "transpose",
        MatrixExprKind::Extract { .. } => "extract",
        MatrixExprKind::Ref { .. } => "assign",
    }
}

/// Render a vector expression with every operand's shape and dtype —
/// the `expr` field of analyzer diagnostics.
pub fn describe_vector_expr(e: &VectorExpr) -> String {
    match &e.kind {
        VectorExprKind::MxV { a, u, .. } => format!("mxv({}, {})", ofmt(a), vfmt(u)),
        VectorExprKind::VxM { u, a, .. } => format!("vxm({}, {})", vfmt(u), ofmt(a)),
        VectorExprKind::EWiseAdd { u, v, .. } => format!("eWiseAdd({}, {})", vfmt(u), vfmt(v)),
        VectorExprKind::EWiseMult { u, v, .. } => format!("eWiseMult({}, {})", vfmt(u), vfmt(v)),
        VectorExprKind::Apply { u, .. } => format!("apply({})", vfmt(u)),
        VectorExprKind::Extract { u, ix } => format!("extract({}, {})", vfmt(u), ix.describe()),
        VectorExprKind::ReduceRows { a, .. } => format!("reduce({})", ofmt(a)),
        VectorExprKind::Ref { u } => vfmt(u),
        VectorExprKind::FusedMxvApply { a, u, vxm, .. } => {
            if *vxm {
                format!("apply(vxm({}, {}))", vfmt(u), ofmt(a))
            } else {
                format!("apply(mxv({}, {}))", ofmt(a), vfmt(u))
            }
        }
        VectorExprKind::FusedEwiseChain { u, v, w, .. } => match w {
            Some(w) => format!("eWiseChain({}, {}, {})", vfmt(u), vfmt(v), vfmt(w)),
            None => format!("eWiseChain({}, {})", vfmt(u), vfmt(v)),
        },
    }
}

/// Render a matrix expression with every operand's shape and dtype.
pub fn describe_matrix_expr(e: &MatrixExpr) -> String {
    match &e.kind {
        MatrixExprKind::MxM { a, b, .. } => format!("mxm({}, {})", ofmt(a), ofmt(b)),
        MatrixExprKind::EWiseAdd { a, b, .. } => format!("eWiseAdd({}, {})", ofmt(a), ofmt(b)),
        MatrixExprKind::EWiseMult { a, b, .. } => format!("eWiseMult({}, {})", ofmt(a), ofmt(b)),
        MatrixExprKind::Apply { a, .. } => format!("apply({})", ofmt(a)),
        MatrixExprKind::Transpose { a } => format!("transpose({})", sfmt(a)),
        MatrixExprKind::Extract { a, rows, cols } => format!(
            "extract({}, {}, {})",
            ofmt(a),
            rows.describe(),
            cols.describe()
        ),
        MatrixExprKind::Ref { a } => sfmt(a),
    }
}

// ---------------------------------------------------------------------
// Dtype pass.
// ---------------------------------------------------------------------

/// Check one binary promotion; errors under `StrictTypes`, lints
/// otherwise.
fn check_promotion(op: &'static str, a: DType, b: DType, rendered: Rendered<'_>) -> Result<()> {
    let (p, loss) = DType::promote_checked(a, b);
    if let Some((victim, why)) = loss {
        let reason = format!("lossy dtype promotion {a} ⊕ {b} → {p} ({victim}: {why})");
        if strict() {
            return Err(PygbError::invalid(op, reason, rendered));
        }
        push_lint(format!("`{op}`: {reason}; in {rendered}"));
    }
    Ok(())
}

/// Check the implicit cast of the expression result into the output
/// container's dtype.
fn check_result_cast(
    op: &'static str,
    from: DType,
    to: DType,
    rendered: Rendered<'_>,
) -> Result<()> {
    if let Some(why) = from.cast_loss(to) {
        let reason = format!("result dtype {from} does not fit output dtype {to} ({why})");
        if strict() {
            return Err(PygbError::invalid(op, reason, rendered));
        }
        push_lint(format!("`{op}`: {reason}; in {rendered}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Streaming-update pass.
// ---------------------------------------------------------------------

/// Validate a streamed edge-mutation batch against the container it
/// targets (see [`crate::stream::StreamingMatrix::update_edges`]).
/// Out-of-bounds coordinates are hard errors — the batch must not have
/// mutated anything when this fires. Lossy value-into-container casts
/// and same-coordinate duplicates (which coalesce, last write wins)
/// are lints, promoted to errors under `StrictTypes` like every other
/// dtype finding.
pub fn validate_update_batch(
    shape: (usize, usize),
    dtype: DType,
    batch: &[crate::stream::EdgeUpdate],
) -> Result<()> {
    let (nrows, ncols) = shape;
    let rendered = format!(
        "update [{nrows}x{ncols} {dtype}] batch(len={})",
        batch.len()
    );
    let mut seen = std::collections::BTreeSet::new();
    let mut dups = 0usize;
    for (k, u) in batch.iter().enumerate() {
        if u.row >= nrows || u.col >= ncols {
            return Err(PygbError::invalid(
                "update",
                format!(
                    "edge ({}, {}) out of bounds for [{nrows}x{ncols}] at batch[{k}]",
                    u.row, u.col
                ),
                rendered,
            ));
        }
        if let Some(v) = u.val {
            if let Some(why) = v.dtype().cast_loss(dtype) {
                let reason = format!("lossy edge value cast {} → {dtype} ({why})", v.dtype());
                if strict() {
                    return Err(PygbError::invalid("update", reason, rendered));
                }
                push_lint(format!("`update`: {reason}; in {rendered}"));
            }
        }
        if !seen.insert((u.row, u.col)) {
            dups += 1;
        }
    }
    if dups > 0 {
        push_lint(format!(
            "`update`: {dups} duplicate coordinate(s) in one batch coalesce (last write wins); in {rendered}"
        ));
    }
    Ok(())
}

fn vec_expr_dtypes(e: &VectorExpr, rendered: Rendered<'_>) -> Result<()> {
    let op = vec_op_name(e);
    match &e.kind {
        VectorExprKind::MxV { a, u, .. }
        | VectorExprKind::VxM { u, a, .. }
        | VectorExprKind::FusedMxvApply { a, u, .. } => {
            check_promotion(op, a.dtype(), u.dtype(), rendered)
        }
        VectorExprKind::EWiseAdd { u, v, .. } | VectorExprKind::EWiseMult { u, v, .. } => {
            check_promotion(op, u.dtype(), v.dtype(), rendered)
        }
        VectorExprKind::FusedEwiseChain { u, v, w, .. } => {
            check_promotion(op, u.dtype(), v.dtype(), rendered)?;
            if let Some(w) = w {
                let inner = DType::promote(u.dtype(), v.dtype());
                check_promotion(op, inner, w.dtype(), rendered)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn mat_expr_dtypes(e: &MatrixExpr, rendered: Rendered<'_>) -> Result<()> {
    let op = mat_op_name(e);
    match &e.kind {
        MatrixExprKind::MxM { a, b, .. }
        | MatrixExprKind::EWiseAdd { a, b, .. }
        | MatrixExprKind::EWiseMult { a, b, .. } => {
            check_promotion(op, a.dtype(), b.dtype(), rendered)
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Shape pass (expression-internal conformability).
// ---------------------------------------------------------------------

fn vec_expr_shapes(e: &VectorExpr, rendered: Rendered<'_>) -> Result<()> {
    let op = vec_op_name(e);
    match &e.kind {
        VectorExprKind::MxV { a, u, .. }
        | VectorExprKind::FusedMxvApply {
            a, u, vxm: false, ..
        } => {
            if a.ncols() != u.size() {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "matrix is {}x{} but vector has size {} (need {})",
                        a.nrows(),
                        a.ncols(),
                        u.size(),
                        a.ncols()
                    ),
                    rendered,
                ));
            }
        }
        VectorExprKind::VxM { u, a, .. }
        | VectorExprKind::FusedMxvApply {
            a, u, vxm: true, ..
        } => {
            if a.nrows() != u.size() {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "vector has size {} but matrix is {}x{} (need {})",
                        u.size(),
                        a.nrows(),
                        a.ncols(),
                        a.nrows()
                    ),
                    rendered,
                ));
            }
        }
        VectorExprKind::EWiseAdd { u, v, .. } | VectorExprKind::EWiseMult { u, v, .. } => {
            if u.size() != v.size() {
                return Err(PygbError::invalid(
                    op,
                    format!("operands have sizes {} and {}", u.size(), v.size()),
                    rendered,
                ));
            }
        }
        VectorExprKind::FusedEwiseChain { u, v, w, .. } => {
            if u.size() != v.size() || w.as_ref().is_some_and(|w| w.size() != u.size()) {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "operands have sizes {}, {}{}",
                        u.size(),
                        v.size(),
                        match w {
                            Some(w) => format!(", {}", w.size()),
                            None => String::new(),
                        }
                    ),
                    rendered,
                ));
            }
        }
        VectorExprKind::Extract { u, ix } => {
            ix.validate(u.size())
                .map_err(|e| PygbError::invalid(op, e.to_string(), rendered))?;
        }
        VectorExprKind::Apply { .. }
        | VectorExprKind::ReduceRows { .. }
        | VectorExprKind::Ref { .. } => {}
    }
    Ok(())
}

fn mat_expr_shapes(e: &MatrixExpr, rendered: Rendered<'_>) -> Result<()> {
    let op = mat_op_name(e);
    match &e.kind {
        MatrixExprKind::MxM { a, b, .. } => {
            if a.ncols() != b.nrows() {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "inner dimensions disagree: {}x{} @ {}x{}",
                        a.nrows(),
                        a.ncols(),
                        b.nrows(),
                        b.ncols()
                    ),
                    rendered,
                ));
            }
        }
        MatrixExprKind::EWiseAdd { a, b, .. } | MatrixExprKind::EWiseMult { a, b, .. } => {
            if (a.nrows(), a.ncols()) != (b.nrows(), b.ncols()) {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "operands have shapes {}x{} and {}x{}",
                        a.nrows(),
                        a.ncols(),
                        b.nrows(),
                        b.ncols()
                    ),
                    rendered,
                ));
            }
        }
        MatrixExprKind::Extract { a, rows, cols } => {
            rows.validate(a.nrows())
                .map_err(|e| PygbError::invalid(op, format!("row selection: {e}"), rendered))?;
            cols.validate(a.ncols())
                .map_err(|e| PygbError::invalid(op, format!("column selection: {e}"), rendered))?;
        }
        MatrixExprKind::Apply { .. }
        | MatrixExprKind::Transpose { .. }
        | MatrixExprKind::Ref { .. } => {}
    }
    Ok(())
}

/// Validate a vector expression tree in isolation (operand
/// conformability and strict-mode dtype promotion) — the
/// expression-build-time entry point, also reachable as
/// [`VectorExpr::validate`].
pub fn validate_vector_expr(e: &VectorExpr) -> Result<()> {
    let describe = || describe_vector_expr(e);
    let rendered = Rendered(&describe);
    vec_expr_shapes(e, rendered)?;
    vec_expr_dtypes(e, rendered)
}

/// Validate a matrix expression tree in isolation — see
/// [`validate_vector_expr`].
pub fn validate_matrix_expr(e: &MatrixExpr) -> Result<()> {
    let describe = || describe_matrix_expr(e);
    let rendered = Rendered(&describe);
    mat_expr_shapes(e, rendered)?;
    mat_expr_dtypes(e, rendered)
}

// ---------------------------------------------------------------------
// Mask-domain pass.
// ---------------------------------------------------------------------

fn vec_mask_checks(
    op: &'static str,
    target_size: usize,
    mask: &Option<(Arc<VectorStore>, bool)>,
    replace: bool,
    rendered: Rendered<'_>,
) -> Result<()> {
    match mask {
        Some((m, complemented)) => {
            if m.size() != target_size {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "mask has size {} but the output has size {target_size}",
                        m.size()
                    ),
                    rendered,
                ));
            }
            if *complemented {
                // Peek without flushing: a pending mask's stored-value
                // count is unknowable here, so the lint stays silent.
                if let Some(m) = crate::nb::peek_vec(m) {
                    if m.nvals() == 0 {
                        push_lint(format!(
                            "`{op}`: complemented mask has no stored values, so it selects \
                             the entire output; in {rendered}"
                        ));
                    }
                }
            }
        }
        None => {
            if replace {
                push_lint(format!(
                    "`{op}`: replace without a mask has no effect beyond a full overwrite; \
                     in {rendered}"
                ));
            }
        }
    }
    Ok(())
}

fn mat_mask_checks(
    op: &'static str,
    target_shape: (usize, usize),
    mask: &Option<(Arc<MatrixStore>, bool)>,
    replace: bool,
    rendered: Rendered<'_>,
) -> Result<()> {
    match mask {
        Some((m, complemented)) => {
            if (m.nrows(), m.ncols()) != target_shape {
                return Err(PygbError::invalid(
                    op,
                    format!(
                        "mask has shape {}x{} but the output has shape {}x{}",
                        m.nrows(),
                        m.ncols(),
                        target_shape.0,
                        target_shape.1
                    ),
                    rendered,
                ));
            }
            if *complemented {
                if let Some(m) = crate::nb::peek_mat(m) {
                    if m.nvals() == 0 {
                        push_lint(format!(
                            "`{op}`: complemented mask has no stored values, so it selects \
                             the entire output; in {rendered}"
                        ));
                    }
                }
            }
        }
        None => {
            if replace {
                push_lint(format!(
                    "`{op}`: replace without a mask has no effect beyond a full overwrite; \
                     in {rendered}"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Whole-operation checks (the dispatch entry hooks).
// ---------------------------------------------------------------------

/// Full analysis of `target[mask] = expr` (vector): expression
/// conformability, region bounds and length, result-vs-target size,
/// mask domain, dtype promotion and result cast. Runs before the
/// deferring branch in [`crate::dispatch::eval_vector`], so blocking
/// evaluation and DAG enqueue validate identically.
pub(crate) fn check_vector(
    target: &Vector,
    mask: &Option<(Arc<VectorStore>, bool)>,
    replace: bool,
    region: &Option<Indices>,
    expr: &VectorExpr,
) -> Result<()> {
    let describe = || describe_vector_expr(expr);
    let rendered = Rendered(&describe);
    let op = vec_op_name(expr);
    vec_expr_shapes(expr, rendered)?;
    let rs = expr.result_size();
    let ts = target.size();
    match region {
        Some(ix) => {
            ix.validate(ts)
                .map_err(|e| PygbError::invalid("assign", e.to_string(), rendered))?;
            let k = ix.len(ts);
            if k != rs {
                return Err(PygbError::invalid(
                    "assign",
                    format!(
                        "index region {} selects {k} positions but the right-hand side has \
                         size {rs}",
                        ix.describe()
                    ),
                    rendered,
                ));
            }
        }
        None => {
            if rs != ts {
                return Err(PygbError::invalid(
                    op,
                    format!("result has size {rs} but the target vector has size {ts}"),
                    rendered,
                ));
            }
        }
    }
    vec_mask_checks(op, ts, mask, replace, rendered)?;
    vec_expr_dtypes(expr, rendered)?;
    check_result_cast(op, expr.result_dtype(), target.dtype(), rendered)
}

/// Matrix analog of [`check_vector`].
pub(crate) fn check_matrix(
    target: &Matrix,
    mask: &Option<(Arc<MatrixStore>, bool)>,
    replace: bool,
    region: &Option<(Indices, Indices)>,
    expr: &MatrixExpr,
) -> Result<()> {
    let describe = || describe_matrix_expr(expr);
    let rendered = Rendered(&describe);
    let op = mat_op_name(expr);
    mat_expr_shapes(expr, rendered)?;
    let (rr, rc) = expr.result_shape();
    let (tr, tc) = (target.nrows(), target.ncols());
    match region {
        Some((rows, cols)) => {
            rows.validate(tr).map_err(|e| {
                PygbError::invalid("assign", format!("row selection: {e}"), rendered)
            })?;
            cols.validate(tc).map_err(|e| {
                PygbError::invalid("assign", format!("column selection: {e}"), rendered)
            })?;
            let (kr, kc) = (rows.len(tr), cols.len(tc));
            if (kr, kc) != (rr, rc) {
                return Err(PygbError::invalid(
                    "assign",
                    format!(
                        "index region ({}, {}) selects {kr}x{kc} positions but the \
                         right-hand side has shape {rr}x{rc}",
                        rows.describe(),
                        cols.describe()
                    ),
                    rendered,
                ));
            }
        }
        None => {
            if (rr, rc) != (tr, tc) {
                return Err(PygbError::invalid(
                    op,
                    format!("result has shape {rr}x{rc} but the target matrix has shape {tr}x{tc}"),
                    rendered,
                ));
            }
        }
    }
    mat_mask_checks(op, (tr, tc), mask, replace, rendered)?;
    mat_expr_dtypes(expr, rendered)?;
    check_result_cast(op, expr.result_dtype(), target.dtype(), rendered)
}

/// Analysis of `target[mask][region] = constant` (vector): region
/// bounds, mask domain, and the constant's cast into the target dtype.
pub(crate) fn check_vector_scalar(
    target: &Vector,
    mask: &Option<(Arc<VectorStore>, bool)>,
    replace: bool,
    region: &Option<Indices>,
    value: &DynScalar,
) -> Result<()> {
    let describe = || format!("[{} {}] = {}", target.size(), target.dtype(), value.dtype());
    let rendered = Rendered(&describe);
    if let Some(ix) = region {
        ix.validate(target.size())
            .map_err(|e| PygbError::invalid("assign", e.to_string(), rendered))?;
    }
    vec_mask_checks("assign", target.size(), mask, replace, rendered)?;
    check_result_cast("assign", value.dtype(), target.dtype(), rendered)
}

/// Matrix analog of [`check_vector_scalar`].
pub(crate) fn check_matrix_scalar(
    target: &Matrix,
    mask: &Option<(Arc<MatrixStore>, bool)>,
    replace: bool,
    region: &Option<(Indices, Indices)>,
    value: &DynScalar,
) -> Result<()> {
    let describe = || {
        format!(
            "[{}x{} {}] = {}",
            target.nrows(),
            target.ncols(),
            target.dtype(),
            value.dtype()
        )
    };
    let rendered = Rendered(&describe);
    if let Some((rows, cols)) = region {
        rows.validate(target.nrows())
            .map_err(|e| PygbError::invalid("assign", format!("row selection: {e}"), rendered))?;
        cols.validate(target.ncols()).map_err(|e| {
            PygbError::invalid("assign", format!("column selection: {e}"), rendered)
        })?;
    }
    mat_mask_checks(
        "assign",
        (target.nrows(), target.ncols()),
        mask,
        replace,
        rendered,
    )?;
    check_result_cast("assign", value.dtype(), target.dtype(), rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::StrictTypes;

    #[test]
    fn mxm_inner_mismatch_is_invalid_at_build() {
        let a = Matrix::new(2, 3, DType::Fp64);
        let b = Matrix::new(4, 2, DType::Fp64);
        let e = a.matmul(&b);
        let err = validate_matrix_expr(&e).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid `mxm`: inner dimensions disagree: 2x3 @ 4x2; in \
             mxm([2x3 fp64], [4x2 fp64])"
        );
    }

    #[test]
    fn transposed_operand_uses_logical_shape() {
        let a = Matrix::new(2, 3, DType::Fp64);
        // aᵀ is 3x2, so aᵀ @ a (2x3) conforms.
        assert!(validate_matrix_expr(&a.t().matmul(&a)).is_ok());
        // a @ a does not (2x3 @ 2x3).
        assert!(validate_matrix_expr(&a.matmul(&a)).is_err());
    }

    #[test]
    fn ewise_vector_size_mismatch() {
        let u = Vector::new(2, DType::Fp64);
        let v = Vector::new(3, DType::Fp64);
        let err = validate_vector_expr(&(&u + &v)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid `eWiseAdd`: operands have sizes 2 and 3; in \
             eWiseAdd([2 fp64], [3 fp64])"
        );
    }

    #[test]
    fn strict_mode_promotes_lossy_lint_to_error() {
        let u = Vector::new(3, DType::Int64);
        let v = Vector::new(3, DType::Fp32);
        // Default mode: fine, but linted.
        take_lints();
        assert!(validate_vector_expr(&(&u + &v)).is_ok());
        let lints = take_lints();
        assert_eq!(lints.len(), 1);
        assert!(
            lints[0].contains("lossy dtype promotion int64 ⊕ fp32 → fp32"),
            "{}",
            lints[0]
        );
        // Strict mode: hard error.
        let _strict = StrictTypes.enter();
        let err = validate_vector_expr(&(&u + &v)).unwrap_err();
        assert!(matches!(err, PygbError::Invalid { op: "eWiseAdd", .. }));
    }

    #[test]
    fn exact_promotions_stay_silent_even_in_strict_mode() {
        let _strict = StrictTypes.enter();
        let u = Vector::new(3, DType::Int16);
        let v = Vector::new(3, DType::Fp64);
        take_lints();
        assert!(validate_vector_expr(&(&u + &v)).is_ok());
        assert!(take_lints().is_empty());
    }

    #[test]
    fn lint_buffer_is_bounded() {
        take_lints();
        for i in 0..(LINT_CAP + 10) {
            push_lint(format!("lint {i}"));
        }
        assert_eq!(take_lints().len(), LINT_CAP);
    }
}
