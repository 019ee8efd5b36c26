//! Nonblocking-mode hooks — the core side of the deferred op-DAG.
//!
//! GraphBLAS allows an implementation to run in *nonblocking* mode:
//! operations may be queued rather than executed, as long as the
//! program cannot tell the difference when it finally reads data out.
//! PyGB's paper evaluates per-op dispatch; this module adds the
//! deferred execution mode on top of the same dispatch layer.
//!
//! The actual DAG, fusion pass, and scheduler live in the
//! `pygb-runtime` crate. To avoid a dependency cycle (that crate calls
//! back into [`crate::dispatch`] to execute nodes), the engine is
//! installed here as a process-wide table of function pointers
//! ([`EngineOps`]) via [`install_engine`]. Everything else in this
//! module is bookkeeping shared by the two crates:
//!
//! - **Mode flag.** [`enter`] returns a guard; while at least one
//!   guard is alive on the current thread, assignments *enqueue*
//!   ([`VecOpDesc`]/[`MatOpDesc`]) instead of dispatching.
//! - **Pending-value identity.** At enqueue time the target container's
//!   store handle is swapped for a freshly minted empty store of the
//!   same shape and dtype. The `Arc` pointer identity of that
//!   placeholder *is* the name of the pending value: expression
//!   snapshots that capture it become DAG edges for free, and the
//!   engine's thread-local resolution map translates it to the real
//!   store after the node runs.
//! - **Flush-on-read.** Every blocking entry point and every data
//!   accessor resolves operands through `resolved_vec`/
//!   `resolved_mat`, which flush the DAG when they see a pending
//!   placeholder.
//!
//! The DAG and its resolution map are thread-local: containers holding
//! unflushed placeholders must be read (or [`crate::Vector::settle`]d)
//! on the thread that deferred them before crossing threads.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use gbtl::ops::kind::{BinaryOpKind, KindMonoid};
use gbtl::Indices;

use crate::error::{PygbError, Result};
use crate::expr::{MatrixExpr, VectorExpr};
use crate::facts::KernelChoice;
use crate::matrix::Matrix;
use crate::store::{MatrixStore, VectorStore};
use crate::value::DynScalar;
use crate::vector::Vector;

// ---------------------------------------------------------------------
// Deferred-operation descriptors.
// ---------------------------------------------------------------------

/// The right-hand side of a vector assignment, blocking or deferred.
#[derive(Clone, Debug)]
pub enum VecRhs {
    /// An expression (`w[m] = A @ u`, ...).
    Expr(VectorExpr),
    /// A broadcast constant (`w[m][:] = k`).
    Scalar(DynScalar),
}

/// The right-hand side of a matrix assignment, blocking or deferred.
#[derive(Clone, Debug)]
pub enum MatRhs {
    /// An expression (`C[M] = A @ B`, ...).
    Expr(MatrixExpr),
    /// A broadcast constant.
    Scalar(DynScalar),
}

/// One deferred vector operation: everything `dispatch::eval_vector`
/// would have consumed, plus the output placeholder minted at enqueue
/// time.
#[derive(Clone, Debug)]
pub struct VecOpDesc {
    /// The target's store *before* this operation (old `C`, merged
    /// under mask/accumulate semantics).
    pub target: Arc<VectorStore>,
    /// The placeholder the target container now holds; its pointer
    /// identity names this node's result until the flush resolves it.
    pub out: Arc<VectorStore>,
    /// Optional mask store and complement flag.
    pub mask: Option<(Arc<VectorStore>, bool)>,
    /// Accumulator, if the assignment was `+=`.
    pub accum: Option<BinaryOpKind>,
    /// GraphBLAS replace flag.
    pub replace: bool,
    /// Index region for `w[i:j] = ...` forms.
    pub region: Option<Indices>,
    /// What to evaluate.
    pub rhs: VecRhs,
}

/// One deferred matrix operation (see [`VecOpDesc`]).
#[derive(Clone, Debug)]
pub struct MatOpDesc {
    /// The target's store before this operation.
    pub target: Arc<MatrixStore>,
    /// The freshly minted output placeholder.
    pub out: Arc<MatrixStore>,
    /// Optional mask store and complement flag.
    pub mask: Option<(Arc<MatrixStore>, bool)>,
    /// Accumulator, if the assignment was `+=`.
    pub accum: Option<BinaryOpKind>,
    /// GraphBLAS replace flag.
    pub replace: bool,
    /// Index region for `C[i:j, k:l] = ...` forms.
    pub region: Option<(Indices, Indices)>,
    /// What to evaluate.
    pub rhs: MatRhs,
}

impl VecOpDesc {
    /// A *plain* node: no mask, no accumulator, no index region, and an
    /// expression right-hand side — the shape the fusion and CSE passes
    /// reason about without merge semantics getting in the way.
    pub fn is_plain(&self) -> bool {
        self.mask.is_none()
            && self.accum.is_none()
            && self.region.is_none()
            && matches!(self.rhs, VecRhs::Expr(_))
    }

    /// Whether executing this node writes the target wholesale without
    /// reading its prior contents: no mask, no accumulator, no region.
    /// (Both expression and scalar-broadcast right-hand sides fully
    /// overwrite in that configuration.) The liveness pass uses this to
    /// classify the `target` edge as a non-reading use.
    pub fn overwrites_fully(&self) -> bool {
        self.mask.is_none() && self.accum.is_none() && self.region.is_none()
    }
}

impl MatOpDesc {
    /// Matrix analog of [`VecOpDesc::is_plain`].
    pub fn is_plain(&self) -> bool {
        self.mask.is_none()
            && self.accum.is_none()
            && self.region.is_none()
            && matches!(self.rhs, MatRhs::Expr(_))
    }

    /// Matrix analog of [`VecOpDesc::overwrites_fully`].
    pub fn overwrites_fully(&self) -> bool {
        self.mask.is_none() && self.accum.is_none() && self.region.is_none()
    }
}

/// What the engine knows about a store handle.
pub enum Resolution<S> {
    /// Not produced by a deferred operation — use as-is.
    Clean,
    /// Produced by a deferred operation that has since executed; here
    /// is the real store.
    Resolved(Arc<S>),
    /// Produced by a deferred operation that has not run yet.
    Pending,
}

/// The function-pointer vtable the `pygb-runtime` crate installs.
pub struct EngineOps {
    /// Append a deferred vector operation to the calling thread's DAG.
    pub enqueue_vector: fn(VecOpDesc) -> Result<()>,
    /// Append a deferred matrix operation to the calling thread's DAG.
    pub enqueue_matrix: fn(MatOpDesc) -> Result<()>,
    /// Fuse, schedule, and execute every node in the calling thread's
    /// DAG. Must be a no-op (Ok) when the DAG is empty or mid-flush.
    pub flush: fn() -> Result<()>,
    /// Classify a vector store handle against the thread's DAG state.
    pub resolve_vector: fn(&Arc<VectorStore>) -> Resolution<VectorStore>,
    /// Classify a matrix store handle against the thread's DAG state.
    pub resolve_matrix: fn(&Arc<MatrixStore>) -> Resolution<MatrixStore>,
    /// Reduce a (possibly pending) vector to a scalar, fusing the
    /// reduction into the producing eWise node when profitable.
    /// Returns `Ok(None)` when the store is not pending (the caller
    /// then dispatches a plain reduction itself).
    pub reduce_vector: fn(&Arc<VectorStore>, KindMonoid) -> Result<Option<DynScalar>>,
}

static ENGINE: OnceLock<EngineOps> = OnceLock::new();

thread_local! {
    /// Nesting depth of nonblocking guards on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// True while the engine is executing DAG nodes through the
    /// blocking dispatch path (so those dispatches neither re-enqueue
    /// nor re-flush).
    static SUSPENDED: Cell<bool> = const { Cell::new(false) };
}

/// Install the execution engine. Returns `false` if one was already
/// installed (the first installation wins; installing the same vtable
/// twice is harmless).
pub fn install_engine(ops: EngineOps) -> bool {
    ENGINE.set(ops).is_ok()
}

/// Whether an execution engine has been installed in this process.
pub fn engine_installed() -> bool {
    ENGINE.get().is_some()
}

fn engine() -> Option<&'static EngineOps> {
    ENGINE.get()
}

fn suspended() -> bool {
    SUSPENDED.with(|s| s.get())
}

/// Whether operations on the current thread are being deferred.
pub fn is_deferring() -> bool {
    !suspended() && DEPTH.with(|d| d.get()) > 0 && engine_installed()
}

/// Enter nonblocking mode on the current thread. Returns a guard;
/// while it (or any nested guard) is alive, assignments enqueue into
/// the thread's op-DAG instead of dispatching. Dropping the outermost
/// guard flushes.
///
/// Errors with [`PygbError::Unsupported`] if no engine is installed —
/// the mode needs the `pygb-runtime` crate (use
/// `pygb_runtime::nonblocking()`, which installs it).
pub fn enter() -> Result<DeferGuard> {
    if !engine_installed() {
        return Err(PygbError::Unsupported {
            context: "nonblocking mode requires an execution engine; link the `pygb-runtime` \
                      crate and enter the mode through `pygb_runtime::nonblocking()`"
                .to_string(),
        });
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    Ok(DeferGuard {
        _not_send: std::marker::PhantomData,
    })
}

/// RAII guard for nonblocking mode (see [`enter`]). Thread-bound: the
/// DAG it governs is thread-local.
pub struct DeferGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for DeferGuard {
    fn drop(&mut self) {
        let depth = DEPTH.with(|d| {
            let n = d.get().saturating_sub(1);
            d.set(n);
            n
        });
        if depth == 0 {
            // The outermost guard is a flush point (scope exit is a
            // terminating event). A deferred failure has nowhere to
            // surface here but a panic — use `flush()` before the
            // scope ends to handle errors as values.
            if let Err(e) = flush() {
                if !std::thread::panicking() {
                    panic!("deferred PyGB operation failed at flush: {e}");
                }
            }
        }
    }
}

/// Execute every deferred operation on the current thread's DAG.
/// Explicit flush point; no-op when nothing is pending or no engine is
/// installed.
pub fn flush() -> Result<()> {
    match engine() {
        Some(ops) if !suspended() => (ops.flush)(),
        _ => Ok(()),
    }
}

/// Run `f` with deferral and flushing suppressed — how the engine
/// executes DAG nodes through the ordinary blocking dispatch path.
fn suspend<R>(f: impl FnOnce() -> R) -> R {
    SUSPENDED.with(|s| {
        struct Restore<'a>(&'a Cell<bool>, bool);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(s, s.get());
        s.set(true);
        f()
    })
}

// ---------------------------------------------------------------------
// Enqueue (called from dispatch when `is_deferring()`).
// ---------------------------------------------------------------------

pub(crate) fn enqueue_vector(
    target: &mut Vector,
    mask: Option<(Arc<VectorStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<Indices>,
    rhs: VecRhs,
) -> Result<()> {
    let ops = engine().expect("is_deferring() implies an installed engine");
    let _sp = pygb_obs::span(pygb_obs::Cat::Enqueue, "enqueue/vector");
    // The placeholder is a real empty store with the target's shape and
    // dtype, so size/dtype queries never need a flush.
    let out = Arc::new(VectorStore::new(target.size(), target.dtype()));
    let desc = VecOpDesc {
        target: target.store_arc(),
        out: Arc::clone(&out),
        mask,
        accum,
        replace,
        region,
        rhs,
    };
    (ops.enqueue_vector)(desc)?;
    target.store = out;
    pygb_obs::Census::DeferredOps.inc();
    Ok(())
}

pub(crate) fn enqueue_matrix(
    target: &mut Matrix,
    mask: Option<(Arc<MatrixStore>, bool)>,
    accum: Option<BinaryOpKind>,
    replace: bool,
    region: Option<(Indices, Indices)>,
    rhs: MatRhs,
) -> Result<()> {
    let ops = engine().expect("is_deferring() implies an installed engine");
    let _sp = pygb_obs::span(pygb_obs::Cat::Enqueue, "enqueue/matrix");
    let (r, c) = (target.nrows(), target.ncols());
    let out = Arc::new(MatrixStore::new(r, c, target.dtype()));
    let desc = MatOpDesc {
        target: Arc::clone(&target.store),
        out: Arc::clone(&out),
        mask,
        accum,
        replace,
        region,
        rhs,
    };
    (ops.enqueue_matrix)(desc)?;
    target.store = out;
    pygb_obs::Census::DeferredOps.inc();
    Ok(())
}

// ---------------------------------------------------------------------
// Resolution (called from dispatch and container accessors).
// ---------------------------------------------------------------------

/// Translate a possibly-pending vector store handle to its real store,
/// flushing the DAG if its producer has not run yet.
pub(crate) fn resolved_vec(store: &Arc<VectorStore>) -> Result<Arc<VectorStore>> {
    let Some(ops) = engine() else {
        return Ok(Arc::clone(store));
    };
    match (ops.resolve_vector)(store) {
        Resolution::Clean => Ok(Arc::clone(store)),
        Resolution::Resolved(real) => Ok(real),
        Resolution::Pending => {
            (ops.flush)()?;
            match (ops.resolve_vector)(store) {
                Resolution::Resolved(real) => Ok(real),
                _ => Err(unresolved()),
            }
        }
    }
}

/// Matrix analog of [`resolved_vec`].
pub(crate) fn resolved_mat(store: &Arc<MatrixStore>) -> Result<Arc<MatrixStore>> {
    let Some(ops) = engine() else {
        return Ok(Arc::clone(store));
    };
    match (ops.resolve_matrix)(store) {
        Resolution::Clean => Ok(Arc::clone(store)),
        Resolution::Resolved(real) => Ok(real),
        Resolution::Pending => {
            (ops.flush)()?;
            match (ops.resolve_matrix)(store) {
                Resolution::Resolved(real) => Ok(real),
                _ => Err(unresolved()),
            }
        }
    }
}

/// Non-flushing peek at a vector store for the analyzer's advisory
/// checks: the real store if the handle is clean or already resolved,
/// `None` if it names a pending value (whose contents are unknowable
/// without a flush the analyzer must not trigger).
pub(crate) fn peek_vec(store: &Arc<VectorStore>) -> Option<Arc<VectorStore>> {
    match engine() {
        None => Some(Arc::clone(store)),
        Some(ops) => match (ops.resolve_vector)(store) {
            Resolution::Clean => Some(Arc::clone(store)),
            Resolution::Resolved(real) => Some(real),
            Resolution::Pending => None,
        },
    }
}

/// Matrix analog of [`peek_vec`].
pub(crate) fn peek_mat(store: &Arc<MatrixStore>) -> Option<Arc<MatrixStore>> {
    match engine() {
        None => Some(Arc::clone(store)),
        Some(ops) => match (ops.resolve_matrix)(store) {
            Resolution::Clean => Some(Arc::clone(store)),
            Resolution::Resolved(real) => Some(real),
            Resolution::Pending => None,
        },
    }
}

fn unresolved() -> PygbError {
    PygbError::Unsupported {
        context: "nonblocking flush did not resolve a pending operand (was the container \
                  deferred on another thread?)"
            .to_string(),
    }
}

/// Ask the engine to reduce a vector, fusing into the producing eWise
/// node when possible. `Ok(None)` means "not pending, reduce normally".
pub(crate) fn try_fused_reduce(
    store: &Arc<VectorStore>,
    monoid: KindMonoid,
) -> Result<Option<DynScalar>> {
    match engine() {
        Some(ops) if !suspended() => (ops.reduce_vector)(store, monoid),
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------
// Node execution (called by the engine during a flush).
// ---------------------------------------------------------------------

/// Execute one deferred vector operation through the blocking dispatch
/// path and return the resulting store. The descriptor's operand
/// handles must already be substituted with resolved stores; deferral
/// and flushing are suspended for the duration so the evaluation
/// cannot re-enter the engine. `choice` is the engine's plan-time
/// kernel decision for this node (default: none made).
pub fn run_vec_op(desc: VecOpDesc, choice: KernelChoice) -> Result<VectorStore> {
    suspend(|| {
        let mut target = Vector { store: desc.target };
        crate::dispatch::eval_vector(
            &mut target,
            desc.mask,
            desc.accum,
            desc.replace,
            desc.region,
            desc.rhs,
            choice,
        )?;
        Ok(target.take_store())
    })
}

/// Matrix analog of [`run_vec_op`].
pub fn run_mat_op(desc: MatOpDesc, choice: KernelChoice) -> Result<MatrixStore> {
    suspend(|| {
        let mut target = Matrix { store: desc.target };
        crate::dispatch::eval_matrix(
            &mut target,
            desc.mask,
            desc.accum,
            desc.replace,
            desc.region,
            desc.rhs,
            choice,
        )?;
        Ok(target.take_store())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_without_engine_errors() {
        // The core crate's own test binary never installs an engine,
        // so the guard constructor must refuse.
        if !engine_installed() {
            assert!(matches!(enter(), Err(PygbError::Unsupported { .. })));
        }
    }

    #[test]
    fn flush_without_engine_is_noop() {
        assert!(flush().is_ok());
    }

    #[test]
    fn resolution_defaults_to_clean() {
        let store = Arc::new(VectorStore::new(3, crate::DType::Fp64));
        let r = resolved_vec(&store).unwrap();
        assert!(Arc::ptr_eq(&r, &store));
    }
}
