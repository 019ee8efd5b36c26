//! Shared fixtures and assertion helpers for the cross-crate
//! integration tests (the test sources live in the repo-root `tests/`
//! directory and are registered as `[[test]]` targets of this crate).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pygb::{DynScalar, Matrix, Vector};
use pygb_jit::stats::StatsSnapshot;

/// The paper's Fig. 1 seven-vertex example graph, edge weight 1.0.
pub fn fig1_graph() -> Matrix {
    let edges: Vec<(usize, usize, f64)> = vec![
        (0, 1, 1.0),
        (0, 3, 1.0),
        (1, 4, 1.0),
        (1, 6, 1.0),
        (2, 5, 1.0),
        (3, 0, 1.0),
        (3, 2, 1.0),
        (4, 5, 1.0),
        (5, 2, 1.0),
        (6, 2, 1.0),
        (6, 3, 1.0),
        (6, 4, 1.0),
    ];
    Matrix::from_triples(7, 7, edges).expect("fig1 graph builds")
}

/// All stored `(index, value)` pairs of a vector — the bitwise identity
/// used by the blocking/nonblocking equivalence tests (compares stored
/// pattern, dtype-tagged values, and order).
pub fn vector_pairs(v: &Vector) -> Vec<(usize, DynScalar)> {
    v.extract_pairs()
}

/// All stored `(row, col, value)` triples of a matrix.
pub fn matrix_triples(m: &Matrix) -> Vec<(usize, usize, DynScalar)> {
    m.extract_triples()
}

/// Assert two dynamic vectors are bitwise identical: same size, same
/// dtype, same stored pattern, same tagged values.
pub fn assert_vectors_identical(a: &Vector, b: &Vector, context: &str) {
    assert_eq!(a.size(), b.size(), "{context}: size");
    assert_eq!(a.dtype(), b.dtype(), "{context}: dtype");
    assert_eq!(vector_pairs(a), vector_pairs(b), "{context}: contents");
}

/// Assert two dynamic matrices are bitwise identical.
pub fn assert_matrices_identical(a: &Matrix, b: &Matrix, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shape");
    assert_eq!(a.dtype(), b.dtype(), "{context}: dtype");
    assert_eq!(matrix_triples(a), matrix_triples(b), "{context}: contents");
}

/// Dispatch-counter deltas between two [`StatsSnapshot`]s, for tests
/// that assert how many kernels a code path issued.
#[derive(Debug, Clone, Copy)]
pub struct StatsDelta {
    /// Kernel invocations issued.
    pub invocations: u64,
    /// Cache dispatches (memory hits + disk hits + compiles).
    pub dispatches: u64,
    /// Operations deferred into a nonblocking DAG.
    pub deferred: u64,
    /// DAG nodes fused into composite kernels.
    pub fused: u64,
    /// DAG nodes elided as dead code.
    pub elided: u64,
    /// Fusion-rule matches refused by the aliasing analysis.
    pub refused: u64,
    /// `mxm` dispatches that ran the unmasked Gustavson SpGEMM.
    pub sel_spgemm: u64,
    /// `mxm` dispatches that ran the mask-stamped Gustavson SpGEMM.
    pub sel_masked_spgemm: u64,
    /// `mxm` dispatches that ran the mask-guided dot-product SpGEMM.
    pub sel_dot_spgemm: u64,
    /// `mxv`/`vxm` dispatches that pulled (unmasked gather).
    pub sel_pull: u64,
    /// `mxv`/`vxm` dispatches that pulled under a structural mask.
    pub sel_masked_pull: u64,
    /// `mxv`/`vxm` dispatches that pushed (unmasked scatter).
    pub sel_push: u64,
    /// `mxv`/`vxm` dispatches that pushed under a structural mask.
    pub sel_masked_push: u64,
}

/// Serialize the tests of one binary whose assertions difference the
/// process-wide JIT counters: every test of such a file holds this
/// guard for its whole body, so no sibling's dispatches (libtest runs
/// them on parallel threads) land in another's delta.
pub fn stats_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` and report how the global JIT counters moved across it.
pub fn measure_dispatches<R>(f: impl FnOnce() -> R) -> (R, StatsDelta) {
    let stats = pygb::runtime().cache().stats();
    let before = stats.snapshot();
    let out = f();
    let after = stats.snapshot();
    (out, delta(&before, &after))
}

fn delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsDelta {
    StatsDelta {
        invocations: after.invocations - before.invocations,
        dispatches: after.total_dispatches() - before.total_dispatches(),
        deferred: after.deferred_ops - before.deferred_ops,
        fused: after.fused_ops - before.fused_ops,
        elided: after.elided_ops - before.elided_ops,
        refused: after.refused_fusions - before.refused_fusions,
        sel_spgemm: after.sel_spgemm - before.sel_spgemm,
        sel_masked_spgemm: after.sel_masked_spgemm - before.sel_masked_spgemm,
        sel_dot_spgemm: after.sel_dot_spgemm - before.sel_dot_spgemm,
        sel_pull: after.sel_pull - before.sel_pull,
        sel_masked_pull: after.sel_masked_pull - before.sel_masked_pull,
        sel_push: after.sel_push - before.sel_push,
        sel_masked_push: after.sel_masked_push - before.sel_masked_push,
    }
}
