//! Shared fixtures and assertion helpers for the cross-crate
//! integration tests (the test sources live in the repo-root `tests/`
//! directory and are registered as `[[test]]` targets of this crate).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pygb::{DynScalar, Matrix, Vector};
use pygb_jit::StatsSnapshot;
use pygb_obs::Scope;

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

/// Run `f` under a fresh [`Scope`] and report the JIT counters it
/// moved — only its own, wherever its wave jobs ran, even while other
/// tests dispatch concurrently.
pub fn measure_dispatches<R>(f: impl FnOnce() -> R) -> (R, StatsSnapshot) {
    let scope = Scope::new();
    let out = {
        let _in = scope.enter();
        f()
    };
    (out, StatsSnapshot::of(&scope))
}
