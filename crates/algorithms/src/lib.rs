//! # pygb-algorithms — the paper's four benchmark algorithms in three
//! variants each
//!
//! Section VI evaluates BFS, SSSP, PageRank, and triangle counting in
//! three forms:
//!
//! 1. **`*_dsl_loops`** — "Python calls C++ operations that were
//!    compiled separately, using individual bindings and Python loops":
//!    the outer loop runs in the host language and *every* GraphBLAS
//!    operation goes through the dynamic DSL → JIT dispatch pipeline.
//! 2. **`*_dsl_fused`** — "Python calls a complete C++ algorithm where
//!    the data between GBTL calls is handled by C++": one dynamic
//!    dispatch per algorithm call, to a whole-algorithm kernel.
//! 3. **`*_native`** — "GBTL C++ native code": direct statically-typed
//!    calls (re-exported from [`gbtl::algorithms`]).
//!
//! All three variants of an algorithm produce identical results (see
//! the crate tests and `tests/algorithms_equiv.rs`); Fig. 10 measures
//! the abstraction penalty between them.
//!
//! **`*_nonblocking`** is not a fourth copy of any algorithm: it is the
//! same source as the DSL form, deferred. GraphBLAS makes blocking
//! versus nonblocking a property of the context, so each one is its
//! blocking transcription run inside [`deferred`], which enters the
//! `pygb-runtime` op-DAG scope and flushes before returning.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod cc;
mod fused;
pub mod incremental;
pub mod nonblocking;
pub mod pagerank;
pub mod sssp;
pub mod triangle;
pub mod util;

pub use bfs::{bfs_dsl_fused, bfs_dsl_loops, bfs_native};
pub use cc::{cc_dsl_fused, cc_dsl_loops, cc_native, count_components};
pub use incremental::{bfs_incremental, pagerank_incremental};
pub use nonblocking::{
    bfs_nonblocking, deferred, pagerank_nonblocking, sssp_nonblocking, tricount_nonblocking,
};
pub use pagerank::{
    pagerank_chained_from, pagerank_dsl_chained, pagerank_dsl_fused, pagerank_dsl_loops,
    pagerank_native, PageRankOptions,
};
pub use sssp::{sssp_dsl_fused, sssp_dsl_loops, sssp_native};
pub use triangle::{tricount_dsl_fused, tricount_dsl_loops, tricount_native, tril};

/// The execution strategies of the Fig. 10 experiment, plus the
/// nonblocking op-DAG runtime as a fourth series.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Outer loop in the host language, one dynamic dispatch per op.
    DslLoops,
    /// The same source as [`Variant::DslLoops`], deferred: per-op
    /// dispatch queued into the nonblocking op-DAG with automatic
    /// fusion (`pygb-runtime`), see [`deferred`].
    Nonblocking,
    /// One dynamic dispatch to a whole-algorithm kernel.
    DslFused,
    /// Direct statically-typed calls.
    Native,
}

impl Variant {
    /// All variants, in the order Fig. 10 plots them.
    pub const ALL: [Variant; 4] = [
        Variant::DslLoops,
        Variant::Nonblocking,
        Variant::DslFused,
        Variant::Native,
    ];

    /// The label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::DslLoops => "pygb-loops",
            Variant::Nonblocking => "pygb-nonblocking",
            Variant::DslFused => "pygb-fused",
            Variant::Native => "native",
        }
    }
}
