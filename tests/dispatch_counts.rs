//! Dispatch-count deltas of whole PageRank runs over the process-wide
//! `JitStats`.
//!
//! These difference global counters across hundreds of dispatches, so
//! they live in a test binary of their own, serialized on
//! [`stats_serial`]: inside `pygb-algorithms`' unit-test binary the
//! other tests' dispatches land in the deltas.

use pygb::Matrix;
use pygb_algorithms::{
    pagerank_dsl_chained, pagerank_dsl_loops, pagerank_nonblocking, PageRankOptions,
};
use pygb_integration::stats_serial;

fn cycle(n: usize) -> Matrix {
    Matrix::from_triples(n, n, (0..n).map(|i| (i, (i + 1) % n, 1.0f64))).unwrap()
}

fn twenty_iterations() -> PageRankOptions {
    PageRankOptions {
        threshold: 0.0,
        max_iters: 20,
        ..Default::default()
    }
}

/// On the PageRank iteration body, nonblocking mode must issue strictly
/// fewer kernel invocations than blocking mode, with at least one fused
/// chain dispatched as a single cached kernel.
#[test]
fn nonblocking_uses_fewer_dispatches_than_blocking() {
    let _g = stats_serial();
    let g = cycle(8);
    let opts = twenty_iterations();
    // Warm both variants so only steady-state dispatches count.
    pagerank_dsl_loops(&g, opts).unwrap();
    pagerank_nonblocking(&g, opts).unwrap();

    let before = pygb::runtime().cache().stats().snapshot();
    pagerank_dsl_loops(&g, opts).unwrap();
    let mid = pygb::runtime().cache().stats().snapshot();
    pagerank_nonblocking(&g, opts).unwrap();
    let after = pygb::runtime().cache().stats().snapshot();

    let blocking = mid.invocations - before.invocations;
    let nonblocking = after.invocations - mid.invocations;
    assert!(
        nonblocking < blocking,
        "nonblocking must invoke fewer kernels: {nonblocking} vs {blocking}"
    );
    // Two fusions per iteration: vxm+apply (rule 2) and
    // ewise+reduce (rule 4).
    assert_eq!(after.fused_ops - mid.fused_ops, 40);
    // Everything in the iteration body deferred before running.
    assert!(after.deferred_ops > mid.deferred_ops);
}

#[test]
fn chained_uses_fewer_dispatches_per_iteration() {
    let _g = stats_serial();
    let g = cycle(8);
    let opts = twenty_iterations();
    // Warm the JIT so only steady-state dispatches are counted.
    pagerank_dsl_loops(&g, opts).unwrap();
    pagerank_dsl_chained(&g, opts).unwrap();

    let before = pygb::runtime().cache().stats().snapshot();
    pagerank_dsl_loops(&g, opts).unwrap();
    let mid = pygb::runtime().cache().stats().snapshot();
    pagerank_dsl_chained(&g, opts).unwrap();
    let after = pygb::runtime().cache().stats().snapshot();

    let loops_dispatches = mid.total_dispatches() - before.total_dispatches();
    let chained_dispatches = after.total_dispatches() - mid.total_dispatches();
    // The fused chain saves exactly one dispatch per iteration.
    assert_eq!(loops_dispatches - chained_dispatches, 20);
}
