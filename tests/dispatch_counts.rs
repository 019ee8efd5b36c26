//! Dispatch counts of whole PageRank runs, each read from the run's own
//! census scope ([`measure_dispatches`]), so concurrent tests'
//! dispatches never land in them.

use pygb::Matrix;
use pygb_algorithms::{
    pagerank_dsl_chained, pagerank_dsl_loops, pagerank_nonblocking, PageRankOptions,
};
use pygb_integration::measure_dispatches;

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
    let g = cycle(8);
    let opts = twenty_iterations();
    // Warm both variants so only steady-state dispatches count.
    pagerank_dsl_loops(&g, opts).unwrap();
    pagerank_nonblocking(&g, opts).unwrap();

    let (_, loops) = measure_dispatches(|| pagerank_dsl_loops(&g, opts).unwrap());
    let (_, nb) = measure_dispatches(|| pagerank_nonblocking(&g, opts).unwrap());

    let blocking = loops.invocations;
    let nonblocking = nb.invocations;
    assert!(
        nonblocking < blocking,
        "nonblocking must invoke fewer kernels: {nonblocking} vs {blocking}"
    );
    // Two fusions per iteration: vxm+apply (rule 2) and
    // ewise+reduce (rule 4).
    assert_eq!(nb.fused_ops, 40);
    // Everything in the iteration body deferred before running.
    assert!(nb.deferred_ops > 0);
}

#[test]
fn chained_uses_fewer_dispatches_per_iteration() {
    let g = cycle(8);
    let opts = twenty_iterations();
    // Warm the JIT so only steady-state dispatches are counted.
    pagerank_dsl_loops(&g, opts).unwrap();
    pagerank_dsl_chained(&g, opts).unwrap();

    let (_, loops) = measure_dispatches(|| pagerank_dsl_loops(&g, opts).unwrap());
    let (_, chained) = measure_dispatches(|| pagerank_dsl_chained(&g, opts).unwrap());
    // The fused chain saves exactly one dispatch per iteration.
    assert_eq!(loops.total_dispatches() - chained.total_dispatches(), 20);
}
