//! Tracing keeps a bounded set of thread lanes. A lane is registered,
//! and never pruned, for every thread that records a span; nonblocking
//! waves run on the flushing thread and the worker pool's persistent
//! `pygb-pool-<k>` helpers, so a traced iterative workload adds at most
//! one lane per helper however many waves it flushes.

use pygb::Matrix;
use pygb_algorithms::PageRankOptions;

#[test]
fn traced_nonblocking_pagerank_adds_only_pool_lanes() {
    pygb_obs::enable();
    pygb_obs::clear_events();
    // This thread's own lane exists before the workload starts.
    drop(pygb_obs::span(pygb_obs::Cat::Build, "caller lane"));

    let n = 64;
    let edges: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n, 1.0), (i, (i * 5 + 3) % n, 1.0)])
        .collect();
    let graph = Matrix::from_triples(n, n, edges).unwrap();
    let opts = PageRankOptions {
        damping_factor: 0.85,
        threshold: 0.0,
        max_iters: 20,
    };
    let (rank, iters) = pygb_algorithms::pagerank_nonblocking(&graph, opts).unwrap();
    pygb_obs::disable();
    assert_eq!(iters, 20);
    assert_eq!(rank.nvals(), n);

    let summary = pygb_bench::trace_check::validate(&pygb_obs::chrome_trace_json())
        .unwrap_or_else(|e| panic!("invalid trace: {e}"));
    let caller = std::thread::current().name().unwrap_or("main").to_string();
    let added: Vec<&String> = summary.lanes.iter().filter(|l| **l != caller).collect();
    let helpers = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    assert!(
        added.len() <= helpers,
        "{} lanes besides the caller's ({added:?}); at most {helpers} expected",
        added.len()
    );
    for lane in added {
        let k = lane.strip_prefix("pygb-pool-").map(str::parse::<usize>);
        assert!(
            matches!(k, Some(Ok(k)) if k < helpers),
            "lane `{lane}` is not a pool helper"
        );
    }
}
