//! Incremental recomputation over streamed edge mutations.
//!
//! Companions to the batch algorithms for the streaming layer
//! ([`pygb::StreamingMatrix`]): instead of recomputing from scratch
//! after every published delta, these warm-start from the previous
//! answer and touch only the part of the graph the delta disturbed.
//! Both run as nonblocking DAG ops (deferred enqueue, fusion, flush on
//! read) and report under their own kernel families
//! (`stream/bfs_inc`, `stream/pagerank_inc`) plus `stream/*` counters
//! in the PR-5 metrics registry.
//!
//! **Incremental BFS** is *exact* for insert-only deltas: adding edges
//! can only decrease hop counts, so relaxing candidate improvements
//! outward from the inserted edges converges to exactly
//! `bfs(new graph)` — the proof obligation discharged differentially
//! in `tests/streaming_equiv.rs`. A batch containing a delete can
//! *increase* distances, which monotone relaxation cannot express, so
//! the function falls back to a full traversal (counted in
//! `stream/bfs_inc_fallbacks`).
//!
//! **Incremental PageRank** warm-starts the power iteration from the
//! previous ranks. The damped iteration is a contraction (factor =
//! damping < 1), so it converges to the *same* fixed point from any
//! start; beginning at the old ranks — already within `‖Δ‖` of the new
//! fixed point for a small delta — just takes far fewer iterations
//! than the uniform start. Agreement is within convergence tolerance,
//! not bit-identical (a different trajectory to the same fixed point).

use std::time::Instant;

use pygb::{
    apply, BinaryOp, DType, DynScalar, EdgeUpdate, Matrix, Monoid, Semiring, UnaryOp, Vector,
};

use crate::nonblocking::{bfs_nonblocking, deferred};
use crate::pagerank::{pagerank_chained_from, PageRankOptions};

/// Incremental BFS: given `prev_levels = bfs(old graph, source)` and
/// the edge batch that turned the old graph into `graph`, produce
/// `bfs(graph, source)` — bit-identical to a fresh traversal.
///
/// Insert-only batches relax outward from the inserted edges
/// (decrease-only dynamic shortest paths over the hop metric); a batch
/// with any delete falls back to [`bfs_nonblocking`] on the full
/// graph. Levels follow the Fig. 2b convention: `uint64`, source at
/// level 1, unreached vertices unstored.
pub fn bfs_incremental(
    graph: &Matrix,
    source: usize,
    prev_levels: &Vector,
    batch: &[EdgeUpdate],
) -> pygb::Result<Vector> {
    let start = Instant::now();
    let _sp = pygb_obs::span(pygb_obs::Cat::Exec, "stream/bfs_inc");
    if batch.iter().any(|u| u.val.is_none()) {
        // A delete can lengthen paths; monotone relaxation can't undo
        // a level, so recompute from scratch.
        pygb_obs::registry()
            .counter("stream/bfs_inc_fallbacks")
            .inc();
        let out = bfs_nonblocking(graph, source)?;
        pygb_obs::observe_kernel("stream/bfs_inc", start.elapsed().as_nanos() as u64);
        return Ok(out);
    }

    let n = graph.nrows();
    // Hop counts are small integers — exact in fp64 — and the float
    // domain keeps every DSL op in the promotion lattice's fixed point.
    let mut levels = prev_levels.cast(DType::Fp64);

    // Seed candidates: each inserted edge (u, v) offers v a level of
    // level(u) + 1; keep the offers that beat v's current level.
    let mut seeds: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for up in batch {
        if let Some(lu) = levels.get(up.row) {
            let offer = lu.as_f64() + 1.0;
            let beats = match levels.get(up.col) {
                Some(lv) => offer < lv.as_f64(),
                None => true,
            };
            if beats {
                let slot = seeds.entry(up.col).or_insert(f64::INFINITY);
                if offer < *slot {
                    *slot = offer;
                }
            }
        }
    }
    pygb_obs::registry().counter("stream/bfs_inc_runs").inc();
    if seeds.is_empty() {
        // No inserted edge improves anything: the old answer stands.
        pygb_obs::observe_kernel("stream/bfs_inc", start.elapsed().as_nanos() as u64);
        return Ok(levels.cast(DType::UInt64));
    }
    let mut cand = Vector::from_pairs(n, seeds)?;

    // Relax improvements outward. Each round merges the candidate
    // levels (strict improvements by construction), then propagates
    // one hop from the just-improved vertices; `nvals` is the flush
    // point terminating each deferred round.
    while cand.nvals() > 0 {
        let _nb = pygb_runtime::nonblocking()?;
        {
            // levels = min-union(levels, cand)
            let _b = BinaryOp::new("Min")?.enter();
            let snapshot = levels.clone();
            levels.no_mask().assign(&snapshot + &cand)?;
        }
        // One hop from the improved vertices over the *new* graph:
        // offer(v) = min over improved in-neighbors u of level(u) + 1.
        let next = {
            let min_monoid = Monoid::new("Min", "MinIdentity")?;
            let _sr = Semiring::new(min_monoid, "Second")?.enter();
            let t = Vector::from_expr(cand.vxm(graph))?;
            let _u = UnaryOp::bound("Plus", 1.0)?.enter();
            Vector::from_expr(apply(&t))?
        };
        // Keep strict improvements: offers below the stored level...
        let improves = {
            let _b = BinaryOp::new("LessThan")?.enter();
            Vector::from_expr(next.ewise_mult(&levels))?
        };
        let mut improved = Vector::new(n, DType::Fp64);
        improved.masked(&improves).assign(&next)?;
        // ...plus offers reaching vertices with no level at all.
        let mut reached = Vector::new(n, DType::Fp64);
        reached.masked_complement(&levels).assign(&next)?;
        cand = {
            // Disjoint patterns; the binop only labels the union.
            let _b = BinaryOp::new("Min")?.enter();
            Vector::from_expr(improved.ewise_add(&reached))?
        };
    }
    let out = levels.cast(DType::UInt64);
    pygb_obs::observe_kernel("stream/bfs_inc", start.elapsed().as_nanos() as u64);
    Ok(out)
}

/// Incremental PageRank: re-run the damped power iteration on `graph`
/// warm-started from `prev_ranks` (any dtype; cast to `fp64`). Returns
/// `(ranks, iterations)`. Converges to the same fixed point as
/// [`crate::pagerank_nonblocking`] from the uniform start — the
/// contraction
/// has one fixed point — but a small delta leaves the old ranks close
/// to it, so far fewer iterations run (`stream/pagerank_inc_iters`
/// counts them).
pub fn pagerank_incremental(
    graph: &Matrix,
    prev_ranks: &Vector,
    opts: PageRankOptions,
) -> pygb::Result<(Vector, usize)> {
    let start = Instant::now();
    let _sp = pygb_obs::span(pygb_obs::Cat::Exec, "stream/pagerank_inc");
    let rows = graph.nrows();
    let rows_f = rows as f64;

    // Warm start: previous rank where one exists, uniform elsewhere
    // (a vertex the old graph never ranked starts at 1/n).
    let mut seed = Vector::new(rows, DType::Fp64);
    seed.no_mask().slice(..).assign_scalar(1.0 / rows_f)?;
    {
        let _b = BinaryOp::new("Second")?.enter();
        let snapshot = seed.clone();
        let prev = prev_ranks.cast(DType::Fp64);
        seed.no_mask().assign(&snapshot + &prev)?;
    }

    let (ranks, iters) = deferred(|| pagerank_chained_from(graph, seed, opts))?;
    let reg = pygb_obs::registry();
    reg.counter("stream/pagerank_inc_runs").inc();
    reg.counter("stream/pagerank_inc_iters").add(iters as u64);
    pygb_obs::observe_kernel("stream/pagerank_inc", start.elapsed().as_nanos() as u64);
    Ok((ranks, iters))
}

/// The unweighted hop count a query would see for `v`, used by tests.
#[doc(hidden)]
pub fn level_of(levels: &Vector, v: usize) -> Option<u64> {
    levels.get(v).map(DynScalar::as_i64).map(|x| x as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_dsl_loops;
    use crate::nonblocking::pagerank_nonblocking;

    fn fig1_graph() -> Matrix {
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
        Matrix::from_triples(7, 7, edges).unwrap()
    }

    fn updated(graph: &Matrix, batch: &[EdgeUpdate]) -> Matrix {
        let mut g = graph.dup();
        g.update_edges(batch).unwrap();
        g
    }

    #[test]
    fn insert_only_delta_matches_fresh_bfs() {
        let old = fig1_graph();
        let prev = bfs_dsl_loops(&old, 3).unwrap();
        // A shortcut edge and an edge into an already-settled vertex.
        let batch = [EdgeUpdate::add(3, 5, 1.0f64), EdgeUpdate::add(5, 4, 1.0f64)];
        let new = updated(&old, &batch);
        let inc = bfs_incremental(&new, 3, &prev, &batch).unwrap();
        let fresh = bfs_dsl_loops(&new, 3).unwrap();
        assert_eq!(inc.extract_pairs(), fresh.extract_pairs());
    }

    #[test]
    fn chained_inserts_reach_previously_unreachable_vertices() {
        // Path 0→1; vertices 2, 3 unreachable until the delta links
        // 1→2 and 2→3 in the same batch (propagation must chain
        // through a vertex that had no previous level).
        let old = Matrix::from_triples(4, 4, vec![(0usize, 1usize, 1.0f64)]).unwrap();
        let prev = bfs_dsl_loops(&old, 0).unwrap();
        let batch = [EdgeUpdate::add(1, 2, 1.0f64), EdgeUpdate::add(2, 3, 1.0f64)];
        let new = updated(&old, &batch);
        let inc = bfs_incremental(&new, 0, &prev, &batch).unwrap();
        let fresh = bfs_dsl_loops(&new, 0).unwrap();
        assert_eq!(inc.extract_pairs(), fresh.extract_pairs());
        assert_eq!(level_of(&inc, 3), Some(4));
    }

    #[test]
    fn useless_insert_returns_previous_answer() {
        let old = fig1_graph();
        let prev = bfs_dsl_loops(&old, 3).unwrap();
        // (2, 0): source side already at a deeper level than 0 has.
        let batch = [EdgeUpdate::add(2, 0, 1.0f64)];
        let new = updated(&old, &batch);
        let inc = bfs_incremental(&new, 3, &prev, &batch).unwrap();
        assert_eq!(inc.extract_pairs(), prev.extract_pairs());
    }

    #[test]
    fn delete_falls_back_to_full_traversal() {
        let old = fig1_graph();
        let prev = bfs_dsl_loops(&old, 3).unwrap();
        let batch = [EdgeUpdate::del(3, 0)];
        let new = updated(&old, &batch);
        let before = pygb_obs::registry()
            .counter("stream/bfs_inc_fallbacks")
            .get();
        let inc = bfs_incremental(&new, 3, &prev, &batch).unwrap();
        let fresh = bfs_dsl_loops(&new, 3).unwrap();
        assert_eq!(inc.extract_pairs(), fresh.extract_pairs());
        let after = pygb_obs::registry()
            .counter("stream/bfs_inc_fallbacks")
            .get();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn pagerank_warm_start_reaches_the_same_fixed_point_faster() {
        // Hub-and-ring: in-degrees are wildly irregular, so the
        // uniform start is far from the fixed point (on a regular
        // graph uniform IS the fixed point and a cold start would win
        // trivially), and one extra edge is a small relative delta.
        let n = 64;
        let ring = (0..n).map(|i| (i, (i + 1) % n, 1.0f64));
        let hub = (1..n - 1).map(|i| (i, 0, 1.0f64));
        let old = Matrix::from_triples(n, n, ring.chain(hub).collect::<Vec<_>>()).unwrap();
        let opts = PageRankOptions {
            threshold: 1e-14,
            max_iters: 5_000,
            ..Default::default()
        };
        let (prev, _) = pagerank_nonblocking(&old, opts).unwrap();

        let batch = [EdgeUpdate::add(2, 4, 1.0f64)];
        let mut new = old.dup();
        new.update_edges(&batch).unwrap();

        let (warm, warm_iters) = pagerank_incremental(&new, &prev, opts).unwrap();
        let (full, cold_iters) = pagerank_nonblocking(&new, opts).unwrap();
        for i in 0..n {
            let (x, y) = (warm.get(i).unwrap().as_f64(), full.get(i).unwrap().as_f64());
            assert!((x - y).abs() < 1e-6, "vertex {i}: {x} vs {y}");
        }
        assert!(
            warm_iters < cold_iters,
            "warm start took {warm_iters} iterations, cold start {cold_iters}"
        );
    }
}
