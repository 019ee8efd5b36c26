//! PageRank in the three Fig. 10 variants.
//!
//! The DSL form transcribes Fig. 7 operation for operation, including
//! its quirks: the per-iteration teleport fix-up through a complemented
//! mask (lines 37–39) and the early `return` on convergence that skips
//! that iteration's fix-up (lines 34–35).

use pygb::{
    apply, reduce, Accumulator, BinaryOp, DType, Matrix, Monoid, Semiring, UnaryOp, Vector,
};

use crate::fused::{self, PageRankArgs};
use crate::util::normalize_rows;

pub use gbtl::algorithms::PageRankOptions;

/// Native baseline (Fig. 8).
pub use gbtl::algorithms::page_rank as pagerank_native;

/// PageRank with the iteration loop in the host language, one dynamic
/// dispatch per operation (Fig. 7). Returns the rank vector and the
/// iteration count.
pub fn pagerank_dsl_loops(graph: &Matrix, opts: PageRankOptions) -> pygb::Result<(Vector, usize)> {
    let (rows, _cols) = graph.shape();
    let rows_f = rows as f64;

    // m = gb.Matrix(shape=graph.shape, dtype=float); m[None] = graph
    let mut m = Matrix::new(rows, rows, DType::Fp64);
    m.no_mask().assign(graph)?;
    // gb.utilities.normalize_rows(m)
    normalize_rows(&mut m)?;
    // with gb.UnaryOp("Times", damping_factor): m[None] = gb.apply(m)
    {
        let _u = UnaryOp::bound("Times", opts.damping_factor)?.enter();
        let snapshot = m.clone();
        m.no_mask().assign(apply(&snapshot))?;
    }

    // page_rank[:] = 1.0 / rows
    let mut page_rank = Vector::new(rows, DType::Fp64);
    page_rank.no_mask().slice(..).assign_scalar(1.0 / rows_f)?;
    let mut new_rank = Vector::new(rows, DType::Fp64);
    let mut delta = Vector::new(rows, DType::Fp64);
    let teleport = (1.0 - opts.damping_factor) / rows_f;

    for i in 0..opts.max_iters {
        // with gb.Accumulator("Second"), gb.Semiring(gb.PlusMonoid, "Times"):
        //     new_rank[None] += page_rank @ m
        {
            let _acc = Accumulator::new("Second")?.enter();
            let plus_monoid = Monoid::new("Plus", "Zero")?;
            let _sr = Semiring::new(plus_monoid, "Times")?.enter();
            let expr = page_rank.vxm(&m);
            new_rank.no_mask().accum_assign(expr)?;
        }
        // with gb.UnaryOp("Plus", (1-d)/rows): new_rank[None] = gb.apply(new_rank)
        {
            let _u = UnaryOp::bound("Plus", teleport)?.enter();
            let snapshot = new_rank.clone();
            new_rank.no_mask().assign(apply(&snapshot))?;
        }
        // with gb.BinaryOp("Minus"): delta[None] = page_rank + new_rank
        {
            let _b = BinaryOp::new("Minus")?.enter();
            delta.no_mask().assign(&page_rank + &new_rank)?;
        }
        // delta[None] = delta * delta  (default Times)
        {
            let snapshot = delta.clone();
            delta.no_mask().assign(&snapshot * &snapshot)?;
        }
        // squared_error = gb.reduce(delta)  (default PlusMonoid)
        let squared_error = reduce(&delta)?.as_f64();

        // page_rank[:] = new_rank
        page_rank.no_mask().slice(..).assign(&new_rank)?;
        if squared_error / rows_f < opts.threshold {
            return Ok((page_rank, i + 1));
        }

        // new_rank[:] = (1 - d) / rows
        new_rank.no_mask().slice(..).assign_scalar(teleport)?;
        // with gb.BinaryOp("Plus"):
        //     page_rank[~page_rank] = page_rank + new_rank
        {
            let _b = BinaryOp::new("Plus")?.enter();
            let snapshot = page_rank.clone();
            let expr = &snapshot + &new_rank;
            page_rank.masked_complement(&snapshot).assign(expr)?;
        }
    }
    Ok((page_rank, opts.max_iters))
}

/// Fig. 7 PageRank with Section V's deferred-chain compilation: the
/// per-iteration `new_rank[None] += page_rank @ m` and the following
/// teleport `apply` fuse into ONE module dispatch, cutting the
/// dispatch count per iteration — the paper's "chain of steps in an
/// algorithm ... compiled into a single module", demonstrated in situ.
/// Matches [`pagerank_dsl_loops`] whenever the product keeps a dense
/// pattern (every vertex has in-edges); the chained overwrite skips
/// Fig. 7's keep-old-entry corner for rank-less vertices, which the
/// per-iteration fix-up re-covers.
pub fn pagerank_dsl_chained(
    graph: &Matrix,
    opts: PageRankOptions,
) -> pygb::Result<(Vector, usize)> {
    let rows = graph.nrows();
    let mut start = Vector::new(rows, DType::Fp64);
    start.no_mask().slice(..).assign_scalar(1.0 / rows as f64)?;
    pagerank_chained_from(graph, start, opts)
}

/// The power iteration of [`pagerank_dsl_chained`], started from an
/// arbitrary `fp64` rank vector instead of the uniform one — the
/// warm-start entry point of [`crate::incremental::pagerank_incremental`].
/// The damped iteration is a contraction, so any start converges to the
/// same fixed point; the start only decides how many iterations that
/// takes. `start` becomes the iterate itself, so it costs no copy.
pub fn pagerank_chained_from(
    graph: &Matrix,
    start: Vector,
    opts: PageRankOptions,
) -> pygb::Result<(Vector, usize)> {
    let (rows, _cols) = graph.shape();
    let rows_f = rows as f64;
    let mut m = Matrix::new(rows, rows, DType::Fp64);
    m.no_mask().assign(graph)?;
    normalize_rows(&mut m)?;
    {
        let _u = UnaryOp::bound("Times", opts.damping_factor)?.enter();
        let snapshot = m.clone();
        m.no_mask().assign(pygb::apply(&snapshot))?;
    }

    let mut page_rank = start;
    let mut new_rank = Vector::new(rows, DType::Fp64);
    let mut delta = Vector::new(rows, DType::Fp64);
    let teleport = (1.0 - opts.damping_factor) / rows_f;

    for i in 0..opts.max_iters {
        // Fused: new_rank = (page_rank @ m) + teleport, one dispatch.
        // (Fig. 7's Second-accumulated += then pattern-preserving apply
        // collapses to a plain overwrite because the apply consumes the
        // whole product.)
        {
            let plus_monoid = Monoid::new("Plus", "Zero")?;
            let _sr = Semiring::new(plus_monoid, "Times")?.enter();
            let _u = UnaryOp::bound("Plus", teleport)?.enter();
            let expr = page_rank.vxm(&m).then_apply()?;
            new_rank.no_mask().assign(expr)?;
        }
        {
            let _b = BinaryOp::new("Minus")?.enter();
            delta.no_mask().assign(&page_rank + &new_rank)?;
        }
        {
            let snapshot = delta.clone();
            delta.no_mask().assign(&snapshot * &snapshot)?;
        }
        let squared_error = reduce(&delta)?.as_f64();
        page_rank.no_mask().slice(..).assign(&new_rank)?;
        if squared_error / rows_f < opts.threshold {
            return Ok((page_rank, i + 1));
        }
        new_rank.no_mask().slice(..).assign_scalar(teleport)?;
        {
            let _b = BinaryOp::new("Plus")?.enter();
            let snapshot = page_rank.clone();
            let expr = &snapshot + &new_rank;
            page_rank.masked_complement(&snapshot).assign(expr)?;
        }
    }
    Ok((page_rank, opts.max_iters))
}

/// PageRank as a single fused-kernel dispatch (runs the Fig. 8 GBTL
/// algorithm in one module call). Returns the rank (`fp64`) and the
/// iteration count.
pub fn pagerank_dsl_fused(graph: &Matrix, opts: PageRankOptions) -> pygb::Result<(Vector, usize)> {
    let mut args = PageRankArgs {
        graph: fused::settled(graph)?,
        opts,
        rank: None,
        iters: 0,
    };
    fused::dispatch("algo_pagerank", graph.dtype(), &mut args)?;
    Ok((args.rank.expect("kernel sets the rank"), args.iters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Matrix {
        Matrix::from_triples(n, n, (0..n).map(|i| (i, (i + 1) % n, 1.0f64))).unwrap()
    }

    #[test]
    fn chained_matches_loops_on_dense_product_graphs() {
        // Bidirectional cycle: every vertex has in-edges, so the
        // product stays dense and the fused chain is exactly Fig. 7.
        let n = 6;
        let edges = (0..n).flat_map(|i| [(i, (i + 1) % n, 1.0f64), ((i + 1) % n, i, 1.0)]);
        let g = Matrix::from_triples(n, n, edges).unwrap();
        let opts = PageRankOptions {
            threshold: 1e-14,
            max_iters: 5_000,
            ..Default::default()
        };
        let (a, _) = pagerank_dsl_loops(&g, opts).unwrap();
        let (b, _) = pagerank_dsl_chained(&g, opts).unwrap();
        for i in 0..n {
            let (x, y) = (a.get(i).unwrap().as_f64(), b.get(i).unwrap().as_f64());
            assert!((x - y).abs() < 1e-10, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn cycle_rank_is_uniform() {
        let n = 8;
        let (pr, iters) = pagerank_dsl_loops(&cycle(n), PageRankOptions::default()).unwrap();
        assert!(iters < 100);
        for i in 0..n {
            assert!(
                (pr.get(i).unwrap().as_f64() - 1.0 / n as f64).abs() < 1e-5,
                "vertex {i}"
            );
        }
    }

    #[test]
    fn dsl_matches_fused_on_dense_rank_graphs() {
        // On graphs where every vertex keeps a rank entry, the Fig. 7
        // and Fig. 8 formulations converge to the same fixed point.
        let g = cycle(6);
        let (a, _) = pagerank_dsl_loops(&g, PageRankOptions::default()).unwrap();
        let (b, _) = pagerank_dsl_fused(&g, PageRankOptions::default()).unwrap();
        for i in 0..6 {
            let (x, y) = (a.get(i).unwrap().as_f64(), b.get(i).unwrap().as_f64());
            assert!((x - y).abs() < 1e-4, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fused_matches_native_exactly() {
        let g = cycle(5);
        let (fused_pr, fused_iters) = pagerank_dsl_fused(&g, PageRankOptions::default()).unwrap();
        let ng: gbtl::Matrix<f64> = g.to_typed().unwrap();
        let (native_pr, native_iters) = pagerank_native(&ng, PageRankOptions::default()).unwrap();
        assert_eq!(fused_iters, native_iters);
        for (i, v) in native_pr.iter() {
            assert_eq!(fused_pr.get(i).unwrap().as_f64(), v);
        }
    }

    #[test]
    fn respects_max_iters() {
        let opts = PageRankOptions {
            max_iters: 3,
            threshold: 0.0,
            ..Default::default()
        };
        let (_, iters) = pagerank_dsl_loops(&cycle(4), opts).unwrap();
        assert_eq!(iters, 3);
    }

    #[test]
    fn hub_dominates() {
        // Bidirectional star: vertex 0 should out-rank the leaves.
        let mut edges = Vec::new();
        for i in 1..5usize {
            edges.push((i, 0, 1.0f64));
            edges.push((0, i, 1.0));
        }
        let g = Matrix::from_triples(5, 5, edges).unwrap();
        let (pr, _) = pagerank_dsl_loops(&g, PageRankOptions::default()).unwrap();
        let hub = pr.get(0).unwrap().as_f64();
        for i in 1..5 {
            assert!(hub > pr.get(i).unwrap().as_f64());
        }
    }
}
