//! The four benchmark algorithms under GraphBLAS *nonblocking* mode —
//! the fourth Fig. 10 series.
//!
//! Each `*_nonblocking` function is the `*_dsl_loops` transcription run
//! inside a [`pygb_runtime::nonblocking`] scope: assignments defer into
//! the per-thread operation DAG, the fusion pass collapses
//! producer/consumer pairs into composite kernels, and reads (loop
//! conditions, convergence reductions, final results) flush. Results
//! are identical to the corresponding blocking variant on the same
//! formulation — nonblocking changes *when* and *how many* kernels run,
//! never *what* they compute.

use pygb::{
    apply, reduce, Accumulator, ArithmeticSemiring, BinaryOp, DType, DynScalar, LogicalSemiring,
    Matrix, MinPlusSemiring, Monoid, Replace, Semiring, UnaryOp, Vector,
};

use crate::pagerank::PageRankOptions;
use crate::util::normalize_rows;

/// BFS with deferred per-level operations. The frontier update goes
/// through a materialize-then-assign temporary, which the fusion pass
/// collapses back into a single masked SpMV (fusion rule 3) — the
/// blocking transcription of the same code would dispatch twice per
/// level.
pub fn bfs_nonblocking(graph: &Matrix, source: usize) -> pygb::Result<Vector> {
    let n = graph.nrows();
    let mut frontier = Vector::new(n, DType::Bool);
    frontier.set(source, true)?;
    let mut levels = Vector::new(n, DType::UInt64);
    let mut depth = 0u64;
    // `frontier.nvals()` is a read: it flushes the level's deferred ops.
    while frontier.nvals() > 0 {
        depth += 1;
        let _nb = pygb_runtime::nonblocking()?;
        levels.masked(&frontier).assign_scalar(depth)?;
        let _sr = LogicalSemiring.enter();
        let _rp = Replace.enter();
        let t = Vector::from_expr(graph.t().mxv(&frontier))?;
        frontier.masked_complement(&levels).assign(&t)?;
    }
    Ok(levels)
}

/// SSSP with every relaxation deferred: the whole `n`-step chain
/// enqueues before a single flush executes it, so the host-language
/// loop runs without ever blocking on a kernel.
pub fn sssp_nonblocking(graph: &Matrix, path: &mut Vector) -> pygb::Result<()> {
    let _nb = pygb_runtime::nonblocking()?;
    let _sr = MinPlusSemiring.enter();
    let _acc = Accumulator::new("Min")?.enter();
    for _ in 0..graph.nrows() {
        let snapshot = path.clone();
        let expr = graph.t().mxv(&snapshot);
        path.no_mask().accum_assign(expr)?;
    }
    // Surface any shape/operator error here as a `Result` rather than
    // from the scope guard's drop.
    pygb_runtime::flush()
}

/// PageRank with the iteration body deferred. Two fusions fire per
/// iteration: the rank propagation `vxm` and the teleport `apply`
/// collapse into one kernel (rule 2), and the squared-error
/// `delta * delta` folds into the convergence reduction (rule 4) — so
/// each iteration issues strictly fewer dispatches than
/// [`crate::pagerank_dsl_loops`]. Uses the overwrite formulation of
/// [`crate::pagerank_dsl_chained`], which matches Fig. 7 whenever the
/// product keeps a dense pattern.
pub fn pagerank_nonblocking(
    graph: &Matrix,
    opts: PageRankOptions,
) -> pygb::Result<(Vector, usize)> {
    let rows = graph.nrows();
    let mut start = Vector::new(rows, DType::Fp64);
    start.no_mask().slice(..).assign_scalar(1.0 / rows as f64)?;
    pagerank_nonblocking_from(graph, &start, opts)
}

/// The deferred power iteration of [`pagerank_nonblocking`], started
/// from an arbitrary `fp64` rank vector instead of the uniform one —
/// the warm-start entry point of
/// [`crate::incremental::pagerank_incremental`]. The damped iteration
/// is a contraction, so any start converges to the same fixed point;
/// the start only decides how many iterations that takes.
pub fn pagerank_nonblocking_from(
    graph: &Matrix,
    start: &Vector,
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
        m.no_mask().assign(apply(&snapshot))?;
    }

    let mut page_rank = Vector::new(rows, DType::Fp64);
    page_rank.no_mask().assign(start)?;
    let mut new_rank = Vector::new(rows, DType::Fp64);
    let mut delta = Vector::new(rows, DType::Fp64);
    let teleport = (1.0 - opts.damping_factor) / rows_f;

    let _nb = pygb_runtime::nonblocking()?;
    for i in 0..opts.max_iters {
        // new_rank = (page_rank @ m) + teleport — the deferred product
        // and the apply fuse into one `vxm_apply` dispatch. `t` must
        // drop before the flush so its placeholder is unobservable.
        {
            let plus_monoid = Monoid::new("Plus", "Zero")?;
            let _sr = Semiring::new(plus_monoid, "Times")?.enter();
            let t = Vector::from_expr(page_rank.vxm(&m))?;
            let _u = UnaryOp::bound("Plus", teleport)?.enter();
            new_rank.no_mask().assign(apply(&t))?;
        }
        {
            let _b = BinaryOp::new("Minus")?.enter();
            delta.no_mask().assign(&page_rank + &new_rank)?;
        }
        {
            let snapshot = delta.clone();
            delta.no_mask().assign(&snapshot * &snapshot)?;
        }
        // The reduction flushes; `delta * delta` folds into it.
        let squared_error = reduce(&delta)?.as_f64();

        page_rank.no_mask().slice(..).assign(&new_rank)?;
        if squared_error / rows_f < opts.threshold {
            pygb_runtime::flush()?;
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
    pygb_runtime::flush()?;
    Ok((page_rank, opts.max_iters))
}

/// Triangle counting with the masked product deferred; the final
/// reduction is the flush point.
pub fn tricount_nonblocking(l: &Matrix) -> pygb::Result<DynScalar> {
    let (r, c) = l.shape();
    let mut b = Matrix::new(r, c, l.dtype());
    let _nb = pygb_runtime::nonblocking()?;
    {
        let _sr = ArithmeticSemiring.enter();
        let expr = l.matmul(l.t());
        b.masked(l).assign(expr)?;
    }
    reduce(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs_dsl_loops, pagerank_dsl_loops, sssp_dsl_loops, tricount_dsl_loops};

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

    #[test]
    fn bfs_matches_blocking() {
        let g = fig1_graph();
        let blocking = bfs_dsl_loops(&g, 3).unwrap();
        let nb = bfs_nonblocking(&g, 3).unwrap();
        assert_eq!(blocking.extract_pairs(), nb.extract_pairs());
    }

    #[test]
    fn sssp_matches_blocking() {
        let g = Matrix::from_triples(
            4,
            4,
            [
                (0usize, 1usize, 2.0f64),
                (1, 2, 3.0),
                (0, 2, 10.0),
                (2, 3, 1.0),
            ],
        )
        .unwrap();
        let mut blocking = Vector::new(4, DType::Fp64);
        blocking.set(0, 0.0f64).unwrap();
        let mut nb = blocking.clone();
        sssp_dsl_loops(&g, &mut blocking).unwrap();
        sssp_nonblocking(&g, &mut nb).unwrap();
        assert_eq!(blocking.extract_pairs(), nb.extract_pairs());
    }

    #[test]
    fn pagerank_matches_blocking_on_dense_product_graphs() {
        let n = 6;
        let edges = (0..n).flat_map(|i| [(i, (i + 1) % n, 1.0f64), ((i + 1) % n, i, 1.0)]);
        let g = Matrix::from_triples(n, n, edges).unwrap();
        let opts = PageRankOptions {
            threshold: 1e-14,
            max_iters: 5_000,
            ..Default::default()
        };
        let (a, _) = pagerank_dsl_loops(&g, opts).unwrap();
        let (b, _) = pagerank_nonblocking(&g, opts).unwrap();
        for i in 0..n {
            let (x, y) = (a.get(i).unwrap().as_f64(), b.get(i).unwrap().as_f64());
            assert!((x - y).abs() < 1e-10, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn tricount_matches_blocking() {
        let mut triples = Vec::new();
        for i in 0..4usize {
            for j in 0..i {
                triples.push((i, j, 1.0f64));
            }
        }
        let l = Matrix::from_triples(4, 4, triples).unwrap();
        assert_eq!(tricount_dsl_loops(&l).unwrap().as_f64(), 4.0);
        assert_eq!(tricount_nonblocking(&l).unwrap().as_f64(), 4.0);
    }
}
