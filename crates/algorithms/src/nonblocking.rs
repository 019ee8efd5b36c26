//! The four benchmark algorithms under GraphBLAS *nonblocking* mode —
//! the fourth Fig. 10 series.
//!
//! Blocking versus nonblocking is a property of the context, not of the
//! source: each `*_nonblocking` function is its blocking transcription
//! run inside [`deferred`]. Assignments defer into the per-thread
//! operation DAG, the optimizer and fusion passes rewrite it, and reads
//! (loop conditions, convergence reductions, final results) flush.
//! Results are identical to the blocking run of the same source —
//! nonblocking changes *when* and *how many* kernels run, never *what*
//! they compute.

use pygb::{DynScalar, Matrix, Vector};

use crate::pagerank::{pagerank_dsl_chained, PageRankOptions};
use crate::{bfs_dsl_loops, sssp_dsl_loops, tricount_dsl_loops};

/// Run `program` in nonblocking mode: enter a
/// [`pygb_runtime::nonblocking`] scope, run it, and flush before the
/// scope ends, so a deferred failure comes back as `Err` instead of
/// panicking in the scope guard's drop.
pub fn deferred<R>(program: impl FnOnce() -> pygb::Result<R>) -> pygb::Result<R> {
    let _nb = pygb_runtime::nonblocking()?;
    let out = program();
    let flushed = pygb_runtime::flush();
    let out = out?;
    flushed.map(|()| out)
}

/// [`bfs_dsl_loops`] (Fig. 2b), deferred: each level's masked SpMV and
/// level assignment run at the `frontier.nvals()` read that ends it.
pub fn bfs_nonblocking(graph: &Matrix, source: usize) -> pygb::Result<Vector> {
    deferred(|| bfs_dsl_loops(graph, source))
}

/// [`sssp_dsl_loops`] (Fig. 4a), deferred: the whole `n`-step
/// relaxation chain enqueues before one flush executes it, so the host
/// loop never blocks on a kernel.
pub fn sssp_nonblocking(graph: &Matrix, path: &mut Vector) -> pygb::Result<()> {
    deferred(|| sssp_dsl_loops(graph, path))
}

/// [`pagerank_dsl_chained`], deferred: each iteration's squared-error
/// `delta * delta` folds into the convergence reduction (fusion
/// rule 4). The chained overwrite formulation, not Fig. 7's
/// accumulate-`Second` one, is the source because the two differ on
/// vertices outside the product's pattern.
pub fn pagerank_nonblocking(
    graph: &Matrix,
    opts: PageRankOptions,
) -> pygb::Result<(Vector, usize)> {
    deferred(|| pagerank_dsl_chained(graph, opts))
}

/// [`tricount_dsl_loops`] (Fig. 5a), deferred: the masked product runs
/// at the final reduction.
pub fn tricount_nonblocking(l: &Matrix) -> pygb::Result<DynScalar> {
    deferred(|| tricount_dsl_loops(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank_dsl_loops;
    use pygb::DType;

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

    #[test]
    fn program_error_comes_back_after_its_deferred_work_ran() {
        let g = fig1_graph();
        let mut blocking = Vector::new(7, DType::Fp64);
        blocking.set(3, 0.0f64).unwrap();
        let mut nb = blocking.clone();
        sssp_dsl_loops(&g, &mut blocking).unwrap();
        let err = deferred(|| {
            sssp_dsl_loops(&g, &mut nb)?;
            Err::<(), _>(pygb::PygbError::Unsupported {
                context: "stop after the relaxations".to_string(),
            })
        })
        .unwrap_err();
        assert!(err.to_string().contains("stop after the relaxations"));
        assert_eq!(blocking.extract_pairs(), nb.extract_pairs());
    }
}
