//! BFS in the three Fig. 10 variants.
//!
//! The DSL form is Fig. 2b verbatim:
//!
//! ```python
//! def bfs(graph, frontier, levels):
//!     depth = 0
//!     while frontier.nvals > 0:
//!         depth += 1
//!         levels[front][:] = depth
//!         with gb.LogicalSemiring, gb.Replace:
//!             frontier[~levels] = graph.T @ frontier
//! ```
//!
//! A stored zero-valued edge is no edge, in every variant: the logical
//! semiring gives it a stored `false` product, which levels no vertex,
//! and native BFS drops it from its pattern.

use pygb::{DType, LogicalSemiring, Matrix, Replace, Vector};

use crate::fused::{self, BfsArgs};

/// Native baseline (Fig. 2c): direct statically-typed GBTL calls.
pub use gbtl::algorithms::bfs_level as bfs_native;

/// BFS with the outer loop in the host language and one dynamic
/// dispatch per GraphBLAS operation. Returns the levels vector
/// (`uint64`, source at level 1).
pub fn bfs_dsl_loops(graph: &Matrix, source: usize) -> pygb::Result<Vector> {
    let n = graph.nrows();
    let mut frontier = Vector::new(n, DType::Bool);
    frontier.set(source, true)?;
    let mut levels = Vector::new(n, DType::UInt64);
    let mut depth = 0u64;
    let mut leveled = 0;
    while frontier.nvals() > 0 {
        // Reading the frontier settled `levels` too, so this costs no
        // dispatch. A ply that levels nothing held only the `false`
        // products of zero-valued edges, and so does every later one.
        if depth > 0 {
            let now = levels.nvals();
            if now == leveled {
                break;
            }
            leveled = now;
        }
        depth += 1;
        // levels[front][:] = depth
        levels.masked(&frontier).assign_scalar(depth)?;
        // with gb.LogicalSemiring, gb.Replace:
        //     frontier[~levels] = graph.T @ frontier
        let _sr = LogicalSemiring.enter();
        let _rp = Replace.enter();
        let expr = graph.t().mxv(&frontier);
        frontier.masked_complement(&levels).assign(expr)?;
    }
    Ok(levels)
}

/// BFS as a single fused-kernel dispatch.
pub fn bfs_dsl_fused(graph: &Matrix, source: usize) -> pygb::Result<Vector> {
    let mut args = BfsArgs {
        graph: fused::settled(graph)?,
        source,
        levels: None,
    };
    fused::dispatch("algo_bfs", graph.dtype(), &mut args)?;
    Ok(args.levels.expect("kernel sets levels on success"))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn levels_as_u64(v: &Vector) -> Vec<(usize, u64)> {
        v.extract_pairs()
            .into_iter()
            .map(|(i, x)| (i, x.as_i64() as u64))
            .collect()
    }

    #[test]
    fn dsl_loops_matches_fig1() {
        let levels = bfs_dsl_loops(&fig1_graph(), 3).unwrap();
        assert_eq!(levels.get(3).unwrap().as_i64(), 1);
        assert_eq!(levels.get(0).unwrap().as_i64(), 2);
        assert_eq!(levels.get(2).unwrap().as_i64(), 2);
        assert_eq!(levels.get(6).unwrap().as_i64(), 4);
    }

    #[test]
    fn all_three_variants_agree() {
        let g = fig1_graph();
        let loops = bfs_dsl_loops(&g, 3).unwrap();
        let fusion = bfs_dsl_fused(&g, 3).unwrap();
        assert_eq!(levels_as_u64(&loops), levels_as_u64(&fusion));

        let native_g: gbtl::Matrix<f64> = g.to_typed().unwrap();
        let native = bfs_native(&native_g, 3).unwrap();
        let native_pairs: Vec<(usize, u64)> = native.iter().collect();
        assert_eq!(levels_as_u64(&loops), native_pairs);
    }

    #[test]
    fn disconnected_vertices_unreached() {
        let g = Matrix::from_triples(4, 4, [(0usize, 1usize, 1.0f64)]).unwrap();
        let levels = bfs_dsl_loops(&g, 0).unwrap();
        assert_eq!(levels.nvals(), 2);
        let fusion = bfs_dsl_fused(&g, 0).unwrap();
        assert_eq!(fusion.nvals(), 2);
    }

    #[test]
    fn works_on_integer_graphs() {
        let g = fig1_graph().cast(DType::Int32);
        let loops = bfs_dsl_loops(&g, 3).unwrap();
        let fusion = bfs_dsl_fused(&g, 3).unwrap();
        assert_eq!(levels_as_u64(&loops), levels_as_u64(&fusion));
    }
}
