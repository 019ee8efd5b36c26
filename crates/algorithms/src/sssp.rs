//! SSSP in the three Fig. 10 variants.
//!
//! The DSL form is Fig. 4a verbatim:
//!
//! ```python
//! def sssp(graph, path):
//!     with gb.MinPlusSemiring, gb.Accumulator("Min"):
//!         for i in range(graph.shape[0]):
//!             path[None] += graph.T @ path
//! ```

use pygb::{Accumulator, Matrix, MinPlusSemiring, Vector};

use crate::fused::{self, SsspArgs};

/// Native baseline (Fig. 4b).
pub use gbtl::algorithms::sssp as sssp_native;

/// SSSP with the relaxation loop in the host language; `path` holds the
/// tentative distances (`path[source] = 0`) and is updated in place.
pub fn sssp_dsl_loops(graph: &Matrix, path: &mut Vector) -> pygb::Result<()> {
    // with gb.MinPlusSemiring, gb.Accumulator("Min"):
    let _sr = MinPlusSemiring.enter();
    let _acc = Accumulator::new("Min")?.enter();
    for _ in 0..graph.nrows() {
        // path[None] += graph.T @ path
        let snapshot = path.clone();
        let expr = graph.t().mxv(&snapshot);
        path.no_mask().accum_assign(expr)?;
    }
    Ok(())
}

/// SSSP as a single fused-kernel dispatch. The path vector must share
/// the graph's dtype (the fused GBTL algorithm is a single template
/// instantiation).
pub fn sssp_dsl_fused(graph: &Matrix, path: &mut Vector) -> pygb::Result<()> {
    let typed_path = if path.dtype() == graph.dtype() {
        path.clone()
    } else {
        path.cast(graph.dtype())
    };
    let mut args = SsspArgs {
        graph: fused::settled(graph)?,
        path: Some(typed_path),
    };
    fused::dispatch("algo_sssp", graph.dtype(), &mut args)?;
    *path = args.path.expect("kernel returns the path");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygb::DType;

    fn weighted_graph() -> Matrix {
        Matrix::from_triples(
            4,
            4,
            [
                (0usize, 1usize, 2.0f64),
                (1, 2, 3.0),
                (0, 2, 10.0),
                (2, 3, 1.0),
            ],
        )
        .unwrap()
    }

    fn source_path(n: usize, src: usize) -> Vector {
        let mut p = Vector::new(n, DType::Fp64);
        p.set(src, 0.0f64).unwrap();
        p
    }

    #[test]
    fn dsl_loops_shortest_paths() {
        let g = weighted_graph();
        let mut path = source_path(4, 0);
        sssp_dsl_loops(&g, &mut path).unwrap();
        assert_eq!(path.get(1).unwrap().as_f64(), 2.0);
        assert_eq!(path.get(2).unwrap().as_f64(), 5.0);
        assert_eq!(path.get(3).unwrap().as_f64(), 6.0);
    }

    #[test]
    fn all_three_variants_agree() {
        let g = weighted_graph();

        let mut loops = source_path(4, 0);
        sssp_dsl_loops(&g, &mut loops).unwrap();

        let mut fusion = source_path(4, 0);
        sssp_dsl_fused(&g, &mut fusion).unwrap();
        assert_eq!(loops.extract_pairs(), fusion.extract_pairs());

        let ng: gbtl::Matrix<f64> = g.to_typed().unwrap();
        let mut native = gbtl::Vector::<f64>::new(4);
        native.set(0, 0.0).unwrap();
        sssp_native(&ng, &mut native).unwrap();
        for (i, v) in native.iter() {
            assert_eq!(loops.get(i).unwrap().as_f64(), v);
        }
        assert_eq!(loops.nvals(), native.nvals());
    }

    #[test]
    fn unreachable_vertices_stay_unstored() {
        let g = weighted_graph();
        let mut path = source_path(4, 3);
        sssp_dsl_loops(&g, &mut path).unwrap();
        assert_eq!(path.nvals(), 1);
    }
}
