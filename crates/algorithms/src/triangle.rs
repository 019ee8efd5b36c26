//! Triangle counting in the three Fig. 10 variants.
//!
//! The DSL form is Fig. 5a verbatim:
//!
//! ```python
//! def triangle_count(L):
//!     B = gb.Matrix(shape=L.shape, dtype=L.dtype)
//!     with gb.ArithmeticSemiring:
//!         B[L] = L @ L.T
//!     triangles = gb.reduce(B)
//!     return triangles
//! ```

use pygb::{reduce, ArithmeticSemiring, DynScalar, Matrix};

use crate::fused::{self, TriArgs};

/// Native baseline (Fig. 5b).
pub use gbtl::algorithms::triangle_count as tricount_native;
/// Strictly-lower-triangular extraction helper (shared with callers).
pub use gbtl::algorithms::tril;

/// Triangle counting through per-op DSL dispatch. `l` must be the
/// strictly-lower-triangular half of the undirected adjacency matrix.
pub fn tricount_dsl_loops(l: &Matrix) -> pygb::Result<DynScalar> {
    // B = gb.Matrix(shape=L.shape, dtype=L.dtype)
    let (r, c) = l.shape();
    let mut b = Matrix::new(r, c, l.dtype());
    {
        // with gb.ArithmeticSemiring: B[L] = L @ L.T
        let _sr = ArithmeticSemiring.enter();
        let expr = l.matmul(l.t());
        b.masked(l).assign(expr)?;
    }
    // triangles = gb.reduce(B)   (PlusMonoid by default)
    reduce(&b)
}

/// Triangle counting as a single fused-kernel dispatch.
pub fn tricount_dsl_fused(l: &Matrix) -> pygb::Result<DynScalar> {
    let mut args = TriArgs {
        l: fused::settled(l)?,
        count: None,
    };
    fused::dispatch("algo_tricount", l.dtype(), &mut args)?;
    Ok(args.count.expect("kernel sets the count"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygb::DType;

    /// Lower-triangular K4 (4 triangles) as a PyGB matrix.
    fn l_k4(dtype: DType) -> Matrix {
        let mut triples = Vec::new();
        for i in 0..4usize {
            for j in 0..i {
                triples.push((i, j, 1.0f64));
            }
        }
        Matrix::from_triples(4, 4, triples).unwrap().cast(dtype)
    }

    #[test]
    fn k4_counts_four() {
        let l = l_k4(DType::Int64);
        assert_eq!(tricount_dsl_loops(&l).unwrap().as_i64(), 4);
        assert_eq!(tricount_dsl_fused(&l).unwrap().as_i64(), 4);
    }

    #[test]
    fn all_three_variants_agree() {
        let l = l_k4(DType::Fp64);
        let loops = tricount_dsl_loops(&l).unwrap().as_f64();
        let fusion = tricount_dsl_fused(&l).unwrap().as_f64();
        let native: f64 = tricount_native(&l.to_typed::<f64>().unwrap()).unwrap();
        assert_eq!(loops, fusion);
        assert_eq!(loops, native);
    }

    #[test]
    fn triangle_free() {
        // A 4-cycle: no triangles.
        let edges = [(1usize, 0usize), (2, 1), (3, 2), (3, 0)];
        let l = Matrix::from_triples(4, 4, edges.iter().map(|&(i, j)| (i, j, 1i64))).unwrap();
        assert_eq!(tricount_dsl_loops(&l).unwrap().as_i64(), 0);
        assert_eq!(tricount_dsl_fused(&l).unwrap().as_i64(), 0);
    }

    #[test]
    fn dtype_of_count_matches_container() {
        let l = l_k4(DType::Int32);
        let c = tricount_dsl_loops(&l).unwrap();
        assert_eq!(c.dtype(), DType::Int32);
    }
}
