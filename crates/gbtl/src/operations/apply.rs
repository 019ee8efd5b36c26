//! `apply`: map a unary operator over every stored element —
//! `C⟨M, z⟩ = C ⊙ f(A)` (Table I).
//!
//! With the `Bind1st`/`Bind2nd` adapters this covers the paper's
//! PageRank scaling steps (`apply(m)` under `UnaryOp("Times", d)`).

use crate::error::{GblasError, Result};
use crate::mask::{check_matrix_mask, check_vector_mask, MatrixMask, VectorMask};
use crate::matrix::Matrix;
use crate::ops::accum::Accum;
use crate::ops::UnaryOp;
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::{MatrixArg, Replace};
use crate::write::{write_matrix, write_vector};

/// `w⟨m, z⟩ = w ⊙ f(u)` — apply on vectors.
pub fn apply_vector<T, Mk, A, F>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    f: F,
    u: &Vector<T>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    F: UnaryOp<T>,
{
    if w.size() != u.size() {
        return Err(GblasError::dim(format!(
            "apply: w={}, u={}",
            w.size(),
            u.size()
        )));
    }
    check_vector_mask(mask, w.size())?;
    let timer = crate::hooks::KernelTimer::start();
    let indices = u.extract_indices();
    let values = u.values().iter().map(|&v| f.apply(v)).collect();
    let t = Vector::from_sorted_entries(u.size(), indices, values);
    write_vector(w, mask, &accum, t, replace);
    timer.finish("apply/vector");
    Ok(())
}

/// `C⟨M, z⟩ = C ⊙ f(A)` — apply on matrices.
pub fn apply_matrix<'a, T, Mk, A, F>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    f: F,
    a: impl Into<MatrixArg<'a, T>>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    F: UnaryOp<T>,
{
    let a = a.into();
    if c.shape() != (a.nrows(), a.ncols()) {
        return Err(GblasError::dim(format!(
            "apply: C is {:?}, A is ({}, {})",
            c.shape(),
            a.nrows(),
            a.ncols()
        )));
    }
    check_matrix_mask(mask, c.nrows(), c.ncols())?;
    let timer = crate::hooks::KernelTimer::start();
    // `f(A)` keeps `A`'s pattern: only the values are computed.
    let t = a.materialize().map_values(|v| f.apply(v));
    write_matrix(c, mask, &accum, t, replace);
    timer.finish("apply/matrix");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::NoAccumulate;
    use crate::ops::binary::{Plus, Times};
    use crate::ops::unary::{AdditiveInverse, Bind2nd, LogicalNot};
    use crate::views::{transpose, MERGE};

    #[test]
    fn negate_vector() {
        let u = Vector::from_pairs(3, [(0usize, 1i32), (2, -4)]).unwrap();
        let mut w = Vector::<i32>::new(3);
        apply_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            AdditiveInverse::new(),
            &u,
            MERGE,
        )
        .unwrap();
        assert_eq!(w.get(0), Some(-1));
        assert_eq!(w.get(2), Some(4));
    }

    #[test]
    fn pagerank_damping_scale() {
        // Fig. 8: apply(m, ..., Bind2nd(Times, damping), m)
        let m = Matrix::from_triples(2, 2, [(0usize, 1usize, 1.0f64), (1, 0, 0.5)]).unwrap();
        let mut out = Matrix::<f64>::new(2, 2);
        apply_matrix(
            &mut out,
            &NoMask,
            NoAccumulate,
            Bind2nd::new(Times::new(), 0.85),
            &m,
            MERGE,
        )
        .unwrap();
        assert_eq!(out.get(0, 1), Some(0.85));
        assert_eq!(out.get(1, 0), Some(0.425));
    }

    #[test]
    fn teleport_add_constant() {
        // Fig. 8: apply(new_rank, ..., Bind2nd(Plus, (1-d)/n), new_rank)
        let u = Vector::from_pairs(4, [(0usize, 0.1f64), (3, 0.2)]).unwrap();
        let mut w = Vector::<f64>::new(4);
        apply_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            Bind2nd::new(Plus::new(), 0.0375),
            &u,
            MERGE,
        )
        .unwrap();
        assert!((w.get(0).unwrap() - 0.1375).abs() < 1e-12);
        // Only *stored* entries are touched — apply is pattern-preserving.
        assert_eq!(w.nvals(), 2);
    }

    #[test]
    fn logical_not_only_flips_stored() {
        let u = Vector::from_pairs(3, [(1usize, 0i32)]).unwrap();
        let mut w = Vector::<i32>::new(3);
        apply_vector(&mut w, &NoMask, NoAccumulate, LogicalNot::new(), &u, MERGE).unwrap();
        assert_eq!(w.get(1), Some(1));
        assert_eq!(w.nvals(), 1); // unstored positions stay unstored
    }

    #[test]
    fn apply_transposed_matrix() {
        let m = Matrix::from_triples(2, 3, [(0usize, 2usize, 3i32)]).unwrap();
        let mut out = Matrix::<i32>::new(3, 2);
        apply_matrix(
            &mut out,
            &NoMask,
            NoAccumulate,
            AdditiveInverse::new(),
            transpose(&m),
            MERGE,
        )
        .unwrap();
        assert_eq!(out.get(2, 0), Some(-3));
    }

    #[test]
    fn shape_mismatch() {
        let u = Vector::<i32>::new(3);
        let mut w = Vector::<i32>::new(4);
        assert!(apply_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            AdditiveInverse::new(),
            &u,
            MERGE
        )
        .is_err());
    }
}
