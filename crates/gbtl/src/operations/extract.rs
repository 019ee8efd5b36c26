//! `extract`: pull a sub-container out — Table I's `C[M, z] = A[i, j]`
//! and `w[m, z] = u[i]`.
//!
//! Unlike `assign`, extract's index lists *may* contain duplicates
//! (selecting the same source row/column twice), so the inverse mapping
//! is one-to-many.

use crate::error::{GblasError, Result};
use crate::index::{IndexType, Indices};
use crate::mask::{check_matrix_mask, check_vector_mask, MatrixMask, VectorMask};
use crate::matrix::{CsrBuilder, Matrix};
use crate::ops::accum::Accum;
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::{MatrixArg, Replace};
use crate::write::{write_matrix, write_vector};

/// `w⟨m, z⟩ = w ⊙ u(ix)` — extract selected positions of `u`.
pub fn extract_vector<T, Mk, A>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    u: &Vector<T>,
    ix: &Indices,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    ix.validate(u.size())?;
    check_vector_mask(mask, w.size())?;
    let out_len = ix.len(u.size());
    if w.size() != out_len {
        return Err(GblasError::dim(format!(
            "extract: w has size {}, selection has {}",
            w.size(),
            out_len
        )));
    }
    let mut entries: Vec<(IndexType, T)> = Vec::new();
    for (k, src) in ix.iter(u.size()) {
        if let Some(v) = u.get(src) {
            entries.push((k, v));
        }
    }
    entries.sort_unstable_by_key(|&(k, _)| k);
    let (indices, values): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
    let t = Vector::from_sorted_entries(out_len, indices, values);
    write_vector(w, mask, &accum, t, replace);
    Ok(())
}

/// `C⟨M, z⟩ = C ⊙ A(rows, cols)` — extract a sub-matrix.
pub fn extract_matrix<'a, T, Mk, A>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    a: impl Into<MatrixArg<'a, T>>,
    rows: &Indices,
    cols: &Indices,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
{
    let a = a.into();
    rows.validate(a.nrows())?;
    cols.validate(a.ncols())?;
    check_matrix_mask(mask, c.nrows(), c.ncols())?;
    let (rn, cn) = (rows.len(a.nrows()), cols.len(a.ncols()));
    if c.shape() != (rn, cn) {
        return Err(GblasError::dim(format!(
            "extract: C is {:?}, selection is ({rn}, {cn})",
            c.shape()
        )));
    }
    let am = a.materialize();

    // Source column -> list of output positions (duplicates allowed).
    let mut col_map: Vec<Vec<IndexType>> = vec![Vec::new(); am.ncols()];
    for (k, src) in cols.iter(am.ncols()) {
        col_map[src].push(k);
    }

    let (mut row, mut t) = (Vec::new(), CsrBuilder::new(rn, 0));
    for (_, src_row) in rows.iter(am.nrows()) {
        let (a_cols, a_vals) = am.row(src_row);
        row.clear();
        for (&j, &v) in a_cols.iter().zip(a_vals) {
            row.extend(col_map[j].iter().map(|&out_j| (out_j, v)));
        }
        row.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &row {
            t.push(j, v);
        }
        t.end_row();
    }
    write_matrix(c, mask, &accum, t.finish(cn), replace);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::NoAccumulate;
    use crate::views::{transpose, MERGE};

    #[test]
    fn extract_vector_slice() {
        let u = Vector::from_pairs(6, [(1usize, 10i32), (3, 30), (5, 50)]).unwrap();
        let mut w = Vector::<i32>::new(3);
        extract_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::Range(1, 4),
            MERGE,
        )
        .unwrap();
        // positions 1..4 → output 0..3
        assert_eq!(w.get(0), Some(10));
        assert_eq!(w.get(1), None);
        assert_eq!(w.get(2), Some(30));
    }

    #[test]
    fn extract_vector_with_duplicates_and_permutation() {
        let u = Vector::from_pairs(4, [(0usize, 5i32), (2, 7)]).unwrap();
        let mut w = Vector::<i32>::new(4);
        extract_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::List(vec![2, 0, 2, 1]),
            MERGE,
        )
        .unwrap();
        assert_eq!(w.get(0), Some(7));
        assert_eq!(w.get(1), Some(5));
        assert_eq!(w.get(2), Some(7));
        assert_eq!(w.get(3), None);
    }

    #[test]
    fn extract_submatrix() {
        let a = Matrix::from_dense(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]).unwrap();
        let mut c = Matrix::<i32>::new(2, 2);
        extract_matrix(
            &mut c,
            &NoMask,
            NoAccumulate,
            &a,
            &Indices::Range(1, 3),
            &Indices::Range(0, 2),
            MERGE,
        )
        .unwrap();
        assert_eq!(c.to_dense(0), vec![vec![4, 5], vec![7, 8]]);
    }

    #[test]
    fn extract_transposed() {
        let a = Matrix::from_triples(2, 3, [(0usize, 2usize, 9i32)]).unwrap();
        let mut c = Matrix::<i32>::new(3, 2);
        extract_matrix(
            &mut c,
            &NoMask,
            NoAccumulate,
            transpose(&a),
            &Indices::All,
            &Indices::All,
            MERGE,
        )
        .unwrap();
        assert_eq!(c.get(2, 0), Some(9));
    }

    #[test]
    fn extract_duplicate_columns() {
        let a = Matrix::from_triples(1, 2, [(0usize, 1usize, 4i32)]).unwrap();
        let mut c = Matrix::<i32>::new(1, 3);
        extract_matrix(
            &mut c,
            &NoMask,
            NoAccumulate,
            &a,
            &Indices::All,
            &Indices::List(vec![1, 1, 0]),
            MERGE,
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(4));
        assert_eq!(c.get(0, 1), Some(4));
        assert_eq!(c.get(0, 2), None);
    }

    #[test]
    fn wrong_output_shape() {
        let u = Vector::<i32>::new(5);
        let mut w = Vector::<i32>::new(5);
        assert!(extract_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::Range(0, 3),
            MERGE
        )
        .is_err());
    }

    #[test]
    fn out_of_bounds_selection() {
        let u = Vector::<i32>::new(3);
        let mut w = Vector::<i32>::new(1);
        assert!(extract_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::List(vec![3]),
            MERGE
        )
        .is_err());
    }
}
