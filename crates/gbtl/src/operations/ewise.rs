//! Element-wise operations: `eWiseAdd` (pattern **union**) and
//! `eWiseMult` (pattern **intersection**) for vectors and matrices —
//! PyGB's `A + B` and `A * B` (Table I).
//!
//! Naming follows the GraphBLAS spec: "add" and "mult" describe the
//! *pattern* of the result, not the operator — either can run any
//! binary op.

use crate::error::{GblasError, Result};
use crate::mask::{check_matrix_mask, check_vector_mask, MatrixMask, VectorMask};
use crate::matrix::{CsrBuilder, Matrix};
use crate::ops::accum::Accum;
use crate::ops::BinaryOp;
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::{MatrixArg, Replace};
use crate::write::{union_merge_row, write_matrix, write_vector, Run};

/// `w⟨m, z⟩ = w ⊙ (u ⊕ v)` — union element-wise op on vectors.
pub fn e_wise_add_vector<T, Mk, A, Op>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    check_vector_dims(w, u, v, "eWiseAdd")?;
    check_vector_mask(mask, w.size())?;
    let timer = crate::hooks::KernelTimer::start();
    let t = union_vectors(op, u, v);
    write_vector(w, mask, &accum, t, replace);
    timer.finish("ewise_add/vector");
    Ok(())
}

/// `w⟨m, z⟩ = w ⊙ (u ⊗ v)` — intersection element-wise op on vectors.
pub fn e_wise_mult_vector<T, Mk, A, Op>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    check_vector_dims(w, u, v, "eWiseMult")?;
    check_vector_mask(mask, w.size())?;
    let timer = crate::hooks::KernelTimer::start();
    let t = intersect_vectors(op, u, v);
    write_vector(w, mask, &accum, t, replace);
    timer.finish("ewise_mult/vector");
    Ok(())
}

fn check_vector_dims<T: Scalar>(
    w: &Vector<T>,
    u: &Vector<T>,
    v: &Vector<T>,
    what: &str,
) -> Result<()> {
    if u.size() != v.size() || w.size() != u.size() {
        return Err(GblasError::dim(format!(
            "{what}: w={}, u={}, v={}",
            w.size(),
            u.size(),
            v.size()
        )));
    }
    Ok(())
}

fn union_vectors<T: Scalar, Op: BinaryOp<T>>(op: Op, u: &Vector<T>, v: &Vector<T>) -> Vector<T> {
    let mut out = CsrBuilder::vector(u.nvals() + v.nvals());
    let both = |x, y| op.apply(x, y);
    union_merge_row(
        (u.indices(), u.values()),
        (v.indices(), v.values()),
        both,
        &mut out,
    );
    out.into_vector(u.size())
}

fn intersect_vectors<T: Scalar, Op: BinaryOp<T>>(
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
) -> Vector<T> {
    let mut out = CsrBuilder::vector(0);
    intersect_rows(
        op,
        (u.indices(), u.values()),
        (v.indices(), v.values()),
        &mut out,
    );
    out.into_vector(u.size())
}

/// `C⟨M, z⟩ = C ⊙ (A ⊕ B)` — union element-wise op on matrices.
pub fn e_wise_add_matrix<'a, 'b, T, Mk, A, Op>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    op: Op,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    ewise_matrix(c, mask, accum, op, a.into(), b.into(), replace, true)
}

/// `C⟨M, z⟩ = C ⊙ (A ⊗ B)` — intersection element-wise op on matrices.
pub fn e_wise_mult_matrix<'a, 'b, T, Mk, A, Op>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    op: Op,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    ewise_matrix(c, mask, accum, op, a.into(), b.into(), replace, false)
}

#[allow(clippy::too_many_arguments)]
fn ewise_matrix<T, Mk, A, Op>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    op: Op,
    a: MatrixArg<'_, T>,
    b: MatrixArg<'_, T>,
    replace: Replace,
    union: bool,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(GblasError::dim(format!(
            "eWise: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    if c.shape() != (a.nrows(), a.ncols()) {
        return Err(GblasError::dim(format!(
            "eWise: C is {:?}, expected ({}, {})",
            c.shape(),
            a.nrows(),
            a.ncols()
        )));
    }
    check_matrix_mask(mask, c.nrows(), c.ncols())?;
    let timer = crate::hooks::KernelTimer::start();

    let am = a.materialize();
    let bm = b.materialize();
    let t = Matrix::from_row_fn(
        am.nrows(),
        am.ncols(),
        || (),
        |_, i, out| {
            if union {
                union_merge_row(am.row(i), bm.row(i), |x, y| op.apply(x, y), out);
            } else {
                intersect_rows(op, am.row(i), bm.row(i), out);
            }
        },
    );
    write_matrix(c, mask, &accum, t, replace);
    timer.finish(if union {
        "ewise_add/matrix"
    } else {
        "ewise_mult/matrix"
    });
    Ok(())
}

/// The intersection of two sorted rows into `out`, combining each
/// shared column with `op`.
fn intersect_rows<T: Scalar, Op: BinaryOp<T>>(
    op: Op,
    (a_cols, a_vals): Run<'_, T>,
    (b_cols, b_vals): Run<'_, T>,
    out: &mut CsrBuilder<T>,
) {
    let (mut p, mut q) = (0, 0);
    while p < a_cols.len() && q < b_cols.len() {
        match a_cols[p].cmp(&b_cols[q]) {
            std::cmp::Ordering::Equal => {
                out.push(a_cols[p], op.apply(a_vals[p], b_vals[q]));
                p += 1;
                q += 1;
            }
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::NoAccumulate;
    use crate::ops::binary::{Minus, Plus, Times};
    use crate::views::{transpose, MERGE};

    fn uvec(pairs: &[(usize, f64)]) -> Vector<f64> {
        Vector::from_pairs(5, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn add_is_union() {
        let u = uvec(&[(0, 1.0), (2, 2.0)]);
        let v = uvec(&[(2, 10.0), (4, 4.0)]);
        let mut w = Vector::<f64>::new(5);
        e_wise_add_vector(&mut w, &NoMask, NoAccumulate, Plus::new(), &u, &v, MERGE).unwrap();
        assert_eq!(w, uvec(&[(0, 1.0), (2, 12.0), (4, 4.0)]));
    }

    #[test]
    fn mult_is_intersection() {
        let u = uvec(&[(0, 1.0), (2, 2.0)]);
        let v = uvec(&[(2, 10.0), (4, 4.0)]);
        let mut w = Vector::<f64>::new(5);
        e_wise_mult_vector(&mut w, &NoMask, NoAccumulate, Times::new(), &u, &v, MERGE).unwrap();
        assert_eq!(w, uvec(&[(2, 20.0)]));
    }

    #[test]
    fn add_with_minus_op_is_pagerank_delta() {
        // Fig. 7 line 28: delta = page_rank − new_rank via eWiseAdd(Minus).
        let u = uvec(&[(0, 0.5), (1, 0.3)]);
        let v = uvec(&[(0, 0.4), (1, 0.35)]);
        let mut w = Vector::<f64>::new(5);
        e_wise_add_vector(&mut w, &NoMask, NoAccumulate, Minus::new(), &u, &v, MERGE).unwrap();
        assert!((w.get(0).unwrap() - 0.1).abs() < 1e-12);
        assert!((w.get(1).unwrap() + 0.05).abs() < 1e-12);
    }

    #[test]
    fn unmatched_entries_pass_through_minus_unnegated() {
        // Spec quirk: eWiseAdd copies unmatched entries unchanged, even
        // for non-commutative ops like Minus.
        let u = uvec(&[(0, 5.0)]);
        let v = uvec(&[(1, 7.0)]);
        let mut w = Vector::<f64>::new(5);
        e_wise_add_vector(&mut w, &NoMask, NoAccumulate, Minus::new(), &u, &v, MERGE).unwrap();
        assert_eq!(w.get(0), Some(5.0));
        assert_eq!(w.get(1), Some(7.0)); // not -7.0
    }

    #[test]
    fn matrix_union_and_intersection() {
        let a = Matrix::from_triples(2, 2, [(0usize, 0usize, 1i32), (0, 1, 2)]).unwrap();
        let b = Matrix::from_triples(2, 2, [(0usize, 1usize, 10i32), (1, 0, 20)]).unwrap();
        let mut add = Matrix::<i32>::new(2, 2);
        e_wise_add_matrix(&mut add, &NoMask, NoAccumulate, Plus::new(), &a, &b, MERGE).unwrap();
        assert_eq!(add.get(0, 0), Some(1));
        assert_eq!(add.get(0, 1), Some(12));
        assert_eq!(add.get(1, 0), Some(20));

        let mut mult = Matrix::<i32>::new(2, 2);
        e_wise_mult_matrix(
            &mut mult,
            &NoMask,
            NoAccumulate,
            Times::new(),
            &a,
            &b,
            MERGE,
        )
        .unwrap();
        assert_eq!(mult.nvals(), 1);
        assert_eq!(mult.get(0, 1), Some(20));
    }

    #[test]
    fn transposed_operand() {
        let a = Matrix::from_triples(2, 2, [(0usize, 1usize, 5i32)]).unwrap();
        let mut w = Matrix::<i32>::new(2, 2);
        // A + Aᵀ symmetrizes.
        e_wise_add_matrix(
            &mut w,
            &NoMask,
            NoAccumulate,
            Plus::new(),
            &a,
            transpose(&a),
            MERGE,
        )
        .unwrap();
        assert_eq!(w.get(0, 1), Some(5));
        assert_eq!(w.get(1, 0), Some(5));
    }

    #[test]
    fn dimension_mismatch() {
        let u = Vector::<i32>::new(3);
        let v = Vector::<i32>::new(4);
        let mut w = Vector::<i32>::new(3);
        assert!(
            e_wise_add_vector(&mut w, &NoMask, NoAccumulate, Plus::new(), &u, &v, MERGE).is_err()
        );
    }
}
