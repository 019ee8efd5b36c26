//! Matrix-matrix multiply over a semiring: `C⟨M, z⟩ = C ⊙ (A ⊕.⊗ B)`.
//!
//! The general kernel is Gustavson's row-wise SpGEMM with a sparse
//! accumulator, parallelized over output rows. Transposed operands are
//! materialized first (a counting sort), matching GBTL's handling of
//! `TransposeView` operands.
//!
//! When the mask is structural ([`crate::mask::MaskProbe`]), the mask
//! is pushed *into* the multiply instead of post-filtering a full
//! product:
//!
//! * mask sparse and `Bᵀ` rows available → the dot-product formulation
//!   ([`MxmKernel::MaskedDot`]) computes *only* the allowed entries,
//!   turning an `O(flops(A·B))` multiply into
//!   `O(Σ_{(i,j)∈M} min(nnz(Aᵢ), nnz(Bⱼ)))` merge-joins — the triangle
//!   counting shape `B⟨L⟩ = L ⊕.⊗ Lᵀ`;
//! * otherwise → masked Gustavson ([`MxmKernel::MaskedGustavson`]):
//!   the row's allowed (or forbidden) set is stamped into a bitmap and
//!   the inner scatter loop skips disallowed columns, so the sparse
//!   accumulator never holds entries the write step would discard.
//!
//! This `match` on the mask probe is the only place the kernel is
//! selected. Where both masked families are legal (plain structural
//! mask, `Bᵀ` rows available) a caller that already knows the mask's
//! density passes its decision as the `family` argument of
//! [`mxm_with`]; [`mxm`] passes `None`.
//!
//! Confining the computed product `T` to the mask is always legal: the
//! write step (`C⟨M, z⟩ = C ⊙ T`) never reads `T` outside the mask, and
//! accumulated `C`-only entries survive through the union merge.

// Kernel hot path: a panic here takes down a serve worker, so
// `unwrap`/`expect` are forbidden (see clippy.toml; the test module
// below is exempt).
#![warn(clippy::disallowed_methods)]

use crate::error::{GblasError, Result};
use crate::index::IndexType;
use crate::mask::{check_matrix_mask, MaskProbe, MatrixMask};
use crate::matrix::Matrix;
use crate::ops::accum::Accum;
use crate::ops::Semiring;
use crate::parallel::row_map;
use crate::scalar::Scalar;
use crate::views::{MatrixArg, Replace};
use crate::workspace::{Spa, Stamp};
use crate::write::write_matrix;

/// Which SpGEMM kernel [`mxm`] selected, reported back to the caller so
/// dispatch layers can count selections.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MxmKernel {
    /// Unmasked row-wise Gustavson (mask absent or opaque; an opaque
    /// mask is applied by post-filtering in the write step).
    Gustavson,
    /// Row-wise Gustavson with the structural mask (or its complement)
    /// stamped into the inner scatter loop.
    MaskedGustavson,
    /// Mask-guided dot products: only positions stored truthy in the
    /// mask are computed, via merge-joins of `A` rows with `Bᵀ` rows.
    MaskedDot,
}

/// A masked-SpGEMM family a caller may pre-decide (see [`mxm_with`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MxmFamily {
    /// Dot-product kernel confined to the mask's stored positions
    /// (wins when the mask is sparse).
    MaskedDot,
    /// Row-wise Gustavson with the mask filtering the accumulator
    /// (wins when the mask is dense).
    MaskedGustavson,
}

/// `C⟨M, z⟩ = C ⊙ (A ⊕.⊗ B)` — GraphBLAS `mxm`.
///
/// Returns which kernel was selected (see [`MxmKernel`]); callers that
/// don't care can discard it.
pub fn mxm<'a, 'b, T, Mk, A, S>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    semiring: &S,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Result<MxmKernel>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    mxm_with(None, c, mask, accum, semiring, a, b, replace)
}

/// [`mxm`] with the masked family optionally pre-decided by a caller
/// that knows the mask's density before the operands exist (the
/// `pygb-runtime` sparsity pass). `family` only has effect when both
/// masked families are legal — a plain structural mask with `Bᵀ` rows
/// available; otherwise the probes decide, and the kernel actually run
/// is the one reported.
#[allow(clippy::too_many_arguments)]
pub fn mxm_with<'a, 'b, T, Mk, A, S>(
    family: Option<MxmFamily>,
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    semiring: &S,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Result<MxmKernel>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    let a = a.into();
    let b = b.into();
    if a.ncols() != b.nrows() {
        return Err(GblasError::dim(format!(
            "mxm: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    if c.nrows() != a.nrows() || c.ncols() != b.ncols() {
        return Err(GblasError::dim(format!(
            "mxm: C is {}x{}, expected {}x{}",
            c.nrows(),
            c.ncols(),
            a.nrows(),
            b.ncols()
        )));
    }
    check_matrix_mask(mask, c.nrows(), c.ncols())?;
    let timer = crate::hooks::KernelTimer::start();

    let probe = mask.probe();
    let kernel = match probe {
        MaskProbe::All => MxmKernel::Gustavson,
        MaskProbe::Structural if b.transposed_rows().is_some() => match family {
            Some(MxmFamily::MaskedGustavson) => MxmKernel::MaskedGustavson,
            Some(MxmFamily::MaskedDot) | None => MxmKernel::MaskedDot,
        },
        MaskProbe::Structural | MaskProbe::StructuralComplement => MxmKernel::MaskedGustavson,
        MaskProbe::Opaque => MxmKernel::Gustavson,
    };

    let am = a.materialize();
    let t = match kernel {
        MxmKernel::MaskedDot => {
            let Some(bt) = b.transposed_rows() else {
                unreachable!("masked-dot selected only when Bᵀ rows are available")
            };
            spgemm_masked_dot(semiring, mask, &am, bt)
        }
        MxmKernel::MaskedGustavson => {
            let bm = b.materialize();
            spgemm_masked(semiring, mask, probe == MaskProbe::Structural, &am, &bm)
        }
        MxmKernel::Gustavson => {
            let bm = b.materialize();
            spgemm(semiring, &am, &bm)
        }
    };
    write_matrix(c, mask, &accum, t, replace);
    timer.finish(match kernel {
        MxmKernel::Gustavson => "mxm/gustavson",
        MxmKernel::MaskedGustavson => "mxm/masked_gustavson",
        MxmKernel::MaskedDot => "mxm/masked_dot",
    });
    Ok(kernel)
}

/// Gustavson row-wise SpGEMM: `T = A ⊕.⊗ B` with both operands in
/// logical (row-major) orientation.
fn spgemm<T: Scalar, S: Semiring<T>>(semiring: &S, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let nrows = a.nrows();
    let ncols = b.ncols();
    let sr = *semiring;
    let rows = row_map(
        nrows,
        || Spa::<T>::new(ncols),
        move |spa, i| {
            let (a_cols, a_vals) = a.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    spa.scatter(j, sr.mult(av, bv), |x, y| sr.add(x, y));
                }
            }
            spa.drain_sorted()
        },
    );
    Matrix::from_rows(nrows, ncols, rows)
}

/// Mask-guided dot-product SpGEMM: `T(i, j) = Aᵢ · (Bᵀ)ⱼ` computed only
/// at positions the structural mask stores truthy. Rows come back
/// sorted because [`MatrixMask::truthy_cols_in_row`] enumerates columns
/// ascending.
fn spgemm_masked_dot<T, Mk, S>(semiring: &S, mask: &Mk, a: &Matrix<T>, bt: &Matrix<T>) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    S: Semiring<T>,
{
    let nrows = a.nrows();
    let ncols = bt.nrows();
    let sr = *semiring;
    let rows = row_map(nrows, Vec::<IndexType>::new, move |scratch, i| {
        let a_row = a.row(i);
        scratch.clear();
        mask.truthy_cols_in_row(i, scratch);
        let mut row: Vec<(IndexType, T)> = Vec::with_capacity(scratch.len());
        for &j in scratch.iter() {
            if let Some(dot) = sparse_dot(&sr, a_row, bt.row(j)) {
                row.push((j, dot));
            }
        }
        row
    });
    Matrix::from_rows(nrows, ncols, rows)
}

/// Row-wise Gustavson SpGEMM with the mask stamped into the scatter
/// loop. `keep_truthy` selects plain (`true`: only stamped columns may
/// scatter) vs complement (`false`: stamped columns are skipped)
/// semantics. Rows whose plain mask is empty are skipped outright.
fn spgemm_masked<T, Mk, S>(
    semiring: &S,
    mask: &Mk,
    keep_truthy: bool,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    S: Semiring<T>,
{
    let nrows = a.nrows();
    let ncols = b.ncols();
    let sr = *semiring;
    let rows = row_map(
        nrows,
        || (Spa::<T>::new(ncols), Stamp::new(ncols), Vec::new()),
        move |(spa, stamp, scratch): &mut (_, Stamp, Vec<IndexType>), i| {
            scratch.clear();
            mask.truthy_cols_in_row(i, scratch);
            if keep_truthy && scratch.is_empty() {
                return Vec::new();
            }
            for &j in scratch.iter() {
                stamp.set(j);
            }
            let (a_cols, a_vals) = a.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    if stamp.contains(j) == keep_truthy {
                        spa.scatter(j, sr.mult(av, bv), |x, y| sr.add(x, y));
                    }
                }
            }
            stamp.clear();
            spa.drain_sorted()
        },
    );
    Matrix::from_rows(nrows, ncols, rows)
}

/// Mask-guided `C⟨M, z⟩ = C ⊙ (A ⊕.⊗ Bᵀ)` computing only entries whose
/// position is stored (and truthy) in the mask *pattern* matrix.
///
/// `B` is taken in *transposed* orientation implicitly — the dot-product
/// form needs rows of `Bᵀ`, i.e. rows of the `b` argument as passed.
/// This matches the triangle-counting call shape `L ⊕.⊗ Lᵀ` where both
/// operands are the same stored matrix. (General `mxm` now selects this
/// kernel automatically when the mask is structural and `Bᵀ` rows are
/// on hand; this entry point remains for callers that have `Bᵀ` but no
/// [`MatrixArg`] wrapping it.)
pub fn mxm_masked_dot<T, P, A, S>(
    c: &mut Matrix<T>,
    mask_pattern: &Matrix<P>,
    accum: A,
    semiring: &S,
    a: &Matrix<T>,
    b_transposed: &Matrix<T>,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    P: Scalar,
    A: Accum<T>,
    S: Semiring<T>,
{
    if a.ncols() != b_transposed.ncols() {
        return Err(GblasError::dim(format!(
            "mxm_masked_dot: A has {} cols, Bᵀ rows have length {}",
            a.ncols(),
            b_transposed.ncols()
        )));
    }
    if c.nrows() != a.nrows() || c.ncols() != b_transposed.nrows() {
        return Err(GblasError::dim(format!(
            "mxm_masked_dot: C is {}x{}, expected {}x{}",
            c.nrows(),
            c.ncols(),
            a.nrows(),
            b_transposed.nrows()
        )));
    }
    check_matrix_mask(mask_pattern, c.nrows(), c.ncols())?;

    let t = spgemm_masked_dot(semiring, mask_pattern, a, b_transposed);
    // The computed T is already confined to the mask pattern; the write
    // step re-applies the mask for replace/merge correctness.
    write_matrix(c, mask_pattern, &accum, t, replace);
    Ok(())
}

/// Merge-join dot product of two sorted sparse rows under a semiring.
/// `None` when no index collides (no entry produced).
fn sparse_dot<T: Scalar, S: Semiring<T>>(
    semiring: &S,
    (a_cols, a_vals): (&[IndexType], &[T]),
    (b_cols, b_vals): (&[IndexType], &[T]),
) -> Option<T> {
    let (mut p, mut q) = (0, 0);
    let mut acc: Option<T> = None;
    while p < a_cols.len() && q < b_cols.len() {
        match a_cols[p].cmp(&b_cols[q]) {
            std::cmp::Ordering::Equal => {
                let prod = semiring.mult(a_vals[p], b_vals[q]);
                acc = Some(match acc {
                    Some(s) => semiring.add(s, prod),
                    None => prod,
                });
                p += 1;
                q += 1;
            }
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
        }
    }
    acc
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::{Accumulate, NoAccumulate};
    use crate::ops::binary::Plus;
    use crate::ops::semiring::{ArithmeticSemiring, MinPlusSemiring};
    use crate::views::{transpose, MERGE, REPLACE};

    fn dense(m: &[[i32; 3]; 3]) -> Matrix<i32> {
        let rows: Vec<Vec<i32>> = m.iter().map(|r| r.to_vec()).collect();
        // Keep only nonzeros so sparsity is exercised.
        let triples = rows.iter().enumerate().flat_map(|(i, r)| {
            r.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(move |(j, &v)| (i, j, v))
        });
        Matrix::from_triples(3, 3, triples).unwrap()
    }

    fn reference_mm(a: &[[i32; 3]; 3], b: &[[i32; 3]; 3]) -> [[i32; 3]; 3] {
        let mut c = [[0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    c[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        c
    }

    #[test]
    fn arithmetic_mxm_matches_dense_reference() {
        let ad = [[1, 0, 2], [0, 3, 0], [4, 0, 5]];
        let bd = [[0, 1, 0], [2, 0, 0], [0, 0, 3]];
        let (a, b) = (dense(&ad), dense(&bd));
        let mut c = Matrix::<i32>::new(3, 3);
        mxm(
            &mut c,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &a,
            &b,
            MERGE,
        )
        .unwrap();
        let expect = reference_mm(&ad, &bd);
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j).unwrap_or(0), expect[i][j], "({i},{j})");
            }
        }
        assert!(c.is_valid());
    }

    #[test]
    fn transposed_operands() {
        let ad = [[1, 0, 2], [0, 3, 0], [4, 0, 5]];
        let bd = [[0, 1, 0], [2, 0, 0], [0, 0, 3]];
        let (a, b) = (dense(&ad), dense(&bd));
        // C = Aᵀ · B computed two ways.
        let at = a.transpose_owned();
        let mut c1 = Matrix::<i32>::new(3, 3);
        mxm(
            &mut c1,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &at,
            &b,
            MERGE,
        )
        .unwrap();
        let mut c2 = Matrix::<i32>::new(3, 3);
        mxm(
            &mut c2,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            transpose(&a),
            &b,
            MERGE,
        )
        .unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::<i32>::new(2, 3);
        let b = Matrix::<i32>::new(4, 2);
        let mut c = Matrix::<i32>::new(2, 2);
        let err = mxm(
            &mut c,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &a,
            &b,
            MERGE,
        );
        assert!(matches!(err, Err(GblasError::DimensionMismatch { .. })));

        let b_ok = Matrix::<i32>::new(3, 5);
        let err2 = mxm(
            &mut c,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &a,
            &b_ok,
            MERGE,
        );
        assert!(err2.is_err()); // C shape wrong
    }

    #[test]
    fn min_plus_mxm() {
        // Shortest two-hop paths.
        let inf = i32::MAX;
        let a = Matrix::from_triples(2, 2, [(0usize, 1usize, 3i32), (1, 0, 4)]).unwrap();
        let mut c = Matrix::<i32>::new(2, 2);
        mxm(
            &mut c,
            &NoMask,
            NoAccumulate,
            &MinPlusSemiring::new(),
            &a,
            &a,
            MERGE,
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(7)); // 3 + 4
        assert_eq!(c.get(1, 1), Some(7));
        assert_eq!(c.get(0, 1), None); // no 2-hop path
        assert_ne!(c.get(0, 0), Some(inf));
    }

    #[test]
    fn accumulate_into_existing() {
        let a = dense(&[[1, 0, 0], [0, 1, 0], [0, 0, 1]]); // identity
        let b = dense(&[[5, 0, 0], [0, 5, 0], [0, 0, 5]]);
        let mut c = Matrix::from_triples(3, 3, [(0usize, 0usize, 100i32)]).unwrap();
        mxm(
            &mut c,
            &NoMask,
            Accumulate(Plus::<i32>::new()),
            &ArithmeticSemiring::new(),
            &a,
            &b,
            MERGE,
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(105));
        assert_eq!(c.get(1, 1), Some(5));
    }

    #[test]
    fn masked_dot_matches_general_masked() {
        // Triangle-count shape: B⟨L⟩ = L · Lᵀ.
        let l = Matrix::from_triples(
            4,
            4,
            [
                (1usize, 0usize, 1i32),
                (2, 0, 1),
                (2, 1, 1),
                (3, 1, 1),
                (3, 2, 1),
            ],
        )
        .unwrap();
        let lt = l.transpose_owned();

        let mut general = Matrix::<i32>::new(4, 4);
        mxm(
            &mut general,
            &l,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &l,
            transpose(&l),
            REPLACE,
        )
        .unwrap();

        let mut dot = Matrix::<i32>::new(4, 4);
        // b_transposed is the matrix whose *rows* are rows of Bᵀ = (Lᵀ)ᵀ = L.
        mxm_masked_dot(
            &mut dot,
            &l,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &l,
            &lt.transpose_owned(),
            REPLACE,
        )
        .unwrap();
        assert_eq!(general, dot);
    }

    #[test]
    fn kernel_selection() {
        let ad = [[1, 0, 2], [0, 3, 0], [4, 0, 5]];
        let bd = [[0, 1, 0], [2, 0, 0], [0, 0, 3]];
        let (a, b) = (dense(&ad), dense(&bd));
        let bt = b.transpose_owned();
        let m = Matrix::from_triples(3, 3, [(0usize, 1usize, true), (2, 2, true)]).unwrap();
        let sr = ArithmeticSemiring::new();

        let mut c = Matrix::<i32>::new(3, 3);
        let k = mxm(&mut c, &NoMask, NoAccumulate, &sr, &a, &b, MERGE).unwrap();
        assert_eq!(k, MxmKernel::Gustavson);

        // Structural mask + plain B → masked Gustavson.
        let mut c1 = Matrix::<i32>::new(3, 3);
        let k1 = mxm(&mut c1, &m, NoAccumulate, &sr, &a, &b, REPLACE).unwrap();
        assert_eq!(k1, MxmKernel::MaskedGustavson);

        // Structural mask + Bᵀ rows on hand → masked dot.
        let mut c2 = Matrix::<i32>::new(3, 3);
        let k2 = mxm(&mut c2, &m, NoAccumulate, &sr, &a, transpose(&bt), REPLACE).unwrap();
        assert_eq!(k2, MxmKernel::MaskedDot);
        assert_eq!(c1, c2);

        // Complemented structural mask → masked Gustavson (complement).
        let mut c3 = Matrix::<i32>::new(3, 3);
        let k3 = mxm(
            &mut c3,
            &crate::views::complement(&m),
            NoAccumulate,
            &sr,
            &a,
            &b,
            REPLACE,
        )
        .unwrap();
        assert_eq!(k3, MxmKernel::MaskedGustavson);

        // All masked variants agree with post-filtering the full product.
        let mut full = Matrix::<i32>::new(3, 3);
        mxm(&mut full, &NoMask, NoAccumulate, &sr, &a, &b, MERGE).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let want = if MatrixMask::allows(&m, i, j) {
                    full.get(i, j)
                } else {
                    None
                };
                assert_eq!(c1.get(i, j), want, "masked ({i},{j})");
                let want_comp = if MatrixMask::allows(&m, i, j) {
                    None
                } else {
                    full.get(i, j)
                };
                assert_eq!(c3.get(i, j), want_comp, "complement ({i},{j})");
            }
        }
    }

    #[test]
    fn sparse_dot_none_when_disjoint() {
        let s = ArithmeticSemiring::<i32>::new();
        assert_eq!(sparse_dot(&s, (&[0, 2], &[1, 1]), (&[1, 3], &[1, 1])), None);
        assert_eq!(sparse_dot(&s, (&[0, 2], &[2, 3]), (&[2], &[4])), Some(12));
    }
}
