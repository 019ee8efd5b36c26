//! `assign`: write a container, or a constant, into a region of another
//! container — Table I's `C[M, z][i, j] = A`, `w[m, z][i] = u`, and the
//! constant forms (`levels[frontier][:] = depth` in Fig. 2b,
//! `page_rank[:] = 1.0/rows` in Fig. 7).
//!
//! `assign` differs from every other operation in one crucial way: its
//! intermediate result is only defined on the *assigned region*. Outside
//! the region, `Z = C` — existing entries survive even without an
//! accumulator. Inside the region:
//!
//! * no accumulator: the region's pattern is **replaced** by the input's
//!   (positions the input leaves empty are deleted);
//! * with accumulator: union-merge, as everywhere else.
//!
//! The mask and replace flag then apply over the whole output, via
//! [`crate::write::finalize_vector`] / [`crate::write::finalize_matrix`].
//!
//! When the region is the whole vector (`w[:] = u`, `Indices::All`)
//! there is no "outside": `Z = w ⊙ u` is the standard write step, so the
//! input goes straight to [`crate::write::write_vector`] instead of
//! being rebuilt entry by entry as a region.
//!
//! **Cost.** Besides the write step's own (see [`crate::write`]: linear
//! in `C`, `Z` and a structural mask), an assign pays for its `T`:
//!
//! * vector input: `O(nnz u)` for `Indices::All`, `O(|ix| log |ix|)` for
//!   a region (the region is sorted once);
//! * constant into `Indices::All`: `O(nnz M)` under a plain structural
//!   mask — positions the mask forbids never read `Z`, so `T` covers
//!   only the truthy entries (`levels[front][:] = depth` costs what the
//!   frontier and `levels` hold, not `|V|`); `O(n)` under a complement,
//!   an opaque mask or none, where nearly every position is written;
//! * matrix region rows under a plain structural mask: `T` is confined
//!   to the mask row's truthy columns inside the region
//!   (`O(nnz M · log |cols|)`), so `C⟨M⟩[:, :] = k` never materializes
//!   `nrows × ncols` constants; any other mask fills every region column
//!   of every region row.

// Every kernel funnels through the write step and assign builds its
// operand: a panic here takes down a serve worker, so `unwrap`/`expect`
// are forbidden (see clippy.toml; the test module below is exempt).
#![warn(clippy::disallowed_methods)]

use crate::error::{GblasError, Result};
use crate::index::{IndexType, Indices};
use crate::mask::{check_matrix_mask, check_vector_mask, MaskProbe, MatrixMask, VectorMask};
use crate::matrix::{CsrBuilder, Matrix};
use crate::ops::accum::Accum;
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::Replace;
use crate::write::{finalize_matrix, finalize_vector, write_vector, Run};

/// `w⟨m, z⟩(i) = w(i) ⊙ u` — assign vector `u` into positions `ix` of `w`.
pub fn assign_vector<T, Mk, A>(
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
    ix.validate(w.size())?;
    check_vector_mask(mask, w.size())?;
    let region_len = ix.len(w.size());
    if u.size() != region_len {
        return Err(GblasError::dim(format!(
            "assign: u has size {}, index region has {}",
            u.size(),
            region_len
        )));
    }
    if matches!(ix, Indices::All) {
        write_vector(w, mask, &accum, u.clone(), replace);
        return Ok(());
    }
    let region = build_vector_region(ix, w.size(), |k| u.get(k))?;
    let z = merge_region_vector(w, &region, &accum);
    finalize_vector(w, mask, z, replace);
    Ok(())
}

/// `w⟨m, z⟩(i) = w(i) ⊙ val` — assign a constant into positions `ix`.
/// This is the Fig. 2b `levels[frontier][:] = depth` and Fig. 7
/// `page_rank[:] = 1/rows` form.
pub fn assign_vector_constant<T, Mk, A>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    value: T,
    ix: &Indices,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    ix.validate(w.size())?;
    check_vector_mask(mask, w.size())?;
    if matches!(ix, Indices::All) {
        let n = w.size();
        let indices = if mask.probe() == MaskProbe::Structural {
            // Masked-out positions never read Z: T need only cover the
            // positions the mask allows.
            let mut allowed = Vec::new();
            mask.truthy_indices(&mut allowed);
            allowed
        } else {
            (0..n).collect()
        };
        let values = vec![value; indices.len()];
        write_vector(
            w,
            mask,
            &accum,
            Vector::from_sorted_entries(n, indices, values),
            replace,
        );
        return Ok(());
    }
    let region = build_vector_region(ix, w.size(), |_| Some(value))?;
    let z = merge_region_vector(w, &region, &accum);
    finalize_vector(w, mask, z, replace);
    Ok(())
}

/// The assigned region as sorted `(output index, optional value)` pairs.
/// `None` values mean "the input has no entry here" (deletion without
/// accumulator).
fn build_vector_region<T: Scalar>(
    ix: &Indices,
    n: IndexType,
    value_at: impl Fn(IndexType) -> Option<T>,
) -> Result<Vec<(IndexType, Option<T>)>> {
    let mut region: Vec<(IndexType, Option<T>)> =
        ix.iter(n).map(|(k, out_i)| (out_i, value_at(k))).collect();
    region.sort_unstable_by_key(|&(i, _)| i);
    if region.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(GblasError::invalid(
            "assign: duplicate output index in index list",
        ));
    }
    Ok(region)
}

/// `Z = C` outside the region; region semantics inside.
fn merge_region_vector<T: Scalar, A: Accum<T>>(
    c: &Vector<T>,
    region: &[(IndexType, Option<T>)],
    accum: &A,
) -> Vector<T> {
    let mut out = CsrBuilder::vector(c.nvals() + region.len());
    merge_region_row((c.indices(), c.values()), region, accum, &mut out);
    out.into_vector(c.size())
}

/// `C⟨M, z⟩(i, j) = C(i, j) ⊙ A` — assign matrix `a` into the region
/// `rows × cols` of `c`.
pub fn assign_matrix<T, Mk, A>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    a: &Matrix<T>,
    rows: &Indices,
    cols: &Indices,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
{
    rows.validate(c.nrows())?;
    cols.validate(c.ncols())?;
    check_matrix_mask(mask, c.nrows(), c.ncols())?;
    let (rn, cn) = (rows.len(c.nrows()), cols.len(c.ncols()));
    if a.shape() != (rn, cn) {
        return Err(GblasError::dim(format!(
            "assign: A is {:?}, region is ({rn}, {cn})",
            a.shape()
        )));
    }
    assign_matrix_impl(c, mask, accum, rows, cols, replace, |r, region, out| {
        let (a_cols, a_vals) = a.row(r);
        let at = |k| a_cols.binary_search(&k).ok().map(|p| a_vals[p]);
        out.extend(region.iter().map(|&(out_j, k)| (out_j, at(k))));
    })
}

/// `C⟨M, z⟩(i, j) = C(i, j) ⊙ val` — assign a constant into a region.
pub fn assign_matrix_constant<T, Mk, A>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    value: T,
    rows: &Indices,
    cols: &Indices,
    replace: Replace,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
{
    rows.validate(c.nrows())?;
    cols.validate(c.ncols())?;
    check_matrix_mask(mask, c.nrows(), c.ncols())?;
    assign_matrix_impl(c, mask, accum, rows, cols, replace, |_r, region, out| {
        out.extend(region.iter().map(|&(out_j, _)| (out_j, Some(value))));
    })
}

/// Shared machinery: `region_row(r, cols, out)` appends the region's
/// entries for region-row `r` to `out` as sorted `(output col, optional
/// value)`.
fn assign_matrix_impl<T, Mk, A, F>(
    c: &mut Matrix<T>,
    mask: &Mk,
    accum: A,
    rows: &Indices,
    cols: &Indices,
    replace: Replace,
    region_row: F,
) -> Result<()>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    F: Fn(IndexType, &[(IndexType, IndexType)], &mut Vec<(IndexType, Option<T>)>),
{
    // Map: output row -> region row index.
    let mut row_of: Vec<Option<IndexType>> = vec![None; c.nrows()];
    for (r, out_i) in rows.iter(c.nrows()) {
        if row_of[out_i].is_some() {
            return Err(GblasError::invalid(
                "assign: duplicate output row in index list",
            ));
        }
        row_of[out_i] = Some(r);
    }
    // Region columns as sorted (output col, region col) pairs.
    let mut region_cols: Vec<(IndexType, IndexType)> =
        cols.iter(c.ncols()).map(|(k, out_j)| (out_j, k)).collect();
    region_cols.sort_unstable_by_key(|&(j, _)| j);
    if region_cols.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(GblasError::invalid(
            "assign: duplicate output column in index list",
        ));
    }

    // Under a plain structural mask the write step never reads Z at a
    // position the mask row does not allow, so leaving such a column out
    // of the region (Z = C there) changes only the work.
    let confine = mask.probe() == MaskProbe::Structural;
    let (mut truthy, mut allowed_cols, mut t_entries) = (Vec::new(), Vec::new(), Vec::new());
    let mut z = CsrBuilder::new(c.nrows(), c.nvals());
    for (i, &region_row_i) in row_of.iter().enumerate() {
        let Some(r) = region_row_i else {
            // Outside the row region: Z row = C row.
            let (c_cols, c_vals) = c.row(i);
            z.extend(c_cols, c_vals);
            z.end_row();
            continue;
        };
        let cols_here = if confine {
            truthy.clear();
            mask.truthy_cols_in_row(i, &mut truthy);
            allowed_cols.clear();
            allowed_cols.extend(truthy.iter().filter_map(|&j| {
                let q = region_cols.binary_search_by_key(&j, |&(out_j, _)| out_j);
                q.ok().map(|q| region_cols[q])
            }));
            &allowed_cols
        } else {
            &region_cols
        };
        t_entries.clear();
        region_row(r, cols_here, &mut t_entries);
        merge_region_row(c.row(i), &t_entries, &accum, &mut z);
        z.end_row();
    }
    let z = z.finish(c.ncols());
    finalize_matrix(c, mask, z, replace);
    Ok(())
}

fn merge_region_row<T: Scalar, A: Accum<T>>(
    (c_cols, c_vals): Run<'_, T>,
    region: &[(IndexType, Option<T>)],
    accum: &A,
    out: &mut CsrBuilder<T>,
) {
    let (mut p, mut q) = (0, 0);
    loop {
        let (j, cv, in_region, tv) = if p < c_cols.len() && q < region.len() {
            let (cc, (rc, rv)) = (c_cols[p], region[q]);
            if cc == rc {
                p += 1;
                q += 1;
                (cc, Some(c_vals[p - 1]), true, rv)
            } else if cc < rc {
                p += 1;
                (cc, Some(c_vals[p - 1]), false, None)
            } else {
                q += 1;
                (rc, None, true, rv)
            }
        } else if p < c_cols.len() {
            p += 1;
            (c_cols[p - 1], Some(c_vals[p - 1]), false, None)
        } else if q < region.len() {
            q += 1;
            let (rc, rv) = region[q - 1];
            (rc, None, true, rv)
        } else {
            break;
        };
        let v = if !in_region {
            cv
        } else if accum.is_active() {
            match (cv, tv) {
                (Some(c0), Some(t0)) => Some(accum.accum(c0, t0)),
                (Some(c0), None) => Some(c0),
                (None, t0) => t0,
            }
        } else {
            tv
        };
        if let Some(v) = v {
            out.push(j, v);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::{Accumulate, MaybeAccum, NoAccumulate};
    use crate::ops::binary::Plus;
    use crate::ops::kind::BinaryOpKind;
    use crate::views::{MERGE, REPLACE};

    fn v(pairs: &[(usize, i32)]) -> Vector<i32> {
        Vector::from_pairs(5, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn constant_assign_all_indices() {
        // page_rank[:] = 1/rows (Fig. 7 line 13)
        let mut w = Vector::<f64>::new(4);
        assign_vector_constant(&mut w, &NoMask, NoAccumulate, 0.25, &Indices::All, MERGE).unwrap();
        assert_eq!(w.to_dense(0.0), vec![0.25; 4]);
        assert_eq!(w.nvals(), 4);
    }

    #[test]
    fn masked_constant_assign_is_bfs_levels_step() {
        // levels[frontier][:] = depth (Fig. 2b line 5): masked, merge.
        let mut levels = v(&[(0, 1)]);
        let frontier = v(&[(2, 1), (4, 1)]);
        assign_vector_constant(
            &mut levels,
            &frontier,
            NoAccumulate,
            2,
            &Indices::All,
            MERGE,
        )
        .unwrap();
        assert_eq!(levels, v(&[(0, 1), (2, 2), (4, 2)]));
    }

    #[test]
    fn assign_outside_region_preserved_without_accum() {
        // Entries outside the index region must survive un-accumulated
        // assigns — this is what distinguishes assign from plain writes.
        let mut w = v(&[(0, 7), (4, 9)]);
        let u = Vector::from_pairs(2, [(0usize, 100i32)]).unwrap();
        assign_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::List(vec![1, 2]),
            MERGE,
        )
        .unwrap();
        // Region {1, 2}: position 1 ← 100, position 2 ← deleted (u empty
        // there, but it had no entry anyway). 0 and 4 untouched.
        assert_eq!(w, v(&[(0, 7), (1, 100), (4, 9)]));
    }

    #[test]
    fn region_pattern_replaced_without_accum() {
        let mut w = v(&[(1, 7), (2, 8)]);
        let u = Vector::from_pairs(2, [(0usize, 50i32)]).unwrap(); // entry for region pos 0 only
        assign_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::List(vec![1, 2]),
            MERGE,
        )
        .unwrap();
        // Position 1 ← 50; position 2 deleted (region replaced, u empty there).
        assert_eq!(w, v(&[(1, 50)]));
    }

    #[test]
    fn region_union_with_accum() {
        let mut w = v(&[(1, 7), (2, 8)]);
        let u = Vector::from_pairs(2, [(0usize, 50i32)]).unwrap();
        assign_vector(
            &mut w,
            &NoMask,
            Accumulate(Plus::<i32>::new()),
            &u,
            &Indices::List(vec![1, 2]),
            MERGE,
        )
        .unwrap();
        assert_eq!(w, v(&[(1, 57), (2, 8)]));
    }

    #[test]
    fn whole_vector_assign_is_the_region_path_over_the_full_range() {
        // `w[:] = u` feeds `u` straight to the write step; `w[0:5] = u`
        // builds the same region entry by entry. Every combination of
        // mask, accumulator and replace must agree, for vector and
        // constant inputs.
        fn check<Mk: VectorMask>(mask: &Mk, label: &str) {
            let w0 = v(&[(0, 7), (2, 8), (4, 9)]);
            let u = v(&[(1, 10), (2, 20)]);
            let full = Indices::Range(0, 5);
            for replace in [MERGE, REPLACE] {
                for accum in [None, Some(BinaryOpKind::Plus)].map(MaybeAccum) {
                    let context = format!("{label} {accum:?} {replace:?}");
                    let (mut all, mut ranged) = (w0.clone(), w0.clone());
                    assign_vector(&mut all, mask, accum, &u, &Indices::All, replace).unwrap();
                    assign_vector(&mut ranged, mask, accum, &u, &full, replace).unwrap();
                    assert_eq!(all, ranged, "vector: {context}");
                    let (mut all, mut ranged) = (w0.clone(), w0.clone());
                    assign_vector_constant(&mut all, mask, accum, 5, &Indices::All, replace)
                        .unwrap();
                    assign_vector_constant(&mut ranged, mask, accum, 5, &full, replace).unwrap();
                    assert_eq!(all, ranged, "constant: {context}");
                }
            }
        }
        let m = v(&[(0, 1), (1, 1), (3, 1)]);
        check(&NoMask, "no mask");
        check(&m, "mask");
        check(&crate::views::complement(&m), "complement");
    }

    #[test]
    fn range_indices_are_python_slices() {
        // w[1:4] = u
        let mut w = v(&[(0, 1)]);
        let u = Vector::from_dense(&[10, 20, 30]);
        assign_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::Range(1, 4),
            MERGE,
        )
        .unwrap();
        assert_eq!(w, v(&[(0, 1), (1, 10), (2, 20), (3, 30)]));
    }

    #[test]
    fn duplicate_indices_rejected() {
        let mut w = v(&[]);
        let u = Vector::from_dense(&[1, 2]);
        assert!(assign_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::List(vec![3, 3]),
            MERGE
        )
        .is_err());
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut w = v(&[]);
        let u = Vector::from_dense(&[1, 2, 3]);
        assert!(assign_vector(
            &mut w,
            &NoMask,
            NoAccumulate,
            &u,
            &Indices::Range(0, 2),
            MERGE
        )
        .is_err());
    }

    #[test]
    fn matrix_submatrix_assign() {
        // C[2:4, 2:4] = A (Sec. IV's example)
        let mut c = Matrix::<i32>::new(4, 4);
        c.set(0, 0, 1).unwrap();
        c.set(3, 3, 2).unwrap();
        let a = Matrix::from_dense(&[vec![10, 20], vec![30, 40]]).unwrap();
        assign_matrix(
            &mut c,
            &NoMask,
            NoAccumulate,
            &a,
            &Indices::Range(2, 4),
            &Indices::Range(2, 4),
            MERGE,
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(1)); // outside region
        assert_eq!(c.get(2, 2), Some(10));
        assert_eq!(c.get(2, 3), Some(20));
        assert_eq!(c.get(3, 2), Some(30));
        assert_eq!(c.get(3, 3), Some(40)); // region overwrites old 2
    }

    #[test]
    fn matrix_constant_assign_with_mask_and_replace() {
        let mut c = Matrix::from_triples(2, 2, [(0usize, 0usize, 1i32), (1, 1, 2)]).unwrap();
        let mask = Matrix::from_triples(2, 2, [(0usize, 0usize, true), (0, 1, true)]).unwrap();
        assign_matrix_constant(
            &mut c,
            &mask,
            NoAccumulate,
            9,
            &Indices::All,
            &Indices::All,
            REPLACE,
        )
        .unwrap();
        // Masked-in positions get 9; (1,1) masked out + replace → deleted.
        assert_eq!(c.get(0, 0), Some(9));
        assert_eq!(c.get(0, 1), Some(9));
        assert_eq!(c.get(1, 1), None);
        assert_eq!(c.nvals(), 2);
    }

    #[test]
    fn matrix_assign_with_index_lists_permutes() {
        let mut c = Matrix::<i32>::new(3, 3);
        let a = Matrix::from_dense(&[vec![1, 2], vec![3, 4]]).unwrap();
        assign_matrix(
            &mut c,
            &NoMask,
            NoAccumulate,
            &a,
            &Indices::List(vec![2, 0]),
            &Indices::List(vec![1, 0]),
            MERGE,
        )
        .unwrap();
        // A[0][0]=1 → C[2][1]; A[0][1]=2 → C[2][0]; A[1][0]=3 → C[0][1]; A[1][1]=4 → C[0][0]
        assert_eq!(c.get(2, 1), Some(1));
        assert_eq!(c.get(2, 0), Some(2));
        assert_eq!(c.get(0, 1), Some(3));
        assert_eq!(c.get(0, 0), Some(4));
    }
}
