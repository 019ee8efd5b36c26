//! The GraphBLAS output-write step: `C⟨M, z⟩ = C ⊙ T`.
//!
//! Every operation computes an intermediate result `T` and then funnels
//! through this module, which implements the specification's two-phase
//! write exactly:
//!
//! 1. **Accumulate**: `Z = C ⊙ T` when an accumulator is active
//!    (union merge: positions in both get `⊙(c, t)`, positions in only
//!    one keep their value); `Z = T` otherwise.
//! 2. **Mask / replace**: for every position `i`,
//!    `C(i) = M(i) ? Z(i) : (z ? ∅ : C(i))` — masked-in positions take
//!    `Z` (including *absence* of `Z`, which deletes), masked-out
//!    positions are kept ("merge") or deleted ("replace").
//!
//! `assign` builds its own `Z` (its `T` only covers the assigned index
//! region) and calls [`finalize_vector`] / [`finalize_matrix`] directly.
//!
//! Phase 2 is therefore a select, `C(i) = M(i) ? Z(i) : K(i)`, with
//! `K = C` under merge and `K = ∅` under replace: a replacing write never
//! reads `C` in phase 2.
//!
//! **Cost.** What phase 2 costs depends on the mask's
//! [`crate::mask::MaskProbe`]; in every case it allocates only the
//! output.
//!
//! * `All` — no walk: `C` becomes `Z`, `O(1)`.
//! * `Structural` / `StructuralComplement` — a forward cursor over the
//!   mask's own sorted storage (per matrix row: that row's stored
//!   columns) rides along the `K ∪ Z` merge. Between two stored mask
//!   entries every position gets the same answer — a plain mask forbids
//!   them all, a complement allows them all — so that stretch is copied
//!   from `K` or `Z` as one slice, and the cursor gallops over mask
//!   entries no `K` or `Z` entry reaches. A vector write costs at most
//!   `O(nnz K + nnz Z + nnz M)`, and its per-entry work is bounded by
//!   the smaller of `nnz K + nnz Z` and `nnz M` plus slice copies: BFS's
//!   `levels⟨front⟩ = d` copies `levels` in a few slices and decides
//!   only the frontier's positions one by one.
//! * `Opaque` — one [`VectorMask::allows`] / [`MatrixMask::allows`]
//!   call per position of `K ∪ Z`, whatever that costs the mask.

// Every kernel funnels through the write step: a panic here takes down
// a serve worker, so `unwrap`/`expect` are forbidden (see clippy.toml;
// the test module below is exempt).
#![warn(clippy::disallowed_methods)]

use crate::index::IndexType;
use crate::mask::{MaskProbe, MatrixMask, VectorMask};
use crate::matrix::Matrix;
use crate::ops::accum::Accum;
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::Replace;

/// Phase 1 for vectors: `Z = C ⊙ T` (or `Z = T` with no accumulator).
pub fn merge_accum_vector<T: Scalar, A: Accum<T>>(
    c: &Vector<T>,
    t: Vector<T>,
    accum: &A,
) -> Vector<T> {
    if !accum.is_active() {
        return t;
    }
    let mut indices = Vec::with_capacity(c.nvals() + t.nvals());
    let mut values = Vec::with_capacity(c.nvals() + t.nvals());
    let mut ci = c.iter().peekable();
    let mut ti = t.iter().peekable();
    loop {
        match (ci.peek().copied(), ti.peek().copied()) {
            (Some((i, cv)), Some((j, tv))) => {
                if i == j {
                    indices.push(i);
                    values.push(accum.accum(cv, tv));
                    ci.next();
                    ti.next();
                } else if i < j {
                    indices.push(i);
                    values.push(cv);
                    ci.next();
                } else {
                    indices.push(j);
                    values.push(tv);
                    ti.next();
                }
            }
            (Some((i, cv)), None) => {
                indices.push(i);
                values.push(cv);
                ci.next();
            }
            (None, Some((j, tv))) => {
                indices.push(j);
                values.push(tv);
                ti.next();
            }
            (None, None) => break,
        }
    }
    Vector::from_sorted_entries(c.size(), indices, values)
}

/// Phase 2 for vectors: merge `Z` into `C` under the mask and replace
/// flag.
pub fn finalize_vector<T: Scalar, M: VectorMask + ?Sized>(
    c: &mut Vector<T>,
    mask: &M,
    z: Vector<T>,
    replace: Replace,
) {
    if mask.is_all() {
        // Every position is masked in: C simply becomes Z.
        *c = z;
        crate::hooks::report_fact(|| (c.nvals(), c.size()));
        return;
    }
    let keep = if replace.0 {
        (&[][..], &[][..])
    } else {
        (c.indices(), c.values())
    };
    let zs = (z.indices(), z.values());
    let mut out = with_capacity(keep.0.len() + zs.0.len());
    match truthy_allows(mask.probe()) {
        Some(allow) => select_structural(
            keep,
            zs,
            mask.stored_indices(),
            |p| mask.stored_truthy(p),
            allow,
            &mut out,
        ),
        None => select_each(keep, zs, |i| mask.allows(i), &mut out),
    }
    *c = Vector::from_sorted_entries(c.size(), out.0, out.1);
    crate::hooks::report_fact(|| (c.nvals(), c.size()));
}

/// One sorted run of entries — a vector's storage, or one matrix row —
/// as parallel index and value slices.
type Run<'a, T> = (&'a [IndexType], &'a [T]);

/// Phase 2's output: indices and values, appended in ascending order (a
/// matrix appends its rows one after another).
type Out<T> = (Vec<IndexType>, Vec<T>);

fn with_capacity<T>(n: usize) -> Out<T> {
    (Vec::with_capacity(n), Vec::with_capacity(n))
}

/// For a structural probe, whether a truthy stored entry allows its
/// position (a plain mask) or forbids it (a complement); `None` for a
/// mask that can only be asked position by position.
fn truthy_allows(probe: MaskProbe) -> Option<bool> {
    match probe {
        MaskProbe::Structural => Some(true),
        MaskProbe::StructuralComplement => Some(false),
        MaskProbe::All | MaskProbe::Opaque => None,
    }
}

/// The index at `p` of a sorted run, or one past every real index when
/// the run is exhausted.
#[inline]
fn index_at(sorted: &[IndexType], p: usize) -> IndexType {
    sorted.get(p).copied().unwrap_or(IndexType::MAX)
}

/// The first position `p ≥ from` of ascending `sorted` with
/// `sorted[p] ≥ target` (`sorted.len()` if none): an exponential probe
/// from `from`, then a binary search inside the bracket it found, so a
/// step over `g` entries costs `O(log g)`.
fn seek(sorted: &[IndexType], from: usize, target: IndexType) -> usize {
    let rest = sorted.get(from..).unwrap_or(&[]);
    if rest.first().is_none_or(|&x| x >= target) {
        return from;
    }
    let mut bound = 1;
    while bound < rest.len() && rest[bound] < target {
        bound *= 2;
    }
    let lo = bound / 2;
    let hi = bound.min(rest.len());
    from + lo + rest[lo..hi].partition_point(|&x| x < target)
}

/// Phase 2 over one run, per position: `out(i) = M(i) ? Z(i) : K(i)` for
/// every position of `K ∪ Z`, asking `allows` about each.
fn select_each<T: Scalar>(
    keep: Run<'_, T>,
    z: Run<'_, T>,
    mut allows: impl FnMut(IndexType) -> bool,
    out: &mut Out<T>,
) {
    let (mut p, mut q) = (0, 0);
    loop {
        let (ki, zi) = (index_at(keep.0, p), index_at(z.0, q));
        let i = ki.min(zi);
        if i == IndexType::MAX {
            return;
        }
        let kv = (ki == i).then(|| keep.1[p]);
        let zv = (zi == i).then(|| z.1[q]);
        p += usize::from(ki == i);
        q += usize::from(zi == i);
        if let Some(v) = if allows(i) { zv } else { kv } {
            out.0.push(i);
            out.1.push(v);
        }
    }
}

/// [`select_each`] for a structural mask with sorted stored positions
/// `stored` (`truthy(p)`: whether entry `p` coerces to `true`). The mask
/// cursor `at` only moves forward: it gallops to the next `K`/`Z` entry,
/// the stretch before the next stored mask position is copied whole
/// (from `K` under a plain mask, which forbids it; from `Z` under a
/// complement, which allows it), and only stored positions are decided
/// one by one.
fn select_structural<T: Scalar>(
    keep: Run<'_, T>,
    z: Run<'_, T>,
    stored: &[IndexType],
    truthy: impl Fn(usize) -> bool,
    allow_truthy: bool,
    out: &mut Out<T>,
) {
    let (mut p, mut q, mut at) = (0, 0, 0);
    loop {
        let next = index_at(keep.0, p).min(index_at(z.0, q));
        if next == IndexType::MAX {
            return;
        }
        // Mask entries below `next` have nothing to decide.
        at = seek(stored, at, next);
        let j = index_at(stored, at);
        if next < j {
            let (kp, zq) = (seek(keep.0, p, j), seek(z.0, q, j));
            let (idx, vals) = if allow_truthy {
                (&keep.0[p..kp], &keep.1[p..kp])
            } else {
                (&z.0[q..zq], &z.1[q..zq])
            };
            out.0.extend_from_slice(idx);
            out.1.extend_from_slice(vals);
            (p, q) = (kp, zq);
        }
        if j == IndexType::MAX {
            return;
        }
        let kv = (index_at(keep.0, p) == j).then(|| keep.1[p]);
        let zv = (index_at(z.0, q) == j).then(|| z.1[q]);
        p += usize::from(kv.is_some());
        q += usize::from(zv.is_some());
        if let Some(v) = if truthy(at) == allow_truthy { zv } else { kv } {
            out.0.push(j);
            out.1.push(v);
        }
        at += 1;
    }
}

/// Both phases for vectors: the standard tail of every vector-producing
/// operation.
pub fn write_vector<T: Scalar, M: VectorMask + ?Sized, A: Accum<T>>(
    c: &mut Vector<T>,
    mask: &M,
    accum: &A,
    t: Vector<T>,
    replace: Replace,
) {
    let z = merge_accum_vector(c, t, accum);
    finalize_vector(c, mask, z, replace);
}

/// Phase 1 for matrices: row-wise union merge.
pub fn merge_accum_matrix<T: Scalar, A: Accum<T>>(
    c: &Matrix<T>,
    t: Matrix<T>,
    accum: &A,
) -> Matrix<T> {
    if !accum.is_active() {
        return t;
    }
    let nrows = c.nrows();
    let mut rows: Vec<Vec<(IndexType, T)>> = Vec::with_capacity(nrows);
    for i in 0..nrows {
        let (c_cols, c_vals) = c.row(i);
        let (t_cols, t_vals) = t.row(i);
        rows.push(union_merge_row(c_cols, c_vals, t_cols, t_vals, |cv, tv| {
            accum.accum(cv, tv)
        }));
    }
    Matrix::from_rows(nrows, c.ncols(), rows)
}

/// Union-merge two sorted rows, combining collisions with `both`.
fn union_merge_row<T: Scalar, F: Fn(T, T) -> T>(
    a_cols: &[IndexType],
    a_vals: &[T],
    b_cols: &[IndexType],
    b_vals: &[T],
    both: F,
) -> Vec<(IndexType, T)> {
    let mut out = Vec::with_capacity(a_cols.len() + b_cols.len());
    let (mut p, mut q) = (0, 0);
    while p < a_cols.len() && q < b_cols.len() {
        let (ac, bc) = (a_cols[p], b_cols[q]);
        if ac == bc {
            out.push((ac, both(a_vals[p], b_vals[q])));
            p += 1;
            q += 1;
        } else if ac < bc {
            out.push((ac, a_vals[p]));
            p += 1;
        } else {
            out.push((bc, b_vals[q]));
            q += 1;
        }
    }
    out.extend(a_cols[p..].iter().copied().zip(a_vals[p..].iter().copied()));
    out.extend(b_cols[q..].iter().copied().zip(b_vals[q..].iter().copied()));
    out
}

/// Phase 2 for matrices.
pub fn finalize_matrix<T: Scalar, M: MatrixMask + ?Sized>(
    c: &mut Matrix<T>,
    mask: &M,
    z: Matrix<T>,
    replace: Replace,
) {
    if mask.is_all() {
        *c = z;
        crate::hooks::report_fact(|| (c.nvals(), c.nrows() * c.ncols()));
        return;
    }
    let allow = truthy_allows(mask.probe());
    let nrows = c.nrows();
    let mut out = with_capacity(if replace.0 { 0 } else { c.nvals() } + z.nvals());
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0);
    for i in 0..nrows {
        let keep = if replace.0 {
            (&[][..], &[][..])
        } else {
            c.row(i)
        };
        let zs = z.row(i);
        match allow {
            Some(allow) => select_structural(
                keep,
                zs,
                mask.stored_cols_in_row(i),
                |p| mask.stored_truthy_in_row(i, p),
                allow,
                &mut out,
            ),
            None => select_each(keep, zs, |j| mask.allows(i, j), &mut out),
        }
        row_ptr.push(out.0.len());
    }
    *c = Matrix::from_csr_parts(nrows, c.ncols(), row_ptr, out.0, out.1);
    crate::hooks::report_fact(|| (c.nvals(), c.nrows() * c.ncols()));
}

/// Both phases for matrices.
pub fn write_matrix<T: Scalar, M: MatrixMask + ?Sized, A: Accum<T>>(
    c: &mut Matrix<T>,
    mask: &M,
    accum: &A,
    t: Matrix<T>,
    replace: Replace,
) {
    let z = merge_accum_matrix(c, t, accum);
    finalize_matrix(c, mask, z, replace);
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::{Accumulate, NoAccumulate};
    use crate::ops::binary::Plus;
    use crate::views::{complement, MERGE, REPLACE};

    fn v(pairs: &[(usize, i32)]) -> Vector<i32> {
        Vector::from_pairs(6, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn no_mask_no_accum_overwrites() {
        let mut c = v(&[(0, 1), (5, 9)]);
        write_vector(&mut c, &NoMask, &NoAccumulate, v(&[(2, 4)]), MERGE);
        assert_eq!(c, v(&[(2, 4)]));
    }

    #[test]
    fn accum_union_merges() {
        let mut c = v(&[(0, 1), (2, 2)]);
        write_vector(
            &mut c,
            &NoMask,
            &Accumulate(Plus::<i32>::new()),
            v(&[(2, 10), (4, 40)]),
            MERGE,
        );
        assert_eq!(c, v(&[(0, 1), (2, 12), (4, 40)]));
    }

    #[test]
    fn merge_keeps_masked_out_entries() {
        let mut c = v(&[(0, 1), (1, 2), (2, 3)]);
        let mask = v(&[(1, 1)]); // only position 1 writable
        write_vector(&mut c, &mask, &NoAccumulate, v(&[(1, 99), (2, 77)]), MERGE);
        // position 1 takes Z; positions 0 and 2 are masked out → kept.
        assert_eq!(c, v(&[(0, 1), (1, 99), (2, 3)]));
    }

    #[test]
    fn replace_deletes_masked_out_entries() {
        let mut c = v(&[(0, 1), (1, 2), (2, 3)]);
        let mask = v(&[(1, 1)]);
        write_vector(
            &mut c,
            &mask,
            &NoAccumulate,
            v(&[(1, 99), (2, 77)]),
            REPLACE,
        );
        assert_eq!(c, v(&[(1, 99)]));
    }

    #[test]
    fn masked_in_absence_deletes() {
        // Without accum, a masked-in position where T has no entry loses
        // its C entry (Z = T there, which is empty).
        let mut c = v(&[(1, 2)]);
        let mask = v(&[(1, 1)]);
        write_vector(&mut c, &mask, &NoAccumulate, v(&[]), MERGE);
        assert_eq!(c, v(&[]));
    }

    #[test]
    fn masked_in_absence_kept_with_accum() {
        // With accum, Z = C ⊙ T keeps C-only entries.
        let mut c = v(&[(1, 2)]);
        let mask = v(&[(1, 1)]);
        write_vector(
            &mut c,
            &mask,
            &Accumulate(Plus::<i32>::new()),
            v(&[]),
            MERGE,
        );
        assert_eq!(c, v(&[(1, 2)]));
    }

    #[test]
    fn complemented_mask() {
        let mut c = v(&[(0, 1), (1, 2)]);
        let mask = v(&[(1, 1)]);
        write_vector(
            &mut c,
            &complement(&mask),
            &NoAccumulate,
            v(&[(0, 50), (1, 60)]),
            MERGE,
        );
        // complement allows 0, forbids 1.
        assert_eq!(c, v(&[(0, 50), (1, 2)]));
    }

    #[test]
    fn matrix_write_mask_replace() {
        let mut c =
            Matrix::from_triples(2, 2, [(0usize, 0usize, 1i32), (0, 1, 2), (1, 1, 3)]).unwrap();
        let mask = Matrix::from_triples(2, 2, [(0usize, 0usize, true)]).unwrap();
        let t = Matrix::from_triples(2, 2, [(0usize, 0usize, 10i32), (1, 0, 20)]).unwrap();
        write_matrix(&mut c, &mask, &NoAccumulate, t.clone(), MERGE);
        assert_eq!(c.get(0, 0), Some(10));
        assert_eq!(c.get(0, 1), Some(2)); // masked out, merged
        assert_eq!(c.get(1, 0), None); // masked out, t ignored
        assert_eq!(c.get(1, 1), Some(3));

        let mut c2 =
            Matrix::from_triples(2, 2, [(0usize, 0usize, 1i32), (0, 1, 2), (1, 1, 3)]).unwrap();
        write_matrix(&mut c2, &mask, &NoAccumulate, t, REPLACE);
        assert_eq!(c2.nvals(), 1);
        assert_eq!(c2.get(0, 0), Some(10));
    }

    #[test]
    fn matrix_accum() {
        let mut c = Matrix::from_triples(1, 3, [(0usize, 0usize, 1i32), (0, 2, 3)]).unwrap();
        let t = Matrix::from_triples(1, 3, [(0usize, 0usize, 10i32), (0, 1, 20)]).unwrap();
        write_matrix(&mut c, &NoMask, &Accumulate(Plus::<i32>::new()), t, MERGE);
        assert_eq!(c.get(0, 0), Some(11));
        assert_eq!(c.get(0, 1), Some(20));
        assert_eq!(c.get(0, 2), Some(3));
    }

    #[test]
    fn seek_finds_the_first_entry_not_below_target() {
        let sorted: Vec<IndexType> = (0..100).map(|k| 3 * k).collect();
        for from in [0, 1, 7, 50, 99, 100] {
            for target in 0..310 {
                let want = from + sorted[from..].partition_point(|&x| x < target);
                assert_eq!(seek(&sorted, from, target), want, "{from} {target}");
            }
        }
        assert_eq!(seek(&[], 0, 5), 0);
    }

    #[test]
    fn structural_select_matches_per_position_select() {
        // Long gaps, a stored-false mask entry (600) and mask entries no
        // C or Z entry reaches (900, 901).
        let n = 1000;
        let c = Vector::from_pairs(n, [(1usize, 1i32), (2, 2), (500, 3), (600, 4), (999, 5)]);
        let z = Vector::from_pairs(n, [(2usize, 20i32), (3, 30), (600, 60), (700, 70)]);
        let m = Vector::from_pairs(n, [(2usize, 1i32), (3, 1), (600, 0), (900, 1), (901, 1)]);
        let (c, z, m) = (c.unwrap(), z.unwrap(), m.unwrap());
        for replace in [MERGE, REPLACE] {
            for (allow, label) in [(true, "plain"), (false, "complement")] {
                let allows = |i| m.allows(i) == allow;
                let keep = if replace.0 {
                    (&[][..], &[][..])
                } else {
                    (c.indices(), c.values())
                };
                let zs = (z.indices(), z.values());
                let (mut each, mut walked) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
                select_each(keep, zs, allows, &mut each);
                let truthy = |p| m.stored_truthy(p);
                select_structural(keep, zs, m.stored_indices(), truthy, allow, &mut walked);
                assert_eq!(each, walked, "{label} {replace:?}");
            }
        }
    }

    #[test]
    fn union_merge_row_basics() {
        let out = union_merge_row(&[0, 2], &[1i32, 3], &[1, 2], &[10, 30], |a, b| a + b);
        assert_eq!(out, vec![(0, 1), (1, 10), (2, 33)]);
    }
}
