//! A deliberately naive reference oracle for the operation set.
//!
//! Every function here computes the *expected* output of the matching
//! [`crate::operations`] entry point using dense triple loops and
//! per-position `get` probes — no sparse accumulators, no kernel
//! selection, no parallelism. The implementations transcribe the
//! GraphBLAS two-phase write rule literally:
//!
//! ```text
//!   Z = C ⊙ T          (union merge when the accumulator is active,
//!                        Z = T otherwise)
//!   out(i) = M(i) ? Z(i) : (z ? ∅ : C(i))
//! ```
//!
//! The differential test suite (`crates/gbtl/tests/reference_oracle.rs`)
//! pits the optimized kernels — including the masked SpGEMM and
//! push/pull SpMV paths — against these oracles over random inputs,
//! masks, complements, accumulators, and both replace settings, so a
//! kernel rewrite can never silently change semantics. Oracle functions
//! take the output container by reference and *return* the expected
//! result instead of mutating, which keeps call sites side-by-side
//! comparable.

use crate::index::{IndexType, Indices};
use crate::mask::{MatrixMask, VectorMask};
use crate::matrix::Matrix;
use crate::ops::accum::Accum;
use crate::ops::{BinaryOp, Monoid, Semiring, UnaryOp};
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::{MatrixArg, Replace};

/// Logical element probe of a (possibly transposed / dual) operand.
fn arg_get<T: Scalar>(a: &MatrixArg<'_, T>, i: IndexType, j: IndexType) -> Option<T> {
    match a {
        MatrixArg::Plain(m) | MatrixArg::Dual { rows: m, .. } => m.get(i, j),
        MatrixArg::Transposed(m) => m.get(j, i),
    }
}

/// Phase 2 for one vector position: mask, then replace-or-keep.
fn finalize_slot<T: Scalar>(
    allowed: bool,
    z: Option<T>,
    c: Option<T>,
    replace: Replace,
) -> Option<T> {
    if allowed {
        z
    } else if replace.0 {
        None
    } else {
        c
    }
}

/// Phase 1 for one position: `Z = C ⊙ T` (union merge with an active
/// accumulator, plain `T` otherwise).
fn merge_slot<T: Scalar, A: Accum<T>>(accum: &A, c: Option<T>, t: Option<T>) -> Option<T> {
    if accum.is_active() {
        match (c, t) {
            (Some(cv), Some(tv)) => Some(accum.accum(cv, tv)),
            (Some(cv), None) => Some(cv),
            (None, tv) => tv,
        }
    } else {
        t
    }
}

/// Apply the full write rule to a dense intermediate vector `t`.
fn write_vector_ref<T, Mk, A>(
    c: &Vector<T>,
    mask: &Mk,
    accum: &A,
    t: &[Option<T>],
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    let n = c.size();
    let pairs = (0..n).filter_map(|i| {
        let z = merge_slot(accum, c.get(i), t[i]);
        finalize_slot(mask.allows(i), z, c.get(i), replace).map(|v| (i, v))
    });
    Vector::from_pairs(n, pairs).expect("oracle: in-bounds by construction")
}

/// Apply the full write rule to a dense intermediate matrix `t`.
fn write_matrix_ref<T, Mk, A>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    t: &[Vec<Option<T>>],
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
{
    let (nr, nc) = c.shape();
    let triples = (0..nr).flat_map(|i| {
        let ti = &t[i];
        (0..nc).filter_map(move |j| {
            let z = merge_slot(accum, c.get(i, j), ti[j]);
            finalize_slot(mask.allows(i, j), z, c.get(i, j), replace).map(|v| (i, j, v))
        })
    });
    Matrix::from_triples(nr, nc, triples).expect("oracle: in-bounds by construction")
}

/// Expected `C⟨M, z⟩ = C ⊙ T` for a given `T`: the write step alone
/// ([`crate::write::write_vector`]; with no accumulator, `T` is `Z` and
/// this is [`crate::write::finalize_vector`]).
pub fn write_vector<T, Mk, A>(
    c: &Vector<T>,
    mask: &Mk,
    accum: &A,
    t: &Vector<T>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    let mut dense = vec![None; c.size()];
    for (i, v) in t.iter() {
        dense[i] = Some(v);
    }
    write_vector_ref(c, mask, accum, &dense, replace)
}

/// Matrix analog of [`write_vector`] ([`crate::write::write_matrix`],
/// [`crate::write::finalize_matrix`]).
pub fn write_matrix<T, Mk, A>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    t: &Matrix<T>,
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
{
    let (nr, nc) = c.shape();
    let mut dense = vec![vec![None; nc]; nr];
    for (i, j, v) in t.iter() {
        dense[i][j] = Some(v);
    }
    write_matrix_ref(c, mask, accum, &dense, replace)
}

/// Expected `C⟨M, z⟩(rows, cols) = C(rows, cols) ⊙ value`: inside the
/// region `rows × cols` every position takes the constant (merged under
/// an accumulator), outside it `Z = C`.
pub fn assign_matrix_constant<T, Mk, A>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    value: T,
    rows: &Indices,
    cols: &Indices,
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
{
    let (nr, nc) = c.shape();
    let (mut row_in, mut col_in) = (vec![false; nr], vec![false; nc]);
    for (_, i) in rows.iter(nr) {
        row_in[i] = true;
    }
    for (_, j) in cols.iter(nc) {
        col_in[j] = true;
    }
    let triples = (0..nr).flat_map(|i| {
        let (row_in, col_in) = (&row_in, &col_in);
        (0..nc).filter_map(move |j| {
            let cv = c.get(i, j);
            let z = if row_in[i] && col_in[j] {
                merge_slot(accum, cv, Some(value))
            } else {
                cv
            };
            finalize_slot(mask.allows(i, j), z, cv, replace).map(|v| (i, j, v))
        })
    });
    Matrix::from_triples(nr, nc, triples).expect("oracle: in-bounds by construction")
}

/// Expected `C⟨M, z⟩ = C ⊙ (A ⊕.⊗ B)` (GraphBLAS `mxm`).
pub fn mxm<'a, 'b, T, Mk, A, S>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    semiring: &S,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    let (a, b) = (a.into(), b.into());
    let (nr, nc, kk) = (a.nrows(), b.ncols(), a.ncols());
    let mut t = vec![vec![None; nc]; nr];
    #[allow(clippy::needless_range_loop)]
    for i in 0..nr {
        for j in 0..nc {
            let mut acc: Option<T> = None;
            for k in 0..kk {
                if let (Some(av), Some(bv)) = (arg_get(&a, i, k), arg_get(&b, k, j)) {
                    let prod = semiring.mult(av, bv);
                    acc = Some(match acc {
                        Some(s) => semiring.add(s, prod),
                        None => prod,
                    });
                }
            }
            t[i][j] = acc;
        }
    }
    write_matrix_ref(c, mask, accum, &t, replace)
}

/// Expected `w⟨m, z⟩ = w ⊙ (A ⊕.⊗ u)` (GraphBLAS `mxv`).
pub fn mxv<'a, T, Mk, A, S>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    semiring: &S,
    a: impl Into<MatrixArg<'a, T>>,
    u: &Vector<T>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    let a = a.into();
    let nr = a.nrows();
    let mut t = vec![None; nr];
    #[allow(clippy::needless_range_loop)]
    for i in 0..nr {
        let mut acc: Option<T> = None;
        for j in 0..a.ncols() {
            if let (Some(av), Some(uv)) = (arg_get(&a, i, j), u.get(j)) {
                let prod = semiring.mult(av, uv);
                acc = Some(match acc {
                    Some(s) => semiring.add(s, prod),
                    None => prod,
                });
            }
        }
        t[i] = acc;
    }
    write_vector_ref(w, mask, accum, &t, replace)
}

/// Expected `w⟨m, z⟩ = w ⊙ (uᵀ ⊕.⊗ A)` (GraphBLAS `vxm`).
pub fn vxm<'a, T, Mk, A, S>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    semiring: &S,
    u: &Vector<T>,
    a: impl Into<MatrixArg<'a, T>>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    mxv(w, mask, accum, semiring, a.into().flip(), u, replace)
}

/// Expected `w⟨m, z⟩ = w ⊙ (u ⊕ v)` — union element-wise op.
pub fn e_wise_add_vector<T, Mk, A, Op>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    let t: Vec<Option<T>> = (0..w.size())
        .map(|i| match (u.get(i), v.get(i)) {
            (Some(a), Some(b)) => Some(op.apply(a, b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        })
        .collect();
    write_vector_ref(w, mask, accum, &t, replace)
}

/// Expected `w⟨m, z⟩ = w ⊙ (u ⊗ v)` — intersection element-wise op.
pub fn e_wise_mult_vector<T, Mk, A, Op>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    let t: Vec<Option<T>> = (0..w.size())
        .map(|i| match (u.get(i), v.get(i)) {
            (Some(a), Some(b)) => Some(op.apply(a, b)),
            _ => None,
        })
        .collect();
    write_vector_ref(w, mask, accum, &t, replace)
}

/// Dense intermediate for the matrix element-wise ops.
fn ewise_matrix_t<T, Op>(
    add: bool,
    op: Op,
    a: &MatrixArg<'_, T>,
    b: &MatrixArg<'_, T>,
) -> Vec<Vec<Option<T>>>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    (0..a.nrows())
        .map(|i| {
            (0..a.ncols())
                .map(|j| match (arg_get(a, i, j), arg_get(b, i, j)) {
                    (Some(x), Some(y)) => Some(op.apply(x, y)),
                    (Some(x), None) if add => Some(x),
                    (None, y) if add => y,
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// Expected `C⟨M, z⟩ = C ⊙ (A ⊕ B)` — union element-wise op.
pub fn e_wise_add_matrix<'a, 'b, T, Mk, A, Op>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    op: Op,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    let t = ewise_matrix_t(true, op, &a.into(), &b.into());
    write_matrix_ref(c, mask, accum, &t, replace)
}

/// Expected `C⟨M, z⟩ = C ⊙ (A ⊗ B)` — intersection element-wise op.
pub fn e_wise_mult_matrix<'a, 'b, T, Mk, A, Op>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    op: Op,
    a: impl Into<MatrixArg<'a, T>>,
    b: impl Into<MatrixArg<'b, T>>,
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    Op: BinaryOp<T>,
{
    let t = ewise_matrix_t(false, op, &a.into(), &b.into());
    write_matrix_ref(c, mask, accum, &t, replace)
}

/// Expected `w⟨m, z⟩ = w ⊙ f(u)` — apply on vectors.
pub fn apply_vector<T, Mk, A, F>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    f: F,
    u: &Vector<T>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    F: UnaryOp<T>,
{
    let t: Vec<Option<T>> = (0..w.size())
        .map(|i| u.get(i).map(|v| f.apply(v)))
        .collect();
    write_vector_ref(w, mask, accum, &t, replace)
}

/// Expected `C⟨M, z⟩ = C ⊙ f(A)` — apply on matrices.
pub fn apply_matrix<'a, T, Mk, A, F>(
    c: &Matrix<T>,
    mask: &Mk,
    accum: &A,
    f: F,
    a: impl Into<MatrixArg<'a, T>>,
    replace: Replace,
) -> Matrix<T>
where
    T: Scalar,
    Mk: MatrixMask + ?Sized,
    A: Accum<T>,
    F: UnaryOp<T>,
{
    let a = a.into();
    let t: Vec<Vec<Option<T>>> = (0..a.nrows())
        .map(|i| {
            (0..a.ncols())
                .map(|j| arg_get(&a, i, j).map(|v| f.apply(v)))
                .collect()
        })
        .collect();
    write_matrix_ref(c, mask, accum, &t, replace)
}

/// Expected `w⟨m, z⟩ = w ⊙ [⊕ⱼ A(:, j)]` — row-wise reduce. Folds the
/// stored entries of each logical row in ascending column order, like
/// the optimized kernel; a row with no entries produces no entry.
pub fn reduce_matrix_to_vector<'a, T, Mk, A, M>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    monoid: &M,
    a: impl Into<MatrixArg<'a, T>>,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    M: Monoid<T>,
{
    let a = a.into();
    let t: Vec<Option<T>> = (0..a.nrows())
        .map(|i| {
            (0..a.ncols())
                .filter_map(|j| arg_get(&a, i, j))
                .reduce(|x, y| monoid.apply(x, y))
        })
        .collect();
    write_vector_ref(w, mask, accum, &t, replace)
}

/// Expected `s = ⊕ᵢ u(i)` over stored entries (identity when empty).
pub fn reduce_vector_scalar<T, M>(monoid: &M, u: &Vector<T>) -> T
where
    T: Scalar,
    M: Monoid<T>,
{
    (0..u.size())
        .filter_map(|i| u.get(i))
        .fold(monoid.identity(), |acc, v| monoid.apply(acc, v))
}

/// Expected `s = ⊕ᵢⱼ A(i, j)` over stored entries (identity when empty).
pub fn reduce_matrix_scalar<'a, T, M>(monoid: &M, a: impl Into<MatrixArg<'a, T>>) -> T
where
    T: Scalar,
    M: Monoid<T>,
{
    let a = a.into();
    let mut acc = monoid.identity();
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            if let Some(v) = arg_get(&a, i, j) {
                acc = monoid.apply(acc, v);
            }
        }
    }
    acc
}

/// Expected `w⟨m, z⟩(ix) = w(ix) ⊙ u` — assign a vector into a region.
/// Outside the region `Z = C`; inside, the region's pattern replaces
/// (no accumulator) or union-merges (accumulator active).
pub fn assign_vector<T, Mk, A>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    u: &Vector<T>,
    ix: &Indices,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    assign_vector_with(w, mask, accum, ix, replace, |k| u.get(k))
}

/// Expected `w⟨m, z⟩(ix) = w(ix) ⊙ value` — constant assign.
pub fn assign_vector_constant<T, Mk, A>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    value: T,
    ix: &Indices,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    assign_vector_with(w, mask, accum, ix, replace, |_| Some(value))
}

/// Shared body of the vector assign oracles.
fn assign_vector_with<T, Mk, A>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    ix: &Indices,
    replace: Replace,
    value_at: impl Fn(IndexType) -> Option<T>,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    let n = w.size();
    let mut in_region = vec![false; n];
    let mut region: Vec<Option<T>> = vec![None; n];
    for (k, out_i) in ix.iter(n) {
        in_region[out_i] = true;
        region[out_i] = value_at(k);
    }
    let pairs = (0..n).filter_map(|i| {
        let cv = w.get(i);
        let z = if in_region[i] {
            merge_slot(accum, cv, region[i])
        } else {
            cv
        };
        finalize_slot(mask.allows(i), z, cv, replace).map(|v| (i, v))
    });
    Vector::from_pairs(n, pairs).expect("oracle: in-bounds by construction")
}

/// Expected `w⟨m, z⟩ = w ⊙ u(ix)` — extract selected positions.
pub fn extract_vector<T, Mk, A>(
    w: &Vector<T>,
    mask: &Mk,
    accum: &A,
    u: &Vector<T>,
    ix: &Indices,
    replace: Replace,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
{
    let mut t: Vec<Option<T>> = vec![None; w.size()];
    for (k, src) in ix.iter(u.size()) {
        t[k] = u.get(src);
    }
    write_vector_ref(w, mask, accum, &t, replace)
}

/// Mutation oracle for the streaming delta layer
/// ([`crate::delta::DeltaMatrix`]): apply edge updates to a dense
/// `Option` grid in order (`Some(v)` inserts/overwrites, `None`
/// deletes; last write to a coordinate wins) and rebuild from scratch
/// via [`Matrix::from_triples`]. The delta container's settle path
/// must match this bit-identically — that is the update≡rebuild claim.
///
/// Out-of-bounds coordinates are ignored here; the container under
/// test is expected to *reject* them before mutating, so callers feed
/// the oracle only in-bounds updates.
pub fn apply_edge_updates<T: Scalar>(
    base: &Matrix<T>,
    updates: &[(IndexType, IndexType, Option<T>)],
) -> Matrix<T> {
    let (nrows, ncols) = base.shape();
    let mut grid: Vec<Vec<Option<T>>> = vec![vec![None; ncols]; nrows];
    for (i, j, v) in base.iter() {
        grid[i][j] = Some(v);
    }
    for &(i, j, op) in updates {
        if i < nrows && j < ncols {
            grid[i][j] = op;
        }
    }
    let triples = grid.iter().enumerate().flat_map(|(i, row)| {
        row.iter()
            .enumerate()
            .filter_map(move |(j, slot)| slot.map(|v| (i, j, v)))
    });
    Matrix::from_triples(nrows, ncols, triples).expect("oracle triples are in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::ops::accum::{Accumulate, NoAccumulate};
    use crate::ops::binary::Plus;
    use crate::ops::monoid::PlusMonoid;
    use crate::ops::semiring::ArithmeticSemiring;
    use crate::views::{complement, MERGE, REPLACE};

    #[test]
    fn oracle_mxv_hand_checked() {
        // A = [[1, 2], [0, 3]] (dense positions stored), u = [10, 100].
        let a = Matrix::from_triples(2, 2, [(0usize, 0usize, 1i32), (0, 1, 2), (1, 1, 3)]).unwrap();
        let u = Vector::from_pairs(2, [(0usize, 10i32), (1, 100)]).unwrap();
        let w = Vector::<i32>::new(2);
        let got = mxv(
            &w,
            &NoMask,
            &NoAccumulate,
            &ArithmeticSemiring::new(),
            &a,
            &u,
            MERGE,
        );
        assert_eq!(got.get(0), Some(210));
        assert_eq!(got.get(1), Some(300));
    }

    #[test]
    fn oracle_write_rule_matrix() {
        // C has an entry the mask forbids: merge keeps it, replace drops it.
        let c = Matrix::from_triples(2, 2, [(0usize, 0usize, 7i32), (1, 1, 9)]).unwrap();
        let m = Matrix::from_triples(2, 2, [(1usize, 1usize, true)]).unwrap();
        let a = Matrix::from_triples(2, 2, [(1usize, 0usize, 2i32)]).unwrap();
        let b = Matrix::from_triples(2, 2, [(0usize, 1usize, 5i32)]).unwrap();
        let sr = ArithmeticSemiring::new();

        let merged = mxm(&c, &m, &Accumulate(Plus::<i32>::new()), &sr, &a, &b, MERGE);
        assert_eq!(merged.get(0, 0), Some(7)); // outside mask, kept
        assert_eq!(merged.get(1, 1), Some(19)); // 9 ⊙ (2*5)

        let replaced = mxm(&c, &m, &NoAccumulate, &sr, &a, &b, REPLACE);
        assert_eq!(replaced.get(0, 0), None); // outside mask, cleared
        assert_eq!(replaced.get(1, 1), Some(10));

        let comp = mxm(&c, &complement(&m), &NoAccumulate, &sr, &a, &b, REPLACE);
        assert_eq!(comp.get(1, 1), None); // forbidden by ~m, replace clears
        assert_eq!(comp.get(0, 0), None); // allowed, but T is empty there and no accum
        assert_eq!(comp.nvals(), 0); // T's only entry (1,1) is forbidden
    }

    #[test]
    fn oracle_reduce_identities() {
        let u = Vector::<i64>::new(4);
        assert_eq!(reduce_vector_scalar(&PlusMonoid::<i64>::new(), &u), 0);
        let m = Matrix::<i64>::new(3, 3);
        assert_eq!(reduce_matrix_scalar(&PlusMonoid::<i64>::new(), &m), 0);
    }
}
