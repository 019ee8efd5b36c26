//! Matrix-vector and vector-matrix multiply over a semiring:
//! `w⟨m, z⟩ = w ⊙ (A ⊕.⊗ u)` and `w⟨m, z⟩ = w ⊙ (uᵀ ⊕.⊗ A)`.
//!
//! Two kernel directions, chosen in one place ([`mxv`]) by operand
//! orientation — or, for a [`crate::views::dual`] operand, by the
//! frontier's density against [`PUSH_PULL_DENSITY`] (the GraphBLAST
//! direction-optimization heuristic). A caller that wants a particular direction passes the
//! operand in that orientation:
//!
//! * **pull** (gather, `A·u`): `u` is scattered into a dense buffer
//!   once, then each output row is a `O(nnz(row))` gather-dot —
//!   row-parallel. Wins when `u` is dense (PageRank ranks, late BFS).
//! * **push** (scatter, `Aᵀ·u`): iterate the stored entries of `u` and
//!   scatter each matrix row into a sparse accumulator — cost is
//!   proportional to the frontier, not the whole graph (`graphᵀ ⊕.⊗
//!   frontier`, Fig. 2). Wins when `u` is sparse (early BFS, SSSP).
//!
//! Structural masks ([`crate::mask::MaskProbe`]) are pushed into both
//! directions: the pull kernel only visits allowed rows (or skips
//! forbidden ones), and the push kernel stamps the allowed set so the
//! scatter loop never accumulates entries the write step would drop.

// Kernel hot path: a panic here takes down a serve worker, so
// `unwrap`/`expect` are forbidden (see clippy.toml; the test module
// below is exempt).
#![warn(clippy::disallowed_methods)]

use crate::error::{GblasError, Result};
use crate::index::IndexType;
use crate::mask::{check_vector_mask, MaskProbe, VectorMask};
use crate::matrix::Matrix;
use crate::ops::accum::Accum;
use crate::ops::Semiring;
use crate::parallel::row_map;
use crate::scalar::Scalar;
use crate::vector::Vector;
use crate::views::{MatrixArg, Replace};
use crate::workspace::{DenseGather, Spa, Stamp};
use crate::write::write_vector;

/// Frontier density (`nvals / size`) at or above which a
/// [`crate::views::dual`] operand uses the pull (gather) direction;
/// below it the push (scatter) direction wins because its cost tracks
/// the frontier. 5% follows the direction-optimizing SpMV literature
/// (GraphBLAST's default switch point is in the same regime).
pub const PUSH_PULL_DENSITY: f64 = 0.05;

/// Which SpMV kernel [`mxv`]/[`vxm`] selected, reported back to the
/// caller so dispatch layers can count selections.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpmvKernel {
    /// Row-parallel gather-dot over all output rows (dense direction).
    Pull,
    /// Gather-dot confined to the mask: only allowed rows are visited
    /// (plain structural mask) or forbidden rows skipped (complement).
    MaskedPull,
    /// Frontier-driven scatter (sparse direction).
    Push,
    /// Frontier-driven scatter with the mask's truthy set stamped so
    /// disallowed columns never enter the accumulator.
    MaskedPush,
}

/// `w⟨m, z⟩ = w ⊙ (A ⊕.⊗ u)` — GraphBLAS `mxv`.
///
/// Returns which kernel was selected (see [`SpmvKernel`]); callers that
/// don't care can discard it.
pub fn mxv<'a, T, Mk, A, S>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    semiring: &S,
    a: impl Into<MatrixArg<'a, T>>,
    u: &Vector<T>,
    replace: Replace,
) -> Result<SpmvKernel>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    let a = a.into();
    if a.ncols() != u.size() {
        return Err(GblasError::dim(format!(
            "mxv: A is {}x{}, u has size {}",
            a.nrows(),
            a.ncols(),
            u.size()
        )));
    }
    if w.size() != a.nrows() {
        return Err(GblasError::dim(format!(
            "mxv: w has size {}, expected {}",
            w.size(),
            a.nrows()
        )));
    }
    check_vector_mask(mask, w.size())?;
    let timer = crate::hooks::KernelTimer::start();

    // Direction: pull iterates output rows of the logical matrix; push
    // iterates the stored entries of `u` and scatters rows of Aᵀ. Only
    // a dual operand leaves both legal; the frontier's density decides.
    let pull_rows: Option<&Matrix<T>> = match a {
        MatrixArg::Plain(m) => Some(m),
        MatrixArg::Transposed(_) => None,
        MatrixArg::Dual { rows, .. } => {
            let density = if u.size() == 0 {
                1.0
            } else {
                u.nvals() as f64 / u.size() as f64
            };
            (density >= PUSH_PULL_DENSITY).then_some(rows)
        }
    };

    let probe = mask.probe();
    let structural = matches!(
        probe,
        MaskProbe::Structural | MaskProbe::StructuralComplement
    );
    let keep_truthy = probe == MaskProbe::Structural;

    let (t, kernel) = if let Some(m) = pull_rows {
        if structural {
            (
                spmv_gather_masked(semiring, m, u, mask, keep_truthy),
                SpmvKernel::MaskedPull,
            )
        } else {
            (spmv_gather(semiring, m, u), SpmvKernel::Pull)
        }
    } else {
        let Some(m) = a.transposed_rows() else {
            unreachable!("push selected only when Aᵀ rows are available")
        };
        if structural {
            (
                spmv_scatter_masked(semiring, m, u, mask, keep_truthy),
                SpmvKernel::MaskedPush,
            )
        } else {
            (spmv_scatter(semiring, m, u), SpmvKernel::Push)
        }
    };
    write_vector(w, mask, &accum, t, replace);
    timer.finish(match kernel {
        SpmvKernel::Pull => "mxv/pull",
        SpmvKernel::MaskedPull => "mxv/masked_pull",
        SpmvKernel::Push => "mxv/push",
        SpmvKernel::MaskedPush => "mxv/masked_push",
    });
    Ok(kernel)
}

/// `w⟨m, z⟩ = w ⊙ (uᵀ ⊕.⊗ A)` — GraphBLAS `vxm`. Equivalent to
/// `mxv` with the matrix transposed: `u·A = Aᵀ·u`.
///
/// Returns which kernel was selected, like [`mxv`].
pub fn vxm<'a, T, Mk, A, S>(
    w: &mut Vector<T>,
    mask: &Mk,
    accum: A,
    semiring: &S,
    u: &Vector<T>,
    a: impl Into<MatrixArg<'a, T>>,
    replace: Replace,
) -> Result<SpmvKernel>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    A: Accum<T>,
    S: Semiring<T>,
{
    mxv(w, mask, accum, semiring, a.into().flip(), u, replace)
}

/// One gather-dot: `⊕_j A(i,j) ⊗ u(j)` over the stored entries of row
/// `i`, with `u` pre-densified. `None` when nothing collides.
#[inline]
fn gather_dot<T: Scalar, S: Semiring<T>>(
    sr: &S,
    (cols, vals): (&[IndexType], &[T]),
    gathered: &DenseGather<T>,
) -> Option<T> {
    let mut acc: Option<T> = None;
    for (&j, &av) in cols.iter().zip(vals) {
        if let Some(uv) = gathered.get(j) {
            let prod = sr.mult(av, uv);
            acc = Some(match acc {
                Some(s) => sr.add(s, prod),
                None => prod,
            });
        }
    }
    acc
}

/// `row_map` over a type-erased row function. The thread spawning under
/// `row_map` is one shared copy, but `row_map` and the chunking around
/// it (each chunk's collect, the concatenation) are monomorphized per
/// closure type; the three pull loops below differ per semiring, and a
/// caller that instantiates `mxv` on many semiring types (the DSL's
/// operator-specialized modules) would otherwise carry three private
/// copies per `(T, S)`: the benchmark binary's `.text` is 6.80 MB
/// without this erasure and 6.24 MB with it. Erasing the row function makes it one copy per `T`; the
/// price is one indirect call per output row, beside the `O(nnz(row))`
/// gather it makes.
fn par_rows<T: Scalar>(
    nrows: IndexType,
    row: &(dyn Fn(IndexType) -> Option<T> + Sync),
) -> Vec<Option<T>> {
    row_map(nrows, || (), move |_, i| row(i))
}

/// Pull kernel: `t_i = ⊕_j A(i,j) ⊗ u(j)` with `u` densified.
fn spmv_gather<T: Scalar, S: Semiring<T>>(semiring: &S, a: &Matrix<T>, u: &Vector<T>) -> Vector<T> {
    let gathered = DenseGather::from_vector(u);
    let g = &gathered;
    let sr = *semiring;
    let entries = par_rows(a.nrows(), &|i| gather_dot(&sr, a.row(i), g));
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (i, e) in entries.into_iter().enumerate() {
        if let Some(v) = e {
            indices.push(i);
            values.push(v);
        }
    }
    Vector::from_sorted_entries(a.nrows(), indices, values)
}

/// Masked pull kernel. Plain structural masks (`keep_truthy`) visit
/// *only* the allowed rows, so a sparse mask makes the whole SpMV cost
/// `O(Σ_{i∈m} nnz(Aᵢ))`; complements visit every row but skip the
/// stamped forbidden set.
fn spmv_gather_masked<T, Mk, S>(
    semiring: &S,
    a: &Matrix<T>,
    u: &Vector<T>,
    mask: &Mk,
    keep_truthy: bool,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    S: Semiring<T>,
{
    let mut truthy = Vec::new();
    mask.truthy_indices(&mut truthy);
    let gathered = DenseGather::from_vector(u);
    let g = &gathered;
    let sr = *semiring;
    if keep_truthy {
        let rows = &truthy;
        let entries = par_rows(rows.len(), &|idx| gather_dot(&sr, a.row(rows[idx]), g));
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (idx, e) in entries.into_iter().enumerate() {
            if let Some(v) = e {
                indices.push(truthy[idx]);
                values.push(v);
            }
        }
        Vector::from_sorted_entries(a.nrows(), indices, values)
    } else {
        let mut forbidden = Stamp::new(a.nrows());
        for &i in &truthy {
            forbidden.set(i);
        }
        let fb = &forbidden;
        let entries = par_rows(a.nrows(), &|i| {
            if fb.contains(i) {
                return None;
            }
            gather_dot(&sr, a.row(i), g)
        });
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, e) in entries.into_iter().enumerate() {
            if let Some(v) = e {
                indices.push(i);
                values.push(v);
            }
        }
        Vector::from_sorted_entries(a.nrows(), indices, values)
    }
}

/// Push kernel: `t = Aᵀ·u` by scattering row `i` of `A` for each stored
/// `u(i)`.
fn spmv_scatter<T: Scalar, S: Semiring<T>>(
    semiring: &S,
    a: &Matrix<T>,
    u: &Vector<T>,
) -> Vector<T> {
    let sr = *semiring;
    let mut spa = Spa::<T>::new(a.ncols());
    for (i, uv) in u.iter() {
        let (cols, vals) = a.row(i);
        for (&j, &av) in cols.iter().zip(vals) {
            spa.scatter(j, sr.mult(av, uv), |x, y| sr.add(x, y));
        }
    }
    let entries = spa.drain_sorted();
    let (indices, values): (Vec<IndexType>, Vec<T>) = entries.into_iter().unzip();
    Vector::from_sorted_entries(a.ncols(), indices, values)
}

/// Masked push kernel: the mask's truthy set is stamped once, then the
/// scatter loop drops disallowed columns before they ever enter the
/// accumulator — the Fig. 2 BFS step (`frontier⟨¬levels⟩`) never
/// accumulates already-visited vertices.
fn spmv_scatter_masked<T, Mk, S>(
    semiring: &S,
    a: &Matrix<T>,
    u: &Vector<T>,
    mask: &Mk,
    keep_truthy: bool,
) -> Vector<T>
where
    T: Scalar,
    Mk: VectorMask + ?Sized,
    S: Semiring<T>,
{
    let mut truthy = Vec::new();
    mask.truthy_indices(&mut truthy);
    let mut stamp = Stamp::new(a.ncols());
    for &j in &truthy {
        stamp.set(j);
    }
    if keep_truthy && stamp.is_empty() {
        return Vector::new(a.ncols());
    }
    let sr = *semiring;
    let mut spa = Spa::<T>::new(a.ncols());
    for (i, uv) in u.iter() {
        let (cols, vals) = a.row(i);
        for (&j, &av) in cols.iter().zip(vals) {
            if stamp.contains(j) == keep_truthy {
                spa.scatter(j, sr.mult(av, uv), |x, y| sr.add(x, y));
            }
        }
    }
    let entries = spa.drain_sorted();
    let (indices, values): (Vec<IndexType>, Vec<T>) = entries.into_iter().unzip();
    Vector::from_sorted_entries(a.ncols(), indices, values)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::matrix::Matrix;
    use crate::ops::accum::{Accumulate, NoAccumulate};
    use crate::ops::binary::Min;
    use crate::ops::semiring::{ArithmeticSemiring, LogicalSemiring, MinPlusSemiring};
    use crate::views::{complement, transpose, MERGE, REPLACE};

    fn graph() -> Matrix<bool> {
        // Fig. 1's 7-vertex digraph (0-based).
        Matrix::from_triples(
            7,
            7,
            [
                (0usize, 1usize, true),
                (0, 3, true),
                (1, 4, true),
                (1, 6, true),
                (2, 5, true),
                (3, 0, true),
                (3, 2, true),
                (4, 5, true),
                (5, 2, true),
                (6, 2, true),
                (6, 3, true),
                (6, 4, true),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig1_bfs_ply() {
        let g = graph();
        let frontier = Vector::from_pairs(7, [(3usize, true)]).unwrap();
        let mut next = Vector::<bool>::new(7);
        mxv(
            &mut next,
            &NoMask,
            NoAccumulate,
            &LogicalSemiring::new(),
            transpose(&g),
            &frontier,
            REPLACE,
        )
        .unwrap();
        // Vertex 3 (paper's "4") reaches 0 and 2 (paper's "1" and "3").
        assert_eq!(next.extract_indices(), vec![0, 2]);
    }

    #[test]
    fn gather_and_scatter_agree() {
        let m = Matrix::from_triples(
            4,
            4,
            [
                (0usize, 1usize, 2i64),
                (1, 2, 3),
                (2, 0, 4),
                (2, 3, 5),
                (3, 3, 6),
            ],
        )
        .unwrap();
        let u = Vector::from_pairs(4, [(0usize, 1i64), (2, 2), (3, 3)]).unwrap();

        // A·u via gather vs via scatter on the materialized transpose.
        let mut w1 = Vector::<i64>::new(4);
        mxv(
            &mut w1,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &m,
            &u,
            MERGE,
        )
        .unwrap();
        let mt = m.transpose_owned();
        let mut w2 = Vector::<i64>::new(4);
        mxv(
            &mut w2,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            transpose(&mt),
            &u,
            MERGE,
        )
        .unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn vxm_is_transposed_mxv() {
        let m = Matrix::from_triples(3, 3, [(0usize, 1usize, 2.0f64), (2, 1, 3.0)]).unwrap();
        let u = Vector::from_pairs(3, [(0usize, 1.0f64), (2, 10.0)]).unwrap();
        let mut w1 = Vector::<f64>::new(3);
        vxm(
            &mut w1,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &u,
            &m,
            MERGE,
        )
        .unwrap();
        // u·A: w_1 = 1*2 + 10*3 = 32.
        assert_eq!(w1.get(1), Some(32.0));
        assert_eq!(w1.nvals(), 1);
    }

    #[test]
    fn min_plus_relaxation_with_min_accum() {
        // One SSSP step: path ⟨min⟩= Aᵀ ⊕.⊗ path over MinPlus (Fig. 4).
        let inf = f64::INFINITY;
        let g = Matrix::from_triples(3, 3, [(0usize, 1usize, 2.0f64), (1, 2, 3.0), (0, 2, 10.0)])
            .unwrap();
        let mut path = Vector::from_pairs(3, [(0usize, 0.0f64)]).unwrap();
        for _ in 0..3 {
            let snapshot = path.clone();
            mxv(
                &mut path,
                &NoMask,
                Accumulate(Min::<f64>::new()),
                &MinPlusSemiring::new(),
                transpose(&g),
                &snapshot,
                MERGE,
            )
            .unwrap();
        }
        assert_eq!(path.get(0), Some(0.0));
        assert_eq!(path.get(1), Some(2.0));
        assert_eq!(path.get(2), Some(5.0)); // via vertex 1, not the 10.0 edge
        assert_ne!(path.get(2), Some(inf));
    }

    #[test]
    fn masked_complement_replace_bfs_step() {
        // frontier⟨¬levels, replace⟩ = graphᵀ ⊕.⊗ frontier (Fig. 2).
        let g = graph().cast::<u64>();
        let levels = Vector::from_pairs(7, [(3usize, 1u64)]).unwrap();
        let frontier = Vector::from_pairs(7, [(3usize, 1u64)]).unwrap();
        let mut next = frontier.clone();
        let snapshot = frontier.clone();
        mxv(
            &mut next,
            &complement(&levels),
            NoAccumulate,
            &LogicalSemiring::new(),
            transpose(&g),
            &snapshot,
            REPLACE,
        )
        .unwrap();
        // 3 → {0, 2}; neither is in levels, both kept; old frontier
        // entry at 3 cleared by replace.
        assert_eq!(next.extract_indices(), vec![0, 2]);
    }

    #[test]
    fn dual_switches_direction_on_density() {
        let g = graph().cast::<i64>();
        let gt = g.transpose_owned();
        let sr = ArithmeticSemiring::new();

        // Sparse frontier (1/7 ≈ 0.14 ≥ threshold? no: use truly sparse
        // vs dense around the 5% line on a larger vector).
        let big = Matrix::from_triples(40, 40, (0..40usize).map(|i| (i, (i * 7 + 1) % 40, 1i64)))
            .unwrap();
        let bigt = big.transpose_owned();

        let sparse_u = Vector::from_pairs(40, [(3usize, 1i64)]).unwrap(); // 2.5%
        let dense_u = Vector::from_pairs(40, (0..20usize).map(|i| (i * 2, 1i64))).unwrap(); // 50%

        for u in [&sparse_u, &dense_u] {
            let mut w_plain = Vector::<i64>::new(40);
            let k_plain = mxv(&mut w_plain, &NoMask, NoAccumulate, &sr, &big, u, MERGE).unwrap();
            assert_eq!(k_plain, SpmvKernel::Pull);

            let mut w_dual = Vector::<i64>::new(40);
            let k_dual = mxv(
                &mut w_dual,
                &NoMask,
                NoAccumulate,
                &sr,
                crate::views::dual(&big, &bigt),
                u,
                MERGE,
            )
            .unwrap();
            assert_eq!(w_plain, w_dual);
            if u.nvals() == 1 {
                assert_eq!(k_dual, SpmvKernel::Push);
            } else {
                assert_eq!(k_dual, SpmvKernel::Pull);
            }
        }
        // Sanity: the small-graph dual agrees with Plain too.
        let u7 = Vector::from_pairs(7, [(3usize, 1i64)]).unwrap();
        let mut w1 = Vector::<i64>::new(7);
        mxv(&mut w1, &NoMask, NoAccumulate, &sr, &g, &u7, MERGE).unwrap();
        let mut w2 = Vector::<i64>::new(7);
        mxv(
            &mut w2,
            &NoMask,
            NoAccumulate,
            &sr,
            crate::views::dual(&g, &gt),
            &u7,
            MERGE,
        )
        .unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn masked_kernel_selection() {
        let g = graph().cast::<i64>();
        let gt = g.transpose_owned();
        let sr = ArithmeticSemiring::new();
        let m = Vector::from_pairs(7, [(0usize, true), (2, true)]).unwrap();
        let u = Vector::from_pairs(7, [(3usize, 1i64)]).unwrap();

        // Plain operand + structural mask → masked pull.
        let mut w1 = Vector::<i64>::new(7);
        let k1 = mxv(&mut w1, &m, NoAccumulate, &sr, &g, &u, REPLACE).unwrap();
        assert_eq!(k1, SpmvKernel::MaskedPull);

        // Transposed operand + complemented mask → masked push.
        let mut w2 = Vector::<i64>::new(7);
        let k2 = mxv(
            &mut w2,
            &complement(&m),
            NoAccumulate,
            &sr,
            transpose(&gt),
            &u,
            REPLACE,
        )
        .unwrap();
        assert_eq!(k2, SpmvKernel::MaskedPush);

        // Both agree with computing unmasked then filtering.
        let mut full = Vector::<i64>::new(7);
        mxv(&mut full, &NoMask, NoAccumulate, &sr, &g, &u, MERGE).unwrap();
        for i in 0..7 {
            let allowed = VectorMask::allows(&m, i);
            assert_eq!(w1.get(i), if allowed { full.get(i) } else { None }, "{i}");
            assert_eq!(w2.get(i), if allowed { None } else { full.get(i) }, "{i}");
        }
    }

    #[test]
    fn dimension_errors() {
        let m = Matrix::<i32>::new(3, 4);
        let u = Vector::<i32>::new(3); // wrong: needs 4
        let mut w = Vector::<i32>::new(3);
        assert!(mxv(
            &mut w,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &m,
            &u,
            MERGE
        )
        .is_err());
        let u_ok = Vector::<i32>::new(4);
        let mut w_bad = Vector::<i32>::new(2);
        assert!(mxv(
            &mut w_bad,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &m,
            &u_ok,
            MERGE
        )
        .is_err());
    }

    #[test]
    fn empty_input_gives_empty_result() {
        let m = Matrix::<f32>::new(5, 5);
        let u = Vector::from_pairs(5, [(0usize, 1.0f32)]).unwrap();
        let mut w = Vector::<f32>::new(5);
        mxv(
            &mut w,
            &NoMask,
            NoAccumulate,
            &ArithmeticSemiring::new(),
            &m,
            &u,
            MERGE,
        )
        .unwrap();
        assert_eq!(w.nvals(), 0);
    }
}
