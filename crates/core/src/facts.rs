//! The abstract domain for plan-time sparsity analysis.
//!
//! A [`Fact`] abstracts the *structure* of a container (vector or
//! matrix) as an nnz interval `[lo, hi]` over a capacity `dim`, plus
//! three "provably" flags (iso-valued, diagonal, structural-only).
//! The concretization is
//!
//! ```text
//!   γ([lo,hi], flags) = { containers c : lo ≤ nvals(c) ≤ hi
//!                         ∧ (flag set ⇒ c has the property) }
//! ```
//!
//! so `lo = 0, hi = dim`, all flags clear is ⊤ (no information) and a
//! cleared flag means *unknown*, never *false*. The partial order is
//! interval containment with flag implication; [`Fact::join`] is the
//! least upper bound. The op-DAG is acyclic and visited in enqueue
//! (topological) order, so no widening is needed — every analysis run
//! is a single forward pass.
//!
//! Transfer functions here mirror the GraphBLAS write semantics
//! implemented in `gbtl::write`: every operation computes `T`, merges
//! it with the target into `Z` (union under an accumulator, else
//! `Z = T`), then finalizes per position — masked-in positions take
//! `Z`'s entry *or are deleted*, masked-out positions keep `C`'s entry
//! unless `REPLACE` drops them. Crucially nnz is **value-independent**
//! in this substrate: eWiseAdd keeps stored zeros and semiring products
//! are always stored, so the intervals below are sound for any operand
//! values, not just "interesting" ones.

use std::fmt;

use crate::dtype::DType;
use crate::store::{MatrixStore, VectorStore};

/// An abstract structure fact: what the analysis knows about one
/// container's sparsity pattern without looking at its values.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fact {
    /// Least possible number of stored entries.
    pub lo: usize,
    /// Greatest possible number of stored entries.
    pub hi: usize,
    /// Container capacity: vector size, or matrix `nrows × ncols`.
    pub dim: usize,
    /// Provably iso-valued: every stored entry holds the same value
    /// (vacuously true when at most one entry can be stored).
    pub iso: bool,
    /// Provably diagonal (matrices): every stored entry is at `(i, i)`.
    pub diagonal: bool,
    /// Provably structural-only: the values carry no information beyond
    /// the pattern (boolean containers).
    pub structural_only: bool,
}

impl Fact {
    /// ⊤ — nothing known beyond the capacity.
    pub fn top(dim: usize) -> Fact {
        Fact {
            lo: 0,
            hi: dim,
            dim,
            iso: false,
            diagonal: false,
            structural_only: false,
        }
    }

    /// Exact entry count (a concrete container's abstraction).
    pub fn exact(nvals: usize, dim: usize) -> Fact {
        Fact {
            lo: nvals,
            hi: nvals,
            ..Fact::top(dim)
        }
    }

    /// Provably empty.
    pub fn empty(dim: usize) -> Fact {
        Fact {
            iso: true,
            diagonal: true,
            ..Fact::exact(0, dim)
        }
    }

    /// The output is provably empty (no stored entries possible).
    pub fn provably_empty(&self) -> bool {
        self.hi == 0
    }

    /// Every position provably holds an entry.
    pub fn provably_full(&self) -> bool {
        self.dim > 0 && self.lo == self.dim
    }

    /// Upper bound on density `nvals / dim` (1.0 for a 0-capacity
    /// container, matching the runtime probe's convention).
    pub fn density_hi(&self) -> f64 {
        if self.dim == 0 {
            1.0
        } else {
            self.hi as f64 / self.dim as f64
        }
    }

    /// Least upper bound: interval union, flags only where both sides
    /// prove them.
    pub fn join(&self, other: &Fact) -> Fact {
        debug_assert_eq!(self.dim, other.dim, "join of facts over different dims");
        Fact {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            dim: self.dim,
            iso: self.iso && other.iso,
            diagonal: self.diagonal && other.diagonal,
            structural_only: self.structural_only && other.structural_only,
        }
    }

    /// Clamp the interval to `[0, dim]` (transfer functions may
    /// overshoot before clamping).
    fn clamped(mut self) -> Fact {
        self.hi = self.hi.min(self.dim);
        self.lo = self.lo.min(self.hi);
        self
    }

    /// `true` when a concrete entry count is inside this fact's
    /// interval — the membership half of `value ∈ γ(fact)` that the
    /// debug-mode checked interpretation validates (the flags are
    /// advisory and not checked; see DESIGN.md §4j).
    pub fn admits(&self, nvals: usize) -> bool {
        self.lo <= nvals && nvals <= self.hi
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nnz=[{},{}]", self.lo, self.hi)?;
        if self.provably_empty() {
            write!(f, " empty")?;
        } else if self.provably_full() {
            write!(f, " full")?;
        } else {
            write!(f, " d≤{:.2}", self.density_hi())?;
        }
        if self.iso && !self.provably_empty() {
            write!(f, " iso")?;
        }
        if self.diagonal && !self.provably_empty() {
            write!(f, " diag")?;
        }
        if self.structural_only {
            write!(f, " struct")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Leaf abstraction: a resolved container's exact fact.
// ---------------------------------------------------------------------

/// Abstract a concrete vector: exact nnz (an O(1) read), iso when at
/// most one entry is stored, structural-only for boolean dtypes.
pub fn of_vector(v: &VectorStore) -> Fact {
    let nvals = v.nvals();
    Fact {
        iso: nvals <= 1,
        structural_only: v.dtype() == DType::Bool,
        ..Fact::exact(nvals, v.size())
    }
}

/// Abstract a concrete matrix. The diagonal flag is decided by an
/// O(nnz) pattern scan, gated to matrices that could *possibly* be
/// diagonal (`nvals ≤ min(nrows, ncols)`) so dense operands never pay
/// it.
pub fn of_matrix(m: &MatrixStore) -> Fact {
    let nvals = m.nvals();
    let (r, c) = (m.nrows(), m.ncols());
    let diagonal = nvals <= r.min(c) && m.extract_triples_dyn().iter().all(|(i, j, _)| i == j);
    Fact {
        iso: nvals <= 1,
        diagonal,
        structural_only: m.dtype() == DType::Bool,
        ..Fact::exact(nvals, r.saturating_mul(c))
    }
}

// ---------------------------------------------------------------------
// Transfer functions for the intermediate result T.
// ---------------------------------------------------------------------

/// `T = u ⊕ v` (element-wise union). The pattern is the union of the
/// operand patterns — stored zeros are kept, so the bounds are exact
/// set-union bounds.
pub fn ewise_add(u: &Fact, v: &Fact) -> Fact {
    let dim = u.dim;
    Fact {
        lo: u.lo.max(v.lo),
        hi: u.hi.saturating_add(v.hi),
        dim,
        // Union merges values from both operands; iso survives only
        // when one side contributes nothing.
        iso: (u.provably_empty() && v.iso) || (v.provably_empty() && u.iso),
        diagonal: u.diagonal && v.diagonal,
        structural_only: u.structural_only && v.structural_only,
    }
    .clamped()
}

/// `T = u ⊗ v` (element-wise intersection).
pub fn ewise_mult(u: &Fact, v: &Fact) -> Fact {
    let dim = u.dim;
    Fact {
        lo: (u.lo + v.lo).saturating_sub(dim),
        hi: u.hi.min(v.hi),
        dim,
        iso: u.iso && v.iso,
        // Intersection with a diagonal pattern is diagonal.
        diagonal: u.diagonal || v.diagonal,
        structural_only: u.structural_only && v.structural_only,
    }
    .clamped()
}

/// `T = A ⊕.⊗ u` — each output row holds an entry iff its row of `A`
/// collides with `u`. At most one entry per stored entry of `A`; every
/// row populated when `A` is provably full and `u` provably non-empty.
pub fn mxv(a: &Fact, nrows: usize, u: &Fact) -> Fact {
    let hi = if a.provably_empty() || u.provably_empty() {
        0
    } else {
        nrows.min(a.hi)
    };
    let lo = if a.provably_full() && u.lo >= 1 {
        nrows
    } else {
        0
    };
    Fact {
        lo,
        hi,
        structural_only: a.structural_only && u.structural_only,
        ..Fact::top(nrows)
    }
    .clamped()
}

/// `T = uᵀ ⊕.⊗ A` — [`mxv`] of the transpose: bounds over `ncols`.
pub fn vxm(u: &Fact, a: &Fact, ncols: usize) -> Fact {
    mxv(a, ncols, u)
}

/// `T = A ⊕.⊗ B`. Every output entry needs a witness pair (one stored
/// entry of `A` in its row, one of `B` in its column), so
/// `nnz(T) ≤ nnz(A)·nnz(B)`; full operands with a non-trivial inner
/// dimension populate every output position.
pub fn mxm(a: &Fact, b: &Fact, nrows: usize, ncols: usize, inner: usize) -> Fact {
    let dim = nrows.saturating_mul(ncols);
    let hi = if a.provably_empty() || b.provably_empty() {
        0
    } else {
        dim.min(a.hi.saturating_mul(b.hi))
    };
    let lo = if a.provably_full() && b.provably_full() && inner > 0 {
        dim
    } else {
        0
    };
    Fact {
        lo,
        hi,
        structural_only: a.structural_only && b.structural_only,
        ..Fact::top(dim)
    }
    .clamped()
}

/// `T = f(u)` — apply is pattern-preserving: same entry count, and an
/// iso/diagonal pattern stays iso/diagonal (`f` maps the single value
/// to a single value). Values change, so structural-only is dropped
/// unless the operand already carried it.
pub fn apply(u: &Fact) -> Fact {
    *u
}

/// `T = u(ix)` with `k = |ix|`. Indices may repeat, so `k` — not
/// `u.hi` — bounds the count; a provably-full operand yields an entry
/// at every extracted position.
pub fn extract(u: &Fact, k: usize) -> Fact {
    let hi = if u.provably_empty() { 0 } else { k };
    let lo = if u.provably_full() { k } else { 0 };
    Fact {
        lo,
        hi,
        iso: u.iso,
        structural_only: u.structural_only,
        ..Fact::top(k)
    }
    .clamped()
}

/// `T = ⊕ A(i,:)` — row reduction: one entry per non-empty row.
pub fn reduce_rows(a: &Fact, nrows: usize, ncols: usize) -> Fact {
    let lo = if a.provably_full() && ncols > 0 {
        nrows
    } else {
        0
    };
    Fact {
        lo,
        hi: if a.provably_empty() {
            0
        } else {
            nrows.min(a.hi)
        },
        structural_only: a.structural_only,
        ..Fact::top(nrows)
    }
    .clamped()
}

/// `T = Aᵀ` — transposition permutes positions: nnz, iso, diagonal and
/// structural-only are all preserved.
pub fn transpose(a: &Fact, nrows: usize, ncols: usize) -> Fact {
    let _ = (nrows, ncols);
    *a
}

// ---------------------------------------------------------------------
// The write-back: C⟨M, z⟩ = C ⊙ T.
// ---------------------------------------------------------------------

/// Abstract the full GraphBLAS write. `t` is the intermediate result's
/// fact, `target` the output container's pre-write fact, `mask` the
/// mask's fact with its complement flag, `accum` whether an accumulator
/// merges `T` into `C`, `replace` the REPLACE flag.
///
/// Soundness mirrors `gbtl::write`: with an accumulator
/// `Z = C ∪ T` (union merge), else `Z = T`; then for the allowed set
/// `A` of the mask, `nnz(out) = |pattern(Z) ∩ A| + |pattern(C) ∩ Aᶜ|`
/// when merging (masked-in absence deletes!), and
/// `nnz(out) = |pattern(Z) ∩ A|` under REPLACE. The allowed count of a
/// plain structural mask is `[0, nnz(M)]` — stored entries may still be
/// falsy — and of a complemented one `[dim − nnz(M), dim]`.
pub fn write_back(
    t: &Fact,
    target: &Fact,
    mask: Option<(&Fact, bool)>,
    accum: bool,
    replace: bool,
) -> Fact {
    let dim = t.dim;
    // Z = C ∪ T under an accumulator, else T.
    let z = if accum {
        Fact {
            lo: target.lo.max(t.lo),
            hi: target.hi.saturating_add(t.hi).min(dim),
            dim,
            iso: false,
            diagonal: target.diagonal && t.diagonal,
            structural_only: target.structural_only && t.structural_only,
        }
    } else {
        *t
    };
    let Some((m, complemented)) = mask else {
        // No mask: the finalize step installs Z verbatim.
        return z.clamped();
    };
    // Allowed-count interval |A| of the mask.
    let (al, ah) = if complemented {
        (dim - m.hi.min(dim), dim)
    } else {
        (0, m.hi.min(dim))
    };
    // |pattern(Z) ∩ A| by inclusion–exclusion.
    let in_lo = (z.lo + al).saturating_sub(dim);
    let in_hi = z.hi.min(ah);
    // |pattern(C) ∩ Aᶜ| — survivors outside the mask (dropped by
    // REPLACE).
    let (keep_lo, keep_hi) = if replace {
        (0, 0)
    } else {
        (target.lo.saturating_sub(ah), target.hi.min(dim - al))
    };
    // Flags survive only when the result is provably a subset of Z's
    // entries (no C survivors possible).
    let subset_of_z = replace || target.provably_empty();
    Fact {
        lo: in_lo + keep_lo,
        hi: in_hi.saturating_add(keep_hi),
        dim,
        iso: z.iso && subset_of_z,
        diagonal: z.diagonal && subset_of_z,
        structural_only: z.structural_only && subset_of_z,
    }
    .clamped()
}

/// Abstract a whole-container scalar assign (`C[:] = s` /
/// `C[:, :] = s` with no region restriction): every position receives
/// the same value, so the result is provably full and iso. The masked /
/// accumulated variants go through [`write_back`] with this as `t`.
pub fn full_iso(dim: usize) -> Fact {
    Fact {
        lo: dim,
        hi: dim,
        dim,
        iso: true,
        diagonal: false,
        structural_only: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_basics() {
        let t = Fact::top(10);
        assert!(!t.provably_empty() && !t.provably_full());
        assert!(t.admits(0) && t.admits(10));
        let e = Fact::empty(10);
        assert!(e.provably_empty() && e.iso && e.diagonal);
        let f = full_iso(10);
        assert!(f.provably_full() && f.iso);
        let j = e.join(&f);
        assert_eq!((j.lo, j.hi), (0, 10));
        assert!(j.iso && !j.diagonal);
    }

    #[test]
    fn ewise_bounds() {
        let u = Fact::exact(3, 10);
        let v = Fact::exact(4, 10);
        let add = ewise_add(&u, &v);
        assert_eq!((add.lo, add.hi), (4, 7));
        let mult = ewise_mult(&u, &v);
        assert_eq!((mult.lo, mult.hi), (0, 3));
        // Dense-side intersection lower bound: 8 + 9 - 10 = 7.
        let du = Fact::exact(8, 10);
        let dv = Fact::exact(9, 10);
        assert_eq!(ewise_mult(&du, &dv).lo, 7);
    }

    #[test]
    fn mxv_and_mxm_bounds() {
        let a = Fact::exact(5, 12); // 3×4 matrix, 5 entries
        let u = Fact::exact(2, 4);
        let t = mxv(&a, 3, &u);
        assert_eq!((t.lo, t.hi), (0, 3));
        let empty_u = Fact::empty(4);
        assert!(mxv(&a, 3, &empty_u).provably_empty());
        let full_a = full_iso(12);
        let nonempty = Fact {
            lo: 1,
            ..Fact::top(4)
        };
        assert!(mxv(&full_a, 3, &nonempty).provably_full());

        let b = Fact::exact(2, 12);
        let p = mxm(&a, &b, 3, 3, 4);
        assert_eq!((p.lo, p.hi), (0, 9));
        let tiny = mxm(&Fact::exact(1, 12), &Fact::exact(1, 12), 3, 3, 4);
        assert_eq!(tiny.hi, 1);
    }

    #[test]
    fn write_back_mask_replace_accum() {
        let dim = 10;
        let t = Fact::exact(6, dim);
        let c = Fact::exact(4, dim);
        let m = Fact::exact(3, dim);
        // Plain mask, REPLACE: at most min(6, 3) survive, possibly 0
        // (stored-false mask entries allow nothing).
        let out = write_back(&t, &c, Some((&m, false)), false, true);
        assert_eq!((out.lo, out.hi), (0, 3));
        // Plain mask, merge: up to 3 from Z plus up to 4 C survivors;
        // at least one C entry provably lands outside the ≤3 allowed
        // positions and survives.
        let out = write_back(&t, &c, Some((&m, false)), false, false);
        assert_eq!((out.lo, out.hi), (1, 7));
        // Complemented mask, REPLACE: allowed ∈ [7, 10].
        let out = write_back(&t, &c, Some((&m, true)), false, true);
        assert_eq!((out.lo, out.hi), (3, 6));
        // Accumulator union then unmasked write.
        let out = write_back(&t, &c, None, true, false);
        assert_eq!((out.lo, out.hi), (6, 10));
        // Empty T under no mask: provably empty out.
        let out = write_back(&Fact::empty(dim), &c, None, false, false);
        assert!(out.provably_empty());
        // ... but merging under a mask keeps C survivors (at least the
        // one provably outside the allowed positions).
        let out = write_back(&Fact::empty(dim), &c, Some((&m, false)), false, false);
        assert_eq!((out.lo, out.hi), (1, 4));
    }

    #[test]
    fn flags_preserved_where_sound() {
        let dim = 10;
        let iso_t = Fact {
            iso: true,
            ..Fact::exact(5, dim)
        };
        let m = Fact::exact(3, dim);
        let c = Fact::exact(4, dim);
        // REPLACE keeps only Z entries → iso survives.
        assert!(write_back(&iso_t, &c, Some((&m, false)), false, true).iso);
        // Merge may keep C entries → iso dropped.
        assert!(!write_back(&iso_t, &c, Some((&m, false)), false, false).iso);
        // Apply preserves the pattern flags.
        assert!(apply(&iso_t).iso);
    }
}
