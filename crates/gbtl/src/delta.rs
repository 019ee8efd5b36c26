//! Hypersparse delta layer for streaming edge mutations.
//!
//! A [`DeltaMatrix`] layers a bucketed COO of *pending* edge inserts
//! and deletes over a settled CSR base, so a batch of `b` updates costs
//! `O(b log b)` bookkeeping instead of the `O(nnz log nnz)` full
//! rebuild that `Matrix::from_triples` performs. The pending side is
//! hypersparse in the DCSC spirit: only rows that have at least one
//! pending op occupy memory, held as an ordered `row → (col → op)`
//! two-level map so the eventual merge visits coordinates in CSR
//! order with no sort.
//!
//! Settling (merging the delta into the base) is a per-row two-pointer
//! *splice*: `O(nnz + pending)` with no comparison sort, which is what
//! makes `update → settle → query` cheaper than rebuild even when the
//! whole container is consumed. Equivalence with rebuild is the
//! load-bearing claim: [`DeltaMatrix::settle`] must produce a CSR
//! bit-identical to `Matrix::from_triples` over the post-update triple
//! set, and `crates/gbtl/tests/delta_oracle.rs` proves it
//! differentially against [`crate::reference::apply_edge_updates`].
//!
//! Merge policy: the delta settles itself when the pending-op count
//! crosses [`MergePolicy::max_pending`], when tracked reads
//! ([`DeltaMatrix::read`]) hit [`MergePolicy::read_pressure`] while
//! ops are pending, or on an explicit [`DeltaMatrix::settle`].

use std::collections::BTreeMap;

use crate::error::{GblasError, Result};
use crate::index::IndexType;
use crate::matrix::{CsrBuilder, Matrix};
use crate::scalar::Scalar;

/// One pending mutation at a coordinate: the last write wins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeOp<T> {
    /// Insert or overwrite the edge with this value.
    Insert(T),
    /// Delete the edge (no-op at merge time if it never existed).
    Delete,
}

/// When a [`DeltaMatrix`] merges its pending ops into the base CSR.
#[derive(Clone, Copy, Debug)]
pub struct MergePolicy {
    /// Settle once this many coordinates have pending ops.
    pub max_pending: usize,
    /// Settle once this many tracked reads ([`DeltaMatrix::read`])
    /// have probed the container while ops were pending.
    pub read_pressure: usize,
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy {
            max_pending: 4096,
            read_pressure: 64,
        }
    }
}

/// A CSR base plus a hypersparse overlay of pending edge mutations.
///
/// Reads see through the overlay (delta-first probe), `nvals` is
/// maintained exactly as updates arrive, and the overlay folds into
/// the base lazily per [`MergePolicy`].
#[derive(Clone, Debug)]
pub struct DeltaMatrix<T> {
    base: Matrix<T>,
    /// Pending ops, bucketed by row — only touched rows are present.
    pending: BTreeMap<IndexType, BTreeMap<IndexType, EdgeOp<T>>>,
    /// Total coordinates with a pending op (not batch length: updates
    /// to the same coordinate coalesce, last write wins).
    pending_ops: usize,
    /// Exact stored-element count of the merged view.
    visible_nvals: usize,
    /// Tracked reads since the last settle (read-pressure counter).
    reads_since_settle: usize,
    /// Number of merges performed over this container's lifetime.
    merges: u64,
    policy: MergePolicy,
}

impl<T: Scalar> DeltaMatrix<T> {
    /// Layer an empty delta over `base` with the default policy.
    pub fn new(base: Matrix<T>) -> Self {
        DeltaMatrix::with_policy(base, MergePolicy::default())
    }

    /// Layer an empty delta over `base` with an explicit policy.
    pub fn with_policy(base: Matrix<T>, policy: MergePolicy) -> Self {
        let visible_nvals = base.nvals();
        DeltaMatrix {
            base,
            pending: BTreeMap::new(),
            pending_ops: 0,
            visible_nvals,
            reads_since_settle: 0,
            merges: 0,
            policy,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> IndexType {
        self.base.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> IndexType {
        self.base.ncols()
    }

    /// `(nrows, ncols)` — fixed at construction; updates never resize.
    #[inline]
    pub fn shape(&self) -> (IndexType, IndexType) {
        self.base.shape()
    }

    /// Exact stored-element count of the merged view, maintained
    /// incrementally — `O(1)`, no merge.
    #[inline]
    pub fn nvals(&self) -> usize {
        self.visible_nvals
    }

    /// Coordinates currently holding a pending op.
    #[inline]
    pub fn pending_ops(&self) -> usize {
        self.pending_ops
    }

    /// Rows currently holding at least one pending op.
    #[inline]
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Whether the overlay is empty (base == merged view).
    #[inline]
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    /// How many times this container has merged (policy or explicit).
    #[inline]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// The settled CSR underneath the overlay. Pending ops are NOT
    /// visible here; use [`DeltaMatrix::settle`] or
    /// [`DeltaMatrix::merged`] for the full view.
    #[inline]
    pub fn base(&self) -> &Matrix<T> {
        &self.base
    }

    /// The merged value at `(i, j)`: pending op if present, else base.
    /// Does not count toward read pressure (usable through `&self`).
    pub fn get(&self, i: IndexType, j: IndexType) -> Option<T> {
        match self.pending.get(&i).and_then(|row| row.get(&j)) {
            Some(EdgeOp::Insert(v)) => Some(*v),
            Some(EdgeOp::Delete) => None,
            None => self.base.get(i, j),
        }
    }

    /// A tracked read: like [`DeltaMatrix::get`], but counts toward the
    /// policy's read-pressure threshold and may trigger an auto-merge
    /// first (so repeated point reads amortize the splice).
    pub fn read(&mut self, i: IndexType, j: IndexType) -> Option<T> {
        if !self.pending.is_empty() {
            self.reads_since_settle += 1;
            if self.reads_since_settle >= self.policy.read_pressure {
                self.settle();
            }
        }
        self.get(i, j)
    }

    /// Apply a batch of updates: `Some(v)` inserts/overwrites, `None`
    /// deletes. Within a batch (and across batches) the last write to a
    /// coordinate wins. Returns the number of ops applied. Cost is
    /// `O(batch · log)` plus an eventual amortized splice; triggers an
    /// auto-merge when pending coordinates cross the policy threshold.
    pub fn update_edges<I>(&mut self, batch: I) -> Result<usize>
    where
        I: IntoIterator<Item = (IndexType, IndexType, Option<T>)>,
    {
        let (nrows, ncols) = self.shape();
        let mut applied = 0;
        for (i, j, op) in batch {
            if i >= nrows {
                return Err(GblasError::IndexOutOfBounds {
                    index: i,
                    bound: nrows,
                });
            }
            if j >= ncols {
                return Err(GblasError::IndexOutOfBounds {
                    index: j,
                    bound: ncols,
                });
            }
            let was_visible = self.get(i, j).is_some();
            let row = self.pending.entry(i).or_default();
            let now_visible = match op {
                Some(v) => {
                    if row.insert(j, EdgeOp::Insert(v)).is_none() {
                        self.pending_ops += 1;
                    }
                    true
                }
                None => {
                    if row.insert(j, EdgeOp::Delete).is_none() {
                        self.pending_ops += 1;
                    }
                    false
                }
            };
            match (was_visible, now_visible) {
                (false, true) => self.visible_nvals += 1,
                (true, false) => self.visible_nvals -= 1,
                _ => {}
            }
            applied += 1;
        }
        if self.pending_ops >= self.policy.max_pending {
            self.settle();
        }
        Ok(applied)
    }

    /// Insert or overwrite one edge.
    pub fn insert(&mut self, i: IndexType, j: IndexType, v: T) -> Result<()> {
        self.update_edges([(i, j, Some(v))]).map(|_| ())
    }

    /// Delete one edge (no-op at merge time if absent).
    pub fn delete(&mut self, i: IndexType, j: IndexType) -> Result<()> {
        self.update_edges([(i, j, None)]).map(|_| ())
    }

    /// Merge all pending ops into the base CSR (two-pointer splice,
    /// `O(nnz + pending)`, no sort) and return the settled matrix.
    pub fn settle(&mut self) -> &Matrix<T> {
        if !self.pending.is_empty() {
            self.base = self.splice();
            self.pending.clear();
            self.pending_ops = 0;
            self.merges += 1;
        }
        self.reads_since_settle = 0;
        &self.base
    }

    /// The merged view as a standalone matrix, without consuming the
    /// pending ops (the container stays unsettled). Bit-identical to
    /// what [`DeltaMatrix::settle`] would produce.
    pub fn merged(&self) -> Matrix<T> {
        if self.pending.is_empty() {
            self.base.clone()
        } else {
            self.splice()
        }
    }

    /// Settle and take the base, consuming the container.
    pub fn into_settled(mut self) -> Matrix<T> {
        self.settle();
        self.base
    }

    /// Stored `(row, col, value)` triples of the merged view, in
    /// row-major order.
    pub fn extract_triples(&self) -> Vec<(IndexType, IndexType, T)> {
        self.merged().extract_triples()
    }

    /// Per-row two-pointer splice of base CSR and pending overlay.
    fn splice(&self) -> Matrix<T> {
        let (nrows, ncols) = self.shape();
        let mut out = CsrBuilder::new(nrows, self.visible_nvals);
        for i in 0..nrows {
            let (cols, vals) = self.base.row(i);
            match self.pending.get(&i) {
                None => out.extend(cols, vals),
                Some(ops) => {
                    let mut b = 0;
                    let mut ops_it = ops.iter().peekable();
                    loop {
                        // Pending op strictly left of the next base
                        // entry (or base exhausted): emit / skip it.
                        let next_base_col = cols.get(b).copied();
                        match ops_it.peek() {
                            Some(&(&c, op)) if next_base_col.is_none_or(|bc| c < bc) => {
                                if let EdgeOp::Insert(v) = op {
                                    out.push(c, *v);
                                }
                                ops_it.next();
                            }
                            Some(&(&c, op)) if next_base_col == Some(c) => {
                                // Op shadows the base entry.
                                if let EdgeOp::Insert(v) = op {
                                    out.push(c, *v);
                                }
                                ops_it.next();
                                b += 1;
                            }
                            _ => {
                                // Base entry unaffected, or both done.
                                match next_base_col {
                                    Some(bc) => {
                                        out.push(bc, vals[b]);
                                        b += 1;
                                    }
                                    None => break,
                                }
                            }
                        }
                    }
                }
            }
            out.end_row();
        }
        let merged = out.finish(ncols);
        debug_assert_eq!(merged.nvals(), self.visible_nvals);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix<i64> {
        Matrix::from_triples(
            4,
            4,
            [(0usize, 1usize, 10i64), (0, 3, 7), (1, 2, -2), (3, 0, 5)],
        )
        .unwrap()
    }

    #[test]
    fn reads_see_through_overlay() {
        let mut d = DeltaMatrix::new(base());
        d.insert(2, 2, 99).unwrap();
        d.delete(0, 1).unwrap();
        assert_eq!(d.get(2, 2), Some(99));
        assert_eq!(d.get(0, 1), None);
        assert_eq!(d.get(0, 3), Some(7)); // untouched base entry
        assert_eq!(d.nvals(), 4); // 4 - 1 delete + 1 insert
        assert!(!d.is_settled());
    }

    #[test]
    fn settle_matches_rebuild_bit_identically() {
        let mut d = DeltaMatrix::new(base());
        d.update_edges([
            (2usize, 2usize, Some(99i64)),
            (0, 1, None),
            (0, 0, Some(1)),
            (3, 0, Some(6)), // overwrite
            (1, 1, None),    // delete of absent edge: no-op
        ])
        .unwrap();
        let rebuilt = Matrix::from_triples(
            4,
            4,
            [
                (0usize, 0usize, 1i64),
                (0, 3, 7),
                (1, 2, -2),
                (2, 2, 99),
                (3, 0, 6),
            ],
        )
        .unwrap();
        assert_eq!(d.merged(), rebuilt);
        assert_eq!(*d.settle(), rebuilt);
        assert!(d.is_settled());
        assert_eq!(d.merges(), 1);
    }

    #[test]
    fn last_write_wins_within_batch() {
        let mut d = DeltaMatrix::new(base());
        d.update_edges([
            (2usize, 0usize, Some(1i64)),
            (2, 0, Some(2)),
            (2, 0, None),
            (2, 1, None),
            (2, 1, Some(4)),
        ])
        .unwrap();
        assert_eq!(d.get(2, 0), None);
        assert_eq!(d.get(2, 1), Some(4));
        assert_eq!(d.pending_ops(), 2); // coalesced per coordinate
        assert_eq!(d.nvals(), 5);
    }

    #[test]
    fn nvals_tracks_deletes_of_pending_inserts() {
        let mut d = DeltaMatrix::new(base());
        d.insert(2, 2, 1).unwrap();
        assert_eq!(d.nvals(), 5);
        d.delete(2, 2).unwrap();
        assert_eq!(d.nvals(), 4);
        d.delete(0, 1).unwrap();
        d.insert(0, 1, 3).unwrap();
        assert_eq!(d.nvals(), 4);
        assert_eq!(d.settle().nvals(), 4);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut d = DeltaMatrix::new(base());
        assert!(d.insert(4, 0, 1).is_err());
        assert!(d.insert(0, 4, 1).is_err());
        assert!(d.is_settled()); // failed batch left nothing pending
    }

    #[test]
    fn max_pending_triggers_auto_merge() {
        let mut d = DeltaMatrix::with_policy(
            base(),
            MergePolicy {
                max_pending: 3,
                read_pressure: usize::MAX,
            },
        );
        d.insert(0, 0, 1).unwrap();
        d.insert(1, 1, 2).unwrap();
        assert!(!d.is_settled());
        d.insert(2, 2, 3).unwrap(); // hits the threshold
        assert!(d.is_settled());
        assert_eq!(d.merges(), 1);
        assert_eq!(d.base().nvals(), 7);
    }

    #[test]
    fn read_pressure_triggers_auto_merge() {
        let mut d = DeltaMatrix::with_policy(
            base(),
            MergePolicy {
                max_pending: usize::MAX,
                read_pressure: 2,
            },
        );
        d.insert(0, 0, 1).unwrap();
        assert_eq!(d.read(0, 0), Some(1));
        assert!(!d.is_settled());
        assert_eq!(d.read(0, 3), Some(7)); // second tracked read settles
        assert!(d.is_settled());
        // Settled container: reads no longer accumulate pressure.
        assert_eq!(d.read(0, 0), Some(1));
        assert_eq!(d.merges(), 1);
    }

    #[test]
    fn pending_rows_is_hypersparse() {
        let mut d = DeltaMatrix::new(Matrix::<i64>::new(1_000_000, 1_000_000));
        d.insert(999_999, 0, 1).unwrap();
        d.insert(999_999, 7, 2).unwrap();
        d.insert(3, 3, 3).unwrap();
        assert_eq!(d.pending_rows(), 2);
        assert_eq!(d.pending_ops(), 3);
        assert_eq!(d.nvals(), 3);
    }

    #[test]
    fn empty_delta_settle_is_identity() {
        let m = base();
        let mut d = DeltaMatrix::new(m.clone());
        assert_eq!(*d.settle(), m);
        assert_eq!(d.merges(), 0);
        assert_eq!(d.merged(), m);
    }
}
