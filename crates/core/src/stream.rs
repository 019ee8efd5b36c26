//! Streaming edge mutations at the typed DSL boundary.
//!
//! [`StreamingMatrix`] wraps the substrate's hypersparse delta layer
//! ([`gbtl::delta::DeltaMatrix`]) behind the same dtype erasure the
//! rest of the DSL uses: an 11-variant `DeltaStore` enum mirroring
//! `MatrixStore`, driven through dynamic dispatch. Update batches are
//! dynamic [`EdgeUpdate`]s whose values cast into the container dtype
//! exactly as `set` does; the plan-time analyzer validates each batch
//! (bounds → hard error, lossy value casts and coalesced duplicates →
//! lints, errors under `StrictTypes`) before anything mutates.
//!
//! Every batch and merge feeds the `stream/*` metrics namespace of the
//! PR-5 registry (`stream/update_batches`, `stream/edges_added`,
//! `stream/edges_deleted`, `stream/merges`, `stream/settles`, and the
//! `stream/update_batch_ns` / `stream/merge_ns` histograms), so a
//! trace of a live-updated service shows mutation cost alongside the
//! kernels it amortizes away.

use std::time::Instant;

use gbtl::delta::DeltaMatrix;
pub use gbtl::delta::MergePolicy;

use crate::analyze;
use crate::dtype::DType;
use crate::error::Result;
use crate::matrix::Matrix;
use crate::store::{MatrixData, MatrixStore};
use crate::value::DynScalar;

/// One dynamic edge mutation: `Some(val)` inserts or overwrites,
/// `None` deletes. The value casts into the container's dtype like
/// any other scalar write.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeUpdate {
    /// Row of the edge.
    pub row: usize,
    /// Column of the edge.
    pub col: usize,
    /// `Some` = insert/overwrite with this value, `None` = delete.
    pub val: Option<DynScalar>,
}

impl EdgeUpdate {
    /// An insert/overwrite of `(row, col)` with `val`.
    pub fn add(row: usize, col: usize, val: impl Into<DynScalar>) -> EdgeUpdate {
        EdgeUpdate {
            row,
            col,
            val: Some(val.into()),
        }
    }

    /// A deletion of `(row, col)` (no-op if the edge is absent).
    pub fn del(row: usize, col: usize) -> EdgeUpdate {
        EdgeUpdate {
            row,
            col,
            val: None,
        }
    }
}

/// A dtype-tagged delta container, mirroring [`MatrixStore`].
#[derive(Clone, Debug)]
enum DeltaStore {
    Bool(DeltaMatrix<bool>),
    Int8(DeltaMatrix<i8>),
    Int16(DeltaMatrix<i16>),
    Int32(DeltaMatrix<i32>),
    Int64(DeltaMatrix<i64>),
    UInt8(DeltaMatrix<u8>),
    UInt16(DeltaMatrix<u16>),
    UInt32(DeltaMatrix<u32>),
    UInt64(DeltaMatrix<u64>),
    Fp32(DeltaMatrix<f32>),
    Fp64(DeltaMatrix<f64>),
}

/// Expand `$mac!` over every (MatrixData variant, DeltaStore variant)
/// pair — the dtype-erasure boilerplate in one place.
macro_rules! for_each_dtype {
    ($mac:ident, $($extra:tt)*) => {
        $mac!($($extra)*; Bool, Int8, Int16, Int32, Int64, UInt8, UInt16, UInt32, UInt64, Fp32, Fp64)
    };
}

/// Run `$body` with `$d` bound to the typed delta inside the store.
macro_rules! dispatch_delta {
    ($store:expr, |$d:ident| $body:expr) => {
        match $store {
            DeltaStore::Bool($d) => $body,
            DeltaStore::Int8($d) => $body,
            DeltaStore::Int16($d) => $body,
            DeltaStore::Int32($d) => $body,
            DeltaStore::Int64($d) => $body,
            DeltaStore::UInt8($d) => $body,
            DeltaStore::UInt16($d) => $body,
            DeltaStore::UInt32($d) => $body,
            DeltaStore::UInt64($d) => $body,
            DeltaStore::Fp32($d) => $body,
            DeltaStore::Fp64($d) => $body,
        }
    };
}

impl DeltaStore {
    fn from_matrix_store(store: MatrixStore, policy: MergePolicy) -> DeltaStore {
        macro_rules! convert {
            (; $($v:ident),*) => {
                match store.into_data() {
                    $(MatrixData::$v(m) => DeltaStore::$v(DeltaMatrix::with_policy(m, policy)),)*
                }
            };
        }
        for_each_dtype!(convert,)
    }

    fn into_settled_store(self) -> MatrixStore {
        macro_rules! convert {
            (; $($v:ident),*) => {
                match self {
                    $(DeltaStore::$v(d) => MatrixData::$v(d.into_settled()).into(),)*
                }
            };
        }
        for_each_dtype!(convert,)
    }

    fn merged_store(&self) -> MatrixStore {
        macro_rules! convert {
            (; $($v:ident),*) => {
                match self {
                    $(DeltaStore::$v(d) => MatrixData::$v(d.merged()).into(),)*
                }
            };
        }
        for_each_dtype!(convert,)
    }

    fn dtype(&self) -> DType {
        macro_rules! name {
            (; $($v:ident),*) => {
                match self {
                    $(DeltaStore::$v(_) => DType::$v,)*
                }
            };
        }
        for_each_dtype!(name,)
    }
}

/// A dynamically typed graph container accepting streamed edge
/// mutations, layered over a settled CSR per the deferred-merge
/// policy. The write path of ROADMAP item 2: `update_edges` is
/// `O(batch)` amortized where republishing a rebuilt `Matrix` is
/// `O(nnz log nnz)` per batch.
#[derive(Clone, Debug)]
pub struct StreamingMatrix {
    store: DeltaStore,
}

impl StreamingMatrix {
    /// Layer an empty delta over a settled copy of `m` (default
    /// policy). The source handle is unaffected — this takes the
    /// copy-on-write snapshot, exactly like `dup`.
    pub fn from_matrix(m: &Matrix) -> Result<StreamingMatrix> {
        StreamingMatrix::with_policy(m, MergePolicy::default())
    }

    /// Layer an empty delta over a settled copy of `m` with an
    /// explicit merge policy.
    pub fn with_policy(m: &Matrix, policy: MergePolicy) -> Result<StreamingMatrix> {
        let mut settled = m.dup();
        settled.settle()?;
        let store = settled.take_store();
        Ok(StreamingMatrix {
            store: DeltaStore::from_matrix_store(store, policy),
        })
    }

    /// The container dtype (fixed at construction).
    pub fn dtype(&self) -> DType {
        self.store.dtype()
    }

    /// `(nrows, ncols)` — fixed; updates never resize.
    pub fn shape(&self) -> (usize, usize) {
        dispatch_delta!(&self.store, |d| d.shape())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.shape().1
    }

    /// Exact stored-edge count of the merged view — `O(1)`, no merge.
    pub fn nvals(&self) -> usize {
        dispatch_delta!(&self.store, |d| d.nvals())
    }

    /// Coordinates currently holding a pending (unmerged) op.
    pub fn pending_ops(&self) -> usize {
        dispatch_delta!(&self.store, |d| d.pending_ops())
    }

    /// Whether the overlay is empty (base CSR == merged view).
    pub fn is_settled(&self) -> bool {
        dispatch_delta!(&self.store, |d| d.is_settled())
    }

    /// Lifetime merge count (policy-triggered and explicit).
    pub fn merges(&self) -> u64 {
        dispatch_delta!(&self.store, |d| d.merges())
    }

    /// The merged value at `(i, j)`, seen through pending ops.
    pub fn get(&self, i: usize, j: usize) -> Option<DynScalar> {
        use crate::store::Element;
        dispatch_delta!(&self.store, |d| d.get(i, j).map(|v| v.to_dyn()))
    }

    /// Apply a batch of edge mutations. The analyzer validates first
    /// (bounds are hard [`crate::PygbError::Invalid`] errors; lossy
    /// value casts and same-coordinate duplicates are lints, errors
    /// under `StrictTypes`), then the typed delta applies the whole
    /// batch with last-write-wins semantics. May trigger a policy
    /// merge; all of it feeds `stream/*` metrics.
    pub fn update_edges(&mut self, batch: &[EdgeUpdate]) -> Result<()> {
        analyze::validate_update_batch(self.shape(), self.dtype(), batch)?;
        let start = Instant::now();
        let merges_before = self.merges();
        dispatch_delta!(&mut self.store, |d| {
            d.update_edges(
                batch
                    .iter()
                    .map(|u| (u.row, u.col, u.val.map(|v| v.to_scalar()))),
            )
            .map_err(crate::error::PygbError::from)?;
        });
        let adds = batch.iter().filter(|u| u.val.is_some()).count() as u64;
        let reg = pygb_obs::registry();
        reg.counter("stream/update_batches").inc();
        reg.counter("stream/edges_added").add(adds);
        reg.counter("stream/edges_deleted")
            .add(batch.len() as u64 - adds);
        reg.counter("stream/merges")
            .add(self.merges() - merges_before);
        reg.histogram("stream/update_batch_ns")
            .record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Merge all pending ops into the base CSR now (two-pointer
    /// splice). Recorded under `stream/settles` / `stream/merge_ns`.
    pub fn settle(&mut self) {
        let start = Instant::now();
        let had_pending = !self.is_settled();
        dispatch_delta!(&mut self.store, |d| {
            d.settle();
        });
        let reg = pygb_obs::registry();
        reg.counter("stream/settles").inc();
        if had_pending {
            reg.counter("stream/merges").inc();
            reg.histogram("stream/merge_ns")
                .record(start.elapsed().as_nanos() as u64);
        }
    }

    /// The merged view as an immutable DSL [`Matrix`], without
    /// consuming pending ops — what a catalog publishes as the next
    /// version while the stream keeps absorbing updates. Bit-identical
    /// to what [`StreamingMatrix::into_matrix`] would return.
    pub fn snapshot(&self) -> Matrix {
        Matrix::from_store(self.store.merged_store())
    }

    /// Settle and unwrap into an immutable DSL [`Matrix`].
    pub fn into_matrix(self) -> Matrix {
        Matrix::from_store(self.store.into_settled_store())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix {
        Matrix::from_triples(
            3,
            3,
            vec![(0usize, 1usize, 1.5f64), (1, 2, 2.5), (2, 0, 3.5)],
        )
        .unwrap()
    }

    #[test]
    fn updates_apply_and_settle_matches_rebuild() {
        let mut s = StreamingMatrix::from_matrix(&base()).unwrap();
        s.update_edges(&[
            EdgeUpdate::add(0, 0, 9.0f64),
            EdgeUpdate::del(1, 2),
            EdgeUpdate::add(0, 1, 4.5f64),
        ])
        .unwrap();
        assert_eq!(s.nvals(), 3);
        assert_eq!(s.get(0, 0).unwrap().as_f64(), 9.0);
        assert_eq!(s.get(1, 2), None);
        let rebuilt = Matrix::from_triples(
            3,
            3,
            vec![(0usize, 0usize, 9.0f64), (0, 1, 4.5), (2, 0, 3.5)],
        )
        .unwrap();
        assert_eq!(s.snapshot(), rebuilt);
        assert_eq!(s.into_matrix(), rebuilt);
    }

    #[test]
    fn values_cast_into_container_dtype() {
        let m = Matrix::from_triples(2, 2, vec![(0usize, 0usize, 1i64)]).unwrap();
        let mut s = StreamingMatrix::from_matrix(&m).unwrap();
        s.update_edges(&[EdgeUpdate::add(1, 1, 2.7f64)]).unwrap();
        assert_eq!(s.dtype(), DType::Int64);
        assert_eq!(s.get(1, 1).unwrap().as_i64(), 2); // C-cast truncation
        let lints = crate::analyze::take_lints();
        assert!(
            lints.iter().any(|l| l.contains("lossy")),
            "expected a lossy-cast lint, got {lints:?}"
        );
    }

    #[test]
    fn out_of_bounds_is_an_analyzer_error() {
        let mut s = StreamingMatrix::from_matrix(&base()).unwrap();
        let err = s
            .update_edges(&[EdgeUpdate::add(3, 0, 1.0f64)])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("update"), "{msg}");
        assert!(msg.contains("out of bounds"), "{msg}");
        assert!(s.is_settled()); // nothing mutated
        assert_eq!(s.nvals(), 3);
    }

    #[test]
    fn source_handle_is_unaffected() {
        let m = base();
        let mut s = StreamingMatrix::from_matrix(&m).unwrap();
        s.update_edges(&[EdgeUpdate::del(0, 1)]).unwrap();
        assert_eq!(s.nvals(), 2);
        assert_eq!(m.nvals(), 3); // copy-on-write snapshot untouched
    }

    #[test]
    fn policy_merge_is_counted() {
        let mut s = StreamingMatrix::with_policy(
            &base(),
            MergePolicy {
                max_pending: 2,
                read_pressure: usize::MAX,
            },
        )
        .unwrap();
        s.update_edges(&[EdgeUpdate::add(0, 0, 1.0f64), EdgeUpdate::add(1, 1, 2.0f64)])
            .unwrap();
        assert!(s.is_settled());
        assert_eq!(s.merges(), 1);
        assert_eq!(s.nvals(), 5);
    }
}
