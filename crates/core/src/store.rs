//! Type-erased container storage.
//!
//! Python containers don't know their element type until runtime; PyGB
//! tags each container with a NumPy dtype and selects the GBTL template
//! instantiation accordingly. [`MatrixStore`] / [`VectorStore`] are that
//! mechanism in Rust: an 11-variant enum over the monomorphized `gbtl`
//! containers, with the [`Element`] trait providing the typed
//! wrap/unwrap bridge kernels use after the JIT layer has selected the
//! right instantiation.
//!
//! A [`MatrixStore`] also owns its *derived views* — the same matrix
//! cast to another dtype ([`MatrixStore::cast_view`]) or transposed
//! ([`MatrixStore::transpose_view`]) — each built on first use and kept
//! until the store is dropped, so an operand that dispatch must convert
//! is converted once per store, not once per operation. A view can
//! never be stale: the matrix is reachable for writing only through
//! `MatrixStore::data_mut`, which empties the views, and a `clone`
//! (what `Arc::make_mut` does to a shared handle) starts with none.

use std::sync::{Arc, OnceLock};

use gbtl::{Matrix as GMatrix, Vector as GVector};
use pygb_obs::Counter;

use crate::dtype::{DType, ALL_DTYPES};
use crate::value::DynScalar;

/// A dtype-tagged sparse matrix together with its memoized views.
pub struct MatrixStore {
    data: MatrixData,
    views: Views,
}

/// The views derived from one store's matrix. A view is a store of its
/// own (a cast view memoizes its own transpose), owned by its source
/// and never pointing back at it, so there is no `Arc` cycle: dropping
/// the source frees every view no other handle still uses.
#[derive(Default)]
struct Views {
    /// Slot `d as usize`: the matrix cast to dtype `d`.
    cast: [OnceLock<Arc<MatrixStore>>; ALL_DTYPES.len()],
    transpose: OnceLock<Arc<MatrixStore>>,
}

/// The `views/*` registry counters, resolved once so a lookup costs one
/// relaxed increment.
struct ViewCounters {
    cast_built: Arc<Counter>,
    cast_hit: Arc<Counter>,
    transpose_built: Arc<Counter>,
    transpose_hit: Arc<Counter>,
}

fn view_counters() -> &'static ViewCounters {
    static COUNTERS: OnceLock<ViewCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = pygb_obs::registry();
        ViewCounters {
            cast_built: reg.counter("views/cast_built"),
            cast_hit: reg.counter("views/cast_hit"),
            transpose_built: reg.counter("views/transpose_built"),
            transpose_hit: reg.counter("views/transpose_hit"),
        }
    })
}

/// The slot's view, built by `build` if this is the first request.
/// Concurrent first requests block on the one build.
fn view_or_build(
    slot: &OnceLock<Arc<MatrixStore>>,
    built: &Counter,
    hit: &Counter,
    build: impl FnOnce() -> MatrixStore,
) -> Arc<MatrixStore> {
    let mut fresh = false;
    let view = slot.get_or_init(|| {
        fresh = true;
        Arc::new(build())
    });
    if fresh { built } else { hit }.inc();
    Arc::clone(view)
}

impl From<MatrixData> for MatrixStore {
    fn from(data: MatrixData) -> MatrixStore {
        MatrixStore {
            data,
            views: Views::default(),
        }
    }
}

impl Clone for MatrixStore {
    /// Copies the matrix; the copy builds its own views on demand.
    fn clone(&self) -> MatrixStore {
        MatrixStore::from(self.data.clone())
    }
}

impl PartialEq for MatrixStore {
    fn eq(&self, other: &MatrixStore) -> bool {
        self.data == other.data
    }
}

impl std::fmt::Debug for MatrixStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.data.fmt(f)
    }
}

/// The matrix inside a [`MatrixStore`]: one variant per dtype.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum MatrixData {
    /// `bool` storage.
    Bool(GMatrix<bool>),
    /// `int8` storage.
    Int8(GMatrix<i8>),
    /// `int16` storage.
    Int16(GMatrix<i16>),
    /// `int32` storage.
    Int32(GMatrix<i32>),
    /// `int64` storage.
    Int64(GMatrix<i64>),
    /// `uint8` storage.
    UInt8(GMatrix<u8>),
    /// `uint16` storage.
    UInt16(GMatrix<u16>),
    /// `uint32` storage.
    UInt32(GMatrix<u32>),
    /// `uint64` storage.
    UInt64(GMatrix<u64>),
    /// `fp32` storage.
    Fp32(GMatrix<f32>),
    /// `fp64` storage.
    Fp64(GMatrix<f64>),
}

/// A dtype-tagged sparse vector.
#[derive(Clone, Debug, PartialEq)]
pub enum VectorStore {
    /// `bool` storage.
    Bool(GVector<bool>),
    /// `int8` storage.
    Int8(GVector<i8>),
    /// `int16` storage.
    Int16(GVector<i16>),
    /// `int32` storage.
    Int32(GVector<i32>),
    /// `int64` storage.
    Int64(GVector<i64>),
    /// `uint8` storage.
    UInt8(GVector<u8>),
    /// `uint16` storage.
    UInt16(GVector<u16>),
    /// `uint32` storage.
    UInt32(GVector<u32>),
    /// `uint64` storage.
    UInt64(GVector<u64>),
    /// `fp32` storage.
    Fp32(GVector<f32>),
    /// `fp64` storage.
    Fp64(GVector<f64>),
}

/// Run `$body` with `$m` bound to the typed matrix inside `$data`.
macro_rules! dispatch_matrix {
    ($data:expr, |$m:ident| $body:expr) => {
        match $data {
            MatrixData::Bool($m) => $body,
            MatrixData::Int8($m) => $body,
            MatrixData::Int16($m) => $body,
            MatrixData::Int32($m) => $body,
            MatrixData::Int64($m) => $body,
            MatrixData::UInt8($m) => $body,
            MatrixData::UInt16($m) => $body,
            MatrixData::UInt32($m) => $body,
            MatrixData::UInt64($m) => $body,
            MatrixData::Fp32($m) => $body,
            MatrixData::Fp64($m) => $body,
        }
    };
}

/// Run `$body` with `$v` bound to the typed vector inside the store.
macro_rules! dispatch_vector {
    ($store:expr, |$v:ident| $body:expr) => {
        match $store {
            VectorStore::Bool($v) => $body,
            VectorStore::Int8($v) => $body,
            VectorStore::Int16($v) => $body,
            VectorStore::Int32($v) => $body,
            VectorStore::Int64($v) => $body,
            VectorStore::UInt8($v) => $body,
            VectorStore::UInt16($v) => $body,
            VectorStore::UInt32($v) => $body,
            VectorStore::UInt64($v) => $body,
            VectorStore::Fp32($v) => $body,
            VectorStore::Fp64($v) => $body,
        }
    };
}

/// A concrete scalar type usable as a PyGB element: ties a
/// [`gbtl::Scalar`] to its [`DType`] tag and store variant.
pub trait Element: gbtl::Scalar {
    /// This type's dtype tag.
    const DTYPE: DType;
    /// Wrap a typed matrix into a store.
    fn wrap_matrix(m: GMatrix<Self>) -> MatrixStore;
    /// Borrow the typed matrix out of a store (None on dtype mismatch).
    fn unwrap_matrix(s: &MatrixStore) -> Option<&GMatrix<Self>>;
    /// Take the typed matrix out of a store (None on dtype mismatch).
    fn unwrap_matrix_owned(s: MatrixStore) -> Option<GMatrix<Self>>;
    /// Wrap a typed vector into a store.
    fn wrap_vector(v: GVector<Self>) -> VectorStore;
    /// Borrow the typed vector out of a store.
    fn unwrap_vector(s: &VectorStore) -> Option<&GVector<Self>>;
    /// Take the typed vector out of a store.
    fn unwrap_vector_owned(s: VectorStore) -> Option<GVector<Self>>;
    /// Box a value of this type.
    fn to_dyn(self) -> DynScalar;
    /// Unbox a value into this type (casting as needed).
    fn from_dyn(v: DynScalar) -> Self;
}

macro_rules! impl_element {
    ($t:ty, $variant:ident, $dtype:expr) => {
        impl Element for $t {
            const DTYPE: DType = $dtype;
            fn wrap_matrix(m: GMatrix<Self>) -> MatrixStore {
                MatrixData::$variant(m).into()
            }
            fn unwrap_matrix(s: &MatrixStore) -> Option<&GMatrix<Self>> {
                match &s.data {
                    MatrixData::$variant(m) => Some(m),
                    _ => None,
                }
            }
            fn unwrap_matrix_owned(s: MatrixStore) -> Option<GMatrix<Self>> {
                match s.data {
                    MatrixData::$variant(m) => Some(m),
                    _ => None,
                }
            }
            fn wrap_vector(v: GVector<Self>) -> VectorStore {
                VectorStore::$variant(v)
            }
            fn unwrap_vector(s: &VectorStore) -> Option<&GVector<Self>> {
                match s {
                    VectorStore::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn unwrap_vector_owned(s: VectorStore) -> Option<GVector<Self>> {
                match s {
                    VectorStore::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn to_dyn(self) -> DynScalar {
                DynScalar::$variant(self)
            }
            fn from_dyn(v: DynScalar) -> Self {
                v.to_scalar::<$t>()
            }
        }
    };
}

impl_element!(bool, Bool, DType::Bool);
impl_element!(i8, Int8, DType::Int8);
impl_element!(i16, Int16, DType::Int16);
impl_element!(i32, Int32, DType::Int32);
impl_element!(i64, Int64, DType::Int64);
impl_element!(u8, UInt8, DType::UInt8);
impl_element!(u16, UInt16, DType::UInt16);
impl_element!(u32, UInt32, DType::UInt32);
impl_element!(u64, UInt64, DType::UInt64);
impl_element!(f32, Fp32, DType::Fp32);
impl_element!(f64, Fp64, DType::Fp64);

/// Apply a dtype-indexed constructor: `$make!(variant, type)` must
/// produce a value for each of the 11 dtypes.
macro_rules! construct_for_dtype {
    ($dtype:expr, $make:ident) => {
        match $dtype {
            DType::Bool => $make!(Bool, bool),
            DType::Int8 => $make!(Int8, i8),
            DType::Int16 => $make!(Int16, i16),
            DType::Int32 => $make!(Int32, i32),
            DType::Int64 => $make!(Int64, i64),
            DType::UInt8 => $make!(UInt8, u8),
            DType::UInt16 => $make!(UInt16, u16),
            DType::UInt32 => $make!(UInt32, u32),
            DType::UInt64 => $make!(UInt64, u64),
            DType::Fp32 => $make!(Fp32, f32),
            DType::Fp64 => $make!(Fp64, f64),
        }
    };
}

impl MatrixStore {
    /// An empty matrix of the given shape and dtype.
    pub fn new(nrows: usize, ncols: usize, dtype: DType) -> MatrixStore {
        macro_rules! make {
            ($variant:ident, $t:ty) => {
                MatrixData::$variant(GMatrix::<$t>::new(nrows, ncols))
            };
        }
        construct_for_dtype!(dtype, make).into()
    }

    /// Take the matrix out, leaving the views behind.
    pub(crate) fn into_data(self) -> MatrixData {
        self.data
    }

    /// The only write access to the matrix. Whatever the caller writes,
    /// the views no longer describe it: they are dropped here.
    fn data_mut(&mut self) -> &mut MatrixData {
        self.views = Views::default();
        &mut self.data
    }

    /// The dtype tag.
    pub fn dtype(&self) -> DType {
        match &self.data {
            MatrixData::Bool(_) => DType::Bool,
            MatrixData::Int8(_) => DType::Int8,
            MatrixData::Int16(_) => DType::Int16,
            MatrixData::Int32(_) => DType::Int32,
            MatrixData::Int64(_) => DType::Int64,
            MatrixData::UInt8(_) => DType::UInt8,
            MatrixData::UInt16(_) => DType::UInt16,
            MatrixData::UInt32(_) => DType::UInt32,
            MatrixData::UInt64(_) => DType::UInt64,
            MatrixData::Fp32(_) => DType::Fp32,
            MatrixData::Fp64(_) => DType::Fp64,
        }
    }

    /// Row count.
    pub fn nrows(&self) -> usize {
        dispatch_matrix!(&self.data, |m| m.nrows())
    }

    /// Column count.
    pub fn ncols(&self) -> usize {
        dispatch_matrix!(&self.data, |m| m.ncols())
    }

    /// Stored element count.
    pub fn nvals(&self) -> usize {
        dispatch_matrix!(&self.data, |m| m.nvals())
    }

    /// Boxed element access.
    pub fn get(&self, i: usize, j: usize) -> Option<DynScalar> {
        dispatch_matrix!(&self.data, |m| m.get(i, j).map(Element::to_dyn))
    }

    /// Boxed element write.
    pub fn set(&mut self, i: usize, j: usize, v: DynScalar) -> gbtl::Result<()> {
        dispatch_matrix!(self.data_mut(), |m| m.set(i, j, Element::from_dyn(v)))
    }

    /// A fresh copy cast to another dtype, sharing the index arrays
    /// with this store. Operands go through [`MatrixStore::cast_view`],
    /// which keeps the copy.
    pub fn cast(&self, to: DType) -> MatrixStore {
        macro_rules! make {
            ($variant:ident, $t:ty) => {
                MatrixData::$variant(dispatch_matrix!(&self.data, |m| m.cast::<$t>()))
            };
        }
        construct_for_dtype!(to, make).into()
    }

    /// This matrix as dtype `to`: the store itself when it already has
    /// that dtype, else the memoized cast. The `Bool` view is the
    /// pattern matrix masks use (`to_bool` coercion of every stored
    /// value).
    pub fn cast_view(self: &Arc<Self>, to: DType) -> Arc<MatrixStore> {
        if self.dtype() == to {
            return Arc::clone(self);
        }
        let c = view_counters();
        view_or_build(
            &self.views.cast[to as usize],
            &c.cast_built,
            &c.cast_hit,
            || self.cast(to),
        )
    }

    /// Boxed triples (row, col, value) in row-major order.
    pub fn extract_triples_dyn(&self) -> Vec<(usize, usize, DynScalar)> {
        dispatch_matrix!(&self.data, |m| m
            .iter()
            .map(|(i, j, v)| (i, j, Element::to_dyn(v)))
            .collect())
    }

    /// Materialize the transpose as a new store of the same dtype (a
    /// typed counting sort; no per-element boxing).
    pub fn transposed(&self) -> MatrixStore {
        dispatch_matrix!(&self.data, |m| Element::wrap_matrix(m.transpose_owned()))
    }

    /// The memoized [`MatrixStore::transposed`]. Kernels use it to
    /// honor a plan-time SpMV direction that disagrees with the stored
    /// orientation, so a loop that pulls the same graph every ply pays
    /// the counting sort once. The view's own transpose slot starts
    /// empty — it does not point back here.
    pub fn transpose_view(&self) -> Arc<MatrixStore> {
        let c = view_counters();
        view_or_build(
            &self.views.transpose,
            &c.transpose_built,
            &c.transpose_hit,
            || self.transposed(),
        )
    }

    /// Placeholder store used when temporarily taking ownership.
    pub(crate) fn placeholder() -> MatrixStore {
        MatrixData::Bool(GMatrix::new(0, 0)).into()
    }

    /// Build from boxed triples: every value crosses the dynamic
    /// boundary individually (one dtype dispatch + unbox per element —
    /// the Python-list construction cost of Fig. 11), then the typed
    /// container is assembled in one pass. Duplicates keep the last
    /// value, like repeated Python list appends.
    pub fn from_dyn_triples(
        nrows: usize,
        ncols: usize,
        triples: &[(usize, usize, DynScalar)],
        dtype: DType,
    ) -> gbtl::Result<MatrixStore> {
        macro_rules! make {
            ($variant:ident, $t:ty) => {{
                let typed: Vec<(usize, usize, $t)> = triples
                    .iter()
                    .map(|&(i, j, v)| (i, j, <$t as Element>::from_dyn(v)))
                    .collect();
                GMatrix::from_triples_dedup_with(nrows, ncols, typed, |_, b| b)
                    .map(|m| MatrixData::$variant(m).into())
            }};
        }
        construct_for_dtype!(dtype, make)
    }
}

impl VectorStore {
    /// An empty vector of the given size and dtype.
    pub fn new(size: usize, dtype: DType) -> VectorStore {
        macro_rules! make {
            ($variant:ident, $t:ty) => {
                VectorStore::$variant(GVector::<$t>::new(size))
            };
        }
        construct_for_dtype!(dtype, make)
    }

    /// The dtype tag.
    pub fn dtype(&self) -> DType {
        match self {
            VectorStore::Bool(_) => DType::Bool,
            VectorStore::Int8(_) => DType::Int8,
            VectorStore::Int16(_) => DType::Int16,
            VectorStore::Int32(_) => DType::Int32,
            VectorStore::Int64(_) => DType::Int64,
            VectorStore::UInt8(_) => DType::UInt8,
            VectorStore::UInt16(_) => DType::UInt16,
            VectorStore::UInt32(_) => DType::UInt32,
            VectorStore::UInt64(_) => DType::UInt64,
            VectorStore::Fp32(_) => DType::Fp32,
            VectorStore::Fp64(_) => DType::Fp64,
        }
    }

    /// Dimension.
    pub fn size(&self) -> usize {
        dispatch_vector!(self, |v| v.size())
    }

    /// Stored element count.
    pub fn nvals(&self) -> usize {
        dispatch_vector!(self, |v| v.nvals())
    }

    /// Boxed element access.
    pub fn get(&self, i: usize) -> Option<DynScalar> {
        dispatch_vector!(self, |v| v.get(i).map(Element::to_dyn))
    }

    /// Boxed element write.
    pub fn set(&mut self, i: usize, val: DynScalar) -> gbtl::Result<()> {
        dispatch_vector!(self, |v| v.set(i, Element::from_dyn(val)))
    }

    /// Cast to another dtype.
    pub fn cast(&self, to: DType) -> VectorStore {
        if self.dtype() == to {
            return self.clone();
        }
        macro_rules! make {
            ($variant:ident, $t:ty) => {
                VectorStore::$variant(dispatch_vector!(self, |v| v.cast::<$t>()))
            };
        }
        construct_for_dtype!(to, make)
    }

    /// Boxed pairs (index, value) in index order.
    pub fn extract_pairs_dyn(&self) -> Vec<(usize, DynScalar)> {
        dispatch_vector!(self, |v| v
            .iter()
            .map(|(i, x)| (i, Element::to_dyn(x)))
            .collect())
    }

    /// Placeholder store used when temporarily taking ownership.
    pub(crate) fn placeholder() -> VectorStore {
        VectorStore::Bool(GVector::new(0))
    }

    /// Build from boxed pairs (see [`MatrixStore::from_dyn_triples`]).
    pub fn from_dyn_pairs(
        size: usize,
        pairs: &[(usize, DynScalar)],
        dtype: DType,
    ) -> gbtl::Result<VectorStore> {
        macro_rules! make {
            ($variant:ident, $t:ty) => {{
                let typed: Vec<(usize, $t)> = pairs
                    .iter()
                    .map(|&(i, v)| (i, <$t as Element>::from_dyn(v)))
                    .collect();
                GVector::from_pairs_dedup_with(size, typed, |_, b| b).map(VectorStore::$variant)
            }};
        }
        construct_for_dtype!(dtype, make)
    }
}

/// A vector store is a mask in its own dtype: each stored value coerces
/// to boolean where it is read, so masking needs no `Bool` copy of the
/// store. Bulk reads (`stored_indices`, `truthy_indices`) resolve the
/// dtype once per call.
impl gbtl::VectorMask for VectorStore {
    fn mask_size(&self) -> usize {
        self.size()
    }
    fn allows(&self, i: usize) -> bool {
        dispatch_vector!(self, |v| v.allows(i))
    }
    fn probe(&self) -> gbtl::MaskProbe {
        gbtl::MaskProbe::Structural
    }
    fn stored_indices(&self) -> &[usize] {
        dispatch_vector!(self, |v| v.indices())
    }
    fn stored_truthy(&self, p: usize) -> bool {
        dispatch_vector!(self, |v| v.stored_truthy(p))
    }
    fn truthy_indices(&self, out: &mut Vec<usize>) {
        dispatch_vector!(self, |v| v.truthy_indices(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_requested_dtype_and_shape() {
        let m = MatrixStore::new(3, 4, DType::Fp32);
        assert_eq!(m.dtype(), DType::Fp32);
        assert_eq!((m.nrows(), m.ncols()), (3, 4));
        assert_eq!(m.nvals(), 0);
        let v = VectorStore::new(7, DType::Int16);
        assert_eq!(v.dtype(), DType::Int16);
        assert_eq!(v.size(), 7);
    }

    #[test]
    fn boxed_get_set_roundtrip() {
        let mut m = MatrixStore::new(2, 2, DType::Int32);
        m.set(0, 1, DynScalar::from(42i64)).unwrap(); // cast on entry
        assert_eq!(m.get(0, 1), Some(DynScalar::Int32(42)));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn cast_converts_values() {
        let mut m = MatrixStore::new(1, 1, DType::Fp64);
        m.set(0, 0, DynScalar::from(2.7f64)).unwrap();
        let i = m.cast(DType::Int8);
        assert_eq!(i.dtype(), DType::Int8);
        assert_eq!(i.get(0, 0), Some(DynScalar::Int8(2)));
        // Same-dtype cast is a plain clone.
        let same = m.cast(DType::Fp64);
        assert_eq!(same, m);
    }

    fn one_entry() -> Arc<MatrixStore> {
        Arc::new(
            MatrixStore::from_dyn_triples(2, 3, &[(0, 2, DynScalar::Int64(7))], DType::Int64)
                .unwrap(),
        )
    }

    #[test]
    fn transpose_view_is_memoized_per_store() {
        let m = one_entry();
        let t1 = m.transpose_view();
        let t2 = m.transpose_view();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!((t1.nrows(), t1.ncols()), (3, 2));
        assert_eq!(t1.get(2, 0).map(|v| v.as_i64()), Some(7));
        // A distinct store with equal contents has views of its own.
        assert!(!Arc::ptr_eq(&t1, &one_entry().transpose_view()));
        // The view does not point back: its transpose is a third store.
        assert!(!Arc::ptr_eq(&t1.transpose_view(), &m));
        assert_eq!(*t1.transpose_view(), *m);
    }

    #[test]
    fn cast_view_is_memoized_and_is_the_store_itself_for_its_own_dtype() {
        let m = one_entry();
        assert!(Arc::ptr_eq(&m.cast_view(DType::Int64), &m));
        let b1 = m.cast_view(DType::Bool);
        let b2 = m.cast_view(DType::Bool);
        assert!(Arc::ptr_eq(&b1, &b2));
        assert_eq!(*b1, m.cast(DType::Bool));
        assert_eq!(b1.get(0, 2), Some(DynScalar::Bool(true)));
        assert!(!Arc::ptr_eq(&b1, &m.cast_view(DType::Fp32)));
    }

    #[test]
    fn dropping_the_store_frees_its_views() {
        let m = one_entry();
        let cast = Arc::downgrade(&m.cast_view(DType::Fp64));
        let transpose = Arc::downgrade(&m.transpose_view());
        let nested = Arc::downgrade(&m.cast_view(DType::Fp64).transpose_view());
        assert!(cast.upgrade().is_some() && transpose.upgrade().is_some());
        drop(m);
        assert!(cast.upgrade().is_none());
        assert!(transpose.upgrade().is_none());
        assert!(nested.upgrade().is_none());
    }

    #[test]
    fn a_write_or_a_clone_starts_with_no_views() {
        let mut m = one_entry();
        let stale = m.cast_view(DType::Bool);
        let stale_t = m.transpose_view();
        // A shared handle copies on write; the copy has no views yet.
        let snapshot = Arc::clone(&m);
        Arc::make_mut(&mut m)
            .set(1, 0, DynScalar::Int64(0))
            .unwrap();
        assert!(Arc::ptr_eq(&snapshot.cast_view(DType::Bool), &stale));
        assert_eq!(m.cast_view(DType::Bool).nvals(), 2);
        assert_eq!(stale.nvals(), 1);
        // An unshared handle is written in place: `set` drops its views.
        drop(snapshot);
        let before = m.cast_view(DType::Bool);
        Arc::make_mut(&mut m)
            .set(1, 1, DynScalar::Int64(5))
            .unwrap();
        let after = m.cast_view(DType::Bool);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!((before.nvals(), after.nvals()), (2, 3));
        assert_eq!(m.transpose_view().get(1, 1), Some(DynScalar::Int64(5)));
        assert_eq!(stale_t.nvals(), 1);
    }

    #[test]
    fn element_wrap_unwrap() {
        let g = GMatrix::<f64>::new(2, 2);
        let s = f64::wrap_matrix(g);
        assert!(f64::unwrap_matrix(&s).is_some());
        assert!(i32::unwrap_matrix(&s).is_none());
        assert!(f64::unwrap_matrix_owned(s).is_some());
    }

    #[test]
    fn a_vector_store_masks_in_its_own_dtype() {
        use gbtl::VectorMask;
        let mut v = VectorStore::new(4, DType::Fp64);
        v.set(0, DynScalar::from(0.0f64)).unwrap();
        v.set(2, DynScalar::from(-2.0f64)).unwrap();
        v.set(3, DynScalar::from(f64::NAN)).unwrap();
        assert_eq!(v.stored_indices(), &[0, 2, 3]);
        assert!(!v.stored_truthy(0)); // a stored zero masks out
        assert!(v.stored_truthy(1));
        assert_eq!(
            (v.allows(0), v.allows(1), v.allows(2)),
            (false, false, true)
        );
        let mut truthy = Vec::new();
        v.truthy_indices(&mut truthy);
        // The pattern is the one a `Bool` cast of the store holds.
        let b = match v.cast(DType::Bool) {
            VectorStore::Bool(b) => b,
            other => panic!("cast to bool gave {:?}", other.dtype()),
        };
        let want: Vec<usize> = b.iter().filter(|&(_, t)| t).map(|(i, _)| i).collect();
        assert_eq!(truthy, want);
        assert_eq!(v.allows(3), b.get(3) == Some(true));
    }

    #[test]
    fn extract_dyn() {
        let mut m = MatrixStore::new(2, 2, DType::UInt8);
        m.set(1, 0, DynScalar::from(9u8)).unwrap();
        assert_eq!(m.extract_triples_dyn(), vec![(1, 0, DynScalar::UInt8(9))]);
    }

    #[test]
    fn every_dtype_constructible() {
        for d in crate::dtype::ALL_DTYPES {
            let m = MatrixStore::new(1, 1, d);
            assert_eq!(m.dtype(), d);
            let v = VectorStore::new(1, d);
            assert_eq!(v.dtype(), d);
        }
    }
}
