//! Type-erased container storage.
//!
//! Python containers don't know their element type until runtime; PyGB
//! tags each container with a NumPy dtype and selects the GBTL template
//! instantiation accordingly. [`MatrixStore`] / [`VectorStore`] are that
//! mechanism in Rust: an 11-variant enum over the monomorphized `gbtl`
//! containers, with the [`Element`] trait providing the typed
//! wrap/unwrap bridge kernels use after the JIT layer has selected the
//! right instantiation.

use gbtl::{Matrix as GMatrix, Vector as GVector};

use crate::dtype::DType;
use crate::value::DynScalar;

/// A dtype-tagged sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub enum MatrixStore {
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

/// Run `$body` with `$m` bound to the typed matrix inside the store.
macro_rules! dispatch_matrix {
    ($store:expr, |$m:ident| $body:expr) => {
        match $store {
            MatrixStore::Bool($m) => $body,
            MatrixStore::Int8($m) => $body,
            MatrixStore::Int16($m) => $body,
            MatrixStore::Int32($m) => $body,
            MatrixStore::Int64($m) => $body,
            MatrixStore::UInt8($m) => $body,
            MatrixStore::UInt16($m) => $body,
            MatrixStore::UInt32($m) => $body,
            MatrixStore::UInt64($m) => $body,
            MatrixStore::Fp32($m) => $body,
            MatrixStore::Fp64($m) => $body,
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
                MatrixStore::$variant(m)
            }
            fn unwrap_matrix(s: &MatrixStore) -> Option<&GMatrix<Self>> {
                match s {
                    MatrixStore::$variant(m) => Some(m),
                    _ => None,
                }
            }
            fn unwrap_matrix_owned(s: MatrixStore) -> Option<GMatrix<Self>> {
                match s {
                    MatrixStore::$variant(m) => Some(m),
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
                MatrixStore::$variant(GMatrix::<$t>::new(nrows, ncols))
            };
        }
        construct_for_dtype!(dtype, make)
    }

    /// The dtype tag.
    pub fn dtype(&self) -> DType {
        match self {
            MatrixStore::Bool(_) => DType::Bool,
            MatrixStore::Int8(_) => DType::Int8,
            MatrixStore::Int16(_) => DType::Int16,
            MatrixStore::Int32(_) => DType::Int32,
            MatrixStore::Int64(_) => DType::Int64,
            MatrixStore::UInt8(_) => DType::UInt8,
            MatrixStore::UInt16(_) => DType::UInt16,
            MatrixStore::UInt32(_) => DType::UInt32,
            MatrixStore::UInt64(_) => DType::UInt64,
            MatrixStore::Fp32(_) => DType::Fp32,
            MatrixStore::Fp64(_) => DType::Fp64,
        }
    }

    /// Row count.
    pub fn nrows(&self) -> usize {
        dispatch_matrix!(self, |m| m.nrows())
    }

    /// Column count.
    pub fn ncols(&self) -> usize {
        dispatch_matrix!(self, |m| m.ncols())
    }

    /// Stored element count.
    pub fn nvals(&self) -> usize {
        dispatch_matrix!(self, |m| m.nvals())
    }

    /// Boxed element access.
    pub fn get(&self, i: usize, j: usize) -> Option<DynScalar> {
        dispatch_matrix!(self, |m| m.get(i, j).map(Element::to_dyn))
    }

    /// Boxed element write.
    pub fn set(&mut self, i: usize, j: usize, v: DynScalar) -> gbtl::Result<()> {
        dispatch_matrix!(self, |m| m.set(i, j, Element::from_dyn(v)))
    }

    /// Cast to another dtype (no-op clone of structure when equal).
    pub fn cast(&self, to: DType) -> MatrixStore {
        if self.dtype() == to {
            return self.clone();
        }
        macro_rules! make {
            ($variant:ident, $t:ty) => {
                MatrixStore::$variant(dispatch_matrix!(self, |m| m.cast::<$t>()))
            };
        }
        construct_for_dtype!(to, make)
    }

    /// The boolean pattern matrix masks use (`to_bool` coercion of
    /// every stored value).
    pub fn to_bool_matrix(&self) -> GMatrix<bool> {
        dispatch_matrix!(self, |m| m.cast::<bool>())
    }

    /// Boxed triples (row, col, value) in row-major order.
    pub fn extract_triples_dyn(&self) -> Vec<(usize, usize, DynScalar)> {
        dispatch_matrix!(self, |m| m
            .iter()
            .map(|(i, j, v)| (i, j, Element::to_dyn(v)))
            .collect())
    }

    /// Materialize the transpose as a new store of the same dtype (a
    /// typed counting sort; no per-element boxing). Used to honor a
    /// plan-time SpMV direction that disagrees with the stored
    /// orientation (see [`crate::facts::cached_transpose`]).
    pub fn transposed(&self) -> MatrixStore {
        dispatch_matrix!(self, |m| Element::wrap_matrix(m.transpose_owned()))
    }

    /// Placeholder store used when temporarily taking ownership.
    pub(crate) fn placeholder() -> MatrixStore {
        MatrixStore::Bool(GMatrix::new(0, 0))
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
                    .map(MatrixStore::$variant)
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

    /// The boolean pattern vector masks use.
    pub fn to_bool_vector(&self) -> GVector<bool> {
        dispatch_vector!(self, |v| v.cast::<bool>())
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

    #[test]
    fn element_wrap_unwrap() {
        let g = GMatrix::<f64>::new(2, 2);
        let s = f64::wrap_matrix(g);
        assert!(f64::unwrap_matrix(&s).is_some());
        assert!(i32::unwrap_matrix(&s).is_none());
        assert!(f64::unwrap_matrix_owned(s).is_some());
    }

    #[test]
    fn bool_pattern() {
        let mut v = VectorStore::new(3, DType::Fp64);
        v.set(0, DynScalar::from(0.0f64)).unwrap();
        v.set(2, DynScalar::from(-2.0f64)).unwrap();
        let b = v.to_bool_vector();
        assert_eq!(b.get(0), Some(false));
        assert_eq!(b.get(2), Some(true));
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
