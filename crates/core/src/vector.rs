//! The dynamically-typed `Vector` container — PyGB's `gb.Vector`.

use std::sync::Arc;

use crate::dtype::DType;
use crate::error::Result;
use crate::expr::VectorExpr;
use crate::store::{Element, VectorStore};
use crate::target::VectorAssign;
use crate::value::DynScalar;

/// A sparse vector with a runtime dtype.
#[derive(Clone, Debug)]
pub struct Vector {
    pub(crate) store: Arc<VectorStore>,
}

impl PartialEq for Vector {
    /// Value equality. Reads through the nonblocking resolution map, so
    /// comparing a deferred container flushes it first.
    fn eq(&self, other: &Vector) -> bool {
        *self.read_store() == *other.read_store()
    }
}

impl Vector {
    /// An empty vector — `gb.Vector(shape=(n,), dtype=...)`.
    pub fn new(size: usize, dtype: DType) -> Vector {
        Vector {
            store: Arc::new(VectorStore::new(size, dtype)),
        }
    }

    /// Construction from dense data — `gb.Vector([1, 2, 3, 4, 5])`.
    pub fn from_dense<T: Element>(data: &[T]) -> Vector {
        Vector {
            store: Arc::new(T::wrap_vector(gbtl::Vector::from_dense(data))),
        }
    }

    /// Construction from sparse pairs —
    /// `gb.Vector((vals, idx), shape=(l,))` (Fig. 3a).
    pub fn from_pairs<T: Element>(
        size: usize,
        pairs: impl IntoIterator<Item = (usize, T)>,
    ) -> Result<Vector> {
        let v = gbtl::Vector::from_pairs(size, pairs)?;
        Ok(Vector {
            store: Arc::new(T::wrap_vector(v)),
        })
    }

    /// Construction from boxed pairs — the interpreted path of Fig. 11.
    pub fn from_pairs_dyn(
        size: usize,
        pairs: &[(usize, DynScalar)],
        dtype: Option<DType>,
    ) -> Result<Vector> {
        let dtype = dtype.unwrap_or_else(|| {
            if pairs.iter().any(|&(_, v)| v.dtype().is_float()) {
                DType::DEFAULT_FLOAT
            } else {
                DType::DEFAULT_INT
            }
        });
        let store = VectorStore::from_dyn_pairs(size, pairs, dtype)?;
        Ok(Vector {
            store: Arc::new(store),
        })
    }

    pub(crate) fn from_store(store: VectorStore) -> Vector {
        Vector {
            store: Arc::new(store),
        }
    }

    /// Wrap a statically-typed `gbtl` vector (zero-copy move) — the
    /// bridge native code uses to hand results to the DSL.
    pub fn from_typed<T: Element>(v: gbtl::Vector<T>) -> Vector {
        Vector::from_store(T::wrap_vector(v))
    }

    /// Clone out the statically-typed `gbtl` vector, if the dtype
    /// matches `T`.
    pub fn to_typed<T: Element>(&self) -> Option<gbtl::Vector<T>> {
        T::unwrap_vector(&self.read_store()).cloned()
    }

    pub(crate) fn store_arc(&self) -> Arc<VectorStore> {
        Arc::clone(&self.store)
    }

    /// The store with any deferred operation resolved — the read path
    /// for every data accessor (GraphBLAS flush-on-read). Panics if a
    /// deferred operation failed; use [`Vector::settle`] to surface the
    /// error as a value instead.
    fn read_store(&self) -> Arc<VectorStore> {
        crate::nb::resolved_vec(&self.store)
            .unwrap_or_else(|e| panic!("deferred PyGB operation failed at flush: {e}"))
    }

    /// Replace a deferred placeholder with its computed store, flushing
    /// if necessary. No-op in blocking mode. Call this before handing
    /// the container to another thread or before using [`Vector::store`]
    /// in nonblocking code.
    pub fn settle(&mut self) -> Result<()> {
        let resolved = crate::nb::resolved_vec(&self.store)?;
        if !Arc::ptr_eq(&resolved, &self.store) {
            self.store = resolved;
        }
        Ok(())
    }

    /// Borrow the dtype-tagged store (for fused whole-algorithm kernels
    /// that need zero-copy typed access via [`Element::unwrap_vector`]).
    /// In nonblocking mode call [`Vector::settle`] first — this borrow
    /// does not read through the deferred-op resolution map.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// Take the store out for kernel mutation.
    pub(crate) fn take_store(&mut self) -> VectorStore {
        let old = std::mem::replace(&mut self.store, Arc::new(VectorStore::placeholder()));
        Arc::try_unwrap(old).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Put a (possibly mutated) store back.
    pub(crate) fn put_store(&mut self, store: VectorStore) {
        self.store = Arc::new(store);
    }

    /// Evaluate an expression into a new container (`w = A @ u`).
    pub fn from_expr(expr: VectorExpr) -> Result<Vector> {
        let size = expr.result_size();
        let mut out = Vector::new(size, expr.result_dtype());
        crate::dispatch::eval_vector(
            &mut out,
            None,
            None,
            false,
            None,
            crate::nb::VecRhs::Expr(expr),
            crate::facts::KernelChoice::default(),
        )?;
        Ok(out)
    }

    /// Dimension — `v.shape[0]`.
    pub fn size(&self) -> usize {
        self.store.size()
    }

    /// Stored element count — `v.nvals`. Terminating: flushes deferred
    /// work feeding this container.
    pub fn nvals(&self) -> usize {
        self.read_store().nvals()
    }

    /// The runtime dtype.
    pub fn dtype(&self) -> DType {
        self.store.dtype()
    }

    /// Boxed element access. Terminating: flushes deferred work feeding
    /// this container.
    pub fn get(&self, i: usize) -> Option<DynScalar> {
        self.read_store().get(i)
    }

    /// Boxed element write.
    pub fn set(&mut self, i: usize, v: impl Into<DynScalar>) -> Result<()> {
        self.settle()?;
        Arc::make_mut(&mut self.store).set(i, v.into())?;
        Ok(())
    }

    /// Remove every stored element, keeping size and dtype.
    pub fn clear(&mut self) {
        let (n, dtype) = (self.size(), self.dtype());
        self.store = Arc::new(VectorStore::new(n, dtype));
    }

    /// A deep, independent duplicate (severs copy-on-write sharing).
    pub fn dup(&self) -> Vector {
        Vector {
            store: Arc::new((*self.read_store()).clone()),
        }
    }

    /// A copy cast to another dtype.
    pub fn cast(&self, dtype: DType) -> Vector {
        Vector {
            store: Arc::new(self.read_store().cast(dtype)),
        }
    }

    /// Extract stored `(index, value)` pairs. Terminating: flushes
    /// deferred work feeding this container.
    pub fn extract_pairs(&self) -> Vec<(usize, DynScalar)> {
        self.read_store().extract_pairs_dyn()
    }

    /// Densify to `f64` with zeros at unstored positions.
    pub fn to_dense_f64(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.size()];
        for (i, v) in self.extract_pairs() {
            out[i] = v.as_f64();
        }
        out
    }

    // --- expression builders ---

    /// `u @ A` — vector-matrix multiply expression (`vxm`).
    pub fn vxm(&self, a: impl crate::expr::MatrixOperandArg) -> VectorExpr {
        VectorExpr::vxm(self.store_arc(), a.into_operand())
    }

    /// `u + v` — eWiseAdd expression (also `&u + &v`).
    pub fn ewise_add(&self, rhs: &Vector) -> VectorExpr {
        VectorExpr::ewise_add(self.store_arc(), rhs.store_arc())
    }

    /// `u * v` — eWiseMult expression (also `&u * &v`).
    pub fn ewise_mult(&self, rhs: &Vector) -> VectorExpr {
        VectorExpr::ewise_mult(self.store_arc(), rhs.store_arc())
    }

    /// `u[i]` — extract expression.
    pub fn extract(&self, ix: impl Into<gbtl::Indices>) -> VectorExpr {
        VectorExpr::extract(self.store_arc(), ix.into())
    }

    // --- assignment targets ---

    /// `w[None] = ...` — unmasked in-place assignment target.
    pub fn no_mask(&mut self) -> VectorAssign<'_> {
        VectorAssign::new(self, None, false)
    }

    /// `w[m] = ...` — masked assignment target.
    pub fn masked(&mut self, mask: &Vector) -> VectorAssign<'_> {
        let m = Arc::clone(&mask.store);
        VectorAssign::new(self, Some(m), false)
    }

    /// `w[~m] = ...` — complemented-mask assignment target.
    pub fn masked_complement(&mut self, mask: &Vector) -> VectorAssign<'_> {
        let m = Arc::clone(&mask.store);
        VectorAssign::new(self, Some(m), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_construction() {
        let d = Vector::from_dense(&[1i64, 2, 3, 4, 5]);
        assert_eq!(d.size(), 5);
        assert_eq!(d.nvals(), 5);
        let s = Vector::from_pairs(9, [(3usize, 2.5f32)]).unwrap();
        assert_eq!(s.dtype(), DType::Fp32);
        assert_eq!(s.nvals(), 1);
        assert_eq!(s.get(3), Some(DynScalar::Fp32(2.5)));
    }

    #[test]
    fn boxed_construction() {
        let pairs = [(1usize, DynScalar::from(4i64))];
        let v = Vector::from_pairs_dyn(3, &pairs, None).unwrap();
        assert_eq!(v.dtype(), DType::Int64);
        assert_eq!(v.get(1), Some(DynScalar::Int64(4)));
    }

    #[test]
    fn cow_semantics() {
        let mut a = Vector::from_dense(&[1u8, 2]);
        let snapshot = a.clone();
        a.set(0, 100u8).unwrap();
        assert_eq!(snapshot.get(0), Some(DynScalar::UInt8(1)));
        assert_eq!(a.get(0), Some(DynScalar::UInt8(100)));
    }

    #[test]
    fn to_dense_f64() {
        let v = Vector::from_pairs(4, [(1usize, 2i32), (3, -1)]).unwrap();
        assert_eq!(v.to_dense_f64(), vec![0.0, 2.0, 0.0, -1.0]);
    }

    #[test]
    fn oob_set_errors() {
        let mut v = Vector::new(2, DType::Int32);
        assert!(v.set(2, 1i32).is_err());
    }
}

impl std::fmt::Display for Vector {
    /// `repr`-style rendering: size, dtype, and up to 16 stored pairs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Vector<{}> size {}, {} stored",
            self.dtype(),
            self.size(),
            self.nvals()
        )?;
        for (k, (i, v)) in self.extract_pairs().into_iter().enumerate() {
            if k == 16 {
                return write!(f, "  ...");
            }
            writeln!(f, "  ({i})  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_lists_pairs() {
        let v = Vector::from_pairs(4, [(2usize, 7i64)]).unwrap();
        let s = v.to_string();
        assert!(s.contains("Vector<int64> size 4, 1 stored"));
        assert!(s.contains("(2)  7"));
    }

    #[test]
    fn clear_and_dup() {
        let mut v = Vector::from_dense(&[1u8, 2, 3]);
        let d = v.dup();
        v.clear();
        assert_eq!(v.nvals(), 0);
        assert_eq!(v.size(), 3);
        assert_eq!(d.nvals(), 3);
    }

    #[test]
    fn display_truncates_long_containers() {
        let v = Vector::from_dense(&vec![1i64; 40]);
        let s = v.to_string();
        assert!(s.ends_with("..."));
    }
}
