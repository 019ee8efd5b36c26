//! The dynamically-typed `Matrix` container — PyGB's `gb.Matrix`.
//!
//! A `Matrix` is a cheap-to-clone handle (`Arc` + copy-on-write) around
//! a dtype-tagged store. Clones share storage until one side writes,
//! which is how deferred expressions can snapshot operands without
//! copying — the Rust analog of Python's reference semantics.

use std::sync::Arc;

use crate::dtype::DType;
use crate::error::{PygbError, Result};
use crate::expr::{MatOperand, MatrixExpr, TransposedMatrix, VectorExpr};
use crate::store::{Element, MatrixStore};
use crate::target::MatrixAssign;
use crate::value::DynScalar;
use crate::vector::Vector;

/// A sparse matrix with a runtime dtype.
#[derive(Clone, Debug)]
pub struct Matrix {
    pub(crate) store: Arc<MatrixStore>,
}

impl PartialEq for Matrix {
    /// Value equality. Reads through the nonblocking resolution map, so
    /// comparing a deferred container flushes it first.
    fn eq(&self, other: &Matrix) -> bool {
        *self.read_store() == *other.read_store()
    }
}

impl Matrix {
    /// An empty matrix — `gb.Matrix(shape=(r, c), dtype=...)`.
    pub fn new(nrows: usize, ncols: usize, dtype: DType) -> Matrix {
        Matrix {
            store: Arc::new(MatrixStore::new(nrows, ncols, dtype)),
        }
    }

    /// Construction from dense row data, storing every element —
    /// `gb.Matrix([[1, 2, 3], [4, 5, 6]])` (Fig. 3a).
    pub fn from_dense<T: Element>(rows: &[Vec<T>]) -> Result<Matrix> {
        let m = gbtl::Matrix::from_dense(rows)?;
        Ok(Matrix {
            store: Arc::new(T::wrap_matrix(m)),
        })
    }

    /// Construction from coordinate data —
    /// `gb.Matrix((vals, (row_idx, col_idx)), shape=(r, c))` (Fig. 3a).
    pub fn from_coo<T: Element>(
        vals: &[T],
        row_idx: &[usize],
        col_idx: &[usize],
        shape: (usize, usize),
    ) -> Result<Matrix> {
        if vals.len() != row_idx.len() || vals.len() != col_idx.len() {
            return Err(PygbError::Graphblas(gbtl::GblasError::invalid(format!(
                "COO arrays disagree: {} values, {} rows, {} cols",
                vals.len(),
                row_idx.len(),
                col_idx.len()
            ))));
        }
        let triples = row_idx
            .iter()
            .zip(col_idx)
            .zip(vals)
            .map(|((&i, &j), &v)| (i, j, v));
        Self::from_triples(shape.0, shape.1, triples)
    }

    /// Construction from `(row, col, value)` triples of a concrete type.
    pub fn from_triples<T: Element>(
        nrows: usize,
        ncols: usize,
        triples: impl IntoIterator<Item = (usize, usize, T)>,
    ) -> Result<Matrix> {
        let m = gbtl::Matrix::from_triples(nrows, ncols, triples)?;
        Ok(Matrix {
            store: Arc::new(T::wrap_matrix(m)),
        })
    }

    /// Construction from boxed triples — the *interpreted* path (per
    /// element dynamic dispatch), used by the Fig. 11 experiment. The
    /// dtype defaults to `fp64` if any value is floating, else `int64`
    /// (Section V's Python defaults).
    pub fn from_triples_dyn(
        nrows: usize,
        ncols: usize,
        triples: &[(usize, usize, DynScalar)],
        dtype: Option<DType>,
    ) -> Result<Matrix> {
        let dtype = dtype.unwrap_or_else(|| {
            if triples.iter().any(|&(_, _, v)| v.dtype().is_float()) {
                DType::DEFAULT_FLOAT
            } else {
                DType::DEFAULT_INT
            }
        });
        let store = MatrixStore::from_dyn_triples(nrows, ncols, triples, dtype)?;
        Ok(Matrix {
            store: Arc::new(store),
        })
    }

    pub(crate) fn from_store(store: MatrixStore) -> Matrix {
        Matrix {
            store: Arc::new(store),
        }
    }

    /// Wrap a statically-typed `gbtl` matrix (zero-copy move).
    pub fn from_typed<T: Element>(m: gbtl::Matrix<T>) -> Matrix {
        Matrix::from_store(T::wrap_matrix(m))
    }

    /// Clone out the statically-typed `gbtl` matrix, if the dtype
    /// matches `T`.
    pub fn to_typed<T: Element>(&self) -> Option<gbtl::Matrix<T>> {
        T::unwrap_matrix(&self.read_store()).cloned()
    }

    /// The store with any deferred operation resolved — the read path
    /// for every data accessor (GraphBLAS flush-on-read). Panics if a
    /// deferred operation failed; use [`Matrix::settle`] to surface the
    /// error as a value instead.
    fn read_store(&self) -> Arc<MatrixStore> {
        crate::nb::resolved_mat(&self.store)
            .unwrap_or_else(|e| panic!("deferred PyGB operation failed at flush: {e}"))
    }

    /// Replace a deferred placeholder with its computed store, flushing
    /// if necessary. No-op in blocking mode. Call this before handing
    /// the container to another thread or before using [`Matrix::store`]
    /// in nonblocking code.
    pub fn settle(&mut self) -> Result<()> {
        let resolved = crate::nb::resolved_mat(&self.store)?;
        if !Arc::ptr_eq(&resolved, &self.store) {
            self.store = resolved;
        }
        Ok(())
    }

    /// Evaluate an expression into a *new* container — the `C = A @ B`
    /// form that loses the old reference (Sec. IV). The dtype is the
    /// promotion of the operand dtypes.
    pub fn from_expr(expr: MatrixExpr) -> Result<Matrix> {
        let (nrows, ncols) = expr.result_shape();
        let mut out = Matrix::new(nrows, ncols, expr.result_dtype());
        crate::dispatch::eval_matrix(
            &mut out,
            None,
            None,
            false,
            None,
            crate::nb::MatRhs::Expr(expr),
        )?;
        Ok(out)
    }

    /// `(nrows, ncols)` — `m.shape`.
    pub fn shape(&self) -> (usize, usize) {
        (self.store.nrows(), self.store.ncols())
    }

    /// Row count.
    pub fn nrows(&self) -> usize {
        self.store.nrows()
    }

    /// Column count.
    pub fn ncols(&self) -> usize {
        self.store.ncols()
    }

    /// Stored element count — `m.nvals`. Terminating: flushes deferred
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
    pub fn get(&self, i: usize, j: usize) -> Option<DynScalar> {
        self.read_store().get(i, j)
    }

    /// Boxed element write (copy-on-write if the store is shared).
    pub fn set(&mut self, i: usize, j: usize, v: impl Into<DynScalar>) -> Result<()> {
        self.settle()?;
        Arc::make_mut(&mut self.store).set(i, j, v.into())?;
        Ok(())
    }

    /// Apply a batch of streamed edge mutations in place (`Some` val
    /// inserts/overwrites, `None` deletes; last write to a coordinate
    /// wins). One-shot form of [`crate::StreamingMatrix`]: the batch
    /// is analyzer-validated, applied through the hypersparse delta
    /// layer, and settled immediately — `O(nnz + batch)` splice, never
    /// an `O(nnz log nnz)` rebuild. Copy-on-write: clones of this
    /// handle keep the pre-update graph.
    pub fn update_edges(&mut self, batch: &[crate::stream::EdgeUpdate]) -> Result<()> {
        let mut streaming = crate::stream::StreamingMatrix::from_matrix(self)?;
        streaming.update_edges(batch)?; // analyzer-validated inside
        *self = streaming.into_matrix();
        Ok(())
    }

    /// Remove every stored element, keeping shape and dtype.
    pub fn clear(&mut self) {
        let (r, c) = self.shape();
        let dtype = self.dtype();
        self.store = Arc::new(MatrixStore::new(r, c, dtype));
    }

    /// A deep, independent duplicate (`m.dup()` in GraphBLAS APIs).
    /// Plain `clone()` is a cheap copy-on-write handle; `dup` severs
    /// the sharing immediately.
    pub fn dup(&self) -> Matrix {
        Matrix {
            store: Arc::new((*self.read_store()).clone()),
        }
    }

    /// A copy cast to another dtype: a handle on the store's memoized
    /// view (copy-on-write, like `clone`), so casting the same matrix
    /// again converts nothing.
    pub fn cast(&self, dtype: DType) -> Matrix {
        Matrix {
            store: self.read_store().cast_view(dtype),
        }
    }

    /// Extract all stored triples (the `extractTuples` round-trip of
    /// Fig. 11). Terminating: flushes deferred work feeding this
    /// container.
    pub fn extract_triples(&self) -> Vec<(usize, usize, DynScalar)> {
        self.read_store().extract_triples_dyn()
    }

    /// Transposed view — `m.T`.
    pub fn t(&self) -> TransposedMatrix {
        TransposedMatrix {
            store: Arc::clone(&self.store),
        }
    }

    /// Borrow the dtype-tagged store (for fused whole-algorithm kernels
    /// that need zero-copy typed access via [`Element::unwrap_matrix`]).
    /// In nonblocking mode call [`Matrix::settle`] first — this borrow
    /// does not read through the deferred-op resolution map.
    pub fn store(&self) -> &MatrixStore {
        &self.store
    }

    /// Take the store out for kernel mutation (avoids a copy when the
    /// handle is unshared; clones a shared store — copy-on-write).
    pub(crate) fn take_store(&mut self) -> MatrixStore {
        let old = std::mem::replace(&mut self.store, Arc::new(MatrixStore::placeholder()));
        Arc::try_unwrap(old).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Put a (possibly mutated) store back.
    pub(crate) fn put_store(&mut self, store: MatrixStore) {
        self.store = Arc::new(store);
    }

    pub(crate) fn operand(&self) -> MatOperand {
        MatOperand {
            store: Arc::clone(&self.store),
            transposed: false,
        }
    }

    // --- expression builders (right-hand sides) ---

    /// `A @ B` — matrix-matrix multiply expression (semiring from
    /// context, captured now).
    pub fn matmul(&self, rhs: impl crate::expr::MatrixOperandArg) -> MatrixExpr {
        MatrixExpr::mxm(self.operand(), rhs.into_operand())
    }

    /// `A @ u` — matrix-vector multiply expression.
    pub fn mxv(&self, u: &Vector) -> VectorExpr {
        VectorExpr::mxv(self.operand(), u.store_arc())
    }

    /// `A + B` — eWiseAdd expression (also available as `&a + &b`).
    pub fn ewise_add(&self, rhs: impl crate::expr::MatrixOperandArg) -> MatrixExpr {
        MatrixExpr::ewise_add(self.operand(), rhs.into_operand())
    }

    /// `A * B` — eWiseMult expression (also available as `&a * &b`).
    pub fn ewise_mult(&self, rhs: impl crate::expr::MatrixOperandArg) -> MatrixExpr {
        MatrixExpr::ewise_mult(self.operand(), rhs.into_operand())
    }

    /// `A[i, j]` — extract expression.
    pub fn extract(
        &self,
        rows: impl Into<gbtl::Indices>,
        cols: impl Into<gbtl::Indices>,
    ) -> MatrixExpr {
        MatrixExpr::extract(self.operand(), rows.into(), cols.into())
    }

    // --- assignment targets (left-hand sides) ---

    /// `C[None] = ...` — unmasked in-place assignment target.
    pub fn no_mask(&mut self) -> MatrixAssign<'_> {
        MatrixAssign::new(self, None, false)
    }

    /// `C[M] = ...` — masked assignment target (mask coerced to bool).
    pub fn masked(&mut self, mask: &Matrix) -> MatrixAssign<'_> {
        let m = Arc::clone(&mask.store);
        MatrixAssign::new(self, Some(m), false)
    }

    /// `C[~M] = ...` — complemented-mask assignment target.
    pub fn masked_complement(&mut self, mask: &Matrix) -> MatrixAssign<'_> {
        let m = Arc::clone(&mask.store);
        MatrixAssign::new(self, Some(m), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_from_dense() {
        let m = Matrix::from_dense(&[vec![1i64, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.dtype(), DType::Int64);
        assert_eq!(m.nvals(), 9);
        assert_eq!(m.get(1, 2), Some(DynScalar::Int64(6)));
    }

    #[test]
    fn construction_from_coo() {
        // gb.Matrix((vals, (row_idx, col_idx)), shape=(r, c))
        let m = Matrix::from_coo(&[1.0f64, 2.0], &[0, 2], &[1, 0], (3, 3)).unwrap();
        assert_eq!(m.dtype(), DType::Fp64);
        assert_eq!(m.get(2, 0), Some(DynScalar::Fp64(2.0)));
        assert!(Matrix::from_coo(&[1.0f64], &[0, 1], &[0], (2, 2)).is_err());
    }

    #[test]
    fn dyn_construction_infers_dtype() {
        let ints = [(0usize, 0usize, DynScalar::from(1i64))];
        let m = Matrix::from_triples_dyn(1, 1, &ints, None).unwrap();
        assert_eq!(m.dtype(), DType::Int64);
        let floats = [(0usize, 0usize, DynScalar::from(1.5f64))];
        let f = Matrix::from_triples_dyn(1, 1, &floats, None).unwrap();
        assert_eq!(f.dtype(), DType::Fp64);
        let forced = Matrix::from_triples_dyn(1, 1, &floats, Some(DType::Int8)).unwrap();
        assert_eq!(forced.dtype(), DType::Int8);
    }

    #[test]
    fn clones_share_until_write() {
        let mut a = Matrix::from_dense(&[vec![1i32]]).unwrap();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.store, &b.store));
        a.set(0, 0, 9i32).unwrap();
        assert!(!Arc::ptr_eq(&a.store, &b.store));
        assert_eq!(b.get(0, 0), Some(DynScalar::Int32(1))); // snapshot intact
        assert_eq!(a.get(0, 0), Some(DynScalar::Int32(9)));
    }

    #[test]
    fn cast_copies() {
        let m = Matrix::from_dense(&[vec![1.9f64]]).unwrap();
        let i = m.cast(DType::Int32);
        assert_eq!(i.get(0, 0), Some(DynScalar::Int32(1)));
        assert_eq!(m.dtype(), DType::Fp64);
    }

    #[test]
    fn extract_triples_roundtrip() {
        let m = Matrix::from_triples(2, 2, [(0usize, 1usize, 5u8)]).unwrap();
        assert_eq!(m.extract_triples(), vec![(0, 1, DynScalar::UInt8(5))]);
    }
}

impl std::fmt::Display for Matrix {
    /// `repr`-style rendering: shape, dtype, and up to 16 stored
    /// triples.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Matrix<{}> {}x{}, {} stored",
            self.dtype(),
            self.nrows(),
            self.ncols(),
            self.nvals()
        )?;
        for (k, (i, j, v)) in self.extract_triples().into_iter().enumerate() {
            if k == 16 {
                return write!(f, "  ...");
            }
            writeln!(f, "  ({i}, {j})  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_lists_triples() {
        let m = Matrix::from_triples(2, 2, [(0usize, 1usize, 2.5f64)]).unwrap();
        let s = m.to_string();
        assert!(s.contains("Matrix<fp64> 2x2, 1 stored"));
        assert!(s.contains("(0, 1)  2.5"));
    }

    #[test]
    fn clear_and_dup() {
        let mut m = Matrix::from_dense(&[vec![1i32, 2]]).unwrap();
        let d = m.dup();
        assert!(!Arc::ptr_eq(&m.store, &d.store)); // severed immediately
        m.clear();
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.shape(), (1, 2));
        assert_eq!(m.dtype(), DType::Int32);
        assert_eq!(d.nvals(), 2); // dup unaffected
    }
}
