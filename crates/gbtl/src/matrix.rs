//! Sparse matrix container (GBTL's `GraphBLAS::Matrix<T>`), stored in
//! compressed sparse row (CSR) form.
//!
//! CSR is the storage GBTL's sequential backend uses for row-major
//! traversal; all kernels in [`crate::operations`] iterate rows. A
//! transposed operand is either handled by a specialized kernel or
//! materialized with [`Matrix::transpose_owned`] (a counting sort,
//! `O(nnz + n)`), mirroring GBTL's handling of `TransposeView`.
//!
//! The index arrays (`row_ptr`, `col_idx`) sit behind one `Arc`, apart
//! from the values. Every op that keeps its source's pattern shares
//! them and computes only `nnz` new values: `clone`, [`Matrix::cast`],
//! `apply` (and so the identity apply `C[None] = A` lowers to) and
//! `normalize_rows`. A structural write (`set`, `remove`, `clear`)
//! unshares them first (`Arc::make_mut`), so sharing is never
//! observable.
//!
//! Every other kernel result is appended, row by row in ascending
//! column order, to one builder, `CsrBuilder`; row-parallel kernels
//! go through `Matrix::from_row_fn`, where each chunk of rows fills
//! its own builder and the chunks are concatenated.

use std::sync::Arc;

use crate::error::{GblasError, Result};
use crate::index::IndexType;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// The CSR index arrays: the part of a matrix that does not depend on
/// its element type.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Csr {
    /// `row_ptr[i]..row_ptr[i+1]` is the slice of row `i` in
    /// `col_idx` / `values`. Length `nrows + 1`.
    row_ptr: Vec<IndexType>,
    col_idx: Vec<IndexType>,
}

/// A sparse `nrows × ncols` matrix in CSR format.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    nrows: IndexType,
    ncols: IndexType,
    csr: Arc<Csr>,
    /// Parallel to `csr.col_idx`.
    values: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// An empty matrix of the given shape.
    pub fn new(nrows: IndexType, ncols: IndexType) -> Self {
        Self::from_parts(nrows, ncols, vec![0; nrows + 1], Vec::new(), Vec::new())
    }

    fn from_parts(
        nrows: IndexType,
        ncols: IndexType,
        row_ptr: Vec<IndexType>,
        col_idx: Vec<IndexType>,
        values: Vec<T>,
    ) -> Self {
        Matrix {
            nrows,
            ncols,
            csr: Arc::new(Csr { row_ptr, col_idx }),
            values,
        }
    }

    /// Build from `(row, col, value)` triples. Triples may be unordered;
    /// duplicates are an error (use [`Matrix::from_triples_dedup_with`]
    /// to combine them).
    pub fn from_triples<I>(nrows: IndexType, ncols: IndexType, triples: I) -> Result<Self>
    where
        I: IntoIterator<Item = (IndexType, IndexType, T)>,
    {
        Self::build(nrows, ncols, triples, None::<fn(T, T) -> T>)
    }

    /// Build from triples, combining duplicate coordinates with `dup`.
    /// Equal coordinates are folded left to right in input order, so
    /// `|_, b| b` keeps the last value.
    pub fn from_triples_dedup_with<I, F>(
        nrows: IndexType,
        ncols: IndexType,
        triples: I,
        dup: F,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (IndexType, IndexType, T)>,
        F: FnMut(T, T) -> T,
    {
        Self::build(nrows, ncols, triples, Some(dup))
    }

    fn build<I, F>(
        nrows: IndexType,
        ncols: IndexType,
        triples: I,
        mut dup: Option<F>,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (IndexType, IndexType, T)>,
        F: FnMut(T, T) -> T,
    {
        let mut entries: Vec<(IndexType, IndexType, T)> = triples.into_iter().collect();
        for &(r, c, _) in &entries {
            if r >= nrows {
                return Err(GblasError::IndexOutOfBounds {
                    index: r,
                    bound: nrows,
                });
            }
            if c >= ncols {
                return Err(GblasError::IndexOutOfBounds {
                    index: c,
                    bound: ncols,
                });
            }
        }
        // `dup` folds equal coordinates left to right in input order, so
        // the combining path needs a stable sort; without `dup` a
        // repeated coordinate is an error and any order will do.
        if dup.is_some() {
            entries.sort_by_key(|&(r, c, _)| (r, c));
        } else {
            entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        }

        let mut row_ptr = vec![0; nrows + 1];
        let mut col_idx: Vec<IndexType> = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());
        let mut last: Option<(IndexType, IndexType)> = None;
        for (r, c, v) in entries {
            if last == Some((r, c)) {
                match dup.as_mut() {
                    Some(f) => {
                        let lv = values.last_mut().expect("values track entries");
                        *lv = f(*lv, v);
                        continue;
                    }
                    None => return Err(GblasError::invalid(format!("duplicate entry ({r}, {c})"))),
                }
            }
            last = Some((r, c));
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(Self::from_parts(nrows, ncols, row_ptr, col_idx, values))
    }

    /// Build from dense row data, storing *every* element (PyGB's
    /// `gb.Matrix([[1, 2], [3, 4]])` semantics). All rows must have the
    /// same length.
    pub fn from_dense(rows: &[Vec<T>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(GblasError::invalid(format!(
                    "ragged dense data: row {i} has {} columns, expected {ncols}",
                    r.len()
                )));
            }
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(nrows * ncols);
        let mut values = Vec::with_capacity(nrows * ncols);
        for r in rows {
            col_idx.extend(0..ncols);
            values.extend_from_slice(r);
            row_ptr.push(col_idx.len());
        }
        Ok(Self::from_parts(nrows, ncols, row_ptr, col_idx, values))
    }

    /// Internal: assemble a row-parallel kernel's result. `row(w, i,
    /// out)` appends row `i`'s entries to `out` in ascending column
    /// order, with `w` a per-worker scratch built by `init`. The rows
    /// are split into contiguous chunks by
    /// [`crate::parallel::chunk_map`]; each chunk fills its own
    /// [`CsrBuilder`], and the chunks are concatenated in row order.
    pub(crate) fn from_row_fn<W, I, F>(nrows: IndexType, ncols: IndexType, init: I, row: F) -> Self
    where
        I: Fn() -> W + Send + Sync,
        F: Fn(&mut W, IndexType, &mut CsrBuilder<T>) + Send + Sync,
    {
        let chunk = |rows: std::ops::Range<IndexType>| {
            let mut w = init();
            let mut out = CsrBuilder::new(rows.len(), 0);
            for i in rows {
                row(&mut w, i, &mut out);
                out.end_row();
            }
            out
        };
        crate::parallel::chunk_map(nrows, chunk, CsrBuilder::append).finish(ncols)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> IndexType {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> IndexType {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (IndexType, IndexType) {
        (self.nrows, self.ncols)
    }

    /// Number of stored elements.
    #[inline]
    pub fn nvals(&self) -> IndexType {
        self.csr.col_idx.len()
    }

    /// The stored value at `(i, j)`, if present.
    pub fn get(&self, i: IndexType, j: IndexType) -> Option<T> {
        if i >= self.nrows {
            return None;
        }
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|p| vals[p])
    }

    /// Whether `(i, j)` holds a stored element.
    pub fn contains(&self, i: IndexType, j: IndexType) -> bool {
        self.get(i, j).is_some()
    }

    /// Store `v` at `(i, j)`, overwriting any existing element.
    /// `O(row length + tail shift)` — fine for construction, not kernels.
    pub fn set(&mut self, i: IndexType, j: IndexType, v: T) -> Result<()> {
        if i >= self.nrows {
            return Err(GblasError::IndexOutOfBounds {
                index: i,
                bound: self.nrows,
            });
        }
        if j >= self.ncols {
            return Err(GblasError::IndexOutOfBounds {
                index: j,
                bound: self.ncols,
            });
        }
        let lo = self.csr.row_ptr[i];
        let hi = self.csr.row_ptr[i + 1];
        match self.csr.col_idx[lo..hi].binary_search(&j) {
            // Overwriting a value leaves shared structure shared.
            Ok(p) => self.values[lo + p] = v,
            Err(p) => {
                let csr = Arc::make_mut(&mut self.csr);
                csr.col_idx.insert(lo + p, j);
                self.values.insert(lo + p, v);
                for rp in &mut csr.row_ptr[i + 1..] {
                    *rp += 1;
                }
            }
        }
        Ok(())
    }

    /// Remove the stored element at `(i, j)` (no-op if absent).
    pub fn remove(&mut self, i: IndexType, j: IndexType) {
        if i >= self.nrows {
            return;
        }
        let lo = self.csr.row_ptr[i];
        let hi = self.csr.row_ptr[i + 1];
        if let Ok(p) = self.csr.col_idx[lo..hi].binary_search(&j) {
            let csr = Arc::make_mut(&mut self.csr);
            csr.col_idx.remove(lo + p);
            self.values.remove(lo + p);
            for rp in &mut csr.row_ptr[i + 1..] {
                *rp -= 1;
            }
        }
    }

    /// Remove every stored element, keeping the shape.
    pub fn clear(&mut self) {
        let csr = Arc::make_mut(&mut self.csr);
        csr.row_ptr.iter_mut().for_each(|p| *p = 0);
        csr.col_idx.clear();
        self.values.clear();
    }

    /// The sorted column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: IndexType) -> (&[IndexType], &[T]) {
        let lo = self.csr.row_ptr[i];
        let hi = self.csr.row_ptr[i + 1];
        (&self.csr.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored elements in row `i`.
    #[inline]
    pub fn row_nvals(&self, i: IndexType) -> IndexType {
        self.csr.row_ptr[i + 1] - self.csr.row_ptr[i]
    }

    /// Iterate over stored `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (IndexType, IndexType, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .copied()
                .zip(vals.iter().copied())
                .map(move |(c, v)| (i, c, v))
        })
    }

    /// Copy out the stored triples (PyGB's `extractTuples`).
    pub fn extract_triples(&self) -> Vec<(IndexType, IndexType, T)> {
        self.iter().collect()
    }

    /// Materialize the transpose as a new CSR matrix (counting sort,
    /// `O(nnz + nrows + ncols)`).
    pub fn transpose_owned(&self) -> Matrix<T> {
        let mut row_ptr = vec![0; self.ncols + 1];
        for &c in &self.csr.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0; self.nvals()];
        let mut values = vec![T::zero(); self.nvals()];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let p = cursor[c];
                cursor[c] += 1;
                col_idx[p] = i;
                values[p] = v;
            }
        }
        Self::from_parts(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Densify into row-major `Vec<Vec<T>>` with `fill` at unstored
    /// positions.
    pub fn to_dense(&self, fill: T) -> Vec<Vec<T>> {
        let mut out = vec![vec![fill; self.ncols]; self.nrows];
        for (i, j, v) in self.iter() {
            out[i][j] = v;
        }
        out
    }

    /// Element-wise cast into another scalar domain. The result shares
    /// this matrix's index arrays: only `nvals` values are allocated.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        self.map_values(U::cast_from)
    }

    /// This matrix's pattern holding `f` of each stored value. The
    /// result shares the index arrays: only `nvals` values are
    /// allocated.
    pub(crate) fn map_values<U: Scalar>(&self, f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            csr: Arc::clone(&self.csr),
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Rewrite the stored values in place, `f` seeing one row's values
    /// at a time. The pattern, and whoever shares it, is untouched.
    pub(crate) fn update_row_values(&mut self, mut f: impl FnMut(&mut [T])) {
        for w in self.csr.row_ptr.windows(2) {
            f(&mut self.values[w[0]..w[1]]);
        }
    }

    /// Replace contents with another matrix's (same shape required).
    pub fn assign_from(&mut self, other: &Matrix<T>) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(GblasError::dim(format!(
                "assign_from: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        self.csr = Arc::clone(&other.csr);
        self.values.clone_from(&other.values);
        Ok(())
    }

    /// Check structural invariants (for tests and property checks).
    pub fn is_valid(&self) -> bool {
        let Csr { row_ptr, col_idx } = &*self.csr;
        if row_ptr.len() != self.nrows + 1 {
            return false;
        }
        if *row_ptr.first().unwrap_or(&1) != 0 {
            return false;
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return false;
        }
        if col_idx.len() != self.values.len() {
            return false;
        }
        for i in 0..self.nrows {
            let (cols, _) = self.row(i);
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            if cols.last().is_some_and(|&c| c >= self.ncols) {
                return false;
            }
        }
        true
    }
}

/// Sorted entries being appended, row after row: a kernel result's
/// CSR arrays ([`CsrBuilder::new`], closed by [`CsrBuilder::finish`]),
/// or a vector's entries as one open row ([`CsrBuilder::vector`],
/// closed by [`CsrBuilder::into_vector`]). Apart from [`Matrix`]'s own
/// constructors, the one place that lays out a result.
pub(crate) struct CsrBuilder<T> {
    /// Where each closed row ends in `col_idx`, after a leading 0;
    /// empty in a vector's builder.
    row_ptr: Vec<IndexType>,
    col_idx: Vec<IndexType>,
    values: Vec<T>,
}

impl<T: Scalar> CsrBuilder<T> {
    /// An empty builder with room for `rows` rows and `nnz` entries.
    pub(crate) fn new(rows: usize, nnz: usize) -> Self {
        let mut b = Self::vector(nnz);
        b.row_ptr.reserve_exact(rows + 1);
        b.row_ptr.push(0);
        b
    }

    /// An empty builder for a vector's `nnz` entries: one open row, and
    /// no row pointers to allocate.
    pub(crate) fn vector(nnz: usize) -> Self {
        CsrBuilder {
            row_ptr: Vec::new(),
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Append `(j, v)` to the open row; `j` must exceed every column
    /// already in it.
    #[inline]
    pub(crate) fn push(&mut self, j: IndexType, v: T) {
        self.col_idx.push(j);
        self.values.push(v);
    }

    /// Append a sorted run whose columns all exceed the open row's.
    pub(crate) fn extend(&mut self, cols: &[IndexType], vals: &[T]) {
        self.col_idx.extend_from_slice(cols);
        self.values.extend_from_slice(vals);
    }

    /// Close the open row; the next entries start a new one.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// The rows of `self` followed by the rows of `next`.
    fn append(mut self, next: Self) -> Self {
        let base = self.col_idx.len();
        self.row_ptr
            .extend(next.row_ptr[1..].iter().map(|&p| base + p));
        self.extend(&next.col_idx, &next.values);
        self
    }

    /// The closed rows as an `ncols`-wide matrix. The entry arrays may
    /// have grown by doubling; a result can live long (a kept answer, a
    /// graph), so it keeps no slack.
    pub(crate) fn finish(self, ncols: IndexType) -> Matrix<T> {
        let CsrBuilder {
            row_ptr,
            mut col_idx,
            mut values,
        } = self;
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        let m = Matrix::from_parts(row_ptr.len() - 1, ncols, row_ptr, col_idx, values);
        debug_assert!(m.is_valid());
        m
    }

    /// The open row's entries as a vector of `size`.
    pub(crate) fn into_vector(self, size: IndexType) -> Vector<T> {
        debug_assert!(self.row_ptr.is_empty());
        Vector::from_sorted_entries(size, self.col_idx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::NoMask;
    use crate::operations::apply_matrix;
    use crate::ops::accum::NoAccumulate;
    use crate::ops::unary::{AdditiveInverse, Identity};
    use crate::views::MERGE;

    fn fixture() -> Matrix<i32> {
        Matrix::from_triples(
            3,
            4,
            [(0usize, 1usize, 10), (2, 0, 5), (0, 3, 7), (1, 2, -2)],
        )
        .unwrap()
    }

    #[test]
    fn from_triples_sorts_rows_and_cols() {
        let m = fixture();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nvals(), 4);
        assert_eq!(m.row(0), (&[1usize, 3][..], &[10, 7][..]));
        assert_eq!(m.row(1), (&[2usize][..], &[-2][..]));
        assert!(m.is_valid());
    }

    #[test]
    fn duplicates_rejected_or_combined() {
        let dup = [(0usize, 0usize, 1i32), (0, 0, 2)];
        assert!(Matrix::from_triples(2, 2, dup).is_err());
        let m = Matrix::from_triples_dedup_with(2, 2, dup, |a, b| a + b).unwrap();
        assert_eq!(m.get(0, 0), Some(3));
    }

    /// 20 000 triples scattered over a 50×50 grid, value = insertion
    /// index: a fixed LCG picks the coordinates.
    fn scattered_triples() -> Vec<(usize, usize, i64)> {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..20_000)
            .map(|k| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cell = (x >> 33) as usize % 2500;
                (cell / 50, cell % 50, k)
            })
            .collect()
    }

    #[test]
    fn dedup_keeps_the_last_value() {
        let triples = scattered_triples();
        let mut last = std::collections::HashMap::new();
        for &(r, c, v) in &triples {
            last.insert((r, c), v);
        }
        let m = Matrix::from_triples_dedup_with(50, 50, triples, |_, b| b).unwrap();
        assert_eq!(m.nvals(), last.len());
        for ((r, c), v) in last {
            assert_eq!(m.get(r, c), Some(v), "({r}, {c})");
        }
    }

    #[test]
    fn dedup_folds_left_in_input_order() {
        let triples = scattered_triples();
        let mut fold: std::collections::HashMap<(usize, usize), i64> = Default::default();
        for &(r, c, v) in &triples {
            fold.entry((r, c)).and_modify(|a| *a -= v).or_insert(v);
        }
        let m = Matrix::from_triples_dedup_with(50, 50, triples, |a, b| a - b).unwrap();
        assert_eq!(m.nvals(), fold.len());
        for ((r, c), v) in fold {
            assert_eq!(m.get(r, c), Some(v), "({r}, {c})");
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(Matrix::from_triples(2, 2, [(2usize, 0usize, 1i32)]).is_err());
        assert!(Matrix::from_triples(2, 2, [(0usize, 2usize, 1i32)]).is_err());
    }

    #[test]
    fn from_dense_stores_everything() {
        let m = Matrix::from_dense(&[vec![1, 2], vec![0, 4]]).unwrap();
        assert_eq!(m.nvals(), 4); // explicit zero stored
        assert_eq!(m.get(1, 0), Some(0));
        assert!(Matrix::from_dense(&[vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn get_set_remove() {
        let mut m = fixture();
        assert_eq!(m.get(0, 1), Some(10));
        assert_eq!(m.get(0, 0), None);
        m.set(0, 0, 99).unwrap();
        assert_eq!(m.get(0, 0), Some(99));
        assert_eq!(m.nvals(), 5);
        m.set(0, 0, 1).unwrap(); // overwrite, no growth
        assert_eq!(m.nvals(), 5);
        m.remove(0, 0);
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.nvals(), 4);
        assert!(m.is_valid());
        assert!(m.set(3, 0, 1).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = fixture();
        let t = m.transpose_owned();
        assert_eq!(t.shape(), (4, 3));
        assert!(t.is_valid());
        for (i, j, v) in m.iter() {
            assert_eq!(t.get(j, i), Some(v));
        }
        assert_eq!(t.transpose_owned(), m);
    }

    #[test]
    fn iter_row_major() {
        let m = fixture();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(triples, vec![(0, 1, 10), (0, 3, 7), (1, 2, -2), (2, 0, 5)]);
    }

    #[test]
    fn to_dense() {
        let m = Matrix::from_triples(2, 2, [(0usize, 1usize, 3i32)]).unwrap();
        assert_eq!(m.to_dense(0), vec![vec![0, 3], vec![0, 0]]);
    }

    #[test]
    fn cast() {
        let m = Matrix::from_triples(1, 2, [(0usize, 0usize, 2.9f64), (0, 1, 0.0)]).unwrap();
        let i: Matrix<i64> = m.cast();
        assert_eq!(i.get(0, 0), Some(2));
        let b: Matrix<bool> = m.cast();
        assert_eq!(b.get(0, 1), Some(false)); // stored false, still stored
        assert_eq!(b.nvals(), 2);
    }

    #[test]
    fn cast_and_clone_share_structure_until_a_structural_write() {
        let m = fixture();
        let mut b: Matrix<bool> = m.cast();
        let mut c = m.clone();
        assert!(Arc::ptr_eq(&m.csr, &b.csr));
        assert!(Arc::ptr_eq(&m.csr, &c.csr));
        assert!(b.is_valid() && c.is_valid());
        assert_eq!(c, m);

        // Overwriting a stored value changes no index: still shared,
        // and the source keeps its value.
        c.set(0, 1, 11).unwrap();
        assert!(Arc::ptr_eq(&m.csr, &c.csr));
        assert_eq!(m.get(0, 1), Some(10));
        assert_ne!(c, m);

        // Inserting, removing and clearing unshare first: the source
        // and the other sharer never see the write.
        c.set(2, 3, 1).unwrap();
        assert!(!Arc::ptr_eq(&m.csr, &c.csr));
        b.remove(0, 1);
        assert!(!Arc::ptr_eq(&m.csr, &b.csr));
        assert_eq!((m.nvals(), b.nvals(), c.nvals()), (4, 3, 5));
        let mut d: Matrix<f64> = m.cast();
        d.clear();
        assert_eq!((m.nvals(), d.nvals()), (4, 0));
        assert_eq!(m, fixture());
        assert!(m.is_valid() && b.is_valid() && c.is_valid() && d.is_valid());

        // Equal contents compare equal whether or not they share.
        let rebuilt = Matrix::from_triples(3, 4, m.extract_triples()).unwrap();
        assert!(!Arc::ptr_eq(&m.csr, &rebuilt.csr));
        assert_eq!(rebuilt, m);
        let mut e = Matrix::<i32>::new(3, 4);
        e.assign_from(&m).unwrap();
        assert!(Arc::ptr_eq(&m.csr, &e.csr));
        assert_eq!(e, m);

        // The other pattern-preserving ops share too: `apply`, the
        // identity apply `C[None] = A` lowers to, and `normalize_rows`.
        fn apply(m: &Matrix<i32>, op: impl crate::ops::UnaryOp<i32>) -> Matrix<i32> {
            let mut out = Matrix::new(3, 4);
            apply_matrix(&mut out, &NoMask, NoAccumulate, op, m, MERGE).unwrap();
            out
        }
        let mut negated = apply(&m, AdditiveInverse::new());
        let mut copied = apply(&m, Identity::new());
        let mut normalized: Matrix<f64> = m.cast();
        crate::algorithms::normalize_rows(&mut normalized);
        for sharer in [&negated.csr, &copied.csr, &normalized.csr] {
            assert!(Arc::ptr_eq(&m.csr, sharer));
        }
        assert_eq!(copied, m);
        assert_eq!(negated.get(1, 2), Some(2));
        assert_eq!(normalized.get(0, 3), Some(7.0 / 17.0));
        copied.set(1, 0, 4).unwrap();
        negated.remove(0, 1);
        normalized.clear();
        for unshared in [&negated.csr, &copied.csr, &normalized.csr] {
            assert!(!Arc::ptr_eq(&m.csr, unshared));
        }
        assert_eq!(
            (copied.nvals(), negated.nvals(), normalized.nvals()),
            (5, 3, 0)
        );
        assert_eq!(m, fixture());
        assert!(copied.is_valid() && negated.is_valid() && normalized.is_valid());
    }

    #[test]
    fn clear_keeps_shape() {
        let mut m = fixture();
        m.clear();
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.is_valid());
    }

    #[test]
    fn empty_matrix_valid() {
        let m = Matrix::<f32>::new(0, 0);
        assert!(m.is_valid());
        assert_eq!(m.nvals(), 0);
    }
}
