//! Kernel workspaces: the sparse accumulator (SPA) used by row-wise
//! SpGEMM/SpMV, and a dense gather buffer for sparse vectors.
//!
//! The SPA is the classic Gustavson accumulator: a dense value array
//! plus an occupancy stamp, reset in `O(touched)` between rows so a
//! whole `mxm` costs `O(ncols)` setup once, not per row.

use crate::index::IndexType;
use crate::scalar::Scalar;

/// A sparse accumulator over a dense domain of size `n`.
#[derive(Debug)]
pub struct Spa<T> {
    values: Vec<T>,
    occupied: Vec<bool>,
    touched: Vec<IndexType>,
}

impl<T: Scalar> Spa<T> {
    /// Create an accumulator covering indices `0..n`.
    pub fn new(n: IndexType) -> Self {
        Spa {
            values: vec![T::zero(); n],
            occupied: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Number of currently occupied slots.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Accumulate `v` into slot `j` with `add`, or store it if the slot
    /// is empty.
    #[inline]
    pub fn scatter<F: Fn(T, T) -> T>(&mut self, j: IndexType, v: T, add: F) {
        if self.occupied[j] {
            self.values[j] = add(self.values[j], v);
        } else {
            self.occupied[j] = true;
            self.values[j] = v;
            self.touched.push(j);
        }
    }

    /// Overwrite slot `j` unconditionally.
    #[inline]
    pub fn put(&mut self, j: IndexType, v: T) {
        if !self.occupied[j] {
            self.occupied[j] = true;
            self.touched.push(j);
        }
        self.values[j] = v;
    }

    /// The value in slot `j`, if occupied.
    #[inline]
    pub fn get(&self, j: IndexType) -> Option<T> {
        self.occupied[j].then(|| self.values[j])
    }

    /// Drain the occupied slots as sorted `(index, value)` pairs and
    /// reset the accumulator for the next row.
    pub fn drain_sorted(&mut self) -> Vec<(IndexType, T)> {
        let mut out = Vec::with_capacity(self.touched.len());
        self.drain_sorted_with(|j, v| out.push((j, v)));
        out
    }

    /// [`Spa::drain_sorted`] handing each pair to `emit` in ascending
    /// index order instead of collecting them.
    ///
    /// Adaptive: a sparse drain sorts the touched list (`O(t log t)`);
    /// once more than an eighth of the domain is occupied the row is
    /// effectively dense and a bitmap sweep over `occupied`
    /// (`O(n)`, branch-predictable, no sort) is cheaper.
    pub fn drain_sorted_with(&mut self, mut emit: impl FnMut(IndexType, T)) {
        if self.touched.len() >= self.values.len() / 8 {
            for (j, &occ) in self.occupied.iter().enumerate() {
                if occ {
                    emit(j, self.values[j]);
                }
            }
        } else {
            self.touched.sort_unstable();
            for &j in &self.touched {
                emit(j, self.values[j]);
            }
        }
        for &j in &self.touched {
            self.occupied[j] = false;
        }
        self.touched.clear();
    }

    /// Reset without extracting.
    pub fn reset(&mut self) {
        for &j in &self.touched {
            self.occupied[j] = false;
        }
        self.touched.clear();
    }
}

/// A reusable membership bitmap over a dense domain — the structural
/// half of a [`Spa`], used by masked kernels to stamp the mask's truthy
/// set so the inner scatter loop tests membership in `O(1)`. Reset is
/// `O(touched)`, so a whole masked `mxm` costs one `O(n)` allocation.
#[derive(Debug)]
pub struct Stamp {
    present: Vec<bool>,
    touched: Vec<IndexType>,
}

impl Stamp {
    /// Create a bitmap covering indices `0..n`, all absent.
    pub fn new(n: IndexType) -> Self {
        Stamp {
            present: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Mark index `j` present.
    #[inline]
    pub fn set(&mut self, j: IndexType) {
        if !self.present[j] {
            self.present[j] = true;
            self.touched.push(j);
        }
    }

    /// Whether index `j` is marked.
    #[inline]
    pub fn contains(&self, j: IndexType) -> bool {
        self.present[j]
    }

    /// Number of marked indices.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no index is marked.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Clear all marks in `O(touched)`.
    pub fn clear(&mut self) {
        for &j in &self.touched {
            self.present[j] = false;
        }
        self.touched.clear();
    }
}

/// A dense gather of a sparse vector: `slot(i) = Some(x_i)` for stored
/// entries. Used by `mxv` so each row-dot is `O(nnz(row))`.
#[derive(Debug)]
pub struct DenseGather<T> {
    values: Vec<T>,
    present: Vec<bool>,
}

impl<T: Scalar> DenseGather<T> {
    /// Gather `x` into a dense buffer of its dimension.
    pub fn from_vector(x: &crate::vector::Vector<T>) -> Self {
        let mut values = vec![T::zero(); x.size()];
        let mut present = vec![false; x.size()];
        for (i, v) in x.iter() {
            values[i] = v;
            present[i] = true;
        }
        DenseGather { values, present }
    }

    /// The gathered value at `i`, if the source stored one.
    #[inline]
    pub fn get(&self, i: IndexType) -> Option<T> {
        self.present[i].then(|| self.values[i])
    }

    /// Whether the source stored an entry at `i`.
    #[inline]
    pub fn contains(&self, i: IndexType) -> bool {
        self.present[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    #[test]
    fn scatter_accumulates() {
        let mut spa = Spa::<i32>::new(5);
        spa.scatter(3, 10, |a, b| a + b);
        spa.scatter(1, 5, |a, b| a + b);
        spa.scatter(3, 7, |a, b| a + b);
        assert_eq!(spa.len(), 2);
        assert_eq!(spa.get(3), Some(17));
        let drained = spa.drain_sorted();
        assert_eq!(drained, vec![(1, 5), (3, 17)]);
        assert!(spa.is_empty());
        assert_eq!(spa.get(3), None); // reset worked
    }

    #[test]
    fn reuse_after_drain() {
        let mut spa = Spa::<f64>::new(3);
        spa.scatter(0, 1.0, |a, b| a + b);
        spa.drain_sorted();
        spa.scatter(2, 4.0, |a, b| a + b);
        assert_eq!(spa.drain_sorted(), vec![(2, 4.0)]);
    }

    #[test]
    fn put_overwrites() {
        let mut spa = Spa::<i32>::new(2);
        spa.scatter(0, 1, |a, b| a + b);
        spa.put(0, 100);
        assert_eq!(spa.get(0), Some(100));
    }

    #[test]
    fn reset_clears() {
        let mut spa = Spa::<i32>::new(4);
        spa.scatter(1, 1, |a, b| a + b);
        spa.reset();
        assert!(spa.is_empty());
        assert_eq!(spa.get(1), None);
    }

    #[test]
    fn dense_drain_matches_sparse_drain() {
        // Occupy more than n/8 slots so the bitmap sweep kicks in, in
        // reverse order so a missing sort would be caught.
        let mut spa = Spa::<i32>::new(8);
        for j in (0..4).rev() {
            spa.scatter(j, j as i32 + 1, |a, b| a + b);
        }
        assert_eq!(spa.drain_sorted(), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(spa.is_empty());
    }

    #[test]
    fn stamp_set_and_clear() {
        let mut s = Stamp::new(5);
        assert!(s.is_empty());
        s.set(3);
        s.set(1);
        s.set(3); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        assert!(s.contains(3));
        assert!(!s.contains(0));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(3));
    }

    #[test]
    fn dense_gather() {
        let x = Vector::from_pairs(4, [(1usize, 5i32), (3, 0)]).unwrap();
        let g = DenseGather::from_vector(&x);
        assert_eq!(g.get(1), Some(5));
        assert_eq!(g.get(3), Some(0)); // stored zero is present
        assert_eq!(g.get(0), None);
        assert!(g.contains(3));
        assert!(!g.contains(2));
    }
}
