//! Sparse vector container (GBTL's `GraphBLAS::Vector<T>`).
//!
//! Stored as parallel sorted arrays of indices and values. Like
//! GraphBLAS containers, a `Vector` distinguishes *stored* elements from
//! structural zeros: `nvals` counts stored entries, and operations only
//! see stored entries. Explicitly stored zeros are allowed (construction
//! from dense data stores every element, as PyGB's `gb.Vector([...])`
//! does).

use crate::error::{GblasError, Result};
use crate::index::IndexType;
use crate::scalar::Scalar;

/// A sparse vector of dimension `size` holding elements of type `T`.
#[derive(Clone, Debug, PartialEq)]
pub struct Vector<T> {
    size: IndexType,
    indices: Vec<IndexType>,
    values: Vec<T>,
}

impl<T: Scalar> Vector<T> {
    /// An empty vector of the given dimension.
    pub fn new(size: IndexType) -> Self {
        Vector {
            size,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from `(index, value)` pairs. Pairs may be unordered;
    /// duplicate indices are an error (use
    /// [`Vector::from_pairs_dedup_with`] to combine them).
    pub fn from_pairs<I>(size: IndexType, pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (IndexType, T)>,
    {
        let mut entries: Vec<(IndexType, T)> = pairs.into_iter().collect();
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if i >= size {
                return Err(GblasError::IndexOutOfBounds {
                    index: i,
                    bound: size,
                });
            }
            if indices.last() == Some(&i) {
                return Err(GblasError::invalid(format!("duplicate index {i}")));
            }
            indices.push(i);
            values.push(v);
        }
        Ok(Vector {
            size,
            indices,
            values,
        })
    }

    /// Build from `(index, value)` pairs, combining duplicates with `dup`.
    /// Equal indices are folded left to right in input order, so
    /// `|_, b| b` keeps the last value.
    pub fn from_pairs_dedup_with<I, F>(size: IndexType, pairs: I, mut dup: F) -> Result<Self>
    where
        I: IntoIterator<Item = (IndexType, T)>,
        F: FnMut(T, T) -> T,
    {
        let mut entries: Vec<(IndexType, T)> = pairs.into_iter().collect();
        // Stable: `dup` folds equal indices left to right in input order.
        entries.sort_by_key(|&(i, _)| i);
        let mut indices: Vec<IndexType> = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            if i >= size {
                return Err(GblasError::IndexOutOfBounds {
                    index: i,
                    bound: size,
                });
            }
            if indices.last() == Some(&i) {
                let last = values.last_mut().expect("values track indices");
                *last = dup(*last, v);
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        Ok(Vector {
            size,
            indices,
            values,
        })
    }

    /// Build from dense data, storing *every* element (PyGB's
    /// `gb.Vector([1, 2, 3])` semantics).
    pub fn from_dense(data: &[T]) -> Self {
        Vector {
            size: data.len(),
            indices: (0..data.len()).collect(),
            values: data.to_vec(),
        }
    }

    /// Internal: build from already-sorted, duplicate-free entries.
    /// Debug-asserts the invariant.
    pub(crate) fn from_sorted_entries(
        size: IndexType,
        indices: Vec<IndexType>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(indices.last().is_none_or(|&i| i < size));
        Vector {
            size,
            indices,
            values,
        }
    }

    /// The dimension of the vector.
    #[inline]
    pub fn size(&self) -> IndexType {
        self.size
    }

    /// Number of stored elements.
    #[inline]
    pub fn nvals(&self) -> IndexType {
        self.indices.len()
    }

    /// Whether no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The stored value at `i`, if present.
    pub fn get(&self, i: IndexType) -> Option<T> {
        self.position(i).map(|p| self.values[p])
    }

    /// Whether index `i` holds a stored element.
    #[inline]
    pub fn contains(&self, i: IndexType) -> bool {
        self.position(i).is_some()
    }

    fn position(&self, i: IndexType) -> Option<usize> {
        self.indices.binary_search(&i).ok()
    }

    /// Store `v` at index `i`, overwriting any existing element.
    pub fn set(&mut self, i: IndexType, v: T) -> Result<()> {
        if i >= self.size {
            return Err(GblasError::IndexOutOfBounds {
                index: i,
                bound: self.size,
            });
        }
        match self.indices.binary_search(&i) {
            Ok(p) => self.values[p] = v,
            Err(p) => {
                self.indices.insert(p, i);
                self.values.insert(p, v);
            }
        }
        Ok(())
    }

    /// Remove the stored element at `i` (no-op if absent).
    pub fn remove(&mut self, i: IndexType) {
        if let Ok(p) = self.indices.binary_search(&i) {
            self.indices.remove(p);
            self.values.remove(p);
        }
    }

    /// Remove every stored element.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// The stored indices, ascending.
    #[inline]
    pub fn indices(&self) -> &[IndexType] {
        &self.indices
    }

    /// The stored values, parallel to [`Vector::indices`].
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterate over stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (IndexType, T)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Copy out the stored indices (PyGB's `extractTuples` index half).
    pub fn extract_indices(&self) -> Vec<IndexType> {
        self.indices.clone()
    }

    /// Copy out the stored values (PyGB's `extractTuples` value half).
    pub fn extract_values(&self) -> Vec<T> {
        self.values.clone()
    }

    /// Densify: a `size`-length `Vec` with `fill` at unstored positions.
    pub fn to_dense(&self, fill: T) -> Vec<T> {
        let mut out = vec![fill; self.size];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }

    /// Element-wise cast into another scalar domain (the upcast PyGB
    /// performs when operand dtypes differ).
    pub fn cast<U: Scalar>(&self) -> Vector<U> {
        Vector {
            size: self.size,
            indices: self.indices.clone(),
            values: self.values.iter().map(|&v| U::cast_from(v)).collect(),
        }
    }

    /// Replace contents with another vector's (same dimension required) —
    /// the `operator=` the paper notes Python lacks.
    pub fn assign_from(&mut self, other: &Vector<T>) -> Result<()> {
        if self.size != other.size {
            return Err(GblasError::dim(format!(
                "assign_from: {} vs {}",
                self.size, other.size
            )));
        }
        self.indices.clone_from(&other.indices);
        self.values.clone_from(&other.values);
        Ok(())
    }

    /// Consume into `(size, indices, values)`.
    pub fn into_parts(self) -> (IndexType, Vec<IndexType>, Vec<T>) {
        (self.size, self.indices, self.values)
    }

    /// Check structural invariants (for tests and property checks).
    pub fn is_valid(&self) -> bool {
        self.indices.len() == self.values.len()
            && self.indices.windows(2).all(|w| w[0] < w[1])
            && self.indices.last().is_none_or(|&i| i < self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let v = Vector::<f64>::new(10);
        assert_eq!(v.size(), 10);
        assert_eq!(v.nvals(), 0);
        assert!(v.is_empty());
        assert!(v.is_valid());
    }

    #[test]
    fn from_pairs_sorts() {
        let v = Vector::from_pairs(5, [(3usize, 30i32), (1, 10), (4, 40)]).unwrap();
        assert_eq!(v.indices(), &[1, 3, 4]);
        assert_eq!(v.values(), &[10, 30, 40]);
        assert!(v.is_valid());
    }

    #[test]
    fn from_pairs_rejects_duplicates_and_oob() {
        assert!(Vector::from_pairs(5, [(1usize, 1i32), (1, 2)]).is_err());
        assert!(Vector::from_pairs(5, [(5usize, 1i32)]).is_err());
    }

    #[test]
    fn dedup_with_combines() {
        let v = Vector::from_pairs_dedup_with(5, [(1usize, 1i32), (1, 2), (3, 5)], |a, b| a + b)
            .unwrap();
        assert_eq!(v.get(1), Some(3));
        assert_eq!(v.get(3), Some(5));
        assert_eq!(v.nvals(), 2);
    }

    #[test]
    fn dedup_folds_left_in_input_order() {
        // 4 000 pairs over 40 indices; value = insertion index.
        let pairs: Vec<(usize, i64)> = (0..4000)
            .map(|k| ((k * 7919 % 4001) % 40, k as i64))
            .collect();
        let mut fold = std::collections::HashMap::new();
        for &(i, v) in &pairs {
            fold.entry(i).and_modify(|a: &mut i64| *a -= v).or_insert(v);
        }
        let v = Vector::from_pairs_dedup_with(40, pairs, |a, b| a - b).unwrap();
        assert_eq!(v.nvals(), fold.len());
        for (i, x) in fold {
            assert_eq!(v.get(i), Some(x), "index {i}");
        }
    }

    #[test]
    fn from_dense_stores_everything() {
        let v = Vector::from_dense(&[0.0, 1.5, 0.0]);
        assert_eq!(v.nvals(), 3); // explicit zeros stored
        assert_eq!(v.get(0), Some(0.0));
        assert_eq!(v.get(1), Some(1.5));
    }

    #[test]
    fn set_get_remove() {
        let mut v = Vector::<i64>::new(4);
        v.set(2, 20).unwrap();
        v.set(0, 5).unwrap();
        assert_eq!(v.get(2), Some(20));
        assert_eq!(v.get(1), None);
        v.set(2, 99).unwrap();
        assert_eq!(v.get(2), Some(99));
        v.remove(2);
        assert_eq!(v.get(2), None);
        assert!(v.set(4, 1).is_err());
        assert!(v.is_valid());
    }

    #[test]
    fn to_dense_fills() {
        let v = Vector::from_pairs(4, [(1usize, 7i32)]).unwrap();
        assert_eq!(v.to_dense(-1), vec![-1, 7, -1, -1]);
    }

    #[test]
    fn cast_changes_domain() {
        let v = Vector::from_pairs(3, [(0usize, 2.7f64), (2, -1.2)]).unwrap();
        let w: Vector<i32> = v.cast();
        assert_eq!(w.get(0), Some(2));
        assert_eq!(w.get(2), Some(-1));
        let b: Vector<bool> = v.cast();
        assert_eq!(b.get(0), Some(true));
    }

    #[test]
    fn assign_from_checks_size() {
        let mut a = Vector::<i32>::new(3);
        let b = Vector::from_pairs(3, [(1usize, 9)]).unwrap();
        a.assign_from(&b).unwrap();
        assert_eq!(a.get(1), Some(9));
        let c = Vector::<i32>::new(4);
        assert!(a.assign_from(&c).is_err());
    }

    #[test]
    fn iter_in_order() {
        let v = Vector::from_pairs(6, [(5usize, 50u8), (0, 1), (2, 4)]).unwrap();
        let collected: Vec<_> = v.iter().collect();
        assert_eq!(collected, vec![(0, 1), (2, 4), (5, 50)]);
    }

    #[test]
    fn clear_empties() {
        let mut v = Vector::from_dense(&[1, 2, 3]);
        v.clear();
        assert_eq!(v.nvals(), 0);
        assert_eq!(v.size(), 3);
    }
}
