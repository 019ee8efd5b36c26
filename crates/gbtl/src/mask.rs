//! Write masks — the `⟨M⟩` of `C⟨M, z⟩ = C ⊙ T`.
//!
//! A mask is any container whose stored values, coerced to boolean,
//! decide which output positions may be written (the paper: "its data
//! will be coerced to boolean values"). [`NoMask`] allows every
//! position; [`crate::views::Complement`] inverts a mask (`~levels` in
//! Fig. 2b).

use crate::index::IndexType;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// How a kernel may consult a mask *structurally*, beyond per-position
/// [`VectorMask::allows`] probes. Masks backed by a sparse container
/// can enumerate their truthy entries, which lets kernels confine the
/// compute loop to the mask (masked SpGEMM/SpMV) instead of computing
/// the full product and post-filtering in the write step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MaskProbe {
    /// Every position is allowed (no mask) — kernels skip masking.
    All,
    /// The allowed positions are exactly the truthy stored entries;
    /// `truthy_*` enumerates them.
    Structural,
    /// The allowed positions are everything *except* the truthy stored
    /// entries (a complemented structural mask); `truthy_*` enumerates
    /// the forbidden set.
    StructuralComplement,
    /// Only per-position `allows` probes are available; kernels fall
    /// back to compute-then-filter.
    Opaque,
}

/// A mask over vector outputs.
///
/// A mask whose [`VectorMask::probe`] is `Structural` or
/// `StructuralComplement` must also expose its storage through
/// [`VectorMask::stored_indices`] / [`VectorMask::stored_truthy`]: the
/// write step and the masked kernels read the mask there, not through
/// [`VectorMask::allows`].
pub trait VectorMask: Sync {
    /// The dimension the mask covers (`usize::MAX` for [`NoMask`],
    /// meaning "any").
    fn mask_size(&self) -> IndexType;
    /// Whether writing to position `i` is allowed.
    fn allows(&self, i: IndexType) -> bool;
    /// Whether this mask allows every position (lets kernels skip the
    /// masked write path entirely).
    fn is_all(&self) -> bool {
        false
    }
    /// How kernels may consult this mask structurally.
    fn probe(&self) -> MaskProbe {
        MaskProbe::Opaque
    }
    /// The stored indices, ascending — truthy and falsy entries alike.
    /// Empty for masks without storage.
    fn stored_indices(&self) -> &[IndexType] {
        &[]
    }
    /// Whether stored entry `p` (an index into
    /// [`VectorMask::stored_indices`]) coerces to `true`.
    fn stored_truthy(&self, p: usize) -> bool {
        let _ = p;
        false
    }
    /// Append the truthy stored indices (ascending) to `out`. Only
    /// meaningful when [`VectorMask::probe`] reports `Structural` (the
    /// allowed set) or `StructuralComplement` (the forbidden set).
    fn truthy_indices(&self, out: &mut Vec<IndexType>) {
        let stored = self.stored_indices();
        out.reserve(stored.len());
        out.extend(
            stored
                .iter()
                .enumerate()
                .filter(|&(p, _)| self.stored_truthy(p))
                .map(|(_, &i)| i),
        );
    }
}

/// A mask over matrix outputs. As for [`VectorMask`], a structural
/// probe promises [`MatrixMask::stored_cols_in_row`] /
/// [`MatrixMask::stored_truthy_in_row`].
pub trait MatrixMask: Sync {
    /// `(nrows, ncols)` the mask covers (`(usize::MAX, usize::MAX)` for
    /// [`NoMask`]).
    fn mask_shape(&self) -> (IndexType, IndexType);
    /// Whether writing to position `(i, j)` is allowed.
    fn allows(&self, i: IndexType, j: IndexType) -> bool;
    /// Whether this mask allows every position.
    fn is_all(&self) -> bool {
        false
    }
    /// How kernels may consult this mask structurally.
    fn probe(&self) -> MaskProbe {
        MaskProbe::Opaque
    }
    /// The stored columns of row `i`, ascending — truthy and falsy
    /// entries alike. Empty for masks without storage.
    fn stored_cols_in_row(&self, i: IndexType) -> &[IndexType] {
        let _ = i;
        &[]
    }
    /// Whether stored entry `p` of row `i` (an index into
    /// [`MatrixMask::stored_cols_in_row`]) coerces to `true`.
    fn stored_truthy_in_row(&self, i: IndexType, p: usize) -> bool {
        let _ = (i, p);
        false
    }
    /// Append the truthy stored columns of row `i` (ascending) to
    /// `out`. Only meaningful when [`MatrixMask::probe`] reports
    /// `Structural` (the allowed set) or `StructuralComplement` (the
    /// forbidden set).
    fn truthy_cols_in_row(&self, i: IndexType, out: &mut Vec<IndexType>) {
        out.extend(
            self.stored_cols_in_row(i)
                .iter()
                .enumerate()
                .filter(|&(p, _)| self.stored_truthy_in_row(i, p))
                .map(|(_, &j)| j),
        );
    }
}

/// The absent mask (GBTL's `NoMask()`, PyGB's `C[None]`): every
/// position is writable.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoMask;

impl VectorMask for NoMask {
    fn mask_size(&self) -> IndexType {
        IndexType::MAX
    }
    #[inline]
    fn allows(&self, _i: IndexType) -> bool {
        true
    }
    fn is_all(&self) -> bool {
        true
    }
    fn probe(&self) -> MaskProbe {
        MaskProbe::All
    }
}

impl MatrixMask for NoMask {
    fn mask_shape(&self) -> (IndexType, IndexType) {
        (IndexType::MAX, IndexType::MAX)
    }
    #[inline]
    fn allows(&self, _i: IndexType, _j: IndexType) -> bool {
        true
    }
    fn is_all(&self) -> bool {
        true
    }
    fn probe(&self) -> MaskProbe {
        MaskProbe::All
    }
}

impl<T: Scalar> VectorMask for Vector<T> {
    fn mask_size(&self) -> IndexType {
        self.size()
    }
    #[inline]
    fn allows(&self, i: IndexType) -> bool {
        self.get(i).is_some_and(Scalar::to_bool)
    }
    fn probe(&self) -> MaskProbe {
        MaskProbe::Structural
    }
    #[inline]
    fn stored_indices(&self) -> &[IndexType] {
        self.indices()
    }
    #[inline]
    fn stored_truthy(&self, p: usize) -> bool {
        self.values()[p].to_bool()
    }
}

impl<T: Scalar> MatrixMask for Matrix<T> {
    fn mask_shape(&self) -> (IndexType, IndexType) {
        self.shape()
    }
    #[inline]
    fn allows(&self, i: IndexType, j: IndexType) -> bool {
        self.get(i, j).is_some_and(Scalar::to_bool)
    }
    fn probe(&self) -> MaskProbe {
        MaskProbe::Structural
    }
    #[inline]
    fn stored_cols_in_row(&self, i: IndexType) -> &[IndexType] {
        self.row(i).0
    }
    #[inline]
    fn stored_truthy_in_row(&self, i: IndexType, p: usize) -> bool {
        self.row(i).1[p].to_bool()
    }
    fn truthy_cols_in_row(&self, i: IndexType, out: &mut Vec<IndexType>) {
        let (cols, vals) = self.row(i);
        out.extend(
            cols.iter()
                .zip(vals)
                .filter(|(_, v)| v.to_bool())
                .map(|(&j, _)| j),
        );
    }
}

impl<M: VectorMask + ?Sized> VectorMask for &M {
    fn mask_size(&self) -> IndexType {
        (**self).mask_size()
    }
    #[inline]
    fn allows(&self, i: IndexType) -> bool {
        (**self).allows(i)
    }
    fn is_all(&self) -> bool {
        (**self).is_all()
    }
    fn probe(&self) -> MaskProbe {
        (**self).probe()
    }
    #[inline]
    fn stored_indices(&self) -> &[IndexType] {
        (**self).stored_indices()
    }
    #[inline]
    fn stored_truthy(&self, p: usize) -> bool {
        (**self).stored_truthy(p)
    }
    fn truthy_indices(&self, out: &mut Vec<IndexType>) {
        (**self).truthy_indices(out)
    }
}

impl<M: MatrixMask + ?Sized> MatrixMask for &M {
    fn mask_shape(&self) -> (IndexType, IndexType) {
        (**self).mask_shape()
    }
    #[inline]
    fn allows(&self, i: IndexType, j: IndexType) -> bool {
        (**self).allows(i, j)
    }
    fn is_all(&self) -> bool {
        (**self).is_all()
    }
    fn probe(&self) -> MaskProbe {
        (**self).probe()
    }
    #[inline]
    fn stored_cols_in_row(&self, i: IndexType) -> &[IndexType] {
        (**self).stored_cols_in_row(i)
    }
    #[inline]
    fn stored_truthy_in_row(&self, i: IndexType, p: usize) -> bool {
        (**self).stored_truthy_in_row(i, p)
    }
    fn truthy_cols_in_row(&self, i: IndexType, out: &mut Vec<IndexType>) {
        (**self).truthy_cols_in_row(i, out)
    }
}

/// Validate that a vector mask conforms to an output of dimension `n`.
pub fn check_vector_mask<M: VectorMask + ?Sized>(mask: &M, n: IndexType) -> crate::Result<()> {
    let ms = mask.mask_size();
    if ms != IndexType::MAX && ms != n {
        return Err(crate::GblasError::mask(format!(
            "mask size {ms} vs output size {n}"
        )));
    }
    Ok(())
}

/// Validate that a matrix mask conforms to an output of shape `(r, c)`.
pub fn check_matrix_mask<M: MatrixMask + ?Sized>(
    mask: &M,
    r: IndexType,
    c: IndexType,
) -> crate::Result<()> {
    let (mr, mc) = mask.mask_shape();
    if (mr != IndexType::MAX && mr != r) || (mc != IndexType::MAX && mc != c) {
        return Err(crate::GblasError::mask(format!(
            "mask shape ({mr}, {mc}) vs output shape ({r}, {c})"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::complement;

    #[test]
    fn no_mask_allows_everything() {
        assert!(VectorMask::allows(&NoMask, 123456));
        assert!(MatrixMask::allows(&NoMask, 7, 9));
        assert!(VectorMask::is_all(&NoMask));
    }

    #[test]
    fn vector_values_coerce_to_bool() {
        let m = Vector::from_pairs(5, [(0usize, 1i32), (2, 0), (4, -3)]).unwrap();
        assert!(m.allows(0)); // stored nonzero
        assert!(!m.allows(1)); // not stored
        assert!(!m.allows(2)); // stored zero → false
        assert!(m.allows(4)); // negative is truthy
    }

    #[test]
    fn matrix_mask() {
        let m = Matrix::from_triples(2, 2, [(0usize, 0usize, true), (1, 1, false)]).unwrap();
        assert!(MatrixMask::allows(&m, 0, 0));
        assert!(!MatrixMask::allows(&m, 0, 1));
        assert!(!MatrixMask::allows(&m, 1, 1));
    }

    #[test]
    fn complement_inverts() {
        let m = Vector::from_pairs(3, [(1usize, true)]).unwrap();
        let c = complement(&m);
        assert!(VectorMask::allows(&c, 0));
        assert!(!VectorMask::allows(&c, 1));
        assert!(VectorMask::allows(&c, 2));
    }

    #[test]
    fn storage_by_position_includes_stored_false() {
        let m = Vector::from_pairs(1000, [(3usize, 1i32), (4, 0), (500, 2), (998, 1)]).unwrap();
        let comp = complement(&m);
        for mask in [&m as &dyn VectorMask, &comp] {
            assert_eq!(mask.stored_indices(), [3, 4, 500, 998]);
            let truthy: Vec<bool> = (0..4).map(|p| mask.stored_truthy(p)).collect();
            assert_eq!(truthy, [true, false, true, true]);
            let mut enumerated = Vec::new();
            mask.truthy_indices(&mut enumerated);
            assert_eq!(enumerated, [3, 500, 998]);
        }
        let mm = Matrix::from_triples(2, 9, [(1usize, 2usize, 0u8), (1, 7, 5)]).unwrap();
        assert_eq!(MatrixMask::stored_cols_in_row(&mm, 0), [] as [IndexType; 0]);
        assert_eq!(MatrixMask::stored_cols_in_row(&mm, 1), [2, 7]);
        assert!(!mm.stored_truthy_in_row(1, 0) && mm.stored_truthy_in_row(1, 1));
        assert!(VectorMask::stored_indices(&NoMask).is_empty());
    }

    #[test]
    fn shape_checks() {
        let m = Vector::<bool>::new(4);
        assert!(check_vector_mask(&m, 4).is_ok());
        assert!(check_vector_mask(&m, 5).is_err());
        assert!(check_vector_mask(&NoMask, 5).is_ok());

        let mm = Matrix::<bool>::new(2, 3);
        assert!(check_matrix_mask(&mm, 2, 3).is_ok());
        assert!(check_matrix_mask(&mm, 3, 2).is_err());
        assert!(check_matrix_mask(&NoMask, 9, 9).is_ok());
    }
}
