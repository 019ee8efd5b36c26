//! Non-owning argument views: transposed operands, complemented masks,
//! and the replace flag — GBTL's `transpose(A)`, `complement(M)` and the
//! trailing `bool` of every operation.

use std::borrow::Cow;

use crate::index::IndexType;
use crate::mask::{MaskProbe, MatrixMask, VectorMask};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// A matrix operand that is either plain or logically transposed —
/// GBTL's `TransposeView`. Kernels either have a specialized transposed
/// path or call [`MatrixArg::materialize`].
#[derive(Copy, Clone, Debug)]
pub enum MatrixArg<'a, T> {
    /// The matrix as stored.
    Plain(&'a Matrix<T>),
    /// The matrix viewed as its transpose.
    Transposed(&'a Matrix<T>),
    /// Both orientations pre-materialized: `rows` holds the logical
    /// matrix row-major, `cols` holds its transpose row-major (i.e. the
    /// logical matrix column-major). Lets `mxv`/`vxm` choose the push
    /// or pull kernel per call from the frontier density without any
    /// per-call transposition. Built with [`dual`].
    Dual {
        /// The logical matrix, stored by rows (CSR).
        rows: &'a Matrix<T>,
        /// Its transpose, stored by rows (the logical matrix's CSC).
        cols: &'a Matrix<T>,
    },
}

/// Wrap a matrix as a transposed operand (GBTL's `GB::transpose(A)`,
/// PyGB's `A.T`).
pub fn transpose<T>(m: &Matrix<T>) -> MatrixArg<'_, T> {
    MatrixArg::Transposed(m)
}

/// Wrap a matrix and its pre-computed transpose as a dual-orientation
/// operand; `cols` must be `rows.transpose_owned()` (checked by shape
/// here, by content in debug builds). Algorithms that multiply by the
/// same matrix every iteration (BFS, SSSP, PageRank) pay the transpose
/// once and let `mxv`/`vxm` switch push/pull per call.
pub fn dual<'a, T: Scalar>(rows: &'a Matrix<T>, cols: &'a Matrix<T>) -> MatrixArg<'a, T> {
    assert_eq!(
        (rows.nrows(), rows.ncols()),
        (cols.ncols(), cols.nrows()),
        "dual: cols must be the transpose of rows"
    );
    debug_assert_eq!(&rows.transpose_owned(), cols);
    MatrixArg::Dual { rows, cols }
}

impl<'a, T> From<&'a Matrix<T>> for MatrixArg<'a, T> {
    fn from(m: &'a Matrix<T>) -> Self {
        MatrixArg::Plain(m)
    }
}

impl<'a, T: Scalar> MatrixArg<'a, T> {
    /// Logical row count (after any transposition).
    pub fn nrows(&self) -> IndexType {
        match self {
            MatrixArg::Plain(m) | MatrixArg::Dual { rows: m, .. } => m.nrows(),
            MatrixArg::Transposed(m) => m.ncols(),
        }
    }

    /// Logical column count (after any transposition).
    pub fn ncols(&self) -> IndexType {
        match self {
            MatrixArg::Plain(m) | MatrixArg::Dual { rows: m, .. } => m.ncols(),
            MatrixArg::Transposed(m) => m.nrows(),
        }
    }

    /// Whether the view is transposed. A [`MatrixArg::Dual`] is never
    /// transposed: its `rows` half is already in logical orientation.
    pub fn is_transposed(&self) -> bool {
        matches!(self, MatrixArg::Transposed(_))
    }

    /// The underlying storage, ignoring the transposition flag (the
    /// `rows` half of a dual view).
    pub fn inner(&self) -> &'a Matrix<T> {
        match self {
            MatrixArg::Plain(m) | MatrixArg::Transposed(m) | MatrixArg::Dual { rows: m, .. } => m,
        }
    }

    /// A CSR matrix in *logical* orientation: borrowed when available,
    /// freshly transposed when the view is transposed.
    pub fn materialize(&self) -> Cow<'a, Matrix<T>> {
        match self {
            MatrixArg::Plain(m) | MatrixArg::Dual { rows: m, .. } => Cow::Borrowed(*m),
            MatrixArg::Transposed(m) => Cow::Owned(m.transpose_owned()),
        }
    }

    /// The transpose in CSR form when it is available without work:
    /// the stored matrix of a [`MatrixArg::Transposed`] view, or the
    /// `cols` half of a [`MatrixArg::Dual`].
    pub fn transposed_rows(&self) -> Option<&'a Matrix<T>> {
        match self {
            MatrixArg::Plain(_) => None,
            MatrixArg::Transposed(m) => Some(m),
            MatrixArg::Dual { cols, .. } => Some(cols),
        }
    }

    /// Flip the transposition flag (`(Aᵀ)ᵀ = A`).
    pub fn flip(self) -> Self {
        match self {
            MatrixArg::Plain(m) => MatrixArg::Transposed(m),
            MatrixArg::Transposed(m) => MatrixArg::Plain(m),
            MatrixArg::Dual { rows, cols } => MatrixArg::Dual {
                rows: cols,
                cols: rows,
            },
        }
    }
}

/// A complemented mask: allows exactly the positions the inner mask
/// forbids (GBTL's `complement(M)`, PyGB's `~m`).
#[derive(Copy, Clone, Debug)]
pub struct Complement<M>(pub M);

/// Wrap a mask in a complement view.
pub fn complement<M>(mask: M) -> Complement<M> {
    Complement(mask)
}

/// Invert a structural probe: complementing swaps the allowed and
/// forbidden enumerations; anything else degrades to opaque probing.
fn complement_probe(inner: MaskProbe) -> MaskProbe {
    match inner {
        MaskProbe::Structural => MaskProbe::StructuralComplement,
        MaskProbe::StructuralComplement => MaskProbe::Structural,
        MaskProbe::All | MaskProbe::Opaque => MaskProbe::Opaque,
    }
}

impl<M: VectorMask> VectorMask for Complement<M> {
    fn mask_size(&self) -> IndexType {
        self.0.mask_size()
    }
    #[inline]
    fn allows(&self, i: IndexType) -> bool {
        !self.0.allows(i)
    }
    fn is_all(&self) -> bool {
        false
    }
    fn probe(&self) -> MaskProbe {
        complement_probe(self.0.probe())
    }
    #[inline]
    fn stored_indices(&self) -> &[IndexType] {
        self.0.stored_indices()
    }
    #[inline]
    fn stored_truthy(&self, p: usize) -> bool {
        self.0.stored_truthy(p)
    }
    fn truthy_indices(&self, out: &mut Vec<IndexType>) {
        self.0.truthy_indices(out)
    }
}

impl<M: MatrixMask> MatrixMask for Complement<M> {
    fn mask_shape(&self) -> (IndexType, IndexType) {
        self.0.mask_shape()
    }
    #[inline]
    fn allows(&self, i: IndexType, j: IndexType) -> bool {
        !self.0.allows(i, j)
    }
    fn is_all(&self) -> bool {
        false
    }
    fn probe(&self) -> MaskProbe {
        complement_probe(self.0.probe())
    }
    #[inline]
    fn stored_cols_in_row(&self, i: IndexType) -> &[IndexType] {
        self.0.stored_cols_in_row(i)
    }
    #[inline]
    fn stored_truthy_in_row(&self, i: IndexType, p: usize) -> bool {
        self.0.stored_truthy_in_row(i, p)
    }
    fn truthy_cols_in_row(&self, i: IndexType, out: &mut Vec<IndexType>) {
        self.0.truthy_cols_in_row(i, out)
    }
}

/// The replace flag `z` of `C⟨M, z⟩`: when true, positions outside the
/// mask are cleared instead of merged (the paper's "replace" vs "merge").
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Replace(pub bool);

/// Merge semantics (`z` unset) — the GraphBLAS default.
pub const MERGE: Replace = Replace(false);
/// Replace semantics (`z` set).
pub const REPLACE: Replace = Replace(true);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    #[test]
    fn transposed_dims_swap() {
        let m = Matrix::<i32>::new(2, 5);
        let t = transpose(&m);
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.ncols(), 2);
        assert!(t.is_transposed());
        let p = MatrixArg::from(&m);
        assert_eq!(p.nrows(), 2);
        assert!(!p.is_transposed());
    }

    #[test]
    fn materialize_transposes() {
        let m = Matrix::from_triples(2, 3, [(0usize, 2usize, 7i32)]).unwrap();
        let t = transpose(&m).materialize();
        assert_eq!(t.get(2, 0), Some(7));
        let p = MatrixArg::from(&m).materialize();
        assert_eq!(p.get(0, 2), Some(7));
    }

    #[test]
    fn flip_is_involution() {
        let m = Matrix::<bool>::new(3, 4);
        let a = MatrixArg::from(&m).flip().flip();
        assert!(!a.is_transposed());
    }

    #[test]
    fn double_complement_restores() {
        let m = Vector::from_pairs(3, [(0usize, true)]).unwrap();
        let cc = complement(complement(&m));
        assert!(cc.allows(0));
        assert!(!cc.allows(1));
    }

    #[test]
    fn replace_constants() {
        assert_eq!(MERGE, Replace(false));
        assert_eq!(REPLACE, Replace(true));
    }
}
