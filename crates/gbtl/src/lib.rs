//! # GBTL — GraphBLAS Template Library substrate, in Rust
//!
//! This crate is a from-scratch reimplementation of the role GBTL (the
//! C++ GraphBLAS Template Library) plays in the PyGB paper: a statically
//! typed, generic sparse linear-algebra library whose operations are
//! parameterized by arbitrary semirings, with the full GraphBLAS output
//! semantics (write masks, mask complement, accumulators, replace/merge).
//!
//! The design mirrors the GraphBLAS C API specification's mathematical
//! model: every operation computes an intermediate result `T` and then
//! merges it into the output `C` under the control of an optional mask
//! `M`, an optional accumulator `⊙`, and a replace flag `z`:
//!
//! ```text
//!   C⟨M, z⟩ = C ⊙ T
//! ```
//!
//! Rust generics stand in for C++ templates: operator functors are
//! zero-sized types implementing [`ops::BinaryOp`] / [`ops::Monoid`] /
//! [`ops::Semiring`], so kernels monomorphize exactly as GBTL's template
//! instantiations do. The companion `pygb` crate erases these types at
//! its boundary and re-selects monomorphized kernels at runtime through
//! the `pygb-jit` module cache, reproducing the paper's dynamic
//! compilation pipeline.
//!
//! ## Quick example (one ply of BFS, Fig. 1 of the paper)
//!
//! ```
//! use gbtl::prelude::*;
//!
//! // 7-vertex example graph from Fig. 1, as (row, col, value) triples.
//! let edges: Vec<(usize, usize, bool)> = vec![
//!     (0, 1, true), (0, 3, true), (1, 4, true), (1, 6, true),
//!     (2, 5, true), (3, 0, true), (3, 2, true), (4, 5, true),
//!     (5, 2, true), (6, 2, true), (6, 3, true), (6, 4, true),
//! ];
//! let graph = Matrix::<bool>::from_triples(7, 7, edges.iter().copied()).unwrap();
//!
//! // Frontier containing vertex 3 (the paper's source vertex "4", 1-based).
//! let frontier = Vector::<bool>::from_pairs(7, [(3usize, true)]).unwrap();
//!
//! // next = graphᵀ ⊕.⊗ frontier over the logical semiring.
//! let mut next = Vector::<bool>::new(7);
//! gbtl::operations::mxv(
//!     &mut next,
//!     &NoMask,
//!     NoAccumulate,
//!     &LogicalSemiring::<bool>::new(),
//!     gbtl::transpose(&graph),
//!     &frontier,
//!     Replace(true),
//! ).unwrap();
//!
//! assert_eq!(next.extract_indices(), vec![0, 2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod delta;
pub mod error;
pub mod hooks;
pub mod index;
pub mod mask;
pub mod matrix;
pub mod operations;
pub mod ops;
pub mod parallel;
pub mod reference;
pub mod scalar;
pub mod vector;
pub mod views;
pub mod workspace;
pub mod write;

pub use delta::{DeltaMatrix, EdgeOp, MergePolicy};
pub use error::{GblasError, Result};
pub use index::{IndexType, Indices};
pub use mask::{MaskProbe, MatrixMask, NoMask, VectorMask};
pub use matrix::Matrix;
pub use operations::{push_pull_density, MxmFamily, MxmKernel, SpmvKernel, PUSH_PULL_DENSITY};
pub use ops::accum::{Accum, NoAccumulate};
pub use ops::{BinaryOp, Monoid, Semiring, UnaryOp};
pub use scalar::Scalar;
pub use vector::Vector;
pub use views::{complement, dual, transpose, MatrixArg, Replace};

/// Convenience re-exports covering the types most programs need.
pub mod prelude {
    pub use crate::delta::{DeltaMatrix, EdgeOp, MergePolicy};
    pub use crate::error::{GblasError, Result};
    pub use crate::index::{IndexType, Indices};
    pub use crate::mask::{MaskProbe, MatrixMask, NoMask, VectorMask};
    pub use crate::matrix::Matrix;
    pub use crate::operations;
    pub use crate::operations::{MxmKernel, SpmvKernel, PUSH_PULL_DENSITY};
    pub use crate::ops::accum::{Accum, NoAccumulate};
    pub use crate::ops::binary::*;
    pub use crate::ops::monoid::*;
    pub use crate::ops::semiring::*;
    pub use crate::ops::unary::*;
    pub use crate::ops::{BinaryOp, Monoid, Semiring, UnaryOp};
    pub use crate::scalar::Scalar;
    pub use crate::vector::Vector;
    pub use crate::views::{complement, dual, transpose, MatrixArg, Replace};
}
