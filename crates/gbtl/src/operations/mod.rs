//! The GraphBLAS operation set (Table I of the paper).
//!
//! Every function follows the GBTL calling convention: output first,
//! then mask, accumulator, operator, inputs, and the replace flag:
//!
//! ```text
//! GB::mxv(frontier, GB::complement(levels), GB::NoAccumulate(),
//!         GB::LogicalSemiring<T>(), GB::transpose(graph), frontier, true);
//! ```
//!
//! becomes
//!
//! ```text
//! operations::mxv(&mut frontier_out, &complement(&levels), NoAccumulate,
//!                 &LogicalSemiring::new(), transpose(&graph), &frontier,
//!                 Replace(true))
//! ```
//!
//! (Rust's aliasing rules require the output to be a distinct binding
//! when it also appears as an input; GBTL copies internally in that
//! case, and so do callers here.)
//!
//! All operations compute the intermediate `T` and defer to
//! [`crate::write`] for the specification's mask/accumulate/replace
//! output step.

mod apply;
mod assign;
mod ewise;
mod extract;
mod mxm;
mod mxv;
mod reduce;
mod transpose_op;

pub use apply::{apply_matrix, apply_vector};
pub use assign::{assign_matrix, assign_matrix_constant, assign_vector, assign_vector_constant};
pub use ewise::{e_wise_add_matrix, e_wise_add_vector, e_wise_mult_matrix, e_wise_mult_vector};
pub use extract::{extract_matrix, extract_vector};
pub use mxm::{mxm, mxm_masked_dot, mxm_with, MxmFamily, MxmKernel};
pub use mxv::{mxv, vxm, SpmvKernel, PUSH_PULL_DENSITY};
pub use reduce::{reduce_matrix_scalar, reduce_matrix_to_vector, reduce_vector_scalar};
pub use transpose_op::transpose_into;
