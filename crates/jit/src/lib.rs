//! # pygb-jit — the dynamic-compilation model of PyGB
//!
//! The paper's PyGB dispatches every GraphBLAS operation through a
//! just-in-time pipeline (Fig. 9): the operand dtypes and operator names
//! are hashed into a *module key*; a two-level cache (process memory,
//! then `.so` files on disk) is consulted; on a miss, `g++` instantiates
//! `operation_binding.cpp` with `-D` parameters for exactly that key and
//! the resulting binary is `dlopen`ed and cached.
//!
//! Rust has no runtime template instantiation, so this crate reproduces
//! the *mechanism* rather than the compiler invocation (see DESIGN.md):
//!
//! * [`key::ModuleKey`] — the same (function × dtypes × operators) key,
//!   hashed to a stable module name exactly as the paper hashes kwargs.
//! * [`registry::FactoryRegistry`] — per-operation *kernel factories*
//!   that monomorphize a generic kernel for the key's dtype/operators on
//!   demand (the "template instantiation" step).
//! * [`cache::ModuleCache`] — in-memory map plus a persistent on-disk
//!   module index, distinguishing memory hits, disk hits (a prior
//!   process compiled this key), and cold compiles, with per-outcome
//!   timing statistics.
//! * [`pipeline`] — stage-by-stage traces of each dispatch, regenerating
//!   the Fig. 9 walkthrough and the paper's compile-time claims.
//! * [`combinatorics`] — the Section V counting argument (11⁴ mxm type
//!   combinations, 17·11³ accumulators, ~6·10¹² total keys) showing why
//!   ahead-of-time instantiation is infeasible and on-demand is not.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod combinatorics;
pub mod error;
pub mod json;
pub mod kernel;
pub mod key;
pub mod pipeline;
pub mod registry;
pub mod runtime;
pub mod stats;

pub use cache::{CacheOutcome, ModuleCache};
pub use error::JitError;
pub use kernel::Kernel;
pub use key::ModuleKey;
pub use pipeline::{PipelineTrace, Stage};
pub use registry::FactoryRegistry;
pub use runtime::{global, JitRuntime};
pub use stats::{JitStats, StatsSnapshot};
