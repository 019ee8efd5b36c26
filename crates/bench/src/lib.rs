//! Shared benchmark harness for the PyGB reproduction: workload
//! construction, the three-variant algorithm runners of Fig. 10, the
//! container-lifecycle measurements of Fig. 11, and paper-style table
//! rendering (used by both the Criterion benches and the `figures`
//! binary), and the trace-export schema check behind
//! `validate_trace`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig10;
pub mod fig11;
pub mod report;
pub mod trace_check;
pub mod workloads;
