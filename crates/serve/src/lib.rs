//! # pygb-serve — a multi-tenant graph query service over
//! copy-on-write snapshots
//!
//! Everything below the wire is the PyGB stack this workspace already
//! builds: dynamically-typed [`pygb::Matrix`] containers, operator
//! contexts, and the nonblocking op-DAG runtime. This crate puts a
//! long-lived server in front of it:
//!
//! - a [`Catalog`] of named graphs where each published version is an
//!   immutable [`Snapshot`] — readers share stores via `Arc` (the
//!   DSL's own copy-on-write discipline) and writers swap whole
//!   versions atomically, so queries never block ingest and never see
//!   a half-updated graph;
//! - a line-framed wire protocol (`pygb-wire/1`, see [`wire`] and the
//!   grammar in [`query`]) exposing BFS / SSSP / PageRank / triangle
//!   count / connected components plus raw `C[M, accum] = A op B`
//!   expressions, each compiled into a per-request nonblocking DAG on
//!   a worker thread;
//! - streaming mutations: `UPDATE <graph> ADD|DEL <edges>` absorbs an
//!   edge batch into a hypersparse delta over the current snapshot
//!   (see [`pygb::StreamingMatrix`]) and publishes the merge as the
//!   next catalog version — readers admitted against the old version
//!   finish against it, and the writer pays O(batch) splice work, not
//!   an O(nnz log nnz) re-REGISTER;
//! - [`Admission`] control and a bounded [`pool::WorkerPool`]: a
//!   saturated server sheds with a structured `overloaded` response
//!   instead of queueing unboundedly, and per-tenant ceilings keep one
//!   tenant from starving the rest;
//! - full observability: every request is minted a stable ID at
//!   admission (echoed as the trailing `ID rN` token on its `OK`/`ERR`
//!   frame) and runs under a [`pygb_obs::Cat::Serve`] span; heavy
//!   requests are recorded in an always-on lock-free flight recorder
//!   (drained via `TAIL n` / `SLOW n`), requests slower than
//!   `PYGB_SLOW_NS` capture their full plan and per-node timings for
//!   `EXPLAIN rN` (see [`flightlog`]), and the `serve/*` metrics
//!   namespace — with `tenant`/`verb`-labeled series — shows up in
//!   `STATS` responses, the `METRICS` Prometheus exposition, and
//!   Chrome-trace exports (`TRACE DUMP <path>` flushes on demand).
//!
//! ## In-process quickstart
//!
//! ```
//! use pygb_serve::{Catalog, Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let server = Server::start(Arc::new(Catalog::new()), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.hello("docs").unwrap();
//! client.request_ok("REGISTER g TRIPLES 3 3 fp64 0:1:1,1:2:1").unwrap();
//! let bfs = client.request_ok("QUERY g BFS 0").unwrap();
//! assert!(bfs.contains("\"levels\":[[0,1],[1,2],[2,3]]"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod catalog;
pub mod client;
pub mod flightlog;
pub mod pool;
pub mod query;
mod reply;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmitError};
pub use catalog::{Catalog, Snapshot};
pub use client::Client;
pub use flightlog::{ExplainEntry, DEFAULT_SLOW_NS, EXPLAIN_CAP};
pub use query::{Algo, ExprOp, ExprSpec, GraphSource, Request, UpdateOps};
pub use server::{Server, ServerConfig};
pub use wire::{ErrCode, Frame, PROTOCOL};
