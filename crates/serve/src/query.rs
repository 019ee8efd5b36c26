//! Request grammar and per-request execution.
//!
//! Parsing is independent of any server state; execution takes a
//! [`Catalog`] and runs entirely on the calling thread, which in the
//! server is always one worker thread — the op-DAG the nonblocking
//! runtime builds is thread-local, so a request's deferred operations
//! accumulate, fuse, and flush without ever observing another
//! request's state. Operator contexts come in through an explicit
//! [`pygb::Session`] rather than ambient thread-locals, so whatever
//! worker picks the job up sees exactly the operators the request
//! asked for.
//!
//! ## Grammar (`pygb-wire/1`)
//!
//! ```text
//! HELLO <tenant>
//! PING
//! LIST
//! STATS
//! DROP <name>
//! REGISTER <name> ER <n> <m> <seed> [SYM]
//! REGISTER <name> RMAT <scale> <edge_factor> <seed> [SYM]
//! REGISTER <name> TRIPLES <nrows> <ncols> <dtype> <i:j:v,...>
//! REGISTER <name> MM <path>
//! QUERY <graph> BFS <source>
//! QUERY <graph> SSSP <source>
//! QUERY <graph> PAGERANK [<max_iters>]
//! QUERY <graph> TRICOUNT
//! QUERY <graph> CC
//! UPDATE <graph> ADD <i:j:v,...>
//! UPDATE <graph> DEL <i:j,...>
//! EXPR <A> MXM|EWADD|EWMULT <B> [SEMIRING <name>] [BINOP <name>]
//!      [MASK <name>] [COMPLEMENT] [ACCUM <name>] [REPLACE] [INTO <name>]
//! BATCH <k>
//! TAIL <n>
//! SLOW <n>
//! SLOW THRESHOLD <ns>
//! EXPLAIN r<N>
//! METRICS
//! TRACE DUMP <path>
//! ```
//!
//! The last six are the observability verbs: `TAIL n` / `SLOW n` drain
//! the flight-recorder ring (most recent / slowest records as JSON),
//! `SLOW THRESHOLD <ns>` retunes the slow-query capture threshold at
//! runtime, `EXPLAIN rN` retrieves a slow request's captured plan and
//! per-node timings, `METRICS` emits the Prometheus text exposition of
//! every counter and histogram, and `TRACE DUMP <path>` flushes the
//! Chrome trace ring to a server-side file on demand.
//!
//! `UPDATE` is the streaming-mutation verb: the batch is absorbed into
//! a hypersparse delta over the current snapshot and published as the
//! next catalog version — in-flight readers keep the version they were
//! admitted with, and the response reports the new version's
//! descriptor. Values cast to the graph's dtype, exactly like
//! `REGISTER ... TRIPLES` ingest; deleting an absent edge is a no-op.

use pygb::prelude::*;
use pygb_algorithms as algos;
// Shadow the prelude's `Result<T>` alias: this module's fallible
// functions carry wire error codes, not `PygbError`.
use std::result::Result;
use std::sync::Arc;

use crate::catalog::{Catalog, Snapshot};
use crate::wire::ErrCode;
use pygb_obs::json_escape;

/// Entry cap on serialized result collections (levels, ranks, triples).
/// Larger results are truncated and flagged `"truncated":true`.
pub const MAX_RESULT_ENTRIES: usize = 65_536;

/// Execution failure: a structured code plus message, ready to frame.
pub type QueryError = (ErrCode, String);

fn bad(msg: impl Into<String>) -> QueryError {
    (ErrCode::BadRequest, msg.into())
}

/// Where a `REGISTER` gets its edges from.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSource {
    /// Erdős–Rényi G(n, m) via `pygb-io`.
    Er {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// RNG seed.
        seed: u64,
        /// Symmetrize after generation.
        sym: bool,
    },
    /// Recursive-matrix (Graph500-style) generator.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex.
        edge_factor: usize,
        /// RNG seed.
        seed: u64,
        /// Symmetrize after generation.
        sym: bool,
    },
    /// Inline triple list `i:j:v,...`.
    Triples {
        /// Row count.
        nrows: usize,
        /// Column count.
        ncols: usize,
        /// Element dtype.
        dtype: DType,
        /// The `(i, j, v)` entries.
        triples: Vec<(usize, usize, f64)>,
    },
    /// Matrix Market file on the server's filesystem.
    Mm {
        /// File path.
        path: String,
    },
}

/// One graph algorithm exposed over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Level-synchronous BFS from a source vertex.
    Bfs(usize),
    /// Single-source shortest paths from a source vertex.
    Sssp(usize),
    /// PageRank, optionally capping iterations.
    PageRank(Option<usize>),
    /// Triangle count (graph is taken as given; symmetrize at REGISTER
    /// time with `SYM` for the undirected reading).
    Tricount,
    /// Connected components.
    Cc,
}

impl Algo {
    fn label(self) -> &'static str {
        match self {
            Algo::Bfs(_) => "bfs",
            Algo::Sssp(_) => "sssp",
            Algo::PageRank(_) => "pagerank",
            Algo::Tricount => "tricount",
            Algo::Cc => "cc",
        }
    }
}

/// Which binary combining form an `EXPR` uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExprOp {
    /// Matrix product `A ⊕.⊗ B`.
    Mxm,
    /// Element-wise union `A ⊕ B`.
    EwAdd,
    /// Element-wise intersection `A ⊗ B`.
    EwMult,
}

/// A raw GraphBLAS assignment `C[M, accum] = A op B` over catalog graphs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExprSpec {
    /// Left operand graph name.
    pub a: String,
    /// The combining form.
    pub op: ExprOp,
    /// Right operand graph name.
    pub b: String,
    /// Optional semiring context (named, or `add:identity:mult` parts).
    pub semiring: Option<String>,
    /// Optional binary-op context (element-wise forms).
    pub binop: Option<String>,
    /// Optional mask graph name.
    pub mask: Option<String>,
    /// Complement the mask.
    pub complement: bool,
    /// Optional accumulator; switches to `accum_assign`.
    pub accum: Option<String>,
    /// Replace flag (clear unmasked positions).
    pub replace: bool,
    /// Publish the result into the catalog under this name instead of
    /// returning triples.
    pub into: Option<String>,
}

/// Edge mutations carried by one `UPDATE` request.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOps {
    /// Insert-or-overwrite `(i, j, v)` edges.
    Add(Vec<(usize, usize, f64)>),
    /// Delete `(i, j)` positions (absent edges are no-ops).
    Del(Vec<(usize, usize)>),
}

impl UpdateOps {
    /// Number of edge operations in the batch.
    pub fn len(&self) -> usize {
        match self {
            UpdateOps::Add(v) => v.len(),
            UpdateOps::Del(v) => v.len(),
        }
    }

    /// Whether the batch carries no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Identify the connection's tenant.
    Hello {
        /// Tenant name (admission-control bucket).
        tenant: String,
    },
    /// Liveness check.
    Ping,
    /// List catalog snapshots.
    List,
    /// Metrics snapshot.
    Stats,
    /// Remove a graph.
    Drop {
        /// Graph name.
        name: String,
    },
    /// Ingest and publish a graph.
    Register {
        /// Graph name (upsert).
        name: String,
        /// Edge source.
        source: GraphSource,
    },
    /// Run an algorithm against a snapshot.
    Query {
        /// Graph name.
        graph: String,
        /// Which algorithm.
        algo: Algo,
    },
    /// Stream an edge-mutation batch into a snapshot, publishing the
    /// next catalog version.
    Update {
        /// Graph name.
        graph: String,
        /// The mutation batch.
        ops: UpdateOps,
    },
    /// Raw GraphBLAS expression.
    Expr(ExprSpec),
    /// Header of a `k`-request batch (the lines follow).
    Batch {
        /// How many request lines follow.
        count: usize,
    },
    /// Drain the most recent flight-recorder records.
    Tail {
        /// How many records to return.
        n: usize,
    },
    /// Drain the slowest flight-recorder records.
    Slow {
        /// How many records to return.
        n: usize,
    },
    /// Retune the slow-query capture threshold.
    SlowThreshold {
        /// New threshold, nanoseconds.
        ns: u64,
    },
    /// Retrieve a slow request's captured plan and per-node timings.
    Explain {
        /// The request ID (`rN` without the prefix).
        id: u64,
    },
    /// Prometheus text exposition of the metrics registry.
    Metrics,
    /// Flush the Chrome trace ring to a server-side file.
    TraceDump {
        /// Destination path on the server's filesystem.
        path: String,
    },
}

impl Request {
    /// Whether this request does graph work and therefore goes through
    /// admission and the worker pool (vs. answered inline).
    pub fn is_heavy(&self) -> bool {
        matches!(
            self,
            Request::Register { .. }
                | Request::Query { .. }
                | Request::Update { .. }
                | Request::Expr(_)
        )
    }

    /// Short verb for spans and logs.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::List => "list",
            Request::Stats => "stats",
            Request::Drop { .. } => "drop",
            Request::Register { .. } => "register",
            Request::Query { .. } => "query",
            Request::Update { .. } => "update",
            Request::Expr(_) => "expr",
            Request::Batch { .. } => "batch",
            Request::Tail { .. } => "tail",
            Request::Slow { .. } => "slow",
            Request::SlowThreshold { .. } => "slow-threshold",
            Request::Explain { .. } => "explain",
            Request::Metrics => "metrics",
            Request::TraceDump { .. } => "trace-dump",
        }
    }

    /// The catalog graph this request primarily touches, if any — what
    /// the flight recorder puts in its `graph` column.
    pub fn graph_name(&self) -> &str {
        match self {
            Request::Register { name, .. } | Request::Drop { name } => name,
            Request::Query { graph, .. } | Request::Update { graph, .. } => graph,
            Request::Expr(spec) => &spec.a,
            _ => "",
        }
    }
}

/// Parse one request line.
pub fn parse(line: &str) -> Result<Request, QueryError> {
    let toks: Vec<&str> = line.split_ascii_whitespace().collect();
    let mut it = toks.iter().copied();
    let verb = it.next().ok_or_else(|| bad("empty request"))?;
    let req = match verb.to_ascii_uppercase().as_str() {
        "HELLO" => Request::Hello {
            tenant: it
                .next()
                .ok_or_else(|| bad("HELLO needs a tenant"))?
                .to_string(),
        },
        "PING" => Request::Ping,
        "LIST" => Request::List,
        "STATS" => Request::Stats,
        "DROP" => Request::Drop {
            name: it
                .next()
                .ok_or_else(|| bad("DROP needs a graph name"))?
                .to_string(),
        },
        "REGISTER" => parse_register(&toks)?,
        "QUERY" => parse_query(&toks)?,
        "UPDATE" => parse_update(&toks)?,
        "EXPR" => parse_expr(&toks)?,
        "BATCH" => Request::Batch {
            count: parse_num(it.next(), "BATCH count")?,
        },
        "TAIL" => Request::Tail {
            n: parse_ring_count(it.next(), "TAIL")?,
        },
        "SLOW" => match it.next() {
            Some(t) if t.eq_ignore_ascii_case("THRESHOLD") => Request::SlowThreshold {
                ns: parse_num(it.next(), "SLOW THRESHOLD ns")?,
            },
            t => Request::Slow {
                n: parse_ring_count(t, "SLOW")?,
            },
        },
        "EXPLAIN" => {
            let tok = it.next().ok_or_else(|| bad("EXPLAIN needs a request id"))?;
            let id = tok
                .strip_prefix(['r', 'R'])
                .unwrap_or(tok)
                .parse()
                .map_err(|_| bad(format!("EXPLAIN: bad request id `{tok}` (want rN)")))?;
            Request::Explain { id }
        }
        "METRICS" => Request::Metrics,
        "TRACE" => {
            if !it.next().is_some_and(|t| t.eq_ignore_ascii_case("DUMP")) {
                return Err(bad("TRACE supports only `TRACE DUMP <path>`"));
            }
            Request::TraceDump {
                path: it
                    .next()
                    .ok_or_else(|| bad("TRACE DUMP needs a path"))?
                    .to_string(),
            }
        }
        other => return Err(bad(format!("unknown verb `{other}`"))),
    };
    if req.verb() != "batch" || matches!(req, Request::Batch { count: 1..=1024 }) {
        Ok(req)
    } else {
        Err(bad("BATCH count must be in 1..=1024"))
    }
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, QueryError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(format!("{what}: expected a number")))
}

/// Parse a `TAIL`/`SLOW` record count, bounded by the ring capacity.
fn parse_ring_count(tok: Option<&str>, verb: &str) -> Result<usize, QueryError> {
    let n: usize = parse_num(tok, &format!("{verb} count"))?;
    if n == 0 || n > pygb_obs::RECORDER_CAPACITY {
        return Err(bad(format!(
            "{verb} count must be in 1..={}",
            pygb_obs::RECORDER_CAPACITY
        )));
    }
    Ok(n)
}

fn parse_register(toks: &[&str]) -> Result<Request, QueryError> {
    let name = toks
        .get(1)
        .ok_or_else(|| bad("REGISTER needs a graph name"))?;
    let kind = toks
        .get(2)
        .ok_or_else(|| bad("REGISTER needs a source kind"))?;
    let sym = toks.last().is_some_and(|t| t.eq_ignore_ascii_case("SYM"));
    let source = match kind.to_ascii_uppercase().as_str() {
        "ER" => GraphSource::Er {
            n: parse_num(toks.get(3).copied(), "ER n")?,
            m: parse_num(toks.get(4).copied(), "ER m")?,
            seed: parse_num(toks.get(5).copied(), "ER seed")?,
            sym,
        },
        "RMAT" => GraphSource::Rmat {
            scale: parse_num(toks.get(3).copied(), "RMAT scale")?,
            edge_factor: parse_num(toks.get(4).copied(), "RMAT edge_factor")?,
            seed: parse_num(toks.get(5).copied(), "RMAT seed")?,
            sym,
        },
        "TRIPLES" => {
            let nrows = parse_num(toks.get(3).copied(), "TRIPLES nrows")?;
            let ncols = parse_num(toks.get(4).copied(), "TRIPLES ncols")?;
            let dtype = toks
                .get(5)
                .and_then(|t| DType::from_name(t).ok())
                .ok_or_else(|| bad("TRIPLES needs a dtype"))?;
            let body = toks.get(6).ok_or_else(|| bad("TRIPLES needs entries"))?;
            let mut triples = Vec::new();
            for entry in body.split(',').filter(|e| !e.is_empty()) {
                let mut parts = entry.split(':');
                let i = parse_num(parts.next(), "triple row")?;
                let j = parse_num(parts.next(), "triple col")?;
                let v = parse_num(parts.next(), "triple value")?;
                triples.push((i, j, v));
            }
            GraphSource::Triples {
                nrows,
                ncols,
                dtype,
                triples,
            }
        }
        "MM" => GraphSource::Mm {
            path: toks
                .get(3)
                .ok_or_else(|| bad("MM needs a path"))?
                .to_string(),
        },
        other => return Err(bad(format!("unknown REGISTER source `{other}`"))),
    };
    Ok(Request::Register {
        name: name.to_string(),
        source,
    })
}

fn parse_query(toks: &[&str]) -> Result<Request, QueryError> {
    let graph = toks.get(1).ok_or_else(|| bad("QUERY needs a graph name"))?;
    let algo = toks.get(2).ok_or_else(|| bad("QUERY needs an algorithm"))?;
    let algo = match algo.to_ascii_uppercase().as_str() {
        "BFS" => Algo::Bfs(parse_num(toks.get(3).copied(), "BFS source")?),
        "SSSP" => Algo::Sssp(parse_num(toks.get(3).copied(), "SSSP source")?),
        "PAGERANK" => Algo::PageRank(match toks.get(3) {
            Some(t) => Some(parse_num(Some(*t), "PAGERANK max_iters")?),
            None => None,
        }),
        "TRICOUNT" => Algo::Tricount,
        "CC" => Algo::Cc,
        other => return Err(bad(format!("unknown algorithm `{other}`"))),
    };
    Ok(Request::Query {
        graph: graph.to_string(),
        algo,
    })
}

fn parse_update(toks: &[&str]) -> Result<Request, QueryError> {
    let graph = toks
        .get(1)
        .ok_or_else(|| bad("UPDATE needs a graph name"))?;
    let mode = toks
        .get(2)
        .ok_or_else(|| bad("UPDATE needs ADD or DEL"))?
        .to_ascii_uppercase();
    let body = toks
        .get(3)
        .ok_or_else(|| bad("UPDATE needs edge entries"))?;
    let ops = match mode.as_str() {
        "ADD" => {
            let mut edges = Vec::new();
            for entry in body.split(',').filter(|e| !e.is_empty()) {
                let mut parts = entry.split(':');
                let i = parse_num(parts.next(), "ADD edge row")?;
                let j = parse_num(parts.next(), "ADD edge col")?;
                let v = parse_num(parts.next(), "ADD edge value")?;
                if parts.next().is_some() {
                    return Err(bad(format!("ADD entries are i:j:v, got `{entry}`")));
                }
                edges.push((i, j, v));
            }
            UpdateOps::Add(edges)
        }
        "DEL" => {
            let mut edges = Vec::new();
            for entry in body.split(',').filter(|e| !e.is_empty()) {
                let mut parts = entry.split(':');
                let i = parse_num(parts.next(), "DEL edge row")?;
                let j = parse_num(parts.next(), "DEL edge col")?;
                if parts.next().is_some() {
                    return Err(bad(format!("DEL entries are i:j, got `{entry}`")));
                }
                edges.push((i, j));
            }
            UpdateOps::Del(edges)
        }
        other => return Err(bad(format!("unknown UPDATE mode `{other}`"))),
    };
    if ops.is_empty() {
        return Err(bad("UPDATE batch carries no edges"));
    }
    Ok(Request::Update {
        graph: graph.to_string(),
        ops,
    })
}

fn parse_expr(toks: &[&str]) -> Result<Request, QueryError> {
    let a = toks
        .get(1)
        .ok_or_else(|| bad("EXPR needs a left operand"))?;
    let op = match toks
        .get(2)
        .ok_or_else(|| bad("EXPR needs an operation"))?
        .to_ascii_uppercase()
        .as_str()
    {
        "MXM" => ExprOp::Mxm,
        "EWADD" => ExprOp::EwAdd,
        "EWMULT" => ExprOp::EwMult,
        other => return Err(bad(format!("unknown EXPR op `{other}`"))),
    };
    let b = toks
        .get(3)
        .ok_or_else(|| bad("EXPR needs a right operand"))?;
    let mut spec = ExprSpec {
        a: a.to_string(),
        op,
        b: b.to_string(),
        semiring: None,
        binop: None,
        mask: None,
        complement: false,
        accum: None,
        replace: false,
        into: None,
    };
    let mut i = 4;
    while i < toks.len() {
        let key = toks[i].to_ascii_uppercase();
        let mut take_value = |what: &str| -> Result<String, QueryError> {
            i += 1;
            toks.get(i)
                .map(|t| t.to_string())
                .ok_or_else(|| bad(format!("{what} needs a value")))
        };
        match key.as_str() {
            "SEMIRING" => spec.semiring = Some(take_value("SEMIRING")?),
            "BINOP" => spec.binop = Some(take_value("BINOP")?),
            "MASK" => spec.mask = Some(take_value("MASK")?),
            "ACCUM" => spec.accum = Some(take_value("ACCUM")?),
            "INTO" => spec.into = Some(take_value("INTO")?),
            "COMPLEMENT" => spec.complement = true,
            "REPLACE" => spec.replace = true,
            other => return Err(bad(format!("unknown EXPR clause `{other}`"))),
        }
        i += 1;
    }
    if spec.complement && spec.mask.is_none() {
        return Err(bad("COMPLEMENT requires MASK"));
    }
    Ok(Request::Expr(spec))
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Execute one already-admitted request against the catalog. Called on
/// a worker thread for heavy requests, inline for cheap ones.
pub fn execute(catalog: &Catalog, req: &Request) -> Result<String, QueryError> {
    execute_versioned(catalog, req).0
}

/// [`execute`], also reporting the catalog version of the snapshot the
/// request read (`QUERY`, `EXPR` — its first operand) or published
/// (`REGISTER`, `UPDATE`): the version its reply describes, even when a
/// later `UPDATE` has published since. 0 when it resolved no snapshot.
pub fn execute_versioned(catalog: &Catalog, req: &Request) -> (Result<String, QueryError>, u64) {
    let described = |snap: Result<Arc<Snapshot>, QueryError>| match snap {
        Ok(snap) => (Ok(snap.info_json()), snap.version),
        Err(e) => (Err(e), 0),
    };
    match req {
        Request::Register { name, source } => described(ingest(source).and_then(|graph| {
            catalog
                .register(name, graph)
                .map_err(|e| (ErrCode::Internal, e.to_string()))
        })),
        Request::Query { graph, algo } => match resolve(catalog, graph) {
            Ok(snap) => (run_algo(&snap, *algo), snap.version),
            Err(e) => (Err(e), 0),
        },
        Request::Update { graph, ops } => described(run_update(catalog, graph, ops)),
        Request::Expr(spec) => run_expr(catalog, spec),
        req => (execute_cheap(catalog, req), 0),
    }
}

/// The verbs that read no graph snapshot.
fn execute_cheap(catalog: &Catalog, req: &Request) -> Result<String, QueryError> {
    match req {
        Request::Hello { tenant } => Ok(format!(
            "{{\"protocol\":\"{}\",\"tenant\":\"{}\"}}",
            crate::wire::PROTOCOL,
            json_escape(tenant)
        )),
        Request::Ping => Ok("pong".to_string()),
        Request::List => {
            let items: Vec<String> = catalog.list().iter().map(|s| s.info_json()).collect();
            Ok(format!("[{}]", items.join(",")))
        }
        Request::Stats => Ok(pygb_obs::registry().snapshot().to_json()),
        Request::Drop { name } => {
            if catalog.drop_graph(name) {
                Ok(format!("{{\"dropped\":\"{}\"}}", json_escape(name)))
            } else {
                Err((ErrCode::NotFound, format!("no graph named `{name}`")))
            }
        }
        Request::Register { .. }
        | Request::Query { .. }
        | Request::Update { .. }
        | Request::Expr(_) => unreachable!("graph verbs execute in execute_versioned"),
        Request::Batch { .. } => Err(bad("BATCH header cannot be executed directly")),
        Request::Tail { n } => Ok(records_json(&pygb_obs::recorder().tail(*n))),
        Request::Slow { n } => Ok(records_json(&pygb_obs::recorder().slow(*n))),
        Request::SlowThreshold { ns } => {
            crate::flightlog::set_slow_ns(*ns);
            Ok(format!("{{\"slow_ns\":{ns}}}"))
        }
        Request::Explain { id } => match crate::flightlog::get_explain(*id) {
            Some(entry) => Ok(entry.render()),
            None => Err((
                ErrCode::NotFound,
                format!("no capture for r{id} (request was never slow, or the entry was evicted)"),
            )),
        },
        Request::Metrics => Ok(pygb_obs::registry().snapshot().to_prometheus()),
        Request::TraceDump { path } => {
            pygb_obs::dump_trace_to(std::path::Path::new(path)).map_err(|e| {
                (
                    ErrCode::Internal,
                    format!("trace dump to `{path}` failed: {e}"),
                )
            })?;
            Ok(format!("{{\"dumped\":\"{}\"}}", json_escape(path)))
        }
    }
}

/// Serialize flight-recorder records as a JSON array (the `TAIL`/`SLOW`
/// payload shape).
fn records_json(records: &[pygb_obs::RecordedRequest]) -> String {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"r{}\",\"tenant\":\"{}\",\"verb\":\"{}\",\"graph\":\"{}\",\
                 \"version\":{},\"queue_wait_ns\":{},\"exec_ns\":{},\"outcome\":\"{}\",\
                 \"kernels\":{},\"opt_saved\":{}}}",
                r.id,
                json_escape(&r.tenant),
                json_escape(&r.verb),
                json_escape(&r.graph),
                r.version,
                r.queue_wait_ns,
                r.exec_ns,
                r.outcome.as_str(),
                r.kernel_delta,
                r.opt_delta
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn resolve(catalog: &Catalog, name: &str) -> Result<Arc<Snapshot>, QueryError> {
    catalog
        .get(name)
        .ok_or_else(|| (ErrCode::NotFound, format!("no graph named `{name}`")))
}

fn ingest(source: &GraphSource) -> Result<Matrix, QueryError> {
    let internal = |e: String| (ErrCode::Internal, e);
    match source {
        GraphSource::Er { n, m, seed, sym } => {
            let mut edges = pygb_io::generators::erdos_renyi(*n, *m, *seed);
            if *sym {
                edges = edges.symmetrize();
            }
            Ok(edges.to_pygb(DType::Fp64))
        }
        GraphSource::Rmat {
            scale,
            edge_factor,
            seed,
            sym,
        } => {
            if *scale > 24 {
                return Err(bad("RMAT scale capped at 24 for serving"));
            }
            let mut edges =
                pygb_io::generators::rmat(*scale, *edge_factor, (0.57, 0.19, 0.19, 0.05), *seed);
            if *sym {
                edges = edges.symmetrize();
            }
            Ok(edges.to_pygb(DType::Fp64))
        }
        GraphSource::Triples {
            nrows,
            ncols,
            dtype,
            triples,
        } => {
            let dyn_triples: Vec<(usize, usize, DynScalar)> = triples
                .iter()
                .map(|&(i, j, v)| (i, j, DynScalar::Fp64(v).cast(*dtype)))
                .collect();
            Matrix::from_triples_dyn(*nrows, *ncols, &dyn_triples, Some(*dtype))
                .map_err(|e| bad(e.to_string()))
        }
        GraphSource::Mm { path } => pygb_io::matrix_market::read_file_pygb(path, DType::Fp64)
            .map_err(|e| internal(format!("matrix market read failed: {e}"))),
    }
}

/// Execute one `UPDATE`: cast the wire values to the graph's dtype
/// (the `REGISTER ... TRIPLES` convention), stream the batch through
/// [`Catalog::update_edges`], and return the new version. The dtype is
/// read off whatever snapshot is current when the worker runs; a lost
/// publish race re-applies inside the catalog, and a concurrent
/// re-REGISTER to a different dtype simply casts again on the wire's
/// `f64` values, same as ingest would.
fn run_update(
    catalog: &Catalog,
    graph: &str,
    ops: &UpdateOps,
) -> Result<Arc<Snapshot>, QueryError> {
    let not_found = || (ErrCode::NotFound, format!("no graph named `{graph}`"));
    let dtype = resolve(catalog, graph)?.graph.dtype();
    let batch: Vec<pygb::EdgeUpdate> = match ops {
        UpdateOps::Add(edges) => edges
            .iter()
            .map(|&(i, j, v)| pygb::EdgeUpdate::add(i, j, DynScalar::Fp64(v).cast(dtype)))
            .collect(),
        UpdateOps::Del(edges) => edges
            .iter()
            .map(|&(i, j)| pygb::EdgeUpdate::del(i, j))
            .collect(),
    };
    catalog
        .update_edges(graph, &batch)
        .map_err(|e| bad(e.to_string()))?
        .ok_or_else(not_found)
}

fn run_algo(snap: &Snapshot, algo: Algo) -> Result<String, QueryError> {
    let graph = &snap.graph;
    let n = graph.nrows();
    let internal = |e: pygb::PygbError| (ErrCode::Internal, e.to_string());
    let head = format!(
        "{{\"graph\":\"{}\",\"version\":{},\"algo\":\"{}\"",
        json_escape(&snap.name),
        snap.version,
        algo.label()
    );
    match algo {
        Algo::Bfs(src) => {
            check_source(src, n)?;
            let levels = algos::bfs_nonblocking(graph, src).map_err(internal)?;
            let (body, truncated) = pairs_json(&levels);
            Ok(format!(
                "{head},\"source\":{src},\"levels\":{body},\"nvals\":{},\"truncated\":{truncated}}}",
                levels.nvals()
            ))
        }
        Algo::Sssp(src) => {
            check_source(src, n)?;
            let mut path = Vector::new(n, DType::Fp64);
            path.set(src, 0.0f64).map_err(internal)?;
            algos::sssp_nonblocking(graph, &mut path).map_err(internal)?;
            let (body, truncated) = pairs_json(&path);
            Ok(format!(
                "{head},\"source\":{src},\"dist\":{body},\"nvals\":{},\"truncated\":{truncated}}}",
                path.nvals()
            ))
        }
        Algo::PageRank(max_iters) => {
            let opts = algos::PageRankOptions {
                max_iters: max_iters.unwrap_or(100).min(10_000),
                ..Default::default()
            };
            let (ranks, iters) = algos::pagerank_nonblocking(graph, opts).map_err(internal)?;
            let (body, truncated) = pairs_json(&ranks);
            Ok(format!(
                "{head},\"iters\":{iters},\"ranks\":{body},\"nvals\":{},\"truncated\":{truncated}}}",
                ranks.nvals()
            ))
        }
        Algo::Tricount => {
            let lower: Vec<(usize, usize, DynScalar)> = graph
                .extract_triples()
                .into_iter()
                .filter(|&(i, j, _)| j < i)
                .collect();
            let l = Matrix::from_triples_dyn(n, graph.ncols(), &lower, Some(graph.dtype()))
                .map_err(internal)?;
            let count = algos::tricount_nonblocking(&l).map_err(internal)?;
            Ok(format!("{head},\"triangles\":{}}}", count.as_i64()))
        }
        Algo::Cc => {
            let (labels, rounds) = algos::cc_dsl_loops(graph).map_err(internal)?;
            let components = algos::count_components(&labels);
            let (body, truncated) = pairs_json(&labels);
            Ok(format!(
                "{head},\"components\":{components},\"rounds\":{rounds},\"labels\":{body},\"truncated\":{truncated}}}"
            ))
        }
    }
}

fn check_source(src: usize, n: usize) -> Result<(), QueryError> {
    if src >= n {
        Err(bad(format!("source {src} out of range for {n} vertices")))
    } else {
        Ok(())
    }
}

/// Serialize a sparse vector as `[[i, v], ...]`, capped.
fn pairs_json(v: &Vector) -> (String, bool) {
    let pairs = v.extract_pairs();
    let truncated = pairs.len() > MAX_RESULT_ENTRIES;
    let items: Vec<String> = pairs
        .iter()
        .take(MAX_RESULT_ENTRIES)
        .map(|(i, val)| format!("[{i},{val}]"))
        .collect();
    (format!("[{}]", items.join(",")), truncated)
}

fn run_expr(catalog: &Catalog, spec: &ExprSpec) -> (Result<String, QueryError>, u64) {
    run_expr_group(catalog, &[spec])
        .pop()
        .expect("one member in, one result out")
}

/// An `EXPR` member with its operands resolved, shapes checked, and
/// operator session built — everything that can fail cheaply, done
/// before any graph work is enqueued.
struct PreparedExpr<'a> {
    spec: &'a ExprSpec,
    a: Arc<Snapshot>,
    b: Arc<Snapshot>,
    mask: Option<Arc<Snapshot>>,
    out_shape: (usize, usize),
    session: Session,
}

fn prepare_expr<'a>(catalog: &Catalog, spec: &'a ExprSpec) -> Result<PreparedExpr<'a>, QueryError> {
    let a = resolve(catalog, &spec.a)?;
    let b = resolve(catalog, &spec.b)?;
    let mask = spec
        .mask
        .as_ref()
        .map(|m| resolve(catalog, m))
        .transpose()?;

    let (ar, ac) = a.graph.shape();
    let (br, bc) = b.graph.shape();
    let out_shape = match spec.op {
        ExprOp::Mxm => {
            if ac != br {
                return Err(bad(format!("MXM shape mismatch: {ar}x{ac} @ {br}x{bc}")));
            }
            (ar, bc)
        }
        ExprOp::EwAdd | ExprOp::EwMult => {
            if (ar, ac) != (br, bc) {
                return Err(bad(format!(
                    "element-wise shape mismatch: {ar}x{ac} vs {br}x{bc}"
                )));
            }
            (ar, ac)
        }
    };
    if let Some(m) = &mask {
        if m.graph.shape() != out_shape {
            return Err(bad(format!(
                "mask shape {:?} does not match result shape {:?}",
                m.graph.shape(),
                out_shape
            )));
        }
    }

    // Build the operator session for this request: explicit, owned,
    // activated only on whichever worker thread runs the job.
    let mut session = Session::new();
    if let Some(name) = &spec.semiring {
        session.push_op(&parse_semiring(name)?);
    }
    if let Some(name) = &spec.binop {
        session.push_op(&BinaryOp::new(name).map_err(|e| bad(e.to_string()))?);
    }
    if let Some(name) = &spec.accum {
        session.push_op(&Accumulator::new(name).map_err(|e| bad(e.to_string()))?);
    }
    if spec.replace {
        session.push_op(&Replace);
    }

    Ok(PreparedExpr {
        spec,
        a,
        b,
        mask,
        out_shape,
        session,
    })
}

/// Build the expression and enqueue the (possibly deferred) assignment
/// for one prepared member. Must run with a nonblocking scope active so
/// the op lands in the thread's DAG rather than dispatching eagerly.
fn enqueue_expr(p: &PreparedExpr<'_>) -> Result<Matrix, QueryError> {
    let internal = |e: pygb::PygbError| (ErrCode::Internal, e.to_string());
    let _active = p.session.activate();
    let expr = match p.spec.op {
        ExprOp::Mxm => p.a.graph.matmul(&p.b.graph),
        ExprOp::EwAdd => p.a.graph.ewise_add(&p.b.graph),
        ExprOp::EwMult => p.a.graph.ewise_mult(&p.b.graph),
    };
    let mut out = Matrix::new(p.out_shape.0, p.out_shape.1, expr.result_dtype());
    let target = match (&p.mask, p.spec.complement) {
        (None, _) => out.no_mask(),
        (Some(m), false) => out.masked(&m.graph),
        (Some(m), true) => out.masked_complement(&m.graph),
    };
    if p.spec.accum.is_some() {
        target.accum_assign(expr).map_err(internal)?;
    } else {
        target.assign(expr).map_err(internal)?;
    }
    Ok(out)
}

/// Settle and render one member's result: register under `INTO` or
/// serialize the triples, capped at [`MAX_RESULT_ENTRIES`].
fn finish_expr(catalog: &Catalog, spec: &ExprSpec, mut out: Matrix) -> Result<String, QueryError> {
    let internal = |e: pygb::PygbError| (ErrCode::Internal, e.to_string());
    out.settle().map_err(internal)?;

    if let Some(into) = &spec.into {
        let snap = catalog
            .register(into, out)
            .map_err(|e| (ErrCode::Internal, e.to_string()))?;
        return Ok(snap.info_json());
    }

    let triples = out.extract_triples();
    let truncated = triples.len() > MAX_RESULT_ENTRIES;
    let items: Vec<String> = triples
        .iter()
        .take(MAX_RESULT_ENTRIES)
        .map(|(i, j, v)| format!("[{i},{j},{v}]"))
        .collect();
    Ok(format!(
        "{{\"nrows\":{},\"ncols\":{},\"dtype\":\"{}\",\"nvals\":{},\"triples\":[{}],\"truncated\":{truncated}}}",
        out.nrows(),
        out.ncols(),
        out.dtype(),
        out.nvals(),
        items.join(",")
    ))
}

/// Evaluate several `EXPR` members inside ONE nonblocking scope with a
/// single flush, so the optimization pipeline sees them as one op-DAG.
/// Members naming the same catalog graphs share snapshot `Arc`s, so
/// structurally identical expressions hash to the same CSE key and
/// collapse into a single kernel dispatch (`opt/cse_deduped` moves).
///
/// Per-member failures (bad shapes, unknown graphs, rejected ops) are
/// reported in that member's slot without poisoning the rest; a flush
/// failure is reported by every member whose work was enqueued. Each
/// member's slot also carries the version of the first-operand snapshot
/// it read (0 when it resolved none).
pub(crate) fn run_expr_group(
    catalog: &Catalog,
    specs: &[&ExprSpec],
) -> Vec<(Result<String, QueryError>, u64)> {
    let internal = |e: pygb::PygbError| (ErrCode::Internal, e.to_string());
    let mut results: Vec<Option<Result<String, QueryError>>> = specs.iter().map(|_| None).collect();
    let mut versions = vec![0; specs.len()];
    let mut outs: Vec<(usize, Matrix)> = Vec::new();

    let flush_result: Result<(), QueryError> = (|| {
        let _nb = pygb_runtime::nonblocking().map_err(internal)?;
        for (i, spec) in specs.iter().enumerate() {
            let enqueued = prepare_expr(catalog, spec).and_then(|p| {
                versions[i] = p.a.version;
                enqueue_expr(&p)
            });
            match enqueued {
                Ok(out) => outs.push((i, out)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // The only window where the request's DAG is still pending: if
        // a request scope is installed, render the plan (raw vs
        // optimized, sparsity facts, kernel hints) into it now, before
        // the flush consumes the nodes. Other threads skip the render.
        crate::flightlog::offer_plan(|| pygb_runtime::plan().to_string());
        pygb_runtime::flush().map_err(internal)
    })();

    for (i, out) in outs {
        results[i] = Some(match &flush_result {
            Ok(()) => finish_expr(catalog, specs[i], out),
            Err(e) => Err(e.clone()),
        });
    }
    results
        .into_iter()
        .zip(versions)
        .map(|(r, v)| (r.expect("every member resolved or errored"), v))
        .collect()
}

/// Resolve a semiring clause: a predefined name (`ARITHMETIC`,
/// `MINPLUS`, `LOGICAL`, `MAXTIMES`) or explicit
/// `<add>:<identity>:<mult>` parts, e.g. `Min:MinIdentity:Plus`.
fn parse_semiring(name: &str) -> Result<Semiring, QueryError> {
    match name.to_ascii_uppercase().as_str() {
        "ARITHMETIC" | "PLUSTIMES" => return Ok(ArithmeticSemiring),
        "MINPLUS" => return Ok(MinPlusSemiring),
        "LOGICAL" => return Ok(LogicalSemiring),
        "MAXTIMES" => return Ok(MaxTimesSemiring),
        _ => {}
    }
    let parts: Vec<&str> = name.split(':').collect();
    if parts.len() != 3 {
        return Err(bad(format!(
            "unknown semiring `{name}` (use a predefined name or add:identity:mult)"
        )));
    }
    let monoid = Monoid::new(parts[0], parts[1]).map_err(|e| bad(e.to_string()))?;
    Semiring::new(monoid, parts[2]).map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_whole_grammar() {
        assert_eq!(
            parse("HELLO team-a").unwrap(),
            Request::Hello {
                tenant: "team-a".into()
            }
        );
        assert_eq!(parse("PING").unwrap(), Request::Ping);
        assert_eq!(parse("LIST").unwrap(), Request::List);
        assert_eq!(parse("STATS").unwrap(), Request::Stats);
        assert_eq!(
            parse("register g er 100 400 7 SYM").unwrap(),
            Request::Register {
                name: "g".into(),
                source: GraphSource::Er {
                    n: 100,
                    m: 400,
                    seed: 7,
                    sym: true
                }
            }
        );
        assert_eq!(
            parse("QUERY g BFS 3").unwrap(),
            Request::Query {
                graph: "g".into(),
                algo: Algo::Bfs(3)
            }
        );
        assert_eq!(
            parse("QUERY g PAGERANK").unwrap(),
            Request::Query {
                graph: "g".into(),
                algo: Algo::PageRank(None)
            }
        );
        assert_eq!(parse("BATCH 4").unwrap(), Request::Batch { count: 4 });
        assert_eq!(
            parse("UPDATE g ADD 0:1:2.5,3:4:1").unwrap(),
            Request::Update {
                graph: "g".into(),
                ops: UpdateOps::Add(vec![(0, 1, 2.5), (3, 4, 1.0)])
            }
        );
        assert_eq!(
            parse("update g del 0:1,2:2").unwrap(),
            Request::Update {
                graph: "g".into(),
                ops: UpdateOps::Del(vec![(0, 1), (2, 2)])
            }
        );
    }

    #[test]
    fn parses_expr_clauses() {
        let req = parse("EXPR a MXM b SEMIRING MINPLUS MASK m COMPLEMENT ACCUM Min REPLACE INTO c")
            .unwrap();
        let Request::Expr(spec) = req else {
            panic!("expected EXPR")
        };
        assert_eq!(spec.a, "a");
        assert_eq!(spec.op, ExprOp::Mxm);
        assert_eq!(spec.b, "b");
        assert_eq!(spec.semiring.as_deref(), Some("MINPLUS"));
        assert_eq!(spec.mask.as_deref(), Some("m"));
        assert!(spec.complement);
        assert_eq!(spec.accum.as_deref(), Some("Min"));
        assert!(spec.replace);
        assert_eq!(spec.into.as_deref(), Some("c"));
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "",
            "FROB x",
            "QUERY",
            "QUERY g WALTZ",
            "REGISTER g ER x y z",
            "EXPR a MXM b COMPLEMENT", // complement without mask
            "BATCH 0",
            "BATCH 99999",
            "UPDATE g",
            "UPDATE g ADD",
            "UPDATE g ADD 0:1",     // ADD needs a value
            "UPDATE g ADD 0:1:2:3", // too many parts
            "UPDATE g DEL 0:1:5",   // DEL takes no value
            "UPDATE g FROB 0:1:1",
            "UPDATE g ADD ,,", // empty batch
        ] {
            assert!(parse(line).is_err(), "line should fail: {line:?}");
        }
    }

    #[test]
    fn triples_register_and_bfs_roundtrip() {
        let catalog = Catalog::new();
        let reg = parse("REGISTER t TRIPLES 3 3 fp64 0:1:1,1:2:1").unwrap();
        execute(&catalog, &reg).unwrap();
        let snap = catalog.get("t").unwrap();
        assert_eq!(snap.graph.nvals(), 2);
        let out = execute(&catalog, &parse("QUERY t BFS 0").unwrap()).unwrap();
        assert!(out.contains("\"algo\":\"bfs\""), "{out}");
        // Source is level 1 (the Fig. 2b convention), neighbors 2, 3.
        assert!(out.contains("\"levels\":[[0,1],[1,2],[2,3]]"), "{out}");
    }

    #[test]
    fn update_mutates_published_graph_and_casts_values() {
        let catalog = Catalog::new();
        execute(
            &catalog,
            &parse("REGISTER t TRIPLES 3 3 int32 0:1:1,1:2:1").unwrap(),
        )
        .unwrap();
        // 2.9 casts int32-ward exactly like TRIPLES ingest would.
        let out = execute(&catalog, &parse("UPDATE t ADD 2:0:2.9").unwrap()).unwrap();
        assert!(out.contains("\"version\":2"), "{out}");
        assert!(out.contains("\"nvals\":3"), "{out}");
        assert_eq!(
            catalog.get("t").unwrap().graph.get(2, 0).unwrap().as_i64(),
            2
        );

        let out = execute(&catalog, &parse("UPDATE t DEL 0:1,1:1").unwrap()).unwrap();
        assert!(out.contains("\"version\":3"), "{out}");
        assert!(out.contains("\"nvals\":2"), "{out}"); // (1,1) was absent: no-op
    }

    #[test]
    fn update_missing_graph_is_not_found() {
        let catalog = Catalog::new();
        let err = execute(&catalog, &parse("UPDATE ghost ADD 0:0:1").unwrap()).unwrap_err();
        assert_eq!(err.0, ErrCode::NotFound);
    }

    #[test]
    fn update_out_of_bounds_is_bad_request_and_publishes_nothing() {
        let catalog = Catalog::new();
        execute(
            &catalog,
            &parse("REGISTER t TRIPLES 2 2 fp64 0:1:1").unwrap(),
        )
        .unwrap();
        let err = execute(&catalog, &parse("UPDATE t ADD 0:0:1,5:5:1").unwrap()).unwrap_err();
        assert_eq!(err.0, ErrCode::BadRequest);
        assert!(err.1.contains("out of bounds"), "{}", err.1);
        let snap = catalog.get("t").unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.graph.nvals(), 1);
    }

    #[test]
    fn bfs_source_out_of_range_is_bad_request() {
        let catalog = Catalog::new();
        execute(
            &catalog,
            &parse("REGISTER t TRIPLES 2 2 fp64 0:1:1").unwrap(),
        )
        .unwrap();
        let err = execute(&catalog, &parse("QUERY t BFS 9").unwrap()).unwrap_err();
        assert_eq!(err.0, ErrCode::BadRequest);
    }

    #[test]
    fn missing_graph_is_not_found() {
        let catalog = Catalog::new();
        let err = execute(&catalog, &parse("QUERY ghost CC").unwrap()).unwrap_err();
        assert_eq!(err.0, ErrCode::NotFound);
    }

    #[test]
    fn expr_mxm_with_semiring_matches_local_compute() {
        let catalog = Catalog::new();
        execute(
            &catalog,
            &parse("REGISTER a TRIPLES 2 2 fp64 0:0:1,0:1:2,1:0:3").unwrap(),
        )
        .unwrap();
        execute(
            &catalog,
            &parse("REGISTER b TRIPLES 2 2 fp64 0:0:5,1:1:7").unwrap(),
        )
        .unwrap();
        let out = execute(
            &catalog,
            &parse("EXPR a MXM b SEMIRING ARITHMETIC INTO c").unwrap(),
        )
        .unwrap();
        assert!(out.contains("\"name\":\"c\""), "{out}");
        let c = catalog.get("c").unwrap();
        assert_eq!(c.graph.get(0, 0).unwrap().as_f64(), 5.0);
        assert_eq!(c.graph.get(0, 1).unwrap().as_f64(), 14.0);
        assert_eq!(c.graph.get(1, 0).unwrap().as_f64(), 15.0);
    }

    #[test]
    fn expr_shape_mismatch_is_bad_request() {
        let catalog = Catalog::new();
        execute(
            &catalog,
            &parse("REGISTER a TRIPLES 2 3 fp64 0:0:1").unwrap(),
        )
        .unwrap();
        execute(
            &catalog,
            &parse("REGISTER b TRIPLES 2 3 fp64 0:0:1").unwrap(),
        )
        .unwrap();
        let err = execute(&catalog, &parse("EXPR a MXM b").unwrap()).unwrap_err();
        assert_eq!(err.0, ErrCode::BadRequest);
    }

    #[test]
    fn tricount_on_k4_finds_four_triangles() {
        let catalog = Catalog::new();
        // K4, symmetric: every off-diagonal pair.
        let mut entries = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    entries.push(format!("{i}:{j}:1"));
                }
            }
        }
        let line = format!("REGISTER k4 TRIPLES 4 4 int64 {}", entries.join(","));
        execute(&catalog, &parse(&line).unwrap()).unwrap();
        let out = execute(&catalog, &parse("QUERY k4 TRICOUNT").unwrap()).unwrap();
        assert!(out.contains("\"triangles\":4"), "{out}");
    }
}
