//! `serve_read` and `serve_rw`: an in-process `pygb-serve` on
//! `127.0.0.1:0` driven over real sockets by closed-loop clients
//! (callers that wait for their reply before sending the next request).
//!
//! Every reply is checked: on static graphs the payload is hashed and
//! each distinct payload per request line is parsed and compared with
//! the references after the measured window (a wrong answer cannot hide
//! behind a right one); on the live graph every eighth reply is kept
//! and checked against the op log replayed to the reply's version.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pygb_serve::{query, wire, AdmissionConfig, Catalog, Client, Frame, Server, ServerConfig};

use crate::gen::{fnv1a, giant_sources, Graph, Rng, Zipf};
use crate::json::Json;
use crate::layers::Metrics;
use crate::mix::{
    self, live_after, update_step, Mix, Scope, Sizes, State, UpdateStep, UPDATE_BATCH,
};
use crate::ops::{same_sparse, Variant, FLOAT_TOL};
use crate::reference;
use crate::run::{self, RunArgs, RunOutput, SETUPS};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{analytics, layers, manifest};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Every connection sends the whole mix; queried graphs never change.
    Read,
    /// One connection streams `UPDATE` batches into `g_live`; the others
    /// read it.
    Rw,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Bfs,
    Sssp,
    PageRank,
    Tricount,
    Cc,
    ExprMxm,
    ExprEwmult,
    Batch,
    Ping,
    Load,
    Update,
}

impl Kind {
    const ALL: [Kind; 11] = [
        Kind::Bfs,
        Kind::Sssp,
        Kind::PageRank,
        Kind::Tricount,
        Kind::Cc,
        Kind::ExprMxm,
        Kind::ExprEwmult,
        Kind::Batch,
        Kind::Ping,
        Kind::Load,
        Kind::Update,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Bfs => "bfs",
            Kind::Sssp => "sssp",
            Kind::PageRank => "pagerank",
            Kind::Tricount => "tricount",
            Kind::Cc => "cc",
            Kind::ExprMxm => "expr_mxm",
            Kind::ExprEwmult => "expr_ewmult",
            Kind::Batch => "batch4",
            Kind::Ping => "ping",
            Kind::Load => "load",
            Kind::Update => "update",
        }
    }

    /// Reads whose line can repeat an earlier one (what a result cache
    /// could answer).
    fn is_read(self) -> bool {
        !matches!(self, Kind::Ping | Kind::Load | Kind::Update)
    }
}

const ZIPF_SOURCES: usize = 64;
/// Share of a `serve_*` run spent in-process on the served graphs (for
/// `dsl_over_native` / `nb_over_native`); the closed loop gets the rest.
const IN_PROCESS_SHARE: f64 = 0.15;
/// Live-graph replies kept for the replayed check: every 8th, at most
/// this many per kind and connection.
const LIVE_SAMPLE_EVERY: u64 = 8;
const LIVE_SAMPLE_CAP: usize = 24;

/// Everything the clients need, fixed at set-up.
struct Plan {
    profile: Profile,
    big: &'static str,
    small: &'static str,
    sssp: &'static str,
    big_sources: Vec<usize>,
    sssp_sources: Vec<usize>,
    pagerank_iters: usize,
    ewmult: &'static str,
    load_triples: String,
    small_n: usize,
    small_nvals: usize,
    /// Update batches of the mixed clients' private scratch graphs
    /// (`Read`): fresh with respect to the small graph.
    scratch_batches: Vec<Vec<(usize, usize, f64)>>,
    deck: Vec<Kind>,
    zipf: Zipf,
}

impl Plan {
    fn new(profile: Profile, state: &State, seed: u64) -> Plan {
        let inputs = &state.inputs;
        let rng = Rng::new(seed);
        let sssp = if inputs.sssp == inputs.tri {
            "g_small"
        } else {
            "g_sssp"
        };
        let deck_of = |weights: &[(Kind, usize)]| -> Vec<Kind> {
            weights
                .iter()
                .flat_map(|&(k, w)| std::iter::repeat_n(k, w))
                .collect()
        };
        let (big, ewmult, pagerank_iters, deck) = match profile {
            Profile::Read => (
                "g_mid",
                "g_small",
                20,
                deck_of(&[
                    (Kind::Bfs, 6),
                    (Kind::PageRank, 3),
                    (Kind::Cc, 3),
                    (Kind::Sssp, 3),
                    (Kind::Tricount, 3),
                    (Kind::ExprMxm, 3),
                    (Kind::ExprEwmult, 2),
                    (Kind::Batch, 1),
                    (Kind::Ping, 2),
                    (Kind::Load, 1),
                    (Kind::Update, 3),
                ]),
            ),
            Profile::Rw => (
                "g_live",
                "g_live",
                10,
                deck_of(&[
                    (Kind::Bfs, 8),
                    (Kind::PageRank, 4),
                    (Kind::ExprEwmult, 1),
                    (Kind::Cc, 2),
                    (Kind::Sssp, 2),
                    (Kind::Tricount, 2),
                    (Kind::ExprMxm, 2),
                    (Kind::Ping, 1),
                    (Kind::Load, 1),
                ]),
            ),
        };
        Plan {
            profile,
            big,
            small: "g_small",
            sssp,
            big_sources: giant_sources(
                &inputs.big,
                ZIPF_SOURCES,
                Some(inputs.bfs_depth),
                &mut rng.fork("serve-big"),
            ),
            sssp_sources: giant_sources(
                &inputs.sssp,
                ZIPF_SOURCES,
                None,
                &mut rng.fork("serve-sssp"),
            ),
            pagerank_iters,
            ewmult,
            load_triples: Graph::wire_triples(&inputs.tri.edges),
            small_n: inputs.tri.n,
            small_nvals: inputs.tri.edges.len(),
            scratch_batches: mix::fresh_batches(&inputs.tri, &mut rng.fork("scratch-batches")),
            deck,
            zipf: Zipf::new(ZIPF_SOURCES),
        }
    }

    fn expr_mxm(&self) -> String {
        format!("EXPR {0} MXM {0} SEMIRING ARITHMETIC MASK {0}", self.small)
    }

    fn expr_ewmult(graph: &str) -> String {
        format!("EXPR {graph} EWMULT {graph} BINOP Times")
    }

    /// The request line of `kind`; `param` is the Zipf rank of the
    /// source for BFS/SSSP.
    fn line(&self, kind: Kind, param: usize, client: usize) -> String {
        match kind {
            Kind::Bfs => format!(
                "QUERY {} BFS {}",
                self.big,
                self.big_sources[param % self.big_sources.len()]
            ),
            Kind::Sssp => format!(
                "QUERY {} SSSP {}",
                self.sssp,
                self.sssp_sources[param % self.sssp_sources.len()]
            ),
            Kind::PageRank => format!("QUERY {} PAGERANK {}", self.big, self.pagerank_iters),
            Kind::Tricount => format!("QUERY {} TRICOUNT", self.small),
            Kind::Cc => format!("QUERY {} CC", self.big),
            Kind::ExprMxm => self.expr_mxm(),
            Kind::ExprEwmult => Plan::expr_ewmult(self.ewmult),
            Kind::Ping => "PING".to_string(),
            Kind::Load => format!(
                "REGISTER g_upload{client} TRIPLES {0} {0} fp64 {1}",
                self.small_n, self.load_triples
            ),
            Kind::Batch | Kind::Update => unreachable!("built by their own senders"),
        }
    }

    fn batch_lines(&self) -> [String; 4] {
        [
            self.expr_mxm(),
            Plan::expr_ewmult(self.small),
            self.expr_mxm(),
            Plan::expr_ewmult(self.small),
        ]
    }

    /// Whether replies of `kind` depend on `g_live`'s version.
    fn on_live_graph(&self, kind: Kind) -> bool {
        self.profile == Profile::Rw
            && matches!(
                kind,
                Kind::Bfs | Kind::PageRank | Kind::Cc | Kind::ExprEwmult
            )
    }
}

fn update_line(graph: &str, batches: &[Vec<(usize, usize, f64)>], step: usize) -> String {
    match update_step(step, batches.len()) {
        UpdateStep::Add(b) => format!("UPDATE {graph} ADD {}", Graph::wire_triples(&batches[b])),
        UpdateStep::Del(b) => {
            let pairs: Vec<String> = batches[b]
                .iter()
                .map(|&(i, j, _)| format!("{i}:{j}"))
                .collect();
            format!("UPDATE {graph} DEL {}", pairs.join(","))
        }
    }
}

/// A reply kept for the full check after the window.
struct Retained {
    kind: Kind,
    param: usize,
    payload: String,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<(Kind, f64)>,
    reply_bytes: Vec<f64>,
    /// `(server request id, span index, round trip ns)` for matching
    /// flight-recorder records.
    ids: Vec<(u64, usize, u64)>,
    retained: Vec<Retained>,
    counts: BTreeMap<Kind, (u64, u64)>,
    shed: u64,
    /// Occurrences per distinct read line.
    read_lines: BTreeMap<(Kind, usize), u64>,
    update_steps: usize,
    problems: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, kind: Kind, why: String) {
        self.counts.entry(kind).or_default().1 += 1;
        if self.problems.len() < 8 {
            self.problems.push(format!("{}: {why}", kind.label()));
        }
    }
}

fn version_of(payload: &str) -> Option<u64> {
    let at = payload.find("\"version\":")? + "\"version\":".len();
    let digits: String = payload[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

struct ClientCtx<'a> {
    plan: &'a Plan,
    id: usize,
    client: Client,
    rng: Rng,
    log: ClientLog,
    tracer: Tracer,
    seen: HashMap<(Kind, usize), Vec<u64>>,
    live_count: BTreeMap<Kind, u64>,
    op: u64,
}

impl<'a> ClientCtx<'a> {
    fn connect(
        plan: &'a Plan,
        addr: std::net::SocketAddr,
        id: usize,
        seed: u64,
        tracer: Tracer,
    ) -> std::io::Result<ClientCtx<'a>> {
        let mut client = Client::connect(addr)?;
        client.hello(&format!("bench-{id}"))?;
        Ok(ClientCtx {
            plan,
            id,
            client,
            rng: Rng::new(seed).fork(&format!("client-{id}")),
            log: ClientLog::default(),
            tracer,
            seen: HashMap::new(),
            live_count: BTreeMap::new(),
            op: 0,
        })
    }

    /// One closed-loop exchange: send, wait, time, check.
    fn exchange(&mut self, kind: Kind, param: usize) {
        let plan = self.plan;
        self.op += 1;
        self.log.counts.entry(kind).or_default().0 += 1;
        let span = self.tracer.next_index();
        let t = Instant::now();
        let client = &mut self.client;
        let (id, step) = (self.id, self.log.update_steps);
        let frame = self
            .tracer
            .span("serve", kind.label(), self.op, |_| match kind {
                Kind::Batch => {
                    let lines = plan.batch_lines();
                    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
                    client.batch(&refs)
                }
                Kind::Update => {
                    let line = match plan.profile {
                        Profile::Read => {
                            update_line(&format!("g_scratch{id}"), &plan.scratch_batches, step)
                        }
                        Profile::Rw => unreachable!("the writer sends its own updates"),
                    };
                    client.request(&line)
                }
                _ => client.request(&plan.line(kind, param, id)),
            });
        let rtt = t.elapsed();
        let payload = match frame {
            Ok(Frame::Ok(p) | Frame::OkWarn(p, _)) => p,
            Ok(Frame::Err(code, msg)) => {
                if matches!(
                    code,
                    pygb_serve::ErrCode::Overloaded | pygb_serve::ErrCode::Timeout
                ) {
                    self.log.shed += 1;
                }
                return self.log.fail(kind, format!("ERR {code}: {msg}"));
            }
            Err(e) => return self.log.fail(kind, format!("io: {e}")),
        };
        self.log.samples.push((kind, rtt.as_secs_f64() * 1e3));
        self.log.reply_bytes.push(payload.len() as f64);
        if self.tracer.enabled() {
            if let Some(rid) = self.client.last_request_id() {
                self.log.ids.push((rid, span, rtt.as_nanos() as u64));
            }
        }
        if kind.is_read() {
            *self.log.read_lines.entry((kind, param)).or_default() += 1;
        }
        self.check_inline(kind, param, payload);
    }

    /// Cheap checks on the spot; anything that needs a reference is
    /// retained for after the window.
    fn check_inline(&mut self, kind: Kind, param: usize, payload: String) {
        let plan = self.plan;
        match kind {
            Kind::Ping => {
                if payload != "pong" {
                    self.log.fail(kind, format!("ping answered `{payload}`"));
                }
            }
            Kind::Load => {
                let ok = Json::parse(&payload).is_ok_and(|v| {
                    v.num("nrows") == Some(plan.small_n as f64)
                        && v.num("nvals") == Some(plan.small_nvals as f64)
                });
                if !ok {
                    self.log
                        .fail(kind, format!("upload descriptor `{payload}`"));
                }
            }
            Kind::Update => {
                self.log.update_steps += 1;
                let steps = self.log.update_steps;
                let live = live_after(steps, plan.scratch_batches.len()).len();
                let want_nvals = (plan.small_nvals + UPDATE_BATCH * live) as f64;
                let ok = Json::parse(&payload).is_ok_and(|v| {
                    v.num("nvals") == Some(want_nvals)
                        && v.num("version") == Some(steps as f64 + 1.0)
                });
                if !ok {
                    self.log
                        .fail(kind, format!("after step {steps}: `{payload}`"));
                }
            }
            _ if plan.on_live_graph(kind) => {
                let n = self.live_count.entry(kind).or_default();
                *n += 1;
                let kept = self.log.retained.iter().filter(|r| r.kind == kind).count();
                if *n % LIVE_SAMPLE_EVERY == 1 && kept < LIVE_SAMPLE_CAP {
                    self.log.retained.push(Retained {
                        kind,
                        param,
                        payload,
                    });
                } else if !payload.starts_with('{') {
                    self.log.fail(kind, "reply is not an object".into());
                }
            }
            _ => {
                let h = fnv1a(0xcbf2_9ce4_8422_2325, payload.as_bytes());
                let hashes = self.seen.entry((kind, param)).or_default();
                if !hashes.contains(&h) {
                    hashes.push(h);
                    self.log.retained.push(Retained {
                        kind,
                        param,
                        payload,
                    });
                }
            }
        }
    }

    /// The mixed client: shuffled decks until told to stop.
    fn run_mix(&mut self, stop: &AtomicBool) {
        let mut deck = self.plan.deck.clone();
        'outer: loop {
            self.rng.shuffle(&mut deck);
            for &kind in &deck {
                if stop.load(Ordering::Relaxed) {
                    break 'outer;
                }
                let param = match kind {
                    Kind::Bfs | Kind::Sssp => self.plan.zipf.sample(&mut self.rng),
                    _ => 0,
                };
                self.exchange(kind, param);
            }
        }
    }
}

/// The `serve_rw` writer: streams the update batches into `g_live`,
/// checking each published descriptor against the op log.
fn run_writer(
    addr: std::net::SocketAddr,
    state: &State,
    stop: &AtomicBool,
    mut tracer: Tracer,
    first_step: usize,
) -> std::io::Result<(ClientLog, Tracer)> {
    let mut client = Client::connect(addr)?;
    client.hello("bench-writer")?;
    let mut log = ClientLog {
        update_steps: first_step,
        ..ClientLog::default()
    };
    let batches = &state.inputs.batches;
    let base = state.inputs.big.edges.len();
    let mut op = 0;
    while !stop.load(Ordering::Relaxed) {
        let line = update_line("g_live", batches, log.update_steps);
        op += 1;
        log.counts.entry(Kind::Update).or_default().0 += 1;
        let span = tracer.next_index();
        let t = Instant::now();
        let frame = tracer.span("serve", "update", op, |_| client.request(&line));
        let rtt = t.elapsed();
        match frame {
            Ok(Frame::Ok(p) | Frame::OkWarn(p, _)) => {
                log.samples.push((Kind::Update, rtt.as_secs_f64() * 1e3));
                log.reply_bytes.push(p.len() as f64);
                if let (true, Some(rid)) = (tracer.enabled(), client.last_request_id()) {
                    log.ids.push((rid, span, rtt.as_nanos() as u64));
                }
                log.update_steps += 1;
                let steps = log.update_steps;
                let want = (base + UPDATE_BATCH * live_after(steps, batches.len()).len()) as f64;
                // `g_live` is registered as version 1 and only this
                // connection publishes to it.
                let ok = Json::parse(&p).is_ok_and(|v| {
                    v.num("nvals") == Some(want) && v.num("version") == Some(steps as f64 + 1.0)
                });
                if !ok {
                    log.fail(Kind::Update, format!("after step {steps}: `{p}`"));
                }
            }
            Ok(Frame::Err(code, msg)) => log.fail(Kind::Update, format!("ERR {code}: {msg}")),
            Err(e) => {
                log.fail(Kind::Update, format!("io: {e}"));
                break;
            }
        }
    }
    Ok((log, tracer))
}

// ---------------------------------------------------------------------
// Reply checks
// ---------------------------------------------------------------------

fn pairs_to_sparse(v: &Json, key: &str, n: usize) -> Result<Vec<Option<f64>>, String> {
    let mut out = vec![None; n];
    let pairs = v
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("reply has no `{key}`"))?;
    for p in pairs {
        match p.as_array() {
            Some([i, x]) => {
                let i = i.as_f64().ok_or("bad index")? as usize;
                *out.get_mut(i).ok_or("index out of range")? = x.as_f64();
            }
            _ => return Err("malformed pair".into()),
        }
    }
    if v.get("truncated") != Some(&Json::Bool(false)) {
        return Err("reply truncated".into());
    }
    Ok(out)
}

fn triples_of(v: &Json) -> Result<Vec<(usize, usize, f64)>, String> {
    v.get("triples")
        .and_then(Json::as_array)
        .ok_or("reply has no `triples`")?
        .iter()
        .map(|t| match t.as_array() {
            Some([i, j, x]) => Ok((
                i.as_f64().ok_or("bad row")? as usize,
                j.as_f64().ok_or("bad col")? as usize,
                x.as_f64().ok_or("bad value")?,
            )),
            _ => Err("malformed triple".to_string()),
        })
        .collect()
}

fn same_triples(got: &[(usize, usize, f64)], want: &[(usize, usize, f64)]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} triples, want {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if (g.0, g.1) != (w.0, w.1) || (g.2 - w.2).abs() > FLOAT_TOL * w.2.abs() {
            return Err(format!("triple {g:?}, want {w:?}"));
        }
    }
    Ok(())
}

/// References for the static graphs, computed once per set-up.
struct Truth {
    pagerank: (Vec<Option<f64>>, usize),
    cc: Vec<Option<f64>>,
    triangles: f64,
    mxm: Vec<(usize, usize, f64)>,
    ewmult_small: Vec<(usize, usize, f64)>,
}

fn squared(g: &Graph) -> Vec<(usize, usize, f64)> {
    g.edges.iter().map(|&(i, j, w)| (i, j, w * w)).collect()
}

/// The server's `PAGERANK k` uses Fig 7's default threshold.
const SERVER_PAGERANK_THRESHOLD: f64 = 1.0e-5;

fn pagerank_truth(g: &Graph, iters: usize) -> (Vec<Option<f64>>, usize) {
    let (ranks, it) = reference::pagerank(g, 0.85, SERVER_PAGERANK_THRESHOLD, iters);
    (ranks.into_iter().map(Some).collect(), it)
}

fn cc_truth(g: &Graph) -> Vec<Option<f64>> {
    reference::components(g)
        .into_iter()
        .map(|l| Some(l as f64 + 1.0))
        .collect()
}

impl Truth {
    fn new(plan: &Plan, state: &State) -> Truth {
        let (big, small) = (&state.inputs.big, &state.inputs.tri);
        Truth {
            pagerank: pagerank_truth(big, plan.pagerank_iters),
            cc: cc_truth(big),
            triangles: reference::triangle_sum(&small.lower()),
            mxm: reference::masked_mxm(small, small, small),
            ewmult_small: squared(small),
        }
    }
}

/// Check one retained reply. `big` is the big graph as it was at the
/// reply's version (the base graph on static workloads).
fn check_reply(
    plan: &Plan,
    state: &State,
    truth: &Truth,
    r: &Retained,
    big: &Graph,
    fresh_truth: bool,
) -> Result<(), String> {
    let v = Json::parse(&r.payload)?;
    let expr = |v: &Json, want: &[(usize, usize, f64)]| -> Result<(), String> {
        if v.num("nvals") != Some(want.len() as f64) {
            return Err(format!("nvals {:?}, want {}", v.num("nvals"), want.len()));
        }
        let got = triples_of(v)?;
        // Long results are cut at the server's entry cap.
        let shown = want.len().min(query::MAX_RESULT_ENTRIES);
        same_triples(&got, &want[..shown])
    };
    match r.kind {
        Kind::Bfs => {
            let source = plan.big_sources[r.param % plan.big_sources.len()];
            let want: Vec<Option<f64>> = reference::bfs_levels(big, source)
                .into_iter()
                .map(|l| l.map(|l| l as f64))
                .collect();
            same_sparse(&pairs_to_sparse(&v, "levels", big.n)?, &want, 0.0)
        }
        Kind::Sssp => {
            let g = &state.inputs.sssp;
            let source = plan.sssp_sources[r.param % plan.sssp_sources.len()];
            same_sparse(
                &pairs_to_sparse(&v, "dist", g.n)?,
                &reference::sssp(g, source),
                FLOAT_TOL,
            )
        }
        Kind::PageRank => {
            let fresh;
            let (want, iters) = if fresh_truth {
                fresh = pagerank_truth(big, plan.pagerank_iters);
                (&fresh.0, fresh.1)
            } else {
                (&truth.pagerank.0, truth.pagerank.1)
            };
            if v.num("iters") != Some(iters as f64) {
                return Err(format!("iters {:?}, want {iters}", v.num("iters")));
            }
            same_sparse(&pairs_to_sparse(&v, "ranks", big.n)?, want, FLOAT_TOL)
        }
        Kind::Tricount => {
            if v.num("triangles") == Some(truth.triangles) {
                Ok(())
            } else {
                Err(format!(
                    "triangles {:?}, want {}",
                    v.num("triangles"),
                    truth.triangles
                ))
            }
        }
        Kind::Cc => {
            let fresh;
            let want = if fresh_truth {
                fresh = cc_truth(big);
                &fresh
            } else {
                &truth.cc
            };
            let mut ids: Vec<u64> = want.iter().flatten().map(|&l| l as u64).collect();
            ids.sort_unstable();
            ids.dedup();
            if v.num("components") != Some(ids.len() as f64) {
                return Err(format!("components {:?}", v.num("components")));
            }
            same_sparse(&pairs_to_sparse(&v, "labels", big.n)?, want, 0.0)
        }
        Kind::ExprMxm => expr(&v, &truth.mxm),
        Kind::ExprEwmult if plan.on_live_graph(Kind::ExprEwmult) => {
            // An EXPR reply names no version: check that `nvals` is one
            // the op log can produce and that every value shown is the
            // square of that edge's weight.
            let base = state.inputs.big.edges.len();
            let allowed: Vec<f64> = (0..=2).map(|k| (base + k * UPDATE_BATCH) as f64).collect();
            if !v.num("nvals").is_some_and(|n| allowed.contains(&n)) {
                return Err(format!("nvals {:?} not reachable", v.num("nvals")));
            }
            let weights: HashMap<(usize, usize), f64> = state
                .inputs
                .big
                .edges
                .iter()
                .chain(state.inputs.batches.iter().flatten())
                .map(|&(i, j, w)| ((i, j), w))
                .collect();
            for (i, j, x) in triples_of(&v)? {
                if weights.get(&(i, j)).map(|w| w * w) != Some(x) {
                    return Err(format!("({i},{j}) = {x}"));
                }
            }
            Ok(())
        }
        Kind::ExprEwmult => expr(&v, &truth.ewmult_small),
        Kind::Batch => {
            let members = v.as_array().ok_or("batch reply is not an array")?;
            if members.len() != 4 {
                return Err(format!("{} members", members.len()));
            }
            for (k, member) in members.iter().enumerate() {
                let ok = member.get("ok").ok_or(format!("member {k} failed"))?;
                expr(
                    ok,
                    if k % 2 == 0 {
                        &truth.mxm
                    } else {
                        &truth.ewmult_small
                    },
                )?;
            }
            Ok(())
        }
        Kind::Ping | Kind::Load | Kind::Update => Ok(()),
    }
}

/// `base` plus the batches live after `steps` update steps.
fn graph_after(base: &Graph, batches: &[Vec<(usize, usize, f64)>], steps: usize) -> Graph {
    let mut edges = base.edges.clone();
    for b in live_after(steps, batches.len()) {
        edges.extend_from_slice(&batches[b]);
    }
    edges.sort_by_key(|e| (e.0, e.1));
    Graph { n: base.n, edges }
}

/// Check every retained reply; returns `(checked, wrong)`.
fn verify_retained(
    plan: &Plan,
    state: &State,
    truth: &Truth,
    retained: &[Retained],
    first_version_steps: usize,
) -> (u64, u64) {
    let mut wrong = 0;
    let mut note = |r: &Retained, res: Result<(), String>| {
        if let Err(e) = res {
            wrong += 1;
            eprintln!("WRONG ANSWER {} #{}: {e}", r.kind.label(), r.param);
        }
    };
    // Replies that name a `g_live` version are checked in version
    // order, so only one replayed graph is alive at a time.
    // (An EXPR reply names none; `check_reply` handles that case.)
    let (mut live, fixed): (Vec<&Retained>, Vec<&Retained>) = retained
        .iter()
        .partition(|r| plan.on_live_graph(r.kind) && version_of(&r.payload).is_some());
    for r in fixed {
        note(
            r,
            check_reply(plan, state, truth, r, &state.inputs.big, false),
        );
    }
    live.sort_by_key(|r| version_of(&r.payload));
    let mut replayed: Option<(u64, Graph)> = None;
    for r in live {
        let res = match version_of(&r.payload) {
            None => Err("reply names no version".to_string()),
            // Version 1 is the registered graph; each update step
            // publishes the next one.
            Some(version) if (version as usize) <= first_version_steps => {
                Err(format!("version {version} predates the window"))
            }
            Some(version) => {
                if replayed.as_ref().map(|(v, _)| *v) != Some(version) {
                    let steps = version as usize - 1;
                    replayed = Some((
                        version,
                        graph_after(&state.inputs.big, &state.inputs.batches, steps),
                    ));
                }
                let (_, g) = replayed.as_ref().expect("just replayed");
                check_reply(plan, state, truth, r, g, true)
            }
        };
        note(r, res);
    }
    (retained.len() as u64, wrong)
}

// ---------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------

struct Running {
    server: Server,
    plan: Plan,
    truth: Truth,
    workers: usize,
    clients: usize,
}

/// Start a server, register the workload's graphs through
/// `Server::catalog()`, and send every request kind once over the wire,
/// checking each reply. Returns `(running, checked, wrong)`.
fn start(profile: Profile, state: &State, seed: u64) -> std::io::Result<(Running, u64, u64)> {
    // A writer and at least one reader: two connections even on one core.
    let clients = run::concurrency().max(2);
    let workers = clients;
    let server = Server::start(
        Arc::new(Catalog::new()),
        ServerConfig {
            workers,
            admission: AdmissionConfig {
                max_inflight: 4 * clients,
                per_tenant: 4 * clients,
                queue_timeout: Duration::from_secs(30),
            },
            ..ServerConfig::default()
        },
    )?;
    let plan = Plan::new(profile, state, seed);
    let catalog = server.catalog();
    let reg = |name: &str, m: &pygb::Matrix| {
        catalog
            .register(name, m.clone())
            .map(|_| ())
            .map_err(|e| std::io::Error::other(e.to_string()))
    };
    reg(plan.big, &state.big.dsl)?;
    reg(plan.small, &state.expr.dsl)?;
    if plan.sssp != plan.small {
        reg(plan.sssp, &state.sssp.dsl)?;
    }
    reg("g_scratch0", &state.expr.dsl)?; // the warm-up's update target
    let truth = Truth::new(&plan, state);

    // Warm-up over the wire, every kind once, fully checked.
    let mut warm = ClientCtx::connect(
        &plan,
        server.local_addr(),
        0,
        seed,
        Tracer::new(false, Instant::now()),
    )?;
    for kind in Kind::ALL {
        if kind == Kind::Update && profile == Profile::Rw {
            continue; // the writer's stream starts in the window
        }
        warm.exchange(kind, 0);
    }
    let log = std::mem::take(&mut warm.log);
    drop(warm);
    let (mut checked, mut wrong) = verify_retained(&plan, state, &truth, &log.retained, 0);
    for (attempted, failed) in log.counts.values() {
        checked += attempted;
        wrong += failed;
    }
    for p in &log.problems {
        eprintln!("FAILED {p}");
    }
    Ok((
        Running {
            server,
            plan,
            truth,
            workers,
            clients,
        },
        checked,
        wrong,
    ))
}

/// What one closed-loop window produced.
struct Window {
    wall_s: f64,
    logs: Vec<ClientLog>,
    tracers: Vec<Tracer>,
    writer_steps: usize,
}

/// Drive the server for `duration` with `clients` closed-loop
/// connections (threads + connections ≤ cores).
fn window(
    running: &Running,
    state: &State,
    seed: u64,
    duration: Duration,
    trace: Option<Instant>,
    writer_first_step: usize,
) -> std::io::Result<Window> {
    let stop = AtomicBool::new(false);
    let addr = running.server.local_addr();
    let plan = &running.plan;
    if plan.profile == Profile::Read {
        // Every window's update streams start at step 0 on a fresh
        // version-1 copy of the small graph, one per connection.
        let catalog = running.server.catalog();
        for c in 0..running.clients {
            let name = format!("g_scratch{c}");
            catalog.drop_graph(&name);
            catalog
                .register(&name, state.expr.dsl.clone())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
    }
    let tracer = || match trace {
        Some(epoch) => Tracer::new(true, epoch),
        None => Tracer::new(false, Instant::now()),
    };
    let start = Instant::now();
    let (logs, tracers, writer_steps) = std::thread::scope(|scope| {
        let stop = &stop;
        let mut mixed = Vec::new();
        let mut writer = None;
        for id in 0..running.clients {
            if plan.profile == Profile::Rw && id == 0 {
                let t = tracer();
                writer =
                    Some(scope.spawn(move || run_writer(addr, state, stop, t, writer_first_step)));
            } else {
                let t = tracer();
                mixed.push(
                    scope.spawn(move || -> std::io::Result<(ClientLog, Tracer)> {
                        let mut ctx = ClientCtx::connect(plan, addr, id, seed, t)?;
                        ctx.run_mix(stop);
                        Ok((ctx.log, ctx.tracer))
                    }),
                );
            }
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let (mut logs, mut tracers) = (Vec::new(), Vec::new());
        let mut writer_steps = writer_first_step;
        let mut first_err = None;
        if let Some(w) = writer {
            match w.join().expect("writer thread panicked") {
                Ok((log, tracer)) => {
                    writer_steps = log.update_steps;
                    logs.push(log);
                    tracers.push(tracer);
                }
                Err(e) => first_err = Some(e),
            }
        }
        for h in mixed {
            match h.join().expect("client thread panicked") {
                Ok((log, tracer)) => {
                    logs.push(log);
                    tracers.push(tracer);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((logs, tracers, writer_steps)),
        }
    })?;
    Ok(Window {
        wall_s: start.elapsed().as_secs_f64(),
        logs,
        tracers,
        writer_steps,
    })
}

/// Totals of a window, with every retained reply checked.
struct Tally {
    attempted: u64,
    failed: u64,
    by_kind: BTreeMap<Kind, Vec<f64>>,
    counts: BTreeMap<Kind, (u64, u64)>,
    all_ms: Vec<f64>,
    reply_bytes: Vec<f64>,
    shed: u64,
    repeat_share: f64,
}

impl Tally {
    /// Requests that completed with an `OK` frame.
    fn ok(&self) -> u64 {
        self.all_ms.len() as u64
    }
}

fn tally(running: &Running, state: &State, w: &Window, first_steps: usize) -> Tally {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        by_kind: BTreeMap::new(),
        counts: BTreeMap::new(),
        all_ms: Vec::new(),
        reply_bytes: Vec::new(),
        shed: 0,
        repeat_share: 0.0,
    };
    let mut read_lines: BTreeMap<(Kind, usize), u64> = BTreeMap::new();
    for log in &w.logs {
        for &(kind, ms) in &log.samples {
            t.by_kind.entry(kind).or_default().push(ms);
            t.all_ms.push(ms);
        }
        t.reply_bytes.extend_from_slice(&log.reply_bytes);
        for (&kind, &(a, f)) in &log.counts {
            let e = t.counts.entry(kind).or_default();
            e.0 += a;
            e.1 += f;
        }
        t.shed += log.shed;
        for (&line, &n) in &log.read_lines {
            *read_lines.entry(line).or_default() += n;
        }
        for p in &log.problems {
            eprintln!("FAILED {p}");
        }
        // Retained replies were already counted as attempted requests;
        // a wrong one turns that request into a failure.
        let (_, wrong) = verify_retained(
            &running.plan,
            state,
            &running.truth,
            &log.retained,
            first_steps,
        );
        t.failed += wrong;
    }
    for &(a, f) in t.counts.values() {
        t.attempted += a;
        t.failed += f;
    }
    let reads: u64 = read_lines.values().sum();
    t.repeat_share = if reads == 0 {
        0.0
    } else {
        (reads - read_lines.len() as u64) as f64 / reads as f64
    };
    t
}

/// `serve_rw` only: the catalog's final `g_live` must be the op log
/// replayed — same `nvals`, same BFS levels. Returns `(checked, wrong)`.
fn final_live_check(running: &Running, state: &State, steps: usize) -> (u64, u64) {
    let want = graph_after(&state.inputs.big, &state.inputs.batches, steps);
    let mut wrong = 0;
    let snap = running.server.catalog().get("g_live");
    if snap.as_ref().map(|s| s.graph.nvals()) != Some(want.edges.len()) {
        wrong += 1;
        eprintln!("WRONG ANSWER g_live nvals after {steps} steps");
    }
    let source = running.plan.big_sources[0];
    let reply = query::parse(&format!("QUERY g_live BFS {source}"))
        .and_then(|req| query::execute(running.server.catalog(), &req));
    let levels: Vec<Option<f64>> = reference::bfs_levels(&want, source)
        .into_iter()
        .map(|l| l.map(|l| l as f64))
        .collect();
    let ok = reply
        .map_err(|(code, msg)| format!("{code}: {msg}"))
        .and_then(|p| Json::parse(&p))
        .and_then(|v| pairs_to_sparse(&v, "levels", want.n))
        .and_then(|got| same_sparse(&got, &levels, 0.0));
    if let Err(e) = ok {
        wrong += 1;
        eprintln!("WRONG ANSWER g_live BFS after {steps} steps: {e}");
    }
    (2, wrong)
}

fn kinds_json(t: &Tally) -> Json {
    Json::obj(Kind::ALL.iter().filter_map(|&k| {
        let (attempted, failed) = t.counts.get(&k).copied()?;
        let s = Summary::of(t.by_kind.get(&k).map_or(&[][..], Vec::as_slice));
        Some((
            k.label(),
            Json::obj([
                ("p50_ms", Json::Num(s.median)),
                ("q1_ms", Json::Num(s.q1)),
                ("q3_ms", Json::Num(s.q3)),
                ("samples", Json::Num(s.n as f64)),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
            ]),
        ))
    }))
}

/// Little's law on a closed loop: `throughput × mean latency` is the
/// number of requests in flight, which is the client count (less the
/// share of time clients spend between requests).
fn littles_law(t: &Tally, wall_s: f64, clients: usize) -> Json {
    let mean_s = t.all_ms.iter().sum::<f64>() / t.all_ms.len().max(1) as f64 / 1e3;
    let in_flight = t.ok() as f64 / wall_s * mean_s;
    Json::obj([
        ("throughput_per_s", Json::Num(t.ok() as f64 / wall_s)),
        ("mean_latency_ms", Json::Num(mean_s * 1e3)),
        ("in_flight", Json::Num(in_flight)),
        ("clients", Json::Num(clients as f64)),
        (
            "residual",
            Json::Num((clients as f64 - in_flight) / clients as f64),
        ),
    ])
}

// ---------------------------------------------------------------------
// The untraced workload
// ---------------------------------------------------------------------

pub fn run(profile: Profile, sizes: Sizes, args: &RunArgs) -> std::io::Result<RunOutput> {
    if args.trace {
        return run_traced(profile, sizes, args);
    }
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // shut the previous server down first
        let t = Instant::now();
        let (state, checked, wrong) = analytics::set_up(sizes, args.seed);
        let (running, wire_checked, wire_wrong) = start(profile, &state, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += checked + wire_checked;
        failed += wrong + wire_wrong;
        last = Some((state, running));
    }
    let (mut state, running) = last.expect("SETUPS > 0");

    // The first part of the run prices the DSL against native on the
    // served graphs, in-process; the rest is the closed loop.
    let mut mix = Mix::calibrated(&mut state, Scope::Algorithms, false);
    let mut off = Tracer::new(false, Instant::now());
    mix.run_for(
        &mut state,
        &mut off,
        Duration::from_secs_f64(args.seconds * IN_PROCESS_SHARE),
    );
    attempted += mix.attempted();
    failed += mix.failed();

    let w = window(
        &running,
        &state,
        args.seed,
        Duration::from_secs_f64(args.seconds * (1.0 - IN_PROCESS_SHARE)),
        None,
        0,
    )?;
    let t = tally(&running, &state, &w, 0);
    attempted += t.attempted;
    failed += t.failed;
    if profile == Profile::Rw {
        let (checked, wrong) = final_live_check(&running, &state, w.writer_steps);
        attempted += checked;
        failed += wrong;
    }

    let p50 = |k: Kind| stats::median(t.by_kind.get(&k).map_or(&[][..], Vec::as_slice));
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("ops_per_s", t.ok() as f64 / w.wall_s),
        ("peak_rss_mb", run::peak_rss_mb()),
        ("load_p50_ms", p50(Kind::Load)),
        ("bfs_p50_ms", p50(Kind::Bfs)),
        ("sssp_p50_ms", p50(Kind::Sssp)),
        ("tricount_p50_ms", p50(Kind::Tricount)),
        ("cc_p50_ms", p50(Kind::Cc)),
        ("pagerank_p50_ms", p50(Kind::PageRank)),
        ("expr_p50_ms", p50(Kind::ExprMxm)),
        ("update_p50_ms", p50(Kind::Update)),
        ("req_p95_ms", stats::percentile(&t.all_ms, 0.95)),
        ("dsl_over_native", mix.over_native(Variant::Loops)),
        ("nb_over_native", mix.over_native(Variant::Nonblocking)),
    ];
    let detail = Json::obj([
        ("sizes", sizes.to_json()),
        ("inputs", state.inputs.to_json()),
        (
            "hygiene",
            run::hygiene_json(running.clients, running.workers),
        ),
        (
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("measured_wall_s", Json::Num(w.wall_s)),
        ("req_p99_ms", Json::Num(stats::percentile(&t.all_ms, 0.99))),
        ("requests", kinds_json(&t)),
        ("shed", Json::Num(t.shed as f64)),
        ("repeat_share", Json::Num(t.repeat_share)),
        ("writer_steps", Json::Num(w.writer_steps as f64)),
        ("littles_law", littles_law(&t, w.wall_s, running.clients)),
        ("mix", mix.to_json()),
    ]);
    running.server.shutdown();
    Ok(RunOutput {
        attempted,
        failed,
        metrics,
        detail,
    })
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

pub struct Served {
    pub attempted: u64,
    pub failed: u64,
    pub detail: Json,
}

/// Fixed-work probes of the serve layer's public functions, then a
/// traced closed loop whose round trips are matched with the program's
/// flight-recorder records by request ID. Fills every `serve.*` metric.
pub fn traced_loop(
    profile: Profile,
    state: &State,
    seed: u64,
    duration: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Served {
    match traced_loop_io(profile, state, seed, duration, tracer, m) {
        Ok(served) => served,
        Err(e) => {
            eprintln!("FAILED serve loop: {e}");
            Served {
                attempted: 1,
                failed: 1,
                detail: Json::Str(e.to_string()),
            }
        }
    }
}

fn traced_loop_io(
    profile: Profile,
    state: &State,
    seed: u64,
    duration: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<Served> {
    let (running, mut attempted, mut failed) = start(profile, state, seed)?;
    serve_probes(&running, state, tracer, m)?;

    let reg0 = pygb_obs::registry().snapshot();
    // Untraced then traced halves of the same loop: their throughput
    // difference is what the benchmark's own spans cost here.
    let half = duration / 2;
    let plain = window(&running, state, seed, half, None, 0)?;
    let plain_tally = tally(&running, state, &plain, 0);
    let traced = window(
        &running,
        state,
        seed,
        half,
        Some(tracer.epoch()),
        plain.writer_steps,
    )?;
    let t = tally(&running, state, &traced, plain.writer_steps);
    let reg1 = pygb_obs::registry().snapshot();
    for tl in [&plain_tally, &t] {
        attempted += tl.attempted;
        failed += tl.failed;
    }
    if profile == Profile::Rw {
        let (checked, wrong) = final_live_check(&running, state, traced.writer_steps);
        attempted += checked;
        failed += wrong;
    }

    // Match round trips with flight-recorder records by request ID.
    let records: HashMap<u64, pygb_obs::RecordedRequest> = pygb_obs::recorder()
        .tail(pygb_obs::RECORDER_CAPACITY)
        .into_iter()
        .map(|r| (r.id, r))
        .collect();
    let (mut queue_us, mut exec_us) = (Vec::new(), Vec::new());
    let (mut rtt_ns, mut exec_ns, mut queue_ns) = (0u64, 0u64, 0u64);
    let Window {
        logs,
        tracers,
        wall_s,
        ..
    } = traced;
    for (log, mut client_tracer) in logs.into_iter().zip(tracers) {
        for &(rid, span, rtt) in &log.ids {
            if let Some(r) = records.get(&rid) {
                queue_us.push(r.queue_wait_ns as f64 / 1e3);
                exec_us.push(r.exec_ns as f64 / 1e3);
                rtt_ns += rtt;
                exec_ns += r.exec_ns;
                queue_ns += r.queue_wait_ns;
                client_tracer.add_child(span, "serve.queue", "queue_wait", r.queue_wait_ns);
                client_tracer.add_child(span, "serve.execute", &r.verb, r.exec_ns);
            }
        }
        tracer.absorb(client_tracer);
    }
    let matched = exec_us.len();
    let heavy: u64 = Kind::ALL
        .iter()
        .filter(|k| **k != Kind::Ping)
        .filter_map(|k| t.counts.get(k))
        .map(|c| c.0)
        .sum();
    m.insert("serve.queue_wait_p50_us", stats::percentile(&queue_us, 0.5));
    m.insert(
        "serve.queue_wait_p95_us",
        stats::percentile(&queue_us, 0.95),
    );
    m.insert("serve.exec_p50_us", stats::percentile(&exec_us, 0.5));
    let transport_share = 1.0 - exec_ns as f64 / rtt_ns.max(1) as f64;
    m.insert("serve.transport_share", transport_share);
    // Execute time of the matched requests, scaled to all heavy ones,
    // over what the workers could have delivered.
    m.insert(
        "serve.worker_busy_share",
        exec_ns as f64 / 1e9 * (heavy as f64 / matched.max(1) as f64)
            / (running.workers as f64 * wall_s),
    );
    m.insert("serve.reply_bytes_p50", stats::median(&t.reply_bytes));
    let delta = |name: &str| (reg1.counter(name) - reg0.counter(name)) as f64;
    m.insert("serve.update_races", delta("serve/catalog_update_races"));
    m.insert(
        "serve.shed",
        delta("serve/shed_overloaded") + delta("serve/shed_global") + delta("serve/shed_tenant"),
    );
    m.insert("serve.repeat_share", t.repeat_share);

    let detail = Json::obj([
        ("profile", Json::Str(format!("{profile:?}"))),
        (
            "hygiene",
            run::hygiene_json(running.clients, running.workers),
        ),
        ("requests", kinds_json(&t)),
        ("littles_law", littles_law(&t, wall_s, running.clients)),
        ("flight_records_matched", Json::Num(matched as f64)),
        (
            // Where a round trip goes. `transport` is the measured PING
            // round trip (socket + framing, no graph work) per request;
            // the residual is what none of the three explains.
            "round_trip_split",
            {
                let rtt = rtt_ns.max(1) as f64;
                let execute = exec_ns as f64 / rtt;
                let queue = queue_ns as f64 / rtt;
                let transport = m["serve.ping_rtt_us"] * 1e3 * matched as f64 / rtt;
                Json::obj([
                    ("execute_share", Json::Num(execute)),
                    ("queue_share", Json::Num(queue)),
                    ("transport_share", Json::Num(transport)),
                    (
                        "residual_share",
                        Json::Num(1.0 - execute - queue - transport),
                    ),
                ])
            },
        ),
        (
            "trace_overhead_share",
            Json::Num(
                (plain_tally.ok() as f64 / plain.wall_s) / (t.ok() as f64 / wall_s).max(1e-9) - 1.0,
            ),
        ),
    ]);
    running.server.shutdown();
    Ok(Served {
        attempted,
        failed,
        detail,
    })
}

/// Fixed-work probes: wire encode / decode, request parse, in-process
/// `query::execute` per verb (no socket), ping round trip, catalog
/// register / update.
fn serve_probes(
    running: &Running,
    state: &State,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let plan = &running.plan;
    let catalog = running.server.catalog();
    let timed = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut()| {
        let ms = layers::bench(tracer, "serve", name, Duration::from_millis(200), f);
        (name, ms)
    };

    // A BFS-reply-shaped 64 KiB payload.
    let payload: String = "[1234,5],".repeat(64 * 1024 / 9);
    let kb = payload.len() as f64 / 1024.0;
    let mut frame = Vec::with_capacity(payload.len() + 32);
    let (name, ms) = timed("serve.wire_encode_ns_per_kb", tracer, &mut || {
        frame.clear();
        wire::write_ok(&mut frame, &payload).expect("write to memory");
    });
    m.insert(name, ms * 1e6 / kb);
    let (name, ms) = timed("serve.wire_decode_ns_per_kb", tracer, &mut || {
        let decoded = wire::read_frame(&mut std::io::BufReader::new(&frame[..]));
        assert!(matches!(decoded, Ok(Frame::Ok(_))));
    });
    m.insert(name, ms * 1e6 / kb);

    let bfs_line = plan.line(Kind::Bfs, 0, 0);
    let ns = layers::bench_ns(tracer, "serve", "serve.parse_ns", 10_000, || {
        query::parse(std::hint::black_box(&bfs_line)).is_ok()
    });
    m.insert("serve.parse_ns", ns);

    let execute = |line: &str| {
        let req = query::parse(line).expect("own request parses");
        query::execute(catalog, &req).expect("own request executes");
    };
    for kind in [
        Kind::Bfs,
        Kind::Sssp,
        Kind::PageRank,
        Kind::Tricount,
        Kind::Cc,
        Kind::ExprMxm,
    ] {
        let verb = kind.label().trim_end_matches("_mxm");
        let name = manifest::per_layer_name(&format!("serve.execute_{verb}_ms"));
        let line = plan.line(kind, 0, 0);
        let (name, ms) = timed(name, tracer, &mut || execute(&line));
        m.insert(name, ms);
    }
    // Updates go to a private copy so the served graphs stay as set up.
    catalog
        .register("g_probe", state.big.dsl.clone())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut step = 0;
    let (name, ms) = timed("serve.execute_update_ms", tracer, &mut || {
        execute(&update_line("g_probe", &state.inputs.batches, step));
        step += 1;
    });
    m.insert(name, ms);
    let (name, ms) = timed("serve.catalog_register_ms", tracer, &mut || {
        catalog
            .register("g_probe", state.big.dsl.clone())
            .expect("settled matrix registers");
    });
    m.insert(name, ms);
    let batch: Vec<pygb::EdgeUpdate> = state.inputs.batches[0]
        .iter()
        .map(|&(i, j, w)| pygb::EdgeUpdate::add(i, j, w))
        .collect();
    let (name, ms) = timed("serve.catalog_update_ms", tracer, &mut || {
        catalog
            .update_edges("g_probe", &batch)
            .expect("batch in range");
    });
    m.insert(name, ms);
    catalog.drop_graph("g_probe");

    let mut client = Client::connect(running.server.local_addr())?;
    client.hello("bench-probe")?;
    let mut rtt_us = Vec::with_capacity(2000);
    tracer.span("serve", "serve.ping_rtt_us", 0, |_| {
        for _ in 0..2000 {
            let t = Instant::now();
            if client.ping().is_ok() {
                rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    });
    m.insert("serve.ping_rtt_us", stats::median(&rtt_us));
    Ok(())
}

fn run_traced(profile: Profile, sizes: Sizes, args: &RunArgs) -> std::io::Result<RunOutput> {
    let epoch = Instant::now();
    let mut m = Metrics::new();
    let (mut state, checked, wrong) = analytics::set_up(sizes, args.seed);
    let (mut attempted, mut failed) = (checked, wrong);
    let census = layers::census(&mut state, &mut m);
    let mut tracer = Tracer::new(true, epoch);

    // The in-process mix over the served graphs: algorithms.* and the
    // DSL shares.
    let mut mix = Mix::calibrated(&mut state, Scope::Algorithms, true);
    let mut off = Tracer::new(false, epoch);
    mix.run_for(
        &mut state,
        &mut off,
        Duration::from_secs_f64(args.seconds * IN_PROCESS_SHARE),
    );
    attempted += mix.attempted();
    failed += mix.failed();
    layers::algorithms_from_mix(&mix, &state, &mut m);
    layers::kernel_probes(&state, &mut tracer, &mut m);
    layers::core_probes(&state, &mut tracer, &mut m);
    layers::core_shares(&mix, census, &mut m);
    layers::jit_probes(&mut tracer, &mut m);
    layers::runtime_probes(&mut tracer, &mut m);
    layers::io_probes(&state, &mut tracer, &mut m);
    layers::obs_probes(&mut state, &mut tracer, &mut m);

    let served = traced_loop(
        profile,
        &state,
        args.seed,
        Duration::from_secs_f64(args.seconds * (1.0 - IN_PROCESS_SHARE)),
        &mut tracer,
        &mut m,
    );
    attempted += served.attempted;
    failed += served.failed;
    // On the serve workloads the benchmark's spans wrap requests, so
    // that is where their cost is measured.
    m.insert(
        "obs.bench_trace_overhead_share",
        served
            .detail
            .num("trace_overhead_share")
            .unwrap_or_default(),
    );
    m.insert("fail_share", failed as f64 / attempted.max(1) as f64);
    let trace_path = layers::write_trace(&tracer, &args.workload, &args.out_dir);
    let detail = Json::obj([
        ("sizes", sizes.to_json()),
        ("inputs", state.inputs.to_json()),
        ("trace_file", Json::Str(trace_path)),
        ("mix", mix.to_json()),
        ("serve", served.detail),
    ]);
    Ok(RunOutput {
        attempted,
        failed,
        metrics: m.into_iter().collect(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_read_without_parsing_the_reply() {
        assert_eq!(
            version_of(r#"{"graph":"g_live","version":41,"algo":"bfs""#),
            Some(41)
        );
        assert_eq!(version_of("pong"), None);
    }

    #[test]
    fn update_lines_follow_the_stream() {
        let batches = vec![vec![(0, 1, 2.0), (3, 4, 5.0)], vec![(6, 7, 8.0)]];
        assert_eq!(update_line("g", &batches, 0), "UPDATE g ADD 0:1:2,3:4:5");
        assert_eq!(update_line("g", &batches, 1), "UPDATE g DEL 6:7");
        assert_eq!(update_line("g", &batches, 2), "UPDATE g ADD 6:7:8");
        let base = Graph {
            n: 8,
            edges: vec![(1, 0, 1.0)],
        };
        assert_eq!(graph_after(&base, &batches, 1).edges.len(), 3);
        assert_eq!(graph_after(&base, &batches, 2).edges.len(), 3);
        assert_eq!(graph_after(&base, &batches, 4).edges.len(), 2);
    }

    /// The whole read profile end to end at the small size: server up,
    /// every kind checked over the wire, a short window, every retained
    /// reply verified against the references.
    #[test]
    fn short_read_window_verifies_every_reply() {
        let (state, _, wrong) = analytics::set_up(mix::ANALYTICS_SMALL, 2);
        assert_eq!(wrong, 0);
        let (running, checked, wrong) = start(Profile::Read, &state, 2).unwrap();
        assert!(checked >= Kind::ALL.len() as u64);
        assert_eq!(wrong, 0);
        let w = window(&running, &state, 2, Duration::from_millis(300), None, 0).unwrap();
        let t = tally(&running, &state, &w, 0);
        assert!(t.ok() > 20, "only {} requests completed", t.ok());
        assert_eq!(t.failed, 0);
        assert!(t.repeat_share > 0.0);
        running.server.shutdown();
    }

    #[test]
    fn short_rw_window_replays_its_op_log() {
        let (state, _, _) = analytics::set_up(mix::ANALYTICS_SMALL, 4);
        let (running, _, wrong) = start(Profile::Rw, &state, 4).unwrap();
        assert_eq!(wrong, 0);
        let w = window(&running, &state, 4, Duration::from_millis(300), None, 0).unwrap();
        let t = tally(&running, &state, &w, 0);
        assert_eq!(t.failed, 0);
        if running.clients > 1 {
            assert!(w.writer_steps > 0);
        }
        assert_eq!(final_live_check(&running, &state, w.writer_steps), (2, 0));
        running.server.shutdown();
    }
}
