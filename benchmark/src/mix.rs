//! The in-process op mix: the seven op kinds (plus a streaming update)
//! in their variants over one workload's graphs. It *is* the
//! `analytics_*` workloads; the `serve_*` workloads run it briefly over
//! the graphs they serve, so `dsl_over_native` means the same thing on
//! every workload.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use pygb::EdgeUpdate;

use crate::gen::{giant_sources, Graph, Rng};
use crate::json::Json;
use crate::ops::{self, Algo, Expected, Prepared, Raw, Variant, FLOAT_TOL};
use crate::reference;
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Frozen input sizes, one set per workload (calibrated once on a
/// 2-core machine so a run fits the driver's budget; see README.md).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sizes {
    /// R-MAT `(scale, edge factor 8)` per graph role.
    Rmat {
        big: u32,
        tri: u32,
        sssp: u32,
        depth: u64,
    },
    /// One Erdős–Rényi graph, `|E| = |V|^1.5`, in every role.
    ErPower { n: usize, depth: u64 },
    /// A served R-MAT graph plus a small Erdős–Rényi one.
    Served {
        big: u32,
        small_n: usize,
        small_m: usize,
        depth: u64,
    },
}

// `depth` is the number of levels a BFS from a source of the big graph
// reaches. It is frozen with the sizes: at these scales and densities it
// is the commonest depth for every seed tried, and fixing it keeps a
// seed whose graph happens to favour another depth from timing a BFS
// with one iteration more or less.
pub const ANALYTICS_LARGE: Sizes = Sizes::Rmat {
    big: 14,
    tri: 12,
    sssp: 10,
    depth: 6,
};
pub const ANALYTICS_SMALL: Sizes = Sizes::ErPower { n: 64, depth: 4 };
pub const SERVE_READ: Sizes = Sizes::Served {
    big: 12,
    small_n: 256,
    small_m: 4096,
    depth: 6,
};
pub const SERVE_RW: Sizes = Sizes::Served {
    big: 13,
    small_n: 256,
    small_m: 4096,
    depth: 6,
};

impl Sizes {
    pub fn to_json(self) -> Json {
        let n = |v: f64| Json::Num(v);
        match self {
            Sizes::Rmat {
                big,
                tri,
                sssp,
                depth,
            } => Json::obj([
                (
                    "generator",
                    Json::Str("rmat(0.57,0.19,0.19,0.05) ef 8".into()),
                ),
                ("big_scale", n(big as f64)),
                ("tri_expr_scale", n(tri as f64)),
                ("sssp_scale", n(sssp as f64)),
                ("bfs_depth", n(depth as f64)),
            ]),
            Sizes::ErPower { n: v, depth } => Json::obj([
                ("generator", Json::Str("erdos-renyi |E|=|V|^1.5".into())),
                ("n", n(v as f64)),
                ("bfs_depth", n(depth as f64)),
            ]),
            Sizes::Served {
                big,
                small_n,
                small_m,
                depth,
            } => Json::obj([
                ("generator", Json::Str("rmat ef 8 + erdos-renyi".into())),
                ("big_scale", n(big as f64)),
                ("small_n", n(small_n as f64)),
                ("small_m", n(small_m as f64)),
                ("bfs_depth", n(depth as f64)),
            ]),
        }
    }
}

pub const SOURCES: usize = 8;
pub const UPDATE_BATCH: usize = 64;
const UPDATE_BATCHES: usize = 32;

/// Everything generated from the seed. All graphs are symmetrized and
/// compacted (no isolated vertex), so the three PageRank variants and
/// the textbook reference agree on them.
pub struct Inputs {
    /// BFS, CC, PageRank, load and update run on this one.
    pub big: Graph,
    /// Triangle counting runs on its unit lower triangle, the raw
    /// expression chain on the graph itself.
    pub tri: Graph,
    /// SSSP: `O(|V|·nnz)`, hence the smallest.
    pub sssp: Graph,
    pub mm_text: String,
    pub big_sources: Vec<usize>,
    pub sssp_sources: Vec<usize>,
    /// The frozen BFS depth of `big`'s sources.
    pub bfs_depth: u64,
    /// Edge batches absent from `big` and from each other.
    pub batches: Vec<Vec<(usize, usize, f64)>>,
}

impl Inputs {
    pub fn generate(sizes: Sizes, seed: u64) -> Inputs {
        let rng = Rng::new(seed);
        let rmat = |scale, role: &str| {
            Graph::rmat(scale, 8, &mut rng.fork(role))
                .symmetrize()
                .compact()
        };
        let (big, tri, sssp, depth) = match sizes {
            Sizes::Rmat {
                big,
                tri,
                sssp,
                depth,
            } => (
                with_vertex0_at_depth(rmat(big, "big"), depth, &mut rng.fork("vertex0")),
                rmat(tri, "tri"),
                rmat(sssp, "sssp"),
                depth,
            ),
            Sizes::ErPower { n, depth } => {
                let g = with_vertex0_at_depth(
                    Graph::erdos_renyi_power(n, &mut rng.fork("er"))
                        .symmetrize()
                        .compact(),
                    depth,
                    &mut rng.fork("vertex0"),
                );
                (g.clone(), g.clone(), g, depth)
            }
            Sizes::Served {
                big,
                small_n,
                small_m,
                depth,
            } => {
                let small = Graph::erdos_renyi(small_n, small_m, &mut rng.fork("small"))
                    .symmetrize()
                    .compact();
                let big = with_vertex0_at_depth(rmat(big, "big"), depth, &mut rng.fork("vertex0"));
                (big, small.clone(), small, depth)
            }
        };
        let big_sources = giant_sources(&big, SOURCES, Some(depth), &mut rng.fork("big-sources"));
        // SSSP relaxes |V| times whatever the source; any depth will do.
        let sssp_sources = giant_sources(&sssp, SOURCES, None, &mut rng.fork("sssp-sources"));
        let batches = fresh_batches(&big, &mut rng.fork("batches"));
        Inputs {
            mm_text: big.to_matrix_market(),
            big,
            tri,
            sssp,
            big_sources,
            sssp_sources,
            bfs_depth: depth,
            batches,
        }
    }

    pub fn to_json(&self) -> Json {
        let g = |g: &Graph| {
            Json::obj([
                ("n", Json::Num(g.n as f64)),
                ("nvals", Json::Num(g.edges.len() as f64)),
                ("edge_hash", Json::Str(format!("{:016x}", g.hash()))),
            ])
        };
        Json::obj([
            ("big", g(&self.big)),
            ("tri_expr", g(&self.tri)),
            ("sssp", g(&self.sssp)),
        ])
    }
}

/// Connected components runs until the smallest label of the largest
/// component has reached all of it, two hops a round, so its round count
/// follows the BFS depth of that component's smallest vertex — 2 or 3
/// rounds at |V| = 64, 3 or 4 on the R-MAT graphs, depending on the
/// seed. Exchanging vertex 0 with a vertex of the frozen depth (an
/// isomorphism) makes every seed time the same number of rounds.
fn with_vertex0_at_depth(g: Graph, depth: u64, rng: &mut Rng) -> Graph {
    match giant_sources(&g, SOURCES, Some(depth), rng).first() {
        Some(&v) => g.swap_vertices(0, v),
        None => g,
    }
}

/// `UPDATE_BATCHES` disjoint batches of directed edges not in `g`.
/// Because they never touch a base edge, deleting a batch restores the
/// graph exactly and `nvals` is always `base + 64 × live batches`.
pub fn fresh_batches(g: &Graph, rng: &mut Rng) -> Vec<Vec<(usize, usize, f64)>> {
    let mut taken: HashSet<(usize, usize)> = g.edges.iter().map(|&(i, j, _)| (i, j)).collect();
    (0..UPDATE_BATCHES)
        .map(|_| {
            let mut batch = Vec::with_capacity(UPDATE_BATCH);
            while batch.len() < UPDATE_BATCH {
                let (i, j) = (rng.below(g.n), rng.below(g.n));
                if i != j && taken.insert((i, j)) {
                    batch.push((i, j, (rng.below(8) + 1) as f64));
                }
            }
            batch
        })
        .collect()
}

/// The update stream both the in-process mix and the `serve_*` writer
/// follow: step `2k` adds batch `k`, step `2k+1` deletes batch `k-1`,
/// so at most two batches are live and `nvals` stays bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateStep {
    Add(usize),
    Del(usize),
}

pub fn update_step(step: usize, batches: usize) -> UpdateStep {
    let k = step / 2;
    if step.is_multiple_of(2) {
        UpdateStep::Add(k % batches)
    } else {
        UpdateStep::Del((k + batches - 1) % batches)
    }
}

/// Live batch ids after `steps` steps of the stream, in closed form:
/// the batch added last, and the one before it until its delete has run.
pub fn live_after(steps: usize, batches: usize) -> Vec<usize> {
    let k = steps / 2;
    let mut live = Vec::new();
    if k >= 1 {
        live.push((k - 1) % batches);
    }
    if steps % 2 == 1 {
        live.push(k % batches);
    }
    live.sort_unstable();
    live
}

/// `(stored entries, their sum)`: cheap to take from a result, and
/// compared with the same digest of the independent reference on every
/// measured op (each kind is also compared entry by entry once per
/// variant at set-up).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Digest {
    nvals: usize,
    sum: f64,
}

impl Digest {
    fn of_sparse(v: &[Option<f64>]) -> Digest {
        Digest {
            nvals: v.iter().flatten().count(),
            sum: v.iter().flatten().sum(),
        }
    }

    fn of_raw(raw: &Raw) -> Digest {
        let (mut nvals, mut sum) = (0, 0.0);
        let mut add = |x: f64| {
            nvals += 1;
            sum += x;
        };
        match raw {
            Raw::Dsl(v) => v.extract_pairs().iter().for_each(|(_, x)| add(x.as_f64())),
            Raw::NativeU64(v) => v.iter().for_each(|(_, x)| add(x as f64)),
            Raw::NativeF64(v) => v.iter().for_each(|(_, x)| add(x)),
            Raw::Scalar(s) => add(*s),
        }
        Digest { nvals, sum }
    }

    fn matches(&self, want: &Digest) -> bool {
        self.nvals == want.nvals && (self.sum - want.sum).abs() <= FLOAT_TOL * want.sum.abs()
    }
}

/// One op kind of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Algo(Algo),
    Expr,
    Load,
    Update,
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Algo(a) => a.label(),
            Op::Expr => "expr",
            Op::Load => "load",
            Op::Update => "update",
        }
    }

    /// The layer (crate) a call of this op enters first.
    fn layer(self) -> &'static str {
        match self {
            Op::Algo(_) => "algorithms",
            Op::Expr | Op::Update => "core",
            Op::Load => "io",
        }
    }
}

/// Containers and reference answers of one set-up.
pub struct State {
    pub inputs: Inputs,
    pub big: Prepared,
    pub lower: Prepared,
    pub expr: Prepared,
    pub sssp: Prepared,
    pub expected: Expected,
    bfs_digests: Vec<Digest>,
    sssp_digests: Vec<Digest>,
    /// The update stream's target and how many steps it has absorbed.
    live: pygb::Matrix,
    update_steps: usize,
}

impl State {
    /// Build containers and compute every reference answer.
    pub fn build(inputs: Inputs) -> State {
        let big = Prepared::new(inputs.big.clone());
        let lower = Prepared::new(inputs.tri.lower_unit());
        let expr = Prepared::new(inputs.tri.clone());
        let sssp = Prepared::new(inputs.sssp.clone());
        let expected = Expected::new(&big.graph, &lower.graph, &big.graph, &expr.graph);
        let bfs_digests = inputs
            .big_sources
            .iter()
            .map(|&s| {
                let levels: Vec<Option<f64>> = reference::bfs_levels(&big.graph, s)
                    .into_iter()
                    .map(|l| l.map(|l| l as f64))
                    .collect();
                Digest::of_sparse(&levels)
            })
            .collect();
        let sssp_digests = inputs
            .sssp_sources
            .iter()
            .map(|&s| Digest::of_sparse(&reference::sssp(&sssp.graph, s)))
            .collect();
        let live = big.dsl.clone();
        State {
            inputs,
            big,
            lower,
            expr,
            sssp,
            expected,
            bfs_digests,
            sssp_digests,
            live,
            update_steps: 0,
        }
    }

    fn prepared(&self, algo: Algo) -> &Prepared {
        match algo {
            Algo::Bfs | Algo::PageRank | Algo::Cc => &self.big,
            Algo::Sssp => &self.sssp,
            Algo::Tricount => &self.lower,
        }
    }

    fn source(&self, algo: Algo, k: usize) -> usize {
        match algo {
            Algo::Sssp => self.inputs.sssp_sources[k % SOURCES],
            _ => self.inputs.big_sources[k % SOURCES],
        }
    }

    fn want_digest(&self, op: Op, k: usize) -> Digest {
        match op {
            Op::Algo(Algo::Bfs) => self.bfs_digests[k % SOURCES],
            Op::Algo(Algo::Sssp) => self.sssp_digests[k % SOURCES],
            Op::Algo(Algo::PageRank) => Digest::of_sparse(&self.expected.pagerank),
            Op::Algo(Algo::Tricount) => Digest::of_sparse(&[Some(self.expected.triangles)]),
            Op::Algo(Algo::Cc) => Digest::of_sparse(&self.expected.cc_labels),
            Op::Expr => Digest::of_sparse(&self.expected.expr),
            Op::Load | Op::Update => unreachable!("checked by nvals"),
        }
    }

    /// Run each op kind once per variant and compare every entry with
    /// the reference. Also what fills the kernel cache before timing.
    /// Returns `(checked, wrong)` and prints what went wrong.
    pub fn warm_and_verify(&mut self) -> (u64, u64) {
        let (mut checked, mut wrong) = (0, 0);
        let mut note = |what: String, res: Result<(), String>| {
            checked += 1;
            if let Err(e) = res {
                wrong += 1;
                eprintln!("WRONG ANSWER {what}: {e}");
            }
        };
        for variant in Variant::ALL {
            for algo in Algo::ALL {
                let (p, source) = (self.prepared(algo), self.source(algo, 0));
                let res = ops::run_algo(algo, variant, p, source).and_then(|(raw, aux)| {
                    ops::check_algo(algo, p, source, &self.expected, &raw, aux)
                });
                note(format!("{} {}", algo.label(), variant.label()), res);
            }
            let res = ops::run_expr(variant, &self.expr).and_then(|(raw, _)| {
                ops::same_sparse(
                    &raw.sparse(self.expr.graph.n),
                    &self.expected.expr,
                    FLOAT_TOL,
                )
            });
            note(format!("expr {}", variant.label()), res);
        }
        let res = ops::run_load(&self.inputs.mm_text).and_then(|m| {
            let mut got: Vec<(usize, usize, f64)> = m
                .extract_triples()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.as_f64()))
                .collect();
            got.sort_by_key(|e| (e.0, e.1));
            if got == self.inputs.big.edges {
                Ok(())
            } else {
                Err("loaded matrix differs from the generated triples".into())
            }
        });
        note("load".into(), res);
        // Two steps of the update stream: add batch 0, then delete the
        // (absent) last batch — checked against the op log.
        for _ in 0..2 {
            let res = self.update_once().map(|_| ());
            note("update".into(), res);
        }
        (checked, wrong)
    }

    /// Apply the next step of the update stream to the live matrix and
    /// check `nvals` against the op log.
    fn update_once(&mut self) -> Result<f64, String> {
        let batches = &self.inputs.batches;
        let step = update_step(self.update_steps, batches.len());
        let batch: Vec<EdgeUpdate> = match step {
            UpdateStep::Add(b) => batches[b]
                .iter()
                .map(|&(i, j, w)| EdgeUpdate::add(i, j, w))
                .collect(),
            UpdateStep::Del(b) => batches[b]
                .iter()
                .map(|&(i, j, _)| EdgeUpdate::del(i, j))
                .collect(),
        };
        let t = Instant::now();
        let nvals = ops::run_update(&mut self.live, &batch)?;
        let ms = ms_since(t);
        self.update_steps += 1;
        let live = live_after(self.update_steps, batches.len()).len();
        let want = self.inputs.big.edges.len() + UPDATE_BATCH * live;
        if nvals == want {
            Ok(ms)
        } else {
            Err(format!(
                "nvals {nvals} after step {}, want {want}",
                self.update_steps
            ))
        }
    }

    /// Run `op` once in `variant` (iteration `k` picks the source),
    /// returning its wall time in ms; the result is digest-checked
    /// outside the timed region.
    pub fn run_once(&mut self, op: Op, variant: Variant, k: usize) -> Result<f64, String> {
        match op {
            Op::Algo(algo) => {
                let (p, source) = (self.prepared(algo), self.source(algo, k));
                let t = Instant::now();
                let out = ops::run_algo(algo, variant, p, source);
                let ms = ms_since(t);
                let (raw, _) = out?;
                self.check_digest(op, k, &raw).map(|()| ms)
            }
            Op::Expr => {
                let t = Instant::now();
                let out = ops::run_expr(variant, &self.expr);
                let ms = ms_since(t);
                let (raw, _) = out?;
                self.check_digest(op, k, &raw).map(|()| ms)
            }
            Op::Load => {
                let t = Instant::now();
                let out = ops::run_load(&self.inputs.mm_text);
                let ms = ms_since(t);
                let m = out?;
                if m.nvals() == self.inputs.big.edges.len() {
                    Ok(ms)
                } else {
                    Err(format!("loaded {} entries", m.nvals()))
                }
            }
            Op::Update => self.update_once(),
        }
    }

    fn check_digest(&self, op: Op, k: usize, raw: &Raw) -> Result<(), String> {
        let (got, want) = (Digest::of_raw(raw), self.want_digest(op, k));
        if got.matches(&want) {
            Ok(())
        } else {
            Err(format!("digest {got:?}, reference {want:?}"))
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One `(op, variant)` series of the mix.
pub struct Cell {
    pub op: Op,
    pub variant: Variant,
    /// Back-to-back executions per sample, sized so a sample lasts
    /// ≥ 1 ms; the sample is their mean.
    pub batch: usize,
    /// How often the cell runs per round.
    pub per_round: usize,
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    next: usize,
}

impl Cell {
    pub fn name(&self) -> String {
        format!("{}/{}", self.op.label(), self.variant.label())
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples_ms)
    }
}

/// Which cells a [`Mix`] holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// All op kinds: the `analytics_*` workloads.
    Everything,
    /// The five algorithms only: what `dsl_over_native` needs, for the
    /// short in-process phase of the `serve_*` workloads.
    Algorithms,
}

/// The round-robin schedule and its samples.
pub struct Mix {
    pub cells: Vec<Cell>,
}

const MIN_SAMPLE_MS: f64 = 1.0;

impl Mix {
    /// All cells, batch sizes calibrated on the (already warm) state.
    /// `pygb-loops` is the canonical DSL number and runs twice per
    /// round; load and update only exist as DSL calls. The traced pass
    /// adds the whole-algorithm (`pygb-fused`) kernels.
    pub fn calibrated(state: &mut State, scope: Scope, with_fused: bool) -> Mix {
        let mut cells = Vec::new();
        let mut push = |op, variant, per_round| {
            cells.push(Cell {
                op,
                variant,
                batch: 1,
                per_round,
                samples_ms: Vec::new(),
                attempted: 0,
                failed: 0,
                next: 0,
            })
        };
        for algo in Algo::ALL {
            push(Op::Algo(algo), Variant::Loops, 2);
            push(Op::Algo(algo), Variant::Nonblocking, 1);
            push(Op::Algo(algo), Variant::Native, 1);
            if with_fused {
                push(Op::Algo(algo), Variant::Fused, 1);
            }
        }
        if scope == Scope::Everything {
            for variant in Variant::ALL {
                push(Op::Expr, variant, 1);
            }
            push(Op::Load, Variant::Loops, 1);
            push(Op::Update, Variant::Loops, 4);
        }
        for cell in &mut cells {
            // One probe settles it for an op that already lasts long
            // enough; a short one gets two more for a steadier size.
            let mut probe = Vec::new();
            for k in 0..3 {
                probe.extend(state.run_once(cell.op, cell.variant, k).ok());
                if probe.last().is_some_and(|&ms| ms >= MIN_SAMPLE_MS) {
                    break;
                }
            }
            let one = stats::median(&probe).max(1e-4);
            cell.batch = (MIN_SAMPLE_MS / one).ceil().clamp(1.0, 4096.0) as usize;
            // Whole add/delete pairs, and every BFS source equally often,
            // so a sample always averages the same work.
            let whole = match cell.op {
                Op::Update => 2,
                Op::Algo(Algo::Bfs) => SOURCES,
                _ => 1,
            };
            cell.batch = cell.batch.div_ceil(whole) * whole;
        }
        Mix { cells }
    }

    /// Take one sample of cell `c`, inside a span when tracing.
    fn sample(&mut self, c: usize, state: &mut State, tracer: &mut Tracer, op_id: u64) {
        let cell = &mut self.cells[c];
        let (op, variant, batch) = (cell.op, cell.variant, cell.batch);
        let first = cell.next;
        cell.next += batch;
        let outcome = tracer.span(op.layer(), &cell.name(), op_id, |_| {
            let mut total = 0.0;
            for k in first..first + batch {
                total += state.run_once(op, variant, k)?;
            }
            Ok::<f64, String>(total / batch as f64)
        });
        cell.attempted += batch as u64;
        match outcome {
            Ok(ms) => cell.samples_ms.push(ms),
            Err(e) => {
                cell.failed += batch as u64;
                eprintln!("FAILED {}: {e}", cell.name());
            }
        }
    }

    /// Whole rounds until `budget` is spent, at least one. Returns the
    /// wall seconds taken.
    pub fn run_for(&mut self, state: &mut State, tracer: &mut Tracer, budget: Duration) -> f64 {
        let start = Instant::now();
        let mut op_id = 0;
        loop {
            self.round(state, tracer, &mut op_id);
            if start.elapsed() >= budget {
                return start.elapsed().as_secs_f64();
            }
        }
    }

    /// One round: every cell `per_round` times, interleaved.
    pub fn round(&mut self, state: &mut State, tracer: &mut Tracer, op_id: &mut u64) {
        let most = self.cells.iter().map(|c| c.per_round).max().unwrap_or(0);
        for pass in 0..most {
            for c in 0..self.cells.len() {
                if pass < self.cells[c].per_round {
                    *op_id += 1;
                    self.sample(c, state, tracer, *op_id);
                }
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }

    pub fn p50(&self, op: Op, variant: Variant) -> f64 {
        self.cells
            .iter()
            .find(|c| c.op == op && c.variant == variant)
            .map_or(0.0, |c| c.summary().median)
    }

    /// Geometric mean over the five algorithms of `variant` p50 over
    /// native p50 — the paper's Fig 10 penalty.
    pub fn over_native(&self, variant: Variant) -> f64 {
        let ratios: Vec<f64> = Algo::ALL
            .iter()
            .map(|&a| self.p50(Op::Algo(a), variant) / self.p50(Op::Algo(a), Variant::Native))
            .collect();
        stats::geomean(&ratios)
    }

    /// Every `pygb-loops` sample of the mix: what `req_p95_ms` is taken
    /// over on the `analytics_*` workloads.
    pub fn dsl_samples(&self) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| c.variant == Variant::Loops)
            .flat_map(|c| c.samples_ms.iter().copied())
            .collect()
    }

    /// Per-cell medians with quartiles, counts and per-algorithm ratios.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            let s = c.summary();
            (
                c.name(),
                Json::obj([
                    ("p50_ms", Json::Num(s.median)),
                    ("q1_ms", Json::Num(s.q1)),
                    ("q3_ms", Json::Num(s.q3)),
                    ("samples", Json::Num(s.n as f64)),
                    ("batch", Json::Num(c.batch as f64)),
                    ("attempted", Json::Num(c.attempted as f64)),
                    ("failed", Json::Num(c.failed as f64)),
                ]),
            )
        });
        let ratios: BTreeMap<String, Json> = Algo::ALL
            .iter()
            .flat_map(|&a| {
                let native = self.p50(Op::Algo(a), Variant::Native);
                [Variant::Loops, Variant::Nonblocking].map(|v| {
                    (
                        format!("{}/{}_over_native", a.label(), v.label()),
                        Json::Num(self.p50(Op::Algo(a), v) / native),
                    )
                })
            })
            .collect();
        Json::obj([("cells", Json::obj(cells)), ("ratios", Json::obj(ratios))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_stream_keeps_at_most_two_batches_live() {
        assert_eq!(update_step(0, 4), UpdateStep::Add(0));
        assert_eq!(update_step(1, 4), UpdateStep::Del(3));
        assert_eq!(update_step(2, 4), UpdateStep::Add(1));
        assert_eq!(update_step(3, 4), UpdateStep::Del(0));
        // The closed form agrees with replaying the stream.
        let mut replay = [false; 4];
        for steps in 0..40 {
            let want: Vec<usize> = (0..4).filter(|&b| replay[b]).collect();
            assert_eq!(live_after(steps, 4), want, "after {steps} steps");
            match update_step(steps, 4) {
                UpdateStep::Add(b) => replay[b] = true,
                UpdateStep::Del(b) => replay[b] = false,
            }
        }
        assert_eq!(live_after(3, 4), vec![0, 1]);
        assert_eq!(live_after(4, 4), vec![1]);
    }

    #[test]
    fn batches_avoid_the_base_graph_and_each_other() {
        let inputs = Inputs::generate(ANALYTICS_SMALL, 3);
        let base: HashSet<(usize, usize)> =
            inputs.big.edges.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut seen = HashSet::new();
        for b in &inputs.batches {
            assert_eq!(b.len(), UPDATE_BATCH);
            for &(i, j, _) in b {
                assert!(!base.contains(&(i, j)) && seen.insert((i, j)));
            }
        }
    }

    /// The whole small mix end to end: set-up verifies, a round
    /// samples every cell, digests hold, ratios are finite.
    #[test]
    fn small_mix_runs_and_verifies() {
        let inputs = Inputs::generate(ANALYTICS_SMALL, 1);
        assert_eq!(
            Inputs::generate(ANALYTICS_SMALL, 1).big.hash(),
            inputs.big.hash(),
            "the seed fixes the inputs"
        );
        let mut state = State::build(inputs);
        let (checked, wrong) = state.warm_and_verify();
        assert_eq!((checked, wrong), (21, 0));
        let mut mix = Mix::calibrated(&mut state, Scope::Everything, false);
        let mut tracer = Tracer::new(true, Instant::now());
        let mut op_id = 0;
        mix.round(&mut state, &mut tracer, &mut op_id);
        assert_eq!(mix.failed(), 0);
        assert!(mix.cells.iter().all(|c| c.samples_ms.len() == c.per_round));
        assert_eq!(tracer.spans().len() as u64, op_id);
        assert!(mix.over_native(Variant::Loops).is_finite());
        assert!(mix.over_native(Variant::Nonblocking) > 0.0);
    }

    #[test]
    fn digest_catches_a_wrong_answer() {
        let want = Digest::of_sparse(&[Some(1.0), None, Some(2.0)]);
        assert!(Digest::of_sparse(&[Some(1.0), None, Some(2.0)]).matches(&want));
        assert!(!Digest::of_sparse(&[Some(1.0), Some(2.0), Some(2.0)]).matches(&want));
        assert!(!Digest::of_sparse(&[Some(1.0), None, Some(3.0)]).matches(&want));
    }
}
