//! The DAG half of `pygb-analyze`: aliasing / fusion-legality checks
//! consulted by every rule in the fusion pass, and the [`plan`] /
//! explain API that dumps the analyzed DAG without executing it.
//!
//! ## What fusion must prove
//!
//! A fusion rewrite absorbs a producer node `P` into a consumer `C`:
//! `P`'s expression operands are carried into `C`'s new composite
//! expression, while `P`'s *merge base* (`P.target`, the prior value of
//! the container `P` wrote) is discarded — legal only because `P` is
//! plain (full overwrite). Every store in this runtime is an immutable
//! `Arc` snapshot and the dispatch layer's `take_store` clones any
//! shared buffer before a kernel may mutate it, so an alias between the
//! consumer's output (its merge base `C.target`) and a *carried*
//! producer operand is provably safe: the fused descriptor itself holds
//! the second reference that forces the copy.
//!
//! The alias the analysis cannot discharge is `C.target` against the
//! input the rewrite *discards* — the producer's own merge base
//! `P.target`. After the rewrite no reference to that store survives in
//! the fused node, so the pointer analysis can no longer relate the
//! consumer's merge-read to the producer's overwritten container. That
//! situation arises only when two container handles share one store (a
//! `clone`d vector written through both names). Fusion is refused, the
//! `refused_fusions` statistics counter bumps, the reason is logged
//! (see [`last_refusals`]), and both nodes execute unfused — slower,
//! provably correct.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use pygb::dispatch::Op;
use pygb::expr::VectorExprKind;
use pygb::nb::{MatRhs, VecOpDesc, VecRhs};
use pygb::store::VectorStore;

use crate::dag::{self, node_inputs, vptr, Dag, Node};

// ---------------------------------------------------------------------
// Node identity.
// ---------------------------------------------------------------------

/// Stable identity of a deferred DAG node, assigned at enqueue and kept
/// through fusion rewrites. Rendered as `n<N>` everywhere a node is
/// named — [`plan`], [`trace_report`], and refusal diagnostics all
/// refer to the same node by the same token, so a plan printed before a
/// flush can be lined up against the trace report printed after it.
/// Numbering restarts at `n0` once a DAG fully drains, matching the
/// per-scope numbering a fresh plan shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

fn fmt_ids(ids: &[NodeId]) -> String {
    let parts: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

// ---------------------------------------------------------------------
// Refusal log.
// ---------------------------------------------------------------------

/// Most refusal reasons retained per thread. The log is cleared at the
/// start of every pipeline run, but a single degenerate flush (or a
/// long-lived serve worker that never reads the log) must not grow an
/// unbounded diagnostic buffer — beyond the cap the oldest entries are
/// dropped and counted.
const REFUSAL_CAP: usize = 64;

struct RefusalLog {
    ring: std::collections::VecDeque<String>,
    dropped: u64,
}

thread_local! {
    static REFUSALS: RefCell<RefusalLog> = const {
        RefCell::new(RefusalLog {
            ring: std::collections::VecDeque::new(),
            dropped: 0,
        })
    };
}

/// Clear the refusal log (start of an optimize pipeline).
pub(crate) fn clear_refusals() {
    REFUSALS.with(|r| {
        let mut log = r.borrow_mut();
        log.ring.clear();
        log.dropped = 0;
    });
}

pub(crate) fn record_refusal(reason: String) {
    pygb::runtime().cache().stats().record_refused(1);
    REFUSALS.with(|r| {
        let mut log = r.borrow_mut();
        if log.ring.len() == REFUSAL_CAP {
            log.ring.pop_front();
            log.dropped += 1;
        }
        log.ring.push_back(reason);
    });
}

/// The reasons the aliasing analysis refused fusions during the most
/// recent fusion pass on this thread (empty when everything that
/// matched a rule also proved legal). At most `REFUSAL_CAP` (64)
/// entries are retained; when older ones were dropped, a final
/// synthetic entry reports how many.
pub fn last_refusals() -> Vec<String> {
    REFUSALS.with(|r| {
        let log = r.borrow();
        let mut out: Vec<String> = log.ring.iter().cloned().collect();
        if log.dropped > 0 {
            out.push(format!("({} earlier refusal(s) dropped)", log.dropped));
        }
        out
    })
}

// ---------------------------------------------------------------------
// Producer legality: the check every fusion rule consults.
// ---------------------------------------------------------------------

/// Outcome of analyzing one candidate producer for one consumer.
pub(crate) enum FuseCheck {
    /// Rule may fire; the producer is at this node index.
    Fusible(usize),
    /// The producer matched the rule but the aliasing analysis could
    /// not prove the rewrite safe.
    Refused(usize, String),
    /// No pending plain producer of the wanted shape (not an error —
    /// the consumer simply dispatches unfused).
    No,
}

/// Analyze the pending producer of placeholder `out` as a fusion
/// candidate for consumer `c`. The producer must be a plain vector node
/// (no mask, accumulator, or region) whose expression satisfies `want`,
/// observed only by its own descriptor plus `consumer_refs` slots of
/// the consumer — and the rewrite must pass the aliasing check (see
/// the module docs).
///
/// Observation is established from the frozen external counts (`ext`)
/// plus fresh structural scans, never from `Arc::strong_count` (which
/// is skewed while a plan simulation's clone is alive): the producer's
/// placeholder must have zero external handles, exactly one DAG
/// reference (the producer's own `out` — alias-set entries count and
/// block), and exactly `consumer_refs` references from the consumer's
/// descriptor. `skip` names the consumer's still-attached slot when
/// the caller could not detach it (the read-only plan assessment); the
/// fusion pass detaches consumers, so its slot is already empty.
pub(crate) fn check_producer(
    dag: &Dag,
    ext: &crate::dataflow::ExtRefs,
    c: &VecOpDesc,
    out: &Arc<VectorStore>,
    consumer_refs: usize,
    skip: Option<usize>,
    want: &dyn Fn(&VectorExprKind) -> bool,
) -> FuseCheck {
    let p = vptr(out);
    let Some(&idx) = dag.pending.get(&p) else {
        return FuseCheck::No;
    };
    let Some(Node::Vec(d)) = &dag.nodes[idx] else {
        return FuseCheck::No;
    };
    let plain = d.mask.is_none()
        && d.accum.is_none()
        && d.region.is_none()
        && matches!(&d.rhs, VecRhs::Expr(e) if want(&e.kind));
    if !plain
        || ext.get(p) != 0
        || crate::dataflow::dag_ref_count(dag, p, skip) != 1
        || crate::dataflow::vec_desc_ref_count(c, p) != consumer_refs
    {
        return FuseCheck::No;
    }
    match alias_hazard(c, d) {
        Some(reason) => FuseCheck::Refused(idx, reason),
        None => FuseCheck::Fusible(idx),
    }
}

/// The aliasing rule: the consumer's output (its merge base) must not
/// alias the producer input that fusion discards — the producer's own
/// merge base. Aliases against carried expression operands are proven
/// safe by the copy-on-write argument in the module docs and do not
/// refuse.
fn alias_hazard(c: &VecOpDesc, p: &VecOpDesc) -> Option<String> {
    if vptr(&c.target) == vptr(&p.target) {
        return Some(format!(
            "consumer output [{} {}] aliases the producer's merge base \
             (two container handles share one store); the rewrite discards \
             that input, so copy-on-write protection cannot be proven",
            c.target.size(),
            c.target.dtype(),
        ));
    }
    None
}

/// The kernel function a deferred node will dispatch as — the dispatch
/// layer's own decision ([`pygb::dispatch::kernel`]).
pub(crate) fn node_kernel(n: &Node) -> &'static str {
    let op = match n {
        Node::Vec(d) => Op::Vector {
            rhs: &d.rhs,
            region: d.region.is_some(),
        },
        Node::Mat(d) => Op::Matrix {
            rhs: &d.rhs,
            region: d.region.is_some(),
        },
    };
    pygb::dispatch::kernel(op).name()
}

// ---------------------------------------------------------------------
// plan() / explain.
// ---------------------------------------------------------------------

/// One analyzed node of the pending DAG.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Stable node identity (enqueue order; also what `deps` refers
    /// to, and the token [`trace_report`] uses for the same node).
    pub id: NodeId,
    /// The operation, rendered with every operand's shape and dtype.
    pub op: String,
    /// The inferred output, as `[shape dtype]`.
    pub output: String,
    /// The kernel family the dispatch layer will select.
    pub kernel: String,
    /// The node's inferred sparsity/structure fact (see
    /// `pygb::facts`): nnz interval, density bound, structure flags,
    /// and any statically decided kernel hint.
    pub facts: Option<String>,
    /// Whether a mask governs the write.
    pub masked: bool,
    /// Whether the mask is complemented.
    pub complemented: bool,
    /// Whether an accumulator merges into the prior value.
    pub accum: bool,
    /// GraphBLAS replace flag.
    pub replace: bool,
    /// Ids of pending nodes this node reads.
    pub deps: Vec<NodeId>,
    /// Fusion assessment: which producer this node would absorb at
    /// flush, or why the aliasing analysis refuses; `None` when no
    /// fusion rule matches.
    pub fusion: Option<String>,
}

/// The analyzed pending DAG — what a flush would execute right now,
/// in both its raw (as-enqueued) and optimized (post-pipeline) forms.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Analyzed nodes in enqueue order, exactly as enqueued.
    pub nodes: Vec<PlanNode>,
    /// The nodes that would survive the optimization pipeline (the
    /// enabled passes plus fusion), computed by simulating the
    /// pipeline on a copy of the DAG. Node ids match `nodes`.
    pub optimized: Vec<PlanNode>,
    /// The passes the simulation ran, in order (`PYGB_PASSES` or the
    /// per-thread override).
    pub passes: Vec<String>,
    /// Per-node rewrite attribution for every node of `nodes` missing
    /// from `optimized`: which pass removed it and why (e.g. `elided
    /// by cse, dup of n3`), sorted by node id.
    pub provenance: Vec<(NodeId, String)>,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            return writeln!(f, "nonblocking plan: empty (nothing deferred)");
        }
        writeln!(f, "nonblocking plan: {} pending node(s)", self.nodes.len())?;
        for n in &self.nodes {
            write_plan_node(f, "  ", n)?;
        }
        writeln!(
            f,
            "optimized (passes: {}): {} node(s)",
            if self.passes.is_empty() {
                "none".to_string()
            } else {
                self.passes.join(",")
            },
            self.optimized.len()
        )?;
        for n in &self.optimized {
            write_plan_node(f, "  ", n)?;
        }
        for (id, note) in &self.provenance {
            writeln!(f, "  {id}: {note}")?;
        }
        Ok(())
    }
}

fn write_plan_node(f: &mut fmt::Formatter<'_>, indent: &str, n: &PlanNode) -> fmt::Result {
    write!(
        f,
        "{indent}{} {} -> {}  kernel={}",
        n.id, n.op, n.output, n.kernel
    )?;
    if let Some(fa) = &n.facts {
        write!(f, "  facts[{fa}]")?;
    }
    if n.masked {
        write!(f, "  mask{}", if n.complemented { "=~m" } else { "=m" })?;
    }
    if n.accum {
        write!(f, "  accum")?;
    }
    if n.replace {
        write!(f, "  replace")?;
    }
    if !n.deps.is_empty() {
        write!(f, "  deps={}", fmt_ids(&n.deps))?;
    }
    if let Some(fu) = &n.fusion {
        write!(f, "  {fu}")?;
    }
    writeln!(f)
}

/// Analyze the calling thread's pending DAG without executing or
/// rewriting it: per-node inferred shapes and dtypes, the kernel each
/// node would dispatch, dependency edges, and — for every node a fusion
/// rule matches — whether the flush would fuse it or why the aliasing
/// analysis refuses. Also simulates the optimization pipeline on a
/// copy of the DAG, reporting the optimized node set and per-node
/// rewrite provenance. Read-only: statistics counters do not move and
/// the DAG is left exactly as found.
pub fn plan() -> Plan {
    dag::with_dag(|dag| {
        // Freeze external-reference counts before the simulation clone
        // exists: with one descriptor copy alive, multiplicity is 1.
        let ext = crate::dataflow::ExtRefs::freeze(dag, 1);
        // Abstractly interpret the raw DAG (no lints: plan() is a
        // read-only assessment, the real flush reports them) so every
        // node renders its inferred fact next to its kernel verdict.
        let raw_facts = crate::sparsity::analyze(dag, false);
        let nodes = (0..dag.nodes.len())
            .filter_map(|i| {
                dag.nodes[i]
                    .as_ref()
                    .map(|n| plan_node(dag, Some(&ext), i, n, raw_facts.facts.get(&i)))
            })
            .collect();
        // Simulate the pipeline on a clone. The clone doubles every
        // descriptor-held reference, hence multiplicity 2; the real DAG,
        // counters, spans, and refusal log are untouched.
        let mut sim = dag.clone();
        let summary = crate::passes::run_pipeline(&mut sim, 2, true);
        let sim_facts = crate::sparsity::analyze(&sim, false);
        let optimized = (0..sim.nodes.len())
            .filter_map(|i| {
                sim.nodes[i]
                    .as_ref()
                    .map(|n| plan_node(&sim, None, i, n, sim_facts.facts.get(&i)))
            })
            .collect();
        let mut provenance = summary.provenance;
        provenance.sort_by_key(|(id, _)| *id);
        let passes = crate::passes::enabled_passes()
            .iter()
            .map(|p| p.label().to_string())
            .collect();
        Plan {
            nodes,
            optimized,
            passes,
            provenance,
        }
    })
}

/// Shared rendering of a node's operation and kernel family — the
/// `plan` and `trace_report` views describe the same node with the
/// same strings.
pub(crate) fn node_summary(n: &Node) -> (String, String) {
    let op = match n {
        Node::Vec(d) => match &d.rhs {
            VecRhs::Expr(e) => pygb::analyze::describe_vector_expr(e),
            VecRhs::Scalar(v) => format!("assign scalar {}", v.dtype()),
        },
        Node::Mat(d) => match &d.rhs {
            MatRhs::Expr(e) => pygb::analyze::describe_matrix_expr(e),
            MatRhs::Scalar(v) => format!("assign scalar {}", v.dtype()),
        },
    };
    (op, node_kernel(n).to_string())
}

/// Ids of the pending nodes that `n` (at slot `index`) reads.
pub(crate) fn node_dep_ids(dag: &Dag, index: usize, n: &Node) -> Vec<NodeId> {
    let mut deps: Vec<usize> = node_inputs(n)
        .iter()
        .filter_map(|p| dag.pending.get(p).copied())
        .filter(|&i| i != index)
        .collect();
    deps.sort_unstable();
    deps.dedup();
    deps.into_iter().map(|i| dag.ids[i]).collect()
}

/// Render one DAG slot as a [`PlanNode`]. `ext` enables the fusion
/// assessment (raw view); the optimized view passes `None` — its
/// fusion rewrites already happened in the simulation.
fn plan_node(
    dag: &Dag,
    ext: Option<&crate::dataflow::ExtRefs>,
    index: usize,
    n: &Node,
    nf: Option<&crate::sparsity::NodeFacts>,
) -> PlanNode {
    let deps = node_dep_ids(dag, index, n);
    let (op, kernel) = node_summary(n);
    let facts = nf.map(crate::sparsity::render_facts);
    match n {
        Node::Vec(d) => PlanNode {
            id: dag.ids[index],
            op,
            output: format!("[{} {}]", d.out.size(), d.out.dtype()),
            kernel,
            facts: facts.clone(),
            masked: d.mask.is_some(),
            complemented: d.mask.as_ref().is_some_and(|(_, c)| *c),
            accum: d.accum.is_some(),
            replace: d.replace,
            deps,
            fusion: ext.and_then(|e| assess_fusion(dag, e, index, d)),
        },
        Node::Mat(d) => PlanNode {
            id: dag.ids[index],
            op,
            output: format!("[{}x{} {}]", d.out.nrows(), d.out.ncols(), d.out.dtype()),
            kernel,
            facts,
            masked: d.mask.is_some(),
            complemented: d.mask.as_ref().is_some_and(|(_, c)| *c),
            accum: d.accum.is_some(),
            replace: d.replace,
            deps,
            // No matrix fusion rules exist yet; nothing to assess.
            fusion: None,
        },
    }
}

/// Read-only mirror of the fusion pass's candidate matching: report
/// what the optimizer would decide for this consumer without detaching
/// anything or moving counters. The reference reasoning is identical
/// because the structural scan skips the consumer's own slot (`index`)
/// — exactly what detaching it would remove — and counts the
/// consumer's references directly from its descriptor.
fn assess_fusion(
    dag: &Dag,
    ext: &crate::dataflow::ExtRefs,
    index: usize,
    c: &VecOpDesc,
) -> Option<String> {
    if c.region.is_some() {
        return None;
    }
    let VecRhs::Expr(ce) = &c.rhs else {
        return None;
    };
    let is_ewise = |k: &VectorExprKind| {
        matches!(
            k,
            VectorExprKind::EWiseAdd { op: Some(_), .. }
                | VectorExprKind::EWiseMult { op: Some(_), .. }
        )
    };
    let is_spmv =
        |k: &VectorExprKind| matches!(k, VectorExprKind::MxV { .. } | VectorExprKind::VxM { .. });
    let verdict = |check: FuseCheck, rule: &str| match check {
        FuseCheck::Fusible(i) => Some(format!("fuses node {} ({rule})", dag.ids[i])),
        FuseCheck::Refused(i, why) => {
            Some(format!("fusion with node {} refused: {why}", dag.ids[i]))
        }
        FuseCheck::No => None,
    };
    match &ce.kind {
        VectorExprKind::EWiseAdd { u, v, op: Some(_) }
        | VectorExprKind::EWiseMult { u, v, op: Some(_) } => {
            for cand in [u, v] {
                let refs = (vptr(u) == vptr(cand)) as usize + (vptr(v) == vptr(cand)) as usize;
                let res = verdict(
                    check_producer(dag, ext, c, cand, refs, Some(index), &is_ewise),
                    "rule 1: eWise chain",
                );
                if res.is_some() {
                    return res;
                }
            }
            None
        }
        VectorExprKind::Apply { u, op: Some(_) } => verdict(
            check_producer(dag, ext, c, u, 1, Some(index), &is_spmv),
            "rule 2: mxv/vxm + apply",
        ),
        VectorExprKind::Ref { u } => verdict(
            check_producer(dag, ext, c, u, 1, Some(index), &is_spmv),
            "rule 3: ref collapse",
        ),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// trace_report(): the executed DAG, annotated with measured timings.
// ---------------------------------------------------------------------

/// One node the most recent flush executed, with its measured wall
/// time. Node identity ([`NodeId`]) and the `op`/`kernel` strings are
/// shared with [`PlanNode`], so a plan printed before the flush lines
/// up against this report line by line.
#[derive(Debug, Clone)]
pub struct ExecutedNode {
    /// Stable node identity (same token [`plan`] showed for this node).
    pub id: NodeId,
    /// The operation, rendered with every operand's shape and dtype.
    pub op: String,
    /// The kernel family the node dispatched as — after fusion, so a
    /// consumer that absorbed its producer reports the composite
    /// kernel.
    pub kernel: String,
    /// The scheduling wave (0-based) the node executed in.
    pub wave: usize,
    /// Measured wall-clock execution time, nanoseconds.
    pub ns: u64,
    /// Ids of pending nodes this node read (post-fusion edges).
    pub deps: Vec<NodeId>,
}

/// The most recent flush on this thread, annotated with measured
/// per-node timings. Empty unless tracing was enabled
/// ([`pygb_obs::enable`] or `PYGB_TRACE`) when the flush ran.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// The serve request ID this flush executed under, when the worker
    /// tagged it via [`set_request_tag`] — makes the report addressable
    /// through [`trace_report_for`].
    pub request: Option<u64>,
    /// Executed nodes, ordered by wave then id.
    pub nodes: Vec<ExecutedNode>,
    /// Number of scheduling waves the flush took.
    pub waves: usize,
    /// Producer nodes absorbed by the fusion pass.
    pub fused: usize,
    /// Dead nodes removed without executing.
    pub elided: usize,
    /// Duplicate nodes merged by the CSE pass.
    pub cse: usize,
    /// Provably-empty nodes folded by the sparsity pass.
    pub sparsity: usize,
    /// Nodes folded away by the no-op pass.
    pub noop: usize,
    /// Per-node rewrite attribution from the optimization pipeline,
    /// sorted by node id.
    pub rewrites: Vec<(NodeId, String)>,
    /// Why the aliasing analysis refused fusions, if it did.
    pub refusals: Vec<String>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            return writeln!(
                f,
                "trace report: empty (tracing disabled, or nothing flushed)"
            );
        }
        if let Some(id) = self.request {
            write!(f, "trace report [r{id}]")?;
        } else {
            write!(f, "trace report")?;
        }
        writeln!(
            f,
            ": {} node(s) executed in {} wave(s); {} fused, {} elided, \
             {} cse-deduped, {} sparsity-folded, {} noop-folded",
            self.nodes.len(),
            self.waves,
            self.fused,
            self.elided,
            self.cse,
            self.sparsity,
            self.noop
        )?;
        for n in &self.nodes {
            write!(
                f,
                "  {} {}  kernel={}  wave={}  t={}",
                n.id,
                n.op,
                n.kernel,
                n.wave,
                fmt_ns(n.ns)
            )?;
            if !n.deps.is_empty() {
                write!(f, "  deps={}", fmt_ids(&n.deps))?;
            }
            writeln!(f)?;
        }
        for (id, note) in &self.rewrites {
            writeln!(f, "  rewrite: {id} {note}")?;
        }
        for r in &self.refusals {
            writeln!(f, "  refused: {r}")?;
        }
        Ok(())
    }
}

struct ReportEntry {
    node: ExecutedNode,
    executed: bool,
}

struct ReportState {
    /// DAG slot index → report entry, for every node alive after the
    /// fusion pass.
    entries: Vec<(usize, ReportEntry)>,
    /// The request tag in effect when the flush began, if any.
    request: Option<u64>,
    waves: usize,
    fused: usize,
    elided: usize,
    cse: usize,
    sparsity: usize,
    noop: usize,
    rewrites: Vec<(NodeId, String)>,
    refusals: Vec<String>,
}

thread_local! {
    static REPORT: RefCell<Option<ReportState>> = const { RefCell::new(None) };
    /// Per-thread override that makes flushes collect timed reports
    /// even while global tracing is off — set by serve workers so every
    /// request's per-node timings exist without buffering trace events
    /// process-wide.
    static FORCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The serve request ID the current flush executes on behalf of.
    static REQUEST_TAG: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Most recent tagged reports, retrievable cross-thread by request ID
/// (the `EXPLAIN rN` path). Bounded; oldest evicted. Cold: touched once
/// per *tagged* flush and per lookup, never by untagged flushes.
const TAGGED_REPORT_CAP: usize = 128;
static TAGGED_REPORTS: std::sync::Mutex<std::collections::VecDeque<(u64, TraceReport)>> =
    std::sync::Mutex::new(std::collections::VecDeque::new());

/// Force (or stop forcing) timed execution reports on the calling
/// thread, independent of the global tracing flag. While set, every
/// flush on this thread measures per-node wall time and populates
/// [`trace_report`] exactly as if tracing were enabled — but no trace
/// events are buffered unless tracing really is on. Serve workers keep
/// this set for their whole lifetime.
pub fn set_report_forced(on: bool) {
    FORCED.with(|f| f.set(on));
}

/// Whether the calling thread forces timed reports.
pub(crate) fn report_forced() -> bool {
    FORCED.with(|f| f.get())
}

/// Tag (or untag, with `None`) the calling thread with the serve
/// request ID the next flushes execute on behalf of. Tagged flushes
/// publish their [`TraceReport`] into a bounded cross-thread ring keyed
/// by ID (see [`trace_report_for`]); when one request flushes several
/// times (algorithms iterate), the last flush's report wins.
pub fn set_request_tag(tag: Option<u64>) {
    REQUEST_TAG.with(|t| t.set(tag));
}

/// The calling thread's current request tag.
pub(crate) fn request_tag() -> Option<u64> {
    REQUEST_TAG.with(|t| t.get())
}

/// Publish the calling thread's current report into the tagged ring if
/// the flush that produced it carried a request tag. Called by the
/// flush path after the wave loop; a no-op for untagged flushes.
pub(crate) fn publish_tagged_report() {
    let report = trace_report();
    let Some(id) = report.request else { return };
    if report.nodes.is_empty() {
        // An empty flush (nothing pending) would overwrite the report
        // of the flush that did the request's real work.
        return;
    }
    let mut ring = match TAGGED_REPORTS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    ring.retain(|(k, _)| *k != id);
    if ring.len() >= TAGGED_REPORT_CAP {
        ring.pop_front();
    }
    ring.push_back((id, report));
}

/// The published [`TraceReport`] of the flush that executed request
/// `id`, from any thread — `None` when the request was never tagged,
/// executed nothing, or has been evicted from the bounded ring.
pub fn trace_report_for(id: u64) -> Option<TraceReport> {
    let ring = match TAGGED_REPORTS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    ring.iter()
        .rev()
        .find(|(k, _)| *k == id)
        .map(|(_, r)| r.clone())
}

/// Start a fresh execution report for the flush that just finished its
/// optimization pipeline. Captures each surviving node's identity,
/// summary, and dependency edges before any wave runs (the scheduler
/// removes `pending` entries as nodes resolve). No-op — and wipes any
/// previous report — unless tracing is enabled or the thread forces
/// reports ([`set_report_forced`]).
pub(crate) fn begin_report(dag: &Dag, summary: &crate::passes::PipelineSummary) {
    REPORT.with(|r| {
        let mut slot = r.borrow_mut();
        if !pygb_obs::enabled() && !report_forced() {
            *slot = None;
            return;
        }
        let entries = dag
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
            .map(|(i, n)| {
                let (op, kernel) = node_summary(n);
                (
                    i,
                    ReportEntry {
                        node: ExecutedNode {
                            id: dag.ids[i],
                            op,
                            kernel,
                            wave: 0,
                            ns: 0,
                            deps: node_dep_ids(dag, i, n),
                        },
                        executed: false,
                    },
                )
            })
            .collect();
        let mut rewrites = summary.provenance.clone();
        rewrites.sort_by_key(|(id, _)| *id);
        *slot = Some(ReportState {
            entries,
            request: request_tag(),
            waves: 0,
            fused: summary.fused,
            elided: summary.dce,
            cse: summary.cse,
            sparsity: summary.sparsity,
            noop: summary.noop,
            rewrites,
            refusals: last_refusals(),
        });
    });
}

/// Record that the node at DAG slot `idx` executed in `wave`, taking
/// `ns` nanoseconds. Called by the scheduler's merge loop on the
/// flushing thread.
pub(crate) fn record_exec(idx: usize, wave: usize, ns: u64) {
    REPORT.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(state) = slot.as_mut() else { return };
        state.waves = state.waves.max(wave + 1);
        if let Some((_, e)) = state.entries.iter_mut().find(|(i, _)| *i == idx) {
            e.node.wave = wave;
            e.node.ns = ns;
            e.executed = true;
        }
    });
}

/// The execution report of the most recent flush on the calling
/// thread: every executed node with its stable [`NodeId`] (the same
/// token [`plan`] rendered before the flush), post-fusion kernel,
/// scheduling wave, measured wall time, and dependency edges — plus
/// the flush's fusion/elision counts and refusal log. Returns an empty
/// report when neither tracing nor [`set_report_forced`] was on while
/// the flush ran.
pub fn trace_report() -> TraceReport {
    REPORT.with(|r| {
        let slot = r.borrow();
        let Some(state) = slot.as_ref() else {
            return TraceReport::default();
        };
        let mut nodes: Vec<ExecutedNode> = state
            .entries
            .iter()
            .filter(|(_, e)| e.executed)
            .map(|(_, e)| e.node.clone())
            .collect();
        nodes.sort_by_key(|n| (n.wave, n.id));
        TraceReport {
            request: state.request,
            nodes,
            waves: state.waves,
            fused: state.fused,
            elided: state.elided,
            cse: state.cse,
            sparsity: state.sparsity,
            noop: state.noop,
            rewrites: state.rewrites.clone(),
            refusals: state.refusals.clone(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusal_log_is_a_bounded_ring_that_counts_drops() {
        clear_refusals();
        for i in 0..REFUSAL_CAP + 6 {
            record_refusal(format!("refusal {i}"));
        }
        let out = last_refusals();
        // CAP retained entries plus the synthetic drop summary.
        assert_eq!(out.len(), REFUSAL_CAP + 1);
        // Oldest six were dropped; the ring starts at entry 6.
        assert_eq!(out[0], "refusal 6");
        assert_eq!(out[REFUSAL_CAP - 1], format!("refusal {}", REFUSAL_CAP + 5));
        assert_eq!(out[REFUSAL_CAP], "(6 earlier refusal(s) dropped)");

        // A pipeline reset empties both the ring and the drop counter.
        clear_refusals();
        assert!(last_refusals().is_empty());
        record_refusal("fresh".to_string());
        assert_eq!(last_refusals(), vec!["fresh".to_string()]);
    }
}
