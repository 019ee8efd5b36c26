//! The dataflow optimization pipeline: liveness-based dead-op
//! elimination, common-subexpression elimination by hash-consing,
//! sparsity folding and no-op aliasing — run over the deferred op-DAG
//! between enqueue and wave scheduling, before the fusion pass.
//!
//! Passes are individually toggleable: the `PYGB_PASSES` environment
//! variable selects the pipeline (`dce,cse,sparsity,noop` is the
//! default; empty or `none` disables all four), and [`set_passes`]
//! overrides it per thread for tests and ablation benches. Fusion is
//! not a member of the pipeline — it is the scheduler's
//! kernel-selection step and always runs — but it consumes the same
//! frozen external-reference facts ([`crate::dataflow::ExtRefs`]) the
//! passes do.
//!
//! Every rewrite is recorded as `(node, note)` provenance so `plan()`
//! can show the raw-vs-optimized DAG with per-node attribution, and as
//! `opt/*` counters in the metrics registry so ablation runs can
//! measure launches saved.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use gbtl::ops::kind::{AppliedUnaryKind, UnaryOpKind};
use pygb::expr::{MatrixExprKind, VectorExprKind};
use pygb::nb::{MatOpDesc, MatRhs, VecOpDesc, VecRhs};
use pygb::store::{MatrixStore, VectorStore};

use crate::analyze::NodeId;
use crate::dag::{
    drain_aliases, mptr, subst_mat_desc, subst_vec_desc, vptr, AddrMap, AliasSet, Dag, Node,
};
use crate::dataflow::{
    self, mat_rhs_ops_present, node_cse_eq, node_cse_hash, node_out_ptr, vec_rhs_ops_present,
    ExtRefs,
};
use crate::sparsity::{Analysis, NodeFacts};

// ---------------------------------------------------------------------
// Pass selection.
// ---------------------------------------------------------------------

/// One optimization pass of the pre-scheduling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Liveness analysis + dead-op elimination.
    Dce,
    /// Common-subexpression elimination by structural hash-consing.
    Cse,
    /// Abstract-interpretation sparsity folding: nodes whose write-back
    /// fact is provably empty resolve without dispatching (see
    /// `crate::sparsity`).
    Sparsity,
    /// No-op folding: nodes whose result provably equals another
    /// container's value (identity applies, empty operands of a union,
    /// empty masks without replace) alias it instead of dispatching.
    Noop,
}

impl PassKind {
    pub(crate) fn label(self) -> &'static str {
        match self {
            PassKind::Dce => "dce",
            PassKind::Cse => "cse",
            PassKind::Sparsity => "sparsity",
            PassKind::Noop => "noop",
        }
    }

    fn span_label(self) -> &'static str {
        match self {
            PassKind::Dce => "opt/dce",
            PassKind::Cse => "opt/cse",
            PassKind::Sparsity => "opt/sparsity",
            PassKind::Noop => "opt/noop",
        }
    }
}

fn parse_passes(s: &str) -> Vec<PassKind> {
    let t = s.trim();
    if t.is_empty() || t == "none" {
        return Vec::new();
    }
    t.split(',')
        .filter_map(|tok| match tok.trim() {
            "dce" => Some(PassKind::Dce),
            "cse" => Some(PassKind::Cse),
            "sparsity" => Some(PassKind::Sparsity),
            "noop" => Some(PassKind::Noop),
            _ => None,
        })
        .collect()
}

fn env_passes() -> &'static [PassKind] {
    static ENV: OnceLock<Vec<PassKind>> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("PYGB_PASSES") {
        Ok(s) => parse_passes(&s),
        Err(_) => vec![
            PassKind::Dce,
            PassKind::Cse,
            PassKind::Sparsity,
            PassKind::Noop,
        ],
    })
}

thread_local! {
    static OVERRIDE: RefCell<Option<Vec<PassKind>>> = const { RefCell::new(None) };
}

/// Override the pass pipeline for the calling thread (tests, ablation
/// benches). Replaces whatever `PYGB_PASSES` selected until
/// [`reset_passes`] is called. Passing an empty slice disables every
/// pass (fusion still runs — it is not a pipeline member).
pub fn set_passes(passes: &[PassKind]) {
    OVERRIDE.with(|o| *o.borrow_mut() = Some(passes.to_vec()));
}

/// Drop the calling thread's [`set_passes`] override, reverting to the
/// `PYGB_PASSES` selection.
pub fn reset_passes() {
    OVERRIDE.with(|o| *o.borrow_mut() = None);
}

/// The pipeline currently in effect on this thread, in run order.
pub(crate) fn enabled_passes() -> Vec<PassKind> {
    OVERRIDE
        .with(|o| o.borrow().clone())
        .unwrap_or_else(|| env_passes().to_vec())
}

// ---------------------------------------------------------------------
// Pipeline driver.
// ---------------------------------------------------------------------

/// Shared pass state: frozen external-reference counts, the
/// simulation flag (plan's what-if run must not move counters, spans,
/// or the refusal log), accumulated rewrite provenance, and the
/// sparsity pass's analysis.
pub(crate) struct PassCtx {
    pub(crate) ext: ExtRefs,
    pub(crate) simulate: bool,
    /// Whether anything will read the provenance: a plan simulation, or
    /// a flush whose report is captured. Otherwise notes are not even
    /// formatted.
    notes: bool,
    provenance: Vec<(NodeId, String)>,
    analysis: Option<Analysis>,
}

impl PassCtx {
    /// Record that a pass rewrote node `id`; `note` says how.
    pub(crate) fn note(&mut self, id: NodeId, note: impl FnOnce() -> String) {
        if self.notes {
            self.provenance.push((id, note()));
        }
    }
}

/// What one pipeline run did, for the statistics counters and the
/// plan/trace provenance views.
#[derive(Debug, Default)]
pub(crate) struct PipelineSummary {
    /// Producer nodes absorbed by the fusion pass.
    pub(crate) fused: usize,
    /// Nodes removed by dead-op elimination.
    pub(crate) dce: usize,
    /// Duplicate nodes merged by CSE.
    pub(crate) cse: usize,
    /// Provably-empty nodes folded by the sparsity pass.
    pub(crate) sparsity: usize,
    /// Nodes folded away by the no-op pass.
    pub(crate) noop: usize,
    /// Per-node rewrite attribution, in rewrite order (empty unless a
    /// plan or a captured report reads it).
    pub(crate) provenance: Vec<(NodeId, String)>,
    /// The sparsity pass's facts for every slot it analyzed (`None`
    /// when the pass is off). Every later rewrite preserves the value a
    /// surviving slot writes — folding and elision remove slots, CSE
    /// and fusion change how a value is computed, never which — so each
    /// fact stays sound for its slot through the rest of the pipeline.
    pub(crate) facts: Option<AddrMap<usize, NodeFacts>>,
}

/// Run the enabled passes, then the fusion pass, then (when DCE is
/// enabled) a final dead-op sweep over whatever fusion and folding
/// orphaned. `mult` is the descriptor multiplicity for the
/// external-reference freeze: 1 on the real DAG, 2 when `dag` is a
/// clone and the original still holds every descriptor (plan's
/// simulation).
pub(crate) fn run_pipeline(dag: &mut Dag, mult: usize, simulate: bool) -> PipelineSummary {
    let mut ctx = PassCtx {
        ext: ExtRefs::freeze(dag, mult),
        simulate,
        notes: simulate || crate::analyze::report_wanted(),
        provenance: Vec::new(),
        analysis: None,
    };
    if !simulate {
        crate::analyze::clear_refusals();
    }
    let passes = enabled_passes();
    let mut summary = PipelineSummary::default();
    for p in &passes {
        let sp = (!simulate).then(|| pygb_obs::span(pygb_obs::Cat::Opt, p.span_label()));
        let n = match p {
            PassKind::Dce => {
                let n = dce_pass(dag, &mut ctx);
                summary.dce += n;
                n
            }
            PassKind::Cse => {
                let n = cse_pass(dag, &mut ctx);
                summary.cse += n;
                n
            }
            PassKind::Sparsity => {
                let n = sparsity_pass(dag, &mut ctx);
                summary.sparsity += n;
                n
            }
            PassKind::Noop => {
                let n = noop_pass(dag, &mut ctx);
                summary.noop += n;
                n
            }
        };
        if let Some(mut sp) = sp {
            if sp.is_active() {
                sp.arg("rewrites", n.to_string());
            }
        }
    }
    summary.fused = crate::fuse::fuse_pass(dag, &mut ctx);
    if passes.contains(&PassKind::Dce) {
        // Fusion and folding drop operand references; a producer whose
        // only consumer was absorbed or folded is now dead.
        let sp = (!simulate).then(|| pygb_obs::span(pygb_obs::Cat::Opt, "opt/dce"));
        summary.dce += dce_pass(dag, &mut ctx);
        drop(sp);
    }
    summary.provenance = ctx.provenance;
    summary.facts = ctx.analysis.map(|a| a.facts);
    summary
}

// ---------------------------------------------------------------------
// Pass 1: liveness / dead-op elimination.
// ---------------------------------------------------------------------

/// Remove every node whose output can never be observed: no external
/// handle survives (frozen count) and no live use reads it — where a
/// fully-overwriting consumer's `target` is a *dead* use (the prior
/// contents are never read). Cascades to fixpoint: an elided node
/// drops its operand uses, which may orphan upstream producers. Live
/// uses are counted once; an elision decrements its operands' counts
/// and re-examines only the producers it orphaned, so the pass costs
/// `O(nodes + edges)` however long the dead chain.
fn dce_pass(dag: &mut Dag, ctx: &mut PassCtx) -> usize {
    let mut uses = dataflow::live_use_counts(dag);
    let mut elided = 0;
    let mut candidates: Vec<usize> = (0..dag.nodes.len()).collect();
    while !candidates.is_empty() {
        let mut orphaned = Vec::new();
        for i in candidates {
            let Some(n) = &dag.nodes[i] else { continue };
            let p = node_out_ptr(n);
            if ctx.ext.get(p) != 0 || uses.get(&p).is_some_and(|&c| c > 0) {
                continue;
            }
            let n = dag.nodes[i].take().expect("checked above");
            dag.pending.remove(&p);
            ctx.note(dag.ids[i], || {
                "elided by dce (output never read)".to_string()
            });
            elided += 1;
            dataflow::visit_live_uses(&n, &mut |q| {
                let c = uses.get_mut(&q).expect("counted use");
                *c -= 1;
                if *c == 0 {
                    orphaned.extend(dag.pending.get(&q).copied());
                }
            });
        }
        orphaned.sort_unstable();
        orphaned.dedup();
        candidates = orphaned;
    }
    elided
}

// ---------------------------------------------------------------------
// Pass 2: common-subexpression elimination.
// ---------------------------------------------------------------------

/// Merge structurally identical nodes: one forward scan hash-conses
/// each eligible node ([`node_cse_hash`]); a later duplicate is elided
/// and every surviving reference to its placeholder is rewritten to
/// the representative's. Sound because stores are immutable `Arc`
/// snapshots — pointer-identical operands can never diverge in value.
///
/// The rewrite is applied as the scan reaches each node, just before
/// keying it: a node only reads placeholders minted before it, so every
/// reader of a duplicate comes later in the scan, and one substitution
/// per node does what rewriting the whole DAG per merge would.
fn cse_pass(dag: &mut Dag, ctx: &mut PassCtx) -> usize {
    let mut merged = 0;
    let mut buckets: AddrMap<u64, Vec<usize>> = AddrMap::default();
    let mut redirect = Redirects::default();
    for i in 0..dag.nodes.len() {
        let Some(n) = &mut dag.nodes[i] else { continue };
        redirect.apply(n);
        let Some(n) = &dag.nodes[i] else { continue };
        let Some(h) = node_cse_hash(n) else { continue };
        let slots = buckets.entry(h).or_default();
        let rep = slots
            .iter()
            .copied()
            .find(|&j| dag.nodes[j].as_ref().is_some_and(|m| node_cse_eq(m, n)));
        match rep {
            Some(j) => {
                merge_dup(dag, ctx, &mut redirect, j, i);
                merged += 1;
            }
            None => slots.push(i),
        }
    }
    merged
}

/// Placeholder redirections of merged duplicates, keyed by the
/// duplicate's address: (duplicate, representative).
#[derive(Default)]
struct Redirects {
    v: AddrMap<usize, (Arc<VectorStore>, Arc<VectorStore>)>,
    m: AddrMap<usize, (Arc<MatrixStore>, Arc<MatrixStore>)>,
}

impl Redirects {
    /// Rewrite `n` to read representatives instead of duplicates.
    /// Vector nodes consult both maps (their expressions carry matrix
    /// operands); matrix nodes only the matrix map.
    fn apply(&self, n: &mut Node) {
        if self.v.is_empty() && self.m.is_empty() {
            return;
        }
        match n {
            Node::Vec(d) => subst_vec_desc(&self.v, &self.m, d),
            Node::Mat(d) => subst_mat_desc(&self.v, &self.m, d),
        }
    }
}

/// Elide duplicate node `dup_i`, redirecting its placeholder to
/// representative `rep_i`'s: later descriptors are rewritten (through
/// `redirect`) to read the representative's placeholder directly,
/// while external handles of the duplicate resolve through an
/// [`AliasSet`] when the representative's result lands. The
/// duplicate's `pending` entry is kept (mapping to the now-empty slot)
/// so flush-on-read still triggers for user handles.
fn merge_dup(
    dag: &mut Dag,
    ctx: &mut PassCtx,
    redirect: &mut Redirects,
    rep_i: usize,
    dup_i: usize,
) {
    let rep_id = dag.ids[rep_i];
    ctx.note(dag.ids[dup_i], || format!("elided by cse, dup of {rep_id}"));
    let dup = dag.nodes[dup_i].take().expect("dup slot checked by caller");
    match (&dag.nodes[rep_i], dup) {
        (Some(Node::Vec(r)), Node::Vec(d)) => {
            let dup_out = d.out;
            let rep_out = Arc::clone(&r.out);
            dag.alias_v
                .entry(vptr(&rep_out))
                .or_insert_with(|| AliasSet {
                    rep: rep_out.clone(),
                    dups: Vec::new(),
                })
                .dups
                .push(Arc::clone(&dup_out));
            redirect.v.insert(vptr(&dup_out), (dup_out, rep_out));
        }
        (Some(Node::Mat(r)), Node::Mat(d)) => {
            let dup_out = d.out;
            let rep_out = Arc::clone(&r.out);
            dag.alias_m
                .entry(mptr(&rep_out))
                .or_insert_with(|| AliasSet {
                    rep: rep_out.clone(),
                    dups: Vec::new(),
                })
                .dups
                .push(Arc::clone(&dup_out));
            redirect.m.insert(mptr(&dup_out), (dup_out, rep_out));
        }
        _ => unreachable!("node_cse_eq never matches across vec/mat"),
    }
}

// ---------------------------------------------------------------------
// Pass 3: sparsity folding and no-op aliasing.
// ---------------------------------------------------------------------

/// Fold every node whose abstract write-back fact is provably empty
/// (see `crate::sparsity`): the node's result container provably holds
/// zero entries, so its placeholder resolves to a fresh empty store
/// without dispatching. Facts propagate *through* pending placeholders
/// (an empty mask five nodes upstream still proves this node empty),
/// and masked/accumulated/complemented nodes fold whenever the
/// interval arithmetic pins the result at zero. This is the only pass
/// that folds a node to an empty container. The operator-presence gate
/// keeps `MissingOperator` errors observable, and region assigns are
/// never folded (their facts are ⊤ anyway).
fn sparsity_pass(dag: &mut Dag, ctx: &mut PassCtx) -> usize {
    let analysis = crate::sparsity::analyze(dag, !ctx.simulate);
    let mut folded = 0;
    for i in 0..dag.nodes.len() {
        let provably_empty = analysis
            .facts
            .get(&i)
            .is_some_and(|nf| nf.fact.provably_empty());
        if !provably_empty {
            continue;
        }
        let eligible = match &dag.nodes[i] {
            Some(Node::Vec(d)) => d.region.is_none() && vec_rhs_ops_present(&d.rhs),
            Some(Node::Mat(d)) => d.region.is_none() && mat_rhs_ops_present(&d.rhs),
            None => false,
        };
        if !eligible {
            continue;
        }
        ctx.note(dag.ids[i], || {
            "elided by sparsity (provably-empty result)".to_string()
        });
        match dag.nodes[i].take().expect("checked above") {
            Node::Vec(d) => {
                let empty = Arc::new(VectorStore::new(d.out.size(), d.out.dtype()));
                fold_vec(dag, d.out, empty);
            }
            Node::Mat(d) => {
                let empty = MatrixStore::new(d.out.nrows(), d.out.ncols(), d.out.dtype());
                fold_mat(dag, d.out, Arc::new(empty));
            }
        }
        folded += 1;
    }
    ctx.analysis = Some(analysis);
    folded
}

/// The container a no-op node's result provably equals.
enum Alias {
    V(Arc<VectorStore>),
    M(Arc<MatrixStore>),
}

/// Fold nodes whose result provably equals another container's value:
/// an identity apply, an `eWiseAdd` with one provably-empty operand, a
/// provably-empty non-complemented mask without replace, or an
/// accumulation of a provably-empty right-hand side. A folded node's
/// placeholder aliases that container instead of dispatching.
/// Emptiness comes from the sparsity analysis — the sparsity pass's,
/// when it ran earlier in the pipeline, else one computed here — so
/// it reaches through pending placeholders. Every gate requires the
/// needed operators to be present so `MissingOperator` errors still
/// surface at eval.
fn noop_pass(dag: &mut Dag, ctx: &mut PassCtx) -> usize {
    let own;
    let analysis = match &ctx.analysis {
        Some(a) => a,
        None => {
            own = crate::sparsity::analyze(dag, false);
            &own
        }
    };
    let folds: Vec<(usize, Alias, &'static str)> = dag
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(i, n)| {
            let nf = analysis.facts.get(&i)?;
            match n.as_ref()? {
                Node::Vec(d) => {
                    vec_alias(analysis, dag, nf, d).map(|(s, why)| (i, Alias::V(s), why))
                }
                Node::Mat(d) => {
                    mat_alias(analysis, dag, nf, d).map(|(s, why)| (i, Alias::M(s), why))
                }
            }
        })
        .collect();
    let folded = folds.len();
    for (i, src, why) in folds {
        ctx.note(dag.ids[i], || format!("elided by noop ({why})"));
        match (dag.nodes[i].take().expect("checked above"), src) {
            (Node::Vec(d), Alias::V(src)) => fold_vec(dag, d.out, src),
            (Node::Mat(d), Alias::M(src)) => fold_mat(dag, d.out, src),
            _ => unreachable!("alias built from the same node"),
        }
    }
    folded
}

/// Resolve a folded node's placeholder `out` to `src`'s value: at once
/// when `src` is resolved or a clean store, else through an alias set
/// that drains when `src`'s producer runs. Meanwhile `out` keeps its
/// pending entry, so readers of its handle still trigger the flush.
fn fold_vec(dag: &mut Dag, out: Arc<VectorStore>, src: Arc<VectorStore>) {
    let sp = vptr(&src);
    let store = match dag.resolved_v.get(&sp) {
        Some((_, s)) => Arc::clone(s),
        None if dag.pending.contains_key(&sp) => {
            dag.alias_v
                .entry(sp)
                .or_insert_with(|| AliasSet {
                    rep: src,
                    dups: Vec::new(),
                })
                .dups
                .push(out);
            return;
        }
        None => src,
    };
    let p = vptr(&out);
    dag.pending.remove(&p);
    dag.resolved_v.insert(p, (out, store));
    drain_aliases(dag, p, &mut |_| {});
}

/// Matrix analog of [`fold_vec`].
fn fold_mat(dag: &mut Dag, out: Arc<MatrixStore>, src: Arc<MatrixStore>) {
    let sp = mptr(&src);
    let store = match dag.resolved_m.get(&sp) {
        Some((_, s)) => Arc::clone(s),
        None if dag.pending.contains_key(&sp) => {
            dag.alias_m
                .entry(sp)
                .or_insert_with(|| AliasSet {
                    rep: src,
                    dups: Vec::new(),
                })
                .dups
                .push(out);
            return;
        }
        None => src,
    };
    let p = mptr(&out);
    dag.pending.remove(&p);
    dag.resolved_m.insert(p, (out, store));
    drain_aliases(dag, p, &mut |_| {});
}

fn vec_alias(
    a: &Analysis,
    dag: &Dag,
    nf: &NodeFacts,
    d: &VecOpDesc,
) -> Option<(Arc<VectorStore>, &'static str)> {
    if d.region.is_some() || !vec_rhs_ops_present(&d.rhs) {
        return None;
    }
    // An empty non-complemented mask admits no writes: without replace
    // the target is untouched (under any accumulator — accumulation is
    // also a write).
    if let Some((m, false)) = &d.mask {
        if !d.replace && a.vec(dag, m).provably_empty() {
            return Some((Arc::clone(&d.target), "empty mask, replace off"));
        }
    }
    let VecRhs::Expr(e) = &d.rhs else { return None };
    // Accumulating an empty right-hand side merges nothing: the target
    // passes through (outside-mask positions are untouched too while
    // replace is off).
    if d.accum.is_some() && !d.replace && nf.rhs.provably_empty() {
        return Some((Arc::clone(&d.target), "identity accum of empty rhs"));
    }
    if !d.is_plain() {
        return None;
    }
    match &e.kind {
        VectorExprKind::Apply {
            u,
            op: Some(AppliedUnaryKind::Pure(UnaryOpKind::Identity)),
        } if u.dtype() == d.out.dtype() => Some((Arc::clone(u), "identity apply")),
        VectorExprKind::EWiseAdd { u, v, op: Some(_) }
            if u.dtype() == v.dtype() && u.dtype() == d.out.dtype() =>
        {
            // Union semantics: the operator only combines intersecting
            // entries; with one side empty the other passes through.
            if a.vec(dag, u).provably_empty() {
                Some((Arc::clone(v), "eWiseAdd with empty operand"))
            } else if a.vec(dag, v).provably_empty() {
                Some((Arc::clone(u), "eWiseAdd with empty operand"))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn mat_alias(
    a: &Analysis,
    dag: &Dag,
    nf: &NodeFacts,
    d: &MatOpDesc,
) -> Option<(Arc<MatrixStore>, &'static str)> {
    if d.region.is_some() || !mat_rhs_ops_present(&d.rhs) {
        return None;
    }
    if let Some((m, false)) = &d.mask {
        if !d.replace && a.mat(dag, m).provably_empty() {
            return Some((Arc::clone(&d.target), "empty mask, replace off"));
        }
    }
    let MatRhs::Expr(e) = &d.rhs else { return None };
    if d.accum.is_some() && !d.replace && nf.rhs.provably_empty() {
        return Some((Arc::clone(&d.target), "identity accum of empty rhs"));
    }
    if !d.is_plain() {
        return None;
    }
    match &e.kind {
        MatrixExprKind::Apply {
            a: x,
            op: Some(AppliedUnaryKind::Pure(UnaryOpKind::Identity)),
        } if !x.transposed && x.store.dtype() == d.out.dtype() => {
            Some((Arc::clone(&x.store), "identity apply"))
        }
        MatrixExprKind::EWiseAdd {
            a: x,
            b: y,
            op: Some(_),
        } if !x.transposed
            && !y.transposed
            && x.store.dtype() == y.store.dtype()
            && x.store.dtype() == d.out.dtype() =>
        {
            if a.mat(dag, &x.store).provably_empty() {
                Some((Arc::clone(&y.store), "eWiseAdd with empty operand"))
            } else if a.mat(dag, &y.store).provably_empty() {
                Some((Arc::clone(&x.store), "eWiseAdd with empty operand"))
            } else {
                None
            }
        }
        _ => None,
    }
}
