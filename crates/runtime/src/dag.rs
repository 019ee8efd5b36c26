//! The thread-local operation DAG and its flush scheduler.
//!
//! Each deferred assignment becomes a [`Node`] holding the descriptor
//! the core crate would otherwise have dispatched immediately. Edges
//! are implicit: a node's operand handles that appear as another
//! node's `out` placeholder (tracked in `pending` by `Arc` address)
//! are dependencies. A flush rewrites the DAG (see [`crate::fuse`]),
//! then executes it in *waves*: every node whose inputs are all
//! resolved runs — in parallel via [`gbtl::parallel::run_jobs`] —
//! then the next wave is collected, until the DAG drains.
//!
//! The `RefCell` borrow on the DAG is never held across node
//! execution: executing a node re-enters the core dispatch layer,
//! which probes the resolution maps through the engine hooks.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use gbtl::ops::kind::KindMonoid;
use pygb::expr::{MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind};
use pygb::facts::KernelChoice;
use pygb::nb::{MatOpDesc, MatRhs, Resolution, VecOpDesc, VecRhs};
use pygb::store::{MatrixStore, VectorStore};
use pygb::{DynScalar, PygbError, Result};

use crate::analyze::NodeId;

/// One deferred operation.
#[derive(Clone)]
pub(crate) enum Node {
    /// A deferred vector assignment.
    Vec(VecOpDesc),
    /// A deferred matrix assignment.
    Mat(MatOpDesc),
}

/// Placeholders proven by a pass to carry the same value as a
/// representative placeholder that has not resolved yet (CSE
/// duplicates, no-op aliases of pending sources). When the
/// representative lands, [`drain_aliases`] resolves every duplicate to
/// the same computed store.
#[derive(Clone)]
pub(crate) struct AliasSet<S> {
    /// The representative placeholder (pins its address while the set
    /// is live, and keeps the representative node's output observed so
    /// neither fusion nor DCE may remove it).
    pub(crate) rep: Arc<S>,
    /// Placeholders that resolve to the representative's value.
    pub(crate) dups: Vec<Arc<S>>,
}

/// The per-thread DAG state.
#[derive(Default, Clone)]
pub(crate) struct Dag {
    /// Nodes in enqueue order; executed / fused / elided slots are
    /// `None`.
    pub(crate) nodes: Vec<Option<Node>>,
    /// Stable identity per slot (`ids.len() == nodes.len()` always);
    /// survives a slot being taken, so diagnostics can still name a
    /// fused-away or executed node. Cleared with `nodes`.
    pub(crate) ids: Vec<NodeId>,
    /// The next id to mint; resets to 0 whenever the DAG fully drains
    /// so per-scope numbering is deterministic.
    pub(crate) next_id: u64,
    /// Placeholder address → producing node index. Vector and matrix
    /// placeholders share the map safely: live allocations are
    /// distinct.
    pub(crate) pending: HashMap<usize, usize>,
    /// Placeholder address → (keepalive placeholder, computed store).
    /// The keepalive pins the address so it cannot be reused by a new
    /// allocation while it still keys this map.
    pub(crate) resolved_v: HashMap<usize, (Arc<VectorStore>, Arc<VectorStore>)>,
    /// Matrix analog of `resolved_v`.
    pub(crate) resolved_m: HashMap<usize, (Arc<MatrixStore>, Arc<MatrixStore>)>,
    /// True while a flush is draining this DAG (re-entrant flushes
    /// no-op).
    pub(crate) flushing: bool,
    /// Representative placeholder address → vector placeholders that
    /// resolve to its value (populated by the optimization passes,
    /// drained as results land, cleared by flush cleanup).
    pub(crate) alias_v: HashMap<usize, AliasSet<VectorStore>>,
    /// Matrix analog of `alias_v`.
    pub(crate) alias_m: HashMap<usize, AliasSet<MatrixStore>>,
}

/// Resolve every aliased placeholder reachable from `start`: if an
/// alias set is keyed by a placeholder that has a computed store in the
/// resolution maps, each duplicate resolves to that same store —
/// cascading, since a duplicate may itself key a further set.
pub(crate) fn drain_aliases(dag: &mut Dag, start: usize) {
    let mut work = vec![start];
    while let Some(p) = work.pop() {
        if let Some(set) = dag.alias_v.remove(&p) {
            match dag.resolved_v.get(&p).map(|(_, s)| Arc::clone(s)) {
                Some(store) => {
                    for dup in set.dups {
                        let dp = vptr(&dup);
                        dag.pending.remove(&dp);
                        dag.resolved_v.insert(dp, (dup, Arc::clone(&store)));
                        work.push(dp);
                    }
                }
                None => {
                    dag.alias_v.insert(p, set);
                }
            }
        }
        if let Some(set) = dag.alias_m.remove(&p) {
            match dag.resolved_m.get(&p).map(|(_, s)| Arc::clone(s)) {
                Some(store) => {
                    for dup in set.dups {
                        let dp = mptr(&dup);
                        dag.pending.remove(&dp);
                        dag.resolved_m.insert(dp, (dup, Arc::clone(&store)));
                        work.push(dp);
                    }
                }
                None => {
                    dag.alias_m.insert(p, set);
                }
            }
        }
    }
}

thread_local! {
    static DAG: RefCell<Dag> = RefCell::new(Dag::default());
}

pub(crate) fn vptr(a: &Arc<VectorStore>) -> usize {
    Arc::as_ptr(a) as usize
}

/// Run `f` with a shared borrow of the calling thread's DAG (read-only
/// accessor for the plan/explain API).
pub(crate) fn with_dag<R>(f: impl FnOnce(&Dag) -> R) -> R {
    DAG.with(|d| f(&d.borrow()))
}

pub(crate) fn mptr(a: &Arc<MatrixStore>) -> usize {
    Arc::as_ptr(a) as usize
}

// ---------------------------------------------------------------------
// Engine hooks (installed into `pygb::nb` by `crate::install_engine`).
// ---------------------------------------------------------------------

/// Append `n` to the DAG, minting its stable id.
pub(crate) fn push_node(dag: &mut Dag, key: usize, n: Node) {
    let idx = dag.nodes.len();
    dag.nodes.push(Some(n));
    dag.ids.push(NodeId(dag.next_id));
    dag.next_id += 1;
    dag.pending.insert(key, idx);
}

pub(crate) fn enqueue_vector(desc: VecOpDesc) -> Result<()> {
    DAG.with(|d| {
        let mut dag = d.borrow_mut();
        let key = vptr(&desc.out);
        push_node(&mut dag, key, Node::Vec(desc));
    });
    Ok(())
}

pub(crate) fn enqueue_matrix(desc: MatOpDesc) -> Result<()> {
    DAG.with(|d| {
        let mut dag = d.borrow_mut();
        let key = mptr(&desc.out);
        push_node(&mut dag, key, Node::Mat(desc));
    });
    Ok(())
}

pub(crate) fn resolve_vector(store: &Arc<VectorStore>) -> Resolution<VectorStore> {
    DAG.with(|d| {
        let dag = d.borrow();
        let p = vptr(store);
        if let Some((_, r)) = dag.resolved_v.get(&p) {
            Resolution::Resolved(Arc::clone(r))
        } else if dag.pending.contains_key(&p) {
            Resolution::Pending
        } else {
            Resolution::Clean
        }
    })
}

pub(crate) fn resolve_matrix(store: &Arc<MatrixStore>) -> Resolution<MatrixStore> {
    DAG.with(|d| {
        let dag = d.borrow();
        let p = mptr(store);
        if let Some((_, r)) = dag.resolved_m.get(&p) {
            Resolution::Resolved(Arc::clone(r))
        } else if dag.pending.contains_key(&p) {
            Resolution::Pending
        } else {
            Resolution::Clean
        }
    })
}

/// Try to claim the flush: sets the `flushing` flag and returns true
/// when there is work and no flush is already draining this DAG. The
/// claim-before-drain protocol this implements is model-checked
/// exhaustively in the `model_check` test module.
pub(crate) fn begin_flush(dag: &mut Dag) -> bool {
    if dag.flushing {
        return false;
    }
    if dag.nodes.iter().all(|n| n.is_none()) {
        dag.nodes.clear();
        dag.ids.clear();
        dag.next_id = 0;
        return false;
    }
    dag.flushing = true;
    true
}

/// Indices of nodes whose inputs are all resolved — the next wave the
/// scheduler will run.
pub(crate) fn ready_indices(dag: &Dag) -> Vec<usize> {
    (0..dag.nodes.len())
        .filter(|&i| match &dag.nodes[i] {
            Some(node) => node_inputs(node)
                .iter()
                .all(|p| !dag.pending.contains_key(p)),
            None => false,
        })
        .collect()
}

/// Execute every node in the calling thread's DAG. No-op when empty or
/// already flushing (re-entrancy from node execution).
pub(crate) fn flush() -> Result<()> {
    let proceed = DAG.with(|d| begin_flush(&mut d.borrow_mut()));
    if !proceed {
        return Ok(());
    }
    let _sp = pygb_obs::span(pygb_obs::Cat::Flush, "flush");
    let result = flush_inner();
    // If a serve worker tagged this thread with a request ID, make the
    // finished report retrievable cross-thread (EXPLAIN rN). No-op for
    // untagged flushes.
    crate::analyze::publish_tagged_report();
    DAG.with(|d| {
        let mut dag = d.borrow_mut();
        dag.flushing = false;
        dag.nodes.clear();
        dag.ids.clear();
        dag.next_id = 0;
        if result.is_err() {
            // Abandon whatever could not run; readers of their outputs
            // will report "unresolved" rather than see stale data.
            dag.pending.clear();
        }
        // Alias sets drain as results land; any survivors belong to
        // nodes the error path abandoned.
        dag.alias_v.clear();
        dag.alias_m.clear();
        // Entries whose placeholder only the map itself still holds can
        // never be asked for again — their address has no other owner.
        dag.resolved_v
            .retain(|_, (keep, _)| Arc::strong_count(keep) > 1);
        dag.resolved_m
            .retain(|_, (keep, _)| Arc::strong_count(keep) > 1);
    });
    result
}

fn flush_inner() -> Result<()> {
    let summary = {
        let mut sp = pygb_obs::span(pygb_obs::Cat::Fuse, "fuse");
        let s = DAG.with(|d| crate::passes::run_pipeline(&mut d.borrow_mut(), 1, false));
        if sp.is_active() {
            sp.arg("fused", s.fused.to_string());
            sp.arg("elided", s.dce.to_string());
            sp.arg("cse", s.cse.to_string());
            sp.arg("sparsity", s.sparsity.to_string());
            sp.arg("noop", s.noop.to_string());
        }
        s
    };
    let stats = pygb::runtime().cache().stats();
    if summary.fused > 0 {
        stats.record_fused(summary.fused as u64);
    }
    if summary.dce > 0 {
        stats.record_elided(summary.dce as u64);
        pygb_obs::registry()
            .counter("opt/dce_elided")
            .add(summary.dce as u64);
    }
    if summary.cse > 0 {
        stats.record_cse(summary.cse as u64);
        pygb_obs::registry()
            .counter("opt/cse_deduped")
            .add(summary.cse as u64);
    }
    if summary.sparsity > 0 {
        pygb_obs::registry()
            .counter("opt/empty_folded")
            .add(summary.sparsity as u64);
    }
    if summary.noop > 0 {
        stats.record_noop(summary.noop as u64);
        pygb_obs::registry()
            .counter("opt/noop_folded")
            .add(summary.noop as u64);
    }
    let saved = (summary.dce + summary.cse + summary.sparsity + summary.noop) as u64;
    if saved > 0 {
        pygb_obs::registry()
            .counter("opt/launches_saved")
            .add(saved);
    }
    // Snapshot the post-rewrite DAG for trace_report() before any wave
    // removes pending edges (no-op while tracing is disabled).
    DAG.with(|d| crate::analyze::begin_report(&d.borrow(), &summary));

    // With the sparsity pass enabled, re-analyze the post-pipeline DAG
    // (fused/folded descriptors included) once, before any wave runs:
    // each surviving node's fact arms the checked interpretation on
    // the thread that executes it and carries the node's static kernel
    // choice. Slot indices stay stable across waves, so the map
    // survives the loop.
    let mut node_facts =
        if crate::passes::enabled_passes().contains(&crate::passes::PassKind::Sparsity) {
            DAG.with(|d| crate::sparsity::analyze(&d.borrow(), false).facts)
        } else {
            std::collections::HashMap::new()
        };

    let mut wave = 0usize;
    loop {
        let traced = pygb_obs::enabled();
        // Per-node timing also runs when the thread forces reports
        // (serve workers), without buffering any trace events.
        let timed = traced || crate::analyze::report_forced();
        // Collect the wave of ready nodes (no pending inputs) and
        // substitute resolved stores into their descriptors. The DAG
        // borrow is released before anything executes. When tracing,
        // each node also carries its exec-span label (`exec/n<id>
        // <kernel>`), rendered here because the node moves into a job
        // closure that may run on a worker thread.
        let batch: Vec<(usize, Option<String>, Node)> = DAG.with(|d| {
            let mut dag = d.borrow_mut();
            let ready = ready_indices(&dag);
            let Dag {
                nodes,
                ids,
                resolved_v,
                resolved_m,
                ..
            } = &mut *dag;
            ready
                .into_iter()
                .map(|i| {
                    let mut node = nodes[i].take().expect("ready node present");
                    match &mut node {
                        Node::Vec(desc) => subst_vec_desc(resolved_v, resolved_m, desc),
                        Node::Mat(desc) => subst_mat_desc(resolved_v, resolved_m, desc),
                    }
                    let label = traced
                        .then(|| format!("exec/{} {}", ids[i], crate::analyze::node_kernel(&node)));
                    (i, label, node)
                })
                .collect()
        });

        if batch.is_empty() {
            let remaining = DAG.with(|d| d.borrow().nodes.iter().filter(|n| n.is_some()).count());
            if remaining > 0 {
                return Err(PygbError::Unsupported {
                    context: format!(
                        "nonblocking DAG wedged: {remaining} nodes have unresolvable inputs"
                    ),
                });
            }
            return Ok(());
        }

        let _wave_sp = pygb_obs::span_labeled(pygb_obs::Cat::Wave, || format!("wave/{wave}"));

        // Independent nodes of one wave execute in parallel. Operand
        // substitution already happened, so worker threads never touch
        // this thread's DAG (their own DAGs are empty).
        let jobs: Vec<_> = batch
            .into_iter()
            .map(|(i, label, node)| {
                let nf = node_facts.remove(&i);
                move || {
                    let t0 = timed.then(std::time::Instant::now);
                    let sp = label.map(|l| pygb_obs::span_labeled(pygb_obs::Cat::Exec, || l));
                    // Arm the checked interpretation on the thread the
                    // node runs on.
                    if nf.is_some() {
                        crate::sparsity::arm_prediction();
                    }
                    let choice = nf.as_ref().map(|nf| nf.choice).unwrap_or_default();
                    let done = run_node(node, choice);
                    drop(sp);
                    if let Some(nf) = &nf {
                        let ok = match &done {
                            Done::V(_, r) => r.is_ok(),
                            Done::M(_, r) => r.is_ok(),
                        };
                        crate::sparsity::check_prediction(nf, ok);
                    }
                    let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    (i, ns, done)
                }
            })
            .collect();
        let results = gbtl::parallel::run_jobs(jobs);

        let mut first_err = None;
        DAG.with(|d| {
            let mut dag = d.borrow_mut();
            for (i, ns, done) in results {
                if timed {
                    crate::analyze::record_exec(i, wave, ns);
                }
                match done {
                    Done::V(out, Ok(store)) => {
                        let p = vptr(&out);
                        dag.pending.remove(&p);
                        dag.resolved_v.insert(p, (out, Arc::new(store)));
                        drain_aliases(&mut dag, p);
                    }
                    Done::M(out, Ok(store)) => {
                        let p = mptr(&out);
                        dag.pending.remove(&p);
                        dag.resolved_m.insert(p, (out, Arc::new(store)));
                        drain_aliases(&mut dag, p);
                    }
                    Done::V(out, Err(e)) => {
                        dag.pending.remove(&vptr(&out));
                        first_err.get_or_insert(e);
                    }
                    Done::M(out, Err(e)) => {
                        dag.pending.remove(&mptr(&out));
                        first_err.get_or_insert(e);
                    }
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        wave += 1;
    }
}

enum Done {
    V(Arc<VectorStore>, Result<VectorStore>),
    M(Arc<MatrixStore>, Result<MatrixStore>),
}

fn run_node(node: Node, choice: KernelChoice) -> Done {
    match node {
        Node::Vec(desc) => {
            let out = Arc::clone(&desc.out);
            Done::V(out, pygb::nb::run_vec_op(desc, choice))
        }
        Node::Mat(desc) => {
            let out = Arc::clone(&desc.out);
            Done::M(out, pygb::nb::run_mat_op(desc, choice))
        }
    }
}

/// Fuse a pending `reduce(w)` into `w`'s producing eWise node when the
/// producer is plain and otherwise unconsumed — the composite kernel
/// materializes the vector AND folds the scalar in one dispatch.
/// `Ok(None)` tells the caller to reduce through the ordinary path.
pub(crate) fn reduce_vector(
    store: &Arc<VectorStore>,
    monoid: KindMonoid,
) -> Result<Option<DynScalar>> {
    let p = vptr(store);
    let taken: Option<VecOpDesc> = DAG.with(|d| {
        let mut dag = d.borrow_mut();
        if dag.flushing {
            return None;
        }
        let &idx = dag.pending.get(&p)?;
        let fusible = match &dag.nodes[idx] {
            Some(Node::Vec(desc)) => {
                desc.mask.is_none()
                    && desc.accum.is_none()
                    && desc.region.is_none()
                    && matches!(
                        &desc.rhs,
                        VecRhs::Expr(e) if matches!(
                            &e.kind,
                            VectorExprKind::EWiseAdd { op: Some(_), .. }
                                | VectorExprKind::EWiseMult { op: Some(_), .. }
                        )
                    )
                    && !has_other_consumers(&dag, idx, p)
            }
            _ => false,
        };
        if !fusible {
            return None;
        }
        dag.pending.remove(&p);
        match dag.nodes[idx].take() {
            Some(Node::Vec(desc)) => Some(desc),
            _ => unreachable!("checked above"),
        }
    });

    let Some(desc) = taken else {
        // Not pending here, or pending but not fusible: land everything
        // and let the caller dispatch a plain reduction.
        flush()?;
        return Ok(None);
    };

    // Land the rest of the DAG so the producer's operands resolve.
    flush()?;

    let (u, v, op, is_add) = DAG.with(|d| {
        let dag = d.borrow();
        match &desc.rhs {
            VecRhs::Expr(e) => match &e.kind {
                VectorExprKind::EWiseAdd { u, v, op } => (
                    sub_v(&dag.resolved_v, u),
                    sub_v(&dag.resolved_v, v),
                    op.expect("checked above"),
                    true,
                ),
                VectorExprKind::EWiseMult { u, v, op } => (
                    sub_v(&dag.resolved_v, u),
                    sub_v(&dag.resolved_v, v),
                    op.expect("checked above"),
                    false,
                ),
                _ => unreachable!("checked above"),
            },
            VecRhs::Scalar(_) => unreachable!("checked above"),
        }
    });

    let size = desc.out.size();
    let ct = desc.out.dtype();
    let (out_store, scalar) = {
        let _sp = pygb_obs::span(pygb_obs::Cat::Exec, "exec/fused_ewise_reduce");
        pygb::dispatch::dispatch_fused_ewise_reduce(size, ct, u, v, op, is_add, monoid)?
    };
    DAG.with(|d| {
        let mut dag = d.borrow_mut();
        dag.resolved_v
            .insert(p, (Arc::clone(&desc.out), Arc::new(out_store)));
    });
    pygb::runtime().cache().stats().record_fused(1);
    Ok(Some(scalar))
}

/// Does any node other than `idx` read placeholder address `p`?
pub(crate) fn has_other_consumers(dag: &Dag, idx: usize, p: usize) -> bool {
    dag.nodes
        .iter()
        .enumerate()
        .any(|(i, n)| i != idx && n.as_ref().is_some_and(|n| node_inputs(n).contains(&p)))
}

// ---------------------------------------------------------------------
// Descriptor walking: inputs and substitution.
// ---------------------------------------------------------------------

/// Every store address a node reads (target merge input, mask, and
/// expression operands).
pub(crate) fn node_inputs(n: &Node) -> Vec<usize> {
    let mut out = Vec::with_capacity(4);
    match n {
        Node::Vec(d) => {
            out.push(vptr(&d.target));
            if let Some((m, _)) = &d.mask {
                out.push(vptr(m));
            }
            if let VecRhs::Expr(e) = &d.rhs {
                vec_expr_inputs(e, &mut out);
            }
        }
        Node::Mat(d) => {
            out.push(mptr(&d.target));
            if let Some((m, _)) = &d.mask {
                out.push(mptr(m));
            }
            if let MatRhs::Expr(e) = &d.rhs {
                mat_expr_inputs(e, &mut out);
            }
        }
    }
    out
}

fn vec_expr_inputs(e: &VectorExpr, out: &mut Vec<usize>) {
    match &e.kind {
        VectorExprKind::MxV { a, u, .. } => {
            out.push(mptr(&a.store));
            out.push(vptr(u));
        }
        VectorExprKind::VxM { u, a, .. } => {
            out.push(vptr(u));
            out.push(mptr(&a.store));
        }
        VectorExprKind::EWiseAdd { u, v, .. } | VectorExprKind::EWiseMult { u, v, .. } => {
            out.push(vptr(u));
            out.push(vptr(v));
        }
        VectorExprKind::Apply { u, .. }
        | VectorExprKind::Extract { u, .. }
        | VectorExprKind::Ref { u } => out.push(vptr(u)),
        VectorExprKind::ReduceRows { a, .. } => out.push(mptr(&a.store)),
        VectorExprKind::FusedMxvApply { a, u, .. } => {
            out.push(mptr(&a.store));
            out.push(vptr(u));
        }
        VectorExprKind::FusedEwiseChain { u, v, w, .. } => {
            out.push(vptr(u));
            out.push(vptr(v));
            if let Some(w) = w {
                out.push(vptr(w));
            }
        }
    }
}

fn mat_expr_inputs(e: &MatrixExpr, out: &mut Vec<usize>) {
    match &e.kind {
        MatrixExprKind::MxM { a, b, .. }
        | MatrixExprKind::EWiseAdd { a, b, .. }
        | MatrixExprKind::EWiseMult { a, b, .. } => {
            out.push(mptr(&a.store));
            out.push(mptr(&b.store));
        }
        MatrixExprKind::Apply { a, .. } | MatrixExprKind::Extract { a, .. } => {
            out.push(mptr(&a.store))
        }
        MatrixExprKind::Transpose { a } | MatrixExprKind::Ref { a } => out.push(mptr(a)),
    }
}

pub(crate) type ResolvedV = HashMap<usize, (Arc<VectorStore>, Arc<VectorStore>)>;
pub(crate) type ResolvedM = HashMap<usize, (Arc<MatrixStore>, Arc<MatrixStore>)>;

pub(crate) fn sub_v(map: &ResolvedV, a: &Arc<VectorStore>) -> Arc<VectorStore> {
    map.get(&vptr(a))
        .map(|(_, r)| Arc::clone(r))
        .unwrap_or_else(|| Arc::clone(a))
}

pub(crate) fn sub_m(map: &ResolvedM, a: &Arc<MatrixStore>) -> Arc<MatrixStore> {
    map.get(&mptr(a))
        .map(|(_, r)| Arc::clone(r))
        .unwrap_or_else(|| Arc::clone(a))
}

pub(crate) fn subst_vec_desc(rv: &ResolvedV, rm: &ResolvedM, d: &mut VecOpDesc) {
    d.target = sub_v(rv, &d.target);
    if let Some((m, _)) = &mut d.mask {
        *m = sub_v(rv, m);
    }
    if let VecRhs::Expr(e) = &mut d.rhs {
        subst_vec_expr(rv, rm, e);
    }
}

pub(crate) fn subst_mat_desc(rv: &ResolvedV, rm: &ResolvedM, d: &mut MatOpDesc) {
    let _ = rv;
    d.target = sub_m(rm, &d.target);
    if let Some((m, _)) = &mut d.mask {
        *m = sub_m(rm, m);
    }
    if let MatRhs::Expr(e) = &mut d.rhs {
        subst_mat_expr(rm, e);
    }
}

fn subst_vec_expr(rv: &ResolvedV, rm: &ResolvedM, e: &mut VectorExpr) {
    match &mut e.kind {
        VectorExprKind::MxV { a, u, .. } => {
            a.store = sub_m(rm, &a.store);
            *u = sub_v(rv, u);
        }
        VectorExprKind::VxM { u, a, .. } => {
            *u = sub_v(rv, u);
            a.store = sub_m(rm, &a.store);
        }
        VectorExprKind::EWiseAdd { u, v, .. } | VectorExprKind::EWiseMult { u, v, .. } => {
            *u = sub_v(rv, u);
            *v = sub_v(rv, v);
        }
        VectorExprKind::Apply { u, .. }
        | VectorExprKind::Extract { u, .. }
        | VectorExprKind::Ref { u } => *u = sub_v(rv, u),
        VectorExprKind::ReduceRows { a, .. } => a.store = sub_m(rm, &a.store),
        VectorExprKind::FusedMxvApply { a, u, .. } => {
            a.store = sub_m(rm, &a.store);
            *u = sub_v(rv, u);
        }
        VectorExprKind::FusedEwiseChain { u, v, w, .. } => {
            *u = sub_v(rv, u);
            *v = sub_v(rv, v);
            if let Some(w) = w {
                *w = sub_v(rv, w);
            }
        }
    }
}

fn subst_mat_expr(rm: &ResolvedM, e: &mut MatrixExpr) {
    match &mut e.kind {
        MatrixExprKind::MxM { a, b, .. }
        | MatrixExprKind::EWiseAdd { a, b, .. }
        | MatrixExprKind::EWiseMult { a, b, .. } => {
            a.store = sub_m(rm, &a.store);
            b.store = sub_m(rm, &b.store);
        }
        MatrixExprKind::Apply { a, .. } | MatrixExprKind::Extract { a, .. } => {
            a.store = sub_m(rm, &a.store)
        }
        MatrixExprKind::Transpose { a } | MatrixExprKind::Ref { a } => *a = sub_m(rm, a),
    }
}
