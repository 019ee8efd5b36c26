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
//! The next wave is never found by rescanning the DAG. A [`ReadySet`]
//! counts each node's pending inputs once per flush and indexes the
//! readers of every pending placeholder; a landing result decrements
//! its readers, and a node joins the next wave when its count reaches
//! zero. A flush of `N` nodes and `E` edges therefore schedules in
//! `O(N + E)`, however many waves it takes.
//!
//! The `RefCell` borrow on the DAG is never held across node
//! execution: executing a node re-enters the core dispatch layer,
//! which probes the resolution maps through the engine hooks.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use gbtl::ops::kind::KindMonoid;
use pygb::expr::{MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind};
use pygb::nb::{MatOpDesc, MatRhs, Resolution, VecOpDesc, VecRhs};
use pygb::store::{MatrixStore, VectorStore};
use pygb::{DynScalar, PygbError, Result};
use pygb_obs::Census;

use crate::analyze::NodeId;

/// Hasher for the runtime's maps, whose keys are store addresses, slot
/// indices or already-mixed fingerprints — none chosen by an adversary.
/// One multiply spreads a key over the high bits; folding them back
/// reaches the low bits a table indexes by (addresses share their low
/// bits, being aligned).
#[derive(Default, Clone, Copy)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// A map keyed by address, slot index or fingerprint.
pub(crate) type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

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
    pub(crate) pending: AddrMap<usize, usize>,
    /// Placeholder address → (keepalive placeholder, computed store).
    /// The keepalive pins the address so it cannot be reused by a new
    /// allocation while it still keys this map.
    pub(crate) resolved_v: AddrMap<usize, (Arc<VectorStore>, Arc<VectorStore>)>,
    /// Matrix analog of `resolved_v`.
    pub(crate) resolved_m: AddrMap<usize, (Arc<MatrixStore>, Arc<MatrixStore>)>,
    /// True while a flush is draining this DAG (re-entrant flushes
    /// no-op).
    pub(crate) flushing: bool,
    /// Representative placeholder address → vector placeholders that
    /// resolve to its value (populated by the optimization passes,
    /// drained as results land, cleared by flush cleanup).
    pub(crate) alias_v: AddrMap<usize, AliasSet<VectorStore>>,
    /// Matrix analog of `alias_v`.
    pub(crate) alias_m: AddrMap<usize, AliasSet<MatrixStore>>,
}

/// Resolve every aliased placeholder reachable from `start`: if an
/// alias set is keyed by a placeholder that has a computed store in the
/// resolution maps, each duplicate resolves to that same store —
/// cascading, since a duplicate may itself key a further set. Each
/// duplicate resolved is reported to `resolved`.
pub(crate) fn drain_aliases(dag: &mut Dag, start: usize, resolved: &mut dyn FnMut(usize)) {
    let mut work = vec![start];
    while let Some(p) = work.pop() {
        if let Some(set) = dag.alias_v.remove(&p) {
            match dag.resolved_v.get(&p).map(|(_, s)| Arc::clone(s)) {
                Some(store) => {
                    for dup in set.dups {
                        let dp = vptr(&dup);
                        dag.pending.remove(&dp);
                        dag.resolved_v.insert(dp, (dup, Arc::clone(&store)));
                        resolved(dp);
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
                        resolved(dp);
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

/// The flush scheduler's incremental ready set. Built once per flush,
/// after the pass pipeline, in one walk over the surviving nodes:
/// each slot counts its inputs that are still pending (one per
/// occurrence), and each pending placeholder lists the slots that read
/// it. When a placeholder resolves ([`ReadySet::resolve`]), its readers
/// lose one pending input each; a slot whose count reaches zero is
/// ready. Scheduling a flush of `N` nodes with `E` input edges costs
/// `O(N + E)` in total.
pub(crate) struct ReadySet {
    /// Per slot: inputs still pending.
    waiting: Vec<u32>,
    /// Pending placeholder address → slots reading it.
    readers: AddrMap<usize, Vec<usize>>,
    /// Slots whose count is zero and that have not been handed out.
    ready: Vec<usize>,
    /// Live slots not yet handed out.
    remaining: usize,
}

impl ReadySet {
    /// Index the DAG as it stands: live slots, their pending inputs,
    /// and the readers of every pending placeholder.
    pub(crate) fn new(dag: &Dag) -> ReadySet {
        let mut waiting = vec![0u32; dag.nodes.len()];
        let mut readers: AddrMap<usize, Vec<usize>> = AddrMap::default();
        let mut ready = Vec::new();
        let mut remaining = 0;
        for (i, n) in dag.nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            count_visits(1);
            remaining += 1;
            crate::dataflow::visit_inputs(n, &mut |p| {
                if dag.pending.contains_key(&p) {
                    waiting[i] += 1;
                    readers.entry(p).or_default().push(i);
                }
            });
            if waiting[i] == 0 {
                ready.push(i);
            }
        }
        ReadySet {
            waiting,
            readers,
            ready,
            remaining,
        }
    }

    /// Hand out the next wave: every slot ready now, in slot order.
    pub(crate) fn take_wave(&mut self) -> Vec<usize> {
        let mut wave = std::mem::take(&mut self.ready);
        wave.sort_unstable();
        self.remaining -= wave.len();
        wave
    }

    /// Placeholder `p` resolved: each slot reading it has one pending
    /// input fewer.
    pub(crate) fn resolve(&mut self, p: usize) {
        let Some(slots) = self.readers.remove(&p) else {
            return;
        };
        count_visits(slots.len());
        for i in slots {
            self.waiting[i] -= 1;
            if self.waiting[i] == 0 {
                self.ready.push(i);
            }
        }
    }

    /// Live slots not yet handed out. Nonzero with no slot ready means
    /// the remaining nodes can never run.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// The slots ready now, in slot order, without handing them out.
    #[cfg(test)]
    pub(crate) fn ready(&self) -> Vec<usize> {
        let mut r = self.ready.clone();
        r.sort_unstable();
        r
    }

    /// Hand out one ready slot (a schedule that starts the nodes of a
    /// wave one at a time). False when `i` is not ready.
    #[cfg(test)]
    pub(crate) fn take(&mut self, i: usize) -> bool {
        let Some(at) = self.ready.iter().position(|&r| r == i) else {
            return false;
        };
        self.ready.swap_remove(at);
        self.remaining -= 1;
        true
    }
}

/// The scheduler's oracle: the slots whose inputs are all resolved,
/// found by rescanning every live slot — what [`ReadySet`] must equal,
/// minus the slots it has already handed out.
#[cfg(test)]
pub(crate) fn ready_by_rescan(dag: &Dag) -> Vec<usize> {
    (0..dag.nodes.len())
        .filter(|&i| match &dag.nodes[i] {
            Some(node) => node_inputs(node)
                .iter()
                .all(|p| !dag.pending.contains_key(p)),
            None => false,
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Slots and readers visited by the scheduler and the fusion
    /// checks on this thread — the linearity tests' cost measure.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count `n` visits to DAG slots (tests only; free otherwise).
#[inline]
pub(crate) fn count_visits(n: usize) {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + n as u64));
    #[cfg(not(test))]
    let _ = n;
}

/// Visits counted on this thread so far.
#[cfg(test)]
pub(crate) fn visits() -> u64 {
    VISITS.with(|v| v.get())
}

/// Execute every node in the calling thread's DAG. No-op when empty or
/// already flushing (re-entrancy from node execution).
pub(crate) fn flush() -> Result<()> {
    let proceed = DAG.with(|d| {
        let mut dag = d.borrow_mut();
        let proceed = begin_flush(&mut dag);
        if proceed {
            prune_resolved(&mut dag);
        }
        proceed
    });
    if !proceed {
        return Ok(());
    }
    let _sp = pygb_obs::span(pygb_obs::Cat::Flush, "flush");
    // A panicking node (re-raised here by the pool) must still leave the
    // DAG reset below, or every later flush on this thread would find
    // `flushing` set and silently do nothing.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(flush_inner));
    // If a request scope tagged this flush with a request ID, make the
    // finished report retrievable cross-thread (EXPLAIN rN). No-op for
    // untagged flushes.
    crate::analyze::publish_tagged_report();
    DAG.with(|d| {
        let mut dag = d.borrow_mut();
        dag.flushing = false;
        dag.nodes.clear();
        dag.ids.clear();
        dag.next_id = 0;
        if !matches!(result, Ok(Ok(()))) {
            // Abandon whatever could not run; readers of their outputs
            // will report "unresolved" rather than see stale data.
            dag.pending.clear();
        }
        // Alias sets drain as results land; any survivors belong to
        // nodes the error path abandoned.
        dag.alias_v.clear();
        dag.alias_m.clear();
        prune_resolved(&mut dag);
    });
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Drop the resolutions whose placeholder only the map itself still
/// holds: that address has no other owner, so it can never be asked
/// for again, and the real store the entry pinned is freed. Runs when a
/// flush starts as well as when it ends, so a store whose last holder
/// let go between flushes (a container reassigned after a read) is
/// freed before the flush allocates its results.
fn prune_resolved(dag: &mut Dag) {
    dag.resolved_v
        .retain(|_, (keep, _)| Arc::strong_count(keep) > 1);
    dag.resolved_m
        .retain(|_, (keep, _)| Arc::strong_count(keep) > 1);
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
    Census::FusedOps.add(summary.fused as u64);
    Census::DceElided.add(summary.dce as u64);
    Census::CseDeduped.add(summary.cse as u64);
    Census::EmptyFolded.add(summary.sparsity as u64);
    Census::NoopFolded.add(summary.noop as u64);
    Census::LaunchesSaved.add((summary.dce + summary.cse + summary.sparsity + summary.noop) as u64);
    // Snapshot the post-rewrite DAG for trace_report() before any wave
    // removes pending edges (no-op while tracing is disabled).
    DAG.with(|d| crate::analyze::begin_report(&d.borrow(), &summary));

    // With the sparsity pass enabled, each surviving node's fact — as
    // that pass computed it, still sound after the later rewrites —
    // arms the checked interpretation on the thread that executes it.
    // Slot indices stay stable across waves, so the map survives the
    // loop.
    let mut node_facts = summary.facts.unwrap_or_default();

    // Wave jobs count into the flushing thread's scope on whichever
    // pool thread runs them.
    let scope = pygb_obs::current_scope();
    let mut ready = DAG.with(|d| ReadySet::new(&d.borrow()));
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
            let slots = ready.take_wave();
            let Dag {
                nodes,
                ids,
                resolved_v,
                resolved_m,
                ..
            } = &mut *dag;
            slots
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
            let remaining = ready.remaining();
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

        // Independent nodes of one wave execute in parallel on the
        // `gbtl` worker pool, this thread included. Operand
        // substitution already happened, so pool threads never touch
        // this thread's DAG (their own DAGs are empty).
        let jobs: Vec<_> = batch
            .into_iter()
            .map(|(i, label, node)| {
                let fact = node_facts.remove(&i).map(|nf| nf.fact);
                let scope = scope.clone();
                move || {
                    let _scope = pygb_obs::install_scope(scope);
                    let t0 = timed.then(std::time::Instant::now);
                    let sp = label.map(|l| pygb_obs::span_labeled(pygb_obs::Cat::Exec, || l));
                    // Arm the checked interpretation on the thread the
                    // node runs on; the check disarms it again, so a
                    // pool thread carries no recorded write into its
                    // next job.
                    crate::sparsity::arm_prediction();
                    let done = run_node(node);
                    drop(sp);
                    let ok = match &done {
                        Done::V(_, r) => r.is_ok(),
                        Done::M(_, r) => r.is_ok(),
                    };
                    crate::sparsity::check_prediction(fact.as_ref(), ok);
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
                        ready.resolve(p);
                        drain_aliases(&mut dag, p, &mut |q| ready.resolve(q));
                    }
                    Done::M(out, Ok(store)) => {
                        let p = mptr(&out);
                        dag.pending.remove(&p);
                        dag.resolved_m.insert(p, (out, Arc::new(store)));
                        ready.resolve(p);
                        drain_aliases(&mut dag, p, &mut |q| ready.resolve(q));
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

fn run_node(node: Node) -> Done {
    match node {
        Node::Vec(desc) => {
            let out = Arc::clone(&desc.out);
            Done::V(out, pygb::nb::run_vec_op(desc))
        }
        Node::Mat(desc) => {
            let out = Arc::clone(&desc.out);
            Done::M(out, pygb::nb::run_mat_op(desc))
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
    Census::FusedOps.inc();
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
    crate::dataflow::visit_inputs(n, &mut |p| out.push(p));
    out
}

pub(crate) type ResolvedV = AddrMap<usize, (Arc<VectorStore>, Arc<VectorStore>)>;
pub(crate) type ResolvedM = AddrMap<usize, (Arc<MatrixStore>, Arc<MatrixStore>)>;

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
