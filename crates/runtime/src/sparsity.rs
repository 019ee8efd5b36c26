//! Plan-time sparsity & structure abstract interpretation over the
//! op-DAG.
//!
//! For every deferred node this module computes a [`Fact`] — an
//! interval `nnz ∈ [lo, hi]` plus structure flags — by interpreting
//! the DAG in enqueue order (which is topological: an operand
//! placeholder is always minted before any consumer snapshots it)
//! with the sound transfer functions of [`pygb::facts`]. It is the
//! only plan-time analysis; its facts feed four consumers:
//!
//! 1. the `sparsity` pipeline pass ([`crate::passes`]) folds nodes
//!    whose write-back fact is provably empty;
//! 2. the `noop` pipeline pass reads operand, mask and right-hand-side
//!    emptiness from the same [`Analysis`] to fold nodes into aliases
//!    of another container's value;
//! 3. [`crate::plan`] renders each node's fact next to its kernel
//!    verdict, and the analysis emits lints (provably-empty result
//!    consumed downstream, mask provably disjoint) through
//!    [`pygb::emit_lint`] so serve's `WARN` frames carry them;
//! 4. the checked interpretation: every executed node's concrete
//!    `nvals` is compared against its predicted interval via the
//!    `gbtl` fact-checker hook (`opt/fact_misses`, debug-asserted).
//!
//! No kernel is chosen here: a deferred node runs the kernel `gbtl`
//! picks for its operands, exactly as a blocking dispatch does.
//!
//! ## Soundness argument
//!
//! Operand facts come from three sources, each exact or conservative:
//! a *clean* handle's store is inspected directly (exact `nvals`); a
//! *resolved* placeholder consults the computed store (exact); a
//! *pending* placeholder takes the fact this same walk computed for
//! its producer (sound by induction — the producer's transfer
//! functions are proven sound in `pygb::facts`), or ⊤ when no
//! producer is found. Region-indexed assigns degrade to ⊤ wholesale.
//! Dtype casts inserted by the dispatch layer preserve `nvals`
//! (stored entries are value-mapped, never dropped), so facts survive
//! them unchanged.

use pygb::expr::{MatOperand, MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind};
use pygb::facts::{self, Fact};
use pygb::nb::{MatOpDesc, MatRhs, VecOpDesc, VecRhs};
use pygb::store::{MatrixStore, VectorStore};
use std::sync::Arc;

use crate::dag::{mptr, vptr, AddrMap, Dag, Node};
use crate::dataflow::{mat_rhs_ops_present, node_out_ptr, vec_rhs_ops_present, visit_inputs};

// ---------------------------------------------------------------------
// Per-node analysis results.
// ---------------------------------------------------------------------

/// The analysis verdict for one DAG node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeFacts {
    /// The abstract fact describing the node's output container after
    /// mask/accumulate/replace write-back.
    pub(crate) fact: Fact,
    /// The fact of the value the node computes before write-back (⊤
    /// for region assigns and for nodes missing an operator).
    pub(crate) rhs: Fact,
}

/// The whole-DAG analysis: slot index → [`NodeFacts`] for every live
/// node, plus the fact of every placeholder those nodes write, so a
/// pass can ask for the fact of any store handle a node reads.
pub(crate) struct Analysis {
    /// Facts keyed by DAG slot index (stable across scheduling waves).
    pub(crate) facts: AddrMap<usize, NodeFacts>,
    env: Env,
}

impl Analysis {
    /// The fact of a vector handle as a node reads it (see
    /// [`vec_fact`]).
    pub(crate) fn vec(&self, dag: &Dag, v: &Arc<VectorStore>) -> Fact {
        vec_fact(dag, &self.env, v)
    }

    /// Matrix analog of [`Analysis::vec`].
    pub(crate) fn mat(&self, dag: &Dag, m: &Arc<MatrixStore>) -> Fact {
        mat_fact(dag, &self.env, m)
    }
}

// ---------------------------------------------------------------------
// Operand fact resolution.
// ---------------------------------------------------------------------

/// Facts for placeholder addresses computed earlier in this walk.
struct Env {
    vec: AddrMap<usize, Fact>,
    mat: AddrMap<usize, Fact>,
}

/// A placeholder this walk computed takes its producer's fact; a
/// resolved one or a clean handle is inspected exactly; any other
/// pending placeholder is ⊤.
fn vec_fact(dag: &Dag, env: &Env, v: &Arc<VectorStore>) -> Fact {
    let p = vptr(v);
    if let Some(f) = env.vec.get(&p) {
        return *f;
    }
    if let Some((_, s)) = dag.resolved_v.get(&p) {
        return facts::of_vector(s);
    }
    if dag.pending.contains_key(&p) {
        // A pending placeholder whose producer this walk has not seen
        // (e.g. an alias duplicate): unknown.
        return Fact::top(v.size());
    }
    facts::of_vector(v)
}

fn mat_fact(dag: &Dag, env: &Env, m: &Arc<MatrixStore>) -> Fact {
    let p = mptr(m);
    if let Some(f) = env.mat.get(&p) {
        return *f;
    }
    if let Some((_, s)) = dag.resolved_m.get(&p) {
        return facts::of_matrix(s);
    }
    if dag.pending.contains_key(&p) {
        return Fact::top(m.nrows().saturating_mul(m.ncols()));
    }
    facts::of_matrix(m)
}

/// Fact of a matrix operand in its *logical* orientation. Transposition
/// permutes the pattern without changing nnz, so the fact carries over
/// ([`facts::transpose`] is the identity on intervals).
fn operand_fact(dag: &Dag, env: &Env, a: &MatOperand) -> Fact {
    let f = mat_fact(dag, env, &a.store);
    if a.transposed {
        facts::transpose(&f, a.nrows(), a.ncols())
    } else {
        f
    }
}

// ---------------------------------------------------------------------
// Expression transfer functions.
// ---------------------------------------------------------------------

fn vec_expr_fact(dag: &Dag, env: &Env, e: &VectorExpr) -> Fact {
    match &e.kind {
        VectorExprKind::MxV { a, u, .. } => facts::mxv(
            &operand_fact(dag, env, a),
            a.nrows(),
            &vec_fact(dag, env, u),
        ),
        VectorExprKind::VxM { u, a, .. } => facts::vxm(
            &vec_fact(dag, env, u),
            &operand_fact(dag, env, a),
            a.ncols(),
        ),
        VectorExprKind::EWiseAdd { u, v, .. } => {
            facts::ewise_add(&vec_fact(dag, env, u), &vec_fact(dag, env, v))
        }
        VectorExprKind::EWiseMult { u, v, .. } => {
            facts::ewise_mult(&vec_fact(dag, env, u), &vec_fact(dag, env, v))
        }
        VectorExprKind::Apply { u, .. } => facts::apply(&vec_fact(dag, env, u)),
        VectorExprKind::Extract { u, ix } => {
            facts::extract(&vec_fact(dag, env, u), ix.len(u.size()))
        }
        VectorExprKind::ReduceRows { a, .. } => {
            facts::reduce_rows(&operand_fact(dag, env, a), a.nrows(), a.ncols())
        }
        VectorExprKind::Ref { u } => vec_fact(dag, env, u),
        VectorExprKind::FusedMxvApply { a, u, vxm, .. } => {
            let af = operand_fact(dag, env, a);
            let uf = vec_fact(dag, env, u);
            let prod = if *vxm {
                facts::vxm(&uf, &af, a.ncols())
            } else {
                facts::mxv(&af, a.nrows(), &uf)
            };
            facts::apply(&prod)
        }
        VectorExprKind::FusedEwiseChain {
            u,
            v,
            w,
            inner_add,
            outer_add,
            ..
        } => {
            let uf = vec_fact(dag, env, u);
            let vf = vec_fact(dag, env, v);
            let t = if *inner_add {
                facts::ewise_add(&uf, &vf)
            } else {
                facts::ewise_mult(&uf, &vf)
            };
            // Structure bounds are symmetric in operand order, so
            // `inner_left` does not matter here.
            let wf = match w {
                Some(w) => vec_fact(dag, env, w),
                None => t,
            };
            if *outer_add {
                facts::ewise_add(&t, &wf)
            } else {
                facts::ewise_mult(&t, &wf)
            }
        }
    }
}

fn mat_expr_fact(dag: &Dag, env: &Env, e: &MatrixExpr) -> Fact {
    match &e.kind {
        MatrixExprKind::MxM { a, b, .. } => facts::mxm(
            &operand_fact(dag, env, a),
            &operand_fact(dag, env, b),
            a.nrows(),
            b.ncols(),
            a.ncols(),
        ),
        MatrixExprKind::EWiseAdd { a, b, .. } => {
            facts::ewise_add(&operand_fact(dag, env, a), &operand_fact(dag, env, b))
        }
        MatrixExprKind::EWiseMult { a, b, .. } => {
            facts::ewise_mult(&operand_fact(dag, env, a), &operand_fact(dag, env, b))
        }
        MatrixExprKind::Apply { a, .. } => facts::apply(&operand_fact(dag, env, a)),
        MatrixExprKind::Transpose { a } => {
            let f = mat_fact(dag, env, a);
            facts::transpose(&f, a.ncols(), a.nrows())
        }
        MatrixExprKind::Extract { a, rows, cols } => {
            let k = rows.len(a.nrows()).saturating_mul(cols.len(a.ncols()));
            facts::extract(&operand_fact(dag, env, a), k)
        }
        MatrixExprKind::Ref { a } => mat_fact(dag, env, a),
    }
}

// ---------------------------------------------------------------------
// Node facts: expression transfer + write-back.
// ---------------------------------------------------------------------

fn vec_node_fact(dag: &Dag, env: &Env, d: &VecOpDesc) -> NodeFacts {
    let dim = d.out.size();
    if d.region.is_some() {
        // Region-indexed assigns scatter into a sub-selection; model ⊤.
        return NodeFacts::top(dim);
    }
    let rhs = match &d.rhs {
        VecRhs::Scalar(_) => facts::full_iso(dim),
        VecRhs::Expr(e) if vec_rhs_ops_present(&d.rhs) => vec_expr_fact(dag, env, e),
        VecRhs::Expr(_) => Fact::top(dim),
    };
    let target = vec_fact(dag, env, &d.target);
    let mask = d.mask.as_ref().map(|(m, c)| (vec_fact(dag, env, m), *c));
    let fact = facts::write_back(
        &rhs,
        &target,
        mask.as_ref().map(|(f, c)| (f, *c)),
        d.accum.is_some(),
        d.replace,
    );
    NodeFacts { fact, rhs }
}

fn mat_node_fact(dag: &Dag, env: &Env, d: &MatOpDesc) -> NodeFacts {
    let dim = d.out.nrows().saturating_mul(d.out.ncols());
    if d.region.is_some() {
        return NodeFacts::top(dim);
    }
    let rhs = match &d.rhs {
        MatRhs::Scalar(_) => facts::full_iso(dim),
        MatRhs::Expr(e) if mat_rhs_ops_present(&d.rhs) => mat_expr_fact(dag, env, e),
        MatRhs::Expr(_) => Fact::top(dim),
    };
    let target = mat_fact(dag, env, &d.target);
    let mask = d.mask.as_ref().map(|(m, c)| (mat_fact(dag, env, m), *c));
    let fact = facts::write_back(
        &rhs,
        &target,
        mask.as_ref().map(|(f, c)| (f, *c)),
        d.accum.is_some(),
        d.replace,
    );
    NodeFacts { fact, rhs }
}

impl NodeFacts {
    fn top(dim: usize) -> NodeFacts {
        NodeFacts {
            fact: Fact::top(dim),
            rhs: Fact::top(dim),
        }
    }
}

// ---------------------------------------------------------------------
// The analysis walk.
// ---------------------------------------------------------------------

/// Interpret the whole DAG abstractly, in slot order (topological).
/// With `emit_lints` set (real flushes only — `plan()`'s read-only
/// assessment must not double-report), structure diagnostics are
/// pushed through [`pygb::emit_lint`] for the analyzer wire protocol.
pub(crate) fn analyze(dag: &Dag, emit_lints: bool) -> Analysis {
    let mut out = Analysis {
        facts: AddrMap::default(),
        env: Env {
            vec: AddrMap::default(),
            mat: AddrMap::default(),
        },
    };
    for (i, node) in dag.nodes.iter().enumerate() {
        let Some(node) = node else { continue };
        let nf = match node {
            Node::Vec(d) => {
                let nf = vec_node_fact(dag, &out.env, d);
                out.env.vec.insert(vptr(&d.out), nf.fact);
                nf
            }
            Node::Mat(d) => {
                let nf = mat_node_fact(dag, &out.env, d);
                out.env.mat.insert(mptr(&d.out), nf.fact);
                nf
            }
        };
        out.facts.insert(i, nf);
    }
    if emit_lints {
        emit_structure_lints(dag, &out);
    }
    out
}

// ---------------------------------------------------------------------
// Lints.
// ---------------------------------------------------------------------

fn emit_structure_lints(dag: &Dag, analysis: &Analysis) {
    // Placeholder → first node reading it, indexed once and only when
    // some result is provably empty.
    let mut first_reader: Option<AddrMap<usize, usize>> = None;
    for (i, node) in dag.nodes.iter().enumerate() {
        let Some(node) = node else { continue };
        let Some(nf) = analysis.facts.get(&i) else {
            continue;
        };
        // Lint 1: a provably-empty result consumed downstream — the
        // consumer does real work against a container that can never
        // hold an entry.
        if nf.fact.provably_empty() {
            let readers = first_reader.get_or_insert_with(|| {
                let mut readers = AddrMap::default();
                for (j, n) in dag.nodes.iter().enumerate() {
                    if let Some(n) = n {
                        visit_inputs(n, &mut |p| {
                            readers.entry(p).or_insert(j);
                        });
                    }
                }
                readers
            });
            let consumer = readers.get(&node_out_ptr(node)).filter(|&&j| j != i);
            if let Some(&j) = consumer {
                pygb::emit_lint(format!(
                    "sparsity: {} result is provably empty but {} consumes it",
                    dag.ids[i], dag.ids[j]
                ));
            }
        }
        // Lint 2: a mask provably disjoint from every write — either a
        // provably-empty structural mask, or a provably-full
        // complemented one (its complement admits nothing).
        let mask = match node {
            Node::Vec(d) => d.mask.as_ref().map(|(m, c)| (analysis.vec(dag, m), *c)),
            Node::Mat(d) => d.mask.as_ref().map(|(m, c)| (analysis.mat(dag, m), *c)),
        };
        if let Some((mf, complemented)) = mask {
            let disjoint = if complemented {
                mf.provably_full()
            } else {
                mf.provably_empty()
            };
            if disjoint {
                pygb::emit_lint(format!(
                    "sparsity: {} mask is provably disjoint from the operand \
                     pattern (no write can land)",
                    dag.ids[i]
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checked interpretation: the debug-mode fact checker.
// ---------------------------------------------------------------------

thread_local! {
    /// The (nvals, logical dim) of the most recent container write the
    /// `gbtl` finalize funnel reported on this thread. Record-last: a
    /// fused kernel's intermediate writes are overwritten by the final
    /// one, which is the write the node's fact describes.
    static LAST_WRITE: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// The `gbtl` fact-checker hook: remember the write so
/// [`check_prediction`] can compare it against the node's fact.
pub(crate) fn record_write(nvals: usize, dim: usize) {
    LAST_WRITE.with(|c| c.set(Some((nvals, dim))));
}

/// Arm a node's prediction on the executing thread, just before its
/// kernel dispatches: clear the write recorder.
pub(crate) fn arm_prediction() {
    LAST_WRITE.with(|c| c.set(None));
}

/// Check a node's prediction after its kernel ran: the recorded
/// concrete `nvals` must lie inside the fact's interval (`γ`
/// membership). A miss bumps `opt/fact_misses` and debug-asserts —
/// release builds keep running with the sound-but-wrong counter
/// visible. A node without a fact (`fact` is `None`) only disarms.
pub(crate) fn check_prediction(fact: Option<&Fact>, kernel_ok: bool) {
    let Some((nvals, dim)) = LAST_WRITE.with(|c| c.take()) else {
        return;
    };
    let Some(fact) = fact else {
        return;
    };
    // A fused kernel's last write can be an intermediate of a different
    // shape when the final write errored; only compare same-extent
    // writes of successful nodes.
    if !kernel_ok || dim != fact.dim {
        return;
    }
    if !fact.admits(nvals) {
        pygb_obs::Census::FactMisses.inc();
        debug_assert!(
            false,
            "sparsity fact miss: concrete nvals {nvals} outside predicted {fact} (dim {dim})"
        );
    }
}

/// Whether this thread holds a recorded write no check has consumed.
#[cfg(test)]
pub(crate) fn write_recorded() -> bool {
    LAST_WRITE.with(|c| c.get().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_checker_flags_interval_violations() {
        let nf = Fact::exact(3, 10);
        arm_prediction();
        // No write recorded: silently passes.
        check_prediction(Some(&nf), true);
        // In-interval write: passes.
        arm_prediction();
        record_write(3, 10);
        check_prediction(Some(&nf), true);
        // Mismatched dim (fused intermediate): skipped.
        arm_prediction();
        record_write(7, 4);
        check_prediction(Some(&nf), true);
        // Failed kernel: skipped even with a recorded write.
        arm_prediction();
        record_write(9, 10);
        check_prediction(Some(&nf), false);
        // A node without facts still disarms the recorder.
        arm_prediction();
        record_write(9, 10);
        check_prediction(None, true);
        assert!(!write_recorded());
    }

    #[test]
    #[should_panic(expected = "sparsity fact miss")]
    #[cfg(debug_assertions)]
    fn prediction_checker_asserts_on_miss() {
        let nf = Fact::exact(3, 10);
        arm_prediction();
        record_write(9, 10);
        check_prediction(Some(&nf), true);
    }
}
