//! Plan-time sparsity & structure abstract interpretation over the
//! op-DAG.
//!
//! For every deferred node this module computes a [`Fact`] — an
//! interval `nnz ∈ [lo, hi]` plus structure flags — by interpreting
//! the DAG in enqueue order (which is topological: an operand
//! placeholder is always minted before any consumer snapshots it)
//! with the sound transfer functions of [`pygb::facts`]. The facts
//! feed four consumers:
//!
//! 1. the `sparsity` pipeline pass ([`crate::passes`]) folds nodes
//!    whose write-back fact is provably empty;
//! 2. kernel choice: when a mask's fact is tight enough to decide the
//!    masked-SpGEMM family *statically*, the node's [`KernelChoice`]
//!    says so and travels as an argument of `pygb::nb::run_mat_op` down
//!    to `pygb::kernels` — counted under `opt/static_kernel_hints`.
//!    SpMV direction is not decided here: the op-DAG runs the
//!    orientation each operand carries, exactly as a blocking dispatch
//!    does;
//! 3. [`crate::plan`] renders each node's fact next to its kernel
//!    verdict, and the analysis emits lints (provably-empty result
//!    consumed downstream, mask provably disjoint) through
//!    [`pygb::emit_lint`] so serve's `WARN` frames carry them;
//! 4. the checked interpretation: every executed node's concrete
//!    `nvals` is compared against its predicted interval via the
//!    `gbtl` fact-checker hook (`opt/fact_misses`, debug-asserted).
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
use pygb::facts::{self, Fact, KernelChoice};
use pygb::nb::{MatOpDesc, MatRhs, VecOpDesc, VecRhs};
use pygb::store::{MatrixStore, VectorStore};
use std::sync::Arc;

use crate::dag::{mptr, vptr, AddrMap, Dag, Node};
use crate::dataflow::{mat_rhs_ops_present, node_out_ptr, vec_rhs_ops_present, visit_inputs};

// ---------------------------------------------------------------------
// Per-node analysis results.
// ---------------------------------------------------------------------

/// The analysis verdict for one DAG node: its write-back fact plus any
/// kernel choice the fact was tight enough to justify.
#[derive(Debug, Clone)]
pub(crate) struct NodeFacts {
    /// The abstract fact describing the node's output container after
    /// mask/accumulate/replace write-back.
    pub(crate) fact: Fact,
    /// Statically decided kernel: the masked-SpGEMM family when a
    /// matrix node's mask density interval is decisive.
    pub(crate) choice: KernelChoice,
}

/// The whole-DAG analysis: slot index → [`NodeFacts`] for every live
/// node.
pub(crate) struct Analysis {
    /// Facts keyed by DAG slot index (stable across scheduling waves).
    pub(crate) facts: AddrMap<usize, NodeFacts>,
}

// ---------------------------------------------------------------------
// Operand fact resolution.
// ---------------------------------------------------------------------

/// Facts for placeholder addresses computed earlier in this walk.
struct Env {
    vec: AddrMap<usize, Fact>,
    mat: AddrMap<usize, Fact>,
}

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

fn vec_node_fact(dag: &Dag, env: &Env, d: &VecOpDesc) -> Fact {
    let dim = d.out.size();
    if d.region.is_some() {
        // Region-indexed assigns scatter into a sub-selection; model ⊤.
        return Fact::top(dim);
    }
    let t = match &d.rhs {
        VecRhs::Scalar(_) => facts::full_iso(dim),
        VecRhs::Expr(e) if vec_rhs_ops_present(&d.rhs) => vec_expr_fact(dag, env, e),
        VecRhs::Expr(_) => Fact::top(dim),
    };
    let target = vec_fact(dag, env, &d.target);
    let mask = d.mask.as_ref().map(|(m, c)| (vec_fact(dag, env, m), *c));
    facts::write_back(
        &t,
        &target,
        mask.as_ref().map(|(f, c)| (f, *c)),
        d.accum.is_some(),
        d.replace,
    )
}

fn mat_node_fact(dag: &Dag, env: &Env, d: &MatOpDesc) -> Fact {
    let dim = d.out.nrows().saturating_mul(d.out.ncols());
    if d.region.is_some() {
        return Fact::top(dim);
    }
    let t = match &d.rhs {
        MatRhs::Scalar(_) => facts::full_iso(dim),
        MatRhs::Expr(e) if mat_rhs_ops_present(&d.rhs) => mat_expr_fact(dag, env, e),
        MatRhs::Expr(_) => Fact::top(dim),
    };
    let target = mat_fact(dag, env, &d.target);
    let mask = d.mask.as_ref().map(|(m, c)| (mat_fact(dag, env, m), *c));
    facts::write_back(
        &t,
        &target,
        mask.as_ref().map(|(f, c)| (f, *c)),
        d.accum.is_some(),
        d.replace,
    )
}

// ---------------------------------------------------------------------
// Kernel hints from tight facts.
// ---------------------------------------------------------------------

/// Statically decide the masked-SpGEMM family from the mask's density
/// interval: a provably sparse mask favors the mask-driven dot kernel,
/// a provably dense one the Gustavson row kernel. The push/pull
/// threshold doubles as the density cutover here.
fn mat_node_mxm_hint(dag: &Dag, env: &Env, d: &MatOpDesc) -> Option<facts::MxmFamily> {
    if d.region.is_some() || d.mask.is_none() {
        return None;
    }
    let MatRhs::Expr(e) = &d.rhs else { return None };
    if !matches!(&e.kind, MatrixExprKind::MxM { .. }) {
        return None;
    }
    let (m, complemented) = d.mask.as_ref().expect("checked above");
    if *complemented {
        // The dot kernel iterates the mask pattern directly; a
        // complemented mask has no usable pattern to drive it.
        return None;
    }
    let mf = mat_fact(dag, env, m);
    let thr = gbtl::push_pull_density();
    if mf.density_hi() < thr {
        Some(facts::MxmFamily::MaskedDot)
    } else if mf.density_lo() >= thr {
        Some(facts::MxmFamily::MaskedGustavson)
    } else {
        None
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
    let mut env = Env {
        vec: AddrMap::default(),
        mat: AddrMap::default(),
    };
    let mut out = Analysis {
        facts: AddrMap::default(),
    };
    for (i, node) in dag.nodes.iter().enumerate() {
        let Some(node) = node else { continue };
        let nf = match node {
            Node::Vec(d) => {
                let fact = vec_node_fact(dag, &env, d);
                env.vec.insert(vptr(&d.out), fact);
                NodeFacts {
                    fact,
                    choice: KernelChoice::default(),
                }
            }
            Node::Mat(d) => {
                let fact = mat_node_fact(dag, &env, d);
                let mxm = mat_node_mxm_hint(dag, &env, d);
                env.mat.insert(mptr(&d.out), fact);
                NodeFacts {
                    fact,
                    choice: KernelChoice { mxm },
                }
            }
        };
        out.facts.insert(i, nf);
    }
    if emit_lints {
        emit_structure_lints(dag, &out, &env);
    }
    out
}

/// Render a node's facts for the `plan()` view: the fact interval plus
/// any statically decided kernel hint.
pub(crate) fn render_facts(nf: &NodeFacts) -> String {
    let mut s = nf.fact.to_string();
    if let Some(fam) = nf.choice.mxm {
        s.push_str(match fam {
            facts::MxmFamily::MaskedDot => " hint=dot",
            facts::MxmFamily::MaskedGustavson => " hint=gustavson",
        });
    }
    s
}

// ---------------------------------------------------------------------
// Lints.
// ---------------------------------------------------------------------

fn emit_structure_lints(dag: &Dag, analysis: &Analysis, env: &Env) {
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
            Node::Vec(d) => d.mask.as_ref().map(|(m, c)| (vec_fact(dag, env, m), *c)),
            Node::Mat(d) => d.mask.as_ref().map(|(m, c)| (mat_fact(dag, env, m), *c)),
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
/// visible. A node without facts (`nf` is `None`) only disarms.
pub(crate) fn check_prediction(nf: Option<&NodeFacts>, kernel_ok: bool) {
    let Some((nvals, dim)) = LAST_WRITE.with(|c| c.take()) else {
        return;
    };
    let Some(nf) = nf else {
        return;
    };
    // A fused kernel's last write can be an intermediate of a different
    // shape when the final write errored; only compare same-extent
    // writes of successful nodes.
    if !kernel_ok || dim != nf.fact.dim {
        return;
    }
    if !nf.fact.admits(nvals) {
        pygb_obs::Census::FactMisses.inc();
        debug_assert!(
            false,
            "sparsity fact miss: concrete nvals {nvals} outside predicted {} (dim {dim})",
            nf.fact
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
        let nf = NodeFacts {
            fact: Fact::exact(3, 10),
            choice: KernelChoice::default(),
        };
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
        let nf = NodeFacts {
            fact: Fact::exact(3, 10),
            choice: KernelChoice::default(),
        };
        arm_prediction();
        record_write(9, 10);
        check_prediction(Some(&nf), true);
    }

    #[test]
    fn render_facts_includes_hints() {
        let nf = NodeFacts {
            fact: Fact::exact(0, 5),
            choice: KernelChoice {
                mxm: Some(facts::MxmFamily::MaskedDot),
            },
        };
        let s = render_facts(&nf);
        assert!(s.contains("nnz=[0,0]"), "got: {s}");
        assert!(s.ends_with("hint=dot"), "got: {s}");
    }
}
