//! DAG rewriting: operation fusion.
//!
//! Runs once per flush as the last step of the optimization pipeline
//! ([`crate::passes::run_pipeline`]), before scheduling. Each rule
//! collapses a producer/consumer pair of nodes into a single node whose
//! expression dispatches one composite kernel, so the flush issues
//! strictly fewer JIT dispatches than blocking mode would have.
//!
//! A producer `P` may be absorbed only when its result is genuinely
//! invisible afterwards:
//!
//! * `P` is *plain* — no mask, no accumulator, no index region, and its
//!   right-hand side is an expression (its target's prior contents are
//!   fully overwritten, so skipping the materialization loses nothing);
//! * `P.out` has no owner besides `P`'s own descriptor and the consumer
//!   expression slots being rewritten — checked against the frozen
//!   external-reference counts plus structural counts taken once per
//!   pass and kept exact through its rewrites (see [`crate::dataflow`]):
//!   a user-held container handle, any other node's operand, or an
//!   alias-set entry blocks fusion. Each check reads two counts, so the
//!   pass costs `O(nodes + edges)`.
//!
//! | rule | producer            | consumer                 | rewrite                  |
//! |------|---------------------|--------------------------|--------------------------|
//! | 1    | eWise add/mult      | eWise add/mult           | `FusedEwiseChain`        |
//! | 2    | `mxv` / `vxm`       | `apply`                  | `FusedMxvApply`          |
//! | 3    | `mxv` / `vxm`       | plain `Ref` assignment   | masked/accum'd SpMV      |
//! | 4    | eWise add/mult      | `reduce`                 | [`crate::dag::reduce_vector`] |

use std::sync::Arc;

use pygb::expr::{VectorExpr, VectorExprKind};
use pygb::nb::{VecOpDesc, VecRhs};

use crate::analyze::{self, FuseCheck, NodeId};
use crate::dag::{vptr, Dag, Node};
use crate::dataflow::RefCounts;
use crate::passes::PassCtx;

/// One pass over consumers in enqueue order, attempting rules 1–3.
/// Returns the number of producers absorbed; each absorption records
/// `(producer, "fused into n<C> (rule …)")` provenance into `ctx`.
pub(crate) fn fuse_pass(dag: &mut Dag, ctx: &mut PassCtx) -> usize {
    let mut fused = 0;
    let mut refs = RefCounts::count(dag);
    for ci in 0..dag.nodes.len() {
        let candidate = matches!(
            &dag.nodes[ci],
            Some(Node::Vec(d)) if d.region.is_none() && matches!(&d.rhs, VecRhs::Expr(_))
        );
        if !candidate {
            continue;
        }
        let Some(Node::Vec(mut c)) = dag.nodes[ci].take() else {
            unreachable!("checked above");
        };
        if let Some((pid, rule)) = try_fuse_into(dag, ctx, &mut refs, &mut c) {
            fused += 1;
            let consumer = dag.ids[ci];
            ctx.note(pid, || format!("fused into {consumer} ({rule})"));
        }
        dag.nodes[ci] = Some(Node::Vec(c));
    }
    fused
}

/// Attempt to absorb one producer into consumer `c` (already detached
/// from the DAG). On success the producer node is removed from the DAG
/// and its id plus the rule label are returned for provenance.
fn try_fuse_into(
    dag: &mut Dag,
    ctx: &PassCtx,
    refs: &mut RefCounts,
    c: &mut VecOpDesc,
) -> Option<(NodeId, &'static str)> {
    let VecRhs::Expr(ce) = &c.rhs else {
        return None;
    };
    match &ce.kind {
        // Rule 1: eWise producer feeding an eWise consumer.
        VectorExprKind::EWiseAdd {
            u,
            v,
            op: Some(outer),
        }
        | VectorExprKind::EWiseMult {
            u,
            v,
            op: Some(outer),
        } => {
            let outer_add = matches!(&ce.kind, VectorExprKind::EWiseAdd { .. });
            let outer = *outer;
            // Prefer the left slot's producer; fall back to the right.
            for (slot_u, inner_left) in [(true, true), (false, false)] {
                let cand = if slot_u { u } else { v };
                let n = (vptr(u) == vptr(cand)) as usize + (vptr(v) == vptr(cand)) as usize;
                let Some((pid, p)) =
                    take_plain_producer(dag, ctx, refs, c, cand, n, &|kind: &VectorExprKind| {
                        matches!(
                            kind,
                            VectorExprKind::EWiseAdd { op: Some(_), .. }
                                | VectorExprKind::EWiseMult { op: Some(_), .. }
                        )
                    })
                else {
                    continue;
                };
                let (pu, pv, inner, inner_add) = match p {
                    VectorExprKind::EWiseAdd { u, v, op: Some(op) } => (u, v, op, true),
                    VectorExprKind::EWiseMult { u, v, op: Some(op) } => (u, v, op, false),
                    _ => unreachable!("filtered above"),
                };
                let w = if n == 2 {
                    // Square form: the inner result fed both slots.
                    None
                } else if inner_left {
                    Some(Arc::clone(v))
                } else {
                    Some(Arc::clone(u))
                };
                let kind = VectorExprKind::FusedEwiseChain {
                    u: pu,
                    v: pv,
                    w,
                    inner,
                    outer,
                    inner_add,
                    outer_add,
                    inner_left,
                };
                rewrite_rhs(refs, c, kind);
                return Some((pid, "rule 1: eWise chain"));
            }
            None
        }
        // Rule 2: `apply(mxv(...))` / `apply(vxm(...))`.
        VectorExprKind::Apply { u, op: Some(op) } => {
            let op = *op;
            let (pid, p) =
                take_plain_producer(dag, ctx, refs, c, u, 1, &|kind: &VectorExprKind| {
                    matches!(
                        kind,
                        VectorExprKind::MxV { .. } | VectorExprKind::VxM { .. }
                    )
                })?;
            let (a, pu, semiring, vxm) = match p {
                VectorExprKind::MxV { a, u, semiring } => (a, u, semiring, false),
                VectorExprKind::VxM { u, a, semiring } => (a, u, semiring, true),
                _ => unreachable!("filtered above"),
            };
            let kind = VectorExprKind::FusedMxvApply {
                a,
                u: pu,
                semiring,
                unary: Some(op),
                vxm,
            };
            rewrite_rhs(refs, c, kind);
            Some((pid, "rule 2: mxv/vxm + apply"))
        }
        // Rule 3: assigning a materialized product under the consumer's
        // mask/accumulator collapses into one masked SpMV. The rewritten
        // node carries the consumer's mask into the single dispatch, so
        // the substrate's kernel selection sees a structural mask probe
        // and picks a masked pull/push kernel — fusion upgrades the
        // unmasked product to a mask-confined one for free.
        VectorExprKind::Ref { u } => {
            let (pid, p) =
                take_plain_producer(dag, ctx, refs, c, u, 1, &|kind: &VectorExprKind| {
                    matches!(
                        kind,
                        VectorExprKind::MxV { .. } | VectorExprKind::VxM { .. }
                    )
                })?;
            rewrite_rhs(refs, c, p);
            Some((pid, "rule 3: ref collapse"))
        }
        _ => None,
    }
}

/// Replace the consumer's right-hand side with the fused `kind`,
/// keeping the structural counts exact.
fn rewrite_rhs(refs: &mut RefCounts, c: &mut VecOpDesc, kind: VectorExprKind) {
    refs.remove_vec_rhs(&c.rhs);
    c.rhs = VecRhs::Expr(VectorExpr { kind, build_ns: 0 });
    refs.add_vec_rhs(&c.rhs);
}

/// Look up the pending producer of placeholder `out` and consult the
/// aliasing analysis ([`crate::analyze::check_producer`]). When the
/// producer is a plain vector node whose expression satisfies `want`,
/// whose result is observed only by its own descriptor plus
/// `consumer_refs` slots of the (detached) consumer `c`, and the
/// rewrite is proven alias-safe, remove it from the DAG and return its
/// expression kind. A producer refused by the aliasing analysis is
/// counted and logged, and stays in the DAG.
fn take_plain_producer(
    dag: &mut Dag,
    ctx: &PassCtx,
    refs: &mut RefCounts,
    c: &VecOpDesc,
    out: &Arc<pygb::store::VectorStore>,
    consumer_refs: usize,
    want: &dyn Fn(&VectorExprKind) -> bool,
) -> Option<(NodeId, VectorExprKind)> {
    let idx = match analyze::check_producer(dag, &ctx.ext, refs, c, out, consumer_refs, want) {
        FuseCheck::Fusible(idx) => idx,
        FuseCheck::Refused(idx, reason) => {
            if !ctx.simulate {
                analyze::record_refusal(format!("producer node {}: {reason}", dag.ids[idx]));
            }
            return None;
        }
        FuseCheck::No => return None,
    };
    dag.pending.remove(&vptr(out));
    let producer = dag.nodes[idx].take();
    if let Some(n) = &producer {
        refs.remove_node(n);
    }
    match producer {
        Some(Node::Vec(d)) => match d.rhs {
            VecRhs::Expr(e) => Some((dag.ids[idx], e.kind)),
            VecRhs::Scalar(_) => unreachable!("checked by the analysis"),
        },
        _ => unreachable!("checked by the analysis"),
    }
}
