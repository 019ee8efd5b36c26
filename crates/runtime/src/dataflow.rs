//! Dataflow facts over the deferred op-DAG — the analysis substrate the
//! optimization passes ([`crate::passes`]) and the fusion legality check
//! ([`crate::analyze::check_producer`]) share.
//!
//! ## External-reference accounting
//!
//! Every placeholder in the DAG is named by the `Arc` address of the
//! store minted at enqueue. `Arc::strong_count` on such a placeholder
//! counts three kinds of owner:
//!
//! 1. *internal* references — fields of live node descriptors (their own
//!    `out`, another node's operand/mask/target) plus alias-set entries;
//! 2. *external* references — user-held container handles;
//! 3. nothing else: resolution-map keepalives never hold a *live* node's
//!    placeholder (a placeholder is only inserted there after its
//!    producer left the DAG, and the keepalive pins the address against
//!    reuse).
//!
//! So `external(p) = strong_count(p) − mult × internal(p)`, where
//! `internal(p)` is a structural scan of the DAG and `mult` is how many
//! copies of each descriptor exist: 1 during a real flush, 2 when a
//! pass pipeline runs on a `Dag::clone` (the plan/explain simulation —
//! cloning duplicates every descriptor-held `Arc` exactly once).
//!
//! [`ExtRefs::freeze`] computes this once, at pipeline start. External
//! counts cannot change mid-pipeline (the flushing thread owns the DAG
//! and user code is not running), but *internal* counts change with
//! every rewrite — so the fusion pass combines the frozen external
//! counts with structural counts ([`RefCounts`]) taken once when it
//! starts and updated by each of its rewrites, and never reads
//! `Arc::strong_count` again. Reading it again would be unsound in the
//! simulation: rewrites mutate the clone's descriptors, skewing the
//! shared strong counts asymmetrically.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pygb::expr::{MatrixExpr, MatrixExprKind, VectorExpr, VectorExprKind};
use pygb::nb::{MatOpDesc, MatRhs, VecOpDesc, VecRhs};

use crate::dag::{mptr, vptr, AddrMap, Dag, Node};

/// The placeholder address a node writes.
pub(crate) fn node_out_ptr(n: &Node) -> usize {
    match n {
        Node::Vec(d) => vptr(&d.out),
        Node::Mat(d) => mptr(&d.out),
    }
}

// ---------------------------------------------------------------------
// Descriptor walking: every Arc a descriptor holds besides its `out`.
// ---------------------------------------------------------------------

fn visit_vec_expr(e: &VectorExpr, f: &mut dyn FnMut(usize)) {
    match &e.kind {
        VectorExprKind::MxV { a, u, .. } | VectorExprKind::FusedMxvApply { a, u, .. } => {
            f(mptr(&a.store));
            f(vptr(u));
        }
        VectorExprKind::VxM { u, a, .. } => {
            f(vptr(u));
            f(mptr(&a.store));
        }
        VectorExprKind::EWiseAdd { u, v, .. } | VectorExprKind::EWiseMult { u, v, .. } => {
            f(vptr(u));
            f(vptr(v));
        }
        VectorExprKind::Apply { u, .. }
        | VectorExprKind::Extract { u, .. }
        | VectorExprKind::Ref { u } => f(vptr(u)),
        VectorExprKind::ReduceRows { a, .. } => f(mptr(&a.store)),
        VectorExprKind::FusedEwiseChain { u, v, w, .. } => {
            f(vptr(u));
            f(vptr(v));
            if let Some(w) = w {
                f(vptr(w));
            }
        }
    }
}

fn visit_mat_expr(e: &MatrixExpr, f: &mut dyn FnMut(usize)) {
    match &e.kind {
        MatrixExprKind::MxM { a, b, .. }
        | MatrixExprKind::EWiseAdd { a, b, .. }
        | MatrixExprKind::EWiseMult { a, b, .. } => {
            f(mptr(&a.store));
            f(mptr(&b.store));
        }
        MatrixExprKind::Apply { a, .. } | MatrixExprKind::Extract { a, .. } => f(mptr(&a.store)),
        MatrixExprKind::Transpose { a } | MatrixExprKind::Ref { a } => f(mptr(a)),
    }
}

/// Visit every Arc address a vector descriptor holds except its `out`:
/// merge-base target, mask, and expression operands.
pub(crate) fn visit_vec_desc(d: &VecOpDesc, f: &mut dyn FnMut(usize)) {
    f(vptr(&d.target));
    if let Some((m, _)) = &d.mask {
        f(vptr(m));
    }
    if let VecRhs::Expr(e) = &d.rhs {
        visit_vec_expr(e, f);
    }
}

/// Matrix analog of [`visit_vec_desc`].
pub(crate) fn visit_mat_desc(d: &MatOpDesc, f: &mut dyn FnMut(usize)) {
    f(mptr(&d.target));
    if let Some((m, _)) = &d.mask {
        f(mptr(m));
    }
    if let MatRhs::Expr(e) = &d.rhs {
        visit_mat_expr(e, f);
    }
}

/// Visit every store address a node reads: merge-base target, mask,
/// and expression operands.
pub(crate) fn visit_inputs(n: &Node, f: &mut dyn FnMut(usize)) {
    visit_node(n, false, f);
}

fn visit_node(n: &Node, include_out: bool, f: &mut dyn FnMut(usize)) {
    match n {
        Node::Vec(d) => {
            if include_out {
                f(vptr(&d.out));
            }
            visit_vec_desc(d, f);
        }
        Node::Mat(d) => {
            if include_out {
                f(mptr(&d.out));
            }
            visit_mat_desc(d, f);
        }
    }
}

fn visit_aliases(dag: &Dag, f: &mut dyn FnMut(usize)) {
    for set in dag.alias_v.values() {
        f(vptr(&set.rep));
        for dup in &set.dups {
            f(vptr(dup));
        }
    }
    for set in dag.alias_m.values() {
        f(mptr(&set.rep));
        for dup in &set.dups {
            f(mptr(dup));
        }
    }
}

// ---------------------------------------------------------------------
// Frozen external-reference counts.
// ---------------------------------------------------------------------

/// External (user-handle) reference counts per placeholder, frozen at
/// pipeline start — see the module docs for why they are computed once
/// and why `mult` exists.
pub(crate) struct ExtRefs {
    map: AddrMap<usize, usize>,
}

impl ExtRefs {
    /// Compute the external count of every live node's output
    /// placeholder. `mult` is 1 for a real flush, 2 when the pipeline
    /// runs on a `Dag::clone`.
    pub(crate) fn freeze(dag: &Dag, mult: usize) -> ExtRefs {
        let internal = RefCounts::count(dag);
        let map = dag
            .nodes
            .iter()
            .flatten()
            .map(|n| {
                let (p, strong) = match n {
                    Node::Vec(d) => (vptr(&d.out), Arc::strong_count(&d.out)),
                    Node::Mat(d) => (mptr(&d.out), Arc::strong_count(&d.out)),
                };
                (p, strong.saturating_sub(mult * internal.get(p)))
            })
            .collect();
        ExtRefs { map }
    }

    /// External references to placeholder `p`. Addresses unknown at
    /// freeze time are reported as externally held (conservative: that
    /// blocks rewrites, never legalizes one).
    pub(crate) fn get(&self, p: usize) -> usize {
        self.map.get(&p).copied().unwrap_or(usize::MAX)
    }
}

/// Structural reference counts per placeholder: every occurrence in
/// any live descriptor (producers' own `out` fields included) plus
/// alias-set entries. Taken in one walk; a rewrite keeps the counts
/// exact by removing what it drops ([`RefCounts::remove_node`],
/// [`RefCounts::remove_vec_rhs`]) and adding what it builds.
pub(crate) struct RefCounts {
    map: AddrMap<usize, usize>,
}

impl RefCounts {
    /// Count every reference the DAG holds now.
    pub(crate) fn count(dag: &Dag) -> RefCounts {
        let mut map: AddrMap<usize, usize> = AddrMap::default();
        let mut bump = |p: usize| *map.entry(p).or_insert(0) += 1;
        for n in dag.nodes.iter().flatten() {
            crate::dag::count_visits(1);
            visit_node(n, true, &mut bump);
        }
        visit_aliases(dag, &mut bump);
        RefCounts { map }
    }

    /// References to placeholder `p`.
    pub(crate) fn get(&self, p: usize) -> usize {
        crate::dag::count_visits(1);
        self.map.get(&p).copied().unwrap_or(0)
    }

    fn sub(&mut self, p: usize) {
        if let Some(c) = self.map.get_mut(&p) {
            *c -= 1;
        }
    }

    /// Drop the references of a node leaving the DAG.
    pub(crate) fn remove_node(&mut self, n: &Node) {
        visit_node(n, true, &mut |p| self.sub(p));
    }

    /// Drop the references of a right-hand side being replaced.
    pub(crate) fn remove_vec_rhs(&mut self, rhs: &VecRhs) {
        if let VecRhs::Expr(e) = rhs {
            visit_vec_expr(e, &mut |p| self.sub(p));
        }
    }

    /// Add the references of a right-hand side just built.
    pub(crate) fn add_vec_rhs(&mut self, rhs: &VecRhs) {
        if let VecRhs::Expr(e) = rhs {
            visit_vec_expr(e, &mut |p| *self.map.entry(p).or_insert(0) += 1);
        }
    }
}

/// How many references to placeholder `p` one vector descriptor holds
/// outside its own `out` field (target + mask + expression operands).
pub(crate) fn vec_desc_ref_count(d: &VecOpDesc, p: usize) -> usize {
    let mut count = 0usize;
    visit_vec_desc(d, &mut |q| {
        if q == p {
            count += 1;
        }
    });
    count
}

// ---------------------------------------------------------------------
// Liveness: which placeholders have at least one *reading* use.
// ---------------------------------------------------------------------

/// Visit every *live* (reading) use a node makes: expression operands,
/// the mask, and the merge-base target of a node that does NOT fully
/// overwrite it. A full-overwrite target is a *dead* use: the node
/// never reads the prior contents, so the producer of those contents
/// is prunable.
pub(crate) fn visit_live_uses(n: &Node, f: &mut dyn FnMut(usize)) {
    match n {
        Node::Vec(d) => {
            if !d.overwrites_fully() {
                f(vptr(&d.target));
            }
            if let Some((m, _)) = &d.mask {
                f(vptr(m));
            }
            if let VecRhs::Expr(e) = &d.rhs {
                visit_vec_expr(e, f);
            }
        }
        Node::Mat(d) => {
            if !d.overwrites_fully() {
                f(mptr(&d.target));
            }
            if let Some((m, _)) = &d.mask {
                f(mptr(m));
            }
            if let MatRhs::Expr(e) = &d.rhs {
                visit_mat_expr(e, f);
            }
        }
    }
}

/// Live uses per placeholder address, counted with multiplicity over
/// every live node ([`visit_live_uses`]). An alias-set representative
/// counts one more use that never goes away: merged duplicates resolve
/// through it.
pub(crate) fn live_use_counts(dag: &Dag) -> AddrMap<usize, usize> {
    let mut uses: AddrMap<usize, usize> = AddrMap::default();
    let mut bump = |p: usize| *uses.entry(p).or_insert(0) += 1;
    for n in dag.nodes.iter().flatten() {
        visit_live_uses(n, &mut bump);
    }
    for &k in dag.alias_v.keys().chain(dag.alias_m.keys()) {
        bump(k);
    }
    uses
}

// ---------------------------------------------------------------------
// Operator presence.
// ---------------------------------------------------------------------

/// Whether every operator the right-hand side needs at eval time was
/// captured. A `None` operator must surface as `MissingOperator` when
/// the node runs — no pass may fold such a node away.
pub(crate) fn vec_rhs_ops_present(rhs: &VecRhs) -> bool {
    match rhs {
        VecRhs::Scalar(_) => true,
        VecRhs::Expr(e) => match &e.kind {
            VectorExprKind::MxV { semiring, .. }
            | VectorExprKind::VxM { semiring, .. }
            | VectorExprKind::FusedMxvApply { semiring, .. } => semiring.is_some(),
            VectorExprKind::EWiseAdd { op, .. } | VectorExprKind::EWiseMult { op, .. } => {
                op.is_some()
            }
            VectorExprKind::Apply { op, .. } => op.is_some(),
            VectorExprKind::ReduceRows { monoid, .. } => monoid.is_some(),
            VectorExprKind::Extract { .. }
            | VectorExprKind::Ref { .. }
            | VectorExprKind::FusedEwiseChain { .. } => true,
        },
    }
}

/// Matrix analog of [`vec_rhs_ops_present`].
pub(crate) fn mat_rhs_ops_present(rhs: &MatRhs) -> bool {
    match rhs {
        MatRhs::Scalar(_) => true,
        MatRhs::Expr(e) => match &e.kind {
            MatrixExprKind::MxM { semiring, .. } => semiring.is_some(),
            MatrixExprKind::EWiseAdd { op, .. } | MatrixExprKind::EWiseMult { op, .. } => {
                op.is_some()
            }
            MatrixExprKind::Apply { op, .. } => op.is_some(),
            MatrixExprKind::Transpose { .. }
            | MatrixExprKind::Extract { .. }
            | MatrixExprKind::Ref { .. } => true,
        },
    }
}

// ---------------------------------------------------------------------
// CSE structural keys over whole descriptors.
// ---------------------------------------------------------------------

/// Hash-consing key for the CSE pass, or `None` when the node is
/// ineligible (scalar broadcast, index region, excluded expression
/// shape, or a missing operator that must error at eval).
///
/// *Plain* nodes (no mask/accum/region) key on the expression structure
/// plus the output's dtype and extent — their target's prior contents
/// are irrelevant. Non-plain nodes additionally key on the target
/// identity, mask identity + complement, accumulator, and replace flag,
/// so merge semantics participate in the comparison. The two classes
/// never merge with each other.
pub(crate) fn node_cse_hash(n: &Node) -> Option<u64> {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match n {
        Node::Vec(d) => {
            if d.region.is_some() || !vec_rhs_ops_present(&d.rhs) {
                return None;
            }
            let VecRhs::Expr(e) = &d.rhs else {
                return None;
            };
            0u8.hash(&mut h);
            if !e.kind.structural_fingerprint(&mut h) {
                return None;
            }
            d.out.dtype().hash(&mut h);
            d.out.size().hash(&mut h);
            if !d.is_plain() {
                1u8.hash(&mut h);
                vptr(&d.target).hash(&mut h);
                match &d.mask {
                    Some((m, c)) => {
                        1u8.hash(&mut h);
                        vptr(m).hash(&mut h);
                        c.hash(&mut h);
                    }
                    None => 0u8.hash(&mut h),
                }
                d.accum.hash(&mut h);
                d.replace.hash(&mut h);
            }
        }
        Node::Mat(d) => {
            if d.region.is_some() || !mat_rhs_ops_present(&d.rhs) {
                return None;
            }
            let MatRhs::Expr(e) = &d.rhs else {
                return None;
            };
            2u8.hash(&mut h);
            if !e.kind.structural_fingerprint(&mut h) {
                return None;
            }
            d.out.dtype().hash(&mut h);
            (d.out.nrows(), d.out.ncols()).hash(&mut h);
            if !d.is_plain() {
                1u8.hash(&mut h);
                mptr(&d.target).hash(&mut h);
                match &d.mask {
                    Some((m, c)) => {
                        1u8.hash(&mut h);
                        mptr(m).hash(&mut h);
                        c.hash(&mut h);
                    }
                    None => 0u8.hash(&mut h),
                }
                d.accum.hash(&mut h);
                d.replace.hash(&mut h);
            }
        }
    }
    Some(h.finish())
}

/// Exact confirmation behind [`node_cse_hash`] — hash-collision safety.
/// Both nodes must already have produced `Some` keys.
pub(crate) fn node_cse_eq(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Vec(x), Node::Vec(y)) => {
            let (VecRhs::Expr(ex), VecRhs::Expr(ey)) = (&x.rhs, &y.rhs) else {
                return false;
            };
            if !ex.kind.structural_eq(&ey.kind)
                || x.out.dtype() != y.out.dtype()
                || x.out.size() != y.out.size()
            {
                return false;
            }
            match (x.is_plain(), y.is_plain()) {
                (true, true) => true,
                (false, false) => {
                    let mask_eq = match (&x.mask, &y.mask) {
                        (Some((m1, c1)), Some((m2, c2))) => Arc::ptr_eq(m1, m2) && c1 == c2,
                        (None, None) => true,
                        _ => false,
                    };
                    Arc::ptr_eq(&x.target, &y.target)
                        && mask_eq
                        && x.accum == y.accum
                        && x.replace == y.replace
                }
                _ => false,
            }
        }
        (Node::Mat(x), Node::Mat(y)) => {
            let (MatRhs::Expr(ex), MatRhs::Expr(ey)) = (&x.rhs, &y.rhs) else {
                return false;
            };
            if !ex.kind.structural_eq(&ey.kind)
                || x.out.dtype() != y.out.dtype()
                || (x.out.nrows(), x.out.ncols()) != (y.out.nrows(), y.out.ncols())
            {
                return false;
            }
            match (x.is_plain(), y.is_plain()) {
                (true, true) => true,
                (false, false) => {
                    let mask_eq = match (&x.mask, &y.mask) {
                        (Some((m1, c1)), Some((m2, c2))) => Arc::ptr_eq(m1, m2) && c1 == c2,
                        (None, None) => true,
                        _ => false,
                    };
                    Arc::ptr_eq(&x.target, &y.target)
                        && mask_eq
                        && x.accum == y.accum
                        && x.replace == y.replace
                }
                _ => false,
            }
        }
        _ => false,
    }
}
