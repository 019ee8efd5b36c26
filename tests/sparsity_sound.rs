//! Soundness suite for the plan-time sparsity abstract interpretation
//! (`crate::sparsity` in `pygb-runtime`, domain in `pygb::facts`).
//!
//! Every flush with the `sparsity` pass enabled runs the *checked
//! interpretation*: after each node's kernel, the concrete `nvals` of
//! the written container is compared against the node's inferred
//! interval. A violation bumps the `opt/fact_misses` counter and
//! debug-asserts (these tests run under `cargo test`, i.e. with debug
//! assertions on — an unsound transfer function panics the suite).
//! The tests here drive randomly generated programs biased toward the
//! hard write-back corners — masks, complements, accumulators,
//! REPLACE, mixed dtypes, region assigns, streamed snapshots — and
//! then assert the miss counter never moved.
//!
//! On top of γ-membership, the deterministic tests pin the pass's
//! *strength*: provably-empty results reached only through pending
//! placeholders (invisible to the syntactic no-op pass) must fold, the
//! structure lints must fire, and a statically decided SpMV direction
//! must be taken — with results identical to blocking execution.

use proptest::prelude::*;

use pygb::{
    apply, reduce, Accumulator, BinaryOp, DType, DynScalar, EdgeUpdate, Matrix, MergePolicy,
    StreamingMatrix, UnaryOp, Vector,
};
use pygb_obs::{Census, Scope};
use pygb_runtime::{reset_passes, set_passes, PassKind};

const N: usize = 8;
const POOL: usize = 5;
const OPS: [&str; 4] = ["Plus", "Times", "Min", "Max"];
const ACCUMS: [&str; 2] = ["Plus", "Min"];

/// `f`'s result and its own count of `cell` (`opt/fact_misses`,
/// `opt/empty_folded`, …), read from a census scope of its own.
fn counted<R>(cell: Census, f: impl FnOnce() -> R) -> (R, u64) {
    let scope = Scope::new();
    let out = {
        let _in = scope.enter();
        f()
    };
    (out, scope.get(cell))
}

/// Restore the ambient pass configuration on drop, so a panicking case
/// cannot leak an override into later tests.
struct PassScope;

impl PassScope {
    fn new(passes: &[PassKind]) -> PassScope {
        set_passes(passes);
        PassScope
    }
}

impl Drop for PassScope {
    fn drop(&mut self) {
        reset_passes();
    }
}

fn full_pipeline() -> Vec<PassKind> {
    vec![
        PassKind::Dce,
        PassKind::Cse,
        PassKind::Sparsity,
        PassKind::Noop,
    ]
}

/// One random program step. Compared to the equivalence suite, the
/// generator adds SpMV steps (`mxv`/`vxm` exercise the matrix transfer
/// functions and the static direction hints), scalar broadcasts (the
/// `full_iso` transfer), and region assigns (the ⊤ degradation path).
#[derive(Clone, Debug)]
struct Step {
    /// 0 = eWise add, 1 = eWise mult, 2 = bound apply, 3 = copy,
    /// 4 = reduce, 5 = identity apply, 6 = dropped temporary,
    /// 7 = mxv, 8 = vxm, 9 = scalar broadcast, 10 = region assign.
    kind: usize,
    target: usize,
    a: usize,
    b: usize,
    op: usize,
    /// 0 = no mask, 1 = mask, 2 = complemented mask.
    mask_mode: usize,
    mask: usize,
    /// 0 = plain assign, 1.. = accum_assign with `ACCUMS[accum - 1]`.
    accum: usize,
    replace: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        (0usize..11, 0usize..POOL, 0usize..POOL, 0usize..POOL),
        (0usize..OPS.len(), 0usize..3, 0usize..POOL),
        (0usize..=ACCUMS.len(), any::<bool>()),
    )
        .prop_map(
            |((kind, target, a, b), (op, mask_mode, mask), (accum, replace))| Step {
                kind,
                target,
                a,
                b,
                op,
                mask_mode,
                mask,
                accum,
                replace,
            },
        )
}

/// Mixed-dtype pool biased toward the analysis's interesting corners:
/// dense int32, sparse int64, dense fp64, an initially *empty* fp64
/// slot (provable-emptiness bait), and a sparse bool slot
/// (structural-only facts, and a natural mask).
fn init_pool() -> Vec<Vector> {
    let mut v0 = Vector::new(N, DType::Int32);
    let mut v1 = Vector::new(N, DType::Int64);
    let mut v2 = Vector::new(N, DType::Fp64);
    let v3 = Vector::new(N, DType::Fp64);
    let mut v4 = Vector::new(N, DType::Bool);
    for i in 0..N {
        v0.set(i, i as i32 + 1).unwrap();
        if i % 2 == 0 {
            v1.set(i, (i as i64) * 10 - 30).unwrap();
        }
        v2.set(i, i as f64 * 0.5 - 1.0).unwrap();
        if i % 3 == 0 {
            v4.set(i, true).unwrap();
        }
    }
    vec![v0, v1, v2, v3, v4]
}

/// An `N × N` directed ring with chords, fp64, for the SpMV steps.
fn graph() -> Matrix {
    let mut triples = Vec::new();
    for i in 0..N {
        triples.push((i, (i + 1) % N, DynScalar::Fp64(1.0)));
        if i % 3 == 0 {
            triples.push((i, (i + 4) % N, DynScalar::Fp64(1.0)));
        }
    }
    Matrix::from_triples_dyn(N, N, &triples, Some(DType::Fp64)).unwrap()
}

fn apply_step(g: &Matrix, pool: &mut [Vector], s: &Step) -> pygb::Result<Option<DynScalar>> {
    if s.kind == 4 {
        return reduce(&pool[s.a]).map(Some);
    }
    if s.kind == 6 {
        let _op = BinaryOp::new(OPS[s.op])?.enter();
        let _dead = Vector::from_expr(&pool[s.a] + &pool[s.b])?;
        return Ok(None);
    }
    let a = pool[s.a].clone();
    let b = pool[s.b].clone();
    let mask = pool[s.mask].clone();
    let expr_op = BinaryOp::new(OPS[s.op])?;
    let target = &mut pool[s.target];

    if s.kind == 9 {
        // Scalar broadcast: the full_iso transfer, under every mask
        // mode (the write-back math is what's under test).
        match s.mask_mode {
            0 => target.no_mask().assign_scalar(7.5f64)?,
            1 if s.replace => target.masked(&mask).replace().assign_scalar(7.5f64)?,
            1 => target.masked(&mask).assign_scalar(7.5f64)?,
            _ if s.replace => target
                .masked_complement(&mask)
                .replace()
                .assign_scalar(7.5f64)?,
            _ => target.masked_complement(&mask).assign_scalar(7.5f64)?,
        }
        return Ok(None);
    }
    if s.kind == 10 {
        // Region assign: the analysis degrades to ⊤, which must still
        // admit whatever the kernel writes.
        let hi = (s.a % N).max(1);
        target.no_mask().slice(0..hi).assign_scalar(1.25f64)?;
        return Ok(None);
    }

    macro_rules! emit {
        ($expr:expr) => {{
            let _op_guard = expr_op.enter();
            match (s.mask_mode, s.accum) {
                (0, 0) => target.no_mask().assign($expr)?,
                (0, acc) => {
                    let _a = Accumulator::new(ACCUMS[acc - 1])?.enter();
                    target.no_mask().accum_assign($expr)?
                }
                (1, 0) if s.replace => target.masked(&mask).replace().assign($expr)?,
                (1, 0) => target.masked(&mask).assign($expr)?,
                (1, acc) => {
                    let _a = Accumulator::new(ACCUMS[acc - 1])?.enter();
                    if s.replace {
                        target.masked(&mask).replace().accum_assign($expr)?
                    } else {
                        target.masked(&mask).accum_assign($expr)?
                    }
                }
                (_, 0) if s.replace => target.masked_complement(&mask).replace().assign($expr)?,
                (_, 0) => target.masked_complement(&mask).assign($expr)?,
                (_, acc) => {
                    let _a = Accumulator::new(ACCUMS[acc - 1])?.enter();
                    if s.replace {
                        target
                            .masked_complement(&mask)
                            .replace()
                            .accum_assign($expr)?
                    } else {
                        target.masked_complement(&mask).accum_assign($expr)?
                    }
                }
            }
        }};
    }

    match s.kind {
        0 => emit!(&a + &b),
        1 => emit!(&a * &b),
        2 => {
            let unary = UnaryOp::bound("Plus", 3.0)?;
            let _u = unary.enter();
            emit!(apply(&a))
        }
        5 => {
            let unary = UnaryOp::new("Identity")?;
            let _u = unary.enter();
            emit!(apply(&a))
        }
        7 => {
            let _sr = pygb::ArithmeticSemiring.enter();
            emit!(g.t().mxv(&a))
        }
        8 => {
            let _sr = pygb::ArithmeticSemiring.enter();
            emit!(a.vxm(g))
        }
        _ => emit!(&a),
    }
    Ok(None)
}

/// Run a program under one configuration; `None` is the blocking
/// oracle. Returns the settled pool plus reductions.
fn run_program(
    g: &Matrix,
    prog: &[Step],
    passes: Option<&[PassKind]>,
) -> (Vec<Vector>, Vec<DynScalar>) {
    let _scope = passes.map(PassScope::new);
    let mut pool = init_pool();
    let mut reductions = Vec::new();
    {
        let _guard = passes.map(|_| pygb_runtime::nonblocking().unwrap());
        for s in prog {
            if let Some(r) = apply_step(g, &mut pool, s).unwrap() {
                reductions.push(r);
            }
        }
        if passes.is_some() {
            pygb_runtime::flush().unwrap();
        }
    }
    for v in &mut pool {
        v.settle().unwrap();
    }
    (pool, reductions)
}

proptest! {
    /// The soundness proof: random programs over every dtype, mask
    /// mode, accumulator, REPLACE, SpMV, scalar broadcast, and region
    /// assign never trip the checked interpretation (`opt/fact_misses`
    /// stays flat; a miss also debug-asserts), and the sparsity-enabled
    /// pipeline is bit-identical to the blocking oracle.
    #[test]
    fn random_programs_never_miss_a_fact(
        prog in proptest::collection::vec(step_strategy(), 1..14),
    ) {
        let g = graph();
        let passes = full_pipeline();
        let (((o_pool, o_red), (pool, red)), misses) = counted(Census::FactMisses, || {
            (run_program(&g, &prog, None), run_program(&g, &prog, Some(&passes)))
        });
        for (i, (o, p)) in o_pool.iter().zip(&pool).enumerate() {
            prop_assert_eq!(o.dtype(), p.dtype(), "slot {} dtype", i);
            prop_assert_eq!(o.extract_pairs(), p.extract_pairs(), "slot {}", i);
        }
        prop_assert_eq!(&o_red, &red, "reductions");
        prop_assert_eq!(misses, 0, "checked interpretation recorded a fact miss");
    }

    /// Streamed-graph coverage: SpMV over a mid-stream
    /// `StreamingMatrix::snapshot()` (deletes and overwrites pending in
    /// the delta) under the sparsity pass — facts hold, results match.
    #[test]
    fn streamed_snapshots_never_miss_a_fact(
        edges in proptest::collection::vec((0usize..N, 0usize..N, 1i64..6), 1..16),
        updates in proptest::collection::vec(
            (0usize..N, 0usize..N, (0u8..4, 1i64..6).prop_map(|(k, v)| (k > 0).then_some(v))),
            0..10),
        masked in any::<bool>(),
    ) {
        let triples: Vec<(usize, usize, DynScalar)> = edges
            .iter()
            .map(|&(i, j, v)| (i, j, DynScalar::Fp64(v as f64)))
            .collect();
        let base = Matrix::from_triples_dyn(N, N, &triples, Some(DType::Fp64)).unwrap();
        let mut stream = StreamingMatrix::with_policy(
            &base,
            MergePolicy { max_pending: 4, ..MergePolicy::default() },
        )
        .unwrap();
        let batch: Vec<EdgeUpdate> = updates
            .iter()
            .map(|&(i, j, v)| match v {
                Some(v) => EdgeUpdate::add(i, j, DynScalar::Fp64(v as f64)),
                None => EdgeUpdate::del(i, j),
            })
            .collect();
        stream.update_edges(&batch).unwrap();
        let snap = stream.snapshot();

        let mut x = Vector::new(N, DType::Fp64);
        for i in 0..N {
            x.set(i, (i + 1) as f64).unwrap();
        }
        let mask = {
            let mut m = Vector::new(N, DType::Bool);
            for i in (0..N).step_by(2) {
                m.set(i, true).unwrap();
            }
            m
        };

        let run = |passes: Option<&[PassKind]>| -> Vec<(usize, DynScalar)> {
            let _scope = passes.map(PassScope::new);
            let mut y = Vector::new(N, DType::Fp64);
            {
                let _guard = passes.map(|_| pygb_runtime::nonblocking().unwrap());
                let _sr = pygb::ArithmeticSemiring.enter();
                let t = Vector::from_expr(snap.t().mxv(&x)).unwrap();
                if masked {
                    y.masked(&mask).assign(&t).unwrap();
                } else {
                    y.no_mask().assign(&t).unwrap();
                }
                if passes.is_some() {
                    pygb_runtime::flush().unwrap();
                }
            }
            y.settle().unwrap();
            y.extract_pairs()
        };
        let passes = full_pipeline();
        let ((oracle, got), misses) =
            counted(Census::FactMisses, || (run(None), run(Some(&passes))));
        prop_assert_eq!(&got, &oracle, "streamed snapshot spmv");
        prop_assert_eq!(misses, 0, "fact miss on streamed snapshot");
    }
}

/// The strength claim: a provably-empty result reached only *through a
/// pending placeholder* is invisible to the syntactic no-op pass
/// (pending operands are never "known empty") but folds under the
/// sparsity pass — and the downstream-consumption lint fires on the
/// real flush.
#[test]
fn empty_chain_through_pending_placeholders_folds_and_lints() {
    let _scope = PassScope::new(&[PassKind::Sparsity]);
    let empty = Vector::new(N, DType::Fp64);
    let mut dense = Vector::new(N, DType::Fp64);
    for i in 0..N {
        dense.set(i, i as f64 + 1.0).unwrap();
    }
    let _ = pygb::take_lints();
    let mut out = Vector::new(N, DType::Fp64);
    let ((), folded) = counted(Census::EmptyFolded, || {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _op = BinaryOp::new("Times").unwrap().enter();
        // t1 = empty ⊗ dense: provably empty (and syntactically so).
        let t1 = Vector::from_expr(&empty * &dense).unwrap();
        // t2 = t1 ⊗ dense: t1 is a *pending placeholder* here, so the
        // no-op pass cannot see its emptiness — only the abstract
        // interpretation can.
        let t2 = Vector::from_expr(&t1 * &dense).unwrap();
        // out = t2 ⊗ dense: consumed downstream → lint.
        out.no_mask().assign(&t2 * &dense).unwrap();
    });
    out.settle().unwrap();
    assert_eq!(out.nvals(), 0, "folded chain must still produce emptiness");
    assert!(
        folded >= 2,
        "sparsity pass must fold the provably-empty chain (pending-placeholder \
         emptiness is invisible to noop): folded delta {folded}"
    );
    let lints = pygb::take_lints();
    assert!(
        lints.iter().any(|l| l.contains("provably empty")),
        "expected a provably-empty-consumed lint, got: {lints:?}"
    );
}

/// Masked write-back strength: an empty complemented mask admits every
/// write; an empty plain mask admits none — under REPLACE the result
/// is provably empty even though the right-hand side is dense, and the
/// disjoint-mask lint fires.
#[test]
fn empty_mask_replace_folds_with_disjoint_lint() {
    let _scope = PassScope::new(&[PassKind::Sparsity]);
    let empty_mask = Vector::new(N, DType::Bool);
    let mut dense = Vector::new(N, DType::Fp64);
    for i in 0..N {
        dense.set(i, 2.0 * i as f64).unwrap();
    }
    let _ = pygb::take_lints();
    let mut out = Vector::new(N, DType::Fp64);
    out.set(0, 9.0f64).unwrap();
    let ((), folded) = counted(Census::EmptyFolded, || {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _op = BinaryOp::new("Plus").unwrap().enter();
        out.masked(&empty_mask)
            .replace()
            .assign(&dense + &dense)
            .unwrap();
    });
    out.settle().unwrap();
    assert_eq!(out.nvals(), 0, "empty mask + replace must clear the target");
    assert!(folded > 0, "provably-empty masked write must fold");
    let lints = pygb::take_lints();
    assert!(
        lints.iter().any(|l| l.contains("disjoint")),
        "expected a disjoint-mask lint, got: {lints:?}"
    );
}

/// The static-hint claim of the tentpole: a BFS-style frontier mxv
/// whose vector density is statically known takes its push/pull
/// decision from the analysis (counter moves), with results identical
/// to the blocking oracle.
#[test]
fn bfs_frontier_mxv_selects_direction_from_static_hint() {
    let g = pygb_integration::fig1_graph().cast(DType::Fp64);
    let run = |nonblocking: bool| -> Vec<(usize, DynScalar)> {
        let _scope = nonblocking.then(|| PassScope::new(&full_pipeline()));
        let mut frontier = Vector::new(7, DType::Fp64);
        frontier.set(3, 1.0f64).unwrap();
        let mut next = Vector::new(7, DType::Fp64);
        {
            let _nb = nonblocking.then(|| pygb_runtime::nonblocking().unwrap());
            let _sr = pygb::ArithmeticSemiring.enter();
            next.no_mask().assign(g.t().mxv(&frontier)).unwrap();
        }
        next.settle().unwrap();
        next.extract_pairs()
    };
    let oracle = run(false);
    let (got, hints) = counted(Census::StaticKernelHints, || run(true));
    assert_eq!(got, oracle, "hinted SpMV must match blocking results");
    assert!(hints > 0, "frontier mxv must take a static push/pull hint");
}
