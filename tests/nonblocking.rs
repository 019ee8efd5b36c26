//! Cross-crate integration tests for the nonblocking execution
//! runtime: `pygb` containers defer into the `pygb-runtime` op-DAG,
//! fused kernels dispatch through `pygb-jit`, and execution lands in
//! `gbtl` — the full stack driven end to end.

use pygb::{
    apply, reduce, ArithmeticSemiring, BinaryOp, DType, LogicalSemiring, Matrix, Replace, UnaryOp,
    Vector,
};
use pygb_integration::{
    assert_matrices_identical, assert_vectors_identical, fig1_graph, measure_dispatches,
};

fn dense(vals: &[f64]) -> Vector {
    let mut v = Vector::new(vals.len(), DType::Fp64);
    for (i, &x) in vals.iter().enumerate() {
        v.set(i, x).unwrap();
    }
    v
}

/// Rule 3 end to end: materializing an SpMV into a temporary and then
/// assigning the temporary under mask+replace collapses back into ONE
/// masked SpMV dispatch.
#[test]
fn ref_collapse_fuses_masked_spmv() {
    let g = fig1_graph();
    let run = |frontier: &mut Vector, levels: &Vector| {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = LogicalSemiring.enter();
        let _rp = Replace.enter();
        let t = Vector::from_expr(g.t().mxv(frontier)).unwrap();
        frontier.masked_complement(levels).assign(&t).unwrap();
    };

    let mut levels = Vector::new(7, DType::UInt64);
    levels.set(3, 1u64).unwrap();
    let mut frontier = Vector::new(7, DType::Bool);
    frontier.set(3, true).unwrap();
    run(&mut frontier, &levels); // warm the masked-mxv kernel

    let mut frontier2 = Vector::new(7, DType::Bool);
    frontier2.set(3, true).unwrap();
    let ((), d) = measure_dispatches(|| run(&mut frontier2, &levels));
    frontier2.settle().unwrap();
    assert_eq!(d.invocations, 1, "temp + masked assign must fuse");
    assert_eq!(d.fused_ops, 1);
    assert_eq!(d.deferred_ops, 2);
    // The collapsed node carries the consumer's complemented mask, so
    // the substrate must have picked a *masked* kernel for the single
    // fused dispatch. The frontier's density (1/7) sits above the
    // push/pull threshold, so the sparsity analysis statically hints
    // pull and the runtime honors it by flipping to the cached
    // transpose — the transposed operand no longer forces push.
    assert_eq!(
        d.sel_masked_pull, 1,
        "fused SpMV must select masked pull from the static density hint"
    );
    assert_eq!(d.sel_pull + d.sel_masked_push + d.sel_push, 0);

    // Same result as the direct blocking spelling.
    let mut blocking = Vector::new(7, DType::Bool);
    blocking.set(3, true).unwrap();
    {
        let _sr = LogicalSemiring.enter();
        let _rp = Replace.enter();
        let expr = g.t().mxv(&blocking.clone());
        blocking.masked_complement(&levels).assign(expr).unwrap();
    }
    assert_vectors_identical(&blocking, &frontier2, "rule 3");
}

/// Rule 2 end to end: `apply(mxv(...))` through a temporary becomes a
/// single `vxm_apply` composite dispatch.
#[test]
fn apply_after_mxv_fuses() {
    let g = fig1_graph();
    let u = dense(&[1.0; 7]);
    let run = |out: &mut Vector| {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = ArithmeticSemiring.enter();
        let t = Vector::from_expr(u.vxm(&g)).unwrap();
        let _op = UnaryOp::bound("Plus", 0.5).unwrap().enter();
        out.no_mask().assign(apply(&t)).unwrap();
    };
    let mut warm = Vector::new(7, DType::Fp64);
    run(&mut warm);

    let mut out = Vector::new(7, DType::Fp64);
    let ((), d) = measure_dispatches(|| run(&mut out));
    out.settle().unwrap();
    assert_eq!(d.invocations, 1, "vxm + apply must fuse");
    assert_eq!(d.fused_ops, 1);

    // Blocking reference through the eager two-dispatch spelling.
    let mut blocking = Vector::new(7, DType::Fp64);
    {
        let _sr = ArithmeticSemiring.enter();
        let t = Vector::from_expr(u.vxm(&g)).unwrap();
        let _op = UnaryOp::bound("Plus", 0.5).unwrap().enter();
        blocking.no_mask().assign(apply(&t)).unwrap();
    }
    assert_vectors_identical(&blocking, &out, "rule 2");
}

/// Rule 1 with a distinct third operand: `t = u + v; w = t * x`
/// becomes one `fused_ewise_chain` dispatch.
#[test]
fn ewise_chain_with_third_operand_fuses() {
    let u = dense(&[1.0, 2.0, 3.0]);
    let v = dense(&[10.0, 20.0, 30.0]);
    let x = dense(&[2.0, 2.0, 2.0]);
    let run = |w: &mut Vector| {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let t = Vector::from_expr(&u + &v).unwrap();
        w.no_mask().assign(&t * &x).unwrap();
    };
    let mut warm = Vector::new(3, DType::Fp64);
    run(&mut warm);

    let mut w = Vector::new(3, DType::Fp64);
    let ((), d) = measure_dispatches(|| run(&mut w));
    w.settle().unwrap();
    assert_eq!(d.invocations, 1);
    assert_eq!(d.fused_ops, 1);
    assert_eq!(w.to_dense_f64(), vec![22.0, 44.0, 66.0]);
}

/// Rule 4 end to end: an eWise producer feeding only a reduction runs
/// as one `fused_ewise_reduce` dispatch and still materializes the
/// vector for later reads.
#[test]
fn reduce_after_ewise_fuses() {
    let u = dense(&[1.0, 2.0, 3.0, 4.0]);
    let mut d_vec = Vector::new(4, DType::Fp64);
    let mut run = || {
        let _nb = pygb_runtime::nonblocking().unwrap();
        d_vec.no_mask().assign(&u * &u).unwrap();
        reduce(&d_vec).unwrap().as_f64()
    };
    assert_eq!(run(), 30.0); // warm

    let (total, d) = measure_dispatches(run);
    assert_eq!(total, 30.0);
    assert_eq!(d.invocations, 1, "eWise + reduce must fuse");
    assert_eq!(d.fused_ops, 1);
    assert_eq!(d_vec.to_dense_f64(), vec![1.0, 4.0, 9.0, 16.0]);
}

/// Deferred operations under mask, accumulator, and replace produce
/// bitwise-identical containers to blocking mode.
#[test]
fn masked_accumulated_ops_match_blocking() {
    let u = dense(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let v = dense(&[10.0, 0.0, 30.0, 0.0, 50.0]);
    let mut mask = Vector::new(5, DType::Bool);
    mask.set(0, true).unwrap();
    mask.set(2, true).unwrap();
    mask.set(3, true).unwrap();

    let body = |w: &mut Vector| -> pygb::Result<()> {
        let _acc = pygb::Accumulator::new("Plus")?.enter();
        w.masked(&mask).accum_assign(&u + &v)?;
        let _b = BinaryOp::new("Max")?.enter();
        let snapshot = w.clone();
        w.masked_complement(&mask)
            .replace()
            .assign(&snapshot + &u)?;
        Ok(())
    };

    let mut blocking = dense(&[7.0, 7.0, 7.0, 7.0, 7.0]);
    body(&mut blocking).unwrap();

    let mut nonblocking = dense(&[7.0, 7.0, 7.0, 7.0, 7.0]);
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        body(&mut nonblocking).unwrap();
    }
    assert_vectors_identical(&blocking, &nonblocking, "mask/accum/replace");
}

/// A deferred matrix product chain matches blocking mode.
#[test]
fn deferred_matrix_chain_matches_blocking() {
    let g = fig1_graph();
    let body = |b: &mut Matrix| -> pygb::Result<()> {
        let _sr = ArithmeticSemiring.enter();
        b.masked(&g).assign(g.matmul(g.t()))?;
        let _u = UnaryOp::bound("Times", 2.0)?.enter();
        let snapshot = b.clone();
        b.no_mask().assign(apply(&snapshot))?;
        Ok(())
    };

    let mut blocking = Matrix::new(7, 7, DType::Fp64);
    body(&mut blocking).unwrap();

    let mut nonblocking = Matrix::new(7, 7, DType::Fp64);
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        body(&mut nonblocking).unwrap();
    }
    assert_matrices_identical(&blocking, &nonblocking, "matrix chain");
}

/// A wave of data-independent SpMVs all lands correctly through the
/// parallel scheduler.
#[test]
fn independent_wave_executes_in_parallel_correctly() {
    let g = fig1_graph();
    let inputs: Vec<Vector> = (0..8).map(|k| dense(&[k as f64 + 1.0; 7])).collect();

    let mut blocking: Vec<Vector> = (0..8).map(|_| Vector::new(7, DType::Fp64)).collect();
    {
        let _sr = ArithmeticSemiring.enter();
        for (out, u) in blocking.iter_mut().zip(&inputs) {
            out.no_mask().assign(g.mxv(u)).unwrap();
        }
    }

    let mut nonblocking: Vec<Vector> = (0..8).map(|_| Vector::new(7, DType::Fp64)).collect();
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = ArithmeticSemiring.enter();
        for (out, u) in nonblocking.iter_mut().zip(&inputs) {
            out.no_mask().assign(g.mxv(u)).unwrap();
        }
    }
    for (i, (b, nb)) in blocking.iter().zip(&nonblocking).enumerate() {
        assert_vectors_identical(b, nb, &format!("wave output {i}"));
    }
}

/// Threads that evaluated a `ThreadProbeTimes` multiply, without
/// repeats.
static PROBE_THREADS: std::sync::Mutex<Vec<std::thread::ThreadId>> =
    std::sync::Mutex::new(Vec::new());

fn probe_times(a: f64, b: f64) -> f64 {
    let id = std::thread::current().id();
    let mut seen = PROBE_THREADS.lock().unwrap();
    if !seen.contains(&id) {
        seen.push(id);
    }
    a * b
}

/// Waves run on a bounded, reused set of threads: 200 flushes of a
/// two-node wave execute on at most `available_parallelism()` distinct
/// threads (the flushing thread and the pool's helpers), not on two
/// fresh threads per flush.
#[test]
fn wave_jobs_run_on_a_bounded_thread_set() {
    let probe = BinaryOp::define("ThreadProbeTimes", probe_times);
    let u = dense(&[1.0, 2.0, 3.0]);
    let v = dense(&[4.0, 5.0, 6.0]);
    let mut a = Vector::new(3, DType::Fp64);
    let mut b = Vector::new(3, DType::Fp64);
    let _op = probe.enter();
    for _ in 0..200 {
        let _nb = pygb_runtime::nonblocking().unwrap();
        a.no_mask().assign(&u * &v).unwrap();
        b.no_mask().assign(&u * &u).unwrap();
    }
    assert_eq!(a.to_dense_f64(), vec![4.0, 10.0, 18.0]);
    assert_eq!(b.to_dense_f64(), vec![1.0, 4.0, 9.0]);
    let threads = PROBE_THREADS.lock().unwrap().len();
    let limit = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        threads <= limit,
        "wave jobs ran on {threads} distinct threads; at most {limit} expected"
    );
}

/// Dtype promotion through deferred expressions matches blocking mode.
#[test]
fn promotion_matches_blocking() {
    let mut a = Vector::new(4, DType::Int32);
    let mut b = Vector::new(4, DType::Int64);
    for i in 0..4 {
        a.set(i, (i as i32) - 1).unwrap();
        b.set(i, (i as i64) * 100).unwrap();
    }

    let blocking = {
        let t = Vector::from_expr(&a + &b).unwrap();
        Vector::from_expr(&t + &a).unwrap()
    };
    let nonblocking = {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let t = Vector::from_expr(&a + &b).unwrap();
        let mut out = Vector::from_expr(&t + &a).unwrap();
        out.settle().unwrap();
        out
    };
    assert_eq!(blocking.dtype(), DType::Int64);
    assert_vectors_identical(&blocking, &nonblocking, "promotion");
}

/// Reads are flush points: `nvals` inside a scope observes the
/// deferred writes.
#[test]
fn nvals_is_a_flush_point() {
    let u = dense(&[1.0, 0.0, 3.0]);
    let mut w = Vector::new(3, DType::Fp64);
    let _nb = pygb_runtime::nonblocking().unwrap();
    w.no_mask().assign(&u * &u).unwrap();
    assert_eq!(w.nvals(), 3);
}

/// A container produced inside a nonblocking scope on a worker thread
/// is fully resolved once the scope exits, and can be read anywhere.
#[test]
fn worker_thread_scope_resolves_before_handoff() {
    let g = fig1_graph();
    let handle = std::thread::spawn(move || {
        let u = dense(&[1.0; 7]);
        let mut out = Vector::new(7, DType::Fp64);
        {
            let _nb = pygb_runtime::nonblocking().unwrap();
            let _sr = ArithmeticSemiring.enter();
            out.no_mask().assign(g.mxv(&u)).unwrap();
        }
        out.settle().unwrap();
        out
    });
    let out = handle.join().unwrap();
    assert!(out.nvals() > 0);
}

/// The four algorithm variants match their blocking transcriptions on
/// the Fig. 1 graph.
#[test]
fn algorithms_match_blocking_on_fig1() {
    let g = fig1_graph();

    let bfs_b = pygb_algorithms::bfs_dsl_loops(&g, 3).unwrap();
    let bfs_nb = pygb_algorithms::bfs_nonblocking(&g, 3).unwrap();
    assert_vectors_identical(&bfs_b, &bfs_nb, "bfs");

    let mut sssp_b = Vector::new(7, DType::Fp64);
    sssp_b.set(3, 0.0f64).unwrap();
    let mut sssp_nb = sssp_b.clone();
    pygb_algorithms::sssp_dsl_loops(&g, &mut sssp_b).unwrap();
    pygb_algorithms::sssp_nonblocking(&g, &mut sssp_nb).unwrap();
    assert_vectors_identical(&sssp_b, &sssp_nb, "sssp");

    let mut triples = Vec::new();
    for i in 0..5usize {
        for j in 0..i {
            triples.push((i, j, 1i64));
        }
    }
    let l = Matrix::from_triples(5, 5, triples).unwrap();
    let tri_b = pygb_algorithms::tricount_dsl_loops(&l).unwrap();
    let tri_nb = pygb_algorithms::tricount_nonblocking(&l).unwrap();
    assert_eq!(tri_b.as_i64(), tri_nb.as_i64());
}

/// Satellite regression: an op the analyzer rejects is refused at
/// enqueue — it never enters the DAG, so it cannot poison the flush of
/// the valid operations around it.
#[test]
fn invalid_op_is_rejected_at_enqueue_with_provenance() {
    let u = dense(&[1.0, 2.0]);
    let bad = dense(&[1.0, 2.0, 3.0]);
    let mut w = Vector::new(2, DType::Fp64);
    let mut ok = Vector::new(2, DType::Fp64);
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        ok.no_mask().assign(&u + &u).unwrap(); // valid neighbour defers
        let err = w.no_mask().assign(&u + &bad).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid `eWiseAdd`: operands have sizes 2 and 3; \
             in eWiseAdd([2 fp64], [3 fp64])"
        );
        // Only the valid neighbour is pending; the flush runs it clean.
        assert_eq!(pygb_runtime::plan().nodes.len(), 1);
        assert!(pygb_runtime::flush().is_ok());
    }
    assert_eq!(ok.to_dense_f64(), vec![2.0, 4.0]);
    assert_eq!(w.nvals(), 0, "the rejected op must never write");
}

/// Acceptance: a rule-3 collapse whose consumer output shares a store
/// with the producer's merge base (two container handles, one store) is
/// REFUSED by the aliasing analysis — counted, logged with a reason —
/// and the unfused execution still matches blocking mode exactly.
#[test]
fn aliased_output_refuses_fusion_then_executes_correctly() {
    let g = fig1_graph();
    let u = dense(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);

    let run = |w: &mut Vector| {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = ArithmeticSemiring.enter();
        let mut t = w.clone(); // t aliases w's store
        t.no_mask().assign(g.mxv(&u)).unwrap();
        w.no_mask().assign(&t).unwrap();
        drop(t);
    };

    let mut warm = dense(&[0.0; 7]);
    run(&mut warm); // warm the mxv and identity-assign kernels
    warm.settle().unwrap();

    let mut w = dense(&[9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]);
    let ((), d) = measure_dispatches(|| {
        run(&mut w);
        w.settle().unwrap();
    });
    assert_eq!(
        d.refused_fusions, 1,
        "the aliasing analysis must refuse the collapse"
    );
    assert_eq!(d.fused_ops, 0);
    assert_eq!(d.deferred_ops, 2);
    assert_eq!(d.invocations, 2, "refused pair dispatches unfused");
    let refusals = pygb_runtime::last_refusals();
    assert_eq!(refusals.len(), 1);
    assert!(
        refusals[0].contains("aliases the producer's merge base"),
        "{}",
        refusals[0]
    );

    // Unfused execution is still exactly the blocking result.
    let mut expect = Vector::new(7, DType::Fp64);
    {
        let _sr = ArithmeticSemiring.enter();
        expect.no_mask().assign(g.mxv(&u)).unwrap();
    }
    assert_vectors_identical(&w, &expect, "refused-then-correct");
}

/// The plan()/explain API: per-node shapes, dtypes, chosen kernels,
/// dependencies, and fusion decisions of the pending DAG — read-only.
#[test]
fn plan_reports_shapes_kernels_and_fusion_decisions() {
    let g = fig1_graph();
    let mut f = Vector::new(7, DType::Bool);
    f.set(3, true).unwrap();
    let levels = Vector::new(7, DType::UInt64);
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = LogicalSemiring.enter();
        let _rp = Replace.enter();
        let t = Vector::from_expr(g.t().mxv(&f)).unwrap();
        f.masked_complement(&levels).assign(&t).unwrap();
        drop(t);

        let plan = pygb_runtime::plan();
        assert_eq!(plan.nodes.len(), 2);
        let n0 = &plan.nodes[0];
        assert_eq!(n0.kernel, "mxv");
        assert!(n0.op.starts_with("mxv([7x7 fp64], [7 bool])"), "{}", n0.op);
        assert!(n0.output.starts_with("[7 "), "{}", n0.output);
        assert!(n0.deps.is_empty());
        assert!(!n0.masked && !n0.accum);
        let n1 = &plan.nodes[1];
        assert_eq!(n1.kernel, "apply_v");
        assert!(n1.masked && n1.complemented && n1.replace);
        assert_eq!(n1.deps, vec![pygb_runtime::NodeId(0)]);
        assert_eq!(
            n1.fusion.as_deref(),
            Some("fuses node n0 (rule 3: ref collapse)")
        );
        let rendered = plan.to_string();
        assert!(rendered.contains("kernel=mxv"), "{rendered}");
        assert!(rendered.contains("mask=~m"), "{rendered}");
        assert!(rendered.contains("deps=[n0]"), "{rendered}");
    } // flush on scope exit: plan() must not have disturbed the DAG
    f.settle().unwrap();
    assert_eq!(f.nvals(), 2, "one BFS step from vertex 3 reaches {{0, 2}}");
}

/// A handle left naming a deferred result (flushed, never settled) is
/// read through the resolution map *before* any memoized view is
/// consulted: as a mixed-dtype operand, as a mask and under `cast` it
/// yields the computed store's views, never a view of the empty
/// placeholder that names it.
#[test]
fn views_come_from_the_resolved_store_not_its_placeholder() {
    let g = fig1_graph();
    let mut a = Matrix::new(7, 7, DType::Fp64);
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _op = BinaryOp::new("Plus").unwrap().enter();
        a.no_mask().assign(&g + &g).unwrap();
    } // flushed on scope exit; `a` still holds the placeholder handle

    // int64 ← fp64 operands under an fp64 mask: `a` needs its int64
    // view and its Bool pattern.
    let product = |a: &Matrix| {
        let _sr = ArithmeticSemiring.enter();
        let mut c = Matrix::new(7, 7, DType::Int64);
        c.masked(a).assign(a.matmul(&g)).unwrap();
        c
    };
    let building = product(&a);
    let memoized = product(&a);
    assert_eq!(a.cast(DType::Int64).nvals(), 12);

    let mut settled = a.clone();
    settled.settle().unwrap();
    let want = product(&settled.dup());
    assert!(want.nvals() > 0);
    assert_matrices_identical(&building, &want, "unsettled operand, views built");
    assert_matrices_identical(&memoized, &want, "unsettled operand, views reused");
}
