//! Per-layer measurements, taken from outside: timing calls into each
//! crate's public functions on the workload's own matrices and reading
//! its public counters (`JitStats::snapshot()`,
//! `pygb_obs::registry().snapshot()`). Every probe runs inside a
//! benchmark-side span named after the layer it enters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use gbtl::ops::accum::NoAccumulate;
use gbtl::ops::binary::Plus;
use gbtl::ops::monoid::PlusMonoid;
use gbtl::ops::semiring::ArithmeticSemiring;
use gbtl::{transpose, NoMask, Replace};
use pygb::{DType, EdgeUpdate, StreamingMatrix, Vector};
use pygb_io::interpreted::PyCoo;
use pygb_io::matrix_market;

use crate::manifest;
use crate::mix::{Mix, Op, Scope, State};
use crate::ops::{self, Algo, Variant};
use crate::stats;
use crate::trace::Tracer;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Median wall time in ms of `f`, repeated until `budget` is spent
/// (3 to 15 repetitions), each repetition its own span.
pub fn bench<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &str,
    budget: Duration,
    mut f: impl FnMut() -> R,
) -> f64 {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < 3 || (ms.len() < 15 && start.elapsed() < budget) {
        let t = Instant::now();
        tracer.span(layer, name, ms.len() as u64, |_| {
            black_box(f());
        });
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&ms)
}

const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// Mean ns per call over `iters` back-to-back calls, in one span (for
/// calls too short to time singly); median of 5 such batches.
pub fn bench_ns<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &str,
    iters: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let per_call: Vec<f64> = (0..5)
        .map(|rep| {
            let t = Instant::now();
            tracer.span(layer, name, rep, |_| {
                for _ in 0..iters {
                    black_box(f());
                }
            });
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&per_call)
}

/// Counters over a fixed piece of work, so they repeat exactly: one
/// round of every DSL op at source 0, first from a cold kernel cache
/// (misses, instantiation cost), then warm (hits, dispatch and op-DAG
/// counts, kernel selections). Returns the dispatches one execution of
/// the five `pygb-loops` algorithms makes, which
/// `core.unattributed_share` multiplies the per-dispatch overhead by.
pub fn census(state: &mut State, m: &mut Metrics) -> u64 {
    let jit = pygb::runtime().cache().stats();
    let reg = pygb_obs::registry();
    let loops_round = |state: &mut State| {
        for algo in Algo::ALL {
            let _ = state.run_once(Op::Algo(algo), Variant::Loops, 0);
        }
    };
    let rest_round = |state: &mut State| {
        for algo in Algo::ALL {
            let _ = state.run_once(Op::Algo(algo), Variant::Nonblocking, 0);
        }
        for variant in [Variant::Loops, Variant::Nonblocking] {
            let _ = state.run_once(Op::Expr, variant, 0);
        }
        let _ = state.run_once(Op::Load, Variant::Loops, 0);
    };

    pygb::runtime().cache().evict_memory();
    let cold0 = jit.snapshot();
    loops_round(state);
    rest_round(state);
    let warm0 = jit.snapshot();
    let reg0 = reg.snapshot();
    loops_round(state);
    let warm_loops = jit.snapshot();
    rest_round(state);
    let warm1 = jit.snapshot();
    let reg1 = reg.snapshot();

    let misses = warm0.compiles - cold0.compiles;
    let hits = warm1.memory_hits - warm0.memory_hits;
    let warm_lookups = warm1.total_dispatches() - warm0.total_dispatches();
    m.insert("jit.cache_misses", misses as f64);
    m.insert("jit.cache_hits", hits as f64);
    m.insert(
        "jit.hit_ratio",
        (warm1.memory_hits - cold0.memory_hits) as f64
            / (warm1.total_dispatches() - cold0.total_dispatches()).max(1) as f64,
    );
    m.insert(
        "jit.cold_instantiate_us",
        (warm0.compile_ns_total - cold0.compile_ns_total) as f64 / misses.max(1) as f64 / 1e3,
    );
    m.insert(
        "jit.cache_hit_ns",
        (warm1.lookup_ns_total - warm0.lookup_ns_total) as f64 / warm_lookups.max(1) as f64,
    );
    m.insert(
        "core.dispatch_count",
        (warm1.invocations - warm0.invocations) as f64,
    );
    m.insert(
        "runtime.deferred_ops",
        (warm1.deferred_ops - warm0.deferred_ops) as f64,
    );
    m.insert(
        "runtime.fused_ops",
        (warm1.fused_ops - warm0.fused_ops) as f64,
    );
    m.insert(
        "runtime.dce_elided",
        (warm1.elided_ops - warm0.elided_ops) as f64,
    );
    m.insert(
        "runtime.cse_deduped",
        (warm1.cse_deduped - warm0.cse_deduped) as f64,
    );
    let counter = |name: &str| (reg1.counter(name) - reg0.counter(name)) as f64;
    m.insert("runtime.empty_folded", counter("opt/empty_folded"));
    m.insert("runtime.launches_saved", counter("opt/launches_saved"));
    m.insert(
        "gbtl.spmv_push_calls",
        (warm1.sel_push + warm1.sel_masked_push - warm0.sel_push - warm0.sel_masked_push) as f64,
    );
    m.insert(
        "gbtl.spmv_pull_calls",
        (warm1.sel_pull + warm1.sel_masked_pull - warm0.sel_pull - warm0.sel_masked_pull) as f64,
    );
    m.insert(
        "gbtl.mxm_dot_calls",
        (warm1.sel_dot_spgemm - warm0.sel_dot_spgemm) as f64,
    );
    m.insert(
        "gbtl.mxm_gustavson_calls",
        (warm1.sel_spgemm + warm1.sel_masked_spgemm - warm0.sel_spgemm - warm0.sel_masked_spgemm)
            as f64,
    );
    warm_loops.invocations - warm0.invocations
}

/// `gbtl`: the typed kernels, called directly.
pub fn kernel_probes(state: &State, tracer: &mut Tracer, m: &mut Metrics) {
    let (a, l, e) = (&state.big.native, &state.lower.native, &state.expr.native);
    let n = a.nrows();
    let sr = ArithmeticSemiring::<f64>::new();
    let mut k = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut()| {
        let ms = bench(tracer, "gbtl", name, PROBE_BUDGET, f);
        m.insert(name, ms);
        ms
    };

    k("gbtl.build_ms", tracer, &mut || {
        gbtl::Matrix::<f64>::from_triples(n, n, state.big.graph.edges.iter().copied())
            .expect("generated triples are in range");
    });
    k("gbtl.transpose_ms", tracer, &mut || {
        black_box(a.transpose_owned());
    });
    let dense = gbtl::Vector::from_pairs(n, (0..n).map(|i| (i, 1.0))).expect("in range");
    let mxv_ms = k("gbtl.mxv_dense_ms", tracer, &mut || {
        let mut w = gbtl::Vector::<f64>::new(n);
        gbtl::operations::mxv(
            &mut w,
            &NoMask,
            NoAccumulate,
            &sr,
            a,
            &dense,
            Replace(false),
        )
        .expect("mxv");
    });
    // A 1 % frontier: every hundredth vertex.
    let frontier =
        gbtl::Vector::from_pairs(n, (0..n).step_by(100).map(|i| (i, 1.0))).expect("in range");
    k("gbtl.vxm_sparse_ms", tracer, &mut || {
        let mut w = gbtl::Vector::<f64>::new(n);
        gbtl::operations::vxm(
            &mut w,
            &NoMask,
            NoAccumulate,
            &sr,
            &frontier,
            a,
            Replace(false),
        )
        .expect("vxm");
    });
    k("gbtl.mxm_masked_ms", tracer, &mut || {
        let mut b = gbtl::Matrix::<f64>::new(l.nrows(), l.ncols());
        gbtl::operations::mxm(
            &mut b,
            l,
            NoAccumulate,
            &sr,
            l,
            transpose(l),
            Replace(false),
        )
        .expect("masked mxm");
    });
    k("gbtl.mxm_plain_ms", tracer, &mut || {
        let mut c = gbtl::Matrix::<f64>::new(e.nrows(), e.ncols());
        gbtl::operations::mxm(&mut c, &NoMask, NoAccumulate, &sr, e, e, Replace(false))
            .expect("mxm");
    });
    k("gbtl.ewise_add_ms", tracer, &mut || {
        let mut d = gbtl::Matrix::<f64>::new(n, n);
        gbtl::operations::e_wise_add_matrix(
            &mut d,
            &NoMask,
            NoAccumulate,
            Plus::<f64>::new(),
            a,
            a,
            Replace(false),
        )
        .expect("ewise add");
    });
    k("gbtl.reduce_ms", tracer, &mut || {
        let mut v = gbtl::Vector::<f64>::new(n);
        gbtl::operations::reduce_matrix_to_vector(
            &mut v,
            &NoMask,
            NoAccumulate,
            &PlusMonoid::<f64>::new(),
            a,
            Replace(false),
        )
        .expect("reduce");
    });
    m.insert("gbtl.mxv_edges_per_s", a.nvals() as f64 / (mxv_ms / 1e3));

    // One 64-edge batch absorbed into the delta store, then spliced.
    let batch = &state.inputs.batches[0];
    let (mut apply_us, mut merge_ms) = (Vec::new(), Vec::new());
    for rep in 0..5 {
        let mut delta = gbtl::DeltaMatrix::new(a.clone());
        let t = Instant::now();
        tracer.span("gbtl", "gbtl.delta_apply_us", rep, |_| {
            delta
                .update_edges(batch.iter().map(|&(i, j, w)| (i, j, Some(w))))
                .expect("batch in range");
        });
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        tracer.span("gbtl", "gbtl.delta_merge_ms", rep, |_| {
            black_box(delta.settle().nvals());
        });
        merge_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("gbtl.delta_apply_us", stats::median(&apply_us));
    m.insert("gbtl.delta_merge_ms", stats::median(&merge_ms));
}

/// `core`: container build, expression build, the price of one
/// dispatch, and the streaming front door.
pub fn core_probes(state: &State, tracer: &mut Tracer, m: &mut Metrics) {
    let g = &state.big.graph;
    let ms = bench(tracer, "core", "core.from_triples_ms", PROBE_BUDGET, || {
        pygb::Matrix::from_triples(g.n, g.n, g.edges.iter().copied()).expect("in range")
    });
    m.insert("core.from_triples_ms", ms);

    let mut frontier = Vector::new(g.n, DType::Bool);
    frontier.set(0, true).expect("in range");
    let graph = &state.big.dsl;
    let ns = bench_ns(tracer, "core", "core.expr_build_ns", 10_000, || {
        graph.t().mxv(&frontier)
    });
    m.insert("core.expr_build_ns", ns);

    // A full assignment on 1-element containers: everything a dispatch
    // costs except the kernel's work.
    let mut u = Vector::new(1, DType::Fp64);
    u.set(0, 1.0f64).expect("in range");
    let mut w = Vector::new(1, DType::Fp64);
    let ns = bench_ns(tracer, "core", "core.dispatch_overhead_ns", 20_000, || {
        w.no_mask().assign(&u + &u).expect("1-element assign");
    });
    m.insert("core.dispatch_overhead_ns", ns);

    let batch: Vec<EdgeUpdate> = state.inputs.batches[0]
        .iter()
        .map(|&(i, j, w)| EdgeUpdate::add(i, j, w))
        .collect();
    let (mut update_us, mut settle_ms) = (Vec::new(), Vec::new());
    for rep in 0..5 {
        let mut stream = StreamingMatrix::from_matrix(graph).expect("settled matrix");
        let t = Instant::now();
        tracer.span("core", "core.stream_update_us", rep, |_| {
            stream.update_edges(&batch).expect("batch in range");
        });
        update_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        tracer.span("core", "core.stream_settle_ms", rep, |_| stream.settle());
        settle_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("core.stream_update_us", stats::median(&update_us));
    m.insert("core.stream_settle_ms", stats::median(&settle_ms));
}

/// `jit`: hashing a module key the size `core` builds for an `mxv`.
/// (Hit and cold-instantiate costs come from the census counters.)
pub fn jit_probes(tracer: &mut Tracer, m: &mut Metrics) {
    let key = pygb_jit::ModuleKey::new("mxv")
        .with("c_type", "double")
        .with("a_type", "double")
        .with("u_type", "bool")
        .with("semiring", "LogicalSemiring")
        .with("accum", "none")
        .with("mask_type", "uint64_t")
        .with("complement", "true")
        .with("replace", "true")
        .with("transpose_a", "true");
    let ns = bench_ns(tracer, "jit", "jit.key_hash_ns", 100_000, || {
        key.module_hash()
    });
    m.insert("jit.key_hash_ns", ns);
}

/// `runtime`: enqueue, plan and flush of `K` trivial deferred ops, so
/// what is timed is DAG bookkeeping, passes, fusion and scheduling.
pub fn runtime_probes(tracer: &mut Tracer, m: &mut Metrics) {
    const K: usize = 64;
    let mut u = Vector::new(1, DType::Fp64);
    u.set(0, 1.0f64).expect("in range");
    let (mut enqueue_ns, mut plan_us, mut flush_us) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..30 {
        let mut outs: Vec<Vector> = (0..K).map(|_| Vector::new(1, DType::Fp64)).collect();
        let _nb = pygb_runtime::nonblocking().expect("engine installs");
        let t = Instant::now();
        tracer.span("runtime", "runtime.enqueue_ns", rep, |_| {
            for w in &mut outs {
                w.no_mask().assign(&u + &u).expect("enqueue");
            }
        });
        enqueue_ns.push(t.elapsed().as_nanos() as f64 / K as f64);
        let t = Instant::now();
        tracer.span("runtime", "runtime.plan_us", rep, |_| {
            black_box(pygb_runtime::plan());
        });
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        tracer.span("runtime", "runtime.flush_overhead_us", rep, |_| {
            pygb_runtime::flush().expect("flush");
        });
        flush_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(outs[K - 1].nvals());
    }
    m.insert("runtime.enqueue_ns", stats::median(&enqueue_ns));
    m.insert("runtime.plan_us", stats::median(&plan_us));
    m.insert("runtime.flush_overhead_us", stats::median(&flush_us));
}

/// `io`: Fig 11's parse and construct steps on the workload's graph.
pub fn io_probes(state: &State, tracer: &mut Tracer, m: &mut Metrics) {
    let text = &state.inputs.mm_text;
    let g = &state.big.graph;
    let mut k = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut()| {
        let ms = bench(tracer, "io", name, PROBE_BUDGET, f);
        m.insert(name, ms);
        ms
    };
    k("io.mm_parse_native_ms", tracer, &mut || {
        black_box(matrix_market::read_native(text.as_bytes()).expect("own text parses"));
    });
    k("io.mm_parse_pygb_ms", tracer, &mut || {
        black_box(ops::run_load(text).expect("own text parses"));
    });
    let native = k("io.native_build_ms", tracer, &mut || {
        black_box(
            gbtl::Matrix::<f64>::from_triples(g.n, g.n, g.edges.iter().copied()).expect("in range"),
        );
    });
    let boxed = PyCoo::from_edges(g.n, &g.edges);
    let interpreted = k("io.interpreted_build_ms", tracer, &mut || {
        black_box(boxed.to_matrix(DType::Fp64).expect("in range"));
    });
    m.insert("io.interp_over_native", interpreted / native);
}

/// `obs`: the cost of one flight-recorder record, and of running the
/// mix with the program's own tracing enabled.
pub fn obs_probes(state: &mut State, tracer: &mut Tracer, m: &mut Metrics) {
    let recorder = pygb_obs::FlightRecorder::with_capacity(1024);
    let record = pygb_obs::RequestRecord {
        id: 1,
        tenant: "bench",
        verb: "QUERY",
        graph: "g_mid",
        version: 1,
        queue_wait_ns: 1_000,
        exec_ns: 1_000_000,
        outcome: pygb_obs::Outcome::Ok,
        kernel_delta: 14,
        opt_delta: 0,
    };
    let ns = bench_ns(tracer, "obs", "obs.recorder_record_ns", 100_000, || {
        recorder.record(&record)
    });
    m.insert("obs.recorder_record_ns", ns);

    let mut enabled = Mix::calibrated(state, Scope::Everything, false);
    let mut disabled = Mix::calibrated(state, Scope::Everything, false);
    let mut off = Tracer::new(false, Instant::now());
    let deadline = Instant::now() + Duration::from_millis(1500);
    let (mut a, mut b) = (0, 0);
    tracer.span("obs", "obs.enabled_overhead_share", 0, |_| loop {
        pygb_obs::enable();
        enabled.round(state, &mut off, &mut a);
        pygb_obs::disable();
        disabled.round(state, &mut off, &mut b);
        if Instant::now() >= deadline && a >= 3 * enabled.cells.len() as u64 {
            break;
        }
    });
    pygb_obs::clear_events();
    m.insert(
        "obs.enabled_overhead_share",
        overhead_share(&enabled, &disabled),
    );
}

/// `Σ p50(with) / Σ p50(without) − 1` over the cells both mixes hold.
pub fn overhead_share(with: &Mix, without: &Mix) -> f64 {
    let total = |mix: &Mix| -> f64 { mix.cells.iter().map(|c| c.summary().median).sum() };
    total(with) / total(without) - 1.0
}

/// `algorithms.*`: the three non-canonical variants' medians, and the
/// iteration counts (which must repeat exactly).
pub fn algorithms_from_mix(mix: &Mix, state: &State, m: &mut Metrics) {
    for algo in Algo::ALL {
        for (suffix, variant) in [
            ("native", Variant::Native),
            ("fused", Variant::Fused),
            ("nb", Variant::Nonblocking),
        ] {
            let name = format!("algorithms.{}_{suffix}_ms", algo.label());
            m.insert(
                manifest::per_layer_name(&name),
                mix.p50(Op::Algo(algo), variant),
            );
        }
    }
    // BFS runs one iteration per level: the deepest level reached from
    // source 0 is the iteration count.
    let source = state.inputs.big_sources[0];
    let depth = ops::run_algo(Algo::Bfs, Variant::Loops, &state.big, source)
        .map(|(raw, _)| {
            raw.sparse(state.big.graph.n)
                .into_iter()
                .flatten()
                .fold(0.0, f64::max)
        })
        .unwrap_or(0.0);
    m.insert("algorithms.bfs_iterations", depth);
    let iters = ops::run_algo(Algo::PageRank, Variant::Loops, &state.big, source)
        .map_or(0, |(_, iters)| iters);
    m.insert("algorithms.pagerank_iterations", iters as f64);
}

/// `core.dsl_overhead_share` = (loops − native) / loops over the five
/// algorithms' medians, and `core.unattributed_share`, the part of it
/// that dispatch count × per-dispatch overhead does not explain.
/// Needs `core.dispatch_overhead_ns` in `m`.
pub fn core_shares(mix: &Mix, loops_dispatches: u64, m: &mut Metrics) {
    let total = |variant| -> f64 {
        Algo::ALL
            .iter()
            .map(|&a| mix.p50(Op::Algo(a), variant))
            .sum()
    };
    let (loops, native) = (total(Variant::Loops), total(Variant::Native));
    let dispatch_ms = loops_dispatches as f64 * m["core.dispatch_overhead_ns"] / 1e6;
    m.insert("core.dsl_overhead_share", (loops - native) / loops);
    m.insert(
        "core.unattributed_share",
        (loops - native - dispatch_ms) / loops,
    );
}

/// Write the span file; returns its path.
pub fn write_trace(tracer: &Tracer, workload: &str, out_dir: &Path) -> String {
    let path = out_dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload).render()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    path.display().to_string()
}
