//! `analytics_large` and `analytics_small`: graph-in → result-out, one
//! op kind at a time, a single caller. Same code, different sizes — on
//! the large one `gbtl` kernels do nearly all the work, on the small
//! one dispatch, cache lookup and op-DAG bookkeeping do.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::layers::{self, Metrics};
use crate::mix::{Inputs, Mix, Op, Scope, Sizes, State};
use crate::ops::{Algo, Variant};
use crate::run::{self, RunArgs, RunOutput, SETUPS};
use crate::serve;
use crate::stats;
use crate::trace::Tracer;

/// One set-up: generate the inputs from the seed, build the containers
/// in both layers, compute the references, and run every op kind once
/// per variant from a cold kernel cache, checking each answer.
pub fn set_up(sizes: Sizes, seed: u64) -> (State, u64, u64) {
    pygb::runtime().cache().evict_memory();
    let mut state = State::build(Inputs::generate(sizes, seed));
    let (checked, wrong) = state.warm_and_verify();
    (state, checked, wrong)
}

pub fn run(sizes: Sizes, args: &RunArgs) -> RunOutput {
    if args.trace {
        return run_traced(sizes, args);
    }
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (state, checked, wrong) = set_up(sizes, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += checked;
        failed += wrong;
        last = Some(state);
    }
    let mut state = last.expect("SETUPS > 0");

    let mut mix = Mix::calibrated(&mut state, Scope::Everything, false);
    let mut off = Tracer::new(false, Instant::now());
    let wall = mix.run_for(&mut state, &mut off, Duration::from_secs_f64(args.seconds));
    attempted += mix.attempted();
    failed += mix.failed();

    let p50 = |op| mix.p50(op, Variant::Loops);
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("ops_per_s", (mix.attempted() - mix.failed()) as f64 / wall),
        ("peak_rss_mb", run::peak_rss_mb()),
        ("load_p50_ms", p50(Op::Load)),
        ("bfs_p50_ms", p50(Op::Algo(Algo::Bfs))),
        ("sssp_p50_ms", p50(Op::Algo(Algo::Sssp))),
        ("tricount_p50_ms", p50(Op::Algo(Algo::Tricount))),
        ("cc_p50_ms", p50(Op::Algo(Algo::Cc))),
        ("pagerank_p50_ms", p50(Op::Algo(Algo::PageRank))),
        ("expr_p50_ms", p50(Op::Expr)),
        ("update_p50_ms", p50(Op::Update)),
        ("req_p95_ms", stats::percentile(&mix.dsl_samples(), 0.95)),
        ("dsl_over_native", mix.over_native(Variant::Loops)),
        ("nb_over_native", mix.over_native(Variant::Nonblocking)),
    ];
    let detail = Json::obj([
        ("sizes", sizes.to_json()),
        ("inputs", state.inputs.to_json()),
        ("hygiene", run::hygiene_json(1, 0)),
        (
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("measured_wall_s", Json::Num(wall)),
        (
            "req_p99_ms",
            Json::Num(stats::percentile(&mix.dsl_samples(), 0.99)),
        ),
        ("mix", mix.to_json()),
    ]);
    RunOutput {
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// The traced pass: the same mix with every op inside a benchmark-side
/// span, alternating with untraced rounds (their difference is the
/// tracing overhead), plus the per-layer probes on this workload's
/// matrices.
fn run_traced(sizes: Sizes, args: &RunArgs) -> RunOutput {
    let epoch = Instant::now();
    let mut m = Metrics::new();
    let (mut state, checked, wrong) = set_up(sizes, args.seed);
    let (mut attempted, mut failed) = (checked, wrong);
    let census = layers::census(&mut state, &mut m);

    let mut tracer = Tracer::new(true, epoch);
    let mut off = Tracer::new(false, epoch);
    let mut traced = Mix::calibrated(&mut state, Scope::Everything, true);
    let mut untraced = Mix::calibrated(&mut state, Scope::Everything, true);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut op_on, mut op_off) = (0, 0);
    loop {
        traced.round(&mut state, &mut tracer, &mut op_on);
        untraced.round(&mut state, &mut off, &mut op_off);
        if Instant::now() >= deadline {
            break;
        }
    }
    for mix in [&traced, &untraced] {
        attempted += mix.attempted();
        failed += mix.failed();
    }
    m.insert(
        "obs.bench_trace_overhead_share",
        layers::overhead_share(&traced, &untraced),
    );
    layers::algorithms_from_mix(&untraced, &state, &mut m);

    layers::kernel_probes(&state, &mut tracer, &mut m);
    layers::core_probes(&state, &mut tracer, &mut m);
    layers::core_shares(&untraced, census, &mut m);
    layers::jit_probes(&mut tracer, &mut m);
    layers::runtime_probes(&mut tracer, &mut m);
    layers::io_probes(&state, &mut tracer, &mut m);
    layers::obs_probes(&mut state, &mut tracer, &mut m);

    // The serve layer, on this workload's graphs: the read mix for a
    // short closed loop. Nothing on `analytics_*` should move these.
    let served = serve::traced_loop(
        serve::Profile::Read,
        &state,
        args.seed,
        Duration::from_secs(2),
        &mut tracer,
        &mut m,
    );
    attempted += served.attempted;
    failed += served.failed;

    m.insert("fail_share", failed as f64 / attempted.max(1) as f64);
    let trace_path = layers::write_trace(&tracer, &args.workload, &args.out_dir);
    let detail = Json::obj([
        ("sizes", sizes.to_json()),
        ("inputs", state.inputs.to_json()),
        ("hygiene", run::hygiene_json(1, 0)),
        ("trace_file", Json::Str(trace_path)),
        ("mix_traced", traced.to_json()),
        ("mix_untraced", untraced.to_json()),
        ("serve", served.detail),
    ]);
    RunOutput {
        attempted,
        failed,
        metrics: m.into_iter().collect(),
        detail,
    }
}
