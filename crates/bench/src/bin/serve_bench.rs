//! Closed-loop load generator for `pygb-serve`.
//!
//! Starts an in-process server, seeds two named graphs, then drives it
//! with `CLIENTS` concurrent closed-loop connections (each keeps
//! exactly one request in flight), mixing all five algorithm verbs and
//! a raw expression across both graphs. Responses are sanity-checked
//! (known invariants per verb, never a protocol error other than
//! structured shedding) and per-request latencies are recorded.
//!
//! The run prices the always-on flight recorder with an A/B pair of
//! phases — identical load with the recorder muted, then active — and
//! reports the p99 delta (the ISSUE budget is < 5%; the JSON carries
//! the measured value either way so CI trends it). A final phase
//! measures the observability verbs themselves (`TAIL`, `SLOW`,
//! `EXPLAIN`, `METRICS`) against the ring the load phases populated.
//! The server keeps no answers (`result_cache_bytes: 0`), so every
//! request runs on a worker: the run prices the worker path, not the
//! cache-hit path.
//!
//! Writes `results/serve_bench.json`:
//!
//! ```text
//! { "config": {...}, "totals": {...}, "latency_us": {p50, p95, p99, max},
//!   "per_verb": [ {verb, count, p50_us, p95_us}, ... ],
//!   "recorder_ab": {muted_p99_us, active_p99_us, p99_regression_pct},
//!   "obs_verbs_us": [ {verb, p50_us, p99_us}, ... ] }
//! ```
//!
//! Environment: `SERVE_BENCH_CLIENTS` (default 64),
//! `SERVE_BENCH_SECONDS` (default 5, per phase),
//! `SERVE_BENCH_WORKERS` (default 4).

use pygb_serve::{AdmissionConfig, Catalog, Client, ErrCode, Frame, Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

struct Tally {
    verb: &'static str,
    latencies_us: Vec<u64>,
    shed: u64,
    errors: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drive the server with the closed-loop fleet for `seconds`, returning
/// merged per-verb tallies and the wall time.
fn run_phase(
    addr: SocketAddr,
    clients: usize,
    seconds: u64,
    mix: &[(&'static str, String)],
) -> std::io::Result<(BTreeMap<&'static str, Tally>, f64)> {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let stop = Arc::clone(&stop);
            let mix = mix.to_vec();
            thread::spawn(move || -> std::io::Result<Vec<Tally>> {
                let mut c = Client::connect(addr)?;
                c.hello(&format!("tenant-{}", id % 4))?;
                let mut tallies: Vec<Tally> = mix
                    .iter()
                    .map(|(verb, _)| Tally {
                        verb,
                        latencies_us: Vec::new(),
                        shed: 0,
                        errors: 0,
                    })
                    .collect();
                let mut i = id; // stagger the starting verb per client
                while !stop.load(Ordering::Relaxed) {
                    let slot = i % mix.len();
                    let t0 = Instant::now();
                    let frame = c.request(&mix[slot].1)?;
                    let us = t0.elapsed().as_micros() as u64;
                    match frame {
                        Frame::Ok(_) | Frame::OkWarn(_, _) => tallies[slot].latencies_us.push(us),
                        Frame::Err(ErrCode::Overloaded | ErrCode::Timeout, _) => {
                            tallies[slot].shed += 1
                        }
                        Frame::Err(_, _) => tallies[slot].errors += 1,
                    }
                    i += 1;
                }
                Ok(tallies)
            })
        })
        .collect();

    thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);

    let mut per_verb: BTreeMap<&'static str, Tally> = BTreeMap::new();
    for h in handles {
        for t in h.join().expect("client thread panicked")? {
            let entry = per_verb.entry(t.verb).or_insert_with(|| Tally {
                verb: t.verb,
                latencies_us: Vec::new(),
                shed: 0,
                errors: 0,
            });
            entry.latencies_us.extend(t.latencies_us);
            entry.shed += t.shed;
            entry.errors += t.errors;
        }
    }
    Ok((per_verb, started.elapsed().as_secs_f64()))
}

fn sorted_all(per_verb: &BTreeMap<&'static str, Tally>) -> Vec<u64> {
    let mut all: Vec<u64> = per_verb
        .values()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// p50/p99 of `iters` round-trips of one observability verb.
fn time_obs_verb(c: &mut Client, line: &str, iters: usize) -> std::io::Result<(u64, u64)> {
    let mut lat: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        c.request_ok(line).map_err(std::io::Error::other)?;
        lat.push(t0.elapsed().as_micros() as u64);
    }
    lat.sort_unstable();
    Ok((percentile(&lat, 0.50), percentile(&lat, 0.99)))
}

fn main() -> std::io::Result<()> {
    let clients = env_parse("SERVE_BENCH_CLIENTS", 64usize);
    let seconds = env_parse("SERVE_BENCH_SECONDS", 5u64);
    let workers = env_parse("SERVE_BENCH_WORKERS", 4usize);

    let server = Server::start(
        Arc::new(Catalog::new()),
        ServerConfig {
            workers,
            admission: AdmissionConfig {
                // Admit the whole closed-loop fleet: the point of the
                // run is sustained concurrent in-flight work, shedding
                // is exercised separately by the protocol tests.
                max_inflight: clients * 2,
                per_tenant: clients * 2,
                queue_timeout: Duration::from_secs(30),
            },
            // Every client repeats the same six lines on two graphs
            // that never change: with answers kept, all but the first
            // of each would be a cache hit answered on the connection
            // thread, and the phases below would no longer price
            // admission, the pool or the recorder on the worker path.
            result_cache_bytes: 0,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    eprintln!(
        "serve_bench: {clients} clients x 2x{seconds}s (recorder muted/active) \
         against {addr} ({workers} workers)"
    );

    {
        let mut seed = Client::connect(addr)?;
        seed.hello("seed")?;
        seed.request_ok("REGISTER web ER 1000 8000 42")
            .map_err(std::io::Error::other)?;
        seed.request_ok("REGISTER social ER 600 4800 7 SYM")
            .map_err(std::io::Error::other)?;
    }

    // Each client cycles through the verb mix; the mix covers both
    // graphs, all five algorithms, and a raw masked expression.
    let mix: Vec<(&'static str, String)> = vec![
        ("bfs", "QUERY web BFS 0".to_string()),
        ("sssp", "QUERY web SSSP 0".to_string()),
        ("pagerank", "QUERY web PAGERANK 20".to_string()),
        ("tricount", "QUERY social TRICOUNT".to_string()),
        ("cc", "QUERY social CC".to_string()),
        ("expr", "EXPR social EWMULT social BINOP Times".to_string()),
    ];

    // Warm-up: drive the whole mix once so JIT compilation and cache
    // faults are paid before either measured phase.
    {
        let mut warm = Client::connect(addr)?;
        warm.hello("warmup")?;
        for (_, line) in &mix {
            warm.request_ok(line).map_err(std::io::Error::other)?;
        }
    }

    // Phases A/B price the always-on flight recorder: identical load,
    // recorder muted then active. They run at worker-level concurrency
    // so no request queues — a saturated closed loop's p99 measures
    // queue depth, which would drown the nanosecond-scale record cost
    // in scheduling noise.
    let ab_clients = workers;
    pygb_obs::recorder().set_muted(true);
    let (muted_verbs, _muted_wall) = run_phase(addr, ab_clients, seconds, &mix)?;
    let muted_all = sorted_all(&muted_verbs);
    let muted_p99 = percentile(&muted_all, 0.99);

    pygb_obs::recorder().set_muted(false);
    let (active_verbs, _active_wall) = run_phase(addr, ab_clients, seconds, &mix)?;
    let active_all = sorted_all(&active_verbs);
    let ab_active_p99 = percentile(&active_all, 0.99);

    // Load phase: the full closed-loop fleet with the recorder active
    // (the shipping configuration). Totals and per-verb stats below
    // report this phase.
    let (mut per_verb, wall) = run_phase(addr, clients, seconds, &mix)?;

    let all = sorted_all(&per_verb);
    let ok: u64 = all.len() as u64;
    let shed: u64 = per_verb.values().map(|t| t.shed).sum();
    let errors: u64 = per_verb.values().map(|t| t.errors).sum();
    let p99_regression_pct = if muted_p99 > 0 {
        (ab_active_p99 as f64 - muted_p99 as f64) * 100.0 / muted_p99 as f64
    } else {
        0.0
    };

    // Phase C: the observability verbs themselves, against the ring and
    // metric registry the load phases filled. EXPLAIN reads a capture
    // forced by a momentary zero threshold; only a request that ran on
    // a worker leaves one, which this server's zero answer budget
    // guarantees.
    let mut obs = Client::connect(addr)?;
    obs.hello("observer")?;
    obs.request_ok("SLOW THRESHOLD 1")
        .map_err(std::io::Error::other)?;
    obs.request_ok("QUERY web BFS 0")
        .map_err(std::io::Error::other)?;
    let explain_id = obs
        .last_request_id()
        .ok_or_else(|| std::io::Error::other("server echoed no request ID"))?;
    obs.request_ok(&format!("SLOW THRESHOLD {}", pygb_serve::DEFAULT_SLOW_NS))
        .map_err(std::io::Error::other)?;
    let obs_iters = 200;
    let obs_lines = [
        ("TAIL", "TAIL 64".to_string()),
        ("SLOW", "SLOW 64".to_string()),
        ("EXPLAIN", format!("EXPLAIN r{explain_id}")),
        ("METRICS", "METRICS".to_string()),
    ];
    let mut obs_json = Vec::new();
    for (verb, line) in &obs_lines {
        let (p50, p99) = time_obs_verb(&mut obs, line, obs_iters)?;
        obs_json.push(format!(
            "{{\"verb\":\"{verb}\",\"p50_us\":{p50},\"p99_us\":{p99}}}"
        ));
        eprintln!("serve_bench: {verb} p50={p50}us p99={p99}us ({obs_iters} round-trips)");
    }

    let mut verb_json = Vec::new();
    for t in per_verb.values_mut() {
        t.latencies_us.sort_unstable();
        verb_json.push(format!(
            "{{\"verb\":\"{}\",\"count\":{},\"p50_us\":{},\"p95_us\":{}}}",
            t.verb,
            t.latencies_us.len(),
            percentile(&t.latencies_us, 0.50),
            percentile(&t.latencies_us, 0.95)
        ));
    }

    let json = format!(
        "{{\n  \"config\": {{\"clients\": {clients}, \"seconds\": {seconds}, \"workers\": {workers}}},\n  \"totals\": {{\"ok\": {ok}, \"shed\": {shed}, \"errors\": {errors}, \"wall_s\": {wall:.3}, \"throughput_rps\": {:.1}}},\n  \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n  \"per_verb\": [{}],\n  \"recorder_ab\": {{\"muted_p99_us\": {muted_p99}, \"active_p99_us\": {ab_active_p99}, \"p99_regression_pct\": {p99_regression_pct:.2}}},\n  \"obs_verbs_us\": [{}]\n}}\n",
        ok as f64 / wall,
        percentile(&all, 0.50),
        percentile(&all, 0.95),
        percentile(&all, 0.99),
        all.last().copied().unwrap_or(0),
        verb_json.join(","),
        obs_json.join(",")
    );

    std::fs::create_dir_all("results")?;
    std::fs::write("results/serve_bench.json", &json)?;
    eprintln!(
        "serve_bench: {ok} ok, {shed} shed, {errors} errors in {wall:.1}s; \
         recorder p99 {muted_p99}us muted -> {ab_active_p99}us active \
         ({p99_regression_pct:+.2}%)"
    );
    print!("{json}");

    if errors > 0 {
        eprintln!("serve_bench: FAILED — {errors} non-shed protocol errors");
        std::process::exit(1);
    }
    Ok(())
}
