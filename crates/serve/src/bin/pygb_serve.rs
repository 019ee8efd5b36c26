//! `pygb-serve` — stand-alone multi-tenant graph query server.
//!
//! ```text
//! PYGB_SERVE_ADDR=127.0.0.1:7411 \
//! PYGB_SERVE_WORKERS=4 \
//! PYGB_SERVE_SEED="web=er:10000:80000:42,road=rmat:10:8:7" \
//! cargo run --release -p pygb-serve --bin pygb-serve
//! ```
//!
//! Environment:
//! - `PYGB_SERVE_ADDR` — bind address (default `127.0.0.1:7411`)
//! - `PYGB_SERVE_WORKERS` — worker threads (default 4)
//! - `PYGB_SERVE_MAX_INFLIGHT` — global admission bound (default 256)
//! - `PYGB_SERVE_PER_TENANT` — per-tenant admission bound (default 128)
//! - `PYGB_SERVE_TIMEOUT_MS` — queue deadline in ms (default 5000)
//! - `PYGB_SERVE_SEED` — comma-separated graphs to preload, each
//!   `name=er:<n>:<m>:<seed>` or `name=rmat:<scale>:<ef>:<seed>`
//! - `PYGB_SLOW_NS` — slow-query threshold in nanoseconds (default
//!   100ms); requests slower than this capture their plan and per-node
//!   timings for `EXPLAIN rN`, tunable live via `SLOW THRESHOLD <ns>`
//! - `PYGB_TRACE` / `PYGB_METRICS` — the usual observability switches.
//!   With `PYGB_TRACE` set the span ring is flushed to the trace file
//!   every few seconds (and on demand via `TRACE DUMP <path>`), so a
//!   kill -9 loses at most one flush interval, not the whole trace.
//!   `METRICS` serves a live Prometheus exposition; `STATS` the raw
//!   JSON snapshot.

use pygb_serve::{AdmissionConfig, Catalog, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn seed_catalog(catalog: &Catalog, spec: &str) {
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let Some((name, src)) = entry.split_once('=') else {
            eprintln!("pygb-serve: bad seed entry `{entry}` (want name=kind:args)");
            continue;
        };
        let parts: Vec<&str> = src.split(':').collect();
        let edges = match parts.as_slice() {
            ["er", n, m, seed] => match (n.parse(), m.parse(), seed.parse()) {
                (Ok(n), Ok(m), Ok(seed)) => pygb_io::generators::erdos_renyi(n, m, seed),
                _ => {
                    eprintln!("pygb-serve: bad er args in `{entry}`");
                    continue;
                }
            },
            ["rmat", scale, ef, seed] => match (scale.parse(), ef.parse(), seed.parse()) {
                (Ok(scale), Ok(ef), Ok(seed)) => {
                    pygb_io::generators::rmat(scale, ef, (0.57, 0.19, 0.19, 0.05), seed)
                }
                _ => {
                    eprintln!("pygb-serve: bad rmat args in `{entry}`");
                    continue;
                }
            },
            _ => {
                eprintln!("pygb-serve: unknown seed kind in `{entry}`");
                continue;
            }
        };
        let graph = edges.to_pygb(pygb::DType::Fp64);
        match catalog.register(name.trim(), graph) {
            Ok(snap) => eprintln!("pygb-serve: seeded {}", snap.info_json()),
            Err(e) => eprintln!("pygb-serve: seeding `{name}` failed: {e}"),
        }
    }
}

fn main() -> std::io::Result<()> {
    pygb_obs::init_from_env();

    let catalog = Arc::new(Catalog::new());
    if let Ok(spec) = std::env::var("PYGB_SERVE_SEED") {
        seed_catalog(&catalog, &spec);
    }

    let config = ServerConfig {
        addr: std::env::var("PYGB_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7411".to_string()),
        workers: env_parse("PYGB_SERVE_WORKERS", 4),
        queue_capacity: env_parse("PYGB_SERVE_QUEUE", 512),
        admission: AdmissionConfig {
            max_inflight: env_parse("PYGB_SERVE_MAX_INFLIGHT", 256),
            per_tenant: env_parse("PYGB_SERVE_PER_TENANT", 128),
            queue_timeout: Duration::from_millis(env_parse("PYGB_SERVE_TIMEOUT_MS", 5000)),
        },
        ..ServerConfig::default()
    };

    let server = Server::start(catalog, config)?;
    println!("pygb-serve listening on {}", server.local_addr());

    // A server has no "SIGINT-free exit": without a periodic flush the
    // configured trace file would only ever be written by a clean
    // shutdown that never happens. Rewrite it every few seconds so the
    // file tracks the live span ring (clients can also force a flush
    // anywhere with `TRACE DUMP <path>`).
    if pygb_obs::trace_path().is_some() {
        std::thread::Builder::new()
            .name("pygb-serve-trace-flush".to_string())
            .spawn(|| loop {
                std::thread::sleep(Duration::from_secs(3));
                if let Err(e) = pygb_obs::finish() {
                    eprintln!("pygb-serve: trace flush failed: {e}");
                }
            })?;
    }

    // Serve until killed; all work happens on accept/conn/worker threads.
    loop {
        std::thread::park();
    }
}
