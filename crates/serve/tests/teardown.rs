//! Teardown with work still queued: when the last owner of a server's
//! shared state is a job's closure, the worker pool is dropped on one
//! of its own workers. The drop must join every other worker and skip
//! that one (which cannot join itself), so no worker panics and the
//! process's thread count returns to where it started.
//!
//! This binary holds one test: it reads the process-wide thread count
//! and the process-wide `serve/worker_panics` counter.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pygb_serve::{Catalog, Client, Server, ServerConfig};

/// `Threads:` from `/proc/self/status` (None where there is no procfs).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Wait up to `limit` for the thread count to fall to `want`.
fn settle_to(want: usize, limit: Duration) -> usize {
    let deadline = Instant::now() + limit;
    loop {
        let now = threads().expect("procfs readable");
        if now <= want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A catalog holding `g`, a graph whose PageRank keeps a worker busy
/// for a while: an Erdős–Rényi graph with ~8 edges per vertex.
fn catalog() -> Arc<Catalog> {
    let n = 2048;
    let g = pygb_io::generators::erdos_renyi(n, 8 * n, 7).to_pygb(pygb::DType::Fp64);
    let catalog = Catalog::new();
    catalog.register("g", g).unwrap();
    Arc::new(catalog)
}

#[test]
fn dropping_a_server_with_queued_work_joins_every_worker() {
    if threads().is_none() {
        return;
    }
    // One full cycle first, so process-lifetime threads (the kernel
    // pool, lazily started) exist before the baseline is read; then let
    // the cycle's connection thread see its client go.
    {
        let server = Server::start(catalog(), ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.request_ok("QUERY g PAGERANK").unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));
    let baseline = threads().expect("procfs readable");
    let panics = pygb_obs::registry().counter("serve/worker_panics").get();

    // Two workers, answers not kept, and a response window so short
    // that every connection gives up on its reply: once the clients and
    // the server handle are gone, the queued jobs' closures hold the
    // last owners of the server's shared state.
    let config = ServerConfig {
        workers: 2,
        response_wait: Duration::from_millis(1),
        result_cache_bytes: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(catalog(), config).unwrap();
    let clients: Vec<Client> = (0..6)
        .map(|_| {
            let mut c = Client::connect(server.local_addr()).unwrap();
            // Answered `timeout` by the connection; the job stays queued.
            let _ = c.request("QUERY g PAGERANK");
            c
        })
        .collect();
    drop(clients);
    drop(server);

    let after = settle_to(baseline, Duration::from_secs(60));
    assert_eq!(
        pygb_obs::registry().counter("serve/worker_panics").get(),
        panics,
        "a worker panicked during teardown (self-join)"
    );
    assert!(
        after <= baseline,
        "threads did not return to the baseline {baseline}: {after} still running"
    );
}
