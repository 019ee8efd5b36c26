//! Served answers kept on their snapshot, seen from the wire: a repeat
//! on the same snapshot is a hit, a new snapshot of the same name never
//! serves an old answer (also across `DROP` and a re-`REGISTER` that
//! reuses the version number), the byte budget refuses what does not
//! fit and gets its bytes back when a snapshot goes, and a budget of 0
//! sends every request to a worker.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pygb_obs::{Outcome, RecordedRequest};
use pygb_serve::{Catalog, Client, Server, ServerConfig};

/// The `serve/result_*` counters are process-wide: tests that move or
/// read them take turns.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn count(name: &str) -> u64 {
    pygb_obs::registry().counter(name).get()
}

fn server(result_cache_bytes: usize) -> (Server, Client) {
    let config = ServerConfig {
        result_cache_bytes,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(Catalog::new()), config).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    (server, client)
}

/// The flight record of the client's last request.
fn last_record(c: &Client) -> RecordedRequest {
    let id = c.last_request_id().expect("every reply echoes its ID");
    pygb_obs::recorder()
        .tail(pygb_obs::RECORDER_CAPACITY)
        .into_iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("r{id} left no flight record"))
}

/// A path `0 → 1 → … → n-1`.
fn path(name: &str, n: usize) -> String {
    let edges: Vec<String> = (0..n - 1).map(|i| format!("{i}:{}:1", i + 1)).collect();
    format!("REGISTER {name} TRIPLES {n} {n} fp64 {}", edges.join(","))
}

/// Poll until the server's resident answer bytes reach `want` (a worker
/// may still hold a snapshot for a moment after its reply is sent).
fn await_resident(server: &Server, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.cached_answer_bytes() != want {
        assert!(
            Instant::now() < deadline,
            "resident answer bytes stuck at {}, want {want}",
            server.cached_answer_bytes()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_repeat_is_a_hit_and_a_new_version_is_not() {
    let _turn = counters();
    let (_server, mut c) = server(1 << 20);
    c.request_ok(&path("g", 4)).unwrap();
    let (hits, misses) = (count("serve/result_hit"), count("serve/result_miss"));

    let first = c.request_ok("QUERY g BFS 0").unwrap();
    assert_eq!(last_record(&c).outcome, Outcome::Ok);
    let again = c.request_ok("QUERY g BFS 0").unwrap();
    assert_eq!(again, first);
    let hit = last_record(&c);
    assert_eq!(hit.outcome, Outcome::Cached);
    assert_eq!(
        (
            hit.version,
            hit.queue_wait_ns,
            hit.kernel_delta,
            hit.verb.as_str()
        ),
        (1, 0, 0, "query")
    );
    assert_eq!(count("serve/result_hit"), hits + 1);
    assert_eq!(count("serve/result_miss"), misses + 1);

    // The outcome is visible on the wire too.
    let tail = c.request_ok("TAIL 2").unwrap();
    assert!(tail.contains("\"outcome\":\"cached\""), "{tail}");

    // UPDATE publishes version 2: its slot is empty.
    c.request_ok("UPDATE g ADD 0:3:1").unwrap();
    let v2 = c.request_ok("QUERY g BFS 0").unwrap();
    assert_eq!(last_record(&c).outcome, Outcome::Ok);
    assert!(v2.contains("\"version\":2"), "{v2}");
    assert!(v2.contains("[3,2]"), "the new edge is seen: {v2}");
}

#[test]
fn a_graph_dropped_and_registered_again_never_serves_an_old_answer() {
    let _turn = counters();
    let (_server, mut c) = server(1 << 20);
    c.request_ok(&path("g", 4)).unwrap();
    let old_bfs = c.request_ok("QUERY g BFS 0").unwrap();
    let old_expr = c.request_ok("EXPR g EWADD g BINOP Plus").unwrap();
    assert_eq!(c.request_ok("QUERY g BFS 0").unwrap(), old_bfs);
    assert_eq!(last_record(&c).outcome, Outcome::Cached);
    assert_eq!(c.request_ok("EXPR g EWADD g BINOP Plus").unwrap(), old_expr);
    assert_eq!(last_record(&c).outcome, Outcome::Cached);

    c.request_ok("DROP g").unwrap();
    // Same name, same shape, different edges — and, after a DROP, the
    // same version number: a cache keyed on `(name, version)` would
    // answer with the old graph here.
    let info = c
        .request_ok("REGISTER g TRIPLES 4 4 fp64 0:2:5,2:1:5")
        .unwrap();
    assert!(info.contains("\"version\":1"), "{info}");

    let bfs = c.request_ok("QUERY g BFS 0").unwrap();
    assert_eq!(last_record(&c).outcome, Outcome::Ok);
    assert_eq!(
        bfs,
        r#"{"graph":"g","version":1,"algo":"bfs","source":0,"levels":[[0,1],[1,3],[2,2]],"nvals":3,"truncated":false}"#
    );
    let expr = c.request_ok("EXPR g EWADD g BINOP Plus").unwrap();
    assert_eq!(last_record(&c).outcome, Outcome::Ok);
    assert!(expr.contains("\"triples\":[[0,2,10],[2,1,10]]"), "{expr}");
}

#[test]
fn the_budget_refuses_what_does_not_fit_and_recovers_superseded_bytes() {
    let _turn = counters();
    // Room for one small answer, never for a 64-vertex BFS.
    let (server, mut c) = server(512);
    c.request_ok(&path("big", 64)).unwrap();
    c.request_ok(&path("small", 3)).unwrap();
    let refused = count("serve/result_refused");

    for round in 1..=2 {
        let bfs = c.request_ok("QUERY big BFS 0").unwrap();
        assert!(bfs.len() > 512, "{}", bfs.len());
        assert_eq!(
            last_record(&c).outcome,
            Outcome::Ok,
            "round {round}: a refused answer runs again"
        );
        assert_eq!(count("serve/result_refused"), refused + round);
    }
    await_resident(&server, 0);

    c.request_ok("QUERY small TRICOUNT").unwrap();
    c.request_ok("QUERY small TRICOUNT").unwrap();
    assert_eq!(last_record(&c).outcome, Outcome::Cached);
    let held = server.cached_answer_bytes();
    assert!(held > 0 && held <= 512, "{held}");

    // Superseding the snapshot frees its answers once no reader holds it.
    c.request_ok(&path("small", 3)).unwrap();
    await_resident(&server, 0);
    c.request_ok("QUERY small TRICOUNT").unwrap();
    assert_eq!(last_record(&c).outcome, Outcome::Ok);
}

#[test]
fn with_no_budget_every_request_runs_on_a_worker() {
    let _turn = counters();
    let (server, mut c) = server(0);
    c.request_ok(&path("g", 8)).unwrap();
    let before = (count("serve/result_hit"), count("serve/result_miss"));
    for line in ["QUERY g BFS 0", "EXPR g MXM g SEMIRING ARITHMETIC"] {
        for _ in 0..3 {
            c.request_ok(line).unwrap();
            let r = last_record(&c);
            assert_eq!(r.outcome, Outcome::Ok, "{line}");
            assert!(r.kernel_delta > 0, "{line} ran no kernel");
        }
    }
    let after = (count("serve/result_hit"), count("serve/result_miss"));
    assert_eq!(after, before, "a disabled cache is never looked up");
    assert_eq!(server.cached_answer_bytes(), 0);
}
