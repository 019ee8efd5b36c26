//! Per-request accounting under concurrency: with 2, 4 and 8 workers
//! serving mixed `QUERY`/`EXPR`/`BATCH`/`UPDATE` traffic, every flight
//! record must account for its own request and nothing else:
//!
//! * its `kernel_delta` (kernel invocations) and `opt_delta` (launches
//!   the optimizer saved) equal what the same request records when it
//!   runs alone;
//! * the records of a run sum to the process-wide counter deltas over
//!   that run, so no work goes unattributed or is counted twice;
//! * its `version` is the snapshot version the request's reply names,
//!   even while a writer publishes new versions of the graph it reads.
//!
//! The live graph's updates only re-weight existing edges, so every
//! version has the same pattern and a BFS over it the same census.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use pygb_serve::{Catalog, Client, Frame, Server, ServerConfig};

/// Read traffic: a label (the solo-census key) and its request lines.
/// `BATCH` entries are sent as one batch of their member lines.
const READS: [(&str, &[&str]); 10] = [
    ("bfs", &["QUERY s BFS 0"]),
    ("sssp", &["QUERY s SSSP 1"]),
    ("pagerank", &["QUERY s PAGERANK 10"]),
    ("cc", &["QUERY s CC"]),
    ("tricount", &["QUERY s TRICOUNT"]),
    ("live-bfs0", &["QUERY live BFS 0"]),
    ("live-bfs3", &["QUERY live BFS 3"]),
    ("mxm", &["EXPR s MXM s SEMIRING ARITHMETIC"]),
    ("live-ewadd", &["EXPR live EWADD live BINOP Plus"]),
    (
        "batch",
        &[
            "BATCH",
            "EXPR s MXM s SEMIRING ARITHMETIC",
            "EXPR s MXM s SEMIRING ARITHMETIC",
            "QUERY s BFS 2",
        ],
    ),
];

const LIVE_N: usize = 16;
const ROUNDS: usize = 3;
const UPDATES: usize = 20;

/// A re-weighting of two existing path edges: same pattern, new values.
fn update_line(k: usize) -> String {
    format!("UPDATE live ADD 0:1:{k}.5,3:4:{}.25", k + 1)
}

/// What one request left behind: its ID, census label, and payload.
struct Sent {
    id: u64,
    label: &'static str,
    payload: String,
}

fn send(c: &mut Client, label: &'static str, lines: &[&str]) -> Sent {
    let payload = if lines[0] == "BATCH" {
        match c.batch(&lines[1..]).expect("batch answered") {
            Frame::Ok(p) => p,
            other => panic!("{label}: {other:?}"),
        }
    } else {
        c.request_ok(lines[0])
            .unwrap_or_else(|e| panic!("{label}: {e}"))
    };
    Sent {
        id: c.last_request_id().expect("every reply echoes its ID"),
        label,
        payload,
    }
}

/// The `"version":N` a reply names, if it names one.
fn reply_version(payload: &str) -> Option<u64> {
    let at = payload.find("\"version\":")? + "\"version\":".len();
    let digits: String = payload[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn records() -> HashMap<u64, pygb_obs::RecordedRequest> {
    pygb_obs::recorder()
        .tail(pygb_obs::RECORDER_CAPACITY)
        .into_iter()
        .map(|r| (r.id, r))
        .collect()
}

/// Process-wide (kernel invocations, launches saved).
fn global_census() -> (u64, u64) {
    let snap = pygb_obs::registry().snapshot();
    (
        snap.counter("jit/invocations"),
        snap.counter("opt/launches_saved"),
    )
}

fn server(catalog: &Arc<Catalog>, workers: usize) -> Server {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    Server::start(Arc::clone(catalog), config).expect("server starts")
}

#[test]
fn flight_records_attribute_exactly_their_own_request() {
    let catalog = Arc::new(Catalog::new());
    let setup = server(&catalog, 1);
    let mut c = Client::connect(setup.local_addr()).unwrap();
    c.request_ok("REGISTER s ER 48 200 7 SYM").unwrap();
    let path: Vec<String> = (0..LIVE_N - 1)
        .map(|i| format!("{i}:{}:1", i + 1))
        .collect();
    c.request_ok(&format!(
        "REGISTER live TRIPLES {LIVE_N} {LIVE_N} fp64 {}",
        path.join(",")
    ))
    .unwrap();

    // Each request alone, one worker, nothing else running.
    let mut solo: HashMap<&str, (u64, u64)> = HashMap::new();
    let mut alone: Vec<Sent> = READS
        .iter()
        .map(|&(l, lines)| send(&mut c, l, lines))
        .collect();
    let update = update_line(0);
    alone.push(send(&mut c, "update", &[update.as_str()]));
    let recs = records();
    for s in &alone {
        let r = &recs[&s.id];
        solo.insert(s.label, (r.kernel_delta, r.opt_delta));
    }
    assert!(solo["pagerank"].0 > 10, "solo census: {solo:?}");
    assert!(
        solo["batch"].1 > 0,
        "the batch's CSE saves launches: {solo:?}"
    );
    drop(c);
    setup.shutdown();

    for workers in [2, 4, 8] {
        let srv = server(&catalog, workers);
        let addr = srv.local_addr();
        let before = global_census();
        let readers: Vec<_> = (0..workers)
            .map(|t| {
                thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mut sent = Vec::new();
                    for round in 0..ROUNDS {
                        for k in 0..READS.len() {
                            let (label, lines) = READS[(k + t + round) % READS.len()];
                            sent.push(send(&mut c, label, lines));
                        }
                    }
                    sent
                })
            })
            .collect();
        let writer = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            (1..=UPDATES)
                .map(|k| send(&mut c, "update", &[update_line(k).as_str()]))
                .collect::<Vec<_>>()
        });
        let mut sent = writer.join().unwrap();
        for r in readers {
            sent.extend(r.join().unwrap());
        }
        let after = global_census();
        let recs = records();

        let (mut kernels, mut saved) = (0, 0);
        for s in &sent {
            let r = recs
                .get(&s.id)
                .unwrap_or_else(|| panic!("{workers} workers: r{} has no record", s.id));
            assert_eq!(
                (r.kernel_delta, r.opt_delta),
                solo[s.label],
                "{workers} workers: r{} ({}) counted other requests' work",
                s.id,
                s.label
            );
            // A batch reads several snapshots and records none.
            if let Some(v) = reply_version(&s.payload).filter(|_| s.label != "batch") {
                assert_eq!(
                    r.version, v,
                    "{workers} workers: r{} ({}) read version {v}, recorded {}",
                    s.id, s.label, r.version
                );
            }
            kernels += r.kernel_delta;
            saved += r.opt_delta;
        }
        assert_eq!(
            (kernels, saved),
            (after.0 - before.0, after.1 - before.1),
            "{workers} workers: records must sum to the process-wide deltas"
        );
        srv.shutdown();
    }
}
