//! Stress: N parallel query streams against a graph whose snapshot a
//! writer keeps swapping, plus a second static graph in the same
//! catalog. Every response must be oracle-exact *for the version it
//! reports* — a response mixing two versions (e.g. levels from v3 with
//! the node count of v4) fails the check.
//!
//! The version-keyed graph family makes the oracle deterministic: the
//! writer publishes path graphs whose length is a function of the
//! version, so a BFS response is fully predicted by the `version`
//! field it carries.

use pygb_serve::{Catalog, Client, ErrCode, Frame, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Path length for snapshot version `v` of the mutable graph.
fn path_len(version: u64) -> usize {
    8 + (version as usize % 7)
}

/// `REGISTER` line for the next version of the mutable graph, given
/// the version it will be assigned.
fn register_line(version: u64) -> String {
    let n = path_len(version);
    let triples: Vec<String> = (0..n - 1).map(|i| format!("{i}:{}:1", i + 1)).collect();
    format!("REGISTER swap TRIPLES {n} {n} fp64 {}", triples.join(","))
}

/// Exact expected BFS-from-0 payload fragment for a path of `n` nodes.
fn expected_levels(n: usize) -> String {
    let pairs: Vec<String> = (0..n).map(|i| format!("[{i},{}]", i + 1)).collect();
    format!("\"levels\":[{}]", pairs.join(","))
}

fn extract_version(payload: &str) -> u64 {
    let key = "\"version\":";
    let at = payload.find(key).expect("payload carries a version") + key.len();
    payload[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("version is numeric")
}

#[test]
fn parallel_queries_stay_oracle_exact_across_snapshot_swaps() {
    let server = Server::start(Arc::new(Catalog::new()), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Seed both graphs: the mutable one at version 1 and a static
    // second graph (a 5-cycle) that must stay untouched throughout.
    let mut seed = Client::connect(addr).unwrap();
    seed.hello("writer").unwrap();
    seed.request_ok(&register_line(1)).unwrap();
    seed.request_ok("REGISTER fixed TRIPLES 5 5 fp64 0:1:1,1:2:1,2:3:1,3:4:1,4:0:1")
        .unwrap();
    let fixed_oracle = "\"levels\":[[0,1],[1,2],[2,3],[3,4],[4,5]]";

    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicUsize::new(0));

    // Writer: keep swapping the `swap` graph to new versions.
    let writer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.hello("writer").unwrap();
            let mut version = 2;
            while !stop.load(Ordering::Relaxed) {
                let info = c.request_ok(&register_line(version)).unwrap();
                assert!(
                    info.contains(&format!("\"version\":{version}")),
                    "writer saw {info}"
                );
                version += 1;
                thread::sleep(Duration::from_millis(1));
            }
            version - 1 // last published version
        })
    };

    // Readers: hammer both graphs; verify every response against the
    // oracle keyed by the version the response itself reports.
    let readers: Vec<_> = (0..16)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let checked = Arc::clone(&checked);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.hello(&format!("reader-{r}")).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let swap = c.request("QUERY swap BFS 0").unwrap();
                    match swap {
                        Frame::Ok(payload) | Frame::OkWarn(payload, _) => {
                            let v = extract_version(&payload);
                            let n = path_len(v);
                            assert!(
                                payload.contains(&expected_levels(n)),
                                "version {v} response is not the version-{v} graph: {payload}"
                            );
                            assert!(payload.contains(&format!("\"nvals\":{n}")), "{payload}");
                            checked.fetch_add(1, Ordering::Relaxed);
                        }
                        // Under stress the server may shed; that must be
                        // structured, never a hang or a wrong answer.
                        Frame::Err(ErrCode::Overloaded | ErrCode::Timeout, _) => {}
                        Frame::Err(code, msg) => panic!("unexpected error {code}: {msg}"),
                    }
                    let fixed = c.request("QUERY fixed BFS 0").unwrap();
                    match fixed {
                        Frame::Ok(payload) | Frame::OkWarn(payload, _) => {
                            assert!(payload.contains("\"version\":1"), "{payload}");
                            assert!(payload.contains(fixed_oracle), "{payload}");
                            checked.fetch_add(1, Ordering::Relaxed);
                        }
                        Frame::Err(ErrCode::Overloaded | ErrCode::Timeout, _) => {}
                        Frame::Err(code, msg) => panic!("unexpected error {code}: {msg}"),
                    }
                }
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(750));
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    let last_version = writer.join().unwrap();

    assert!(
        last_version >= 10,
        "writer only reached version {last_version}"
    );
    let total = checked.load(Ordering::Relaxed);
    assert!(total >= 100, "only {total} oracle-checked responses");

    // The final catalog state is the writer's last published version.
    let snap = server.catalog().get("swap").unwrap();
    assert_eq!(snap.version, last_version);
    assert_eq!(snap.graph.nrows(), path_len(last_version));
}

// ---------------------------------------------------------------------
// Streaming-mutation stress: versions published by UPDATE deltas.
// ---------------------------------------------------------------------

/// Capacity of the streaming graph (fixed at REGISTER time; UPDATE
/// never resizes).
const STREAM_CAP: usize = 360;

/// The streaming writer cycles three update kinds; update `u` (which
/// publishes version `u + 1`) is:
///   u % 3 == 1 → ADD a path-extension edge (end grows by one)
///   u % 3 == 2 → ADD a self-loop at vertex 0 (BFS-invisible)
///   u % 3 == 0 → DEL that self-loop
/// so the path length visible at version `v` is a pure function of `v`.
fn stream_path_len(version: u64) -> usize {
    8 + (version as usize - 1).div_ceil(3)
}

/// Whether the self-loop at vertex 0 is present at `version`.
fn stream_loop_present(version: u64) -> bool {
    (version - 1) % 3 == 2
}

/// The UPDATE line for update number `u` (the one that publishes
/// version `u + 1`) of the streamed graph `graph`.
fn stream_update_line(graph: &str, u: u64) -> String {
    match u % 3 {
        1 => {
            let end = stream_path_len(u) - 1;
            format!("UPDATE {graph} ADD {end}:{}:1", end + 1)
        }
        2 => format!("UPDATE {graph} ADD 0:0:1"),
        _ => format!("UPDATE {graph} DEL 0:0"),
    }
}

#[test]
fn parallel_readers_stay_oracle_exact_across_streamed_updates() {
    let server = Server::start(Arc::new(Catalog::new()), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Version 1: an 8-vertex path 0→1→…→7 inside a fixed capacity.
    let mut seed = Client::connect(addr).unwrap();
    seed.hello("writer").unwrap();
    let base: Vec<String> = (0..7).map(|i| format!("{i}:{}:1", i + 1)).collect();
    seed.request_ok(&format!(
        "REGISTER stream TRIPLES {STREAM_CAP} {STREAM_CAP} fp64 {}",
        base.join(",")
    ))
    .unwrap();
    // A second streamed graph whose writer toggles one shortcut edge:
    // version even ⇔ edge 0→2 present. Exercises concurrent UPDATE
    // traffic on an independent catalog entry.
    seed.request_ok("REGISTER aux TRIPLES 3 3 fp64 0:1:1,1:2:1")
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicUsize::new(0));

    // Writer 1: stream the path/self-loop update cycle.
    let stream_writer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.hello("stream-writer").unwrap();
            let mut u = 1u64;
            while !stop.load(Ordering::Relaxed) && u < 900 {
                let info = c.request_ok(&stream_update_line("stream", u)).unwrap();
                assert!(
                    info.contains(&format!("\"version\":{}", u + 1)),
                    "update {u} saw {info}"
                );
                u += 1;
                thread::sleep(Duration::from_millis(1));
            }
            u // last published version
        })
    };

    // Writer 2: toggle the aux shortcut edge.
    let aux_writer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.hello("aux-writer").unwrap();
            let mut version = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let line = if version % 2 == 1 {
                    "UPDATE aux ADD 0:2:1"
                } else {
                    "UPDATE aux DEL 0:2"
                };
                let info = c.request_ok(line).unwrap();
                version += 1;
                assert!(
                    info.contains(&format!("\"version\":{version}")),
                    "aux writer saw {info}"
                );
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // 16 readers: every response must match the oracle keyed by the
    // version the response itself reports — a mix of two delta
    // publications fails the check.
    let readers: Vec<_> = (0..16)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let checked = Arc::clone(&checked);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.hello(&format!("reader-{r}")).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    match c.request("QUERY stream BFS 0").unwrap() {
                        Frame::Ok(payload) | Frame::OkWarn(payload, _) => {
                            let v = extract_version(&payload);
                            let n = stream_path_len(v);
                            assert!(
                                payload.contains(&expected_levels(n)),
                                "version {v} response is not the version-{v} delta: {payload}"
                            );
                            // The self-loop never reaches new vertices.
                            assert!(payload.contains(&format!("\"nvals\":{n}")), "{payload}");
                            checked.fetch_add(1, Ordering::Relaxed);
                        }
                        Frame::Err(ErrCode::Overloaded | ErrCode::Timeout, _) => {}
                        Frame::Err(code, msg) => panic!("unexpected error {code}: {msg}"),
                    }
                    match c.request("QUERY aux BFS 0").unwrap() {
                        Frame::Ok(payload) | Frame::OkWarn(payload, _) => {
                            let v = extract_version(&payload);
                            let expect = if v.is_multiple_of(2) {
                                "\"levels\":[[0,1],[1,2],[2,2]]" // shortcut present
                            } else {
                                "\"levels\":[[0,1],[1,2],[2,3]]"
                            };
                            assert!(
                                payload.contains(expect),
                                "aux version {v} mismatch: {payload}"
                            );
                            checked.fetch_add(1, Ordering::Relaxed);
                        }
                        Frame::Err(ErrCode::Overloaded | ErrCode::Timeout, _) => {}
                        Frame::Err(code, msg) => panic!("unexpected error {code}: {msg}"),
                    }
                }
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(750));
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    aux_writer.join().unwrap();
    let last_version = stream_writer.join().unwrap();

    assert!(
        last_version >= 10,
        "stream writer only reached version {last_version}"
    );
    let total = checked.load(Ordering::Relaxed);
    assert!(total >= 100, "only {total} oracle-checked responses");

    // Final state: the last delta publication, exactly.
    let snap = server.catalog().get("stream").unwrap();
    assert_eq!(snap.version, last_version);
    let n = stream_path_len(last_version);
    let loop_present = stream_loop_present(last_version);
    assert_eq!(snap.graph.nvals(), n - 1 + usize::from(loop_present));
}

/// Exact `EXPR race EWADD race BINOP Plus` payload at `version`: every
/// edge doubled.
fn expected_doubled(version: u64) -> String {
    let n = stream_path_len(version);
    let mut triples: Vec<String> = Vec::new();
    if stream_loop_present(version) {
        triples.push("[0,0,2]".to_string());
    }
    triples.extend((0..n - 1).map(|i| format!("[{i},{},2]", i + 1)));
    format!(
        "{{\"nrows\":{STREAM_CAP},\"ncols\":{STREAM_CAP},\"dtype\":\"fp64\",\"nvals\":{},\"triples\":[{}],\"truncated\":false}}",
        triples.len(),
        triples.join(",")
    )
}

/// Readers repeat a few `QUERY` and `EXPR` lines on a graph a writer
/// streams UPDATEs into, so most repeats hit an answer kept on a
/// snapshot while new versions keep arriving. Every reply must be the
/// oracle's for the version it was served from — the version the reply
/// names, or for an `EXPR` (which names none) the version its flight
/// record names — so an answer filed on, or served from, the wrong
/// snapshot fails.
#[test]
fn repeated_reads_never_mix_versions_under_racing_updates() {
    let server = Server::start(Arc::new(Catalog::new()), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let base: Vec<String> = (0..7).map(|i| format!("{i}:{}:1", i + 1)).collect();
    Client::connect(addr)
        .unwrap()
        .request_ok(&format!(
            "REGISTER race TRIPLES {STREAM_CAP} {STREAM_CAP} fp64 {}",
            base.join(",")
        ))
        .unwrap();
    let hits_before = pygb_obs::registry().counter("serve/result_hit").get();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut u = 1u64;
            while !stop.load(Ordering::Relaxed) && u < 300 {
                c.request_ok(&stream_update_line("race", u)).unwrap();
                u += 1;
                // Long enough for several readers to repeat a line on
                // each version, short enough to race many publishes.
                thread::sleep(Duration::from_millis(20));
            }
            u
        })
    };

    const LINES: [&str; 3] = [
        "QUERY race BFS 0",
        "EXPR race EWADD race BINOP Plus",
        "QUERY race BFS 0",
    ];
    let checked = Arc::new(AtomicUsize::new(0));
    let cached = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..8)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let (checked, cached) = (Arc::clone(&checked), Arc::clone(&cached));
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut k = r;
                while !stop.load(Ordering::Relaxed) {
                    let line = LINES[k % LINES.len()];
                    k += 1;
                    let payload = match c.request(line).unwrap() {
                        Frame::Ok(payload) | Frame::OkWarn(payload, _) => payload,
                        Frame::Err(ErrCode::Overloaded | ErrCode::Timeout, _) => continue,
                        Frame::Err(code, msg) => panic!("{line}: unexpected error {code}: {msg}"),
                    };
                    // The record is written before the reply is sent. The
                    // recorder stress test beside this one may have pushed
                    // it out of the ring already; such replies go unchecked.
                    let id = c.last_request_id().expect("every reply echoes its ID");
                    let Some(record) = pygb_obs::recorder()
                        .tail(pygb_obs::RECORDER_CAPACITY)
                        .into_iter()
                        .find(|rec| rec.id == id)
                    else {
                        continue;
                    };
                    if line.starts_with("EXPR") {
                        assert_eq!(
                            payload,
                            expected_doubled(record.version),
                            "{line} served as version {} ({:?})",
                            record.version,
                            record.outcome
                        );
                    } else {
                        let v = extract_version(&payload);
                        assert_eq!(record.version, v, "{line}: record and reply disagree");
                        let n = stream_path_len(v);
                        assert!(
                            payload.contains(&expected_levels(n)),
                            "version {v} reply ({:?}) is not the version-{v} graph: {payload}",
                            record.outcome
                        );
                    }
                    checked.fetch_add(1, Ordering::Relaxed);
                    if record.outcome == pygb_obs::Outcome::Cached {
                        cached.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // Each check drains the whole flight ring, which is slow under a
    // sanitizer: run at least 750 ms, longer until 100 replies are
    // checked (at most 30 s).
    let start = std::time::Instant::now();
    while start.elapsed() < Duration::from_millis(750)
        || (checked.load(Ordering::Relaxed) < 100 && start.elapsed() < Duration::from_secs(30))
    {
        thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    let last_version = writer.join().unwrap();
    let (checked, cached) = (
        checked.load(Ordering::Relaxed),
        cached.load(Ordering::Relaxed),
    );
    assert!(
        last_version >= 10,
        "writer only reached version {last_version}"
    );
    assert!(checked >= 50, "only {checked} oracle-checked replies");
    assert!(cached > 0, "no checked reply was served from a kept answer");
    assert!(pygb_obs::registry().counter("serve/result_hit").get() > hits_before);
}

#[test]
fn concurrent_expr_writes_into_distinct_names_do_not_collide() {
    let server = Server::start(Arc::new(Catalog::new()), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut seed = Client::connect(addr).unwrap();
    // 3-cycle adjacency; squaring it is a deterministic permutation.
    seed.request_ok("REGISTER base TRIPLES 3 3 fp64 0:1:1,1:2:1,2:0:1")
        .unwrap();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.hello(&format!("w{i}")).unwrap();
                let out = c
                    .request_ok(&format!(
                        "EXPR base MXM base SEMIRING ARITHMETIC INTO sq{i}"
                    ))
                    .unwrap();
                assert!(out.contains(&format!("\"name\":\"sq{i}\"")), "{out}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // All eight results exist and are the same (correct) square.
    for i in 0..8 {
        let snap = server.catalog().get(&format!("sq{i}")).unwrap();
        assert_eq!(snap.graph.nvals(), 3);
        assert_eq!(snap.graph.get(0, 2).unwrap().as_f64(), 1.0);
        assert_eq!(snap.graph.get(1, 0).unwrap().as_f64(), 1.0);
        assert_eq!(snap.graph.get(2, 1).unwrap().as_f64(), 1.0);
    }
}

/// Hammer the process-wide flight recorder from many writer threads
/// while a reader drains it continuously: every drained record must be
/// internally consistent (the writer stamps all fields from its thread
/// ID, so a record mixing two writers' fields is a torn read the
/// seqlock failed to reject), and IDs unique to this test must never
/// appear twice.
#[test]
fn flight_recorder_survives_concurrent_writers_and_readers() {
    use pygb_obs::{recorder, Outcome, RequestRecord};

    // IDs far above anything the servers in this process mint.
    const BASE: u64 = 1 << 40;
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 2_000;

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut checked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for rec in recorder().tail(pygb_obs::RECORDER_CAPACITY) {
                    if rec.id < BASE {
                        continue; // someone else's traffic
                    }
                    let w = (rec.id - BASE) / PER_WRITER;
                    let i = (rec.id - BASE) % PER_WRITER;
                    // Every field is derived from (w, i); any mismatch
                    // is a torn record.
                    assert_eq!(rec.tenant, format!("writer-{w}"), "torn tenant in {rec:?}");
                    assert_eq!(rec.version, w * 1_000_000 + i, "torn version in {rec:?}");
                    assert_eq!(rec.queue_wait_ns, w, "torn queue_wait in {rec:?}");
                    assert_eq!(rec.exec_ns, i, "torn exec in {rec:?}");
                    checked += 1;
                }
            }
            checked
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            thread::spawn(move || {
                let tenant = format!("writer-{w}");
                for i in 0..PER_WRITER {
                    recorder().record(&RequestRecord {
                        id: BASE + w * PER_WRITER + i,
                        tenant: &tenant,
                        verb: "stress",
                        graph: "ring",
                        version: w * 1_000_000 + i,
                        queue_wait_ns: w,
                        exec_ns: i,
                        outcome: Outcome::Ok,
                        kernel_delta: 0,
                        opt_delta: 0,
                    });
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checked = reader.join().unwrap();
    assert!(checked > 0, "reader never validated a record");

    // Final drain: no duplicate IDs from this test, newest-first order.
    let tail = recorder().tail(pygb_obs::RECORDER_CAPACITY);
    let mine: Vec<u64> = tail.iter().map(|r| r.id).filter(|&id| id >= BASE).collect();
    let mut dedup = mine.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), mine.len(), "duplicate IDs in the ring");
    assert!(
        tail.windows(2).all(|w| w[0].id >= w[1].id),
        "TAIL must be newest-first"
    );
}
