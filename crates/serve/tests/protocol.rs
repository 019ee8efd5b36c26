//! Wire-protocol integration tests: every verb over a real socket,
//! structured errors, batching, and deterministic load shedding.

use pygb_serve::{AdmissionConfig, Catalog, Client, ErrCode, Frame, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn server() -> Server {
    Server::start(Arc::new(Catalog::new()), ServerConfig::default()).unwrap()
}

#[test]
fn hello_ping_list_roundtrip() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let hello = c.hello("team-a").unwrap();
    assert!(hello.contains("\"protocol\":\"pygb-wire/1\""), "{hello}");
    assert!(hello.contains("\"tenant\":\"team-a\""), "{hello}");
    assert_eq!(c.ping().unwrap(), "pong");
    assert_eq!(c.list().unwrap(), "[]");
}

#[test]
fn register_query_drop_lifecycle() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let info = c
        .request_ok("REGISTER g TRIPLES 4 4 fp64 0:1:1,1:2:1,2:3:1")
        .unwrap();
    assert!(info.contains("\"name\":\"g\""), "{info}");
    assert!(info.contains("\"version\":1"), "{info}");
    assert!(info.contains("\"nvals\":3"), "{info}");

    let bfs = c.request_ok("QUERY g BFS 0").unwrap();
    assert!(
        bfs.contains("\"levels\":[[0,1],[1,2],[2,3],[3,4]]"),
        "{bfs}"
    );

    // Upsert bumps the version; queries see the new graph.
    let info2 = c.request_ok("REGISTER g TRIPLES 2 2 fp64 0:1:1").unwrap();
    assert!(info2.contains("\"version\":2"), "{info2}");
    let bfs2 = c.request_ok("QUERY g BFS 0").unwrap();
    assert!(bfs2.contains("\"version\":2"), "{bfs2}");
    assert!(bfs2.contains("\"levels\":[[0,1],[1,2]]"), "{bfs2}");

    assert_eq!(c.request_ok("DROP g").unwrap(), "{\"dropped\":\"g\"}");
    assert_eq!(
        c.request("QUERY g BFS 0").unwrap(),
        Frame::Err(ErrCode::NotFound, "no graph named `g`".to_string())
    );
}

#[test]
fn structured_errors_keep_the_connection_usable() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    for (line, code) in [
        ("FROBNICATE", ErrCode::BadRequest),
        ("QUERY nope CC", ErrCode::NotFound),
        ("QUERY", ErrCode::BadRequest),
        ("REGISTER g ER x y z", ErrCode::BadRequest),
    ] {
        match c.request(line).unwrap() {
            Frame::Err(got, _) => assert_eq!(got, code, "line {line:?}"),
            Frame::Ok(p) | Frame::OkWarn(p, _) => panic!("line {line:?} unexpectedly ok: {p}"),
        }
    }
    // The connection survives every error above.
    assert_eq!(c.ping().unwrap(), "pong");
}

#[test]
fn all_five_algorithms_answer() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g ER 100 600 42 SYM").unwrap();
    for (line, needle) in [
        ("QUERY g BFS 0", "\"algo\":\"bfs\""),
        ("QUERY g SSSP 0", "\"algo\":\"sssp\""),
        ("QUERY g PAGERANK 30", "\"algo\":\"pagerank\""),
        ("QUERY g TRICOUNT", "\"triangles\":"),
        ("QUERY g CC", "\"components\":"),
    ] {
        let out = c.request_ok(line).unwrap();
        assert!(out.contains(needle), "{line}: {out}");
        assert!(out.contains("\"version\":1"), "{line}: {out}");
    }
}

#[test]
fn expr_masked_into_catalog() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER a TRIPLES 2 2 fp64 0:0:1,0:1:2,1:0:3,1:1:4")
        .unwrap();
    c.request_ok("REGISTER m TRIPLES 2 2 fp64 0:0:1").unwrap();
    let info = c
        .request_ok("EXPR a MXM a SEMIRING ARITHMETIC MASK m INTO sq")
        .unwrap();
    assert!(info.contains("\"name\":\"sq\""), "{info}");
    // Only the masked position survives: (A@A)[0,0] = 1*1 + 2*3 = 7.
    let out = c.request_ok("EXPR sq EWADD sq BINOP Plus").unwrap();
    assert!(out.contains("\"nvals\":1"), "{out}");
    assert!(out.contains("[0,0,14]"), "{out}");
}

#[test]
fn update_add_del_roundtrip_over_the_wire() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g TRIPLES 4 4 fp64 0:1:1,1:2:1,2:3:1")
        .unwrap();

    // Extend the path 0→1→2→3 with a back edge 3→0: BFS levels from 0
    // are unchanged (0 is already level 1), but nvals grows.
    let info = c.request_ok("UPDATE g ADD 3:0:1").unwrap();
    assert!(info.contains("\"version\":2"), "{info}");
    assert!(info.contains("\"nvals\":4"), "{info}");
    let bfs = c.request_ok("QUERY g BFS 0").unwrap();
    assert!(bfs.contains("\"version\":2"), "{bfs}");
    assert!(
        bfs.contains("\"levels\":[[0,1],[1,2],[2,3],[3,4]]"),
        "{bfs}"
    );

    // Cut 0→1: the rest of the path becomes unreachable from 0.
    let info = c.request_ok("UPDATE g DEL 0:1").unwrap();
    assert!(info.contains("\"version\":3"), "{info}");
    assert!(info.contains("\"nvals\":3"), "{info}");
    let bfs = c.request_ok("QUERY g BFS 0").unwrap();
    assert!(bfs.contains("\"levels\":[[0,1]]"), "{bfs}");

    // Deleting an absent edge is a no-op but still publishes.
    let info = c.request_ok("UPDATE g DEL 0:1").unwrap();
    assert!(info.contains("\"version\":4"), "{info}");
    assert!(info.contains("\"nvals\":3"), "{info}");
}

#[test]
fn update_errors_are_structured_and_connection_survives() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g TRIPLES 2 2 fp64 0:1:1").unwrap();
    for (line, code) in [
        ("UPDATE ghost ADD 0:0:1", ErrCode::NotFound),
        ("UPDATE g ADD 9:9:1", ErrCode::BadRequest), // out of bounds
        ("UPDATE g ADD 0:1", ErrCode::BadRequest),   // malformed entry
        ("UPDATE g DEL 0:1:5", ErrCode::BadRequest), // DEL takes no value
        ("UPDATE g", ErrCode::BadRequest),
    ] {
        match c.request(line).unwrap() {
            Frame::Err(got, _) => assert_eq!(got, code, "line {line:?}"),
            Frame::Ok(p) | Frame::OkWarn(p, _) => panic!("line {line:?} unexpectedly ok: {p}"),
        }
    }
    // Failed updates never publish.
    assert_eq!(srv.catalog().get("g").unwrap().version, 1);
    assert_eq!(c.ping().unwrap(), "pong");
}

#[test]
fn update_values_cast_to_the_graph_dtype() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g TRIPLES 2 2 int32 0:1:1").unwrap();
    let info = c.request_ok("UPDATE g ADD 1:0:3.7").unwrap();
    assert!(info.contains("\"dtype\":\"int32\""), "{info}");
    let snap = srv.catalog().get("g").unwrap();
    assert_eq!(snap.graph.get(1, 0).unwrap().as_i64(), 3);
}

#[test]
fn update_joins_register_and_query_in_a_batch() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let frame = c
        .batch(&[
            "REGISTER g TRIPLES 3 3 fp64 0:1:1",
            "UPDATE g ADD 1:2:1",
            "QUERY g BFS 0",
        ])
        .unwrap();
    let Frame::Ok(payload) = frame else {
        panic!("batch failed: {frame:?}")
    };
    assert!(payload.contains("\"version\":2"), "{payload}");
    assert!(
        payload.contains("\"levels\":[[0,1],[1,2],[2,3]]"),
        "{payload}"
    );
}

#[test]
fn update_metrics_show_up_in_stats() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g TRIPLES 2 2 fp64 0:1:1").unwrap();
    c.request_ok("UPDATE g ADD 1:0:1").unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.contains("serve/catalog_updates"), "{stats}");
    assert!(stats.contains("stream/update_batches"), "{stats}");
    assert!(stats.contains("stream/edges_added"), "{stats}");
}

#[test]
fn batch_reports_per_item_results() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g TRIPLES 3 3 fp64 0:1:1,1:2:1")
        .unwrap();
    let frame = c
        .batch(&["QUERY g BFS 0", "QUERY ghost BFS 0", "QUERY g CC"])
        .unwrap();
    let Frame::Ok(payload) = frame else {
        panic!("batch failed: {frame:?}")
    };
    assert!(payload.starts_with("[{\"ok\":"), "{payload}");
    assert!(
        payload.contains("\"err\":{\"code\":\"not-found\""),
        "{payload}"
    );
    assert!(payload.contains("\"components\":"), "{payload}");
}

#[test]
fn replace_without_mask_surfaces_an_analyzer_warning() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER a TRIPLES 2 2 fp64 0:0:1,1:1:2")
        .unwrap();
    let (payload, warnings) = c
        .request_with_warnings("EXPR a EWADD a BINOP Plus REPLACE")
        .unwrap();
    assert!(payload.contains("\"triples\":"), "{payload}");
    assert!(
        warnings
            .iter()
            .any(|w| w.contains("replace without a mask")),
        "expected the replace-without-mask lint, got {warnings:?}"
    );
    // The same expression without REPLACE answers clean.
    let (_, clean) = c
        .request_with_warnings("EXPR a EWADD a BINOP Plus")
        .unwrap();
    assert!(clean.is_empty(), "unexpected warnings: {clean:?}");
}

/// `QUERY … BFS` answers without `WARN` lines on fp64, int32 and uint64
/// graphs — the frontier product is logical, so its bool cast loses
/// nothing — and a stored zero-valued edge (1 → 2 here) is no edge.
#[test]
fn bfs_replies_carry_no_warnings_and_skip_zero_edges() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    for dtype in ["fp64", "int32", "uint64"] {
        c.request_ok(&format!(
            "REGISTER g_{dtype} TRIPLES 4 4 {dtype} 0:1:1,1:2:0,1:3:2,3:2:1"
        ))
        .unwrap();
        let (payload, warnings) = c
            .request_with_warnings(&format!("QUERY g_{dtype} BFS 0"))
            .unwrap();
        assert!(warnings.is_empty(), "{dtype}: {warnings:?}");
        assert!(
            payload.contains("\"levels\":[[0,1],[1,2],[2,4],[3,3]]"),
            "{dtype}: {payload}"
        );
    }
}

#[test]
fn complemented_empty_mask_surfaces_an_analyzer_warning() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER a TRIPLES 2 2 fp64 0:0:1,1:1:2")
        .unwrap();
    // Empty the mask graph through the streaming path.
    c.request_ok("REGISTER m TRIPLES 2 2 fp64 0:0:1").unwrap();
    c.request_ok("UPDATE m DEL 0:0").unwrap();
    let (payload, warnings) = c
        .request_with_warnings("EXPR a EWADD a BINOP Plus MASK m COMPLEMENT")
        .unwrap();
    // The complement of an empty mask selects everything.
    assert!(payload.contains("\"nvals\":2"), "{payload}");
    assert!(
        warnings
            .iter()
            .any(|w| w.contains("complemented mask has no stored values")),
        "expected the empty-complement lint, got {warnings:?}"
    );
}

#[test]
fn batched_duplicate_exprs_cse_merge_into_one_dispatch() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER a TRIPLES 2 2 fp64 0:0:1,0:1:2,1:0:3,1:1:4")
        .unwrap();
    // The oracle: the same expression evaluated alone.
    let solo = c.request_ok("EXPR a MXM a SEMIRING ARITHMETIC").unwrap();

    let before = pygb_obs::registry().snapshot();
    let frame = c
        .batch(&[
            "EXPR a MXM a SEMIRING ARITHMETIC",
            "EXPR a MXM a SEMIRING ARITHMETIC",
            "EXPR a MXM a SEMIRING ARITHMETIC",
        ])
        .unwrap();
    let Frame::Ok(payload) = frame else {
        panic!("batch failed: {frame:?}")
    };
    let after = pygb_obs::registry().snapshot();

    // Every member answers, and answers exactly what the solo run did.
    let expected = format!("[{{\"ok\":{solo}}},{{\"ok\":{solo}}},{{\"ok\":{solo}}}]");
    assert_eq!(payload, expected, "grouped members must match the oracle");

    // The three identical members ran as one group; two collapsed.
    assert!(
        after.counter("serve/expr_grouped") - before.counter("serve/expr_grouped") >= 3,
        "consecutive EXPR members must be grouped"
    );
    assert!(
        after.counter("opt/cse_deduped") - before.counter("opt/cse_deduped") >= 2,
        "duplicate EXPR members must CSE-merge: {}",
        after.to_json()
    );
}

#[test]
fn expr_group_reports_per_member_errors_without_poisoning_the_rest() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER a TRIPLES 2 2 fp64 0:0:1,0:1:2")
        .unwrap();
    let frame = c
        .batch(&[
            "EXPR a EWADD a BINOP Plus",
            "EXPR a MXM ghost SEMIRING ARITHMETIC",
            "EXPR a EWMULT a BINOP Times",
        ])
        .unwrap();
    let Frame::Ok(payload) = frame else {
        panic!("batch failed: {frame:?}")
    };
    let items: Vec<&str> = payload
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split("},{")
        .collect();
    assert_eq!(items.len(), 3, "{payload}");
    assert!(items[0].contains("\"ok\":"), "{payload}");
    assert!(items[1].contains("\"code\":\"not-found\""), "{payload}");
    assert!(items[2].contains("\"ok\":"), "{payload}");
}

#[test]
fn batch_rejects_non_query_members() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    match c.batch(&["PING"]).unwrap() {
        Frame::Err(ErrCode::BadRequest, msg) => assert!(msg.contains("batch"), "{msg}"),
        other => panic!("expected bad-request, got {other:?}"),
    }
    assert_eq!(c.ping().unwrap(), "pong");
}

#[test]
fn zero_capacity_tenant_is_shed_with_overloaded() {
    let srv = Server::start(
        Arc::new(Catalog::new()),
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight: 64,
                per_tenant: 0,
                queue_timeout: Duration::from_secs(5),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    // Cheap verbs bypass admission and still work...
    assert_eq!(c.ping().unwrap(), "pong");
    // ...heavy ones shed gracefully instead of hanging or panicking.
    match c.request("REGISTER g ER 10 20 1").unwrap() {
        Frame::Err(ErrCode::Overloaded, msg) => {
            assert!(msg.contains("capacity"), "{msg}")
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert_eq!(c.ping().unwrap(), "pong");
}

#[test]
fn expired_queue_deadline_returns_timeout() {
    let srv = Server::start(
        Arc::new(Catalog::new()),
        ServerConfig {
            admission: AdmissionConfig {
                queue_timeout: Duration::ZERO, // every job expires in queue
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    match c.request("REGISTER g ER 10 20 1").unwrap() {
        Frame::Err(ErrCode::Timeout, msg) => assert!(msg.contains("expired"), "{msg}"),
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn stats_exposes_serve_metrics_and_tunables() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.request_ok("REGISTER g TRIPLES 2 2 fp64 0:1:1").unwrap();
    c.request_ok("QUERY g BFS 0").unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.contains("serve/requests"), "{stats}");
    assert!(stats.contains("serve/admitted"), "{stats}");
    assert!(stats.contains("serve/completed"), "{stats}");
    assert!(stats.contains("serve/catalog_registers"), "{stats}");
    assert!(stats.contains("serve/request_ns"), "{stats}");
    // The promoted push/pull density tunable is mirrored as metrics.
    assert!(stats.contains("tunables/push_pull_density_ppm"), "{stats}");
}

#[test]
fn request_spans_land_in_the_chrome_trace_export() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.hello("traced").unwrap();
    pygb_obs::enable();
    c.request_ok("REGISTER t TRIPLES 2 2 fp64 0:1:1").unwrap();
    c.request_ok("QUERY t BFS 0").unwrap();
    pygb_obs::disable();
    let trace = pygb_obs::chrome_trace_json();
    assert!(
        trace.contains("\"cat\":\"serve\""),
        "no serve spans: {trace}"
    );
    assert!(trace.contains("serve query tenant=traced"), "{trace}");
    assert!(trace.contains("serve register tenant=traced"), "{trace}");
}

#[test]
fn tenants_share_a_connectionless_catalog() {
    let srv = server();
    let mut a = Client::connect(srv.local_addr()).unwrap();
    let mut b = Client::connect(srv.local_addr()).unwrap();
    a.hello("tenant-a").unwrap();
    b.hello("tenant-b").unwrap();
    a.request_ok("REGISTER shared TRIPLES 2 2 fp64 0:1:1")
        .unwrap();
    let out = b.request_ok("QUERY shared BFS 0").unwrap();
    assert!(out.contains("\"graph\":\"shared\""), "{out}");
}

// ---------------------------------------------------------------------
// Request-scoped observability: IDs, the flight ring, EXPLAIN, METRICS.
// ---------------------------------------------------------------------

#[test]
fn responses_carry_request_ids_on_ok_and_err() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    assert!(c.last_request_id().is_none());
    c.ping().unwrap();
    let first = c.last_request_id().expect("OK frames carry an ID token");
    // Even a parse failure is addressable: the ID is minted before
    // parsing, so the bad-request frame still carries one.
    let frame = c.request("FROBNICATE").unwrap();
    assert!(
        matches!(frame, Frame::Err(ErrCode::BadRequest, _)),
        "{frame:?}"
    );
    let second = c.last_request_id().expect("ERR frames carry an ID token");
    assert!(second > first, "IDs are monotone: r{first} then r{second}");
}

#[test]
fn tail_and_slow_expose_the_flight_ring() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.hello("ringer").unwrap();
    c.request_ok("REGISTER ringg TRIPLES 3 3 fp64 0:1:1,1:2:1")
        .unwrap();
    c.request_ok("QUERY ringg BFS 0").unwrap();
    let qid = c.last_request_id().unwrap();
    // A failing heavy request is recorded too, with its error outcome.
    let _ = c.request("QUERY missing-graph BFS 0").unwrap();
    let eid = c.last_request_id().unwrap();

    let tail = c.request_ok("TAIL 4096").unwrap();
    let ok_rec = format!(
        "{{\"id\":\"r{qid}\",\"tenant\":\"ringer\",\"verb\":\"query\",\"graph\":\"ringg\",\"version\":1"
    );
    assert!(tail.contains(&ok_rec), "no record for r{qid}: {tail}");
    let err_rec = format!("{{\"id\":\"r{eid}\",");
    assert!(tail.contains(&err_rec), "no record for r{eid}: {tail}");
    let err_entry = tail
        .split("},{")
        .find(|e| e.contains(&format!("\"id\":\"r{eid}\"")))
        .unwrap();
    assert!(err_entry.contains("\"outcome\":\"error\""), "{err_entry}");

    // SLOW surfaces the same records, ranked by exec time.
    let slow = c.request_ok("SLOW 4096").unwrap();
    assert!(slow.contains(&format!("\"id\":\"r{qid}\"")), "{slow}");

    // Cheap verbs (PING, TAIL itself) must not pollute the ring.
    c.ping().unwrap();
    let ping_id = c.last_request_id().unwrap();
    let tail2 = c.request_ok("TAIL 4096").unwrap();
    assert!(
        !tail2.contains(&format!("\"id\":\"r{ping_id}\"")),
        "PING leaked into the flight ring: {tail2}"
    );
}

#[test]
fn explain_unknown_id_is_not_found() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let frame = c.request("EXPLAIN r987654321987").unwrap();
    match frame {
        Frame::Err(ErrCode::NotFound, msg) => {
            assert!(msg.contains("r987654321987"), "{msg}");
        }
        other => panic!("want not-found, got {other:?}"),
    }
    // Bad ID syntax is a bad-request, not a crash.
    let frame = c.request("EXPLAIN banana").unwrap();
    assert!(
        matches!(frame, Frame::Err(ErrCode::BadRequest, _)),
        "{frame:?}"
    );
}

#[test]
fn slow_request_is_findable_and_explainable_by_id() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.hello("sleuth").unwrap();
    // Capture everything while this test drives the loop end-to-end:
    // heavy EXPR -> ID on the response -> findable via SLOW -> full
    // plan + per-node timings via EXPLAIN.
    c.request_ok("SLOW THRESHOLD 1").unwrap();
    c.request_ok("REGISTER sg TRIPLES 4 4 fp64 0:0:1,0:1:2,1:0:3,1:1:4,2:3:1,3:2:1")
        .unwrap();
    c.request_ok("EXPR sg MXM sg SEMIRING ARITHMETIC").unwrap();
    let id = c.last_request_id().unwrap();

    let slow = c.request_ok("SLOW 4096").unwrap();
    assert!(slow.contains(&format!("\"id\":\"r{id}\"")), "{slow}");

    let explain = c.request_ok(&format!("EXPLAIN r{id}")).unwrap();
    assert!(
        explain.contains(&format!("request r{id} tenant=sleuth verb=expr")),
        "{explain}"
    );
    assert!(
        explain.contains("--- plan (captured pre-flush) ---"),
        "{explain}"
    );
    assert!(
        explain.contains("--- execution (per-node measured ns) ---"),
        "{explain}"
    );
    assert!(
        explain.contains(&format!("trace report [r{id}]")),
        "{explain}"
    );

    // QUERY verbs flush inside library code: no pre-flush plan window,
    // but the per-node report is still captured and attributed.
    c.request_ok("QUERY sg BFS 0").unwrap();
    let qid = c.last_request_id().unwrap();
    let explain = c.request_ok(&format!("EXPLAIN r{qid}")).unwrap();
    assert!(explain.contains("--- plan unavailable"), "{explain}");

    c.request_ok(&format!("SLOW THRESHOLD {}", pygb_serve::DEFAULT_SLOW_NS))
        .unwrap();
}

#[test]
fn metrics_verb_emits_prometheus_exposition() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.hello("promtenant").unwrap();
    c.request_ok("REGISTER pm TRIPLES 2 2 fp64 0:1:1").unwrap();
    c.request_ok("QUERY pm BFS 0").unwrap();
    let m = c.request_ok("METRICS").unwrap();
    assert!(m.contains("# TYPE pygb_serve_requests counter"), "{m}");
    assert!(m.contains("# TYPE pygb_serve_request_ns histogram"), "{m}");
    assert!(m.contains("pygb_serve_request_ns_bucket"), "{m}");
    assert!(m.contains("le=\"+Inf\""), "{m}");
    // Labeled series: per-tenant/per-verb request latency + outcomes.
    assert!(
        m.contains("tenant=\"promtenant\"") && m.contains("verb=\"query\""),
        "{m}"
    );
    // The live slow threshold is mirrored into the exposition.
    assert!(m.contains("pygb_tunables_slow_ns"), "{m}");
}

#[test]
fn trace_dump_writes_chrome_trace_on_demand() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.hello("dumper").unwrap();
    pygb_obs::enable();
    c.request_ok("REGISTER tdg TRIPLES 2 2 fp64 0:1:1").unwrap();
    c.request_ok("QUERY tdg BFS 0").unwrap();
    pygb_obs::disable();
    let path = std::env::temp_dir().join(format!("pygb_trace_dump_{}.json", std::process::id()));
    let out = c
        .request_ok(&format!("TRACE DUMP {}", path.display()))
        .unwrap();
    assert!(out.contains("\"dumped\""), "{out}");
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("\"traceEvents\":["), "{body}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn shed_requests_are_recorded_with_their_cause() {
    let srv = Server::start(
        Arc::new(Catalog::new()),
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight: 10,
                per_tenant: 0,
                queue_timeout: Duration::from_millis(200),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.hello("shed-me").unwrap();
    let frame = c.request("QUERY g BFS 0").unwrap();
    assert!(
        matches!(frame, Frame::Err(ErrCode::Overloaded, _)),
        "{frame:?}"
    );
    let id = c.last_request_id().unwrap();
    let tail = c.request_ok("TAIL 4096").unwrap();
    let entry = tail
        .split("},{")
        .find(|e| e.contains(&format!("\"id\":\"r{id}\"")))
        .unwrap_or_else(|| panic!("shed request r{id} not recorded: {tail}"));
    assert!(entry.contains("\"outcome\":\"shed-tenant\""), "{entry}");
}
