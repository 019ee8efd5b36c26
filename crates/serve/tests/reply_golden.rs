//! Reply goldens: the exact payload bytes `execute` answers for every
//! algorithm and both element-wise/product `EXPR` forms, on one small
//! hand-built graph per dtype. Any change to how replies are rendered
//! must leave these literals byte-identical. Also: replies past the
//! entry cap are cut at exactly the cap, and replies carrying
//! non-finite values are still valid JSON. Through a live server, a
//! repeated request is answered with the first reply's frame, byte for
//! byte but for its `ID rN`.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pygb_jit::json::{self, Value};
use pygb_serve::query::{execute, parse, MAX_RESULT_ENTRIES};
use pygb_serve::{wire, Catalog, Frame, Server, ServerConfig};

/// A symmetric 5-vertex graph (vertex 4 isolated): edges 0–1, 0–2,
/// 1–2, 1–3, 2–3, so two triangles, with the given weights in order.
fn register(catalog: &Catalog, name: &str, dtype: &str, w: [&str; 5]) {
    let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)];
    let body: Vec<String> = edges
        .iter()
        .zip(w)
        .flat_map(|(&(i, j), w)| [format!("{i}:{j}:{w}"), format!("{j}:{i}:{w}")])
        .collect();
    let line = format!("REGISTER {name} TRIPLES 5 5 {dtype} {}", body.join(","));
    execute(catalog, &parse(&line).unwrap()).unwrap();
}

fn catalog() -> Catalog {
    let catalog = Catalog::new();
    register(&catalog, "fi", "fp64", ["1", "4", "2", "7", "3"]);
    register(
        &catalog,
        "ff",
        "fp64",
        ["0.5", "1.25", "0.1", "2.75", "0.001"],
    );
    register(&catalog, "i32", "int32", ["1", "4", "2", "7", "3"]);
    register(
        &catalog,
        "u64",
        "uint64",
        ["3", "5", "1000000007", "2", "9"],
    );
    register(&catalog, "b", "bool", ["1", "1", "1", "1", "1"]);
    catalog
}

fn reply(catalog: &Catalog, line: &str) -> String {
    execute(catalog, &parse(line).unwrap()).unwrap()
}

/// `(request, reply)`, captured from the renderer these replace.
const GOLDENS: &[(&str, &str)] = &[
    (
        "QUERY fi BFS 0",
        r#"{"graph":"fi","version":1,"algo":"bfs","source":0,"levels":[[0,1],[1,2],[2,2],[3,3]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY fi SSSP 0",
        r#"{"graph":"fi","version":1,"algo":"sssp","source":0,"dist":[[0,0],[1,1],[2,3],[3,6]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY fi PAGERANK 20",
        r#"{"graph":"fi","version":1,"algo":"pagerank","iters":20,"ranks":[[0,0.13068368323679588],[1,0.2275961245527182],[2,0.2152863702948841],[3,0.22643382191560177],[4,0.030000000000000006]],"nvals":5,"truncated":false}"#,
    ),
    (
        "QUERY fi CC",
        r#"{"graph":"fi","version":1,"algo":"cc","components":2,"rounds":2,"labels":[[0,1],[1,1],[2,1],[3,1],[4,5]],"truncated":false}"#,
    ),
    (
        "QUERY fi TRICOUNT",
        r#"{"graph":"fi","version":1,"algo":"tricount","triangles":18}"#,
    ),
    (
        "EXPR fi MXM fi SEMIRING ARITHMETIC",
        r#"{"nrows":5,"ncols":5,"dtype":"fp64","nvals":16,"triples":[[0,0,17],[0,1,8],[0,2,2],[0,3,19],[1,0,8],[1,1,54],[1,2,25],[1,3,6],[2,0,2],[2,1,25],[2,2,29],[2,3,14],[3,0,19],[3,1,6],[3,2,14],[3,3,58]],"truncated":false}"#,
    ),
    (
        "EXPR fi EWADD fi BINOP Plus",
        r#"{"nrows":5,"ncols":5,"dtype":"fp64","nvals":10,"triples":[[0,1,2],[0,2,8],[1,0,2],[1,2,4],[1,3,14],[2,0,8],[2,1,4],[2,3,6],[3,1,14],[3,2,6]],"truncated":false}"#,
    ),
    (
        "QUERY ff BFS 0",
        r#"{"graph":"ff","version":1,"algo":"bfs","source":0,"levels":[[0,1],[1,2],[2,2],[3,3]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY ff SSSP 0",
        r#"{"graph":"ff","version":1,"algo":"sssp","source":0,"dist":[[0,0],[1,0.5],[2,0.6],[3,0.601]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY ff PAGERANK 20",
        r#"{"graph":"ff","version":1,"algo":"pagerank","iters":20,"ranks":[[0,0.17702433561613284],[1,0.2641331540429483],[2,0.144153884455011],[3,0.21468862588590779],[4,0.030000000000000006]],"nvals":5,"truncated":false}"#,
    ),
    (
        "QUERY ff CC",
        r#"{"graph":"ff","version":1,"algo":"cc","components":2,"rounds":2,"labels":[[0,1],[1,1],[2,1],[3,1],[4,5]],"truncated":false}"#,
    ),
    (
        "QUERY ff TRICOUNT",
        r#"{"graph":"ff","version":1,"algo":"tricount","triangles":0}"#,
    ),
    (
        "EXPR ff MXM ff SEMIRING ARITHMETIC",
        r#"{"nrows":5,"ncols":5,"dtype":"fp64","nvals":16,"triples":[[0,0,1.8125],[0,1,0.125],[0,2,0.05],[0,3,1.37625],[1,0,0.125],[1,1,7.8225],[1,2,0.62775],[1,3,0.0001],[2,0,0.05],[2,1,0.62775],[2,2,1.572501],[2,3,0.275],[3,0,1.37625],[3,1,0.0001],[3,2,0.275],[3,3,7.562501]],"truncated":false}"#,
    ),
    (
        "EXPR ff EWADD ff BINOP Plus",
        r#"{"nrows":5,"ncols":5,"dtype":"fp64","nvals":10,"triples":[[0,1,1],[0,2,2.5],[1,0,1],[1,2,0.2],[1,3,5.5],[2,0,2.5],[2,1,0.2],[2,3,0.002],[3,1,5.5],[3,2,0.002]],"truncated":false}"#,
    ),
    (
        "QUERY i32 BFS 0",
        r#"{"graph":"i32","version":1,"algo":"bfs","source":0,"levels":[[0,1],[1,2],[2,2],[3,3]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY i32 SSSP 0",
        r#"{"graph":"i32","version":1,"algo":"sssp","source":0,"dist":[[0,0],[1,1],[2,3],[3,6]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY i32 PAGERANK 20",
        r#"{"graph":"i32","version":1,"algo":"pagerank","iters":20,"ranks":[[0,0.13068368323679588],[1,0.2275961245527182],[2,0.2152863702948841],[3,0.22643382191560177],[4,0.030000000000000006]],"nvals":5,"truncated":false}"#,
    ),
    (
        "QUERY i32 CC",
        r#"{"graph":"i32","version":1,"algo":"cc","components":2,"rounds":2,"labels":[[0,1],[1,1],[2,1],[3,1],[4,5]],"truncated":false}"#,
    ),
    (
        "QUERY i32 TRICOUNT",
        r#"{"graph":"i32","version":1,"algo":"tricount","triangles":18}"#,
    ),
    (
        "EXPR i32 MXM i32 SEMIRING ARITHMETIC",
        r#"{"nrows":5,"ncols":5,"dtype":"int32","nvals":16,"triples":[[0,0,17],[0,1,8],[0,2,2],[0,3,19],[1,0,8],[1,1,54],[1,2,25],[1,3,6],[2,0,2],[2,1,25],[2,2,29],[2,3,14],[3,0,19],[3,1,6],[3,2,14],[3,3,58]],"truncated":false}"#,
    ),
    (
        "EXPR i32 EWADD i32 BINOP Plus",
        r#"{"nrows":5,"ncols":5,"dtype":"int32","nvals":10,"triples":[[0,1,2],[0,2,8],[1,0,2],[1,2,4],[1,3,14],[2,0,8],[2,1,4],[2,3,6],[3,1,14],[3,2,6]],"truncated":false}"#,
    ),
    (
        "QUERY u64 BFS 0",
        r#"{"graph":"u64","version":1,"algo":"bfs","source":0,"levels":[[0,1],[1,2],[2,2],[3,3]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY u64 SSSP 0",
        r#"{"graph":"u64","version":1,"algo":"sssp","source":0,"dist":[[0,0],[1,3],[2,5],[3,5]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY u64 PAGERANK 20",
        r#"{"graph":"u64","version":1,"algo":"pagerank","iters":20,"ranks":[[0,0.030000002532698668],[1,0.36704822226016925],[2,0.37295177168918686],[3,0.03000000351794546],[4,0.030000000000000006]],"nvals":5,"truncated":false}"#,
    ),
    (
        "QUERY u64 CC",
        r#"{"graph":"u64","version":1,"algo":"cc","components":2,"rounds":2,"labels":[[0,1],[1,1],[2,1],[3,1],[4,5]],"truncated":false}"#,
    ),
    (
        "QUERY u64 TRICOUNT",
        r#"{"graph":"u64","version":1,"algo":"tricount","triangles":2000000029}"#,
    ),
    (
        "EXPR u64 MXM u64 SEMIRING ARITHMETIC",
        r#"{"nrows":5,"ncols":5,"dtype":"uint64","nvals":16,"triples":[[0,0,34],[0,1,5000000035],[0,2,3000000021],[0,3,51],[1,0,5000000035],[1,1,1000000014000000062],[1,2,33],[1,3,9000000063],[2,0,3000000021],[2,1,33],[2,2,1000000014000000155],[2,3,2000000014],[3,0,51],[3,1,9000000063],[3,2,2000000014],[3,3,85]],"truncated":false}"#,
    ),
    (
        "EXPR u64 EWADD u64 BINOP Plus",
        r#"{"nrows":5,"ncols":5,"dtype":"uint64","nvals":10,"triples":[[0,1,6],[0,2,10],[1,0,6],[1,2,2000000014],[1,3,4],[2,0,10],[2,1,2000000014],[2,3,18],[3,1,4],[3,2,18]],"truncated":false}"#,
    ),
    (
        "QUERY b BFS 0",
        r#"{"graph":"b","version":1,"algo":"bfs","source":0,"levels":[[0,1],[1,2],[2,2],[3,3]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY b SSSP 0",
        r#"{"graph":"b","version":1,"algo":"sssp","source":0,"dist":[[0,0],[1,1],[2,1],[3,2]],"nvals":4,"truncated":false}"#,
    ),
    (
        "QUERY b PAGERANK 20",
        r#"{"graph":"b","version":1,"algo":"pagerank","iters":20,"ranks":[[0,0.16383020883772606],[1,0.2361697911622739],[2,0.2361697911622739],[3,0.16383020883772606],[4,0.030000000000000006]],"nvals":5,"truncated":false}"#,
    ),
    (
        "QUERY b CC",
        r#"{"graph":"b","version":1,"algo":"cc","components":2,"rounds":2,"labels":[[0,1],[1,1],[2,1],[3,1],[4,5]],"truncated":false}"#,
    ),
    (
        "QUERY b TRICOUNT",
        r#"{"graph":"b","version":1,"algo":"tricount","triangles":1}"#,
    ),
    (
        "EXPR b MXM b SEMIRING ARITHMETIC",
        r#"{"nrows":5,"ncols":5,"dtype":"bool","nvals":16,"triples":[[0,0,true],[0,1,true],[0,2,true],[0,3,true],[1,0,true],[1,1,true],[1,2,true],[1,3,true],[2,0,true],[2,1,true],[2,2,true],[2,3,true],[3,0,true],[3,1,true],[3,2,true],[3,3,true]],"truncated":false}"#,
    ),
    (
        "EXPR b EWADD b BINOP Plus",
        r#"{"nrows":5,"ncols":5,"dtype":"bool","nvals":10,"triples":[[0,1,true],[0,2,true],[1,0,true],[1,2,true],[1,3,true],[2,0,true],[2,1,true],[2,3,true],[3,1,true],[3,2,true]],"truncated":false}"#,
    ),
];

#[test]
fn replies_are_byte_identical_to_the_goldens() {
    let catalog = catalog();
    for &(line, want) in GOLDENS {
        assert_eq!(reply(&catalog, line), want, "{line}");
    }
}

/// The entry count of a reply's `key` array, and its `truncated` flag.
fn shown(reply: &str, key: &str) -> (usize, bool) {
    let v = json::parse(reply).unwrap();
    let entries = v.get(key).and_then(Value::as_array).unwrap().len();
    (entries, v.get("truncated") == Some(&Value::Bool(true)))
}

#[test]
fn oversized_replies_are_truncated_at_the_entry_cap() {
    let catalog = Catalog::new();
    // 1000×1000 with 80 000 random draws: ~76 900 distinct edges.
    execute(&catalog, &parse("REGISTER er ER 1000 80000 5").unwrap()).unwrap();
    let nvals = catalog.get("er").unwrap().graph.nvals();
    assert!(nvals > MAX_RESULT_ENTRIES, "{nvals}");
    let ewadd = reply(&catalog, "EXPR er EWADD er BINOP Plus");
    assert_eq!(shown(&ewadd, "triples"), (MAX_RESULT_ENTRIES, true));
    assert!(ewadd.contains(&format!("\"nvals\":{nvals},")));

    // A vector reply: PageRank ranks every vertex with an in-edge,
    // ~69 500 of 70 000 at five edges per vertex.
    execute(&catalog, &parse("REGISTER wide ER 70000 350000 6").unwrap()).unwrap();
    let ranks = reply(&catalog, "QUERY wide PAGERANK 1");
    assert_eq!(shown(&ranks, "ranks"), (MAX_RESULT_ENTRIES, true));
}

#[test]
fn non_finite_values_render_as_json_strings() {
    let catalog = Catalog::new();
    let line = "REGISTER g TRIPLES 3 3 fp64 0:1:inf,1:0:NaN,1:2:-inf,2:1:1e308";
    execute(&catalog, &parse(line).unwrap()).unwrap();
    for (request, want) in [
        ("QUERY g SSSP 0", r#""dist":[[0,0],[1,"inf"],[2,"NaN"]]"#),
        ("QUERY g PAGERANK 3", r#"[0,"NaN"]"#),
        // 1e308 + 1e308 overflows.
        ("EXPR g EWADD g BINOP Plus", r#"[2,1,"inf"]"#),
    ] {
        let got = reply(&catalog, request);
        assert!(got.contains(want), "{request}: {got}");
        assert!(json::parse(&got).is_ok(), "{request}: {got}");
    }
    let ewadd = json::parse(&reply(&catalog, "EXPR g EWADD g BINOP Plus")).unwrap();
    let values: Vec<&Value> = ewadd
        .get("triples")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|t| &t.as_array().unwrap()[2])
        .collect();
    let s = |v: &str| Value::String(v.to_string());
    assert_eq!(values, [&s("inf"), &s("NaN"), &s("-inf"), &s("inf")]);
}

/// A reader that keeps every byte it passes on.
struct Tee<R> {
    inner: R,
    seen: Vec<u8>,
}

impl<R: Read> Read for Tee<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// Send `line` and return the raw reply frame with its `ID rN` echo
/// cut out, plus the parsed frame.
fn exchange(conn: &mut BufReader<Tee<TcpStream>>, line: &str) -> (Vec<u8>, Frame) {
    let stream = &mut conn.get_mut().inner;
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let (frame, id) = wire::read_frame_tagged(conn).unwrap();
    // One request in flight: the bytes seen are exactly this frame.
    assert_eq!(conn.buffer().len(), 0, "{line}: bytes past the frame");
    let raw = std::mem::take(&mut conn.get_mut().seen);
    let echo = format!(" ID r{}\n", id.expect("every reply echoes its ID"));
    let head_end = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert!(raw[..head_end].ends_with(echo.as_bytes()), "{line}");
    let mut unstamped = raw[..head_end - echo.len()].to_vec();
    unstamped.push(b'\n');
    unstamped.extend_from_slice(&raw[head_end..]);
    (unstamped, frame)
}

#[test]
fn a_repeated_request_replays_the_first_frame_byte_for_byte() {
    let server = Server::start(Arc::new(catalog()), ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut conn = BufReader::new(Tee {
        inner: stream,
        seen: Vec::new(),
    });
    let hits = pygb_obs::registry().counter("serve/result_hit");
    // `REPLACE` without a mask raises an analyzer lint: the repeat must
    // replay the `WARN` section too.
    let linted = "EXPR fi EWADD fi BINOP Plus REPLACE";
    let requests = GOLDENS
        .iter()
        .map(|&(line, want)| (line, Some(want)))
        .chain([(linted, None)]);
    for (line, want) in requests {
        let (first, frame) = exchange(&mut conn, line);
        let warnings = frame.warnings().to_vec();
        let payload = frame
            .into_result()
            .unwrap_or_else(|e| panic!("{line}: {e:?}"));
        match want {
            Some(want) => assert_eq!(payload, want, "{line}"),
            None => assert!(
                warnings
                    .iter()
                    .any(|w| w.contains("replace without a mask")),
                "{line}: {warnings:?}"
            ),
        }
        let before = hits.get();
        let (second, _) = exchange(&mut conn, line);
        assert_eq!(hits.get(), before + 1, "{line}: the repeat is one hit");
        assert_eq!(
            String::from_utf8_lossy(&second),
            String::from_utf8_lossy(&first),
            "{line}"
        );
    }
    server.shutdown();
}
