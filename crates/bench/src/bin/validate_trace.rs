//! Schema validator for Chrome trace-event JSON emitted via
//! `PYGB_TRACE`. Used by CI after running `examples/trace.rs`:
//!
//! ```text
//! PYGB_TRACE=out.json cargo run -p pygb-runtime --example trace
//! cargo run -p pygb-bench --bin validate_trace -- out.json
//! ```
//!
//! Exits 1 with a diagnostic on the first violation of the checks in
//! [`pygb_bench::trace_check`].

fn fail(msg: &str) -> ! {
    eprintln!("validate_trace: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| fail("usage: validate_trace <trace.json>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let s = pygb_bench::trace_check::validate(&text).unwrap_or_else(|e| fail(&e));
    println!(
        "validate_trace: OK: {} events ({} spans, {} kernel, {} wave-nested, {} thread lanes)",
        s.events,
        s.spans,
        s.kernels,
        s.wave_nested,
        s.lanes.len()
    );
}
