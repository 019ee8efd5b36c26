//! # pygb-obs — op-lifecycle tracing and metrics for PyGB
//!
//! The paper's evaluation (Sec. VI) is entirely about *where time goes*
//! — the abstraction penalty of dispatch against kernel time — and this
//! crate is the measurement layer that makes those attributions in the
//! reproduction: hierarchical wall-clock [`span`]s over the whole op
//! lifecycle (expression build → analyze → enqueue → fuse → wave
//! schedule → kernel execute → flush), per-kernel-family log-bucketed
//! latency [`metrics::Histogram`]s, and one process-wide
//! [`metrics::MetricsRegistry`] absorbing the counters that previously
//! lived in three ad-hoc places (JitStats, kernel selection, fusion).
//!
//! ## Zero cost when disabled
//!
//! Everything is gated on one process-wide [`AtomicBool`]. A call site
//! looks like
//!
//! ```
//! let _sp = pygb_obs::span(pygb_obs::Cat::Exec, "node");
//! ```
//!
//! and when tracing is off this compiles to a relaxed atomic load, a
//! branch, and the construction of `Span(None)` — no allocation, no
//! clock read, no lock. Dynamic labels use [`span_labeled`], whose
//! closure is only evaluated once the flag check has passed. The
//! `obs_overhead` bench in `crates/bench` asserts both properties
//! (zero heap allocations and a per-call latency budget) on every CI
//! run.
//!
//! ## Activation
//!
//! * Programmatic: [`enable`] / [`disable`].
//! * Environment: [`init_from_env`] reads `PYGB_TRACE=<path>` once; when
//!   set, tracing is enabled and [`finish`] writes a Chrome trace-event
//!   JSON file (loadable in Perfetto / `chrome://tracing`) to `<path>`.
//!
//! See `examples/trace.rs` and DESIGN.md §4f for the full walkthrough.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod recorder;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use metrics::{
    labeled_name, registry, Counter, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, MetricsSource,
};
pub use recorder::{
    recorder, FlightRecorder, Outcome, RecordedRequest, RequestRecord, NAME_CAP, RECORDER_CAPACITY,
};
pub use trace::{
    chrome_trace_json, clear_events, events, json_escape, phase_totals, span, span_labeled, Cat,
    Span, SpanEvent,
};

/// The process-wide tracing flag. Every instrumentation point loads
/// this (relaxed) and branches; nothing else happens while it is false.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Where [`finish`] writes the Chrome trace, when configured.
static TRACE_PATH: OnceLock<Option<PathBuf>> = OnceLock::new();

/// Turn tracing and histogram collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Already-buffered span events are kept until
/// [`clear_events`] or [`finish`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether tracing is on. Inlined so disabled-mode instrumentation is
/// a single atomic load + branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One-time environment activation: when `PYGB_TRACE=<path>` is set
/// (and nonempty), enable tracing and remember `<path>` as the Chrome
/// trace destination for [`finish`]. Returns whether tracing is on
/// afterwards. Safe to call from multiple entry points; only the first
/// call inspects the environment.
pub fn init_from_env() -> bool {
    TRACE_PATH.get_or_init(|| match std::env::var_os("PYGB_TRACE") {
        Some(p) if !p.is_empty() => {
            enable();
            Some(PathBuf::from(p))
        }
        _ => None,
    });
    enabled()
}

/// The Chrome-trace destination configured by [`init_from_env`], if any.
pub fn trace_path() -> Option<PathBuf> {
    TRACE_PATH.get().cloned().flatten()
}

/// Write the buffered span events as Chrome trace-event JSON to the
/// `PYGB_TRACE` path. Returns `Ok(Some(path))` when a file was written,
/// `Ok(None)` when no path was configured (events stay buffered for
/// programmatic export via [`chrome_trace_json`]).
pub fn finish() -> std::io::Result<Option<PathBuf>> {
    let Some(path) = trace_path() else {
        return Ok(None);
    };
    std::fs::write(&path, chrome_trace_json())?;
    Ok(Some(path))
}

/// Write the buffered span events as Chrome trace-event JSON to an
/// arbitrary `path`, independent of the `PYGB_TRACE` configuration.
/// Events stay buffered afterwards (the ring keeps rolling), so this is
/// safe to call repeatedly from a live server — it backs the
/// `TRACE DUMP <path>` wire verb and the periodic flush loop, which
/// exist precisely because waiting for a clean exit loses the trace.
pub fn dump_trace_to(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

/// Record one completed kernel execution: `ns` is added to the
/// `kernel/<name>` latency histogram and a complete `Cat::Kernel` span
/// event (ending now, `ns` long) is buffered. Called by the substrate's
/// kernel exit hook; a no-op while tracing is disabled.
pub fn observe_kernel(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    registry().histogram(&format!("kernel/{name}")).record(ns);
    trace::push_complete_now(Cat::Kernel, format!("kernel/{name}"), ns);
}

/// Record an already-measured lifecycle phase that just finished: a
/// complete span ending now, `ns` long. For phases whose duration was
/// captured before tracing could wrap them (e.g. expression build time
/// stamped into the expression itself). A no-op while disabled or when
/// `ns` is zero.
pub fn observe_phase(cat: Cat, name: &'static str, ns: u64) {
    if !enabled() || ns == 0 {
        return;
    }
    trace::push_complete_now(cat, name.to_string(), ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flag and the event buffer are process-wide; keep the tests
    // that toggle them on one lock so `cargo test` parallelism cannot
    // interleave them.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_span_is_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        disable();
        clear_events();
        {
            let _a = span(Cat::Flush, "flush");
            let _b = span_labeled(Cat::Exec, || unreachable!("label must not be evaluated"));
        }
        assert!(events().is_empty());
    }

    #[test]
    fn observe_kernel_records_histogram_and_span() {
        let _g = TEST_LOCK.lock().unwrap();
        enable();
        clear_events();
        let before = registry().snapshot();
        observe_kernel("unit/test", 1234);
        observe_kernel("unit/test", 5678);
        let after = registry().snapshot();
        let d =
            after.histogram_count("kernel/unit/test") - before.histogram_count("kernel/unit/test");
        assert_eq!(d, 2);
        let evs = events();
        assert_eq!(
            evs.iter().filter(|e| e.name == "kernel/unit/test").count(),
            2
        );
        disable();
        clear_events();
    }
}
