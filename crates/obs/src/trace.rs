//! Span collection and Chrome trace-event export.
//!
//! A [`Span`] is an RAII guard: construction stamps the start time,
//! drop stamps the duration and pushes one buffered [`SpanEvent`].
//! Events carry the recording thread's lane id, so the parallel flush
//! shows one Perfetto track per worker with kernel spans nested (by
//! time containment) under their wave and flush spans.
//!
//! The export is the Chrome trace-event "X" (complete) form:
//! `{"name", "cat", "ph": "X", "ts", "dur", "pid", "tid", "args"}` with
//! timestamps in *fractional microseconds* — sub-microsecond kernels
//! keep a nonzero `dur` instead of flooring to 0. Thread lanes are
//! named with "M" metadata records, as the format specifies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span category: which lifecycle phase the span measures. Rendered as
/// the trace-event `cat` field and the key of [`phase_totals`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cat {
    /// Expression-tree construction.
    Build,
    /// Plan-time analysis (shape/dtype/mask checks).
    Analyze,
    /// Deferral of an op into the nonblocking DAG.
    Enqueue,
    /// The fusion + dead-code-elimination rewrite pass.
    Fuse,
    /// One dataflow optimization pass (dce/cse/noop) inside the
    /// pre-scheduling pipeline.
    Opt,
    /// A whole flush of the op-DAG.
    Flush,
    /// One scheduling wave within a flush.
    Wave,
    /// Execution of one DAG node (dispatch + kernel).
    Exec,
    /// One JIT dispatch (key hash → cache → invoke).
    Dispatch,
    /// One substrate kernel invocation.
    Kernel,
    /// One served request (admission through response write) in a
    /// `pygb-serve` instance.
    Serve,
}

impl Cat {
    /// Stable lowercase name used in the exported `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            Cat::Build => "build",
            Cat::Analyze => "analyze",
            Cat::Enqueue => "enqueue",
            Cat::Fuse => "fuse",
            Cat::Opt => "opt",
            Cat::Flush => "flush",
            Cat::Wave => "wave",
            Cat::Exec => "exec",
            Cat::Dispatch => "dispatch",
            Cat::Kernel => "kernel",
            Cat::Serve => "serve",
        }
    }
}

/// One buffered complete span.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Human label (`"flush"`, `"n3 mxv/masked_push"`, ...).
    pub name: String,
    /// Lifecycle phase.
    pub cat: Cat,
    /// Start, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (clamped to ≥ 1 on export).
    pub dur_ns: u64,
    /// Recording thread's lane id (0 = the first thread that traced).
    pub tid: u64,
    /// Extra key/value annotations exported under `args`.
    pub args: Vec<(&'static str, String)>,
}

/// Cap on buffered events; beyond it events are counted as dropped
/// rather than grown without bound.
const MAX_EVENTS: usize = 1 << 20;

static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = register_thread();
}

fn register_thread() -> u64 {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = match std::thread::current().name() {
        Some(n) => n.to_string(),
        None if tid == 0 => "main".to_string(),
        None => format!("worker-{tid}"),
    };
    thread_names().lock().unwrap().push((tid, name));
    tid
}

fn thread_names() -> &'static Mutex<Vec<(u64, String)>> {
    static NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    &NAMES
}

fn push_event(ev: SpanEvent) {
    let mut buf = EVENTS.lock().unwrap();
    if buf.len() >= MAX_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.push(ev);
}

/// Buffer a complete span that ends now and lasted `dur_ns`. Used by
/// exit-style hooks that only learn the duration after the fact.
pub(crate) fn push_complete_now(cat: Cat, name: String, dur_ns: u64) {
    let end = now_ns();
    push_event(SpanEvent {
        name,
        cat,
        ts_ns: end.saturating_sub(dur_ns),
        dur_ns,
        tid: TID.with(|t| *t),
        args: Vec::new(),
    });
}

/// An RAII span guard. `None` inside means tracing was disabled at
/// construction: drop does nothing and nothing was allocated.
#[must_use = "a span measures the scope it is held for"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    name: String,
    cat: Cat,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// Attach a key/value annotation (exported under trace-event
    /// `args`). No-op on a disabled span.
    pub fn arg(&mut self, key: &'static str, value: String) {
        if let Some(a) = self.0.as_mut() {
            a.args.push((key, value));
        }
    }

    /// Whether this span is live (tracing was enabled when it opened).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = now_ns().saturating_sub(a.start_ns);
        push_event(SpanEvent {
            name: a.name,
            cat: a.cat,
            ts_ns: a.start_ns,
            dur_ns,
            tid: TID.with(|t| *t),
            args: a.args,
        });
    }
}

/// Open a span with a static label. When tracing is disabled this is a
/// relaxed load, a branch, and `Span(None)` — no allocation.
#[inline]
pub fn span(cat: Cat, name: &'static str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    Span(Some(ActiveSpan {
        name: name.to_string(),
        cat,
        start_ns: now_ns(),
        args: Vec::new(),
    }))
}

/// Open a span with a dynamic label. The closure is evaluated only
/// when tracing is enabled, so disabled-mode callers pay no formatting
/// or allocation cost.
#[inline]
pub fn span_labeled(cat: Cat, label: impl FnOnce() -> String) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    Span(Some(ActiveSpan {
        name: label(),
        cat,
        start_ns: now_ns(),
        args: Vec::new(),
    }))
}

/// Snapshot the buffered span events (completion order).
pub fn events() -> Vec<SpanEvent> {
    EVENTS.lock().unwrap().clone()
}

/// Drop all buffered span events and the dropped-event count.
pub fn clear_events() {
    EVENTS.lock().unwrap().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Events discarded because the buffer hit its cap.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Total nanoseconds per category across the buffered events, sorted
/// by category. Nested spans are each counted in their own category —
/// this is a per-phase attribution, not an exclusive-time profile.
pub fn phase_totals() -> Vec<(&'static str, u64)> {
    let mut totals: std::collections::BTreeMap<Cat, u64> = std::collections::BTreeMap::new();
    for ev in EVENTS.lock().unwrap().iter() {
        *totals.entry(ev.cat).or_insert(0) += ev.dur_ns;
    }
    totals.into_iter().map(|(c, ns)| (c.name(), ns)).collect()
}

/// Fractional-microsecond rendering of a nanosecond count: `1234` ns →
/// `"1.234"`. Keeps sub-microsecond durations nonzero in the export.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escape `s` as the body of a JSON string (no surrounding quotes) —
/// the workspace's one escaper; every hand-written JSON emitter calls
/// it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the buffered events as a Chrome trace-event JSON document.
/// Durations are clamped to at least 1 ns so every complete span is
/// visible; thread lanes get "M" (metadata) `thread_name` records.
pub fn chrome_trace_json() -> String {
    let events = EVENTS.lock().unwrap();
    let names = thread_names().lock().unwrap();
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in names.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }
    for ev in events.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{}",
            ev.tid,
            json_escape(&ev.name),
            ev.cat.name(),
            us(ev.ts_ns),
            us(ev.dur_ns.max(1)),
        ));
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn spans_nest_by_time_containment() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::enable();
        clear_events();
        {
            let _outer = span(Cat::Flush, "outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span_labeled(Cat::Exec, || "inner".to_string());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let evs = events();
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        let inner = evs.iter().find(|e| e.name == "inner").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        assert!(outer.dur_ns > inner.dur_ns);
        crate::disable();
        clear_events();
    }

    #[test]
    fn chrome_trace_shape_and_escaping() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::enable();
        clear_events();
        {
            let mut s = span_labeled(Cat::Kernel, || "needs \"escaping\"\n".to_string());
            s.arg("wave", "0".to_string());
        }
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\\\"escaping\\\"\\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"kernel\""));
        assert!(json.contains("\"args\":{\"wave\":\"0\"}"));
        assert!(json.contains("\"thread_name\""));
        crate::disable();
        clear_events();
    }

    #[test]
    fn sub_microsecond_durations_stay_nonzero() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(1_000_000), "1000.000");
    }

    #[test]
    fn phase_totals_sum_by_category() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::enable();
        clear_events();
        push_complete_now(Cat::Kernel, "a".into(), 100);
        push_complete_now(Cat::Kernel, "b".into(), 50);
        push_complete_now(Cat::Fuse, "c".into(), 7);
        let totals = phase_totals();
        assert!(totals.contains(&("kernel", 150)));
        assert!(totals.contains(&("fuse", 7)));
        crate::disable();
        clear_events();
    }
}
