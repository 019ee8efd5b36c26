//! Schema checks for Chrome trace-event JSON emitted via `PYGB_TRACE`
//! (`pygb_obs::chrome_trace_json`), shared by the `validate_trace`
//! binary and the trace tests.
//!
//! [`validate`] rejects, with a diagnostic, the first violation of:
//!
//! * the document parses and `traceEvents` is a nonempty array;
//! * every event's `ph` is `"X"` (complete) or `"M"` (metadata), with
//!   the fields each form requires;
//! * every `X` event has a positive `dur` (sub-microsecond spans must
//!   export fractional microseconds, not 0);
//! * at least one `kernel`-category span exists, and every kernel span
//!   that overlaps a `wave` span is contained (by time) in one —
//!   executed kernels nest under their flush wave.

use pygb_jit::json::{self, Value};

/// What a valid trace holds.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// All events, metadata included.
    pub events: usize,
    /// Complete (`X`) spans.
    pub spans: usize,
    /// `kernel`-category spans.
    pub kernels: usize,
    /// Kernel spans nested inside a wave.
    pub wave_nested: usize,
    /// One name per thread lane (`thread_name` metadata), in lane order.
    pub lanes: Vec<String>,
}

struct SpanX {
    name: String,
    cat: String,
    ts: f64,
    dur: f64,
}

fn num(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Number(n) => Ok(*n),
        other => Err(format!("{what} must be a number, got {other:?}")),
    }
}

/// Validate a Chrome trace-event document (see the module docs).
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("`traceEvents` missing or not an array")?;
    if events.is_empty() {
        return Err("`traceEvents` is empty — nothing was traced".into());
    }

    let mut spans: Vec<SpanX> = Vec::new();
    let mut lanes = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        match ph {
            "M" => {
                if ev.get("name").and_then(Value::as_str) != Some("thread_name") {
                    return Err(format!("event {i}: metadata event is not a thread_name"));
                }
                let lane = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: thread_name without args.name"))?;
                lanes.push(lane.to_string());
            }
            "X" => {
                let field = |key: &str| {
                    ev.get(key)
                        .ok_or_else(|| format!("event {i}: X event missing `{key}`"))
                };
                let name = field("name")?
                    .as_str()
                    .ok_or_else(|| format!("event {i}: X event `name` is not a string"))?
                    .to_string();
                let cat = field("cat")?
                    .as_str()
                    .ok_or_else(|| format!("event {i}: X event `cat` is not a string"))?
                    .to_string();
                let ts = num(field("ts")?, "`ts`")?;
                let dur = num(field("dur")?, "`dur`")?;
                if dur <= 0.0 {
                    return Err(format!("event {i} ({name}): non-positive dur {dur}"));
                }
                for key in ["pid", "tid"] {
                    field(key)?
                        .as_u64()
                        .ok_or_else(|| format!("event {i}: X event `{key}` is not an integer"))?;
                }
                spans.push(SpanX { name, cat, ts, dur });
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if lanes.is_empty() {
        return Err("no thread_name metadata records".into());
    }

    let kernels: Vec<&SpanX> = spans.iter().filter(|s| s.cat == "kernel").collect();
    if kernels.is_empty() {
        return Err("no kernel-category spans — no kernel execution was traced".into());
    }
    let waves: Vec<&SpanX> = spans.iter().filter(|s| s.cat == "wave").collect();
    if waves.is_empty() {
        return Err("no wave-category spans — no flush wave was traced".into());
    }
    // Kernel executions driven by the flush scheduler must nest (by
    // time) inside a wave. Kernels dispatched outside any flush (eager
    // blocking mode) legitimately have no enclosing wave, so require
    // containment only for kernels that overlap some wave.
    let mut wave_nested = 0usize;
    for k in &kernels {
        let overlaps = waves
            .iter()
            .any(|w| k.ts < w.ts + w.dur && w.ts < k.ts + k.dur);
        if !overlaps {
            continue;
        }
        let contained = waves
            .iter()
            .any(|w| k.ts >= w.ts && k.ts + k.dur <= w.ts + w.dur);
        if !contained {
            return Err(format!(
                "kernel span `{}` overlaps a wave but is not contained in one",
                k.name
            ));
        }
        wave_nested += 1;
    }
    if wave_nested == 0 {
        return Err("no kernel span nests inside a flush wave".into());
    }

    Ok(TraceSummary {
        events: events.len(),
        spans: spans.len(),
        kernels: kernels.len(),
        wave_nested,
        lanes,
    })
}
