//! Benchmark-side spans: the traced pass wraps every call into a layer
//! in one of these. Kept in memory, written to
//! `out/trace_<workload>.json` when the run ends. Spans inside the
//! program (PR 5 / PR 10) are deliberately not used here.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    /// The layer (crate) the wrapped call enters, e.g. `algorithms`.
    pub layer: &'static str,
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op / request share this identifier.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. A disabled tracer runs the wrapped
/// closure and records nothing, so the untraced pass shares the code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from (shared by all threads of a run).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; nested calls become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Index the next recorded span will get (to attach children later).
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Add a child of span `parent` whose interval was measured
    /// elsewhere (a flight-recorder record matched by request ID): only
    /// its duration is known, so it is placed at the end of its parent.
    pub fn add_child(&mut self, parent: usize, layer: &'static str, name: &str, dur_ns: u64) {
        if !self.enabled || parent >= self.spans.len() {
            return;
        }
        let (p_start, p_end, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op)
        };
        let start_ns = p_end.saturating_sub(dur_ns).max(p_start);
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: p_end,
            parent: Some(parent),
            op,
        });
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover (children of one parent never overlap here:
    /// every thread records sequentially).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The span file: schema in README.md ("Span schema").
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("layer", Json::Str(s.layer.to_string())),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect();
        let self_ns = self
            .self_ns_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer, Json::Num(ns as f64)));
        Json::obj([
            ("schema", Json::Str("pygb-benchmark-trace/1".into())),
            ("workload", Json::Str(workload.to_string())),
            ("self_ns_by_layer", Json::obj(self_ns)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("serve", "request", 7, |t| {
            spin(200_000);
            t.span("algorithms", "bfs", 7, |_| spin(300_000));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_layer = t.self_ns_by_layer();
        assert_eq!(
            by_layer["serve"] + by_layer["algorithms"],
            spans[0].dur_ns(),
            "self times partition the root"
        );
        assert!(by_layer["algorithms"] >= 300_000);
        assert!(by_layer["serve"] >= 200_000);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_keeps_links() {
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("core", "x", 0, |_| 5), 5);
        off.add_child(0, "serve", "exec", 10);
        assert!(off.spans().is_empty());

        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("core", "a", 1, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("serve", "rtt", 2, |_| spin(50_000));
        b.add_child(0, "serve.execute", "exec", 20_000);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].dur_ns(), 20_000);
        let doc = a.to_json("w");
        assert_eq!(doc.get("spans").and_then(Json::as_array).unwrap().len(), 3);
    }
}
