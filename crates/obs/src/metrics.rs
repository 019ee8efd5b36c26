//! The process metrics registry: named counters and log-bucketed
//! latency histograms, read out through one
//! [`MetricsRegistry::snapshot`] and one flat-JSON export.
//!
//! The census counters (JIT, optimizer, kernel selection, operand
//! views) are registry counters too, resolved once by
//! [`crate::census`] rather than looked up per event.
//!
//! Histogram buckets are fixed powers of two (bucket `i` counts values
//! with `bound(i-1) < v ≤ bound(i)`... precisely: index by the bit
//! length of the value), so bucket boundaries are stable across
//! snapshots, runs, and processes — a hard requirement for diffing two
//! `bench_summary.json` baselines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonic lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value (for gauges mirrored as counters, such as
    /// the `tunables/*` series).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Number of log buckets: one per possible bit length of a `u64`
/// nanosecond value (bucket 0 holds `0..=1` ns, the last is open-ended
/// in practice — `2^62` ns ≈ 146 years).
pub const HISTOGRAM_BUCKETS: usize = 63;

/// A log-bucketed latency histogram with power-of-two bucket bounds.
/// Recording is two relaxed `fetch_add`s plus one on the bucket; all
/// bounds are compile-time fixed so snapshots are structurally stable.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: ZERO,
            sum: ZERO,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket a value falls into: its bit length, i.e. bucket `i`
    /// covers `(2^(i-1), 2^i]` with bucket 0 covering `{0, 1}`.
    pub fn bucket_index(value: u64) -> usize {
        let bits = (64 - value.saturating_sub(1).leading_zeros()) as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`2^i` nanoseconds).
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i.min(62)
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((Self::bucket_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one [`Histogram`]. Only nonzero buckets are
/// materialized, keyed by their (stable) inclusive upper bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (nanoseconds at every call site).
    pub sum: u64,
    /// `(inclusive upper bound, count)` for each nonzero bucket,
    /// ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`) — a conservative estimate, 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound;
            }
        }
        self.buckets.last().map(|&(b, _)| b).unwrap_or(0)
    }
}

/// The process-wide registry: named counters and named histograms,
/// folded into one [`MetricsSnapshot`].
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The entry named `name`, created on first use. A name that exists is
/// found without allocating; only an insert copies the name.
fn get_or_create<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap();
    if let Some(entry) = map.get(name) {
        return Arc::clone(entry);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Get or create the counter `name` carrying `labels` — one
    /// independent series per distinct label set, keyed by
    /// [`labeled_name`]. Callers on hot paths should cache the returned
    /// `Arc` per label set rather than re-resolve it per event.
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&labeled_name(name, labels))
    }

    /// Get or create the histogram `name` carrying `labels`; see
    /// [`MetricsRegistry::labeled_counter`].
    pub fn labeled_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&labeled_name(name, labels))
    }

    /// Fold every counter and histogram into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// The canonical registry key for a labeled series:
/// `name{k1="v1",k2="v2"}` with labels sorted by key, so the same label
/// set always maps to the same series regardless of call-site order.
/// Label values are escaped Prometheus-style (`\\`, `\"`, `\n`).
pub fn labeled_name(name: &str, labels: &[(&str, &str)]) -> String {
    let mut ls: Vec<&(&str, &str)> = labels.iter().collect();
    ls.sort_by_key(|&&(k, _)| k);
    let mut out = String::with_capacity(name.len() + 16 * ls.len() + 2);
    out.push_str(name);
    out.push('{');
    for (i, &&(k, v)) in ls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Split a registry key produced by [`labeled_name`] back into
/// `(base name, label block)`, where the label block includes the
/// braces and is empty for unlabeled series.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Rewrite a slash-namespaced registry name into a Prometheus metric
/// name: `pygb_` prefix, every character outside `[a-zA-Z0-9_:]`
/// replaced with `_` (so `serve/request_ns` → `pygb_serve_request_ns`).
fn prom_name(base: &str) -> String {
    let mut out = String::with_capacity(base.len() + 5);
    out.push_str("pygb_");
    for c in base.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Merge an extra `le` label into an existing label block (`{}`-free
/// input means no other labels).
fn with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        let inner = &labels[1..labels.len() - 1];
        format!("{{{inner},le=\"{le}\"}}")
    }
}

/// The process-wide [`MetricsRegistry`].
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// A point-in-time copy of the whole registry, exportable as flat JSON.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Every counter, by name.
    pub counters: BTreeMap<String, u64>,
    /// Every histogram, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's observation count, 0 when absent.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map(|h| h.count).unwrap_or(0)
    }

    /// Flat JSON export:
    /// `{"counters": {...}, "histograms": {name: {"count", "sum_ns",
    /// "buckets": [{"le_ns", "count"}, ...]}, ...}}`.
    /// BTreeMap ordering makes the output deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {}",
                crate::json_escape(name),
                value
            ));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [",
                crate::json_escape(name),
                h.count,
                h.sum
            ));
            for (j, (bound, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"le_ns\": {bound}, \"count\": {n}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition (format 0.0.4) of the whole snapshot.
    ///
    /// * Counters become `pygb_<name> <value>` gauge-free counter
    ///   families; slash namespaces are flattened to `_` and labeled
    ///   series (keys built by [`labeled_name`]) keep their label
    ///   blocks.
    /// * Histograms keep their nanosecond units (`*_ns` names) and are
    ///   exported cumulatively: one `_bucket{le="<bound>"}` line per
    ///   nonzero power-of-two bound, a closing `le="+Inf"`, then
    ///   `_sum` / `_count`.
    /// * One `# TYPE` line per family (BTreeMap order groups all label
    ///   sets of a family together), so the output is deterministic and
    ///   schema-checkable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in &self.counters {
            let (base, labels) = split_labels(name);
            let fam = prom_name(base);
            if fam != last_family {
                out.push_str(&format!("# TYPE {fam} counter\n"));
                last_family.clone_from(&fam);
            }
            out.push_str(&format!("{fam}{labels} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            let fam = prom_name(base);
            if fam != last_family {
                out.push_str(&format!("# TYPE {fam} histogram\n"));
                last_family.clone_from(&fam);
            }
            let mut cumulative = 0u64;
            for &(bound, n) in &h.buckets {
                cumulative += n;
                out.push_str(&format!(
                    "{fam}_bucket{} {cumulative}\n",
                    with_le(labels, &bound.to_string())
                ));
            }
            out.push_str(&format!(
                "{fam}_bucket{} {}\n",
                with_le(labels, "+Inf"),
                h.count
            ));
            out.push_str(&format!("{fam}_sum{labels} {}\n", h.sum));
            out.push_str(&format!("{fam}_count{labels} {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(0);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bucket_boundaries_are_fixed_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 11);
        assert_eq!(Histogram::bucket_bound(0), 1);
        assert_eq!(Histogram::bucket_bound(10), 1024);
        // Stability: the same values land in the same buckets across
        // independent histograms and snapshots.
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [0u64, 1, 2, 700, 1024, 1 << 40] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.snapshot().buckets, b.snapshot().buckets);
        assert_eq!(a.snapshot().buckets, a.snapshot().buckets);
    }

    #[test]
    fn histogram_count_sum_quantile() {
        let h = Histogram::default();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 101_500);
        assert_eq!(s.mean(), 20_300.0);
        assert_eq!(s.quantile_bound(0.0), 128);
        assert_eq!(s.quantile_bound(0.5), 512);
        assert_eq!(s.quantile_bound(1.0), 131_072);
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: vec![]
            }
            .quantile_bound(0.5),
            0
        );
    }

    #[test]
    fn registry_get_or_create() {
        let reg = MetricsRegistry::default();
        reg.counter("a").add(3);
        reg.counter("a").add(4);
        reg.histogram("h").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 7);
        assert_eq!(snap.histogram_count("h"), 1);
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    fn labeled_series_are_independent_and_order_insensitive() {
        let reg = MetricsRegistry::default();
        reg.labeled_counter("serve/completed", &[("tenant", "a"), ("verb", "QUERY")])
            .add(2);
        // Same label set in the other order resolves to the same series.
        reg.labeled_counter("serve/completed", &[("verb", "QUERY"), ("tenant", "a")])
            .add(3);
        reg.labeled_counter("serve/completed", &[("tenant", "b"), ("verb", "QUERY")])
            .inc();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("serve/completed{tenant=\"a\",verb=\"QUERY\"}"),
            5
        );
        assert_eq!(
            snap.counter("serve/completed{tenant=\"b\",verb=\"QUERY\"}"),
            1
        );
        // Label values are escaped.
        assert_eq!(
            labeled_name("m", &[("k", "a\"b\\c\nd")]),
            "m{k=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::default();
        reg.counter("serve/completed").add(7);
        reg.labeled_counter("serve/completed", &[("tenant", "a")])
            .add(3);
        reg.labeled_histogram("serve/request_ns", &[("verb", "EXPR")])
            .record(1000);
        reg.labeled_histogram("serve/request_ns", &[("verb", "EXPR")])
            .record(3);
        let text = reg.snapshot().to_prometheus();
        // One TYPE line per family even with multiple label sets.
        assert_eq!(
            text.matches("# TYPE pygb_serve_completed counter").count(),
            1
        );
        assert!(text.contains("pygb_serve_completed 7\n"));
        assert!(text.contains("pygb_serve_completed{tenant=\"a\"} 3\n"));
        assert!(text.contains("# TYPE pygb_serve_request_ns histogram\n"));
        // Buckets are cumulative and closed with +Inf, sum, count.
        assert!(text.contains("pygb_serve_request_ns_bucket{verb=\"EXPR\",le=\"4\"} 1\n"));
        assert!(text.contains("pygb_serve_request_ns_bucket{verb=\"EXPR\",le=\"1024\"} 2\n"));
        assert!(text.contains("pygb_serve_request_ns_bucket{verb=\"EXPR\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("pygb_serve_request_ns_sum{verb=\"EXPR\"} 1003\n"));
        assert!(text.contains("pygb_serve_request_ns_count{verb=\"EXPR\"} 2\n"));
        // Deterministic.
        assert_eq!(text, reg.snapshot().to_prometheus());
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let reg = MetricsRegistry::default();
        reg.counter("z").add(1);
        reg.counter("a").add(2);
        reg.histogram("k").record(1000);
        let j1 = reg.snapshot().to_json();
        let j2 = reg.snapshot().to_json();
        assert_eq!(j1, j2);
        // BTreeMap ordering: "a" before "z".
        assert!(j1.find("\"a\"").unwrap() < j1.find("\"z\"").unwrap());
        assert!(j1.contains("\"le_ns\": 1024"));
    }
}
