//! Paper-style table rendering and JSON result emission for the
//! `figures` binary.

use std::time::Duration;

use pygb_obs::json_escape;

/// One measured cell: a series name, an x value (problem size), and a
/// time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which figure/table the sample belongs to (e.g. `"fig10/bfs"`).
    pub experiment: String,
    /// Series within the figure (e.g. `"pygb-loops"`).
    pub series: String,
    /// Problem size (|V|).
    pub n: usize,
    /// Measured seconds.
    pub seconds: f64,
}

impl Sample {
    /// Build a sample from a [`Duration`].
    pub fn new(experiment: &str, series: &str, n: usize, time: Duration) -> Sample {
        Sample {
            experiment: experiment.to_string(),
            series: series.to_string(),
            n,
            seconds: time.as_secs_f64(),
        }
    }
}

/// Render a set of samples that share an experiment as a sizes × series
/// table (the textual equivalent of one Fig. 10 panel).
pub fn render_table(title: &str, samples: &[Sample]) -> String {
    let mut sizes: Vec<usize> = samples.iter().map(|s| s.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut series: Vec<String> = samples.iter().map(|s| s.series.clone()).collect();
    series.sort();
    series.dedup();

    let mut out = format!("## {title}\n\n");
    out.push_str(&format!("{:>8}", "|V|"));
    for s in &series {
        out.push_str(&format!(" {s:>14}"));
    }
    out.push('\n');
    for &n in &sizes {
        out.push_str(&format!("{n:>8}"));
        for s in &series {
            let cell = samples
                .iter()
                .find(|x| x.n == n && &x.series == s)
                .map(|x| format_seconds(x.seconds))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(" {cell:>14}"));
        }
        out.push('\n');
    }
    out
}

/// Human-scaled time formatting (`1.23 ms`, `45.6 µs`, ...).
pub fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Serialize samples as pretty JSON (for EXPERIMENTS.md bookkeeping).
pub fn to_json(samples: &[Sample]) -> String {
    let mut out = String::from("[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\n    \"experiment\": \"{}\",\n    \"series\": \"{}\",\n    \"n\": {},\n    \"seconds\": {}\n  }}",
            json_escape(&s.experiment),
            json_escape(&s.series),
            s.n,
            format_json_f64(s.seconds)
        ));
    }
    out.push_str(if samples.is_empty() { "]" } else { "\n]" });
    out
}

/// Format an f64 the way JSON emitters conventionally do: integral
/// values keep a `.0` so they read back as floats.
fn format_json_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------
// Bench summary: per-algorithm wall time + observability attribution.
// ---------------------------------------------------------------------

/// One per-algorithm row of `results/bench_summary.json`: the measured
/// wall time of a run plus the observability layer's attribution of
/// where it went (per-lifecycle-phase totals and per-kernel-family
/// execution counts, both from `pygb-obs`).
#[derive(Debug, Clone, Default)]
pub struct BenchSummaryEntry {
    /// Algorithm label (`"bfs"`, `"pagerank"`, ...).
    pub algorithm: String,
    /// Problem size (|V|).
    pub n: usize,
    /// End-to-end wall time of the run, seconds.
    pub wall_seconds: f64,
    /// Total nanoseconds per lifecycle phase (`pygb_obs::phase_totals`
    /// over the run's span events).
    pub phases: Vec<(String, u64)>,
    /// Executions per kernel family (metrics histogram-count deltas
    /// across the run, `kernel/` prefix stripped).
    pub kernels: Vec<(String, u64)>,
}

/// Serialize bench-summary entries as the `pygb-bench-summary/1`
/// document written to `results/bench_summary.json`.
pub fn bench_summary_json(entries: &[BenchSummaryEntry]) -> String {
    let mut out = String::from("{\n  \"schema\": \"pygb-bench-summary/1\",\n  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\n      \"algorithm\": \"{}\",\n      \"n\": {},\n      \
             \"wall_seconds\": {},\n      \"phases_ns\": {{",
            json_escape(&e.algorithm),
            e.n,
            format_json_f64(e.wall_seconds)
        ));
        for (j, (phase, ns)) in e.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\": {ns}", json_escape(phase)));
        }
        out.push_str("},\n      \"kernels\": {");
        for (j, (kernel, count)) in e.kernels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\": {count}", json_escape(kernel)));
        }
        out.push_str("}\n    }");
    }
    out.push_str(if entries.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_scales() {
        assert_eq!(format_seconds(2.5), "2.500 s");
        assert_eq!(format_seconds(0.0025), "2.500 ms");
        assert_eq!(format_seconds(2.5e-6), "2.500 µs");
        assert_eq!(format_seconds(2.5e-8), "25 ns");
    }

    #[test]
    fn table_has_all_cells() {
        let samples = vec![
            Sample::new("fig10/bfs", "native", 64, Duration::from_micros(10)),
            Sample::new("fig10/bfs", "pygb-loops", 64, Duration::from_micros(30)),
            Sample::new("fig10/bfs", "native", 128, Duration::from_micros(40)),
        ];
        let table = render_table("bfs", &samples);
        assert!(table.contains("native"));
        assert!(table.contains("pygb-loops"));
        assert!(table.contains("10.000 µs"));
        assert!(table.contains(" -")); // missing cell dashed
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn json_roundtrips() {
        let samples = vec![Sample::new("x", "y", 1, Duration::from_secs(1))];
        let json = to_json(&samples);
        assert!(json.contains("\"seconds\": 1.0"));
    }

    #[test]
    fn bench_summary_parses_back_with_all_fields() {
        let entries = vec![BenchSummaryEntry {
            algorithm: "bfs".into(),
            n: 256,
            wall_seconds: 0.0125,
            phases: vec![("flush".into(), 900), ("kernel".into(), 400)],
            kernels: vec![("mxv/masked_push".into(), 7)],
        }];
        let json = bench_summary_json(&entries);
        let doc = pygb_jit::json::parse(&json).expect("summary JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("pygb-bench-summary/1")
        );
        let entry = &doc.get("entries").and_then(|v| v.as_array()).unwrap()[0];
        assert_eq!(entry.get("algorithm").and_then(|v| v.as_str()), Some("bfs"));
        assert_eq!(entry.get("n").and_then(|v| v.as_u64()), Some(256));
        assert_eq!(
            entry
                .get("phases_ns")
                .and_then(|p| p.get("flush"))
                .and_then(|v| v.as_u64()),
            Some(900)
        );
        assert_eq!(
            entry
                .get("kernels")
                .and_then(|p| p.get("mxv/masked_push"))
                .and_then(|v| v.as_u64()),
            Some(7)
        );
    }

    #[test]
    fn empty_bench_summary_is_valid_json() {
        let doc = pygb_jit::json::parse(&bench_summary_json(&[])).expect("parses");
        assert_eq!(
            doc.get("entries")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(0)
        );
    }
}
