//! One run of one workload: arguments, result line, process facts.

use std::path::PathBuf;

use crate::json::Json;
use crate::manifest;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
    /// Where the full result (quartiles, counts, sizes) goes, if asked.
    pub detail: Option<PathBuf>,
}

/// What a workload hands back. `metrics` holds every end-to-end metric
/// (untraced run) or every per-layer metric (traced run), by name.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Json,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line. Panics if a metric of the contract is
    /// missing or extra: that is a bug in the workload, not a result.
    pub fn result_line(&self, trace: bool) -> String {
        let names: Vec<&str> = if trace {
            manifest::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            manifest::END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(
            {
                let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
                got.sort_unstable();
                got
            },
            {
                let mut want = names.clone();
                want.sort_unstable();
                want
            },
            "reported metrics differ from the manifest"
        );
        let unit = |name: &str| {
            if trace {
                manifest::per_layer_unit(name)
            } else {
                manifest::e2e_unit(name)
            }
        };
        let metrics = names.iter().map(|&name| {
            let value = self
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.1);
            // A non-finite value would not survive JSON; 0 marks it.
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit(name).to_string())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// `VmHWM` of this process in MB (one process per workload, so this is
/// the workload's peak).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generator width: threads / connections never exceed the cores,
/// and never exceed 4.
pub fn concurrency() -> usize {
    nproc().min(4)
}

/// `PYGB_*` variables silently change tunables (parallel threshold,
/// pass list, push/pull density, …): a run with any of them set does
/// not measure the committed configuration.
pub fn pygb_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PYGB_"))
        .collect();
    vars.sort();
    vars
}

/// Facts about the load generator every result records.
pub fn hygiene_json(clients: usize, workers: usize) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("load_model", Json::Str("closed loop".into())),
        ("clients", Json::Num(clients as f64)),
        ("workers", Json::Num(workers as f64)),
        ("one_process_per_workload", Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            attempted: 10,
            failed: 0,
            metrics: manifest::END_TO_END
                .iter()
                .map(|m| (m.name, 1.25))
                .collect(),
            detail: Json::Null,
        };
        let line = out.result_line(false);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert!(matches!(m, Json::Obj(p) if p.len() == manifest::END_TO_END.len()));
        assert_eq!(m.get("setup_s").unwrap().num("value"), Some(1.25));
        assert_eq!(
            m.get("setup_s").unwrap().get("unit"),
            Some(&Json::Str("s".into()))
        );
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(concurrency() >= 1 && concurrency() <= 4);
    }
}
