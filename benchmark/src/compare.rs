//! `run.sh compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both medians and quartiles, the ratio and its base, the
//! bound, and a verdict. Non-zero exit on any regression or on a higher
//! share of failed operations.

use std::process::ExitCode;

use crate::json::Json;
use crate::manifest::{self, Better, EndToEnd};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: the bound cannot
    /// be judged, which is not the same as "unchanged".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a` for one metric.
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if a.spread().max(b.spread()) > metric.bound {
        return Verdict::Unresolved;
    }
    if a.median == 0.0 {
        return Verdict::Unchanged;
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The sets of a result file (`sets: [{workload: {untraced, traced}}]`).
pub fn sets_of(doc: &Json) -> Vec<&Json> {
    doc.get("sets")
        .and_then(Json::as_array)
        .map(|s| s.iter().collect())
        .unwrap_or_default()
}

fn result<'a>(set: &'a Json, workload: &str, pass: &str) -> Option<&'a Json> {
    set.get(workload)?.get(pass)?.get("result")
}

/// One metric's value in every set that has it.
pub fn values(sets: &[&Json], workload: &str, pass: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|s| {
            result(s, workload, pass)?
                .get("metrics")?
                .get(metric)?
                .num("value")
        })
        .collect()
}

/// Failed over attempted, summed over the sets' untraced runs.
fn fail_share(sets: &[&Json], workload: &str) -> Option<f64> {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for r in sets.iter().filter_map(|s| result(s, workload, "untraced")) {
        failed += r.num("failed")?;
        attempted += r.num("attempted")?;
    }
    (attempted > 0.0).then(|| failed / attempted)
}

/// How many rows of a [`table`] regressed, were unresolved, or failed more.
pub struct Outcome {
    pub regressed: usize,
    pub unresolved: usize,
    pub more_failures: usize,
}

/// Print the table for `b` against base `a`.
pub fn table(a: &[&Json], b: &[&Json]) -> Outcome {
    let mut out = Outcome {
        regressed: 0,
        unresolved: 0,
        more_failures: 0,
    };
    println!(
        "{:<16} {:<24} {:>36} {:>36} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "base: median [q1, q3] n",
        "new: median [q1, q3] n",
        "new/base",
        "bound"
    );
    for w in &manifest::WORKLOADS {
        for metric in &manifest::END_TO_END {
            let (va, vb) = (
                values(a, w.name, "untraced", metric.name),
                values(b, w.name, "untraced", metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let verdict = judge(metric, &sa, &sb);
            match verdict {
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{:<16} {:<24} {:>36} {:>36} {:>9.4} {:>5.0}%  {}",
                w.name,
                format!("{} ({})", metric.name, metric.unit),
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                metric.bound * 100.0,
                verdict.label()
            );
        }
        if let (Some(fa), Some(fb)) = (fail_share(a, w.name), fail_share(b, w.name)) {
            let more = fb > fa;
            out.more_failures += more as usize;
            println!(
                "{:<16} {:<24} {:>36.6} {:>36.6} {:>9} {:>6}  {}",
                w.name,
                "fail_share",
                fa,
                fb,
                "",
                "0%",
                if more { "regressed" } else { "unchanged" }
            );
        }
    }
    out
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("base = {a_path}, new = {b_path}; ratios are new/base");
    let out = table(&sets_of(&a), &sets_of(&b));
    println!(
        "{} regressed, {} unresolved, {} workloads with a higher fail_share",
        out.regressed, out.unresolved, out.more_failures
    );
    if out.regressed + out.more_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let steady = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01]);
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(
            judge(&lower, &steady(10.0), &steady(10.5)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, &steady(10.0), &steady(11.5)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &steady(10.0), &steady(8.5)),
            Verdict::Improved
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            judge(&higher, &steady(10.0), &steady(8.5)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &steady(10.0), &steady(11.5)),
            Verdict::Improved
        );
        let noisy = Summary::of(&[8.0, 10.0, 12.0]);
        assert_eq!(judge(&lower, &noisy, &steady(20.0)), Verdict::Unresolved);
    }

    #[test]
    fn values_are_read_per_set() {
        let doc = Json::parse(
            r#"{"sets":[
                {"w":{"untraced":{"result":{"attempted":10,"failed":0,"metrics":{"m":{"value":1.5,"unit":"ms"}}}}}},
                {"w":{"untraced":{"result":{"attempted":10,"failed":1,"metrics":{"m":{"value":2.5,"unit":"ms"}}}}}}
            ]}"#,
        )
        .unwrap();
        let sets = sets_of(&doc);
        assert_eq!(values(&sets, "w", "untraced", "m"), vec![1.5, 2.5]);
        assert_eq!(values(&sets, "w", "traced", "m"), Vec::<f64>::new());
        assert_eq!(fail_share(&sets, "w"), Some(0.05));
    }
}
