//! The one command: every workload untraced (end-to-end numbers), then
//! traced (per-layer numbers), each in a process of its own so
//! `peak_rss_mb` is per workload; every metric printed by name with its
//! unit; non-zero exit on any incorrect result.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::compare;
use crate::json::Json;
use crate::manifest;
use crate::run;
use crate::stats::Summary;

/// Counts that must repeat exactly between runs of one commit.
fn is_exact_count(workload: &str, name: &str) -> bool {
    name.starts_with("algorithms.") && name.ends_with("_iterations")
        || name == "jit.cache_misses"
        || (workload.starts_with("analytics_")
            && name.starts_with("runtime.")
            && manifest::per_layer_unit(name) == "count")
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child run; returns `{result, detail}`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let pass = if trace { "traced" } else { "untraced" };
    let detail = out_dir.join(format!("detail_{workload}_{pass}.json"));
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .arg("--detail")
        .arg(&detail)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload} ({pass}) exited with {}", output.status));
    }
    let text = std::fs::read_to_string(&detail).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

pub fn main(
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    sets: usize,
    out_dir: &Path,
    out_file: Option<&str>,
) -> ExitCode {
    let workloads: Vec<&str> = manifest::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    if workloads.is_empty() || sets == 0 {
        eprintln!("nothing to run");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut incorrect = 0;
    let mut set_docs = Vec::new();
    for set in 0..sets {
        let mut doc = Vec::new();
        for &w in &workloads {
            let mut passes = Vec::new();
            for trace in [false, true] {
                let pass = if trace { "traced" } else { "untraced" };
                eprintln!("[set {}/{sets}] {w} ({pass}) ...", set + 1);
                match child(w, seed, seconds, trace, out_dir) {
                    Ok(run) => {
                        if run.get("result").and_then(|r| r.get("correct"))
                            != Some(&Json::Bool(true))
                        {
                            incorrect += 1;
                            eprintln!("INCORRECT RESULT in {w} ({pass})");
                        }
                        passes.push((pass, run));
                    }
                    Err(e) => {
                        incorrect += 1;
                        eprintln!("RUN FAILED: {e}");
                    }
                }
            }
            doc.push((w, Json::obj(passes)));
        }
        set_docs.push(Json::obj(doc));
    }
    let doc = Json::obj([
        ("schema", Json::Str("pygb-benchmark/1".into())),
        (
            "env",
            Json::obj([
                ("nproc", Json::Num(run::nproc() as f64)),
                ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
                (
                    "git_sha",
                    Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Json::Num(seed as f64)),
                ("run_seconds", Json::Num(seconds)),
                ("sets", Json::Num(sets as f64)),
            ]),
        ),
        ("sets", Json::Arr(set_docs)),
    ]);

    let all = compare::sets_of(&doc);
    for &w in &workloads {
        for (pass, title) in [
            ("untraced", "end-to-end, tracing off"),
            ("traced", "per-layer, traced pass"),
        ] {
            println!("\n== {w}: {title} (median [q1, q3] over {sets} set(s)) ==");
            let names: Vec<(&str, &str)> = if pass == "untraced" {
                manifest::END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect()
            } else {
                manifest::PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect()
            };
            for (name, unit) in names {
                let v = compare::values(&all, w, pass, name);
                let s = Summary::of(&v);
                println!(
                    "{name:<36} {:>16.6} [{:.6}, {:.6}] {unit}",
                    s.median, s.q1, s.q3
                );
                if pass == "traced" && is_exact_count(w, name) && v.iter().any(|x| *x != v[0]) {
                    incorrect += 1;
                    println!("  ^ NOT EXACT across sets: {v:?}");
                }
            }
            // Facts that are not metrics but belong beside them, from
            // the first set's detail.
            let detail = all[0].get(w).and_then(|r| r.get(pass)?.get("detail"));
            let served = detail.and_then(|d| {
                if pass == "traced" {
                    d.get("serve")
                } else {
                    Some(d)
                }
            });
            for key in ["littles_law", "round_trip_split"] {
                if let Some(v) = served.and_then(|d| d.get(key)) {
                    println!("# {key}: {}", v.render());
                }
            }
            if let Some(v) = detail.and_then(|d| d.get("mix")?.get("ratios")) {
                println!("# per-algorithm ratios: {}", v.render());
            }
        }
    }
    if sets > 1 {
        // Alternating sets of one commit, judged by the benchmark's own
        // bounds: everything must come out `unchanged`.
        println!("\n== agreement: even sets (base) vs odd sets (new) ==");
        let even: Vec<&Json> = all.iter().copied().step_by(2).collect();
        let odd: Vec<&Json> = all.iter().copied().skip(1).step_by(2).collect();
        let out = compare::table(&even, &odd);
        println!(
            "{} regressed, {} unresolved, {} workloads with a higher fail_share",
            out.regressed, out.unresolved, out.more_failures
        );
    }

    let default_out = out_dir.join("BENCH.json");
    let path = out_file.map_or(default_out.as_path(), Path::new);
    match std::fs::write(path, doc.pretty()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if incorrect > 0 {
        eprintln!("{incorrect} incorrect or failed run(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
