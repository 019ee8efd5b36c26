//! The repo benchmark. See README.md; `/BENCHMARK.json` is the contract.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! run.sh [--seed N] [--workload W] [--sets K]            every workload, untraced then traced
//! run.sh compare A.json B.json                           judge B against A
//! run.sh manifest                                        print /BENCHMARK.json
//! ```

mod analytics;
mod compare;
mod gen;
mod json;
mod layers;
mod manifest;
mod mix;
mod ops;
mod reference;
mod run;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunArgs, RunOutput};

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload W] [--seed N] [--seconds S] [--sets K] [--out FILE]\n\
         \x20      run.sh --workload W --seed N --seconds S --trace 0|1 [--detail FILE]\n\
         \x20      run.sh compare A.json B.json\n\
         \x20      run.sh manifest\n\
         workloads: {}",
        manifest::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand position.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key.strip_prefix("--")?;
            out.push((key.to_string(), it.next()?.clone()));
        }
        Some(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Option<T> {
        match self.get(key) {
            None => Some(default),
            Some(v) => v.parse().ok(),
        }
    }
}

/// Run one workload in this process.
fn run_workload(args: &RunArgs) -> std::io::Result<RunOutput> {
    Ok(match args.workload.as_str() {
        "analytics_large" => analytics::run(mix::ANALYTICS_LARGE, args),
        "analytics_small" => analytics::run(mix::ANALYTICS_SMALL, args),
        "serve_read" => serve::run(serve::Profile::Read, mix::SERVE_READ, args)?,
        "serve_rw" => serve::run(serve::Profile::Rw, mix::SERVE_RW, args)?,
        other => {
            return Err(std::io::Error::other(format!("unknown workload `{other}`")));
        }
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json().pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::main(a, b),
                _ => usage(),
            };
        }
        _ => {}
    }
    let Some(flags) = Flags::parse(&argv) else {
        return usage();
    };
    let env = run::pygb_env();
    if !env.is_empty() {
        eprintln!(
            "refusing to run: {} set. PYGB_* variables silently change tunables, so the \
             result would not measure the committed configuration; unset them.",
            env.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        return ExitCode::from(2);
    }
    let (Some(seed), Some(seconds)) = (
        flags.num("seed", 1u64),
        flags.num("seconds", manifest::RUN_SECONDS as f64),
    ) else {
        return usage();
    };
    let out_dir = PathBuf::from(flags.get("out-dir").unwrap_or("benchmark/out"));

    let Some(trace) = flags.get("trace") else {
        let Some(sets) = flags.num("sets", 1usize) else {
            return usage();
        };
        return suite::main(
            flags.get("workload"),
            seed,
            seconds,
            sets,
            &out_dir,
            flags.get("out"),
        );
    };
    let Some(workload) = flags.get("workload") else {
        return usage();
    };
    let args = RunArgs {
        workload: workload.to_string(),
        seed,
        seconds,
        trace: trace == "1",
        out_dir,
        detail: flags.get("detail").map(PathBuf::from),
    };
    match run_workload(&args) {
        Ok(out) => {
            print_run(&args, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every metric by name with its unit, then the driver's result line
/// (the last line of standard output).
fn print_run(args: &RunArgs, out: &RunOutput) {
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        run::nproc()
    );
    for (name, value) in &out.metrics {
        let unit = if args.trace {
            manifest::per_layer_unit(name)
        } else {
            manifest::e2e_unit(name)
        };
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "# attempted={} failed={} correct={}",
        out.attempted,
        out.failed,
        out.correct()
    );
    if let Some(path) = &args.detail {
        let doc = json::Json::obj([
            (
                "result",
                json::Json::parse(&out.result_line(args.trace)).expect("own JSON"),
            ),
            ("detail", out.detail.clone()),
        ]);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}", out.result_line(args.trace));
}
