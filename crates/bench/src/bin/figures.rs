//! Regenerate every table and figure of the paper as textual tables,
//! and dump raw samples as JSON under `results/`.
//!
//! ```text
//! cargo run -p pygb-bench --bin figures --release -- all
//! cargo run -p pygb-bench --bin figures --release -- fig10 --max-pow 11 --reps 5
//! cargo run -p pygb-bench --bin figures --release -- fig11 table1 combinatorics compile-times
//! ```

use std::time::Instant;

use pygb_algorithms::Variant;
use pygb_bench::fig10::{self, Algorithm};
use pygb_bench::fig11::{self, ContainerWorkload, Side, Step};
use pygb_bench::report::{bench_summary_json, render_table, to_json, BenchSummaryEntry, Sample};
use pygb_bench::workloads::{size_sweep, Workload};

struct Options {
    max_pow: u32,
    reps: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        max_pow: 11,
        reps: 3,
    };
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-pow" => {
                opts.max_pow = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-pow needs an integer");
            }
            "--reps" => {
                opts.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs an integer");
            }
            other => commands.push(other.to_string()),
        }
    }
    if commands.is_empty() || commands.iter().any(|c| c == "all") {
        commands = vec![
            "table1".into(),
            "combinatorics".into(),
            "fig10".into(),
            "fig11".into(),
            "compile-times".into(),
            "summary".into(),
        ];
    }

    let mut all_samples: Vec<Sample> = Vec::new();
    for cmd in &commands {
        match cmd.as_str() {
            "table1" => table1(),
            "combinatorics" => combinatorics(),
            "fig10" => all_samples.extend(run_fig10(&opts)),
            "fig11" => all_samples.extend(run_fig11(&opts)),
            "compile-times" => compile_times(),
            "summary" => summary(&opts),
            other => eprintln!("unknown command `{other}` (try: all, table1, combinatorics, fig10, fig11, compile-times, summary)"),
        }
    }

    if !all_samples.is_empty() {
        let _ = std::fs::create_dir_all("results");
        let path = "results/figures.json";
        if std::fs::write(path, to_json(&all_samples)).is_ok() {
            println!("\nraw samples written to {path}");
        }
    }
}

/// Table I: every operation form, executed through the DSL and checked
/// against its mathematical definition.
fn table1() {
    use pygb::prelude::*;
    println!("# Table I — operation forms (executed + verified)\n");
    let mut rows: Vec<(&str, &str, bool)> = Vec::new();

    let a = Matrix::from_dense(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]).unwrap();
    let b = Matrix::from_dense(&[vec![5.0f64, 6.0], vec![7.0, 8.0]]).unwrap();
    let u = Vector::from_dense(&[1.0f64, 2.0]);
    let v = Vector::from_dense(&[10.0f64, 20.0]);

    // mxm: C = A ⊕.⊗ B
    {
        let _sr = ArithmeticSemiring.enter();
        let c = Matrix::from_expr(a.matmul(&b)).unwrap();
        rows.push((
            "mxm",
            "C[M, z] = A @ B",
            c.get(0, 0).unwrap().as_f64() == 19.0,
        ));
    }
    // mxv: w = A ⊕.⊗ u
    {
        let _sr = ArithmeticSemiring.enter();
        let w = Vector::from_expr(a.mxv(&u)).unwrap();
        rows.push(("mxv", "w[m, z] = A @ u", w.get(0).unwrap().as_f64() == 5.0));
    }
    // eWiseMult / eWiseAdd, both arities
    {
        let c = Matrix::from_expr(&a * &b).unwrap();
        rows.push((
            "eWiseMult (M)",
            "C[M, z] = A * B",
            c.get(0, 0).unwrap().as_f64() == 5.0,
        ));
        let w = Vector::from_expr(&u * &v).unwrap();
        rows.push((
            "eWiseMult (v)",
            "w[m, z] = u * v",
            w.get(1).unwrap().as_f64() == 40.0,
        ));
        let c2 = Matrix::from_expr(&a + &b).unwrap();
        rows.push((
            "eWiseAdd (M)",
            "C[M, z] = A + B",
            c2.get(1, 1).unwrap().as_f64() == 12.0,
        ));
        let w2 = Vector::from_expr(&u + &v).unwrap();
        rows.push((
            "eWiseAdd (v)",
            "w[m, z] = u + v",
            w2.get(0).unwrap().as_f64() == 11.0,
        ));
    }
    // reduce row / scalar
    {
        let w = Vector::from_expr(pygb::reduce_rows(&a)).unwrap();
        rows.push((
            "reduce (row)",
            "w[m, z] = reduce(monoid, A)",
            w.get(0).unwrap().as_f64() == 3.0,
        ));
        let s = reduce(&a).unwrap();
        rows.push(("reduce (scalar)", "s = reduce(A)", s.as_f64() == 10.0));
        let sv = reduce(&u).unwrap();
        rows.push(("reduce (vector)", "s = reduce(u)", sv.as_f64() == 3.0));
    }
    // apply
    {
        let _op = UnaryOp::new("AdditiveInverse").unwrap().enter();
        let c = Matrix::from_expr(pygb::apply(&a)).unwrap();
        rows.push((
            "apply (M)",
            "C[M, z] = apply(A)",
            c.get(0, 0).unwrap().as_f64() == -1.0,
        ));
        let w = Vector::from_expr(pygb::apply(&u)).unwrap();
        rows.push((
            "apply (v)",
            "w[m, z] = apply(u)",
            w.get(1).unwrap().as_f64() == -2.0,
        ));
    }
    // transpose
    {
        let c = Matrix::from_expr(a.t().expr()).unwrap();
        rows.push((
            "transpose",
            "C[M, z] = A.T",
            c.get(0, 1).unwrap().as_f64() == 3.0,
        ));
    }
    // extract
    {
        let c = Matrix::from_expr(a.extract(0..1, 0..2)).unwrap();
        rows.push(("extract (M)", "C[M, z] = A[i, j]", c.shape() == (1, 2)));
        let w = Vector::from_expr(u.extract(vec![1usize])).unwrap();
        rows.push((
            "extract (v)",
            "w[m, z] = u[i]",
            w.get(0).unwrap().as_f64() == 2.0,
        ));
    }
    // assign
    {
        let mut c = Matrix::new(3, 3, DType::Fp64);
        c.no_mask().region(0..2, 0..2).assign(&a).unwrap();
        rows.push((
            "assign (M)",
            "C[M, z][i, j] = A",
            c.get(1, 1).unwrap().as_f64() == 4.0,
        ));
        let mut w = Vector::new(4, DType::Fp64);
        w.no_mask().slice(1..3).assign(&u).unwrap();
        rows.push((
            "assign (v)",
            "w[m, z][i] = u",
            w.get(2).unwrap().as_f64() == 2.0,
        ));
    }

    for (name, notation, ok) in &rows {
        println!(
            "  {:<16} {:<28} {}",
            name,
            notation,
            if *ok { "✓" } else { "✗ FAILED" }
        );
    }
    let failed = rows.iter().filter(|r| !r.2).count();
    println!("\n  {} forms verified, {} failed\n", rows.len(), failed);
    assert_eq!(failed, 0, "Table I verification failed");
}

/// Section V's counting argument.
fn combinatorics() {
    use pygb_jit::combinatorics as comb;
    println!("# Section V — why precompilation is infeasible\n");
    println!(
        "  mxm container-type combinations : 11^4        = {:>16}",
        comb::mxm_type_combinations()
    );
    println!(
        "  accumulator combinations        : 17·11³      = {:>16}",
        comb::accumulator_combinations()
    );
    println!(
        "  semiring op pairings            : 17·17       = {:>16}",
        comb::semiring_op_pairings()
    );
    println!(
        "  typed semiring combinations     : 17²·11³     = {:>16}",
        comb::semiring_combinations()
    );
    println!(
        "  total mxm key space             :             = {:>16}  (paper: \"roughly 6 trillion\")",
        comb::mxm_total_combinations()
    );
    println!();
}

/// Fig. 10: four algorithms × three variants across the size sweep.
fn run_fig10(opts: &Options) -> Vec<Sample> {
    println!("# Fig. 10 — algorithm run time, Erdős–Rényi |E| = |V|^1.5\n");
    let mut samples = Vec::new();
    for algo in Algorithm::ALL {
        let mut algo_samples = Vec::new();
        for &n in &size_sweep(opts.max_pow) {
            let w = Workload::erdos_renyi(n, 42);
            for variant in Variant::ALL {
                let dt = fig10::run_median(algo, variant, &w, opts.reps);
                algo_samples.push(Sample::new(
                    &format!("fig10/{}", algo.label()),
                    variant.label(),
                    n,
                    dt,
                ));
            }
        }
        println!("{}", render_table(algo.label(), &algo_samples));
        samples.extend(algo_samples);
    }
    samples
}

/// Fig. 11: container lifecycle, interpreted vs native.
fn run_fig11(opts: &Options) -> Vec<Sample> {
    println!("# Fig. 11 — container lifecycle, interpreted vs native\n");
    let mut samples = Vec::new();
    for step in Step::ALL {
        let mut step_samples = Vec::new();
        for &n in &size_sweep(opts.max_pow) {
            let w = ContainerWorkload::new(n, 17);
            for side in Side::ALL {
                let dt = fig11::run_median(step, side, &w, opts.reps);
                step_samples.push(Sample::new(
                    &format!("fig11/{}", step.label()),
                    side.label(),
                    n,
                    dt,
                ));
            }
        }
        println!("{}", render_table(step.label(), &step_samples));
        samples.extend(step_samples);
    }
    samples
}

/// `results/bench_summary.json`: each algorithm's nonblocking variant
/// run once under tracing, emitting wall time, the per-phase breakdown
/// (from the observability layer's span totals), and per-kernel-family
/// execution counts (metrics histogram deltas).
fn summary(opts: &Options) {
    println!("# Bench summary — wall time + per-phase attribution (nonblocking variant)\n");
    let n = 1usize << opts.max_pow.min(8);
    let mut entries = Vec::new();
    pygb_obs::enable();
    for algo in Algorithm::ALL {
        let w = Workload::erdos_renyi(n, 42);
        // Warm the JIT cache so the breakdown attributes steady-state
        // dispatch, not first-run compilation.
        fig10::run_once(algo, Variant::Nonblocking, &w);
        pygb_obs::clear_events();
        let before = pygb_obs::registry().snapshot();
        let dt = fig10::run_once(algo, Variant::Nonblocking, &w);
        let after = pygb_obs::registry().snapshot();
        let phases = pygb_obs::phase_totals()
            .into_iter()
            .map(|(p, ns)| (p.to_string(), ns))
            .collect();
        let kernels = after
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let family = name.strip_prefix("kernel/")?;
                let delta = h.count - before.histogram_count(name);
                (delta > 0).then(|| (family.to_string(), delta))
            })
            .collect();
        let entry = BenchSummaryEntry {
            algorithm: algo.label().to_string(),
            n,
            wall_seconds: dt.as_secs_f64(),
            phases,
            kernels,
        };
        println!(
            "  {:<16} |V|={:<6} wall={}  kernels={}",
            entry.algorithm,
            entry.n,
            pygb_bench::report::format_seconds(entry.wall_seconds),
            entry.kernels.iter().map(|(_, c)| c).sum::<u64>(),
        );
        entries.push(entry);
    }
    pygb_obs::disable();
    pygb_obs::clear_events();

    let _ = std::fs::create_dir_all("results");
    let path = "results/bench_summary.json";
    match std::fs::write(path, bench_summary_json(&entries)) {
        Ok(()) => println!("\nbench summary written to {path}\n"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}\n"),
    }
}

/// Compile-time summary: cold instantiation vs warm dispatch vs
/// whole-library ahead-of-time instantiation.
fn compile_times() {
    use pygb_jit::{FactoryRegistry, ModuleCache, ModuleKey};
    println!("# Compile times — JIT instantiation vs warm dispatch\n");

    let registry = FactoryRegistry::new();
    pygb::kernels::register_all(&registry);
    let cache = ModuleCache::in_memory();
    // Every cache counts into the process census; this scope keeps the
    // printed stats to this cache's own traffic.
    let scope = pygb_obs::Scope::new();
    let _in = scope.enter();

    // Cold compiles across many distinct keys.
    let n_keys = 500;
    let start = Instant::now();
    for i in 0..n_keys {
        let key = ModuleKey::new("mxm")
            .with("c_type", "fp64")
            .with("variant", i.to_string());
        cache
            .get_or_compile(&key, |k| registry.instantiate(k))
            .expect("compile");
    }
    let cold = start.elapsed() / n_keys;

    // Warm hits on one key.
    let key = ModuleKey::new("mxm")
        .with("c_type", "fp64")
        .with("variant", "0");
    let n_hits = 100_000u32;
    let start = Instant::now();
    for _ in 0..n_hits {
        cache
            .get_or_compile(&key, |k| registry.instantiate(k))
            .expect("hit");
    }
    let warm = start.elapsed() / n_hits;

    // Whole-library ahead-of-time instantiation.
    let funcs = registry.registered_functions();
    let start = Instant::now();
    let mut count = 0usize;
    for func in &funcs {
        for dtype in pygb::dtype::ALL_DTYPES {
            let k = ModuleKey::new(func.clone()).with("c_type", dtype.name());
            registry.instantiate(&k).expect("instantiate");
            count += 1;
        }
    }
    let aot = start.elapsed();

    println!("  cold compile (per key)            : {cold:?}");
    println!("  warm dispatch (memory hit)        : {warm:?}");
    println!("  ahead-of-time: {count} modules      : {aot:?}");
    let stats = pygb_jit::StatsSnapshot::of(&scope);
    println!(
        "  cache stats: {} compiles, {} hits, hit rate {:.1}%\n",
        stats.compiles,
        stats.memory_hits,
        stats.hit_rate() * 100.0
    );
}
