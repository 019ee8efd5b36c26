//! Ablation of the op-DAG optimization pipeline: the same workloads
//! run with every pass enabled and with the pipeline off, measuring
//! wall-clock and — via the `opt/*` counters — how many kernel
//! launches the passes eliminated.
//!
//! * **pagerank_diag** — a PageRank power iteration instrumented the
//!   way monitoring code tends to be: each iteration computes its
//!   residual twice (CSE bait) and builds a magnitude vector nobody
//!   reads (liveness bait). The optimizer must claw back exactly those
//!   redundant launches without changing the ranks.
//! * **expr_batch** — `BATCH`ed duplicate `EXPR` traffic against a real
//!   `pygb-serve` instance: consecutive members share one flush, so
//!   duplicates collapse via CSE; the same lines sent one request at a
//!   time are the no-grouping baseline.
//! * **empty_chain** — eWiseMult chains rooted at an empty vector,
//!   reached only through pending placeholders: invisible to the
//!   syntactic no-op pass, folded wholesale by the sparsity abstract
//!   interpretation (`opt/empty_folded`), with zero kernel launches.
//! * **bfs_wave** — a BFS wavefront whose masked frontier `mxv` pushes
//!   with the passes on and off (the analysis decides no SpMV
//!   direction; empty levels may fold), levels bit-exact vs off.
//!
//! Writes `results/ablation_passes.json` (time samples plus the raw
//! counter deltas) so CI can archive the numbers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pygb::prelude::*;
use pygb_bench::report::{render_table, to_json, Sample};
use pygb_bench::workloads::Workload;
use pygb_obs::registry;
use pygb_runtime::{reset_passes, set_passes, PassKind};
use pygb_serve::{Catalog, Client, Server, ServerConfig};

const ALL_PASSES: &[PassKind] = &[
    PassKind::Dce,
    PassKind::Cse,
    PassKind::Sparsity,
    PassKind::Noop,
];

fn time<R>(mut f: impl FnMut() -> R) -> Duration {
    // One warm-up, then the median of three runs.
    f();
    let mut runs: Vec<Duration> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    runs.sort();
    runs[1]
}

/// PageRank iteration body with redundant diagnostics: propagate,
/// compute the residual twice, build a dead magnitude vector, reduce
/// the residual. Returns the final ranks for the equivalence check.
fn pagerank_diag(m: &Matrix, iters: usize) -> Vector {
    let n = m.nrows();
    let mut rank = Vector::new(n, DType::Fp64);
    rank.no_mask()
        .slice(..)
        .assign_scalar(1.0 / n as f64)
        .unwrap();
    let mut new_rank = Vector::new(n, DType::Fp64);
    for _ in 0..iters {
        let _nb = pygb_runtime::nonblocking().unwrap();
        {
            let _sr = ArithmeticSemiring.enter();
            new_rank.no_mask().assign(rank.vxm(m)).unwrap();
        }
        let _op = BinaryOp::new("Minus").unwrap().enter();
        let r1 = Vector::from_expr(&new_rank + &rank).unwrap();
        let r2 = Vector::from_expr(&new_rank + &rank).unwrap(); // duplicate: CSE bait
        let _ = Vector::from_expr(&r1 * &r2).unwrap(); // dropped: liveness bait
        let _residual = pygb::reduce(&r1).unwrap(); // read → flush
        std::mem::swap(&mut rank, &mut new_rank);
    }
    rank
}

/// eWiseMult chains rooted at an always-empty vector. Each chain's
/// links after the first read a *pending placeholder*, so only the
/// abstract interpretation (not the syntactic no-op pass) can prove
/// them empty and fold them before any kernel launches.
fn empty_chain(n: usize, chains: usize, depth: usize) -> Vector {
    let empty = Vector::new(n, DType::Fp64);
    let mut dense = Vector::new(n, DType::Fp64);
    dense.no_mask().slice(..).assign_scalar(1.5f64).unwrap();
    let mut out = Vector::new(n, DType::Fp64);
    for _ in 0..chains {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _op = BinaryOp::new("Times").unwrap().enter();
        let mut t = Vector::from_expr(&empty * &dense).unwrap();
        for _ in 1..depth {
            t = Vector::from_expr(&t * &dense).unwrap();
        }
        out.no_mask().assign(&t * &dense).unwrap();
    }
    out
}

/// BFS wavefront sweep: per level, the unvisited-neighbor `mxv` is
/// masked by the complement of `visited`. The frontier's density is
/// statically known, yet the product runs the orientation its operand
/// carries with the passes on or off.
fn bfs_wave(m: &Matrix, levels: usize) -> Vector {
    let n = m.nrows();
    let mut frontier = Vector::new(n, DType::Fp64);
    frontier.set(0, 1.0f64).unwrap();
    let mut visited = Vector::new(n, DType::Fp64);
    visited.set(0, 1.0f64).unwrap();
    for _ in 0..levels {
        let mut next = Vector::new(n, DType::Fp64);
        {
            let _nb = pygb_runtime::nonblocking().unwrap();
            let _sr = ArithmeticSemiring.enter();
            next.masked_complement(&visited)
                .replace()
                .assign(m.t().mxv(&frontier))
                .unwrap();
            let _acc = Accumulator::new("Plus").unwrap().enter();
            visited.no_mask().accum_assign(&next).unwrap();
        }
        frontier = next;
    }
    visited
}

struct CounterDelta {
    launches_saved: u64,
    dce_elided: u64,
    cse_deduped: u64,
    noop_folded: u64,
    empty_folded: u64,
    fact_misses: u64,
    invocations: u64,
    spmv_push: u64,
    spmv_pull: u64,
}

fn measure_counters<R>(f: impl FnOnce() -> R) -> (R, CounterDelta) {
    let stats = pygb::runtime().cache().stats();
    let before = registry().snapshot();
    let inv_before = stats.snapshot().invocations;
    let out = f();
    let after = registry().snapshot();
    let inv_after = stats.snapshot().invocations;
    let d = |name: &str| after.counter(name) - before.counter(name);
    (
        out,
        CounterDelta {
            launches_saved: d("opt/launches_saved"),
            dce_elided: d("opt/dce_elided"),
            cse_deduped: d("opt/cse_deduped"),
            noop_folded: d("opt/noop_folded"),
            empty_folded: d("opt/empty_folded"),
            fact_misses: d("opt/fact_misses"),
            invocations: inv_after - inv_before,
            spmv_push: d("jit/sel_push") + d("jit/sel_masked_push"),
            spmv_pull: d("jit/sel_pull") + d("jit/sel_masked_pull"),
        },
    )
}

fn counters_json(name: &str, c: &CounterDelta) -> String {
    format!(
        "\"{name}\":{{\"launches_saved\":{},\"dce_elided\":{},\"cse_deduped\":{},\"noop_folded\":{},\"empty_folded\":{},\"fact_misses\":{},\"invocations\":{},\"spmv_push\":{},\"spmv_pull\":{}}}",
        c.launches_saved,
        c.dce_elided,
        c.cse_deduped,
        c.noop_folded,
        c.empty_folded,
        c.fact_misses,
        c.invocations,
        c.spmv_push,
        c.spmv_pull
    )
}

fn main() {
    let mut samples = Vec::new();
    let mut counter_blobs = Vec::new();

    // --- PageRank with redundant diagnostics ---
    const ITERS: usize = 20;
    for &n in &[256usize, 1024] {
        let w = Workload::erdos_renyi(n, 5);
        let m = &w.sym_pygb;

        set_passes(&[]);
        let (ranks_off, off) = measure_counters(|| pagerank_diag(m, ITERS));
        let t_off = time(|| pagerank_diag(m, ITERS));

        set_passes(ALL_PASSES);
        let (ranks_on, on) = measure_counters(|| pagerank_diag(m, ITERS));
        let t_on = time(|| pagerank_diag(m, ITERS));
        reset_passes();

        assert_eq!(
            ranks_off.extract_pairs(),
            ranks_on.extract_pairs(),
            "optimizer changed PageRank ranks at n={n}"
        );
        assert_eq!(off.launches_saved, 0, "passes-off must save nothing");
        assert!(
            on.launches_saved >= (2 * ITERS) as u64,
            "expected ≥{} launches saved (1 CSE + 1 DCE per iteration), got {}",
            2 * ITERS,
            on.launches_saved
        );
        assert!(
            on.invocations < off.invocations,
            "optimizer must issue fewer kernels: {} vs {}",
            on.invocations,
            off.invocations
        );

        samples.push(Sample::new(
            "ablation/passes_pagerank",
            "passes-off",
            n,
            t_off,
        ));
        samples.push(Sample::new(
            "ablation/passes_pagerank",
            "passes-on",
            n,
            t_on,
        ));
        if n == 1024 {
            counter_blobs.push(counters_json("pagerank_diag_off", &off));
            counter_blobs.push(counters_json("pagerank_diag_on", &on));
        }
    }

    // --- Batched duplicate EXPR traffic against pygb-serve ---
    // No kept answers: the 16 unbatched lines repeat two requests on
    // one snapshot, and hits would compare lookups against the batched
    // side's real work.
    let config = ServerConfig {
        result_cache_bytes: 0,
        ..ServerConfig::default()
    };
    let srv = Server::start(Arc::new(Catalog::new()), config).expect("start server");
    let mut c = Client::connect(srv.local_addr()).expect("connect");
    let n = 512usize;
    c.request_ok(&format!("REGISTER g ER {n} {} 42 SYM", n * 5))
        .expect("register");
    let lines: Vec<String> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                "EXPR g EWADD g BINOP Plus".to_string()
            } else {
                "EXPR g EWMULT g BINOP Times".to_string()
            }
        })
        .collect();
    let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();

    let (_, unbatched_counters) = measure_counters(|| {
        for l in &line_refs {
            c.request_ok(l).expect("expr");
        }
    });
    let t_unbatched = time(|| {
        for l in &line_refs {
            c.request_ok(l).expect("expr");
        }
    });
    let (_, batched_counters) = measure_counters(|| {
        c.batch(&line_refs).expect("batch");
    });
    let t_batched = time(|| {
        c.batch(&line_refs).expect("batch");
    });

    assert_eq!(
        unbatched_counters.cse_deduped, 0,
        "separate requests flush separately — nothing to CSE"
    );
    assert!(
        unbatched_counters.invocations >= 16,
        "every unbatched request must run its own kernel, got {} invocations",
        unbatched_counters.invocations
    );
    assert!(
        batched_counters.cse_deduped >= 14,
        "16 members over 2 distinct expressions must dedup ≥14, got {}",
        batched_counters.cse_deduped
    );
    samples.push(Sample::new(
        "ablation/passes_expr_batch",
        "unbatched",
        n,
        t_unbatched,
    ));
    samples.push(Sample::new(
        "ablation/passes_expr_batch",
        "batched",
        n,
        t_batched,
    ));
    counter_blobs.push(counters_json("expr_batch_unbatched", &unbatched_counters));
    counter_blobs.push(counters_json("expr_batch_batched", &batched_counters));
    drop(c);
    srv.shutdown();

    // --- Provably-empty subtrees through pending placeholders ---
    {
        let n = 4096usize;
        let (chains, depth) = (8usize, 4usize);
        set_passes(&[]);
        let (out_off, off) = measure_counters(|| empty_chain(n, chains, depth));
        let t_off = time(|| empty_chain(n, chains, depth));
        set_passes(ALL_PASSES);
        let (out_on, on) = measure_counters(|| empty_chain(n, chains, depth));
        let t_on = time(|| empty_chain(n, chains, depth));
        reset_passes();

        assert_eq!(
            out_off.extract_pairs(),
            out_on.extract_pairs(),
            "sparsity folding changed the empty-chain result"
        );
        assert_eq!(out_on.nvals(), 0, "empty chain must stay empty");
        assert!(
            on.empty_folded >= (chains * depth) as u64,
            "expected ≥{} provably-empty folds, got {}",
            chains * depth,
            on.empty_folded
        );
        assert_eq!(off.empty_folded, 0, "passes-off must fold nothing");
        assert!(
            on.invocations < off.invocations,
            "folded chains must launch fewer kernels: {} vs {}",
            on.invocations,
            off.invocations
        );
        samples.push(Sample::new(
            "ablation/passes_empty_chain",
            "passes-off",
            n,
            t_off,
        ));
        samples.push(Sample::new(
            "ablation/passes_empty_chain",
            "passes-on",
            n,
            t_on,
        ));
        counter_blobs.push(counters_json("empty_chain_off", &off));
        counter_blobs.push(counters_json("empty_chain_on", &on));
    }

    // --- BFS frontier mxv: the passes leave the SpMV kernels alone ---
    {
        let n = 1024usize;
        let levels = 6usize;
        let w = Workload::erdos_renyi(n, 7);
        let m = &w.sym_pygb;
        set_passes(&[]);
        let (vis_off, off) = measure_counters(|| bfs_wave(m, levels));
        let t_off = time(|| bfs_wave(m, levels));
        set_passes(ALL_PASSES);
        let (vis_on, on) = measure_counters(|| bfs_wave(m, levels));
        let t_on = time(|| bfs_wave(m, levels));
        reset_passes();

        assert_eq!(
            vis_off.extract_pairs(),
            vis_on.extract_pairs(),
            "the passes changed BFS reachability"
        );
        // `m.t()` pushes in both modes; the passes may only drop
        // launches (empty levels fold), never turn one into a pull.
        assert_eq!(
            (on.spmv_pull, off.spmv_pull),
            (0, 0),
            "a transposed frontier product must push, passes on or off"
        );
        assert!(
            on.spmv_push <= off.spmv_push,
            "the passes added SpMV launches: {} vs {}",
            on.spmv_push,
            off.spmv_push
        );
        assert_eq!(
            on.fact_misses + off.fact_misses,
            0,
            "checked interpretation recorded a fact miss during BFS"
        );
        samples.push(Sample::new(
            "ablation/passes_bfs_wave",
            "passes-off",
            n,
            t_off,
        ));
        samples.push(Sample::new(
            "ablation/passes_bfs_wave",
            "passes-on",
            n,
            t_on,
        ));
        counter_blobs.push(counters_json("bfs_wave_off", &off));
        counter_blobs.push(counters_json("bfs_wave_on", &on));
    }

    let pr: Vec<Sample> = samples
        .iter()
        .filter(|s| s.experiment.ends_with("pagerank"))
        .cloned()
        .collect();
    let batch: Vec<Sample> = samples
        .iter()
        .filter(|s| s.experiment.ends_with("expr_batch"))
        .cloned()
        .collect();
    println!(
        "{}",
        render_table("ablation: pass pipeline (PageRank + diagnostics)", &pr)
    );
    println!(
        "{}",
        render_table("ablation: batched EXPR grouping", &batch)
    );
    let empty: Vec<Sample> = samples
        .iter()
        .filter(|s| s.experiment.ends_with("empty_chain"))
        .cloned()
        .collect();
    let bfs: Vec<Sample> = samples
        .iter()
        .filter(|s| s.experiment.ends_with("bfs_wave"))
        .cloned()
        .collect();
    println!(
        "{}",
        render_table("ablation: sparsity folding (empty chains)", &empty)
    );
    println!(
        "{}",
        render_table("ablation: BFS wavefront (push in both modes)", &bfs)
    );

    // `cargo bench` runs with cwd = crates/bench; anchor the output at
    // the workspace root where the other result files live.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = format!("{dir}/ablation_passes.json");
    let json = format!(
        "{{\"samples\":{},\"counters\":{{{}}}}}",
        to_json(&samples),
        counter_blobs.join(",")
    );
    std::fs::write(&path, json).expect("write ablation_passes.json");
    println!(
        "wrote results/ablation_passes.json ({} samples)",
        samples.len()
    );
}
