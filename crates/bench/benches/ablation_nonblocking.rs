//! Ablation of the nonblocking execution runtime: the same operation
//! sequences run eagerly (blocking mode) and deferred through the
//! op-DAG (nonblocking mode), isolating what each fusion rule and the
//! parallel wave scheduler buy.
//!
//! * **ewise_chain** — `t = u + u; w = t * u`: blocking dispatches two
//!   eWise kernels through an intermediate container; nonblocking fuses
//!   them into one `fused_ewise_chain` dispatch (rule 1).
//! * **ewise_reduce** — `d = u * u; reduce(d)`: blocking dispatches an
//!   eWise kernel plus a reduction; nonblocking folds both into one
//!   `fused_ewise_reduce` dispatch (rule 4).
//! * **independent_wave** — k data-independent SpMVs: blocking runs
//!   them back to back; nonblocking defers all k and executes the wave
//!   through the parallel job runner.
//! * **pagerank_body** — the full Fig. 7 iteration body (rules 2 and
//!   4 fire every iteration).
//! * **flush_chain** — a dependent chain `w = w + u` of k operations
//!   per flush, k = 16 … 1024, on a 64-entry vector where dispatch,
//!   not the kernel, is the cost. Every sample runs 1024 operations
//!   (1024/k flushes of k), so the reported time ÷ 1024 is the per-op
//!   cost, and equal times across k mean a flush costs what its nodes
//!   cost. A scheduler that rescans the DAG per wave makes the
//!   nonblocking column grow with k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pygb::prelude::*;
use pygb_algorithms as algos;
use pygb_bench::workloads::Workload;

fn dense_vec(n: usize) -> Vector {
    let mut v = Vector::new(n, DType::Fp64);
    v.no_mask().slice(..).assign_scalar(1.0 / n as f64).unwrap();
    v
}

fn bench(c: &mut Criterion) {
    let mut chain = c.benchmark_group("nonblocking_ewise_chain");
    chain.sample_size(15);
    for &n in &[1024usize, 16384] {
        let u = dense_vec(n);
        chain.bench_with_input(BenchmarkId::new("blocking", n), &u, |bch, u| {
            let mut w = Vector::new(n, DType::Fp64);
            bch.iter(|| {
                let t = Vector::from_expr(u + u).expect("t");
                w.no_mask().assign(&t * u).expect("assign");
            })
        });
        chain.bench_with_input(BenchmarkId::new("nonblocking", n), &u, |bch, u| {
            let mut w = Vector::new(n, DType::Fp64);
            bch.iter(|| {
                let _nb = pygb_runtime::nonblocking().expect("nb");
                let t = Vector::from_expr(u + u).expect("t");
                w.no_mask().assign(&t * u).expect("assign");
            })
        });
    }
    chain.finish();

    let mut red = c.benchmark_group("nonblocking_ewise_reduce");
    red.sample_size(15);
    for &n in &[1024usize, 16384] {
        let u = dense_vec(n);
        red.bench_with_input(BenchmarkId::new("blocking", n), &u, |bch, u| {
            let mut d = Vector::new(n, DType::Fp64);
            bch.iter(|| {
                d.no_mask().assign(u * u).expect("assign");
                pygb::reduce(&d).expect("reduce").as_f64()
            })
        });
        red.bench_with_input(BenchmarkId::new("nonblocking", n), &u, |bch, u| {
            let mut d = Vector::new(n, DType::Fp64);
            bch.iter(|| {
                let _nb = pygb_runtime::nonblocking().expect("nb");
                d.no_mask().assign(u * u).expect("assign");
                pygb::reduce(&d).expect("reduce").as_f64()
            })
        });
    }
    red.finish();

    let mut wave = c.benchmark_group("nonblocking_independent_wave");
    wave.sample_size(15);
    for &n in &[256usize, 1024] {
        let w = Workload::erdos_renyi(n, 5);
        let m = &w.sym_pygb;
        let u = dense_vec(n);
        const K: usize = 8;
        wave.bench_with_input(BenchmarkId::new("blocking", n), m, |bch, m| {
            let mut outs: Vec<Vector> = (0..K).map(|_| Vector::new(n, DType::Fp64)).collect();
            bch.iter(|| {
                let _sr = ArithmeticSemiring.enter();
                for out in &mut outs {
                    out.no_mask().assign(u.vxm(m)).expect("vxm");
                }
            })
        });
        wave.bench_with_input(BenchmarkId::new("nonblocking", n), m, |bch, m| {
            let mut outs: Vec<Vector> = (0..K).map(|_| Vector::new(n, DType::Fp64)).collect();
            bch.iter(|| {
                let _sr = ArithmeticSemiring.enter();
                let _nb = pygb_runtime::nonblocking().expect("nb");
                for out in &mut outs {
                    out.no_mask().assign(u.vxm(m)).expect("vxm");
                }
            })
        });
    }
    wave.finish();

    let mut pr = c.benchmark_group("nonblocking_pagerank");
    pr.sample_size(10);
    for &n in &[256usize, 1024] {
        let w = Workload::erdos_renyi(n, 5);
        let opts = algos::PageRankOptions {
            max_iters: 20,
            threshold: 0.0,
            ..Default::default()
        };
        pr.bench_with_input(
            BenchmarkId::new("blocking_loops", n),
            &w.sym_pygb,
            |bch, g| bch.iter(|| algos::pagerank_dsl_loops(g, opts).expect("pagerank")),
        );
        pr.bench_with_input(BenchmarkId::new("nonblocking", n), &w.sym_pygb, |bch, g| {
            bch.iter(|| algos::pagerank_nonblocking(g, opts).expect("pagerank"))
        });
    }
    pr.finish();
}

/// Ops per `flush_chain` sample, whatever the chain length.
const CHAIN_OPS: usize = 1024;

fn flush_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("nonblocking_flush_chain");
    group.sample_size(15);
    let u = dense_vec(64);
    for &k in &[16usize, 64, 256, 1024] {
        let chain = |w: &mut Vector| {
            for _ in 0..k {
                let prev = w.clone();
                w.no_mask().assign(&prev + &u).expect("assign");
            }
        };
        group.bench_with_input(BenchmarkId::new("blocking", k), &k, |bch, _| {
            let mut w = Vector::new(64, DType::Fp64);
            bch.iter(|| {
                let _op = BinaryOp::new("Plus").expect("op").enter();
                for _ in 0..CHAIN_OPS / k {
                    chain(&mut w);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("nonblocking", k), &k, |bch, _| {
            let mut w = Vector::new(64, DType::Fp64);
            bch.iter(|| {
                let _op = BinaryOp::new("Plus").expect("op").enter();
                for _ in 0..CHAIN_OPS / k {
                    let _nb = pygb_runtime::nonblocking().expect("nb");
                    chain(&mut w);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench, flush_chain);
criterion_main!(benches);
