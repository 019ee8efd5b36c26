//! Ablation: scoped-thread row-parallel SpGEMM vs a sequential SpGEMM
//! sharing the same sparse-accumulator kernel structure — quantifying
//! what the `parallel` feature buys (DESIGN.md design-choice bench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbtl::prelude::*;
use gbtl::workspace::Spa;
use pygb_bench::workloads::Workload;

/// Sequential Gustavson SpGEMM with the same per-row structure the
/// library kernel uses (via `row_map_sequential`).
fn spgemm_sequential(a: &Matrix<f64>, b: &Matrix<f64>) -> usize {
    let sr = ArithmeticSemiring::<f64>::new();
    let rows = gbtl::parallel::row_map_sequential(
        a.nrows(),
        || Spa::<f64>::new(b.ncols()),
        |spa, i| {
            let (a_cols, a_vals) = a.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    spa.scatter(j, sr.mult(av, bv), |x, y| sr.add(x, y));
                }
            }
            spa.drain_sorted()
        },
    );
    rows.iter().map(Vec::len).sum()
}

/// Library mxm (row-parallel above the threshold).
fn spgemm_library(a: &Matrix<f64>, b: &Matrix<f64>) -> usize {
    let mut c = Matrix::<f64>::new(a.nrows(), b.ncols());
    operations::mxm(
        &mut c,
        &NoMask,
        NoAccumulate,
        &ArithmeticSemiring::new(),
        a,
        b,
        Replace(false),
    )
    .expect("mxm");
    c.nvals()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_spgemm");
    group.sample_size(10);
    for &n in &[512usize, 1024, 2048] {
        let w = Workload::erdos_renyi(n, 99);
        let a = w.gbtl.clone();
        group.bench_with_input(BenchmarkId::new("parallel", n), &a, |bch, a| {
            bch.iter(|| spgemm_library(a, a))
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &a, |bch, a| {
            bch.iter(|| spgemm_sequential(a, a))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
