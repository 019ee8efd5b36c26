//! Section IV's multi-threading discussion, resolved: "each thread
//! would need to keep track of its own operator stack". Our context
//! stacks are thread-local and guards are `!Send`, so concurrent DSL
//! programs compose; the JIT module cache is shared and thread-safe.

use std::sync::Arc;
use std::thread;

use pygb::prelude::*;
use pygb_algorithms::bfs_dsl_loops;
use pygb_io::generators;

#[test]
fn operator_contexts_are_per_thread() {
    // Thread A computes under MinPlus while thread B computes under
    // Arithmetic; neither context leaks into the other.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let b2 = Arc::clone(&barrier);

    let a = thread::spawn(move || {
        let u = Vector::from_dense(&[3.0f64]);
        let v = Vector::from_dense(&[5.0f64]);
        let _sr = MinPlusSemiring.enter();
        b2.wait(); // both threads hold their contexts simultaneously
        let w = Vector::from_expr(&u + &v).unwrap(); // ⊕ = Min
        w.get(0).unwrap().as_f64()
    });
    let b = thread::spawn(move || {
        let u = Vector::from_dense(&[3.0f64]);
        let v = Vector::from_dense(&[5.0f64]);
        let _sr = ArithmeticSemiring.enter();
        barrier.wait();
        let w = Vector::from_expr(&u + &v).unwrap(); // ⊕ = Plus
        w.get(0).unwrap().as_f64()
    });
    assert_eq!(a.join().unwrap(), 3.0);
    assert_eq!(b.join().unwrap(), 8.0);
}

#[test]
fn concurrent_dsl_algorithms_share_the_jit_cache() {
    // Many threads run BFS through the DSL at once; the shared module
    // cache serves them all, and every thread gets correct results.
    let edges = generators::erdos_renyi_power(128, 21);
    let graph = edges.to_pygb(DType::Fp64);
    let reference: Vec<(usize, i64)> = bfs_dsl_loops(&graph, 0)
        .unwrap()
        .extract_pairs()
        .into_iter()
        .map(|(i, v)| (i, v.as_i64()))
        .collect();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let g = graph.clone(); // Arc handle, shared storage
            thread::spawn(move || {
                bfs_dsl_loops(&g, 0)
                    .unwrap()
                    .extract_pairs()
                    .into_iter()
                    .map(|(i, v)| (i, v.as_i64()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), reference);
    }
}

#[test]
fn cow_handles_are_safe_to_mutate_across_threads() {
    // Each thread mutates its own clone of a shared container;
    // copy-on-write keeps them isolated.
    let base = Vector::from_dense(&[0.0f64; 16]);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let mut v = base.clone();
            thread::spawn(move || {
                v.set(t, (t + 1) as f64).unwrap();
                (t, v.get(t).unwrap().as_f64(), v.nvals())
            })
        })
        .collect();
    for h in handles {
        let (t, val, nvals) = h.join().unwrap();
        assert_eq!(val, (t + 1) as f64);
        assert_eq!(nvals, 16);
    }
    // The base snapshot never changed.
    assert_eq!(base.to_dense_f64(), vec![0.0; 16]);
}

#[test]
fn parallel_and_small_sequential_kernels_agree() {
    // The scoped-thread row-parallel path kicks in above the
    // threshold; results must be identical to the small-problem
    // sequential path. Compute the same product as one big matrix and
    // as its small blocks.
    let n = gbtl::parallel::PAR_THRESHOLD * 2; // forces the parallel path
    let edges = generators::erdos_renyi(n, n * 4, 31);
    let a: gbtl::Matrix<f64> = edges.to_gbtl();
    let mut big = gbtl::Matrix::<f64>::new(n, n);
    gbtl::operations::mxm(
        &mut big,
        &gbtl::NoMask,
        gbtl::NoAccumulate,
        &gbtl::prelude::ArithmeticSemiring::new(),
        &a,
        &a,
        gbtl::Replace(false),
    )
    .unwrap();
    // Sequential reference through the exposed sequential row-mapper.
    let seq_rows = gbtl::parallel::row_map_sequential(
        n,
        || gbtl::workspace::Spa::<f64>::new(n),
        |spa, i| {
            let (cols, vals) = a.row(i);
            for (&k, &av) in cols.iter().zip(vals) {
                let (bc, bv) = a.row(k);
                for (&j, &b) in bc.iter().zip(bv) {
                    spa.scatter(j, av * b, |x, y| x + y);
                }
            }
            spa.drain_sorted()
        },
    );
    for (i, row) in seq_rows.iter().enumerate() {
        let (cols, vals) = big.row(i);
        let lib_row: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        assert_eq!(&lib_row, row, "row {i}");
    }
}
