//! Fig. 10's correctness precondition: for each of the four algorithms,
//! the three variants (DSL per-op dispatch, DSL fused kernel, native
//! GBTL) must compute identical results on random graphs.

use pygb::{DType, Vector};
use pygb_algorithms as algos;
use pygb_io::generators;

fn pairs_i64(v: &Vector) -> Vec<(usize, i64)> {
    v.extract_pairs()
        .into_iter()
        .map(|(i, x)| (i, x.as_i64()))
        .collect()
}

fn pairs_f64(v: &Vector) -> Vec<(usize, f64)> {
    v.extract_pairs()
        .into_iter()
        .map(|(i, x)| (i, x.as_f64()))
        .collect()
}

#[test]
fn bfs_three_variants_agree_across_graphs() {
    for (n, seed) in [(32usize, 1u64), (64, 2), (128, 3)] {
        let edges = generators::erdos_renyi_power(n, seed);
        let g = edges.to_pygb(DType::Fp64);
        let ng: gbtl::Matrix<f64> = edges.to_gbtl();

        let loops = algos::bfs_dsl_loops(&g, 0).unwrap();
        let fused = algos::bfs_dsl_fused(&g, 0).unwrap();
        let native = algos::bfs_native(&ng, 0).unwrap();

        assert_eq!(pairs_i64(&loops), pairs_i64(&fused), "n={n} seed={seed}");
        let native_pairs: Vec<(usize, i64)> = native.iter().map(|(i, v)| (i, v as i64)).collect();
        assert_eq!(pairs_i64(&loops), native_pairs, "n={n} seed={seed}");
    }
}

/// A stored zero-valued edge is no edge, and every BFS variant
/// terminates on a graph that holds some: the int32 cast of (0, 1]
/// weights stores zeros, and doubled weights store a mix of zeros and
/// edges. The variants run off the test thread, which gives each one
/// 60 s, so one that spins fails the test instead of hanging it; all
/// must equal BFS over the graph's nonzero edges alone.
#[test]
fn bfs_variants_terminate_and_agree_on_stored_zero_edges() {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;
    let base = generators::erdos_renyi_power(64, 5).symmetrize();
    let mut doubled = base.clone();
    for e in &mut doubled.edges {
        e.2 *= 2.0;
    }
    for (case, edges) in [("(0, 1] weights", base), ("(0, 2] weights", doubled)] {
        let mut nonzero = edges.clone();
        nonzero.edges.retain(|&(_, _, w)| w as i32 != 0);
        let oracle = pairs_i64(&algos::bfs_dsl_loops(&nonzero.to_pygb(DType::Fp64), 0).unwrap());
        let g = edges.to_pygb(DType::Int32);
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = |name: &'static str, levels: Vector| tx.send((name, pairs_i64(&levels)));
            run("loops", algos::bfs_dsl_loops(&g, 0).unwrap()).unwrap();
            run("fused", algos::bfs_dsl_fused(&g, 0).unwrap()).unwrap();
            run("nonblocking", algos::bfs_nonblocking(&g, 0).unwrap()).unwrap();
            let ng: gbtl::Matrix<i32> = g.to_typed().unwrap();
            let native = algos::bfs_native(&ng, 0).unwrap();
            let native = native.iter().map(|(i, v)| (i, v as i64)).collect();
            tx.send(("native", native)).unwrap();
        });
        for next in ["loops", "fused", "nonblocking", "native"] {
            match rx.recv_timeout(Duration::from_secs(60)) {
                Ok((name, got)) => assert_eq!(got, oracle, "{case}: BFS {name}"),
                Err(RecvTimeoutError::Timeout) => panic!("{case}: BFS {next} did not terminate"),
                // The worker panicked; the join below reports why.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        worker.join().expect("BFS worker panicked");
    }
}

#[test]
fn bfs_on_tree_reaches_every_level() {
    let tree = generators::balanced_tree(3, 4); // 121 vertices
    let g = tree.to_pygb(DType::Fp64);
    let levels = algos::bfs_dsl_loops(&g, 0).unwrap();
    assert_eq!(levels.nvals(), 121);
    let max_level = levels
        .extract_pairs()
        .into_iter()
        .map(|(_, v)| v.as_i64())
        .max()
        .unwrap();
    assert_eq!(max_level, 5); // root at 1, height 4
}

#[test]
fn sssp_three_variants_agree_across_graphs() {
    for (n, seed) in [(32usize, 4u64), (64, 5), (128, 6)] {
        let edges = generators::erdos_renyi_power(n, seed);
        let g = edges.to_pygb(DType::Fp64);
        let ng: gbtl::Matrix<f64> = edges.to_gbtl();

        let mut loops = Vector::new(n, DType::Fp64);
        loops.set(0, 0.0f64).unwrap();
        algos::sssp_dsl_loops(&g, &mut loops).unwrap();

        let mut fused = Vector::new(n, DType::Fp64);
        fused.set(0, 0.0f64).unwrap();
        algos::sssp_dsl_fused(&g, &mut fused).unwrap();
        assert_eq!(pairs_f64(&loops), pairs_f64(&fused), "n={n}");

        let mut native = gbtl::Vector::<f64>::new(n);
        native.set(0, 0.0).unwrap();
        algos::sssp_native(&ng, &mut native).unwrap();
        let native_pairs: Vec<(usize, f64)> = native.iter().collect();
        assert_eq!(pairs_f64(&loops), native_pairs, "n={n}");
    }
}

#[test]
fn tricount_three_variants_agree_across_graphs() {
    for (n, seed) in [(32usize, 7u64), (64, 8), (96, 9)] {
        let lower = generators::erdos_renyi_power(n, seed)
            .symmetrize()
            .lower_triangular()
            .unweighted();
        let l = lower.to_pygb(DType::Fp64);
        let nl: gbtl::Matrix<f64> = lower.to_gbtl();

        let loops = algos::tricount_dsl_loops(&l).unwrap().as_i64();
        let fused = algos::tricount_dsl_fused(&l).unwrap().as_i64();
        let native = algos::tricount_native(&nl).unwrap() as i64;
        let masked_dot = gbtl::algorithms::triangle_count_masked_dot(&nl).unwrap() as i64;

        assert_eq!(loops, fused, "n={n}");
        assert_eq!(loops, native, "n={n}");
        assert_eq!(loops, masked_dot, "n={n}");
    }
}

#[test]
fn pagerank_fused_is_bitwise_native() {
    // The fused variant literally runs the native algorithm; ranks and
    // iteration counts must match exactly.
    let edges = generators::erdos_renyi_power(64, 10).symmetrize();
    let g = edges.to_pygb(DType::Fp64);
    let ng: gbtl::Matrix<f64> = edges.to_gbtl();
    let opts = algos::PageRankOptions::default();

    let (fused, fused_iters) = algos::pagerank_dsl_fused(&g, opts).unwrap();
    let (native, native_iters) = algos::pagerank_native(&ng, opts).unwrap();
    assert_eq!(fused_iters, native_iters);
    let native_pairs: Vec<(usize, f64)> = native.iter().collect();
    assert_eq!(pairs_f64(&fused), native_pairs);
}

#[test]
fn pagerank_dsl_converges_to_same_fixed_point() {
    // Fig. 7 (DSL) and Fig. 8 (native) differ in when the teleport
    // fix-up runs, but on graphs whose rank vector stays dense they
    // converge to the same stationary distribution.
    let edges = generators::erdos_renyi_power(48, 11).symmetrize();
    let g = edges.to_pygb(DType::Fp64);
    // Drive both formulations to the true fixed point: the default
    // threshold (1e-5 on *mean* squared error) lets each stop at a
    // different iterate, several 1e-3 apart per entry.
    let opts = algos::PageRankOptions {
        threshold: 1e-14,
        max_iters: 10_000,
        ..Default::default()
    };

    let (dsl, _) = algos::pagerank_dsl_loops(&g, opts).unwrap();
    let (fused, _) = algos::pagerank_dsl_fused(&g, opts).unwrap();
    for i in 0..48 {
        let a = dsl.get(i).map(|v| v.as_f64()).unwrap_or(0.0);
        let b = fused.get(i).map(|v| v.as_f64()).unwrap_or(0.0);
        assert!((a - b).abs() < 1e-3, "vertex {i}: {a} vs {b}");
    }
    let total: f64 = dsl.to_dense_f64().iter().sum();
    assert!((total - 1.0).abs() < 1e-2, "Σrank = {total}");
}

#[test]
fn variants_on_rmat_graph() {
    // A skewed graph family exercises different sparsity patterns.
    let edges = generators::rmat(7, 8, (0.57, 0.19, 0.19, 0.05), 12);
    let g = edges.to_pygb(DType::Fp64);
    let ng: gbtl::Matrix<f64> = edges.to_gbtl();

    let loops = algos::bfs_dsl_loops(&g, 0).unwrap();
    let native = algos::bfs_native(&ng, 0).unwrap();
    let native_pairs: Vec<(usize, i64)> = native.iter().map(|(i, v)| (i, v as i64)).collect();
    assert_eq!(pairs_i64(&loops), native_pairs);
}

#[test]
fn integer_dtype_graphs_work_end_to_end() {
    let edges = generators::erdos_renyi_power(48, 13).unweighted();
    let g = edges.to_pygb(DType::Int32);
    let loops = algos::bfs_dsl_loops(&g, 0).unwrap();
    let fused = algos::bfs_dsl_fused(&g, 0).unwrap();
    assert_eq!(pairs_i64(&loops), pairs_i64(&fused));
}
