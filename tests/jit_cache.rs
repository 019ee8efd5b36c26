//! The dynamic-compilation machinery end-to-end through the DSL:
//! module keys, cache behaviour, trace stages, and the Section V
//! combinatorics.

use pygb::prelude::*;
use pygb_jit::{CacheOutcome, JitRuntime, ModuleKey, Stage};

/// An isolated runtime with PyGB's factories (the global one is shared
/// across tests in this binary, so counting tests build their own).
fn isolated_runtime() -> JitRuntime {
    let rt = JitRuntime::in_memory();
    pygb::kernels::register_all(rt.registry());
    rt
}

#[test]
fn one_compile_per_distinct_key_through_the_dsl() {
    // Run the same operation many times on the global runtime: the
    // compile count for its key must rise by exactly one (warm-up may
    // or may not compile depending on test order — measure the delta
    // across a *novel* dtype combination instead).
    let u = Vector::from_dense(&[1i16, 2]); // int16: unlikely elsewhere
    let v = Vector::from_dense(&[3i16, 4]);
    let before = pygb::runtime().cache().stats().snapshot();
    for _ in 0..10 {
        let _op = BinaryOp::new("Max").unwrap().enter();
        let w = Vector::from_expr(&u * &v).unwrap();
        assert_eq!(w.get(0).unwrap().as_i64(), 3);
    }
    let after = pygb::runtime().cache().stats().snapshot();
    let new_compiles = after.compiles - before.compiles;
    let new_dispatches = after.total_dispatches() - before.total_dispatches();
    assert!(new_compiles <= 1, "expected ≤1 compile, got {new_compiles}");
    assert_eq!(new_dispatches, 10);
}

#[test]
fn distinct_dtypes_are_distinct_modules() {
    let rt = isolated_runtime();
    for dtype in ["fp64", "fp32", "int64", "int32", "bool"] {
        let key = ModuleKey::new("apply_v")
            .with("c_type", dtype)
            .with("unary", "Identity");
        let (_, outcome) = rt
            .cache()
            .get_or_compile(&key, |k| rt.registry().instantiate(k))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Compiled, "{dtype}");
    }
    assert_eq!(rt.cache().resident_modules(), 5);
    assert_eq!(rt.cache().stats().snapshot().compiles, 5);
}

#[test]
fn distinct_operators_are_distinct_modules() {
    let rt = isolated_runtime();
    for op in ["Plus", "Minus", "Times", "Min", "Max"] {
        let key = ModuleKey::new("ewise_add_v")
            .with("c_type", "fp64")
            .with("binop", op);
        rt.cache()
            .get_or_compile(&key, |k| rt.registry().instantiate(k))
            .unwrap();
    }
    assert_eq!(rt.cache().resident_modules(), 5);
}

#[test]
fn structural_flags_partition_the_key_space() {
    // at/bt/complement/replace all enter the key, as in the paper's
    // counting argument.
    let rt = isolated_runtime();
    let mut count = 0;
    for at in ["0", "1"] {
        for replace in ["0", "1"] {
            let key = ModuleKey::new("mxv")
                .with("c_type", "fp64")
                .with("semiring", "Plus_Zero_Times")
                .with("at", at)
                .with("replace", replace);
            let (_, outcome) = rt
                .cache()
                .get_or_compile(&key, |k| rt.registry().instantiate(k))
                .unwrap();
            assert_eq!(outcome, CacheOutcome::Compiled);
            count += 1;
        }
    }
    assert_eq!(rt.cache().resident_modules(), count);
}

#[test]
fn dispatch_traces_cover_fig9_stages() {
    let rt = pygb::runtime();
    rt.set_tracing(true);
    let a = Matrix::from_dense(&[vec![1u32, 0], vec![0, 1]]).unwrap();
    {
        let _sr = ArithmeticSemiring.enter();
        let _c = Matrix::from_expr(a.matmul(&a)).unwrap();
    }
    let traces = rt.take_traces();
    rt.set_tracing(false);
    // Sibling tests dispatch on the same global runtime while tracing
    // is on: pick this test's dispatch by its key, not by position.
    let t = traces
        .iter()
        .rev()
        .find(|t| t.key.contains("mxm") && t.key.contains("uint32"))
        .expect("the uint32 mxm dispatch was traced");
    for stage in [
        Stage::ExpressionConstruction,
        Stage::TypeInference,
        Stage::KeyHash,
        Stage::ModuleRetrieval,
        Stage::Invocation,
    ] {
        assert!(t.stage_ns(stage).is_some(), "missing stage {stage:?}");
    }
    assert!(t.outcome.is_some());
    assert!(t.key.contains("mxm"));
    assert!(t.key.contains("uint32"));
    assert!(t.total_ns() >= t.overhead_ns());
}

#[test]
fn warm_dispatch_is_much_cheaper_than_compile() {
    let rt = isolated_runtime();
    let key = ModuleKey::new("reduce_v_scalar")
        .with("c_type", "fp64")
        .with("monoid", "Plus_Zero");
    rt.cache()
        .get_or_compile(&key, |k| rt.registry().instantiate(k))
        .unwrap();
    for _ in 0..100 {
        let (_, outcome) = rt
            .cache()
            .get_or_compile(&key, |k| rt.registry().instantiate(k))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
    }
    let snap = rt.cache().stats().snapshot();
    assert_eq!(snap.compiles, 1);
    assert_eq!(snap.memory_hits, 100);
    assert!(snap.hit_rate() > 0.98);
}

#[test]
fn section_v_combinatorics() {
    use pygb_jit::combinatorics as comb;
    assert_eq!(comb::mxm_type_combinations(), 14_641);
    assert_eq!(comb::accumulator_combinations(), 22_627);
    let total = comb::mxm_total_combinations();
    assert!(
        (1_000_000_000_000..100_000_000_000_000).contains(&total),
        "total = {total} should be trillions"
    );
    // A real session touches a vanishing fraction of the space.
    assert!(comb::coverage_fraction(1000) < 1e-8);
}

#[test]
fn disk_index_amortizes_across_restarts() {
    let dir = std::env::temp_dir().join(format!("pygb-it-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = |expect: CacheOutcome| {
        let rt = JitRuntime::with_disk_index(&dir);
        pygb::kernels::register_all(rt.registry());
        let key = ModuleKey::new("apply_m")
            .with("c_type", "fp64")
            .with("unary", "LogicalNot");
        let (_, outcome) = rt
            .cache()
            .get_or_compile(&key, |k| rt.registry().instantiate(k))
            .unwrap();
        assert_eq!(outcome, expect);
    };
    run(CacheOutcome::Compiled); // first process: cold
    run(CacheOutcome::DiskHit); // second process: warm from disk
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kernel_errors_propagate_through_dispatch() {
    // A dimension error is now caught by the static analyzer before any
    // kernel dispatches, and surfaces as a typed diagnostic naming the
    // op and both operand shapes — not a panic, and not a late JIT
    // error from inside GBTL.
    let _sr = ArithmeticSemiring.enter();
    let a = Matrix::new(2, 3, DType::Fp64);
    let b = Matrix::new(4, 2, DType::Fp64); // inner dims clash
    let err = Matrix::from_expr(a.matmul(&b)).unwrap_err();
    match err {
        PygbError::Invalid {
            op,
            ref reason,
            ref expr,
        } => {
            assert_eq!(op, "mxm");
            assert!(reason.contains("2x3") && reason.contains("4x2"), "{reason}");
            assert_eq!(expr, "mxm([2x3 fp64], [4x2 fp64])");
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(
        err.to_string(),
        "invalid `mxm`: inner dimensions disagree: 2x3 @ 4x2; in mxm([2x3 fp64], [4x2 fp64])"
    );
}
