//! The SpMV family's modules (`mxv`, `vxm`, `mxv_apply`, `vxm_apply`)
//! are monomorphized on the semiring their key names; every other
//! triple runs the operator interpreter (`KindSemiring`). That choice
//! must be unobservable except in speed:
//!
//! (a) on one argument bundle, the module the registered factory
//!     builds for a named semiring and the interpreter instantiated on
//!     the same key write the same bits and select the same `gbtl`
//!     kernel — every named semiring × every dtype × every family
//!     member, over random masks, accumulators, replace flags and
//!     operand orientations, with NaN, ±∞ and wrapping integers among
//!     the values;
//! (b) an unlisted triple and a user-registered ⊕/⊗ fall back to the
//!     interpreter and still agree with the dense oracle;
//! (c) a hand-assembled `Plus`/`Zero`/`Times` semiring and
//!     `ArithmeticSemiring` are one key, one module, one
//!     specialization;
//! (d) the set of modules and the `gbtl` kernels a fixed round of the
//!     DSL algorithms uses are what they were before specialization.
//!
//! The interpreter side of (a) is `pygb::kernels::interpreted_spmv` —
//! the factory's own fallback instantiation, reached directly; there is
//! no switch that makes dispatch use it.
//!
//! Counts (`jit/*_modules`, the kernel selections) are read from a
//! census scope of the test's own. The two tests that flip process-wide
//! runtime state — the trace switch and the global cache's eviction —
//! hold [`RUNTIME_LOCK`], so neither sees the other's traces or loses a
//! warm module to the other's eviction.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use gbtl::ops::kind::{
    register_user_binary_op, AppliedUnaryKind, BinaryOpKind, IdentityKind, KindMonoid,
    KindSemiring, UnaryOpKind,
};
use pygb::dispatch::semiring_key;
use pygb::kernels::{interpreted_spmv, register_all, VecArgs};
use pygb::prelude::*;
use pygb::store::VectorStore;
use pygb::Element;
use pygb_integration::fig1_graph;
use pygb_jit::StatsSnapshot;
use pygb_jit::{CacheOutcome, FactoryRegistry, ModuleKey};
use pygb_obs::{Census, Scope};

const N: usize = 6;

const NAMED: [&str; 8] = [
    "ArithmeticSemiring",
    "LogicalSemiring",
    "MinPlusSemiring",
    "MaxTimesSemiring",
    "MinSelect1stSemiring",
    "MinSelect2ndSemiring",
    "MaxSelect1stSemiring",
    "MaxSelect2ndSemiring",
];

const FAMILY: [&str; 4] = ["mxv", "vxm", "mxv_apply", "vxm_apply"];

/// Held by the tests that turn the global runtime's tracing on or evict
/// its cache.
static RUNTIME_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `f` under a scope of its own, and the scope.
fn scoped<R>(f: impl FnOnce() -> R) -> (R, Arc<Scope>) {
    let scope = Scope::new();
    let out = {
        let _in = scope.enter();
        f()
    };
    (out, scope)
}

/// (`jit/specialized_modules`, `jit/interpreted_modules`) in `scope`.
fn modules(scope: &Scope) -> (u64, u64) {
    (
        scope.get(Census::SpecializedModules),
        scope.get(Census::InterpretedModules),
    )
}

/// The four SpMV selection counters.
fn selections(s: &StatsSnapshot) -> [u64; 4] {
    [s.sel_pull, s.sel_masked_pull, s.sel_push, s.sel_masked_push]
}

// ---------------------------------------------------------------------
// (a) specialized ≡ interpreted, on the bundle.
// ---------------------------------------------------------------------

/// One generated bundle shape; the property runs it through every
/// (semiring, dtype, family member).
#[derive(Clone, Debug)]
struct Case {
    /// 0 = no mask, 1 = mask, 2 = complemented mask.
    mask_mode: usize,
    /// Index into [`ACCUMS`].
    accum: usize,
    replace: bool,
    /// Operand orientation: a plain operand pulls under `mxv` and
    /// pushes under `vxm`, a transposed one the reverse.
    at: bool,
    /// The fused forms' unary operator: index into [`UNARIES`].
    unary: usize,
    /// Value codes (see [`value`]) of `A` row-major, then `u`, the
    /// output's prior contents and the mask.
    cells: Vec<u8>,
}

const ACCUMS: [Option<BinaryOpKind>; 4] = [
    None,
    Some(BinaryOpKind::Plus),
    Some(BinaryOpKind::Min),
    Some(BinaryOpKind::Second),
];

const UNARIES: [AppliedUnaryKind; 2] = [
    AppliedUnaryKind::Pure(UnaryOpKind::AdditiveInverse),
    AppliedUnaryKind::Bind2nd(BinaryOpKind::Times, 3.0),
];

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            0usize..3,
            0usize..ACCUMS.len(),
            any::<bool>(),
            any::<bool>(),
        ),
        0usize..UNARIES.len(),
        proptest::collection::vec(0u8..24, N * N + 3 * N),
    )
        .prop_map(|((mask_mode, accum, replace, at), unary, cells)| Case {
            mask_mode,
            accum,
            replace,
            at,
            unary,
            cells,
        })
}

/// A cell's value: a third absent, most small integers (negative ones
/// wrap to the top of an unsigned range, so `Plus`/`Times` overflow),
/// the rest the extremes that stress `Min`/`Max` — the type's largest
/// and smallest value (±∞ for floats) and NaN (0 for integers).
fn value<T: Element>(code: u8) -> Option<T> {
    Some(match code {
        0..=7 => return None,
        8..=15 => T::from_i64(i64::from(code) - 11),
        16..=20 => T::from_i64(i64::from(code) - 18),
        21 => T::min_identity(),
        22 => T::max_identity(),
        _ => T::from_f64(f64::NAN),
    })
}

fn vector_of<T: Element>(codes: &[u8]) -> gbtl::Vector<T> {
    let pairs = codes
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| value::<T>(c).map(|v| (i, v)));
    gbtl::Vector::from_pairs(N, pairs).unwrap()
}

fn bundle<T: Element>(case: &Case, sr: KindSemiring) -> VecArgs {
    let (a, rest) = case.cells.split_at(N * N);
    let triples = a
        .iter()
        .enumerate()
        .filter_map(|(k, &c)| value::<T>(c).map(|v| (k / N, k % N, v)));
    let a = gbtl::Matrix::<T>::from_triples(N, N, triples).unwrap();
    let mut args = VecArgs::new(T::wrap_vector(vector_of::<T>(&rest[N..2 * N])));
    args.a = Some(Arc::new(T::wrap_matrix(a)));
    args.at = case.at;
    args.u = Some(Arc::new(T::wrap_vector(vector_of::<T>(&rest[..N]))));
    args.semiring = Some(sr);
    args.unary = Some(UNARIES[case.unary]);
    args.accum = ACCUMS[case.accum];
    args.replace = case.replace;
    if case.mask_mode != 0 {
        // A stored `false` is in the pattern but masks out.
        args.mask = Some(Arc::new(bool::wrap_vector(vector_of::<bool>(
            &rest[2 * N..],
        ))));
        args.complemented = case.mask_mode == 2;
    }
    args
}

/// The stored entries as `(index, bits)`. Bit-exact, except that every
/// NaN is one value: an instantiation may commute a float `+`, and
/// which operand's NaN sign survives `NaN + NaN` is the hardware's
/// choice, not the semiring's.
fn bits(store: &VectorStore) -> Vec<(usize, u64)> {
    store
        .extract_pairs_dyn()
        .into_iter()
        .map(|(i, v)| {
            let b = match v {
                DynScalar::Fp64(x) if x.is_nan() => f64::NAN.to_bits(),
                DynScalar::Fp32(x) if x.is_nan() => u64::from(f32::NAN.to_bits()),
                DynScalar::Fp64(x) => x.to_bits(),
                DynScalar::Fp32(x) => u64::from(x.to_bits()),
                other => other.as_i64() as u64,
            };
            (i, b)
        })
        .collect()
}

/// A registry of PyGB's factories, apart from the global module cache:
/// every instantiation below is cold.
fn factories() -> &'static FactoryRegistry {
    static REG: OnceLock<FactoryRegistry> = OnceLock::new();
    REG.get_or_init(|| {
        let reg = FactoryRegistry::new();
        register_all(&reg);
        reg
    })
}

fn check<T: Element>(case: &Case) {
    for name in NAMED {
        let sr = KindSemiring::from_name(name).unwrap();
        for func in FAMILY {
            let key = ModuleKey::new(func)
                .with("c_type", T::DTYPE.name())
                .with("semiring", semiring_key(sr));
            let context = format!("{func}<{}, {name}> on {case:?}", T::DTYPE);

            let specialized = factories().instantiate(&key).unwrap();
            let interpreted = interpreted_spmv(&key).unwrap();
            assert!(
                !specialized.describe().contains("interpreted"),
                "{context}: {}",
                specialized.describe()
            );
            assert!(
                interpreted.describe().contains("interpreted"),
                "{context}: {}",
                interpreted.describe()
            );

            let run = |kernel: &dyn pygb_jit::Kernel| {
                let mut args = bundle::<T>(case, sr);
                let ((), scope) = scoped(|| {
                    kernel
                        .invoke(&mut args)
                        .unwrap_or_else(|e| panic!("{context}: {e}"))
                });
                assert_eq!(args.c.dtype(), T::DTYPE, "{context}");
                (bits(&args.c), selections(&StatsSnapshot::of(&scope)))
            };
            let (got, got_kernel) = run(&*specialized);
            let (want, want_kernel) = run(&*interpreted);
            assert_eq!(got, want, "{context}");
            assert_eq!(got_kernel, want_kernel, "{context}: gbtl kernel selected");
            assert_eq!(got_kernel.iter().sum::<u64>(), 1, "{context}");
        }
    }
}

proptest! {
    #[test]
    fn specialized_modules_write_what_the_interpreter_writes(case in case_strategy()) {
        check::<bool>(&case);
        check::<i8>(&case);
        check::<i16>(&case);
        check::<i32>(&case);
        check::<i64>(&case);
        check::<u8>(&case);
        check::<u16>(&case);
        check::<u32>(&case);
        check::<u64>(&case);
        check::<f32>(&case);
        check::<f64>(&case);
    }
}

// ---------------------------------------------------------------------
// (b) fallback: unlisted and user-defined triples.
// ---------------------------------------------------------------------

#[test]
fn unlisted_and_user_triples_fall_back_and_match_the_oracle() {
    let a = gbtl::Matrix::from_triples(
        3,
        3,
        [
            (0usize, 0usize, 2.0f32),
            (0, 2, -5.0),
            (1, 1, 4.0),
            (2, 0, 1.5),
            (2, 1, -1.0),
        ],
    )
    .unwrap();
    let u = gbtl::Vector::from_pairs(3, [(0usize, 3.0f32), (1, -2.0), (2, 0.5)]).unwrap();
    let w0 = gbtl::Vector::from_pairs(3, [(1usize, 10.0f32)]).unwrap();

    // Built-in operators that are no named semiring, and a semiring of
    // two user-registered operators.
    let max_plus = KindSemiring::new(
        KindMonoid::new(BinaryOpKind::Max, IdentityKind::MaxIdentity),
        BinaryOpKind::Plus,
    );
    let abs_max = register_user_binary_op(
        "SpecProofAbsMax",
        |x, y| x.abs().max(y.abs()),
        Some(IdentityKind::Zero),
    );
    let mean = register_user_binary_op("SpecProofMean", |x, y| (x + y) / 2.0, None);
    let user = KindSemiring::new(KindMonoid::new(abs_max, IdentityKind::Zero), mean);

    let dsl: [(KindSemiring, Semiring); 2] = [
        (
            max_plus,
            Semiring::new(Monoid::new("Max", "MaxIdentity").unwrap(), "Plus").unwrap(),
        ),
        (
            user,
            Semiring::from_parts(
                Monoid::from_op(BinaryOp::new("SpecProofAbsMax").unwrap(), 0.0).unwrap(),
                BinaryOp::new("SpecProofMean").unwrap(),
            ),
        ),
    ];
    for (kind, semiring) in dsl {
        let name = semiring_key(kind);
        let (pa, pu) = (Matrix::from_typed(a.clone()), Vector::from_typed(u.clone()));
        // `w<accum Plus> = A ⊕.⊗ u`.
        let mut w = Vector::from_typed(w0.clone());
        let ((), scope) = scoped(|| {
            let _sr = semiring.enter();
            let _acc = Accumulator::new("Plus").unwrap().enter();
            w.no_mask().accum_assign(pa.mxv(&pu)).unwrap();
        });
        assert_eq!(modules(&scope), (0, 1), "{name}: one module, interpreted");
        let want = gbtl::reference::mxv(
            &w0,
            &gbtl::NoMask,
            &gbtl::ops::accum::MaybeAccum(Some(BinaryOpKind::Plus)),
            &kind,
            &a,
            &u,
            gbtl::Replace(false),
        );
        let got: Vec<(usize, f32)> = w
            .extract_pairs()
            .into_iter()
            .map(|(i, v)| (i, v.as_f64() as f32))
            .collect();
        assert_eq!(got, want.iter().collect::<Vec<_>>(), "{name}");
    }
}

// ---------------------------------------------------------------------
// (c) the triple, not the spelling, picks the module.
// ---------------------------------------------------------------------

#[test]
fn hand_assembled_arithmetic_is_the_named_module() {
    let _lock = RUNTIME_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let rt = pygb::runtime();
    // uint16 operands: a key nothing else in this binary dispatches.
    let a = Matrix::from_dense(&[vec![1u16, 2], vec![3, 4]]).unwrap();
    let u = Vector::from_dense(&[5u16, 6]);
    let hand = Semiring::new(Monoid::new("Plus", "Zero").unwrap(), "Times").unwrap();

    rt.set_tracing(true);
    rt.take_traces();
    let ((by_hand, by_name), scope) = scoped(|| {
        let by_hand = {
            let _sr = hand.enter();
            Vector::from_expr(a.mxv(&u)).unwrap()
        };
        let _sr = ArithmeticSemiring.enter();
        (by_hand, Vector::from_expr(a.mxv(&u)).unwrap())
    });
    let traces = rt.take_traces();
    rt.set_tracing(false);

    assert_eq!(by_hand.extract_pairs(), by_name.extract_pairs());
    assert_eq!(by_hand.get(1).unwrap().as_i64(), 3 * 5 + 4 * 6);
    let mxv: Vec<_> = traces
        .iter()
        .filter(|t| t.key.starts_with("mxv("))
        .collect();
    assert_eq!(mxv.len(), 2);
    assert_eq!(mxv[0].key, mxv[1].key);
    assert!(
        mxv[0].key.contains("semiring=Plus_Zero_Times"),
        "{}",
        mxv[0].key
    );
    assert_eq!(mxv[0].outcome, Some(CacheOutcome::Compiled));
    assert_eq!(mxv[1].outcome, Some(CacheOutcome::MemoryHit));
    assert_eq!(modules(&scope), (1, 0), "one module, specialized");
}

// ---------------------------------------------------------------------
// (d) the census: which modules and which gbtl kernels a round of the
// DSL algorithms uses.
// ---------------------------------------------------------------------

#[test]
fn census_of_the_dsl_algorithms_is_unchanged() {
    let _lock = RUNTIME_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let rt = pygb::runtime();
    let g = fig1_graph();
    let lower = Matrix::from_triples(
        7,
        7,
        g.extract_triples()
            .into_iter()
            .filter(|&(i, j, _)| i > j)
            .map(|(i, j, v)| (i, j, v.as_f64())),
    )
    .unwrap();

    rt.cache().evict_memory();
    let ((), scope) = scoped(|| {
        pygb_algorithms::bfs_dsl_loops(&g, 3).unwrap();
        let mut path = Vector::new(7, DType::Fp64);
        path.set(3, 0.0f64).unwrap();
        pygb_algorithms::sssp_dsl_loops(&g, &mut path).unwrap();
        pygb_algorithms::pagerank_dsl_loops(&g, Default::default()).unwrap();
        pygb_algorithms::tricount_dsl_loops(&lower).unwrap();
        pygb_algorithms::cc_dsl_loops(&g).unwrap();
    });
    let stats = StatsSnapshot::of(&scope);

    // Pinned at the parent of the specialization change (same census,
    // every module interpreted): the keys and the kernel selections are
    // not allowed to move with how a module is instantiated.
    assert_eq!(stats.compiles, CENSUS_KEYS);
    assert_eq!(selections(&stats), CENSUS_SPMV);
    // Every SpMV key of the five algorithms names a semiring with a
    // specialized instantiation.
    assert_eq!(modules(&scope), (CENSUS_SPMV_KEYS, 0));
}

/// Distinct module keys of the census.
const CENSUS_KEYS: u64 = 18;
/// SpMV selections of the census: pull, masked pull, push, masked push.
const CENSUS_SPMV: [u64; 4] = [3, 0, 16, 4];
/// How many of [`CENSUS_KEYS`] belong to the SpMV family.
const CENSUS_SPMV_KEYS: u64 = 5;
