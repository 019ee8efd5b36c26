//! A store's memoized views (the operand cast to the kernel's dtype,
//! the `Bool` pattern of a matrix mask, the transpose) must be
//! unobservable except in how often a conversion runs:
//!
//! (a) an op reading its operands through memoized views writes the
//!     same bits as the op given operands converted afresh, blocking
//!     and nonblocking;
//! (b) no write path leaves a view describing data the store no longer
//!     holds;
//! (c) a loop over one graph converts it once, not once per op — the
//!     count, not a timing;
//! (d) views are freed with the last handle on their store;
//! (e) concurrent first uses of one store run one conversion.
//!
//! Every test holds `stats_serial()`: (c) and (e) difference the
//! process-wide `views/*` counters.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use pygb::dtype::ALL_DTYPES;
use pygb::expr::MatrixOperandArg;
use pygb::store::MatrixStore;
use pygb::{
    Accumulator, ArithmeticSemiring, BinaryOp, DType, DynScalar, EdgeUpdate, Matrix, Vector,
};
use pygb_algorithms::{bfs_dsl_loops, cc_dsl_loops};
use pygb_integration::{assert_matrices_identical, assert_vectors_identical, stats_serial};

const N: usize = 6;

fn counter(name: &str) -> u64 {
    pygb_obs::registry().counter(name).get()
}

/// `f`'s effect on (`views/cast_built`, `views/cast_hit`).
fn cast_counts<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (built, hit) = (counter("views/cast_built"), counter("views/cast_hit"));
    let out = f();
    (
        out,
        counter("views/cast_built") - built,
        counter("views/cast_hit") - hit,
    )
}

// ---------------------------------------------------------------------
// (a) memoized views ≡ fresh casts.
// ---------------------------------------------------------------------

/// One generated case: two matrix operands, a vector operand, a target
/// and a mask, each of its own dtype, and the op with its output
/// controls.
#[derive(Clone, Debug)]
struct Case {
    /// 0 = mxv, 1 = vxm, 2 = mxm, 3 = eWiseAdd, 4 = eWiseMult.
    op: usize,
    /// dtypes of A, B, u, the target and the mask.
    dt: [DType; 5],
    /// 0 = no mask, 1 = mask, 2 = complemented mask.
    mask_mode: usize,
    accum: bool,
    replace: bool,
    /// Cell values of A, B, the target matrix and the matrix mask
    /// (row-major), then of u, the target vector and the vector mask;
    /// `None` is an absent entry.
    cells: Vec<Option<i64>>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0usize..5, 0usize..3, any::<bool>(), any::<bool>()),
        proptest::collection::vec(0usize..ALL_DTYPES.len(), 5),
        // Zero is a stored value: a stored `false` in a mask pattern.
        proptest::collection::vec((any::<bool>(), -3i64..=4), 4 * N * N + 3 * N),
    )
        .prop_map(|((op, mask_mode, accum, replace), dt, cells)| Case {
            op,
            dt: std::array::from_fn(|k| ALL_DTYPES[dt[k]]),
            mask_mode,
            accum,
            replace,
            cells: cells
                .into_iter()
                .map(|(present, v)| present.then_some(v))
                .collect(),
        })
}

fn matrix_of(cells: &[Option<i64>], dtype: DType) -> Matrix {
    let triples: Vec<_> = cells
        .iter()
        .enumerate()
        .filter_map(|(k, v)| v.map(|v| (k / N, k % N, DynScalar::Int64(v).cast(dtype))))
        .collect();
    Matrix::from_triples_dyn(N, N, &triples, Some(dtype)).unwrap()
}

fn vector_of(cells: &[Option<i64>], dtype: DType) -> Vector {
    let pairs: Vec<_> = cells
        .iter()
        .enumerate()
        .filter_map(|(k, v)| v.map(|v| (k, DynScalar::Int64(v).cast(dtype))))
        .collect();
    Vector::from_pairs_dyn(N, &pairs, Some(dtype)).unwrap()
}

/// The containers of one case.
struct Operands {
    a: Matrix,
    b: Matrix,
    u: Vector,
    c_m: Matrix,
    c_v: Vector,
    mask_m: Matrix,
    mask_v: Vector,
}

impl Operands {
    fn of(case: &Case) -> Operands {
        let [da, db, du, dc, dm] = case.dt;
        let (m, v) = case.cells.split_at(4 * N * N);
        Operands {
            a: matrix_of(&m[..N * N], da),
            b: matrix_of(&m[N * N..2 * N * N], db),
            c_m: matrix_of(&m[2 * N * N..3 * N * N], dc),
            mask_m: matrix_of(&m[3 * N * N..], dm),
            u: vector_of(&v[..N], du),
            c_v: vector_of(&v[N..2 * N], dc),
            mask_v: vector_of(&v[2 * N..], dm),
        }
    }

    /// The same operands, each converted to the target dtype afresh —
    /// a new store, so nothing converted earlier is reused. Dispatch
    /// casts every input to the output's dtype, so the op on these is
    /// the reference for the op on the originals.
    fn fresh(&self) -> Operands {
        let dc = self.c_m.dtype();
        Operands {
            a: self.a.dup().cast(dc),
            b: self.b.dup().cast(dc),
            u: self.u.dup().cast(dc),
            c_m: self.c_m.dup(),
            c_v: self.c_v.dup(),
            mask_m: self.mask_m.dup(),
            mask_v: self.mask_v.dup(),
        }
    }
}

/// What one op produced: only the target it wrote is compared.
enum Output {
    M(Matrix),
    V(Vector),
}

/// Run the case's op once on copies of the targets.
fn run(case: &Case, x: &Operands) -> pygb::Result<Output> {
    let _sr = ArithmeticSemiring.enter();
    let _op = BinaryOp::new("Plus")?.enter();
    let _acc = Accumulator::new("Plus")?.enter();
    macro_rules! emit {
        ($target:expr, $mask:expr, $expr:expr) => {{
            let assign = match case.mask_mode {
                0 => $target.no_mask(),
                1 => $target.masked($mask),
                _ => $target.masked_complement($mask),
            };
            let assign = if case.replace && case.mask_mode != 0 {
                assign.replace()
            } else {
                assign
            };
            if case.accum {
                assign.accum_assign($expr)?
            } else {
                assign.assign($expr)?
            }
        }};
    }
    let (mut c_m, mut c_v) = (x.c_m.clone(), x.c_v.clone());
    match case.op {
        0 => emit!(c_v, &x.mask_v, x.a.mxv(&x.u)),
        1 => emit!(c_v, &x.mask_v, x.u.vxm(x.b.t())),
        2 => emit!(c_m, &x.mask_m, x.a.matmul(x.b.t())),
        3 => emit!(c_m, &x.mask_m, &x.a + &x.b),
        _ => emit!(c_m, &x.mask_m, x.a.t().ewise_mult(&x.b)),
    }
    c_m.settle()?;
    c_v.settle()?;
    Ok(if case.op < 2 {
        Output::V(c_v)
    } else {
        Output::M(c_m)
    })
}

fn assert_identical(got: &Output, want: &Output, context: &str) {
    match (got, want) {
        (Output::M(g), Output::M(w)) => assert_matrices_identical(g, w, context),
        (Output::V(g), Output::V(w)) => assert_vectors_identical(g, w, context),
        _ => panic!("{context}: outputs of different kinds"),
    }
}

proptest! {
    #[test]
    fn ops_through_memoized_views_match_fresh_casts(case in case_strategy()) {
        let _serial = stats_serial();
        let x = Operands::of(&case);
        let want = run(&case, &x.fresh()).unwrap();
        // The first run builds whatever views the op needs, the second
        // reads them back; the nonblocking run reads them through the
        // op-DAG's resolved operands.
        let context = format!("{case:?}");
        assert_identical(&run(&case, &x).unwrap(), &want, &format!("building: {context}"));
        assert_identical(&run(&case, &x).unwrap(), &want, &format!("memoized: {context}"));
        let deferred = {
            let _nb = pygb_runtime::nonblocking().unwrap();
            run(&case, &x).unwrap()
        };
        assert_identical(&deferred, &want, &format!("nonblocking: {context}"));
    }
}

// ---------------------------------------------------------------------
// (b) invalidation.
// ---------------------------------------------------------------------

fn ring(n: usize) -> Matrix {
    Matrix::from_triples(n, n, (0..n).map(|i| (i, (i + 1) % n, 1.0f64))).unwrap()
}

/// `g @ 1` into an int64 vector — the weighted out-degree of every
/// vertex, with `g` (fp64) read through its int64 view.
fn out_degrees(g: &Matrix) -> Vec<i64> {
    let _sr = ArithmeticSemiring.enter();
    let ones = Vector::from_dense(&vec![1i64; g.ncols()]);
    let mut w = Vector::new(g.nrows(), DType::Int64);
    w.no_mask().assign(g.mxv(&ones)).unwrap();
    (0..g.nrows())
        .map(|i| w.get(i).map_or(0, |v| v.as_i64()))
        .collect()
}

/// `C<g> = 1` into an int64 matrix: the number of entries `g`'s `Bool`
/// mask pattern lets through.
fn masked_in(g: &Matrix) -> usize {
    let mut c = Matrix::new(g.nrows(), g.ncols(), DType::Int64);
    c.masked(g).assign_scalar(1i64).unwrap();
    c.nvals()
}

#[test]
fn each_handle_sees_its_own_data_after_a_write() {
    let _serial = stats_serial();
    type Write = fn(&mut Matrix);
    let writes: [(&str, Write); 3] = [
        ("set", |g| g.set(0, 2, 5.0f64).unwrap()),
        ("update_edges", |g| {
            g.update_edges(&[EdgeUpdate::add(0, 2, 5.0f64)]).unwrap()
        }),
        ("assign", |g| {
            let extra = Matrix::from_triples(4, 4, [(0usize, 2usize, 5.0f64)]).unwrap();
            let _op = BinaryOp::new("Plus").unwrap().enter();
            let sum = &*g + &extra;
            g.no_mask().assign(sum).unwrap()
        }),
    ];
    for (name, write) in writes {
        // Shared handles: the write copies, the snapshot keeps its
        // views. An unshared handle is written in place and must drop
        // them.
        for shared in [true, false] {
            let mut g = ring(4);
            let snapshot = shared.then(|| g.clone());
            assert_eq!(out_degrees(&g), [1, 1, 1, 1], "{name}: warm-up");
            assert_eq!(masked_in(&g), 4);
            write(&mut g);
            assert_eq!(out_degrees(&g), [6, 1, 1, 1], "{name} shared={shared}");
            assert_eq!(masked_in(&g), 5, "{name} shared={shared}: mask pattern");
            if let Some(snapshot) = snapshot {
                assert_eq!(out_degrees(&snapshot), [1, 1, 1, 1], "{name}: snapshot");
                assert_eq!(masked_in(&snapshot), 4, "{name}: snapshot mask pattern");
            }
        }
    }
}

// ---------------------------------------------------------------------
// (c) counts.
// ---------------------------------------------------------------------

/// A directed path `0 → 1 → … → n-1`: BFS from 0 runs `n` plies.
fn path(n: usize) -> Matrix {
    Matrix::from_triples(n, n, (0..n - 1).map(|i| (i, i + 1, 1.0f64))).unwrap()
}

#[test]
fn bfs_converts_its_graph_once_whatever_the_depth() {
    let _serial = stats_serial();
    for depth in [3usize, 9] {
        let g = path(depth);
        let (levels, built, hit) = cast_counts(|| bfs_dsl_loops(&g, 0).unwrap());
        assert_eq!(
            levels.get(depth - 1).map(|v| v.as_i64()),
            Some(depth as i64)
        );
        assert_eq!(built, 1, "depth {depth}: one Bool view of the fp64 graph");
        assert_eq!(
            hit,
            depth as u64 - 1,
            "depth {depth}: every later ply reads it back"
        );
        let (again, built, hit) = cast_counts(|| bfs_dsl_loops(&g, 0).unwrap());
        assert_vectors_identical(&again, &levels, "second BFS");
        assert_eq!((built, hit), (0, depth as u64), "depth {depth}: second BFS");
    }
}

#[test]
fn cc_converts_its_graph_once() {
    let _serial = stats_serial();
    let g = path(5);
    let ((_, rounds), built, hit) = cast_counts(|| cc_dsl_loops(&g).unwrap());
    assert_eq!(built, 1, "one UInt64 view of the fp64 graph");
    // Two products per round, all but the first read the view back.
    assert_eq!(hit, 2 * rounds as u64 - 1);
    let (_, built, _) = cast_counts(|| cc_dsl_loops(&g).unwrap());
    assert_eq!(built, 0, "second CC");
}

// ---------------------------------------------------------------------
// (d) lifetime, (e) concurrent first use.
// ---------------------------------------------------------------------

#[test]
fn views_die_with_the_last_handle() {
    let _serial = stats_serial();
    let g = ring(5);
    let clone = g.clone();
    assert_eq!(out_degrees(&g), [1; 5]); // builds the int64 view
    let store = (&g).into_operand().store;
    let view = Arc::downgrade(&store.cast_view(DType::Int64));
    let transpose = Arc::downgrade(&store.transpose_view());
    drop(store);
    drop(g);
    assert!(view.upgrade().is_some(), "the clone still owns the store");
    drop(clone);
    assert!(view.upgrade().is_none() && transpose.upgrade().is_none());
}

#[test]
fn concurrent_first_uses_build_once() {
    let _serial = stats_serial();
    const THREADS: usize = 8;
    let store = (&ring(64)).into_operand().store;
    let start = Barrier::new(THREADS);
    let (views, built, hit) = cast_counts(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        store.cast_view(DType::Bool)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("view thread"))
                .collect::<Vec<Arc<MatrixStore>>>()
        })
    });
    assert_eq!((built, hit), (1, THREADS as u64 - 1));
    assert!(views.iter().all(|v| Arc::ptr_eq(v, &views[0])));
}
