//! Heap allocations per warm dispatch, counted.
//!
//! This binary installs a counting global allocator that tallies only
//! on threads that asked it to, so libtest's other threads do not leak
//! into a measurement. Each probe runs its operation 100 times to warm
//! the kernel cache, operand views and thread-locals, then counts the
//! allocations of further calls and asserts an upper bound per call.
//! The bounds are `≤` so a change that removes allocations only has to
//! lower them. (Before dispatch lowered through one table, the same
//! probes made 43, 27 and 79 allocations: each key was built twice,
//! rendered three times, wrapped in a trace with tracing off, and its
//! operands rendered for an error that did not happen. Before masked
//! vector writes were confined to the mask, the two masked probes made
//! 22 and 47: each copied its mask to `Bool`, the constant assign
//! built an n-entry temporary — 2 MiB per call at n = 65 536 — and the
//! masked SpMV grew its list of the mask's truthy indices by repeated
//! reallocation.)
//!
//! Observability must be off: spans, histograms and traces allocate by
//! design when enabled, and are not part of the dispatch path priced
//! here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pygb::{apply, DType, LogicalSemiring, Matrix, Replace, UnaryOp, Vector};

/// System allocator wrapper counting allocations and bytes on threads
/// whose `COUNTING` flag is set.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: thread-locals may already be gone while a thread
        // tears down. Const-initialized `Cell`s never allocate on access.
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = TALLY.try_with(|t| {
                let (n, bytes) = t.get();
                t.set((n + 1, bytes + layout.size() as u64));
            });
        }
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: usize = 100;
const CALLS: u64 = 100;

/// Allocations and bytes per call of `op` on this thread, after warm-up.
fn per_call(mut op: impl FnMut()) -> (u64, u64) {
    for _ in 0..WARMUP {
        op();
    }
    assert!(!pygb_obs::enabled(), "observability must be off");
    assert!(!pygb::runtime().tracing(), "dispatch tracing must be off");
    TALLY.with(|t| t.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    for _ in 0..CALLS {
        op();
    }
    COUNTING.with(|c| c.set(false));
    let (n, bytes) = TALLY.with(Cell::get);
    (n / CALLS, bytes / CALLS)
}

fn assert_at_most(probe: &str, (allocs, bytes): (u64, u64), bound: u64) {
    println!("{probe}: {allocs} allocations, {bytes} B per call (bound {bound})");
    assert!(
        allocs <= bound,
        "{probe}: {allocs} allocations per warm dispatch, bound {bound}"
    );
}

/// `core.dispatch_overhead_ns`'s own probe: everything a dispatch costs
/// on 1-element containers.
#[test]
fn warm_ewise_add_into_one_element_vector() {
    let mut u = Vector::new(1, DType::Fp64);
    u.set(0, 1.0f64).unwrap();
    let mut w = Vector::new(1, DType::Fp64);
    let counts = per_call(|| w.no_mask().assign(&u + &u).unwrap());
    assert_at_most("w = u + u", counts, 17);
}

/// An ER-style |V| = 64 graph: every vertex has four out-edges.
fn graph64() -> Matrix {
    let edges = (0..64usize).flat_map(|i| [1, 7, 19, 41].map(|k| (i, (i * 5 + k) % 64, true)));
    Matrix::from_triples(64, 64, edges).unwrap()
}

/// A BFS frontier and levels vector a few plies in.
fn bfs_state() -> (Vector, Vector) {
    let mut frontier = Vector::new(64, DType::Bool);
    let mut levels = Vector::new(64, DType::UInt64);
    for i in 0..64 {
        if i % 3 == 0 {
            levels.set(i, 1 + (i % 4) as u64).unwrap();
        }
        if i % 9 == 1 {
            frontier.set(i, true).unwrap();
        }
    }
    (frontier, levels)
}

/// Fig. 2b's `levels[front][:] = depth`.
#[test]
fn masked_scalar_assign() {
    let (frontier, mut levels) = bfs_state();
    let counts = per_call(|| levels.masked(&frontier).assign_scalar(3u64).unwrap());
    assert_at_most("levels[front][:] = d", counts, 19);
}

/// `levels[front][:] = d` again, at n = 65 536 with 4-entry `front` and
/// `levels`: what the op allocates must not grow with the dimension. A
/// constant temporary over all of `0..n` (an index and a value vector)
/// would be ≈ 1 MiB alone.
#[test]
fn masked_scalar_assign_is_size_independent() {
    const N: usize = 1 << 16;
    let mut front = Vector::new(N, DType::Bool);
    let mut levels = Vector::new(N, DType::UInt64);
    for (k, i) in [7, 4_000, 30_000, 65_000].into_iter().enumerate() {
        front.set(i + 1, true).unwrap();
        levels.set(i, k as u64).unwrap();
    }
    let (allocs, bytes) = per_call(|| levels.masked(&front).assign_scalar(3u64).unwrap());
    assert_at_most("levels[front][:] = d @ 64Ki", (allocs, bytes), 19);
    assert!(bytes < 4096, "{bytes} B per call at n = {N}");
}

/// Fig. 2b's `frontier[~levels] = graph.T @ frontier` under
/// `LogicalSemiring` and `Replace`, at |V| = 64.
#[test]
fn masked_complement_bfs_mxv() {
    let g = graph64();
    let (frontier, levels) = bfs_state();
    let mut next = Vector::new(64, DType::Bool);
    let _sr = LogicalSemiring.enter();
    let _rp = Replace.enter();
    let counts = per_call(|| {
        let expr = g.t().mxv(&frontier);
        next.masked_complement(&levels).assign(expr).unwrap()
    });
    assert_at_most("frontier[~levels] = A.T @ frontier", counts, 41);
}

/// The bytes a call allocated cover one new `f64` value array and
/// dispatch's small change: a copy of the index arrays alone would add
/// more than the values.
fn assert_values_only((_, bytes): (u64, u64), nvals: usize) {
    let values = 8 * nvals as u64;
    assert!(
        bytes < values + 4096,
        "{bytes} B per call for {values} B of values"
    );
}

/// PageRank's graph: 4096 rows, four `Bool` out-edges each.
fn graph4096() -> Matrix {
    const N: usize = 4096;
    let edges = (0..N).flat_map(|i| [1, 7, 19, 41].map(|k| (i, (i * 5 + k) % N, true)));
    Matrix::from_triples(N, N, edges).unwrap()
}

/// PageRank's `m[None] = graph` (Fig. 7), at 4096 rows: the identity
/// apply it lowers to shares the graph's pattern and copies only the
/// values, so the count must not grow with `nrows`. (Rebuilt row by
/// row, it made at least one allocation per row.)
#[test]
fn warm_identity_assign_shares_the_pattern() {
    let g = graph4096();
    let mut m = Matrix::new(g.nrows(), g.ncols(), DType::Fp64);
    let counts = per_call(|| m.no_mask().assign(&g).unwrap());
    assert_at_most("m[None] = g @ 4096 rows", counts, 20);
    assert_values_only(counts, g.nvals());
}

/// PageRank's damping step `m[None] = apply(m)` under `Times 0.85`, at
/// 4096 rows: like the identity, only the values are computed.
#[test]
fn warm_matrix_apply_shares_the_pattern() {
    let g = graph4096();
    let mut m = Matrix::new(g.nrows(), g.ncols(), DType::Fp64);
    m.no_mask().assign(&g).unwrap();
    let src = m.clone();
    let _damp = UnaryOp::bound("Times", 0.85).unwrap().enter();
    let counts = per_call(|| m.no_mask().assign(apply(&src)).unwrap());
    assert_at_most("m[None] = apply(m) @ 4096 rows", counts, 22);
    assert_values_only(counts, src.nvals());
}
