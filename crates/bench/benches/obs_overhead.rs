//! Asserts the cost contract of `pygb-obs` when tracing is disabled:
//! an instrumentation point is one relaxed atomic load and a branch —
//! zero heap allocations, no clock reads, no locks. Run as a plain
//! binary (`harness = false`) so the allocation counter wraps the
//! whole process:
//!
//! ```text
//! cargo bench -p pygb-bench --bench obs_overhead
//! ```
//!
//! Exits nonzero (panics) if a disabled span allocates, records an
//! event, or exceeds a generous per-call latency budget.
//!
//! The same contract covers `gbtl::hooks::report_fact`, the per-write
//! probe of the sparsity checked interpretation: with no fact checker
//! installed (this process never calls `install_fact_checker`), each
//! call is one `OnceLock` load and a branch — the closure computing
//! `(nvals, dim)` must never run.
//!
//! The flight recorder's contract is stricter still, because it is
//! *always on* in a serving process: `FlightRecorder::record` must not
//! allocate whether muted (one relaxed load + branch) or active (head
//! claim + seqlock write of fixed-width atomic fields), so the serve
//! hot path pays no heap traffic for its request history.
//!
//! Census counting is always on as well: a counted event is one relaxed
//! add to the process cell plus, with a `Scope` installed on the thread,
//! one more to the scope. It must not allocate either way; both costs
//! are printed per event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapper that counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ITERS: u64 = 1_000_000;

/// Per-call budget, far above the expected cost (~1–2 ns for a relaxed
/// load + branch) but far below anything that allocates, locks, or
/// reads a clock — loose enough for a loaded CI runner.
const MAX_NS_PER_CALL: u128 = 200;

fn main() {
    pygb_obs::disable();

    // Warm up: fault in code paths and thread-locals.
    for _ in 0..1_000 {
        let _sp = pygb_obs::span(pygb_obs::Cat::Exec, "warmup");
        std::hint::black_box(&_sp);
    }

    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for i in 0..ITERS {
        let sp = pygb_obs::span(pygb_obs::Cat::Exec, "disabled");
        std::hint::black_box(&sp);
        // The label closure must not run while disabled — if it did,
        // the `format!` would both allocate and trip the counter.
        let sp2 = pygb_obs::span_labeled(pygb_obs::Cat::Kernel, || format!("never-{i}"));
        std::hint::black_box(&sp2);
    }
    let elapsed = start.elapsed();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert_eq!(
        allocs, 0,
        "disabled-mode spans must not allocate ({allocs} allocations over {ITERS} iterations)"
    );
    assert!(
        pygb_obs::events().is_empty(),
        "disabled-mode spans must not record events"
    );
    let per_call = elapsed.as_nanos() / (2 * ITERS) as u128;
    assert!(
        per_call <= MAX_NS_PER_CALL,
        "disabled span cost {per_call} ns/call exceeds the {MAX_NS_PER_CALL} ns budget"
    );

    // Uninstalled fact-checker probe: the closure must not run (the
    // Vec::with_capacity inside would allocate and trip the counter),
    // and the call must fit the same per-call budget.
    let fact_allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let fact_start = Instant::now();
    for i in 0..ITERS {
        gbtl::hooks::report_fact(|| {
            let v: Vec<u64> = Vec::with_capacity(16);
            std::hint::black_box(&v);
            (i as usize, ITERS as usize)
        });
    }
    let fact_elapsed = fact_start.elapsed();
    let fact_allocs = ALLOCATIONS.load(Ordering::Relaxed) - fact_allocs_before;
    assert_eq!(
        fact_allocs, 0,
        "uninstalled report_fact must not allocate ({fact_allocs} allocations over {ITERS} calls)"
    );
    let fact_per_call = fact_elapsed.as_nanos() / ITERS as u128;
    assert!(
        fact_per_call <= MAX_NS_PER_CALL,
        "uninstalled report_fact cost {fact_per_call} ns/call exceeds the {MAX_NS_PER_CALL} ns budget"
    );

    // Flight recorder: the always-on request-history ring must not
    // allocate on the hot path, muted or active. The record uses
    // borrowed &str fields, so a correct implementation copies bytes
    // into fixed slots and never touches the heap.
    let rec = pygb_obs::recorder();
    let record = pygb_obs::RequestRecord {
        id: 1,
        tenant: "bench-tenant",
        verb: "expr",
        graph: "bench-graph",
        version: 7,
        queue_wait_ns: 1_000,
        exec_ns: 2_000,
        outcome: pygb_obs::Outcome::Ok,
        kernel_delta: 3,
        opt_delta: 2,
    };
    rec.record(&record); // fault in the ring

    let mut recorder_lines = Vec::new();
    for (mode, muted) in [("active", false), ("muted", true)] {
        rec.set_muted(muted);
        let rec_allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let rec_start = Instant::now();
        for i in 0..ITERS {
            let mut r = record;
            r.id = i;
            rec.record(&r);
        }
        let rec_elapsed = rec_start.elapsed();
        let rec_allocs = ALLOCATIONS.load(Ordering::Relaxed) - rec_allocs_before;
        assert_eq!(
            rec_allocs, 0,
            "{mode} FlightRecorder::record must not allocate \
             ({rec_allocs} allocations over {ITERS} calls)"
        );
        let rec_per_call = rec_elapsed.as_nanos() / ITERS as u128;
        assert!(
            rec_per_call <= MAX_NS_PER_CALL,
            "{mode} record cost {rec_per_call} ns/call exceeds the {MAX_NS_PER_CALL} ns budget"
        );
        recorder_lines.push(format!("{mode} {rec_per_call} ns/call"));
    }
    rec.set_muted(false);
    // Single-threaded writes must never collide; a drain must see data.
    assert_eq!(rec.collisions(), 0, "single-writer collisions are a bug");
    assert!(
        !rec.tail(16).is_empty(),
        "the ring must hold records after {ITERS} writes"
    );

    // Census events, with and without a scope installed.
    let scope = pygb_obs::Scope::new();
    pygb_obs::Census::Invocations.inc(); // resolve the process cells
    let mut census_lines = Vec::new();
    for mode in ["unscoped", "scoped"] {
        let _in = (mode == "scoped").then(|| scope.enter());
        let census_allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let census_start = Instant::now();
        for _ in 0..ITERS {
            pygb_obs::Census::Invocations.inc();
        }
        let census_elapsed = census_start.elapsed();
        let census_allocs = ALLOCATIONS.load(Ordering::Relaxed) - census_allocs_before;
        assert_eq!(
            census_allocs, 0,
            "{mode} census events must not allocate ({census_allocs} allocations over {ITERS})"
        );
        let census_per_event = census_elapsed.as_nanos() as f64 / ITERS as f64;
        assert!(
            census_per_event <= MAX_NS_PER_CALL as f64,
            "{mode} census event cost {census_per_event:.1} ns exceeds the {MAX_NS_PER_CALL} ns budget"
        );
        census_lines.push(format!("{mode} {census_per_event:.1} ns/event"));
    }
    assert_eq!(
        scope.get(pygb_obs::Census::Invocations),
        ITERS,
        "the installed scope takes every event"
    );

    println!(
        "obs_overhead: OK: {} disabled span calls, 0 allocations, {per_call} ns/call \
         (budget {MAX_NS_PER_CALL} ns); {ITERS} uninstalled report_fact calls, \
         0 allocations, {fact_per_call} ns/call; flight recorder {} x{ITERS} calls, \
         0 allocations; census {} x{ITERS} events, 0 allocations",
        2 * ITERS,
        recorder_lines.join(" / "),
        census_lines.join(" / ")
    );
}
