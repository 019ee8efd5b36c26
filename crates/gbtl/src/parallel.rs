//! Row-parallel kernels and the wave worker pool.
//!
//! Row-wise kernels (`mxm`, `mxv` gather form, eWise on matrices)
//! produce each output row independently, so [`row_map`] splits them
//! over scoped worker threads without any shared mutable state. Small
//! problems stay sequential: below [`par_threshold`] rows the
//! fork-join overhead outweighs the win (measured in
//! `benches/ablation_parallel.rs`). The threshold defaults to
//! [`PAR_THRESHOLD`] and can be overridden per process with the
//! `PYGB_PAR_THRESHOLD` environment variable (read once).
//!
//! [`run_jobs`] runs the nonblocking scheduler's waves of independent
//! DAG nodes on a process-wide pool instead of spawning threads per
//! wave:
//!
//! * The pool has `available_parallelism() − 1` helper threads named
//!   `pygb-pool-<k>`, spawned on the first batch of two or more jobs
//!   and parked on a condition variable between batches. The worker
//!   count is resolved once; a batch of zero or one job runs inline
//!   and never reads it.
//! * The caller drains its own batch alongside the helpers, so a batch
//!   completes even when every helper is busy: a `run_jobs` nested
//!   inside a job, or several callers at once (serve workers sharing
//!   helpers), cannot deadlock.
//! * Jobs are `'static` — each owns what it touches — so handing them
//!   to a long-lived thread needs no lifetime erasure.
//! * A panicking job does not take its helper down: the panic is
//!   caught, the rest of the batch still runs, and the caller re-raises
//!   the first panic payload in input order, as `std::thread::scope`
//!   would.
//!
//! With the `parallel` feature disabled everything runs sequentially.

use std::collections::VecDeque;
use std::iter::Enumerate;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::index::IndexType;

/// Compiled-in default minimum row count before kernels go parallel.
pub const PAR_THRESHOLD: IndexType = 512;

/// The effective parallelism threshold: `PYGB_PAR_THRESHOLD` from the
/// environment (read once), else [`PAR_THRESHOLD`].
pub fn par_threshold() -> IndexType {
    static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();
    *ENV_DEFAULT.get_or_init(|| {
        std::env::var("PYGB_PAR_THRESHOLD")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(PAR_THRESHOLD)
    })
}

/// Worker count for a problem of `jobs` independent pieces.
fn worker_count(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs)
}

/// Map `f` over `0..nrows`, producing one output row each, in parallel
/// when the backend is enabled and the problem is big enough.
///
/// `init` builds a per-thread scratch workspace (e.g. a
/// [`crate::workspace::Spa`]); `f` receives the workspace and the row
/// index.
#[cfg(feature = "parallel")]
pub fn row_map<W, R, I, F>(nrows: IndexType, init: I, f: F) -> Vec<R>
where
    R: Send,
    W: Send,
    I: Fn() -> W + Send + Sync,
    F: Fn(&mut W, IndexType) -> R + Send + Sync,
{
    let workers = worker_count(nrows);
    if nrows < par_threshold() || workers <= 1 {
        return row_map_sequential(nrows, init, f);
    }
    let chunk = nrows.div_ceil(workers);
    let chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let init = &init;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(nrows);
                scope.spawn(move || {
                    let mut w = init();
                    (lo..hi).map(|i| f(&mut w, i)).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("row_map worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(nrows);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Sequential fallback used when the `parallel` feature is disabled.
#[cfg(not(feature = "parallel"))]
pub fn row_map<W, R, I, F>(nrows: IndexType, init: I, f: F) -> Vec<R>
where
    R: Send,
    W: Send,
    I: Fn() -> W + Send + Sync,
    F: Fn(&mut W, IndexType) -> R + Send + Sync,
{
    row_map_sequential(nrows, init, f)
}

/// Force a sequential row map regardless of features — used by the
/// parallel-vs-sequential ablation bench so both paths share code.
pub fn row_map_sequential<W, R, I, F>(nrows: IndexType, init: I, f: F) -> Vec<R>
where
    I: Fn() -> W,
    F: Fn(&mut W, IndexType) -> R,
{
    let mut w = init();
    (0..nrows).map(|i| f(&mut w, i)).collect()
}

/// Run independent jobs concurrently on the worker pool (see the module
/// docs), returning their results in input order. A panicking job's
/// payload is re-raised here once the whole batch has finished.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let n = jobs.len();
    let invite = if cfg!(feature = "parallel") && n > 1 {
        helpers().min(n - 1)
    } else {
        0
    };
    if invite == 0 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let batch = Arc::new(Batch {
        jobs: Mutex::new(jobs.into_iter().enumerate()),
        done: Mutex::new(Finished {
            results: (0..n).map(|_| None).collect(),
            count: 0,
        }),
        finished: Condvar::new(),
    });
    {
        let mut queue = lock(&POOL.queue);
        for _ in 0..invite {
            queue.push_back(Arc::clone(&batch) as Arc<dyn Drain>);
        }
    }
    for _ in 0..invite {
        POOL.wake.notify_one();
    }
    batch.drain();
    let results = {
        let mut done = lock(&batch.done);
        while done.count < n {
            done = batch
                .finished
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut done.results)
    };
    results
        .into_iter()
        .map(|r| r.expect("every job of a finished batch has a result"))
        .map(|r| r.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

/// Lock ignoring poison: jobs run under `catch_unwind`, so no pool lock
/// is ever held by a panicking frame.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Batches waiting for helpers, one queue entry per helper invited.
struct Pool {
    queue: Mutex<VecDeque<Arc<dyn Drain>>>,
    /// Signalled once per entry pushed.
    wake: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    wake: Condvar::new(),
};

/// Helper threads running, spawned on first use: one fewer than
/// `available_parallelism()`, because the caller is the other worker.
/// Helpers live as long as the process and are never joined; jobs run
/// under `catch_unwind`, so a helper never unwinds.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        (0..workers - 1)
            .take_while(|k| {
                std::thread::Builder::new()
                    .name(format!("pygb-pool-{k}"))
                    .spawn(helper_loop)
                    .is_ok()
            })
            .count()
    })
}

/// A helper's life: take the next queued batch (parking while there is
/// none) and run its unclaimed jobs.
fn helper_loop() {
    loop {
        let batch = {
            let mut queue = lock(&POOL.queue);
            loop {
                match queue.pop_front() {
                    Some(batch) => break batch,
                    None => {
                        queue = POOL
                            .wake
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        batch.drain();
    }
}

/// The type-erased face of a [`Batch`] the pool queues.
trait Drain: Send + Sync {
    /// Claim and run jobs until none is left unclaimed.
    fn drain(&self);
}

/// One `run_jobs` call: its unclaimed jobs (with their input positions)
/// and the results landed so far.
struct Batch<T, F> {
    jobs: Mutex<Enumerate<std::vec::IntoIter<F>>>,
    done: Mutex<Finished<T>>,
    /// Signalled when the last result lands.
    finished: Condvar,
}

struct Finished<T> {
    results: Vec<Option<std::thread::Result<T>>>,
    count: usize,
}

impl<T: Send, F: FnOnce() -> T + Send> Drain for Batch<T, F> {
    fn drain(&self) {
        loop {
            let Some((i, job)) = lock(&self.jobs).next() else {
                return;
            };
            let out = panic::catch_unwind(AssertUnwindSafe(job));
            let mut done = lock(&self.done);
            done.results[i] = Some(out);
            done.count += 1;
            if done.count == done.results.len() {
                self.finished.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn on_pool_thread() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("pygb-pool-"))
    }

    #[test]
    fn row_map_small_matches_sequential() {
        let a = row_map(10, || 0u32, |_, i| i * 2);
        let b = row_map_sequential(10, || 0u32, |_, i| i * 2);
        assert_eq!(a, b);
    }

    #[test]
    fn row_map_large_preserves_order() {
        let n = PAR_THRESHOLD * 4;
        let out = row_map(n, || (), |_, i| i);
        assert_eq!(out.len(), n);
        assert!(out.iter().enumerate().all(|(k, &v)| k == v));
    }

    #[test]
    fn workspace_is_usable() {
        // Each worker gets its own scratch buffer; results must not bleed.
        let out = row_map(PAR_THRESHOLD * 2, Vec::<usize>::new, |scratch, i| {
            scratch.clear();
            scratch.push(i);
            scratch.len()
        });
        assert!(out.iter().all(|&l| l == 1));
    }

    #[test]
    fn run_jobs_preserves_order() {
        let jobs: Vec<_> = (0..17usize).map(|i| move || i * i).collect();
        let out = run_jobs(jobs);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_single_runs_inline() {
        let caller = std::thread::current().id();
        let out = run_jobs(vec![|| (41 + 1, std::thread::current().id())]);
        assert_eq!(out, vec![(42, caller)]);
    }

    /// Many batches reuse the same threads: besides the caller, only
    /// `pygb-pool-<k>` helpers run jobs, at most one fewer than the
    /// available parallelism.
    #[test]
    fn batches_reuse_named_helpers() {
        let caller = std::thread::current().id();
        let mut seen: Vec<ThreadId> = Vec::new();
        for _ in 0..100 {
            let jobs: Vec<_> = (0..4)
                .map(|_| || (std::thread::current().id(), on_pool_thread()))
                .collect();
            for (id, pooled) in run_jobs(jobs) {
                assert!(id == caller || pooled, "job ran on an unnamed thread");
                if !seen.contains(&id) {
                    seen.push(id);
                }
            }
        }
        assert!(
            seen.len() <= helpers() + 1,
            "{} distinct threads",
            seen.len()
        );
    }

    /// A `run_jobs` nested inside a job completes while every helper is
    /// busy with the outer batch: its caller drains it alone.
    #[test]
    fn nested_batch_completes_with_every_helper_busy() {
        let width = helpers() + 1;
        let all_busy = Arc::new(Barrier::new(width));
        let outer: Vec<_> = (0..width)
            .map(|k| {
                let all_busy = Arc::clone(&all_busy);
                move || {
                    // Every helper and the caller hold one outer job.
                    all_busy.wait();
                    let inner: Vec<_> = (0..8usize).map(|i| move || k * 100 + i).collect();
                    run_jobs(inner)
                }
            })
            .collect();
        let out = run_jobs(outer);
        for (k, inner) in out.iter().enumerate() {
            assert_eq!(inner, &(0..8).map(|i| k * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results_in_order() {
        let callers: Vec<_> = (0..8usize)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..20usize {
                        let jobs: Vec<_> = (0..6usize).map(|i| move || (t, round, i)).collect();
                        let want: Vec<_> = (0..6).map(|i| (t, round, i)).collect();
                        assert_eq!(run_jobs(jobs), want);
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().expect("caller thread");
        }
    }

    /// Two jobs that each wait for the other, so a helper must take one.
    /// Each reports whether it ran on a helper, or with `fail` panics
    /// with its index once both are running.
    fn rendezvous(fail: bool) -> Vec<Box<dyn FnOnce() -> bool + Send>> {
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        (0..2)
            .map(|k| {
                let gate = Arc::clone(&gate);
                Box::new(move || {
                    let (count, cv) = &*gate;
                    let mut c = lock(count);
                    *c += 1;
                    cv.notify_all();
                    let (c, timeout) = cv
                        .wait_timeout_while(c, Duration::from_secs(30), |c| *c < 2)
                        .unwrap_or_else(PoisonError::into_inner);
                    assert!(!timeout.timed_out() && *c == 2, "no helper took a job");
                    if fail {
                        panic!("rendezvous job {k} failed");
                    }
                    on_pool_thread()
                }) as Box<dyn FnOnce() -> bool + Send>
            })
            .collect()
    }

    /// A panicking job re-raises its own payload on the caller after the
    /// rest of the batch ran, and a helper that caught a panic still
    /// serves the next batch.
    #[test]
    fn panic_reraises_payload_and_keeps_helpers() {
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..6)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move || {
                    if i == 3 {
                        panic!("job three failed");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let err =
            panic::catch_unwind(AssertUnwindSafe(|| run_jobs(jobs))).expect_err("panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"job three failed"));
        assert_eq!(ran.load(Ordering::SeqCst), 5, "the batch still completes");

        if helpers() == 0 {
            return;
        }
        // Both jobs panic, one of them on a helper; the caller re-raises
        // the first in input order.
        let err = panic::catch_unwind(|| run_jobs(rendezvous(true))).expect_err("panic propagates");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("rendezvous job 0 failed")
        );
        assert!(run_jobs(rendezvous(false)).contains(&true));
    }
}
