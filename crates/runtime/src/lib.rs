//! Nonblocking execution runtime for PyGB: a deferred operation DAG
//! with automatic kernel fusion and flush-on-read.
//!
//! GraphBLAS distinguishes *blocking* mode, where every operation
//! completes before the call returns, from *nonblocking* mode, where
//! the implementation may delay work until a result is observed. PyGB
//! containers stay in blocking mode by default; entering a
//! [`nonblocking`] scope reroutes every assignment into a per-thread
//! operation DAG instead of dispatching a kernel eagerly:
//!
//! ```
//! use pygb::{DType, Vector};
//!
//! let mut u = Vector::new(4, DType::Fp64);
//! let mut w = Vector::new(4, DType::Fp64);
//! for i in 0..4 {
//!     u.set(i, 1.0f64).unwrap();
//! }
//! {
//!     let _nb = pygb_runtime::nonblocking().unwrap();
//!     let t = Vector::from_expr(&u + &u).unwrap(); // deferred
//!     w.no_mask().assign(&t * &u).unwrap(); // deferred, fuses with t
//! } // scope exit flushes: one fused kernel dispatch
//! assert_eq!(w.get(0).unwrap().as_f64(), 2.0);
//! ```
//!
//! Reads (`get`, `nvals`, `reduce`, `extract_pairs`, …) force a flush
//! of the deferred operations the read depends on, so laziness is
//! never observable — only faster. Before executing, the optimization
//! pipeline (`passes.rs`: liveness/DCE, CSE, sparsity folding, no-op
//! folding — toggled via `PYGB_PASSES` or [`set_passes`]) and the
//! fusion pass
//! (`fuse.rs`) rewrite the DAG, then a scheduler runs each wave of
//! independent nodes in parallel.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
mod dag;
mod dataflow;
mod fuse;
#[cfg(test)]
mod model_check;
mod passes;
mod sparsity;

use std::sync::Once;

pub use analyze::{
    last_refusals, plan, set_report_forced, set_request_tag, trace_report, trace_report_for,
    ExecutedNode, NodeId, Plan, PlanNode, TraceReport,
};
pub use passes::{reset_passes, set_passes, PassKind};
pub use pygb::nb::DeferGuard;

/// Install the DAG engine into the core crate's nonblocking hooks.
/// Idempotent; called automatically by [`nonblocking`].
pub fn install_engine() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // The sparsity analysis's checked interpretation: gbtl's write
        // funnel reports every container finalize, and the scheduler
        // compares the recorded (nvals, dim) against each node's
        // predicted fact (`opt/fact_misses`).
        gbtl::hooks::install_fact_checker(sparsity::record_write);
        pygb::nb::install_engine(pygb::nb::EngineOps {
            enqueue_vector: dag::enqueue_vector,
            enqueue_matrix: dag::enqueue_matrix,
            flush: dag::flush,
            resolve_vector: dag::resolve_vector,
            resolve_matrix: dag::resolve_matrix,
            reduce_vector: dag::reduce_vector,
        });
    });
}

/// Enter nonblocking mode on the current thread. Assignments made
/// while the returned guard is alive are deferred into the thread's
/// operation DAG; dropping the guard (leaving the outermost scope)
/// flushes it. Guards nest.
pub fn nonblocking() -> pygb::Result<DeferGuard> {
    install_engine();
    pygb::nb::enter()
}

/// Execute every operation deferred on the current thread. Safe to
/// call at any time, in or out of nonblocking scopes.
pub fn flush() -> pygb::Result<()> {
    pygb::nb::flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygb::{DType, Vector};

    /// Serialize this module's tests: several difference the
    /// process-wide dispatch counters, which a sibling's dispatches
    /// (libtest runs tests on parallel threads) would move.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn dense(vals: &[f64]) -> Vector {
        let mut v = Vector::new(vals.len(), DType::Fp64);
        for (i, &x) in vals.iter().enumerate() {
            v.set(i, x).unwrap();
        }
        v
    }

    #[test]
    fn deferred_chain_flushes_on_scope_exit() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut w = Vector::new(3, DType::Fp64);
        {
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            w.no_mask().assign(&t * &u).unwrap();
        }
        assert_eq!(w.to_dense_f64(), vec![2.0, 8.0, 18.0]);
    }

    #[test]
    fn read_inside_scope_forces_flush() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut w = Vector::new(3, DType::Fp64);
        let _nb = nonblocking().unwrap();
        w.no_mask().assign(&u + &u).unwrap();
        // `get` must observe the deferred assignment.
        assert_eq!(w.get(1).unwrap().as_f64(), 4.0);
    }

    #[test]
    fn ewise_chain_fuses_to_one_dispatch() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut w = Vector::new(3, DType::Fp64);
        // Warm both kernels so only memory hits are counted below.
        {
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            w.no_mask().assign(&t * &u).unwrap();
        }
        let stats = pygb::runtime().cache().stats();
        let before = stats.snapshot();
        {
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            w.no_mask().assign(&t * &u).unwrap();
        }
        let after = stats.snapshot();
        assert_eq!(
            after.invocations - before.invocations,
            1,
            "two deferred eWise ops must fuse into one kernel invocation"
        );
        assert_eq!(after.fused_ops - before.fused_ops, 1);
        assert_eq!(after.deferred_ops - before.deferred_ops, 2);
        assert_eq!(w.to_dense_f64(), vec![2.0, 8.0, 18.0]);
    }

    #[test]
    fn dead_node_is_elided() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0]);
        let stats = pygb::runtime().cache().stats();
        let before = stats.snapshot();
        {
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            drop(t); // result never observed
        }
        let after = stats.snapshot();
        assert_eq!(
            after.invocations, before.invocations,
            "dead op must not run"
        );
        assert_eq!(after.elided_ops - before.elided_ops, 1);
    }

    #[test]
    fn held_temp_blocks_fusion_but_stays_correct() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut w = Vector::new(3, DType::Fp64);
        let _nb = nonblocking().unwrap();
        let t = Vector::from_expr(&u + &u).unwrap();
        w.no_mask().assign(&t * &u).unwrap();
        // `t` is still live, so the producer must materialize.
        assert_eq!(t.to_dense_f64(), vec![2.0, 4.0, 6.0]);
        assert_eq!(w.to_dense_f64(), vec![2.0, 8.0, 18.0]);
    }

    #[test]
    fn reduce_fuses_with_ewise_producer() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut d = Vector::new(3, DType::Fp64);
        // Warm.
        {
            let _nb = nonblocking().unwrap();
            d.no_mask().assign(&u * &u).unwrap();
            assert_eq!(pygb::reduce(&d).unwrap().as_f64(), 14.0);
        }
        let stats = pygb::runtime().cache().stats();
        let before = stats.snapshot();
        {
            let _nb = nonblocking().unwrap();
            d.no_mask().assign(&u * &u).unwrap();
            assert_eq!(pygb::reduce(&d).unwrap().as_f64(), 14.0);
        }
        let after = stats.snapshot();
        assert_eq!(
            after.invocations - before.invocations,
            1,
            "eWise + reduce must fold into one fused dispatch"
        );
        // The fused kernel also materializes the vector for later reads.
        assert_eq!(d.to_dense_f64(), vec![1.0, 4.0, 9.0]);
    }

    /// Wave jobs leave the pool threads they ran on as they found them:
    /// an empty DAG and no recorded write a later job's check could
    /// inherit — and the checked interpretation never missed.
    #[test]
    fn pool_threads_are_left_clean_after_waves() {
        let _serial = serial();
        use std::sync::{Arc, Barrier};

        let fact_misses = || pygb_obs::registry().snapshot().counter("opt/fact_misses");
        let before = fact_misses();
        set_passes(&[
            PassKind::Dce,
            PassKind::Cse,
            PassKind::Sparsity,
            PassKind::Noop,
        ]);
        let u = dense(&[1.0, 0.0, 3.0, 4.0]);
        let v = dense(&[2.0, 5.0, 0.0, 1.0]);
        let mut a = Vector::new(4, DType::Fp64);
        let mut b = Vector::new(4, DType::Fp64);
        for _ in 0..50 {
            // Two independent nodes: one wave of two jobs.
            let _nb = nonblocking().unwrap();
            a.no_mask().assign(&u + &v).unwrap();
            b.no_mask().assign(&u * &v).unwrap();
        }
        reset_passes();
        assert_eq!(a.to_dense_f64(), vec![3.0, 5.0, 3.0, 5.0]);
        assert_eq!(b.to_dense_f64(), vec![2.0, 0.0, 0.0, 4.0]);
        assert_eq!(fact_misses(), before, "checked interpretation missed");

        // One probe per pool thread: the barrier holds each job until
        // the caller and every helper has one.
        let width = std::thread::available_parallelism().map_or(1, |n| n.get());
        let all_held = Arc::new(Barrier::new(width));
        let probes: Vec<_> = (0..width)
            .map(|_| {
                let all_held = Arc::clone(&all_held);
                move || {
                    all_held.wait();
                    let pooled = std::thread::current()
                        .name()
                        .is_some_and(|n| n.starts_with("pygb-pool-"));
                    let empty_dag = dag::with_dag(|d| {
                        d.nodes.is_empty()
                            && d.pending.is_empty()
                            && d.resolved_v.is_empty()
                            && d.resolved_m.is_empty()
                    });
                    (pooled, empty_dag, sparsity::write_recorded())
                }
            })
            .collect();
        let pooled: Vec<_> = gbtl::parallel::run_jobs(probes)
            .into_iter()
            .filter(|&(pooled, ..)| pooled)
            .collect();
        assert_eq!(pooled.len(), width - 1, "one probe per helper");
        for (_, empty_dag, recorded) in pooled {
            assert!(empty_dag, "a pool thread kept DAG state");
            assert!(!recorded, "a pool thread kept a recorded write");
        }
    }

    #[test]
    fn invalid_op_is_rejected_at_enqueue_not_flush() {
        let _serial = serial();
        let u = dense(&[1.0, 2.0]);
        let bad = dense(&[1.0, 2.0, 3.0]); // size mismatch
        let mut w = Vector::new(2, DType::Fp64);
        {
            let _nb = nonblocking().unwrap();
            // The analyzer rejects the op at enqueue time — it never
            // enters the DAG, so the later flush has nothing poisoned.
            let err = w.no_mask().assign(&u + &bad).unwrap_err();
            assert!(
                matches!(err, pygb::PygbError::Invalid { op: "eWiseAdd", .. }),
                "expected an analyzer diagnostic, got: {err}"
            );
            assert!(flush().is_ok(), "rejected op must not poison the flush");
            // The runtime stays usable inside the same scope.
            w.no_mask().assign(&u + &u).unwrap();
        }
        assert_eq!(w.to_dense_f64(), vec![2.0, 4.0]);
    }
}
