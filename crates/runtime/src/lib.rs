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
    last_refusals, plan, trace_report, trace_report_for, ExecutedNode, NodeId, Plan, PlanNode,
    TraceReport,
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
    use pygb_jit::StatsSnapshot;
    use pygb_obs::Scope;

    fn dense(vals: &[f64]) -> Vector {
        let mut v = Vector::new(vals.len(), DType::Fp64);
        for (i, &x) in vals.iter().enumerate() {
            v.set(i, x).unwrap();
        }
        v
    }

    #[test]
    fn deferred_chain_flushes_on_scope_exit() {
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
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut w = Vector::new(3, DType::Fp64);
        let _nb = nonblocking().unwrap();
        w.no_mask().assign(&u + &u).unwrap();
        // `get` must observe the deferred assignment.
        assert_eq!(w.get(1).unwrap().as_f64(), 4.0);
    }

    #[test]
    fn ewise_chain_fuses_to_one_dispatch() {
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut w = Vector::new(3, DType::Fp64);
        // Warm both kernels so only memory hits are counted below.
        {
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            w.no_mask().assign(&t * &u).unwrap();
        }
        let scope = Scope::new();
        {
            let _in = scope.enter();
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            w.no_mask().assign(&t * &u).unwrap();
        }
        let got = StatsSnapshot::of(&scope);
        assert_eq!(
            got.invocations, 1,
            "two deferred eWise ops must fuse into one kernel invocation"
        );
        assert_eq!(got.fused_ops, 1);
        assert_eq!(got.deferred_ops, 2);
        assert_eq!(w.to_dense_f64(), vec![2.0, 8.0, 18.0]);
    }

    #[test]
    fn dead_node_is_elided() {
        let u = dense(&[1.0, 2.0]);
        let scope = Scope::new();
        {
            let _in = scope.enter();
            let _nb = nonblocking().unwrap();
            let t = Vector::from_expr(&u + &u).unwrap();
            drop(t); // result never observed
        }
        let got = StatsSnapshot::of(&scope);
        assert_eq!(got.invocations, 0, "dead op must not run");
        assert_eq!(got.elided_ops, 1);
    }

    #[test]
    fn held_temp_blocks_fusion_but_stays_correct() {
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
        let u = dense(&[1.0, 2.0, 3.0]);
        let mut d = Vector::new(3, DType::Fp64);
        // Warm.
        {
            let _nb = nonblocking().unwrap();
            d.no_mask().assign(&u * &u).unwrap();
            assert_eq!(pygb::reduce(&d).unwrap().as_f64(), 14.0);
        }
        let scope = Scope::new();
        {
            let _in = scope.enter();
            let _nb = nonblocking().unwrap();
            d.no_mask().assign(&u * &u).unwrap();
            assert_eq!(pygb::reduce(&d).unwrap().as_f64(), 14.0);
        }
        assert_eq!(
            StatsSnapshot::of(&scope).invocations,
            1,
            "eWise + reduce must fold into one fused dispatch"
        );
        // The fused kernel also materializes the vector for later reads.
        assert_eq!(d.to_dense_f64(), vec![1.0, 4.0, 9.0]);
    }

    /// Wave jobs leave the pool threads they ran on as they found them:
    /// an empty DAG, no recorded write a later job's check could
    /// inherit and no installed scope — and the checked interpretation
    /// never missed.
    #[test]
    fn pool_threads_are_left_clean_after_waves() {
        use std::sync::{Arc, Barrier};

        let scope = Scope::new();
        let _in = scope.enter();
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
        assert_eq!(
            scope.get(pygb_obs::Census::FactMisses),
            0,
            "checked interpretation missed"
        );
        // 50 flushes of two jobs each, counted in this scope wherever
        // the jobs ran.
        assert_eq!(StatsSnapshot::of(&scope).invocations, 100);

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
                    let clean = !sparsity::write_recorded() && pygb_obs::current_scope().is_none();
                    (pooled, empty_dag, clean)
                }
            })
            .collect();
        let pooled: Vec<_> = gbtl::parallel::run_jobs(probes)
            .into_iter()
            .filter(|&(pooled, ..)| pooled)
            .collect();
        assert_eq!(pooled.len(), width - 1, "one probe per helper");
        for (_, empty_dag, clean) in pooled {
            assert!(empty_dag, "a pool thread kept DAG state");
            assert!(clean, "a pool thread kept a recorded write or a scope");
        }
    }

    /// A node that panics unwinds out of its flush, and the thread's
    /// DAG is left usable for the next nonblocking scope.
    #[test]
    fn a_panicking_node_leaves_the_dag_usable() {
        let boom = pygb::BinaryOp::define("RuntimeTestBoom", |_, _| panic!("injected node panic"));
        let u = dense(&[1.0, 2.0]);
        let mut w = Vector::new(2, DType::Fp64);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _nb = nonblocking().unwrap();
            let _op = boom.enter();
            w.no_mask().assign(&u * &u).unwrap();
            flush()
        }));
        assert!(panicked.is_err(), "the node's panic reaches the flusher");
        let mut v = Vector::new(2, DType::Fp64);
        {
            let _nb = nonblocking().unwrap();
            v.no_mask().assign(&u + &u).unwrap();
        }
        assert_eq!(v.to_dense_f64(), vec![2.0, 4.0]);
    }

    #[test]
    fn invalid_op_is_rejected_at_enqueue_not_flush() {
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
