//! Dispatch statistics: cache outcomes and per-outcome timing.
//!
//! These counters back the paper's claims that (a) compile cost is paid
//! once per key and amortized over reuse, and (b) warm dispatch overhead
//! is a hash + map lookup. The `figures` binary prints them for the
//! compile-time experiment.

use pygb_obs::{Census, Scope};

/// The dispatch statistics: a typed reader over the process [`Census`]
/// cells the JIT, the op-DAG runtime and the kernels count into. Every
/// [`crate::ModuleCache`] counts into the same cells; a caller that
/// wants only its own share opens a [`Scope`] and reads
/// [`StatsSnapshot::of`] it.
#[derive(Debug, Default)]
pub struct JitStats;

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Dispatches served from process memory.
    pub memory_hits: u64,
    /// Dispatches served by "loading" a module recorded by a previous
    /// process run (disk index hit).
    pub disk_hits: u64,
    /// Cold compiles (kernel instantiations).
    pub compiles: u64,
    /// Total kernel invocations.
    pub invocations: u64,
    /// Nanoseconds spent instantiating kernels.
    pub compile_ns_total: u64,
    /// Nanoseconds spent in key hashing + cache lookup.
    pub lookup_ns_total: u64,
    /// Operations enqueued into a nonblocking op-DAG instead of
    /// dispatching eagerly.
    pub deferred_ops: u64,
    /// DAG nodes absorbed into a composite kernel by the nonblocking
    /// fusion pass (each one is a dispatch that never happened).
    pub fused_ops: u64,
    /// DAG nodes dropped as dead code (results never observed); the
    /// `opt/dce_elided` series.
    pub elided_ops: u64,
    /// DAG nodes merged into a structurally identical node by the
    /// common-subexpression-elimination pass; the `opt/cse_deduped`
    /// series.
    pub cse_deduped: u64,
    /// DAG nodes folded into an alias of another container's value by
    /// the no-op pass (identity applies, empty union operands, empty
    /// masks without replace); the `opt/noop_folded` series.
    pub noop_folded: u64,
    /// Producer/consumer pairs that matched a fusion rule but were
    /// refused by the aliasing analysis (the consumer's output aliases
    /// a producer input, so fusion legality could not be proven).
    pub refused_fusions: u64,
    /// `mxm` dispatches that ran the unmasked Gustavson SpGEMM.
    pub sel_spgemm: u64,
    /// `mxm` dispatches that ran the mask-stamped Gustavson SpGEMM.
    pub sel_masked_spgemm: u64,
    /// `mxm` dispatches that ran the mask-guided dot-product SpGEMM.
    pub sel_dot_spgemm: u64,
    /// `mxv`/`vxm` dispatches that ran the unmasked pull (gather) SpMV.
    pub sel_pull: u64,
    /// `mxv`/`vxm` dispatches that ran the masked pull SpMV.
    pub sel_masked_pull: u64,
    /// `mxv`/`vxm` dispatches that ran the unmasked push (scatter) SpMV.
    pub sel_push: u64,
    /// `mxv`/`vxm` dispatches that ran the masked push SpMV.
    pub sel_masked_push: u64,
}

impl JitStats {
    /// Copy the process-wide counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::read(Census::total)
    }
}

impl StatsSnapshot {
    /// The counts `scope` collected while installed.
    pub fn of(scope: &Scope) -> StatsSnapshot {
        StatsSnapshot::read(|cell| scope.get(cell))
    }

    fn read(get: impl Fn(Census) -> u64) -> StatsSnapshot {
        StatsSnapshot {
            memory_hits: get(Census::MemoryHits),
            disk_hits: get(Census::DiskHits),
            compiles: get(Census::Compiles),
            invocations: get(Census::Invocations),
            compile_ns_total: get(Census::CompileNs),
            lookup_ns_total: get(Census::LookupNs),
            deferred_ops: get(Census::DeferredOps),
            fused_ops: get(Census::FusedOps),
            elided_ops: get(Census::DceElided),
            cse_deduped: get(Census::CseDeduped),
            noop_folded: get(Census::NoopFolded),
            refused_fusions: get(Census::RefusedFusions),
            sel_spgemm: get(Census::SelSpgemm),
            sel_masked_spgemm: get(Census::SelMaskedSpgemm),
            sel_dot_spgemm: get(Census::SelDotSpgemm),
            sel_pull: get(Census::SelPull),
            sel_masked_pull: get(Census::SelMaskedPull),
            sel_push: get(Census::SelPush),
            sel_masked_push: get(Census::SelMaskedPush),
        }
    }

    /// Total dispatches that consulted the cache.
    pub fn total_dispatches(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.compiles
    }

    /// Fraction of dispatches that avoided a compile, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_dispatches();
        if total == 0 {
            return 0.0;
        }
        (self.memory_hits + self.disk_hits) as f64 / total as f64
    }

    /// Mean nanoseconds per cold compile.
    pub fn mean_compile_ns(&self) -> f64 {
        if self.compiles == 0 {
            return 0.0;
        }
        self.compile_ns_total as f64 / self.compiles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f`'s counts, read from a scope of its own.
    fn counted(f: impl FnOnce()) -> StatsSnapshot {
        let scope = Scope::new();
        {
            let _in = scope.enter();
            f();
        }
        StatsSnapshot::of(&scope)
    }

    #[test]
    fn counters_accumulate() {
        let snap = counted(|| {
            for ns in [100, 300] {
                Census::Compiles.inc();
                Census::CompileNs.add(ns);
            }
            for _ in 0..3 {
                Census::MemoryHits.inc();
            }
            Census::DiskHits.inc();
            Census::Invocations.inc();
        });
        assert_eq!(snap.compiles, 2);
        assert_eq!(snap.memory_hits, 3);
        assert_eq!(snap.disk_hits, 1);
        assert_eq!(snap.invocations, 1);
        assert_eq!(snap.total_dispatches(), 6);
        assert!((snap.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(snap.mean_compile_ns(), 200.0);
        // The process-wide reader saw at least the same events.
        assert!(JitStats.snapshot().compiles >= 2);
    }

    #[test]
    fn empty_snapshot_rates() {
        let snap = counted(|| {});
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.mean_compile_ns(), 0.0);
    }

    #[test]
    fn selection_counters() {
        let snap = counted(|| {
            for cell in [
                Census::SelSpgemm,
                Census::SelMaskedSpgemm,
                Census::SelDotSpgemm,
                Census::SelDotSpgemm,
                Census::SelPull,
                Census::SelMaskedPull,
                Census::SelPush,
                Census::SelMaskedPush,
                Census::SelMaskedPush,
            ] {
                cell.inc();
            }
        });
        assert_eq!(snap.sel_spgemm, 1);
        assert_eq!(snap.sel_masked_spgemm, 1);
        assert_eq!(snap.sel_dot_spgemm, 2);
        assert_eq!(snap.sel_pull, 1);
        assert_eq!(snap.sel_masked_pull, 1);
        assert_eq!(snap.sel_push, 1);
        assert_eq!(snap.sel_masked_push, 2);
    }

    #[test]
    fn optimizer_fields_read_the_opt_series() {
        let snap = counted(|| {
            Census::DceElided.add(3);
            Census::CseDeduped.add(2);
            Census::NoopFolded.inc();
        });
        assert_eq!(
            (snap.elided_ops, snap.cse_deduped, snap.noop_folded),
            (3, 2, 1)
        );
    }
}
