//! The census: the fixed set of work counters a dispatch, a flush or a
//! request is accounted by, and the [`Scope`] that reads one caller's
//! share of them.
//!
//! Each [`Census`] cell is one process-wide registry [`Counter`],
//! resolved once under its series name (so counting never looks a
//! name up). Counting an event is one relaxed add to that counter and,
//! when a [`Scope`] is installed on the counting thread, one more
//! relaxed add to the scope's own copy of the cell. Scopes nest: the
//! innermost installed scope takes the count.
//!
//! A request (or a test) opens a scope, installs it on its thread with
//! [`Scope::enter`], and reads its own counts with [`Scope::get`] —
//! exact even while other threads count into the same process cells.
//! Work a thread hands to a pool helper reaches the scope because the
//! handing-off code captures [`current_scope`] and installs it around
//! the job with [`install_scope`] (the op-DAG flush does this for every
//! wave job).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{registry, Counter};

macro_rules! census {
    ($($(#[$doc:meta])* $cell:ident = $name:literal,)*) => {
        /// One census cell. Its [`Census::name`] is the registry series
        /// it is exported under.
        #[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
        pub enum Census {
            $($(#[$doc])* $cell,)*
        }

        impl Census {
            /// Every cell, in declaration order.
            pub const ALL: &'static [Census] = &[$(Census::$cell,)*];

            /// The registry series this cell is exported under.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Census::$cell => $name,)*
                }
            }
        }
    };
}

census! {
    /// Dispatches served from process memory.
    MemoryHits = "jit/memory_hits",
    /// Dispatches served by re-instantiating a disk-indexed module.
    DiskHits = "jit/disk_hits",
    /// Cold kernel instantiations.
    Compiles = "jit/compiles",
    /// Kernel invocations.
    Invocations = "jit/invocations",
    /// Nanoseconds spent instantiating kernels.
    CompileNs = "jit/compile_ns_total",
    /// Nanoseconds spent in key hashing and cache lookup.
    LookupNs = "jit/lookup_ns_total",
    /// Operations deferred into a nonblocking op-DAG.
    DeferredOps = "jit/deferred_ops",
    /// DAG nodes absorbed into a composite kernel.
    FusedOps = "jit/fused_ops",
    /// Fusion-rule matches refused by the aliasing analysis.
    RefusedFusions = "jit/refused_fusions",
    /// `mxm` dispatches that ran the unmasked Gustavson SpGEMM.
    SelSpgemm = "jit/sel_spgemm",
    /// `mxm` dispatches that ran the mask-stamped Gustavson SpGEMM.
    SelMaskedSpgemm = "jit/sel_masked_spgemm",
    /// `mxm` dispatches that ran the mask-guided dot-product SpGEMM.
    SelDotSpgemm = "jit/sel_dot_spgemm",
    /// `mxv`/`vxm` dispatches that ran the unmasked pull SpMV.
    SelPull = "jit/sel_pull",
    /// `mxv`/`vxm` dispatches that ran the masked pull SpMV.
    SelMaskedPull = "jit/sel_masked_pull",
    /// `mxv`/`vxm` dispatches that ran the unmasked push SpMV.
    SelPush = "jit/sel_push",
    /// `mxv`/`vxm` dispatches that ran the masked push SpMV.
    SelMaskedPush = "jit/sel_masked_push",
    /// Cold SpMV modules instantiated for a fixed semiring type.
    SpecializedModules = "jit/specialized_modules",
    /// Cold SpMV modules that interpret their semiring.
    InterpretedModules = "jit/interpreted_modules",
    /// DAG nodes dropped as dead code.
    DceElided = "opt/dce_elided",
    /// DAG nodes merged into a structurally identical node.
    CseDeduped = "opt/cse_deduped",
    /// DAG nodes folded because an operand is provably empty.
    EmptyFolded = "opt/empty_folded",
    /// DAG nodes folded as no-ops.
    NoopFolded = "opt/noop_folded",
    /// Kernel launches the optimization passes saved.
    LaunchesSaved = "opt/launches_saved",
    /// Writes whose concrete `nvals` fell outside the predicted fact.
    FactMisses = "opt/fact_misses",
    /// Operand dtype views built.
    CastBuilt = "views/cast_built",
    /// Operand dtype views reused.
    CastHit = "views/cast_hit",
}

const CELLS: usize = Census::ALL.len();

/// The process cells, resolved from the registry on first use.
fn process_cells() -> &'static [Arc<Counter>; CELLS] {
    static PROCESS: OnceLock<[Arc<Counter>; CELLS]> = OnceLock::new();
    PROCESS.get_or_init(|| std::array::from_fn(|i| registry().counter(Census::ALL[i].name())))
}

thread_local! {
    /// The scope counts on this thread go to, besides the process cells.
    static CURRENT: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

impl Census {
    /// Count `n` events: one relaxed add to the process cell, and one
    /// to the scope installed on this thread, if any. Zero is a no-op.
    #[inline]
    pub fn add(self, n: u64) {
        if n == 0 {
            return;
        }
        process_cells()[self as usize].add(n);
        CURRENT.with(|s| {
            if let Some(scope) = &*s.borrow() {
                scope.cells[self as usize].fetch_add(n, Ordering::Relaxed);
            }
        });
    }

    /// Count one event.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }

    /// The process-wide total.
    pub fn total(self) -> u64 {
        process_cells()[self as usize].get()
    }

    /// Resolve every cell in the process registry, so a snapshot taken
    /// before the first count already lists each census series.
    pub fn resolve() {
        process_cells();
    }
}

/// One caller's share of the census, plus the request state the
/// runtime reads while the scope is installed: a request tag, whether
/// flushes must time their nodes, and a slot for a captured plan.
#[derive(Debug)]
pub struct Scope {
    cells: [AtomicU64; CELLS],
    tag: Option<u64>,
    plan: Option<Mutex<Option<String>>>,
}

impl Scope {
    /// A scope that only counts (a test's or a session's).
    pub fn new() -> Arc<Scope> {
        Arc::new(Scope {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            tag: None,
            plan: None,
        })
    }

    /// A serve request's scope: flushes under it are tagged `id`, time
    /// their nodes even with tracing off, and the request's plan can be
    /// captured into it ([`Scope::offer_plan`]).
    pub fn request(id: u64) -> Arc<Scope> {
        Arc::new(Scope {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            tag: Some(id),
            plan: Some(Mutex::new(None)),
        })
    }

    /// Install this scope on the calling thread until the guard drops.
    pub fn enter(self: &Arc<Self>) -> ScopeGuard {
        install_scope(Some(Arc::clone(self)))
    }

    /// This scope's count of `cell`.
    pub fn get(&self, cell: Census) -> u64 {
        self.cells[cell as usize].load(Ordering::Relaxed)
    }

    /// The request ID flushes under this scope are tagged with.
    pub fn tag(&self) -> Option<u64> {
        self.tag
    }

    /// Whether flushes under this scope collect timed per-node reports
    /// even while tracing is off (request scopes do).
    pub fn report_forced(&self) -> bool {
        self.tag.is_some()
    }

    /// Store `render()` as the captured plan, if this scope captures
    /// plans; otherwise `render` never runs.
    pub fn offer_plan(&self, render: impl FnOnce() -> String) {
        if let Some(slot) = &self.plan {
            let plan = render();
            *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(plan);
        }
    }

    /// Take the captured plan, if one was offered.
    pub fn take_plan(&self) -> Option<String> {
        let slot = self.plan.as_ref()?;
        slot.lock().unwrap_or_else(|p| p.into_inner()).take()
    }
}

/// The scope installed on the calling thread, if any.
pub fn current_scope() -> Option<Arc<Scope>> {
    CURRENT.with(|s| s.borrow().clone())
}

/// Install `scope` (or none) on the calling thread until the returned
/// guard drops, which restores whatever was installed before.
pub fn install_scope(scope: Option<Arc<Scope>>) -> ScopeGuard {
    let prev = CURRENT.with(|s| s.replace(scope));
    ScopeGuard {
        prev,
        _thread: PhantomData,
    }
}

/// Restores the previously installed scope on drop. Bound to the thread
/// that installed it.
#[must_use = "the scope is uninstalled when the guard drops"]
pub struct ScopeGuard {
    prev: Option<Arc<Scope>>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|s| *s.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_registered() {
        let mut names: Vec<&str> = Census::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CELLS);
        Census::resolve();
        let snap = registry().snapshot();
        for c in Census::ALL {
            assert!(snap.counters.contains_key(c.name()), "{}", c.name());
        }
    }

    #[test]
    fn a_scope_counts_only_its_own_thread() {
        let scope = Scope::new();
        let before = Census::FactMisses.total();
        {
            let _in = scope.enter();
            Census::FactMisses.add(3);
        }
        Census::FactMisses.add(4); // uninstalled: process cell only
        assert_eq!(scope.get(Census::FactMisses), 3);
        assert!(Census::FactMisses.total() - before >= 7);
        // Another thread's counts never reach this scope.
        std::thread::spawn(|| Census::FactMisses.add(5))
            .join()
            .unwrap();
        assert_eq!(scope.get(Census::FactMisses), 3);
    }

    #[test]
    fn the_innermost_scope_wins_and_drop_restores_the_outer() {
        let outer = Scope::new();
        let inner = Scope::new();
        let _o = outer.enter();
        {
            let _i = inner.enter();
            Census::CastHit.inc();
            assert!(Arc::ptr_eq(&current_scope().unwrap(), &inner));
        }
        Census::CastHit.inc();
        assert_eq!(inner.get(Census::CastHit), 1);
        assert_eq!(outer.get(Census::CastHit), 1);
        assert!(Arc::ptr_eq(&current_scope().unwrap(), &outer));
        let _none = install_scope(None);
        Census::CastHit.inc();
        assert_eq!(outer.get(Census::CastHit), 1);
    }

    #[test]
    fn a_captured_scope_follows_work_to_another_thread() {
        let scope = Scope::new();
        let _in = scope.enter();
        let captured = current_scope();
        std::thread::spawn(move || {
            let _job = install_scope(captured);
            Census::CastBuilt.add(2);
        })
        .join()
        .unwrap();
        assert_eq!(scope.get(Census::CastBuilt), 2);
    }

    #[test]
    fn only_request_scopes_tag_force_and_capture_plans() {
        let plain = Scope::new();
        assert_eq!(plain.tag(), None);
        assert!(!plain.report_forced());
        plain.offer_plan(|| unreachable!("a plain scope must not render"));
        assert!(plain.take_plan().is_none());

        let req = Scope::request(7);
        assert_eq!(req.tag(), Some(7));
        assert!(req.report_forced());
        assert!(req.take_plan().is_none());
        req.offer_plan(|| "the plan".to_string());
        assert_eq!(req.take_plan().as_deref(), Some("the plan"));
        assert!(req.take_plan().is_none(), "taking empties the slot");
    }
}
