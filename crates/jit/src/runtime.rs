//! The process-wide JIT runtime: registry + cache + trace buffer.
//!
//! Mirrors the module-level globals of the paper's Python implementation
//! (`modules = {}` and the import machinery). A [`JitRuntime`] can also
//! be constructed standalone for tests and benchmarks that need
//! isolation from the global cache.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;

use crate::cache::ModuleCache;
use crate::error::JitError;
use crate::key::ModuleKey;
use crate::pipeline::{PipelineTrace, Stage};
use crate::registry::{Factory, FactoryRegistry};

/// How many dispatch traces the ring buffer retains.
const TRACE_CAPACITY: usize = 256;

/// Registry + cache + trace collection for one "interpreter".
pub struct JitRuntime {
    registry: FactoryRegistry,
    cache: ModuleCache,
    traces: RwLock<VecDeque<PipelineTrace>>,
    tracing: AtomicBool,
}

impl JitRuntime {
    /// A runtime with a purely in-memory module cache.
    pub fn in_memory() -> Self {
        JitRuntime {
            registry: FactoryRegistry::new(),
            cache: ModuleCache::in_memory(),
            traces: RwLock::new(VecDeque::new()),
            tracing: AtomicBool::new(false),
        }
    }

    /// A runtime whose module index persists under `dir`.
    pub fn with_disk_index(dir: impl AsRef<std::path::Path>) -> Self {
        JitRuntime {
            registry: FactoryRegistry::new(),
            cache: ModuleCache::with_disk_index(dir),
            traces: RwLock::new(VecDeque::new()),
            tracing: AtomicBool::new(false),
        }
    }

    /// The kernel-factory registry.
    pub fn registry(&self) -> &FactoryRegistry {
        &self.registry
    }

    /// The module cache.
    pub fn cache(&self) -> &ModuleCache {
        &self.cache
    }

    /// Register a factory for `func` (convenience passthrough).
    pub fn register(&self, func: impl Into<String>, factory: Factory) {
        self.registry.register(func, factory);
    }

    /// Enable or disable trace collection. Off by default; while off,
    /// dispatch builds no [`PipelineTrace`].
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether traces are being collected.
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Drain the collected traces (oldest first).
    pub fn take_traces(&self) -> Vec<PipelineTrace> {
        self.traces.write().drain(..).collect()
    }

    /// The full dispatch path: hash the key → retrieve the module →
    /// invoke it on `args`.
    ///
    /// The key is rendered to its canonical text and hashed once (the
    /// paper's `hash(kwargs)`); the memory-cache probe uses that hash.
    /// `front` holds the stages the *caller* timed before the key
    /// existed (expression construction, type inference). They, and
    /// this function's own key-hash, module-retrieval and invocation
    /// timings, become a [`PipelineTrace`] only while tracing is on;
    /// otherwise no trace is built.
    pub fn dispatch(
        &self,
        key: &ModuleKey,
        args: &mut dyn Any,
        front: &[(Stage, u64)],
    ) -> Result<(), JitError> {
        let _sp = pygb_obs::span_labeled(pygb_obs::Cat::Dispatch, || {
            format!("dispatch/{}", key.func())
        });

        let start = Instant::now();
        let canonical = key.canonical();
        let hash = crate::key::fnv1a(&canonical);
        let hash_ns = start.elapsed().as_nanos() as u64;

        // Module retrieval (cache probe + optional instantiation).
        let start = Instant::now();
        let (kernel, outcome) = self
            .cache
            .get_or_compile_hashed(hash, key, |k| self.registry.instantiate(k))?;
        let retrieval_ns = start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let result = kernel.invoke(args);
        let invoke_ns = start.elapsed().as_nanos() as u64;
        self.cache.stats().record_invocation();
        if pygb_obs::enabled() {
            pygb_obs::registry()
                .histogram(&format!("dispatch/{}", key.func()))
                .record(invoke_ns);
        }

        if self.tracing() {
            let mut trace = PipelineTrace::new(canonical);
            for &(stage, ns) in front {
                trace.record(stage, ns);
            }
            trace.record(Stage::KeyHash, hash_ns);
            trace.record(Stage::ModuleRetrieval, retrieval_ns);
            trace.record(Stage::Invocation, invoke_ns);
            trace.outcome = Some(outcome);
            let mut traces = self.traces.write();
            if traces.len() == TRACE_CAPACITY {
                traces.pop_front();
            }
            traces.push_back(trace);
        }
        result
    }
}

/// The process-global runtime, created on first use. Uses a persistent
/// module index under `$PYGB_CACHE_DIR` when that variable is set
/// (opt-in, like the paper's on-disk `.so` cache); otherwise the cache
/// lives in memory only.
pub fn global() -> &'static Arc<JitRuntime> {
    static GLOBAL: OnceLock<Arc<JitRuntime>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let runtime = match std::env::var_os("PYGB_CACHE_DIR") {
            Some(dir) if !dir.is_empty() => JitRuntime::with_disk_index(dir),
            _ => JitRuntime::in_memory(),
        };
        // The global runtime's counters feed the unified metrics
        // registry (standalone runtimes stay private to their tests),
        // and `PYGB_TRACE=<path>` turns tracing on at first dispatch.
        pygb_obs::registry().register_source("jit", runtime.cache().stats_arc());
        pygb_obs::init_from_env();
        Arc::new(runtime)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheOutcome;
    use crate::kernel::{FnKernel, Kernel};

    struct DoubleArgs {
        x: i32,
    }

    fn double_factory(_: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
        Ok(Box::new(FnKernel::new(
            "double",
            "double<i32>",
            |a: &mut DoubleArgs| {
                a.x *= 2;
                Ok(())
            },
        )))
    }

    #[test]
    fn dispatch_runs_kernel() {
        let rt = JitRuntime::in_memory();
        rt.register("double", double_factory);
        let key = ModuleKey::new("double").with("t", "int32");
        let mut args = DoubleArgs { x: 21 };
        rt.dispatch(&key, &mut args, &[]).unwrap();
        assert_eq!(args.x, 42);
    }

    #[test]
    fn traces_collected_when_enabled() {
        let rt = JitRuntime::in_memory();
        rt.register("double", double_factory);
        rt.set_tracing(true);
        let key = ModuleKey::new("double");
        let mut args = DoubleArgs { x: 1 };
        rt.dispatch(&key, &mut args, &[]).unwrap();
        rt.dispatch(&key, &mut args, &[]).unwrap();
        let traces = rt.take_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].outcome, Some(CacheOutcome::Compiled));
        assert_eq!(traces[1].outcome, Some(CacheOutcome::MemoryHit));
        assert!(traces[0].stage_ns(Stage::Invocation).is_some());
        // Drained.
        assert!(rt.take_traces().is_empty());
    }

    #[test]
    fn traces_not_collected_when_disabled() {
        let rt = JitRuntime::in_memory();
        rt.register("double", double_factory);
        let key = ModuleKey::new("double");
        let mut args = DoubleArgs { x: 1 };
        rt.dispatch(&key, &mut args, &[]).unwrap();
        assert!(rt.take_traces().is_empty());
    }

    #[test]
    fn unknown_function_fails_dispatch() {
        let rt = JitRuntime::in_memory();
        let key = ModuleKey::new("nothing");
        let mut args = ();
        let err = rt.dispatch(&key, &mut args, &[]).unwrap_err();
        assert!(matches!(err, JitError::UnknownFunction { .. }));
    }

    #[test]
    fn global_is_singleton() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
    }
}
