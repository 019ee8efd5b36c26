//! The two-level module cache of Fig. 9's `get_module`:
//!
//! ```python
//! def get_module(kwargs):
//!     mod = hash(kwargs)
//!     if mod in modules:        return modules[mod]       # memory hit
//!     elif os.path.isfile(mod): return import_module(mod) # disk hit
//!     else:                     subprocess.call(["g++", ...]); ...
//! ```
//!
//! Memory level: a hash map of instantiated kernels. Disk level: a
//! persistent JSON *module index* recording every key ever compiled, so
//! a later process run classifies the key as a (cheap) disk hit instead
//! of a cold compile — reproducing how the paper's `.so` files amortize
//! compilation across runs.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use pygb_obs::Census;

use crate::error::JitError;
use crate::json;
use crate::kernel::Kernel;
use crate::key::ModuleKey;
use crate::stats::JitStats;

/// How a module was obtained.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Found already instantiated in process memory.
    MemoryHit,
    /// Known from a previous process run (disk index); re-instantiated
    /// without counting as a cold compile — the `import_module` path.
    DiskHit,
    /// Never seen before: instantiated ("compiled") now and recorded.
    Compiled,
}

/// One line of the persistent module index.
#[derive(Debug, Clone)]
pub struct ModuleRecord {
    /// Hex module name (`{hash:016x}`, the `.so` filename analog).
    pub module: String,
    /// The canonical key text, for human inspection of the cache.
    pub key: String,
    /// Nanoseconds the original instantiation took.
    pub compile_ns: u64,
}

/// Two-level module cache. Its outcomes are counted in the process
/// census ([`JitStats`]).
pub struct ModuleCache {
    memory: RwLock<HashMap<u64, Arc<dyn Kernel>>>,
    disk: Option<DiskIndex>,
}

struct DiskIndex {
    path: PathBuf,
    known: RwLock<HashMap<u64, ModuleRecord>>,
}

impl ModuleCache {
    /// A purely in-memory cache (no cross-run persistence). What tests
    /// and benchmarks use by default.
    pub fn in_memory() -> Self {
        ModuleCache {
            memory: RwLock::new(HashMap::new()),
            disk: None,
        }
    }

    /// A cache whose module index persists at `dir/modules.json`.
    /// The directory is created if needed; unreadable or corrupt index
    /// files are treated as empty.
    pub fn with_disk_index(dir: impl AsRef<Path>) -> Self {
        let dir = dir.as_ref();
        let _ = fs::create_dir_all(dir);
        let path = dir.join("modules.json");
        let known = load_index(&path)
            .into_iter()
            .filter_map(|r| u64::from_str_radix(&r.module, 16).ok().map(|h| (h, r)))
            .collect();
        ModuleCache {
            memory: RwLock::new(HashMap::new()),
            disk: Some(DiskIndex {
                path,
                known: RwLock::new(known),
            }),
        }
    }

    /// Fig. 9's `get_module`: return the kernel for `key`, instantiating
    /// it with `factory` if neither cache level knows it.
    pub fn get_or_compile<F>(
        &self,
        key: &ModuleKey,
        factory: F,
    ) -> Result<(Arc<dyn Kernel>, CacheOutcome), JitError>
    where
        F: FnOnce(&ModuleKey) -> Result<Box<dyn Kernel>, JitError>,
    {
        self.get_or_compile_hashed(key.module_hash(), key, factory)
    }

    /// [`ModuleCache::get_or_compile`] for a key whose module hash the
    /// caller already computed (`hash == key.module_hash()`), so a
    /// dispatch renders and hashes its key once.
    pub(crate) fn get_or_compile_hashed<F>(
        &self,
        hash: u64,
        key: &ModuleKey,
        factory: F,
    ) -> Result<(Arc<dyn Kernel>, CacheOutcome), JitError>
    where
        F: FnOnce(&ModuleKey) -> Result<Box<dyn Kernel>, JitError>,
    {
        let lookup_start = Instant::now();
        if let Some(k) = self.memory.read().get(&hash) {
            Census::LookupNs.add(lookup_start.elapsed().as_nanos() as u64);
            Census::MemoryHits.inc();
            return Ok((Arc::clone(k), CacheOutcome::MemoryHit));
        }
        Census::LookupNs.add(lookup_start.elapsed().as_nanos() as u64);

        // Not in memory: instantiate. (Two threads may race here; the
        // second insert wins nothing but wastes one instantiation, like
        // two Python processes racing on the same .so.)
        let compile_start = Instant::now();
        let kernel: Arc<dyn Kernel> = Arc::from(factory(key)?);
        let compile_ns = compile_start.elapsed().as_nanos() as u64;

        let outcome = match &self.disk {
            Some(disk) if disk.known.read().contains_key(&hash) => {
                Census::DiskHits.inc();
                CacheOutcome::DiskHit
            }
            Some(disk) => {
                Census::Compiles.inc();
                Census::CompileNs.add(compile_ns);
                let record = ModuleRecord {
                    module: key.module_name(),
                    key: key.canonical(),
                    compile_ns,
                };
                {
                    let mut known = disk.known.write();
                    known.insert(hash, record);
                    persist_index(&disk.path, &known);
                }
                CacheOutcome::Compiled
            }
            None => {
                Census::Compiles.inc();
                Census::CompileNs.add(compile_ns);
                CacheOutcome::Compiled
            }
        };

        self.memory.write().insert(hash, Arc::clone(&kernel));
        Ok((kernel, outcome))
    }

    /// Whether the key is resident in process memory.
    pub fn contains(&self, key: &ModuleKey) -> bool {
        self.memory.read().contains_key(&key.module_hash())
    }

    /// Number of modules resident in memory.
    pub fn resident_modules(&self) -> usize {
        self.memory.read().len()
    }

    /// Number of modules the disk index knows (0 without an index).
    pub fn indexed_modules(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.known.read().len())
    }

    /// Drop all in-memory kernels, keeping the disk index — simulates a
    /// process restart for tests and the compile-time bench.
    pub fn evict_memory(&self) {
        self.memory.write().clear();
    }

    /// The dispatch statistics (process-wide: every cache counts into
    /// the same census cells).
    pub fn stats(&self) -> &JitStats {
        &JitStats
    }
}

fn load_index(path: &Path) -> Vec<ModuleRecord> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    // Unreadable or structurally surprising indices are treated as
    // empty — the cache regenerates them on the next compile.
    let Ok(value) = json::parse(&text) else {
        return Vec::new();
    };
    let Some(entries) = value.as_array() else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            Some(ModuleRecord {
                module: e.get("module")?.as_str()?.to_string(),
                key: e.get("key")?.as_str()?.to_string(),
                compile_ns: e.get("compile_ns")?.as_u64()?,
            })
        })
        .collect()
}

fn persist_index(path: &Path, known: &HashMap<u64, ModuleRecord>) {
    let mut records: Vec<&ModuleRecord> = known.values().collect();
    records.sort_by(|a, b| a.module.cmp(&b.module));
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\n    \"module\": \"{}\",\n    \"key\": \"{}\",\n    \"compile_ns\": {}\n  }}",
            pygb_obs::json_escape(&r.module),
            pygb_obs::json_escape(&r.key),
            r.compile_ns
        ));
    }
    out.push_str(if records.is_empty() { "]" } else { "\n]" });
    let _ = fs::write(path, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FnKernel;
    use crate::stats::StatsSnapshot;

    fn key(n: u32) -> ModuleKey {
        ModuleKey::new("op").with("n", n.to_string())
    }

    fn trivial_factory(_: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
        Ok(Box::new(FnKernel::new("op", "op<test>", |_: &mut ()| {
            Ok(())
        })))
    }

    #[test]
    fn first_call_compiles_second_hits_memory() {
        let scope = pygb_obs::Scope::new();
        let _in = scope.enter();
        let cache = ModuleCache::in_memory();
        let (_, o1) = cache.get_or_compile(&key(1), trivial_factory).unwrap();
        assert_eq!(o1, CacheOutcome::Compiled);
        let (_, o2) = cache.get_or_compile(&key(1), trivial_factory).unwrap();
        assert_eq!(o2, CacheOutcome::MemoryHit);
        assert_eq!(cache.resident_modules(), 1);
        let snap = StatsSnapshot::of(&scope);
        assert_eq!(snap.compiles, 1);
        assert_eq!(snap.memory_hits, 1);
    }

    #[test]
    fn distinct_keys_compile_separately() {
        let scope = pygb_obs::Scope::new();
        let _in = scope.enter();
        let cache = ModuleCache::in_memory();
        cache.get_or_compile(&key(1), trivial_factory).unwrap();
        cache.get_or_compile(&key(2), trivial_factory).unwrap();
        assert_eq!(cache.resident_modules(), 2);
        assert_eq!(StatsSnapshot::of(&scope).compiles, 2);
    }

    #[test]
    fn factory_error_propagates_and_caches_nothing() {
        let cache = ModuleCache::in_memory();
        let err = cache.get_or_compile(&key(1), |_| {
            Err::<Box<dyn Kernel>, _>(JitError::bad_key("nope"))
        });
        assert!(err.is_err());
        assert_eq!(cache.resident_modules(), 0);
    }

    #[test]
    fn disk_index_survives_restart() {
        let dir = std::env::temp_dir().join(format!("pygb-jit-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let cache = ModuleCache::with_disk_index(&dir);
        let (_, o1) = cache.get_or_compile(&key(7), trivial_factory).unwrap();
        assert_eq!(o1, CacheOutcome::Compiled);
        assert_eq!(cache.indexed_modules(), 1);

        // "Restart": fresh cache instance over the same directory.
        let scope = pygb_obs::Scope::new();
        let _in = scope.enter();
        let cache2 = ModuleCache::with_disk_index(&dir);
        assert_eq!(cache2.indexed_modules(), 1);
        let (_, o2) = cache2.get_or_compile(&key(7), trivial_factory).unwrap();
        assert_eq!(o2, CacheOutcome::DiskHit);
        assert_eq!(StatsSnapshot::of(&scope).compiles, 0);
        assert_eq!(StatsSnapshot::of(&scope).disk_hits, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_memory_keeps_index() {
        let dir = std::env::temp_dir().join(format!("pygb-jit-evict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ModuleCache::with_disk_index(&dir);
        cache.get_or_compile(&key(1), trivial_factory).unwrap();
        cache.evict_memory();
        assert_eq!(cache.resident_modules(), 0);
        let (_, o) = cache.get_or_compile(&key(1), trivial_factory).unwrap();
        assert_eq!(o, CacheOutcome::DiskHit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_treated_as_empty() {
        let dir = std::env::temp_dir().join(format!("pygb-jit-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("modules.json"), "not json at all {{{").unwrap();
        let cache = ModuleCache::with_disk_index(&dir);
        assert_eq!(cache.indexed_modules(), 0);
        let (_, o) = cache.get_or_compile(&key(1), trivial_factory).unwrap();
        assert_eq!(o, CacheOutcome::Compiled);
        let _ = fs::remove_dir_all(&dir);
    }
}
