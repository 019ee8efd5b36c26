//! Module keys — the identity of a compiled kernel.
//!
//! Fig. 9's `get_module` names modules by `hash(kwargs)`, where kwargs
//! carry the dtype of every operand and the operator parameters
//! (`-DA_TYPE=int64_t -DADD_BINOP=Plus ...`). [`ModuleKey`] is the same
//! structure: a function name plus an ordered parameter map, with a
//! stable 64-bit FNV-1a hash serving as the module name. Using our own
//! hash (not `DefaultHasher`) keeps module names stable across processes
//! so the on-disk index works, just like `.so` filenames.

use std::collections::BTreeMap;
use std::fmt;

/// The key identifying one compiled module: one GraphBLAS function
/// instantiated for specific dtypes and operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleKey {
    func: String,
    params: BTreeMap<String, String>,
}

impl ModuleKey {
    /// Start a key for `func` with no parameters.
    pub fn new(func: impl Into<String>) -> Self {
        ModuleKey {
            func: func.into(),
            params: BTreeMap::new(),
        }
    }

    /// Add (or overwrite) a parameter — a `-Dname=value` in the paper's
    /// `g++` invocation. Builder style.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(name.into(), value.into());
        self
    }

    /// Add a parameter in place.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.params.insert(name.into(), value.into());
    }

    /// The function this key instantiates.
    pub fn func(&self) -> &str {
        &self.func
    }

    /// Look up a parameter.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// Look up a parameter, erroring like a missing `-D` would fail the
    /// preprocessor.
    pub fn require(&self, name: &str) -> Result<&str, crate::JitError> {
        self.get(name).ok_or_else(|| {
            crate::JitError::bad_key(format!("`{}` missing parameter `{name}`", self.func))
        })
    }

    /// Iterate parameters in sorted order.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The canonical textual form: `func(k1=v1,k2=v2,...)` with sorted
    /// parameter order — what gets hashed and what the disk index
    /// records.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(32 + self.params.len() * 16);
        s.push_str(&self.func);
        s.push('(');
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s.push(')');
        s
    }

    /// Stable 64-bit module hash — the paper's `mod = hash(kwargs)`,
    /// used as the module (file) name. FNV-1a over the canonical form.
    pub fn module_hash(&self) -> u64 {
        fnv1a(&self.canonical())
    }

    /// The module's name on disk: hex of the hash, like the paper's
    /// `{hash}.so`.
    pub fn module_name(&self) -> String {
        format!("{:016x}", self.module_hash())
    }

    /// The `g++` command line the paper's pipeline would run for this
    /// key (Fig. 9, "gcc" stage) — emitted by the pipeline demo for
    /// exposition.
    pub fn as_gcc_command(&self) -> String {
        let mut s = format!(
            "g++ -std=c++14 operation_binding.cpp -o {}.so -DFUNC={}",
            self.module_name(),
            self.func
        );
        for (k, v) in self.params.iter() {
            s.push_str(&format!(" -D{}={}", k.to_uppercase(), v));
        }
        s
    }
}

/// FNV-1a of a key's canonical text: [`ModuleKey::module_hash`] for a
/// key rendered once already.
pub(crate) fn fnv1a(canonical: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    canonical
        .bytes()
        .fold(OFFSET, |h, b| (h ^ b as u64).wrapping_mul(PRIME))
}

impl fmt::Display for ModuleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mxm_key() -> ModuleKey {
        ModuleKey::new("mxm")
            .with("a_type", "int64")
            .with("b_type", "int64")
            .with("c_type", "int64")
            .with("semiring", "ArithmeticSemiring")
    }

    #[test]
    fn canonical_is_sorted_and_stable() {
        let a = ModuleKey::new("mxm").with("z", "1").with("a", "2");
        assert_eq!(a.canonical(), "mxm(a=2,z=1)");
        // Insertion order must not matter.
        let b = ModuleKey::new("mxm").with("a", "2").with("z", "1");
        assert_eq!(a, b);
        assert_eq!(a.module_hash(), b.module_hash());
    }

    #[test]
    fn hash_distinguishes_params() {
        let base = mxm_key();
        let other = mxm_key().with("c_type", "fp64");
        assert_ne!(base.module_hash(), other.module_hash());
        let other_func = ModuleKey::new("mxv").with("a_type", "int64");
        assert_ne!(base.module_hash(), other_func.module_hash());
    }

    #[test]
    fn hash_is_cross_process_stable() {
        // Pinned value: if this changes, on-disk indices would be
        // silently invalidated.
        let k = ModuleKey::new("mxm").with("a_type", "int64");
        assert_eq!(k.canonical(), "mxm(a_type=int64)");
        // FNV-1a of the canonical string, computed independently.
        let expected = "mxm(a_type=int64)"
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(k.module_hash(), expected);
        assert_eq!(k.module_name().len(), 16);
        assert_eq!(k.module_name(), format!("{:016x}", k.module_hash()));
    }

    #[test]
    fn require_reports_missing() {
        let k = mxm_key();
        assert_eq!(k.require("semiring").unwrap(), "ArithmeticSemiring");
        let err = k.require("mask_type").unwrap_err();
        assert!(err.to_string().contains("mask_type"));
    }

    #[test]
    fn gcc_command_shape() {
        let cmd = mxm_key().as_gcc_command();
        assert!(cmd.starts_with("g++ -std=c++14 operation_binding.cpp"));
        assert!(cmd.contains("-DA_TYPE=int64"));
        assert!(cmd.contains("-DSEMIRING=ArithmeticSemiring"));
        assert!(cmd.contains(&mxm_key().module_name()));
    }

    #[test]
    fn display_matches_canonical() {
        let k = mxm_key();
        assert_eq!(k.to_string(), k.canonical());
    }
}
