//! Whole-algorithm fused kernels — the "complete C++ algorithm" variant.
//!
//! Each algorithm registers one JIT factory (`algo_bfs`, `algo_sssp`,
//! `algo_pagerank`, `algo_tricount`, plus the `util_normalize_rows`
//! utility Fig. 7 calls). The key carries only the graph dtype — like
//! compiling the templated algorithm of Fig. 2c once per instantiated
//! type — and the whole computation runs inside a single dispatch, so
//! the dynamic layer is paid exactly once per call.

use std::any::Any;
use std::sync::OnceLock;

use gbtl::algorithms as native;
use pygb::{DType, DynScalar, Element, Matrix, Vector};
use pygb_jit::kernel::FnKernel;
use pygb_jit::{JitError, Kernel, ModuleKey};

pub use gbtl::algorithms::PageRankOptions;

/// Arguments for `algo_bfs`.
pub(crate) struct BfsArgs {
    pub graph: Matrix,
    pub source: usize,
    pub levels: Option<Vector>,
}

/// Arguments for `algo_sssp` (path is in-out).
pub(crate) struct SsspArgs {
    pub graph: Matrix,
    pub path: Option<Vector>,
}

/// Arguments for `algo_pagerank`.
pub(crate) struct PageRankArgs {
    pub graph: Matrix,
    pub opts: PageRankOptions,
    pub rank: Option<Vector>,
    pub iters: usize,
}

/// Arguments for `algo_tricount`.
pub(crate) struct TriArgs {
    pub l: Matrix,
    pub count: Option<DynScalar>,
}

/// Arguments for `util_normalize_rows` (in-out matrix).
pub(crate) struct NormalizeArgs {
    pub m: Option<Matrix>,
}

/// Arguments for `algo_cc`.
pub(crate) struct CcArgs {
    pub graph: Matrix,
    pub labels: Option<Vector>,
    pub rounds: usize,
}

fn op_err(e: impl std::fmt::Display) -> JitError {
    JitError::op(e)
}

/// A handle on `m` with any deferred producer resolved. The kernels
/// borrow the typed store through [`Matrix::store`], which does not
/// read through the nonblocking resolution map: a pending operand
/// would be its placeholder, an empty store of the right shape.
pub(crate) fn settled(m: &Matrix) -> pygb::Result<Matrix> {
    let mut m = m.clone();
    m.settle()?;
    Ok(m)
}

fn graph_ref<'a, T: Element>(m: &'a Matrix, what: &str) -> Result<&'a gbtl::Matrix<T>, JitError> {
    T::unwrap_matrix(m.store()).ok_or_else(|| {
        JitError::bad_key(format!(
            "`{what}` has dtype {} but kernel was instantiated for {}",
            m.dtype(),
            T::DTYPE
        ))
    })
}

fn k_bfs<T: Element>(args: &mut BfsArgs) -> Result<(), JitError> {
    let g = graph_ref::<T>(&args.graph, "graph")?;
    let levels = native::bfs_level(g, args.source).map_err(op_err)?;
    args.levels = Some(Vector::from_typed(levels));
    Ok(())
}

fn k_sssp<T: Element>(args: &mut SsspArgs) -> Result<(), JitError> {
    let g = graph_ref::<T>(&args.graph, "graph")?;
    let path_in = args
        .path
        .take()
        .ok_or_else(|| JitError::bad_key("sssp kernel needs a path vector"))?;
    let mut path: gbtl::Vector<T> = path_in
        .to_typed()
        .ok_or_else(|| JitError::bad_key("path dtype must match graph dtype"))?;
    native::sssp(g, &mut path).map_err(op_err)?;
    args.path = Some(Vector::from_typed(path));
    Ok(())
}

fn k_pagerank<T: Element>(args: &mut PageRankArgs) -> Result<(), JitError> {
    let g = graph_ref::<T>(&args.graph, "graph")?;
    let (rank, iters) = native::page_rank(g, args.opts).map_err(op_err)?;
    args.rank = Some(Vector::from_typed(rank));
    args.iters = iters;
    Ok(())
}

fn k_tricount<T: Element>(args: &mut TriArgs) -> Result<(), JitError> {
    let l = graph_ref::<T>(&args.l, "L")?;
    let count: T = native::triangle_count(l).map_err(op_err)?;
    args.count = Some(count.to_dyn());
    Ok(())
}

fn k_cc<T: Element>(args: &mut CcArgs) -> Result<(), JitError> {
    let g = graph_ref::<T>(&args.graph, "graph")?;
    let (labels, rounds) = native::connected_components(g).map_err(op_err)?;
    args.labels = Some(Vector::from_typed(labels));
    args.rounds = rounds;
    Ok(())
}

fn k_normalize<T: Element>(args: &mut NormalizeArgs) -> Result<(), JitError> {
    let m_in = args
        .m
        .take()
        .ok_or_else(|| JitError::bad_key("normalize kernel needs a matrix"))?;
    let mut m: gbtl::Matrix<T> = m_in
        .to_typed()
        .ok_or_else(|| JitError::bad_key("matrix dtype mismatch"))?;
    native::normalize_rows(&mut m);
    args.m = Some(Matrix::from_typed(m));
    Ok(())
}

macro_rules! algo_factory {
    ($fname:literal, $argty:ty, $body:ident) => {{
        fn factory(key: &ModuleKey) -> Result<Box<dyn Kernel>, JitError> {
            let ct = DType::from_name(key.require("c_type")?)
                .map_err(|e| JitError::bad_key(e.to_string()))?;
            let desc = format!("{}<{}> [{}]", $fname, ct, key.module_name());
            Ok(match ct {
                DType::Bool => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<bool>(a)
                })) as Box<dyn Kernel>,
                DType::Int8 => {
                    Box::new(FnKernel::new($fname, desc, |a: &mut $argty| $body::<i8>(a)))
                }
                DType::Int16 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<i16>(a)
                })),
                DType::Int32 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<i32>(a)
                })),
                DType::Int64 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<i64>(a)
                })),
                DType::UInt8 => {
                    Box::new(FnKernel::new($fname, desc, |a: &mut $argty| $body::<u8>(a)))
                }
                DType::UInt16 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<u16>(a)
                })),
                DType::UInt32 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<u32>(a)
                })),
                DType::UInt64 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<u64>(a)
                })),
                DType::Fp32 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<f32>(a)
                })),
                DType::Fp64 => Box::new(FnKernel::new($fname, desc, |a: &mut $argty| {
                    $body::<f64>(a)
                })),
            })
        }
        factory
    }};
}

/// Register the fused-algorithm factories with the global PyGB runtime
/// (idempotent).
pub fn ensure_registered() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let rt = pygb::runtime();
        rt.register("algo_bfs", algo_factory!("algo_bfs", BfsArgs, k_bfs));
        rt.register("algo_sssp", algo_factory!("algo_sssp", SsspArgs, k_sssp));
        rt.register(
            "algo_pagerank",
            algo_factory!("algo_pagerank", PageRankArgs, k_pagerank),
        );
        rt.register(
            "algo_tricount",
            algo_factory!("algo_tricount", TriArgs, k_tricount),
        );
        rt.register("algo_cc", algo_factory!("algo_cc", CcArgs, k_cc));
        rt.register(
            "util_normalize_rows",
            algo_factory!("util_normalize_rows", NormalizeArgs, k_normalize),
        );
    });
}

/// Dispatch a fused kernel through the JIT pipeline: one module key per
/// (algorithm × graph dtype).
pub(crate) fn dispatch(func: &str, dtype: DType, args: &mut dyn Any) -> pygb::Result<()> {
    ensure_registered();
    let key = ModuleKey::new(func).with("c_type", dtype.name());
    pygb::runtime()
        .dispatch(&key, args, &[])
        .map_err(pygb::PygbError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        ensure_registered();
        ensure_registered();
        // Registered factories are resolvable.
        let key = ModuleKey::new("algo_bfs").with("c_type", "fp64");
        assert!(pygb::runtime().registry().instantiate(&key).is_ok());
    }

    #[test]
    fn unknown_dtype_rejected() {
        ensure_registered();
        let key = ModuleKey::new("algo_bfs").with("c_type", "decimal");
        assert!(pygb::runtime().registry().instantiate(&key).is_err());
    }
}
