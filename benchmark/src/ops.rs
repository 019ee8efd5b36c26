//! The seven op kinds in their three variants, called through the
//! public API of the crates under test, plus the checks that compare
//! what they return with [`crate::reference`].

use gbtl::ops::accum::NoAccumulate;
use gbtl::ops::binary::Plus;
use gbtl::ops::monoid::PlusMonoid;
use gbtl::ops::semiring::ArithmeticSemiring as NativeArithmetic;
use gbtl::{NoMask, Replace};
use pygb::{reduce_rows, ArithmeticSemiring, DType, EdgeUpdate, Matrix, Vector};
use pygb_algorithms as algos;

use crate::gen::Graph;
use crate::reference;

/// The three ways one op is executed (Fig 10's series).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    /// Host-language loop, one dynamic dispatch per GraphBLAS op: the
    /// canonical DSL number.
    Loops,
    /// The same calls deferred into the op-DAG runtime.
    Nonblocking,
    /// Statically typed `gbtl` calls.
    Native,
    /// One dynamic dispatch to a whole-algorithm kernel. Timed by the
    /// traced pass only (`algorithms.*_fused_ms`); not part of
    /// [`Variant::ALL`].
    Fused,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::Loops, Variant::Nonblocking, Variant::Native];

    pub fn label(self) -> &'static str {
        match self {
            Variant::Loops => "pygb-loops",
            Variant::Nonblocking => "nonblocking",
            Variant::Native => "native",
            Variant::Fused => "pygb-fused",
        }
    }
}

/// The five algorithms `dsl_over_native` averages over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    Bfs,
    Sssp,
    PageRank,
    Tricount,
    Cc,
}

impl Algo {
    pub const ALL: [Algo; 5] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::PageRank,
        Algo::Tricount,
        Algo::Cc,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::PageRank => "pagerank",
            Algo::Tricount => "tricount",
            Algo::Cc => "cc",
        }
    }
}

/// One generated graph in both container layers.
pub struct Prepared {
    pub graph: Graph,
    pub dsl: Matrix,
    pub native: gbtl::Matrix<f64>,
}

impl Prepared {
    pub fn new(graph: Graph) -> Prepared {
        let n = graph.n;
        let dsl = Matrix::from_triples(n, n, graph.edges.iter().copied())
            .expect("generated triples are in range");
        let native = gbtl::Matrix::from_triples(n, n, graph.edges.iter().copied())
            .expect("generated triples are in range");
        Prepared { graph, dsl, native }
    }
}

/// PageRank options used everywhere in-process: a fixed iteration count
/// (threshold 0 never triggers), so the work per run does not depend on
/// how fast a particular graph converges.
pub fn pagerank_opts(iters: usize) -> algos::PageRankOptions {
    algos::PageRankOptions {
        damping_factor: 0.85,
        threshold: 0.0,
        max_iters: iters,
    }
}

pub const PAGERANK_ITERS: usize = 20;

/// What an op returned, still in the producing layer's container so the
/// timed region never pays for a conversion.
pub enum Raw {
    Dsl(Vector),
    NativeU64(gbtl::Vector<u64>),
    NativeF64(gbtl::Vector<f64>),
    Scalar(f64),
}

impl Raw {
    /// Sparse result as `Some(value)` per stored position.
    pub fn sparse(&self, n: usize) -> Vec<Option<f64>> {
        let mut out = vec![None; n];
        match self {
            Raw::Dsl(v) => {
                for (i, x) in v.extract_pairs() {
                    out[i] = Some(x.as_f64());
                }
            }
            Raw::NativeU64(v) => {
                for (i, x) in v.iter() {
                    out[i] = Some(x as f64);
                }
            }
            Raw::NativeF64(v) => {
                for (i, x) in v.iter() {
                    out[i] = Some(x);
                }
            }
            Raw::Scalar(s) => out = vec![Some(*s)],
        }
        out
    }
}

type OpResult = Result<(Raw, usize), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Run one algorithm once. `source` is used by BFS and SSSP only. The
/// second field of the result is the iteration / round count where the
/// algorithm reports one (0 otherwise).
pub fn run_algo(algo: Algo, variant: Variant, p: &Prepared, source: usize) -> OpResult {
    let n = p.graph.n;
    match (algo, variant) {
        (Algo::Bfs, Variant::Loops) => algos::bfs_dsl_loops(&p.dsl, source)
            .map(|v| (Raw::Dsl(v), 0))
            .map_err(err),
        (Algo::Bfs, Variant::Nonblocking) => algos::bfs_nonblocking(&p.dsl, source)
            .map(|v| (Raw::Dsl(v), 0))
            .map_err(err),
        (Algo::Bfs, Variant::Native) => algos::bfs_native(&p.native, source)
            .map(|v| (Raw::NativeU64(v), 0))
            .map_err(err),
        (Algo::Bfs, Variant::Fused) => algos::bfs_dsl_fused(&p.dsl, source)
            .map(|v| (Raw::Dsl(v), 0))
            .map_err(err),
        (Algo::Sssp, Variant::Loops | Variant::Nonblocking | Variant::Fused) => {
            let mut path = Vector::new(n, DType::Fp64);
            path.set(source, 0.0f64).map_err(err)?;
            match variant {
                Variant::Loops => algos::sssp_dsl_loops(&p.dsl, &mut path),
                Variant::Nonblocking => algos::sssp_nonblocking(&p.dsl, &mut path),
                _ => algos::sssp_dsl_fused(&p.dsl, &mut path),
            }
            .map_err(err)?;
            Ok((Raw::Dsl(path), 0))
        }
        (Algo::Sssp, Variant::Native) => {
            let mut path = gbtl::Vector::<f64>::new(n);
            path.set(source, 0.0).map_err(err)?;
            algos::sssp_native(&p.native, &mut path).map_err(err)?;
            Ok((Raw::NativeF64(path), 0))
        }
        (Algo::PageRank, Variant::Loops) => {
            algos::pagerank_dsl_loops(&p.dsl, pagerank_opts(PAGERANK_ITERS))
                .map(|(v, it)| (Raw::Dsl(v), it))
                .map_err(err)
        }
        (Algo::PageRank, Variant::Nonblocking) => {
            algos::pagerank_nonblocking(&p.dsl, pagerank_opts(PAGERANK_ITERS))
                .map(|(v, it)| (Raw::Dsl(v), it))
                .map_err(err)
        }
        (Algo::PageRank, Variant::Fused) => {
            algos::pagerank_dsl_fused(&p.dsl, pagerank_opts(PAGERANK_ITERS))
                .map(|(v, it)| (Raw::Dsl(v), it))
                .map_err(err)
        }
        (Algo::PageRank, Variant::Native) => {
            algos::pagerank_native(&p.native, pagerank_opts(PAGERANK_ITERS))
                .map(|(v, it)| (Raw::NativeF64(v), it))
                .map_err(err)
        }
        (Algo::Tricount, Variant::Loops) => algos::tricount_dsl_loops(&p.dsl)
            .map(|s| (Raw::Scalar(s.as_f64()), 0))
            .map_err(err),
        (Algo::Tricount, Variant::Nonblocking) => algos::tricount_nonblocking(&p.dsl)
            .map(|s| (Raw::Scalar(s.as_f64()), 0))
            .map_err(err),
        (Algo::Tricount, Variant::Fused) => algos::tricount_dsl_fused(&p.dsl)
            .map(|s| (Raw::Scalar(s.as_f64()), 0))
            .map_err(err),
        (Algo::Tricount, Variant::Native) => algos::tricount_native(&p.native)
            .map(|s| (Raw::Scalar(s), 0))
            .map_err(err),
        (Algo::Cc, Variant::Loops) => algos::cc_dsl_loops(&p.dsl)
            .map(|(v, rounds)| (Raw::Dsl(v), rounds))
            .map_err(err),
        (Algo::Cc, Variant::Nonblocking) => {
            // The algorithms crate ships no nonblocking CC; the same
            // transcription inside a nonblocking scope is that variant
            // (the fixpoint comparison is a read, so it flushes).
            let _nb = pygb_runtime::nonblocking().map_err(err)?;
            algos::cc_dsl_loops(&p.dsl)
                .map(|(v, rounds)| (Raw::Dsl(v), rounds))
                .map_err(err)
        }
        (Algo::Cc, Variant::Fused) => algos::cc_dsl_fused(&p.dsl)
            .map(|(v, rounds)| (Raw::Dsl(v), rounds))
            .map_err(err),
        (Algo::Cc, Variant::Native) => algos::cc_native(&p.native)
            .map(|(v, rounds)| (Raw::NativeU64(v), rounds))
            .map_err(err),
    }
}

/// The raw expression chain — one masked `mxm`, one `ewise_add`, one
/// row reduce: `C⟨A⟩ = A ⊕.⊗ A; D = C ⊕ A; v = ⊕ⱼ D(:, j)`.
pub fn run_expr(variant: Variant, p: &Prepared) -> OpResult {
    let n = p.graph.n;
    match variant {
        Variant::Fused => Err("the expression chain has no fused kernel".into()),
        Variant::Loops | Variant::Nonblocking => {
            let _nb = match variant {
                Variant::Nonblocking => Some(pygb_runtime::nonblocking().map_err(err)?),
                _ => None,
            };
            let a = &p.dsl;
            let mut c = Matrix::new(n, n, DType::Fp64);
            {
                let _sr = ArithmeticSemiring.enter();
                c.masked(a).assign(a.matmul(a)).map_err(err)?;
            }
            let mut d = Matrix::new(n, n, DType::Fp64);
            d.no_mask().assign(&c + a).map_err(err)?;
            let mut v = Vector::new(n, DType::Fp64);
            v.no_mask().assign(reduce_rows(&d)).map_err(err)?;
            // Reading the size of the result is what a caller does next;
            // in nonblocking mode it is the flush point.
            let _ = v.nvals();
            Ok((Raw::Dsl(v), 0))
        }
        Variant::Native => {
            let a = &p.native;
            let mut c = gbtl::Matrix::<f64>::new(n, n);
            gbtl::operations::mxm(
                &mut c,
                a,
                NoAccumulate,
                &NativeArithmetic::<f64>::new(),
                a,
                a,
                Replace(false),
            )
            .map_err(err)?;
            let mut d = gbtl::Matrix::<f64>::new(n, n);
            gbtl::operations::e_wise_add_matrix(
                &mut d,
                &NoMask,
                NoAccumulate,
                Plus::<f64>::new(),
                &c,
                a,
                Replace(false),
            )
            .map_err(err)?;
            let mut v = gbtl::Vector::<f64>::new(n);
            gbtl::operations::reduce_matrix_to_vector(
                &mut v,
                &NoMask,
                NoAccumulate,
                &PlusMonoid::<f64>::new(),
                &d,
                Replace(false),
            )
            .map_err(err)?;
            Ok((Raw::NativeF64(v), 0))
        }
    }
}

/// Matrix Market text → queryable dtype-erased `Matrix`.
pub fn run_load(mm_text: &str) -> Result<Matrix, String> {
    pygb_io::matrix_market::read_native_pygb(mm_text.as_bytes(), DType::Fp64).map_err(err)
}

/// One streaming batch through the DSL front door, settled.
pub fn run_update(m: &mut Matrix, batch: &[EdgeUpdate]) -> Result<usize, String> {
    m.update_edges(batch).map_err(err)?;
    Ok(m.nvals())
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Positions must match exactly; values within `tol` relative to the
/// wanted value (0 = exact).
pub fn same_sparse(got: &[Option<f64>], want: &[Option<f64>], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let ok = match (g, w) {
            (None, None) => true,
            (Some(g), Some(w)) => (g - w).abs() <= tol * w.abs(),
            _ => false,
        };
        if !ok {
            return Err(format!("position {i}: got {g:?}, want {w:?}"));
        }
    }
    Ok(())
}

pub const FLOAT_TOL: f64 = 1e-9;

/// The reference answer of every op kind on one workload's graphs,
/// computed once per set-up.
pub struct Expected {
    pub pagerank: Vec<Option<f64>>,
    pub triangles: f64,
    pub cc_labels: Vec<Option<f64>>,
    pub expr: Vec<Option<f64>>,
}

impl Expected {
    pub fn new(rank: &Graph, tri: &Graph, cc: &Graph, expr: &Graph) -> Expected {
        let (ranks, _) = reference::pagerank(rank, 0.85, 0.0, PAGERANK_ITERS);
        Expected {
            pagerank: ranks.into_iter().map(Some).collect(),
            triangles: reference::triangle_sum(tri),
            cc_labels: reference::components(cc)
                .into_iter()
                .map(|l| Some(l as f64 + 1.0))
                .collect(),
            expr: reference::expr_chain(expr),
        }
    }
}

/// Check one algorithm result against its reference.
pub fn check_algo(
    algo: Algo,
    p: &Prepared,
    source: usize,
    expected: &Expected,
    raw: &Raw,
    aux: usize,
) -> Result<(), String> {
    let n = p.graph.n;
    match algo {
        Algo::Bfs => {
            let want: Vec<Option<f64>> = reference::bfs_levels(&p.graph, source)
                .into_iter()
                .map(|l| l.map(|l| l as f64))
                .collect();
            same_sparse(&raw.sparse(n), &want, 0.0)
        }
        Algo::Sssp => same_sparse(
            &raw.sparse(n),
            &reference::sssp(&p.graph, source),
            FLOAT_TOL,
        ),
        Algo::PageRank => {
            if aux != PAGERANK_ITERS {
                return Err(format!("{aux} iterations, want {PAGERANK_ITERS}"));
            }
            same_sparse(&raw.sparse(n), &expected.pagerank, FLOAT_TOL)
        }
        Algo::Tricount => same_sparse(&raw.sparse(1), &[Some(expected.triangles)], 0.0),
        Algo::Cc => same_sparse(&raw.sparse(n), &expected.cc_labels, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// Every op kind in every variant agrees with the references on a
    /// small graph — the same check each workload runs at set-up.
    #[test]
    fn all_variants_match_the_references() {
        let base = Graph::erdos_renyi_power(64, &mut Rng::new(5).fork("er"))
            .symmetrize()
            .compact();
        let sym = Prepared::new(base.clone());
        let lower = Prepared::new(base.lower_unit());
        let expected = Expected::new(&sym.graph, &lower.graph, &sym.graph, &sym.graph);
        for variant in [
            Variant::Loops,
            Variant::Nonblocking,
            Variant::Native,
            Variant::Fused,
        ] {
            for algo in Algo::ALL {
                let p = if algo == Algo::Tricount { &lower } else { &sym };
                let (raw, aux) = run_algo(algo, variant, p, 3).unwrap();
                check_algo(algo, p, 3, &expected, &raw, aux)
                    .unwrap_or_else(|e| panic!("{} {}: {e}", algo.label(), variant.label()));
            }
            if variant == Variant::Fused {
                continue;
            }
            let (raw, _) = run_expr(variant, &sym).unwrap();
            same_sparse(&raw.sparse(sym.graph.n), &expected.expr, FLOAT_TOL)
                .unwrap_or_else(|e| panic!("expr {}: {e}", variant.label()));
        }
        let loaded = run_load(&sym.graph.to_matrix_market()).unwrap();
        assert_eq!(loaded.nvals(), sym.graph.edges.len());
    }

    #[test]
    fn same_sparse_rejects_pattern_and_value_drift() {
        assert!(same_sparse(&[Some(1.0), None], &[Some(1.0), None], 0.0).is_ok());
        assert!(same_sparse(&[Some(1.0), None], &[Some(1.0), Some(2.0)], 0.0).is_err());
        assert!(same_sparse(&[Some(1.0 + 1e-12)], &[Some(1.0)], FLOAT_TOL).is_ok());
        assert!(same_sparse(&[Some(1.0 + 1e-6)], &[Some(1.0)], FLOAT_TOL).is_err());
    }
}
