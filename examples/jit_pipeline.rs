//! The Fig. 9 execution model, stage by stage: expression construction
//! (operators captured from context) → type inference → key hash →
//! module retrieval (compile on first use, cache hit after) →
//! invocation. Dispatches are traced only while tracing is on.
//!
//! ```text
//! cargo run --example jit_pipeline
//! ```

use pygb::prelude::*;
use pygb_jit::ModuleKey;

fn main() -> pygb::Result<()> {
    let rt = pygb::runtime();
    rt.set_tracing(true);

    // The exact code at the top of Fig. 9:
    //     with ArithmeticSemiring:
    //         C[M] = A @ B
    let a = Matrix::from_dense(&[vec![1i64, 2], vec![3, 4]])?;
    let b = Matrix::from_dense(&[vec![5i64, 6], vec![7, 8]])?;
    let mask = Matrix::from_triples(2, 2, [(0usize, 0usize, true), (1, 1, true)])?;
    let mut c = Matrix::new(2, 2, DType::Int64);

    println!("== first dispatch: cold, instantiates the module ==\n");
    {
        let _sr = ArithmeticSemiring.enter();
        let expr = a.matmul(&b);
        c.masked(&mask).assign(expr)?;
    }
    for trace in rt.take_traces() {
        println!("{}", trace.render());
    }

    println!("== second dispatch: identical key, memory hit ==\n");
    {
        let _sr = ArithmeticSemiring.enter();
        let expr = a.matmul(&b);
        c.masked(&mask).assign(expr)?;
    }
    for trace in rt.take_traces() {
        println!("{}", trace.render());
    }

    println!("== a different dtype is a different module ==\n");
    {
        let af = a.cast(DType::Fp64);
        let bf = b.cast(DType::Fp64);
        let mut cf = Matrix::new(2, 2, DType::Fp64);
        let _sr = ArithmeticSemiring.enter();
        let expr = af.matmul(&bf);
        cf.no_mask().assign(expr)?;
    }
    for trace in rt.take_traces() {
        println!("{}", trace.render());
    }
    rt.set_tracing(false);

    // The "gcc" stage the paper's implementation would run for this key:
    let key = ModuleKey::new("mxm")
        .with("a_type", "int64")
        .with("b_type", "int64")
        .with("c_type", "int64")
        .with("semiring", "Plus_Zero_Times");
    println!("equivalent compiler invocation (paper's pipeline):");
    println!("  {}\n", key.as_gcc_command());

    // Section V's counting argument, computed by the jit crate:
    use pygb_jit::combinatorics as comb;
    println!("why precompilation is infeasible (Section V):");
    println!(
        "  mxm container-type combinations : 11^4 = {}",
        comb::mxm_type_combinations()
    );
    println!(
        "  accumulator combinations        : 17·11³ = {}",
        comb::accumulator_combinations()
    );
    println!(
        "  total mxm key space             : ~{:.1e}",
        comb::mxm_total_combinations() as f64
    );
    let stats = rt.cache().stats().snapshot();
    println!(
        "  this run touched {} keys — {:.1e} of the space",
        stats.compiles,
        comb::coverage_fraction(stats.compiles)
    );

    println!(
        "\ncache: {} resident modules, hit rate {:.0}%",
        rt.cache().resident_modules(),
        stats.hit_rate() * 100.0
    );
    assert_eq!(c.get(0, 0).unwrap().as_i64(), 19); // (1·5 + 2·7)
    Ok(())
}
