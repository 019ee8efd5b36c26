//! End-to-end op-lifecycle tracing (`pygb-obs`, DESIGN.md §4f): run a
//! nonblocking workload with tracing on, then show every layer of the
//! observability stack — the plan before the flush, the trace report
//! after it (same node ids, now with measured timings), the per-phase
//! span totals, per-kernel latency histograms, the unified metrics
//! snapshot, and the Chrome trace-event export.
//!
//! ```text
//! PYGB_TRACE=trace.json cargo run -p pygb-runtime --example trace
//! ```
//!
//! Load the written `trace.json` in Perfetto (https://ui.perfetto.dev)
//! or `chrome://tracing` to see kernel spans nested under their flush
//! waves. Without `PYGB_TRACE` the example still traces (it enables
//! collection programmatically) but skips the file export.

use pygb::prelude::*;

fn main() -> pygb::Result<()> {
    // `PYGB_TRACE=<path>` turns tracing on and selects the export
    // destination; `enable()` turns it on without a file.
    if !pygb_obs::init_from_env() {
        pygb_obs::enable();
    }

    // A small graph workload: one BFS-like frontier expansion plus an
    // eWise chain, deferred into the op-DAG and flushed on scope exit.
    let g = Matrix::from_triples(
        7,
        7,
        vec![
            (0usize, 1usize, 1.0f64),
            (0, 3, 1.0),
            (1, 4, 1.0),
            (3, 5, 1.0),
            (4, 6, 1.0),
            (5, 6, 1.0),
        ],
    )?;
    let u = Vector::from_dense(&[1.0f64, 0.5, 0.25, 1.0, 0.5, 0.25, 1.0]);
    let mut w = Vector::new(7, DType::Fp64);
    let mut z = Vector::new(7, DType::Fp64);

    let before = pygb_obs::registry().snapshot();
    {
        let _nb = pygb_runtime::nonblocking()?;
        let _sr = ArithmeticSemiring.enter();
        w.no_mask().assign(g.mxv(&u))?; // deferred SpMV
        let t = Vector::from_expr(&u + &u)?; // deferred eWise producer
        z.no_mask().assign(&t * &u)?; // deferred consumer: fuses with t
        drop(t); // release the temp so the planner can prove the fusion

        println!("== plan() before the flush ==");
        print!("{}", pygb_runtime::plan());
    } // scope exit flushes: fuse pass, then waves of kernel dispatches

    println!("== trace_report() after the flush (same node ids) ==");
    print!("{}", pygb_runtime::trace_report());

    println!("== per-phase span totals ==");
    for (phase, ns) in pygb_obs::phase_totals() {
        println!("   {phase:<10} {:>10} ns", ns);
    }

    let after = pygb_obs::registry().snapshot();
    println!("== per-kernel latency histograms ==");
    for (name, h) in &after.histograms {
        let Some(family) = name.strip_prefix("kernel/") else {
            continue;
        };
        let delta = h.count - before.histogram_count(name);
        if delta == 0 {
            continue;
        }
        println!(
            "   {family:<20} count={delta:<3} mean={:>8.0} ns  p50<={} ns",
            h.mean(),
            h.quantile_bound(0.5)
        );
    }

    println!("== census counters in the metrics registry ==");
    for key in ["jit/deferred_ops", "jit/fused_ops", "jit/invocations"] {
        println!("   {key:<20} {}", after.counter(key));
    }

    // With PYGB_TRACE set, write the Chrome trace-event file.
    match pygb_obs::finish() {
        Ok(Some(path)) => println!("\nchrome trace written to {}", path.display()),
        Ok(None) => println!("\nset PYGB_TRACE=<path> to export a Chrome trace"),
        Err(e) => eprintln!("\ntrace export failed: {e}"),
    }
    Ok(())
}
