//! Integration tests for the op-lifecycle observability layer
//! (`pygb-obs`, DESIGN.md §4f): span nesting across the whole
//! lifecycle, Chrome trace-event export shape and determinism,
//! histogram/counter agreement, plan vs trace-report node identity,
//! and the zero-footprint disabled mode.
//!
//! The tracing flag, event buffer, and metrics registry are
//! process-global, so every test here serializes on one lock and
//! restores the disabled state before releasing it.

use std::sync::{Mutex, MutexGuard};

use pygb::prelude::*;
use pygb_obs::Cat;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Take the observability lock and reset collection state.
fn obs_guard() -> MutexGuard<'static, ()> {
    let g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pygb_obs::disable();
    pygb_obs::clear_events();
    g
}

fn dense(vals: &[f64]) -> Vector {
    let mut v = Vector::new(vals.len(), DType::Fp64);
    for (i, &x) in vals.iter().enumerate() {
        v.set(i, x).unwrap();
    }
    v
}

fn small_graph() -> Matrix {
    Matrix::from_triples(
        5,
        5,
        vec![
            (0usize, 1usize, 1.0f64),
            (1, 2, 2.0),
            (2, 3, 3.0),
            (3, 4, 4.0),
            (4, 0, 5.0),
        ],
    )
    .unwrap()
}

/// One deferred SpMV flushed on scope exit, with tracing on.
fn traced_mxv_flush() {
    let g = small_graph();
    let u = dense(&[1.0, 1.0, 1.0, 1.0, 1.0]);
    let mut w = Vector::new(5, DType::Fp64);
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = ArithmeticSemiring.enter();
        w.no_mask().assign(g.mxv(&u)).unwrap();
    }
    assert!(w.nvals() > 0);
}

/// The whole lifecycle nests: flush ⊇ wave ⊇ exec ⊇ kernel, by time
/// containment on one thread (single-node waves execute inline).
#[test]
fn lifecycle_spans_nest_flush_wave_exec_kernel() {
    let _g = obs_guard();
    traced_mxv_flush(); // warm the JIT so the traced run is steady-state
    pygb_obs::enable();
    pygb_obs::clear_events();
    traced_mxv_flush();
    pygb_obs::disable();

    let evs = pygb_obs::events();
    let find = |cat: Cat| {
        evs.iter()
            .find(|e| e.cat == cat)
            .unwrap_or_else(|| panic!("no {} span", cat.name()))
    };
    let flush = find(Cat::Flush);
    let wave = find(Cat::Wave);
    let exec = find(Cat::Exec);
    let kernel = find(Cat::Kernel);
    let contains = |outer: &pygb_obs::SpanEvent, inner: &pygb_obs::SpanEvent| {
        outer.ts_ns <= inner.ts_ns && inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns
    };
    assert!(contains(flush, wave), "wave inside flush");
    assert!(contains(wave, exec), "exec inside wave");
    assert!(contains(exec, kernel), "kernel inside exec");
    assert_eq!(wave.name, "wave/0");
    assert!(exec.name.starts_with("exec/n0 "), "{}", exec.name);
    assert!(kernel.dur_ns > 0, "kernel span must measure nonzero time");

    // Enqueue/analyze/fuse phases were traced too, and all precede the
    // kernel execution.
    for cat in [Cat::Analyze, Cat::Enqueue, Cat::Fuse] {
        assert!(find(cat).ts_ns <= kernel.ts_ns);
    }
}

/// The Chrome export is schema-valid JSON: X/M events only, complete
/// spans with positive fractional-microsecond durations.
#[test]
fn chrome_trace_export_is_schema_valid() {
    let _g = obs_guard();
    traced_mxv_flush();
    pygb_obs::enable();
    pygb_obs::clear_events();
    traced_mxv_flush();
    pygb_obs::disable();

    let json = pygb_obs::chrome_trace_json();
    let doc = pygb_jit::json::parse(&json).expect("export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut saw_kernel = false;
    for ev in events {
        match ev.get("ph").and_then(|v| v.as_str()) {
            Some("M") => {
                assert_eq!(ev.get("name").and_then(|v| v.as_str()), Some("thread_name"));
            }
            Some("X") => {
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
                let cat = ev.get("cat").and_then(|v| v.as_str()).expect("cat");
                let dur = match ev.get("dur") {
                    Some(pygb_jit::json::Value::Number(n)) => *n,
                    other => panic!("dur must be a number, got {other:?}"),
                };
                assert!(dur > 0.0, "complete spans keep positive dur");
                if cat == "kernel" {
                    saw_kernel = true;
                }
            }
            other => panic!("unexpected ph: {other:?}"),
        }
    }
    assert!(saw_kernel, "every executed kernel exports a complete span");
}

/// Under a fixed-order single-thread flush, two identical runs emit
/// the same event sequence — the export is deterministic up to
/// timestamps.
#[test]
fn trace_is_deterministic_for_identical_single_thread_runs() {
    let _g = obs_guard();
    traced_mxv_flush(); // warm: JIT compiles must not differ run-to-run
    let mut sequences = Vec::new();
    for _ in 0..2 {
        pygb_obs::enable();
        pygb_obs::clear_events();
        traced_mxv_flush();
        pygb_obs::disable();
        let seq: Vec<(String, String)> = pygb_obs::events()
            .iter()
            .map(|e| (e.cat.name().to_string(), e.name.clone()))
            .collect();
        sequences.push(seq);
    }
    assert!(!sequences[0].is_empty());
    assert_eq!(
        sequences[0], sequences[1],
        "identical runs must trace identical (cat, name) sequences"
    );
}

/// Acceptance criterion: the per-kernel histogram counts in the
/// metrics snapshot equal the JIT kernel-selection counters for the
/// same run — the two observation points (gbtl hook vs core dispatch)
/// agree on every SpMV.
#[test]
fn kernel_histograms_match_selection_counters() {
    let _g = obs_guard();
    traced_mxv_flush(); // ensure the global runtime exists
    pygb_obs::enable();
    let before = pygb_obs::registry().snapshot();
    const RUNS: u64 = 3;
    for _ in 0..RUNS {
        traced_mxv_flush();
    }
    let after = pygb_obs::registry().snapshot();
    pygb_obs::disable();

    let spmv_families = ["pull", "masked_pull", "push", "masked_push"];
    let hist_total: u64 = spmv_families
        .iter()
        .map(|f| {
            let name = format!("kernel/mxv/{f}");
            after.histogram_count(&name) - before.histogram_count(&name)
        })
        .sum();
    let sel_total: u64 = spmv_families
        .iter()
        .map(|f| {
            let name = format!("jit/sel_{f}");
            after.counter(&name) - before.counter(&name)
        })
        .sum();
    assert_eq!(hist_total, RUNS, "one SpMV kernel execution per run");
    assert_eq!(
        hist_total, sel_total,
        "histogram counts must equal kernel-selection counters"
    );
    // And per family, not just in aggregate.
    for f in spmv_families {
        let h = format!("kernel/mxv/{f}");
        let c = format!("jit/sel_{f}");
        assert_eq!(
            after.histogram_count(&h) - before.histogram_count(&h),
            after.counter(&c) - before.counter(&c),
            "family {f}"
        );
    }
}

/// Histogram bucket boundaries are fixed powers of two — snapshots
/// taken at different times bucket the same value identically.
#[test]
fn histogram_bucket_boundaries_are_stable() {
    let _g = obs_guard();
    pygb_obs::enable();
    let h = pygb_obs::registry().histogram("test/stable_buckets");
    h.record(1000);
    h.record(100_000);
    let snap1 = h.snapshot();
    h.record(1000);
    h.record(100_000);
    let snap2 = h.snapshot();
    pygb_obs::disable();
    let bounds1: Vec<u64> = snap1.buckets.iter().map(|&(b, _)| b).collect();
    let bounds2: Vec<u64> = snap2.buckets.iter().map(|&(b, _)| b).collect();
    assert_eq!(bounds1, bounds2, "bucket boundaries must not move");
    for &b in &bounds1 {
        assert!(b.is_power_of_two(), "bound {b} must be a power of two");
    }
    assert_eq!(snap2.count, 2 * snap1.count);
}

/// plan() and trace_report() agree on node identity: the ids the plan
/// shows before the flush are the ids the report shows after it, with
/// the same kernel names for unfused nodes.
#[test]
fn plan_and_trace_report_share_node_ids() {
    let _g = obs_guard();
    traced_mxv_flush(); // warm
    pygb_obs::enable();
    let g = small_graph();
    let u = dense(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let v = dense(&[0.5, 0.5, 0.5, 0.5, 0.5]);
    let mut w = Vector::new(5, DType::Fp64);
    let mut z = Vector::new(5, DType::Fp64);
    let plan;
    {
        let _nb = pygb_runtime::nonblocking().unwrap();
        let _sr = ArithmeticSemiring.enter();
        w.no_mask().assign(g.mxv(&u)).unwrap(); // n0: independent SpMV
        z.no_mask().assign(&u + &v).unwrap(); // n1: independent eWise
        plan = pygb_runtime::plan();
    }
    let report = pygb_runtime::trace_report();
    pygb_obs::disable();

    assert_eq!(plan.nodes.len(), 2);
    assert_eq!(report.nodes.len(), 2, "{report}");
    for (p, r) in plan.nodes.iter().zip(report.nodes.iter()) {
        assert_eq!(p.id, r.id, "plan and report disagree on node identity");
        assert_eq!(p.id.to_string(), r.id.to_string());
        assert_eq!(p.kernel, r.kernel, "unfused node keeps its kernel");
        assert_eq!(p.op, r.op, "same op rendering in both views");
        assert!(r.ns > 0, "executed node carries a measured time");
    }
    // The rendered forms use the same `n<id>` token.
    let plan_str = plan.to_string();
    let report_str = report.to_string();
    for p in &plan.nodes {
        let tok = format!("{} ", p.id);
        assert!(plan_str.contains(&tok), "{plan_str}");
        assert!(report_str.contains(&tok), "{report_str}");
    }
    // Exec span labels carry the same ids.
    let evs = pygb_obs::events();
    for r in &report.nodes {
        let prefix = format!("exec/{} ", r.id);
        assert!(
            evs.iter()
                .any(|e| e.cat == Cat::Exec && e.name.starts_with(&prefix)),
            "no exec span for {}",
            r.id
        );
    }
}

/// Ids restart at n0 once a DAG drains — per-scope numbering is
/// deterministic, matching what a fresh plan shows.
#[test]
fn node_ids_reset_between_scopes() {
    let _g = obs_guard();
    pygb_obs::enable();
    for _ in 0..2 {
        let u = dense(&[1.0, 2.0]);
        let mut w = Vector::new(2, DType::Fp64);
        let _nb = pygb_runtime::nonblocking().unwrap();
        w.no_mask().assign(&u + &u).unwrap();
        let plan = pygb_runtime::plan();
        assert_eq!(plan.nodes[0].id, pygb_runtime::NodeId(0));
    }
    pygb_obs::disable();
}

/// Disabled mode is inert: no events, an empty trace report, and
/// histograms do not move.
#[test]
fn disabled_mode_records_nothing() {
    let _g = obs_guard();
    let before = pygb_obs::registry().snapshot();
    traced_mxv_flush();
    let after = pygb_obs::registry().snapshot();
    assert!(pygb_obs::events().is_empty(), "no spans while disabled");
    assert!(
        pygb_runtime::trace_report().nodes.is_empty(),
        "no report while disabled"
    );
    for (name, h) in &after.histograms {
        if let Some(prev) = before.histograms.get(name) {
            assert_eq!(h.count, prev.count, "histogram {name} moved while disabled");
        } else {
            assert_eq!(h.count, 0, "histogram {name} appeared while disabled");
        }
    }
}

/// `JitStats` reads the census cells the registry exports: each
/// snapshot field equals its registry series (`jit/*`, and `opt/*` for
/// the optimizer's counts).
#[test]
fn jit_stats_facade_matches_registry() {
    let _g = obs_guard();
    traced_mxv_flush(); // ensure the global runtime is up and has traffic
    let stats = pygb::runtime().cache().stats().snapshot();
    let reg = pygb_obs::registry().snapshot();
    let pairs: [(&str, u64); 8] = [
        ("jit/invocations", stats.invocations),
        ("jit/compiles", stats.compiles),
        ("jit/memory_hits", stats.memory_hits),
        ("jit/deferred_ops", stats.deferred_ops),
        ("jit/fused_ops", stats.fused_ops),
        ("opt/dce_elided", stats.elided_ops),
        ("jit/refused_fusions", stats.refused_fusions),
        ("jit/sel_pull", stats.sel_pull),
    ];
    for (key, want) in pairs {
        assert_eq!(reg.counter(key), want, "{key}");
    }
    // The flat JSON form of the snapshot parses and carries them too.
    let doc = pygb_jit::json::parse(&reg.to_json()).expect("snapshot JSON parses");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("jit/invocations"))
            .and_then(|v| v.as_u64()),
        Some(stats.invocations)
    );
}
