//! The benchmark's contract in one place: workloads, metric names,
//! units, directions and regression bounds. `/BENCHMARK.json` is this
//! table rendered (`run.sh manifest`); a unit test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures (`--seconds` default; the driver passes it).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "analytics_large",
        why: "R-MAT graph-in to result-out, one caller: gbtl kernels do >90% of the work, so kernel, parallelism and format changes show here and dispatch changes must not",
    },
    Workload {
        name: "analytics_small",
        why: "same ops on Erdos-Renyi |V|=64: dispatch, key-hash, cache lookup and op-DAG bookkeeping dominate, so it holds the Fig 10 DSL penalty and kernel changes must not move it",
    },
    Workload {
        name: "serve_read",
        why: "closed-loop wire clients on static graphs with Zipf-repeated sources: wire, parse, admission, pool and reply encode carry a material share; where queueing, batching or a result cache shows",
    },
    Workload {
        name: "serve_rw",
        why: "one writer streaming UPDATE batches beside readers of the same live graph: catalog publish, stream and delta layers, so a write-side win that costs readers (or the reverse) shows",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these from its untraced run.
/// What each means on each workload is tabulated in README.md.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("load_p50_ms", "ms", Better::Lower, 0.25),
    e2e("bfs_p50_ms", "ms", Better::Lower, 0.25),
    e2e("sssp_p50_ms", "ms", Better::Lower, 0.25),
    e2e("tricount_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cc_p50_ms", "ms", Better::Lower, 0.25),
    e2e("pagerank_p50_ms", "ms", Better::Lower, 0.25),
    e2e("expr_p50_ms", "ms", Better::Lower, 0.25),
    e2e("update_p50_ms", "ms", Better::Lower, 0.25),
    e2e("req_p95_ms", "ms", Better::Lower, 0.25),
    e2e("dsl_over_native", "ratio", Better::Lower, 0.20),
    e2e("nb_over_native", "ratio", Better::Lower, 0.20),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every workload reports every one of these from its traced run.
pub const PER_LAYER: [PerLayer; 86] = [
    // Demoted from the end-to-end list: it is 0 on every healthy run,
    // and a metric whose median is 0 has no relative bound. The result
    // line's `failed` / `attempted` carry the same fact on every run.
    low("fail_share", "ratio"),
    // gbtl: typed kernels called directly on the workload's matrices.
    low("gbtl.build_ms", "ms"),
    low("gbtl.transpose_ms", "ms"),
    low("gbtl.mxv_dense_ms", "ms"),
    low("gbtl.vxm_sparse_ms", "ms"),
    low("gbtl.mxm_masked_ms", "ms"),
    low("gbtl.mxm_plain_ms", "ms"),
    low("gbtl.ewise_add_ms", "ms"),
    low("gbtl.reduce_ms", "ms"),
    high("gbtl.mxv_edges_per_s", "1/s"),
    low("gbtl.delta_apply_us", "us"),
    low("gbtl.delta_merge_ms", "ms"),
    low("gbtl.spmv_push_calls", "count"),
    low("gbtl.spmv_pull_calls", "count"),
    low("gbtl.mxm_dot_calls", "count"),
    low("gbtl.mxm_gustavson_calls", "count"),
    // core: the dtype-erased DSL.
    low("core.from_triples_ms", "ms"),
    low("core.expr_build_ns", "ns"),
    low("core.dispatch_overhead_ns", "ns"),
    low("core.dispatch_count", "count"),
    low("core.dsl_overhead_share", "ratio"),
    low("core.unattributed_share", "ratio"),
    low("core.stream_update_us", "us"),
    low("core.stream_settle_ms", "ms"),
    // jit: key hash + kernel cache.
    low("jit.key_hash_ns", "ns"),
    low("jit.cache_hit_ns", "ns"),
    low("jit.cold_instantiate_us", "us"),
    high("jit.cache_hits", "count"),
    low("jit.cache_misses", "count"),
    high("jit.hit_ratio", "ratio"),
    // runtime: the deferred op-DAG.
    low("runtime.enqueue_ns", "ns"),
    low("runtime.flush_overhead_us", "us"),
    low("runtime.plan_us", "us"),
    low("runtime.deferred_ops", "count"),
    high("runtime.fused_ops", "count"),
    high("runtime.dce_elided", "count"),
    high("runtime.cse_deduped", "count"),
    high("runtime.empty_folded", "count"),
    high("runtime.launches_saved", "count"),
    // algorithms: one traced run of each variant.
    low("algorithms.bfs_native_ms", "ms"),
    low("algorithms.bfs_fused_ms", "ms"),
    low("algorithms.bfs_nb_ms", "ms"),
    low("algorithms.sssp_native_ms", "ms"),
    low("algorithms.sssp_fused_ms", "ms"),
    low("algorithms.sssp_nb_ms", "ms"),
    low("algorithms.pagerank_native_ms", "ms"),
    low("algorithms.pagerank_fused_ms", "ms"),
    low("algorithms.pagerank_nb_ms", "ms"),
    low("algorithms.tricount_native_ms", "ms"),
    low("algorithms.tricount_fused_ms", "ms"),
    low("algorithms.tricount_nb_ms", "ms"),
    low("algorithms.cc_native_ms", "ms"),
    low("algorithms.cc_fused_ms", "ms"),
    low("algorithms.cc_nb_ms", "ms"),
    low("algorithms.bfs_iterations", "count"),
    low("algorithms.pagerank_iterations", "count"),
    // io: Fig 11's container lifecycle.
    low("io.mm_parse_native_ms", "ms"),
    low("io.mm_parse_pygb_ms", "ms"),
    low("io.native_build_ms", "ms"),
    low("io.interpreted_build_ms", "ms"),
    low("io.interp_over_native", "ratio"),
    // obs: what observing costs.
    low("obs.enabled_overhead_share", "ratio"),
    low("obs.recorder_record_ns", "ns"),
    low("obs.bench_trace_overhead_share", "ratio"),
    // serve: wire, parse, execute, queue.
    low("serve.wire_encode_ns_per_kb", "ns/kB"),
    low("serve.wire_decode_ns_per_kb", "ns/kB"),
    low("serve.parse_ns", "ns"),
    low("serve.execute_bfs_ms", "ms"),
    low("serve.execute_sssp_ms", "ms"),
    low("serve.execute_pagerank_ms", "ms"),
    low("serve.execute_tricount_ms", "ms"),
    low("serve.execute_cc_ms", "ms"),
    low("serve.execute_expr_ms", "ms"),
    low("serve.execute_update_ms", "ms"),
    low("serve.ping_rtt_us", "us"),
    low("serve.queue_wait_p50_us", "us"),
    low("serve.queue_wait_p95_us", "us"),
    low("serve.exec_p50_us", "us"),
    low("serve.transport_share", "ratio"),
    high("serve.worker_busy_share", "ratio"),
    low("serve.reply_bytes_p50", "bytes"),
    low("serve.catalog_register_ms", "ms"),
    low("serve.catalog_update_ms", "ms"),
    low("serve.update_races", "count"),
    low("serve.shed", "count"),
    high("serve.repeat_share", "ratio"),
];

pub fn e2e_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("`{name}` is not an end-to-end metric"))
}

fn per_layer(name: &str) -> &'static PerLayer {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
}

pub fn per_layer_unit(name: &str) -> &'static str {
    per_layer(name).unit
}

/// The manifest's own copy of a per-layer name (for names built at run
/// time, e.g. one per algorithm).
pub fn per_layer_name(name: &str) -> &'static str {
    per_layer(name).name
}

/// `/BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let committed = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn contract_limits_hold() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().pretty().len() < 64 * 1024);
    }
}
