//! The benchmark's contract as data: workload names, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is this module rendered ([`benchmark_json`]); a self-test keeps the
//! two equal, and every result line is built by walking these tables, so a
//! run cannot print a name the contract does not hold.

use blob_core::wire::Json;

/// The command the driver runs from the repository root (it appends
/// `--workload W --seed N --seconds S --trace 0|1`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
];

/// Length of one run's timed period, seconds.
pub const RUN_SECONDS: u64 = 12;

/// The workloads: `(name, why)`. Names are final; later issues refer to them.
pub const WORKLOADS: [(&str, &str); 8] = [
    ("gemm_band", "square GEMM sweeps 8..256: the threshold band, where per-call cost (pool fork/join, packing, arena) dominates the micro-kernel"),
    ("gemm_large", "512..1024 cubed GEMMs, bounded at 1 thread, T threads printed beside: compute-bound, the micro-kernel and blocking do the work; per-call overhead under 1 %"),
    ("gemv_stream", "GEMVs from cache-resident to DRAM-resident: the same blas layer used bandwidth-bound with no packing, so a GEMM-side gain that costs GEMV shows"),
    ("precision_ladder", "bf16, f16 and emulated-f64 GEMM at 256 cubed through HostCpu: the only workload where half.rs, emul.rs and the generic 16-bit path work"),
    ("model_tables", "the paper's tables regenerated from the models (1.14 M sweep points): sim, runner, threshold and analysis work, blas is idle; bypasses every kernel change"),
    ("dispatch_replay", "a seeded mixed trace cycled through one Dispatcher on the DAWN model: the online decision alone, no sockets and no kernels"),
    ("serve_advise", "POST /v1/advise over a real loopback socket at span-sink steady state: transport-, parse- and encode-bound; never touches the cache"),
    ("serve_threshold", "POST /v1/threshold over 1024 keys, log-uniform popularity, 256-entry cache: cache reads, inserts, evictions and a 1000x heavier miss path"),
];

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression. Every workload
/// reports every one of them. The bounds are wide because the reference
/// host is a shared microVM whose speed wanders by 10–40 % for minutes at
/// a time (ten-seed spreads of 2–8 % on seven workloads and 10–12 % on
/// `gemm_large` across its busy and quiet periods); `ledger compare` on
/// alternating runs resolves far smaller differences than these.
pub const END_TO_END: [(Metric, f64); 5] = [
    (m("setup_s", "s", "lower"), 0.25),
    (m("ops_per_s", "1/s", "higher"), 0.24),
    (m("p50_us", "us", "lower"), 0.24),
    (m("tail_us", "us", "lower"), 0.24),
    (m("peak_rss_mib", "MiB", "lower"), 0.15),
];

/// Per-layer metrics of the traced pass, in print order. The first block is
/// measured inside the traced workload (0 where the workload never enters
/// the layer — the bypass predictions); the rest are isolated probes of
/// each layer's public functions, the same in every traced run.
pub const PER_LAYER: [Metric; 78] = [
    // in-workload attribution
    m("time.blas_frac", "ratio", "lower"),
    m("time.sim_frac", "ratio", "lower"),
    m("time.core_frac", "ratio", "lower"),
    m("time.analysis_frac", "ratio", "lower"),
    m("time.dispatch_frac", "ratio", "lower"),
    m("time.serve_frac", "ratio", "lower"),
    m("time.ledger_frac", "ratio", "lower"),
    m("trace.covered_frac", "ratio", "higher"),
    m("trace.ops_per_s", "1/s", "higher"),
    m("trace.spans", "count", "lower"),
    m("serve.server.handle_us", "us", "lower"),
    m("serve.server.transport_us", "us", "lower"),
    m("serve.cache.hit_ratio", "ratio", "higher"),
    m("serve.cache.evictions", "count", "lower"),
    // host references, measured in the same run
    m("host.peak_gflops_f64", "GFLOP/s", "higher"),
    m("host.peak_gflops_f32", "GFLOP/s", "higher"),
    m("host.stream_gbs", "GB/s", "higher"),
    // blas
    m("blas.gemm.gflops_64", "GFLOP/s", "higher"),
    m("blas.gemm.gflops_128", "GFLOP/s", "higher"),
    m("blas.gemm.gflops_256", "GFLOP/s", "higher"),
    m("blas.gemm.gflops_512", "GFLOP/s", "higher"),
    m("blas.gemm.gflops_1024", "GFLOP/s", "higher"),
    m("blas.gemm.serial_gflops_256", "GFLOP/s", "higher"),
    m("blas.gemm.serial_gflops_1024", "GFLOP/s", "higher"),
    m("blas.gemm.roofline_frac_1024", "ratio", "higher"),
    m("blas.ukernel.gflops", "GFLOP/s", "higher"),
    m("blas.pack.a_gbs", "GB/s", "higher"),
    m("blas.pack.b_gbs", "GB/s", "higher"),
    m("blas.pack.share_256", "ratio", "lower"),
    m("blas.pool.forkjoin_us", "us", "lower"),
    m("blas.gemv.gbs_cache", "GB/s", "higher"),
    m("blas.gemv.gbs_dram", "GB/s", "higher"),
    m("blas.gemv.stream_frac", "ratio", "higher"),
    m("blas.half.gflops_256", "GFLOP/s", "higher"),
    m("blas.half.over_f32_256", "ratio", "lower"),
    m("blas.half.generic_bf16_gflops_256", "GFLOP/s", "higher"),
    m("blas.half.generic_f16_gflops_256", "GFLOP/s", "higher"),
    m("blas.emul.gflops_k2_256", "GFLOP/s", "higher"),
    m("blas.emul.gflops_k3_256", "GFLOP/s", "higher"),
    m("blas.emul.gflops_k4_256", "GFLOP/s", "higher"),
    m("blas.emul.f32_calls_k3", "count", "lower"),
    m("blas.emul.over_f32_k3_256", "ratio", "lower"),
    // sim
    m("sim.cpu_seconds_ns", "ns", "lower"),
    m("sim.gpu_seconds_ns_once", "ns", "lower"),
    m("sim.gpu_seconds_ns_always", "ns", "lower"),
    m("sim.gpu_seconds_ns_usm", "ns", "lower"),
    // core
    m("core.runner.point_ns", "ns", "lower"),
    m("core.runner.self_ns", "ns", "lower"),
    m("core.runner.pooled_speedup", "ratio", "higher"),
    m("core.runner.host_untimed_frac", "ratio", "lower"),
    m("core.threshold.detect_ns_4096", "ns", "lower"),
    m("core.wire.parse_ns", "ns", "lower"),
    m("core.wire.encode_ns", "ns", "lower"),
    m("core.schema.parse_call_ns", "ns", "lower"),
    m("core.advisor.advise_ns", "ns", "lower"),
    m("core.wire.sweep_json_us", "us", "lower"),
    m("core.trace.span_ns_disabled", "ns", "lower"),
    m("core.trace.span_ns_enabled", "ns", "lower"),
    m("core.trace.publish_ns_full", "ns", "lower"),
    m("core.fault.point_ns_disabled", "ns", "lower"),
    // analysis
    m("analysis.tables_us", "us", "lower"),
    // dispatch
    m("dispatch.decide_ns", "ns", "lower"),
    m("dispatch.complete_ns", "ns", "lower"),
    m("dispatch.exec_ns", "ns", "lower"),
    m("dispatch.flip_ratio", "ratio", "lower"),
    m("dispatch.gpu_share", "ratio", "higher"),
    m("dispatch.regret_vs_oracle", "ratio", "lower"),
    // serve
    m("serve.http.parse_head_ns", "ns", "lower"),
    m("serve.http.conn_roundtrip_ns", "ns", "lower"),
    m("serve.api.advise_ns", "ns", "lower"),
    m("serve.api.advise_traced_ns", "ns", "lower"),
    m("serve.api.dispatch_ns", "ns", "lower"),
    m("serve.metrics.record_ns", "ns", "lower"),
    m("serve.api.threshold_hit_ns", "ns", "lower"),
    m("serve.api.threshold_miss_us", "us", "lower"),
    m("serve.cache.get_ns", "ns", "lower"),
    m("serve.cache.insert_ns", "ns", "lower"),
    m("serve.fabric.route_ns", "ns", "lower"),
];

/// Whether `name` is one of the eight workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

fn metric_json(metric: &Metric) -> ObjFields {
    vec![
        ("name", metric.name.into()),
        ("unit", metric.unit.into()),
        ("better", metric.better.into()),
    ]
}

type ObjFields = Vec<(&'static str, Json)>;

fn obj(fields: ObjFields) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    obj(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&["ledger"])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", (*name).into()), ("why", (*why).into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(metric, bound)| {
                        let mut fields = metric_json(metric);
                        fields.push(("bound", (*bound).into()));
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|x| obj(metric_json(x))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_respect_the_contract_limits() {
        let mut names = BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && names.insert(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
        }
        let metrics = END_TO_END.iter().map(|(x, _)| x).chain(PER_LAYER.iter());
        for metric in metrics {
            assert!(
                name_ok(metric.name) && names.insert(metric.name),
                "{}",
                metric.name
            );
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                metric.name,
                metric.unit
            );
            assert!(matches!(metric.better, "higher" | "lower"));
        }
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(x, _)| x.name == "setup_s" && x.unit == "s" && x.better == "lower"));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().encode_pretty().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_module_rendered() {
        let path = crate::platform::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json exists at the root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "run `ledger spec > BENCHMARK.json`"
        );
    }
}
