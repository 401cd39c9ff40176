//! Turning an [`Outcome`] into the contract's result line, the
//! human-readable listing above it, and the files under `ledger/results/`.

use crate::platform;
use crate::spans::Span;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::{Ctx, Outcome};
use blob_core::wire::Json;

/// One run's metrics by name, in the spec's order and units.
pub type Values = Vec<(Metric, f64)>;

/// The end-to-end values of an untraced run. An end-to-end metric must be
/// a positive finite number; anything else is a broken run, not a result.
pub fn end_to_end(out: &Outcome, setup_s: f64, peak_rss_mib: f64) -> Result<Values, String> {
    END_TO_END
        .iter()
        .map(|(metric, _)| {
            let value = match metric.name {
                "setup_s" => setup_s,
                "ops_per_s" => out.ops_per_s,
                "p50_us" => out.p50_us,
                "tail_us" => out.tail_us,
                "peak_rss_mib" => peak_rss_mib,
                other => return Err(format!("no source for end-to-end metric `{other}`")),
            };
            if value.is_finite() && value > 0.0 {
                Ok((*metric, value))
            } else {
                Err(format!("end-to-end metric `{}` read {value}", metric.name))
            }
        })
        .collect()
}

/// The per-layer values of a traced run: the workload's span attribution,
/// its in-workload layer values, then the isolated probes. A metric nobody
/// measured reads 0 (a layer the workload never entered).
pub fn per_layer(out: &Outcome, probes: &[(&'static str, f64)]) -> Values {
    let attribution = out.attribution.as_ref();
    let share = |layer: &str| -> f64 {
        attribution.map_or(0.0, |a| {
            if a.wall_s > 0.0 {
                a.layer_s(layer) / a.wall_s
            } else {
                0.0
            }
        })
    };
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "time.blas_frac" => share("blas"),
                "time.sim_frac" => share("sim"),
                "time.core_frac" => share("core"),
                "time.analysis_frac" => share("analysis"),
                "time.dispatch_frac" => share("dispatch"),
                "time.serve_frac" => share("serve"),
                "time.ledger_frac" => share("ledger"),
                "trace.covered_frac" => attribution.map_or(0.0, |a| a.covered_frac()),
                "trace.ops_per_s" => out.ops_per_s,
                "trace.spans" => attribution.map_or(0.0, |a| a.spans as f64),
                name => out
                    .layer
                    .iter()
                    .chain(probes.iter())
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            (*metric, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}

fn metrics_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(metric, value)| {
                (
                    metric.name.to_string(),
                    Json::obj()
                        .field("value", *value)
                        .field("unit", metric.unit)
                        .build(),
                )
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(out: &Outcome, values: &Values) -> Json {
    Json::obj()
        .field("correct", out.failed == 0 && out.attempted > 0)
        .field("attempted", out.attempted.max(1))
        .field("failed", out.failed)
        .field("metrics", metrics_json(values))
        .build()
}

/// Prints the listing a person reads: every metric by name with its unit,
/// the details behind them, and any failed checks.
pub fn print_listing(workload: &str, ctx: &Ctx, out: &Outcome, values: &Values) {
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  threads {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        platform::threads_total()
    );
    for (metric, value) in values {
        println!("  {:<36} {:>16.6} {}", metric.name, value, metric.unit);
    }
    for (name, value, unit) in &out.details {
        println!("  . {:<34} {:>16.6} {}", name, value, unit);
    }
    if let Some(a) = &out.attribution {
        for (name, calls, total, own) in &a.names {
            println!(
                "  span {:<31} calls {:>10}  total {:>10.6} s  self {:>10.6} s",
                name, calls, total, own
            );
        }
    }
    println!(
        "  samples {}  attempted {}  failed {}",
        out.samples, out.attempted, out.failed
    );
    for why in &out.failures {
        println!("  FAILED: {why}");
    }
}

/// Writes `json` to `ledger/results/<file>`; a failure to write is
/// reported, never fatal (the result line is the product).
pub fn write_results_file(file: &str, json: &Json) {
    let dir = platform::results_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(file), json.encode_pretty()));
    if let Err(e) = written {
        eprintln!("ledger: could not write {}: {e}", dir.join(file).display());
    }
}

/// Writes the spans of a traced run to `trace_<workload>.json`.
pub fn write_trace(ctx: &Ctx, spans: &[Span]) {
    write_results_file(
        &format!("trace_{}.json", ctx.workload),
        &crate::spans::to_json(&ctx.workload, spans),
    );
}

/// Writes one run's full record — platform, result, details — to
/// `run_<workload>_trace<0|1>.json`.
pub fn write_run(workload: &str, ctx: &Ctx, out: &Outcome, result: &Json) {
    let details: Vec<Json> = out
        .details
        .iter()
        .map(|(name, value, unit)| {
            Json::obj()
                .field("name", name.as_str())
                .field("value", *value)
                .field("unit", *unit)
                .build()
        })
        .collect();
    let record = Json::obj()
        .field("workload", workload)
        .field("platform", platform::record(ctx.seed))
        .field("seconds", ctx.seconds)
        .field("trace", ctx.traced)
        .field("samples", out.samples)
        .field("result", result.clone())
        .field("details", Json::Arr(details))
        .build();
    write_results_file(
        &format!("run_{workload}_trace{}.json", u8::from(ctx.traced)),
        &record,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark_json;
    use std::collections::BTreeSet;

    fn names_in(result: &Json) -> BTreeSet<String> {
        result
            .get("metrics")
            .and_then(Json::as_obj)
            .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    }

    fn names_in_spec(section: &str) -> BTreeSet<String> {
        benchmark_json()
            .get(section)
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|x| x.get("name").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn outcome() -> Outcome {
        Outcome {
            ops_per_s: 1234.5,
            p50_us: 10.25,
            tail_us: 99.5,
            attempted: 10,
            ..Outcome::default()
        }
    }

    #[test]
    fn a_run_prints_exactly_the_names_benchmark_json_holds() {
        let out = outcome();
        let e2e = end_to_end(&out, 0.5, 12.0).expect("all positive");
        let result = result_json(&out, &e2e);
        assert_eq!(names_in(&result), names_in_spec("end_to_end"));
        let layers = per_layer(&out, &[("sim.cpu_seconds_ns", 46.0)]);
        let traced = result_json(&out, &layers);
        assert_eq!(names_in(&traced), names_in_spec("per_layer"));
        let keys: Vec<&str> = result
            .as_obj()
            .map(|f| f.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn result_json_round_trips_through_the_wire_parser() {
        let out = outcome();
        let e2e = end_to_end(&out, 0.512_345_678_9, 12.062_5).expect("all positive");
        let result = result_json(&out, &e2e);
        let back = Json::parse(&result.encode()).expect("parses");
        assert_eq!(back, result);
        let setup = back
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(setup, Some(0.512_345_678_9));
    }

    #[test]
    fn a_zero_end_to_end_metric_is_refused() {
        let mut out = outcome();
        out.tail_us = 0.0;
        assert!(end_to_end(&out, 0.5, 12.0).is_err());
        out.tail_us = f64::NAN;
        assert!(end_to_end(&out, 0.5, 12.0).is_err());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut out = outcome();
        out.check(false, || "boom".to_string());
        let result = result_json(&out, &Vec::new());
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(1));
    }
}
