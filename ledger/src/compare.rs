//! `ledger compare A.json B.json`: applies the benchmark's own bounds to
//! two result files and prints one row per (end-to-end metric, workload).
//!
//! A row is `regressed` when B's median is worse than A's by more than
//! the metric's bound, `unresolved` when the run-to-run spread of either
//! side is wider than the bound (unless every run of B reads better than
//! every run of A), and `ok` otherwise. Differences in `setup_s` below
//! [`SETUP_FLOOR_S`] never count (a 2 ms set-up moves by half on a busy
//! host and nobody waits for it). A result file is what `ledger run`
//! writes: `{"platform", "seconds", "runs": [{"workload", "seed",
//! "metrics": {name: {"value", "unit"}}, …}]}`.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use blob_core::wire::Json;

/// Absolute slack on `setup_s`, seconds: medians and quartile distances
/// closer than this are not a finding.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread exceeds the bound, so the medians decide nothing.
    Unresolved,
    /// One of the files has no run of this workload.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metric name.
    pub metric: &'static str,
    /// Median over A's runs.
    pub median_a: f64,
    /// Median over B's runs.
    pub median_b: f64,
    /// How much worse B is, as a share of A's median (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, as a share of median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Every value of `metric` over the runs of `workload` in a result file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| {
            run.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(Json::as_f64)
        })
        .collect()
}

/// Judges one pair of value sets. `floor` is an absolute slack in the
/// metric's own unit: a worsening or a spread smaller than it reads as 0.
pub fn judge(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
    floor: f64,
) -> (f64, f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (0.0, 0.0, Verdict::Missing);
    }
    let (ma, mb) = (median(a), median(b));
    let over_floor = |share: f64| {
        if floor > 0.0 && (share * ma).abs() <= floor {
            0.0
        } else {
            share
        }
    };
    let worse_by = over_floor(if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    });
    let wide = over_floor(spread(a).max(spread(b)));
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if higher_is_better { y > x } else { y < x })
    });
    let verdict = if wide > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, wide, verdict)
}

/// One row per (metric, workload) either file holds, workloads in the
/// spec's order.
pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for (workload, _) in WORKLOADS {
        for (metric, bound) in END_TO_END {
            let (va, vb) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            );
            if va.is_empty() && vb.is_empty() {
                continue; // neither file ran this workload
            }
            let floor = if metric.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let (worse_by, wide, verdict) =
                judge(&va, &vb, metric.better == "higher", bound, floor);
            out.push(Row {
                workload,
                metric: metric.name,
                median_a: median(&va),
                median_b: median(&vb),
                worse_by,
                spread: wide,
                bound,
                verdict,
            });
        }
    }
    out
}

/// Prints the rows; true when every row is `ok`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<13} {:>16} {:>16} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<13} {:>16.6} {:>16.6} {:>8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} missing",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
    rows.iter().all(|r| r.verdict == Verdict::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3 % slower throughput within a 7 % bound
        let (_, _, v) = judge(&steady, &[97.0, 97.5, 96.5, 97.2, 96.8], true, 0.07, 0.0);
        assert_eq!(v, Verdict::Ok);
        // 20 % slower
        let (worse, _, v) = judge(&steady, &[80.0, 80.5, 79.5, 80.2, 79.8], true, 0.07, 0.0);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.2).abs() < 0.01);
        // latency: lower is better, so higher B is worse
        let (_, _, v) = judge(
            &steady,
            &[130.0, 131.0, 129.0, 130.0, 130.0],
            false,
            0.10,
            0.0,
        );
        assert_eq!(v, Verdict::Regressed);
        // spread wider than the bound: the medians decide nothing …
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        let (_, _, v) = judge(&noisy, &steady, true, 0.07, 0.0);
        assert_eq!(v, Verdict::Unresolved);
        // … unless every run of B beats every run of A
        let (_, _, v) = judge(&noisy, &[150.0, 160.0, 155.0], true, 0.07, 0.0);
        assert_eq!(v, Verdict::Ok);
        assert_eq!(judge(&[], &steady, true, 0.07, 0.0).2, Verdict::Missing);
        // a 2 ms set-up that doubles is under the 50 ms floor
        let (worse, wide, v) = judge(
            &[0.002, 0.0021, 0.003],
            &[0.004, 0.0045, 0.004],
            false,
            0.25,
            0.05,
        );
        assert_eq!((worse, wide, v), (0.0, 0.0, Verdict::Ok));
    }

    #[test]
    fn rows_cover_every_metric_of_every_workload() {
        let run = |w: &str, v: f64| -> Json {
            let metrics = Json::Obj(
                END_TO_END
                    .iter()
                    .map(|(x, _)| {
                        (
                            x.name.to_string(),
                            Json::obj().field("value", v).field("unit", x.unit).build(),
                        )
                    })
                    .collect(),
            );
            Json::obj()
                .field("workload", w)
                .field("metrics", metrics)
                .build()
        };
        let file = |v: f64| -> Json {
            Json::obj()
                .field(
                    "runs",
                    Json::Arr(WORKLOADS.iter().map(|(w, _)| run(w, v)).collect()),
                )
                .build()
        };
        let rows = rows(&file(10.0), &file(10.0));
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(print(&rows));
    }
}
