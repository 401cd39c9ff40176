//! Structured tracing & profiling: the span recorder and its exports.
//!
//! The recorder (spans, guards, the enable switch and the bounded sink)
//! lives in [`blob_blas::trace`], next to the pool and GEMM seams it
//! instruments, and is re-exported here unchanged. This module adds the
//! exports that need the workspace's JSON encoder:
//! [`chrome_trace_json`] renders spans as chrome://tracing "trace event"
//! JSON (load it at `chrome://tracing` or <https://ui.perfetto.dev>);
//! [`profile`]/[`render_profile`] aggregate spans into a per-name table
//! of call counts, total/self time and p50/p99 latencies. Both are
//! reachable from `gpu-blob sweep --trace`, `gpu-blob profile`, and
//! `blob-serve`'s `GET /v1/trace`.

pub use blob_blas::trace::*;

use crate::wire::Json;
use std::collections::HashMap;

/// Renders spans as a chrome://tracing "trace event format" document:
/// one complete (`ph:"X"`) event per span, timestamps in microseconds,
/// span id/parent and annotations under `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            let mut args = Json::obj().field("span_id", s.id).field("parent", s.parent);
            for &(k, v) in &s.args {
                args = args.field(k, v);
            }
            Json::obj()
                .field("name", s.name)
                .field("cat", s.cat)
                .field("ph", "X")
                .field("ts", s.start_ns as f64 / 1e3)
                .field("dur", s.dur_ns as f64 / 1e3)
                .field("pid", 1u64)
                .field("tid", s.tid)
                .field("args", args.build())
                .build()
        })
        .collect();
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
        .build()
        .encode_pretty()
        + "\n"
}

/// One aggregated row of [`profile`]: all spans sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of durations (wall time inside the span, children included).
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children's durations).
    pub self_ns: u64,
    /// Median span duration.
    pub p50_ns: u64,
    /// 99th-percentile span duration (nearest-rank on recorded spans).
    pub p99_ns: u64,
}

fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Aggregates spans into per-name totals, self times, and latency
/// quantiles, sorted by total time descending. Self time subtracts each
/// span's *direct* children, so a parent that merely waits on
/// instrumented work shows near-zero self time.
pub fn profile(spans: &[Span]) -> Vec<ProfileRow> {
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_sum.entry(s.parent).or_insert(0) += s.dur_ns;
        }
    }
    let mut by_name: HashMap<&'static str, (u64, u64, u64, Vec<u64>)> = HashMap::new();
    for s in spans {
        let self_ns = s
            .dur_ns
            .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
        let entry = by_name.entry(s.name).or_insert((0, 0, 0, Vec::new()));
        entry.0 += 1;
        entry.1 += s.dur_ns;
        entry.2 += self_ns;
        entry.3.push(s.dur_ns);
    }
    let mut rows: Vec<ProfileRow> = by_name
        .into_iter()
        .map(|(name, (count, total_ns, self_ns, mut durs))| {
            durs.sort_unstable();
            ProfileRow {
                name,
                count,
                total_ns,
                self_ns,
                p50_ns: quantile_ns(&durs, 0.50),
                p99_ns: quantile_ns(&durs, 0.99),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    rows
}

/// Renders a profile as a fixed-width text table (the `gpu-blob
/// profile` output).
pub fn render_profile(rows: &[ProfileRow]) -> String {
    let mut out = format!(
        "{:<18} {:>8} {:>12} {:>12} {:>11} {:>11}\n",
        "span", "count", "total_ms", "self_ms", "p50_us", "p99_us"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>8} {:>12.3} {:>12.3} {:>11.1} {:>11.1}\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_json_is_valid_and_complete() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "sweep.size",
                cat: "runner",
                start_ns: 1_000,
                dur_ns: 5_500,
                tid: 1,
                args: vec![("param", 64)],
            },
            Span {
                id: 2,
                parent: 1,
                name: "gemm.compute",
                cat: "gemm",
                start_ns: 2_000,
                dur_ns: 3_000,
                tid: 1,
                args: vec![],
            },
        ];
        let text = chrome_trace_json(&spans);
        let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let first = &events[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("sweep.size"));
        assert_eq!(first.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(first.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(first.get("dur").and_then(Json::as_f64), Some(5.5));
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("param"))
                .and_then(Json::as_u64),
            Some(64)
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn profile_subtracts_direct_children_for_self_time() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "parent",
                cat: "runner",
                start_ns: 0,
                dur_ns: 10_000,
                tid: 1,
                args: vec![],
            },
            Span {
                id: 2,
                parent: 1,
                name: "child",
                cat: "runner",
                start_ns: 1_000,
                dur_ns: 4_000,
                tid: 1,
                args: vec![],
            },
            Span {
                id: 3,
                parent: 1,
                name: "child",
                cat: "runner",
                start_ns: 6_000,
                dur_ns: 3_000,
                tid: 1,
                args: vec![],
            },
        ];
        let rows = profile(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "parent");
        assert_eq!(rows[0].total_ns, 10_000);
        assert_eq!(rows[0].self_ns, 3_000);
        assert_eq!(rows[1].name, "child");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 7_000);
        assert_eq!(rows[1].self_ns, 7_000);
        assert_eq!(rows[1].p50_ns, 4_000);
        let table = render_profile(&rows);
        assert!(table.contains("parent"));
        assert!(table.contains("p99_us"));
    }
}
