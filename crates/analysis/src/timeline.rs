//! Timeline (Gantt) rendering for execution traces: one lane per offload
//! strategy, one coloured block per trace phase — the picture that makes
//! "Transfer-Always pays the sandwich every iteration" self-evident.
//!
//! [`trace_timeline_svg`] renders the *measured* side of the same picture:
//! spans recorded by the [`blob_core::trace`] plane, one lane per thread,
//! one colour per span category, nesting shown by inset.

use crate::plot::xml_escape;
use blob_core::trace::Span;
use blob_sim::{Phase, TraceEvent};

fn phase_colour(p: Phase) -> &'static str {
    match p {
        Phase::HostToDevice => "#ff7f0e",
        Phase::Kernel => "#1f77b4",
        Phase::DeviceToHost => "#d62728",
        Phase::UsmSetup => "#7f7f7f",
        Phase::UsmMigration => "#9467bd",
        Phase::UsmWriteback => "#8c564b",
    }
}

/// Renders labelled trace lanes as an SVG Gantt chart. Lanes share one time
/// axis scaled to the slowest lane.
pub fn timeline_svg(title: &str, lanes: &[(String, Vec<TraceEvent>)]) -> String {
    let (w, lane_h, gap) = (900.0, 42.0, 18.0);
    let (ml, mr, mt, mb) = (150.0, 30.0, 50.0, 55.0);
    let h = mt + lanes.len() as f64 * (lane_h + gap) + mb;
    let pw = w - ml - mr;
    let t_max = lanes
        .iter()
        .filter_map(|(_, ev)| ev.last().map(|e| e.end))
        .fold(1e-12f64, f64::max);
    let sx = |t: f64| ml + t / t_max * pw;

    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    );
    svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
    svg.push_str(&format!(
        r#"<text x="{}" y="26" font-size="15" text-anchor="middle" font-family="sans-serif">{}</text>"#,
        w / 2.0,
        xml_escape(title)
    ));

    for (li, (name, events)) in lanes.iter().enumerate() {
        let y = mt + li as f64 * (lane_h + gap);
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="12" text-anchor="end" font-family="sans-serif">{}</text>"#,
            ml - 8.0,
            y + lane_h / 2.0 + 4.0,
            xml_escape(name)
        ));
        for e in events {
            let x0 = sx(e.start);
            let width = (sx(e.end) - x0).max(0.4);
            svg.push_str(&format!(
                r#"<rect x="{x0:.2}" y="{y:.1}" width="{width:.2}" height="{lane_h}" fill="{}" stroke="white" stroke-width="0.4"><title>{} {:.1} us</title></rect>"#,
                phase_colour(e.phase),
                e.phase.label(),
                e.duration() * 1e6
            ));
        }
    }

    // time axis
    let axis_y = h - mb + 12.0;
    svg.push_str(&format!(
        r#"<line x1="{ml}" y1="{axis_y}" x2="{}" y2="{axis_y}" stroke="black"/>"#,
        ml + pw
    ));
    for i in 0..=5 {
        let t = t_max * i as f64 / 5.0;
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="11" text-anchor="middle" font-family="sans-serif">{:.1} us</text>"#,
            sx(t),
            axis_y + 16.0,
            t * 1e6
        ));
    }
    // legend
    let phases = [
        Phase::HostToDevice,
        Phase::Kernel,
        Phase::DeviceToHost,
        Phase::UsmSetup,
        Phase::UsmMigration,
        Phase::UsmWriteback,
    ];
    for (i, p) in phases.iter().enumerate() {
        let x = ml + i as f64 * 120.0;
        svg.push_str(&format!(
            r#"<rect x="{x}" y="{}" width="12" height="12" fill="{}"/>"#,
            h - 22.0,
            phase_colour(*p)
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="11" font-family="sans-serif">{}</text>"#,
            x + 16.0,
            h - 12.0,
            p.label()
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// Colour for a trace-span category: the fixed palette covers the
/// categories the workspace emits; anything else renders grey.
fn cat_colour(cat: &str) -> &'static str {
    match cat {
        "runner" => "#1f77b4",
        "pool" => "#ff7f0e",
        "gemm" => "#2ca02c",
        "checkpoint" => "#9467bd",
        "serve" => "#d62728",
        _ => "#7f7f7f",
    }
}

/// Renders recorded [`blob_core::trace`] spans as an SVG timeline: one lane
/// per thread id, one block per span coloured by category, with nested
/// spans inset inside their parents. Times are relative to the earliest
/// span's start.
pub fn trace_timeline_svg(title: &str, spans: &[Span]) -> String {
    let (w, lane_h, gap) = (900.0, 46.0, 16.0);
    let (ml, mr, mt, mb) = (110.0, 30.0, 50.0, 55.0);
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let h = mt + (tids.len().max(1)) as f64 * (lane_h + gap) + mb;
    let pw = w - ml - mr;
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let t_max = spans
        .iter()
        .map(|s| (s.start_ns - t0).saturating_add(s.dur_ns))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let sx = |ns: u64| ml + ns as f64 / t_max * pw;

    // nesting depth via the parent chain, for the inset
    let parents: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| (s.id, s.parent))
        .collect();
    let depth_of = |mut id: u64| {
        let mut d = 0u32;
        while let Some(&p) = parents.get(&id) {
            d += 1;
            id = p;
            if d > 32 {
                break; // cycle guard: a corrupt parent chain must not hang rendering
            }
        }
        d
    };

    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    );
    svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
    svg.push_str(&format!(
        r#"<text x="{}" y="26" font-size="15" text-anchor="middle" font-family="sans-serif">{}</text>"#,
        w / 2.0,
        xml_escape(title)
    ));
    for (li, tid) in tids.iter().enumerate() {
        let y = mt + li as f64 * (lane_h + gap);
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="12" text-anchor="end" font-family="sans-serif">tid {}</text>"#,
            ml - 8.0,
            y + lane_h / 2.0 + 4.0,
            tid
        ));
        for s in spans.iter().filter(|s| s.tid == *tid) {
            let inset = f64::from(depth_of(s.id).min(4)) * 5.0;
            let x0 = sx(s.start_ns - t0);
            let width = (sx((s.start_ns - t0).saturating_add(s.dur_ns)) - x0).max(0.4);
            svg.push_str(&format!(
                r#"<rect x="{x0:.2}" y="{:.1}" width="{width:.2}" height="{:.1}" fill="{}" stroke="white" stroke-width="0.4"><title>{} {:.1} us</title></rect>"#,
                y + inset,
                (lane_h - 2.0 * inset).max(4.0),
                cat_colour(s.cat),
                xml_escape(s.name),
                s.dur_ns as f64 / 1e3
            ));
        }
    }
    // time axis
    let axis_y = h - mb + 12.0;
    svg.push_str(&format!(
        r#"<line x1="{ml}" y1="{axis_y}" x2="{}" y2="{axis_y}" stroke="black"/>"#,
        ml + pw
    ));
    for i in 0..=5 {
        let t = t_max * f64::from(i) / 5.0;
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{}" font-size="11" text-anchor="middle" font-family="sans-serif">{:.1} us</text>"#,
            ml + t / t_max * pw,
            axis_y + 16.0,
            t / 1e3
        ));
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_sim::{gpu_trace, presets, BlasCall, Offload, Precision};

    #[test]
    fn svg_renders_all_lanes_and_blocks() {
        let sys = presets::dawn();
        let call = BlasCall::gemm(Precision::F32, 256, 256, 256);
        let lanes: Vec<(String, Vec<TraceEvent>)> = Offload::ALL
            .iter()
            .map(|&o| (o.label().to_string(), gpu_trace(&sys, &call, 4, o).unwrap()))
            .collect();
        let svg = timeline_svg("demo", &lanes);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("Once"));
        assert!(svg.contains("USM"));
        // Transfer-Always contributes 4 sandwiches = 12 blocks at least
        assert!(svg.matches("<rect").count() > 15);
        assert!(svg.contains("migrate"));
    }

    #[test]
    fn empty_lane_is_tolerated() {
        let svg = timeline_svg("empty", &[("nothing".into(), vec![])]);
        assert!(svg.contains("nothing"));
    }

    fn span(id: u64, parent: u64, tid: u64, cat: &'static str, start: u64, dur: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            cat,
            start_ns: start,
            dur_ns: dur,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn trace_svg_lanes_per_tid_and_colour_per_cat() {
        let spans = vec![
            span(1, 0, 7, "runner", 1_000, 10_000),
            span(2, 1, 7, "gemm", 2_000, 4_000),
            span(3, 0, 9, "pool", 3_000, 2_000),
        ];
        let svg = trace_timeline_svg("trace", &spans);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.contains("tid 7") && svg.contains("tid 9"));
        assert!(svg.contains(cat_colour("runner")));
        assert!(svg.contains(cat_colour("gemm")));
        assert!(svg.contains(cat_colour("pool")));
    }

    #[test]
    fn trace_svg_tolerates_no_spans() {
        let svg = trace_timeline_svg("empty trace", &[]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }
}
