//! Decision-timeline rendering for the auto-dispatch plane: the replay's
//! per-call routing decisions as a per-site summary table and as an SVG
//! strip chart (one lane per call site, one block per call, coloured by
//! route, flips ringed).
//!
//! Takes plain data ([`DispatchDecision`]) rather than `blob_dispatch`
//! types, mirroring how [`timeline`](crate::timeline) consumes
//! `blob_core::trace` spans: the analysis layer renders what it is given
//! and stays decoupled from the dispatcher's internals.

use crate::plot::xml_escape;
use crate::table::Table;

/// One routing decision, as the dispatch replay reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchDecision {
    /// Position in the replayed trace.
    pub index: usize,
    /// Call-site id the call was issued from.
    pub site: u32,
    /// True when the call was routed to the modelled GPU.
    pub gpu: bool,
    /// True when the decision flipped its key's sticky route.
    pub flipped: bool,
    /// True when a GPU decision fell back to the CPU.
    pub fellback: bool,
    /// Realized seconds charged to the call.
    pub realized_seconds: f64,
}

const CPU_COLOUR: &str = "#1f77b4";
const GPU_COLOUR: &str = "#ff7f0e";
const FLIP_COLOUR: &str = "#d62728";

/// Per-site summary of a replay's decisions: call count, route split,
/// flips/fallbacks and realized time, one row per site in site order.
pub fn dispatch_timeline_table(decisions: &[DispatchDecision]) -> Table {
    let mut sites: Vec<u32> = decisions.iter().map(|d| d.site).collect();
    sites.sort_unstable();
    sites.dedup();
    let mut table = Table::new(
        "Dispatch decisions by call site",
        &[
            "Site",
            "Calls",
            "CPU",
            "GPU",
            "Flips",
            "Fallbacks",
            "Realized (ms)",
        ],
    );
    for site in sites {
        let of_site: Vec<&DispatchDecision> = decisions.iter().filter(|d| d.site == site).collect();
        let gpu = of_site.iter().filter(|d| d.gpu).count();
        let flips = of_site.iter().filter(|d| d.flipped).count();
        let fallbacks = of_site.iter().filter(|d| d.fellback).count();
        let realized: f64 = of_site.iter().map(|d| d.realized_seconds).sum();
        table.push_row(vec![
            site.to_string(),
            of_site.len().to_string(),
            (of_site.len() - gpu).to_string(),
            gpu.to_string(),
            flips.to_string(),
            fallbacks.to_string(),
            format!("{:.3}", realized * 1e3),
        ]);
    }
    table
}

/// Renders a replay's decisions as an SVG strip chart: one lane per call
/// site, the x axis in trace order, each decision a block coloured by
/// route (blue CPU, orange GPU) with flips ringed in red.
pub fn dispatch_timeline_svg(title: &str, decisions: &[DispatchDecision]) -> String {
    let (w, lane_h, gap) = (900.0, 26.0, 10.0);
    let (ml, mr, mt, mb) = (110.0, 30.0, 50.0, 55.0);
    let mut sites: Vec<u32> = decisions.iter().map(|d| d.site).collect();
    sites.sort_unstable();
    sites.dedup();
    let h = mt + (sites.len().max(1)) as f64 * (lane_h + gap) + mb;
    let pw = w - ml - mr;
    let n = decisions.iter().map(|d| d.index + 1).max().unwrap_or(1) as f64;
    let slot = (pw / n).min(14.0);

    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    );
    svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
    svg.push_str(&format!(
        r#"<text x="{}" y="26" font-size="15" text-anchor="middle" font-family="sans-serif">{}</text>"#,
        w / 2.0,
        xml_escape(title)
    ));
    for (li, site) in sites.iter().enumerate() {
        let y = mt + li as f64 * (lane_h + gap);
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="12" text-anchor="end" font-family="sans-serif">site {}</text>"#,
            ml - 8.0,
            y + lane_h / 2.0 + 4.0,
            site
        ));
        for d in decisions.iter().filter(|d| d.site == *site) {
            let x0 = ml + d.index as f64 / n * pw;
            let colour = if d.gpu { GPU_COLOUR } else { CPU_COLOUR };
            let stroke = if d.flipped { FLIP_COLOUR } else { "white" };
            svg.push_str(&format!(
                r#"<rect x="{x0:.2}" y="{y:.1}" width="{:.2}" height="{lane_h}" fill="{colour}" stroke="{stroke}" stroke-width="{}"><title>#{} {} {:.1} us{}</title></rect>"#,
                (slot - 1.0).max(0.6),
                if d.flipped { 1.6 } else { 0.4 },
                d.index,
                if d.gpu { "gpu" } else { "cpu" },
                d.realized_seconds * 1e6,
                if d.fellback { " (fallback)" } else { "" },
            ));
        }
    }
    // index axis
    let axis_y = h - mb + 12.0;
    svg.push_str(&format!(
        r#"<line x1="{ml}" y1="{axis_y}" x2="{}" y2="{axis_y}" stroke="black"/>"#,
        ml + pw
    ));
    for i in 0..=5 {
        let t = n * f64::from(i) / 5.0;
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{}" font-size="11" text-anchor="middle" font-family="sans-serif">{}</text>"#,
            ml + t / n * pw,
            axis_y + 16.0,
            t as usize
        ));
    }
    // legend
    for (i, (colour, label)) in [
        (CPU_COLOUR, "CPU route"),
        (GPU_COLOUR, "GPU route"),
        (FLIP_COLOUR, "flip (ring)"),
    ]
    .iter()
    .enumerate()
    {
        let x = ml + i as f64 * 130.0;
        svg.push_str(&format!(
            r#"<rect x="{x}" y="{}" width="12" height="12" fill="{colour}"/>"#,
            h - 22.0
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="11" font-family="sans-serif">{label}</text>"#,
            x + 16.0,
            h - 12.0
        ));
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(index: usize, site: u32, gpu: bool, flipped: bool) -> DispatchDecision {
        DispatchDecision {
            index,
            site,
            gpu,
            flipped,
            fellback: false,
            realized_seconds: 1e-5 * (index + 1) as f64,
        }
    }

    #[test]
    fn table_summarises_per_site() {
        let decisions = [
            d(0, 1, false, false),
            d(1, 1, true, true),
            d(2, 2, true, false),
        ];
        let rendered = dispatch_timeline_table(&decisions).render();
        assert!(rendered.contains("Site"));
        // site 1: 2 calls, 1 cpu, 1 gpu, 1 flip
        let site1 = rendered.lines().find(|l| l.contains("| 1 ")).unwrap();
        assert!(site1.contains(" 2 "), "site 1 row: {site1}");
        assert!(site1.contains(" 1 "));
    }

    #[test]
    fn svg_has_one_lane_per_site_and_marks_routes() {
        let decisions = [
            d(0, 0, false, false),
            d(1, 3, true, false),
            d(2, 7, true, true),
        ];
        let svg = dispatch_timeline_svg("decisions", &decisions);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        for site in ["site 0", "site 3", "site 7"] {
            assert!(svg.contains(site), "missing lane {site}");
        }
        assert!(svg.contains(CPU_COLOUR) && svg.contains(GPU_COLOUR));
        assert!(svg.contains(FLIP_COLOUR), "flip ring missing");
    }

    #[test]
    fn svg_tolerates_no_decisions() {
        let svg = dispatch_timeline_svg("empty", &[]);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }
}
