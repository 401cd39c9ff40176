//! Performance-graph rendering — the Rust equivalent of the artifact's
//! `createGflopsGraphs.py`.
//!
//! Two output forms:
//! - [`ascii_chart`]: a quick terminal rendering for interactive use;
//! - [`svg_chart`]: a standalone SVG (polyline per series, axes, legend)
//!   written next to the CSV results, the counterpart of the paper's
//!   GFLOP/s-vs-size figures.

/// One named data series: `(x, y)` points in ascending `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` samples in ascending `x`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from `(usize, f64)` pairs (the extractor's output).
    pub fn from_usize(name: impl Into<String>, pts: &[(usize, f64)]) -> Self {
        Self {
            name: name.into(),
            points: pts.iter().map(|&(x, y)| (x as f64, y)).collect(),
        }
    }
}

fn bounds(series: &[Series]) -> Option<(f64, f64, f64, f64)> {
    let mut it = series.iter().flat_map(|s| s.points.iter().copied());
    let first = it.next()?;
    let (mut x0, mut x1, mut y0, mut y1) = (first.0, first.0, first.1, first.1);
    for (x, y) in it {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    // avoid a degenerate range
    if x0 == x1 {
        x1 = x0 + 1.0;
    }
    if y0 == y1 {
        y1 = y0 + 1.0;
    }
    Some((x0, x1, y0.min(0.0), y1))
}

/// Renders series as a terminal chart of `width × height` characters.
/// Each series draws with its own glyph; a legend follows the plot.
pub fn ascii_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: [char; 8] = ['*', '+', 'o', 'x', '#', '@', '%', '&'];
    let width = width.clamp(16, 400);
    let height = height.clamp(4, 100);
    let Some((x0, x1, y0, y1)) = bounds(series) else {
        return format!("{title}\n(no data)\n");
    };
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = g;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{y1:>10.1} ┤"));
    out.push('\n');
    for row in &grid {
        out.push_str("           │");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{y0:>10.1} └"));
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "            {x0:<10.0}{:>w$.0}\n",
        x1,
        w = width - 10
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.name));
    }
    out
}

/// Colour palette for SVG series.
const COLOURS: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#17becf",
];

/// Renders series as a standalone SVG line chart with axes and a legend.
pub fn svg_chart(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let (w, h) = (860.0, 520.0);
    let (ml, mr, mt, mb) = (70.0, 180.0, 40.0, 50.0);
    let (pw, ph) = (w - ml - mr, h - mt - mb);
    let mut svg = String::new();
    svg.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    ));
    svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
    svg.push_str(&format!(
        r#"<text x="{}" y="24" font-size="16" text-anchor="middle" font-family="sans-serif">{}</text>"#,
        ml + pw / 2.0,
        xml_escape(title)
    ));
    let Some((x0, x1, y0, y1)) = bounds(series) else {
        svg.push_str("</svg>");
        return svg;
    };
    let sx = |x: f64| ml + (x - x0) / (x1 - x0) * pw;
    let sy = |y: f64| mt + ph - (y - y0) / (y1 - y0) * ph;
    // axes
    svg.push_str(&format!(
        r#"<line x1="{ml}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        mt + ph,
        ml + pw,
        mt + ph
    ));
    svg.push_str(&format!(
        r#"<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{}" stroke="black"/>"#,
        mt + ph
    ));
    // ticks: 5 on each axis
    for i in 0..=5 {
        let fx = x0 + (x1 - x0) * i as f64 / 5.0;
        let fy = y0 + (y1 - y0) * i as f64 / 5.0;
        svg.push_str(&format!(
            r##"<line x1="{0}" y1="{1}" x2="{0}" y2="{2}" stroke="#ccc"/>"##,
            sx(fx),
            mt,
            mt + ph
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="11" text-anchor="middle" font-family="sans-serif">{:.0}</text>"#,
            sx(fx),
            mt + ph + 16.0,
            fx
        ));
        svg.push_str(&format!(
            r##"<line x1="{1}" y1="{0}" x2="{2}" y2="{0}" stroke="#eee"/>"##,
            sy(fy),
            ml,
            ml + pw
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="11" text-anchor="end" font-family="sans-serif">{:.1}</text>"#,
            ml - 6.0,
            sy(fy) + 4.0,
            fy
        ));
    }
    svg.push_str(&format!(
        r#"<text x="{}" y="{}" font-size="13" text-anchor="middle" font-family="sans-serif">{}</text>"#,
        ml + pw / 2.0,
        h - 12.0,
        xml_escape(x_label)
    ));
    svg.push_str(&format!(
        r#"<text x="16" y="{}" font-size="13" text-anchor="middle" font-family="sans-serif" transform="rotate(-90 16 {})">{}</text>"#,
        mt + ph / 2.0,
        mt + ph / 2.0,
        xml_escape(y_label)
    ));
    // series + legend
    for (si, s) in series.iter().enumerate() {
        let colour = COLOURS[si % COLOURS.len()];
        let pts: Vec<String> = s
            .points
            .iter()
            .map(|&(x, y)| format!("{:.2},{:.2}", sx(x), sy(y)))
            .collect();
        svg.push_str(&format!(
            r#"<polyline fill="none" stroke="{colour}" stroke-width="1.8" points="{}"/>"#,
            pts.join(" ")
        ));
        let ly = mt + 14.0 + 20.0 * si as f64;
        svg.push_str(&format!(
            r#"<line x1="{0}" y1="{ly}" x2="{1}" y2="{ly}" stroke="{colour}" stroke-width="3"/>"#,
            ml + pw + 10.0,
            ml + pw + 34.0
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="12" font-family="sans-serif">{}</text>"#,
            ml + pw + 40.0,
            ly + 4.0,
            xml_escape(&s.name)
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// Escapes text for an SVG document: every chart in this crate writes its
/// titles, labels and names through here.
pub(crate) fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Writes an SVG chart to disk, creating parent directories as needed.
pub fn write_svg(
    path: &std::path::Path,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, svg_chart(title, x_label, y_label, series))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Vec<Series> {
        vec![
            Series {
                name: "cpu".into(),
                points: (1..=50).map(|i| (i as f64, (i as f64).sqrt())).collect(),
            },
            Series {
                name: "gpu".into(),
                points: (1..=50).map(|i| (i as f64, i as f64 / 10.0)).collect(),
            },
        ]
    }

    #[test]
    fn ascii_chart_contains_legend_and_data() {
        let s = ascii_chart("Demo chart", &demo_series(), 60, 15);
        assert!(s.contains("Demo chart"));
        assert!(s.contains("* cpu"));
        assert!(s.contains("+ gpu"));
        assert!(s.contains('*'));
    }

    #[test]
    fn ascii_chart_empty_series() {
        let s = ascii_chart("Empty", &[], 40, 10);
        assert!(s.contains("no data"));
    }

    #[test]
    fn svg_is_well_formed_and_has_polylines() {
        let svg = svg_chart("T", "size", "GFLOP/s", &demo_series());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("cpu"));
        assert!(svg.contains("GFLOP/s"));
    }

    #[test]
    fn svg_escapes_xml_characters() {
        let series = vec![Series {
            name: "a<b & \"c\"".into(),
            points: vec![(0.0, 0.0), (1.0, 1.0)],
        }];
        let svg = svg_chart("x>y", "x", "y", &series);
        assert!(svg.contains("a&lt;b &amp; &quot;c&quot;"));
        assert!(svg.contains("x&gt;y"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn degenerate_single_point() {
        let series = vec![Series {
            name: "dot".into(),
            points: vec![(5.0, 5.0)],
        }];
        // must not divide by zero
        let svg = svg_chart("one point", "x", "y", &series);
        assert!(svg.contains("<polyline"));
        let txt = ascii_chart("one point", &series, 30, 8);
        assert!(txt.contains('*'));
    }

    #[test]
    fn write_svg_creates_dirs() {
        let dir = std::env::temp_dir().join("blob_plot_test/nested");
        let path = dir.join("c.svg");
        write_svg(&path, "t", "x", "y", &demo_series()).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    fn series_from_usize() {
        let s = Series::from_usize("s", &[(1, 2.0), (3, 4.0)]);
        assert_eq!(s.points, vec![(1.0, 2.0), (3.0, 4.0)]);
    }
}
