//! Calibration methodology: automatic refinement of the preset models
//! against the paper's Table III targets.
//!
//! The presets in `blob-sim` were calibrated by hand (hardware numbers from
//! public specs, library envelopes tuned until Tables III–VI match the
//! paper's structure — see DESIGN.md §5). This entry makes that step
//! reproducible: from the shipped presets it runs coordinate descent on
//! five per-system knobs to minimise the log-distance between modelled and
//! published square-GEMM thresholds. It does *not* overwrite the presets —
//! it reports what the optimiser found so a maintainer can audit the
//! trade-offs before adopting them.

use crate::{threshold_grid, ThresholdRow};
use blob_core::problem::{GemmProblem, Problem};
use blob_sim::{presets, SystemModel};
use std::io;
use std::path::Path;

/// One Table III cell: the (S, D) threshold pair, `None` = `—`.
type Cell = (Option<usize>, Option<usize>);

/// Paper Table III per system: rows are iterations 1, 8, 32, 64, 128,
/// columns Once, Always, USM.
fn paper_targets(system: &str) -> Vec<[Cell; 3]> {
    let c = |s: usize, d: usize| (Some(s), Some(d));
    match system {
        "DAWN" => vec![
            [c(629, 582), c(629, 582), c(657, 626)],
            [c(572, 485), c(629, 603), c(596, 529)],
            [c(514, 377), c(1018, 833), c(509, 389)],
            [c(514, 361), c(1153, 1153), c(465, 436)],
            [c(514, 361), c(1265, 1153), c(412, 377)],
        ],
        "LUMI" => vec![
            [c(502, 237), c(441, 234), (None, None)],
            [c(153, 125), c(512, 256), c(606, 539)],
            [c(2, 2), c(512, 461), c(442, 256)],
            [c(2, 2), c(589, 961), c(381, 239)],
            [c(2, 2), c(512, 1009), c(189, 153)],
        ],
        _ => {
            let mut rows = vec![[c(26, 26); 3]; 5];
            rows[0][2] = c(196, 411);
            rows
        }
    }
}

/// Log-space distance between a modelled and a target threshold; presence
/// mismatches cost a flat penalty comparable to a large size error.
fn cell_loss(model: Option<usize>, target: Option<usize>) -> f64 {
    match (model, target) {
        (Some(m), Some(t)) => {
            let (m, t) = (m.max(1) as f64, t.max(1) as f64);
            (m.ln() - t.ln()).abs()
        }
        (None, None) => 0.0,
        _ => 3.0, // ~e^3 = 20x size error
    }
}

fn grid_loss(grid: &[ThresholdRow], targets: &[[Cell; 3]]) -> f64 {
    let mut loss = 0.0;
    for (row, trow) in grid.iter().zip(targets.iter()) {
        for (cell, tcell) in row.cells.iter().zip(trow.iter()) {
            loss += cell_loss(cell.0, tcell.0);
            loss += cell_loss(cell.1, tcell.1);
        }
    }
    loss
}

/// The tunable knobs, as multipliers applied to a base system: CPU and GPU
/// ramp half-works, CPU call overhead, GPU launch, cache-warmth boost.
type Knobs = [f64; 5];

const KNOB_NAMES: [&str; 5] = [
    "cpu_half_work",
    "gpu_half_work",
    "cpu_overhead",
    "gpu_launch",
    "warm_boost",
];

fn apply(base: &SystemModel, k: &Knobs) -> SystemModel {
    let mut sys = base.clone();
    sys.cpu_lib.gemm_half_work *= k[0];
    sys.cpu_lib.call_overhead_us *= k[2];
    // boost multiplier scales the warm *gain* (boost - 1)
    sys.cpu_lib.warm_rate_boost = 1.0 + (sys.cpu_lib.warm_rate_boost - 1.0) * k[4];
    if let Some(lib) = sys.gpu_lib.as_mut() {
        lib.gemm_half_work *= k[1];
        lib.launch_us *= k[3];
    }
    sys
}

fn evaluate(base: &SystemModel, k: &Knobs, targets: &[[Cell; 3]]) -> f64 {
    let grid = threshold_grid(&apply(base, k), Problem::Gemm(GemmProblem::Square));
    grid_loss(&grid, targets)
}

/// Coordinate descent on [`Knobs`] per evaluation system; reports the
/// Table III loss before and after and the knobs that moved.
pub(super) fn fit_presets(_dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for base in presets::evaluation_systems() {
        let targets = paper_targets(base.name);
        let mut knobs: Knobs = [1.0; 5];
        let mut best = evaluate(&base, &knobs, &targets);
        let initial = best;
        say!(out, "{}: initial Table III loss {:.3}", base.name, initial);

        // coordinate descent with multiplicative probes, two rounds
        for round in 0..2 {
            for i in 0..5 {
                for &step in &[0.7, 0.85, 1.2, 1.4] {
                    let mut probe = knobs;
                    probe[i] = (knobs[i] * step).clamp(0.25, 4.0);
                    let loss = evaluate(&base, &probe, &targets);
                    if loss + 1e-9 < best {
                        best = loss;
                        knobs = probe;
                    }
                }
            }
            say!(out, "  after round {}: loss {:.3}", round + 1, best);
        }

        say!(
            out,
            "  improvement: {:.1}% (loss {:.3} -> {:.3})",
            (1.0 - best / initial.max(1e-9)) * 100.0,
            initial,
            best
        );
        let moved = |k: &f64| (k - 1.0).abs() > 1e-9;
        for (name, k) in KNOB_NAMES.iter().zip(&knobs) {
            if moved(k) {
                say!(out, "    {name:<14} x{k:.3}");
            }
        }
        if !knobs.iter().any(moved) {
            say!(out, "    (shipped preset already at a local optimum)");
        }
        say!(out);
    }
    out.push_str(
        "Note: the optimiser only sees Table III; a maintainer must check the\n\
         other tables and figures before adopting any knob (the shipped presets\n\
         balance all of them — see EXPERIMENTS.md).\n",
    );
    Ok(out)
}
