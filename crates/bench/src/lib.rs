//! # blob-bench — the experiment registry and the three measurement binaries
//!
//! Every table, figure and extension study of the reproduction is one row of
//! [`experiments::EXPERIMENTS`]: a name, the paper element it regenerates
//! from the calibrated system models, and a function that returns the text
//! and writes its artefacts. That table is the index — `experiments --list`
//! prints it, and the docs point at it instead of repeating it.
//!
//! | Binary          | What it does |
//! |-----------------|--------------|
//! | `experiments`   | runs registry entries by name, or `all` of them into `results/` |
//! | `overhead_gate` | the < 1 % disabled-cost gates (fault point, trace span, dispatch decision) against one reference GEMM |
//! | `serve_load`    | loopback load generator with the `--min-rps` and `--kill-one` gates |
//!
//! Performance numbers live in the ledger (`ledger/`, `BENCHMARK.json`), not
//! here. This library also holds the shared sweep/table plumbing and the
//! [`microbench`] latency primitive `overhead_gate` times with.

pub mod experiments;
pub mod microbench;

use blob_analysis::{sd_pair_cell, Table};
use blob_core::problem::Problem;
use blob_core::runner::{run_sweep, Sweep, SweepConfig};
use blob_sim::{Offload, Precision, SystemModel};
use std::path::PathBuf;

/// Where experiment outputs (CSV, SVG, tables) are written.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BLOB_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Runs the paper's sweep (`-s 1 -d 4096`, every size) for one (system,
/// problem, precision, iterations).
pub fn sweep(sys: &SystemModel, problem: Problem, precision: Precision, iters: u32) -> Sweep {
    run_sweep(sys, problem, precision, &SweepConfig::paper(iters))
}

/// One row of a Table III/IV-style threshold grid.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Iteration count of the row's timed loops.
    pub iterations: u32,
    /// Per offload (paper column order): `(SGEMM/SGEMV, DGEMM/DGEMV)`
    /// threshold size parameters, `None` = no threshold.
    pub cells: Vec<(Option<usize>, Option<usize>)>,
}

/// Computes the Table III/IV threshold grid for one system and problem.
pub fn threshold_grid(sys: &SystemModel, problem: Problem) -> Vec<ThresholdRow> {
    SweepConfig::PAPER_ITERATIONS
        .iter()
        .map(|&iters| {
            let s32 = sweep(sys, problem, Precision::F32, iters);
            let s64 = sweep(sys, problem, Precision::F64, iters);
            let cells = Offload::ALL
                .iter()
                .map(|&o| {
                    (
                        s32.threshold_record(o).map(|r| r.param),
                        s64.threshold_record(o).map(|r| r.param),
                    )
                })
                .collect();
            ThresholdRow {
                iterations: iters,
                cells,
            }
        })
        .collect()
}

/// Renders a Table III/IV-style table for several systems side by side.
pub fn threshold_table(title: &str, systems: &[&SystemModel], problem: Problem) -> Table {
    let mut headers: Vec<String> = vec!["Iterations".into()];
    for sys in systems {
        for o in Offload::ALL {
            headers.push(format!("{} {}", sys.name, o.label()));
        }
    }
    let mut table = Table::new(
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let grids: Vec<Vec<ThresholdRow>> = systems
        .iter()
        .map(|sys| threshold_grid(sys, problem))
        .collect();
    for (i, &iters) in SweepConfig::PAPER_ITERATIONS.iter().enumerate() {
        let mut row = vec![iters.to_string()];
        for grid in &grids {
            for &(s, d) in &grid[i].cells {
                row.push(sd_pair_cell(s, d));
            }
        }
        table.push_row(row);
    }
    table
}

/// First iteration count (of the paper's five) at which a problem type
/// yields a Transfer-Once threshold, or `None` — the cell format of
/// Tables V and VI.
pub fn first_threshold_iteration(
    sys: &SystemModel,
    problem: Problem,
    precision: Precision,
) -> Option<u32> {
    SweepConfig::PAPER_ITERATIONS
        .iter()
        .copied()
        .find(|&iters| {
            sweep(sys, problem, precision, iters)
                .threshold(Offload::TransferOnce)
                .is_some()
        })
}

/// Formats a Table V/VI cell, e.g. `1:1`, `8:—`.
pub fn first_iteration_cell(s: Option<u32>, d: Option<u32>) -> String {
    format!("{}:{}", experiments::dash(s), experiments::dash(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_core::problem::GemmProblem;
    use blob_sim::presets;

    #[test]
    fn threshold_param_inverts_dims() {
        // a grid cell is the size parameter that generated the threshold's
        // dimensions, for every problem family
        let sys = presets::isambard_ai();
        for problem in Problem::all() {
            let s = run_sweep(&sys, problem, Precision::F64, &SweepConfig::new(1, 256, 8));
            for o in Offload::ALL {
                let param = s.threshold_record(o).map(|r| r.param);
                assert_eq!(
                    param.map(|p| problem.dims(p)),
                    s.threshold(o),
                    "{problem:?}"
                );
            }
        }
    }

    #[test]
    fn grid_has_five_rows_three_offloads() {
        let sys = presets::isambard_ai();
        let grid = threshold_grid(&sys, Problem::Gemm(GemmProblem::Square));
        assert_eq!(grid.len(), 5);
        assert!(grid.iter().all(|r| r.cells.len() == 3));
    }

    #[test]
    fn first_iteration_cells() {
        assert_eq!(first_iteration_cell(Some(1), Some(1)), "1:1");
        assert_eq!(first_iteration_cell(None, Some(8)), "—:8");
        assert_eq!(first_iteration_cell(None, None), "—:—");
    }
}
