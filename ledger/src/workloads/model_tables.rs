//! `model_tables`: the paper regenerated from the calibrated models.
//!
//! One pass sweeps the three evaluation systems × 14 problem types ×
//! {f32, f64} × the five paper iteration counts at the paper's range
//! (1..=4096, every size: 1 144 320 points), detects the threshold for
//! each offload strategy, and renders Tables I, III, IV, V and VI. `sim`,
//! `core::runner`, `core::threshold` and `analysis` do all the work and
//! `blas` is idle — the bypass workload for every kernel change.
//!
//! The seed permutes the order in which the 420 sweeps run; the tables are
//! assembled by key, so every pass of every seed must render identically.

use super::{period_spent, Ctx, Outcome};
use crate::gen::permutation;
use crate::seams::TimedModel;
use crate::spans;
use crate::stats::{median, quiet, quiet_tail};
use blob_analysis::{sd_pair_cell, Table};
use blob_core::problem::{GemmProblem, GemvProblem};
use blob_core::{run_sweep, Backend, Problem, Sweep, SweepConfig};
use blob_sim::{presets, BlasCall, Offload, Precision, SystemModel};
use std::time::Instant;

/// Sweep points of one full regeneration.
pub const POINTS_PER_PASS: u64 = 1_144_320;

/// Thresholds found (of 1260 = 420 sweeps × 3 offloads) by the models as
/// committed; moves only when a preset, the runner or the detector does.
pub const THRESHOLDS_FOUND: usize = 615;

const ITERATIONS: [u32; 5] = SweepConfig::PAPER_ITERATIONS;

/// Threshold size parameter per offload strategy, `Offload::ALL` order.
type Cell = [Option<usize>; 3];

/// Index of one sweep in the grid.
fn slot(system: usize, problem: usize, precision: usize, iteration: usize) -> usize {
    ((system * 14 + problem) * 2 + precision) * ITERATIONS.len() + iteration
}

fn thresholds(sweep: &Sweep) -> Cell {
    let mut cell: Cell = [None; 3];
    for (c, &offload) in cell.iter_mut().zip(Offload::ALL.iter()) {
        *c = sweep.threshold(offload).and_then(|kernel| {
            sweep
                .records
                .iter()
                .find(|r| r.kernel == kernel)
                .map(|r| r.param)
        });
    }
    cell
}

/// Table III / IV: per iteration count, per system and offload, the
/// `S : D` threshold of a square problem.
fn square_table(title: &str, systems: &[SystemModel], grid: &[Cell], problem: usize) -> Table {
    let mut headers = vec!["Iterations".to_string()];
    for sys in systems {
        for o in Offload::ALL {
            headers.push(format!("{} {}", sys.name, o.label()));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for (it, iters) in ITERATIONS.iter().enumerate() {
        let mut row = vec![iters.to_string()];
        for s in 0..systems.len() {
            for o in 0..3 {
                row.push(sd_pair_cell(
                    grid[slot(s, problem, 0, it)][o],
                    grid[slot(s, problem, 1, it)][o],
                ));
            }
        }
        table.push_row(row);
    }
    table
}

/// Table V / VI: per non-square problem and system, the first iteration
/// count that yields a Transfer-Once threshold, as `S:D`.
fn first_iteration_table(
    title: &str,
    systems: &[SystemModel],
    grid: &[Cell],
    problems: &[(usize, Problem)],
) -> Table {
    let mut headers = vec!["Problem type"];
    headers.extend(systems.iter().map(|s| s.name));
    let mut table = Table::new(title, &headers);
    let first = |s: usize, p: usize, precision: usize| -> String {
        (0..ITERATIONS.len())
            .find(|&it| grid[slot(s, p, precision, it)][0].is_some())
            .map_or_else(|| "—".to_string(), |it| ITERATIONS[it].to_string())
    };
    for &(p, problem) in problems {
        let mut row = vec![problem.label().to_string()];
        for s in 0..systems.len() {
            row.push(format!("{}:{}", first(s, p, 0), first(s, p, 1)));
        }
        table.push_row(row);
    }
    table
}

/// Table I: SGEMM run-times at M=N=8192, K=4 for three (α, β) settings.
fn alpha_beta_table() -> Table {
    let rows: [(SystemModel, bool); 5] = [
        (presets::a100_cublas(), true),
        (presets::mi250x_rocblas_table1(), true),
        (presets::max1550_onemkl_table1(), true),
        (presets::xeon8468_onemkl_1t(), false),
        (presets::epyc7543_aocl_1t(), false),
    ];
    let mut table = Table::new(
        "Table I — SGEMM run-times (100 iterations), M=N=8192, K=4",
        &[
            "Library/Device",
            "a=1 b=0",
            "a=4 b=0",
            "a=1 b=2",
            "b=2 / b=0",
        ],
    );
    for (sys, gpu) in &rows {
        let time = |alpha: f64, beta: f64| -> f64 {
            let call = BlasCall::gemm(Precision::F32, 8192, 8192, 4).with_scalars(alpha, beta);
            if *gpu {
                sys.gpu_seconds(&call, 100, Offload::TransferOnce)
                    .unwrap_or(f64::NAN)
            } else {
                sys.cpu_seconds(&call, 100)
            }
        };
        let (t10, t40, t12) = (time(1.0, 0.0), time(4.0, 0.0), time(1.0, 2.0));
        table.push_row(vec![
            sys.name.to_string(),
            format!("{:.2} ms", t10 * 1e3),
            format!("{:.2} ms", t40 * 1e3),
            format!("{:.2} ms", t12 * 1e3),
            format!("{:.2}x", t12 / t10),
        ]);
    }
    table
}

/// The five paper tables as one string.
fn render(systems: &[SystemModel], grid: &[Cell], problems: &[Problem]) -> String {
    let index_of = |want: Problem| problems.iter().position(|p| *p == want).unwrap_or(0);
    let non_square = |gemm: bool| -> Vec<(usize, Problem)> {
        problems
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, p)| match p {
                Problem::Gemm(g) => gemm && *g != GemmProblem::Square,
                Problem::Gemv(v) => !gemm && *v != GemvProblem::Square,
            })
            .collect()
    };
    [
        alpha_beta_table(),
        square_table(
            "Table III — Square SGEMM:DGEMM (M=N=K) GPU offload thresholds",
            systems,
            grid,
            index_of(Problem::Gemm(GemmProblem::Square)),
        ),
        square_table(
            "Table IV — Square SGEMV:DGEMV (M=N) GPU offload thresholds",
            systems,
            grid,
            index_of(Problem::Gemv(GemvProblem::Square)),
        ),
        first_iteration_table(
            "Table V — First iteration count with an offload threshold, non-square GEMM",
            systems,
            grid,
            &non_square(true),
        ),
        first_iteration_table(
            "Table VI — First iteration count with an offload threshold, non-square GEMV",
            systems,
            grid,
            &non_square(false),
        ),
    ]
    .iter()
    .map(Table::render)
    .collect::<Vec<_>>()
    .join("\n")
}

/// What one regeneration produced.
struct Pass {
    grid: Vec<Cell>,
    tables: String,
    points: u64,
}

/// One full regeneration, sweeps in `order`. With `timed` backends the
/// pass also records `core.run_sweep`, `core.threshold` and
/// `analysis.tables` spans with sampled `sim.*` aggregates beneath.
fn regenerate(
    systems: &[SystemModel],
    timed: Option<&[TimedModel<SystemModel>]>,
    problems: &[Problem],
    order: &[usize],
) -> Pass {
    let mut grid: Vec<Cell> = vec![[None; 3]; order.len()];
    let mut points = 0u64;
    for &idx in order {
        let it = idx % ITERATIONS.len();
        let precision = (idx / ITERATIONS.len()) % 2;
        let p = (idx / (ITERATIONS.len() * 2)) % 14;
        let s = idx / (ITERATIONS.len() * 2 * 14);
        let cfg = SweepConfig::paper(ITERATIONS[it]);
        let sweep = match timed {
            Some(timed) => {
                let span = spans::open("core.run_sweep");
                let backend: &dyn Backend = &timed[s];
                let sweep = run_sweep(backend, problems[p], Precision::ALL[precision], &cfg);
                timed[s].flush(&span);
                sweep
            }
            None => run_sweep(&systems[s], problems[p], Precision::ALL[precision], &cfg),
        };
        points += sweep.records.len() as u64;
        {
            let _span = timed.map(|_| spans::open("core.threshold"));
            grid[idx] = thresholds(&sweep);
        }
        // The sweep's 4096 records each own a Vec: freeing them is the
        // runner's data structure at work, not the harness.
        let _span = timed.map(|_| spans::open("core.sweep_drop"));
        drop(sweep);
    }
    let _span = timed.map(|_| spans::open("analysis.tables"));
    let tables = render(systems, &grid, problems);
    Pass {
        grid,
        tables,
        points,
    }
}

/// A closure that renders the five tables from one regeneration's grid —
/// the `analysis.tables_us` probe times it.
pub fn render_closure() -> impl FnMut() {
    let systems = presets::evaluation_systems();
    let problems = Problem::all();
    let order: Vec<usize> = (0..systems.len() * problems.len() * 2 * ITERATIONS.len()).collect();
    let grid = regenerate(&systems, None, &problems, &order).grid;
    move || {
        std::hint::black_box(render(&systems, &grid, &problems));
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let systems = presets::evaluation_systems();
    let problems = Problem::all();
    let sweeps = systems.len() * problems.len() * 2 * ITERATIONS.len();
    let timed: Option<Vec<TimedModel<SystemModel>>> = ctx
        .traced
        .then(|| systems.iter().cloned().map(TimedModel::new).collect());
    let in_order: Vec<usize> = (0..sweeps).collect();
    // Warm-up: one full regeneration, which is also the reference every
    // timed pass must reproduce bit for bit.
    let reference = regenerate(&systems, timed.as_deref(), &problems, &in_order);
    if ctx.traced {
        drop(spans::take());
    }
    let mut out = Outcome::default();
    if ctx.ready() {
        return Ok(out);
    }
    let mut pass_s = Vec::new();
    let root = ctx.traced.then(|| spans::open("ledger.workload"));
    let started = Instant::now();
    while !period_spent(started, ctx.seconds, pass_s.len()) {
        let order = permutation(ctx.seed.wrapping_add(pass_s.len() as u64), sweeps);
        let began = Instant::now();
        let pass = regenerate(&systems, timed.as_deref(), &problems, &order);
        pass_s.push(began.elapsed().as_secs_f64());
        out.check(
            pass.grid == reference.grid && pass.tables == reference.tables,
            || format!("pass {} is not bit-identical to the first", pass_s.len()),
        );
    }
    drop(root);

    out.check(reference.points == POINTS_PER_PASS, || {
        format!(
            "{} points per pass, expected {POINTS_PER_PASS}",
            reference.points
        )
    });
    let found = reference.grid.iter().flatten().flatten().count();
    out.check(found == THRESHOLDS_FOUND, || {
        format!("{found} thresholds found, expected {THRESHOLDS_FOUND}")
    });
    // Pinned goldens: square GEMM, i=1, Transfer-Once, as EXPERIMENTS.md
    // records the committed models (DAWN 629:629 at the oneMKL cliff — the
    // paper's SGEMM 629 — LUMI 831:723, Isambard-AI 47:37).
    let square = problems
        .iter()
        .position(|p| *p == Problem::Gemm(GemmProblem::Square))
        .unwrap_or(0);
    for (system, precision, want) in [
        (0usize, 0usize, 629usize),
        (0, 1, 629),
        (1, 0, 831),
        (1, 1, 723),
        (2, 0, 47),
        (2, 1, 37),
    ] {
        let got = reference.grid[slot(system, square, precision, 0)][0];
        out.check(got == Some(want), || {
            format!(
                "{} square GEMM {:?} i=1 Transfer-Once threshold {got:?}, expected {want}",
                systems[system].name,
                Precision::ALL[precision]
            )
        });
    }

    out.ops_per_s = reference.points as f64 / quiet(&pass_s);
    out.p50_us = quiet(&pass_s) * 1e6;
    out.tail_us = quiet_tail(&pass_s) * 1e6;
    out.samples = pass_s.len();
    out.detail("passes", pass_s.len() as f64, "count");
    out.detail("sweep_s", median(&pass_s), "s");
    out.detail("thresholds_found", found as f64, "count");
    out.detail("table_bytes", reference.tables.len() as f64, "count");
    out.attach_trace(ctx);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_a_bijection_onto_the_grid() {
        let mut seen = vec![false; 3 * 14 * 2 * 5];
        for s in 0..3 {
            for p in 0..14 {
                for precision in 0..2 {
                    for it in 0..5 {
                        let i = slot(s, p, precision, it);
                        assert!(!seen[i]);
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn table_one_has_five_rows() {
        let t = alpha_beta_table();
        assert_eq!(t.rows.len(), 5);
        assert!(t.render().contains("b=2 / b=0"));
    }
}
