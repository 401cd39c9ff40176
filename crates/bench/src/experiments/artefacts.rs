//! The file-producing entries: per-system markdown reports, the artifact's
//! raw CSV layout, and the checksum validation sample.

use super::{ensure, save, slug};
use blob_analysis::markdown_report;
use blob_core::csv::write_to_dir;
use blob_core::problem::{GemmProblem, GemvProblem, Problem};
use blob_core::runner::{call_for, run_sweep, Sweep, SweepConfig};
use blob_sim::{presets, Precision, SystemModel};
use std::io;
use std::path::Path;

/// `report_<system>_{gemm,gemv}.md`: the square GEMM and GEMV offload
/// profile of each evaluation system over every paper iteration count.
pub(super) fn report(dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for sys in presets::evaluation_systems() {
        for (tag, problem) in [
            ("gemm", Problem::Gemm(GemmProblem::Square)),
            ("gemv", Problem::Gemv(GemvProblem::Square)),
        ] {
            let mut sweeps: Vec<Sweep> = Vec::new();
            for iters in SweepConfig::PAPER_ITERATIONS {
                for precision in Precision::ALL {
                    let cfg = SweepConfig::paper(iters).with_step(2);
                    sweeps.push(run_sweep(&sys, problem, precision, &cfg));
                }
            }
            let title = format!(
                "{} — square {} offload profile",
                sys.name,
                tag.to_uppercase()
            );
            let file = format!("report_{}_{tag}.md", slug(&sys));
            let path = save(dir, &file, &markdown_report(&title, &sweeps))?;
            say!(out, "wrote {}", path.display());
        }
    }
    Ok(out)
}

/// The sweep behind one raw CSV. Stride 4 keeps the full-grid output
/// tractable while resolving every curve feature.
pub fn csv_sweep(sys: &SystemModel, problem: Problem, precision: Precision, iters: u32) -> Sweep {
    run_sweep(
        sys,
        problem,
        precision,
        &SweepConfig::paper(iters).with_step(4),
    )
}

/// `csv/<system>/`: the artifact's 28 files (14 problem types × 2
/// precisions) per system and iteration count.
pub(super) fn csv(dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for sys in presets::evaluation_systems() {
        let sys_dir = dir.join("csv").join(slug(&sys));
        let mut files = 0;
        for iters in SweepConfig::PAPER_ITERATIONS {
            for problem in Problem::all() {
                for precision in Precision::ALL {
                    write_to_dir(&sys_dir, &csv_sweep(&sys, problem, precision, iters))?;
                    files += 1;
                }
            }
        }
        say!(out, "wrote {files} CSVs to {}", sys_dir.display());
    }
    Ok(out)
}

/// Runs one mid-size call of every problem type and precision through both
/// the CPU and the GPU kernel path and compares checksums, as the artifact
/// does after each timed run.
pub(super) fn validate(_dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    let (mut checked, mut failures) = (0, 0);
    for problem in Problem::all() {
        for precision in Precision::ALL {
            let call = call_for(problem.family(), precision, 33, &SweepConfig::paper(1));
            let rep = blob_core::validate_call(&call, 0xB10B);
            checked += 1;
            if !rep.ok {
                failures += 1;
                say!(out, "FAIL {problem:?} {precision}: rel err {}", rep.rel_err);
            }
        }
    }
    say!(out, "{checked} validated, {failures} failures");
    ensure(failures == 0, out.trim_end())?;
    Ok(out)
}
