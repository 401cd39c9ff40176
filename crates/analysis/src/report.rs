//! Markdown report generation: a per-system summary a user can commit
//! alongside their results — thresholds, peak rates, transfer-type
//! comparison, and the advisor-style reading, built from raw sweeps.

use crate::table::sd_pair_cell;
use blob_core::runner::Sweep;
use blob_sim::{Offload, Precision};

/// One (precision, iteration-count) group of sweeps for a problem type.
fn find(sweeps: &[Sweep], precision: Precision, iters: u32) -> Option<&Sweep> {
    sweeps
        .iter()
        .find(|s| s.precision == precision && s.iterations == iters)
}

/// Builds a markdown report for one problem type on one system from
/// sweeps covering several iteration counts (both precisions expected).
///
/// The sweeps must all belong to the same system and problem type.
pub fn markdown_report(title: &str, sweeps: &[Sweep]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n\n"));
    if sweeps.is_empty() {
        out.push_str("_no data_\n");
        return out;
    }
    let system = &sweeps[0].system;
    let problem = &sweeps[0].problem;
    out.push_str(&format!(
        "- system: **{system}**\n- problem type: **{}** (`{}`)\n- sizes swept: {}\n\n",
        problem.label(),
        problem.id(),
        sweeps[0].records.len(),
    ));

    // threshold table
    let mut iters: Vec<u32> = sweeps.iter().map(|s| s.iterations).collect();
    iters.sort_unstable();
    iters.dedup();
    out.push_str("## Offload thresholds (S : D)\n\n");
    out.push_str("| Iterations | Once | Always | USM |\n|---|---|---|---|\n");
    for &i in &iters {
        let cell = |o: Offload| {
            let param = |p| find(sweeps, p, i)?.threshold_record(o).map(|r| r.param);
            sd_pair_cell(param(Precision::F32), param(Precision::F64))
        };
        out.push_str(&format!(
            "| {i} | {} | {} | {} |\n",
            cell(Offload::TransferOnce),
            cell(Offload::TransferAlways),
            cell(Offload::Unified)
        ));
    }

    // peak achieved rates at the largest size
    out.push_str("\n## Peak achieved GFLOP/s (largest swept size)\n\n");
    out.push_str("| Iterations | Precision | CPU | GPU Once | GPU Always | GPU USM |\n|---|---|---|---|---|---|\n");
    for &i in &iters {
        for precision in Precision::ALL {
            if let Some(s) = find(sweeps, precision, i) {
                if let Some(last) = s.records.last() {
                    let g = |o: Offload| {
                        last.gpu_sample(o)
                            .map(|x| format!("{:.0}", x.gflops))
                            .unwrap_or_else(|| "—".into())
                    };
                    out.push_str(&format!(
                        "| {i} | {precision} | {:.0} | {} | {} | {} |\n",
                        last.cpu_gflops,
                        g(Offload::TransferOnce),
                        g(Offload::TransferAlways),
                        g(Offload::Unified)
                    ));
                }
            }
        }
    }

    // reading
    out.push_str("\n## Reading\n\n");
    let any_threshold = iters.iter().any(|&i| {
        find(sweeps, Precision::F32, i)
            .and_then(|s| s.threshold(Offload::TransferOnce))
            .is_some()
    });
    if any_threshold {
        out.push_str(
            "A Transfer-Once threshold exists: problems at or above it are \
             guaranteed faster on the GPU, transfers included. Below it, or \
             with Transfer-Always data movement, keep the kernel on the CPU \
             unless the performance graphs show an interior GPU window.\n",
        );
    } else {
        out.push_str(
            "No Transfer-Once threshold was produced: the CPU holds the \
             advantage through the top of the swept range for this problem \
             type. Note (paper §V): the absence of a threshold does not mean \
             the CPU wins at *every* size — check the curves for interior \
             GPU windows.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_core::problem::{GemmProblem, GemvProblem, Problem};
    use blob_core::runner::{run_sweep, SweepConfig};
    use blob_sim::presets;

    fn sweeps(problem: Problem, max: usize) -> Vec<Sweep> {
        let sys = presets::isambard_ai();
        let mut out = Vec::new();
        for iters in [1u32, 8] {
            for precision in Precision::ALL {
                out.push(run_sweep(
                    &sys,
                    problem,
                    precision,
                    &SweepConfig::new(1, max, iters),
                ));
            }
        }
        out
    }

    #[test]
    fn report_contains_tables_and_reading() {
        let md = markdown_report(
            "GH200 square GEMM",
            &sweeps(Problem::Gemm(GemmProblem::Square), 128),
        );
        assert!(md.starts_with("# GH200 square GEMM"));
        assert!(md.contains("## Offload thresholds"));
        assert!(md.contains("| Iterations | Once | Always | USM |"));
        assert!(md.contains("## Peak achieved GFLOP/s"));
        assert!(md.contains("A Transfer-Once threshold exists"));
        assert!(md.contains("Isambard-AI"));
        // both iteration rows appear
        assert!(md.contains("| 1 |"));
        assert!(md.contains("| 8 |"));
    }

    #[test]
    fn report_no_threshold_reading() {
        // square GEMV at 1 iteration never offloads; restrict to i=1
        let sys = presets::dawn();
        let sw: Vec<Sweep> = Precision::ALL
            .iter()
            .map(|&p| {
                run_sweep(
                    &sys,
                    Problem::Gemv(GemvProblem::Square),
                    p,
                    &SweepConfig::new(1, 64, 1),
                )
            })
            .collect();
        let md = markdown_report("DAWN GEMV", &sw);
        assert!(md.contains("No Transfer-Once threshold"));
    }

    #[test]
    fn empty_input_is_graceful() {
        let md = markdown_report("nothing", &[]);
        assert!(md.contains("_no data_"));
    }
}
