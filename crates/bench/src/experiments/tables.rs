//! Tables I and III–VI. Each entry's text is the rendered table, a blank
//! line, then the paper's own numbers for comparison.

use crate::{first_iteration_cell, first_threshold_iteration, threshold_table};
use blob_analysis::Table;
use blob_core::problem::{GemmProblem, GemvProblem, Problem};
use blob_sim::{presets, BlasCall, Offload, Precision, SystemModel};
use std::io;
use std::path::Path;

/// Table I: SGEMM run-times (100 iterations) for different devices and
/// libraries, varying α and β — the study behind GPU-BLOB's `q`-term FLOPs
/// formula (§III-A). M = N = 8192, K = 4; (α, β) ∈ {(1,0), (4,0), (1,2)}.
pub(super) fn table1(_dir: &Path) -> io::Result<String> {
    // GPU rows time resident data, as the paper measured: Transfer-Once at
    // 100 iterations is that to within the one amortised copy.
    let configs: [(SystemModel, &str, bool); 5] = [
        (presets::a100_cublas(), "NVIDIA A100 40GB SXM", true),
        (presets::mi250x_rocblas_table1(), "AMD MI250X", true),
        (
            presets::max1550_onemkl_table1(),
            "Intel Data Center GPU Max 1550",
            true,
        ),
        (
            presets::xeon8468_onemkl_1t(),
            "Intel Xeon Platinum 8468",
            false,
        ),
        (presets::epyc7543_aocl_1t(), "AMD EPYC 7543P", false),
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
    let ms = |seconds: f64| format!("{:.2} ms", seconds * 1e3);
    for (sys, device, on_gpu) in &configs {
        let time = |alpha: f64, beta: f64| -> io::Result<f64> {
            let call = BlasCall::gemm(Precision::F32, 8192, 8192, 4).with_scalars(alpha, beta);
            if *on_gpu {
                super::gpu(sys.gpu_seconds(&call, 100, Offload::TransferOnce))
            } else {
                Ok(sys.cpu_seconds(&call, 100))
            }
        };
        let (t10, t40, t12) = (time(1.0, 0.0)?, time(4.0, 0.0)?, time(1.0, 2.0)?);
        table.push_row(vec![
            device.to_string(),
            ms(t10),
            ms(t40),
            ms(t12),
            format!("{:.2}x", t12 / t10),
        ]);
    }
    let mut out = table.render();
    say!(out);
    say!(out, "Paper reference (a=1 b=0 | a=4 b=0 | a=1 b=2):");
    say!(out, "  A100/cuBLAS     39.53 | 39.23 | 62.02 ms   (1.57x)");
    say!(out, "  MI250X/rocBLAS 188.64 | 188.35 | 210.46 ms (1.12x)");
    say!(out, "  Max1550/oneMKL  33.34 | 32.99 | 57.78 ms   (1.73x)");
    say!(out, "  Xeon/oneMKL-1T 2307 | 2350 | 3137 ms       (1.36x)");
    say!(out, "  EPYC/AOCL-1T   6833 | 6757 | 9175 ms       (1.34x)");
    say!(out);
    say!(
        out,
        "Conclusion reproduced: beta=0 skips the beta*C and AB+C work (speedup band\n\
         ~1.2x-2x), alpha's value makes no measurable difference — hence GPU-BLOB's\n\
         FLOPs formula 2MNK + MN + qMN with q = 0 iff beta = 0."
    );
    Ok(out)
}

/// A Table III/IV grid over the three evaluation systems, then `reference`.
fn square_thresholds(title: &str, problem: Problem, reference: &[&str]) -> String {
    let systems = presets::evaluation_systems();
    let refs: Vec<&SystemModel> = systems.iter().collect();
    with_reference(threshold_table(title, &refs, problem), reference)
}

/// A Table V/VI grid — the first iteration count at which each non-square
/// problem type yields a Transfer-Once threshold — then `reference`.
fn first_iterations(title: &str, problems: &[Problem], reference: &[&str]) -> String {
    let systems = presets::evaluation_systems();
    let mut table = Table::new(title, &["Problem type", "DAWN", "LUMI", "Isambard-AI"]);
    for &problem in problems {
        let mut row = vec![problem.label().to_string()];
        for sys in &systems {
            row.push(first_iteration_cell(
                first_threshold_iteration(sys, problem, Precision::F32),
                first_threshold_iteration(sys, problem, Precision::F64),
            ));
        }
        table.push_row(row);
    }
    with_reference(table, reference)
}

fn with_reference(table: Table, reference: &[&str]) -> String {
    let mut out = table.render();
    say!(out);
    for line in reference {
        say!(out, "{line}");
    }
    out
}

/// Table III: square SGEMM:DGEMM (M=N=K) thresholds per transfer type.
pub(super) fn table3(_dir: &Path) -> io::Result<String> {
    Ok(square_thresholds(
        "Table III — Square SGEMM:DGEMM (M=N=K) GPU offload thresholds",
        Problem::Gemm(GemmProblem::Square),
        &[
            "Paper reference (SGEMM:DGEMM):",
            "  DAWN        Once 629:582 -> 514:361 | Always 629:582 -> 1265:1153 | USM 657:626 -> 412:377",
            "  LUMI        Once 502:237 -> 2:2     | Always 441:234 -> 512:1009  | USM —:— -> 189:153",
            "  Isambard-AI Once 26:26 (static)     | Always 26:26 (static)       | USM 196:411 -> 26:26",
        ],
    ))
}

/// Table IV: square SGEMV:DGEMV (M=N) thresholds per transfer type.
pub(super) fn table4(_dir: &Path) -> io::Result<String> {
    Ok(square_thresholds(
        "Table IV — Square SGEMV:DGEMV (M=N) GPU offload thresholds",
        Problem::Gemv(GemvProblem::Square),
        &[
            "Paper reference (SGEMV:DGEMV):",
            "  all systems: no threshold at 1 iteration; Transfer-Always never yields one",
            "  DAWN        Once 4089:3840 -> 4081:3321 (static-high) | USM similar",
            "  LUMI        Once 952:1197 -> 465:545 (decreasing)     | USM 2129:1885 -> 754:909",
            "  Isambard-AI Once 256:256 (static)                     | USM 256:255 -> 256:249",
        ],
    ))
}

/// Table V: non-square SGEMM:DGEMM first-threshold iteration counts.
pub(super) fn table5(_dir: &Path) -> io::Result<String> {
    Ok(first_iterations(
        "Table V — First iteration count with a Transfer-Once threshold (non-square GEMM, SGEMM:DGEMM)",
        &GemmProblem::NON_SQUARE.map(Problem::Gemm),
        &[
            "Paper reference (SGEMM:DGEMM first-threshold iteration count):",
            "  M=N, K=16M    | 1:1  | 1:1   | 1:1",
            "  M=N=32, K>=1  | —:—  | 8:—   | 1:1",
            "  K=N, M=16K    | 1:1  | 8:8   | 1:1",
            "  K=N=32, M>=1  | —:—  | 32:8  | 1:1",
            "  M=K, N=16K    | 1:1  | 1:8   | 1:1",
            "  M=K=32, N>=1  | —:—  | 32:32 | 1:1",
            "  M=N, K=32     | 8:8  | 32:32 | 8:8",
            "  M=N, M=16K    | 1:1  | 8:8   | 1:1",
        ],
    ))
}

/// Table VI: non-square SGEMV:DGEMV first-threshold iteration counts.
pub(super) fn table6(_dir: &Path) -> io::Result<String> {
    Ok(first_iterations(
        "Table VI — First iteration count with a Transfer-Once threshold (non-square GEMV, SGEMV:DGEMV)",
        &GemvProblem::NON_SQUARE.map(Problem::Gemv),
        &[
            "Paper reference (SGEMV:DGEMV first-threshold iteration count):",
            "  M=16N         | —:— | 8:8   | 1:1",
            "  N=32, M>=1    | —:— | 64:32 | 1:1",
            "  N=16M         | —:— | —:—   | 1:1",
            "  M=32, N>=1    | —:— | —:—   | 1:1",
        ],
    ))
}
