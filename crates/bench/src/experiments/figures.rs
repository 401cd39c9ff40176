//! Figures 2–7 plus the two supplementary plots (timelines, rooflines).
//! Each writes its SVGs and returns an ASCII preview with the quantities
//! the paper's text calls out.

use super::{ensure, gpu, save, slug};
use crate::sweep;
use blob_analysis::roofline::{roofline_svg, KernelPoint, Roofline};
use blob_analysis::timeline::timeline_svg;
use blob_analysis::{ascii_chart, write_svg, Series};
use blob_core::problem::{GemmProblem, GemvProblem, Problem};
use blob_core::runner::{run_sweep, Sweep, SweepConfig};
use blob_sim::{
    gpu_trace, phase_totals, presets, BlasCall, Offload, Precision, SystemModel, TraceEvent,
};
use std::io;
use std::path::Path;

const SQUARE_GEMM: Problem = Problem::Gemm(GemmProblem::Square);
const SQUARE_GEMV: Problem = Problem::Gemv(GemvProblem::Square);

/// GFLOP/s of the first point of `series` at or past size `x`.
fn at(series: &Series, x: f64) -> f64 {
    series.points.iter().find(|p| p.0 >= x).map_or(0.0, |p| p.1)
}

/// The CPU curve plus one GPU curve per listed offload, labelled as the
/// paper's legends are.
fn curves(s: &Sweep, cpu_label: &str, offloads: &[Offload]) -> Vec<Series> {
    let mut series = vec![Series::from_usize(cpu_label, &s.cpu_series())];
    for &o in offloads {
        let label = match o {
            Offload::Unified => "GPU USM".to_string(),
            _ => format!("GPU Transfer-{}", o.label()),
        };
        series.push(Series::from_usize(&label, &s.gpu_series(o)));
    }
    series
}

/// Writes one GFLOP/s-vs-size chart and reports where it went.
fn write_chart(
    out: &mut String,
    dir: &Path,
    file: &str,
    title: &str,
    x_label: &str,
    series: &[Series],
) -> io::Result<()> {
    let path = dir.join(file);
    write_svg(&path, title, x_label, "GFLOP/s", series)?;
    say!(out, "wrote {}", path.display());
    Ok(())
}

/// Fig 2: square SGEMM (1 iteration) on DAWN — the oneMKL CPU cliff at
/// {629, 629, 629} and the GPU curves that cross it.
pub(super) fn fig2(dir: &Path) -> io::Result<String> {
    let s = sweep(&presets::dawn(), SQUARE_GEMM, Precision::F32, 1);
    let series = curves(&s, "CPU (oneMKL, 48T)", &Offload::ALL);
    let title = "Fig 2 — Square SGEMM performance (1 iteration) on DAWN";
    let mut out = String::new();
    say!(out, "{}", ascii_chart(title, &series, 100, 24));

    let g = |p: usize| {
        s.records
            .iter()
            .find(|r| r.param == p)
            .map_or(0.0, |r| r.cpu_gflops)
    };
    say!(out, "CPU GFLOP/s at 628: {:.0}", g(628));
    say!(
        out,
        "CPU GFLOP/s at 629: {:.0}  (the oneMKL heuristic cliff)",
        g(629)
    );
    say!(out, "CPU GFLOP/s at 3500: {:.0} (recovered)", g(3500));
    say!(
        out,
        "Threshold (Transfer-Once): {:?}",
        s.threshold(Offload::TransferOnce)
    );
    write_chart(
        &mut out,
        dir,
        "fig2_dawn_sgemm_1iter.svg",
        title,
        "M = N = K",
        &series,
    )?;
    Ok(out)
}

/// Fig 3: square SGEMM on Isambard-AI's CPU over the first 192 sizes, at 1
/// and 8 iterations — NVPL wakes all 72 threads at every size, so ArmPL
/// (adaptive threading) and single-threaded NVPL win at small sizes.
pub(super) fn fig3(dir: &Path) -> io::Result<String> {
    let configs = [
        presets::isambard_ai(),         // NVPL, 72 threads
        presets::isambard_ai_armpl(),   // ArmPL 24.04
        presets::isambard_ai_nvpl_1t(), // NVPL, 1 thread
    ];
    let mut out = String::new();
    for iters in [1u32, 8] {
        let cfg = SweepConfig::new(1, 192, iters);
        let series: Vec<Series> = configs
            .iter()
            .map(|sys| {
                let s = run_sweep(sys, SQUARE_GEMM, Precision::F32, &cfg);
                Series::from_usize(sys.cpu_lib.name, &s.cpu_series())
            })
            .collect();
        let title = format!(
            "Fig 3 — Square SGEMM on Isambard-AI CPU, first 192 sizes ({iters} iteration{})",
            if iters == 1 { "" } else { "s" }
        );
        say!(out, "{}", ascii_chart(&title, &series, 100, 20));

        let small = 48.0;
        let [nvpl, armpl, nvpl_1t] = [0, 1, 2].map(|i| at(&series[i], small));
        say!(
            out,
            "GFLOP/s at size {small}: NVPL-72T {nvpl:.1} | ArmPL {armpl:.1} | NVPL-1T {nvpl_1t:.1}"
        );
        ensure(
            armpl > nvpl,
            "ArmPL must beat NVPL-72T at small sizes (Fig 3)",
        )?;
        ensure(
            nvpl_1t > nvpl,
            "NVPL-1T must beat NVPL-72T at small sizes (Fig 3)",
        )?;
        write_chart(
            &mut out,
            dir,
            &format!("fig3_isambard_cpu_libs_i{iters}.svg"),
            &title,
            "M = N = K",
            &series,
        )?;
        say!(out);
    }
    Ok(out)
}

/// Fig 4: square DGEMV (1 iteration) on all three systems — interior
/// ranges where the GPU wins (CPU drops) yet no offload threshold.
pub(super) fn fig4(dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for sys in presets::evaluation_systems() {
        let s = sweep(&sys, SQUARE_GEMV, Precision::F64, 1);
        let series = curves(&s, "CPU", &[Offload::TransferOnce, Offload::Unified]);
        let title = format!(
            "Fig 4 — Square DGEMV performance (1 iteration) on {}",
            sys.name
        );
        say!(out, "{}", ascii_chart(&title, &series, 100, 18));
        say!(
            out,
            "Offload threshold (Once): {:?} — expected None at 1 iteration",
            s.threshold(Offload::TransferOnce)
        );
        let gpu_wins = s
            .records
            .iter()
            .filter(|r| {
                r.gpu_sample(Offload::TransferOnce)
                    .is_some_and(|g| g.seconds < r.cpu_seconds)
            })
            .count();
        say!(
            out,
            "sizes where the GPU outperforms the CPU anyway: {gpu_wins} of {}\n",
            s.records.len()
        );
        let file = format!("fig4_dgemv_1iter_{}.svg", slug(&sys));
        write_chart(&mut out, dir, &file, &title, "M = N", &series)?;
        say!(out);
    }
    Ok(out)
}

/// Fig 5: square SGEMV (128 iterations) on Isambard-AI and DAWN — steep
/// GPU curves behind NVLink-C2C, shallow PCIe-bound ones on DAWN.
pub(super) fn fig5(dir: &Path) -> io::Result<String> {
    let mut out = String::new();
    for sys in [presets::isambard_ai(), presets::dawn()] {
        let s = sweep(&sys, SQUARE_GEMV, Precision::F32, 128);
        let series = curves(&s, "CPU", &Offload::ALL);
        let title = format!(
            "Fig 5 — Square SGEMV performance (128 iterations) on {}",
            sys.name
        );
        say!(out, "{}", ascii_chart(&title, &series, 100, 18));
        say!(
            out,
            "thresholds: Once {:?} | Always {:?} | USM {:?}\n",
            s.threshold(Offload::TransferOnce),
            s.threshold(Offload::TransferAlways),
            s.threshold(Offload::Unified),
        );
        let file = format!("fig5_sgemv_128iter_{}.svg", slug(&sys));
        write_chart(&mut out, dir, &file, &title, "M = N", &series)?;
        say!(out);
    }
    Ok(out)
}

/// Fig 6: AOCL 4.1 vs OpenBLAS 0.3.24 square DGEMV CPU performance (128
/// iterations) on LUMI. AOCL does not parallelise GEMV (the paper's
/// `perf stat` finding); OpenBLAS does, and removes every GEMV threshold.
pub(super) fn fig6(dir: &Path) -> io::Result<String> {
    let openblas_sys = presets::lumi_openblas();
    let aocl = sweep(&presets::lumi(), SQUARE_GEMV, Precision::F64, 128);
    let openblas = sweep(&openblas_sys, SQUARE_GEMV, Precision::F64, 128);
    let series = vec![
        Series::from_usize("AOCL 4.1 (serial GEMV)", &aocl.cpu_series()),
        Series::from_usize("OpenBLAS 0.3.24 (56T)", &openblas.cpu_series()),
    ];
    let title = "Fig 6 — AOCL vs OpenBLAS square DGEMV CPU performance (128 iters) on LUMI";
    let mut out = String::new();
    say!(out, "{}", ascii_chart(title, &series, 100, 20));
    say!(
        out,
        "GFLOP/s at 150:  AOCL {:.2} | OpenBLAS {:.2}  (AOCL better at small sizes)",
        at(&series[0], 150.0),
        at(&series[1], 150.0)
    );
    say!(
        out,
        "GFLOP/s at 3000: AOCL {:.2} | OpenBLAS {:.2}  (OpenBLAS streams the full socket)",
        at(&series[0], 3000.0),
        at(&series[1], 3000.0)
    );

    // the paper's punchline: with OpenBLAS, no GEMV threshold at any
    // iteration count or transfer type
    let mut any = false;
    for iters in SweepConfig::PAPER_ITERATIONS {
        let s = sweep(&openblas_sys, SQUARE_GEMV, Precision::F64, iters);
        for o in Offload::ALL {
            if s.threshold(o).is_some() {
                any = true;
                say!(
                    out,
                    "unexpected threshold with OpenBLAS: {iters} iters, {o}"
                );
            }
        }
    }
    if !any {
        say!(
            out,
            "OpenBLAS produces no square-GEMV offload threshold at any iteration count ✓"
        );
    }
    write_chart(
        &mut out,
        dir,
        "fig6_lumi_aocl_vs_openblas.svg",
        title,
        "M = N",
        &series,
    )?;
    Ok(out)
}

/// Fig 7 (Appendix A): DAWN GPU square SGEMM (32 iterations), implicit vs
/// explicit scaling of the Max 1550's two tiles — implicit is lower and
/// less consistent despite twice the compute.
pub(super) fn fig7(dir: &Path) -> io::Result<String> {
    let once = |sys: SystemModel| {
        sweep(&sys, SQUARE_GEMM, Precision::F32, 32).gpu_series(Offload::TransferOnce)
    };
    let series = vec![
        Series::from_usize("Explicit scaling (one tile)", &once(presets::dawn())),
        Series::from_usize(
            "Implicit scaling (both tiles)",
            &once(presets::dawn_implicit_scaling()),
        ),
    ];
    let title = "Fig 7 — DAWN GPU SGEMM (32 iterations): implicit vs explicit scaling";
    let mut out = String::new();
    say!(out, "{}", ascii_chart(title, &series, 100, 20));
    for size in [1024.0, 2048.0, 4096.0] {
        let e = at(&series[0], size);
        let i = at(&series[1], size);
        say!(
            out,
            "size {size:>5}: explicit {e:>8.0} GFLOP/s | implicit {i:>8.0} GFLOP/s ({:.2}x)",
            e / i
        );
    }
    // the "less consistent" part: relative point-to-point jitter
    let jitter = |s: &Series| {
        let mut acc = 0.0;
        let mut n = 0;
        for w in s.points.windows(2) {
            if w[0].1 > 0.0 && w[0].0 > 1000.0 {
                acc += ((w[1].1 - w[0].1) / w[0].1).abs();
                n += 1;
            }
        }
        acc / n.max(1) as f64
    };
    say!(
        out,
        "mean point-to-point variation (sizes > 1000): explicit {:.3} | implicit {:.3}",
        jitter(&series[0]),
        jitter(&series[1])
    );
    write_chart(
        &mut out,
        dir,
        "fig7_dawn_implicit_vs_explicit.svg",
        title,
        "M = N = K",
        &series,
    )?;
    Ok(out)
}

/// Supplementary: a Gantt lane per offload strategy (H2D / kernel / D2H /
/// USM phases) for one representative GEMM on each system — the picture
/// behind every Transfer-Always column in Tables III–VI.
pub(super) fn fig_timeline(dir: &Path) -> io::Result<String> {
    let call = BlasCall::gemm(Precision::F32, 1024, 1024, 1024);
    let iters = 8;
    let mut out = String::new();
    for sys in presets::evaluation_systems() {
        let mut lanes: Vec<(String, Vec<TraceEvent>)> = Vec::new();
        for o in Offload::ALL {
            let events = gpu(gpu_trace(&sys, &call, iters, o))?;
            lanes.push((format!("Transfer-{}", o.label()), events));
        }
        say!(out, "{} — SGEMM 1024^3 x {iters} iterations:", sys.name);
        for (name, events) in &lanes {
            let total = events.last().map_or(0.0, |e| e.end);
            let breakdown: Vec<String> = phase_totals(events)
                .iter()
                .map(|(p, t)| format!("{} {:.0}%", p.label(), t / total * 100.0))
                .collect();
            say!(
                out,
                "  {:<16} {:>9.1} us  [{}]",
                name,
                total * 1e6,
                breakdown.join(", ")
            );
        }
        let svg = timeline_svg(
            &format!(
                "Offload timelines — {} (SGEMM 1024^3, {iters} iters)",
                sys.name
            ),
            &lanes,
        );
        let path = save(dir, &format!("fig_timeline_{}.svg", slug(&sys)), &svg)?;
        say!(out, "  wrote {}\n", path.display());
    }
    out.push_str(
        "Reading: on PCIe systems Transfer-Always is mostly orange/red (copies);\n\
         on the GH200 every lane is almost solid blue (kernel) — the transfer\n\
         amortisation the offload threshold measures, drawn to scale.\n",
    );
    Ok(out)
}

/// Supplementary: each system's CPU and GPU rooflines with the benchmark's
/// kernels pinned at their intensities (§IV-C).
pub(super) fn roofline(dir: &Path) -> io::Result<String> {
    let point = |name: &str, call: BlasCall| KernelPoint {
        name: name.into(),
        intensity: call.arithmetic_intensity(),
    };
    let gemm = |m, n, k| BlasCall::gemm(Precision::F32, m, n, k);
    let kernels = vec![
        point("SGEMV 4096", BlasCall::gemv(Precision::F32, 4096, 4096)),
        point("SGEMM 128", gemm(128, 128, 128)),
        point("SGEMM 4096", gemm(4096, 4096, 4096)),
        point("SGEMM {32,32,4096}", gemm(32, 32, 4096)),
    ];
    let mut out = String::new();
    for sys in presets::evaluation_systems() {
        let cpu = Roofline {
            peak_gflops: sys.cpu.peak_gflops(Precision::F32, sys.cpu_lib.threads),
            bandwidth_gbs: sys.cpu.dram_gbs,
        };
        let gpu_model = gpu(sys.gpu.as_ref())?;
        let gpu_roof = Roofline {
            peak_gflops: gpu_model.peak_gflops(Precision::F32),
            bandwidth_gbs: gpu_model.hbm_gbs,
        };
        // the "effective" GPU roofline seen from the host at 1 iteration:
        // bandwidth limited by the interconnect instead of HBM
        let link = gpu(sys.link.as_ref())?;
        let via_link = Roofline {
            peak_gflops: gpu_roof.peak_gflops,
            bandwidth_gbs: link.h2d_gbs,
        };

        say!(out, "{}:", sys.name);
        say!(
            out,
            "  CPU balance {:>6.1} flops/byte | GPU balance {:>6.1} | GPU-behind-link balance {:>7.1}",
            cpu.balance(),
            gpu_roof.balance(),
            via_link.balance()
        );
        for k in &kernels {
            say!(
                out,
                "  {:<20} AI {:>7.2} -> CPU {:>8.0} GF | GPU {:>8.0} GF | via link {:>8.0} GF",
                k.name,
                k.intensity,
                cpu.attainable(k.intensity),
                gpu_roof.attainable(k.intensity),
                via_link.attainable(k.intensity),
            );
        }
        say!(out);

        let svg = roofline_svg(
            &format!("Rooflines — {}", sys.name),
            &[
                (format!("{} CPU", sys.name), cpu),
                (format!("{} GPU (resident)", sys.name), gpu_roof),
                (format!("{} GPU via {}", sys.name, link.name), via_link),
            ],
            &kernels,
        );
        let path = save(dir, &format!("roofline_{}.svg", slug(&sys)), &svg)?;
        say!(out, "wrote {}\n", path.display());
    }
    out.push_str(
        "Reading: GEMV's ~0.25 flops/byte sits under every roofline's ridge —\n\
         bandwidth always binds, so the winner is whoever streams faster, which\n\
         is why the GH200's 3.3 TB/s HBM + 360 GB/s C2C flips the GEMV mantra\n\
         while PCIe systems cannot (their link-limited roofline at AI 0.25 is\n\
         a tenth of the CPU's).\n",
    );
    Ok(out)
}
