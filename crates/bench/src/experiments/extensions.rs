//! Extension studies from the paper's future-work and related-work
//! sections, and the library-quirk ablations.

use super::{dash, gpu};
use crate::sweep;
use blob_analysis::Table;
use blob_core::problem::{GemmProblem, GemvProblem, Problem};
use blob_sim::{
    best_split, cpu_energy_joules, energy_gemm_threshold, gpu_energy_joules, presets,
    with_matrix_engine, BlasCall, MatrixEngine, Offload, PowerModel, Precision, SpmvCall,
    SystemModel, TrsmCall,
};
use std::io;
use std::path::Path;

const SQUARE_GEMM: Problem = Problem::Gemm(GemmProblem::Square);
const SQUARE_GEMV: Problem = Problem::Gemv(GemvProblem::Square);

/// The Transfer-Once threshold size of a paper sweep, as a table cell.
fn once_threshold(sys: &SystemModel, problem: Problem, precision: Precision, iters: u32) -> String {
    let s = sweep(sys, problem, precision, iters);
    dash(s.threshold_record(Offload::TransferOnce).map(|r| r.param))
}

/// Smallest square size in `1..=max` from which the GPU (Transfer-Once)
/// durably beats the CPU for the call `make(size)`; `None` when the CPU
/// still wins at `max`. A lone CPU win between GPU wins does not count.
fn scan_threshold(
    sys: &SystemModel,
    iters: u32,
    max: usize,
    make: impl Fn(usize) -> BlasCall,
) -> io::Result<Option<usize>> {
    let mut last = None;
    let mut prev = false;
    for s in 1..=max {
        let call = make(s);
        let cpu_wins = sys.cpu_seconds(&call, iters)
            < gpu(sys.gpu_seconds(&call, iters, Offload::TransferOnce))?;
        if cpu_wins && (prev || s == 1) {
            last = Some(s);
        }
        prev = cpu_wins;
    }
    Ok(match last {
        None => Some(1), // GPU durably ahead from the start
        Some(s) if s < max => Some(s + 1),
        Some(_) => None,
    })
}

/// Batched BLAS (§V): how the offload threshold moves when `batch` small
/// GEMMs are issued as one batched call. Hypothesis (Cecka; Dongarra et
/// al.): it falls as the batch grows, most on PCIe systems.
pub(super) fn ext_batched(_dir: &Path) -> io::Result<String> {
    let systems = presets::evaluation_systems();
    let mut table = Table::new(
        "Batched square SGEMM Transfer-Once offload threshold (per-instance size) vs batch count, 8 iterations",
        &["Batch", "DAWN", "LUMI", "Isambard-AI"],
    );
    for batch in [1usize, 8, 64, 512] {
        let mut row = vec![batch.to_string()];
        for sys in &systems {
            row.push(dash(sys.batched_gemm_threshold(
                Precision::F32,
                batch,
                8,
                Offload::TransferOnce,
                2048,
            )));
        }
        table.push_row(row);
    }
    let mut out = table.render();
    say!(out);

    // per-instance GFLOP/s for a small GEMM, batched vs looped, on the GPU
    let call = BlasCall::gemm(Precision::F32, 48, 48, 48);
    say!(
        out,
        "GPU time for 512 instances of SGEMM 48^3 (kernel only):"
    );
    for sys in &systems {
        let (dev, lib) = (gpu(sys.gpu.as_ref())?, gpu(sys.gpu_lib.as_ref())?);
        let looped = 512.0 * blob_sim::gpu::gpu_kernel_seconds(dev, lib, &call);
        let batched = blob_sim::batch::gpu_batched_kernel_seconds(dev, lib, &call, 512);
        say!(
            out,
            "  {:<12} looped {:>9.1} us | batched {:>9.1} us ({:>5.1}x faster)",
            sys.name,
            looped * 1e6,
            batched * 1e6,
            looped / batched
        );
    }
    out.push_str(
        "\nExpected shape: thresholds fall substantially from batch 1 to large\n\
         batches (not always monotonically: batching feeds the CPU's ramp too,\n\
         so mid-size batches can briefly favour the CPU). The kernel-only\n\
         comparison shows why batching exists: one launch amortises what\n\
         hundreds of separate launches cannot.\n",
    );
    Ok(out)
}

/// Energy (Favaro et al., Torres et al.): where the whole-node energy
/// offload threshold sits against the time threshold. The idle device keeps
/// burning watts, so the race is (CPU active + GPU idle) vs the reverse.
pub(super) fn ext_energy(_dir: &Path) -> io::Result<String> {
    let systems = presets::evaluation_systems();
    let mut table = Table::new(
        "Square SGEMM offload thresholds, time vs whole-node energy (Transfer-Once)",
        &["Iterations", "DAWN t/E", "LUMI t/E", "Isambard-AI t/E"],
    );
    for iters in [8u32, 32, 128] {
        let mut row = vec![iters.to_string()];
        for sys in &systems {
            let power = PowerModel::for_system(sys);
            // time threshold via the same scan the energy one uses
            let time = scan_threshold(sys, iters, 2048, |s| {
                BlasCall::gemm(Precision::F32, s, s, s)
            })?;
            let energy = energy_gemm_threshold(
                sys,
                &power,
                Precision::F32,
                iters,
                Offload::TransferOnce,
                2048,
            );
            row.push(format!("{} / {}", dash(time), dash(energy)));
        }
        table.push_row(row);
    }
    let mut out = table.render();
    say!(out);

    say!(
        out,
        "Whole-node energy for SGEMM 2048^3 x 32 iterations (Transfer-Once):"
    );
    for sys in &systems {
        let power = PowerModel::for_system(sys);
        let call = BlasCall::gemm(Precision::F32, 2048, 2048, 2048);
        let e_cpu = cpu_energy_joules(sys, &power, &call, 32);
        let e_gpu = gpu(gpu_energy_joules(
            sys,
            &power,
            &call,
            32,
            Offload::TransferOnce,
        ))?;
        say!(
            out,
            "  {:<12} CPU {:>8.1} J | GPU {:>8.1} J -> {} saves {:.1}x",
            sys.name,
            e_cpu,
            e_gpu,
            if e_gpu < e_cpu { "GPU" } else { "CPU" },
            (e_cpu / e_gpu).max(e_gpu / e_cpu)
        );
    }
    out.push_str(
        "\nExpected shape: on DAWN the GPU node draws slightly *less* than the CPU\n\
         node, so the energy threshold sits at or below the time threshold; on\n\
         the GH200 the H100's wattage premium means small problems stay on the\n\
         CPU a bit longer by joules than by seconds — but at GEMM sizes that\n\
         matter the GPU wins both races by a wide margin.\n",
    );
    Ok(out)
}

/// Hybrid execution (MAGMA, §II): when splitting one GEMM across CPU and
/// GPU beats the better single device — and what a unified-memory APU
/// (MI300A, §I) does to the offload question.
pub(super) fn ext_hybrid(_dir: &Path) -> io::Result<String> {
    let mut table = Table::new(
        "Best CPU+GPU split for square SGEMM (Transfer-Once, 32 iterations)",
        &[
            "Size",
            "System",
            "GPU share",
            "CPU-only",
            "GPU-only",
            "Hybrid",
            "vs best single",
        ],
    );
    let ms = |seconds: f64| format!("{:.2} ms", seconds * 1e3);
    for sys in [
        presets::dawn(),
        presets::lumi(),
        presets::isambard_ai(),
        presets::a100_workstation(),
    ] {
        for s in [512usize, 1024, 4096] {
            let call = BlasCall::gemm(Precision::F32, s, s, s);
            let plan = gpu(best_split(&sys, &call, 32, Offload::TransferOnce, 64))?;
            table.push_row(vec![
                s.to_string(),
                sys.name.to_string(),
                format!("{:.0}%", plan.gpu_fraction * 100.0),
                ms(plan.cpu_seconds),
                ms(plan.gpu_seconds),
                ms(plan.hybrid_seconds),
                format!("{:.2}x", plan.speedup_vs_best_single),
            ]);
        }
    }
    let mut out = table.render();
    out.push_str(
        "\nMAGMA's claim reproduced in-model: hybrid execution pays most where the\n\
         devices are balanced (near the offload threshold) and fades to ~1x where\n\
         one device dominates.\n\n\
         Unified-memory APU (MI300A-class) square thresholds vs the paper's systems:\n",
    );

    let mut t2 = Table::new(
        "Square SGEMM / SGEMV Transfer-Once thresholds at 1 and 8 iterations",
        &["System", "GEMM i=1", "GEMM i=8", "GEMV i=1", "GEMV i=8"],
    );
    for sys in [
        presets::a100_workstation(),
        presets::dawn(),
        presets::isambard_ai(),
        presets::mi300a(),
    ] {
        let gemm = |s| BlasCall::gemm(Precision::F32, s, s, s);
        let gemv = |s| BlasCall::gemv(Precision::F32, s, s);
        t2.push_row(vec![
            sys.name.to_string(),
            dash(scan_threshold(&sys, 1, 4096, gemm)?),
            dash(scan_threshold(&sys, 8, 4096, gemm)?),
            dash(scan_threshold(&sys, 1, 4096, gemv)?),
            dash(scan_threshold(&sys, 8, 4096, gemv)?),
        ]);
    }
    out.push_str(&t2.render());
    out.push_str(
        "\nReading, down the rows: the weaker the link, the bigger the thresholds;\n\
         the GH200 shrinks them to tens; a unified-memory APU erases the offload\n\
         question almost entirely — the endpoint of the SoC trend the paper's\n\
         conclusion predicts.\n",
    );
    Ok(out)
}

/// CPU matrix engines (§V): the square-GEMM Transfer-Once thresholds with
/// each AMX/SME/MMA-class engine grafted onto each system's CPU.
pub(super) fn ext_matrix_engine(_dir: &Path) -> io::Result<String> {
    let engines: [(&str, Option<MatrixEngine>); 4] = [
        ("baseline (SIMD only)", None),
        ("MMA-class (2x/2x)", Some(MatrixEngine::mma_class())),
        ("SME-class (4x/2x)", Some(MatrixEngine::sme_class())),
        ("AMX-class (8x/1x)", Some(MatrixEngine::amx_class())),
    ];
    let mut out = String::new();
    for iters in [8u32, 128] {
        let mut table = Table::new(
            format!("Square GEMM Transfer-Once offload threshold (S : D), {iters} iterations"),
            &["CPU engine", "DAWN", "LUMI", "Isambard-AI"],
        );
        for (name, engine) in &engines {
            let mut row = vec![name.to_string()];
            for base in presets::evaluation_systems() {
                let sys = match engine {
                    Some(e) => with_matrix_engine(base, *e),
                    None => base,
                };
                row.push(format!(
                    "{} : {}",
                    once_threshold(&sys, SQUARE_GEMM, Precision::F32, iters),
                    once_threshold(&sys, SQUARE_GEMM, Precision::F64, iters)
                ));
            }
            table.push_row(row);
        }
        say!(out, "{}", table.render());
    }
    out.push_str(
        "Expected shape: every engine raises the SGEMM threshold (the CPU\n\
         holds on to larger problems); AMX-class leaves DGEMM thresholds\n\
         unchanged (no FP64 tiles), while SME/MMA-class raise both. On the\n\
         GH200 the GPU's margin is so large that even a 4x CPU only nudges\n\
         the threshold — the SoC conclusion of the paper survives matrix\n\
         engines.\n",
    );
    Ok(out)
}

/// Smallest n (of the swept grid) from which the GPU durably wins an SpMV.
fn spmv_threshold(
    sys: &SystemModel,
    make: fn(usize) -> SpmvCall,
    iters: u32,
    offload: Offload,
) -> io::Result<Option<usize>> {
    let grid: Vec<usize> = (1..=64).map(|i| i * 4096).collect();
    let mut last_cpu = None;
    for (i, &n) in grid.iter().enumerate() {
        let c = make(n);
        if sys.cpu_spmv_seconds(&c, iters) < gpu(sys.gpu_spmv_seconds(&c, iters, offload))? {
            last_cpu = Some(i);
        }
    }
    Ok(match last_cpu {
        None => Some(grid[0]),
        Some(i) => grid.get(i + 1).copied(),
    })
}

/// Sparse BLAS (§V): banded and random-sparsity SpMV thresholds across
/// sizes, iteration counts and transfer types, with the model priced on
/// the stored-entry count of a concrete banded pattern.
pub(super) fn ext_spmv(_dir: &Path) -> io::Result<String> {
    let systems = presets::evaluation_systems();
    let structures: [(&str, fn(usize) -> SpmvCall); 2] = [
        ("banded (32 nnz/row, high locality)", |n| {
            SpmvCall::banded(n, 32, Precision::F64)
        }),
        ("random (0.1% dense, poor locality)", |n| {
            SpmvCall::random(n, 1e-3, Precision::F64)
        }),
    ];
    let mut out = String::new();
    for (label, make) in structures {
        let mut table = Table::new(
            format!("DSpMV offload threshold (matrix rows) — {label}"),
            &[
                "Iterations",
                "DAWN Once",
                "LUMI Once",
                "Isambard Once",
                "Always (all)",
            ],
        );
        for iters in [1u32, 8, 32, 128] {
            let mut row = vec![iters.to_string()];
            // Transfer-Always: report whether ANY system ever pays
            let mut always = false;
            for sys in &systems {
                row.push(dash(spmv_threshold(
                    sys,
                    make,
                    iters,
                    Offload::TransferOnce,
                )?));
                always =
                    always || spmv_threshold(sys, make, iters, Offload::TransferAlways)?.is_some();
            }
            row.push(if always { "yes".into() } else { "—".into() });
            table.push_row(row);
        }
        say!(out, "{}", table.render());
    }

    // price a concrete banded pattern: row i stores columns (i + 7d) mod n
    // for d < band, counted once per position
    let n = 4096;
    let band = 5;
    let mut entries: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..band).map(move |d| (i, (i + d * 7) % n)))
        .collect();
    entries.sort_unstable();
    entries.dedup();
    let nnz = entries.len();
    let model = SpmvCall {
        rows: n,
        cols: n,
        nnz,
        precision: Precision::F64,
        locality: 0.5,
    };
    say!(
        out,
        "cross-check: real CSR {n}x{n} nnz={nnz} (density {:.4}) -> model prices {:.1} us/iteration on DAWN's CPU",
        nnz as f64 / (n as f64 * n as f64),
        presets::dawn().cpu_spmv_seconds(&model, 1) * 1e6
    );
    out.push_str(
        "\nExpected shape: SpMV behaves like an even lower-AI GEMV — re-use is\n\
         required on DAWN and Isambard-AI, and Transfer-Always never pays where\n\
         the CPU streams at socket bandwidth. LUMI is the model's Fig-6-style\n\
         prediction: a serial CPU sparse kernel loses to the interconnect's DMA\n\
         rate, so even low-re-use SpMV can pay there. Random scatter offloads\n\
         earlier than banded (GPUs hide gather latency better than a CPU).\n",
    );
    Ok(out)
}

/// First RHS count n from which the GPU wins a TRSM of triangle size m.
fn trsm_crossover(sys: &SystemModel, m: usize, with_transfers: bool, iters: u32) -> Option<usize> {
    for n in 1..=4096usize {
        let c = TrsmCall::new(m, n, Precision::F64);
        let gpu_seconds = if with_transfers {
            sys.gpu_trsm_seconds(&c, iters, Offload::TransferOnce)?
        } else {
            sys.gpu_trsm_resident_seconds(&c, iters)?
        };
        if gpu_seconds < sys.cpu_trsm_seconds(&c, iters) {
            return Some(n);
        }
    }
    None
}

/// TRSM (Li et al., §II): the resident-data CPU/GPU crossover they
/// measured, and how far it moves once transfers are priced in — the
/// paper's critique of that comparison.
pub(super) fn ext_trsm(_dir: &Path) -> io::Result<String> {
    let mut table = Table::new(
        "DTRSM crossover: first RHS count n where the GPU wins (triangle m = 2048)",
        &[
            "System",
            "resident data (Li et al.)",
            "with transfers, 1 iter",
            "with transfers, 32 iters",
        ],
    );
    for sys in &presets::evaluation_systems() {
        table.push_row(vec![
            sys.name.to_string(),
            dash(trsm_crossover(sys, 2048, false, 1)),
            dash(trsm_crossover(sys, 2048, true, 1)),
            dash(trsm_crossover(sys, 2048, true, 32)),
        ]);
    }
    let mut out = table.render();
    say!(out);

    // the methodology critique with concrete numbers on DAWN
    let sys = presets::dawn();
    let c = TrsmCall::new(2048, 256, Precision::F64);
    let cpu = sys.cpu_trsm_seconds(&c, 1);
    let resident = gpu(sys.gpu_trsm_resident_seconds(&c, 1))?;
    let with = gpu(sys.gpu_trsm_seconds(&c, 1, Offload::TransferOnce))?;
    say!(out, "DAWN, DTRSM 2048x256, 1 iteration:");
    say!(out, "  CPU                      {:>9.2} ms", cpu * 1e3);
    say!(
        out,
        "  GPU, data resident       {:>9.2} ms  <- the Li et al. comparison",
        resident * 1e3
    );
    say!(
        out,
        "  GPU, transfers included  {:>9.2} ms  <- what an application pays",
        with * 1e3
    );
    out.push_str(
        "\nReproduced: the small-n CPU / large-n GPU crossover exists on every\n\
         system for resident data, and pricing the transfers (the paper's\n\
         critique of Li et al.) pushes it to substantially more right-hand\n\
         sides on PCIe systems — while the GH200 barely notices.\n",
    );
    Ok(out)
}

/// Ablations: how much of each system's threshold profile is library
/// heuristics. Tests the paper's §IV-A conjecture ("without this drop the
/// one iteration square GEMM offload thresholds on DAWN would have likely
/// been much higher") and two more, by removing one quirk at a time.
pub(super) fn ablation_quirks(_dir: &Path) -> io::Result<String> {
    let sgemm = |sys: &SystemModel, iters| once_threshold(sys, SQUARE_GEMM, Precision::F32, iters);
    let sgemv = |sys: &SystemModel, iters| once_threshold(sys, SQUARE_GEMV, Precision::F32, iters);
    let mut out = String::new();

    let dawn = presets::dawn();
    let mut dawn_no_cliff = presets::dawn();
    dawn_no_cliff
        .cpu_lib
        .quirks
        .retain(|q| !q.name.contains("629"));
    say!(
        out,
        "1. DAWN square SGEMM Transfer-Once threshold, with and without the oneMKL cliff:"
    );
    for iters in [1u32, 8, 32] {
        say!(
            out,
            "   {iters:>3} iterations: with cliff {:>6} | without {:>6}",
            sgemm(&dawn, iters),
            sgemm(&dawn_no_cliff, iters)
        );
    }
    out.push_str(
        "   (paper's conjecture: without the drop the 1-iteration threshold\n    \
         \"would have likely been much higher\" — confirmed in-model)\n\n",
    );

    let lumi = presets::lumi();
    let mut lumi_parallel_gemv = presets::lumi();
    lumi_parallel_gemv.cpu_lib.gemv_parallel = true;
    say!(
        out,
        "2. LUMI square SGEMV Transfer-Once threshold, serial vs multithreaded CPU GEMV:"
    );
    for iters in [8u32, 32, 128] {
        say!(
            out,
            "   {iters:>3} iterations: AOCL serial {:>6} | hypothetical parallel {:>6}",
            sgemv(&lumi, iters),
            sgemv(&lumi_parallel_gemv, iters)
        );
    }
    out.push_str(
        "   (the entire LUMI GEMV-offload story is the serial-GEMV artefact —\n    \
         give the CPU its socket bandwidth back and the thresholds vanish,\n    \
         exactly what switching to OpenBLAS showed in Fig 6)\n\n",
    );

    let isam = presets::isambard_ai();
    let mut isam_adaptive = presets::isambard_ai();
    isam_adaptive.cpu_lib.adaptive_threading = true;
    say!(
        out,
        "3. Isambard-AI square SGEMM Transfer-Once threshold, NVPL-as-is vs ArmPL-style scaling:"
    );
    for iters in [1u32, 8] {
        say!(
            out,
            "   {iters:>3} iterations: all-threads-always {:>6} | adaptive {:>6}",
            sgemm(&isam, iters),
            sgemm(&isam_adaptive, iters)
        );
    }
    out.push_str(
        "   (adaptive threading helps exactly the sizes below the threshold,\n    \
         so it can only move the threshold up — a little: on a GH200 the\n    \
         GPU's advantage is structural, not heuristic)\n",
    );
    Ok(out)
}
