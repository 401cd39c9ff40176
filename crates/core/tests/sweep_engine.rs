//! Properties of the allocation-free sweep engine: the one-pass GPU
//! pricing is bit-identical to pricing each offload on its own, the
//! closure-driven threshold scan agrees with the slice detector and with
//! the paper's definition, and a size record owns no heap memory.
//!
//! Driven by `blob_core::testkit`; a failing case prints its seed for
//! replay with `testkit::run_case`.

use blob_core::problem::{GemmProblem, Problem};
use blob_core::runner::{GpuSample, GpuSamples, SizeRecord, Sweep};
use blob_core::testkit::{forall, Config, Gen};
use blob_core::{offload_threshold_from_times, offload_threshold_index, Backend, ThresholdPoint};
use blob_sim::{presets, BlasCall, Kernel, Offload, Precision, SystemModel};

/// A backend that only prices one offload at a time, so `gpu_samples`
/// runs the trait's default loop.
struct PerOffload<'a>(&'a SystemModel);

impl Backend for PerOffload<'_> {
    fn name(&self) -> String {
        self.0.name.to_string()
    }
    fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
        self.0.cpu_seconds(call, iters)
    }
    fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
        self.0.gpu_seconds(call, iters, offload)
    }
}

/// Every preset, including the CPU-only and USM-less ones, plus one with
/// deterministic noise (whose jitter differs per offload).
fn systems() -> Vec<SystemModel> {
    vec![
        presets::dawn(),
        presets::dawn_implicit_scaling(),
        presets::lumi(),
        presets::lumi_openblas(),
        presets::isambard_ai(),
        presets::isambard_ai_armpl(),
        presets::isambard_ai_nvpl_1t(),
        presets::mi300a(),
        presets::a100_workstation(),
        presets::a100_cublas(),
        presets::mi250x_rocblas_table1(),
        presets::max1550_onemkl_table1(),
        presets::xeon8468_onemkl_1t(),
        presets::epyc7543_aocl_1t(),
        presets::dawn().with_noise(7, 0.05),
    ]
}

fn same_bits(a: &GpuSamples, b: &GpuSamples) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.offload == y.offload
                && x.seconds.to_bits() == y.seconds.to_bits()
                && x.gflops.to_bits() == y.gflops.to_bits()
        })
}

#[test]
fn one_pass_gpu_pricing_is_bit_identical_to_per_offload_pricing() {
    let systems = systems();
    assert!(systems.iter().any(|s| !s.has_gpu()), "a CPU-only preset");
    assert!(
        systems.iter().any(|s| s.has_gpu() && s.usm.is_none()),
        "a USM-less preset"
    );
    let precisions = [
        Precision::F32,
        Precision::F64,
        Precision::Bf16,
        Precision::F64Emul(3),
    ];
    let offloads = Offload::WITH_FIRST_TOUCH;
    let mut priced = 0usize;
    for sys in &systems {
        for size in [1usize, 7, 64, 629, 1000, 4096] {
            for kernel in [
                Kernel::Gemm {
                    m: size,
                    n: size,
                    k: size,
                },
                Kernel::Gemv { m: size, n: size },
            ] {
                for precision in precisions {
                    for beta in [0.0, 2.0] {
                        let call = BlasCall {
                            kernel,
                            precision,
                            alpha: 1.0,
                            beta,
                        };
                        for iters in [1u32, 8, 128] {
                            let each: Vec<(Offload, f64)> =
                                sys.gpu_seconds_each(&call, iters, &offloads).collect();
                            let single: Vec<(Offload, f64)> = offloads
                                .iter()
                                .filter_map(|&o| Some((o, sys.gpu_seconds(&call, iters, o)?)))
                                .collect();
                            assert_eq!(each.len(), single.len(), "{} {call:?}", sys.name);
                            for ((oe, te), (os, ts)) in each.iter().zip(&single) {
                                assert_eq!(oe, os);
                                assert_eq!(
                                    te.to_bits(),
                                    ts.to_bits(),
                                    "{} {call:?} {oe}",
                                    sys.name
                                );
                            }
                            let fast = Backend::gpu_samples(sys, &call, iters, &offloads);
                            let slow = PerOffload(sys).gpu_samples(&call, iters, &offloads);
                            assert!(
                                same_bits(&fast, &slow),
                                "{} {call:?} i={iters}: {fast:?} vs {slow:?}",
                                sys.name
                            );
                            assert_eq!(fast.len(), single.len());
                            priced += fast.len();
                        }
                    }
                }
            }
        }
    }
    assert!(priced > 0);
}

/// Whether the CPU wins at `i`, as every detector reads it.
fn cpu_wins(points: &[ThresholdPoint], i: usize) -> bool {
    points[i].cpu_wins()
}

/// The paper's definition, by brute force: the first size where the GPU
/// wins and after which the CPU never wins two consecutive sizes.
fn definition(points: &[ThresholdPoint]) -> Option<usize> {
    let n = points.len();
    (0..n).find(|&t| {
        !cpu_wins(points, t)
            && (t + 1..n).all(|j| !(cpu_wins(points, j) && cpu_wins(points, j - 1)))
    })
}

/// A GPU time against `cpu` that loses or wins (ties count as GPU wins:
/// the CPU must be strictly faster).
fn gpu_time(g: &mut Gen, cpu: f64, cpu_wins: bool) -> f64 {
    if cpu_wins {
        cpu * g.f64_in(1.01, 3.0)
    } else if g.chance(0.1) {
        cpu
    } else {
        cpu * g.f64_in(0.2, 0.99)
    }
}

/// Where the CPU wins along one random curve. The shapes cover the
/// detector's cases: empty, one point, a clean crossover with one dip,
/// with two consecutive dips, with a dip at the last size, and coin flips.
fn cpu_win_shape(g: &mut Gen) -> Vec<bool> {
    let len = match g.usize_in(0, 9) {
        0 => 0,
        1 => 1,
        _ => g.usize_in(2, 48),
    };
    let cross = g.usize_in(0, len);
    let mut wins: Vec<bool> = (0..len).map(|i| i < cross).collect();
    match g.usize_in(0, 4) {
        0 if cross + 1 < len => wins[g.usize_in(cross + 1, len - 1)] = true,
        1 if cross + 2 < len => {
            let d = g.usize_in(cross + 1, len - 2);
            wins[d] = true;
            wins[d + 1] = true;
        }
        2 if len > 0 => wins[len - 1] = true,
        3 => wins.iter_mut().for_each(|w| *w = g.chance(0.5)),
        _ => {}
    }
    wins
}

#[test]
fn threshold_scan_matches_the_slice_detector_and_the_definition() {
    forall(Config::default().cases(10_000).seed(26), |g| {
        let shape = cpu_win_shape(g);
        let len = shape.len();
        let cpu: Vec<f64> = (0..len).map(|_| g.f64_in(1e-6, 1.0)).collect();
        // Transfer-Once follows the shape; the other offloads flip coins.
        let wins = |g: &mut Gen, o: Offload| -> Vec<bool> {
            match o {
                Offload::TransferOnce => shape.clone(),
                _ => (0..len).map(|_| g.chance(0.5)).collect(),
            }
        };
        let gpu: Vec<Vec<f64>> = Offload::ALL
            .iter()
            .map(|&o| {
                let w = wins(g, o);
                (0..len).map(|i| gpu_time(g, cpu[i], w[i])).collect()
            })
            .collect();
        let records: Vec<SizeRecord> = (0..len)
            .map(|i| SizeRecord {
                param: i + 1,
                kernel: Kernel::Gemv { m: i + 1, n: i + 1 },
                cpu_seconds: cpu[i],
                cpu_gflops: 1.0,
                gpu: Offload::ALL
                    .iter()
                    .zip(&gpu)
                    .map(|(&offload, times)| GpuSample {
                        offload,
                        seconds: times[i],
                        gflops: 1.0,
                    })
                    .collect(),
            })
            .collect();
        let mut sweep = Sweep {
            system: "prop".to_string(),
            problem: Problem::Gemm(GemmProblem::Square).into(),
            precision: Precision::F32,
            iterations: 1,
            records,
        };
        for (o, times) in Offload::ALL.iter().zip(&gpu) {
            let points: Vec<ThresholdPoint> = cpu
                .iter()
                .zip(times)
                .map(|(&c, &t)| ThresholdPoint {
                    cpu_seconds: c,
                    gpu_seconds: t,
                })
                .collect();
            let index = offload_threshold_index(&points);
            assert_eq!(index, definition(&points), "{o}: {points:?}");
            assert_eq!(offload_threshold_from_times(&cpu, times), index);
            assert_eq!(
                sweep.threshold(*o),
                index.map(|i| sweep.records[i].kernel),
                "{o}: {points:?}"
            );
        }
        // A size without a sample for an offload: no threshold for it.
        if len > 0 {
            let hole = g.usize_in(0, len - 1);
            let kept: GpuSamples = sweep.records[hole]
                .gpu
                .iter()
                .copied()
                .filter(|s| s.offload != Offload::Unified)
                .collect();
            sweep.records[hole].gpu = kept;
            assert_eq!(sweep.threshold(Offload::Unified), None);
        }
    });
}

#[test]
fn a_size_record_owns_no_heap_memory() {
    // No drop glue means no Vec, Box or String anywhere inside.
    assert!(!std::mem::needs_drop::<SizeRecord>());
    assert!(!std::mem::needs_drop::<GpuSamples>());
}

#[test]
fn gpu_samples_keep_one_sample_per_offload_in_insertion_order() {
    let sample = |offload, seconds| GpuSample {
        offload,
        seconds,
        gflops: 1.0,
    };
    let mut samples = GpuSamples::default();
    assert!(samples.is_empty());
    for o in Offload::WITH_FIRST_TOUCH.iter().rev() {
        assert_eq!(samples.push(sample(*o, 1.0)), Ok(()));
    }
    let order: Vec<Offload> = samples.iter().map(|s| s.offload).collect();
    let mut expect = Offload::WITH_FIRST_TOUCH.to_vec();
    expect.reverse();
    assert_eq!(order, expect);
    let repeat = sample(Offload::Unified, 2.0);
    assert_eq!(samples.push(repeat), Err(repeat));
    assert_eq!(samples.len(), Offload::WITH_FIRST_TOUCH.len());
    // collecting keeps the first sample of a repeated offload
    let collected: GpuSamples = [
        sample(Offload::TransferOnce, 1.0),
        sample(Offload::TransferOnce, 2.0),
        sample(Offload::Unified, 3.0),
    ]
    .into_iter()
    .collect();
    assert_eq!(
        collected,
        [
            sample(Offload::TransferOnce, 1.0),
            sample(Offload::Unified, 3.0)
        ]
        .into_iter()
        .collect::<GpuSamples>()
    );
    assert_eq!(format!("{collected:?}"), format!("{:?}", &*collected));
}
