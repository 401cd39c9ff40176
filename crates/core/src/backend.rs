//! Execution backends: where a benchmarked BLAS call's timing comes from.
//!
//! GPU-BLOB-rs can time a call two ways:
//!
//! - [`SystemModel`] (from `blob-sim`) — the calibrated analytical model of
//!   a paper system. Deterministic; regenerates the paper's tables.
//! - [`HostCpu`] — *real* wall-clock measurement of this crate's own BLAS
//!   kernels on the machine running the benchmark. CPU-only (this
//!   environment has no GPU; see DESIGN.md §1), so sweeps report CPU
//!   performance and no offload thresholds.
//!
//! Both implement [`Backend`], so the runner, threshold detector, CSV
//! writer and plots are agnostic to the timing source — exactly how the C++
//! artifact separates kernel drivers from its harness.

use crate::operands::{with_operands, Fill};
use crate::runner::{GpuSample, GpuSamples};
use blob_blas::{gemm_emul, gemm_parallel, gemv_emul, gemv_parallel};
use blob_sim::{BlasCall, Kernel, Offload, Precision, SystemModel};
use std::time::Instant;

/// A source of CPU and GPU timings for BLAS calls.
pub trait Backend {
    /// Identifier used in CSV output and table headers.
    fn name(&self) -> String;
    /// Total CPU seconds for `iters` iterations of `call`.
    fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64;
    /// Total GPU seconds (including data movement) for `iters` iterations
    /// under `offload`, or `None` when no GPU is available.
    fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64>;
    /// One [`GpuSample`] per offload in `offloads` that this backend can
    /// time, in order. The default calls [`Backend::gpu_seconds`] once per
    /// offload; an override is purely an optimisation and must return
    /// bit-identical samples.
    fn gpu_samples(&self, call: &BlasCall, iters: u32, offloads: &[Offload]) -> GpuSamples {
        let total_flops = iters as f64 * call.paper_flops();
        offloads
            .iter()
            .filter_map(|&o| {
                let seconds = self.gpu_seconds(call, iters, o)?;
                Some(GpuSample::timed(o, seconds, total_flops))
            })
            .collect()
    }
    /// The offload strategies this backend can time.
    fn offloads(&self) -> Vec<Offload> {
        if self
            .gpu_seconds(
                &BlasCall::gemm(Precision::F32, 2, 2, 2),
                1,
                Offload::TransferOnce,
            )
            .is_some()
        {
            Offload::ALL.to_vec()
        } else {
            vec![]
        }
    }
}

impl Backend for SystemModel {
    fn name(&self) -> String {
        self.name.to_string()
    }
    fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
        SystemModel::cpu_seconds(self, call, iters)
    }
    fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
        SystemModel::gpu_seconds(self, call, iters, offload)
    }
    /// Prices the GPU kernel once per call rather than once per offload.
    fn gpu_samples(&self, call: &BlasCall, iters: u32, offloads: &[Offload]) -> GpuSamples {
        let total_flops = iters as f64 * call.paper_flops();
        self.gpu_seconds_each(call, iters, offloads)
            .map(|(o, seconds)| GpuSample::timed(o, seconds, total_flops))
            .collect()
    }
}

/// Real wall-clock measurement of this repo's BLAS kernels on the host CPU.
#[derive(Debug, Clone)]
pub struct HostCpu {
    /// Worker threads for the parallel kernels.
    pub threads: usize,
    /// Timed-region repetitions to average over (the artifact averages
    /// three runs per configuration).
    pub repeats: u32,
}

impl Default for HostCpu {
    fn default() -> Self {
        Self {
            threads: blob_blas::pool::available_threads(),
            repeats: 1,
        }
    }
}

impl HostCpu {
    /// A host backend with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            repeats: 1,
        }
    }

    fn run_once<T: blob_blas::Scalar>(&self, call: &BlasCall, iters: u32) -> f64 {
        let alpha = T::from_f64(call.alpha);
        let beta = T::from_f64(call.beta);
        match call.kernel {
            Kernel::Gemm { m, n, k } => time_on_operands(call, iters, |a, b, c| {
                let (lda, ldb) = (m.max(1), k.max(1));
                let _ = gemm_parallel(self.threads, m, n, k, alpha, a, lda, b, ldb, beta, c, lda);
            }),
            Kernel::Gemv { m, n } => time_on_operands(call, iters, |a, x, y| {
                let _ = gemv_parallel(self.threads, m, n, alpha, a, m.max(1), x, 1, beta, y, 1);
            }),
        }
    }

    /// Times the Ozaki emulated-f64 kernels: the measured cost includes
    /// the slicing, the K(K+1)/2 f32 slice-pair products of the Ozaki
    /// triangle, and the f64 recombination.
    fn run_once_emul(&self, call: &BlasCall, iters: u32) -> f64 {
        let (precision, alpha, beta) = (call.precision, call.alpha, call.beta);
        match call.kernel {
            Kernel::Gemm { m, n, k } => time_on_operands(call, iters, |a, b, c| {
                let (lda, ldb) = (m.max(1), k.max(1));
                let _ = gemm_emul(precision, m, n, k, alpha, a, lda, b, ldb, beta, c, lda);
            }),
            Kernel::Gemv { m, n } => time_on_operands(call, iters, |a, x, y| {
                let _ = gemv_emul(precision, m, n, alpha, a, m.max(1), x, 1, beta, y, 1);
            }),
        }
    }
}

/// Wall seconds of `iters` runs of `kernel(a, b, c)` on timing operands
/// lent sized to `call`, every dimension at least 1, so the contracts hold.
fn time_on_operands<T: blob_blas::Scalar>(
    call: &BlasCall,
    iters: u32,
    mut kernel: impl FnMut(&[T], &[T], &mut [T]),
) -> f64 {
    let lens = match call.kernel {
        Kernel::Gemm { m, n, k } => {
            let (m, n, k) = (m.max(1), n.max(1), k.max(1));
            (m * k, k * n, m * n)
        }
        Kernel::Gemv { m, n } => (m.max(1) * n.max(1), n.max(1), m.max(1)),
    };
    with_operands(Fill::Timing, lens, |a, b, c| {
        let start = Instant::now();
        for _ in 0..iters {
            kernel(a, b, c);
        }
        let t = start.elapsed().as_secs_f64();
        std::hint::black_box(c);
        t
    })
}

impl Backend for HostCpu {
    fn name(&self) -> String {
        format!("host-cpu ({} threads)", self.threads)
    }

    fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
        let reps = self.repeats.max(1);
        let mut total = 0.0;
        for _ in 0..reps {
            total += match call.precision {
                Precision::F32 => self.run_once::<f32>(call, iters),
                Precision::F64 => self.run_once::<f64>(call, iters),
                // half formats: 16-bit storage on the f32 GEMM path (widened
                // at pack time, f32-accumulate, narrowed once); GEMV still
                // rounds per operation
                Precision::Bf16 => self.run_once::<blob_blas::Bf16>(call, iters),
                Precision::F16 => self.run_once::<blob_blas::F16>(call, iters),
                Precision::F64Emul(_) => self.run_once_emul(call, iters),
            };
        }
        total / reps as f64
    }

    fn gpu_seconds(&self, _call: &BlasCall, _iters: u32, _offload: Offload) -> Option<f64> {
        None // no GPU on the host; modelled systems provide GPU timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_sim::presets;

    #[test]
    fn system_model_backend_round_trip() {
        let sys = presets::dawn();
        let call = BlasCall::gemm(Precision::F32, 64, 64, 64);
        let b: &dyn Backend = &sys;
        assert_eq!(b.name(), "DAWN");
        assert!(b.cpu_seconds(&call, 1) > 0.0);
        assert!(b.gpu_seconds(&call, 1, Offload::TransferOnce).is_some());
        assert_eq!(b.offloads().len(), 3);
    }

    #[test]
    fn cpu_only_system_reports_no_offloads() {
        let sys = presets::isambard_ai_armpl();
        let b: &dyn Backend = &sys;
        assert!(b.offloads().is_empty());
    }

    #[test]
    fn host_backend_measures_real_time() {
        let host = HostCpu::with_threads(1);
        let call = BlasCall::gemm(Precision::F64, 64, 64, 64);
        // the fastest of five: parallel tests share the cores, and a
        // descheduled call only ever adds time
        let fastest = |iters| {
            (0..5)
                .map(|_| host.cpu_seconds(&call, iters))
                .fold(f64::INFINITY, f64::min)
        };
        let t1 = fastest(1);
        let t4 = fastest(4);
        assert!(t1 > 0.0);
        // 4 iterations take longer than 1 (wall-clock is noisy, so only a
        // weak monotonicity check)
        assert!(t4 > t1 * 1.5, "t1={t1}, t4={t4}");
        assert!(host.gpu_seconds(&call, 1, Offload::TransferOnce).is_none());
        assert!(host.offloads().is_empty());
    }

    #[test]
    fn host_backend_times_gemv() {
        let host = HostCpu::with_threads(2);
        let call = BlasCall::gemv(Precision::F32, 256, 256);
        assert!(host.cpu_seconds(&call, 2) > 0.0);
    }

    #[test]
    fn repeated_host_calls_reuse_one_operand_set() {
        crate::operands::release();
        let host = HostCpu::with_threads(1);
        for call in [
            BlasCall::gemm(Precision::F64, 48, 40, 56),
            BlasCall::gemv(Precision::F64, 300, 200),
        ] {
            host.cpu_seconds(&call, 1);
            let first = crate::operands::retained::<f64>().expect("an f64 set is retained");
            host.cpu_seconds(&call, 1);
            assert_eq!(
                crate::operands::retained::<f64>(),
                Some(first),
                "{call:?}: same addresses and capacities"
            );
        }
        crate::operands::release();
    }
}
