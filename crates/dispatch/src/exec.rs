//! Execution backends for the dispatcher, and the two sanctioned CPU
//! route functions.
//!
//! All direct `blob_blas` kernel invocations in the dispatch plane live
//! in this module — [`route_cpu_gemm`] and [`route_cpu_gemv`] are the
//! only functions allowed to call the kernels (the blob-check rule
//! `no-direct-kernel-in-dispatch` enforces this). Everything else routes
//! through a [`Dispatcher`](crate::Dispatcher) so no call can bypass the
//! decision model, its history recording, or its counters.

use blob_blas::{gemm_parallel, gemv_parallel, ContractError, Scalar};
use blob_core::backend::{Backend, HostCpu};
use blob_sim::firsttouch::FirstTouchModel;
use blob_sim::{BlasCall, SystemModel};
use std::time::Instant;

/// Sanctioned CPU route for GEMM: runs the real parallel kernel on the
/// caller's buffers and returns realized wall-clock seconds.
#[allow(clippy::too_many_arguments)]
pub fn route_cpu_gemm<T: Scalar>(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> Result<f64, ContractError> {
    let start = Instant::now();
    gemm_parallel(threads, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)?;
    Ok(start.elapsed().as_secs_f64())
}

/// Sanctioned CPU route for GEMV: runs the real parallel kernel on the
/// caller's buffers and returns realized wall-clock seconds.
#[allow(clippy::too_many_arguments)]
pub fn route_cpu_gemv<T: Scalar>(
    threads: usize,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: isize,
    beta: T,
    y: &mut [T],
    incy: isize,
) -> Result<f64, ContractError> {
    let start = Instant::now();
    gemv_parallel(threads, m, n, alpha, a, lda, x, incx, beta, y, incy)?;
    Ok(start.elapsed().as_secs_f64())
}

/// What the dispatcher needs from an execution substrate: a way to run
/// the CPU route, and modelled timings for the static prior and the
/// modelled-GPU route. Implemented by [`ModelExecutor`] (both sides
/// modelled — deterministic, used by tests, the serve endpoint and the
/// replay harness) and [`HostExecutor`] (real CPU kernels + modelled
/// GPU).
pub trait Executor {
    /// Human-readable backend name.
    fn name(&self) -> String;
    /// Executes the call on the CPU route; returns realized seconds.
    fn run_cpu(&mut self, call: &BlasCall) -> f64;
    /// Modelled CPU seconds — the static prior before any history.
    fn cpu_estimate(&self, call: &BlasCall) -> f64;
    /// Modelled GPU seconds for one warm-resident execution (kernel plus
    /// residual USM tax, no migration), or `None` when no GPU route
    /// exists.
    fn gpu_warm_seconds(&self, call: &BlasCall) -> Option<f64>;
    /// First-touch migration pricing, when the GPU route exists.
    fn first_touch(&self) -> Option<FirstTouchModel>;
    /// Device memory available to migrated pages, bytes.
    fn device_capacity_bytes(&self) -> f64 {
        16e9
    }
}

/// Fully-modelled executor: both routes priced by one
/// [`SystemModel`]. Deterministic, so hysteresis tests, the `/v1/dispatch`
/// session state and the `--mode dispatch` three-way comparison all
/// reproduce bit-identically.
#[derive(Debug, Clone)]
pub struct ModelExecutor {
    /// The modelled system both routes are priced on.
    pub system: SystemModel,
}

impl ModelExecutor {
    /// An executor over a modelled system.
    pub fn new(system: SystemModel) -> Self {
        ModelExecutor { system }
    }
}

impl Executor for ModelExecutor {
    fn name(&self) -> String {
        format!("model:{}", self.system.name)
    }

    fn run_cpu(&mut self, call: &BlasCall) -> f64 {
        self.system.cpu_seconds(call, 1)
    }

    fn cpu_estimate(&self, call: &BlasCall) -> f64 {
        self.system.cpu_seconds(call, 1)
    }

    fn gpu_warm_seconds(&self, call: &BlasCall) -> Option<f64> {
        let kernel = self.system.gpu_kernel_only_seconds(call)?;
        let ft = self.system.first_touch_model()?;
        Some(ft.resident_seconds(kernel, 1))
    }

    fn first_touch(&self) -> Option<FirstTouchModel> {
        self.system.first_touch_model()
    }
}

/// Real-CPU executor: the CPU route is [`HostCpu`] (this workspace's own
/// kernels, wall-clock timed on scratch buffers sized to the call), while
/// the GPU route stays modelled on a twin [`SystemModel`] — the simulation
/// stands in for hardware this environment does not have.
#[derive(Debug, Clone)]
pub struct HostExecutor {
    /// Worker threads for the parallel kernels.
    pub threads: usize,
    /// Modelled twin used for the static prior and the GPU route.
    pub twin: SystemModel,
}

impl HostExecutor {
    /// A host executor with an explicit thread count and modelled twin.
    pub fn new(threads: usize, twin: SystemModel) -> Self {
        HostExecutor {
            threads: threads.max(1),
            twin,
        }
    }
}

impl Executor for HostExecutor {
    fn name(&self) -> String {
        format!("host({}t)+model:{}", self.threads, self.twin.name)
    }

    fn run_cpu(&mut self, call: &BlasCall) -> f64 {
        HostCpu::with_threads(self.threads).cpu_seconds(call, 1)
    }

    fn cpu_estimate(&self, call: &BlasCall) -> f64 {
        self.twin.cpu_seconds(call, 1)
    }

    fn gpu_warm_seconds(&self, call: &BlasCall) -> Option<f64> {
        let kernel = self.twin.gpu_kernel_only_seconds(call)?;
        let ft = self.twin.first_touch_model()?;
        Some(ft.resident_seconds(kernel, 1))
    }

    fn first_touch(&self) -> Option<FirstTouchModel> {
        self.twin.first_touch_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_sim::{presets, Precision};

    #[test]
    fn model_executor_matches_system_model() {
        let sys = presets::isambard_ai();
        let mut e = ModelExecutor::new(sys.clone());
        let call = BlasCall::gemm(Precision::F32, 512, 512, 512);
        assert_eq!(e.run_cpu(&call), sys.cpu_seconds(&call, 1));
        assert_eq!(e.cpu_estimate(&call), sys.cpu_seconds(&call, 1));
        let warm = e.gpu_warm_seconds(&call).unwrap();
        // warm-resident must undercut the stateless cold first-touch path
        let cold = sys
            .gpu_seconds(&call, 1, blob_sim::Offload::FirstTouch)
            .unwrap();
        assert!(warm < cold);
        assert!(e.first_touch().is_some());
        assert!(e.name().contains("Isambard"));
    }

    #[test]
    fn cpu_only_model_has_no_gpu_route() {
        let mut e = ModelExecutor::new(presets::isambard_ai_armpl());
        let call = BlasCall::gemm(Precision::F32, 256, 256, 256);
        assert!(e.gpu_warm_seconds(&call).is_none());
        assert!(e.first_touch().is_none());
        assert!(e.run_cpu(&call) > 0.0);
    }

    #[test]
    fn host_executor_times_real_kernels() {
        let mut e = HostExecutor::new(1, presets::isambard_ai());
        let gemm = BlasCall::gemm(Precision::F64, 48, 48, 48);
        let gemv = BlasCall::gemv(Precision::F32, 64, 64);
        assert!(e.run_cpu(&gemm) > 0.0);
        assert!(e.run_cpu(&gemv) > 0.0);
        assert!(e.gpu_warm_seconds(&gemm).is_some());
    }

    #[test]
    fn host_executor_times_extended_precisions() {
        let mut e = HostExecutor::new(1, presets::isambard_ai());
        for precision in [Precision::Bf16, Precision::F64Emul(3)] {
            assert!(e.run_cpu(&BlasCall::gemm(precision, 48, 48, 48)) > 0.0);
            assert!(e.run_cpu(&BlasCall::gemv(precision, 64, 64)) > 0.0);
        }
    }

    #[test]
    fn sanctioned_routes_reject_contract_violations() {
        // Undersized A must surface the kernel's contract error, not a
        // bogus timing.
        let a = vec![1.0f64; 3];
        let b = vec![1.0f64; 4];
        let mut c = vec![0.0f64; 4];
        assert!(route_cpu_gemm(1, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2).is_err());
    }
}
