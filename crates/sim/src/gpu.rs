//! GPU device performance model.
//!
//! Prices the *kernel execution* of a BLAS call on one GPU device (one tile
//! of an Intel Max 1550, one GCD of an MI250X, or the H100 of a GH200 —
//! matching the paper's single-device configuration, §IV). Data movement is
//! priced separately by [`link`](crate::link) / [`usm`](crate::usm) so the
//! three offload strategies can combine the pieces differently.
//!
//! GEMM: roofline with an occupancy ramp — small problems cannot fill the
//! device, so achieved rate climbs with available work, with a much larger
//! half-saturation work than a CPU (a GPU needs on the order of 10⁹ FLOPs
//! in flight to approach peak). A fixed per-call launch latency is added —
//! it is what keeps tiny problems on the CPU even on the GH200.
//!
//! GEMV: bandwidth-bound on HBM plus the launch latency.

use crate::call::{BlasCall, Kernel};
use crate::quirk::{apply_quirks, Quirk};
use blob_blas::scalar::Precision;

/// Hardware description of one GPU device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Marketing name, e.g. `"AMD MI250X (one GCD)"`.
    pub name: &'static str,
    /// Peak FP32 vector throughput in TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak FP64 vector throughput in TFLOP/s.
    pub fp64_tflops: f64,
    /// Sustained HBM bandwidth in GB/s.
    pub hbm_gbs: f64,
}

impl GpuModel {
    /// Peak GFLOP/s at the given precision.
    pub fn peak_gflops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F32 => self.fp32_tflops * 1e3,
            Precision::F64 => self.fp64_tflops * 1e3,
            // half precisions run the tensor/matrix path: modelled at the
            // conventional 2× the fp32 vector rate (conservative — real
            // tensor cores are higher, but per-model data is not plumbed)
            Precision::Bf16 | Precision::F16 => self.fp32_tflops * 2e3,
            // Ozaki emulation: K(K+1)/2 fp32 GEMMs per useful f64 GEMM
            Precision::F64Emul(_) => {
                let pairs = precision.emul_products().unwrap_or(1) as f64;
                self.fp32_tflops * 1e3 / pairs
            }
        }
    }
}

/// A GPU BLAS library configuration.
#[derive(Debug, Clone)]
pub struct GpuLibrary {
    /// Library name + version, e.g. `"cuBLAS 24.5"`.
    pub name: &'static str,
    /// Kernel launch + runtime dispatch latency in microseconds.
    pub launch_us: f64,
    /// Peak fraction of hardware FLOPs large GEMM achieves.
    pub gemm_eff_max: f64,
    /// FLOPs at which GEMM occupancy reaches half of `gemm_eff_max`.
    pub gemm_half_work: f64,
    /// Fraction of HBM bandwidth GEMV achieves.
    pub gemv_bw_eff: f64,
    /// Row count at which the GEMV kernel reaches half its bandwidth
    /// efficiency: GPU GEMV parallelises over rows, so matrices with few
    /// rows (the paper's wide `N = 16M` / `M = 32` shapes) underfill the
    /// device. 0 disables the ramp.
    pub gemv_m_half: f64,
    /// Whether the library implements the β=0 short-circuit (Table I shows
    /// all three GPU libraries do).
    pub beta0_opt: bool,
    /// Heuristic cliffs and steps observed for this library.
    pub quirks: Vec<Quirk>,
}

/// Seconds for one kernel execution of `call` (device-resident data,
/// includes launch latency, excludes host↔device transfers).
pub fn gpu_kernel_seconds(model: &GpuModel, lib: &GpuLibrary, call: &BlasCall) -> f64 {
    let work = call.library_flops(lib.beta0_opt);
    let bytes = call.bytes_streamed_lib(lib.beta0_opt);
    let launch = lib.launch_us * 1e-6;
    let core = match call.kernel {
        Kernel::Gemm { .. } => {
            let peak = model.peak_gflops(call.precision) * 1e9;
            let eff = lib.gemm_eff_max * work / (work + lib.gemm_half_work);
            // A single SM/CU-worth of throughput floors tiny kernels (the
            // occupancy ramp would otherwise impose a constant-time floor
            // of half_work/peak); launch latency covers the fixed cost.
            let floor = peak * 5e-3;
            let rate = (peak * eff).max(floor).max(1.0);
            let t_comp = work / rate;
            let t_mem = bytes / (model.hbm_gbs * 1e9);
            t_comp.max(t_mem)
        }
        Kernel::Gemv { m, .. } => {
            let occ = if lib.gemv_m_half > 0.0 {
                m as f64 / (m as f64 + lib.gemv_m_half)
            } else {
                1.0
            };
            bytes / (model.hbm_gbs * lib.gemv_bw_eff * occ * 1e9)
        }
    };
    apply_quirks(&lib.quirks, call, core + launch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blob_blas::scalar::Precision;

    fn model() -> GpuModel {
        GpuModel {
            name: "test-gpu",
            fp32_tflops: 48.0,
            fp64_tflops: 24.0,
            hbm_gbs: 1600.0,
        }
    }

    fn lib() -> GpuLibrary {
        GpuLibrary {
            name: "test-gpulib",
            launch_us: 5.0,
            gemm_eff_max: 0.8,
            gemm_half_work: 4e9,
            gemv_bw_eff: 0.75,
            gemv_m_half: 0.0,
            beta0_opt: true,
            quirks: vec![],
        }
    }

    #[test]
    fn peak_by_precision() {
        let m = model();
        assert_eq!(m.peak_gflops(Precision::F32), 48_000.0);
        assert_eq!(m.peak_gflops(Precision::F64), 24_000.0);
    }

    #[test]
    fn emulation_prices_its_slice_pair_products() {
        let m = model();
        for k in 2..=4 {
            let p = Precision::F64Emul(k);
            let pairs = p.emul_products().unwrap() as f64;
            let f32_rate = m.peak_gflops(Precision::F32);
            assert!((m.peak_gflops(p) * pairs - f32_rate).abs() <= 1e-12 * f32_rate);
        }
    }

    #[test]
    fn launch_latency_floors_tiny_kernels() {
        let (m, l) = (model(), lib());
        let t = gpu_kernel_seconds(&m, &l, &BlasCall::gemm(Precision::F32, 2, 2, 2));
        assert!(t >= 5e-6);
        assert!(t < 6e-6);
    }

    #[test]
    fn occupancy_ramp_monotone() {
        let (m, l) = (model(), lib());
        let g = |s: usize| {
            let c = BlasCall::gemm(Precision::F32, s, s, s);
            c.paper_flops() / gpu_kernel_seconds(&m, &l, &c) / 1e9
        };
        assert!(g(128) < g(512));
        assert!(g(512) < g(2048));
        assert!(g(2048) < g(4096));
        // approaches but never exceeds eff_max * peak
        assert!(g(4096) < 0.8 * 48_000.0);
        assert!(g(4096) > 0.3 * 48_000.0);
    }

    #[test]
    fn gpu_needs_bigger_problems_than_cpu_to_saturate() {
        // half-saturation work for GPUs is ~4e9 flops: a 1260^3 problem.
        let (m, l) = (model(), lib());
        let c = BlasCall::gemm(Precision::F32, 1260, 1260, 1260);
        let g = c.paper_flops() / gpu_kernel_seconds(&m, &l, &c) / 1e9;
        let half = 0.5 * l.gemm_eff_max * m.peak_gflops(Precision::F32);
        assert!((g - half).abs() / half < 0.05, "g = {g}, half = {half}");
    }

    #[test]
    fn gemv_priced_by_hbm_bandwidth() {
        let (m, l) = (model(), lib());
        let c = BlasCall::gemv(Precision::F64, 4096, 4096);
        let t = gpu_kernel_seconds(&m, &l, &c);
        let expect = c.bytes_streamed() / (1600.0 * 0.75 * 1e9) + 5e-6;
        assert!((t - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn f64_gemm_slower_than_f32() {
        let (m, l) = (model(), lib());
        let s = 2048;
        let tf32 = gpu_kernel_seconds(&m, &l, &BlasCall::gemm(Precision::F32, s, s, s));
        let tf64 = gpu_kernel_seconds(&m, &l, &BlasCall::gemm(Precision::F64, s, s, s));
        assert!(tf64 > tf32);
    }

    #[test]
    fn quirks_apply_to_gpu_kernels() {
        use crate::call::KernelKind;
        use crate::quirk::{DimSel, QuirkShape};
        let m = model();
        let mut l = lib();
        l.quirks.push(Quirk {
            name: "k-jump",
            kernel: Some(KernelKind::Gemm),
            precision: Some(Precision::F32),
            dims_filter: Some(|mm, nn, _| mm == 32 && nn == 32),
            dim: DimSel::K,
            shape: QuirkShape::StepFactor {
                start: 2560,
                factor: 0.2,
            },
        });
        let before = gpu_kernel_seconds(&m, &l, &BlasCall::gemm(Precision::F32, 32, 32, 2559));
        let after = gpu_kernel_seconds(&m, &l, &BlasCall::gemm(Precision::F32, 32, 32, 2560));
        // despite more work, the jump makes the larger K faster
        assert!(after < before);
    }
}
