//! A complete heterogeneous node: one CPU socket plus library, one GPU
//! device plus library, the interconnect between them, and the vendor's
//! USM behaviour: everything needed to price a GPU-BLOB measurement.

use crate::call::BlasCall;
use crate::cpu::{cpu_seconds, CpuLibrary, CpuModel};
use crate::firsttouch::FirstTouchModel;
use crate::gpu::{gpu_kernel_seconds, GpuLibrary, GpuModel};
use crate::link::LinkModel;
use crate::offload::Offload;
use crate::usm::UsmModel;

/// Deterministic measurement noise: each (call, device) pair gets a fixed
/// multiplicative jitter of up to ±`amplitude`/2. Off by default so tables
/// regenerate bit-identically; enable to stress the threshold detector's
/// noise tolerance the way real runs would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Noise {
    /// Seed mixed into every jitter hash.
    pub seed: u64,
    /// Total jitter width, e.g. 0.05 for ±2.5 %.
    pub amplitude: f64,
}

impl Noise {
    /// The jitter multiplier for a (call, device-tag) pair.
    fn factor(&self, call: &BlasCall, tag: u64) -> f64 {
        let (m, n, k) = call.kernel.dims();
        let mut h = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(tag.wrapping_mul(0xff51afd7ed558ccd));
        h ^= (m as u64).wrapping_mul(0xc4ceb9fe1a85ec53);
        h ^= (n as u64).rotate_left(17).wrapping_mul(0xbf58476d1ce4e5b9);
        h ^= (k as u64).rotate_left(33).wrapping_mul(0x94d049bb133111eb);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58476d1ce4e5b9);
        h ^= h >> 32;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.amplitude * (unit - 0.5)
    }
}

/// One modelled heterogeneous HPC node.
///
/// GPU-side fields are optional so CPU-only configurations (the paper's
/// LUMI CPU-only build, or ArmPL/NVPL comparisons in Fig 3) can be
/// expressed.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// System name, e.g. `"Isambard-AI"`.
    pub name: &'static str,
    /// One-line hardware summary (Table II row).
    pub description: &'static str,
    /// CPU socket hardware model.
    pub cpu: CpuModel,
    /// CPU BLAS library (efficiency curve + quirks).
    pub cpu_lib: CpuLibrary,
    /// GPU device hardware model, if the node has one.
    pub gpu: Option<GpuModel>,
    /// GPU BLAS library, present iff `gpu` is.
    pub gpu_lib: Option<GpuLibrary>,
    /// Host–device interconnect, present iff `gpu` is.
    pub link: Option<LinkModel>,
    /// Unified-shared-memory behaviour, if the vendor supports USM.
    pub usm: Option<UsmModel>,
    /// Optional deterministic measurement jitter.
    pub noise: Option<Noise>,
}

impl SystemModel {
    /// Seconds for `iters` CPU iterations of `call`.
    pub fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
        let t = cpu_seconds(&self.cpu, &self.cpu_lib, call, iters);
        match self.noise {
            Some(n) => t * n.factor(call, 0x0C0FFEE),
            None => t,
        }
    }

    /// Seconds for `iters` GPU iterations of `call` under `offload`, or
    /// `None` for CPU-only configurations. Includes all host↔device data
    /// movement, matching the paper's GPU timing rule (§III-A).
    pub fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
        self.priced(call, iters, self.gpu_kernel_only_seconds(call)?, offload)
    }

    /// [`Self::gpu_seconds`] for each of `offloads` in order, skipping the
    /// ones this system cannot price, with the GPU kernel priced once
    /// rather than once per offload. Bit-identical to calling
    /// `gpu_seconds` per offload; empty on a CPU-only system.
    pub fn gpu_seconds_each<'a>(
        &'a self,
        call: &'a BlasCall,
        iters: u32,
        offloads: &'a [Offload],
    ) -> impl Iterator<Item = (Offload, f64)> + 'a {
        let kernel = self.gpu_kernel_only_seconds(call);
        offloads
            .iter()
            .filter_map(move |&o| Some((o, self.priced(call, iters, kernel?, o)?)))
    }

    /// The one place transfer, USM and first-touch costs are priced: total
    /// seconds for `iters` iterations of a GPU kernel taking `kernel`
    /// seconds per execution, moved under `offload`.
    fn priced(&self, call: &BlasCall, iters: u32, kernel: f64, offload: Offload) -> Option<f64> {
        let link = self.link.as_ref()?;
        let bytes_in = call.bytes_to_device();
        let bytes_out = call.bytes_from_device();
        let t = match offload {
            Offload::TransferOnce => {
                link.to_device_seconds(bytes_in)
                    + iters as f64 * kernel
                    + link.from_device_seconds(bytes_out)
            }
            Offload::TransferAlways => {
                iters as f64 * (link.round_trip_seconds(bytes_in, bytes_out) + kernel)
            }
            Offload::Unified => {
                let usm = self.usm.as_ref()?;
                usm.total_seconds(bytes_in, bytes_out, kernel, iters)
            }
            Offload::FirstTouch => {
                // Stateless cold path: a fresh problem faults every page
                // in. Warm/evicted re-use across calls is priced by the
                // dispatcher, which carries `firsttouch::Residency`.
                let usm = self.usm.as_ref()?;
                FirstTouchModel::from_usm(usm).total_seconds(bytes_in, bytes_out, kernel, iters)
            }
        };
        Some(match self.noise {
            Some(n) => t * n.factor(call, 0xD15C0 + offload as u64),
            None => t,
        })
    }

    /// GPU kernel-only seconds for one execution of `call` — no transfer
    /// or migration cost, no USM tax. The dispatcher prices its
    /// warm-residency path from this plus [`FirstTouchModel`].
    pub fn gpu_kernel_only_seconds(&self, call: &BlasCall) -> Option<f64> {
        let gpu = self.gpu.as_ref()?;
        let lib = self.gpu_lib.as_ref()?;
        Some(gpu_kernel_seconds(gpu, lib, call))
    }

    /// The system's first-touch migration pricing, derived from its USM
    /// model ([`FirstTouchModel::from_usm`]); `None` without USM support.
    pub fn first_touch_model(&self) -> Option<FirstTouchModel> {
        self.usm.as_ref().map(FirstTouchModel::from_usm)
    }

    /// CPU GFLOP/s over `iters` iterations using the paper's FLOPs formula.
    pub fn cpu_gflops(&self, call: &BlasCall, iters: u32) -> f64 {
        let t = self.cpu_seconds(call, iters);
        iters as f64 * call.paper_flops() / t / 1e9
    }

    /// GPU GFLOP/s (including transfer time) over `iters` iterations.
    pub fn gpu_gflops(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
        let t = self.gpu_seconds(call, iters, offload)?;
        Some(iters as f64 * call.paper_flops() / t / 1e9)
    }

    /// True when this configuration can time GPU runs.
    pub fn has_gpu(&self) -> bool {
        self.gpu.is_some() && self.gpu_lib.is_some() && self.link.is_some()
    }

    /// Returns a copy with deterministic noise enabled.
    pub fn with_noise(mut self, seed: u64, amplitude: f64) -> Self {
        self.noise = Some(Noise { seed, amplitude });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use blob_blas::scalar::Precision;

    #[test]
    fn cpu_only_system_has_no_gpu_times() {
        let sys = presets::isambard_ai_armpl();
        assert!(!sys.has_gpu());
        let c = BlasCall::gemm(Precision::F32, 64, 64, 64);
        assert!(sys.gpu_seconds(&c, 1, Offload::TransferOnce).is_none());
        assert!(sys.cpu_seconds(&c, 1) > 0.0);
    }

    #[test]
    fn transfer_always_costs_at_least_transfer_once() {
        let sys = presets::dawn();
        let c = BlasCall::gemm(Precision::F32, 512, 512, 512);
        for iters in [1u32, 8, 32, 128] {
            let once = sys.gpu_seconds(&c, iters, Offload::TransferOnce).unwrap();
            let always = sys.gpu_seconds(&c, iters, Offload::TransferAlways).unwrap();
            // equal at iters = 1 up to float addition order
            assert!(
                always >= once * (1.0 - 1e-12),
                "iters={iters}: {always} < {once}"
            );
        }
    }

    #[test]
    fn transfer_always_gap_grows_with_iterations() {
        let sys = presets::dawn();
        let c = BlasCall::gemm(Precision::F32, 512, 512, 512);
        let gap = |i: u32| {
            sys.gpu_seconds(&c, i, Offload::TransferAlways).unwrap()
                - sys.gpu_seconds(&c, i, Offload::TransferOnce).unwrap()
        };
        assert!(gap(8) > gap(1));
        assert!(gap(128) > gap(8));
    }

    #[test]
    fn gflops_consistent_with_seconds() {
        let sys = presets::lumi();
        let c = BlasCall::gemm(Precision::F64, 1024, 1024, 1024);
        let t = sys.cpu_seconds(&c, 4);
        let g = sys.cpu_gflops(&c, 4);
        assert!((g - 4.0 * c.paper_flops() / t / 1e9).abs() < 1e-9);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let sys = presets::dawn().with_noise(42, 0.05);
        let base = presets::dawn();
        let c = BlasCall::gemm(Precision::F32, 700, 700, 700);
        let t1 = sys.cpu_seconds(&c, 1);
        let t2 = sys.cpu_seconds(&c, 1);
        assert_eq!(t1, t2, "noise must be deterministic");
        let t0 = base.cpu_seconds(&c, 1);
        assert!((t1 / t0 - 1.0).abs() <= 0.025 + 1e-12);
    }

    #[test]
    fn noise_differs_between_devices_and_sizes() {
        let sys = presets::dawn().with_noise(7, 0.05);
        let c1 = BlasCall::gemm(Precision::F32, 700, 700, 700);
        let c2 = BlasCall::gemm(Precision::F32, 701, 701, 701);
        let r1 = sys.cpu_seconds(&c1, 1) / presets::dawn().cpu_seconds(&c1, 1);
        let r2 = sys.cpu_seconds(&c2, 1) / presets::dawn().cpu_seconds(&c2, 1);
        assert_ne!(r1, r2);
    }
}
