//! CPU socket performance model.
//!
//! Prices a BLAS call on one CPU socket driven by a concrete library, the
//! configuration the paper measures (one socket, one library, §IV). The
//! model is a roofline — `t = max(flops/rate, bytes/bandwidth)` — augmented
//! with the three effects the paper shows dominate real thresholds:
//!
//! 1. **Efficiency ramp**: achieved FLOP rate rises with problem size
//!    (thread fan-out, blocking, and packing only pay off once there is
//!    enough work), modelled as `eff(w) = eff_max · w / (w + w_half)`.
//! 2. **Per-call overhead**: library dispatch plus thread fork/join. NVPL
//!    pays it in full at every size (Fig 3); ArmPL scales threads — and so
//!    overhead — with problem size; single-threaded libraries barely pay it.
//! 3. **Cache warmth**: iterations after the first run faster while the
//!    working set is LLC-resident. This is the mechanism that makes
//!    Transfer-Always offload thresholds *grow* with iteration count
//!    (Table III): the CPU amortises cold misses across iterations, the
//!    per-iteration GPU transfer cannot.
//!
//! Library heuristic cliffs (oneMKL's 629 drop, etc.) layer on top as
//! [`Quirk`](crate::quirk::Quirk)s.

use crate::call::{BlasCall, Kernel};
use crate::quirk::{apply_quirks, Quirk};
use blob_blas::scalar::Precision;

/// Hardware description of one CPU socket.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Marketing name, e.g. `"Intel Xeon Platinum 8468"`.
    pub name: &'static str,
    /// Physical cores in the socket (the paper pins one full socket).
    pub cores: u32,
    /// Sustained all-core frequency in GHz.
    pub freq_ghz: f64,
    /// FP64 FLOPs per cycle per core; e.g. 32 for SPR with dual 512-bit
    /// FMA pipes, 16 for Zen 3 and Neoverse V2.
    pub fp64_flops_per_cycle_core: f64,
    /// FP32 throughput as a multiple of FP64 (2.0 for plain SIMD pipes;
    /// matrix engines can skew it — see [`crate::engine`]).
    pub fp32_ratio: f64,
    /// Sustained socket DRAM stream bandwidth, GB/s.
    pub dram_gbs: f64,
    /// Sustained single-core stream bandwidth, GB/s (caps serial GEMV).
    pub single_core_gbs: f64,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: f64,
    /// Aggregate LLC bandwidth, GB/s.
    pub llc_gbs: f64,
}

impl CpuModel {
    /// Theoretical peak GFLOP/s for `threads` active cores.
    pub fn peak_gflops(&self, precision: Precision, threads: u32) -> f64 {
        let active = threads.clamp(1, self.cores) as f64;
        let per_cycle = match precision {
            Precision::F32 => self.fp64_flops_per_cycle_core * self.fp32_ratio,
            Precision::F64 => self.fp64_flops_per_cycle_core,
            // software bf16/f16 widen to f32 and run the f32 pipes — the
            // useful-FLOP rate is the f32 rate (no CPU matrix engine here)
            Precision::Bf16 | Precision::F16 => self.fp64_flops_per_cycle_core * self.fp32_ratio,
            // Ozaki emulation pays K(K+1)/2 f32 GEMMs per useful f64 GEMM
            Precision::F64Emul(_) => {
                let pairs = precision.emul_products().unwrap_or(1) as f64;
                self.fp64_flops_per_cycle_core * self.fp32_ratio / pairs
            }
        };
        active * self.freq_ghz * per_cycle
    }

    /// FP64 FLOPs per cycle for the whole socket — the figure the paper
    /// quotes when comparing DAWN (1536) and LUMI (896).
    pub fn socket_flops_per_cycle(&self) -> f64 {
        self.cores as f64 * self.fp64_flops_per_cycle_core
    }
}

/// A CPU BLAS library configuration: efficiency envelope, threading
/// behaviour, and heuristic quirks.
#[derive(Debug, Clone)]
pub struct CpuLibrary {
    /// Library name + version as the paper cites it, e.g. `"oneMKL 2024.1"`.
    pub name: &'static str,
    /// Threads the benchmark configures (`OMP_NUM_THREADS` / a full socket).
    pub threads: u32,
    /// Peak fraction of hardware FLOPs large GEMM achieves.
    pub gemm_eff_max: f64,
    /// FLOPs at which GEMM efficiency reaches half of `gemm_eff_max`.
    pub gemm_half_work: f64,
    /// FP64-specific half-work override (`None` = same as FP32). Used when
    /// a matrix engine accelerates one precision but not the other.
    pub gemm_half_work_f64: Option<f64>,
    /// Whether GEMV is multithreaded. AOCL famously is not (Fig 6) — its
    /// GEMV is then capped by *single-core* bandwidth.
    pub gemv_parallel: bool,
    /// Fraction of the relevant stream bandwidth GEMV achieves.
    pub gemv_bw_eff: f64,
    /// Per-call dispatch + fork/join overhead in microseconds.
    pub call_overhead_us: f64,
    /// ArmPL-style adaptive threading: thread count — and hence fork/join
    /// overhead — scales with problem size instead of always waking every
    /// thread (contrast NVPL, Fig 3).
    pub adaptive_threading: bool,
    /// Whether the library implements the β=0 short-circuit (Table I).
    pub beta0_opt: bool,
    /// Compute-rate multiplier for LLC-resident repeat iterations.
    pub warm_rate_boost: f64,
    /// Aspect-ratio penalty coefficient for rectangular GEMM: the achieved
    /// rate divides by `1 + shape_penalty * ln(max_dim/min_dim)/ln(16)`.
    /// CPU blocking/packing strategies are tuned for square-ish operands
    /// (Castelló et al., cited by the paper), so skinny shapes lose more
    /// efficiency on the CPU than on a GPU.
    pub shape_penalty: f64,
    /// Heuristic cliffs and steps observed for this library.
    pub quirks: Vec<Quirk>,
}

impl CpuLibrary {
    /// The GEMM ramp half-work for a precision.
    pub fn half_work_for(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F64 => self.gemm_half_work_f64.unwrap_or(self.gemm_half_work),
            // half formats and emulation both ride the f32 ramp: the
            // underlying kernels are the f32 ones
            Precision::F32 | Precision::Bf16 | Precision::F16 | Precision::F64Emul(_) => {
                self.gemm_half_work
            }
        }
    }
}

/// Cold (first) and warm (subsequent) per-iteration cost of a call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterCost {
    /// Seconds for the first iteration (cold caches).
    pub cold: f64,
    /// Seconds for each subsequent iteration (warmed caches).
    pub warm: f64,
}

impl IterCost {
    /// Total seconds for `iters` iterations.
    pub fn total(&self, iters: u32) -> f64 {
        if iters == 0 {
            0.0
        } else {
            self.cold + (iters as f64 - 1.0) * self.warm
        }
    }
}

/// Fraction of the working set that stays LLC-resident between iterations.
///
/// Full residency while the working set fits the (usable) LLC, then a sharp
/// cubic fall-off: once the set meaningfully exceeds the cache, iterations
/// evict each other's data and the warm advantage collapses. The sharpness
/// is what puts DAWN's square-GEMV offload thresholds right at the point
/// where the matrix spills out of the Xeon's LLC (§IV-B).
fn residency(ws_bytes: f64, llc_bytes: f64) -> f64 {
    if ws_bytes <= 0.0 {
        return 1.0;
    }
    // ~binary: full benefit while resident, rapid collapse once the set
    // exceeds the usable cache (mutual eviction between iterations)
    (llc_bytes / ws_bytes).min(1.0).powi(12)
}

/// Effective per-call overhead in seconds.
fn overhead_seconds(lib: &CpuLibrary, work: f64) -> f64 {
    let base = lib.call_overhead_us * 1e-6;
    if lib.adaptive_threading {
        // Thread count ramps with available work; overhead follows. The
        // square root mimics a thread count chosen proportional to the
        // problem's surface rather than its volume.
        let scale = (work / lib.gemm_half_work).sqrt().clamp(0.02, 1.0);
        (base * scale).max(0.5e-6)
    } else {
        base.max(0.5e-6)
    }
}

/// Prices one call on `(model, lib)` and returns cold/warm per-iteration
/// costs, with all library quirks applied.
pub fn cpu_iter_cost(model: &CpuModel, lib: &CpuLibrary, call: &BlasCall) -> IterCost {
    let work = call.library_flops(lib.beta0_opt);
    let bytes = call.bytes_streamed_lib(lib.beta0_opt);
    let ws = call.working_set();
    let res = residency(ws, model.llc_bytes);

    let (cold_core, warm_core) = match call.kernel {
        Kernel::Gemm { .. } => {
            let peak = model.peak_gflops(call.precision, lib.threads) * 1e9;
            let half_work = lib.half_work_for(call.precision);
            let eff = lib.gemm_eff_max * work / (work + half_work);
            // Small problems are not priced by the parallel ramp (which
            // would impose a constant-time floor of half_work/peak): they
            // run at a serial-ish floor rate, with latency covered by the
            // per-call overhead term.
            let floor = model.peak_gflops(call.precision, 1) * 1e9 * 0.6;
            let (m, n, k) = call.kernel.dims();
            let min_dim = m.min(n).min(k);
            let aspect = (m.max(n).max(k) as f64) / (min_dim.max(1) as f64);
            // The penalty only bites when every dimension is large enough
            // for the library's blocked path: shapes with one tiny fixed
            // dimension (the paper's {32}-problems) take specialised
            // small-dimension kernels that stay efficient.
            let shape = if min_dim >= 64 {
                1.0 + lib.shape_penalty * aspect.ln() / 16f64.ln()
            } else {
                1.0
            };
            let rate = ((peak * eff).max(floor) / shape).max(1.0);
            let t_comp = work / rate;
            let t_mem_cold = bytes / (model.dram_gbs * 1e9);
            let cold = t_comp.max(t_mem_cold);
            // Warm: LLC-resident fraction is served at LLC bandwidth and
            // the compute rate improves (packing/panel reuse hits cache).
            // capped at the hardware peak: warmth cannot beat physics
            let warm_rate = (rate * (1.0 + (lib.warm_rate_boost - 1.0) * res)).min(peak);
            let t_mem_warm =
                bytes * ((1.0 - res) / (model.dram_gbs * 1e9) + res / (model.llc_gbs * 1e9));
            let warm = (work / warm_rate).max(t_mem_warm);
            (cold, warm)
        }
        Kernel::Gemv { .. } => {
            // Bandwidth-bound. A serial library (AOCL) is capped by one
            // core's stream bandwidth regardless of socket width.
            let stream_gbs = if lib.gemv_parallel {
                model.dram_gbs
            } else {
                model.single_core_gbs
            };
            let bw = stream_gbs * lib.gemv_bw_eff * 1e9;
            let cold = bytes / bw;
            // Warm: the LLC-resident fraction streams from cache. A serial
            // library gains little: one core cannot consume LLC bandwidth.
            let warm_bw = if lib.gemv_parallel {
                let llc = model.llc_gbs * lib.gemv_bw_eff * 1e9;
                1.0 / ((1.0 - res) / bw + res / llc)
            } else {
                bw * (1.0 + 0.5 * res)
            };
            let warm = bytes / warm_bw;
            (cold, warm)
        }
    };

    let mut oh = overhead_seconds(lib, work);
    // A library that runs GEMV on one thread pays no fork/join for it.
    if matches!(call.kernel, Kernel::Gemv { .. }) && !lib.gemv_parallel {
        oh = oh.min(1.5e-6);
    }
    let cold = apply_quirks(&lib.quirks, call, cold_core + oh);
    let warm = apply_quirks(&lib.quirks, call, warm_core + oh);
    IterCost { cold, warm }
}

/// Total CPU seconds for `iters` iterations of `call`.
pub fn cpu_seconds(model: &CpuModel, lib: &CpuLibrary, call: &BlasCall, iters: u32) -> f64 {
    cpu_iter_cost(model, lib, call).total(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CpuModel {
        CpuModel {
            name: "test-cpu",
            cores: 48,
            freq_ghz: 2.0,
            fp64_flops_per_cycle_core: 32.0,
            fp32_ratio: 2.0,
            dram_gbs: 300.0,
            single_core_gbs: 20.0,
            llc_bytes: 100e6,
            llc_gbs: 1500.0,
        }
    }

    fn lib() -> CpuLibrary {
        CpuLibrary {
            name: "test-lib",
            threads: 48,
            gemm_eff_max: 0.9,
            gemm_half_work: 1e8,
            gemm_half_work_f64: None,
            gemv_parallel: true,
            gemv_bw_eff: 0.9,
            call_overhead_us: 5.0,
            adaptive_threading: false,
            beta0_opt: true,
            warm_rate_boost: 1.3,
            shape_penalty: 0.5,
            quirks: vec![],
        }
    }

    fn sgemm(s: usize) -> BlasCall {
        BlasCall::gemm(Precision::F32, s, s, s)
    }

    fn sgemv(s: usize) -> BlasCall {
        BlasCall::gemv(Precision::F32, s, s)
    }

    #[test]
    fn peak_flops_precision_and_threads() {
        let m = model();
        assert_eq!(m.peak_gflops(Precision::F64, 48), 48.0 * 2.0 * 32.0);
        assert_eq!(
            m.peak_gflops(Precision::F32, 48),
            2.0 * m.peak_gflops(Precision::F64, 48)
        );
        assert_eq!(m.peak_gflops(Precision::F64, 1), 64.0);
        // clamped to socket
        assert_eq!(
            m.peak_gflops(Precision::F64, 999),
            m.peak_gflops(Precision::F64, 48)
        );
        assert_eq!(m.socket_flops_per_cycle(), 1536.0);
    }

    #[test]
    fn emulation_prices_its_slice_pair_products() {
        let m = model();
        for k in 2..=4 {
            let p = Precision::F64Emul(k);
            let pairs = p.emul_products().unwrap() as f64;
            let f32_rate = m.peak_gflops(Precision::F32, 48);
            assert!((m.peak_gflops(p, 48) * pairs - f32_rate).abs() <= 1e-12 * f32_rate);
        }
    }

    #[test]
    fn gemm_time_grows_with_size() {
        let (m, l) = (model(), lib());
        let t1 = cpu_seconds(&m, &l, &sgemm(128), 1);
        let t2 = cpu_seconds(&m, &l, &sgemm(256), 1);
        let t3 = cpu_seconds(&m, &l, &sgemm(1024), 1);
        assert!(t1 < t2 && t2 < t3);
    }

    #[test]
    fn gemm_efficiency_ramps_up() {
        // GFLOP/s must increase with size (ramp), approaching eff_max * peak
        let (m, l) = (model(), lib());
        let g = |s: usize| {
            let c = sgemm(s);
            c.paper_flops() / cpu_seconds(&m, &l, &c, 1) / 1e9
        };
        assert!(g(64) < g(512));
        assert!(g(512) < g(4096));
        let peak = m.peak_gflops(Precision::F32, 48);
        assert!(g(4096) < peak);
        assert!(g(4096) > 0.5 * l.gemm_eff_max * peak);
    }

    #[test]
    fn overhead_dominates_tiny_problems() {
        let (m, l) = (model(), lib());
        let t = cpu_seconds(&m, &l, &sgemm(2), 1);
        // ~ the 5 us call overhead
        assert!(t >= 5e-6, "t = {t}");
        assert!(t < 10e-6);
    }

    #[test]
    fn warm_iterations_cheaper_when_cache_resident() {
        let (m, l) = (model(), lib());
        // 256^3 f32 working set = 0.75 MB << 100 MB LLC
        let c = cpu_iter_cost(&m, &l, &sgemm(256));
        assert!(c.warm < c.cold);
        // 4096^2*3*4B = 200 MB >> LLC: warm about equals cold
        let big = cpu_iter_cost(&m, &l, &sgemm(4096));
        assert!(big.warm <= big.cold);
        let warm_gain_small = c.cold / c.warm;
        let warm_gain_big = big.cold / big.warm;
        assert!(warm_gain_small > warm_gain_big);
    }

    #[test]
    fn total_is_cold_plus_warm() {
        let (m, l) = (model(), lib());
        let ic = cpu_iter_cost(&m, &l, &sgemm(300));
        let t8 = cpu_seconds(&m, &l, &sgemm(300), 8);
        assert!((t8 - (ic.cold + 7.0 * ic.warm)).abs() < 1e-15);
        assert_eq!(cpu_seconds(&m, &l, &sgemm(300), 0), 0.0);
    }

    #[test]
    fn serial_gemv_capped_by_single_core_bw() {
        let m = model();
        let mut serial = lib();
        serial.gemv_parallel = false;
        let parallel = lib();
        let c = sgemv(2048);
        let t_serial = cpu_seconds(&m, &serial, &c, 1);
        let t_parallel = cpu_seconds(&m, &parallel, &c, 1);
        // parallel streams at 300 GB/s vs 20 GB/s single core: ~15x
        assert!(t_serial > 10.0 * t_parallel, "{t_serial} vs {t_parallel}");
    }

    #[test]
    fn gemv_is_bandwidth_priced() {
        let (m, l) = (model(), lib());
        let c = sgemv(4096);
        let t = cpu_seconds(&m, &l, &c, 1);
        let expect = c.bytes_streamed() / (m.dram_gbs * l.gemv_bw_eff * 1e9);
        // overhead is small at this size
        assert!((t - expect) / expect < 0.1);
    }

    #[test]
    fn adaptive_threading_shrinks_small_size_overhead() {
        let m = model();
        let mut adaptive = lib();
        adaptive.adaptive_threading = true;
        let fixed = lib();
        let tiny = sgemm(8);
        let t_a = cpu_seconds(&m, &adaptive, &tiny, 1);
        let t_f = cpu_seconds(&m, &fixed, &tiny, 1);
        assert!(t_a < t_f, "{t_a} vs {t_f}");
        // at large sizes, both pay full overhead; times converge
        let big = sgemm(2048);
        let ratio = cpu_seconds(&m, &adaptive, &big, 1) / cpu_seconds(&m, &fixed, &big, 1);
        assert!((ratio - 1.0).abs() < 0.01);
    }

    #[test]
    fn beta0_opt_saves_time_at_beta_zero_only() {
        let m = model();
        let with_opt = lib();
        let mut without = lib();
        without.beta0_opt = false;
        // K=4 shape from Table I: the 3MN term matters
        let c = BlasCall::gemm(Precision::F32, 2048, 2048, 4);
        let t_opt = cpu_seconds(&m, &with_opt, &c, 1);
        let t_noopt = cpu_seconds(&m, &without, &c, 1);
        assert!(t_noopt > t_opt);
        // at beta != 0, both do full work
        let cb = c.with_scalars(1.0, 2.0);
        let tb_opt = cpu_seconds(&m, &with_opt, &cb, 1);
        let tb_noopt = cpu_seconds(&m, &without, &cb, 1);
        assert!((tb_opt - tb_noopt).abs() < 1e-12);
    }

    #[test]
    fn quirk_cliff_shows_in_time() {
        use crate::quirk::{DimSel, QuirkShape};
        let m = model();
        let mut l = lib();
        l.quirks.push(Quirk {
            name: "mkl-629",
            kernel: Some(crate::call::KernelKind::Gemm),
            precision: None,
            dims_filter: None,
            dim: DimSel::Min,
            shape: QuirkShape::DropRecover {
                start: 629,
                penalty: 2.0,
                span: 2000,
            },
        });
        let t628 = cpu_seconds(&m, &l, &sgemm(628), 1);
        let t629 = cpu_seconds(&m, &l, &sgemm(629), 1);
        // cliff: 629 is slower than 628 by nearly 2x despite being bigger
        assert!(t629 > 1.8 * t628);
    }
}
