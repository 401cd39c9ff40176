//! The register-tiled GEMM micro-kernel: portable scalar variants plus
//! explicit-SIMD (`core::arch::x86_64`) variants behind a runtime-detected
//! kernel-variant dispatch table.
//!
//! Computes an `mr × nr` tile of `C += A·B` from packed panel slivers. The
//! accumulator lives in registers for the whole rank-`kc` update; the scalar
//! fallback expresses the rank-1 update with `mul_add` so it autovectorizes,
//! while the SIMD variants issue FMA intrinsics directly at the geometry the
//! autotuner selected.
//!
//! Tile geometries are **tuned, not assumed**: `gpu-blob tune` searches the
//! candidate set in [`candidates`] per host/precision and persists the
//! winner (see [`crate::tune`]). The historical `MR = 8`/`NR = 4` geometry
//! is kept as [`MR`]/[`NR`] — it is the portable default used when no
//! tuning profile is loaded, not a hardware assumption.
//!
//! ## Safety contract for the SIMD variants
//!
//! This file (with [`crate::pack`]) is the workspace's only sanctioned home
//! for `unsafe` and `core::arch` intrinsics — enforced by the
//! `no-unchecked-simd` blob-check rule. Every `#[target_feature]` function
//! is `unsafe fn` with a `# Safety` section stating its contract, which is
//! always the same two-part obligation:
//!
//! 1. **CPU support**: the caller must have verified the named feature set
//!    at runtime. The only callers are the `ukernel_arch_*`/`axpy_arch_*`
//!    dispatchers below, which check [`Engine::available`] (backed by
//!    `is_x86_feature_detected!`) before every call.
//! 2. **Bounds**: raw-pointer loads/stores stay in bounds. Each kernel
//!    `assert!`s the full slice-length requirement once on entry, so the
//!    per-iteration pointer arithmetic is covered by a proof hoisted out of
//!    the hot loop.

// The workspace denies `unsafe_code`; this module (and `pack`) are the two
// sanctioned exceptions, policed by the stricter `no-unchecked-simd` rule
// (intrinsics confined here, every `unsafe fn` documents its contract).
#![allow(unsafe_code)]

use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Default micro-tile rows (the portable geometry, used when no tuning
/// profile is loaded).
pub const MR: usize = 8;
/// Default micro-tile columns.
pub const NR: usize = 4;
/// Largest micro-tile rows any kernel variant may use.
pub const MAX_MR: usize = 32;
/// Largest micro-tile columns any kernel variant may use.
pub const MAX_NR: usize = 8;
/// Accumulator capacity covering every candidate geometry.
pub const MAX_ACC: usize = MAX_MR * MAX_NR;

/// A candidate micro-tile geometry: `mr` rows × `nr` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Micro-tile rows (register-blocked rows of `C`).
    pub mr: usize,
    /// Micro-tile columns.
    pub nr: usize,
}

impl Geometry {
    /// A geometry, as given (validity against an engine is checked by
    /// [`supports`]).
    pub const fn new(mr: usize, nr: usize) -> Self {
        Self { mr, nr }
    }

    /// Accumulator length for this geometry (`mr · nr`).
    pub const fn acc_len(self) -> usize {
        self.mr * self.nr
    }
}

impl std::fmt::Display for Geometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.mr, self.nr)
    }
}

/// Kernel engine: which instruction set the inner kernels are written in.
///
/// Selected once at startup by [`active_engine`]; the autotuner may persist
/// a specific engine per precision, which [`crate::tune::active`] degrades
/// to [`Engine::Scalar`] when the host cannot run it (stale profile) or
/// when `GPU_BLOB_NO_SIMD=1` forces the portable path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Portable `mul_add` kernels — correct everywhere, relies on the
    /// autovectorizer.
    Scalar,
    /// Explicit 256-bit AVX2 + FMA intrinsics.
    Avx2Fma,
    /// Explicit 512-bit AVX-512F intrinsics.
    Avx512,
}

impl Engine {
    /// Stable label used in tuning profiles and log lines.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Avx2Fma => "avx2fma",
            Engine::Avx512 => "avx512",
        }
    }

    /// Parses a [`label`](Engine::label) back into an engine.
    pub fn parse_label(s: &str) -> Option<Engine> {
        match s {
            "scalar" => Some(Engine::Scalar),
            "avx2fma" => Some(Engine::Avx2Fma),
            "avx512" => Some(Engine::Avx512),
            _ => None,
        }
    }

    /// True when the running CPU can execute this engine's instructions
    /// (pure hardware capability — ignores `GPU_BLOB_NO_SIMD`).
    pub fn available(self) -> bool {
        match self {
            Engine::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Engine::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Runtime detection: the fastest available engine, or [`Engine::Scalar`]
    /// when the `GPU_BLOB_NO_SIMD` environment variable is set to anything
    /// but `0`/empty (the forced-scalar escape hatch CI exercises).
    pub fn detect() -> Engine {
        if forced_scalar() {
            return Engine::Scalar;
        }
        if Engine::Avx512.available() {
            Engine::Avx512
        } else if Engine::Avx2Fma.available() {
            Engine::Avx2Fma
        } else {
            Engine::Scalar
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// True when `GPU_BLOB_NO_SIMD` requests the portable scalar path.
fn forced_scalar() -> bool {
    match std::env::var("GPU_BLOB_NO_SIMD") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

/// The engine selected once at startup (first use), cached for the process
/// lifetime. Honours `GPU_BLOB_NO_SIMD`.
pub fn active_engine() -> Engine {
    static ACTIVE: OnceLock<Engine> = OnceLock::new();
    *ACTIVE.get_or_init(Engine::detect)
}

/// Candidate micro-tile geometries for one `(engine, element size)` pair —
/// the search space `gpu-blob tune` sweeps. Every entry has a matching
/// kernel instantiation, so [`supports`] ⇔ membership in this list.
pub fn candidates(engine: Engine, elem_bytes: usize) -> &'static [Geometry] {
    const fn g(mr: usize, nr: usize) -> Geometry {
        Geometry::new(mr, nr)
    }
    // Portable scalar kernels exist for the union of the SIMD sets.
    const SCALAR: [Geometry; 9] = [
        g(8, 4),
        g(8, 6),
        g(4, 8),
        g(8, 8),
        g(16, 4),
        g(16, 6),
        g(16, 8),
        g(24, 4),
        g(32, 4),
    ];
    // 256-bit: 4 f64 / 8 f32 lanes per vector.
    const AVX2_F64: [Geometry; 4] = [g(8, 4), g(8, 6), g(4, 8), g(16, 4)];
    const AVX2_F32: [Geometry; 4] = [g(8, 4), g(8, 6), g(8, 8), g(16, 4)];
    // 512-bit: 8 f64 / 16 f32 lanes per vector — the wider register file
    // (32 zmm) makes much larger tiles profitable.
    const AVX512_F64: [Geometry; 8] = [
        g(8, 4),
        g(8, 6),
        g(8, 8),
        g(16, 4),
        g(16, 6),
        g(16, 8),
        g(24, 4),
        g(32, 4),
    ];
    const AVX512_F32: [Geometry; 4] = [g(16, 4), g(16, 6), g(16, 8), g(32, 4)];
    match (engine, elem_bytes) {
        (Engine::Scalar, _) => &SCALAR,
        (Engine::Avx2Fma, 8) => &AVX2_F64,
        (Engine::Avx2Fma, 4) => &AVX2_F32,
        (Engine::Avx512, 8) => &AVX512_F64,
        (Engine::Avx512, 4) => &AVX512_F32,
        _ => &[],
    }
}

/// True when `(engine, geometry)` has a kernel instantiation for elements
/// of `elem_bytes` bytes.
pub fn supports(engine: Engine, geom: Geometry, elem_bytes: usize) -> bool {
    candidates(engine, elem_bytes).contains(&geom)
}

/// Rank-`kc` update of an `MR_ × NR_` accumulator — the const-specialized
/// portable kernel the compiler fully unrolls per geometry.
#[inline]
fn ukernel_fixed<T: Scalar, const MR_: usize, const NR_: usize>(
    kc: usize,
    a: &[T],
    b: &[T],
    acc: &mut [T],
) {
    debug_assert!(a.len() >= kc * MR_, "packed A sliver too short");
    debug_assert!(b.len() >= kc * NR_, "packed B sliver too short");
    debug_assert!(acc.len() >= MR_ * NR_, "accumulator too short");
    for p in 0..kc {
        let ap = &a[p * MR_..p * MR_ + MR_];
        let bp = &b[p * NR_..p * NR_ + NR_];
        for j in 0..NR_ {
            let bv = bp[j];
            let col = &mut acc[j * MR_..j * MR_ + MR_];
            for i in 0..MR_ {
                col[i] = ap[i].mul_add(bv, col[i]);
            }
        }
    }
}

/// Portable scalar micro-kernel for an arbitrary geometry.
///
/// Known candidate geometries dispatch to a const-specialized instantiation
/// (fully unrolled, autovectorized); anything else falls through to the
/// dynamic loop so the kernel is total over geometries.
pub fn ukernel_dyn<T: Scalar>(geom: Geometry, kc: usize, a: &[T], b: &[T], acc: &mut [T]) {
    match (geom.mr, geom.nr) {
        (8, 4) => ukernel_fixed::<T, 8, 4>(kc, a, b, acc),
        (8, 6) => ukernel_fixed::<T, 8, 6>(kc, a, b, acc),
        (4, 8) => ukernel_fixed::<T, 4, 8>(kc, a, b, acc),
        (8, 8) => ukernel_fixed::<T, 8, 8>(kc, a, b, acc),
        (16, 4) => ukernel_fixed::<T, 16, 4>(kc, a, b, acc),
        (16, 6) => ukernel_fixed::<T, 16, 6>(kc, a, b, acc),
        (16, 8) => ukernel_fixed::<T, 16, 8>(kc, a, b, acc),
        (24, 4) => ukernel_fixed::<T, 24, 4>(kc, a, b, acc),
        (32, 4) => ukernel_fixed::<T, 32, 4>(kc, a, b, acc),
        (mr, nr) => {
            debug_assert!(a.len() >= kc * mr && b.len() >= kc * nr && acc.len() >= mr * nr);
            for p in 0..kc {
                let ap = &a[p * mr..p * mr + mr];
                let bp = &b[p * nr..p * nr + nr];
                for j in 0..nr {
                    let bv = bp[j];
                    let col = &mut acc[j * mr..j * mr + mr];
                    for i in 0..mr {
                        col[i] = ap[i].mul_add(bv, col[i]);
                    }
                }
            }
        }
    }
}

/// The classic portable micro-kernel at the default [`MR`]×[`NR`] geometry
/// — kept as the fallback every other variant is validated against.
///
/// `a` holds `kc` groups of `MR` consecutive elements (one per tile row);
/// `b` holds `kc` groups of `NR` consecutive elements (one per tile column).
/// `acc` is column-major: `acc[i + j * MR]` is tile element `(i, j)`.
#[inline]
pub fn ukernel<T: Scalar>(kc: usize, a: &[T], b: &[T], acc: &mut [T; MR * NR]) {
    ukernel_fixed::<T, MR, NR>(kc, a, b, acc);
}

/// Runs the selected kernel variant for one micro-tile.
///
/// Dispatches to the explicit-SIMD kernel when `engine`/`geom` name an
/// instantiated variant the CPU can run, and to [`ukernel_dyn`] otherwise —
/// so the call is total and safe for every `(engine, geom)` pair. Both
/// paths accumulate in the same per-element order (one FMA per `k` step),
/// so SIMD and scalar results are **bit-identical** — the property the
/// `simd_agreement` suite asserts.
pub fn run_ukernel<T: Scalar>(
    engine: Engine,
    geom: Geometry,
    kc: usize,
    a: &[T],
    b: &[T],
    acc: &mut [T],
) {
    if engine != Engine::Scalar && T::ukernel_arch(engine, geom, kc, a, b, acc) {
        return;
    }
    ukernel_dyn(geom, kc, a, b, acc);
}

/// Fused `dst[i] ← src[i]·w + dst[i]` over `dst.len()` elements — the GEMV
/// column-update (axpy) inner kernel, dispatched through `engine`.
///
/// One FMA per element in index order on every path, so SIMD and scalar
/// results are bit-identical.
pub fn axpy_update_with<T: Scalar>(engine: Engine, w: T, src: &[T], dst: &mut [T]) {
    debug_assert!(
        src.len() >= dst.len(),
        "axpy source shorter than destination"
    );
    if engine != Engine::Scalar && T::axpy_arch(engine, w, src, dst) {
        return;
    }
    for i in 0..dst.len() {
        dst[i] = src[i].mul_add(w, dst[i]);
    }
}

/// [`axpy_update_with`] on the startup-selected [`active_engine`].
#[inline]
pub fn axpy_update<T: Scalar>(w: T, src: &[T], dst: &mut [T]) {
    axpy_update_with(active_engine(), w, src, dst);
}

/// Writes an accumulator tile into `C` with BLAS beta semantics.
///
/// `acc` is column-major with leading dimension `acc_ld` (the geometry's
/// `mr`), in `C`'s compute type. Only the `mr_eff × nr_eff` valid corner
/// is stored (edge tiles have zero-padded slivers whose extra rows/columns
/// must not leak into `C`). β is applied in the compute type and each
/// element is narrowed to `C`'s storage type once (the identity for
/// `f32`/`f64`). When `beta == 0`, `C` is overwritten without being read —
/// required by BLAS so an uninitialised `C` never contaminates the product.
#[inline]
pub fn store_tile<T: Scalar>(
    acc: &[T::Acc],
    acc_ld: usize,
    c: &mut [T],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    beta: T::Acc,
) {
    debug_assert!(mr_eff <= acc_ld);
    debug_assert!(nr_eff == 0 || acc.len() >= (nr_eff - 1) * acc_ld + mr_eff);
    debug_assert!(
        (nr_eff == 0 && mr_eff == 0) || c.len() >= (nr_eff - 1) * ldc + mr_eff,
        "C tile slice too short"
    );
    if beta == T::Acc::ZERO {
        for j in 0..nr_eff {
            for i in 0..mr_eff {
                c[i + j * ldc] = T::narrow(acc[i + j * acc_ld]);
            }
        }
    } else if beta == T::Acc::ONE {
        for j in 0..nr_eff {
            for i in 0..mr_eff {
                let idx = i + j * ldc;
                c[idx] = T::narrow(c[idx].widen() + acc[i + j * acc_ld]);
            }
        }
    } else {
        for j in 0..nr_eff {
            for i in 0..mr_eff {
                let idx = i + j * ldc;
                c[idx] = T::narrow(c[idx].widen().mul_add(beta, acc[i + j * acc_ld]));
            }
        }
    }
}

/// The explicit-SIMD kernel instantiations (x86-64 only).
///
/// Everything here is reached exclusively through the `*_arch_*` dispatch
/// functions below, which verify [`Engine::available`] first — see the
/// module-level safety contract.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// Generates one GEMM micro-kernel: `MRV` vectors of `$w` lanes per
    /// row-chunk × `NR_` columns, rank-`kc` FMA update, accumulated into
    /// `acc` (column-major, leading dimension `MRV·$w`).
    macro_rules! simd_gemm_ukernel {
        ($(#[$doc:meta])* $name:ident, $feat:literal, $elem:ty, $vec:ty, $w:expr,
         $loadu:ident, $set1:ident, $fmadd:ident, $add:ident, $storeu:ident) => {
            $(#[$doc])*
            ///
            /// # Safety
            ///
            /// The caller must have verified at runtime that the CPU
            /// supports the features named in this function's
            /// `#[target_feature]` attribute (the dispatchers check
            /// [`Engine::available`](super::Engine::available) first).
            /// Slice bounds are asserted on entry, so the raw-pointer
            /// arithmetic below cannot leave the slices.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name<const MRV: usize, const NR_: usize>(
                kc: usize,
                a: &[$elem],
                b: &[$elem],
                acc: &mut [$elem],
            ) {
                let mr = MRV * $w;
                assert!(a.len() >= kc * mr, "packed A sliver too short");
                assert!(b.len() >= kc * NR_, "packed B sliver too short");
                assert!(acc.len() >= mr * NR_, "accumulator too short");
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                let cp = acc.as_mut_ptr();
                let mut accv = [[$set1(0.0); NR_]; MRV];
                for p in 0..kc {
                    let mut av = [$set1(0.0); MRV];
                    for v in 0..MRV {
                        // SAFETY: p < kc and v < MRV, so the entry assert
                        // on `a.len()` covers `p*mr + v*$w + $w`.
                        av[v] = unsafe { $loadu(ap.add(p * mr + v * $w)) };
                    }
                    for j in 0..NR_ {
                        // SAFETY: p < kc, j < NR_; covered by the `b.len()`
                        // entry assert.
                        let bv = $set1(unsafe { *bp.add(p * NR_ + j) });
                        for v in 0..MRV {
                            accv[v][j] = $fmadd(av[v], bv, accv[v][j]);
                        }
                    }
                }
                for j in 0..NR_ {
                    for v in 0..MRV {
                        let at = j * mr + v * $w;
                        // SAFETY: j < NR_ and v < MRV, so the entry assert
                        // on `acc.len()` covers `at + $w`.
                        unsafe {
                            let cur = $loadu(cp.add(at) as *const $elem);
                            $storeu(cp.add(at), $add(cur, accv[v][j]));
                        }
                    }
                }
            }
        };
    }

    simd_gemm_ukernel!(
        /// AVX2+FMA f64 GEMM micro-kernel (4 lanes per 256-bit vector).
        gemm_f64_avx2, "avx2,fma", f64, __m256d, 4,
        _mm256_loadu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_add_pd, _mm256_storeu_pd
    );
    simd_gemm_ukernel!(
        /// AVX2+FMA f32 GEMM micro-kernel (8 lanes per 256-bit vector).
        gemm_f32_avx2, "avx2,fma", f32, __m256, 8,
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_add_ps, _mm256_storeu_ps
    );
    simd_gemm_ukernel!(
        /// AVX-512F f64 GEMM micro-kernel (8 lanes per 512-bit vector).
        gemm_f64_avx512, "avx512f", f64, __m512d, 8,
        _mm512_loadu_pd, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_add_pd, _mm512_storeu_pd
    );
    simd_gemm_ukernel!(
        /// AVX-512F f32 GEMM micro-kernel (16 lanes per 512-bit vector).
        gemm_f32_avx512, "avx512f", f32, __m512, 16,
        _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_add_ps, _mm512_storeu_ps
    );

    /// Generates one axpy kernel: `dst[i] ← src[i]·w + dst[i]`, vector main
    /// loop plus a scalar tail in the same per-element order.
    macro_rules! simd_axpy {
        ($(#[$doc:meta])* $name:ident, $feat:literal, $elem:ty, $w:expr,
         $loadu:ident, $set1:ident, $fmadd:ident, $storeu:ident) => {
            $(#[$doc])*
            ///
            /// # Safety
            ///
            /// The caller must have verified at runtime that the CPU
            /// supports the features named in `#[target_feature]` (the
            /// dispatchers check [`Engine::available`](super::Engine::
            /// available) first). Slice bounds are asserted on entry.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(w: $elem, src: &[$elem], dst: &mut [$elem]) {
                let n = dst.len();
                assert!(src.len() >= n, "axpy source shorter than destination");
                let wv = $set1(w);
                let sp = src.as_ptr();
                let dp = dst.as_mut_ptr();
                let mut i = 0;
                while i + $w <= n {
                    // SAFETY: i + $w <= n and the entry assert covers src.
                    unsafe {
                        let s = $loadu(sp.add(i));
                        let d = $loadu(dp.add(i) as *const $elem);
                        $storeu(dp.add(i), $fmadd(s, wv, d));
                    }
                    i += $w;
                }
                while i < n {
                    dst[i] = src[i].mul_add(w, dst[i]);
                    i += 1;
                }
            }
        };
    }

    simd_axpy!(
        /// AVX2+FMA f64 axpy kernel.
        axpy_f64_avx2, "avx2,fma", f64, 4,
        _mm256_loadu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_storeu_pd
    );
    simd_axpy!(
        /// AVX2+FMA f32 axpy kernel.
        axpy_f32_avx2, "avx2,fma", f32, 8,
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_storeu_ps
    );
    simd_axpy!(
        /// AVX-512F f64 axpy kernel.
        axpy_f64_avx512, "avx512f", f64, 8,
        _mm512_loadu_pd, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_storeu_pd
    );
    simd_axpy!(
        /// AVX-512F f32 axpy kernel.
        axpy_f32_avx512, "avx512f", f32, 16,
        _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_storeu_ps
    );
}

/// Attempts an explicit-SIMD micro-kernel run for `f64` slivers; `false`
/// means no instantiated variant matched (caller falls back to scalar).
pub(crate) fn ukernel_arch_f64(
    engine: Engine,
    geom: Geometry,
    kc: usize,
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !engine.available() {
            return false;
        }
        // SAFETY: `engine.available()` verified the required CPU features
        // at runtime; each kernel asserts its slice bounds on entry.
        match (engine, geom.mr, geom.nr) {
            (Engine::Avx2Fma, 8, 4) => unsafe { x86::gemm_f64_avx2::<2, 4>(kc, a, b, acc) },
            (Engine::Avx2Fma, 8, 6) => unsafe { x86::gemm_f64_avx2::<2, 6>(kc, a, b, acc) },
            (Engine::Avx2Fma, 4, 8) => unsafe { x86::gemm_f64_avx2::<1, 8>(kc, a, b, acc) },
            (Engine::Avx2Fma, 16, 4) => unsafe { x86::gemm_f64_avx2::<4, 4>(kc, a, b, acc) },
            (Engine::Avx512, 8, 4) => unsafe { x86::gemm_f64_avx512::<1, 4>(kc, a, b, acc) },
            (Engine::Avx512, 8, 6) => unsafe { x86::gemm_f64_avx512::<1, 6>(kc, a, b, acc) },
            (Engine::Avx512, 8, 8) => unsafe { x86::gemm_f64_avx512::<1, 8>(kc, a, b, acc) },
            (Engine::Avx512, 16, 4) => unsafe { x86::gemm_f64_avx512::<2, 4>(kc, a, b, acc) },
            (Engine::Avx512, 16, 6) => unsafe { x86::gemm_f64_avx512::<2, 6>(kc, a, b, acc) },
            (Engine::Avx512, 16, 8) => unsafe { x86::gemm_f64_avx512::<2, 8>(kc, a, b, acc) },
            (Engine::Avx512, 24, 4) => unsafe { x86::gemm_f64_avx512::<3, 4>(kc, a, b, acc) },
            (Engine::Avx512, 32, 4) => unsafe { x86::gemm_f64_avx512::<4, 4>(kc, a, b, acc) },
            _ => return false,
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (engine, geom, kc, a, b, acc);
        false
    }
}

/// Attempts an explicit-SIMD micro-kernel run for `f32` slivers; `false`
/// means no instantiated variant matched (caller falls back to scalar).
pub(crate) fn ukernel_arch_f32(
    engine: Engine,
    geom: Geometry,
    kc: usize,
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !engine.available() {
            return false;
        }
        // SAFETY: `engine.available()` verified the required CPU features
        // at runtime; each kernel asserts its slice bounds on entry.
        match (engine, geom.mr, geom.nr) {
            (Engine::Avx2Fma, 8, 4) => unsafe { x86::gemm_f32_avx2::<1, 4>(kc, a, b, acc) },
            (Engine::Avx2Fma, 8, 6) => unsafe { x86::gemm_f32_avx2::<1, 6>(kc, a, b, acc) },
            (Engine::Avx2Fma, 8, 8) => unsafe { x86::gemm_f32_avx2::<1, 8>(kc, a, b, acc) },
            (Engine::Avx2Fma, 16, 4) => unsafe { x86::gemm_f32_avx2::<2, 4>(kc, a, b, acc) },
            (Engine::Avx512, 16, 4) => unsafe { x86::gemm_f32_avx512::<1, 4>(kc, a, b, acc) },
            (Engine::Avx512, 16, 6) => unsafe { x86::gemm_f32_avx512::<1, 6>(kc, a, b, acc) },
            (Engine::Avx512, 16, 8) => unsafe { x86::gemm_f32_avx512::<1, 8>(kc, a, b, acc) },
            (Engine::Avx512, 32, 4) => unsafe { x86::gemm_f32_avx512::<2, 4>(kc, a, b, acc) },
            _ => return false,
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (engine, geom, kc, a, b, acc);
        false
    }
}

/// Attempts an explicit-SIMD axpy for `f64`; `false` ⇒ scalar fallback.
pub(crate) fn axpy_arch_f64(engine: Engine, w: f64, src: &[f64], dst: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !engine.available() {
            return false;
        }
        // SAFETY: CPU support verified; bounds asserted inside the kernel.
        match engine {
            Engine::Avx2Fma => unsafe { x86::axpy_f64_avx2(w, src, dst) },
            Engine::Avx512 => unsafe { x86::axpy_f64_avx512(w, src, dst) },
            Engine::Scalar => return false,
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (engine, w, src, dst);
        false
    }
}

/// Attempts an explicit-SIMD axpy for `f32`; `false` ⇒ scalar fallback.
pub(crate) fn axpy_arch_f32(engine: Engine, w: f32, src: &[f32], dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !engine.available() {
            return false;
        }
        // SAFETY: CPU support verified; bounds asserted inside the kernel.
        match engine {
            Engine::Avx2Fma => unsafe { x86::axpy_f32_avx2(w, src, dst) },
            Engine::Avx512 => unsafe { x86::axpy_f32_avx512(w, src, dst) },
            Engine::Scalar => return false,
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (engine, w, src, dst);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Straightforward tile product for cross-checking.
    fn naive_tile(kc: usize, a: &[f64], b: &[f64]) -> [f64; MR * NR] {
        let mut out = [0.0; MR * NR];
        for p in 0..kc {
            for j in 0..NR {
                for i in 0..MR {
                    out[i + j * MR] += a[p * MR + i] * b[p * NR + j];
                }
            }
        }
        out
    }

    #[test]
    fn ukernel_matches_naive() {
        let kc = 13;
        let a: Vec<f64> = (0..kc * MR).map(|i| (i % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..kc * NR).map(|i| (i % 5) as f64 * 0.5).collect();
        let mut acc = [0.0; MR * NR];
        ukernel(kc, &a, &b, &mut acc);
        let expect = naive_tile(kc, &a, &b);
        for (got, want) in acc.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn ukernel_accumulates_into_existing() {
        let kc = 4;
        let a = vec![1.0f64; kc * MR];
        let b = vec![1.0f64; kc * NR];
        let mut acc = [10.0; MR * NR];
        ukernel(kc, &a, &b, &mut acc);
        assert!(acc.iter().all(|&v| v == 10.0 + kc as f64));
    }

    #[test]
    fn ukernel_kc_zero_is_noop() {
        let mut acc = [5.0f32; MR * NR];
        ukernel::<f32>(0, &[], &[], &mut acc);
        assert!(acc.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn ukernel_dyn_matches_fixed_for_every_candidate() {
        let kc = 9;
        for engine in [Engine::Scalar, Engine::Avx2Fma, Engine::Avx512] {
            for geom in candidates(engine, 8) {
                let a: Vec<f64> = (0..kc * geom.mr).map(|i| (i % 11) as f64 - 5.0).collect();
                let b: Vec<f64> = (0..kc * geom.nr).map(|i| (i % 3) as f64).collect();
                let mut acc = vec![0.0f64; geom.acc_len()];
                ukernel_dyn(*geom, kc, &a, &b, &mut acc);
                // cross-check against a naive product at this geometry
                for j in 0..geom.nr {
                    for i in 0..geom.mr {
                        let want: f64 = (0..kc)
                            .map(|p| a[p * geom.mr + i] * b[p * geom.nr + j])
                            .sum();
                        assert!(
                            (acc[i + j * geom.mr] - want).abs() < 1e-10,
                            "{engine:?} {geom} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_ukernel_safe_for_unavailable_engine_requests() {
        // Even if the host lacks a SIMD engine, run_ukernel must fall back
        // to the scalar kernel rather than fault.
        let geom = Geometry::new(8, 4);
        let kc = 3;
        let a = vec![1.0f64; kc * geom.mr];
        let b = vec![1.0f64; kc * geom.nr];
        for engine in [Engine::Scalar, Engine::Avx2Fma, Engine::Avx512] {
            let mut acc = vec![0.0f64; geom.acc_len()];
            run_ukernel(engine, geom, kc, &a, &b, &mut acc);
            assert!(acc.iter().all(|&v| v == kc as f64), "{engine:?}");
        }
    }

    #[test]
    fn engine_labels_round_trip() {
        for e in [Engine::Scalar, Engine::Avx2Fma, Engine::Avx512] {
            assert_eq!(Engine::parse_label(e.label()), Some(e));
        }
        assert_eq!(Engine::parse_label("neon"), None);
    }

    #[test]
    fn scalar_engine_always_available() {
        assert!(Engine::Scalar.available());
        assert!(supports(Engine::Scalar, Geometry::new(8, 4), 8));
        assert!(!supports(Engine::Avx2Fma, Geometry::new(5, 3), 8));
    }

    #[test]
    fn axpy_scalar_path() {
        let src: Vec<f64> = (0..37).map(|i| i as f64 * 0.25 - 3.0).collect();
        let mut dst = vec![1.0f64; 37];
        axpy_update_with(Engine::Scalar, 2.0, &src, &mut dst);
        for i in 0..37 {
            assert_eq!(dst[i], src[i].mul_add(2.0, 1.0));
        }
    }

    #[test]
    fn store_beta_zero_overwrites_garbage() {
        let acc: [f64; MR * NR] = std::array::from_fn(|i| i as f64);
        let mut c = vec![f64::NAN; MR * NR];
        store_tile(&acc, MR, &mut c, MR, MR, NR, 0.0);
        for j in 0..NR {
            for i in 0..MR {
                assert_eq!(c[i + j * MR], (i + j * MR) as f64);
            }
        }
    }

    #[test]
    fn store_beta_one_adds() {
        let acc = [2.0f64; MR * NR];
        let mut c = vec![1.0; MR * NR];
        store_tile(&acc, MR, &mut c, MR, MR, NR, 1.0);
        assert!(c.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn store_general_beta() {
        let acc = [1.0f64; MR * NR];
        let mut c = vec![2.0; MR * NR];
        store_tile(&acc, MR, &mut c, MR, MR, NR, 3.0);
        assert!(c.iter().all(|&v| v == 7.0)); // 2*3 + 1
    }

    #[test]
    fn store_edge_tile_leaves_rest_untouched() {
        let acc = [9.0f64; MR * NR];
        let ldc = MR + 2;
        let mut c = vec![0.0; ldc * NR];
        store_tile(&acc, MR, &mut c, ldc, 3, 2, 0.0);
        for j in 0..NR {
            for i in 0..ldc {
                let expect = if i < 3 && j < 2 { 9.0 } else { 0.0 };
                assert_eq!(c[i + j * ldc], expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn store_tile_wide_geometry_stride() {
        // acc_ld larger than mr_eff: a 16-row geometry storing a 5-row edge
        let geom = Geometry::new(16, 4);
        let acc: Vec<f64> = (0..geom.acc_len()).map(|i| i as f64).collect();
        let ldc = 6;
        let mut c = vec![0.0; ldc * geom.nr];
        store_tile(&acc, geom.mr, &mut c, ldc, 5, 3, 0.0);
        for j in 0..3 {
            for i in 0..5 {
                assert_eq!(c[i + j * ldc], (i + j * geom.mr) as f64, "({i},{j})");
            }
        }
    }
}
