//! The [`Scalar`] abstraction over the element types the kernels run on:
//! `f32` and `f64` here (SGEMM/SGEMV, DGEMM/DGEMV), and the bf16/f16
//! storage formats in [`crate::half`].
//!
//! Keeping the kernel code generic over `Scalar` lets every kernel exist
//! exactly once while the harness sweeps every precision, mirroring how the
//! C++ artifact templates its kernels over `float`/`double`.

use crate::microkernel::{Engine, Geometry};
use std::ops::{Add, Mul, MulAssign};

/// A real scalar type usable in the BLAS kernels.
///
/// The bound set is exactly what the kernels, the operand slots and the
/// benchmark call: arithmetic for the reference GEMM/GEMV, a fused
/// multiply-add, and the f64 conversions the checksums and tolerances use.
/// Everything else about the type — its size, its BLAS prefix, its unit
/// roundoff — is read from its [`Precision`].
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Mul<Output = Self>
    + MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The precision this element type realises: the tune profile's key,
    /// the element size and every tolerance are read from it.
    const PRECISION: Precision;

    /// The compute type GEMM packs into and accumulates in: the type itself
    /// for `f32`/`f64`, `f32` for the 16-bit storage formats.
    type Acc: Scalar<Acc = Self::Acc>;
    /// Exact conversion to the compute type.
    fn widen(self) -> Self::Acc;
    /// Conversion back from the compute type, rounding to nearest even.
    fn narrow(v: Self::Acc) -> Self;

    /// Fused multiply-add: `self * a + b` evaluated with a single rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lossy conversion from `f64` (used for tolerances and test data).
    fn from_f64(v: f64) -> Self;
    /// Lossless widening to `f64` (used for checksums and error metrics).
    fn to_f64(self) -> f64;

    /// Arch-specific GEMM micro-kernel hook: run the explicit-SIMD variant
    /// for `(engine, geom)` if one is instantiated for this element type,
    /// returning `false` to request the portable scalar fallback.
    ///
    /// The default body opts out — element types without SIMD kernels
    /// (e.g. `Bf16`) always take the portable path.
    fn ukernel_arch(
        engine: Engine,
        geom: Geometry,
        kc: usize,
        a: &[Self],
        b: &[Self],
        acc: &mut [Self],
    ) -> bool {
        let _ = (engine, geom, kc, a, b, acc);
        false
    }

    /// Arch-specific axpy hook (`dst[i] ← src[i]·w + dst[i]`); `false`
    /// requests the portable scalar fallback.
    fn axpy_arch(engine: Engine, w: Self, src: &[Self], dst: &mut [Self]) -> bool {
        let _ = (engine, w, src, dst);
        false
    }
}

macro_rules! impl_scalar {
    ($t:ty, $precision:expr, $ukernel:path, $axpy:path) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const PRECISION: Precision = $precision;

            type Acc = $t;
            #[inline(always)]
            fn widen(self) -> Self {
                self
            }
            #[inline(always)]
            fn narrow(v: Self) -> Self {
                v
            }

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn ukernel_arch(
                engine: Engine,
                geom: Geometry,
                kc: usize,
                a: &[Self],
                b: &[Self],
                acc: &mut [Self],
            ) -> bool {
                $ukernel(engine, geom, kc, a, b, acc)
            }

            #[inline]
            fn axpy_arch(engine: Engine, w: Self, src: &[Self], dst: &mut [Self]) -> bool {
                $axpy(engine, w, src, dst)
            }
        }
    };
}

impl_scalar!(
    f32,
    Precision::F32,
    crate::microkernel::ukernel_arch_f32,
    crate::microkernel::axpy_arch_f32
);
impl_scalar!(
    f64,
    Precision::F64,
    crate::microkernel::ukernel_arch_f64,
    crate::microkernel::axpy_arch_f64
);

/// The precisions the benchmark sweeps, as a runtime value.
///
/// Tables III–VI in the paper report `S:D` pairs; [`Precision::ALL`] labels
/// which half of the pair a measurement belongs to. The tunable-precision
/// plane (arXiv 2503.22875) extends the axis with the two half formats and
/// the Ozaki-scheme emulated double: [`Precision::EXTENDED`] is the full
/// sweepable set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// 32-bit IEEE-754 (`float`): SGEMM / SGEMV.
    F32,
    /// 64-bit IEEE-754 (`double`): DGEMM / DGEMV.
    F64,
    /// bfloat16 (1/8/7 bits) storage with f32 accumulation.
    Bf16,
    /// IEEE-754 binary16 (1/5/10 bits) storage with f32 accumulation.
    F16,
    /// f64 operands computed by the Ozaki split-precision scheme: each
    /// operand decomposed into this many exact lower-precision slices,
    /// the slice pairs of the Ozaki triangle contracted by the fast f32
    /// GEMM, recombined in f64 (see `blob_blas::emul`). The payload is
    /// the slice count `K` (2..=4); accuracy improves roughly as
    /// `2^(-K·t)`.
    F64Emul(u8),
}

impl Precision {
    /// Element size in bytes of one *stored* operand element. Emulated
    /// f64 stores genuine `f64` operands — transfers and working sets are
    /// priced at 8 bytes; only the compute plane decomposes them.
    pub const fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 | Precision::F64Emul(_) => 8,
            Precision::Bf16 | Precision::F16 => 2,
        }
    }

    /// The BLAS routine prefix letter, upper-case (`S`, `D`, `B` for
    /// bfloat16, `H` for binary16, `E` for emulated double).
    pub const fn prefix(self) -> char {
        match self {
            Precision::F32 => 'S',
            Precision::F64 => 'D',
            Precision::Bf16 => 'B',
            Precision::F16 => 'H',
            Precision::F64Emul(_) => 'E',
        }
    }

    /// The Ozaki slice count for emulated-f64, `None` for native formats.
    /// Out-of-range payloads are clamped into the supported 2..=4 band.
    pub const fn emul_slices(self) -> Option<u8> {
        match self {
            Precision::F64Emul(k) => {
                let k = if k < 2 {
                    2
                } else if k > 4 {
                    4
                } else {
                    k
                };
                Some(k)
            }
            _ => None,
        }
    }

    /// The slice-pair products an emulated-f64 GEMM contracts per inner
    /// block: the Ozaki triangle `s + r < K`, `K(K+1)/2` of the `K²`
    /// pairs. `None` for native formats. The kernel runs exactly these
    /// and the CPU/GPU models price exactly these.
    pub const fn emul_products(self) -> Option<usize> {
        match self.emul_slices() {
            Some(k) => Some(k as usize * (k as usize + 1) / 2),
            None => None,
        }
    }

    /// A small dense integer code, stable across the enum: used by the
    /// dispatch plane to bit-pack precision into residency keys. Fits in
    /// [`Precision::CODE_BITS`] bits.
    pub const fn code(self) -> u64 {
        match self {
            Precision::F32 => 0,
            Precision::F64 => 1,
            Precision::Bf16 => 2,
            Precision::F16 => 3,
            Precision::F64Emul(k) => {
                // 2..=4 clamped ⇒ codes 6..=8
                let k = if k < 2 {
                    2
                } else if k > 4 {
                    4
                } else {
                    k
                };
                4 + k as u64
            }
        }
    }

    /// Bits needed to hold any [`Precision::code`].
    pub const CODE_BITS: u32 = 4;

    /// Unit roundoff of the *stored* element format: `2^-24` for f32,
    /// `2^-53` for f64 (and its emulation target), `2^-8` for bf16,
    /// `2^-11` for f16. Tolerance derivations start here.
    pub const fn unit_roundoff(self) -> f64 {
        match self {
            Precision::F32 => 5.960_464_477_539_063e-8, // 2^-24
            Precision::F64 | Precision::F64Emul(_) => 1.110_223_024_625_156_5e-16, // 2^-53
            Precision::Bf16 => 3.906_25e-3,             // 2^-8
            Precision::F16 => 4.882_812_5e-4,           // 2^-11
        }
    }

    /// The paper's two native precisions, in the order its tables list
    /// them. Kept at exactly `[F32, F64]`: the table benches and the S:D
    /// pair cells iterate this.
    pub const ALL: [Precision; 2] = [Precision::F32, Precision::F64];

    /// The full tunable-precision axis: the paper pair plus the half
    /// formats and the default (K=3) emulated double.
    pub const EXTENDED: [Precision; 5] = [
        Precision::F32,
        Precision::F64,
        Precision::Bf16,
        Precision::F16,
        Precision::F64Emul(3),
    ];
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::F32 => write!(f, "fp32"),
            Precision::F64 => write!(f, "fp64"),
            Precision::Bf16 => write!(f, "bf16"),
            Precision::F16 => write!(f, "fp16"),
            Precision::F64Emul(k) => write!(f, "fp64-emul{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_std() {
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(f64::ONE, 1.0f64);
        // machine epsilon is twice the unit roundoff
        assert_eq!(
            2.0 * f32::PRECISION.unit_roundoff(),
            f64::from(f32::EPSILON)
        );
        assert_eq!(2.0 * f64::PRECISION.unit_roundoff(), f64::EPSILON);
    }

    /// `T`'s element size and tune profile key, both read from its
    /// `PRECISION`.
    fn sized_and_keyed<T: Scalar>(key: char) {
        assert_eq!(T::PRECISION.bytes(), std::mem::size_of::<T>());
        assert_eq!(crate::tune::key::<T>(), key);
    }

    #[test]
    fn prefixes_and_sizes() {
        sized_and_keyed::<f32>('s');
        sized_and_keyed::<f64>('d');
        sized_and_keyed::<crate::Bf16>('b');
        sized_and_keyed::<crate::F16>('h');
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F64.bytes(), 8);
        assert_eq!(Precision::F32.prefix(), 'S');
        assert_eq!(Precision::F64.prefix(), 'D');
    }

    #[test]
    fn mul_add_is_fused_semantics() {
        // mul_add must agree with a*b+c on exactly representable values.
        let a = 3.0f64;
        assert_eq!(a.mul_add(2.0, 1.0), 7.0);
        let b = 3.0f32;
        assert_eq!(Scalar::mul_add(b, 2.0, 1.0), 7.0);
    }

    #[test]
    fn conversions_round_trip() {
        for v in [0.0, 1.0, -2.5, 1e-8, 1e8] {
            assert_eq!(f64::from_f64(v), v);
            assert_eq!(f64::to_f64(v), v);
        }
    }

    #[test]
    fn precision_display() {
        assert_eq!(Precision::F32.to_string(), "fp32");
        assert_eq!(Precision::F64.to_string(), "fp64");
        assert_eq!(Precision::Bf16.to_string(), "bf16");
        assert_eq!(Precision::F16.to_string(), "fp16");
        assert_eq!(Precision::F64Emul(3).to_string(), "fp64-emul3");
    }

    #[test]
    fn extended_precisions_carry_sane_metadata() {
        assert_eq!(Precision::Bf16.bytes(), 2);
        assert_eq!(Precision::F16.bytes(), 2);
        // emulated f64 stores real f64 operands
        assert_eq!(Precision::F64Emul(3).bytes(), 8);
        assert_eq!(Precision::Bf16.prefix(), 'B');
        assert_eq!(Precision::F16.prefix(), 'H');
        assert_eq!(Precision::F64Emul(2).prefix(), 'E');
        assert_eq!(Precision::F64Emul(3).emul_slices(), Some(3));
        assert_eq!(Precision::F64Emul(9).emul_slices(), Some(4)); // clamped
        assert_eq!(Precision::F64Emul(0).emul_slices(), Some(2)); // clamped
        assert_eq!(Precision::F32.emul_slices(), None);
        // the Ozaki triangle: K(K+1)/2 slice-pair products
        assert_eq!(Precision::F64Emul(2).emul_products(), Some(3));
        assert_eq!(Precision::F64Emul(3).emul_products(), Some(6));
        assert_eq!(Precision::F64Emul(4).emul_products(), Some(10));
        assert_eq!(Precision::F64Emul(9).emul_products(), Some(10)); // clamped
        assert_eq!(Precision::F64.emul_products(), None);
        // ALL stays the paper pair; EXTENDED grows the axis
        assert_eq!(Precision::ALL.len(), 2);
        assert_eq!(Precision::EXTENDED.len(), 5);
        assert!(Precision::EXTENDED.starts_with(&Precision::ALL));
    }

    #[test]
    fn precision_codes_are_distinct_and_fit_code_bits() {
        let all = [
            Precision::F32,
            Precision::F64,
            Precision::Bf16,
            Precision::F16,
            Precision::F64Emul(2),
            Precision::F64Emul(3),
            Precision::F64Emul(4),
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.code() < (1 << Precision::CODE_BITS));
            for b in &all[i + 1..] {
                assert_ne!(a.code(), b.code(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn unit_roundoff_orders_by_precision() {
        assert!(Precision::Bf16.unit_roundoff() > Precision::F16.unit_roundoff());
        assert!(Precision::F16.unit_roundoff() > Precision::F32.unit_roundoff());
        assert!(Precision::F32.unit_roundoff() > Precision::F64.unit_roundoff());
        assert_eq!(Precision::F32.unit_roundoff(), (2f64).powi(-24));
        assert_eq!(Precision::Bf16.unit_roundoff(), (2f64).powi(-8));
        assert_eq!(Precision::F16.unit_roundoff(), (2f64).powi(-11));
        assert_eq!(Precision::F64.unit_roundoff(), (2f64).powi(-53));
    }
}
