//! Software half-precision — the support the paper lists as future work
//! (§V): "given their prevalence in AI and mixed-precision computations,
//! we are also looking to support half-precision kernels; FP16 and
//! Bfloat16".
//!
//! The paper notes the practical blocker in C: oneMKL's `MKL_F16` is an
//! opaque `unsigned short` with no conversion helpers. This module removes
//! that blocker for the Rust kernels twice over:
//!
//! - [`Bf16`] (1 sign, 8 exponent, 7 mantissa bits — f32's upper half) and
//!   [`F16`] (IEEE-754 binary16: 1/5/10) with exact widening and
//!   round-to-nearest-even narrowing in bit arithmetic, and full
//!   [`Scalar`] implementations whose compute type ([`Scalar::Acc`]) is
//!   `f32`. Every GEMM in this crate therefore runs at half precision on
//!   the f32 path: the packers widen the operands into f32 panels, the
//!   explicit-SIMD f32 micro-kernel accumulates, and each element of `C`
//!   is narrowed once (matrix-engine semantics). Scalar arithmetic on the
//!   types themselves (the generic GEMV) is evaluated in f32 and rounded
//!   back per operation, the semantics of scalar half units.
//! - The tagged entry point [`gemm_half`], which carries an explicit
//!   [`Precision`] tag (the `no-untagged-precision` blob-check rule): a
//!   half kernel that silently fell through to bare f32 would corrupt the
//!   per-precision threshold tables.

use crate::scalar::{Precision, Scalar};
use crate::ContractError;

/// A bfloat16 value: the upper 16 bits of an IEEE-754 `f32`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bf16(u16);

impl Bf16 {
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Machine epsilon: 2⁻⁷ (7 mantissa bits).
    pub const EPSILON: Bf16 = Bf16(0x3C00);

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        if v.is_nan() {
            // quiet NaN, preserve sign
            return Bf16(((bits >> 16) | 0x0040) as u16);
        }
        // round to nearest even on the truncated 16 bits
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x0000_7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Widens to `f32` exactly (every bf16 is representable).
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }
}

/// An IEEE-754 binary16 value: 1 sign, 5 exponent, 10 mantissa bits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct F16(u16);

impl F16 {
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Machine epsilon: 2⁻¹⁰ (10 mantissa bits).
    pub const EPSILON: F16 = F16(0x1400);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);

    /// Converts from `f32` with round-to-nearest-even; overflow saturates
    /// to ±infinity like hardware converts do.
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let mag = bits & 0x7FFF_FFFF;
        if mag > 0x7F80_0000 {
            // quiet NaN, preserve sign
            return F16(sign | 0x7E00);
        }
        if mag >= 0x4780_0000 {
            // |v| ≥ 2^16 (or infinite): past the top binade
            return F16(sign | 0x7C00);
        }
        // Keep the top bits of the significand as the f16 pattern and round
        // the `shift` dropped bits to nearest even. A carry out of the
        // significand bumps the exponent, which is exactly the next f16
        // value: F16::MAX rounds up to infinity, the largest subnormal to
        // the smallest normal.
        let (kept, dropped, shift) = if mag >= 0x3880_0000 {
            // normal f16 (|v| ≥ 2^-14): rebias the exponent 127 → 15
            ((mag - (112 << 23)) >> 13, mag & 0x1FFF, 13)
        } else if mag >= 0x3300_0000 {
            // subnormal f16 (2^-25 ≤ |v| < 2^-14): units of 2^-24
            let shift = 126 - (mag >> 23);
            let significand = (mag & 0x7F_FFFF) | 0x80_0000;
            (
                significand >> shift,
                significand & ((1 << shift) - 1),
                shift,
            )
        } else {
            // below half the smallest subnormal (2^-25 itself ties to 0)
            return F16(sign);
        };
        let half = 1 << (shift - 1);
        let round_up = dropped > half || (dropped == half && kept & 1 == 1);
        F16(sign | (kept + u32::from(round_up)) as u16)
    }

    /// Widens to `f32` exactly (every f16 is representable); NaNs keep
    /// their sign and payload.
    pub fn to_f32(self) -> f32 {
        let h = u32::from(self.0);
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let man = h & 0x3FF;
        let bits = match (exp, man) {
            (0, 0) => sign,
            (0, _) => {
                // subnormal man·2^-24: renormalise so the leading one
                // becomes the implicit bit
                let lead = 31 - man.leading_zeros(); // 0..=9
                sign | ((lead + 103) << 23) | ((man << (23 - lead)) & 0x7F_FFFF)
            }
            (0x1F, _) => sign | 0x7F80_0000 | (man << 13),
            _ => sign | ((exp + 112) << 23) | (man << 13),
        };
        f32::from_bits(bits)
    }
}

/// The one body both 16-bit formats share; only their bit conversions
/// (`from_f32`/`to_f32`) differ. Scalar arithmetic is evaluated in f32 and
/// rounded back once per operation, the semantics of scalar half units;
/// the GEMM kernels contract in f32 ([`Scalar::Acc`]) and narrow once.
macro_rules! half_float {
    ($t:ident, $precision:expr) => {
        impl $t {
            /// Positive zero.
            pub const ZERO: $t = $t(0);

            /// The raw bit pattern.
            pub fn to_bits(self) -> u16 {
                self.0
            }

            /// Constructs from a raw bit pattern.
            pub fn from_bits(bits: u16) -> Self {
                $t(bits)
            }
        }

        impl std::ops::Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                $t::from_f32(self.to_f32() + rhs.to_f32())
            }
        }

        impl std::ops::Mul for $t {
            type Output = $t;
            fn mul(self, rhs: $t) -> $t {
                $t::from_f32(self.to_f32() * rhs.to_f32())
            }
        }

        impl std::ops::MulAssign for $t {
            fn mul_assign(&mut self, rhs: $t) {
                *self = *self * rhs;
            }
        }

        impl Scalar for $t {
            const ZERO: Self = $t::ZERO;
            const ONE: Self = $t::ONE;
            const PRECISION: Precision = $precision;

            type Acc = f32;
            #[inline(always)]
            fn widen(self) -> f32 {
                self.to_f32()
            }
            #[inline(always)]
            fn narrow(v: f32) -> Self {
                $t::from_f32(v)
            }

            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                // fused in f32, rounded once — matrix-engine semantics
                $t::from_f32(self.to_f32().mul_add(a.to_f32(), b.to_f32()))
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                $t::from_f32(v as f32)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self.to_f32() as f64
            }
        }
    };
}

half_float!(Bf16, Precision::Bf16);
half_float!(F16, Precision::F16);

/// Half-precision GEMM with f32 accumulation: `C = α·A·B + β·C` with
/// bf16/f16 storage, widened into the packed f32 panels, contracted by the
/// blocked (explicit-SIMD) f32 micro-kernel, and narrowed once per element
/// of `C` — the semantics of a matrix engine's half GEMM, not of
/// per-operation half rounding. Single-threaded, like [`gemm_blocked`](
/// crate::gemm_blocked).
///
/// `precision` must be `T::PRECISION` ([`ContractError::PrecisionMismatch`]
/// otherwise), checked before any buffer is touched; α/β are given in the
/// f32 accumulation format.
pub fn gemm_half<T: Scalar<Acc = f32>>(
    precision: Precision,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: f32,
    c: &mut [T],
    ldc: usize,
) -> Result<(), ContractError> {
    if precision != T::PRECISION {
        return Err(ContractError::PrecisionMismatch {
            expected: T::PRECISION,
            got: precision,
        });
    }
    crate::gemm::gemm_widened(1, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm_blocked, gemm_ref, gemv_ref};

    #[test]
    fn exact_small_integers_round_trip() {
        for v in [0.0f32, 1.0, -1.0, 2.0, 0.5, -0.25, 128.0, 256.0] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "{v}");
        }
    }

    #[test]
    fn constants() {
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::EPSILON.to_f32(), 0.0078125); // 2^-7
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-8 is exactly halfway between 1.0 and 1.0078125 in bf16:
        // rounds to even mantissa -> 1.0
        let halfway = 1.0 + 0.00390625;
        assert_eq!(Bf16::from_f32(halfway).to_f32(), 1.0);
        // slightly above halfway rounds up
        assert_eq!(Bf16::from_f32(halfway + 1e-4).to_f32(), 1.0078125);
    }

    #[test]
    fn rel_error_bounded_by_epsilon() {
        let mut x = 0.9991f32;
        for _ in 0..200 {
            let b = Bf16::from_f32(x).to_f32();
            assert!(((b - x) / x).abs() <= 0.00390625 + 1e-7, "{x} -> {b}");
            x *= 1.0371;
        }
    }

    #[test]
    fn arithmetic_and_neg() {
        let a = Bf16::from_f32(3.0);
        let b = Bf16::from_f32(2.0);
        assert_eq!((a + b).to_f32(), 5.0);
        assert_eq!((a * b).to_f32(), 6.0);
        assert_eq!((a * Bf16::from_f32(-1.0)).to_f32(), -3.0);
        let mut c = a;
        c *= b;
        assert_eq!(c.to_f32(), 6.0);
        assert_eq!(Scalar::mul_add(a, b, b).to_f32(), 8.0);
        // one rounding per operation: 1 + 2^-8 ties to even, back to 1
        let one = Bf16::ONE;
        assert_eq!((one + Bf16::from_f32(0.00390625)).to_f32(), 1.0);
    }

    #[test]
    fn nan_and_infinity() {
        assert!(!Bf16::from_f32(f32::NAN).to_f32().is_finite());
        assert!(!Bf16::from_f32(f32::INFINITY).to_f32().is_finite());
        assert!(Bf16::from_f32(1.0).to_f32().is_finite());
        // NaN conversion must not produce infinity
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn bgemm_matches_f64_reference_coarsely() {
        // the whole point: the generic kernels run at bf16 unchanged
        let (m, n, k) = (24, 20, 16);
        let af: Vec<f64> = (0..m * k).map(|i| ((i % 13) as f64 - 6.0) / 8.0).collect();
        let bf: Vec<f64> = (0..k * n).map(|i| ((i % 7) as f64 - 3.0) / 4.0).collect();
        let ab: Vec<Bf16> = af.iter().map(|&v| Bf16::from_f64(v)).collect();
        let bb: Vec<Bf16> = bf.iter().map(|&v| Bf16::from_f64(v)).collect();
        let mut c64 = vec![0.0f64; m * n];
        gemm_ref(m, n, k, 1.0, &af, m, &bf, k, 0.0, &mut c64, m).unwrap();
        let mut cb = vec![Bf16::ZERO; m * n];
        gemm_blocked(m, n, k, Bf16::ONE, &ab, m, &bb, k, Bf16::ZERO, &mut cb, m).unwrap();
        for i in 0..m * n {
            let got = cb[i].to_f64();
            let want = c64[i];
            // k=16 accumulation at 2^-7 precision: generous tolerance
            assert!(
                (got - want).abs() <= 0.06 * want.abs().max(1.0),
                "i={i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn bgemv_runs_generically() {
        let (m, n) = (16, 12);
        let a: Vec<Bf16> = (0..m * n)
            .map(|i| Bf16::from_f64(((i % 5) as f64 - 2.0) / 4.0))
            .collect();
        let x: Vec<Bf16> = (0..n)
            .map(|i| Bf16::from_f64((i % 3) as f64 / 2.0))
            .collect();
        let mut y = vec![Bf16::ZERO; m];
        gemv_ref(m, n, Bf16::ONE, &a, m, &x, 1, Bf16::ZERO, &mut y, 1).unwrap();
        assert!(y.iter().all(|v| v.to_f32().is_finite()));
        // at least one non-zero output for non-trivial inputs
        assert!(y.iter().any(|v| v.to_f32() != 0.0));
    }

    #[test]
    fn sum_accumulates_in_f32() {
        // 4/ε addends of ε sum to exactly 4 in f32; rounded to the half
        // format after every addition the sum would stall at 2, where ε is
        // half an ulp and every tie rounds back to even
        fn dot_of_epsilons<T: Scalar<Acc = f32>>(eps: f32) -> f32 {
            let k = (4.0 / eps) as usize;
            let a = vec![T::narrow(eps); k];
            let b = vec![T::ONE; k];
            let mut c = [T::ZERO];
            gemm_half(T::PRECISION, 1, 1, k, 1.0, &a, 1, &b, k, 0.0, &mut c, 1).unwrap();
            c[0].widen()
        }
        assert_eq!(dot_of_epsilons::<Bf16>(Bf16::EPSILON.to_f32()), 4.0);
        assert_eq!(dot_of_epsilons::<F16>(F16::EPSILON.to_f32()), 4.0);
    }

    // ---------------------------------------------------------- F16 tests

    #[test]
    fn f16_exact_values_round_trip() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            2.0,
            0.5,
            -0.25,
            1024.0,
            65504.0,
            0.0009765625,
        ] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "{v}");
        }
        // every representable f16 bit pattern survives f32 and back
        for bits in 0..=0x7BFFu16 {
            let h = F16::from_bits(bits);
            assert_eq!(
                F16::from_f32(h.to_f32()).to_bits(),
                bits,
                "bits={bits:#06x}"
            );
        }
    }

    #[test]
    fn f16_constants_and_rounding() {
        assert_eq!(F16::ONE.to_bits(), 0x3C00);
        assert_eq!(F16::EPSILON.to_f32(), 0.0009765625); // 2^-10
                                                         // 1 + 2^-11 is halfway between 1.0 and 1+2^-10: ties-to-even -> 1.0
        assert_eq!(F16::from_f32(1.0 + 0.00048828125).to_f32(), 1.0);
        // 1 + 3·2^-11 is halfway with odd low bit: rounds up to 1+2^-9
        assert_eq!(
            F16::from_f32(1.0 + 3.0 * 0.00048828125).to_f32(),
            1.0 + 2.0 * 0.0009765625
        );
    }

    #[test]
    fn f16_overflow_subnormals_and_nan() {
        assert_eq!(F16::from_f32(1e6).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(-1e6).to_f32(), f32::NEG_INFINITY);
        // 65504 is MAX; 65519 still rounds down to MAX, 65520 rounds to inf
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0);
        assert_eq!(F16::from_f32(65520.0).to_f32(), f32::INFINITY);
        // smallest subnormal 2^-24 and its neighbourhood
        assert_eq!(F16::from_f32(5.9604645e-8).to_f32(), 5.9604645e-8);
        assert_eq!(F16::from_f32(2.0e-8).to_f32(), 0.0); // below half the ulp
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(f32::INFINITY).to_f32().is_finite());
        // a NaN keeps its sign both ways, as Bf16's does
        assert!(F16::from_bits(0xFE00).to_f32().is_sign_negative());
        assert_eq!(F16::from_f32(-f32::NAN).to_bits(), 0xFE00);
        assert!(Bf16::from_f32(-f32::NAN).to_f32().is_sign_negative());
    }

    /// The arithmetic `F16::to_f32` the bit-level conversion replaced: the
    /// oracle for every non-NaN pattern.
    fn formula_to_f32(bits: u16) -> f32 {
        let sign = if bits & 0x8000 != 0 { -1.0f32 } else { 1.0 };
        let exp = (bits >> 10) & 0x1F;
        let man = (bits & 0x3FF) as f32;
        match exp {
            0 => sign * man * (2f32).powi(-24),
            0x1F if bits & 0x3FF == 0 => sign * f32::INFINITY,
            0x1F => f32::NAN,
            _ => sign * (1.0 + man * (2f32).powi(-10)) * (2f32).powi(exp as i32 - 15),
        }
    }

    /// The arithmetic `F16::from_f32` the bit-level conversion replaced.
    fn formula_from_f32(v: f32) -> u16 {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        if v.is_nan() {
            return sign | 0x7E00;
        }
        let mag = v.abs();
        if bits & 0x7FFF_FFFF == 0 {
            return sign;
        }
        let e = (((bits >> 23) & 0xFF) as i32) - 127;
        if e >= 16 || mag.is_infinite() {
            return if mag >= 65520.0 {
                sign | 0x7C00
            } else {
                sign | F16::MAX.0
            };
        }
        if e >= -14 {
            let m = (mag * (2f32).powi(10 - e)).round_ties_even() as u32;
            if m == 2048 {
                return if e + 1 >= 16 {
                    sign | 0x7C00
                } else {
                    sign | (((e + 1 + 15) as u16) << 10)
                };
            }
            sign | (((e + 15) as u16) << 10) | (m as u16 & 0x3FF)
        } else {
            let m = (mag * (2f32).powi(24)).round_ties_even() as u32;
            if m >= 1024 {
                sign | (1 << 10) | (m as u16 & 0x3FF)
            } else {
                sign | m as u16
            }
        }
    }

    #[test]
    fn f16_widening_matches_the_formula_on_every_pattern() {
        for bits in 0..=u16::MAX {
            let (got, want) = (F16::from_bits(bits).to_f32(), formula_to_f32(bits));
            if want.is_nan() {
                assert!(got.is_nan(), "{bits:#06x}");
                assert_eq!(got.is_sign_negative(), bits & 0x8000 != 0, "{bits:#06x}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "{bits:#06x}");
            }
        }
    }

    #[test]
    fn f16_narrowing_matches_the_formula() {
        let check = |v: f32| {
            for v in [v, -v] {
                assert_eq!(
                    F16::from_f32(v).to_bits(),
                    formula_from_f32(v),
                    "{v:e} ({:#010x})",
                    v.to_bits()
                );
            }
        };
        let up = |v: f32| f32::from_bits(v.to_bits() + 1);
        let down = |v: f32| f32::from_bits(v.to_bits() - 1);
        // every finite f16 value, and every midpoint between neighbours
        // (2^16 closes the last binade) with the f32 values either side
        for bits in 0..=0x7BFFu16 {
            let lo = F16::from_bits(bits).to_f32();
            let hi = if bits == 0x7BFF {
                65536.0
            } else {
                F16::from_bits(bits + 1).to_f32()
            };
            let mid = ((f64::from(lo) + f64::from(hi)) / 2.0) as f32;
            check(lo);
            for v in [mid, up(mid), down(mid)] {
                check(v);
            }
        }
        // overflow edge, f32 subnormals, the binade boundaries, specials
        for v in [
            65504.0,
            65519.0,
            65519.996,
            65520.0,
            65536.0,
            f32::MAX,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            2f32.powi(-25),
            up(2f32.powi(-25)),
            down(2f32.powi(-25)),
            2f32.powi(-14),
            down(2f32.powi(-14)),
            f32::NAN,
        ] {
            check(v);
        }
        // one million seeded random f32 bit patterns (xorshift32)
        let mut s = 0x9E37_79B9u32;
        for _ in 0..1_000_000 {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            check(f32::from_bits(s));
        }
    }

    #[test]
    fn f16_arithmetic_runs_in_f32() {
        let a = F16::from_f32(3.0);
        let b = F16::from_f32(2.0);
        assert_eq!((a + b).to_f32(), 5.0);
        assert_eq!((a * b).to_f32(), 6.0);
        assert_eq!(Scalar::mul_add(a, b, b).to_f32(), 8.0);
        // one rounding per operation: 1 + 2^-11 ties to even, back to 1
        assert_eq!((F16::ONE + F16::from_f32(0.00048828125)).to_f32(), 1.0);
    }

    // ----------------------------------------- widened tagged kernel tests

    fn widened_reference(m: usize, n: usize, k: usize, aw: &[f32], bw: &[f32]) -> Vec<f64> {
        let a64: Vec<f64> = aw.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = bw.iter().map(|&v| v as f64).collect();
        let mut c = vec![0.0f64; m * n];
        gemm_ref(m, n, k, 1.0, &a64, m, &b64, k, 0.0, &mut c, m).unwrap();
        c
    }

    #[test]
    fn gemm_half_bf16_matches_widened_reference() {
        let (m, n, k) = (24usize, 20usize, 48usize);
        let a: Vec<Bf16> = (0..m * k)
            .map(|i| Bf16::from_f32(((i % 13) as f32 - 6.0) / 8.0))
            .collect();
        let b: Vec<Bf16> = (0..k * n)
            .map(|i| Bf16::from_f32(((i % 7) as f32 - 3.0) / 4.0))
            .collect();
        let mut c = vec![Bf16::ZERO; m * n];
        gemm_half(Precision::Bf16, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, m).unwrap();
        let aw: Vec<f32> = a.iter().map(|&v| v.widen()).collect();
        let bw: Vec<f32> = b.iter().map(|&v| v.widen()).collect();
        let want = widened_reference(m, n, k, &aw, &bw);
        let tol = crate::contract::gemm_rel_tolerance(Precision::Bf16, k);
        for i in 0..m * n {
            let got = c[i].to_f64();
            assert!(
                (got - want[i]).abs() <= tol * want[i].abs().max(1.0),
                "i={i}: {got} vs {}",
                want[i]
            );
        }
    }

    #[test]
    fn gemm_half_f16_matches_widened_reference() {
        let (m, n, k) = (17usize, 11usize, 64usize);
        let a: Vec<F16> = (0..m * k)
            .map(|i| F16::from_f32(((i % 9) as f32 - 4.0) / 16.0))
            .collect();
        let b: Vec<F16> = (0..k * n)
            .map(|i| F16::from_f32(((i % 5) as f32 - 2.0) / 8.0))
            .collect();
        let mut c: Vec<F16> = (0..m * n).map(|i| F16::from_f32((i % 3) as f32)).collect();
        let c0w: Vec<f32> = c.iter().map(|&v| v.widen()).collect();
        gemm_half(Precision::F16, m, n, k, 2.0, &a, m, &b, k, -1.0, &mut c, m).unwrap();
        let aw: Vec<f32> = a.iter().map(|&v| v.widen()).collect();
        let bw: Vec<f32> = b.iter().map(|&v| v.widen()).collect();
        let prod = widened_reference(m, n, k, &aw, &bw);
        let tol = crate::contract::gemm_rel_tolerance(Precision::F16, k);
        for i in 0..m * n {
            let want = 2.0 * prod[i] - c0w[i] as f64;
            let got = c[i].to_f64();
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "i={i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn mismatched_precision_tags_are_rejected() {
        // every tag but the element type's own, before C is touched
        fn rejects_every_other_tag<T: Scalar<Acc = f32>>() {
            let (a, b, mut c) = ([T::ZERO; 4], [T::ZERO; 4], [T::ONE; 4]);
            for got in Precision::EXTENDED {
                if got == T::PRECISION {
                    continue;
                }
                assert_eq!(
                    gemm_half(got, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2),
                    Err(ContractError::PrecisionMismatch {
                        expected: T::PRECISION,
                        got,
                    })
                );
            }
            assert!(c == [T::ONE; 4]);
        }
        rejects_every_other_tag::<Bf16>();
        rejects_every_other_tag::<F16>();
    }

    #[test]
    fn half_kernels_still_validate_contracts() {
        let a = [Bf16::ZERO; 4];
        let b = [Bf16::ZERO; 4];
        let mut c = [Bf16::ZERO; 4];
        // bad lda surfaces the usual contract error, not a panic
        assert!(gemm_half(Precision::Bf16, 2, 2, 2, 1.0, &a, 1, &b, 2, 0.0, &mut c, 2).is_err());
    }
}
