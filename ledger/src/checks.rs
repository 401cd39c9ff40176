//! Kernel correctness, run in the same command as the timing: the
//! cross-path checksum validation of `blob_core::validate_call` for every
//! timed shape, and an element-wise comparison against the f64 reference
//! kernel under `contract.rs`'s per-precision tolerances.

use crate::workloads::Outcome;
use blob_blas::contract::gemm_rel_tolerance;
use blob_blas::{gemm_emul, gemm_half, gemm_parallel, gemm_ref, Bf16, Scalar, F16};
use blob_core::validate::seeded_data;
use blob_core::validate_call;
use blob_sim::{BlasCall, Precision};

/// The shape of the element-wise check: odd sizes, so edge tiles run.
const GOLDEN: (usize, usize, usize) = (45, 37, 83);

/// Counts one `validate_call` of `call` (seeded operands, two independent
/// code paths, per-precision checksum tolerance).
pub fn validate(out: &mut Outcome, call: &BlasCall, seed: u64) {
    let report = validate_call(call, seed);
    out.check(report.ok, || {
        format!("{call:?}: checksum rel_err {}", report.rel_err)
    });
}

/// `A·B` at [`GOLDEN`] computed by `kernel` on `T` operands, widened to
/// f64, beside the f64 reference on the same (widened) operands.
fn against_reference<T: Scalar>(
    seed: u64,
    kernel: impl FnOnce(&[T], &[T], &mut [T]) -> Result<(), blob_blas::ContractError>,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let (m, n, k) = GOLDEN;
    let a: Vec<T> = seeded_data(seed, m * k);
    let b: Vec<T> = seeded_data(seed ^ 0xB, k * n);
    let mut c = vec![T::ZERO; m * n];
    kernel(&a, &b, &mut c).ok()?;
    let a64: Vec<f64> = a.iter().map(|v| v.to_f64()).collect();
    let b64: Vec<f64> = b.iter().map(|v| v.to_f64()).collect();
    let mut want = vec![0.0f64; m * n];
    gemm_ref(m, n, k, 1.0, &a64, m, &b64, k, 0.0, &mut want, m).ok()?;
    Some((c.iter().map(|v| v.to_f64()).collect(), want))
}

/// Counts one element-wise check of the kernel behind `precision` against
/// the f64 `gemm_ref`, within `gemm_rel_tolerance(precision, k)`. Native
/// precisions check `gemm_parallel`, the 16-bit formats `gemm_half` (the
/// f32-accumulating kernel the tolerance is stated for), emulated f64
/// `gemm_emul`.
pub fn golden(out: &mut Outcome, precision: Precision, seed: u64) {
    let (m, n, k) = GOLDEN;
    let pair = match precision {
        Precision::F32 => against_reference::<f32>(seed, |a, b, c| {
            gemm_parallel(2, m, n, k, 1.0, a, m, b, k, 0.0, c, m)
        }),
        Precision::F64 => against_reference::<f64>(seed, |a, b, c| {
            gemm_parallel(2, m, n, k, 1.0, a, m, b, k, 0.0, c, m)
        }),
        Precision::Bf16 => against_reference::<Bf16>(seed, |a, b, c| {
            gemm_half(precision, m, n, k, 1.0, a, m, b, k, 0.0, c, m)
        }),
        Precision::F16 => against_reference::<F16>(seed, |a, b, c| {
            gemm_half(precision, m, n, k, 1.0, a, m, b, k, 0.0, c, m)
        }),
        Precision::F64Emul(_) => against_reference::<f64>(seed, |a, b, c| {
            gemm_emul(precision, m, n, k, 1.0, a, m, b, k, 0.0, c, m).map(|_| ())
        }),
    };
    let tol = gemm_rel_tolerance(precision, k);
    let worst = pair.map(|(got, want)| {
        got.iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
            .fold(0.0f64, f64::max)
    });
    out.check(worst.is_some_and(|e| e <= tol), || {
        format!("{precision:?}: element-wise error {worst:?} exceeds {tol}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_precision_passes_its_golden_check() {
        let mut out = Outcome::default();
        for p in Precision::EXTENDED {
            golden(&mut out, p, 11);
        }
        golden(&mut out, Precision::F64Emul(2), 11);
        golden(&mut out, Precision::F64Emul(4), 11);
        validate(&mut out, &BlasCall::gemv(Precision::F32, 40, 24), 11);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(out.attempted, 8);
    }
}
