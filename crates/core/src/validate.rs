//! Cross-library result validation (paper §III-B).
//!
//! The artifact seeds `srand` with a constant so the CPU and GPU input
//! buffers of equal dimensions always hold identical contents, then
//! compares output checksums with a 0.1 % margin for floating-point
//! rounding. We do the same: inputs come from a seeded RNG, the "CPU
//! library" result is computed with the parallel kernels and the "GPU
//! library" result with the blocked single-thread kernels (a genuinely
//! different code path — different blocking, different summation order),
//! and the checksums must agree within [`CHECKSUM_TOLERANCE`].

use crate::operands::{seeded, with_operands, Fill};
use blob_blas::contract::checksum_tolerance;
use blob_blas::scalar::Scalar;
use blob_blas::ContractError;
use blob_blas::{gemm_blocked, gemm_emul, gemm_parallel, gemv_emul, gemv_parallel, gemv_ref};
use blob_sim::{BlasCall, Kernel, Precision};

/// The paper's checksum margin of error for the native precisions: 0.1 %.
/// Reduced-precision and emulated calls use the per-precision bounds from
/// [`blob_blas::contract::checksum_tolerance`] — bf16/f16 rounding would
/// blow through the f64 margin, and emulated-f64 should beat it.
pub const CHECKSUM_TOLERANCE: f64 = 1e-3;

/// Outcome of validating one call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Output checksum from the CPU-library code path.
    pub cpu_checksum: f64,
    /// Output checksum from the GPU-library code path.
    pub gpu_checksum: f64,
    /// Relative disagreement between the two.
    pub rel_err: f64,
    /// Whether the disagreement is within the 0.1 % margin.
    pub ok: bool,
}

/// Fills a buffer from a constant-seeded RNG (the artifact's `srand`-then-
/// `rand` initialisation): same seed + same length ⇒ same contents, and a
/// shorter buffer is a prefix of a longer one.
pub fn seeded_data<T: Scalar>(seed: u64, len: usize) -> Vec<T> {
    seeded(seed).take(len).collect()
}

fn failed_report() -> ValidationReport {
    ValidationReport {
        cpu_checksum: f64::NAN,
        gpu_checksum: f64::NAN,
        rel_err: f64::INFINITY,
        ok: false,
    }
}

fn report_from(cpu_checksum: f64, gpu_checksum: f64, tolerance: f64) -> ValidationReport {
    let scale = cpu_checksum.abs().max(gpu_checksum.abs()).max(1e-30);
    let rel_err = (cpu_checksum - gpu_checksum).abs() / scale;
    ValidationReport {
        cpu_checksum,
        gpu_checksum,
        rel_err,
        ok: rel_err <= tolerance,
    }
}

/// One kernel code path: writes the output from operands A and B.
type KernelPath<'a, T> = dyn Fn(&[T], &[T], &mut [T]) -> Result<(), ContractError> + 'a;

/// Checksums the CPU-library path (the parallel kernels), then `gpu_path`,
/// each into a zeroed output (paper §III-B), on lent seeded operands. The
/// operands fit the call, so a contract violation is a harness bug: it
/// fails the validation rather than panicking.
fn validate_with<T: Scalar>(
    call: &BlasCall,
    seed: u64,
    tolerance: f64,
    gpu_path: impl Fn(&[T], &[T], &mut [T]) -> Result<(), ContractError>,
) -> ValidationReport {
    let (alpha, beta) = (T::from_f64(call.alpha), T::from_f64(call.beta));
    let cpu_path = |a: &[T], b: &[T], c: &mut [T]| match call.kernel {
        Kernel::Gemm { m, n, k } => gemm_parallel(4, m, n, k, alpha, a, m, b, k, beta, c, m),
        Kernel::Gemv { m, n } => gemv_parallel(4, m, n, alpha, a, m, b, 1, beta, c, 1),
    };
    let lens = match call.kernel {
        Kernel::Gemm { m, n, k } => (m * k, k * n, m * n),
        Kernel::Gemv { m, n } => (m * n, n, m),
    };
    with_operands(Fill::Seeded(seed), lens, |a, b, out| {
        let mut checksum = |path: &KernelPath<'_, T>| {
            out.fill(T::ZERO);
            path(a, b, out).map(|()| out.iter().map(|v| v.to_f64()).sum::<f64>())
        };
        match (checksum(&cpu_path), checksum(&gpu_path)) {
            (Ok(cpu), Ok(gpu)) => report_from(cpu, gpu, tolerance),
            _ => failed_report(),
        }
    })
}

fn validate_typed<T: Scalar>(call: &BlasCall, seed: u64, tolerance: f64) -> ValidationReport {
    let (alpha, beta) = (T::from_f64(call.alpha), T::from_f64(call.beta));
    validate_with(call, seed, tolerance, |a, b, c| match call.kernel {
        Kernel::Gemm { m, n, k } => gemm_blocked(m, n, k, alpha, a, m, b, k, beta, c, m),
        Kernel::Gemv { m, n } => gemv_ref(m, n, alpha, a, m, b, 1, beta, c, 1),
    })
}

/// Validates emulated-f64 against the *native* f64 kernels — the "CPU"
/// path is true f64, the "GPU" path is the Ozaki-sliced f32 emulation, so
/// the checksum comparison directly measures emulation accuracy.
fn validate_emul(call: &BlasCall, seed: u64, tolerance: f64) -> ValidationReport {
    let (precision, alpha, beta) = (call.precision, call.alpha, call.beta);
    validate_with(call, seed, tolerance, |a, b, c| match call.kernel {
        Kernel::Gemm { m, n, k } => {
            gemm_emul(precision, m, n, k, alpha, a, m, b, k, beta, c, m).map(|_| ())
        }
        Kernel::Gemv { m, n } => {
            gemv_emul(precision, m, n, alpha, a, m, b, 1, beta, c, 1).map(|_| ())
        }
    })
}

/// Validates that the two kernel code paths agree on `call`, dispatching on
/// the call's precision with the matching per-precision tolerance.
pub fn validate_call(call: &BlasCall, seed: u64) -> ValidationReport {
    let tol = checksum_tolerance(call.precision);
    match call.precision {
        Precision::F32 => validate_typed::<f32>(call, seed, tol),
        Precision::F64 => validate_typed::<f64>(call, seed, tol),
        Precision::Bf16 => validate_typed::<blob_blas::Bf16>(call, seed, tol),
        Precision::F16 => validate_typed::<blob_blas::F16>(call, seed, tol),
        Precision::F64Emul(_) => validate_emul(call, seed, tol),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_data_is_reproducible() {
        let a: Vec<f64> = seeded_data(7, 100);
        let b: Vec<f64> = seeded_data(7, 100);
        assert_eq!(a, b);
        let c: Vec<f64> = seeded_data(8, 100);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn gemm_paths_agree_within_margin() {
        for (m, n, k) in [(17, 23, 31), (64, 64, 64), (100, 10, 300)] {
            for prec in Precision::ALL {
                let call = BlasCall::gemm(prec, m, n, k);
                let rep = validate_call(&call, 42);
                assert!(rep.ok, "{call:?}: rel_err {}", rep.rel_err);
            }
        }
    }

    #[test]
    fn extended_precisions_validate_with_their_own_tolerance() {
        for prec in Precision::EXTENDED {
            let gemm = BlasCall::gemm(prec, 48, 40, 56);
            let rep = validate_call(&gemm, 42);
            assert!(rep.ok, "{gemm:?}: rel_err {}", rep.rel_err);
            let gemv = BlasCall::gemv(prec, 64, 48);
            let rep = validate_call(&gemv, 42);
            assert!(rep.ok, "{gemv:?}: rel_err {}", rep.rel_err);
        }
    }

    #[test]
    fn emulated_f64_beats_the_half_type_margin() {
        // k=3 emulation must be orders of magnitude tighter than bf16
        let call = BlasCall::gemm(Precision::F64Emul(3), 64, 64, 64);
        let rep = validate_call(&call, 7);
        assert!(rep.ok);
        assert!(
            rep.rel_err <= 1e-5,
            "emulated-f64 rel_err {} should be ≤ its documented 1e-5 bound",
            rep.rel_err
        );
    }

    #[test]
    fn gemv_paths_agree_within_margin() {
        for (m, n) in [(33, 77), (512, 16), (16, 512)] {
            for prec in Precision::ALL {
                let call = BlasCall::gemv(prec, m, n);
                let rep = validate_call(&call, 1);
                assert!(rep.ok, "{call:?}: rel_err {}", rep.rel_err);
            }
        }
    }

    #[test]
    fn alpha_beta_variants_validate() {
        let call = BlasCall::gemm(Precision::F64, 48, 48, 48).with_scalars(4.0, 0.0);
        assert!(validate_call(&call, 3).ok);
        // beta != 0 reads the zero-initialised output: still consistent
        let call2 = BlasCall::gemm(Precision::F64, 48, 48, 48).with_scalars(1.0, 2.0);
        assert!(validate_call(&call2, 3).ok);
    }

    #[test]
    fn checksums_are_nonzero_for_nontrivial_input() {
        let rep = validate_call(&BlasCall::gemm(Precision::F64, 32, 32, 32), 9);
        assert!(rep.cpu_checksum.abs() > 0.0);
    }

    #[test]
    fn reports_do_not_depend_on_what_the_operand_set_held_before() {
        use crate::operands::{release, with_operands, Fill};
        for call in [
            BlasCall::gemm(Precision::F64, 40, 24, 56),
            BlasCall::gemv(Precision::F32, 64, 48),
        ] {
            release();
            let fresh = validate_call(&call, 5);
            // a larger timing lend of each type, then another seed, leave
            // longer buffers with other contents behind
            with_operands::<f64, _>(Fill::Timing, (8192, 8192, 8192), |_, _, _| ());
            with_operands::<f32, _>(Fill::Timing, (8192, 8192, 8192), |_, _, _| ());
            validate_call(&call, 6);
            assert_eq!(validate_call(&call, 5), fresh, "{call:?}");
        }
        release();
    }
}
