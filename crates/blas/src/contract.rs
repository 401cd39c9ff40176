//! cblas-style argument-contract validation for every public kernel.
//!
//! Reference BLAS responds to a bad argument by calling `XERBLA`, which
//! prints and aborts.  That is exactly the failure mode a long-running
//! benchmark harness cannot afford, so every public kernel in this crate
//! instead routes its arguments through one of the `check_*` functions
//! below *before touching any slice*, and surfaces problems as a typed
//! [`ContractError`].  The `blob-check` static-analysis tool's
//! `contract-guard` rule verifies the "before touching any slice" part
//! mechanically.
//!
//! The contract mirrors the cblas one for column-major storage:
//!
//! - dimensions are arbitrary `usize` (zero is legal and means "empty");
//! - a leading dimension must satisfy `ld >= max(1, rows)`;
//! - a vector increment must be non-zero (negative walks the vector
//!   backwards, as in BLAS: element `i` lives at `(n-1-i) * |inc|`);
//! - every buffer must be long enough for the highest element the kernel
//!   will address.

use crate::scalar::Precision;
use core::fmt;

/// A violated kernel-argument contract.
///
/// Each variant carries enough context to identify the offending argument
/// without the caller having to re-derive it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// A leading dimension is below `max(1, rows)`.
    LeadingDim {
        /// Which matrix argument (`"a"`, `"b"`, `"c"`).
        arg: &'static str,
        /// The supplied leading dimension.
        ld: usize,
        /// The number of rows the matrix claims to have.
        rows: usize,
    },
    /// A vector increment of zero was supplied.
    ZeroIncrement {
        /// Which vector argument (`"x"`, `"y"`).
        arg: &'static str,
    },
    /// A buffer is too short for the elements the kernel would address.
    BufferTooShort {
        /// Which buffer argument.
        arg: &'static str,
        /// Length the contract requires.
        required: usize,
        /// Length actually supplied.
        actual: usize,
    },
    /// A precision-tagged kernel was handed a [`Precision`] its element
    /// type cannot realise (e.g. `gemm_half::<Bf16>` tagged `F16`, or the
    /// emulated-f64 GEMM tagged a native precision).
    PrecisionMismatch {
        /// The precision the entry point supports.
        expected: Precision,
        /// The precision the call was tagged with.
        got: Precision,
    },
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LeadingDim { arg, ld, rows } => write!(
                f,
                "leading dimension of `{arg}` is {ld} but must be >= max(1, {rows})"
            ),
            Self::ZeroIncrement { arg } => {
                write!(f, "increment of vector `{arg}` must be non-zero")
            }
            Self::BufferTooShort {
                arg,
                required,
                actual,
            } => write!(
                f,
                "buffer `{arg}` holds {actual} elements but the call addresses {required}"
            ),
            Self::PrecisionMismatch { expected, got } => {
                write!(
                    f,
                    "kernel supports precision {expected} but was tagged {got}"
                )
            }
        }
    }
}

impl std::error::Error for ContractError {}

// ---------------------------------------------------------------------------
// precision-aware validation tolerances
// ---------------------------------------------------------------------------

/// Relative checksum tolerance for cross-path validation at a precision.
///
/// The paper validates with a single 0.1 % checksum margin — correct for
/// f32/f64 but silently wrong for the tunable-precision plane: a bf16
/// GEMM whose two code paths round differently per operation can drift a
/// checksum by several percent and still be a correct bf16 GEMM, while an
/// Ozaki-emulated f64 result that is off by 0.1 % would be badly broken.
/// Each precision therefore gets its own bound, derived from its unit
/// roundoff (half formats) or its captured slice bits (emulation):
///
/// | precision | tolerance | why |
/// |-----------|-----------|-----|
/// | f32, f64  | `1e-3`    | the paper's §III-B margin, unchanged |
/// | bf16      | `5e-2`    | 2⁻⁸ roundoff per op across reordered sums |
/// | f16       | `1e-2`    | 2⁻¹¹ roundoff per op across reordered sums |
/// | f64-emul2 | `1e-3`    | ≥18 captured slice bits at the validation sizes |
/// | f64-emul3 | `1e-5`    | ≥27 captured slice bits |
/// | f64-emul4 | `1e-7`    | ≥36 captured slice bits |
pub fn checksum_tolerance(p: Precision) -> f64 {
    match p {
        Precision::F32 | Precision::F64 => 1e-3,
        Precision::Bf16 => 5e-2,
        Precision::F16 => 1e-2,
        Precision::F64Emul(k) if k <= 2 => 1e-3,
        Precision::F64Emul(3) => 1e-5,
        Precision::F64Emul(_) => 1e-7,
    }
}

/// Per-element relative tolerance for a length-`inner` contraction at a
/// precision, for golden comparisons against a widened reference. Grows
/// as `√inner` (random-walk rounding accumulation) on the accumulation
/// format's roundoff, plus one final narrowing to the storage format.
pub fn gemm_rel_tolerance(p: Precision, inner: usize) -> f64 {
    let n = inner.max(1) as f64;
    match p {
        // native formats accumulate in themselves
        Precision::F32 | Precision::F64 => 8.0 * n.sqrt() * p.unit_roundoff(),
        // half formats accumulate in f32, then narrow once
        Precision::Bf16 | Precision::F16 => {
            8.0 * n.sqrt() * Precision::F32.unit_roundoff() + 2.0 * p.unit_roundoff()
        }
        // emulation error is the uncaptured slice remainder plus the slice
        // pairs below the Ozaki triangle, each of the same order 2^(-k·t)
        // of the row and column scales, linear in the contraction length
        // (worst case; see `blob_blas::emul`)
        Precision::F64Emul(_) => {
            let k = p.emul_slices().unwrap_or(3) as i32;
            // slice bits at the emulation's inner blocking (emul::EMUL_KC)
            let t = 9;
            4.0 * n * (2f64).powi(-(k * t)) + 16.0 * n.sqrt() * Precision::F64.unit_roundoff()
        }
    }
}

/// Storage offset of logical vector element `i` under the BLAS increment
/// convention: for `inc < 0` the vector is traversed backwards, with
/// logical element `i` of an `n`-element vector at `(n - 1 - i) * |inc|`.
///
/// `n` must be non-zero and `i < n`; callers validate via [`check_vector`]
/// first.
#[inline]
pub fn vec_index(i: usize, n: usize, inc: isize) -> usize {
    debug_assert!(i < n);
    if inc >= 0 {
        i * inc as usize
    } else {
        (n - 1 - i) * inc.unsigned_abs()
    }
}

/// Number of buffer elements an `n`-element vector with increment `inc`
/// addresses: `1 + (n-1) * |inc|`, or zero when `n == 0`. Saturates at
/// `usize::MAX`, which no buffer can hold, so an overflowing span fails
/// the length check instead of wrapping past it.
#[inline]
pub fn vec_span(n: usize, inc: isize) -> usize {
    if n == 0 {
        0
    } else {
        (n - 1).saturating_mul(inc.unsigned_abs()).saturating_add(1)
    }
}

/// Validate one column-major matrix argument: `ld >= max(1, rows)` and the
/// buffer holds `ld * cols` elements (the last column may be short by
/// `ld - rows`, but we require the full panel like cblas does — it keeps
/// blocked kernels free to read whole panels).
pub fn check_matrix(
    arg: &'static str,
    buf_len: usize,
    rows: usize,
    cols: usize,
    ld: usize,
) -> Result<(), ContractError> {
    if ld < rows.max(1) {
        return Err(ContractError::LeadingDim { arg, ld, rows });
    }
    // An empty matrix (either dimension zero) addresses no storage; the
    // span saturates like `vec_span`, so a huge `ld` is BufferTooShort.
    let required = if rows == 0 || cols == 0 {
        0
    } else {
        ld.saturating_mul(cols - 1).saturating_add(rows)
    };
    if buf_len < required {
        return Err(ContractError::BufferTooShort {
            arg,
            required,
            actual: buf_len,
        });
    }
    Ok(())
}

/// Validate one strided vector argument: `inc != 0` and the buffer covers
/// `1 + (n-1)*|inc|` elements.
pub fn check_vector(
    arg: &'static str,
    buf_len: usize,
    n: usize,
    inc: isize,
) -> Result<(), ContractError> {
    if inc == 0 {
        return Err(ContractError::ZeroIncrement { arg });
    }
    let required = vec_span(n, inc);
    if buf_len < required {
        return Err(ContractError::BufferTooShort {
            arg,
            required,
            actual: buf_len,
        });
    }
    Ok(())
}

/// Full GEMM contract: `C(m×n) += A(m×k) · B(k×n)`, all column-major.
#[allow(clippy::too_many_arguments)]
pub fn check_gemm(
    m: usize,
    n: usize,
    k: usize,
    a_len: usize,
    lda: usize,
    b_len: usize,
    ldb: usize,
    c_len: usize,
    ldc: usize,
) -> Result<(), ContractError> {
    check_matrix("a", a_len, m, k, lda)?;
    check_matrix("b", b_len, k, n, ldb)?;
    check_matrix("c", c_len, m, n, ldc)
}

/// Full GEMV contract: `y(m) += A(m×n) · x(n)`, column-major `A`, strided
/// `x` and `y`.
#[allow(clippy::too_many_arguments)]
pub fn check_gemv(
    m: usize,
    n: usize,
    a_len: usize,
    lda: usize,
    x_len: usize,
    incx: isize,
    y_len: usize,
    incy: isize,
) -> Result<(), ContractError> {
    check_matrix("a", a_len, m, n, lda)?;
    check_vector("x", x_len, n, incx)?;
    check_vector("y", y_len, m, incy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_accepts_tight_and_padded_layouts() {
        assert!(check_matrix("a", 12, 3, 4, 3).is_ok());
        assert!(check_matrix("a", 5 * 3 + 3, 3, 4, 5).is_ok());
        // last column may stop at `rows`, not `ld`
        assert!(check_matrix("a", 5 * 3 + 3, 3, 4, 5).is_ok());
    }

    #[test]
    fn matrix_rejects_small_ld() {
        assert_eq!(
            check_matrix("a", 100, 4, 4, 3),
            Err(ContractError::LeadingDim {
                arg: "a",
                ld: 3,
                rows: 4
            })
        );
    }

    #[test]
    fn matrix_requires_ld_one_when_empty_rows() {
        // cblas: ld >= max(1, rows) even for 0-row matrices
        assert!(check_matrix("a", 0, 0, 4, 0).is_err());
        assert!(check_matrix("a", 3, 0, 4, 1).is_ok());
    }

    #[test]
    fn matrix_rejects_short_buffer() {
        assert_eq!(
            check_matrix("b", 11, 3, 4, 3),
            Err(ContractError::BufferTooShort {
                arg: "b",
                required: 12,
                actual: 11
            })
        );
    }

    #[test]
    fn zero_cols_needs_no_buffer() {
        assert!(check_matrix("a", 0, 7, 0, 7).is_ok());
    }

    #[test]
    fn vector_rejects_zero_increment() {
        assert_eq!(
            check_vector("x", 10, 5, 0),
            Err(ContractError::ZeroIncrement { arg: "x" })
        );
    }

    #[test]
    fn vector_span_and_negative_increments() {
        assert!(check_vector("x", 9, 5, 2).is_ok()); // needs 1+4*2 = 9
        assert!(check_vector("x", 8, 5, 2).is_err());
        assert!(check_vector("x", 9, 5, -2).is_ok()); // same span backwards
        assert!(check_vector("x", 0, 0, -3).is_ok()); // empty vector: no storage
    }

    #[test]
    fn huge_leading_dimension_is_buffer_too_short() {
        // ld * (cols - 1) overflows usize: the span saturates instead of
        // wrapping to a small number that a short buffer would satisfy
        let ld = usize::MAX / 2 + 1;
        let short = ContractError::BufferTooShort {
            arg: "a",
            required: usize::MAX,
            actual: 8,
        };
        assert_eq!(check_matrix("a", 8, 2, 3, ld), Err(short.clone()));
        let a = [1.0f64; 8];
        let b = [1.0f64; 9];
        let mut c = [0.0f64; 6];
        assert_eq!(
            crate::gemm_blocked(2, 3, 3, 1.0, &a, ld, &b, 3, 0.0, &mut c, 2),
            Err(short)
        );
    }

    #[test]
    fn most_negative_increment_is_buffer_too_short() {
        // (n - 1) * |isize::MIN| overflows usize for n = 3
        assert_eq!(
            check_vector("x", 8, 3, isize::MIN),
            Err(ContractError::BufferTooShort {
                arg: "x",
                required: usize::MAX,
                actual: 8,
            })
        );
    }

    #[test]
    fn vec_index_walks_backwards_for_negative_inc() {
        // n = 4, inc = -2: logical 0..4 live at 6, 4, 2, 0
        let offsets: Vec<usize> = (0..4).map(|i| vec_index(i, 4, -2)).collect();
        assert_eq!(offsets, vec![6, 4, 2, 0]);
        let fwd: Vec<usize> = (0..4).map(|i| vec_index(i, 4, 2)).collect();
        assert_eq!(fwd, vec![0, 2, 4, 6]);
    }

    #[test]
    fn gemm_contract_checks_all_three_operands() {
        assert!(check_gemm(2, 3, 4, 8, 2, 12, 4, 6, 2).is_ok());
        assert!(matches!(
            check_gemm(2, 3, 4, 8, 1, 12, 4, 6, 2),
            Err(ContractError::LeadingDim { arg: "a", .. })
        ));
        assert!(matches!(
            check_gemm(2, 3, 4, 8, 2, 11, 4, 6, 2),
            Err(ContractError::BufferTooShort { arg: "b", .. })
        ));
        assert!(matches!(
            check_gemm(2, 3, 4, 8, 2, 12, 4, 5, 2),
            Err(ContractError::BufferTooShort { arg: "c", .. })
        ));
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = ContractError::LeadingDim {
            arg: "a",
            ld: 2,
            rows: 5,
        };
        assert!(e.to_string().contains("leading dimension"));
        let e = ContractError::BufferTooShort {
            arg: "b",
            required: 12,
            actual: 11,
        };
        assert!(e.to_string().contains("holds 11 elements"));
        let e = ContractError::PrecisionMismatch {
            expected: Precision::Bf16,
            got: Precision::F16,
        };
        assert!(e.to_string().contains("bf16"));
        assert!(e.to_string().contains("fp16"));
    }

    #[test]
    fn checksum_tolerances_order_by_precision() {
        // natives keep the paper's margin untouched
        assert_eq!(checksum_tolerance(Precision::F32), 1e-3);
        assert_eq!(checksum_tolerance(Precision::F64), 1e-3);
        // half formats are looser, emulation ladder is tighter with k
        assert!(checksum_tolerance(Precision::Bf16) > checksum_tolerance(Precision::F16));
        assert!(checksum_tolerance(Precision::F16) > checksum_tolerance(Precision::F32));
        assert!(
            checksum_tolerance(Precision::F64Emul(2)) > checksum_tolerance(Precision::F64Emul(3))
        );
        assert!(
            checksum_tolerance(Precision::F64Emul(3)) > checksum_tolerance(Precision::F64Emul(4))
        );
    }

    #[test]
    fn gemm_rel_tolerance_grows_with_inner_dim() {
        for p in [
            Precision::F32,
            Precision::F64,
            Precision::Bf16,
            Precision::F16,
            Precision::F64Emul(3),
        ] {
            assert!(
                gemm_rel_tolerance(p, 1024) > gemm_rel_tolerance(p, 16),
                "{p}"
            );
            assert!(gemm_rel_tolerance(p, 16) > 0.0);
        }
        // the emulation ladder tightens with more slices
        assert!(
            gemm_rel_tolerance(Precision::F64Emul(2), 256)
                > gemm_rel_tolerance(Precision::F64Emul(3), 256)
        );
    }
}
