//! Transposed-operand entry points: `gemm_ex` and `gemv_ex`.
//!
//! The paper's artifact fixes all operands to non-transposed column-major
//! (§III-A), but a BLAS a downstream user adopts needs the `op(A)` forms.
//! `op(X)` is selected by [`Trans`]; the blocked GEMM handles transposition
//! inside the packing step (the packed panel layout is identical either
//! way, so the micro-kernel is untouched — the standard BLIS approach).
//!
//! Both entry points validate through [`contract`](crate::contract) (on the
//! *stored* shapes) before touching any buffer and return a typed
//! [`ContractError`] on violation.

use crate::contract::{self, vec_index, ContractError};
use crate::microkernel::{MR, NR};
use crate::pack::{pack_a, pack_b};
use crate::scalar::Scalar;

/// Whether an operand is used as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// `op(X) = X`.
    NoTrans,
    /// `op(X) = Xᵀ`.
    Trans,
}

/// Packs an `mc × kc` block of `op(A)` starting at logical offset
/// `(row0, col0)` of `op(A)`, where `A` is stored column-major with leading
/// dimension `lda`. For `Trans`, logical `(i, p)` reads `a[p + i·lda]`.
#[allow(clippy::too_many_arguments)]
fn pack_a_op<T: Scalar>(
    trans: Trans,
    mc: usize,
    kc: usize,
    a: &[T],
    lda: usize,
    row0: usize,
    col0: usize,
    alpha: T::Acc,
    buf: &mut Vec<T::Acc>,
) {
    match trans {
        Trans::NoTrans => {
            pack_a(mc, kc, &a[col0 * lda + row0..], lda, alpha, MR, buf);
        }
        Trans::Trans => {
            // transposed gather: no contiguous sub-slice exists, pack
            // element-wise in the sliver layout pack_a produces
            let slivers = mc.div_ceil(MR);
            buf.clear();
            buf.reserve(slivers * MR * kc);
            for s in 0..slivers {
                let r0 = s * MR;
                let rows = MR.min(mc - r0);
                for p in 0..kc {
                    for i in 0..rows {
                        // logical op(A)[row0 + r0 + i, col0 + p] = A[col0 + p, row0 + r0 + i]
                        let v = a[(col0 + p) + (row0 + r0 + i) * lda];
                        buf.push(v.widen() * alpha);
                    }
                    buf.extend(std::iter::repeat_n(T::Acc::ZERO, MR - rows));
                }
            }
        }
    }
}

/// Packs a `kc × nc` panel of `op(B)` starting at logical `(row0, col0)`.
#[allow(clippy::too_many_arguments)]
fn pack_b_op<T: Scalar>(
    trans: Trans,
    kc: usize,
    nc: usize,
    b: &[T],
    ldb: usize,
    row0: usize,
    col0: usize,
    buf: &mut Vec<T::Acc>,
) {
    match trans {
        Trans::NoTrans => {
            pack_b(kc, nc, &b[col0 * ldb + row0..], ldb, NR, buf);
        }
        Trans::Trans => {
            let slivers = nc.div_ceil(NR);
            buf.clear();
            buf.reserve(slivers * NR * kc);
            for s in 0..slivers {
                let c0 = s * NR;
                let cols = NR.min(nc - c0);
                for p in 0..kc {
                    for j in 0..cols {
                        // logical op(B)[row0 + p, col0 + c0 + j] = B[col0 + c0 + j, row0 + p]
                        buf.push(b[(col0 + c0 + j) + (row0 + p) * ldb].widen());
                    }
                    buf.extend(std::iter::repeat_n(T::Acc::ZERO, NR - cols));
                }
            }
        }
    }
}

fn op_dims(trans: Trans, rows: usize, cols: usize) -> (usize, usize) {
    match trans {
        Trans::NoTrans => (rows, cols),
        Trans::Trans => (cols, rows),
    }
}

/// GEMM with transposition: `C ← α·op(A)·op(B) + β·C` where `op(A)` is
/// `m × k` and `op(B)` is `k × n`. Leading dimensions refer to the
/// *stored* matrices: `A` is `m × k` for `NoTrans` (lda ≥ m) and `k × m`
/// for `Trans` (lda ≥ k); likewise for `B`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ex<T: Scalar>(
    transa: Trans,
    transb: Trans,
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
) -> Result<(), ContractError> {
    // stored shapes
    let (a_rows, a_cols) = op_dims(transa, m, k);
    let (b_rows, b_cols) = op_dims(transb, k, n);
    contract::check_matrix("a", a.len(), a_rows, a_cols, lda)?;
    contract::check_matrix("b", b.len(), b_rows, b_cols, ldb)?;
    contract::check_matrix("c", c.len(), m, n, ldc)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    // β / degenerate handling mirrors gemm_blocked
    if alpha == T::ZERO || k == 0 {
        for j in 0..n {
            let col = &mut c[j * ldc..j * ldc + m];
            if beta == T::ZERO {
                col.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in col {
                    *v *= beta;
                }
            }
        }
        return Ok(());
    }

    use crate::gemm::{KC, MC, NC};
    let mut packed_a: Vec<T::Acc> = Vec::new();
    let mut packed_b: Vec<T::Acc> = Vec::new();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let beta_eff = if pc == 0 { beta.widen() } else { T::Acc::ONE };
            pack_b_op(transb, kc, nc, b, ldb, pc, jc, &mut packed_b);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a_op(transa, mc, kc, a, lda, ic, pc, alpha.widen(), &mut packed_a);
                // macro kernel (same as gemm_blocked's)
                let m_slivers = mc.div_ceil(MR);
                let n_slivers = nc.div_ceil(NR);
                for js in 0..n_slivers {
                    let j0 = js * NR;
                    let nr_eff = NR.min(nc - j0);
                    let b_sl = &packed_b[js * kc * NR..(js + 1) * kc * NR];
                    for is in 0..m_slivers {
                        let i0 = is * MR;
                        let mr_eff = MR.min(mc - i0);
                        let a_sl = &packed_a[is * kc * MR..(is + 1) * kc * MR];
                        let mut acc = [T::Acc::ZERO; MR * NR];
                        // default geometry, but still engine-dispatched:
                        // the 8×4 SIMD variants exist for both engines
                        crate::microkernel::run_ukernel(
                            crate::microkernel::active_engine(),
                            crate::microkernel::Geometry::new(MR, NR),
                            kc,
                            a_sl,
                            b_sl,
                            &mut acc,
                        );
                        crate::microkernel::store_tile(
                            &acc,
                            MR,
                            &mut c[(ic + i0) + (jc + j0) * ldc..],
                            ldc,
                            mr_eff,
                            nr_eff,
                            beta_eff,
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// GEMV with transposition: `y ← α·op(A)·x + β·y`, `A` stored `m × n`
/// column-major. `NoTrans`: `y` has `m` elements, `x` has `n`; `Trans`:
/// the reverse (`y = α·Aᵀx + βy` — a dot product per stored column, which
/// is the cache-friendly direction for column-major storage).
#[allow(clippy::too_many_arguments)]
pub fn gemv_ex<T: Scalar>(
    trans: Trans,
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
) -> Result<(), ContractError> {
    match trans {
        Trans::NoTrans => crate::gemv::gemv_ref(m, n, alpha, a, lda, x, incx, beta, y, incy),
        Trans::Trans => {
            contract::check_matrix("a", a.len(), m, n, lda)?;
            contract::check_vector("x", x.len(), m, incx)?;
            contract::check_vector("y", y.len(), n, incy)?;
            for j in 0..n {
                let col = &a[j * lda..j * lda + m];
                let dot = if incx == 1 {
                    // SIMD dot through the engine dispatch (fixed 8-lane
                    // accumulation contract — engine-independent result).
                    crate::microkernel::dot(col, &x[..m])
                } else {
                    let mut acc = T::ZERO;
                    for i in 0..m {
                        acc = col[i].mul_add(x[vec_index(i, m, incx)], acc);
                    }
                    acc
                };
                let yj = &mut y[vec_index(j, n, incy)];
                *yj = if beta == T::ZERO {
                    alpha * dot
                } else {
                    dot.mul_add(alpha, beta * *yj)
                };
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_ref;
    use crate::matrix::Matrix;

    fn filled(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((i * 6151 + j * 3079) as u64);
            ((h >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    fn transpose(m: &Matrix<f64>) -> Matrix<f64> {
        Matrix::from_fn(m.cols(), m.rows(), |i, j| m[(j, i)])
    }

    fn check_case(transa: Trans, transb: Trans, m: usize, n: usize, k: usize) {
        // stored shapes
        let a = match transa {
            Trans::NoTrans => filled(m, k, 1),
            Trans::Trans => filled(k, m, 1),
        };
        let b = match transb {
            Trans::NoTrans => filled(k, n, 2),
            Trans::Trans => filled(n, k, 2),
        };
        let c0 = filled(m, n, 3);

        let mut got = c0.clone();
        gemm_ex(
            transa,
            transb,
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            0.5,
            got.as_mut_slice(),
            m,
        )
        .unwrap();

        // oracle: materialise op(A), op(B), run the reference kernel
        let a_eff = match transa {
            Trans::NoTrans => a.clone(),
            Trans::Trans => transpose(&a),
        };
        let b_eff = match transb {
            Trans::NoTrans => b.clone(),
            Trans::Trans => transpose(&b),
        };
        let mut want = c0.clone();
        gemm_ref(
            m,
            n,
            k,
            1.5,
            a_eff.as_slice(),
            a_eff.ld(),
            b_eff.as_slice(),
            b_eff.ld(),
            0.5,
            want.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(
            got.approx_eq(&want, 1e-10),
            "{transa:?}/{transb:?} m={m} n={n} k={k}: {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn all_four_transpose_combinations() {
        for (m, n, k) in [(5, 7, 9), (17, 13, 21), (33, 40, 8), (64, 64, 64)] {
            check_case(Trans::NoTrans, Trans::NoTrans, m, n, k);
            check_case(Trans::Trans, Trans::NoTrans, m, n, k);
            check_case(Trans::NoTrans, Trans::Trans, m, n, k);
            check_case(Trans::Trans, Trans::Trans, m, n, k);
        }
    }

    #[test]
    fn notrans_matches_plain_blocked() {
        let (m, n, k) = (40, 30, 50);
        let a = filled(m, k, 4);
        let b = filled(k, n, 5);
        let mut c1 = Matrix::<f64>::zeros(m, n);
        let mut c2 = Matrix::<f64>::zeros(m, n);
        gemm_ex(
            Trans::NoTrans,
            Trans::NoTrans,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c1.as_mut_slice(),
            m,
        )
        .unwrap();
        crate::gemm_blocked(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c2.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn gemm_ex_degenerate_cases() {
        // alpha = 0: pure beta scaling, regardless of trans flags
        let mut c = vec![2.0f64; 4];
        gemm_ex::<f64>(
            Trans::Trans,
            Trans::Trans,
            2,
            2,
            0,
            1.0,
            &[],
            1,
            &[],
            2,
            0.5,
            &mut c,
            2,
        )
        .unwrap();
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn gemv_trans_is_dot_per_column() {
        let (m, n) = (11, 6);
        let a = filled(m, n, 6);
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).sin()).collect();
        let y0: Vec<f64> = (0..n).map(|j| j as f64 * 0.1).collect();
        let mut y = y0.clone();
        gemv_ex(
            Trans::Trans,
            m,
            n,
            2.0,
            a.as_slice(),
            m,
            &x,
            1,
            0.5,
            &mut y,
            1,
        )
        .unwrap();
        for j in 0..n {
            let dot: f64 = (0..m).map(|i| a[(i, j)] * x[i]).sum();
            let want = 2.0 * dot + 0.5 * y0[j];
            assert!((y[j] - want).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn gemv_trans_beta_zero_ignores_garbage() {
        let (m, n) = (8, 5);
        let a = filled(m, n, 7);
        let x = vec![1.0; m];
        let mut y = vec![f64::NAN; n];
        gemv_ex(
            Trans::Trans,
            m,
            n,
            1.0,
            a.as_slice(),
            m,
            &x,
            1,
            0.0,
            &mut y,
            1,
        )
        .unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gemv_notrans_delegates() {
        let (m, n) = (9, 4);
        let a = filled(m, n, 8);
        let x = vec![0.5; n];
        let mut y1 = vec![0.0; m];
        let mut y2 = vec![0.0; m];
        gemv_ex(
            Trans::NoTrans,
            m,
            n,
            1.0,
            a.as_slice(),
            m,
            &x,
            1,
            0.0,
            &mut y1,
            1,
        )
        .unwrap();
        crate::gemv_ref(m, n, 1.0, a.as_slice(), m, &x, 1, 0.0, &mut y2, 1).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn transposed_bounds_checked() {
        // op(A) is 4x3 but stored A (3x4) buffer is short
        let a = vec![0.0f64; 10];
        let b = vec![0.0f64; 12];
        let mut c = vec![0.0f64; 12];
        let err = gemm_ex(
            Trans::Trans,
            Trans::NoTrans,
            4,
            4,
            3,
            1.0,
            &a,
            3,
            &b,
            3,
            0.0,
            &mut c,
            4,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ContractError::BufferTooShort { arg: "a", .. }
        ));
    }
}
