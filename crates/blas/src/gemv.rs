//! GEMV: `y ← α·A·x + β·y` for a column-major `m × n` matrix `A`, no
//! transposition, with explicit vector increments (`incx = incy = 1` in the
//! paper's configuration, but general strides — including the BLAS
//! negative-increment convention — are supported and tested).
//!
//! - [`gemv_ref`] — column-sweep (axpy-based) kernel: unit-stride access to
//!   both `A` and `y`; the validation oracle and the serial fast path.
//! - [`gemv_parallel`] — row-block parallel kernel: each thread owns a
//!   contiguous block of `y` and sweeps all columns of its row band. This
//!   is the multithreading AOCL famously *lacks* for GEMV — the cause of
//!   LUMI's surprisingly low GEMV offload thresholds in the paper (§IV-B).
//!
//! Every entry point validates its arguments through
//! [`contract`](crate::contract) before touching any buffer and reports
//! violations as a typed [`ContractError`] instead of panicking.

use crate::contract::{self, vec_index, ContractError};
use crate::microkernel::axpy_update;
use crate::perturb;
use crate::pool;
use crate::scalar::Scalar;

/// Applies `y ← β·y` honouring the β=0 write-only rule.
fn scale_y<T: Scalar>(m: usize, beta: T, y: &mut [T], incy: isize) {
    if beta == T::ONE {
        return;
    }
    for i in 0..m {
        let at = vec_index(i, m, incy);
        if beta == T::ZERO {
            y[at] = T::ZERO;
        } else {
            y[at] *= beta;
        }
    }
}

/// Reference column-sweep GEMV.
#[allow(clippy::too_many_arguments)]
pub fn gemv_ref<T: Scalar>(
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
    contract::check_gemv(m, n, a.len(), lda, x.len(), incx, y.len(), incy)?;
    if m == 0 {
        return Ok(());
    }
    scale_y(m, beta, y, incy);
    if alpha == T::ZERO || n == 0 {
        return Ok(());
    }
    if incy == 1 {
        for j in 0..n {
            let w = alpha * x[vec_index(j, n, incx)];
            if w == T::ZERO {
                continue;
            }
            // SIMD axpy through the startup-selected engine; one FMA per
            // element in order, bit-identical to the scalar loop.
            axpy_update(w, &a[j * lda..j * lda + m], &mut y[..m]);
        }
    } else {
        for j in 0..n {
            let w = alpha * x[vec_index(j, n, incx)];
            if w == T::ZERO {
                continue;
            }
            let col = &a[j * lda..j * lda + m];
            for i in 0..m {
                let at = vec_index(i, m, incy);
                y[at] = col[i].mul_add(w, y[at]);
            }
        }
    }
    Ok(())
}

/// Row-block parallel GEMV.
///
/// `y` is split into contiguous row blocks dispatched through
/// [`pool::run_scoped`]; each block reads the matching row band of every
/// column of `A`. GEMV is bandwidth-bound, so the split width is chosen by
/// streamed volume: [`pool::effective_workers`] grants one worker per
/// [`pool::MIN_ELEMS_PER_THREAD`] elements of `m·n`, and anything below
/// two workers' worth (including the benchmark's tall-skinny 8192×64)
/// runs serially inline with zero dispatch cost.
#[allow(clippy::too_many_arguments)]
pub fn gemv_parallel<T: Scalar>(
    threads: usize,
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
    contract::check_gemv(m, n, a.len(), lda, x.len(), incx, y.len(), incy)?;
    if m == 0 {
        return Ok(());
    }
    let streamed = m.saturating_mul(n.max(1));
    let threads = pool::cap_at_host_parallelism(threads);
    let chunks = pool::effective_workers(threads, streamed, pool::MIN_ELEMS_PER_THREAD).min(m);
    if chunks <= 1 || incy != 1 {
        // Strided y makes clean row-splitting of the slice awkward for no
        // benchmark benefit (the artifact always uses incy = 1).
        return gemv_ref(m, n, alpha, a, lda, x, incx, beta, y, incy);
    }
    let per = m.div_ceil(chunks);
    // Only the first m elements of y participate when incy == 1.
    let mut rest: &mut [T] = &mut y[..m];
    let mut jobs = Vec::with_capacity(chunks);
    let mut i0 = 0usize;
    while i0 < m {
        let rows = per.min(m - i0);
        let (mine, r) = rest.split_at_mut(rows);
        rest = r;
        let row0 = i0;
        jobs.push(move || {
            perturb::point(perturb::tags::GEMV_CHUNK);
            scale_y(rows, beta, mine, 1);
            if alpha == T::ZERO || n == 0 {
                return;
            }
            for j in 0..n {
                let w = alpha * x[vec_index(j, n, incx)];
                if w == T::ZERO {
                    continue;
                }
                let band = &a[j * lda + row0..j * lda + row0 + rows];
                axpy_update(w, band, mine);
            }
        });
        i0 += rows;
    }
    pool::run_scoped(jobs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn filled(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add((i * 92821 + j * 68917) as u64);
            ((h >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    fn naive(
        m: usize,
        n: usize,
        alpha: f64,
        a: &Matrix<f64>,
        x: &[f64],
        beta: f64,
        y0: &[f64],
    ) -> Vec<f64> {
        (0..m)
            .map(|i| {
                let dot: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
                alpha * dot + beta * y0[i]
            })
            .collect()
    }

    #[test]
    fn matches_naive_various_shapes() {
        for (m, n) in [
            (1, 1),
            (5, 3),
            (3, 5),
            (64, 64),
            (100, 7),
            (7, 100),
            (257, 33),
        ] {
            let a = filled(m, n, 11);
            let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.3).sin()).collect();
            let y0: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).cos()).collect();
            for (alpha, beta) in [(1.0, 0.0), (2.0, 0.0), (1.0, 2.0), (-1.0, 0.5)] {
                let expect = naive(m, n, alpha, &a, &x, beta, &y0);
                let mut y = y0.clone();
                gemv_ref(m, n, alpha, a.as_slice(), a.ld(), &x, 1, beta, &mut y, 1).unwrap();
                for i in 0..m {
                    assert!((y[i] - expect[i]).abs() < 1e-10, "ref ({m},{n}) i={i}");
                }
                let mut yp = y0.clone();
                gemv_parallel(
                    4,
                    m,
                    n,
                    alpha,
                    a.as_slice(),
                    a.ld(),
                    &x,
                    1,
                    beta,
                    &mut yp,
                    1,
                )
                .unwrap();
                for i in 0..m {
                    assert!((yp[i] - expect[i]).abs() < 1e-10, "par ({m},{n}) i={i}");
                }
            }
        }
    }

    #[test]
    fn beta_zero_ignores_garbage_y() {
        let (m, n) = (33, 17);
        let a = filled(m, n, 2);
        let x = vec![1.0; n];
        let mut y = vec![f64::NAN; m];
        gemv_ref(m, n, 1.0, a.as_slice(), m, &x, 1, 0.0, &mut y, 1).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
        let mut yp = vec![f64::NAN; m];
        gemv_parallel(8, m, n, 1.0, a.as_slice(), m, &x, 1, 0.0, &mut yp, 1).unwrap();
        assert!(yp.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn strided_vectors() {
        let (m, n) = (4, 3);
        let a = filled(m, n, 3);
        // logical x = [1, 2, 3] at stride 2
        let x = [1.0, 0.0, 2.0, 0.0, 3.0];
        let y0 = [1.0, 1.0, 1.0, 1.0];
        let expect = naive(m, n, 1.0, &a, &[1.0, 2.0, 3.0], 1.0, &y0);
        // y at stride 3
        let mut y = vec![0.0; (m - 1) * 3 + 1];
        for i in 0..m {
            y[i * 3] = 1.0;
        }
        gemv_ref(m, n, 1.0, a.as_slice(), m, &x, 2, 1.0, &mut y, 3).unwrap();
        for i in 0..m {
            assert!((y[i * 3] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_increments_reverse_vectors() {
        let (m, n) = (3, 3);
        let a = filled(m, n, 13);
        // incx = -1: stored x is the logical vector reversed
        let logical_x = [1.0, 2.0, 3.0];
        let stored_x = [3.0, 2.0, 1.0];
        let y0 = [0.5, -0.5, 1.5];
        let expect = naive(m, n, 2.0, &a, &logical_x, 1.0, &y0);
        let mut y = y0;
        gemv_ref(m, n, 2.0, a.as_slice(), m, &stored_x, -1, 1.0, &mut y, 1).unwrap();
        for i in 0..m {
            assert!((y[i] - expect[i]).abs() < 1e-12, "incx=-1 i={i}");
        }
        // incy = -1: result lands reversed in storage
        let mut y_rev = [y0[2], y0[1], y0[0]];
        gemv_ref(
            m,
            n,
            2.0,
            a.as_slice(),
            m,
            &stored_x,
            -1,
            1.0,
            &mut y_rev,
            -1,
        )
        .unwrap();
        for i in 0..m {
            assert!(
                (y_rev[m - 1 - i] - expect[i]).abs() < 1e-12,
                "incy=-1 i={i}"
            );
        }
    }

    #[test]
    fn padded_lda() {
        let (m, n) = (10, 6);
        let tight = filled(m, n, 4);
        let mut a = Matrix::<f64>::zeros_ld(m, n, m + 7);
        for j in 0..n {
            a.col_mut(j).copy_from_slice(tight.col(j));
        }
        let x = vec![0.5; n];
        let mut y1 = vec![0.0; m];
        let mut y2 = vec![0.0; m];
        gemv_ref(
            m,
            n,
            1.0,
            tight.as_slice(),
            tight.ld(),
            &x,
            1,
            0.0,
            &mut y1,
            1,
        )
        .unwrap();
        gemv_ref(m, n, 1.0, a.as_slice(), a.ld(), &x, 1, 0.0, &mut y2, 1).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn alpha_zero_scales_only() {
        let (m, n) = (8, 8);
        let a = filled(m, n, 5);
        let x = vec![1.0; n];
        let mut y = vec![2.0; m];
        gemv_ref(m, n, 0.0, a.as_slice(), m, &x, 1, 3.0, &mut y, 1).unwrap();
        assert!(y.iter().all(|&v| v == 6.0));
    }

    #[test]
    fn n_zero_scales_only() {
        let m = 4;
        let mut y = vec![2.0; m];
        gemv_ref::<f64>(m, 0, 1.0, &[], m, &[], 1, 0.5, &mut y, 1).unwrap();
        assert!(y.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn m_zero_is_noop() {
        let mut y: Vec<f64> = vec![];
        gemv_ref::<f64>(0, 3, 1.0, &[], 1, &[1.0, 2.0, 3.0], 1, 0.0, &mut y, 1).unwrap();
    }

    #[test]
    fn parallel_many_threads_small_m_falls_back() {
        let (m, n) = (10, 10);
        let a = filled(m, n, 6);
        let x = vec![1.0; n];
        let mut y1 = vec![0.0; m];
        let mut y2 = vec![0.0; m];
        gemv_ref(m, n, 1.0, a.as_slice(), m, &x, 1, 0.0, &mut y1, 1).unwrap();
        gemv_parallel(128, m, n, 1.0, a.as_slice(), m, &x, 1, 0.0, &mut y2, 1).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn parallel_large_m_splits_correctly() {
        let (m, n) = (2048, 16);
        let a = filled(m, n, 7);
        let x: Vec<f64> = (0..n).map(|j| j as f64 - 8.0).collect();
        let mut y1 = vec![1.0; m];
        let mut y2 = vec![1.0; m];
        gemv_ref(m, n, 2.0, a.as_slice(), m, &x, 1, -1.0, &mut y1, 1).unwrap();
        gemv_parallel(4, m, n, 2.0, a.as_slice(), m, &x, 1, -1.0, &mut y2, 1).unwrap();
        for i in 0..m {
            assert!((y1[i] - y2[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn short_a_rejected() {
        let a = [0.0f64; 3];
        let x = [1.0f64; 2];
        let mut y = [0.0f64; 2];
        let err = gemv_ref(2, 2, 1.0, &a, 2, &x, 1, 0.0, &mut y, 1).unwrap_err();
        assert!(matches!(
            err,
            crate::contract::ContractError::BufferTooShort { arg: "a", .. }
        ));
    }

    #[test]
    fn zero_increment_rejected() {
        let a = [0.0f64; 4];
        let x = [1.0f64; 2];
        let mut y = [0.0f64; 2];
        let err = gemv_ref(2, 2, 1.0, &a, 2, &x, 0, 0.0, &mut y, 1).unwrap_err();
        assert_eq!(
            err,
            crate::contract::ContractError::ZeroIncrement { arg: "x" }
        );
        let err = gemv_parallel(2, 2, 2, 1.0, &a, 2, &x, 1, 0.0, &mut y, 0).unwrap_err();
        assert_eq!(
            err,
            crate::contract::ContractError::ZeroIncrement { arg: "y" }
        );
    }

    #[test]
    fn f32_path() {
        let (m, n) = (19, 23);
        let a = Matrix::<f32>::from_fn(m, n, |i, j| ((i * 3 + j) % 11) as f32 - 5.0);
        let x: Vec<f32> = (0..n).map(|j| (j % 3) as f32).collect();
        let mut y1 = vec![0.0f32; m];
        let mut y2 = vec![0.0f32; m];
        gemv_ref(m, n, 1.0f32, a.as_slice(), m, &x, 1, 0.0, &mut y1, 1).unwrap();
        gemv_parallel(3, m, n, 1.0f32, a.as_slice(), m, &x, 1, 0.0, &mut y2, 1).unwrap();
        for i in 0..m {
            assert!((y1[i] - y2[i]).abs() < 1e-3);
        }
    }
}
