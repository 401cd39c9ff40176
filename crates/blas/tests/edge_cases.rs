//! Edge-shape tests: every GEMM/GEMV entry point against a naive reference
//! written independently in this file, across the shapes that historically
//! break BLAS implementations — empty dimensions, `β = 0` with poisoned `C`,
//! negative vector increments, and padded leading dimensions — for both
//! `f32` and `f64`.

use blob_blas::scalar::Scalar;
use blob_blas::{gemm_blocked, gemm_parallel, gemm_ref, gemv_parallel, gemv_ref};

/// Storage offset of logical element `i` of an `n`-vector with stride `inc`
/// (BLAS convention: negative increments walk the buffer backwards).
fn at(i: usize, n: usize, inc: isize) -> usize {
    let step = inc.unsigned_abs();
    if inc >= 0 {
        i * step
    } else {
        (n - 1 - i) * step
    }
}

/// Naive GEMM, written without reference to the crate's kernels: per-element
/// dot products, honoring the `β = 0` overwrite rule.
fn naive_gemm<T: Scalar>(
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
) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = acc + a[i + p * lda] * b[p + j * ldb];
            }
            let out = &mut c[i + j * ldc];
            *out = if beta == T::ZERO {
                alpha * acc
            } else {
                alpha * acc + beta * *out
            };
        }
    }
}

/// Naive GEMV with explicit increments, honoring the `β = 0` overwrite rule.
fn naive_gemv<T: Scalar>(
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
) {
    for i in 0..m {
        let mut acc = T::ZERO;
        for j in 0..n {
            acc = acc + a[i + j * lda] * x[at(j, n, incx)];
        }
        let out = &mut y[at(i, m, incy)];
        *out = if beta == T::ZERO {
            alpha * acc
        } else {
            alpha * acc + beta * *out
        };
    }
}

/// Deterministic fill in roughly [-0.5, 0.5).
fn fill<T: Scalar>(seed: u64, len: usize) -> Vec<T> {
    (0..len)
        .map(|i| {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            T::from_f64((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        })
        .collect()
}

fn assert_close<T: Scalar>(got: &[T], want: &[T], tol: f64, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        let (g, w) = (g.to_f64(), w.to_f64());
        assert!(
            (g - w).abs() <= tol * w.abs().max(1.0),
            "{ctx}: element {i}: {g} vs {w}"
        );
    }
}

/// Every GEMM entry point, one shape, vs the naive reference.
fn check_gemm_all_entry_points<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    lda: usize,
    ldb: usize,
    ldc: usize,
    alpha: f64,
    beta: f64,
    c0: &[T],
    tol: f64,
) {
    let alpha = T::from_f64(alpha);
    let beta = T::from_f64(beta);
    let a: Vec<T> = fill(11, if k == 0 { 0 } else { lda * (k - 1) + m });
    let b: Vec<T> = fill(22, if n == 0 { 0 } else { ldb * (n - 1) + k });
    let mut want = c0.to_vec();
    naive_gemm(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc);

    let mut c = c0.to_vec();
    gemm_ref(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc).unwrap();
    assert_close(&c, &want, tol, "gemm_ref");

    let mut c = c0.to_vec();
    gemm_blocked(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc).unwrap();
    assert_close(&c, &want, tol, "gemm_blocked");

    for threads in [1, 4] {
        let mut c = c0.to_vec();
        gemm_parallel(threads, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc).unwrap();
        assert_close(&c, &want, tol, "gemm_parallel");
    }
}

fn c_len(m: usize, n: usize, ldc: usize) -> usize {
    if m == 0 || n == 0 {
        0
    } else {
        ldc * (n - 1) + m
    }
}

#[test]
fn gemm_empty_dimensions_f64() {
    // m == 0, n == 0: C is empty and nothing must be touched.
    for (m, n, k) in [(0, 5, 3), (5, 0, 3), (0, 0, 0)] {
        let c0: Vec<f64> = fill(33, c_len(m, n, m.max(1)));
        check_gemm_all_entry_points::<f64>(
            m,
            n,
            k,
            m.max(1),
            k.max(1),
            m.max(1),
            1.5,
            0.5,
            &c0,
            1e-12,
        );
    }
}

#[test]
fn gemm_k_zero_is_pure_scale_f64() {
    // k == 0 degenerates to C ← β·C; A and B are empty.
    let (m, n) = (4, 3);
    let c0: Vec<f64> = fill(44, m * n);
    check_gemm_all_entry_points::<f64>(m, n, 0, m, 1, m, 2.0, -0.5, &c0, 1e-12);
}

#[test]
fn gemm_beta_zero_overwrites_nan_poisoned_c() {
    // β = 0 must *overwrite*, not multiply: NaN·0 = NaN would leak through
    // a read-modify-write implementation.
    let (m, n, k) = (7, 6, 5);
    let c0 = vec![f64::NAN; m * n];
    check_gemm_all_entry_points::<f64>(m, n, k, m, k, m, 1.25, 0.0, &c0, 1e-12);

    let c0f = vec![f32::NAN; m * n];
    check_gemm_all_entry_points::<f32>(m, n, k, m, k, m, 1.25, 0.0, &c0f, 1e-5);
}

#[test]
fn gemm_padded_leading_dimensions() {
    // ld strictly greater than rows on every operand; padding must be
    // neither read (beyond contract) nor written.
    let (m, n, k) = (5, 4, 6);
    let (lda, ldb, ldc) = (m + 3, k + 2, m + 1);
    let c0: Vec<f64> = fill(55, c_len(m, n, ldc));
    check_gemm_all_entry_points::<f64>(m, n, k, lda, ldb, ldc, -1.0, 2.0, &c0, 1e-12);

    let c0f: Vec<f32> = fill(66, c_len(m, n, ldc));
    check_gemm_all_entry_points::<f32>(m, n, k, lda, ldb, ldc, -1.0, 2.0, &c0f, 1e-4);

    // the pad rows of C are untouched
    let mut c = c0.clone();
    let a: Vec<f64> = fill(11, lda * (k - 1) + m);
    let b: Vec<f64> = fill(22, ldb * (n - 1) + k);
    gemm_blocked(m, n, k, -1.0, &a, lda, &b, ldb, 2.0, &mut c, ldc).unwrap();
    for j in 0..n - 1 {
        for i in m..ldc {
            assert_eq!(c[i + j * ldc], c0[i + j * ldc], "pad ({i},{j}) modified");
        }
    }
}

#[test]
fn gemm_larger_shape_f32_vs_naive() {
    let (m, n, k) = (33, 29, 41);
    let c0: Vec<f32> = fill(77, m * n);
    check_gemm_all_entry_points::<f32>(m, n, k, m, k, m, 0.75, 1.5, &c0, 1e-3);
}

/// Every GEMV entry point, one configuration, vs the naive reference.
fn check_gemv_all_entry_points<T: Scalar>(
    m: usize,
    n: usize,
    lda: usize,
    incx: isize,
    incy: isize,
    alpha: f64,
    beta: f64,
    y0: &[T],
    tol: f64,
) {
    let alpha = T::from_f64(alpha);
    let beta = T::from_f64(beta);
    let a: Vec<T> = fill(10, if n == 0 { 0 } else { lda * (n - 1) + m });
    let xlen = if n == 0 {
        0
    } else {
        1 + (n - 1) * incx.unsigned_abs()
    };
    let x: Vec<T> = fill(20, xlen);
    let mut want = y0.to_vec();
    naive_gemv(m, n, alpha, &a, lda, &x, incx, beta, &mut want, incy);

    let mut y = y0.to_vec();
    gemv_ref(m, n, alpha, &a, lda, &x, incx, beta, &mut y, incy).unwrap();
    assert_close(&y, &want, tol, "gemv_ref");

    for threads in [1, 4] {
        let mut y = y0.to_vec();
        gemv_parallel(threads, m, n, alpha, &a, lda, &x, incx, beta, &mut y, incy).unwrap();
        assert_close(&y, &want, tol, "gemv_parallel");
    }
}

fn y_len(m: usize, incy: isize) -> usize {
    if m == 0 {
        0
    } else {
        1 + (m - 1) * incy.unsigned_abs()
    }
}

#[test]
fn gemv_empty_dimensions() {
    // m == 0: y empty. n == 0: y ← β·y only.
    let y0: Vec<f64> = vec![];
    check_gemv_all_entry_points::<f64>(0, 4, 1, 1, 1, 1.0, 0.5, &y0, 1e-12);
    let y0: Vec<f64> = fill(30, 5);
    check_gemv_all_entry_points::<f64>(5, 0, 5, 1, 1, 1.0, -2.0, &y0, 1e-12);
}

#[test]
fn gemv_beta_zero_overwrites_nan_poisoned_y() {
    let (m, n) = (9, 7);
    let y0 = vec![f64::NAN; m];
    check_gemv_all_entry_points::<f64>(m, n, m, 1, 1, 1.5, 0.0, &y0, 1e-12);
    let y0f = vec![f32::NAN; m];
    check_gemv_all_entry_points::<f32>(m, n, m, 1, 1, 1.5, 0.0, &y0f, 1e-5);
}

#[test]
fn gemv_negative_and_strided_increments() {
    let (m, n) = (6, 5);
    for (incx, incy) in [(-1, 1), (1, -1), (-2, 3), (2, -2), (-1, -1)] {
        let y0: Vec<f64> = fill(40, y_len(m, incy));
        check_gemv_all_entry_points::<f64>(m, n, m, incx, incy, 1.25, 0.75, &y0, 1e-12);
        let y0f: Vec<f32> = fill(50, y_len(m, incy));
        check_gemv_all_entry_points::<f32>(m, n, m, incx, incy, 1.25, 0.75, &y0f, 1e-4);
    }
}

#[test]
fn gemv_padded_leading_dimension() {
    let (m, n) = (8, 6);
    let lda = m + 5; // ld strictly greater than rows
    let y0: Vec<f64> = fill(60, m);
    check_gemv_all_entry_points::<f64>(m, n, lda, 1, 1, -0.5, 1.0, &y0, 1e-12);
    let y0f: Vec<f32> = fill(70, m);
    check_gemv_all_entry_points::<f32>(m, n, lda, 1, 1, -0.5, 1.0, &y0f, 1e-4);
}

#[test]
fn gemv_tall_parallel_shape_vs_naive() {
    // tall enough that gemv_parallel actually splits into chunks
    let (m, n) = (513, 17);
    let y0: Vec<f64> = fill(80, m);
    check_gemv_all_entry_points::<f64>(m, n, m, 1, 1, 2.0, -1.0, &y0, 1e-11);
}
