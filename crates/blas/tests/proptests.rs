//! Property-based tests for the BLAS kernels.
//!
//! Strategy: generate random shapes, leading dimensions, scalars and data,
//! then assert algebraic invariants that must hold regardless of the
//! blocking/threading path taken — agreement with the reference kernel,
//! linearity, and the BLAS α/β contracts.
//!
//! Driven by `blob_core::testkit` (the in-repo proptest stand-in); a failing
//! case prints its seed so it can be replayed with `testkit::run_case`.

use blob_blas::gemm::BlockConfig;
use blob_blas::{
    gemm_blocked, gemm_blocked_tuned, gemm_parallel, gemm_ref, gemv_parallel, gemv_ref, tune,
    Matrix, TunedKernel,
};
use blob_core::testkit::{forall, Config, Gen};

/// Shape generator matching the original proptest `1..48` ranges.
fn dims(g: &mut Gen) -> (usize, usize, usize) {
    (g.usize_in(1, 47), g.usize_in(1, 47), g.usize_in(1, 47))
}

#[test]
fn gemm_blocked_agrees_with_reference() {
    forall(Config::default().cases(64), |g| {
        let (m, n, k) = dims(g);
        let pad_a = g.usize_in(0, 3);
        let pad_b = g.usize_in(0, 3);
        let alpha = g.f64_in(-2.0, 2.0);
        let beta = g.f64_in(-2.0, 2.0);
        let seed = g.u64();
        let a = Matrix::from_fn(m, k, |i, j| hash01(seed, i, j) - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| hash01(seed ^ 0xabc, i, j) - 0.5);
        let c0 = Matrix::from_fn(m, n, |i, j| hash01(seed ^ 0xdef, i, j) - 0.5);
        // re-embed with padded lds
        let a = pad_mat(&a, pad_a);
        let b = pad_mat(&b, pad_b);

        let mut c_ref = c0.clone();
        gemm_ref(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            beta,
            c_ref.as_mut_slice(),
            m,
        )
        .unwrap();
        let mut c_blk = c0.clone();
        gemm_blocked(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            beta,
            c_blk.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(
            c_ref.approx_eq(&c_blk, 1e-9),
            "max diff {}",
            c_ref.max_abs_diff(&c_blk)
        );
    });
}

#[test]
fn gemm_parallel_agrees_with_reference() {
    forall(Config::default().cases(64), |g| {
        let (m, n, k) = dims(g);
        let threads = g.usize_in(1, 8);
        let seed = g.u64();
        let a = Matrix::from_fn(m, k, |i, j| hash01(seed, i, j) - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| hash01(seed ^ 1, i, j) - 0.5);
        let mut c_ref = Matrix::zeros(m, n);
        gemm_ref(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c_ref.as_mut_slice(),
            m,
        )
        .unwrap();
        let mut c_par = Matrix::zeros(m, n);
        gemm_parallel(
            threads,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c_par.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(c_ref.approx_eq(&c_par, 1e-9));
    });
}

/// Any valid blocking configuration computes the same product.
#[test]
fn gemm_blocking_config_invariant() {
    forall(Config::default().cases(64), |g| {
        let (m, n, k) = dims(g);
        let mc = g.usize_in(1, 63);
        let kc = g.usize_in(1, 63);
        let nc = g.usize_in(1, 63);
        let seed = g.u64();
        let a = Matrix::from_fn(m, k, |i, j| hash01(seed, i, j) - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| hash01(seed ^ 0x55, i, j) - 0.5);
        let mut c_ref = Matrix::zeros(m, n);
        gemm_ref(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c_ref.as_mut_slice(),
            m,
        )
        .unwrap();
        let kern = TunedKernel {
            block: BlockConfig::new(mc, kc, nc),
            ..tune::active::<f64>(1)
        };
        let mut c_cfg = Matrix::zeros(m, n);
        gemm_blocked_tuned(
            &kern,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c_cfg.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(c_ref.approx_eq(&c_cfg, 1e-9));
    });
}

/// GEMM is linear in alpha: gemm(2α) == 2 * gemm(α) when β = 0.
#[test]
fn gemm_linear_in_alpha() {
    forall(Config::default().cases(64), |g| {
        let (m, n, k) = dims(g);
        let alpha = g.f64_in(-2.0, 2.0);
        let seed = g.u64();
        let a = Matrix::from_fn(m, k, |i, j| hash01(seed, i, j) - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| hash01(seed ^ 2, i, j) - 0.5);
        let mut c1 = Matrix::zeros(m, n);
        gemm_blocked(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c1.as_mut_slice(),
            m,
        )
        .unwrap();
        let mut c2 = Matrix::zeros(m, n);
        gemm_blocked(
            m,
            n,
            k,
            2.0 * alpha,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c2.as_mut_slice(),
            m,
        )
        .unwrap();
        for j in 0..n {
            for i in 0..m {
                assert!((2.0 * c1[(i, j)] - c2[(i, j)]).abs() < 1e-9);
            }
        }
    });
}

/// The β contract: gemm(α, β) == gemm(α, 0) + β·C₀.
#[test]
fn gemm_beta_contract() {
    forall(Config::default().cases(64), |g| {
        let (m, n, k) = dims(g);
        let beta = g.f64_in(-2.0, 2.0);
        let seed = g.u64();
        let a = Matrix::from_fn(m, k, |i, j| hash01(seed, i, j) - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| hash01(seed ^ 3, i, j) - 0.5);
        let c0 = Matrix::from_fn(m, n, |i, j| hash01(seed ^ 4, i, j) - 0.5);
        let mut with_beta = c0.clone();
        gemm_blocked(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            beta,
            with_beta.as_mut_slice(),
            m,
        )
        .unwrap();
        let mut product = Matrix::zeros(m, n);
        gemm_blocked(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            product.as_mut_slice(),
            m,
        )
        .unwrap();
        for j in 0..n {
            for i in 0..m {
                let want = product[(i, j)] + beta * c0[(i, j)];
                assert!((with_beta[(i, j)] - want).abs() < 1e-9);
            }
        }
    });
}

/// GEMV agrees with a GEMM where B is a single column.
#[test]
fn gemv_is_single_column_gemm() {
    forall(Config::default().cases(64), |g| {
        let m = g.usize_in(1, 63);
        let n = g.usize_in(1, 63);
        let alpha = g.f64_in(-2.0, 2.0);
        let beta = g.f64_in(-2.0, 2.0);
        let seed = g.u64();
        let a = Matrix::from_fn(m, n, |i, j| hash01(seed, i, j) - 0.5);
        let x: Vec<f64> = (0..n).map(|j| hash01(seed ^ 5, j, 0) - 0.5).collect();
        let y0: Vec<f64> = (0..m).map(|i| hash01(seed ^ 6, i, 0) - 0.5).collect();

        let mut y = y0.clone();
        gemv_ref(m, n, alpha, a.as_slice(), m, &x, 1, beta, &mut y, 1).unwrap();

        let mut c = y0.clone();
        gemm_ref(m, 1, n, alpha, a.as_slice(), m, &x, n, beta, &mut c, m).unwrap();
        for i in 0..m {
            assert!((y[i] - c[i]).abs() < 1e-10);
        }
    });
}

#[test]
fn gemv_parallel_agrees() {
    forall(Config::default().cases(64), |g| {
        let m = g.usize_in(1, 599);
        let n = g.usize_in(1, 31);
        let threads = g.usize_in(1, 8);
        let seed = g.u64();
        let a = Matrix::from_fn(m, n, |i, j| hash01(seed, i, j) - 0.5);
        let x: Vec<f64> = (0..n).map(|j| hash01(seed ^ 7, j, 1) - 0.5).collect();
        let mut y1 = vec![0.25; m];
        let mut y2 = vec![0.25; m];
        gemv_ref(m, n, 1.5, a.as_slice(), m, &x, 1, 0.5, &mut y1, 1).unwrap();
        gemv_parallel(threads, m, n, 1.5, a.as_slice(), m, &x, 1, 0.5, &mut y2, 1).unwrap();
        for i in 0..m {
            assert!((y1[i] - y2[i]).abs() < 1e-10);
        }
    });
}

/// Deterministic value in [0, 1) from (seed, i, j).
fn hash01(seed: u64, i: usize, j: usize) -> f64 {
    let mut h = seed ^ 0x9e3779b97f4a7c15;
    h = h.wrapping_add((i as u64).wrapping_mul(0xbf58476d1ce4e5b9));
    h = h.wrapping_add((j as u64).wrapping_mul(0x94d049bb133111eb));
    h ^= h >> 31;
    h = h.wrapping_mul(0xd6e8feb86659fd93);
    h ^= h >> 32;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Re-embeds a tight matrix with `pad` extra ld rows.
fn pad_mat(m: &Matrix<f64>, pad: usize) -> Matrix<f64> {
    let mut out = Matrix::zeros_ld(m.rows(), m.cols(), m.rows() + pad);
    for j in 0..m.cols() {
        out.col_mut(j).copy_from_slice(m.col(j));
    }
    out
}
