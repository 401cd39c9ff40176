//! One differential oracle for the GEMM precision path.
//!
//! Every precision runs one path: pack (widening or Ozaki-slicing) → SIMD
//! micro-kernel → store. Each is checked here against the f64 `gemm_ref`
//! under `gemm_rel_tolerance`, over shapes with edge tiles, inner
//! dimensions on both sides of the emulation block and of `KC`, the BLAS
//! α/β special values (β = 0 over a NaN-filled `C`), padded leading
//! dimensions and several thread counts. Two properties are exact:
//!
//! - a half GEMM is the f32 GEMM of its widened operands, narrowed once:
//!   bit-identical to narrowing the f32 path's result, including for
//!   `k = KC + 17`, where the product spans two k-panels;
//! - emulated f64 is bit-identical to the `K²`-call composition kept below
//!   as [`emul_oracle`], on random ill-scaled operands.

use blob_blas::contract::gemm_rel_tolerance;
use blob_blas::emul::{slice_bits, EMUL_KC};
use blob_blas::gemm::KC;
use blob_blas::rng::XorShift64;
use blob_blas::scalar::{Precision, Scalar};
use blob_blas::{
    gemm_blocked, gemm_emul, gemm_half, gemm_parallel, gemm_ref, gemv_emul, Bf16, HalfScalar, F16,
};

const SHAPES: [(usize, usize); 3] = [(1, 1), (19, 9), (45, 37)];
const INNER: [usize; 5] = [1, 31, 32, 33, KC + 17];
const ALPHAS: [f64; 3] = [0.0, 1.0, -0.5];
/// β = 0 runs over a NaN-filled `C`: it must never be read.
const BETAS: [f64; 3] = [0.0, 1.0, 2.0];
const THREADS: [usize; 3] = [1, 2, 3];

/// One GEMM problem: dimensions, scalars and leading dimensions.
#[derive(Debug, Clone, Copy)]
struct Case {
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    lda: usize,
    ldb: usize,
    ldc: usize,
    threads: usize,
}

/// Every combination of the axes; leading dimensions are tight at one
/// thread and padded (differently) at two and three.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (m, n) in SHAPES {
        for k in INNER {
            for alpha in ALPHAS {
                for beta in BETAS {
                    for threads in THREADS {
                        let (pa, pb, pc) = match threads {
                            1 => (0, 0, 0),
                            2 => (3, 1, 2),
                            _ => (1, 4, 5),
                        };
                        out.push(Case {
                            m,
                            n,
                            k,
                            alpha,
                            beta,
                            lda: m + pa,
                            ldb: k + pb,
                            ldc: m + pc,
                            threads,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Uniform values in [-1, 1) scaled by 2^e, e uniform in [-spread, spread]:
/// `spread > 0` makes rows and columns badly scaled for slicing.
fn values(seed: u64, len: usize, spread: i32) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    (0..len)
        .map(|_| {
            let e = rng.range_usize(0, (2 * spread + 1) as usize) as i32 - spread;
            rng.range_f64(-1.0, 1.0) * 2f64.powi(e)
        })
        .collect()
}

/// Operands of `case` in storage type `T` (C NaN-filled when β = 0).
fn operands<T: Scalar>(case: &Case, seed: u64, spread: i32) -> (Vec<T>, Vec<T>, Vec<T>) {
    let conv = |v: Vec<f64>| v.into_iter().map(T::from_f64).collect::<Vec<T>>();
    let a = conv(values(seed, case.lda * case.k, spread));
    let b = conv(values(seed ^ 0xB, case.ldb * case.n, spread));
    let c = if case.beta == 0.0 {
        vec![T::from_f64(f64::NAN); case.ldc * case.n]
    } else {
        conv(values(seed ^ 0xC, case.ldc * case.n, 0))
    };
    (a, b, c)
}

fn widened<T: Scalar>(v: &[T]) -> Vec<f64> {
    v.iter().map(|x| x.to_f64()).collect()
}

/// The f64 reference on the (exactly widened) stored operands.
fn reference<T: Scalar>(case: &Case, a: &[T], b: &[T], c: &[T]) -> Vec<f64> {
    let mut want = widened(c);
    gemm_ref(
        case.m,
        case.n,
        case.k,
        case.alpha,
        &widened(a),
        case.lda,
        &widened(b),
        case.ldb,
        case.beta,
        &mut want,
        case.ldc,
    )
    .expect("reference arguments are valid");
    want
}

/// Every element of the `m × n` result within `gemm_rel_tolerance`, and
/// every padding row of `C` untouched.
fn assert_close<T: Scalar>(p: Precision, case: &Case, c0: &[T], got: &[T], want: &[f64]) {
    let tol = gemm_rel_tolerance(p, case.k);
    for j in 0..case.n {
        for i in 0..case.ldc {
            let at = i + j * case.ldc;
            if i >= case.m {
                assert_eq!(
                    got[at].to_f64().to_bits(),
                    c0[at].to_f64().to_bits(),
                    "{p:?} {case:?}: padding row {i} of column {j} written"
                );
                continue;
            }
            let (g, w) = (got[at].to_f64(), want[at]);
            assert!(
                (g - w).abs() <= tol * w.abs().max(1.0),
                "{p:?} {case:?}: C[{i},{j}] = {g}, reference {w} (tolerance {tol})"
            );
        }
    }
}

fn native<T: Scalar>(p: Precision) {
    for (seed, case) in cases().iter().enumerate() {
        let (a, b, c0) = operands::<T>(case, seed as u64 + 1, 0);
        let mut c = c0.clone();
        gemm_parallel(
            case.threads,
            case.m,
            case.n,
            case.k,
            T::from_f64(case.alpha),
            &a,
            case.lda,
            &b,
            case.ldb,
            T::from_f64(case.beta),
            &mut c,
            case.ldc,
        )
        .expect("valid arguments");
        assert_close(p, case, &c0, &c, &reference(case, &a, &b, &c0));
    }
}

#[test]
fn f32_matches_the_f64_reference() {
    native::<f32>(Precision::F32);
}

#[test]
fn f64_matches_the_f64_reference() {
    native::<f64>(Precision::F64);
}

/// `T`'s GEMM through `gemm_parallel` (and, at one thread, `gemm_half`):
/// within tolerance of the f64 reference, and bit-identical to the f32 GEMM
/// of the widened operands with each element narrowed once.
fn half<T: HalfScalar>(p: Precision, cases: &[Case]) {
    for (seed, case) in cases.iter().enumerate() {
        let (a, b, c0) = operands::<T>(case, seed as u64 + 1, 0);
        let want = reference(case, &a, &b, &c0);
        let wide = |v: &[T]| v.iter().map(|x| x.widen()).collect::<Vec<f32>>();
        let mut c32 = wide(&c0);
        gemm_parallel(
            case.threads,
            case.m,
            case.n,
            case.k,
            case.alpha as f32,
            &wide(&a),
            case.lda,
            &wide(&b),
            case.ldb,
            case.beta as f32,
            &mut c32,
            case.ldc,
        )
        .expect("valid arguments");

        let mut runs = vec![c0.clone()];
        gemm_parallel(
            case.threads,
            case.m,
            case.n,
            case.k,
            T::from_f64(case.alpha),
            &a,
            case.lda,
            &b,
            case.ldb,
            T::from_f64(case.beta),
            &mut runs[0],
            case.ldc,
        )
        .expect("valid arguments");
        if case.threads == 1 {
            let mut c = c0.clone();
            gemm_half(
                p,
                case.m,
                case.n,
                case.k,
                case.alpha as f32,
                &a,
                case.lda,
                &b,
                case.ldb,
                case.beta as f32,
                &mut c,
                case.ldc,
            )
            .expect("valid arguments");
            runs.push(c);
        }
        for c in &runs {
            assert_close(p, case, &c0, c, &want);
            for j in 0..case.n {
                for i in 0..case.m {
                    let at = i + j * case.ldc;
                    let once = T::narrow(c32[at]);
                    assert!(
                        c[at] == once || (c[at].to_f64().is_nan() && once.to_f64().is_nan()),
                        "{p:?} {case:?}: C[{i},{j}] = {}, f32 path narrowed once = {once}",
                        c[at]
                    );
                }
            }
        }
    }
}

#[test]
fn bf16_is_the_f32_path_narrowed_once() {
    half::<Bf16>(Precision::Bf16, &cases());
}

#[test]
fn f16_is_the_f32_path_narrowed_once() {
    half::<F16>(Precision::F16, &cases());
}

/// Large enough for `gemm_parallel` to split across three workers, with
/// `k` spanning two k-panels: every worker stages its own C panel.
#[test]
fn split_half_gemm_narrows_once_per_element() {
    let (m, n, k) = (301, 599, KC + 17);
    let split: Vec<Case> = [2usize, 3]
        .into_iter()
        .map(|threads| Case {
            m,
            n,
            k,
            alpha: -0.5,
            beta: 2.0,
            lda: m + 1,
            ldb: k,
            ldc: m + 3,
            threads,
        })
        .collect();
    half::<Bf16>(Precision::Bf16, &split);
}

/// A second bf16 GEMM at 256³ on the same thread reuses the f32 packing
/// buffers the first one grew: no allocation.
#[test]
fn repeated_half_gemm_reuses_the_f32_arena() {
    let d = 256;
    let a = vec![Bf16::from_f32(0.5); d * d];
    let b = vec![Bf16::from_f32(0.25); d * d];
    let mut c = vec![Bf16::ZERO; d * d];
    let run = |c: &mut [Bf16]| {
        gemm_parallel(1, d, d, d, Bf16::ONE, &a, d, &b, d, Bf16::ZERO, c, d)
            .expect("valid arguments");
    };
    blob_blas::arena::clear();
    run(&mut c);
    let first = blob_blas::arena::retained_capacity::<f32>();
    assert!(first.0 > 0 && first.1 > 0, "packed into the f32 slot");
    run(&mut c);
    assert_eq!(blob_blas::arena::retained_capacity::<f32>(), first);
    assert_eq!(c[0].to_f32(), 32.0);
}

// ---------------------------------------------------------------------------
// emulated f64
// ---------------------------------------------------------------------------

/// 2^e as f64, exact over the full finite exponent range.
fn pow2(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        2f64.powi(e)
    }
}

/// `⌊log₂|x|⌋ + 1` for non-zero x (so `|x| < 2^τ`), via exponent bits.
fn tau(x: f64) -> i32 {
    let e = (x.abs().to_bits() >> 52) as i32;
    if e > 0 {
        e - 1023 + 1
    } else {
        ((x.abs() * pow2(100)).to_bits() >> 52) as i32 - 1023 + 1 - 100
    }
}

/// The emulation as `K²·⌈k/EMUL_KC⌉` separate f32 `gemm_blocked` calls
/// over dense slice copies, each folded into an m×n f64 accumulator — the
/// composition the packed implementation must reproduce bit for bit.
/// Returns the number of f32 GEMM calls.
#[allow(clippy::too_many_arguments)]
fn emul_oracle(
    kk: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) -> usize {
    let t = slice_bits(k);
    if m == 0 || n == 0 {
        return 0;
    }
    let scale = |mx: f64| if mx > 0.0 { tau(mx) } else { 0 };
    let ta: Vec<i32> = (0..m)
        .map(|i| scale((0..k).fold(0.0, |mx: f64, j| mx.max(a[i + j * lda].abs()))))
        .collect();
    let tb: Vec<i32> = (0..n)
        .map(|j| scale((0..k).fold(0.0, |mx: f64, i| mx.max(b[i + j * ldb].abs()))))
        .collect();
    let slice = |x: f64, t0: i32, out: &mut [Vec<f32>], at: usize| {
        let mut rem = x;
        for (s, dst) in out.iter_mut().enumerate() {
            let unit = pow2(t0 - (s as i32 + 1) * t as i32);
            let q = (rem / unit).round_ties_even();
            rem -= q * unit;
            dst[at] = q as f32;
        }
    };
    let mut sa = vec![vec![0.0f32; m * k]; kk];
    for j in 0..k {
        for i in 0..m {
            slice(a[i + j * lda], ta[i], &mut sa, i + j * m);
        }
    }
    let mut sb = vec![vec![0.0f32; k * n]; kk];
    for j in 0..n {
        for i in 0..k {
            slice(b[i + j * ldb], tb[j], &mut sb, i + j * k);
        }
    }
    let mut calls = 0;
    let mut acc = vec![0.0f64; m * n];
    let mut cpair = vec![0.0f32; m * n];
    for jb in (0..k).step_by(EMUL_KC) {
        let kc = EMUL_KC.min(k - jb);
        for (s, sa_s) in sa.iter().enumerate() {
            for (r, sb_r) in sb.iter().enumerate() {
                gemm_blocked(
                    m,
                    n,
                    kc,
                    1.0f32,
                    &sa_s[jb * m..],
                    m,
                    &sb_r[jb..],
                    k,
                    0.0f32,
                    &mut cpair,
                    m,
                )
                .expect("slice GEMM arguments are valid");
                calls += 1;
                let sc = -((s + r + 2) as i32) * t as i32;
                for j in 0..n {
                    for i in 0..m {
                        let p = cpair[i + j * m] as f64;
                        if p != 0.0 {
                            acc[i + j * m] += p * pow2(ta[i] + tb[j] + sc);
                        }
                    }
                }
            }
        }
    }
    for j in 0..n {
        for i in 0..m {
            let old = if beta == 0.0 {
                0.0
            } else {
                beta * c[i + j * ldc]
            };
            c[i + j * ldc] = alpha * acc[i + j * m] + old;
        }
    }
    calls
}

/// Emulated cases: the shared axes with tight and with padded leading
/// dimensions (emulation is single-threaded, so the thread count is moot).
fn emul_cases() -> Vec<Case> {
    cases().into_iter().filter(|c| c.threads != 2).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn emulated_f64_matches_the_f64_reference() {
    for kk in 2u8..=4 {
        let p = Precision::F64Emul(kk);
        for (seed, case) in emul_cases().iter().enumerate() {
            let (a, b, c0) = operands::<f64>(case, seed as u64 + 1, 0);
            let mut c = c0.clone();
            let report = gemm_emul(
                p, case.m, case.n, case.k, case.alpha, &a, case.lda, &b, case.ldb, case.beta,
                &mut c, case.ldc,
            )
            .expect("valid arguments");
            assert_eq!(report.slices, kk);
            assert_close(p, case, &c0, &c, &reference(case, &a, &b, &c0));
        }
    }
}

#[test]
fn emulated_f64_is_bit_identical_to_the_k2_call_composition() {
    for kk in 2u8..=4 {
        let p = Precision::F64Emul(kk);
        for (seed, case) in emul_cases().iter().enumerate() {
            let (a, b, c0) = operands::<f64>(case, seed as u64 + 100, 8);
            let mut got = c0.clone();
            let report = gemm_emul(
                p, case.m, case.n, case.k, case.alpha, &a, case.lda, &b, case.ldb, case.beta,
                &mut got, case.ldc,
            )
            .expect("valid arguments");
            let mut want = c0.clone();
            let calls = emul_oracle(
                kk as usize,
                case.m,
                case.n,
                case.k,
                case.alpha,
                &a,
                case.lda,
                &b,
                case.ldb,
                case.beta,
                &mut want,
                case.ldc,
            );
            assert_eq!(report.f32_gemm_calls, calls, "{p:?} {case:?}");
            assert_eq!(bits(&got), bits(&want), "{p:?} {case:?}");

            // GEMV: the same core with one right-hand column
            let x = &b[..case.k];
            let mut y = c0[..case.m].to_vec();
            gemv_emul(
                p, case.m, case.k, case.alpha, &a, case.lda, x, 1, case.beta, &mut y, 1,
            )
            .expect("valid arguments");
            let mut want = c0[..case.m].to_vec();
            emul_oracle(
                kk as usize,
                case.m,
                1,
                case.k,
                case.alpha,
                &a,
                case.lda,
                x,
                case.k,
                case.beta,
                &mut want,
                case.m,
            );
            assert_eq!(bits(&y), bits(&want), "gemv {p:?} {case:?}");
        }
    }
}

#[test]
fn emulated_f64_counts_slice_pair_block_products() {
    let d = 256;
    let a = values(3, d * 8, 8);
    let b = values(4, d * 8, 8);
    let mut c = vec![0.0; 8 * 8];
    let report = gemm_emul(
        Precision::F64Emul(3),
        8,
        8,
        d,
        1.0,
        &a,
        8,
        &b,
        d,
        0.0,
        &mut c,
        8,
    )
    .expect("valid arguments");
    assert_eq!(report.f32_gemm_calls, 72, "K² · ⌈256 / EMUL_KC⌉ at K = 3");
}
