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
//! - emulated f64 is bit-identical to the Ozaki-triangle composition kept
//!   below as [`emul_oracle`] (one f32 GEMM per kept slice pair and block,
//!   each level summed in f64 and folded once), on random ill-scaled
//!   operands and on operands at the ends of the exponent range; its
//!   level tiles are exact at the slice bounds; and it is as accurate as
//!   the full `K²` composition the same oracle runs.

use blob_blas::contract::gemm_rel_tolerance;
use blob_blas::emul::{slice_bits, EMUL_KC};
use blob_blas::gemm::KC;
use blob_blas::microkernel::run_ukernel;
use blob_blas::rng::XorShift64;
use blob_blas::scalar::{Precision, Scalar};
use blob_blas::tune;
use blob_blas::{
    gemm_blocked, gemm_emul, gemm_half, gemm_parallel, gemm_ref, gemv_emul, Bf16, F16,
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
fn half<T: Scalar<Acc = f32>>(cases: &[Case]) {
    let p = T::PRECISION;
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
                        "{p:?} {case:?}: C[{i},{j}] = {}, f32 path narrowed once = {}",
                        c[at].to_f64(),
                        once.to_f64()
                    );
                }
            }
        }
    }
}

#[test]
fn bf16_is_the_f32_path_narrowed_once() {
    half::<Bf16>(&cases());
}

#[test]
fn f16_is_the_f32_path_narrowed_once() {
    half::<F16>(&cases());
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
    half::<Bf16>(&split);
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

/// 2^e as f64 wherever it is representable: a normal power from its
/// exponent bits, a subnormal one from its mantissa bit, 0 below 2^−1074
/// and ∞ above 2^1023.
fn pow2(e: i32) -> f64 {
    match e {
        -1022..=1023 => f64::from_bits(((e + 1023) as u64) << 52),
        -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
        ..-1074 => 0.0,
        _ => f64::INFINITY,
    }
}

/// `x / 2^e`, divided in two steps where 2^e is not a finite normal
/// number, so that a representable quotient comes out exact.
fn div_pow2(x: f64, e: i32) -> f64 {
    match e {
        ..-1022 => x / pow2(e + 1022) / pow2(-1022),
        1024.. => x / pow2(e - 1023) / pow2(1023),
        _ => x / pow2(e),
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

/// The emulation as separate f32 `gemm_blocked` calls over dense slice
/// copies, one per slice pair `(s, r)` of the first `levels` levels
/// `L = s + r` and per [`EMUL_KC`] block. A level's pair products are
/// summed in f64, which is exact, and folded once into an m×n f64
/// accumulator, in the order block → level. `levels = kk` is the Ozaki
/// triangle the packed implementation must reproduce bit for bit;
/// `levels = 2·kk − 1` is the full `K²` composition. Returns the number of
/// f32 GEMM calls.
#[allow(clippy::too_many_arguments)]
fn emul_oracle(
    kk: usize,
    levels: usize,
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
            let e = t0 - (s as i32 + 1) * t as i32;
            let q = div_pow2(rem, e).round_ties_even();
            rem -= div_pow2(q, -e);
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
    let mut level = vec![0.0f64; m * n];
    let mut cpair = vec![0.0f32; m * n];
    for jb in (0..k).step_by(EMUL_KC) {
        let kc = EMUL_KC.min(k - jb);
        for l in 0..levels {
            level.fill(0.0);
            for s in l.saturating_sub(kk - 1)..=l.min(kk - 1) {
                gemm_blocked(
                    m,
                    n,
                    kc,
                    1.0f32,
                    &sa[s][jb * m..],
                    m,
                    &sb[l - s][jb..],
                    k,
                    0.0f32,
                    &mut cpair,
                    m,
                )
                .expect("slice GEMM arguments are valid");
                calls += 1;
                for (sum, &p) in level.iter_mut().zip(&cpair) {
                    *sum += p as f64;
                }
            }
            let sc = -((l + 2) as i32) * t as i32;
            for j in 0..n {
                for i in 0..m {
                    let p = level[i + j * m];
                    if p != 0.0 {
                        acc[i + j * m] += div_pow2(p, -(ta[i] + tb[j] + sc));
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

/// `gemm_emul` and `gemv_emul` on `case`'s operands, each asserted
/// bit-identical to the triangle [`emul_oracle`]; the GEMV runs once at
/// unit stride and once with `x` at increment −2 (NaN between its
/// elements) and `y` at −1.
fn assert_matches_oracle(p: Precision, case: &Case, a: &[f64], b: &[f64], c0: &[f64]) {
    let kk = p.emul_slices().expect("an emulation tag") as usize;
    let mut got = c0.to_vec();
    let report = gemm_emul(
        p, case.m, case.n, case.k, case.alpha, a, case.lda, b, case.ldb, case.beta, &mut got,
        case.ldc,
    )
    .expect("valid arguments");
    let mut want = c0.to_vec();
    let calls = emul_oracle(
        kk, kk, case.m, case.n, case.k, case.alpha, a, case.lda, b, case.ldb, case.beta, &mut want,
        case.ldc,
    );
    assert_eq!(report.f32_gemm_calls, calls, "{p:?} {case:?}");
    assert_eq!(bits(&got), bits(&want), "{p:?} {case:?}");

    // GEMV: the same core with one right-hand column
    let x = &b[..case.k];
    let mut want = c0[..case.m].to_vec();
    emul_oracle(
        kk, kk, case.m, 1, case.k, case.alpha, a, case.lda, x, case.k, case.beta, &mut want, case.m,
    );
    let mut y = c0[..case.m].to_vec();
    gemv_emul(
        p, case.m, case.k, case.alpha, a, case.lda, x, 1, case.beta, &mut y, 1,
    )
    .expect("valid arguments");
    assert_eq!(bits(&y), bits(&want), "gemv {p:?} {case:?}");

    let mut x_neg = vec![f64::NAN; 2 * case.k.max(1) - 1];
    for (j, &v) in x.iter().enumerate() {
        x_neg[2 * (case.k - 1 - j)] = v;
    }
    let mut y_neg: Vec<f64> = c0[..case.m].iter().rev().copied().collect();
    gemv_emul(
        p, case.m, case.k, case.alpha, a, case.lda, &x_neg, -2, case.beta, &mut y_neg, -1,
    )
    .expect("valid arguments");
    y_neg.reverse();
    assert_eq!(
        bits(&y_neg),
        bits(&want),
        "gemv at increments -2/-1 {p:?} {case:?}"
    );
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
fn emulated_f64_is_bit_identical_to_the_triangle_composition() {
    for kk in 2u8..=4 {
        for (seed, case) in emul_cases().iter().enumerate() {
            let (a, b, c0) = operands::<f64>(case, seed as u64 + 100, 8);
            assert_matches_oracle(Precision::F64Emul(kk), case, &a, &b, &c0);
        }
    }
}

/// Row scales of `A` and column scales of `B` whose slice units leave the
/// reciprocal path's exponent range: rows and columns at 2^±1000, the top
/// binade against the smallest subnormal, subnormal elements, and all-zero
/// rows and columns (scale 0).
fn extreme_scales() -> [(Vec<f64>, Vec<f64>); 4] {
    [
        (
            vec![pow2(1000), 1.0, 0.0],
            vec![pow2(-1000), pow2(-20), 0.0],
        ),
        (vec![pow2(-1000), pow2(-1050), 0.0], vec![pow2(1000), 1.0]),
        (vec![pow2(1023), pow2(1000)], vec![pow2(-1074), pow2(-1050)]),
        (vec![1.0, pow2(-1050)], vec![pow2(-1050), 1.0, 0.0]),
    ]
}

/// Extreme-exponent operands, including β ≠ 0: bit-identical to the
/// oracle, and within the emulation's tolerance of the f64 reference
/// measured against the row and column scales (`4` covers `2^τ ≤ 2·max`
/// on each side), plus a few subnormal units of slack. α = −2 scales
/// exactly: `gemm_ref` applies α to `B`, which would round a subnormal.
#[test]
fn emulated_f64_extreme_exponents_match_the_oracle_and_the_reference() {
    let mut rng = XorShift64::new(0xE7);
    for (rows, cols) in extreme_scales() {
        for (m, n, k) in [(19, 9, 33), (45, 37, 70), (5, 3, 1)] {
            let a: Vec<f64> = (0..m * k)
                .map(|at| rng.range_f64(-1.0, 1.0) * rows[at % m % rows.len()])
                .collect();
            let b: Vec<f64> = (0..k * n)
                .map(|at| rng.range_f64(-1.0, 1.0) * cols[at / k % cols.len()])
                .collect();
            for beta in [0.0, 2.0] {
                let case = Case {
                    m,
                    n,
                    k,
                    alpha: -2.0,
                    beta,
                    lda: m,
                    ldb: k,
                    ldc: m,
                    threads: 1,
                };
                let c0 = if beta == 0.0 {
                    vec![f64::NAN; m * n]
                } else {
                    (0..m * n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
                };
                for kk in 2u8..=4 {
                    let p = Precision::F64Emul(kk);
                    assert_matches_oracle(p, &case, &a, &b, &c0);
                    let mut got = c0.clone();
                    gemm_emul(p, m, n, k, -2.0, &a, m, &b, k, beta, &mut got, m)
                        .expect("valid arguments");
                    let want = reference(&case, &a, &b, &c0);
                    let tol = gemm_rel_tolerance(p, k);
                    for j in 0..n {
                        let bmax = (0..k).fold(0.0f64, |mx, i| mx.max(b[i + j * k].abs()));
                        for i in 0..m {
                            let amax = (0..k).fold(0.0f64, |mx, p| mx.max(a[i + p * m].abs()));
                            let (g, w) = (got[i + j * m], want[i + j * m]);
                            let bound = tol * (2.0 * 4.0 * (amax * bmax) + w.abs())
                                + (k as f64 + 16.0) * pow2(-1074);
                            assert!(
                                (g - w).abs() <= bound,
                                "{p:?} {m}x{n}x{k} β={beta}: C[{i},{j}] = {g:e}, reference {w:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The level-tile lemma on the micro-kernel the emulation runs: panels at
/// the slice bounds (`|q₀| = 2^t`, `|q_s| = 2^(t−1)`, all positive) for
/// every block length, each level's `L + 1` slice-pair micro-kernels run
/// into one f32 tile that must equal the f64 sum exactly. At the first
/// inner index `A`'s leading slice and every `B` slice sit one below their
/// bound, which makes every level sum odd: an odd integer is exact in f32
/// only below 2^24. One slice bit more must break that, so the check can
/// see a rounding.
#[test]
fn emulated_f64_level_tiles_are_exact_at_the_slice_bounds() {
    let kern = tune::active::<f32>(1);
    let (mr, nr) = (kern.geom.mr, kern.geom.nr);
    // the level tiles of panels cut with `t` bits, each with its f64 sum
    let level_tiles = |kk: usize, kb: usize, t: u32| -> Vec<(Vec<f32>, f64)> {
        let bound = |s: usize| if s == 0 { 1u32 << t } else { 1 << (t - 1) };
        let value = |s: usize, p: usize, lead_only: bool| {
            let odd = p == 0 && (s == 0 || !lead_only);
            (bound(s) - u32::from(odd)) as f32
        };
        let a: Vec<Vec<f32>> = (0..kk)
            .map(|s| (0..kb * mr).map(|at| value(s, at / mr, true)).collect())
            .collect();
        let b: Vec<Vec<f32>> = (0..kk)
            .map(|r| (0..kb * nr).map(|at| value(r, at / nr, false)).collect())
            .collect();
        (0..kk)
            .map(|l| {
                let mut tile = vec![0.0f32; mr * nr];
                let mut sum = 0.0f64;
                for s in 0..=l {
                    run_ukernel(kern.engine, kern.geom, kb, &a[s], &b[l - s], &mut tile);
                    sum += (0..kb)
                        .map(|p| f64::from(a[s][p * mr]) * f64::from(b[l - s][p * nr]))
                        .sum::<f64>();
                }
                (tile, sum)
            })
            .collect()
    };
    for kk in 2..=4 {
        for kb in 1..=EMUL_KC {
            for (l, (tile, sum)) in level_tiles(kk, kb, slice_bits(kb)).iter().enumerate() {
                assert_eq!(sum % 2.0, 1.0, "K={kk} block {kb} level {l}: odd sum");
                for &v in tile {
                    assert_eq!(f64::from(v), *sum, "K={kk} block {kb} level {l}");
                }
            }
        }
    }
    let wider = level_tiles(2, EMUL_KC, slice_bits(EMUL_KC) + 1);
    assert!(
        wider.iter().any(|(tile, sum)| f64::from(tile[0]) != *sum),
        "one more slice bit must overflow f32's exact integers"
    );
}

/// Max |got − reference| over max |reference|.
fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    let scale = want.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
    let err = got
        .iter()
        .zip(want)
        .fold(0.0f64, |mx, (&g, &w)| mx.max((g - w).abs()));
    err / scale
}

/// Dropping the pairs below the triangle costs at most the order of the
/// slice remainder every pair leaves out: on well- and badly-scaled
/// operands the triangle's error is within 4× the full `K²` composition's.
#[test]
fn emulated_f64_triangle_is_as_accurate_as_the_full_square() {
    for spread in [0, 8, 20] {
        for (m, n, k) in [(24, 17, 80), (9, 13, 300)] {
            let case = Case {
                m,
                n,
                k,
                alpha: 1.0,
                beta: 0.0,
                lda: m,
                ldb: k,
                ldc: m,
                threads: 1,
            };
            let (a, b, _) = operands::<f64>(&case, 40 + spread as u64, spread);
            let zeros = vec![0.0; m * n];
            let want = reference(&case, &a, &b, &zeros);
            for kk in 2..=4 {
                let mut tri = zeros.clone();
                let mut full = zeros.clone();
                emul_oracle(kk, kk, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut tri, m);
                emul_oracle(
                    kk,
                    2 * kk - 1,
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    m,
                    &b,
                    k,
                    0.0,
                    &mut full,
                    m,
                );
                let mut got = zeros.clone();
                gemm_emul(
                    Precision::F64Emul(kk as u8),
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    m,
                    &b,
                    k,
                    0.0,
                    &mut got,
                    m,
                )
                .expect("valid arguments");
                assert_eq!(bits(&got), bits(&tri), "K={kk} spread {spread} {m}x{n}x{k}");
                let (e_tri, e_full) = (max_rel_err(&tri, &want), max_rel_err(&full, &want));
                assert!(
                    e_tri <= 4.0 * e_full,
                    "K={kk} spread {spread} {m}x{n}x{k}: triangle {e_tri:.3e}, full {e_full:.3e}"
                );
            }
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
    assert_eq!(
        report.f32_gemm_calls, 48,
        "K(K+1)/2 · ⌈256 / EMUL_KC⌉ at K = 3"
    );
}
