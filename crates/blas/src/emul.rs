//! # emul — Ozaki-scheme emulated-f64 GEMM on the fast f32 kernel
//!
//! The paper's offload question has a software sibling: when a device (or a
//! SIMD engine) is much faster at low precision than at f64, it can pay to
//! *emulate* f64 GEMM with several low-precision GEMMs — the Ozaki splitting
//! scheme used by tunable-precision BLAS offload layers (arXiv 2503.22875).
//! This module implements that scheme on top of this crate's fast blocked
//! f32 GEMM, with `K` slices selecting the accuracy/speed trade-off.
//!
//! ## How the split works
//!
//! Each f64 operand element is decomposed into `K` integer slices of `t`
//! bits, scaled per row of `A` and per column of `B` so that every slice is
//! a small integer exactly representable in f32:
//!
//! ```text
//! a[i,j] ≈ Σ_s  qa_s[i,j] · 2^(τa[i] − (s+1)·t)      |qa_0| ≤ 2^t, |qa_s| ≤ 2^(t−1)
//! ```
//!
//! where `τa[i] = ⌊log₂ max_j |a[i,j]|⌋ + 1`. The extraction loop
//! (`q = round_ties_even(rem/unit); rem -= q·unit`) is *exact* in f64
//! arithmetic: `unit` is a power of two, so the scaling, the product and
//! the subtraction all round to themselves.
//!
//! The product `a·b` is the double sum over slice pairs `(s, r)`, pair
//! `(s, r)` scaled by `2^(τa[i] + τb[j] − (s+r+2)·t)`. Only the Ozaki
//! triangle `s + r ≤ K − 1` is computed: `K(K+1)/2` of the `K²` pairs
//! (3, 6 and 10 for K = 2, 3, 4). Every dropped pair weighs at most
//! `2^(−K·t)` of `max|a|·max|b|` — the same order as the remainder beyond
//! slice `K` that every pair leaves out anyway, and that
//! [`gemm_rel_tolerance`](crate::contract::gemm_rel_tolerance) prices.
//!
//! The inner dimension is processed in blocks of [`EMUL_KC`] columns, and
//! the slice width is chosen as `t = ⌊(23 − ⌈log₂ block⌉)/2⌋`, so that
//! `2t + log₂(block) ≤ 23`. The only rounding anywhere is the final f64
//! accumulation and what is discarded (the remainder beyond slice `K` and
//! the pairs below the triangle), giving a relative accuracy of roughly
//! `2^(−K·t)`:
//!
//! | slices K | accuracy ≈ | comparable to |
//! |----------|------------|---------------|
//! | 2        | 2⁻¹⁸       | better than f32 |
//! | 3        | 2⁻²⁷       | ~f32 squared / "f64-lite" |
//! | 4        | 2⁻³⁶       | approaching f64 |
//!
//! ## How it runs
//!
//! The slices are cut inside the packer, on the blocked GEMM's f32 path:
//! for each row block of `A` and column panel of `B`, every element is
//! sliced once, straight into `K` packed f32 panels per [`EMUL_KC`] block,
//! laid out for the tuned f32 micro-kernel. Slicing multiplies by the
//! exact reciprocal `2^−e` of each unit, worked out once per row of an `A`
//! sliver and once per `B` column, and runs across the sliver's rows (`A`)
//! or the block's depth (`B`) so that it vectorises. A product by a normal
//! power of two and the quotient by its reciprocal are the same real
//! number rounded once, so this is bit-identical to dividing. Rows and
//! columns whose unit exponents leave `[−1022, 1022]` are sliced element
//! by element, the scale applied in two exact steps.
//!
//! Each micro-tile then runs, per block and per level `L = s + r`, the
//! level's `L + 1` slice-pair micro-kernels into **one** f32 tile, and
//! folds that tile once into an f64 tile accumulator held for the whole
//! inner dimension, in the order block → level: `K` folds per block
//! instead of `K²`. The pairs of a level share the scale `2^−(L+2)t`, and
//! their block sum is an exact f32 integer (the *level-tile lemma*): per
//! inner index, the two pairs with a leading slice weigh at most
//! `2^t · 2^(t−1)` each and the `L − 1` others `2^(2t−2)` each, so the
//! level sums to at most `2^(2t−2)·(L + 3)` (level 0, the single pair
//! `(0, 0)`, to `2^2t`, no more than level 1). Over a block of at most
//! `2^(23−2t)` indices that is `2^21·(L + 3) ≤ 2^24` for `L ≤ 5`. Every
//! partial sum is an integer of at most that size, so the micro-kernel's
//! f32 accumulation never rounds and the level tile equals the f64 sum of
//! its pair products. No dense
//! slice copy, no m×n temporary and no per-pair GEMM call exists; the
//! tile is stored once as `α·acc + β·C`.
//!
//! Entry points carry an explicit [`Precision`] tag (must be
//! `Precision::F64Emul(k)`), enforced by `blob-check`'s
//! `no-untagged-precision` rule — emulation never silently masquerades as
//! native f64.

use std::borrow::Cow;

use crate::contract::{check_gemm, check_gemv, vec_index};
use crate::microkernel::{run_ukernel, Engine, Geometry, MAX_ACC, MAX_MR};
use crate::scalar::Precision;
use crate::tune;
use crate::ContractError;

/// Inner-dimension block size for the sliced products. Together with the
/// slice width `t` it guarantees `2t + ⌈log₂ EMUL_KC⌉ ≤ 23`, so each
/// block's f32 accumulation is exact (integers below 2²⁴).
pub const EMUL_KC: usize = 32;

/// Slice width in bits for an inner dimension of `kdim`: the widest `t`
/// such that a block's slice-pair product sums stay exact in f32.
pub const fn slice_bits(kdim: usize) -> u32 {
    let block = if kdim == 0 {
        1
    } else if kdim < EMUL_KC {
        kdim
    } else {
        EMUL_KC
    };
    // ceil(log2(block))
    let lg = usize::BITS - (block - 1).leading_zeros();
    (23 - lg) / 2
}

/// What an emulated call actually did — surfaced so the sweep runner and
/// tests can reason about the cost model (`K(K+1)/2` f32 products per
/// inner block, [`Precision::emul_products`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmulReport {
    /// Number of slices `K` each operand was decomposed into.
    pub slices: u8,
    /// Bits per slice (`t` above).
    pub slice_bits: u32,
    /// Number of exact slice-pair block products, `K(K+1)/2·⌈k/EMUL_KC⌉`
    /// — the f32 GEMMs the scheme is made of, each an `m × n × EMUL_KC`
    /// product run tile by tile on the shared packed slices.
    pub f32_gemm_calls: usize,
}

/// 2^e as f64, exact wherever it is representable: a normal power from
/// its exponent bits, a subnormal one from its mantissa bit, 0 below
/// 2^−1074 and ∞ above 2^1023.
#[inline]
fn pow2(e: i32) -> f64 {
    match e {
        -1022..=1023 => f64::from_bits(((e + 1023) as u64) << 52),
        -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
        ..-1074 => 0.0,
        _ => f64::INFINITY,
    }
}

/// `x · 2^e`, the scale applied in two steps where 2^e is not a finite
/// normal number, so that a representable product comes out exact even
/// when 2^e itself is not representable.
#[inline]
fn mul_pow2(x: f64, e: i32) -> f64 {
    match e {
        ..-1022 => x * pow2(e + 1022) * pow2(-1022),
        1024.. => x * pow2(e - 1023) * pow2(1023),
        _ => x * pow2(e),
    }
}

/// `⌊log₂|x|⌋ + 1` for non-zero x (so `|x| < 2^τ`), via exponent bits.
#[inline]
fn tau(x: f64) -> i32 {
    let bits = x.abs().to_bits();
    let e = (bits >> 52) as i32;
    if e > 0 {
        e - 1023 + 1
    } else {
        // subnormal: renormalise by 2^100 and correct
        let e2 = ((x.abs() * pow2(100)).to_bits() >> 52) as i32;
        e2 - 1023 + 1 - 100
    }
}

/// Most slices an operand is cut into ([`Precision::emul_slices`] clamps
/// to 2..=4).
const MAX_SLICES: usize = 4;

// The level-tile lemma holds up to level 5; the deepest level is K − 1.
const _: () = assert!(MAX_SLICES <= 6);

/// Extracts `kk` exact integer slices of element `x` against scale `t0`
/// (the row/column τ), writing slice `s` through `put(s, q)`: with
/// `unit = 2^(t0 − (s+1)·t)`, `q = round_ties_even(rem / unit)` and
/// `rem −= q · unit`, both scalings by [`mul_pow2`]. This per-element form
/// serves the rows and columns [`slice_scales`] leaves out.
#[inline]
fn extract_slices(x: f64, t0: i32, t: u32, kk: usize, mut put: impl FnMut(usize, f32)) {
    let mut rem = x;
    for s in 0..kk {
        let e = t0 - (s as i32 + 1) * t as i32;
        let q = mul_pow2(rem, -e).round_ties_even();
        rem -= mul_pow2(q, e);
        put(s, q as f32);
    }
}

/// The `kk` slice units `2^(t0 − (s+1)·t)` of a row or column with scale
/// `t0`, each with its reciprocal, or `None` when an exponent leaves
/// [−1022, 1022]. Inside that range both are normal powers of two, so
/// `rem · recip` and `rem / unit` are the same real number rounded once:
/// the slices come out bit-identical to [`extract_slices`] and to the
/// division. Outside it the caller slices element by element.
#[inline]
fn slice_scales(t0: i32, t: u32, kk: usize) -> Option<[(f64, f64); MAX_SLICES]> {
    let mut out = [(1.0, 1.0); MAX_SLICES];
    for (s, scale) in out.iter_mut().enumerate().take(kk) {
        let e = t0 - (s as i32 + 1) * t as i32;
        if !(-1022..=1022).contains(&e) {
            return None;
        }
        *scale = (pow2(e), pow2(-e));
    }
    Some(out)
}

/// The binade scale `τ` of a row or column whose largest magnitude is
/// `max`; 0 when it is all zero (its slices are all zero, so the value
/// never matters).
fn binade(max: f64) -> i32 {
    if max > 0.0 {
        tau(max)
    } else {
        0
    }
}

/// Packs the Ozaki slices of an `mc × k` block of `A` (column-major, `lda`)
/// into `buf` as ceil(mc/mr) row slivers of height `mr`, each holding, per
/// [`EMUL_KC`] block of the inner dimension and per slice `s`, the
/// `kcb × mr` panel [`pack_a`](crate::pack::pack_a) would produce for that
/// slice. Row `i` is sliced against `ta[i]`; padding rows are zero.
///
/// A sliver's units and reciprocals are worked out once, and each column
/// is sliced across the sliver's `mr` rows, so the loop vectorises. A
/// sliver with a row outside [`slice_scales`]' range uses
/// [`extract_slices`] instead.
#[allow(clippy::too_many_arguments)]
fn pack_a_slices(
    kk: usize,
    t: u32,
    mc: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    ta: &[i32],
    mr: usize,
    buf: &mut Vec<f32>,
) {
    let len = kk * k * mr;
    buf.clear();
    buf.resize(mc.div_ceil(mr) * len, 0.0);
    for is in 0..mc.div_ceil(mr) {
        let sliver = &mut buf[is * len..(is + 1) * len];
        let i0 = is * mr;
        let rows = mr.min(mc - i0);
        // units[s][i], recips[s][i]; padding rows slice 0 against 1
        let mut units = [[1.0f64; MAX_MR]; MAX_SLICES];
        let mut recips = [[1.0f64; MAX_MR]; MAX_SLICES];
        let mut exact = true;
        for i in 0..rows {
            match slice_scales(ta[i0 + i], t, kk) {
                Some(sc) => {
                    for (s, &(u, r)) in sc.iter().enumerate() {
                        units[s][i] = u;
                        recips[s][i] = r;
                    }
                }
                None => exact = false,
            }
        }
        for p0 in (0..k).step_by(EMUL_KC) {
            let kcb = EMUL_KC.min(k - p0);
            let block = &mut sliver[kk * p0 * mr..kk * (p0 + kcb) * mr];
            for p in 0..kcb {
                let col = &a[(p0 + p) * lda + i0..][..rows];
                if !exact {
                    for (i, &x) in col.iter().enumerate() {
                        extract_slices(x, ta[i0 + i], t, kk, |s, q| {
                            block[(s * kcb + p) * mr + i] = q;
                        });
                    }
                    continue;
                }
                let mut rem = [0.0f64; MAX_MR];
                rem[..rows].copy_from_slice(col);
                for s in 0..kk {
                    let out = &mut block[(s * kcb + p) * mr..][..mr];
                    let lanes = rem[..mr].iter_mut().zip(&units[s][..mr]);
                    for ((o, (rem, &u)), &r) in out.iter_mut().zip(lanes).zip(&recips[s][..mr]) {
                        let q = (*rem * r).round_ties_even();
                        *rem -= q * u;
                        *o = q as f32;
                    }
                }
            }
        }
    }
}

/// Packs the Ozaki slices of a `k × nc` panel of `B` (column-major, `ldb`)
/// into `buf` as ceil(nc/nr) column slivers of width `nr`, each holding, per
/// [`EMUL_KC`] block and per slice `r`, the `kcb × nr` panel
/// [`pack_b`](crate::pack::pack_b) would produce for that slice. Column `j`
/// is sliced against `tb[j]`; padding columns are zero.
///
/// A column's units and reciprocals are worked out once, and each block is
/// sliced across its `kcb` depth, so the loop vectorises. A column outside
/// [`slice_scales`]' range uses [`extract_slices`] instead.
#[allow(clippy::too_many_arguments)]
fn pack_b_slices(
    kk: usize,
    t: u32,
    k: usize,
    nc: usize,
    b: &[f64],
    ldb: usize,
    tb: &[i32],
    nr: usize,
    buf: &mut Vec<f32>,
) {
    let len = kk * k * nr;
    buf.clear();
    buf.resize(nc.div_ceil(nr) * len, 0.0);
    for js in 0..nc.div_ceil(nr) {
        let sliver = &mut buf[js * len..(js + 1) * len];
        let j0 = js * nr;
        for j in 0..nr.min(nc - j0) {
            let scales = slice_scales(tb[j0 + j], t, kk);
            for p0 in (0..k).step_by(EMUL_KC) {
                let kcb = EMUL_KC.min(k - p0);
                let block = &mut sliver[kk * p0 * nr..kk * (p0 + kcb) * nr];
                let col = &b[(j0 + j) * ldb + p0..][..kcb];
                let Some(scales) = scales else {
                    for (p, &x) in col.iter().enumerate() {
                        extract_slices(x, tb[j0 + j], t, kk, |r, q| {
                            block[(r * kcb + p) * nr + j] = q;
                        });
                    }
                    continue;
                };
                let mut rem = [0.0f64; EMUL_KC];
                rem[..kcb].copy_from_slice(col);
                for (r, &(u, recip)) in scales.iter().enumerate().take(kk) {
                    let out = block[r * kcb * nr..(r + 1) * kcb * nr].chunks_exact_mut(nr);
                    for (o, rem) in out.zip(&mut rem[..kcb]) {
                        let q = (*rem * recip).round_ties_even();
                        *rem -= q * u;
                        o[j] = q as f32;
                    }
                }
            }
        }
    }
}

/// Folds one exact f32 level tile into the f64 tile accumulator:
/// `acc += p · 2^(exps + sc)` element-wise, where `exps` holds
/// `τa[i] + τb[j]` (0 on padding).
///
/// A zero partial adds `+0`, which leaves `acc` unchanged (it starts at
/// `+0` and exact cancellation rounds to `+0`, so it is never `-0`), and
/// [`mul_pow2`] never makes `0 · 2^big` a NaN: the result matches the
/// skip-zero form bit for bit. When every exponent is a normal binade the
/// scale is built from its bits and the loop vectorises.
fn fold_tile(tile: &[f32], exps: &[i32], exp_range: (i32, i32), sc: i32, acc: &mut [f64]) {
    let (lo, hi) = exp_range;
    if lo + sc >= -1022 && hi + sc <= 1023 {
        for ((a, &p), &e) in acc.iter_mut().zip(tile).zip(exps) {
            *a += f64::from(p) * f64::from_bits(((e + sc + 1023) as u64) << 52);
        }
    } else {
        for ((a, &p), &e) in acc.iter_mut().zip(tile).zip(exps) {
            *a += mul_pow2(f64::from(p), e + sc);
        }
    }
}

/// One micro-tile of the emulated product: per [`EMUL_KC`] block and per
/// level `L = s + r < kk` of the Ozaki triangle, the level's slice-pair
/// micro-kernels run into one f32 tile on the tile's packed slivers. The
/// level tile is exact (see the module docs), so it is folded into `acc`
/// once, in the order block → level.
#[allow(clippy::too_many_arguments)]
fn tile_product(
    engine: Engine,
    geom: Geometry,
    kk: usize,
    t: u32,
    k: usize,
    a_sl: &[f32],
    b_sl: &[f32],
    exps: &[i32],
    acc: &mut [f64],
) {
    let (mr, nr) = (geom.mr, geom.nr);
    // padding holds 0, so the seed is inside the range anyway
    let range = exps
        .iter()
        .fold((0, 0), |(lo, hi), &e| (lo.min(e), hi.max(e)));
    for p0 in (0..k).step_by(EMUL_KC) {
        let kcb = EMUL_KC.min(k - p0);
        let a_blk = &a_sl[kk * p0 * mr..];
        let b_blk = &b_sl[kk * p0 * nr..];
        for level in 0..kk {
            let mut tile = [0.0f32; MAX_ACC];
            for s in 0..=level {
                let r = level - s;
                let a_s = &a_blk[s * kcb * mr..(s + 1) * kcb * mr];
                let b_r = &b_blk[r * kcb * nr..(r + 1) * kcb * nr];
                run_ukernel(engine, geom, kcb, a_s, b_r, &mut tile[..mr * nr]);
            }
            let sc = -((level + 2) as i32) * t as i32;
            fold_tile(&tile[..mr * nr], exps, range, sc, acc);
        }
    }
}

/// The shared m×n×k core on validated arguments (`A` with `lda`, `B` k×n
/// with `ldb`): `c = α·(A·B) + β·c`, emulated with `kk` slices per operand
/// and `pairs` slice-pair products per inner block.
#[allow(clippy::too_many_arguments)]
fn emul_core(
    (kk, pairs): (usize, usize),
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
) -> EmulReport {
    let t = slice_bits(k);
    let mut report = EmulReport {
        slices: kk as u8,
        slice_bits: t,
        f32_gemm_calls: 0,
    };
    if m == 0 || n == 0 {
        return report;
    }
    report.f32_gemm_calls = pairs * k.div_ceil(EMUL_KC);

    let mut row_max = vec![0.0f64; m];
    for j in 0..k {
        for (mx, v) in row_max.iter_mut().zip(&a[j * lda..j * lda + m]) {
            *mx = mx.max(v.abs());
        }
    }
    let ta: Vec<i32> = row_max.into_iter().map(binade).collect();
    let tb: Vec<i32> = (0..n)
        .map(|j| binade((0..k).fold(0.0f64, |mx, i| mx.max(b[i + j * ldb].abs()))))
        .collect();
    let kern = tune::active::<f32>(1);
    let (engine, geom) = (kern.engine, kern.geom);
    let (mr, nr) = (geom.mr, geom.nr);
    let (a_sliver, b_sliver) = (kk * k * mr, kk * k * nr);
    crate::arena::with_pack_buffers::<f32, _>(|packed_a, packed_b, _| {
        for jc in (0..n).step_by(kern.block.nc.max(1)) {
            let nc = kern.block.nc.min(n - jc);
            pack_b_slices(kk, t, k, nc, &b[jc * ldb..], ldb, &tb[jc..], nr, packed_b);
            for ic in (0..m).step_by(kern.block.mc.max(1)) {
                let mc = kern.block.mc.min(m - ic);
                pack_a_slices(kk, t, mc, k, &a[ic..], lda, &ta[ic..], mr, packed_a);
                for js in 0..nc.div_ceil(nr) {
                    let j0 = js * nr;
                    let nr_eff = nr.min(nc - j0);
                    let b_sl = &packed_b[js * b_sliver..(js + 1) * b_sliver];
                    for is in 0..mc.div_ceil(mr) {
                        let i0 = is * mr;
                        let mr_eff = mr.min(mc - i0);
                        let a_sl = &packed_a[is * a_sliver..(is + 1) * a_sliver];
                        let mut exps = [0i32; MAX_ACC];
                        for j in 0..nr_eff {
                            for i in 0..mr_eff {
                                exps[i + j * mr] = ta[ic + i0 + i] + tb[jc + j0 + j];
                            }
                        }
                        let mut acc = [0.0f64; MAX_ACC];
                        let acc = &mut acc[..mr * nr];
                        tile_product(engine, geom, kk, t, k, a_sl, b_sl, &exps[..mr * nr], acc);
                        for j in 0..nr_eff {
                            let cj = &mut c[ic + i0 + (jc + j0 + j) * ldc..];
                            for i in 0..mr_eff {
                                // blob-check: allow(no-float-eq): BLAS beta semantics — exactly zero means C is write-only and never read
                                let old = if beta == 0.0 { 0.0 } else { beta * cj[i] };
                                cj[i] = alpha * acc[i + j * mr] + old;
                            }
                        }
                    }
                }
            }
        }
    });
    report
}

/// Validates an emulation precision tag, returning its slice count and
/// its slice-pair products per inner block.
fn check_emul_tag(precision: Precision) -> Result<(usize, usize), ContractError> {
    match (precision.emul_slices(), precision.emul_products()) {
        (Some(k), Some(pairs)) => Ok((k as usize, pairs)),
        _ => Err(ContractError::PrecisionMismatch {
            expected: Precision::F64Emul(3),
            got: precision,
        }),
    }
}

/// Emulated-f64 GEMM: `C = α·A·B + β·C` on f64 storage, computed as
/// `K(K+1)/2·⌈k/EMUL_KC⌉` exact f32 slice-pair block products over Ozaki
/// slices (see module docs).
///
/// `precision` must be [`Precision::F64Emul`]`(k)`; any other tag is a
/// [`ContractError::PrecisionMismatch`]. Returns an [`EmulReport`]
/// describing the decomposition actually used.
pub fn gemm_emul(
    precision: Precision,
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
) -> Result<EmulReport, ContractError> {
    let tag = check_emul_tag(precision)?;
    check_gemm(m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc)?;
    Ok(emul_core(tag, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc))
}

/// Emulated-f64 GEMV: `y = α·A·x + β·y`, run through the GEMM core with a
/// single right-hand column (the vector gets one shared binade scale).
pub fn gemv_emul(
    precision: Precision,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    incx: isize,
    beta: f64,
    y: &mut [f64],
    incy: isize,
) -> Result<EmulReport, ContractError> {
    let tag = check_emul_tag(precision)?;
    check_gemv(m, n, a.len(), lda, x.len(), incx, y.len(), incy)?;
    // B is x as an n×1 column: borrowed at unit stride, gathered otherwise.
    let xs: Cow<[f64]> = if incx == 1 {
        Cow::Borrowed(&x[..n])
    } else {
        Cow::Owned((0..n).map(|j| x[vec_index(j, n, incx)]).collect())
    };
    let (ldb, ldc) = (n.max(1), m.max(1));
    if incy == 1 {
        return Ok(emul_core(
            tag, m, 1, n, alpha, a, lda, &xs, ldb, beta, y, ldc,
        ));
    }
    let mut ys: Vec<f64> = (0..m).map(|i| y[vec_index(i, m, incy)]).collect();
    let report = emul_core(tag, m, 1, n, alpha, a, lda, &xs, ldb, beta, &mut ys, ldc);
    for (i, v) in ys.into_iter().enumerate() {
        y[vec_index(i, m, incy)] = v;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::gemm_rel_tolerance;
    use crate::gemm_ref;

    /// xorshift64 in [-1, 1), with an exponent spread of ±2^±`spread` to
    /// make the matrices badly scaled (ill-conditioned for slicing).
    fn seeded(seed: u64, len: usize, spread: i32) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..len)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let base = (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                let e = (i as i32 % (2 * spread + 1)) - spread;
                base * 2f64.powi(e)
            })
            .collect()
    }

    fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
        let scale = want.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        got.iter()
            .zip(want)
            .fold(0.0f64, |m, (&g, &w)| m.max((g - w).abs()))
            / scale
    }

    fn emul_vs_native(kk: u8, m: usize, n: usize, k: usize, spread: i32) -> f64 {
        let a = seeded(7 + kk as u64, m * k, spread);
        let b = seeded(99 + kk as u64, k * n, spread);
        let c0 = seeded(3, m * n, 0);
        let mut c = c0.clone();
        let mut want = c0.clone();
        gemm_emul(
            Precision::F64Emul(kk),
            m,
            n,
            k,
            1.25,
            &a,
            m,
            &b,
            k,
            0.5,
            &mut c,
            m,
        )
        .unwrap();
        gemm_ref(m, n, k, 1.25, &a, m, &b, k, 0.5, &mut want, m).unwrap();
        max_rel_err(&c, &want)
    }

    #[test]
    fn slice_extraction_is_exact_and_bounded() {
        let t = slice_bits(64);
        assert_eq!(t, 9);
        for &x in &[1.0, -0.3333333333333333, 1e17, -2.5e-13, 65535.999] {
            let t0 = tau(x);
            let mut rebuilt = 0.0f64;
            let mut worst = 0.0f64;
            extract_slices(x, t0, t, 4, |s, q| {
                assert!(q.abs() as f64 <= 2f64.powi(t as i32), "slice magnitude");
                assert_eq!(q, q.trunc(), "slices are integers");
                rebuilt += q as f64 * pow2(t0 - (s as i32 + 1) * t as i32);
                worst = pow2(t0 - (s as i32 + 1) * t as i32 - 1);
            });
            assert!(
                (x - rebuilt).abs() <= worst,
                "residual beyond last slice: x={x} rebuilt={rebuilt}"
            );
        }
    }

    #[test]
    fn accuracy_ladder_k2_k3_k4_on_ill_conditioned_data() {
        // badly scaled operands: elements span 2^-8 .. 2^8 within rows
        let e2 = emul_vs_native(2, 24, 17, 80, 8);
        let e3 = emul_vs_native(3, 24, 17, 80, 8);
        let e4 = emul_vs_native(4, 24, 17, 80, 8);
        assert!(
            e2 <= gemm_rel_tolerance(Precision::F64Emul(2), 80),
            "k=2 err {e2:.3e}"
        );
        assert!(
            e3 <= gemm_rel_tolerance(Precision::F64Emul(3), 80),
            "k=3 err {e3:.3e}"
        );
        assert!(
            e4 <= gemm_rel_tolerance(Precision::F64Emul(4), 80),
            "k=4 err {e4:.3e}"
        );
        // the ladder must actually descend — more slices, more accuracy
        assert!(e3 < e2 / 8.0, "k=3 ({e3:.3e}) should beat k=2 ({e2:.3e})");
        assert!(e4 < e3 / 8.0, "k=4 ({e4:.3e}) should beat k=3 ({e4:.3e})");
    }

    #[test]
    fn k3_matches_native_f64_within_documented_tolerance() {
        // the acceptance-criterion golden: k=3 vs native f64, well scaled
        for &(m, n, k) in &[(8usize, 8usize, 8usize), (32, 24, 96), (5, 63, 130)] {
            let a = seeded(11, m * k, 2);
            let b = seeded(13, k * n, 2);
            let mut c = vec![0.0f64; m * n];
            let mut want = vec![0.0f64; m * n];
            let report = gemm_emul(
                Precision::F64Emul(3),
                m,
                n,
                k,
                1.0,
                &a,
                m,
                &b,
                k,
                0.0,
                &mut c,
                m,
            )
            .unwrap();
            gemm_ref(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut want, m).unwrap();
            let err = max_rel_err(&c, &want);
            assert!(
                err <= gemm_rel_tolerance(Precision::F64Emul(3), k),
                "({m},{n},{k}) err {err:.3e}"
            );
            assert_eq!(report.slices, 3);
            assert_eq!(
                report.f32_gemm_calls,
                6 * k.div_ceil(EMUL_KC),
                "K(K+1)/2 slice-pair products per inner block"
            );
        }
    }

    #[test]
    fn gemv_emul_matches_gemm_column() {
        let (m, n) = (19usize, 37usize);
        let a = seeded(5, m * n, 4);
        let x = seeded(6, n, 4);
        let mut y = seeded(8, m, 0);
        let mut want = y.clone();
        gemv_emul(
            Precision::F64Emul(3),
            m,
            n,
            2.0,
            &a,
            m,
            &x,
            1,
            -1.0,
            &mut y,
            1,
        )
        .unwrap();
        gemm_emul(
            Precision::F64Emul(3),
            m,
            1,
            n,
            2.0,
            &a,
            m,
            &x,
            n,
            -1.0,
            &mut want,
            m,
        )
        .unwrap();
        assert_eq!(y, want);
    }

    #[test]
    fn wrong_precision_tag_is_rejected() {
        let a = [1.0f64; 4];
        let b = [1.0f64; 4];
        let mut c = [0.0f64; 4];
        let err =
            gemm_emul(Precision::F32, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2).unwrap_err();
        assert!(matches!(
            err,
            ContractError::PrecisionMismatch {
                got: Precision::F32,
                ..
            }
        ));
        let err = gemv_emul(Precision::Bf16, 2, 2, 1.0, &a, 2, &b, 1, 0.0, &mut c, 1).unwrap_err();
        assert!(matches!(err, ContractError::PrecisionMismatch { .. }));
    }

    #[test]
    fn contract_violations_still_surface() {
        let a = [1.0f64; 4];
        let b = [1.0f64; 4];
        let mut c = [0.0f64; 4];
        // bad leading dimension flows through the shared contract checks
        assert!(gemm_emul(
            Precision::F64Emul(3),
            2,
            2,
            2,
            1.0,
            &a,
            1,
            &b,
            2,
            0.0,
            &mut c,
            2
        )
        .is_err());
    }

    #[test]
    fn strided_gemv_and_zero_inner_dim() {
        // negative increments and k=0 behave like the native kernels
        let a = seeded(21, 6 * 4, 2);
        let x = seeded(22, 8, 2); // stride 2 over 4 logical elements
        let mut y = vec![1.0f64; 3];
        gemv_emul(
            Precision::F64Emul(2),
            3,
            4,
            1.0,
            &a,
            6,
            &x,
            2,
            3.0,
            &mut y,
            -1,
        )
        .unwrap();
        let mut want = vec![1.0f64; 3];
        crate::gemv_ref(3, 4, 1.0, &a, 6, &x, 2, 3.0, &mut want, -1).unwrap();
        let err = max_rel_err(&y, &want);
        assert!(err < 1e-4, "strided gemv err {err:.3e}");

        let mut c = vec![7.0f64; 4];
        gemm_emul(
            Precision::F64Emul(3),
            2,
            2,
            0,
            1.0,
            &[],
            2,
            &[],
            2,
            2.0,
            &mut c,
            2,
        )
        .unwrap();
        assert_eq!(c, vec![14.0; 4]);
    }
}
