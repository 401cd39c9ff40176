//! GEMM: `C ← α·A·B + β·C` for column-major matrices, no transposition —
//! exactly the configuration GPU-BLOB benchmarks (`lda = M`, `ldb = K`,
//! `ldc = M`, §III-A of the paper).
//!
//! Three implementations, from simplest to fastest:
//! - [`gemm_ref`] — textbook triple loop in cache-friendly `j-l-i` order;
//!   the validation oracle.
//! - [`gemm_blocked`] — Goto/BLIS five-loop blocking around the packed
//!   micro-kernel; single-threaded.
//! - [`gemm_parallel`] — splits the `N` dimension across scoped threads,
//!   each running the blocked kernel on a disjoint column block of `C`
//!   (the standard outer-loop parallelisation production BLAS use).
//!
//! All paths implement the `β = 0` short-circuit (C is written, never read)
//! whose presence in production libraries the paper verifies in Table I, and
//! the `α = 0` short-circuit (`C ← β·C`, A/B never touched).
//!
//! Every entry point validates its arguments through
//! [`contract`](crate::contract) before touching any buffer and reports
//! violations as a typed [`ContractError`] instead of panicking.

use crate::contract::{self, ContractError};
use crate::microkernel::{run_ukernel, store_tile, Engine, Geometry, MAX_ACC};
use crate::pack::{pack_a, pack_b};
use crate::perturb;
use crate::pool;
use crate::scalar::Scalar;
use crate::trace;
use crate::tune::{self, TunedKernel};
use std::any::TypeId;

/// Cache-block height of an `A` block (rows per packed block).
pub const MC: usize = 128;
/// Cache-block depth (the shared dimension per packed panel).
pub const KC: usize = 256;
/// Cache-block width of a `B` panel (columns per packed panel).
pub const NC: usize = 2048;

/// Cache-blocking parameters for the Goto algorithm: the autotuner sweeps
/// them and [`TunedKernel`] carries the winner. The defaults target an L2
/// of a few hundred KiB holding the packed A block (`MC × KC` elements)
/// and an L3 panel of `KC × NC`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Rows of `A` per packed cache block.
    pub mc: usize,
    /// Shared dimension per packed panel.
    pub kc: usize,
    /// Columns of `B` per packed panel.
    pub nc: usize,
}

impl Default for BlockConfig {
    fn default() -> Self {
        Self {
            mc: MC,
            kc: KC,
            nc: NC,
        }
    }
}

impl BlockConfig {
    /// A configuration with every block dimension clamped to be ≥ 1.
    pub fn new(mc: usize, kc: usize, nc: usize) -> Self {
        Self {
            mc: mc.max(1),
            kc: kc.max(1),
            nc: nc.max(1),
        }
    }
}

/// Applies `C ← β·C` to an `m × n` region, honouring the β=0 write-only rule.
fn scale_c<T: Scalar>(m: usize, n: usize, beta: T::Acc, c: &mut [T], ldc: usize) {
    if beta == T::Acc::ONE {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == T::Acc::ZERO {
            col.fill(T::ZERO);
        } else {
            for v in col {
                *v = T::narrow(v.widen() * beta);
            }
        }
    }
}

/// Reference GEMM: the validation oracle.
///
/// Triple loop in `j → l → i` order so the innermost loop walks a column of
/// both `A` and `C` with unit stride (an axpy per `(j, l)` pair).
pub fn gemm_ref<T: Scalar>(
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
    contract::check_gemm(m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    scale_c(m, n, beta.widen(), c, ldc);
    if alpha == T::ZERO || k == 0 {
        return Ok(());
    }
    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        for l in 0..k {
            let w = alpha * b[j * ldb + l];
            if w == T::ZERO {
                continue;
            }
            let al = &a[l * lda..l * lda + m];
            for i in 0..m {
                cj[i] = al[i].mul_add(w, cj[i]);
            }
        }
    }
    Ok(())
}

/// The macro-kernel: multiplies a packed `mc × kc` A block by a packed
/// `kc × nc` B panel (both in `C`'s compute type) into the corresponding
/// `C` block, running the selected kernel variant at the selected
/// micro-tile geometry.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Scalar>(
    engine: Engine,
    geom: Geometry,
    mc: usize,
    nc: usize,
    kc: usize,
    packed_a: &[T::Acc],
    packed_b: &[T::Acc],
    beta: T::Acc,
    c: &mut [T],
    ldc: usize,
) {
    let (mr, nr) = (geom.mr, geom.nr);
    let m_slivers = mc.div_ceil(mr);
    let n_slivers = nc.div_ceil(nr);
    for js in 0..n_slivers {
        let j0 = js * nr;
        let nr_eff = nr.min(nc - j0);
        let b_sl = &packed_b[js * kc * nr..(js + 1) * kc * nr];
        for is in 0..m_slivers {
            let i0 = is * mr;
            let mr_eff = mr.min(mc - i0);
            let a_sl = &packed_a[is * kc * mr..(is + 1) * kc * mr];
            let mut acc = [T::Acc::ZERO; MAX_ACC];
            run_ukernel(engine, geom, kc, a_sl, b_sl, &mut acc[..mr * nr]);
            store_tile(
                &acc[..mr * nr],
                mr,
                &mut c[i0 + j0 * ldc..],
                ldc,
                mr_eff,
                nr_eff,
                beta,
            );
        }
    }
}

/// Cache-blocked, packed GEMM (single-threaded Goto algorithm) with the
/// host's tuned kernel configuration (profile-loaded at first use, built-in
/// defaults otherwise — see [`crate::tune::active`]).
pub fn gemm_blocked<T: Scalar>(
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
    gemm_blocked_tuned(
        &tune::active::<T::Acc>(1),
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    )
}

/// Cache-blocked, packed GEMM under a fully-explicit kernel configuration:
/// engine, micro-tile geometry, and cache blocking. This is the kernel the
/// autotuner times candidates through and the agreement tests pin variants
/// with; the public `gemm_*` entry points all funnel into the same loop
/// nest.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blocked_tuned<T: Scalar>(
    kern: &TunedKernel,
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
    contract::check_gemm(m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc)?;
    blocked(
        kern,
        m,
        n,
        k,
        alpha.widen(),
        a,
        lda,
        b,
        ldb,
        beta.widen(),
        c,
        ldc,
    );
    Ok(())
}

/// The single-threaded Goto loop nest on arguments the caller validated,
/// with α/β in the compute type.
///
/// `C` is narrowed to its storage type once per element. When the storage
/// type is its own compute type (`f32`/`f64`) the macro-kernel stores into
/// `C` directly. Otherwise a `k` that spans several k-panels would narrow
/// once per panel, so each column panel of `C` is staged widened in the
/// arena, accumulated across the panels there, and narrowed at the end.
#[allow(clippy::too_many_arguments)]
fn blocked<T: Scalar>(
    kern: &TunedKernel,
    m: usize,
    n: usize,
    k: usize,
    alpha: T::Acc,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T::Acc,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    if alpha == T::Acc::ZERO || k == 0 {
        scale_c(m, n, beta, c, ldc);
        return;
    }
    let cfg = kern.block;
    let staged = k > cfg.kc && TypeId::of::<T>() != TypeId::of::<T::Acc>();
    // Packing buffers come from the thread-local arena: steady-state GEMM
    // allocates nothing (the buffers keep their capacity across calls).
    crate::arena::with_pack_buffers::<T::Acc, _>(|packed_a, packed_b, panel| {
        for jc in (0..n).step_by(cfg.nc.max(1)) {
            let nc = cfg.nc.min(n - jc);
            let b_panel = &b[jc * ldb..];
            let c_panel = &mut c[jc * ldc..];
            if staged {
                // β = 0 never reads C: the first k-panel overwrites.
                panel.clear();
                if beta == T::Acc::ZERO {
                    panel.resize(m * nc, T::Acc::ZERO);
                } else {
                    for j in 0..nc {
                        panel.extend(c_panel[j * ldc..j * ldc + m].iter().map(|v| v.widen()));
                    }
                }
                column_panel(
                    kern, m, nc, k, alpha, a, lda, b_panel, ldb, beta, panel, m, packed_a, packed_b,
                );
                for j in 0..nc {
                    for (dst, &v) in c_panel[j * ldc..j * ldc + m]
                        .iter_mut()
                        .zip(&panel[j * m..(j + 1) * m])
                    {
                        *dst = T::narrow(v);
                    }
                }
            } else {
                column_panel(
                    kern, m, nc, k, alpha, a, lda, b_panel, ldb, beta, c_panel, ldc, packed_a,
                    packed_b,
                );
            }
        }
    });
}

/// One `nc`-wide column panel of the loop nest: for each k-panel, pack `B`,
/// then for each row block pack `A` and run the macro-kernel into `C`.
/// Operands of storage type `S` are widened into `S::Acc` panels; `C` is of
/// storage type `D` with the same compute type.
#[allow(clippy::too_many_arguments)]
fn column_panel<S: Scalar, D: Scalar<Acc = S::Acc>>(
    kern: &TunedKernel,
    m: usize,
    nc: usize,
    k: usize,
    alpha: S::Acc,
    a: &[S],
    lda: usize,
    b: &[S],
    ldb: usize,
    beta: S::Acc,
    c: &mut [D],
    ldc: usize,
    packed_a: &mut Vec<S::Acc>,
    packed_b: &mut Vec<S::Acc>,
) {
    let cfg = kern.block;
    let (engine, geom) = (kern.engine, kern.geom);
    for pc in (0..k).step_by(cfg.kc.max(1)) {
        let kc = cfg.kc.min(k - pc);
        // β applies to C exactly once: on the first k-panel. Later panels
        // accumulate (β' = 1).
        let beta_eff = if pc == 0 { beta } else { S::Acc::ONE };
        {
            let pack = trace::span(trace::names::GEMM_PACK_B, trace::cats::GEMM);
            pack.annotate("bytes", (kc * nc * std::mem::size_of::<S>()) as u64);
            pack_b(kc, nc, &b[pc..], ldb, geom.nr, packed_b);
        }
        for ic in (0..m).step_by(cfg.mc.max(1)) {
            let mc = cfg.mc.min(m - ic);
            {
                let pack = trace::span(trace::names::GEMM_PACK_A, trace::cats::GEMM);
                pack.annotate("bytes", (mc * kc * std::mem::size_of::<S>()) as u64);
                // α folds into the packed copy of A
                pack_a(mc, kc, &a[pc * lda + ic..], lda, alpha, geom.mr, packed_a);
            }
            let compute = trace::span(trace::names::GEMM_COMPUTE, trace::cats::GEMM);
            compute.annotate("flops", 2 * (mc * nc * kc) as u64);
            macro_kernel(
                engine,
                geom,
                mc,
                nc,
                kc,
                packed_a,
                packed_b,
                beta_eff,
                &mut c[ic..],
                ldc,
            );
            drop(compute);
        }
    }
}

/// Multi-threaded GEMM: the `N` dimension is split into contiguous column
/// blocks dispatched through [`pool::run_scoped`], each block running the
/// blocked loop nest of [`gemm_blocked`] on a disjoint region of `C` (and
/// the matching columns of `B`).
///
/// Column blocks are rounded to multiples of the tuned geometry's `nr` so
/// no micro-tile spans a thread boundary. The split width is chosen by
/// work, not by request: [`pool::effective_workers`] grants one worker per
/// [`pool::MIN_FLOPS_PER_THREAD`] flops of `2·m·n·k`, so problems below
/// the crossover (≤ ~256³ now that the SIMD kernels halved the per-flop
/// cost) run single-threaded inline with **zero** dispatch cost — exactly
/// the small-problem region where the offload threshold lives and where a
/// per-call spawn used to dominate the measurement. Above it, the caller
/// runs the first block itself, so `w` workers cost `w − 1` spawns.
///
/// Half-precision storage runs the same f32 path (see [`Scalar::Acc`]).
pub fn gemm_parallel<T: Scalar>(
    threads: usize,
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
    gemm_widened(
        threads,
        m,
        n,
        k,
        alpha.widen(),
        a,
        lda,
        b,
        ldb,
        beta.widen(),
        c,
        ldc,
    )
}

/// [`gemm_parallel`] with α/β given in the compute type — the shared driver
/// behind it and [`gemm_half`](crate::gemm_half).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_widened<T: Scalar>(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: T::Acc,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T::Acc,
    c: &mut [T],
    ldc: usize,
) -> Result<(), ContractError> {
    contract::check_gemm(m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc)?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    let kern = tune::active::<T::Acc>(threads);
    let nr = kern.geom.nr;
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    // A worker should also own at least a few micro-panels of columns, or
    // the nr-rounded split leaves it no work at all.
    let min_cols = nr * 4;
    let threads = pool::cap_at_host_parallelism(threads);
    let chunks = pool::effective_workers(threads, flops, pool::MIN_FLOPS_PER_THREAD)
        .min(n.div_ceil(min_cols))
        .max(1);
    if chunks == 1 {
        blocked(&kern, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return Ok(());
    }
    // Columns per chunk, rounded up to a multiple of nr.
    let per = n.div_ceil(chunks).div_ceil(nr) * nr;
    let mut jobs = Vec::with_capacity(chunks);
    let mut rest: &mut [T] = c;
    let mut j0 = 0usize;
    while j0 < n {
        let jn = per.min(n - j0);
        let is_last = j0 + jn >= n;
        let take = if is_last { rest.len() } else { jn * ldc };
        let (mine, r) = rest.split_at_mut(take);
        rest = r;
        let b_block = &b[j0 * ldb..];
        let kern_job = kern;
        jobs.push(move || {
            perturb::point(perturb::tags::GEMM_PANEL);
            // The full call was validated above and each chunk only
            // narrows it.
            blocked(
                &kern_job, m, jn, k, alpha, a, lda, b_block, ldb, beta, mine, ldc,
            );
        });
        j0 += jn;
    }
    pool::run_scoped(jobs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// Deterministic pseudo-random fill, distinct per (seed, i, j).
    fn filled(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((i * 131071 + j * 524287) as u64);
            ((h >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    fn run_all_and_compare(m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let a = filled(m, k, 1);
        let b = filled(k, n, 2);
        let c0 = filled(m, n, 3);

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
            c0.ld(),
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
            c0.ld(),
        )
        .unwrap();
        assert!(
            c_ref.approx_eq(&c_blk, 1e-10),
            "blocked mismatch at m={m} n={n} k={k} alpha={alpha} beta={beta}: {}",
            c_ref.max_abs_diff(&c_blk)
        );

        let mut c_par = c0.clone();
        gemm_parallel(
            4,
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            beta,
            c_par.as_mut_slice(),
            c0.ld(),
        )
        .unwrap();
        assert!(
            c_ref.approx_eq(&c_par, 1e-10),
            "parallel mismatch at m={m} n={n} k={k}"
        );
    }

    #[test]
    fn square_sizes_match_reference() {
        for s in [1, 2, 3, 7, 8, 9, 16, 31, 33, 64, 65] {
            run_all_and_compare(s, s, s, 1.0, 0.0);
        }
    }

    #[test]
    fn nonsquare_shapes_match_reference() {
        // the paper's non-square problem archetypes in miniature
        run_all_and_compare(8, 8, 128, 1.0, 0.0); // M=N, K=16M
        run_all_and_compare(32, 32, 200, 1.0, 0.0); // M=N=32, K large
        run_all_and_compare(128, 8, 8, 1.0, 0.0); // K=N, M=16K
        run_all_and_compare(200, 32, 32, 1.0, 0.0); // K=N=32
        run_all_and_compare(8, 128, 8, 1.0, 0.0); // M=K, N=16K
        run_all_and_compare(32, 200, 32, 1.0, 0.0); // M=K=32
        run_all_and_compare(100, 100, 32, 1.0, 0.0); // M=N, K=32
    }

    #[test]
    fn alpha_beta_combinations() {
        for (alpha, beta) in [(1.0, 0.0), (4.0, 0.0), (1.0, 2.0), (-0.5, 1.0), (2.0, -1.0)] {
            run_all_and_compare(37, 29, 41, alpha, beta);
        }
    }

    #[test]
    fn beta_zero_ignores_garbage_c() {
        let m = 17;
        let a = filled(m, m, 1);
        let b = filled(m, m, 2);
        let mut c = Matrix::<f64>::zeros(m, m);
        c.fill(f64::NAN);
        gemm_blocked(
            m,
            m,
            m,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.0,
            c.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(
            c.as_slice().iter().all(|v| v.is_finite()),
            "NaN leaked through beta=0"
        );
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let m = 9;
        let a = filled(m, m, 1);
        let b = filled(m, m, 2);
        let c0 = filled(m, m, 3);
        let mut c = c0.clone();
        gemm_blocked(
            m,
            m,
            m,
            0.0,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            2.0,
            c.as_mut_slice(),
            m,
        )
        .unwrap();
        for j in 0..m {
            for i in 0..m {
                assert!((c[(i, j)] - 2.0 * c0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_zero_behaves_like_scale() {
        let m = 5;
        let c0 = filled(m, m, 3);
        let mut c = c0.clone();
        gemm_ref::<f64>(m, m, 0, 1.0, &[], m, &[], 1, 0.5, c.as_mut_slice(), m).unwrap();
        for j in 0..m {
            for i in 0..m {
                assert!((c[(i, j)] - 0.5 * c0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn padded_leading_dimensions() {
        let (m, n, k) = (13, 11, 17);
        let a = {
            let tight = filled(m, k, 1);
            let mut p = Matrix::<f64>::zeros_ld(m, k, m + 3);
            for j in 0..k {
                p.col_mut(j).copy_from_slice(tight.col(j));
            }
            p
        };
        let b = {
            let tight = filled(k, n, 2);
            let mut p = Matrix::<f64>::zeros_ld(k, n, k + 5);
            for j in 0..n {
                p.col_mut(j).copy_from_slice(tight.col(j));
            }
            p
        };
        let mut c_pad = Matrix::<f64>::zeros_ld(m, n, m + 2);
        let mut c_ref = Matrix::<f64>::zeros(m, n);
        gemm_blocked(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            0.0,
            c_pad.as_mut_slice(),
            m + 2,
        )
        .unwrap();
        gemm_ref(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            0.0,
            c_ref.as_mut_slice(),
            m,
        )
        .unwrap();
        for j in 0..n {
            for i in 0..m {
                assert!((c_pad[(i, j)] - c_ref[(i, j)]).abs() < 1e-10);
            }
        }
        // ld padding rows of C untouched
        for j in 0..n {
            assert_eq!(c_pad.as_slice()[j * c_pad.ld() + m], 0.0);
            assert_eq!(c_pad.as_slice()[j * c_pad.ld() + m + 1], 0.0);
        }
    }

    #[test]
    fn f32_precision_path() {
        let m = 24;
        let a = Matrix::<f32>::from_fn(m, m, |i, j| ((i + 2 * j) % 5) as f32 - 2.0);
        let b = Matrix::<f32>::from_fn(m, m, |i, j| ((3 * i + j) % 7) as f32 - 3.0);
        let mut c1 = Matrix::<f32>::zeros(m, m);
        let mut c2 = Matrix::<f32>::zeros(m, m);
        gemm_ref(
            m,
            m,
            m,
            1.0f32,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.0,
            c1.as_mut_slice(),
            m,
        )
        .unwrap();
        gemm_blocked(
            m,
            m,
            m,
            1.0f32,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.0,
            c2.as_mut_slice(),
            m,
        )
        .unwrap();
        assert!(c1.approx_eq(&c2, 1e-4));
    }

    #[test]
    fn parallel_thread_counts_agree() {
        let (m, n, k) = (40, 100, 30);
        let a = filled(m, k, 5);
        let b = filled(k, n, 6);
        let mut expect = Matrix::<f64>::zeros(m, n);
        gemm_ref(
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            expect.as_mut_slice(),
            m,
        )
        .unwrap();
        for threads in [1, 2, 3, 8, 64] {
            let mut c = Matrix::<f64>::zeros(m, n);
            gemm_parallel(
                threads,
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.0,
                c.as_mut_slice(),
                m,
            )
            .unwrap();
            assert!(expect.approx_eq(&c, 1e-10), "threads={threads}");
        }
    }

    #[test]
    fn bad_lda_rejected() {
        let a = [0.0f64; 4];
        let b = [0.0f64; 4];
        let mut c = [0.0f64; 4];
        let err = gemm_ref(2, 2, 2, 1.0, &a, 1, &b, 2, 0.0, &mut c, 2).unwrap_err();
        assert_eq!(
            err,
            crate::contract::ContractError::LeadingDim {
                arg: "a",
                ld: 1,
                rows: 2
            }
        );
    }

    #[test]
    fn short_a_rejected() {
        let a = [0.0f64; 3];
        let b = [0.0f64; 4];
        let mut c = [0.0f64; 4];
        let err = gemm_ref(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2).unwrap_err();
        assert!(matches!(
            err,
            crate::contract::ContractError::BufferTooShort {
                arg: "a",
                required: 4,
                actual: 3
            }
        ));
    }

    #[test]
    fn all_entry_points_reject_bad_ldc() {
        let a = [0.0f64; 4];
        let b = [0.0f64; 4];
        let mut c = [0.0f64; 4];
        assert!(gemm_ref(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 1).is_err());
        assert!(gemm_blocked(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 1).is_err());
        assert!(gemm_parallel(2, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 1).is_err());
    }
}
