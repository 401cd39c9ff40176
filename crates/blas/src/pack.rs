//! Panel packing for the blocked GEMM.
//!
//! The Goto algorithm copies the current `A` block and `B` panel into
//! contiguous, micro-kernel-ordered buffers before the macro-kernel runs:
//! the micro-kernel then streams both operands with unit stride regardless
//! of the original leading dimensions, which is what makes the inner loop
//! bandwidth-friendly.
//!
//! Slivers are zero-padded to the full micro-tile width (`mr`/`nr` of the
//! selected [`Geometry`](crate::microkernel::Geometry)) so edge tiles need
//! no branches inside the micro-kernel; [`store_tile`](crate::microkernel::
//! store_tile) masks the padding when writing `C`.
//!
//! Packing is also where precision conversion happens: the panels hold the
//! element type's compute type ([`Scalar::Acc`]), so a bf16/f16 operand is
//! widened to f32 once, on the copy the micro-kernel needs anyway. For
//! `f32`/`f64` the widening is the identity.
//!
//! This file is, together with [`crate::microkernel`], one of the two
//! sanctioned homes for `unsafe`/`core::arch` code under the
//! `no-unchecked-simd` blob-check rule. The packers are currently pure safe
//! Rust — the sanction is a standing policy, not a present need.

use crate::scalar::Scalar;

/// Packs an `mc × kc` block of `A` (column-major, leading dimension `lda`)
/// into `buf` as ceil(mc/mr) row slivers of the selected micro-tile height
/// `mr`, widening every element to the compute type and scaling it by
/// `alpha`.
///
/// Sliver `s` occupies `buf[s * kc * mr ..]` and stores, for each `p` in
/// `0..kc`, the `mr` rows `s*mr .. s*mr+mr` of column `p` (zero-padded past
/// `mc`). Folding `alpha` into the packed copy means the micro-kernel never
/// multiplies by it — the same trick production BLAS use.
///
/// Returns the number of elements written (`ceil(mc/mr) * mr * kc`).
pub fn pack_a<T: Scalar>(
    mc: usize,
    kc: usize,
    a: &[T],
    lda: usize,
    alpha: T::Acc,
    mr: usize,
    buf: &mut Vec<T::Acc>,
) -> usize {
    debug_assert!(mr > 0, "micro-tile height must be positive");
    debug_assert!(
        kc == 0 || mc == 0 || (kc - 1) * lda + mc <= a.len(),
        "A block out of range"
    );
    let slivers = mc.div_ceil(mr);
    let needed = slivers * mr * kc;
    buf.clear();
    buf.reserve(needed);
    for s in 0..slivers {
        let row0 = s * mr;
        let rows = mr.min(mc - row0);
        for p in 0..kc {
            let col = &a[p * lda + row0..p * lda + row0 + rows];
            if alpha == T::Acc::ONE {
                buf.extend(col.iter().map(|&v| v.widen()));
            } else {
                buf.extend(col.iter().map(|&v| v.widen() * alpha));
            }
            // zero-pad the sliver to full mr height
            buf.extend(std::iter::repeat_n(T::Acc::ZERO, mr - rows));
        }
    }
    debug_assert_eq!(buf.len(), needed);
    needed
}

/// Packs a `kc × nc` panel of `B` (column-major, leading dimension `ldb`)
/// into `buf` as ceil(nc/nr) column slivers of the selected micro-tile
/// width `nr`, widening every element to the compute type.
///
/// Sliver `s` stores, for each `p` in `0..kc`, the `nr` elements
/// `B[p, s*nr .. s*nr+nr]` (zero-padded past `nc`).
///
/// Returns the number of elements written (`ceil(nc/nr) * nr * kc`).
pub fn pack_b<T: Scalar>(
    kc: usize,
    nc: usize,
    b: &[T],
    ldb: usize,
    nr: usize,
    buf: &mut Vec<T::Acc>,
) -> usize {
    debug_assert!(nr > 0, "micro-tile width must be positive");
    debug_assert!(
        kc == 0 || nc == 0 || (nc - 1) * ldb + kc <= b.len(),
        "B panel out of range"
    );
    let slivers = nc.div_ceil(nr);
    let needed = slivers * nr * kc;
    buf.clear();
    buf.reserve(needed);
    for s in 0..slivers {
        let col0 = s * nr;
        let cols = nr.min(nc - col0);
        for p in 0..kc {
            for j in 0..cols {
                buf.push(b[(col0 + j) * ldb + p].widen());
            }
            buf.extend(std::iter::repeat_n(T::Acc::ZERO, nr - cols));
        }
    }
    debug_assert_eq!(buf.len(), needed);
    needed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::{MR, NR};

    #[test]
    fn pack_a_full_slivers() {
        // A is MR x 2 (one exact sliver), lda = MR
        let kc = 2;
        let a: Vec<f64> = (0..MR * kc).map(|i| i as f64).collect();
        let mut buf = Vec::new();
        let n = pack_a(MR, kc, &a, MR, 1.0, MR, &mut buf);
        assert_eq!(n, MR * kc);
        // sliver layout: column 0's MR rows, then column 1's
        assert_eq!(&buf[..MR], &a[..MR]);
        assert_eq!(&buf[MR..], &a[MR..]);
    }

    #[test]
    fn pack_a_scales_by_alpha() {
        let a = vec![2.0f64; MR];
        let mut buf = Vec::new();
        pack_a(MR, 1, &a, MR, 0.5, MR, &mut buf);
        assert!(buf.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn pack_a_zero_pads_edge_sliver() {
        // 3 rows => one sliver with MR-3 zeros per column
        let mc = 3;
        let kc = 2;
        let lda = 5; // padded leading dimension
        let mut a = vec![0.0f64; lda * kc];
        for p in 0..kc {
            for i in 0..mc {
                a[p * lda + i] = (10 * p + i) as f64 + 1.0;
            }
        }
        let mut buf = Vec::new();
        let n = pack_a(mc, kc, &a, lda, 1.0, MR, &mut buf);
        assert_eq!(n, MR * kc);
        for p in 0..kc {
            let sl = &buf[p * MR..(p + 1) * MR];
            for (i, &v) in sl.iter().enumerate().take(mc) {
                assert_eq!(v, (10 * p + i) as f64 + 1.0);
            }
            assert!(sl[mc..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn pack_a_multiple_slivers() {
        let mc = MR + 2;
        let kc = 1;
        let a: Vec<f64> = (0..mc).map(|i| i as f64).collect();
        let mut buf = Vec::new();
        pack_a(mc, kc, &a, mc, 1.0, MR, &mut buf);
        assert_eq!(buf.len(), 2 * MR);
        assert_eq!(&buf[..MR], &a[..MR]);
        assert_eq!(buf[MR], MR as f64);
        assert_eq!(buf[MR + 1], (MR + 1) as f64);
        assert!(buf[MR + 2..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_a_wide_microtile() {
        // mr = 16: a 10-row block becomes one zero-padded 16-row sliver
        let mr = 16;
        let mc = 10;
        let a: Vec<f64> = (0..mc).map(|i| i as f64 + 1.0).collect();
        let mut buf = Vec::new();
        let n = pack_a(mc, 1, &a, mc, 1.0, mr, &mut buf);
        assert_eq!(n, mr);
        assert_eq!(&buf[..mc], a.as_slice());
        assert!(buf[mc..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_b_transposes_into_row_slivers() {
        // B is 2 x NR (kc=2, nc=NR), ldb = 2
        let kc = 2;
        let b: Vec<f64> = (0..kc * NR).map(|i| i as f64).collect();
        let mut buf = Vec::new();
        let n = pack_b(kc, NR, &b, kc, NR, &mut buf);
        assert_eq!(n, NR * kc);
        // packed p=0 group: B[0, 0..NR] = elements 0, 2, 4, 6 (column-major)
        let row0: Vec<f64> = (0..NR).map(|j| b[j * kc]).collect();
        let row1: Vec<f64> = (0..NR).map(|j| b[j * kc + 1]).collect();
        assert_eq!(&buf[..NR], row0.as_slice());
        assert_eq!(&buf[NR..], row1.as_slice());
    }

    #[test]
    fn pack_b_zero_pads_edge_sliver() {
        let kc = 3;
        let nc = NR + 1; // second sliver has 1 live column
        let ldb = 4;
        let b: Vec<f64> = (0..ldb * nc).map(|i| i as f64 + 1.0).collect();
        let mut buf = Vec::new();
        let n = pack_b(kc, nc, &b, ldb, NR, &mut buf);
        assert_eq!(n, 2 * NR * kc);
        let second = &buf[NR * kc..];
        for p in 0..kc {
            let group = &second[p * NR..(p + 1) * NR];
            assert_eq!(group[0], b[NR * ldb + p]);
            assert!(group[1..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn pack_b_wide_microtile() {
        // nr = 6: a 4-column panel becomes one zero-padded 6-wide sliver
        let nr = 6;
        let kc = 2;
        let nc = 4;
        let ldb = kc;
        let b: Vec<f64> = (0..ldb * nc).map(|i| i as f64 + 1.0).collect();
        let mut buf = Vec::new();
        let n = pack_b(kc, nc, &b, ldb, nr, &mut buf);
        assert_eq!(n, nr * kc);
        for p in 0..kc {
            let group = &buf[p * nr..(p + 1) * nr];
            for j in 0..nc {
                assert_eq!(group[j], b[j * ldb + p]);
            }
            assert!(group[nc..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn pack_empty_dims() {
        let mut buf = vec![1.0f64];
        assert_eq!(pack_a::<f64>(0, 0, &[], 1, 1.0, MR, &mut buf), 0);
        assert!(buf.is_empty());
        assert_eq!(pack_b::<f64>(0, 0, &[], 1, NR, &mut buf), 0);
        assert!(buf.is_empty());
    }
}
