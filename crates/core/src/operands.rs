//! The host harness's operands: one thread-local `(A, B, C)` set that
//! [`HostCpu`](crate::HostCpu) and [`validate_call`](crate::validate_call)
//! borrow instead of allocating, page-faulting and filling fresh matrices
//! per call. [`release`] drops it; DESIGN.md §11 states the rules.

use crate::rng::XorShift64;
use blob_blas::pool::{available_threads, run_scoped};
use blob_blas::Scalar;
use std::any::Any;
use std::cell::RefCell;

/// What the A and B operands of a lend hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// The timing constants: every element of A is 0.5, of B 0.25.
    Timing,
    /// `seeded_data(seed, ..)` in A and `seeded_data(seed ^ 0xB, ..)` in B.
    Seeded(u64),
}

/// A's and B's `Timing` constant and the mask xor-ed into a `Seeded` seed.
const OPERANDS: [(f64, u64); 2] = [(0.5, 0), (0.25, 0xB)];

/// Elements below which a fill stays on the calling thread.
const PARALLEL_FILL: usize = 1 << 22;

#[derive(Default)]
struct Set<T> {
    fill: Option<Fill>,
    /// A, B and C, every element initialised.
    bufs: [Vec<T>; 3],
    /// How many leading elements of A and of B hold `fill`.
    held: [usize; 2],
}

thread_local! {
    static SLOT: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// The values of `seeded_data(seed, ..)`, without end: every prefix of a
/// longer run equals a shorter run.
pub(crate) fn seeded<T: Scalar>(seed: u64) -> impl Iterator<Item = T> {
    let mut rng = XorShift64::new(seed);
    std::iter::repeat_with(move || T::from_f64(rng.range_f64(-1.0, 1.0)))
}

/// Lends this thread's operands to `f` for one call: `a` and `b` hold
/// `fill`'s first `la` and `lb` values, and `c` is `lc` zeros.
pub(crate) fn with_operands<T: Scalar, R>(
    fill: Fill,
    (la, lb, lc): (usize, usize, usize),
    f: impl FnOnce(&[T], &[T], &mut [T]) -> R,
) -> R {
    let mut set = take::<T>();
    if set.fill != Some(fill) {
        set.fill = Some(fill);
        set.held = [0, 0];
    }
    let lens = [la, lb, lc];
    // free every short buffer before allocating any: old and new never
    // coexist, and the allocator can reuse one coalesced block
    for (buf, len) in set.bufs.iter_mut().zip(lens) {
        if buf.len() < len {
            *buf = Vec::new();
        }
    }
    for (i, (constant, mask)) in OPERANDS.into_iter().enumerate() {
        let (buf, len) = (&mut set.bufs[i], lens[i]);
        if set.held[i] < len {
            match fill {
                Fill::Timing => put(buf, len, T::from_f64(constant)),
                Fill::Seeded(seed) if buf.len() < len => {
                    *buf = seeded(seed ^ mask).take(len).collect();
                }
                Fill::Seeded(seed) => buf
                    .iter_mut()
                    .zip(seeded(seed ^ mask).take(len))
                    .for_each(|(d, v)| *d = v),
            }
            set.held[i] = len;
        }
    }
    put(&mut set.bufs[2], lc, T::ZERO);
    let [a, b, c] = &mut set.bufs;
    let out = f(&a[..la], &b[..lb], &mut c[..lc]);
    restore(set);
    out
}

/// Drops this thread's operand set; the next lend allocates afresh.
pub fn release() {
    SLOT.with(|cell| {
        if let Ok(mut slot) = cell.try_borrow_mut() {
            *slot = None;
        }
    });
}

/// Takes this thread's set of `T` out of the slot, dropping a set of
/// another type; an empty or borrowed slot yields a fresh set.
fn take<T: Scalar>() -> Box<Set<T>> {
    SLOT.with(|cell| {
        let Ok(mut slot) = cell.try_borrow_mut() else {
            return Box::default();
        };
        slot.take()
            .and_then(|set| set.downcast::<Set<T>>().ok())
            .unwrap_or_default()
    })
}

fn restore<T: Scalar>(set: Box<Set<T>>) {
    SLOT.with(|cell| {
        if let Ok(mut slot) = cell.try_borrow_mut() {
            *slot = Some(set);
        }
    });
}

/// Makes `buf[..len]` hold `value`: in place when `buf` is long enough,
/// else in a fresh allocation written once. From [`PARALLEL_FILL`] on the
/// writes are split across every core, so fresh pages fault in parallel.
fn put<T: Scalar>(buf: &mut Vec<T>, len: usize, value: T) {
    if buf.len() < len {
        if len < PARALLEL_FILL {
            *buf = vec![value; len];
            return;
        }
        *buf = vec![T::ZERO; len]; // lazily zeroed pages
    }
    let dst = &mut buf[..len];
    if len < PARALLEL_FILL {
        return dst.fill(value);
    }
    let chunk = len.div_ceil(available_threads());
    run_scoped(
        dst.chunks_mut(chunk)
            .map(|c| move || c.fill(value))
            .collect(),
    );
}

/// `(address, capacity)` of the retained A, B and C of `T`, or `None` when
/// the slot holds no set of `T`.
#[cfg(test)]
pub(crate) fn retained<T: Scalar>() -> Option<[(*const T, usize); 3]> {
    SLOT.with(|cell| {
        let slot = cell.try_borrow().ok()?;
        let set = slot.as_ref()?.downcast_ref::<Set<T>>()?;
        Some(set.bufs.each_ref().map(|v| (v.as_ptr(), v.capacity())))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::seeded_data;

    /// Copies of the lent `(a, b, c)`.
    fn lend<T: Scalar>(fill: Fill, lens: (usize, usize, usize)) -> (Vec<T>, Vec<T>, Vec<T>) {
        with_operands::<T, _>(fill, lens, |a, b, c| (a.to_vec(), b.to_vec(), c.to_vec()))
    }

    #[test]
    fn a_timing_lend_after_a_seeded_one_sees_only_the_constants() {
        release();
        with_operands::<f64, _>(Fill::Seeded(5), (64, 48, 32), |_, _, c| c.fill(9.0));
        let (a, b, c) = lend::<f64>(Fill::Timing, (40, 30, 20));
        assert!(a.iter().all(|&v| v.to_bits() == 0.5f64.to_bits()));
        assert!(b.iter().all(|&v| v.to_bits() == 0.25f64.to_bits()));
        assert!(c.iter().all(|&v| v.to_bits() == 0));
        assert_eq!((a.len(), b.len(), c.len()), (40, 30, 20));
        release();
    }

    #[test]
    fn a_seeded_lend_matches_seeded_data_after_growth_and_on_a_prefix() {
        release();
        for (la, lb) in [(10, 7), (1000, 300), (33, 20)] {
            let (a, b, _) = lend::<f32>(Fill::Seeded(42), (la, lb, 1));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&seeded_data::<f32>(42, la)), "A at {la}");
            assert_eq!(
                bits(&b),
                bits(&seeded_data::<f32>(42 ^ 0xB, lb)),
                "B at {lb}"
            );
        }
        // the shorter lend was served from the grown buffers
        let [(_, cap_a), (_, cap_b), _] = retained::<f32>().unwrap();
        assert!(cap_a >= 1000 && cap_b >= 300, "{cap_a}, {cap_b}");
        release();
    }

    #[test]
    fn lending_another_type_drops_the_old_set() {
        release();
        lend::<f64>(Fill::Timing, (256, 256, 256));
        assert!(retained::<f64>().is_some());
        lend::<f32>(Fill::Timing, (16, 16, 16));
        assert!(retained::<f64>().is_none(), "the f64 set must be gone");
        assert!(retained::<f32>().is_some());
        release();
        assert!(retained::<f32>().is_none());
    }

    #[test]
    fn a_nested_lend_degrades_to_fresh_buffers() {
        release();
        with_operands::<f64, _>(Fill::Seeded(3), (64, 64, 64), |outer_a, _, outer_c| {
            outer_c.fill(1.0);
            let (a, _, c) = lend::<f64>(Fill::Timing, (8, 8, 8));
            assert!(a.iter().all(|&v| v.to_bits() == 0.5f64.to_bits()));
            assert!(c.iter().all(|&v| v.to_bits() == 0));
            assert_eq!(outer_a, &seeded_data::<f64>(3, 64)[..]);
            assert!(outer_c.iter().all(|&v| v.to_bits() == 1.0f64.to_bits()));
        });
        release();
    }
}
