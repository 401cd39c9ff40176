//! Thread-local packing-buffer arenas for the blocked GEMM.
//!
//! The Goto algorithm packs an `MC × KC` block of `A` and a `KC × NC`
//! panel of `B` before every macro-kernel pass. Allocating those `Vec`s
//! per call costs a page-faulting heap round-trip on exactly the small
//! problems whose latency defines the offload threshold (§IV of the
//! paper), so this module keeps one set of packing buffers per thread
//! and per compute type and lends them out for the duration of a call:
//! steady-state GEMM performs **zero** heap allocation.
//!
//! Design notes:
//!
//! - Buffers are *taken out* of the thread-local slot for the duration of
//!   the closure and put back afterwards, so a nested blocked GEMM on the
//!   same thread (there are none today, but nothing prevents one) simply
//!   finds the slot empty and allocates fresh — graceful degradation, not
//!   a `RefCell` borrow panic.
//! - The slot is keyed by the `TypeId` of the *compute* type the panels
//!   hold, so `f32` and `f64` each reuse their own buffers, and the half
//!   formats ([`Bf16`](crate::Bf16), [`F16`](crate::F16)), which pack
//!   into f32, share the f32 slot with f32 GEMM and the emulated-f64
//!   slices.
//! - Each slot lends three buffers: packed `A`, packed `B`, and a staged
//!   `C` column panel that only a half GEMM spanning several k-panels
//!   uses.
//! - A panicking kernel loses the taken buffers (they die with the
//!   unwind); the next call re-allocates. No state is corrupted.
//! - Retained capacity is bounded by [`MAX_RETAINED_BYTES`] per buffer:
//!   an autotuner sweep with an oversized `BlockConfig` will not pin
//!   arbitrarily large buffers on the thread forever.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Largest per-buffer capacity the arena keeps alive between calls, in
/// bytes. The default blocking needs `KC × NC` f64 elements = 4 MiB for
/// the packed `B` panel; 8 MiB leaves headroom for moderately larger
/// experimental configurations while bounding worst-case retention.
pub const MAX_RETAINED_BYTES: usize = 8 << 20;

/// One slot: packed `A`, packed `B`, staged `C` panel.
type Buffers<T> = (Vec<T>, Vec<T>, Vec<T>);

thread_local! {
    /// Per-thread, per-compute-type buffer sets.
    static PACK_BUFFERS: RefCell<HashMap<TypeId, Box<dyn Any>>> =
        RefCell::new(HashMap::new());
}

/// Takes this thread's buffers for `T` (empty `Vec`s on first use or while
/// another call on this thread holds them).
fn take<T: 'static>() -> Buffers<T> {
    PACK_BUFFERS.with(|cell| {
        let Ok(mut map) = cell.try_borrow_mut() else {
            return Buffers::default();
        };
        map.get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_mut::<Buffers<T>>().map(std::mem::take))
            .unwrap_or_default()
    })
}

/// Returns the buffers to this thread's slot so the next call reuses
/// their capacity. Oversized buffers are dropped instead of retained.
fn restore<T: 'static>(mut bufs: Buffers<T>) {
    let trim = |v: &mut Vec<T>| {
        if v.capacity().saturating_mul(std::mem::size_of::<T>()) > MAX_RETAINED_BYTES {
            *v = Vec::new();
        }
    };
    trim(&mut bufs.0);
    trim(&mut bufs.1);
    trim(&mut bufs.2);
    PACK_BUFFERS.with(|cell| {
        let Ok(mut map) = cell.try_borrow_mut() else {
            return; // nested caller still owns the slot; drop ours
        };
        map.insert(TypeId::of::<T>(), Box::new(bufs));
    });
}

/// Lends this thread's reusable `(packed_a, packed_b, c_panel)` buffers to
/// `f`.
///
/// The buffers arrive with whatever capacity earlier calls grew them to
/// (contents unspecified — packing truncates and refills them), and their
/// capacity is retained for the next call on this thread. The blocked
/// GEMM's steady state therefore allocates nothing.
pub fn with_pack_buffers<T: 'static, R>(
    f: impl FnOnce(&mut Vec<T>, &mut Vec<T>, &mut Vec<T>) -> R,
) -> R {
    let mut bufs = take::<T>();
    let out = f(&mut bufs.0, &mut bufs.1, &mut bufs.2);
    restore(bufs);
    out
}

/// Drops this thread's retained buffers for every scalar type (test and
/// memory-hygiene hook; kernels never need to call it).
pub fn clear() {
    PACK_BUFFERS.with(|cell| {
        if let Ok(mut map) = cell.try_borrow_mut() {
            map.clear();
        }
    });
}

/// Capacity (in elements) of this thread's retained packing buffers for
/// `T`: `(packed_a, packed_b)`, both 0 when nothing is retained. Lets tests
/// assert reuse without poking at allocator internals.
pub fn retained_capacity<T: 'static>() -> (usize, usize) {
    PACK_BUFFERS.with(|cell| {
        let Ok(mut map) = cell.try_borrow_mut() else {
            return (0, 0);
        };
        map.get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_ref::<Buffers<T>>())
            .map(|(a, b, _)| (a.capacity(), b.capacity()))
            .unwrap_or((0, 0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_across_calls() {
        clear();
        with_pack_buffers::<f64, _>(|pa, pb, _| {
            pa.resize(1024, 0.0);
            pb.resize(2048, 0.0);
        });
        let (ca, cb) = retained_capacity::<f64>();
        assert!(ca >= 1024 && cb >= 2048, "capacity retained: {ca}, {cb}");
        // second call sees the same capacity and grows nothing
        with_pack_buffers::<f64, _>(|pa, pb, _| {
            assert!(pa.capacity() >= 1024);
            assert!(pb.capacity() >= 2048);
        });
        assert_eq!(retained_capacity::<f64>(), (ca, cb));
        clear();
        assert_eq!(retained_capacity::<f64>(), (0, 0));
    }

    #[test]
    fn scalar_types_get_distinct_buffers() {
        clear();
        with_pack_buffers::<f64, _>(|pa, _, _| pa.resize(64, 0.0));
        with_pack_buffers::<f32, _>(|pa, _, _| pa.resize(32, 0.0));
        assert!(retained_capacity::<f64>().0 >= 64);
        assert!(retained_capacity::<f32>().0 >= 32);
        clear();
    }

    #[test]
    fn nested_use_degrades_to_fresh_buffers() {
        clear();
        with_pack_buffers::<f64, _>(|outer_a, _, _| {
            outer_a.resize(128, 1.0);
            // the outer call owns the slot; the nested call must get
            // fresh, independent buffers
            with_pack_buffers::<f64, _>(|inner_a, _, _| {
                assert!(inner_a.is_empty());
                inner_a.resize(16, 2.0);
            });
            assert_eq!(outer_a.len(), 128);
            assert!(outer_a.iter().all(|&v| (v - 1.0).abs() < 1e-15));
        });
        clear();
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        clear();
        let too_big = MAX_RETAINED_BYTES / std::mem::size_of::<f64>() + 1;
        with_pack_buffers::<f64, _>(|pa, _, _| pa.reserve(too_big));
        assert_eq!(retained_capacity::<f64>().0, 0);
        clear();
    }
}
