//! Seeded schedule perturbation for concurrency stress tests.
//!
//! The container this repo builds in cannot fetch `loom`, so the parallel
//! kernels are stress-tested the old-fashioned way: interleaving-sensitive
//! code paths call [`point`] at the places where a context switch would be
//! most damaging (just after dequeuing a job, before touching a shared
//! counter, …).  In normal builds [`point`] is a single relaxed atomic load
//! and a branch — effectively free.  A stress test calls [`enable`] with a
//! seed, after which each [`point`] deterministically derives a scheduling
//! nudge (nothing, `yield_now`, a bounded spin, or a microsecond sleep)
//! from the seed, a per-call counter and the call-site tag.  Different
//! seeds explore different interleavings; the same seed explores the same
//! *decision sequence* (the OS still owns true thread placement, so this is
//! perturbation, not replay).
//!
//! State is process-global because the pool's worker threads are detached
//! from any test-local context; tests that enable perturbation must hold
//! [`STRESS_LOCK`] so parallel test binaries do not fight over it.

use crate::rng::{splitmix64, GOLDEN_GAMMA};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Guards global perturbation state across tests in one binary.  Tests that
/// call [`enable`] must hold this for their whole body.
pub static STRESS_LOCK: Mutex<()> = Mutex::new(());

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Turn on perturbation with a seed. Call [`disable`] when done.
pub fn enable(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    COUNTER.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
}

/// Turn perturbation back off (normal builds: every [`point`] is a no-op).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// A perturbation point. Insert where a badly-timed context switch would
/// expose a race; no-op unless [`enable`]d.
#[inline]
pub fn point(tag: u32) {
    if !ENABLED.load(Ordering::Acquire) {
        return;
    }
    slow_point(tag);
}

#[cold]
fn slow_point(tag: u32) {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let seed = SEED.load(Ordering::Relaxed);
    let r = splitmix64(seed ^ n.wrapping_mul(GOLDEN_GAMMA) ^ u64::from(tag) << 32);
    match r % 8 {
        // Mostly do nothing: perturbation should be sparse enough that
        // threads still make progress and overlap.
        0..=3 => {}
        4 | 5 => std::thread::yield_now(),
        6 => {
            // Bounded spin: keeps the thread hot on its core, shifting
            // relative timing without a syscall.
            for _ in 0..(r >> 3) % 512 {
                std::hint::spin_loop();
            }
        }
        _ => std::thread::sleep(std::time::Duration::from_micros((r >> 3) % 50)),
    }
}

/// Call-site tags, so failures can be attributed to a specific point.
pub mod tags {
    /// Worker dequeued a job, about to run it.
    pub const POOL_DEQUEUE: u32 = 1;
    /// Worker finished a job, about to decrement the pending count.
    pub const POOL_DONE: u32 = 2;
    /// Caller submitted a job.
    pub const POOL_SUBMIT: u32 = 3;
    /// Scoped parallel-for chunk about to start.
    pub const PARALLEL_FOR_CHUNK: u32 = 4;
    /// Parallel GEMM column-panel worker about to start.
    pub const GEMM_PANEL: u32 = 5;
    /// Parallel GEMV row-chunk worker about to start.
    pub const GEMV_CHUNK: u32 = 6;
    /// Scoped-dispatch job about to run on a spawned thread.
    pub const SCOPED_JOB: u32 = 7;
    /// Scoped-dispatch caller about to run its own (first) job.
    pub const SCOPED_CALLER: u32 = 8;
    /// Batch waiter about to block on the completion latch.
    pub const BATCH_WAIT: u32 = 9;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_point_is_a_no_op() {
        let _guard = STRESS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let before = COUNTER.load(Ordering::Relaxed);
        for _ in 0..1000 {
            point(tags::POOL_DEQUEUE);
        }
        assert_eq!(COUNTER.load(Ordering::Relaxed), before);
    }

    #[test]
    fn enabled_point_consumes_counter() {
        let _guard = STRESS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(42);
        for _ in 0..32 {
            point(tags::POOL_SUBMIT);
        }
        let used = COUNTER.load(Ordering::Relaxed);
        disable();
        assert!(used >= 32);
    }
}
