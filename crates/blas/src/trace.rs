//! Structured tracing: where the time actually goes.
//!
//! The paper's offload-threshold methodology is an accounting argument —
//! CPU kernel time vs. transfer time vs. GPU compute — and this module
//! gives the harness the same per-phase visibility into *itself*. Every
//! layer records **spans**: named, categorised intervals with monotonic
//! nanosecond timestamps, a thread id, a parent link, and optional `u64`
//! key/value annotations (flops, bytes, batch sizes…).
//!
//! ## Design
//!
//! - **Recording is thread-local.** An open span lives on a per-thread
//!   stack; a closed span is appended to a per-thread buffer. No lock is
//!   taken on the record path — completed spans are *published* to a
//!   bounded global sink (oldest dropped first) only when a thread's
//!   span stack empties, i.e. at the end of a root span such as one pool
//!   job or one serve request.
//! - **Disabled means free.** [`span`] checks one relaxed atomic load
//!   and returns an inert guard; `blob-bench`'s `overhead_gate` proves
//!   the cost is <1% of a 64³ four-thread GEMM call, in the same table
//!   that holds the fault plane to the same budget.
//! - **One recorder, in the bottom crate.** The pool and the GEMM open
//!   their spans here directly; `blob-core` re-exports this module as
//!   `blob_core::trace` and adds the exports (chrome://tracing JSON and
//!   the per-name profile table), which need its JSON encoder.

use crate::rng::{splitmix64, GOLDEN_GAMMA};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Every span name the workspace records.
pub mod names {
    /// Caller-side submission of one batch to the thread pool.
    pub const POOL_DISPATCH: &str = "pool.dispatch";
    /// One job body executing on a pool worker thread.
    pub const POOL_JOB: &str = "pool.job";
    /// Caller-side wait for a batch to complete.
    pub const POOL_WAIT: &str = "pool.wait";
    /// Packing one A-panel block (includes the α scaling pass).
    pub const GEMM_PACK_A: &str = "gemm.pack_a";
    /// Packing one B-panel block.
    pub const GEMM_PACK_B: &str = "gemm.pack_b";
    /// One macro-kernel invocation over packed panels.
    pub const GEMM_COMPUTE: &str = "gemm.compute";
    /// One size measurement inside a sweep (CPU + every GPU transfer
    /// type), on whichever thread runs it.
    pub const SWEEP_SIZE: &str = "sweep.size";
    /// One atomic checkpoint write during a checkpointed sweep.
    pub const CHECKPOINT_SAVE: &str = "checkpoint.save";
    /// One HTTP request handled by `blob-serve`.
    pub const SERVE_REQUEST: &str = "serve.request";
    /// One per-call CPU-vs-GPU routing decision in `blob-dispatch`.
    pub const DISPATCH_DECIDE: &str = "dispatch.decide";
    /// One routed execution (CPU kernel or modelled-GPU path) in
    /// `blob-dispatch`.
    pub const DISPATCH_ROUTE: &str = "dispatch.route";
    /// One request routed through the shard-router fabric (covers every
    /// failover attempt; `shard`/`attempts` annotations name the winner).
    pub const FABRIC_ROUTE: &str = "fabric.route";
    /// One hedged second attempt fired by the fabric router.
    pub const FABRIC_HEDGE: &str = "fabric.hedge";
}

/// Span categories (trace viewers group and colour by these).
pub mod cats {
    /// Thread-pool lifecycle spans.
    pub const POOL: &str = "pool";
    /// Blocked-GEMM phase spans.
    pub const GEMM: &str = "gemm";
    /// Sweep-runner spans.
    pub const RUNNER: &str = "runner";
    /// Checkpoint-persistence spans.
    pub const CHECKPOINT: &str = "checkpoint";
    /// HTTP-service spans.
    pub const SERVE: &str = "serve";
    /// Auto-offload dispatch-plane spans.
    pub const DISPATCH: &str = "dispatch";
    /// Shard-router fabric spans.
    pub const FABRIC: &str = "fabric";
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (1-based; 0 is reserved for "no parent").
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root span.
    pub parent: u64,
    /// Static span name, e.g. `"gemm.compute"`.
    pub name: &'static str,
    /// Coarse category (`"pool"`, `"gemm"`, `"runner"`, `"serve"`, …).
    pub cat: &'static str,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace-local thread id (1-based, in order of first recording).
    pub tid: u64,
    /// `u64` key/value annotations (flops, bytes, sizes…).
    pub args: Vec<(&'static str, u64)>,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    /// Where this span's annotations start in [`Local::args`].
    args_from: usize,
}

struct Local {
    tid: u64,
    stack: Vec<Open>,
    /// Annotations of the open spans, innermost last: a span only gets
    /// annotated while it is innermost, so its annotations are contiguous.
    /// A closing span copies its own out, so it holds exactly as many as
    /// it was given, in one allocation (none without annotations).
    args: Vec<(&'static str, u64)>,
    done: Vec<Span>,
}

/// Global sink capacity; once full the oldest spans are dropped (and
/// counted in [`dropped`]).
pub const SINK_CAP: usize = 65_536;

/// A thread publishes its buffer early if this many spans complete
/// before its stack empties, bounding per-thread memory.
const LOCAL_FLUSH: usize = 4_096;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static ID_SEED: AtomicU64 = AtomicU64::new(0x5EED_B10B);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Serialises tests (and any other caller) that enable/disable the
/// global trace plane, mirroring `fault::CHAOS_LOCK`.
pub static TRACE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { tid: 0, stack: Vec::new(), args: Vec::new(), done: Vec::new() })
    };
}

/// Nanoseconds since the process-wide trace epoch (first use wins).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on: initialises the epoch and arms every
/// instrumentation point.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ACTIVE.store(true, Ordering::Release);
}

/// Turns span recording off. Already-recorded spans stay in the sink;
/// spans open at the moment of disabling complete normally.
pub fn disable() {
    ACTIVE.store(false, Ordering::Release);
}

/// Whether span recording is currently enabled.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Discards every published span and resets the dropped-span counter.
/// Does not change the enabled/disabled state.
pub fn clear() {
    SINK.lock().unwrap_or_else(PoisonError::into_inner).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// How many spans the bounded sink has dropped (oldest-first) since the
/// last [`clear`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Removes and returns every published span, in publish order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SINK.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Clones the newest `n` published spans, oldest first, without consuming
/// them (the serve `GET /v1/trace?last=N` path). Only those `n` are cloned.
pub fn snapshot_last(n: usize) -> Vec<Span> {
    let sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    sink[sink.len().saturating_sub(n)..].to_vec()
}

/// RAII guard for one span; the span closes when the guard drops.
///
/// Returned by [`span`]. When tracing is disabled the guard is inert
/// and its drop is a branch on a local bool.
#[must_use = "the span closes when the guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Attaches a `u64` key/value annotation to this span. No-op when
    /// the guard is inert.
    pub fn annotate(&self, key: &'static str, value: u64) {
        if self.armed {
            annotate(key, value);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            end();
        }
    }
}

/// Opens a span. The fast path — tracing disabled — is a single relaxed
/// atomic load; `overhead_gate` holds it to <1% of a 64³ four-thread GEMM.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !ACTIVE.load(Ordering::Relaxed) {
        return SpanGuard { armed: false };
    }
    // blob-check: allow(balance): this begin() is closed by SpanGuard::drop — the RAII handoff IS the span API
    begin(name, cat);
    SpanGuard { armed: true }
}

/// Raw span-open. Prefer [`span`]; every `begin` must be matched by
/// exactly one [`end`] on the same thread.
///
/// `begin`, [`annotate`] and [`end`] are `#[cold]` so a kernel seam stays
/// a load and a branch: inlined into the blocked-GEMM driver, the
/// recording code measurably slowed single-thread GEMM.
#[cold]
pub fn begin(name: &'static str, cat: &'static str) {
    let start_ns = now_ns();
    LOCAL.with(|cell| {
        if let Ok(mut l) = cell.try_borrow_mut() {
            if l.tid == 0 {
                l.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            }
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let parent = l.stack.last().map_or(0, |o| o.id);
            let args_from = l.args.len();
            l.stack.push(Open {
                id,
                parent,
                name,
                cat,
                start_ns,
                args_from,
            });
        }
    });
}

/// Attaches a `u64` key/value annotation to the innermost open span on
/// this thread, if any.
#[cold]
pub fn annotate(key: &'static str, value: u64) {
    LOCAL.with(|cell| {
        if let Ok(mut l) = cell.try_borrow_mut() {
            if !l.stack.is_empty() {
                l.args.push((key, value));
            }
        }
    });
}

/// Raw span-close: records the innermost open span on this thread and,
/// if the stack emptied, publishes this thread's buffer to the sink.
#[cold]
pub fn end() {
    let end_ns = now_ns();
    LOCAL.with(|cell| {
        if let Ok(mut l) = cell.try_borrow_mut() {
            let tid = l.tid;
            let Some(open) = l.stack.pop() else { return };
            let from = open.args_from.min(l.args.len());
            let args = l.args[from..].to_vec();
            l.args.truncate(from);
            l.done.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                cat: open.cat,
                start_ns: open.start_ns,
                dur_ns: end_ns.saturating_sub(open.start_ns),
                tid,
                args,
            });
            if l.stack.is_empty() || l.done.len() >= LOCAL_FLUSH {
                publish(&mut l.done);
            }
        }
    });
}

/// Moves a thread's completed spans into the bounded global sink,
/// dropping the oldest sink entries on overflow.
fn publish(done: &mut Vec<Span>) {
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    sink.append(done);
    if sink.len() > SINK_CAP {
        let excess = sink.len() - SINK_CAP;
        sink.drain(..excess);
        DROPPED.fetch_add(excess as u64, Ordering::Relaxed);
    }
}

/// Mints a 16-hex-digit trace id (a splitmix64 step over a shared
/// counter mixed with the monotonic clock — unique within a process,
/// collision-negligible across restarts).
pub fn mint_trace_id() -> String {
    let c = ID_SEED.fetch_add(GOLDEN_GAMMA, Ordering::Relaxed);
    format!("{:016x}", splitmix64(c ^ now_ns().rotate_left(32)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset() {
        disable();
        clear();
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _t = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        {
            let g = span(names::SWEEP_SIZE, cats::RUNNER);
            g.annotate("param", 8);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_publish_at_depth_zero() {
        let _t = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        enable();
        {
            let _outer = span("outer", cats::RUNNER);
            {
                let _inner = span("inner", cats::RUNNER);
            }
            assert!(
                snapshot_last(usize::MAX).is_empty(),
                "spans stay in the thread buffer until the root span closes"
            );
        }
        disable();
        let spans = take();
        clear();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn annotations_attach_to_the_innermost_open_span() {
        let _t = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        enable();
        {
            let outer = span("outer", cats::RUNNER);
            outer.annotate("outer_key", 1);
            let _inner = span("inner", cats::RUNNER);
            annotate("inner_key", 2);
        }
        disable();
        let spans = take();
        clear();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.args, vec![("outer_key", 1)]);
        assert_eq!(inner.args, vec![("inner_key", 2)]);
    }

    #[test]
    fn a_once_annotated_span_holds_exactly_one_annotation_slot() {
        let _t = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        enable();
        {
            let outer = span("outer", cats::RUNNER);
            outer.annotate("before", 1);
            {
                let inner = span("inner", cats::RUNNER);
                inner.annotate("param", 8);
            }
            outer.annotate("after", 2);
        }
        disable();
        let spans = take();
        clear();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.args, vec![("param", 8)]);
        assert_eq!(inner.args.capacity(), 1);
        assert_eq!(outer.args, vec![("before", 1), ("after", 2)]);
        assert_eq!(outer.args.capacity(), 2);
    }

    #[test]
    fn snapshot_last_clones_the_newest_spans_oldest_first() {
        let _t = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        enable();
        let ours = ["snap.1", "snap.2", "snap.3", "snap.4", "snap.5"];
        for name in ours {
            let _root = span(name, cats::RUNNER);
        }
        disable();
        let last = snapshot_last(3);
        let all = snapshot_last(usize::MAX);
        clear();
        // spans other tests record meanwhile may interleave, but ours keep
        // their publish order
        let names: Vec<_> = all
            .iter()
            .map(|s| s.name)
            .filter(|n| n.starts_with("snap."))
            .collect();
        assert_eq!(names, ours);
        assert_eq!(
            last[..],
            all[all.len() - 3..],
            "the newest three, oldest first, none consumed"
        );
        assert!(snapshot_last(0).is_empty());
    }

    #[test]
    fn worker_thread_spans_carry_their_own_tid() {
        let _t = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        enable();
        {
            let _main = span("main_root", cats::RUNNER);
        }
        std::thread::spawn(|| {
            let _w = span("worker_root", cats::RUNNER);
        })
        .join()
        .unwrap();
        disable();
        let spans = take();
        clear();
        let main_root = spans.iter().find(|s| s.name == "main_root").unwrap();
        let worker_root = spans.iter().find(|s| s.name == "worker_root").unwrap();
        assert_ne!(main_root.tid, worker_root.tid);
        assert_eq!(worker_root.parent, 0);
    }

    #[test]
    fn trace_ids_are_sixteen_hex_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }
}
