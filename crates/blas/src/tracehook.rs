//! Trace hooks: how the kernels report span timings *up* to the harness.
//!
//! `blob-blas` sits at the bottom of the workspace and must not depend on
//! `blob-core`, where the tracing plane ([`blob_core::trace`]) lives. Like
//! [`crate::faultpoint`], this module inverts the dependency: the kernels
//! call [`span`] at their hot seams (pool dispatch, job execution, GEMM
//! pack/compute phases), and the layer above installs closures that turn
//! those calls into real trace spans.
//!
//! With no hooks armed, [`span`] is a single relaxed atomic load and the
//! returned guard's `Drop` is a branch on a local bool — the trace row of
//! `blob-bench`'s `overhead_gate` proves the cost is <1% of a 64³
//! four-thread GEMM call. When armed, each call locks a mutex around the installed
//! hook set; that cost is paid only while a trace is being recorded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Span names emitted by this crate's instrumentation points.
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
}

/// Span categories (trace viewers group and colour by these).
pub mod cats {
    /// Thread-pool lifecycle spans.
    pub const POOL: &str = "pool";
    /// Blocked-GEMM phase spans.
    pub const GEMM: &str = "gemm";
}

/// The closures a tracing layer installs to receive span events.
///
/// The three hooks are an open/annotate/close protocol: every `begin`
/// call is matched by exactly one `end` call on the same thread, and
/// `annotate` applies to the innermost region opened on that thread.
pub struct Hooks {
    /// Called when an instrumented region opens: `(name, category)`.
    pub begin: Box<dyn Fn(&'static str, &'static str) + Send + Sync>,
    /// Called to attach a `u64` key/value to the innermost open region.
    pub annotate: Box<dyn Fn(&'static str, u64) + Send + Sync>,
    /// Called when the innermost instrumented region closes.
    pub end: Box<dyn Fn() + Send + Sync>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static HOOKS: Mutex<Option<Hooks>> = Mutex::new(None);

/// Installs the hook set. The layer above calls this once at trace
/// install time; passing a new set replaces the old one.
pub fn set_hooks(hooks: Hooks) {
    *HOOKS.lock().unwrap_or_else(PoisonError::into_inner) = Some(hooks);
}

/// Arms or disarms the instrumentation points. Disarmed (the default),
/// [`span`] costs one relaxed atomic load.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Release);
}

/// Whether the instrumentation points are currently armed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// RAII guard for one instrumented region; closes the region on drop.
///
/// Returned by [`span`]. When tracing is disarmed the guard is inert and
/// its drop is a branch on a local bool.
#[must_use = "the span closes when the guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Attaches a `u64` key/value annotation to this region. No-op when
    /// the guard is inert.
    pub fn annotate(&self, key: &'static str, value: u64) {
        if self.armed {
            armed_annotate(key, value);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            armed_end();
        }
    }
}

/// Opens an instrumented region. The fast path — no trace recording —
/// is a single relaxed atomic load.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !ACTIVE.load(Ordering::Relaxed) {
        return SpanGuard { armed: false };
    }
    armed_begin(name, cat);
    SpanGuard { armed: true }
}

#[cold]
fn armed_begin(name: &'static str, cat: &'static str) {
    if let Some(h) = HOOKS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        (h.begin)(name, cat);
    }
}

#[cold]
fn armed_annotate(key: &'static str, value: u64) {
    if let Some(h) = HOOKS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        (h.annotate)(key, value);
    }
}

#[cold]
fn armed_end() {
    if let Some(h) = HOOKS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        (h.end)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn disarmed_span_calls_no_hooks() {
        let _stress = crate::perturb::STRESS_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let calls = Arc::new(AtomicUsize::new(0));
        let (b, a, e) = (calls.clone(), calls.clone(), calls.clone());
        set_hooks(Hooks {
            begin: Box::new(move |_, _| {
                b.fetch_add(1, Ordering::SeqCst);
            }),
            annotate: Box::new(move |_, _| {
                a.fetch_add(1, Ordering::SeqCst);
            }),
            end: Box::new(move || {
                e.fetch_add(1, Ordering::SeqCst);
            }),
        });
        set_active(false);
        {
            let g = span(names::POOL_JOB, cats::POOL);
            g.annotate("jobs", 3);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn armed_span_fires_begin_annotate_end_in_order() {
        let _stress = crate::perturb::STRESS_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let events = Arc::new(Mutex::new(Vec::<String>::new()));
        let (b, a, e) = (events.clone(), events.clone(), events.clone());
        set_hooks(Hooks {
            begin: Box::new(move |name, cat| {
                b.lock().unwrap().push(format!("begin {name} {cat}"));
            }),
            annotate: Box::new(move |key, value| {
                a.lock().unwrap().push(format!("annotate {key}={value}"));
            }),
            end: Box::new(move || {
                e.lock().unwrap().push("end".to_string());
            }),
        });
        set_active(true);
        {
            let g = span(names::GEMM_COMPUTE, cats::GEMM);
            g.annotate("flops", 128);
        }
        set_active(false);
        let got = events.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                "begin gemm.compute gemm".to_string(),
                "annotate flops=128".to_string(),
                "end".to_string(),
            ]
        );
    }
}
