//! Wrappers for the three trait seams the code already has —
//! `blob_core::Backend`, `blob_dispatch::Executor`, `blob_serve::Handler`
//! — recording spans from outside. Installed only in the traced pass;
//! end-to-end metrics always come from runs without them.

use crate::spans::{self, Guard, SAMPLE_EVERY};
use blob_core::Backend;
use blob_dispatch::Executor;
use blob_serve::http::{Request, Response};
use blob_serve::metrics::Metrics;
use blob_serve::{App, Handler};
use blob_sim::{BlasCall, FirstTouchModel, Offload};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Exact call count plus a per-call cost estimated from every
/// [`SAMPLE_EVERY`]-th call: what a seam crossed every ~20 ns can afford.
///
/// A sampled call is timed as a burst of [`BURST`] back-to-back repeats:
/// one clock pair around a 20 ns call reads mostly the clock (and the
/// pipeline drain it forces), while a burst amortises both and reads the
/// call's throughput cost, which is what it contributes to wall time. The
/// wrapped substrates are analytic models — pure functions of the call —
/// so repeating a call changes nothing but the time spent.
#[derive(Debug, Default)]
pub struct Sampled {
    calls: Cell<u64>,
    sampled_calls: Cell<u64>,
    sampled_ns: Cell<u64>,
}

/// Repeats per timed sample.
const BURST: u32 = 16;

impl Sampled {
    /// Runs `f`, counting it; one call in [`SAMPLE_EVERY`] is timed.
    #[inline]
    pub fn run<R>(&self, mut f: impl FnMut() -> R) -> R {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if n % SAMPLE_EVERY != 0 {
            return f();
        }
        let start = Instant::now();
        for _ in 1..BURST {
            std::hint::black_box(f());
        }
        let out = f();
        self.sampled_ns
            .set(self.sampled_ns.get() + start.elapsed().as_nanos() as u64 / u64::from(BURST));
        self.sampled_calls.set(self.sampled_calls.get() + 1);
        out
    }

    /// `(calls, estimated total ns)` since the last drain; resets both.
    pub fn drain(&self) -> (u64, u64) {
        let calls = self.calls.replace(0);
        let sampled = self.sampled_calls.replace(0);
        let ns = self.sampled_ns.replace(0);
        let total = if sampled == 0 {
            0
        } else {
            (ns as f64 / sampled as f64 * calls as f64) as u64
        };
        (calls, total)
    }
}

/// `Backend` seam around a wall-clock backend (`HostCpu`): one span per
/// call, with the kernel seconds the backend *returns* as a `blas.kernel`
/// child — so the difference (operand allocation and fill) is charged to
/// `core`, not to `blas`.
pub struct TimedHost<B: Backend> {
    /// The wrapped backend.
    pub inner: B,
}

impl<B: Backend> Backend for TimedHost<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
        let _span = spans::open("core.backend.cpu_seconds");
        let t = self.inner.cpu_seconds(call, iters);
        spans::child_ending_now("blas.kernel", (t * 1e9) as u64);
        t
    }

    fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
        self.inner.gpu_seconds(call, iters, offload)
    }

    fn offloads(&self) -> Vec<Offload> {
        self.inner.offloads()
    }
}

/// `Backend` seam around an analytic backend (`SystemModel`): calls are
/// ~20 ns, so they are counted exactly and timed by sampling; call
/// [`TimedModel::flush`] to hang the aggregates under an open span.
pub struct TimedModel<B: Backend> {
    /// The wrapped backend.
    pub inner: B,
    cpu: Sampled,
    gpu: Sampled,
}

impl<B: Backend> TimedModel<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            cpu: Sampled::default(),
            gpu: Sampled::default(),
        }
    }

    /// Records `sim.cpu_seconds` / `sim.gpu_seconds` aggregates for the
    /// calls since the last flush as children of `parent`.
    pub fn flush(&self, parent: &Guard) {
        let (n, ns) = self.cpu.drain();
        spans::aggregate(parent, "sim.cpu_seconds", n, ns);
        let (n, ns) = self.gpu.drain();
        spans::aggregate(parent, "sim.gpu_seconds", n, ns);
    }
}

impl<B: Backend> Backend for TimedModel<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
        self.cpu.run(|| self.inner.cpu_seconds(call, iters))
    }

    fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
        self.gpu
            .run(|| self.inner.gpu_seconds(call, iters, offload))
    }

    fn offloads(&self) -> Vec<Offload> {
        self.inner.offloads()
    }
}

/// `Executor` seam: every method the dispatcher calls on its execution
/// substrate, counted exactly and timed by sampling.
pub struct TimedExecutor<E: Executor> {
    /// The wrapped executor.
    pub inner: E,
    seam: Sampled,
}

impl<E: Executor> TimedExecutor<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            seam: Sampled::default(),
        }
    }

    /// `(calls, estimated total ns)` across the seam since the last drain.
    pub fn drain(&self) -> (u64, u64) {
        self.seam.drain()
    }
}

impl<E: Executor> Executor for TimedExecutor<E> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run_cpu(&mut self, call: &BlasCall) -> f64 {
        let inner = &mut self.inner;
        self.seam.run(|| inner.run_cpu(call))
    }

    fn cpu_estimate(&self, call: &BlasCall) -> f64 {
        self.seam.run(|| self.inner.cpu_estimate(call))
    }

    fn gpu_warm_seconds(&self, call: &BlasCall) -> Option<f64> {
        self.seam.run(|| self.inner.gpu_warm_seconds(call))
    }

    fn first_touch(&self) -> Option<FirstTouchModel> {
        self.seam.run(|| self.inner.first_touch())
    }

    fn device_capacity_bytes(&self) -> f64 {
        self.inner.device_capacity_bytes()
    }
}

/// `Handler` seam: one `serve.handle` span per request, on the server's
/// worker thread, parented to the client's in-flight request span.
pub struct TimedHandler {
    /// The wrapped application.
    pub app: Arc<App>,
}

impl Handler for TimedHandler {
    fn handle(&self, req: &Request) -> (Response, &'static str) {
        let _span = spans::open("serve.handle");
        self.app.handle(req)
    }

    fn metrics(&self) -> &Metrics {
        &self.app.metrics
    }

    fn shutdown_requested(&self) -> bool {
        self.app.shutdown_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_counts_exactly_and_scales_the_estimate() {
        let s = Sampled::default();
        let mut sum = 0u64;
        for i in 0..(SAMPLE_EVERY * 10) {
            sum += s.run(|| i);
        }
        assert!(sum > 0);
        let (calls, ns) = s.drain();
        assert_eq!(calls, SAMPLE_EVERY * 10);
        // ten sampled calls, each non-negative; the estimate is their mean × calls
        assert!(ns < 1_000_000_000);
        assert_eq!(s.drain(), (0, 0));
    }

    #[test]
    fn timed_model_forwards_the_model_unchanged() {
        let sys = blob_sim::presets::dawn();
        let call = BlasCall::gemm(blob_sim::Precision::F32, 64, 64, 64);
        let want = (
            sys.cpu_seconds(&call, 8),
            sys.gpu_seconds(&call, 8, Offload::TransferOnce),
        );
        let timed = TimedModel::new(sys);
        let got = (
            Backend::cpu_seconds(&timed, &call, 8),
            Backend::gpu_seconds(&timed, &call, 8, Offload::TransferOnce),
        );
        assert_eq!(want, got);
        assert_eq!(timed.offloads().len(), 3);
    }
}
