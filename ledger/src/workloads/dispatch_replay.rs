//! `dispatch_replay`: the online CPU-vs-GPU decision on the BLAS hot path.
//!
//! A seeded 256-call mixed trace is cycled through one long-lived
//! `Dispatcher<ModelExecutor>` on the DAWN model for the whole timed
//! period, timed per 256-call pass — `dispatch` isolated from sockets and
//! kernels. One `replay()` of the same trace gives the decision quality,
//! which must not move when the speed does.

use super::{Ctx, Outcome};
use crate::seams::TimedExecutor;
use crate::spans;
use crate::stats::{window_summary, Timed, TAIL_WINDOWS};
use blob_dispatch::{mixed_trace, replay, Dispatcher, Executor, ModelExecutor, ReplayReport};
use blob_sim::{presets, BlasCall};
use std::time::Instant;

/// Calls in the trace, and per timed pass.
pub const TRACE_CALLS: usize = 256;

/// Decision quality of one replay: `(flip_ratio, gpu_share,
/// regret_vs_oracle)` — exact under a seed.
pub fn quality(report: &ReplayReport) -> (f64, f64, f64) {
    let calls = report.decisions.len().max(1) as f64;
    let flips = report.decisions.iter().filter(|d| d.flipped).count() as f64;
    let gpu = report.decisions.iter().filter(|d| d.gpu).count() as f64;
    let regret = report.dispatcher_seconds / report.oracle_seconds - 1.0;
    (flips / calls, gpu / calls, regret)
}

/// One pass of `trace` through `dispatcher`; the summed realized seconds
/// keep the calls observable.
fn pass<E: Executor>(dispatcher: &mut Dispatcher<E>, trace: &[(u32, BlasCall)]) -> f64 {
    trace
        .iter()
        .map(|(site, call)| dispatcher.call(*site, call).realized_seconds)
        .sum()
}

/// Passes per `dispatch.passes` span in the traced run: keeps the span
/// count bounded while the executor seam stays an aggregate child of each.
const PASSES_PER_SPAN: usize = 1024;

/// Warm-up passes before the timed period: priors memoised, history
/// seeded, sticky routes settled (about a tenth of a second, so set-up is
/// not all process start).
const WARMUP_PASSES: usize = 4096;

/// Drains an executor wrapper's `(calls, estimated ns)`.
type Seam<'a, E> = &'a dyn Fn(&Dispatcher<E>) -> (u64, u64);

/// Warm-up, end of set-up, then the timed loop, over either executor;
/// `None` when the run stops after set-up. In the traced run `seam` drains
/// the executor wrapper and the loop records one `dispatch.passes` span
/// per [`PASSES_PER_SPAN`] passes under a `ledger.workload` root.
fn drive<E: Executor>(
    mut dispatcher: Dispatcher<E>,
    trace: &[(u32, BlasCall)],
    ctx: &mut Ctx,
    out: &mut Outcome,
    seam: Option<Seam<'_, E>>,
) -> Option<Vec<Timed>> {
    for _ in 0..WARMUP_PASSES {
        std::hint::black_box(pass(&mut dispatcher, trace));
    }
    if let Some(drain) = seam {
        let _warmup = drain(&dispatcher);
    }
    if ctx.ready() {
        return None;
    }
    let _root = seam.map(|_| spans::open("ledger.workload"));
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut spent = false;
    while !spent {
        let span = seam.map(|_| spans::open("dispatch.passes"));
        for _ in 0..PASSES_PER_SPAN {
            let begin = started.elapsed().as_secs_f64();
            if begin >= ctx.seconds {
                spent = true;
                break;
            }
            let realized = pass(&mut dispatcher, trace);
            let end = started.elapsed().as_secs_f64();
            if !(realized.is_finite() && realized > 0.0) {
                out.check(false, || format!("pass realized {realized} s"));
            }
            samples.push(Timed {
                at: end as f32,
                latency: (end - begin) as f32,
                ops: trace.len() as f32,
            });
        }
        if let (Some(span), Some(drain)) = (&span, seam) {
            let (calls, ns) = drain(&dispatcher);
            spans::aggregate(span, "sim.executor", calls, ns);
        }
    }
    out.attempted += samples.len() as u64;
    Some(samples)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let system = presets::dawn();
    let trace = mixed_trace(ctx.seed, TRACE_CALLS);
    let mut out = Outcome::default();
    let model = ModelExecutor::new(system.clone());
    let samples = if ctx.traced {
        let drain = |d: &Dispatcher<TimedExecutor<ModelExecutor>>| d.executor().drain();
        let dispatcher = Dispatcher::new(TimedExecutor::new(model));
        drive(dispatcher, &trace, ctx, &mut out, Some(&drain))
    } else {
        drive(Dispatcher::new(model), &trace, ctx, &mut out, None)
    };
    let Some(samples) = samples else {
        return Ok(out);
    };

    let w = window_summary(&samples, ctx.seconds, TAIL_WINDOWS);
    out.ops_per_s = w.ops_per_s;
    out.p50_us = w.p50 * 1e6;
    out.tail_us = w.tail * 1e6;
    out.samples = samples.len();
    out.detail("passes", samples.len() as f64, "count");
    out.detail("ns_per_call", 1e9 / w.ops_per_s, "ns");

    // Decision quality: the dispatcher must beat both static policies.
    let report = replay(&system, ctx.seed, TRACE_CALLS);
    out.check(
        report.dispatcher_seconds < report.always_cpu_seconds
            && report.dispatcher_seconds < report.always_gpu_seconds
            && report.dispatcher_seconds >= report.oracle_seconds,
        || {
            format!(
                "dispatcher {} s vs always-cpu {} s, always-gpu {} s, oracle {} s",
                report.dispatcher_seconds,
                report.always_cpu_seconds,
                report.always_gpu_seconds,
                report.oracle_seconds
            )
        },
    );
    let (flip_ratio, gpu_share, regret) = quality(&report);
    out.detail("flip_ratio", flip_ratio, "ratio");
    out.detail("gpu_share", gpu_share, "ratio");
    out.detail("regret_vs_oracle", regret, "ratio");
    out.attach_trace(ctx);
    Ok(out)
}
