//! The eight workloads. Each is one function that sets up, marks the end
//! of set-up, measures for the requested time, checks its outputs, and
//! returns an [`Outcome`]. One process runs one workload: the trace-enable
//! flag, the tuned-profile `OnceLock` and the pools are process-global, so
//! a second workload in the same process would not see the state a user's
//! process sees.

pub mod dispatch_replay;
pub mod kernels;
pub mod model_tables;
pub mod serve;

use crate::spans::{self, Attribution};
use std::time::Instant;

/// Whether a loop of timed passes may stop: the period is spent and three
/// passes exist, or the run is far over time.
pub fn period_spent(started: Instant, seconds: f64, passes: usize) -> bool {
    let t = started.elapsed().as_secs_f64();
    (t >= seconds && passes >= 3) || (t >= 3.0 * seconds && passes >= 1)
}

/// What a workload run is asked to do.
pub struct Ctx {
    /// The workload's name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed period, seconds.
    pub seconds: f64,
    /// Install the seam wrappers and record spans.
    pub traced: bool,
    /// Stop after set-up (the set-up-repetition child processes).
    pub setup_only: bool,
    /// Process start, the origin of `setup_s`.
    pub started: Instant,
    /// Seconds from process start to the end of set-up, once marked.
    pub setup_s: Option<f64>,
}

impl Ctx {
    /// Marks the end of set-up (process start → first timed operation).
    /// Returns true when the run should stop here.
    pub fn ready(&mut self) -> bool {
        self.setup_s = Some(self.started.elapsed().as_secs_f64());
        self.setup_only
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work completed per second, in the workload's unit of work.
    pub ops_per_s: f64,
    /// Median latency of the workload's timed operation, µs.
    pub p50_us: f64,
    /// Tail latency of the same operation, µs.
    pub tail_us: f64,
    /// Timed samples behind the figures above.
    pub samples: usize,
    /// Operations checked for correctness.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Named values printed and saved beside the metrics: the split
    /// behind `ops_per_s`, references, sizes.
    pub details: Vec<(String, f64, &'static str)>,
    /// In-workload per-layer values (traced pass only).
    pub layer: Vec<(&'static str, f64)>,
    /// Span attribution (traced pass only).
    pub attribution: Option<Attribution>,
    /// Why checks failed, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one correctness check; records `why` when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Ends a traced timed period: takes the recorded spans, keeps their
    /// attribution, and writes them to the workload's trace file.
    pub fn attach_trace(&mut self, ctx: &Ctx) {
        if ctx.traced {
            let spans = spans::take();
            self.attribution = Some(spans::attribute(&spans));
            crate::report::write_trace(ctx, &spans);
        }
    }

    /// Adds a named detail value.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }
}

/// Runs the workload `ctx` names.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    match ctx.workload.clone().as_str() {
        "gemm_band" => kernels::gemm_band(ctx),
        "gemm_large" => kernels::gemm_large(ctx),
        "gemv_stream" => kernels::gemv_stream(ctx),
        "precision_ladder" => kernels::precision_ladder(ctx),
        "model_tables" => model_tables::run(ctx),
        "dispatch_replay" => dispatch_replay::run(ctx),
        "serve_advise" => serve::advise(ctx),
        "serve_threshold" => serve::threshold(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}
