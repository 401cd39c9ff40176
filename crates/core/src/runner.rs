//! The benchmark runner: sweeps every problem size of a problem type on a
//! backend and records CPU and GPU performance, exactly the measurement
//! loop the paper's artifact performs (CPU then GPU per size, interleaved,
//! §III).

use crate::backend::Backend;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::custom::Family;
use crate::fault;
use crate::problem::Problem;
use crate::threshold::{threshold_scan, ThresholdPoint};
use crate::trace;
use blob_sim::{BlasCall, Kernel, Offload, Precision};

pub use blob_blas::ThreadPool;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sweep configuration: the artifact's `-s`, `-d`, `-i` arguments plus a
/// stride for coarse sweeps.
///
/// Fields are private — a value of this type always satisfies its
/// invariants (`min_dim >= 1`, `max_dim >= min_dim`, `step >= 1`, finite
/// scalars). Construct one with [`SweepConfig::paper`],
/// [`SweepConfig::new`] (trusted inputs, clamps), or
/// [`SweepConfig::builder`] (untrusted inputs, validates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    min_dim: usize,
    max_dim: usize,
    iterations: u32,
    step: usize,
    alpha: f64,
    beta: f64,
}

impl SweepConfig {
    /// The paper's configuration: `-s 1 -d 4096`, α=1, β=0.
    pub fn paper(iterations: u32) -> Self {
        Self::new(1, 4096, iterations)
    }

    /// A configuration with a custom dimension range. For trusted
    /// (programmatic) inputs: out-of-range values are clamped into the
    /// invariants rather than rejected — `min_dim` up to 1, `max_dim` up
    /// to `min_dim`. Wire- or CLI-facing code should use
    /// [`SweepConfig::builder`], which rejects instead.
    pub fn new(min_dim: usize, max_dim: usize, iterations: u32) -> Self {
        let min_dim = min_dim.max(1);
        Self {
            min_dim,
            max_dim: max_dim.max(min_dim),
            iterations,
            step: 1,
            alpha: 1.0,
            beta: 0.0,
        }
    }

    /// A validating builder for untrusted inputs (see
    /// [`SweepConfigBuilder`]).
    pub fn builder() -> SweepConfigBuilder {
        SweepConfigBuilder {
            min_dim: 1,
            max_dim: 4096,
            iterations: 1,
            step: 1,
            alpha: 1.0,
            beta: 0.0,
        }
    }

    /// Sets the sweep stride (coarser = faster).
    pub fn with_step(mut self, step: usize) -> Self {
        self.step = step.max(1);
        self
    }

    /// Minimum dimension (`-s`).
    pub fn min_dim(&self) -> usize {
        self.min_dim
    }

    /// Maximum dimension (`-d`).
    pub fn max_dim(&self) -> usize {
        self.max_dim
    }

    /// Iteration count of each timed loop (`-i`).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Stride over the size parameter; 1 sweeps every size like the paper.
    pub fn step(&self) -> usize {
        self.step
    }

    /// α for every call (default 1).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// β for every call (default 0, the artifact's configuration).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The iteration counts the paper evaluates.
    pub const PAPER_ITERATIONS: [u32; 5] = [1, 8, 32, 64, 128];
}

/// Why a [`SweepConfigBuilder`] rejected its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `min_dim` was zero.
    ZeroMinDim,
    /// `max_dim` was below `min_dim`.
    EmptyRange {
        /// The requested minimum dimension.
        min_dim: usize,
        /// The requested maximum dimension.
        max_dim: usize,
    },
    /// The iteration count was zero.
    ZeroIterations,
    /// The sweep stride was zero.
    ZeroStep,
    /// The named scalar (`"alpha"` or `"beta"`) was NaN or infinite.
    NonFiniteScalar(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMinDim => write!(f, "sweep config: min_dim must be >= 1"),
            ConfigError::EmptyRange { min_dim, max_dim } => write!(
                f,
                "sweep config: max_dim ({max_dim}) must be >= min_dim ({min_dim})"
            ),
            ConfigError::ZeroIterations => write!(f, "sweep config: iterations must be >= 1"),
            ConfigError::ZeroStep => write!(f, "sweep config: step must be >= 1"),
            ConfigError::NonFiniteScalar(s) => write!(f, "sweep config: `{s}` must be finite"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`SweepConfig`]: the choke point where
/// untrusted sweep shapes (wire requests, CLI flags) become a config.
/// Unlike [`SweepConfig::new`], nothing is clamped — an invalid shape
/// is a typed [`ConfigError`].
#[derive(Debug, Clone, Copy)]
pub struct SweepConfigBuilder {
    min_dim: usize,
    max_dim: usize,
    iterations: u32,
    step: usize,
    alpha: f64,
    beta: f64,
}

impl SweepConfigBuilder {
    /// Sets the dimension range (defaults: 1..=4096, the paper's).
    pub fn dims(mut self, min_dim: usize, max_dim: usize) -> Self {
        self.min_dim = min_dim;
        self.max_dim = max_dim;
        self
    }

    /// Sets the iteration count (default 1).
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the sweep stride (default 1).
    pub fn step(mut self, step: usize) -> Self {
        self.step = step;
        self
    }

    /// Sets α and β for every call (defaults 1 and 0).
    pub fn scalars(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<SweepConfig, ConfigError> {
        if self.min_dim == 0 {
            return Err(ConfigError::ZeroMinDim);
        }
        if self.max_dim < self.min_dim {
            return Err(ConfigError::EmptyRange {
                min_dim: self.min_dim,
                max_dim: self.max_dim,
            });
        }
        if self.iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.step == 0 {
            return Err(ConfigError::ZeroStep);
        }
        if !self.alpha.is_finite() {
            return Err(ConfigError::NonFiniteScalar("alpha"));
        }
        if !self.beta.is_finite() {
            return Err(ConfigError::NonFiniteScalar("beta"));
        }
        Ok(SweepConfig {
            min_dim: self.min_dim,
            max_dim: self.max_dim,
            iterations: self.iterations,
            step: self.step,
            alpha: self.alpha,
            beta: self.beta,
        })
    }
}

/// One GPU timing at one problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSample {
    /// Offload strategy this sample used.
    pub offload: Offload,
    /// Total measured seconds for the configured iterations.
    pub seconds: f64,
    /// Achieved GFLOP/s (paper FLOPs formula).
    pub gflops: f64,
}

impl GpuSample {
    /// A sample of `seconds` for work of `total_flops` (all iterations).
    pub(crate) fn timed(offload: Offload, seconds: f64, total_flops: f64) -> Self {
        Self {
            offload,
            seconds,
            gflops: total_flops / seconds / 1e9,
        }
    }
}

/// The GPU samples of one size, stored inline: at most one per [`Offload`]
/// variant, so a [`SizeRecord`] owns no heap memory. Dereferences to
/// `[GpuSample]` in insertion order.
#[derive(Clone, Copy)]
pub struct GpuSamples {
    len: usize,
    slots: [GpuSample; GpuSamples::CAPACITY],
}

impl GpuSamples {
    /// One slot per [`Offload`] variant.
    pub(crate) const CAPACITY: usize = Offload::WITH_FIRST_TOUCH.len();

    /// Appends `sample`, or hands it back when its offload already has one.
    pub fn push(&mut self, sample: GpuSample) -> Result<(), GpuSample> {
        if self.iter().any(|g| g.offload == sample.offload) {
            return Err(sample);
        }
        // One sample per variant, so a distinct offload always finds a slot.
        let slot = self.slots.get_mut(self.len).ok_or(sample)?;
        *slot = sample;
        self.len += 1;
        Ok(())
    }
}

impl Default for GpuSamples {
    fn default() -> Self {
        let empty = GpuSample {
            offload: Offload::TransferOnce,
            seconds: 0.0,
            gflops: 0.0,
        };
        Self {
            len: 0,
            slots: [empty; GpuSamples::CAPACITY],
        }
    }
}

impl std::ops::Deref for GpuSamples {
    type Target = [GpuSample];
    fn deref(&self) -> &[GpuSample] {
        &self.slots[..self.len]
    }
}

impl PartialEq for GpuSamples {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for GpuSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<GpuSample> for GpuSamples {
    /// Collects samples in order; a repeated offload keeps its first
    /// sample, the one [`SizeRecord::gpu_sample`] would return.
    fn from_iter<I: IntoIterator<Item = GpuSample>>(iter: I) -> Self {
        let mut samples = Self::default();
        for sample in iter {
            let _ = samples.push(sample);
        }
        samples
    }
}

impl<'a> IntoIterator for &'a GpuSamples {
    type Item = &'a GpuSample;
    type IntoIter = std::slice::Iter<'a, GpuSample>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Everything measured at one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRecord {
    /// The size parameter `p` that generated these dimensions.
    pub param: usize,
    /// Concrete kernel dimensions.
    pub kernel: Kernel,
    /// Total CPU seconds for the configured iterations.
    pub cpu_seconds: f64,
    /// Achieved CPU GFLOP/s (paper FLOPs formula).
    pub cpu_gflops: f64,
    /// GPU samples, inline (no heap): at most one per offload strategy, in
    /// [`Backend::offloads`] order; empty on CPU-only backends.
    pub gpu: GpuSamples,
}

impl SizeRecord {
    /// The GPU sample for a given offload strategy, if measured.
    pub fn gpu_sample(&self, offload: Offload) -> Option<&GpuSample> {
        self.gpu.iter().find(|g| g.offload == offload)
    }
}

/// The record at the offload threshold of a record series for `offload`:
/// one scan of the records, no allocation. `None` when any size lacks a
/// sample.
pub(crate) fn threshold_record(records: &[SizeRecord], offload: Offload) -> Option<&SizeRecord> {
    let i = threshold_scan(records.len(), |i| {
        let r = records.get(i)?;
        let gpu = r.gpu_sample(offload)?;
        Some(
            ThresholdPoint {
                cpu_seconds: r.cpu_seconds,
                gpu_seconds: gpu.seconds,
            }
            .cpu_wins(),
        )
    })?;
    records.get(i)
}

/// A completed sweep of one (problem type, precision, iteration count).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Backend name (system).
    pub system: String,
    /// Problem family swept: a built-in row or a custom family.
    pub problem: Family,
    /// Element precision of every measurement.
    pub precision: Precision,
    /// Iteration count of each timed loop.
    pub iterations: u32,
    /// One record per size parameter, in sweep order.
    pub records: Vec<SizeRecord>,
}

impl Sweep {
    /// The offload threshold for `offload`: concrete dimensions of the
    /// first size from which the GPU durably wins, or `None` (the paper's
    /// `—`). Also `None` when the backend measured no GPU.
    pub fn threshold(&self, offload: Offload) -> Option<Kernel> {
        self.threshold_record(offload).map(|r| r.kernel)
    }

    /// The record of the size at [`threshold`](Sweep::threshold): its size
    /// parameter, dimensions and measurements.
    pub fn threshold_record(&self, offload: Offload) -> Option<&SizeRecord> {
        threshold_record(&self.records, offload)
    }

    /// CPU GFLOP/s series (for plotting).
    pub fn cpu_series(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .map(|r| (r.param, r.cpu_gflops))
            .collect()
    }

    /// GPU GFLOP/s series for one offload strategy.
    pub fn gpu_series(&self, offload: Offload) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter_map(|r| r.gpu_sample(offload).map(|g| (r.param, g.gflops)))
            .collect()
    }
}

/// Builds the call for one problem size under a sweep configuration.
pub fn call_for(problem: &Family, precision: Precision, p: usize, cfg: &SweepConfig) -> BlasCall {
    BlasCall {
        kernel: problem.dims(p),
        precision,
        alpha: cfg.alpha,
        beta: cfg.beta,
    }
}

/// Runs a full sweep of `problem` — a built-in [`Problem`] or any
/// [`Family`] — at `precision` on `backend`.
///
/// For every size parameter in range, the CPU is timed and then each
/// available offload strategy is timed on the GPU — the artifact's
/// interleaved collection order.
pub fn run_sweep(
    backend: &dyn Backend,
    problem: impl Into<Family>,
    precision: Precision,
    cfg: &SweepConfig,
) -> Sweep {
    sweep_family(backend, problem.into(), precision, cfg)
}

/// [`run_sweep`]'s body, kept out of the generic wrapper so the per-size
/// loop compiles once, in this crate.
fn sweep_family(
    backend: &dyn Backend,
    problem: Family,
    precision: Precision,
    cfg: &SweepConfig,
) -> Sweep {
    let offloads = backend.offloads();
    let iters = cfg.iterations.max(1);
    let records = problem
        .params(cfg.min_dim, cfg.max_dim, cfg.step)
        .into_iter()
        .map(|p| {
            measure_size(
                backend,
                p,
                &call_for(&problem, precision, p, cfg),
                iters,
                &offloads,
            )
        })
        .collect();
    Sweep {
        system: backend.name(),
        problem,
        precision,
        iterations: iters,
        records,
    }
}

/// Measures size parameter `p`, whose call is `call`: CPU, then each
/// offload strategy — the artifact's interleaved collection order.
///
/// The call comes by reference, built by the caller, so the models read
/// it where it was written. Copying a just-built kernel into a fresh call
/// here is one wide load over narrow stores: the CPU cannot forward it,
/// and every size then waits for the previous one to retire (~30 ns a
/// point on a modelled sweep).
fn measure_size(
    backend: &dyn Backend,
    p: usize,
    call: &BlasCall,
    iters: u32,
    offloads: &[Offload],
) -> SizeRecord {
    let size_span = trace::span(trace::names::SWEEP_SIZE, trace::cats::RUNNER);
    size_span.annotate("param", p as u64);
    size_span.annotate("iterations", u64::from(iters));
    // The `runner.size` fault point models a transient backend hiccup at
    // this size: an injected error is simply retried (the measurement has
    // not started yet), an injected delay models a slow kernel for the
    // watchdog to notice, and retry exhaustion proceeds to measure — a
    // benchmark harness degrades to *slow*, never to *absent* numbers.
    for _attempt in 0..3 {
        if fault::point(fault::sites::RUNNER_SIZE).is_ok() {
            break;
        }
    }
    let cpu_seconds = backend.cpu_seconds(call, iters);
    let total_flops = iters as f64 * call.paper_flops();
    SizeRecord {
        param: p,
        kernel: call.kernel,
        cpu_seconds,
        cpu_gflops: total_flops / cpu_seconds / 1e9,
        gpu: backend.gpu_samples(call, iters, offloads),
    }
}

/// [`run_sweep`], with the per-size measurement loop split into one
/// contiguous chunk per pool thread: the calling thread measures the first
/// and the persistent [`ThreadPool`] the rest. The returned [`Sweep`]
/// is **identical** to the serial one — records stay in sweep order and
/// each size is measured exactly once.
///
/// Only meaningful for *model-evaluating* backends ([`blob_sim`]'s
/// analytic `SystemModel`s), whose "timings" are pure functions of the
/// call. A wall-clock backend (e.g. `HostCpu`) must keep using
/// [`run_sweep`]: concurrent timed measurements contend for the cores
/// being measured and corrupt each other's numbers.
pub fn run_sweep_pooled<B>(
    backend: Arc<B>,
    problem: impl Into<Family>,
    precision: Precision,
    cfg: &SweepConfig,
    pool: &ThreadPool,
) -> Sweep
where
    B: Backend + Send + Sync + 'static,
{
    let problem = problem.into();
    let params = problem.params(cfg.min_dim, cfg.max_dim, cfg.step);
    let workers = pool.threads().min(params.len());
    if workers <= 1 {
        return run_sweep(backend.as_ref(), problem, precision, cfg);
    }
    let offloads = backend.offloads();
    let iters = cfg.iterations.max(1);
    let cfg = *cfg;
    let per = params.len().div_ceil(workers);
    let mut chunks = params.chunks(per);
    let first = chunks.next().unwrap_or_default();
    // The pool measures every chunk after the first, each into a local Vec
    // handed back under one lock; this thread measures the first meanwhile
    // straight into the result.
    let handed: Arc<Mutex<Vec<Vec<SizeRecord>>>> =
        Arc::new(Mutex::new(vec![Vec::new(); chunks.len()]));
    let mut batch = pool.batch();
    for (chunk_idx, chunk) in chunks.enumerate() {
        let chunk = chunk.to_vec();
        let backend = Arc::clone(&backend);
        let handed = Arc::clone(&handed);
        let offloads = offloads.clone();
        let problem = problem.clone();
        batch.submit(move || {
            let records: Vec<SizeRecord> = chunk
                .into_iter()
                .map(|p| {
                    let call = call_for(&problem, precision, p, &cfg);
                    measure_size(backend.as_ref(), p, &call, iters, &offloads)
                })
                .collect();
            let mut h = handed
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(slot) = h.get_mut(chunk_idx) {
                *slot = records;
            }
        });
    }
    let mut records = Vec::with_capacity(params.len());
    records.extend(first.iter().map(|&p| {
        let call = call_for(&problem, precision, p, &cfg);
        measure_size(backend.as_ref(), p, &call, iters, &offloads)
    }));
    batch.wait();
    // The batch barrier guarantees every chunk was handed back.
    let mut h = handed
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for chunk in std::mem::take(&mut *h) {
        records.extend(chunk);
    }
    Sweep {
        system: backend.name(),
        problem,
        precision,
        iterations: iters,
        records,
    }
}

/// Result of [`run_sweep_checkpointed`]: the sweep plus resume/watchdog
/// diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedRun {
    /// The completed sweep, identical to what [`run_sweep`] returns.
    pub sweep: Sweep,
    /// Records loaded from the checkpoint instead of re-measured.
    pub resumed: usize,
    /// Sizes the watchdog flagged as exceeding their time budget.
    pub watchdog_stalls: u64,
}

/// Watchdog over the per-size measurement loop: a plain monitor thread
/// that flags (to stderr, and in [`CheckpointedRun::watchdog_stalls`])
/// any size whose measurement exceeds its budget. It never kills the
/// measurement — a benchmark harness must keep producing numbers — but
/// it turns a silent hang into a diagnosable, counted event.
struct Watchdog {
    epoch: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    stalls: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start(budget: Duration) -> Self {
        let epoch = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let stalls = Arc::new(AtomicU64::new(0));
        let (e, s, st) = (Arc::clone(&epoch), Arc::clone(&stop), Arc::clone(&stalls));
        let tick = (budget / 4).max(Duration::from_millis(5));
        let thread = std::thread::Builder::new()
            .name("blob-watchdog".to_string())
            .spawn(move || {
                let mut last_epoch = e.load(Ordering::Relaxed);
                let mut since = Instant::now();
                let mut flagged = false;
                while !s.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    let now_epoch = e.load(Ordering::Relaxed);
                    if now_epoch != last_epoch {
                        last_epoch = now_epoch;
                        since = Instant::now();
                        flagged = false;
                    } else if !flagged && since.elapsed() > budget {
                        st.fetch_add(1, Ordering::Relaxed);
                        flagged = true;
                        eprintln!(
                            "gpu-blob: watchdog: size #{now_epoch} exceeded its {:?} budget",
                            budget
                        );
                    }
                }
            })
            .ok();
        Self {
            epoch,
            stop,
            stalls,
            thread,
        }
    }

    fn advance(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.stalls.load(Ordering::Relaxed)
    }
}

/// [`run_sweep`] with crash-safe checkpointing and an optional per-size
/// watchdog.
///
/// After every measured size the partial sweep is persisted atomically
/// to `ckpt_path` (bit-exact floats — see [`crate::checkpoint`]). With
/// `resume`, a matching checkpoint's records are loaded and measurement
/// continues from the first missing size, so a killed sweep finishes
/// with **byte-identical** results to an uninterrupted one. A checkpoint
/// keyed to a *different* sweep is an error with `resume` and is simply
/// overwritten without it.
///
/// A checkpoint-save failure (disk full, injected `checkpoint.write`
/// fault) degrades the run to unresumable but does not stop it: the
/// error is reported on stderr once and measurement continues.
pub fn run_sweep_checkpointed(
    backend: &dyn Backend,
    problem: Problem,
    precision: Precision,
    cfg: &SweepConfig,
    ckpt_path: &Path,
    resume: bool,
    size_budget: Option<Duration>,
) -> Result<CheckpointedRun, CheckpointError> {
    let family = problem.family();
    let params = family.params(cfg.min_dim, cfg.max_dim, cfg.step);
    let offloads = backend.offloads();
    let iters = cfg.iterations.max(1);
    let system = backend.name();

    let mut ck = Checkpoint::new(&system, problem, precision, cfg);
    if resume && ckpt_path.exists() {
        let loaded = Checkpoint::load(ckpt_path)?;
        if !loaded.matches(&system, problem, precision, cfg) {
            return Err(CheckpointError::Mismatch(format!(
                "{} holds a different sweep (system {}, problem {}); refusing to resume",
                ckpt_path.display(),
                loaded.system,
                loaded.problem.id()
            )));
        }
        // The records must be a prefix of this sweep's size list — a
        // truncated or reordered file means the checkpoint is not ours.
        for (i, r) in loaded.records.iter().enumerate() {
            if params.get(i) != Some(&r.param) {
                return Err(CheckpointError::Mismatch(format!(
                    "{}: record {i} is for size {} where the sweep expects {:?}",
                    ckpt_path.display(),
                    r.param,
                    params.get(i)
                )));
            }
        }
        ck = loaded;
    }
    let resumed = ck.records.len();

    let watchdog = size_budget.map(Watchdog::start);
    let mut save_failed = false;
    for &p in params.iter().skip(resumed) {
        let rec = measure_size(
            backend,
            p,
            &call_for(family, precision, p, cfg),
            iters,
            &offloads,
        );
        ck.records.push(rec);
        if let Some(w) = &watchdog {
            w.advance();
        }
        if !save_failed {
            let save_span = trace::span(trace::names::CHECKPOINT_SAVE, trace::cats::CHECKPOINT);
            save_span.annotate("records", ck.records.len() as u64);
            if let Err(e) = ck.save(ckpt_path) {
                eprintln!("gpu-blob: checkpointing disabled for this run: {e}");
                save_failed = true;
            }
        }
    }
    ck.complete = true;
    if !save_failed {
        let save_span = trace::span(trace::names::CHECKPOINT_SAVE, trace::cats::CHECKPOINT);
        save_span.annotate("records", ck.records.len() as u64);
        if let Err(e) = ck.save(ckpt_path) {
            eprintln!("gpu-blob: final checkpoint write failed: {e}");
        }
    }
    let watchdog_stalls = watchdog.map_or(0, Watchdog::finish);

    Ok(CheckpointedRun {
        sweep: Sweep {
            system,
            problem: family.clone(),
            precision,
            iterations: iters,
            records: ck.records,
        },
        resumed,
        watchdog_stalls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::DimRule;
    use crate::problem::{GemmProblem, GemvProblem};
    use blob_sim::{presets, SystemModel};

    #[test]
    fn sweep_covers_requested_sizes() {
        let sys = presets::dawn();
        let cfg = SweepConfig::new(1, 64, 1);
        let sweep = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
        );
        assert_eq!(sweep.records.len(), 64);
        assert_eq!(sweep.records[0].param, 1);
        assert_eq!(sweep.records.last().unwrap().param, 64);
        for r in &sweep.records {
            assert!(r.cpu_seconds > 0.0);
            assert_eq!(r.gpu.len(), 3, "three offload strategies per size");
            assert!(r.cpu_gflops > 0.0);
        }
    }

    #[test]
    fn cpu_only_backend_yields_no_gpu_samples_or_thresholds() {
        let sys = presets::isambard_ai_armpl();
        let cfg = SweepConfig::new(1, 32, 1);
        let sweep = run_sweep(
            &sys,
            Problem::Gemv(GemvProblem::Square),
            Precision::F64,
            &cfg,
        );
        assert!(sweep.records.iter().all(|r| r.gpu.is_empty()));
        assert_eq!(sweep.threshold(Offload::TransferOnce), None);
    }

    #[test]
    fn gflops_respects_paper_formula() {
        let sys = presets::lumi();
        let cfg = SweepConfig::new(10, 10, 4);
        let sweep = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F64,
            &cfg,
        );
        let r = &sweep.records[0];
        let call = BlasCall::gemm(Precision::F64, 10, 10, 10);
        let expect = 4.0 * call.paper_flops() / r.cpu_seconds / 1e9;
        assert!((r.cpu_gflops - expect).abs() < 1e-9);
    }

    #[test]
    fn thresholds_map_to_kernel_dims() {
        // Isambard square GEMM has a small stable threshold; whatever the
        // exact value, the returned dims must be square and in range.
        let sys = presets::isambard_ai();
        let cfg = SweepConfig::new(1, 256, 8);
        let sweep = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
        );
        if let Some(Kernel::Gemm { m, n, k }) = sweep.threshold(Offload::TransferOnce) {
            assert_eq!(m, n);
            assert_eq!(n, k);
            assert!((1..=256).contains(&m));
        } else {
            panic!("expected a square-GEMM threshold on Isambard-AI");
        }
    }

    #[test]
    fn series_extraction() {
        let sys = presets::dawn();
        let cfg = SweepConfig::new(1, 16, 1);
        let sweep = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
        );
        assert_eq!(sweep.cpu_series().len(), 16);
        assert_eq!(sweep.gpu_series(Offload::Unified).len(), 16);
        assert!(sweep
            .gpu_series(Offload::TransferOnce)
            .iter()
            .all(|&(_, g)| g > 0.0));
    }

    #[test]
    fn pooled_sweep_is_identical_to_serial() {
        let sys = Arc::new(presets::dawn());
        let cfg = SweepConfig::new(1, 97, 2).with_step(3);
        let problem = Problem::Gemm(GemmProblem::Square);
        let serial = run_sweep(sys.as_ref(), problem, Precision::F32, &cfg);
        let pool = ThreadPool::new(3);
        let pooled = run_sweep_pooled(Arc::clone(&sys), problem, Precision::F32, &cfg, &pool);
        assert_eq!(serial, pooled);
        // more chunks than workers is fine too (uneven tail chunk)
        let tiny = SweepConfig::new(1, 5, 1);
        let serial = run_sweep(sys.as_ref(), problem, Precision::F64, &tiny);
        let pooled = run_sweep_pooled(Arc::clone(&sys), problem, Precision::F64, &tiny, &pool);
        assert_eq!(serial, pooled);
        // single-size sweep falls back to the serial path
        let one = SweepConfig::new(64, 64, 1);
        let serial = run_sweep(sys.as_ref(), problem, Precision::F32, &one);
        let pooled = run_sweep_pooled(sys, problem, Precision::F32, &one, &pool);
        assert_eq!(serial, pooled);
    }

    fn tdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("blob_runner_{name}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checkpointed_sweep_equals_plain_sweep() {
        let sys = presets::dawn();
        let cfg = SweepConfig::new(1, 40, 2).with_step(3);
        let problem = Problem::Gemm(GemmProblem::Square);
        let plain = run_sweep(&sys, problem, Precision::F32, &cfg);
        let d = tdir("equals");
        let path = d.join("ck.json");
        let run = run_sweep_checkpointed(&sys, problem, Precision::F32, &cfg, &path, false, None)
            .unwrap();
        assert_eq!(run.sweep, plain);
        assert_eq!(run.resumed, 0);
        // the final checkpoint is complete and holds every record
        let ck = Checkpoint::load(&path).unwrap();
        assert!(ck.complete);
        assert_eq!(ck.records, plain.records);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn resume_from_partial_checkpoint_is_bit_identical() {
        let sys = presets::lumi();
        let cfg = SweepConfig::new(1, 30, 1).with_step(2);
        let problem = Problem::Gemv(GemvProblem::Square);
        let plain = run_sweep(&sys, problem, Precision::F64, &cfg);
        // Fabricate a mid-sweep kill: checkpoint holding the first 5 records.
        let d = tdir("resume");
        let path = d.join("ck.json");
        let mut partial = Checkpoint::new(&sys.name(), problem, Precision::F64, &cfg);
        partial.records = plain.records[..5].to_vec();
        partial.save(&path).unwrap();
        let run =
            run_sweep_checkpointed(&sys, problem, Precision::F64, &cfg, &path, true, None).unwrap();
        assert_eq!(run.resumed, 5);
        assert_eq!(run.sweep, plain);
        // bit-identical CSV output, the chaos suite's core claim
        assert_eq!(
            crate::csv::to_csv_string(&run.sweep),
            crate::csv::to_csv_string(&plain)
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn resume_refuses_a_foreign_checkpoint() {
        let sys = presets::dawn();
        let cfg = SweepConfig::new(1, 10, 1);
        let problem = Problem::Gemm(GemmProblem::Square);
        let d = tdir("foreign");
        let path = d.join("ck.json");
        let other = Checkpoint::new("LUMI", problem, Precision::F32, &cfg);
        other.save(&path).unwrap();
        let err = run_sweep_checkpointed(&sys, problem, Precision::F32, &cfg, &path, true, None)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        // without --resume the foreign checkpoint is overwritten
        let run = run_sweep_checkpointed(&sys, problem, Precision::F32, &cfg, &path, false, None)
            .unwrap();
        assert_eq!(run.sweep.records.len(), 10);
        std::fs::remove_dir_all(&d).ok();
    }

    /// DAWN's model, except that the first CPU timing sleeps 40 ms: a slow
    /// size that no other test can take.
    struct SlowFirstSize {
        model: SystemModel,
        slept: std::cell::Cell<bool>,
    }

    impl Backend for SlowFirstSize {
        fn name(&self) -> String {
            self.model.name()
        }
        fn cpu_seconds(&self, call: &BlasCall, iters: u32) -> f64 {
            if !self.slept.replace(true) {
                std::thread::sleep(Duration::from_millis(40));
            }
            self.model.cpu_seconds(call, iters)
        }
        fn gpu_seconds(&self, call: &BlasCall, iters: u32, offload: Offload) -> Option<f64> {
            self.model.gpu_seconds(call, iters, offload)
        }
    }

    #[test]
    fn watchdog_flags_a_slow_size() {
        let sys = SlowFirstSize {
            model: presets::dawn(),
            slept: std::cell::Cell::new(false),
        };
        let cfg = SweepConfig::new(1, 3, 1);
        let d = tdir("watchdog");
        let path = d.join("ck.json");
        let run = run_sweep_checkpointed(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
            &path,
            false,
            Some(Duration::from_millis(10)),
        )
        .unwrap();
        assert!(
            run.watchdog_stalls >= 1,
            "40ms injected delay must trip a 10ms budget"
        );
        assert_eq!(run.sweep.records.len(), 3, "watchdog never kills the sweep");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn builder_validates_and_matches_new() {
        let built = SweepConfig::builder()
            .dims(2, 64)
            .iterations(8)
            .step(3)
            .build()
            .unwrap();
        assert_eq!(built, SweepConfig::new(2, 64, 8).with_step(3));
        let scaled = SweepConfig::builder()
            .dims(1, 4)
            .iterations(1)
            .scalars(2.0, 1.0)
            .build()
            .unwrap();
        assert_eq!(scaled.alpha().to_bits(), 2.0f64.to_bits());
        assert_eq!(scaled.beta().to_bits(), 1.0f64.to_bits());
        assert_eq!(
            SweepConfig::builder().dims(0, 4).build(),
            Err(ConfigError::ZeroMinDim)
        );
        assert_eq!(
            SweepConfig::builder().dims(8, 4).build(),
            Err(ConfigError::EmptyRange {
                min_dim: 8,
                max_dim: 4
            })
        );
        assert_eq!(
            SweepConfig::builder().iterations(0).build(),
            Err(ConfigError::ZeroIterations)
        );
        assert_eq!(
            SweepConfig::builder().step(0).build(),
            Err(ConfigError::ZeroStep)
        );
        assert_eq!(
            SweepConfig::builder().scalars(f64::NAN, 0.0).build(),
            Err(ConfigError::NonFiniteScalar("alpha"))
        );
        // `new` clamps trusted inputs into the invariants instead
        assert_eq!(SweepConfig::new(0, 0, 1).min_dim(), 1);
        assert_eq!(SweepConfig::new(0, 0, 1).max_dim(), 1);
    }

    #[test]
    fn custom_square_matches_builtin_square() {
        let sys = presets::lumi();
        let cfg = SweepConfig::new(1, 128, 8);
        let custom = Family::parse("gemm:p,p,p").unwrap();
        let cs = run_sweep(&sys, custom, Precision::F32, &cfg);
        let bs = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
        );
        assert_eq!(cs.records, bs.records);
        assert_eq!(
            cs.threshold(Offload::TransferOnce),
            bs.threshold(Offload::TransferOnce)
        );
        assert_eq!(
            (cs.problem.id(), bs.problem.id()),
            ("gemm:p,p,p", "gemm_square")
        );
    }

    #[test]
    fn transformer_family_thresholds() {
        // M = 4N, K = N: the FFN projection family from the `custom` docs
        let sys = presets::isambard_ai();
        let p = Family::gemm(
            "ffn",
            DimRule::scaled(4),
            DimRule::scaled(1),
            DimRule::scaled(1),
        );
        let cfg = SweepConfig::new(1, 1024, 8);
        let sweep = run_sweep(&sys, p, Precision::F32, &cfg);
        // all dims within range: max param = 1024/4 = 256
        assert_eq!(sweep.records.last().unwrap().param, 256);
        assert!(sweep.threshold(Offload::TransferOnce).is_some());
    }

    #[test]
    fn custom_gemv_family() {
        let sys = presets::dawn();
        let p = Family::parse("gemv:2p,p").unwrap();
        let cfg = SweepConfig::new(1, 200, 32);
        let sweep = run_sweep(&sys, p, Precision::F64, &cfg);
        assert!(!sweep.records.is_empty());
        assert!(sweep.records.iter().all(|r| {
            let (m, n, _) = r.kernel.dims();
            m == 2 * n
        }));
    }

    #[test]
    fn step_reduces_sample_count_but_keeps_endpoint() {
        let sys = presets::dawn();
        let cfg = SweepConfig::new(1, 100, 1).with_step(9);
        let sweep = run_sweep(
            &sys,
            Problem::Gemv(GemvProblem::Square),
            Precision::F32,
            &cfg,
        );
        assert!(sweep.records.len() < 100);
        assert_eq!(sweep.records.last().unwrap().param, 100);
    }
}
