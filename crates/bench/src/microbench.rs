//! A small, dependency-free benchmark harness for the `benches/` targets.
//!
//! The workspace builds with no network access, so the usual Criterion
//! dependency is out; this module provides the subset those benchmarks
//! need: named groups, per-benchmark warm-up, batched adaptive timing,
//! min/median/mean reporting, optional element-throughput rates, and a
//! substring filter from the command line:
//!
//! ```text
//! cargo bench -p blob-bench --bench host_gemm            # everything
//! cargo bench -p blob-bench --bench host_gemm -- square  # filtered
//! ```
//!
//! Each benchmark is timed in batches: after warm-up estimates the cost of
//! one call, batch sizes are chosen so a batch lasts roughly one
//! measurement slice, and batches run until the time budget is spent. The
//! median batch rate is the headline number — robust to the occasional
//! descheduling spike that ruins a mean on shared machines.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing budget for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Warm-up wall time before measurement begins.
    pub warmup: Duration,
    /// Measurement wall-time budget.
    pub measure: Duration,
    /// Number of batch samples to aim for within the budget.
    pub samples: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(300),
            measure: Duration::from_secs(1),
            samples: 10,
        }
    }
}

/// One benchmark target file's harness: owns the options and the CLI
/// filter, prints one line per benchmark.
pub struct Bench {
    options: Options,
    filter: Option<String>,
}

impl Bench {
    /// A harness with the default budget and the filter taken from the
    /// first non-flag command-line argument (cargo passes `--bench` when
    /// running bench targets; skip any `--…` flags).
    pub fn from_args(name: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        println!("{name}: hand-rolled microbench (median of batched samples)");
        if let Some(f) = &filter {
            println!("filter: {f:?}");
        }
        Self {
            options: Options::default(),
            filter,
        }
    }

    /// Overrides the timing budget for all subsequent groups.
    pub fn with_options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Starts a named group; benchmark ids print as `group/id`.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            bench: self,
            name: name.to_string(),
            throughput_elements: None,
        }
    }
}

/// A named group of benchmarks sharing an optional throughput unit.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    throughput_elements: Option<u64>,
}

impl Group<'_> {
    /// Declares how many elements (e.g. FLOPs) one call processes;
    /// subsequent benchmarks also report Melem/s.
    pub fn throughput_elements(&mut self, elements: u64) -> &mut Self {
        self.throughput_elements = Some(elements);
        self
    }

    /// Runs one benchmark and prints its summary line.
    pub fn bench<F: FnMut()>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.bench.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let stats = run_one(self.bench.options, f);
        let rate = self
            .throughput_elements
            .map(|e| format!("  {:>10.1} Melem/s", e as f64 / stats.median / 1e6))
            .unwrap_or_default();
        println!(
            "  {full:<40} median {}  (min {}, mean {}, {} samples){rate}",
            fmt_time(stats.median),
            fmt_time(stats.min),
            fmt_time(stats.mean),
            stats.samples,
        );
        self
    }
}

/// Per-call timing summary, all in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median per-call seconds over the batch samples.
    pub median: f64,
    /// Fastest batch's per-call seconds.
    pub min: f64,
    /// Mean per-call seconds over all batches.
    pub mean: f64,
    /// Batch samples taken.
    pub samples: usize,
}

fn run_one<F: FnMut()>(options: Options, mut f: F) -> Stats {
    // Warm-up: run until the warm-up budget is spent, tracking per-call
    // cost to size measurement batches.
    let warm_start = Instant::now();
    let mut warm_calls = 0u64;
    while warm_start.elapsed() < options.warmup || warm_calls == 0 {
        f();
        warm_calls += 1;
    }
    let per_call = warm_start.elapsed().as_secs_f64() / warm_calls as f64;

    // Batch size targets measure/samples wall time per batch.
    let slice = options.measure.as_secs_f64() / options.samples.max(1) as f64;
    let batch = ((slice / per_call.max(1e-9)) as u64).clamp(1, 1_000_000_000);

    let mut rates = Vec::with_capacity(options.samples);
    let start = Instant::now();
    while rates.len() < 2
        || (start.elapsed() < options.measure && rates.len() < options.samples.max(2) * 4)
    {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        rates.push(t0.elapsed().as_secs_f64() / batch as f64);
    }

    rates.sort_by(|a, b| a.total_cmp(b));
    let median = rates[rates.len() / 2];
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    Stats {
        median,
        min: rates[0],
        mean,
        samples: rates.len(),
    }
}

/// Fixed-count per-call *latency* measurement: `warmup` untimed calls,
/// then `samples` individually timed calls, each one its own sample.
///
/// The batched harness above reports throughput-style rates and hides
/// per-call dispatch costs inside a tight loop; this entry point is for
/// spawn/dispatch-sensitive latency work (the `overhead_gate` binary), where
/// the cost of *one* call — thread hand-off included — is the quantity
/// under test. The median is robust to a descheduled sample.
pub fn measure_latency<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> Stats {
    for _ in 0..warmup {
        f();
    }
    let samples = samples.max(1);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    Stats {
        median,
        min: times[0],
        mean,
        samples: times.len(),
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:>8.3} s ")
    } else if seconds >= 1e-3 {
        format!("{:>8.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:>8.3} µs", seconds * 1e6)
    } else {
        format!("{:>8.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_sane_for_a_known_workload() {
        let opts = Options {
            warmup: Duration::from_millis(5),
            measure: Duration::from_millis(30),
            samples: 5,
        };
        let mut acc = 0u64;
        let stats = run_one(opts, || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
        });
        black_box(acc);
        assert!(stats.samples >= 2);
        assert!(stats.min > 0.0);
        assert!(stats.min <= stats.median);
        assert!(stats.median.is_finite() && stats.mean.is_finite());
    }

    #[test]
    fn time_formatting_picks_the_right_unit() {
        assert!(fmt_time(2.5).contains("s"));
        assert!(fmt_time(2.5e-3).contains("ms"));
        assert!(fmt_time(2.5e-6).contains("µs"));
        assert!(fmt_time(2.5e-9).contains("ns"));
    }
}
