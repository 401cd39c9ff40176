//! The one timing primitive the `overhead_gate` binary needs: fixed-count
//! per-call latency with a median robust to a descheduled sample.
//!
//! Throughput and per-layer numbers are measured by the ledger
//! (`ledger/`, `BENCHMARK.json`), not by a harness here.

pub use std::hint::black_box;
use std::time::Instant;

/// Per-call timing summary, all in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median per-call seconds.
    pub median: f64,
    /// Fastest call's seconds.
    pub min: f64,
    /// Mean per-call seconds.
    pub mean: f64,
    /// Calls timed.
    pub samples: usize,
}

/// Fixed-count per-call *latency* measurement: `warmup` untimed calls,
/// then `samples` individually timed calls, each one its own sample.
///
/// The cost of *one* call — thread hand-off included — is the quantity
/// under test, so nothing is batched. The median is robust to a
/// descheduled sample.
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
