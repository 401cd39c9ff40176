//! The benchmark's statistics: medians, nearest-rank percentiles, the
//! quiet-decile protocol every timing goes through, and the quartile
//! spread `ledger compare` applies.
//!
//! **Quiet decile.** On a shared host, interference only ever slows a
//! sample, and it comes in bursts that can cover most of a run. What the
//! program itself causes shows in every sample; what the host causes does
//! not. So a time is reported as the lowest decile of its samples (nearest
//! rank) and a rate as the highest: it needs only a tenth of the run to be
//! undisturbed, and with twenty samples or more it is not the one luckiest.
//! (Measured on forty `gemm_large` runs across busy and quiet periods of
//! the reference host: same-code spread of the pass time 16 % by the
//! median, 7 % by the lower quartile, 4 % by the lowest decile.)

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`: the smallest value
/// with at least `q·n` values at or below it. With fewer than `1/(1-q)`
/// samples this is the maximum.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Splits `samples` (in measurement order) into `blocks` contiguous blocks
/// of near-equal size; fewer samples than blocks gives one block each.
pub fn blocks(samples: &[f64], blocks: usize) -> Vec<&[f64]> {
    let n = samples.len();
    let b = blocks.clamp(1, n.max(1));
    (0..b)
        .map(|i| &samples[i * n / b..(i + 1) * n / b])
        .filter(|s| !s.is_empty())
        .collect()
}

/// The share of a run that has to be undisturbed (see the module docs).
const QUIET_SHARE: f64 = 0.1;

/// The quiet decile of time-like samples: their nearest-rank lowest
/// decile (see the module docs).
pub fn quiet(samples: &[f64]) -> f64 {
    percentile(samples, QUIET_SHARE)
}

/// The quiet decile of rate-like samples: their nearest-rank highest
/// decile.
pub fn quiet_rate(samples: &[f64]) -> f64 {
    percentile(samples, 1.0 - QUIET_SHARE)
}

/// Windows a run is cut into for its tail figure: ten time windows of a
/// closed-loop period, or up to ten contiguous blocks of passes.
pub const TAIL_WINDOWS: usize = 10;

/// The slow quarter of `values` with its slowest twentieth left out: the
/// mean of the values ranked from `ceil(0.75·n)` to `floor(0.95·n)`, both
/// included. A mean over a rank range moves smoothly when a slow mode
/// gains or loses a few per cent of the samples, where a single percentile
/// that sits between two modes jumps from one to the other; leaving out
/// the top twentieth keeps the host's longest stalls out of it. With a
/// handful of values this is one value near the slow end (the 3rd of 4,
/// the only one of 1).
pub fn slow_quarter(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let first = ((0.75 * n).ceil() as usize).clamp(1, v.len());
    let last = ((0.95 * n).floor() as usize).clamp(first, v.len());
    mean(&v[first - 1..last])
}

/// The tail companion of [`quiet`] for timed passes: the [`slow_quarter`]
/// of each of up to [`TAIL_WINDOWS`] contiguous blocks of passes, then the
/// quiet decile over blocks — the same figure [`window_summary`] reports
/// for a closed loop. With fewer passes than blocks every block is one
/// pass and the tail is [`quiet`] itself.
pub fn quiet_tail(samples: &[f64]) -> f64 {
    let tails: Vec<f64> = blocks(samples, TAIL_WINDOWS)
        .into_iter()
        .map(slow_quarter)
        .collect();
    quiet(&tails)
}

/// One closed-loop sample: completion time since the window opened, and
/// the operation's latency, both in seconds. Single precision on purpose:
/// a run keeps hundreds of thousands of them, and the process's peak
/// memory is itself a reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Completion time, seconds since the timed period opened.
    pub at: f32,
    /// Latency of the operation, seconds.
    pub latency: f32,
    /// Operations the sample stands for (1 request, or one 256-call pass).
    pub ops: f32,
}

/// Quiet-decile summary of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Highest decile over windows of operations completed per second.
    pub ops_per_s: f64,
    /// Lowest decile over windows of the window's median latency, seconds.
    pub p50: f64,
    /// Lowest decile over windows of the window's [`slow_quarter`], seconds.
    pub tail: f64,
    /// Windows that held at least one sample.
    pub windows: usize,
}

/// The closed-loop protocol: cut the timed period `[0, period)` into
/// `windows` equal windows, compute each window's rate and percentiles, and
/// report the quiet decile over windows (nearest rank: the best of ten).
/// Host noise only ever slows a window, so what the program causes shows in
/// every window, and stalled windows move nothing.
pub fn window_summary(samples: &[Timed], period: f64, windows: usize) -> WindowSummary {
    let w = windows.max(1);
    let len = period / w as f64;
    let mut buckets: Vec<Vec<&Timed>> = vec![Vec::new(); w];
    for s in samples {
        let i = ((f64::from(s.at) / len) as usize).min(w - 1);
        buckets[i].push(s);
    }
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for b in buckets.iter().filter(|b| !b.is_empty()) {
        let lat: Vec<f64> = b.iter().map(|s| f64::from(s.latency)).collect();
        rates.push(b.iter().map(|s| f64::from(s.ops)).sum::<f64>() / len);
        p50s.push(median(&lat));
        tails.push(slow_quarter(&lat));
    }
    WindowSummary {
        ops_per_s: quiet_rate(&rates),
        p50: quiet(&p50s),
        tail: quiet(&tails),
        windows: rates.len(),
    }
}

/// Quartiles `(q1, q2, q3)` by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// that accepts the benchmark computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| -> f64 {
        // position i·(n+1)/4 on a 1-based scale, clamped to the data
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// a bound is compared against. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of strictly positive values; 0 if any is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_on_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // fewer than 100 samples: p99 is the maximum
        assert_eq!(percentile(&[5.0, 9.0, 1.0], 0.99), 9.0);
    }

    #[test]
    fn quiet_decile_needs_a_tenth_of_the_run_undisturbed() {
        // twenty passes, eighteen of them disturbed: the 2nd smallest is clean
        let mut s = vec![9.0; 18];
        s.extend([1.1, 1.0]);
        assert_eq!(quiet(&s), 1.1);
        // a lone fast outlier among twenty does not win
        let mut s = vec![5.0; 19];
        s.push(0.1);
        assert_eq!(quiet(&s), 5.0);
        // rates: the 18th smallest of twenty
        let r: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_rate(&r), 18.0);
        // the slow quarter: ranks 15..=19 of 1..=20, rank 3 of 4, the lone value
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(slow_quarter(&v), 17.0);
        assert_eq!(slow_quarter(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(slow_quarter(&[7.0]), 7.0);
        assert_eq!(slow_quarter(&[]), 0.0);
        // a slow mode that grows from 6 % to 10 % of the samples moves it
        // by a few per cent, where the p90 would jump from 1 to 2
        let modes = |slow: usize| -> Vec<f64> {
            (0..100).map(|i| if i < slow { 2.0 } else { 1.0 }).collect()
        };
        assert!((slow_quarter(&modes(6)) - 22.0 / 21.0).abs() < 1e-12);
        assert!((slow_quarter(&modes(10)) - 26.0 / 21.0).abs() < 1e-12);
        // forty passes -> ten blocks of four, each 0.5, 0.5, b, 50: the slow
        // quarter of a block is its 3rd value b, or 50 once b is disturbed
        let mut s = Vec::new();
        for b in 1..=10u32 {
            let third = if b > 5 { 50.0 } else { f64::from(b) };
            s.extend([0.5, third, 50.0, 0.5]);
        }
        assert_eq!(quiet_tail(&s), 1.0);
        assert!(quiet_tail(&s) >= quiet(&s));
        // fewer passes than blocks: every block is one pass, so the tail is
        // the quiet decile itself
        assert_eq!(
            quiet_tail(&[1.0, 4.0, 3.0, 5.0, 6.0]),
            quiet(&[1.0, 4.0, 3.0, 5.0, 6.0])
        );
        assert_eq!(quiet_tail(&[4.0, 3.0]), 3.0);
        assert_eq!(
            blocks(&[1.0; 10], 3).iter().map(|b| b.len()).sum::<usize>(),
            10
        );
    }

    #[test]
    fn windows_report_the_quiet_decile() {
        // ten 1-s windows; window i (1-based) completes i ops, each of
        // latency i ms, except one stalled op of 500 ms in every window
        // past the fifth
        let mut s = Vec::new();
        for w in 1..=10u32 {
            for k in 0..w {
                s.push(Timed {
                    at: (w - 1) as f32 + 0.05 * (k + 1) as f32,
                    latency: w as f32 * 1e-3,
                    ops: 1.0,
                });
            }
            if w > 5 {
                s.last_mut().expect("pushed above").latency = 0.5;
            }
        }
        let w = window_summary(&s, 10.0, 10);
        assert_eq!(w.windows, 10);
        // rates 1..=10 per second: the highest decile is the 9th smallest
        assert_eq!(w.ops_per_s, 9.0);
        // window medians 1..=10 ms: the lowest decile is the smallest
        assert!((w.p50 - 0.001).abs() < 1e-9);
        // a window's samples are all equal but the stalled one, which is
        // the slowest and so left out of the slow quarter from w = 6 on
        // (rank 5 of 6, ranks 8..=9 of 10): the tails are 1..=10 ms
        assert!((w.tail - 0.001).abs() < 1e-9);
        // stall every op of the quietest window: the next one is reported
        for t in s.iter_mut().filter(|t| t.at < 1.0) {
            t.latency = 0.5;
        }
        assert!((window_summary(&s, 10.0, 10).p50 - 0.002).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q2, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q2, q3), (10.0, 20.0, 40.0));
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
