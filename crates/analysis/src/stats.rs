//! Summary statistics for repeated measurements and threshold stability.
//!
//! The artifact averages every run-time over three runs (Table I's
//! caption); real measurement pipelines need the usual summaries plus a
//! robustness question this module answers directly: *how stable is a
//! detected offload threshold under measurement noise?*

/// Summary of a sample of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (midpoint of the two central values for even `n`).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample standard deviation (n−1 denominator); 0 for n < 2.
    pub stddev: f64,
}

impl Summary {
    /// Coefficient of variation (stddev / mean); 0 for a zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::MIN_POSITIVE {
            0.0
        } else {
            self.stddev / self.mean.abs()
        }
    }
}

/// Summarises a non-empty sample. Returns `None` on empty input or any
/// non-finite value.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    let stddev = if n < 2 {
        0.0
    } else {
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    };
    Some(Summary {
        n,
        mean,
        median,
        min: sorted[0],
        max: sorted[n - 1],
        stddev,
    })
}

/// Stability of an offload threshold across noisy re-runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdStability {
    /// Thresholds observed per seed (`None` = not produced).
    pub observed: Vec<Option<usize>>,
    /// How many runs produced a threshold at all.
    pub produced: usize,
    /// Summary over the produced values.
    pub summary: Option<Summary>,
}

impl ThresholdStability {
    /// Builds stability statistics from per-seed threshold observations.
    pub fn from_observations(observed: Vec<Option<usize>>) -> Self {
        let values: Vec<f64> = observed.iter().flatten().map(|&v| v as f64).collect();
        Self {
            produced: values.len(),
            summary: summarize(&values),
            observed,
        }
    }

    /// True when every run agrees on producing (or not producing) a
    /// threshold and the spread of produced values is within `rel_spread`
    /// of the median.
    pub fn stable(&self, rel_spread: f64) -> bool {
        if self.produced != 0 && self.produced != self.observed.len() {
            return false; // some runs produced a threshold, some did not
        }
        match &self.summary {
            None => true, // consistently no threshold
            Some(s) => (s.max - s.min) <= rel_spread * s.median.max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - 1.2909944487).abs() < 1e-9);
        assert!((s.cv() - s.stddev / 2.5).abs() < 1e-12);
    }

    #[test]
    fn odd_median_and_single_value() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        let one = summarize(&[7.0]).unwrap();
        assert_eq!(one.median, 7.0);
        assert_eq!(one.stddev, 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(summarize(&[]).is_none());
        assert!(summarize(&[1.0, f64::NAN]).is_none());
        assert!(summarize(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn stability_consistent_values() {
        let st = ThresholdStability::from_observations(vec![Some(629), Some(631), Some(628)]);
        assert_eq!(st.produced, 3);
        assert!(st.stable(0.05));
        assert!(!st.stable(0.001));
    }

    #[test]
    fn stability_mixed_presence_is_unstable() {
        let st = ThresholdStability::from_observations(vec![Some(100), None, Some(101)]);
        assert!(!st.stable(1.0));
    }

    #[test]
    fn stability_consistent_absence_is_stable() {
        let st = ThresholdStability::from_observations(vec![None, None, None]);
        assert_eq!(st.produced, 0);
        assert!(st.stable(0.0));
    }

    #[test]
    fn threshold_stability_against_the_real_detector() {
        // the end-to-end use: noisy re-runs of a sweep, one seed each
        use blob_core::problem::{GemmProblem, Problem};
        use blob_core::runner::{run_sweep, SweepConfig};
        use blob_sim::{presets, Offload, Precision};
        let observed: Vec<Option<usize>> = (0..5u64)
            .map(|seed| {
                let sys = presets::isambard_ai().with_noise(seed, 0.04);
                let sweep = run_sweep(
                    &sys,
                    Problem::Gemm(GemmProblem::Square),
                    Precision::F32,
                    &SweepConfig::new(1, 256, 32),
                );
                sweep
                    .threshold_record(Offload::TransferOnce)
                    .map(|r| r.param)
            })
            .collect();
        let st = ThresholdStability::from_observations(observed);
        assert_eq!(st.produced, 5, "±2% noise must not delete the threshold");
        assert!(
            st.stable(1.0),
            "threshold spread under noise stays within ~2x: {:?}",
            st.observed
        );
    }
}
