//! GPU offload-threshold detection (paper §III-D).
//!
//! The *offload threshold* is the minimum problem size, for a given problem
//! type / iteration count / transfer type, from which the GPU performs
//! better than the CPU **for every larger problem size**. Its semantics:
//!
//! - If the GPU never takes over for good, there is no threshold (printed
//!   as `—` in the paper's tables). Note the paper's caveat: absence of a
//!   threshold does *not* mean the CPU wins everywhere — the GPU may win on
//!   an interior interval (Fig 4).
//! - "To account for any momentary drops in GPU performance that are due to
//!   abnormal system behaviour or noise, the previous and current problem
//!   size's performance is taken into consideration": a CPU win at a single
//!   isolated size does not reset the threshold; a CPU win at two
//!   consecutive sizes does.

/// One swept problem size: CPU time and GPU time for the same work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// Total CPU seconds for the configured iterations.
    pub cpu_seconds: f64,
    /// Total GPU seconds (including transfers) for the same iterations.
    pub gpu_seconds: f64,
}

impl ThresholdPoint {
    /// True when the CPU strictly outperforms the GPU here.
    pub fn cpu_wins(&self) -> bool {
        self.cpu_seconds < self.gpu_seconds
    }
}

/// Finds the offload threshold over an *ascending-size* series.
///
/// Returns the index of the first point from which the GPU wins for all
/// subsequent points, treating isolated single-point CPU wins as noise
/// (two consecutive CPU wins are considered real CPU dominance). Returns
/// `None` when the GPU never durably takes over, or the series is empty.
pub fn offload_threshold_index(points: &[ThresholdPoint]) -> Option<usize> {
    threshold_scan(points.len(), |i| {
        points.get(i).map(ThresholdPoint::cpu_wins)
    })
}

/// Convenience wrapper over parallel CPU/GPU time slices.
pub fn offload_threshold_from_times(cpu: &[f64], gpu: &[f64]) -> Option<usize> {
    assert_eq!(cpu.len(), gpu.len(), "series length mismatch");
    threshold_scan(cpu.len(), |i| {
        let point = ThresholdPoint {
            cpu_seconds: *cpu.get(i)?,
            gpu_seconds: *gpu.get(i)?,
        };
        Some(point.cpu_wins())
    })
}

/// The detector behind every threshold: one forward pass over `len`
/// ascending sizes that reads whether the CPU wins at size `i` from
/// `cpu_wins(i)` and allocates nothing. A `None` from the closure (a size
/// with no GPU measurement) means the series has no threshold.
pub(crate) fn threshold_scan(
    len: usize,
    mut cpu_wins: impl FnMut(usize) -> Option<bool>,
) -> Option<usize> {
    // A CPU win is "real" when it spans two consecutive sizes, or happens
    // at the very first size, where there is no prior context.
    let mut last_real_cpu = None;
    let mut cpu_won_before = true;
    for i in 0..len {
        let cpu_won = cpu_wins(i)?;
        if cpu_won && cpu_won_before {
            last_real_cpu = Some(i);
        }
        cpu_won_before = cpu_won;
    }
    match last_real_cpu {
        // The CPU never durably wins (a win at the first size would count
        // as real, so the GPU wins there): the GPU is better from the
        // start — LUMI's {2,2,2} case. An empty series has no threshold.
        None => (len > 0).then_some(0),
        // The threshold is the next size. The GPU wins there: a CPU win
        // right after a real one would itself be real. Every later CPU win
        // is an isolated dip. A real CPU win at the last size means the
        // CPU wins through the end of the sweep.
        Some(i) => (i + 1 < len).then_some(i + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(pairs: &[(f64, f64)]) -> Vec<ThresholdPoint> {
        pairs
            .iter()
            .map(|&(c, g)| ThresholdPoint {
                cpu_seconds: c,
                gpu_seconds: g,
            })
            .collect()
    }

    #[test]
    fn clean_crossover() {
        // CPU wins for 3 sizes, then GPU forever
        let p = pts(&[(1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (5.0, 4.0), (8.0, 5.0)]);
        assert_eq!(offload_threshold_index(&p), Some(3));
    }

    #[test]
    fn gpu_wins_everywhere() {
        let p = pts(&[(2.0, 1.0), (3.0, 2.0), (4.0, 2.0)]);
        assert_eq!(offload_threshold_index(&p), Some(0));
    }

    #[test]
    fn cpu_wins_everywhere() {
        let p = pts(&[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)]);
        assert_eq!(offload_threshold_index(&p), None);
    }

    #[test]
    fn empty_series() {
        assert_eq!(offload_threshold_index(&[]), None);
    }

    #[test]
    fn single_point_series() {
        assert_eq!(offload_threshold_index(&pts(&[(2.0, 1.0)])), Some(0));
        assert_eq!(offload_threshold_index(&pts(&[(1.0, 2.0)])), None);
    }

    #[test]
    fn isolated_gpu_dip_is_forgiven() {
        // GPU takes over at index 2, dips once at index 4, recovers
        let p = pts(&[
            (1.0, 2.0),
            (2.0, 3.0),
            (4.0, 3.0),
            (5.0, 4.0),
            (5.0, 6.0), // isolated dip
            (7.0, 5.0),
            (9.0, 6.0),
        ]);
        assert_eq!(offload_threshold_index(&p), Some(2));
    }

    #[test]
    fn two_consecutive_cpu_wins_reset_the_threshold() {
        let p = pts(&[
            (1.0, 2.0),
            (3.0, 2.0), // gpu ahead briefly
            (4.0, 5.0), // cpu win #1
            (5.0, 6.0), // cpu win #2 -> real
            (8.0, 6.0),
            (9.0, 7.0),
        ]);
        assert_eq!(offload_threshold_index(&p), Some(4));
    }

    #[test]
    fn trailing_cpu_dominance_means_no_threshold() {
        let p = pts(&[(2.0, 1.0), (3.0, 2.0), (3.0, 4.0), (3.0, 5.0)]);
        assert_eq!(offload_threshold_index(&p), None);
    }

    #[test]
    fn trailing_isolated_dip_is_forgiven() {
        // GPU takes over at index 2; a single CPU win at the very last
        // point is indistinguishable from noise (the paper's detector
        // needs two consecutive sizes to call a CPU win real), so the
        // threshold from the takeover stands.
        let p = pts(&[(1.0, 2.0), (2.0, 3.0), (4.0, 3.0), (4.0, 5.0)]);
        assert_eq!(offload_threshold_index(&p), Some(2));
    }

    #[test]
    fn dip_just_after_takeover_steps_past() {
        let p = pts(&[
            (1.0, 2.0), // cpu
            (2.0, 3.0), // cpu (last real win: idx 1)
            (3.0, 4.0), // isolated?? no: follows a cpu win -> real win idx 2
            (5.0, 4.0),
            (6.0, 4.0),
        ]);
        // indices 0..=2 are all real CPU wins; threshold at 3
        assert_eq!(offload_threshold_index(&p), Some(3));
    }

    #[test]
    fn from_times_wrapper() {
        let cpu = [1.0, 2.0, 5.0];
        let gpu = [2.0, 3.0, 4.0];
        assert_eq!(offload_threshold_from_times(&cpu, &gpu), Some(2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_times_length_mismatch() {
        let _ = offload_threshold_from_times(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn interior_gpu_window_yields_no_threshold() {
        // Fig 4's caveat: GPU wins only on an interior band
        let p = pts(&[
            (1.0, 3.0),
            (2.0, 3.0),
            (5.0, 4.0), // gpu band
            (6.0, 5.0), // gpu band
            (6.0, 7.0), // cpu again
            (6.0, 8.0),
        ]);
        assert_eq!(offload_threshold_index(&p), None);
    }
}
