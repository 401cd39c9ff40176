//! Deterministic pseudo-random number generation for the whole workspace.
//!
//! The container this project builds in has no network access, so external
//! crates like `rand` are off the table.  Everything that needs randomness —
//! checksum validation inputs, property tests, the thread-pool stress
//! harness — goes through this xorshift64* generator instead.  It is fast,
//! has a full 2^64-1 period, and (critically for reproducing failures) is
//! seeded explicitly everywhere it is used.

/// The SplitMix64 increment (2^64 / φ): consecutive multiples of it are
/// well spread before [`splitmix64`] mixes them.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finaliser: a bijective mix that decorrelates
/// consecutive inputs (seeds, counters, clock readings).
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash of a byte string: the workspace's one
/// no-dependency checksum and key hash. Guards against truncation and
/// spreads short keys; it is not a defence against adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic xorshift64* PRNG.
///
/// Not cryptographically secure; intended for test data, validation inputs
/// and schedule perturbation only.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator from a seed.
    ///
    /// The raw seed is first run through a SplitMix64 scramble so that
    /// small consecutive seeds (0, 1, 2, …) produce uncorrelated streams,
    /// and the all-zero state (which would be a fixed point of xorshift)
    /// can never occur.
    pub fn new(seed: u64) -> Self {
        Self {
            state: splitmix64(seed.wrapping_add(GOLDEN_GAMMA)) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits / 2^53.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `usize` in `[lo, hi)`.  `hi` must be greater than `lo`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(hi > lo, "range_usize requires hi > lo");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as usize
    }

    /// Fair coin flip.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fork an independent generator (e.g. one per test case) without
    /// correlating it with the parent stream.
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix64_is_the_reference_finaliser() {
        // SplitMix64's first outputs from state 0 (Vigna's reference code)
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            splitmix64(GOLDEN_GAMMA.wrapping_mul(2)),
            0x6E78_9E6A_A1B9_65F4
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(0);
        let mut b = XorShift64::new(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "consecutive seeds must not correlate");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = XorShift64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn range_usize_bounds() {
        let mut rng = XorShift64::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1_000 {
            let x = rng.range_usize(3, 8);
            assert!((3..8).contains(&x));
            seen_lo |= x == 3;
            seen_hi |= x == 7;
        }
        assert!(seen_lo && seen_hi, "both endpoints should be reachable");
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut rng = XorShift64::new(1234);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).sum();
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
    }
}
