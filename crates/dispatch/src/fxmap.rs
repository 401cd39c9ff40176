//! A fast, non-cryptographic hasher for the dispatcher's hot maps.
//!
//! The decide/complete round trip is gated (`overhead_gate`) at < 1% of
//! one `gemm_par4_64` call, and with the default SipHash the five-or-so
//! map operations per round trip are most of that budget. The keys here
//! are small integers and tiny structs the dispatcher itself constructs
//! — never attacker-controlled strings — so a multiply-rotate hash in
//! the FxHash family is safe and an order of magnitude cheaper per
//! operation. Hand-rolled because the workspace is deliberately
//! dependency-free.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` specialised to [`FxHasher`]; drop-in for the dispatcher's
/// internal tables.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Multiplier from the golden-ratio family; spreads consecutive small
/// integers (call-site ids, bucket fields) across the high bits that
/// `HashMap` masks down to a bucket index.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A word-at-a-time multiply-rotate hasher. Not cryptographic and not
/// DoS-resistant — the dispatcher's keys never cross a trust boundary.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(parts: &[u64]) -> u64 {
        let mut h = FxHasher::default();
        for &p in parts {
            h.write_u64(p);
        }
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_order_matters() {
        assert_eq!(hash_of(&[1, 2, 3]), hash_of(&[1, 2, 3]));
        assert_ne!(hash_of(&[1, 2, 3]), hash_of(&[3, 2, 1]));
    }

    #[test]
    fn consecutive_small_keys_spread() {
        // The map masks the *low* bits of `finish()` down to a bucket
        // index; consecutive site ids must not collide there.
        let low = |v: u64| hash_of(&[v]) & 0xFF;
        let distinct: std::collections::HashSet<u64> = (0..64).map(low).collect();
        assert!(
            distinct.len() > 48,
            "only {} distinct buckets",
            distinct.len()
        );
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: FxHashMap<(u32, u32), &str> = FxHashMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m.get(&(1, 2)), Some(&"a"));
        assert_eq!(m.get(&(2, 1)), Some(&"b"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"dispatch");
        let mut b = FxHasher::default();
        b.write(b"dispatch");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"dispatcH");
        assert_ne!(a.finish(), c.finish());
    }
}
