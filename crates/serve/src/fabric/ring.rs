//! Consistent-hash ring: stable shard placement for route keys.
//!
//! Each shard owns [`VNODES`] points on a 64-bit ring; a key routes to
//! the shard owning the first point at or after its hash, and the
//! *preference list* continues clockwise so failover always has a
//! deterministic next replica. Virtual nodes keep the load split even
//! (a plain modulo would be even too, but it reshuffles *every* key when
//! the shard count changes; the ring moves only `1/n` of the keyspace).
//!
//! The hash is FNV-1a — the same function the rest of the workspace uses
//! for baselines and trace ids — which is plenty for placement: the keys
//! are short `system|op|bucket` strings, not adversarial input.

use blob_core::rng::{fnv1a64, splitmix64};

/// Virtual nodes per shard. 64 points keeps the per-shard keyspace share
/// within a few percent of `1/n` for the shard counts the fabric targets
/// (2–16) while the ring stays small enough to scan linearly.
pub const VNODES: usize = 64;

/// FNV-1a 64-bit hash of a byte string, finished with a SplitMix64-style
/// avalanche. Raw FNV-1a mixes the low bits poorly on short, similar
/// keys (`shard-0-vnode-1` vs `shard-0-vnode-2`), which skews the ring
/// badly; the finalizer spreads every input bit across the whole word.
pub fn hash64(bytes: &[u8]) -> u64 {
    splitmix64(fnv1a64(bytes))
}

/// The shape bucket of a call: `log2` of its largest dimension. Requests
/// for similar problem sizes land on the same shard, so each replica's
/// threshold cache stays hot for its slice of the size spectrum instead
/// of every replica caching everything.
pub fn shape_bucket(dims: &[u64]) -> u32 {
    let largest = dims.iter().copied().max().unwrap_or(0);
    64 - largest.leading_zeros()
}

/// A fixed consistent-hash ring over `shards` replicas.
#[derive(Debug)]
pub struct Ring {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, u32)>,
    shards: u32,
}

impl Ring {
    /// Builds the ring for `shards` replicas (floored at 1).
    pub fn new(shards: u32) -> Ring {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards as usize * VNODES);
        for shard in 0..shards {
            for vnode in 0..VNODES {
                let tag = format!("shard-{shard}-vnode-{vnode}");
                points.push((hash64(tag.as_bytes()), shard));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The full preference list for `key_hash`: every shard exactly once,
    /// in clockwise ring order starting at the owning point. Index 0 is
    /// the primary; the rest is the deterministic failover order.
    pub fn preference(&self, key_hash: u64) -> Vec<u32> {
        let start = self
            .points
            .partition_point(|&(p, _)| p < key_hash)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        let mut seen = vec![false; self.shards as usize];
        let mut order = Vec::with_capacity(self.shards as usize);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard as usize] {
                seen[shard as usize] = true;
                order.push(shard);
                if order.len() == self.shards as usize {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn preference_lists_every_shard_once_deterministically() {
        let ring = Ring::new(5);
        for key in ["dawn|gemm|10", "lumi|gemv|4", "mi300a|gemm|12"] {
            let p = ring.preference(hash64(key.as_bytes()));
            assert_eq!(p.len(), 5, "{key}: {p:?}");
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "{key}: {p:?}");
            // deterministic: the same key always routes the same way
            assert_eq!(p, ring.preference(hash64(key.as_bytes())));
        }
    }

    #[test]
    fn load_splits_roughly_evenly_across_shards() {
        let ring = Ring::new(4);
        let mut per_shard: BTreeMap<u32, usize> = BTreeMap::new();
        for i in 0..4000 {
            let key = format!("dawn|gemm|{i}");
            let primary = ring.preference(hash64(key.as_bytes()))[0];
            *per_shard.entry(primary).or_default() += 1;
        }
        for (&shard, &n) in &per_shard {
            assert!(
                (600..=1400).contains(&n),
                "shard {shard} owns {n} of 4000 keys: {per_shard:?}"
            );
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_to_it() {
        let ring = Ring::new(1);
        assert_eq!(ring.preference(0), vec![0]);
        assert_eq!(ring.preference(u64::MAX), vec![0]);
        // a shard count of 0 floors to 1
        assert_eq!(Ring::new(0).shards(), 1);
    }

    #[test]
    fn wraparound_key_past_the_last_point_routes_to_the_first() {
        let ring = Ring::new(3);
        let last_point = ring.points.last().map(|&(p, _)| p).unwrap();
        if last_point < u64::MAX {
            let wrapped = ring.preference(last_point + 1);
            assert_eq!(wrapped[0], ring.points[0].1);
        }
    }

    #[test]
    fn shape_bucket_is_log2_of_the_largest_dim() {
        assert_eq!(shape_bucket(&[]), 0);
        assert_eq!(shape_bucket(&[1]), 1);
        assert_eq!(shape_bucket(&[255, 256]), 9);
        assert_eq!(shape_bucket(&[4096, 64, 64]), 13);
        // nearby sizes share a bucket → shared cache locality
        assert_eq!(shape_bucket(&[1000]), shape_bucket(&[900]));
    }
}
