//! A sharded LRU cache for threshold sweeps.
//!
//! A `/threshold` miss runs a full sweep — up to 4096 sizes × four timing
//! models — so repeated queries for the same (system, problem, precision,
//! sweep config) must hit memory instead. The cache is sharded by an
//! FNV-1a hash of the key so concurrent workers rarely contend on the same
//! mutex, and each shard evicts its least-recently-used entry on overflow.
//! Hits, misses, and evictions are counted for `/metrics`.
//!
//! Values are handed out as `Arc<V>` so a hit never copies the payload.
//! Two workers missing the same key concurrently may both compute it; the
//! second insert simply replaces the first — acceptable for an idempotent,
//! deterministic computation, and it keeps the fast path lock-short.

use blob_core::rng::fnv1a64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A point-in-time view of the cache counters, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    /// Monotonic per-shard recency clock.
    tick: u64,
    capacity: usize,
}

impl<V> Shard<V> {
    fn touch(&mut self, key: &str) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.value)
        })
    }

    fn insert(&mut self, key: String, value: Arc<V>) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let mut evicted = false;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Evict the least-recently-used entry. A linear scan is fine:
            // shards are small (capacity / shard count) and eviction only
            // happens on overflow.
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                evicted = true;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        evicted
    }
}

/// The sharded LRU cache.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

/// The shard hash of a key: [`fnv1a64`] of its bytes.
fn fnv1a(key: &str) -> u64 {
    fnv1a64(key.as_bytes())
}

impl<V> ShardedCache<V> {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both floored at 1; per-shard capacity is the ceiling division so
    /// the total is never below `capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let per_shard = capacity.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: per_shard * shards,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[(fnv1a(key) as usize) % self.shards.len()]
    }

    fn lock(m: &Mutex<Shard<V>>) -> std::sync::MutexGuard<'_, Shard<V>> {
        // A poisoned shard only means another worker died mid-insert; the
        // map itself is still structurally sound, so keep serving.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let found = Self::lock(self.shard(key)).touch(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or replaces) `key`, evicting the shard's LRU entry when
    /// full. Returns the shared handle to the inserted value.
    pub fn insert(&self, key: String, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let evicted = Self::lock(self.shard(&key)).insert(key, Arc::clone(&value));
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| Self::lock(s).map.len()).sum(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_counters() {
        let c: ShardedCache<String> = ShardedCache::new(8, 2);
        assert!(c.get("k").is_none());
        c.insert("k".to_string(), "v".to_string());
        assert_eq!(c.get("k").as_deref(), Some(&"v".to_string()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // Single shard so eviction order is fully deterministic.
        let c: ShardedCache<u32> = ShardedCache::new(2, 1);
        c.insert("a".to_string(), 1);
        c.insert("b".to_string(), 2);
        assert!(c.get("a").is_some()); // refresh a → b is now LRU
        c.insert("c".to_string(), 3); // evicts b
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let c: ShardedCache<u32> = ShardedCache::new(1, 1);
        c.insert("a".to_string(), 1);
        c.insert("a".to_string(), 2);
        assert_eq!(c.get("a").as_deref(), Some(&2));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn shards_split_capacity() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 4);
        assert_eq!(c.stats().capacity, 8);
        // capacity 10 over 4 shards rounds up to 3 each
        let c: ShardedCache<u32> = ShardedCache::new(10, 4);
        assert_eq!(c.stats().capacity, 12);
        // degenerate arguments are floored, not panicked on
        let c: ShardedCache<u32> = ShardedCache::new(0, 0);
        assert_eq!(c.stats().capacity, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = Arc::new(ShardedCache::<usize>::new(64, 8));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let key = format!("k{}", (t * 7 + i) % 32);
                    if c.get(&key).is_none() {
                        c.insert(key, i);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert!(s.entries <= 64);
    }

    #[test]
    fn fnv_spreads_keys() {
        let h1 = fnv1a("dawn|gemm_square|f32");
        let h2 = fnv1a("dawn|gemm_square|f64");
        assert_ne!(h1, h2);
    }
}
