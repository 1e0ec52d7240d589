//! One bounded memo table for every cache in the workspace.
//!
//! [`BoundedCache`] is a sharded map with least-recently-used eviction
//! and built-in traffic counters ([`CacheStats`]). The dense
//! closed-loop solves of `htmpll-core`'s `SweepCache`, the response
//! tails of `plltool serve` and the FFT twiddle plans of
//! `htmpll-spectral` all sit on it. Each memoizes a pure,
//! bit-reproducible function, so eviction only decides *which* values
//! are recomputed, never what they are. The `cache.evict` fault site
//! leans on that: an eviction storm empties a whole shard, and no
//! returned value may move.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A point-in-time view of a [`BoundedCache`]'s traffic and occupancy.
/// The counters are plain atomics on the cache itself, so they read the
/// same whether or not the obs layer collects metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted since construction (capacity and fault storms).
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// Most shards a cache is split into: keys spread by hash, so a handful
/// of locks is enough to decongest any realistic worker count.
const MAX_SHARDS: usize = 16;

/// Fewest entries a shard holds once a cache is split, so a small cache
/// is not cut into shards too small to keep its working set.
const MIN_SHARD_CAP: usize = 8;

/// One independently locked LRU slice. Recency is a monotone tick
/// stamped on every touch; a full shard drops its oldest ~12% (at least
/// one entry) so the sort amortizes across many inserts.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn get(&mut self, k: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(k).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    /// Inserts `v` under `k`; returns how many entries were evicted.
    fn insert(&mut self, k: K, v: V) -> u64 {
        let mut evicted = 0;
        // Fault site `cache.evict`: an eviction storm drops the whole
        // shard. Harmless by construction (see the module docs), so
        // chaos runs use it to stress every recompute path.
        if htmpll_fault::fires("cache.evict", self.tick) && !self.map.is_empty() {
            evicted += self.map.len() as u64;
            self.map.clear();
        }
        if self.map.len() >= self.cap && !self.map.contains_key(&k) {
            let mut stamps: Vec<(u64, K)> = self
                .map
                .iter()
                .map(|(key, (_, tick))| (*tick, key.clone()))
                .collect();
            stamps.sort_unstable_by_key(|(tick, _)| *tick);
            for (_, key) in stamps.into_iter().take((self.cap / 8).max(1)) {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        self.tick += 1;
        self.map.insert(k, (v, self.tick));
        evicted
    }
}

/// A bounded, internally synchronized memo table with per-shard LRU
/// eviction and hit/miss/eviction counters.
///
/// Keys hash to one of up to 16 independently locked shards, so
/// concurrent pool workers contend only when they touch the same
/// shard. Callers compute a missing value outside the lock and
/// [`insert`](BoundedCache::insert) it, so a race costs at most one
/// duplicate evaluation of the same (identical) value.
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Locks a shard, recovering from poisoning: entries are written whole
/// (insert of a fully computed value), so a panicked writer cannot
/// leave a shard torn — the worst case is a missing entry.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<K: Hash + Eq + Clone, V: Clone> BoundedCache<K, V> {
    /// An empty cache holding at most `cap` entries (clamped to at
    /// least 1). The capacity is split over up to 16 shards (a power of
    /// two) of at least 8 entries each, so the aggregate never exceeds
    /// `cap`.
    pub fn new(cap: usize) -> BoundedCache<K, V> {
        let cap = cap.max(1);
        let mut shards = 1usize;
        while shards * 2 <= MAX_SHARDS && cap / (shards * 2) >= MIN_SHARD_CAP {
            shards *= 2;
        }
        let shard = || {
            Mutex::new(Shard {
                map: HashMap::new(),
                tick: 0,
                cap: cap / shards,
            })
        };
        BoundedCache {
            shards: (0..shards).map(|_| shard()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, k: &K) -> &Mutex<Shard<K, V>> {
        // `DefaultHasher::new` uses fixed keys: shard placement (and with
        // it which entries an eviction drops) is the same in every run.
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        &self.shards[h.finish() as usize & (self.shards.len() - 1)]
    }

    /// The value stored under `k`, marking it most recently used.
    /// Counts a hit or a miss.
    pub fn get(&self, k: &K) -> Option<V> {
        let v = lock(self.shard(k)).get(k);
        let counter = if v.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Stores `v` under `k` (replacing any previous value), evicting
    /// least-recently-used entries of a full shard. Returns the number
    /// of entries evicted, so a caller can feed its own metric.
    pub fn insert(&self, k: K, v: V) -> u64 {
        let evicted = lock(self.shard(&k)).insert(k, v);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Snapshot of traffic and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| lock(s).map.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cache_evicts_lru() {
        let cache: BoundedCache<u64, u64> = BoundedCache::new(4);
        for k in 0..12 {
            cache.insert(k, k * k);
        }
        let st = cache.stats();
        assert!(st.entries <= 4, "{st:?}");
        assert_eq!(st.evictions, 8);
        // The survivors are the most recent inserts, with their values.
        for k in 8..12 {
            assert_eq!(cache.get(&k), Some(k * k));
        }
    }

    #[test]
    fn reading_an_entry_refreshes_it() {
        // FIFO would evict key 0 (the oldest insert); LRU evicts key 1,
        // because reading key 0 made it the most recently used.
        let cache: BoundedCache<u64, &str> = BoundedCache::new(2);
        cache.insert(0, "zero");
        cache.insert(1, "one");
        assert_eq!(cache.get(&0), Some("zero"));
        assert_eq!(cache.insert(2, "two"), 1);
        assert_eq!(cache.get(&0), Some("zero"));
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some("two"));
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let cache: BoundedCache<&str, u32> = BoundedCache::new(1);
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.insert("a", 1), 0);
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"a"), Some(1));
        // Replacing a present key evicts nothing.
        assert_eq!(cache.insert("a", 2), 0);
        assert_eq!(cache.insert("b", 3), 1);
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                evictions: 1,
                entries: 1,
            }
        );
    }

    #[test]
    fn sharding_respects_total_capacity() {
        // However the capacity is split across shards, the aggregate
        // never exceeds it.
        for cap in [1usize, 2, 3, 4, 7, 16, 17, 32, 100, 1024] {
            let cache: BoundedCache<u64, u64> = BoundedCache::new(cap);
            for k in 0..(4 * cap as u64 + 40) {
                cache.insert(k, k);
            }
            let st = cache.stats();
            assert!(st.entries <= cap, "cap {cap}: {st:?}");
            assert!(st.entries > 0, "cap {cap}: {st:?}");
        }
    }
}
