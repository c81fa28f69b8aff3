//! The content-addressed result cache behind `f2 serve`.
//!
//! Experiment runs are pure functions of `(experiment, scenario)` — the
//! executor guarantees bit-identical reports at any thread count, and
//! every draw of randomness is derived from the scenario's seed — so a
//! completed response body can be replayed verbatim for any later request
//! with the same key, including fully parameterized scenarios. The cache
//! shards its map [`SHARDS`]-ways by a deterministic FNV-1a hash of the
//! key (built on [`crate::scenario::Scenario::content_hash`]), so
//! concurrent lookups from the connection handlers and the batch
//! dispatcher contend on different mutexes instead of one global lock.
//!
//! Every lookup bumps a hit or miss counter (per shard, aggregated on
//! read) and mirrors the event into the [`crate::trace`] metrics stream
//! as `serve.cache.hit` / `serve.cache.miss` counters — zero-cost when no
//! trace session is live.

use crate::scenario::Scenario;
use crate::trace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default shard count of the server's cache.
pub const SHARDS: usize = 16;

/// The identity of one experiment run: everything that influences the
/// response body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the experiment.
    pub experiment: String,
    /// The complete run configuration (seed, fidelity, params).
    pub scenario: Scenario,
}

impl CacheKey {
    /// Deterministic FNV-1a hash over all fields — the shard selector.
    /// Built on the scenario's stable content hash (same FNV-1a family)
    /// instead of [`std::hash::DefaultHasher`] so shard assignment is
    /// stable across processes and runs.
    pub fn fnv1a(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.experiment.len() + 9);
        bytes.extend_from_slice(self.experiment.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&self.scenario.content_hash().to_le_bytes());
        crate::rng::fnv1a(&bytes)
    }
}

struct Shard<V> {
    map: Mutex<HashMap<CacheKey, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A mutex-striped, content-addressed map from [`CacheKey`] to a cached
/// value (the server stores the encoded response body).
pub struct ShardedCache<V> {
    shards: Vec<Shard<V>>,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache striped across `shards` mutexes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one cache shard");
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    map: Mutex::new(HashMap::new()),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &CacheKey) -> &Shard<V> {
        &self.shards[(key.fnv1a() % self.shards.len() as u64) as usize]
    }

    /// Looks the key up, counting the outcome (shard counters plus the
    /// `serve.cache.hit`/`serve.cache.miss` trace counters).
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let shard = self.shard(key);
        let found = shard
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        match &found {
            Some(_) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                trace::counter("serve.cache.hit", 1);
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                trace::counter("serve.cache.miss", 1);
            }
        }
        found
    }

    /// Inserts the value unless the key is already present (first write
    /// wins — values are content-addressed, so a concurrent recompute
    /// must have produced an identical value). Returns whether the value
    /// was newly inserted. Not counted as a lookup.
    pub fn insert(&self, key: CacheKey, value: V) -> bool {
        let shard = self.shard(&key);
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Counted lookup, then on a miss computes the value *outside* the
    /// shard lock and inserts it (first write wins). Returns the stored
    /// value and whether the lookup hit.
    pub fn get_or_compute(&self, key: &CacheKey, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.get(key) {
            return (v, true);
        }
        let value = compute();
        let shard = self.shard(key);
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        let stored = map.entry(key.clone()).or_insert(value);
        (stored.clone(), false)
    }

    /// Total cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total counted lookups that hit, across all shards.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total counted lookups that missed, across all shards.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Fraction of counted lookups that hit (`0.0` before any lookup) —
    /// the `cache.hit_rate` member of the v2 metrics document.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Pool;
    use crate::scenario::Fidelity;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn key(experiment: &str, seed: u64) -> CacheKey {
        CacheKey {
            experiment: experiment.to_string(),
            scenario: Scenario::new(seed, Fidelity::Quick),
        }
    }

    /// A deterministic stand-in for an encoded report body.
    fn body_for(k: &CacheKey) -> Vec<u8> {
        format!(
            "{}/{}:{:016x}",
            k.experiment,
            k.scenario.encode_canonical(),
            k.fnv1a()
        )
        .into_bytes()
    }

    #[test]
    fn get_insert_and_counters() {
        let cache: ShardedCache<Arc<Vec<u8>>> = ShardedCache::new(4);
        assert_eq!(cache.hit_rate(), 0.0, "no lookups yet");
        let k = key("demo", 7);
        assert!(cache.get(&k).is_none());
        assert!(cache.insert(k.clone(), Arc::new(b"v1".to_vec())));
        // First write wins: a duplicate insert is a no-op.
        assert!(!cache.insert(k.clone(), Arc::new(b"v2".to_vec())));
        assert_eq!(cache.get(&k).expect("cached").as_slice(), b"v1");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12, "1 hit of 2 lookups");
    }

    #[test]
    fn distinct_key_fields_are_distinct_entries() {
        use crate::scenario::ParamValue;
        let cache: ShardedCache<u32> = ShardedCache::new(4);
        let base = key("demo", 1);
        let quick_off = CacheKey {
            experiment: "demo".to_string(),
            scenario: Scenario::new(1, Fidelity::Full),
        };
        let with_param = CacheKey {
            experiment: "demo".to_string(),
            scenario: base.scenario.clone().with_param("n", ParamValue::Num(64.0)),
        };
        cache.insert(base.clone(), 1);
        cache.insert(quick_off.clone(), 2);
        cache.insert(with_param.clone(), 3);
        cache.insert(key("demo", 2), 4);
        cache.insert(key("other", 1), 5);
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.get(&base), Some(1));
        assert_eq!(cache.get(&quick_off), Some(2));
        assert_eq!(cache.get(&with_param), Some(3));
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedCache<u64> = ShardedCache::new(8);
        let mut used = std::collections::HashSet::new();
        for i in 0..64 {
            let k = key(&format!("exp{i}"), i);
            used.insert((k.fnv1a() % 8) as usize);
            cache.insert(k, i);
        }
        assert!(
            used.len() >= 4,
            "FNV should spread 64 keys over most of 8 shards, got {}",
            used.len()
        );
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: shard assignment must never change silently
        // between runs or builds (it is observable in the metrics).
        let k = key("fig1_landscape", 0);
        assert_eq!(k.fnv1a(), key("fig1_landscape", 0).fnv1a());
        assert_ne!(k.fnv1a(), key("fig1_landscape", 1).fnv1a());
    }

    /// The ISSUE's cache acceptance test: parallel Pool-driven hammering
    /// of identical and distinct keys yields bit-identical cached vs
    /// freshly-computed values, and the hit/miss totals add up to exactly
    /// the number of counted lookups.
    #[test]
    fn parallel_hammer_is_bit_identical_and_counts_add_up() {
        const LOOKUPS: usize = 512;
        const DISTINCT: usize = 48;
        let cache: Arc<ShardedCache<Arc<Vec<u8>>>> = Arc::new(ShardedCache::new(8));
        let computed = AtomicU64::new(0);
        let pool = Pool::new(8);
        let lookups: Vec<usize> = (0..LOOKUPS).collect();
        pool.for_each(&lookups, |&i| {
            // 48 distinct keys, each hammered ~10x concurrently.
            let k = key(&format!("exp{}", i % 12), (i % DISTINCT / 12) as u64);
            let (v, _hit) = cache.get_or_compute(&k, || {
                computed.fetch_add(1, Ordering::Relaxed);
                Arc::new(body_for(&k))
            });
            // Bit-identical regardless of whether this lookup computed,
            // raced another compute, or hit the cache.
            assert_eq!(*v, body_for(&k));
        });
        assert_eq!(cache.len(), DISTINCT);
        assert_eq!(
            cache.hits() + cache.misses(),
            LOOKUPS as u64,
            "every counted lookup is exactly one hit or one miss"
        );
        assert!(
            cache.misses() >= DISTINCT as u64,
            "each key misses at least once"
        );
        // Racing computes may each run (first insert wins), but the cache
        // can never have served more distinct values than computes.
        assert!(computed.load(Ordering::Relaxed) >= DISTINCT as u64);
        // A second full pass over every key is 100% hits.
        let before_hits = cache.hits();
        pool.for_each(&lookups, |&i| {
            let k = key(&format!("exp{}", i % 12), (i % DISTINCT / 12) as u64);
            let (v, hit) = cache.get_or_compute(&k, || unreachable!("must be cached"));
            assert!(hit);
            assert_eq!(*v, body_for(&k));
        });
        assert_eq!(cache.hits(), before_hits + LOOKUPS as u64);
    }

    #[test]
    fn trace_counters_mirror_lookups() {
        let session = crate::trace::session();
        let cache: ShardedCache<u8> = ShardedCache::new(2);
        let k = key("demo", 3);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), 1);
        assert_eq!(cache.get(&k), Some(1));
        assert_eq!(cache.get(&k), Some(1));
        let report = session.finish();
        assert_eq!(report.counter("serve.cache.hit"), 2);
        assert_eq!(report.counter("serve.cache.miss"), 1);
    }

    #[test]
    #[should_panic(expected = "at least one cache shard")]
    fn zero_shards_rejected() {
        let _ = ShardedCache::<u8>::new(0);
    }
}
