//! Search-scoped throughput memoisation with per-job invalidation.
//!
//! One evolution generation evaluates thousands of candidate schedules
//! against the same frozen [`ClusterView`](ones_schedcore::ClusterView),
//! and the candidates overlap heavily: children inherit most of their
//! parents' per-job configurations, and the fill/scale-up search probes
//! the same `(job, placement, batches)` triples over and over. Throughput
//! `X_j` is a pure function of that triple for a fixed view, so the cache
//! turns the repeated model evaluations into hash lookups.
//!
//! The cache is keyed by `(JobId, placement-shape hash, batch hash)` —
//! see [`ones_schedcore::Schedule::job_signature`] — and sharded behind
//! plain mutexes so concurrent scoring under rayon never contends on a
//! single lock.
//!
//! ## Lifetime and invalidation contract
//!
//! Entries are valid as long as the job's model profile and the cluster
//! fabric are unchanged — generations do not invalidate anything, so the
//! cache lives for the whole search and later generations run almost
//! entirely on warm entries. What *does* invalidate a job's entries is the
//! job entering or leaving the view: arrival (id reuse) and completion
//! (reclamation). Epoch ends only update telemetry, which the throughput
//! model does not read (it reads static specs), so they keep the entries;
//! a model that recalibrated profiles online would have to invalidate
//! there too. The scheduler calls
//! [`ThroughputCache::invalidate_job`] on exactly those events; a per-job
//! epoch stamp closes the race where a compute that started before an
//! invalidation would otherwise insert a stale value after it.

use ones_sync::atomic::{AtomicU64, Ordering};
use ones_sync::Mutex;
use ones_workload::JobId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache key: the job plus its configuration signatures in a candidate.
pub type CacheKey = (JobId, u64, u64);

/// FNV-1a hasher for the shard tables. The key components are already
/// FNV-mixed signatures, so a DoS-resistant SipHash buys nothing here and
/// its per-lookup cost is visible in the scoring hot loop.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

type Shard = HashMap<CacheKey, f64, BuildHasherDefault<FnvHasher>>;

/// Per-job bookkeeping for invalidation: the keys currently stored for
/// the job (so invalidation removes exactly them, without scanning every
/// shard) and a monotonically increasing invalidation stamp.
#[derive(Debug, Default)]
struct JobIndex {
    stamp: u64,
    keys: Vec<CacheKey>,
}

type IndexShard = HashMap<JobId, JobIndex, BuildHasherDefault<FnvHasher>>;

/// Number of independently locked shards: 4× the machine's available
/// parallelism, rounded up to a power of two so shard selection is a
/// mask instead of a modulo. The oversubscription keeps the probability
/// of two scorer threads colliding on one shard low without hard-coding
/// a count that is wrong on both 1-core CI boxes and 64-core servers.
fn shard_count() -> usize {
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    threads.saturating_mul(4).next_power_of_two()
}

/// A sharded, thread-safe memo table for per-job throughput evaluations,
/// owned by the search and surviving across generations (see the module
/// docs for the invalidation contract).
///
/// Counters are relaxed atomics — they feed performance diagnostics, not
/// control flow. `hits + misses == lookups` holds exactly: a thread that
/// loses a compute race counts a hit (the table served it) plus one
/// `duplicate_computes`.
#[derive(Debug)]
pub struct ThroughputCache {
    shards: Box<[Mutex<Shard>]>,
    index: Box<[Mutex<IndexShard>]>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    duplicate_computes: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for ThroughputCache {
    fn default() -> Self {
        ThroughputCache::new()
    }
}

impl ThroughputCache {
    /// An empty cache, sharded for this machine's parallelism.
    #[must_use]
    pub fn new() -> Self {
        ThroughputCache::with_shards(shard_count())
    }

    /// An empty cache with an explicit shard count (rounded up to a power
    /// of two). Exposed for tests; production code uses
    /// [`ThroughputCache::new`].
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ThroughputCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            index: (0..n).map(|_| Mutex::new(IndexShard::default())).collect(),
            mask: n - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            duplicate_computes: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // Mix the three components so consecutive job ids spread out.
        let mix = key.0 .0 ^ key.1.rotate_left(17) ^ key.2.rotate_left(41);
        &self.shards[(mix as usize) & self.mask]
    }

    fn index_shard(&self, job: JobId) -> &Mutex<IndexShard> {
        // Spread consecutive job ids across index shards.
        &self.index[(job.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.mask]
    }

    /// The job's current invalidation stamp (0 before the first
    /// [`ThroughputCache::invalidate_job`] call for it).
    #[must_use]
    pub fn job_stamp(&self, job: JobId) -> u64 {
        self.index_shard(job)
            .lock()
            .expect("cache index poisoned")
            .get(&job)
            .map_or(0, |e| e.stamp)
    }

    /// Returns the cached throughput for `key`, computing and storing it
    /// via `compute` on a miss. `compute` runs outside the shard lock, so
    /// an expensive model evaluation never blocks other shard users. Two
    /// threads may race to compute the same key; both get the same pure
    /// result, the insert is idempotent, and only the thread whose insert
    /// lands counts a miss (the loser counts a hit plus one
    /// `duplicate_computes`). A compute that straddles an
    /// [`ThroughputCache::invalidate_job`] call observes a stamp change
    /// and discards its insert, so no pre-invalidation value survives.
    pub fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> f64) -> f64 {
        let shard = self.shard(&key);
        if let Some(&v) = shard.lock().expect("cache shard poisoned").get(&key) {
            // relaxed: diagnostic counter; reads tolerate staleness.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let stamp = self.job_stamp(key.0);
        let v = compute();
        if self.job_stamp(key.0) != stamp {
            // The job was invalidated while we evaluated the model: the
            // value is (potentially) stale, so serve it to this caller
            // but do not publish it.
            // relaxed: diagnostic counter; reads tolerate staleness.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        use std::collections::hash_map::Entry;
        match shard.lock().expect("cache shard poisoned").entry(key) {
            Entry::Occupied(e) => {
                // Lost the race: another thread's insert landed first.
                let v = *e.get();
                // relaxed: diagnostic counters; reads tolerate staleness.
                self.hits.fetch_add(1, Ordering::Relaxed);
                // relaxed: diagnostic counter; reads tolerate staleness.
                self.duplicate_computes.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            Entry::Vacant(e) => {
                e.insert(v);
            }
        }
        // relaxed: diagnostic counter; reads tolerate staleness.
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Record the key for per-job invalidation. If an invalidation
        // slipped in between the insert above and this record, remove the
        // entry again rather than leave it unindexed.
        let mut idx = self
            .index_shard(key.0)
            .lock()
            .expect("cache index poisoned");
        let e = idx.entry(key.0).or_default();
        if e.stamp == stamp {
            e.keys.push(key);
        } else {
            drop(idx);
            shard.lock().expect("cache shard poisoned").remove(&key);
        }
        v
    }

    /// Drops every entry belonging to `job` and bumps its invalidation
    /// stamp. Call on any view change concerning the job — arrival,
    /// completion, epoch-end telemetry update. `O(keys stored for job)`.
    pub fn invalidate_job(&self, job: JobId) {
        let keys = {
            let mut idx = self.index_shard(job).lock().expect("cache index poisoned");
            let e = idx.entry(job).or_default();
            e.stamp += 1;
            std::mem::take(&mut e.keys)
        };
        for key in keys {
            self.shard(&key)
                .lock()
                .expect("cache shard poisoned")
                .remove(&key);
        }
        // relaxed: diagnostic counter; the stamp/key removal above is
        // the synchronised part of invalidation, not this count.
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Lookups answered from the table (including compute races lost to
    /// another thread's insert).
    #[must_use]
    pub fn hits(&self) -> u64 {
        // relaxed: diagnostic read; may lag in-flight updates.
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the model and published (or, for
    /// stamp-raced computes, at least evaluated) a value.
    #[must_use]
    pub fn misses(&self) -> u64 {
        // relaxed: diagnostic read; may lag in-flight updates.
        self.misses.load(Ordering::Relaxed)
    }

    /// Model evaluations whose result was already in the table by the
    /// time they finished — wasted work from compute races, not an
    /// accounting error.
    #[must_use]
    pub fn duplicate_computes(&self) -> u64 {
        // relaxed: diagnostic read; may lag in-flight updates.
        self.duplicate_computes.load(Ordering::Relaxed)
    }

    /// Calls to [`ThroughputCache::invalidate_job`].
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        // relaxed: diagnostic read; may lag in-flight updates.
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Distinct configurations stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_once_per_key() {
        let cache = ThroughputCache::new();
        let mut calls = 0;
        for _ in 0..5 {
            let v = cache.get_or_insert_with((JobId(1), 10, 20), || {
                calls += 1;
                42.5
            });
            assert_eq!(v, 42.5);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.duplicate_computes(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let cache = ThroughputCache::new();
        assert!(cache.is_empty());
        for i in 0..100u64 {
            let v = cache.get_or_insert_with((JobId(i % 3), i, i * 7), || i as f64);
            assert_eq!(v, i as f64);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.misses(), 100);
        assert_eq!(cache.hits(), 0);
        // Re-query every key: all hits, values unchanged.
        for i in 0..100u64 {
            let v = cache.get_or_insert_with((JobId(i % 3), i, i * 7), || f64::NAN);
            assert_eq!(v, i as f64);
        }
        assert_eq!(cache.hits(), 100);
    }

    #[test]
    fn shard_count_is_power_of_two() {
        let cache = ThroughputCache::new();
        assert!(cache.shards().is_power_of_two());
        assert_eq!(ThroughputCache::with_shards(3).shards(), 4);
        assert_eq!(ThroughputCache::with_shards(0).shards(), 1);
        // A single-shard cache still works end to end.
        let one = ThroughputCache::with_shards(1);
        for i in 0..32u64 {
            one.get_or_insert_with((JobId(i), i, i), || i as f64);
        }
        assert_eq!(one.len(), 32);
    }

    #[test]
    fn shared_across_threads() {
        let cache = ThroughputCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let v = cache.get_or_insert_with((JobId(i), i, 0), || i as f64);
                        assert_eq!(v, i as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }

    #[test]
    fn racing_computes_count_one_miss_per_landed_insert() {
        // Many threads hammer the same small key set through a slow
        // compute to force races. The accounting must satisfy, exactly:
        //   hits + misses == lookups
        //   misses == distinct keys   (one insert lands per key)
        // and every duplicated model evaluation shows up in
        // duplicate_computes instead of inflating misses.
        const THREADS: u64 = 8;
        const KEYS: u64 = 4;
        const ROUNDS: u64 = 16;
        let cache = ThroughputCache::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        let k = r % KEYS;
                        let v = cache.get_or_insert_with((JobId(k), k, k), || {
                            std::thread::yield_now();
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            k as f64
                        });
                        assert_eq!(v, k as f64);
                    }
                });
            }
        });
        let lookups = THREADS * ROUNDS;
        assert_eq!(cache.hits() + cache.misses(), lookups);
        assert_eq!(cache.misses(), KEYS);
        assert_eq!(cache.len(), KEYS as usize);
        // duplicate_computes is machine-dependent (can be 0 on one core)
        // but bounded by the number of losing lookups.
        assert!(cache.duplicate_computes() <= lookups - KEYS);
    }

    #[test]
    fn invalidate_job_drops_only_that_job() {
        let cache = ThroughputCache::new();
        for i in 0..10u64 {
            cache.get_or_insert_with((JobId(i % 2), i, i), || i as f64);
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.job_stamp(JobId(0)), 0);
        cache.invalidate_job(JobId(0));
        assert_eq!(cache.len(), 5, "only job 0's entries drop");
        assert_eq!(cache.job_stamp(JobId(0)), 1);
        assert_eq!(cache.job_stamp(JobId(1)), 0);
        assert_eq!(cache.invalidations(), 1);
        // Invalidated keys recompute; the survivor's keys still hit.
        let mut recomputed = false;
        cache.get_or_insert_with((JobId(0), 0, 0), || {
            recomputed = true;
            99.0
        });
        assert!(recomputed);
        let hits_before = cache.hits();
        cache.get_or_insert_with((JobId(1), 1, 1), || f64::NAN);
        assert_eq!(cache.hits(), hits_before + 1);
    }

    #[test]
    fn invalidation_during_compute_discards_insert() {
        // A compute that starts before invalidate_job and finishes after
        // must not publish its (stale) value.
        let cache = ThroughputCache::new();
        let v = cache.get_or_insert_with((JobId(7), 1, 2), || {
            cache.invalidate_job(JobId(7));
            1.25
        });
        assert_eq!(v, 1.25, "the caller is still served");
        assert!(cache.is_empty(), "the stale value must not land");
        // The next lookup recomputes and publishes normally.
        let v = cache.get_or_insert_with((JobId(7), 1, 2), || 2.5);
        assert_eq!(v, 2.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn repeated_invalidation_is_idempotent() {
        let cache = ThroughputCache::new();
        cache.invalidate_job(JobId(3)); // nothing stored: fine
        cache.get_or_insert_with((JobId(3), 5, 5), || 1.0);
        cache.invalidate_job(JobId(3));
        cache.invalidate_job(JobId(3));
        assert!(cache.is_empty());
        assert_eq!(cache.job_stamp(JobId(3)), 3);
        assert_eq!(cache.invalidations(), 3);
    }
}
