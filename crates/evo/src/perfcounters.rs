//! Lightweight performance counters for the evolutionary hot loop.
//!
//! The search accumulates these across generations: how much work each
//! phase did (refresh / derive+legalise / score+select wall time), how
//! many candidates were scored, how many fill rounds and probes the
//! derive phase ran, and how the search-scoped
//! [`ThroughputCache`](crate::cache::ThroughputCache) performed. The cache
//! outlives generations, so besides the cumulative hit/miss totals the
//! search records the *last generation's* hits and misses — their ratio
//! ([`EvoPerfCounters::warm_hit_rate`]) is the cross-generation reuse
//! signal (a generation-scoped cache would restart cold every time). They
//! are diagnostics only — wall times come from [`std::time::Instant`] and
//! are excluded from any determinism guarantee.

use ones_sync::LazyLock;

// Registry mirrors of the per-search counters (DESIGN.md §5). Every
// generation forwards its deltas here, so [`EvoPerfCounters::from_registry`]
// is a process-wide view over the same numbers the per-search struct
// accumulates locally.
static REG_GENERATIONS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.generations"));
static REG_SCORED: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.candidates_scored"));
static REG_CACHE_HITS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.cache_hits"));
static REG_CACHE_MISSES: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.cache_misses"));
static REG_CACHE_DUP: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.cache_duplicate_computes"));
static REG_CACHE_INVAL: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.cache_invalidations"));
static REG_REFRESH_NANOS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.refresh_nanos"));
static REG_DERIVE_NANOS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.derive_nanos"));
static REG_SCORE_NANOS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.search.score_nanos"));
static REG_FILL_ROUNDS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.derive.fill_rounds"));
static REG_FILL_PROBES: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("evo.derive.fill_probes"));

/// Counters accumulated by
/// [`EvolutionarySearch`](crate::search::EvolutionarySearch) across every
/// generation it has run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvoPerfCounters {
    /// Generations evolved.
    pub generations: u64,
    /// Candidates scored by the selection phase (pool sizes, summed).
    pub candidates_scored: u64,
    /// Throughput-cache lookups answered from the table.
    pub cache_hits: u64,
    /// Throughput-cache lookups that evaluated the model.
    pub cache_misses: u64,
    /// Model evaluations whose result lost an insert race (the work was
    /// duplicated but the lookup still counts as a hit — see
    /// [`ThroughputCache::get_or_insert_with`](crate::cache::ThroughputCache::get_or_insert_with)).
    pub cache_duplicate_computes: u64,
    /// Per-job invalidations applied to the search-scoped cache
    /// (arrivals, epoch ends, completions).
    pub cache_invalidations: u64,
    /// Cache hits during the most recent generation only.
    pub cache_hits_last_gen: u64,
    /// Cache misses during the most recent generation only.
    pub cache_misses_last_gen: u64,
    /// Wall time in the refresh phase, nanoseconds.
    pub refresh_nanos: u64,
    /// Wall time deriving and legalising children, nanoseconds.
    pub derive_nanos: u64,
    /// Wall time in ρ-sampling, scoring and selection, nanoseconds.
    pub score_nanos: u64,
    /// Fill selection rounds run while deriving children (mutation
    /// refills and legalisation; refresh is not counted).
    pub fill_rounds: u64,
    /// Resume and scale-up placements probed by those fill rounds.
    pub fill_probes: u64,
}

impl EvoPerfCounters {
    /// Fraction of throughput lookups served by the cache, in [0, 1]
    /// (zero when the cache never ran).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of the *last* generation's throughput lookups served by
    /// the cache, in [0, 1]. On a warm search-scoped cache this stays
    /// high across generations; a generation-scoped cache would pay the
    /// cold misses every time.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.cache_hits_last_gen + self.cache_misses_last_gen;
        if total == 0 {
            0.0
        } else {
            self.cache_hits_last_gen as f64 / total as f64
        }
    }

    /// Total measured wall time across the three phases, nanoseconds.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.refresh_nanos + self.derive_nanos + self.score_nanos
    }

    /// Forwards the counter increments accumulated since `before` into the
    /// `evo.search.*` and `evo.derive.*` metrics registry keys.
    pub(crate) fn forward_delta_to_registry(&self, before: &EvoPerfCounters) {
        REG_GENERATIONS.add(self.generations - before.generations);
        REG_SCORED.add(self.candidates_scored - before.candidates_scored);
        REG_CACHE_HITS.add(self.cache_hits - before.cache_hits);
        REG_CACHE_MISSES.add(self.cache_misses - before.cache_misses);
        REG_CACHE_DUP.add(self.cache_duplicate_computes - before.cache_duplicate_computes);
        REG_CACHE_INVAL.add(self.cache_invalidations - before.cache_invalidations);
        REG_REFRESH_NANOS.add(self.refresh_nanos - before.refresh_nanos);
        REG_DERIVE_NANOS.add(self.derive_nanos - before.derive_nanos);
        REG_SCORE_NANOS.add(self.score_nanos - before.score_nanos);
        REG_FILL_ROUNDS.add(self.fill_rounds - before.fill_rounds);
        REG_FILL_PROBES.add(self.fill_probes - before.fill_probes);
    }

    /// The process-wide view of the same counters, read back from the
    /// `evo.search.*` and `evo.derive.*` registry keys: totals across
    /// every search that ran in this process (one scheduler's local
    /// counters are a lower bound).
    #[must_use]
    pub fn from_registry() -> EvoPerfCounters {
        EvoPerfCounters {
            generations: REG_GENERATIONS.value(),
            candidates_scored: REG_SCORED.value(),
            cache_hits: REG_CACHE_HITS.value(),
            cache_misses: REG_CACHE_MISSES.value(),
            cache_duplicate_computes: REG_CACHE_DUP.value(),
            cache_invalidations: REG_CACHE_INVAL.value(),
            // Last-generation deltas are a property of one live search;
            // the process-wide registry only carries cumulative totals.
            cache_hits_last_gen: 0,
            cache_misses_last_gen: 0,
            refresh_nanos: REG_REFRESH_NANOS.value(),
            derive_nanos: REG_DERIVE_NANOS.value(),
            score_nanos: REG_SCORE_NANOS.value(),
            fill_rounds: REG_FILL_ROUNDS.value(),
            fill_probes: REG_FILL_PROBES.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut c = EvoPerfCounters::default();
        assert_eq!(c.cache_hit_rate(), 0.0);
        c.cache_hits = 3;
        c.cache_misses = 1;
        assert!((c.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn total_sums_phases() {
        let c = EvoPerfCounters {
            refresh_nanos: 1,
            derive_nanos: 2,
            score_nanos: 4,
            ..EvoPerfCounters::default()
        };
        assert_eq!(c.total_nanos(), 7);
    }
}
