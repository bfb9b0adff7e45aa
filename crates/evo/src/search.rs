//! The generation loop (Figure 5).
//!
//! `G_0` → derive `G'_i` (refresh + crossover + mutation + reorder) →
//! select the top-K by Algorithm 1 scoring → `G_{i+1}`, surfacing the best
//! candidate `S_*` for deployment. The population persists across scheduler
//! invocations, which is what makes the search *online*: every new event
//! (arrival, epoch end, completion) evolves the existing population against
//! fresh telemetry instead of re-planning from scratch.
//!
//! # Determinism under parallelism
//!
//! Candidate derivation is embarrassingly parallel, but a shared mutable
//! RNG would make parallel results order-dependent. Instead every
//! generation derives a *base* stream `rng.fork_idx("gen", generation)`
//! and every unit of work gets its own child stream split from it by a
//! fixed label and index:
//!
//! | work unit                 | stream                               |
//! |---------------------------|--------------------------------------|
//! | refresh of member *i*     | `base.fork_idx("refresh", i)`        |
//! | crossover of pair *p*     | `base.fork_idx("cross", p)`          |
//! | parent selection          | `base.fork("select")` (sequential)   |
//! | mutation of mutant *m*    | `base.fork_idx("mutate", m)`         |
//! | legalise of child *k*     | `base.fork_idx("legalise", k)`       |
//! | selection ρ-sample        | `base.fork("rhos")`                  |
//!
//! Children are indexed in a fixed documented order: the two crossover
//! children of pair *p* are `2p` and `2p+1`, mutant *m* is
//! `2·crossover_pairs + m`. Because no stream is shared, the result does
//! not depend on how the work is spread across threads, nor on whether a
//! phase forks at all — two same-seed searches agree on every schedule
//! and counter (`deterministic_for_fixed_seed` below, at a population
//! small enough to stay on one thread and one large enough to fork).
//!
//! A phase forks only when it has the work to repay a thread: each
//! thread gets at least [`MIN_MEMBERS_PER_THREAD`] work units, so at 64
//! GPUs (population 64) every phase runs on the calling thread, and from
//! 128 GPUs up the phases split across the host's cores.

use crate::cache::ThroughputCache;
use crate::context::EvoContext;
use crate::ops::{self, FillStats};
use crate::perfcounters::EvoPerfCounters;
use crate::scoring::{self, ScoreCard};
use ones_schedcore::{DirtySet, JobRun, Schedule};
use ones_simcore::DetRng;
use ones_sync::Arc;
use ones_workload::JobId;
use rayon::prelude::*;
use std::time::Instant;

/// The fewest work units (members, crossover pairs or mutants) one
/// thread of a derive phase is given; a phase with fewer than twice this
/// many runs on the calling thread. On a 2-vCPU host, full `ones-sim`
/// runs forked at 64 GPUs were 25–35% slower than one thread, and faster
/// from 128 GPUs up.
pub const MIN_MEMBERS_PER_THREAD: usize = 64;

/// Evolutionary search tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvoConfig {
    /// Population size K. The paper suggests K = |C| (one candidate per
    /// GPU).
    pub population: usize,
    /// Mutation rate θ: per-job preemption probability in the uniform
    /// mutation operation.
    pub mutation_rate: f64,
    /// Crossover pairs drawn per generation (the paper uses K pairs).
    pub crossover_pairs: usize,
    /// Apply the *reorder* operation (Figure 10) to derived candidates.
    /// Disabled only by the ablation harness.
    pub reorder: bool,
}

impl EvoConfig {
    /// The paper's suggested configuration for a cluster of `gpus` devices.
    #[must_use]
    pub fn for_cluster(gpus: u32) -> Self {
        EvoConfig {
            population: gpus as usize,
            mutation_rate: 0.2,
            crossover_pairs: gpus as usize,
            reorder: true,
        }
    }
}

/// Legalises a derived candidate: cap batches at `R_j`, fill idle GPUs
/// so the Eq 4 full-utilisation constraint holds, and optionally reorder
/// for locality (Figure 10). Returns the jobs it touched and, when the
/// child was reordered, its packed per-job layout (which lets delta
/// scoring hash every job's new placement shape in `O(1)`).
fn legalise(
    ctx: &EvoContext<'_>,
    mut child: Schedule,
    mut rng: DetRng,
    reorder: bool,
    stats: &mut FillStats,
) -> (Schedule, DirtySet, Option<Vec<JobRun>>) {
    let mut dirty = DirtySet::new();
    dirty.extend(ctx.enforce_limits(&mut child));
    dirty.extend(ops::fill_idle(ctx, &mut child, &mut rng, stats));
    if reorder {
        let (packed, layout) = child.reordered_with_layout();
        (packed, dirty, Some(layout))
    } else {
        (child, dirty, None)
    }
}

/// Pool indices ranked best-first by score (Algorithm 1: smallest
/// wins). The sort is stable under [`f64::total_cmp`], so equal scores
/// keep pool order and the lowest-index candidate wins ties
/// deterministically, and NaN scores sort after every real score instead
/// of panicking.
fn rank(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    order
}

/// The persistent online evolutionary search.
#[derive(Debug, Clone)]
pub struct EvolutionarySearch {
    config: EvoConfig,
    population: Vec<Schedule>,
    /// Per-member score cards, aligned with `population`; empty until the
    /// first generation after (re)initialisation completes.
    cards: Vec<ScoreCard>,
    /// Search-scoped throughput memo table: entries are pure in
    /// `(job, placement shape, batches)` and survive across generations.
    cache: Arc<ThroughputCache>,
    /// Jobs invalidated since the last generation; their card entries are
    /// re-resolved at the next derivation.
    pending_invalidations: DirtySet,
    rng: DetRng,
    generations: u64,
    counters: EvoPerfCounters,
}

impl EvolutionarySearch {
    /// Creates a search with an empty population (initialised lazily on the
    /// first generation, when jobs exist).
    #[must_use]
    pub fn new(config: EvoConfig, rng: DetRng) -> Self {
        assert!(config.population > 0, "population must be positive");
        EvolutionarySearch {
            config,
            population: Vec::new(),
            cards: Vec::new(),
            cache: Arc::new(ThroughputCache::new()),
            pending_invalidations: DirtySet::new(),
            rng,
            generations: 0,
            counters: EvoPerfCounters::default(),
        }
    }

    /// Drops every cached state derived from `job`'s configuration: its
    /// throughput-cache entries (the entries are pure in placement and
    /// batches, but the job's *model profile* is only fixed while the job
    /// is known) and its score-card terms, which re-resolve at the next
    /// generation. Call when the job enters or leaves the view (arrival,
    /// completion); epoch ends leave its profile unchanged.
    pub fn invalidate_job(&mut self, job: JobId) {
        self.cache.invalidate_job(job);
        self.pending_invalidations.insert(job);
        // Counted now, not at the next generation: a completion after
        // the last generation must still show.
        let before = self.counters;
        self.counters.cache_invalidations = self.cache.invalidations();
        self.counters.forward_delta_to_registry(&before);
    }

    /// Generations evolved so far.
    #[must_use]
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// Current tunables.
    #[must_use]
    pub fn config(&self) -> &EvoConfig {
        &self.config
    }

    /// Swaps in new tunables mid-search (ones-d live reconfiguration).
    /// The population carries over; a shrunken `population` size takes
    /// effect at the next generation's selection.
    ///
    /// # Panics
    /// Panics if `config.population` is zero.
    pub fn set_config(&mut self, config: EvoConfig) {
        assert!(config.population > 0, "population must be positive");
        self.config = config;
    }

    /// Current population (empty before the first generation).
    #[must_use]
    pub fn population(&self) -> &[Schedule] {
        &self.population
    }

    /// Performance counters accumulated across all generations.
    #[must_use]
    pub fn perf_counters(&self) -> EvoPerfCounters {
        self.counters
    }

    /// Runs one generation and returns the best candidate `S_*`.
    ///
    /// With no schedulable jobs this returns the empty schedule. See the
    /// module docs for the per-phase RNG stream layout that keeps the
    /// parallel derivation deterministic.
    pub fn generation(&mut self, ctx: &EvoContext<'_>) -> Schedule {
        let gpus = ctx.view.spec.total_gpus();
        if ctx.schedulable().is_empty() {
            self.population.clear();
            self.cards.clear();
            return Schedule::empty(gpus);
        }
        self.generations += 1;
        let counters_before = self.counters;
        self.counters.generations += 1;
        let mut gen_span = ones_obs::span!("evo", "generation");
        gen_span.arg("generation", self.generations);

        // Search-scoped throughput memoisation: every (job, placement
        // shape, batches) evaluation is pure for as long as the job's
        // profile is, so entries survive across generations; job events
        // drop per-job entries via [`Self::invalidate_job`]. (The local
        // Arc clone keeps the borrow away from `self` so the counters
        // below stay mutably reachable.)
        let cache = Arc::clone(&self.cache);
        let gctx = ctx.with_cache(&cache);

        // Base stream for this generation; every work unit below forks its
        // own child stream, so no RNG state is shared across units.
        let base = self.rng.fork_idx("gen", self.generations);

        if self.population.is_empty() {
            self.initialize(&gctx);
            self.cards.clear();
        }

        // Refresh every member against live state (this is also where new
        // arrivals enter every candidate), and carry each member's score
        // card forward: only refresh-touched and invalidated jobs
        // re-resolve their throughput. A freshly initialised population
        // has no cards yet and builds them from scratch.
        let t_refresh = Instant::now();
        let member_idx: Vec<usize> = (0..self.population.len()).collect();
        let population = &self.population;
        let cards = &self.cards;
        let pending = std::mem::take(&mut self.pending_invalidations);
        let refreshed: Vec<(Schedule, ScoreCard)> = member_idx
            .par_iter()
            .with_min_len(MIN_MEMBERS_PER_THREAD)
            .map(|&i| {
                let (s, mut dirty) = ops::refresh(
                    &gctx,
                    &population[i],
                    &mut base.fork_idx("refresh", i as u64),
                );
                let card = match cards.get(i) {
                    Some(card) => {
                        dirty.extend(pending.iter().copied());
                        ScoreCard::derive(&gctx, &s, card, &dirty, None)
                    }
                    None => ScoreCard::build(&gctx, &s),
                };
                (s, card)
            })
            .collect();
        let (refreshed, refreshed_cards): (Vec<Schedule>, Vec<ScoreCard>) =
            refreshed.into_iter().unzip();
        self.counters.refresh_nanos += t_refresh.elapsed().as_nanos() as u64;

        // Derive children: K crossover pairs -> 2K children, K mutants.
        // Parent picks draw from one sequential stream (cheap) so the
        // expensive derivation below is free of shared state. Every child
        // is legalised in the same task: cap batches at R_j, fill idle
        // GPUs so the Eq 4 full-utilisation constraint holds (a child
        // that merely dropped a job would otherwise score better by
        // having fewer SRUF terms), and reorder for locality (Figure 10).
        let t_derive = Instant::now();
        let mut select = base.fork("select");
        let pairs: Vec<(usize, usize)> = (0..self.config.crossover_pairs)
            .map(|_| (select.index(refreshed.len()), select.index(refreshed.len())))
            .collect();
        let parents: Vec<usize> = (0..self.config.population)
            .map(|_| select.index(refreshed.len()))
            .collect();
        let reorder = self.config.reorder;
        let mutation_rate = self.config.mutation_rate;
        let crossover_pairs = self.config.crossover_pairs;

        // Derive one child's schedule *and* score card in the same task:
        // the card comes from the parent's via the op's dirty set (union
        // the legalise touches), with the reorder layout giving every
        // job's packed placement shape in O(1).
        let derive_card = |child: &Schedule,
                           parent_card: &ScoreCard,
                           mut dirty: DirtySet,
                           legal_dirty: DirtySet,
                           layout: Option<&[JobRun]>| {
            dirty.extend(legal_dirty);
            ScoreCard::derive(&gctx, child, parent_card, &dirty, layout)
        };
        // Each task counts its own fill work; the counts are summed after
        // the map, so the hot loop shares no counter.
        let pair_idx: Vec<usize> = (0..pairs.len()).collect();
        let crossed: Vec<([(Schedule, ScoreCard); 2], FillStats)> = pair_idx
            .par_iter()
            .with_min_len(MIN_MEMBERS_PER_THREAD)
            .map(|&p| {
                let (ai, bi) = pairs[p];
                let mut fill = FillStats::default();
                let (c1, c2, xdirty) = ops::crossover(
                    &refreshed[ai],
                    &refreshed[bi],
                    &mut base.fork_idx("cross", p as u64),
                );
                let (s1, d1, l1) = legalise(
                    &gctx,
                    c1,
                    base.fork_idx("legalise", 2 * p as u64),
                    reorder,
                    &mut fill,
                );
                let (s2, d2, l2) = legalise(
                    &gctx,
                    c2,
                    base.fork_idx("legalise", 2 * p as u64 + 1),
                    reorder,
                    &mut fill,
                );
                let card1 =
                    derive_card(&s1, &refreshed_cards[ai], xdirty.clone(), d1, l1.as_deref());
                let card2 = derive_card(&s2, &refreshed_cards[bi], xdirty, d2, l2.as_deref());
                ([(s1, card1), (s2, card2)], fill)
            })
            .collect();
        let mutant_idx: Vec<usize> = (0..parents.len()).collect();
        let mutants: Vec<((Schedule, ScoreCard), FillStats)> = mutant_idx
            .par_iter()
            .with_min_len(MIN_MEMBERS_PER_THREAD)
            .map(|&m| {
                let mut fill = FillStats::default();
                let (child, mdirty) = ops::mutate(
                    &gctx,
                    &refreshed[parents[m]],
                    mutation_rate,
                    &mut base.fork_idx("mutate", m as u64),
                    &mut fill,
                );
                let (s, d, l) = legalise(
                    &gctx,
                    child,
                    base.fork_idx("legalise", (2 * crossover_pairs + m) as u64),
                    reorder,
                    &mut fill,
                );
                let card = derive_card(&s, &refreshed_cards[parents[m]], mdirty, d, l.as_deref());
                ((s, card), fill)
            })
            .collect();
        self.counters.derive_nanos += t_derive.elapsed().as_nanos() as u64;

        // Pool in the documented order: survivors, crossover children
        // (pair-major), mutants.
        let mut pool: Vec<Schedule> = refreshed;
        let mut pool_cards: Vec<ScoreCard> = refreshed_cards;
        let mut fill = FillStats::default();
        for (kids, f) in crossed {
            fill += f;
            for (s, card) in kids {
                pool.push(s);
                pool_cards.push(card);
            }
        }
        for ((s, card), f) in mutants {
            fill += f;
            pool.push(s);
            pool_cards.push(card);
        }
        self.counters.fill_rounds += fill.rounds;
        self.counters.fill_probes += fill.probes;

        // Selection: Algorithm 1 sampling, keep the K best. Each card's
        // ρ-independent factors are multiplied by this generation's
        // remaining workloads — the same terms in the same order as a
        // full [`scoring::score_schedule`] rescore, so the totals are
        // bit-identical to it.
        let t_score = Instant::now();
        let rhos = scoring::sample_rhos(&gctx, &mut base.fork("rhos"));
        let remaining = scoring::remaining_workloads(&gctx, &rhos);
        let scores: Vec<f64> = pool_cards.iter().map(|c| c.score(&remaining)).collect();
        self.counters.candidates_scored += pool.len() as u64;
        let order = rank(&scores);
        self.counters.score_nanos += t_score.elapsed().as_nanos() as u64;
        // The cache is cumulative across the search's lifetime; counters
        // mirror its totals and keep the last generation's delta for the
        // cross-generation (warm) hit-rate signal.
        self.counters.cache_hits = cache.hits();
        self.counters.cache_misses = cache.misses();
        self.counters.cache_duplicate_computes = cache.duplicate_computes();
        self.counters.cache_invalidations = cache.invalidations();
        self.counters.cache_hits_last_gen = self.counters.cache_hits - counters_before.cache_hits;
        self.counters.cache_misses_last_gen =
            self.counters.cache_misses - counters_before.cache_misses;
        gen_span.arg("pool", pool.len());
        self.counters.forward_delta_to_registry(&counters_before);
        let best = pool[order[0]].clone();
        let keep: Vec<usize> = order.into_iter().take(self.config.population).collect();
        self.population = keep.iter().map(|&i| pool[i].clone()).collect();
        self.cards = keep.iter().map(|&i| pool_cards[i].clone()).collect();
        best
    }

    /// Initial population `G_0`: each candidate assigns a random job to
    /// each GPU (then legalised), per §3.2.2 *Initialization*.
    fn initialize(&mut self, ctx: &EvoContext<'_>) {
        let jobs: Vec<JobId> = ctx.schedulable().iter().map(|j| j.id()).collect();
        let gpus = ctx.view.spec.total_gpus();
        self.population = (0..self.config.population)
            .map(|_| {
                let mut s = Schedule::empty(gpus);
                for g in ctx.view.spec.all_gpus() {
                    let job = jobs[self.rng.index(jobs.len())];
                    let b = ctx.limit(job).min(ctx.profile(job).max_local_batch).max(1);
                    s.assign(g, job, b);
                }
                ctx.enforce_limits(&mut s);
                s.reordered()
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::testutil::*;
    use ones_schedcore::JobPhase;

    fn search(gpus: u32) -> EvolutionarySearch {
        EvolutionarySearch::new(EvoConfig::for_cluster(gpus), DetRng::seed(17))
    }

    #[test]
    fn empty_cluster_returns_empty_schedule() {
        let fx = Fixture::new(1);
        let mut fx = fx;
        fx.jobs.get_mut(&JobId(0)).unwrap().phase = JobPhase::Completed;
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = search(8);
        let best = s.generation(&c);
        assert_eq!(best.idle_count(), 8);
        assert!(s.population().is_empty());
    }

    #[test]
    fn generation_places_all_jobs_when_cluster_is_large_enough() {
        let fx = Fixture::new(4);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = search(8);
        let best = s.generation(&c);
        for i in 0..4 {
            assert!(best.is_running(JobId(i)), "job {i} missing from S_*");
            assert!(best.global_batch(JobId(i)) <= c.limit(JobId(i)));
        }
        assert_eq!(s.population().len(), 8);
        assert_eq!(s.generations(), 1);
    }

    #[test]
    fn population_survives_and_improves_across_generations() {
        let mut fx = Fixture::new(6);
        for i in 0..6 {
            fx.start_job(i, (i * 5) as u32 + 1);
        }
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = search(8);
        let rhos_rng = &mut DetRng::seed(99);
        let rhos = crate::scoring::sample_rhos(&c, rhos_rng);
        let first = s.generation(&c);
        let first_score = crate::scoring::score_schedule(&c, &first, &rhos);
        let mut last_score = first_score;
        for _ in 0..5 {
            let best = s.generation(&c);
            last_score = crate::scoring::score_schedule(&c, &best, &rhos);
        }
        // Evolution should not make the fixed-sample score drastically
        // worse; usually it improves.
        assert!(
            last_score <= first_score * 1.5,
            "search diverged: {first_score} -> {last_score}"
        );
        assert_eq!(s.generations(), 6);
    }

    #[test]
    fn every_member_respects_limits_and_memory() {
        let mut fx = Fixture::new(5);
        for i in 0..5 {
            fx.limits.insert(JobId(i), 64 << i);
        }
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = search(8);
        for _ in 0..4 {
            let _ = s.generation(&c);
        }
        for member in s.population() {
            member
                .validate(&fx.spec, |j| {
                    fx.jobs
                        .get(&j)
                        .map_or(0, |st| st.spec.profile().max_local_batch)
                })
                .expect("member violates memory limits");
            for (job, (batch, _)) in member.running_jobs() {
                assert!(
                    batch <= c.limit(job),
                    "{job} over limit: {batch} > {}",
                    c.limit(job)
                );
            }
        }
    }

    #[test]
    fn completed_jobs_leave_the_population() {
        let mut fx = Fixture::new(3);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = search(8);
        let _ = s.generation(&c);
        let _ = view;
        // Complete job 1 and evolve again.
        fx.jobs.get_mut(&JobId(1)).unwrap().phase = JobPhase::Completed;
        let view = fx.view();
        let c = ctx(&fx, &view);
        let best = s.generation(&c);
        assert!(!best.is_running(JobId(1)));
        for member in s.population() {
            assert!(!member.is_running(JobId(1)));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut fx = Fixture::new(5);
        for i in 0..5 {
            fx.start_job(i, i as u32 + 1);
        }
        let view = fx.view();
        let c = ctx(&fx, &view);
        // The paper's 8-GPU configuration keeps every phase on the
        // calling thread; a population of twice the per-thread minimum
        // forks each phase on a multi-core host.
        let forking = EvoConfig {
            population: 2 * MIN_MEMBERS_PER_THREAD,
            crossover_pairs: 2 * MIN_MEMBERS_PER_THREAD,
            ..EvoConfig::for_cluster(8)
        };
        for config in [EvoConfig::for_cluster(8), forking] {
            let mut s1 = EvolutionarySearch::new(config, DetRng::seed(17));
            let mut s2 = EvolutionarySearch::new(config, DetRng::seed(17));
            for g in 0..4 {
                assert_eq!(
                    s1.generation(&c),
                    s2.generation(&c),
                    "S_* diverged at generation {g} (population {})",
                    config.population
                );
                assert_eq!(s1.population(), s2.population());
            }
            // Fill work is counted per derive task and summed after the
            // map, and a lost cache-insert race still counts one lookup
            // as a hit, so none of these totals depends on how the tasks
            // were spread across threads.
            let (a, b) = (s1.perf_counters(), s2.perf_counters());
            assert_eq!(a.generations, 4);
            assert!(a.candidates_scored > 0);
            assert!(a.fill_rounds > 0 && a.fill_probes > 0, "derive ran no fill");
            assert!(a.cache_hits > 0, "cache never hit");
            assert_eq!(
                (a.fill_rounds, a.fill_probes, a.cache_hits, a.cache_misses),
                (b.fill_rounds, b.fill_probes, b.cache_hits, b.cache_misses)
            );
        }
    }

    #[test]
    fn rank_puts_nan_last_and_breaks_ties_low() {
        assert!(rank(&[]).is_empty());
        assert_eq!(rank(&[f64::NAN]), [0]);
        assert_eq!(rank(&[f64::NAN, 1.0, 0.5]), [2, 1, 0]);
        assert_eq!(rank(&[f64::INFINITY, f64::NAN]), [0, 1]);
        // Equal scores keep pool order: the lowest index wins.
        assert_eq!(rank(&[2.0, 1.0, 1.0, 3.0]), [1, 2, 0, 3]);
        assert_eq!(rank(&[0.0, 0.0, 0.0]), [0, 1, 2]);
    }

    #[test]
    fn nan_throughput_candidate_ranks_last() {
        // Regression: selection used to unwrap partial_cmp and panicked
        // the scheduler on any NaN score. Inject a NaN throughput via the
        // memo table (the perf model never returns NaN for legal input).
        let mut fx = Fixture::new(2);
        fx.start_job(0, 5);
        fx.start_job(1, 5);
        let view = fx.view();
        let cache = ThroughputCache::new();
        let c = ctx(&fx, &view).with_cache(&cache);

        let healthy = genome(&[Some((0, 256))]);
        let poisoned = genome(&[Some((1, 256))]);
        let sig = poisoned.job_signature(JobId(1), c.gpus_per_node()).unwrap();
        cache.get_or_insert_with((JobId(1), sig.placement, sig.batches), || f64::NAN);
        let cards = [
            ScoreCard::build(&c, &poisoned),
            ScoreCard::build(&c, &healthy),
        ];

        for seed in 0..10 {
            let rhos = scoring::sample_rhos(&c, &mut DetRng::seed(seed));
            let remaining = scoring::remaining_workloads(&c, &rhos);
            let scores = cards.each_ref().map(|card| card.score(&remaining));
            assert_eq!(rank(&scores), [1, 0], "NaN-scored candidate must lose");
        }
    }

    /// Checks every member's stored card against the full-rescore oracle
    /// on the uncached context `c`: the card equals a from-scratch
    /// [`ScoreCard::build`], and its score is bit-identical to
    /// [`scoring::score_schedule`] under a fresh ρ-sample.
    fn check_cards(
        s: &EvolutionarySearch,
        c: &EvoContext<'_>,
        rng: &mut DetRng,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(s.cards.len(), s.population.len());
        let rhos = scoring::sample_rhos(c, rng);
        let remaining = scoring::remaining_workloads(c, &rhos);
        for (member, card) in s.population.iter().zip(&s.cards) {
            assert_card_matches_full(c, member, card)?;
            prop_assert_eq!(
                card.score(&remaining).to_bits(),
                scoring::score_schedule(c, member, &rhos).to_bits()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The persistent search's stored cards stay exact against the
        /// full-rescore oracle over a replay with kills, resubmissions
        /// under a recycled id (a different model behind the same job id
        /// — only the pending invalidation can tell), arrivals and epoch
        /// ends mutating the live state between generations.
        #[test]
        fn stored_cards_match_full_rescore_oracle(
            running_mask in 0u64..64,
            kills in proptest::collection::vec((0u64..6, 0u8..2), 1..4),
            seed in 0u64..500,
        ) {
            // Jobs 0–2 start out running, so the replay has epoch ends.
            let mut fx = Fixture::varied(6, running_mask | 0b111, &[1, 2, 8]);
            let mut s = EvolutionarySearch::new(EvoConfig::for_cluster(8), DetRng::seed(seed));
            let mut oracle_rng = DetRng::seed(seed ^ 0x5eed);

            for (step, &(k, recycle)) in kills.iter().enumerate() {
                {
                    let view = fx.view();
                    let c = ctx(&fx, &view);
                    let _ = s.generation(&c);
                    check_cards(&s, &c, &mut oracle_rng)?;
                }

                // Kill job k (trace kill / completion); half the time a
                // resubmission immediately recycles its id.
                let killed = JobId(k);
                fx.jobs.get_mut(&killed).unwrap().phase = JobPhase::Completed;
                if recycle == 1 {
                    fx.submit(k, ModelKind::Vgg16);
                }
                s.invalidate_job(killed);
                // Every surviving running job ends an epoch.
                let epoch_ended: Vec<JobId> = fx
                    .jobs
                    .iter_mut()
                    .filter(|(_, st)| st.is_running())
                    .map(|(&id, st)| {
                        st.epochs_done += 1;
                        st.samples_processed += 20_000.0;
                        st.exec_time += 8.0;
                        id
                    })
                    .collect();
                for id in epoch_ended {
                    s.invalidate_job(id);
                }
                // A new job arrives.
                let new_id = 100 + step as u64;
                fx.submit(new_id, ModelKind::ResNet18);
                s.invalidate_job(JobId(new_id));
            }

            // One final generation over the fully mutated state.
            let view = fx.view();
            let c = ctx(&fx, &view);
            let _ = s.generation(&c);
            check_cards(&s, &c, &mut oracle_rng)?;
            // The persistent cache must actually have been reused across
            // generations (warm hits) for the test to mean anything.
            prop_assert!(
                s.perf_counters().cache_hits_last_gen > 0,
                "final generation never hit the warm cache"
            );
        }
    }

    use ones_dlperf::ModelKind;
    use ones_simcore::DetRng;
    use ones_workload::JobId;
    use proptest::prelude::*;
}
