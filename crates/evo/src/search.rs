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
//! `2·crossover_pairs + m`. Because no stream is shared, executing the
//! work sequentially or across threads is bit-identical — verified by
//! `parallel_matches_sequential` below and the property tests in
//! `tests/determinism_props.rs`.

use crate::cache::ThroughputCache;
use crate::context::EvoContext;
use crate::ops::{self, FillStats};
use crate::perfcounters::EvoPerfCounters;
use crate::scoring::{self, ScoreCard};
use ones_schedcore::{DirtySet, JobRun, Schedule};
use ones_simcore::DetRng;
use ones_sync::Arc;
use ones_workload::JobId;
use std::time::Instant;

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
    /// Derive candidates across threads (see the module docs on
    /// determinism; results are bit-identical either way).
    pub parallel_derive: bool,
    /// Memoise throughput evaluations in the search-scoped
    /// [`ThroughputCache`] (entries survive across generations; job
    /// events invalidate per-job). Exact — scores are unchanged.
    pub use_cache: bool,
    /// Score candidates by deriving per-job [`ScoreCard`]s from their
    /// parents' (only op-touched jobs re-resolve throughput) instead of
    /// rescoring every job of every candidate. Exact — bit-identical to
    /// the full rescore (see `tests/determinism_props.rs`).
    pub delta_score: bool,
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
            parallel_derive: true,
            use_cache: true,
            delta_score: true,
        }
    }
}

/// Maps `f` over `items`, across threads when `parallel` (order is
/// preserved either way, and `f` draws no shared state, so the results
/// are identical).
fn map_maybe_parallel<T, U, F>(parallel: bool, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if parallel {
        use rayon::prelude::*;
        items.par_iter().map(f).collect()
    } else {
        items.iter().map(f).collect()
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

/// The persistent online evolutionary search.
#[derive(Debug, Clone)]
pub struct EvolutionarySearch {
    config: EvoConfig,
    population: Vec<Schedule>,
    /// Per-member score cards, aligned with `population`; empty until the
    /// first delta-scored generation completes.
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
    /// is known — arrival, epoch end and completion may all change what
    /// the view reports) and its score-card terms, which re-resolve at
    /// the next generation. Call on every job event.
    pub fn invalidate_job(&mut self, job: JobId) {
        self.cache.invalidate_job(job);
        self.pending_invalidations.insert(job);
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
    /// module docs for the per-phase RNG stream layout that makes the
    /// parallel and sequential paths bit-identical.
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
        // drop per-job entries via [`Self::invalidate_job`]. A
        // caller-installed cache is kept when ours is disabled. (The
        // local Arc clone keeps the borrow away from `self` so the
        // counters below stay mutably reachable.)
        let cache = Arc::clone(&self.cache);
        let gctx = if self.config.use_cache {
            ctx.with_cache(&cache)
        } else {
            *ctx
        };
        let delta = self.config.delta_score;

        // Base stream for this generation; every work unit below forks its
        // own child stream, so no RNG state is shared across units.
        let base = self.rng.fork_idx("gen", self.generations);
        let parallel = self.config.parallel_derive;

        if self.population.is_empty() {
            self.initialize(&gctx);
            self.cards.clear();
        }

        // Refresh every member against live state (this is also where new
        // arrivals enter every candidate), and carry each member's score
        // card forward: only refresh-touched and invalidated jobs
        // re-resolve their throughput.
        let t_refresh = Instant::now();
        let member_idx: Vec<usize> = (0..self.population.len()).collect();
        let population = &self.population;
        let cards = &self.cards;
        let have_cards = delta && cards.len() == population.len();
        let pending = std::mem::take(&mut self.pending_invalidations);
        let refreshed: Vec<(Schedule, ScoreCard)> =
            map_maybe_parallel(parallel, &member_idx, |&i| {
                let (s, mut dirty) = ops::refresh(
                    &gctx,
                    &population[i],
                    &mut base.fork_idx("refresh", i as u64),
                );
                let card = if have_cards {
                    dirty.extend(pending.iter().copied());
                    ScoreCard::derive(&gctx, &s, &cards[i], &dirty, None)
                } else if delta {
                    ScoreCard::build(&gctx, &s)
                } else {
                    ScoreCard::default()
                };
                (s, card)
            });
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
            if !delta {
                return ScoreCard::default();
            }
            dirty.extend(legal_dirty);
            ScoreCard::derive(&gctx, child, parent_card, &dirty, layout)
        };
        // Each task counts its own fill work; the counts are summed after
        // the map, so the hot loop shares no counter.
        let pair_idx: Vec<usize> = (0..pairs.len()).collect();
        let crossed: Vec<([(Schedule, ScoreCard); 2], FillStats)> =
            map_maybe_parallel(parallel, &pair_idx, |&p| {
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
            });
        let mutant_idx: Vec<usize> = (0..parents.len()).collect();
        let mutants: Vec<((Schedule, ScoreCard), FillStats)> =
            map_maybe_parallel(parallel, &mutant_idx, |&m| {
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
            });
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

        // Selection: Algorithm 1 sampling, keep the K best. The sort is
        // stable under total_cmp, so equal scores keep pool order and the
        // lowest-index candidate wins ties deterministically; NaN scores
        // sort last instead of panicking. Delta scoring multiplies each
        // card's ρ-independent factors by this generation's remaining
        // workloads — the same terms in the same order as the full
        // rescore, so the totals are bit-identical.
        let t_score = Instant::now();
        let rhos = scoring::sample_rhos(&gctx, &mut base.fork("rhos"));
        let scores: Vec<f64> = if delta {
            let remaining = scoring::remaining_workloads(&gctx, &rhos);
            pool_cards.iter().map(|c| c.score(&remaining)).collect()
        } else {
            scoring::score_all(&gctx, &pool, &rhos)
        };
        self.counters.candidates_scored += pool.len() as u64;
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        self.counters.score_nanos += t_score.elapsed().as_nanos() as u64;
        if self.config.use_cache {
            // The cache is cumulative across the search's lifetime;
            // counters mirror its totals and keep the last generation's
            // delta for the cross-generation (warm) hit-rate signal.
            self.counters.cache_hits = cache.hits();
            self.counters.cache_misses = cache.misses();
            self.counters.cache_duplicate_computes = cache.duplicate_computes();
            self.counters.cache_invalidations = cache.invalidations();
            self.counters.cache_hits_last_gen =
                self.counters.cache_hits - counters_before.cache_hits;
            self.counters.cache_misses_last_gen =
                self.counters.cache_misses - counters_before.cache_misses;
        }
        gen_span.arg("pool", pool.len());
        self.counters.forward_delta_to_registry(&counters_before);
        let best = pool[order[0]].clone();
        let keep: Vec<usize> = order.into_iter().take(self.config.population).collect();
        self.population = keep.iter().map(|&i| pool[i].clone()).collect();
        self.cards = if delta {
            keep.iter().map(|&i| pool_cards[i].clone()).collect()
        } else {
            Vec::new()
        };
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
        let fx = Fixture::new(4);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s1 = search(8);
        let mut s2 = search(8);
        for _ in 0..3 {
            assert_eq!(s1.generation(&c), s2.generation(&c));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut fx = Fixture::new(5);
        for i in 0..5 {
            fx.start_job(i, i as u32 + 1);
        }
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut seq_cfg = EvoConfig::for_cluster(8);
        seq_cfg.parallel_derive = false;
        let mut par_cfg = EvoConfig::for_cluster(8);
        par_cfg.parallel_derive = true;
        let mut seq = EvolutionarySearch::new(seq_cfg, DetRng::seed(17));
        let mut par = EvolutionarySearch::new(par_cfg, DetRng::seed(17));
        for g in 0..4 {
            assert_eq!(
                seq.generation(&c),
                par.generation(&c),
                "S_* diverged at generation {g}"
            );
            assert_eq!(seq.population(), par.population());
        }
        // Fill work is counted per derive task and summed after the map,
        // so the totals cannot depend on how the tasks were scheduled.
        let (sc, pc) = (seq.perf_counters(), par.perf_counters());
        assert!(
            sc.fill_rounds > 0 && sc.fill_probes > 0,
            "derive ran no fill"
        );
        assert_eq!(
            (sc.fill_rounds, sc.fill_probes),
            (pc.fill_rounds, pc.fill_probes)
        );
    }

    #[test]
    fn cache_and_parallel_do_not_change_selection() {
        let mut fx = Fixture::new(6);
        for i in 0..6 {
            fx.start_job(i, (i * 3) as u32 + 1);
        }
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut plain_cfg = EvoConfig::for_cluster(8);
        plain_cfg.parallel_derive = false;
        plain_cfg.use_cache = false;
        let full_cfg = EvoConfig::for_cluster(8);
        assert!(full_cfg.parallel_derive && full_cfg.use_cache);
        let mut plain = EvolutionarySearch::new(plain_cfg, DetRng::seed(23));
        let mut full = EvolutionarySearch::new(full_cfg, DetRng::seed(23));
        for g in 0..4 {
            assert_eq!(
                plain.generation(&c),
                full.generation(&c),
                "S_* diverged at generation {g}"
            );
            assert_eq!(plain.population(), full.population());
        }
        let counters = full.perf_counters();
        assert_eq!(counters.generations, 4);
        assert!(counters.candidates_scored > 0);
        assert!(counters.cache_hits > 0, "cache never hit");
        assert_eq!(plain.perf_counters().cache_hits, 0);
    }

    use ones_simcore::DetRng;
    use ones_workload::JobId;
}
