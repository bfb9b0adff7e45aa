//! SRUF scoring (Eq 8) and Algorithm 1 probability sampling.
//!
//! The paper's objective is *smallest remaining utilisation first*: pick
//! the schedule minimising `Σ_j T_j(B_j) · c_j` (Eq 3) with
//! `T_j = Y_j / X_j` (Eq 5) and `Y_j = Y_processed (1/ρ_j − 1)` (Eq 7).
//! Algorithm 1 draws one ρ_j per job from its Beta prediction, scores every
//! candidate with that shared sample, and selects the smallest score.

//! ## Delta-scoring
//!
//! A child produced by one evolution operation differs from its parent
//! in only a few jobs, and Eq 8 is a per-job sum — so each candidate
//! carries a [`ScoreCard`]: its jobs' ρ-independent utilisation factors
//! `u_j = c_j / X_j` keyed by configuration signature. Deriving a child's
//! card copies the parent's entries for untouched jobs and recomputes
//! only the dirty set, and scoring a generation multiplies the cards by
//! one shared per-job remaining-workload table. Both paths sum terms in
//! ascending job order with identical arithmetic, so delta-scored totals
//! are bit-identical to a full rescore (guarded by proptests).

use crate::context::EvoContext;
use ones_schedcore::{DirtySet, JobRun, JobSignature, Schedule};
use ones_simcore::DetRng;
use ones_workload::JobId;
use std::collections::BTreeMap;

/// Lower clamp on sampled completion fractions: `1/ρ` has a divergent mean
/// when α clamps to 1, and a single astronomically small ρ would otherwise
/// dominate every score in the generation.
pub const MIN_RHO: f64 = 0.005;

/// Utilisation multiplier charged to a placed job whose modelled
/// throughput is zero (e.g. a degenerate placement the perf model cannot
/// serve). Such a job would never finish, so its candidate must lose to
/// any candidate that makes progress — but the penalty stays finite so
/// scores remain totally ordered and comparable.
pub const ZERO_THROUGHPUT_PENALTY: f64 = 1.0e9;

/// Draws one completion-fraction sample per job (Algorithm 1 lines 1–3).
#[must_use]
pub fn sample_rhos(ctx: &EvoContext<'_>, rng: &mut DetRng) -> BTreeMap<JobId, f64> {
    ctx.schedulable()
        .iter()
        .map(|j| {
            let rho = ctx.beta(j.id()).sample(rng).max(MIN_RHO);
            (j.id(), rho)
        })
        .collect()
}

/// Scores one candidate (Eq 8, lower is better):
/// `Σ_{j ∈ running(S)} (Y_processed_j · c_j / X_j) (1/ρ_j − 1)`.
///
/// Jobs absent from `rhos` (e.g. completed between sampling and scoring)
/// contribute nothing.
#[must_use]
pub fn score_schedule(
    ctx: &EvoContext<'_>,
    schedule: &Schedule,
    rhos: &BTreeMap<JobId, f64>,
) -> f64 {
    match ctx.cache {
        Some(cache) => {
            // Cached path: gather every job's configuration signature in
            // ONE pass over the slots, then resolve throughputs by hash
            // lookup. Without the single-pass gather each lookup would
            // recompute an O(gpus) signature and the cache could never
            // beat the model evaluation it replaces.
            let mut total = 0.0;
            for (job, sig) in schedule.job_signatures(ctx.gpus_per_node()) {
                let Some(&rho) = rhos.get(&job) else {
                    continue;
                };
                let x = cache.get_or_insert_with((job, sig.placement, sig.batches), || {
                    let profile = ctx.profile(job);
                    let batches = schedule.local_batches(job);
                    let placement = schedule.placement(job);
                    ctx.view.perf.throughput(&profile, &batches, &placement)
                });
                total += ctx.remaining_workload(job, rho) * utilisation_factor(sig.gpus, x);
            }
            total
        }
        None => {
            let mut total = 0.0;
            for (job, (_batch, gpus)) in schedule.running_jobs() {
                let Some(&rho) = rhos.get(&job) else {
                    continue;
                };
                let x = ctx.throughput_in(schedule, job);
                total += ctx.remaining_workload(job, rho) * utilisation_factor(gpus, x);
            }
            total
        }
    }
}

/// The ρ-independent part of one job's Eq 8 term: `c_j / X_j`, or the
/// [`ZERO_THROUGHPUT_PENALTY`] charge when the job makes no progress.
/// Every scoring path — full or delta — multiplies exactly this factor
/// by the remaining workload, which is what makes the two bit-identical.
#[must_use]
pub fn utilisation_factor(gpus: u32, x: f64) -> f64 {
    if x <= 0.0 {
        // A placed job that makes no progress pins its GPUs forever;
        // charge it as if each held GPU-sample cost PENALTY seconds
        // instead of silently dropping the term (which would *reward*
        // throughput-starving placements).
        f64::from(gpus) * ZERO_THROUGHPUT_PENALTY
    } else {
        f64::from(gpus) / x
    }
}

/// One job's entry in a [`ScoreCard`]: its configuration signatures (for
/// reuse checks) and the ρ-independent utilisation factor `u = c_j/X_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardEntry {
    /// The placed job.
    pub job: JobId,
    /// Placement-shape hash (see [`ones_schedcore::JobSignature`]).
    pub placement: u64,
    /// Batch-sequence hash.
    pub batches: u64,
    /// GPUs held (`c_j`).
    pub gpus: u32,
    /// `c_j / X_j` (or the zero-throughput penalty charge).
    pub u: f64,
}

/// A candidate's per-job scoring breakdown, entries ascending by job id.
///
/// ρ-samples are redrawn every generation, so raw Eq 8 terms cannot be
/// reused — but `u_j = c_j/X_j` is ρ-independent and survives as long as
/// the job's configuration does. A card outlives its generation: the
/// search keeps each population member's card and derives children's
/// cards from their parents', recomputing only dirty jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreCard {
    entries: Vec<CardEntry>,
}

/// The per-generation remaining-workload table `Y_j(ρ_j)`, ascending by
/// job id — computed once from the shared ρ-sample and multiplied into
/// every candidate's card.
#[derive(Debug, Clone, PartialEq)]
pub struct RemainingWorkloads {
    entries: Vec<(JobId, f64)>,
}

/// Evaluates `Y_j = remaining_workload(j, ρ_j)` for every sampled job,
/// in ascending job order (the iteration order of the ρ map).
#[must_use]
pub fn remaining_workloads(
    ctx: &EvoContext<'_>,
    rhos: &BTreeMap<JobId, f64>,
) -> RemainingWorkloads {
    RemainingWorkloads {
        entries: rhos
            .iter()
            .map(|(&job, &rho)| (job, ctx.remaining_workload(job, rho)))
            .collect(),
    }
}

impl ScoreCard {
    /// Builds a card from scratch: one model/cache resolution per placed
    /// job, via the same single-pass signature gather as
    /// [`score_schedule`].
    #[must_use]
    pub fn build(ctx: &EvoContext<'_>, schedule: &Schedule) -> ScoreCard {
        let entries = schedule
            .job_signatures(ctx.gpus_per_node())
            .into_iter()
            .map(|(job, sig)| {
                let x = resolve_throughput(ctx, schedule, job, &sig);
                CardEntry {
                    job,
                    placement: sig.placement,
                    batches: sig.batches,
                    gpus: sig.gpus,
                    u: utilisation_factor(sig.gpus, x),
                }
            })
            .collect();
        ScoreCard { entries }
    }

    /// Derives `child`'s card from its parent's: entries of jobs outside
    /// `dirty` are copied verbatim, dirty jobs are re-resolved against
    /// `child`. When `layout` is given (the child was reordered,
    /// [`Schedule::reordered_with_layout`]), every job's new placement
    /// shape comes from its contiguous block in `O(1)`; untouched jobs
    /// whose shape changed under packing keep their batch hash (reorder
    /// preserves batch sequences) and re-resolve only the throughput.
    ///
    /// `dirty` must contain every job whose configuration differs from
    /// the parent's (an over-approximation is safe); with `layout` it
    /// must also hold that `layout` covers exactly `child`'s placed jobs.
    #[must_use]
    pub fn derive(
        ctx: &EvoContext<'_>,
        child: &Schedule,
        parent: &ScoreCard,
        dirty: &DirtySet,
        layout: Option<&[JobRun]>,
    ) -> ScoreCard {
        let gpn = ctx.gpus_per_node();
        let mut entries: Vec<CardEntry> = match layout {
            Some(runs) => runs
                .iter()
                .map(|run| {
                    let placement = JobSignature::contiguous_shape_hash(run.start, run.len, gpn);
                    if !dirty.contains(&run.job) {
                        if let Some(pe) = parent.find(run.job) {
                            debug_assert_eq!(pe.gpus, run.len, "clean job changed size");
                            if pe.placement == placement {
                                return *pe;
                            }
                            // Packing changed the job's shape but not its
                            // batches: the batch hash carries over and only
                            // the throughput is re-resolved (usually a hit —
                            // some earlier candidate packed it the same way).
                            let sig = JobSignature {
                                placement,
                                batches: pe.batches,
                                gpus: pe.gpus,
                            };
                            let x = resolve_throughput_run(ctx, child, run, &sig);
                            return CardEntry {
                                job: run.job,
                                placement,
                                batches: pe.batches,
                                gpus: pe.gpus,
                                u: utilisation_factor(pe.gpus, x),
                            };
                        }
                    }
                    let batches = JobSignature::batches_hash(
                        child.slots()[run.start as usize..(run.start + run.len) as usize]
                            .iter()
                            .map(|s| s.expect("layout block is dense").local_batch),
                    );
                    let sig = JobSignature {
                        placement,
                        batches,
                        gpus: run.len,
                    };
                    let x = resolve_throughput_run(ctx, child, run, &sig);
                    CardEntry {
                        job: run.job,
                        placement,
                        batches,
                        gpus: run.len,
                        u: utilisation_factor(run.len, x),
                    }
                })
                .collect(),
            None => {
                // No reorder: untouched jobs keep identical slots, so
                // their parent entries transfer; dirty jobs re-walk the
                // child's slots individually.
                let mut out: Vec<CardEntry> = parent
                    .entries
                    .iter()
                    .filter(|e| !dirty.contains(&e.job))
                    .copied()
                    .collect();
                for &job in dirty {
                    if let Some(sig) = child.job_signature(job, gpn) {
                        let x = resolve_throughput(ctx, child, job, &sig);
                        out.push(CardEntry {
                            job,
                            placement: sig.placement,
                            batches: sig.batches,
                            gpus: sig.gpus,
                            u: utilisation_factor(sig.gpus, x),
                        });
                    }
                }
                out
            }
        };
        entries.sort_unstable_by_key(|e| e.job);
        ScoreCard { entries }
    }

    fn find(&self, job: JobId) -> Option<&CardEntry> {
        self.entries
            .binary_search_by_key(&job, |e| e.job)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Number of placed jobs on the card.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the card covers no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The card's entries, ascending by job id.
    #[must_use]
    pub fn entries(&self) -> &[CardEntry] {
        &self.entries
    }

    /// Eq 8 total: `Σ_j Y_j · u_j` over jobs present in both the card and
    /// the workload table, in ascending job order — the same terms in the
    /// same order as [`score_schedule`], hence bit-identical.
    #[must_use]
    pub fn score(&self, remaining: &RemainingWorkloads) -> f64 {
        // Both sides are ascending by job id: lockstep merge.
        let mut total = 0.0;
        let mut ri = 0usize;
        let rem = &remaining.entries;
        for e in &self.entries {
            while ri < rem.len() && rem[ri].0 < e.job {
                ri += 1;
            }
            if ri < rem.len() && rem[ri].0 == e.job {
                total += rem[ri].1 * e.u;
            }
        }
        total
    }
}

/// Resolves one job's throughput for a known signature, via the cache
/// when installed (the same keys [`score_schedule`] uses).
fn resolve_throughput(
    ctx: &EvoContext<'_>,
    schedule: &Schedule,
    job: JobId,
    sig: &JobSignature,
) -> f64 {
    let compute = || {
        let profile = ctx.profile(job);
        let batches = schedule.local_batches(job);
        let placement = schedule.placement(job);
        ctx.view.perf.throughput(&profile, &batches, &placement)
    };
    match ctx.cache {
        Some(cache) => cache.get_or_insert_with((job, sig.placement, sig.batches), compute),
        None => compute(),
    }
}

/// [`resolve_throughput`] for a job known to occupy one contiguous block:
/// the miss path reads only the block's slots instead of re-walking the
/// whole schedule.
fn resolve_throughput_run(
    ctx: &EvoContext<'_>,
    child: &Schedule,
    run: &JobRun,
    sig: &JobSignature,
) -> f64 {
    let compute = || {
        let profile = ctx.profile(run.job);
        let batches: Vec<u32> = child.slots()[run.start as usize..(run.start + run.len) as usize]
            .iter()
            .map(|s| s.expect("layout block is dense").local_batch)
            .collect();
        let placement = ones_cluster::Placement::contiguous(run.start, run.len);
        ctx.view.perf.throughput(&profile, &batches, &placement)
    };
    match ctx.cache {
        Some(cache) => cache.get_or_insert_with((run.job, sig.placement, sig.batches), compute),
        None => compute(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::testutil::*;
    use ones_cluster::GpuId;
    use proptest::prelude::*;

    #[test]
    fn empty_schedule_scores_zero() {
        let fx = Fixture::new(2);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(1);
        let rhos = sample_rhos(&c, &mut rng);
        assert_eq!(score_schedule(&c, &Schedule::empty(8), &rhos), 0.0);
    }

    #[test]
    fn rho_samples_cover_all_jobs_and_are_clamped() {
        let fx = Fixture::new(5);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(2);
        let rhos = sample_rhos(&c, &mut rng);
        assert_eq!(rhos.len(), 5);
        for &r in rhos.values() {
            assert!((MIN_RHO..1.0).contains(&r));
        }
    }

    #[test]
    fn nearly_done_job_scores_below_fresh_job() {
        // Same placement; the job predicted nearly complete has a far
        // smaller remaining utilisation (SRUF prefers it).
        let mut fx = Fixture::new(2);
        fx.start_job(0, 30);
        fx.start_job(1, 30);
        fx.betas
            .insert(ones_workload::JobId(0), ones_stats::Beta::new(30.0, 1.0)); // almost done
        fx.betas
            .insert(ones_workload::JobId(1), ones_stats::Beta::new(1.0, 30.0)); // barely started
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(3);
        let rhos = sample_rhos(&c, &mut rng);

        let mut near = Schedule::empty(8);
        near.assign(GpuId(0), ones_workload::JobId(0), 256);
        let mut fresh = Schedule::empty(8);
        fresh.assign(GpuId(0), ones_workload::JobId(1), 256);

        assert!(
            score_schedule(&c, &near, &rhos) < score_schedule(&c, &fresh, &rhos),
            "SRUF must prefer the nearly-finished job"
        );
    }

    #[test]
    fn more_gpus_for_same_job_can_cost_more_utilisation() {
        // SRUF (vs SRPT) exists because T·c grows when extra GPUs give
        // sub-linear speedup. An 8-GPU (2-node) allocation must score worse
        // than 1 GPU for a communication-bound small job.
        let mut fx = Fixture::new(1);
        fx.start_job(0, 10);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut rng = DetRng::seed(7);
        let rhos = sample_rhos(&c, &mut rng);

        let mut one = Schedule::empty(8);
        c.assign_evenly(&mut one, ones_workload::JobId(0), &[GpuId(0)]);
        let mut eight = Schedule::empty(8);
        c.assign_evenly(
            &mut eight,
            ones_workload::JobId(0),
            &(0..8).map(GpuId).collect::<Vec<_>>(),
        );
        let s1 = score_schedule(&c, &one, &rhos);
        let s8 = score_schedule(&c, &eight, &rhos);
        assert!(
            s8 > s1,
            "8 GPUs at fixed batch should waste utilisation: s1={s1}, s8={s8}"
        );
    }

    #[test]
    fn zero_throughput_candidates_lose() {
        // A placed job with zero modelled throughput used to contribute
        // nothing to its candidate's score, making GPU-wasting placements
        // look cheap. The penalty must make such candidates lose.
        let mut fx = Fixture::new(2);
        fx.start_job(0, 5);
        fx.start_job(1, 5);
        let view = fx.view();
        let cache = crate::cache::ThroughputCache::new();
        let c = ctx(&fx, &view).with_cache(&cache);

        let mut healthy = Schedule::empty(8);
        healthy.assign(GpuId(0), ones_workload::JobId(0), 256);
        let mut starved = Schedule::empty(8);
        starved.assign(GpuId(0), ones_workload::JobId(1), 256);
        let sig = starved
            .job_signature(ones_workload::JobId(1), c.gpus_per_node())
            .unwrap();
        cache.get_or_insert_with(
            (ones_workload::JobId(1), sig.placement, sig.batches),
            || 0.0,
        );

        let mut rng = DetRng::seed(4);
        let rhos = sample_rhos(&c, &mut rng);
        let s_healthy = score_schedule(&c, &healthy, &rhos);
        let s_starved = score_schedule(&c, &starved, &rhos);
        assert!(s_starved.is_finite(), "penalty must keep scores finite");
        assert!(
            s_starved > s_healthy * 1.0e6,
            "starved candidate must be crushed: {s_starved} vs {s_healthy}"
        );
    }

    /// The full-rescore oracle: every candidate scored from scratch by
    /// [`score_schedule`] against one shared ρ-sample.
    fn score_all(
        ctx: &EvoContext<'_>,
        candidates: &[Schedule],
        rhos: &BTreeMap<JobId, f64>,
    ) -> Vec<f64> {
        candidates
            .iter()
            .map(|s| score_schedule(ctx, s, rhos))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Scoring through a shared [`ThroughputCache`] returns exactly the
        /// scores uncached evaluation produces, for arbitrary candidate
        /// pools — the cache key (job + placement/batch signature) never
        /// aliases distinct configurations.
        #[test]
        fn cached_scoring_matches_uncached(
            pool in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::option::of((0u64..6, 1u32..2048)), 8),
                1..12),
            running_mask in 0u64..64,
            seed in 0u64..1000,
        ) {
            let fx = Fixture::varied(6, running_mask, &[1, 4, 9]);
            let view = fx.view();
            let c = ctx(&fx, &view);
            let cache = crate::cache::ThroughputCache::new();
            let cached = c.with_cache(&cache);
            let candidates: Vec<Schedule> = pool.iter().map(|s| genome(s)).collect();
            let rhos = sample_rhos(&c, &mut DetRng::seed(seed));

            let plain = score_all(&c, &candidates, &rhos);
            // Score twice through the cache: the first pass populates it,
            // the second is served mostly by hits — both must match
            // bit-for-bit.
            let first = score_all(&cached, &candidates, &rhos);
            let second = score_all(&cached, &candidates, &rhos);
            prop_assert_eq!(&plain, &first);
            prop_assert_eq!(&plain, &second);
        }

        /// Delta-derived score cards are bit-identical to full rebuilds for
        /// every op kind (refresh, crossover — both children —, mutation,
        /// direct fill, and the reorder layout fast path), for arbitrary
        /// genomes and live state.
        #[test]
        fn delta_cards_match_full_rescore_for_every_op(
            a_slots in proptest::collection::vec(
                proptest::option::of((0u64..6, 1u32..2048)), 8),
            b_slots in proptest::collection::vec(
                proptest::option::of((0u64..6, 1u32..2048)), 8),
            running_mask in 0u64..64,
            rate in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            use crate::ops;
            let fx = Fixture::varied(6, running_mask, &[1, 3, 9]);
            let view = fx.view();
            let cache = crate::cache::ThroughputCache::new();
            let c = ctx(&fx, &view).with_cache(&cache);
            let a = genome(&a_slots);
            let b = genome(&b_slots);
            let card_a = ScoreCard::build(&c, &a);
            let card_b = ScoreCard::build(&c, &b);
            let no_dirty = DirtySet::new();
            let mut rng = DetRng::seed(seed);

            // refresh, then the reorder layout path on its output.
            let (r, rdirty) = ops::refresh(&c, &a, &mut rng);
            let derived = ScoreCard::derive(&c, &r, &card_a, &rdirty, None);
            assert_card_matches_full(&c, &r, &derived)?;
            let (packed, layout) = r.reordered_with_layout();
            let derived_packed = ScoreCard::derive(&c, &packed, &derived, &no_dirty, Some(&layout));
            assert_card_matches_full(&c, &packed, &derived_packed)?;

            // crossover: one dirty set serves both children's derivations.
            let (c1, c2, xdirty) = ops::crossover(&a, &b, &mut rng);
            let d1 = ScoreCard::derive(&c, &c1, &card_a, &xdirty, None);
            assert_card_matches_full(&c, &c1, &d1)?;
            let d2 = ScoreCard::derive(&c, &c2, &card_b, &xdirty, None);
            assert_card_matches_full(&c, &c2, &d2)?;

            // mutate (preempt + refill), then reorder on top — the search's
            // real derive pipeline for a mutant.
            let (m, mdirty) = ops::mutate(&c, &a, rate, &mut rng, &mut ops::FillStats::default());
            let dm = ScoreCard::derive(&c, &m, &card_a, &mdirty, None);
            assert_card_matches_full(&c, &m, &dm)?;
            let (mp, mlayout) = m.reordered_with_layout();
            let dmp = ScoreCard::derive(&c, &mp, &dm, &no_dirty, Some(&mlayout));
            assert_card_matches_full(&c, &mp, &dmp)?;

            // fill_idle applied in place.
            let mut f = a.clone();
            let fdirty = ops::fill_idle(&c, &mut f, &mut rng, &mut ops::FillStats::default());
            let df = ScoreCard::derive(&c, &f, &card_a, &fdirty, None);
            assert_card_matches_full(&c, &f, &df)?;
        }
    }
}
