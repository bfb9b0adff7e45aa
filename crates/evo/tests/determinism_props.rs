//! Property-based determinism tests for the hot-loop accelerations:
//! the search-scoped throughput cache (with per-job invalidation),
//! delta scoring over per-op dirty sets, and parallel candidate
//! derivation are pure optimisations, so for *any* live state and seed
//! they must leave scores and selected schedules bit-identical.

use ones_cluster::{ClusterSpec, GpuId};
use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind, PerfModel};
use ones_evo::{
    ops, sample_rhos, EvoConfig, EvoContext, EvolutionarySearch, ScoreCard, ThroughputCache,
};
use ones_schedcore::{ClusterView, JobPhase, JobStatus, Schedule};
use ones_simcore::{DetRng, SimTime};
use ones_stats::Beta;
use ones_workload::{JobId, JobSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

const GPUS: u32 = 8;

struct Fixture {
    spec: ClusterSpec,
    perf: PerfModel,
    jobs: BTreeMap<JobId, JobStatus>,
    deployed: Schedule,
    limits: BTreeMap<JobId, u32>,
    betas: BTreeMap<JobId, Beta>,
}

fn fixture(n_jobs: u64, running_mask: u64, epochs: &[u32]) -> Fixture {
    let spec = ClusterSpec::new(2, 4);
    let mut jobs = BTreeMap::new();
    let mut limits = BTreeMap::new();
    let mut betas = BTreeMap::new();
    for i in 0..n_jobs {
        let js = JobSpec {
            id: JobId(i),
            name: format!("j{i}"),
            model: ModelKind::ResNet18,
            dataset: DatasetKind::Cifar10,
            dataset_size: 20_000,
            submit_batch: 256,
            max_safe_batch: 4096,
            requested_gpus: 1,
            arrival_secs: i as f64,
            kill_after_secs: None,
            convergence: ConvergenceModel {
                reference_batch: 256,
                ..ConvergenceModel::example()
            },
        };
        let mut st = JobStatus::submitted(js, SimTime::from_secs(i as f64));
        if running_mask & (1 << i) != 0 {
            let e = epochs[(i as usize) % epochs.len()];
            st.phase = JobPhase::Running;
            st.first_start = Some(SimTime::from_secs(i as f64));
            st.epochs_done = e;
            st.samples_processed = f64::from(e) * 20_000.0;
            st.exec_time = f64::from(e) * 8.0;
        }
        limits.insert(JobId(i), 256 << (i % 4));
        betas.insert(
            JobId(i),
            Beta::new(1.0 + (i % 7) as f64, 3.0 + (i % 11) as f64),
        );
        jobs.insert(JobId(i), st);
    }
    Fixture {
        spec,
        perf: PerfModel::new(spec),
        jobs,
        deployed: Schedule::empty(GPUS),
        limits,
        betas,
    }
}

/// A random (possibly illegal w.r.t. limits) genome over the fixture jobs.
fn genome(slots: &[Option<(u64, u32)>]) -> Schedule {
    let mut s = Schedule::empty(GPUS);
    for (i, slot) in slots.iter().enumerate() {
        if let Some((job, batch)) = slot {
            s.assign(GpuId(i as u32), JobId(*job), (*batch).max(1));
        }
    }
    s
}

/// Asserts a delta-derived card is bit-identical to a from-scratch one,
/// entry by entry (jobs, signatures, and the `u` factors' exact bits).
fn assert_card_matches_full(
    ctx: &EvoContext<'_>,
    child: &Schedule,
    derived: &ScoreCard,
) -> Result<(), TestCaseError> {
    let full = ScoreCard::build(ctx, child);
    prop_assert_eq!(derived.len(), full.len(), "card covers wrong job set");
    for (d, f) in derived.entries().iter().zip(full.entries()) {
        prop_assert_eq!(d.job, f.job);
        prop_assert_eq!(d.placement, f.placement, "{}: placement hash", d.job);
        prop_assert_eq!(d.batches, f.batches, "{}: batches hash", d.job);
        prop_assert_eq!(d.gpus, f.gpus, "{}: gpu count", d.job);
        prop_assert_eq!(
            d.u.to_bits(),
            f.u.to_bits(),
            "{}: u factor diverged ({} vs {})",
            d.job,
            d.u,
            f.u
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scoring through a shared [`ThroughputCache`] returns exactly the
    /// scores uncached evaluation produces, for arbitrary candidate pools
    /// — the cache key (job + placement/batch signature) never aliases
    /// distinct configurations.
    #[test]
    fn cached_scoring_matches_uncached(
        pool in proptest::collection::vec(
            proptest::collection::vec(
                proptest::option::of((0u64..6, 1u32..2048)), GPUS as usize),
            1..12),
        running_mask in 0u64..64,
        seed in 0u64..1000,
    ) {
        let fx = fixture(6, running_mask, &[1, 4, 9]);
        let view = ClusterView {
            now: SimTime::from_secs(500.0),
            spec: &fx.spec,
            perf: &fx.perf,
            jobs: &fx.jobs,
            deployed: &fx.deployed,
        };
        let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
        let cache = ThroughputCache::new();
        let cached_ctx = ctx.with_cache(&cache);
        let candidates: Vec<Schedule> = pool.iter().map(|s| genome(s)).collect();
        let rhos = sample_rhos(&ctx, &mut DetRng::seed(seed));

        let plain = ones_evo::scoring::score_all(&ctx, &candidates, &rhos);
        // Score twice through the cache: the first pass populates it, the
        // second is served mostly by hits — both must match bit-for-bit.
        let first = ones_evo::scoring::score_all(&cached_ctx, &candidates, &rhos);
        let second = ones_evo::scoring::score_all(&cached_ctx, &candidates, &rhos);
        prop_assert_eq!(&plain, &first);
        prop_assert_eq!(&plain, &second);
    }

    /// A full generation is bit-identical across all four feature
    /// combinations (cache × parallel derivation), for arbitrary live
    /// state and seeds.
    #[test]
    fn generation_invariant_under_cache_and_parallelism(
        running_mask in 0u64..64,
        seed in 0u64..500,
    ) {
        let fx = fixture(6, running_mask, &[1, 2, 8, 20]);
        let view = ClusterView {
            now: SimTime::from_secs(300.0),
            spec: &fx.spec,
            perf: &fx.perf,
            jobs: &fx.jobs,
            deployed: &fx.deployed,
        };
        let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);

        let mut searches: Vec<EvolutionarySearch> = [
            (false, false),
            (false, true),
            (true, false),
            (true, true),
        ]
        .iter()
        .map(|&(use_cache, parallel_derive)| {
            let mut cfg = EvoConfig::for_cluster(GPUS);
            cfg.use_cache = use_cache;
            cfg.parallel_derive = parallel_derive;
            EvolutionarySearch::new(cfg, DetRng::seed(seed))
        })
        .collect();

        for g in 0..2 {
            let reference = searches[0].generation(&ctx);
            for (v, s) in searches.iter_mut().enumerate().skip(1) {
                let best = s.generation(&ctx);
                prop_assert_eq!(
                    &reference, &best,
                    "S_* diverged for variant {} at generation {}", v, g
                );
            }
            for (v, s) in searches.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    searches[0].population(), s.population(),
                    "population diverged for variant {} at generation {}", v, g
                );
            }
        }
    }

    /// Delta-derived score cards are bit-identical to full rebuilds for
    /// every op kind (refresh, crossover — both children —, mutation,
    /// direct fill, and the reorder layout fast path), for arbitrary
    /// genomes and live state.
    #[test]
    fn delta_cards_match_full_rescore_for_every_op(
        a_slots in proptest::collection::vec(
            proptest::option::of((0u64..6, 1u32..2048)), GPUS as usize),
        b_slots in proptest::collection::vec(
            proptest::option::of((0u64..6, 1u32..2048)), GPUS as usize),
        running_mask in 0u64..64,
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let fx = fixture(6, running_mask, &[1, 3, 9]);
        let view = ClusterView {
            now: SimTime::from_secs(500.0),
            spec: &fx.spec,
            perf: &fx.perf,
            jobs: &fx.jobs,
            deployed: &fx.deployed,
        };
        let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
        let cache = ThroughputCache::new();
        let ctx = ctx.with_cache(&cache);
        let a = genome(&a_slots);
        let b = genome(&b_slots);
        let card_a = ScoreCard::build(&ctx, &a);
        let card_b = ScoreCard::build(&ctx, &b);
        let no_dirty = ones_schedcore::DirtySet::new();
        let mut rng = DetRng::seed(seed);

        // refresh, then the reorder layout path on its output.
        let (r, rdirty) = ops::refresh(&ctx, &a, &mut rng);
        let derived = ScoreCard::derive(&ctx, &r, &card_a, &rdirty, None);
        assert_card_matches_full(&ctx, &r, &derived)?;
        let (packed, layout) = r.reordered_with_layout();
        let derived_packed = ScoreCard::derive(&ctx, &packed, &derived, &no_dirty, Some(&layout));
        assert_card_matches_full(&ctx, &packed, &derived_packed)?;

        // crossover: one dirty set serves both children's derivations.
        let (c1, c2, xdirty) = ops::crossover(&a, &b, &mut rng);
        let d1 = ScoreCard::derive(&ctx, &c1, &card_a, &xdirty, None);
        assert_card_matches_full(&ctx, &c1, &d1)?;
        let d2 = ScoreCard::derive(&ctx, &c2, &card_b, &xdirty, None);
        assert_card_matches_full(&ctx, &c2, &d2)?;

        // mutate (preempt + refill), then reorder on top — the search's
        // real derive pipeline for a mutant.
        let (m, mdirty) = ops::mutate(&ctx, &a, rate, &mut rng, &mut ops::FillStats::default());
        let dm = ScoreCard::derive(&ctx, &m, &card_a, &mdirty, None);
        assert_card_matches_full(&ctx, &m, &dm)?;
        let (mp, mlayout) = m.reordered_with_layout();
        let dmp = ScoreCard::derive(&ctx, &mp, &dm, &no_dirty, Some(&mlayout));
        assert_card_matches_full(&ctx, &mp, &dmp)?;

        // fill_idle applied in place.
        let mut f = a.clone();
        let fdirty = ops::fill_idle(&ctx, &mut f, &mut rng, &mut ops::FillStats::default());
        let df = ScoreCard::derive(&ctx, &f, &card_a, &fdirty, None);
        assert_card_matches_full(&ctx, &f, &df)?;
    }

    /// A persistent delta-scored search whose cross-generation cache is
    /// invalidated per job event stays bit-identical to a plain search
    /// (no cache, no delta scoring) over a replay trace with kills,
    /// arrivals and epoch ends mutating the live state between
    /// generations.
    #[test]
    fn persistent_cache_with_invalidation_matches_plain_search(
        kills in proptest::collection::vec(0u64..6, 1..4),
        seed in 0u64..500,
    ) {
        let mut fx = fixture(6, 0b111, &[1, 2, 8]);
        let delta_cfg = EvoConfig::for_cluster(GPUS);
        prop_assert!(delta_cfg.delta_score && delta_cfg.use_cache);
        let mut plain_cfg = delta_cfg;
        plain_cfg.use_cache = false;
        plain_cfg.delta_score = false;
        plain_cfg.parallel_derive = false;
        let mut delta = EvolutionarySearch::new(delta_cfg, DetRng::seed(seed));
        let mut plain = EvolutionarySearch::new(plain_cfg, DetRng::seed(seed));

        for (step, &k) in kills.iter().enumerate() {
            {
                let view = ClusterView {
                    now: SimTime::from_secs(100.0 * (step as f64 + 1.0)),
                    spec: &fx.spec,
                    perf: &fx.perf,
                    jobs: &fx.jobs,
                    deployed: &fx.deployed,
                };
                let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
                let b_delta = delta.generation(&ctx);
                let b_plain = plain.generation(&ctx);
                prop_assert_eq!(&b_delta, &b_plain, "S_* diverged at step {}", step);
                prop_assert_eq!(
                    delta.population(), plain.population(),
                    "population diverged at step {}", step
                );
            }

            // Kill job k (trace kill / completion).
            let killed = JobId(k);
            fx.jobs.get_mut(&killed).unwrap().phase = JobPhase::Completed;
            delta.invalidate_job(killed);
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
                delta.invalidate_job(id);
            }
            // A new job arrives.
            let new_id = JobId(100 + step as u64);
            let js = JobSpec {
                id: new_id,
                name: format!("arrival{step}"),
                model: ModelKind::ResNet18,
                dataset: DatasetKind::Cifar10,
                dataset_size: 20_000,
                submit_batch: 256,
                max_safe_batch: 4096,
                requested_gpus: 1,
                arrival_secs: 100.0 * (step as f64 + 1.0),
                kill_after_secs: None,
                convergence: ConvergenceModel {
                    reference_batch: 256,
                    ..ConvergenceModel::example()
                },
            };
            fx.jobs.insert(
                new_id,
                JobStatus::submitted(js, SimTime::from_secs(100.0 * (step as f64 + 1.0))),
            );
            fx.limits.insert(new_id, 256);
            fx.betas.insert(new_id, Beta::new(1.0, 3.0));
            delta.invalidate_job(new_id);
        }

        // One final generation over the fully mutated state.
        let view = ClusterView {
            now: SimTime::from_secs(1_000.0),
            spec: &fx.spec,
            perf: &fx.perf,
            jobs: &fx.jobs,
            deployed: &fx.deployed,
        };
        let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
        prop_assert_eq!(delta.generation(&ctx), plain.generation(&ctx));
        prop_assert_eq!(delta.population(), plain.population());
        // The persistent cache must actually have been reused across
        // generations (warm hits) for the test to mean anything.
        prop_assert!(
            delta.perf_counters().cache_hits_last_gen > 0,
            "final generation never hit the warm cache"
        );
    }
}
