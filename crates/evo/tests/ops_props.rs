//! Property-based tests for the evolution operations: whatever random
//! genomes and live state they are given, the operators must emit legal
//! schedules (memory limits, batch limits, no phantom jobs) — illegal
//! candidates would be rejected by the simulator's deploy validation and
//! crash the scheduler. The incremental fill is also pinned to a
//! rescanning oracle: identical schedules, dirty sets and ρ draws.

use ones_cluster::{ClusterSpec, GpuId};
use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind, PerfModel};
use ones_evo::ops::FillStats;
use ones_evo::{ops, scoring, EvoConfig, EvoContext, EvolutionarySearch, ThroughputCache};
use ones_schedcore::{ClusterView, DirtySet, JobPhase, JobStatus, Schedule};
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
    fixture_on(ClusterSpec::new(2, 4), n_jobs, running_mask, epochs)
}

fn fixture_on(spec: ClusterSpec, n_jobs: u64, running_mask: u64, epochs: &[u32]) -> Fixture {
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
        deployed: Schedule::empty(spec.total_gpus()),
        limits,
        betas,
    }
}

/// A random (possibly illegal w.r.t. limits) genome over the fixture jobs,
/// one slot per GPU.
fn genome(slots: &[Option<(u64, u32)>]) -> Schedule {
    let mut s = Schedule::empty(slots.len() as u32);
    for (i, slot) in slots.iter().enumerate() {
        if let Some((job, batch)) = slot {
            s.assign(GpuId(i as u32), JobId(*job), (*batch).max(1));
        }
    }
    s
}

fn assert_legal(fx: &Fixture, s: &Schedule) -> Result<(), TestCaseError> {
    s.validate(&fx.spec, |j| {
        fx.jobs
            .get(&j)
            .map_or(0, |st| st.spec.profile().max_local_batch)
    })
    .map_err(TestCaseError::fail)?;
    for (job, (batch, _)) in s.running_jobs() {
        prop_assert!(fx.jobs.contains_key(&job), "phantom job {job}");
        prop_assert!(
            batch <= *fx.limits.get(&job).unwrap_or(&u32::MAX),
            "{job} over its limit"
        );
        prop_assert!(
            !fx.jobs[&job].is_completed(),
            "{job} is completed but scheduled"
        );
    }
    Ok(())
}

/// The fill as it stood before the incremental index, kept as the oracle
/// the production fill must match: every round rebuilds the idle list and
/// the running-job table from the slots, and recomputes every running
/// job's utilisation. Probes materialise the trial schedule they describe,
/// the definition `EvoContext::probe_throughput` is pinned to. The ρ-draw
/// contract: a scale-up fill that takes no action leaves `rng` where it
/// found it; a resume-only fill always draws.
fn fill_by_rescan(
    ctx: &EvoContext<'_>,
    s: &mut Schedule,
    rng: &mut DetRng,
    allow_scale_up: bool,
) -> DirtySet {
    enum FillAction {
        Resume(JobId),
        ScaleUp(JobId, usize),
    }
    let probe = |s: &Schedule, job: JobId, gpus: &[GpuId]| {
        let mut trial = s.clone();
        trial.evict(job);
        ctx.assign_evenly(&mut trial, job, gpus);
        ctx.throughput_in(&trial, job)
    };
    let utilisation = |s: &Schedule, job: JobId, rem: f64| {
        let x = ctx.throughput_in(s, job);
        if x <= 0.0 {
            return 0.0;
        }
        rem * f64::from(s.gpu_count(job)) / x
    };
    let undrawn = rng.clone();
    let rhos = scoring::sample_rhos(ctx, rng);
    let mut dirty = DirtySet::new();
    loop {
        let idle = s.idle_gpus();
        if idle.is_empty() {
            break;
        }
        let running = s.running_jobs();
        let mut best: Option<(f64, FillAction)> = None;
        for j in ctx.schedulable() {
            let job = j.id();
            if running.contains_key(&job) {
                continue;
            }
            let Some(&rho) = rhos.get(&job) else { continue };
            let x = probe(s, job, &idle[..1]);
            if x <= 0.0 {
                continue;
            }
            let delta = ctx.remaining_workload(job, rho) / x;
            if best.as_ref().is_none_or(|(d, _)| delta < *d) {
                best = Some((delta, FillAction::Resume(job)));
            }
        }
        if let Some((_, FillAction::Resume(job))) = best {
            ctx.assign_evenly(s, job, &[idle[0]]);
            dirty.insert(job);
            continue;
        }
        if !allow_scale_up {
            break;
        }
        for (&job, &(batch, gpus)) in &running {
            let limit = ctx.limit(job);
            if batch >= limit {
                continue;
            }
            let Some(&rho) = rhos.get(&job) else { continue };
            let max_extra = ((limit * gpus / batch).saturating_sub(gpus) as usize).min(idle.len());
            if max_extra == 0 {
                continue;
            }
            let rem = ctx.remaining_workload(job, rho);
            let before_u = utilisation(s, job, rem);
            let held: Vec<GpuId> = s.placement(job).gpus().to_vec();
            let mut extra = 1usize;
            loop {
                let mut all = held.clone();
                all.extend(idle.iter().copied().take(extra));
                let x = probe(s, job, &all);
                let after_u = if x <= 0.0 {
                    0.0
                } else {
                    rem * (all.len() as f64) / x
                };
                let delta = after_u - before_u;
                if best.as_ref().is_none_or(|(d, _)| delta < *d) {
                    best = Some((delta, FillAction::ScaleUp(job, extra)));
                }
                if extra == max_extra {
                    break;
                }
                extra = (extra * 2).min(max_extra);
            }
        }
        match best {
            Some((_, FillAction::Resume(job))) => {
                ctx.assign_evenly(s, job, &[idle[0]]);
                dirty.insert(job);
            }
            Some((_, FillAction::ScaleUp(job, extra))) => {
                let mut all: Vec<GpuId> = s.placement(job).gpus().to_vec();
                all.extend(idle.iter().copied().take(extra));
                s.evict(job);
                ctx.assign_evenly(s, job, &all);
                dirty.insert(job);
            }
            None => break,
        }
    }
    if allow_scale_up && dirty.is_empty() {
        *rng = undrawn;
    }
    dirty
}

/// Runs the production fill and the oracle on the same genome and seed,
/// with and without a throughput cache, and asserts identical schedules,
/// dirty sets and RNG positions afterwards.
fn assert_fill_matches_oracle(
    ctx: &EvoContext<'_>,
    start: &Schedule,
    seed: u64,
    allow_scale_up: bool,
) -> Result<FillStats, TestCaseError> {
    let mut expect = start.clone();
    let mut oracle_rng = DetRng::seed(seed);
    let expect_dirty = fill_by_rescan(ctx, &mut expect, &mut oracle_rng, allow_scale_up);
    let expect_next = oracle_rng.uniform().to_bits();
    let cache = ThroughputCache::new();
    let mut stats = FillStats::default();
    for c in [*ctx, ctx.with_cache(&cache)] {
        let mut got = start.clone();
        let mut rng = DetRng::seed(seed);
        let mut call = FillStats::default();
        let dirty = if allow_scale_up {
            ops::fill_idle(&c, &mut got, &mut rng, &mut call)
        } else {
            ops::admit_waiting(&c, &mut got, &mut rng)
        };
        prop_assert_eq!(&got, &expect, "schedule diverged from the oracle");
        prop_assert_eq!(&dirty, &expect_dirty, "dirty set diverged from the oracle");
        prop_assert_eq!(
            rng.uniform().to_bits(),
            expect_next,
            "fill drew a different number of ρ"
        );
        stats = call;
    }
    Ok(stats)
}

/// With every schedulable job at its limit `R_j` and GPUs idle, no fill
/// action exists: a scale-up fill returns at once without drawing ρ, while
/// the resume-only fill draws ρ all the same.
#[test]
fn fill_without_action_draws_rho_only_when_resume_only() {
    let fx = fixture(4, 0b1111, &[3]);
    let view = ClusterView {
        now: SimTime::from_secs(500.0),
        spec: &fx.spec,
        perf: &fx.perf,
        jobs: &fx.jobs,
        deployed: &fx.deployed,
    };
    let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
    // Jobs 0–3 at their limits (256, 512, 1024, 2048), job 3 over two
    // GPUs to fit one GPU's memory; GPUs 5–7 idle.
    let at_limit = genome(&[
        Some((0, 256)),
        Some((1, 512)),
        Some((2, 1024)),
        Some((3, 1024)),
        Some((3, 1024)),
        None,
        None,
        None,
    ]);
    assert_legal(&fx, &at_limit).expect("the genome must be legal");
    let mut s = at_limit.clone();
    let mut rng = DetRng::seed(5);
    let mut stats = FillStats::default();
    let dirty = ops::fill_idle(&ctx, &mut s, &mut rng, &mut stats);
    assert!(
        dirty.is_empty(),
        "a job at its limit was scaled up: {dirty:?}"
    );
    assert_eq!(s, at_limit);
    assert_eq!(
        rng.uniform().to_bits(),
        DetRng::seed(5).uniform().to_bits(),
        "a fill with no action drew ρ"
    );
    assert_eq!(
        stats,
        FillStats {
            rounds: 1,
            probes: 0
        }
    );

    let mut rng = DetRng::seed(5);
    let dirty = ops::admit_waiting(&ctx, &mut s, &mut rng);
    assert!(dirty.is_empty(), "no job was waiting: {dirty:?}");
    assert_eq!(s, at_limit);
    assert_ne!(
        rng.uniform().to_bits(),
        DetRng::seed(5).uniform().to_bits(),
        "the admission pass must draw ρ on every call"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// refresh() always emits a legal schedule, whatever stale genome it
    /// starts from.
    #[test]
    fn refresh_always_legal(
        slots in proptest::collection::vec(
            proptest::option::of((0u64..6, 1u32..4096)), GPUS as usize),
        running_mask in 0u64..64,
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
        let stale = genome(&slots);
        let mut rng = DetRng::seed(seed);
        let (refreshed, _) = ops::refresh(&ctx, &stale, &mut rng);
        assert_legal(&fx, &refreshed)?;
    }

    /// crossover children partition their parents' slots exactly.
    #[test]
    fn crossover_partitions_parents(
        a_slots in proptest::collection::vec(
            proptest::option::of((0u64..6, 1u32..512)), GPUS as usize),
        b_slots in proptest::collection::vec(
            proptest::option::of((0u64..6, 1u32..512)), GPUS as usize),
        seed in 0u64..1000,
    ) {
        let a = genome(&a_slots);
        let b = genome(&b_slots);
        let mut rng = DetRng::seed(seed);
        let (c1, c2, dirty) = ops::crossover(&a, &b, &mut rng);
        for g in 0..GPUS {
            let gpu = GpuId(g);
            let child = [c1.slot(gpu), c2.slot(gpu)];
            let parent = [a.slot(gpu), b.slot(gpu)];
            let direct = child[0] == parent[0] && child[1] == parent[1];
            let swapped = child[0] == parent[1] && child[1] == parent[0];
            prop_assert!(direct || swapped, "gpu {g}: slots invented or lost");
            // Dirty-set contract: any slot that changed relative to the
            // same-side parent names only dirty jobs.
            if child[0] != parent[0] {
                for slot in [child[0], parent[0], child[1], parent[1]].into_iter().flatten() {
                    prop_assert!(dirty.contains(&slot.job), "gpu {g}: changed job not dirty");
                }
            }
        }
    }

    /// mutate() emits legal schedules at any rate.
    #[test]
    fn mutate_always_legal(
        slots in proptest::collection::vec(
            proptest::option::of((0u64..6, 1u32..256)), GPUS as usize),
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let fx = fixture(6, 0b111111, &[2, 5]);
        let view = ClusterView {
            now: SimTime::from_secs(500.0),
            spec: &fx.spec,
            perf: &fx.perf,
            jobs: &fx.jobs,
            deployed: &fx.deployed,
        };
        let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
        let mut rng = DetRng::seed(seed);
        let (mutated, _) =
            ops::mutate(&ctx, &genome(&slots), rate, &mut rng, &mut FillStats::default());
        // Mutation fills via resume/scale-up which respect limits; the
        // input genome itself may be over-limit, so only check structure +
        // no phantom/completed jobs here plus memory validity.
        mutated
            .validate(&fx.spec, |j| {
                fx.jobs.get(&j).map_or(0, |st| st.spec.profile().max_local_batch)
            })
            .map_err(TestCaseError::fail)?;
    }

    /// A full generation emits only legal members, for arbitrary live
    /// state.
    #[test]
    fn generation_population_always_legal(
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
        let mut search = EvolutionarySearch::new(EvoConfig::for_cluster(GPUS), DetRng::seed(seed));
        let best = search.generation(&ctx);
        assert_legal(&fx, &best)?;
        for member in search.population() {
            assert_legal(&fx, member)?;
        }
    }

    /// The incremental fill reproduces the rescanning oracle exactly, on
    /// genomes with idle GPUs, jobs unknown to the view (ids 6 and 7) and
    /// jobs over their limits, in both scale-up and resume-only modes.
    #[test]
    fn fill_matches_rescanning_oracle(
        slots in proptest::collection::vec(
            proptest::option::of((0u64..8, 1u32..300)), 16usize),
        idle_mask in 0u32..(1 << 16),
        running_mask in 0u64..64,
        completed in 0u64..8,
        roomy in 0u64..64,
        seed in 0u64..1000,
    ) {
        let mut fx = fixture_on(ClusterSpec::new(4, 4), 6, running_mask, &[1, 3, 9, 20]);
        if let Some(st) = fx.jobs.get_mut(&JobId(completed)) {
            st.phase = JobPhase::Completed;
        }
        let tight = fx.limits.clone();
        // Limits above one GPU's memory let a job scale up round after
        // round instead of reaching its limit in one step.
        for (job, limit) in &mut fx.limits {
            if roomy & (1 << job.0) != 0 {
                *limit = 16_384;
            }
        }
        let view = ClusterView {
            now: SimTime::from_secs(500.0),
            spec: &fx.spec,
            perf: &fx.perf,
            jobs: &fx.jobs,
            deployed: &fx.deployed,
        };
        let ctx = EvoContext::new(&view, &fx.limits, &fx.betas);
        // Clear extra GPUs so most cases leave several idle.
        let slots: Vec<Option<(u64, u32)>> = slots
            .iter()
            .enumerate()
            .map(|(g, slot)| slot.filter(|_| idle_mask & (1 << g) == 0))
            .collect();
        let start = genome(&slots);
        assert_fill_matches_oracle(&ctx, &start, seed, true)?;
        assert_fill_matches_oracle(&ctx, &start, seed, false)?;
        // The fully idle and fully busy extremes.
        assert_fill_matches_oracle(&ctx, &Schedule::empty(16), seed, true)?;
        let busy = genome(&vec![Some((7, 8)); 16]);
        let stats = assert_fill_matches_oracle(&ctx, &busy, seed, true)?;
        prop_assert_eq!(stats, FillStats::default(), "a full schedule needs no round");
        // Every schedulable job at its (unraised) limit with GPUs to
        // spare: no action exists, so neither side may draw ρ.
        let tight_ctx = EvoContext::new(&view, &tight, &fx.betas);
        let mut at_limit = Schedule::empty(16);
        let mut free = (0..16).map(GpuId);
        for job in tight_ctx.schedulable() {
            let workers = tight_ctx.limit(job.id()).div_ceil(job.spec.profile().max_local_batch);
            let gpus: Vec<GpuId> = free.by_ref().take(workers as usize).collect();
            tight_ctx.assign_evenly(&mut at_limit, job.id(), &gpus);
        }
        prop_assert!(at_limit.idle_count() > 0);
        let stats = assert_fill_matches_oracle(&tight_ctx, &at_limit, seed, true)?;
        prop_assert_eq!(stats, FillStats { rounds: 1, probes: 0 }, "no action exists");
    }
}
