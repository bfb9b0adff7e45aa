//! Evolution context: the live state a generation is evaluated against.

use crate::cache::ThroughputCache;
use ones_cluster::{GpuId, Placement};
use ones_dlperf::ModelProfile;
use ones_schedcore::{ClusterView, JobStatus, Schedule, SignatureBuilder};
use ones_stats::Beta;
use ones_workload::JobId;
use std::collections::BTreeMap;

/// Floor on the processed-sample count used in utilisation estimates, in
/// *epochs*: Eq 7's `Y_processed (1/ρ − 1)` degenerates to zero for jobs
/// that have not run yet, so fresh jobs are treated as having processed a
/// small fraction of an epoch.
pub const MIN_PROCESSED_EPOCHS: f64 = 0.1;

/// Total batch [`EvoContext::assign_evenly`] gives a job over `c` workers:
/// `min(R_j, per-GPU capacity × c)`, at least one sample per worker.
#[must_use]
pub(crate) fn split_target(limit: u32, max_local_batch: u32, c: u32) -> u32 {
    limit.min(max_local_batch * c).max(c)
}

/// The workers of `held ∪ extra` in ascending GPU-id order, each with the
/// local batch an even split of `target` gives its *assignment* position
/// (`held` first, then `extra`; the remainder goes to the first-listed):
/// exactly the slots [`EvoContext::assign_evenly`] writes for the
/// concatenation `held ++ extra`. Both inputs must ascend and be disjoint.
pub(crate) fn split_workers<'a>(
    held: &'a [GpuId],
    extra: &'a [GpuId],
    target: u32,
) -> impl Iterator<Item = (GpuId, u32)> + Clone + 'a {
    let c = (held.len() + extra.len()) as u32;
    let (base, rem) = (target / c.max(1), target % c.max(1));
    let batch = move |pos: usize| (base + u32::from((pos as u32) < rem)).max(1);
    let (mut h, mut e) = (0, 0);
    std::iter::from_fn(move || {
        let from_held = match (held.get(h), extra.get(e)) {
            (Some(a), Some(b)) => a < b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if from_held {
            h += 1;
            Some((held[h - 1], batch(h - 1)))
        } else {
            e += 1;
            Some((extra[e - 1], batch(held.len() + e - 1)))
        }
    })
}

/// Everything one evolution generation needs, borrowed from the scheduler.
#[derive(Clone, Copy)]
pub struct EvoContext<'a> {
    /// Live cluster snapshot (telemetry, deployed schedule, perf model).
    pub view: &'a ClusterView<'a>,
    /// Per-job batch-size limits `R_j` maintained by the scaling policies
    /// (§3.3.2).
    pub limits: &'a BTreeMap<JobId, u32>,
    /// Per-job Beta progress predictions (Eq 6).
    pub betas: &'a BTreeMap<JobId, Beta>,
    /// Optional throughput memo table consulted by
    /// [`EvoContext::throughput_in`]. The memoised value is exact for a
    /// fixed view, so results are identical with or without it; the
    /// search owns one cache for its whole lifetime and invalidates
    /// per-job on view changes (see [`crate::cache`]).
    pub cache: Option<&'a ThroughputCache>,
}

impl<'a> EvoContext<'a> {
    /// An uncached context over borrowed scheduler state.
    #[must_use]
    pub fn new(
        view: &'a ClusterView<'a>,
        limits: &'a BTreeMap<JobId, u32>,
        betas: &'a BTreeMap<JobId, Beta>,
    ) -> Self {
        EvoContext {
            view,
            limits,
            betas,
            cache: None,
        }
    }

    /// The same context with throughput lookups memoised in `cache`.
    #[must_use]
    pub fn with_cache(&self, cache: &'a ThroughputCache) -> Self {
        EvoContext {
            cache: Some(cache),
            ..*self
        }
    }
}

impl EvoContext<'_> {
    /// Jobs that may appear in a schedule (not completed), in id order.
    #[must_use]
    pub fn schedulable(&self) -> Vec<&JobStatus> {
        self.view
            .jobs
            .values()
            .filter(|j| !j.is_completed())
            .collect()
    }

    /// Jobs that have never held a GPU (the *new* jobs the refresh
    /// operation places preferentially to avoid starvation).
    #[must_use]
    pub fn new_jobs(&self) -> Vec<&JobStatus> {
        self.schedulable()
            .into_iter()
            .filter(|j| j.first_start.is_none())
            .collect()
    }

    /// The batch-size limit `R_j`, defaulting to the submitted batch when
    /// the policy layer has not registered one.
    #[must_use]
    pub fn limit(&self, job: JobId) -> u32 {
        self.limits
            .get(&job)
            .copied()
            .unwrap_or_else(|| self.view.jobs.get(&job).map_or(1, |j| j.spec.submit_batch))
    }

    /// Model/dataset profile of a job.
    ///
    /// # Panics
    /// Panics if the job is unknown.
    #[must_use]
    pub fn profile(&self, job: JobId) -> ModelProfile {
        self.view.jobs[&job].spec.profile()
    }

    /// The Beta progress prediction for a job, with a weak default for
    /// jobs the predictor has not seen.
    #[must_use]
    pub fn beta(&self, job: JobId) -> Beta {
        self.betas
            .get(&job)
            .copied()
            .unwrap_or_else(|| Beta::new(1.0, 30.0))
    }

    /// GPUs per node of the cluster under evaluation — the parameter the
    /// placement-shape signatures fold.
    #[must_use]
    pub fn gpus_per_node(&self) -> u32 {
        self.view.spec.gpus_per_node
    }

    /// Throughput `X_j` of a job under a candidate schedule, samples/s.
    /// Zero if the job is not placed.
    ///
    /// When a [`ThroughputCache`] is installed the model is evaluated at
    /// most once per distinct `(job, placement shape, batches)`
    /// configuration; the cached value is the model's own output, so
    /// caching never changes a score.
    #[must_use]
    pub fn throughput_in(&self, schedule: &Schedule, job: JobId) -> f64 {
        let workers = schedule
            .slots()
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| {
                s.filter(|sl| sl.job == job)
                    .map(|sl| (GpuId(i as u32), sl.local_batch))
            });
        self.throughput_of(job, workers)
    }

    /// Throughput `X_j` of a *hypothetical* assignment: `job` keeping
    /// `held` and growing onto `extra` (both ascending and disjoint), a
    /// total batch of `target` (see [`split_target`]) split over
    /// `held ++ extra` as [`EvoContext::assign_evenly`] would, without
    /// materialising a trial schedule. Bit-identical to cloning the
    /// schedule, assigning, and calling [`EvoContext::throughput_in`].
    pub(crate) fn probe_throughput(
        &self,
        job: JobId,
        target: u32,
        held: &[GpuId],
        extra: &[GpuId],
    ) -> f64 {
        self.throughput_of(job, split_workers(held, extra, target))
    }

    /// Throughput of `job` running `workers` — `(GPU, local batch)` pairs
    /// in ascending GPU order — and zero when there are none. The walk
    /// folds straight into the [`Schedule::job_signature`] key, so a cache
    /// hit allocates nothing; the placement and batch vectors the model
    /// reads are built on a miss only.
    fn throughput_of(
        &self,
        job: JobId,
        workers: impl Iterator<Item = (GpuId, u32)> + Clone,
    ) -> f64 {
        let compute = || {
            let (gpus, batches): (Vec<GpuId>, Vec<u32>) = workers.clone().unzip();
            if gpus.is_empty() {
                return 0.0;
            }
            self.view
                .perf
                .throughput(&self.profile(job), &batches, &Placement::new(gpus))
        };
        match self.cache {
            Some(cache) => {
                let mut sig = SignatureBuilder::new(self.gpus_per_node());
                for (gpu, batch) in workers.clone() {
                    sig.push(gpu, batch);
                }
                match sig.finish() {
                    Some(sig) => {
                        cache.get_or_insert_with((job, sig.placement, sig.batches), compute)
                    }
                    None => 0.0,
                }
            }
            None => compute(),
        }
    }

    /// Processed samples with the fresh-job floor applied.
    #[must_use]
    pub fn processed_samples(&self, job: JobId) -> f64 {
        let j = &self.view.jobs[&job];
        j.samples_processed
            .max(MIN_PROCESSED_EPOCHS * j.spec.dataset_size as f64)
    }

    /// Estimated remaining workload of a job in samples, given a sampled
    /// completion fraction ρ (Eq 7).
    #[must_use]
    pub fn remaining_workload(&self, job: JobId, rho: f64) -> f64 {
        ones_predictor::remaining_workload(self.processed_samples(job), rho)
    }

    /// Assigns `job` across `gpus` with a total batch of
    /// `min(R_j, per-GPU capacity × |gpus|)`, split evenly. Returns the
    /// resulting global batch (0 if nothing could be assigned).
    pub fn assign_evenly(&self, schedule: &mut Schedule, job: JobId, gpus: &[GpuId]) -> u32 {
        if gpus.is_empty() {
            return 0;
        }
        let c = gpus.len() as u32;
        let target = split_target(self.limit(job), self.profile(job).max_local_batch, c);
        let base = target / c;
        let rem = target % c;
        for (i, &g) in gpus.iter().enumerate() {
            let b = base + u32::from((i as u32) < rem);
            schedule.assign(g, job, b.max(1));
        }
        schedule.global_batch(job)
    }

    /// Caps every job in `schedule` at its limit `R_j`: if `B_j > R_j` the
    /// job keeps `⌊R_j·c_j/B_j⌋` GPUs (the refresh scale-down rule) and its
    /// batch is re-split to `R_j`; a job that would keep zero GPUs is
    /// evicted. Returns the jobs whose configuration changed, for
    /// delta-scoring dirty sets. A schedule with no job over its limit —
    /// the common case — costs one slot walk and is left untouched.
    pub fn enforce_limits(&self, schedule: &mut Schedule) -> Vec<JobId> {
        let over: Vec<(JobId, (u32, u32))> = schedule
            .job_totals()
            .into_iter()
            .filter(|&(job, (batch, _))| batch > self.limit(job))
            .collect();
        for &(job, (batch, gpus)) in &over {
            let keep = (self.limit(job) * gpus / batch) as usize;
            let placement = schedule.placement(job);
            schedule.evict(job);
            if keep == 0 {
                continue;
            }
            let kept: Vec<GpuId> = placement.gpus().iter().copied().take(keep).collect();
            self.assign_evenly(schedule, job, &kept);
        }
        over.into_iter().map(|(job, _)| job).collect()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the evo test modules.

    use super::*;
    use ones_cluster::ClusterSpec;
    use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind, PerfModel};
    use ones_schedcore::{JobPhase, JobStatus};
    use ones_simcore::SimTime;
    use ones_workload::JobSpec;

    /// A self-owned bundle from which an `EvoContext` can be borrowed.
    pub struct Fixture {
        pub spec: ClusterSpec,
        pub perf: PerfModel,
        pub jobs: BTreeMap<JobId, JobStatus>,
        pub deployed: Schedule,
        pub limits: BTreeMap<JobId, u32>,
        pub betas: BTreeMap<JobId, Beta>,
    }

    impl Fixture {
        /// `n_jobs` ResNet18/CIFAR10 jobs on a 2-node × 4-GPU cluster.
        /// Jobs with even ids are running-eligible; all start Waiting.
        pub fn new(n_jobs: u64) -> Fixture {
            let spec = ClusterSpec::new(2, 4);
            let perf = PerfModel::new(spec);
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
                jobs.insert(
                    JobId(i),
                    JobStatus::submitted(js, SimTime::from_secs(i as f64)),
                );
                limits.insert(JobId(i), 256);
                betas.insert(JobId(i), Beta::new(2.0, 20.0));
            }
            Fixture {
                spec,
                perf,
                jobs,
                deployed: Schedule::empty(8),
                limits,
                betas,
            }
        }

        /// Marks a job as running with some accumulated progress.
        pub fn start_job(&mut self, id: u64, epochs: u32) {
            let j = self.jobs.get_mut(&JobId(id)).unwrap();
            j.phase = JobPhase::Running;
            j.first_start = Some(SimTime::ZERO);
            j.epochs_done = epochs;
            j.samples_processed = f64::from(epochs) * j.spec.dataset_size as f64;
            j.exec_time = f64::from(epochs) * 10.0;
            j.throughput = 2000.0;
        }

        pub fn view(&self) -> ClusterView<'_> {
            ClusterView {
                now: SimTime::from_secs(100.0),
                spec: &self.spec,
                perf: &self.perf,
                jobs: &self.jobs,
                deployed: &self.deployed,
            }
        }
    }

    /// Borrows an `EvoContext` from a fixture and a view.
    pub fn ctx<'a>(fx: &'a Fixture, view: &'a ClusterView<'a>) -> EvoContext<'a> {
        EvoContext::new(view, &fx.limits, &fx.betas)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn schedulable_excludes_completed() {
        let mut fx = Fixture::new(3);
        fx.jobs.get_mut(&JobId(2)).unwrap().phase = ones_schedcore::JobPhase::Completed;
        let view = fx.view();
        let c = ctx(&fx, &view);
        assert_eq!(c.schedulable().len(), 2);
        assert_eq!(c.new_jobs().len(), 2);
    }

    #[test]
    fn new_jobs_excludes_previously_started() {
        let mut fx = Fixture::new(3);
        fx.start_job(0, 2);
        let view = fx.view();
        let c = ctx(&fx, &view);
        assert_eq!(c.new_jobs().len(), 2);
    }

    #[test]
    fn limit_defaults_to_submitted_batch() {
        let mut fx = Fixture::new(2);
        fx.limits.remove(&JobId(1));
        let view = fx.view();
        let c = ctx(&fx, &view);
        assert_eq!(c.limit(JobId(1)), 256);
        assert_eq!(c.limit(JobId(0)), 256);
    }

    #[test]
    fn assign_evenly_respects_limit_and_memory() {
        let fx = Fixture::new(1);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = Schedule::empty(8);
        let got = c.assign_evenly(&mut s, JobId(0), &[GpuId(0), GpuId(1), GpuId(2)]);
        assert_eq!(got, 256); // limit R = 256
        assert_eq!(s.gpu_count(JobId(0)), 3);
        let batches = s.local_batches(JobId(0));
        assert_eq!(batches.iter().sum::<u32>(), 256);
        assert!(batches.iter().all(|&b| (85..=86).contains(&b)));
    }

    #[test]
    fn enforce_limits_scales_down_over_budget_jobs() {
        let mut fx = Fixture::new(1);
        fx.limits.insert(JobId(0), 128);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = Schedule::empty(8);
        // 4 GPUs × 128 = 512 > R = 128 -> keep ⌊128·4/512⌋ = 1 GPU at B=128.
        for g in 0..4 {
            s.assign(GpuId(g), JobId(0), 128);
        }
        c.enforce_limits(&mut s);
        assert_eq!(s.gpu_count(JobId(0)), 1);
        assert_eq!(s.global_batch(JobId(0)), 128);
    }

    #[test]
    fn enforce_limits_evicts_when_nothing_fits() {
        let mut fx = Fixture::new(1);
        fx.limits.insert(JobId(0), 16);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let mut s = Schedule::empty(8);
        for g in 0..8 {
            s.assign(GpuId(g), JobId(0), 64); // B = 512, R = 16 -> keep 0
        }
        c.enforce_limits(&mut s);
        assert!(!s.is_running(JobId(0)));
    }

    #[test]
    fn throughput_zero_for_unplaced() {
        let fx = Fixture::new(1);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let s = Schedule::empty(8);
        assert_eq!(c.throughput_in(&s, JobId(0)), 0.0);
    }

    #[test]
    fn cached_throughput_matches_uncached() {
        let mut fx = Fixture::new(2);
        fx.start_job(0, 3);
        let view = fx.view();
        let c = ctx(&fx, &view);
        let cache = crate::cache::ThroughputCache::new();
        let cached = c.with_cache(&cache);
        let mut s = Schedule::empty(8);
        s.assign(GpuId(0), JobId(0), 128);
        s.assign(GpuId(1), JobId(0), 128);
        s.assign(GpuId(4), JobId(1), 64);
        for job in [JobId(0), JobId(1)] {
            let plain = c.throughput_in(&s, job);
            assert!(plain > 0.0);
            assert_eq!(cached.throughput_in(&s, job), plain); // miss: computes
            assert_eq!(cached.throughput_in(&s, job), plain); // hit: memoised
        }
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        // Unplaced jobs bypass the cache entirely.
        assert_eq!(cached.throughput_in(&Schedule::empty(8), JobId(0)), 0.0);
        assert_eq!(cache.misses() + cache.hits(), 4);
    }

    #[test]
    fn probe_throughput_matches_trial_schedule() {
        // probe_throughput must be bit-identical to materialising the
        // trial schedule it describes — the fill search compares its
        // results against schedule-derived throughputs.
        let mut fx = Fixture::new(2);
        fx.start_job(0, 3);
        let view = fx.view();
        let cache = crate::cache::ThroughputCache::new();
        let c = ctx(&fx, &view).with_cache(&cache);
        let plain = ctx(&fx, &view);
        let ids = |v: &[u32]| v.iter().map(|&g| GpuId(g)).collect::<Vec<_>>();
        for (held, extra) in [
            (ids(&[]), ids(&[0])),
            (ids(&[1, 2]), ids(&[0])), // assignment order ≠ id order
            (ids(&[4]), ids(&[2])),    // cross-node
            (ids(&[0, 3]), ids(&[1, 2, 5])),
            (ids(&[]), (0..8).map(GpuId).collect()),
            (ids(&[2, 6]), ids(&[])),
        ] {
            let n = (held.len() + extra.len()) as u32;
            let target = split_target(c.limit(JobId(0)), c.profile(JobId(0)).max_local_batch, n);
            let probe = c.probe_throughput(JobId(0), target, &held, &extra);
            let mut trial = Schedule::empty(8);
            let order: Vec<GpuId> = held.iter().chain(&extra).copied().collect();
            plain.assign_evenly(&mut trial, JobId(0), &order);
            let direct = plain.throughput_in(&trial, JobId(0));
            assert_eq!(probe.to_bits(), direct.to_bits(), "{held:?} + {extra:?}");
            assert_eq!(
                plain
                    .probe_throughput(JobId(0), target, &held, &extra)
                    .to_bits(),
                direct.to_bits(),
                "uncached probe diverges for {held:?} + {extra:?}"
            );
            // And the probe's cache entry serves the schedule-keyed
            // lookup for the same configuration (shared signature space).
            let hits = cache.hits();
            assert_eq!(c.throughput_in(&trial, JobId(0)).to_bits(), probe.to_bits());
            assert_eq!(cache.hits(), hits + 1, "schedule lookup should hit");
        }
        assert_eq!(c.probe_throughput(JobId(0), 256, &[], &[]), 0.0);
        assert_eq!(plain.probe_throughput(JobId(0), 256, &[], &[]), 0.0);
    }

    #[test]
    fn split_workers_walks_merged_ascending_with_positional_batches() {
        // held = [1, 5], extra = [0, 3]: assignment order 1, 5, 0, 3 gets
        // batches 4, 4, 3, 3 (remainder 2 to the first two listed).
        let got: Vec<(u32, u32)> = split_workers(&[GpuId(1), GpuId(5)], &[GpuId(0), GpuId(3)], 14)
            .map(|(g, b)| (g.0, b))
            .collect();
        assert_eq!(got, vec![(0, 3), (1, 4), (3, 3), (5, 4)]);
        assert_eq!(split_workers(&[], &[], 8).count(), 0);
    }

    #[test]
    fn fresh_job_workload_floor_applies() {
        let fx = Fixture::new(1);
        let view = fx.view();
        let c = ctx(&fx, &view);
        // Never ran: floor = 0.1 epochs of 20k samples = 2000.
        assert!((c.processed_samples(JobId(0)) - 2000.0).abs() < 1e-9);
        assert!(c.remaining_workload(JobId(0), 0.5) > 0.0);
    }
}
