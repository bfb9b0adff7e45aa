//! The ONES central scheduler (Figure 4).
//!
//! Wires together the online evolutionary search, the Beta-distribution
//! progress predictor and the batch-size limit policies behind the
//! event-driven [`Scheduler`] interface:
//!
//! * every event refreshes the per-job Beta predictions and evolves the
//!   population for a configurable number of generations;
//! * the best candidate `S_*` is deployed under the paper's update rule —
//!   only after all running jobs have completed at least one epoch under
//!   the currently deployed schedule (§3.2.2 *Update*), so epoch-long
//!   work is never thrown away by churning re-configurations;
//! * when a deployment leaves a waiting job out, the *resume* policy
//!   halves that job's batch limit so it keeps shrinking until it fits.

use crate::policies::{BatchLimits, PolicyConfig};
use ones_evo::{EvoConfig, EvoContext, EvolutionarySearch};
use ones_predictor::{FeatureSnapshot, PredictorConfig, ProgressPredictor};
use ones_schedcore::{
    ClusterView, JobStatus, ScalingMechanism, SchedEvent, SchedTuning, Schedule, Scheduler,
    SchedulerPerfCounters,
};
use ones_simcore::DetRng;
use ones_stats::Beta;
use ones_sync::LazyLock;
use ones_workload::JobId;
use std::collections::BTreeMap;

// Scheduling-round observability (DESIGN.md §5): how often ONES is
// invoked, how often it proposes a deployment, and how many running jobs
// had their global batch size reallocated by the winning candidate.
static ROUNDS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("ones.scheduler.rounds"));
static DEPLOYMENTS_PROPOSED: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("ones.scheduler.deployments_proposed"));
static BATCH_INCREASES: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("ones.scheduler.batch_increases"));
static BATCH_DECREASES: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("ones.scheduler.batch_decreases"));

/// ONES configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnesConfig {
    /// Evolutionary search tunables.
    pub evo: EvoConfig,
    /// Progress-predictor tunables.
    pub predictor: PredictorConfig,
    /// Batch-limit policy tunables.
    pub policy: PolicyConfig,
    /// Evolution generations run per scheduler event.
    pub generations_per_event: usize,
    /// Executor mechanism (elastic NCCL by default; the ablation harness
    /// runs ONES over checkpoint restart to isolate the mechanism's value).
    pub mechanism: ScalingMechanism,
    /// Use the online progress predictor (disabled = cold-start prior
    /// only; isolates the predictor's contribution).
    pub use_predictor: bool,
}

impl OnesConfig {
    /// Paper-suggested defaults for a cluster of `gpus` devices and a
    /// workload with mean arrival rate λ (jobs/s).
    #[must_use]
    pub fn for_cluster(gpus: u32, lambda: f64) -> Self {
        OnesConfig {
            evo: EvoConfig::for_cluster(gpus),
            predictor: PredictorConfig::default(),
            policy: PolicyConfig {
                // The paper suggests sigma = lambda; with Table 2 service times
                // (minutes) two orders above the inter-arrival gap, that
                // throttles every job immediately. We calibrate to penalise
                // jobs older than ~40 mean inter-arrival gaps (~20 min on
                // the default trace) instead.
                sigma: lambda / 40.0,
                ..PolicyConfig::default()
            },
            generations_per_event: 2,
            mechanism: ScalingMechanism::ElasticNccl,
            use_predictor: true,
        }
    }
}

/// The ONES scheduler.
pub struct OnesScheduler {
    config: OnesConfig,
    search: EvolutionarySearch,
    predictor: ProgressPredictor,
    limits: BatchLimits,
    histories: BTreeMap<JobId, Vec<FeatureSnapshot>>,
    fill_rng: DetRng,
}

impl OnesScheduler {
    /// Creates the scheduler; all randomness forks from `rng`.
    #[must_use]
    pub fn new(config: OnesConfig, rng: &DetRng) -> Self {
        OnesScheduler {
            config,
            search: EvolutionarySearch::new(config.evo, rng.fork("ones-evo")),
            predictor: ProgressPredictor::new(config.predictor, rng.fork("ones-predictor")),
            limits: BatchLimits::new(config.policy),
            histories: BTreeMap::new(),
            fill_rng: rng.fork("ones-fill"),
        }
    }

    /// The progress predictor (exposed for diagnostics and experiments).
    #[must_use]
    pub fn predictor(&self) -> &ProgressPredictor {
        &self.predictor
    }

    /// The current batch-limit table (exposed for diagnostics and tests).
    #[must_use]
    pub fn limits(&self) -> &BatchLimits {
        &self.limits
    }

    /// Evolution generations run so far.
    #[must_use]
    pub fn generations(&self) -> u64 {
        self.search.generations()
    }

    /// Applies the event's effect on policies, predictor and histories.
    /// Arrivals and completions also invalidate the job's entries in the
    /// search's cross-generation throughput cache and score cards — the
    /// cached values are pure in the job's static profile, which only a
    /// job entering or leaving the view can change (epoch ends update
    /// telemetry, not the profile).
    fn ingest(&mut self, event: SchedEvent, view: &ClusterView<'_>) {
        match event {
            SchedEvent::JobArrived(id) => {
                self.search.invalidate_job(id);
                if let Some(job) = view.jobs.get(&id) {
                    self.limits.on_arrival(&job.spec);
                    self.histories.entry(id).or_default();
                }
            }
            SchedEvent::EpochEnded(id) => {
                if let Some(job) = view.jobs.get(&id) {
                    self.histories
                        .entry(id)
                        .or_default()
                        .push(FeatureSnapshot::capture(job));
                    let memory_cap = job.spec.profile().max_local_batch * view.spec.total_gpus();
                    let contended = view.jobs.values().any(JobStatus::is_waiting);
                    self.limits.on_epoch_end(
                        id,
                        job.epochs_done,
                        job.exec_time,
                        memory_cap,
                        contended,
                    );
                }
            }
            SchedEvent::JobCompleted(id) => {
                self.search.invalidate_job(id);
                let history = self.histories.remove(&id).unwrap_or_default();
                if self.config.use_predictor {
                    if let Some(job) = view.jobs.get(&id) {
                        self.predictor.observe_completion(&history, job.epochs_done);
                    }
                }
                self.limits.on_completed(id);
            }
            SchedEvent::Tick => {}
        }
    }

    /// Beta predictions for every non-completed job (Eq 6).
    fn predictions(&self, view: &ClusterView<'_>) -> BTreeMap<JobId, Beta> {
        view.jobs
            .values()
            .filter(|j| !j.is_completed())
            .map(|j| (j.id(), self.predictor.predict(j)))
            .collect()
    }

    /// The §3.2.2 update rule, applied per job: a running job may only be
    /// *disturbed* (moved, resized, preempted) after completing at least
    /// one epoch under its current configuration. Jobs still inside their
    /// first epoch are frozen at their deployed slots; the rest of the
    /// candidate applies around them.
    ///
    /// (A global "all running jobs ≥ 1 epoch" gate livelocks: every
    /// admission starts a 0-epoch job, which would block the next update,
    /// which admits another job, …)
    fn merge_frozen(view: &ClusterView<'_>, best: &Schedule) -> Schedule {
        let frozen: Vec<JobId> = view
            .running_jobs()
            .iter()
            .filter(|j| j.epochs_in_current_schedule == 0)
            .map(|j| j.id())
            .collect();
        if frozen.is_empty() {
            return best.aligned_with(view.deployed);
        }
        let mut adjusted = best.clone();
        for &f in &frozen {
            adjusted.evict(f);
        }
        // Restore each frozen job's deployed slots, displacing whichever
        // workers the candidate put there (their jobs shrink accordingly).
        for &f in &frozen {
            for (i, slot) in view.deployed.slots().iter().enumerate() {
                if let Some(s) = slot.filter(|s| s.job == f) {
                    adjusted.assign(ones_cluster::GpuId(i as u32), s.job, s.local_batch);
                }
            }
        }
        adjusted.aligned_with(view.deployed)
    }
}

impl Scheduler for OnesScheduler {
    fn name(&self) -> &'static str {
        "ONES"
    }

    fn mechanism(&self) -> ScalingMechanism {
        self.config.mechanism
    }

    fn scales_batch_sizes(&self) -> bool {
        true
    }

    fn perf_counters(&self) -> Option<SchedulerPerfCounters> {
        let c = self.search.perf_counters();
        Some(SchedulerPerfCounters {
            generations: c.generations,
            candidates_scored: c.candidates_scored,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            cache_duplicate_computes: c.cache_duplicate_computes,
            cache_invalidations: c.cache_invalidations,
            cache_hits_last_gen: c.cache_hits_last_gen,
            cache_misses_last_gen: c.cache_misses_last_gen,
            refresh_nanos: c.refresh_nanos,
            derive_nanos: c.derive_nanos,
            score_nanos: c.score_nanos,
            fill_rounds: c.fill_rounds,
            fill_probes: c.fill_probes,
        })
    }

    /// Live evolution-parameter changes (ones-d `POST /v1/config`). The
    /// search population carries over, so tuning adjusts the ongoing
    /// search rather than restarting it. Out-of-range values (zero
    /// population, mutation rate outside [0, 1]) are ignored.
    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool {
        let mut applied = false;
        if let Some(g) = tuning.generations_per_event {
            if g > 0 {
                self.config.generations_per_event = g as usize;
                applied = true;
            }
        }
        let mut evo = *self.search.config();
        let mut evo_changed = false;
        if let Some(p) = tuning.population {
            if p > 0 {
                evo.population = p;
                evo_changed = true;
            }
        }
        if let Some(m) = tuning.mutation_rate {
            if (0.0..=1.0).contains(&m) {
                evo.mutation_rate = m;
                evo_changed = true;
            }
        }
        if let Some(c) = tuning.crossover_pairs {
            evo.crossover_pairs = c;
            evo_changed = true;
        }
        if evo_changed {
            self.search.set_config(evo);
            self.config.evo = evo;
            applied = true;
        }
        applied
    }

    fn on_event(&mut self, event: SchedEvent, view: &ClusterView<'_>) -> Option<Schedule> {
        let _round_span = ones_obs::span!("ones", "scheduling_round")
            .with_arg("event", event.kind())
            .with_arg("vt", view.now.as_secs());
        ROUNDS.inc();
        self.ingest(event, view);
        let betas = self.predictions(view);
        let ctx = EvoContext::new(view, self.limits.table(), &betas);
        let mut best = self.search.generation(&ctx);
        for _ in 1..self.config.generations_per_event {
            best = self.search.generation(&ctx);
        }

        // Apply the §3.2.2 update rule per job (jobs inside their first
        // epoch stay frozen) and align the result with the deployed
        // schedule so unchanged jobs keep their GPUs and pay no
        // re-configuration cost.
        let mut best = Self::merge_frozen(view, &best);

        // Immediate response to online workloads (§1): if the merged
        // candidate still leaves waiting jobs next to idle GPUs (e.g. it
        // froze around a completion), admit them on the spot.
        ones_evo::ops::admit_waiting(&ctx, &mut best, &mut self.fill_rng);

        // Reconciler-diff emptiness, not value equality: a candidate that
        // only re-splits unchanged (placement, global batch) pairs would
        // deploy as zero operations, so proposing it is pure churn.
        if ones_schedcore::reconcile::diff(&best, view.deployed).is_empty() {
            return None;
        }

        // Significance filter: a deployment whose only effect is nudging
        // batch sizes by < 25 % at unchanged GPU sets costs a pause per
        // job and buys nothing ("too frequent update may reduce the
        // scheduling performance", §3.2.2). Freeze such jobs at their
        // deployed slots.
        let minor: Vec<JobId> = best
            .running_jobs()
            .iter()
            .filter(|(job, (batch, gpus))| {
                let old_b = view.deployed.global_batch(**job);
                let old_c = view.deployed.gpu_count(**job);
                old_c == *gpus
                    && old_b != *batch
                    && old_b > 0
                    && (f64::from(*batch) - f64::from(old_b)).abs() < 0.25 * f64::from(old_b)
            })
            .map(|(job, _)| *job)
            .collect();
        if !minor.is_empty() {
            for job in minor {
                best.evict(job);
                for (i, slot) in view.deployed.slots().iter().enumerate() {
                    if let Some(s) = slot.filter(|s| s.job == job) {
                        best.assign(ones_cluster::GpuId(i as u32), s.job, s.local_batch);
                    }
                }
            }
            if ones_schedcore::reconcile::diff(&best, view.deployed).is_empty() {
                return None;
            }
        }

        // Resume policy: jobs that stay waiting under the new schedule have
        // their limit halved.
        for job in view.waiting_jobs() {
            if !best.is_running(job.id()) {
                self.limits.on_rejected(job.id());
            }
        }
        DEPLOYMENTS_PROPOSED.inc();
        if ones_obs::counters_enabled() {
            for (job, (batch, _)) in best.running_jobs() {
                let old = view.deployed.global_batch(job);
                if old > 0 && batch > old {
                    BATCH_INCREASES.inc();
                } else if old > 0 && batch < old {
                    BATCH_DECREASES.inc();
                }
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ones_cluster::ClusterSpec;
    use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind, PerfModel};
    use ones_schedcore::{JobPhase, JobStatus};
    use ones_simcore::SimTime;
    use ones_workload::JobSpec;

    struct Harness {
        spec: ClusterSpec,
        perf: PerfModel,
        jobs: BTreeMap<JobId, JobStatus>,
        deployed: Schedule,
        now: f64,
    }

    impl Harness {
        fn new() -> Self {
            let spec = ClusterSpec::new(2, 4);
            Harness {
                spec,
                perf: PerfModel::new(spec),
                jobs: BTreeMap::new(),
                deployed: Schedule::empty(8),
                now: 0.0,
            }
        }

        fn submit(&mut self, id: u64) -> JobId {
            let jid = JobId(id);
            let spec = JobSpec {
                id: jid,
                name: format!("j{id}"),
                model: ModelKind::ResNet18,
                dataset: DatasetKind::Cifar10,
                dataset_size: 20_000,
                submit_batch: 256,
                max_safe_batch: 4096,
                requested_gpus: 1,
                arrival_secs: self.now,
                kill_after_secs: None,
                convergence: ConvergenceModel {
                    reference_batch: 256,
                    ..ConvergenceModel::example()
                },
            };
            self.jobs.insert(
                jid,
                JobStatus::submitted(spec, SimTime::from_secs(self.now)),
            );
            jid
        }

        fn view(&self) -> ClusterView<'_> {
            ClusterView {
                now: SimTime::from_secs(self.now),
                spec: &self.spec,
                perf: &self.perf,
                jobs: &self.jobs,
                deployed: &self.deployed,
            }
        }

        /// Applies a schedule like the simulator would: phases, batch and
        /// GPU bookkeeping, epoch counters reset.
        fn deploy(&mut self, s: Schedule) {
            for job in self.jobs.values_mut() {
                let id = job.spec.id;
                if s.is_running(id) {
                    job.phase = JobPhase::Running;
                    job.first_start.get_or_insert(SimTime::from_secs(self.now));
                    job.current_batch = s.global_batch(id);
                    job.current_gpus = s.gpu_count(id);
                    job.epochs_in_current_schedule = 0;
                } else if job.phase == JobPhase::Running {
                    job.phase = JobPhase::Waiting;
                    job.current_batch = 0;
                    job.current_gpus = 0;
                }
            }
            self.deployed = s;
        }

        fn finish_epoch(&mut self, id: u64) {
            let job = self.jobs.get_mut(&JobId(id)).unwrap();
            job.epochs_done += 1;
            job.epochs_in_current_schedule += 1;
            job.samples_processed += job.spec.dataset_size as f64;
            job.exec_time += 5.0;
            job.throughput = 4000.0;
            let conv = job.spec.convergence;
            job.current_loss = conv.loss_at(f64::from(job.epochs_done));
            job.current_accuracy = conv.accuracy_at(f64::from(job.epochs_done));
        }
    }

    fn sched() -> OnesScheduler {
        OnesScheduler::new(OnesConfig::for_cluster(8, 1.0 / 30.0), &DetRng::seed(5))
    }

    #[test]
    fn reconfigure_applies_valid_tuning_and_ignores_garbage() {
        let mut s = sched();
        assert!(!s.reconfigure(&SchedTuning::default()));
        let applied = s.reconfigure(&SchedTuning {
            generations_per_event: Some(5),
            population: Some(16),
            mutation_rate: Some(0.35),
            crossover_pairs: Some(4),
        });
        assert!(applied);
        assert_eq!(s.config.generations_per_event, 5);
        assert_eq!(s.search.config().population, 16);
        assert_eq!(s.search.config().mutation_rate, 0.35);
        assert_eq!(s.search.config().crossover_pairs, 4);
        // Out-of-range values leave everything untouched.
        assert!(!s.reconfigure(&SchedTuning {
            generations_per_event: Some(0),
            population: Some(0),
            mutation_rate: Some(1.5),
            crossover_pairs: None,
        }));
        assert_eq!(s.config.generations_per_event, 5);
        assert_eq!(s.search.config().population, 16);
    }

    #[test]
    fn first_arrival_is_scheduled_immediately() {
        let mut h = Harness::new();
        let mut s = sched();
        let id = h.submit(0);
        let out = s.on_event(SchedEvent::JobArrived(id), &h.view());
        let schedule = out.expect("empty cluster must schedule the arrival");
        assert!(schedule.is_running(id));
        // Start policy: single-GPU-capped limit.
        assert_eq!(s.limits().get(id), 256);
        assert!(schedule.global_batch(id) <= 256);
    }

    #[test]
    fn update_rule_blocks_mid_epoch_churn() {
        let mut h = Harness::new();
        let mut s = sched();
        let a = h.submit(0);
        let out = s.on_event(SchedEvent::JobArrived(a), &h.view()).unwrap();
        h.deploy(out);
        // Job 0 is running with 0 epochs under the new schedule; a second
        // arrival may only deploy if it does not disturb job 0 (the
        // non-disruptive immediacy exception).
        let b = h.submit(1);
        let out = s.on_event(SchedEvent::JobArrived(b), &h.view());
        match out {
            None => {
                // Blocked by the update rule; after job 0 finishes an
                // epoch the next event may deploy.
                h.finish_epoch(0);
                let out = s.on_event(SchedEvent::EpochEnded(a), &h.view());
                let schedule = out.expect("epoch completed -> deployment allowed");
                assert!(schedule.is_running(b), "job 1 must now be admitted");
            }
            Some(schedule) => {
                assert!(
                    schedule.is_non_disruptive_over(&h.deployed),
                    "mid-epoch deployment must not disturb running jobs"
                );
                assert!(schedule.is_running(b), "the deployment admits job 1");
            }
        }
    }

    #[test]
    fn scale_up_limit_doubles_after_epochs() {
        let mut h = Harness::new();
        let mut s = sched();
        let a = h.submit(0);
        let out = s.on_event(SchedEvent::JobArrived(a), &h.view()).unwrap();
        h.deploy(out);
        h.finish_epoch(0);
        let _ = s.on_event(SchedEvent::EpochEnded(a), &h.view());
        assert_eq!(s.limits().get(a), 512, "limit should double after epoch");
        h.finish_epoch(0);
        let _ = s.on_event(SchedEvent::EpochEnded(a), &h.view());
        assert_eq!(s.limits().get(a), 1024);
    }

    #[test]
    fn completion_trains_predictor_and_frees_gpus() {
        let mut h = Harness::new();
        let mut s = sched();
        let a = h.submit(0);
        let out = s.on_event(SchedEvent::JobArrived(a), &h.view()).unwrap();
        h.deploy(out);
        for _ in 0..5 {
            h.finish_epoch(0);
            let v = h.view();
            if let Some(next) = s.on_event(SchedEvent::EpochEnded(a), &v) {
                let _ = v;
                h.deploy(next);
            }
        }
        // Complete the job.
        {
            let job = h.jobs.get_mut(&a).unwrap();
            job.phase = JobPhase::Completed;
            job.completion = Some(SimTime::from_secs(100.0));
        }
        h.deployed.evict(a);
        let out = s.on_event(SchedEvent::JobCompleted(a), &h.view());
        assert_eq!(s.predictor().completions(), 1);
        assert_eq!(s.limits().get(a), 0, "completed job limit dropped");
        // With no other jobs there is nothing to deploy.
        assert!(out.is_none() || !out.unwrap().is_running(a));
    }

    #[test]
    fn identity_and_mechanism() {
        let s = sched();
        assert_eq!(s.name(), "ONES");
        assert_eq!(s.mechanism(), ScalingMechanism::ElasticNccl);
        assert!(s.scales_batch_sizes());
    }

    #[test]
    fn rejected_waiting_jobs_lose_limit() {
        let mut h = Harness::new();
        let mut s = sched();
        // Fill the cluster with 8 long jobs, then submit a 9th.
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(h.submit(i));
            let v = h.view();
            if let Some(out) = s.on_event(SchedEvent::JobArrived(ids[i as usize]), &v) {
                let _ = v;
                h.deploy(out);
            }
            h.finish_epoch(i);
            let v = h.view();
            if let Some(out) = s.on_event(SchedEvent::EpochEnded(ids[i as usize]), &v) {
                let _ = v;
                h.deploy(out);
            }
        }
        let ninth = h.submit(8);
        let before = 256;
        // Drive events until the ninth has been rejected at least once.
        let mut rejected = false;
        for round in 0..6 {
            for i in 0..8 {
                h.finish_epoch(i);
            }
            let v = h.view();
            let out = s.on_event(
                if round == 0 {
                    SchedEvent::JobArrived(ninth)
                } else {
                    SchedEvent::EpochEnded(ids[0])
                },
                &v,
            );
            if let Some(next) = out {
                if !next.is_running(ninth) {
                    rejected = true;
                }
                let _ = v;
                h.deploy(next);
            }
            if s.limits().get(ninth) < before {
                rejected = true;
                break;
            }
        }
        // Either the ninth was eventually admitted (fine) or its limit
        // shrank per the resume policy.
        assert!(
            rejected || h.deployed.is_running(ninth),
            "ninth job neither admitted nor subjected to the resume policy"
        );
    }
}
