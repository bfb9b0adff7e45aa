//! The scheduler trait and the view it schedules against.
//!
//! The simulator drives a [`Scheduler`] with lifecycle events. On each
//! event the scheduler may return a new desired [`Schedule`]; the simulator
//! then diffs it against the deployed schedule and executes the transition,
//! charging costs that depend on the scheduler's
//! [`ScalingMechanism`] — ONES's elastic NCCL scaling is ~1 s per
//! reconfiguration, while checkpoint-based migration costs tens of seconds
//! (Figure 16).

use crate::schedule::Schedule;
use crate::status::JobStatus;
use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_simcore::SimTime;
use ones_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a scheduler's executor applies re-configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingMechanism {
    /// ONES §3.3.1: pause at a step boundary, resize modules, reconnect
    /// NCCL, broadcast parameters to joiners — no process restart.
    ElasticNccl,
    /// Common practice: stop, write a checkpoint, restart workers with the
    /// new configuration, reload data pipeline and weights.
    CheckpointRestart,
    /// Gandiva-style suspend/resume: worker state parks in host memory and
    /// swaps back within about a second — cheap like elastic scaling, but
    /// without batch-size elasticity.
    SuspendResume,
}

/// Why the scheduler is being invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedEvent {
    /// A new job was submitted.
    JobArrived(JobId),
    /// A running job finished a training epoch (telemetry updated).
    EpochEnded(JobId),
    /// A job converged; its GPUs are free in the *current* schedule.
    JobCompleted(JobId),
    /// A timer requested via [`Scheduler::next_wakeup`] fired.
    Tick,
}

impl SchedEvent {
    /// The event's short name in traces and metrics — the shared span
    /// taxonomy (DESIGN.md §5) every scheduler's `scheduling_round` span
    /// tags its `event` argument with, so cross-scheduler Perfetto traces
    /// compare like-for-like.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            SchedEvent::JobArrived(_) => "arrival",
            SchedEvent::EpochEnded(_) => "epoch_end",
            SchedEvent::JobCompleted(_) => "completion",
            SchedEvent::Tick => "tick",
        }
    }
}

/// Read-only view the scheduler decides against. It borrows the engine's
/// own job statuses and deployed schedule; nothing is copied per event.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Cluster shape and fabric.
    pub spec: &'a ClusterSpec,
    /// Throughput model (stands in for online profiling: schedulers may
    /// evaluate candidate configurations with it, as Optimus fits
    /// resource–speed curves and ONES profiles real-time throughput).
    pub perf: &'a PerfModel,
    /// Every job ever submitted, keyed by id (including completed ones —
    /// completed-job telemetry is what trains the ONES predictor).
    pub jobs: &'a BTreeMap<JobId, JobStatus>,
    /// The currently deployed schedule.
    pub deployed: &'a Schedule,
}

impl ClusterView<'_> {
    /// Jobs currently waiting for service, in arrival order.
    #[must_use]
    pub fn waiting_jobs(&self) -> Vec<&JobStatus> {
        self.jobs.values().filter(|j| j.is_waiting()).collect()
    }

    /// Jobs currently running, in id order.
    #[must_use]
    pub fn running_jobs(&self) -> Vec<&JobStatus> {
        self.jobs.values().filter(|j| j.is_running()).collect()
    }

    /// Completed jobs, in id order.
    #[must_use]
    pub fn completed_jobs(&self) -> Vec<&JobStatus> {
        self.jobs.values().filter(|j| j.is_completed()).collect()
    }

    /// Convenience: the memory-limited max local batch of a job.
    #[must_use]
    pub fn max_local_batch(&self, job: JobId) -> u32 {
        self.jobs
            .get(&job)
            .map_or(0, |j| j.spec.profile().max_local_batch)
    }
}

/// Scheduler-internal performance counters, reported after a run.
///
/// Mechanism-agnostic mirror of whatever hot-loop diagnostics a scheduler
/// keeps (ONES reports its evolutionary-search counters here); baselines
/// that track nothing return `None` from [`Scheduler::perf_counters`].
/// Wall times are host-side measurements, not simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerPerfCounters {
    /// Search generations (or planning rounds) executed.
    pub generations: u64,
    /// Candidate schedules scored.
    pub candidates_scored: u64,
    /// Memoised throughput lookups answered from cache.
    pub cache_hits: u64,
    /// Throughput lookups that evaluated the model.
    pub cache_misses: u64,
    /// Model evaluations duplicated by concurrent lookups racing on the
    /// same key (the lookup still counts as a hit).
    pub cache_duplicate_computes: u64,
    /// Per-job cache invalidations applied on job events.
    pub cache_invalidations: u64,
    /// Cache hits during the most recent search generation.
    pub cache_hits_last_gen: u64,
    /// Cache misses during the most recent search generation.
    pub cache_misses_last_gen: u64,
    /// Host wall time refreshing candidates, nanoseconds.
    pub refresh_nanos: u64,
    /// Host wall time deriving/legalising candidates, nanoseconds.
    pub derive_nanos: u64,
    /// Host wall time scoring and selecting, nanoseconds.
    pub score_nanos: u64,
    /// Fill selection rounds run while deriving candidates.
    pub fill_rounds: u64,
    /// Placements probed by those fill rounds.
    pub fill_probes: u64,
}

impl SchedulerPerfCounters {
    /// Fraction of throughput lookups served by the cache, in [0, 1]
    /// (zero when no cache ran).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of the most recent generation's lookups served by the
    /// cache, in [0, 1] — the cross-generation (warm) reuse signal.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.cache_hits_last_gen + self.cache_misses_last_gen;
        if total == 0 {
            0.0
        } else {
            self.cache_hits_last_gen as f64 / total as f64
        }
    }

    /// Total measured host wall time across phases, nanoseconds.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.refresh_nanos + self.derive_nanos + self.score_nanos
    }
}

/// A live tuning change for a running scheduler (ones-d `POST
/// /v1/config`). Every field is optional; `None` leaves the current value
/// untouched. Schedulers ignore fields that have no meaning for them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedTuning {
    /// Evolutionary-search generations per scheduling event.
    pub generations_per_event: Option<u32>,
    /// Evolutionary-search population size.
    pub population: Option<usize>,
    /// Per-gene mutation probability.
    pub mutation_rate: Option<f64>,
    /// Crossover pairs drawn per generation.
    pub crossover_pairs: Option<usize>,
}

impl SchedTuning {
    /// Whether any field is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == SchedTuning::default()
    }
}

/// An online DL cluster scheduler.
///
/// Implementations: ONES (`ones-sched`), Tiresias / Optimus / DRL / FIFO /
/// SRTF (`ones-baselines`). `Send` so a boxed scheduler can be owned by a
/// service thread (ones-d) or cross into a sweep worker.
pub trait Scheduler: Send {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// How this scheduler's executor applies re-configurations.
    fn mechanism(&self) -> ScalingMechanism;

    /// Reacts to an event. Returning `Some(schedule)` asks the simulator
    /// to transition the cluster to that schedule (the simulator validates
    /// it and charges mechanism-dependent costs); `None` keeps the current
    /// assignment.
    fn on_event(&mut self, event: SchedEvent, view: &ClusterView<'_>) -> Option<Schedule>;

    /// If `Some(t)`, the simulator schedules a [`SchedEvent::Tick`] at `t`
    /// (periodic schedulers such as Optimus re-plan on a fixed interval).
    /// Called after every event delivery.
    fn next_wakeup(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Whether this scheduler adjusts batch sizes (only ONES does; used
    /// by the simulator to decide if linear LR scaling is applied when the
    /// global batch departs from the submitted one).
    fn scales_batch_sizes(&self) -> bool {
        false
    }

    /// Internal performance counters accumulated over the run, if this
    /// scheduler keeps any. Read once by the simulator when the run ends.
    fn perf_counters(&self) -> Option<SchedulerPerfCounters> {
        None
    }

    /// Applies a live tuning change mid-run (ones-d `POST /v1/config`).
    /// Returns whether anything was applied; the default ignores all
    /// tuning (baselines have no evolutionary knobs).
    fn reconfigure(&mut self, _tuning: &SchedTuning) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind};
    use ones_workload::JobSpec;

    fn job(id: u64, phase: crate::status::JobPhase) -> JobStatus {
        let spec = JobSpec {
            id: JobId(id),
            name: format!("j{id}"),
            model: ModelKind::ResNet18,
            dataset: DatasetKind::Cifar10,
            dataset_size: 20_000,
            submit_batch: 256,
            max_safe_batch: 4096,
            requested_gpus: 1,
            arrival_secs: 0.0,
            kill_after_secs: None,
            convergence: ConvergenceModel {
                reference_batch: 256,
                ..ConvergenceModel::example()
            },
        };
        let mut s = JobStatus::submitted(spec, SimTime::ZERO);
        s.phase = phase;
        s
    }

    #[test]
    fn view_partitions_jobs_by_phase() {
        use crate::status::JobPhase::*;
        let spec = ClusterSpec::new(1, 4);
        let perf = PerfModel::new(spec);
        let deployed = Schedule::empty(4);
        let mut jobs = BTreeMap::new();
        jobs.insert(JobId(0), job(0, Waiting));
        jobs.insert(JobId(1), job(1, Running));
        jobs.insert(JobId(2), job(2, Completed));
        jobs.insert(JobId(3), job(3, Waiting));
        let view = ClusterView {
            now: SimTime::ZERO,
            spec: &spec,
            perf: &perf,
            jobs: &jobs,
            deployed: &deployed,
        };
        assert_eq!(view.waiting_jobs().len(), 2);
        assert_eq!(view.running_jobs().len(), 1);
        assert_eq!(view.completed_jobs().len(), 1);
        // CIFAR10 ResNet18: 512 × 4 = 2048 per GPU.
        assert_eq!(view.max_local_batch(JobId(0)), 2048);
        assert_eq!(view.max_local_batch(JobId(99)), 0);
    }
}
