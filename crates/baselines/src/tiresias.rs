//! Tiresias: discretised two-dimensional attained-service scheduling
//! (Gu et al., NSDI '19 — baseline of §4.1).
//!
//! Tiresias assumes job durations are unknowable and prioritises by
//! *attained service* — the product of GPU count and executed time
//! (GPU·seconds) — discretised into a multi-level feedback queue: a job
//! starts in the highest-priority queue and is demoted as its attained
//! service crosses each queue's threshold (discretised 2D-LAS). Within a
//! queue, jobs run FIFO by arrival. Preemption is allowed; job size is
//! fixed at the user request (Table 3: no elastic size, no elastic batch).
//!
//! The paper's optional STARVELIMIT promotion is included: a job preempted
//! for longer than `starve_limit × its executed time` is promoted back to
//! the highest queue.

use crate::common::effective_request;
use ones_schedcore::{ClusterView, JobStatus, ScalingMechanism, SchedEvent, Schedule, Scheduler};
use ones_simcore::SimTime;
use ones_sync::LazyLock;
use serde::{Deserialize, Serialize};

static ROUNDS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("baselines.tiresias.rounds"));
static DEPLOYMENTS_PROPOSED: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("baselines.tiresias.deployments_proposed"));
static STARVATION_PROMOTIONS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("baselines.tiresias.starvation_promotions"));

/// Tiresias tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiresiasConfig {
    /// Attained-service thresholds (GPU·seconds) separating the queues:
    /// a job with service ≥ `thresholds[i]` lives below queue `i`.
    pub thresholds: Vec<f64>,
    /// Re-evaluation period for demotions between job events, seconds.
    pub reschedule_period: f64,
    /// STARVELIMIT: promote a job waiting longer than this multiple of its
    /// executed time back to the top queue. 0 disables promotion.
    pub starve_limit: f64,
}

impl Default for TiresiasConfig {
    fn default() -> Self {
        TiresiasConfig {
            // Our trace's jobs attain 10²–10⁵ GPU·s; two cuts give three
            // queues with meaningful occupancy, mirroring the paper's
            // discretised 2D-LAS with K = 3.
            thresholds: vec![1_000.0, 10_000.0],
            reschedule_period: 60.0,
            starve_limit: 8.0,
        }
    }
}

/// The Tiresias scheduler.
#[derive(Debug)]
pub struct Tiresias {
    config: TiresiasConfig,
}

impl Tiresias {
    /// Creates the scheduler with default thresholds.
    #[must_use]
    pub fn new() -> Self {
        Tiresias {
            config: TiresiasConfig::default(),
        }
    }

    /// Creates the scheduler with explicit configuration.
    #[must_use]
    pub fn with_config(config: TiresiasConfig) -> Self {
        assert!(
            config.thresholds.windows(2).all(|w| w[0] < w[1]),
            "queue thresholds must be strictly increasing"
        );
        Tiresias { config }
    }

    /// Whether the STARVELIMIT promotion applies to `job` right now.
    fn is_starved(&self, job: &JobStatus, now: SimTime) -> bool {
        self.config.starve_limit > 0.0
            && job.is_waiting()
            && job.exec_time > 0.0
            && job.queueing_time(now) > self.config.starve_limit * job.exec_time
    }

    /// Queue index of a job (0 = highest priority).
    #[must_use]
    pub fn queue_of(&self, job: &JobStatus, now: SimTime) -> usize {
        if self.is_starved(job, now) {
            return 0; // starvation promotion
        }
        self.config
            .thresholds
            .iter()
            .take_while(|&&t| job.gpu_service >= t)
            .count()
    }
}

impl Default for Tiresias {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Tiresias {
    fn name(&self) -> &'static str {
        "Tiresias"
    }

    fn mechanism(&self) -> ScalingMechanism {
        ScalingMechanism::CheckpointRestart
    }

    fn on_event(&mut self, event: SchedEvent, view: &ClusterView<'_>) -> Option<Schedule> {
        let _round_span = crate::common::round_span("Tiresias", event, view);
        ROUNDS.inc();
        // Rank all incomplete jobs: (queue level, arrival) — MLFQ with
        // per-queue FIFO.
        let mut order: Vec<&JobStatus> = view.jobs.values().filter(|j| !j.is_completed()).collect();
        if ones_obs::counters_enabled() {
            let starved = order
                .iter()
                .filter(|j| self.is_starved(j, view.now))
                .count();
            STARVATION_PROMOTIONS.add(starved as u64);
        }
        order.sort_by_cached_key(|j| (self.queue_of(j, view.now), j.arrival));
        // Allocate gangs in priority order with backfill; keep running
        // jobs that stay admitted in place (no gratuitous migration).
        let wants: Vec<(ones_workload::JobId, u32)> = order
            .iter()
            .map(|j| (j.id(), effective_request(view, j.id())))
            .collect();
        let schedule = crate::common::allocate_sticky(view, &wants);
        let out = (&schedule != view.deployed).then_some(schedule);
        if out.is_some() {
            DEPLOYMENTS_PROPOSED.inc();
        }
        out
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        Some(now + self.config.reschedule_period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::Harness;

    #[test]
    fn fresh_jobs_outrank_heavily_serviced_ones() {
        let mut h = Harness::new(1, 4);
        let mut t = Tiresias::new();
        // Job 0 has consumed lots of GPU·s; it drops to a lower queue.
        let a = h.submit(0, 4);
        let out = t.on_event(SchedEvent::JobArrived(a), &h.view()).unwrap();
        h.deploy(out);
        h.add_service(0, 20_000.0, 5);
        h.jobs.get_mut(&a).unwrap().epochs_in_current_schedule = 5;
        // A fresh arrival preempts it (queue 0 vs queue 2).
        let b = h.submit(1, 4);
        let out = t.on_event(SchedEvent::JobArrived(b), &h.view()).unwrap();
        assert!(out.is_running(b));
        assert!(!out.is_running(a));
    }

    #[test]
    fn within_queue_order_is_fifo() {
        let mut h = Harness::new(1, 4);
        let mut t = Tiresias::new();
        let a = h.submit(0, 4);
        h.now = 10.0;
        let b = h.submit(1, 4);
        // Both in queue 0 (no service yet): earlier arrival wins the gang.
        let out = t.on_event(SchedEvent::JobArrived(b), &h.view()).unwrap();
        assert!(out.is_running(a));
        assert!(!out.is_running(b));
    }

    #[test]
    fn queue_levels_follow_thresholds() {
        let h = {
            let mut h = Harness::new(1, 4);
            h.submit(0, 1);
            h
        };
        let t = Tiresias::new();
        let mut job = h.jobs.values().next().unwrap().clone();
        assert_eq!(t.queue_of(&job, h.view().now), 0);
        job.gpu_service = 1_500.0;
        assert_eq!(t.queue_of(&job, h.view().now), 1);
        job.gpu_service = 50_000.0;
        assert_eq!(t.queue_of(&job, h.view().now), 2);
    }

    #[test]
    fn starvation_promotes_back_to_top() {
        let mut h = Harness::new(1, 4);
        let t = Tiresias::new();
        let a = h.submit(0, 1);
        {
            let j = h.jobs.get_mut(&a).unwrap();
            j.gpu_service = 50_000.0; // bottom queue by service
            j.exec_time = 10.0;
        }
        // Not starving yet at t = 50 (waited 50 s < 8 × 10 s... wait 50 <
        // 80): still bottom queue.
        h.now = 50.0;
        assert_eq!(t.queue_of(&h.jobs[&a], h.view().now), 2);
        // After waiting 8 × exec_time, promoted to queue 0.
        h.now = 200.0;
        assert_eq!(t.queue_of(&h.jobs[&a], h.view().now), 0);
    }

    #[test]
    fn backfills_around_blocked_gangs() {
        let mut h = Harness::new(1, 4);
        let mut t = Tiresias::new();
        let a = h.submit(0, 2);
        let _b = h.submit(1, 4); // blocked: only 2 idle after a
        let c = h.submit(2, 2);
        let out = t.on_event(SchedEvent::JobArrived(c), &h.view()).unwrap();
        assert!(out.is_running(a));
        assert!(out.is_running(c), "backfill must place the small job");
        assert_eq!(out.idle_count(), 0);
    }

    #[test]
    fn periodic_wakeups_requested() {
        let t = Tiresias::new();
        let w = t.next_wakeup(SimTime::from_secs(100.0)).unwrap();
        assert_eq!(w, SimTime::from_secs(160.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_thresholds_rejected() {
        let _ = Tiresias::with_config(TiresiasConfig {
            thresholds: vec![10.0, 5.0],
            ..TiresiasConfig::default()
        });
    }
}
