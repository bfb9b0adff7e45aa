//! Cluster-state time series folded from a run's lifecycle events.
//!
//! The aggregate [`crate::SimResult::gpu_utilization`] hides *when* the
//! cluster was busy. [`Timeline`] folds the engine's typed
//! [`BackendEvent`]s into a step function of busy GPUs, running jobs and
//! waiting jobs over virtual time — the series behind "ONES can saturate
//! the cluster" (§2.2) and the fragmentation argument of §2.1.

use crate::lifecycle::{BackendEvent, BackendEventKind};
use ones_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One sample of cluster state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Virtual time of the sample.
    pub at: f64,
    /// GPUs occupied by running jobs.
    pub busy_gpus: u32,
    /// Jobs currently holding GPUs.
    pub running_jobs: u32,
    /// Jobs submitted but holding no GPUs.
    pub waiting_jobs: u32,
}

/// A step-function time series of cluster state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Cluster capacity, for normalising utilisation.
    pub total_gpus: u32,
    /// Samples at every state change, in time order.
    pub points: Vec<TimelinePoint>,
}

impl Timeline {
    /// Folds a run's lifecycle events (every step's
    /// [`crate::Simulation::step_events`], in order) on a `total_gpus`
    /// cluster. Truncated runs are fine — the timeline simply stops where
    /// the events do.
    #[must_use]
    pub fn from_events(total_gpus: u32, events: &[BackendEvent]) -> Self {
        let mut points: Vec<TimelinePoint> = Vec::new();
        let mut holdings: BTreeMap<JobId, u32> = BTreeMap::new();
        let mut waiting = 0u32;
        for ev in events {
            match ev.kind {
                BackendEventKind::Arrived => waiting += 1,
                BackendEventKind::Started { gpus, .. } | BackendEventKind::Resized { gpus, .. } => {
                    if holdings.insert(ev.job, gpus).is_none() {
                        waiting = waiting.saturating_sub(1);
                    }
                }
                BackendEventKind::Preempted => {
                    if holdings.remove(&ev.job).is_some() {
                        waiting += 1;
                    }
                }
                BackendEventKind::Completed | BackendEventKind::Killed => {
                    if holdings.remove(&ev.job).is_none() {
                        waiting = waiting.saturating_sub(1);
                    }
                }
                BackendEventKind::EpochEnded { .. } | BackendEventKind::Rejected => continue,
            }
            let point = TimelinePoint {
                at: ev.vt_secs,
                busy_gpus: holdings.values().sum(),
                running_jobs: holdings.len() as u32,
                waiting_jobs: waiting,
            };
            // One sample per instant: the state once its transitions land.
            match points.last_mut() {
                Some(last) if last.at == point.at => *last = point,
                _ => points.push(point),
            }
        }
        Timeline { total_gpus, points }
    }

    /// Cluster state at time `t` (the latest sample at or before `t`).
    #[must_use]
    pub fn at(&self, t: f64) -> Option<TimelinePoint> {
        self.points.iter().take_while(|p| p.at <= t).last().copied()
    }

    /// Utilisation (busy/total) sampled on a uniform grid of `n` points
    /// over the run.
    #[must_use]
    pub fn utilization_series(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two samples");
        let end = self.points.last().map_or(0.0, |p| p.at);
        (0..n)
            .map(|i| {
                let t = end * i as f64 / (n - 1) as f64;
                let busy = self.at(t).map_or(0, |p| p.busy_gpus);
                (t, f64::from(busy) / f64::from(self.total_gpus.max(1)))
            })
            .collect()
    }

    /// Time-weighted mean utilisation of the step function.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        let mut acc = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].at - w[0].at;
            acc += f64::from(w[0].busy_gpus) * dt;
            span += dt;
        }
        if span <= 0.0 {
            0.0
        } else {
            acc / (span * f64::from(self.total_gpus.max(1)))
        }
    }

    /// Peak concurrent waiting-queue length.
    #[must_use]
    pub fn peak_waiting(&self) -> u32 {
        self.points
            .iter()
            .map(|p| p.waiting_jobs)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, SimResult, Simulation, StepOutcome};
    use crate::experiment::SchedulerKind;
    use ones_cluster::ClusterSpec;
    use ones_dlperf::PerfModel;
    use ones_simcore::DetRng;
    use ones_workload::{Trace, TraceConfig};

    fn run(kind: SchedulerKind) -> (SimResult, Timeline) {
        let trace = Trace::generate(TraceConfig {
            num_jobs: 8,
            arrival_rate: 1.0 / 15.0,
            seed: 5,
            kill_fraction: 0.0,
        });
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = kind.build(&spec, &trace, &DetRng::seed(1));
        let mut sim = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        );
        let mut events = Vec::new();
        while sim.step() == StepOutcome::Progressed {
            events.extend_from_slice(sim.step_events());
        }
        let (r, _) = sim.into_result();
        let tl = Timeline::from_events(r.total_gpus, &events);
        (r, tl)
    }

    #[test]
    fn timeline_respects_capacity_and_time_order() {
        let (_, tl) = run(SchedulerKind::Ones);
        assert!(!tl.points.is_empty());
        for w in tl.points.windows(2) {
            assert!(w[0].at <= w[1].at, "time order violated");
        }
        for p in &tl.points {
            assert!(p.busy_gpus <= tl.total_gpus, "over capacity at t={}", p.at);
        }
    }

    #[test]
    fn cluster_drains_by_the_end() {
        let (_, tl) = run(SchedulerKind::Fifo);
        let last = tl.points.last().unwrap();
        assert_eq!(last.running_jobs, 0, "jobs left running at the end");
        assert_eq!(last.waiting_jobs, 0, "jobs left waiting at the end");
    }

    #[test]
    fn mean_utilization_matches_engine_accounting() {
        let (r, tl) = run(SchedulerKind::Tiresias);
        // The timeline is folded from allocations while the engine
        // accrues service; both measure GPU occupancy, so they must agree
        // within a loose band.
        let a = tl.mean_utilization();
        let b = r.gpu_utilization();
        assert!((a - b).abs() < 0.2, "timeline {a} vs engine {b}");
    }

    #[test]
    fn utilization_series_is_normalised() {
        let (_, tl) = run(SchedulerKind::Ones);
        let series = tl.utilization_series(50);
        assert_eq!(series.len(), 50);
        for (t, u) in &series {
            assert!(*t >= 0.0);
            assert!((0.0..=1.0).contains(u));
        }
        // Mid-run the cluster must have been busy at some point.
        assert!(series.iter().any(|(_, u)| *u > 0.2));
    }

    #[test]
    fn no_events_give_an_empty_timeline() {
        let tl = Timeline::from_events(16, &[]);
        assert!(tl.points.is_empty());
        assert_eq!(tl.peak_waiting(), 0);
        assert_eq!(tl.mean_utilization(), 0.0);
    }

    #[test]
    fn queue_builds_under_contention() {
        let (_, tl) = run(SchedulerKind::Fifo);
        assert!(tl.peak_waiting() >= 1, "no queueing observed under FIFO");
        assert!(tl.at(-1.0).is_none());
    }
}
