//! The [`ClusterBackend`] trait: the execution substrate `ones-d` speaks
//! to.
//!
//! A backend owns a cluster — here the discrete-event simulator; on real
//! hardware it would wrap the Kubernetes/MPI executor of §3.3 — and
//! exposes exactly the operations the service layer needs: submit a job,
//! advance time, read job/cluster state, retune the scheduler. The daemon
//! is written entirely against this trait, so the simulator is one
//! pluggable implementation ([`SimBackend`]) of the same API a physical
//! cluster would sit behind.
//!
//! [`SimBackend::step`] forwards the engine's typed lifecycle events
//! ([`crate::lifecycle`]) — the event stream served at `GET /v1/events`.

use crate::engine::{SimConfig, Simulation, StepOutcome};
pub use crate::lifecycle::{BackendEvent, BackendEventKind};
use ones_cluster::{ClusterSpec, NodeId};
use ones_dlperf::PerfModel;
use ones_schedcore::{JobStatus, SchedTuning, Scheduler};
use ones_workload::{JobId, JobSpec, Trace};
use std::collections::BTreeMap;

/// Whether the backend can make further progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendPhase {
    /// Events remain; keep stepping.
    Active,
    /// Nothing to do until a new job is submitted.
    Idle,
    /// A hard cap fired; the backend will not progress further.
    Capped,
}

/// Per-node GPU occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOccupancy {
    /// Node index.
    pub node: u32,
    /// GPUs currently assigned to jobs.
    pub busy_gpus: u32,
    /// GPUs on the node.
    pub total_gpus: u32,
}

/// Cluster-wide occupancy snapshot (`GET /v1/cluster`).
#[derive(Debug, Clone, PartialEq)]
pub struct Occupancy {
    /// Total GPUs in the cluster.
    pub total_gpus: u32,
    /// GPUs currently assigned.
    pub busy_gpus: u32,
    /// Per-node breakdown, in node order.
    pub nodes: Vec<NodeOccupancy>,
    /// Jobs currently running.
    pub running_jobs: u32,
    /// Jobs waiting for service (arrived, unscheduled).
    pub waiting_jobs: u32,
    /// Jobs submitted but not yet arrived in virtual time.
    pub queued_jobs: u32,
}

/// The execution substrate a scheduler service drives.
///
/// `Send` so a service can own the backend on a dedicated thread.
pub trait ClusterBackend: Send {
    /// Scheduler name, for display.
    fn scheduler_name(&self) -> String;

    /// Current virtual time, seconds.
    fn now_secs(&self) -> f64;

    /// Submits a job. Arrival times in the past are clamped to now;
    /// returns the effective arrival time.
    ///
    /// # Errors
    /// Fails on an invalid spec or duplicate id.
    fn submit(&mut self, spec: JobSpec) -> Result<f64, String>;

    /// Advances the cluster by at most `max_events` scheduling events and
    /// returns the typed events observed plus the phase afterwards.
    fn step(&mut self, max_events: u64) -> (Vec<BackendEvent>, BackendPhase);

    /// Status of every known job (arrived and queued), keyed by id.
    fn job_statuses(&self) -> BTreeMap<JobId, JobStatus>;

    /// Node/GPU occupancy right now.
    fn occupancy(&self) -> Occupancy;

    /// Forwards a live tuning change to the scheduler; returns whether
    /// anything was applied.
    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool;

    /// Snapshot of the backend's reconciliation state (actual schedule +
    /// in-flight scaling operations), for persistence by a long-running
    /// service. Backends without a reconciler return `None`.
    fn reconcile_state(&self) -> Option<ones_schedcore::Reconciler> {
        None
    }
}

/// The simulator as a [`ClusterBackend`].
pub struct SimBackend {
    sim: Simulation,
    spec: ClusterSpec,
}

impl SimBackend {
    /// Wraps a simulation of `trace` (possibly empty) under `scheduler` on
    /// the cluster `spec`.
    #[must_use]
    pub fn new(
        spec: ClusterSpec,
        trace: &Trace,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        SimBackend {
            sim: Simulation::new(PerfModel::new(spec), trace, scheduler, config),
            spec,
        }
    }

    /// Consumes the backend and produces the batch-run accounting.
    #[must_use]
    pub fn into_result(self) -> crate::engine::SimResult {
        self.sim.into_result().0
    }
}

impl ClusterBackend for SimBackend {
    fn scheduler_name(&self) -> String {
        self.sim.scheduler_name().to_string()
    }

    fn now_secs(&self) -> f64 {
        self.sim.now().as_secs()
    }

    fn submit(&mut self, spec: JobSpec) -> Result<f64, String> {
        self.sim.inject(spec)
    }

    fn step(&mut self, max_events: u64) -> (Vec<BackendEvent>, BackendPhase) {
        let mut events = Vec::new();
        let mut phase = BackendPhase::Active;
        for _ in 0..max_events {
            let outcome = self.sim.step();
            events.extend_from_slice(self.sim.step_events());
            phase = match outcome {
                StepOutcome::Progressed => continue,
                StepOutcome::Idle => BackendPhase::Idle,
                StepOutcome::Capped => BackendPhase::Capped,
            };
            break;
        }
        (events, phase)
    }

    fn job_statuses(&self) -> BTreeMap<JobId, JobStatus> {
        self.sim.job_statuses()
    }

    fn occupancy(&self) -> Occupancy {
        let deployed = self.sim.deployed();
        let mut nodes: Vec<NodeOccupancy> = (0..self.spec.nodes)
            .map(|n| NodeOccupancy {
                node: n,
                busy_gpus: 0,
                total_gpus: self.spec.gpus_per_node,
            })
            .collect();
        let mut busy = 0u32;
        for (gpu, slot) in deployed.slots().iter().enumerate() {
            if slot.is_some() {
                busy += 1;
                let NodeId(node) = self.spec.node_of(ones_cluster::GpuId(gpu as u32));
                nodes[node as usize].busy_gpus += 1;
            }
        }
        let (running, waiting) = self.sim.running_and_waiting();
        Occupancy {
            total_gpus: self.spec.total_gpus(),
            busy_gpus: busy,
            nodes,
            running_jobs: running,
            waiting_jobs: waiting,
            queued_jobs: self.sim.queued_count() as u32,
        }
    }

    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool {
        self.sim.reconfigure_scheduler(tuning)
    }

    fn reconcile_state(&self) -> Option<ones_schedcore::Reconciler> {
        Some(self.sim.reconciler().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SchedulerKind;
    use ones_simcore::DetRng;
    use ones_workload::TraceConfig;

    fn backend(kind: SchedulerKind, jobs: usize) -> (SimBackend, Trace) {
        let trace = Trace::generate(TraceConfig {
            num_jobs: jobs,
            arrival_rate: 1.0 / 20.0,
            seed: 7,
            kill_fraction: 0.0,
        });
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = kind.build(&spec, &trace, &DetRng::seed(11));
        let empty = Trace {
            config: trace.config,
            jobs: Vec::new(),
        };
        (
            SimBackend::new(spec, &empty, scheduler, SimConfig::default()),
            trace,
        )
    }

    #[test]
    fn event_stream_tells_every_job_lifecycle() {
        let (mut b, trace) = backend(SchedulerKind::Ones, 5);
        for job in &trace.jobs {
            b.submit(job.clone()).unwrap();
        }
        let mut events = Vec::new();
        loop {
            let (batch, phase) = b.step(256);
            events.extend(batch);
            if phase != BackendPhase::Active {
                break;
            }
        }
        let count = |k: &str| events.iter().filter(|e| e.kind.name() == k).count();
        assert_eq!(count("arrived"), 5);
        assert_eq!(count("completed"), 5);
        assert!(count("started") >= 5, "every job must start at least once");
        assert!(count("epoch_ended") > 0);
        // Virtual time is monotonic along the stream.
        assert!(events.windows(2).all(|w| w[0].vt_secs <= w[1].vt_secs));
        // ONES resizes batches: the stream must show it.
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, BackendEventKind::Resized { .. })),
            "ONES produced no resize events"
        );
        let statuses = b.job_statuses();
        assert_eq!(statuses.len(), 5);
        assert!(statuses.values().all(|s| s.is_completed()));
    }

    #[test]
    fn occupancy_tracks_deployment() {
        let (mut b, trace) = backend(SchedulerKind::Fifo, 4);
        let idle = b.occupancy();
        assert_eq!(idle.total_gpus, 16);
        assert_eq!(idle.busy_gpus, 0);
        assert_eq!(idle.nodes.iter().map(|n| n.total_gpus).sum::<u32>(), 16);
        for job in &trace.jobs {
            b.submit(job.clone()).unwrap();
        }
        assert_eq!(b.occupancy().queued_jobs, 4);
        // Step until something is running, then check occupancy coheres.
        let mut saw_busy = false;
        loop {
            let (_, phase) = b.step(64);
            let occ = b.occupancy();
            assert_eq!(
                occ.nodes.iter().map(|n| n.busy_gpus).sum::<u32>(),
                occ.busy_gpus
            );
            assert!(occ.busy_gpus <= occ.total_gpus);
            if occ.running_jobs > 0 {
                saw_busy = true;
                assert!(occ.busy_gpus > 0, "running jobs but no busy GPUs");
            }
            if phase != BackendPhase::Active {
                break;
            }
        }
        assert!(saw_busy, "run finished without ever running a job");
        assert_eq!(b.occupancy().busy_gpus, 0);
    }

    #[test]
    fn backend_run_matches_batch_outcomes() {
        let (mut b, trace) = backend(SchedulerKind::Ones, 6);
        for job in &trace.jobs {
            b.submit(job.clone()).unwrap();
        }
        while b.step(1024).1 == BackendPhase::Active {}
        let service = b.into_result();

        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Ones.build(&spec, &trace, &DetRng::seed(11));
        let batch = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        )
        .run();
        assert_eq!(service.makespan, batch.makespan);
        assert_eq!(service.completed_jobs, batch.completed_jobs);
    }
}
