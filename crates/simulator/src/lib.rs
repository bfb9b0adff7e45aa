//! # ones-simulator — the cluster simulation runtime
//!
//! Drives a [`ones_schedcore::Scheduler`] against a trace on a simulated
//! GPU cluster (the substitution for the paper's Longhorn testbed — see
//! DESIGN.md §1):
//!
//! * [`engine`] — the discrete-event loop: arrivals, epoch completions,
//!   scheduler wake-ups; schedule transitions executed with
//!   mechanism-dependent costs (elastic NCCL ≈ 1 s vs checkpoint restart ≈
//!   tens of seconds); partial epochs pro-rated on preemption; convergence
//!   tracked by the ground-truth model of `ones-dlperf`.
//! * [`lifecycle`] — the typed job-lifecycle events the engine emits once
//!   per transition; the daemon's event stream, [`Timeline`] and the
//!   virtual-clock trace track all consume them.
//! * [`metrics`] — per-job JCT / execution-time / queueing-time extraction
//!   and the aggregate statistics Figure 15 plots.
//! * [`experiment`] — named scheduler construction, single-run and
//!   rayon-parallel sweep harnesses used by every bench binary.

pub mod backend;
pub mod engine;
pub mod experiment;
pub mod lifecycle;
pub mod metrics;
pub mod timeline;

pub use backend::{
    BackendEvent, BackendEventKind, BackendPhase, ClusterBackend, NodeOccupancy, Occupancy,
    SimBackend,
};
pub use engine::{SimConfig, SimResult, Simulation, StepOutcome};
pub use experiment::{
    run_experiment, run_sweep, ExperimentConfig, ExperimentResult, SchedulerKind, TraceSource,
};
pub use metrics::{FromResultError, JobMetrics};
pub use timeline::{Timeline, TimelinePoint};
