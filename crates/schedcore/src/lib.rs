//! # ones-schedcore — shared scheduler API
//!
//! Defines the contract between the cluster simulator and every scheduler
//! (ONES and the baselines):
//!
//! * [`schedule`] — the paper's schedule encoding `S : J × C → {b_j^i}`
//!   (Eq 1): one slot per GPU holding at most one `(job, local batch)`
//!   pair, enforcing the exclusive-GPU constraint (Eq 4) structurally.
//!   Global batch `B_j` and GPU count `c_j` are the derived sums of Eq 2.
//! * [`status`] — the runtime telemetry a scheduler may observe per job
//!   (epochs, samples processed, loss, accuracy, throughput, attained
//!   service), mirroring what workers upload at each epoch end (§3.1).
//! * [`scheduler`] — the [`scheduler::Scheduler`] trait: an event-driven
//!   interface where the scheduler receives arrivals / epoch ends /
//!   completions / timer ticks and may respond with a new desired
//!   [`schedule::Schedule`]; the simulator executes the diff with
//!   mechanism-dependent costs (elastic NCCL scaling vs checkpoint
//!   restart).
//! * [`reconcile`] — the desired-vs-actual loop: a scheduler's desired
//!   schedule is diffed against the cluster's actual one into typed,
//!   idempotent [`reconcile::ScalingOp`]s, each a
//!   [`reconcile::ScalingPhase`] state machine whose phase durations come
//!   from the scaling cost model. The simulator executes these ops
//!   instead of mutating the deployed schedule imperatively.

pub mod reconcile;
pub mod schedule;
pub mod scheduler;
pub mod status;

pub use reconcile::{OpKind, PhasePlan, Reconciler, ScalingOp, ScalingPhase, SlotAssign};
pub use schedule::{DirtySet, JobRun, JobSignature, Schedule, SignatureBuilder, Slot};
pub use scheduler::{
    ClusterView, ScalingMechanism, SchedEvent, SchedTuning, Scheduler, SchedulerPerfCounters,
};
pub use status::{JobPhase, JobStatus};
