//! Typed job-lifecycle events: the one record of every transition the
//! engine makes.
//!
//! [`crate::Simulation`] emits exactly one [`BackendEvent`] at each
//! transition site — arrival, (re)start, resize, preemption, epoch end,
//! completion, kill — into a per-step outbox
//! ([`crate::Simulation::step_events`]). The same [`Outbox::emit`] call
//! draws the job's row on the virtual-clock observability track (pid 1:
//! `epoch` spans, `start` and `preempt` instants), so the daemon's
//! `/v1/events` stream, [`crate::Timeline`] and the trace export all read
//! one stream.

use ones_simcore::SimTime;
use ones_workload::JobId;

/// What happened to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendEventKind {
    /// The job's arrival event was dispatched; it is now schedulable.
    Arrived,
    /// The job started (or resumed) running under this configuration.
    Started {
        /// Global batch size.
        batch: u32,
        /// GPUs granted.
        gpus: u32,
    },
    /// A running job was re-configured — the batch-size orchestration in
    /// action. One per executed scaling operation, including moves to
    /// other GPUs at the same batch and GPU count.
    Resized {
        /// New global batch size.
        batch: u32,
        /// New GPU count.
        gpus: u32,
    },
    /// The job lost its GPUs and went back to waiting.
    Preempted,
    /// The job finished a training epoch.
    EpochEnded {
        /// Total epochs completed so far.
        epochs_done: u32,
    },
    /// The job ran to convergence.
    Completed,
    /// The job ended abnormally (owner kill / crash).
    Killed,
    /// The submission was refused with a recorded reason (e.g. it raced a
    /// drain): the service never silently drops an accepted request.
    Rejected,
}

impl BackendEventKind {
    /// Stable wire name of this event kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendEventKind::Arrived => "arrived",
            BackendEventKind::Started { .. } => "started",
            BackendEventKind::Resized { .. } => "resized",
            BackendEventKind::Preempted => "preempted",
            BackendEventKind::EpochEnded { .. } => "epoch_ended",
            BackendEventKind::Completed => "completed",
            BackendEventKind::Killed => "killed",
            BackendEventKind::Rejected => "rejected",
        }
    }
}

/// One scheduling event, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendEvent {
    /// Virtual time of the transition, seconds.
    pub vt_secs: f64,
    /// The job concerned.
    pub job: JobId,
    /// What happened.
    pub kind: BackendEventKind,
}

/// What an event draws on the virtual-clock track beyond its kind.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Track {
    /// The kind says it all (arrival, preemption, completion, kill).
    Plain,
    /// A (re)start or resize: the re-configuration overhead it pays.
    Overhead(f64),
    /// An epoch end: when the epoch's useful work began, and its shape.
    Epoch {
        /// Start of the epoch span.
        from: SimTime,
        /// Global batch the epoch ran at.
        batch: u32,
        /// GPUs the epoch ran on.
        gpus: u32,
    },
}

/// One step's lifecycle events, in engine causal order.
#[derive(Debug, Default)]
pub(crate) struct Outbox(pub(crate) Vec<BackendEvent>);

impl Outbox {
    /// Records one transition of `job` at `at` and, when spans are
    /// recorded, mirrors it onto the job's virtual-clock row.
    pub(crate) fn emit(&mut self, at: SimTime, job: JobId, kind: BackendEventKind, track: Track) {
        self.0.push(BackendEvent {
            vt_secs: at.as_secs(),
            job,
            kind,
        });
        if !ones_obs::spans_enabled() {
            return;
        }
        match (kind, track) {
            (
                BackendEventKind::Started { batch, gpus }
                | BackendEventKind::Resized { batch, gpus },
                Track::Overhead(overhead_s),
            ) => ones_obs::virtual_instant(
                "start",
                "simulator",
                job.0,
                at.as_secs(),
                vec![
                    ("batch", batch.into()),
                    ("gpus", gpus.into()),
                    ("overhead_s", overhead_s.into()),
                ],
            ),
            (BackendEventKind::Preempted, _) => {
                ones_obs::virtual_instant("preempt", "simulator", job.0, at.as_secs(), vec![]);
            }
            (BackendEventKind::EpochEnded { .. }, Track::Epoch { from, batch, gpus }) => {
                ones_obs::virtual_span(
                    "epoch",
                    "simulator",
                    job.0,
                    from.as_secs(),
                    at.as_secs(),
                    vec![("batch", batch.into()), ("gpus", gpus.into())],
                );
            }
            _ => {}
        }
    }
}
