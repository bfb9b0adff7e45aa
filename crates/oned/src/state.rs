//! Shared service state: what concurrent HTTP readers see.
//!
//! The scheduler core thread is the only writer; handler threads take the
//! read side of one `RwLock` per request. State is republished as a whole
//! after every step batch, so readers always observe a consistent
//! snapshot (jobs, occupancy and virtual time from the same instant).

use crate::api::{node_views, phase_name, ClusterResponse, EventRecord, EventsResponse, JobView};
use ones_simulator::{BackendEvent, BackendPhase, Occupancy};
use ones_sync::{Arc, RwLock};
use std::collections::{BTreeMap, VecDeque};

/// Default capacity of the event ring (old events are evicted FIFO; the
/// sequence numbers of evicted events remain burned).
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// Monotonic, sequence-numbered ring of scheduling events.
#[derive(Debug)]
pub struct EventLog {
    next_seq: u64,
    cap: usize,
    items: VecDeque<EventRecord>,
}

impl EventLog {
    /// An empty log holding at most `cap` events.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        EventLog {
            next_seq: 0,
            cap: cap.max(1),
            items: VecDeque::new(),
        }
    }

    /// Appends one event, assigning and returning its sequence number.
    pub fn push(&mut self, event: &BackendEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.items.len() == self.cap {
            self.items.pop_front();
        }
        self.items.push_back(EventRecord::of(seq, event));
        seq
    }

    /// The sequence number the next event will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Oldest sequence number still held.
    #[must_use]
    pub fn first_seq(&self) -> u64 {
        self.items.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Events with `seq >= since`, plus the cursor to resume from and how
    /// many requested events were already evicted.
    #[must_use]
    pub fn since(&self, since: u64) -> EventsResponse {
        let first = self.first_seq();
        let dropped = first.saturating_sub(since);
        let events: Vec<EventRecord> = self
            .items
            .iter()
            .filter(|e| e.seq >= since)
            .cloned()
            .collect();
        EventsResponse {
            events,
            next_seq: self.next_seq,
            dropped,
        }
    }
}

/// The whole service view, republished by the core thread.
#[derive(Debug)]
pub struct ServiceState {
    /// Scheduler name, for display.
    pub scheduler: String,
    /// Current virtual time, seconds.
    pub now_secs: f64,
    /// Backend phase after the last step batch.
    pub phase: BackendPhase,
    /// Whether the core loop is paused.
    pub paused: bool,
    /// Whether the daemon refuses new submissions.
    pub draining: bool,
    /// Every known job keyed by id (projected views, not raw statuses).
    pub jobs: BTreeMap<u64, JobView>,
    /// Cluster occupancy at `now_secs`.
    pub occupancy: Occupancy,
    /// The event stream.
    pub events: EventLog,
    /// Jobs ever submitted (preloaded trace + API).
    pub submitted: u64,
    /// Jobs that converged.
    pub completed: u64,
    /// Jobs that ended abnormally.
    pub killed: u64,
    /// Submissions refused with a recorded outcome (drain races).
    pub rejected: u64,
}

impl ServiceState {
    /// Initial state before the core thread's first publish.
    #[must_use]
    pub fn new(scheduler: String, occupancy: Occupancy, paused: bool) -> Self {
        ServiceState {
            scheduler,
            now_secs: 0.0,
            phase: BackendPhase::Idle,
            paused,
            draining: false,
            jobs: BTreeMap::new(),
            occupancy,
            events: EventLog::new(DEFAULT_EVENT_CAP),
            submitted: 0,
            completed: 0,
            killed: 0,
            rejected: 0,
        }
    }

    /// Renders the `GET /v1/cluster` body.
    #[must_use]
    pub fn cluster_response(&self) -> ClusterResponse {
        ClusterResponse {
            scheduler: self.scheduler.clone(),
            now_secs: self.now_secs,
            phase: phase_name(self.phase).to_string(),
            paused: self.paused,
            draining: self.draining,
            total_gpus: self.occupancy.total_gpus,
            busy_gpus: self.occupancy.busy_gpus,
            nodes: node_views(&self.occupancy),
            running_jobs: self.occupancy.running_jobs,
            waiting_jobs: self.occupancy.waiting_jobs,
            queued_jobs: self.occupancy.queued_jobs,
            submitted: self.submitted,
            completed: self.completed,
            killed: self.killed,
            rejected: self.rejected,
            events_next_seq: self.events.next_seq(),
        }
    }

    /// Jobs not yet finished (queued + waiting + running).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.jobs
            .values()
            .filter(|j| j.phase != "completed" && j.phase != "killed")
            .count() as u64
    }
}

/// Handle shared between the core thread and HTTP handlers.
pub type SharedState = Arc<RwLock<ServiceState>>;

/// Builds a fresh shared state.
#[must_use]
pub fn shared(scheduler: String, occupancy: Occupancy, paused: bool) -> SharedState {
    Arc::new(RwLock::new(ServiceState::new(scheduler, occupancy, paused)))
}

/// Read lock that recovers from poisoning: a panicked holder must not
/// take the whole daemon down — the state is republished wholesale after
/// every step batch, so the worst a poisoned snapshot can be is stale.
pub fn read_state(state: &SharedState) -> ones_sync::RwLockReadGuard<'_, ServiceState> {
    state
        .read()
        .unwrap_or_else(ones_sync::PoisonError::into_inner)
}

/// Write lock with the same poison recovery as [`read_state`]: the core
/// thread is the only writer, and its next publish overwrites whatever a
/// poisoned writer left half-done.
pub fn write_state(state: &SharedState) -> ones_sync::RwLockWriteGuard<'_, ServiceState> {
    state
        .write()
        .unwrap_or_else(ones_sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ones_simulator::BackendEventKind;
    use ones_workload::JobId;

    fn ev(job: u64) -> BackendEvent {
        BackendEvent {
            vt_secs: job as f64,
            job: JobId(job),
            kind: BackendEventKind::Arrived,
        }
    }

    #[test]
    fn event_log_assigns_monotonic_gapless_sequence_numbers() {
        let mut log = EventLog::new(100);
        for i in 0..10 {
            assert_eq!(log.push(&ev(i)), i);
        }
        let all = log.since(0);
        assert_eq!(all.events.len(), 10);
        assert_eq!(all.next_seq, 10);
        assert_eq!(all.dropped, 0);
        let tail = log.since(7);
        assert_eq!(tail.events.len(), 3);
        assert_eq!(tail.events[0].seq, 7);
        // A cursor at the write head returns nothing and stays put.
        let empty = log.since(10);
        assert!(empty.events.is_empty());
        assert_eq!(empty.next_seq, 10);
    }

    #[test]
    fn event_log_eviction_is_reported_as_dropped() {
        let mut log = EventLog::new(4);
        for i in 0..10 {
            log.push(&ev(i));
        }
        assert_eq!(log.first_seq(), 6);
        let resp = log.since(0);
        assert_eq!(resp.events.len(), 4);
        assert_eq!(resp.dropped, 6);
        assert_eq!(resp.events[0].seq, 6);
        // Resuming from a live cursor drops nothing.
        assert_eq!(log.since(8).dropped, 0);
    }
}
