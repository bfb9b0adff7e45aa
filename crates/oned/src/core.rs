//! The scheduler core: one thread that owns the [`ClusterBackend`].
//!
//! HTTP handlers never touch the backend directly — they send [`CoreMsg`]
//! over a channel and (for submissions and config changes) block on a
//! oneshot-style reply. The core interleaves control messages with
//! stepping virtual time in bounded batches, republishing the shared
//! [`ServiceState`] after every batch so readers stay close to live.

use crate::api::{ConfigReply, ConfigRequest, JobView, ObsReply, ObsRequest, SubmitReply};
use crate::persist::PersistedState;
use crate::state::{write_state, SharedState};
use ones_simulator::{BackendEvent, BackendEventKind, BackendPhase, ClusterBackend};
use ones_sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use ones_workload::{JobId, WireJobSpec};
use std::path::PathBuf;
use std::time::Duration;

/// Control messages from HTTP handlers to the core thread.
pub enum CoreMsg {
    /// Submit a job; replies with the assigned id or a rejection.
    Submit {
        /// The submission as parsed off the wire.
        wire: WireJobSpec,
        /// Reply channel (bounded, size 1).
        reply: SyncSender<Result<SubmitReply, String>>,
    },
    /// Apply a live tuning / pause change.
    Config {
        /// The parsed request.
        req: ConfigRequest,
        /// Reply channel (bounded, size 1).
        reply: SyncSender<ConfigReply>,
    },
    /// Stop accepting new jobs; in-flight jobs keep running.
    Drain {
        /// Reply channel carrying the number of unfinished jobs.
        reply: SyncSender<u64>,
    },
    /// Apply a live observability change (level, sink flush/rotate,
    /// metrics snapshot). Runs on the core thread so sink file IO is
    /// serialised with stepping and snapshots are stamped with the
    /// backend's virtual clock.
    Obs {
        /// The parsed request.
        req: ObsRequest,
        /// Reply channel (bounded, size 1).
        reply: SyncSender<ObsReply>,
    },
    /// Terminate the core loop after one final publish.
    Stop,
}

/// Tunables for the core loop.
#[derive(Debug, Clone)]
pub struct CoreOptions {
    /// Start paused: queue submissions but do not advance virtual time.
    pub paused: bool,
    /// Start draining: refuse new submissions from the first message on
    /// (set when recovery restores a drained snapshot).
    pub draining: bool,
    /// Host-time sleep between step batches (throttles replay so wall
    /// clock observers can watch; zero = run flat out).
    pub step_delay: Duration,
    /// Scheduling events advanced per batch between control-message
    /// polls.
    pub events_per_batch: u64,
    /// Where to persist recovery snapshots after every step batch and
    /// control message; `None` disables persistence.
    pub state_file: Option<PathBuf>,
}

impl Default for CoreOptions {
    fn default() -> Self {
        CoreOptions {
            paused: false,
            draining: false,
            step_delay: Duration::ZERO,
            events_per_batch: 64,
            state_file: None,
        }
    }
}

/// How long the core blocks on the channel when there is nothing to step.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Runs the core loop until [`CoreMsg::Stop`] or channel disconnect.
/// Returns the backend so the caller can extract final accounting.
pub fn run_core(
    mut backend: Box<dyn ClusterBackend>,
    state: SharedState,
    rx: &Receiver<CoreMsg>,
    opts: CoreOptions,
) -> Box<dyn ClusterBackend> {
    let mut paused = opts.paused;
    let mut draining = opts.draining;
    let mut phase = BackendPhase::Active;
    // Jobs preloaded from a trace count as submitted.
    let (mut next_id, preloaded) = {
        let jobs = backend.job_statuses();
        (
            jobs.keys().last().map_or(0, |id| id.0 + 1),
            jobs.len() as u64,
        )
    };
    {
        let mut st = write_state(&state);
        st.submitted = preloaded;
        st.paused = paused;
        st.draining = draining;
    }
    publish(backend.as_mut(), &state, phase, paused, draining);
    persist_snapshot(backend.as_ref(), draining, opts.state_file.as_deref());

    loop {
        // Drain every pending control message before stepping again.
        let mut stop = false;
        let mut handled = false;
        while let Ok(msg) = rx.try_recv() {
            handled = true;
            match handle(
                msg,
                backend.as_mut(),
                &state,
                &mut paused,
                &mut draining,
                &mut next_id,
            ) {
                Verdict::Continue => {}
                Verdict::Woke => phase = BackendPhase::Active,
                Verdict::Stop => stop = true,
            }
        }
        if stop {
            publish(backend.as_mut(), &state, phase, paused, draining);
            persist_snapshot(backend.as_ref(), draining, opts.state_file.as_deref());
            return backend;
        }
        if handled {
            persist_snapshot(backend.as_ref(), draining, opts.state_file.as_deref());
        }

        if paused || phase != BackendPhase::Active {
            // Nothing to step: block on the channel instead of spinning.
            match rx.recv_timeout(IDLE_POLL) {
                Ok(msg) => {
                    match handle(
                        msg,
                        backend.as_mut(),
                        &state,
                        &mut paused,
                        &mut draining,
                        &mut next_id,
                    ) {
                        Verdict::Continue => {}
                        Verdict::Woke => phase = BackendPhase::Active,
                        Verdict::Stop => {
                            publish(backend.as_mut(), &state, phase, paused, draining);
                            persist_snapshot(
                                backend.as_ref(),
                                draining,
                                opts.state_file.as_deref(),
                            );
                            return backend;
                        }
                    }
                    persist_snapshot(backend.as_ref(), draining, opts.state_file.as_deref());
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    publish(backend.as_mut(), &state, phase, paused, draining);
                    persist_snapshot(backend.as_ref(), draining, opts.state_file.as_deref());
                    return backend;
                }
            }
            continue;
        }

        let (events, next_phase) = backend.step(opts.events_per_batch);
        phase = next_phase;
        {
            let mut st = write_state(&state);
            for event in &events {
                st.events.push(event);
                match event.kind {
                    BackendEventKind::Completed => st.completed += 1,
                    BackendEventKind::Killed => st.killed += 1,
                    _ => {}
                }
            }
        }
        publish(backend.as_mut(), &state, phase, paused, draining);
        persist_snapshot(backend.as_ref(), draining, opts.state_file.as_deref());
        if !opts.step_delay.is_zero() {
            std::thread::sleep(opts.step_delay);
        }
    }
}

/// Persists a recovery snapshot if a state file is configured. Failures
/// are reported, not fatal: a full disk must degrade crash recovery, not
/// stop scheduling.
fn persist_snapshot(backend: &dyn ClusterBackend, draining: bool, path: Option<&std::path::Path>) {
    let Some(path) = path else { return };
    let snapshot = PersistedState::snapshot(backend, draining);
    if let Err(e) = crate::persist::save(path, &snapshot) {
        eprintln!("ones-d: cannot persist state to {}: {e}", path.display());
    }
}

enum Verdict {
    Continue,
    /// The message may have created new work; leave idle.
    Woke,
    Stop,
}

fn handle(
    msg: CoreMsg,
    backend: &mut dyn ClusterBackend,
    state: &SharedState,
    paused: &mut bool,
    draining: &mut bool,
    next_id: &mut u64,
) -> Verdict {
    match msg {
        CoreMsg::Submit { wire, reply } => {
            let result = if *draining {
                // A submit that lost the race with a drain. Burn an id
                // and record the refusal in the event stream so the
                // outcome is auditable, not just one client's error
                // string: the caller's 409 and the cluster's `rejected`
                // counter always agree.
                let id = *next_id;
                *next_id += 1;
                {
                    let mut st = write_state(state);
                    st.rejected += 1;
                    st.events.push(&BackendEvent {
                        vt_secs: backend.now_secs(),
                        job: JobId(id),
                        kind: BackendEventKind::Rejected,
                    });
                }
                Err("daemon is draining; not accepting new jobs".to_string())
            } else {
                submit(wire, backend, next_id)
            };
            let woke = result.is_ok();
            let _ = reply.send(result);
            if woke {
                publish(backend, state, BackendPhase::Active, *paused, *draining);
                let mut st = write_state(state);
                st.submitted += 1;
                Verdict::Woke
            } else {
                Verdict::Continue
            }
        }
        CoreMsg::Config { req, reply } => {
            let tuning = req.tuning();
            let applied = !tuning.is_empty() && backend.reconfigure(&tuning);
            let mut woke = false;
            if let Some(p) = req.pause {
                woke = *paused && !p;
                *paused = p;
            }
            let _ = reply.send(ConfigReply {
                applied,
                paused: *paused,
            });
            {
                let mut st = write_state(state);
                st.paused = *paused;
            }
            if woke {
                Verdict::Woke
            } else {
                Verdict::Continue
            }
        }
        CoreMsg::Drain { reply } => {
            *draining = true;
            let outstanding = {
                let mut st = write_state(state);
                st.draining = true;
                st.outstanding()
            };
            let _ = reply.send(outstanding);
            Verdict::Continue
        }
        CoreMsg::Obs { req, reply } => {
            let _ = reply.send(apply_obs(&req, backend.now_secs()));
            Verdict::Continue
        }
        CoreMsg::Stop => Verdict::Stop,
    }
}

/// Applies each requested observability action independently, collecting
/// per-action errors instead of aborting on the first.
fn apply_obs(req: &ObsRequest, now_secs: f64) -> ObsReply {
    let mut errors = Vec::new();
    if let Some(level) = &req.level {
        match ones_obs::ObsLevel::parse(level) {
            Some(l) => ones_obs::set_level(l),
            None => errors.push(format!("unknown obs level {level:?}")),
        }
    }
    let mut flushed = false;
    if req.flush_trace == Some(true) {
        match ones_obs::flush_trace_sink() {
            Ok(did) => flushed = did,
            Err(e) => errors.push(e.to_string()),
        }
    }
    let mut rotated_to = None;
    if req.rotate_trace == Some(true) {
        match ones_obs::rotate_trace_sink() {
            Ok(sealed) => rotated_to = sealed.map(|p| p.display().to_string()),
            Err(e) => errors.push(e.to_string()),
        }
    }
    let mut snapshotted = false;
    if req.metrics_snapshot == Some(true) {
        match ones_obs::force_metrics_snapshot(now_secs) {
            Ok(did) => snapshotted = did,
            Err(e) => errors.push(e.to_string()),
        }
    }
    ObsReply {
        level: ones_obs::level().name().to_string(),
        flushed,
        rotated_to,
        snapshotted,
        errors,
    }
}

fn submit(
    wire: WireJobSpec,
    backend: &mut dyn ClusterBackend,
    next_id: &mut u64,
) -> Result<SubmitReply, String> {
    let spec = wire.into_spec(*next_id, backend.now_secs())?;
    let id = spec.id.0;
    let name = spec.name.clone();
    let arrival_secs = backend.submit(spec)?;
    *next_id = (*next_id).max(id + 1);
    Ok(SubmitReply {
        id,
        name,
        arrival_secs,
    })
}

/// Republishes the backend view into the shared state.
fn publish(
    backend: &mut dyn ClusterBackend,
    state: &SharedState,
    phase: BackendPhase,
    paused: bool,
    draining: bool,
) {
    let now = backend.now_secs();
    let jobs = backend.job_statuses();
    let occupancy = backend.occupancy();
    let mut st = write_state(state);
    st.now_secs = now;
    st.phase = phase;
    st.paused = paused;
    st.draining = draining;
    st.occupancy = occupancy;
    st.jobs = jobs
        .iter()
        .map(|(id, status)| (id.0, JobView::of(status, now)))
        .collect();
}
