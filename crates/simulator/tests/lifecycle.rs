//! The lifecycle contract: the engine's typed event stream is a complete
//! record of every job transition. Folding each step's events must
//! reproduce the engine's own job statuses, and every executed scaling
//! operation must reach the backend stream as exactly one event.

use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_schedcore::JobPhase;
use ones_simcore::DetRng;
use ones_simulator::experiment::SchedulerKind;
use ones_simulator::{
    BackendEventKind, BackendPhase, ClusterBackend, SimBackend, SimConfig, Simulation, StepOutcome,
};
use ones_workload::{JobId, ReplayConfig, Trace};
use std::collections::{BTreeMap, BTreeSet};

const GPUS: u32 = 16;

/// The Philly-style smoke trace `scripts/ci.sh` replays: 12 jobs with
/// abnormal terminations, seed 7, one arrival per 20 s on average.
fn philly_trace() -> Trace {
    ReplayConfig {
        num_jobs: 12,
        base_rate: 1.0 / 20.0,
        seed: 7,
        ..ReplayConfig::default()
    }
    .generate()
}

/// What the stream says about one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Folded {
    phase: JobPhase,
    batch: u32,
    gpus: u32,
    epochs_done: u32,
    killed: bool,
}

#[test]
fn folded_stream_equals_job_statuses_after_every_step() {
    let trace = philly_trace();
    assert!(trace.jobs.iter().any(|j| j.kill_after_secs.is_some()));
    for kind in [
        SchedulerKind::Ones,
        SchedulerKind::Tiresias,
        SchedulerKind::Fifo,
    ] {
        let spec = ClusterSpec::longhorn_subset(GPUS);
        let scheduler = kind.build(&spec, &trace, &DetRng::seed(1));
        let mut sim = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        );
        let mut fold: BTreeMap<JobId, Folded> = BTreeMap::new();
        let mut ended = BTreeSet::new();
        let mut last_vt = 0.0;
        let mut kills = 0;
        while sim.step() == StepOutcome::Progressed {
            for ev in sim.step_events() {
                assert!(ev.vt_secs >= last_vt, "{kind:?}: vt went back at {ev:?}");
                last_vt = ev.vt_secs;
                if ev.kind == BackendEventKind::Arrived {
                    let fresh = Folded {
                        phase: JobPhase::Waiting,
                        batch: 0,
                        gpus: 0,
                        epochs_done: 0,
                        killed: false,
                    };
                    assert!(
                        fold.insert(ev.job, fresh).is_none(),
                        "{kind:?}: {} arrived twice",
                        ev.job
                    );
                    continue;
                }
                let job = fold
                    .get_mut(&ev.job)
                    .unwrap_or_else(|| panic!("{kind:?}: {ev:?} before the job arrived"));
                assert!(
                    !ended.contains(&ev.job),
                    "{kind:?}: {ev:?} after the job ended"
                );
                match ev.kind {
                    BackendEventKind::Started { batch, gpus }
                    | BackendEventKind::Resized { batch, gpus } => {
                        let was_running = job.phase == JobPhase::Running;
                        assert_eq!(
                            was_running,
                            matches!(ev.kind, BackendEventKind::Resized { .. }),
                            "{kind:?}: {ev:?} while {:?}",
                            job.phase
                        );
                        (job.phase, job.batch, job.gpus) = (JobPhase::Running, batch, gpus);
                    }
                    BackendEventKind::Preempted => {
                        (job.phase, job.batch, job.gpus) = (JobPhase::Waiting, 0, 0);
                    }
                    BackendEventKind::EpochEnded { epochs_done } => {
                        assert!(
                            epochs_done > job.epochs_done,
                            "{kind:?}: {} epochs went {} -> {epochs_done}",
                            ev.job,
                            job.epochs_done
                        );
                        job.epochs_done = epochs_done;
                    }
                    BackendEventKind::Completed | BackendEventKind::Killed => {
                        (job.phase, job.batch, job.gpus) = (JobPhase::Completed, 0, 0);
                        job.killed = ev.kind == BackendEventKind::Killed;
                        kills += usize::from(job.killed);
                        ended.insert(ev.job);
                    }
                    BackendEventKind::Arrived | BackendEventKind::Rejected => {
                        panic!("{kind:?}: unexpected {ev:?}")
                    }
                }
            }

            let held: u32 = fold.values().map(|j| j.gpus).sum();
            assert!(held <= GPUS, "{kind:?}: {held} GPUs held at t={last_vt}");
            let statuses = sim.job_statuses();
            assert_eq!(fold.len() + sim.queued_count(), statuses.len());
            for (id, job) in &fold {
                let s = &statuses[id];
                let actual = Folded {
                    phase: s.phase,
                    batch: s.current_batch,
                    gpus: s.current_gpus,
                    epochs_done: s.epochs_done,
                    killed: s.killed,
                };
                assert_eq!(*job, actual, "{kind:?}: {id} at t={last_vt}");
            }
        }
        let (result, _) = sim.into_result();
        assert!(result.all_completed, "{kind:?}: run did not finish");
        assert_eq!(
            fold.len(),
            trace.jobs.len(),
            "{kind:?}: not every job arrived"
        );
        assert_eq!(
            ended.len(),
            trace.jobs.len(),
            "{kind:?}: a job never completed or was killed"
        );
        assert_eq!(kills, result.killed_jobs, "{kind:?}: kill count");
        assert!(kills > 0, "{kind:?}: the trace's kills never landed");
    }
}

#[test]
fn every_reconfiguration_reaches_the_backend_stream() {
    // Moves to other GPUs at the same batch and GPU count are charged like
    // any other scaling operation, so they must show up in `/v1/events` as
    // `resized`: one start or resize per executed (re)configuration.
    let trace = philly_trace();
    let spec = ClusterSpec::longhorn_subset(GPUS);
    let scheduler = SchedulerKind::Ones.build(&spec, &trace, &DetRng::seed(1));
    let mut backend = SimBackend::new(spec, &trace, scheduler, SimConfig::default());
    let mut configured = 0u64;
    loop {
        let (events, phase) = backend.step(64);
        configured += events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    BackendEventKind::Started { .. } | BackendEventKind::Resized { .. }
                )
            })
            .count() as u64;
        if phase != BackendPhase::Active {
            break;
        }
    }
    let result = backend.into_result();
    assert!(result.transitions > 0);
    assert_eq!(configured, result.transitions);
}
