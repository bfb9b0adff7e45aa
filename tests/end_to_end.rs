//! Cross-crate integration tests: full simulations of Table 2 traces under
//! every scheduler, checking lifecycle invariants that no single crate can
//! verify alone.

use ones_repro::cluster::ClusterSpec;
use ones_repro::dlperf::PerfModel;
use ones_repro::simcore::{DetRng, SimTime};
use ones_repro::simulator::{
    BackendEvent, BackendEventKind, SchedulerKind, SimConfig, SimResult, Simulation, StepOutcome,
    Timeline,
};
use ones_repro::workload::{JobId, Trace, TraceConfig};

fn run(kind: SchedulerKind, jobs: usize, gpus: u32, seed: u64) -> SimResult {
    run_logged(kind, jobs, gpus, seed).0
}

/// Like [`run`], also returning every step's lifecycle events in order.
fn run_logged(
    kind: SchedulerKind,
    jobs: usize,
    gpus: u32,
    seed: u64,
) -> (SimResult, Vec<BackendEvent>) {
    let trace = Trace::generate(TraceConfig {
        num_jobs: jobs,
        arrival_rate: 1.0 / 20.0,
        seed,
        kill_fraction: 0.0,
    });
    let spec = ClusterSpec::longhorn_subset(gpus);
    let scheduler = kind.build(&spec, &trace, &DetRng::seed(99));
    drive(Simulation::new(
        PerfModel::new(spec),
        &trace,
        scheduler,
        SimConfig::default(),
    ))
}

fn drive(mut sim: Simulation) -> (SimResult, Vec<BackendEvent>) {
    let mut events = Vec::new();
    while sim.step() == StepOutcome::Progressed {
        events.extend_from_slice(sim.step_events());
    }
    (sim.into_result().0, events)
}

/// The `(job, batch)` of every start and resize in the stream.
fn configured_batches(events: &[BackendEvent]) -> impl Iterator<Item = (JobId, u32)> + '_ {
    events.iter().filter_map(|e| match e.kind {
        BackendEventKind::Started { batch, .. } | BackendEventKind::Resized { batch, .. } => {
            Some((e.job, batch))
        }
        _ => None,
    })
}

const ALL: [SchedulerKind; 8] = [
    SchedulerKind::Ones,
    SchedulerKind::Drl,
    SchedulerKind::Tiresias,
    SchedulerKind::Optimus,
    SchedulerKind::Fifo,
    SchedulerKind::SrtfOracle,
    SchedulerKind::Gandiva,
    SchedulerKind::Slaq,
];

#[test]
fn every_scheduler_completes_every_job() {
    for kind in ALL {
        let r = run(kind, 8, 16, 3);
        assert!(r.all_completed, "{kind:?} left jobs incomplete");
        assert_eq!(r.jobs.len(), 8);
        for job in r.jobs.values() {
            assert!(job.is_completed(), "{kind:?}: {} incomplete", job.spec.name);
        }
    }
}

#[test]
fn lifecycle_causality_invariants() {
    for kind in ALL {
        let r = run(kind, 8, 16, 5);
        let horizon = SimTime::from_secs(r.makespan);
        for job in r.jobs.values() {
            let name = &job.spec.name;
            let arrival = job.arrival;
            let start = job.first_start.expect("completed jobs started");
            let done = job.completion.expect("completed");
            assert!(arrival <= start, "{kind:?}/{name}: started before arrival");
            assert!(start <= done, "{kind:?}/{name}: finished before starting");
            let jct = job.jct().unwrap();
            let q = job.queueing_time(horizon);
            assert!(
                (q + job.exec_time - jct).abs() < 1e-6,
                "{kind:?}/{name}: queue {q} + exec {} != jct {jct}",
                job.exec_time
            );
            assert!(job.exec_time > 0.0, "{kind:?}/{name}: zero execution time");
            assert!(job.epochs_done > 0, "{kind:?}/{name}: zero epochs");
            assert!(
                job.current_accuracy >= job.spec.convergence.target_accuracy - 1e-9,
                "{kind:?}/{name}: completed below target accuracy"
            );
        }
    }
}

#[test]
fn gpu_capacity_never_exceeded() {
    // Fold concurrent GPU usage from the lifecycle stream: at every
    // instant, the sum of running jobs' GPUs must fit the cluster.
    let (_, events) = run_logged(SchedulerKind::Ones, 8, 16, 7);
    let timeline = Timeline::from_events(16, &events);
    assert!(!timeline.points.is_empty());
    for p in &timeline.points {
        assert!(
            p.busy_gpus <= 16,
            "{} GPUs busy at t={} on a 16-GPU cluster",
            p.busy_gpus,
            p.at
        );
    }
}

#[test]
fn simulations_are_deterministic() {
    for kind in [
        SchedulerKind::Ones,
        SchedulerKind::Drl,
        SchedulerKind::Tiresias,
    ] {
        let a = run(kind, 6, 16, 11);
        let b = run(kind, 6, 16, 11);
        assert_eq!(a.makespan, b.makespan, "{kind:?} not deterministic");
        let jct =
            |r: &SimResult| -> Vec<f64> { r.jobs.values().map(|j| j.jct().unwrap()).collect() };
        assert_eq!(jct(&a), jct(&b), "{kind:?} JCTs differ across runs");
    }
}

#[test]
fn different_seeds_give_different_workloads_same_invariants() {
    for seed in [1u64, 2, 3] {
        let r = run(SchedulerKind::Fifo, 6, 16, seed);
        assert!(r.all_completed);
        assert!(r.makespan > 0.0);
    }
}

#[test]
fn ones_scales_batches_above_submission() {
    // On an idle-ish cluster ONES must actually use its elasticity: at
    // least one deployment should give some job a batch beyond B0.
    let (_, events) = run_logged(SchedulerKind::Ones, 4, 16, 13);
    let saw_elastic = configured_batches(&events).any(|(_, batch)| batch > 256);
    assert!(
        saw_elastic,
        "ONES never grew any batch beyond the submitted sizes"
    );
}

#[test]
fn fixed_batch_schedulers_never_change_batches() {
    for kind in [
        SchedulerKind::Tiresias,
        SchedulerKind::Fifo,
        SchedulerKind::Drl,
    ] {
        let (r, events) = run_logged(kind, 6, 16, 17);
        let mut configured = 0;
        for (job, batch) in configured_batches(&events) {
            let submitted = r.jobs[&job].spec.submit_batch;
            assert_eq!(
                batch, submitted,
                "{kind:?} changed {job}'s batch ({submitted} -> {batch})"
            );
            configured += 1;
        }
        assert!(configured >= 6, "{kind:?}: not every job started");
    }
}

#[test]
fn elastic_overhead_is_an_order_cheaper_per_transition() {
    let ones = run(SchedulerKind::Ones, 8, 16, 19);
    let tiresias = run(SchedulerKind::Tiresias, 8, 16, 19);
    let per = |r: &SimResult| r.total_overhead / r.transitions.max(1) as f64;
    assert!(
        per(&ones) * 5.0 < per(&tiresias),
        "elastic {:.2}s/transition vs checkpoint {:.2}s/transition",
        per(&ones),
        per(&tiresias)
    );
}

#[test]
fn abnormal_endings_are_survived_by_every_scheduler() {
    // §2.1: some jobs are killed or crash. Schedulers and the ONES
    // predictor must survive partial, abnormal job histories.
    for kind in [
        SchedulerKind::Ones,
        SchedulerKind::Tiresias,
        SchedulerKind::Drl,
    ] {
        let trace = Trace::generate(TraceConfig {
            num_jobs: 10,
            arrival_rate: 1.0 / 15.0,
            seed: 23,
            kill_fraction: 0.4,
        });
        let killed_in_trace = trace
            .jobs
            .iter()
            .filter(|j| j.kill_after_secs.is_some())
            .count();
        assert!(killed_in_trace > 0, "kill fraction produced no kills");
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = kind.build(&spec, &trace, &DetRng::seed(99));
        let r = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        )
        .run();
        assert!(r.all_completed, "{kind:?} wedged on a killed-job trace");
        let killed = r.jobs.values().filter(|j| j.killed).count();
        // Some marked jobs may legitimately converge before their kill
        // time; at least one kill should land with this seed.
        assert!(killed >= 1, "{kind:?}: no kill landed");
        for job in r.jobs.values() {
            assert!(job.is_completed());
            if job.killed {
                assert!(
                    job.current_accuracy < job.spec.convergence.max_accuracy,
                    "killed job reported final accuracy"
                );
            }
        }
    }
}

#[test]
fn killed_jobs_release_their_gpus() {
    let trace = Trace::generate(TraceConfig {
        num_jobs: 8,
        arrival_rate: 1.0 / 15.0,
        seed: 31,
        kill_fraction: 0.5,
    });
    let spec = ClusterSpec::longhorn_subset(16);
    let scheduler = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(1));
    let (r, events) = drive(Simulation::new(
        PerfModel::new(spec),
        &trace,
        scheduler,
        SimConfig::default(),
    ));
    assert!(r.all_completed);
    let kills: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].kind == BackendEventKind::Killed)
        .collect();
    assert!(!kills.is_empty());
    // A kill frees the job's GPUs at once: the cluster drains to idle,
    // and the first kill is followed by other jobs still making progress
    // (the cluster is not wedged on phantom allocations).
    let timeline = Timeline::from_events(16, &events);
    let last = timeline.points.last().unwrap();
    assert_eq!((last.busy_gpus, last.running_jobs), (0, 0));
    let killed = events[kills[0]].job;
    assert!(
        events[kills[0]..]
            .iter()
            .any(|e| e.job != killed && matches!(e.kind, BackendEventKind::EpochEnded { .. })),
        "no job progressed after the first kill"
    );
}
