//! Whole-result golden fixture for every scheduler: each `SchedulerKind`
//! replays the 12-job Philly-style smoke trace (with abnormal kills) on
//! 16 GPUs, and its run-level accounting plus every job's JCT, execution
//! time and epochs must reproduce `fixtures/sim_results.txt` exactly.
//! Floats print in `{:?}` form, so any bit of drift fails.
//!
//! The same trace also pins how often ONES invalidates its search's
//! throughput cache: once per arrival and once per completion or kill.

use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_simcore::DetRng;
use ones_simulator::experiment::SchedulerKind;
use ones_simulator::{BackendEventKind, SimConfig, Simulation, StepOutcome};
use ones_workload::ReplayConfig;
use std::fmt::Write as _;

const ALL: [SchedulerKind; 12] = [
    SchedulerKind::Ones,
    SchedulerKind::Drl,
    SchedulerKind::Tiresias,
    SchedulerKind::Optimus,
    SchedulerKind::Fifo,
    SchedulerKind::SrtfOracle,
    SchedulerKind::Gandiva,
    SchedulerKind::Slaq,
    SchedulerKind::OnesGreedy,
    SchedulerKind::OnesNoPredictor,
    SchedulerKind::OnesNoReorder,
    SchedulerKind::OnesCheckpoint,
];

/// A simulation of the 12-job Philly smoke trace (`scripts/ci.sh`'s
/// replay arguments) on 16 GPUs under `kind`.
fn smoke_sim(kind: SchedulerKind) -> Simulation {
    let trace = ReplayConfig {
        num_jobs: 12,
        base_rate: 1.0 / 20.0,
        seed: 7,
        ..ReplayConfig::default()
    }
    .generate();
    let spec = ClusterSpec::longhorn_subset(16);
    let scheduler = kind.build(&spec, &trace, &DetRng::seed(1));
    Simulation::new(
        PerfModel::new(spec),
        &trace,
        scheduler,
        SimConfig::default(),
    )
}

/// Runs the smoke trace under `kind` and renders the result, one line for
/// the run and one per job.
fn render(kind: SchedulerKind) -> String {
    let r = smoke_sim(kind).run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} makespan={:?} deployments={} transitions={} overhead={:?} \
         completed={} killed={} incomplete={}",
        kind.name(),
        r.makespan,
        r.deployments,
        r.transitions,
        r.total_overhead,
        r.completed_jobs,
        r.killed_jobs,
        r.incomplete_jobs
    );
    for (id, job) in &r.jobs {
        let _ = writeln!(
            out,
            "  {id} jct={:?} exec={:?} epochs={} killed={}",
            job.jct(),
            job.exec_time,
            job.epochs_done,
            job.killed
        );
    }
    out
}

#[test]
fn every_scheduler_reproduces_the_golden_result() {
    let golden = include_str!("fixtures/sim_results.txt");
    let got: String = ALL.into_iter().map(render).collect();
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "result differs at fixture line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "result length differs"
    );
}

#[test]
fn ones_invalidates_its_cache_only_on_arrivals_and_completions() {
    let mut sim = smoke_sim(SchedulerKind::Ones);
    let mut entering_or_leaving = 0;
    while sim.step() == StepOutcome::Progressed {
        entering_or_leaving += sim
            .step_events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    BackendEventKind::Arrived
                        | BackendEventKind::Completed
                        | BackendEventKind::Killed
                )
            })
            .count() as u64;
    }
    let (r, _) = sim.into_result();
    assert_eq!(entering_or_leaving, 24, "12 arrivals, 12 endings");
    let perf = r.scheduler_perf.expect("ONES reports search counters");
    assert_eq!(perf.cache_invalidations, entering_or_leaving);
}
