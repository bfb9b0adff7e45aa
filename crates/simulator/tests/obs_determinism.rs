//! Observability must never change scheduling decisions: a run with the
//! recorder fully on must produce a `SimResult` and a lifecycle event
//! stream identical to one with it off. This file is its own test binary (own process), so flipping the
//! process-global level here cannot disturb other tests.

use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_simcore::DetRng;
use ones_simulator::experiment::SchedulerKind;
use ones_simulator::{BackendEvent, SimConfig, SimResult, Simulation, StepOutcome};
use ones_workload::{Trace, TraceConfig};

fn run(kind: SchedulerKind) -> (SimResult, Vec<BackendEvent>) {
    let trace = Trace::generate(TraceConfig {
        num_jobs: 12,
        arrival_rate: 1.0 / 12.0,
        seed: 11,
        kill_fraction: 0.1,
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
    (sim.into_result().0, events)
}

fn assert_identical(
    (off, off_events): &(SimResult, Vec<BackendEvent>),
    (full, full_events): &(SimResult, Vec<BackendEvent>),
    kind: SchedulerKind,
) {
    assert_eq!(off.makespan, full.makespan, "{kind:?}: makespan differs");
    assert_eq!(off.all_completed, full.all_completed, "{kind:?}");
    assert_eq!(off.deployments, full.deployments, "{kind:?}: deployments");
    assert_eq!(off.transitions, full.transitions, "{kind:?}: transitions");
    assert_eq!(off.total_overhead, full.total_overhead, "{kind:?}");
    assert_eq!(off.jobs.len(), full.jobs.len(), "{kind:?}");
    for (id, a) in &off.jobs {
        let b = &full.jobs[id];
        assert_eq!(a.jct(), b.jct(), "{kind:?}: JCT of {id:?} differs");
        assert_eq!(a.exec_time, b.exec_time, "{kind:?}: exec of {id:?}");
        assert_eq!(a.killed, b.killed, "{kind:?}: kill status of {id:?}");
    }
    assert_eq!(
        off_events.len(),
        full_events.len(),
        "{kind:?}: event count differs"
    );
    for (i, (a, b)) in off_events.iter().zip(full_events).enumerate() {
        assert_eq!(a, b, "{kind:?}: lifecycle event {i} differs");
    }
}

#[test]
fn obs_full_does_not_change_sim_results() {
    for kind in [
        SchedulerKind::Ones,
        SchedulerKind::Fifo,
        SchedulerKind::Tiresias,
    ] {
        ones_obs::set_level(ones_obs::ObsLevel::Off);
        ones_obs::reset();
        let off = run(kind);

        ones_obs::set_level(ones_obs::ObsLevel::Full);
        ones_obs::reset();
        let full = run(kind);

        // The recorder actually captured the second run.
        assert!(
            !ones_obs::spans_snapshot().is_empty(),
            "{kind:?}: full-level run recorded no spans"
        );

        assert_identical(&off, &full, kind);
        ones_obs::set_level(ones_obs::ObsLevel::Counters);
    }
}
