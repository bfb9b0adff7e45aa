//! The pid-1 virtual-clock track is a golden artifact: the `epoch` spans,
//! `start`/`preempt`/`deploy` instants and reconcile phase spans of two
//! small runs must reproduce the committed fixtures exactly (name, track,
//! timestamp, duration and args, in recording order). This file is its
//! own test binary, so flipping the process-global obs level here cannot
//! disturb other tests.

use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_obs::{ArgValue, Clock};
use ones_simcore::DetRng;
use ones_simulator::experiment::SchedulerKind;
use ones_simulator::{SimConfig, Simulation};
use ones_workload::{Trace, TraceConfig};
use std::fmt::Write as _;

/// Runs a small contended trace with kills under `kind` at the full obs
/// level and renders its virtual track, one event per line.
fn render(kind: SchedulerKind) -> String {
    let trace = Trace::generate(TraceConfig {
        num_jobs: 6,
        arrival_rate: 1.0 / 15.0,
        seed: 5,
        kill_fraction: 0.3,
    });
    let spec = ClusterSpec::longhorn_subset(8);
    let scheduler = kind.build(&spec, &trace, &DetRng::seed(1));
    ones_obs::set_level(ones_obs::ObsLevel::Full);
    ones_obs::reset();
    let _ = Simulation::new(
        PerfModel::new(spec),
        &trace,
        scheduler,
        SimConfig::default(),
    )
    .run();
    let mut out = String::new();
    for ev in ones_obs::spans_snapshot() {
        if ev.clock != Clock::Virtual {
            continue;
        }
        let _ = write!(
            out,
            "{} {} {} {:?} {:?}",
            ev.name, ev.cat, ev.tid, ev.ts_us, ev.dur_us
        );
        for (k, v) in &ev.args {
            let v = match v {
                ArgValue::U64(u) => u.to_string(),
                ArgValue::F64(f) => format!("{f:?}"),
                ArgValue::Str(s) => s.clone(),
            };
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    ones_obs::set_level(ones_obs::ObsLevel::Counters);
    out
}

fn assert_golden(kind: SchedulerKind, golden: &str) {
    let got = render(kind);
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "{kind:?}: virtual track differs at line {}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "{kind:?}: virtual track length differs"
    );
}

#[test]
fn virtual_track_matches_the_golden_fixtures() {
    // One test, so the two runs never share the global recorder.
    assert_golden(
        SchedulerKind::Ones,
        include_str!("fixtures/virtual_track_ones.txt"),
    );
    assert_golden(
        SchedulerKind::Tiresias,
        include_str!("fixtures/virtual_track_tiresias.txt"),
    );
}
