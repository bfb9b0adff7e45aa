//! Cluster-saturation study (beyond the paper's figures, quantifying the
//! §2.2 claim "we can saturate the cluster to fully utilize the GPU
//! resources"): GPU-utilisation-over-time series and aggregates per
//! scheduler on the same contended trace.
//!
//! ```text
//! cargo run --release -p ones-bench --bin utilization \
//!     [--jobs 60] [--gpus 64] [--seed 42]
//! ```

use ones_bench::{print_header, Args};
use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_simcore::DetRng;
use ones_simulator::{SchedulerKind, SimConfig, Simulation, StepOutcome, Timeline};
use ones_workload::{Trace, TraceConfig};

fn main() {
    let args = Args::parse();
    let trace = Trace::generate(TraceConfig {
        num_jobs: args.get_usize("jobs", 60),
        arrival_rate: 1.0 / args.get_f64("rate-secs", 30.0),
        seed: args.get_u64("seed", 42),
        kill_fraction: 0.0,
    });
    let gpus = args.get_u32("gpus", 64);
    let spec = ClusterSpec::longhorn_subset(gpus);
    let schedulers = [
        SchedulerKind::Ones,
        SchedulerKind::Tiresias,
        SchedulerKind::Optimus,
        SchedulerKind::Gandiva,
        SchedulerKind::Fifo,
    ];

    let mut rows = Vec::new();
    for kind in schedulers {
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
        let (result, _) = sim.into_result();
        assert!(result.all_completed, "{} stalled", kind.name());
        let tl = Timeline::from_events(result.total_gpus, &events);
        rows.push((kind, result, tl));
    }

    print_header("GPU utilisation over normalised run time (busy fraction)");
    print!("{:<10}", "t/makespan");
    for frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
        print!(" {frac:>7.2}");
    }
    println!(" {:>8} {:>9} {:>9}", "mean", "makespan", "peak wait");
    for (kind, result, tl) in &rows {
        print!("{:<10}", kind.name());
        let end = result.makespan;
        for frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let u = tl
                .at(end * frac)
                .map_or(0.0, |p| f64::from(p.busy_gpus) / f64::from(tl.total_gpus));
            print!(" {u:>7.2}");
        }
        println!(
            " {:>7.1}% {:>9.0} {:>9}",
            100.0 * result.gpu_utilization(),
            result.makespan,
            tl.peak_waiting()
        );
    }
    println!(
        "\nReading: elastic admission lets ONES keep the cluster saturated\n\
         while the trace is backlogged and finish (smaller makespan) without\n\
         long waiting queues; gang-scheduled fixed sizes leave fragmentation\n\
         holes."
    );
}
