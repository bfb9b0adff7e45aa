//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or every one in turn, with `--workload all`), checks
//! the program's outputs, prints each metric by name with its unit, and
//! ends each workload with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured without
//! wrappers; with `--trace 1` they are the per-layer ones, measured by
//! wrapping the calls into each layer. Exits 1 when a check fails.

mod daemon;
mod openloop;
mod report;
mod sim;
mod spans;
mod stats;

use ones_simulator::SchedulerKind;
use report::Report;
use sim::{SimWorkload, Source};

/// ONES on the paper's Table 2 generator at 64 GPUs (Figure 15's setup).
const ONES_TABLE2: SimWorkload = SimWorkload {
    name: "ones_table2_64g",
    scheduler: SchedulerKind::Ones,
    gpus: 64,
    source: Source::Table2 {
        jobs: 8,
        population_seed: 42,
    },
};

/// Tiresias on a congested Philly-style replay at 64 GPUs.
const TIRESIAS_PHILLY: SimWorkload = SimWorkload {
    name: "tiresias_philly_64g",
    scheduler: SchedulerKind::Tiresias,
    gpus: 64,
    source: Source::Replay {
        jobs: 500,
        population_seed: 7,
    },
};

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = [ONES_TABLE2.name, TIRESIAS_PHILLY.name, daemon::NAME];

/// End-to-end metrics reported with `--trace 0`, with their units, as
/// `BENCHMARK.json` lists them: the ones every workload has.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics reported with `--trace 1`, with their units, as
/// `BENCHMARK.json` lists them. A metric of a layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("simulator.engine.self_s", "s"),
    ("simulator.engine.events", "count"),
    ("simulator.engine.us_per_event", "us"),
    ("schedcore.reconcile.diff_s", "s"),
    ("simulator.reconcile.ops", "count"),
    ("simulator.reconcile.noop_deploys", "count"),
    ("schedcore.scheduler.on_event_s", "s"),
    ("schedcore.scheduler.rounds", "count"),
    ("schedcore.scheduler.deploy_ratio", "ratio"),
    ("evo.search.refresh_s", "s"),
    ("evo.search.derive_s", "s"),
    ("evo.search.score_s", "s"),
    ("evo.search.generations", "count"),
    ("evo.search.candidates_scored", "count"),
    ("evo.search.derive_us_per_candidate", "us"),
    ("evo.cache.hit_rate", "ratio"),
    ("ones.scheduler.self_s", "s"),
    ("predictor.progress.fit_s", "s"),
    ("predictor.progress.completions", "count"),
    ("oned.core.channel_wait_ms", "ms"),
    ("oned.core.submit_ms", "ms"),
    ("oned.core.step_ms", "ms"),
    ("oned.core.events_per_step", "count"),
    ("oned.reply_ms", "ms"),
    ("oned.core.snapshot_ms", "ms"),
    ("oned.core.between_steps_ms", "ms"),
    ("oned.route.cluster_p99_ms", "ms"),
    ("oned.route.jobs_p99_ms", "ms"),
    ("oned.route.job_p99_ms", "ms"),
    ("oned.route.events_p99_ms", "ms"),
    ("oned.route.metrics_p99_ms", "ms"),
    ("oned.client.late_ms", "ms"),
    ("unattributed_s", "s"),
    ("unattributed_frac", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("result.mean_jct_s", "s"),
    ("result.makespan_s", "s"),
    ("result.submit_ack_p50_ms", "ms"),
    ("result.submit_ack_p90_ms", "ms"),
    ("result.query_p50_ms", "ms"),
    ("result.query_p99_ms", "ms"),
    ("result.query_rps_at_limit", "1/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Report {
    let mut report = Report::default();
    match name {
        n if n == ONES_TABLE2.name => {
            sim::run(
                &ONES_TABLE2,
                args.seed,
                args.seconds,
                args.trace,
                &mut report,
            );
        }
        n if n == TIRESIAS_PHILLY.name => {
            sim::run(
                &TIRESIAS_PHILLY,
                args.seed,
                args.seconds,
                args.trace,
                &mut report,
            );
        }
        _ => daemon::run(args.seed, args.seconds, args.trace, &mut report),
    }
    report
}

/// Prints the human-readable lines for one workload.
fn print_report(name: &str, report: &Report) {
    println!("== {name}");
    for (kind, list) in [
        ("e2e", &report.e2e),
        ("layer", &report.layers),
        ("info", &report.info),
    ] {
        for m in list {
            println!("{kind:>5} {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for f in &report.failures {
        println!("FAILED CHECK: {f}");
    }
}

/// The result line: the gated metrics of the run's kind, in list order.
fn result_json(report: &Report, traced: bool) -> String {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = report.get(name).map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let report = run_workload(name, &args);
        print_report(name, &report);
        println!("{}", result_json(&report, args.trace));
        all_correct &= report.correct();
    }
    if !all_correct {
        std::process::exit(1);
    }
}
