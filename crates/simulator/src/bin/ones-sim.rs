//! `ones-sim` — command-line front end for the cluster simulator.
//!
//! Runs one scheduler over a generated Table 2 trace and prints either a
//! human-readable report or machine-readable JSON.
//!
//! ```text
//! ones-sim --scheduler ones --jobs 60 --gpus 64 --rate-secs 30 --seed 42
//! ones-sim --scheduler tiresias --trace-source philly --json
//! ones-sim --trace-source file --trace-file philly_2017.csv
//! ones-sim --list-schedulers
//! ```

use ones_simulator::{run_experiment, ExperimentConfig, SchedulerKind, TraceSource};
use ones_workload::{ReplayConfig, TraceConfig};
use std::collections::BTreeMap;

fn usage() -> ! {
    eprintln!(
        "usage: ones-sim [--scheduler NAME] [--jobs N] [--gpus N]\n\
         \t[--trace-source table2|philly|file] [--trace-file FILE]\n\
         \t[--rate-secs SECONDS] [--seed N] [--sched-seed N]\n\
         \t[--kill-fraction F] [--burst-factor F] [--diurnal-amplitude F]\n\
         \t[--diurnal-period-secs S] [--duration-sigma F]\n\
         \t[--json] [--list-schedulers] [--dump-trace FILE]\n\
         \t[--obs off|counters|full] [--trace-out FILE] [--metrics-out FILE]\n\
         \t[--trace-chunk-events N] [--metrics-interval SECS]\n\
         \n\
         Runs one simulated experiment and reports per-scheduler metrics.\n\
         GPUs must be a positive multiple of 4 (whole Longhorn nodes).\n\
         --trace-source picks the workload: `table2` (default) is the\n\
         paper's synthetic mix; `philly` replays a Philly/Helios-style\n\
         cluster mixture (diurnal + bursty arrivals, heavy-tailed\n\
         durations, ~30% abnormal kills; tune with --burst-factor,\n\
         --diurnal-amplitude, --diurnal-period-secs, --duration-sigma);\n\
         `file` ingests --trace-file (.csv schema or JSON, see\n\
         EXPERIMENTS.md).\n\
         --trace-out writes a Chrome-trace JSON (open in ui.perfetto.dev)\n\
         and implies --obs full; spans stream to disk in\n\
         --trace-chunk-events chunks (default 65536; 0 keeps the whole\n\
         trace in memory and drops spans past the recorder cap).\n\
         --metrics-out writes a JSONL metrics series sampled every\n\
         --metrics-interval virtual seconds (default 300; 0 writes one\n\
         snapshot at exit). Observability never changes scheduling\n\
         decisions."
    );
    std::process::exit(2);
}

fn parse_scheduler(name: &str) -> Option<SchedulerKind> {
    match name.to_ascii_lowercase().as_str() {
        "ones" => Some(SchedulerKind::Ones),
        "drl" => Some(SchedulerKind::Drl),
        "tiresias" => Some(SchedulerKind::Tiresias),
        "optimus" => Some(SchedulerKind::Optimus),
        "fifo" => Some(SchedulerKind::Fifo),
        "srtf" | "srtf-oracle" => Some(SchedulerKind::SrtfOracle),
        "gandiva" => Some(SchedulerKind::Gandiva),
        "slaq" => Some(SchedulerKind::Slaq),
        "ones-greedy" => Some(SchedulerKind::OnesGreedy),
        "ones-nopred" => Some(SchedulerKind::OnesNoPredictor),
        "ones-noreorder" => Some(SchedulerKind::OnesNoReorder),
        "ones-ckpt" => Some(SchedulerKind::OnesCheckpoint),
        _ => None,
    }
}

const ALL_NAMES: [&str; 12] = [
    "ones",
    "drl",
    "tiresias",
    "optimus",
    "fifo",
    "srtf-oracle",
    "gandiva",
    "slaq",
    "ones-greedy",
    "ones-nopred",
    "ones-noreorder",
    "ones-ckpt",
];

fn main() {
    let mut args: BTreeMap<String, String> = BTreeMap::new();
    let mut flags: Vec<String> = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            usage();
        };
        match name {
            "json" | "list-schedulers" | "help" => flags.push(name.to_string()),
            _ => {
                let Some(value) = iter.next() else { usage() };
                args.insert(name.to_string(), value);
            }
        }
    }
    if flags.iter().any(|f| f == "help") {
        usage();
    }
    if flags.iter().any(|f| f == "list-schedulers") {
        for n in ALL_NAMES {
            println!("{n}");
        }
        return;
    }

    let scheduler = args
        .get("scheduler")
        .map(|s| parse_scheduler(s).unwrap_or_else(|| usage()))
        .unwrap_or(SchedulerKind::Ones);
    let get = |k: &str, d: f64| -> f64 {
        args.get(k)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(d)
    };
    let source = match args.get("trace-source").map(String::as_str) {
        None | Some("table2") => TraceSource::Table2(TraceConfig {
            num_jobs: get("jobs", 60.0) as usize,
            arrival_rate: 1.0 / get("rate-secs", 30.0),
            seed: get("seed", 42.0) as u64,
            kill_fraction: get("kill-fraction", 0.0),
        }),
        Some("philly") | Some("replay") => {
            let defaults = ReplayConfig::default();
            TraceSource::Replay(ReplayConfig {
                num_jobs: get("jobs", 60.0) as usize,
                base_rate: 1.0 / get("rate-secs", 30.0),
                seed: get("seed", 42.0) as u64,
                kill_fraction: get("kill-fraction", defaults.kill_fraction),
                burst_factor: get("burst-factor", defaults.burst_factor),
                diurnal_amplitude: get("diurnal-amplitude", defaults.diurnal_amplitude),
                diurnal_period_secs: get("diurnal-period-secs", defaults.diurnal_period_secs),
                duration_log_sigma: get("duration-sigma", defaults.duration_log_sigma),
                ..defaults
            })
        }
        Some("file") => {
            let Some(path) = args.get("trace-file") else {
                eprintln!("--trace-source file needs --trace-file FILE");
                usage();
            };
            TraceSource::File(path.clone())
        }
        Some(other) => {
            eprintln!("unknown trace source {other:?} (table2|philly|file)");
            usage();
        }
    };
    let config = ExperimentConfig {
        gpus: get("gpus", 64.0) as u32,
        source,
        scheduler,
        sched_seed: get("sched-seed", 1.0) as u64,
        drl_pretrain_episodes: get("drl-pretrain", 2.0) as usize,
    };

    // Observability: --trace-out needs spans, so it implies `full` unless
    // the user pinned a level explicitly.
    let obs_level = match args.get("obs") {
        Some(s) => ones_obs::ObsLevel::parse(s).unwrap_or_else(|| usage()),
        None if args.contains_key("trace-out") => ones_obs::ObsLevel::Full,
        None => ones_obs::ObsLevel::Counters,
    };
    ones_obs::set_level(obs_level);

    // Streaming sinks (DESIGN.md §5): attach before the run so chunks
    // flush incrementally. `--trace-chunk-events 0` / `--metrics-interval
    // 0` select the legacy whole-in-memory writers.
    let chunk_events = args
        .get("trace-chunk-events")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| usage()))
        .unwrap_or(ones_obs::DEFAULT_TRACE_CHUNK_EVENTS);
    let metrics_interval = get("metrics-interval", ones_obs::DEFAULT_METRICS_INTERVAL_SECS);
    if metrics_interval < 0.0 {
        usage();
    }
    if let Some(path) = args.get("trace-out") {
        if chunk_events > 0 {
            ones_obs::attach_trace_sink(path, chunk_events).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    if let Some(path) = args.get("metrics-out") {
        if metrics_interval > 0.0 {
            ones_obs::attach_metrics_sink(
                path,
                metrics_interval,
                ones_obs::DEFAULT_METRICS_MAX_BUCKETS,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    // Ingestion errors (malformed rows, invalid jobs) are user input
    // errors, not bugs: report and exit instead of panicking later.
    if let TraceSource::File(_) = &config.source {
        if let Err(e) = config.source.materialise() {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = args.get("dump-trace") {
        let trace = config.source.materialise().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        trace
            .save(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("trace written to {path}");
    }

    let result = run_experiment(config.clone());
    if let Some(path) = args.get("trace-out") {
        if ones_obs::trace_sink_attached() {
            ones_obs::finalize_trace_sink().unwrap_or_else(|e| panic!("{e}"));
            eprintln!("chrome trace streamed to {path}");
        } else {
            ones_obs::write_chrome_trace(path).unwrap_or_else(|e| panic!("{e}"));
            let dropped = ones_obs::counter("obs.recorder.dropped_spans").value();
            if dropped > 0 {
                eprintln!(
                    "warning: in-memory trace writer dropped {dropped} spans past the \
                     recorder cap; use --trace-chunk-events > 0 to stream the full trace"
                );
            }
            eprintln!("chrome trace written to {path}");
        }
    }
    if let Some(path) = args.get("metrics-out") {
        if ones_obs::metrics_sink_attached() {
            ones_obs::finalize_metrics_sink(result.makespan).unwrap_or_else(|e| panic!("{e}"));
            eprintln!("metrics series streamed to {path}");
        } else {
            ones_obs::write_metrics_jsonl(path).unwrap_or_else(|e| panic!("{e}"));
            eprintln!("metrics snapshot written to {path}");
        }
    }
    if flags.iter().any(|f| f == "json") {
        let json = serde_json::json!({
            "scheduler": scheduler.name(),
            "gpus": config.gpus,
            "trace_source": config.source.label(),
            "jobs": result.completed_jobs + result.killed_jobs + result.incomplete_jobs,
            "seed": config.source.seed(),
            "mean_jct_secs": result.metrics.mean_jct(),
            "mean_exec_secs": result.metrics.mean_exec(),
            "mean_queue_secs": result.metrics.mean_queue(),
            "makespan_secs": result.makespan,
            "deployments": result.deployments,
            "total_overhead_secs": result.total_overhead,
            "gpu_utilization": result.gpu_utilization,
            "completed_jobs": result.completed_jobs,
            "killed_jobs": result.killed_jobs,
            "incomplete_jobs": result.incomplete_jobs,
            "goodput": result.goodput,
            "jct_secs": result.metrics.jct,
            "scheduler_perf": result.scheduler_perf.map(|p| serde_json::json!({
                "generations": p.generations,
                "candidates_scored": p.candidates_scored,
                "cache_hits": p.cache_hits,
                "cache_misses": p.cache_misses,
                "cache_hit_rate": p.cache_hit_rate(),
                "cache_warm_hit_rate": p.warm_hit_rate(),
                "cache_duplicate_computes": p.cache_duplicate_computes,
                "cache_invalidations": p.cache_invalidations,
                "fill_rounds": p.fill_rounds,
                "fill_probes": p.fill_probes,
                "refresh_ms": p.refresh_nanos as f64 / 1e6,
                "derive_ms": p.derive_nanos as f64 / 1e6,
                "score_ms": p.score_nanos as f64 / 1e6,
                "total_ms": p.total_nanos() as f64 / 1e6,
            })),
            "obs_level": obs_level.name(),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&json).expect("serialisable")
        );
    } else {
        let total_jobs = result.completed_jobs + result.killed_jobs + result.incomplete_jobs;
        let seed_note = config
            .source
            .seed()
            .map_or_else(String::new, |s| format!(" (seed {s})"));
        println!(
            "{} on {} GPUs, {} jobs from the {} trace{}:",
            scheduler.name(),
            config.gpus,
            total_jobs,
            config.source.label(),
            seed_note
        );
        println!(
            "  outcomes           {:>5} completed / {} killed / {} unfinished (goodput {:.0}%)",
            result.completed_jobs,
            result.killed_jobs,
            result.incomplete_jobs,
            100.0 * result.goodput
        );
        println!("  average JCT        {:>10.1} s", result.metrics.mean_jct());
        println!(
            "  average execution  {:>10.1} s",
            result.metrics.mean_exec()
        );
        println!(
            "  average queueing   {:>10.1} s",
            result.metrics.mean_queue()
        );
        println!("  makespan           {:>10.1} s", result.makespan);
        println!("  deployments        {:>10}", result.deployments);
        println!("  scaling overhead   {:>10.1} s", result.total_overhead);
        println!(
            "  GPU utilisation    {:>9.1}%",
            100.0 * result.gpu_utilization
        );
        let s = result.metrics.jct_summary();
        println!(
            "  JCT quartiles      {:>10.1} / {:.1} / {:.1} (p90 {:.1}, max {:.1})",
            s.p25, s.median, s.p75, s.p90, s.max
        );
        if let Some(p) = result.scheduler_perf {
            println!(
                "  search             {} generations, {} candidates scored, \
                 {} fill rounds ({} probes)",
                p.generations, p.candidates_scored, p.fill_rounds, p.fill_probes
            );
            println!(
                "  throughput cache   {:>9.1}% hit rate ({} hits / {} misses, \
                 {} dup computes, {} invalidations, warm {:.1}%)",
                100.0 * p.cache_hit_rate(),
                p.cache_hits,
                p.cache_misses,
                p.cache_duplicate_computes,
                p.cache_invalidations,
                100.0 * p.warm_hit_rate()
            );
            println!(
                "  search wall time   {:>10.1} ms (refresh {:.1}, derive {:.1}, score {:.1})",
                p.total_nanos() as f64 / 1e6,
                p.refresh_nanos as f64 / 1e6,
                p.derive_nanos as f64 / 1e6,
                p.score_nanos as f64 / 1e6
            );
        }
    }
}
