//! The two simulator workloads: a trace stepped to completion through
//! `Simulation::step`, untraced for the end-to-end metrics and wrapped
//! for the per-layer ones.

use crate::report::Report;
use crate::spans::{self, SharedTracer, Tracer};
use crate::stats::{at_ref_speed, calibrate, median, peak_rss_mb, percentile, process_cpu_s};
use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_schedcore::{
    ClusterView, ScalingMechanism, SchedEvent, SchedTuning, Schedule, Scheduler,
    SchedulerPerfCounters,
};
use ones_simcore::{DetRng, SimTime};
use ones_simulator::{JobMetrics, SchedulerKind, SimConfig, Simulation, StepOutcome};
use ones_workload::{ReplayConfig, Trace, TraceConfig};
use std::time::{Duration, Instant};

/// A simulator workload: a job population, a scheduler and a cluster.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Cluster size.
    pub gpus: u32,
    /// Job population generator.
    pub source: Source,
}

/// Where a workload's jobs come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The paper's Table 2 generator.
    Table2 {
        /// Jobs in the trace.
        jobs: usize,
        /// Generator seed of the job population.
        population_seed: u64,
    },
    /// The Philly-style replay mixture.
    Replay {
        /// Jobs in the trace.
        jobs: usize,
        /// Generator seed of the job population.
        population_seed: u64,
    },
}

/// The seed the scheduler's own randomness starts from (as in
/// `ExperimentConfig::paper`).
const SCHED_SEED: u64 = 1;

/// Each inter-arrival gap is scaled by a factor drawn from
/// `[1 - JITTER, 1 + JITTER]`.
const JITTER: f64 = 0.1;

/// How far the per-layer self times of a traced run may fall short of its
/// run time, as a share of it, before the attribution counts as broken.
pub const SUM_TOLERANCE: f64 = 0.02;

/// Arrival variants of the trace stepped in one run. A seed's jitter moves
/// the amount of scheduling work by several per cent (the ONES search is
/// chaotic in arrival timing), so each run covers several variants and
/// `run_s` sums them, which averages that seed-to-seed spread down.
pub const VARIANTS: u64 = 4;

/// The jitter seed of arrival variant `variant` of benchmark seed `seed`.
#[must_use]
pub fn variant_seed(seed: u64, variant: u64) -> u64 {
    seed.wrapping_mul(VARIANTS).wrapping_add(variant)
}

/// Set-ups timed before each untraced repeat; the median over the run
/// is reported, so it samples the host across the whole run.
const SETUPS_PER_REPEAT: usize = 5;

impl SimWorkload {
    /// The workload's trace for benchmark seed `seed`: the fixed job
    /// population with every inter-arrival gap scaled by a factor drawn
    /// from the seed, so arrival order is kept and each seed perturbs only
    /// arrival timing.
    #[must_use]
    pub fn trace(&self, seed: u64) -> Trace {
        let mut trace = match self.source {
            Source::Table2 {
                jobs,
                population_seed,
            } => Trace::generate(TraceConfig {
                num_jobs: jobs,
                seed: population_seed,
                ..TraceConfig::default()
            }),
            Source::Replay {
                jobs,
                population_seed,
            } => ReplayConfig {
                num_jobs: jobs,
                seed: population_seed,
                ..ReplayConfig::default()
            }
            .generate(),
        };
        jitter_arrivals(&mut trace, seed);
        trace
    }

    /// Builds the simulation: trace generation, scheduler build and
    /// `Simulation::new` — the set-up phase.
    fn setup(&self, seed: u64, tracer: Option<&SharedTracer>) -> Simulation {
        let trace = self.trace(seed);
        let spec = ClusterSpec::longhorn_subset(self.gpus);
        let mut scheduler = self
            .scheduler
            .build(&spec, &trace, &DetRng::seed(SCHED_SEED));
        if let Some(tracer) = tracer {
            scheduler = Box::new(TimedScheduler::new(scheduler, tracer.clone()));
        }
        Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        )
    }
}

/// Scales each inter-arrival gap of `trace` by a factor in
/// `[1 - JITTER, 1 + JITTER]` drawn from `seed`.
pub fn jitter_arrivals(trace: &mut Trace, seed: u64) {
    let mut rng = DetRng::seed(seed).fork("perfbench.arrival-jitter");
    let mut prev_orig = 0.0;
    let mut prev_new = 0.0;
    for job in &mut trace.jobs {
        let gap = (job.arrival_secs - prev_orig).max(0.0);
        prev_orig = job.arrival_secs;
        prev_new += gap * rng.uniform_range(1.0 - JITTER, 1.0 + JITTER);
        job.arrival_secs = prev_new;
    }
}

/// What a run computed, compared bit for bit across repeats and between
/// the untraced and traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    mean_jct_bits: u64,
    makespan_bits: u64,
    events: u64,
    deployments: u64,
    completed: usize,
    killed: usize,
    incomplete: usize,
}

impl Outcome {
    fn mean_jct_s(&self) -> f64 {
        f64::from_bits(self.mean_jct_bits)
    }

    fn makespan_s(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }
}

/// One stepped-to-completion run.
struct Rep {
    run_s: f64,
    /// [`calibrate`] beside the run: the mean of a timing before the
    /// set-ups and one after the run.
    cal_s: f64,
    cpu_s: f64,
    step_ms: Vec<f64>,
    outcome: Outcome,
    perf: Option<SchedulerPerfCounters>,
}

fn run_to_completion(mut sim: Simulation, tracer: Option<&SharedTracer>) -> Rep {
    let mut step_ms = Vec::new();
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        if let Some(tr) = tracer {
            let mut tr = spans::lock(tr);
            let id = tr.open("simulator.step", t0, None);
            tr.current = Some(id);
        }
        let outcome = sim.step();
        let t1 = Instant::now();
        if let Some(tr) = tracer {
            let mut tr = spans::lock(tr);
            if let Some(id) = tr.current.take() {
                tr.close(id, t1);
            }
        }
        step_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if outcome != StepOutcome::Progressed {
            break;
        }
    }
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    let events = sim.events_processed();
    let (result, _) = sim.into_result();
    let metrics = JobMetrics::completed_only(&result);
    Rep {
        run_s,
        cal_s: f64::NAN,
        cpu_s,
        step_ms,
        outcome: Outcome {
            mean_jct_bits: metrics.mean_jct().to_bits(),
            makespan_bits: result.makespan.to_bits(),
            events,
            deployments: result.deployments,
            completed: result.completed_jobs,
            killed: result.killed_jobs,
            incomplete: result.incomplete_jobs,
        },
        perf: result.scheduler_perf,
    }
}

/// Times `n` set-ups, appending their durations in seconds to `times`.
fn time_setups(w: &SimWorkload, seed: u64, n: usize, times: &mut Vec<f64>) {
    for _ in 0..n {
        let t0 = Instant::now();
        let sim = w.setup(seed, None);
        times.push(t0.elapsed().as_secs_f64());
        drop(sim);
    }
}

/// Timings of [`calibrate`] taken beside each set-up batch and repeat.
const CAL_TRIES: usize = 3;

/// Runs a simulator workload for about `seconds` and fills `report`.
pub fn run(w: &SimWorkload, seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut setup_times = Vec::new();
    let mut setup_ref = Vec::new();
    let mut peak_rss = 0.0;

    // Untraced repeats cycle through the arrival variants: every variant
    // at least once, then as many rounds as fit the budget.
    let mut reps: Vec<Vec<Rep>> = (0..VARIANTS).map(|_| Vec::new()).collect();
    // A traced run spends a third of its budget on the untraced reference
    // and the rest on traced repeats.
    let untraced_budget = if traced { budget / 3 } else { budget };
    for i in 0.. {
        let v = variant_seed(seed, i % VARIANTS);
        // The first repeat calibrates only after its run, so that the
        // calibration's own allocations stay out of the peak RSS.
        let cal_before = (i > 0).then(|| calibrate(CAL_TRIES));
        let from = setup_times.len();
        time_setups(w, v, SETUPS_PER_REPEAT, &mut setup_times);
        let sim = w.setup(v, None);
        let mut rep = run_to_completion(sim, None);
        if i == 0 {
            // The high-water mark of one set-up and run: later repeats
            // only add allocator noise.
            peak_rss = peak_rss_mb();
        }
        let cal_after = calibrate(CAL_TRIES);
        let cal0 = cal_before.unwrap_or(cal_after);
        setup_ref.extend(setup_times[from..].iter().map(|&t| at_ref_speed(t, cal0)));
        rep.cal_s = (cal0 + cal_after) / 2.0;
        reps[(i % VARIANTS) as usize].push(rep);
        if i + 1 >= VARIANTS && started.elapsed() >= untraced_budget {
            break;
        }
    }
    for (v, list) in reps.iter().enumerate() {
        let reference = list[0].outcome;
        for (i, rep) in list.iter().enumerate() {
            report.check(
                rep.outcome == reference,
                format!(
                    "variant {v} repeat {i} differs from repeat 0: {:?} vs {reference:?}",
                    rep.outcome
                ),
            );
        }
        report.check(
            reference.incomplete == 0,
            format!("variant {v}: {} jobs unfinished", reference.incomplete),
        );
        let jobs = reference.completed + reference.killed + reference.incomplete;
        report.attempted += jobs as u64;
        report.failed += reference.incomplete as u64;
    }
    // Variant 0 is the one the traced run repeats and the one whose
    // simulated results are printed.
    let reference = reps[0][0].outcome;
    let jobs = reference.completed + reference.killed + reference.incomplete;

    // The host flips between fast and contended states on a scale of
    // seconds, so the median repeat moves with the mix of states a run
    // happened to see; the fastest repeat of a variant is its uncontended
    // figure, and `run_s` sums those over the variants, each scaled to
    // the reference host speed. Its speed also drifts over minutes, which
    // no repeat within a run escapes; the scaling takes that out.
    let fastest = |list: &[Rep]| list.iter().map(|r| r.run_s).fold(f64::INFINITY, f64::min);
    let fastest_ref = |list: &[Rep]| {
        list.iter()
            .map(|r| at_ref_speed(r.run_s, r.cal_s))
            .fold(f64::INFINITY, f64::min)
    };
    let run_s: f64 = reps.iter().map(|list| fastest_ref(list)).sum();
    let median_of = |f: fn(&Rep) -> f64| -> f64 {
        reps.iter()
            .map(|list| median(&list.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let step_ms: Vec<f64> = reps
        .iter()
        .flatten()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    report.info(
        "repeats",
        reps.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    report.info(
        "run_wall_s",
        reps.iter().map(|list| fastest(list)).sum(),
        "s",
    );
    report.info("run_median_s", median_of(|r| r.run_s), "s");
    report.info("run_cpu_s", median_of(|r| r.cpu_s), "s");
    report.info("mean_jct_s", reference.mean_jct_s(), "s");
    report.info("makespan_s", reference.makespan_s(), "s");
    report.info("events", reference.events as f64, "count");
    report.info("deployments", reference.deployments as f64, "count");
    report.info(
        "failed_frac",
        reference.incomplete as f64 / jobs.max(1) as f64,
        "frac",
    );

    let cal_ms: Vec<f64> = reps.iter().flatten().map(|r| r.cal_s * 1e3).collect();
    report.info("calibrate_ms", median(&cal_ms), "ms");
    report.info("setup_wall_s", median(&setup_times), "s");
    report.e2e("setup_s", median(&setup_ref), "s");
    report.e2e("run_s", run_s, "s");
    report.e2e("peak_rss_mb", peak_rss, "MB");
    report.info("step_p50_ms", percentile(&step_ms, 50.0), "ms");
    report.info("step_p99_ms", percentile(&step_ms, 99.0), "ms");

    if traced {
        let variant0_ref_s = fastest_ref(&reps[0]);
        traced_layers(w, seed, budget, started, variant0_ref_s, reference, report);
    }
}

/// Counters read around a traced repeat through their public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsReadings {
    /// `simulator.engine.events`.
    pub engine_events: u64,
    /// `simulator.reconcile.ops`.
    pub reconcile_ops: u64,
    /// `simulator.reconcile.noop_deploys`.
    pub noop_deploys: u64,
    /// Sum of `predictor.progress.fit_us`.
    pub fit_us: f64,
    /// `predictor.progress.completions`.
    pub completions: u64,
    /// The `evo.search.*` counters, as scheduler perf counters.
    pub evo: SchedulerPerfCounters,
}

impl ObsReadings {
    /// Reads every counter now.
    #[must_use]
    pub fn now() -> Self {
        let c = |key: &'static str| ones_obs::counter(key).value();
        ObsReadings {
            engine_events: c("simulator.engine.events"),
            reconcile_ops: c("simulator.reconcile.ops"),
            noop_deploys: c("simulator.reconcile.noop_deploys"),
            fit_us: ones_obs::histogram("predictor.progress.fit_us")
                .snapshot()
                .sum,
            completions: c("predictor.progress.completions"),
            evo: SchedulerPerfCounters {
                generations: c("evo.search.generations"),
                candidates_scored: c("evo.search.candidates_scored"),
                cache_hits: c("evo.search.cache_hits"),
                cache_misses: c("evo.search.cache_misses"),
                refresh_nanos: c("evo.search.refresh_nanos"),
                derive_nanos: c("evo.search.derive_nanos"),
                score_nanos: c("evo.search.score_nanos"),
                ..SchedulerPerfCounters::default()
            },
        }
    }

    /// What accumulated between `before` and `self`.
    #[must_use]
    pub fn since(self, before: ObsReadings) -> ObsReadings {
        let (a, b) = (self.evo, before.evo);
        ObsReadings {
            engine_events: self.engine_events - before.engine_events,
            reconcile_ops: self.reconcile_ops - before.reconcile_ops,
            noop_deploys: self.noop_deploys - before.noop_deploys,
            fit_us: self.fit_us - before.fit_us,
            completions: self.completions - before.completions,
            evo: SchedulerPerfCounters {
                generations: a.generations - b.generations,
                candidates_scored: a.candidates_scored - b.candidates_scored,
                cache_hits: a.cache_hits - b.cache_hits,
                cache_misses: a.cache_misses - b.cache_misses,
                refresh_nanos: a.refresh_nanos - b.refresh_nanos,
                derive_nanos: a.derive_nanos - b.derive_nanos,
                score_nanos: a.score_nanos - b.score_nanos,
                ..SchedulerPerfCounters::default()
            },
        }
    }
}

/// Scheduler, evo, predictor and reconcile figures shared by every
/// workload: `on_event_s` is the wrapped `on_event` total, `rounds` and
/// `proposals` count calls and `Some` returns, `perf` the search counters.
pub fn scheduler_layers(
    on_event_s: f64,
    rounds: f64,
    proposals: f64,
    diff_s: f64,
    perf: &SchedulerPerfCounters,
    obs: &ObsReadings,
) -> Vec<(&'static str, f64, &'static str)> {
    let refresh_s = perf.refresh_nanos as f64 / 1e9;
    let derive_s = perf.derive_nanos as f64 / 1e9;
    let score_s = perf.score_nanos as f64 / 1e9;
    let fit_s = obs.fit_us / 1e6;
    vec![
        ("schedcore.reconcile.diff_s", diff_s, "s"),
        ("simulator.reconcile.ops", obs.reconcile_ops as f64, "count"),
        (
            "simulator.reconcile.noop_deploys",
            obs.noop_deploys as f64,
            "count",
        ),
        ("schedcore.scheduler.on_event_s", on_event_s, "s"),
        ("schedcore.scheduler.rounds", rounds, "count"),
        (
            "schedcore.scheduler.deploy_ratio",
            proposals / rounds.max(1.0),
            "ratio",
        ),
        ("evo.search.refresh_s", refresh_s, "s"),
        ("evo.search.derive_s", derive_s, "s"),
        ("evo.search.score_s", score_s, "s"),
        ("evo.search.generations", perf.generations as f64, "count"),
        (
            "evo.search.candidates_scored",
            perf.candidates_scored as f64,
            "count",
        ),
        (
            "evo.search.derive_us_per_candidate",
            perf.derive_nanos as f64 / 1e3 / (perf.candidates_scored.max(1) as f64),
            "us",
        ),
        ("evo.cache.hit_rate", perf.cache_hit_rate(), "ratio"),
        // Scheduler self time: `on_event` minus the phases its counters time.
        (
            "ones.scheduler.self_s",
            if perf.generations > 0 {
                on_event_s - refresh_s - derive_s - score_s - fit_s
            } else {
                0.0
            },
            "s",
        ),
        ("predictor.progress.fit_s", fit_s, "s"),
        (
            "predictor.progress.completions",
            obs.completions as f64,
            "count",
        ),
    ]
}

/// Per-layer breakdown of one traced repeat.
struct Layers {
    run_s: f64,
    values: Vec<(&'static str, f64, &'static str)>,
    tracer: SharedTracer,
}

fn traced_rep(w: &SimWorkload, seed: u64, report: &mut Report, reference: Outcome) -> Layers {
    let tracer = Tracer::shared();
    let sim = w.setup(seed, Some(&tracer));
    let before = ObsReadings::now();
    let rep = run_to_completion(sim, Some(&tracer));
    let obs = ObsReadings::now().since(before);
    report.check(
        rep.outcome == reference,
        format!(
            "traced run differs from untraced: {:?} vs {reference:?}",
            rep.outcome
        ),
    );
    let mut values = {
        let tr = spans::lock(&tracer);
        let spans = tr.spans();
        let self_s = spans::self_seconds_by_name(spans);
        let get = |k: &str| self_s.get(k).copied().unwrap_or(0.0);
        let count = |k: &str| spans.iter().filter(|s| s.name == k).count() as f64;
        let engine_self = get("simulator.step");
        let diff_s = get("reconcile.diff");
        let on_event_s = get("scheduler.on_event");
        let unattributed = rep.run_s - (engine_self + diff_s + on_event_s);
        report.check(
            (unattributed / rep.run_s).abs() <= SUM_TOLERANCE,
            format!(
                "layer self times leave {unattributed:.4} s of {:.4} s unattributed",
                rep.run_s
            ),
        );
        let events = obs.engine_events as f64;
        let mut values = vec![
            ("simulator.engine.self_s", engine_self, "s"),
            ("simulator.engine.events", events, "count"),
            (
                "simulator.engine.us_per_event",
                engine_self * 1e6 / events.max(1.0),
                "us",
            ),
            ("unattributed_s", unattributed, "s"),
            ("unattributed_frac", unattributed / rep.run_s, "ratio"),
            ("trace.run_s", rep.run_s, "s"),
        ];
        values.extend(scheduler_layers(
            on_event_s,
            count("scheduler.on_event"),
            count("reconcile.diff"),
            diff_s,
            &rep.perf.unwrap_or_default(),
            &obs,
        ));
        values
    };
    values.push(("result.mean_jct_s", rep.outcome.mean_jct_s(), "s"));
    values.push(("result.makespan_s", rep.outcome.makespan_s(), "s"));
    Layers {
        run_s: rep.run_s,
        values,
        tracer,
    }
}

fn traced_layers(
    w: &SimWorkload,
    seed: u64,
    budget: Duration,
    started: Instant,
    untraced_ref_s: f64,
    reference: Outcome,
    report: &mut Report,
) {
    // Traced repeats of variant 0, each with its time scaled to the
    // reference host speed, so that the overhead compares like with like.
    let mut reps = Vec::new();
    let mut traced_ref_s = f64::INFINITY;
    loop {
        let cal0 = calibrate(CAL_TRIES);
        let rep = traced_rep(w, variant_seed(seed, 0), report, reference);
        let cal_s = (cal0 + calibrate(CAL_TRIES)) / 2.0;
        traced_ref_s = traced_ref_s.min(at_ref_speed(rep.run_s, cal_s));
        reps.push(rep);
        if started.elapsed() >= budget {
            break;
        }
    }
    // Report the fastest traced repeat, as the untraced `run_s` does; its
    // layers add up to its own run time.
    let fastest = reps
        .iter()
        .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
        .expect("at least one traced repeat");
    for &(name, value, unit) in &fastest.values {
        report.layer(name, value, unit);
    }
    let path =
        std::path::PathBuf::from("perfbench-out").join(format!("spans-{}-{seed}.jsonl", w.name));
    if let Err(e) = spans::lock(&fastest.tracer).write_jsonl(&path) {
        report.check(false, format!("cannot write spans: {e}"));
    }
    report.layer(
        "trace.overhead_frac",
        traced_ref_s / untraced_ref_s - 1.0,
        "ratio",
    );
    report.layer("trace.repeats", reps.len() as f64, "count");
}

/// Wraps the boxed scheduler: times every `on_event` and re-times
/// `reconcile::diff` on each proposed schedule.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: SharedTracer,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `tracer`.
    #[must_use]
    pub fn new(inner: Box<dyn Scheduler>, tracer: SharedTracer) -> Self {
        TimedScheduler { inner, tracer }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mechanism(&self) -> ScalingMechanism {
        self.inner.mechanism()
    }

    fn on_event(&mut self, event: SchedEvent, view: &ClusterView<'_>) -> Option<Schedule> {
        let t0 = Instant::now();
        let desired = self.inner.on_event(event, view);
        let t1 = Instant::now();
        let parent = {
            let mut tr = spans::lock(&self.tracer);
            let parent = tr.current;
            tr.record("scheduler.on_event", t0, t1, parent, None);
            parent
        };
        if let Some(schedule) = &desired {
            let ops = ones_schedcore::reconcile::diff(schedule, view.deployed);
            let t2 = Instant::now();
            std::hint::black_box(ops);
            spans::lock(&self.tracer).record("reconcile.diff", t1, t2, parent, None);
        }
        desired
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wakeup(now)
    }

    fn scales_batch_sizes(&self) -> bool {
        self.inner.scales_batch_sizes()
    }

    fn perf_counters(&self) -> Option<SchedulerPerfCounters> {
        self.inner.perf_counters()
    }

    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool {
        self.inner.reconfigure(tuning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_seeds_never_repeat_across_seeds() {
        let all: std::collections::BTreeSet<u64> = (0..50)
            .flat_map(|seed| (0..VARIANTS).map(move |v| variant_seed(seed, v)))
            .collect();
        assert_eq!(all.len() as u64, 50 * VARIANTS);
    }

    #[test]
    fn jitter_keeps_order_and_bounds_gaps() {
        let w = SimWorkload {
            name: "t",
            scheduler: SchedulerKind::Fifo,
            gpus: 16,
            source: Source::Table2 {
                jobs: 30,
                population_seed: 3,
            },
        };
        let base = w.trace(0);
        let a = w.trace(11);
        assert_eq!(a, w.trace(11), "same seed, same inputs");
        assert_ne!(a, w.trace(12));
        let mut orig = base.clone();
        // Undo seed 0's jitter by regenerating the population directly.
        orig.jobs = Trace::generate(TraceConfig {
            num_jobs: 30,
            seed: 3,
            ..TraceConfig::default()
        })
        .jobs;
        let (mut po, mut pa) = (0.0, 0.0);
        for (o, j) in orig.jobs.iter().zip(&a.jobs) {
            assert_eq!(o.id, j.id);
            let (go, ga) = (o.arrival_secs - po, j.arrival_secs - pa);
            assert!(ga >= go * (1.0 - JITTER) - 1e-9 && ga <= go * (1.0 + JITTER) + 1e-9);
            (po, pa) = (o.arrival_secs, j.arrival_secs);
        }
    }
}
