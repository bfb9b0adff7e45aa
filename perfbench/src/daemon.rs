//! The live-daemon workload: an in-process `ones-d` (ONES, 32 GPUs,
//! recovery state file on) under an open loop of submits beside a mix of
//! queries, from one generator thread over two connections.

use crate::openloop::{self, Conn, Phase};
use crate::report::Report;
use crate::sim::{scheduler_layers, ObsReadings, TimedScheduler};
use crate::spans::{self, SharedTracer, Span, Tracer};
use crate::stats::{
    at_ref_speed, calibrate, median, peak_rss_mb, percentile, percentile_supported, process_cpu_s,
};
use ones_cluster::ClusterSpec;
use ones_d::api::{ClusterResponse, EventsResponse, JobsResponse, SubmitReply};
use ones_d::{serve, Client, ServeOptions, ServerHandle};
use ones_schedcore::{JobStatus, Reconciler, SchedTuning};
use ones_simcore::DetRng;
use ones_simulator::{
    BackendEvent, BackendPhase, ClusterBackend, Occupancy, SchedulerKind, SimBackend, SimConfig,
};
use ones_workload::{JobId, JobSpec, Trace, TraceConfig, WireJobSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workload name on the command line.
pub const NAME: &str = "oned_open_mix";

/// Cluster size.
const GPUS: u32 = 32;
/// Submits per second over the whole load phase.
const SUBMIT_HZ: f64 = 4.0;
/// Query rate of the first part of the load phase, where the query
/// percentiles are taken.
const BASE_QUERY_HZ: f64 = 100.0;
/// Share of the load phase run at the base query rate.
const BASE_SHARE: f64 = 0.6;
/// Query rates stepped through in the rest of the load phase.
/// One generator thread on a two-core host cannot send much more than the
/// top rate on time while the daemon shares the cores, so a higher step
/// would measure the generator, not the daemon.
const STEP_RATES: [f64; 4] = [400.0, 800.0, 1600.0, 3200.0];
/// The query p99 a rate step must stay under to count as sustained.
pub const QUERY_P99_LIMIT_MS: f64 = 25.0;
/// A step whose generator p99 lateness exceeds this fell behind.
const LATE_LIMIT_MS: f64 = 5.0;
/// Set-ups timed before the load phase and again after it (the median of
/// all of them is reported, so it samples the host across the run).
const SETUPS: usize = 24;
/// Timings of [`calibrate`] taken before each boot.
const CAL_TRIES: usize = 3;

/// One timed boot, with the host speed beside it.
struct Boot {
    secs: f64,
    cal_s: f64,
}

/// How long to wait for outstanding replies after the load phase.
const DRAIN: Duration = Duration::from_secs(30);
/// Prefix of submitted job names; the suffix is the request number.
const NAME_PREFIX: &str = "perfbench-";

/// Query routes, cycled in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Cluster,
    Jobs,
    Job,
    Events,
    Metrics,
}

const ROUTES: [Route; 5] = [
    Route::Cluster,
    Route::Jobs,
    Route::Job,
    Route::Events,
    Route::Metrics,
];

impl Route {
    fn metric(self) -> &'static str {
        match self {
            Route::Cluster => "oned.route.cluster_p99_ms",
            Route::Jobs => "oned.route.jobs_p99_ms",
            Route::Job => "oned.route.job_p99_ms",
            Route::Events => "oned.route.events_p99_ms",
            Route::Metrics => "oned.route.metrics_p99_ms",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The n-th submit.
    Submit(usize),
    /// A query in phase `phase` (0 = base rate).
    Query { route: Route, phase: usize },
}

/// One planned request and what happened to it.
#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    due: f64,
    sent: Option<f64>,
    done: Option<f64>,
    status: u16,
}

impl Req {
    fn ok(&self) -> bool {
        (200..300).contains(&self.status) && self.done.is_some()
    }

    fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| openloop::from_due_ms(self.due, d))
    }

    fn late_ms(&self) -> Option<f64> {
        self.sent.map(|s| openloop::late_ms(self.due, s))
    }
}

/// The query phases of a load phase of `secs` seconds.
fn query_phases(secs: f64) -> Vec<Phase> {
    let base_end = secs * BASE_SHARE;
    let mut phases = vec![Phase {
        rate_hz: BASE_QUERY_HZ,
        start_s: 0.0,
        end_s: base_end,
    }];
    phases.extend(openloop::stepped(&STEP_RATES, base_end, secs));
    phases
}

/// Every request of the load phase, in due order.
fn plan(secs: f64) -> Vec<Req> {
    let mut reqs: Vec<Req> = Phase {
        rate_hz: SUBMIT_HZ,
        start_s: 0.0,
        end_s: secs,
    }
    .due_times()
    .into_iter()
    .enumerate()
    .map(|(n, due)| Req {
        kind: Kind::Submit(n),
        due,
        sent: None,
        done: None,
        status: 0,
    })
    .collect();
    let mut k = 0;
    for (phase, p) in query_phases(secs).iter().enumerate() {
        for due in p.due_times() {
            reqs.push(Req {
                kind: Kind::Query {
                    route: ROUTES[k % ROUTES.len()],
                    phase,
                },
                due,
                sent: None,
                done: None,
                status: 0,
            });
            k += 1;
        }
    }
    reqs.sort_by(|a, b| a.due.total_cmp(&b.due));
    reqs
}

/// Wire bodies of the submits: the Table 2 mix drawn from `seed`; the
/// daemon assigns ids and arrival times.
fn submit_bodies(n: usize, seed: u64) -> Vec<String> {
    let trace = Trace::generate(TraceConfig {
        num_jobs: n,
        seed,
        ..TraceConfig::default()
    });
    trace
        .jobs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut wire = WireJobSpec::from_spec(spec);
            wire.id = None;
            wire.arrival_secs = None;
            wire.name = Some(format!("{NAME_PREFIX}{i}"));
            wire.to_json()
        })
        .collect()
}

/// Wraps the daemon's backend: times submits, step batches and the
/// snapshot reads (`job_statuses`, `occupancy`, `reconcile_state`) that
/// publish and persist make between batches.
struct TimedBackend {
    inner: SimBackend,
    tracer: SharedTracer,
}

impl TimedBackend {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        spans::lock(&self.tracer).record("core.snapshot", t0, t1, None, None);
        out
    }
}

impl ClusterBackend for TimedBackend {
    fn scheduler_name(&self) -> String {
        self.inner.scheduler_name()
    }

    fn now_secs(&self) -> f64 {
        self.inner.now_secs()
    }

    fn submit(&mut self, spec: JobSpec) -> Result<f64, String> {
        let req = spec
            .name
            .strip_prefix(NAME_PREFIX)
            .and_then(|n| n.parse::<u64>().ok());
        let t0 = Instant::now();
        let out = self.inner.submit(spec);
        let t1 = Instant::now();
        spans::lock(&self.tracer).record("core.submit", t0, t1, None, req);
        out
    }

    fn step(&mut self, max_events: u64) -> (Vec<BackendEvent>, BackendPhase) {
        let t0 = Instant::now();
        {
            let mut tr = spans::lock(&self.tracer);
            let id = tr.open("core.step", t0, None);
            tr.current = Some(id);
        }
        let out = self.inner.step(max_events);
        let t1 = Instant::now();
        let mut tr = spans::lock(&self.tracer);
        if let Some(id) = tr.current.take() {
            tr.close(id, t1);
        }
        out
    }

    fn job_statuses(&self) -> BTreeMap<JobId, JobStatus> {
        self.timed(|| self.inner.job_statuses())
    }

    fn occupancy(&self) -> Occupancy {
        self.timed(|| self.inner.occupancy())
    }

    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool {
        self.inner.reconfigure(tuning)
    }

    fn reconcile_state(&self) -> Option<Reconciler> {
        self.timed(|| self.inner.reconcile_state())
    }
}

/// Builds the backend (wrapped when tracing) and serves it; returns once
/// `/healthz` answers.
fn boot(state_file: &Path, tracer: Option<&SharedTracer>) -> Result<ServerHandle, String> {
    let spec = ClusterSpec::longhorn_subset(GPUS);
    let empty = Trace {
        config: TraceConfig {
            num_jobs: 0,
            ..TraceConfig::default()
        },
        jobs: Vec::new(),
    };
    let mut scheduler = SchedulerKind::Ones.build(&spec, &empty, &DetRng::seed(1));
    if let Some(tr) = tracer {
        scheduler = Box::new(TimedScheduler::new(scheduler, tr.clone()));
    }
    let sim = SimBackend::new(spec, &empty, scheduler, SimConfig::default());
    let backend: Box<dyn ClusterBackend> = match tracer {
        Some(tr) => Box::new(TimedBackend {
            inner: sim,
            tracer: tr.clone(),
        }),
        None => Box::new(sim),
    };
    let handle = serve(
        backend,
        ServeOptions {
            state_file: Some(state_file.to_path_buf()),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    loop {
        if let Ok((200, _)) = client.get("/healthz") {
            return Ok(handle);
        }
        if Instant::now() > deadline {
            return Err("/healthz never answered".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Boots and shuts down `n` untraced daemons, appending each boot's
/// set-up time in seconds to `times`.
fn time_boots(dir: &Path, n: usize, label: &str, times: &mut Vec<Boot>) -> Result<(), String> {
    for i in 0..n {
        let cal_s = calibrate(CAL_TRIES);
        let t0 = Instant::now();
        let handle = boot(&dir.join(format!("boot-{label}-{i}.json")), None)?;
        times.push(Boot {
            secs: t0.elapsed().as_secs_f64(),
            cal_s,
        });
        if handle.shutdown_and_wait().is_none() {
            return Err("set-up daemon did not shut down cleanly".to_string());
        }
    }
    Ok(())
}

/// A scratch directory inside the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir =
            PathBuf::from("perfbench-out").join(format!("oned-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Drives the load phase; returns the requests with their outcomes and the
/// acknowledged job ids (request number → id).
fn load(
    handle: &ServerHandle,
    reqs: &mut [Req],
    bodies: &[String],
    origin: Instant,
    secs: f64,
) -> Result<BTreeMap<usize, u64>, String> {
    let addr = handle.local_addr();
    let mut submit_conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut query_conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut acks: BTreeMap<usize, u64> = BTreeMap::new();
    let mut cursor = 0u64;
    let mut next = 0;
    let mut answers = Vec::new();
    let deadline = secs + DRAIN.as_secs_f64();
    loop {
        let now = openloop::secs_since(origin);
        while next < reqs.len() && reqs[next].due <= now {
            let sent = openloop::secs_since(origin);
            let r = &mut reqs[next];
            r.sent = Some(sent);
            let result = match r.kind {
                Kind::Submit(n) => submit_conn.send(next, "POST", "/v1/jobs", &bodies[n]),
                Kind::Query { route, .. } => {
                    let path = match route {
                        Route::Cluster => "/v1/cluster".to_string(),
                        Route::Jobs => "/v1/jobs".to_string(),
                        Route::Job => match acks.values().next() {
                            Some(id) => format!("/v1/jobs/{id}"),
                            None => "/v1/cluster".to_string(),
                        },
                        Route::Events => format!("/v1/events?since={cursor}"),
                        Route::Metrics => "/metrics".to_string(),
                    };
                    query_conn.send(next, "GET", &path, "")
                }
            };
            result.map_err(|e| format!("send: {e}"))?;
            next += 1;
        }
        answers.clear();
        submit_conn
            .poll(&mut answers)
            .map_err(|e| format!("submit connection: {e}"))?;
        query_conn
            .poll(&mut answers)
            .map_err(|e| format!("query connection: {e}"))?;
        let done = openloop::secs_since(origin);
        for (tag, response) in answers.drain(..) {
            let r = &mut reqs[tag];
            r.done = Some(done);
            r.status = response.status;
            let body = String::from_utf8_lossy(&response.body);
            match r.kind {
                Kind::Submit(n) if response.status == 201 => {
                    if let Ok(reply) = serde_json::from_str::<SubmitReply>(&body) {
                        acks.insert(n, reply.id);
                    }
                }
                Kind::Query {
                    route: Route::Events,
                    ..
                } if response.status == 200 => {
                    if let Ok(ev) = serde_json::from_str::<EventsResponse>(&body) {
                        cursor = ev.next_seq;
                    }
                }
                _ => {}
            }
        }
        let outstanding = submit_conn.in_flight() + query_conn.in_flight();
        if next == reqs.len() && outstanding == 0 {
            return Ok(acks);
        }
        if done > deadline {
            return Err(format!("{outstanding} requests still unanswered"));
        }
        // Sleep until the next request is due, polling replies meanwhile.
        let until_due = reqs.get(next).map_or(1e-3, |r| r.due - done);
        if until_due > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(until_due.min(2e-4)));
        }
    }
}

/// Runs the daemon workload for about `seconds` and fills `report`.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let dir = match ScratchDir::new() {
        Ok(d) => d,
        Err(e) => {
            report.check(false, format!("cannot create scratch directory: {e}"));
            return;
        }
    };
    if let Err(e) = run_in(&dir.0, seed, seconds, traced, report) {
        report.check(false, e);
    }
}

fn run_in(
    dir: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up: backend build plus serve() until /healthz answers. The
    // daemon booted last before the load phase is the one put under load.
    let tracer = traced.then(Tracer::shared);
    let state_file = dir.join("state.json");
    let mut setup_times = Vec::new();
    time_boots(dir, SETUPS - 1, "before", &mut setup_times)?;
    let cal_s = calibrate(CAL_TRIES);
    let t0 = Instant::now();
    let handle = boot(&state_file, tracer.as_ref())?;
    setup_times.push(Boot {
        secs: t0.elapsed().as_secs_f64(),
        cal_s,
    });

    let secs = seconds as f64;
    let mut reqs = plan(secs);
    let submits = reqs
        .iter()
        .filter(|r| matches!(r.kind, Kind::Submit(_)))
        .count();
    let bodies = submit_bodies(submits, seed);
    let before = ObsReadings::now();
    let cpu0 = process_cpu_s();
    let origin = Instant::now();
    let loaded = load(&handle, &mut reqs, &bodies, origin, secs);
    let run_s = openloop::secs_since(origin);
    let cpu_s = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    let obs = ObsReadings::now().since(before);
    let engine_events = obs.engine_events;
    let acks = match loaded {
        Ok(acks) => acks,
        Err(e) => {
            drop(handle.shutdown_and_wait());
            return Err(format!("load phase: {e}"));
        }
    };

    // Correctness: every acknowledged job is listed, counted and
    // persisted, and the daemon shuts down cleanly.
    let acked: BTreeSet<u64> = acks.values().copied().collect();
    let mut client = Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let jobs: JobsResponse = client
        .get("/v1/jobs")
        .and_then(|(_, b)| serde_json::from_str(&b).map_err(|e| e.to_string()))
        .map_err(|e| format!("final /v1/jobs: {e}"))?;
    let listed: BTreeSet<u64> = jobs.jobs.iter().map(|j| j.id).collect();
    report.check(
        acked.is_subset(&listed),
        format!(
            "{} acknowledged jobs missing from /v1/jobs",
            acked.difference(&listed).count()
        ),
    );
    let cluster: ClusterResponse = client
        .get("/v1/cluster")
        .and_then(|(_, b)| serde_json::from_str(&b).map_err(|e| e.to_string()))
        .map_err(|e| format!("final /v1/cluster: {e}"))?;
    report.check(
        cluster.submitted == acks.len() as u64,
        format!(
            "/v1/cluster submitted = {}, acknowledged = {}",
            cluster.submitted,
            acks.len()
        ),
    );
    drop(client);
    report.check(
        handle.shutdown_and_wait().is_some(),
        "daemon did not shut down cleanly",
    );
    match ones_d::persist::load(&state_file) {
        Ok(state) => {
            let persisted: BTreeSet<u64> = state.jobs.iter().map(|j| j.id.0).collect();
            report.check(
                acked.is_subset(&persisted),
                format!(
                    "{} acknowledged jobs missing from the state file",
                    acked.difference(&persisted).count()
                ),
            );
        }
        Err(e) => report.check(false, e),
    }

    time_boots(dir, SETUPS, "after", &mut setup_times)?;

    let failed = reqs.iter().filter(|r| !r.ok()).count();
    report.attempted += reqs.len() as u64;
    report.failed += failed as u64;

    let lat = |pred: &dyn Fn(&Req) -> bool| -> Vec<f64> {
        reqs.iter()
            .filter(|r| r.ok() && pred(r))
            .filter_map(Req::latency_ms)
            .collect()
    };
    let acks_ms = lat(&|r| matches!(r.kind, Kind::Submit(_)));
    let base_ms = lat(&|r| matches!(r.kind, Kind::Query { phase: 0, .. }));
    report.check(
        percentile_supported(acks_ms.len(), 90.0),
        format!("{} acknowledged submits support no p90", acks_ms.len()),
    );
    report.check(
        percentile_supported(base_ms.len(), 99.0),
        format!("{} base-rate queries support no p99", base_ms.len()),
    );
    // The generator's validity is judged on the fixed-rate traffic (the
    // submits and the base-rate queries) that the gated figures come
    // from. Each rate step is judged on its own lateness below: falling
    // behind there ends the step ladder, not the run.
    let late: Vec<f64> = reqs
        .iter()
        .filter(|r| matches!(r.kind, Kind::Submit(_) | Kind::Query { phase: 0, .. }))
        .filter_map(Req::late_ms)
        .collect();
    let late_p99 = percentile(&late, 99.0);
    report.check(
        late_p99 <= LATE_LIMIT_MS,
        format!("run invalid: generator p99 lateness {late_p99:.2} ms > {LATE_LIMIT_MS} ms"),
    );

    // Highest stepped query rate whose p99 met the limit with the
    // generator keeping up (the base rate counts as the first step).
    let mut rps_at_limit = 0.0;
    for (phase, p) in query_phases(secs).iter().enumerate() {
        let in_phase = |r: &&Req| matches!(r.kind, Kind::Query { phase: q, .. } if q == phase);
        let ms: Vec<f64> = reqs
            .iter()
            .filter(in_phase)
            .filter(|r| r.ok())
            .filter_map(Req::latency_ms)
            .collect();
        let all = reqs.iter().filter(in_phase).count();
        let late: Vec<f64> = reqs
            .iter()
            .filter(in_phase)
            .filter_map(Req::late_ms)
            .collect();
        let p99 = percentile(&ms, 99.0);
        const LABELS: [&str; 1 + STEP_RATES.len()] = [
            "query_p99_ms@base",
            "query_p99_ms@400",
            "query_p99_ms@800",
            "query_p99_ms@1600",
            "query_p99_ms@3200",
        ];
        report.info(LABELS[phase], p99, "ms");
        if ms.len() == all && p99 <= QUERY_P99_LIMIT_MS && percentile(&late, 99.0) <= LATE_LIMIT_MS
        {
            rps_at_limit = p.rate_hz;
        } else {
            break;
        }
    }

    // Set-up is scaled to the reference host speed, as on the simulator
    // workloads. The load phase follows a fixed wall-clock schedule, so
    // `run_s` is not scaled.
    let wall: Vec<f64> = setup_times.iter().map(|b| b.secs).collect();
    let scaled: Vec<f64> = setup_times
        .iter()
        .map(|b| at_ref_speed(b.secs, b.cal_s))
        .collect();
    let cal_ms: Vec<f64> = setup_times.iter().map(|b| b.cal_s * 1e3).collect();
    report.info("calibrate_ms", median(&cal_ms), "ms");
    report.info("setup_wall_s", median(&wall), "s");
    report.e2e("setup_s", median(&scaled), "s");
    report.e2e("run_s", run_s, "s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.info("run_cpu_s", cpu_s, "s");
    // Daemon-only, so not among the gated metrics every workload reports
    // (see perfbench/README.md): printed beside them, and exported as
    // `result.*` from the traced run.
    let results = [
        ("submit_ack_p50_ms", percentile(&acks_ms, 50.0), "ms"),
        ("submit_ack_p90_ms", percentile(&acks_ms, 90.0), "ms"),
        ("query_p50_ms", percentile(&base_ms, 50.0), "ms"),
        ("query_p99_ms", percentile(&base_ms, 99.0), "ms"),
        ("query_rps_at_limit", rps_at_limit, "1/s"),
    ];
    const TRACED: [&str; 5] = [
        "result.submit_ack_p50_ms",
        "result.submit_ack_p90_ms",
        "result.query_p50_ms",
        "result.query_p99_ms",
        "result.query_rps_at_limit",
    ];
    for (&(name, value, unit), traced_name) in results.iter().zip(TRACED) {
        report.info(name, value, unit);
        if traced {
            report.layer(traced_name, value, unit);
        }
    }
    report.info("submit_acks", acks_ms.len() as f64, "count");
    report.info("base_queries", base_ms.len() as f64, "count");
    report.info(
        "failed_frac",
        failed as f64 / reqs.len().max(1) as f64,
        "frac",
    );
    report.info("oned.client.late_ms", late_p99, "ms");
    report.info(
        "oned.core.events_per_s",
        engine_events as f64 / run_s.max(1e-9),
        "1/s",
    );

    if let Some(tracer) = tracer {
        let mut tr = spans::lock(&tracer);
        let offset_ns = tr.ns(origin);
        add_submit_spans(&mut tr, &reqs, offset_ns);
        layers(tr.spans(), offset_ns, &reqs, &obs, late_p99, report);
        let path = PathBuf::from("perfbench-out").join(format!("spans-{NAME}-{seed}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            report.check(false, format!("cannot write spans: {e}"));
        }
    }
    Ok(())
}

/// Adds, per acknowledged submit, a `client.submit` span from when it was
/// due to when its reply was read, with two children: `client.channel_wait`
/// (due → the wrapper's `submit()` entry, which covers the step batch the
/// submit queued behind) and `client.reply` (`submit()` exit → reply
/// read). All three share the submit's request id with its `core.submit`
/// span. `offset_ns` is the load origin on the tracer's clock.
fn add_submit_spans(tr: &mut Tracer, reqs: &[Req], offset_ns: u64) {
    let core: BTreeMap<u64, (u64, u64)> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "core.submit")
        .filter_map(|s| s.req.map(|r| (r, (s.start_ns, s.end_ns))))
        .collect();
    let ns = |secs: f64| offset_ns + (secs.max(0.0) * 1e9) as u64;
    for r in reqs {
        let (Kind::Submit(n), Some(done)) = (r.kind, r.done) else {
            continue;
        };
        let req = Some(n as u64);
        let Some(&(start, end)) = req.and_then(|n| core.get(&n)) else {
            continue;
        };
        let root = tr.record_ns("client.submit", ns(r.due), ns(done), None, req);
        tr.record_ns("client.channel_wait", ns(r.due), start, Some(root), req);
        tr.record_ns("client.reply", end, ns(done), Some(root), req);
    }
}

/// Per-layer figures of a traced daemon run; `offset_ns` is the load
/// origin on the tracer's clock.
fn layers(
    spans: &[Span],
    offset_ns: u64,
    reqs: &[Req],
    obs: &ObsReadings,
    late_p99: f64,
    report: &mut Report,
) {
    let engine_events = obs.engine_events;
    let at = |ns: u64| (ns as f64 - offset_ns as f64) / 1e9;
    let ms = |s: &Span| s.duration_ns() as f64 / 1e6;
    let in_load = |s: &&Span| at(s.start_ns) >= 0.0;
    let named = |name: &'static str| spans.iter().filter(in_load).filter(move |s| s.name == name);

    // Submit path.
    let wait: Vec<f64> = named("client.channel_wait").map(ms).collect();
    let reply: Vec<f64> = named("client.reply").map(ms).collect();
    let submit_ms: Vec<f64> = named("core.submit").map(ms).collect();

    // Core thread: step batches, and the gaps between them split into
    // snapshot reads and the rest (serialise, fsync, publish, submits).
    let mut steps: Vec<&Span> = named("core.step").collect();
    steps.sort_by_key(|s| s.start_ns);
    let step_ms: Vec<f64> = steps.iter().map(|s| ms(s)).collect();
    let snaps: Vec<&Span> = named("core.snapshot").collect();
    let submits: Vec<&Span> = named("core.submit").collect();
    let (mut snapshot_ms, mut between_ms) = (Vec::new(), Vec::new());
    for pair in steps.windows(2) {
        let (lo, hi) = (pair[0].end_ns, pair[1].start_ns);
        let within = |list: &[&Span]| -> f64 {
            list.iter()
                .filter(|s| s.start_ns >= lo && s.end_ns <= hi)
                .map(|s| ms(s))
                .sum()
        };
        let snap = within(&snaps);
        let gap = (hi - lo) as f64 / 1e6;
        snapshot_ms.push(snap);
        between_ms.push(gap - snap - within(&submits));
    }
    let self_ns = spans::self_times(spans);
    let self_s = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name && at(s.start_ns) >= 0.0)
            .map(|(_, &ns)| ns as f64 / 1e9)
            .sum()
    };
    let engine_self = self_s("core.step");
    let events = engine_events as f64;

    report.layer("simulator.engine.self_s", engine_self, "s");
    report.layer("simulator.engine.events", events, "count");
    report.layer(
        "simulator.engine.us_per_event",
        engine_self * 1e6 / events.max(1.0),
        "us",
    );
    for (name, value, unit) in scheduler_layers(
        self_s("scheduler.on_event"),
        named("scheduler.on_event").count() as f64,
        named("reconcile.diff").count() as f64,
        self_s("reconcile.diff"),
        &obs.evo,
        obs,
    ) {
        report.layer(name, value, unit);
    }
    report.layer("oned.core.channel_wait_ms", median(&wait), "ms");
    report.info(
        "oned.core.channel_wait_p90_ms",
        percentile(&wait, 90.0),
        "ms",
    );
    report.info("oned.reply_p90_ms", percentile(&reply, 90.0), "ms");
    report.layer("oned.core.submit_ms", median(&submit_ms), "ms");
    report.layer("oned.core.step_ms", median(&step_ms), "ms");
    report.layer(
        "oned.core.events_per_step",
        events / (steps.len().max(1) as f64),
        "count",
    );
    report.layer("oned.reply_ms", median(&reply), "ms");
    report.layer("oned.core.snapshot_ms", median(&snapshot_ms), "ms");
    report.layer("oned.core.between_steps_ms", median(&between_ms), "ms");
    report.layer("oned.client.late_ms", late_p99, "ms");
    for route in ROUTES {
        let v: Vec<f64> = reqs
            .iter()
            .filter(|r| matches!(r.kind, Kind::Query { route: q, phase: 0 } if q == route))
            .filter(|r| r.ok())
            .filter_map(Req::latency_ms)
            .collect();
        report.layer(route.metric(), percentile(&v, 99.0), "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_due_ordered_with_fixed_rates() {
        let reqs = plan(10.0);
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
        let submits = reqs
            .iter()
            .filter(|r| matches!(r.kind, Kind::Submit(_)))
            .count();
        assert_eq!(submits, 40);
        let base = reqs
            .iter()
            .filter(|r| matches!(r.kind, Kind::Query { phase: 0, .. }))
            .count();
        assert_eq!(base, 600);
        let stepped: usize = query_phases(10.0)[1..]
            .iter()
            .map(|p| p.due_times().len())
            .sum();
        assert_eq!(stepped, (400 + 800 + 1600 + 3200) * 4 / 4);
    }
}
