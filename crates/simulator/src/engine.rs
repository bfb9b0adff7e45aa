//! The discrete-event simulation engine.
//!
//! State machine per job: *Waiting* → (deployment grants GPUs, start cost)
//! → *Running* epochs → … → *Completed* when the ground-truth convergence
//! model satisfies its patience window. A deployment that changes a job's
//! slots mid-epoch pro-rates the partial epoch (progress, samples,
//! attained service) and charges the scheduler's re-configuration cost
//! before the next epoch starts.

use crate::lifecycle::{BackendEvent, BackendEventKind, Outbox, Track};
use ones_cluster::Placement;
use ones_dlperf::{ConvergenceState, PerfModel};
use ones_sched::ScalingCostModel;
use ones_schedcore::{
    ClusterView, JobPhase, JobStatus, OpKind, PhasePlan, Reconciler, ScalingMechanism, ScalingOp,
    SchedEvent, Schedule, Scheduler, SchedulerPerfCounters,
};
use ones_simcore::{EventQueue, SimTime};
use ones_sync::LazyLock;
use ones_workload::{JobId, Trace};
use std::collections::BTreeMap;

// Engine observability (DESIGN.md §5). Wall-time spans cover the host
// cost of processing each event; the virtual-time track (pid 1 in the
// trace export, one row per job) is drawn by `Outbox::emit`, plus the
// `deploy` instants and reconcile phase spans below.
static EVENTS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("simulator.engine.events"));
static DEPLOYMENTS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("simulator.engine.deployments"));
static TRANSITIONS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("simulator.engine.transitions"));
static EPOCHS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("simulator.engine.epochs"));
static QUEUE_DEPTH: LazyLock<&'static ones_obs::Gauge> =
    LazyLock::new(|| ones_obs::gauge("simulator.engine.queue_depth"));
static RUNNING_JOBS: LazyLock<&'static ones_obs::Gauge> =
    LazyLock::new(|| ones_obs::gauge("simulator.engine.running_jobs"));
static WAITING_JOBS: LazyLock<&'static ones_obs::Gauge> =
    LazyLock::new(|| ones_obs::gauge("simulator.engine.waiting_jobs"));
static OVERHEAD_S: LazyLock<&'static ones_obs::Histogram> =
    LazyLock::new(|| ones_obs::histogram("simulator.engine.transition_overhead_s"));
static RECONCILE_OPS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("simulator.reconcile.ops"));
static RECONCILE_NOOP_DEPLOYS: LazyLock<&'static ones_obs::Counter> =
    LazyLock::new(|| ones_obs::counter("simulator.reconcile.noop_deploys"));
static RECONCILE_PHASE_S: LazyLock<&'static ones_obs::Histogram> =
    LazyLock::new(|| ones_obs::histogram("simulator.reconcile.phase_s"));

/// Engine tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Hard stop on virtual time, seconds.
    pub max_time: f64,
    /// Hard stop on processed events (runaway guard).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_time: 1.0e6,
            max_events: 20_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(JobId),
    EpochEnd {
        job: JobId,
        seq: u64,
    },
    /// External termination (owner kill / crash) — §2.1's abnormal endings.
    Kill(JobId),
    Tick,
}

/// A running job's current execution segment.
#[derive(Debug, Clone)]
struct Segment {
    placement: Placement,
    global_batch: u32,
    /// Duration of one full epoch under this configuration.
    epoch_duration: f64,
    /// When the current epoch's useful work began (after costs).
    epoch_started: SimTime,
    /// Last time exec/service counters were accrued.
    last_accrual: SimTime,
}

/// Engine-side state of an arrived job; its [`JobStatus`] lives in
/// [`Simulation::statuses`].
#[derive(Debug)]
struct SimJob {
    conv: ConvergenceState,
    /// Bumped on every re-configuration; stale `EpochEnd` events are
    /// dropped by sequence mismatch.
    epoch_seq: u64,
    segment: Option<Segment>,
}

/// Arrived jobs per live phase, kept at every phase write so the queue
/// gauges and the idle check read them without scanning the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PhaseCounts {
    running: u32,
    waiting: u32,
}

impl PhaseCounts {
    /// The counts of a scan over `statuses`.
    #[cfg(test)]
    fn of<'a>(statuses: impl IntoIterator<Item = &'a JobStatus>) -> Self {
        let mut counts = PhaseCounts::default();
        for status in statuses {
            counts.add(status.phase, 1);
        }
        counts
    }

    fn add(&mut self, phase: JobPhase, n: i32) {
        let count = match phase {
            JobPhase::Running => &mut self.running,
            JobPhase::Waiting => &mut self.waiting,
            JobPhase::Completed => return,
        };
        *count = count.checked_add_signed(n).expect("phase count underflow");
    }

    /// Moves `status` to `phase`, keeping the counts in step.
    fn set(&mut self, status: &mut JobStatus, phase: JobPhase) {
        self.add(status.phase, -1);
        self.add(phase, 1);
        status.phase = phase;
    }

    /// Arrived jobs not yet completed.
    fn incomplete(self) -> u32 {
        self.running + self.waiting
    }
}

/// What one call to [`Simulation::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event (or a stall-probe tick) was dispatched; more work may
    /// remain.
    Progressed,
    /// Nothing left to do: every arrived job is finished and the queue is
    /// drained (or the scheduler was probed once and produced no new
    /// work). Injecting a new job makes the simulation progress again.
    Idle,
    /// The time or event cap fired; the run should stop.
    Capped,
}

/// Result of a completed simulation run.
#[derive(Debug)]
pub struct SimResult {
    /// Cluster size the run used.
    pub total_gpus: u32,
    /// Final job statuses (all phases).
    pub jobs: BTreeMap<JobId, JobStatus>,
    /// Virtual time when the last event was processed.
    pub makespan: f64,
    /// Whether every job completed (false on stall or time/event cap).
    pub all_completed: bool,
    /// Jobs that ran to convergence.
    pub completed_jobs: usize,
    /// Jobs that ended abnormally (killed/crashed) — §2.1's abnormal
    /// endings; they carry no meaningful JCT.
    pub killed_jobs: usize,
    /// Jobs still pending or unfinished when the run stopped (stall, time
    /// or event cap — replayed traces with stragglers hit these).
    pub incomplete_jobs: usize,
    /// Number of schedule deployments executed.
    pub deployments: u64,
    /// Number of per-job re-configurations (start/resume/resize) executed.
    pub transitions: u64,
    /// Total re-configuration overhead charged across all jobs, seconds.
    pub total_overhead: f64,
    /// Scheduler-internal hot-loop counters, when the scheduler keeps any
    /// (ONES reports its evolutionary-search diagnostics here).
    pub scheduler_perf: Option<SchedulerPerfCounters>,
}

impl SimResult {
    /// Mean cluster GPU utilisation over the run: busy GPU-seconds (attained
    /// service of all jobs, including re-configuration pauses while holding
    /// GPUs) over capacity GPU-seconds. The quantity ONES's elasticity is
    /// designed to maximise (§1).
    #[must_use]
    pub fn gpu_utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.total_gpus == 0 {
            return 0.0;
        }
        let busy: f64 = self.jobs.values().map(|j| j.gpu_service).sum();
        (busy / (f64::from(self.total_gpus) * self.makespan)).min(1.0)
    }

    /// Goodput fraction: jobs that ran to convergence over all jobs in the
    /// trace. 1.0 for a clean Table 2 run; ~0.7 for a Philly-style replay
    /// with its ~30 % abnormal terminations.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        let total = self.completed_jobs + self.killed_jobs + self.incomplete_jobs;
        if total == 0 {
            return 0.0;
        }
        self.completed_jobs as f64 / total as f64
    }
}

/// The simulation: one scheduler, one trace, one cluster.
///
/// # Example
/// ```
/// use ones_cluster::ClusterSpec;
/// use ones_dlperf::PerfModel;
/// use ones_simcore::DetRng;
/// use ones_simulator::{SchedulerKind, SimConfig, Simulation};
/// use ones_workload::{Trace, TraceConfig};
///
/// let cluster = ClusterSpec::longhorn_subset(16);
/// let trace = Trace::generate(TraceConfig {
///     num_jobs: 3,
///     arrival_rate: 0.1,
///     seed: 7,
///     kill_fraction: 0.0,
/// });
/// let scheduler = SchedulerKind::Fifo.build(&cluster, &trace, &DetRng::seed(1));
/// let result = Simulation::new(PerfModel::new(cluster), &trace, scheduler,
///                              SimConfig::default()).run();
/// assert!(result.all_completed);
/// assert_eq!(result.jobs.len(), 3);
/// ```
pub struct Simulation {
    config: SimConfig,
    perf: PerfModel,
    cost: ScalingCostModel,
    scheduler: Box<dyn Scheduler>,
    queue: EventQueue<Event>,
    /// Jobs that have not arrived yet.
    pending: BTreeMap<JobId, ones_workload::JobSpec>,
    /// Engine-side state of the jobs that have arrived.
    jobs: BTreeMap<JobId, SimJob>,
    /// Status of every arrived job: the engine's only job-state store,
    /// written in place at each transition and borrowed as
    /// [`ClusterView::jobs`].
    statuses: BTreeMap<JobId, JobStatus>,
    /// Running and waiting jobs in `statuses`.
    phases: PhaseCounts,
    /// Desired-vs-actual reconciliation state; its actual schedule is the
    /// single source of truth for what is deployed.
    recon: Reconciler,
    /// Lifecycle events emitted by the current step.
    outbox: Outbox,
    next_tick: Option<SimTime>,
    deployments: u64,
    transitions: u64,
    total_overhead: f64,
    events_processed: u64,
    stalled_once: bool,
}

impl Simulation {
    /// Creates a simulation of `trace` under `scheduler` on the cluster
    /// described by `perf`.
    #[must_use]
    pub fn new(
        perf: PerfModel,
        trace: &Trace,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        let total_gpus = perf.spec().total_gpus();
        let mut queue = EventQueue::new();
        let mut pending = BTreeMap::new();
        for job in &trace.jobs {
            queue.push(SimTime::from_secs(job.arrival_secs), Event::Arrival(job.id));
            pending.insert(job.id, job.clone());
        }
        Simulation {
            pending,
            jobs: BTreeMap::new(),
            statuses: BTreeMap::new(),
            phases: PhaseCounts::default(),
            config,
            perf,
            cost: ScalingCostModel::default(),
            scheduler,
            queue,
            recon: Reconciler::new(total_gpus),
            outbox: Outbox::default(),
            next_tick: None,
            deployments: 0,
            transitions: 0,
            total_overhead: 0.0,
            events_processed: 0,
            stalled_once: false,
        }
    }

    /// Runs to completion (or stall/caps) and returns the result.
    #[must_use]
    pub fn run(self) -> SimResult {
        self.run_returning_scheduler().0
    }

    /// Like [`Simulation::run`] but hands the scheduler back afterwards —
    /// used for DRL pre-training episodes, where the learned policy must
    /// survive the run.
    #[must_use]
    pub fn run_returning_scheduler(mut self) -> (SimResult, Box<dyn Scheduler>) {
        while self.step() == StepOutcome::Progressed {}
        self.into_result()
    }

    /// Dispatches the next pending event and returns what happened.
    ///
    /// This is the incremental face of the engine: `run` is exactly
    /// `while step() == Progressed {}`. A long-running service (`ones-d`)
    /// interleaves `step` with [`Simulation::inject`] to feed arrivals in
    /// while virtual time advances. When the queue drains with unfinished
    /// jobs the scheduler is probed once with a tick before `Idle` is
    /// declared, mirroring the batch run's stall handling.
    ///
    /// The step's lifecycle events are read back with
    /// [`Simulation::step_events`].
    pub fn step(&mut self) -> StepOutcome {
        self.outbox.0.clear();
        if self.all_completed() {
            return StepOutcome::Idle;
        }
        let Some((now, event)) = self.queue.pop() else {
            // Queue drained with incomplete jobs: poke the scheduler
            // once; if nothing changes, declare a stall.
            if self.stalled_once {
                return StepOutcome::Idle;
            }
            self.stalled_once = true;
            let now = self.last_time();
            self.dispatch(now, Event::Tick);
            return StepOutcome::Progressed;
        };
        self.events_processed += 1;
        if now.as_secs() > self.config.max_time || self.events_processed > self.config.max_events {
            return StepOutcome::Capped;
        }
        self.stalled_once = false;
        self.dispatch(now, event);
        StepOutcome::Progressed
    }

    /// Adds a job to the simulation after construction (live submission).
    ///
    /// The spec is validated like trace ingestion; an arrival time in the
    /// simulated past is clamped forward to the current virtual time (the
    /// event queue is monotonic). Returns the effective arrival time in
    /// seconds.
    ///
    /// # Errors
    /// Fails on an invalid spec or a duplicate job id.
    pub fn inject(&mut self, mut spec: ones_workload::JobSpec) -> Result<f64, String> {
        let id = spec.id;
        if self.pending.contains_key(&id) || self.jobs.contains_key(&id) {
            return Err(format!("duplicate job id {id}"));
        }
        let at = SimTime::from_secs(spec.arrival_secs).max(self.queue.now());
        spec.arrival_secs = at.as_secs();
        spec.try_validate()?;
        self.queue.push(at, Event::Arrival(id));
        self.pending.insert(id, spec);
        // New work: an earlier stall probe no longer means "done".
        self.stalled_once = false;
        Ok(at.as_secs())
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events dispatched so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The lifecycle events the last [`Simulation::step`] emitted, in
    /// engine causal order: the dispatched event's own transition
    /// (arrival, epoch end, completion, kill), then the preemptions and
    /// (re)starts of the deployment it triggered. Callers that want a
    /// whole-run log extend their own buffer after each step.
    #[must_use]
    pub fn step_events(&self) -> &[BackendEvent] {
        &self.outbox.0
    }

    /// The currently deployed (actual) schedule.
    #[must_use]
    pub fn deployed(&self) -> &Schedule {
        self.recon.actual()
    }

    /// The reconciliation state (actual schedule + in-flight operations),
    /// for persistence by long-running services.
    #[must_use]
    pub fn reconciler(&self) -> &Reconciler {
        &self.recon
    }

    /// The cluster this simulation runs on.
    #[must_use]
    pub fn cluster_spec(&self) -> &ones_cluster::ClusterSpec {
        self.perf.spec()
    }

    /// Arrived jobs currently `(running, waiting)`.
    #[must_use]
    pub(crate) fn running_and_waiting(&self) -> (u32, u32) {
        (self.phases.running, self.phases.waiting)
    }

    /// Number of submitted jobs whose arrival is still in the future.
    #[must_use]
    pub fn queued_count(&self) -> usize {
        self.pending.len()
    }

    /// Point-in-time status of every job the engine knows about: arrived
    /// jobs carry their live [`JobStatus`]; jobs still pending arrival are
    /// reported as freshly submitted at their (future) arrival time.
    #[must_use]
    pub fn job_statuses(&self) -> BTreeMap<JobId, JobStatus> {
        let mut out = self.statuses.clone();
        for (id, spec) in &self.pending {
            out.insert(
                *id,
                JobStatus::submitted(spec.clone(), SimTime::from_secs(spec.arrival_secs)),
            );
        }
        out
    }

    /// Forwards a live tuning change to the scheduler; returns whether the
    /// scheduler applied anything.
    pub fn reconfigure_scheduler(&mut self, tuning: &ones_schedcore::SchedTuning) -> bool {
        self.scheduler.reconfigure(tuning)
    }

    /// The driving scheduler's display name.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Consumes the simulation and produces the final accounting, exactly
    /// as a completed [`Simulation::run`] would.
    #[must_use]
    pub fn into_result(self) -> (SimResult, Box<dyn Scheduler>) {
        let makespan = self.last_time().as_secs();
        let all_completed = self.all_completed();
        // Outcome accounting: normal completions, abnormal endings, and
        // whatever the run left unfinished (including jobs that never
        // arrived before a time/event cap — they have no status).
        let killed_jobs = self.statuses.values().filter(|s| s.killed).count();
        let completed_jobs = self
            .statuses
            .values()
            .filter(|s| s.is_completed() && !s.killed)
            .count();
        let incomplete_jobs = self.pending.len() + self.phases.incomplete() as usize;
        let result = SimResult {
            total_gpus: self.perf.spec().total_gpus(),
            jobs: self.statuses,
            makespan,
            all_completed,
            completed_jobs,
            killed_jobs,
            incomplete_jobs,
            deployments: self.deployments,
            transitions: self.transitions,
            total_overhead: self.total_overhead,
            scheduler_perf: self.scheduler.perf_counters(),
        };
        (result, self.scheduler)
    }

    fn last_time(&self) -> SimTime {
        self.queue.now()
    }

    fn all_completed(&self) -> bool {
        self.pending.is_empty() && self.phases.incomplete() == 0
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        EVENTS.inc();
        // Drive periodic metrics snapshots off the virtual clock so
        // streamed series are reproducible across replays of the same
        // seed (a cheap atomic pre-check when no metrics sink is attached).
        ones_obs::metrics_tick(now.as_secs());
        let _event_span = ones_obs::span!("simulator", "event")
            .with_arg(
                "kind",
                match event {
                    Event::Arrival(_) => "arrival",
                    Event::EpochEnd { .. } => "epoch_end",
                    Event::Kill(_) => "kill",
                    Event::Tick => "tick",
                },
            )
            .with_arg("vt", now.as_secs());
        let sched_event = match event {
            Event::Arrival(id) => {
                let spec = self.pending.remove(&id).expect("arrival of unknown job");
                if let Some(delay) = spec.kill_after_secs {
                    self.queue.push(now + delay, Event::Kill(id));
                }
                self.jobs.insert(
                    id,
                    SimJob {
                        conv: ConvergenceState::new(spec.convergence),
                        epoch_seq: 0,
                        segment: None,
                    },
                );
                let status = JobStatus::submitted(spec, now);
                self.phases.add(status.phase, 1);
                self.statuses.insert(id, status);
                self.outbox
                    .emit(now, id, BackendEventKind::Arrived, Track::Plain);
                Some(SchedEvent::JobArrived(id))
            }
            Event::EpochEnd { job, seq } => self.handle_epoch_end(now, job, seq),
            Event::Kill(id) => self.handle_kill(now, id),
            Event::Tick => {
                self.next_tick = None;
                Some(SchedEvent::Tick)
            }
        };
        let Some(sched_event) = sched_event else {
            return; // stale epoch event
        };
        self.invoke_scheduler(now, sched_event);
    }

    fn invoke_scheduler(&mut self, now: SimTime, event: SchedEvent) {
        let (running, waiting) = self.running_and_waiting();
        QUEUE_DEPTH.set(self.queue.len() as f64);
        RUNNING_JOBS.set(f64::from(running));
        WAITING_JOBS.set(f64::from(waiting));
        let desired = {
            let view = ClusterView {
                now,
                spec: self.perf.spec(),
                perf: &self.perf,
                jobs: &self.statuses,
                deployed: self.recon.actual(),
            };
            self.scheduler.on_event(event, &view)
        };
        if let Some(schedule) = desired {
            self.deploy(now, schedule);
        }
        // Timer management: arm the earliest requested wake-up.
        if let Some(t) = self.scheduler.next_wakeup(now) {
            let t = t.max(now + 1e-3);
            if t.as_secs() <= self.config.max_time && self.next_tick.is_none_or(|cur| t < cur) {
                self.queue.push(t, Event::Tick);
                self.next_tick = Some(t);
            }
        }
    }

    /// External termination: the job ends now regardless of convergence.
    /// Partial-epoch progress is wound down exactly like a preemption, the
    /// job is reported to the scheduler as completed (real schedulers see
    /// killed jobs simply disappear), and its telemetry — however partial —
    /// flows into the ONES predictor's training set, exercising the §2.1
    /// robustness argument.
    fn handle_kill(&mut self, now: SimTime, id: JobId) -> Option<SchedEvent> {
        let status = self.statuses.get_mut(&id)?;
        if status.is_completed() {
            return None; // converged before the kill fired
        }
        let job = self.jobs.get_mut(&id).expect("arrived job");
        if let Some(segment) = job.segment.take() {
            let held = now - segment.last_accrual;
            status.exec_time += held;
            status.gpu_service += held * segment.placement.len() as f64;
            if now > segment.epoch_started && segment.epoch_duration > 0.0 {
                let fraction =
                    ((now - segment.epoch_started) / segment.epoch_duration).clamp(0.0, 1.0);
                status.samples_processed += fraction * status.spec.dataset_size as f64;
            }
        }
        job.epoch_seq += 1;
        self.phases.set(status, JobPhase::Completed);
        status.killed = true;
        status.completion = Some(now);
        status.current_batch = 0;
        status.current_gpus = 0;
        self.recon.observe_removed(id);
        self.outbox
            .emit(now, id, BackendEventKind::Killed, Track::Plain);
        Some(SchedEvent::JobCompleted(id))
    }

    /// Applies a completed epoch; returns the scheduler event to deliver,
    /// or `None` if the event was stale.
    fn handle_epoch_end(&mut self, now: SimTime, id: JobId, seq: u64) -> Option<SchedEvent> {
        let scales = self.scheduler.scales_batch_sizes();
        let job = self.jobs.get_mut(&id)?;
        let status = self.statuses.get_mut(&id).expect("arrived job");
        if job.epoch_seq != seq || !status.is_running() {
            return None;
        }
        let segment = job.segment.as_mut().expect("running job has a segment");
        EPOCHS.inc();
        let lr_scaled = scales || segment.global_batch == status.spec.submit_batch;
        job.conv.advance_epoch(segment.global_batch, lr_scaled);

        // Telemetry upload (§3.1): workers report at each epoch end.
        let held = now - segment.last_accrual;
        segment.last_accrual = now;
        status.exec_time += held;
        status.gpu_service += held * segment.placement.len() as f64;
        status.epochs_done = job.conv.epochs_done();
        status.samples_processed += status.spec.dataset_size as f64;
        status.current_loss = job.conv.loss();
        status.current_accuracy = job.conv.accuracy();
        status.throughput = status.spec.dataset_size as f64 / segment.epoch_duration;
        status.epochs_in_current_schedule += 1;
        self.outbox.emit(
            now,
            id,
            BackendEventKind::EpochEnded {
                epochs_done: status.epochs_done,
            },
            Track::Epoch {
                from: segment.epoch_started,
                batch: segment.global_batch,
                gpus: segment.placement.len() as u32,
            },
        );

        if job.conv.converged() {
            self.phases.set(status, JobPhase::Completed);
            status.completion = Some(now);
            status.current_batch = 0;
            status.current_gpus = 0;
            job.segment = None;
            job.epoch_seq += 1;
            self.recon.observe_removed(id);
            self.outbox
                .emit(now, id, BackendEventKind::Completed, Track::Plain);
            Some(SchedEvent::JobCompleted(id))
        } else {
            // Next epoch under the same configuration.
            let segment = job.segment.as_mut().expect("still running");
            segment.epoch_started = now;
            let at = now + segment.epoch_duration;
            let seq = job.epoch_seq;
            if at.as_secs() <= self.config.max_time {
                self.queue.push(at, Event::EpochEnd { job: id, seq });
            }
            Some(SchedEvent::EpochEnded(id))
        }
    }

    /// Reconciles the desired `schedule` against the actual one at `now`:
    /// the diff becomes typed [`ScalingOp`]s, each executed as a
    /// [`ones_schedcore::ScalingPhase`] state machine and committed into
    /// the reconciler's actual schedule. Jobs whose `(placement set,
    /// global batch)` did not change get no operation: their slots, epoch
    /// counters and running segments are left untouched.
    fn deploy(&mut self, now: SimTime, schedule: Schedule) {
        schedule
            .validate(self.perf.spec(), |j| {
                self.statuses
                    .get(&j)
                    .map_or(0, |s| s.spec.profile().max_local_batch)
            })
            .expect("scheduler produced an invalid schedule");
        for job in schedule.running_jobs().keys() {
            assert!(
                self.statuses.get(job).is_some_and(|s| !s.is_completed()),
                "scheduler placed unknown or completed job {job}"
            );
        }
        self.deployments += 1;
        DEPLOYMENTS.inc();
        if ones_obs::spans_enabled() {
            ones_obs::virtual_instant(
                "deploy",
                "simulator",
                0,
                now.as_secs(),
                vec![("jobs", schedule.running_jobs().len().into())],
            );
        }

        let ops = self.recon.plan(&schedule);
        if ops.is_empty() {
            RECONCILE_NOOP_DEPLOYS.inc();
            return;
        }
        for mut op in ops {
            RECONCILE_OPS.inc();
            self.recon.begin(op.clone());
            self.execute_op(now, &mut op, &schedule);
            self.recon.commit(&op);
        }
    }

    /// Executes one scaling operation: winds down the job's current
    /// segment, walks the op's phase machine (charging the phase plan's
    /// total as re-configuration overhead) and starts the new segment.
    fn execute_op(&mut self, now: SimTime, op: &mut ScalingOp, schedule: &Schedule) {
        let mechanism = self.scheduler.mechanism();
        let scales = self.scheduler.scales_batch_sizes();
        let allreduce = *self.perf.allreduce();
        let perf = self.perf;
        let cost_model = self.cost;
        let id = op.job;
        let job = self.jobs.get_mut(&id).expect("known job");
        let status = self.statuses.get_mut(&id).expect("known job");

        // Wind down the current segment (pro-rated partial epoch).
        let was_running = job.segment.is_some();
        if let Some(segment) = job.segment.take() {
            let held = now - segment.last_accrual;
            status.exec_time += held;
            status.gpu_service += held * segment.placement.len() as f64;
            if now > segment.epoch_started && segment.epoch_duration > 0.0 {
                let fraction =
                    ((now - segment.epoch_started) / segment.epoch_duration).clamp(0.0, 1.0);
                let lr_scaled = scales || segment.global_batch == status.spec.submit_batch;
                job.conv
                    .advance_fraction(segment.global_batch, lr_scaled, fraction * 0.999_999);
                status.samples_processed += fraction * status.spec.dataset_size as f64;
            }
        }
        job.epoch_seq += 1;

        if matches!(op.kind, OpKind::Preempt) {
            // Releasing GPUs is free: every phase is zero-duration.
            while op.advance(&PhasePlan::ZERO).is_some() {}
            self.phases.set(status, JobPhase::Waiting);
            status.current_batch = 0;
            status.current_gpus = 0;
            if was_running {
                self.outbox
                    .emit(now, id, BackendEventKind::Preempted, Track::Plain);
            }
            return;
        }

        // (Re)start under the new configuration.
        let placement = schedule.placement(id);
        let batches = schedule.local_batches(id);
        let global_batch = schedule.global_batch(id);
        let profile = status.spec.profile();
        let plan = if !was_running {
            match (mechanism, status.first_start.is_some()) {
                // Fresh start: spawn processes, build the input pipeline.
                (_, false) => cost_model.cold_start_plan(),
                // Resume: elastic re-spawns workers; checkpointed systems
                // additionally reload the saved state; suspend/resume
                // swaps it back from host memory.
                (ScalingMechanism::ElasticNccl, true) => cost_model.cold_start_plan(),
                (ScalingMechanism::CheckpointRestart, true) => cost_model.checkpoint_plan(&profile),
                (ScalingMechanism::SuspendResume, true) => cost_model.suspend_resume_plan(&profile),
            }
        } else {
            let workers_joined = matches!(
                op.kind,
                OpKind::Scale {
                    workers_joined: true
                }
            );
            match mechanism {
                ScalingMechanism::ElasticNccl => {
                    cost_model.elastic_plan(&profile, &allreduce, &placement, workers_joined)
                }
                ScalingMechanism::CheckpointRestart => cost_model.checkpoint_plan(&profile),
                ScalingMechanism::SuspendResume => cost_model.suspend_resume_plan(&profile),
            }
        };
        let overhead = plan.total();

        // Walk the phase machine: one observability span per timed phase,
        // laid end to end over the overhead window.
        let mut phase_start = now.as_secs();
        while let Some((phase, duration)) = op.advance(&plan) {
            RECONCILE_PHASE_S.observe(duration);
            if ones_obs::spans_enabled() {
                ones_obs::virtual_span(
                    phase.name(),
                    "simulator",
                    id.0,
                    phase_start,
                    phase_start + duration,
                    vec![("op", op.kind.name().into())],
                );
            }
            phase_start += duration;
        }
        self.total_overhead += overhead;
        self.transitions += 1;
        TRANSITIONS.inc();
        OVERHEAD_S.observe(overhead);

        // An abrupt batch jump injects its loss spike now (Figure 13).
        job.conv.on_batch_change(global_batch);

        let epoch_duration =
            perf.epoch_time(&profile, status.spec.dataset_size, &batches, &placement);
        let epoch_started = now + overhead;
        job.segment = Some(Segment {
            placement: placement.clone(),
            global_batch,
            epoch_duration,
            epoch_started,
            last_accrual: now,
        });
        self.phases.set(status, JobPhase::Running);
        status.first_start.get_or_insert(now);
        status.current_batch = global_batch;
        status.current_gpus = placement.len() as u32;
        status.epochs_in_current_schedule = 0;
        let at = epoch_started + epoch_duration;
        let seq = job.epoch_seq;
        if at.as_secs() <= self.config.max_time {
            self.queue.push(at, Event::EpochEnd { job: id, seq });
        }
        let (batch, gpus) = (global_batch, placement.len() as u32);
        let kind = if was_running {
            BackendEventKind::Resized { batch, gpus }
        } else {
            BackendEventKind::Started { batch, gpus }
        };
        self.outbox.emit(now, id, kind, Track::Overhead(overhead));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SchedulerKind;
    use ones_cluster::ClusterSpec;
    use ones_simcore::DetRng;
    use ones_workload::TraceConfig;

    fn small_trace(n: usize, seed: u64) -> Trace {
        Trace::generate(TraceConfig {
            num_jobs: n,
            arrival_rate: 1.0 / 20.0,
            seed,
            kill_fraction: 0.0,
        })
    }

    fn run(kind: SchedulerKind, n: usize, gpus: u32) -> SimResult {
        run_logged(kind, n, gpus).0
    }

    /// Runs step by step under a [`ViewSpy`], keeping every step's
    /// lifecycle events.
    fn run_logged(kind: SchedulerKind, n: usize, gpus: u32) -> (SimResult, Vec<BackendEvent>) {
        let trace = small_trace(n, 7);
        let spec = ClusterSpec::longhorn_subset(gpus);
        let spy = ViewSpy {
            inner: kind.build(&spec, &trace, &DetRng::seed(11)),
        };
        let mut sim = Simulation::new(
            PerfModel::new(spec),
            &trace,
            Box::new(spy),
            SimConfig::default(),
        );
        let mut events = Vec::new();
        while step_checked(&mut sim) == StepOutcome::Progressed {
            events.extend_from_slice(sim.step_events());
        }
        (sim.into_result().0, events)
    }

    /// Steps once, then checks the kept phase counts (and the idle check
    /// read from them) against a rescan of the status store.
    fn step_checked(sim: &mut Simulation) -> StepOutcome {
        let outcome = sim.step();
        let rescan = PhaseCounts::of(sim.statuses.values());
        assert_eq!(sim.phases, rescan, "phase counts drifted from the store");
        assert_eq!(
            sim.all_completed(),
            sim.pending.is_empty() && sim.statuses.values().all(JobStatus::is_completed)
        );
        outcome
    }

    /// Delegates to a real scheduler and checks, on every event, that the
    /// borrowed status store agrees with the deployed schedule.
    struct ViewSpy {
        inner: Box<dyn Scheduler>,
    }

    impl Scheduler for ViewSpy {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn mechanism(&self) -> ScalingMechanism {
            self.inner.mechanism()
        }

        fn scales_batch_sizes(&self) -> bool {
            self.inner.scales_batch_sizes()
        }

        fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
            self.inner.next_wakeup(now)
        }

        fn on_event(&mut self, event: SchedEvent, view: &ClusterView<'_>) -> Option<Schedule> {
            let deployed = view.deployed.running_jobs();
            for (id, &(_, gpus)) in &deployed {
                let status = &view.jobs[id];
                assert!(status.is_running(), "deployed {id} is {:?}", status.phase);
                assert_eq!(status.current_gpus, gpus, "{id}: GPUs disagree");
            }
            for (id, status) in view.jobs {
                if status.is_running() {
                    assert!(deployed.contains_key(id), "running {id} is not deployed");
                }
            }
            self.inner.on_event(event, view)
        }
    }

    #[test]
    fn view_agrees_with_the_deployed_schedule_on_every_event() {
        // The Philly-style smoke replay: contended, with abnormal kills.
        let trace = ones_workload::ReplayConfig {
            num_jobs: 12,
            base_rate: 1.0 / 20.0,
            seed: 7,
            ..ones_workload::ReplayConfig::default()
        }
        .generate();
        let spec = ClusterSpec::longhorn_subset(16);
        for kind in [
            SchedulerKind::Ones,
            SchedulerKind::Tiresias,
            SchedulerKind::Fifo,
        ] {
            let spy = ViewSpy {
                inner: kind.build(&spec, &trace, &DetRng::seed(11)),
            };
            let mut sim = Simulation::new(
                PerfModel::new(spec),
                &trace,
                Box::new(spy),
                SimConfig::default(),
            );
            while step_checked(&mut sim) == StepOutcome::Progressed {}
            let r = sim.into_result().0;
            assert!(r.deployments > 0, "{kind:?}: nothing was deployed");
            assert!(r.killed_jobs > 0, "{kind:?}: the trace must exercise kills");
            assert_eq!(r.incomplete_jobs, 0, "{kind:?}");
        }
    }

    #[test]
    fn fifo_completes_a_small_trace() {
        let r = run(SchedulerKind::Fifo, 8, 16);
        assert!(r.all_completed, "FIFO run did not complete");
        for job in r.jobs.values() {
            assert!(job.is_completed());
            let jct = job.jct().unwrap();
            assert!(jct > 0.0 && jct < 100_000.0, "{}: jct {jct}", job.spec.name);
            assert!(job.exec_time > 0.0);
            assert!(job.exec_time <= jct + 1e-6);
        }
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn ones_completes_a_small_trace() {
        let r = run(SchedulerKind::Ones, 8, 16);
        assert!(r.all_completed, "ONES run did not complete");
        for job in r.jobs.values() {
            assert!(job.is_completed(), "{} incomplete", job.spec.name);
        }
        assert!(r.deployments > 0);
    }

    #[test]
    fn tiresias_and_optimus_complete() {
        for kind in [SchedulerKind::Tiresias, SchedulerKind::Optimus] {
            let r = run(kind, 6, 16);
            assert!(r.all_completed, "{kind:?} run did not complete");
        }
    }

    #[test]
    fn drl_and_srtf_complete() {
        for kind in [SchedulerKind::Drl, SchedulerKind::SrtfOracle] {
            let r = run(kind, 6, 16);
            assert!(r.all_completed, "{kind:?} run did not complete");
        }
    }

    #[test]
    fn causality_holds_in_the_lifecycle_stream() {
        let (r, events) = run_logged(SchedulerKind::Fifo, 6, 16);
        for job in r.jobs.values() {
            let id = job.spec.id;
            let at = |pred: fn(&BackendEventKind) -> bool| {
                events
                    .iter()
                    .find(|e| e.job == id && pred(&e.kind))
                    .map(|e| e.vt_secs)
                    .unwrap()
            };
            let arrive = at(|k| *k == BackendEventKind::Arrived);
            let start = at(|k| matches!(k, BackendEventKind::Started { .. }));
            let done = at(|k| *k == BackendEventKind::Completed);
            assert!(arrive <= start, "{id}: started before arrival");
            assert!(start <= done, "{id}: completed before start");
            assert_eq!(arrive, job.arrival.as_secs());
            assert_eq!(start, job.first_start.unwrap().as_secs());
            assert_eq!(done, job.completion.unwrap().as_secs());
        }
    }

    #[test]
    fn queueing_plus_exec_equals_jct() {
        let r = run(SchedulerKind::Tiresias, 6, 16);
        for job in r.jobs.values() {
            let jct = job.jct().unwrap();
            let q = job.queueing_time(SimTime::from_secs(r.makespan));
            assert!(
                (q + job.exec_time - jct).abs() < 1e-6,
                "{}: q {q} + exec {} != jct {jct}",
                job.spec.name,
                job.exec_time
            );
        }
    }

    #[test]
    fn checkpoint_mechanism_pays_more_overhead_than_elastic() {
        let tiresias = run(SchedulerKind::Tiresias, 8, 16);
        let ones = run(SchedulerKind::Ones, 8, 16);
        // ONES re-configures far more often yet pays little per job
        // transition; the per-transition overhead must be far smaller.
        let ones_per = ones.total_overhead / ones.transitions.max(1) as f64;
        let tir_per = tiresias.total_overhead / tiresias.transitions.max(1) as f64;
        assert!(
            ones_per < tir_per,
            "elastic per-transition overhead {ones_per} not below checkpoint {tir_per}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run(SchedulerKind::Ones, 5, 16);
        let b = run(SchedulerKind::Ones, 5, 16);
        assert_eq!(a.makespan, b.makespan);
        let jct =
            |r: &SimResult| -> Vec<f64> { r.jobs.values().map(|j| j.jct().unwrap()).collect() };
        assert_eq!(jct(&a), jct(&b));
    }

    #[test]
    fn stepped_run_with_injection_matches_batch() {
        let trace = small_trace(5, 7);
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Ones.build(&spec, &trace, &DetRng::seed(11));
        let batch = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        )
        .run();

        // Same jobs, but fed through inject() before stepping, the way the
        // daemon submits a pre-loaded trace while paused.
        let empty = Trace {
            config: trace.config,
            jobs: Vec::new(),
        };
        let scheduler = SchedulerKind::Ones.build(&spec, &trace, &DetRng::seed(11));
        let mut sim = Simulation::new(
            PerfModel::new(spec),
            &empty,
            scheduler,
            SimConfig::default(),
        );
        for job in &trace.jobs {
            sim.inject(job.clone()).unwrap();
        }
        assert!(sim.inject(trace.jobs[0].clone()).is_err(), "duplicate id");
        while sim.step() == StepOutcome::Progressed {}
        let (stepped, _) = sim.into_result();

        assert_eq!(batch.makespan, stepped.makespan);
        assert_eq!(batch.completed_jobs, stepped.completed_jobs);
        let jct =
            |r: &SimResult| -> Vec<f64> { r.jobs.values().map(|j| j.jct().unwrap()).collect() };
        assert_eq!(jct(&batch), jct(&stepped));
    }

    #[test]
    fn injection_after_idle_resumes_the_run() {
        let trace = small_trace(2, 7);
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(11));
        let empty = Trace {
            config: trace.config,
            jobs: Vec::new(),
        };
        let mut sim = Simulation::new(
            PerfModel::new(spec),
            &empty,
            scheduler,
            SimConfig::default(),
        );
        sim.inject(trace.jobs[0].clone()).unwrap();
        while sim.step() == StepOutcome::Progressed {}
        assert_eq!(sim.step(), StepOutcome::Idle);
        let first_done = sim.now();

        // A job whose arrival is now in the simulated past is clamped
        // forward and still runs.
        let at = sim.inject(trace.jobs[1].clone()).unwrap();
        assert!(at >= first_done.as_secs());
        while sim.step() == StepOutcome::Progressed {}
        let (r, _) = sim.into_result();
        assert_eq!(r.completed_jobs, 2);
    }

    #[test]
    fn outcome_accounting_adds_up_on_clean_runs() {
        let r = run(SchedulerKind::Fifo, 8, 16);
        assert_eq!(r.completed_jobs, 8);
        assert_eq!(r.killed_jobs, 0);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.goodput(), 1.0);
    }

    #[test]
    fn killed_jobs_are_counted_not_averaged() {
        let trace = Trace::generate(TraceConfig {
            num_jobs: 12,
            arrival_rate: 1.0 / 20.0,
            seed: 9,
            kill_fraction: 0.5,
        });
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(11));
        let r = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        )
        .run();
        assert_eq!(r.completed_jobs + r.killed_jobs + r.incomplete_jobs, 12);
        assert!(r.killed_jobs > 0, "seed 9 @ 50% kill produced no kills");
        assert!(r.goodput() < 1.0);
        for j in r.jobs.values().filter(|j| j.killed) {
            assert!(j.completion.is_some(), "killed job has an end time");
        }
    }

    #[test]
    fn truncated_runs_report_incomplete_jobs() {
        let trace = small_trace(8, 7);
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(11));
        let r = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig {
                max_time: 5.0, // before most arrivals, let alone completions
                ..SimConfig::default()
            },
        )
        .run();
        assert!(!r.all_completed);
        assert!(r.incomplete_jobs > 0);
        assert_eq!(r.completed_jobs + r.killed_jobs + r.incomplete_jobs, 8);
        assert!(r.goodput() < 1.0);
    }
}
