//! Per-job metric extraction and Figure 15 aggregates.

use crate::engine::SimResult;
use ones_simcore::SimTime;
use ones_stats::{ecdf, BoxPlot, Summary};
use serde::{Deserialize, Serialize};

/// An empirical CDF as `(x, F(x))` points.
pub type Cdf = Vec<(f64, f64)>;

/// Why a [`SimResult`] could not be turned into [`JobMetrics`]
/// ([`JobMetrics::try_from_result`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromResultError {
    /// The run was truncated (stall or time/event cap): metrics over the
    /// incomplete job set would silently bias every average.
    Incomplete {
        /// Jobs that had not completed when the run stopped.
        unfinished: usize,
    },
}

impl std::fmt::Display for FromResultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FromResultError::Incomplete { unfinished } => {
                write!(f, "run incomplete: {unfinished} job(s) unfinished")
            }
        }
    }
}

impl std::error::Error for FromResultError {}

/// The three per-job metrics the paper reports (Figure 15's columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Job completion times, seconds, in job-id order.
    pub jct: Vec<f64>,
    /// Execution (running) times, seconds.
    pub exec: Vec<f64>,
    /// Queueing times, seconds.
    pub queue: Vec<f64>,
}

impl JobMetrics {
    /// Extracts metrics from a finished run.
    ///
    /// # Panics
    /// Panics if any job did not complete — metrics of a truncated run
    /// would silently bias every average. Use
    /// [`JobMetrics::try_from_result`] to inspect partial runs.
    #[must_use]
    pub fn from_result(result: &SimResult) -> Self {
        Self::try_from_result(result).expect("metrics requested for an incomplete run")
    }

    /// Fallible [`JobMetrics::from_result`]: returns
    /// [`FromResultError::Incomplete`] instead of panicking when the run
    /// was truncated, so failed runs (whose traces are often exactly the
    /// ones worth inspecting) still surface a diagnosable error.
    pub fn try_from_result(result: &SimResult) -> Result<Self, FromResultError> {
        if !result.all_completed {
            let unfinished = result.jobs.values().filter(|j| !j.is_completed()).count();
            // A run can also stop "incomplete" with jobs still pending
            // arrival; count at least one so the error is never empty.
            return Err(FromResultError::Incomplete {
                unfinished: unfinished.max(1),
            });
        }
        Ok(Self::completed_only(result))
    }

    /// Total aggregation for dirty runs: metrics over *normally completed*
    /// jobs only. Killed jobs (no meaningful JCT) and jobs the run left
    /// unfinished (stall, time/event cap — routine in replayed traces full
    /// of stragglers) are skipped instead of panicking; their counts live
    /// in [`SimResult::killed_jobs`] / [`SimResult::incomplete_jobs`], so
    /// nothing is silently dropped.
    #[must_use]
    pub fn completed_only(result: &SimResult) -> Self {
        let horizon = SimTime::from_secs(result.makespan);
        let mut jct = Vec::with_capacity(result.jobs.len());
        let mut exec = Vec::with_capacity(result.jobs.len());
        let mut queue = Vec::with_capacity(result.jobs.len());
        for job in result.jobs.values() {
            if job.killed {
                continue; // abnormal endings have no meaningful JCT
            }
            let Some(completion) = job.completion else {
                continue; // truncated run left this job unfinished
            };
            jct.push(completion - job.arrival);
            exec.push(job.exec_time);
            queue.push(job.queueing_time(horizon));
        }
        JobMetrics { jct, exec, queue }
    }

    /// Mean JCT (Figure 15a).
    #[must_use]
    pub fn mean_jct(&self) -> f64 {
        ones_stats::desc::mean(&self.jct)
    }

    /// Mean execution time (Figure 15b).
    #[must_use]
    pub fn mean_exec(&self) -> f64 {
        ones_stats::desc::mean(&self.exec)
    }

    /// Mean queueing time (Figure 15c).
    #[must_use]
    pub fn mean_queue(&self) -> f64 {
        ones_stats::desc::mean(&self.queue)
    }

    /// Box-plot statistics for the three metrics (Figure 15d–f).
    #[must_use]
    pub fn boxplots(&self) -> (BoxPlot, BoxPlot, BoxPlot) {
        (
            BoxPlot::of(&self.jct),
            BoxPlot::of(&self.exec),
            BoxPlot::of(&self.queue),
        )
    }

    /// Cumulative-frequency curves (Figure 15g–i).
    #[must_use]
    pub fn cdfs(&self) -> (Cdf, Cdf, Cdf) {
        (ecdf(&self.jct), ecdf(&self.exec), ecdf(&self.queue))
    }

    /// Full summary of the JCT distribution.
    #[must_use]
    pub fn jct_summary(&self) -> Summary {
        Summary::of(&self.jct)
    }

    /// Fraction of jobs completed within `secs` (§4.2 quotes 86 % within
    /// 200 s for ONES).
    #[must_use]
    pub fn fraction_within(&self, secs: f64) -> f64 {
        ones_stats::desc::fraction_leq(&self.jct, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::experiment::SchedulerKind;
    use ones_cluster::ClusterSpec;
    use ones_dlperf::PerfModel;
    use ones_simcore::DetRng;
    use ones_workload::{Trace, TraceConfig};

    fn result() -> crate::engine::SimResult {
        let trace = Trace::generate(TraceConfig {
            num_jobs: 6,
            arrival_rate: 1.0 / 20.0,
            seed: 5,
            kill_fraction: 0.0,
        });
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(1));
        Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig::default(),
        )
        .run()
    }

    #[test]
    fn metrics_are_consistent() {
        let r = result();
        let m = JobMetrics::from_result(&r);
        assert_eq!(m.jct.len(), 6);
        for i in 0..6 {
            assert!((m.exec[i] + m.queue[i] - m.jct[i]).abs() < 1e-6);
            assert!(m.queue[i] >= -1e-9);
        }
        assert!(m.mean_jct() >= m.mean_exec());
        assert!(m.mean_jct() > 0.0);
    }

    #[test]
    fn truncated_run_yields_incomplete_error() {
        let trace = Trace::generate(TraceConfig {
            num_jobs: 6,
            arrival_rate: 1.0 / 20.0,
            seed: 5,
            kill_fraction: 0.0,
        });
        let spec = ClusterSpec::longhorn_subset(16);
        let scheduler = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(1));
        let r = Simulation::new(
            PerfModel::new(spec),
            &trace,
            scheduler,
            SimConfig {
                max_time: 10.0, // far before the last completion
                ..SimConfig::default()
            },
        )
        .run();
        assert!(!r.all_completed);
        let err = JobMetrics::try_from_result(&r).unwrap_err();
        let FromResultError::Incomplete { unfinished } = &err;
        assert!(*unfinished > 0);
        assert!(err.to_string().contains("incomplete"));
    }

    #[test]
    fn complete_run_try_matches_panicking_constructor() {
        let r = result();
        assert_eq!(
            JobMetrics::try_from_result(&r).unwrap(),
            JobMetrics::from_result(&r)
        );
    }

    #[test]
    fn aggregates_do_not_panic_and_are_ordered() {
        let r = result();
        let m = JobMetrics::from_result(&r);
        let (bj, _, _) = m.boxplots();
        assert!(bj.q1 <= bj.median && bj.median <= bj.q3);
        let (cj, ce, cq) = m.cdfs();
        assert_eq!(cj.last().unwrap().1, 1.0);
        assert_eq!(ce.last().unwrap().1, 1.0);
        assert_eq!(cq.last().unwrap().1, 1.0);
        let s = m.jct_summary();
        assert_eq!(s.n, 6);
        let frac = m.fraction_within(s.max + 1.0);
        assert_eq!(frac, 1.0);
    }
}
