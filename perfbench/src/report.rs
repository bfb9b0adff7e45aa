//! What one benchmark run found: correctness verdict, request counts and
//! named metrics with units.

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// Results of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Failed correctness checks, by message.
    pub failures: Vec<String>,
    /// Operations attempted (jobs for the simulator, requests for the
    /// daemon).
    pub attempted: u64,
    /// Operations that failed (unfinished jobs, non-2xx or errored
    /// requests).
    pub failed: u64,
    /// End-to-end metrics (untraced measurement).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced measurement).
    pub layers: Vec<Metric>,
    /// Further figures printed for the reader but not gated.
    pub info: Vec<Metric>,
}

impl Report {
    /// Records a correctness check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, message: impl Into<String>) {
        if !ok {
            self.failures.push(message.into());
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Records an ungated figure.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    /// Looks a metric up in any of the three lists.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .chain(&self.info)
            .find(|m| m.name == name)
    }
}
