//! A small local micro-benchmark harness.
//!
//! Replaces criterion (unavailable in this offline build — see
//! `shims/README.md`) for the `harness = false` observability overhead
//! bench under `benches/`. The model is deliberately simple: a
//! measurement runs the closure in batches sized so one batch takes at
//! least [`BenchOpts::target_sample_nanos`], records per-iteration wall
//! time for [`BenchOpts::samples`] batches after warm-up, and reports
//! min/median/mean nanoseconds.

use std::time::Instant;

/// Batch sizing and sample-count knobs.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Number of measured batches.
    pub samples: u32,
    /// Minimum wall time per batch; iterations per batch are calibrated
    /// so a batch does not finish faster than this.
    pub target_sample_nanos: u64,
    /// Warm-up batches discarded before measurement.
    pub warmup: u32,
}

/// Result of one benchmark: per-iteration nanoseconds for every
/// measured batch.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label (printed and used as a JSON key).
    pub label: String,
    /// Per-iteration nanoseconds, one entry per measured batch.
    pub per_iter_nanos: Vec<f64>,
    /// Iterations per batch (after calibration).
    pub iters_per_sample: u64,
}

impl Measurement {
    /// Arithmetic mean of the per-batch per-iteration times.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        self.per_iter_nanos.iter().sum::<f64>() / self.per_iter_nanos.len() as f64
    }

    /// Fastest batch — the least-noise estimate of the true cost.
    #[must_use]
    pub fn min_ns(&self) -> f64 {
        self.per_iter_nanos
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Median batch.
    #[must_use]
    pub fn median_ns(&self) -> f64 {
        let mut sorted = self.per_iter_nanos.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    /// Prints one aligned report row.
    pub fn print(&self) {
        println!(
            "  {:<44} {:>12} min {:>12} med {:>12} mean  ({} iters x {} samples)",
            self.label,
            fmt_ns(self.min_ns()),
            fmt_ns(self.median_ns()),
            fmt_ns(self.mean_ns()),
            self.iters_per_sample,
            self.per_iter_nanos.len(),
        );
    }
}

/// Formats nanoseconds with an adaptive unit.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Runs `f` repeatedly and measures per-iteration wall time.
///
/// The closure's result is passed through [`std::hint::black_box`] so
/// the computation is not optimised away.
pub fn bench_with<T>(opts: BenchOpts, label: &str, mut f: impl FnMut() -> T) -> Measurement {
    // Calibrate: grow the batch until it exceeds the target duration.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        if elapsed >= opts.target_sample_nanos || iters >= 1 << 30 {
            break;
        }
        // Aim straight for the target with 20% headroom.
        let scale = opts.target_sample_nanos as f64 / elapsed.max(1) as f64;
        iters = ((iters as f64 * scale * 1.2).ceil() as u64).max(iters + 1);
    }

    for _ in 0..opts.warmup {
        let _ = run_batch(&mut f, iters);
    }
    let per_iter_nanos = (0..opts.samples.max(1))
        .map(|_| run_batch(&mut f, iters))
        .collect();
    Measurement {
        label: label.to_string(),
        per_iter_nanos,
        iters_per_sample: iters,
    }
}

fn run_batch<T>(f: &mut impl FnMut() -> T, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_closure() {
        let opts = BenchOpts {
            samples: 3,
            target_sample_nanos: 10_000,
            warmup: 0,
        };
        let m = bench_with(opts, "noop", || 1 + 1);
        assert_eq!(m.per_iter_nanos.len(), 3);
        assert!(m.iters_per_sample >= 1);
        assert!(m.min_ns() >= 0.0);
        assert!(m.min_ns() <= m.mean_ns() + 1e-9);
    }

    #[test]
    fn formats_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("us"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with('s'));
    }
}
