//! # ones-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (§4):
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `fig02_throughput` | Figure 2 — elastic vs fixed batch throughput |
//! | `fig03_convergence` | Figure 3 — fixed local batch convergence |
//! | `fig13_abrupt_scaling` | Figure 13 — loss spike on abrupt scaling |
//! | `fig14_gradual_scaling` | Figure 14 — gradual scaling stays smooth |
//! | `fig15_jct_comparison` | Figure 15 a–i — JCT/exec/queue comparison |
//! | `fig16_scaling_overhead` | Figure 16 — elastic vs checkpoint overhead |
//! | `fig17_scalability` | Figures 17 & 18 — cluster-size sweep |
//! | `table4_significance` | Table 4 — Wilcoxon significance tests |
//!
//! Each binary accepts `--seed N`, `--jobs N` and (where applicable)
//! `--gpus N`, and prints the same rows/series the paper plots.
//! The one bench under `benches/` holds the observability overhead
//! budget, built on the local [`harness`] module (criterion is
//! unavailable in this offline build — see `shims/README.md`);
//! performance is otherwise measured by `perfbench/`.

pub mod harness;

use std::collections::BTreeMap;

/// Minimal `--key value` argument parser shared by the bench binaries.
///
/// # Example
/// ```
/// let args = ones_bench::Args::parse_from(["--seed", "7", "--jobs", "50"]);
/// assert_eq!(args.get_u64("seed", 42), 7);
/// assert_eq!(args.get_usize("jobs", 120), 50);
/// assert_eq!(args.get_u64("gpus", 64), 64);
/// ```
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process's own arguments.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable form).
    ///
    /// # Panics
    /// Panics on a dangling `--key` without a value or a stray positional
    /// argument — bench invocations should fail loudly, not guess.
    pub fn parse_from<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values = BTreeMap::new();
        let mut iter = args.into_iter().map(Into::into);
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                panic!("unexpected positional argument: {key}");
            };
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("--{name} requires a value"));
            values.insert(name.to_string(), value);
        }
        Args { values }
    }

    /// Integer argument with default.
    ///
    /// # Panics
    /// Panics when the value is present but unparsable.
    #[must_use]
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.values.get(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name}: bad value {v}"))
        })
    }

    /// `usize` argument with default.
    #[must_use]
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get_u64(name, default as u64) as usize
    }

    /// `u32` argument with default.
    #[must_use]
    pub fn get_u32(&self, name: &str, default: u32) -> u32 {
        u32::try_from(self.get_u64(name, u64::from(default))).expect("value out of u32 range")
    }

    /// Float argument with default.
    ///
    /// # Panics
    /// Panics when the value is present but unparsable.
    #[must_use]
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.values.get(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name}: bad value {v}"))
        })
    }

    /// String argument with default.
    #[must_use]
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Comma-separated `u32` list argument with default (e.g.
    /// `--sizes 16,32,1024`).
    ///
    /// # Panics
    /// Panics when any element is unparsable.
    #[must_use]
    pub fn get_u32_list(&self, name: &str, default: &[u32]) -> Vec<u32> {
        self.values.get(name).map_or_else(
            || default.to_vec(),
            |v| {
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("--{name}: bad value {v}"))
                    })
                    .collect()
            },
        )
    }
}

/// Prints a section header, for readable series output.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
}

/// Samples a step-function CDF at the given x-grid.
#[must_use]
pub fn cdf_at_grid(cdf: &[(f64, f64)], grid: &[f64]) -> Vec<f64> {
    grid.iter()
        .map(|&x| {
            cdf.iter()
                .take_while(|(v, _)| *v <= x)
                .last()
                .map_or(0.0, |(_, f)| *f)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults_and_overrides() {
        let a = Args::parse_from(["--gpus", "32"]);
        assert_eq!(a.get_u32("gpus", 64), 32);
        assert_eq!(a.get_u64("seed", 42), 42);
        assert_eq!(a.get_f64("rate", 0.5), 0.5);
    }

    #[test]
    fn args_u32_list() {
        let a = Args::parse_from(["--sizes", "16, 32,1024"]);
        assert_eq!(a.get_u32_list("sizes", &[1]), vec![16, 32, 1024]);
        assert_eq!(a.get_u32_list("other", &[48, 64]), vec![48, 64]);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn dangling_flag_rejected() {
        let _ = Args::parse_from(["--seed"]);
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn positional_rejected() {
        let _ = Args::parse_from(["7"]);
    }

    #[test]
    fn cdf_grid_interpolates_stepwise() {
        let cdf = vec![(10.0, 0.25), (20.0, 0.75), (30.0, 1.0)];
        let at = cdf_at_grid(&cdf, &[5.0, 10.0, 25.0, 100.0]);
        assert_eq!(at, vec![0.0, 0.25, 0.75, 1.0]);
    }
}
