//! Order statistics used by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `0.0` when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n > 0` samples. The
/// product is formed before dividing (and nudged down by a rounding
/// allowance) so that e.g. p90 of 100 samples is rank 90, not 91.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for which tail percentile a timing may be reported at.
#[must_use]
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0.0` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user plus system) this process has used in all its
/// threads, exited ones included, from `/proc/self/stat`; `None` where
/// `/proc` lacks it. Counted in clock ticks of 10 ms.
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let mut fields = stat
        .get(stat.rfind(')')? + 1..)?
        .split_whitespace()
        .skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// What [`calibrate`] takes on the host the baseline was recorded on (a
/// shared 2-vCPU VM at 2.0 GHz): the speed the gated times are scaled to.
pub const CAL_REF_S: f64 = 0.015;

/// Seconds a fixed piece of work, independent of the program under test,
/// takes on this host right now: ordered-map inserts, lookups and removals
/// keyed by a xorshift sequence, branchy and allocation-heavy like the
/// simulator. The fastest of `tries` timings.
///
/// The shared host's speed drifts by up to half over minutes, for the CPU
/// time of a thread as much as for its wall time, so a timing is scaled by
/// this figure, taken beside it, to the reference speed.
#[must_use]
pub fn calibrate(tries: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..tries {
        let t0 = std::time::Instant::now();
        let mut map = std::collections::BTreeMap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 20_000, i);
            let probe = x.rotate_left(7) % 20_000;
            acc = acc.wrapping_add(map.get(&probe).copied().unwrap_or(0));
            if i % 3 == 0 {
                map.remove(&(x.rotate_left(19) % 20_000));
            }
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// `secs` measured while [`calibrate`] took `cal_s`, scaled to the
/// reference speed [`CAL_REF_S`].
#[must_use]
pub fn at_ref_speed(secs: f64, cal_s: f64) -> f64 {
    secs * CAL_REF_S / cal_s
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn host_speed_scaling() {
        // A host twice as slow as the reference takes twice as long for
        // the calibration work and for the timed work alike.
        assert!((at_ref_speed(4.0, 2.0 * CAL_REF_S) - 2.0).abs() < 1e-12);
        assert_eq!(at_ref_speed(1.5, CAL_REF_S), 1.5);
        let c = calibrate(1);
        assert!(c > 0.0 && c.is_finite());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly ten above it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        // p99 needs a thousand samples.
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
    }
}
