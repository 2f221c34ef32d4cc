//! Order statistics, process memory and output digests.

use gridsim::grid::GridReport;
use gridsim::job::JobOutcome;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a timing sample and the percentile it sits at.
///
/// With at least 40 samples this is the highest order statistic that has
/// ten samples beyond it. A smaller sample has no such percentile above
/// p75, so it reports the nearest-rank p75.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let idx = if n >= 40 {
        n - 11
    } else {
        ((0.75 * n as f64).ceil() as usize).clamp(1, n) - 1
    };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Element-wise mean over repeats of the same steps: each step's host
/// time averaged over the run. (A minimum over the repeats spreads more
/// from run to run, not less: how far below the mean it falls depends on
/// how noisy the host was during that run. Over ten `pool_23k` runs,
/// events per second from per-hour minima spread twice as widely as the
/// median run time.)
pub fn mean_repeat(repeats: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = repeats.first() else {
        return Vec::new();
    };
    let mut sum = vec![0.0; first.len()];
    for r in repeats {
        assert_eq!(r.len(), sum.len(), "repeats run the same steps");
        for (s, &t) in sum.iter_mut().zip(r) {
            *s += t;
        }
    }
    let n = repeats.len() as f64;
    sum.into_iter().map(|s| s / n).collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a 64-bit, fed field by field.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of everything a grid run decided: the aggregate accounting and
/// every job record. Two runs with equal digests simulated the same thing.
pub fn report_digest(r: &GridReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.total_jobs as u64)
        .u64(r.completed as u64)
        .u64(r.dead_lettered as u64)
        .u64(r.unfinished as u64)
        .u64(r.corrupt_completions as u64)
        .u64(r.blacklist_events as u64)
        .f64(r.makespan_seconds.unwrap_or(-1.0))
        .f64(r.useful_cpu_seconds)
        .f64(r.wasted_cpu_seconds)
        .u64(r.total_reissues as u64)
        .u64(r.total_attempts as u64)
        .u64(r.dispatches);
    for (name, n) in &r.completed_by {
        h.bytes(name.as_bytes()).u64(*n as u64);
    }
    for rec in &r.records {
        let outcome = match rec.outcome {
            JobOutcome::Completed => 0,
            JobOutcome::Unfinished => 1,
            JobOutcome::DeadLettered => 2,
        };
        h.u64(rec.spec.id.0)
            .u64(outcome)
            .u64(rec.submitted.as_micros())
            .u64(rec.started.map_or(u64::MAX, |t| t.as_micros()))
            .u64(rec.finished.map_or(u64::MAX, |t| t.as_micros()))
            .bytes(rec.completed_by.as_deref().unwrap_or("-").as_bytes())
            .f64(rec.wasted_cpu_seconds)
            .f64(rec.useful_cpu_seconds)
            .u64(rec.attempts as u64)
            .u64(rec.reissues as u64);
    }
    h.finish()
}

/// Wasted share of all CPU the grid burned, percent.
pub fn wasted_cpu_pct(r: &GridReport) -> f64 {
    100.0 * r.wasted_cpu_seconds / (r.useful_cpu_seconds + r.wasted_cpu_seconds)
}

/// Completed jobs per unit of work handed to a resource.
pub fn useful_dispatch_ratio(r: &GridReport) -> f64 {
    r.completed as f64 / (r.dispatches + r.total_reissues as u64) as f64
}

/// Useful share of all CPU the grid burned.
pub fn useful_cpu_ratio(r: &GridReport) -> f64 {
    r.useful_cpu_seconds / (r.useful_cpu_seconds + r.wasted_cpu_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_beyond_once_there_are_forty() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (t, pct) = tail(&v);
        assert_eq!(t, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        assert_eq!(pct, 80.0);
        let small: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&small), (6.0, 75.0));
    }

    #[test]
    fn mean_repeat_averages_each_step() {
        let r = vec![vec![1.0, 5.0, 3.0], vec![2.0, 4.0, 4.0]];
        assert_eq!(mean_repeat(&r), vec![1.5, 4.5, 3.5]);
        assert!(mean_repeat(&[]).is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
