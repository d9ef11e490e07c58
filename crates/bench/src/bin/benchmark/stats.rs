//! Sample statistics: medians, the percentile rule, named sample sets and
//! open-loop due-time accounting.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles a timing may report, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` in (0, 1), refused (`None`) unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it: with fewer, the value is set by
/// a handful of outliers and does not repeat between runs.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + TAIL_SAMPLES).then(|| sorted(samples)[rank - 1])
}

/// The highest percentile the sample supports, as `(p, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// Named sample sets, filled while a workload runs.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.0.iter().map(|(k, v)| (*k, v.as_slice()))
    }
}

/// The schedule of an open-loop load generator: operation `k` is due at
/// `k / rate` whether or not earlier operations have completed, and its
/// latency counts from that due time, so the wait a stall imposes on the
/// operations behind it is charged to them.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    interval: Duration,
}

impl OpenLoop {
    pub fn per_second(rate: u32) -> Self {
        OpenLoop {
            interval: Duration::from_secs(1) / rate.max(1),
        }
    }

    /// Offset from the schedule's start at which operation `k` is due.
    pub fn due(&self, k: u32) -> Duration {
        self.interval * k
    }

    /// Latency of operation `k` that completed at offset `done`.
    pub fn latency(&self, k: u32, done: Duration) -> Duration {
        done.saturating_sub(self.due(k))
    }

    /// How late the generator sent operation `k` (sent at offset `sent`).
    pub fn lateness(&self, k: u32, sent: Duration) -> Duration {
        sent.saturating_sub(self.due(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, exactly 10 samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // One sample fewer and the same percentile is refused.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p99.9 of 1000 has one sample beyond: refused.
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_tail_falls_back_to_what_the_sample_supports() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p99 leaves 2 beyond, p95 leaves exactly 10.
        assert_eq!(highest_tail(&v), Some((0.95, 190.0)));
        assert_eq!(highest_tail(&v[..20]), None);
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(highest_tail(&big), Some((0.999, 19_980.0)));
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_operations_behind_it() {
        let sched = OpenLoop::per_second(250); // one op every 4 ms
        assert_eq!(sched.due(3), Duration::from_millis(12));
        // Op 0 stalls for 10 ms. Ops 1 and 2 were due at 4 and 8 ms but can
        // only be sent at 10 ms and each take 1 ms.
        assert_eq!(
            sched.latency(0, Duration::from_millis(10)),
            Duration::from_millis(10)
        );
        assert_eq!(
            sched.lateness(1, Duration::from_millis(10)),
            Duration::from_millis(6)
        );
        assert_eq!(
            sched.latency(1, Duration::from_millis(11)),
            Duration::from_millis(7)
        );
        assert_eq!(
            sched.latency(2, Duration::from_millis(12)),
            Duration::from_millis(4)
        );
        // An operation sent on time is not late.
        assert_eq!(sched.lateness(5, Duration::from_millis(20)), Duration::ZERO);
    }
}
