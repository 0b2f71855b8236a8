//! Order statistics and open-loop load accounting for the harness.
//!
//! Latency percentiles use the nearest-rank rule, and a percentile is
//! reported only when at least [`TAIL_SAMPLES`] samples lie beyond it. A
//! failed or refused request is an infinite latency: it sorts last and
//! misses every limit.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts samples ascending; infinities (failed operations) sort last.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The nearest-rank `q` quantile of an ascending slice, or `None` when the
/// slice is empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// The `q` quantile when at least [`TAIL_SAMPLES`] samples lie beyond it.
pub fn reportable_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    quantile(sorted, q).filter(|_| beyond(sorted.len(), q) >= TAIL_SAMPLES)
}

/// The median of per-iteration values (mean of the middle pair for an even
/// count), or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An open-loop send schedule: request `k` is due at `start + k·interval`,
/// whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.interval * k
    }
}

/// One open-loop request: when it was due, when the generator sent it,
/// and when its response completed (`None` if it failed).
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When the schedule wanted the request sent.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
    /// When a good response completed; `None` for a failure.
    pub done: Option<Instant>,
}

impl Sent {
    /// Latency in ms counted from the due time, so a stall also charges
    /// the requests queued behind it; infinite for a failure.
    pub fn latency_ms(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |done| {
            ms(done.saturating_duration_since(self.due))
        })
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(reportable_quantile(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(reportable_quantile(&samples, 0.99), Some(990.0));
        assert_eq!(reportable_quantile(&samples, 0.5), Some(500.0));
    }

    #[test]
    fn a_failure_is_an_infinite_latency() {
        let t0 = Instant::now();
        let ok = Sent {
            due: t0,
            sent: t0,
            done: Some(t0 + Duration::from_millis(2)),
        };
        let failed = Sent { done: None, ..ok };
        assert!((ok.latency_ms() - 2.0).abs() < 1e-9);
        assert_eq!(failed.latency_ms(), f64::INFINITY);
        // One failure in twenty puts the p99 (and only the tail) at infinity.
        let mut samples = vec![ok.latency_ms(); 19];
        samples.push(failed.latency_ms());
        let samples = sorted(samples);
        assert_eq!(quantile(&samples, 0.99), Some(f64::INFINITY));
        assert!((quantile(&samples, 0.5).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_separate() {
        let t0 = Instant::now();
        let schedule = Schedule::new(t0, 100.0);
        assert_eq!(schedule.due(3), t0 + Duration::from_millis(30));
        // Sent 5 ms late, answered 1 ms after sending: 6 ms of latency.
        let due = schedule.due(2);
        let sent = due + Duration::from_millis(5);
        let request = Sent {
            due,
            sent,
            done: Some(sent + Duration::from_millis(1)),
        };
        assert!((request.late_ms() - 5.0).abs() < 1e-9);
        assert!((request.latency_ms() - 6.0).abs() < 1e-9);
        // A request sent early (never happens, but must not underflow).
        let early = Sent {
            due,
            sent: t0,
            done: Some(t0),
        };
        assert_eq!(early.late_ms(), 0.0);
        assert_eq!(early.latency_ms(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
