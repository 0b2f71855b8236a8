//! Poisson strike scheduling: when, within a simulated window, do neutron
//! hits land on a device of known cross-section?
//!
//! Under constant flux a device of total cross-section `σ` experiences
//! strikes as a Poisson process of rate `σ·φ`. The scheduler samples either
//! the count in a window (for aggregate accounting) or the actual arrival
//! instants (for per-benchmark-run attribution, where it matters whether a
//! strike lands inside a 5-second run or in the reboot gap after it).

use serscale_stats::poisson::{sample_exponential, sample_poisson};
use serscale_stats::SimRng;
use serscale_types::{CrossSection, Flux, SimDuration, SimInstant};

/// A Poisson strike scheduler for one device (or one array) in a beam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrikeScheduler {
    flux: Flux,
}

impl StrikeScheduler {
    /// Creates a scheduler for the given beam flux.
    pub fn new(flux: Flux) -> Self {
        StrikeScheduler { flux }
    }

    /// The beam flux this scheduler samples under.
    pub const fn flux(&self) -> Flux {
        self.flux
    }

    /// The strike rate (events/s) for a device of cross-section `sigma`.
    pub fn rate(&self, sigma: CrossSection) -> f64 {
        sigma.event_rate(self.flux)
    }

    /// The expected number of strikes on `sigma` within `window`.
    pub fn expected_strikes(&self, sigma: CrossSection, window: SimDuration) -> f64 {
        self.rate(sigma) * window.as_secs()
    }

    /// Samples how many strikes land on `sigma` within `window`.
    pub fn sample_count(&self, rng: &mut SimRng, sigma: CrossSection, window: SimDuration) -> u64 {
        sample_poisson(rng, self.expected_strikes(sigma, window))
    }

    /// Samples the arrival instants of strikes on `sigma` within the window
    /// `[start, start + window)`, in increasing order.
    pub fn sample_arrivals(
        &self,
        rng: &mut SimRng,
        sigma: CrossSection,
        start: SimInstant,
        window: SimDuration,
    ) -> Vec<SimInstant> {
        let rate = self.rate(sigma);
        let mut arrivals = Vec::new();
        if rate <= 0.0 {
            return arrivals;
        }
        let mut t = 0.0;
        loop {
            t += sample_exponential(rng, rate);
            if t >= window.as_secs() {
                break;
            }
            arrivals.push(start + SimDuration::from_secs(t));
        }
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> StrikeScheduler {
        StrikeScheduler::new(Flux::per_cm2_s(1.5e6))
    }

    #[test]
    fn rate_matches_sigma_times_flux() {
        let s = scheduler();
        let sigma = CrossSection::cm2(1.0e-8);
        assert!((s.rate(sigma) - 1.5e-2).abs() < 1e-12);
        assert!((s.expected_strikes(sigma, SimDuration::from_minutes(1.0)) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn paper_strike_interval() {
        // §3.3: 10 MB SRAM at 1e-15 cm²/bit under the beam — about one raw
        // strike every few seconds.
        let s = StrikeScheduler::new(Flux::per_cm2_s(2.5e6));
        let sigma = CrossSection::cm2(10.0e6 * 8.0 * 1.0e-15);
        let interval = 1.0 / s.rate(sigma);
        assert!((interval - 4.8).abs() < 0.5, "interval = {interval}");
    }

    #[test]
    fn sampled_count_tracks_expectation() {
        let s = scheduler();
        let sigma = CrossSection::cm2(1.0e-8);
        let window = SimDuration::from_hours(10.0);
        let expected = s.expected_strikes(sigma, window);
        let mut rng = SimRng::seed_from(21);
        let n = 500;
        let mean = (0..n)
            .map(|_| s.sample_count(&mut rng, sigma, window) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "{mean} vs {expected}"
        );
    }

    #[test]
    fn arrivals_sorted_and_in_window() {
        let s = scheduler();
        let sigma = CrossSection::cm2(1.0e-6);
        let start = SimInstant::from_secs(100.0);
        let window = SimDuration::from_secs(50.0);
        let mut rng = SimRng::seed_from(22);
        let arrivals = s.sample_arrivals(&mut rng, sigma, start, window);
        assert!(!arrivals.is_empty());
        for pair in arrivals.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for t in &arrivals {
            assert!(t.as_secs() >= 100.0 && t.as_secs() < 150.0);
        }
    }

    #[test]
    fn arrival_count_consistent_with_poisson() {
        let s = scheduler();
        let sigma = CrossSection::cm2(1.0e-7);
        let window = SimDuration::from_hours(1.0);
        let expected = s.expected_strikes(sigma, window);
        let mut rng = SimRng::seed_from(23);
        let n = 300;
        let mean = (0..n)
            .map(|_| {
                s.sample_arrivals(&mut rng, sigma, SimInstant::EPOCH, window)
                    .len() as f64
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "{mean} vs {expected}"
        );
    }

    #[test]
    fn zero_cross_section_never_strikes() {
        let s = scheduler();
        let mut rng = SimRng::seed_from(24);
        assert_eq!(
            s.sample_count(&mut rng, CrossSection::ZERO, SimDuration::from_hours(100.0)),
            0
        );
        assert!(s
            .sample_arrivals(
                &mut rng,
                CrossSection::ZERO,
                SimInstant::EPOCH,
                SimDuration::from_hours(100.0)
            )
            .is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let s = scheduler();
        let sigma = CrossSection::cm2(1.0e-7);
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            s.sample_arrivals(
                &mut rng,
                sigma,
                SimInstant::EPOCH,
                SimDuration::from_hours(1.0),
            )
        };
        assert_eq!(run(31), run(31));
    }
}
