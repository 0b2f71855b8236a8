//! Event-rate and cross-section estimates with 95 % error bars — the
//! quantities every figure in the paper plots.

use serscale_types::{CrossSection, Fit, Fluence, Flux, SimDuration};

use crate::ci::poisson_ci;

/// The confidence level all serscale estimates are quoted at, matching the
/// paper (§3.5).
pub const CONFIDENCE_LEVEL: f64 = 0.95;

/// An event rate estimated from a Poisson count over an exposure time,
/// with an exact 95 % confidence interval.
///
/// ```
/// use serscale_stats::RateEstimate;
/// use serscale_types::SimDuration;
///
/// // Session 3 of Table 2: 141 SDC/crash events over 453 minutes.
/// let est = RateEstimate::from_count(141, SimDuration::from_minutes(453.0));
/// assert!((est.per_minute() - 0.311).abs() < 1e-3);
/// assert!(est.lower_per_minute() < est.per_minute());
/// assert!(est.upper_per_minute() > est.per_minute());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    count: u64,
    exposure: SimDuration,
    ci_lower_count: f64,
    ci_upper_count: f64,
}

impl RateEstimate {
    /// Builds an estimate from an observed event count and exposure time.
    ///
    /// # Panics
    ///
    /// Panics if `exposure` is zero.
    pub fn from_count(count: u64, exposure: SimDuration) -> Self {
        assert!(!exposure.is_zero(), "rate undefined over zero exposure");
        let (lo, hi) = poisson_ci(count, CONFIDENCE_LEVEL);
        RateEstimate {
            count,
            exposure,
            ci_lower_count: lo,
            ci_upper_count: hi,
        }
    }

    /// The observed event count.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// The exposure time.
    pub const fn exposure(&self) -> SimDuration {
        self.exposure
    }

    /// The point estimate in events per minute (the unit of Figures 5–7).
    pub fn per_minute(&self) -> f64 {
        self.count as f64 / self.exposure.as_minutes()
    }

    /// The point estimate in events per second.
    pub fn per_second(&self) -> f64 {
        self.count as f64 / self.exposure.as_secs()
    }

    /// The 95 % lower bound in events per minute.
    pub fn lower_per_minute(&self) -> f64 {
        self.ci_lower_count / self.exposure.as_minutes()
    }

    /// The 95 % upper bound in events per minute.
    pub fn upper_per_minute(&self) -> f64 {
        self.ci_upper_count / self.exposure.as_minutes()
    }

    /// The relative half-width of the interval — a statistical-significance
    /// figure of merit (≈ 0.2 at the paper's 100-event rule).
    pub fn relative_uncertainty(&self) -> f64 {
        if self.count == 0 {
            f64::INFINITY
        } else {
            (self.ci_upper_count - self.ci_lower_count) / (2.0 * self.count as f64)
        }
    }
}

/// A dynamic cross-section estimated from an event count over a fluence
/// (Eq. 1), carrying its 95 % interval, convertible to a FIT estimate
/// (Eq. 2).
///
/// ```
/// use serscale_stats::CrossSectionEstimate;
/// use serscale_types::{Fluence, NYC_SEA_LEVEL_FLUX};
///
/// // 130 SDCs over the 920 mV session's 4.08e10 n/cm².
/// let est = CrossSectionEstimate::from_events(130, Fluence::per_cm2(4.08e10));
/// let fit = est.fit_at(NYC_SEA_LEVEL_FLUX);
/// assert!((fit.point.get() - 41.4).abs() < 0.5); // Fig. 11's 41.43 SDC FIT
/// assert!(fit.lower.get() < fit.point.get() && fit.point.get() < fit.upper.get());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossSectionEstimate {
    events: u64,
    fluence: Fluence,
    point: CrossSection,
    lower: CrossSection,
    upper: CrossSection,
}

impl CrossSectionEstimate {
    /// Builds an estimate from an observed event count and accumulated
    /// fluence.
    ///
    /// # Panics
    ///
    /// Panics if `fluence` is zero.
    pub fn from_events(events: u64, fluence: Fluence) -> Self {
        let (lo, hi) = poisson_ci(events, CONFIDENCE_LEVEL);
        let per = |c: f64| CrossSection::cm2(c / fluence.as_per_cm2());
        CrossSectionEstimate {
            events,
            fluence,
            point: CrossSection::from_events(events as f64, fluence),
            lower: per(lo),
            upper: per(hi),
        }
    }

    /// The observed event count.
    pub const fn events(&self) -> u64 {
        self.events
    }

    /// The fluence over which the events accumulated.
    pub const fn fluence(&self) -> Fluence {
        self.fluence
    }

    /// The point estimate.
    pub const fn point(&self) -> CrossSection {
        self.point
    }

    /// The 95 % lower bound.
    pub const fn lower(&self) -> CrossSection {
        self.lower
    }

    /// The 95 % upper bound.
    pub const fn upper(&self) -> CrossSection {
        self.upper
    }

    /// Converts the estimate to a FIT rate in the given natural environment
    /// (Eq. 2), propagating the interval.
    pub fn fit_at(&self, flux: Flux) -> FitEstimate {
        FitEstimate {
            point: self.point.fit_at(flux),
            lower: self.lower.fit_at(flux),
            upper: self.upper.fit_at(flux),
        }
    }
}

/// A FIT rate with a 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitEstimate {
    /// The point estimate.
    pub point: Fit,
    /// The 95 % lower bound.
    pub lower: Fit,
    /// The 95 % upper bound.
    pub upper: Fit,
}

impl FitEstimate {
    /// A zero FIT estimate (no events observed ⇒ point estimate zero, upper
    /// bound still positive when built from an interval).
    pub const ZERO: FitEstimate = FitEstimate {
        point: Fit::ZERO,
        lower: Fit::ZERO,
        upper: Fit::ZERO,
    };

    /// Adds two independent FIT estimates (intervals added conservatively).
    pub fn saturating_add(self, other: FitEstimate) -> FitEstimate {
        FitEstimate {
            point: self.point + other.point,
            lower: self.lower + other.lower,
            upper: self.upper + other.upper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_types::NYC_SEA_LEVEL_FLUX;

    #[test]
    fn table2_rates_match() {
        // Table 2 rows 7 and 9 (rate per min).
        let cases: [(u64, f64, f64); 4] = [
            (95, 1651.0, 5.75e-2),
            (97, 1618.0, 5.99e-2),
            (141, 453.0, 3.11e-1),
            (13, 165.0, 7.87e-2),
        ];
        for (count, mins, expected) in cases {
            let est = RateEstimate::from_count(count, SimDuration::from_minutes(mins));
            assert!(
                (est.per_minute() - expected).abs() / expected < 0.01,
                "count={count}: {} vs {expected}",
                est.per_minute()
            );
        }
    }

    #[test]
    fn memory_upset_rates_match_table2() {
        let cases: [(u64, f64, f64); 4] = [
            (1669, 1651.0, 1.011),
            (1743, 1618.0, 1.077),
            (506, 453.0, 1.117),
            (195, 165.0, 1.182),
        ];
        for (count, mins, expected) in cases {
            let est = RateEstimate::from_count(count, SimDuration::from_minutes(mins));
            assert!(
                (est.per_minute() - expected).abs() < 0.005,
                "count={count}: {}",
                est.per_minute()
            );
        }
    }

    #[test]
    fn interval_brackets_point() {
        let est = RateEstimate::from_count(100, SimDuration::from_hours(1.0));
        assert!(est.lower_per_minute() < est.per_minute());
        assert!(est.per_minute() < est.upper_per_minute());
        assert!((est.relative_uncertainty() - 0.2).abs() < 0.02);
    }

    #[test]
    fn zero_count_rate() {
        let est = RateEstimate::from_count(0, SimDuration::from_minutes(10.0));
        assert_eq!(est.per_minute(), 0.0);
        assert_eq!(est.lower_per_minute(), 0.0);
        assert!(est.upper_per_minute() > 0.0);
        assert!(est.relative_uncertainty().is_infinite());
    }

    #[test]
    fn cross_section_estimate_total_fit_session1() {
        // 95 error events / 1.49e11 n/cm² → total FIT ≈ 8.3 (Fig. 11).
        let est = CrossSectionEstimate::from_events(95, Fluence::per_cm2(1.49e11));
        let fit = est.fit_at(NYC_SEA_LEVEL_FLUX);
        assert!((fit.point.get() - 8.3).abs() < 0.1, "fit = {}", fit.point);
        assert!(fit.lower.get() > 6.0 && fit.upper.get() < 11.0);
    }

    #[test]
    fn fit_estimates_add() {
        let a = CrossSectionEstimate::from_events(10, Fluence::per_cm2(1.0e10))
            .fit_at(NYC_SEA_LEVEL_FLUX);
        let b = CrossSectionEstimate::from_events(20, Fluence::per_cm2(1.0e10))
            .fit_at(NYC_SEA_LEVEL_FLUX);
        let sum = a.saturating_add(b);
        assert!((sum.point.get() - (a.point.get() + b.point.get())).abs() < 1e-9);
        assert!(sum.upper.get() > sum.point.get());
    }

    #[test]
    #[should_panic(expected = "zero exposure")]
    fn rate_rejects_zero_exposure() {
        let _ = RateEstimate::from_count(1, SimDuration::ZERO);
    }
}
