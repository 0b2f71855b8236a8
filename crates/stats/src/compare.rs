//! Two-sample comparison tests for count data.
//!
//! The paper plots 95 % error bars but never asks the formal question "is
//! the 920 mV rate *significantly* higher than the 980 mV rate?". With a
//! simulator the question is cheap to answer properly, and any downstream
//! user comparing their own sessions needs it. The workhorse is the
//! classic conditional (binomial) test for the ratio of two Poisson
//! rates: given `n₁` events in exposure `t₁` and `n₂` in `t₂`, under
//! `H₀: λ₁ = λ₂` the count `n₁` is `Binomial(n₁+n₂, t₁/(t₁+t₂))`.

use serscale_types::SimDuration;

use crate::ci::normal_cdf;

/// The outcome of a two-sample Poisson rate comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateComparison {
    /// The observed rate ratio `(n₁/t₁) / (n₂/t₂)`.
    pub rate_ratio: f64,
    /// Two-sided p-value under `H₀: equal rates`.
    pub p_value: f64,
}

impl RateComparison {
    /// Whether the difference is significant at the paper's 95 % level.
    pub fn significant_at_95(&self) -> bool {
        self.p_value < 0.05
    }
}

/// The conditional test for two Poisson rates (see module docs), with a
/// continuity-corrected normal approximation to the binomial — accurate to
/// a few 10⁻³ in p for the count regimes of beam sessions (tens to
/// thousands of events).
///
/// # Panics
///
/// Panics if either exposure is zero or both counts are zero (the ratio
/// and the test are undefined).
pub fn poisson_rate_test(n1: u64, t1: SimDuration, n2: u64, t2: SimDuration) -> RateComparison {
    assert!(!t1.is_zero() && !t2.is_zero(), "exposures must be positive");
    assert!(n1 + n2 > 0, "no events at all: nothing to compare");
    let r1 = n1 as f64 / t1.as_secs();
    let r2 = n2 as f64 / t2.as_secs();
    let rate_ratio = if r2 > 0.0 { r1 / r2 } else { f64::INFINITY };

    let n = (n1 + n2) as f64;
    let p0 = t1.as_secs() / (t1.as_secs() + t2.as_secs());
    let mean = n * p0;
    let sd = (n * p0 * (1.0 - p0)).sqrt();
    if sd == 0.0 {
        // Degenerate exposure split; no discriminating power.
        return RateComparison {
            rate_ratio,
            p_value: 1.0,
        };
    }
    // Two-sided, continuity corrected.
    let x = n1 as f64;
    let z = (x - mean).abs() - 0.5;
    let z = z.max(0.0) / sd;
    let p_value = (2.0 * (1.0 - normal_cdf(z))).clamp(0.0, 1.0);
    RateComparison {
        rate_ratio,
        p_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: f64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    #[test]
    fn equal_rates_are_not_significant() {
        let c = poisson_rate_test(100, mins(100.0), 100, mins(100.0));
        assert!((c.rate_ratio - 1.0).abs() < 1e-12);
        assert!(c.p_value > 0.9, "p = {}", c.p_value);
        assert!(!c.significant_at_95());
    }

    #[test]
    fn clearly_different_rates_are_significant() {
        let c = poisson_rate_test(300, mins(100.0), 100, mins(100.0));
        assert!((c.rate_ratio - 3.0).abs() < 1e-12);
        assert!(c.p_value < 1e-6, "p = {}", c.p_value);
        assert!(c.significant_at_95());
    }

    #[test]
    fn exposure_normalization_matters() {
        // Same counts, 3× exposure difference: rates differ 3×.
        let c = poisson_rate_test(100, mins(100.0), 100, mins(300.0));
        assert!((c.rate_ratio - 3.0).abs() < 1e-12);
        assert!(c.significant_at_95());
    }

    #[test]
    fn table2_upset_counts_sessions_1_vs_4_significant() {
        // 1669 upsets / 1651 min vs 195 / 165 min: 1.011 vs 1.182 per
        // minute. Are the paper's endpoints statistically distinct? Yes.
        let c = poisson_rate_test(1669, mins(1651.0), 195, mins(165.0));
        assert!((c.rate_ratio - 1.011 / 1.182).abs() < 0.01);
        assert!(c.significant_at_95(), "p = {}", c.p_value);
    }

    #[test]
    fn table2_sessions_1_vs_2_borderline() {
        // 1.011 vs 1.077 per minute with ~1700 counts each: a ~6.5%
        // difference at this exposure is right at the detection edge.
        let c = poisson_rate_test(1669, mins(1651.0), 1743, mins(1618.0));
        assert!(c.p_value < 0.15, "p = {}", c.p_value);
        assert!(c.p_value > 0.001, "p = {}", c.p_value);
    }

    #[test]
    fn small_counts_are_inconclusive() {
        // Session 4's 13 error events cannot distinguish a 1.4× ratio.
        let c = poisson_rate_test(13, mins(165.0), 95, mins(1651.0));
        assert!(!c.significant_at_95(), "p = {}", c.p_value);
    }

    #[test]
    fn one_sided_zero_count_works() {
        let c = poisson_rate_test(0, mins(100.0), 20, mins(100.0));
        assert_eq!(c.rate_ratio, 0.0);
        assert!(c.significant_at_95());
        let c = poisson_rate_test(20, mins(100.0), 0, mins(100.0));
        assert!(c.rate_ratio.is_infinite());
    }

    #[test]
    fn symmetry() {
        let a = poisson_rate_test(150, mins(100.0), 100, mins(100.0));
        let b = poisson_rate_test(100, mins(100.0), 150, mins(100.0));
        assert!((a.p_value - b.p_value).abs() < 1e-12);
        assert!((a.rate_ratio * b.rate_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nothing to compare")]
    fn all_zero_rejected() {
        let _ = poisson_rate_test(0, mins(1.0), 0, mins(1.0));
    }
}
