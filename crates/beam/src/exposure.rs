//! The fluence ledger: exposure bookkeeping for a test campaign.
//!
//! Table 2 of the paper reports, per session, the total test duration, the
//! accumulated fluence, and the "years of NYC equivalent radiation" that
//! fluence represents. [`FluenceLedger`] is the component that keeps those
//! books: the campaign driver feeds it `(flux, duration)` segments — one per
//! benchmark run, plus reboot gaps if the beam stays on — and reads back
//! totals and stopping-rule predicates.

use serscale_types::{Fluence, Flux, SimDuration, NYC_SEA_LEVEL_FLUX};

/// One contiguous exposure segment at constant flux.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureSegment {
    /// The >10 MeV flux during the segment.
    pub flux: Flux,
    /// Segment duration.
    pub duration: SimDuration,
}

impl ExposureSegment {
    /// The fluence this segment contributes.
    pub fn fluence(&self) -> Fluence {
        self.flux * self.duration
    }
}

/// Accumulates exposure segments into campaign totals.
///
/// ```
/// use serscale_beam::FluenceLedger;
/// use serscale_types::{Flux, SimDuration};
///
/// let mut ledger = FluenceLedger::new();
/// // Session 1 of Table 2: 1651 minutes at the 1.5e6 n/cm²/s working flux.
/// ledger.record(Flux::per_cm2_s(1.5e6), SimDuration::from_minutes(1651.0));
/// assert!((ledger.total_fluence().as_per_cm2() - 1.49e11).abs() / 1.49e11 < 0.01);
/// assert!(ledger.reached_significance());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FluenceLedger {
    segments: Vec<ExposureSegment>,
    total_fluence: Fluence,
    total_duration: SimDuration,
}

impl FluenceLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one exposure segment.
    pub fn record(&mut self, flux: Flux, duration: SimDuration) {
        let segment = ExposureSegment { flux, duration };
        self.total_fluence += segment.fluence();
        self.total_duration += duration;
        self.segments.push(segment);
    }

    /// The accumulated fluence.
    pub fn total_fluence(&self) -> Fluence {
        self.total_fluence
    }

    /// The accumulated beam-on time.
    pub fn total_duration(&self) -> SimDuration {
        self.total_duration
    }

    /// The number of recorded segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Iterates over the recorded segments in order.
    pub fn segments(&self) -> impl Iterator<Item = &ExposureSegment> {
        self.segments.iter()
    }

    /// Whether the ESCC-25100 fluence significance threshold
    /// (10¹¹ n/cm²) has been reached — one of the two session stopping
    /// rules of §3.5.
    pub fn reached_significance(&self) -> bool {
        self.total_fluence >= Fluence::SIGNIFICANCE_THRESHOLD
    }

    /// The calendar time a device at NYC sea level would need to accumulate
    /// this ledger's fluence (Table 2, row 5), in years.
    pub fn nyc_equivalent_years(&self) -> f64 {
        self.total_fluence
            .natural_equivalent(NYC_SEA_LEVEL_FLUX)
            .as_years()
    }

    /// The mean flux over the recorded exposure (fluence / duration).
    ///
    /// # Panics
    ///
    /// Panics if no time has been recorded.
    pub fn mean_flux(&self) -> Flux {
        assert!(
            !self.total_duration.is_zero(),
            "mean flux of an empty ledger"
        );
        Flux::per_cm2_s(self.total_fluence.as_per_cm2() / self.total_duration.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKING_FLUX: f64 = 1.5e6;

    #[test]
    fn empty_ledger() {
        let ledger = FluenceLedger::new();
        assert_eq!(ledger.total_fluence(), Fluence::ZERO);
        assert!(ledger.total_duration().is_zero());
        assert_eq!(ledger.segment_count(), 0);
        assert!(!ledger.reached_significance());
    }

    #[test]
    fn accumulation_is_additive() {
        let mut ledger = FluenceLedger::new();
        for _ in 0..10 {
            ledger.record(
                Flux::per_cm2_s(WORKING_FLUX),
                SimDuration::from_minutes(165.1),
            );
        }
        assert_eq!(ledger.segment_count(), 10);
        assert!((ledger.total_duration().as_minutes() - 1651.0).abs() < 1e-9);
        assert!(
            (ledger.total_fluence().as_per_cm2() - 1.49e11).abs() / 1.49e11 < 0.01,
            "fluence = {}",
            ledger.total_fluence()
        );
    }

    #[test]
    fn table2_sessions_reproduce() {
        // (duration_min, expected_fluence, expected_nyc_years)
        let rows: [(f64, f64, f64); 4] = [
            (1651.0, 1.49e11, 1.30e6),
            (1618.0, 1.46e11, 1.28e6),
            (453.0, 4.08e10, 3.58e5),
            (165.0, 1.48e10, 1.30e5),
        ];
        for (mins, fluence, years) in rows {
            let mut ledger = FluenceLedger::new();
            ledger.record(
                Flux::per_cm2_s(WORKING_FLUX),
                SimDuration::from_minutes(mins),
            );
            assert!(
                (ledger.total_fluence().as_per_cm2() - fluence).abs() / fluence < 0.02,
                "{mins} min: {}",
                ledger.total_fluence()
            );
            assert!(
                (ledger.nyc_equivalent_years() - years).abs() / years < 0.02,
                "{mins} min: {} years",
                ledger.nyc_equivalent_years()
            );
        }
    }

    #[test]
    fn significance_rule() {
        let mut ledger = FluenceLedger::new();
        ledger.record(
            Flux::per_cm2_s(WORKING_FLUX),
            SimDuration::from_minutes(453.0),
        );
        // Session 3 stopped on events, not fluence: 4.08e10 < 1e11.
        assert!(!ledger.reached_significance());
        ledger.record(
            Flux::per_cm2_s(WORKING_FLUX),
            SimDuration::from_minutes(1651.0),
        );
        assert!(ledger.reached_significance());
    }

    #[test]
    fn mean_flux_over_mixed_segments() {
        let mut ledger = FluenceLedger::new();
        ledger.record(Flux::per_cm2_s(1.0e6), SimDuration::from_secs(100.0));
        ledger.record(Flux::per_cm2_s(3.0e6), SimDuration::from_secs(100.0));
        assert!((ledger.mean_flux().as_per_cm2_s() - 2.0e6).abs() < 1.0);
    }

    #[test]
    fn segments_iterate_in_order() {
        let mut ledger = FluenceLedger::new();
        ledger.record(Flux::per_cm2_s(1.0), SimDuration::from_secs(1.0));
        ledger.record(Flux::per_cm2_s(2.0), SimDuration::from_secs(2.0));
        let fluxes: Vec<f64> = ledger.segments().map(|s| s.flux.as_per_cm2_s()).collect();
        assert_eq!(fluxes, vec![1.0, 2.0]);
    }
}
