//! The SRAM "golden board" dosimeter and the halo-transmission measurement
//! procedure of §3.4.
//!
//! TRIUMF characterizes relative beam intensity with a well-known SRAM
//! board whose per-bit cross-section is calibrated yearly against
//! activation-foil measurements (Blackmore et al. \[11\]). The paper measured
//! the SEU rate of the dosimeter once at beam center and six times at the
//! halo test position — moving the DUT between measurements to absorb
//! mechanical-positioning uncertainty — and took the rate ratio as the halo
//! transmission: 0.60 ± 0.02.
//!
//! [`SramDosimeter::measure_transmission`] reproduces that protocol against
//! the simulated beam.

use serscale_stats::poisson::sample_poisson;
use serscale_stats::summary::Summary;
use serscale_stats::SimRng;
use serscale_types::{Bits, CrossSection, Flux, SimDuration};

use crate::facility::{BeamFacility, BeamPosition};

/// A calibrated SRAM dosimeter board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramDosimeter {
    bits: Bits,
    sigma_bit: CrossSection,
}

/// The result of a transmission measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmissionMeasurement {
    /// Estimated halo/center flux ratio.
    pub ratio: f64,
    /// Standard error of the ratio over the repeat measurements.
    pub std_error: f64,
    /// Number of halo measurements taken.
    pub measurements: u32,
}

impl SramDosimeter {
    /// The TRIUMF-style dosimeter: a 16 Mbit SRAM with a calibrated
    /// 1.1×10⁻¹⁴ cm²/bit cross-section (older, larger-node SRAM upsets more
    /// easily than the 28 nm DUT — which is what makes it a good dosimeter:
    /// plenty of counts per exposure).
    pub fn triumf_golden_board() -> Self {
        Self::new(Bits::new(16 * 1024 * 1024), CrossSection::cm2(1.1e-14))
    }

    /// Creates a dosimeter.
    ///
    /// # Panics
    ///
    /// Panics if the board has zero bits or zero cross-section.
    pub fn new(bits: Bits, sigma_bit: CrossSection) -> Self {
        assert!(bits.get() > 0, "dosimeter needs at least one bit");
        assert!(
            sigma_bit.as_cm2() > 0.0,
            "dosimeter cross-section must be positive"
        );
        SramDosimeter { bits, sigma_bit }
    }

    /// The board capacity.
    pub const fn bits(&self) -> Bits {
        self.bits
    }

    /// The calibrated per-bit cross-section.
    pub const fn sigma_bit(&self) -> CrossSection {
        self.sigma_bit
    }

    /// The expected SEU count for an exposure at the given flux.
    pub fn expected_upsets(&self, flux: Flux, exposure: SimDuration) -> f64 {
        self.sigma_bit.as_cm2() * self.bits.as_f64() * flux.as_per_cm2_s() * exposure.as_secs()
    }

    /// Counts SEUs over one exposure (Poisson draw around the expectation).
    pub fn expose(&self, rng: &mut SimRng, flux: Flux, exposure: SimDuration) -> u64 {
        sample_poisson(rng, self.expected_upsets(flux, exposure))
    }

    /// Reproduces the paper's transmission-measurement protocol: one
    /// exposure at beam center, then `halo_repeats` exposures at the halo
    /// position, re-seating the board between repeats
    /// (`positioning_jitter` is the relative sigma of the re-seating flux
    /// error).
    ///
    /// # Panics
    ///
    /// Panics if `halo_repeats` is zero or any duration is zero.
    pub fn measure_transmission(
        &self,
        rng: &mut SimRng,
        facility: &BeamFacility,
        halo: BeamPosition,
        exposure_each: SimDuration,
        halo_repeats: u32,
        positioning_jitter: f64,
    ) -> TransmissionMeasurement {
        assert!(halo_repeats > 0, "need at least one halo measurement");
        assert!(
            !exposure_each.is_zero(),
            "exposures must have positive duration"
        );

        let center_flux = facility.flux_at(BeamPosition::Center);
        let center_counts = self.expose(rng, center_flux, exposure_each).max(1);
        let center_rate = center_counts as f64 / exposure_each.as_secs();

        let mut ratios = Summary::new();
        for _ in 0..halo_repeats {
            // Mechanical re-seating perturbs the true received flux.
            let jitter = (1.0 + rng.normal(0.0, positioning_jitter)).max(0.0);
            let true_flux = facility.flux_at(halo).scaled(jitter);
            let counts = self.expose(rng, true_flux, exposure_each);
            let rate = counts as f64 / exposure_each.as_secs();
            ratios.add(rate / center_rate);
        }

        TransmissionMeasurement {
            ratio: ratios.mean(),
            std_error: if halo_repeats > 1 {
                ratios.std_error()
            } else {
                f64::NAN
            },
            measurements: halo_repeats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_counts_scale_linearly() {
        let d = SramDosimeter::triumf_golden_board();
        let f = Flux::per_cm2_s(2.5e6);
        let one = d.expected_upsets(f, SimDuration::from_secs(10.0));
        let two = d.expected_upsets(f, SimDuration::from_secs(20.0));
        assert!((two / one - 2.0).abs() < 1e-12);
    }

    #[test]
    fn center_exposure_yields_plenty_of_counts() {
        // The dosimeter must count fast at beam center for the protocol to
        // converge in minutes.
        let d = SramDosimeter::triumf_golden_board();
        let expected = d.expected_upsets(Flux::per_cm2_s(2.5e6), SimDuration::from_minutes(5.0));
        assert!(expected > 100.0, "expected = {expected}");
    }

    #[test]
    fn transmission_measurement_recovers_the_ratio() {
        let d = SramDosimeter::triumf_golden_board();
        let tnf = BeamFacility::tnf();
        let halo = BeamPosition::halo(0.60);
        let mut rng = SimRng::seed_from(42);
        // 45-minute exposures: the 5-minute protocol's Poisson noise on the
        // ratio (~0.03 relative) is as large as the tolerance below, which
        // makes the assertion a coin flip over seeds. Longer exposures test
        // the same protocol with the estimator noise well inside the band.
        let m = d.measure_transmission(
            &mut rng,
            &tnf,
            halo,
            SimDuration::from_minutes(45.0),
            6,
            0.02,
        );
        assert_eq!(m.measurements, 6);
        assert!((m.ratio - 0.60).abs() < 0.03, "ratio = {}", m.ratio);
        // The paper's ±0.02 combined uncertainty is the right order.
        assert!(
            m.std_error > 0.0 && m.std_error < 0.05,
            "se = {}",
            m.std_error
        );
    }

    #[test]
    fn measurement_is_deterministic_under_seed() {
        let d = SramDosimeter::triumf_golden_board();
        let tnf = BeamFacility::tnf();
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            d.measure_transmission(
                &mut rng,
                &tnf,
                BeamPosition::halo(0.6),
                SimDuration::from_minutes(1.0),
                6,
                0.02,
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "at least one halo measurement")]
    fn zero_repeats_rejected() {
        let d = SramDosimeter::triumf_golden_board();
        let tnf = BeamFacility::tnf();
        let mut rng = SimRng::seed_from(1);
        let _ = d.measure_transmission(
            &mut rng,
            &tnf,
            BeamPosition::halo(0.6),
            SimDuration::from_secs(1.0),
            0,
            0.0,
        );
    }
}
