//! The accelerated-neutron facility model.
//!
//! Mirrors §3.4 of the paper: TRIUMF's TNF delivers an atmospheric-like
//! spectrum at a beam-center flux of 2–3 × 10⁶ n/cm²/s (>10 MeV) over a
//! 5 cm × 12 cm spot, which cannot be reduced operationally. The paper's
//! DUT was therefore raised 5–10 cm into the *beam halo*, where a
//! dosimeter-measured 0.60 ± 0.02 fraction of the center flux arrives
//! (see [`BeamPosition::PAPER_HALO_TRANSMISSION`] on the paper's stray
//! percent sign). Thermal
//! neutrons contribute about 15 % of the >10 MeV flux in that configuration.

use serscale_types::{Flux, NeutronEnergy};

/// Where the device under test sits relative to the beam axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BeamPosition {
    /// Directly in the beam path (full flux).
    Center,
    /// In the beam halo, receiving `transmission` of the center flux.
    Halo {
        /// Fraction of the center flux reaching the DUT (0, 1].
        transmission: f64,
    },
}

impl BeamPosition {
    /// The halo position the paper used: a 0.60 ± 0.02 flux ratio relative
    /// to beam center, measured with the SRAM dosimeter. (The paper's prose
    /// renders the ratio as "0.60 ± 0.02%", but its own working-flux
    /// arithmetic — `(2+3)/2 × 0.6 × 10⁶ = 1.5 × 10⁶ n/cm²/s` — and the
    /// session fluences of Table 2 both use the factor 0.60, which we
    /// follow.)
    pub const PAPER_HALO_TRANSMISSION: f64 = 0.60;

    /// Creates a halo position with the given transmission fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < transmission ≤ 1`.
    pub fn halo(transmission: f64) -> Self {
        assert!(
            transmission > 0.0 && transmission <= 1.0,
            "transmission must be in (0, 1], got {transmission}"
        );
        BeamPosition::Halo { transmission }
    }

    /// The flux fraction this position receives.
    pub fn transmission(&self) -> f64 {
        match self {
            BeamPosition::Center => 1.0,
            BeamPosition::Halo { transmission } => *transmission,
        }
    }
}

/// An accelerated neutron irradiation facility.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamFacility {
    name: String,
    /// Lower bound of the center >10 MeV flux band (n/cm²/s).
    center_flux_min: Flux,
    /// Upper bound of the center >10 MeV flux band (n/cm²/s).
    center_flux_max: Flux,
    /// Fraction of the >10 MeV flux arriving as thermal neutrons.
    thermal_fraction: f64,
    /// Relative uncertainty of the absolute flux calibration.
    absolute_flux_uncertainty: f64,
}

impl BeamFacility {
    /// The TRIUMF Neutron irradiation Facility as described in §3.4:
    /// 2–3 × 10⁶ n/cm²/s center flux, ~15 % thermal contamination, ~20 %
    /// absolute-calibration uncertainty.
    pub fn tnf() -> Self {
        BeamFacility {
            name: "TRIUMF/TNF".to_owned(),
            center_flux_min: Flux::per_cm2_s(2.0e6),
            center_flux_max: Flux::per_cm2_s(3.0e6),
            thermal_fraction: 0.15,
            absolute_flux_uncertainty: 0.20,
        }
    }

    /// Creates a facility from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the flux band is inverted, or the fractions are outside
    /// `\[0, 1\]`.
    pub fn new(
        name: impl Into<String>,
        center_flux_min: Flux,
        center_flux_max: Flux,
        thermal_fraction: f64,
        absolute_flux_uncertainty: f64,
    ) -> Self {
        assert!(
            center_flux_min <= center_flux_max,
            "flux band inverted: {center_flux_min} > {center_flux_max}"
        );
        assert!(
            (0.0..=1.0).contains(&thermal_fraction),
            "thermal fraction in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&absolute_flux_uncertainty),
            "flux uncertainty in [0,1]"
        );
        BeamFacility {
            name: name.into(),
            center_flux_min,
            center_flux_max,
            thermal_fraction,
            absolute_flux_uncertainty,
        }
    }

    /// The facility name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nominal (band-midpoint) center flux — the paper's
    /// `(2+3)/2 × 10⁶` in its working-flux computation.
    pub fn center_flux(&self) -> Flux {
        Flux::per_cm2_s(
            0.5 * (self.center_flux_min.as_per_cm2_s() + self.center_flux_max.as_per_cm2_s()),
        )
    }

    /// The center-flux band as `(min, max)`.
    pub fn center_flux_band(&self) -> (Flux, Flux) {
        (self.center_flux_min, self.center_flux_max)
    }

    /// The >10 MeV flux at a given DUT position.
    ///
    /// ```
    /// use serscale_beam::facility::{BeamFacility, BeamPosition};
    ///
    /// // The paper's working flux: (2+3)/2 × 0.6 × 10⁶ = 1.5e6 n/cm²/s.
    /// let f = BeamFacility::tnf().flux_at(BeamPosition::halo(0.60));
    /// assert!((f.as_per_cm2_s() - 1.5e6).abs() < 1e-3);
    /// ```
    pub fn flux_at(&self, position: BeamPosition) -> Flux {
        self.center_flux().scaled(position.transmission())
    }

    /// Fraction of the >10 MeV-equivalent flux that is thermal-neutron
    /// contamination at the halo position.
    pub const fn thermal_fraction(&self) -> f64 {
        self.thermal_fraction
    }

    /// The relative uncertainty of the absolute flux calibration (~20 % at
    /// TNF per Blackmore \[10\]).
    pub const fn absolute_flux_uncertainty(&self) -> f64 {
        self.absolute_flux_uncertainty
    }

    /// Whether the facility spectrum is SEE-relevant above the JEDEC
    /// threshold (always true for a spallation source; present so exotic
    /// facilities can be modelled).
    pub fn covers(&self, energy: NeutronEnergy) -> bool {
        energy.is_see_relevant() || self.thermal_fraction > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tnf_band_midpoint() {
        let tnf = BeamFacility::tnf();
        assert!((tnf.center_flux().as_per_cm2_s() - 2.5e6).abs() < 1.0);
        let (lo, hi) = tnf.center_flux_band();
        assert!(lo < hi);
    }

    #[test]
    fn paper_working_flux() {
        // §3.4: (2+3)/2 × 0.6 × 10⁶ = 1.5 × 10⁶ n/cm²/s — consistent with
        // Table 2 (1.49e11 n/cm² over 1651 min).
        let f =
            BeamFacility::tnf().flux_at(BeamPosition::halo(BeamPosition::PAPER_HALO_TRANSMISSION));
        assert!((f.as_per_cm2_s() - 1.5e6).abs() < 1e-3);
    }

    #[test]
    fn center_position_full_flux() {
        let tnf = BeamFacility::tnf();
        assert_eq!(
            tnf.flux_at(BeamPosition::Center).as_per_cm2_s(),
            tnf.center_flux().as_per_cm2_s()
        );
    }

    #[test]
    fn transmission_accessor() {
        assert_eq!(BeamPosition::Center.transmission(), 1.0);
        assert!((BeamPosition::halo(0.006).transmission() - 0.006).abs() < 1e-12);
    }

    #[test]
    fn thermal_and_uncertainty_metadata() {
        let tnf = BeamFacility::tnf();
        assert!((tnf.thermal_fraction() - 0.15).abs() < 1e-12);
        assert!((tnf.absolute_flux_uncertainty() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn covers_fast_neutrons() {
        assert!(BeamFacility::tnf().covers(NeutronEnergy::mev(14.0)));
    }

    #[test]
    #[should_panic(expected = "transmission")]
    fn zero_transmission_rejected() {
        let _ = BeamPosition::halo(0.0);
    }

    #[test]
    #[should_panic(expected = "flux band inverted")]
    fn inverted_band_rejected() {
        let _ = BeamFacility::new(
            "bad",
            Flux::per_cm2_s(3.0e6),
            Flux::per_cm2_s(2.0e6),
            0.0,
            0.0,
        );
    }
}
