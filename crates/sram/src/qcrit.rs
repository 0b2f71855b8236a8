//! The critical-charge (Qcrit) model of voltage-dependent soft-error
//! susceptibility.
//!
//! ## Physics
//!
//! A particle strike flips a stored bit when the charge it deposits on the
//! cell's sensitive node exceeds the *critical charge* `Qcrit`. Two
//! empirical laws, both cited by the paper, define the model:
//!
//! 1. `Qcrit` is proportional to the supply voltage — the stored charge is
//!    `C·V` (Chandra & Aitken, \[16\] in the paper).
//! 2. The upset cross-section follows an exponential collection-efficiency
//!    law: `σ(Qcrit) = σ_sat · exp(−Qcrit / Qs)`, where `Qs` is the
//!    technology's charge-collection slope (the classic Hazucha–Svensson
//!    form).
//!
//! Substituting (1) into (2) gives
//!
//! ```text
//! σ(V) = σ(V₀) · exp( k · (1 − V/V₀) ),   k = Qcrit(V₀) / Qs
//! ```
//!
//! a single dimensionless *voltage sensitivity* `k`. The X-Gene 2's `k` is
//! calibrated against the paper's own per-level upset rates (Figures 6–7;
//! see `DESIGN.md` §3): with `k ≈ 3.2`, the model reproduces the measured
//! PMD-array rate increase at 930/920/790 mV and — because the L3 sits on
//! the unscaled SoC domain — the totals of Table 2 within a few percent.
//!
//! The model is deliberately frequency-free: the paper's Observation #6
//! found no measurable frequency dependence of the SER, and storage-cell
//! upset physics has no clock term.

use serscale_types::{CrossSection, Millivolts};

/// Per-bit soft-error susceptibility as a function of supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftErrorModel {
    /// Per-bit cross-section at the nominal voltage (cm²/bit).
    sigma_nominal: CrossSection,
    /// The voltage the calibration point refers to.
    nominal_voltage: Millivolts,
    /// Dimensionless voltage sensitivity `k = Qcrit(V₀)/Qs`.
    voltage_sensitivity: f64,
}

impl SoftErrorModel {
    /// Creates a model from an explicit calibration point and sensitivity.
    ///
    /// # Panics
    ///
    /// Panics if `voltage_sensitivity` is negative or non-finite, or the
    /// nominal voltage is zero.
    pub fn new(
        sigma_nominal: CrossSection,
        nominal_voltage: Millivolts,
        voltage_sensitivity: f64,
    ) -> Self {
        assert!(
            voltage_sensitivity.is_finite() && voltage_sensitivity >= 0.0,
            "voltage sensitivity must be finite and non-negative"
        );
        assert!(
            nominal_voltage.get() > 0,
            "nominal voltage must be positive"
        );
        SoftErrorModel {
            sigma_nominal,
            nominal_voltage,
            voltage_sensitivity,
        }
    }

    /// The calibration cross-section at the nominal voltage.
    pub const fn sigma_nominal(&self) -> CrossSection {
        self.sigma_nominal
    }

    /// The calibration voltage.
    pub const fn nominal_voltage(&self) -> Millivolts {
        self.nominal_voltage
    }

    /// The dimensionless voltage sensitivity `k`.
    pub const fn voltage_sensitivity(&self) -> f64 {
        self.voltage_sensitivity
    }

    /// The per-bit upset cross-section at the given supply voltage.
    ///
    /// ```
    /// use serscale_sram::SoftErrorModel;
    /// use serscale_types::{CrossSection, Millivolts};
    ///
    /// // 28 nm planar SRAM at the X-Gene 2's 980 mV PMD nominal.
    /// let m = SoftErrorModel::new(CrossSection::cm2(1.0e-15), Millivolts::new(980), 3.2);
    /// let ratio = m.sigma_ratio(Millivolts::new(920));
    /// // ≈ +21% per-bit at the PMD Vmin — which blends with the unscaled
    /// // SoC-domain L3 into the chip-level +10.5% of Table 2.
    /// assert!(ratio > 1.15 && ratio < 1.30);
    /// ```
    pub fn sigma_bit(&self, voltage: Millivolts) -> CrossSection {
        CrossSection::cm2(self.sigma_nominal.as_cm2() * self.sigma_ratio(voltage))
    }

    /// The ratio `σ(V)/σ(V₀)` — how much more (or less) susceptible a bit
    /// is at `voltage` relative to nominal.
    pub fn sigma_ratio(&self, voltage: Millivolts) -> f64 {
        let v_ratio = voltage.ratio_to(self.nominal_voltage);
        (self.voltage_sensitivity * (1.0 - v_ratio)).exp()
    }

    /// The relative critical charge `Qcrit(V)/Qcrit(V₀)` — linear in V
    /// (law 1 of the module docs).
    pub fn qcrit_ratio(&self, voltage: Millivolts) -> f64 {
        voltage.ratio_to(self.nominal_voltage)
    }

    /// The total cross-section of an array of `bits` cells at `voltage`.
    pub fn sigma_array(&self, bits: u64, voltage: Millivolts) -> CrossSection {
        self.sigma_bit(voltage) * bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The X-Gene 2's calibration (`platforms/xgene2.json`): 28 nm planar
    /// SRAM at ~1.0×10⁻¹⁵ cm²/bit (Yang et al. \[83\], §3.3) with the
    /// sensitivity fitted to the per-level upset rates.
    const SIGMA_NOMINAL_CM2: f64 = 1.0e-15;
    const SENSITIVITY: f64 = 3.2;

    fn model() -> SoftErrorModel {
        SoftErrorModel::new(
            CrossSection::cm2(SIGMA_NOMINAL_CM2),
            Millivolts::new(980),
            SENSITIVITY,
        )
    }

    #[test]
    fn nominal_point_is_exact() {
        let m = model();
        let s = m.sigma_bit(Millivolts::new(980));
        assert!((s.as_cm2() - 1.0e-15).abs() < 1e-22);
        assert!((m.sigma_ratio(Millivolts::new(980)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_is_monotone_decreasing_in_voltage() {
        let m = model();
        let mut prev = f64::INFINITY;
        for mv in (700..=1050).step_by(10) {
            let s = m.sigma_bit(Millivolts::new(mv)).as_cm2();
            assert!(s < prev, "sigma must fall as voltage rises ({mv} mV)");
            prev = s;
        }
    }

    #[test]
    fn qcrit_is_linear_in_voltage() {
        let m = model();
        assert!((m.qcrit_ratio(Millivolts::new(490)) - 0.5).abs() < 1e-12);
        assert!((m.qcrit_ratio(Millivolts::new(980)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_reproduces_paper_pmd_ratios() {
        // Fig. 6: L2 (PMD domain) corrected rate grows 0.157 → 0.194
        // (+24%) from 980 mV to 920 mV; the model should land nearby.
        let m = model();
        let r920 = m.sigma_ratio(Millivolts::new(920));
        assert!((r920 - 1.22).abs() < 0.08, "r920 = {r920}");

        // Fig. 7: L2 at 790 mV reaches 0.29/min, ×1.85 over 980 mV.
        let r790 = m.sigma_ratio(Millivolts::new(790));
        assert!((r790 - 1.86).abs() < 0.15, "r790 = {r790}");
    }

    #[test]
    fn calibration_reproduces_soc_domain_ratios() {
        // Fig. 6 L3 (SoC domain): 950 → 920 mV gives 0.765 → 0.841
        // (+10%); the same k evaluated on the SoC nominal reproduces it.
        let m = SoftErrorModel::new(
            CrossSection::cm2(SIGMA_NOMINAL_CM2),
            Millivolts::new(950),
            SENSITIVITY,
        );
        let r = m.sigma_ratio(Millivolts::new(920));
        assert!((r - 1.10).abs() < 0.03, "r = {r}");
    }

    #[test]
    fn array_cross_section_scales_with_bits() {
        let m = model();
        let v = Millivolts::new(980);
        let one = m.sigma_array(1, v).as_cm2();
        let mega = m.sigma_array(1_000_000, v).as_cm2();
        assert!((mega / one - 1.0e6).abs() < 1e-3);
    }

    #[test]
    fn expected_upset_interval_matches_paper_estimate() {
        // §3.3: 10 MB of SRAM at σ=1e-15 cm²/bit under 2.5e6 n/cm²/s beam
        // flux → one upset per ≈4.8 s.
        let m = model();
        let bits = 10.0e6 * 8.0;
        let sigma = m.sigma_array(bits as u64, Millivolts::new(980));
        let rate = sigma.event_rate(serscale_types::Flux::per_cm2_s(2.5e6));
        let interval = 1.0 / rate;
        assert!((interval - 4.8).abs() < 0.4, "interval = {interval} s");
    }

    #[test]
    fn zero_sensitivity_is_voltage_independent() {
        let m = SoftErrorModel::new(CrossSection::cm2(1e-15), Millivolts::new(980), 0.0);
        assert!((m.sigma_ratio(Millivolts::new(700)) - 1.0).abs() < 1e-12);
    }
}
