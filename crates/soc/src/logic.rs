//! Soft-error susceptibility of the *unprotected* core logic.
//!
//! Parity and SECDED cover the SRAM arrays; flip-flops, pipeline latches
//! and combinational paths in the cores have no protection, and faults
//! there are what the paper concludes drives its SDC explosion at low
//! voltage (Design implication #4: "SDCs are probably not caused by upsets
//! in SRAM structures when the microprocessor operates at a reduced supply
//! voltage").
//!
//! ## Model
//!
//! Two fault populations, both per-chip cross-sections under beam flux:
//!
//! * **Control-path faults** (fetch/branch/MMU state machines): corrupting
//!   one typically derails execution — an application or system crash.
//!   Scales with voltage like any stored bit:
//!   `σ_ctrl(V) = σ_c0 · exp(k·(1 − V/V₀))`.
//! * **Datapath faults** (ALU results, bypass latches, computation state):
//!   corrupting one silently alters data — an SDC if consumed. Besides the
//!   Qcrit term, these see a *timing-margin amplification* near the safe
//!   Vmin: as the supply approaches the lowest voltage at which the logic
//!   still meets timing, radiation-induced transients on critical paths
//!   that would have evaporated harmlessly at nominal voltage get latched.
//!   The amplification is exponential in the margin-to-Vmin and strongly
//!   frequency dependent (shorter cycles leave less slack to absorb a
//!   transient):
//!
//!   ```text
//!   σ_data(V, f) = σ_d0 · exp(k·(1 − V/V₀)) · (1 + A·(f/f₀)^γ · exp(−(V − Vmin(f))/τ))
//!   ```
//!
//! Calibration (`DESIGN.md` §3): the observed SDC event rates of the
//! campaign — 1.05/h at 980 mV, 2.0/h at 930 mV, 17.2/h at 920 mV
//! (all 2.4 GHz), and 2.2/h at 790 mV / 900 MHz — pin `A ≈ 13`,
//! `τ ≈ 3.3 mV` and `γ ≈ 4.7`. The same constants then *predict* the
//! paper's headline 16× SDC-FIT ratio and the near-absence of the
//! amplification at 900 MHz (Fig. 13), which is the model's built-in
//! explanation of Observation #6 (frequency does not matter — except
//! through this latching window).

use serscale_types::{CrossSection, Megahertz, Millivolts};

use crate::spec::PlatformSpec;

/// The unprotected-logic susceptibility model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicSusceptibility {
    /// Control-path cross-section at nominal voltage (cm²).
    sigma_ctrl_nominal: CrossSection,
    /// Datapath cross-section at nominal voltage, before amplification
    /// (cm²).
    sigma_data_nominal: CrossSection,
    /// The nominal (calibration) voltage.
    nominal_voltage: Millivolts,
    /// The Qcrit voltage sensitivity, shared with the SRAM model.
    voltage_sensitivity: f64,
    /// Amplification ceiling at full frequency, right at Vmin.
    amplification: f64,
    /// Amplification decay constant vs. margin above Vmin (mV).
    margin_tau_mv: f64,
    /// Frequency exponent of the amplification.
    frequency_gamma: f64,
    /// The frequency the amplification ceiling refers to.
    nominal_frequency: Megahertz,
}

impl LogicSusceptibility {
    /// Builds a model from a platform spec's logic-physics block,
    /// anchored at the spec's PMD rail nominal and maximum frequency.
    /// The X-Gene 2's block holds the calibration of the module docs:
    /// control faults add ≈0.9 crashes/h and consumed datapath faults
    /// ≈1.05 SDC/h at nominal conditions.
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        LogicSusceptibility {
            sigma_ctrl_nominal: CrossSection::cm2(spec.physics.logic_sigma_ctrl_cm2),
            sigma_data_nominal: CrossSection::cm2(spec.physics.logic_sigma_data_cm2),
            nominal_voltage: spec.pmd_rail.nominal,
            voltage_sensitivity: spec.physics.logic_voltage_sensitivity,
            amplification: spec.physics.logic_amplification,
            margin_tau_mv: spec.physics.logic_margin_tau_mv,
            frequency_gamma: spec.physics.logic_frequency_gamma,
            nominal_frequency: spec.freq_max,
        }
    }

    /// The shared Qcrit scaling factor `exp(k·(1 − V/V₀))`.
    fn qcrit_factor(&self, voltage: Millivolts) -> f64 {
        (self.voltage_sensitivity * (1.0 - voltage.ratio_to(self.nominal_voltage))).exp()
    }

    /// The timing-margin amplification factor `1 + A·(f/f₀)^γ·e^(−m/τ)`,
    /// where `m` is the margin above the safe Vmin at this frequency.
    pub fn margin_amplification(
        &self,
        voltage: Millivolts,
        frequency: Megahertz,
        vmin: Millivolts,
    ) -> f64 {
        let margin_mv = f64::from(voltage.get().saturating_sub(vmin.get()));
        let freq_term = frequency
            .ratio_to(self.nominal_frequency)
            .powf(self.frequency_gamma);
        1.0 + self.amplification * freq_term * (-margin_mv / self.margin_tau_mv).exp()
    }

    /// Control-path cross-section at the given voltage.
    pub fn sigma_control(&self, voltage: Millivolts) -> CrossSection {
        CrossSection::cm2(self.sigma_ctrl_nominal.as_cm2() * self.qcrit_factor(voltage))
    }

    /// Datapath cross-section at the given operating conditions, given the
    /// characterized safe Vmin for this frequency.
    ///
    /// ```
    /// use serscale_soc::{LogicSusceptibility, PlatformSpec};
    /// use serscale_types::{Megahertz, Millivolts};
    ///
    /// let logic = LogicSusceptibility::for_platform(&PlatformSpec::xgene2());
    /// let f = Megahertz::new(2400);
    /// let vmin = Millivolts::new(920);
    /// let at_nominal = logic.sigma_data(Millivolts::new(980), f, vmin);
    /// let at_vmin = logic.sigma_data(vmin, f, vmin);
    /// // The paper's ≈16× SDC explosion at the lowest safe voltage.
    /// let ratio = at_vmin.as_cm2() / at_nominal.as_cm2();
    /// assert!(ratio > 12.0 && ratio < 22.0);
    /// ```
    pub fn sigma_data(
        &self,
        voltage: Millivolts,
        frequency: Megahertz,
        vmin: Millivolts,
    ) -> CrossSection {
        CrossSection::cm2(
            self.sigma_data_nominal.as_cm2()
                * self.qcrit_factor(voltage)
                * self.margin_amplification(voltage, frequency, vmin),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logic() -> LogicSusceptibility {
        LogicSusceptibility::for_platform(&PlatformSpec::xgene2())
    }

    const F24: Megahertz = Megahertz::new(2400);
    const F09: Megahertz = Megahertz::new(900);
    const VMIN24: Millivolts = Millivolts::new(920);
    const VMIN09: Millivolts = Millivolts::new(790);

    #[test]
    fn amplification_negligible_at_nominal() {
        let m = logic().margin_amplification(Millivolts::new(980), F24, VMIN24);
        assert!((m - 1.0).abs() < 1e-6, "m = {m}");
    }

    #[test]
    fn amplification_moderate_10mv_above_vmin() {
        // At 930 mV (10 mV margin): 1 + 13·e^(−10/3.3) ≈ 1.63.
        let m = logic().margin_amplification(Millivolts::new(930), F24, VMIN24);
        assert!((m - 1.63).abs() < 0.05, "m = {m}");
    }

    #[test]
    fn amplification_full_at_vmin() {
        let m = logic().margin_amplification(VMIN24, F24, VMIN24);
        assert!((m - 14.0).abs() < 0.01, "m = {m}");
    }

    #[test]
    fn amplification_suppressed_at_low_frequency() {
        // At 900 MHz the latching window shrinks: A·(900/2400)^4.7 ≈ 0.13.
        let m = logic().margin_amplification(VMIN09, F09, VMIN09);
        assert!((m - 1.13).abs() < 0.02, "m = {m}");
    }

    #[test]
    fn sdc_rate_ratios_match_campaign() {
        // σ_data ratios vs nominal should track the observed SDC event-rate
        // ratios: ~1.9 at 930 mV, ~16 at 920 mV, ~2.1 at 790/900.
        let l = logic();
        let base = l.sigma_data(Millivolts::new(980), F24, VMIN24).as_cm2();
        let r930 = l.sigma_data(Millivolts::new(930), F24, VMIN24).as_cm2() / base;
        let r920 = l.sigma_data(VMIN24, F24, VMIN24).as_cm2() / base;
        let r790 = l.sigma_data(VMIN09, F09, VMIN09).as_cm2() / base;
        assert!((r930 - 1.9).abs() < 0.3, "r930 = {r930}");
        assert!((r920 - 16.5).abs() < 2.5, "r920 = {r920}");
        assert!((r790 - 2.1).abs() < 0.4, "r790 = {r790}");
    }

    #[test]
    fn control_path_has_no_vmin_cliff() {
        let l = logic();
        let base = l.sigma_control(Millivolts::new(980)).as_cm2();
        let at_vmin = l.sigma_control(VMIN24).as_cm2();
        // Only the gentle Qcrit slope: ~+22%, no explosion.
        assert!((at_vmin / base - 1.22).abs() < 0.05);
    }

    #[test]
    fn below_vmin_margin_saturates() {
        // Margin uses saturating subtraction: below Vmin (never a valid
        // campaign point, but reachable in exploration sweeps) the
        // amplification stays at its ceiling rather than exploding further.
        let l = logic();
        let at = l.margin_amplification(Millivolts::new(900), F24, VMIN24);
        let at_vmin = l.margin_amplification(VMIN24, F24, VMIN24);
        assert_eq!(at, at_vmin);
    }

    #[test]
    fn spec_built_model_matches_the_calibrated_one() {
        // The calibration of the module docs: σ_c0 pins ≈0.9 control-fault
        // crashes/h and σ_d0 ≈1.05 SDC/h at 980 mV / 2.4 GHz; A, τ and γ
        // fit the campaign's SDC event rates.
        let calibrated = LogicSusceptibility {
            sigma_ctrl_nominal: CrossSection::cm2(1.7e-10),
            sigma_data_nominal: CrossSection::cm2(4.76e-10),
            nominal_voltage: Millivolts::new(980),
            voltage_sensitivity: 3.2,
            amplification: 13.0,
            margin_tau_mv: 3.3,
            frequency_gamma: 4.7,
            nominal_frequency: Megahertz::new(2400),
        };
        assert_eq!(logic(), calibrated);
    }

    #[test]
    fn datapath_dominates_control_at_vmin() {
        let l = logic();
        let data = l.sigma_data(VMIN24, F24, VMIN24).as_cm2();
        let ctrl = l.sigma_control(VMIN24).as_cm2();
        assert!(data / ctrl > 20.0, "data/ctrl = {}", data / ctrl);
    }
}
