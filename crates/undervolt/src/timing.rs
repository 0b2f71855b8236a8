//! The undervolting timing-failure model.
//!
//! Logic delay grows as supply voltage falls; once the slowest critical
//! path no longer fits in a clock cycle, executions start failing (wrong
//! results, hangs, machine checks). Manufacturing variation smears the
//! failure point across a few millivolts, so the per-run failure
//! probability is a steep sigmoid in voltage — exactly the shape of the
//! paper's Figure 4.
//!
//! The *critical voltage* `Vc(f)` — the 50 %-failure point — moves with
//! frequency: a 900 MHz cycle is 2.67× longer than a 2.4 GHz cycle, so the
//! same paths still meet timing far deeper into undervolting. The model is
//! calibrated to the paper's two measured sweeps:
//!
//! * 2.4 GHz: safe at 920 mV, pfail rising below, 100 % at 900 mV
//!   (a 20 mV failure window);
//! * 900 MHz: safe at 790 mV, 100 % at 780 mV (a ~10 mV window —
//!   the paper notes the window is *shorter* at the lower frequency,
//!   which the model reproduces with a smaller spread).

use serscale_soc::PlatformSpec;
use serscale_stats::ci::normal_cdf;
use serscale_stats::SimRng;
use serscale_types::{Celsius, Megahertz, Millivolts};

/// The critical-path failure model of one chip specimen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingFailureModel {
    /// Critical voltage at the calibration frequency (mV).
    vc_at_ref: f64,
    /// The calibration frequency.
    ref_frequency: Megahertz,
    /// Critical-voltage slope vs frequency (mV per MHz).
    slope_mv_per_mhz: f64,
    /// Failure-point spread at the calibration frequency (mV).
    sigma_at_ref: f64,
    /// Spread shrink factor per GHz of frequency *decrease*.
    sigma_slope: f64,
}

impl TimingFailureModel {
    /// The model a platform spec's timing-physics block declares (a
    /// positive critical voltage and spread, a non-negative spread slope,
    /// by validation), referenced at the spec's maximum frequency. The
    /// X-Gene 2's block holds the Figure 4 calibration of the module docs.
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        TimingFailureModel {
            vc_at_ref: spec.physics.timing_vc_at_fmax_mv,
            ref_frequency: spec.freq_max,
            slope_mv_per_mhz: spec.physics.timing_slope_mv_per_mhz,
            sigma_at_ref: spec.physics.timing_sigma_at_fmax_mv,
            sigma_slope: spec.physics.timing_sigma_slope_mv,
        }
    }

    /// A copy of this model with the critical voltage shifted by
    /// `offset_mv` at every frequency — one manufacturing specimen of a
    /// chip population (see `variation`).
    pub fn with_vc_offset(&self, offset_mv: f64) -> TimingFailureModel {
        assert!(offset_mv.is_finite(), "offset must be finite");
        TimingFailureModel {
            vc_at_ref: (self.vc_at_ref + offset_mv).max(1.0),
            ..*self
        }
    }

    /// The temperature coefficient of the critical voltage, in mV/°C
    /// above the characterization temperature. Logic slows slightly when
    /// hot; the paper verified its safe Vmin was stable up to 50 °C
    /// (§3.4), which bounds the coefficient: 0.3 mV/°C keeps the shift
    /// under one regulator step across the beam-room window.
    pub const VC_TEMP_COEFF_MV_PER_C: f64 = 0.3;

    /// The characterization reference temperature (the beam-room die
    /// temperature band's midpoint).
    pub fn reference_temperature() -> Celsius {
        Celsius::new(42.5)
    }

    /// A copy of this model at a different die temperature: the critical
    /// voltage shifts by `VC_TEMP_COEFF_MV_PER_C` per °C above the
    /// reference (and conversely below it).
    pub fn at_temperature(&self, die: Celsius) -> TimingFailureModel {
        let delta = die.get() - Self::reference_temperature().get();
        self.with_vc_offset(Self::VC_TEMP_COEFF_MV_PER_C * delta)
    }

    /// The critical (50 %-failure) voltage at the given frequency, in mV.
    pub fn critical_voltage_mv(&self, frequency: Megahertz) -> f64 {
        let df = f64::from(frequency.get()) - f64::from(self.ref_frequency.get());
        self.vc_at_ref + self.slope_mv_per_mhz * df
    }

    /// The failure-point spread at the given frequency, in mV. Shrinks at
    /// lower frequencies (longer cycles leave less marginal territory).
    pub fn sigma_mv(&self, frequency: Megahertz) -> f64 {
        let dghz = (f64::from(self.ref_frequency.get()) - f64::from(frequency.get())) / 1000.0;
        (self.sigma_at_ref - self.sigma_slope * dghz).max(1.0)
    }

    /// The per-execution failure probability at the given operating
    /// conditions.
    ///
    /// ```
    /// use serscale_soc::PlatformSpec;
    /// use serscale_types::{Megahertz, Millivolts};
    /// use serscale_undervolt::TimingFailureModel;
    ///
    /// let m = TimingFailureModel::for_platform(&PlatformSpec::xgene2());
    /// let f = Megahertz::new(2400);
    /// assert!(m.pfail(Millivolts::new(980), f) < 1e-9); // nominal: safe
    /// assert!(m.pfail(Millivolts::new(900), f) > 0.9); // deep undervolt: dead
    /// ```
    pub fn pfail(&self, voltage: Millivolts, frequency: Megahertz) -> f64 {
        let z = (self.critical_voltage_mv(frequency) - f64::from(voltage.get()))
            / self.sigma_mv(frequency);
        normal_cdf(z)
    }

    /// Samples whether one execution fails at the given conditions.
    pub fn sample_run_fails(
        &self,
        rng: &mut SimRng,
        voltage: Millivolts,
        frequency: Megahertz,
    ) -> bool {
        rng.chance(self.pfail(voltage, frequency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F24: Megahertz = Megahertz::new(2400);
    const F09: Megahertz = Megahertz::new(900);

    fn xgene2() -> TimingFailureModel {
        TimingFailureModel::for_platform(&PlatformSpec::xgene2())
    }

    #[test]
    fn spec_built_model_matches_the_calibrated_one() {
        // Figure 4's calibration: Vc 910 mV at 2.4 GHz, sliding (910 − 784)
        // mV over (2400 − 900) MHz, spread 2.2 mV shrinking 0.8 mV per GHz.
        let calibrated = TimingFailureModel {
            vc_at_ref: 910.0,
            ref_frequency: F24,
            slope_mv_per_mhz: 126.0 / 1500.0,
            sigma_at_ref: 2.2,
            sigma_slope: 0.8,
        };
        assert_eq!(xgene2(), calibrated);
    }

    #[test]
    fn zynq_model_fails_past_its_own_vc() {
        let m = TimingFailureModel::for_platform(&PlatformSpec::zynq_mpsoc());
        let f = Megahertz::new(1500);
        assert!(m.pfail(Millivolts::new(850), f) < 1e-9);
        assert!(m.pfail(Millivolts::new(720), f) > 0.9);
    }

    #[test]
    fn critical_voltage_tracks_frequency() {
        let m = xgene2();
        assert!((m.critical_voltage_mv(F24) - 910.0).abs() < 1e-9);
        assert!((m.critical_voltage_mv(F09) - 784.0).abs() < 1e-9);
        assert!(m.critical_voltage_mv(Megahertz::new(1500)) < 910.0);
    }

    #[test]
    fn paper_safe_points_are_safe() {
        let m = xgene2();
        // 920 mV @ 2.4 GHz: pfail ≈ Φ(−3.5) ≈ 2e-4 — rare enough that
        // hundreds of runs pass (and the paper calls it safe).
        assert!(m.pfail(Millivolts::new(920), F24) < 1e-3);
        // 790 mV @ 900 MHz similarly.
        assert!(m.pfail(Millivolts::new(790), F09) < 1e-3);
    }

    #[test]
    fn paper_dead_points_are_dead() {
        let m = xgene2();
        assert!(m.pfail(Millivolts::new(900), F24) > 0.9);
        assert!(m.pfail(Millivolts::new(780), F09) > 0.6);
        assert!(m.pfail(Millivolts::new(775), F09) > 0.98);
    }

    #[test]
    fn failure_window_shorter_at_900mhz() {
        // Fig. 4: the pfail ramp spans ~20 mV at 2.4 GHz but only ~10 mV at
        // 900 MHz.
        let m = xgene2();
        assert!(m.sigma_mv(F09) < m.sigma_mv(F24));
    }

    #[test]
    fn pfail_monotone_decreasing_in_voltage() {
        let m = xgene2();
        let mut prev = 1.1;
        for mv in (860..=980).step_by(5) {
            let p = m.pfail(Millivolts::new(mv), F24);
            assert!(p <= prev, "{mv} mV");
            prev = p;
        }
    }

    #[test]
    fn sampling_matches_probability() {
        let m = xgene2();
        let mut rng = SimRng::seed_from(3);
        let v = Millivolts::new(905);
        let p = m.pfail(v, F24);
        let n = 20_000;
        let fails = (0..n)
            .filter(|_| m.sample_run_fails(&mut rng, v, F24))
            .count();
        let freq = fails as f64 / n as f64;
        assert!((freq - p).abs() < 0.02, "{freq} vs {p}");
    }

    #[test]
    fn vc_offset_shifts_the_whole_curve() {
        let m = xgene2();
        let fast = m.with_vc_offset(-10.0);
        let slow = m.with_vc_offset(10.0);
        assert!((fast.critical_voltage_mv(F24) - 900.0).abs() < 1e-9);
        assert!((slow.critical_voltage_mv(F09) - 794.0).abs() < 1e-9);
        // A slower chip fails earlier at every voltage.
        let v = Millivolts::new(915);
        assert!(slow.pfail(v, F24) > m.pfail(v, F24));
        assert!(fast.pfail(v, F24) < m.pfail(v, F24));
    }

    #[test]
    fn vmin_stable_up_to_50_celsius() {
        // §3.4: "the safe Vmin was not affected up to 50 °C". At the
        // paper's Vmin (920 mV) the hot-die failure probability must stay
        // characterization-grade small.
        let m = xgene2();
        let hot = m.at_temperature(Celsius::new(50.0));
        assert!(hot.pfail(Millivolts::new(920), F24) < 1e-3);
        // And the shift stays under one regulator step across the window.
        let shift = hot.critical_voltage_mv(F24) - m.critical_voltage_mv(F24);
        assert!(shift > 0.0 && shift < 5.0, "shift = {shift} mV");
    }

    #[test]
    fn cold_die_gains_margin() {
        let m = xgene2();
        let cold = m.at_temperature(Celsius::new(20.0));
        assert!(cold.critical_voltage_mv(F24) < m.critical_voltage_mv(F24));
        let v = Millivolts::new(915);
        assert!(cold.pfail(v, F24) < m.pfail(v, F24));
    }

    #[test]
    fn sigma_floor() {
        let m = TimingFailureModel {
            vc_at_ref: 900.0,
            ref_frequency: F24,
            slope_mv_per_mhz: 0.1,
            sigma_at_ref: 1.5,
            sigma_slope: 10.0,
        };
        // Extremely low frequency: sigma clamps at 1 mV, never non-positive.
        assert_eq!(m.sigma_mv(Megahertz::new(300)), 1.0);
    }
}
