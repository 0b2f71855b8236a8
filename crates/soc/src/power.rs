//! The package power model.
//!
//! Per voltage domain, `P(V, f) = P_dyn·(V/V₀)²·(f/f₀) + P_static·(V/V₀)`
//! — the standard `αCV²f` dynamic term (§1 of the paper) plus a
//! supply-proportional static term. The four constants are least-squares
//! fitted (with non-negativity) against the four package-power measurements
//! Figure 9 reports:
//!
//! | operating point | paper | model |
//! |---|---|---|
//! | 980 mV / 950 mV @ 2.4 GHz | 20.40 W | 20.40 W |
//! | 930 mV / 925 mV @ 2.4 GHz | 18.63 W | 18.73 W |
//! | 920 mV / 920 mV @ 2.4 GHz | 18.15 W | 18.40 W |
//! | 790 mV / 950 mV @ 900 MHz | 10.59 W | 10.57 W |
//!
//! The fit attributes the PMD draw almost entirely to the dynamic term at
//! these near-nominal, full-utilization operating points (the 900 MHz point
//! pins the frequency scaling, the three 2.4 GHz points the voltage curve).

use serscale_types::{Megahertz, Millivolts, Watts};

use crate::platform::OperatingPoint;
use crate::spec::PlatformSpec;

/// The calibrated two-domain power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    pmd_dynamic: f64,
    pmd_static: f64,
    soc_dynamic: f64,
    soc_static: f64,
    pmd_nominal: Millivolts,
    soc_nominal: Millivolts,
    freq_nominal: Megahertz,
}

impl PowerModel {
    /// Builds a model from a platform spec's power block (watts at
    /// nominal, finite and non-negative by validation), anchored at the
    /// spec's rail nominals and maximum frequency. The X-Gene 2's block
    /// holds the Figure 9 fit of the module docs.
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        PowerModel {
            pmd_dynamic: spec.power.pmd_dynamic_w,
            pmd_static: spec.power.pmd_static_w,
            soc_dynamic: spec.power.soc_dynamic_w,
            soc_static: spec.power.soc_static_w,
            pmd_nominal: spec.pmd_rail.nominal,
            soc_nominal: spec.soc_rail.nominal,
            freq_nominal: spec.freq_max,
        }
    }

    /// PMD-domain power at the given operating point.
    pub fn pmd_power(&self, point: OperatingPoint) -> Watts {
        let rv = point.pmd.ratio_to(self.pmd_nominal);
        let rf = point.frequency.ratio_to(self.freq_nominal);
        Watts::new(self.pmd_dynamic * rv * rv * rf + self.pmd_static * rv)
    }

    /// SoC-domain power at the given operating point (the SoC clock is not
    /// scaled in the experiments, so only voltage enters).
    pub fn soc_power(&self, point: OperatingPoint) -> Watts {
        let rv = point.soc.ratio_to(self.soc_nominal);
        Watts::new(self.soc_dynamic * rv * rv + self.soc_static * rv)
    }

    /// Total package power (both scaled domains).
    ///
    /// ```
    /// use serscale_soc::{PlatformSpec, PowerModel};
    ///
    /// let spec = PlatformSpec::xgene2();
    /// let model = PowerModel::for_platform(&spec);
    /// let p = model.total_power(spec.nominal_point());
    /// assert!((p.get() - 20.40).abs() < 0.05);
    /// ```
    pub fn total_power(&self, point: OperatingPoint) -> Watts {
        self.pmd_power(point) + self.soc_power(point)
    }

    /// Total power scaled by a per-workload factor (Fig. 9 averages the six
    /// benchmarks; individual kernels draw a few percent more or less).
    pub fn workload_power(&self, point: OperatingPoint, power_factor: f64) -> Watts {
        assert!(power_factor > 0.0, "power factor must be positive");
        self.total_power(point) * power_factor
    }

    /// Fractional power savings of `point` relative to `baseline`
    /// (Figure 10's y-axis).
    pub fn savings(&self, point: OperatingPoint, baseline: OperatingPoint) -> f64 {
        self.total_power(point)
            .savings_vs(self.total_power(baseline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::for_platform(&PlatformSpec::xgene2())
    }

    fn point(pmd: u32, soc: u32, frequency: u32) -> OperatingPoint {
        OperatingPoint {
            pmd: Millivolts::new(pmd),
            soc: Millivolts::new(soc),
            frequency: Megahertz::new(frequency),
        }
    }

    /// Figure 9's four measured points: `(pmd, soc, MHz, watts)`.
    const PAPER_POINTS: [(u32, u32, u32, f64); 4] = [
        (980, 950, 2400, 20.40),
        (930, 925, 2400, 18.63),
        (920, 920, 2400, 18.15),
        (790, 950, 900, 10.59),
    ];

    #[test]
    fn calibration_matches_figure9_within_300mw() {
        let model = model();
        for (pmd, soc, frequency, paper) in PAPER_POINTS {
            let point = point(pmd, soc, frequency);
            let p = model.total_power(point).get();
            assert!(
                (p - paper).abs() < 0.30,
                "{}: {p} vs {paper}",
                point.label()
            );
        }
    }

    #[test]
    fn savings_match_figure10() {
        let model = model();
        let base = point(980, 950, 2400);
        // Paper: 8.7%, 11.0%, 48.1%. The model's smooth fit lands within
        // ~1.5 percentage points.
        let s930 = model.savings(point(930, 925, 2400), base);
        let s920 = model.savings(point(920, 920, 2400), base);
        let s790 = model.savings(point(790, 950, 900), base);
        assert!((s930 - 0.087).abs() < 0.015, "s930 = {s930}");
        assert!((s920 - 0.110).abs() < 0.015, "s920 = {s920}");
        assert!((s790 - 0.481).abs() < 0.015, "s790 = {s790}");
        assert!(s930 < s920 && s920 < s790);
    }

    #[test]
    fn power_monotone_in_voltage() {
        let model = model();
        let mut prev = f64::INFINITY;
        for mv in [980u32, 960, 940, 920, 900] {
            let p = model.total_power(point(mv, 920, 2400)).get();
            assert!(p < prev);
            prev = p;
        }
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let model = model();
        let at = |f: u32| model.pmd_power(point(980, 950, f)).get();
        // Pure dynamic PMD: halving f halves PMD power.
        assert!((at(1200) / at(2400) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn soc_power_ignores_frequency() {
        let model = model();
        let mut p = point(980, 950, 2400);
        let a = model.soc_power(p);
        p.frequency = Megahertz::new(300);
        assert_eq!(model.soc_power(p), a);
    }

    #[test]
    fn spec_built_model_matches_the_calibrated_one() {
        // The least-squares fit of the module docs, in watts at 980 mV /
        // 950 mV / 2.4 GHz.
        let fitted = PowerModel {
            pmd_dynamic: 13.00,
            pmd_static: 0.00,
            soc_dynamic: 7.25,
            soc_static: 0.15,
            pmd_nominal: Millivolts::new(980),
            soc_nominal: Millivolts::new(950),
            freq_nominal: Megahertz::new(2400),
        };
        assert_eq!(model(), fitted);
    }

    #[test]
    fn zynq_model_draws_mpsoc_scale_power() {
        let spec = PlatformSpec::zynq_mpsoc();
        let model = PowerModel::for_platform(&spec);
        let p = model.total_power(spec.nominal_point()).get();
        assert!(p > 2.0 && p < 6.0, "p = {p} W");
        // Undervolting the APU rail still saves power.
        let vmin = spec.campaign[2].point;
        assert!(model.savings(vmin, spec.nominal_point()) > 0.0);
    }

    #[test]
    fn workload_factor_scales_total() {
        let model = model();
        let nominal = point(980, 950, 2400);
        let base = model.total_power(nominal);
        let heavy = model.workload_power(nominal, 1.04);
        assert!((heavy.get() / base.get() - 1.04).abs() < 1e-9);
    }
}
