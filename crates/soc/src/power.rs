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
    /// The model fitted to the paper's Figure 9 measurements (see module
    /// docs).
    pub fn xgene2() -> Self {
        let nominal = OperatingPoint::nominal();
        PowerModel {
            pmd_dynamic: 13.00,
            pmd_static: 0.00,
            soc_dynamic: 7.25,
            soc_static: 0.15,
            pmd_nominal: nominal.pmd,
            soc_nominal: nominal.soc,
            freq_nominal: nominal.frequency,
        }
    }

    /// Builds a model from a platform spec's power block, anchored at the
    /// spec's rail nominals and maximum frequency.
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        Self::new(
            spec.power.pmd_dynamic_w,
            spec.power.pmd_static_w,
            spec.power.soc_dynamic_w,
            spec.power.soc_static_w,
            spec.pmd_rail.nominal,
            spec.soc_rail.nominal,
            spec.freq_max,
        )
    }

    /// Creates a model from explicit constants (all in watts at nominal).
    ///
    /// # Panics
    ///
    /// Panics if any constant is negative or non-finite.
    pub fn new(
        pmd_dynamic: f64,
        pmd_static: f64,
        soc_dynamic: f64,
        soc_static: f64,
        pmd_nominal: Millivolts,
        soc_nominal: Millivolts,
        freq_nominal: Megahertz,
    ) -> Self {
        for (name, v) in [
            ("pmd_dynamic", pmd_dynamic),
            ("pmd_static", pmd_static),
            ("soc_dynamic", soc_dynamic),
            ("soc_static", soc_static),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative"
            );
        }
        PowerModel {
            pmd_dynamic,
            pmd_static,
            soc_dynamic,
            soc_static,
            pmd_nominal,
            soc_nominal,
            freq_nominal,
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
    /// use serscale_soc::{platform::OperatingPoint, PowerModel};
    ///
    /// let model = PowerModel::xgene2();
    /// let p = model.total_power(OperatingPoint::nominal());
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

impl Default for PowerModel {
    fn default() -> Self {
        Self::xgene2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_POINTS: [(OperatingPoint, f64); 4] = [
        (OperatingPoint::nominal(), 20.40),
        (OperatingPoint::safe(), 18.63),
        (OperatingPoint::vmin_2400(), 18.15),
        (OperatingPoint::vmin_900(), 10.59),
    ];

    #[test]
    fn calibration_matches_figure9_within_300mw() {
        let model = PowerModel::xgene2();
        for (point, paper) in PAPER_POINTS {
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
        let model = PowerModel::xgene2();
        let base = OperatingPoint::nominal();
        // Paper: 8.7%, 11.0%, 48.1%. The model's smooth fit lands within
        // ~1.5 percentage points.
        let s930 = model.savings(OperatingPoint::safe(), base);
        let s920 = model.savings(OperatingPoint::vmin_2400(), base);
        let s790 = model.savings(OperatingPoint::vmin_900(), base);
        assert!((s930 - 0.087).abs() < 0.015, "s930 = {s930}");
        assert!((s920 - 0.110).abs() < 0.015, "s920 = {s920}");
        assert!((s790 - 0.481).abs() < 0.015, "s790 = {s790}");
        assert!(s930 < s920 && s920 < s790);
    }

    #[test]
    fn power_monotone_in_voltage() {
        let model = PowerModel::xgene2();
        let mut prev = f64::INFINITY;
        for mv in [980u32, 960, 940, 920, 900] {
            let point = OperatingPoint {
                pmd: Millivolts::new(mv),
                soc: Millivolts::new(920),
                frequency: Megahertz::new(2400),
            };
            let p = model.total_power(point).get();
            assert!(p < prev);
            prev = p;
        }
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let model = PowerModel::xgene2();
        let at = |f: u32| {
            model
                .pmd_power(OperatingPoint {
                    pmd: Millivolts::new(980),
                    soc: Millivolts::new(950),
                    frequency: Megahertz::new(f),
                })
                .get()
        };
        // Pure dynamic PMD: halving f halves PMD power.
        assert!((at(1200) / at(2400) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn soc_power_ignores_frequency() {
        let model = PowerModel::xgene2();
        let mut p = OperatingPoint::nominal();
        let a = model.soc_power(p);
        p.frequency = Megahertz::new(300);
        assert_eq!(model.soc_power(p), a);
    }

    #[test]
    fn spec_built_model_matches_the_calibrated_one() {
        assert_eq!(
            PowerModel::for_platform(&PlatformSpec::xgene2()),
            PowerModel::xgene2()
        );
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
        let model = PowerModel::xgene2();
        let base = model.total_power(OperatingPoint::nominal());
        let heavy = model.workload_power(OperatingPoint::nominal(), 1.04);
        assert!((heavy.get() / base.get() - 1.04).abs() < 1e-9);
    }
}
