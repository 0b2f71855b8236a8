//! Operating-policy comparison: DVFS throttling vs guardband harvesting.
//!
//! The paper's framing (§1) is that undervolting saves power *without
//! giving up performance*, unlike frequency scaling. This module makes
//! the three-way comparison concrete at each frequency on the PLL grid:
//!
//! * **DVFS**: the conservative P-state — the frequency's *nominal*
//!   voltage from the [`serscale_soc::dvfs`] table (what the platform
//!   does out of the box; the paper disabled it);
//! * **Harvested**: the same frequency at its characterized safe Vmin
//!   plus a configurable margin (Design implication #2's posture);
//! * and the relative performance each carries (∝ f for these
//!   compute-bound kernels).
//!
//! The output quantifies the paper's pitch: at full frequency, harvesting
//! buys most of a P-state's power saving at zero performance cost — at
//! the price of the SER increase the beam campaign measured.

use serscale_soc::dvfs::DvfsTable;
use serscale_soc::platform::OperatingPoint;
use serscale_soc::{PlatformSpec, PowerModel};
use serscale_types::{Fit, Megahertz, Millivolts, Watts, NYC_SEA_LEVEL_FLUX};

use crate::dut::DeviceUnderTest;

/// One frequency's three-way comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyRow {
    /// The clock frequency.
    pub frequency: Megahertz,
    /// Relative performance (1.0 at 2.4 GHz).
    pub performance: f64,
    /// The DVFS P-state voltage and power.
    pub dvfs_voltage: Millivolts,
    /// Power at the DVFS P-state.
    pub dvfs_power: Watts,
    /// The harvested (safe Vmin + margin) voltage and power.
    pub harvested_voltage: Millivolts,
    /// Power at the harvested point.
    pub harvested_power: Watts,
    /// Predicted SDC FIT at the harvested point (NYC).
    pub harvested_sdc_fit: Fit,
    /// Predicted SDC FIT at the DVFS point (NYC).
    pub dvfs_sdc_fit: Fit,
}

impl PolicyRow {
    /// The extra power harvesting saves over DVFS at this frequency.
    pub fn harvest_dividend(&self) -> Watts {
        self.dvfs_power - self.harvested_power
    }

    /// The SER price of that dividend: harvested/DVFS SDC-FIT ratio.
    pub fn ser_price(&self) -> f64 {
        self.harvested_sdc_fit.get() / self.dvfs_sdc_fit.get().max(1e-12)
    }
}

/// Builds the comparison across the PLL grid.
///
/// `margin_steps` is how many 5 mV regulator steps above the characterized
/// Vmin the harvested point sits (Design implication #2 argues for ≥ 2).
pub fn compare_policies(margin_steps: u32) -> Vec<PolicyRow> {
    compare_policies_for(&PlatformSpec::xgene2(), margin_steps)
}

/// [`compare_policies`] on an arbitrary platform: the DVFS table, power
/// model, Vmin anchors and rail caps all come from the spec.
pub fn compare_policies_for(spec: &PlatformSpec, margin_steps: u32) -> Vec<PolicyRow> {
    let table = DvfsTable::for_platform(spec);
    let power_model = PowerModel::for_platform(spec);
    let mean_consume: f64 = serscale_workload::Benchmark::ALL
        .iter()
        .map(|b| b.profile().consume_probability())
        .sum::<f64>()
        / 6.0;

    table
        .states()
        .iter()
        .map(|state| {
            let frequency = state.frequency;
            let vmin = spec.vmin_at(frequency);
            let harvested_voltage = vmin.stepped_up(margin_steps);
            let dvfs_point = table
                .operating_point_at(frequency)
                .expect("state comes from its own table");
            let harvested_point = OperatingPoint {
                pmd: harvested_voltage,
                soc: Millivolts::new(harvested_voltage.get().min(spec.soc_rail.nominal.get())),
                frequency,
            };
            let sdc_fit = |point: OperatingPoint| {
                let dut = DeviceUnderTest::for_platform(spec, point, vmin);
                Fit::new(dut.datapath_sigma().fit_at(NYC_SEA_LEVEL_FLUX).get() * mean_consume)
            };
            PolicyRow {
                frequency,
                performance: frequency.ratio_to(spec.freq_max),
                dvfs_voltage: state.voltage,
                dvfs_power: power_model.total_power(dvfs_point),
                harvested_voltage,
                harvested_power: power_model.total_power(harvested_point),
                harvested_sdc_fit: sdc_fit(harvested_point),
                dvfs_sdc_fit: sdc_fit(dvfs_point),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<PolicyRow> {
        compare_policies(2)
    }

    #[test]
    fn covers_the_pll_grid() {
        let rows = rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[7].frequency, Megahertz::new(2400));
        assert!((rows[7].performance - 1.0).abs() < 1e-12);
        assert!((rows[0].performance - 0.125).abs() < 1e-12);
    }

    #[test]
    fn harvesting_always_undercuts_dvfs_power() {
        for row in rows() {
            assert!(
                row.harvested_power < row.dvfs_power,
                "{}: {} !< {}",
                row.frequency,
                row.harvested_power,
                row.dvfs_power
            );
            assert!(row.harvested_voltage < row.dvfs_voltage);
        }
    }

    #[test]
    fn full_frequency_harvest_matches_the_papers_numbers() {
        // At 2.4 GHz, DVFS = nominal (980 mV, 20.40 W) and harvesting at
        // Vmin+2 steps = the paper's 930 mV "safe" point (~18.8 W):
        // ~1.6 W for free, performance untouched.
        let top = rows().into_iter().last().unwrap();
        assert_eq!(top.dvfs_voltage, Millivolts::new(980));
        assert_eq!(top.harvested_voltage, Millivolts::new(930));
        let dividend = top.harvest_dividend().get();
        assert!((1.0..2.5).contains(&dividend), "dividend = {dividend} W");
    }

    #[test]
    fn ser_price_is_finite_and_modest_at_margin_two() {
        // Two steps above Vmin keeps the SDC amplification off the cliff:
        // the price stays low single-digit at every frequency.
        for row in rows() {
            let price = row.ser_price();
            assert!(price >= 1.0, "{}: price {price}", row.frequency);
            assert!(price < 6.0, "{}: price {price}", row.frequency);
        }
    }

    #[test]
    fn zero_margin_pays_the_cliff() {
        // Sitting exactly on Vmin multiplies the SER price enormously at
        // full frequency — the quantitative form of implication #2.
        let on_cliff = compare_policies(0).into_iter().last().unwrap();
        let with_margin = compare_policies(2).into_iter().last().unwrap();
        assert!(
            on_cliff.ser_price() > 3.0 * with_margin.ser_price(),
            "cliff {} vs margin {}",
            on_cliff.ser_price(),
            with_margin.ser_price()
        );
    }

    #[test]
    fn zynq_policies_ride_their_own_grid() {
        let spec = PlatformSpec::zynq_mpsoc();
        let rows = compare_policies_for(&spec, 2);
        let top = rows.last().expect("non-empty grid");
        assert_eq!(top.frequency, spec.freq_max);
        assert!((top.performance - 1.0).abs() < 1e-12);
        for row in &rows {
            assert!(
                row.harvested_voltage <= spec.pmd_rail.nominal,
                "{}: harvested {} above the Zynq rail",
                row.frequency,
                row.harvested_voltage
            );
            assert!(
                row.harvested_power < row.dvfs_power || row.harvested_voltage == row.dvfs_voltage
            );
            assert!(row.ser_price() >= 1.0);
        }
    }

    #[test]
    fn performance_is_what_dvfs_gives_up() {
        // The whole point: to save what harvesting saves at 2.4 GHz, DVFS
        // must drop at least one P-state — and every P-state costs 12.5%
        // performance.
        let rows = rows();
        let top = &rows[7];
        let one_down = &rows[6];
        assert!(one_down.dvfs_power < top.harvested_power + Watts::new(3.0));
        assert!(one_down.performance < top.performance);
    }
}
