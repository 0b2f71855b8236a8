//! The DVFS operating table the paper deliberately *disabled*.
//!
//! §3.1: "the Dynamic Voltage and Frequency Scaling (DVFS) of the
//! microprocessor is not enabled during our experiments. DVFS uses nominal
//! voltage levels for each different frequency." Modelling the table
//! anyway buys two things: the platform model is complete, and the
//! undervolting story can be quantified *against* DVFS — the paper's
//! implicit comparison (guardband harvesting beats frequency throttling
//! when performance matters).
//!
//! The table assigns each PLL step its conservative nominal voltage on a
//! linear V/f rule anchored at the platform's specified corners (for the
//! X-Gene 2, 980 mV @ 2.4 GHz) with a retention-ish floor for the slowest
//! states, both read from the [`PlatformSpec`]. The characterized *safe*
//! voltage at each frequency sits well below the DVFS nominal — that gap
//! is the guardband of §4.1.

use serscale_types::{Megahertz, Millivolts};

use crate::platform::OperatingPoint;
use crate::spec::PlatformSpec;

/// One DVFS performance state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PState {
    /// The state's clock frequency.
    pub frequency: Megahertz,
    /// The conservative (nominal) PMD voltage DVFS would apply.
    pub voltage: Millivolts,
}

impl PState {
    /// The operating point DVFS would set for this state, given the SoC
    /// rail nominal (DVFS never scales the SoC domain on the modelled
    /// platforms).
    pub fn operating_point_with(&self, soc_nominal: Millivolts) -> OperatingPoint {
        OperatingPoint {
            pmd: self.voltage,
            soc: soc_nominal,
            frequency: self.frequency,
        }
    }
}

/// A platform's DVFS table: every PLL grid step from the spec's minimum
/// to its maximum frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    states: Vec<PState>,
    soc_nominal: Millivolts,
}

impl DvfsTable {
    /// Builds a platform's table: one P-state per PLL grid step, nominal
    /// voltage linear in frequency with slope `(Vnom − floor) / (f_max −
    /// f_lowanchor)`, clamped to the spec's DVFS floor, top state at the
    /// PMD rail nominal.
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        let nominal = f64::from(spec.pmd_rail.nominal.get());
        let floor = f64::from(spec.dvfs_floor.get());
        let f_max = f64::from(spec.freq_max.get());
        let f_anchor = f64::from(spec.vmin.low_freq.get());
        let slope = (nominal - floor) / (f_max - f_anchor);
        let steps = spec.freq_min.get() / Megahertz::STEP..=spec.freq_max.get() / Megahertz::STEP;
        let states = steps
            .map(|i| {
                let frequency = Megahertz::new(i * Megahertz::STEP);
                let raw = nominal - (f_max - f64::from(frequency.get())) * slope;
                let clamped = raw.max(floor);
                // Snap up to the 5 mV regulator grid (nominal must be
                // safe).
                let step = f64::from(Millivolts::STEP);
                let mv = ((clamped / step).ceil() * step) as u32;
                PState {
                    frequency,
                    voltage: Millivolts::new(mv),
                }
            })
            .collect();
        DvfsTable {
            states,
            soc_nominal: spec.soc_rail.nominal,
        }
    }

    /// The X-Gene 2 table: 8 P-states, 300 MHz → 2.4 GHz.
    pub fn xgene2() -> Self {
        Self::for_platform(&PlatformSpec::xgene2())
    }

    /// All P-states, slowest first.
    pub fn states(&self) -> &[PState] {
        &self.states
    }

    /// The state for an exact grid frequency.
    pub fn state_at(&self, frequency: Megahertz) -> Option<PState> {
        self.states
            .iter()
            .copied()
            .find(|s| s.frequency == frequency)
    }

    /// The DVFS nominal voltage for a grid frequency.
    pub fn nominal_voltage(&self, frequency: Megahertz) -> Option<Millivolts> {
        self.state_at(frequency).map(|s| s.voltage)
    }

    /// The full operating point DVFS would set at a grid frequency, with
    /// the SoC rail at the platform's nominal.
    pub fn operating_point_at(&self, frequency: Megahertz) -> Option<OperatingPoint> {
        self.state_at(frequency)
            .map(|s| s.operating_point_with(self.soc_nominal))
    }

    /// The guardband DVFS leaves on the table at a frequency: the gap
    /// between its conservative nominal and a characterized safe Vmin.
    ///
    /// Returns `None` for off-grid frequencies; `Some(0)` if the
    /// characterization somehow sits above the nominal.
    pub fn guardband_at(&self, frequency: Megahertz, safe_vmin: Millivolts) -> Option<u32> {
        self.nominal_voltage(frequency)
            .map(|nominal| nominal.get().saturating_sub(safe_vmin.get()))
    }
}

impl Default for DvfsTable {
    fn default() -> Self {
        Self::xgene2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn table() -> DvfsTable {
        DvfsTable::xgene2()
    }

    #[test]
    fn eight_states_on_the_pll_grid() {
        let t = table();
        assert_eq!(t.states().len(), 8);
        for (i, s) in t.states().iter().enumerate() {
            assert_eq!(s.frequency.get(), (i as u32 + 1) * 300);
            assert!(s.frequency.is_step_aligned());
            assert!(s.voltage.is_step_aligned());
        }
    }

    #[test]
    fn top_state_is_the_chip_nominal() {
        let t = table();
        assert_eq!(
            t.nominal_voltage(Megahertz::new(2400)),
            Some(Millivolts::new(980))
        );
    }

    #[test]
    fn voltages_monotone_in_frequency() {
        let t = table();
        for pair in t.states().windows(2) {
            assert!(pair[0].voltage <= pair[1].voltage);
        }
    }

    #[test]
    fn slow_states_hit_the_floor() {
        let t = table();
        assert_eq!(
            t.nominal_voltage(Megahertz::new(300)),
            Some(Millivolts::new(850))
        );
    }

    #[test]
    fn dvfs_nominal_at_900mhz_leaves_a_big_guardband() {
        // DVFS would run 900 MHz at ~850–855 mV? No: 980 − 1500·0.0867 =
        // 850 floor-adjacent… and the characterized safe Vmin is 790 mV.
        let t = table();
        let nominal = t.nominal_voltage(Megahertz::new(900)).unwrap();
        assert!(nominal >= Millivolts::new(850), "nominal = {nominal}");
        let guardband = t
            .guardband_at(Megahertz::new(900), Millivolts::new(790))
            .unwrap();
        assert!(guardband >= 60, "guardband = {guardband} mV");
    }

    #[test]
    fn dvfs_points_validate_against_the_regulator() {
        let soc = Platform::default();
        let t = table();
        for s in t.states() {
            let point = t.operating_point_at(s.frequency).unwrap();
            soc.validate(point)
                .unwrap_or_else(|e| panic!("{}: {e}", s.frequency));
        }
    }

    #[test]
    fn zynq_table_spans_its_own_grid() {
        let spec = PlatformSpec::zynq_mpsoc();
        let t = DvfsTable::for_platform(&spec);
        assert_eq!(t.states().len(), 5); // 300 MHz → 1.5 GHz
        assert_eq!(
            t.nominal_voltage(Megahertz::new(1500)),
            Some(Millivolts::new(850))
        );
        let soc = crate::platform::Platform::from_spec(&spec);
        for s in t.states() {
            let point = t.operating_point_at(s.frequency).unwrap();
            soc.validate(point)
                .unwrap_or_else(|e| panic!("{}: {e}", s.frequency));
        }
    }

    #[test]
    fn off_grid_lookup_is_none() {
        assert_eq!(table().state_at(Megahertz::new(1000)), None);
    }
}
