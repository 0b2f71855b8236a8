//! Die-temperature bookkeeping.
//!
//! The paper ran its campaign "in a temperature-aware manner": the DUT sat
//! at 40–45 °C under beam (verified by periodic measurements), and the
//! offline characterization confirmed the safe Vmin did not move up to
//! 50 °C (§3.4). This module provides the corresponding model: a
//! junction-to-ambient thermal resistance turning package power into die
//! temperature, and the safe-window check the campaign harness performs.

use serscale_types::{Celsius, Watts};

/// A lumped thermal model: `T_die = T_ambient + θJA · P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    ambient: Celsius,
    /// Junction-to-ambient thermal resistance (°C/W).
    theta_ja: f64,
}

impl ThermalModel {
    /// The beam-room setup: ~20 °C room, a server-heatsink ~1.1 °C/W —
    /// which puts the die at 42–43 °C at the 20.4 W nominal draw, inside
    /// the paper's measured 40–45 °C band.
    pub fn beam_room() -> Self {
        ThermalModel {
            ambient: Celsius::new(20.0),
            theta_ja: 1.1,
        }
    }

    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `theta_ja` is not positive and finite.
    pub fn new(ambient: Celsius, theta_ja: f64) -> Self {
        assert!(
            theta_ja.is_finite() && theta_ja > 0.0,
            "θJA must be positive"
        );
        ThermalModel { ambient, theta_ja }
    }

    /// The ambient temperature.
    pub const fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// The junction-to-ambient resistance in °C/W.
    pub const fn theta_ja(&self) -> f64 {
        self.theta_ja
    }

    /// Die temperature at a package power draw.
    pub fn die_temperature(&self, power: Watts) -> Celsius {
        Celsius::new(self.ambient.get() + self.theta_ja * power.get())
    }

    /// The paper's Vmin-stability ceiling: the characterization verified
    /// the safe Vmin up to 50 °C; above it the campaign's attribution
    /// argument (errors ⇒ radiation) would no longer hold.
    pub fn vmin_stable_ceiling() -> Celsius {
        Celsius::new(50.0)
    }

    /// Whether a power draw keeps the die inside the Vmin-stable window.
    pub fn within_vmin_stable_window(&self, power: Watts) -> bool {
        self.die_temperature(power) <= Self::vmin_stable_ceiling()
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::beam_room()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlatformSpec, PowerModel};

    /// The X-Gene 2's package power at each campaign point, nominal
    /// first.
    fn campaign_power() -> Vec<(String, Watts)> {
        let spec = PlatformSpec::xgene2();
        let model = PowerModel::for_platform(&spec);
        spec.campaign
            .iter()
            .map(|c| (c.label.clone(), model.total_power(c.point)))
            .collect()
    }

    #[test]
    fn nominal_draw_lands_in_the_papers_band() {
        let thermal = ThermalModel::beam_room();
        let power = campaign_power()[0].1;
        let t = thermal.die_temperature(power);
        assert!(
            t.is_within(Celsius::new(40.0), Celsius::new(45.0)),
            "die at {t} for {power}"
        );
    }

    #[test]
    fn every_campaign_point_is_vmin_stable() {
        // Lower-power points run cooler, so the whole campaign stays
        // inside the 50 °C stability window the paper verified.
        let thermal = ThermalModel::beam_room();
        for (label, power) in campaign_power() {
            assert!(
                thermal.within_vmin_stable_window(power),
                "{label} at {}",
                thermal.die_temperature(power)
            );
        }
    }

    #[test]
    fn undervolting_cools_the_die() {
        let thermal = ThermalModel::beam_room();
        let power = campaign_power();
        // Nominal against 790 mV / 900 MHz.
        let hot = thermal.die_temperature(power[0].1);
        let cool = thermal.die_temperature(power[3].1);
        assert!(cool < hot);
        assert!(hot.get() - cool.get() > 8.0, "{hot} vs {cool}");
    }

    #[test]
    fn hot_ambient_violates_the_window() {
        let desert = ThermalModel::new(Celsius::new(45.0), 1.1);
        let power = campaign_power()[0].1;
        assert!(!desert.within_vmin_stable_window(power));
    }
}
