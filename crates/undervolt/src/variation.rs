//! Chip-to-chip variation: fleet-scale Vmin characterization.
//!
//! The paper characterizes one specimen; its related work (§7 — Kaliorakis
//! \[36\], Karakonstantis \[37\], Tovletoglou \[74\]) measures *populations* of
//! chips and finds the safe Vmin varies part to part. For a datacenter
//! operator this is the operative question: the fleet's safe undervolt is
//! set by its *weakest* chip unless voltages are managed per node.
//!
//! [`ChipPopulation`] draws per-specimen [`TimingFailureModel`]s around
//! the golden model (critical voltage shifted by a normal process spread),
//! and [`FleetCharacterization`] runs the §4.1 sweep on every specimen to
//! produce the fleet Vmin distribution and the uniform-vs-per-chip energy
//! comparison.

use serscale_soc::PlatformSpec;
use serscale_stats::summary::Summary;
use serscale_stats::SimRng;
use serscale_types::{Megahertz, Millivolts};

use crate::characterize::Characterizer;
use crate::timing::TimingFailureModel;

/// A manufacturing population of chips around a platform's golden
/// timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPopulation {
    /// The typical specimen.
    golden: TimingFailureModel,
    /// Chip-to-chip sigma of the critical voltage (mV).
    vc_sigma_mv: f64,
    /// The platform's PMD nominal, where every specimen's sweep starts.
    nominal: Millivolts,
    /// The platform's characterization floor, where sweeps give up.
    floor: Millivolts,
}

impl ChipPopulation {
    /// A population around the paper's specimen with an 8 mV chip-to-chip
    /// spread — the order reported by multi-chip studies on the same
    /// platform family (\[74\] measured guardbands differing by tens of mV
    /// across server-grade Armv8 parts).
    pub fn xgene2_fleet() -> Self {
        Self::new(&PlatformSpec::xgene2(), 8.0)
    }

    /// A population around a platform's specimen, swept over its own
    /// rail range.
    ///
    /// # Panics
    ///
    /// Panics if `vc_sigma_mv` is negative or non-finite.
    pub fn new(spec: &PlatformSpec, vc_sigma_mv: f64) -> Self {
        assert!(
            vc_sigma_mv.is_finite() && vc_sigma_mv >= 0.0,
            "chip spread must be finite and non-negative"
        );
        ChipPopulation {
            golden: TimingFailureModel::for_platform(spec),
            vc_sigma_mv,
            nominal: spec.pmd_rail.nominal,
            floor: spec.sweep_floor,
        }
    }

    /// The chip-to-chip critical-voltage sigma.
    pub const fn vc_sigma_mv(&self) -> f64 {
        self.vc_sigma_mv
    }

    /// Draws one specimen: the golden model with its critical voltage
    /// shifted by a process offset (same shift at every frequency — the
    /// dominant mode in silicon is a chip-wide speed grade).
    pub fn sample_chip(&self, rng: &mut SimRng) -> TimingFailureModel {
        let offset = rng.normal(0.0, self.vc_sigma_mv);
        self.golden.with_vc_offset(offset)
    }
}

/// The fleet-wide characterization outcome at one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCharacterization {
    /// The swept frequency.
    pub frequency: Megahertz,
    /// Per-chip safe Vmins, in specimen order.
    pub vmins: Vec<Millivolts>,
}

impl FleetCharacterization {
    /// Characterizes `chips` specimens with the given per-chip sweep
    /// effort.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    pub fn run(
        rng: &mut SimRng,
        population: &ChipPopulation,
        frequency: Megahertz,
        chips: u32,
        trials_per_benchmark: u32,
    ) -> Self {
        assert!(chips > 0, "need at least one chip");
        let mut vmins = Vec::with_capacity(chips as usize);
        for chip in 0..chips {
            let mut chip_rng = rng.fork_indexed("chip", u64::from(chip));
            let specimen = population.sample_chip(&mut chip_rng);
            let harness = Characterizer::new(specimen, trials_per_benchmark);
            let curve = harness.sweep_range(
                &mut chip_rng,
                frequency,
                population.nominal,
                population.floor,
            );
            // A specimen whose sweep fails immediately has no safe level
            // below nominal; it pins the fleet at nominal.
            vmins.push(curve.safe_vmin().unwrap_or(population.nominal));
        }
        FleetCharacterization { frequency, vmins }
    }

    /// The number of characterized chips.
    pub fn chips(&self) -> usize {
        self.vmins.len()
    }

    /// The fleet-safe uniform undervolt: the *maximum* (weakest-chip)
    /// Vmin.
    pub fn uniform_safe_vmin(&self) -> Millivolts {
        *self.vmins.iter().max().expect("at least one chip")
    }

    /// The strongest chip's Vmin.
    pub fn best_chip_vmin(&self) -> Millivolts {
        *self.vmins.iter().min().expect("at least one chip")
    }

    /// Mean and standard deviation of the per-chip Vmins, in mV.
    pub fn vmin_stats(&self) -> (f64, f64) {
        let s: Summary = self.vmins.iter().map(|v| f64::from(v.get())).collect();
        let sd = if s.count() > 1 {
            s.sample_std_dev()
        } else {
            0.0
        };
        (s.mean(), sd)
    }

    /// The per-chip-management dividend: how many extra millivolts the
    /// *average* chip can drop below the uniform fleet setting when every
    /// node is driven at its own Vmin (as the adaptive schemes in \[43\],
    /// \[49\] do).
    pub fn per_chip_dividend_mv(&self) -> f64 {
        let (mean, _) = self.vmin_stats();
        f64::from(self.uniform_safe_vmin().get()) - mean
    }

    /// Histogram of Vmins on the 5 mV grid, as `(voltage, count)` in
    /// ascending-voltage order.
    pub fn histogram(&self) -> Vec<(Millivolts, u32)> {
        let mut out: Vec<(Millivolts, u32)> = Vec::new();
        let mut sorted = self.vmins.clone();
        sorted.sort();
        for v in sorted {
            match out.last_mut() {
                Some((bin, count)) if *bin == v => *count += 1,
                _ => out.push((v, 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(seed: u64, chips: u32) -> FleetCharacterization {
        let mut rng = SimRng::seed_from(seed);
        FleetCharacterization::run(
            &mut rng,
            &ChipPopulation::xgene2_fleet(),
            Megahertz::new(2400),
            chips,
            40,
        )
    }

    #[test]
    fn fleet_vmins_spread_around_the_papers_chip() {
        let f = fleet(1, 40);
        let (mean, sd) = f.vmin_stats();
        // The paper's specimen (920 mV) sits inside the fleet spread.
        assert!((mean - 920.0).abs() < 10.0, "mean = {mean}");
        assert!(sd > 3.0 && sd < 15.0, "sd = {sd}");
    }

    #[test]
    fn uniform_setting_is_pinned_by_the_weakest_chip() {
        let f = fleet(2, 40);
        assert!(f.uniform_safe_vmin() >= Millivolts::new(920));
        assert!(f.uniform_safe_vmin() > f.best_chip_vmin());
        for v in &f.vmins {
            assert!(*v <= f.uniform_safe_vmin());
        }
    }

    #[test]
    fn per_chip_management_pays() {
        let f = fleet(3, 40);
        // With an 8 mV chip sigma, driving each chip at its own Vmin buys
        // the average node a measurable extra undervolt.
        let dividend = f.per_chip_dividend_mv();
        assert!(dividend > 5.0, "dividend = {dividend} mV");
        assert!(dividend < 60.0, "dividend = {dividend} mV");
    }

    #[test]
    fn histogram_counts_all_chips() {
        let f = fleet(4, 25);
        let total: u32 = f.histogram().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 25);
        // Bins ascend.
        for pair in f.histogram().windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn zero_spread_population_is_uniform() {
        let pop = ChipPopulation::new(&PlatformSpec::xgene2(), 0.0);
        let mut rng = SimRng::seed_from(5);
        let f = FleetCharacterization::run(&mut rng, &pop, Megahertz::new(2400), 10, 60);
        let (_, sd) = f.vmin_stats();
        assert!(sd < 3.0, "sd = {sd}");
    }

    #[test]
    fn characterization_is_deterministic() {
        assert_eq!(fleet(6, 10), fleet(6, 10));
    }
}
