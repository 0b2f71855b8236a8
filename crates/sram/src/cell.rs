//! The weak-cell population: persistent low-voltage bit failures from
//! Random Dopant Fluctuations (RDF).
//!
//! §2.2 of the paper distinguishes *persistent* bit failures — cells whose
//! manufacturing variation leaves them unable to hold/read/write data below
//! a cell-specific minimum voltage — from the *non-persistent* radiation
//! upsets the beam campaign counts. The persistent population is what pins
//! the platform's safe Vmin: the characterization in §4.1 walks voltage
//! down until some structure (an SRAM cell or a timing path) first fails.
//!
//! The standard model (Chishti et al. \[22\], cited by the paper) treats each
//! cell's failure voltage as an i.i.d. normal draw; the expected number of
//! failing cells in an array of `n` bits at supply `V` is then
//! `n · Φ((µ − V)/s)` — astronomically small at nominal voltage and
//! exploding through the tail as `V` approaches `µ + z·s`.
//!
//! The four SRAM failure modes of §2.2 (read, write, read-stability, hold)
//! are carried as metadata: they share the same statistical shape but have
//! slightly different mean failure voltages (hold < read < write in this
//! model, reflecting that retention is the most robust mode).

use serscale_stats::ci::normal_cdf;
use serscale_stats::SimRng;
use serscale_types::Millivolts;

/// The SRAM bit-cell failure modes of §2.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// Read-discharge too slow for the sense amplifier.
    Read,
    /// Internal node cannot reach the written value.
    Write,
    /// Cell contents flip during a read (read-stability).
    ReadStability,
    /// Supply below the cell's data-hold voltage.
    Hold,
}

impl FailureMode {
    /// All modes.
    pub const ALL: [FailureMode; 4] = [
        FailureMode::Read,
        FailureMode::Write,
        FailureMode::ReadStability,
        FailureMode::Hold,
    ];

    /// Offset of this mode's mean failure voltage relative to the
    /// population mean, in mV. Write paths fail first (need the most
    /// headroom); hold fails last.
    pub const fn mean_offset_mv(self) -> f64 {
        match self {
            FailureMode::Write => 15.0,
            FailureMode::Read => 5.0,
            FailureMode::ReadStability => 0.0,
            FailureMode::Hold => -20.0,
        }
    }
}

/// The RDF-induced weak-cell population of an SRAM array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCellPopulation {
    bits: u64,
    /// Mean cell-failure voltage of the read-stability mode (mV).
    mean_vfail: Millivolts,
    /// Cell-to-cell standard deviation (mV).
    sigma_mv: f64,
}

impl WeakCellPopulation {
    /// A default 28 nm population: mean cell-failure voltage of 580 mV with
    /// a 30 mV cell-to-cell sigma. At 980 mV nominal this puts the
    /// expected failing-cell count of even an 8 MB array far below one
    /// (Φ(−13σ)), while dropping toward 750 mV brings the first
    /// persistent failures in — bracketing the paper's measured 790 mV
    /// PMD Vmin at 900 MHz from below, as SRAM should (core timing paths
    /// fail before SRAM retention).
    pub fn tech_28nm(bits: u64) -> Self {
        Self::new(bits, Millivolts::new(580), 30.0)
    }

    /// Creates a population.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_mv` is not positive and finite.
    pub fn new(bits: u64, mean_vfail: Millivolts, sigma_mv: f64) -> Self {
        assert!(
            sigma_mv.is_finite() && sigma_mv > 0.0,
            "sigma must be positive"
        );
        WeakCellPopulation {
            bits,
            mean_vfail,
            sigma_mv,
        }
    }

    /// The number of cells in the array.
    pub const fn bits(&self) -> u64 {
        self.bits
    }

    /// The probability that a single cell fails (read-stability mode) at
    /// the given supply voltage.
    pub fn cell_fail_probability(&self, voltage: Millivolts) -> f64 {
        self.cell_fail_probability_mode(voltage, FailureMode::ReadStability)
    }

    /// The per-cell failure probability for a specific failure mode.
    pub fn cell_fail_probability_mode(&self, voltage: Millivolts, mode: FailureMode) -> f64 {
        let mean = f64::from(self.mean_vfail.get()) + mode.mean_offset_mv();
        let z = (mean - f64::from(voltage.get())) / self.sigma_mv;
        normal_cdf(z)
    }

    /// The expected number of persistently failing cells at the given
    /// voltage (read-stability mode).
    pub fn expected_failing_cells(&self, voltage: Millivolts) -> f64 {
        self.bits as f64 * self.cell_fail_probability(voltage)
    }

    /// The probability that the array contains *at least one* failing cell
    /// at the given voltage: `1 − (1−p)ⁿ`, computed stably in log space.
    pub fn any_cell_fails_probability(&self, voltage: Millivolts) -> f64 {
        let p = self.cell_fail_probability(voltage);
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return 1.0;
        }
        1.0 - ((self.bits as f64) * (1.0 - p).ln()).exp()
    }

    /// Samples the number of failing cells at the given voltage
    /// (Poisson-approximated binomial; exact enough for n·p spanning the
    /// tail regimes this model visits).
    pub fn sample_failing_cells(&self, rng: &mut SimRng, voltage: Millivolts) -> u64 {
        let lambda = self.expected_failing_cells(voltage);
        serscale_stats::poisson::sample_poisson(rng, lambda.min(1.0e6))
    }

    /// The highest voltage (searched on the 5 mV regulator grid between
    /// 500 mV and 1.2 V) at which the expected failing-cell count still
    /// exceeds `threshold` — i.e. the SRAM-limited Vmin from below.
    pub fn sram_vmin(&self, threshold: f64) -> Millivolts {
        let mut result = Millivolts::new(500);
        let mut mv = 500;
        while mv <= 1200 {
            let v = Millivolts::new(mv);
            if self.expected_failing_cells(v) > threshold {
                result = v;
            }
            mv += Millivolts::STEP;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> WeakCellPopulation {
        // 8 MB L3-sized array.
        WeakCellPopulation::tech_28nm(8 * 1024 * 1024 * 8)
    }

    #[test]
    fn no_failures_at_nominal_voltage() {
        let p = pop();
        assert!(p.expected_failing_cells(Millivolts::new(980)) < 1e-6);
        assert!(p.any_cell_fails_probability(Millivolts::new(980)) < 1e-6);
    }

    #[test]
    fn failures_explode_in_the_tail() {
        let p = pop();
        let at_700 = p.expected_failing_cells(Millivolts::new(700));
        let at_650 = p.expected_failing_cells(Millivolts::new(650));
        let at_580 = p.expected_failing_cells(Millivolts::new(580));
        assert!(at_700 < at_650 && at_650 < at_580);
        // At the distribution mean, half the cells fail.
        assert!((at_580 / p.bits() as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn fail_probability_monotone_in_voltage() {
        let p = pop();
        let mut prev = 1.1;
        for mv in (500..=1000).step_by(25) {
            let q = p.cell_fail_probability(Millivolts::new(mv));
            assert!(q <= prev);
            prev = q;
        }
    }

    #[test]
    fn mode_ordering_write_fails_first() {
        let p = pop();
        let v = Millivolts::new(620);
        let write = p.cell_fail_probability_mode(v, FailureMode::Write);
        let read = p.cell_fail_probability_mode(v, FailureMode::Read);
        let stab = p.cell_fail_probability_mode(v, FailureMode::ReadStability);
        let hold = p.cell_fail_probability_mode(v, FailureMode::Hold);
        assert!(write > read && read > stab && stab > hold);
    }

    #[test]
    fn sram_vmin_is_below_measured_platform_vmin() {
        // The paper's platform Vmin (790 mV PMD at 900 MHz) is set by core
        // timing, not SRAM retention; the SRAM-limited floor must sit
        // below it.
        let p = pop();
        let vmin = p.sram_vmin(0.5);
        assert!(vmin < Millivolts::new(790), "sram vmin = {vmin}");
        assert!(vmin > Millivolts::new(550), "sram vmin = {vmin}");
    }

    #[test]
    fn any_cell_fails_bounded() {
        let p = pop();
        for mv in (500..=1000).step_by(50) {
            let q = p.any_cell_fails_probability(Millivolts::new(mv));
            assert!((0.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn sampling_matches_expectation_in_moderate_regime() {
        let p = WeakCellPopulation::new(1_000_000, Millivolts::new(580), 30.0);
        let v = Millivolts::new(650);
        let lambda = p.expected_failing_cells(v);
        let mut rng = SimRng::seed_from(5);
        let n = 2000;
        let mean = (0..n)
            .map(|_| p.sample_failing_cells(&mut rng, v) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() / lambda < 0.05, "{mean} vs {lambda}");
    }
}
