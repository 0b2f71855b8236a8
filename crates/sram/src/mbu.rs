//! Multi-bit-upset (MBU) clustering.
//!
//! A single neutron strike deposits charge over a physically contiguous
//! patch of cells; when several of them hold less charge than the deposit,
//! the strike flips a *cluster*. Two facts from the paper drive this model:
//!
//! * lower supply voltage makes multi-cell clusters more likely, because
//!   every cell's `Qcrit` shrinks together (§4.3: "SRAM bit-cells become
//!   more prone … especially to multiple-bit upsets during ultra-low
//!   voltage conditions");
//! * large arrays without interleaving turn physical clusters into logical
//!   multi-bit words — the paper's explanation for uncorrectable errors
//!   appearing *only* in the L3 (§4.3, Fig. 6).
//!
//! The cluster length is `1 + Geometric(p_extra(V))`: each additional
//! adjacent cell joins the cluster with probability `p_extra(V)`, which
//! grows as the voltage drops with the same exponential law as the per-bit
//! cross-section.

use serscale_stats::SimRng;
use serscale_types::Millivolts;

/// The cluster-size model for one technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MbuModel {
    /// Probability that a cluster extends by one more cell, at nominal
    /// voltage.
    p_extra_nominal: f64,
    /// The voltage the calibration refers to.
    nominal_voltage: Millivolts,
    /// Exponential growth rate of `p_extra` as voltage drops.
    voltage_sensitivity: f64,
    /// Hard cap on cluster length (charge deposits are finite).
    max_cluster: u32,
}

impl MbuModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p_extra_nominal < 1`, the sensitivity is finite
    /// and non-negative, and `max_cluster ≥ 1`.
    pub fn new(
        p_extra_nominal: f64,
        nominal_voltage: Millivolts,
        voltage_sensitivity: f64,
        max_cluster: u32,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&p_extra_nominal),
            "extension probability must be in [0,1)"
        );
        assert!(
            voltage_sensitivity.is_finite() && voltage_sensitivity >= 0.0,
            "voltage sensitivity must be finite and non-negative"
        );
        assert!(
            max_cluster >= 1,
            "clusters contain at least the struck cell"
        );
        MbuModel {
            p_extra_nominal,
            nominal_voltage,
            voltage_sensitivity,
            max_cluster,
        }
    }

    /// The cluster-extension probability at the given voltage, clamped
    /// below 1.
    pub fn p_extra(&self, voltage: Millivolts) -> f64 {
        let v_ratio = voltage.ratio_to(self.nominal_voltage);
        (self.p_extra_nominal * (self.voltage_sensitivity * (1.0 - v_ratio)).exp()).min(0.95)
    }

    /// The expected cluster length at the given voltage:
    /// `E[len] = 1/(1-p)` truncated at the cap.
    pub fn mean_cluster_len(&self, voltage: Millivolts) -> f64 {
        let p = self.p_extra(voltage);
        // Mean of 1 + Geometric(p) truncated at max_cluster.
        let mut mean = 0.0;
        let mut prob_reach = 1.0;
        for len in 1..=self.max_cluster {
            let p_stop = if len == self.max_cluster {
                prob_reach
            } else {
                prob_reach * (1.0 - p)
            };
            mean += len as f64 * p_stop;
            prob_reach *= p;
        }
        mean
    }

    /// Samples a cluster length (≥ 1) for a strike at the given voltage.
    pub fn sample_cluster_len(&self, rng: &mut SimRng, voltage: Millivolts) -> u32 {
        self.sample_cluster_len_with(rng, self.p_extra(voltage))
    }

    /// [`Self::sample_cluster_len`] with the extension probability
    /// precomputed — the hot path caches `p_extra(V)` per (array, voltage)
    /// envelope instead of re-deriving the exponential on every strike.
    /// Draw-for-draw identical to the voltage form for the same `p_extra`.
    pub fn sample_cluster_len_with(&self, rng: &mut SimRng, p_extra: f64) -> u32 {
        let mut len = 1;
        while len < self.max_cluster && rng.chance(p_extra) {
            len += 1;
        }
        len
    }

    /// The maximum cluster length this model can produce.
    pub const fn max_cluster(&self) -> u32 {
        self.max_cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The X-Gene 2's PMD-domain calibration (`platforms/xgene2.json`):
    /// the un-interleaved L3 sees ≈4–5 % of its events as ≥2-bit words
    /// (Fig. 6: 0.038 uncorrected vs 0.765 corrected per minute), the
    /// sensitivity equals the per-bit σ's, and clusters stop at 8 cells.
    const P_EXTRA: f64 = 0.047;

    fn model() -> MbuModel {
        MbuModel::new(P_EXTRA, Millivolts::new(980), 3.2, 8)
    }

    #[test]
    fn extension_probability_grows_as_voltage_drops() {
        let m = model();
        let p980 = m.p_extra(Millivolts::new(980));
        let p920 = m.p_extra(Millivolts::new(920));
        let p790 = m.p_extra(Millivolts::new(790));
        assert!(p980 < p920 && p920 < p790);
        assert!((p980 - P_EXTRA).abs() < 1e-12);
    }

    #[test]
    fn extension_probability_is_capped() {
        let m = MbuModel::new(0.5, Millivolts::new(980), 50.0, 8);
        assert!(m.p_extra(Millivolts::new(500)) <= 0.95);
    }

    #[test]
    fn sampled_lengths_within_bounds() {
        let m = model();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10_000 {
            let len = m.sample_cluster_len(&mut rng, Millivolts::new(790));
            assert!((1..=m.max_cluster()).contains(&len));
        }
    }

    #[test]
    fn most_strikes_are_single_bit_at_nominal() {
        let m = model();
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let multi = (0..n)
            .filter(|_| m.sample_cluster_len(&mut rng, Millivolts::new(980)) > 1)
            .count();
        let share = multi as f64 / n as f64;
        // ≈ p_extra = 4.7% of strikes extend beyond one cell.
        assert!((share - 0.047).abs() < 0.01, "share = {share}");
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let m = model();
        let mut rng = SimRng::seed_from(3);
        let v = Millivolts::new(790);
        let n = 50_000;
        let mean = (0..n)
            .map(|_| m.sample_cluster_len(&mut rng, v) as f64)
            .sum::<f64>()
            / n as f64;
        let analytic = m.mean_cluster_len(v);
        assert!((mean - analytic).abs() < 0.02, "{mean} vs {analytic}");
    }

    #[test]
    fn mean_cluster_len_grows_as_voltage_drops() {
        let m = model();
        assert!(
            m.mean_cluster_len(Millivolts::new(790)) > m.mean_cluster_len(Millivolts::new(980))
        );
    }

    #[test]
    fn degenerate_model_always_single() {
        let m = MbuModel::new(0.0, Millivolts::new(980), 0.0, 1);
        let mut rng = SimRng::seed_from(4);
        for _ in 0..100 {
            assert_eq!(m.sample_cluster_len(&mut rng, Millivolts::new(500)), 1);
        }
        assert!((m.mean_cluster_len(Millivolts::new(980)) - 1.0).abs() < 1e-12);
    }
}
