//! Checkpoint/restart economics: does undervolting pay once you have to
//! recover from the failures it causes?
//!
//! The paper's introduction leaves this open:
//!
//! > "Semiconductor vendors mitigate soft errors in CPUs with error
//! > recovery mechanisms, which introduce overheads and negatively affect
//! > power consumption. … Therefore, it is unclear whether energy savings
//! > from reduced voltage margins outweigh the overhead of error recovery
//! > mechanisms."
//!
//! This module answers it quantitatively for the classic
//! checkpoint/restart scheme (\[26\] Dongarra et al. in the paper). Given a
//! failure rate (from the campaign's measured FIT at an operating point)
//! and a checkpoint cost, Young/Daly's first-order optimum gives the
//! checkpoint interval `τ* = √(2·C·MTBF)` and an expected execution-time
//! inflation; combining that inflation with the operating point's power
//! draw yields *energy per unit of useful work* — the metric that decides
//! whether an undervolted machine actually comes out ahead.

use serscale_soc::platform::OperatingPoint;
use serscale_soc::PowerModel;
use serscale_types::{Fit, SimDuration, Watts};
use serscale_workload::profile::RUNTIME_REFERENCE_MHZ;

/// A checkpoint/restart configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointScheme {
    /// Time to write one checkpoint.
    pub checkpoint_cost: SimDuration,
    /// Time to restore from the last checkpoint after a failure.
    pub restart_cost: SimDuration,
}

impl CheckpointScheme {
    /// A typical in-memory/NVMe checkpoint for a node-sized footprint:
    /// 30 s to write, 60 s to restore (plus the work lost since the last
    /// checkpoint, which the model accounts separately).
    pub fn typical() -> Self {
        CheckpointScheme {
            checkpoint_cost: SimDuration::from_secs(30.0),
            restart_cost: SimDuration::from_secs(60.0),
        }
    }

    /// Creates a scheme.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint cost is zero (the optimum degenerates).
    pub fn new(checkpoint_cost: SimDuration, restart_cost: SimDuration) -> Self {
        assert!(
            !checkpoint_cost.is_zero(),
            "checkpoint cost must be positive"
        );
        CheckpointScheme {
            checkpoint_cost,
            restart_cost,
        }
    }

    /// Young/Daly's first-order optimal checkpoint interval for a given
    /// mean time between failures: `τ* = √(2·C·MTBF)`.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf` is zero.
    pub fn optimal_interval(&self, mtbf: SimDuration) -> SimDuration {
        assert!(!mtbf.is_zero(), "MTBF must be positive");
        SimDuration::from_secs((2.0 * self.checkpoint_cost.as_secs() * mtbf.as_secs()).sqrt())
    }

    /// The expected execution-time inflation factor (≥ 1) at the optimal
    /// interval: useful time `w` costs `w × waste(τ*)` of wall time.
    ///
    /// First-order model: per interval `τ`, overheads are the checkpoint
    /// write `C`, plus — with probability `τ/MTBF` — a restart `R` and on
    /// average `τ/2` of lost work.
    pub fn inflation_factor(&self, mtbf: SimDuration) -> f64 {
        let tau = self.optimal_interval(mtbf).as_secs();
        let c = self.checkpoint_cost.as_secs();
        let r = self.restart_cost.as_secs();
        let m = mtbf.as_secs();
        1.0 + c / tau + (tau / m) * (r / tau + 0.5)
    }
}

impl Default for CheckpointScheme {
    fn default() -> Self {
        Self::typical()
    }
}

/// The end-to-end ledger of running at one operating point with
/// checkpointing sized to its measured failure rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingLedger {
    /// The operating point.
    pub point: OperatingPoint,
    /// The failure rate driving the recovery machinery.
    pub fit: Fit,
    /// Mean time between failures implied by the FIT.
    pub mtbf: SimDuration,
    /// Optimal checkpoint interval at this failure rate.
    pub checkpoint_interval: SimDuration,
    /// Wall-time inflation (≥ 1) paid for checkpoint/restart.
    pub inflation: f64,
    /// Package power at the operating point.
    pub power: Watts,
    /// Energy per unit of useful work, normalized so nominal = 1 when
    /// built through [`compare_to_nominal`].
    pub energy_per_work: f64,
}

/// Builds the ledger for one operating point given its measured FIT.
///
/// # Panics
///
/// Panics if `fit` is zero (no failures ⇒ no checkpointing needed; the
/// comparison is then trivial).
pub fn ledger(
    point: OperatingPoint,
    fit: Fit,
    scheme: &CheckpointScheme,
    power_model: &PowerModel,
) -> OperatingLedger {
    // The promised validation, stated here and not left to `Fit::mttf`'s
    // incidental assert: zero FIT would make the MTBF infinite, the
    // optimal interval infinite, and `inflation_factor` ∞/∞ = NaN — which
    // `compare_to_nominal` would then silently propagate.
    assert!(
        fit.get() > 0.0,
        "ledger undefined at zero FIT (no failures ⇒ no checkpointing needed)"
    );
    let mtbf = fit.mttf();
    let inflation = scheme.inflation_factor(mtbf);
    let power = power_model.total_power(point);
    OperatingLedger {
        point,
        fit,
        mtbf,
        checkpoint_interval: scheme.optimal_interval(mtbf),
        inflation,
        power,
        // Energy per unit work ∝ power × wall-time inflation. (Frequency
        // scaling additionally stretches the work itself.)
        energy_per_work: power.get()
            * inflation
            * (RUNTIME_REFERENCE_MHZ / f64::from(point.frequency.get())),
    }
}

/// Compares scaled operating points against the nominal one, the first
/// ledger (required): for each other ledger, the *net* energy ratio per
/// unit of useful work (below 1.0 = undervolting pays even after recovery
/// overheads).
pub fn compare_to_nominal(ledgers: &[OperatingLedger]) -> Vec<(OperatingPoint, f64)> {
    let nominal = ledgers
        .first()
        .expect("nominal ledger required as baseline");
    ledgers
        .iter()
        .filter(|l| l.point != nominal.point)
        .map(|l| (l.point, l.energy_per_work / nominal.energy_per_work))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_soc::PlatformSpec;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    fn scheme() -> CheckpointScheme {
        CheckpointScheme::typical()
    }

    #[test]
    fn daly_interval_formula() {
        // C = 30 s, MTBF = 15000 s ⇒ τ* = √(2·30·15000) ≈ 948.7 s.
        let tau = scheme().optimal_interval(SimDuration::from_secs(15_000.0));
        assert!((tau.as_secs() - 948.68).abs() < 0.1);
    }

    #[test]
    fn inflation_grows_as_mtbf_shrinks() {
        let s = scheme();
        let healthy = s.inflation_factor(SimDuration::from_hours(1000.0));
        let sick = s.inflation_factor(SimDuration::from_hours(1.0));
        assert!(healthy < sick);
        assert!(healthy > 1.0 && healthy < 1.01, "healthy = {healthy}");
        assert!(sick > 1.05, "sick = {sick}");
    }

    #[test]
    fn inflation_minimal_sanity_against_brute_force() {
        // τ* should (approximately) minimize the waste function over τ.
        let s = scheme();
        let mtbf = SimDuration::from_hours(2.0);
        let waste = |tau: f64| {
            1.0 + s.checkpoint_cost.as_secs() / tau
                + (tau / mtbf.as_secs()) * (s.restart_cost.as_secs() / tau + 0.5)
        };
        let opt = s.optimal_interval(mtbf).as_secs();
        let at_opt = waste(opt);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            assert!(
                at_opt <= waste(opt * factor) + 1e-9,
                "waste({}) < waste(τ*)",
                opt * factor
            );
        }
    }

    #[test]
    fn beam_accelerated_rates_make_checkpointing_visible() {
        // Under the accelerated beam (MTBF ≈ 20 min at Vmin) the inflation
        // is dramatic; at natural NYC rates it is negligible — which is
        // why datacenters can contemplate undervolting at all.
        let s = scheme();
        let beam = s.inflation_factor(SimDuration::from_minutes(20.0));
        let natural = s.inflation_factor(SimDuration::from_hours(1.0e6));
        assert!(beam > 1.2, "beam inflation = {beam}");
        assert!(natural < 1.001, "natural inflation = {natural}");
    }

    #[test]
    fn ledgers_and_comparison() {
        let power = PowerModel::for_platform(&PlatformSpec::xgene2());
        let s = scheme();
        // Use the paper's Fig. 11 FITs scaled up ×1e6 (a harsh radiation
        // environment) so recovery costs are non-trivial.
        let ledgers = vec![
            ledger(xgene2_point("Nominal"), Fit::new(8.31e6), &s, &power),
            ledger(xgene2_point("Safe"), Fit::new(8.66e6), &s, &power),
            ledger(xgene2_point("Vmin"), Fit::new(54.8e6), &s, &power),
        ];
        let cmp = compare_to_nominal(&ledgers);
        assert_eq!(cmp.len(), 2);
        // 930 mV: slightly more failures, 8% less power ⇒ wins.
        let safe = cmp
            .iter()
            .find(|(p, _)| *p == xgene2_point("Safe"))
            .unwrap();
        assert!(safe.1 < 1.0, "930 mV net ratio = {}", safe.1);
        // Vmin: 6.6× failures can erode or reverse the win depending on
        // the environment; at ×1e6 NYC it must at least be worse than the
        // 930 mV point.
        let vmin = cmp
            .iter()
            .find(|(p, _)| *p == xgene2_point("Vmin"))
            .unwrap();
        assert!(vmin.1 > safe.1, "Vmin must pay more recovery than 930 mV");
    }

    #[test]
    #[should_panic(expected = "ledger undefined at zero FIT")]
    fn zero_fit_ledger_panics_instead_of_nan() {
        let _ = ledger(
            xgene2_point("Nominal"),
            Fit::ZERO,
            &scheme(),
            &PowerModel::for_platform(&PlatformSpec::xgene2()),
        );
    }

    #[test]
    fn mtbf_roundtrip() {
        let l = ledger(
            xgene2_point("Nominal"),
            Fit::new(1000.0),
            &scheme(),
            &PowerModel::for_platform(&PlatformSpec::xgene2()),
        );
        assert!((l.mtbf.as_hours() - 1.0e6).abs() < 1.0);
        assert!(l.inflation >= 1.0);
    }
}
