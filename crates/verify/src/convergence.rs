//! The streaming-vs-batch Garwood consistency oracle.
//!
//! The telemetry crate's convergence plane computes Garwood confidence
//! intervals *incrementally*, from counts streamed through observer
//! callbacks; `serscale-stats` computes the same intervals *in batch*
//! from a final count. The live `/convergence` numbers are only as
//! trustworthy as the claim that both paths agree — this oracle pins it:
//! random synthetic campaigns are streamed through a
//! [`ConvergenceTracker`] while an independent tally accumulates the
//! same counts, and every cell's interval must match the batch
//! [`poisson_ci`] on the tallied count **bit for bit**. The k=0 and k=1
//! edge cases (satellite of the Garwood lower-bound fix) are asserted
//! explicitly.

use std::collections::BTreeMap;

use serscale_core::classify::RunVerdict;
use serscale_soc::edac::EdacSeverity;
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_stats::ci::{poisson_ci, poisson_relative_uncertainty};
use serscale_stats::SimRng;
use serscale_telemetry::convergence::{ConvergenceTracker, CI_LEVEL, TARGET_REL_HALFWIDTH};
use serscale_types::{ArrayKind, SimDuration, SimInstant};

use crate::oracle::{CheckResult, OracleContext, OracleFamily, OracleReport, StatOracle};

/// Asserts the streaming Garwood implementation in
/// `serscale-telemetry`'s convergence plane agrees with the batch
/// Garwood-CI code in `serscale-stats` on identical counts.
pub struct StreamingGarwood;

impl StatOracle for StreamingGarwood {
    fn name(&self) -> &'static str {
        "streaming-garwood"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "the convergence plane's streamed per-cell Garwood intervals are bit-identical \
         to the batch poisson_ci on the same counts, including the k=0 and k=1 edges"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let mut checks = Vec::new();
        for arm in 0..ctx.budget.seeds {
            let seed = ctx.probe_seed(self.name(), arm);
            checks.extend(stream_one_arm(arm, seed));
        }
        checks.push(edge_cases());
        self.report(checks)
    }
}

/// Independent tally of what one synthetic stream fed the tracker.
#[derive(Default)]
struct Tally {
    /// `(point label, array) → (masked, due, sdc)`.
    cells: BTreeMap<(String, ArrayKind), (u64, u64, u64)>,
    /// `point label → accumulated live seconds` (same `+=` order as the
    /// tracker, so the f64 values are bit-identical).
    live: BTreeMap<String, f64>,
}

/// Streams one random synthetic campaign through a tracker and an
/// independent tally, then compares every cell's counts and intervals.
fn stream_one_arm(arm: u64, seed: u64) -> Vec<CheckResult> {
    let mut rng = SimRng::seed_from(seed);
    let mut tracker = ConvergenceTracker::new();
    let mut tally = Tally::default();

    let campaign: Vec<OperatingPoint> = PlatformSpec::xgene2().campaign_points().collect();
    let sessions = 2 + rng.below(4);
    for _ in 0..sessions {
        let point = campaign[rng.below(campaign.len() as u64) as usize];
        let label = point.label();
        tracker.session_start(point);
        let trials = rng.below(60);
        for _ in 0..trials {
            let verdict = if rng.chance(0.05) {
                RunVerdict::Sdc {
                    with_hw_notification: rng.chance(0.5),
                }
            } else if rng.chance(0.05) {
                RunVerdict::AppCrash
            } else {
                RunVerdict::Correct
            };
            tracker.run(verdict);
            let events = rng.below(3);
            for _ in 0..events {
                let array = ArrayKind::ALL[rng.below(ArrayKind::ALL.len() as u64) as usize];
                let severity = if rng.chance(0.8) {
                    EdacSeverity::Corrected
                } else {
                    EdacSeverity::Uncorrected
                };
                tracker.edac(array, severity);
                let slot = tally.cells.entry((label.clone(), array)).or_default();
                match severity {
                    EdacSeverity::Corrected => slot.0 += 1,
                    EdacSeverity::Uncorrected => {
                        if matches!(verdict, RunVerdict::Sdc { .. }) {
                            slot.2 += 1;
                        } else {
                            slot.1 += 1;
                        }
                    }
                }
            }
        }
        let secs = rng.uniform_in(100.0, 5000.0);
        tracker.session_end(SimInstant::EPOCH + SimDuration::from_secs(secs));
        *tally.live.entry(label).or_default() += secs;
    }

    let snapshot = tracker.snapshot();
    let mut count_mismatches = Vec::new();
    let mut ci_mismatches = Vec::new();
    let mut cells_checked = 0u64;
    for point in &snapshot.points {
        let live = tally.live.get(&point.voltage).copied().unwrap_or(0.0);
        let hours = live / 3600.0;
        for cell in &point.cells {
            cells_checked += 1;
            let (masked, due, sdc) = tally
                .cells
                .get(&(point.voltage.clone(), cell.array))
                .copied()
                .unwrap_or((0, 0, 0));
            if (cell.masked, cell.due, cell.sdc) != (masked, due, sdc) {
                count_mismatches.push(format!(
                    "{} {}: streamed ({},{},{}) tallied ({masked},{due},{sdc})",
                    point.voltage, cell.array, cell.masked, cell.due, cell.sdc
                ));
                continue;
            }
            let events = masked + due + sdc;
            // The batch reference: the same counts through serscale-stats
            // directly, normalized with the same f64 live-time.
            let (lo, hi) = poisson_ci(events, CI_LEVEL);
            let (want_lo, want_hi) = if live > 0.0 {
                (lo / hours, hi / hours)
            } else {
                (0.0, 0.0)
            };
            let want_rel = poisson_relative_uncertainty(events);
            let exact = cell.ci_lower_per_hour.to_bits() == want_lo.to_bits()
                && cell.ci_upper_per_hour.to_bits() == want_hi.to_bits()
                && cell.rel_halfwidth.to_bits() == want_rel.to_bits();
            if !exact {
                ci_mismatches.push(format!(
                    "{} {} k={events}: streamed [{}, {}] rel {} vs batch [{want_lo}, \
                     {want_hi}] rel {want_rel}",
                    point.voltage,
                    cell.array,
                    cell.ci_lower_per_hour,
                    cell.ci_upper_per_hour,
                    cell.rel_halfwidth
                ));
            }
        }
    }
    vec![
        CheckResult::new(
            format!("arm-{arm}-streamed-counts-match-tally"),
            count_mismatches.is_empty(),
            if count_mismatches.is_empty() {
                format!("{cells_checked} cells, all outcome-class counts agree")
            } else {
                count_mismatches.join("; ")
            },
        ),
        CheckResult::new(
            format!("arm-{arm}-streamed-ci-bits-match-batch"),
            ci_mismatches.is_empty(),
            if ci_mismatches.is_empty() {
                format!("{cells_checked} cells bit-identical at level {CI_LEVEL}")
            } else {
                ci_mismatches.join("; ")
            },
        ),
    ]
}

/// The integer-exact edge cases: k=0's lower bound is exactly zero and
/// its relative width infinite (never resolved); k=1 has both tails
/// finite, ordered and strictly positive on the upper side.
fn edge_cases() -> CheckResult {
    let (lo0, hi0) = poisson_ci(0, CI_LEVEL);
    let (lo1, hi1) = poisson_ci(1, CI_LEVEL);
    let rel0 = poisson_relative_uncertainty(0);
    let rel1 = poisson_relative_uncertainty(1);

    let mut tracker = ConvergenceTracker::new();
    tracker.session_start(PlatformSpec::xgene2().nominal_point());
    tracker.run(RunVerdict::Correct);
    tracker.edac(ArrayKind::L1Data, EdacSeverity::Corrected);
    tracker.session_end(SimInstant::EPOCH + SimDuration::from_secs(3600.0));
    let snapshot = tracker.snapshot();
    let k1 = snapshot.points[0]
        .cells
        .iter()
        .find(|c| c.array == ArrayKind::L1Data)
        .expect("L1D cell");
    let k0 = snapshot.points[0]
        .cells
        .iter()
        .find(|c| c.array == ArrayKind::L3Shared)
        .expect("L3 cell");

    let passed = lo0.to_bits() == 0.0f64.to_bits()
        && hi0.is_finite()
        && hi0 > 0.0
        && rel0.is_infinite()
        && lo1 > 0.0
        && lo1.is_finite()
        && hi1.is_finite()
        && lo1 < hi1
        && rel1.is_finite()
        && rel1 > TARGET_REL_HALFWIDTH
        && k0.ci_lower_per_hour.to_bits() == 0.0f64.to_bits()
        && !k0.resolved
        && k1.ci_lower_per_hour.to_bits() == lo1.to_bits()
        && k1.ci_upper_per_hour.to_bits() == hi1.to_bits();
    CheckResult::new(
        "garwood-k0-k1-edges",
        passed,
        format!(
            "k=0: [{lo0}, {hi0}] rel {rel0}; k=1: [{lo1}, {hi1}] rel {rel1}; \
             streamed k=0 lower {}, k=1 [{}, {}]",
            k0.ci_lower_per_hour, k1.ci_lower_per_hour, k1.ci_upper_per_hour
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrialBudget;

    #[test]
    fn streaming_garwood_holds_across_seeds() {
        for seed in [1, 7, 20231028] {
            let ctx = OracleContext::new(seed, TrialBudget::small());
            let report = StreamingGarwood.run(&ctx);
            assert!(
                report.passed(),
                "seed {seed}: {:?}",
                report.violations().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn edge_case_check_is_exact() {
        let check = edge_cases();
        assert!(check.passed, "{}", check.detail);
    }
}
