//! Differential oracle for the batched arrival sampler.
//!
//! The hot path in `serscale-core` draws one Poisson arrival count per
//! trial from a cached rate envelope and splits events across sources
//! multinomially; the reference path rebuilds the envelope from the
//! physics every trial and classifies each strike through the real
//! encode/decode codecs. The two must consume the RNG stream
//! **draw-for-draw identically** — same counts, same event positions,
//! same EDAC record order — at every operating point. Any divergence
//! (a skipped draw on the zero-upset short-circuit, a reordered source
//! walk, a cached `p_extra` drifting from the recomputed one) breaks
//! campaign determinism silently, so this oracle diffs trial outcomes
//! *and* a post-trial stream sentinel, then cross-checks a whole
//! session through the wave engine at `jobs` 1 and 8 against the
//! per-event reference executor.

use serscale_core::campaign::CampaignRunOptions;
use serscale_core::classify::RunVerdict;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::runner::BenchmarkRunner;
use serscale_core::session::{SessionLimits, TestSession};
use serscale_core::trace::NoopObserver;
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, Megahertz, Millivolts, SimDuration, SimInstant};
use serscale_workload::Benchmark;

use crate::oracle::{CheckResult, OracleContext, OracleFamily, OracleReport, StatOracle};

/// The beam flux the sampler probes run under (the experiments' working
/// flux).
const PROBE_FLUX: f64 = 1.5e6;

/// Derives a pseudo-random but reproducible operating point from a probe
/// seed: PMD and SoC rails on the 5 mV regulator grid inside the paper's
/// explored band (790–980 mV), frequency anywhere in 900–2400 MHz.
pub fn probed_operating_point(seed: u64) -> OperatingPoint {
    let mut rng = SimRng::seed_from(seed);
    let pmd = 790 + 5 * rng.below(39) as u32; // 790..=980
    let soc = 900 + 5 * rng.below(11) as u32; // 900..=950
    let frequency = 900 + rng.below(1501) as u32; // 900..=2400
    OperatingPoint {
        pmd: Millivolts::new(pmd),
        soc: Millivolts::new(soc),
        frequency: Megahertz::new(frequency),
    }
}

fn runner_at(point: OperatingPoint) -> BenchmarkRunner {
    let vmin = DeviceUnderTest::paper_vmin(point.frequency);
    BenchmarkRunner::new(
        DeviceUnderTest::xgene2(point, vmin),
        Flux::per_cm2_s(PROBE_FLUX),
    )
}

/// Runs `trials` counter-derived trial streams through both paths at one
/// operating point. Returns `(diverged_trial, edac_records, events)`:
/// the first trial whose outcome or post-trial stream position differed
/// (`None` when all agree), plus activity counters so the caller can
/// prove the probe exercised non-trivial physics.
fn diff_trials(point: OperatingPoint, root_seed: u64, trials: u64) -> (Option<u64>, u64, u64) {
    let mut batched = runner_at(point);
    let mut reference = runner_at(point);
    let root = SimRng::seed_from(root_seed);
    let mut edac = 0u64;
    let mut events = 0u64;
    for trial in 0..trials {
        let benchmark = Benchmark::ALL[(trial % Benchmark::ALL.len() as u64) as usize];
        // The exact per-trial stream recipe the session driver uses.
        let mut fast_rng = root.stream("trial", &[trial]);
        let mut slow_rng = root.stream("trial", &[trial]);
        let fast = batched.run_once(&mut fast_rng, benchmark, SimInstant::EPOCH);
        let slow = reference.run_once_reference(&mut slow_rng, benchmark, SimInstant::EPOCH);
        // Sentinel draw: equal outcomes with unequal stream positions
        // would still desynchronize every later consumer.
        if fast != slow || fast_rng.uniform() != slow_rng.uniform() {
            return (Some(trial), edac, events);
        }
        edac += fast.edac.len() as u64;
        events += u64::from(fast.verdict != RunVerdict::Correct) + fast.sram_strikes;
    }
    (None, edac, events)
}

/// The batched sampler and the per-event reference consume RNG streams
/// identically (same counts, same event positions, same EDAC record
/// order) across random operating points, and the wave engine built on
/// the batched path matches the per-event reference executor at `jobs`
/// 1 and 8.
pub struct SamplerEquivalence;

impl StatOracle for SamplerEquivalence {
    fn name(&self) -> &'static str {
        "batched-sampler-equivalence"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "Batched arrival sampling consumes RNG streams exactly as the per-event reference"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let mut checks = Vec::new();

        // Trial-level: the four campaign points plus `seeds` randomized
        // ones, each probed over enough trials to see real strikes.
        let trials = 120 * ctx.budget.seeds;
        let mut points: Vec<(String, OperatingPoint)> = PlatformSpec::xgene2()
            .campaign_points()
            .map(|p| (p.label(), p))
            .collect();
        for k in 0..ctx.budget.seeds {
            let point = probed_operating_point(ctx.probe_seed(self.name(), k));
            points.push((format!("random-{k} ({})", point.label()), point));
        }
        let mut total_edac = 0u64;
        let mut total_events = 0u64;
        for (i, (label, point)) in points.iter().enumerate() {
            let seed = ctx.probe_seed(self.name(), 100 + i as u64);
            let (diverged, edac, events) = diff_trials(*point, seed, trials);
            total_edac += edac;
            total_events += events;
            checks.push(CheckResult::new(
                format!("trials-{label}"),
                diverged.is_none(),
                match diverged {
                    None => format!("{trials} trials draw-identical ({edac} EDAC records)"),
                    Some(t) => format!("outcome or stream position diverged at trial {t}"),
                },
            ));
        }
        checks.push(CheckResult::new(
            "probe-activity",
            total_edac > 0 && total_events > 0,
            format!(
                "probes exercised real physics: {total_edac} EDAC records, {total_events} strikes+events"
            ),
        ));

        // Session-level: the batched wave engine against the per-event
        // reference executor, at one randomized point, jobs 1 and 8.
        let point = probed_operating_point(ctx.probe_seed(self.name(), 7));
        let seed = ctx.probe_seed(self.name(), 8);
        let limits =
            SessionLimits::time_boxed(SimDuration::from_minutes(ctx.budget.session_minutes));
        let session = || {
            let vmin = DeviceUnderTest::paper_vmin(point.frequency);
            TestSession::new(
                DeviceUnderTest::xgene2(point, vmin),
                Flux::per_cm2_s(PROBE_FLUX),
                limits,
            )
        };
        let reference = session().run_reference(&mut SimRng::seed_from(seed), &mut NoopObserver);
        for jobs in [1usize, 8] {
            let wave = session()
                .try_run(
                    &mut SimRng::seed_from(seed),
                    0,
                    &mut CampaignRunOptions::with_jobs(jobs),
                    &mut NoopObserver,
                )
                .expect("a run with no journal and no cancel token cannot fail");
            let agree = wave == reference;
            checks.push(CheckResult::new(
                format!("session-jobs-{jobs}"),
                agree,
                if agree {
                    format!(
                        "batched session at jobs={jobs} identical to per-event reference \
                         ({} runs at {})",
                        reference.runs,
                        point.label()
                    )
                } else {
                    format!(
                        "batched session at jobs={jobs} diverged at {}",
                        point.label()
                    )
                },
            ));
        }

        self.report(checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrialBudget;
    use proptest::prelude::*;

    #[test]
    fn sampler_oracle_passes() {
        let report = SamplerEquivalence.run(&OracleContext::new(0x5a3b, TrialBudget::small()));
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn probed_points_stay_on_the_regulator_grid() {
        for seed in 0..200 {
            let p = probed_operating_point(seed);
            assert!((790..=980).contains(&p.pmd.get()) && p.pmd.get().is_multiple_of(5));
            assert!((900..=950).contains(&p.soc.get()) && p.soc.get().is_multiple_of(5));
            assert!((900..=2400).contains(&p.frequency.get()));
        }
    }

    proptest! {
        /// Batched and per-event trials agree — outcome and stream
        /// position — at arbitrary grid operating points and seeds.
        #[test]
        fn batched_and_reference_trials_draw_identically(
            pmd_step in 0u32..=38,
            soc_step in 0u32..=10,
            frequency in 900u32..=2400,
            seed in any::<u64>(),
        ) {
            let point = OperatingPoint {
                pmd: Millivolts::new(790 + 5 * pmd_step),
                soc: Millivolts::new(900 + 5 * soc_step),
                frequency: Megahertz::new(frequency),
            };
            let (diverged, _, _) = diff_trials(point, seed, 48);
            prop_assert_eq!(diverged, None, "at {}", point.label());
        }

        /// The wave engine over the batched path reproduces the
        /// per-event reference executor at jobs 1 and 8. Sessions are
        /// kept short — the per-trial sweep above carries the volume.
        #[test]
        fn batched_sessions_match_reference_at_jobs_1_and_8(
            point_seed in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let point = probed_operating_point(point_seed);
            let limits = SessionLimits::time_boxed(SimDuration::from_minutes(2.0));
            let session = || {
                let vmin = DeviceUnderTest::paper_vmin(point.frequency);
                TestSession::new(
                    DeviceUnderTest::xgene2(point, vmin),
                    Flux::per_cm2_s(PROBE_FLUX),
                    limits,
                )
            };
            let reference =
                session().run_reference(&mut SimRng::seed_from(seed), &mut NoopObserver);
            for jobs in [1usize, 8] {
                let wave = session()
                    .try_run(
                        &mut SimRng::seed_from(seed),
                        0,
                        &mut CampaignRunOptions::with_jobs(jobs),
                        &mut NoopObserver,
                    )
                    .expect("a run with no journal and no cancel token cannot fail");
                prop_assert_eq!(&wave, &reference, "jobs {} at {}", jobs, point.label());
            }
        }
    }
}
