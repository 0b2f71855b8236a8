//! Differential oracles: the same campaign executed through independent
//! engine paths must agree bit for bit.
//!
//! Three paths exist in `serscale-core`:
//!
//! 1. the **naive reference executor** (`run_reference`) — one trial at a
//!    time, absorbed immediately, no speculation;
//! 2. the **sequential wave engine** (`try_run` at `jobs` 1) — speculative
//!    waves merged in canonical trial order, one worker;
//! 3. the **parallel wave engine** (`try_run` at `jobs` > 1) — the same
//!    engine sharded over a worker pool.
//!
//! Because every trial's physics derives from a counter-based stream keyed
//! only by (session seed, trial index), all three must produce identical
//! [`SessionReport`](serscale_core::session::SessionReport)s *and*
//! identical event traces. Any divergence — a speculation leak past a
//! stopping rule, a merge reordering, a worker-count-dependent draw —
//! shows up here as an inequality, with no statistics needed.
//!
//! Below the engines, the kernels have two paths too: the kernels the
//! runner uses resume corrupted runs from golden snapshots or replay them
//! from golden increments, and [`KernelResumeEquivalence`] holds them to
//! the full re-execution.

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::dut::DeviceUnderTest;
use serscale_core::journal::{journal_path, start_or_resume};
use serscale_core::session::{SessionLimits, TestSession};
use serscale_core::trace::{Logbook, NoopObserver};
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, SimDuration};
use serscale_workload::{Benchmark, Corruption, Kernel};

use crate::oracle::{CheckResult, OracleContext, OracleFamily, OracleReport, StatOracle};

/// The worker counts the parallel engine is differentially tested at:
/// below, at, and above the typical core count, plus the degenerate 1.
const JOBS: [usize; 4] = [1, 2, 3, 8];

fn campaign_config(ctx: &OracleContext, oracle: &str) -> CampaignConfig {
    let mut config = CampaignConfig::paper_scaled(ctx.budget.campaign_fraction);
    config.seed = ctx.probe_seed(oracle, 0);
    config
}

fn summarize(report: &CampaignReport) -> String {
    let events: u64 = report.sessions.iter().map(|s| s.error_events()).sum();
    let upsets: u64 = report.sessions.iter().map(|s| s.memory_upsets).sum();
    format!(
        "{} sessions, {upsets} memory upsets, {events} error events",
        report.sessions.len()
    )
}

/// Sequential path, parallel engine at several worker counts, and the
/// naive reference executor produce bit-identical campaign reports.
pub struct EngineEquivalence;

impl StatOracle for EngineEquivalence {
    fn name(&self) -> &'static str {
        "engine-equivalence"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "Reference, sequential and parallel engines agree bit for bit"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let campaign = Campaign::new(campaign_config(ctx, self.name()));
        let reference = campaign.run_reference();
        let mut checks = vec![CheckResult::new(
            "reference-baseline",
            reference.sessions.iter().any(|s| s.memory_upsets > 0),
            format!("reference executor: {}", summarize(&reference)),
        )];
        for jobs in JOBS {
            let engine = campaign
                .try_run(CampaignRunOptions::with_jobs(jobs), &mut NoopObserver)
                .expect("a run with no journal and no cancel token cannot fail");
            let agree = engine == reference;
            checks.push(CheckResult::new(
                format!("engine-jobs-{jobs}"),
                agree,
                if agree {
                    format!("jobs={jobs} report identical to reference")
                } else {
                    format!(
                        "jobs={jobs} diverged from reference: {} vs {}",
                        summarize(&engine),
                        summarize(&reference),
                    )
                },
            ));
        }
        self.report(checks)
    }
}

/// The ordered event trace (runs, EDAC records, recoveries, session end)
/// is identical across the reference executor and the wave engine at any
/// worker count — observers see one canonical history.
pub struct TraceEquivalence;

impl StatOracle for TraceEquivalence {
    fn name(&self) -> &'static str {
        "trace-equivalence"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "Event traces are identical across engines and worker counts"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        // A session stressed enough to crash and recover (the 920 mV /
        // 2.4 GHz Vmin has the paper's worst error rate), so the trace
        // exercises every event kind.
        let point = PlatformSpec::xgene2().campaign[2].point;
        let flux = Flux::per_cm2_s(1.5e6);
        let limits =
            SessionLimits::time_boxed(SimDuration::from_minutes(ctx.budget.session_minutes));
        let seed = ctx.probe_seed(self.name(), 0);
        let trace_of = |run: &dyn Fn(&mut TestSession, &mut SimRng, &mut Logbook)| -> Logbook {
            let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
            let mut session = TestSession::new(dut, flux, limits);
            let mut rng = SimRng::seed_from(seed);
            let mut log = Logbook::new();
            run(&mut session, &mut rng, &mut log);
            log
        };

        let reference = trace_of(&|s, rng, log| {
            s.run_reference(rng, log);
        });
        let mut checks = vec![CheckResult::new(
            "trace-nonempty",
            !reference.is_empty(),
            format!("reference trace carries {} events", reference.len()),
        )];
        for jobs in JOBS {
            let engine = trace_of(&|s, rng, log| {
                s.try_run(rng, 0, &mut CampaignRunOptions::with_jobs(jobs), log)
                    .expect("a run with no journal and no cancel token cannot fail");
            });
            let agree = engine == reference;
            checks.push(CheckResult::new(
                format!("trace-jobs-{jobs}"),
                agree,
                if agree {
                    format!("jobs={jobs} trace identical ({} events)", engine.len())
                } else {
                    format!(
                        "jobs={jobs} trace diverged: {} vs {} events",
                        engine.len(),
                        reference.len(),
                    )
                },
            ));
        }
        self.report(checks)
    }
}

/// An interrupted-and-resumed journaled campaign reproduces the
/// uninterrupted run bit for bit — report *and* trace — at `jobs` 1 and
/// 8, with the interruption landing both on a record boundary and
/// mid-record (a torn write the recovery must truncate away).
pub struct ResumeEquivalence;

impl ResumeEquivalence {
    /// One truncate-and-resume round; returns the checks it produced.
    fn round(
        campaign: &Campaign,
        golden: &CampaignReport,
        golden_log: &Logbook,
        dir: &std::path::Path,
        keep: TruncationPoint,
        jobs: usize,
        label: &str,
    ) -> Vec<CheckResult> {
        let fail = |detail: String| vec![CheckResult::new(label, false, detail)];

        // Write a complete journal, then chop its tail.
        let _ = std::fs::remove_dir_all(dir);
        let (mut writer, recovered) = match start_or_resume(dir, campaign.config()) {
            Ok(pair) => pair,
            Err(e) => return fail(format!("journal open failed: {e}")),
        };
        if recovered.is_some() {
            return fail("fresh directory unexpectedly recovered".into());
        }
        let mut log = Logbook::new();
        let full = campaign.try_run(
            CampaignRunOptions {
                journal: Some(&mut writer),
                ..CampaignRunOptions::with_jobs(jobs)
            },
            &mut log,
        );
        drop(writer);
        let full = match full {
            Ok(report) => report,
            Err(e) => return fail(format!("journaled run failed: {e}")),
        };
        if &full != golden || &log != golden_log {
            return fail("journaled run diverged from uninterrupted run".into());
        }
        let path = journal_path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return fail(format!("journal unreadable: {e}")),
        };
        let cut = match keep {
            TruncationPoint::RecordBoundary(fraction) => {
                let lines: Vec<&str> = text.lines().collect();
                let keep_lines = ((lines.len() as f64 * fraction) as usize).max(1);
                lines[..keep_lines].join("\n") + "\n"
            }
            TruncationPoint::MidRecord => {
                // Keep half the bytes: almost surely tears a record, which
                // recovery must detect (via the per-line digest) and drop.
                text[..text.len() / 2].to_string()
            }
        };
        if let Err(e) = std::fs::write(&path, cut) {
            return fail(format!("truncation failed: {e}"));
        }

        // Resume and compare.
        let (mut writer, recovered) = match start_or_resume(dir, campaign.config()) {
            Ok(pair) => pair,
            Err(e) => return fail(format!("resume open failed: {e}")),
        };
        let mut resumed_log = Logbook::new();
        let resumed = campaign.try_run(
            CampaignRunOptions {
                journal: Some(&mut writer),
                recovered: recovered.as_ref(),
                ..CampaignRunOptions::with_jobs(jobs)
            },
            &mut resumed_log,
        );
        drop(writer);
        let resumed = match resumed {
            Ok(report) => report,
            Err(e) => return fail(format!("resumed run failed: {e}")),
        };
        let report_ok = &resumed == golden;
        let trace_ok = &resumed_log == golden_log;
        let replayed = recovered.as_ref().map_or(0, |r| r.trials_recovered());
        vec![CheckResult::new(
            label,
            report_ok && trace_ok,
            if report_ok && trace_ok {
                format!("resume after {replayed} replayed trials bit-identical (jobs={jobs})")
            } else {
                format!(
                    "resume diverged (jobs={jobs}, report ok: {report_ok}, trace ok: {trace_ok})"
                )
            },
        )]
    }
}

/// The second built-in platform (Zynq MPSoC), defined only by its spec
/// file, runs the same engine end to end: every scheduled point simulates
/// something, and its report and trace are bit-identical at `jobs` 1 and
/// 8. That a platform loaded from a file equals the built-in needs no
/// oracle, because the built-in *is* the parsed file.
pub struct PlatformEquivalence;

impl StatOracle for PlatformEquivalence {
    fn name(&self) -> &'static str {
        "platform-equivalence"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "A spec-defined second platform runs every campaign point, bit-identically across worker counts"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let zynq = PlatformSpec::zynq_mpsoc();
        let mut config = CampaignConfig::for_platform_scaled(&zynq, ctx.budget.campaign_fraction);
        config.seed = ctx.probe_seed(self.name(), 0);
        let run = |jobs: usize| {
            let mut log = Logbook::new();
            let report = Campaign::new(config.clone())
                .try_run(CampaignRunOptions::with_jobs(jobs), &mut log)
                .expect("a run with no journal and no cancel token cannot fail");
            (report, log)
        };

        let (zynq_seq, zynq_seq_log) = run(1);
        let mut checks = vec![CheckResult::new(
            "zynq-campaign-runs",
            zynq_seq.sessions.len() == zynq.campaign.len()
                && zynq_seq.sessions.iter().all(|s| s.runs > 0),
            format!("zynq-mpsoc: {}", summarize(&zynq_seq)),
        )];
        let (zynq_par, zynq_par_log) = run(8);
        let agree = zynq_par == zynq_seq && zynq_par_log == zynq_seq_log;
        checks.push(CheckResult::new(
            "zynq-jobs-8",
            agree,
            if agree {
                "zynq-mpsoc report and trace identical at jobs=8".to_string()
            } else {
                "zynq-mpsoc diverged across worker counts".to_string()
            },
        ));
        self.report(checks)
    }
}

/// The kernels behind `Benchmark::shared_kernel()`, checkpointed or
/// replayed, return exactly the output and the SDC verdict of a full
/// re-execution (`Benchmark::kernel()`) for corruptions drawn the way the
/// trial runner draws them.
pub struct KernelResumeEquivalence;

/// Corruptions per benchmark per budget seed.
const RESUME_SAMPLES_PER_SEED: u64 = 20;

/// A corruption drawn the way the trial runner draws one.
fn runner_corruption(rng: &mut SimRng) -> Corruption {
    Corruption::new(
        rng.uniform_in(0.0, 0.999),
        rng.below(1 << 20) as usize,
        rng.below(64) as u8,
    )
}

/// Compares `candidate` with the full re-execution `reference` on every
/// corruption, output and verdict: one check, failing at the first
/// difference.
fn resume_check(
    label: &str,
    reference: &dyn Kernel,
    candidate: &dyn Kernel,
    corruptions: &[Corruption],
) -> CheckResult {
    let golden = reference.golden();
    let mut masked = 0;
    for (k, &corruption) in corruptions.iter().enumerate() {
        let full = reference.run_corrupted(corruption);
        if candidate.run_corrupted(corruption) != full {
            return CheckResult::new(
                label,
                false,
                format!("corruption {k} ({corruption:?}) diverged from the full re-execution"),
            );
        }
        let corrupts = !full.matches(&golden);
        if candidate.corrupts(corruption) != corrupts {
            return CheckResult::new(
                label,
                false,
                format!(
                    "corruption {k} ({corruption:?}): verdict {}, the full re-execution's {}",
                    verdict(!corrupts),
                    verdict(corrupts)
                ),
            );
        }
        masked += usize::from(!corrupts);
    }
    CheckResult::new(
        label,
        true,
        format!(
            "{} corruptions identical to the full re-execution, verdicts too ({masked} masked)",
            corruptions.len()
        ),
    )
}

/// A verdict's name.
fn verdict(corrupts: bool) -> &'static str {
    if corrupts {
        "SDC"
    } else {
        "masked"
    }
}

impl StatOracle for KernelResumeEquivalence {
    fn name(&self) -> &'static str {
        "kernel-resume-equivalence"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "Checkpointed and replayed kernel runs return the full re-execution's output bit for bit, and its SDC verdict"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let samples = RESUME_SAMPLES_PER_SEED * ctx.budget.seeds;
        let checks = Benchmark::ALL
            .into_iter()
            .map(|benchmark| {
                let mut rng = SimRng::seed_from(ctx.probe_seed(self.name(), benchmark as u64));
                let corruptions: Vec<Corruption> =
                    (0..samples).map(|_| runner_corruption(&mut rng)).collect();
                resume_check(
                    &format!("resume-{}", benchmark.name().to_lowercase()),
                    benchmark.kernel().as_ref(),
                    benchmark.shared_kernel(),
                    &corruptions,
                )
            })
            .collect();
        self.report(checks)
    }
}

/// Where [`ResumeEquivalence`] cuts the journal before resuming.
enum TruncationPoint {
    /// Keep this fraction of complete records (a clean crash between
    /// fsync'd waves).
    RecordBoundary(f64),
    /// Cut mid-line (a torn write during the crash).
    MidRecord,
}

impl StatOracle for ResumeEquivalence {
    fn name(&self) -> &'static str {
        "resume-equivalence"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Differential
    }

    fn claim(&self) -> &'static str {
        "Interrupted + resumed campaigns reproduce uninterrupted runs bit for bit"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let campaign = Campaign::new(campaign_config(ctx, self.name()));
        let mut golden_log = Logbook::new();
        let golden = campaign
            .try_run(CampaignRunOptions::with_jobs(1), &mut golden_log)
            .expect("a run with no journal and no cancel token cannot fail");
        let mut checks = vec![CheckResult::new(
            "golden-baseline",
            golden.sessions.iter().any(|s| s.runs > 0),
            summarize(&golden),
        )];
        let dir = std::env::temp_dir().join(format!(
            "serscale-verify-resume-{}-{:x}",
            std::process::id(),
            ctx.probe_seed(self.name(), 1),
        ));
        for jobs in [1usize, 8] {
            checks.extend(Self::round(
                &campaign,
                &golden,
                &golden_log,
                &dir,
                TruncationPoint::RecordBoundary(0.6),
                jobs,
                &format!("resume-boundary-jobs-{jobs}"),
            ));
        }
        checks.extend(Self::round(
            &campaign,
            &golden,
            &golden_log,
            &dir,
            TruncationPoint::MidRecord,
            8,
            "resume-torn-tail-jobs-8",
        ));
        let _ = std::fs::remove_dir_all(&dir);
        self.report(checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrialBudget;
    use serscale_workload::cg::{Cg, CgReplay};
    use serscale_workload::mg::Mg;
    use serscale_workload::stepped::Stepped;

    fn ctx() -> OracleContext {
        OracleContext::new(0xd1ff, TrialBudget::small())
    }

    #[test]
    fn engines_agree() {
        let report = EngineEquivalence.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn traces_agree() {
        let report = TraceEquivalence.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn resume_agrees() {
        let report = ResumeEquivalence.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn platforms_agree() {
        let report = PlatformEquivalence.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn kernel_resume_agrees() {
        let report = KernelResumeEquivalence.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
        assert_eq!(report.checks.len(), Benchmark::ALL.len());
    }

    /// A broken resume path that calls every flip in the second half of
    /// the run masked.
    struct LateFlipsMasked(Benchmark);

    impl Kernel for LateFlipsMasked {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn run(&self) -> serscale_workload::KernelOutput {
            self.0.shared_golden().clone()
        }

        fn run_corrupted(&self, corruption: Corruption) -> serscale_workload::KernelOutput {
            if corruption.at_fraction >= 0.5 {
                self.run()
            } else {
                self.0.shared_kernel().run_corrupted(corruption)
            }
        }
    }

    /// A broken verdict path for MG that calls a run an SDC at its first
    /// state difference: the flip itself, which MG's V-cycles often mask.
    struct FirstStateDifference;

    impl Kernel for FirstStateDifference {
        fn name(&self) -> &'static str {
            Mg::NAME
        }

        fn run(&self) -> serscale_workload::KernelOutput {
            Benchmark::Mg.shared_golden().clone()
        }

        fn run_corrupted(&self, corruption: Corruption) -> serscale_workload::KernelOutput {
            Benchmark::Mg.shared_kernel().run_corrupted(corruption)
        }

        fn corrupts(&self, corruption: Corruption) -> bool {
            let mg = Mg::class_a();
            let mut state = mg.init();
            for i in 0..corruption.iteration(mg.steps()) {
                mg.step(&mut state, i);
            }
            mg.inject(&mut state, corruption)
        }
    }

    #[test]
    fn kernel_resume_check_catches_a_state_difference_verdict() {
        let mut rng = SimRng::seed_from(7).fork("mg");
        let corruptions: Vec<Corruption> = (0..20).map(|_| runner_corruption(&mut rng)).collect();
        let mg = Benchmark::Mg;
        let honest = resume_check("mg", mg.kernel().as_ref(), mg.shared_kernel(), &corruptions);
        assert!(honest.passed, "{honest:?}");
        assert!(!honest.detail.contains("(0 masked)"), "{honest:?}");
        let broken = resume_check(
            "mg",
            mg.kernel().as_ref(),
            &FirstStateDifference,
            &corruptions,
        );
        assert!(!broken.passed, "{broken:?}");
        assert!(
            broken
                .detail
                .contains("verdict SDC, the full re-execution's masked"),
            "{broken:?}"
        );
    }

    #[test]
    fn kernel_resume_check_catches_a_lossy_resume() {
        let corruptions: Vec<Corruption> = (0..8)
            .map(|k| Corruption::new(0.1 + 0.11 * f64::from(k), 1000 + 37 * k as usize, 62))
            .collect();
        let lu = Benchmark::Lu;
        let honest = resume_check("lu", lu.kernel().as_ref(), lu.shared_kernel(), &corruptions);
        assert!(honest.passed, "{honest:?}");
        let broken = resume_check(
            "lu",
            lu.kernel().as_ref(),
            &LateFlipsMasked(lu),
            &corruptions,
        );
        assert!(!broken.passed, "{broken:?}");
    }

    /// A broken CG replay that adds the golden increments after the
    /// injection step in reverse step order: the same terms as the full
    /// re-execution, rounded in another order.
    struct ReversedTail(CgReplay);

    impl Kernel for ReversedTail {
        fn name(&self) -> &'static str {
            Cg::NAME
        }

        fn run(&self) -> serscale_workload::KernelOutput {
            self.0.golden()
        }

        fn run_corrupted(&self, corruption: Corruption) -> serscale_workload::KernelOutput {
            // The class-A solve never breaks down, so every step adds.
            let at = corruption.iteration(Cg::class_a().steps());
            let increments: Vec<f64> = self.0.increments(corruption.word).collect();
            let (before, after) = increments.split_at(at);
            let before = before.iter().fold(0.0, |sum: f64, d| sum + d);
            let flipped = f64::from_bits(before.to_bits() ^ (1 << corruption.bit));
            let after = after.iter().rev().fold(flipped, |sum, d| sum + d);
            self.0.output_with(corruption.word, after)
        }
    }

    #[test]
    fn kernel_resume_check_catches_a_reordered_replay() {
        let mut rng = SimRng::seed_from(7).fork("cg");
        let corruptions: Vec<Corruption> = (0..20).map(|_| runner_corruption(&mut rng)).collect();
        let cg = Benchmark::Cg;
        let honest = resume_check("cg", cg.kernel().as_ref(), cg.shared_kernel(), &corruptions);
        assert!(honest.passed, "{honest:?}");
        let broken = resume_check(
            "cg",
            cg.kernel().as_ref(),
            &ReversedTail(CgReplay::new(Cg::class_a())),
            &corruptions,
        );
        assert!(!broken.passed, "{broken:?}");
        assert!(
            broken
                .detail
                .contains("diverged from the full re-execution"),
            "{broken:?}"
        );
    }
}
