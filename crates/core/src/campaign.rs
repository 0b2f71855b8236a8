//! The full beam campaign: Vmin anchoring, sessions in sequence, one
//! consolidated report — the whole of Table 2 in one call.

use serscale_beam::facility::{BeamFacility, BeamPosition};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, Megahertz, Millivolts, SimDuration};
use serscale_undervolt::characterize::Characterizer;

use crate::dut::DeviceUnderTest;
use crate::journal::{JournalWriter, RecoveredCampaign};
use crate::scheduler::CancelToken;
use crate::session::{RetryPolicy, SessionLimits, SessionReport, TestSession, TrialPool};
use crate::trace::{NoopObserver, SessionObserver};

/// Where the per-frequency safe Vmin anchoring the logic amplification
/// comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VminSource {
    /// Use the paper's characterized values (920 mV @ 2.4 GHz, 790 mV @
    /// 900 MHz, interpolated elsewhere). Deterministic.
    Paper,
    /// Run the offline undervolting characterization of §4.1 first and use
    /// its sweep result (`trials` executions per benchmark per 5 mV step).
    Characterized {
        /// Trials per benchmark per voltage step.
        trials: u32,
    },
}

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; everything downstream forks from it.
    pub seed: u64,
    /// The irradiation facility.
    pub facility: BeamFacility,
    /// Where the DUT sits in the beam.
    pub position: BeamPosition,
    /// The sessions to run, in order.
    pub sessions: Vec<(OperatingPoint, SessionLimits)>,
    /// How the safe Vmin is obtained.
    pub vmin_source: VminSource,
    /// The platform under test: arrays, rails, Vmin anchors and physics
    /// all come off this spec, and it is folded into the journal's
    /// configuration fingerprint so a resume on the wrong platform fails
    /// cleanly.
    pub platform: PlatformSpec,
}

impl CampaignConfig {
    /// The paper's campaign: TNF beam, halo position, and the four
    /// sessions of Table 2 replayed as their realized beam-time exposures
    /// (1651 / 1618 / 453 / 165 minutes at 980 / 930 / 920 / 790 mV).
    pub fn paper() -> Self {
        Self::for_platform(&PlatformSpec::xgene2())
    }

    /// A campaign on an arbitrary platform: the spec's own declared
    /// session schedule under the paper's beam setup. For
    /// [`PlatformSpec::xgene2`] this is exactly
    /// [`CampaignConfig::paper`].
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        let sessions = spec
            .campaign
            .iter()
            .map(|c| {
                (
                    c.point,
                    SessionLimits::time_boxed(SimDuration::from_minutes(c.minutes)),
                )
            })
            .collect();
        CampaignConfig {
            seed: 0x005e_5510_2023,
            facility: BeamFacility::tnf(),
            position: BeamPosition::halo(BeamPosition::PAPER_HALO_TRANSMISSION),
            sessions,
            vmin_source: VminSource::Paper,
            platform: spec.clone(),
        }
    }

    /// A scaled-down campaign (each session `fraction` of the paper's
    /// duration) for fast exploration and CI.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    pub fn paper_scaled(fraction: f64) -> Self {
        Self::for_platform_scaled(&PlatformSpec::xgene2(), fraction)
    }

    /// [`CampaignConfig::for_platform`] with every session time box
    /// scaled by `fraction`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    pub fn for_platform_scaled(spec: &PlatformSpec, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let mut config = Self::for_platform(spec);
        for (_, limits) in &mut config.sessions {
            if let Some(d) = limits.max_duration {
                limits.max_duration = Some(d * fraction);
            }
        }
        config
    }
}

/// The consolidated campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The working flux the DUT saw.
    pub flux: Flux,
    /// The Vmin used per session frequency (anchors the logic model).
    pub vmins: Vec<(Megahertz, Millivolts)>,
    /// Per-session reports, in configuration order.
    pub sessions: Vec<SessionReport>,
    /// The platform the campaign ran on (its spec name).
    pub platform: String,
    /// The platform's nominal operating point — the baseline of every
    /// relative figure.
    pub nominal: OperatingPoint,
}

impl CampaignReport {
    /// Finds the session run at a given operating point.
    pub fn session_at(&self, point: OperatingPoint) -> Option<&SessionReport> {
        self.sessions.iter().find(|s| s.operating_point == point)
    }

    /// Total beam-on time of the campaign (the paper's "more than 64 beam
    /// hours").
    pub fn total_beam_time(&self) -> SimDuration {
        self.sessions.iter().map(|s| s.duration).sum()
    }

    /// The nominal-voltage session (the baseline of every relative
    /// figure), if the campaign ran one.
    pub fn baseline(&self) -> Option<&SessionReport> {
        self.session_at(self.nominal)
    }
}

/// Drives a configured campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// The configuration.
    pub const fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The safe Vmin for a frequency per the configured source.
    fn vmin_for(&self, root: &SimRng, frequency: Megahertz) -> Millivolts {
        let platform = &self.config.platform;
        match self.config.vmin_source {
            VminSource::Paper => platform.vmin_at(frequency),
            VminSource::Characterized { trials } => {
                let mut rng = root.fork_indexed("vmin", u64::from(frequency.get()));
                let harness = Characterizer::for_platform(platform, trials);
                harness
                    .sweep_platform(&mut rng, platform, frequency)
                    .safe_vmin()
                    // A sweep that fails immediately at nominal would leave
                    // no safe level; fall back to the spec's anchor rule.
                    .unwrap_or_else(|| platform.vmin_at(frequency))
            }
        }
    }

    /// Runs the whole campaign through the naive reference executor
    /// ([`TestSession::run_reference`]): no waves, no speculation, no
    /// worker pool. Exists for differential verification — its report must
    /// be bit-identical to [`try_run`](Self::try_run) at any `jobs`.
    pub fn run_reference(&self) -> CampaignReport {
        self.run_sessions(|_, session, rng| Ok(session.run_reference(rng, &mut NoopObserver)))
            .expect("the reference executor neither journals nor cancels")
    }

    /// Builds each configured session in order and hands it to
    /// `run_session` with its index and its forked RNG, stopping at the
    /// first error.
    fn run_sessions(
        &self,
        mut run_session: impl FnMut(
            u64,
            &mut TestSession,
            &mut SimRng,
        ) -> Result<SessionReport, RunError>,
    ) -> Result<CampaignReport, RunError> {
        let root = SimRng::seed_from(self.config.seed);
        let flux = self.config.facility.flux_at(self.config.position);

        let mut vmins: Vec<(Megahertz, Millivolts)> = Vec::new();
        let mut sessions = Vec::with_capacity(self.config.sessions.len());
        for (index, (point, limits)) in self.config.sessions.iter().enumerate() {
            let frequency = point.frequency;
            let vmin = match vmins.iter().find(|(f, _)| *f == frequency) {
                Some((_, v)) => *v,
                None => {
                    let v = self.vmin_for(&root, frequency);
                    vmins.push((frequency, v));
                    v
                }
            };
            let dut = DeviceUnderTest::for_platform(&self.config.platform, *point, vmin);
            let mut session = TestSession::new(dut, flux, *limits);
            let mut rng = root.fork_indexed("session", index as u64);
            sessions.push(run_session(index as u64, &mut session, &mut rng)?);
        }
        Ok(CampaignReport {
            flux,
            vmins,
            sessions,
            platform: self.config.platform.name.clone(),
            nominal: self.config.platform.nominal_point(),
        })
    }

    /// Runs every session in configuration order through
    /// [`TestSession::try_run`] and consolidates the report — the one
    /// entry point of the wave engine.
    ///
    /// `options` sets the worker count, the retry/quarantine policy for
    /// panicking or hung trials, an optional run journal recording every
    /// absorbed trial, an optional recovered prefix to replay (see
    /// [`crate::journal::start_or_resume`]) and an optional cancellation
    /// token. Every session reports through `observer` and is announced
    /// via [`SessionObserver::on_session_start`] in configuration order,
    /// so one observer can attribute the merged stream.
    ///
    /// Sessions' trial grids are sharded across one worker pool that
    /// lives for the whole call: it starts on the first live wave (never
    /// at one effective worker, so a pure journal replay spawns no thread)
    /// and is joined before this returns, or while a panic unwinds out of
    /// it. Every trial draws from a counter-derived stream, so the report
    /// is bit-identical for any `jobs` — the determinism contract the
    /// regression suite enforces. Observation and journaling are one-way: with a fresh
    /// journal and [`RetryPolicy::standard`] the report equals the
    /// journal-less run's. With a recovered prefix, the replayed trials
    /// drive the observer exactly as the original run did, so report *and*
    /// trace stay bit-identical to an uninterrupted run at any `jobs`.
    ///
    /// # Errors
    ///
    /// [`RunError::Cancelled`] if `options.cancel` fired: execution stops
    /// at the next wave boundary (or between sessions).
    /// [`RunError::Journal`] if a journal write or fsync failed: execution
    /// stops at that wave. Either way the journal is left as a crash
    /// would leave it — completed sessions closed by their `SessionEnd`
    /// records, the in-flight session holding its absorbed trials (a
    /// failed write may add a torn tail) and no end record — so
    /// re-opening it through [`crate::journal::start_or_resume`] and
    /// re-running the same configuration reproduces the uninterrupted
    /// report and trace bit for bit at any `jobs`.
    ///
    /// # Panics
    ///
    /// Panics if `options.jobs == 0` or if the recovered prefix is
    /// inconsistent with this configuration.
    pub fn try_run(
        &self,
        mut options: CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> Result<CampaignReport, RunError> {
        let mut pool = TrialPool::new(options.jobs);
        self.run_sessions(|index, session, rng| {
            if options.cancelled() {
                return Err(RunError::Cancelled);
            }
            session.try_run_on(&mut pool, rng, index, &mut options, &mut *observer)
        })
    }

    /// [`try_run`](Self::try_run) on `jobs` workers with no observer. This
    /// and the two wrappers below stay because `perfbench` calls them.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0`.
    pub fn run_parallel(&self, jobs: usize) -> CampaignReport {
        self.try_run(CampaignRunOptions::with_jobs(jobs), &mut NoopObserver)
            .expect("a run with no journal and no cancel token cannot fail")
    }

    /// [`try_run`](Self::try_run) on `jobs` workers, reporting to
    /// `observer`.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0`.
    pub fn run_observed(&self, jobs: usize, observer: &mut dyn SessionObserver) -> CampaignReport {
        self.try_run(CampaignRunOptions::with_jobs(jobs), observer)
            .expect("a run with no journal and no cancel token cannot fail")
    }

    /// [`try_run`](Self::try_run), panicking on its error.
    ///
    /// # Panics
    ///
    /// As [`try_run`](Self::try_run), and if it returns an error.
    pub fn run_recoverable(
        &self,
        options: CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> CampaignReport {
        self.try_run(options, observer)
            .expect("campaign cancelled or its journal failed; use try_run to handle it")
    }
}

/// Controls for [`Campaign::try_run`] and [`TestSession::try_run`]: worker
/// count, retry policy, the crash-safety hooks (journal to append to,
/// recovered prefix to replay) and cooperative cancellation.
#[derive(Debug)]
pub struct CampaignRunOptions<'a> {
    /// Worker threads per session (must be ≥ 1).
    pub jobs: usize,
    /// Retry/quarantine policy for panicking or hung trials.
    pub retry: RetryPolicy,
    /// Journal to append absorbed trials to (synced once per wave), if
    /// any.
    pub journal: Option<&'a mut JournalWriter>,
    /// Recovered journal prefix to replay before running live, if any.
    pub recovered: Option<&'a RecoveredCampaign>,
    /// Cooperative cancellation flag, polled at wave boundaries and
    /// between sessions.
    pub cancel: Option<CancelToken>,
}

impl CampaignRunOptions<'_> {
    /// Options for a plain (journal-less) run at `jobs` workers with the
    /// standard retry policy.
    pub fn with_jobs(jobs: usize) -> CampaignRunOptions<'static> {
        CampaignRunOptions {
            jobs,
            retry: RetryPolicy::standard(),
            journal: None,
            recovered: None,
            cancel: None,
        }
    }

    /// Whether the cancellation token, if any, has fired.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Why [`Campaign::try_run`] or [`TestSession::try_run`] stopped without
/// a report.
#[derive(Debug)]
pub enum RunError {
    /// The run's [`CancelToken`] fired; the run stopped cleanly at a wave
    /// boundary or between sessions.
    Cancelled,
    /// Writing or syncing the run journal failed; the run stopped at that
    /// wave rather than continue without crash safety.
    Journal(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Cancelled => f.write_str("run cancelled at a wave boundary"),
            RunError::Journal(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::FailureClass;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    /// Runs `campaign` on `jobs` workers with no journal, cancel token or
    /// observer.
    fn run(campaign: &Campaign, jobs: usize) -> CampaignReport {
        campaign
            .try_run(CampaignRunOptions::with_jobs(jobs), &mut NoopObserver)
            .expect("a run with no journal and no cancel token cannot fail")
    }

    fn quick_config(seed: u64, fraction: f64) -> CampaignConfig {
        let mut c = CampaignConfig::paper_scaled(fraction);
        c.seed = seed;
        c
    }

    #[test]
    fn paper_config_shape() {
        let c = CampaignConfig::paper();
        assert_eq!(c.sessions.len(), 4);
        assert_eq!(c.sessions[0].0, xgene2_point("Nominal"));
        assert_eq!(c.sessions[3].0, xgene2_point("Vmin 900 MHz"));
        let total: f64 = c
            .sessions
            .iter()
            .filter_map(|(_, l)| l.max_duration)
            .map(|d| d.as_hours())
            .sum();
        // Table 2 durations sum to ~64.8 beam hours.
        assert!((total - 64.78).abs() < 0.1, "total = {total} h");
    }

    #[test]
    fn paper_config_is_the_xgene2_platform_config() {
        assert_eq!(
            CampaignConfig::paper(),
            CampaignConfig::for_platform(&PlatformSpec::xgene2())
        );
        assert_eq!(CampaignConfig::paper().platform.name, "xgene2");
    }

    #[test]
    fn zynq_campaign_runs_end_to_end() {
        let mut config = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), 0.01);
        config.seed = 21;
        let campaign = Campaign::new(config);
        let report = run(&campaign, 1);
        assert_eq!(report.platform, "zynq-mpsoc");
        assert_eq!(report.sessions.len(), 4);
        assert!(report.baseline().is_some(), "850 mV baseline resolves");
        let vmin_1500 = report
            .vmins
            .iter()
            .find(|(f, _)| f.get() == 1500)
            .map(|(_, v)| *v)
            .expect("1.5 GHz characterized");
        assert_eq!(vmin_1500, Millivolts::new(750));
        // The determinism contract holds off the X-Gene too.
        assert_eq!(report, run(&campaign, 8));
    }

    #[test]
    fn zynq_characterized_vmin_stays_on_its_own_rails() {
        let mut config = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), 0.005);
        config.seed = 22;
        config.vmin_source = VminSource::Characterized { trials: 50 };
        let report = run(&Campaign::new(config.clone()), 1);
        for (f, v) in &report.vmins {
            let anchor = config.platform.vmin_at(*f);
            assert!(v.get().abs_diff(anchor.get()) <= 5, "{f}: {v} vs {anchor}");
            assert!(*v >= config.platform.sweep_floor);
        }
    }

    #[test]
    fn campaign_flux_is_the_paper_working_flux() {
        let report = run(&Campaign::new(quick_config(1, 0.01)), 1);
        assert!((report.flux.as_per_cm2_s() - 1.5e6).abs() < 1e-3);
    }

    #[test]
    fn scaled_campaign_runs_all_sessions() {
        let report = run(&Campaign::new(quick_config(2, 0.02)), 1);
        assert_eq!(report.sessions.len(), 4);
        assert!(report.baseline().is_some());
        assert!(report.session_at(xgene2_point("Vmin 900 MHz")).is_some());
        assert!(report.total_beam_time().as_hours() > 1.0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run(&Campaign::new(quick_config(3, 0.01)), 1);
        let b = run(&Campaign::new(quick_config(3, 0.01)), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&Campaign::new(quick_config(4, 0.01)), 1);
        let b = run(&Campaign::new(quick_config(5, 0.01)), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn reference_executor_matches_engine_paths() {
        let campaign = Campaign::new(quick_config(11, 0.01));
        let reference = campaign.run_reference();
        assert_eq!(reference, run(&campaign, 1));
        assert_eq!(reference, run(&campaign, 3));
    }

    #[test]
    fn observed_campaign_matches_and_announces_every_session() {
        use crate::trace::{LogEvent, Logbook};
        let campaign = Campaign::new(quick_config(12, 0.01));
        let mut logbook = Logbook::new();
        let observed = campaign
            .try_run(CampaignRunOptions::with_jobs(2), &mut logbook)
            .expect("a run with no journal and no cancel token cannot fail");
        assert_eq!(observed, run(&campaign, 1), "observation perturbed the run");
        let starts: Vec<_> = logbook
            .events()
            .iter()
            .filter_map(|e| match e {
                LogEvent::SessionStarted { point, .. } => Some(*point),
                _ => None,
            })
            .collect();
        let configured: Vec<_> = campaign.config().sessions.iter().map(|(p, _)| *p).collect();
        assert_eq!(starts, configured, "one header per session, in order");
    }

    #[test]
    fn journaled_run_resumes_bit_identically() {
        use crate::journal::{journal_path, start_or_resume};
        use crate::trace::Logbook;

        let dir =
            std::env::temp_dir().join(format!("serscale-campaign-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new(quick_config(13, 0.01));

        // Uninterrupted golden (journal-less observed run).
        let mut golden_log = Logbook::new();
        let golden = campaign
            .try_run(CampaignRunOptions::with_jobs(2), &mut golden_log)
            .expect("a run with no journal and no cancel token cannot fail");

        // A fresh journaled run must change nothing.
        let (mut writer, recovered) =
            start_or_resume(&dir, campaign.config()).expect("journal opens");
        assert!(recovered.is_none(), "fresh directory must not recover");
        let mut log = Logbook::new();
        let report = campaign
            .try_run(
                CampaignRunOptions {
                    journal: Some(&mut writer),
                    ..CampaignRunOptions::with_jobs(2)
                },
                &mut log,
            )
            .expect("journal writes succeed");
        drop(writer);
        assert_eq!(report, golden, "journaling perturbed the report");
        assert_eq!(log, golden_log, "journaling perturbed the trace");

        // Simulate a crash: drop the tail third of the journal.
        let path = journal_path(&dir);
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();
        let keep = (lines.len() * 2 / 3).max(1);
        let mut truncated: String = lines[..keep].join("\n");
        truncated.push('\n');
        std::fs::write(&path, truncated).expect("truncate journal");

        // Resume at a different worker count; report and trace must still
        // match the uninterrupted golden bit for bit.
        let (mut writer, recovered) =
            start_or_resume(&dir, campaign.config()).expect("journal reopens");
        let recovered = recovered.expect("truncated journal recovers a prefix");
        assert!(recovered.trials_recovered() > 0);
        let mut resumed_log = Logbook::new();
        let resumed = campaign
            .try_run(
                CampaignRunOptions {
                    journal: Some(&mut writer),
                    recovered: Some(&recovered),
                    ..CampaignRunOptions::with_jobs(8)
                },
                &mut resumed_log,
            )
            .expect("journal writes succeed");
        drop(writer);
        assert_eq!(resumed, golden, "resumed report diverged");
        assert_eq!(resumed_log, golden_log, "resumed trace diverged");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vmin_anchors_match_paper_defaults() {
        let report = run(&Campaign::new(quick_config(6, 0.01)), 1);
        let lookup = |f: u32| {
            report
                .vmins
                .iter()
                .find(|(freq, _)| freq.get() == f)
                .map(|(_, v)| *v)
                .expect("frequency characterized")
        };
        assert_eq!(lookup(2400), Millivolts::new(920));
        assert_eq!(lookup(900), Millivolts::new(790));
    }

    #[test]
    fn characterized_vmin_source_works() {
        let mut c = quick_config(7, 0.005);
        c.vmin_source = VminSource::Characterized { trials: 50 };
        let report = run(&Campaign::new(c), 1);
        // The characterization lands on (or within a step of) the paper's
        // anchors.
        for (f, v) in &report.vmins {
            let paper = DeviceUnderTest::paper_vmin(*f);
            let delta = v.get().abs_diff(paper.get());
            assert!(delta <= 5, "{f:?}: {v} vs {paper}");
        }
    }

    #[test]
    fn upset_rates_rise_across_sessions() {
        // Even an 8%-length campaign shows Table 2's rate ordering between
        // the extremes.
        let report = run(&Campaign::new(quick_config(8, 0.08)), 1);
        let nominal = report.baseline().unwrap().upset_rate().per_minute();
        let v790 = report
            .session_at(xgene2_point("Vmin 900 MHz"))
            .unwrap()
            .upset_rate()
            .per_minute();
        assert!(v790 > nominal, "{v790} !> {nominal}");
    }

    #[test]
    fn sdc_share_explodes_at_vmin_2400() {
        let report = run(&Campaign::new(quick_config(9, 0.1)), 1);
        let nominal_share = report.baseline().unwrap().failure_shares()[&FailureClass::Sdc];
        let vmin_share = report
            .session_at(xgene2_point("Vmin"))
            .unwrap()
            .failure_shares()[&FailureClass::Sdc];
        assert!(
            vmin_share > nominal_share,
            "{vmin_share} !> {nominal_share}"
        );
        assert!(vmin_share > 0.6, "vmin SDC share = {vmin_share}");
    }
}
