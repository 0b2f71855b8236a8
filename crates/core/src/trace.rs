//! The campaign logbook: an ordered event trace of a session.
//!
//! A real beam campaign lives or dies by its logs — the paper's Control-PC
//! "controls, monitors, and collects data from the server" and every event
//! is timestamped for post-analysis (§3.6). [`SessionObserver`] is the
//! hook the session driver reports through, and [`Logbook`] is the default
//! observer: an append-only trace of runs, EDAC reports, failures and
//! recoveries that renders to a human-readable log.

use serscale_soc::edac::EdacRecord;
use serscale_soc::platform::OperatingPoint;
use serscale_types::{json, SimDuration, SimInstant};
use serscale_workload::Benchmark;

use crate::classify::RunVerdict;
use crate::session::StopReason;

/// One timestamped logbook entry.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    /// The session driver came up at an operating point (the logbook
    /// header: without it a trace cannot be interpreted — every
    /// cross-section in it is conditional on the V/F setting).
    SessionStarted {
        /// When (the session epoch).
        at: SimInstant,
        /// The voltage/frequency setting under test.
        point: OperatingPoint,
    },
    /// A benchmark run completed (any verdict).
    Run {
        /// When the run started.
        start: SimInstant,
        /// Which benchmark ran.
        benchmark: Benchmark,
        /// Its verdict.
        verdict: RunVerdict,
    },
    /// The hardware reported an EDAC event.
    Edac(EdacRecord),
    /// The Control-PC performed a recovery (restart or power cycle).
    Recovery {
        /// When the recovery began.
        start: SimInstant,
        /// How long it took.
        duration: SimDuration,
    },
    /// The session reached a stopping rule.
    SessionEnded {
        /// When.
        at: SimInstant,
        /// Why.
        reason: StopReason,
    },
}

/// What the wave engine measured while executing and merging one
/// speculative wave. Reported through [`SessionObserver::on_wave`] for
/// engine telemetry only: `host_nanos` is *host* wall-clock (it varies
/// run to run and across `--jobs`), so simulation-facing observers like
/// [`Logbook`] must ignore it — and the reference executor, which has no
/// waves, never reports it at all.
///
/// On the pool, waves overlap: wave k+1 is dispatched before wave k is
/// merged. Each wave's `host_nanos` runs from its own dispatch to the end
/// of its own merge, so consecutive waves' spans overlap and their sum
/// can exceed the session's wall time. `pool.wall_nanos` stops when the
/// wave's last chunk finishes, so the pool's idle time never includes
/// the caller's merge of the wave before it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaveStats {
    /// Index of the first trial in the wave.
    pub first_trial: u64,
    /// How many trials the wave launched speculatively.
    pub planned: usize,
    /// How many outcomes the canonical merge absorbed before a stopping
    /// rule fired (the rest were discarded speculation).
    pub absorbed: usize,
    /// Host wall-clock nanoseconds from the wave's dispatch to the end of
    /// its merge (execution, any wait behind the previous wave's merge,
    /// and its own merge and journal sync).
    pub host_nanos: u64,
    /// Retry attempts spent by this wave's absorbed trials (panicking or
    /// timed-out attempts re-run on their own counter-derived streams).
    pub retries: u64,
    /// Absorbed trials that exhausted every retry and were quarantined.
    pub quarantined: u64,
    /// Per-worker busy/claim accounting for the wave's pool batch, from
    /// dispatch to its last chunk finishing (host-clock telemetry like
    /// `host_nanos`; a single inline entry at one effective worker).
    pub pool: crate::parallel::PoolProfile,
}

impl WaveStats {
    /// The fraction of launched trials whose outcome was used — the wave
    /// engine's speculation efficiency (1.0 = nothing wasted).
    pub fn efficiency(&self) -> f64 {
        if self.planned == 0 {
            1.0
        } else {
            self.absorbed as f64 / self.planned as f64
        }
    }
}

/// The observation hook the session driver calls. All methods default to
/// no-ops, so observers implement only what they care about.
///
/// ## Contract
///
/// Observation is strictly one-way: the driver never reads anything back,
/// so an observer cannot perturb the physics, the RNG streams or the
/// stopping rules (the `serscale-telemetry` determinism tests hold the
/// engine to this). Callbacks other than [`on_wave`](Self::on_wave) are
/// invoked by the single-threaded canonical merge in trial order, so
/// their simulated timestamps are nondecreasing and identical at any
/// `--jobs` count.
pub trait SessionObserver {
    /// The session driver started at an operating point (fires before any
    /// run, from both the wave engine and the reference executor).
    fn on_session_start(&mut self, _at: SimInstant, _point: OperatingPoint) {}
    /// A benchmark run finished.
    fn on_run(&mut self, _start: SimInstant, _benchmark: Benchmark, _verdict: RunVerdict) {}
    /// An EDAC record was harvested.
    fn on_edac(&mut self, _record: EdacRecord) {}
    /// A crash recovery consumed beam time.
    fn on_recovery(&mut self, _start: SimInstant, _duration: SimDuration) {}
    /// The session stopped.
    fn on_session_end(&mut self, _at: SimInstant, _reason: StopReason) {}
    /// The wave engine executed and merged one speculative wave.
    ///
    /// Engine telemetry, not simulation history: wave boundaries depend on
    /// `--jobs` and `host_nanos` on the host's clock, so trace-equivalence
    /// observers must leave this as the default no-op ([`Logbook`] does).
    fn on_wave(&mut self, _stats: WaveStats) {}
}

/// Forwarding impl so `&mut observer` is itself an observer: drivers can
/// take observers by value (e.g. [`Tee`]) while callers keep ownership.
impl<T: SessionObserver + ?Sized> SessionObserver for &mut T {
    fn on_session_start(&mut self, at: SimInstant, point: OperatingPoint) {
        (**self).on_session_start(at, point);
    }
    fn on_run(&mut self, start: SimInstant, benchmark: Benchmark, verdict: RunVerdict) {
        (**self).on_run(start, benchmark, verdict);
    }
    fn on_edac(&mut self, record: EdacRecord) {
        (**self).on_edac(record);
    }
    fn on_recovery(&mut self, start: SimInstant, duration: SimDuration) {
        (**self).on_recovery(start, duration);
    }
    fn on_session_end(&mut self, at: SimInstant, reason: StopReason) {
        (**self).on_session_end(at, reason);
    }
    fn on_wave(&mut self, stats: WaveStats) {
        (**self).on_wave(stats);
    }
}

/// Fans every callback out to two observers, `a` first — so a [`Logbook`]
/// and a telemetry collector can watch the same run without bespoke glue:
/// `tee(&mut logbook, &mut telemetry)`.
pub fn tee<A: SessionObserver, B: SessionObserver>(a: A, b: B) -> Tee<A, B> {
    Tee(a, b)
}

/// The two-way fan-out observer built by [`tee`]. Nests for wider fans:
/// `tee(a, tee(b, c))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: SessionObserver, B: SessionObserver> SessionObserver for Tee<A, B> {
    fn on_session_start(&mut self, at: SimInstant, point: OperatingPoint) {
        self.0.on_session_start(at, point);
        self.1.on_session_start(at, point);
    }
    fn on_run(&mut self, start: SimInstant, benchmark: Benchmark, verdict: RunVerdict) {
        self.0.on_run(start, benchmark, verdict);
        self.1.on_run(start, benchmark, verdict);
    }
    fn on_edac(&mut self, record: EdacRecord) {
        self.0.on_edac(record);
        self.1.on_edac(record);
    }
    fn on_recovery(&mut self, start: SimInstant, duration: SimDuration) {
        self.0.on_recovery(start, duration);
        self.1.on_recovery(start, duration);
    }
    fn on_session_end(&mut self, at: SimInstant, reason: StopReason) {
        self.0.on_session_end(at, reason);
        self.1.on_session_end(at, reason);
    }
    fn on_wave(&mut self, stats: WaveStats) {
        self.0.on_wave(stats.clone());
        self.1.on_wave(stats);
    }
}

/// The do-nothing observer, for runs nothing watches.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SessionObserver for NoopObserver {}

/// An append-only event trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Logbook {
    events: Vec<LogEvent>,
}

impl Logbook {
    /// Creates an empty logbook.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events in occurrence order.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// The number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Only the failed runs, in order — the post-analysis list the paper's
    /// SDC/crash accounting starts from.
    pub fn failures(&self) -> impl Iterator<Item = &LogEvent> {
        self.events.iter().filter(|e| {
            matches!(
                e,
                LogEvent::Run { verdict, .. } if *verdict != RunVerdict::Correct
            )
        })
    }

    /// Renders the logbook as a human-readable experiment log, headed by
    /// the session's operating point (a trace is meaningless without the
    /// V/F setting it was recorded under).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let line = match event {
                LogEvent::SessionStarted { at, point } => format!(
                    "{at} HEAD session at {} (PMD {}, SoC {}, {})",
                    point.label(),
                    point.pmd,
                    point.soc,
                    point.frequency
                ),
                LogEvent::Run {
                    start,
                    benchmark,
                    verdict,
                } => match verdict {
                    RunVerdict::Correct => {
                        format!("{start} RUN  {benchmark}: ok")
                    }
                    RunVerdict::Sdc {
                        with_hw_notification,
                    } => format!(
                        "{start} RUN  {benchmark}: SDC (output mismatch{})",
                        if *with_hw_notification {
                            ", CE notification seen"
                        } else {
                            ""
                        }
                    ),
                    RunVerdict::AppCrash => {
                        format!("{start} RUN  {benchmark}: APPLICATION CRASH")
                    }
                    RunVerdict::SysCrash => {
                        format!("{start} RUN  {benchmark}: SYSTEM CRASH")
                    }
                },
                LogEvent::Edac(r) => format!("{} EDAC {} {}", r.time, r.array, r.severity),
                LogEvent::Recovery { start, duration } => {
                    format!("{start} RCVR board recovery, {duration}")
                }
                LogEvent::SessionEnded { at, reason } => {
                    format!("{at} END  session stopped: {reason:?}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Serializes the logbook as one JSON object per line (JSONL) — the
    /// machine-readable twin of [`render`](Self::render), and the format
    /// the telemetry exporter embeds in its event stream. Timestamps are
    /// simulated seconds, so two campaign traces diff line-by-line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

impl LogEvent {
    /// One flat JSON object (`{"event":...}`) describing this entry.
    pub fn to_json(&self) -> String {
        match self {
            LogEvent::SessionStarted { at, point } => format!(
                "{{\"event\":\"session_start\",\"t_s\":{},\"pmd_mv\":{},\"soc_mv\":{},\
                 \"freq_mhz\":{}}}",
                json::number(at.as_secs()),
                point.pmd.get(),
                point.soc.get(),
                point.frequency.get()
            ),
            LogEvent::Run {
                start,
                benchmark,
                verdict,
            } => {
                let (kind, notified) = match verdict {
                    RunVerdict::Correct => ("ok", false),
                    RunVerdict::Sdc {
                        with_hw_notification,
                    } => ("sdc", *with_hw_notification),
                    RunVerdict::AppCrash => ("app_crash", false),
                    RunVerdict::SysCrash => ("sys_crash", false),
                };
                format!(
                    "{{\"event\":\"run\",\"t_s\":{},\"benchmark\":{},\"verdict\":\"{kind}\",\
                     \"ce_notified\":{notified}}}",
                    json::number(start.as_secs()),
                    json::escape(&benchmark.to_string()),
                )
            }
            LogEvent::Edac(r) => format!(
                "{{\"event\":\"edac\",\"t_s\":{},\"array\":{},\"severity\":\"{}\",\
                 \"domain\":\"{}\"}}",
                json::number(r.time.as_secs()),
                json::escape(&r.array.to_string()),
                r.severity,
                r.array.voltage_domain()
            ),
            LogEvent::Recovery { start, duration } => format!(
                "{{\"event\":\"recovery\",\"t_s\":{},\"duration_s\":{}}}",
                json::number(start.as_secs()),
                json::number(duration.as_secs())
            ),
            LogEvent::SessionEnded { at, reason } => format!(
                "{{\"event\":\"session_end\",\"t_s\":{},\"reason\":\"{reason:?}\"}}",
                json::number(at.as_secs())
            ),
        }
    }
}

impl SessionObserver for Logbook {
    fn on_session_start(&mut self, at: SimInstant, point: OperatingPoint) {
        self.events.push(LogEvent::SessionStarted { at, point });
    }

    fn on_run(&mut self, start: SimInstant, benchmark: Benchmark, verdict: RunVerdict) {
        self.events.push(LogEvent::Run {
            start,
            benchmark,
            verdict,
        });
    }

    fn on_edac(&mut self, record: EdacRecord) {
        self.events.push(LogEvent::Edac(record));
    }

    fn on_recovery(&mut self, start: SimInstant, duration: SimDuration) {
        self.events.push(LogEvent::Recovery { start, duration });
    }

    fn on_session_end(&mut self, at: SimInstant, reason: StopReason) {
        self.events.push(LogEvent::SessionEnded { at, reason });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignRunOptions;
    use crate::dut::DeviceUnderTest;
    use crate::session::{SessionLimits, SessionReport, TestSession};
    use serscale_soc::platform::OperatingPoint;
    use serscale_soc::PlatformSpec;
    use serscale_stats::SimRng;
    use serscale_types::Flux;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    /// Runs `session` on one worker with no journal, reporting to
    /// `observer`.
    fn run(
        session: &mut TestSession,
        seed: u64,
        observer: &mut dyn SessionObserver,
    ) -> SessionReport {
        session
            .try_run(
                &mut SimRng::seed_from(seed),
                0,
                &mut CampaignRunOptions::with_jobs(1),
                observer,
            )
            .expect("a run with no journal and no cancel token cannot fail")
    }

    fn logbook_for(minutes: f64, seed: u64) -> (SessionReport, Logbook) {
        let point = xgene2_point("Vmin");
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut session = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(serscale_types::SimDuration::from_minutes(minutes)),
        );
        let mut logbook = Logbook::new();
        let report = run(&mut session, seed, &mut logbook);
        (report, logbook)
    }

    #[test]
    fn logbook_traces_every_run_and_edac_record() {
        let (report, logbook) = logbook_for(60.0, 1);
        let runs = logbook
            .events()
            .iter()
            .filter(|e| matches!(e, LogEvent::Run { .. }))
            .count() as u64;
        let edacs = logbook
            .events()
            .iter()
            .filter(|e| matches!(e, LogEvent::Edac(_)))
            .count() as u64;
        assert_eq!(runs, report.runs);
        assert_eq!(edacs, report.memory_upsets);
    }

    #[test]
    fn logbook_failures_match_the_report() {
        let (report, logbook) = logbook_for(120.0, 2);
        assert_eq!(logbook.failures().count() as u64, report.error_events());
    }

    #[test]
    fn logbook_ends_with_the_stop_reason() {
        let (report, logbook) = logbook_for(10.0, 3);
        match logbook.events().last() {
            Some(LogEvent::SessionEnded { reason, .. }) => {
                assert_eq!(*reason, report.stop_reason)
            }
            other => panic!("last event must be SessionEnded, got {other:?}"),
        }
    }

    #[test]
    fn recoveries_follow_crashes() {
        let (_, logbook) = logbook_for(300.0, 4);
        let mut expecting_recovery = false;
        let mut saw_recovery = false;
        for event in logbook.events() {
            match event {
                LogEvent::Run { verdict, .. } => {
                    assert!(
                        !expecting_recovery,
                        "crash without recovery before next run"
                    );
                    expecting_recovery =
                        matches!(verdict, RunVerdict::AppCrash | RunVerdict::SysCrash);
                }
                LogEvent::Recovery { .. } => {
                    assert!(expecting_recovery, "recovery without a preceding crash");
                    expecting_recovery = false;
                    saw_recovery = true;
                }
                _ => {}
            }
        }
        assert!(
            saw_recovery,
            "a 5-hour Vmin session must include recoveries"
        );
    }

    #[test]
    fn render_is_greppable() {
        let (report, logbook) = logbook_for(120.0, 5);
        let text = logbook.render();
        assert_eq!(
            text.matches(" RUN ").count() as u64,
            report.runs,
            "one RUN line per run"
        );
        if report.failure_count(crate::classify::FailureClass::Sdc) > 0 {
            assert!(text.contains("SDC (output mismatch"));
        }
        assert!(text.trim_end().ends_with("session stopped: BeamTime"));
    }

    #[test]
    fn render_heads_with_the_operating_point() {
        let (_, logbook) = logbook_for(10.0, 6);
        match logbook.events().first() {
            Some(LogEvent::SessionStarted { point, .. }) => {
                assert_eq!(*point, xgene2_point("Vmin"));
            }
            other => panic!("first event must be SessionStarted, got {other:?}"),
        }
        let text = logbook.render();
        let head = text.lines().next().unwrap();
        assert!(
            head.contains("HEAD session at 920mV@2.4 GHz"),
            "header line: {head}"
        );
        assert!(head.contains("SoC 920 mV"), "header line: {head}");
    }

    #[test]
    fn jsonl_covers_every_event_and_escapes() {
        let (report, logbook) = logbook_for(60.0, 7);
        let jsonl = logbook.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), logbook.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"event\":"), "{line}");
        }
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"event\":\"run\""))
                .count() as u64,
            report.runs
        );
        assert!(lines[0].contains("\"event\":\"session_start\""));
        assert!(lines[0].contains("\"pmd_mv\":920"));
        assert!(lines.last().unwrap().contains("\"event\":\"session_end\""));
    }

    #[test]
    fn tee_feeds_both_observers_in_order() {
        let point = xgene2_point("Safe");
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut session = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(serscale_types::SimDuration::from_minutes(15.0)),
        );
        let mut left = Logbook::new();
        let mut right = Logbook::new();
        let mut both = tee(&mut left, &mut right);
        run(&mut session, 21, &mut both);
        assert!(!left.is_empty());
        assert_eq!(left, right, "tee must mirror the full trace");
    }

    #[test]
    fn wave_stats_efficiency() {
        let full = WaveStats {
            first_trial: 0,
            planned: 32,
            absorbed: 32,
            host_nanos: 1,
            ..WaveStats::default()
        };
        assert!((full.efficiency() - 1.0).abs() < 1e-12);
        let cut = WaveStats {
            first_trial: 32,
            planned: 32,
            absorbed: 8,
            host_nanos: 1,
            ..WaveStats::default()
        };
        assert!((cut.efficiency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn observed_and_plain_runs_agree() {
        let point = xgene2_point("Safe");
        let make = || {
            let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
            TestSession::new(
                dut,
                Flux::per_cm2_s(1.5e6),
                SessionLimits::time_boxed(serscale_types::SimDuration::from_minutes(20.0)),
            )
        };
        let plain = run(&mut make(), 9, &mut NoopObserver);
        let mut logbook = Logbook::new();
        let observed = run(&mut make(), 9, &mut logbook);
        assert_eq!(plain, observed, "observation must not perturb the physics");
    }
}
