//! The [`TelemetrySink`]: owns the run's registry, tracer, event stream
//! and progress reporter, hands out observers, and serializes everything
//! to disk at end of run.
//!
//! A sink writes four artifacts into its output directory:
//!
//! | file          | contents                                            |
//! |---------------|-----------------------------------------------------|
//! | `events.jsonl`| one JSON object per observer callback, in order     |
//! | `spans.jsonl` | closed spans, chronological by enter time           |
//! | `metrics.prom`| Prometheus text exposition snapshot of all series   |
//! | `summary.txt` | the human summary table also printed at end of run  |
//!
//! Both JSONL streams are checked with [`crate::json::validate_lines`]
//! before anything touches disk, so a malformed line fails the run loudly
//! instead of poisoning downstream tooling. The
//! [`TelemetrySink::crosscheck_campaign`] method closes the loop the
//! other way: it proves the exported `edac_events` counters agree with
//! the simulation's own [`CampaignReport`] per voltage domain.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serscale_core::campaign::CampaignReport;
use serscale_types::CacheLevel;

use serscale_core::journal::SyncProbe;

use crate::convergence::{ConvergenceSnapshot, ConvergenceTracker};
use crate::json;
use crate::metrics::{Registry, Shard};
use crate::observer::TelemetryObserver;
use crate::progress::{Progress, ProgressMode};
use crate::serve::{CampaignStatus, MonitorServer, MonitorState};
use crate::span::{SpanId, SpanLevel, Tracer};

/// Behavioral switches for a sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryOptions {
    /// Print a live progress line to stderr. Must stay `false` in CI and
    /// golden runs; the `repro` binary only turns it on for interactive
    /// terminals (or plain mode when explicitly useful).
    pub progress: bool,
    /// How an enabled progress reporter writes: in-place rewrites for
    /// TTYs, plain periodic lines for logs. Ignored when `progress` is
    /// off.
    pub progress_mode: ProgressMode,
    /// Record one span per benchmark trial (sim-clock timestamps). Off by
    /// default: trials are numerous and wave/session spans usually carry
    /// enough structure.
    pub trial_spans: bool,
}

/// The per-run telemetry hub. Create one, attach observers to engine
/// runs, then [`write`](TelemetrySink::write) the artifacts.
pub struct TelemetrySink {
    dir: Option<PathBuf>,
    registry: Registry,
    /// The sink's own shard, for gauges/counters set outside any
    /// observer (e.g. verify verdict headlines).
    shard: Arc<Shard>,
    tracer: Arc<Tracer>,
    events: Arc<Mutex<String>>,
    progress: Arc<Mutex<Progress>>,
    campaign_span: SpanId,
    options: TelemetryOptions,
    /// Slow-changing campaign facts surfaced by `/campaign`.
    status: Arc<Mutex<CampaignStatus>>,
    /// Journal fsync probe surfaced by `/healthz`, when journaled.
    probe: Arc<Mutex<Option<SyncProbe>>>,
    /// The statistical convergence plane, fed by this sink's observers
    /// and surfaced by `/convergence`.
    convergence: Arc<Mutex<ConvergenceTracker>>,
}

impl TelemetrySink {
    /// A sink writing artifacts under `dir` (created if absent).
    pub fn new(dir: &Path, options: TelemetryOptions) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut sink = Self::in_memory(options);
        sink.dir = Some(dir.to_path_buf());
        Ok(sink)
    }

    /// A sink that never touches disk ([`write`](Self::write) is then an
    /// error). Used by tests and by callers that only want the summary.
    pub fn in_memory(options: TelemetryOptions) -> Self {
        let registry = Registry::new();
        let shard = registry.shard();
        let tracer = Arc::new(Tracer::new());
        let campaign_span = tracer.enter(SpanLevel::Campaign, "run", SpanId::ROOT, &[]);
        TelemetrySink {
            dir: None,
            registry,
            shard,
            tracer,
            events: Arc::new(Mutex::new(String::new())),
            progress: Arc::new(Mutex::new(Progress::with_mode(
                options.progress,
                options.progress_mode,
            ))),
            campaign_span,
            options,
            status: Arc::new(Mutex::new(CampaignStatus::default())),
            probe: Arc::new(Mutex::new(None)),
            convergence: Arc::new(Mutex::new(ConvergenceTracker::new())),
        }
    }

    /// Starts the live monitoring server on `addr` (use `127.0.0.1:0`
    /// for an ephemeral port; read the real one from
    /// [`MonitorServer::addr`]). The server only gets read handles into
    /// the sink, so attaching it cannot perturb a run.
    pub fn serve(&self, addr: &str) -> std::io::Result<MonitorServer> {
        MonitorServer::bind(addr, self.monitor_state())
    }

    /// [`serve`](Self::serve) with a campaign control plane attached:
    /// the same monitoring endpoints plus the read-write `/campaigns`
    /// routes (submit, list, status, report, event stream, cancel) and
    /// `POST /shutdown`. This sink carries the *service-level* telemetry
    /// (submission counters, scrape metrics); each job gets its own
    /// private sink inside the control plane.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve_control(
        self: &Arc<Self>,
        addr: &str,
        control: Arc<crate::control::ControlPlane>,
    ) -> std::io::Result<MonitorServer> {
        control.attach_metrics(Arc::clone(self));
        MonitorServer::bind(addr, self.monitor_state().with_control(control))
    }

    fn monitor_state(&self) -> MonitorState {
        MonitorState::new(
            self.registry.clone(),
            Arc::clone(&self.tracer),
            Arc::clone(&self.progress),
            Arc::clone(&self.status),
            Arc::clone(&self.probe),
            Arc::clone(&self.convergence),
        )
    }

    /// Publishes the journal's fsync probe so `/healthz` can report sync
    /// lag. Call after attaching the same probe to the `JournalWriter`.
    pub fn attach_sync_probe(&self, probe: SyncProbe) {
        *self.probe.lock().expect("probe cell poisoned") = Some(probe);
    }

    /// Updates the `/campaign` status cell in place.
    pub fn set_campaign_status(&self, update: impl FnOnce(&mut CampaignStatus)) {
        update(&mut self.status.lock().expect("status cell poisoned"));
    }

    /// A fresh observer feeding this sink. Each observer owns a registry
    /// shard, so one sink can serve several engine runs (or threads).
    pub fn observer(&self) -> TelemetryObserver {
        TelemetryObserver::new(
            self.registry.clone(),
            Arc::clone(&self.tracer),
            Arc::clone(&self.events),
            Arc::clone(&self.progress),
            self.campaign_span,
            self.options.trial_spans,
            Arc::clone(&self.convergence),
        )
    }

    /// The current convergence snapshot — every operating point's
    /// per-(domain, array) counts, rates and Garwood CIs.
    pub fn convergence_snapshot(&self) -> ConvergenceSnapshot {
        self.convergence
            .lock()
            .expect("convergence tracker poisoned")
            .snapshot()
    }

    /// [`convergence_snapshot`](Self::convergence_snapshot) rendered as
    /// the byte-stable `/convergence` JSON document.
    pub fn convergence_json(&self) -> String {
        self.convergence_snapshot().to_json()
    }

    /// The sink's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sink's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The event stream accumulated so far.
    pub fn events_jsonl(&self) -> String {
        self.events_since(0)
    }

    /// The event stream's bytes past `offset`, copied under the lock: a
    /// follower that passes the length it already holds copies only what
    /// is new. Empty when `offset` is at or past the end.
    pub fn events_since(&self, offset: usize) -> String {
        let events = self.events.lock().expect("event buffer poisoned");
        events.get(offset..).unwrap_or_default().to_string()
    }

    /// Sets a gauge on the sink's own shard — the hook `repro verify`
    /// uses to export verdict headline numbers.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.registry.gauge(&self.shard, name, labels).set(value);
    }

    /// Bumps a counter on the sink's own shard.
    pub fn add_counter(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.shard.counter(name, labels).add(by);
    }

    /// Records one observation into a histogram on the sink's own shard.
    pub fn observe_histogram(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.shard.histogram(name, labels).observe(value);
    }

    /// Declares the run's total simulated duration for the progress ETA.
    pub fn set_progress_target_sim_secs(&self, secs: f64) {
        self.progress
            .lock()
            .expect("progress poisoned")
            .set_target_sim_secs(secs);
    }

    /// Proves the exported counters agree with the simulation's own
    /// report: for every voltage label and domain, the `edac_events`
    /// total must equal the sum of the report's per-level EDAC counts
    /// mapped onto domains (L3 is SoC-powered, everything else PMD).
    pub fn crosscheck_campaign(&self, report: &CampaignReport) -> Result<(), String> {
        let snapshot = self.registry.snapshot();
        let mut expected: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        for session in &report.sessions {
            let label = session.operating_point.label();
            for (&(level, _severity), &count) in &session.edac_per_level {
                let domain = match level {
                    CacheLevel::L3 => "SoC",
                    CacheLevel::Tlb | CacheLevel::L1 | CacheLevel::L2 => "PMD",
                };
                *expected.entry((label.clone(), domain)).or_default() += count;
            }
        }
        for ((label, domain), want) in &expected {
            let got =
                snapshot.counter_total("edac_events", &[("voltage", label), ("domain", domain)]);
            if got != *want {
                return Err(format!(
                    "edac_events{{voltage={label},domain={domain}}} = {got}, report says {want}"
                ));
            }
        }
        let report_total: u64 = report.sessions.iter().map(|s| s.memory_upsets).sum();
        let counter_total = snapshot.counter_total("edac_events", &[]);
        if counter_total != report_total {
            return Err(format!(
                "edac_events total {counter_total} != report total {report_total}"
            ));
        }
        // And the convergence plane must have seen the same stream: its
        // per-cell event counts and trial tallies sum to the report's.
        let convergence = self.convergence_snapshot();
        let tracked_events: u64 = convergence
            .points
            .iter()
            .flat_map(|p| &p.cells)
            .map(|c| c.events)
            .sum();
        if tracked_events != report_total {
            return Err(format!(
                "convergence plane tracked {tracked_events} events, report says {report_total}"
            ));
        }
        let tracked_trials: u64 = convergence.points.iter().map(|p| p.trials).sum();
        let report_runs: u64 = report.sessions.iter().map(|s| s.runs).sum();
        if tracked_trials != report_runs {
            return Err(format!(
                "convergence plane tracked {tracked_trials} trials, report says {report_runs}"
            ));
        }
        Ok(())
    }

    /// The end-of-run summary table.
    pub fn summary(&self) -> String {
        let snapshot = self.registry.snapshot();
        let wall_secs = self.tracer.now_ns() as f64 / 1e9;
        let events = snapshot.counter_total("telemetry_events_total", &[]);
        let trials = snapshot.counter_total("runs_total", &[]);
        let pmd = snapshot.counter_total("edac_events", &[("domain", "PMD")]);
        let soc = snapshot.counter_total("edac_events", &[("domain", "SoC")]);
        // `+ 0.0` normalizes the empty sum's IEEE identity (-0.0) so a
        // run with no recoveries prints "0.0", not "-0.0".
        let recovery_lost: f64 = snapshot
            .histograms
            .iter()
            .filter(|(key, _)| key.name == "recovery_time_lost")
            .map(|(_, h)| h.sum)
            .sum::<f64>()
            + 0.0;
        let planned = snapshot.counter_total("wave_trials_planned_total", &[]);
        let absorbed = snapshot.counter_total("wave_trials_absorbed_total", &[]);
        let mut out = String::from("== telemetry summary ==\n");
        let rate = if wall_secs > 0.0 {
            events as f64 / wall_secs
        } else {
            0.0
        };
        out.push_str(&format!(
            "events captured     {events} ({rate:.0} events/sec over {wall_secs:.2}s wall)\n"
        ));
        out.push_str(&format!("trials completed    {trials}\n"));
        out.push_str(&format!("upsets (PMD rail)   {pmd}\n"));
        out.push_str(&format!("upsets (SoC rail)   {soc}\n"));
        out.push_str(&format!("recovery time lost  {recovery_lost:.1} sim-s\n"));
        if planned > 0 {
            out.push_str(&format!(
                "worker utilization  {:.1}% (absorbed {absorbed} of {planned} speculated trials)\n",
                100.0 * absorbed as f64 / planned as f64
            ));
        }
        for (key, value) in &snapshot.gauges {
            if key.name.starts_with("verify_") {
                out.push_str(&format!("{:<19} {value}\n", key.render()));
            }
        }
        out
    }

    /// Writes `events.jsonl`, `spans.jsonl`, `metrics.prom` and
    /// `summary.txt` into the sink's directory and returns their paths.
    /// The event and span streams are validated first; a malformed line
    /// is an error and nothing is written.
    pub fn write(&self) -> std::io::Result<Vec<PathBuf>> {
        let dir = self.dir.clone().ok_or_else(|| {
            std::io::Error::other("telemetry sink has no output directory (in-memory sink)")
        })?;
        self.tracer.exit(self.campaign_span);
        self.progress.lock().expect("progress poisoned").finish();

        // The event buffer is checked and written under its lock rather
        // than copied out first.
        let events = self.events.lock().expect("event buffer poisoned");
        json::validate_lines(&events)
            .map_err(|e| std::io::Error::other(format!("events.jsonl self-check failed: {e}")))?;
        let spans = self.tracer.to_jsonl();
        json::validate_lines(&spans)
            .map_err(|e| std::io::Error::other(format!("spans.jsonl self-check failed: {e}")))?;

        let artifacts = [
            ("events.jsonl", events.as_str()),
            ("spans.jsonl", &spans),
            (
                "metrics.prom",
                &self.registry.snapshot().render_prometheus(),
            ),
            ("summary.txt", &self.summary()),
        ];
        let mut paths = Vec::new();
        for (name, contents) in artifacts {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Writes an extra artifact (e.g. the Logbook trace) next to the
    /// standard four.
    pub fn write_extra(&self, name: &str, contents: &str) -> std::io::Result<PathBuf> {
        let dir = self.dir.clone().ok_or_else(|| {
            std::io::Error::other("telemetry sink has no output directory (in-memory sink)")
        })?;
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_core::campaign::{Campaign, CampaignConfig, CampaignRunOptions};

    fn small_campaign() -> Campaign {
        Campaign::new(CampaignConfig::paper_scaled(0.005))
    }

    #[test]
    fn crosscheck_agrees_with_the_engine_report() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        let campaign = small_campaign();
        let report = campaign.run_observed(2, &mut observer);
        sink.crosscheck_campaign(&report).expect("counters agree");
        assert!(report.sessions.iter().any(|s| s.memory_upsets > 0));
    }

    #[test]
    fn crosscheck_catches_a_missing_observer() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let campaign = small_campaign();
        // Run WITHOUT the observer: counters stay zero, report does not.
        let report = campaign
            .try_run(
                CampaignRunOptions::with_jobs(1),
                &mut serscale_core::trace::NoopObserver,
            )
            .expect("a run with no journal and no cancel token cannot fail");
        let err = sink
            .crosscheck_campaign(&report)
            .expect_err("zero counters cannot match a live report");
        assert!(err.contains("edac_events"), "{err}");
    }

    #[test]
    fn write_produces_parseable_artifacts() {
        let dir = std::env::temp_dir().join(format!(
            "serscale-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = TelemetrySink::new(&dir, TelemetryOptions::default()).expect("sink");
        let mut observer = sink.observer();
        let campaign = small_campaign();
        let report = campaign.run_observed(1, &mut observer);
        let paths = sink.write().expect("write");
        assert_eq!(paths.len(), 4);
        let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events");
        let docs = json::parse_lines(&events).expect("events parse");
        let runs: usize = docs
            .iter()
            .filter(|d| d.get("event").and_then(json::JsonValue::as_str) == Some("run"))
            .count();
        let total_runs: u64 = report.sessions.iter().map(|s| s.runs).sum();
        assert_eq!(runs as u64, total_runs);
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("prom");
        assert!(prom.contains("edac_events{"), "{prom}");
        let summary = std::fs::read_to_string(dir.join("summary.txt")).expect("summary");
        assert!(summary.contains("worker utilization"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_gauges_show_in_the_summary() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        sink.set_gauge("verify_oracle_pass_ratio", &[], 0.96);
        let summary = sink.summary();
        assert!(summary.contains("verify_oracle_pass_ratio"), "{summary}");
    }

    #[test]
    fn in_memory_sink_refuses_to_write() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        assert!(sink.write().is_err());
    }
}
