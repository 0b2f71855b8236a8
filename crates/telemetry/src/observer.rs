//! The [`TelemetryObserver`]: a [`SessionObserver`] that turns the
//! engine's callback stream into metrics, spans, JSONL events and live
//! progress — without touching the simulation.
//!
//! ## The observe-only invariant
//!
//! Everything here is write-only from the engine's point of view: the
//! observer updates its own shard, tracer and event buffer and returns
//! nothing. The `tests/determinism.rs` suite proves campaign reports and
//! [`Logbook`](serscale_core::trace::Logbook) traces are bit-identical
//! with this observer attached or absent, at any `--jobs` count.
//!
//! ## Hot-path budget
//!
//! Callbacks fire once per trial/upset, so series handles are resolved
//! through the registry **once per session** and cached in small linear
//! tables (≤8 entries each); the per-event cost is an atomic increment,
//! one JSONL line written in place into a session-local buffer, and
//! uncontended locks of the convergence tracker and progress. `repro
//! bench`'s `jobs=1+telemetry` row measures the total cost against the
//! bare campaign, and CI gates it (TESTING.md).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use serscale_core::classify::{FailureClass, RunVerdict};
use serscale_core::session::StopReason;
use serscale_core::trace::{SessionObserver, WaveStats};
use serscale_soc::edac::{EdacRecord, EdacSeverity};
use serscale_soc::platform::OperatingPoint;
use serscale_types::{ArrayKind, CacheLevel, SimDuration, SimInstant, VoltageDomain};
use serscale_workload::Benchmark;

use crate::metrics::{Counter, Gauge, Histogram, Registry, Shard};
use crate::progress::Progress;
use crate::span::{SpanId, SpanLevel, Tracer};

/// Cumulative pool accounting for one worker slot (index = `worker`
/// label), carried across waves and sessions by the observer.
struct WorkerSlot {
    busy_nanos: u64,
    idle_nanos: u64,
    busy_gauge: Gauge,
    idle_gauge: Gauge,
    shards: Counter,
}

/// Cached gauge handles for one convergence cell, resolved once when
/// its operating point first appears (the `rel` series only once the
/// half-width turns finite, so an empty cell never exports a bogus 0).
struct CellGauges {
    /// `convergence_events{…,class}` for masked / due / sdc, in order.
    events: [Gauge; 3],
    rate: Gauge,
    lower: Gauge,
    upper: Gauge,
    rel: Option<Gauge>,
}

/// Per-session state: identity, rolling counts, and the cached series
/// handles every callback bumps without re-resolving labels.
struct SessionState {
    point: OperatingPoint,
    /// `"920mV@2.4 GHz"` — the label every series of this session carries.
    voltage: String,
    /// The same label pre-escaped as a JSON string literal.
    voltage_json: String,
    span: SpanId,
    last_run_start: Option<SimInstant>,
    upsets: u64,
    runs: u64,
    recovery_lost: SimDuration,
    trial_hist: Histogram,
    /// `runs_total{voltage,benchmark}` + the benchmark's JSON name,
    /// filled on first encounter (≤6 entries).
    run_counters: Vec<(Benchmark, Counter, String)>,
    /// `run_failures_total{voltage,class}` (≤3 entries).
    failure_counters: Vec<(FailureClass, Counter)>,
    /// `edac_events{voltage,domain,domain_mv,severity,level}` keyed by
    /// what determines the labels (≤8 entries).
    edac_counters: Vec<((CacheLevel, EdacSeverity), Counter)>,
    /// Array display names pre-escaped for the event stream (≤8 entries).
    array_json: Vec<(ArrayKind, String)>,
    recoveries: Counter,
    recovery_hist: Histogram,
    wave_latency: Histogram,
    wave_critical_path: Histogram,
    waves: Counter,
    wave_planned: Counter,
    wave_absorbed: Counter,
    trial_retries: Counter,
    quarantined_trials: Counter,
}

impl SessionState {
    fn new(shard: &Shard, point: OperatingPoint, span: SpanId) -> Self {
        let voltage = point.label();
        let voltage_json = crate::json::escape(&voltage);
        SessionState {
            point,
            span,
            last_run_start: None,
            upsets: 0,
            runs: 0,
            recovery_lost: SimDuration::ZERO,
            trial_hist: shard.histogram("trial_wall_time", &[("voltage", &voltage)]),
            run_counters: Vec::new(),
            failure_counters: Vec::new(),
            edac_counters: Vec::new(),
            array_json: Vec::new(),
            recoveries: shard.counter("recoveries_total", &[("voltage", &voltage)]),
            recovery_hist: shard.histogram("recovery_time_lost", &[("voltage", &voltage)]),
            wave_latency: shard.histogram("wave_merge_latency", &[("voltage", &voltage)]),
            wave_critical_path: shard.histogram("wave_critical_path", &[("voltage", &voltage)]),
            waves: shard.counter("waves_total", &[("voltage", &voltage)]),
            wave_planned: shard.counter("wave_trials_planned_total", &[("voltage", &voltage)]),
            wave_absorbed: shard.counter("wave_trials_absorbed_total", &[("voltage", &voltage)]),
            trial_retries: shard.counter("trial_retries", &[("voltage", &voltage)]),
            quarantined_trials: shard.counter("quarantined_trials", &[("voltage", &voltage)]),
            voltage,
            voltage_json,
        }
    }

    fn run_counter(
        &mut self,
        shard: &Shard,
        benchmark: Benchmark,
    ) -> &(Benchmark, Counter, String) {
        let pos = match self
            .run_counters
            .iter()
            .position(|(b, _, _)| *b == benchmark)
        {
            Some(pos) => pos,
            None => {
                let name = benchmark.to_string();
                let counter = shard.counter(
                    "runs_total",
                    &[("voltage", &self.voltage), ("benchmark", &name)],
                );
                self.run_counters
                    .push((benchmark, counter, crate::json::escape(&name)));
                self.run_counters.len() - 1
            }
        };
        &self.run_counters[pos]
    }

    fn failure_counter(&mut self, shard: &Shard, class: FailureClass) -> &Counter {
        let pos = match self.failure_counters.iter().position(|(c, _)| *c == class) {
            Some(pos) => pos,
            None => {
                let counter = shard.counter(
                    "run_failures_total",
                    &[("voltage", &self.voltage), ("class", class_name(class))],
                );
                self.failure_counters.push((class, counter));
                self.failure_counters.len() - 1
            }
        };
        &self.failure_counters[pos].1
    }

    fn edac_counter(&mut self, shard: &Shard, record: &EdacRecord) -> &Counter {
        let key = (record.cache_level(), record.severity);
        let pos = match self.edac_counters.iter().position(|(k, _)| *k == key) {
            Some(pos) => pos,
            None => {
                let domain = record.array.voltage_domain();
                let rail = match domain {
                    VoltageDomain::Soc => self.point.soc,
                    VoltageDomain::Pmd | VoltageDomain::Standby => self.point.pmd,
                };
                let counter = shard.counter(
                    "edac_events",
                    &[
                        ("voltage", &self.voltage),
                        ("domain", &domain.to_string()),
                        ("domain_mv", &rail.get().to_string()),
                        ("severity", &record.severity.to_string()),
                        ("level", &format!("{:?}", key.0)),
                    ],
                );
                self.edac_counters.push((key, counter));
                self.edac_counters.len() - 1
            }
        };
        &self.edac_counters[pos].1
    }

    fn array_json(&mut self, array: ArrayKind) -> &str {
        let pos = match self.array_json.iter().position(|(a, _)| *a == array) {
            Some(pos) => pos,
            None => {
                self.array_json
                    .push((array, crate::json::escape(&array.to_string())));
                self.array_json.len() - 1
            }
        };
        &self.array_json[pos].1
    }
}

fn class_name(class: FailureClass) -> &'static str {
    match class {
        FailureClass::Sdc => "sdc",
        FailureClass::AppCrash => "app_crash",
        FailureClass::SysCrash => "sys_crash",
    }
}

/// Translates [`SessionObserver`] callbacks into telemetry. Build one via
/// [`TelemetrySink::observer`](crate::export::TelemetrySink::observer);
/// each observer gets its own registry shard, so several may run on
/// different threads against one sink.
pub struct TelemetryObserver {
    registry: Registry,
    shard: Arc<Shard>,
    tracer: Arc<Tracer>,
    events: Arc<Mutex<String>>,
    /// Event lines buffered locally and flushed to the shared stream at
    /// session end, keeping the callback path lock-free.
    pending: String,
    events_counter: Counter,
    progress: Arc<Mutex<Progress>>,
    /// Parent for session spans (the sink's campaign span, if any).
    parent: SpanId,
    trial_spans: bool,
    /// The sink's shared convergence tracker (statistical plane).
    convergence: Arc<Mutex<crate::convergence::ConvergenceTracker>>,
    /// Cached convergence gauge handles, indexed `[point][cell]` in
    /// snapshot order (points append-only, cells fixed per point), so a
    /// session end re-renders the plane without re-resolving labels.
    convergence_gauges: Vec<Vec<CellGauges>>,
    /// `convergence_cells_total` / `convergence_resolved_cells`.
    convergence_headline: Option<(Gauge, Gauge)>,
    state: Option<SessionState>,
    /// Sim-seconds completed in *earlier* sessions (for progress/ETA).
    completed_sim_secs: f64,
    /// Per-worker busy/idle/shard accounting, cumulative across waves
    /// (indexed by worker slot; grows to the pool's `--jobs` width).
    workers: Vec<WorkerSlot>,
}

impl TelemetryObserver {
    pub(crate) fn new(
        registry: Registry,
        tracer: Arc<Tracer>,
        events: Arc<Mutex<String>>,
        progress: Arc<Mutex<Progress>>,
        parent: SpanId,
        trial_spans: bool,
        convergence: Arc<Mutex<crate::convergence::ConvergenceTracker>>,
    ) -> Self {
        let shard = registry.shard();
        let events_counter = shard.counter("telemetry_events_total", &[]);
        TelemetryObserver {
            registry,
            shard,
            tracer,
            events,
            pending: String::new(),
            events_counter,
            progress,
            parent,
            trial_spans,
            convergence,
            convergence_gauges: Vec::new(),
            convergence_headline: None,
            state: None,
            completed_sim_secs: 0.0,
            workers: Vec::new(),
        }
    }

    /// Folds one wave's [`PoolProfile`](serscale_core::parallel::PoolProfile)
    /// into the cumulative per-worker series. Host-clock data: the values
    /// vary run to run and with `--jobs`, unlike the simulation series.
    fn account_pool(&mut self, pool: &serscale_core::parallel::PoolProfile) {
        for (index, report) in pool.workers.iter().enumerate() {
            if self.workers.len() <= index {
                let label = self.workers.len().to_string();
                let labels = [("worker", label.as_str())];
                self.workers.push(WorkerSlot {
                    busy_nanos: 0,
                    idle_nanos: 0,
                    busy_gauge: self
                        .registry
                        .gauge(&self.shard, "worker_busy_seconds", &labels),
                    idle_gauge: self
                        .registry
                        .gauge(&self.shard, "worker_idle_seconds", &labels),
                    shards: self.shard.counter("worker_shards_total", &labels),
                });
            }
            let slot = &mut self.workers[index];
            slot.busy_nanos += report.busy_nanos;
            slot.idle_nanos += pool.wall_nanos.saturating_sub(report.busy_nanos);
            slot.busy_gauge.set(slot.busy_nanos as f64 / 1e9);
            slot.idle_gauge.set(slot.idle_nanos as f64 / 1e9);
            slot.shards.add(report.shards);
        }
    }

    fn push_event(&mut self, line: &str) {
        self.pending.push_str(line);
        self.pending.push('\n');
        self.events_counter.inc();
    }

    /// Moves buffered event lines into the shared stream (one lock per
    /// session, not per event).
    fn flush_events(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push_str(&self.pending);
        self.pending.clear();
    }

    /// Settles the previous trial's simulated wall time: consecutive run
    /// starts are exactly one trial apart on the merged session clock.
    fn settle_trial(&mut self, upto: SimInstant) {
        let Some(state) = &mut self.state else { return };
        if let Some(last) = state.last_run_start.take() {
            state.trial_hist.observe(upto.elapsed_since(last).as_secs());
            if self.trial_spans {
                // Trial spans run on the *simulated* clock (attr
                // `clock=sim`): sim seconds map to stream nanoseconds.
                self.tracer.record_complete(
                    SpanLevel::Trial,
                    &format!("trial@{last}"),
                    state.span,
                    (last.as_secs() * 1e9) as u64,
                    (upto.as_secs() * 1e9) as u64,
                    &[("clock", "sim")],
                );
            }
        }
    }

    /// Closes the convergence tracker's session at `at`, re-renders its
    /// Prometheus gauges for every operating point seen so far, and
    /// hands the progress reporter the headline (resolved/total cells,
    /// the widest-CI cell and its projected time-to-resolution).
    ///
    /// All values derive from simulation counts and the deterministic
    /// session clock, so the gauges are identical at any `--jobs`.
    fn publish_convergence(&mut self, at: SimInstant) {
        let snapshot = {
            let mut tracker = self
                .convergence
                .lock()
                .expect("convergence tracker poisoned");
            tracker.session_end(at);
            tracker.snapshot()
        };
        for (index, point) in snapshot.points.iter().enumerate() {
            if self.convergence_gauges.len() <= index {
                let voltage = point.voltage.as_str();
                let handles = point
                    .cells
                    .iter()
                    .map(|cell| {
                        let domain = cell.domain.to_string();
                        let array = cell.array.to_string();
                        let base = [
                            ("voltage", voltage),
                            ("domain", domain.as_str()),
                            ("array", array.as_str()),
                        ];
                        CellGauges {
                            events: ["masked", "due", "sdc"].map(|class| {
                                let labels = [base[0], base[1], base[2], ("class", class)];
                                self.registry
                                    .gauge(&self.shard, "convergence_events", &labels)
                            }),
                            rate: self.registry.gauge(
                                &self.shard,
                                "convergence_rate_per_hour",
                                &base,
                            ),
                            lower: self.registry.gauge(
                                &self.shard,
                                "convergence_ci_lower_per_hour",
                                &base,
                            ),
                            upper: self.registry.gauge(
                                &self.shard,
                                "convergence_ci_upper_per_hour",
                                &base,
                            ),
                            rel: None,
                        }
                    })
                    .collect();
                self.convergence_gauges.push(handles);
            }
            let handles = &mut self.convergence_gauges[index];
            for (cell, cached) in point.cells.iter().zip(handles.iter_mut()) {
                for (slot, count) in [cell.masked, cell.due, cell.sdc].into_iter().enumerate() {
                    cached.events[slot].set(count as f64);
                }
                cached.rate.set(cell.rate_per_hour);
                cached.lower.set(cell.ci_lower_per_hour);
                cached.upper.set(cell.ci_upper_per_hour);
                if cell.rel_halfwidth.is_finite() {
                    if cached.rel.is_none() {
                        let domain = cell.domain.to_string();
                        let array = cell.array.to_string();
                        cached.rel = Some(self.registry.gauge(
                            &self.shard,
                            "convergence_rel_halfwidth",
                            &[
                                ("voltage", point.voltage.as_str()),
                                ("domain", domain.as_str()),
                                ("array", array.as_str()),
                            ],
                        ));
                    }
                    cached
                        .rel
                        .as_ref()
                        .expect("just created")
                        .set(cell.rel_halfwidth);
                }
            }
        }
        if self.convergence_headline.is_none() {
            self.convergence_headline = Some((
                self.registry
                    .gauge(&self.shard, "convergence_cells_total", &[]),
                self.registry
                    .gauge(&self.shard, "convergence_resolved_cells", &[]),
            ));
        }
        let (cells_total, cells_resolved) =
            self.convergence_headline.as_ref().expect("just created");
        cells_total.set(snapshot.cells_total() as f64);
        cells_resolved.set(snapshot.cells_resolved() as f64);
        let widest = snapshot.widest().map(|(point, cell)| {
            (
                format!("{} {}", point.voltage, cell.label()),
                cell.rel_halfwidth,
                cell.projected_seconds,
            )
        });
        self.progress
            .lock()
            .expect("progress poisoned")
            .set_convergence(
                snapshot.cells_resolved() as u64,
                snapshot.cells_total() as u64,
                widest,
            );
    }
}

impl Drop for TelemetryObserver {
    /// Flushes any event lines a truncated session left buffered, so the
    /// shared stream never silently loses the tail of an aborted run.
    fn drop(&mut self) {
        self.flush_events();
    }
}

impl SessionObserver for TelemetryObserver {
    fn on_session_start(&mut self, at: SimInstant, point: OperatingPoint) {
        let voltage = point.label();
        let pmd = point.pmd.get().to_string();
        let soc = point.soc.get().to_string();
        let freq = point.frequency.get().to_string();
        let span = self.tracer.enter(
            SpanLevel::Session,
            &format!("session {voltage}"),
            self.parent,
            &[
                ("pmd_mv", pmd.as_str()),
                ("soc_mv", soc.as_str()),
                ("freq_mhz", freq.as_str()),
            ],
        );
        self.shard
            .counter("sessions_total", &[("voltage", &voltage)])
            .inc();
        let state = SessionState::new(&self.shard, point, span);
        self.push_event(&format!(
            "{{\"event\":\"session_start\",\"t_s\":{},\"voltage\":{},\"pmd_mv\":{pmd},\
             \"soc_mv\":{soc},\"freq_mhz\":{freq}}}",
            crate::json::number(at.as_secs()),
            state.voltage_json,
        ));
        self.progress
            .lock()
            .expect("progress poisoned")
            .session_started(&state.voltage);
        self.convergence
            .lock()
            .expect("convergence tracker poisoned")
            .session_start(point);
        self.state = Some(state);
    }

    fn on_run(&mut self, start: SimInstant, benchmark: Benchmark, verdict: RunVerdict) {
        self.settle_trial(start);
        self.convergence
            .lock()
            .expect("convergence tracker poisoned")
            .run(verdict);
        let Some(state) = &mut self.state else { return };
        state.last_run_start = Some(start);
        state.runs += 1;
        if let Some(class) = verdict.failure_class() {
            state.failure_counter(&self.shard, class).inc();
        }
        let (kind, notified) = match verdict {
            RunVerdict::Correct => ("ok", false),
            RunVerdict::Sdc {
                with_hw_notification,
            } => ("sdc", with_hw_notification),
            RunVerdict::AppCrash => ("app_crash", false),
            RunVerdict::SysCrash => ("sys_crash", false),
        };
        // The line is written in place: this runs once per trial.
        let line = &mut self.pending;
        line.push_str("{\"event\":\"run\",\"t_s\":");
        crate::json::write_number(line, start.as_secs());
        line.push_str(",\"voltage\":");
        line.push_str(&state.voltage_json);
        line.push_str(",\"benchmark\":");
        let (_, counter, bench_json) = state.run_counter(&self.shard, benchmark);
        counter.inc();
        line.push_str(bench_json);
        line.push_str(",\"verdict\":\"");
        line.push_str(kind);
        line.push_str("\",\"ce_notified\":");
        line.push_str(if notified { "true}\n" } else { "false}\n" });
        self.events_counter.inc();
        let upsets = state.upsets;
        self.progress
            .lock()
            .expect("progress poisoned")
            .trial_done(self.completed_sim_secs + start.as_secs(), upsets);
    }

    fn on_edac(&mut self, record: EdacRecord) {
        self.convergence
            .lock()
            .expect("convergence tracker poisoned")
            .edac(record.array, record.severity);
        let Some(state) = &mut self.state else { return };
        state.upsets += 1;
        state.edac_counter(&self.shard, &record).inc();
        let line = &mut self.pending;
        line.push_str("{\"event\":\"edac\",\"t_s\":");
        crate::json::write_number(line, record.time.as_secs());
        line.push_str(",\"voltage\":");
        line.push_str(&state.voltage_json);
        line.push_str(",\"array\":");
        line.push_str(state.array_json(record.array));
        let _ = writeln!(
            line,
            ",\"domain\":\"{}\",\"severity\":\"{}\"}}",
            record.array.voltage_domain(),
            record.severity
        );
        self.events_counter.inc();
    }

    fn on_recovery(&mut self, start: SimInstant, duration: SimDuration) {
        let Some(state) = &mut self.state else { return };
        state.recovery_lost += duration;
        state.recoveries.inc();
        state.recovery_hist.observe(duration.as_secs());
        let line = format!(
            "{{\"event\":\"recovery\",\"t_s\":{},\"voltage\":{},\"duration_s\":{}}}",
            crate::json::number(start.as_secs()),
            state.voltage_json,
            crate::json::number(duration.as_secs()),
        );
        self.push_event(&line);
    }

    fn on_session_end(&mut self, at: SimInstant, reason: StopReason) {
        self.settle_trial(at);
        let Some(state) = self.state.take() else {
            return;
        };
        let voltage = &state.voltage;
        let minutes = at.as_secs() / 60.0;
        let upset_rate = if minutes > 0.0 {
            state.upsets as f64 / minutes
        } else {
            0.0
        };
        self.registry
            .gauge(&self.shard, "session_sim_seconds", &[("voltage", voltage)])
            .set(at.as_secs());
        self.registry
            .gauge(
                &self.shard,
                "session_upsets_per_minute",
                &[("voltage", voltage)],
            )
            .set(upset_rate);
        self.registry
            .gauge(
                &self.shard,
                "session_recovery_lost_seconds",
                &[("voltage", voltage)],
            )
            .set(state.recovery_lost.as_secs());
        let reason_text = format!("{reason:?}");
        self.tracer.annotate(
            state.span,
            &[
                ("stop", reason_text.as_str()),
                ("sim_seconds", &format!("{:.3}", at.as_secs())),
            ],
        );
        self.tracer.exit(state.span);
        self.push_event(&format!(
            "{{\"event\":\"session_end\",\"t_s\":{},\"voltage\":{},\"reason\":\"{reason_text}\",\
             \"runs\":{},\"upsets\":{}}}",
            crate::json::number(at.as_secs()),
            state.voltage_json,
            state.runs,
            state.upsets,
        ));
        self.flush_events();
        self.completed_sim_secs += at.as_secs();
        self.publish_convergence(at);
        self.progress
            .lock()
            .expect("progress poisoned")
            .session_ended(self.completed_sim_secs);
    }

    fn on_wave(&mut self, stats: WaveStats) {
        self.account_pool(&stats.pool);
        let Some(state) = &self.state else { return };
        state.wave_latency.observe(stats.host_nanos as f64 / 1e9);
        state
            .wave_critical_path
            .observe(stats.pool.critical_path_nanos() as f64 / 1e9);
        state.waves.inc();
        state.wave_planned.add(stats.planned as u64);
        state.wave_absorbed.add(stats.absorbed as u64);
        state.trial_retries.add(stats.retries);
        state.quarantined_trials.add(stats.quarantined);
        let now = self.tracer.now_ns();
        // The pool profile rides the span verbatim (exact integer nanos,
        // one entry per worker) so `repro inspect` can replay the trace
        // into the same `worker_busy_seconds` / `wave_critical_path`
        // numbers the live registry shows — attribute data only, the
        // engine never reads it back.
        let workers_busy_ns = stats
            .pool
            .workers
            .iter()
            .map(|w| w.busy_nanos.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.tracer.record_complete(
            SpanLevel::Wave,
            &format!("wave@{}", stats.first_trial),
            state.span,
            now.saturating_sub(stats.host_nanos),
            now,
            &[
                ("planned", &stats.planned.to_string()),
                ("absorbed", &stats.absorbed.to_string()),
                ("efficiency", &format!("{:.4}", stats.efficiency())),
                ("retries", &stats.retries.to_string()),
                ("quarantined", &stats.quarantined.to_string()),
                (
                    "critical_path_ns",
                    &stats.pool.critical_path_nanos().to_string(),
                ),
                ("wall_ns", &stats.pool.wall_nanos.to_string()),
                ("workers_busy_ns", &workers_busy_ns),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{TelemetryOptions, TelemetrySink};
    use serscale_core::campaign::CampaignRunOptions;
    use serscale_core::dut::DeviceUnderTest;
    use serscale_core::session::{SessionLimits, SessionReport, TestSession};
    use serscale_core::trace::NoopObserver;
    use serscale_soc::PlatformSpec;
    use serscale_stats::SimRng;
    use serscale_types::Flux;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    /// Runs `session` from `seed` under `options` (no journal, no cancel
    /// token), reporting to `observer`.
    fn run(
        session: &mut TestSession,
        seed: u64,
        mut options: CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> SessionReport {
        session
            .try_run(&mut SimRng::seed_from(seed), 0, &mut options, observer)
            .expect("a run with no journal and no cancel token cannot fail")
    }

    fn run_session(observer: &mut TelemetryObserver, minutes: f64, seed: u64) {
        let point = xgene2_point("Vmin");
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut session = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
        );
        run(
            &mut session,
            seed,
            CampaignRunOptions::with_jobs(1),
            observer,
        );
    }

    #[test]
    fn observer_counts_match_an_independent_logbook() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        run_session(&mut observer, 120.0, 11);

        let point = xgene2_point("Vmin");
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut session = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(SimDuration::from_minutes(120.0)),
        );
        let report = run(
            &mut session,
            11,
            CampaignRunOptions::with_jobs(1),
            &mut NoopObserver,
        );

        let snap = sink.registry().snapshot();
        assert_eq!(snap.counter_total("runs_total", &[]), report.runs);
        assert_eq!(snap.counter_total("edac_events", &[]), report.memory_upsets);
        assert_eq!(
            snap.counter_total("run_failures_total", &[]),
            report.error_events()
        );
        // Every completed trial lands in the wall-time histogram: the
        // final one settles at session end.
        let key = crate::metrics::SeriesKey::new("trial_wall_time", &[("voltage", &point.label())]);
        assert_eq!(snap.histograms[&key].count, report.runs);
        assert_eq!(
            snap.gauge_value("session_sim_seconds", &[("voltage", &point.label())]),
            Some(report.duration.as_secs())
        );
    }

    #[test]
    fn per_domain_edac_counters_split_pmd_and_soc() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        run_session(&mut observer, 200.0, 5);
        let snap = sink.registry().snapshot();
        let pmd = snap.counter_total("edac_events", &[("domain", "PMD")]);
        let soc = snap.counter_total("edac_events", &[("domain", "SoC")]);
        assert!(pmd > 0, "a 200-minute Vmin session upsets PMD arrays");
        assert!(soc > 0, "a 200-minute Vmin session upsets the L3");
        assert_eq!(pmd + soc, snap.counter_total("edac_events", &[]));
    }

    #[test]
    fn wave_accounting_reflects_speculation() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        run_session(&mut observer, 30.0, 7);
        let snap = sink.registry().snapshot();
        let planned = snap.counter_total("wave_trials_planned_total", &[]);
        let absorbed = snap.counter_total("wave_trials_absorbed_total", &[]);
        assert!(planned >= absorbed, "{planned} < {absorbed}");
        assert_eq!(absorbed, snap.counter_total("runs_total", &[]));
        // Wave spans nest under the session span.
        let records = sink.tracer().records();
        let session_id = records
            .iter()
            .find(|r| r.level == SpanLevel::Session)
            .expect("session span")
            .id;
        assert!(records
            .iter()
            .filter(|r| r.level == SpanLevel::Wave)
            .all(|r| r.parent == session_id));
    }

    #[test]
    fn retry_and_quarantine_counters_surface() {
        use serscale_core::session::RetryPolicy;
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        let point = xgene2_point("Nominal");
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut session = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(SimDuration::from_minutes(5.0)),
        );
        // A zero trial timeout fails every attempt, so every trial is
        // retried once and then quarantined.
        let options = CampaignRunOptions {
            retry: RetryPolicy {
                max_retries: 1,
                backoff: std::time::Duration::ZERO,
                timeout: Some(std::time::Duration::ZERO),
            },
            ..CampaignRunOptions::with_jobs(2)
        };
        let report = run(&mut session, 9, options, &mut observer);
        assert!(!report.quarantined_trials.is_empty());
        let snap = sink.registry().snapshot();
        assert_eq!(
            snap.counter_total("quarantined_trials", &[]),
            report.quarantined_trials.len() as u64
        );
        assert_eq!(
            snap.counter_total("trial_retries", &[]),
            report.trial_retries
        );
    }

    #[test]
    fn worker_utilization_series_cover_the_pool() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        let point = xgene2_point("Vmin");
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut session = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(SimDuration::from_minutes(60.0)),
        );
        run(
            &mut session,
            13,
            CampaignRunOptions::with_jobs(2),
            &mut observer,
        );
        let snap = sink.registry().snapshot();
        let waves = snap.counter_total("waves_total", &[]);
        assert!(waves > 0, "a 60-minute session merges waves");
        // Every worker slot the pool actually ran (jobs clamp to the
        // host's cores, so this may be fewer than the requested 2)
        // surfaces cumulative busy/idle gauges and a shard counter.
        let workers = serscale_core::parallel::effective_workers(2);
        for worker in (0..workers).map(|w| w.to_string()) {
            let worker = worker.as_str();
            let busy = snap
                .gauge_value("worker_busy_seconds", &[("worker", worker)])
                .unwrap_or_else(|| panic!("worker {worker} busy gauge missing"));
            let idle = snap
                .gauge_value("worker_idle_seconds", &[("worker", worker)])
                .expect("idle gauge");
            assert!(busy >= 0.0 && idle >= 0.0, "worker {worker}: {busy}/{idle}");
        }
        assert!(snap.counter_total("worker_shards_total", &[]) > 0);
        let key =
            crate::metrics::SeriesKey::new("wave_critical_path", &[("voltage", &point.label())]);
        assert_eq!(
            snap.histograms[&key].count, waves,
            "every merged wave lands one critical-path observation"
        );
    }

    #[test]
    fn event_stream_is_valid_jsonl() {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        run_session(&mut observer, 45.0, 3);
        let events = sink.events_jsonl();
        let docs = crate::json::parse_lines(&events).expect("stream parses");
        assert_eq!(
            docs.len() as u64,
            sink.registry()
                .snapshot()
                .counter_total("telemetry_events_total", &[])
        );
        assert_eq!(
            docs[0]
                .get("event")
                .and_then(crate::json::JsonValue::as_str),
            Some("session_start")
        );
    }
}
