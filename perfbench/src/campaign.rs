//! The two campaign workloads: `campaign-bare` (inline, no journal, no
//! telemetry) and `campaign-durable` (pool, fsync'd journal, telemetry
//! sink, then the resume / inspect / convergence replay of that
//! directory).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::classify::{FailureClass, RunVerdict};
use serscale_core::dut::DeviceUnderTest;
use serscale_core::journal::{journal_path, read_journal, start_or_resume};
use serscale_core::report::golden_summary;
use serscale_core::runner::BenchmarkRunner;
use serscale_core::session::RetryPolicy;
use serscale_core::trace::{NoopObserver, SessionObserver, WaveStats};
use serscale_soc::edac::EdacRecord;
use serscale_soc::platform::OperatingPoint;
use serscale_stats::SimRng;
use serscale_telemetry::{
    inspect_dir, ConvergenceTracker, TelemetryObserver, TelemetryOptions, TelemetrySink,
};
use serscale_types::{SimDuration, SimInstant};
use serscale_workload::Benchmark;

use crate::harness::{
    config, microbenchmarks, ns_since, p50, peak_rss_mib, repeat_for, reset_peak_rss, Checks, Ctx,
    Series, Values,
};
use crate::trace::Tracer;
use crate::Traced;

/// Worker threads of `campaign-durable`.
pub const DURABLE_JOBS: usize = 2;

// ---------------------------------------------------------------------------
// campaign-bare

/// The untraced pass of `campaign-bare`.
pub fn bare(ctx: &mut Ctx) -> Series {
    let mut series = Series::default();
    let seconds = ctx.seconds;
    series.iterations = repeat_for(seconds, |k| {
        let reference = ctx.reference(k).clone();
        reset_peak_rss();
        let start = Instant::now();
        let report = Campaign::new(config(reference.seed)).run_parallel(1);
        let summary = golden_summary(&report);
        let wall = start.elapsed().as_secs_f64();
        series.push("peak_rss_mib", peak_rss_mib());
        if ctx.checks.check(summary == reference.summary, || {
            format!(
                "bare report for seed {} differs from its reference",
                reference.seed
            )
        }) {
            series.push("trials_per_s", reference.trials as f64 / wall);
            series.push("job_turnaround_s", wall);
            if k % ctx.refs.len() == 0 {
                series.baseline_turnaround.push(wall);
            }
        }
    });
    series
}

/// Records every wave the engine reports: its span, the pool execution
/// inside it, and its statistics.
struct WaveLog {
    tracer: Tracer,
    waves: Vec<WaveStats>,
}

impl WaveLog {
    fn new(origin: Instant) -> Self {
        WaveLog {
            tracer: Tracer::new(origin),
            waves: Vec::new(),
        }
    }

    fn wave(&mut self, stats: &WaveStats) {
        let end = Instant::now();
        let start = end
            .checked_sub(Duration::from_nanos(stats.host_nanos))
            .unwrap_or(end);
        self.tracer.record("session.wave", start, end);
        let exec_end = start + Duration::from_nanos(stats.pool.wall_nanos);
        self.tracer
            .record("parallel.exec", start, exec_end.min(end));
        self.waves.push(stats.clone());
    }
}

impl SessionObserver for WaveLog {
    fn on_wave(&mut self, stats: WaveStats) {
        self.wave(&stats);
    }
}

/// The `session.*` and `parallel.*` metrics from the waves of one run.
fn wave_metrics(waves: &[WaveStats], out: &mut Values) {
    let sum = |f: &dyn Fn(&WaveStats) -> u64| waves.iter().map(f).sum::<u64>() as f64;
    let planned = sum(&|w| w.planned as u64);
    let span = sum(&|w| w.pool.wall_nanos * w.pool.workers.len() as u64);
    out.insert("session.waves", waves.len() as f64);
    out.insert(
        "session.wave_efficiency",
        sum(&|w| w.absorbed as u64) / planned.max(1.0),
    );
    out.insert("session.exec_s", sum(&|w| w.pool.wall_nanos) / 1e9);
    out.insert(
        "session.merge_s",
        sum(&|w| w.host_nanos.saturating_sub(w.pool.wall_nanos)) / 1e9,
    );
    let workers = waves
        .iter()
        .map(|w| w.pool.workers.len())
        .max()
        .unwrap_or(0);
    out.insert("parallel.workers", workers as f64);
    out.insert(
        "parallel.utilization",
        sum(&|w| w.pool.busy_nanos()) / span.max(1.0),
    );
    out.insert("parallel.idle_s", sum(&|w| w.pool.idle_nanos()) / 1e9);
    out.insert(
        "parallel.critical_path_s",
        sum(&|w| w.pool.critical_path_nanos()) / 1e9,
    );
}

/// The traced run of `campaign-bare`: the campaign with its waves
/// recorded, then every trial re-executed through `run_once` and bucketed
/// by outcome, then the layer microbenchmarks.
pub fn bare_traced(ctx: &mut Ctx, baseline_turnaround: f64) -> Traced {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut out = Values::new();
    let reference = ctx.reference(0).clone();
    let config = config(reference.seed);

    let mut log = WaveLog::new(origin);
    let start = Instant::now();
    let report = Campaign::new(config.clone()).run_observed(1, &mut log);
    let summary = golden_summary(&report);
    let turnaround = start.elapsed().as_secs_f64();
    tracer.record("core.campaign", start, Instant::now());
    ctx.checks.check(summary == reference.summary, || {
        "traced bare report differs from its reference".to_string()
    });
    wave_metrics(&log.waves, &mut out);
    tracer.absorb(log.tracer);

    replay_trials(&config, &report, &mut tracer, &mut out, &mut ctx.checks);
    microbenchmarks(reference.seed, &mut tracer, &mut out);
    out.insert(
        "trace.overhead_frac",
        turnaround / baseline_turnaround - 1.0,
    );
    tracer.record("trace.root", origin, Instant::now());
    Traced::new(out, &tracer)
}

/// Which bucket a trial's observable outcome falls in.
#[derive(Clone, Copy)]
enum Bucket {
    Quiet,
    Struck,
    Sdc,
    Crash,
}

/// Re-executes every trial of `report` through `BenchmarkRunner::run_once`,
/// deriving each stream exactly as the session engine does, and checks
/// that the totals reconcile with the report.
fn replay_trials(
    config: &CampaignConfig,
    report: &CampaignReport,
    tracer: &mut Tracer,
    out: &mut Values,
    checks: &mut Checks,
) {
    let root = SimRng::seed_from(config.seed);
    let mut buckets: [Vec<f64>; 4] = Default::default();
    let mut streams = Vec::new();
    let (mut trials, mut strikes, mut edac_records) = (0u64, 0u64, 0u64);
    for (index, (session, (point, limits))) in
        report.sessions.iter().zip(&config.sessions).enumerate()
    {
        let runner = session_runner(config, report, *point);
        let Some((mut runner, limit)) = runner.zip(limits.max_duration) else {
            checks.check(false, || format!("session {index}: no Vmin or no time box"));
            continue;
        };
        let session_rng = SimRng::seed_from(root.fork_indexed("session", index as u64).next_seed());
        let mut clock = SimDuration::ZERO;
        let mut failures: BTreeMap<FailureClass, u64> = BTreeMap::new();
        let (mut runs, mut upsets, mut sdc_notified) = (0u64, 0u64, 0u64);
        // The paper schedule is time-boxed (no event cap, a fluence cap out
        // of reach), so beam time is the one stopping rule to replay.
        while clock < limit {
            let benchmark = Benchmark::ALL[(runs % Benchmark::ALL.len() as u64) as usize];
            let t0 = Instant::now();
            let mut rng = session_rng.stream("trial", &[runs]);
            let t1 = Instant::now();
            let outcome = runner.run_once(&mut rng, benchmark, SimInstant::EPOCH);
            let t2 = Instant::now();
            tracer.record("stats.stream", t0, t1);
            tracer.record("runner.run_once", t1, t2);
            streams.push((t1 - t0).as_nanos() as f64);
            let bucket = match outcome.verdict {
                RunVerdict::Sdc { .. } => Bucket::Sdc,
                RunVerdict::AppCrash | RunVerdict::SysCrash => Bucket::Crash,
                RunVerdict::Correct if outcome.sram_strikes == 0 && outcome.edac.is_empty() => {
                    Bucket::Quiet
                }
                RunVerdict::Correct => Bucket::Struck,
            };
            buckets[bucket as usize].push((t2 - t1).as_nanos() as f64);
            if let Some(class) = outcome.verdict.failure_class() {
                *failures.entry(class).or_insert(0) += 1;
            }
            sdc_notified += u64::from(matches!(
                outcome.verdict,
                RunVerdict::Sdc {
                    with_hw_notification: true
                }
            ));
            upsets += outcome.edac.len() as u64;
            strikes += outcome.sram_strikes;
            clock += outcome.wall_time;
            runs += 1;
        }
        trials += runs;
        edac_records += upsets;
        let label = session.operating_point.label();
        checks.check(runs == session.runs, || {
            format!(
                "{label}: trial replay ran {runs} trials, report has {}",
                session.runs
            )
        });
        checks.check(upsets == session.memory_upsets, || {
            format!(
                "{label}: replay saw {upsets} EDAC records, report {}",
                session.memory_upsets
            )
        });
        checks.check(sdc_notified == session.sdc_with_notification, || {
            format!("{label}: replay saw {sdc_notified} notified SDCs")
        });
        for class in FailureClass::ALL {
            let got = failures.get(&class).copied().unwrap_or(0);
            checks.check(got == session.failure_count(class), || {
                format!(
                    "{label}: replay saw {got} {class:?}, report {}",
                    session.failure_count(class)
                )
            });
        }
    }
    let total: f64 = buckets.iter().flatten().sum();
    out.insert("runner.trials", trials as f64);
    out.insert(
        "runner.quiet_frac",
        buckets[Bucket::Quiet as usize].len() as f64 / trials.max(1) as f64,
    );
    out.insert("runner.quiet_ns_p50", p50(&buckets[Bucket::Quiet as usize]));
    out.insert(
        "runner.struck_ns_p50",
        p50(&buckets[Bucket::Struck as usize]),
    );
    out.insert(
        "runner.sdc_ms_p50",
        p50(&buckets[Bucket::Sdc as usize]) / 1e6,
    );
    let sdc: f64 = buckets[Bucket::Sdc as usize].iter().sum();
    out.insert("runner.sdc_time_frac", sdc / total.max(1.0));
    out.insert("stats.stream_ns_p50", p50(&streams));
    out.insert("sram.strikes", strikes as f64);
    out.insert("sram.edac_records", edac_records as f64);
}

/// A fresh runner for one session, built the way the campaign builds it.
fn session_runner(
    config: &CampaignConfig,
    report: &CampaignReport,
    point: OperatingPoint,
) -> Option<BenchmarkRunner> {
    let vmin = report
        .vmins
        .iter()
        .find(|(frequency, _)| *frequency == point.frequency)
        .map(|(_, vmin)| *vmin)?;
    let dut = DeviceUnderTest::for_platform(&config.platform, point, vmin);
    Some(BenchmarkRunner::new(dut, report.flux))
}

// ---------------------------------------------------------------------------
// campaign-durable

/// Times every `TelemetryObserver` callback and records every wave.
struct Forwarder {
    inner: TelemetryObserver,
    log: WaveLog,
    callbacks: u64,
}

impl Forwarder {
    fn timed(&mut self, callback: impl FnOnce(&mut TelemetryObserver)) {
        let start = Instant::now();
        callback(&mut self.inner);
        self.log
            .tracer
            .record("observer.callback", start, Instant::now());
        self.callbacks += 1;
    }
}

impl SessionObserver for Forwarder {
    fn on_session_start(&mut self, at: SimInstant, point: OperatingPoint) {
        self.timed(|o| o.on_session_start(at, point));
    }
    fn on_run(&mut self, start: SimInstant, benchmark: Benchmark, verdict: RunVerdict) {
        self.timed(|o| o.on_run(start, benchmark, verdict));
    }
    fn on_edac(&mut self, record: EdacRecord) {
        self.timed(|o| o.on_edac(record));
    }
    fn on_recovery(&mut self, start: SimInstant, duration: SimDuration) {
        self.timed(|o| o.on_recovery(start, duration));
    }
    fn on_session_end(&mut self, at: SimInstant, reason: serscale_core::session::StopReason) {
        self.timed(|o| o.on_session_end(at, reason));
    }
    fn on_wave(&mut self, stats: WaveStats) {
        self.log.wave(&stats);
        self.timed(|o| o.on_wave(stats));
    }
}

/// The live, journaled, observed run of `campaign-durable`.
struct Live {
    summary: String,
    report: CampaignReport,
    sink: TelemetrySink,
    wall: f64,
    /// The forwarder's record, on a traced run.
    forwarded: Option<(WaveLog, u64)>,
}

fn live(
    campaign: &Campaign,
    dir: &Path,
    tracer: &mut Tracer,
    traced: bool,
) -> Result<Live, String> {
    let start = Instant::now();
    let sink = tracer
        .time("export.open", || {
            TelemetrySink::new(dir, TelemetryOptions::default())
        })
        .map_err(|e| format!("telemetry directory: {e}"))?;
    let (mut writer, recovered) = tracer
        .time("journal.open", || start_or_resume(dir, campaign.config()))
        .map_err(|e| format!("journal: {e}"))?;
    if recovered.is_some() {
        return Err("a fresh journal directory recovered a prefix".to_string());
    }
    let options = CampaignRunOptions {
        jobs: DURABLE_JOBS,
        retry: RetryPolicy::standard(),
        journal: Some(&mut writer),
        recovered: None,
        cancel: None,
    };
    let run_start = Instant::now();
    let (report, forwarded) = if traced {
        let mut forwarder = Forwarder {
            inner: sink.observer(),
            log: WaveLog::new(tracer.origin()),
            callbacks: 0,
        };
        let report = campaign.run_recoverable(options, &mut forwarder);
        (report, Some((forwarder.log, forwarder.callbacks)))
    } else {
        let mut observer = sink.observer();
        (campaign.run_recoverable(options, &mut observer), None)
    };
    tracer.record("core.campaign", run_start, Instant::now());
    tracer.time("journal.close", || drop(writer));
    tracer.time("export.crosscheck", || sink.crosscheck_campaign(&report))?;
    tracer
        .time("export.write", || sink.write())
        .map_err(|e| format!("telemetry write: {e}"))?;
    let summary = golden_summary(&report);
    Ok(Live {
        summary,
        report,
        sink,
        wall: start.elapsed().as_secs_f64(),
        forwarded,
    })
}

/// The replay phase over a finished run's directory: what `--resume`,
/// `repro inspect` and `repro inspect --convergence` do.
struct Replay {
    summary: String,
    convergence: String,
    forensics: String,
    trials: u64,
    wall: f64,
}

fn replay(campaign: &Campaign, dir: &Path, tracer: &mut Tracer) -> Result<Replay, String> {
    let start = Instant::now();
    let (mut writer, recovered) = tracer
        .time("journal.resume", || start_or_resume(dir, campaign.config()))
        .map_err(|e| format!("resume: {e}"))?;
    let recovered = recovered.ok_or("the journal recovered nothing")?;
    let report = tracer.time("session.replay_fold", || {
        campaign.run_recoverable(
            CampaignRunOptions {
                jobs: DURABLE_JOBS,
                retry: RetryPolicy::standard(),
                journal: Some(&mut writer),
                recovered: Some(&recovered),
                cancel: None,
            },
            &mut NoopObserver,
        )
    });
    tracer.time("journal.close", || drop(writer));
    let forensics = tracer.time("inspect.replay", || inspect_dir(dir).map(|r| r.render()))?;
    let convergence = tracer
        .time("convergence.replay", || {
            ConvergenceTracker::replay(dir).map(|t| t.snapshot().to_json())
        })
        .map_err(|e| format!("convergence replay: {e}"))?;
    Ok(Replay {
        summary: golden_summary(&report),
        convergence,
        forensics,
        trials: recovered.trials_recovered(),
        wall: start.elapsed().as_secs_f64(),
    })
}

/// One durable iteration: live run, then the replay phase, each checked.
/// Returns both phases when every check passed.
fn durable_iteration(
    ctx: &mut Ctx,
    k: usize,
    tracer: &mut Tracer,
    traced: bool,
) -> Option<(Live, Replay)> {
    let reference = ctx.reference(k).clone();
    let campaign = Campaign::new(config(reference.seed));
    let dir = ctx.work.join(format!("durable-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let checks = &mut ctx.checks;
    let live = checks.ok("live durable run", live(&campaign, &dir, tracer, traced))?;
    let replay = checks.ok("replay phase", replay(&campaign, &dir, tracer))?;
    let seed = reference.seed;
    let ok = [
        checks.check(live.summary == reference.summary, || {
            format!("durable live report for seed {seed} differs from its reference")
        }),
        checks.check(replay.summary == reference.summary, || {
            format!("durable replay report for seed {seed} differs from its reference")
        }),
        checks.check(replay.convergence == live.sink.convergence_json(), || {
            format!("seed {seed}: replayed convergence JSON differs from the live sink's")
        }),
        checks.check(replay.trials == reference.trials, || {
            format!(
                "seed {seed}: journal replayed {} of {} trials",
                replay.trials, reference.trials
            )
        }),
        checks.check(!replay.forensics.is_empty(), || {
            "empty inspect report".to_string()
        }),
    ];
    ok.iter().all(|&ok| ok).then_some((live, replay))
}

/// The untraced pass of `campaign-durable`.
pub fn durable(ctx: &mut Ctx) -> Series {
    let mut series = Series::default();
    let seconds = ctx.seconds;
    let mut tracer = Tracer::new(Instant::now());
    series.iterations = repeat_for(seconds, |k| {
        reset_peak_rss();
        let run = durable_iteration(ctx, k, &mut tracer, false);
        series.push("peak_rss_mib", peak_rss_mib());
        let _ = std::fs::remove_dir_all(ctx.work.join(format!("durable-{k}")));
        if let Some((live, replay)) = run {
            let trials = live.report.sessions.iter().map(|s| s.runs).sum::<u64>() as f64;
            series.push("trials_per_s", trials / live.wall);
            series.push("replay_trials_per_s", replay.trials as f64 / replay.wall);
            series.push("job_turnaround_s", live.wall + replay.wall);
            if k % ctx.refs.len() == 0 {
                series.baseline_turnaround.push(live.wall + replay.wall);
            }
        }
    });
    series
}

/// The traced run of `campaign-durable`: one iteration with every
/// observer callback timed and every wave recorded, then the journal
/// re-appended record by record into a fresh writer, then the layer
/// microbenchmarks.
pub fn durable_traced(ctx: &mut Ctx, baseline_turnaround: f64) -> Traced {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut out = Values::new();
    let dir = ctx.work.join("durable-0");
    let run = durable_iteration(ctx, 0, &mut tracer, true);
    if let Some((live, replay)) = run {
        let (log, callbacks) = live.forwarded.expect("traced live run forwards");
        wave_metrics(&log.waves, &mut out);
        let absorbed: usize = log.waves.iter().map(|w| w.absorbed).sum();
        let batch = (absorbed / log.waves.len().max(1)).max(1);
        let callback_ns = log.tracer.total_ns("observer.callback");
        tracer.absorb(log.tracer);
        out.insert("observer.callbacks", callbacks as f64);
        out.insert(
            "observer.ns_per_callback",
            callback_ns / callbacks.max(1) as f64,
        );
        out.insert(
            "observer.event_mb",
            live.sink.events_jsonl().len() as f64 / 1e6,
        );
        out.insert("export.write_ms", tracer.total_ns("export.write") / 1e6);
        out.insert("journal.resume_s", tracer.total_ns("journal.resume") / 1e9);
        out.insert(
            "session.replay_fold_s",
            tracer.total_ns("session.replay_fold") / 1e9,
        );
        out.insert("inspect.replay_s", tracer.total_ns("inspect.replay") / 1e9);
        out.insert(
            "convergence.replay_s",
            tracer.total_ns("convergence.replay") / 1e9,
        );
        out.insert(
            "trace.overhead_frac",
            (live.wall + replay.wall) / baseline_turnaround - 1.0,
        );
        let campaign = Campaign::new(config(ctx.reference(0).seed));
        let reappended = reappend(
            &campaign,
            &dir,
            &ctx.work.join("reappend"),
            batch,
            &mut tracer,
        );
        if let Some(journal) = ctx.checks.ok("journal re-append", reappended) {
            out.extend(journal);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    microbenchmarks(ctx.reference(0).seed, &mut tracer, &mut out);
    tracer.record("trace.root", origin, Instant::now());
    Traced::new(out, &tracer)
}

/// Reads the live journal back, re-appends every record into a fresh
/// writer (one `sync` per wave-sized batch), and checks the copy reads
/// back as the same records.
fn reappend(
    campaign: &Campaign,
    live_dir: &Path,
    copy_dir: &Path,
    batch: usize,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let _ = std::fs::remove_dir_all(copy_dir);
    let live_path = journal_path(live_dir);
    let read_start = Instant::now();
    let records = tracer
        .time("journal.read", || read_journal(&live_path))
        .map_err(|e| format!("read journal: {e}"))?;
    let read_ns = ns_since(read_start);
    let bytes = std::fs::metadata(&live_path)
        .map_err(|e| e.to_string())?
        .len();
    let (mut writer, _) =
        start_or_resume(copy_dir, campaign.config()).map_err(|e| e.to_string())?;
    let mut appends = Vec::with_capacity(records.len());
    let mut syncs = Vec::new();
    for (i, record) in records.iter().enumerate().skip(1) {
        appends.push(tracer.measure("journal.append", || writer.append(record)));
        if i % batch == 0 || i + 1 == records.len() {
            let start = Instant::now();
            tracer
                .time("journal.sync", || writer.sync())
                .map_err(|e| format!("sync: {e}"))?;
            syncs.push(ns_since(start) / 1e6);
        }
    }
    drop(writer);
    let copy = tracer
        .time("harness.verify", || read_journal(&journal_path(copy_dir)))
        .map_err(|e| format!("re-read: {e}"))?;
    let _ = std::fs::remove_dir_all(copy_dir);
    if copy != records {
        return Err(format!(
            "re-appended journal reads back {} records, live one {}",
            copy.len(),
            records.len()
        ));
    }
    let n = records.len() as f64;
    Ok(Values::from([
        ("journal.records", n),
        ("journal.bytes_per_record", bytes as f64 / n),
        ("journal.append_ns_p50", p50(&appends)),
        ("journal.sync_ms_p50", p50(&syncs)),
        ("journal.read_us_per_record", read_ns / 1e3 / n),
    ]))
}
