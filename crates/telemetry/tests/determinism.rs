//! The observe-only contract, proven end to end: attaching telemetry to a
//! campaign changes neither the report nor the Logbook trace, at any
//! worker count — and the counters the telemetry *does* record agree with
//! the report it shadowed.

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::trace::{tee, Logbook};
use serscale_telemetry::{TelemetryOptions, TelemetrySink};
use serscale_types::CacheLevel;

const SCALE: f64 = 0.005;
const SEED: u64 = 20231028;

fn campaign() -> Campaign {
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = SEED;
    Campaign::new(config)
}

fn run_plain(jobs: usize) -> (CampaignReport, Logbook) {
    let mut logbook = Logbook::new();
    let report = campaign().run_observed(jobs, &mut logbook);
    (report, logbook)
}

fn run_with_telemetry(jobs: usize) -> (CampaignReport, Logbook, TelemetrySink) {
    let sink = TelemetrySink::in_memory(TelemetryOptions::default());
    let mut logbook = Logbook::new();
    let mut observer = tee(&mut logbook, sink.observer());
    let report = campaign().run_observed(jobs, &mut observer);
    drop(observer);
    (report, logbook, sink)
}

/// The tentpole determinism proof: reports and traces are bit-identical
/// with telemetry on vs off, at jobs 1 and 8.
#[test]
fn telemetry_is_invisible_to_report_and_trace_at_any_jobs() {
    let (baseline_report, baseline_logbook) = run_plain(1);
    let baseline_trace = baseline_logbook.to_jsonl();
    let baseline_render = baseline_logbook.render();

    // The engine's own jobs-independence, re-checked here as the anchor.
    let (parallel_report, parallel_logbook) = run_plain(8);
    assert_eq!(parallel_report, baseline_report, "engine jobs contract");
    assert_eq!(parallel_logbook.to_jsonl(), baseline_trace);

    for jobs in [1, 8] {
        let (report, logbook, sink) = run_with_telemetry(jobs);
        assert_eq!(
            report, baseline_report,
            "telemetry perturbed the report at jobs={jobs}"
        );
        assert_eq!(
            logbook.render(),
            baseline_render,
            "telemetry perturbed the rendered trace at jobs={jobs}"
        );
        assert_eq!(
            logbook.to_jsonl(),
            baseline_trace,
            "telemetry perturbed the JSONL trace at jobs={jobs}"
        );
        // And the shadow agrees with what it shadowed.
        sink.crosscheck_campaign(&report)
            .expect("telemetry counters must match the report");
    }
}

/// The exported `edac_events` counters decompose the report's upsets by
/// voltage domain exactly: L3 rides the SoC rail, everything else PMD.
#[test]
fn edac_counters_split_report_upsets_by_domain() {
    let (report, _logbook, sink) = run_with_telemetry(4);
    let snapshot = sink.registry().snapshot();
    for session in &report.sessions {
        let label = session.operating_point.label();
        let mut want_pmd = 0;
        let mut want_soc = 0;
        for (&(level, _severity), &count) in &session.edac_per_level {
            match level {
                CacheLevel::L3 => want_soc += count,
                _ => want_pmd += count,
            }
        }
        let got_pmd =
            snapshot.counter_total("edac_events", &[("voltage", &label), ("domain", "PMD")]);
        let got_soc =
            snapshot.counter_total("edac_events", &[("voltage", &label), ("domain", "SoC")]);
        assert_eq!(got_pmd, want_pmd, "PMD upsets at {label}");
        assert_eq!(got_soc, want_soc, "SoC upsets at {label}");
        assert_eq!(got_pmd + got_soc, session.memory_upsets, "total at {label}");
    }
}

/// Two telemetry-shadowed runs at different worker counts produce the
/// same *snapshot totals* — wave shapes differ (and may differ in the
/// wave histograms), but every simulation-derived series is identical.
#[test]
fn simulation_series_are_jobs_independent() {
    let (_r1, _l1, sink1) = run_with_telemetry(1);
    let (_r8, _l8, sink8) = run_with_telemetry(8);
    let s1 = sink1.registry().snapshot();
    let s8 = sink8.registry().snapshot();
    for name in [
        "sessions_total",
        "runs_total",
        "run_failures_total",
        "edac_events",
        "recoveries_total",
        "telemetry_events_total",
    ] {
        assert_eq!(
            s1.counter_total(name, &[]),
            s8.counter_total(name, &[]),
            "{name} depends on jobs"
        );
    }
    // Speculation absorbs the same trials regardless of wave shape.
    assert_eq!(
        s1.counter_total("wave_trials_absorbed_total", &[]),
        s8.counter_total("wave_trials_absorbed_total", &[]),
    );
}

/// FNV-1a-64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The event stream is pinned byte for byte, at jobs 1 and 2, on a
/// campaign whose stream holds every per-trial line kind: a change to how
/// the observer renders an event must leave these bytes alone.
#[test]
fn event_stream_bytes_are_pinned_at_any_jobs() {
    let mut config = CampaignConfig::paper_scaled(0.05);
    config.seed = SEED;
    for jobs in [1, 2] {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut observer = sink.observer();
        Campaign::new(config.clone())
            .try_run(CampaignRunOptions::with_jobs(jobs), &mut observer)
            .expect("a run with no journal and no cancel token cannot fail");
        drop(observer);
        let events = sink.events_jsonl();
        for line in [
            "{\"event\":\"run\",",
            "{\"event\":\"edac\",",
            "{\"event\":\"recovery\",",
            "\"verdict\":\"sdc\"",
        ] {
            assert!(events.contains(line), "jobs={jobs}: no {line} line");
        }
        assert_eq!(
            (fnv1a(events.as_bytes()), events.len()),
            (0x0ee1_4ad0_f34b_46cb, 431_140),
            "jobs={jobs}: the event stream moved"
        );
    }
}
