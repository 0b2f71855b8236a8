//! The convergence plane under load and under replay:
//!
//! 1. `/convergence` is hammered while jobs=1 and jobs=8 campaigns run —
//!    every snapshot parses, per-cell event counts only ever grow, and
//!    the final scraped document byte-matches both the sink's own
//!    rendering and a cold [`ConvergenceTracker::replay`] of the
//!    finished journal (the `repro inspect --convergence` path).
//! 2. The layer is provably observe-only: a journaled campaign with the
//!    full telemetry observer attached produces bit-identical reports,
//!    Logbook traces and `journal.jsonl` bytes to a run with no
//!    telemetry at all, at jobs 1 and 8.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::journal::start_or_resume;
use serscale_core::session::RetryPolicy;
use serscale_core::trace::{tee, Logbook, NoopObserver};
use serscale_telemetry::convergence::ConvergenceTracker;
use serscale_telemetry::serve::http_get;
use serscale_telemetry::{json, TelemetryOptions, TelemetrySink};

const SCALE: f64 = 0.005;
const SEED: u64 = 20231028;
const SCRAPERS: usize = 4;

fn campaign() -> Campaign {
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = SEED;
    Campaign::new(config)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "serscale-convergence-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flattens a `/convergence` document into per-cell event counts keyed
/// by `(voltage, domain, array)`, failing on any malformed structure.
fn cell_counts(body: &str) -> Result<BTreeMap<(String, String, String), f64>, String> {
    let doc = json::parse(body.trim_end()).map_err(|e| format!("convergence parse: {e}"))?;
    let Some(json::JsonValue::Array(points)) = doc.get("points") else {
        return Err(format!("no points array in {body}"));
    };
    let mut counts = BTreeMap::new();
    for point in points {
        let voltage = point
            .get("voltage")
            .and_then(json::JsonValue::as_str)
            .ok_or("point without voltage")?
            .to_string();
        let Some(json::JsonValue::Array(cells)) = point.get("cells") else {
            return Err("point without cells".to_string());
        };
        for cell in cells {
            let domain = cell
                .get("domain")
                .and_then(json::JsonValue::as_str)
                .ok_or("cell without domain")?
                .to_string();
            let array = cell
                .get("array")
                .and_then(json::JsonValue::as_str)
                .ok_or("cell without array")?
                .to_string();
            let events = cell
                .get("events")
                .and_then(json::JsonValue::as_f64)
                .ok_or("cell without events")?;
            let sum = ["masked", "due", "sdc"]
                .iter()
                .map(|k| {
                    cell.get(k)
                        .and_then(json::JsonValue::as_f64)
                        .unwrap_or(-1.0)
                })
                .sum::<f64>();
            if sum != events {
                return Err(format!(
                    "cell {voltage}/{domain}/{array}: classes sum {sum} != events {events}"
                ));
            }
            counts.insert((voltage.clone(), domain, array), events);
        }
    }
    Ok(counts)
}

fn scrape_convergence(addr: SocketAddr, stop: Arc<AtomicBool>, id: usize) -> Result<u64, String> {
    let mut scrapes = 0;
    let mut last: BTreeMap<(String, String, String), f64> = BTreeMap::new();
    let mut final_pass = false;
    loop {
        if stop.load(Ordering::Acquire) {
            if final_pass {
                break;
            }
            final_pass = true;
        }
        let (status, body) = http_get(addr, "/convergence")
            .map_err(|e| format!("scraper {id}: /convergence: {e}"))?;
        if status != 200 {
            return Err(format!("scraper {id}: /convergence returned {status}"));
        }
        let counts = cell_counts(&body).map_err(|e| format!("scraper {id}: {e}"))?;
        for (key, prev) in &last {
            let now = counts.get(key).copied().unwrap_or(-1.0);
            if now < *prev {
                return Err(format!(
                    "scraper {id}: cell {key:?} went backwards: {prev} -> {now}"
                ));
            }
        }
        last = counts;
        scrapes += 1;
    }
    Ok(scrapes)
}

/// The scrape-storm extension: `/convergence` hammered at jobs 1 and 8.
/// Every snapshot parses, per-cell counts are monotone nondecreasing,
/// and the final snapshot byte-matches the journal replay.
#[test]
fn convergence_endpoint_survives_a_scrape_storm_and_matches_replay() {
    for jobs in [1usize, 8] {
        let dir = temp_dir(&format!("storm-j{jobs}"));
        let mut config = CampaignConfig::paper_scaled(SCALE);
        config.seed = SEED;
        let (mut journal, recovered) = start_or_resume(&dir, &config).expect("journal");
        assert!(recovered.is_none(), "fresh directory");

        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut server = sink.serve("127.0.0.1:0").expect("bind monitor");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let scrapers: Vec<_> = (0..SCRAPERS)
            .map(|id| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || scrape_convergence(addr, stop, id))
            })
            .collect();

        let mut observer = sink.observer();
        let report = Campaign::new(config).run_recoverable(
            CampaignRunOptions {
                jobs,
                retry: RetryPolicy::standard(),
                journal: Some(&mut journal),
                recovered: None,
                cancel: None,
            },
            &mut observer,
        );
        drop(observer);
        stop.store(true, Ordering::Release);
        for scraper in scrapers {
            let scrapes = scraper
                .join()
                .expect("scraper panicked")
                .unwrap_or_else(|e| panic!("jobs={jobs}: {e}"));
            assert!(scrapes >= 1, "jobs={jobs}: scraper idle");
        }

        // The final scrape, the sink's own rendering, and a cold journal
        // replay must be the same bytes.
        let (status, live_body) = http_get(addr, "/convergence").expect("final scrape");
        assert_eq!(status, 200);
        server.shutdown();
        drop(journal);
        assert_eq!(live_body, sink.convergence_json(), "jobs={jobs}");
        let replayed = ConvergenceTracker::replay(&dir)
            .expect("replay")
            .snapshot()
            .to_json();
        assert_eq!(
            live_body, replayed,
            "jobs={jobs}: journal replay diverges from the live endpoint"
        );
        sink.crosscheck_campaign(&report)
            .expect("convergence counts agree with the report");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The observe-only proof for the new layer: with the full telemetry
/// observer (convergence plane included) attached, a journaled campaign
/// produces bit-identical reports, traces and journal bytes to a bare
/// run — at jobs 1 and 8.
#[test]
fn convergence_layer_on_or_off_journals_identically() {
    let run = |jobs: usize, telemetry: bool, tag: &str| -> (CampaignReport, String, Vec<u8>) {
        let dir = temp_dir(tag);
        let mut config = CampaignConfig::paper_scaled(SCALE);
        config.seed = SEED;
        let (mut journal, _) = start_or_resume(&dir, &config).expect("journal");
        let options = |journal| CampaignRunOptions {
            jobs,
            retry: RetryPolicy::standard(),
            journal: Some(journal),
            recovered: None,
            cancel: None,
        };
        let mut logbook = Logbook::new();
        let report = if telemetry {
            let sink = TelemetrySink::in_memory(TelemetryOptions::default());
            let mut observer = tee(&mut logbook, sink.observer());
            let report =
                Campaign::new(config).run_recoverable(options(&mut journal), &mut observer);
            drop(observer);
            sink.crosscheck_campaign(&report).expect("crosscheck");
            report
        } else {
            let mut observer = tee(&mut logbook, NoopObserver);
            Campaign::new(config).run_recoverable(options(&mut journal), &mut observer)
        };
        drop(journal);
        let bytes = std::fs::read(dir.join("journal.jsonl")).expect("journal bytes");
        std::fs::remove_dir_all(&dir).ok();
        (report, logbook.to_jsonl(), bytes)
    };

    let (base_report, base_trace, base_journal) = run(1, false, "off-j1");
    for jobs in [1usize, 8] {
        let (report, trace, journal) = run(jobs, true, &format!("on-j{jobs}"));
        assert_eq!(report, base_report, "jobs={jobs}: report diverged");
        assert_eq!(trace, base_trace, "jobs={jobs}: trace diverged");
        assert_eq!(
            journal, base_journal,
            "jobs={jobs}: journal bytes diverged with the convergence layer on"
        );
    }
    // And the off-path is itself jobs-stable, closing the square.
    let (report8, trace8, journal8) = run(8, false, "off-j8");
    assert_eq!(report8, base_report);
    assert_eq!(trace8, base_trace);
    assert_eq!(journal8, base_journal);
}

/// The `/progress` document carries the convergence headline after a
/// session ends, with clamped finite values.
#[test]
fn progress_endpoint_names_the_widest_cell() {
    let sink = TelemetrySink::in_memory(TelemetryOptions::default());
    let mut observer = sink.observer();
    let report = campaign().run_observed(2, &mut observer);
    drop(observer);
    let server = sink.serve("127.0.0.1:0").expect("bind monitor");
    let (_, body) = http_get(server.addr(), "/progress").expect("/progress");
    let doc = json::parse(&body).expect("progress parses");
    let total = doc
        .get("cells_total")
        .and_then(json::JsonValue::as_f64)
        .expect("cells_total present after a campaign");
    assert!(total > 0.0, "{body}");
    let upsets: u64 = report.sessions.iter().map(|s| s.memory_upsets).sum();
    if upsets > 0 {
        let widest = doc
            .get("widest_cell")
            .and_then(json::JsonValue::as_str)
            .expect("events happened, a widest cell exists");
        assert!(widest.contains('/'), "{widest}");
        if let Some(secs) = doc
            .get("widest_projected_sim_seconds")
            .and_then(json::JsonValue::as_f64)
        {
            assert!(secs.is_finite() && secs >= 0.0, "{body}");
        }
    }
}
