//! The `repro bench` harness: the one throughput measurement of the
//! campaign engine, written as `BENCH_campaign_throughput.json`.
//!
//! It times the scaled paper campaign (`SCALE`, [`REPRO_SEED`]) bare at
//! four worker counts, and at `jobs=1` with one more layer per row: the
//! telemetry observer, a run journal, the monitoring server, and a client
//! scraping that server. Each of these stage rows names its parent, the
//! row it adds one layer to, and records its throughput as a ratio to the
//! parent's. Every row runs once per round, so host drift lands on a
//! stage row and its parent alike and cancels out of the ratio. Every
//! iteration asserts the report is bit-identical to the `jobs=1`
//! reference, so no row can be fast by being wrong.
//!
//! `scripts/check_bench_regression.py` gates a fresh artifact against the
//! committed baseline (TESTING.md, "The throughput bench gate").

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::journal::{config_fingerprint, start_or_resume, JournalWriter};
use serscale_core::parallel::effective_workers;
use serscale_core::trace::{NoopObserver, SessionObserver};
use serscale_telemetry::serve::http_get;
use serscale_telemetry::{json, TelemetryOptions, TelemetrySink};

use crate::REPRO_SEED;

/// The bench campaign scale: small enough for CI cadence, large enough
/// that waves actually shard.
pub const SCALE: f64 = 0.01;

/// How long `repro bench` keeps adding rounds.
pub const BUDGET: Duration = Duration::from_secs(10);

/// Timed rounds run even when the budget is spent: one in each order.
const MIN_ROUNDS: u32 = 2;

/// The scrape-storm client's pause between scrapes.
const SCRAPE_PAUSE: Duration = Duration::from_millis(1);

/// What a row runs besides the bare campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Nothing.
    Bare,
    /// An in-memory telemetry sink's observer.
    Telemetry,
    /// A fresh run journal on RAM scratch.
    Journal,
    /// The telemetry sink and its monitoring server, bound and idle.
    Listen,
    /// The monitoring server and one client scraping `/metrics` and
    /// `/progress`.
    ScrapeStorm,
}

/// A row of the table: id, `jobs`, what the row adds, and the parent row
/// it adds that to.
type RowSpec = (&'static str, usize, Stage, Option<&'static str>);

/// The measured rows. Stage rows run at `jobs=1`: the gate can check them
/// on any host, a 2-thread host keeps a thread free for the server and
/// the scraper, and the observer and the journal run in the
/// single-threaded merge at any `jobs` anyway.
const ROWS: [RowSpec; 8] = [
    ("jobs=1", 1, Stage::Bare, None),
    ("jobs=2", 2, Stage::Bare, None),
    ("jobs=4", 4, Stage::Bare, None),
    ("jobs=8", 8, Stage::Bare, None),
    ("jobs=1+telemetry", 1, Stage::Telemetry, Some("jobs=1")),
    ("jobs=1+journal", 1, Stage::Journal, Some("jobs=1")),
    ("jobs=1+listen", 1, Stage::Listen, Some("jobs=1+telemetry")),
    (
        "jobs=1+listen+scrape-storm",
        1,
        Stage::ScrapeStorm,
        Some("jobs=1+listen"),
    ),
];

/// One measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Row id: `jobs=N`, plus `+stage` on stage rows.
    pub id: &'static str,
    /// Worker threads requested.
    pub jobs: usize,
    /// Worker threads the campaign ran on: `jobs` capped at the host's
    /// hardware threads.
    pub workers: usize,
    /// Timed iterations: one per round.
    pub iterations: u32,
    /// Completed trials per second over the timed iterations.
    pub trials_per_sec: f64,
    /// The row this stage row adds one layer to.
    pub parent: Option<&'static str>,
    /// This row's `trials_per_sec` over its parent's, from the same
    /// rounds. Present exactly when `parent` is.
    pub ratio: Option<f64>,
    /// Scrapes the storm client completed per iteration (at least one
    /// each), on the scrape-storm row only.
    pub scrapes_per_iteration: Option<f64>,
}

/// The full bench artifact serialized to `BENCH_campaign_throughput.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Campaign scale measured.
    pub scale: f64,
    /// Campaign seed measured.
    pub seed: u64,
    /// Trials per campaign (the unit of the throughput rows).
    pub trials: u64,
    /// Fingerprint of the exact campaign configuration measured — a
    /// baseline from a different configuration must not gate this one.
    pub config_fingerprint: u64,
    /// `rustc --version` of the build, for artifact provenance.
    pub toolchain: String,
    /// Hardware threads of the measuring host.
    pub host_threads: usize,
    /// The measured rows.
    pub rows: Vec<BenchRow>,
}

/// Measures every row of the table in rounds until `budget` of wall
/// clock is spent (at least two rounds, after one untimed warmup round).
/// `Duration::ZERO` is the shortest measurement.
///
/// Each round runs every row once, in the reverse of the previous round's
/// order, so no row always follows the same neighbour.
///
/// # Panics
///
/// Panics if any iteration's report diverges from the `jobs = 1`
/// reference (a determinism regression), or if a journal, the monitoring
/// server or a scrape fails.
pub fn measure(budget: Duration) -> BenchReport {
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = REPRO_SEED;
    let fingerprint = config_fingerprint(&config);
    let campaign = Campaign::new(config);
    let reference = run(&campaign, 1, &mut NoopObserver, None);
    let trials: u64 = reference.sessions.iter().map(|s| s.runs).sum();
    let journal_dir = ram_scratch().join(format!("serscale-bench-journal-{}", std::process::id()));
    // A journal left by a killed run under a reused pid would be resumed.
    let _ = std::fs::remove_dir_all(&journal_dir);

    let mut elapsed = [Duration::ZERO; ROWS.len()];
    let mut scrapes = 0u64;
    let mut order: Vec<usize> = (0..ROWS.len()).collect();
    let mut round = |timed: bool| {
        for &i in &order {
            let (id, jobs, stage, _) = ROWS[i];
            let clock = Instant::now();
            let (report, scraped) = iterate(&campaign, jobs, stage, &journal_dir);
            let took = clock.elapsed();
            assert_eq!(
                report, reference,
                "{id}: the report diverged from the jobs=1 reference"
            );
            if timed {
                elapsed[i] += took;
                scrapes += scraped;
            }
        }
        order.reverse();
    };
    round(false);
    let started = Instant::now();
    let mut rounds = 0u32;
    while rounds < MIN_ROUNDS || started.elapsed() < budget {
        round(true);
        rounds += 1;
    }

    let per_sec = |i: usize| trials as f64 * f64::from(rounds) / elapsed[i].as_secs_f64();
    let index = |parent| {
        let position = ROWS.iter().position(|&(id, ..)| id == parent);
        position.expect("a parent is a row of the table")
    };
    let rows = ROWS
        .iter()
        .enumerate()
        .map(|(i, &(id, jobs, stage, parent))| BenchRow {
            id,
            jobs,
            workers: effective_workers(jobs),
            iterations: rounds,
            trials_per_sec: per_sec(i),
            parent,
            ratio: parent.map(|p| per_sec(i) / per_sec(index(p))),
            scrapes_per_iteration: (stage == Stage::ScrapeStorm)
                .then(|| scrapes as f64 / f64::from(rounds)),
        })
        .collect();

    BenchReport {
        scale: SCALE,
        seed: REPRO_SEED,
        trials,
        config_fingerprint: fingerprint,
        toolchain: rustc_version(),
        host_threads: std::thread::available_parallelism().map_or(1, usize::from),
        rows,
    }
}

/// One iteration of a row: its report and the scrapes it made.
fn iterate(
    campaign: &Campaign,
    jobs: usize,
    stage: Stage,
    journal_dir: &Path,
) -> (CampaignReport, u64) {
    let sink = || TelemetrySink::in_memory(TelemetryOptions::default());
    match stage {
        Stage::Bare => (run(campaign, jobs, &mut NoopObserver, None), 0),
        Stage::Telemetry => (run(campaign, jobs, &mut sink().observer(), None), 0),
        Stage::Journal => {
            let (mut writer, _) =
                start_or_resume(journal_dir, campaign.config()).expect("open the bench journal");
            let report = run(campaign, jobs, &mut NoopObserver, Some(&mut writer));
            drop(writer);
            std::fs::remove_dir_all(journal_dir).expect("remove the bench journal");
            (report, 0)
        }
        Stage::Listen | Stage::ScrapeStorm => {
            let sink = sink();
            let mut server = sink.serve("127.0.0.1:0").expect("bind the monitor");
            let scraper = (stage == Stage::ScrapeStorm).then(|| scrape(server.addr()));
            let report = run(campaign, jobs, &mut sink.observer(), None);
            let scraped = scraper.map_or(0, |(stop, scraper)| {
                drop(stop);
                scraper.join().expect("the scraper failed")
            });
            server.shutdown();
            (report, scraped)
        }
    }
}

/// Runs the campaign on `jobs` workers.
fn run(
    campaign: &Campaign,
    jobs: usize,
    observer: &mut dyn SessionObserver,
    journal: Option<&mut JournalWriter>,
) -> CampaignReport {
    let options = CampaignRunOptions {
        journal,
        ..CampaignRunOptions::with_jobs(jobs)
    };
    campaign
        .try_run(options, observer)
        .expect("a bench run fails only when its journal cannot be written")
}

/// Starts a client that scrapes `/metrics` and `/progress` in turn,
/// [`SCRAPE_PAUSE`] apart, until the returned sender is dropped; joining
/// the thread yields its scrape count. The first scrape runs before the
/// client looks for the stop, so every iteration scrapes at least once,
/// and the stop ends the pause at once instead of waiting it out.
fn scrape(addr: std::net::SocketAddr) -> (mpsc::Sender<()>, std::thread::JoinHandle<u64>) {
    let (stop, stopped) = mpsc::channel::<()>();
    let scraper = std::thread::spawn(move || {
        let mut scrapes = 0u64;
        loop {
            let path = if scrapes.is_multiple_of(2) {
                "/metrics"
            } else {
                "/progress"
            };
            let (status, _) = http_get(addr, path).expect("scrape the monitor");
            assert_eq!(status, 200, "GET {path}");
            scrapes += 1;
            if stopped.recv_timeout(SCRAPE_PAUSE) != Err(RecvTimeoutError::Timeout) {
                return scrapes;
            }
        }
    });
    (stop, scraper)
}

/// RAM-backed scratch for the journal row (`/dev/shm` when the host has
/// it), so the row times the engine's journaling, not the device's sync
/// latency.
fn ram_scratch() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

impl BenchReport {
    /// Serializes the artifact as pretty-printed JSON, one line per row.
    /// The fingerprint is a hex string (JSON numbers lose u64 precision
    /// past 2⁵³).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"campaign_throughput\",");
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(
            out,
            "  \"config_fingerprint\": \"{:016x}\",",
            self.config_fingerprint
        );
        out.push_str("  \"toolchain\": ");
        json::write_escaped(&mut out, &self.toolchain);
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "  \"host_threads\": {},", self.host_threads);
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": \"{}\", \"jobs\": {}, \"workers\": {}, \"iterations\": {}, \
                 \"trials_per_sec\": {:.3}",
                row.id, row.jobs, row.workers, row.iterations, row.trials_per_sec
            );
            if let Some(parent) = row.parent {
                let _ = write!(out, ", \"parent\": \"{parent}\"");
            }
            if let Some(ratio) = row.ratio {
                let _ = write!(out, ", \"ratio\": {ratio:.4}");
            }
            if let Some(scrapes) = row.scrapes_per_iteration {
                let _ = write!(out, ", \"scrapes_per_iteration\": {scrapes:.2}");
            }
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "}}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// A human-oriented one-line-per-row summary for stderr.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign_throughput: {} trials/campaign at scale {} (seed {}), {} host threads, \
             {} rounds",
            self.trials,
            self.scale,
            self.seed,
            self.host_threads,
            self.rows.first().map_or(0, |r| r.iterations)
        );
        for row in &self.rows {
            let _ = write!(
                out,
                "  {:<27} {:>10.1} trials/sec on {} workers",
                row.id, row.trials_per_sec, row.workers
            );
            if let (Some(parent), Some(ratio)) = (row.parent, row.ratio) {
                let _ = write!(out, "  {ratio:.3}× {parent}");
            }
            if let Some(scrapes) = row.scrapes_per_iteration {
                let _ = write!(out, "  ({scrapes:.1} scrapes/iteration)");
            }
            out.push('\n');
        }
        out
    }
}

/// The toolchain string (`rustc --version`), or `"unknown"` when rustc is
/// not on the PATH (the artifact is still comparable; provenance is
/// best-effort).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(id: &'static str, jobs: usize, parent: Option<&'static str>) -> BenchRow {
        BenchRow {
            id,
            jobs,
            workers: jobs.min(2),
            iterations: 3,
            trials_per_sec: 1234.5678,
            parent,
            ratio: parent.map(|_| 0.5),
            scrapes_per_iteration: None,
        }
    }

    #[test]
    fn json_shape_is_parseable_and_stable() {
        let mut storm = sample_row("jobs=1+listen+scrape-storm", 1, Some("jobs=1+listen"));
        storm.scrapes_per_iteration = Some(2.5);
        let report = BenchReport {
            scale: 0.01,
            seed: 1,
            trials: 700,
            config_fingerprint: 0xdead_beef,
            toolchain: "rustc 1.0 \"quoted\"".into(),
            host_threads: 2,
            rows: vec![
                sample_row("jobs=1", 1, None),
                sample_row("jobs=8", 8, None),
                storm,
            ],
        };
        let doc = json::parse(&report.to_json()).expect("the artifact parses");
        let field = |key: &str| doc.get(key).unwrap_or_else(|| panic!("no {key}"));
        assert_eq!(field("bench").as_str(), Some("campaign_throughput"));
        assert_eq!(field("scale").as_f64(), Some(0.01));
        assert_eq!(field("seed").as_u64(), Some(1));
        assert_eq!(field("trials").as_u64(), Some(700));
        assert_eq!(
            field("config_fingerprint").as_str(),
            Some("00000000deadbeef")
        );
        assert_eq!(field("toolchain").as_str(), Some("rustc 1.0 \"quoted\""));
        assert_eq!(field("host_threads").as_u64(), Some(2));

        let rows = field("rows").as_array().expect("rows is an array");
        assert_eq!(rows.len(), 3);
        for (parsed, row) in rows.iter().zip(&report.rows) {
            let get = |key: &str| parsed.get(key);
            assert_eq!(get("id").and_then(|v| v.as_str()), Some(row.id));
            assert_eq!(get("jobs").and_then(|v| v.as_u64()), Some(row.jobs as u64));
            assert_eq!(
                get("workers").and_then(|v| v.as_u64()),
                Some(row.workers as u64)
            );
            assert_eq!(get("iterations").and_then(|v| v.as_u64()), Some(3));
            assert_eq!(
                get("trials_per_sec").and_then(|v| v.as_f64()),
                Some(1234.568)
            );
            assert_eq!(get("parent").and_then(|v| v.as_str()), row.parent);
            assert_eq!(get("ratio").and_then(|v| v.as_f64()), row.ratio);
            assert_eq!(
                get("scrapes_per_iteration").and_then(|v| v.as_f64()),
                row.scrapes_per_iteration
            );
        }
    }

    #[test]
    fn render_mentions_every_row() {
        let report = BenchReport {
            scale: 0.01,
            seed: 1,
            trials: 10,
            config_fingerprint: 0,
            toolchain: "x".into(),
            host_threads: 2,
            rows: vec![
                sample_row("jobs=2", 2, None),
                sample_row("jobs=1+journal", 1, Some("jobs=1")),
            ],
        };
        let text = report.render();
        assert!(text.contains("jobs=2"), "{text}");
        assert!(text.contains("jobs=1+journal"), "{text}");
        assert!(text.contains("0.500× jobs=1"), "{text}");
    }

    #[test]
    fn shortest_measurement_times_every_row_in_its_parents_rounds() {
        let report = measure(Duration::ZERO);
        let ids: Vec<_> = report.rows.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            [
                "jobs=1",
                "jobs=2",
                "jobs=4",
                "jobs=8",
                "jobs=1+telemetry",
                "jobs=1+journal",
                "jobs=1+listen",
                "jobs=1+listen+scrape-storm",
            ]
        );
        let find = |id| report.rows.iter().find(|r| r.id == id);
        for row in &report.rows {
            assert!(row.workers >= 1 && row.workers <= row.jobs, "{row:?}");
            assert_eq!(row.iterations, MIN_ROUNDS, "{row:?}");
            assert!(row.trials_per_sec > 0.0, "{row:?}");
            assert_eq!(row.parent.is_some(), row.ratio.is_some(), "{row:?}");
            let Some(parent) = row.parent else { continue };
            let parent = find(parent).expect("the parent row is measured");
            assert_eq!(parent.iterations, row.iterations, "{row:?}");
            let ratio = row.ratio.expect("a stage row has a ratio");
            assert!(ratio > 0.0, "{row:?}");
            let expected = row.trials_per_sec / parent.trials_per_sec;
            assert!((ratio / expected - 1.0).abs() < 1e-9, "{row:?}");
        }
        let storm = find("jobs=1+listen+scrape-storm").expect("the storm row");
        assert!(
            storm.scrapes_per_iteration.is_some_and(|n| n >= 1.0),
            "{storm:?}"
        );
    }
}
