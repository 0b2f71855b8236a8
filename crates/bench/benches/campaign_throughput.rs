//! Throughput of the parallel campaign engine: the same scaled campaign
//! at increasing worker counts, annotated with trials/second.
//!
//! The acceptance target (≥3× at 8 workers vs 1) is only observable on a
//! machine with ≥8 hardware threads; on smaller hosts the interesting
//! number is that `jobs > 1` never *loses* to the sequential path by more
//! than the pool's channel overhead, while the reports stay bit-identical.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use serscale_bench::{run_campaign, REPRO_SEED};
use serscale_core::campaign::{Campaign, CampaignConfig, CampaignRunOptions};
use serscale_core::journal::start_or_resume;
use serscale_telemetry::{TelemetryOptions, TelemetrySink};

/// Small enough for bench cadence, large enough that waves actually
/// shard (~700 trials across the four sessions).
const SCALE: f64 = 0.01;

fn campaign_throughput(c: &mut Criterion) {
    let reference = run_campaign(SCALE, REPRO_SEED, 1);
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = REPRO_SEED;
    let campaign = Campaign::new(config);
    let trials: u64 = reference.sessions.iter().map(|s| s.runs).sum();

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trials));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for jobs in [1usize, 2, 4, 8] {
        let id = format!(
            "jobs={jobs}{}",
            if jobs > cores {
                " (oversubscribed)"
            } else {
                ""
            }
        );
        group.bench_function(&id, |b| {
            b.iter(|| {
                let report = run_campaign(SCALE, REPRO_SEED, jobs);
                assert_eq!(report, reference, "determinism broken at jobs={jobs}");
                report
            })
        });
    }

    // The same campaign shadowed by a full in-memory telemetry sink
    // (sharded metrics, spans, JSONL events). Compare against the bare
    // `jobs=N` row above: the observe-only acceptance budget is ≤5%.
    for jobs in [1usize, 4] {
        group.bench_function(&format!("jobs={jobs}+telemetry"), |b| {
            b.iter(|| {
                let sink = TelemetrySink::in_memory(TelemetryOptions::default());
                let mut observer = sink.observer();
                let report = campaign
                    .try_run(CampaignRunOptions::with_jobs(jobs), &mut observer)
                    .expect("a run with no journal and no cancel token cannot fail");
                assert_eq!(report, reference, "telemetry broke determinism");
                report
            })
        });
    }
    // The crash-safe execution stack, decomposed one layer at a time so
    // regressions are attributable:
    //
    // * `jobs=8+robust`        — retry/quarantine supervision, no journal.
    //   Compare against bare `jobs=8`: the supervision wrapper cost.
    // * `jobs=8+journal`       — the fsync-throttled run journal on
    //   RAM-backed scratch when the host offers it, so the row measures
    //   the engine's journaling overhead (record formatting, digests,
    //   write syscalls) rather than the device's sync latency. The
    //   acceptance budget is ≤5% over `jobs=8+robust` at 8 workers.
    // * `jobs=8+journal+disk`  — the same journal on the real tempdir
    //   filesystem: adds the hardware-dependent durability cost (two
    //   forced fdatasyncs per run plus directory metadata commits).
    //
    // Each journaled iteration uses a fresh directory, so every run pays
    // the full write path instead of replaying a finished journal.
    group.bench_function("jobs=8+robust", |b| {
        b.iter(|| {
            let mut discard = serscale_core::trace::Logbook::new();
            let report = campaign
                .try_run(CampaignRunOptions::with_jobs(8), &mut discard)
                .expect("a run with no journal and no cancel token cannot fail");
            assert_eq!(report, reference, "robust path broke determinism");
            report
        })
    });
    // The live monitoring plane, one layer at a time:
    //
    // * `jobs=8+listen`              — the HTTP server bound but idle.
    //   Compare against `jobs=8+telemetry`-style rows: binding the
    //   socket and parking five threads should cost ~nothing.
    // * `jobs=8+listen+scrape-storm` — a background client hammering
    //   `/metrics` and `/progress` at ~50 Hz for the whole iteration.
    //   The observe-only acceptance budget is ≤5% over the idle-server
    //   row: snapshots merge shards without blocking writers, so scrape
    //   pressure lands on spare cores, not the campaign's critical path.
    for (row, storm) in [
        ("jobs=8+listen", false),
        ("jobs=8+listen+scrape-storm", true),
    ] {
        group.bench_function(row, |b| {
            b.iter(|| {
                let sink = TelemetrySink::in_memory(TelemetryOptions::default());
                let mut server = sink.serve("127.0.0.1:0").expect("bind monitor");
                let addr = server.addr();
                let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let scraper = storm.then(|| {
                    let stop = std::sync::Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut scrapes = 0u64;
                        while !stop.load(std::sync::atomic::Ordering::Acquire) {
                            let path = if scrapes.is_multiple_of(2) {
                                "/metrics"
                            } else {
                                "/progress"
                            };
                            let (status, _) =
                                serscale_telemetry::serve::http_get(addr, path).expect("scrape");
                            assert_eq!(status, 200);
                            scrapes += 1;
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        scrapes
                    })
                });
                let mut observer = sink.observer();
                let report = campaign
                    .try_run(CampaignRunOptions::with_jobs(8), &mut observer)
                    .expect("a run with no journal and no cancel token cannot fail");
                drop(observer);
                stop.store(true, std::sync::atomic::Ordering::Release);
                if let Some(scraper) = scraper {
                    scraper.join().expect("scraper died");
                }
                server.shutdown();
                assert_eq!(report, reference, "monitoring broke determinism");
                report
            })
        });
    }
    let shm = std::path::Path::new("/dev/shm");
    let ram_scratch = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    for (row, scratch) in [
        ("jobs=8+journal", ram_scratch),
        ("jobs=8+journal+disk", std::env::temp_dir()),
    ] {
        let mut serial = 0u64;
        group.bench_function(row, |b| {
            b.iter(|| {
                serial += 1;
                let dir = scratch.join(format!(
                    "serscale-bench-journal-{}-{serial}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let (mut writer, _) =
                    start_or_resume(&dir, campaign.config()).expect("journal opens");
                let mut discard = serscale_core::trace::Logbook::new();
                let report = campaign
                    .try_run(
                        CampaignRunOptions {
                            journal: Some(&mut writer),
                            ..CampaignRunOptions::with_jobs(8)
                        },
                        &mut discard,
                    )
                    .expect("journaled run");
                drop(writer);
                assert_eq!(report, reference, "journaling broke determinism");
                let _ = std::fs::remove_dir_all(&dir);
                report
            })
        });
    }
    group.finish();
}

criterion_group!(benches, campaign_throughput);
criterion_main!(benches);
