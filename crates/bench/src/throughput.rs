//! The `repro bench` harness: the `campaign_throughput` measurement as a
//! machine-readable artifact.
//!
//! The Criterion bench under `benches/campaign_throughput.rs` is the
//! interactive profiling tool; this module is its CI twin. It times the
//! same scaled campaign (`SCALE`, [`REPRO_SEED`]) at the same worker
//! counts, asserts the determinism contract on every iteration, and emits
//! `BENCH_campaign_throughput.json`: trials/second per row plus the
//! campaign config fingerprint and toolchain, so the `bench-gate` CI job
//! can diff a fresh run against the committed baseline and fail on a
//! >20 % regression (see TESTING.md for the re-baselining procedure).

use std::fmt::Write as _;
use std::time::Instant;

use serscale_core::campaign::CampaignConfig;
use serscale_core::journal::config_fingerprint;

use crate::{run_campaign, REPRO_SEED};

/// The bench campaign scale — identical to the Criterion bench: small
/// enough for CI cadence, large enough that waves actually shard.
pub const SCALE: f64 = 0.01;

/// The worker counts measured by default, mirroring the Criterion rows.
pub const DEFAULT_JOBS: [usize; 4] = [1, 2, 4, 8];

/// One measured row: a worker count and its sustained trial throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Row id, stable across harnesses (`jobs=N`).
    pub id: String,
    /// Worker threads.
    pub jobs: usize,
    /// Timed iterations (after one untimed warmup).
    pub iterations: u32,
    /// Completed trials per second, averaged over the timed iterations.
    pub trials_per_sec: f64,
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

/// Measures campaign throughput at each worker count in `jobs_rows`.
///
/// Each row runs one untimed warmup iteration, then timed iterations
/// until at least `min_secs` of wall clock and three iterations have
/// accumulated. Every iteration's report is asserted bit-identical to the
/// sequential reference, so the gate cannot be green on an engine that
/// got fast by getting the physics wrong.
///
/// # Panics
///
/// Panics if any iteration's report diverges from the `jobs = 1`
/// reference (a determinism regression).
pub fn measure(jobs_rows: &[usize], min_secs: f64) -> BenchReport {
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = REPRO_SEED;
    let fingerprint = config_fingerprint(&config);

    let reference = run_campaign(SCALE, REPRO_SEED, 1);
    let trials: u64 = reference.sessions.iter().map(|s| s.runs).sum();

    let mut rows = Vec::new();
    for &jobs in jobs_rows {
        // Warmup: populate allocator arenas and page in the binary.
        let warm = run_campaign(SCALE, REPRO_SEED, jobs);
        assert_eq!(warm, reference, "determinism broken at jobs={jobs}");

        let mut iterations = 0u32;
        let started = Instant::now();
        loop {
            let report = run_campaign(SCALE, REPRO_SEED, jobs);
            assert_eq!(report, reference, "determinism broken at jobs={jobs}");
            iterations += 1;
            if iterations >= 3 && started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        rows.push(BenchRow {
            id: format!("jobs={jobs}"),
            jobs,
            iterations,
            trials_per_sec: trials as f64 * f64::from(iterations) / elapsed,
        });
    }

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

impl BenchReport {
    /// Serializes the artifact as pretty-printed JSON. The fingerprint is
    /// a hex string (JSON numbers lose u64 precision past 2⁵³).
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
        let _ = writeln!(
            out,
            "  \"toolchain\": \"{}\",",
            self.toolchain.replace('"', "'")
        );
        let _ = writeln!(out, "  \"host_threads\": {},", self.host_threads);
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": \"{}\", \"jobs\": {}, \"iterations\": {}, \
                 \"trials_per_sec\": {:.3}}}{comma}",
                row.id, row.jobs, row.iterations, row.trials_per_sec
            );
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
            "campaign_throughput: {} trials/campaign at scale {} (seed {}), {} host threads",
            self.trials, self.scale, self.seed, self.host_threads
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<8} {:>10.1} trials/sec  ({} iterations)",
                row.id, row.trials_per_sec, row.iterations
            );
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

    #[test]
    fn json_shape_is_parseable_and_stable() {
        let report = BenchReport {
            scale: 0.01,
            seed: 1,
            trials: 700,
            config_fingerprint: 0xdead_beef,
            toolchain: "rustc 1.0 \"quoted\"".into(),
            host_threads: 8,
            rows: vec![
                BenchRow {
                    id: "jobs=1".into(),
                    jobs: 1,
                    iterations: 3,
                    trials_per_sec: 1234.5678,
                },
                BenchRow {
                    id: "jobs=8".into(),
                    jobs: 8,
                    iterations: 4,
                    trials_per_sec: 9876.5,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"campaign_throughput\""));
        assert!(json.contains("\"config_fingerprint\": \"00000000deadbeef\""));
        assert!(json.contains("\"trials_per_sec\": 1234.568}"), "{json}");
        assert!(json.contains("\"trials_per_sec\": 9876.500}"), "{json}");
        // Embedded quotes must not break the JSON string.
        assert!(json.contains("rustc 1.0 'quoted'"));
        assert_eq!(json.matches("},").count(), 1, "rows must be comma-joined");
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
            rows: vec![BenchRow {
                id: "jobs=2".into(),
                jobs: 2,
                iterations: 3,
                trials_per_sec: 10.0,
            }],
        };
        assert!(report.render().contains("jobs=2"));
    }
}
