//! # serscale-bench
//!
//! The reproduction harness: every table and figure of the paper's
//! evaluation, regenerated from the simulator and printed side by side with
//! the paper's reported values.
//!
//! * [`paper`] — the reference numbers, transcribed from the paper.
//! * [`experiments`] — one regeneration function per table/figure, for
//!   whichever platform the campaign ran on.
//! * The `repro` binary (`cargo run -p serscale-bench --bin repro -- --all`)
//!   drives them from the command line.
//! * [`selfcheck`] asserts every EXPERIMENTS.md shape claim against a
//!   fresh campaign (`repro --selfcheck`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod selfcheck;
pub mod throughput;

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::trace::NoopObserver;

/// The default seed used by the `repro` outputs (any seed reproduces the
/// paper's *shape*; this one is fixed so the committed EXPERIMENTS.md is
/// regenerable verbatim).
pub const REPRO_SEED: u64 = 20231028; // MICRO '23 opening day

/// The campaign scale pinned by the golden smoke artifact
/// (`tests/golden/campaign_smoke.txt`): small enough for CI, large enough
/// that every session sees events.
pub const GOLDEN_SCALE: f64 = 0.005;

/// Runs the paper campaign (the X-Gene 2 platform) at a given scale (1.0 =
/// the full 64.8 beam hours of Table 2) on `jobs` worker threads — same
/// report at any thread count (the engine's determinism contract).
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1` and `jobs > 0`.
pub fn run_campaign(scale: f64, seed: u64, jobs: usize) -> CampaignReport {
    let mut config = CampaignConfig::paper_scaled(scale);
    config.seed = seed;
    Campaign::new(config)
        .try_run(CampaignRunOptions::with_jobs(jobs), &mut NoopObserver)
        .expect("a run with no journal and no cancel token cannot fail")
}

// The bit-stable golden renderer moved to `serscale_core::report` so the
// control plane can serve byte-comparable reports; the re-export keeps
// the historical `serscale_bench::golden_summary` path working.
pub use serscale_core::report::golden_summary;

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_runs() {
        let report = run_campaign(0.005, 1, 1);
        assert_eq!(report.sessions.len(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.305), "30.5%");
    }
}
