//! The golden smoke contract: a scaled campaign at the pinned (scale,
//! seed) pair must reproduce `tests/golden/campaign_smoke.txt` byte for
//! byte, and the same campaign on the Zynq MPSoC platform file
//! `tests/golden/campaign_smoke_zynq-mpsoc.txt` — CI additionally
//! re-derives both texts through the `repro --golden` binary and diffs
//! them against the checked-in files.
//!
//! If a deliberate physics, engine or platform-file change moves the
//! numbers, regenerate the artifacts with:
//!
//! ```text
//! cargo run --release -p serscale-bench --bin repro -- --golden \
//!     > tests/golden/campaign_smoke.txt
//! cargo run --release -p serscale-bench --bin repro -- --golden \
//!     --platform zynq-mpsoc > tests/golden/campaign_smoke_zynq-mpsoc.txt
//! ```

use serscale_bench::{golden_summary, run_campaign, GOLDEN_SCALE, REPRO_SEED};
use serscale_core::campaign::{Campaign, CampaignConfig, CampaignRunOptions};
use serscale_core::trace::NoopObserver;
use serscale_soc::PlatformSpec;

const GOLDEN: &str = include_str!("golden/campaign_smoke.txt");
const GOLDEN_ZYNQ: &str = include_str!("golden/campaign_smoke_zynq-mpsoc.txt");

#[test]
fn scaled_campaign_matches_the_golden_artifact() {
    let fresh = golden_summary(&run_campaign(GOLDEN_SCALE, REPRO_SEED, 2));
    assert_eq!(
        fresh, GOLDEN,
        "campaign drifted from the golden artifact; if intentional, regenerate it \
         (see this file's module docs)"
    );
}

#[test]
fn golden_summary_is_jobs_invariant() {
    let sequential = golden_summary(&run_campaign(GOLDEN_SCALE, REPRO_SEED, 1));
    for jobs in [3, 8] {
        let parallel = golden_summary(&run_campaign(GOLDEN_SCALE, REPRO_SEED, jobs));
        assert_eq!(parallel, sequential, "jobs = {jobs}");
    }
}

#[test]
fn zynq_campaign_matches_its_golden_artifact() {
    let mut config = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), GOLDEN_SCALE);
    config.seed = REPRO_SEED;
    let report = Campaign::new(config)
        .try_run(CampaignRunOptions::with_jobs(2), &mut NoopObserver)
        .expect("a run with no journal and no cancel token cannot fail");
    assert_eq!(
        golden_summary(&report),
        GOLDEN_ZYNQ,
        "the platforms/zynq-mpsoc.json campaign drifted from its golden artifact; \
         if intentional, regenerate it (see this file's module docs)"
    );
}
