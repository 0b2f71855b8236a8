//! The golden smoke contract: a scaled campaign at the pinned (scale,
//! seed) pair must reproduce `tests/golden/campaign_smoke.txt` byte for
//! byte — CI additionally re-derives the same text through the `repro
//! --golden` binary and diffs it against the checked-in file.
//!
//! If a deliberate physics or engine change moves the numbers, regenerate
//! the artifact with:
//!
//! ```text
//! cargo run --release -p serscale-bench --bin repro -- --golden \
//!     > tests/golden/campaign_smoke.txt
//! ```

use serscale_bench::{golden_summary, run_campaign, GOLDEN_SCALE, REPRO_SEED};

const GOLDEN: &str = include_str!("golden/campaign_smoke.txt");

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
