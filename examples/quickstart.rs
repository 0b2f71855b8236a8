//! Quickstart: put the simulated X-Gene 2 under a simulated neutron beam
//! for an hour at two voltage settings and compare what comes out.
//!
//! ```text
//! cargo run --release -p serscale-bench --example quickstart
//! ```

use serscale_beam::facility::{BeamFacility, BeamPosition};
use serscale_core::campaign::CampaignRunOptions;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::fit::total_fit;
use serscale_core::session::{SessionLimits, TestSession};
use serscale_core::trace::NoopObserver;
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::SimDuration;

/// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
fn xgene2_point(label: &str) -> OperatingPoint {
    let spec = PlatformSpec::xgene2();
    let row = spec.campaign.iter().find(|c| c.label == label);
    row.expect("an X-Gene 2 campaign label").point
}

fn main() {
    // The beam: TRIUMF's TNF, with the DUT raised into the halo exactly as
    // the paper had to (the full beam kept crashing the board on boot).
    let tnf = BeamFacility::tnf();
    let flux = tnf.flux_at(BeamPosition::halo(BeamPosition::PAPER_HALO_TRANSMISSION));
    println!("beam: {} at {flux}", tnf.name());

    for point in [xgene2_point("Nominal"), xgene2_point("Vmin")] {
        // The DUT needs to know the safe Vmin for its frequency — that is
        // what anchors the near-Vmin logic-susceptibility amplification.
        let vmin = DeviceUnderTest::paper_vmin(point.frequency);
        let dut = DeviceUnderTest::xgene2(point, vmin);

        // One simulated beam hour of NPB runs, on one worker thread with
        // no run journal.
        let limits = SessionLimits::time_boxed(SimDuration::from_hours(1.0));
        let mut session = TestSession::new(dut, flux, limits);
        let mut rng = SimRng::seed_from(2023);
        let report = session
            .try_run(
                &mut rng,
                0,
                &mut CampaignRunOptions::with_jobs(1),
                &mut NoopObserver,
            )
            .expect("a run with no journal and no cancel token cannot fail");

        println!("\n=== {} ===", point.label());
        println!("  benchmark runs:     {}", report.runs);
        println!(
            "  memory upsets:      {} ({:.2}/min)",
            report.memory_upsets,
            report.upset_rate().per_minute()
        );
        println!("  error events:       {}", report.error_events());
        for (class, count) in &report.failures {
            println!("    {class:<9} {count}");
        }
        let fit = total_fit(&report);
        println!(
            "  total FIT at NYC:   {:.1}  (95% CI {:.1}–{:.1})",
            fit.point.get(),
            fit.lower.get(),
            fit.upper.get()
        );
        println!(
            "  NYC-equivalent:     {:.0} years of natural exposure",
            report.nyc_equivalent_years()
        );
    }
    println!(
        "\nLower voltage, same workload, same beam: more upsets — and the \
         failure mix shifts toward silent data corruptions."
    );
}
