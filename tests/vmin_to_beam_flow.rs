//! Integration: the paper's §3.6 test flow, end to end.
//!
//! "Prior to the radiation tests, we extensively characterized the
//! processor … The identified safe Vmin for each frequency allowed a
//! fault-free execution of all benchmarks. Therefore, any detected errors
//! during the radiation experiments are attributed to neutrons and not to
//! the reduced supply voltage."
//!
//! This file walks that exact chain: characterize → validate the operating
//! points → verify fault-free execution without beam → campaign with beam.

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignRunOptions, VminSource};
use serscale_core::classify::RunVerdict;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::runner::BenchmarkRunner;
use serscale_soc::platform::{OperatingPoint, Platform};
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, Megahertz, Millivolts, SimInstant};
use serscale_undervolt::characterize::Characterizer;
use serscale_workload::Benchmark;

/// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
fn xgene2_point(label: &str) -> OperatingPoint {
    let spec = PlatformSpec::xgene2();
    let row = spec.campaign.iter().find(|c| c.label == label);
    row.expect("an X-Gene 2 campaign label").point
}

#[test]
fn step1_characterization_finds_the_paper_vmins() {
    let spec = PlatformSpec::xgene2();
    let harness = Characterizer::for_platform(&spec, 100);
    let mut rng = SimRng::seed_from(7);
    let c24 = harness.sweep_platform(&mut rng, &spec, Megahertz::new(2400));
    let mut rng = SimRng::seed_from(7);
    let c09 = harness.sweep_platform(&mut rng, &spec, Megahertz::new(900));
    assert_eq!(c24.safe_vmin(), Some(Millivolts::new(920)));
    assert_eq!(c09.safe_vmin(), Some(Millivolts::new(790)));
    // And the safe Vmin really was failure-free across all benchmarks.
    let at_vmin = c24
        .points
        .iter()
        .find(|p| Some(p.voltage) == c24.safe_vmin())
        .unwrap();
    assert_eq!(at_vmin.failures, 0);
    assert_eq!(at_vmin.trials, 600); // 6 benchmarks × 100 trials
}

#[test]
fn step2_campaign_points_validate_against_the_regulator() {
    let soc = Platform::default();
    for point in soc.spec().campaign_points() {
        soc.validate(point)
            .expect("campaign points are regulator-legal");
    }
}

#[test]
fn step3_no_beam_no_errors_at_every_campaign_point() {
    // The keystone: at safe voltages with the beam off, every benchmark
    // runs correctly — so beam-time errors are radiation, full stop.
    for point in PlatformSpec::xgene2().campaign_points() {
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut runner = BenchmarkRunner::new(dut, Flux::per_cm2_s(0.0));
        let mut rng = SimRng::seed_from(11);
        for benchmark in Benchmark::ALL {
            let out = runner.run_once(&mut rng, benchmark, SimInstant::EPOCH);
            assert_eq!(
                out.verdict,
                RunVerdict::Correct,
                "{benchmark} at {} without beam",
                point.label()
            );
            assert!(out.edac.is_empty());
        }
    }
}

#[test]
fn step4_campaign_driven_by_characterized_vmins() {
    // The campaign can take its Vmin anchors from the characterization
    // harness instead of the paper's constants, closing the loop.
    let mut config = CampaignConfig::paper_scaled(0.01);
    config.seed = 23;
    config.vmin_source = VminSource::Characterized { trials: 80 };
    let report = Campaign::new(config)
        .try_run(
            CampaignRunOptions::with_jobs(1),
            &mut serscale_core::trace::NoopObserver,
        )
        .expect("a run with no journal and no cancel token cannot fail");
    assert_eq!(report.sessions.len(), 4);
    for (f, v) in &report.vmins {
        let paper = DeviceUnderTest::paper_vmin(*f);
        assert!(
            v.get().abs_diff(paper.get()) <= 5,
            "characterized {v} strays from paper {paper} at {f}"
        );
    }
}

#[test]
fn beam_on_produces_radiation_attributable_errors_only_at_safe_points() {
    // With the beam on at a SAFE voltage, failures occur — and since step 3
    // proved the voltage alone is harmless, they are neutron-attributable.
    let point = xgene2_point("Vmin");
    let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
    let mut runner = BenchmarkRunner::new(dut, Flux::per_cm2_s(1.5e6));
    let mut rng = SimRng::seed_from(13);
    let mut failures = 0;
    for i in 0..4000 {
        let out = runner.run_once(&mut rng, Benchmark::ALL[i % 6], SimInstant::EPOCH);
        if out.verdict != RunVerdict::Correct {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "a ~3.5-hour Vmin exposure must produce failures"
    );
}
