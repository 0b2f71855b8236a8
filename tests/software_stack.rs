//! Integration: the "full software stack" seams — dmesg scraping, the
//! multithreaded workload shape, and fleet-scale characterization.

use serscale_core::dut::DeviceUnderTest;
use serscale_core::runner::BenchmarkRunner;
use serscale_soc::edac::{EdacLog, EdacRecord};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, Megahertz, SimInstant};
use serscale_undervolt::{ChipPopulation, FleetCharacterization};
use serscale_workload::kernel::Kernel;
use serscale_workload::{run_suite_parallel, Benchmark, EpParallel};

/// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
fn xgene2_point(label: &str) -> OperatingPoint {
    let spec = PlatformSpec::xgene2();
    let row = spec.campaign.iter().find(|c| c.label == label);
    row.expect("an X-Gene 2 campaign label").point
}

#[test]
fn dmesg_scrape_roundtrip_through_a_beam_run() {
    // Produce real EDAC records under beam, render them to a dmesg text
    // with interleaved non-EDAC noise, scrape it back, and verify the
    // harvested counts match — the paper's §4.2 collection path.
    let point = xgene2_point("Vmin");
    let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
    let mut runner = BenchmarkRunner::new(dut, Flux::per_cm2_s(1.5e6));
    let mut rng = SimRng::seed_from(42);

    let mut log = EdacLog::new();
    for i in 0..2000 {
        let out = runner.run_once(&mut rng, Benchmark::ALL[i % 6], SimInstant::EPOCH);
        for r in out.edac {
            log.push(r);
        }
    }
    assert!(
        !log.is_empty(),
        "a 1.7-hour Vmin exposure must log EDAC events"
    );

    // Interleave boot noise like a real kernel log.
    let mut dmesg = String::from("[    0.000000] Booting Linux on physical CPU 0x0\n");
    for (i, line) in log.to_dmesg().lines().enumerate() {
        if i % 5 == 0 {
            dmesg.push_str("[    1.234567] systemd[1]: Started irrelevant unit.\n");
        }
        dmesg.push_str(line);
        dmesg.push('\n');
    }

    let scraped: Vec<EdacRecord> = dmesg
        .lines()
        .filter_map(EdacRecord::from_dmesg_line)
        .collect();
    assert_eq!(scraped.len(), log.len());
    let mut rebuilt = EdacLog::new();
    for r in scraped {
        rebuilt.push(r);
    }
    assert_eq!(rebuilt.corrected_count(), log.corrected_count());
    assert_eq!(rebuilt.uncorrected_count(), log.uncorrected_count());
    assert_eq!(rebuilt.counts_per_level(), log.counts_per_level());
}

#[test]
fn parallel_suite_outputs_equal_campaign_goldens() {
    // The campaign's golden outputs and a concurrent 6-thread execution of
    // the whole suite agree bit-for-bit.
    let kernels: Vec<Box<dyn Kernel + Sync>> = vec![
        Box::new(serscale_workload::cg::Cg::class_a()),
        Box::new(serscale_workload::ep::Ep::class_a()),
        Box::new(serscale_workload::ft::Ft::class_a()),
        Box::new(serscale_workload::is::Is::class_a()),
        Box::new(serscale_workload::lu::Lu::class_a()),
        Box::new(serscale_workload::mg::Mg::class_a()),
    ];
    let outputs = run_suite_parallel(&kernels);
    for (benchmark, output) in Benchmark::ALL.iter().zip(&outputs) {
        assert_eq!(output, &benchmark.kernel().golden(), "{benchmark}");
    }
}

#[test]
fn intra_kernel_parallel_ep_is_corruptible_and_deterministic() {
    // The 8-thread EP supports the same corruption hook the fault
    // injector uses, scheduling-independently.
    let ep = EpParallel::class_a();
    let golden = ep.golden();
    let corrupted = ep.run_corrupted(serscale_workload::Corruption::new(0.25, 5, 61));
    assert_ne!(corrupted, golden);
    for _ in 0..3 {
        assert_eq!(
            ep.run_corrupted(serscale_workload::Corruption::new(0.25, 5, 61)),
            corrupted
        );
    }
}

#[test]
fn fleet_characterization_brackets_the_papers_specimen() {
    let mut rng = SimRng::seed_from(99);
    let fleet = FleetCharacterization::run(
        &mut rng,
        &ChipPopulation::xgene2_fleet(),
        Megahertz::new(2400),
        30,
        40,
    );
    // The paper's chip (920 mV) lies within the fleet's range.
    assert!(fleet.best_chip_vmin().get() <= 920);
    assert!(fleet.uniform_safe_vmin().get() >= 920);
    // And the uniform fleet policy is strictly more conservative than the
    // average chip needs.
    assert!(fleet.per_chip_dividend_mv() >= 0.0);
}
