//! Integration: a scaled beam campaign reproduces the *shape* of every
//! headline result in the paper's evaluation.
//!
//! These assertions are the executable form of EXPERIMENTS.md: orderings,
//! ratios and crossovers, with tolerances sized for the scaled exposure's
//! Poisson noise.

use serscale_bench::run_campaign;
use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::classify::FailureClass;
use serscale_core::fit::{class_fit, fit_breakdown, sdc_notification_split, total_fit};
use serscale_core::tradeoff::{power_vs_upsets, savings_vs_susceptibility};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_soc::PowerModel;

/// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
fn xgene2_point(label: &str) -> OperatingPoint {
    let spec = PlatformSpec::xgene2();
    let row = spec.campaign.iter().find(|c| c.label == label);
    row.expect("an X-Gene 2 campaign label").point
}

/// One moderately sized campaign shared by all tests in this file: the
/// paper's four operating points with EQUAL 800-minute sessions, computed
/// once. (The paper's own session 3 and 4 durations are too short for
/// stable rate ratios once scaled down; Table 2's realized durations are
/// exercised by the repro binary and the campaign unit tests. 800 minutes
/// keeps nominal's failure-class shares — a few dozen events — out of
/// coin-flip territory.)
fn campaign() -> &'static CampaignReport {
    static REPORT: std::sync::OnceLock<CampaignReport> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| {
        let mut config = CampaignConfig::paper();
        config.seed = 0xBEA3;
        for (_, limits) in &mut config.sessions {
            *limits = serscale_core::session::SessionLimits::time_boxed(
                serscale_types::SimDuration::from_minutes(800.0),
            );
        }
        Campaign::new(config)
            .try_run(
                CampaignRunOptions::with_jobs(1),
                &mut serscale_core::trace::NoopObserver,
            )
            .expect("a run with no journal and no cancel token cannot fail")
    })
}

#[test]
fn full_campaign_shape() {
    let report = campaign();
    assert_eq!(report.sessions.len(), 4);
    let nominal = report.baseline().expect("nominal session");
    let safe = report.session_at(xgene2_point("Safe")).expect("930 mV");
    let vmin = report.session_at(xgene2_point("Vmin")).expect("920 mV");
    let vmin900 = report
        .session_at(xgene2_point("Vmin 900 MHz"))
        .expect("790 mV");

    // --- Table 2 row 9: upset rates rise monotonically with undervolting.
    let rates = [
        nominal.upset_rate().per_minute(),
        safe.upset_rate().per_minute(),
        vmin.upset_rate().per_minute(),
        vmin900.upset_rate().per_minute(),
    ];
    assert!(
        rates[0] < rates[2] && rates[0] < rates[3],
        "upset rates must rise with undervolting: {rates:?}"
    );
    // Within the paper's band (1.0–1.2/min) everywhere.
    for r in rates {
        assert!(r > 0.85 && r < 1.40, "rate out of band: {r}");
    }

    // --- Observation #1: ~10.9% chip-level increase at Vmin.
    let increase = rates[2] / rates[0] - 1.0;
    assert!(
        (0.02..0.30).contains(&increase),
        "upset-rate increase at Vmin = {increase}"
    );

    // --- Figure 8: the SDC share explodes toward Vmin.
    let sdc_share =
        |s: &serscale_core::session::SessionReport| s.failure_shares()[&FailureClass::Sdc];
    assert!(
        sdc_share(nominal) < 0.55,
        "nominal SDC share = {}",
        sdc_share(nominal)
    );
    assert!(
        sdc_share(vmin) > 0.75,
        "Vmin SDC share = {}",
        sdc_share(vmin)
    );
    assert!(sdc_share(vmin) > sdc_share(nominal));

    // --- Figure 11: total FIT ratio ≈ 6.6×, SDC FIT ratio ≈ 16×.
    let total_ratio = total_fit(vmin).point.get() / total_fit(nominal).point.get();
    assert!(
        (3.0..12.0).contains(&total_ratio),
        "total FIT ratio = {total_ratio}"
    );
    let nominal_sdc = class_fit(nominal, FailureClass::Sdc).point.get();
    if nominal_sdc > 0.0 {
        let sdc_ratio = class_fit(vmin, FailureClass::Sdc).point.get() / nominal_sdc;
        assert!(
            (6.0..40.0).contains(&sdc_ratio),
            "SDC FIT ratio = {sdc_ratio}"
        );
    }

    // --- Figure 11 @ Vmin: SDC dominates both crash classes.
    let b = fit_breakdown(vmin);
    assert!(b.sdc.point.get() > b.sys_crash.point.get());
    assert!(b.sdc.point.get() > b.app_crash.point.get());

    // --- Figures 12/13: un-notified SDCs dominate notified ones.
    for session in [nominal, safe, vmin, vmin900] {
        let split = sdc_notification_split(session);
        assert!(
            split.without_notification.point.get() >= split.with_notification.point.get(),
            "{}",
            session.operating_point.label()
        );
    }

    // --- Observation #6: 790 mV @ 900 MHz raises the SER via voltage, but
    // its SDC FIT stays FAR below 920 mV @ 2.4 GHz (the timing-window
    // amplification is frequency-gated).
    let sdc_900 = class_fit(vmin900, FailureClass::Sdc).point.get();
    let sdc_vmin24 = class_fit(vmin, FailureClass::Sdc).point.get();
    assert!(
        sdc_900 < sdc_vmin24 / 2.0,
        "SDC FIT at 790/900MHz ({sdc_900}) should sit well below 920/2.4GHz ({sdc_vmin24})"
    );
}

#[test]
fn table2_fluence_and_nyc_equivalents_scale() {
    let report = run_campaign(0.1, 3, 1);
    for session in &report.sessions {
        // Fluence = working flux × duration.
        let expected = 1.5e6 * session.duration.as_secs();
        let got = session.fluence.as_per_cm2();
        assert!((got - expected).abs() / expected < 1e-9);
        // NYC equivalence is in the right regime: each accelerated minute
        // is worth centuries.
        let years_per_minute = session.nyc_equivalent_years() / session.duration.as_minutes();
        assert!((years_per_minute - 789.0).abs() < 5.0, "{years_per_minute}");
    }
}

#[test]
fn figure9_figure10_tradeoff_shape() {
    let report = campaign();
    let model = PowerModel::for_platform(&PlatformSpec::xgene2());

    let rows = power_vs_upsets(report, &model);
    // Power monotone decreasing across the campaign order; upsets rising
    // between the endpoints.
    for pair in rows.windows(2) {
        assert!(pair[1].power < pair[0].power);
    }
    assert!(rows[3].upsets_per_minute > rows[0].upsets_per_minute);

    let savings = savings_vs_susceptibility(report, &model);
    assert_eq!(savings.len(), 3);
    // Paper: 8.7% / 11.0% / 48.1% savings.
    assert!((savings[0].power_savings - 0.087).abs() < 0.02);
    assert!((savings[1].power_savings - 0.110).abs() < 0.02);
    assert!((savings[2].power_savings - 0.481).abs() < 0.03);
}

#[test]
fn memory_ser_stays_in_paper_band() {
    let report = campaign();
    let mbit = serscale_soc::Platform::default().total_sram().as_mbit();
    for session in &report.sessions {
        let ser = session.memory_ser_fit_per_mbit(mbit);
        // Table 2 row 10: 2.08–2.45 FIT/Mbit. Allow scaled-run noise.
        assert!(
            (1.6..3.2).contains(&ser),
            "{}: SER = {ser}",
            session.operating_point.label()
        );
    }
}

#[test]
fn campaign_replays_bit_identically() {
    let a = run_campaign(0.02, 17, 1);
    let b = run_campaign(0.02, 17, 1);
    assert_eq!(a, b);
}
