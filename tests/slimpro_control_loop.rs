//! Integration: the campaign driven through the management-processor
//! control path, the way the real experiment's tooling drove the board.
//!
//! The paper's undervolting stack talks to the SLIMpro to set rail
//! voltages and to harvest health reports (§3.1, [57]). This test walks
//! the full loop: characterize → command the transitions through the
//! mailbox → run sessions at the SLIMpro-reported operating point →
//! push the session's EDAC records through the health log → verify the
//! mailbox-collected counts equal the session report's.

use serscale_core::campaign::CampaignRunOptions;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::session::{SessionLimits, TestSession};
use serscale_core::trace::{LogEvent, Logbook};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::slimpro::{Command, Response, SlimPro};
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, Millivolts, SimDuration, VoltageDomain};

/// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
fn xgene2_point(label: &str) -> OperatingPoint {
    let spec = PlatformSpec::xgene2();
    let row = spec.campaign.iter().find(|c| c.label == label);
    row.expect("an X-Gene 2 campaign label").point
}

#[test]
fn full_mailbox_driven_session() {
    let mut slimpro = SlimPro::for_platform(&PlatformSpec::xgene2());

    // --- 1. Command the 920 mV transition, knob by knob. ---------------
    let target = xgene2_point("Vmin");
    slimpro
        .apply_point(target)
        .expect("campaign transition must be accepted");
    let sensed = match slimpro.execute(Command::ReadSensors) {
        Response::Sensors(s) => s,
        other => panic!("expected sensors, got {other:?}"),
    };
    assert_eq!(sensed.pmd, target.pmd);
    assert_eq!(sensed.soc, target.soc);
    assert_eq!(sensed.frequency, target.frequency);

    // --- 2. Run a session at the SLIMpro-reported point. ----------------
    let point = slimpro.operating_point();
    let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
    let mut session = TestSession::new(
        dut,
        Flux::per_cm2_s(1.5e6),
        SessionLimits::time_boxed(SimDuration::from_minutes(90.0)),
    );
    let mut logbook = Logbook::new();
    let report = session
        .try_run(
            &mut SimRng::seed_from(55),
            0,
            &mut CampaignRunOptions::with_jobs(1),
            &mut logbook,
        )
        .expect("a run with no journal and no cancel token cannot fail");
    assert!(
        report.memory_upsets > 0,
        "a 90-minute Vmin session must log upsets"
    );

    // --- 3. Push every EDAC event through the health path and drain. ----
    for event in logbook.events() {
        if let LogEvent::Edac(record) = event {
            slimpro.report_health(*record);
        }
    }
    let harvested = match slimpro.execute(Command::ReadHealthLog) {
        Response::HealthLog(records) => records,
        other => panic!("expected health log, got {other:?}"),
    };
    assert_eq!(harvested.len() as u64, report.memory_upsets);

    // Aggregated per level, the mailbox data equals the report's.
    let mut log = serscale_soc::edac::EdacLog::new();
    for r in harvested {
        log.push(r);
    }
    assert_eq!(log.counts_per_level(), report.edac_per_level);
}

#[test]
fn mailbox_enforces_the_same_safety_envelope_as_the_platform() {
    let mut slimpro = SlimPro::for_platform(&PlatformSpec::xgene2());

    // Undervolting below the plausibility floor is refused…
    let r = slimpro.execute(Command::SetVoltage {
        domain: VoltageDomain::Pmd,
        level: Millivolts::new(450),
    });
    assert!(matches!(r, Response::Rejected { .. }));

    // …and the operating point is untouched, so a session started from the
    // SLIMpro state still runs at a validated point.
    let point = slimpro.operating_point();
    assert_eq!(point, xgene2_point("Nominal"));
    serscale_soc::Platform::default()
        .validate(point)
        .expect("SLIMpro can never hold an invalid point");
}

#[test]
fn half_applied_transition_is_observable_via_sensors() {
    // A rejected knob mid-sequence leaves prior knobs applied — the
    // documented hardware behaviour. The Control-PC's recourse is to read
    // the sensors back, which must reflect the partial state.
    let mut slimpro = SlimPro::for_platform(&PlatformSpec::xgene2());
    let bogus = OperatingPoint {
        pmd: Millivolts::new(930),
        soc: Millivolts::new(931), // off-grid: rejected
        frequency: serscale_types::Megahertz::new(2400),
    };
    let err = slimpro
        .apply_point(bogus)
        .expect_err("off-grid SoC must be refused");
    assert!(err.contains("5 mV"), "unexpected reason: {err}");
    match slimpro.execute(Command::ReadSensors) {
        Response::Sensors(s) => {
            assert_eq!(
                s.pmd,
                Millivolts::new(930),
                "PMD knob applied before the refusal"
            );
            assert_eq!(s.soc, Millivolts::new(950), "SoC knob kept its prior value");
        }
        other => panic!("{other:?}"),
    }
}
