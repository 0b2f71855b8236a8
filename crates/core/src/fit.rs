//! Failures-in-Time analysis (§6 of the paper): per-class FIT rates at the
//! NYC reference flux, the SDC/notification split, and the memory SER.

use serscale_stats::rate::FitEstimate;
use serscale_stats::CrossSectionEstimate;
use serscale_types::NYC_SEA_LEVEL_FLUX;

use crate::classify::FailureClass;
use crate::session::SessionReport;

/// The per-class FIT breakdown of one session — one voltage group of
/// Figure 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitBreakdown {
    /// Application-crash FIT.
    pub app_crash: FitEstimate,
    /// System-crash FIT.
    pub sys_crash: FitEstimate,
    /// SDC FIT.
    pub sdc: FitEstimate,
    /// Total FIT (all error events pooled — the paper's "Total FIT" bars
    /// are the sum of the three classes, estimated here from the pooled
    /// count so the interval is also meaningful).
    pub total: FitEstimate,
}

/// The SDC FIT split by hardware-notification coincidence — one voltage
/// group of Figures 12/13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcNotificationSplit {
    /// SDCs with no hardware indication whatsoever.
    pub without_notification: FitEstimate,
    /// SDCs accompanied by a corrected-error notification (SECDED
    /// mis-correction aliasing, or a coincident unrelated CE).
    pub with_notification: FitEstimate,
}

/// FIT of one failure class in one session, extrapolated to NYC sea level
/// via Eq. 1 + Eq. 2.
pub fn class_fit(report: &SessionReport, class: FailureClass) -> FitEstimate {
    CrossSectionEstimate::from_events(report.failure_count(class), report.fluence)
        .fit_at(NYC_SEA_LEVEL_FLUX)
}

/// Total error-event FIT of one session.
pub fn total_fit(report: &SessionReport) -> FitEstimate {
    CrossSectionEstimate::from_events(report.error_events(), report.fluence)
        .fit_at(NYC_SEA_LEVEL_FLUX)
}

/// The full Figure 11 breakdown for one session.
pub fn fit_breakdown(report: &SessionReport) -> FitBreakdown {
    FitBreakdown {
        app_crash: class_fit(report, FailureClass::AppCrash),
        sys_crash: class_fit(report, FailureClass::SysCrash),
        sdc: class_fit(report, FailureClass::Sdc),
        total: total_fit(report),
    }
}

/// The Figure 12/13 SDC split for one session.
pub fn sdc_notification_split(report: &SessionReport) -> SdcNotificationSplit {
    let with = report.sdc_with_notification;
    let total = report.failure_count(FailureClass::Sdc);
    let without = total.saturating_sub(with);
    SdcNotificationSplit {
        without_notification: CrossSectionEstimate::from_events(without, report.fluence)
            .fit_at(NYC_SEA_LEVEL_FLUX),
        with_notification: CrossSectionEstimate::from_events(with, report.fluence)
            .fit_at(NYC_SEA_LEVEL_FLUX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignRunOptions;
    use crate::dut::DeviceUnderTest;
    use crate::session::{SessionLimits, TestSession};
    use serscale_soc::platform::OperatingPoint;
    use serscale_soc::PlatformSpec;
    use serscale_stats::SimRng;
    use serscale_types::{Flux, SimDuration};

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    fn session(point: OperatingPoint, minutes: f64, seed: u64) -> SessionReport {
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut s = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
        );
        s.try_run(
            &mut SimRng::seed_from(seed),
            0,
            &mut CampaignRunOptions::with_jobs(1),
            &mut crate::trace::NoopObserver,
        )
        .expect("a run with no journal and no cancel token cannot fail")
    }

    #[test]
    fn total_fit_at_nominal_matches_figure11_scale() {
        // Fig. 11: total FIT ≈ 8.3 at 980 mV. A 300-minute slice has
        // sampling noise; accept a factor-of-two band around it.
        let report = session(xgene2_point("Nominal"), 300.0, 1);
        let fit = total_fit(&report).point.get();
        assert!(fit > 3.0 && fit < 17.0, "total FIT = {fit}");
    }

    #[test]
    fn total_fit_explodes_at_vmin() {
        // Fig. 11: 8.31 → 54.83 total FIT (6.6×) from 980 mV to 920 mV.
        let nominal = session(xgene2_point("Nominal"), 400.0, 2);
        let vmin = session(xgene2_point("Vmin"), 400.0, 2);
        let ratio = total_fit(&vmin).point.get() / total_fit(&nominal).point.get();
        assert!(ratio > 3.0, "ratio = {ratio}");
    }

    #[test]
    fn sdc_fit_dominates_at_vmin() {
        let vmin = session(xgene2_point("Vmin"), 400.0, 3);
        let breakdown = fit_breakdown(&vmin);
        assert!(breakdown.sdc.point.get() > breakdown.sys_crash.point.get());
        assert!(breakdown.sdc.point.get() > breakdown.app_crash.point.get());
        // Fig. 11: SDC FIT ≈ 41 at Vmin.
        let sdc = breakdown.sdc.point.get();
        assert!(sdc > 20.0 && sdc < 75.0, "SDC FIT = {sdc}");
    }

    #[test]
    fn breakdown_classes_sum_to_total() {
        let report = session(xgene2_point("Safe"), 300.0, 4);
        let b = fit_breakdown(&report);
        let sum = b.app_crash.point.get() + b.sys_crash.point.get() + b.sdc.point.get();
        assert!((sum - b.total.point.get()).abs() < 1e-9);
    }

    #[test]
    fn notification_split_partitions_sdcs() {
        let report = session(xgene2_point("Vmin"), 300.0, 5);
        let split = sdc_notification_split(&report);
        let total_sdc = class_fit(&report, FailureClass::Sdc).point.get();
        let parts = split.without_notification.point.get() + split.with_notification.point.get();
        assert!((parts - total_sdc).abs() < 1e-9);
        // Fig. 12: the unnotified share dominates at every voltage.
        assert!(split.without_notification.point.get() >= split.with_notification.point.get());
    }

    #[test]
    fn zero_event_classes_have_zero_point_fit() {
        // A tiny quiet session may record no app crashes; its FIT point
        // estimate must be exactly zero with a positive upper bound.
        let report = session(xgene2_point("Nominal"), 3.0, 6);
        let fit = class_fit(&report, FailureClass::AppCrash);
        if report.failure_count(FailureClass::AppCrash) == 0 {
            assert_eq!(fit.point.get(), 0.0);
            assert!(fit.upper.get() > 0.0);
        }
    }
}
