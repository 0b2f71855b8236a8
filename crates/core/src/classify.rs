//! Failure classification: from hardware fault outcome to software
//! verdict.
//!
//! The paper's taxonomy (§2.1): a bit upset either vanishes (masked),
//! silently corrupts the application output (**SDC**), kills the process
//! while Linux survives (**AppCrash**), or takes the whole machine down
//! (**SysCrash**). The Control-PC tells the crash flavours apart by
//! watchdog behaviour (§3.6): if the board still answers after a timeout,
//! the application crashed; if the connection is gone, the system did.
//!
//! The propagation constants here are the workload-averaged probabilities
//! that a given hardware outcome escalates to each verdict, calibrated so
//! the nominal-voltage failure mix reproduces Figure 8's 980 mV panel
//! (AppCrash 17.9 %, SysCrash 51.6 %, SDC 30.5 % of a 3.45 events/hour
//! total — see `DESIGN.md` §3).

use serscale_stats::SimRng;
use serscale_types::SimDuration;

/// The three abnormal-behaviour classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureClass {
    /// Silent data corruption: output mismatch with no other symptom.
    Sdc,
    /// The benchmark process died or hung; the OS survived.
    AppCrash,
    /// The machine stopped responding entirely (or rebooted itself).
    SysCrash,
}

impl FailureClass {
    /// All classes in Figure 8's plotting order.
    pub const ALL: [FailureClass; 3] = [
        FailureClass::AppCrash,
        FailureClass::SysCrash,
        FailureClass::Sdc,
    ];
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureClass::Sdc => "SDC",
            FailureClass::AppCrash => "AppCrash",
            FailureClass::SysCrash => "SysCrash",
        })
    }
}

/// The verdict of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunVerdict {
    /// Output matched the golden reference; no crash.
    Correct,
    /// Output mismatch. `with_hw_notification` is true when a corrected-
    /// error EDAC event accompanied the corrupted run — the rare deceptive
    /// case of Figure 12.
    Sdc {
        /// Whether a corrected-error notification coincided with the run.
        with_hw_notification: bool,
    },
    /// The application died or hung; the OS answered the watchdog.
    AppCrash,
    /// The machine did not answer; a power cycle was required.
    SysCrash,
}

impl RunVerdict {
    /// The failure class, if the run failed.
    pub fn failure_class(&self) -> Option<FailureClass> {
        match self {
            RunVerdict::Correct => None,
            RunVerdict::Sdc { .. } => Some(FailureClass::Sdc),
            RunVerdict::AppCrash => Some(FailureClass::AppCrash),
            RunVerdict::SysCrash => Some(FailureClass::SysCrash),
        }
    }
}

/// How an uncorrectable or control-path fault escalates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EscalationModel {
    /// P(uncorrectable cache error → system crash).
    pub ue_to_syscrash: f64,
    /// P(uncorrectable cache error → application crash).
    pub ue_to_appcrash: f64,
    /// P(control-logic fault → system crash).
    pub ctrl_to_syscrash: f64,
    /// P(control-logic fault → application crash).
    pub ctrl_to_appcrash: f64,
}

impl EscalationModel {
    /// Calibrated against Figure 8's nominal-voltage mix (see module
    /// docs). The remainders are architectural masking (a UE in a clean or
    /// dead line; a control flip in an idle unit).
    pub fn calibrated() -> Self {
        EscalationModel {
            ue_to_syscrash: 0.50,
            ue_to_appcrash: 0.18,
            ctrl_to_syscrash: 0.55,
            ctrl_to_appcrash: 0.17,
        }
    }

    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or a pair sums past 1.
    pub fn new(
        ue_to_syscrash: f64,
        ue_to_appcrash: f64,
        ctrl_to_syscrash: f64,
        ctrl_to_appcrash: f64,
    ) -> Self {
        for p in [
            ue_to_syscrash,
            ue_to_appcrash,
            ctrl_to_syscrash,
            ctrl_to_appcrash,
        ] {
            assert!((0.0..=1.0).contains(&p), "probabilities must be in [0,1]");
        }
        assert!(
            ue_to_syscrash + ue_to_appcrash <= 1.0,
            "UE escalation exceeds certainty"
        );
        assert!(
            ctrl_to_syscrash + ctrl_to_appcrash <= 1.0,
            "control escalation exceeds certainty"
        );
        EscalationModel {
            ue_to_syscrash,
            ue_to_appcrash,
            ctrl_to_syscrash,
            ctrl_to_appcrash,
        }
    }

    /// Samples the fate of an uncorrectable cache error.
    pub fn escalate_ue(&self, rng: &mut SimRng) -> Option<FailureClass> {
        let u = rng.uniform();
        if u < self.ue_to_syscrash {
            Some(FailureClass::SysCrash)
        } else if u < self.ue_to_syscrash + self.ue_to_appcrash {
            Some(FailureClass::AppCrash)
        } else {
            None
        }
    }

    /// Samples the fate of a control-logic fault.
    pub fn escalate_control(&self, rng: &mut SimRng) -> Option<FailureClass> {
        let u = rng.uniform();
        if u < self.ctrl_to_syscrash {
            Some(FailureClass::SysCrash)
        } else if u < self.ctrl_to_syscrash + self.ctrl_to_appcrash {
            Some(FailureClass::AppCrash)
        } else {
            None
        }
    }
}

/// The Control-PC watchdog of §3.6: response-timeout classification and
/// recovery timing.
///
/// On any unexpected behaviour the Control-PC first tries to reach the
/// board and restart the application (AppCrash path); if the board does
/// not answer, it power-cycles it (SysCrash path). Both recoveries cost
/// wall-clock time during which the beam keeps delivering fluence but no
/// measurements are taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPc {
    /// How long the Control-PC waits before declaring a run unresponsive.
    pub response_timeout: SimDuration,
    /// Time to restart the benchmark after an application crash.
    pub app_restart_time: SimDuration,
    /// Time to power-cycle and reboot Linux after a system crash.
    pub reboot_time: SimDuration,
}

impl ControlPc {
    /// Plausible values for the paper's setup: a 10 s watchdog, ~15 s to
    /// restart a benchmark over SSH, ~120 s for a full power-cycle and
    /// CentOS boot.
    pub fn typical() -> Self {
        ControlPc {
            response_timeout: SimDuration::from_secs(10.0),
            app_restart_time: SimDuration::from_secs(15.0),
            reboot_time: SimDuration::from_secs(120.0),
        }
    }

    /// The wall-clock overhead a verdict adds beyond the run itself.
    pub fn recovery_overhead(&self, verdict: RunVerdict) -> SimDuration {
        match verdict {
            RunVerdict::Correct | RunVerdict::Sdc { .. } => SimDuration::ZERO,
            RunVerdict::AppCrash => self.response_timeout + self.app_restart_time,
            RunVerdict::SysCrash => self.response_timeout + self.reboot_time,
        }
    }
}

impl Default for ControlPc {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_to_class() {
        assert_eq!(RunVerdict::Correct.failure_class(), None);
        assert_eq!(
            RunVerdict::Sdc {
                with_hw_notification: false
            }
            .failure_class(),
            Some(FailureClass::Sdc)
        );
        assert_eq!(
            RunVerdict::AppCrash.failure_class(),
            Some(FailureClass::AppCrash)
        );
        assert_eq!(
            RunVerdict::SysCrash.failure_class(),
            Some(FailureClass::SysCrash)
        );
    }

    #[test]
    fn escalation_frequencies_match_probabilities() {
        let m = EscalationModel::calibrated();
        let mut rng = SimRng::seed_from(5);
        let n = 50_000;
        let mut sys = 0;
        let mut app = 0;
        let mut masked = 0;
        for _ in 0..n {
            match m.escalate_ue(&mut rng) {
                Some(FailureClass::SysCrash) => sys += 1,
                Some(FailureClass::AppCrash) => app += 1,
                Some(FailureClass::Sdc) => unreachable!("UEs are detected, never silent"),
                None => masked += 1,
            }
        }
        let f = |c: i32| f64::from(c) / n as f64;
        assert!((f(sys) - 0.50).abs() < 0.01);
        assert!((f(app) - 0.18).abs() < 0.01);
        assert!((f(masked) - 0.32).abs() < 0.01);
    }

    #[test]
    fn control_escalation_sums_to_one() {
        let m = EscalationModel::calibrated();
        let mut rng = SimRng::seed_from(6);
        let outcomes: Vec<_> = (0..1000).map(|_| m.escalate_control(&mut rng)).collect();
        assert!(outcomes.iter().any(|o| o == &Some(FailureClass::SysCrash)));
        assert!(outcomes.iter().any(|o| o == &Some(FailureClass::AppCrash)));
        assert!(outcomes.iter().any(|o| o.is_none()));
    }

    #[test]
    #[should_panic(expected = "exceeds certainty")]
    fn overcommitted_escalation_rejected() {
        let _ = EscalationModel::new(0.7, 0.5, 0.1, 0.1);
    }

    #[test]
    fn recovery_overheads_ordered() {
        let pc = ControlPc::typical();
        let sdc = pc.recovery_overhead(RunVerdict::Sdc {
            with_hw_notification: false,
        });
        let app = pc.recovery_overhead(RunVerdict::AppCrash);
        let sys = pc.recovery_overhead(RunVerdict::SysCrash);
        assert!(sdc.is_zero());
        assert!(app < sys, "reboot must dominate restart");
        assert!(sys.as_secs() > 100.0);
    }

    /// Table-driven: every verdict variant maps to exactly one failure
    /// class (or none) and to the right recovery-cost bucket — including
    /// both SDC notification flavours, which must classify identically.
    #[test]
    fn verdict_classification_table() {
        let table: &[(RunVerdict, Option<FailureClass>, bool)] = &[
            (RunVerdict::Correct, None, false),
            (
                RunVerdict::Sdc {
                    with_hw_notification: false,
                },
                Some(FailureClass::Sdc),
                false,
            ),
            (
                RunVerdict::Sdc {
                    with_hw_notification: true,
                },
                Some(FailureClass::Sdc),
                false,
            ),
            (RunVerdict::AppCrash, Some(FailureClass::AppCrash), true),
            (RunVerdict::SysCrash, Some(FailureClass::SysCrash), true),
        ];
        let pc = ControlPc::typical();
        for &(verdict, class, costs_recovery) in table {
            assert_eq!(verdict.failure_class(), class, "{verdict:?}");
            assert_eq!(
                !pc.recovery_overhead(verdict).is_zero(),
                costs_recovery,
                "{verdict:?}"
            );
        }
    }

    /// Table-driven: degenerate escalation models behave deterministically
    /// at the probability extremes — an all-zero model masks every fault
    /// (the EDAC-masked path), a certainty model always crashes.
    #[test]
    fn escalation_extremes_table() {
        let never = EscalationModel::new(0.0, 0.0, 0.0, 0.0);
        let always_sys = EscalationModel::new(1.0, 0.0, 1.0, 0.0);
        let always_app = EscalationModel::new(0.0, 1.0, 0.0, 1.0);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..500 {
            assert_eq!(never.escalate_ue(&mut rng), None);
            assert_eq!(never.escalate_control(&mut rng), None);
            assert_eq!(
                always_sys.escalate_ue(&mut rng),
                Some(FailureClass::SysCrash)
            );
            assert_eq!(
                always_sys.escalate_control(&mut rng),
                Some(FailureClass::SysCrash)
            );
            assert_eq!(
                always_app.escalate_ue(&mut rng),
                Some(FailureClass::AppCrash)
            );
            assert_eq!(
                always_app.escalate_control(&mut rng),
                Some(FailureClass::AppCrash)
            );
        }
    }

    #[test]
    fn failure_class_display() {
        assert_eq!(FailureClass::Sdc.to_string(), "SDC");
        assert_eq!(FailureClass::AppCrash.to_string(), "AppCrash");
        assert_eq!(FailureClass::SysCrash.to_string(), "SysCrash");
    }
}
