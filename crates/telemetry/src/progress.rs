//! A live progress reporter for campaign runs.
//!
//! When enabled, the reporter emits a stderr status line at a bounded
//! cadence: trials completed, the current upset-rate estimate (the σ̂
//! proxy the paper's Table 5 is built from), simulated progress and a
//! wall-clock ETA. Two styles exist:
//!
//! * [`ProgressMode::Interactive`] rewrites a single line in place with
//!   `\r` + erase — the right thing on a live terminal.
//! * [`ProgressMode::Plain`] prints a whole line at a slower cadence with
//!   no control characters — the fallback for non-TTY stderr, `CI=1` and
//!   `NO_COLOR` environments, where carriage-return rewrites turn logs
//!   into soup.
//!
//! The reporter is **disabled by default** and stays off in golden runs:
//! stdout artifacts are diffed byte-for-byte, and even stderr noise makes
//! hermetic logs harder to compare. The `repro` binary picks the mode
//! from the environment and honors an explicit `--no-progress`.
//!
//! Like everything in this crate the reporter is observe-only — it
//! consumes numbers the observer already recorded and can never feed
//! anything back into the simulation. The same accounting backs the
//! monitoring plane's `/progress` endpoint via [`Progress::snapshot`].

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Minimum wall time between emitted lines in interactive mode.
const EMIT_EVERY: Duration = Duration::from_millis(250);

/// Minimum wall time between emitted lines in plain (non-TTY) mode —
/// slower, because every emission is a fresh log line.
const EMIT_EVERY_PLAIN: Duration = Duration::from_secs(2);

/// How an enabled reporter writes to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Rewrite one status line in place (`\r` + erase). For live TTYs.
    #[default]
    Interactive,
    /// Append plain lines at a slow cadence. For non-TTY stderr, `CI=1`
    /// and `NO_COLOR` environments.
    Plain,
}

/// A point-in-time view of the run's progress — the numbers behind both
/// the stderr line and the `/progress` monitoring endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Operating-point label of the current session (empty before the
    /// first session starts).
    pub voltage: String,
    /// Trials completed so far, across sessions.
    pub trials: u64,
    /// Upsets observed in the current session.
    pub session_upsets: u64,
    /// The σ̂ proxy: current-session upsets per simulated minute.
    pub upsets_per_minute: f64,
    /// Simulated seconds covered so far, across sessions.
    pub sim_seconds: f64,
    /// Total simulated seconds the run intends to cover, if declared.
    pub target_sim_seconds: Option<f64>,
    /// Completed fraction in `[0, 1]`, if a target is known.
    pub fraction: Option<f64>,
    /// Host seconds since the reporter was built.
    pub elapsed_seconds: f64,
    /// Estimated host seconds to completion. Always finite and
    /// nonnegative when present — shrinking targets clamp rather than
    /// going negative.
    pub eta_seconds: Option<f64>,
    /// Convergence-plane cells resolved at the target precision, if the
    /// convergence layer has reported.
    pub cells_resolved: Option<u64>,
    /// Total convergence-plane cells, if reported.
    pub cells_total: Option<u64>,
    /// The widest-CI cell's name (`"920mV@2.4 GHz PMD/L1D"`), when some
    /// cell has events.
    pub widest_cell: Option<String>,
    /// That cell's relative CI half-width, when finite.
    pub widest_rel_halfwidth: Option<f64>,
    /// Projected additional live sim-seconds for that cell to reach the
    /// precision target. Clamped like `eta_seconds`: finite and
    /// nonnegative when present.
    pub widest_projected_sim_seconds: Option<f64>,
}

impl ProgressSnapshot {
    /// The snapshot as one JSON object (hand-rolled like the rest of the
    /// crate; verified by [`crate::json::parse`] in tests).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"voltage\":{}",
            crate::json::escape(&self.voltage)
        ));
        out.push_str(&format!(",\"trials\":{}", self.trials));
        out.push_str(&format!(",\"session_upsets\":{}", self.session_upsets));
        out.push_str(&format!(
            ",\"upsets_per_minute\":{}",
            crate::json::number(self.upsets_per_minute)
        ));
        out.push_str(&format!(
            ",\"sim_seconds\":{}",
            crate::json::number(self.sim_seconds)
        ));
        match self.target_sim_seconds {
            Some(t) => out.push_str(&format!(
                ",\"target_sim_seconds\":{}",
                crate::json::number(t)
            )),
            None => out.push_str(",\"target_sim_seconds\":null"),
        }
        match self.fraction {
            Some(f) => out.push_str(&format!(",\"fraction\":{}", crate::json::number(f))),
            None => out.push_str(",\"fraction\":null"),
        }
        out.push_str(&format!(
            ",\"elapsed_seconds\":{}",
            crate::json::number(self.elapsed_seconds)
        ));
        match self.eta_seconds {
            Some(e) => out.push_str(&format!(",\"eta_seconds\":{}", crate::json::number(e))),
            None => out.push_str(",\"eta_seconds\":null"),
        }
        match self.cells_resolved {
            Some(n) => out.push_str(&format!(",\"cells_resolved\":{n}")),
            None => out.push_str(",\"cells_resolved\":null"),
        }
        match self.cells_total {
            Some(n) => out.push_str(&format!(",\"cells_total\":{n}")),
            None => out.push_str(",\"cells_total\":null"),
        }
        match &self.widest_cell {
            Some(name) => out.push_str(&format!(",\"widest_cell\":{}", crate::json::escape(name))),
            None => out.push_str(",\"widest_cell\":null"),
        }
        match self.widest_rel_halfwidth {
            Some(w) => out.push_str(&format!(
                ",\"widest_rel_halfwidth\":{}",
                crate::json::number(w)
            )),
            None => out.push_str(",\"widest_rel_halfwidth\":null"),
        }
        match self.widest_projected_sim_seconds {
            Some(s) => out.push_str(&format!(
                ",\"widest_projected_sim_seconds\":{}",
                crate::json::number(s)
            )),
            None => out.push_str(",\"widest_projected_sim_seconds\":null"),
        }
        out.push('}');
        out
    }
}

/// Accumulates run state and periodically prints it to stderr.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    mode: ProgressMode,
    started: Instant,
    last_emit: Option<Instant>,
    /// Total simulated seconds the run intends to cover, if known
    /// (drives percent-done and the ETA).
    target_sim_secs: Option<f64>,
    voltage: String,
    trials: u64,
    upsets: u64,
    sim_secs: f64,
    emitted: bool,
    /// Latest convergence headline, if the convergence layer reported:
    /// `(resolved, total)` cells plus the widest-CI cell's name,
    /// half-width and projected sim-seconds to the precision target.
    convergence: Option<ConvergenceHeadline>,
}

/// The convergence plane's contribution to the progress line.
#[derive(Debug, Clone)]
struct ConvergenceHeadline {
    resolved: u64,
    total: u64,
    widest_cell: Option<String>,
    widest_rel_halfwidth: Option<f64>,
    widest_projected_sim_seconds: Option<f64>,
}

impl Progress {
    /// A reporter; pass `enabled = false` for a silent no-op collector.
    /// Defaults to [`ProgressMode::Interactive`].
    pub fn new(enabled: bool) -> Self {
        Self::with_mode(enabled, ProgressMode::Interactive)
    }

    /// A reporter with an explicit output style.
    pub fn with_mode(enabled: bool, mode: ProgressMode) -> Self {
        Progress {
            enabled,
            mode,
            started: Instant::now(),
            last_emit: None,
            target_sim_secs: None,
            voltage: String::new(),
            trials: 0,
            upsets: 0,
            sim_secs: 0.0,
            emitted: false,
            convergence: None,
        }
    }

    /// Declares the run's total simulated duration, enabling ETA output.
    pub fn set_target_sim_secs(&mut self, secs: f64) {
        if secs.is_finite() && secs > 0.0 {
            self.target_sim_secs = Some(secs);
        }
    }

    /// A session at `voltage` began.
    pub fn session_started(&mut self, voltage: &str) {
        self.voltage = voltage.to_string();
        self.maybe_emit(false);
    }

    /// One trial finished; `sim_secs` is cumulative across sessions and
    /// `session_upsets` counts the current session only.
    pub fn trial_done(&mut self, sim_secs: f64, session_upsets: u64) {
        self.sim_secs = sim_secs;
        self.trials += 1;
        self.upsets = self.upsets.max(session_upsets);
        self.maybe_emit(false);
    }

    /// Publishes the convergence plane's headline: resolved/total cells
    /// plus the widest-CI cell as `(name, rel_halfwidth,
    /// projected_sim_seconds)`. Non-finite or negative half-widths and
    /// projections clamp away (the ETA convention), so the line and the
    /// `/progress` document never show NaN, infinity or negative time.
    pub fn set_convergence(
        &mut self,
        resolved: u64,
        total: u64,
        widest: Option<(String, f64, Option<f64>)>,
    ) {
        let clamp = |x: f64| (x.is_finite() && x >= 0.0).then_some(x);
        let (widest_cell, widest_rel_halfwidth, widest_projected_sim_seconds) = match widest {
            Some((name, rel, projected)) => (Some(name), clamp(rel), projected.and_then(clamp)),
            None => (None, None, None),
        };
        self.convergence = Some(ConvergenceHeadline {
            resolved,
            total,
            widest_cell,
            widest_rel_halfwidth,
            widest_projected_sim_seconds,
        });
    }

    /// A session finished; `completed_sim_secs` is the cumulative total.
    pub fn session_ended(&mut self, completed_sim_secs: f64) {
        self.sim_secs = completed_sim_secs;
        self.upsets = 0;
        self.maybe_emit(true);
    }

    /// Prints a terminal newline if any in-place progress line was
    /// emitted, so the next stderr write starts clean. Call once at end
    /// of run. Plain mode needs no cleanup — its lines are complete.
    pub fn finish(&mut self) {
        if self.enabled && self.emitted && self.mode == ProgressMode::Interactive {
            eprintln!();
            self.emitted = false;
        }
    }

    /// The current progress numbers, with the ETA math shared by the
    /// stderr line and the `/progress` endpoint. The ETA is clamped to
    /// finite, nonnegative values: a target that shrinks below the work
    /// already done reads as 100% with no ETA, never a negative one.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        let minutes = self.sim_secs / 60.0;
        let rate = if minutes > 0.0 {
            self.upsets as f64 / minutes
        } else {
            0.0
        };
        let fraction = self
            .target_sim_secs
            .map(|target| (self.sim_secs / target).clamp(0.0, 1.0));
        let eta_seconds = fraction.and_then(|frac| {
            if frac > 0.0 && frac < 1.0 && elapsed > 0.5 {
                let eta = elapsed / frac - elapsed;
                (eta.is_finite() && eta >= 0.0).then_some(eta)
            } else {
                None
            }
        });
        let convergence = self.convergence.as_ref();
        ProgressSnapshot {
            voltage: self.voltage.clone(),
            trials: self.trials,
            session_upsets: self.upsets,
            upsets_per_minute: rate,
            sim_seconds: self.sim_secs,
            target_sim_seconds: self.target_sim_secs,
            fraction,
            elapsed_seconds: elapsed,
            eta_seconds,
            cells_resolved: convergence.map(|c| c.resolved),
            cells_total: convergence.map(|c| c.total),
            widest_cell: convergence.and_then(|c| c.widest_cell.clone()),
            widest_rel_halfwidth: convergence.and_then(|c| c.widest_rel_halfwidth),
            widest_projected_sim_seconds: convergence.and_then(|c| c.widest_projected_sim_seconds),
        }
    }

    /// The status line as a string (also what gets printed).
    pub fn line(&self) -> String {
        let snap = self.snapshot();
        let mut line = format!(
            "[telemetry] {} | {} trials | sigma~{:.2} upsets/min | {:.0}s sim",
            if snap.voltage.is_empty() {
                "--"
            } else {
                &snap.voltage
            },
            snap.trials,
            snap.upsets_per_minute,
            snap.sim_seconds,
        );
        if let Some(frac) = snap.fraction {
            line.push_str(&format!(" ({:.0}%)", frac * 100.0));
        }
        if let Some(eta) = snap.eta_seconds {
            line.push_str(&format!(" | ETA {eta:.0}s"));
        }
        if let (Some(resolved), Some(total)) = (snap.cells_resolved, snap.cells_total) {
            line.push_str(&format!(" | CI {resolved}/{total} cells"));
            if let Some(name) = &snap.widest_cell {
                line.push_str(&format!(" (widest {name}"));
                if let Some(rel) = snap.widest_rel_halfwidth {
                    line.push_str(&format!(" +-{:.0}%", rel * 100.0));
                }
                if let Some(secs) = snap.widest_projected_sim_seconds {
                    line.push_str(&format!(", ~{secs:.0}s sim to target"));
                }
                line.push(')');
            }
        }
        line
    }

    fn maybe_emit(&mut self, force: bool) {
        if !self.enabled {
            return;
        }
        let cadence = match self.mode {
            ProgressMode::Interactive => EMIT_EVERY,
            ProgressMode::Plain => EMIT_EVERY_PLAIN,
        };
        let now = Instant::now();
        let due = match self.last_emit {
            None => true,
            Some(last) => now.duration_since(last) >= cadence,
        };
        if !(due || force) {
            return;
        }
        self.last_emit = Some(now);
        self.emitted = true;
        match self.mode {
            ProgressMode::Interactive => {
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r\x1b[2K{}", self.line());
                let _ = err.flush();
            }
            ProgressMode::Plain => {
                eprintln!("{}", self.line());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};

    #[test]
    fn disabled_reporter_collects_but_never_prints() {
        let mut p = Progress::new(false);
        p.session_started("920mV@2.4 GHz");
        p.trial_done(60.0, 3);
        assert!(!p.emitted, "disabled reporter must not write");
        assert!(p.line().contains("920mV@2.4 GHz"));
        assert!(p.line().contains("1 trials"));
        assert!(p.line().contains("sigma~3.00"), "{}", p.line());
    }

    #[test]
    fn eta_appears_once_a_target_is_known() {
        let mut p = Progress::new(false);
        p.set_target_sim_secs(1200.0);
        std::thread::sleep(Duration::from_millis(600));
        p.trial_done(600.0, 0);
        let line = p.line();
        assert!(line.contains("(50%)"), "{line}");
        assert!(line.contains("ETA"), "{line}");
    }

    #[test]
    fn nonsense_targets_are_ignored() {
        let mut p = Progress::new(false);
        p.set_target_sim_secs(f64::NAN);
        p.set_target_sim_secs(-3.0);
        assert!(p.target_sim_secs.is_none());
    }

    /// A target that shrinks below the work already done must read as
    /// 100% complete — the ETA disappears and never goes negative or
    /// non-finite, and the line stays printable.
    #[test]
    fn shrinking_target_never_yields_negative_or_nonfinite_eta() {
        let mut p = Progress::with_mode(false, ProgressMode::Plain);
        p.set_target_sim_secs(10_000.0);
        std::thread::sleep(Duration::from_millis(600));
        p.trial_done(600.0, 1);
        assert!(p.snapshot().eta_seconds.is_some());
        // The run is re-targeted below what is already complete.
        p.set_target_sim_secs(300.0);
        let snap = p.snapshot();
        assert_eq!(snap.fraction, Some(1.0));
        assert_eq!(snap.eta_seconds, None, "{snap:?}");
        let line = p.line();
        assert!(line.contains("(100%)"), "{line}");
        assert!(!line.contains("ETA"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        // And with pathological zero-elapsed fractions the ETA guard
        // still only admits finite nonnegative values.
        for target in [f64::MIN_POSITIVE, 1e-300, 600.0] {
            p.set_target_sim_secs(target);
            if let Some(eta) = p.snapshot().eta_seconds {
                assert!(eta.is_finite() && eta >= 0.0, "target {target}: {eta}");
            }
        }
    }

    #[test]
    fn plain_mode_lines_carry_no_control_characters() {
        let mut p = Progress::with_mode(false, ProgressMode::Plain);
        p.set_convergence(
            3,
            14,
            Some(("920mV@2.4 GHz PMD/L1D".to_string(), 0.42, Some(1800.0))),
        );
        let line = p.line();
        assert!(!line.contains('\r') && !line.contains('\x1b'), "{line}");
        assert!(line.is_ascii(), "{line}");
    }

    /// Satellite: the convergence headline obeys the same clamping
    /// convention as the ETA — a zero-rate cell's infinite half-width
    /// and projection must never surface as NaN/inf/negative.
    #[test]
    fn convergence_headline_clamps_nonfinite_projections() {
        let mut p = Progress::with_mode(false, ProgressMode::Plain);
        p.set_convergence(
            0,
            14,
            Some((
                "920mV@2.4 GHz SoC/L3".to_string(),
                f64::INFINITY,
                Some(f64::NAN),
            )),
        );
        let snap = p.snapshot();
        assert_eq!(snap.cells_resolved, Some(0));
        assert_eq!(snap.cells_total, Some(14));
        assert_eq!(snap.widest_cell.as_deref(), Some("920mV@2.4 GHz SoC/L3"));
        assert_eq!(snap.widest_rel_halfwidth, None);
        assert_eq!(snap.widest_projected_sim_seconds, None);
        let line = p.line();
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        // Negative projections clamp too.
        p.set_convergence(1, 14, Some(("x".to_string(), -0.2, Some(-5.0))));
        let snap = p.snapshot();
        assert_eq!(snap.widest_rel_halfwidth, None);
        assert_eq!(snap.widest_projected_sim_seconds, None);
    }

    #[test]
    fn convergence_headline_shows_in_line_and_json() {
        let mut p = Progress::with_mode(false, ProgressMode::Plain);
        p.set_convergence(
            5,
            14,
            Some(("790mV@900 MHz PMD/L2".to_string(), 0.25, Some(120.0))),
        );
        let line = p.line();
        assert!(line.contains("CI 5/14 cells"), "{line}");
        assert!(line.contains("790mV@900 MHz PMD/L2"), "{line}");
        assert!(line.contains("+-25%"), "{line}");
        let doc = json::parse(&p.snapshot().to_json()).expect("parses");
        assert_eq!(
            doc.get("cells_resolved").and_then(JsonValue::as_f64),
            Some(5.0)
        );
        assert_eq!(
            doc.get("widest_cell").and_then(JsonValue::as_str),
            Some("790mV@900 MHz PMD/L2")
        );
        assert_eq!(
            doc.get("widest_projected_sim_seconds")
                .and_then(JsonValue::as_f64),
            Some(120.0)
        );
    }

    #[test]
    fn snapshot_serializes_as_valid_json() {
        let mut p = Progress::new(false);
        p.set_target_sim_secs(1200.0);
        p.session_started("980mV@2.4 GHz");
        p.trial_done(240.0, 2);
        let doc = json::parse(&p.snapshot().to_json()).expect("progress JSON parses");
        assert_eq!(
            doc.get("voltage").and_then(JsonValue::as_str),
            Some("980mV@2.4 GHz")
        );
        assert_eq!(doc.get("trials").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            doc.get("target_sim_seconds").and_then(JsonValue::as_f64),
            Some(1200.0)
        );
        assert_eq!(doc.get("fraction").and_then(JsonValue::as_f64), Some(0.2));
    }
}
