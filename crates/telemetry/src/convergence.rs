//! The statistical convergence plane: live per-operating-point
//! Garwood-CI estimators over the campaign's (voltage domain, array)
//! cells, plus the offline replay that reproduces them from a journal.
//!
//! The paper's deliverable is not trials per second but *converged
//! estimates*: event rates per array and voltage domain at each operating
//! point, with defensible 95 % confidence intervals (§3.5's Garwood
//! convention). This module tracks exactly those quantities while a
//! campaign runs — event counts by outcome class (masked/DUE/SDC),
//! live-time-normalized rates, Garwood bounds, the relative half-width
//! the "100 events ⇒ ±20 %" rule is phrased in, a resolved-at-target
//! flag, and projected events/trials/time to the target precision.
//!
//! ## Outcome classes
//!
//! EDAC records classify against the trial verdict they occurred in:
//!
//! * `CE` (corrected) → **masked** — the hardware scrubbed it.
//! * `UE` inside a trial whose verdict is SDC → **sdc** — the
//!   uncorrectable escaped into wrong output.
//! * any other `UE` → **due** — detected-uncorrectable; the run crashed
//!   or the error never reached architectural state.
//!
//! ## The determinism contract
//!
//! The tracker is driven from the engine's *canonical merge* callbacks
//! ([`serscale_core::trace::SessionObserver`]), which fire single-threaded
//! in trial order at any `--jobs`. All of its state is integer counts
//! plus one `f64` live-time accumulator per operating point, summed in
//! session order — the same order the journal records.
//! [`ConvergenceTracker::replay`] walks `journal.jsonl` through the
//! identical arithmetic (`clock += wall_s` per trial, including
//! quarantined ones, which advance the clock but carry no events), so
//! the offline snapshot is **bit-identical** to the live endpoint's final
//! one. `tests/convergence_live.rs` enforces this end to end, and the
//! `streaming-garwood` verify oracle pins the streaming counts to
//! `serscale-stats`' batch Garwood implementation.

use std::collections::BTreeMap;
use std::path::Path;

use serscale_core::classify::RunVerdict;
use serscale_core::journal::{journal_path, read_journal, Record};
use serscale_soc::edac::EdacSeverity;
use serscale_soc::platform::OperatingPoint;
use serscale_stats::ci::{poisson_ci, poisson_relative_uncertainty};
use serscale_types::{ArrayKind, SimInstant, VoltageDomain};

use crate::json;

/// Confidence level of every interval the plane reports.
pub const CI_LEVEL: f64 = 0.95;

/// A cell counts as *resolved* once its relative CI half-width drops to
/// this target — ±10 %, i.e. roughly the paper's "100 events" rule
/// squared to four hundred events.
pub const TARGET_REL_HALFWIDTH: f64 = 0.10;

/// Upper bound of the events-to-target search; the ±10 % target needs
/// about 385 events, so this is pure runaway protection.
const EVENTS_SEARCH_CAP: u64 = 1_000_000;

/// Event counts of one (voltage domain, array) cell, by outcome class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Corrected (CE) events: masked by hardware.
    pub masked: u64,
    /// Uncorrected events in non-SDC trials: detected, not silent.
    pub due: u64,
    /// Uncorrected events in SDC trials: silently corrupted output.
    pub sdc: u64,
}

impl CellCounts {
    /// Total events in the cell.
    pub fn events(self) -> u64 {
        self.masked + self.due + self.sdc
    }
}

/// One operating point's accumulated state.
#[derive(Debug, Clone)]
struct PointState {
    point: OperatingPoint,
    voltage: String,
    sessions: u64,
    trials: u64,
    /// Beam-on simulated seconds, accumulated `+=` in session order —
    /// the exact f64 sequence the live session clock produces.
    live_secs: f64,
    cells: BTreeMap<ArrayKind, CellCounts>,
}

impl PointState {
    fn new(point: OperatingPoint) -> Self {
        let mut cells = BTreeMap::new();
        for array in ArrayKind::ALL {
            cells.insert(array, CellCounts::default());
        }
        PointState {
            point,
            voltage: point.label(),
            sessions: 0,
            trials: 0,
            live_secs: 0.0,
            cells,
        }
    }
}

/// Streams the campaign's callback data into per-cell counts and
/// live-time, and renders [`ConvergenceSnapshot`]s on demand.
///
/// Drive it either live (the [`TelemetryObserver`](crate::observer::TelemetryObserver)
/// calls [`session_start`](Self::session_start) / [`run`](Self::run) /
/// [`edac`](Self::edac) / [`session_end`](Self::session_end) in callback
/// order) or offline via [`replay`](Self::replay).
#[derive(Debug, Default)]
pub struct ConvergenceTracker {
    points: Vec<PointState>,
    current: Option<usize>,
    /// The verdict of the trial currently being absorbed; `on_run` fires
    /// before that trial's EDAC records, so this classifies them.
    current_verdict: Option<RunVerdict>,
}

impl ConvergenceTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A session at `point` began. Points are keyed by their full
    /// (PMD mV, SoC mV, MHz) setting and kept in first-seen order — the
    /// same order a journal replays them in.
    pub fn session_start(&mut self, point: OperatingPoint) {
        let index = match self.points.iter().position(|p| p.point == point) {
            Some(index) => index,
            None => {
                self.points.push(PointState::new(point));
                self.points.len() - 1
            }
        };
        self.points[index].sessions += 1;
        self.current = Some(index);
        self.current_verdict = None;
    }

    /// One trial was absorbed with `verdict`; its EDAC records follow.
    pub fn run(&mut self, verdict: RunVerdict) {
        let Some(index) = self.current else { return };
        self.points[index].trials += 1;
        self.current_verdict = Some(verdict);
    }

    /// One EDAC record landed in the current trial.
    pub fn edac(&mut self, array: ArrayKind, severity: EdacSeverity) {
        let Some(index) = self.current else { return };
        let cell = self.points[index].cells.entry(array).or_default();
        match severity {
            EdacSeverity::Corrected => cell.masked += 1,
            EdacSeverity::Uncorrected => {
                if matches!(self.current_verdict, Some(RunVerdict::Sdc { .. })) {
                    cell.sdc += 1;
                } else {
                    cell.due += 1;
                }
            }
        }
    }

    /// The current session ended at simulated instant `at` (the session
    /// clock, i.e. total beam-on wall time including quarantined trials).
    pub fn session_end(&mut self, at: SimInstant) {
        if let Some(index) = self.current.take() {
            self.points[index].live_secs += at.as_secs();
        }
        self.current_verdict = None;
    }

    /// Replays `dir`'s `journal.jsonl` through the same estimator
    /// arithmetic the live tracker runs: the session clock advances by
    /// every trial's `wall_s` (quarantined ones included), while only
    /// non-quarantined trials contribute runs and events — exactly what
    /// the live observer saw. The resulting snapshot is bit-identical to
    /// the live endpoint's final one for the same journal.
    ///
    /// # Errors
    ///
    /// Propagates I/O and journal-parse failures.
    pub fn replay(dir: &Path) -> std::io::Result<Self> {
        let mut tracker = ConvergenceTracker::new();
        let mut clock = SimInstant::EPOCH;
        for record in read_journal(&journal_path(dir))? {
            match record {
                Record::Campaign { .. } => {}
                Record::SessionStart { point, .. } => {
                    clock = SimInstant::EPOCH;
                    tracker.session_start(point);
                }
                Record::Trial { execution, .. } => {
                    clock += execution.outcome.wall_time;
                    if !execution.quarantined {
                        tracker.run(execution.outcome.verdict);
                        for record in &execution.outcome.edac {
                            tracker.edac(record.array, record.severity);
                        }
                    }
                }
                Record::SessionEnd { .. } => {
                    tracker.session_end(clock);
                    clock = SimInstant::EPOCH;
                }
            }
        }
        Ok(tracker)
    }

    /// The current estimates, computed fresh from the streamed counts.
    pub fn snapshot(&self) -> ConvergenceSnapshot {
        let mut points = Vec::with_capacity(self.points.len());
        for state in &self.points {
            let cells = state
                .cells
                .iter()
                .map(|(&array, &counts)| {
                    estimate_cell(array, counts, state.live_secs, state.trials)
                })
                .collect();
            points.push(PointEstimate {
                voltage: state.voltage.clone(),
                pmd_mv: state.point.pmd.get(),
                soc_mv: state.point.soc.get(),
                freq_mhz: state.point.frequency.get(),
                sessions: state.sessions,
                trials: state.trials,
                live_seconds: state.live_secs,
                cells,
            });
        }
        ConvergenceSnapshot {
            ci_level: CI_LEVEL,
            target_rel_halfwidth: TARGET_REL_HALFWIDTH,
            points,
        }
    }
}

/// Estimates one cell from its counts and the point's live time.
fn estimate_cell(
    array: ArrayKind,
    counts: CellCounts,
    live_secs: f64,
    trials: u64,
) -> CellEstimate {
    let events = counts.events();
    let hours = live_secs / 3600.0;
    let (rate, ci_lower, ci_upper) = if live_secs > 0.0 {
        let (lo, hi) = poisson_ci(events, CI_LEVEL);
        (events as f64 / hours, lo / hours, hi / hours)
    } else {
        (0.0, 0.0, 0.0)
    };
    let rel_halfwidth = poisson_relative_uncertainty(events);
    let resolved = rel_halfwidth <= TARGET_REL_HALFWIDTH;
    let events_to_target = events_to_target(events);
    // Zero-rate cells project to infinity; the clamp (the progress
    // ETA convention) turns that into an honest "unknown" instead of
    // NaN or a negative figure.
    let clamp = |x: f64| (x.is_finite() && x >= 0.0).then_some(x);
    let (projected_trials, projected_seconds) = match events_to_target {
        Some(k) => {
            let extra = k.saturating_sub(events) as f64;
            (
                clamp(extra * trials as f64 / events as f64),
                clamp(extra * live_secs / events as f64),
            )
        }
        None => (None, None),
    };
    CellEstimate {
        domain: array.voltage_domain(),
        array,
        masked: counts.masked,
        due: counts.due,
        sdc: counts.sdc,
        events,
        rate_per_hour: rate,
        ci_lower_per_hour: ci_lower,
        ci_upper_per_hour: ci_upper,
        rel_halfwidth,
        resolved,
        events_to_target,
        projected_trials,
        projected_seconds,
    }
}

/// The smallest event count at or above `events` whose relative
/// half-width meets [`TARGET_REL_HALFWIDTH`], or `None` if the search
/// cap is hit (it is not, for any sane target).
///
/// The half-width is monotone nonincreasing in the count, so the
/// unconditional answer for a below-target cell is a process-wide
/// constant (~385 events at ±10 %) computed once; cells already past
/// it confirm their own count directly. Snapshots are taken at every
/// session end and on every `/convergence` scrape, so this must not
/// cost a quantile search per cell.
fn events_to_target(events: u64) -> Option<u64> {
    static TARGET_K: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    let target = *TARGET_K.get_or_init(|| search_to_target(1));
    let floor = events.max(1);
    match target {
        Some(k) if floor <= k => Some(k),
        _ => search_to_target(floor),
    }
}

/// Linear search upward from `k` for the first count meeting the
/// target — the reference definition `events_to_target` memoizes.
fn search_to_target(mut k: u64) -> Option<u64> {
    while k <= EVENTS_SEARCH_CAP {
        if poisson_relative_uncertainty(k) <= TARGET_REL_HALFWIDTH {
            return Some(k);
        }
        k += 1;
    }
    None
}

/// One cell's full estimate, as the `/convergence` endpoint reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEstimate {
    /// The voltage domain powering the array.
    pub domain: VoltageDomain,
    /// The SRAM array.
    pub array: ArrayKind,
    /// Corrected (masked) events.
    pub masked: u64,
    /// Detected-uncorrectable events.
    pub due: u64,
    /// Silent-corruption events.
    pub sdc: u64,
    /// Total events (`masked + due + sdc`).
    pub events: u64,
    /// Events per live hour (0 before any live time accumulates).
    pub rate_per_hour: f64,
    /// Garwood lower bound on the hourly rate.
    pub ci_lower_per_hour: f64,
    /// Garwood upper bound on the hourly rate.
    pub ci_upper_per_hour: f64,
    /// Relative CI half-width (∞ at zero events).
    pub rel_halfwidth: f64,
    /// Whether the half-width meets [`TARGET_REL_HALFWIDTH`].
    pub resolved: bool,
    /// Total events needed to meet the target.
    pub events_to_target: Option<u64>,
    /// Additional trials projected to reach the target (clamped finite
    /// non-negative; `None` while the cell has no events).
    pub projected_trials: Option<f64>,
    /// Additional live seconds projected to reach the target (same
    /// clamping).
    pub projected_seconds: Option<f64>,
}

impl CellEstimate {
    /// `"PMD/L1D"` — the cell's display name within a point.
    pub fn label(&self) -> String {
        format!("{}/{}", self.domain, self.array)
    }
}

/// One operating point's estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEstimate {
    /// The operating-point label, e.g. `"920mV@2.4 GHz"`.
    pub voltage: String,
    /// PMD rail setting, millivolts.
    pub pmd_mv: u32,
    /// SoC rail setting, millivolts.
    pub soc_mv: u32,
    /// Core frequency, megahertz.
    pub freq_mhz: u32,
    /// Sessions observed at this point.
    pub sessions: u64,
    /// Trials absorbed at this point (quarantined ones excluded).
    pub trials: u64,
    /// Beam-on simulated seconds accumulated at this point.
    pub live_seconds: f64,
    /// Per-(domain, array) cells, in [`ArrayKind`] order.
    pub cells: Vec<CellEstimate>,
}

/// A full convergence snapshot: every point, every cell, plus the
/// headline resolved/total tally and the widest-CI cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSnapshot {
    /// Confidence level of every interval ([`CI_LEVEL`]).
    pub ci_level: f64,
    /// The resolution target ([`TARGET_REL_HALFWIDTH`]).
    pub target_rel_halfwidth: f64,
    /// Per-operating-point estimates, in first-seen order.
    pub points: Vec<PointEstimate>,
}

impl ConvergenceSnapshot {
    /// Total cells across all points.
    pub fn cells_total(&self) -> usize {
        self.points.iter().map(|p| p.cells.len()).sum()
    }

    /// Cells whose half-width meets the target.
    pub fn cells_resolved(&self) -> usize {
        self.points
            .iter()
            .flat_map(|p| &p.cells)
            .filter(|c| c.resolved)
            .count()
    }

    /// The cell with the widest *finite* relative half-width — the most
    /// informative place to spend the next trial. Cells with zero events
    /// have no estimate at all yet, so they do not compete; `None` when
    /// no cell anywhere has events.
    pub fn widest(&self) -> Option<(&PointEstimate, &CellEstimate)> {
        let mut best: Option<(&PointEstimate, &CellEstimate)> = None;
        for point in &self.points {
            for cell in &point.cells {
                if cell.events == 0 {
                    continue;
                }
                if best.is_none_or(|(_, b)| cell.rel_halfwidth > b.rel_halfwidth) {
                    best = Some((point, cell));
                }
            }
        }
        best
    }

    /// The snapshot as one JSON document, ending in a newline. The
    /// rendering is byte-stable: identical snapshots produce identical
    /// bytes, so the live endpoint's final body, the journal replay and
    /// the CI reconciler can be compared with `cmp`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"ci_level\":{}", json::number(self.ci_level)));
        out.push_str(&format!(
            ",\"target_rel_halfwidth\":{}",
            json::number(self.target_rel_halfwidth)
        ));
        out.push_str(&format!(",\"cells_total\":{}", self.cells_total()));
        out.push_str(&format!(",\"cells_resolved\":{}", self.cells_resolved()));
        match self.widest() {
            Some((point, cell)) => {
                out.push_str(&format!(
                    ",\"widest\":{{\"voltage\":{},\"domain\":\"{}\",\"array\":\"{}\"",
                    json::escape(&point.voltage),
                    cell.domain,
                    cell.array,
                ));
                out.push_str(&format!(
                    ",\"rel_halfwidth\":{}",
                    json::number(cell.rel_halfwidth)
                ));
                match cell.projected_seconds {
                    Some(s) => {
                        out.push_str(&format!(",\"projected_seconds\":{}}}", json::number(s)))
                    }
                    None => out.push_str(",\"projected_seconds\":null}"),
                }
            }
            None => out.push_str(",\"widest\":null"),
        }
        out.push_str(",\"points\":[");
        for (i, point) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"voltage\":{},\"pmd_mv\":{},\"soc_mv\":{},\"freq_mhz\":{}",
                json::escape(&point.voltage),
                point.pmd_mv,
                point.soc_mv,
                point.freq_mhz,
            ));
            out.push_str(&format!(",\"sessions\":{}", point.sessions));
            out.push_str(&format!(",\"trials\":{}", point.trials));
            out.push_str(&format!(
                ",\"live_seconds\":{}",
                json::number(point.live_seconds)
            ));
            out.push_str(",\"cells\":[");
            for (j, cell) in point.cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"domain\":\"{}\",\"array\":\"{}\"",
                    cell.domain, cell.array
                ));
                out.push_str(&format!(",\"masked\":{}", cell.masked));
                out.push_str(&format!(",\"due\":{}", cell.due));
                out.push_str(&format!(",\"sdc\":{}", cell.sdc));
                out.push_str(&format!(",\"events\":{}", cell.events));
                out.push_str(&format!(
                    ",\"rate_per_hour\":{}",
                    json::number(cell.rate_per_hour)
                ));
                out.push_str(&format!(
                    ",\"ci_lower_per_hour\":{}",
                    json::number(cell.ci_lower_per_hour)
                ));
                out.push_str(&format!(
                    ",\"ci_upper_per_hour\":{}",
                    json::number(cell.ci_upper_per_hour)
                ));
                // `number` renders the zero-event ∞ as JSON null.
                out.push_str(&format!(
                    ",\"rel_halfwidth\":{}",
                    json::number(cell.rel_halfwidth)
                ));
                out.push_str(&format!(",\"resolved\":{}", cell.resolved));
                match cell.events_to_target {
                    Some(k) => out.push_str(&format!(",\"events_to_target\":{k}")),
                    None => out.push_str(",\"events_to_target\":null"),
                }
                match cell.projected_trials {
                    Some(t) => out.push_str(&format!(",\"projected_trials\":{}", json::number(t))),
                    None => out.push_str(",\"projected_trials\":null"),
                }
                match cell.projected_seconds {
                    Some(s) => out.push_str(&format!(",\"projected_seconds\":{}", json::number(s))),
                    None => out.push_str(",\"projected_seconds\":null"),
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_types::SimDuration;

    fn point() -> OperatingPoint {
        OperatingPoint::vmin_2400()
    }

    fn tracker_with_events(masked: u64, due: u64, sdc: u64, secs: f64) -> ConvergenceTracker {
        let mut t = ConvergenceTracker::new();
        t.session_start(point());
        for _ in 0..masked {
            t.run(RunVerdict::Correct);
            t.edac(ArrayKind::L1Data, EdacSeverity::Corrected);
        }
        for _ in 0..due {
            t.run(RunVerdict::AppCrash);
            t.edac(ArrayKind::L1Data, EdacSeverity::Uncorrected);
        }
        for _ in 0..sdc {
            t.run(RunVerdict::Sdc {
                with_hw_notification: false,
            });
            t.edac(ArrayKind::L1Data, EdacSeverity::Uncorrected);
        }
        t.session_end(SimInstant::EPOCH + SimDuration::from_secs(secs));
        t
    }

    #[test]
    fn outcome_classes_split_by_severity_and_verdict() {
        let snap = tracker_with_events(3, 2, 1, 3600.0).snapshot();
        let cell = snap.points[0]
            .cells
            .iter()
            .find(|c| c.array == ArrayKind::L1Data)
            .expect("L1D cell");
        assert_eq!((cell.masked, cell.due, cell.sdc), (3, 2, 1));
        assert_eq!(cell.events, 6);
        assert_eq!(snap.points[0].trials, 6);
        assert_eq!(snap.points[0].live_seconds, 3600.0);
        assert_eq!(cell.rate_per_hour, 6.0);
    }

    #[test]
    fn cell_cis_match_batch_garwood_exactly() {
        let snap = tracker_with_events(10, 5, 2, 7200.0).snapshot();
        let cell = snap.points[0]
            .cells
            .iter()
            .find(|c| c.array == ArrayKind::L1Data)
            .expect("L1D cell");
        let (lo, hi) = poisson_ci(17, CI_LEVEL);
        assert_eq!(cell.ci_lower_per_hour.to_bits(), (lo / 2.0).to_bits());
        assert_eq!(cell.ci_upper_per_hour.to_bits(), (hi / 2.0).to_bits());
        assert_eq!(
            cell.rel_halfwidth.to_bits(),
            poisson_relative_uncertainty(17).to_bits()
        );
    }

    #[test]
    fn zero_event_cells_stay_finite_and_unresolved() {
        let snap = tracker_with_events(0, 0, 0, 3600.0).snapshot();
        for cell in &snap.points[0].cells {
            assert_eq!(cell.events, 0);
            assert_eq!(cell.rate_per_hour, 0.0);
            assert_eq!(cell.ci_lower_per_hour, 0.0);
            assert!(cell.ci_upper_per_hour.is_finite());
            assert!(cell.rel_halfwidth.is_infinite());
            assert!(!cell.resolved);
            // The zero-rate projections clamp away, never NaN/negative.
            assert_eq!(cell.projected_trials, None);
            assert_eq!(cell.projected_seconds, None);
        }
        assert!(snap.widest().is_none(), "no events, no widest cell");
        assert_eq!(snap.cells_resolved(), 0);
        // And the JSON renders the infinite half-width as null.
        let doc = json::parse(snap.to_json().trim_end()).expect("snapshot parses");
        let first = |v: &json::JsonValue| match v {
            json::JsonValue::Array(items) => items.first().cloned(),
            _ => None,
        };
        let cell = doc
            .get("points")
            .and_then(first)
            .as_ref()
            .and_then(|p| p.get("cells"))
            .and_then(first)
            .expect("first cell");
        assert_eq!(cell.get("rel_halfwidth"), Some(&json::JsonValue::Null));
    }

    #[test]
    fn projections_shrink_as_events_accumulate() {
        let sparse = tracker_with_events(4, 0, 0, 3600.0).snapshot();
        let dense = tracker_with_events(100, 0, 0, 3600.0).snapshot();
        let cell_of = |snap: &ConvergenceSnapshot| {
            snap.points[0]
                .cells
                .iter()
                .find(|c| c.array == ArrayKind::L1Data)
                .cloned()
                .expect("L1D cell")
        };
        let (sparse, dense) = (cell_of(&sparse), cell_of(&dense));
        let (s_proj, d_proj) = (
            sparse.projected_seconds.expect("sparse projects"),
            dense.projected_seconds.expect("dense projects"),
        );
        assert!(s_proj > 0.0 && d_proj > 0.0);
        assert!(
            sparse.events_to_target.unwrap() == dense.events_to_target.unwrap(),
            "the target event count is a property of the target, not the cell"
        );
        assert!(
            d_proj < s_proj,
            "higher rate reaches the target sooner: {d_proj} vs {s_proj}"
        );
        // ~385 events meet the ±10% target.
        let k = dense.events_to_target.unwrap();
        assert!((300..500).contains(&k), "events_to_target = {k}");
        assert!(poisson_relative_uncertainty(k) <= TARGET_REL_HALFWIDTH);
        assert!(poisson_relative_uncertainty(k - 1) > TARGET_REL_HALFWIDTH);
    }

    #[test]
    fn resolved_cells_project_zero_additional_work() {
        let snap = tracker_with_events(400, 0, 0, 3600.0).snapshot();
        let cell = snap.points[0]
            .cells
            .iter()
            .find(|c| c.array == ArrayKind::L1Data)
            .expect("L1D cell");
        assert!(cell.resolved);
        assert_eq!(cell.events_to_target, Some(400));
        assert_eq!(cell.projected_trials, Some(0.0));
        assert_eq!(cell.projected_seconds, Some(0.0));
        assert_eq!(snap.cells_resolved(), 1);
    }

    #[test]
    fn widest_prefers_the_fewest_events() {
        let mut t = ConvergenceTracker::new();
        t.session_start(point());
        t.run(RunVerdict::Correct);
        for _ in 0..50 {
            t.edac(ArrayKind::L1Data, EdacSeverity::Corrected);
        }
        t.edac(ArrayKind::L2Unified, EdacSeverity::Corrected);
        t.session_end(SimInstant::EPOCH + SimDuration::from_secs(3600.0));
        let snap = t.snapshot();
        let (_, widest) = snap.widest().expect("events exist");
        assert_eq!(widest.array, ArrayKind::L2Unified, "1 event beats 50");
    }

    #[test]
    fn points_are_keyed_by_full_setting_in_first_seen_order() {
        let mut t = ConvergenceTracker::new();
        t.session_start(OperatingPoint::vmin_2400());
        t.session_end(SimInstant::EPOCH + SimDuration::from_secs(60.0));
        t.session_start(OperatingPoint::nominal());
        t.session_end(SimInstant::EPOCH + SimDuration::from_secs(30.0));
        // A second session at an already-seen point accumulates there.
        t.session_start(OperatingPoint::vmin_2400());
        t.session_end(SimInstant::EPOCH + SimDuration::from_secs(40.0));
        let snap = t.snapshot();
        assert_eq!(snap.points.len(), 2);
        assert_eq!(snap.points[0].voltage, OperatingPoint::vmin_2400().label());
        assert_eq!(snap.points[0].sessions, 2);
        assert_eq!(snap.points[0].live_seconds, 100.0);
        assert_eq!(snap.points[1].sessions, 1);
        assert_eq!(snap.cells_total(), 2 * ArrayKind::ALL.len());
    }

    #[test]
    fn snapshot_json_is_stable_and_parses() {
        let t = tracker_with_events(5, 1, 0, 1800.0);
        let a = t.snapshot().to_json();
        let b = t.snapshot().to_json();
        assert_eq!(a, b, "identical state renders identical bytes");
        assert!(a.ends_with('\n'));
        let doc = json::parse(a.trim_end()).expect("snapshot parses");
        assert_eq!(
            doc.get("ci_level").and_then(json::JsonValue::as_f64),
            Some(CI_LEVEL)
        );
        let widest = doc.get("widest").expect("widest present");
        assert!(
            widest.get("voltage").is_some(),
            "events exist, widest names a cell: {a}"
        );
    }
}
