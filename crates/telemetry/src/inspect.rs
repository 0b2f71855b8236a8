//! Offline run forensics: `repro inspect` over a finished run's artifacts.
//!
//! A campaign leaves three kinds of evidence behind: the crash-safe
//! `journal.jsonl` (what the simulation decided), `spans.jsonl` (where
//! host time went) and `events.jsonl` (what the observer saw, in order).
//! This module replays them into a forensic report long after the process
//! and its live `/metrics` endpoint are gone:
//!
//! - **per-wave critical-path breakdown** — each session's waves with
//!   planned/absorbed counts, host duration, the pool's critical path and
//!   wall time, and the slowest waves called out;
//! - **worker-utilization timeline** — per-worker busy time summed from
//!   the exact integer nanosecond ledgers each wave span carries;
//! - **exact-quantile latency summaries** — nearest-rank quantiles over
//!   the raw samples, sharper than the live registry's log₂ histograms;
//! - **per-(voltage-domain, array) event attribution** — EDAC counts by
//!   severity, from `events.jsonl` when present, else from the journal;
//! - **collapsed-stack output** (`--folded`) — `a;b;c self_ns` lines for
//!   flamegraph tooling;
//! - **run comparison** (`--diff`) — headline deltas between two runs.
//!
//! ## Exact reconstruction contract
//!
//! The live observer accumulates each worker's busy time as integer
//! nanoseconds and publishes `worker_busy_seconds` as one final division
//! by 1e9; every wave span carries the same integers in its
//! `workers_busy_ns` attribute, so summing them here and dividing once
//! reproduces the gauge **bit-exactly**. Likewise `wave_critical_path`:
//! the live histogram's sum is a sequential f64 accumulation of
//! `critical_path_nanos / 1e9` in wave order within one observer shard,
//! and [`InspectReport::critical_path_series`] repeats that accumulation
//! in span-id order (the order `record_complete` assigned them), so the
//! reconstructed sums match the scraped ones to the last bit.
//! `tests/inspect_forensics.rs` enforces both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use serscale_core::classify::RunVerdict;
use serscale_core::journal::{for_each_record, journal_path, Record};
use serscale_soc::edac::EdacSeverity;
use serscale_types::ArrayKind;

use crate::json::{self, Token};

/// One span parsed back from `spans.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectSpan {
    /// Hierarchy level (`campaign`, `sweep`, `session`, `wave`, `trial`).
    pub level: String,
    /// Span id, unique within the run.
    pub id: u64,
    /// Parent span id (0 = top-level).
    pub parent: u64,
    /// Human name, e.g. `"wave@128"`.
    pub name: String,
    /// Host nanoseconds from tracer epoch to entry.
    pub enter_ns: u64,
    /// Host nanoseconds from tracer epoch to exit.
    pub exit_ns: u64,
    /// Structured string attributes.
    pub attrs: BTreeMap<String, String>,
}

impl InspectSpan {
    /// The span's host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.exit_ns.saturating_sub(self.enter_ns)
    }

    fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.get(key).and_then(|v| v.parse().ok())
    }
}

/// One session's wave-level breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionForensics {
    /// The operating-point label, e.g. `"920mV@2.4 GHz"`.
    pub voltage: String,
    /// The session span's id.
    pub span_id: u64,
    /// The session span's entry timestamp (orders the timeline).
    pub enter_ns: u64,
    /// Waves merged in this session.
    pub waves: u64,
    /// Trials the waves planned (speculation included).
    pub planned: u64,
    /// Trials the merge absorbed.
    pub absorbed: u64,
    /// Trial retries across the session.
    pub retries: u64,
    /// Trials quarantined across the session.
    pub quarantined: u64,
    /// Σ wave host duration, nanoseconds.
    pub host_ns: u64,
    /// Σ wave critical path (slowest worker per wave), nanoseconds.
    pub critical_path_ns: u64,
    /// Σ wave pool wall time, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker busy nanoseconds within this session.
    pub worker_busy_ns: Vec<u64>,
    /// The slowest waves, `(name, duration_ns)`, worst first.
    pub slowest: Vec<(String, u64)>,
}

impl SessionForensics {
    /// Pool utilization across the session: busy time over wall time
    /// summed over the session's waves, per worker slot.
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.worker_busy_ns.iter().sum();
        let span = self
            .wall_ns
            .saturating_mul(self.worker_busy_ns.len() as u64);
        if span == 0 {
            return 0.0;
        }
        busy as f64 / span as f64
    }
}

/// One worker's campaign-wide ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerForensics {
    /// Worker slot index.
    pub index: usize,
    /// Total busy nanoseconds across every wave (exact integer sum).
    pub busy_ns: u64,
    /// Waves this worker appeared in.
    pub waves: u64,
}

impl WorkerForensics {
    /// The worker's busy time in seconds — one division of the exact
    /// integer total, reproducing the live `worker_busy_seconds` gauge
    /// bit for bit.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }
}

/// The reconstructed `wave_critical_path{voltage=…}` histogram totals.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathSeries {
    /// The voltage label the live series carries.
    pub voltage: String,
    /// Observation count (= waves at this voltage).
    pub count: u64,
    /// The histogram sum, accumulated in the live observation order.
    pub sum_seconds: f64,
}

/// Nearest-rank quantiles over one latency population.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// 50th percentile (nearest rank).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl QuantileSummary {
    /// Summarizes a sample population; `None` when it is empty.
    pub fn of(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(QuantileSummary {
            n: samples.len(),
            min: samples[0],
            p50: exact_quantile(&samples, 0.50),
            p90: exact_quantile(&samples, 0.90),
            p99: exact_quantile(&samples, 0.99),
            max: samples[samples.len() - 1],
        })
    }
}

/// The nearest-rank quantile of an ascending-sorted, non-empty sample:
/// the smallest sample such that at least `q·n` samples are ≤ it. Exact —
/// no interpolation, no bucketing — which is the point of offline
/// forensics versus the live log₂ histograms.
///
/// # Panics
///
/// Panics on an empty slice; callers summarize through
/// [`QuantileSummary::of`], which handles emptiness.
pub fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty population");
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// EDAC attribution for one (voltage domain, array) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EdacAttribution {
    /// The voltage domain the array sits on (`PMD` / `SoC`).
    pub domain: String,
    /// The SRAM array name.
    pub array: String,
    /// Corrected-error count.
    pub corrected: u64,
    /// Uncorrected-error count.
    pub uncorrected: u64,
}

/// What the journal alone establishes about the run.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalForensics {
    /// Sessions the journal has any record of.
    pub sessions: u64,
    /// Absorbed trials.
    pub trials: u64,
    /// Verdict counts by wire name (`ok`, `sdc`, `app_crash`, `sys_crash`).
    pub verdicts: BTreeMap<String, u64>,
    /// Total trial retries.
    pub retries: u64,
    /// Quarantined trials.
    pub quarantined: u64,
    /// Journal bytes on disk.
    pub bytes: u64,
}

/// The full forensic read of one run directory.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectReport {
    /// The directory inspected.
    pub dir: PathBuf,
    /// Every span, sorted by `(enter_ns, id)`.
    pub spans: Vec<InspectSpan>,
    /// Per-session wave breakdown, in timeline order.
    pub sessions: Vec<SessionForensics>,
    /// Per-worker campaign-wide ledgers.
    pub workers: Vec<WorkerForensics>,
    /// Reconstructed `wave_critical_path` histogram totals per voltage.
    pub critical_path_series: Vec<CriticalPathSeries>,
    /// Exact quantiles over wave host durations (seconds).
    pub wave_duration: Option<QuantileSummary>,
    /// Exact quantiles over wave critical paths (seconds).
    pub critical_path: Option<QuantileSummary>,
    /// Exact quantiles over journaled trial wall times (simulated
    /// seconds).
    pub trial_wall: Option<QuantileSummary>,
    /// EDAC attribution by (domain, array), sorted.
    pub edac: Vec<EdacAttribution>,
    /// Journal-derived facts, when a journal is present.
    pub journal: Option<JournalForensics>,
    /// Lines read from `events.jsonl` (0 when absent).
    pub event_lines: usize,
}

/// How many slowest waves each session breakdown lists.
const SLOWEST_WAVES: usize = 5;

/// True when `dir` holds at least one artifact this module can read.
pub fn has_artifacts(dir: &Path) -> bool {
    journal_path(dir).is_file()
        || dir.join("spans.jsonl").is_file()
        || dir.join("events.jsonl").is_file()
}

/// Replays a run directory's artifacts into an [`InspectReport`].
///
/// The directory may be a `--telemetry-out` export (`spans.jsonl`,
/// `events.jsonl`), a journal directory (`journal.jsonl`), or a control
/// plane job directory carrying all three; every section degrades
/// gracefully when its source file is absent.
///
/// # Errors
///
/// No artifact at all in `dir`, unreadable files, malformed JSONL, or a
/// journal whose mid-file digests fail (torn *tails* are forgiven, the
/// same tolerance recovery applies).
pub fn inspect_dir(dir: &Path) -> Result<InspectReport, String> {
    if !has_artifacts(dir) {
        return Err(format!(
            "{}: no journal.jsonl, spans.jsonl or events.jsonl to inspect",
            dir.display()
        ));
    }
    let spans = read_spans(&dir.join("spans.jsonl"))?;
    let (edac_from_events, event_lines) = read_events(&dir.join("events.jsonl"))?;
    let journal = read_journal_forensics(dir)?;

    let sessions = build_sessions(&spans);
    let workers = build_workers(&spans);
    let critical_path_series = build_critical_path_series(&spans);

    let wave_spans: Vec<&InspectSpan> = spans.iter().filter(|s| s.level == "wave").collect();
    let wave_duration = QuantileSummary::of(
        wave_spans
            .iter()
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect(),
    );
    let critical_path = QuantileSummary::of(
        wave_spans
            .iter()
            .filter_map(|s| s.attr_u64("critical_path_ns"))
            .map(|ns| ns as f64 / 1e9)
            .collect(),
    );
    let (journal, trial_wall, edac_from_journal) = match journal {
        Some((forensics, walls, edac)) => (Some(forensics), QuantileSummary::of(walls), edac),
        None => (None, None, Vec::new()),
    };
    // Events are the richer source (they carry the live domain labels);
    // the journal is the fallback when only the crash-safe artifact
    // survived.
    let edac = if event_lines > 0 {
        edac_from_events
    } else {
        edac_from_journal
    };

    Ok(InspectReport {
        dir: dir.to_path_buf(),
        spans,
        sessions,
        workers,
        critical_path_series,
        wave_duration,
        critical_path,
        trial_wall,
        edac,
        journal,
        event_lines,
    })
}

fn read_spans(path: &Path) -> Result<Vec<InspectSpan>, String> {
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = Vec::new();
    for (line, doc) in json::lines(&text) {
        spans.push(read_span(doc).map_err(|e| format!("{}: line {line}: {e}", path.display()))?);
    }
    spans.sort_by_key(|s| (s.enter_ns, s.id));
    Ok(spans)
}

/// One `spans.jsonl` line. Every member but `span` and `name` whose value
/// is a string is an attribute; the ids and timestamps must be exact
/// unsigned integers.
fn read_span(doc: &str) -> Result<InspectSpan, String> {
    let (mut level, mut name) = (None, None);
    let (mut id, mut parent, mut enter_ns, mut exit_ns) = (None, None, None, None);
    let mut attrs = BTreeMap::new();
    json::members(doc, |key, value, _| {
        let key = key.get();
        match &*key {
            "span" => level = Some(value),
            "name" => name = Some(value),
            other => {
                match other {
                    "id" => id = Some(value),
                    "parent" => parent = Some(value),
                    "enter_ns" => enter_ns = Some(value),
                    "exit_ns" => exit_ns = Some(value),
                    _ => {}
                }
                match value {
                    Token::Str(s) => attrs.insert(key.into_owned(), s.get().into_owned()),
                    _ => attrs.remove(other),
                };
            }
        }
    })?;
    let text = |token: Option<Token<'_>>, key: &str| match token {
        Some(Token::Str(s)) => Ok(s.get().into_owned()),
        _ => Err(format!("missing {key}")),
    };
    let int = |token: Option<Token<'_>>, key: &str| match token {
        Some(Token::Number(n)) => {
            json::exact_u64(n).ok_or_else(|| format!("{key} is {n}, not an unsigned integer"))
        }
        _ => Err(format!("missing {key}")),
    };
    Ok(InspectSpan {
        level: text(level, "span")?,
        id: int(id, "id")?,
        parent: int(parent, "parent")?,
        name: text(name, "name")?,
        enter_ns: int(enter_ns, "enter_ns")?,
        exit_ns: int(exit_ns, "exit_ns")?,
        attrs,
    })
}

type EventEdac = (Vec<EdacAttribution>, usize);

/// Reads `events.jsonl` a line at a time through one reused buffer,
/// numbering lines from 1 and skipping blank ones as [`json::lines`]
/// does.
fn read_events(path: &Path) -> Result<EventEdac, String> {
    if !path.is_file() {
        return Ok((Vec::new(), 0));
    }
    let failed = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut reader = BufReader::new(File::open(path).map_err(failed)?);
    let mut counts: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    let mut docs = 0;
    let mut buffer = String::new();
    for line in 1.. {
        buffer.clear();
        if reader.read_line(&mut buffer).map_err(failed)? == 0 {
            break;
        }
        let doc = match buffer.strip_suffix('\n') {
            Some(doc) => doc.strip_suffix('\r').unwrap_or(doc),
            None => &buffer,
        };
        if doc.trim().is_empty() {
            continue;
        }
        docs += 1;
        let (mut event, mut domain, mut array, mut severity) = (None, None, None, None);
        json::members(doc, |key, value, _| {
            let Token::Str(value) = value else { return };
            match &*key.get() {
                "event" => event = Some(value.get()),
                "domain" => domain = Some(value.get()),
                "array" => array = Some(value.get()),
                "severity" => severity = Some(value.get()),
                _ => {}
            }
        })
        .map_err(|e| format!("{}: line {line}: {e}", path.display()))?;
        if event.as_deref() != Some("edac") {
            continue;
        }
        let domain = domain.as_deref().unwrap_or("?").to_string();
        let array = array.as_deref().unwrap_or("?").to_string();
        let slot = counts.entry((domain, array)).or_default();
        match severity.as_deref() {
            Some("UE") => slot.1 += 1,
            _ => slot.0 += 1,
        }
    }
    Ok((collect_edac(counts), docs))
}

type JournalRead = Option<(JournalForensics, Vec<f64>, Vec<EdacAttribution>)>;

fn read_journal_forensics(dir: &Path) -> Result<JournalRead, String> {
    let path = journal_path(dir);
    if !path.is_file() {
        return Ok(None);
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let mut forensics = JournalForensics {
        sessions: 0,
        trials: 0,
        verdicts: BTreeMap::new(),
        retries: 0,
        quarantined: 0,
        bytes,
    };
    let mut walls = Vec::new();
    // Counted under names and arrays that allocate nothing per trial;
    // the output maps name them once at the end.
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_array: BTreeMap<ArrayKind, (u64, u64)> = BTreeMap::new();
    for_each_record(&path, |record| match record {
        Record::Campaign { .. } | Record::SessionEnd { .. } => {}
        Record::SessionStart { .. } => forensics.sessions += 1,
        Record::Trial { execution, .. } => {
            forensics.trials += 1;
            forensics.retries += u64::from(execution.retries);
            forensics.quarantined += u64::from(execution.quarantined);
            *verdicts
                .entry(verdict_name(execution.outcome.verdict))
                .or_default() += 1;
            walls.push(execution.outcome.wall_time.as_secs());
            for edac in &execution.outcome.edac {
                let slot = by_array.entry(edac.array).or_default();
                match edac.severity {
                    EdacSeverity::Uncorrected => slot.1 += 1,
                    EdacSeverity::Corrected => slot.0 += 1,
                }
            }
        }
    })
    .map_err(|e| format!("{}: {e}", path.display()))?;
    forensics.verdicts = verdicts
        .into_iter()
        .map(|(name, n)| (name.to_string(), n))
        .collect();
    let counts = by_array
        .into_iter()
        .map(|(array, n)| ((array.voltage_domain().to_string(), array.to_string()), n))
        .collect();
    Ok(Some((forensics, walls, collect_edac(counts))))
}

/// A verdict's variant name, as the journal section counts it.
fn verdict_name(verdict: RunVerdict) -> &'static str {
    match verdict {
        RunVerdict::Correct => "Correct",
        RunVerdict::Sdc { .. } => "Sdc",
        RunVerdict::AppCrash => "AppCrash",
        RunVerdict::SysCrash => "SysCrash",
    }
}

fn collect_edac(counts: BTreeMap<(String, String), (u64, u64)>) -> Vec<EdacAttribution> {
    counts
        .into_iter()
        .map(|((domain, array), (ce, ue))| EdacAttribution {
            domain,
            array,
            corrected: ce,
            uncorrected: ue,
        })
        .collect()
}

/// The voltage label of a session span (`"session 920mV@2.4 GHz"` →
/// `"920mV@2.4 GHz"`).
fn session_voltage(span: &InspectSpan) -> String {
    span.name
        .strip_prefix("session ")
        .unwrap_or(&span.name)
        .to_string()
}

fn build_sessions(spans: &[InspectSpan]) -> Vec<SessionForensics> {
    let mut sessions: Vec<SessionForensics> = spans
        .iter()
        .filter(|s| s.level == "session")
        .map(|s| SessionForensics {
            voltage: session_voltage(s),
            span_id: s.id,
            enter_ns: s.enter_ns,
            waves: 0,
            planned: 0,
            absorbed: 0,
            retries: 0,
            quarantined: 0,
            host_ns: 0,
            critical_path_ns: 0,
            wall_ns: 0,
            worker_busy_ns: Vec::new(),
            slowest: Vec::new(),
        })
        .collect();
    for wave in spans.iter().filter(|s| s.level == "wave") {
        let Some(session) = sessions.iter_mut().find(|s| s.span_id == wave.parent) else {
            continue;
        };
        session.waves += 1;
        session.planned += wave.attr_u64("planned").unwrap_or(0);
        session.absorbed += wave.attr_u64("absorbed").unwrap_or(0);
        session.retries += wave.attr_u64("retries").unwrap_or(0);
        session.quarantined += wave.attr_u64("quarantined").unwrap_or(0);
        session.host_ns += wave.duration_ns();
        session.critical_path_ns += wave.attr_u64("critical_path_ns").unwrap_or(0);
        session.wall_ns += wave.attr_u64("wall_ns").unwrap_or(0);
        for (i, busy) in worker_busy_list(wave).into_iter().enumerate() {
            if session.worker_busy_ns.len() <= i {
                session.worker_busy_ns.resize(i + 1, 0);
            }
            session.worker_busy_ns[i] += busy;
        }
        session
            .slowest
            .push((wave.name.clone(), wave.duration_ns()));
    }
    for session in &mut sessions {
        session
            .slowest
            .sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        session.slowest.truncate(SLOWEST_WAVES);
    }
    sessions.sort_by_key(|s| (s.enter_ns, s.span_id));
    sessions
}

fn worker_busy_list(wave: &InspectSpan) -> Vec<u64> {
    wave.attrs
        .get("workers_busy_ns")
        .map(|list| {
            list.split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn build_workers(spans: &[InspectSpan]) -> Vec<WorkerForensics> {
    let mut workers: Vec<WorkerForensics> = Vec::new();
    for wave in spans.iter().filter(|s| s.level == "wave") {
        for (i, busy) in worker_busy_list(wave).into_iter().enumerate() {
            if workers.len() <= i {
                workers.push(WorkerForensics {
                    index: workers.len(),
                    busy_ns: 0,
                    waves: 0,
                });
            }
            workers[i].busy_ns += busy;
            workers[i].waves += 1;
        }
    }
    workers
}

fn build_critical_path_series(spans: &[InspectSpan]) -> Vec<CriticalPathSeries> {
    let voltage_of: BTreeMap<u64, String> = spans
        .iter()
        .filter(|s| s.level == "session")
        .map(|s| (s.id, session_voltage(s)))
        .collect();
    // The live histogram accumulates its f64 sum in observation order;
    // span ids are assigned in that same order, so replaying waves sorted
    // by id reproduces the accumulation (and its rounding) exactly.
    let mut waves: Vec<&InspectSpan> = spans.iter().filter(|s| s.level == "wave").collect();
    waves.sort_by_key(|s| s.id);
    let mut series: Vec<CriticalPathSeries> = Vec::new();
    for wave in waves {
        let Some(voltage) = voltage_of.get(&wave.parent) else {
            continue;
        };
        let Some(critical_ns) = wave.attr_u64("critical_path_ns") else {
            continue;
        };
        let slot = match series.iter_mut().find(|s| &s.voltage == voltage) {
            Some(slot) => slot,
            None => {
                series.push(CriticalPathSeries {
                    voltage: voltage.clone(),
                    count: 0,
                    sum_seconds: 0.0,
                });
                series.last_mut().expect("just pushed")
            }
        };
        slot.count += 1;
        slot.sum_seconds += critical_ns as f64 / 1e9;
    }
    series.sort_by(|a, b| a.voltage.cmp(&b.voltage));
    series
}

impl InspectReport {
    /// Total busy nanoseconds across every worker (exact integer sum).
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Renders the human forensic report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== repro inspect: {} ==", self.dir.display());
        let _ = writeln!(
            out,
            "sources: {} spans, {} event lines, journal {}",
            self.spans.len(),
            self.event_lines,
            match &self.journal {
                Some(j) => format!("{} bytes", j.bytes),
                None => "absent".to_string(),
            }
        );

        if let Some(journal) = &self.journal {
            let _ = writeln!(out, "\n-- journal --");
            let _ = writeln!(
                out,
                "sessions {}, trials {}, retries {}, quarantined {}",
                journal.sessions, journal.trials, journal.retries, journal.quarantined
            );
            for (verdict, n) in &journal.verdicts {
                let _ = writeln!(out, "  verdict {verdict}: {n}");
            }
        }

        if !self.sessions.is_empty() {
            let _ = writeln!(out, "\n-- sessions: wave critical-path breakdown --");
            for s in &self.sessions {
                let _ = writeln!(
                    out,
                    "session {} (span {}): {} waves, planned {}, absorbed {}, \
                     retries {}, quarantined {}",
                    s.voltage, s.span_id, s.waves, s.planned, s.absorbed, s.retries, s.quarantined
                );
                let _ = writeln!(
                    out,
                    "  host {:.3} ms, critical path {:.3} ms, wall {:.3} ms, \
                     utilization {:.1}%",
                    s.host_ns as f64 / 1e6,
                    s.critical_path_ns as f64 / 1e6,
                    s.wall_ns as f64 / 1e6,
                    s.utilization() * 100.0
                );
                for (name, ns) in &s.slowest {
                    let _ = writeln!(out, "  slowest: {name} {:.3} ms", *ns as f64 / 1e6);
                }
            }
        }

        if !self.workers.is_empty() {
            let _ = writeln!(out, "\n-- worker utilization --");
            let total = self.total_busy_ns().max(1);
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "worker {}: busy {:.9} s over {} waves ({:.1}% of pool busy time)",
                    w.index,
                    w.busy_seconds(),
                    w.waves,
                    w.busy_ns as f64 / total as f64 * 100.0
                );
            }
        }

        let quantile_line = |out: &mut String, label: &str, q: &Option<QuantileSummary>| {
            if let Some(q) = q {
                let _ = writeln!(
                    out,
                    "{label}: n={} min={:.6} p50={:.6} p90={:.6} p99={:.6} max={:.6}",
                    q.n, q.min, q.p50, q.p90, q.p99, q.max
                );
            }
        };
        if self.wave_duration.is_some() || self.critical_path.is_some() || self.trial_wall.is_some()
        {
            let _ = writeln!(out, "\n-- exact latency quantiles --");
            quantile_line(&mut out, "wave host seconds", &self.wave_duration);
            quantile_line(&mut out, "wave critical-path seconds", &self.critical_path);
            quantile_line(&mut out, "trial wall sim-seconds", &self.trial_wall);
        }

        if !self.edac.is_empty() {
            let _ = writeln!(out, "\n-- EDAC attribution (domain / array) --");
            for e in &self.edac {
                let _ = writeln!(
                    out,
                    "{} / {}: CE {}, UE {}",
                    e.domain, e.array, e.corrected, e.uncorrected
                );
            }
        }

        if !self.workers.is_empty() || !self.critical_path_series.is_empty() {
            let _ = writeln!(out, "\n-- live-metric reconstruction (exact) --");
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "worker_busy_seconds{{worker=\"{}\"}} = {:e}",
                    w.index,
                    w.busy_seconds()
                );
            }
            for s in &self.critical_path_series {
                let _ = writeln!(
                    out,
                    "wave_critical_path_sum{{voltage=\"{}\"}} = {:e} (count {})",
                    s.voltage, s.sum_seconds, s.count
                );
            }
        }
        out
    }

    /// Renders collapsed stacks (`a;b;c self_ns`, one line per span with
    /// nonzero self time) for flamegraph tooling. Semicolons inside span
    /// names become commas so the separator stays unambiguous.
    pub fn folded(&self) -> String {
        let by_id: BTreeMap<u64, &InspectSpan> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            *child_ns.entry(span.parent).or_default() += span.duration_ns();
        }
        let mut out = String::new();
        for span in &self.spans {
            let self_ns = span
                .duration_ns()
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            if self_ns == 0 {
                continue;
            }
            let mut path = vec![span.name.replace(';', ",")];
            let mut cursor = span.parent;
            // Depth cap guards against a cyclic (hand-corrupted) file.
            for _ in 0..16 {
                let Some(parent) = by_id.get(&cursor) else {
                    break;
                };
                path.push(parent.name.replace(';', ","));
                cursor = parent.parent;
            }
            path.reverse();
            let _ = writeln!(out, "{} {self_ns}", path.join(";"));
        }
        out
    }
}

/// Renders the headline deltas between two runs, `a` first.
pub fn render_diff(a: &InspectReport, b: &InspectReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== repro inspect --diff ==\nA: {}\nB: {}",
        a.dir.display(),
        b.dir.display()
    );
    let count =
        |r: &InspectReport, f: fn(&SessionForensics) -> u64| r.sessions.iter().map(f).sum::<u64>();
    let lines: Vec<(&str, f64, f64)> = vec![
        ("sessions", a.sessions.len() as f64, b.sessions.len() as f64),
        (
            "waves",
            count(a, |s| s.waves) as f64,
            count(b, |s| s.waves) as f64,
        ),
        (
            "planned trials",
            count(a, |s| s.planned) as f64,
            count(b, |s| s.planned) as f64,
        ),
        (
            "absorbed trials",
            count(a, |s| s.absorbed) as f64,
            count(b, |s| s.absorbed) as f64,
        ),
        (
            "worker busy seconds",
            a.total_busy_ns() as f64 / 1e9,
            b.total_busy_ns() as f64 / 1e9,
        ),
        (
            "journal trials",
            a.journal.as_ref().map_or(0.0, |j| j.trials as f64),
            b.journal.as_ref().map_or(0.0, |j| j.trials as f64),
        ),
        (
            "EDAC corrected",
            a.edac.iter().map(|e| e.corrected).sum::<u64>() as f64,
            b.edac.iter().map(|e| e.corrected).sum::<u64>() as f64,
        ),
        (
            "EDAC uncorrected",
            a.edac.iter().map(|e| e.uncorrected).sum::<u64>() as f64,
            b.edac.iter().map(|e| e.uncorrected).sum::<u64>() as f64,
        ),
    ];
    for (label, va, vb) in lines {
        let _ = writeln!(out, "{label}: {va} -> {vb} (delta {})", vb - va);
    }
    let voltages: std::collections::BTreeSet<&str> = a
        .critical_path_series
        .iter()
        .chain(&b.critical_path_series)
        .map(|s| s.voltage.as_str())
        .collect();
    for voltage in voltages {
        let pick = |r: &InspectReport| {
            r.critical_path_series
                .iter()
                .find(|s| s.voltage == voltage)
                .map_or(0.0, |s| s.sum_seconds)
        };
        let (va, vb) = (pick(a), pick(b));
        let _ = writeln!(
            out,
            "critical path sum @ {voltage}: {va:.6} -> {vb:.6} (delta {:.6})",
            vb - va
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        level: &str,
        id: u64,
        parent: u64,
        name: &str,
        enter: u64,
        exit: u64,
        attrs: &[(&str, &str)],
    ) -> InspectSpan {
        InspectSpan {
            level: level.to_string(),
            id,
            parent,
            name: name.to_string(),
            enter_ns: enter,
            exit_ns: exit,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn sample_spans() -> Vec<InspectSpan> {
        vec![
            span("campaign", 1, 0, "campaign", 0, 1000, &[]),
            span("session", 2, 1, "session 920mV@2.4 GHz", 10, 500, &[]),
            span(
                "wave",
                3,
                2,
                "wave@0",
                20,
                120,
                &[
                    ("planned", "8"),
                    ("absorbed", "6"),
                    ("critical_path_ns", "90"),
                    ("wall_ns", "100"),
                    ("workers_busy_ns", "90,60"),
                ],
            ),
            span(
                "wave",
                4,
                2,
                "wave@6",
                130,
                330,
                &[
                    ("planned", "8"),
                    ("absorbed", "8"),
                    ("critical_path_ns", "180"),
                    ("wall_ns", "200"),
                    ("workers_busy_ns", "150,180"),
                ],
            ),
        ]
    }

    #[test]
    fn sessions_aggregate_their_waves() {
        let sessions = build_sessions(&sample_spans());
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.voltage, "920mV@2.4 GHz");
        assert_eq!(s.waves, 2);
        assert_eq!(s.planned, 16);
        assert_eq!(s.absorbed, 14);
        assert_eq!(s.critical_path_ns, 270);
        assert_eq!(s.wall_ns, 300);
        assert_eq!(s.worker_busy_ns, vec![240, 240]);
        assert_eq!(s.slowest[0].0, "wave@6", "slowest wave first");
    }

    #[test]
    fn workers_sum_exact_integer_nanos() {
        let workers = build_workers(&sample_spans());
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].busy_ns, 240);
        assert_eq!(workers[1].busy_ns, 240);
        assert_eq!(workers[0].busy_seconds(), 240.0 / 1e9);
    }

    #[test]
    fn critical_path_series_accumulates_in_id_order() {
        let series = build_critical_path_series(&sample_spans());
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].count, 2);
        // Sequential accumulation: (90/1e9) + (180/1e9), in that order.
        assert_eq!(series[0].sum_seconds, 90.0 / 1e9 + 180.0 / 1e9);
    }

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exact_quantile(&sorted, 0.0), 1.0);
        assert_eq!(exact_quantile(&sorted, 0.25), 1.0);
        assert_eq!(exact_quantile(&sorted, 0.5), 2.0);
        assert_eq!(exact_quantile(&sorted, 0.75), 3.0);
        assert_eq!(exact_quantile(&sorted, 0.76), 4.0);
        assert_eq!(exact_quantile(&sorted, 1.0), 4.0);
        assert_eq!(exact_quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn folded_output_is_rooted_and_weighted_by_self_time() {
        let report = InspectReport {
            dir: PathBuf::from("x"),
            spans: sample_spans(),
            sessions: Vec::new(),
            workers: Vec::new(),
            critical_path_series: Vec::new(),
            wave_duration: None,
            critical_path: None,
            trial_wall: None,
            edac: Vec::new(),
            journal: None,
            event_lines: 0,
        };
        let folded = report.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"campaign;session 920mV@2.4 GHz;wave@0 100"));
        assert!(lines.contains(&"campaign;session 920mV@2.4 GHz;wave@6 200"));
        // session self time: 490 - (100 + 200) = 190.
        assert!(lines.contains(&"campaign;session 920mV@2.4 GHz 190"));
        // campaign self time: 1000 - 490 = 510.
        assert!(lines.contains(&"campaign 510"));
        for line in lines {
            let (stack, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(!stack.is_empty());
            weight.parse::<u64>().expect("integer weight");
        }
    }

    #[test]
    fn inspecting_an_empty_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("serscale-inspect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = inspect_dir(&dir).unwrap_err();
        assert!(err.contains("no journal.jsonl"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
