//! The crash-safe run journal: append-only trial records + recovery.
//!
//! The paper's 64-hour campaigns survived real system crashes because the
//! Control-PC could restart the DUT and *continue counting* (§3); this
//! module gives the simulator the same property. As the wave engine merges
//! outcomes (see [`crate::session`]), every absorbed trial is appended to
//! a JSONL journal and the file is fsync'd once per wave. After a crash,
//! [`start_or_resume`] replays the journal into a [`RecoveredCampaign`]
//! and the engine fast-forwards: replayed trials are folded through the
//! same accumulator the live path uses (no physics re-run), the RNG
//! streams re-derive from the campaign seed (they are counter-derived pure
//! functions, so "fast-forward" is free), and the continued run produces a
//! report and trace **bit-identical** to an uninterrupted one at any
//! `--jobs N`.
//!
//! ## Record schema
//!
//! One JSON object per line, every line carrying a FNV-1a digest of its
//! own prefix in a trailing `"crc"` field:
//!
//! * `campaign` — header: format version, master seed, a fingerprint of
//!   the full configuration, and the session count. A journal can only be
//!   resumed against the exact configuration that produced it.
//! * `session` — a session driver came up (index + operating point).
//! * `trial` — one absorbed trial: index, benchmark, verdict, wall time,
//!   strike telemetry, retry/quarantine bookkeeping and the EDAC records
//!   (epoch-relative, exactly as the runner produced them).
//! * `session_end` — the session reached a stopping rule.
//!
//! ## Fsync policy and torn-tail recovery
//!
//! Lines are buffered in memory and flushed + `fsync`'d at wave
//! boundaries (and at session start/end), so the crash-loss granularity
//! is one wave of trials — they are simply re-executed on resume, landing
//! on the same counter-derived streams. A crash mid-flush leaves a *torn
//! tail*: an unterminated final fragment, or a final line whose digest
//! does not verify. Recovery drops the tail and truncates the file back
//! to the last verified line. A digest failure *before* the final line is
//! not a torn write — it is corruption, and recovery refuses it loudly.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serscale_soc::edac::{EdacRecord, EdacSeverity};
use serscale_soc::platform::OperatingPoint;
use serscale_types::json::{self, JsonValue};
use serscale_types::{ArrayKind, SimDuration, SimInstant};
use serscale_workload::Benchmark;

use crate::campaign::CampaignConfig;
use crate::classify::RunVerdict;
use crate::runner::RunOutcome;
use crate::session::{StopReason, TrialExecution};

/// The journal format version; bumped on any schema change so a resume
/// against records from another version fails loudly instead of silently
/// diverging.
pub const JOURNAL_VERSION: u32 = 1;

/// The journal file name inside a journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The journal file path for a journal directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// FNV-1a over a byte string — the line digest and the config
/// fingerprint hash. Stable, dependency-free, and plenty for detecting
/// torn writes (this is not an integrity MAC).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fingerprint of the full campaign configuration (sessions, limits,
/// facility, Vmin source, seed). Two configs with the same fingerprint
/// replay the same trial grid, so a journal is only resumable against the
/// configuration that wrote it.
pub fn config_fingerprint(config: &CampaignConfig) -> u64 {
    fnv1a64(format!("{config:?}").as_bytes())
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The journal header: which campaign this is.
    Campaign {
        /// Format version ([`JOURNAL_VERSION`]).
        version: u32,
        /// The campaign master seed.
        seed: u64,
        /// [`config_fingerprint`] of the configuration.
        fingerprint: u64,
        /// How many sessions the campaign configures.
        sessions: u32,
    },
    /// A session driver came up.
    SessionStart {
        /// Session index in configuration order.
        session: u64,
        /// The operating point under test (consistency check on resume).
        point: OperatingPoint,
    },
    /// The canonical merge absorbed one trial.
    Trial {
        /// Session index the trial belongs to.
        session: u64,
        /// The absorbed execution.
        execution: TrialExecution,
    },
    /// The session reached a stopping rule.
    SessionEnd {
        /// Session index.
        session: u64,
        /// Why it stopped.
        reason: StopReason,
    },
}

impl Record {
    /// The header record for a configuration.
    pub fn campaign_header(config: &CampaignConfig) -> Self {
        Record::Campaign {
            version: JOURNAL_VERSION,
            seed: config.seed,
            fingerprint: config_fingerprint(config),
            sessions: u32::try_from(config.sessions.len()).expect("session count fits u32"),
        }
    }

    /// Serializes the record as one digest-carrying JSONL line (without
    /// the trailing newline).
    pub fn to_line(&self) -> String {
        let body = self.body_json();
        let crc = fnv1a64(body.as_bytes());
        format!("{},\"crc\":\"{crc:016x}\"}}", &body[..body.len() - 1])
    }

    /// The record as a JSON object *without* the digest field — the exact
    /// bytes the digest covers (with the closing brace).
    fn body_json(&self) -> String {
        match self {
            Record::Campaign {
                version,
                seed,
                fingerprint,
                sessions,
            } => format!(
                "{{\"rec\":\"campaign\",\"version\":{version},\"seed\":\"{seed:016x}\",\
                 \"fingerprint\":\"{fingerprint:016x}\",\"sessions\":{sessions}}}"
            ),
            Record::SessionStart { session, point } => format!(
                "{{\"rec\":\"session\",\"session\":{session},\"pmd_mv\":{},\"soc_mv\":{},\
                 \"freq_mhz\":{}}}",
                point.pmd.get(),
                point.soc.get(),
                point.frequency.get()
            ),
            Record::Trial { session, execution } => {
                let outcome = &execution.outcome;
                let (kind, notified) = verdict_to_parts(outcome.verdict);
                let mut edac = String::from("[");
                for (i, r) in outcome.edac.iter().enumerate() {
                    if i > 0 {
                        edac.push(',');
                    }
                    edac.push_str(&format!(
                        "[{},{},\"{}\"]",
                        json::number(r.time.as_secs()),
                        json::escape(&r.array.to_string()),
                        r.severity
                    ));
                }
                edac.push(']');
                format!(
                    "{{\"rec\":\"trial\",\"session\":{session},\"trial\":{},\"benchmark\":{},\
                     \"verdict\":\"{kind}\",\"ce_notified\":{notified},\"wall_s\":{},\
                     \"strikes\":{},\"retries\":{},\"quarantined\":{},\"edac\":{edac}}}",
                    execution.trial,
                    json::escape(&outcome.benchmark.to_string()),
                    json::number(outcome.wall_time.as_secs()),
                    outcome.sram_strikes,
                    execution.retries,
                    execution.quarantined,
                )
            }
            Record::SessionEnd { session, reason } => format!(
                "{{\"rec\":\"session_end\",\"session\":{session},\"reason\":\"{reason:?}\"}}"
            ),
        }
    }

    /// Parses one journal line, verifying its digest.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let crc_at = line
            .rfind(",\"crc\":\"")
            .ok_or_else(|| "line has no crc field".to_string())?;
        let body = format!("{}}}", &line[..crc_at]);
        let doc = json::parse(line)?;
        let claimed = doc
            .get("crc")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "crc is not a string".to_string())?;
        // Compared as the exact text `to_line` writes, so a flipped byte
        // anywhere in the line — even one that changes only the case of a
        // hex digit — fails the digest.
        if claimed != format!("{:016x}", fnv1a64(body.as_bytes())) {
            return Err("crc mismatch".to_string());
        }
        Self::from_json(&doc)
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let rec = doc
            .get("rec")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing rec tag".to_string())?;
        let field_u64 = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer {name}"))
        };
        let field_hex = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("missing {name}"))
                .and_then(|s| {
                    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {name}: {e}"))
                })
        };
        match rec {
            "campaign" => Ok(Record::Campaign {
                version: u32::try_from(field_u64("version")?)
                    .map_err(|_| "version out of range".to_string())?,
                seed: field_hex("seed")?,
                fingerprint: field_hex("fingerprint")?,
                sessions: u32::try_from(field_u64("sessions")?)
                    .map_err(|_| "session count out of range".to_string())?,
            }),
            "session" => {
                let mv = |name: &str| {
                    field_u64(name)
                        .and_then(|v| u32::try_from(v).map_err(|_| format!("{name} out of range")))
                };
                Ok(Record::SessionStart {
                    session: field_u64("session")?,
                    point: OperatingPoint {
                        pmd: serscale_types::Millivolts::new(mv("pmd_mv")?),
                        soc: serscale_types::Millivolts::new(mv("soc_mv")?),
                        frequency: serscale_types::Megahertz::new(mv("freq_mhz")?),
                    },
                })
            }
            "trial" => {
                let benchmark = doc
                    .get("benchmark")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "missing benchmark".to_string())
                    .and_then(benchmark_from_name)?;
                let kind = doc
                    .get("verdict")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "missing verdict".to_string())?;
                let notified = doc
                    .get("ce_notified")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| "missing ce_notified".to_string())?;
                let verdict = verdict_from_parts(kind, notified)?;
                let wall_s = doc
                    .get("wall_s")
                    .and_then(JsonValue::as_f64)
                    .filter(|w| w.is_finite() && *w >= 0.0)
                    .ok_or_else(|| "missing or invalid wall_s".to_string())?;
                let mut edac = Vec::new();
                for entry in doc
                    .get("edac")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "missing edac array".to_string())?
                {
                    let triple = entry
                        .as_array()
                        .filter(|t| t.len() == 3)
                        .ok_or_else(|| "edac entry is not a triple".to_string())?;
                    let t_s = triple[0]
                        .as_f64()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| "bad edac time".to_string())?;
                    let array = triple[1]
                        .as_str()
                        .ok_or_else(|| "bad edac array name".to_string())
                        .and_then(array_from_name)?;
                    let severity = triple[2]
                        .as_str()
                        .ok_or_else(|| "bad edac severity".to_string())
                        .and_then(severity_from_name)?;
                    edac.push(EdacRecord {
                        time: SimInstant::EPOCH + SimDuration::from_secs(t_s),
                        array,
                        severity,
                    });
                }
                Ok(Record::Trial {
                    session: field_u64("session")?,
                    execution: TrialExecution {
                        trial: field_u64("trial")?,
                        outcome: RunOutcome {
                            benchmark,
                            verdict,
                            edac,
                            wall_time: SimDuration::from_secs(wall_s),
                            sram_strikes: field_u64("strikes")?,
                        },
                        retries: u32::try_from(field_u64("retries")?)
                            .map_err(|_| "retries out of range".to_string())?,
                        quarantined: doc
                            .get("quarantined")
                            .and_then(JsonValue::as_bool)
                            .ok_or_else(|| "missing quarantined".to_string())?,
                    },
                })
            }
            "session_end" => {
                let reason = doc
                    .get("reason")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "missing reason".to_string())?;
                Ok(Record::SessionEnd {
                    session: field_u64("session")?,
                    reason: reason_from_name(reason)?,
                })
            }
            other => Err(format!("unknown record type {other:?}")),
        }
    }
}

fn verdict_to_parts(verdict: RunVerdict) -> (&'static str, bool) {
    match verdict {
        RunVerdict::Correct => ("ok", false),
        RunVerdict::Sdc {
            with_hw_notification,
        } => ("sdc", with_hw_notification),
        RunVerdict::AppCrash => ("app_crash", false),
        RunVerdict::SysCrash => ("sys_crash", false),
    }
}

fn verdict_from_parts(kind: &str, notified: bool) -> Result<RunVerdict, String> {
    match kind {
        "ok" => Ok(RunVerdict::Correct),
        "sdc" => Ok(RunVerdict::Sdc {
            with_hw_notification: notified,
        }),
        "app_crash" => Ok(RunVerdict::AppCrash),
        "sys_crash" => Ok(RunVerdict::SysCrash),
        other => Err(format!("unknown verdict {other:?}")),
    }
}

fn benchmark_from_name(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.to_string() == name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

fn array_from_name(name: &str) -> Result<ArrayKind, String> {
    ArrayKind::ALL
        .into_iter()
        .find(|a| a.to_string() == name)
        .ok_or_else(|| format!("unknown array {name:?}"))
}

fn severity_from_name(name: &str) -> Result<EdacSeverity, String> {
    match name {
        "CE" => Ok(EdacSeverity::Corrected),
        "UE" => Ok(EdacSeverity::Uncorrected),
        other => Err(format!("unknown severity {other:?}")),
    }
}

fn reason_from_name(name: &str) -> Result<StopReason, String> {
    match name {
        "ErrorEvents" => Ok(StopReason::ErrorEvents),
        "Fluence" => Ok(StopReason::Fluence),
        "BeamTime" => Ok(StopReason::BeamTime),
        other => Err(format!("unknown stop reason {other:?}")),
    }
}

/// The append side of the journal. Records are buffered in memory until
/// [`sync`](Self::sync) hands them to the OS — the wave engine calls
/// `sync` at every wave merge, making the wave the crash-loss granularity
/// for a *process* crash (the OS keeps written pages across a SIGKILL).
/// The costlier fdatasync — surviving a *machine* crash — is throttled to
/// once per [`FSYNC_INTERVAL`] of host time and forced by
/// [`sync_durable`](Self::sync_durable) when the journal is created and
/// when the writer drops, so journal overhead stays within the
/// campaign-throughput budget while a power loss costs at most
/// `FSYNC_INTERVAL` of replayable progress. Losing a journal suffix is
/// always safe: recovery simply re-simulates the missing trials on their
/// counter-derived streams.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    pending: String,
    last_fsync: Option<std::time::Instant>,
    /// Bytes handed to the OS since the last fdatasync.
    dirty: bool,
    /// Observe-only durability probe for the monitoring plane.
    probe: Option<SyncProbe>,
}

/// A shared, observe-only view of the journal's durability: how long ago
/// the last fdatasync landed. A monitoring endpoint holding a clone can
/// report fsync lag without any channel back into the writer — the probe
/// is a pair of atomics the writer stamps and readers load.
#[derive(Debug, Clone)]
pub struct SyncProbe {
    inner: std::sync::Arc<SyncProbeInner>,
}

#[derive(Debug)]
struct SyncProbeInner {
    epoch: std::time::Instant,
    /// Nanoseconds from `epoch` to the most recent fdatasync.
    last_sync_ns: std::sync::atomic::AtomicU64,
    /// Total fdatasyncs observed.
    syncs: std::sync::atomic::AtomicU64,
}

impl Default for SyncProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncProbe {
    /// A fresh probe; attach it with [`JournalWriter::attach_probe`].
    pub fn new() -> Self {
        SyncProbe {
            inner: std::sync::Arc::new(SyncProbeInner {
                epoch: std::time::Instant::now(),
                last_sync_ns: std::sync::atomic::AtomicU64::new(0),
                syncs: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    /// Records that an fdatasync just completed.
    fn mark(&self) {
        let now = u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.inner
            .last_sync_ns
            .store(now, std::sync::atomic::Ordering::Relaxed);
        self.inner
            .syncs
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    /// How many fdatasyncs the writer has completed.
    pub fn syncs(&self) -> u64 {
        self.inner.syncs.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Host time since the last completed fdatasync, or `None` before the
    /// first one. Bounded by [`FSYNC_INTERVAL`] plus one wave during a
    /// healthy run — a growing lag means the journal has stalled.
    pub fn lag(&self) -> Option<std::time::Duration> {
        if self.syncs() == 0 {
            return None;
        }
        let last = self
            .inner
            .last_sync_ns
            .load(std::sync::atomic::Ordering::Relaxed);
        let now = u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Some(std::time::Duration::from_nanos(now.saturating_sub(last)))
    }
}

/// Host-time throttle between fdatasyncs on the per-wave sync path.
pub const FSYNC_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);

impl JournalWriter {
    fn from_file(file: std::fs::File) -> Self {
        JournalWriter {
            file,
            pending: String::new(),
            last_fsync: None,
            dirty: false,
            probe: None,
        }
    }

    /// Attaches a [`SyncProbe`] the writer stamps on every fdatasync, so
    /// a monitoring endpoint can report fsync lag. Observe-only: the
    /// probe never changes what or when the writer syncs.
    pub fn attach_probe(&mut self, probe: SyncProbe) {
        self.probe = Some(probe);
    }

    /// Buffers one record. Nothing reaches the OS until
    /// [`sync`](Self::sync).
    pub fn append(&mut self, record: &Record) {
        self.pending.push_str(&record.to_line());
        self.pending.push('\n');
    }

    /// Hands buffered records to the OS. The buffer is cleared even when
    /// the write fails: a short write may already have put a torn prefix
    /// of it in the file, and writing it again would append duplicate
    /// records behind that torn line, which recovery refuses as mid-file
    /// corruption. Dropped records are re-simulated on resume.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(self.pending.as_bytes());
        self.pending.clear();
        self.dirty = true;
        written
    }

    fn fdatasync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.last_fsync = Some(std::time::Instant::now());
        self.dirty = false;
        if let Some(probe) = &self.probe {
            probe.mark();
        }
        Ok(())
    }

    /// Flushes buffered records to the OS, fdatasyncing at most once per
    /// [`FSYNC_INTERVAL`] (host time). Journal *content* never depends on
    /// when the fdatasync lands — only the machine-crash durability
    /// window does.
    ///
    /// # Errors
    ///
    /// Propagates the write or fsync failure — a journal that cannot
    /// reach stable storage cannot provide crash safety, so the engine
    /// stops the run with [`RunError::Journal`] rather than continue
    /// unjournaled.
    ///
    /// [`RunError::Journal`]: crate::campaign::RunError::Journal
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush()?;
        if self.dirty
            && self
                .last_fsync
                .is_none_or(|at| at.elapsed() >= FSYNC_INTERVAL)
        {
            self.fdatasync()?;
        }
        Ok(())
    }

    /// Flushes buffered records and fdatasyncs regardless of the
    /// throttle — the journal-creation and shutdown path.
    ///
    /// # Errors
    ///
    /// Propagates the write or fsync failure, like [`sync`](Self::sync).
    pub fn sync_durable(&mut self) -> std::io::Result<()> {
        self.flush()?;
        if self.dirty || self.last_fsync.is_none() {
            self.fdatasync()?;
        }
        Ok(())
    }
}

impl Drop for JournalWriter {
    /// Best-effort final flush+fsync so a writer dropped between session
    /// boundaries still leaves every buffered record durable.
    fn drop(&mut self) {
        let _ = self.sync_durable();
    }
}

/// One session's journaled history.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSession {
    /// Session index in configuration order.
    pub index: u64,
    /// The absorbed trials, in trial order (trial `i` at position `i`).
    pub trials: Vec<TrialExecution>,
    /// The journaled stop reason, if the session completed before the
    /// crash.
    pub ended: Option<StopReason>,
}

/// Everything a journal recovered about an interrupted campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveredCampaign {
    sessions: Vec<RecoveredSession>,
}

impl RecoveredCampaign {
    /// The recovered history for one session index, if the journal
    /// reached it.
    pub fn session(&self, index: u64) -> Option<&RecoveredSession> {
        self.sessions.iter().find(|s| s.index == index)
    }

    /// How many sessions the journal has any record of.
    pub fn sessions_seen(&self) -> usize {
        self.sessions.len()
    }

    /// Total journaled (replayable) trials across all sessions.
    pub fn trials_recovered(&self) -> u64 {
        self.sessions.iter().map(|s| s.trials.len() as u64).sum()
    }
}

fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Parses raw journal bytes into records, returning the records of the
/// verified prefix and its byte length. An unterminated or
/// digest-failing *final* line is a torn tail and is dropped; an invalid
/// line anywhere before that is corruption and errors.
fn parse_journal(bytes: &[u8]) -> Result<(Vec<Record>, usize), String> {
    let mut records = Vec::new();
    let mut valid = 0usize;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // Unterminated tail: torn write, drop it.
        };
        let line_end = offset + nl + 1;
        let line = std::str::from_utf8(&bytes[offset..offset + nl])
            .map_err(|_| "journal line is not UTF-8".to_string());
        match line.and_then(Record::parse_line) {
            Ok(record) => {
                records.push(record);
                valid = line_end;
                offset = line_end;
            }
            Err(e) => {
                if line_end >= bytes.len() {
                    break; // Invalid final line: torn flush, drop it.
                }
                return Err(format!("journal corrupted before the tail: {e}"));
            }
        }
    }
    Ok((records, valid))
}

/// Reads a journal file into its verified records without opening it for
/// writing — the offline-forensics path (`repro inspect`). Applies the
/// same torn-tail tolerance as recovery: an unterminated or
/// digest-failing *final* line is silently dropped, an invalid line
/// anywhere earlier is corruption.
///
/// # Errors
///
/// I/O errors reading the file, or a mid-file digest/parse failure.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<Record>> {
    let bytes = std::fs::read(path)?;
    let (records, _valid) = parse_journal(&bytes).map_err(invalid_data)?;
    Ok(records)
}

/// Folds the post-header records into per-session histories, validating
/// ordering against the configuration.
fn build_recovered(
    records: &[Record],
    config: &CampaignConfig,
) -> Result<RecoveredCampaign, String> {
    let mut sessions: Vec<RecoveredSession> = Vec::new();
    for record in records {
        match record {
            Record::Campaign { .. } => {
                return Err("duplicate campaign header".to_string());
            }
            Record::SessionStart { session, point } => {
                if *session != sessions.len() as u64 {
                    return Err(format!(
                        "session {session} started out of order (expected {})",
                        sessions.len()
                    ));
                }
                let configured = config
                    .sessions
                    .get(sessions.len())
                    .map(|(p, _)| *p)
                    .ok_or_else(|| format!("session {session} beyond configuration"))?;
                if *point != configured {
                    return Err(format!(
                        "session {session} ran at {point:?}, configuration says {configured:?}"
                    ));
                }
                sessions.push(RecoveredSession {
                    index: *session,
                    trials: Vec::new(),
                    ended: None,
                });
            }
            Record::Trial { session, execution } => {
                let current = sessions
                    .last_mut()
                    .filter(|s| s.index == *session)
                    .ok_or_else(|| format!("trial for session {session} before its start"))?;
                if current.ended.is_some() {
                    return Err(format!("trial after session {session} ended"));
                }
                if execution.trial != current.trials.len() as u64 {
                    return Err(format!(
                        "session {session} trial {} out of order (expected {})",
                        execution.trial,
                        current.trials.len()
                    ));
                }
                current.trials.push(execution.clone());
            }
            Record::SessionEnd { session, reason } => {
                let current = sessions
                    .last_mut()
                    .filter(|s| s.index == *session)
                    .ok_or_else(|| format!("end for session {session} before its start"))?;
                if current.ended.is_some() {
                    return Err(format!("session {session} ended twice"));
                }
                current.ended = Some(*reason);
            }
        }
    }
    Ok(RecoveredCampaign { sessions })
}

/// Opens (or creates) the journal for a campaign in `dir`.
///
/// * Fresh (missing or empty journal): writes and fsyncs the campaign
///   header and returns no recovered state.
/// * Existing journal: verifies the header against `config` (version,
///   seed, fingerprint, session count), recovers the per-session trial
///   histories, truncates any torn tail, and positions the writer to
///   append.
///
/// A journal whose header was itself torn away recovers as fresh.
///
/// # Errors
///
/// I/O errors, a mid-file digest failure (corruption, not a torn tail),
/// a header that does not match `config`, or records inconsistent with
/// the configured session order.
pub fn start_or_resume(
    dir: &Path,
    config: &CampaignConfig,
) -> std::io::Result<(JournalWriter, Option<RecoveredCampaign>)> {
    std::fs::create_dir_all(dir)?;
    let path = journal_path(dir);
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(&path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let (records, valid) = parse_journal(&bytes).map_err(invalid_data)?;
    if records.is_empty() {
        // Fresh journal (or one whose very first flush tore).
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        let mut writer = JournalWriter::from_file(file);
        writer.append(&Record::campaign_header(config));
        writer.sync_durable()?;
        return Ok((writer, None));
    }

    let expected = Record::campaign_header(config);
    if records[0] != expected {
        return Err(invalid_data(format!(
            "journal header {:?} does not match this campaign {expected:?}",
            records[0]
        )));
    }
    let recovered = build_recovered(&records[1..], config).map_err(invalid_data)?;

    file.set_len(valid as u64)?;
    file.seek(SeekFrom::Start(valid as u64))?;
    Ok((JournalWriter::from_file(file), Some(recovered)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("serscale-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> CampaignConfig {
        let mut c = CampaignConfig::paper_scaled(0.001);
        c.seed = 7;
        c
    }

    fn sample_execution(trial: u64) -> TrialExecution {
        TrialExecution {
            trial,
            outcome: RunOutcome {
                benchmark: Benchmark::ALL[(trial % 6) as usize],
                verdict: RunVerdict::Sdc {
                    with_hw_notification: true,
                },
                edac: vec![
                    EdacRecord {
                        time: SimInstant::EPOCH + SimDuration::from_secs(0.125),
                        array: ArrayKind::L2Unified,
                        severity: EdacSeverity::Corrected,
                    },
                    EdacRecord {
                        time: SimInstant::EPOCH + SimDuration::from_secs(2.8400000000000003),
                        array: ArrayKind::L3Shared,
                        severity: EdacSeverity::Uncorrected,
                    },
                ],
                wall_time: SimDuration::from_secs(3.0999999999999996),
                sram_strikes: 11,
            },
            retries: 1,
            quarantined: false,
        }
    }

    /// A failed write must not leave the batch queued: the writer's
    /// `Drop` would otherwise write it a second time behind the torn
    /// prefix the first attempt left.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_flush_drops_the_batch() {
        let full = OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let mut writer = JournalWriter::from_file(full);
        writer.append(&Record::campaign_header(&config()));
        assert!(writer.sync().is_err(), "a write to /dev/full must fail");
        assert!(writer.pending.is_empty(), "failed batch still queued");
    }

    #[test]
    fn every_record_type_round_trips() {
        let records = vec![
            Record::campaign_header(&config()),
            Record::SessionStart {
                session: 0,
                point: config().sessions[0].0,
            },
            Record::Trial {
                session: 0,
                execution: sample_execution(3),
            },
            Record::SessionEnd {
                session: 0,
                reason: StopReason::Fluence,
            },
        ];
        for record in records {
            let line = record.to_line();
            let parsed = Record::parse_line(&line).expect("round trip");
            assert_eq!(parsed, record, "line: {line}");
        }
    }

    #[test]
    fn digest_rejects_a_flipped_byte() {
        let line = Record::SessionEnd {
            session: 2,
            reason: StopReason::BeamTime,
        }
        .to_line();
        let tampered = line.replace("\"session\":2", "\"session\":3");
        assert!(Record::parse_line(&tampered).is_err());
    }

    #[test]
    fn fresh_journal_writes_a_verified_header() {
        let dir = temp_dir("fresh");
        let config = config();
        let (writer, recovered) = start_or_resume(&dir, &config).unwrap();
        assert!(recovered.is_none());
        drop(writer);
        let text = std::fs::read_to_string(journal_path(&dir)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            Record::parse_line(lines[0]).unwrap(),
            Record::campaign_header(&config)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_recovers_sessions_and_trials() {
        let dir = temp_dir("resume");
        let config = config();
        let (mut writer, _) = start_or_resume(&dir, &config).unwrap();
        writer.append(&Record::SessionStart {
            session: 0,
            point: config.sessions[0].0,
        });
        for t in 0..3 {
            writer.append(&Record::Trial {
                session: 0,
                execution: sample_execution(t),
            });
        }
        writer.append(&Record::SessionEnd {
            session: 0,
            reason: StopReason::BeamTime,
        });
        writer.append(&Record::SessionStart {
            session: 1,
            point: config.sessions[1].0,
        });
        writer.append(&Record::Trial {
            session: 1,
            execution: sample_execution(0),
        });
        writer.sync().unwrap();
        drop(writer);

        let (_, recovered) = start_or_resume(&dir, &config).unwrap();
        let recovered = recovered.expect("non-empty journal");
        assert_eq!(recovered.sessions_seen(), 2);
        assert_eq!(recovered.trials_recovered(), 4);
        let s0 = recovered.session(0).unwrap();
        assert_eq!(s0.trials.len(), 3);
        assert_eq!(s0.ended, Some(StopReason::BeamTime));
        assert_eq!(s0.trials[1], sample_execution(1));
        let s1 = recovered.session(1).unwrap();
        assert_eq!(s1.ended, None);
        assert_eq!(s1.trials.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_unterminated_tail_is_truncated() {
        let dir = temp_dir("torn-tail");
        let config = config();
        let (mut writer, _) = start_or_resume(&dir, &config).unwrap();
        writer.append(&Record::SessionStart {
            session: 0,
            point: config.sessions[0].0,
        });
        writer.sync().unwrap();
        drop(writer);
        let path = journal_path(&dir);
        let intact = std::fs::read(&path).unwrap();
        // Simulate a flush torn mid-record: a fragment with no newline.
        let mut torn = intact.clone();
        torn.extend_from_slice(b"{\"rec\":\"trial\",\"session\":0,\"tri");
        std::fs::write(&path, &torn).unwrap();

        let (_, recovered) = start_or_resume(&dir, &config).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.sessions_seen(), 1);
        assert_eq!(recovered.trials_recovered(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "tail truncated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_with_bad_digest_is_truncated() {
        let dir = temp_dir("torn-crc");
        let config = config();
        let (mut writer, _) = start_or_resume(&dir, &config).unwrap();
        writer.append(&Record::SessionStart {
            session: 0,
            point: config.sessions[0].0,
        });
        writer.sync().unwrap();
        drop(writer);
        let path = journal_path(&dir);
        let intact = std::fs::read(&path).unwrap();
        // A terminated final line whose digest does not verify.
        let mut torn = intact.clone();
        let mut bad = Record::SessionEnd {
            session: 0,
            reason: StopReason::Fluence,
        }
        .to_line()
        .into_bytes();
        let flip = bad.len() / 2;
        bad[flip] ^= 0x01;
        torn.extend_from_slice(&bad);
        torn.push(b'\n');
        std::fs::write(&path, &torn).unwrap();

        let (_, recovered) = start_or_resume(&dir, &config).unwrap();
        let recovered = recovered.unwrap();
        assert_eq!(recovered.session(0).unwrap().ended, None);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "tail truncated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_refused() {
        let dir = temp_dir("corrupt");
        let config = config();
        let (mut writer, _) = start_or_resume(&dir, &config).unwrap();
        writer.append(&Record::SessionStart {
            session: 0,
            point: config.sessions[0].0,
        });
        writer.append(&Record::SessionEnd {
            session: 0,
            reason: StopReason::BeamTime,
        });
        writer.sync().unwrap();
        drop(writer);
        let path = journal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the *second* line (mid-file, lines follow it).
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = start_or_resume(&dir, &config).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupted"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_for_a_different_campaign_is_refused() {
        let dir = temp_dir("mismatch");
        let (writer, _) = start_or_resume(&dir, &config()).unwrap();
        drop(writer);
        let mut other = config();
        other.seed = 8;
        let err = start_or_resume(&dir, &other).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_for_a_different_platform_is_refused() {
        // The platform spec folds into the config fingerprint, so an
        // X-Gene journal must never silently resume as a Zynq run.
        let dir = temp_dir("platform-mismatch");
        let (writer, _) = start_or_resume(&dir, &config()).unwrap();
        drop(writer);
        let mut zynq =
            CampaignConfig::for_platform_scaled(&serscale_soc::PlatformSpec::zynq_mpsoc(), 0.001);
        zynq.seed = 7;
        let err = start_or_resume(&dir, &zynq).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_tracks_the_configuration() {
        let a = config_fingerprint(&config());
        assert_eq!(a, config_fingerprint(&config()), "deterministic");
        let mut scaled = config();
        scaled.sessions.truncate(2);
        assert_ne!(a, config_fingerprint(&scaled));
        // A different platform alone moves the fingerprint too.
        let zynq =
            CampaignConfig::for_platform_scaled(&serscale_soc::PlatformSpec::zynq_mpsoc(), 0.001);
        assert_ne!(config_fingerprint(&config()), {
            let mut z = zynq;
            z.seed = 7;
            config_fingerprint(&z)
        });
    }

    #[test]
    fn out_of_order_trials_are_refused() {
        let dir = temp_dir("order");
        let config = config();
        let (mut writer, _) = start_or_resume(&dir, &config).unwrap();
        writer.append(&Record::SessionStart {
            session: 0,
            point: config.sessions[0].0,
        });
        writer.append(&Record::Trial {
            session: 0,
            execution: sample_execution(5), // expected trial 0
        });
        // A later record keeps the bad one off the tail (tails are
        // forgiven as torn writes; mid-file inconsistency is not).
        writer.append(&Record::SessionEnd {
            session: 0,
            reason: StopReason::BeamTime,
        });
        writer.sync().unwrap();
        drop(writer);
        let err = start_or_resume(&dir, &config).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of order"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
