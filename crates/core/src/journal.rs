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
//!
//! ## Reading
//!
//! Every reader streams the file through one [`READ_BUFFER`]-byte buffer,
//! a line at a time, and decodes each line against the exact layout the
//! writer produces: the members in the writer's order with their literal
//! keys, integers as plain digits, strings without escapes. A line in any
//! other layout is refused even when its digest verifies; no writer ever
//! produced one.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serscale_soc::edac::{EdacRecord, EdacSeverity};
use serscale_soc::platform::OperatingPoint;
use serscale_types::json::{self, Reader, Token};
use serscale_types::{ArrayKind, Megahertz, Millivolts, SimDuration, SimInstant};
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
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes.
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest a journal line carries: FNV-1a over the record's JSON
/// body, which is the line up to its `,"crc":"` field followed by `}`.
fn line_digest(prefix: &str) -> u64 {
    fnv1a64_extend(fnv1a64(prefix.as_bytes()), b"}")
}

/// The digest field's text before its 16 hex digits; `"}` follows them
/// and ends the line.
const CRC_KEY: &str = ",\"crc\":\"";

/// The length of the digest field at the end of every line.
const CRC_FIELD_LEN: usize = CRC_KEY.len() + 16 + 2;

/// The capacity of the one buffer each journal pass streams the file
/// through.
const READ_BUFFER: usize = 64 * 1024;

/// The largest integer a JSON double carries exactly, as
/// [`json::exact_u64`] bounds it.
const EXACT_INT: u64 = 1 << 53;

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
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Appends the record to `out` as [`to_line`](Self::to_line) writes
    /// it.
    fn write_line(&self, out: &mut String) {
        write_digested(out, |out| self.write_body(out));
    }

    /// Appends the record as a JSON object *without* the digest field or
    /// the closing brace: the bytes the digest covers, up to its `}`.
    fn write_body(&self, out: &mut String) {
        match self {
            Record::Campaign {
                version,
                seed,
                fingerprint,
                sessions,
            } => {
                let _ = write!(
                    out,
                    "{{\"rec\":\"campaign\",\"version\":{version},\"seed\":\"{seed:016x}\",\
                     \"fingerprint\":\"{fingerprint:016x}\",\"sessions\":{sessions}"
                );
            }
            Record::SessionStart { session, point } => {
                let _ = write!(
                    out,
                    "{{\"rec\":\"session\",\"session\":{session},\"pmd_mv\":{},\"soc_mv\":{},\
                     \"freq_mhz\":{}",
                    point.pmd.get(),
                    point.soc.get(),
                    point.frequency.get()
                );
            }
            Record::Trial { session, execution } => write_trial_body(out, *session, execution),
            Record::SessionEnd { session, reason } => {
                let _ = write!(
                    out,
                    "{{\"rec\":\"session_end\",\"session\":{session},\"reason\":\"{reason:?}\""
                );
            }
        }
    }

    /// Parses one journal line, verifying its digest before it reads any
    /// field.
    ///
    /// The line must be laid out byte for byte as
    /// [`to_line`](Self::to_line) lays it out: the members in the
    /// writer's order with their literal keys, no whitespace, integers as
    /// plain digits, strings without escapes, and nothing after the digest
    /// field. Every field keeps its type and range check.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let mut body = Body {
            rest: verified_body(line)?,
        };
        let record = body.record()?;
        if !body.rest.is_empty() {
            return Err(format!(
                "unexpected bytes after the last member: {:?}",
                body.rest
            ));
        }
        Ok(record)
    }
}

/// The bytes `line`'s digest covers, once the digest field at the line's
/// end verifies against them.
fn verified_body(line: &str) -> Result<&str, String> {
    let body_len = line
        .len()
        .checked_sub(CRC_FIELD_LEN)
        .ok_or_else(|| "line has no crc field".to_string())?;
    let claimed = line
        .get(body_len..)
        .and_then(|field| field.strip_prefix(CRC_KEY))
        .and_then(|field| field.strip_suffix("\"}"))
        .ok_or_else(|| "line has no crc field".to_string())?;
    let body = &line[..body_len];
    // Compared as the exact text `to_line` writes, 16 lowercase hex
    // digits, so a flipped byte anywhere in the line — even one that
    // changes only the case of a hex digit — fails the digest.
    let lowercase_hex = claimed
        .bytes()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !lowercase_hex || u64::from_str_radix(claimed, 16) != Ok(line_digest(body)) {
        return Err("crc mismatch".to_string());
    }
    Ok(body)
}

/// A cursor over a verified line body that reads the members in the
/// order, and with the bytes, that [`Record::write_body`] and
/// [`write_trial_body`] write them: the decoder is the encoder's mirror
/// image.
struct Body<'a> {
    /// The bytes not yet read.
    rest: &'a str,
}

impl<'a> Body<'a> {
    fn record(&mut self) -> Result<Record, String> {
        self.literal("{\"rec\":")?;
        Ok(match self.quoted("rec tag")? {
            "campaign" => Record::Campaign {
                version: self.u32("version")?,
                seed: self.hex("seed")?,
                fingerprint: self.hex("fingerprint")?,
                sessions: self.u32("sessions")?,
            },
            "session" => Record::SessionStart {
                session: self.int("session")?,
                point: OperatingPoint {
                    pmd: Millivolts::new(self.u32("pmd_mv")?),
                    soc: Millivolts::new(self.u32("soc_mv")?),
                    frequency: Megahertz::new(self.u32("freq_mhz")?),
                },
            },
            "trial" => {
                let session = self.int("session")?;
                let trial = self.int("trial")?;
                let benchmark = benchmark_from_name(self.text("benchmark")?)?;
                let kind = self.text("verdict")?;
                let verdict = verdict_from_parts(kind, self.flag("ce_notified")?)?;
                self.key("wall_s")?;
                let wall_s = self.time("wall_s")?;
                let sram_strikes = self.int("strikes")?;
                let retries = self.u32("retries")?;
                let quarantined = self.flag("quarantined")?;
                self.key("edac")?;
                let edac = self.edac()?;
                Record::Trial {
                    session,
                    execution: TrialExecution {
                        trial,
                        outcome: RunOutcome {
                            benchmark,
                            verdict,
                            edac,
                            wall_time: SimDuration::from_secs(wall_s),
                            sram_strikes,
                        },
                        retries,
                        quarantined,
                    },
                }
            }
            "session_end" => Record::SessionEnd {
                session: self.int("session")?,
                reason: reason_from_name(self.text("reason")?)?,
            },
            other => return Err(format!("unknown record type {other:?}")),
        })
    }

    /// A trial's `edac` array: `[time,"array","severity"]` triples.
    fn edac(&mut self) -> Result<Vec<EdacRecord>, String> {
        self.literal("[")?;
        let mut edac = Vec::new();
        while !self.eat("]") {
            if !edac.is_empty() {
                self.literal(",")?;
            }
            self.literal("[")?;
            let t_s = self.time("edac time")?;
            self.literal(",")?;
            let array = array_from_name(self.quoted("edac array name")?)?;
            self.literal(",")?;
            let severity = severity_from_name(self.quoted("edac severity")?)?;
            self.literal("]")?;
            edac.push(EdacRecord {
                time: SimInstant::EPOCH + SimDuration::from_secs(t_s),
                array,
                severity,
            });
        }
        Ok(edac)
    }

    /// Consumes `text` if the unread bytes start with it.
    fn eat(&mut self, text: &str) -> bool {
        match self.rest.strip_prefix(text) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes the writer's fixed `text`.
    fn literal(&mut self, text: &str) -> Result<(), String> {
        if self.eat(text) {
            Ok(())
        } else {
            Err(format!("expected {text:?} before {:?}", self.rest))
        }
    }

    /// Consumes `,"key":`, the bytes before every member's value but the
    /// first.
    fn key(&mut self, key: &str) -> Result<(), String> {
        let rest = self
            .rest
            .strip_prefix(",\"")
            .and_then(|rest| rest.strip_prefix(key))
            .and_then(|rest| rest.strip_prefix("\":"))
            .ok_or_else(|| format!("expected member {key:?} before {:?}", self.rest))?;
        self.rest = rest;
        Ok(())
    }

    /// A quoted string's text. The writer escapes nothing, so the string
    /// ends at the next quote, and an escape is read as text that no name
    /// matches.
    fn quoted(&mut self, what: &str) -> Result<&'a str, String> {
        let (text, rest) = self
            .rest
            .strip_prefix('"')
            .and_then(|rest| rest.split_once('"'))
            .ok_or_else(|| format!("missing {what}"))?;
        self.rest = rest;
        Ok(text)
    }

    /// A string member's text.
    fn text(&mut self, key: &str) -> Result<&'a str, String> {
        self.key(key)?;
        self.quoted(key)
    }

    /// An integer member: plain digits with no sign and no leading zero,
    /// at most 2^53.
    fn int(&mut self, key: &str) -> Result<u64, String> {
        self.key(key)?;
        let digits = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        let (text, rest) = self.rest.split_at(digits);
        let value = match text.as_bytes() {
            [b'0', _, ..] => None,
            _ => text.parse::<u64>().ok().filter(|&n| n <= EXACT_INT),
        };
        self.rest = rest;
        value.ok_or_else(|| format!("missing or non-integer {key}"))
    }

    /// An integer member in `u32` range.
    fn u32(&mut self, key: &str) -> Result<u32, String> {
        u32::try_from(self.int(key)?).map_err(|_| format!("{key} out of range"))
    }

    /// A `u64` member written as a hex string (the seed and fingerprint).
    fn hex(&mut self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.text(key)?, 16).map_err(|e| format!("bad hex {key}: {e}"))
    }

    /// A `true` / `false` member.
    fn flag(&mut self, key: &str) -> Result<bool, String> {
        self.key(key)?;
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            Err(format!("missing {key}"))
        }
    }

    /// A time in seconds, read by the codec's number rule and required
    /// finite and non-negative.
    fn time(&mut self, what: &str) -> Result<f64, String> {
        let invalid = || format!("missing or invalid {what}");
        // The reader skips whitespace, which the writer never puts here.
        if !self
            .rest
            .starts_with(|c: char| c == '-' || c.is_ascii_digit())
        {
            return Err(invalid());
        }
        let mut reader = Reader::new(self.rest);
        let Ok(token @ Token::Number(t)) = reader.next_value() else {
            return Err(invalid());
        };
        // A scalar's source text is exactly the bytes the reader consumed.
        let read = reader.skip(token).map_err(|_| invalid())?.len();
        self.rest = &self.rest[read..];
        if t.is_finite() && t >= 0.0 {
            Ok(t)
        } else {
            Err(invalid())
        }
    }
}

/// Appends one digest-carrying line to `out`: the body `write_body`
/// appends, then the digest of exactly those bytes and the closing brace.
fn write_digested(out: &mut String, write_body: impl FnOnce(&mut String)) {
    let start = out.len();
    write_body(out);
    let crc = line_digest(&out[start..]);
    let _ = write!(out, ",\"crc\":\"{crc:016x}\"}}");
}

/// The body of a `Trial` record, written from a borrowed execution.
fn write_trial_body(out: &mut String, session: u64, execution: &TrialExecution) {
    let outcome = &execution.outcome;
    let (kind, notified) = verdict_to_parts(outcome.verdict);
    let _ = write!(
        out,
        "{{\"rec\":\"trial\",\"session\":{session},\"trial\":{},\"benchmark\":",
        execution.trial
    );
    json::write_escaped(out, outcome.benchmark.name());
    let _ = write!(
        out,
        ",\"verdict\":\"{kind}\",\"ce_notified\":{notified},\"wall_s\":"
    );
    json::write_number(out, outcome.wall_time.as_secs());
    let _ = write!(
        out,
        ",\"strikes\":{},\"retries\":{},\"quarantined\":{},\"edac\":[",
        outcome.sram_strikes, execution.retries, execution.quarantined
    );
    for (i, r) in outcome.edac.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        json::write_number(out, r.time.as_secs());
        out.push(',');
        json::write_escaped(out, r.array.name());
        let _ = write!(out, ",\"{}\"]", r.severity);
    }
    out.push(']');
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
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

fn array_from_name(name: &str) -> Result<ArrayKind, String> {
    ArrayKind::ALL
        .into_iter()
        .find(|a| a.name() == name)
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
        record.write_line(&mut self.pending);
        self.pending.push('\n');
    }

    /// Buffers the `Trial` record of one absorbed execution, byte for
    /// byte what [`append`](Self::append) writes for
    /// [`Record::Trial`], without copying the execution into a record.
    pub fn append_trial(&mut self, session: u64, execution: &TrialExecution) {
        write_digested(&mut self.pending, |out| {
            write_trial_body(out, session, execution);
        });
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

/// The verified records of a journal stream, decoded one line at a time
/// into one reused line buffer. An unterminated or invalid *final* line
/// is a torn tail and ends the stream quietly; an invalid line anywhere
/// before that is corruption, yielded once as an `InvalidData` error that
/// ends the stream, as is a read error.
struct Records<R> {
    reader: R,
    line: Vec<u8>,
    /// Byte length of the verified prefix yielded so far.
    valid: u64,
    done: bool,
}

impl<R: BufRead> Records<R> {
    fn new(reader: R) -> Self {
        Records {
            reader,
            line: Vec::new(),
            valid: 0,
            done: false,
        }
    }

    /// The next item, or `None` at the end of the verified records.
    fn read(&mut self) -> Option<std::io::Result<Record>> {
        self.line.clear();
        if let Err(e) = self.reader.read_until(b'\n', &mut self.line) {
            return Some(Err(e));
        }
        // No newline: an unterminated tail is a torn write, drop it.
        let (b'\n', line) = self.line.split_last()? else {
            return None;
        };
        let record = std::str::from_utf8(line)
            .map_err(|_| "journal line is not UTF-8".to_string())
            .and_then(Record::parse_line);
        match record {
            Ok(record) => {
                self.valid += self.line.len() as u64;
                Some(Ok(record))
            }
            // An invalid final line is a torn flush: drop it too.
            Err(e) => match self.reader.fill_buf() {
                Ok([]) => None,
                Ok(_) => Some(Err(invalid_data(format!(
                    "journal corrupted before the tail: {e}"
                )))),
                Err(e) => Some(Err(e)),
            },
        }
    }
}

impl<R: BufRead> Iterator for Records<R> {
    type Item = std::io::Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.read();
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
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
    let mut records = Vec::new();
    for_each_record(path, |record| records.push(record))?;
    Ok(records)
}

/// Streams a journal file's verified records through `each`, in order,
/// holding one record at a time: [`read_journal`] as a fold, for readers
/// that summarize a journal rather than keep it.
///
/// # Errors
///
/// As [`read_journal`]. Records before a mid-file failure have already
/// reached `each`.
pub fn for_each_record(path: &Path, mut each: impl FnMut(Record)) -> std::io::Result<()> {
    let file = File::open(path)?;
    for record in Records::new(BufReader::with_capacity(READ_BUFFER, file)) {
        each(record?);
    }
    Ok(())
}

/// Folds the post-header records into per-session histories, validating
/// ordering against the configuration.
fn build_recovered(
    records: impl Iterator<Item = std::io::Result<Record>>,
    config: &CampaignConfig,
) -> std::io::Result<RecoveredCampaign> {
    let mut sessions = Vec::new();
    for record in records {
        recover_record(&mut sessions, record?, config).map_err(invalid_data)?;
    }
    Ok(RecoveredCampaign { sessions })
}

/// Files one post-header record into its session's history.
fn recover_record(
    sessions: &mut Vec<RecoveredSession>,
    record: Record,
    config: &CampaignConfig,
) -> Result<(), String> {
    match record {
        Record::Campaign { .. } => {
            return Err("duplicate campaign header".to_string());
        }
        Record::SessionStart { session, point } => {
            if session != sessions.len() as u64 {
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
            if point != configured {
                return Err(format!(
                    "session {session} ran at {point:?}, configuration says {configured:?}"
                ));
            }
            sessions.push(RecoveredSession {
                index: session,
                trials: Vec::new(),
                ended: None,
            });
        }
        Record::Trial { session, execution } => {
            let current = sessions
                .last_mut()
                .filter(|s| s.index == session)
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
            current.trials.push(execution);
        }
        Record::SessionEnd { session, reason } => {
            let current = sessions
                .last_mut()
                .filter(|s| s.index == session)
                .ok_or_else(|| format!("end for session {session} before its start"))?;
            if current.ended.is_some() {
                return Err(format!("session {session} ended twice"));
            }
            current.ended = Some(reason);
        }
    }
    Ok(())
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
    let Some((recovered, valid)) = recover(&file, config)? else {
        // Fresh journal (or one whose very first flush tore).
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        let mut writer = JournalWriter::from_file(file);
        writer.append(&Record::campaign_header(config));
        writer.sync_durable()?;
        return Ok((writer, None));
    };
    file.set_len(valid)?;
    file.seek(SeekFrom::Start(valid))?;
    Ok((JournalWriter::from_file(file), Some(recovered)))
}

/// Reads an open journal into its recovered campaign and the byte length
/// of its verified prefix, or `None` when not even the header survived.
fn recover(
    file: &File,
    config: &CampaignConfig,
) -> std::io::Result<Option<(RecoveredCampaign, u64)>> {
    let mut records = Records::new(BufReader::with_capacity(READ_BUFFER, file));
    let Some(header) = records.next() else {
        return Ok(None);
    };
    let header = header?;
    let expected = Record::campaign_header(config);
    if header != expected {
        return Err(invalid_data(format!(
            "journal header {header:?} does not match this campaign {expected:?}"
        )));
    }
    let recovered = build_recovered(&mut records, config)?;
    Ok(Some((recovered, records.valid)))
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

    /// The merge journals each absorbed execution through the borrowing
    /// append; its bytes must be exactly the `Trial` record's.
    #[test]
    fn borrowed_trial_append_writes_the_record_bytes() {
        let dir = temp_dir("append-trial");
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| std::fs::File::create(dir.join(name)).unwrap();
        let (mut borrowed, mut owned) = (
            JournalWriter::from_file(file("a")),
            JournalWriter::from_file(file("b")),
        );
        for trial in [0, 3, 17] {
            let execution = sample_execution(trial);
            borrowed.append_trial(2, &execution);
            owned.append(&Record::Trial {
                session: 2,
                execution,
            });
        }
        assert_eq!(borrowed.pending, owned.pending);
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The journal's bytes are a format. These lines were captured from
    /// the encoder that built each line with `format!`; the in-place
    /// encoder must write them byte for byte and the decoder read them
    /// back.
    #[test]
    fn record_lines_are_pinned() {
        let point = OperatingPoint {
            pmd: Millivolts::new(920),
            soc: Millivolts::new(950),
            frequency: Megahertz::new(2400),
        };
        let pins = [
            (
                Record::Campaign {
                    version: JOURNAL_VERSION,
                    seed: 0x0010_57ed,
                    fingerprint: 0x0123_4567_89ab_cdef,
                    sessions: 5,
                },
                r#"{"rec":"campaign","version":1,"seed":"00000000001057ed","fingerprint":"0123456789abcdef","sessions":5,"crc":"a635572256cb0c7d"}"#,
            ),
            (
                Record::SessionStart { session: 1, point },
                r#"{"rec":"session","session":1,"pmd_mv":920,"soc_mv":950,"freq_mhz":2400,"crc":"03b1a7d54c789f49"}"#,
            ),
            (
                Record::Trial {
                    session: 1,
                    execution: sample_execution(3),
                },
                r#"{"rec":"trial","session":1,"trial":3,"benchmark":"IS","verdict":"sdc","ce_notified":true,"wall_s":3.0999999999999996,"strikes":11,"retries":1,"quarantined":false,"edac":[[0.125,"L2","CE"],[2.8400000000000003,"L3","UE"]],"crc":"af869f3096da90c5"}"#,
            ),
            (
                Record::SessionEnd {
                    session: 1,
                    reason: StopReason::ErrorEvents,
                },
                r#"{"rec":"session_end","session":1,"reason":"ErrorEvents","crc":"ade6345035042847"}"#,
            ),
        ];
        let mut pending = String::from("earlier bytes\n");
        for (record, line) in &pins {
            assert_eq!(record.to_line(), *line);
            assert_eq!(Record::parse_line(line).as_ref(), Ok(record), "{line}");
            // Appended behind other bytes, the digest covers only the line.
            record.write_line(&mut pending);
            assert!(pending.ends_with(line), "{pending}");
        }
    }

    /// The decoder reads only the writer's layout. Each variant below
    /// carries a valid digest, so only its layout can refuse it; a decoder
    /// that walks the line as general JSON accepts all nine.
    #[test]
    fn only_the_writers_layout_decodes() {
        let golden = Record::Trial {
            session: 1,
            execution: sample_execution(3),
        }
        .to_line();
        let body = &golden[..golden.len() - CRC_FIELD_LEN];
        let digested = |body: &str| format!("{body}{CRC_KEY}{:016x}\"}}", line_digest(body));
        assert_eq!(digested(body), golden);
        assert!(Record::parse_line(&golden).is_ok());
        let edit = |from: &str, to: &str| {
            assert!(body.contains(from), "{from} not in {body}");
            digested(&body.replacen(from, to, 1))
        };
        let variants = [
            (
                "members in another order",
                edit(
                    "\"strikes\":11,\"retries\":1",
                    "\"retries\":1,\"strikes\":11",
                ),
            ),
            ("a space after a colon", edit("\"trial\":3", "\"trial\": 3")),
            ("a trailing carriage return", format!("{golden}\r")),
            (
                "an unknown member",
                digested(&format!("{body},\"note\":\"x\"")),
            ),
            (
                "a duplicated member",
                edit("\"trial\":3", "\"trial\":3,\"trial\":3"),
            ),
            (
                "an integer written 1.0",
                edit("\"retries\":1", "\"retries\":1.0"),
            ),
            (
                "an integer written 01",
                edit("\"retries\":1", "\"retries\":01"),
            ),
            (
                "an integer written -0",
                edit("\"session\":1", "\"session\":-0"),
            ),
            ("an escaped name", edit("\"IS\"", "\"\\u0049S\"")),
        ];
        for (what, line) in variants {
            assert!(Record::parse_line(&line).is_err(), "{what} decoded: {line}");
        }
    }

    /// A finite, non-negative `f64` from `bits`. The top two bits pick a
    /// class a campaign's times rarely or never reach: subnormal (or
    /// zero), integral below 1e15 (written with `.0`), at least 2^50
    /// (written without), or anything finite.
    fn drawn_time(bits: u64) -> f64 {
        const MANTISSA: u64 = (1 << 52) - 1;
        let (mantissa, pick) = (bits & MANTISSA, (bits >> 52) & 0x3ff);
        let exponent = match bits >> 62 {
            0 => 0,
            1 => return (mantissa % 1_000_000_000_000_000) as f64,
            2 => 1073 + pick % 974,
            _ => pick * 2,
        };
        f64::from_bits(exponent << 52 | mantissa)
    }

    /// An integer up to 2^53 from `bits`, both ends included.
    fn drawn_int(bits: u64) -> u64 {
        match bits % 4 {
            0 => 0,
            1 => EXACT_INT,
            _ => (bits >> 2) % (EXACT_INT + 1),
        }
    }

    /// A `u32` from `bits`, both ends included.
    fn drawn_u32(bits: u64) -> u32 {
        match bits % 4 {
            0 => 0,
            1 => u32::MAX,
            _ => (bits >> 2) as u32,
        }
    }

    /// A record of a kind and content drawn from `draws`.
    fn drawn_record(draws: &[u64]) -> Record {
        let mut draws = draws.iter().copied();
        let mut next = move || draws.next().expect("enough draws");
        match next() % 4 {
            0 => Record::Campaign {
                version: drawn_u32(next()),
                seed: next(),
                fingerprint: next(),
                sessions: drawn_u32(next()),
            },
            1 => Record::SessionStart {
                session: drawn_int(next()),
                point: OperatingPoint {
                    pmd: Millivolts::new(drawn_u32(next())),
                    soc: Millivolts::new(drawn_u32(next())),
                    frequency: Megahertz::new(drawn_u32(next())),
                },
            },
            2 => {
                let verdicts = [
                    RunVerdict::Correct,
                    RunVerdict::Sdc {
                        with_hw_notification: false,
                    },
                    RunVerdict::Sdc {
                        with_hw_notification: true,
                    },
                    RunVerdict::AppCrash,
                    RunVerdict::SysCrash,
                ];
                let mut pick = |n: usize| (next() % n as u64) as usize;
                let (benchmark, verdict) = (Benchmark::ALL[pick(6)], verdicts[pick(5)]);
                let edac = (0..pick(5))
                    .map(|_| EdacRecord {
                        time: SimInstant::EPOCH + SimDuration::from_secs(drawn_time(next())),
                        array: ArrayKind::ALL[(next() % ArrayKind::ALL.len() as u64) as usize],
                        severity: [EdacSeverity::Corrected, EdacSeverity::Uncorrected]
                            [(next() % 2) as usize],
                    })
                    .collect();
                Record::Trial {
                    session: drawn_int(next()),
                    execution: TrialExecution {
                        trial: drawn_int(next()),
                        outcome: RunOutcome {
                            benchmark,
                            verdict,
                            edac,
                            wall_time: SimDuration::from_secs(drawn_time(next())),
                            sram_strikes: drawn_int(next()),
                        },
                        retries: drawn_u32(next()),
                        quarantined: next() % 2 == 0,
                    },
                }
            }
            _ => Record::SessionEnd {
                session: drawn_int(next()),
                reason: [
                    StopReason::ErrorEvents,
                    StopReason::Fluence,
                    StopReason::BeamTime,
                ][(next() % 3) as usize],
            },
        }
    }

    proptest::proptest! {
        /// Every record the writer can produce decodes to itself,
        /// including values no golden journal holds.
        #[test]
        fn drawn_records_round_trip(
            draws in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 80),
        ) {
            let record = drawn_record(&draws);
            let line = record.to_line();
            proptest::prop_assert_eq!(Record::parse_line(&line), Ok(record), "{}", line);
        }
    }

    /// What [`Records`] makes of `bytes` read through a buffer of
    /// `capacity`: the records, the verified length and the error that
    /// ended the stream.
    fn read_through(bytes: &[u8], capacity: usize) -> (Vec<Record>, u64, Option<String>) {
        let mut records = Records::new(std::io::BufReader::with_capacity(capacity, bytes));
        let mut read = Vec::new();
        let mut error = None;
        for record in &mut records {
            match record {
                Ok(record) => read.push(record),
                Err(e) => error = Some(e.to_string()),
            }
        }
        (read, records.valid, error)
    }

    /// The reader's buffer size is invisible: a line split across any
    /// number of refills reads as the same record, and the torn-tail rule
    /// gives the same verdict, at every capacity.
    #[test]
    fn the_read_buffer_size_changes_nothing() {
        let config = config();
        let mut records = vec![
            Record::campaign_header(&config),
            Record::SessionStart {
                session: 0,
                point: config.sessions[0].0,
            },
        ];
        records.extend((0..3).map(|t| Record::Trial {
            session: 0,
            execution: sample_execution(t),
        }));
        records.push(Record::SessionEnd {
            session: 0,
            reason: StopReason::Fluence,
        });
        let mut journal = Vec::new();
        let mut ends = Vec::new();
        for record in &records {
            journal.extend_from_slice(record.to_line().as_bytes());
            journal.push(b'\n');
            ends.push(journal.len());
        }
        let same_at_every_capacity = |bytes: &[u8]| {
            let whole = read_through(bytes, bytes.len().max(1));
            for capacity in [1, 7, 64] {
                assert_eq!(read_through(bytes, capacity), whole, "capacity {capacity}");
            }
            whole
        };

        for cut in 0..=journal.len() {
            let (read, valid, error) = same_at_every_capacity(&journal[..cut]);
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(read, records[..complete], "cut at {cut}");
            assert_eq!(valid, ends[..complete].last().map_or(0, |&e| e as u64));
            assert_eq!(error, None, "cut at {cut}");
        }

        let mut flipped = journal.clone();
        flipped[ends[2] + 20] ^= 0x01;
        let (read, valid, error) = same_at_every_capacity(&flipped);
        assert_eq!(read, records[..3]);
        assert_eq!(valid, ends[2] as u64);
        assert!(error.is_some_and(|e| e.contains("corrupted")));

        let mut torn = journal.clone();
        torn[ends[ends.len() - 2] + 5] = 0xff;
        let (read, valid, error) = same_at_every_capacity(&torn);
        assert_eq!(read, records[..records.len() - 1]);
        assert_eq!(valid, ends[ends.len() - 2] as u64);
        assert_eq!(error, None);
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
