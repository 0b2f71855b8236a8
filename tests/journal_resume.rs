//! Kill/resume equivalence for the crash-safe campaign engine: a journaled
//! campaign interrupted at *any* record boundary — or mid-record, through a
//! torn tail — and then resumed must reproduce the uninterrupted run's
//! report and `Logbook` trace byte for byte, at any worker count.
//!
//! The golden run, its trace and its complete journal are computed once
//! and shared across cases; each case then truncates a private copy of the
//! journal and resumes from it. The same journal feeds the reader's fuzz
//! property: hostile lines must be refused, never panicked on. A journal
//! write that fails mid-run must end `repro` with an error, not a panic,
//! and leave a journal that resumes to the golden output.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::journal::{journal_path, read_journal, start_or_resume, Record};
use serscale_core::trace::Logbook;

const SEED: u64 = 0x0010_57ED;
const SCALE: f64 = 0.005;

fn campaign() -> Campaign {
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = SEED;
    Campaign::new(config)
}

/// (uninterrupted report, uninterrupted trace, complete journal text).
fn golden() -> &'static (CampaignReport, Logbook, String) {
    static GOLDEN: OnceLock<(CampaignReport, Logbook, String)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let campaign = campaign();
        let mut golden_log = Logbook::new();
        let golden = campaign
            .try_run(CampaignRunOptions::with_jobs(2), &mut golden_log)
            .expect("a run with no journal and no cancel token cannot fail");

        let dir = case_dir("golden");
        let (mut writer, recovered) =
            start_or_resume(&dir, campaign.config()).expect("journal opens");
        assert!(recovered.is_none(), "fresh directory must not recover");
        let mut log = Logbook::new();
        let journaled = campaign
            .try_run(
                CampaignRunOptions {
                    journal: Some(&mut writer),
                    ..CampaignRunOptions::with_jobs(2)
                },
                &mut log,
            )
            .expect("journal writes succeed");
        drop(writer);
        assert_eq!(journaled, golden, "journaling must not perturb the run");
        assert_eq!(log, golden_log, "journaling must not perturb the trace");
        let text = std::fs::read_to_string(journal_path(&dir)).expect("journal readable");
        let _ = std::fs::remove_dir_all(&dir);
        (golden, golden_log, text)
    })
}

fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "serscale-journal-resume-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `text` as the (truncated) journal of a fresh directory, resumes
/// from it at `jobs`, and asserts bit-identity with the uninterrupted run.
fn resume_and_check(tag: &str, text: &str, jobs: usize) {
    let (golden_report, golden_log, _) = golden();
    let campaign = campaign();
    let dir = case_dir(tag);
    std::fs::create_dir_all(&dir).expect("dir creatable");
    std::fs::write(journal_path(&dir), text).expect("journal writable");

    let (mut writer, recovered) =
        start_or_resume(&dir, campaign.config()).expect("truncated journal reopens");
    let mut resumed_log = Logbook::new();
    let resumed = campaign
        .try_run(
            CampaignRunOptions {
                journal: Some(&mut writer),
                recovered: recovered.as_ref(),
                ..CampaignRunOptions::with_jobs(jobs)
            },
            &mut resumed_log,
        )
        .expect("journal writes succeed");
    drop(writer);
    assert_eq!(
        &resumed, golden_report,
        "{tag}: report diverged (jobs={jobs})"
    );
    assert_eq!(
        &resumed_log, golden_log,
        "{tag}: trace diverged (jobs={jobs})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// A crash between fsync'd waves lands on a record boundary: keeping
    /// any prefix of complete records must resume to the golden bits at
    /// jobs 1 and 8.
    #[test]
    fn resume_from_any_record_boundary(
        fraction in 0.02f64..0.98,
        pick in 0usize..2,
    ) {
        let (_, _, text) = golden();
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() as f64 * fraction) as usize).clamp(1, lines.len());
        let mut cut = lines[..keep].join("\n");
        cut.push('\n');
        resume_and_check("boundary", &cut, [1, 8][pick]);
    }
}

#[test]
fn resume_from_a_torn_record_tail() {
    // A crash mid-write tears the final record; the per-line digest (or
    // the missing newline) exposes it and recovery drops exactly that
    // fragment.
    let (_, _, text) = golden();
    let cut_at = (text.len() * 7 / 10).max(1);
    let torn = &text[..cut_at];
    assert!(
        !torn.ends_with('\n'),
        "test setup: the cut must land mid-record"
    );
    for jobs in [1, 8] {
        resume_and_check("torn", torn, jobs);
    }
}

#[test]
fn resume_of_a_complete_journal_is_a_pure_replay() {
    // The race the CI recovery job must tolerate: the SIGKILL lands after
    // the campaign already finished. Resuming then re-simulates nothing
    // and still reproduces every bit.
    let (_, _, text) = golden();
    for jobs in [1, 8] {
        resume_and_check("complete", text, jobs);
    }
}

/// A journal write that fails mid-run is an error, not a panic: `repro`
/// names the journal on stderr and exits 1, and the journal it leaves
/// behind (torn at the failed write) resumes to the golden output at
/// another worker count.
#[cfg(target_os = "linux")]
#[test]
fn journal_write_failure_exits_cleanly_and_resumes() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let dir = case_dir("file-size-limit");
    // `ulimit -f 32` caps files far below the golden run's journal, and
    // ignoring SIGXFSZ turns the write past the cap into an EFBIG error.
    let limited = std::process::Command::new("sh")
        .arg("-c")
        .arg("trap '' XFSZ; ulimit -f 32; exec \"$0\" --golden --jobs 2 --journal \"$1\"")
        .arg(repro)
        .arg(&dir)
        .output()
        .expect("sh runs");
    let stderr = String::from_utf8_lossy(&limited.stderr);
    assert_eq!(limited.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("journal"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let resumed = std::process::Command::new(repro)
        .args(["--golden", "--jobs", "8", "--resume"])
        .arg(&dir)
        .output()
        .expect("repro runs");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        include_str!("golden/campaign_smoke.txt")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The decoder and the encoder are inverses on real data: every line of
/// the golden journal decodes and re-encodes to itself, byte for byte.
#[test]
fn golden_journal_lines_re_encode_to_themselves() {
    let (_, _, text) = golden();
    for line in text.lines() {
        let record = Record::parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(record.to_line(), line);
    }
}

/// The exhaustive form of the sampled flip property below, on the record
/// with the most structure: flipping any one byte of an EDAC-carrying
/// trial line, at every offset, with masks 0x01, 0x20 and 0x80, is
/// refused.
#[test]
fn every_single_byte_flip_of_a_trial_line_is_refused() {
    let (_, _, text) = golden();
    let line = text
        .lines()
        .find(|l| l.contains("\"rec\":\"trial\"") && !l.contains("\"edac\":[]"))
        .expect("the golden run journals EDAC records");
    for at in 0..line.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            let mut flipped = line.as_bytes().to_vec();
            flipped[at] ^= mask;
            assert!(
                Record::parse_line(&String::from_utf8_lossy(&flipped)).is_err(),
                "flip {mask:#04x} at byte {at} of {line} was accepted"
            );
        }
    }
}

proptest! {
    /// The journal reader parses untrusted bytes. Arbitrary bytes, a real
    /// record with one byte flipped, and a line nested far past the JSON
    /// codec's depth limit are each an `Err` from `Record::parse_line`,
    /// and mid-file they are corruption that `read_journal` refuses —
    /// never a panic, never a stack overflow.
    #[test]
    fn hostile_journal_lines_are_refused_not_panicked_on(
        noise in prop::collection::vec(any::<u8>(), 0..300),
        line_pick in any::<usize>(),
        byte_pick in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (_, _, text) = golden();
        let lines: Vec<&str> = text.lines().collect();
        // Never the last line: a bad final line is a torn tail, which
        // recovery drops by design.
        let at = line_pick % (lines.len() - 1);
        let mut flipped = lines[at].as_bytes().to_vec();
        flipped[byte_pick % lines[at].len()] ^= mask;
        let deep = format!("{{\"rec\":{}1,\"crc\":\"{:016x}\"}}", "[".repeat(60_000), 0);
        let dir = case_dir("hostile");
        std::fs::create_dir_all(&dir).expect("dir creatable");
        for (what, hostile) in [("noise", noise), ("flipped", flipped), ("deep", deep.into_bytes())] {
            prop_assert!(
                Record::parse_line(&String::from_utf8_lossy(&hostile)).is_err(),
                "{} line parsed", what
            );
            let mut journal = Vec::new();
            for line in &lines[..at] {
                journal.extend_from_slice(line.as_bytes());
                journal.push(b'\n');
            }
            journal.extend_from_slice(&hostile);
            journal.push(b'\n');
            for line in &lines[at + 1..] {
                journal.extend_from_slice(line.as_bytes());
                journal.push(b'\n');
            }
            std::fs::write(journal_path(&dir), &journal).expect("journal writable");
            prop_assert!(
                read_journal(&journal_path(&dir)).is_err(),
                "{} line mid-file was accepted", what
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
