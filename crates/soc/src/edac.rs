//! The EDAC (Error Detection And Correction) log.
//!
//! The paper harvests cache/TLB upset counts through the Linux EDAC driver:
//! every parity or SECDED event the hardware handles is reported to
//! software as a *corrected* (CE) or *uncorrected* (UE) error attributed to
//! a specific array (\[2\] in the paper, §4.2). [`EdacLog`] is the simulated
//! equivalent: the SoC pushes records, the campaign harness drains them and
//! aggregates per cache level — producing exactly the data behind
//! Figures 5, 6 and 7.

use std::collections::BTreeMap;
use std::fmt;

use serscale_types::{ArrayKind, CacheLevel, SimInstant};

/// Whether the hardware corrected the reported event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdacSeverity {
    /// A corrected error (CE): parity-detected-and-refilled, or SECDED
    /// single-bit correction. Includes deceptive corrections of aliased
    /// multi-bit errors — hardware cannot tell the difference.
    Corrected,
    /// An uncorrected error (UE): detected but unrecoverable (SECDED
    /// double-bit).
    Uncorrected,
}

impl fmt::Display for EdacSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdacSeverity::Corrected => "CE",
            EdacSeverity::Uncorrected => "UE",
        })
    }
}

/// One EDAC log record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdacRecord {
    /// When the event was reported.
    pub time: SimInstant,
    /// Which array reported it.
    pub array: ArrayKind,
    /// Corrected or uncorrected.
    pub severity: EdacSeverity,
}

impl EdacRecord {
    /// The cache level this record aggregates under in Figures 6–7.
    pub fn cache_level(&self) -> CacheLevel {
        self.array.cache_level()
    }

    /// Renders the record in a dmesg-like line.
    pub fn to_dmesg_line(&self) -> String {
        format!(
            "[{:12.6}] EDAC {}: 1 {} error(s) detected",
            self.time.as_secs(),
            self.array,
            self.severity
        )
    }

    /// Parses a line produced by [`EdacRecord::to_dmesg_line`] — the
    /// campaign harness scrapes the DUT's kernel log exactly like the
    /// paper's Control-PC scrapes dmesg over the serial link.
    ///
    /// Returns `None` for lines that are not EDAC reports (a real dmesg
    /// is full of other traffic).
    pub fn from_dmesg_line(line: &str) -> Option<EdacRecord> {
        let rest = line.trim().strip_prefix('[')?;
        let (ts, rest) = rest.split_once(']')?;
        let time = SimInstant::from_secs(ts.trim().parse::<f64>().ok()?.max(0.0));
        let rest = rest.trim().strip_prefix("EDAC ")?;
        let (array_str, rest) = rest.split_once(':')?;
        let array = ArrayKind::ALL
            .into_iter()
            .find(|a| a.to_string() == array_str)?;
        let severity = if rest.contains(" CE ") {
            EdacSeverity::Corrected
        } else if rest.contains(" UE ") {
            EdacSeverity::Uncorrected
        } else {
            return None;
        };
        Some(EdacRecord {
            time,
            array,
            severity,
        })
    }
}

/// Per-(level, severity) aggregate counts.
pub type LevelCounts = BTreeMap<(CacheLevel, EdacSeverity), u64>;

/// The in-memory EDAC event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdacLog {
    records: Vec<EdacRecord>,
}

impl EdacLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: EdacRecord) {
        self.records.push(record);
    }

    /// Appends `count` identical records (a multi-word strike reports once
    /// per affected word).
    pub fn push_many(&mut self, record: EdacRecord, count: usize) {
        for _ in 0..count {
            self.records.push(record);
        }
    }

    /// All records in arrival order.
    pub fn records(&self) -> &[EdacRecord] {
        &self.records
    }

    /// The total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total corrected-error count.
    pub fn corrected_count(&self) -> u64 {
        self.count_severity(EdacSeverity::Corrected)
    }

    /// Total uncorrected-error count.
    pub fn uncorrected_count(&self) -> u64 {
        self.count_severity(EdacSeverity::Uncorrected)
    }

    fn count_severity(&self, severity: EdacSeverity) -> u64 {
        self.records
            .iter()
            .filter(|r| r.severity == severity)
            .count() as u64
    }

    /// Aggregates counts per (cache level, severity) — the shape of
    /// Figures 6 and 7.
    pub fn counts_per_level(&self) -> LevelCounts {
        let mut counts = LevelCounts::new();
        for r in &self.records {
            *counts.entry((r.cache_level(), r.severity)).or_insert(0) += 1;
        }
        counts
    }

    /// Drains all records, leaving the log empty (the harness collects
    /// between runs).
    pub fn drain(&mut self) -> Vec<EdacRecord> {
        std::mem::take(&mut self.records)
    }

    /// Renders the whole log dmesg-style.
    pub fn to_dmesg(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_dmesg_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, array: ArrayKind, severity: EdacSeverity) -> EdacRecord {
        EdacRecord {
            time: SimInstant::from_secs(t),
            array,
            severity,
        }
    }

    #[test]
    fn push_and_count() {
        let mut log = EdacLog::new();
        assert!(log.is_empty());
        log.push(rec(1.0, ArrayKind::L1Data, EdacSeverity::Corrected));
        log.push(rec(2.0, ArrayKind::L3Shared, EdacSeverity::Corrected));
        log.push(rec(3.0, ArrayKind::L3Shared, EdacSeverity::Uncorrected));
        assert_eq!(log.len(), 3);
        assert_eq!(log.corrected_count(), 2);
        assert_eq!(log.uncorrected_count(), 1);
    }

    #[test]
    fn aggregation_per_level() {
        let mut log = EdacLog::new();
        log.push(rec(1.0, ArrayKind::L1Data, EdacSeverity::Corrected));
        log.push(rec(1.5, ArrayKind::L1Instruction, EdacSeverity::Corrected));
        log.push(rec(2.0, ArrayKind::DataTlb, EdacSeverity::Corrected));
        log.push(rec(2.5, ArrayKind::L3Shared, EdacSeverity::Uncorrected));
        let counts = log.counts_per_level();
        assert_eq!(counts[&(CacheLevel::L1, EdacSeverity::Corrected)], 2);
        assert_eq!(counts[&(CacheLevel::Tlb, EdacSeverity::Corrected)], 1);
        assert_eq!(counts[&(CacheLevel::L3, EdacSeverity::Uncorrected)], 1);
        assert!(!counts.contains_key(&(CacheLevel::L2, EdacSeverity::Corrected)));
    }

    #[test]
    fn push_many_replicates() {
        let mut log = EdacLog::new();
        log.push_many(rec(1.0, ArrayKind::L2Unified, EdacSeverity::Corrected), 4);
        assert_eq!(log.corrected_count(), 4);
    }

    #[test]
    fn drain_empties_the_log() {
        let mut log = EdacLog::new();
        log.push(rec(1.0, ArrayKind::L1Data, EdacSeverity::Corrected));
        let drained = log.drain();
        assert_eq!(drained.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn dmesg_roundtrip() {
        for array in ArrayKind::ALL {
            for severity in [EdacSeverity::Corrected, EdacSeverity::Uncorrected] {
                let r = EdacRecord {
                    time: SimInstant::from_secs(33.25),
                    array,
                    severity,
                };
                let parsed = EdacRecord::from_dmesg_line(&r.to_dmesg_line())
                    .unwrap_or_else(|| panic!("unparseable: {}", r.to_dmesg_line()));
                assert_eq!(parsed, r);
            }
        }
    }

    #[test]
    fn dmesg_parser_rejects_noise() {
        for line in [
            "",
            "[    1.000000] usb 1-1: new high-speed USB device",
            "[    2.000000] EDAC MC0: something unrelated",
            "not even a bracket",
        ] {
            assert_eq!(EdacRecord::from_dmesg_line(line), None, "{line}");
        }
    }

    #[test]
    fn dmesg_rendering() {
        let r = rec(12.5, ArrayKind::L3Shared, EdacSeverity::Uncorrected);
        let line = r.to_dmesg_line();
        assert!(line.contains("L3"), "{line}");
        assert!(line.contains("UE"), "{line}");
        let mut log = EdacLog::new();
        log.push(r);
        log.push(r);
        assert_eq!(log.to_dmesg().lines().count(), 2);
    }
}
