//! The suite verdict: every oracle's checks, renderable for humans and
//! serializable to a small, stable JSON document for CI, written with the
//! workspace's JSON codec ([`serscale_types::json`]).

use std::fmt::Write as _;

use serscale_types::json;

use crate::oracle::{OracleFamily, OracleReport};

/// The outcome of one full `repro verify` run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteVerdict {
    /// The master seed the oracles forked from.
    pub seed: u64,
    /// The budget name the suite ran under.
    pub budget: String,
    /// Every oracle's report, in execution order.
    pub oracles: Vec<OracleReport>,
}

/// One exported verdict gauge: `(name, labels, value)`.
pub type HeadlineGauge = (String, Vec<(String, String)>, f64);

impl SuiteVerdict {
    /// True iff every check of every oracle passed.
    pub fn all_green(&self) -> bool {
        self.oracles.iter().all(OracleReport::passed)
    }

    /// Total number of individual checks.
    pub fn check_count(&self) -> usize {
        self.oracles.iter().map(|o| o.checks.len()).sum()
    }

    /// Number of failing checks.
    pub fn violation_count(&self) -> usize {
        self.oracles.iter().map(|o| o.violations().count()).sum()
    }

    /// Renders a human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verification suite — seed {}, budget {}",
            self.seed, self.budget
        );
        for family in [
            OracleFamily::Metamorphic,
            OracleFamily::Differential,
            OracleFamily::Ecc,
        ] {
            let oracles: Vec<_> = self.oracles.iter().filter(|o| o.family == family).collect();
            if oracles.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n[{family}]");
            for oracle in oracles {
                let mark = if oracle.passed() { "PASS" } else { "FAIL" };
                let _ = writeln!(out, "  {mark}  {} — {}", oracle.name, oracle.claim);
                for check in &oracle.checks {
                    let mark = if check.passed { "ok " } else { "VIOLATION" };
                    let _ = writeln!(out, "         {mark} {}: {}", check.name, check.detail);
                }
            }
        }
        let _ = writeln!(
            out,
            "\n{} checks, {} violations — {}",
            self.check_count(),
            self.violation_count(),
            if self.all_green() { "ALL GREEN" } else { "RED" }
        );
        out
    }

    /// The verdict's headline numbers as `(gauge name, labels, value)`
    /// rows, ready to export as telemetry gauges (`repro verify
    /// --telemetry-out` feeds them straight into the metrics snapshot).
    /// Pass/fail flags are encoded as 1.0/0.0.
    pub fn headline_gauges(&self) -> Vec<HeadlineGauge> {
        let mut out = vec![
            (
                "verify_all_green".to_string(),
                Vec::new(),
                if self.all_green() { 1.0 } else { 0.0 },
            ),
            (
                "verify_checks_total".to_string(),
                Vec::new(),
                self.check_count() as f64,
            ),
            (
                "verify_violations_total".to_string(),
                Vec::new(),
                self.violation_count() as f64,
            ),
        ];
        for family in [
            OracleFamily::Metamorphic,
            OracleFamily::Differential,
            OracleFamily::Ecc,
        ] {
            let oracles = self.oracles.iter().filter(|o| o.family == family);
            let violations: usize = oracles.map(|o| o.violations().count()).sum();
            out.push((
                "verify_violations".to_string(),
                vec![("family".to_string(), family.to_string())],
                violations as f64,
            ));
        }
        out
    }

    /// Serializes the verdict to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"seed\":{},\"budget\":{},\"all_green\":{},\"checks\":{},\"violations\":{},",
            self.seed,
            json::escape(&self.budget),
            self.all_green(),
            self.check_count(),
            self.violation_count(),
        );
        out.push_str("\"oracles\":[");
        for (i, oracle) in self.oracles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"family\":{},\"claim\":{},\"passed\":{},\"checks\":[",
                json::escape(&oracle.name),
                json::escape(&oracle.family.to_string()),
                json::escape(&oracle.claim),
                oracle.passed(),
            );
            for (j, check) in oracle.checks.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                    json::escape(&check.name),
                    check.passed,
                    json::escape(&check.detail),
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CheckResult;

    fn verdict(passed: bool) -> SuiteVerdict {
        SuiteVerdict {
            seed: 7,
            budget: "small".into(),
            oracles: vec![OracleReport {
                name: "demo".into(),
                family: OracleFamily::Ecc,
                claim: "a \"quoted\" claim".into(),
                checks: vec![CheckResult::new("c1", passed, "line1\nline2")],
            }],
        }
    }

    #[test]
    fn green_accounting() {
        assert!(verdict(true).all_green());
        let red = verdict(false);
        assert!(!red.all_green());
        assert_eq!(red.check_count(), 1);
        assert_eq!(red.violation_count(), 1);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let text = verdict(false).to_json();
        assert!(text.contains("\"all_green\":false"));
        assert!(text.contains("a \\\"quoted\\\" claim"));
        assert!(text.contains("line1\\nline2"));
        let doc = json::parse(&text).expect("verdict parses");
        let oracle = &doc
            .get("oracles")
            .and_then(json::JsonValue::as_array)
            .expect("oracles")[0];
        let claim = oracle.get("claim").and_then(json::JsonValue::as_str);
        assert_eq!(claim, Some("a \"quoted\" claim"));
    }

    #[test]
    fn headline_gauges_cover_the_verdict() {
        let gauges = verdict(false).headline_gauges();
        let find = |name: &str| {
            gauges
                .iter()
                .find(|(n, labels, _)| n == name && labels.is_empty())
                .map(|(_, _, v)| *v)
        };
        assert_eq!(find("verify_all_green"), Some(0.0));
        assert_eq!(find("verify_checks_total"), Some(1.0));
        assert_eq!(find("verify_violations_total"), Some(1.0));
        let ecc = gauges
            .iter()
            .find(|(n, labels, _)| {
                n == "verify_violations" && labels.iter().any(|(_, v)| v == "ecc")
            })
            .map(|(_, _, v)| *v);
        assert_eq!(ecc, Some(1.0));
    }

    #[test]
    fn render_mentions_every_check() {
        let text = verdict(false).render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("VIOLATION"));
        assert!(text.contains("demo"));
        assert!(text.contains("RED"));
    }
}
