//! # serscale-verify
//!
//! The statistical verification harness of the serscale workspace: a
//! reusable assertion toolkit plus three families of executable oracles
//! that check the *mechanism* of the soft-error simulator, not just the
//! numbers a fixed seed happens to produce.
//!
//! ## Oracle families
//!
//! * **Metamorphic** ([`metamorphic`]) — transform the input, predict the
//!   output shift: doubling fluence doubles expected upsets; lowering Vdd
//!   never lowers a per-bit cross-section; undervolting one voltage
//!   domain perturbs only that domain's structures; flux rescaling
//!   commutes with session splitting. Statistical acceptance goes through
//!   the Poisson/Wilson interval helpers of `serscale-stats`, so the
//!   oracles hold across seeds.
//! * **Differential** ([`differential`], [`sampler`]) — the same campaign
//!   through the naive reference executor, the sequential wave engine, and
//!   the parallel engine at several worker counts must agree bit for bit,
//!   reports and event traces alike; an interrupted-then-resumed
//!   journaled campaign must reproduce the uninterrupted run exactly,
//!   including across a torn journal tail; the checkpointed and replayed
//!   kernels must return the full re-execution's output for sampled
//!   corruptions; the
//!   batched arrival sampler must consume RNG streams draw-for-draw
//!   identically to the per-event reference physics across random
//!   operating points; and the
//!   convergence plane's streamed Garwood intervals ([`convergence`])
//!   must be bit-identical to `serscale-stats`' batch implementation on
//!   identical counts.
//! * **ECC** ([`ecc`]) — exhaustive SECDED single-correction /
//!   double-detection over all 72 codeword positions and interleaving
//!   distance over every physical cluster.
//!
//! ## Running
//!
//! The whole suite is wired into `cargo test -p serscale-verify`, and the
//! `repro verify` subcommand of `serscale-bench` runs it with a
//! configurable budget, emitting a machine-readable verdict JSON (see
//! `TESTING.md` at the workspace root):
//!
//! ```text
//! repro verify --budget small --out verdict.json
//! ```
//!
//! ## Example
//!
//! ```
//! use serscale_verify::{OracleContext, TrialBudget};
//! use serscale_verify::ecc::SecdedExhaustive;
//! use serscale_verify::oracle::StatOracle;
//!
//! let ctx = OracleContext::new(1, TrialBudget::small());
//! let report = SecdedExhaustive.run(&ctx);
//! assert!(report.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod differential;
pub mod ecc;
pub mod metamorphic;
pub mod oracle;
pub mod sampler;
pub mod verdict;

pub use oracle::{CheckResult, OracleContext, OracleFamily, OracleReport, StatOracle, TrialBudget};
pub use verdict::SuiteVerdict;

/// The full default oracle suite, in report order.
pub fn default_suite() -> Vec<Box<dyn StatOracle>> {
    vec![
        Box::new(metamorphic::FluenceDoubling),
        Box::new(metamorphic::VoltageMonotonicity),
        Box::new(metamorphic::DomainIsolation),
        Box::new(metamorphic::SpectrumRescaling),
        Box::new(differential::EngineEquivalence),
        Box::new(differential::TraceEquivalence),
        Box::new(differential::ResumeEquivalence),
        Box::new(differential::PlatformEquivalence),
        Box::new(differential::KernelResumeEquivalence),
        Box::new(sampler::SamplerEquivalence),
        Box::new(convergence::StreamingGarwood),
        Box::new(ecc::SecdedExhaustive),
        Box::new(ecc::InterleaveDistance),
    ]
}

/// Runs the default suite under the given context and consolidates the
/// verdict.
pub fn run_suite(ctx: &OracleContext) -> SuiteVerdict {
    let oracles = default_suite();
    SuiteVerdict {
        seed: ctx.seed,
        budget: ctx.budget.name.to_string(),
        oracles: oracles.iter().map(|o| o.run(ctx)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_three_families() {
        let suite = default_suite();
        for family in [
            OracleFamily::Metamorphic,
            OracleFamily::Differential,
            OracleFamily::Ecc,
        ] {
            assert!(
                suite.iter().any(|o| o.family() == family),
                "no oracle in family {family}"
            );
        }
    }

    #[test]
    fn oracle_names_are_unique() {
        let suite = default_suite();
        let mut names: Vec<_> = suite.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }
}
