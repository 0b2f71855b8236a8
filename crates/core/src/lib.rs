//! # serscale-core
//!
//! The primary contribution of the reproduced paper, as running code: a
//! beam-campaign harness that measures the impact of supply-voltage scaling
//! on the soft-error susceptibility of a multicore server CPU — end to end,
//! from neutron strike physics to golden-output comparison — and the
//! analyses that turn the raw event log into every table and figure of the
//! paper's evaluation.
//!
//! ## Architecture
//!
//! * [`dut`] — the Device Under Test: the SoC structural model wired to
//!   the radiation physics (per-array observable cross-sections under a
//!   given operating point, with the per-cache-level detection
//!   efficiencies calibrated in `DESIGN.md` §3).
//! * [`classify`] — what a fault *becomes*: the propagation model from
//!   hardware outcome (corrected, uncorrected, silent) to software verdict
//!   (nothing, SDC, application crash, system crash), plus the Control-PC
//!   watchdog that tells the crash flavours apart (§3.6).
//! * [`runner`] — one benchmark execution under beam: Poisson strike
//!   sampling across every array and both logic populations, ECC decode by
//!   the real codecs, and — when corruption reaches live program state —
//!   an *actual* corrupted kernel execution compared against the golden
//!   output.
//! * [`session`] — a beam test session (one Table 2 column): benchmarks
//!   cycling under beam until the stopping rules fire (≥ 100 error events
//!   or ≥ 10¹¹ n/cm², §3.5), with crash-recovery overheads on the clock.
//! * [`campaign`] — the full four-session campaign and its report.
//! * [`fit`] — the FIT-rate analyses of §6 (Figures 11–13, Table 2's SER
//!   row).
//! * [`tradeoff`] — the power/susceptibility analyses of §5 (Figures
//!   9–10).
//!
//! Beyond the paper's own evaluation:
//!
//! * [`avf`] — statistical fault injection on the real kernels and the
//!   FIT-prediction methodology of Design implication #3;
//! * [`explore`] — fine-grained voltage sweeps and the operating-point
//!   advisor of Design implication #2;
//! * [`checkpoint`] — checkpoint/restart economics (Young/Daly), answering
//!   the introduction's open question about recovery overheads;
//! * [`ablation`] — switch each modelled mechanism off and watch its
//!   measured effect disappear;
//! * [`journal`] — the crash-safe run journal: fsync'd JSONL records of
//!   every absorbed trial, replayed by `repro --resume` into a report
//!   bit-identical to an uninterrupted run;
//! * [`parallel`] — the deterministic worker pool behind
//!   `--jobs N`: one campaign-lived set of threads running pipelined,
//!   order-canonicalized batches with panic isolation, yielding
//!   bit-identical campaign reports at any thread count;
//! * [`trace`] — the campaign logbook: an ordered, renderable event trace
//!   of every run, EDAC report and recovery;
//! * [`report`] — neutral plain-text campaign summaries with 95 %
//!   intervals;
//! * [`policy`] — DVFS throttling vs guardband harvesting, quantified.
//!
//! ## Quick start
//!
//! ```
//! use serscale_core::campaign::{Campaign, CampaignConfig, CampaignRunOptions};
//! use serscale_core::session::SessionLimits;
//! use serscale_core::trace::NoopObserver;
//! use serscale_soc::PlatformSpec;
//! use serscale_types::SimDuration;
//!
//! // A short exploratory run at nominal voltage (the full Table 2
//! // campaign is `CampaignConfig::paper()`).
//! let mut config = CampaignConfig::paper();
//! config.seed = 42;
//! config.sessions = vec![(
//!     PlatformSpec::xgene2().nominal_point(),
//!     SessionLimits {
//!         max_error_events: 10,
//!         max_duration: Some(SimDuration::from_minutes(30.0)),
//!         ..SessionLimits::default()
//!     },
//! )];
//! let report = Campaign::new(config)
//!     .try_run(CampaignRunOptions::with_jobs(1), &mut NoopObserver)
//!     .expect("a run with no journal and no cancel token cannot fail");
//! assert_eq!(report.sessions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod avf;
pub mod campaign;
pub mod checkpoint;
pub mod classify;
pub mod dut;
pub mod explore;
pub mod fit;
pub mod journal;
pub mod parallel;
pub mod policy;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod session;
pub mod spec;
pub mod trace;
pub mod tradeoff;

pub use campaign::{Campaign, CampaignConfig, CampaignReport};
pub use classify::{FailureClass, RunVerdict};
pub use dut::DeviceUnderTest;
pub use session::{SessionLimits, SessionReport, TestSession};
