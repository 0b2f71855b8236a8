//! Observability for serscale campaigns: metrics, spans, event streams
//! and live progress — all strictly observe-only.
//!
//! The paper's beam campaigns produce two kinds of numbers. The
//! *simulation's* numbers (upset counts, σ, failure classes) are the
//! science and must be bit-reproducible. The *run's* numbers (events per
//! second, wave merge latency, worker utilization, wall-clock ETA) are
//! operations, and they change every run. This crate carries the second
//! kind without ever contaminating the first:
//!
//! - [`metrics`] — a sharded, lock-free-on-the-hot-path registry of
//!   counters, gauges and log-scale histograms with labeled series
//!   (`edac_events{domain="PMD",voltage="870mV@2.4 GHz"}`), merged into a
//!   consistent [`MetricsSnapshot`] on demand.
//! - [`span`] — a tracing layer over the campaign → sweep → session →
//!   wave → trial hierarchy with host-clock enter/exit timestamps and
//!   structured attributes.
//! - [`observer`] — the [`TelemetryObserver`], a
//!   [`SessionObserver`](serscale_core::trace::SessionObserver) that
//!   turns engine callbacks into all of the above.
//! - [`export`] — the [`TelemetrySink`] writing `events.jsonl`,
//!   `spans.jsonl`, `metrics.prom` and `summary.txt`, plus the
//!   report-vs-counters crosscheck.
//! - [`serve`] — the [`MonitorServer`], a dependency-free HTTP/1.1
//!   monitoring plane (`/metrics`, `/healthz`, `/progress`, `/spans`,
//!   `/campaign`) over the same registry/tracer/progress state, for
//!   `curl` and Prometheus scrapes of a live run.
//! - [`inspect`] — offline run forensics: replays `journal.jsonl`,
//!   `spans.jsonl` and `events.jsonl` into a critical-path / worker
//!   utilization / exact-quantile report (`repro inspect`), including a
//!   bit-exact reconstruction of the live busy-time metrics.
//! - [`convergence`] — the statistical convergence plane: live
//!   per-operating-point Garwood-CI estimators over every (voltage
//!   domain, array) cell, a byte-stable `/convergence` snapshot, and a
//!   journal replay (`repro inspect --convergence`) that reproduces the
//!   live endpoint's final snapshot bit-exactly.
//! - [`progress`] — a rate-limited stderr progress reporter for
//!   interactive runs (TTY-aware: in-place rewrites on terminals, plain
//!   periodic lines otherwise; off in CI and golden runs).
//! - [`json`] — the workspace's JSON codec, re-exported from
//!   [`serscale_types::json`]; the exporters write with it and
//!   self-verify their streams by parsing them back.
//!
//! # The observe-only contract
//!
//! Attaching telemetry must never change a report or a
//! [`Logbook`](serscale_core::trace::Logbook) trace, at any `--jobs`
//! count. Observers receive values, return nothing, and have no channel
//! back into the engine; `tests/determinism.rs` enforces the contract
//! end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod convergence;
pub mod export;
pub mod inspect;
pub mod metrics;
pub mod observer;
pub mod progress;
pub mod serve;
pub mod span;

pub use control::{ControlPlane, ControlPlaneOptions};
pub use convergence::{ConvergenceSnapshot, ConvergenceTracker};
pub use export::{TelemetryOptions, TelemetrySink};
pub use inspect::{inspect_dir, InspectReport};
pub use metrics::{MetricsSnapshot, Registry};
pub use observer::TelemetryObserver;
pub use progress::{Progress, ProgressMode, ProgressSnapshot};
/// The workspace's JSON codec; this path stays for existing importers.
pub use serscale_types::json;
pub use serve::{CampaignStatus, MonitorServer};
pub use span::{SpanLevel, Tracer};
