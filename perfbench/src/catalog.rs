//! What the benchmark measures: its workloads, its metrics with their
//! units, directions and clocks, and which end-to-end number each layer
//! metric should move. `perfbench --describe` prints this catalog as JSON;
//! `BENCHMARK.json` at the repository root lists the same names and units.

use std::fmt::Write as _;

/// The default workload seed (the paper reproduction's seed).
pub const DEFAULT_SEED: u64 = 20231028;
/// A seed kept out of tuning, for re-checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 1_700_923;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time (or a ratio or rate of host times).
    Host,
    /// Host memory.
    Memory,
    /// A count or ratio fixed by the seed and configuration.
    Fixed,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The clock the value reads.
    pub clock: Clock,
    /// End-to-end metric · workload the value should move, or what it is for.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    clock: Clock,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        clock,
        moves,
    }
}

use Clock::{Fixed, Host, Memory};

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen and which layers it bypasses, on one line.
    pub why: &'static str,
}

/// The workloads.
pub const WORKLOADS: [WorkloadInfo; 3] = [
    WorkloadInfo {
        name: "campaign-bare",
        why: "Paper campaign, scale 1, jobs 1, no journal or telemetry: kernels and physics \
              alone, where SDC kernel runs dominate. Bypasses pool, journal, telemetry, HTTP.",
    },
    WorkloadInfo {
        name: "campaign-durable",
        why: "Same campaign at jobs 2 with fsync'd journal and telemetry, then resume, inspect \
              and convergence replay: the only pool user; writes and reads back. Bypasses HTTP.",
    },
    WorkloadInfo {
        name: "service-mix",
        why: "Closed-loop tenant submits campaigns and follows their event streams; open-loop \
              scraper polls 7 routes over loopback. Bypasses pool, replay, offline inspect.",
    },
];

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: [Metric; 4] = [
    m(
        "setup_s",
        "s",
        false,
        Host,
        "one-time work before the first timed operation: platform spec and the six \
       kernel goldens, plus ControlPlane::start and the bind on service-mix; median \
       of fresh processes",
    ),
    m(
        "trials_per_s",
        "trials/s",
        true,
        Host,
        "completed trials / wall time of the live campaign runs (service-mix: of the \
       whole mix); median over iterations",
    ),
    m(
        "job_turnaround_s",
        "s",
        false,
        Host,
        "one campaign from start to report in hand: bare run; durable live run plus \
       replay phase; service POST to report fetched; median",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        false,
        Memory,
        "peak resident memory of one fixed-work iteration (VmHWM reset before it, \
         read after it); median over iterations",
    ),
];

/// Per-layer metrics, from the traced run. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: [Metric; 63] = [
    m(
        "workload.kernel_us.cg",
        "us",
        false,
        Host,
        "trials_per_s · bare, durable; job_turnaround_s · service-mix",
    ),
    m(
        "workload.kernel_us.ep",
        "us",
        false,
        Host,
        "trials_per_s · bare, durable; job_turnaround_s · service-mix",
    ),
    m(
        "workload.kernel_us.ft",
        "us",
        false,
        Host,
        "trials_per_s · bare, durable; job_turnaround_s · service-mix",
    ),
    m(
        "workload.kernel_us.is",
        "us",
        false,
        Host,
        "trials_per_s · bare, durable; job_turnaround_s · service-mix",
    ),
    m(
        "workload.kernel_us.lu",
        "us",
        false,
        Host,
        "trials_per_s · bare, durable; job_turnaround_s · service-mix",
    ),
    m(
        "workload.kernel_us.mg",
        "us",
        false,
        Host,
        "trials_per_s · bare, durable; job_turnaround_s · service-mix",
    ),
    m("workload.golden_ms", "ms", false, Host, "setup_s · all"),
    m(
        "runner.trials",
        "count",
        false,
        Fixed,
        "work count of the trial replay (bare)",
    ),
    m(
        "runner.quiet_frac",
        "ratio",
        true,
        Fixed,
        "share of trials the zero-count short cut serves",
    ),
    m(
        "runner.quiet_ns_p50",
        "ns",
        false,
        Host,
        "trials_per_s · bare",
    ),
    m(
        "runner.struck_ns_p50",
        "ns",
        false,
        Host,
        "trials_per_s · bare",
    ),
    m(
        "runner.sdc_ms_p50",
        "ms",
        false,
        Host,
        "trials_per_s · bare",
    ),
    m(
        "runner.sdc_time_frac",
        "ratio",
        false,
        Host,
        "trials_per_s · bare",
    ),
    m(
        "runner.cold_trial_us",
        "us",
        false,
        Host,
        "trials_per_s · durable",
    ),
    m(
        "stats.stream_ns_p50",
        "ns",
        false,
        Host,
        "trials_per_s · bare",
    ),
    m(
        "sram.strikes",
        "count",
        false,
        Fixed,
        "work count of the trial replay (bare)",
    ),
    m(
        "sram.edac_records",
        "count",
        false,
        Fixed,
        "work count of the trial replay (bare)",
    ),
    m(
        "sram.strike_ns_p50",
        "ns",
        false,
        Host,
        "trials_per_s · bare",
    ),
    m(
        "session.waves",
        "count",
        false,
        Fixed,
        "trials_per_s · bare, durable",
    ),
    m(
        "session.wave_efficiency",
        "ratio",
        true,
        Fixed,
        "trials_per_s · bare, durable",
    ),
    m(
        "session.exec_s",
        "s",
        false,
        Host,
        "trials_per_s · bare, durable",
    ),
    m(
        "session.merge_s",
        "s",
        false,
        Host,
        "trials_per_s · durable",
    ),
    m(
        "session.replay_fold_s",
        "s",
        false,
        Host,
        "replay_trials_per_s, job_turnaround_s · durable",
    ),
    m(
        "parallel.workers",
        "count",
        true,
        Fixed,
        "trials_per_s · durable",
    ),
    m(
        "parallel.utilization",
        "ratio",
        true,
        Host,
        "trials_per_s · durable",
    ),
    m(
        "parallel.idle_s",
        "s",
        false,
        Host,
        "trials_per_s · durable",
    ),
    m(
        "parallel.critical_path_s",
        "s",
        false,
        Host,
        "trials_per_s · durable",
    ),
    m(
        "journal.records",
        "count",
        false,
        Fixed,
        "work count (durable)",
    ),
    m(
        "journal.bytes_per_record",
        "bytes",
        false,
        Fixed,
        "trials_per_s, job_turnaround_s · durable",
    ),
    m(
        "journal.append_ns_p50",
        "ns",
        false,
        Host,
        "trials_per_s · durable; job_turnaround_s · service-mix",
    ),
    m(
        "journal.sync_ms_p50",
        "ms",
        false,
        Host,
        "trials_per_s · durable; job_turnaround_s · service-mix",
    ),
    m(
        "journal.read_us_per_record",
        "us",
        false,
        Host,
        "replay_trials_per_s, job_turnaround_s · durable",
    ),
    m(
        "journal.resume_s",
        "s",
        false,
        Host,
        "replay_trials_per_s, job_turnaround_s · durable",
    ),
    m(
        "observer.callbacks",
        "count",
        false,
        Fixed,
        "work count (durable)",
    ),
    m(
        "observer.ns_per_callback",
        "ns",
        false,
        Host,
        "trials_per_s · durable; job_turnaround_s · service-mix",
    ),
    m(
        "observer.event_mb",
        "MB",
        false,
        Fixed,
        "peak_rss_mib, job_turnaround_s · service-mix",
    ),
    m(
        "export.write_ms",
        "ms",
        false,
        Host,
        "trials_per_s · durable",
    ),
    m(
        "inspect.replay_s",
        "s",
        false,
        Host,
        "replay_trials_per_s, job_turnaround_s · durable",
    ),
    m(
        "convergence.replay_s",
        "s",
        false,
        Host,
        "replay_trials_per_s, job_turnaround_s · durable",
    ),
    m(
        "metrics.render_ms",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.metrics_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.healthz_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.progress_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.campaigns_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.status_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.convergence_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.tenants_ms_p50",
        "ms",
        false,
        Host,
        "http_p50_ms, http_p99_ms · service-mix",
    ),
    m(
        "serve.submit_ms_p50",
        "ms",
        false,
        Host,
        "job_turnaround_s · service-mix",
    ),
    m(
        "serve.report_ms_p50",
        "ms",
        false,
        Host,
        "job_turnaround_s · service-mix",
    ),
    m(
        "serve.stream_mb_per_job",
        "MB",
        false,
        Fixed,
        "job_turnaround_s, peak_rss_mib · service-mix",
    ),
    m(
        "control.list_json_ms",
        "ms",
        false,
        Host,
        "http_p99_ms, peak_rss_mib · service-mix",
    ),
    m(
        "control.tenants_json_ms",
        "ms",
        false,
        Host,
        "http_p99_ms, peak_rss_mib · service-mix",
    ),
    m(
        "control.status_json_us",
        "us",
        false,
        Host,
        "http_p99_ms · service-mix",
    ),
    m(
        "control.events_snapshot_ms",
        "ms",
        false,
        Host,
        "job_turnaround_s, peak_rss_mib · service-mix",
    ),
    m(
        "control.report_text_us",
        "us",
        false,
        Host,
        "job_turnaround_s · service-mix",
    ),
    m(
        "loadgen.requests",
        "count",
        true,
        Fixed,
        "validity: scraper requests sent",
    ),
    m(
        "loadgen.late_p99_ms",
        "ms",
        false,
        Host,
        "validity: how late the open-loop scraper sent",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        false,
        Host,
        "validity: traced vs untraced job_turnaround_s",
    ),
    m(
        "trace.unattributed_frac",
        "ratio",
        false,
        Host,
        "validity: traced wall time outside every layer span",
    ),
    m(
        "replay_trials_per_s",
        "trials/s",
        true,
        Host,
        "end-to-end, durable only: journaled trials / replay-phase wall time",
    ),
    m(
        "http_p50_ms",
        "ms",
        false,
        Host,
        "end-to-end, service-mix only: scraper latency from due time",
    ),
    m(
        "http_p99_ms",
        "ms",
        false,
        Host,
        "end-to-end, service-mix only: p99 when >= 10 samples lie beyond it",
    ),
    m(
        "ops_failed_frac",
        "ratio",
        false,
        Fixed,
        "end-to-end: failed / attempted checked operations",
    ),
];

/// The catalog as one JSON document.
pub fn describe() -> String {
    let q = serscale_telemetry::json::escape;
    let metric = |x: &Metric| {
        format!(
            "{{\"name\":{},\"unit\":{},\"better\":\"{}\",\"clock\":\"{}\",\"moves\":{}}}",
            q(x.name),
            q(x.unit),
            if x.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            match x.clock {
                Host => "host time",
                Memory => "host memory",
                Fixed => "fixed by seed",
            },
            q(x.moves)
        )
    };
    let mut out = String::from("{\"workloads\":[");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{{\"name\":{},\"why\":{}}}", q(w.name), q(w.why));
    }
    let list = |metrics: &[Metric]| metrics.iter().map(metric).collect::<Vec<_>>().join(",");
    let _ = write!(
        out,
        "],\"seeds\":{{\"default\":{DEFAULT_SEED},\"held_out\":{HELD_OUT_SEED}}},\
         \"end_to_end\":[{}],\"per_layer\":[{}]}}",
        list(&END_TO_END),
        list(&PER_LAYER)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_telemetry::json::{self, JsonValue};

    #[test]
    fn describe_is_json_and_names_are_unique() {
        json::parse(&describe()).expect("catalog renders as JSON");
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|x| x.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// catalog's workloads and metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(JsonValue::Array(items)) => items.clone(),
            _ => panic!("BENCHMARK.json: {key} is not a list"),
        };
        let field =
            |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (Some(w.name.to_string()), Some(w.why.to_string())))
            .collect();
        assert_eq!(workloads, expected);
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), catalog.len(), "{key} count");
            for (entry, metric) in listed.iter().zip(catalog) {
                assert_eq!(field(entry, "name").as_deref(), Some(metric.name));
                assert_eq!(
                    field(entry, "unit").as_deref(),
                    Some(metric.unit),
                    "{}",
                    metric.name
                );
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    field(entry, "better").as_deref(),
                    Some(better),
                    "{}",
                    metric.name
                );
            }
        }
    }
}
