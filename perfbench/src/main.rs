//! `perfbench` — the serscale benchmark.
//!
//! ```text
//! perfbench --workload campaign-bare --seed 20231028 --seconds 25 --trace 0
//! perfbench --describe          # workloads and metrics, as JSON
//! ```
//!
//! One run measures one workload. It computes its references first (one
//! inline campaign per campaign seed), times its set-up in fresh child
//! processes, then repeats fixed-work iterations for `--seconds`, checking
//! every output against the references. `--trace 1` adds one traced
//! iteration whose spans wrap the benchmark's calls into each layer. The
//! last line of stdout is the result as JSON; the exit code is 1 when any
//! check failed and 2 when the run could not be made.

mod campaign;
mod catalog;
mod harness;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use serscale_core::journal::config_fingerprint;
use serscale_core::parallel::effective_workers;
use serscale_soc::PlatformSpec;
use serscale_workload::Benchmark;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::harness::{
    campaign_seeds, config, reset_peak_rss, Checks, Ctx, Reference, Series, Values,
};
use crate::stats::median;
use crate::trace::Tracer;

/// Child processes timed for `setup_s`.
const SETUP_PROBES: usize = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Bare,
    Durable,
    Service,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "campaign-bare" => Some(Workload::Bare),
            "campaign-durable" => Some(Workload::Durable),
            "service-mix" => Some(Workload::Service),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Bare => "campaign-bare",
            Workload::Durable => "campaign-durable",
            Workload::Service => "service-mix",
        }
    }

    /// Worker threads per campaign.
    fn jobs(self) -> usize {
        match self {
            Workload::Durable => campaign::DURABLE_JOBS,
            Workload::Bare | Workload::Service => 1,
        }
    }

    /// Distinct campaign seeds the iterations cycle through: enough that
    /// one run averages over the seed-to-seed spread of SDC counts.
    fn campaign_seeds(self) -> usize {
        match self {
            Workload::Bare => 16,
            Workload::Durable => 6,
            Workload::Service => 3,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe_setup: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        probe_setup: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let s = value()?;
                args.seed = s.parse().map_err(|_| format!("bad seed {s}"))?;
            }
            "--seconds" => {
                let s = value()?;
                args.seconds = s.parse().map_err(|_| format!("bad seconds {s}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--probe-setup" => args.probe_setup = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// A traced run's layer metrics and where its time went.
pub struct Traced {
    values: Values,
    self_times: BTreeMap<&'static str, u64>,
    wall_ns: f64,
}

impl Traced {
    /// Wraps a traced run's values; the tracer's `trace.root` span is the
    /// run's wall time, and its self time is what no layer span covers.
    pub fn new(mut values: Values, tracer: &Tracer) -> Self {
        let self_times = tracer.self_times();
        let wall_ns = tracer.total_ns("trace.root");
        let unattributed = self_times.get("trace.root").copied().unwrap_or(0) as f64;
        values.insert("trace.unattributed_frac", unattributed / wall_ns.max(1.0));
        Traced {
            values,
            self_times,
            wall_ns,
        }
    }
}

/// The scratch directory of this process, inside the checkout.
fn work_dir(label: &str) -> PathBuf {
    Path::new(".bench_work").join(format!("{label}-{}", std::process::id()))
}

/// The one-time work a workload does before its first timed operation,
/// timed inside a fresh process so no cache survives from earlier runs.
fn probe_setup(workload: Workload) -> ExitCode {
    let state = work_dir("probe");
    let start = Instant::now();
    std::hint::black_box(PlatformSpec::xgene2());
    for benchmark in Benchmark::ALL {
        std::hint::black_box(benchmark.shared_golden());
    }
    let service = match workload {
        Workload::Service => match service::start(&state) {
            Ok(service) => Some(service),
            Err(e) => {
                eprintln!("perfbench: cannot start the service: {e}");
                return ExitCode::from(2);
            }
        },
        Workload::Bare | Workload::Durable => None,
    };
    let elapsed = start.elapsed().as_secs_f64();
    if let Some((control, _sink, server)) = service {
        service::stop(&control, server);
    }
    let _ = std::fs::remove_dir_all(&state);
    println!("{elapsed}");
    ExitCode::SUCCESS
}

/// The median set-up time of [`SETUP_PROBES`] fresh processes.
fn measure_setup(workload: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--probe-setup", "--workload", workload.name()])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(secs) if out.status.success() => samples.push(secs),
            _ => {
                return Err(format!(
                    "setup probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    median(&samples).ok_or_else(|| "no setup samples".to_string())
}

fn toolchain() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// A metric value as JSON: every digit as measured. Infinity (a latency
/// percentile reached by failed requests) prints as the largest double
/// and an undefined value as 0; both occur only in runs that failed.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x == f64::INFINITY {
        format!("{}", f64::MAX)
    } else {
        "0".to_string()
    }
}

fn print_table(title: &str, metrics: &[Metric], values: &Values) {
    println!("{title}");
    for metric in metrics {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        println!(
            "  {:<28} {:>16} {}",
            metric.name,
            format!("{value:.6}"),
            metric.unit
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", catalog::describe());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload campaign-bare|campaign-durable|service-mix is required");
        return ExitCode::from(2);
    };
    if args.probe_setup {
        return probe_setup(workload);
    }
    if workload == Workload::Durable && effective_workers(campaign::DURABLE_JOBS) < 2 {
        eprintln!(
            "perfbench: campaign-durable needs two pool workers, but this host gives \
             effective_workers({}) = {}; it would silently measure the inline path",
            campaign::DURABLE_JOBS,
            effective_workers(campaign::DURABLE_JOBS)
        );
        return ExitCode::from(2);
    }
    let work = work_dir(workload.name());
    let code = run(workload, &args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work"); // only when no other run uses it
    code
}

fn run(workload: Workload, args: &Args, work: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let setup_s = match measure_setup(workload) {
        Ok(secs) => secs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Harness preparation, excluded from every metric: the goldens, the
    // references, and a clean memory watermark.
    for benchmark in Benchmark::ALL {
        std::hint::black_box(benchmark.shared_golden());
    }
    let seeds = campaign_seeds(args.seed, workload.campaign_seeds());
    let mut ctx = Ctx {
        // One thread: helper threads would leave malloc arenas behind in
        // the resident set the workload's peak is measured against.
        refs: seeds.iter().map(|&seed| Reference::compute(seed)).collect(),
        seconds: args.seconds,
        work: work.to_path_buf(),
        checks: Checks::default(),
    };
    let watermark_reset = reset_peak_rss();
    let started = Instant::now();
    let series: Series = match workload {
        Workload::Bare => campaign::bare(&mut ctx),
        Workload::Durable => campaign::durable(&mut ctx),
        Workload::Service => service::service(&mut ctx),
    };
    let measured_s = started.elapsed().as_secs_f64();
    let medians = series.medians();
    let get = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    let e2e = Values::from([
        ("setup_s", setup_s),
        ("trials_per_s", get("trials_per_s")),
        ("job_turnaround_s", get("job_turnaround_s")),
        ("peak_rss_mib", get("peak_rss_mib")),
    ]);

    let traced = args.trace.then(|| {
        let baseline = median(&series.baseline_turnaround).unwrap_or(f64::NAN);
        match workload {
            Workload::Bare => campaign::bare_traced(&mut ctx, baseline),
            Workload::Durable => campaign::durable_traced(&mut ctx, baseline),
            Workload::Service => service::service_traced(&mut ctx, baseline),
        }
    });
    let checks = &ctx.checks;
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;

    // Workload-specific end-to-end numbers, untraced: printed always,
    // and carried in the per-layer set of a traced run.
    let mut extras = Values::from([("ops_failed_frac", failed_frac)]);
    if workload == Workload::Durable {
        extras.insert("replay_trials_per_s", get("replay_trials_per_s"));
    }
    if let Some(http) = series.http {
        let or_zero = |v: Option<f64>| v.unwrap_or(0.0);
        extras.insert("http_p50_ms", or_zero(http.p50));
        extras.insert("http_p99_ms", or_zero(http.p99));
        extras.insert("loadgen.requests", http.requests as f64);
        extras.insert("loadgen.late_p99_ms", or_zero(http.late_p99));
    }

    let config = config(seeds[0]);
    let mut facts = format!(
        "{{\"workload\":\"{}\",\"nproc\":{},\"jobs\":{},\"effective_workers\":{},\
         \"toolchain\":{},\"config_fingerprint\":\"{:016x}\",\"workload_seed\":{},\
         \"campaign_seeds\":{:?},\"iterations\":{},\"measured_s\":{measured_s:.3},\
         \"watermark_reset\":{watermark_reset}",
        workload.name(),
        std::thread::available_parallelism().map_or(1, usize::from),
        workload.jobs(),
        effective_workers(workload.jobs()),
        serscale_telemetry::json::escape(&toolchain()),
        config_fingerprint(&config),
        args.seed,
        seeds,
        series.iterations,
    );
    if let Some(http) = series.http {
        let _ = write!(facts, ",\"http_requests\":{}", http.requests);
    }
    facts.push('}');

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("facts {facts}");
    print_table(
        &format!("end-to-end, tracing off ({} iterations)", series.iterations),
        &END_TO_END,
        &e2e,
    );
    for (name, value) in &extras {
        println!("  {name:<28} {:>16}", format!("{value:.6}"));
    }
    if series.http.is_some_and(|h| h.p99.is_none()) {
        println!("  (http_p99_ms needs 10 samples beyond the p99; 0 means too few)");
    }
    println!(
        "  checked operations: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    let metrics: Vec<(&Metric, f64)> = match &traced {
        None => END_TO_END.iter().map(|m| (m, e2e[m.name])).collect(),
        Some(traced) => {
            let mut layer = traced.values.clone();
            layer.extend(extras.iter().map(|(k, v)| (*k, *v)));
            print_table("per-layer, traced (0 = layer bypassed)", &PER_LAYER, &layer);
            println!(
                "self time by layer, traced run ({:.3} s wall)",
                traced.wall_ns / 1e9
            );
            let mut by_time: Vec<_> = traced.self_times.iter().collect();
            by_time.sort_by(|a, b| b.1.cmp(a.1));
            for (name, ns) in by_time {
                let name = if *name == "trace.root" {
                    "(unattributed)"
                } else {
                    name
                };
                println!(
                    "  {name:<28} {:>12.3} ms {:>6.1}%",
                    *ns as f64 / 1e6,
                    100.0 * *ns as f64 / traced.wall_ns.max(1.0)
                );
            }
            PER_LAYER
                .iter()
                .map(|m| (m, layer.get(m.name).copied().unwrap_or(0.0)))
                .collect()
        }
    };
    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
