//! `repro` — regenerate the paper's tables and figures from the simulator.
//!
//! ```text
//! repro --all                 # everything, full-scale campaign
//! repro --platform zynq-mpsoc --golden   # second built-in platform
//! repro --platform spec.json --headlines # platform from a JSON spec file
//! repro --table 2             # one table
//! repro --figure 11           # one figure
//! repro --scale 0.1 --all     # 10% beam time (fast preview)
//! repro --seed 123 --figure 8
//! repro --ablations           # mechanism ablations (beyond the paper)
//! repro --sweep               # fine-grained voltage sweep + advisor
//! repro --jobs 8 --all        # same bits, eight worker threads
//! repro --golden              # bit-stable summary for the CI golden diff
//! repro --all --journal DIR   # crash-safe: fsync'd run journal in DIR
//! repro --all --resume DIR    # replay DIR's journal, continue, same bits
//! repro --trial-timeout 30 …  # retry/quarantine trials hung past 30 s
//! repro --all --listen 127.0.0.1:8080   # live /metrics /healthz /progress …
//! repro verify --budget small # statistical verification suite → verdict JSON
//! repro bench --out BENCH_campaign_throughput.json   # throughput artifact
//! repro serve --listen 127.0.0.1:8080   # campaign-as-a-service control plane
//! repro inspect DIR           # offline forensics on a finished run
//! repro inspect --folded DIR  # collapsed stacks for flamegraph tooling
//! repro inspect --diff A B    # headline deltas between two runs
//! repro inspect --convergence DIR  # replay the journal's CI estimators
//! ```

use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serscale_bench::{experiments, GOLDEN_SCALE, REPRO_SEED};
use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::journal::{start_or_resume, RecoveredCampaign, SyncProbe};
use serscale_core::session::RetryPolicy;
use serscale_core::trace::{tee, Logbook, NoopObserver, SessionObserver};
use serscale_soc::{parse_platform, PlatformSpec};
use serscale_telemetry::{
    ControlPlane, ControlPlaneOptions, ProgressMode, TelemetryOptions, TelemetrySink,
};
use serscale_verify::{OracleContext, TrialBudget};

/// Simulated seconds of a platform's full-scale campaign (64.8 beam hours
/// on the paper's X-Gene 2), for the progress reporter's ETA.
fn full_campaign_sim_secs(platform: &PlatformSpec) -> f64 {
    platform.campaign.iter().map(|c| c.minutes * 60.0).sum()
}

struct Args {
    scale: f64,
    seed: u64,
    jobs: usize,
    platform: Option<String>,
    tables: Vec<u32>,
    figures: Vec<u32>,
    headlines: bool,
    ablations: bool,
    sweep: bool,
    selfcheck: bool,
    golden: bool,
    telemetry_out: Option<String>,
    journal: Option<String>,
    resume: Option<String>,
    trial_timeout: Option<f64>,
    listen: Option<String>,
    linger: f64,
    no_progress: bool,
    summary_out: Option<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 1.0,
        seed: REPRO_SEED,
        jobs: default_jobs(),
        platform: None,
        tables: Vec::new(),
        figures: Vec::new(),
        headlines: false,
        ablations: false,
        sweep: false,
        selfcheck: false,
        golden: false,
        telemetry_out: None,
        journal: None,
        resume: None,
        trial_timeout: None,
        listen: None,
        linger: 0.0,
        no_progress: false,
        summary_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => {
                args.tables = vec![1, 2, 3];
                args.figures = (4..=13).collect();
                args.headlines = true;
                args.ablations = true;
                args.sweep = true;
                args.selfcheck = true;
            }
            "--table" => {
                let n = it.next().ok_or("--table needs a number")?;
                args.tables
                    .push(n.parse().map_err(|_| format!("bad table number {n}"))?);
            }
            "--figure" => {
                let n = it.next().ok_or("--figure needs a number")?;
                args.figures
                    .push(n.parse().map_err(|_| format!("bad figure number {n}"))?);
            }
            "--headlines" => args.headlines = true,
            "--ablations" => args.ablations = true,
            "--sweep" => args.sweep = true,
            "--selfcheck" => args.selfcheck = true,
            "--scale" => {
                let s = it.next().ok_or("--scale needs a value")?;
                args.scale = s.parse().map_err(|_| format!("bad scale {s}"))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err("scale must be in (0, 1]".into());
                }
            }
            "--seed" => {
                let s = it.next().ok_or("--seed needs a value")?;
                args.seed = s.parse().map_err(|_| format!("bad seed {s}"))?;
            }
            "--jobs" => {
                let s = it.next().ok_or("--jobs needs a value")?;
                args.jobs = s.parse().map_err(|_| format!("bad jobs count {s}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--platform" => {
                args.platform = Some(it.next().ok_or("--platform needs a name or a file")?);
            }
            "--golden" => args.golden = true,
            "--telemetry-out" => {
                args.telemetry_out = Some(it.next().ok_or("--telemetry-out needs a directory")?);
            }
            "--journal" => {
                args.journal = Some(it.next().ok_or("--journal needs a directory")?);
            }
            "--resume" => {
                args.resume = Some(it.next().ok_or("--resume needs a directory")?);
            }
            "--trial-timeout" => {
                let s = it.next().ok_or("--trial-timeout needs seconds")?;
                let secs: f64 = s.parse().map_err(|_| format!("bad trial timeout {s}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--trial-timeout must be positive".into());
                }
                args.trial_timeout = Some(secs);
            }
            "--listen" => {
                args.listen = Some(it.next().ok_or("--listen needs an address (host:port)")?);
            }
            "--linger" => {
                let s = it.next().ok_or("--linger needs seconds")?;
                let secs: f64 = s.parse().map_err(|_| format!("bad linger time {s}"))?;
                if !(secs >= 0.0 && secs.is_finite()) {
                    return Err("--linger must be nonnegative".into());
                }
                args.linger = secs;
            }
            "--no-progress" => args.no_progress = true,
            "--summary-out" => {
                args.summary_out = Some(it.next().ok_or("--summary-out needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--all] [--table N]* [--figure N]* [--headlines] \
                     [--ablations] [--sweep] [--selfcheck] [--golden] [--scale F] \
                     [--seed N] [--jobs N] [--platform NAME|FILE] [--telemetry-out DIR] \
                     [--journal DIR | --resume DIR] [--trial-timeout SECS] \
                     [--listen HOST:PORT] [--linger SECS] [--no-progress] \
                     [--summary-out PATH]\n       \
                     repro verify [--budget small|medium|large] \
                     [--seed N] [--out verdict.json] [--telemetry-out DIR]\n       \
                     repro bench [--out bench.json]\n       \
                     repro serve [--listen HOST:PORT] [--max-concurrent N] \
                     [--jobs N] [--state DIR] [--for-secs SECS]\n       \
                     repro inspect [--folded | --diff | --convergence] [--out PATH] \
                     DIR [DIR_B]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.tables.is_empty()
        && args.figures.is_empty()
        && !args.headlines
        && !args.ablations
        && !args.sweep
        && !args.selfcheck
        && !args.golden
        && args.summary_out.is_none()
    {
        return Err("nothing to do; try --all (or --help)".into());
    }
    if args.journal.is_some() && args.resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (--resume already journals)".into(),
        );
    }
    if args.linger > 0.0 && args.listen.is_none() {
        return Err("--linger only makes sense with --listen".into());
    }
    Ok(args)
}

/// Resolves `--platform`: a built-in name first (`xgene2`, `zynq-mpsoc`),
/// then a JSON platform-spec file. Schema violations surface the spec
/// layer's structured field errors verbatim.
fn resolve_platform(arg: &str) -> Result<PlatformSpec, String> {
    if let Some(spec) = PlatformSpec::builtin(arg) {
        return Ok(spec);
    }
    let path = Path::new(arg);
    if path.is_file() {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read platform file {arg}: {e}"))?;
        return parse_platform(&body).map_err(|e| format!("platform file {arg}: {e}"));
    }
    Err(format!(
        "unknown platform {arg}: not a built-in ({}) and not a spec file",
        PlatformSpec::BUILTIN_NAMES.join(", ")
    ))
}

/// Parses `repro bench`'s arguments: the artifact path, if any.
fn parse_bench_args(mut it: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let mut out = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                println!("usage: repro bench [--out BENCH_campaign_throughput.json]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown bench argument {other}")),
        }
    }
    Ok(out)
}

/// Runs the throughput bench: human summary on stderr, bench JSON on
/// stdout (or into `--out`). The measurement asserts determinism on every
/// iteration, so a nonzero exit here is an engine regression, not a perf
/// number.
fn run_bench(out: Option<&str>) -> ExitCode {
    let budget = serscale_bench::throughput::BUDGET;
    eprintln!(
        "measuring campaign throughput ({}s of rounds)…",
        budget.as_secs()
    );
    let report = serscale_bench::throughput::measure(budget);
    eprint!("{}", report.render());
    let json = report.to_json();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("repro bench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench artifact written to {path}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

struct ServeArgs {
    listen: String,
    max_concurrent: usize,
    default_jobs: usize,
    state: Option<String>,
    for_secs: Option<f64>,
}

fn parse_serve_args(mut it: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        listen: "127.0.0.1:0".to_string(),
        max_concurrent: 2,
        default_jobs: 1,
        state: None,
        for_secs: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                args.listen = it.next().ok_or("--listen needs an address (host:port)")?;
            }
            "--max-concurrent" => {
                let s = it.next().ok_or("--max-concurrent needs a count")?;
                args.max_concurrent = s.parse().map_err(|_| format!("bad max-concurrent {s}"))?;
                if args.max_concurrent == 0 {
                    return Err("--max-concurrent must be at least 1".into());
                }
            }
            "--jobs" => {
                let s = it.next().ok_or("--jobs needs a value")?;
                args.default_jobs = s.parse().map_err(|_| format!("bad jobs count {s}"))?;
                if args.default_jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--state" => {
                args.state = Some(it.next().ok_or("--state needs a directory")?);
            }
            "--for-secs" => {
                let s = it.next().ok_or("--for-secs needs seconds")?;
                let secs: f64 = s.parse().map_err(|_| format!("bad for-secs {s}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--for-secs must be positive".into());
                }
                args.for_secs = Some(secs);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro serve [--listen HOST:PORT] [--max-concurrent N] \
                     [--jobs N] [--state DIR] [--for-secs SECS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown serve argument {other}")),
        }
    }
    Ok(args)
}

/// Runs the campaign service: the monitoring plane plus the read-write
/// `/campaigns` routes, until `POST /shutdown` arrives (or `--for-secs`
/// elapses — a safety net for CI). The shutdown drains: in-flight
/// campaigns finish, queued jobs stay queued with resumable journals.
/// There is no signal handler — the workspace forbids `unsafe`, and an
/// abrupt kill is already covered by the journals' torn-tail recovery.
fn run_serve(args: &ServeArgs) -> ExitCode {
    if let Some(dir) = &args.state {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro serve: cannot create state dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let sink = std::sync::Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
    let control = ControlPlane::start(ControlPlaneOptions {
        max_concurrent: args.max_concurrent,
        default_jobs: args.default_jobs,
        state_dir: args.state.as_ref().map(PathBuf::from),
        start_paused: false,
    });
    let mut server = match sink.serve_control(&args.listen, std::sync::Arc::clone(&control)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("repro serve: cannot listen on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    // The address goes to stderr, like the monitoring plane's: CI scrapes
    // it from the log, and stdout stays hermetic.
    eprintln!("campaign service on http://{}", server.addr());
    let requested = control.wait_shutdown(args.for_secs.map(std::time::Duration::from_secs_f64));
    if !requested {
        eprintln!("repro serve: --for-secs window elapsed; draining in-flight campaigns");
    }
    control.drain();
    server.shutdown();
    // With every handler thread joined, the access log (appended to
    // `access.jsonl` as each request ended) and the service metrics are
    // final and mutually consistent; persisting the metrics lets CI
    // reconcile the per-request log against the counter totals offline.
    if let Some(dir) = &args.state {
        if let Some(e) = server.access_log_failure() {
            let path = Path::new(dir).join("access.jsonl");
            eprintln!("repro serve: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let path = Path::new(dir).join("service.prom");
        let prom = server.metrics_snapshot().render_prometheus();
        if let Err(e) = std::fs::write(&path, prom) {
            eprintln!("repro serve: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("campaign service stopped");
    ExitCode::SUCCESS
}

struct InspectArgs {
    dirs: Vec<String>,
    folded: bool,
    diff: bool,
    convergence: bool,
    out: Option<String>,
}

fn parse_inspect_args(it: impl Iterator<Item = String>) -> Result<InspectArgs, String> {
    let mut args = InspectArgs {
        dirs: Vec::new(),
        folded: false,
        diff: false,
        convergence: false,
        out: None,
    };
    let mut it = it;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--folded" => args.folded = true,
            "--diff" => args.diff = true,
            "--convergence" => args.convergence = true,
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro inspect [--folded] [--out PATH] DIR\n       \
                     repro inspect --diff [--out PATH] DIR_A DIR_B\n       \
                     repro inspect --convergence [--out PATH] DIR\n\n\
                     DIR is a --telemetry-out export, a --journal directory, a \
                     `repro serve` job directory, or a serve --state directory \
                     (every job-N inside it is inspected).\n\n\
                     --convergence replays DIR's journal.jsonl through the live \
                     estimator arithmetic and prints the statistical convergence \
                     snapshot (per-point rates, Garwood CIs, precision flags) — \
                     byte-identical to the run's final /convergence document."
                );
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown inspect argument {other}"));
            }
            dir => args.dirs.push(dir.to_string()),
        }
    }
    if args.convergence && (args.folded || args.diff) {
        return Err("--convergence cannot combine with --folded or --diff".to_string());
    }
    match (args.diff, args.dirs.len()) {
        (true, 2) | (false, 1) => Ok(args),
        (true, n) => Err(format!("--diff needs exactly two directories, got {n}")),
        (false, n) => Err(format!("inspect needs exactly one directory, got {n}")),
    }
}

/// Expands an inspect target: the directory itself when it holds run
/// artifacts, otherwise its `job-*` children that do (a `repro serve`
/// state directory).
fn inspect_targets(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if serscale_telemetry::inspect::has_artifacts(dir) {
        return Ok(vec![dir.to_path_buf()]);
    }
    let mut jobs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.is_dir()
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("job-"))
                && serscale_telemetry::inspect::has_artifacts(path)
        })
        .collect();
    jobs.sort();
    if jobs.is_empty() {
        return Err(format!(
            "{}: no run artifacts and no job-* directories with any",
            dir.display()
        ));
    }
    Ok(jobs)
}

/// Runs offline forensics: the report (or collapsed stacks, or a diff of
/// two runs) goes to stdout or `--out`.
fn run_inspect(args: &InspectArgs) -> ExitCode {
    let render = || -> Result<String, String> {
        if args.convergence {
            // Replay each journal through the live estimator arithmetic;
            // the rendering is byte-identical to the run's final
            // /convergence document, so `cmp` closes the loop.
            let dir = Path::new(&args.dirs[0]);
            let targets = if dir.join("journal.jsonl").is_file() {
                vec![dir.to_path_buf()]
            } else {
                inspect_targets(dir)?
            };
            let mut out = String::new();
            for target in targets {
                let tracker = serscale_telemetry::convergence::ConvergenceTracker::replay(&target)
                    .map_err(|e| format!("{}: {e}", target.display()))?;
                out.push_str(&tracker.snapshot().to_json());
            }
            return Ok(out);
        }
        if args.diff {
            let single = |dir: &str| {
                let targets = inspect_targets(Path::new(dir))?;
                match targets.as_slice() {
                    [one] => serscale_telemetry::inspect_dir(one),
                    many => Err(format!(
                        "{dir}: --diff needs a single run, found {} job directories",
                        many.len()
                    )),
                }
            };
            let a = single(&args.dirs[0])?;
            let b = single(&args.dirs[1])?;
            return Ok(serscale_telemetry::inspect::render_diff(&a, &b));
        }
        let mut out = String::new();
        for target in inspect_targets(Path::new(&args.dirs[0]))? {
            let report = serscale_telemetry::inspect_dir(&target)?;
            out.push_str(&if args.folded {
                report.folded()
            } else {
                report.render()
            });
        }
        Ok(out)
    };
    let text = match render() {
        Ok(text) => text,
        Err(e) => {
            eprintln!("repro inspect: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("repro inspect: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("forensic report written to {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

struct VerifyArgs {
    budget: TrialBudget,
    seed: u64,
    out: Option<String>,
    telemetry_out: Option<String>,
}

fn parse_verify_args(mut it: impl Iterator<Item = String>) -> Result<VerifyArgs, String> {
    let mut args = VerifyArgs {
        budget: TrialBudget::small(),
        seed: REPRO_SEED,
        out: None,
        telemetry_out: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let b = it.next().ok_or("--budget needs small|medium|large")?;
                args.budget = TrialBudget::parse(&b)
                    .ok_or(format!("unknown budget {b} (small|medium|large)"))?;
            }
            "--seed" => {
                let s = it.next().ok_or("--seed needs a value")?;
                args.seed = s.parse().map_err(|_| format!("bad seed {s}"))?;
            }
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a path")?);
            }
            "--telemetry-out" => {
                args.telemetry_out = Some(it.next().ok_or("--telemetry-out needs a directory")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro verify [--budget small|medium|large] [--seed N] \
                     [--out verdict.json] [--telemetry-out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown verify argument {other}")),
        }
    }
    Ok(args)
}

/// Runs the statistical verification suite: human summary on stderr,
/// verdict JSON on stdout (or into `--out`), nonzero exit on violation.
fn run_verify(args: &VerifyArgs) -> ExitCode {
    eprintln!(
        "running verification suite (budget {}, seed {})…",
        args.budget.name, args.seed
    );
    let verdict = serscale_verify::run_suite(&OracleContext::new(args.seed, args.budget));
    eprint!("{}", verdict.render());
    let json = verdict.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("repro verify: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("verdict written to {path}");
        }
        None => println!("{json}"),
    }
    if let Some(dir) = &args.telemetry_out {
        // Verdict headline numbers as gauges: a dashboard can track
        // all-green / violation counts across runs without parsing JSON.
        let sink = match TelemetrySink::new(Path::new(dir), TelemetryOptions::default()) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("repro verify: cannot open telemetry dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, labels, value) in verdict.headline_gauges() {
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            sink.set_gauge(&name, &labels, value);
        }
        if let Err(e) = sink.write() {
            eprintln!("repro verify: telemetry write failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("telemetry written to {dir}");
    }
    if verdict.all_green() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("verify") {
        raw.next();
        return match parse_verify_args(raw) {
            Ok(a) => run_verify(&a),
            Err(e) => {
                eprintln!("repro verify: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.peek().map(String::as_str) == Some("bench") {
        raw.next();
        return match parse_bench_args(raw) {
            Ok(out) => run_bench(out.as_deref()),
            Err(e) => {
                eprintln!("repro bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        return match parse_serve_args(raw) {
            Ok(a) => run_serve(&a),
            Err(e) => {
                eprintln!("repro serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.peek().map(String::as_str) == Some("inspect") {
        raw.next();
        return match parse_inspect_args(raw) {
            Ok(a) => run_inspect(&a),
            Err(e) => {
                eprintln!("repro inspect: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The platform every campaign of this invocation runs on. The paper's
    // X-Gene 2 stays the default, so plain invocations are byte-for-byte
    // what they always were.
    let platform = match args.platform.as_deref().map(resolve_platform) {
        None => PlatformSpec::xgene2(),
        Some(Ok(spec)) => spec,
        Some(Err(e)) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };

    let needs_campaign = args.headlines
        || args.selfcheck
        || args.summary_out.is_some()
        || args.tables.iter().any(|t| *t >= 2)
        || args.figures.iter().any(|f| *f != 4);

    // Crash-safety controls. `--resume` is `--journal` plus the demand
    // that a journal already exists: a typo'd directory must fail loudly,
    // not silently start a fresh run.
    let retry = match args.trial_timeout {
        Some(secs) => RetryPolicy::with_timeout(std::time::Duration::from_secs_f64(secs)),
        None => RetryPolicy::standard(),
    };
    let journal_dir: Option<PathBuf> = args
        .resume
        .as_ref()
        .or(args.journal.as_ref())
        .map(PathBuf::from);
    if let Some(dir) = &args.resume {
        let path = serscale_core::journal::journal_path(Path::new(dir));
        if !path.is_file() {
            eprintln!("repro: --resume {dir}: no journal at {}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // The telemetry sink observes whichever campaign this invocation runs
    // (the analysis campaign if one is needed, otherwise the golden run).
    // Observation is one-way, so golden output and reports are unchanged
    // whether the sink exists or not. `--listen` gets an in-memory sink
    // when no `--telemetry-out` directory is given: the server reads live
    // state, nothing lands on disk. The progress reporter rewrites a line
    // in place on interactive terminals and falls back to plain periodic
    // lines when stderr is not a TTY or `CI`/`NO_COLOR` is set; it stays
    // off entirely in golden runs, where stderr must remain hermetic.
    let sink = if args.telemetry_out.is_some() || args.listen.is_some() {
        let interactive = std::io::stderr().is_terminal()
            && std::env::var_os("CI").is_none()
            && std::env::var_os("NO_COLOR").is_none();
        let options = TelemetryOptions {
            progress: !args.no_progress && !args.golden,
            progress_mode: if interactive {
                ProgressMode::Interactive
            } else {
                ProgressMode::Plain
            },
            trial_spans: false,
        };
        match &args.telemetry_out {
            Some(dir) => match TelemetrySink::new(Path::new(dir), options) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    eprintln!("repro: cannot open telemetry dir {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => Some(TelemetrySink::in_memory(options)),
        }
    } else {
        None
    };

    // The monitoring plane: live /metrics, /healthz, /progress, /spans
    // and /campaign over the sink's state. The address goes to *stderr* —
    // stdout is golden-diffed byte for byte and must stay hermetic.
    let mut monitor = match (&sink, &args.listen) {
        (Some(sink), Some(addr)) => match sink.serve(addr) {
            Ok(server) => {
                eprintln!("monitoring on http://{}", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("repro: cannot listen on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => None,
    };

    // Publish slow-changing campaign facts for `/campaign`, and wire the
    // journal's fsync probe into `/healthz` when the run is journaled.
    let probe = match (&sink, &journal_dir) {
        (Some(sink), Some(_)) => {
            let probe = SyncProbe::new();
            sink.attach_sync_probe(probe.clone());
            Some(probe)
        }
        _ => None,
    };
    if let Some(sink) = &sink {
        let (fp_scale, fp_seed) = if needs_campaign {
            (args.scale, args.seed)
        } else {
            (GOLDEN_SCALE, REPRO_SEED)
        };
        let mut config = CampaignConfig::for_platform_scaled(&platform, fp_scale);
        config.seed = fp_seed;
        let fingerprint = serscale_core::journal::config_fingerprint(&config);
        let journal = journal_dir.as_deref().map(|dir| {
            serscale_core::journal::journal_path(dir)
                .display()
                .to_string()
        });
        let platform_name = platform.name.clone();
        sink.set_campaign_status(|status| {
            status.platform = Some(platform_name);
            status.config_fingerprint = Some(fingerprint);
            status.journal = journal;
        });
    }

    let mut trace = Logbook::new();
    let mut resumed_trials = 0u64;
    // Runs one campaign of this invocation. The journal, the retry policy
    // and the telemetry sink attach to the analysis campaign when one
    // runs, otherwise to the golden run (the only campaign of the
    // invocation). A journal directory that already holds a journal for
    // this exact configuration is resumed: its completed prefix is
    // replayed instead of re-simulated, bit-identically.
    let mut run_campaign =
        |scale: f64, seed: u64, attached: bool| -> Result<CampaignReport, String> {
            let mut config = CampaignConfig::for_platform_scaled(&platform, scale);
            config.seed = seed;
            let campaign = Campaign::new(config);
            let journal = journal_dir.as_deref().filter(|_| attached);
            let (mut writer, recovered) = match journal {
                Some(dir) => {
                    let (mut writer, recovered) = start_or_resume(dir, campaign.config())
                        .map_err(|e| format!("run journal at {}: {e}", dir.display()))?;
                    if let Some(probe) = &probe {
                        writer.attach_probe(probe.clone());
                    }
                    (Some(writer), recovered)
                }
                None => (None, None),
            };
            resumed_trials = recovered
                .as_ref()
                .map_or(0, RecoveredCampaign::trials_recovered);
            let mut noop = NoopObserver;
            let mut teed;
            let observer: &mut dyn SessionObserver = match &sink {
                Some(sink) if attached => {
                    sink.set_progress_target_sim_secs(scale * full_campaign_sim_secs(&platform));
                    teed = tee(&mut trace, sink.observer());
                    &mut teed
                }
                _ => &mut noop,
            };
            let report = campaign.try_run(
                CampaignRunOptions {
                    jobs: args.jobs,
                    retry: if attached {
                        retry
                    } else {
                        RetryPolicy::standard()
                    },
                    journal: writer.as_mut(),
                    recovered: recovered.as_ref(),
                    cancel: None,
                },
                observer,
            );
            report.map_err(|e| match journal {
                Some(dir) => format!("run journal at {}: {e}", dir.display()),
                None => e.to_string(),
            })
        };

    let mut golden_report: Option<CampaignReport> = None;
    if args.golden {
        // The golden diff is pinned to one (scale, seed) pair; only the
        // worker count is the caller's to vary — by contract it must not
        // change a single byte of this output.
        match run_campaign(GOLDEN_SCALE, REPRO_SEED, !needs_campaign) {
            Ok(report) => {
                print!("{}", serscale_bench::golden_summary(&report));
                golden_report = Some(report);
            }
            Err(e) => {
                eprintln!("repro: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = if needs_campaign {
        eprintln!(
            "running {} campaign at scale {} (seed {}), ~{:.1} simulated beam hours on {} worker(s)…",
            platform.name,
            args.scale,
            args.seed,
            full_campaign_sim_secs(&platform) / 3600.0 * args.scale,
            args.jobs
        );
        match run_campaign(args.scale, args.seed, true) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("repro: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let report = report.as_ref();

    // The CI control-plane job diffs service-produced reports against
    // this file: same renderer, same spec → byte-identical text.
    if let Some(path) = &args.summary_out {
        let text = serscale_bench::golden_summary(report.expect("campaign"));
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("repro: cannot write summary to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bit-stable summary written to {path}");
    }

    // Every report reads the platform the campaign ran on.
    let spec = &platform;
    for t in &args.tables {
        match t {
            1 => println!("{}", experiments::table1(spec)),
            2 => println!("{}", experiments::table2(spec, report.expect("campaign"))),
            3 => println!("{}", experiments::table3(spec, report.expect("campaign"))),
            other => eprintln!("repro: no table {other} in the paper"),
        }
    }
    for f in &args.figures {
        let text = match f {
            4 => experiments::figure4(spec, args.seed, 100),
            5 => experiments::figure5(spec, report.expect("campaign")),
            6 => experiments::figure6(spec, report.expect("campaign")),
            7 => experiments::figure7(spec, report.expect("campaign")),
            8 => experiments::figure8(spec, report.expect("campaign")),
            9 => experiments::figure9(spec, report.expect("campaign")),
            10 => experiments::figure10(spec, report.expect("campaign")),
            11 => experiments::figure11(spec, report.expect("campaign")),
            12 => experiments::figure12(spec, report.expect("campaign")),
            13 => experiments::figure13(spec, report.expect("campaign")),
            other => {
                eprintln!("repro: no figure {other} in the paper's evaluation");
                continue;
            }
        };
        println!("{text}");
    }
    if args.headlines {
        println!(
            "{}",
            experiments::headlines(spec, report.expect("campaign"))
        );
    }
    if args.sweep {
        println!("{}", experiments::voltage_sweep(spec));
    }
    if args.ablations {
        println!("{}", experiments::ablations(spec, args.seed));
    }
    if args.selfcheck {
        let outcome = serscale_bench::selfcheck::run_checks(spec, report.expect("campaign"));
        println!("{}", outcome.render());
        if !outcome.passed() {
            return ExitCode::FAILURE;
        }
    }

    if let Some(sink) = &sink {
        // Counters must agree with whichever report the observer watched;
        // a mismatch means the telemetry lied and the run fails.
        let observed = if needs_campaign {
            report
        } else {
            golden_report.as_ref()
        };
        if let Some(observed) = observed {
            if let Err(e) = sink.crosscheck_campaign(observed) {
                eprintln!("repro: telemetry/report crosscheck FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        sink.set_campaign_status(|status| {
            status.resumed_trials = resumed_trials;
            status.done = true;
        });
        if args.telemetry_out.is_some() {
            // Artifacts land before any linger window, so a live scrape
            // during the window and the on-disk snapshot agree exactly.
            if let Err(e) = sink
                .write()
                .and_then(|_| sink.write_extra("trace.jsonl", &trace.to_jsonl()))
            {
                eprintln!("repro: telemetry write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprint!("{}", sink.summary());
        if let Some(dir) = args.telemetry_out.as_deref() {
            eprintln!("telemetry written to {dir}");
        }
    }
    if let Some(server) = &mut monitor {
        // Hold the endpoints up so scrapers can read the final state —
        // a full-scale campaign finishes in under a second, far faster
        // than any polling loop.
        if args.linger > 0.0 {
            eprintln!("monitoring lingers {:.0}s before shutdown…", args.linger);
            std::thread::sleep(std::time::Duration::from_secs_f64(args.linger));
        }
        server.shutdown();
    }
    ExitCode::SUCCESS
}
