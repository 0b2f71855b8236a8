//! The `service-mix` workload: an in-process `ControlPlane` behind
//! `serve_control` on loopback, driven by a closed-loop tenant and an
//! open-loop scraper.
//!
//! Each mix is fixed work: a fresh control plane (one runner, jobs 1, a
//! fresh state directory), [`JOBS_PER_MIX`] full-scale campaigns
//! submitted one after another, and a scraper at [`SCRAPE_RATE`] cycling
//! through the read-only routes until the last report is fetched. At most
//! two client threads and two connections are open at once.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serscale_telemetry::json::{self, JsonValue};
use serscale_telemetry::serve::http_request;
use serscale_telemetry::{
    ControlPlane, ControlPlaneOptions, MonitorServer, TelemetryOptions, TelemetrySink,
};

use crate::harness::{
    microbenchmarks, p50, peak_rss_mib, repeat_for, reset_peak_rss, Checks, Ctx, Reference, Series,
    Values,
};
use crate::stats::{ms, reportable_quantile, sorted, Schedule, Sent};
use crate::trace::Tracer;
use crate::Traced;

/// Campaigns the tenant submits per mix.
pub const JOBS_PER_MIX: usize = 6;
/// Scraper requests per second, below saturation on two cores.
pub const SCRAPE_RATE: f64 = 300.0;

/// The scraper's routes, by metric name, in the order it cycles them.
const ROUTES: [&str; 7] = [
    "serve.metrics_ms_p50",
    "serve.healthz_ms_p50",
    "serve.progress_ms_p50",
    "serve.campaigns_ms_p50",
    "serve.status_ms_p50",
    "serve.convergence_ms_p50",
    "serve.tenants_ms_p50",
];

fn route_path(route: usize, job: u64) -> String {
    match route {
        0 => "/metrics".to_string(),
        1 => "/healthz".to_string(),
        2 => "/progress".to_string(),
        3 => "/campaigns".to_string(),
        4 => format!("/campaigns/{job}"),
        5 => format!("/campaigns/{job}/convergence"),
        _ => "/tenants".to_string(),
    }
}

/// Starts the service: a control plane over `state` and the loopback
/// server in front of it — the workload's one-time setup.
pub fn start(
    state: &Path,
) -> std::io::Result<(Arc<ControlPlane>, Arc<TelemetrySink>, MonitorServer)> {
    let control = ControlPlane::start(ControlPlaneOptions {
        max_concurrent: 1,
        default_jobs: 1,
        state_dir: Some(state.to_path_buf()),
        start_paused: false,
    });
    let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
    let server = sink.serve_control("127.0.0.1:0", Arc::clone(&control))?;
    Ok((control, sink, server))
}

/// Stops the server, then drains the control plane.
pub fn stop(control: &ControlPlane, mut server: MonitorServer) {
    server.shutdown();
    control.drain();
}

/// Whether a body is Prometheus text: `# …` comments and `name value`
/// samples whose value parses as a number.
fn is_prometheus(body: &str) -> bool {
    body.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .all(|line| {
            line.rsplit_once(' ')
                .is_some_and(|(series, value)| !series.is_empty() && value.parse::<f64>().is_ok())
        })
}

/// Follows `/campaigns/{id}/events` to its end through a small buffer,
/// so the client's memory stays out of the workload's peak RSS. Returns
/// the status, the bytes received on the wire, and the last record.
fn follow_events(addr: SocketAddr, id: u64) -> std::io::Result<(u16, usize, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "GET /campaigns/{id}/events HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = vec![0u8; 64 * 1024];
    let mut head = Vec::new();
    let mut tail = Vec::new();
    let mut total = 0usize;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        total += n;
        tail.extend_from_slice(&buf[..n]);
        if head.len() < 512 {
            head.extend_from_slice(&buf[..n.min(512)]);
        }
        let keep = tail.len().saturating_sub(4096);
        tail.drain(..keep);
    }
    let status = String::from_utf8_lossy(&head)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    // The body ends with the terminal record's chunk and the zero-size
    // chunk: `…\r\n{"event":"stream_end",…}\n\r\n0\r\n\r\n`.
    let tail = String::from_utf8_lossy(&tail);
    let last = tail
        .strip_suffix("\n\r\n0\r\n\r\n")
        .and_then(|body| body.rsplit("\r\n").next())
        .unwrap_or("")
        .to_string();
    Ok((status, total, last))
}

/// One scrape: the route it hit, its open-loop timing, and why it
/// failed, if it did.
struct Scrape {
    route: usize,
    sent: Sent,
    error: Option<String>,
}

/// The open-loop scraper: request `k` is due at `k / SCRAPE_RATE` after
/// the first job id is known; it stops with the first request due after
/// the tenant finished.
fn scrape(addr: SocketAddr, job: &AtomicU64, finished: &AtomicBool) -> Vec<Scrape> {
    while job.load(Ordering::Acquire) == 0 && !finished.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let schedule = Schedule::new(Instant::now(), SCRAPE_RATE);
    let mut finished_at: Option<Instant> = None;
    let mut out = Vec::new();
    for k in 0.. {
        let due = schedule.due(k);
        if finished_at.is_none() && finished.load(Ordering::Acquire) {
            finished_at = Some(Instant::now());
        }
        if finished_at.is_some_and(|at| due > at) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let route = k as usize % ROUTES.len();
        let path = route_path(route, job.load(Ordering::Acquire));
        let sent = Instant::now();
        let response = http_request(addr, "GET", &path, "");
        let done = Instant::now();
        let error = match response {
            Ok((200, body)) => {
                let parses = if route == 0 {
                    is_prometheus(&body)
                } else {
                    json::parse(body.trim()).is_ok()
                };
                (!parses).then(|| format!("GET {path}: body does not parse"))
            }
            Ok((status, _)) => Some(format!("GET {path}: status {status}")),
            Err(e) => Some(format!("GET {path}: {e}")),
        };
        out.push(Scrape {
            route,
            sent: Sent {
                due,
                sent,
                done: error.is_none().then_some(done),
            },
            error,
        });
    }
    out
}

/// What one mix measured.
struct Mix {
    turnarounds: Vec<f64>,
    submit_ms: Vec<f64>,
    report_ms: Vec<f64>,
    stream_bytes: usize,
    trials: u64,
    wall: f64,
    scrapes: Vec<Scrape>,
    /// Direct calls on the live plane after the last job (traced mix).
    direct: Values,
}

/// Submits one campaign, follows its event stream to `stream_end`, and
/// fetches its report; returns the job id once it was accepted.
fn tenant_job(
    addr: SocketAddr,
    j: usize,
    reference: &Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
    current: &AtomicU64,
    mix: &mut Mix,
) -> Option<u64> {
    let body = format!(
        "{{\"name\":\"perfbench-{j}\",\"tenant\":\"perfbench\",\"seed\":{},\"scale\":1,\"jobs\":1}}",
        reference.seed
    );
    let start = Instant::now();
    let submitted = tracer.time("serve.submit", || {
        http_request(addr, "POST", "/campaigns", &body)
    });
    mix.submit_ms.push(ms(start.elapsed()));
    let (status, accepted) = checks.ok("POST /campaigns", submitted)?;
    let id = json::parse(&accepted)
        .ok()
        .and_then(|doc| doc.get("id").and_then(JsonValue::as_f64))
        .filter(|_| status == 202)
        .map(|id| id as u64);
    let id = checks.ok(
        "submit response",
        id.ok_or(format!("status {status}: {accepted}")),
    )?;
    current.store(id, Ordering::Release);

    let stream = tracer.time("serve.stream", || follow_events(addr, id));
    let (status, bytes, last) = checks.ok("event stream", stream)?;
    mix.stream_bytes += bytes;
    // The stream must run to its terminal record; a cut stream lacks it.
    let end = json::parse(&last).ok();
    let ended = end.as_ref().is_some_and(|doc| {
        doc.get("event").and_then(JsonValue::as_str) == Some("stream_end")
            && doc.get("reason").and_then(JsonValue::as_str) == Some("done")
    });
    checks.check(status == 200 && ended, || {
        format!("job {id}: event stream (status {status}) did not end with stream_end done")
    });

    let fetch = Instant::now();
    let report = tracer.time("serve.report", || {
        http_request(addr, "GET", &format!("/campaigns/{id}/report"), "")
    });
    mix.report_ms.push(ms(fetch.elapsed()));
    let (status, report) = checks.ok("GET report", report)?;
    let same = status == 200 && report == reference.summary;
    checks.check(same, || {
        format!(
            "job {id}: service report for seed {} differs from the solo run",
            reference.seed
        )
    });
    mix.turnarounds.push(start.elapsed().as_secs_f64());
    mix.trials += reference.trials;
    Some(id)
}

/// Times the direct calls behind the heaviest routes on the live plane,
/// and the service sink's Prometheus render; p50 of 20 calls each.
fn direct_calls(
    control: &ControlPlane,
    sink: &TelemetrySink,
    id: u64,
    tracer: &mut Tracer,
) -> Values {
    let mut p50_of = |layer: &'static str, unit: f64, call: &mut dyn FnMut() -> Option<String>| {
        let samples: Vec<f64> = (0..20)
            .map(|_| tracer.measure(layer, &mut *call) / unit)
            .collect();
        p50(&samples)
    };
    Values::from([
        (
            "control.list_json_ms",
            p50_of("control.list_json", 1e6, &mut || Some(control.list_json())),
        ),
        (
            "control.tenants_json_ms",
            p50_of("control.tenants_json", 1e6, &mut || {
                Some(control.tenants_json())
            }),
        ),
        (
            "control.status_json_us",
            p50_of("control.status_json", 1e3, &mut || control.status_json(id)),
        ),
        (
            "control.events_snapshot_ms",
            p50_of("control.events_snapshot", 1e6, &mut || {
                control.events_snapshot(id).map(|(events, _)| events)
            }),
        ),
        (
            "control.report_text_us",
            p50_of("control.report_text", 1e3, &mut || {
                control.report_text(id).ok()
            }),
        ),
        (
            "metrics.render_ms",
            p50_of("metrics.render", 1e6, &mut || {
                Some(sink.registry().snapshot().render_prometheus())
            }),
        ),
    ])
}

/// Runs one mix on a fresh service.
fn mix(ctx: &mut Ctx, k: usize, tracer: &mut Tracer, traced: bool) -> Option<Mix> {
    let state = ctx.work.join(format!("service-{k}"));
    let _ = std::fs::remove_dir_all(&state);
    let (control, sink, server) = ctx.checks.ok("start service", start(&state))?;
    let addr = server.addr();
    let current = AtomicU64::new(0);
    let finished = AtomicBool::new(false);
    let mut result = Mix {
        turnarounds: Vec::new(),
        submit_ms: Vec::new(),
        report_ms: Vec::new(),
        stream_bytes: 0,
        trials: 0,
        wall: 0.0,
        scrapes: Vec::new(),
        direct: Values::new(),
    };
    let refs: Vec<Reference> = (0..JOBS_PER_MIX)
        .map(|j| ctx.reference(j).clone())
        .collect();
    let checks = &mut ctx.checks;
    let start = Instant::now();
    let mut last = None;
    result.scrapes = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scrape(addr, &current, &finished));
        for (j, reference) in refs.iter().enumerate() {
            last = tenant_job(addr, j, reference, tracer, checks, &current, &mut result).or(last);
        }
        result.wall = start.elapsed().as_secs_f64();
        finished.store(true, Ordering::Release);
        scraper.join().expect("scraper thread panicked")
    });
    tracer.record("serve.mix", start, Instant::now());
    for scrape in &result.scrapes {
        checks.check(scrape.error.is_none(), || {
            scrape.error.clone().unwrap_or_default()
        });
    }
    if traced {
        if let Some(id) = last {
            result.direct = direct_calls(&control, &sink, id, tracer);
        }
    }
    stop(&control, server);
    let _ = std::fs::remove_dir_all(&state);
    Some(result)
}

/// The untraced pass of `service-mix`.
pub fn service(ctx: &mut Ctx) -> Series {
    let mut series = Series::default();
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let seconds = ctx.seconds;
    let mut tracer = Tracer::new(Instant::now());
    series.iterations = repeat_for(seconds, |k| {
        reset_peak_rss();
        let Some(mix) = mix(ctx, k, &mut tracer, false) else {
            return;
        };
        series.push("peak_rss_mib", peak_rss_mib());
        series.push("trials_per_s", mix.trials as f64 / mix.wall);
        for t in &mix.turnarounds {
            series.push("job_turnaround_s", *t);
        }
        series.baseline_turnaround.extend(&mix.turnarounds);
        for s in &mix.scrapes {
            latencies.push(s.sent.latency_ms());
            late.push(s.sent.late_ms());
        }
    });
    let latencies = sorted(latencies);
    series.http = Some(HttpSummary {
        p50: reportable_quantile(&latencies, 0.5),
        p99: reportable_quantile(&latencies, 0.99),
        requests: latencies.len(),
        late_p99: reportable_quantile(&sorted(late), 0.99),
    });
    series
}

/// Scraper latency over a whole untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct HttpSummary {
    /// Median latency from due time, ms.
    pub p50: Option<f64>,
    /// p99 latency from due time, ms, when reportable.
    pub p99: Option<f64>,
    /// Scraper requests sent.
    pub requests: usize,
    /// p99 of how late the scraper sent, ms.
    pub late_p99: Option<f64>,
}

/// The traced run of `service-mix`: one mix with the tenant's calls in
/// spans and per-route client latency, then direct calls on the live
/// plane and the sink's Prometheus render, then the microbenchmarks.
pub fn service_traced(ctx: &mut Ctx, baseline_turnaround: f64) -> Traced {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut out = Values::new();
    if let Some(mix) = mix(ctx, 0, &mut tracer, true) {
        for (route, name) in ROUTES.iter().enumerate() {
            let service_ms: Vec<f64> = mix
                .scrapes
                .iter()
                .filter(|s| s.route == route)
                .filter_map(|s| s.sent.done.map(|done| ms(done - s.sent.sent)))
                .collect();
            out.insert(name, p50(&service_ms));
        }
        out.insert("serve.submit_ms_p50", p50(&mix.submit_ms));
        out.insert("serve.report_ms_p50", p50(&mix.report_ms));
        out.insert(
            "serve.stream_mb_per_job",
            mix.stream_bytes as f64 / JOBS_PER_MIX as f64 / 1e6,
        );
        out.insert(
            "trace.overhead_frac",
            p50(&mix.turnarounds) / baseline_turnaround - 1.0,
        );
        out.extend(mix.direct);
    }
    microbenchmarks(ctx.reference(0).seed, &mut tracer, &mut out);
    tracer.record("trace.root", origin, Instant::now());
    Traced::new(out, &tracer)
}
