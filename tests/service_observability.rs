//! Service-observability battery: the control plane must account for
//! every request it serves, and the numbers must reconcile.
//!
//! Contracts, over real sockets:
//!
//! 1. **The access log is complete and honest** — every request this
//!    test issues appears in the structured access log exactly once, the
//!    log parses with the in-repo RFC-8259 parser, and every line
//!    carries the wide-event fields (tenant, method, path template,
//!    status, bytes, micros, campaign id).
//! 2. **Log ↔ metrics reconciliation** — per-(method, path) access-log
//!    counts equal the `http_requests_total` counters, response bytes
//!    equal `http_response_bytes_total`, and the latency histogram
//!    counts match — the same cross-check CI runs offline against
//!    `access.jsonl` and `service.prom`.
//! 3. **Scheduler observability** — per-tenant queued/started/completed
//!    counters, the queue-depth gauge, completed-share gauges and the
//!    queue-wait/run-duration histograms reflect what actually happened.
//! 4. **Service surfaces** — `/healthz` reports queue depth, per-tenant
//!    running counts and last-accept; `/tenants` aggregates per-tenant
//!    usage; the event stream terminates with a `stream_end` record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serscale_telemetry::json::{self, JsonValue};
use serscale_telemetry::metrics::MetricsSnapshot;
use serscale_telemetry::serve::{http_get, http_request, MonitorServer};
use serscale_telemetry::{ControlPlane, ControlPlaneOptions, TelemetryOptions, TelemetrySink};

fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "serscale-service-obs-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("case dir creatable");
    dir
}

fn service(state_dir: Option<PathBuf>) -> (Arc<TelemetrySink>, Arc<ControlPlane>, MonitorServer) {
    let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
    let control = ControlPlane::start(ControlPlaneOptions {
        max_concurrent: 1,
        state_dir,
        ..Default::default()
    });
    let server = sink
        .serve_control("127.0.0.1:0", Arc::clone(&control))
        .expect("service binds");
    (sink, control, server)
}

/// A bookkeeping client: issues requests and records what the access log
/// must therefore contain.
struct Ledger {
    addr: std::net::SocketAddr,
    /// (method, path template) → expected request count.
    expected: BTreeMap<(String, String), u64>,
}

impl Ledger {
    fn get(&mut self, path: &str, template: &str) -> (u16, String) {
        let reply = http_get(self.addr, path).expect("request");
        *self
            .expected
            .entry(("GET".to_string(), template.to_string()))
            .or_default() += 1;
        reply
    }

    fn post(&mut self, path: &str, template: &str, body: &str) -> (u16, String) {
        let reply = http_request(self.addr, "POST", path, body).expect("request");
        *self
            .expected
            .entry(("POST".to_string(), template.to_string()))
            .or_default() += 1;
        reply
    }

    fn total(&self) -> u64 {
        self.expected.values().sum()
    }
}

/// Counts access-log lines per (method, path) and validates the wide
///-event schema of every line.
fn log_counts(log: &str) -> BTreeMap<(String, String), u64> {
    let lines = json::parse_lines(log).expect("access log parses with the in-repo parser");
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    for line in &lines {
        for field in ["t_unix_s", "status", "bytes", "micros"] {
            assert!(
                line.get(field).and_then(JsonValue::as_f64).is_some(),
                "access event lacks numeric {field}: {line:?}"
            );
        }
        for field in ["tenant", "campaign"] {
            assert!(
                line.get(field).is_some(),
                "access event lacks {field}: {line:?}"
            );
        }
        let method = line
            .get("method")
            .and_then(JsonValue::as_str)
            .expect("method")
            .to_string();
        let path = line
            .get("path")
            .and_then(JsonValue::as_str)
            .expect("path")
            .to_string();
        *counts.entry((method, path)).or_default() += 1;
    }
    counts
}

fn counter(snapshot: &MetricsSnapshot, name: &str, matches: &[(&str, &str)]) -> u64 {
    snapshot.counter_total(name, matches)
}

/// Contracts 1–4 in one deterministic session: a fixed request script
/// against a one-runner service, then the post-shutdown books.
#[test]
fn access_log_counters_and_scheduler_series_reconcile() {
    let state = case_dir("reconcile");
    let (_sink, control, mut server) = service(Some(state.clone()));
    let mut ledger = Ledger {
        addr: server.addr(),
        expected: BTreeMap::new(),
    };

    // A fixed tour of the read-only plane.
    assert_eq!(ledger.get("/", "/").0, 200);
    assert_eq!(ledger.get("/metrics", "/metrics").0, 200);
    let (status, healthz) = ledger.get("/healthz", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(ledger.get("/progress", "/progress").0, 200);
    assert_eq!(ledger.get("/campaigns", "/campaigns").0, 200);
    assert_eq!(ledger.get("/tenants", "/tenants").0, 200);
    assert_eq!(ledger.get("/nope", "(other)").0, 404);

    // Idle healthz: control plane attached, nothing queued or running.
    let doc = json::parse(&healthz).expect("healthz parses");
    assert_eq!(
        doc.get("queue_depth").and_then(JsonValue::as_f64),
        Some(0.0),
        "{healthz}"
    );
    assert!(doc.get("running").is_some(), "{healthz}");
    assert!(doc.get("last_accept_unix_s").is_some(), "{healthz}");

    // Two tenants, two campaigns, one runner: alpha's second… no — one
    // each, so completed-share splits evenly and nothing stays queued.
    let submit = |ledger: &mut Ledger, tenant: &str, seed: u64| -> u64 {
        let (status, body) = ledger.post(
            "/campaigns",
            "/campaigns",
            &format!("{{\"tenant\":\"{tenant}\",\"seed\":{seed},\"scale\":0.001,\"jobs\":1}}"),
        );
        assert_eq!(status, 202, "{body}");
        json::parse(&body)
            .expect("acceptance parses")
            .get("id")
            .and_then(JsonValue::as_f64)
            .expect("id") as u64
    };
    let id_a = submit(&mut ledger, "acct-alpha", 411);
    let id_b = submit(&mut ledger, "acct-beta", 412);

    let wait_done = |ledger: &mut Ledger, id: u64| {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = ledger.get(&format!("/campaigns/{id}"), "/campaigns/{id}");
            assert_eq!(status, 200, "{body}");
            let doc = json::parse(&body).expect("status parses");
            if doc.get("done") == Some(&JsonValue::Bool(true)) {
                break doc;
            }
            assert!(Instant::now() < deadline, "job {id} stuck: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let doc_a = wait_done(&mut ledger, id_a);
    wait_done(&mut ledger, id_b);

    // Per-campaign attribution on the status document.
    for field in [
        "worker_busy_seconds",
        "queue_wait_seconds",
        "wall_seconds",
        "journal_bytes",
    ] {
        assert!(
            doc_a.get(field).and_then(JsonValue::as_f64).is_some(),
            "status lacks attribution field {field}: {doc_a:?}"
        );
    }

    // The event stream ends with a terminal stream_end record.
    let (status, events) = ledger.get(
        &format!("/campaigns/{id_a}/events"),
        "/campaigns/{id}/events",
    );
    assert_eq!(status, 200);
    let lines = json::parse_lines(&events).expect("event stream is valid JSONL");
    let last = lines.last().expect("stream non-empty");
    assert_eq!(
        last.get("event").and_then(JsonValue::as_str),
        Some("stream_end"),
        "{events}"
    );
    assert_eq!(
        last.get("reason").and_then(JsonValue::as_str),
        Some("done"),
        "{events}"
    );

    // A campaign-scoped request is attributed to its tenant and id.
    let (status, report_body) = ledger.get(
        &format!("/campaigns/{id_a}/report"),
        "/campaigns/{id}/report",
    );
    assert_eq!(status, 200);

    // `/tenants` aggregates per-tenant usage.
    let (status, tenants) = ledger.get("/tenants", "/tenants");
    assert_eq!(status, 200);
    let tenants = json::parse(&tenants).expect("tenants parses");
    let rows = match &tenants {
        JsonValue::Array(rows) => rows,
        other => panic!("tenants must be an array: {other:?}"),
    };
    assert_eq!(rows.len(), 2, "{tenants:?}");
    for row in rows {
        assert_eq!(row.get("done").and_then(JsonValue::as_f64), Some(1.0));
        assert!(
            row.get("trials").and_then(JsonValue::as_f64).unwrap_or(0.0) > 0.0,
            "{row:?}"
        );
        assert!(row.get("worker_busy_seconds").is_some(), "{row:?}");
        assert!(row.get("journal_bytes").is_some(), "{row:?}");
    }

    // Busy healthz: per-tenant running map exists (post-run: empty).
    let (_, healthz) = ledger.get("/healthz", "/healthz");
    let doc = json::parse(&healthz).expect("healthz parses");
    assert!(
        doc.get("last_accept_unix_s")
            .and_then(JsonValue::as_f64)
            .is_some(),
        "after traffic last_accept is stamped: {healthz}"
    );

    control.drain();
    server.shutdown();

    // ---- The books, post-shutdown (all handler threads joined). ----
    let log = server.access_log_jsonl().expect("service log exists");
    let counts = log_counts(&log);
    let logged_total: u64 = counts.values().sum();
    assert_eq!(
        logged_total,
        ledger.total(),
        "every request logged exactly once\nlog:\n{log}"
    );
    assert_eq!(
        counts, ledger.expected,
        "per-(method, path) log counts match the requests issued"
    );

    let snapshot = server.metrics_snapshot();
    for ((method, path), n) in &counts {
        let total = counter(
            &snapshot,
            "http_requests_total",
            &[("method", method), ("path", path)],
        );
        assert_eq!(total, *n, "http_requests_total for {method} {path}");
        let hist_count: u64 = snapshot
            .histograms
            .iter()
            .filter(|(key, _)| {
                key.name == "http_request_duration_seconds"
                    && key.labels.iter().any(|(k, v)| k == "method" && v == method)
                    && key.labels.iter().any(|(k, v)| k == "path" && v == path)
            })
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(
            hist_count, *n,
            "latency histogram count for {method} {path}"
        );
    }
    assert_eq!(
        counter(&snapshot, "http_requests_total", &[]),
        ledger.total(),
        "grand total reconciles"
    );
    // Spot-check the byte accounting on a deterministic body.
    let report_bytes = counter(
        &snapshot,
        "http_response_bytes_total",
        &[("path", "/campaigns/{id}/report")],
    );
    assert_eq!(report_bytes, report_body.len() as u64);

    // Scheduler series: one queued/started/completed per tenant, empty
    // queue at rest, an even completed share, and latency histograms
    // with one observation per job.
    for tenant in ["acct-alpha", "acct-beta"] {
        for phase in ["queued", "started", "completed"] {
            assert_eq!(
                counter(
                    &snapshot,
                    "tenant_jobs_total",
                    &[("tenant", tenant), ("phase", phase)]
                ),
                1,
                "tenant_jobs_total {tenant} {phase}"
            );
        }
        assert_eq!(
            snapshot.gauge_value("tenant_completed_share", &[("tenant", tenant)]),
            Some(0.5),
            "completed share for {tenant}"
        );
        for hist in ["queue_wait_seconds", "job_run_seconds"] {
            let count: u64 = snapshot
                .histograms
                .iter()
                .filter(|(key, _)| {
                    key.name == hist && key.labels.iter().any(|(k, v)| k == "tenant" && v == tenant)
                })
                .map(|(_, h)| h.count)
                .sum();
            assert_eq!(count, 1, "{hist} observations for {tenant}");
        }
    }
    assert_eq!(snapshot.gauge_value("queue_depth", &[]), Some(0.0));
    assert_eq!(counter(&snapshot, "campaigns_submitted_total", &[]), 2);
    assert_eq!(
        counter(
            &snapshot,
            "campaigns_completed_total",
            &[("outcome", "done")]
        ),
        2
    );

    std::fs::remove_dir_all(&state).expect("cleanup");
}

/// With a state directory the access log is `state/access.jsonl`: the
/// service truncates it when it starts and appends each line as its
/// request ends, so the file holds this service's requests while it is
/// still running (and after a kill).
#[test]
fn the_access_log_reaches_disk_as_each_request_ends() {
    let state = case_dir("access-file");
    let path = state.join("access.jsonl");
    std::fs::write(&path, "{\"left\":\"by an earlier service\"}\n").expect("stale log");
    let (_sink, control, mut server) = service(Some(state.clone()));
    assert_eq!(std::fs::read_to_string(&path).expect("log"), "");
    let addr = server.addr();
    for (n, route) in ["/healthz", "/metrics", "/campaigns"]
        .into_iter()
        .enumerate()
    {
        assert_eq!(http_get(addr, route).expect("request").0, 200);
        // The line lands after the response is sent; wait for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        let on_disk = loop {
            let on_disk = std::fs::read_to_string(&path).expect("log");
            if on_disk.lines().count() > n || Instant::now() > deadline {
                break on_disk;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let docs = json::parse_lines(&on_disk).expect("the file parses");
        assert_eq!(docs.len(), n + 1, "{on_disk}");
        assert_eq!(
            docs[n].get("path").and_then(JsonValue::as_str),
            Some(route),
            "{on_disk}"
        );
    }
    control.drain();
    server.shutdown();
    assert!(server.access_log_failure().is_none());
    assert_eq!(
        server.access_log_jsonl().expect("service log exists"),
        std::fs::read_to_string(&path).expect("log")
    );
    std::fs::remove_dir_all(&state).expect("cleanup");
}

/// The plain monitoring plane (no control plane attached) must record no
/// service series at all — the CI monitoring job byte-compares a live
/// scrape against the exported `metrics.prom`, so request accounting
/// must not exist in that mode.
#[test]
fn plain_monitoring_plane_records_no_request_series() {
    let sink = TelemetrySink::in_memory(TelemetryOptions::default());
    let mut server = sink.serve("127.0.0.1:0").expect("monitor binds");
    let addr = server.addr();
    let (status, _) = http_get(addr, "/metrics").expect("scrape");
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/healthz").expect("healthz");
    assert_eq!(status, 200);
    server.shutdown();
    assert!(
        server.access_log_jsonl().is_none(),
        "plain --listen mode keeps no access log"
    );
    let snapshot = server.metrics_snapshot();
    assert_eq!(
        snapshot.counter_total("http_requests_total", &[]),
        0,
        "plain mode must not mint request series"
    );
}
