//! A live monitoring plane: a dependency-free HTTP/1.1 server over the
//! sink's registry, tracer, progress reporter and campaign status.
//!
//! The paper's beam campaigns run for hours; the reproduction's run in
//! seconds — but the *operational* questions are the same: is the run
//! alive, how far along is it, is the journal keeping up, how busy are
//! the workers. [`MonitorServer`] answers them over plain HTTP so `curl`
//! and Prometheus can watch a campaign without any client library:
//!
//! | endpoint    | payload                                                |
//! |-------------|--------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition of every live series        |
//! | `/healthz`  | liveness, journal fsync lag, quarantine count (JSON)   |
//! | `/progress` | trials done, σ̂ estimate, fraction, ETA (JSON)          |
//! | `/spans`    | the most recent closed spans (JSONL, newest last)      |
//! | `/campaign` | journal-backed status: fingerprint, resume, waves      |
//! | `/`         | a plain-text index of the above                        |
//!
//! With a [`ControlPlane`] attached
//! ([`MonitorState::with_control`], usually via
//! [`TelemetrySink::serve_control`](crate::export::TelemetrySink::serve_control))
//! the plane becomes read-write — campaign-as-a-service:
//!
//! | endpoint                 | method   | behaviour                         |
//! |--------------------------|----------|-----------------------------------|
//! | `/campaigns`             | `POST`   | submit a JSON spec → `202` + id   |
//! | `/campaigns`             | `GET`    | list every job's status           |
//! | `/campaigns/{id}`        | `GET`    | one job's status document         |
//! | `/campaigns/{id}`        | `DELETE` | cancel (wave-boundary, resumable) |
//! | `/campaigns/{id}/report` | `GET`    | the bit-stable golden report      |
//! | `/campaigns/{id}/events` | `GET`    | live JSONL event stream (chunked) |
//! | `/shutdown`              | `POST`   | graceful drain (no signals)       |
//!
//! `/campaign` (the PR 5 singular endpoint) becomes an alias for the
//! current job's `/campaigns/{id}` document when a control plane is
//! attached, and keeps serving the legacy status cell otherwise — the
//! scrape-storm suite runs against both shapes unchanged.
//!
//! ## Observe-only, enforced structurally
//!
//! The server holds *read* handles: a registry clone (snapshots merge
//! shard data without blocking writers), the tracer `Arc`, the progress
//! mutex and a small status cell the driver updates at run boundaries.
//! There is no channel from a request handler back into the engine, so a
//! scrape storm can slow the host down but can never change a report —
//! `tests/scrape_consistency.rs` hammers a live campaign and diffs its
//! artifacts against a server-less run to prove it.
//!
//! ## Anatomy
//!
//! One accept thread pushes connections into an `mpsc` channel drained
//! by `WORKERS` handler threads (the receiver is shared behind a
//! mutex — `std::net` only, no external crates). Sockets carry short
//! read/write timeouts so one stalled client cannot wedge a worker.
//! [`MonitorServer::shutdown`] flips an atomic flag, nudges the accept
//! loop awake with a loopback connection, drops the channel sender and
//! joins every thread — a bounded, graceful stop with no `unsafe` signal
//! handling. An abrupt kill is also safe: the server owns no run state,
//! so the journal's torn-tail recovery covers it like any other crash.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serscale_core::journal::SyncProbe;

use crate::control::ControlPlane;
use crate::json;
use crate::metrics::{Registry, Shard};
use crate::progress::Progress;
use crate::span::Tracer;

/// Handler threads draining the accept queue.
const WORKERS: usize = 4;
/// Per-socket read/write timeout: a stalled client loses its slot.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);
/// Upper bound on an accepted request head (request line + headers).
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Upper bound on a request body (`POST /campaigns` specs are small).
const MAX_BODY_BYTES: usize = 64 * 1024;
/// `/spans` returns at most this many of the newest closed spans.
const SPAN_WINDOW: usize = 64;
/// How often an event stream polls its job for fresh lines.
const EVENT_POLL: Duration = Duration::from_millis(25);
/// Hard cap on one event-stream connection, so an abandoned client
/// cannot pin a handler thread forever.
const EVENT_STREAM_CAP: Duration = Duration::from_secs(600);

/// Slow-changing campaign facts the driver publishes at run boundaries
/// (the fast-changing numbers live in the registry and progress state).
#[derive(Debug, Clone, Default)]
pub struct CampaignStatus {
    /// The platform the campaign runs on (the spec's `name`), if known.
    pub platform: Option<String>,
    /// The config fingerprint the journal locks resume decisions to
    /// (rendered in hex, like the journal header), if known.
    pub config_fingerprint: Option<u64>,
    /// The journal path, when the run is journaled.
    pub journal: Option<String>,
    /// Trials replayed from a prior journal instead of re-executed.
    pub resumed_trials: u64,
    /// Whether the campaign has finished (the server may linger after).
    pub done: bool,
}

/// Service-side request telemetry: the structured JSONL access log, the
/// per-endpoint registry series and the last-accept stamp `/healthz`
/// reports. Created by [`MonitorState::with_control`] — the read-only
/// monitoring plane records nothing, so its `/metrics` stays
/// byte-identical to the exported `metrics.prom` artifact.
struct ServiceTelemetry {
    /// A shard of the *server-level* registry (never a campaign's), so
    /// the request series ride the existing `/metrics` renderer.
    shard: Arc<Shard>,
    /// One wide JSONL event per request, newest last. Every line is
    /// checked by the in-repo JSON reader before it lands.
    log: Mutex<String>,
    /// Wall-clock seconds of the most recently finished request.
    last_accept: Mutex<Option<f64>>,
}

/// One finished request, as the access log and registry see it.
struct AccessRecord<'a> {
    tenant: Option<&'a str>,
    method: &'a str,
    template: &'static str,
    status: u16,
    bytes: usize,
    micros: u64,
    campaign: Option<u64>,
}

impl ServiceTelemetry {
    fn record(&self, rec: &AccessRecord<'_>) {
        let unix_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let mut line = String::from("{");
        line.push_str(&format!("\"t_unix_s\":{}", json::number(unix_s)));
        match rec.tenant {
            Some(tenant) => line.push_str(&format!(",\"tenant\":{}", json::escape(tenant))),
            None => line.push_str(",\"tenant\":null"),
        }
        line.push_str(&format!(",\"method\":{}", json::escape(rec.method)));
        line.push_str(&format!(",\"path\":{}", json::escape(rec.template)));
        line.push_str(&format!(",\"status\":{}", rec.status));
        line.push_str(&format!(",\"bytes\":{}", rec.bytes));
        line.push_str(&format!(",\"micros\":{}", rec.micros));
        match rec.campaign {
            Some(id) => line.push_str(&format!(",\"campaign\":{id}")),
            None => line.push_str(",\"campaign\":null"),
        }
        line.push('}');
        json::validate(&line).expect("access-log line must be valid JSON");
        let class = format!("{}xx", rec.status / 100);
        self.shard
            .counter(
                "http_requests_total",
                &[
                    ("method", rec.method),
                    ("path", rec.template),
                    ("class", &class),
                ],
            )
            .inc();
        self.shard
            .histogram(
                "http_request_duration_seconds",
                &[("method", rec.method), ("path", rec.template)],
            )
            .observe(rec.micros as f64 / 1e6);
        self.shard
            .counter("http_response_bytes_total", &[("path", rec.template)])
            .add(rec.bytes as u64);
        let mut log = self.log.lock().expect("access log poisoned");
        log.push_str(&line);
        log.push('\n');
        *self.last_accept.lock().expect("last-accept poisoned") = Some(unix_s);
    }
}

/// Maps a concrete request path onto its bounded-cardinality endpoint
/// template, extracting the campaign id when the path names one.
fn route_template(path: &str) -> (&'static str, Option<u64>) {
    match path {
        "/" => ("/", None),
        "/metrics" => ("/metrics", None),
        "/healthz" => ("/healthz", None),
        "/progress" => ("/progress", None),
        "/convergence" => ("/convergence", None),
        "/spans" => ("/spans", None),
        "/campaign" => ("/campaign", None),
        "/campaigns" => ("/campaigns", None),
        "/tenants" => ("/tenants", None),
        "/shutdown" => ("/shutdown", None),
        _ => match path.strip_prefix("/campaigns/") {
            Some(rest) => {
                let (id_str, tail) = match rest.split_once('/') {
                    Some((id, tail)) => (id, Some(tail)),
                    None => (rest, None),
                };
                let id = id_str.parse::<u64>().ok();
                match tail {
                    None => ("/campaigns/{id}", id),
                    Some("report") => ("/campaigns/{id}/report", id),
                    Some("events") => ("/campaigns/{id}/events", id),
                    Some("convergence") => ("/campaigns/{id}/convergence", id),
                    Some(_) => ("(other)", None),
                }
            }
            None => ("(other)", None),
        },
    }
}

/// Everything a request handler may read. Cloning is cheap — the fields
/// are handles into state owned elsewhere.
#[derive(Clone)]
pub struct MonitorState {
    registry: Registry,
    tracer: Arc<Tracer>,
    progress: Arc<Mutex<Progress>>,
    status: Arc<Mutex<CampaignStatus>>,
    probe: Arc<Mutex<Option<SyncProbe>>>,
    convergence: Arc<Mutex<crate::convergence::ConvergenceTracker>>,
    control: Option<Arc<ControlPlane>>,
    service: Option<Arc<ServiceTelemetry>>,
    started: Instant,
}

impl MonitorState {
    /// Bundles read handles for the server. Called by
    /// [`TelemetrySink::serve`](crate::export::TelemetrySink::serve);
    /// public for tests that assemble a state by hand.
    pub fn new(
        registry: Registry,
        tracer: Arc<Tracer>,
        progress: Arc<Mutex<Progress>>,
        status: Arc<Mutex<CampaignStatus>>,
        probe: Arc<Mutex<Option<SyncProbe>>>,
        convergence: Arc<Mutex<crate::convergence::ConvergenceTracker>>,
    ) -> Self {
        MonitorState {
            registry,
            tracer,
            progress,
            status,
            probe,
            convergence,
            control: None,
            service: None,
            started: Instant::now(),
        }
    }

    /// Attaches a [`ControlPlane`], turning the read-only monitoring
    /// plane into the campaign service (the `/campaigns` routes above)
    /// and switching on per-request service telemetry: the JSONL access
    /// log plus `http_*` series in the server-level registry.
    #[must_use]
    pub fn with_control(mut self, control: Arc<ControlPlane>) -> Self {
        self.control = Some(control);
        self.service = Some(Arc::new(ServiceTelemetry {
            shard: self.registry.shard(),
            log: Mutex::new(String::new()),
            last_accept: Mutex::new(None),
        }));
        self
    }

    /// The access log accumulated so far (JSONL, one wide event per
    /// finished request), or `None` when no control plane is attached.
    pub fn access_log_jsonl(&self) -> Option<String> {
        self.service
            .as_ref()
            .map(|s| s.log.lock().expect("access log poisoned").clone())
    }

    /// Records one finished request into the access log and the
    /// per-endpoint series. `body` is the buffered response body when
    /// there was one (used to attribute `POST /campaigns` to the job id
    /// it just created); event streams pass `None` and their streamed
    /// byte count.
    fn log_request(
        &self,
        method: &str,
        raw_path: &str,
        status: u16,
        bytes: usize,
        body: Option<&str>,
        started: Instant,
    ) {
        let Some(service) = &self.service else {
            return;
        };
        let method = if method.is_empty() { "-" } else { method };
        let path = raw_path.split('?').next().unwrap_or(raw_path);
        let (template, mut campaign) = if method == "-" {
            ("(bad-request)", None)
        } else {
            route_template(path)
        };
        if campaign.is_none() && method == "POST" && template == "/campaigns" && status == 202 {
            campaign = body
                .and_then(|b| json::parse(b).ok())
                .and_then(|doc| doc.get("id").and_then(json::JsonValue::as_f64))
                .map(|id| id as u64);
        }
        let tenant = campaign.and_then(|id| {
            self.control
                .as_ref()
                .and_then(|control| control.tenant_of(id))
        });
        service.record(&AccessRecord {
            tenant: tenant.as_deref(),
            method,
            template,
            status,
            bytes,
            micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            campaign,
        });
    }

    fn healthz(&self) -> String {
        let snapshot = self.registry.snapshot();
        let quarantined = snapshot.counter_total("quarantined_trials", &[]);
        let probe = self.probe.lock().expect("probe cell poisoned").clone();
        let (syncs, lag) = match &probe {
            Some(p) => (Some(p.syncs()), p.lag()),
            None => (None, None),
        };
        let mut out = String::from("{\"status\":\"ok\"");
        out.push_str(&format!(
            ",\"uptime_seconds\":{}",
            json::number(self.started.elapsed().as_secs_f64())
        ));
        match syncs {
            Some(n) => out.push_str(&format!(",\"journal_syncs\":{n}")),
            None => out.push_str(",\"journal_syncs\":null"),
        }
        match lag {
            Some(d) => out.push_str(&format!(
                ",\"journal_fsync_lag_seconds\":{}",
                json::number(d.as_secs_f64())
            )),
            None => out.push_str(",\"journal_fsync_lag_seconds\":null"),
        }
        out.push_str(&format!(",\"quarantined_trials\":{quarantined}"));
        // Service-mode depth-of-field: how deep the fair queue is, who is
        // running, and when the plane last finished a request — enough
        // for a load balancer to tell idle from wedged.
        match &self.control {
            Some(control) => {
                out.push_str(&format!(",\"queue_depth\":{}", control.queue_depth()));
                out.push_str(",\"running\":{");
                for (i, (tenant, n)) in control.running_by_tenant().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{n}", json::escape(tenant)));
                }
                out.push('}');
            }
            None => out.push_str(",\"queue_depth\":null,\"running\":null"),
        }
        let last_accept = self
            .service
            .as_ref()
            .and_then(|s| *s.last_accept.lock().expect("last-accept poisoned"));
        match last_accept {
            Some(t) => out.push_str(&format!(",\"last_accept_unix_s\":{}", json::number(t))),
            None => out.push_str(",\"last_accept_unix_s\":null"),
        }
        out.push('}');
        out
    }

    fn campaign(&self) -> String {
        let snapshot = self.registry.snapshot();
        let status = self.status.lock().expect("status cell poisoned").clone();
        let mut out = String::from("{");
        match &status.platform {
            Some(name) => out.push_str(&format!("\"platform\":{}", json::escape(name))),
            None => out.push_str("\"platform\":null"),
        }
        match status.config_fingerprint {
            Some(fp) => out.push_str(&format!(",\"config_fingerprint\":\"{fp:016x}\"")),
            None => out.push_str(",\"config_fingerprint\":null"),
        }
        match &status.journal {
            Some(path) => out.push_str(&format!(",\"journal\":{}", json::escape(path))),
            None => out.push_str(",\"journal\":null"),
        }
        out.push_str(&format!(",\"resumed_trials\":{}", status.resumed_trials));
        out.push_str(&format!(",\"done\":{}", status.done));
        out.push_str(&format!(
            ",\"trials_done\":{}",
            snapshot.counter_total("runs_total", &[])
        ));
        out.push_str(&format!(
            ",\"waves_merged\":{}",
            snapshot.counter_total("waves_total", &[])
        ));
        out.push_str(&format!(
            ",\"trials_retried\":{}",
            snapshot.counter_total("trial_retries", &[])
        ));
        out.push_str(&format!(
            ",\"quarantined_trials\":{}",
            snapshot.counter_total("quarantined_trials", &[])
        ));
        out.push('}');
        out
    }

    fn spans(&self) -> String {
        let records = self.tracer.records();
        let start = records.len().saturating_sub(SPAN_WINDOW);
        let mut out = String::new();
        for record in &records[start..] {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }

    fn respond(&self, method: &str, path: &str, body: &str) -> Reply {
        // Ignore any query string: `/progress?x=1` reads as `/progress`.
        let path = path.split('?').next().unwrap_or(path);
        // The read-write routes carry their own per-method handling; the
        // legacy monitoring surface below stays GET-only.
        if path == "/campaigns"
            || path.starts_with("/campaigns/")
            || path == "/tenants"
            || path == "/shutdown"
        {
            return self.control_routes(method, path, body);
        }
        if method != "GET" {
            return Reply::Full(Response::text(
                405,
                "405 method not allowed\nonly GET is supported\n",
            ));
        }
        Reply::Full(match path {
            "/" => {
                let mut index = String::from(
                    "serscale monitor\n\
                     /metrics   Prometheus text exposition\n\
                     /healthz   liveness + journal fsync lag (JSON)\n\
                     /progress  trials, sigma estimate, ETA (JSON)\n\
                     /convergence  per-point rates, Garwood CIs, precision (JSON)\n\
                     /spans     recent closed spans (JSONL)\n\
                     /campaign  journal-backed campaign status (JSON)\n",
                );
                if self.control.is_some() {
                    index.push_str(
                        "/campaigns            POST a spec / GET the job list (JSON)\n\
                         /campaigns/N          GET status / DELETE to cancel (JSON)\n\
                         /campaigns/N/report   GET the bit-stable report (text)\n\
                         /campaigns/N/events   GET the live event stream (JSONL)\n\
                         /campaigns/N/convergence  GET the job's CI estimates (JSON)\n\
                         /tenants              GET per-tenant usage totals (JSON)\n\
                         /shutdown             POST to drain the service\n",
                    );
                }
                Response::text(200, &index)
            }
            "/metrics" => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: self.registry.snapshot().render_prometheus(),
            },
            "/healthz" => Response::json(self.healthz()),
            "/progress" => Response::json(
                self.progress
                    .lock()
                    .expect("progress poisoned")
                    .snapshot()
                    .to_json(),
            ),
            "/convergence" => Response::json(
                self.convergence
                    .lock()
                    .expect("convergence tracker poisoned")
                    .snapshot()
                    .to_json(),
            ),
            "/spans" => Response {
                status: 200,
                content_type: "application/jsonl; charset=utf-8",
                body: self.spans(),
            },
            // With a control plane attached, the singular endpoint
            // aliases the current job's document; without one (or before
            // any submission) it keeps serving the legacy status cell.
            "/campaign" => match &self.control {
                Some(control) => match control.current().and_then(|id| control.status_json(id)) {
                    Some(doc) => Response::json(doc),
                    None => Response::json(self.campaign()),
                },
                None => Response::json(self.campaign()),
            },
            _ => Response::text(404, "404 not found\ntry / for the endpoint index\n"),
        })
    }

    fn control_routes(&self, method: &str, path: &str, body: &str) -> Reply {
        let Some(control) = &self.control else {
            return Reply::Full(Response::text(
                404,
                "404 not found\n\
                 no campaign control plane is attached; start one with `repro serve`\n",
            ));
        };
        if path == "/shutdown" {
            return Reply::Full(if method == "POST" {
                control.request_shutdown();
                Response::json("{\"status\":\"draining\"}".to_string())
            } else {
                method_not_allowed("POST")
            });
        }
        if path == "/tenants" {
            return Reply::Full(if method == "GET" {
                Response::json(control.tenants_json())
            } else {
                method_not_allowed("GET")
            });
        }
        if path == "/campaigns" {
            return Reply::Full(match method {
                "POST" => match control.submit(body) {
                    Ok(doc) => Response {
                        status: 202,
                        content_type: "application/json; charset=utf-8",
                        body: doc,
                    },
                    Err(err) => Response::control_error(&err),
                },
                "GET" => Response::json(control.list_json()),
                _ => method_not_allowed("GET or POST"),
            });
        }
        let rest = &path["/campaigns/".len()..];
        let (id_str, tail) = match rest.split_once('/') {
            Some((id, tail)) => (id, Some(tail)),
            None => (rest, None),
        };
        let Ok(id) = id_str.parse::<u64>() else {
            return Reply::Full(Response::text(
                404,
                "404 not found\ncampaign ids are integers\n",
            ));
        };
        Reply::Full(match (method, tail) {
            ("GET", None) => match control.status_json(id) {
                Some(doc) => Response::json(doc),
                None => no_such_job(id),
            },
            ("DELETE", None) => match control.cancel(id) {
                Ok(doc) => Response::json(doc),
                Err(err) => Response::control_error(&err),
            },
            ("GET", Some("report")) => match control.report_text(id) {
                Ok(text) => Response::text(200, &text),
                Err(err) => Response::control_error(&err),
            },
            ("GET", Some("events")) => {
                if control.state_label(id).is_some() {
                    // The stream outlives this routing decision; the
                    // connection handler takes over the socket.
                    return Reply::EventStream(id);
                }
                no_such_job(id)
            }
            ("GET", Some("convergence")) => match control.convergence_json(id) {
                Some(doc) => Response::json(doc),
                None => no_such_job(id),
            },
            (_, None) => method_not_allowed("GET or DELETE"),
            (_, Some("report" | "events" | "convergence")) => method_not_allowed("GET"),
            _ => Response::text(404, "404 not found\ntry / for the endpoint index\n"),
        })
    }
}

/// What a routed request resolves to: a buffered response, or a live
/// event stream that takes over the connection.
enum Reply {
    Full(Response),
    EventStream(u64),
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::text(
        405,
        &format!("405 method not allowed\nthis endpoint takes {allowed}\n"),
    )
}

fn no_such_job(id: u64) -> Response {
    Response {
        status: 404,
        content_type: "application/json; charset=utf-8",
        body: format!("{{\"error\":{{\"reason\":\"no job {id}\"}}}}"),
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.to_string(),
        }
    }

    fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json; charset=utf-8",
            body,
        }
    }

    fn control_error(err: &crate::control::ControlError) -> Self {
        Response {
            status: err.status,
            content_type: "application/json; charset=utf-8",
            body: format!("{}\n", err.body),
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// A parsed inbound request: the request line plus any body announced
/// via `Content-Length` (the only body framing the plane speaks).
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Byte offset just past the head terminator, if the head is complete.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Reads one request: the head (request line and headers, through the
/// blank line, at most [`MAX_REQUEST_BYTES`]) and, when the headers
/// announce one, a body of at most [`MAX_BODY_BYTES`]. It only reads, so
/// any byte source will do — the fuzz tests feed it hostile bytes.
///
/// # Errors
///
/// What is wrong with the request: a head that ends before its blank
/// line or outgrows the limit, a malformed request line, a
/// `Content-Length` that is not a number or exceeds the body limit, a
/// body shorter than announced, bytes that are not UTF-8, or a failed
/// read.
fn parse_request(stream: &mut impl Read) -> Result<Request, String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let body_start = loop {
        if let Some(end) = head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err("request head too large".to_string());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-head".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read failed: {e}")),
        }
    };
    // The last read may have carried the head past the limit.
    if body_start > MAX_REQUEST_BYTES {
        return Err("request head too large".to_string());
    }
    let head = std::str::from_utf8(&buf[..body_start])
        .map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = head.lines();
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) if version.starts_with("HTTP/1") => {
            (method.to_string(), path.to_string())
        }
        _ => return Err(format!("malformed request line {line:?}")),
    };
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {:?}", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("request body too large".to_string());
    }
    while buf.len() < body_start + content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-body".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("body read failed: {e}")),
        }
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
        .map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

/// Serves `/campaigns/{id}/events`: a chunked JSONL stream that follows
/// the job's private event buffer and terminates when the job reaches a
/// terminal state (or at [`EVENT_STREAM_CAP`]). Offsets are previous
/// buffer lengths and appends are whole lines, so every chunk is valid
/// UTF-8 ending on a line boundary. The final payload line is always a
/// `{"event":"stream_end","reason":...}` record naming why the stream
/// closed (`done`/`cancelled`/`failed` per the job's terminal state,
/// `cap` at the connection cap, `gone` if the job vanished), so clients
/// can tell a finished feed from a severed one. `payload_bytes`
/// accumulates the JSONL bytes streamed, for the access log.
fn stream_events(
    stream: &mut TcpStream,
    state: &MonitorState,
    id: u64,
    payload_bytes: &mut usize,
) -> std::io::Result<()> {
    let control = state
        .control
        .as_ref()
        .expect("event stream routed without a control plane");
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/jsonl; charset=utf-8\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    let deadline = Instant::now() + EVENT_STREAM_CAP;
    let mut sent = 0usize;
    let reason = loop {
        let Some((fresh, done)) = control.events_since(id, sent) else {
            break "gone";
        };
        if !fresh.is_empty() {
            stream.write_all(format!("{:x}\r\n", fresh.len()).as_bytes())?;
            stream.write_all(fresh.as_bytes())?;
            stream.write_all(b"\r\n")?;
            stream.flush()?;
            sent += fresh.len();
            *payload_bytes += fresh.len();
        }
        if done {
            break control.state_label(id).unwrap_or("done");
        }
        if Instant::now() >= deadline {
            break "cap";
        }
        std::thread::sleep(EVENT_POLL);
    };
    let terminal = format!(
        "{{\"event\":\"stream_end\",\"reason\":{}}}\n",
        json::escape(reason)
    );
    stream.write_all(format!("{:x}\r\n", terminal.len()).as_bytes())?;
    stream.write_all(terminal.as_bytes())?;
    stream.write_all(b"\r\n")?;
    *payload_bytes += terminal.len();
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

fn handle_connection(mut stream: TcpStream, state: &MonitorState) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let started = Instant::now();
    let parsed = parse_request(&mut stream);
    let (method, path) = match &parsed {
        Ok(request) => (request.method.clone(), request.path.clone()),
        Err(_) => (String::new(), String::new()),
    };
    let reply = match parsed {
        Ok(request) => state.respond(&request.method, &request.path, &request.body),
        Err(reason) => Reply::Full(Response::text(400, &format!("400 bad request\n{reason}\n"))),
    };
    // A client that hung up mid-response is its own problem; the server
    // must not die (or log on stdout, which is golden-diffed) over it.
    match reply {
        Reply::Full(response) => {
            let _ = response.write_to(&mut stream);
            state.log_request(
                &method,
                &path,
                response.status,
                response.body.len(),
                Some(&response.body),
                started,
            );
        }
        Reply::EventStream(id) => {
            let mut payload_bytes = 0usize;
            let _ = stream_events(&mut stream, state, id, &mut payload_bytes);
            state.log_request(&method, &path, 200, payload_bytes, None, started);
        }
    }
}

/// The running monitoring server. Bind with [`MonitorServer::bind`]
/// (usually via [`TelemetrySink::serve`](crate::export::TelemetrySink::serve)),
/// stop with [`shutdown`](MonitorServer::shutdown); dropping the handle
/// shuts down too.
pub struct MonitorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    state: MonitorState,
}

impl MonitorServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept thread plus `WORKERS` handler threads.
    pub fn bind(addr: &str, state: MonitorState) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        // std's Receiver is single-consumer; the mutex turns the worker
        // pool into take-turns consumers without any external crate.
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..WORKERS)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("serscale-monitor-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while waiting, not handling.
                        let conn = rx.lock().expect("monitor queue poisoned").recv();
                        match conn {
                            Ok(stream) => handle_connection(stream, &state),
                            Err(_) => break, // sender gone: shutdown
                        }
                    })
                    .expect("spawn monitor worker")
            })
            .collect();
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serscale-monitor-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break; // the shutdown nudge or any later conn
                        }
                        match conn {
                            Ok(stream) => {
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            Err(_) => {
                                // Transient accept errors (EMFILE, reset
                                // before accept) should not kill the
                                // monitoring plane.
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                            }
                        }
                    }
                    // Dropping `tx` here wakes every idle worker.
                })
                .expect("spawn monitor accept thread")
        };
        Ok(MonitorServer {
            addr,
            stop,
            accept: Some(accept),
            workers,
            state,
        })
    }

    /// The bound address — the real port when bound to `:0`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The JSONL access log accumulated so far, or `None` when the
    /// server runs without a control plane (plain monitoring mode keeps
    /// no request telemetry). Call after [`shutdown`](Self::shutdown) for
    /// the complete log.
    pub fn access_log_jsonl(&self) -> Option<String> {
        self.state.access_log_jsonl()
    }

    /// A merged snapshot of the registry this server renders on
    /// `/metrics` — the server-level registry when a control plane is
    /// attached. Lets the driver export the final service series next to
    /// the access log without re-scraping itself.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        self.state.registry.snapshot()
    }

    /// Stops accepting, drains in-flight requests and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop: `incoming()` has no timeout, so poke
        // it with a throwaway loopback connection. If even that fails the
        // listener is already dead and the loop has exited on the error.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One blocking `GET` against a [`MonitorServer`], returning the status
/// code and body. This is the crate's own scrape client — the
/// consistency tests, the CI monitoring job's reconciler and the
/// scrape-storm benchmark all poll through it.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "GET", path, "")
}

/// One blocking request with an arbitrary method and body — the client
/// side of the control plane (`POST /campaigns`, `DELETE`, event
/// streams). Chunked responses are decoded; the read timeout is generous
/// because `/campaigns/{id}/events` legitimately stays open while a
/// campaign runs.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, SOCKET_TIMEOUT)?;
    stream.set_read_timeout(Some(EVENT_STREAM_CAP))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: serscale\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = head_end(&raw)
        .ok_or_else(|| std::io::Error::other("response missing header/body separator"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line in {head:?}")))?;
    let chunked = head.lines().any(|line| {
        line.split_once(':').is_some_and(|(name, value)| {
            name.trim().eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
        })
    });
    let payload = &raw[split..];
    let body = if chunked {
        decode_chunked(payload)
    } else {
        String::from_utf8_lossy(payload).into_owned()
    };
    Ok((status, body))
}

/// Reassembles a `Transfer-Encoding: chunked` body. Tolerates a
/// truncated tail (the caller sees whatever arrived before the cut).
fn decode_chunked(mut rest: &[u8]) -> String {
    let mut out = Vec::new();
    while let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") {
        let size_line = String::from_utf8_lossy(&rest[..line_end]);
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            break;
        };
        rest = &rest[line_end + 2..];
        if size == 0 || rest.len() < size {
            out.extend_from_slice(&rest[..size.min(rest.len())]);
            break;
        }
        out.extend_from_slice(&rest[..size]);
        rest = rest.get(size + 2..).unwrap_or(&[]); // skip the chunk's CRLF
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{TelemetryOptions, TelemetrySink};
    use crate::json::JsonValue;

    fn sink_with_server() -> (TelemetrySink, MonitorServer) {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let server = sink.serve("127.0.0.1:0").expect("bind");
        (sink, server)
    }

    #[test]
    fn index_lists_every_endpoint() {
        let (_sink, server) = sink_with_server();
        let (status, body) = http_get(server.addr(), "/").expect("GET /");
        assert_eq!(status, 200);
        for endpoint in ["/metrics", "/healthz", "/progress", "/spans", "/campaign"] {
            assert!(body.contains(endpoint), "index missing {endpoint}: {body}");
        }
    }

    #[test]
    fn metrics_endpoint_serves_live_series() {
        let (sink, server) = sink_with_server();
        sink.add_counter("edac_events", &[("voltage", "870mV@2.4 GHz")], 7);
        let (status, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE edac_events counter"), "{body}");
        assert!(
            body.contains("edac_events{voltage=\"870mV@2.4 GHz\"} 7"),
            "{body}"
        );
    }

    #[test]
    fn healthz_reports_probe_and_quarantines() {
        let (sink, server) = sink_with_server();
        let (_, body) = http_get(server.addr(), "/healthz").expect("GET /healthz");
        let doc = json::parse(&body).expect("healthz parses");
        assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(doc.get("journal_syncs"), Some(&JsonValue::Null));
        // Attach a probe: syncs surface as a number.
        sink.attach_sync_probe(SyncProbe::new());
        let (_, body) = http_get(server.addr(), "/healthz").expect("GET /healthz");
        let doc = json::parse(&body).expect("healthz parses");
        assert_eq!(
            doc.get("journal_syncs").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            doc.get("quarantined_trials").and_then(JsonValue::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn progress_endpoint_matches_reporter_state() {
        let (sink, server) = sink_with_server();
        sink.set_progress_target_sim_secs(1000.0);
        let (_, body) = http_get(server.addr(), "/progress").expect("GET /progress");
        let doc = json::parse(&body).expect("progress parses");
        assert_eq!(doc.get("trials").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(
            doc.get("target_sim_seconds").and_then(JsonValue::as_f64),
            Some(1000.0)
        );
    }

    #[test]
    fn campaign_endpoint_reflects_driver_status() {
        let (sink, server) = sink_with_server();
        sink.set_campaign_status(|status| {
            status.config_fingerprint = Some(0xdead_beef);
            status.journal = Some("runs/journal.serj".to_string());
            status.resumed_trials = 42;
        });
        let (_, body) = http_get(server.addr(), "/campaign").expect("GET /campaign");
        let doc = json::parse(&body).expect("campaign parses");
        assert_eq!(
            doc.get("config_fingerprint").and_then(JsonValue::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            doc.get("journal").and_then(JsonValue::as_str),
            Some("runs/journal.serj")
        );
        assert_eq!(
            doc.get("resumed_trials").and_then(JsonValue::as_f64),
            Some(42.0)
        );
        assert_eq!(doc.get("done"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn spans_endpoint_serves_recent_jsonl() {
        let (sink, server) = sink_with_server();
        for i in 0..100 {
            sink.tracer().in_span(
                crate::span::SpanLevel::Wave,
                &format!("wave@{i}"),
                crate::span::SpanId::ROOT,
                || (),
            );
        }
        let (status, body) = http_get(server.addr(), "/spans").expect("GET /spans");
        assert_eq!(status, 200);
        let docs = json::parse_lines(&body).expect("spans parse");
        assert_eq!(docs.len(), SPAN_WINDOW, "window caps the span dump");
        let last = docs.last().expect("nonempty");
        assert_eq!(
            last.get("name").and_then(JsonValue::as_str),
            Some("wave@99"),
            "newest span last"
        );
    }

    #[test]
    fn unknown_paths_and_methods_get_http_errors() {
        let (_sink, server) = sink_with_server();
        let (status, _) = http_get(server.addr(), "/nope").expect("GET /nope");
        assert_eq!(status, 404);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        // A malformed request line gets a 400, not a hang or a panic.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"garbage\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    }

    #[test]
    fn query_strings_are_ignored() {
        let (_sink, server) = sink_with_server();
        let (status, _) = http_get(server.addr(), "/progress?verbose=1").expect("GET");
        assert_eq!(status, 200);
    }

    #[test]
    fn shutdown_joins_cleanly_and_is_idempotent() {
        let (_sink, mut server) = sink_with_server();
        let addr = server.addr();
        http_get(addr, "/healthz").expect("server up");
        server.shutdown();
        server.shutdown(); // second call is a no-op
        assert!(
            http_get(addr, "/healthz").is_err(),
            "server must be down after shutdown"
        );
    }

    #[test]
    fn campaigns_routes_require_an_attached_control_plane() {
        let (_sink, server) = sink_with_server();
        let (status, body) = http_get(server.addr(), "/campaigns").expect("GET /campaigns");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("repro serve"), "{body}");
        let (status, _) =
            http_request(server.addr(), "POST", "/campaigns", "{}").expect("POST /campaigns");
        assert_eq!(status, 404);
    }

    #[test]
    fn control_plane_round_trip_over_http() {
        use crate::control::{ControlPlane, ControlPlaneOptions};

        let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
        let control = ControlPlane::start(ControlPlaneOptions::default());
        let server = sink
            .serve_control("127.0.0.1:0", Arc::clone(&control))
            .expect("bind");
        let addr = server.addr();

        // Index now advertises the service routes.
        let (_, index) = http_get(addr, "/").expect("GET /");
        assert!(index.contains("/campaigns"), "{index}");

        // A bad spec is a structured 400 naming the field.
        let (status, body) =
            http_request(addr, "POST", "/campaigns", "{\"scale\":0}").expect("bad spec");
        assert_eq!(status, 400, "{body}");
        let doc = json::parse(body.trim()).expect("error document parses");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("field"))
                .and_then(JsonValue::as_str),
            Some("scale"),
            "{body}"
        );

        // A good spec is accepted and runs to a fetchable report.
        let spec = "{\"tenant\":\"http\",\"seed\":3,\"scale\":0.001}";
        let (status, body) = http_request(addr, "POST", "/campaigns", spec).expect("submit");
        assert_eq!(status, 202, "{body}");
        let id = json::parse(&body)
            .expect("acceptance parses")
            .get("id")
            .and_then(JsonValue::as_f64)
            .expect("id") as u64;
        assert!(
            control.wait_idle(Duration::from_secs(60)),
            "campaign finished"
        );
        let (status, listing) = http_get(addr, "/campaigns").expect("list");
        assert_eq!(status, 200);
        assert!(listing.contains("\"status\":\"done\""), "{listing}");
        let (status, report) = http_get(addr, &format!("/campaigns/{id}/report")).expect("report");
        assert_eq!(status, 200);
        assert!(report.contains("flux_per_cm2_s"), "{report}");
        // The alias serves the same document as /campaigns/{id}.
        let (_, alias) = http_get(addr, "/campaign").expect("alias");
        let (_, direct) = http_get(addr, &format!("/campaigns/{id}")).expect("status");
        assert_eq!(alias, direct);
        // The event stream terminates (job is done) and carries JSONL.
        let (status, events) = http_get(addr, &format!("/campaigns/{id}/events")).expect("events");
        assert_eq!(status, 200);
        assert!(events.contains("session_start"), "{events}");
        json::parse_lines(&events).expect("event stream is valid JSONL");
        // Wrong methods 405, unknown jobs 404, report-before-done 409.
        let (status, _) = http_request(addr, "PUT", &format!("/campaigns/{id}"), "").expect("PUT");
        assert_eq!(status, 405);
        let (status, _) = http_get(addr, "/campaigns/999").expect("unknown");
        assert_eq!(status, 404);
        // Shutdown over HTTP: drains and refuses new specs.
        let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
        assert_eq!(status, 200);
        let (status, body) = http_request(addr, "POST", "/campaigns", spec).expect("late");
        assert_eq!(status, 503, "{body}");
        control.drain();
    }

    /// Each poll copies only the bytes past what the stream has sent, yet
    /// a stream opened while its job is still queued carries the job's
    /// whole event stream, then the `stream_end` line.
    #[test]
    fn an_event_stream_opened_before_its_job_carries_every_event() {
        use crate::control::{ControlPlane, ControlPlaneOptions};

        let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
        let control = ControlPlane::start(ControlPlaneOptions {
            start_paused: true,
            ..Default::default()
        });
        let server = sink
            .serve_control("127.0.0.1:0", Arc::clone(&control))
            .expect("bind");
        let spec = "{\"tenant\":\"stream\",\"seed\":4,\"scale\":0.001}";
        let (status, body) =
            http_request(server.addr(), "POST", "/campaigns", spec).expect("submit");
        assert_eq!(status, 202, "{body}");
        let id = json::parse(&body)
            .expect("acceptance parses")
            .get("id")
            .and_then(JsonValue::as_f64)
            .expect("id") as u64;

        let mut stream =
            TcpStream::connect_timeout(&server.addr(), SOCKET_TIMEOUT).expect("connect");
        stream
            .set_read_timeout(Some(EVENT_STREAM_CAP))
            .expect("read timeout");
        stream
            .write_all(
                format!(
                    "GET /campaigns/{id}/events HTTP/1.1\r\nHost: serscale\r\n\
                     Content-Length: 0\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .expect("request");
        // The stream writes its head before its first poll; no chunk can
        // follow while the job is queued.
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while head_end(&raw).is_none() {
            stream.read_exact(&mut byte).expect("response head");
            raw.push(byte[0]);
        }
        assert_eq!(control.state_label(id), Some("queued"));
        control.set_paused(false);
        stream.read_to_end(&mut raw).expect("stream to its end");

        let payload = decode_chunked(&raw[head_end(&raw).expect("head")..]);
        let (events, done) = control.events_snapshot(id).expect("job");
        assert!(done, "the stream ends with its job");
        assert!(events.contains("\"session_start\""), "{events}");
        assert_eq!(
            payload,
            format!("{events}{{\"event\":\"stream_end\",\"reason\":\"done\"}}\n")
        );
        control.drain();
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        let (sink, server) = sink_with_server();
        sink.add_counter("runs_total", &[("voltage", "nominal")], 5);
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let path = ["/metrics", "/healthz", "/progress", "/campaign"][i % 4];
                    http_get(addr, path).expect("scrape")
                })
            })
            .collect();
        for handle in handles {
            let (status, body) = handle.join().expect("join scraper");
            assert_eq!(status, 200);
            assert!(!body.is_empty());
        }
    }

    /// A byte source that hands out at most `step` bytes per read, the
    /// way a slow client's packets arrive.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn parse_bytes(bytes: &[u8], step: usize) -> Result<Request, String> {
        parse_request(&mut Trickle { bytes, step })
    }

    /// A well-formed `POST` of `body` to `path`.
    fn request_bytes(path: &str, body: &[u8]) -> Vec<u8> {
        let mut bytes = format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    /// Bytes that can never appear in UTF-8.
    const NOT_UTF8: [u8; 6] = [0x80, 0xbf, 0xc0, 0xc1, 0xf5, 0xff];

    mod hostile_heads {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes, split arbitrarily, never panic the parser.
            #[test]
            fn arbitrary_bytes_never_panic_the_head_parser(
                bytes in prop::collection::vec(any::<u8>(), 0..2048),
                step in 1usize..600,
            ) {
                let _ = parse_bytes(&bytes, step);
            }

            /// Well-formed requests parse back to their path and body.
            #[test]
            fn well_formed_requests_parse(
                path in prop::collection::vec(b'a'..=b'z', 1..40),
                body in prop::collection::vec(32u8..127, 0..300),
                step in 1usize..600,
            ) {
                let path = format!("/{}", String::from_utf8(path).unwrap());
                let request = parse_bytes(&request_bytes(&path, &body), step)
                    .expect("a well-formed request parses");
                prop_assert_eq!(request.method, "POST");
                prop_assert_eq!(request.path, path);
                prop_assert_eq!(request.body.as_bytes(), &body[..]);
            }

            /// A connection that closes before the head's blank line is
            /// refused, wherever it closes.
            #[test]
            fn truncated_heads_are_refused(
                body_len in 0usize..64,
                cut in any::<usize>(),
                step in 1usize..600,
            ) {
                let request = request_bytes("/campaigns", &vec![b'x'; body_len]);
                let cut = cut % (request.len() - body_len);
                prop_assert!(parse_bytes(&request[..cut], step).is_err());
            }

            /// A head over the limit is refused however the bytes arrive,
            /// and one within it is accepted.
            #[test]
            fn oversized_heads_are_refused(
                pad in 0usize..2 * MAX_REQUEST_BYTES,
                step in 1usize..600,
            ) {
                let head = format!("GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
                let parsed = parse_bytes(head.as_bytes(), step);
                prop_assert_eq!(parsed.is_ok(), head.len() <= MAX_REQUEST_BYTES);
            }

            /// A `Content-Length` that is not a number, is negative,
            /// overflows, or exceeds the body limit is refused.
            #[test]
            fn bad_content_lengths_are_refused(
                kind in 0usize..4,
                n in any::<u64>(),
                junk in prop::collection::vec(32u8..127, 0..12),
            ) {
                let value = match kind {
                    0 => format!("x{}", String::from_utf8(junk).unwrap()),
                    1 => format!("-{}", n % 1000),
                    2 => format!("{}{:020}", n % 9 + 1, n),
                    _ => (MAX_BODY_BYTES as u64 + 1).saturating_add(n).to_string(),
                };
                let head = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
                prop_assert!(parse_bytes(head.as_bytes(), 512).is_err(), "accepted {value:?}");
            }

            /// A body shorter than its `Content-Length` is refused.
            #[test]
            fn short_bodies_are_refused(
                declared in 1usize..=MAX_BODY_BYTES,
                short in any::<usize>(),
                step in 1usize..600,
            ) {
                let body = vec![b'{'; short % declared];
                let mut request = format!(
                    "POST /campaigns HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
                )
                .into_bytes();
                request.extend_from_slice(&body);
                prop_assert!(parse_bytes(&request, step).is_err());
            }

            /// A byte that is not UTF-8 anywhere in the request line, a
            /// header or the body is refused.
            #[test]
            fn non_utf8_bytes_are_refused(
                bad in prop::sample::select(NOT_UTF8.to_vec()),
                at in any::<usize>(),
                step in 1usize..600,
            ) {
                let mut request = request_bytes("/campaigns", b"{\"seed\":7}");
                // Anywhere but the CR LF framing, which would change the
                // request's shape rather than its encoding.
                let spots: Vec<usize> = (0..request.len())
                    .filter(|&i| request[i] != b'\r' && request[i] != b'\n')
                    .collect();
                request.insert(spots[at % spots.len()], bad);
                prop_assert!(parse_bytes(&request, step).is_err());
            }
        }
    }
}
