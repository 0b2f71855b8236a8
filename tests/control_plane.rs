//! Control-plane concurrency battery: campaign-as-a-service must be
//! *indistinguishable*, byte for byte, from the one-shot CLI.
//!
//! Three contracts, end to end over real sockets:
//!
//! 1. **Isolation under concurrency** — N campaigns submitted by M
//!    concurrent HTTP clients, interleaved on a shared worker pool, each
//!    produce a report byte-identical to the same spec run solo through
//!    the CLI path ([`run_campaign`]), at `jobs: 1` and `jobs: 8`.
//! 2. **The resume oracle** — `DELETE` mid-run cancels at a wave
//!    boundary with the journal resumable; resubmitting the spec with
//!    `"resume": <id>` replays the absorbed prefix and finishes to the
//!    *uninterrupted* report (PR 4's crash-recovery oracle, driven over
//!    HTTP).
//! 3. **Service hygiene** — the legacy `/campaign` alias tracks the
//!    current job, and the event stream is valid JSONL that terminates.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serscale_bench::{golden_summary, run_campaign};
use serscale_core::campaign::Campaign;
use serscale_core::spec::parse_campaign;
use serscale_telemetry::json::{self, JsonValue};
use serscale_telemetry::serve::{http_get, http_request, MonitorServer};
use serscale_telemetry::{ControlPlane, ControlPlaneOptions, TelemetryOptions, TelemetrySink};

fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "serscale-control-plane-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir creatable");
    dir
}

/// Starts a full service: control plane + HTTP plane on an ephemeral
/// port. The sink handle keeps service metrics alive; the server handle
/// keeps the port open.
fn service(
    max_concurrent: usize,
    state_dir: Option<PathBuf>,
) -> (Arc<TelemetrySink>, Arc<ControlPlane>, MonitorServer) {
    let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
    let control = ControlPlane::start(ControlPlaneOptions {
        max_concurrent,
        state_dir,
        ..Default::default()
    });
    let server = sink
        .serve_control("127.0.0.1:0", Arc::clone(&control))
        .expect("service binds");
    (sink, control, server)
}

/// Polls `/campaigns/{id}` until the job reaches a terminal state;
/// returns the final status document.
fn wait_terminal(addr: std::net::SocketAddr, id: u64, timeout: Duration) -> JsonValue {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = http_get(addr, &format!("/campaigns/{id}")).expect("status fetch");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("status document parses");
        if doc.get("done") == Some(&JsonValue::Bool(true)) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} not terminal within {timeout:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn job_status(doc: &JsonValue) -> &str {
    doc.get("status")
        .and_then(JsonValue::as_str)
        .expect("status field")
}

/// Contract 1: concurrent multi-client submissions are bit-identical to
/// solo CLI runs — the acceptance bar of the issue, at both jobs counts.
#[test]
fn concurrent_http_submissions_match_solo_cli_runs_bit_for_bit() {
    const SCALE: f64 = 0.002;
    // (seed, jobs): two campaigns per jobs count, all in flight at once
    // on a 2-runner pool, submitted from 4 concurrent clients.
    let matrix: [(u64, u32); 4] = [(101, 1), (102, 8), (103, 1), (104, 8)];
    let (_sink, control, server) = service(2, None);
    let addr = server.addr();

    let clients: Vec<_> = matrix
        .iter()
        .map(|&(seed, jobs)| {
            std::thread::spawn(move || {
                let spec = format!(
                    "{{\"tenant\":\"client-{seed}\",\"seed\":{seed},\
                     \"scale\":{SCALE},\"jobs\":{jobs}}}"
                );
                let (status, body) =
                    http_request(addr, "POST", "/campaigns", &spec).expect("submit");
                assert_eq!(status, 202, "{body}");
                let id = json::parse(&body)
                    .expect("acceptance parses")
                    .get("id")
                    .and_then(JsonValue::as_f64)
                    .expect("id field") as u64;
                let doc = wait_terminal(addr, id, Duration::from_secs(120));
                assert_eq!(job_status(&doc), "done", "{doc:?}");
                let (status, report) =
                    http_get(addr, &format!("/campaigns/{id}/report")).expect("report");
                assert_eq!(status, 200);
                (seed, jobs, report)
            })
        })
        .collect();

    for client in clients {
        let (seed, jobs, service_report) = client.join().expect("client thread");
        let solo = golden_summary(&run_campaign(SCALE, seed, jobs as usize));
        assert_eq!(
            service_report, solo,
            "seed {seed} jobs {jobs}: service report differs from the solo CLI run"
        );
    }

    // The listing agrees: four jobs, all done.
    let (_, listing) = http_get(addr, "/campaigns").expect("list");
    let docs = json::parse(&listing).expect("listing parses");
    let JsonValue::Array(docs) = docs else {
        panic!("listing is not an array: {listing}");
    };
    assert_eq!(docs.len(), 4);
    assert!(docs.iter().all(|d| job_status(d) == "done"), "{listing}");
    control.drain();
}

/// A body big enough to still be running when a cancel lands: explicit
/// sessions several times the paper's beam time, run single-threaded,
/// resuming the cancelled job `resume` if one is given.
fn long_body(seed: u64, resume: Option<u64>) -> String {
    let sessions = [(980, 950), (960, 950), (940, 950), (920, 920)]
        .map(|(pmd_mv, soc_mv)| {
            format!(
                "{{\"pmd_mv\":{pmd_mv},\"soc_mv\":{soc_mv},\"freq_mhz\":2400,\"minutes\":2400}}"
            )
        })
        .join(",");
    let resume = resume.map_or(String::new(), |id| format!(",\"resume\":{id}"));
    format!(
        "{{\"tenant\":\"resume-oracle\",\"seed\":{seed},\"jobs\":1,\"sessions\":[{sessions}]{resume}}}"
    )
}

/// Contract 2: cancel mid-run over HTTP, resubmit with `resume`, and the
/// finished report is byte-identical to a run that was never cancelled.
#[test]
fn cancel_then_resume_reproduces_the_uninterrupted_report() {
    let state = case_dir("resume");
    let (_sink, control, server) = service(1, Some(state.clone()));
    let addr = server.addr();

    // The oracle: the same spec, run to completion in one piece.
    let spec = parse_campaign(&long_body(4242, None)).expect("long spec validates");
    let uninterrupted = golden_summary(&Campaign::new(spec.config()).run_parallel(1));

    let (status, body) =
        http_request(addr, "POST", "/campaigns", &long_body(4242, None)).expect("submit");
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .expect("acceptance parses")
        .get("id")
        .and_then(JsonValue::as_f64)
        .expect("id") as u64;

    // Wait for real progress, then cancel. The engine only observes the
    // token at a wave boundary, so the journal is synced when it stops.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = http_get(addr, &format!("/campaigns/{id}")).expect("status");
        let doc = json::parse(&body).expect("parses");
        let trials = doc
            .get("trials_done")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        if trials > 0.0 || doc.get("done") == Some(&JsonValue::Bool(true)) {
            break;
        }
        assert!(Instant::now() < deadline, "no progress: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) =
        http_request(addr, "DELETE", &format!("/campaigns/{id}"), "").expect("cancel");
    assert_eq!(status, 200, "{body}");
    let doc = wait_terminal(addr, id, Duration::from_secs(120));

    // Surfaced in `--nocapture` / CI logs so a flaky fallback is visible.
    eprintln!("cancel landed with job in state {:?}", job_status(&doc));
    match job_status(&doc) {
        "cancelled" => {
            // No report for a cancelled job — 409, not a partial result.
            let (status, _) =
                http_get(addr, &format!("/campaigns/{id}/report")).expect("no report");
            assert_eq!(status, 409);
            // Resubmit with resume: the journal's prefix replays, the
            // rest re-simulates, and the bytes come out unchanged.
            let (status, body) =
                http_request(addr, "POST", "/campaigns", &long_body(4242, Some(id)))
                    .expect("resubmit");
            assert_eq!(status, 202, "{body}");
            let resumed_id = json::parse(&body)
                .expect("parses")
                .get("id")
                .and_then(JsonValue::as_f64)
                .expect("id") as u64;
            let doc = wait_terminal(addr, resumed_id, Duration::from_secs(300));
            assert_eq!(job_status(&doc), "done", "{doc:?}");
            assert!(
                doc.get("resumed_trials")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0)
                    > 0.0,
                "resume replayed nothing — the cancel landed too early: {doc:?}"
            );
            let (_, report) =
                http_get(addr, &format!("/campaigns/{resumed_id}/report")).expect("report");
            assert_eq!(
                report, uninterrupted,
                "resumed report differs from the never-cancelled run"
            );
        }
        // The campaign can finish before the DELETE lands (tiny host
        // variance); the submission contract still holds bit for bit.
        "done" => {
            let (_, report) = http_get(addr, &format!("/campaigns/{id}/report")).expect("report");
            assert_eq!(report, uninterrupted);
        }
        other => panic!("unexpected terminal state {other}: {doc:?}"),
    }
    control.drain();
    let _ = std::fs::remove_dir_all(&state);
}

/// Contract 2b: a mismatched resume target is refused with a 409 — the
/// journal is fingerprint-locked to its configuration.
#[test]
fn resume_with_a_different_spec_is_refused() {
    let state = case_dir("resume-mismatch");
    let (_sink, control, server) = service(1, Some(state.clone()));
    let addr = server.addr();
    // Run a tiny campaign to completion, then try to "resume" it (wrong
    // state) and resume a nonexistent id.
    let (_, body) = http_request(
        addr,
        "POST",
        "/campaigns",
        "{\"tenant\":\"t\",\"seed\":9,\"scale\":0.001}",
    )
    .expect("submit");
    let id = json::parse(&body)
        .expect("parses")
        .get("id")
        .and_then(JsonValue::as_f64)
        .expect("id") as u64;
    wait_terminal(addr, id, Duration::from_secs(120));
    for (resume, why) in [(id, "done jobs are not resumable"), (999, "unknown id")] {
        let body = format!("{{\"tenant\":\"t\",\"seed\":9,\"scale\":0.001,\"resume\":{resume}}}");
        let (status, body) = http_request(addr, "POST", "/campaigns", &body).expect("resubmit");
        assert_eq!(status, 409, "{why}: {body}");
    }
    control.drain();
    let _ = std::fs::remove_dir_all(&state);
}

/// Contract 3: `/campaign` aliases the current job's document, and the
/// event stream is well-formed JSONL mirroring the job's private sink.
#[test]
fn alias_and_event_stream_follow_the_current_job() {
    let (_sink, control, server) = service(1, None);
    let addr = server.addr();
    // Before any submission the alias serves the legacy (empty) cell.
    let (status, body) = http_get(addr, "/campaign").expect("alias");
    assert_eq!(status, 200);
    assert!(
        json::parse(&body).expect("parses").get("id").is_none(),
        "legacy cell has no job id: {body}"
    );
    let (_, body) = http_request(
        addr,
        "POST",
        "/campaigns",
        "{\"tenant\":\"alias\",\"seed\":21,\"scale\":0.001}",
    )
    .expect("submit");
    let id = json::parse(&body)
        .expect("parses")
        .get("id")
        .and_then(JsonValue::as_f64)
        .expect("id") as u64;
    wait_terminal(addr, id, Duration::from_secs(120));
    let (_, alias) = http_get(addr, "/campaign").expect("alias");
    let (_, direct) = http_get(addr, &format!("/campaigns/{id}")).expect("direct");
    assert_eq!(alias, direct, "alias must serve the current job's document");
    // The stream terminates (job done) and every line is an event.
    let (status, events) = http_get(addr, &format!("/campaigns/{id}/events")).expect("events");
    assert_eq!(status, 200);
    let lines = json::parse_lines(&events).expect("valid JSONL");
    assert!(
        lines
            .iter()
            .any(|l| l.get("event").and_then(JsonValue::as_str) == Some("session_start")),
        "stream carries engine events: {events}"
    );
    control.drain();
}
