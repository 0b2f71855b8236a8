//! Campaign-as-a-service: the read-write control plane behind
//! `POST /campaigns`.
//!
//! [`ControlPlane`] turns the one-shot campaign engine into a long-lived
//! multi-tenant service: JSON specs are read and validated by
//! [`serscale_core::spec::parse_campaign`], which owns the wire format,
//! queued on a [`FairQueue`] (FIFO within a tenant, round-robin across
//! tenants) and executed by a small pool of runner threads, several
//! campaigns at a time.
//!
//! ## Per-campaign isolation
//!
//! Every job owns a private [`TelemetrySink`] (its own metrics registry,
//! tracer, event stream and progress state), its own journal directory
//! and its own RNG root (the spec's seed — every stream below it is
//! counter-derived). With a state directory the event stream is the file
//! `job-<id>/events.jsonl`, appended after every wave from the job's
//! first event on; without one it stays in memory. Nothing about a job's
//! execution reads another job's state, which is why a report produced
//! under concurrency is bit-identical to the same spec run solo:
//! `tests/control_plane.rs` asserts exactly that, byte for byte, against
//! the one-shot CLI path.
//!
//! ## Cancellation and resume
//!
//! `DELETE /campaigns/{id}` fires the job's
//! [`CancelToken`]; the engine observes it at the next wave boundary
//! ([`Campaign::try_run`] returns [`RunError::Cancelled`]), where the
//! journal is synced and resumable. Resubmitting the same spec with
//! `"resume": <id>` re-opens the cancelled job's journal through
//! [`start_or_resume`] and reproduces the uninterrupted report bit for
//! bit — cancellation deliberately rides the crash-recovery path instead
//! of inventing a second lifecycle. The resume starts its own
//! `events.jsonl` in the adopted directory; every earlier job's stream
//! there moves to `events-<its id>.jsonl` first, so its `/events` keeps
//! returning exactly the bytes it produced.
//!
//! ## Quarantine
//!
//! A campaign whose journal cannot be opened, written or synced
//! ([`RunError::Journal`]) is marked `failed`, with the I/O error as its
//! reason; its journal stays resumable. A panicking campaign (engine
//! assertion) is caught on its runner thread and marked `failed` too.
//! Either way the runner moves on — one tenant's pathological spec
//! cannot stall another tenant's queue. This mirrors the worker pool's
//! drain-then-resume semantics one level up.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serscale_core::campaign::{Campaign, CampaignRunOptions, RunError};
use serscale_core::journal::{config_fingerprint, journal_path, start_or_resume};
use serscale_core::report::golden_summary;
use serscale_core::scheduler::{CancelToken, FairQueue};
use serscale_core::session::RetryPolicy;
use serscale_core::spec::{parse_campaign, CampaignSpec};
use serscale_types::json;
use serscale_types::spec::SpecError;

use crate::export::TelemetrySink;

/// Upper bound on queued + live jobs a control plane will hold before
/// refusing submissions (backpressure, and a memory bound: job state is
/// kept for the server's lifetime so reports stay fetchable).
const MAX_JOBS: usize = 1024;

/// Tuning for a [`ControlPlane`].
#[derive(Debug, Clone, Default)]
pub struct ControlPlaneOptions {
    /// Runner threads, i.e. campaigns executing concurrently
    /// (`0` = default of 2).
    pub max_concurrent: usize,
    /// Worker threads per campaign when the spec does not override
    /// (`0` = default of 1).
    pub default_jobs: usize,
    /// Directory for per-job journals (`state/job-<id>/`). Without one,
    /// jobs run unjournaled and cancelled jobs cannot be resumed.
    pub state_dir: Option<PathBuf>,
    /// Start with the queue paused: jobs are accepted but no runner picks
    /// one up until [`ControlPlane::set_paused`]`(false)`. Lets tests
    /// (and operators) stage a backlog deterministically.
    pub start_paused: bool,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    /// Cancel requested while running; the engine will stop at the next
    /// wave boundary.
    Cancelling,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cancelling => "cancelling",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

struct JobEntry {
    spec: CampaignSpec,
    state: JobState,
    cancel: CancelToken,
    /// The job's private telemetry: own registry, tracer, event stream.
    sink: Arc<TelemetrySink>,
    journal_dir: Option<PathBuf>,
    resumed_trials: u64,
    /// The bit-stable golden report, once the job is done.
    report: Option<String>,
    error: Option<String>,
    /// Failure-injection flag (see [`ControlPlane::submit_poison`]).
    poison: bool,
    /// Completion sequence number (order across all jobs), once terminal.
    completed_seq: Option<u64>,
    /// When the job entered the fair queue (host clock; attribution only,
    /// never part of the deterministic artifacts).
    queued_at: Instant,
    /// When a runner dequeued the job, once it has.
    started_at: Option<Instant>,
    /// When the job reached a terminal state, once it has.
    finished_at: Option<Instant>,
}

struct Shared {
    queue: FairQueue<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    next_id: u64,
    next_completed: u64,
    /// Most recently started (running) job, for the `/campaign` alias.
    last_started: Option<u64>,
    paused: bool,
    shutdown: bool,
}

struct ControlInner {
    state: Mutex<Shared>,
    wake: Condvar,
    default_jobs: usize,
    state_dir: Option<PathBuf>,
    /// Server-level sink for fleet counters (`campaigns_submitted_total`
    /// etc.); per-job telemetry lives in each job's own sink.
    metrics: Mutex<Option<Arc<TelemetrySink>>>,
}

/// An HTTP-shaped control-plane error: a status code and a JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlError {
    /// HTTP status the server should answer with.
    pub status: u16,
    /// JSON error document (`{"error":{...}}`).
    pub body: String,
}

impl ControlError {
    fn bad_request(err: &SpecError) -> Self {
        ControlError {
            status: 400,
            body: format!(
                "{{\"error\":{{\"field\":{},\"reason\":{}}}}}",
                json::escape(&err.field),
                json::escape(&err.reason)
            ),
        }
    }

    fn simple(status: u16, reason: &str) -> Self {
        ControlError {
            status,
            body: format!("{{\"error\":{{\"reason\":{}}}}}", json::escape(reason)),
        }
    }
}

/// The first job id a service on `state_dir` may hand out: one past the
/// highest `job-<n>` entry an earlier process left there, so a restart
/// never reopens an old job's journal directory.
fn first_free_job_id(state_dir: Option<&Path>) -> u64 {
    let Some(entries) = state_dir.and_then(|dir| std::fs::read_dir(dir).ok()) else {
        return 1;
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            entry
                .file_name()
                .to_str()?
                .strip_prefix("job-")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(1, |n| n.saturating_add(1))
}

/// The campaign service: queue, runner pool, and job registry. See the
/// module docs for the isolation and cancellation contracts.
pub struct ControlPlane {
    inner: Arc<ControlInner>,
    runners: Mutex<Vec<JoinHandle<()>>>,
}

impl ControlPlane {
    /// Starts the runner pool and returns the service handle. Share it
    /// with a server via
    /// [`TelemetrySink::serve_control`](crate::export::TelemetrySink::serve_control).
    pub fn start(options: ControlPlaneOptions) -> Arc<Self> {
        let max_concurrent = if options.max_concurrent == 0 {
            2
        } else {
            options.max_concurrent
        };
        let inner = Arc::new(ControlInner {
            state: Mutex::new(Shared {
                queue: FairQueue::new(),
                jobs: BTreeMap::new(),
                next_id: first_free_job_id(options.state_dir.as_deref()),
                next_completed: 0,
                last_started: None,
                paused: options.start_paused,
                shutdown: false,
            }),
            wake: Condvar::new(),
            default_jobs: if options.default_jobs == 0 {
                1
            } else {
                options.default_jobs
            },
            state_dir: options.state_dir,
            metrics: Mutex::new(None),
        });
        let runners = (0..max_concurrent)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serscale-campaign-runner-{i}"))
                    .spawn(move || runner_loop(&inner))
                    .expect("spawn campaign runner")
            })
            .collect();
        Arc::new(ControlPlane {
            inner,
            runners: Mutex::new(runners),
        })
    }

    /// The directory of the per-job journals, if the service has one.
    pub(crate) fn state_dir(&self) -> Option<&Path> {
        self.inner.state_dir.as_deref()
    }

    /// Attaches a server-level sink for fleet counters
    /// (`campaigns_submitted_total`, `campaigns_completed_total{outcome}`).
    pub fn attach_metrics(&self, sink: Arc<TelemetrySink>) {
        *self.inner.metrics.lock().expect("metrics cell poisoned") = Some(sink);
    }

    /// Submits a JSON campaign spec (the `POST /campaigns` body) and
    /// returns the acceptance document.
    ///
    /// # Errors
    ///
    /// `400` with a structured `{"error":{"field","reason"}}` body when
    /// the document is malformed or a field fails validation; `409` for
    /// an unusable `resume` target; `503` when shutting down or full.
    pub fn submit(&self, body: &str) -> Result<String, ControlError> {
        let spec = parse_campaign(body).map_err(|e| ControlError::bad_request(&e))?;
        let id = self.submit_spec(spec)?;
        Ok(format!(
            "{{\"id\":{id},\"status\":\"queued\",\"url\":\"/campaigns/{id}\"}}"
        ))
    }

    /// Queues an already-validated spec; returns the job id. The HTTP
    /// path goes through [`submit`](Self::submit); this is the in-process
    /// entry tests and embedders use.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit), minus spec validation.
    pub fn submit_spec(&self, spec: CampaignSpec) -> Result<u64, ControlError> {
        self.enqueue(spec, false)
    }

    /// Queues a job whose runner panics instead of running a campaign —
    /// the failure-injection hook behind the quarantine tests (a
    /// panicking campaign must not stall other tenants' queues).
    ///
    /// # Errors
    ///
    /// As [`submit_spec`](Self::submit_spec).
    pub fn submit_poison(&self, tenant: &str) -> Result<u64, ControlError> {
        let mut spec = parse_campaign("{}").expect("the empty spec is valid");
        spec.tenant = tenant.to_string();
        spec.name = "poison".to_string();
        self.enqueue(spec, true)
    }

    fn enqueue(&self, spec: CampaignSpec, poison: bool) -> Result<u64, ControlError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(ControlError::simple(
                503,
                "server is draining; resubmit elsewhere",
            ));
        }
        if state.jobs.len() >= MAX_JOBS {
            return Err(ControlError::simple(503, "job table full"));
        }
        // A resume submission adopts the cancelled job's journal so
        // `start_or_resume` replays its absorbed trials.
        let journal_dir = match spec.resume {
            Some(resume_id) => {
                let old = state.jobs.get(&resume_id).ok_or_else(|| {
                    ControlError::simple(409, &format!("resume target {resume_id} does not exist"))
                })?;
                if !matches!(old.state, JobState::Cancelled | JobState::Failed) {
                    return Err(ControlError::simple(
                        409,
                        &format!(
                            "resume target {resume_id} is {}; only cancelled or failed jobs resume",
                            old.state.label()
                        ),
                    ));
                }
                let dir = old.journal_dir.clone().ok_or_else(|| {
                    ControlError::simple(
                        409,
                        &format!("resume target {resume_id} ran without a journal"),
                    )
                })?;
                if config_fingerprint(&old.spec.config()) != config_fingerprint(&spec.config()) {
                    return Err(ControlError::simple(
                        409,
                        &format!(
                            "spec does not match resume target {resume_id}: \
                             the journal is fingerprint-locked to its configuration"
                        ),
                    ));
                }
                for (id, job) in &state.jobs {
                    if job.journal_dir.as_ref() == Some(&dir) {
                        let kept = dir.join(format!("events-{id}.jsonl"));
                        job.sink.events.relocate(&kept).map_err(|e| {
                            ControlError::simple(
                                500,
                                &format!("cannot keep job {id}'s event stream: {e}"),
                            )
                        })?;
                    }
                }
                Some(dir)
            }
            None => {
                let id = state.next_id;
                self.inner
                    .state_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("job-{id}")))
            }
        };
        let id = state.next_id;
        state.next_id += 1;
        let tenant = spec.tenant.clone();
        let events = journal_dir.as_ref().map(|dir| dir.join("events.jsonl"));
        state.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                cancel: CancelToken::new(),
                sink: Arc::new(TelemetrySink::for_job(events)),
                journal_dir,
                resumed_trials: 0,
                report: None,
                error: None,
                poison,
                completed_seq: None,
                queued_at: Instant::now(),
                started_at: None,
                finished_at: None,
            },
        );
        state.queue.push(&tenant, id);
        let depth = state.queue.len();
        drop(state);
        self.count("campaigns_submitted_total", &[]);
        self.count(
            "tenant_jobs_total",
            &[("tenant", &tenant), ("phase", "queued")],
        );
        fleet_gauge(&self.inner, "queue_depth", &[], depth as f64);
        self.inner.wake.notify_all();
        Ok(id)
    }

    /// Cancels a job: a queued job is cancelled immediately; a running
    /// job's token fires and the engine stops at the next wave boundary
    /// (status `cancelling` until it does). Terminal jobs are left
    /// untouched. Returns the job's status document.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn cancel(&self, id: u64) -> Result<String, ControlError> {
        let mut state = self.lock();
        let entry = state
            .jobs
            .get(&id)
            .ok_or_else(|| ControlError::simple(404, &format!("no job {id}")))?;
        match entry.state {
            JobState::Queued => {
                state.queue.remove(|&queued| queued == id);
                let depth = state.queue.len();
                let seq = state.next_completed;
                state.next_completed += 1;
                let entry = state.jobs.get_mut(&id).expect("entry present");
                entry.state = JobState::Cancelled;
                entry.completed_seq = Some(seq);
                entry.finished_at = Some(Instant::now());
                let tenant = entry.spec.tenant.clone();
                drop(state);
                self.count("campaigns_completed_total", &[("outcome", "cancelled")]);
                self.count(
                    "tenant_jobs_total",
                    &[("tenant", &tenant), ("phase", "completed")],
                );
                fleet_gauge(&self.inner, "queue_depth", &[], depth as f64);
                refresh_completed_share(&self.inner);
                self.inner.wake.notify_all();
            }
            JobState::Running => {
                entry.cancel.cancel();
                state.jobs.get_mut(&id).expect("entry present").state = JobState::Cancelling;
                drop(state);
            }
            _ => drop(state),
        }
        Ok(self.status_json(id).expect("job still present"))
    }

    /// The `GET /campaigns` listing: every job, oldest first, as a JSON
    /// array of status documents.
    pub fn list_json(&self) -> String {
        let ids: Vec<u64> = self.lock().jobs.keys().copied().collect();
        let docs: Vec<String> = ids
            .into_iter()
            .filter_map(|id| self.status_json(id))
            .collect();
        format!("[{}]", docs.join(","))
    }

    /// The `GET /campaigns/{id}` status document, if the job exists. The
    /// shape is a superset of the legacy `/campaign` cell, so the alias
    /// can serve it unchanged.
    pub fn status_json(&self, id: u64) -> Option<String> {
        let (spec, job_state, cancel_requested, sink, journal_dir, resumed, error, seq, stamps) = {
            let state = self.lock();
            let entry = state.jobs.get(&id)?;
            (
                entry.spec.clone(),
                entry.state,
                entry.cancel.is_cancelled(),
                Arc::clone(&entry.sink),
                entry.journal_dir.clone(),
                entry.resumed_trials,
                entry.error.clone(),
                entry.completed_seq,
                (entry.queued_at, entry.started_at, entry.finished_at),
            )
        };
        let snapshot = sink.registry().snapshot();
        let fingerprint = config_fingerprint(&spec.config());
        let mut out = format!(
            "{{\"id\":{id},\"name\":{},\"tenant\":{},\"platform\":{},\"status\":{}",
            json::escape(&spec.name),
            json::escape(&spec.tenant),
            json::escape(&spec.platform.name),
            json::escape(job_state.label()),
        );
        out.push_str(&format!(",\"done\":{}", job_state.terminal()));
        out.push_str(&format!(",\"cancel_requested\":{cancel_requested}"));
        out.push_str(&format!(",\"config_fingerprint\":\"{fingerprint:016x}\""));
        match &journal_dir {
            Some(dir) => out.push_str(&format!(
                ",\"journal\":{}",
                json::escape(&journal_path(dir).display().to_string())
            )),
            None => out.push_str(",\"journal\":null"),
        }
        out.push_str(&format!(",\"resumed_trials\":{resumed}"));
        out.push_str(&format!(",\"seed\":{}", spec.seed));
        out.push_str(&format!(",\"scale\":{}", json::number(spec.scale)));
        match spec.jobs {
            Some(jobs) => out.push_str(&format!(",\"jobs\":{jobs}")),
            None => out.push_str(&format!(",\"jobs\":{}", self.inner.default_jobs)),
        }
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
        // Resource attribution: what this campaign cost the service.
        // Worker busy-seconds come from the pool profile the observer
        // mirrors into per-worker gauges; wall/queue-wait clocks are host
        // time (attribution only, never part of the deterministic report).
        let busy: f64 = snapshot
            .gauges
            .iter()
            .filter(|(key, _)| key.name == "worker_busy_seconds")
            .map(|(_, v)| *v)
            .sum();
        out.push_str(&format!(",\"worker_busy_seconds\":{}", json::number(busy)));
        let (queued_at, started_at, finished_at) = stamps;
        let queue_wait = started_at
            .unwrap_or_else(Instant::now)
            .saturating_duration_since(queued_at);
        out.push_str(&format!(
            ",\"queue_wait_seconds\":{}",
            json::number(queue_wait.as_secs_f64())
        ));
        match started_at {
            Some(started) => {
                let end = finished_at.unwrap_or_else(Instant::now);
                out.push_str(&format!(
                    ",\"wall_seconds\":{}",
                    json::number(end.saturating_duration_since(started).as_secs_f64())
                ));
            }
            None => out.push_str(",\"wall_seconds\":null"),
        }
        let journal_bytes = journal_dir
            .as_ref()
            .and_then(|dir| std::fs::metadata(journal_path(dir)).ok())
            .map(|meta| meta.len());
        match journal_bytes {
            Some(bytes) => out.push_str(&format!(",\"journal_bytes\":{bytes}")),
            None => out.push_str(",\"journal_bytes\":null"),
        }
        match seq {
            Some(seq) => out.push_str(&format!(",\"completed_seq\":{seq}")),
            None => out.push_str(",\"completed_seq\":null"),
        }
        match &error {
            Some(e) => out.push_str(&format!(",\"error\":{}", json::escape(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push('}');
        Some(out)
    }

    /// The finished job's bit-stable report (the
    /// [`golden_summary`] rendering — byte-identical to the same spec run
    /// solo through the CLI).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id, `409` while the job is not `done`.
    pub fn report_text(&self, id: u64) -> Result<String, ControlError> {
        let state = self.lock();
        let entry = state
            .jobs
            .get(&id)
            .ok_or_else(|| ControlError::simple(404, &format!("no job {id}")))?;
        match (&entry.report, entry.state) {
            (Some(report), _) => Ok(report.clone()),
            (None, s) => Err(ControlError::simple(
                409,
                &format!("job {id} is {}; no report yet", s.label()),
            )),
        }
    }

    /// The job's telemetry event stream so far, plus whether the job has
    /// reached a terminal state.
    pub fn events_snapshot(&self, id: u64) -> Option<(String, bool)> {
        self.events_since(id, 0)
    }

    /// The job's event stream past byte `offset`, plus whether the job
    /// has reached a terminal state. The state is read first, so a
    /// terminal job's bytes are complete.
    pub fn events_since(&self, id: u64, offset: usize) -> Option<(String, bool)> {
        self.events_window(id, offset, usize::MAX)
    }

    /// [`events_since`](Self::events_since), reading at most `max` bytes:
    /// the `/campaigns/{id}/events` poll, which passes the bytes it has
    /// already sent.
    pub(crate) fn events_window(
        &self,
        id: u64,
        offset: usize,
        max: usize,
    ) -> Option<(String, bool)> {
        let (sink, terminal) = {
            let state = self.lock();
            let entry = state.jobs.get(&id)?;
            (Arc::clone(&entry.sink), entry.state.terminal())
        };
        Some((sink.events.read(offset, max), terminal))
    }

    /// The job's convergence snapshot, tenant-labeled like the resource
    /// bill (the `/campaigns/{id}/convergence` endpoint): the private
    /// sink's statistical-plane document wrapped with the campaign id
    /// and submitting tenant.
    pub fn convergence_json(&self, id: u64) -> Option<String> {
        let (sink, tenant) = {
            let state = self.lock();
            let entry = state.jobs.get(&id)?;
            (Arc::clone(&entry.sink), entry.spec.tenant.clone())
        };
        let snapshot = sink.convergence_json();
        Some(format!(
            "{{\"campaign\":{id},\"tenant\":{},\"convergence\":{}}}\n",
            json::escape(&tenant),
            snapshot.trim_end(),
        ))
    }

    /// The job the legacy `/campaign` endpoint aliases to: the most
    /// recently started job, falling back to the newest submission.
    pub fn current(&self) -> Option<u64> {
        let state = self.lock();
        state
            .last_started
            .or_else(|| state.jobs.keys().next_back().copied())
    }

    /// Pauses or resumes job dispatch. Queued jobs stay queued while
    /// paused; running jobs are unaffected.
    pub fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.inner.wake.notify_all();
    }

    /// Whether the job exists and has reached a terminal state.
    pub fn is_terminal(&self, id: u64) -> bool {
        self.lock()
            .jobs
            .get(&id)
            .is_some_and(|entry| entry.state.terminal())
    }

    /// The job's lifecycle label (`queued`, `running`, `done`, ...), if
    /// the job exists.
    pub fn state_label(&self, id: u64) -> Option<&'static str> {
        self.lock().jobs.get(&id).map(|entry| entry.state.label())
    }

    /// The tenant that submitted the job, if the job exists. The access
    /// log uses this to attribute requests touching `/campaigns/{id}`.
    pub fn tenant_of(&self, id: u64) -> Option<String> {
        self.lock()
            .jobs
            .get(&id)
            .map(|entry| entry.spec.tenant.clone())
    }

    /// Jobs currently waiting in the fair queue.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Tenants with running (or cancelling) jobs and how many each has,
    /// sorted by tenant — the `/healthz` load-balancer view.
    pub fn running_by_tenant(&self) -> Vec<(String, u64)> {
        let state = self.lock();
        let mut per: BTreeMap<String, u64> = BTreeMap::new();
        for entry in state.jobs.values() {
            if matches!(entry.state, JobState::Running | JobState::Cancelling) {
                *per.entry(entry.spec.tenant.clone()).or_insert(0) += 1;
            }
        }
        per.into_iter().collect()
    }

    /// The `GET /tenants` document: per-tenant usage totals aggregated
    /// over every job the service has seen, sorted by tenant. Worker
    /// busy-seconds and trial counts come from each job's private sink;
    /// journal bytes from the job directories on disk.
    pub fn tenants_json(&self) -> String {
        let jobs: Vec<(String, JobState, Arc<TelemetrySink>, Option<PathBuf>)> = {
            let state = self.lock();
            state
                .jobs
                .values()
                .map(|entry| {
                    (
                        entry.spec.tenant.clone(),
                        entry.state,
                        Arc::clone(&entry.sink),
                        entry.journal_dir.clone(),
                    )
                })
                .collect()
        };
        #[derive(Default)]
        struct TenantTotals {
            queued: u64,
            running: u64,
            done: u64,
            cancelled: u64,
            failed: u64,
            trials: u64,
            busy_seconds: f64,
            journal_bytes: u64,
        }
        let mut per: BTreeMap<String, TenantTotals> = BTreeMap::new();
        for (tenant, job_state, sink, journal_dir) in jobs {
            let totals = per.entry(tenant).or_default();
            match job_state {
                JobState::Queued => totals.queued += 1,
                JobState::Running | JobState::Cancelling => totals.running += 1,
                JobState::Done => totals.done += 1,
                JobState::Cancelled => totals.cancelled += 1,
                JobState::Failed => totals.failed += 1,
            }
            let snapshot = sink.registry().snapshot();
            totals.trials += snapshot.counter_total("runs_total", &[]);
            totals.busy_seconds += snapshot
                .gauges
                .iter()
                .filter(|(key, _)| key.name == "worker_busy_seconds")
                .map(|(_, v)| *v)
                .sum::<f64>();
            totals.journal_bytes += journal_dir
                .as_ref()
                .and_then(|dir| std::fs::metadata(journal_path(dir)).ok())
                .map_or(0, |meta| meta.len());
        }
        let docs: Vec<String> = per
            .into_iter()
            .map(|(tenant, t)| {
                format!(
                    "{{\"tenant\":{},\"queued\":{},\"running\":{},\"done\":{},\
                     \"cancelled\":{},\"failed\":{},\"trials\":{},\
                     \"worker_busy_seconds\":{},\"journal_bytes\":{}}}",
                    json::escape(&tenant),
                    t.queued,
                    t.running,
                    t.done,
                    t.cancelled,
                    t.failed,
                    t.trials,
                    json::number(t.busy_seconds),
                    t.journal_bytes,
                )
            })
            .collect();
        format!("[{}]", docs.join(","))
    }

    /// Begins a graceful drain: no new submissions are accepted, queued
    /// jobs stay queued, and each runner exits after its current
    /// campaign. Unblocks [`wait_shutdown`](Self::wait_shutdown).
    pub fn request_shutdown(&self) {
        self.lock().shutdown = true;
        self.inner.wake.notify_all();
    }

    /// Blocks until [`request_shutdown`](Self::request_shutdown) is
    /// called (or `timeout` elapses, when given). Returns whether
    /// shutdown was requested — the `repro serve` main thread parks here.
    pub fn wait_shutdown(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut state = self.lock();
        while !state.shutdown {
            state = match deadline {
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.inner
                        .wake
                        .wait_timeout(state, deadline - now)
                        .expect("control state poisoned")
                        .0
                }
                None => self.inner.wake.wait(state).expect("control state poisoned"),
            };
        }
        true
    }

    /// Waits until the queue is empty and no job is running, or `timeout`
    /// elapses. Returns whether the plane went idle. (Primarily for
    /// tests; the HTTP path polls per-job status instead.)
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let busy = !state.queue.is_empty()
                || state
                    .jobs
                    .values()
                    .any(|e| matches!(e.state, JobState::Running | JobState::Cancelling));
            if !busy {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .inner
                .wake
                .wait_timeout(state, deadline - now)
                .expect("control state poisoned")
                .0;
        }
    }

    /// Joins the runner pool after a shutdown request. In-flight
    /// campaigns finish; queued jobs remain queued (and resumable via
    /// their journals on a later server).
    pub fn drain(&self) {
        self.request_shutdown();
        let handles: Vec<JoinHandle<()>> = self
            .runners
            .lock()
            .expect("runner handles poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        self.inner.state.lock().expect("control state poisoned")
    }

    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        fleet_count(&self.inner, name, labels, 1);
    }
}

/// Bumps a counter on the server-level sink, when one is attached.
fn fleet_count(inner: &ControlInner, name: &str, labels: &[(&str, &str)], by: u64) {
    if let Some(sink) = inner
        .metrics
        .lock()
        .expect("metrics cell poisoned")
        .as_ref()
    {
        sink.add_counter(name, labels, by);
    }
}

/// Sets a gauge on the server-level sink, when one is attached.
fn fleet_gauge(inner: &ControlInner, name: &str, labels: &[(&str, &str)], value: f64) {
    if let Some(sink) = inner
        .metrics
        .lock()
        .expect("metrics cell poisoned")
        .as_ref()
    {
        sink.set_gauge(name, labels, value);
    }
}

/// Records a histogram observation on the server-level sink, when one is
/// attached.
fn fleet_observe(inner: &ControlInner, name: &str, labels: &[(&str, &str)], value: f64) {
    if let Some(sink) = inner
        .metrics
        .lock()
        .expect("metrics cell poisoned")
        .as_ref()
    {
        sink.observe_histogram(name, labels, value);
    }
}

/// Refreshes the `tenant_completed_share{tenant}` fairness series: each
/// tenant's fraction of all jobs that have reached a terminal state. A
/// fair scheduler keeps concurrently-active tenants' shares converging
/// instead of letting one tenant starve the rest.
fn refresh_completed_share(inner: &ControlInner) {
    let shares: Vec<(String, f64)> = {
        let state = inner.state.lock().expect("control state poisoned");
        let mut per: BTreeMap<String, u64> = BTreeMap::new();
        for entry in state.jobs.values() {
            if entry.state.terminal() {
                *per.entry(entry.spec.tenant.clone()).or_insert(0) += 1;
            }
        }
        let total: u64 = per.values().sum();
        per.into_iter()
            .map(|(tenant, n)| (tenant, n as f64 / total.max(1) as f64))
            .collect()
    };
    for (tenant, share) in shares {
        fleet_gauge(
            inner,
            "tenant_completed_share",
            &[("tenant", &tenant)],
            share,
        );
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.drain();
    }
}

fn runner_loop(inner: &Arc<ControlInner>) {
    loop {
        let (job, tenant, queue_wait, depth) = {
            let mut state = inner.state.lock().expect("control state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if !state.paused {
                    if let Some((tenant, id)) = state.queue.pop() {
                        let depth = state.queue.len();
                        let now = Instant::now();
                        let entry = state.jobs.get_mut(&id).expect("queued job exists");
                        entry.state = JobState::Running;
                        entry.started_at = Some(now);
                        let wait = now.saturating_duration_since(entry.queued_at);
                        state.last_started = Some(id);
                        break (id, tenant, wait, depth);
                    }
                }
                state = inner.wake.wait(state).expect("control state poisoned");
            }
        };
        fleet_gauge(inner, "queue_depth", &[], depth as f64);
        fleet_count(
            inner,
            "tenant_jobs_total",
            &[("tenant", &tenant), ("phase", "started")],
            1,
        );
        fleet_observe(
            inner,
            "queue_wait_seconds",
            &[("tenant", &tenant)],
            queue_wait.as_secs_f64(),
        );
        run_job(inner, job);
    }
}

/// What one job execution produced.
enum JobOutcome {
    Done(String),
    Cancelled,
    Failed(String),
}

fn run_job(inner: &Arc<ControlInner>, id: u64) {
    let (spec, cancel, sink, journal_dir, poison) = {
        let state = inner.state.lock().expect("control state poisoned");
        let entry = state.jobs.get(&id).expect("running job exists");
        (
            entry.spec.clone(),
            entry.cancel.clone(),
            Arc::clone(&entry.sink),
            entry.journal_dir.clone(),
            entry.poison,
        )
    };
    let jobs = spec.jobs.map_or(inner.default_jobs, |j| j as usize);
    let mut resumed_trials = 0u64;
    // A panicking campaign must not take the runner thread down with it:
    // catch, quarantine as `failed`, move on to the next tenant's job.
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<JobOutcome, String> {
        if poison {
            panic!("poison job {id}: injected failure");
        }
        let campaign = Campaign::new(spec.config());
        sink.set_campaign_status(|status| {
            status.platform = Some(spec.platform.name.clone());
            status.config_fingerprint = Some(config_fingerprint(campaign.config()));
        });
        let mut observer = sink.observer();
        let (mut writer, recovered) = match &journal_dir {
            Some(dir) => {
                let (writer, recovered) = start_or_resume(dir, campaign.config())
                    .map_err(|e| format!("journal at {}: {e}", dir.display()))?;
                resumed_trials = recovered.as_ref().map_or(0, |r| r.trials_recovered());
                sink.set_campaign_status(|status| {
                    status.journal = Some(journal_path(dir).display().to_string());
                    status.resumed_trials = resumed_trials;
                });
                (Some(writer), recovered)
            }
            None => (None, None),
        };
        let outcome = campaign.try_run(
            CampaignRunOptions {
                jobs,
                retry: RetryPolicy::standard(),
                journal: writer.as_mut(),
                recovered: recovered.as_ref(),
                cancel: Some(cancel.clone()),
            },
            &mut observer,
        );
        drop(writer); // durable sync before the status flips
        Ok(match outcome {
            Ok(report) => JobOutcome::Done(golden_summary(&report)),
            Err(RunError::Cancelled) => JobOutcome::Cancelled,
            Err(RunError::Journal(e)) => JobOutcome::Failed(format!("run journal: {e}")),
        })
    }));
    let outcome = match caught {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(io_error)) => JobOutcome::Failed(io_error),
        Err(panic) => {
            let reason = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            JobOutcome::Failed(format!("campaign panicked: {reason}"))
        }
    };
    // Drop the run's spans next to its journal and event stream so `repro
    // inspect` can do offline forensics on service-submitted campaigns
    // too. Best-effort and observe-only: these files feed no engine path,
    // and a full disk must not flip a finished campaign to failed.
    sink.events.close();
    if let Some(dir) = &journal_dir {
        let _ = std::fs::create_dir_all(dir);
        let spans = sink.tracer().to_jsonl();
        if !spans.is_empty() {
            let _ = std::fs::write(dir.join("spans.jsonl"), spans);
        }
    }
    let (outcome_label, tenant, run_seconds, quarantined) = {
        let mut state = inner.state.lock().expect("control state poisoned");
        let seq = state.next_completed;
        state.next_completed += 1;
        let entry = state.jobs.get_mut(&id).expect("running job exists");
        entry.resumed_trials = resumed_trials;
        entry.completed_seq = Some(seq);
        let now = Instant::now();
        entry.finished_at = Some(now);
        let run_seconds = entry.started_at.map_or(0.0, |started| {
            now.saturating_duration_since(started).as_secs_f64()
        });
        let label = match outcome {
            JobOutcome::Done(report) => {
                entry.report = Some(report);
                entry.state = JobState::Done;
                "done"
            }
            JobOutcome::Cancelled => {
                entry.state = JobState::Cancelled;
                "cancelled"
            }
            JobOutcome::Failed(error) => {
                entry.error = Some(error);
                entry.state = JobState::Failed;
                "failed"
            }
        };
        entry.sink.set_campaign_status(|status| status.done = true);
        let quarantined = entry
            .sink
            .registry()
            .snapshot()
            .counter_total("quarantined_trials", &[]);
        (label, entry.spec.tenant.clone(), run_seconds, quarantined)
    };
    fleet_count(
        inner,
        "campaigns_completed_total",
        &[("outcome", outcome_label)],
        1,
    );
    fleet_count(
        inner,
        "tenant_jobs_total",
        &[("tenant", &tenant), ("phase", "completed")],
        1,
    );
    fleet_observe(
        inner,
        "job_run_seconds",
        &[("tenant", &tenant)],
        run_seconds,
    );
    if quarantined > 0 {
        fleet_count(
            inner,
            "tenant_quarantined_trials_total",
            &[("tenant", &tenant)],
            quarantined,
        );
    }
    refresh_completed_share(inner);
    inner.wake.notify_all();
}

#[cfg(test)]
mod tests {
    use serscale_types::json::JsonValue;

    use super::*;

    fn tiny_spec(tenant: &str, seed: u64) -> CampaignSpec {
        let body = format!(
            "{{\"tenant\":{},\"seed\":{seed},\"scale\":0.001}}",
            json::escape(tenant)
        );
        parse_campaign(&body).expect("valid spec")
    }

    /// The field and reason of the 400 a submission of `body` is refused
    /// with.
    fn rejection(control: &ControlPlane, body: &str) -> (String, String) {
        let err = control.submit(body).expect_err(body);
        assert_eq!(err.status, 400, "{body} → {}", err.body);
        let doc = json::parse(&err.body).expect("error bodies are JSON");
        let member = |key: &str| {
            doc.get("error")
                .and_then(|e| e.get(key))
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{body} → {} has no {key}", err.body))
                .to_string()
        };
        (member("field"), member("reason"))
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = tiny_spec("acme", 7);
        let rendered = spec.to_json();
        let reparsed = parse_campaign(&rendered).expect("normalized spec reparses");
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let control = ControlPlane::start(ControlPlaneOptions::default());
        let (field, reason) = rejection(&control, "{\"sclae\":0.5}");
        assert_eq!(field, "sclae");
        assert!(reason.contains("known fields"), "{reason}");
    }

    #[test]
    fn non_object_bodies_are_rejected() {
        let control = ControlPlane::start(ControlPlaneOptions::default());
        for body in ["[1,2]", "42", "\"hi\"", "null", "{nope", ""] {
            assert_eq!(rejection(&control, body).0, "body", "{body}");
        }
    }

    #[test]
    fn jobs_run_to_done_and_report_matches_solo() {
        let control = ControlPlane::start(ControlPlaneOptions::default());
        let spec = tiny_spec("t", 11);
        let id = control.submit_spec(spec.clone()).expect("queued");
        assert!(control.wait_idle(Duration::from_secs(60)), "job finished");
        let report = control.report_text(id).expect("done");
        let solo = golden_summary(&Campaign::new(spec.config()).run_parallel(1));
        assert_eq!(report, solo, "service report must equal the solo run");
        let status = control.status_json(id).expect("status");
        let doc = json::parse(&status).expect("status parses");
        assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("done"));
        assert_eq!(doc.get("done"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_poison_jobs_quarantine() {
        // One runner, paused: build a deterministic backlog.
        let control = ControlPlane::start(ControlPlaneOptions {
            max_concurrent: 1,
            start_paused: true,
            ..Default::default()
        });
        let poison = control.submit_poison("a").expect("poison queued");
        let a = control.submit_spec(tiny_spec("a", 1)).expect("queued");
        let b = control.submit_spec(tiny_spec("b", 2)).expect("queued");
        let doomed = control.submit_spec(tiny_spec("b", 3)).expect("queued");
        let cancelled = control.cancel(doomed).expect("cancel queued job");
        assert!(
            cancelled.contains("\"status\":\"cancelled\""),
            "{cancelled}"
        );
        control.set_paused(false);
        assert!(control.wait_idle(Duration::from_secs(120)), "drained");
        // The poison job failed; everyone else's work still completed.
        let poison_status = control.status_json(poison).expect("status");
        assert!(
            poison_status.contains("\"status\":\"failed\""),
            "{poison_status}"
        );
        assert!(
            poison_status.contains("injected failure"),
            "{poison_status}"
        );
        for id in [a, b] {
            assert!(control.report_text(id).is_ok(), "job {id} finished");
        }
        assert!(
            control.report_text(doomed).is_err(),
            "cancelled job has no report"
        );
    }

    #[test]
    fn two_tenants_complete_within_the_fairness_bound() {
        // 2 tenants × k jobs on one runner, staged while paused: strict
        // round-robin dispatch means completions alternate a,b,a,b...
        // even though tenant a submitted its whole batch first.
        let k = 3;
        let control = ControlPlane::start(ControlPlaneOptions {
            max_concurrent: 1,
            start_paused: true,
            ..Default::default()
        });
        let mut ids = Vec::new();
        for i in 0..k {
            ids.push((control.submit_spec(tiny_spec("a", i)).expect("queued"), "a"));
        }
        for i in 0..k {
            ids.push((control.submit_spec(tiny_spec("b", i)).expect("queued"), "b"));
        }
        control.set_paused(false);
        assert!(control.wait_idle(Duration::from_secs(300)), "drained");
        let mut order: Vec<(u64, &str)> = ids
            .iter()
            .map(|&(id, tenant)| {
                let status = control.status_json(id).expect("status");
                let doc = json::parse(&status).expect("parses");
                let seq =
                    doc.get("completed_seq")
                        .and_then(JsonValue::as_f64)
                        .expect("terminal jobs carry a completion seq") as u64;
                (seq, tenant)
            })
            .collect();
        order.sort_unstable();
        let tenants: Vec<&str> = order.iter().map(|&(_, t)| t).collect();
        // Fairness bound for 2 tenants: no tenant completes twice in a row
        // while the other still has queued work — i.e. strict alternation.
        assert_eq!(tenants, vec!["a", "b", "a", "b", "a", "b"], "{order:?}");
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let control = ControlPlane::start(ControlPlaneOptions::default());
        control.request_shutdown();
        let err = control
            .submit_spec(tiny_spec("t", 1))
            .expect_err("draining");
        assert_eq!(err.status, 503);
        control.drain();
    }

    #[test]
    fn resume_is_platform_locked() {
        // An X-Gene journal must not resume as a Zynq campaign: the
        // platform is part of the config fingerprint the journal is
        // locked to.
        let state_dir = std::env::temp_dir().join(format!(
            "serscale-control-platform-lock-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir).expect("state dir");
        let control = ControlPlane::start(ControlPlaneOptions {
            state_dir: Some(state_dir.clone()),
            start_paused: true,
            ..Default::default()
        });
        let xgene = control.submit_spec(tiny_spec("t", 5)).expect("queued");
        control.cancel(xgene).expect("cancel queued job");
        let mut zynq = parse_campaign(
            "{\"tenant\":\"t\",\"seed\":5,\"scale\":0.001,\"platform\":\"zynq-mpsoc\"}",
        )
        .expect("valid spec");
        zynq.resume = Some(xgene);
        let err = control.submit_spec(zynq).expect_err("platform mismatch");
        assert_eq!(err.status, 409, "{}", err.body);
        assert!(err.body.contains("fingerprint-locked"), "{}", err.body);
        // The same spec on the same platform is accepted.
        let mut again = tiny_spec("t", 5);
        again.resume = Some(xgene);
        control.submit_spec(again).expect("same platform resumes");
        control.drain();
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn a_restart_numbers_jobs_after_the_old_directories() {
        // A second service on a used state directory must not reopen
        // job-1: with the same spec it would silently replay the old
        // journal, with another it would fail on the journal header.
        let state_dir =
            std::env::temp_dir().join(format!("serscale-control-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir).expect("state dir");
        let options = || ControlPlaneOptions {
            state_dir: Some(state_dir.clone()),
            ..Default::default()
        };
        let first = ControlPlane::start(options());
        let old = first.submit_spec(tiny_spec("t", 301)).expect("queued");
        assert!(first.wait_idle(Duration::from_secs(60)));
        first.drain();
        let old_dir = state_dir.join(format!("job-{old}"));
        let snapshot = |dir: &Path| -> BTreeMap<PathBuf, Vec<u8>> {
            std::fs::read_dir(dir)
                .expect("old job directory")
                .map(|entry| {
                    let path = entry.expect("entry").path();
                    let bytes = std::fs::read(&path).expect("old job file");
                    (path, bytes)
                })
                .collect()
        };
        let before = snapshot(&old_dir);
        assert!(!before.is_empty(), "the old job left a journal");

        for seed in [303, 301] {
            let restarted = ControlPlane::start(options());
            let id = restarted.submit_spec(tiny_spec("t", seed)).expect("queued");
            assert!(id > old, "seed {seed}: job {id} reuses an old id");
            assert!(restarted.wait_idle(Duration::from_secs(60)));
            assert_eq!(restarted.state_label(id), Some("done"), "seed {seed}");
            let status = restarted.status_json(id).expect("status");
            assert!(status.contains("\"resumed_trials\":0"), "{status}");
            assert!(state_dir.join(format!("job-{id}")).is_dir());
            restarted.drain();
            assert_eq!(snapshot(&old_dir), before, "seed {seed} touched job-{old}");
        }
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn resume_validates_its_target() {
        let control = ControlPlane::start(ControlPlaneOptions::default());
        let mut spec = tiny_spec("t", 5);
        spec.resume = Some(999);
        let err = control.submit_spec(spec).expect_err("unknown target");
        assert_eq!(err.status, 409);
        // A completed (not cancelled) job is not resumable either.
        let done = control.submit_spec(tiny_spec("t", 6)).expect("queued");
        assert!(control.wait_idle(Duration::from_secs(60)));
        let mut spec = tiny_spec("t", 6);
        spec.resume = Some(done);
        let err = control
            .submit_spec(spec)
            .expect_err("done is not resumable");
        assert_eq!(err.status, 409, "{}", err.body);
    }
}
