//! A deterministic worker pool for embarrassingly parallel shards.
//!
//! The campaign engine splits a session into independent trials and a
//! voltage sweep into independent grid points; this module provides the
//! pool that executes such shards across threads while keeping the
//! *results* exactly what the sequential code would have produced:
//!
//! * **Order canonicalization** — work is dispatched as contiguous
//!   *chunks* of input items, each tagged with its queue index, and the
//!   output vector is reassembled in input order, so callers can reduce
//!   left-to-right exactly as the sequential loop does. Workers claim
//!   chunks through one shared atomic index, and chunking keeps that
//!   claim negligible per item even for microsecond shards.
//! * **No shared mutable state** — each worker builds its own scratch
//!   state (e.g. a [`BenchmarkRunner`](crate::runner::BenchmarkRunner)
//!   with its strike buffers and envelope caches) via a factory closure,
//!   and hands its outputs back only when it is joined.
//! * **Panic isolation** — a panicking shard does not tear down the pool
//!   mid-flight. Workers stop claiming new chunks, the in-flight chunks
//!   finish, every worker is joined, and only then is the panic of the
//!   earliest failing chunk resumed on the caller's thread, so the
//!   process-visible behavior matches the sequential loop panicking at
//!   that shard.
//!
//! Determinism across thread counts is *not* the pool's job alone: shards
//! must not read ambient state that depends on scheduling. The campaign
//! side guarantees that by deriving each trial's RNG with
//! [`SimRng::stream`](serscale_stats::SimRng::stream), which is a pure
//! function of (seed, session, trial).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one pool worker did during a [`par_map_with_profile`] call:
/// observe-only utilization accounting for the live monitoring plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Host nanoseconds this worker spent inside the work closure.
    pub busy_nanos: u64,
    /// Shards (input items) this worker claimed, counted across every
    /// chunk it took (first come, first served makes the split uneven;
    /// the skew *is* the signal).
    pub shards: u64,
}

/// Per-worker utilization for one pool invocation. Produced alongside the
/// outputs by [`par_map_with_profile`]; purely host-clock telemetry, so it
/// varies run to run and must never feed back into the simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolProfile {
    /// One report per worker, in worker-index order (a single entry for
    /// the inline `jobs == 1` path).
    pub workers: Vec<WorkerReport>,
    /// Host wall nanoseconds of the whole invocation (split → drain).
    pub wall_nanos: u64,
}

impl PoolProfile {
    /// A profile for work that ran inline on the calling thread.
    pub fn inline(wall_nanos: u64, shards: u64) -> Self {
        PoolProfile {
            workers: vec![WorkerReport {
                busy_nanos: wall_nanos,
                shards,
            }],
            wall_nanos,
        }
    }

    /// The longest single-worker busy time — the invocation's critical
    /// path. Wall time below this bound is unreachable at any worker
    /// count.
    pub fn critical_path_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).max().unwrap_or(0)
    }

    /// Total busy nanoseconds summed across workers.
    pub fn busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }

    /// Total idle nanoseconds: wall time not spent in the work closure,
    /// summed across workers (thread start-up, claims, merge stalls).
    pub fn idle_nanos(&self) -> u64 {
        let span = self.wall_nanos.saturating_mul(self.workers.len() as u64);
        span.saturating_sub(self.busy_nanos())
    }

    /// Busy fraction of the pool's total worker-time, in `[0, 1]`
    /// (1.0 when the profile is empty, matching a no-op pool).
    pub fn utilization(&self) -> f64 {
        let span = self.wall_nanos.saturating_mul(self.workers.len() as u64);
        if span == 0 {
            1.0
        } else {
            (self.busy_nanos() as f64 / span as f64).min(1.0)
        }
    }
}

/// Why one supervised attempt failed (see [`call_caught`] and
/// [`call_with_deadline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptFailure {
    /// The attempt panicked; the payload rendered as text.
    Panicked(String),
    /// The attempt exceeded its host-time budget and was abandoned.
    TimedOut,
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::Panicked(message) => write!(f, "panicked: {message}"),
            AttemptFailure::TimedOut => write!(f, "timed out"),
        }
    }
}

/// Renders a panic payload as text (the common `&str` / `String` cases;
/// anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs a closure, converting a panic into an [`AttemptFailure`] instead
/// of unwinding — the supervision primitive behind trial retries.
///
/// # Errors
///
/// Returns [`AttemptFailure::Panicked`] when the closure panics.
pub fn call_caught<T>(f: impl FnOnce() -> T) -> Result<T, AttemptFailure> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| AttemptFailure::Panicked(panic_message(payload.as_ref())))
}

/// Runs a closure on a helper thread with a host-time budget. A closure
/// that finishes in time returns its value; one that panics reports
/// [`AttemptFailure::Panicked`]; one that exceeds the budget reports
/// [`AttemptFailure::TimedOut`] and is *abandoned* — the detached helper
/// thread keeps running until its closure returns, so callers must hand
/// over self-contained work (the trial runner passes an owned runner
/// clone, never shared state).
///
/// A zero budget fails immediately without launching the attempt, which
/// keeps zero-timeout behavior deterministic (useful in tests).
///
/// # Errors
///
/// Returns [`AttemptFailure::TimedOut`] or [`AttemptFailure::Panicked`]
/// as described above.
pub fn call_with_deadline<T: Send + 'static>(
    budget: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, AttemptFailure> {
    if budget.is_zero() {
        return Err(AttemptFailure::TimedOut);
    }
    let (tx, rx) = std::sync::mpsc::sync_channel::<Result<T, AttemptFailure>>(1);
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(f))
            .map_err(|payload| AttemptFailure::Panicked(panic_message(payload.as_ref())));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(budget) {
        Ok(result) => result,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(AttemptFailure::TimedOut),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(AttemptFailure::Panicked(
            "attempt thread vanished".to_string(),
        )),
    }
}

/// The bounded exponential backoff before retry `attempt` (0-based):
/// `base × 2^attempt`, capped at one second. Host time only — the
/// simulated clock never sees it.
pub fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    const CAP: Duration = Duration::from_secs(1);
    base.saturating_mul(1u32 << attempt.min(10)).min(CAP)
}

/// The host's hardware thread count, probed once per process.
fn host_parallelism() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// How many worker threads a `jobs` request actually spawns: `jobs`
/// capped at the host's hardware threads.
///
/// The engine's work is CPU-bound, so threads beyond the core count only
/// add context-switch overhead — and the determinism contract
/// makes `jobs` a pure throughput knob (the report is bit-identical at
/// any value), so capping the *execution substrate* never changes a
/// result. Wave planning still uses the requested `jobs`.
pub fn effective_workers(jobs: usize) -> usize {
    jobs.min(host_parallelism())
}

/// Maps `work` over `items` on up to `jobs` worker threads, returning
/// outputs in input order.
///
/// Each worker calls `make_state()` once and threads the resulting scratch
/// value through every shard it claims. This is how the session driver
/// gives each worker its own [`BenchmarkRunner`](crate::runner) — and with
/// it the runner's per-worker scratch arenas (strike buffers, cached rate
/// envelopes), which amortize across every trial the worker executes
/// without any cross-thread sharing.
///
/// The thread count actually spawned is [`effective_workers`]`(jobs)`:
/// oversubscribing a CPU-bound pool past the core count only adds
/// overhead, and the determinism contract guarantees the outputs don't
/// depend on the worker count. When that leaves a single worker (or there
/// are fewer than two items) everything runs inline on the calling
/// thread — the reference path the determinism tests compare against.
///
/// Work is dispatched in contiguous *chunks* of several shards, not one
/// shard at a time, so the per-claim cost amortizes away for the
/// microsecond-scale trials the campaign engine feeds through here.
///
/// # Panics
///
/// Panics if `jobs == 0`, and re-raises the first shard panic after the
/// pool has drained (see module docs).
pub fn par_map_with<S, I, O, M, F>(jobs: usize, items: Vec<I>, make_state: M, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> O + Sync,
{
    par_map_with_profile(jobs, items, make_state, work).0
}

/// [`par_map_with`] that also reports per-worker utilization: the outputs
/// (identical, bit for bit, to the unprofiled call) plus a
/// [`PoolProfile`] of busy/claim accounting per worker. Profiling is
/// observe-only — timestamps are taken around the work closure and never
/// influence scheduling, ordering or the outputs.
///
/// # Panics
///
/// Panics if `jobs == 0`, and re-raises shard panics like
/// [`par_map_with`].
pub fn par_map_with_profile<S, I, O, M, F>(
    jobs: usize,
    items: Vec<I>,
    make_state: M,
    work: F,
) -> (Vec<O>, PoolProfile)
where
    I: Send,
    O: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> O + Sync,
{
    assert!(jobs > 0, "a pool needs at least one worker");
    let workers = effective_workers(jobs).min(items.len());
    if workers <= 1 || items.len() < 2 {
        let clock = Instant::now();
        let mut state = make_state();
        let shards = items.len() as u64;
        let outputs: Vec<O> = items
            .into_iter()
            .map(|item| work(&mut state, item))
            .collect();
        let wall = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        return (outputs, PoolProfile::inline(wall, shards));
    }
    pooled_map(workers, items, make_state, work)
}

/// What one pool worker hands back when the pool drains: the outputs
/// of the chunks it claimed (tagged with their chunk index), its
/// utilization report, and the panic of the chunk it died on, if any.
struct WorkerHaul<O> {
    chunks: Vec<(usize, Vec<O>)>,
    report: WorkerReport,
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
}

/// The threaded pool behind [`par_map_with_profile`], with an exact
/// worker count (no host-parallelism clamp — tests use this to exercise
/// the threaded path regardless of the machine they run on).
fn pooled_map<S, I, O, M, F>(
    workers: usize,
    items: Vec<I>,
    make_state: M,
    work: F,
) -> (Vec<O>, PoolProfile)
where
    I: Send,
    O: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> O + Sync,
{
    let clock = Instant::now();
    let total = items.len();
    let workers = workers.min(total).max(1);
    // Contiguous chunks, roughly four per worker: large enough that the
    // per-chunk claim amortizes across many shards, small enough that the
    // end-of-queue imbalance stays a fraction of one worker's share.
    let chunk_size = total.div_ceil(workers * 4).max(1);
    let chunks: Vec<Mutex<Option<Vec<I>>>> = {
        let mut iter = items.into_iter();
        let mut chunks = Vec::with_capacity(total.div_ceil(chunk_size));
        loop {
            let chunk: Vec<I> = iter.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(Mutex::new(Some(chunk)));
        }
        chunks
    };
    // Workers claim chunks in queue order through one shared index; each
    // index is claimed exactly once, so every chunk's lock is uncontended.
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    let hauls: Vec<std::thread::Result<WorkerHaul<O>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (chunks, next, abort) = (&chunks, &next, &abort);
                let (make_state, work) = (&make_state, &work);
                scope.spawn(move || {
                    let mut state = make_state();
                    let mut haul = WorkerHaul {
                        chunks: Vec::new(),
                        report: WorkerReport::default(),
                        panic: None,
                    };
                    while !abort.load(Ordering::Relaxed) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = chunks.get(index) else {
                            break;
                        };
                        let chunk = slot
                            .lock()
                            .expect("only the claiming worker ever locks a chunk")
                            .take()
                            .expect("each chunk index is claimed once");
                        let shards = chunk.len() as u64;
                        let chunk_clock = Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            chunk
                                .into_iter()
                                .map(|item| work(&mut state, item))
                                .collect::<Vec<O>>()
                        }));
                        haul.report.busy_nanos = haul.report.busy_nanos.saturating_add(
                            u64::try_from(chunk_clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                        haul.report.shards += shards;
                        match outcome {
                            Ok(outputs) => haul.chunks.push((index, outputs)),
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                haul.panic = Some((index, payload));
                                break;
                            }
                        }
                    }
                    haul
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });

    // Every worker has exited, so the pool has drained. Re-raise the
    // panic of the earliest failing chunk (a worker that died outside a
    // chunk, e.g. in `make_state`, counts as failing first).
    let mut slots: Vec<Option<Vec<O>>> = (0..chunks.len()).map(|_| None).collect();
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    let mut reports = Vec::with_capacity(workers);
    for haul in hauls {
        let (report, panic) = match haul {
            Ok(haul) => {
                for (index, outputs) in haul.chunks {
                    slots[index] = Some(outputs);
                }
                (haul.report, haul.panic)
            }
            Err(payload) => (WorkerReport::default(), Some((0, payload))),
        };
        reports.push(report);
        if let Some((index, payload)) = panic {
            if first_panic.as_ref().is_none_or(|(first, _)| index < *first) {
                first_panic = Some((index, payload));
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    let outputs = slots
        .into_iter()
        .flat_map(|slot| slot.expect("pool drained without a panic, so every chunk reported"))
        .collect();
    let profile = PoolProfile {
        workers: reports,
        wall_nanos: u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    (outputs, profile)
}

/// [`par_map_with`] for stateless shards.
///
/// # Panics
///
/// Panics if `jobs == 0`, and re-raises shard panics like
/// [`par_map_with`].
pub fn par_map<I, O, F>(jobs: usize, items: Vec<I>, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    par_map_with(jobs, items, || (), |(), item| work(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_input_order() {
        for jobs in [1, 2, 3, 8] {
            let got = par_map(jobs, (0..257u64).collect(), |x| x * x);
            let want: Vec<u64> = (0..257).map(|x| x * x).collect();
            assert_eq!(got, want, "jobs = {jobs}");
        }
    }

    #[test]
    fn threaded_pool_preserves_order_for_awkward_chunk_splits() {
        // Force the threaded path (the public API may inline on small
        // hosts) with totals that don't divide evenly into chunks.
        for workers in [2usize, 3, 8] {
            for total in [2u64, 7, 257, 1000] {
                let (got, _) = pooled_map(workers, (0..total).collect(), || (), |(), x| x * x);
                let want: Vec<u64> = (0..total).map(|x| x * x).collect();
                assert_eq!(got, want, "workers = {workers}, total = {total}");
            }
        }
    }

    #[test]
    fn effective_workers_caps_at_host_parallelism() {
        assert_eq!(effective_workers(1), 1);
        let cap = effective_workers(usize::MAX);
        assert!(cap >= 1);
        assert_eq!(effective_workers(cap + 7), cap);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(4, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn worker_state_is_built_per_worker_and_reused() {
        let factories = AtomicUsize::new(0);
        let workers = 3;
        let (out, _) = pooled_map(
            workers,
            (0..100u64).collect(),
            || {
                factories.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |calls, item| {
                *calls += 1;
                item
            },
        );
        assert_eq!(out.len(), 100);
        let built = factories.load(Ordering::Relaxed);
        assert!(
            built <= workers,
            "at most one state per worker, got {built}"
        );
    }

    #[test]
    fn shard_panic_propagates_after_drain() {
        let caught = catch_unwind(|| {
            pooled_map(
                4,
                (0..64u32).collect(),
                || (),
                |(), x| {
                    if x == 13 {
                        panic!("shard 13 exploded");
                    }
                    x
                },
            )
        });
        let payload = caught.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("shard 13"), "got: {message}");
    }

    #[test]
    fn call_caught_reports_the_panic_message() {
        assert_eq!(call_caught(|| 41 + 1), Ok(42));
        let failure =
            call_caught(|| -> u32 { panic!("boom at trial 7") }).expect_err("panic must be caught");
        assert_eq!(failure, AttemptFailure::Panicked("boom at trial 7".into()));
    }

    #[test]
    fn deadline_lets_fast_work_through_and_abandons_slow_work() {
        let fast = call_with_deadline(Duration::from_secs(30), || 7u32);
        assert_eq!(fast, Ok(7));
        let slow = call_with_deadline(Duration::from_millis(5), || {
            std::thread::sleep(Duration::from_secs(10));
            0u32
        });
        assert_eq!(slow, Err(AttemptFailure::TimedOut));
    }

    #[test]
    fn zero_deadline_fails_without_running_the_closure() {
        // `f` must be 'static for the helper thread, so probe via a static
        // sentinel: the closure would flip the flag if it ever ran.
        static TOUCHED: AtomicBool = AtomicBool::new(false);
        let out = call_with_deadline(Duration::ZERO, || {
            TOUCHED.store(true, Ordering::Relaxed);
            1u32
        });
        assert_eq!(out, Err(AttemptFailure::TimedOut));
        assert!(!TOUCHED.load(Ordering::Relaxed), "closure must not launch");
    }

    #[test]
    fn deadline_surfaces_panics_from_the_helper_thread() {
        let out = call_with_deadline(Duration::from_secs(30), || -> u32 {
            panic!("helper exploded")
        });
        assert_eq!(out, Err(AttemptFailure::Panicked("helper exploded".into())));
    }

    #[test]
    fn backoff_doubles_and_saturates_at_one_second() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(base, 0), Duration::from_millis(10));
        assert_eq!(backoff_delay(base, 1), Duration::from_millis(20));
        assert_eq!(backoff_delay(base, 3), Duration::from_millis(80));
        assert_eq!(backoff_delay(base, 9), Duration::from_secs(1));
        assert_eq!(backoff_delay(base, 63), Duration::from_secs(1));
        assert_eq!(backoff_delay(Duration::ZERO, 5), Duration::ZERO);
    }

    #[test]
    fn profile_accounts_for_every_shard() {
        let work = |(): &mut (), x: u64| {
            // A little real work so busy time is nonzero.
            (0..50u64).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        for jobs in [1usize, 3, 8] {
            let (out, profile) = par_map_with_profile(jobs, (0..200u64).collect(), || (), work);
            assert_eq!(out.len(), 200);
            let shards: u64 = profile.workers.iter().map(|w| w.shards).sum();
            assert_eq!(shards, 200, "jobs = {jobs}");
            assert!(!profile.workers.is_empty() && profile.workers.len() <= jobs);
            assert!(profile.critical_path_nanos() <= profile.busy_nanos());
            assert!((0.0..=1.0).contains(&profile.utilization()));
        }
        for workers in [3usize, 8] {
            let (out, profile) = pooled_map(workers, (0..200u64).collect(), || (), work);
            assert_eq!(out.len(), 200);
            let shards: u64 = profile.workers.iter().map(|w| w.shards).sum();
            assert_eq!(shards, 200, "workers = {workers}");
            assert_eq!(profile.workers.len(), workers);
            assert!(profile.critical_path_nanos() <= profile.busy_nanos());
        }
    }

    #[test]
    fn inline_profile_is_one_fully_busy_worker() {
        let (_, profile) = par_map_with_profile(1, vec![1u8, 2, 3], || (), |(), x| x);
        assert_eq!(profile.workers.len(), 1);
        assert_eq!(profile.workers[0].shards, 3);
        assert_eq!(profile.workers[0].busy_nanos, profile.wall_nanos);
        assert_eq!(profile.idle_nanos(), 0);
    }

    #[test]
    fn profiled_outputs_match_unprofiled() {
        let plain = par_map(4, (0..300u32).collect(), |x| x ^ 0x5a5a);
        let (profiled, _) =
            par_map_with_profile(4, (0..300u32).collect(), || (), |(), x| x ^ 0x5a5a);
        assert_eq!(plain, profiled);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let reference = par_map(1, (0..500u64).collect(), |x| x.wrapping_mul(0x9e37));
        for workers in [2, 5, 16] {
            let (got, _) = pooled_map(
                workers,
                (0..500u64).collect(),
                || (),
                |(), x| x.wrapping_mul(0x9e37),
            );
            assert_eq!(got, reference, "workers = {workers}");
        }
    }
}
