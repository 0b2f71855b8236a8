//! The worker pool behind `--jobs N`, and the supervision primitives
//! behind trial retries.
//!
//! [`WorkerPool`] is a fixed set of threads that lives as long as its
//! owner — a whole campaign inside
//! [`Campaign::try_run`](crate::campaign::Campaign::try_run), one sweep
//! inside [`sweep_voltage_jobs`](crate::explore::sweep_voltage_jobs) — and
//! runs *batches*: independent items plus the closure that maps them. It
//! keeps the *results* exactly what the sequential loop would have
//! produced:
//!
//! * **Order canonicalization** — a batch is cut into contiguous *chunks*
//!   of items, each tagged with its position, and [`Batch::collect`]
//!   reassembles the outputs in input order, so callers can reduce
//!   left-to-right exactly as the sequential loop does. Workers take
//!   chunks off one FIFO queue; chunking keeps that claim negligible per
//!   item even for microsecond shards.
//! * **Pipelining** — [`WorkerPool::submit`] returns at once, so a caller
//!   can submit batch k+1 and then merge batch k while the workers run
//!   it. A [`Batch`] dropped without being collected is discarded: its
//!   queued chunks are never run and its outputs never reach the caller.
//! * **Per-worker state** — each worker builds one `S` with `Default` on
//!   its own thread and threads it through every item of every batch it
//!   runs, so caches survive across batches without any cross-thread
//!   sharing. The wave engine keeps one
//!   [`BenchmarkRunner`](crate::runner::BenchmarkRunner) per worker this
//!   way (with its strike arenas and rate envelopes), keyed by session.
//! * **Panic isolation** — a panicking item does not tear down the pool.
//!   The batch's queued chunks are dropped, its in-flight chunks finish,
//!   and only then does [`Batch::collect`] resume the panic of the
//!   earliest failing chunk on the caller's thread, so the
//!   process-visible behavior matches the sequential loop panicking at
//!   that item. The worker resets its state and serves later batches.
//!
//! Dropping the pool stops and joins its threads: each worker finishes
//! the chunk in hand, and queued chunks are dropped unrun. A caller that
//! unwinds with batches in flight therefore still leaves no thread
//! behind.
//!
//! Determinism across thread counts is *not* the pool's job alone: shards
//! must not read ambient state that depends on scheduling. The campaign
//! side guarantees that by deriving each trial's RNG with
//! [`SimRng::stream`](serscale_stats::SimRng::stream), which is a pure
//! function of (seed, session, trial).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one pool worker did for one batch: observe-only utilization
/// accounting for the live monitoring plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Host nanoseconds this worker spent inside the work closure.
    pub busy_nanos: u64,
    /// Shards (input items) this worker claimed, counted across every
    /// chunk it took (first come, first served makes the split uneven;
    /// the skew *is* the signal).
    pub shards: u64,
}

/// Per-worker utilization for one batch. Produced alongside the outputs
/// by [`Batch::collect`]; purely host-clock telemetry, so it varies run
/// to run and must never feed back into the simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolProfile {
    /// One report per worker, in worker-index order (a single entry for
    /// the inline `jobs == 1` path).
    pub workers: Vec<WorkerReport>,
    /// Host wall nanoseconds from the batch's dispatch to its last chunk
    /// finishing. Time the caller spends elsewhere before collecting the
    /// batch (merging the previous wave, say) is not in it, so it never
    /// counts as worker idle time.
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

    /// The longest single-worker busy time — the batch's critical path.
    /// Wall time below this bound is unreachable at any worker count.
    pub fn critical_path_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).max().unwrap_or(0)
    }

    /// Total busy nanoseconds summed across workers.
    pub fn busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }

    /// Total idle nanoseconds: wall time not spent in the work closure,
    /// summed across workers (wake-ups, claims, end-of-batch imbalance).
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
/// capped at the host's hardware threads. Callers run inline, with no
/// pool at all, when this is 1.
///
/// The engine's work is CPU-bound, so threads beyond the core count only
/// add context-switch overhead — and the determinism contract
/// makes `jobs` a pure throughput knob (the report is bit-identical at
/// any value), so capping the *execution substrate* never changes a
/// result. Wave planning still uses the requested `jobs`.
pub fn effective_workers(jobs: usize) -> usize {
    jobs.min(host_parallelism())
}

/// The closure a batch maps over its items: shared by every chunk of the
/// batch, handed each worker's state.
pub type Work<S, I, O> = Arc<dyn Fn(&mut S, I) -> O + Send + Sync>;

/// A panic payload caught on a worker.
type Panic = Box<dyn std::any::Any + Send>;

/// A fixed set of worker threads that runs batches of independent items
/// and hands their outputs back in input order (see the module docs).
///
/// `S` is each worker's private state, built with `Default` on the
/// worker's own thread; `I` and `O` are the item and output types.
pub struct WorkerPool<S, I, O> {
    shared: Arc<Shared<S, I, O>>,
    threads: Vec<JoinHandle<()>>,
}

/// What the caller and the workers share.
struct Shared<S, I, O> {
    board: Mutex<Board<S, I, O>>,
    /// Signalled when chunks are queued or the pool shuts down.
    work_ready: Condvar,
    /// Signalled when a batch's last chunk reports.
    batch_done: Condvar,
}

impl<S, I, O> Shared<S, I, O> {
    /// Locks the board. The pool never runs a work closure under this
    /// lock, only bookkeeping (and the destructors of dropped chunks), so
    /// a lock poisoned by a panicking destructor is taken over rather
    /// than passed on.
    fn lock(&self) -> MutexGuard<'_, Board<S, I, O>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The queue of chunks waiting for a worker and the batches they belong
/// to.
struct Board<S, I, O> {
    queue: VecDeque<Chunk<S, I, O>>,
    batches: Vec<BatchState<O>>,
    next_id: u64,
    shutdown: bool,
}

/// A contiguous run of one batch's items.
struct Chunk<S, I, O> {
    batch: u64,
    /// Position of the chunk within its batch.
    index: usize,
    items: Vec<I>,
    work: Work<S, I, O>,
}

/// One submitted batch: its outputs as they arrive and its accounting.
struct BatchState<O> {
    id: u64,
    dispatched: Instant,
    /// Dispatch to the last chunk reporting; set when `unreported` hits 0.
    wall_nanos: u64,
    /// Chunks queued or running.
    unreported: usize,
    outputs: Vec<Option<Vec<O>>>,
    workers: Vec<WorkerReport>,
    /// The earliest failing chunk and its panic.
    panic: Option<(usize, Panic)>,
    /// Dropped by its owner: forget it as soon as it drains.
    abandoned: bool,
}

impl<S, I, O> Board<S, I, O> {
    fn position(&self, id: u64) -> usize {
        self.batches
            .iter()
            .position(|b| b.id == id)
            .expect("a batch stays on the board until it is collected or drains abandoned")
    }

    /// Drops the queued chunks of the batch at `pos`, so only its
    /// running chunks are still to report.
    fn unqueue(&mut self, pos: usize) {
        let id = self.batches[pos].id;
        let queued = self.queue.len();
        self.queue.retain(|chunk| chunk.batch != id);
        self.batches[pos].unreported -= queued - self.queue.len();
    }

    /// Settles the batch at `pos` once it has drained: stamps its wall
    /// time and wakes the collector, or forgets it if it was abandoned.
    fn settle(&mut self, pos: usize, batch_done: &Condvar) {
        let batch = &mut self.batches[pos];
        if batch.unreported > 0 {
            return;
        }
        batch.wall_nanos = nanos_since(batch.dispatched);
        if batch.abandoned {
            self.batches.swap_remove(pos);
        } else {
            batch_done.notify_all();
        }
    }
}

/// Host nanoseconds since `start`, saturating.
pub(crate) fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<S, I, O> WorkerPool<S, I, O>
where
    S: Default + 'static,
    I: Send + 'static,
    O: Send + 'static,
{
    /// Starts exactly `workers` threads. Callers that size the pool from
    /// a `jobs` request use [`effective_workers`] and run inline instead
    /// when that is 1.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or a thread cannot be spawned.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            board: Mutex::new(Board {
                queue: VecDeque::new(),
                batches: Vec::new(),
                next_id: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serscale-worker-{worker}"))
                    .spawn(move || serve(&shared, worker))
                    .expect("spawn a pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Queues `items` for the workers and returns at once. The batch is
    /// cut into contiguous chunks of roughly `len / (workers × 4)` items:
    /// large enough that the per-chunk claim amortizes across many
    /// shards, small enough that the end-of-batch imbalance stays a
    /// fraction of one worker's share.
    pub fn submit(&self, items: Vec<I>, work: &Work<S, I, O>) -> Batch<'_, S, I, O> {
        let dispatched = Instant::now();
        let workers = self.threads.len();
        let chunk_size = items.len().div_ceil(workers * 4).max(1);
        let mut items = items.into_iter();
        let mut chunks = Vec::new();
        loop {
            let chunk: Vec<I> = items.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let mut board = self.shared.lock();
        let id = board.next_id;
        board.next_id += 1;
        board.batches.push(BatchState {
            id,
            dispatched,
            wall_nanos: 0,
            unreported: chunks.len(),
            outputs: (0..chunks.len()).map(|_| None).collect(),
            workers: vec![WorkerReport::default(); workers],
            panic: None,
            abandoned: false,
        });
        for (index, items) in chunks.into_iter().enumerate() {
            board.queue.push_back(Chunk {
                batch: id,
                index,
                items,
                work: Arc::clone(work),
            });
        }
        drop(board);
        self.shared.work_ready.notify_all();
        Batch { pool: self, id }
    }

    /// [`submit`](Self::submit) then [`Batch::collect`]: one batch, start
    /// to finish.
    ///
    /// # Panics
    ///
    /// Re-raises the first item panic, like [`Batch::collect`].
    pub fn map(
        &self,
        items: Vec<I>,
        work: impl Fn(&mut S, I) -> O + Send + Sync + 'static,
    ) -> (Vec<O>, PoolProfile) {
        let work: Work<S, I, O> = Arc::new(work);
        self.submit(items, &work).collect()
    }
}

impl<S, I, O> Drop for WorkerPool<S, I, O> {
    /// Stops the workers and joins them: each finishes the chunk in hand,
    /// and whatever is still queued is dropped unrun.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One worker's loop: take the next chunk, run it outside the lock,
/// report it, until the pool shuts down.
fn serve<S: Default, I, O>(shared: &Shared<S, I, O>, worker: usize) {
    let mut state = S::default();
    let mut board = shared.lock();
    loop {
        if board.shutdown {
            return;
        }
        let Some(chunk) = board.queue.pop_front() else {
            board = shared
                .work_ready
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(board);
        let Chunk {
            batch: id,
            index,
            items,
            work,
        } = chunk;
        let shards = items.len() as u64;
        let clock = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            items
                .into_iter()
                .map(|item| work(&mut state, item))
                .collect::<Vec<O>>()
        }));
        let busy = nanos_since(clock);
        drop(work);
        if outcome.is_err() {
            // The panic may have left the state half-updated.
            state = S::default();
        }
        board = shared.lock();
        let pos = board.position(id);
        let batch = &mut board.batches[pos];
        batch.workers[worker].busy_nanos += busy;
        batch.workers[worker].shards += shards;
        batch.unreported -= 1;
        match outcome {
            Ok(outputs) => batch.outputs[index] = Some(outputs),
            Err(payload) => {
                if batch.panic.as_ref().is_none_or(|(first, _)| index < *first) {
                    batch.panic = Some((index, payload));
                }
                board.unqueue(pos);
            }
        }
        board.settle(pos, &shared.batch_done);
    }
}

/// A submitted batch, running on its pool. [`collect`](Self::collect) it
/// for the outputs; dropping it instead discards the batch — its queued
/// chunks never run and its outputs are thrown away.
#[must_use = "dropping a batch discards its outputs"]
pub struct Batch<'p, S, I, O> {
    pool: &'p WorkerPool<S, I, O>,
    id: u64,
}

impl<S, I, O> Batch<'_, S, I, O> {
    /// Waits for the batch to drain and returns its outputs in input
    /// order, with the pool's utilization while it ran.
    ///
    /// # Panics
    ///
    /// If an item panicked, resumes the panic of the earliest failing
    /// chunk once the batch has drained.
    pub fn collect(self) -> (Vec<O>, PoolProfile) {
        let (pool, id) = (self.pool, self.id);
        std::mem::forget(self);
        let shared = &*pool.shared;
        let mut board = shared.lock();
        let state = loop {
            let pos = board.position(id);
            if board.batches[pos].unreported == 0 {
                break board.batches.swap_remove(pos);
            }
            board = shared
                .batch_done
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(board);
        if let Some((_, payload)) = state.panic {
            resume_unwind(payload);
        }
        let outputs = state
            .outputs
            .into_iter()
            .flat_map(|slot| slot.expect("a batch that drained without a panic has every chunk"))
            .collect();
        let profile = PoolProfile {
            workers: state.workers,
            wall_nanos: state.wall_nanos,
        };
        (outputs, profile)
    }
}

impl<S, I, O> Drop for Batch<'_, S, I, O> {
    fn drop(&mut self) {
        let shared = &self.pool.shared;
        let mut board = shared.lock();
        let pos = board.position(self.id);
        board.batches[pos].abandoned = true;
        board.unqueue(pos);
        board.settle(pos, &shared.batch_done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn square(_: &mut (), x: u64) -> u64 {
        x * x
    }

    #[test]
    fn outputs_come_back_in_input_order() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let (got, _) = pool.map((0..257u64).collect(), square);
            let want: Vec<u64> = (0..257).map(|x| x * x).collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn threaded_pool_preserves_order_for_awkward_chunk_splits() {
        // Totals that don't divide evenly into chunks, on one pool that
        // serves every batch in turn.
        for workers in [2usize, 3, 8] {
            let pool = WorkerPool::new(workers);
            for total in [2u64, 7, 257, 1000] {
                let (got, _) = pool.map((0..total).collect(), square);
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
        let pool = WorkerPool::new(4);
        let (empty, profile) = pool.map(Vec::<u32>::new(), |(), x| x);
        assert_eq!(empty, Vec::<u32>::new());
        assert_eq!(profile.busy_nanos(), 0);
        assert_eq!(pool.map(vec![9], |(), x: u32| x + 1).0, vec![10]);
    }

    #[test]
    fn worker_state_is_built_per_worker_and_reused() {
        // Each worker builds its state once and keeps it across batches.
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        struct Calls(u64);
        impl Default for Calls {
            fn default() -> Self {
                BUILT.fetch_add(1, Ordering::Relaxed);
                Calls(0)
            }
        }
        let workers = 3;
        let pool = WorkerPool::new(workers);
        let work: Work<Calls, u64, u64> = Arc::new(|calls: &mut Calls, _| {
            calls.0 += 1;
            calls.0
        });
        let mut most = 0;
        for _ in 0..5 {
            let (out, profile) = pool.submit((0..100u64).collect(), &work).collect();
            assert_eq!(out.len(), 100);
            assert_eq!(profile.workers.len(), workers);
            most = most.max(out.into_iter().max().unwrap_or(0));
        }
        // 500 items over 3 workers: one worker ran at least 167 of them,
        // a count only a state kept across batches reaches.
        assert!(most > 100, "worker state was rebuilt per batch");
        let built = BUILT.load(Ordering::Relaxed);
        assert!(
            built <= workers,
            "at most one state per worker, got {built}"
        );
    }

    #[test]
    fn shard_panic_propagates_after_drain() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..64u32).collect(), |(), x| {
                if x == 13 {
                    panic!("shard 13 exploded");
                }
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("shard 13"), "got: {message}");
        // The workers caught the panic and keep serving.
        assert_eq!(pool.map(vec![1u32, 2, 3], |(), x| x * 2).0, vec![2, 4, 6]);
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
        for workers in [2usize, 3, 8] {
            let (out, profile) = WorkerPool::new(workers).map((0..200u64).collect(), work);
            assert_eq!(out.len(), 200);
            let shards: u64 = profile.workers.iter().map(|w| w.shards).sum();
            assert_eq!(shards, 200, "workers = {workers}");
            assert_eq!(profile.workers.len(), workers);
            assert!(profile.critical_path_nanos() <= profile.busy_nanos());
            assert!(profile.critical_path_nanos() <= profile.wall_nanos);
            assert!((0.0..=1.0).contains(&profile.utilization()));
        }
    }

    #[test]
    fn inline_profile_is_one_fully_busy_worker() {
        let profile = PoolProfile::inline(1_000, 3);
        assert_eq!(profile.workers.len(), 1);
        assert_eq!(profile.workers[0].shards, 3);
        assert_eq!(profile.workers[0].busy_nanos, profile.wall_nanos);
        assert_eq!(profile.idle_nanos(), 0);
        assert_eq!(profile.utilization(), 1.0);
    }

    #[test]
    fn profiled_outputs_match_unprofiled() {
        // The profile is observe-only: the pool's outputs are exactly the
        // sequential map's.
        let plain: Vec<u32> = (0..300u32).map(|x| x ^ 0x5a5a).collect();
        let (profiled, _) = WorkerPool::new(4).map((0..300u32).collect(), |(), x| x ^ 0x5a5a);
        assert_eq!(plain, profiled);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let reference: Vec<u64> = (0..500u64).map(|x| x.wrapping_mul(0x9e37)).collect();
        for workers in [2, 5, 16] {
            let (got, _) =
                WorkerPool::new(workers).map((0..500u64).collect(), |(), x| x.wrapping_mul(0x9e37));
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn batches_pipeline_and_collect_in_submission_order() {
        // Batch k+1 is queued before batch k is collected; each comes back
        // whole and in its own input order.
        let pool = WorkerPool::new(3);
        let work: Work<(), u64, u64> = Arc::new(square);
        let first = pool.submit((0..100).collect(), &work);
        let second = pool.submit((100..300).collect(), &work);
        let (a, _) = first.collect();
        let (b, _) = second.collect();
        assert_eq!(a, (0..100).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(b, (100..300).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_batch_is_discarded_and_the_pool_keeps_serving() {
        let pool = WorkerPool::new(2);
        let released = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicUsize::new(0));
        let work: Work<(), u64, u64> = {
            let (released, ran) = (Arc::clone(&released), Arc::clone(&ran));
            Arc::new(move |(), x| {
                // Hold the workers inside their first chunks until the
                // batch is dropped.
                while !released.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ran.fetch_add(1, Ordering::Relaxed);
                x
            })
        };
        // 400 items on 2 workers make 8 chunks of 50.
        drop(pool.submit((0..400).collect(), &work));
        released.store(true, Ordering::Release);
        let (kept, _) = pool.submit((0..10).collect(), &work).collect();
        assert_eq!(kept, (0..10).collect::<Vec<_>>());
        // Only the chunks already running when the batch was dropped, at
        // most one per worker, ran.
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran <= 2 * 50 + 10, "{ran} items ran: dropped chunks ran");
    }

    #[test]
    fn wall_time_stops_when_the_last_chunk_finishes() {
        // The caller collects long after the workers finish; the profile
        // must not count that wait as pool time.
        let pool = WorkerPool::new(2);
        let work: Work<(), u64, u64> = Arc::new(square);
        let batch = pool.submit((0..64).collect(), &work);
        let wait = Duration::from_millis(300);
        std::thread::sleep(wait);
        let (_, profile) = batch.collect();
        assert!(
            profile.wall_nanos < wait.as_nanos() as u64,
            "wall {} ns includes the caller's wait",
            profile.wall_nanos
        );
        assert!(profile.critical_path_nanos() <= profile.wall_nanos);
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        // Every worker holds the shared board, and the board holds the
        // queued chunks' closures: once the drop returns, the last
        // reference to the closure is the test's own.
        let token = Arc::new(());
        let pool = WorkerPool::new(8);
        let work: Work<(), u64, u64> = {
            let token = Arc::clone(&token);
            Arc::new(move |(), x| {
                let _held = &token;
                std::thread::sleep(Duration::from_millis(1));
                x
            })
        };
        let batch = pool.submit((0..1000).collect(), &work);
        std::mem::forget(batch);
        drop(work);
        drop(pool);
        assert_eq!(Arc::strong_count(&token), 1, "a worker outlived the pool");
    }
}
