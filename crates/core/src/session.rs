//! A beam test session: one voltage setting, benchmarks cycling under
//! beam until the stopping rules fire — one column of Table 2.
//!
//! ## Execution model
//!
//! A session is a sequence of *trials*: trial `t` runs benchmark
//! `Benchmark::ALL[t % 6]` on its own RNG stream
//! (`session_rng.stream("trial", &[t])`), so every trial's physics is a
//! pure function of the session seed and the trial index — never of which
//! thread ran it or in what order. The driver executes trials in
//! speculative waves (inline, or on the [`crate::parallel`] pool when
//! `jobs > 1`) and then *merges* the outcomes strictly in trial order:
//! the simulated clock, the fluence ledger, the stopping rules and every
//! observer callback are applied by the single-threaded merge exactly as
//! the sequential loop would, and outcomes past the stopping trial are
//! discarded. The report is therefore bit-identical for any `jobs`.
//!
//! On the pool the driver pipelines: it collects wave k, submits wave
//! k+1, and merges wave k while the workers run k+1. Wave k+1 is sized
//! from the accumulator as it stood before wave k's merge, minus wave k's
//! still-unmerged trials, and is skipped when those already cover the
//! stopping estimate. When the merge stops the session — or a cancel or
//! a journal error stops the run — wave k+1 is dropped unmerged, so
//! nothing of it reaches the journal, an observer or the report.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serscale_beam::FluenceLedger;
use serscale_soc::edac::{EdacSeverity, LevelCounts};
use serscale_soc::platform::OperatingPoint;
use serscale_stats::{RateEstimate, SimRng};
use serscale_types::{Fluence, Flux, SimDuration, SimInstant, NYC_SEA_LEVEL_FLUX};
use serscale_workload::Benchmark;

use crate::campaign::{CampaignRunOptions, RunError};
use crate::classify::{FailureClass, RunVerdict};
use crate::dut::DeviceUnderTest;
use crate::journal::{JournalWriter, Record};
use crate::parallel::{effective_workers, nanos_since, Batch, PoolProfile, Work, WorkerPool};
use crate::runner::{BenchmarkRunner, RunOutcome};
use crate::trace::{SessionObserver, WaveStats};

/// When a session ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionLimits {
    /// Stop once this many error events (SDCs + crashes) accumulated —
    /// the "100 events" significance rule of §3.5.
    pub max_error_events: u64,
    /// Stop once this fluence is reached (the 10¹¹ n/cm² ESCC rule).
    pub max_fluence: Fluence,
    /// Stop after this much beam time (reserved-beam-window exhaustion,
    /// the fate of the paper's session 4).
    pub max_duration: Option<SimDuration>,
}

impl SessionLimits {
    /// The textbook §3.5 rules: 100 events or 10¹¹ n/cm², no time cap.
    pub fn standard() -> Self {
        SessionLimits {
            max_error_events: 100,
            max_fluence: Fluence::SIGNIFICANCE_THRESHOLD,
            max_duration: None,
        }
    }

    /// A pure time-boxed session: reproduce a realized exposure (how the
    /// paper's Table 2 durations are replayed — the operators chose to run
    /// sessions 1 and 2 well past the fluence rule).
    pub fn time_boxed(duration: SimDuration) -> Self {
        SessionLimits {
            max_error_events: u64::MAX,
            max_fluence: Fluence::per_cm2(f64::MAX / 1e10),
            max_duration: Some(duration),
        }
    }
}

impl Default for SessionLimits {
    fn default() -> Self {
        Self::standard()
    }
}

/// How the engine handles a trial whose attempt panics or times out:
/// bounded retries on counter-derived streams, then quarantine.
///
/// Attempt 0 runs on the canonical per-trial stream — with no failures
/// the robust path is bit-identical to the plain one. Attempt `a ≥ 1`
/// re-runs on `stream("trial", &[trial, a])`, a pure function of the
/// session seed, so retried physics is deterministic and independent of
/// scheduling. Backoff between attempts is *host* time (exponential,
/// capped) and never touches the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the first failure before quarantining.
    pub max_retries: u32,
    /// Base host-time backoff before a retry (doubled per attempt,
    /// capped at one second).
    pub backoff: std::time::Duration,
    /// Host-time budget per attempt; a trial exceeding it is treated as
    /// failed. `None` (the default) disables the watchdog — timeouts
    /// depend on host scheduling, so enabling one trades determinism of
    /// the *retry counters* (never of a completed run's physics) for
    /// hang protection.
    pub timeout: Option<std::time::Duration>,
}

impl RetryPolicy {
    /// The default policy: 2 retries, 10 ms base backoff, no watchdog.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: std::time::Duration::from_millis(10),
            timeout: None,
        }
    }

    /// The standard policy with a per-attempt watchdog.
    pub fn with_timeout(timeout: std::time::Duration) -> Self {
        RetryPolicy {
            timeout: Some(timeout),
            ..Self::standard()
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// One executed trial as the canonical merge absorbs it: the outcome
/// plus the robustness bookkeeping the journal and the report carry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialExecution {
    /// Trial index within the session.
    pub trial: u64,
    /// What the (final) attempt produced — or the synthetic placeholder
    /// if the trial was quarantined.
    pub outcome: RunOutcome,
    /// Failed attempts that preceded the final one.
    pub retries: u32,
    /// Whether every attempt failed; a quarantined outcome advances the
    /// clock and the fluence ledger but contributes no runs or events.
    pub quarantined: bool,
}

/// Why the session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// Enough error events accumulated.
    ErrorEvents,
    /// The fluence target was reached.
    Fluence,
    /// The reserved beam time ran out.
    BeamTime,
}

/// Per-benchmark telemetry within a session (the data behind Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BenchmarkStats {
    /// Completed runs.
    pub runs: u64,
    /// EDAC records observed while this benchmark ran.
    pub memory_upsets: u64,
    /// Beam-on execution time attributed to this benchmark (excluding
    /// crash recovery).
    pub execution_time: SimDuration,
    /// SDCs attributed to this benchmark.
    pub sdcs: u64,
}

impl BenchmarkStats {
    /// Upsets per minute of execution — a Figure 5 bar.
    pub fn upsets_per_minute(&self) -> f64 {
        if self.execution_time.is_zero() {
            0.0
        } else {
            self.memory_upsets as f64 / self.execution_time.as_minutes()
        }
    }
}

/// The full outcome of one session — one Table 2 column plus the data
/// behind Figures 5, 6/7 and 8 at this voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The tested operating point.
    pub operating_point: OperatingPoint,
    /// Why the session ended.
    pub stop_reason: StopReason,
    /// Total beam-on time (runs + crash recoveries).
    pub duration: SimDuration,
    /// Accumulated fluence.
    pub fluence: Fluence,
    /// Completed benchmark runs.
    pub runs: u64,
    /// Error events per failure class.
    pub failures: BTreeMap<FailureClass, u64>,
    /// SDCs that coincided with a corrected-error notification (Fig. 12's
    /// rare deceptive case).
    pub sdc_with_notification: u64,
    /// Total EDAC records (Table 2's "memory upsets").
    pub memory_upsets: u64,
    /// EDAC records per (cache level, severity) — Figures 6/7.
    pub edac_per_level: LevelCounts,
    /// Per-benchmark stats — Figure 5.
    pub per_benchmark: BTreeMap<Benchmark, BenchmarkStats>,
    /// Retry attempts consumed by panicking or timed-out trials (zero in
    /// a healthy run). See [`RetryPolicy`].
    pub trial_retries: u64,
    /// Trial indices quarantined after exhausting every retry: their
    /// beam time is on the clock and the fluence ledger, but they
    /// contributed no runs, upsets or error events.
    pub quarantined_trials: Vec<u64>,
}

impl SessionReport {
    /// Total error events (SDCs + crashes) — Table 2 row 6.
    pub fn error_events(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Error events per minute — Table 2 row 7.
    pub fn error_rate(&self) -> RateEstimate {
        RateEstimate::from_count(self.error_events(), self.duration)
    }

    /// Memory upsets per minute — Table 2 row 9.
    pub fn upset_rate(&self) -> RateEstimate {
        RateEstimate::from_count(self.memory_upsets, self.duration)
    }

    /// Count for one failure class.
    pub fn failure_count(&self, class: FailureClass) -> u64 {
        self.failures.get(&class).copied().unwrap_or(0)
    }

    /// The share of each failure class among all error events — one panel
    /// of Figure 8. Returns zeros when no events occurred.
    pub fn failure_shares(&self) -> BTreeMap<FailureClass, f64> {
        let total = self.error_events() as f64;
        FailureClass::ALL
            .into_iter()
            .map(|c| {
                let share = if total > 0.0 {
                    self.failure_count(c) as f64 / total
                } else {
                    0.0
                };
                (c, share)
            })
            .collect()
    }

    /// Years of natural NYC sea-level exposure equivalent to this
    /// session's fluence — Table 2 row 5.
    pub fn nyc_equivalent_years(&self) -> f64 {
        self.fluence
            .natural_equivalent(NYC_SEA_LEVEL_FLUX)
            .as_years()
    }

    /// The memory SER in FIT per Mbit at NYC — Table 2 row 10.
    ///
    /// # Panics
    ///
    /// Panics if `sram_mbit` is not positive.
    pub fn memory_ser_fit_per_mbit(&self, sram_mbit: f64) -> f64 {
        assert!(sram_mbit > 0.0, "memory size must be positive");
        let dcs =
            serscale_types::CrossSection::from_events(self.memory_upsets as f64, self.fluence);
        dcs.fit_at(NYC_SEA_LEVEL_FLUX).per_mbit(sram_mbit).get()
    }

    /// Corrected/uncorrected EDAC rate per minute for one cache level —
    /// a Figure 6/7 bar.
    pub fn level_rate_per_minute(
        &self,
        level: serscale_types::CacheLevel,
        severity: EdacSeverity,
    ) -> f64 {
        let count = self
            .edac_per_level
            .get(&(level, severity))
            .copied()
            .unwrap_or(0);
        count as f64 / self.duration.as_minutes()
    }
}

/// Drives one session to completion.
#[derive(Debug)]
pub struct TestSession {
    runner: BenchmarkRunner,
    limits: SessionLimits,
}

impl TestSession {
    /// Creates a session for a DUT under beam flux with the given limits.
    ///
    /// # Panics
    ///
    /// Panics when the beam is off (`flux == 0`) and no beam-time limit is
    /// set: neither the event rule nor the fluence rule could ever fire,
    /// so the session would spin forever.
    pub fn new(dut: DeviceUnderTest, flux: Flux, limits: SessionLimits) -> Self {
        assert!(
            flux.as_per_cm2_s() > 0.0 || limits.max_duration.is_some(),
            "a beam-off session needs a max_duration to terminate"
        );
        TestSession {
            runner: BenchmarkRunner::new(dut, flux),
            limits,
        }
    }

    /// Runs the session to a stopping rule and reports — the wave engine's
    /// entry point, driven by [`Campaign::try_run`] for each configured
    /// session: `options.jobs` workers, retry/quarantine on failing trials
    /// under `options.retry`, every absorbed trial appended to
    /// `options.journal` (tagged with `session_index`), and the session's
    /// journaled history in `options.recovered` replayed before going
    /// live. Called directly, the session starts its own pool on its first
    /// live wave and joins it before returning; [`Campaign::try_run`]
    /// shares one pool across its sessions instead.
    ///
    /// The merge that drives `observer` is single-threaded and in trial
    /// order, so observers need no synchronization and see the same trace
    /// at any `jobs`; observation never perturbs the simulation. Replayed
    /// trials are folded through the exact accumulator the live path uses
    /// (no physics re-run) and every RNG stream re-derives from the
    /// caller's generator, so an interrupted-and-resumed session produces
    /// a report and observer trace bit-identical to an uninterrupted one
    /// at any `jobs` count (wave boundaries restart on resume, but
    /// [`WaveStats`] is engine telemetry that
    /// trace observers ignore).
    ///
    /// [`Campaign::try_run`]: crate::campaign::Campaign::try_run
    ///
    /// # Errors
    ///
    /// [`RunError::Cancelled`] when `options.cancel` fires: the run stops
    /// at the next wave boundary, where every trial absorbed so far has
    /// been journaled and synced, no `SessionEnd` record is written and no
    /// `on_session_end` callback fires — so the journal reads exactly like
    /// a crash at a record boundary and resumes bit-identically through
    /// [`crate::journal::start_or_resume`]. [`RunError::Journal`] when a
    /// journal write or sync fails: the run stops there, and the journal
    /// resumes the same way once its torn tail is truncated.
    ///
    /// # Panics
    ///
    /// Panics if `options.jobs == 0`, or if the recovered history is
    /// inconsistent with this session's configuration (wrong trial order,
    /// or a journaled stop reason the replay cannot reproduce).
    pub fn try_run(
        &mut self,
        rng: &mut SimRng,
        session_index: u64,
        options: &mut CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> Result<SessionReport, RunError> {
        let mut pool = TrialPool::new(options.jobs);
        self.try_run_on(&mut pool, rng, session_index, options, observer)
    }

    /// [`try_run`](Self::try_run) on a caller-owned [`TrialPool`], which
    /// is how [`Campaign::try_run`](crate::campaign::Campaign::try_run)
    /// keeps one pool for all of its sessions.
    pub(crate) fn try_run_on(
        &mut self,
        pool: &mut TrialPool,
        rng: &mut SimRng,
        session_index: u64,
        options: &mut CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> Result<SessionReport, RunError> {
        assert!(options.jobs > 0, "a session needs at least one worker");
        let recovered = options.recovered.and_then(|r| r.session(session_index));
        let flux = self.runner.flux();
        let point = self.runner.dut().operating_point();
        observer.on_session_start(SimInstant::EPOCH, point);
        // One draw keeps the caller's generator advancing (two back-to-back
        // sessions off one rng stay distinct); every trial stream derives
        // from this root alone, independent of scheduling.
        let session_rng = SimRng::seed_from(rng.next_seed());

        if recovered.is_none() {
            if let Some(journal) = options.journal.as_deref_mut() {
                journal.append(&Record::SessionStart {
                    session: session_index,
                    point,
                });
                journal.sync().map_err(RunError::Journal)?;
            }
        }

        let mut acc = Accumulator::new(flux, self.limits);
        let mut next_trial = 0u64;
        let mut replayed_stop = None;

        // Fast-forward: fold the journaled trials through the same
        // accumulator and observer the live path drives. No physics
        // re-runs; the stream is exactly what the interrupted run saw.
        if let Some(recovered) = recovered {
            for execution in &recovered.trials {
                assert_eq!(execution.trial, next_trial, "journal trials out of order");
                let run_only = self.runner.run_duration(execution.outcome.benchmark);
                let reason = acc.absorb_execution(execution.clone(), run_only, observer);
                next_trial += 1;
                if let Some(reason) = reason {
                    assert_eq!(
                        next_trial,
                        recovered.trials.len() as u64,
                        "journal holds trials past the stopping rule"
                    );
                    if let Some(journaled) = recovered.ended {
                        assert_eq!(
                            journaled, reason,
                            "journaled stop reason disagrees with replay"
                        );
                    }
                    replayed_stop = Some(reason);
                    break;
                }
            }
            if replayed_stop.is_none() {
                assert_eq!(
                    recovered.ended, None,
                    "journal says the session ended but replay finds no stopping rule"
                );
            }
        }

        let stop_reason = match replayed_stop {
            Some(reason) => reason,
            None => self.run_waves(
                pool,
                &mut acc,
                &session_rng,
                session_index,
                options,
                observer,
            )?,
        };

        if let Some(journal) = options.journal.as_deref_mut() {
            // A session the journal already closed needs no second end
            // record; everything else (fresh, or recovered mid-flight)
            // gets one now.
            if recovered.is_none_or(|r| r.ended.is_none()) {
                journal.append(&Record::SessionEnd {
                    session: session_index,
                    reason: stop_reason,
                });
            }
            journal.sync().map_err(RunError::Journal)?;
        }

        observer.on_session_end(acc.clock, stop_reason);
        Ok(acc.into_report(point, stop_reason))
    }

    /// Runs live waves, from the first trial `acc` has not absorbed, until
    /// a stopping rule fires.
    ///
    /// The pool starts on the first live wave, so a pure replay never
    /// spawns a thread. No pool means one effective worker: the waves then
    /// run on the calling thread with the session's own runner — the
    /// reference path, which the pool reaches bit for bit (determinism
    /// contract).
    fn run_waves(
        &mut self,
        pool: &mut TrialPool,
        acc: &mut Accumulator,
        session_rng: &SimRng,
        session_index: u64,
        options: &mut CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> Result<StopReason, RunError> {
        let workers = pool
            .start()
            .map(|(workers, key)| (workers, self.pool_work(key, session_rng, options)));
        // The wave submitted ahead of the merge, if any. Every exit below
        // drops it unmerged.
        let mut ahead: Option<InFlight<'_>> = None;
        let mut next_trial = acc.trials();
        loop {
            // Wave boundary: the only place a cancel can land. Every merged
            // wave is journaled and synced, so bailing here leaves the
            // journal resumable.
            if options.cancelled() {
                return Err(RunError::Cancelled);
            }
            let (wave, executions, profile) = match &workers {
                None => {
                    let dispatched = Instant::now();
                    let planned = self.wave_size(acc, options.jobs, next_trial, 0);
                    let (runner, retry) = (&mut self.runner, options.retry);
                    let executions: Vec<TrialExecution> = (next_trial..next_trial + planned as u64)
                        .map(|t| run_trial_robust(runner, session_rng, t, retry))
                        .collect();
                    let profile = PoolProfile::inline(nanos_since(dispatched), planned as u64);
                    let wave = Wave {
                        first: next_trial,
                        planned,
                        dispatched,
                    };
                    (wave, executions, profile)
                }
                Some((workers, work)) => {
                    let current = ahead.take().unwrap_or_else(|| {
                        let planned = self.wave_size(acc, options.jobs, next_trial, 0);
                        InFlight::submit(workers, work, next_trial, planned)
                    });
                    let (executions, profile) = current.batch.collect();
                    // Submit the next wave before merging this one, whose
                    // trials are still ahead of `acc`.
                    let wave = current.wave;
                    let next = wave.first + wave.planned as u64;
                    let planned = self.wave_size(acc, options.jobs, next, wave.planned);
                    ahead = (planned > 0).then(|| InFlight::submit(workers, work, next, planned));
                    (wave, executions, profile)
                }
            };
            let merged = self.merge(
                acc,
                executions,
                session_index,
                options.journal.as_deref_mut(),
                observer,
            )?;
            // Engine telemetry only — the host clock has no business in the
            // simulation, and trace observers ignore this callback.
            observer.on_wave(WaveStats {
                first_trial: wave.first,
                planned: wave.planned,
                absorbed: merged.absorbed,
                host_nanos: nanos_since(wave.dispatched),
                retries: merged.retries,
                quarantined: merged.quarantined,
                pool: profile,
            });
            if let Some(reason) = merged.stopped {
                return Ok(reason);
            }
            next_trial = wave.first + wave.planned as u64;
        }
    }

    /// The pool's work for this session: trial `t` on the worker's own
    /// runner, which the worker rebuilds from this session's DUT the first
    /// time it meets the session's `key`.
    fn pool_work(
        &self,
        key: u64,
        session_rng: &SimRng,
        options: &CampaignRunOptions<'_>,
    ) -> Work<WorkerRunner, u64, TrialExecution> {
        let (dut, flux) = (self.runner.dut().clone(), self.runner.flux());
        let (root, retry) = (session_rng.clone(), options.retry);
        Arc::new(move |slot: &mut WorkerRunner, trial| {
            let runner = match slot {
                Some((serving, runner)) if *serving == key => runner,
                _ => {
                    &mut slot
                        .insert((key, BenchmarkRunner::new(dut.clone(), flux)))
                        .1
                }
            };
            run_trial_robust(runner, &root, trial, retry)
        })
    }

    /// The canonical merge of one wave: in trial order, each execution is
    /// journaled (buffered) and then absorbed, up to the trial that fires
    /// a stopping rule; outcomes past it are speculation and fall on the
    /// floor. The journal is synced once per wave.
    fn merge(
        &self,
        acc: &mut Accumulator,
        executions: Vec<TrialExecution>,
        session_index: u64,
        mut journal: Option<&mut JournalWriter>,
        observer: &mut dyn SessionObserver,
    ) -> Result<Merged, RunError> {
        let mut merged = Merged::default();
        for execution in executions {
            let run_only = self.runner.run_duration(execution.outcome.benchmark);
            merged.absorbed += 1;
            merged.retries += u64::from(execution.retries);
            merged.quarantined += u64::from(execution.quarantined);
            if let Some(journal) = journal.as_deref_mut() {
                journal.append_trial(session_index, &execution);
            }
            if let Some(reason) = acc.absorb_execution(execution, run_only, observer) {
                merged.stopped = Some(reason);
                break;
            }
        }
        if let Some(journal) = journal {
            journal.sync().map_err(RunError::Journal)?;
        }
        Ok(merged)
    }

    /// Runs the session through the *naive reference executor*: one trial
    /// at a time, absorbed immediately, with no speculative waves and no
    /// worker pool — the textbook transcription of the execution model in
    /// the module docs.
    ///
    /// This path exists for differential verification (see the
    /// `serscale-verify` crate): the wave engine's speculation, sharding
    /// and canonical merge must be observationally equivalent to this
    /// loop, bit for bit, at any `jobs` count. It is deliberately kept
    /// free of the throughput machinery at *both* layers: no speculative
    /// waves or worker pool here ([`Self::try_run`] speculates in waves
    /// even at `jobs == 1`), and each trial's physics runs through
    /// [`BenchmarkRunner::run_once_reference`] — the per-event,
    /// envelope-rebuilt, codec-decoded twin of the batched hot path.
    /// Every event is reported through `observer`, exactly as the wave
    /// engine would report it.
    pub fn run_reference(
        &mut self,
        rng: &mut SimRng,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> SessionReport {
        let flux = self.runner.flux();
        let point = self.runner.dut().operating_point();
        observer.on_session_start(SimInstant::EPOCH, point);
        // Identical seed derivation to the wave engine: one draw from the
        // caller's generator roots every trial stream.
        let session_rng = SimRng::seed_from(rng.next_seed());

        let mut acc = Accumulator::new(flux, self.limits);
        let mut trial = 0u64;
        let stop_reason = loop {
            // The canonical trial recipe, transcribed: benchmark t % 6 on
            // the counter-derived stream for t — but through the naive
            // per-event physics instead of the batched hot path.
            let benchmark = Benchmark::ALL[(trial % Benchmark::ALL.len() as u64) as usize];
            let mut trial_rng = session_rng.stream("trial", &[trial]);
            let outcome =
                self.runner
                    .run_once_reference(&mut trial_rng, benchmark, SimInstant::EPOCH);
            let execution = TrialExecution {
                trial,
                outcome,
                retries: 0,
                quarantined: false,
            };
            let run_only = self.runner.run_duration(execution.outcome.benchmark);
            if let Some(reason) = acc.absorb_execution(execution, run_only, observer) {
                break reason;
            }
            trial += 1;
        };

        observer.on_session_end(acc.clock, stop_reason);
        acc.into_report(point, stop_reason)
    }

    /// How many trials to launch speculatively before the next merge,
    /// when `trials_done` trials are launched in all and the last
    /// `in_flight` of them are not merged into `acc` yet.
    ///
    /// Purely a throughput knob: any positive value yields the same
    /// report. Estimates the trials left from whichever stopping rule will
    /// fire first, so overshoot past the stopping trial stays small, and
    /// subtracts the in-flight trials: 0 when they already cover the
    /// estimate (never when nothing is in flight).
    fn wave_size(
        &self,
        acc: &Accumulator,
        jobs: usize,
        trials_done: u64,
        in_flight: usize,
    ) -> usize {
        const MAX_WAVE: usize = 4096;
        let min_wave = 32.max(jobs * 4).min(MAX_WAVE);

        let mean_trial_secs = Benchmark::ALL
            .iter()
            .map(|b| self.runner.run_duration(*b).as_secs())
            .sum::<f64>()
            / Benchmark::ALL.len() as f64;

        let mut remaining_secs = f64::INFINITY;
        if let Some(max) = self.limits.max_duration {
            remaining_secs = remaining_secs.min((max - acc.ledger.total_duration()).as_secs());
        }
        let flux = acc.flux.as_per_cm2_s();
        if flux > 0.0 {
            let fluence_left =
                self.limits.max_fluence.as_per_cm2() - acc.ledger.total_fluence().as_per_cm2();
            remaining_secs = remaining_secs.min((fluence_left / flux).max(0.0));
        }
        let events = acc.error_events();
        if self.limits.max_error_events != u64::MAX && events > 0 {
            let elapsed = acc.ledger.total_duration().as_secs();
            if elapsed > 0.0 {
                let need = self.limits.max_error_events.saturating_sub(events) as f64;
                // 20% margin: underestimating the event rate just costs one
                // more (cheap) wave, overestimating wastes speculation.
                remaining_secs =
                    remaining_secs.min(need * elapsed / events as f64 * 1.2 + mean_trial_secs);
            }
        }

        if !remaining_secs.is_finite() {
            // No rule is predictable yet (e.g. an event-limited session
            // before its first event): grow geometrically.
            return (trials_done.min(MAX_WAVE as u64) as usize).clamp(min_wave, MAX_WAVE);
        }
        // The cast saturates: a far-off fluence rule can put the estimate
        // beyond usize range.
        let estimate = ((remaining_secs / mean_trial_secs).ceil() + 1.0) as usize;
        match estimate.checked_sub(in_flight) {
            Some(left) if left > 0 => left.clamp(min_wave, MAX_WAVE),
            _ => 0,
        }
    }
}

/// One pool worker's runner, tagged with the key of the session it was
/// built for.
type WorkerRunner = Option<(u64, BenchmarkRunner)>;

/// The wave engine's pool: trial indices in, executions out.
type TrialWorkers = WorkerPool<WorkerRunner, u64, TrialExecution>;

/// The worker pool behind one campaign's sessions, or one standalone
/// session's: [`effective_workers`] threads, started on the first live
/// wave that needs them — never when that count is 1 — and joined when
/// this value drops, unwinding included.
pub(crate) struct TrialPool {
    workers: usize,
    pool: Option<TrialWorkers>,
    /// Sessions served so far; the count keys each worker's runner.
    sessions: u64,
}

impl TrialPool {
    /// The pool for a `jobs` request.
    pub(crate) fn new(jobs: usize) -> Self {
        Self::with_workers(effective_workers(jobs))
    }

    /// A pool of exactly `workers` threads, whatever the host's core
    /// count; below 2 the sessions run inline.
    pub(crate) fn with_workers(workers: usize) -> Self {
        TrialPool {
            workers,
            pool: None,
            sessions: 0,
        }
    }

    /// The running pool, started on first use, and a fresh session key;
    /// `None` when sessions run inline.
    fn start(&mut self) -> Option<(&TrialWorkers, u64)> {
        if self.workers < 2 {
            return None;
        }
        self.sessions += 1;
        let workers = self.workers;
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers));
        Some((pool, self.sessions))
    }
}

/// One wave's place in the trial sequence and its dispatch time.
struct Wave {
    first: u64,
    planned: usize,
    dispatched: Instant,
}

/// A wave running on the pool.
struct InFlight<'p> {
    wave: Wave,
    batch: Batch<'p, WorkerRunner, u64, TrialExecution>,
}

impl<'p> InFlight<'p> {
    fn submit(
        pool: &'p TrialWorkers,
        work: &Work<WorkerRunner, u64, TrialExecution>,
        first: u64,
        planned: usize,
    ) -> Self {
        let dispatched = Instant::now();
        let batch = pool.submit((first..first + planned as u64).collect(), work);
        InFlight {
            wave: Wave {
                first,
                planned,
                dispatched,
            },
            batch,
        }
    }
}

/// What one wave's merge absorbed, for its [`WaveStats`].
#[derive(Default)]
struct Merged {
    absorbed: usize,
    retries: u64,
    quarantined: u64,
    stopped: Option<StopReason>,
}

/// Runs trial `t` of a session under a [`RetryPolicy`]: benchmark
/// `ALL[t % 6]` on the counter-derived stream for `t`, timestamped from
/// the epoch (the merge re-bases timestamps onto the session clock).
///
/// Attempt 0 runs on the canonical stream `("trial", [t])` — with no
/// failures this is bit-identical to the plain path. A panicking or
/// timed-out attempt `a` is retried on `("trial", [t, a + 1])` after an
/// exponential host-time backoff; when every attempt fails the trial is
/// quarantined behind a synthetic placeholder outcome (correct verdict,
/// no events, the benchmark's nominal beam time) so one poisoned trial
/// cannot take down the wave.
fn run_trial_robust(
    runner: &mut BenchmarkRunner,
    session_rng: &SimRng,
    trial: u64,
    policy: RetryPolicy,
) -> TrialExecution {
    let benchmark = Benchmark::ALL[(trial % Benchmark::ALL.len() as u64) as usize];
    for attempt in 0..=policy.max_retries {
        let mut rng = if attempt == 0 {
            session_rng.stream("trial", &[trial])
        } else {
            session_rng.stream("trial", &[trial, u64::from(attempt)])
        };
        let result = match policy.timeout {
            None => crate::parallel::call_caught(|| {
                runner.run_once(&mut rng, benchmark, SimInstant::EPOCH)
            }),
            Some(limit) => {
                // The watchdogged attempt runs on a helper thread with its
                // own runner so a hung attempt can be abandoned.
                let dut = runner.dut().clone();
                let flux = runner.flux();
                crate::parallel::call_with_deadline(limit, move || {
                    let mut fresh = BenchmarkRunner::new(dut, flux);
                    fresh.run_once(&mut rng, benchmark, SimInstant::EPOCH)
                })
            }
        };
        match result {
            Ok(outcome) => {
                return TrialExecution {
                    trial,
                    outcome,
                    retries: attempt,
                    quarantined: false,
                }
            }
            Err(_) if attempt < policy.max_retries => {
                std::thread::sleep(crate::parallel::backoff_delay(policy.backoff, attempt));
            }
            Err(_) => {}
        }
    }
    let wall_time = runner.run_duration(benchmark);
    TrialExecution {
        trial,
        outcome: RunOutcome {
            benchmark,
            verdict: RunVerdict::Correct,
            edac: Vec::new(),
            wall_time,
            sram_strikes: 0,
        },
        retries: policy.max_retries,
        quarantined: true,
    }
}

/// The shard-merge state: everything the sequential loop used to carry,
/// folded over outcomes in canonical (trial) order.
struct Accumulator {
    flux: Flux,
    limits: SessionLimits,
    ledger: FluenceLedger,
    clock: SimInstant,
    failures: BTreeMap<FailureClass, u64>,
    per_benchmark: BTreeMap<Benchmark, BenchmarkStats>,
    edac_per_level: LevelCounts,
    memory_upsets: u64,
    sdc_with_notification: u64,
    runs: u64,
    trial_retries: u64,
    quarantined: Vec<u64>,
}

impl Accumulator {
    fn new(flux: Flux, limits: SessionLimits) -> Self {
        Accumulator {
            flux,
            limits,
            ledger: FluenceLedger::new(),
            clock: SimInstant::EPOCH,
            failures: BTreeMap::new(),
            per_benchmark: BTreeMap::new(),
            edac_per_level: LevelCounts::new(),
            memory_upsets: 0,
            sdc_with_notification: 0,
            runs: 0,
            trial_retries: 0,
            quarantined: Vec::new(),
        }
    }

    fn error_events(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Trials absorbed so far, quarantined ones included.
    fn trials(&self) -> u64 {
        self.runs + self.quarantined.len() as u64
    }

    /// Folds one [`TrialExecution`] in — the unit the journal records and
    /// the replay path re-absorbs. A quarantined execution advances the
    /// clock and the fluence ledger (beam time passed even though the
    /// trial produced no verdict) and is surfaced via
    /// [`SessionReport::quarantined_trials`], but drives no observer
    /// callbacks and contributes no runs, upsets or events.
    fn absorb_execution(
        &mut self,
        execution: TrialExecution,
        run_only: SimDuration,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> Option<StopReason> {
        self.trial_retries += u64::from(execution.retries);
        if execution.quarantined {
            self.clock += execution.outcome.wall_time;
            self.ledger.record(self.flux, execution.outcome.wall_time);
            self.quarantined.push(execution.trial);
            return self.check_stop_rules();
        }
        self.absorb(execution.outcome, run_only, observer)
    }

    /// Folds one trial outcome in, drives the observer, and evaluates the
    /// stopping rules — the exact body of the old sequential loop.
    fn absorb(
        &mut self,
        outcome: crate::runner::RunOutcome,
        run_only: SimDuration,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> Option<StopReason> {
        let benchmark = outcome.benchmark;
        let run_start = self.clock;
        self.clock += outcome.wall_time;
        self.ledger.record(self.flux, outcome.wall_time);
        self.runs += 1;

        observer.on_run(run_start, benchmark, outcome.verdict);
        for record in &outcome.edac {
            // Trials run at the epoch; re-base onto the session clock.
            let mut rebased = *record;
            rebased.time = run_start + record.time.elapsed_since(SimInstant::EPOCH);
            observer.on_edac(rebased);
        }
        if outcome.wall_time > run_only {
            observer.on_recovery(run_start + run_only, outcome.wall_time - run_only);
        }

        let stats = self.per_benchmark.entry(benchmark).or_default();
        stats.runs += 1;
        stats.memory_upsets += outcome.edac.len() as u64;
        stats.execution_time += run_only;

        self.memory_upsets += outcome.edac.len() as u64;
        for record in &outcome.edac {
            *self
                .edac_per_level
                .entry((record.cache_level(), record.severity))
                .or_insert(0) += 1;
        }
        if let Some(class) = outcome.verdict.failure_class() {
            *self.failures.entry(class).or_insert(0) += 1;
            if class == FailureClass::Sdc {
                stats.sdcs += 1;
                if outcome.verdict
                    == (RunVerdict::Sdc {
                        with_hw_notification: true,
                    })
                {
                    self.sdc_with_notification += 1;
                }
            }
        }

        self.check_stop_rules()
    }

    /// Evaluates the stopping rules in their canonical order.
    fn check_stop_rules(&self) -> Option<StopReason> {
        if self.error_events() >= self.limits.max_error_events {
            return Some(StopReason::ErrorEvents);
        }
        if self.ledger.total_fluence() >= self.limits.max_fluence {
            return Some(StopReason::Fluence);
        }
        if let Some(max) = self.limits.max_duration {
            if self.ledger.total_duration() >= max {
                return Some(StopReason::BeamTime);
            }
        }
        None
    }

    fn into_report(self, point: OperatingPoint, stop_reason: StopReason) -> SessionReport {
        SessionReport {
            operating_point: point,
            stop_reason,
            duration: self.ledger.total_duration(),
            fluence: self.ledger.total_fluence(),
            runs: self.runs,
            failures: self.failures,
            sdc_with_notification: self.sdc_with_notification,
            memory_upsets: self.memory_upsets,
            edac_per_level: self.edac_per_level,
            per_benchmark: self.per_benchmark,
            trial_retries: self.trial_retries,
            quarantined_trials: self.quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_soc::PlatformSpec;
    use serscale_types::Millivolts;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    const WORKING_FLUX: f64 = 1.5e6;

    fn dut(point: OperatingPoint) -> DeviceUnderTest {
        DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency))
    }

    /// Runs `session` through the wave engine on `jobs` workers, with no
    /// journal, cancel token or observer.
    fn run(session: &mut TestSession, seed: u64, jobs: usize) -> SessionReport {
        session
            .try_run(
                &mut SimRng::seed_from(seed),
                0,
                &mut CampaignRunOptions::with_jobs(jobs),
                &mut crate::trace::NoopObserver,
            )
            .expect("a run with no journal and no cancel token cannot fail")
    }

    fn short_session(point: OperatingPoint, minutes: f64, seed: u64) -> SessionReport {
        let mut session = TestSession::new(
            dut(point),
            Flux::per_cm2_s(WORKING_FLUX),
            SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
        );
        run(&mut session, seed, 1)
    }

    #[test]
    fn time_boxed_session_stops_on_beam_time() {
        let report = short_session(xgene2_point("Nominal"), 20.0, 1);
        assert_eq!(report.stop_reason, StopReason::BeamTime);
        assert!(report.duration.as_minutes() >= 20.0);
        // One extra run can overshoot, but only by a run + recovery.
        assert!(report.duration.as_minutes() < 23.0);
        assert!(report.runs > 200);
    }

    #[test]
    fn event_limit_stops_session() {
        let mut session = TestSession::new(
            dut(xgene2_point("Vmin")),
            Flux::per_cm2_s(WORKING_FLUX),
            SessionLimits {
                max_error_events: 5,
                max_fluence: Fluence::per_cm2(1e30),
                max_duration: None,
            },
        );
        let report = run(&mut session, 2, 1);
        assert_eq!(report.stop_reason, StopReason::ErrorEvents);
        assert_eq!(report.error_events(), 5);
    }

    #[test]
    fn fluence_limit_stops_session() {
        let mut session = TestSession::new(
            dut(xgene2_point("Nominal")),
            Flux::per_cm2_s(WORKING_FLUX),
            SessionLimits {
                max_error_events: u64::MAX,
                max_fluence: Fluence::per_cm2(1.0e9),
                max_duration: None,
            },
        );
        let report = run(&mut session, 3, 1);
        assert_eq!(report.stop_reason, StopReason::Fluence);
        assert!(report.fluence >= Fluence::per_cm2(1.0e9));
    }

    #[test]
    fn upset_rate_tracks_table2_at_nominal() {
        // Multi-seed, CI-bound: pool upset counts over independent seeds
        // and accept iff the pooled count is Poisson-consistent with the
        // Table 2 rate (1.01/min) within a 5% calibration tolerance —
        // robust to the seed, sharp against a rate regression.
        let mut upsets = 0u64;
        let mut minutes = 0.0;
        for seed in 40..45 {
            let report = short_session(xgene2_point("Nominal"), 120.0, seed);
            upsets += report.memory_upsets;
            minutes += report.duration.as_minutes();
        }
        let expected = 1.01 * minutes;
        assert!(
            serscale_stats::count_consistent_with_tolerance(upsets, expected, 0.99, 0.05),
            "{upsets} pooled upsets in {minutes:.0} min vs expected {expected:.0}"
        );
    }

    #[test]
    fn fluence_accounting_consistent() {
        let report = short_session(xgene2_point("Nominal"), 30.0, 5);
        let expected = WORKING_FLUX * report.duration.as_secs();
        assert!((report.fluence.as_per_cm2() - expected).abs() / expected < 1e-9);
        assert!(report.nyc_equivalent_years() > 0.0);
    }

    #[test]
    fn per_benchmark_stats_cover_all_six() {
        let report = short_session(xgene2_point("Nominal"), 10.0, 6);
        assert_eq!(report.per_benchmark.len(), 6);
        for (b, stats) in &report.per_benchmark {
            assert!(stats.runs > 0, "{b}");
            assert!(!stats.execution_time.is_zero(), "{b}");
        }
    }

    #[test]
    fn session_is_deterministic() {
        let a = short_session(xgene2_point("Safe"), 15.0, 7);
        let b = short_session(xgene2_point("Safe"), 15.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn reference_executor_matches_wave_engine() {
        let make = || {
            TestSession::new(
                dut(xgene2_point("Vmin")),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(30.0)),
            )
        };
        let wave = run(&mut make(), 12, 1);
        let reference =
            make().run_reference(&mut SimRng::seed_from(12), &mut crate::trace::NoopObserver);
        assert_eq!(wave, reference);
    }

    #[test]
    fn reference_executor_matches_on_event_limited_sessions() {
        // The event rule is where wave speculation overshoots; the merge
        // must discard the overshoot and land exactly where the naive
        // loop does.
        let make = || {
            TestSession::new(
                dut(xgene2_point("Vmin")),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits {
                    max_error_events: 7,
                    max_fluence: Fluence::per_cm2(1e30),
                    max_duration: None,
                },
            )
        };
        let wave = run(&mut make(), 13, 4);
        let reference =
            make().run_reference(&mut SimRng::seed_from(13), &mut crate::trace::NoopObserver);
        assert_eq!(wave, reference);
        assert_eq!(reference.stop_reason, StopReason::ErrorEvents);
    }

    #[test]
    fn failure_shares_sum_to_one_when_events_exist() {
        // Shares summing to one is exact per report; the SDC dominance
        // claim (Fig. 8 rightmost panel: 92%) is statistical, so pool
        // events over seeds and put a Wilson lower bound on the share.
        let mut sdcs = 0u64;
        let mut events = 0u64;
        for seed in 80..83 {
            let report = short_session(xgene2_point("Vmin"), 400.0, seed);
            let shares = report.failure_shares();
            let total: f64 = shares.values().sum();
            assert!((total - 1.0).abs() < 1e-9);
            sdcs += report.failure_count(FailureClass::Sdc);
            events += report.error_events();
        }
        assert!(events > 50, "events = {events}");
        let (lo, _) = serscale_stats::ci::wilson_ci(sdcs, events, 0.99);
        assert!(
            lo > 0.6,
            "SDC share 99% lower bound {lo:.3} ({sdcs}/{events})"
        );
    }

    #[test]
    fn memory_ser_in_table2_band() {
        // Table 2 row 10 reports 2.08–2.45 FIT/Mbit over the four
        // sessions; the modelled chip has ~79.7 Mbit of SRAM and its
        // nominal session sits at the low end, so the claim is the loose
        // 1.5–3.0 band. SER is linear in the upset count at fixed
        // fluence, so the band check becomes a pooled Poisson consistency
        // test against the band's center with its half-width as the
        // tolerance.
        let mbit = 79.7;
        let center = 0.5 * (1.5 + 3.0);
        let mut upsets = 0u64;
        let mut expected = 0.0;
        for seed in 90..95 {
            let report = short_session(xgene2_point("Nominal"), 60.0, seed);
            assert!(report.memory_upsets > 0, "seed {seed} saw no upsets");
            // FIT per observed count at this session's fluence.
            let per_count = report.memory_ser_fit_per_mbit(mbit) / report.memory_upsets as f64;
            upsets += report.memory_upsets;
            expected += center / per_count;
        }
        assert!(
            serscale_stats::count_consistent_with_tolerance(upsets, expected, 0.99, 1.0 / 3.0),
            "{upsets} pooled upsets vs {expected:.0} expected for {center:.2} FIT/Mbit"
        );
    }

    #[test]
    #[should_panic(expected = "beam-off session")]
    fn beam_off_without_time_limit_is_rejected() {
        let _ = TestSession::new(
            dut(xgene2_point("Nominal")),
            Flux::per_cm2_s(0.0),
            SessionLimits::standard(),
        );
    }

    #[test]
    fn beam_off_time_boxed_session_sees_nothing() {
        let mut session = TestSession::new(
            dut(xgene2_point("Nominal")),
            Flux::per_cm2_s(0.0),
            SessionLimits::time_boxed(SimDuration::from_minutes(5.0)),
        );
        let report = run(&mut session, 1, 1);
        assert_eq!(report.memory_upsets, 0);
        assert_eq!(report.error_events(), 0);
        assert_eq!(report.fluence, Fluence::ZERO);
    }

    #[test]
    fn soc_vmin_lookup_unused_at_900mhz_left_intact() {
        // Smoke: a 900 MHz session runs and the L3 keeps its SoC-domain
        // rate (checked in detail in dut tests).
        let report = short_session(xgene2_point("Vmin 900 MHz"), 20.0, 10);
        assert!(report.memory_upsets > 0);
        assert_eq!(report.operating_point.pmd, Millivolts::new(790));
    }

    /// Builds a synthetic trial outcome: a scripted verdict plus `ce`
    /// corrected and `ue` uncorrected EDAC records.
    fn scripted(verdict: RunVerdict, ce: u64, ue: u64) -> crate::runner::RunOutcome {
        use serscale_soc::edac::EdacRecord;
        use serscale_types::ArrayKind;
        let mut edac = Vec::new();
        for _ in 0..ce {
            edac.push(EdacRecord {
                time: SimInstant::EPOCH,
                array: ArrayKind::L2Unified,
                severity: EdacSeverity::Corrected,
            });
        }
        for _ in 0..ue {
            edac.push(EdacRecord {
                time: SimInstant::EPOCH,
                array: ArrayKind::L3Shared,
                severity: EdacSeverity::Uncorrected,
            });
        }
        crate::runner::RunOutcome {
            benchmark: Benchmark::Cg,
            verdict,
            edac,
            wall_time: SimDuration::from_secs(3.0),
            sram_strikes: ce + ue,
        }
    }

    /// Table-driven classification edge cases at the session-tally level:
    /// scripted verdict sequences are folded through the accumulator and
    /// the report's failure bookkeeping is checked exactly.
    #[test]
    fn classification_edge_case_table() {
        struct Case {
            name: &'static str,
            script: Vec<(RunVerdict, u64, u64)>,
            sdc: u64,
            app: u64,
            sys: u64,
            memory_upsets: u64,
            sdc_with_notification: u64,
        }
        let sdc = RunVerdict::Sdc {
            with_hw_notification: false,
        };
        let deceptive_sdc = RunVerdict::Sdc {
            with_hw_notification: true,
        };
        let cases = vec![
            Case {
                // The paper's worst beam minute: the same session takes an
                // SDC, a system crash and an application crash — each run
                // keeps its own verdict and all three classes must tally.
                name: "simultaneous-sdc-and-crashes",
                script: vec![
                    (sdc, 1, 0),
                    (RunVerdict::SysCrash, 0, 1),
                    (RunVerdict::Correct, 0, 0),
                    (RunVerdict::AppCrash, 0, 1),
                ],
                sdc: 1,
                app: 1,
                sys: 1,
                memory_upsets: 3,
                sdc_with_notification: 0,
            },
            Case {
                // A quiet session: no upsets, no failures, and the report
                // must come out all-zero without dividing by anything.
                name: "zero-upset-session",
                script: vec![
                    (RunVerdict::Correct, 0, 0),
                    (RunVerdict::Correct, 0, 0),
                    (RunVerdict::Correct, 0, 0),
                ],
                sdc: 0,
                app: 0,
                sys: 0,
                memory_upsets: 0,
                sdc_with_notification: 0,
            },
            Case {
                // EDAC-masked events: the hardware logs plenty of corrected
                // (and even uncorrected-but-architecturally-masked) errors,
                // yet every run completes correctly — upsets are counted,
                // error events stay zero.
                name: "edac-masked-events",
                script: vec![
                    (RunVerdict::Correct, 4, 0),
                    (RunVerdict::Correct, 2, 1),
                    (RunVerdict::Correct, 0, 0),
                ],
                sdc: 0,
                app: 0,
                sys: 0,
                memory_upsets: 7,
                sdc_with_notification: 0,
            },
            Case {
                // Figure 12's deceptive case: only the notified flavour
                // increments sdc_with_notification, both flavours count as
                // SDC failures.
                name: "deceptive-sdc-flavours",
                script: vec![(deceptive_sdc, 1, 0), (sdc, 0, 0)],
                sdc: 2,
                app: 0,
                sys: 0,
                memory_upsets: 1,
                sdc_with_notification: 1,
            },
        ];

        for case in cases {
            let flux = Flux::per_cm2_s(WORKING_FLUX);
            let mut acc = Accumulator::new(flux, SessionLimits::standard());
            let mut observer = crate::trace::NoopObserver;
            for &(verdict, ce, ue) in &case.script {
                let outcome = scripted(verdict, ce, ue);
                let run_only = outcome.wall_time;
                assert_eq!(
                    acc.absorb(outcome, run_only, &mut observer),
                    None,
                    "{}: stopped early",
                    case.name
                );
            }
            let runs = case.script.len() as u64;
            let report = acc.into_report(xgene2_point("Nominal"), StopReason::BeamTime);
            let count = |class| report.failures.get(&class).copied().unwrap_or(0);
            assert_eq!(count(FailureClass::Sdc), case.sdc, "{}", case.name);
            assert_eq!(count(FailureClass::AppCrash), case.app, "{}", case.name);
            assert_eq!(count(FailureClass::SysCrash), case.sys, "{}", case.name);
            assert_eq!(
                report.error_events(),
                case.sdc + case.app + case.sys,
                "{}",
                case.name
            );
            assert_eq!(report.memory_upsets, case.memory_upsets, "{}", case.name);
            assert_eq!(
                report.sdc_with_notification, case.sdc_with_notification,
                "{}",
                case.name
            );
            assert_eq!(report.runs, runs, "{}", case.name);
            let stats = report.per_benchmark[&Benchmark::Cg];
            assert_eq!(stats.runs, runs, "{}", case.name);
            assert!(
                stats.upsets_per_minute().is_finite(),
                "{}: rate must stay finite",
                case.name
            );
        }
    }

    /// The §3.5 event-limit rule counts SDCs and crashes together: a
    /// session whose events arrive as a mix trips the limit exactly on the
    /// run that reaches it, whatever the mix.
    #[test]
    fn event_limit_counts_all_failure_classes_together() {
        let sdc = RunVerdict::Sdc {
            with_hw_notification: false,
        };
        let limits = SessionLimits {
            max_error_events: 3,
            max_fluence: Fluence::per_cm2(1e30),
            max_duration: None,
        };
        let mut acc = Accumulator::new(Flux::per_cm2_s(WORKING_FLUX), limits);
        let mut observer = crate::trace::NoopObserver;
        let script = [
            (sdc, None),
            (RunVerdict::Correct, None),
            (RunVerdict::AppCrash, None),
            (RunVerdict::Correct, None),
            (RunVerdict::SysCrash, Some(StopReason::ErrorEvents)),
        ];
        for (i, &(verdict, expect)) in script.iter().enumerate() {
            let outcome = scripted(verdict, 0, 0);
            let run_only = outcome.wall_time;
            assert_eq!(
                acc.absorb(outcome, run_only, &mut observer),
                expect,
                "run {i}"
            );
        }
    }

    /// A zero per-attempt budget fails every attempt without launching
    /// it, so every trial exhausts its retries and is quarantined: the
    /// session still terminates on beam time (placeholders keep the
    /// clock honest), tallies nothing, surfaces every index — and stays
    /// bit-identical across `jobs` (placeholders carry no randomness).
    #[test]
    fn zero_timeout_quarantines_every_trial_deterministically() {
        let run = |jobs: usize| {
            let mut session = TestSession::new(
                dut(xgene2_point("Nominal")),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(5.0)),
            );
            let mut options = CampaignRunOptions {
                retry: RetryPolicy {
                    max_retries: 1,
                    backoff: std::time::Duration::ZERO,
                    timeout: Some(std::time::Duration::ZERO),
                },
                ..CampaignRunOptions::with_jobs(jobs)
            };
            session
                .try_run(
                    &mut SimRng::seed_from(31),
                    0,
                    &mut options,
                    &mut crate::trace::NoopObserver,
                )
                .expect("a run with no journal and no cancel token cannot fail")
        };
        let report = run(1);
        assert_eq!(report.stop_reason, StopReason::BeamTime);
        assert_eq!(report.runs, 0, "every trial quarantined");
        assert_eq!(report.memory_upsets, 0);
        assert_eq!(report.error_events(), 0);
        let n = report.quarantined_trials.len() as u64;
        assert!(n > 0);
        assert_eq!(report.quarantined_trials, (0..n).collect::<Vec<_>>());
        assert_eq!(report.trial_retries, n, "one retry per quarantined trial");
        assert_eq!(run(4), report, "quarantine path must stay deterministic");
    }

    /// The zero-upset short-circuit in the batched runner must be
    /// invisible to everything downstream: a trial whose Poisson count
    /// comes up zero still gets its `on_run` callback, its journal row
    /// and its report bookkeeping, identical to the naive per-event
    /// executor. A quiet-beam session (≈every trial short-circuits) is
    /// run through the wave engine with a journal and a [`Logbook`] and
    /// diffed against the reference executor.
    ///
    /// [`Logbook`]: crate::trace::Logbook
    #[test]
    fn zero_upset_fast_path_reports_and_journals_identically() {
        use crate::journal::start_or_resume;
        // Flux low enough that essentially every trial draws zero events
        // (the short-circuit path) while the session still spans hundreds
        // of trials.
        let quiet_flux = Flux::per_cm2_s(WORKING_FLUX * 1e-3);
        let limits = SessionLimits::time_boxed(SimDuration::from_minutes(10.0));
        let make = || TestSession::new(dut(xgene2_point("Nominal")), quiet_flux, limits);

        let mut reference_log = crate::trace::Logbook::new();
        let reference = make().run_reference(&mut SimRng::seed_from(23), &mut reference_log);

        let dir = std::env::temp_dir().join(format!(
            "serscale-zero-upset-journal-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = crate::campaign::CampaignConfig::paper_scaled(0.01);
        let (mut journal, recovered) = start_or_resume(&dir, &config).unwrap();
        assert!(recovered.is_none());
        let mut wave_log = crate::trace::Logbook::new();
        let report = make()
            .try_run(
                &mut SimRng::seed_from(23),
                0,
                &mut CampaignRunOptions {
                    journal: Some(&mut journal),
                    ..CampaignRunOptions::with_jobs(8)
                },
                &mut wave_log,
            )
            .expect("journal writes succeed");
        drop(journal);

        assert_eq!(report, reference);
        assert_eq!(wave_log, reference_log);
        // The short-circuit really was exercised: plenty of trials, almost
        // none of them with an upset.
        assert!(report.runs > 100, "runs = {}", report.runs);
        assert!(
            report.memory_upsets < report.runs / 10,
            "{} upsets in {} runs — beam not quiet enough to exercise the fast path",
            report.memory_upsets,
            report.runs
        );
        // Every trial has its Run event in the trace…
        let run_events = wave_log
            .events()
            .iter()
            .filter(|e| matches!(e, crate::trace::LogEvent::Run { .. }))
            .count() as u64;
        assert_eq!(run_events, report.runs);
        // …and its row in the journal, in trial order, none quarantined.
        let (_, recovered) = start_or_resume(&dir, &config).unwrap();
        let recovered = recovered.unwrap();
        let journaled = recovered.session(0).expect("session 0 journaled");
        assert_eq!(journaled.trials.len() as u64, report.runs);
        for (i, t) in journaled.trials.iter().enumerate() {
            assert_eq!(t.trial, i as u64, "journal rows out of order");
            assert!(!t.quarantined);
        }
        assert_eq!(journaled.ended, Some(StopReason::BeamTime));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The robust path at the default policy is bit-identical to the
    /// engine's historical behavior: attempt 0 uses the unchanged
    /// canonical trial stream.
    #[test]
    fn robust_path_matches_plain_run_when_nothing_fails() {
        let make = || {
            TestSession::new(
                dut(xgene2_point("Vmin")),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(20.0)),
            )
        };
        let plain = run(&mut make(), 17, 1);
        let report = make()
            .try_run(
                &mut SimRng::seed_from(17),
                0,
                &mut CampaignRunOptions {
                    retry: RetryPolicy::with_timeout(std::time::Duration::from_secs(30)),
                    ..CampaignRunOptions::with_jobs(2)
                },
                &mut crate::trace::NoopObserver,
            )
            .expect("a run with no journal and no cancel token cannot fail");
        assert_eq!(report, plain);
        assert_eq!(report.trial_retries, 0);
        assert!(report.quarantined_trials.is_empty());
    }

    /// What a pipelined test run hands back for comparison.
    struct Observed {
        report: SessionReport,
        log: crate::trace::Logbook,
        waves: Vec<WaveStats>,
        journal: Vec<u8>,
    }

    /// A test observer: the simulation trace, plus every wave's stats and
    /// an optional trip wire on the `n`th `on_run` callback.
    struct Probe {
        log: crate::trace::Logbook,
        wire: Tripwire,
    }

    struct Tripwire {
        waves: Vec<WaveStats>,
        runs: u64,
        trip: Option<(u64, Trip)>,
    }

    enum Trip {
        Cancel(crate::scheduler::CancelToken),
        Panic,
    }

    impl Probe {
        fn new(trip: Option<(u64, Trip)>) -> Self {
            Probe {
                log: crate::trace::Logbook::new(),
                wire: Tripwire {
                    waves: Vec::new(),
                    runs: 0,
                    trip,
                },
            }
        }

        fn observer(&mut self) -> impl SessionObserver + '_ {
            crate::trace::tee(&mut self.log, &mut self.wire)
        }
    }

    impl SessionObserver for Tripwire {
        fn on_run(&mut self, _: SimInstant, _: Benchmark, _: RunVerdict) {
            self.runs += 1;
            match &self.trip {
                Some((at, Trip::Cancel(token))) if *at == self.runs => token.cancel(),
                Some((at, Trip::Panic)) if *at == self.runs => panic!("observer tripped mid-merge"),
                _ => {}
            }
        }
        fn on_wave(&mut self, stats: WaveStats) {
            self.waves.push(stats);
        }
    }

    /// A fresh journal directory per test case.
    fn journal_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("serscale-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The campaign whose header the standalone-session journals carry:
    /// one session at Vmin @ 2.4 GHz, where these tests run.
    fn journal_config() -> crate::campaign::CampaignConfig {
        let mut config = crate::campaign::CampaignConfig::paper_scaled(0.01);
        config.sessions = vec![(xgene2_point("Vmin"), SessionLimits::standard())];
        config
    }

    fn vmin_session(limits: SessionLimits) -> TestSession {
        TestSession::new(
            dut(xgene2_point("Vmin")),
            Flux::per_cm2_s(WORKING_FLUX),
            limits,
        )
    }

    /// Runs `session` from `seed` on `pool` (planning waves for `jobs`),
    /// journaled into `dir` and observed by `probe`.
    fn journaled_run(
        session: &mut TestSession,
        pool: &mut TrialPool,
        jobs: usize,
        seed: u64,
        dir: &std::path::Path,
        probe: &mut Probe,
        cancel: Option<crate::scheduler::CancelToken>,
    ) -> Result<SessionReport, RunError> {
        let (mut journal, recovered) =
            crate::journal::start_or_resume(dir, &journal_config()).unwrap();
        assert!(recovered.is_none(), "fresh journal directory");
        let mut options = CampaignRunOptions {
            journal: Some(&mut journal),
            cancel,
            ..CampaignRunOptions::with_jobs(jobs)
        };
        session.try_run_on(
            pool,
            &mut SimRng::seed_from(seed),
            0,
            &mut options,
            &mut probe.observer(),
        )
    }

    /// One completed journaled run on a pool of exactly `workers` threads
    /// (1 = the inline reference path).
    fn observed(limits: SessionLimits, seed: u64, workers: usize, tag: &str) -> Observed {
        let dir = journal_dir(&format!("{tag}-w{workers}"));
        let mut probe = Probe::new(None);
        let report = journaled_run(
            &mut vmin_session(limits),
            &mut TrialPool::with_workers(workers),
            workers,
            seed,
            &dir,
            &mut probe,
            None,
        )
        .expect("journal writes succeed");
        let journal = std::fs::read(crate::journal::journal_path(&dir)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        Observed {
            report,
            log: probe.log,
            waves: probe.wire.waves,
            journal,
        }
    }

    /// The pipelined pool — wave k+1 running while wave k merges — lands
    /// exactly where the inline loop does under every stopping rule: same
    /// report, same trace, same journal bytes, at 2, 3 and 8 workers
    /// whatever the host's core count.
    #[test]
    fn pipelined_pool_matches_inline_for_every_stop_rule() {
        let cases = [
            (
                "time-box",
                SessionLimits::time_boxed(SimDuration::from_minutes(240.0)),
                StopReason::BeamTime,
            ),
            (
                "event-limit",
                SessionLimits {
                    max_error_events: 7,
                    max_fluence: Fluence::per_cm2(1e30),
                    max_duration: None,
                },
                StopReason::ErrorEvents,
            ),
            (
                "fluence-limit",
                SessionLimits {
                    max_error_events: u64::MAX,
                    max_fluence: Fluence::per_cm2(1.0e9),
                    max_duration: None,
                },
                StopReason::Fluence,
            ),
            // The §3.5 rule: a hundred events near Vmin take two waves,
            // and the stopping trial lies in the second, in flight while
            // the first merged.
            (
                "standard-rules",
                SessionLimits::standard(),
                StopReason::ErrorEvents,
            ),
        ];
        for (tag, limits, reason) in cases {
            let inline = observed(limits, 41, 1, tag);
            assert_eq!(inline.report.stop_reason, reason, "{tag}");
            for workers in [2, 3, 8] {
                let piped = observed(limits, 41, workers, tag);
                assert_eq!(
                    piped.report, inline.report,
                    "{tag}: report at {workers} workers"
                );
                assert_eq!(piped.log, inline.log, "{tag}: trace at {workers} workers");
                assert!(
                    piped.journal == inline.journal,
                    "{tag}: journal bytes at {workers} workers"
                );
                assert!(piped.waves.iter().all(|w| w.pool.workers.len() == workers));
                if tag == "standard-rules" {
                    // The stop lands in the second wave, which went out
                    // while the first merged: an empty accumulator puts
                    // the fluence estimate far past one wave.
                    assert_eq!(piped.waves.len(), 2, "{tag} at {workers} workers");
                }
            }
        }
    }

    /// An event limit of one stops the session in its first wave (near
    /// Vmin an event comes every hundred trials or so). When that wave is
    /// collected nothing is merged yet and the fluence limit is
    /// astronomically far, so the next wave is already in flight when the
    /// limit fires; it must be dropped without a trace.
    #[test]
    fn stop_with_a_wave_in_flight_drops_it_unmerged() {
        let limits = SessionLimits {
            max_error_events: 1,
            max_fluence: Fluence::per_cm2(1e30),
            max_duration: None,
        };
        for seed in [3, 4, 5] {
            let inline = observed(limits, seed, 1, "first-event");
            for workers in [2, 8] {
                let piped = observed(limits, seed, workers, "first-event");
                assert_eq!(
                    piped.report, inline.report,
                    "seed {seed}, {workers} workers"
                );
                assert_eq!(piped.log, inline.log);
                assert!(piped.journal == inline.journal);
                assert_eq!(piped.waves.len(), 1, "seed {seed}: the first wave stops");
                assert_eq!(piped.waves[0].absorbed as u64, piped.report.runs);
            }
        }
    }

    /// The pipelined path keeps wave telemetry meaningful: the pool's wall
    /// time ends when its last chunk does (so the caller's merge of the
    /// previous wave is not worker idle time), it bounds every worker's
    /// busy time, and the wave's host time — dispatch to the end of its
    /// merge — covers it.
    #[test]
    fn pipelined_wave_telemetry_stays_in_bounds() {
        let limits = SessionLimits::time_boxed(SimDuration::from_minutes(400.0));
        for workers in [2, 3, 8] {
            let run = observed(limits, 43, workers, "telemetry");
            assert!(run.waves.len() >= 2, "{} waves", run.waves.len());
            for wave in &run.waves {
                let pool = &wave.pool;
                assert_eq!(pool.workers.len(), workers);
                assert!(pool.critical_path_nanos() <= pool.wall_nanos, "{wave:?}");
                assert!((0.0..=1.0).contains(&pool.utilization()), "{wave:?}");
                assert!(wave.host_nanos >= pool.wall_nanos, "{wave:?}");
                let shards: u64 = pool.workers.iter().map(|w| w.shards).sum();
                assert_eq!(shards, wave.planned as u64, "{wave:?}");
            }
        }
    }

    /// A cancel fired from an observer while wave k merges lands at the
    /// next wave boundary: wave k finishes merging and is journaled, the
    /// wave already in flight is dropped, and the journal holds exactly
    /// the absorbed trials. Resuming it at jobs 1 and at jobs 8 reproduces
    /// the uninterrupted report and trace.
    #[test]
    fn cancel_mid_merge_journals_exactly_the_absorbed_trials() {
        // About a hundred events take two 4096-trial waves near Vmin, so
        // run 2000 falls in the first wave's merge, with the second in
        // flight.
        let limits = SessionLimits::standard();
        let uninterrupted = observed(limits, 47, 1, "cancel-reference");
        for workers in [2, 8] {
            let dir = journal_dir(&format!("cancel-w{workers}"));
            let token = crate::scheduler::CancelToken::new();
            let mut probe = Probe::new(Some((2000, Trip::Cancel(token.clone()))));
            let outcome = journaled_run(
                &mut vmin_session(limits),
                &mut TrialPool::with_workers(workers),
                workers,
                47,
                &dir,
                &mut probe,
                Some(token),
            );
            assert!(
                matches!(outcome, Err(RunError::Cancelled)),
                "{workers} workers"
            );
            let absorbed: usize = probe.wire.waves.iter().map(|w| w.absorbed).sum();
            assert_eq!(
                probe.wire.waves.len(),
                1,
                "the cancel lands after the first wave"
            );
            assert_eq!(
                absorbed, probe.wire.waves[0].planned,
                "the merge in progress completes"
            );
            assert_eq!(probe.wire.runs, absorbed as u64);
            let (_, recovered) = crate::journal::start_or_resume(&dir, &journal_config()).unwrap();
            let journaled = recovered.expect("a cancelled run leaves a journal");
            let session = journaled.session(0).expect("session 0 journaled");
            assert_eq!(session.trials.len(), absorbed, "{workers} workers");
            assert_eq!(session.ended, None);

            let journal = std::fs::read(crate::journal::journal_path(&dir)).unwrap();
            for jobs in [1, 8] {
                let copy = journal_dir(&format!("cancel-w{workers}-resume{jobs}"));
                std::fs::write(crate::journal::journal_path(&copy), &journal).unwrap();
                let (mut writer, recovered) =
                    crate::journal::start_or_resume(&copy, &journal_config()).unwrap();
                let recovered = recovered.expect("prefix recovers");
                let mut log = crate::trace::Logbook::new();
                let resumed = vmin_session(limits)
                    .try_run(
                        &mut SimRng::seed_from(47),
                        0,
                        &mut CampaignRunOptions {
                            journal: Some(&mut writer),
                            recovered: Some(&recovered),
                            ..CampaignRunOptions::with_jobs(jobs)
                        },
                        &mut log,
                    )
                    .expect("resume completes");
                drop(writer);
                assert_eq!(resumed, uninterrupted.report, "resume at jobs {jobs}");
                assert_eq!(log, uninterrupted.log, "trace resumed at jobs {jobs}");
                let _ = std::fs::remove_dir_all(&copy);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An observer that panics while the first wave merges — with the
    /// second in flight, as in the cancel test — unwinds to the caller
    /// with its own message, and the pool dropped on the way out joins
    /// its workers, so this test returns.
    #[test]
    fn observer_panic_mid_merge_propagates_and_joins_the_pool() {
        let limits = SessionLimits::standard();
        for workers in [2, 8] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut pool = TrialPool::with_workers(workers);
                let mut probe = Probe::new(Some((2000, Trip::Panic)));
                make_run(&mut pool, workers, limits, &mut probe)
            }));
            let payload = caught.expect_err("the observer's panic propagates");
            let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "observer tripped mid-merge", "{workers} workers");
        }

        fn make_run(
            pool: &mut TrialPool,
            workers: usize,
            limits: SessionLimits,
            probe: &mut Probe,
        ) -> Result<SessionReport, RunError> {
            vmin_session(limits).try_run_on(
                pool,
                &mut SimRng::seed_from(53),
                0,
                &mut CampaignRunOptions::with_jobs(workers),
                &mut probe.observer(),
            )
        }
    }
}
