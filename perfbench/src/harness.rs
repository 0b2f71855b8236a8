//! What every workload shares: campaign seeds and references computed
//! during preparation, the correctness ledger, the fixed-work iteration
//! loop, and the layer microbenchmarks every traced run repeats.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serscale_core::campaign::{Campaign, CampaignConfig};
use serscale_core::dut::DeviceUnderTest;
use serscale_core::report::golden_summary;
use serscale_core::runner::BenchmarkRunner;
use serscale_soc::PlatformSpec;
use serscale_sram::StrikeScratch;
use serscale_stats::SimRng;
use serscale_types::SimInstant;
use serscale_workload::{Benchmark, Corruption};

use crate::stats::median;
use crate::trace::Tracer;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The paper campaign (X-Gene 2, Table 2 schedule, scale 1.0) at `seed`.
pub fn config(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::for_platform_scaled(&PlatformSpec::xgene2(), 1.0);
    config.seed = seed;
    config
}

/// The campaign seeds a run cycles through, derived from the workload
/// seed. Kept below 2^48 so they survive a JSON double round trip.
pub fn campaign_seeds(workload_seed: u64, count: usize) -> Vec<u64> {
    let root = SimRng::seed_from(workload_seed);
    (0..count as u64)
        .map(|i| root.fork_indexed("perfbench-iteration", i).next_seed() & ((1 << 48) - 1))
        .collect()
}

/// A `jobs = 1` reference for one campaign seed, computed before timing.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Campaign seed.
    pub seed: u64,
    /// `golden_summary` bytes every timed run of this seed must reproduce.
    pub summary: String,
    /// Completed trials of the campaign.
    pub trials: u64,
}

impl Reference {
    /// Runs the campaign once, inline, and keeps its report bytes.
    pub fn compute(seed: u64) -> Self {
        let report = Campaign::new(config(seed)).run_parallel(1);
        Reference {
            seed,
            summary: golden_summary(&report),
            trials: report.sessions.iter().map(|s| s.runs).sum(),
        }
    }
}

/// Attempted and failed checked operations, with the first failures kept
/// for the log.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Counts an operation that returned an error as failed.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, String::new);
                Some(value)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Per-iteration results of the untraced pass, by metric.
#[derive(Debug, Default)]
pub struct Series {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The untraced turnarounds comparable to the traced iteration's:
    /// those of the first campaign seed (every job's, on `service-mix`,
    /// whose traced mix repeats the same seed cycle).
    pub baseline_turnaround: Vec<f64>,
    /// Iterations the pass ran.
    pub iterations: usize,
    /// Scraper latency, on `service-mix`.
    pub http: Option<crate::service::HttpSummary>,
}

impl Series {
    /// Adds one sample.
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// The median of every metric's samples.
    pub fn medians(&self) -> Values {
        self.samples
            .iter()
            .filter_map(|(name, v)| median(v).map(|m| (*name, m)))
            .collect()
    }
}

/// Everything one run of a workload works with.
#[derive(Debug)]
pub struct Ctx {
    /// References of the campaign seeds the iterations cycle through.
    pub refs: Vec<Reference>,
    /// How long the untraced pass measures.
    pub seconds: f64,
    /// A scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
    /// The correctness ledger.
    pub checks: Checks,
}

impl Ctx {
    /// The reference iteration `k` uses.
    pub fn reference(&self, k: usize) -> &Reference {
        &self.refs[k % self.refs.len()]
    }
}

/// Resets the process's peak-RSS watermark. The workloads reset it before
/// each fixed-work iteration and read it after, so a peak belongs to one
/// iteration and never to preparation or to how many iterations fit in a
/// run. Returns whether the kernel allowed the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs fixed-work iterations `0, 1, …` until `seconds` have passed (at
/// least one), returning how many ran.
pub fn repeat_for(seconds: f64, mut iteration: impl FnMut(usize)) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0;
    loop {
        iteration(k);
        k += 1;
        if Instant::now() >= deadline {
            return k;
        }
    }
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Median of samples, 0 when there are none.
pub fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The layer microbenchmarks every traced run repeats: corrupted kernel
/// runs, golden computation, the cold-runner envelope rebuild and SRAM
/// strikes. Inputs are drawn from `seed` the way the runner draws them.
pub fn microbenchmarks(seed: u64, tracer: &mut Tracer, out: &mut Values) {
    const KERNEL_RUNS: usize = 15;
    let mut rng = SimRng::seed_from(seed).fork("perfbench-kernels");
    let kernel_metrics = [
        "workload.kernel_us.cg",
        "workload.kernel_us.ep",
        "workload.kernel_us.ft",
        "workload.kernel_us.is",
        "workload.kernel_us.lu",
        "workload.kernel_us.mg",
    ];
    for (benchmark, name) in Benchmark::ALL.into_iter().zip(kernel_metrics) {
        let kernel = benchmark.shared_kernel();
        let samples: Vec<f64> = (0..KERNEL_RUNS)
            .map(|_| {
                let corruption = Corruption::new(
                    rng.uniform_in(0.0, 0.999),
                    rng.below(1 << 20) as usize,
                    rng.below(64) as u8,
                );
                tracer.measure("workload.kernel", || kernel.run_corrupted(corruption)) / 1e3
            })
            .collect();
        out.insert(name, p50(&samples));
    }
    let golden: Vec<f64> = (0..3)
        .map(|_| {
            Benchmark::ALL
                .into_iter()
                .map(|b| tracer.measure("workload.golden", || b.kernel().golden()))
                .sum::<f64>()
                / 1e6
        })
        .collect();
    out.insert("workload.golden_ms", median(&golden).unwrap_or(0.0));

    // Cold runner: the first trial on a fresh runner rebuilds the rate
    // envelope, as every pool worker does each wave; the same trial
    // repeated on the warm runner does not.
    let spec = PlatformSpec::xgene2();
    let point = spec.nominal_point();
    let dut = DeviceUnderTest::for_platform(&spec, point, spec.vmin_at(point.frequency));
    let paper = config(seed);
    let flux = paper.facility.flux_at(paper.position);
    let trials = SimRng::seed_from(seed).fork("perfbench-cold");
    let mut cold_minus_warm = Vec::new();
    for (index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let stream = || trials.stream("trial", &[index as u64]);
        let cold: Vec<f64> = (0..5)
            .map(|_| {
                let mut runner = BenchmarkRunner::new(dut.clone(), flux);
                tracer.measure("runner.cold", || {
                    runner.run_once(&mut stream(), benchmark, SimInstant::EPOCH)
                })
            })
            .collect();
        let mut runner = BenchmarkRunner::new(dut.clone(), flux);
        let warm: Vec<f64> = (0..25)
            .map(|_| {
                tracer.measure("runner.warm", || {
                    runner.run_once(&mut stream(), benchmark, SimInstant::EPOCH)
                })
            })
            .collect();
        cold_minus_warm.push(median(&cold).unwrap_or(0.0) - p50(&warm));
    }
    out.insert(
        "runner.cold_trial_us",
        median(&cold_minus_warm).unwrap_or(0.0) / 1e3,
    );

    // SRAM strikes: cluster lengths from each array's MBU model at its
    // domain voltage, classified into one reused scratch arena.
    let mut rng = SimRng::seed_from(seed).fork("perfbench-strikes");
    let mut scratch = StrikeScratch::new();
    let arrays: Vec<_> = dut.soc().arrays().copied().collect();
    let samples: Vec<f64> = (0..4000)
        .map(|i| {
            let instance = &arrays[i % arrays.len()];
            let array = instance.array();
            let cluster = dut
                .mbu_model(array.voltage_domain())
                .sample_cluster_len(&mut rng, dut.array_voltage(instance));
            tracer.measure("sram.strike", || {
                array.strike_into(&mut rng, cluster, &mut scratch)
            })
        })
        .collect();
    out.insert("sram.strike_ns_p50", p50(&samples));
}
