//! The Vmin characterization sweep (§4.1): pfail curves.

use serscale_soc::PlatformSpec;
use serscale_stats::ci::wilson_ci;
use serscale_stats::SimRng;
use serscale_types::{Megahertz, Millivolts};
use serscale_workload::Benchmark;

use crate::timing::TimingFailureModel;

/// One measured point of a pfail curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfailPoint {
    /// The tested voltage.
    pub voltage: Millivolts,
    /// Failed executions across all benchmarks.
    pub failures: u64,
    /// Total executions across all benchmarks.
    pub trials: u64,
}

impl PfailPoint {
    /// The observed failure probability.
    pub fn pfail(&self) -> f64 {
        self.failures as f64 / self.trials as f64
    }

    /// The Wilson 95 % interval on the failure probability.
    pub fn pfail_ci(&self) -> (f64, f64) {
        wilson_ci(self.failures, self.trials, 0.95)
    }
}

/// A full pfail-vs-voltage sweep at one frequency — one panel of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct PfailCurve {
    /// The swept frequency.
    pub frequency: Megahertz,
    /// Points in descending-voltage order.
    pub points: Vec<PfailPoint>,
}

impl PfailCurve {
    /// The safe Vmin: the lowest tested voltage at which *no* execution
    /// failed, provided every voltage above it was also failure-free
    /// (the paper's definition — a single anomalous pass below a failing
    /// level does not count).
    pub fn safe_vmin(&self) -> Option<Millivolts> {
        let mut vmin = None;
        for p in &self.points {
            // points are descending in voltage
            if p.failures == 0 {
                vmin = Some(p.voltage);
            } else {
                break;
            }
        }
        vmin
    }

    /// The voltage at which failures become certain (first tested level
    /// with pfail = 100 %), if the sweep reached one.
    pub fn full_failure_voltage(&self) -> Option<Millivolts> {
        self.points
            .iter()
            .find(|p| p.failures == p.trials)
            .map(|p| p.voltage)
    }

    /// The guardband exposed by the sweep: nominal minus safe Vmin, in mV.
    pub fn guardband_mv(&self, nominal: Millivolts) -> Option<u32> {
        self.safe_vmin().map(|v| nominal - v)
    }
}

/// The characterization harness: sweeps voltage at a fixed frequency,
/// running every benchmark `trials_per_benchmark` times per 5 mV step,
/// exactly as §4.1 describes ("we ran the entire undervolting experiments
/// hundreds of times for each benchmark and on each frequency").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Characterizer {
    timing: TimingFailureModel,
    trials_per_benchmark: u32,
}

impl Characterizer {
    /// Creates a harness.
    ///
    /// # Panics
    ///
    /// Panics if `trials_per_benchmark` is zero.
    pub fn new(timing: TimingFailureModel, trials_per_benchmark: u32) -> Self {
        assert!(
            trials_per_benchmark > 0,
            "need at least one trial per benchmark"
        );
        Characterizer {
            timing,
            trials_per_benchmark,
        }
    }

    /// The underlying timing model.
    pub const fn timing(&self) -> &TimingFailureModel {
        &self.timing
    }

    /// The harness for a platform spec's own timing physics.
    pub fn for_platform(spec: &PlatformSpec, trials_per_benchmark: u32) -> Self {
        Self::new(TimingFailureModel::for_platform(spec), trials_per_benchmark)
    }

    /// Sweeps a platform's own rail range: from its PMD nominal down to
    /// its characterization floor, stopping early at the first 100 %
    /// failure level.
    pub fn sweep_platform(
        &self,
        rng: &mut SimRng,
        spec: &PlatformSpec,
        frequency: Megahertz,
    ) -> PfailCurve {
        self.sweep_range(rng, frequency, spec.pmd_rail.nominal, spec.sweep_floor)
    }

    /// Sweeps an explicit `[floor, start]` voltage range downward: every
    /// benchmark runs `trials_per_benchmark` times per 5 mV step, stopping
    /// at the first 100 %-failure level or at `floor`.
    pub fn sweep_range(
        &self,
        rng: &mut SimRng,
        frequency: Megahertz,
        start: Millivolts,
        floor: Millivolts,
    ) -> PfailCurve {
        let trials = Benchmark::ALL.len() as u64 * u64::from(self.trials_per_benchmark);
        let mut points = Vec::new();
        let mut voltage = start;
        loop {
            let failures = (0..trials)
                .filter(|_| self.timing.sample_run_fails(rng, voltage, frequency))
                .count() as u64;
            points.push(PfailPoint {
                voltage,
                failures,
                trials,
            });
            if failures == trials || voltage <= floor {
                break;
            }
            voltage = voltage.stepped_down(1);
        }
        PfailCurve { frequency, points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The X-Gene 2's Figure 4 sweep: 980 mV down, 100 runs per benchmark
    /// per step.
    fn sweep(rng: &mut SimRng, frequency: Megahertz) -> PfailCurve {
        let spec = PlatformSpec::xgene2();
        Characterizer::for_platform(&spec, 100).sweep_platform(rng, &spec, frequency)
    }

    #[test]
    fn sweep_finds_paper_vmin_at_2400() {
        let mut rng = SimRng::seed_from(7);
        let curve = sweep(&mut rng, Megahertz::new(2400));
        assert_eq!(curve.safe_vmin(), Some(Millivolts::new(920)));
    }

    #[test]
    fn sweep_finds_paper_vmin_at_900() {
        let mut rng = SimRng::seed_from(7);
        let curve = sweep(&mut rng, Megahertz::new(900));
        assert_eq!(curve.safe_vmin(), Some(Millivolts::new(790)));
    }

    #[test]
    fn pfail_rises_monotonically_below_vmin_in_expectation() {
        // The measured curve is noisy, but the underlying trend must show:
        // last point (full failure) > first failing point.
        let mut rng = SimRng::seed_from(8);
        let curve = sweep(&mut rng, Megahertz::new(2400));
        let first_fail = curve
            .points
            .iter()
            .find(|p| p.failures > 0)
            .expect("sweep failed");
        let last = curve.points.last().expect("nonempty");
        assert!(last.pfail() > first_fail.pfail());
        assert_eq!(last.pfail(), 1.0);
    }

    #[test]
    fn guardband_matches_paper() {
        // 980 − 920 = 60 mV of exploitable guardband at 2.4 GHz.
        let mut rng = SimRng::seed_from(7);
        let curve = sweep(&mut rng, Megahertz::new(2400));
        assert_eq!(curve.guardband_mv(Millivolts::new(980)), Some(60));
    }

    #[test]
    fn failure_window_is_about_20mv_at_2400() {
        let mut rng = SimRng::seed_from(9);
        let curve = sweep(&mut rng, Megahertz::new(2400));
        let vmin = curve.safe_vmin().unwrap();
        let dead = curve.full_failure_voltage().unwrap();
        let window = vmin - dead;
        assert!((15..=30).contains(&window), "window = {window} mV");
    }

    #[test]
    fn failure_window_is_shorter_at_900() {
        let mut rng_a = SimRng::seed_from(10);
        let mut rng_b = SimRng::seed_from(10);
        let c24 = sweep(&mut rng_a, Megahertz::new(2400));
        let c09 = sweep(&mut rng_b, Megahertz::new(900));
        let window = |c: &PfailCurve| c.safe_vmin().unwrap() - c.full_failure_voltage().unwrap();
        assert!(
            window(&c09) < window(&c24),
            "{} !< {}",
            window(&c09),
            window(&c24)
        );
    }

    #[test]
    fn sweep_is_deterministic_under_seed() {
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            sweep(&mut rng, Megahertz::new(2400))
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn pfail_point_ci_brackets_estimate() {
        let p = PfailPoint {
            voltage: Millivolts::new(910),
            failures: 30,
            trials: 100,
        };
        let (lo, hi) = p.pfail_ci();
        assert!(lo < 0.30 && 0.30 < hi);
    }

    #[test]
    fn platform_sweep_finds_the_zynq_anchors() {
        let spec = PlatformSpec::zynq_mpsoc();
        let harness = Characterizer::for_platform(&spec, 100);
        let mut rng = SimRng::seed_from(7);
        let hi = harness.sweep_platform(&mut rng, &spec, Megahertz::new(1500));
        let lo = harness.sweep_platform(&mut rng, &spec, Megahertz::new(600));
        // The characterization lands on (or within a step of) the spec's
        // declared anchors, and never below its sweep floor.
        for (curve, anchor) in [(&hi, 750u32), (&lo, 660)] {
            let vmin = curve.safe_vmin().expect("sweep finds a safe level");
            assert!(vmin.get().abs_diff(anchor) <= 5, "{vmin} vs {anchor} mV");
            let last = curve.points.last().expect("nonempty");
            assert!(last.voltage >= spec.sweep_floor);
        }
        assert_eq!(hi.points[0].voltage, spec.pmd_rail.nominal);
    }
}
