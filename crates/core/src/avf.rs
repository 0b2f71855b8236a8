//! Architectural-Vulnerability-Factor estimation by statistical fault
//! injection — the paper's Design implication #3, implemented.
//!
//! > "The reported cache upset rates can be used in microarchitecture-level
//! > fault injection studies to estimate the application FIT rates of
//! > different microprocessor designs at scaled supply voltage levels."
//!
//! Beam testing measures the end-to-end rate but cannot localize faults;
//! fault injection can. This module runs the *actual benchmark kernels*
//! with single bit flips injected at uniformly random (time, word, bit)
//! coordinates and measures the probability that the flip corrupts the
//! output — the workload's AVF in the Mukherjee \[46\] sense, with a Wilson
//! 95 % interval from `serscale-stats`.
//!
//! Combining the measured AVF with a raw per-structure FIT (cross-section
//! × flux) predicts the application-level SDC FIT at any voltage, which is
//! exactly the methodology the design implication proposes — and the
//! prediction can be cross-checked against the simulated beam campaign.

use serscale_stats::ci::wilson_ci;
use serscale_stats::SimRng;
use serscale_types::{Fit, Flux, Millivolts, NYC_SEA_LEVEL_FLUX};
use serscale_workload::kernel::Corruption;
use serscale_workload::Benchmark;

use crate::dut::DeviceUnderTest;

/// The result of a fault-injection campaign on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvfEstimate {
    /// The injected benchmark.
    pub benchmark: Benchmark,
    /// Injections performed.
    pub injections: u32,
    /// Injections whose output mismatched the golden reference.
    pub corruptions: u32,
    /// Wilson 95 % lower bound on the AVF.
    pub lower: f64,
    /// Wilson 95 % upper bound on the AVF.
    pub upper: f64,
}

impl AvfEstimate {
    /// The point estimate: corrupted / injected.
    pub fn avf(&self) -> f64 {
        f64::from(self.corruptions) / f64::from(self.injections)
    }
}

/// Statistical fault injector for the benchmark kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjector {
    injections_per_benchmark: u32,
}

impl FaultInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if `injections_per_benchmark` is zero.
    pub fn new(injections_per_benchmark: u32) -> Self {
        assert!(injections_per_benchmark > 0, "need at least one injection");
        FaultInjector {
            injections_per_benchmark,
        }
    }

    /// Runs the injection campaign for one benchmark: every injection is a
    /// kernel execution with one bit flipped at random coordinates,
    /// verdicted by bit-exact golden comparison. Injections run on the
    /// shared checkpointed kernel, which returns the full re-execution's
    /// output from the nearest golden snapshot.
    pub fn estimate(&self, rng: &mut SimRng, benchmark: Benchmark) -> AvfEstimate {
        let kernel = benchmark.shared_kernel();
        let golden = benchmark.shared_golden();
        let mut corruptions = 0u32;
        for _ in 0..self.injections_per_benchmark {
            let corruption = Corruption::new(
                rng.uniform_in(0.0, 0.999),
                rng.below(1 << 20) as usize,
                rng.below(64) as u8,
            );
            if !kernel.run_corrupted(corruption).matches(golden) {
                corruptions += 1;
            }
        }
        let (lower, upper) = wilson_ci(
            u64::from(corruptions),
            u64::from(self.injections_per_benchmark),
            0.95,
        );
        AvfEstimate {
            benchmark,
            injections: self.injections_per_benchmark,
            corruptions,
            lower,
            upper,
        }
    }

    /// Injection campaign across the whole suite.
    pub fn estimate_suite(&self, rng: &mut SimRng) -> Vec<AvfEstimate> {
        Benchmark::ALL
            .into_iter()
            .map(|b| self.estimate(&mut rng.fork_indexed("avf", b as u64), b))
            .collect()
    }
}

/// The IEEE-754 bit regions of a 64-bit float, for position-resolved AVF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BitClass {
    /// Bits 0–31: low mantissa — tiny relative perturbations.
    MantissaLow,
    /// Bits 32–51: high mantissa — visible relative perturbations.
    MantissaHigh,
    /// Bits 52–62: exponent — order-of-magnitude corruption.
    Exponent,
    /// Bit 63: sign.
    Sign,
}

impl BitClass {
    /// All classes, least significant first.
    pub const ALL: [BitClass; 4] = [
        BitClass::MantissaLow,
        BitClass::MantissaHigh,
        BitClass::Exponent,
        BitClass::Sign,
    ];

    /// The class's short name.
    pub const fn name(self) -> &'static str {
        match self {
            BitClass::MantissaLow => "mantissa-low",
            BitClass::MantissaHigh => "mantissa-high",
            BitClass::Exponent => "exponent",
            BitClass::Sign => "sign",
        }
    }

    /// Samples a bit index within this class.
    pub fn sample_bit(self, rng: &mut SimRng) -> u8 {
        match self {
            BitClass::MantissaLow => rng.below(32) as u8,
            BitClass::MantissaHigh => 32 + rng.below(20) as u8,
            BitClass::Exponent => 52 + rng.below(11) as u8,
            BitClass::Sign => 63,
        }
    }
}

impl std::fmt::Display for BitClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FaultInjector {
    /// Position-resolved injection: AVF per IEEE-754 bit region. Exponent
    /// and sign flips essentially always corrupt a numeric kernel's
    /// output; low-mantissa flips are where architectural masking lives
    /// (rounding, overwrites, integer-coded state).
    pub fn estimate_by_bit_class(
        &self,
        rng: &mut SimRng,
        benchmark: Benchmark,
    ) -> Vec<(BitClass, AvfEstimate)> {
        let kernel = benchmark.shared_kernel();
        let golden = benchmark.shared_golden();
        BitClass::ALL
            .into_iter()
            .map(|class| {
                let mut class_rng = rng.fork_indexed("bitclass", class as u64);
                let mut corruptions = 0u32;
                for _ in 0..self.injections_per_benchmark {
                    let corruption = Corruption::new(
                        class_rng.uniform_in(0.0, 0.999),
                        class_rng.below(1 << 20) as usize,
                        class.sample_bit(&mut class_rng),
                    );
                    if !kernel.run_corrupted(corruption).matches(golden) {
                        corruptions += 1;
                    }
                }
                let (lower, upper) = wilson_ci(
                    u64::from(corruptions),
                    u64::from(self.injections_per_benchmark),
                    0.95,
                );
                (
                    class,
                    AvfEstimate {
                        benchmark,
                        injections: self.injections_per_benchmark,
                        corruptions,
                        lower,
                        upper,
                    },
                )
            })
            .collect()
    }
}

/// The design-implication-#3 prediction: application SDC FIT at a voltage
/// from (raw datapath FIT at that voltage) × (injected AVF) ×
/// (the benchmark's probability of holding live state when struck).
///
/// `consume_probability` plays the "live state" role the beam campaign
/// uses; the AVF then refines "consumed" into "actually corrupts the
/// output" with measured masking.
pub fn predicted_sdc_fit(dut: &DeviceUnderTest, avf: &AvfEstimate, natural_flux: Flux) -> Fit {
    let raw_fit = dut.datapath_sigma().fit_at(natural_flux);
    let profile = avf.benchmark.profile();
    Fit::new(raw_fit.get() * profile.consume_probability() * avf.avf())
}

/// Suite-average predicted SDC FIT at an operating voltage, comparable to
/// the beam campaign's measured SDC FIT.
pub fn predicted_suite_sdc_fit(dut: &DeviceUnderTest, avfs: &[AvfEstimate]) -> Fit {
    assert!(!avfs.is_empty(), "need at least one AVF estimate");
    let sum: f64 = avfs
        .iter()
        .map(|a| predicted_sdc_fit(dut, a, NYC_SEA_LEVEL_FLUX).get())
        .sum();
    Fit::new(sum / avfs.len() as f64)
}

/// A voltage-resolved SDC FIT prediction table (the "design space
/// exploration" rows implication #3 asks for).
pub fn sdc_fit_vs_voltage(
    avfs: &[AvfEstimate],
    voltages: &[Millivolts],
    template: &DeviceUnderTest,
) -> Vec<(Millivolts, Fit)> {
    voltages
        .iter()
        .map(|&v| {
            let mut point = template.operating_point();
            point.pmd = v;
            let dut = DeviceUnderTest::xgene2(point, template.vmin());
            (v, predicted_suite_sdc_fit(&dut, avfs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_soc::platform::OperatingPoint;

    // Debug-mode kernel runs are slow; small samples suffice for the
    // invariants checked here (the example and benches run larger ones).
    fn injector() -> FaultInjector {
        FaultInjector::new(12)
    }

    #[test]
    fn avf_estimates_are_probabilities_with_brackets() {
        let mut rng = SimRng::seed_from(1);
        for est in injector().estimate_suite(&mut rng) {
            let avf = est.avf();
            assert!((0.0..=1.0).contains(&avf), "{:?}", est.benchmark);
            assert!(est.lower <= avf + 1e-12 && avf <= est.upper + 1e-12);
            assert_eq!(est.injections, 12);
        }
    }

    #[test]
    fn most_injected_flips_corrupt_dense_numeric_kernels() {
        // Bit flips in live f64 state rarely mask completely in CG/FT/LU —
        // the classic reason numeric codes have high SDC AVFs.
        let mut rng = SimRng::seed_from(2);
        let est = FaultInjector::new(40).estimate(&mut rng, Benchmark::Cg);
        assert!(est.avf() > 0.5, "CG AVF = {}", est.avf());
    }

    #[test]
    fn injection_is_deterministic_under_seed() {
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            injector().estimate(&mut rng, Benchmark::Is)
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn predicted_sdc_fit_scales_with_voltage() {
        let mut rng = SimRng::seed_from(4);
        let avfs = FaultInjector::new(12).estimate_suite(&mut rng);
        let vmin = DeviceUnderTest::paper_vmin(OperatingPoint::nominal().frequency);
        let template = DeviceUnderTest::xgene2(OperatingPoint::nominal(), vmin);
        let table = sdc_fit_vs_voltage(
            &avfs,
            &[
                Millivolts::new(980),
                Millivolts::new(930),
                Millivolts::new(920),
            ],
            &template,
        );
        assert_eq!(table.len(), 3);
        // FIT rises as voltage falls, with the Vmin cliff.
        assert!(table[1].1.get() > table[0].1.get());
        assert!(table[2].1.get() > 5.0 * table[1].1.get());
    }

    #[test]
    fn exponent_flips_corrupt_more_than_low_mantissa() {
        // CG: an exponent flip in the solution vector is catastrophic; a
        // low-mantissa flip can round away or vanish under convergence.
        let mut rng = SimRng::seed_from(6);
        let by_class = FaultInjector::new(24).estimate_by_bit_class(&mut rng, Benchmark::Cg);
        let avf = |c: BitClass| {
            by_class
                .iter()
                .find(|(class, _)| *class == c)
                .expect("class present")
                .1
                .avf()
        };
        assert!(avf(BitClass::Exponent) >= avf(BitClass::MantissaLow));
        assert!(
            avf(BitClass::Exponent) > 0.8,
            "exponent AVF = {}",
            avf(BitClass::Exponent)
        );
    }

    #[test]
    fn bit_class_sampling_stays_in_region() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..200 {
            assert!(BitClass::MantissaLow.sample_bit(&mut rng) < 32);
            let hi = BitClass::MantissaHigh.sample_bit(&mut rng);
            assert!((32..52).contains(&hi));
            let e = BitClass::Exponent.sample_bit(&mut rng);
            assert!((52..63).contains(&e));
            assert_eq!(BitClass::Sign.sample_bit(&mut rng), 63);
        }
    }

    #[test]
    fn prediction_brackets_the_campaign_scale() {
        // The implication-#3 prediction at nominal should land in the same
        // decade as the beam campaign's measured SDC FIT (paper: 2.54).
        let mut rng = SimRng::seed_from(5);
        let avfs = FaultInjector::new(12).estimate_suite(&mut rng);
        let vmin = DeviceUnderTest::paper_vmin(OperatingPoint::nominal().frequency);
        let dut = DeviceUnderTest::xgene2(OperatingPoint::nominal(), vmin);
        let fit = predicted_suite_sdc_fit(&dut, &avfs).get();
        assert!(fit > 0.3 && fit < 10.0, "predicted SDC FIT = {fit}");
    }
}
