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
    /// verdicted by bit-exact golden comparison. Injections ask the shared
    /// kernel's [`corrupts`](serscale_workload::Kernel::corrupts), which
    /// gives the full re-execution's verdict and stops each run once that
    /// is known.
    pub fn estimate(&self, rng: &mut SimRng, benchmark: Benchmark) -> AvfEstimate {
        let kernel = benchmark.shared_kernel();
        let mut corruptions = 0u32;
        for _ in 0..self.injections_per_benchmark {
            let corruption = Corruption::new(
                rng.uniform_in(0.0, 0.999),
                rng.below(1 << 20) as usize,
                rng.below(64) as u8,
            );
            if kernel.corrupts(corruption) {
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
/// exploration" rows implication #3 asks for), on the template's platform
/// at its frequency and Vmin.
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
            let dut = DeviceUnderTest::for_platform(template.soc().spec(), point, template.vmin());
            (v, predicted_suite_sdc_fit(&dut, avfs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_soc::platform::OperatingPoint;
    use serscale_soc::PlatformSpec;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    // Debug-mode kernel runs are slow; small samples suffice for the
    // invariants checked here (the example runs larger ones).
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
        let vmin = DeviceUnderTest::paper_vmin(xgene2_point("Nominal").frequency);
        let template = DeviceUnderTest::xgene2(xgene2_point("Nominal"), vmin);
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
    fn voltage_table_keeps_the_template_platform() {
        // A Zynq template predicts with the Zynq's physics at every
        // voltage, not the X-Gene 2's.
        let spec = serscale_soc::PlatformSpec::zynq_mpsoc();
        let nominal = spec.nominal_point();
        let template =
            DeviceUnderTest::for_platform(&spec, nominal, spec.vmin_at(nominal.frequency));
        let avfs = [AvfEstimate {
            benchmark: Benchmark::Cg,
            injections: 10,
            corruptions: 5,
            lower: 0.2,
            upper: 0.8,
        }];
        let voltages = [nominal.pmd, spec.campaign[2].point.pmd];
        let table = sdc_fit_vs_voltage(&avfs, &voltages, &template);
        assert_eq!(table.len(), 2);
        for (v, fit) in table {
            let point = OperatingPoint { pmd: v, ..nominal };
            let dut = DeviceUnderTest::for_platform(&spec, point, template.vmin());
            assert_eq!(fit, predicted_suite_sdc_fit(&dut, &avfs), "{v}");
        }
    }

    #[test]
    fn prediction_brackets_the_campaign_scale() {
        // The implication-#3 prediction at nominal should land in the same
        // decade as the beam campaign's measured SDC FIT (paper: 2.54).
        let mut rng = SimRng::seed_from(5);
        let avfs = FaultInjector::new(12).estimate_suite(&mut rng);
        let vmin = DeviceUnderTest::paper_vmin(xgene2_point("Nominal").frequency);
        let dut = DeviceUnderTest::xgene2(xgene2_point("Nominal"), vmin);
        let fit = predicted_suite_sdc_fit(&dut, &avfs).get();
        assert!(fit > 0.3 && fit < 10.0, "predicted SDC FIT = {fit}");
    }
}
