//! Per-benchmark sensitivity profiles.
//!
//! The campaign model needs four measurable characteristics per benchmark:
//!
//! * **runtime** — class-A executions finish in < 5 s (§3.3 chose class A
//!   precisely so at most one radiation event lands per run);
//! * **detection factor** — what share of the raw cache-upset rate this
//!   benchmark's footprint/access pattern makes *observable* through the
//!   EDAC reporting. Upsets in lines the program never touches (or
//!   overwrites before reading) are never detected, which is why the paper
//!   measures ~1 upset/min while the raw §3.3 strike arithmetic predicts
//!   several (§3.5's explanation for the gap to the static-test SER
//!   of \[83\]). Calibrated per benchmark against Figure 5's 980 mV bars.
//! * **consume probability** — the chance that silently corrupted data is
//!   actually consumed into the output (the workload AVF component for
//!   SDCs);
//! * **power factor** — relative power draw (Fig. 9 plots the
//!   across-benchmark average; individual kernels differ by a few percent).

use std::sync::OnceLock;

use serscale_types::SimDuration;

use crate::cg::{Cg, CgReplay};
use crate::ep::{Ep, EpReplay};
use crate::ft::Ft;
use crate::is::Is;
use crate::kernel::{Kernel, KernelOutput};
use crate::lu::Lu;
use crate::mg::Mg;
use crate::stepped::Checkpointed;

/// The six NAS Parallel Benchmarks of the campaign (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    /// Conjugate Gradient.
    Cg,
    /// Embarrassingly Parallel.
    Ep,
    /// 3-D Fast Fourier Transform.
    Ft,
    /// Integer Sort.
    Is,
    /// SSOR regular-sparse solver.
    Lu,
    /// Multigrid.
    Mg,
}

impl Benchmark {
    /// All benchmarks, in the order the campaign cycles through them.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Cg,
        Benchmark::Ep,
        Benchmark::Ft,
        Benchmark::Is,
        Benchmark::Lu,
        Benchmark::Mg,
    ];

    /// The benchmark's short name.
    pub const fn name(self) -> &'static str {
        match self {
            Benchmark::Cg => "CG",
            Benchmark::Ep => "EP",
            Benchmark::Ft => "FT",
            Benchmark::Is => "IS",
            Benchmark::Lu => "LU",
            Benchmark::Mg => "MG",
        }
    }

    /// Instantiates the class-A-shaped executable kernel.
    pub fn kernel(self) -> Box<dyn Kernel> {
        match self {
            Benchmark::Cg => Box::new(Cg::class_a()),
            Benchmark::Ep => Box::new(Ep::class_a()),
            Benchmark::Ft => Box::new(Ft::class_a()),
            Benchmark::Is => Box::new(Is::class_a()),
            Benchmark::Lu => Box::new(Lu::class_a()),
            Benchmark::Mg => Box::new(Mg::class_a()),
        }
    }

    /// The process-wide shared instance of this benchmark's class-A
    /// kernel, checkpointed.
    ///
    /// Kernels are pure (construction and execution are deterministic
    /// functions of the fixed class-A configuration), so every runner and
    /// pool worker can share one instance instead of reconstructing input
    /// arrays per worker per wave. Built lazily on first use by the one
    /// golden pass, which also keeps the golden snapshots its
    /// [`Kernel::run_corrupted`] resumes from ([`Checkpointed`]) or, for
    /// CG and EP, the golden increments it replays ([`CgReplay`],
    /// [`EpReplay`]); outputs and [`Kernel::corrupts`] verdicts equal
    /// [`Benchmark::kernel`]'s full re-execution bit for bit.
    pub fn shared_kernel(self) -> &'static (dyn Kernel + Send + Sync) {
        static KERNELS: [OnceLock<Box<dyn Kernel + Send + Sync>>; 6] =
            [const { OnceLock::new() }; 6];
        KERNELS[self as usize]
            .get_or_init(|| match self {
                Benchmark::Cg => Box::new(CgReplay::new(Cg::class_a())),
                Benchmark::Ep => Box::new(EpReplay::new(Ep::class_a())),
                Benchmark::Ft => Box::new(Checkpointed::new(Ft::class_a())),
                Benchmark::Is => Box::new(Checkpointed::new(Is::class_a())),
                Benchmark::Lu => Box::new(Checkpointed::new(Lu::class_a())),
                Benchmark::Mg => Box::new(Checkpointed::new(Mg::class_a())),
            })
            .as_ref()
    }

    /// The process-wide shared golden (fault-free) output of this
    /// benchmark's class-A kernel.
    ///
    /// A golden run costs as much as the kernel itself (milliseconds), so
    /// recomputing it per runner — and per pool worker — dwarfs the trials
    /// it adjudicates. The output is a pure value; one copy serves every
    /// SDC comparison in the process. It comes from the golden pass behind
    /// [`Benchmark::shared_kernel`], never from a second one.
    pub fn shared_golden(self) -> &'static KernelOutput {
        static GOLDENS: [OnceLock<KernelOutput>; 6] = [const { OnceLock::new() }; 6];
        GOLDENS[self as usize].get_or_init(|| self.shared_kernel().golden())
    }

    /// The benchmark's calibrated sensitivity profile.
    pub fn profile(self) -> WorkloadProfile {
        // detection_factor calibrated so that the across-benchmark pattern
        // matches Fig. 5's 980 mV bars (CG 0.87, LU 1.15, FT 1.11, EP 1.03,
        // MG 0.94, IS 1.03 upsets/min against a 1.01 total), normalized to
        // a mean of 1.0.
        match self {
            Benchmark::Cg => WorkloadProfile::new(self, 2.3, 0.851, 0.50, 0.97),
            Benchmark::Ep => WorkloadProfile::new(self, 4.6, 1.008, 0.25, 1.04),
            Benchmark::Ft => WorkloadProfile::new(self, 3.1, 1.086, 0.45, 1.01),
            Benchmark::Is => WorkloadProfile::new(self, 1.2, 1.008, 0.40, 0.96),
            Benchmark::Lu => WorkloadProfile::new(self, 4.4, 1.125, 0.45, 1.02),
            Benchmark::Mg => WorkloadProfile::new(self, 2.2, 0.920, 0.40, 1.00),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The core clock, in MHz, at which every profile's class-A runtime is
/// quoted (the X-Gene 2's 2.4 GHz); a run at another clock stretches in
/// proportion.
pub const RUNTIME_REFERENCE_MHZ: f64 = 2400.0;

/// The measurable characteristics of one benchmark (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    benchmark: Benchmark,
    runtime: SimDuration,
    detection_factor: f64,
    consume_probability: f64,
    power_factor: f64,
}

impl WorkloadProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if the runtime is not positive, the detection factor is not
    /// positive, the consume probability is outside `\[0, 1\]`, or the power
    /// factor is not positive.
    pub fn new(
        benchmark: Benchmark,
        runtime_secs: f64,
        detection_factor: f64,
        consume_probability: f64,
        power_factor: f64,
    ) -> Self {
        assert!(runtime_secs > 0.0, "runtime must be positive");
        assert!(detection_factor > 0.0, "detection factor must be positive");
        assert!(
            (0.0..=1.0).contains(&consume_probability),
            "consume probability must be in [0,1]"
        );
        assert!(power_factor > 0.0, "power factor must be positive");
        WorkloadProfile {
            benchmark,
            runtime: SimDuration::from_secs(runtime_secs),
            detection_factor,
            consume_probability,
            power_factor,
        }
    }

    /// Which benchmark this profile describes.
    pub const fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Class-A wall-clock runtime on the 8-core platform at
    /// [`RUNTIME_REFERENCE_MHZ`].
    pub const fn runtime(&self) -> SimDuration {
        self.runtime
    }

    /// The observability multiplier on raw cache-upset rates (mean 1.0
    /// across the suite).
    pub const fn detection_factor(&self) -> f64 {
        self.detection_factor
    }

    /// Probability that silently corrupted data reaches the output.
    pub const fn consume_probability(&self) -> f64 {
        self.consume_probability
    }

    /// Relative power draw (suite mean 1.0).
    pub const fn power_factor(&self) -> f64 {
        self.power_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_profiles_and_kernels() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert_eq!(p.benchmark(), b);
            let k = b.kernel();
            assert_eq!(k.name(), b.name());
        }
    }

    #[test]
    fn runtimes_under_five_seconds() {
        // §3.3: class A keeps runs below 5 s to avoid multi-event runs.
        for b in Benchmark::ALL {
            assert!(b.profile().runtime().as_secs() < 5.0, "{b}");
        }
    }

    #[test]
    fn detection_factors_average_to_one() {
        let mean: f64 = Benchmark::ALL
            .iter()
            .map(|b| b.profile().detection_factor())
            .sum::<f64>()
            / 6.0;
        assert!((mean - 1.0).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn detection_ordering_matches_figure5() {
        // Fig. 5 @ 980 mV: LU > FT > {EP, IS} > MG > CG.
        let f = |b: Benchmark| b.profile().detection_factor();
        assert!(f(Benchmark::Lu) > f(Benchmark::Ft));
        assert!(f(Benchmark::Ft) > f(Benchmark::Ep));
        assert!(f(Benchmark::Ep) > f(Benchmark::Mg));
        assert!(f(Benchmark::Mg) > f(Benchmark::Cg));
    }

    #[test]
    fn kernels_are_deterministic_through_the_trait() {
        for b in Benchmark::ALL {
            let k = b.kernel();
            assert_eq!(k.run(), k.golden(), "{b}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Benchmark::Cg.to_string(), "CG");
        assert_eq!(Benchmark::Mg.to_string(), "MG");
    }
}
