//! Energy-resolved neutron spectrum and energy-dependent upset
//! cross-sections.
//!
//! The campaign accounting elsewhere in this workspace works with the
//! integrated >10 MeV flux, exactly like the paper (and JESD89B). This
//! module carries the next level of fidelity for analyses that need it:
//!
//! * an atmospheric-like differential spectrum `dΦ/dE ∝ E^(−γ)` above the
//!   SEE threshold (γ ≈ 1.25 fits the ground-level spectrum's slope in
//!   the 10–1000 MeV band that matters for 28 nm upsets), plus a thermal
//!   component at the facility's measured contamination fraction;
//! * the standard Weibull turn-on of the per-bit upset cross-section,
//!   `σ(E) = σ_sat·(1 − exp(−((E−E₀)/W)^s))`, which is how radiation
//!   test reports parameterize energy response;
//! * the folding integral `σ_eff = ∫σ(E)·φ(E)dE / ∫φ(E)dE` that justifies
//!   treating the calibrated `σ_bit` of `serscale-sram` as
//!   spectrum-averaged.

use serscale_stats::SimRng;
use serscale_types::{CrossSection, NeutronEnergy};

/// An atmospheric-like neutron energy spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeutronSpectrum {
    /// Spectral index γ of the power-law tail.
    gamma: f64,
    /// Lower integration bound (the >10 MeV SEE threshold).
    e_min_mev: f64,
    /// Upper cutoff (ground-level flux is negligible beyond ~10 GeV).
    e_max_mev: f64,
    /// Fraction of the total flux arriving thermal.
    thermal_fraction: f64,
}

impl NeutronSpectrum {
    /// The JEDEC-like ground-level reference shape: γ = 1.25 over
    /// 10 MeV – 10 GeV, no thermal component.
    pub fn atmospheric() -> Self {
        NeutronSpectrum {
            gamma: 1.25,
            e_min_mev: 10.0,
            e_max_mev: 1.0e4,
            thermal_fraction: 0.0,
        }
    }

    /// The TNF beam-halo shape: same fast tail, ~15 % thermal
    /// contamination (§3.4 of the paper).
    pub fn tnf_halo() -> Self {
        NeutronSpectrum {
            thermal_fraction: 0.15,
            ..Self::atmospheric()
        }
    }

    /// Creates a spectrum.
    ///
    /// # Panics
    ///
    /// Panics on a non-physical configuration (γ ≤ 1 breaks the
    /// normalization; inverted bounds; thermal fraction outside [0,1)).
    pub fn new(gamma: f64, e_min_mev: f64, e_max_mev: f64, thermal_fraction: f64) -> Self {
        assert!(
            gamma > 1.0,
            "spectral index must exceed 1 for a normalizable tail"
        );
        assert!(0.0 < e_min_mev && e_min_mev < e_max_mev, "bounds inverted");
        assert!(
            (0.0..1.0).contains(&thermal_fraction),
            "thermal fraction in [0,1)"
        );
        NeutronSpectrum {
            gamma,
            e_min_mev,
            e_max_mev,
            thermal_fraction,
        }
    }

    /// The spectral index.
    pub const fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The thermal flux fraction.
    pub const fn thermal_fraction(&self) -> f64 {
        self.thermal_fraction
    }

    /// Samples a neutron energy from the spectrum (inverse-CDF for the
    /// truncated power law; thermal neutrons return
    /// [`NeutronEnergy::THERMAL`]).
    pub fn sample_energy(&self, rng: &mut SimRng) -> NeutronEnergy {
        if rng.chance(self.thermal_fraction) {
            return NeutronEnergy::THERMAL;
        }
        // Inverse CDF of E^-γ on [e_min, e_max]:
        // E = (e_min^(1-γ) + u·(e_max^(1-γ) − e_min^(1-γ)))^(1/(1-γ))
        let a = 1.0 - self.gamma;
        let lo = self.e_min_mev.powf(a);
        let hi = self.e_max_mev.powf(a);
        let u = rng.uniform();
        NeutronEnergy::mev((lo + u * (hi - lo)).powf(1.0 / a))
    }

    /// The normalized differential flux φ(E) at `e` (fast component only;
    /// integrates to `1 − thermal_fraction` over `[e_min, e_max]`).
    pub fn pdf(&self, e: NeutronEnergy) -> f64 {
        let e = e.as_mev();
        if e < self.e_min_mev || e > self.e_max_mev {
            return 0.0;
        }
        let a = 1.0 - self.gamma;
        let norm = (self.e_max_mev.powf(a) - self.e_min_mev.powf(a)) / a;
        (1.0 - self.thermal_fraction) * e.powf(-self.gamma) / norm
    }

    /// Folds an energy-dependent cross-section over the fast spectrum by
    /// Simpson integration in log-energy: the spectrum-averaged σ_eff.
    pub fn fold(&self, response: &WeibullResponse) -> CrossSection {
        let steps = 2000usize;
        let ln_lo = self.e_min_mev.ln();
        let ln_hi = self.e_max_mev.ln();
        let h = (ln_hi - ln_lo) / steps as f64;
        let integrand = |ln_e: f64| {
            let e = ln_e.exp();
            // dE = E·d(lnE)
            response.sigma(NeutronEnergy::mev(e)).as_cm2() * self.pdf(NeutronEnergy::mev(e)) * e
        };
        let mut sum = integrand(ln_lo) + integrand(ln_hi);
        for i in 1..steps {
            let w = if i % 2 == 0 { 2.0 } else { 4.0 };
            sum += w * integrand(ln_lo + h * i as f64);
        }
        let sigma = sum * h / 3.0 / (1.0 - self.thermal_fraction).max(1e-12);
        CrossSection::cm2(sigma.max(0.0))
    }
}

/// A Weibull energy response of the per-bit upset cross-section — the
/// canonical parameterization of radiation test data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullResponse {
    /// Saturation cross-section (cm²/bit).
    sigma_sat: CrossSection,
    /// Threshold energy E₀ (MeV): below it, no upsets.
    threshold_mev: f64,
    /// Width parameter W (MeV).
    width_mev: f64,
    /// Shape parameter s.
    shape: f64,
}

impl WeibullResponse {
    /// A 28 nm-ish response: ~3 MeV effective threshold, saturating by a
    /// few tens of MeV. `sigma_sat` is chosen so the atmospheric-folded
    /// σ_eff matches the calibrated 1×10⁻¹⁵ cm²/bit of `serscale-sram`.
    pub fn tech_28nm() -> Self {
        WeibullResponse {
            sigma_sat: CrossSection::cm2(1.21e-15),
            threshold_mev: 3.0,
            width_mev: 20.0,
            shape: 1.5,
        }
    }

    /// Creates a response.
    ///
    /// # Panics
    ///
    /// Panics if width or shape are not positive.
    pub fn new(sigma_sat: CrossSection, threshold_mev: f64, width_mev: f64, shape: f64) -> Self {
        assert!(width_mev > 0.0, "width must be positive");
        assert!(shape > 0.0, "shape must be positive");
        WeibullResponse {
            sigma_sat,
            threshold_mev,
            width_mev,
            shape,
        }
    }

    /// The saturation cross-section.
    pub const fn sigma_sat(&self) -> CrossSection {
        self.sigma_sat
    }

    /// σ(E): zero below threshold, Weibull turn-on above, → σ_sat.
    pub fn sigma(&self, e: NeutronEnergy) -> CrossSection {
        let e = e.as_mev();
        if e <= self.threshold_mev {
            return CrossSection::ZERO;
        }
        let x = ((e - self.threshold_mev) / self.width_mev).powf(self.shape);
        CrossSection::cm2(self.sigma_sat.as_cm2() * (1.0 - (-x).exp()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_energies_within_bounds_and_decreasing() {
        let s = NeutronSpectrum::atmospheric();
        let mut rng = SimRng::seed_from(1);
        let mut below_100 = 0;
        let mut above_100 = 0;
        for _ in 0..20_000 {
            let e = s.sample_energy(&mut rng).as_mev();
            assert!((10.0..=1.0e4).contains(&e));
            if e < 100.0 {
                below_100 += 1;
            } else {
                above_100 += 1;
            }
        }
        // Soft spectrum: the low-energy decade holds the majority
        // (analytically ≈53% of a γ=1.25 tail on [10 MeV, 10 GeV]).
        assert!(below_100 > above_100, "{below_100} vs {above_100}");
    }

    #[test]
    fn thermal_fraction_respected() {
        let s = NeutronSpectrum::tnf_halo();
        let mut rng = SimRng::seed_from(2);
        let thermal = (0..20_000)
            .filter(|_| !s.sample_energy(&mut rng).is_see_relevant())
            .count();
        let frac = thermal as f64 / 20_000.0;
        assert!((frac - 0.15).abs() < 0.01, "thermal fraction = {frac}");
    }

    #[test]
    fn pdf_normalizes() {
        let s = NeutronSpectrum::atmospheric();
        // Trapezoid integral of pdf over [10, 1e4] in log space ≈ 1.
        let steps = 20_000;
        let (lo, hi) = (10.0f64.ln(), 1.0e4f64.ln());
        let h = (hi - lo) / steps as f64;
        let mut total = 0.0;
        for i in 0..steps {
            let ln_e = lo + h * (i as f64 + 0.5);
            let e = ln_e.exp();
            total += s.pdf(NeutronEnergy::mev(e)) * e * h;
        }
        assert!((total - 1.0).abs() < 1e-3, "∫pdf = {total}");
    }

    #[test]
    fn weibull_turn_on_shape() {
        let w = WeibullResponse::tech_28nm();
        assert_eq!(w.sigma(NeutronEnergy::mev(1.0)).as_cm2(), 0.0);
        let at_10 = w.sigma(NeutronEnergy::mev(10.0)).as_cm2();
        let at_50 = w.sigma(NeutronEnergy::mev(50.0)).as_cm2();
        let at_500 = w.sigma(NeutronEnergy::mev(500.0)).as_cm2();
        assert!(at_10 < at_50 && at_50 < at_500);
        assert!(at_500 > 0.99 * w.sigma_sat().as_cm2());
    }

    #[test]
    fn folded_sigma_matches_the_calibrated_bit_cross_section() {
        // The whole point: σ_eff over the atmospheric spectrum ≈ the
        // 1e-15 cm²/bit the campaign model uses as its flat σ_bit.
        let folded = NeutronSpectrum::atmospheric().fold(&WeibullResponse::tech_28nm());
        let target = 1.0e-15;
        assert!(
            (folded.as_cm2() - target).abs() / target < 0.10,
            "σ_eff = {:.3e}",
            folded.as_cm2()
        );
    }

    #[test]
    fn harder_spectrum_raises_effective_sigma() {
        // A flatter (harder) spectrum puts more flux above the Weibull
        // knee → larger σ_eff.
        let soft = NeutronSpectrum::new(1.6, 10.0, 1.0e4, 0.0);
        let hard = NeutronSpectrum::new(1.05, 10.0, 1.0e4, 0.0);
        let w = WeibullResponse::tech_28nm();
        assert!(hard.fold(&w).as_cm2() > soft.fold(&w).as_cm2());
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = NeutronSpectrum::tnf_halo();
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            (0..50)
                .map(|_| s.sample_energy(&mut rng).as_mev())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }
}
