//! Mechanism ablations: turn each modelled cause off and show which
//! measured effect disappears.
//!
//! The simulator earns its keep by being *dissectable* — something the
//! beam campaign cannot be. Each ablation here removes exactly one
//! mechanism the paper identifies and recomputes the observable it
//! explains:
//!
//! | ablation | removed mechanism | effect that disappears |
//! |---|---|---|
//! | [`no_margin_amplification`] | near-Vmin timing-margin collapse | the SDC-FIT cliff at Vmin (Fig. 8/11) |
//! | [`interleaved_l3`] | the L3's *lack* of interleaving | L3-exclusive uncorrectable errors (Fig. 6) |
//! | [`voltage_insensitive_sram`] | Qcrit ∝ V | Table 2's rising upset rates |
//! | [`secded_everywhere`] | parity-only L1/TLB protection | (nothing — L1 SBUs were already harmless, the paper's Design implication #1) |
//!
//! Every ablation reads its physics, arrays and operating points from a
//! [`PlatformSpec`]: the baseline is the spec's first campaign point, and
//! "Vmin" is the spec's Vmin rule at the baseline's frequency.

use serscale_ecc::{ProtectionScheme, UpsetOutcome};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::spec::ArraySpec;
use serscale_soc::PlatformSpec;
use serscale_sram::{SoftErrorModel, SramArray};
use serscale_stats::SimRng;
use serscale_types::{ArrayKind, CrossSection, Millivolts, VoltageDomain};

use crate::dut::DeviceUnderTest;

/// The spec's baseline point, its frequency's Vmin, and the DUT at the
/// baseline anchored on that Vmin.
fn baseline(spec: &PlatformSpec) -> (OperatingPoint, Millivolts, DeviceUnderTest) {
    let point = spec.nominal_point();
    let vmin = spec.vmin_at(point.frequency);
    (
        point,
        vmin,
        DeviceUnderTest::for_platform(spec, point, vmin),
    )
}

/// The spec's entry for an array kind, if the die has one.
fn array(spec: &PlatformSpec, kind: ArrayKind) -> Option<&ArraySpec> {
    spec.arrays.iter().find(|a| a.kind == kind)
}

/// Ablation 1: a logic model with the margin amplification removed
/// (`A = 0`), all else equal. The returned pair is
/// `(σ_data ratio Vmin/baseline with the mechanism, without it)`.
pub fn no_margin_amplification(spec: &PlatformSpec) -> (f64, f64) {
    let (point, vmin, dut) = baseline(spec);
    let (logic, f) = (dut.logic(), point.frequency);
    let with =
        logic.sigma_data(vmin, f, vmin).as_cm2() / logic.sigma_data(point.pmd, f, vmin).as_cm2();
    // Without the amplification the datapath scales like any stored bit:
    // the pure Qcrit factor.
    let without = dut.sram_model(VoltageDomain::Pmd).sigma_ratio(vmin);
    (with, without)
}

/// Ablation 2: give the L3 the same 4-way interleaving as the smaller
/// arrays and measure the uncorrectable-error share of its strikes, with
/// the PMD-domain cluster model at Vmin. Returns
/// `(ue_share_uninterleaved, ue_share_interleaved)` over `strikes` sampled
/// strikes, or `None` when the die has no L3.
pub fn interleaved_l3(spec: &PlatformSpec, rng_seed: u64, strikes: u32) -> Option<(f64, f64)> {
    let l3 = array(spec, ArrayKind::L3Shared)?;
    let (_, vmin, dut) = baseline(spec);
    let mbu = dut.mbu_model(VoltageDomain::Pmd);
    let share = |interleave: u32, rng: &mut SimRng| {
        let array = SramArray::new(ArrayKind::L3Shared, l3.capacity, l3.protection, interleave);
        let mut ue = 0u32;
        for _ in 0..strikes {
            let cluster = mbu.sample_cluster_len(rng, vmin);
            let effect = array.strike(rng, cluster);
            if effect
                .words
                .iter()
                .any(|w| w.outcome == UpsetOutcome::DetectedUncorrectable)
            {
                ue += 1;
            }
        }
        f64::from(ue) / f64::from(strikes)
    };
    let mut rng_a = SimRng::seed_from(rng_seed);
    let mut rng_b = SimRng::seed_from(rng_seed);
    Some((share(1, &mut rng_a), share(4, &mut rng_b)))
}

/// Ablation 3: a voltage-insensitive SRAM model (`k = 0`): the chip-level
/// observable σ becomes flat in voltage. Returns the Vmin/baseline σ
/// ratio `(with_sensitivity, without)`, with the SoC rail following the
/// PMD rail down to its own nominal at Vmin.
pub fn voltage_insensitive_sram(spec: &PlatformSpec) -> (f64, f64) {
    let (point, vmin, dut) = baseline(spec);
    let low = OperatingPoint {
        pmd: vmin,
        soc: vmin.min(spec.soc_rail.nominal),
        frequency: point.frequency,
    };
    let with = DeviceUnderTest::for_platform(spec, low, vmin)
        .total_observable_sram_sigma(1.0)
        .as_cm2()
        / dut.total_observable_sram_sigma(1.0).as_cm2();

    let flat = SoftErrorModel::new(
        CrossSection::cm2(spec.physics.sram_sigma_bit_cm2),
        spec.pmd_rail.nominal,
        0.0,
    );
    let without = flat.sigma_ratio(vmin);
    (with, without)
}

/// Ablation 4: upgrade the L1D's parity to SECDED and measure the share
/// of single-bit strikes whose outcome *changes*. Returns that share over
/// `strikes` samples — expected 0: parity + write-through already
/// recovers every SBU, the paper's Design implication #1 — or `None` when
/// the die has no L1D.
pub fn secded_everywhere(spec: &PlatformSpec, rng_seed: u64, strikes: u32) -> Option<f64> {
    let l1d = array(spec, ArrayKind::L1Data)?;
    let l1_with =
        |protection| SramArray::new(ArrayKind::L1Data, l1d.capacity, protection, l1d.interleave);
    let parity_l1 = l1_with(ProtectionScheme::Parity);
    let secded_l1 = l1_with(ProtectionScheme::Secded);
    let mut rng_a = SimRng::seed_from(rng_seed);
    let mut rng_b = SimRng::seed_from(rng_seed);
    let mut changed = 0u32;
    for _ in 0..strikes {
        // Single-bit strikes: the L1's dominant case.
        let a = parity_l1.strike(&mut rng_a, 1);
        let b = secded_l1.strike(&mut rng_b, 1);
        let a_ok = a.words.iter().all(|w| w.outcome == UpsetOutcome::Corrected);
        let b_ok = b.words.iter().all(|w| w.outcome == UpsetOutcome::Corrected);
        if a_ok != b_ok {
            changed += 1;
        }
    }
    Some(f64::from(changed) / f64::from(strikes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xgene2() -> PlatformSpec {
        PlatformSpec::xgene2()
    }

    #[test]
    fn removing_margin_amplification_kills_the_sdc_cliff() {
        let (with, without) = no_margin_amplification(&xgene2());
        assert!(with > 12.0, "with mechanism: {with}");
        assert!(without < 1.4, "without mechanism: {without}");
        assert!(with / without > 10.0);
    }

    #[test]
    fn interleaving_the_l3_eliminates_its_ues() {
        let (uninterleaved, interleaved) = interleaved_l3(&xgene2(), 1, 4000).expect("X-Gene L3");
        // Un-interleaved: the MBU share (~5–7%) becomes UEs.
        assert!(
            uninterleaved > 0.03,
            "uninterleaved UE share = {uninterleaved}"
        );
        // 4-way interleaving: clusters ≤4 split into correctable singles;
        // only rarer ≥5 clusters can still defeat it.
        assert!(
            interleaved < uninterleaved / 10.0,
            "interleaved {interleaved} vs uninterleaved {uninterleaved}"
        );
    }

    #[test]
    fn flat_sram_model_flattens_table2() {
        let (with, without) = voltage_insensitive_sram(&xgene2());
        assert!(with > 1.05, "with Qcrit scaling: {with}");
        assert!((without - 1.0).abs() < 1e-12, "without: {without}");
    }

    #[test]
    fn upgrading_l1_to_secded_changes_nothing_for_sbus() {
        // Design implication #1: the existing schemes already suffice.
        let changed = secded_everywhere(&xgene2(), 2, 2000).expect("X-Gene L1D");
        assert_eq!(changed, 0.0, "SBU outcomes must be identical");
    }
}
