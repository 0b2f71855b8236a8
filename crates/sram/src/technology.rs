//! Technology-node presets and cross-node SER scaling.
//!
//! The paper works on 28 nm and motivates it explicitly (§3.2: no similar
//! Arm platform exists on newer nodes, and 28 nm remains in heavy
//! production). Its lineage, though — Seifert [66, 67] — is about *trends
//! across nodes*, and any architect using this library will ask "what does
//! the voltage/SER trade look like one node up or down?".
//!
//! The presets encode the published per-bit SER trend for planar→FinFET
//! SRAM: per-bit cross-sections grew through the planar era (more charge
//! collected per strike relative to shrinking Qcrit), peaked around
//! 40–65 nm, and fell sharply with FinFETs (tiny collection volumes);
//! meanwhile the *voltage sensitivity* grows monotonically as nominal
//! voltages and Qcrit budgets shrink — which is the forward-looking
//! message of the paper: undervolting's SER tax gets worse with scaling.

use serscale_types::{CrossSection, Millivolts};

use crate::mbu::MbuModel;
use crate::qcrit::SoftErrorModel;

/// A fabrication technology node with its calibrated SER parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyNode {
    /// The marketing node name, e.g. `"28nm"`.
    name: &'static str,
    /// Per-bit cross-section at the node's nominal voltage (cm²/bit).
    sigma_bit_nominal: f64,
    /// The node's nominal SRAM supply (mV).
    nominal_voltage: Millivolts,
    /// The exponential voltage sensitivity `k` of σ(V).
    voltage_sensitivity: f64,
    /// MBU extension probability at nominal voltage.
    mbu_p_extra: f64,
}

impl TechnologyNode {
    /// 45 nm planar: near the per-bit SER peak, generous 1.1 V nominal,
    /// gentler voltage sensitivity, modest MBU clustering.
    pub fn planar_45nm() -> Self {
        TechnologyNode {
            name: "45nm",
            sigma_bit_nominal: 1.8e-15,
            nominal_voltage: Millivolts::new(1100),
            voltage_sensitivity: 2.2,
            mbu_p_extra: 0.02,
        }
    }

    /// 28 nm planar: the paper's node — the calibrated defaults of this
    /// workspace.
    pub fn planar_28nm() -> Self {
        TechnologyNode {
            name: "28nm",
            sigma_bit_nominal: SoftErrorModel::SIGMA_28NM_NOMINAL_CM2,
            nominal_voltage: Millivolts::new(980),
            voltage_sensitivity: SoftErrorModel::DEFAULT_VOLTAGE_SENSITIVITY,
            mbu_p_extra: MbuModel::DEFAULT_P_EXTRA,
        }
    }

    /// 16 nm FinFET: per-bit σ drops ~5× (small fin collection volume),
    /// but the 800 mV nominal leaves little Qcrit headroom — higher
    /// voltage sensitivity and much stronger MBU clustering (one strike
    /// spans several fins).
    pub fn finfet_16nm() -> Self {
        TechnologyNode {
            name: "16nm",
            sigma_bit_nominal: 2.0e-16,
            nominal_voltage: Millivolts::new(800),
            voltage_sensitivity: 4.5,
            mbu_p_extra: 0.12,
        }
    }

    /// The three modelled nodes, oldest first.
    pub fn lineup() -> [TechnologyNode; 3] {
        [
            Self::planar_45nm(),
            Self::planar_28nm(),
            Self::finfet_16nm(),
        ]
    }

    /// The node name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The node's nominal SRAM supply.
    pub const fn nominal_voltage(&self) -> Millivolts {
        self.nominal_voltage
    }

    /// The node's soft-error model.
    pub fn soft_error_model(&self) -> SoftErrorModel {
        SoftErrorModel::new(
            CrossSection::cm2(self.sigma_bit_nominal),
            self.nominal_voltage,
            self.voltage_sensitivity,
        )
    }

    /// The node's MBU model.
    pub fn mbu_model(&self) -> MbuModel {
        MbuModel::new(
            self.mbu_p_extra,
            self.nominal_voltage,
            self.voltage_sensitivity,
            MbuModel::DEFAULT_MAX_CLUSTER,
        )
    }

    /// The SER tax of a fractional undervolt on this node: σ ratio after
    /// reducing the supply by `fraction` (e.g. `0.06` ≈ the paper's 60 mV
    /// on 980 mV).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction < 1`.
    pub fn undervolt_tax(&self, fraction: f64) -> f64 {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in [0,1)");
        let reduced = Millivolts::new(
            (f64::from(self.nominal_voltage.get()) * (1.0 - fraction)).round() as u32,
        );
        self.soft_error_model().sigma_ratio(reduced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_order_and_names() {
        let nodes = TechnologyNode::lineup();
        assert_eq!(nodes.map(|n| n.name()), ["45nm", "28nm", "16nm"]);
    }

    #[test]
    fn per_bit_sigma_peaks_in_the_planar_era() {
        let [n45, n28, n16] = TechnologyNode::lineup();
        let s = |n: &TechnologyNode| n.soft_error_model().sigma_nominal().as_cm2();
        assert!(s(&n45) > s(&n28), "planar peak");
        assert!(s(&n28) > s(&n16), "FinFET drop");
        assert!(s(&n45) / s(&n16) > 5.0);
    }

    #[test]
    fn voltage_sensitivity_worsens_with_scaling() {
        let [n45, n28, n16] = TechnologyNode::lineup();
        let tax = |n: &TechnologyNode| n.undervolt_tax(0.06);
        assert!(
            tax(&n45) < tax(&n28),
            "45nm tax {} vs 28nm {}",
            tax(&n45),
            tax(&n28)
        );
        assert!(
            tax(&n28) < tax(&n16),
            "28nm tax {} vs 16nm {}",
            tax(&n28),
            tax(&n16)
        );
    }

    #[test]
    fn paper_node_matches_workspace_defaults() {
        let n28 = TechnologyNode::planar_28nm();
        let workspace = SoftErrorModel::tech_28nm();
        assert_eq!(n28.soft_error_model(), workspace);
        // The 6% undervolt tax on 28 nm is the paper's Vmin-level ≈ +21%
        // per-bit (blending to +10.5% chip-level with the SoC domain).
        let tax = n28.undervolt_tax(0.0612);
        assert!((tax - 1.22).abs() < 0.03, "tax = {tax}");
    }

    #[test]
    fn finfet_mbu_clustering_dominates() {
        let [n45, _, n16] = TechnologyNode::lineup();
        let mean16 = n16.mbu_model().mean_cluster_len(n16.nominal_voltage());
        let mean45 = n45.mbu_model().mean_cluster_len(n45.nominal_voltage());
        assert!(mean16 > mean45);
    }

    #[test]
    fn zero_undervolt_is_free() {
        for node in TechnologyNode::lineup() {
            assert!(
                (node.undervolt_tax(0.0) - 1.0).abs() < 1e-9,
                "{}",
                node.name()
            );
        }
    }
}
