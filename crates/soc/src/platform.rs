//! The die: cores, PMDs, SRAM arrays, voltage domains and operating points.
//!
//! The die is *data*: [`Platform`] is built from a validated
//! [`PlatformSpec`] and owns no platform-specific constants of its own.
//! `Platform::default()` is the paper's X-Gene 2, built from
//! [`PlatformSpec::xgene2`].

use serscale_sram::SramArray;
use serscale_types::{
    ArrayKind, Bits, CoreId, Megahertz, Millivolts, PmdId, Result, VoltageDomain,
};

use crate::spec::{ArrayScope, PlatformSpec};

/// Which hardware block owns an array instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayOwner {
    /// A private per-core array.
    Core(CoreId),
    /// A per-cluster array (the unified L2).
    Pmd(PmdId),
    /// A die-shared array (the L3).
    Shared,
}

/// One physical array instance on the die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayInstance {
    array: SramArray,
    owner: ArrayOwner,
}

impl ArrayInstance {
    /// The array's geometry/protection descriptor.
    pub const fn array(&self) -> &SramArray {
        &self.array
    }

    /// Which block owns this instance.
    pub const fn owner(&self) -> ArrayOwner {
        self.owner
    }

    /// Shorthand for the array kind.
    pub const fn kind(&self) -> ArrayKind {
        self.array.kind()
    }

    /// Shorthand for the data capacity in bits.
    pub const fn data_bits(&self) -> Bits {
        self.array.data_bits()
    }
}

/// A complete voltage/frequency setting of the chip — one column of
/// Table 3. A platform's campaign points come from its spec
/// ([`PlatformSpec::campaign`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatingPoint {
    /// PMD-domain (cores, L1/L2, TLBs) supply voltage.
    pub pmd: Millivolts,
    /// SoC-domain (L3, DRAM controllers) supply voltage.
    pub soc: Millivolts,
    /// Core clock frequency (all PMDs set together in the experiments).
    pub frequency: Megahertz,
}

impl OperatingPoint {
    /// A short label like `"980mV@2.4GHz"`.
    pub fn label(&self) -> String {
        format!("{}mV@{}", self.pmd.get(), self.frequency)
    }
}

/// A modelled die, built from a declarative [`PlatformSpec`].
///
/// Geometry and protection come from the spec's array inventory;
/// regulator floors, step grids and the PLL window from its rails and
/// frequency block.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    spec: PlatformSpec,
    instances: Vec<ArrayInstance>,
}

impl Platform {
    /// Builds the die a spec describes.
    ///
    /// Instances are laid out in the deterministic order rate bookkeeping
    /// and traces depend on: every per-core array (in spec order) for
    /// core 0, then core 1, …; then every per-PMD array for PMD 0, …;
    /// then the shared arrays. For [`PlatformSpec::xgene2`] this
    /// reproduces the historical constructor bit-for-bit.
    pub fn from_spec(spec: &PlatformSpec) -> Self {
        let mut instances = Vec::new();
        let build = |a: &crate::spec::ArraySpec| {
            SramArray::new(a.kind, a.capacity, a.protection, a.interleave)
        };
        for c in 0..spec.cores {
            for a in spec
                .arrays
                .iter()
                .filter(|a| a.scope == ArrayScope::PerCore)
            {
                instances.push(ArrayInstance {
                    array: build(a),
                    owner: ArrayOwner::Core(CoreId::new(c)),
                });
            }
        }
        for p in 0..spec.pmds() {
            for a in spec.arrays.iter().filter(|a| a.scope == ArrayScope::PerPmd) {
                instances.push(ArrayInstance {
                    array: build(a),
                    owner: ArrayOwner::Pmd(PmdId::new(p)),
                });
            }
        }
        for a in spec.arrays.iter().filter(|a| a.scope == ArrayScope::Shared) {
            instances.push(ArrayInstance {
                array: build(a),
                owner: ArrayOwner::Shared,
            });
        }
        Platform {
            spec: spec.clone(),
            instances,
        }
    }

    /// The declarative spec this die was built from.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The platform identifier (e.g. `xgene2`).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of cores on the die.
    pub fn cores(&self) -> u8 {
        self.spec.cores
    }

    /// Number of PMDs / clusters on the die.
    pub fn pmds(&self) -> u8 {
        self.spec.pmds()
    }

    /// Iterates over every array instance on the die.
    pub fn arrays(&self) -> impl Iterator<Item = &ArrayInstance> {
        self.instances.iter()
    }

    /// Total protected SRAM capacity (the ~10 MB of §3.3 on the X-Gene).
    pub fn total_sram(&self) -> Bits {
        self.instances.iter().map(|i| i.data_bits()).sum()
    }

    /// The platform's nominal operating point (the first campaign row).
    pub fn nominal_point(&self) -> OperatingPoint {
        self.spec.nominal_point()
    }

    /// The supply voltage of a domain at an operating point; the
    /// standby rail is never scaled and reads the spec's voltage.
    pub fn domain_voltage(&self, point: OperatingPoint, domain: VoltageDomain) -> Millivolts {
        match domain {
            VoltageDomain::Pmd => point.pmd,
            VoltageDomain::Soc => point.soc,
            VoltageDomain::Standby => self.spec.standby,
        }
    }

    /// The platform's linear Vmin(f) rule (integer-exact grid snap).
    pub fn vmin_at(&self, frequency: Megahertz) -> Millivolts {
        self.spec.vmin_at(frequency)
    }

    /// Validates an operating point against the platform's regulator/PLL
    /// constraints (rail nominals and floors, 5 mV step, PLL window and
    /// grid).
    ///
    /// # Errors
    ///
    /// Returns [`serscale_types::Error::InvalidConfig`] naming the
    /// offending parameter.
    pub fn validate(&self, point: OperatingPoint) -> Result<()> {
        self.spec.validate_point(point)
    }

    /// The Table 1-style specification rows, as `(parameter, value)`
    /// pairs — what `repro --table 1` prints.
    pub fn table1(&self) -> Vec<(String, String)> {
        self.spec.table1()
    }
}

impl Default for Platform {
    /// The paper's X-Gene 2 die with Table 1's array inventory.
    fn default() -> Self {
        Platform::from_spec(&PlatformSpec::xgene2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_ecc::ProtectionScheme;
    use serscale_types::CacheLevel;

    #[test]
    fn array_inventory_matches_table1() {
        let soc = Platform::default();
        let count = |kind: ArrayKind| soc.arrays().filter(|a| a.kind() == kind).count();
        assert_eq!(count(ArrayKind::L1Instruction), 8);
        assert_eq!(count(ArrayKind::L1Data), 8);
        assert_eq!(count(ArrayKind::DataTlb), 8);
        assert_eq!(count(ArrayKind::InstructionTlb), 8);
        assert_eq!(count(ArrayKind::UnifiedL2Tlb), 8);
        assert_eq!(count(ArrayKind::L2Unified), 4);
        assert_eq!(count(ArrayKind::L3Shared), 1);
    }

    #[test]
    fn total_sram_is_about_10_megabytes() {
        // §3.3 assumes ~10 MB of on-chip SRAM.
        let total_mb = Platform::default().total_sram().get() as f64 / 8.0 / 1.0e6;
        assert!(total_mb > 9.0 && total_mb < 11.0, "total = {total_mb} MB");
    }

    #[test]
    fn protection_assignment() {
        let soc = Platform::default();
        for inst in soc.arrays() {
            let expected = match inst.kind().cache_level() {
                CacheLevel::L2 | CacheLevel::L3 => ProtectionScheme::Secded,
                _ => ProtectionScheme::Parity,
            };
            assert_eq!(inst.array().protection(), expected, "{:?}", inst.kind());
        }
    }

    #[test]
    fn only_l3_lacks_interleaving() {
        let soc = Platform::default();
        for inst in soc.arrays() {
            if inst.kind() == ArrayKind::L3Shared {
                assert_eq!(inst.array().interleave_degree(), 1);
            } else {
                assert!(inst.array().interleave_degree() > 1, "{:?}", inst.kind());
            }
        }
    }

    #[test]
    fn l2_owned_by_pmds_l1_by_cores() {
        let soc = Platform::default();
        for inst in soc.arrays() {
            match inst.kind() {
                ArrayKind::L2Unified => assert!(matches!(inst.owner(), ArrayOwner::Pmd(_))),
                ArrayKind::L3Shared => assert_eq!(inst.owner(), ArrayOwner::Shared),
                _ => assert!(matches!(inst.owner(), ArrayOwner::Core(_))),
            }
        }
    }

    #[test]
    fn instance_order_is_core_then_pmd_then_shared() {
        // Trace and rate bookkeeping depend on this exact layout — it is
        // the order the historical constructor produced.
        let soc = Platform::default();
        let kinds: Vec<ArrayKind> = soc.arrays().map(|a| a.kind()).collect();
        let per_core = [
            ArrayKind::L1Instruction,
            ArrayKind::L1Data,
            ArrayKind::DataTlb,
            ArrayKind::InstructionTlb,
            ArrayKind::UnifiedL2Tlb,
        ];
        for c in 0..8 {
            assert_eq!(&kinds[c * 5..c * 5 + 5], &per_core, "core {c}");
        }
        assert!(kinds[40..44].iter().all(|k| *k == ArrayKind::L2Unified));
        assert_eq!(kinds[44], ArrayKind::L3Shared);
        assert_eq!(kinds.len(), 45);
    }

    #[test]
    fn campaign_operating_points_validate() {
        let soc = Platform::default();
        assert_eq!(soc.spec().campaign.len(), 4);
        for point in soc.spec().campaign_points() {
            soc.validate(point)
                .unwrap_or_else(|e| panic!("{}: {e}", point.label()));
        }
    }

    #[test]
    fn validation_rejects_bad_points() {
        let soc = Platform::default();
        let nominal = soc.nominal_point();
        // Above nominal.
        let mut p = nominal;
        p.pmd = Millivolts::new(1000);
        assert!(soc.validate(p).is_err());
        // Off-grid voltage.
        let mut p = nominal;
        p.pmd = Millivolts::new(977);
        assert!(soc.validate(p).is_err());
        // Implausibly low.
        let mut p = nominal;
        p.pmd = Millivolts::new(400);
        assert!(soc.validate(p).is_err());
        // Off-grid frequency.
        let mut p = nominal;
        p.frequency = Megahertz::new(1000);
        assert!(soc.validate(p).is_err());
        // Too fast.
        let mut p = nominal;
        p.frequency = Megahertz::new(2700);
        assert!(soc.validate(p).is_err());
    }

    #[test]
    fn zynq_platform_builds_and_validates_its_campaign() {
        let soc = Platform::from_spec(&PlatformSpec::zynq_mpsoc());
        assert_eq!(soc.cores(), 4);
        assert_eq!(soc.pmds(), 1);
        // 4×(32+32+L2TLB…) KB L1/TLB + 1 MB L2 + 256 KB OCM.
        let kinds: Vec<ArrayKind> = soc.arrays().map(|a| a.kind()).collect();
        assert_eq!(kinds.len(), 4 * 5 + 1 + 1);
        for c in soc.spec().campaign.clone() {
            soc.validate(c.point)
                .unwrap_or_else(|e| panic!("{}: {e}", c.label));
        }
        assert_eq!(soc.nominal_point().pmd, Millivolts::new(850));
    }

    #[test]
    fn validation_edges_are_integer_exact_on_both_platforms() {
        // Exactly at the rail floor / nominal / PLL window edges, on the
        // grid, each platform accepts; one 5 mV or 300 MHz step past any
        // edge it rejects. No floating point is involved anywhere.
        for spec in [PlatformSpec::xgene2(), PlatformSpec::zynq_mpsoc()] {
            let soc = Platform::from_spec(&spec);
            let edge = |pmd: Millivolts, soc_mv: Millivolts, f: Megahertz| OperatingPoint {
                pmd,
                soc: soc_mv,
                frequency: f,
            };
            let s = &spec;
            let ok = [
                edge(s.pmd_rail.floor, s.soc_rail.floor, s.freq_min),
                edge(s.pmd_rail.nominal, s.soc_rail.nominal, s.freq_max),
            ];
            for p in ok {
                soc.validate(p)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            }
            let step = Millivolts::new(Millivolts::STEP);
            let bad = [
                edge(
                    Millivolts::new(s.pmd_rail.floor.get() - step.get()),
                    s.soc_rail.floor,
                    s.freq_min,
                ),
                edge(
                    Millivolts::new(s.pmd_rail.nominal.get() + step.get()),
                    s.soc_rail.nominal,
                    s.freq_max,
                ),
                edge(
                    s.pmd_rail.nominal,
                    s.soc_rail.nominal,
                    Megahertz::new(s.freq_max.get() + Megahertz::STEP),
                ),
                edge(
                    s.pmd_rail.nominal,
                    s.soc_rail.nominal,
                    Megahertz::new(s.freq_min.get() - Megahertz::STEP),
                ),
            ];
            for p in bad {
                assert!(soc.validate(p).is_err(), "{}: {p:?}", spec.name);
            }
        }
    }

    #[test]
    fn operating_point_domain_lookup() {
        let xgene = Platform::default();
        // The 790 mV / 900 MHz session holds the SoC rail at nominal.
        let p = xgene.spec().campaign[3].point;
        let at = |domain| xgene.domain_voltage(p, domain);
        assert_eq!(at(VoltageDomain::Pmd), Millivolts::new(790));
        assert_eq!(at(VoltageDomain::Soc), Millivolts::new(950));
        assert_eq!(at(VoltageDomain::Standby), Millivolts::new(950));
        // The Zynq standby rail differs — the lookup reads it from the
        // spec.
        let zynq = Platform::from_spec(&PlatformSpec::zynq_mpsoc());
        let zp = zynq.nominal_point();
        assert_eq!(
            zynq.domain_voltage(zp, VoltageDomain::Standby),
            Millivolts::new(850)
        );
    }

    #[test]
    fn labels() {
        let point = |pmd, soc, frequency| OperatingPoint {
            pmd: Millivolts::new(pmd),
            soc: Millivolts::new(soc),
            frequency: Megahertz::new(frequency),
        };
        assert_eq!(point(980, 950, 2400).label(), "980mV@2.4 GHz");
        assert_eq!(point(790, 950, 900).label(), "790mV@900 MHz");
    }

    #[test]
    fn spec_covers_table1() {
        let spec = Platform::default().table1();
        assert_eq!(spec.len(), 11);
        assert!(spec
            .iter()
            .any(|(k, v)| k == "L3 Cache" && v.contains("SECDED")));
    }
}
