//! Structural identifiers of the modelled platform: cores, core-pairs (PMDs),
//! threads, SRAM array kinds, and voltage domains.

use std::fmt;

/// A hardware core index on the 8-core die.
///
/// ```
/// use serscale_types::{CoreId, PmdId};
///
/// let c5 = CoreId::new(5);
/// assert_eq!(c5.pmd(), PmdId::new(2)); // cores 4,5 share PMD 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core id.
    pub const fn new(id: u8) -> Self {
        CoreId(id)
    }

    /// Returns the raw index.
    pub const fn get(self) -> u8 {
        self.0
    }

    /// The dual-core processor module (PMD) this core belongs to: cores are
    /// paired `{0,1} → PMD0`, `{2,3} → PMD1`, …
    pub const fn pmd(self) -> PmdId {
        PmdId(self.0 / 2)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A dual-core processor-module index (the unit of frequency control and the
/// unit sharing an L2 cache on the modelled platform).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PmdId(u8);

impl PmdId {
    /// Creates a PMD id.
    pub const fn new(id: u8) -> Self {
        PmdId(id)
    }

    /// Returns the raw index.
    pub const fn get(self) -> u8 {
        self.0
    }

    /// The two core ids belonging to this PMD.
    pub const fn cores(self) -> [CoreId; 2] {
        [CoreId(self.0 * 2), CoreId(self.0 * 2 + 1)]
    }
}

impl fmt::Display for PmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pmd{}", self.0)
    }
}

/// A software thread index within a multithreaded benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u16);

impl ThreadId {
    /// Creates a thread id.
    pub const fn new(id: u16) -> Self {
        ThreadId(id)
    }

    /// Returns the raw index.
    pub const fn get(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

/// The cache-hierarchy levels whose upset rates the paper reports
/// (Figures 6 and 7 group TLBs, L1, L2 and L3 separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Instruction/data TLBs and the unified L2 TLB (parity protected).
    Tlb,
    /// L1 instruction + data caches (parity protected, write-through).
    L1,
    /// Per-core-pair unified L2 (SECDED protected, write-back).
    L2,
    /// Shared L3 (SECDED protected, write-back).
    L3,
}

impl CacheLevel {
    /// All levels in hierarchy order.
    pub const ALL: [CacheLevel; 4] = [
        CacheLevel::Tlb,
        CacheLevel::L1,
        CacheLevel::L2,
        CacheLevel::L3,
    ];
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheLevel::Tlb => "TLBs",
            CacheLevel::L1 => "L1 Cache",
            CacheLevel::L2 => "L2 Cache",
            CacheLevel::L3 => "L3 Cache",
        };
        f.write_str(s)
    }
}

/// The specific SRAM array kinds instantiated on the die.
///
/// [`CacheLevel`] is the reporting granularity; `ArrayKind` is the
/// structural granularity (an L1I and an L1D are distinct arrays that both
/// report as [`CacheLevel::L1`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArrayKind {
    /// Per-core L1 instruction cache.
    L1Instruction,
    /// Per-core L1 data cache (write-through).
    L1Data,
    /// Per-core instruction/data TLBs.
    DataTlb,
    /// Per-core instruction TLB.
    InstructionTlb,
    /// Per-core unified L2 TLB.
    UnifiedL2Tlb,
    /// Per-pair unified L2 cache.
    L2Unified,
    /// Shared L3 cache.
    L3Shared,
}

impl ArrayKind {
    /// All array kinds.
    pub const ALL: [ArrayKind; 7] = [
        ArrayKind::L1Instruction,
        ArrayKind::L1Data,
        ArrayKind::DataTlb,
        ArrayKind::InstructionTlb,
        ArrayKind::UnifiedL2Tlb,
        ArrayKind::L2Unified,
        ArrayKind::L3Shared,
    ];

    /// The reporting level this array contributes to in Figures 6–7.
    pub const fn cache_level(self) -> CacheLevel {
        match self {
            ArrayKind::L1Instruction | ArrayKind::L1Data => CacheLevel::L1,
            ArrayKind::DataTlb | ArrayKind::InstructionTlb | ArrayKind::UnifiedL2Tlb => {
                CacheLevel::Tlb
            }
            ArrayKind::L2Unified => CacheLevel::L2,
            ArrayKind::L3Shared => CacheLevel::L3,
        }
    }

    /// The voltage domain supplying this array: L3 sits in the SoC domain,
    /// everything else in the PMD domain.
    pub const fn voltage_domain(self) -> VoltageDomain {
        match self {
            ArrayKind::L3Shared => VoltageDomain::Soc,
            _ => VoltageDomain::Pmd,
        }
    }

    /// The array's short name, as reports and the run journal print it.
    pub const fn name(self) -> &'static str {
        match self {
            ArrayKind::L1Instruction => "L1I",
            ArrayKind::L1Data => "L1D",
            ArrayKind::DataTlb => "DTLB",
            ArrayKind::InstructionTlb => "ITLB",
            ArrayKind::UnifiedL2Tlb => "L2TLB",
            ArrayKind::L2Unified => "L2",
            ArrayKind::L3Shared => "L3",
        }
    }
}

impl fmt::Display for ArrayKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The independently regulated voltage domains of the modelled SoC
/// (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VoltageDomain {
    /// Processor Module Domain: the 8 cores, their L1s/TLBs and L2s.
    Pmd,
    /// System-on-Chip domain: L3 cache and DRAM controllers.
    Soc,
    /// Standby power domain (management processors). Not scaled in the
    /// experiments; carried for structural completeness.
    Standby,
}

impl VoltageDomain {
    /// The domains whose voltage the experiments scale.
    pub const SCALED: [VoltageDomain; 2] = [VoltageDomain::Pmd, VoltageDomain::Soc];
}

impl fmt::Display for VoltageDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VoltageDomain::Pmd => "PMD",
            VoltageDomain::Soc => "SoC",
            VoltageDomain::Standby => "Standby",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_pair_into_pmds() {
        assert_eq!(CoreId::new(0).pmd(), PmdId::new(0));
        assert_eq!(CoreId::new(1).pmd(), PmdId::new(0));
        assert_eq!(CoreId::new(6).pmd(), PmdId::new(3));
        assert_eq!(PmdId::new(2).cores(), [CoreId::new(4), CoreId::new(5)]);
    }

    #[test]
    fn pmd_core_roundtrip() {
        for c in 0..8u8 {
            let core = CoreId::new(c);
            assert!(core.pmd().cores().contains(&core));
        }
    }

    #[test]
    fn array_reporting_levels() {
        assert_eq!(ArrayKind::L1Instruction.cache_level(), CacheLevel::L1);
        assert_eq!(ArrayKind::L1Data.cache_level(), CacheLevel::L1);
        assert_eq!(ArrayKind::DataTlb.cache_level(), CacheLevel::Tlb);
        assert_eq!(ArrayKind::UnifiedL2Tlb.cache_level(), CacheLevel::Tlb);
        assert_eq!(ArrayKind::L2Unified.cache_level(), CacheLevel::L2);
        assert_eq!(ArrayKind::L3Shared.cache_level(), CacheLevel::L3);
    }

    #[test]
    fn l3_is_in_soc_domain() {
        // Key to Figure 7: at 790 mV only the PMD domain drops; the L3 stays
        // at the SoC domain's nominal voltage.
        assert_eq!(ArrayKind::L3Shared.voltage_domain(), VoltageDomain::Soc);
        for kind in ArrayKind::ALL {
            if kind != ArrayKind::L3Shared {
                assert_eq!(kind.voltage_domain(), VoltageDomain::Pmd, "{kind}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CacheLevel::Tlb.to_string(), "TLBs");
        assert_eq!(ArrayKind::L3Shared.to_string(), "L3");
        assert_eq!(VoltageDomain::Pmd.to_string(), "PMD");
        assert_eq!(CoreId::new(3).to_string(), "core3");
        assert_eq!(PmdId::new(1).to_string(), "pmd1");
        assert_eq!(ThreadId::new(7).to_string(), "thread7");
    }
}
