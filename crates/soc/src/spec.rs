//! Declarative platform specifications.
//!
//! The die modelled by [`crate::platform`] is *data*. A platform arrives as
//! a JSON document: [`parse_platform`] maps it field by field onto the
//! permissive [`RawPlatformSpec`] (every field optional, every number a raw
//! `f64` — the untrusted wire shape; unknown keys are rejected so a typo'd
//! field cannot silently fall back to a default), and `TryFrom` narrows
//! that into a [`PlatformSpec`] whose every field is finite, on-grid, and
//! mutually consistent — or fails with a [`SpecError`] naming the
//! offending field (dotted path, e.g. `arrays[3].interleave`) and how to
//! fix it. The same two-stage pattern as `serscale-core`'s campaign specs,
//! on the same checks from [`serscale_types::spec`].
//!
//! Two platforms ship built in, each defined once as a file under the
//! repository's `platforms/` directory and embedded at compile time:
//! [`PlatformSpec::xgene2`], the paper's X-Gene 2, and
//! [`PlatformSpec::zynq_mpsoc`], a Zynq UltraScale+ MPSoC profile after
//! Agiakatsikas et al.'s atmospheric-neutron assessment of the quad
//! Cortex-A53 APU. [`PlatformSpec::builtin`] parses each file at most once
//! per process.

use std::sync::OnceLock;

use serscale_ecc::ProtectionScheme;
use serscale_types::json::{self, JsonValue};
use serscale_types::spec::{
    finite_in, identifier, integer_in, label, required, want_array, want_number, want_object,
    want_string, SpecError,
};
use serscale_types::{ArrayKind, Bytes, Error, Megahertz, Millivolts, Result};

use crate::platform::OperatingPoint;

type Result2<T> = std::result::Result<T, SpecError>;

// ---------------------------------------------------------------------------
// Raw (wire-side) carriers
// ---------------------------------------------------------------------------

/// The permissive wire-side carrier for a platform spec.
///
/// Every field is optional and every number a raw `f64`, so parsing a
/// document never fails on *values* — all judgment lives in the
/// [`TryFrom`] conversion to [`PlatformSpec`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawPlatformSpec {
    /// Platform identifier (sanitized, e.g. `xgene2`).
    pub name: Option<String>,
    /// One-line human description.
    pub description: Option<String>,
    /// ISA string for the Table 1 rendering (e.g. `Armv8 (AArch64)`).
    pub isa: Option<String>,
    /// Pipeline description, without the core count (e.g.
    /// `64-bit OoO (4-issue)`).
    pub pipeline: Option<String>,
    /// TDP / process string for Table 1 (e.g. `35 W / 28 nm`).
    pub technology: Option<String>,
    /// Number of cores on the die (integer ≥ 1).
    pub cores: Option<f64>,
    /// Cores per PMD / frequency-control cluster; must divide `cores`.
    pub cores_per_pmd: Option<f64>,
    /// Modelled bytes per TLB entry (tag + translation + attributes).
    pub tlb_entry_bytes: Option<f64>,
    /// SRAM array inventory.
    pub arrays: Option<Vec<RawArraySpec>>,
    /// PMD (core) voltage rail.
    pub pmd_rail: Option<RawRailSpec>,
    /// SoC (uncore) voltage rail.
    pub soc_rail: Option<RawRailSpec>,
    /// Standby-rail voltage in millivolts (defaults to the SoC nominal).
    pub standby_mv: Option<f64>,
    /// Lowest PLL frequency, MHz (on the 300 MHz grid).
    pub freq_min_mhz: Option<f64>,
    /// Highest PLL frequency, MHz (on the 300 MHz grid).
    pub freq_max_mhz: Option<f64>,
    /// The platform's reference beam-campaign schedule (first entry is the
    /// nominal point).
    pub campaign: Option<Vec<RawCampaignPointSpec>>,
    /// The two measured Vmin anchors the linear Vmin(f) rule interpolates.
    pub vmin: Option<RawVminAnchors>,
    /// Physics calibration (SRAM, MBU, logic, timing, detection).
    pub physics: Option<RawPhysicsSpec>,
    /// Power-model constants.
    pub power: Option<RawPowerSpec>,
    /// DVFS voltage-rule floor, millivolts.
    pub dvfs_floor_mv: Option<f64>,
    /// Undervolting-sweep backstop floor, millivolts.
    pub sweep_floor_mv: Option<f64>,
}

/// One SRAM array entry of the raw inventory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawArraySpec {
    /// Array kind token: `L1I`, `L1D`, `DTLB`, `ITLB`, `L2TLB`, `L2`, `L3`.
    pub kind: Option<String>,
    /// Owner scope: `core`, `pmd`, or `shared`.
    pub scope: Option<String>,
    /// Capacity in bytes (exclusive with `entries`).
    pub bytes: Option<f64>,
    /// Capacity in TLB entries of `tlb_entry_bytes` each (exclusive with
    /// `bytes`).
    pub entries: Option<f64>,
    /// Protection token: `none`, `parity`, or `secded`.
    pub protection: Option<String>,
    /// Physical interleaving degree (integer ≥ 1; 1 = none).
    pub interleave: Option<f64>,
    /// Table 1 annotation (e.g. `Write-Back`).
    pub note: Option<String>,
}

/// A raw voltage rail: nominal and validation floor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawRailSpec {
    /// Nominal voltage, millivolts (5 mV grid).
    pub nominal_mv: Option<f64>,
    /// Lowest voltage `validate` accepts, millivolts (5 mV grid).
    pub floor_mv: Option<f64>,
}

/// One raw campaign operating point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawCampaignPointSpec {
    /// Row label (e.g. `Nominal`, `Vmin 900 MHz`).
    pub label: Option<String>,
    /// PMD voltage, millivolts.
    pub pmd_mv: Option<f64>,
    /// SoC voltage, millivolts.
    pub soc_mv: Option<f64>,
    /// Clock frequency, MHz.
    pub freq_mhz: Option<f64>,
    /// Paper-reference beam minutes at this point.
    pub minutes: Option<f64>,
}

/// The raw two-anchor Vmin(f) rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawVminAnchors {
    /// Low-frequency anchor, MHz.
    pub low_freq_mhz: Option<f64>,
    /// Measured Vmin at the low anchor, millivolts.
    pub low_mv: Option<f64>,
    /// High-frequency anchor, MHz.
    pub high_freq_mhz: Option<f64>,
    /// Measured Vmin at the high anchor, millivolts.
    pub high_mv: Option<f64>,
}

/// Raw physics calibration numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawPhysicsSpec {
    /// Per-bit SRAM cross-section at nominal voltage, cm².
    pub sram_sigma_bit_cm2: Option<f64>,
    /// Exponential voltage sensitivity of the SRAM cross-section.
    pub sram_voltage_sensitivity: Option<f64>,
    /// Extra-cell MBU probability at nominal voltage.
    pub mbu_p_extra: Option<f64>,
    /// Largest modelled MBU cluster (integer ≥ 1).
    pub mbu_max_cluster: Option<f64>,
    /// Control-logic cross-section at nominal, cm².
    pub logic_sigma_ctrl_cm2: Option<f64>,
    /// Datapath-logic cross-section at nominal, cm².
    pub logic_sigma_data_cm2: Option<f64>,
    /// Exponential voltage sensitivity of logic cross-sections.
    pub logic_voltage_sensitivity: Option<f64>,
    /// Near-Vmin amplification factor (§5's 13×).
    pub logic_amplification: Option<f64>,
    /// Margin decay constant of the amplification, millivolts.
    pub logic_margin_tau_mv: Option<f64>,
    /// Frequency exponent of the logic susceptibility.
    pub logic_frequency_gamma: Option<f64>,
    /// Timing-failure critical voltage at `freq_max`, millivolts.
    pub timing_vc_at_fmax_mv: Option<f64>,
    /// Critical-voltage slope, millivolts per MHz.
    pub timing_slope_mv_per_mhz: Option<f64>,
    /// Critical-voltage spread at `freq_max`, millivolts.
    pub timing_sigma_at_fmax_mv: Option<f64>,
    /// Spread growth per GHz below `freq_max`, millivolts.
    pub timing_sigma_slope_mv: Option<f64>,
    /// Observable-error detection efficiency, TLBs.
    pub detect_tlb: Option<f64>,
    /// Observable-error detection efficiency, L1 caches.
    pub detect_l1: Option<f64>,
    /// Observable-error detection efficiency, L2 caches.
    pub detect_l2: Option<f64>,
    /// Observable-error detection efficiency, L3 / shared arrays.
    pub detect_l3: Option<f64>,
}

/// Raw power-model constants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawPowerSpec {
    /// PMD-domain dynamic power at nominal V/f, watts.
    pub pmd_dynamic_w: Option<f64>,
    /// PMD-domain static power at nominal V, watts.
    pub pmd_static_w: Option<f64>,
    /// SoC-domain dynamic power at nominal V/f, watts.
    pub soc_dynamic_w: Option<f64>,
    /// SoC-domain static power at nominal V, watts.
    pub soc_static_w: Option<f64>,
}

// ---------------------------------------------------------------------------
// Validated spec
// ---------------------------------------------------------------------------

/// Which hardware block owns each instance of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayScope {
    /// One instance per core.
    PerCore,
    /// One instance per PMD / cluster.
    PerPmd,
    /// One die-shared instance.
    Shared,
}

impl ArrayScope {
    /// The wire token (`core` / `pmd` / `shared`).
    pub const fn token(self) -> &'static str {
        match self {
            ArrayScope::PerCore => "core",
            ArrayScope::PerPmd => "pmd",
            ArrayScope::Shared => "shared",
        }
    }
}

/// A validated SRAM array entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySpec {
    /// The array kind (fixes cache level and voltage domain).
    pub kind: ArrayKind,
    /// Owner scope (fixes the instance count).
    pub scope: ArrayScope,
    /// Capacity of one instance.
    pub capacity: Bytes,
    /// Protection scheme (fixes the word width: parity entries vs SECDED
    /// 64-bit words).
    pub protection: ProtectionScheme,
    /// Physical interleaving degree (1 = none).
    pub interleave: u32,
    /// Table 1 annotation (e.g. `Write-Back`), if any.
    pub note: Option<String>,
}

/// A validated voltage rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RailSpec {
    /// Nominal voltage.
    pub nominal: Millivolts,
    /// Lowest voltage `validate` accepts.
    pub floor: Millivolts,
}

/// One validated campaign operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPointSpec {
    /// Row label.
    pub label: String,
    /// The operating point.
    pub point: OperatingPoint,
    /// Paper-reference beam minutes at this point.
    pub minutes: f64,
}

/// The validated two-anchor Vmin(f) rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VminAnchors {
    /// Low-frequency anchor.
    pub low_freq: Megahertz,
    /// Measured Vmin at the low anchor, millivolts.
    pub low_mv: u32,
    /// High-frequency anchor.
    pub high_freq: Megahertz,
    /// Measured Vmin at the high anchor, millivolts.
    pub high_mv: u32,
}

/// Validated physics calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicsSpec {
    /// Per-bit SRAM cross-section at nominal voltage, cm².
    pub sram_sigma_bit_cm2: f64,
    /// Exponential voltage sensitivity of the SRAM cross-section.
    pub sram_voltage_sensitivity: f64,
    /// Extra-cell MBU probability at nominal voltage.
    pub mbu_p_extra: f64,
    /// Largest modelled MBU cluster.
    pub mbu_max_cluster: u32,
    /// Control-logic cross-section at nominal, cm².
    pub logic_sigma_ctrl_cm2: f64,
    /// Datapath-logic cross-section at nominal, cm².
    pub logic_sigma_data_cm2: f64,
    /// Exponential voltage sensitivity of logic cross-sections.
    pub logic_voltage_sensitivity: f64,
    /// Near-Vmin amplification factor.
    pub logic_amplification: f64,
    /// Margin decay constant of the amplification, millivolts.
    pub logic_margin_tau_mv: f64,
    /// Frequency exponent of the logic susceptibility.
    pub logic_frequency_gamma: f64,
    /// Timing-failure critical voltage at `freq_max`, millivolts.
    pub timing_vc_at_fmax_mv: f64,
    /// Critical-voltage slope, millivolts per MHz.
    pub timing_slope_mv_per_mhz: f64,
    /// Critical-voltage spread at `freq_max`, millivolts.
    pub timing_sigma_at_fmax_mv: f64,
    /// Spread growth per GHz below `freq_max`, millivolts.
    pub timing_sigma_slope_mv: f64,
    /// Observable-error detection efficiency, TLBs.
    pub detect_tlb: f64,
    /// Observable-error detection efficiency, L1 caches.
    pub detect_l1: f64,
    /// Observable-error detection efficiency, L2 caches.
    pub detect_l2: f64,
    /// Observable-error detection efficiency, L3 / shared arrays.
    pub detect_l3: f64,
}

/// Validated power-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSpec {
    /// PMD-domain dynamic power at nominal V/f, watts.
    pub pmd_dynamic_w: f64,
    /// PMD-domain static power at nominal V, watts.
    pub pmd_static_w: f64,
    /// SoC-domain dynamic power at nominal V/f, watts.
    pub soc_dynamic_w: f64,
    /// SoC-domain static power at nominal V, watts.
    pub soc_static_w: f64,
}

/// A fully validated platform description: every field finite, on-grid,
/// and mutually consistent.
///
/// The spec is pure data — [`crate::platform::Platform::from_spec`] turns
/// it into a die, and the physics crates read their calibration from it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Platform identifier.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// ISA string.
    pub isa: String,
    /// Pipeline description, without the core count.
    pub pipeline: String,
    /// TDP / process string.
    pub technology: String,
    /// Number of cores on the die.
    pub cores: u8,
    /// Cores per PMD / frequency-control cluster.
    pub cores_per_pmd: u8,
    /// Modelled bytes per TLB entry.
    pub tlb_entry_bytes: u64,
    /// SRAM array inventory, in build order.
    pub arrays: Vec<ArraySpec>,
    /// PMD (core) voltage rail.
    pub pmd_rail: RailSpec,
    /// SoC (uncore) voltage rail.
    pub soc_rail: RailSpec,
    /// Standby-rail voltage (never scaled).
    pub standby: Millivolts,
    /// Lowest PLL frequency.
    pub freq_min: Megahertz,
    /// Highest PLL frequency.
    pub freq_max: Megahertz,
    /// The reference beam-campaign schedule (first entry is nominal).
    pub campaign: Vec<CampaignPointSpec>,
    /// The two measured Vmin anchors.
    pub vmin: VminAnchors,
    /// Physics calibration.
    pub physics: PhysicsSpec,
    /// Power-model constants.
    pub power: PowerSpec,
    /// DVFS voltage-rule floor.
    pub dvfs_floor: Millivolts,
    /// Undervolting-sweep backstop floor.
    pub sweep_floor: Millivolts,
}

/// The built-in platforms in preference order, each with its spec file.
/// The files under the repository's `platforms/` directory are the only
/// definition of the built-ins; they are embedded at compile time.
const BUILTINS: [(&str, &str); 2] = [
    ("xgene2", include_str!("../../../platforms/xgene2.json")),
    (
        "zynq-mpsoc",
        include_str!("../../../platforms/zynq-mpsoc.json"),
    ),
];

impl PlatformSpec {
    /// The names [`PlatformSpec::builtin`] resolves, in preference order.
    pub const BUILTIN_NAMES: [&'static str; 2] = [BUILTINS[0].0, BUILTINS[1].0];

    /// Resolves a built-in platform by name: its embedded
    /// `platforms/<name>.json`, parsed on first use and cloned after.
    ///
    /// # Panics
    ///
    /// Panics if an embedded file fails validation.
    pub fn builtin(name: &str) -> Option<PlatformSpec> {
        static PARSED: [OnceLock<PlatformSpec>; BUILTINS.len()] =
            [const { OnceLock::new() }; BUILTINS.len()];
        let at = BUILTINS.iter().position(|(builtin, _)| *builtin == name)?;
        let spec = PARSED[at].get_or_init(|| {
            parse_platform(BUILTINS[at].1)
                .unwrap_or_else(|e| panic!("built-in platform file {name}.json: {e}"))
        });
        Some(spec.clone())
    }

    /// The paper's X-Gene 2 (`platforms/xgene2.json`): Table 1's arrays,
    /// §3.1's regulator grid, and the calibration constants used
    /// throughout the reproduction.
    pub fn xgene2() -> PlatformSpec {
        Self::builtin("xgene2").expect("xgene2 is built in")
    }

    /// A Zynq UltraScale+ MPSoC profile (`platforms/zynq-mpsoc.json`): the
    /// quad Cortex-A53 APU of Agiakatsikas et al.'s atmospheric-neutron
    /// assessment, on a 16 nm FinFET node, with the 256 KB on-chip memory
    /// standing in as the shared SoC-domain array.
    pub fn zynq_mpsoc() -> PlatformSpec {
        Self::builtin("zynq-mpsoc").expect("zynq-mpsoc is built in")
    }

    /// Number of PMDs / clusters on the die.
    pub fn pmds(&self) -> u8 {
        self.cores / self.cores_per_pmd
    }

    /// The platform's nominal operating point (the first campaign row).
    pub fn nominal_point(&self) -> OperatingPoint {
        self.campaign[0].point
    }

    /// The campaign operating points, in session order.
    pub fn campaign_points(&self) -> impl Iterator<Item = OperatingPoint> + '_ {
        self.campaign.iter().map(|c| c.point)
    }

    /// The linear Vmin(f) rule through the spec's two measured anchors,
    /// snapped *up* to the regulator grid.
    ///
    /// The interpolation is integer-exact (no floating-point rounding
    /// before the ceiling), so grid-edge frequencies can never snap to the
    /// wrong step — the double-rounding hazard the epsilon-guarded float
    /// path had to work around.
    pub fn vmin_at(&self, frequency: Megahertz) -> Millivolts {
        let step = Millivolts::STEP as i64;
        let f = frequency.get() as i64;
        let (f_lo, v_lo) = (self.vmin.low_freq.get() as i64, self.vmin.low_mv as i64);
        let (f_hi, v_hi) = (self.vmin.high_freq.get() as i64, self.vmin.high_mv as i64);
        let den = f_hi - f_lo;
        // vmin(f) = v_lo + (f − f_lo)·(v_hi − v_lo)/den, ceiled to the grid:
        // ceil(num / (den·step)) · step, all in integers.
        let num = v_lo * den + (f - f_lo) * (v_hi - v_lo);
        let steps = num.div_euclid(den * step) + i64::from(num.rem_euclid(den * step) != 0);
        Millivolts::new(steps.max(0) as u32 * Millivolts::STEP)
    }

    /// Validates an operating point against the platform's regulator/PLL
    /// constraints (rail nominals and floors, 5 mV step, frequency window
    /// and 300 MHz grid).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate_point(&self, point: OperatingPoint) -> Result<()> {
        let check_voltage = |what: &str, v: Millivolts, rail: RailSpec| -> Result<()> {
            if v > rail.nominal {
                return Err(Error::InvalidConfig {
                    what: what.into(),
                    reason: format!("{v} exceeds the {} nominal", rail.nominal),
                });
            }
            if !v.is_step_aligned() {
                return Err(Error::InvalidConfig {
                    what: what.into(),
                    reason: format!("{v} is not aligned to the 5 mV regulator step"),
                });
            }
            if v < rail.floor {
                return Err(Error::InvalidConfig {
                    what: what.into(),
                    reason: format!("{v} is below the {} plausibility floor", rail.floor),
                });
            }
            Ok(())
        };
        check_voltage("pmd voltage", point.pmd, self.pmd_rail)?;
        check_voltage("soc voltage", point.soc, self.soc_rail)?;
        if point.frequency < self.freq_min || point.frequency > self.freq_max {
            return Err(Error::InvalidConfig {
                what: "frequency".into(),
                reason: format!(
                    "{} outside {} – {}",
                    point.frequency, self.freq_min, self.freq_max
                ),
            });
        }
        if !point.frequency.is_step_aligned() {
            return Err(Error::InvalidConfig {
                what: "frequency".into(),
                reason: format!("{} is not on the 300 MHz PLL grid", point.frequency),
            });
        }
        Ok(())
    }

    /// The Table 1-style specification rows, as `(parameter, value)`
    /// pairs, generated from the spec data.
    pub fn table1(&self) -> Vec<(String, String)> {
        let mut rows = vec![
            ("ISA".to_string(), self.isa.clone()),
            (
                "Pipeline / CPU Cores".to_string(),
                format!("{} / {}", self.pipeline, self.cores),
            ),
            ("Clock Frequency".to_string(), self.freq_max.to_string()),
        ];
        let find = |kind: ArrayKind| self.arrays.iter().find(|a| a.kind == kind);
        // D/I TLBs share a row when their geometry matches (they do on
        // every shipped platform).
        if let (Some(d), Some(i)) = (find(ArrayKind::DataTlb), find(ArrayKind::InstructionTlb)) {
            let entries = d.capacity.get() / self.tlb_entry_bytes;
            if d.capacity == i.capacity && d.protection == i.protection {
                rows.push((
                    "D/I TLBs".to_string(),
                    format!(
                        "{entries} entries {} ({})",
                        self.scope_phrase(d.scope),
                        protection_name(d.protection)
                    ),
                ));
            } else {
                rows.push(("Data TLB".to_string(), self.tlb_value(d)));
                rows.push(("Instruction TLB".to_string(), self.tlb_value(i)));
            }
        }
        if let Some(a) = find(ArrayKind::UnifiedL2Tlb) {
            rows.push(("Unified L2 TLB".to_string(), self.tlb_value(a)));
        }
        for (kind, title) in [
            (ArrayKind::L1Instruction, "L1 Instruction Cache"),
            (ArrayKind::L1Data, "L1 Data Cache"),
            (ArrayKind::L2Unified, "L2 Cache"),
            (ArrayKind::L3Shared, "L3 Cache"),
        ] {
            if let Some(a) = find(kind) {
                rows.push((title.to_string(), self.cache_value(a)));
            }
        }
        rows.push(("TDP / Technology".to_string(), self.technology.clone()));
        rows.push((
            "PMD/SoC Nominal Voltage".to_string(),
            format!("{} / {}", self.pmd_rail.nominal, self.soc_rail.nominal),
        ));
        rows
    }

    fn scope_phrase(&self, scope: ArrayScope) -> String {
        match scope {
            ArrayScope::PerCore => "per core".to_string(),
            ArrayScope::PerPmd if self.cores_per_pmd == 2 => "per pair of cores".to_string(),
            ArrayScope::PerPmd => format!("per {}-core cluster", self.cores_per_pmd),
            ArrayScope::Shared => "Shared".to_string(),
        }
    }

    fn tlb_value(&self, a: &ArraySpec) -> String {
        format!(
            "{} entries {} ({})",
            a.capacity.get() / self.tlb_entry_bytes,
            self.scope_phrase(a.scope),
            protection_name(a.protection)
        )
    }

    fn cache_value(&self, a: &ArraySpec) -> String {
        let note = a.note.as_deref().map_or(String::new(), |n| format!(" {n}"));
        format!(
            "{}{note} {} ({})",
            decimal_size(a.capacity),
            self.scope_phrase(a.scope),
            protection_name(a.protection)
        )
    }
}

/// Formats a capacity the way datasheets quote cache sizes ("32 KB",
/// "8 MB") rather than with binary-prefix units.
fn decimal_size(bytes: Bytes) -> String {
    let b = bytes.get();
    if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
        format!("{} MB", b / (1024 * 1024))
    } else if b >= 1024 && b.is_multiple_of(1024) {
        format!("{} KB", b / 1024)
    } else {
        format!("{b} B")
    }
}

/// The protection-scheme name Table 1 prints.
fn protection_name(p: ProtectionScheme) -> &'static str {
    match p {
        ProtectionScheme::None => "Unprotected",
        ProtectionScheme::Parity => "Parity",
        ProtectionScheme::Secded => "SECDED",
    }
}

/// Parses an array-kind token (the `Display` form of [`ArrayKind`]).
fn array_kind(field: &str, token: &str) -> Result2<ArrayKind> {
    match token {
        "L1I" => Ok(ArrayKind::L1Instruction),
        "L1D" => Ok(ArrayKind::L1Data),
        "DTLB" => Ok(ArrayKind::DataTlb),
        "ITLB" => Ok(ArrayKind::InstructionTlb),
        "L2TLB" => Ok(ArrayKind::UnifiedL2Tlb),
        "L2" => Ok(ArrayKind::L2Unified),
        "L3" => Ok(ArrayKind::L3Shared),
        other => Err(SpecError::new(
            field,
            format!("unknown array kind {other:?}; use L1I, L1D, DTLB, ITLB, L2TLB, L2 or L3"),
        )),
    }
}

/// Parses an owner-scope token.
fn array_scope(field: &str, token: &str) -> Result2<ArrayScope> {
    match token {
        "core" => Ok(ArrayScope::PerCore),
        "pmd" => Ok(ArrayScope::PerPmd),
        "shared" => Ok(ArrayScope::Shared),
        other => Err(SpecError::new(
            field,
            format!("unknown array scope {other:?}; use core, pmd or shared"),
        )),
    }
}

/// Parses a protection token.
fn protection(field: &str, token: &str) -> Result2<ProtectionScheme> {
    match token {
        "none" => Ok(ProtectionScheme::None),
        "parity" => Ok(ProtectionScheme::Parity),
        "secded" => Ok(ProtectionScheme::Secded),
        other => Err(SpecError::new(
            field,
            format!("unknown protection {other:?}; use none, parity or secded"),
        )),
    }
}

/// Validates a millivolt value on the 5 mV regulator grid.
fn grid_millivolts(field: &str, value: f64, min: f64, max: f64) -> Result2<Millivolts> {
    let mv = integer_in(
        field,
        value,
        min,
        max,
        "voltages are whole millivolts on the 5 mV regulator grid",
    )?;
    let mv = Millivolts::new(mv as u32);
    if !mv.is_step_aligned() {
        return Err(SpecError::new(
            field,
            format!("{mv} is not aligned to the 5 mV regulator step"),
        ));
    }
    Ok(mv)
}

/// Validates a megahertz value on the 300 MHz PLL grid.
fn grid_megahertz(field: &str, value: f64) -> Result2<Megahertz> {
    let mhz = integer_in(
        field,
        value,
        f64::from(Megahertz::STEP),
        20_000.0,
        "frequencies are whole megahertz on the 300 MHz PLL grid",
    )?;
    let mhz = Megahertz::new(mhz as u32);
    if !mhz.is_step_aligned() {
        return Err(SpecError::new(
            field,
            format!("{mhz} is not on the 300 MHz PLL grid"),
        ));
    }
    Ok(mhz)
}

fn validated_rail(field: &str, raw: &RawRailSpec) -> Result2<RailSpec> {
    let nominal = grid_millivolts(
        &format!("{field}.nominal_mv"),
        required(&format!("{field}.nominal_mv"), &raw.nominal_mv)?,
        300.0,
        1400.0,
    )?;
    let floor = grid_millivolts(
        &format!("{field}.floor_mv"),
        required(&format!("{field}.floor_mv"), &raw.floor_mv)?,
        300.0,
        1400.0,
    )?;
    if floor > nominal {
        return Err(SpecError::new(
            format!("{field}.floor_mv"),
            format!("floor {floor} is above the {nominal} nominal"),
        ));
    }
    Ok(RailSpec { nominal, floor })
}

fn validated_arrays(raw: &[RawArraySpec], tlb_entry_bytes: u64) -> Result2<Vec<ArraySpec>> {
    if raw.is_empty() {
        return Err(SpecError::new(
            "arrays",
            "a platform needs at least one SRAM array",
        ));
    }
    if raw.len() > 64 {
        return Err(SpecError::new(
            "arrays",
            format!("{} entries exceed the 64-array cap", raw.len()),
        ));
    }
    let mut arrays: Vec<ArraySpec> = Vec::with_capacity(raw.len());
    for (at, entry) in raw.iter().enumerate() {
        let kind = array_kind(
            &format!("arrays[{at}].kind"),
            &required(&format!("arrays[{at}].kind"), &entry.kind)?,
        )?;
        let scope = array_scope(
            &format!("arrays[{at}].scope"),
            &required(&format!("arrays[{at}].scope"), &entry.scope)?,
        )?;
        let capacity = match (entry.bytes, entry.entries) {
            (Some(_), Some(_)) => {
                return Err(SpecError::new(
                    format!("arrays[{at}].bytes"),
                    "bytes and entries are mutually exclusive; give the capacity once",
                ));
            }
            (Some(bytes), None) => Bytes::new(integer_in(
                &format!("arrays[{at}].bytes"),
                bytes,
                1.0,
                1.0e12,
                "an array holds at least one byte",
            )?),
            (None, Some(entries)) => Bytes::new(
                integer_in(
                    &format!("arrays[{at}].entries"),
                    entries,
                    1.0,
                    1.0e9,
                    "a TLB holds at least one entry",
                )? * tlb_entry_bytes,
            ),
            (None, None) => {
                return Err(SpecError::new(
                    format!("arrays[{at}].bytes"),
                    "required field is missing; give the capacity in bytes or TLB entries",
                ));
            }
        };
        let protection = protection(
            &format!("arrays[{at}].protection"),
            &required(&format!("arrays[{at}].protection"), &entry.protection)?,
        )?;
        let interleave = integer_in(
            &format!("arrays[{at}].interleave"),
            entry.interleave.unwrap_or(1.0),
            1.0,
            64.0,
            "interleave degree 1 means no interleaving",
        )? as u32;
        let note = match &entry.note {
            Some(note) => Some(label(&format!("arrays[{at}].note"), note)?),
            None => None,
        };
        if let Some(earlier) = arrays.iter().position(|a| a.kind == kind) {
            return Err(SpecError::new(
                format!("arrays[{at}].kind"),
                format!(
                    "duplicates arrays[{earlier}]: both describe {kind}; rate bookkeeping indexes arrays by kind"
                ),
            ));
        }
        arrays.push(ArraySpec {
            kind,
            scope,
            capacity,
            protection,
            interleave,
            note,
        });
    }
    Ok(arrays)
}

fn validated_physics(raw: &RawPhysicsSpec) -> Result2<PhysicsSpec> {
    let f = |field: &str, v: &Option<f64>, min: f64, max: f64, hint: &str| -> Result2<f64> {
        finite_in(
            &format!("physics.{field}"),
            required(&format!("physics.{field}"), v)?,
            min,
            max,
            hint,
        )
    };
    Ok(PhysicsSpec {
        sram_sigma_bit_cm2: f(
            "sram_sigma_bit_cm2",
            &raw.sram_sigma_bit_cm2,
            1.0e-24,
            1.0e-6,
            "per-bit cross-sections are small positive areas",
        )?,
        sram_voltage_sensitivity: f(
            "sram_voltage_sensitivity",
            &raw.sram_voltage_sensitivity,
            0.0,
            100.0,
            "dimensionless exponential sensitivity",
        )?,
        mbu_p_extra: f(
            "mbu_p_extra",
            &raw.mbu_p_extra,
            0.0,
            0.999,
            "a probability below 1",
        )?,
        mbu_max_cluster: integer_in(
            "physics.mbu_max_cluster",
            required("physics.mbu_max_cluster", &raw.mbu_max_cluster)?,
            1.0,
            64.0,
            "the largest modelled MBU cluster",
        )? as u32,
        logic_sigma_ctrl_cm2: f(
            "logic_sigma_ctrl_cm2",
            &raw.logic_sigma_ctrl_cm2,
            0.0,
            1.0,
            "a chip-level cross-section area",
        )?,
        logic_sigma_data_cm2: f(
            "logic_sigma_data_cm2",
            &raw.logic_sigma_data_cm2,
            0.0,
            1.0,
            "a chip-level cross-section area",
        )?,
        logic_voltage_sensitivity: f(
            "logic_voltage_sensitivity",
            &raw.logic_voltage_sensitivity,
            0.0,
            100.0,
            "dimensionless exponential sensitivity",
        )?,
        logic_amplification: f(
            "logic_amplification",
            &raw.logic_amplification,
            1.0,
            1000.0,
            "the near-Vmin amplification factor (1 = none)",
        )?,
        logic_margin_tau_mv: f(
            "logic_margin_tau_mv",
            &raw.logic_margin_tau_mv,
            0.1,
            1000.0,
            "a positive decay constant in millivolts",
        )?,
        logic_frequency_gamma: f(
            "logic_frequency_gamma",
            &raw.logic_frequency_gamma,
            0.0,
            100.0,
            "the frequency exponent",
        )?,
        timing_vc_at_fmax_mv: f(
            "timing_vc_at_fmax_mv",
            &raw.timing_vc_at_fmax_mv,
            100.0,
            2000.0,
            "a critical voltage in millivolts",
        )?,
        timing_slope_mv_per_mhz: f(
            "timing_slope_mv_per_mhz",
            &raw.timing_slope_mv_per_mhz,
            0.0,
            10.0,
            "millivolts of critical-voltage per MHz",
        )?,
        timing_sigma_at_fmax_mv: f(
            "timing_sigma_at_fmax_mv",
            &raw.timing_sigma_at_fmax_mv,
            0.0,
            100.0,
            "a spread in millivolts",
        )
        .and_then(|sigma| {
            if sigma > 0.0 {
                Ok(sigma)
            } else {
                Err(SpecError::new(
                    "physics.timing_sigma_at_fmax_mv",
                    format!("{sigma} is not above 0; the timing model needs a non-zero spread"),
                ))
            }
        })?,
        timing_sigma_slope_mv: f(
            "timing_sigma_slope_mv",
            &raw.timing_sigma_slope_mv,
            0.0,
            100.0,
            "millivolts of spread growth per GHz",
        )?,
        detect_tlb: f(
            "detect_tlb",
            &raw.detect_tlb,
            0.0,
            1.0,
            "an efficiency in [0, 1]",
        )?,
        detect_l1: f(
            "detect_l1",
            &raw.detect_l1,
            0.0,
            1.0,
            "an efficiency in [0, 1]",
        )?,
        detect_l2: f(
            "detect_l2",
            &raw.detect_l2,
            0.0,
            1.0,
            "an efficiency in [0, 1]",
        )?,
        detect_l3: f(
            "detect_l3",
            &raw.detect_l3,
            0.0,
            1.0,
            "an efficiency in [0, 1]",
        )?,
    })
}

fn validated_power(raw: &RawPowerSpec) -> Result2<PowerSpec> {
    let f = |field: &str, v: &Option<f64>| -> Result2<f64> {
        finite_in(
            &format!("power.{field}"),
            required(&format!("power.{field}"), v)?,
            0.0,
            10_000.0,
            "a non-negative wattage",
        )
    };
    Ok(PowerSpec {
        pmd_dynamic_w: f("pmd_dynamic_w", &raw.pmd_dynamic_w)?,
        pmd_static_w: f("pmd_static_w", &raw.pmd_static_w)?,
        soc_dynamic_w: f("soc_dynamic_w", &raw.soc_dynamic_w)?,
        soc_static_w: f("soc_static_w", &raw.soc_static_w)?,
    })
}

impl TryFrom<RawPlatformSpec> for PlatformSpec {
    type Error = SpecError;

    fn try_from(raw: RawPlatformSpec) -> Result2<Self> {
        let name = identifier("name", &required("name", &raw.name)?)?;
        let description = match &raw.description {
            Some(d) => label("description", d)?,
            None => name.clone(),
        };
        let isa = label("isa", &raw.isa.clone().unwrap_or_else(|| "unknown".into()))?;
        let pipeline = label(
            "pipeline",
            &raw.pipeline.clone().unwrap_or_else(|| "unknown".into()),
        )?;
        let technology = label(
            "technology",
            &raw.technology.clone().unwrap_or_else(|| "unknown".into()),
        )?;
        let cores = integer_in(
            "cores",
            required("cores", &raw.cores)?,
            1.0,
            64.0,
            "the number of cores on the die",
        )? as u8;
        let cores_per_pmd = integer_in(
            "cores_per_pmd",
            required("cores_per_pmd", &raw.cores_per_pmd)?,
            1.0,
            f64::from(cores),
            "the cluster size sharing an L2 and a PLL",
        )? as u8;
        if !cores.is_multiple_of(cores_per_pmd) {
            return Err(SpecError::new(
                "cores_per_pmd",
                format!("{cores_per_pmd} does not divide the {cores} cores evenly"),
            ));
        }
        let tlb_entry_bytes = integer_in(
            "tlb_entry_bytes",
            raw.tlb_entry_bytes.unwrap_or(16.0),
            1.0,
            256.0,
            "modelled bytes per TLB entry",
        )?;
        let arrays = validated_arrays(&required("arrays", &raw.arrays)?, tlb_entry_bytes)?;
        let pmd_rail = validated_rail("pmd_rail", &required("pmd_rail", &raw.pmd_rail)?)?;
        let soc_rail = validated_rail("soc_rail", &required("soc_rail", &raw.soc_rail)?)?;
        let standby = match raw.standby_mv {
            Some(mv) => grid_millivolts("standby_mv", mv, 300.0, 1400.0)?,
            None => soc_rail.nominal,
        };
        let freq_min =
            grid_megahertz("freq_min_mhz", required("freq_min_mhz", &raw.freq_min_mhz)?)?;
        let freq_max =
            grid_megahertz("freq_max_mhz", required("freq_max_mhz", &raw.freq_max_mhz)?)?;
        if freq_min > freq_max {
            return Err(SpecError::new(
                "freq_min_mhz",
                format!("{freq_min} is above the {freq_max} maximum"),
            ));
        }
        let vmin = {
            let raw_vmin = required("vmin", &raw.vmin)?;
            let low_freq = grid_megahertz(
                "vmin.low_freq_mhz",
                required("vmin.low_freq_mhz", &raw_vmin.low_freq_mhz)?,
            )?;
            let high_freq = grid_megahertz(
                "vmin.high_freq_mhz",
                required("vmin.high_freq_mhz", &raw_vmin.high_freq_mhz)?,
            )?;
            if low_freq >= high_freq {
                return Err(SpecError::new(
                    "vmin.low_freq_mhz",
                    format!("low anchor {low_freq} must sit below the high anchor {high_freq}"),
                ));
            }
            let low_mv = integer_in(
                "vmin.low_mv",
                required("vmin.low_mv", &raw_vmin.low_mv)?,
                100.0,
                2000.0,
                "a measured Vmin in millivolts",
            )? as u32;
            let high_mv = integer_in(
                "vmin.high_mv",
                required("vmin.high_mv", &raw_vmin.high_mv)?,
                100.0,
                2000.0,
                "a measured Vmin in millivolts",
            )? as u32;
            if low_mv > high_mv {
                return Err(SpecError::new(
                    "vmin.low_mv",
                    format!("{low_mv} mV at the low anchor exceeds {high_mv} mV at the high one"),
                ));
            }
            VminAnchors {
                low_freq,
                low_mv,
                high_freq,
                high_mv,
            }
        };
        let physics = validated_physics(&required("physics", &raw.physics)?)?;
        let power = validated_power(&required("power", &raw.power)?)?;
        let dvfs_floor = match raw.dvfs_floor_mv {
            Some(mv) => grid_millivolts("dvfs_floor_mv", mv, 300.0, 1400.0)?,
            None => pmd_rail.floor,
        };
        if dvfs_floor > pmd_rail.nominal {
            return Err(SpecError::new(
                "dvfs_floor_mv",
                format!(
                    "floor {dvfs_floor} is above the {} PMD nominal",
                    pmd_rail.nominal
                ),
            ));
        }
        let sweep_floor = match raw.sweep_floor_mv {
            Some(mv) => grid_millivolts("sweep_floor_mv", mv, 300.0, 1400.0)?,
            None => pmd_rail.floor,
        };
        if sweep_floor > pmd_rail.nominal {
            return Err(SpecError::new(
                "sweep_floor_mv",
                format!(
                    "floor {sweep_floor} is above the {} PMD nominal",
                    pmd_rail.nominal
                ),
            ));
        }
        let spec = PlatformSpec {
            name,
            description,
            isa,
            pipeline,
            technology,
            cores,
            cores_per_pmd,
            tlb_entry_bytes,
            arrays,
            pmd_rail,
            soc_rail,
            standby,
            freq_min,
            freq_max,
            campaign: Vec::new(),
            vmin,
            physics,
            power,
            dvfs_floor,
            sweep_floor,
        };
        // Campaign points validate against the rails/grid above, so the
        // spec carrier is assembled first and the schedule folded in last.
        let raw_campaign = required("campaign", &raw.campaign)?;
        if raw_campaign.is_empty() {
            return Err(SpecError::new(
                "campaign",
                "a platform needs at least one campaign operating point",
            ));
        }
        if raw_campaign.len() > 16 {
            return Err(SpecError::new(
                "campaign",
                format!("{} points exceed the 16-session cap", raw_campaign.len()),
            ));
        }
        let mut campaign: Vec<CampaignPointSpec> = Vec::with_capacity(raw_campaign.len());
        for (at, entry) in raw_campaign.iter().enumerate() {
            let point = OperatingPoint {
                pmd: grid_millivolts(
                    &format!("campaign[{at}].pmd_mv"),
                    required(&format!("campaign[{at}].pmd_mv"), &entry.pmd_mv)?,
                    0.0,
                    2000.0,
                )?,
                soc: grid_millivolts(
                    &format!("campaign[{at}].soc_mv"),
                    required(&format!("campaign[{at}].soc_mv"), &entry.soc_mv)?,
                    0.0,
                    2000.0,
                )?,
                frequency: grid_megahertz(
                    &format!("campaign[{at}].freq_mhz"),
                    required(&format!("campaign[{at}].freq_mhz"), &entry.freq_mhz)?,
                )?,
            };
            if let Err(e) = spec.validate_point(point) {
                return Err(SpecError::new(format!("campaign[{at}]"), e.to_string()));
            }
            let minutes = required(&format!("campaign[{at}].minutes"), &entry.minutes)?;
            if !minutes.is_finite() || minutes <= 0.0 || minutes > 10_000.0 {
                return Err(SpecError::new(
                    format!("campaign[{at}].minutes"),
                    format!("{minutes} is outside (0, 10000] minutes"),
                ));
            }
            let label_text = match &entry.label {
                Some(text) => label(&format!("campaign[{at}].label"), text)?,
                None => format!("Session {at}"),
            };
            if let Some(earlier) = campaign.iter().position(|c| c.point == point) {
                return Err(SpecError::new(
                    format!("campaign[{at}]"),
                    format!(
                        "overlaps campaign[{earlier}]: both run {}; reports index sessions by operating point",
                        point.label()
                    ),
                ));
            }
            campaign.push(CampaignPointSpec {
                label: label_text,
                point,
                minutes,
            });
        }
        Ok(PlatformSpec { campaign, ..spec })
    }
}

impl From<&PlatformSpec> for RawPlatformSpec {
    /// The normalization inverse: lowering a validated spec back to the
    /// wire shape. `PlatformSpec::try_from(RawPlatformSpec::from(&spec))`
    /// returns `spec` exactly, which the `platform-equivalence` oracle and
    /// the schema tests pin.
    fn from(spec: &PlatformSpec) -> RawPlatformSpec {
        RawPlatformSpec {
            name: Some(spec.name.clone()),
            description: Some(spec.description.clone()),
            isa: Some(spec.isa.clone()),
            pipeline: Some(spec.pipeline.clone()),
            technology: Some(spec.technology.clone()),
            cores: Some(f64::from(spec.cores)),
            cores_per_pmd: Some(f64::from(spec.cores_per_pmd)),
            tlb_entry_bytes: Some(spec.tlb_entry_bytes as f64),
            arrays: Some(
                spec.arrays
                    .iter()
                    .map(|a| RawArraySpec {
                        kind: Some(a.kind.to_string()),
                        scope: Some(a.scope.token().to_string()),
                        bytes: Some(a.capacity.get() as f64),
                        entries: None,
                        protection: Some(
                            match a.protection {
                                ProtectionScheme::None => "none",
                                ProtectionScheme::Parity => "parity",
                                ProtectionScheme::Secded => "secded",
                            }
                            .to_string(),
                        ),
                        interleave: Some(f64::from(a.interleave)),
                        note: a.note.clone(),
                    })
                    .collect(),
            ),
            pmd_rail: Some(RawRailSpec {
                nominal_mv: Some(f64::from(spec.pmd_rail.nominal.get())),
                floor_mv: Some(f64::from(spec.pmd_rail.floor.get())),
            }),
            soc_rail: Some(RawRailSpec {
                nominal_mv: Some(f64::from(spec.soc_rail.nominal.get())),
                floor_mv: Some(f64::from(spec.soc_rail.floor.get())),
            }),
            standby_mv: Some(f64::from(spec.standby.get())),
            freq_min_mhz: Some(f64::from(spec.freq_min.get())),
            freq_max_mhz: Some(f64::from(spec.freq_max.get())),
            campaign: Some(
                spec.campaign
                    .iter()
                    .map(|c| RawCampaignPointSpec {
                        label: Some(c.label.clone()),
                        pmd_mv: Some(f64::from(c.point.pmd.get())),
                        soc_mv: Some(f64::from(c.point.soc.get())),
                        freq_mhz: Some(f64::from(c.point.frequency.get())),
                        minutes: Some(c.minutes),
                    })
                    .collect(),
            ),
            vmin: Some(RawVminAnchors {
                low_freq_mhz: Some(f64::from(spec.vmin.low_freq.get())),
                low_mv: Some(f64::from(spec.vmin.low_mv)),
                high_freq_mhz: Some(f64::from(spec.vmin.high_freq.get())),
                high_mv: Some(f64::from(spec.vmin.high_mv)),
            }),
            physics: Some(RawPhysicsSpec {
                sram_sigma_bit_cm2: Some(spec.physics.sram_sigma_bit_cm2),
                sram_voltage_sensitivity: Some(spec.physics.sram_voltage_sensitivity),
                mbu_p_extra: Some(spec.physics.mbu_p_extra),
                mbu_max_cluster: Some(f64::from(spec.physics.mbu_max_cluster)),
                logic_sigma_ctrl_cm2: Some(spec.physics.logic_sigma_ctrl_cm2),
                logic_sigma_data_cm2: Some(spec.physics.logic_sigma_data_cm2),
                logic_voltage_sensitivity: Some(spec.physics.logic_voltage_sensitivity),
                logic_amplification: Some(spec.physics.logic_amplification),
                logic_margin_tau_mv: Some(spec.physics.logic_margin_tau_mv),
                logic_frequency_gamma: Some(spec.physics.logic_frequency_gamma),
                timing_vc_at_fmax_mv: Some(spec.physics.timing_vc_at_fmax_mv),
                timing_slope_mv_per_mhz: Some(spec.physics.timing_slope_mv_per_mhz),
                timing_sigma_at_fmax_mv: Some(spec.physics.timing_sigma_at_fmax_mv),
                timing_sigma_slope_mv: Some(spec.physics.timing_sigma_slope_mv),
                detect_tlb: Some(spec.physics.detect_tlb),
                detect_l1: Some(spec.physics.detect_l1),
                detect_l2: Some(spec.physics.detect_l2),
                detect_l3: Some(spec.physics.detect_l3),
            }),
            power: Some(RawPowerSpec {
                pmd_dynamic_w: Some(spec.power.pmd_dynamic_w),
                pmd_static_w: Some(spec.power.pmd_static_w),
                soc_dynamic_w: Some(spec.power.soc_dynamic_w),
                soc_static_w: Some(spec.power.soc_static_w),
            }),
            dvfs_floor_mv: Some(f64::from(spec.dvfs_floor.get())),
            sweep_floor_mv: Some(f64::from(spec.sweep_floor.get())),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Parses and validates a JSON platform document.
///
/// # Errors
///
/// A [`SpecError`] naming the offending field: JSON syntax errors come
/// back on the pseudo-field `body`, type errors and unknown fields on
/// their dotted path, and range errors from `PlatformSpec::try_from`.
pub fn parse_platform(body: &str) -> Result2<PlatformSpec> {
    let doc =
        json::parse(body).map_err(|e| SpecError::new("body", format!("not valid JSON: {e}")))?;
    let raw = raw_platform_from_json(&doc)?;
    PlatformSpec::try_from(raw)
}

fn unknown_field(field: &str, known: &str) -> SpecError {
    SpecError::new(field, format!("unknown field; known fields are {known}"))
}

fn rail_from_json(field: &str, doc: &JsonValue) -> Result2<RawRailSpec> {
    let mut raw = RawRailSpec::default();
    for (key, value) in want_object(field, doc)? {
        let path = format!("{field}.{key}");
        match key.as_str() {
            "nominal_mv" => raw.nominal_mv = Some(want_number(&path, value)?),
            "floor_mv" => raw.floor_mv = Some(want_number(&path, value)?),
            _ => return Err(unknown_field(&path, "nominal_mv, floor_mv")),
        }
    }
    Ok(raw)
}

fn array_from_json(at: usize, doc: &JsonValue) -> Result2<RawArraySpec> {
    let field = format!("arrays[{at}]");
    let mut raw = RawArraySpec::default();
    for (key, value) in want_object(&field, doc)? {
        let path = format!("{field}.{key}");
        match key.as_str() {
            "kind" => raw.kind = Some(want_string(&path, value)?),
            "scope" => raw.scope = Some(want_string(&path, value)?),
            "bytes" => raw.bytes = Some(want_number(&path, value)?),
            "entries" => raw.entries = Some(want_number(&path, value)?),
            "protection" => raw.protection = Some(want_string(&path, value)?),
            "interleave" => raw.interleave = Some(want_number(&path, value)?),
            "note" => raw.note = Some(want_string(&path, value)?),
            _ => {
                return Err(unknown_field(
                    &path,
                    "kind, scope, bytes, entries, protection, interleave, note",
                ))
            }
        }
    }
    Ok(raw)
}

fn campaign_point_from_json(at: usize, doc: &JsonValue) -> Result2<RawCampaignPointSpec> {
    let field = format!("campaign[{at}]");
    let mut raw = RawCampaignPointSpec::default();
    for (key, value) in want_object(&field, doc)? {
        let path = format!("{field}.{key}");
        match key.as_str() {
            "label" => raw.label = Some(want_string(&path, value)?),
            "pmd_mv" => raw.pmd_mv = Some(want_number(&path, value)?),
            "soc_mv" => raw.soc_mv = Some(want_number(&path, value)?),
            "freq_mhz" => raw.freq_mhz = Some(want_number(&path, value)?),
            "minutes" => raw.minutes = Some(want_number(&path, value)?),
            _ => {
                return Err(unknown_field(
                    &path,
                    "label, pmd_mv, soc_mv, freq_mhz, minutes",
                ))
            }
        }
    }
    Ok(raw)
}

fn vmin_from_json(doc: &JsonValue) -> Result2<RawVminAnchors> {
    let mut raw = RawVminAnchors::default();
    for (key, value) in want_object("vmin", doc)? {
        let path = format!("vmin.{key}");
        match key.as_str() {
            "low_freq_mhz" => raw.low_freq_mhz = Some(want_number(&path, value)?),
            "low_mv" => raw.low_mv = Some(want_number(&path, value)?),
            "high_freq_mhz" => raw.high_freq_mhz = Some(want_number(&path, value)?),
            "high_mv" => raw.high_mv = Some(want_number(&path, value)?),
            _ => {
                return Err(unknown_field(
                    &path,
                    "low_freq_mhz, low_mv, high_freq_mhz, high_mv",
                ))
            }
        }
    }
    Ok(raw)
}

fn physics_from_json(doc: &JsonValue) -> Result2<RawPhysicsSpec> {
    let mut raw = RawPhysicsSpec::default();
    for (key, value) in want_object("physics", doc)? {
        let path = format!("physics.{key}");
        let slot = match key.as_str() {
            "sram_sigma_bit_cm2" => &mut raw.sram_sigma_bit_cm2,
            "sram_voltage_sensitivity" => &mut raw.sram_voltage_sensitivity,
            "mbu_p_extra" => &mut raw.mbu_p_extra,
            "mbu_max_cluster" => &mut raw.mbu_max_cluster,
            "logic_sigma_ctrl_cm2" => &mut raw.logic_sigma_ctrl_cm2,
            "logic_sigma_data_cm2" => &mut raw.logic_sigma_data_cm2,
            "logic_voltage_sensitivity" => &mut raw.logic_voltage_sensitivity,
            "logic_amplification" => &mut raw.logic_amplification,
            "logic_margin_tau_mv" => &mut raw.logic_margin_tau_mv,
            "logic_frequency_gamma" => &mut raw.logic_frequency_gamma,
            "timing_vc_at_fmax_mv" => &mut raw.timing_vc_at_fmax_mv,
            "timing_slope_mv_per_mhz" => &mut raw.timing_slope_mv_per_mhz,
            "timing_sigma_at_fmax_mv" => &mut raw.timing_sigma_at_fmax_mv,
            "timing_sigma_slope_mv" => &mut raw.timing_sigma_slope_mv,
            "detect_tlb" => &mut raw.detect_tlb,
            "detect_l1" => &mut raw.detect_l1,
            "detect_l2" => &mut raw.detect_l2,
            "detect_l3" => &mut raw.detect_l3,
            _ => {
                return Err(unknown_field(
                    &path,
                    "the physics calibration constants (see RawPhysicsSpec)",
                ))
            }
        };
        *slot = Some(want_number(&path, value)?);
    }
    Ok(raw)
}

fn power_from_json(doc: &JsonValue) -> Result2<RawPowerSpec> {
    let mut raw = RawPowerSpec::default();
    for (key, value) in want_object("power", doc)? {
        let path = format!("power.{key}");
        let slot = match key.as_str() {
            "pmd_dynamic_w" => &mut raw.pmd_dynamic_w,
            "pmd_static_w" => &mut raw.pmd_static_w,
            "soc_dynamic_w" => &mut raw.soc_dynamic_w,
            "soc_static_w" => &mut raw.soc_static_w,
            _ => {
                return Err(unknown_field(
                    &path,
                    "pmd_dynamic_w, pmd_static_w, soc_dynamic_w, soc_static_w",
                ))
            }
        };
        *slot = Some(want_number(&path, value)?);
    }
    Ok(raw)
}

/// Maps a parsed JSON document onto the permissive platform carrier.
/// Unknown fields and wrongly-typed values are rejected here; value
/// validation happens later in `PlatformSpec::try_from`.
fn raw_platform_from_json(doc: &JsonValue) -> Result2<RawPlatformSpec> {
    let JsonValue::Object(map) = doc else {
        return Err(SpecError::new(
            "body",
            format!("expected a JSON object, got {}", doc.kind()),
        ));
    };
    let mut raw = RawPlatformSpec::default();
    for (key, value) in map {
        match key.as_str() {
            "name" => raw.name = Some(want_string("name", value)?),
            "description" => raw.description = Some(want_string("description", value)?),
            "isa" => raw.isa = Some(want_string("isa", value)?),
            "pipeline" => raw.pipeline = Some(want_string("pipeline", value)?),
            "technology" => raw.technology = Some(want_string("technology", value)?),
            "cores" => raw.cores = Some(want_number("cores", value)?),
            "cores_per_pmd" => raw.cores_per_pmd = Some(want_number("cores_per_pmd", value)?),
            "tlb_entry_bytes" => {
                raw.tlb_entry_bytes = Some(want_number("tlb_entry_bytes", value)?);
            }
            "arrays" => {
                let items = want_array("arrays", value)?;
                let mut arrays = Vec::with_capacity(items.len());
                for (at, item) in items.iter().enumerate() {
                    arrays.push(array_from_json(at, item)?);
                }
                raw.arrays = Some(arrays);
            }
            "pmd_rail" => raw.pmd_rail = Some(rail_from_json("pmd_rail", value)?),
            "soc_rail" => raw.soc_rail = Some(rail_from_json("soc_rail", value)?),
            "standby_mv" => raw.standby_mv = Some(want_number("standby_mv", value)?),
            "freq_min_mhz" => raw.freq_min_mhz = Some(want_number("freq_min_mhz", value)?),
            "freq_max_mhz" => raw.freq_max_mhz = Some(want_number("freq_max_mhz", value)?),
            "campaign" => {
                let items = want_array("campaign", value)?;
                let mut points = Vec::with_capacity(items.len());
                for (at, item) in items.iter().enumerate() {
                    points.push(campaign_point_from_json(at, item)?);
                }
                raw.campaign = Some(points);
            }
            "vmin" => raw.vmin = Some(vmin_from_json(value)?),
            "physics" => raw.physics = Some(physics_from_json(value)?),
            "power" => raw.power = Some(power_from_json(value)?),
            "dvfs_floor_mv" => raw.dvfs_floor_mv = Some(want_number("dvfs_floor_mv", value)?),
            "sweep_floor_mv" => raw.sweep_floor_mv = Some(want_number("sweep_floor_mv", value)?),
            unknown => {
                return Err(SpecError::new(
                    if unknown.is_empty() { "body" } else { unknown },
                    format!(
                        "unknown field {unknown:?}; known fields are name, description, isa, \
                         pipeline, technology, cores, cores_per_pmd, tlb_entry_bytes, arrays, \
                         pmd_rail, soc_rail, standby_mv, freq_min_mhz, freq_max_mhz, campaign, \
                         vmin, physics, power, dvfs_floor_mv, sweep_floor_mv"
                    ),
                ));
            }
        }
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_round_trip_through_the_raw_carrier() {
        for name in PlatformSpec::BUILTIN_NAMES {
            let spec = PlatformSpec::builtin(name).expect("builtin");
            let raw = RawPlatformSpec::from(&spec);
            let back = PlatformSpec::try_from(raw).expect("round-trip validates");
            assert_eq!(back, spec, "{name} must normalize to itself");
        }
    }

    #[test]
    fn builtin_lookup() {
        assert!(PlatformSpec::builtin("xgene2").is_some());
        assert!(PlatformSpec::builtin("zynq-mpsoc").is_some());
        assert!(PlatformSpec::builtin("pentium").is_none());
    }

    #[test]
    fn xgene2_vmin_rule_matches_the_paper_anchors() {
        let spec = PlatformSpec::xgene2();
        assert_eq!(spec.vmin_at(Megahertz::new(900)), Millivolts::new(790));
        assert_eq!(spec.vmin_at(Megahertz::new(2400)), Millivolts::new(920));
        // Mid-grid frequencies snap *up* to the 5 mV step.
        assert_eq!(spec.vmin_at(Megahertz::new(1200)), Millivolts::new(820));
        assert_eq!(spec.vmin_at(Megahertz::new(1650)), Millivolts::new(855));
    }

    #[test]
    fn vmin_is_integer_exact_on_every_grid_frequency() {
        // The exact integer oracle for the X-Gene rule
        // vmin(f) = 790 + (f − 900)·130/1500, ceiled to the 5 mV grid.
        let spec = PlatformSpec::xgene2();
        for f in (300i64..=2400).step_by(300) {
            let num = 790 * 150 + (f - 900) * 13;
            let expected = num.div_euclid(750) + i64::from(num.rem_euclid(750) != 0);
            assert_eq!(
                spec.vmin_at(Megahertz::new(f as u32)),
                Millivolts::new(expected as u32 * 5),
                "f = {f}"
            );
        }
    }

    #[test]
    fn zynq_vmin_rule_spans_its_anchors() {
        let spec = PlatformSpec::zynq_mpsoc();
        assert_eq!(spec.vmin_at(Megahertz::new(600)), Millivolts::new(660));
        assert_eq!(spec.vmin_at(Megahertz::new(1500)), Millivolts::new(750));
        // 0.1 mV/MHz slope: 900 MHz → 690 mV exactly on the grid.
        assert_eq!(spec.vmin_at(Megahertz::new(900)), Millivolts::new(690));
    }

    #[test]
    fn xgene2_table1_is_the_paper_table() {
        let rows = PlatformSpec::xgene2().table1();
        let expected: Vec<(String, String)> = vec![
            ("ISA".into(), "Armv8 (AArch64)".into()),
            (
                "Pipeline / CPU Cores".into(),
                "64-bit OoO (4-issue) / 8".into(),
            ),
            ("Clock Frequency".into(), "2.4 GHz".into()),
            ("D/I TLBs".into(), "20 entries per core (Parity)".into()),
            (
                "Unified L2 TLB".into(),
                "1024 entries per core (Parity)".into(),
            ),
            (
                "L1 Instruction Cache".into(),
                "32 KB per core (Parity)".into(),
            ),
            (
                "L1 Data Cache".into(),
                "32 KB Write-Through per core (Parity)".into(),
            ),
            (
                "L2 Cache".into(),
                "256 KB Write-Back per pair of cores (SECDED)".into(),
            ),
            ("L3 Cache".into(), "8 MB Write-Back Shared (SECDED)".into()),
            ("TDP / Technology".into(), "35 W / 28 nm".into()),
            ("PMD/SoC Nominal Voltage".into(), "980 mV / 950 mV".into()),
        ];
        assert_eq!(rows, expected);
    }

    #[test]
    fn zynq_table1_reports_the_cluster_scope() {
        let rows = PlatformSpec::zynq_mpsoc().table1();
        assert!(rows
            .iter()
            .any(|(k, v)| k == "L2 Cache" && v == "1 MB Write-Back per 4-core cluster (SECDED)"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "L3 Cache" && v == "256 KB OCM Shared (SECDED)"));
    }

    #[test]
    fn campaign_points_validate_on_both_builtins() {
        for name in PlatformSpec::BUILTIN_NAMES {
            let spec = PlatformSpec::builtin(name).expect("builtin");
            for c in &spec.campaign {
                spec.validate_point(c.point)
                    .unwrap_or_else(|e| panic!("{name} {}: {e}", c.label));
            }
        }
    }

    #[test]
    fn validate_point_accepts_the_exact_grid_edges() {
        let spec = PlatformSpec::xgene2();
        // Exactly at the rail floor and nominal, on the grid: legal.
        let edge = |pmd, soc, f| OperatingPoint {
            pmd: Millivolts::new(pmd),
            soc: Millivolts::new(soc),
            frequency: Megahertz::new(f),
        };
        assert!(spec.validate_point(edge(500, 500, 300)).is_ok());
        assert!(spec.validate_point(edge(980, 950, 2400)).is_ok());
        // One step past either edge: rejected.
        assert!(spec.validate_point(edge(495, 500, 300)).is_err());
        assert!(spec.validate_point(edge(985, 950, 2400)).is_err());
        assert!(spec.validate_point(edge(980, 955, 2400)).is_err());
        assert!(spec.validate_point(edge(980, 950, 2700)).is_err());
    }

    #[test]
    fn rejections_name_the_offending_field() {
        let base = || RawPlatformSpec::from(&PlatformSpec::xgene2());
        let cases: Vec<(RawPlatformSpec, &str)> = vec![
            (RawPlatformSpec::default(), "name"),
            (
                RawPlatformSpec {
                    cores: Some(7.0),
                    cores_per_pmd: Some(2.0),
                    ..base()
                },
                "cores_per_pmd",
            ),
            (
                RawPlatformSpec {
                    arrays: Some(vec![]),
                    ..base()
                },
                "arrays",
            ),
            (
                {
                    let mut raw = base();
                    let arrays = raw.arrays.as_mut().unwrap();
                    arrays[0].bytes = Some(0.0);
                    raw
                },
                "arrays[0].bytes",
            ),
            (
                {
                    let mut raw = base();
                    let arrays = raw.arrays.as_mut().unwrap();
                    arrays[0].interleave = Some(0.0);
                    raw
                },
                "arrays[0].interleave",
            ),
            (
                {
                    let mut raw = base();
                    let arrays = raw.arrays.as_mut().unwrap();
                    let dup = arrays[0].clone();
                    arrays.push(dup);
                    raw
                },
                "arrays[7].kind",
            ),
            (
                {
                    let mut raw = base();
                    raw.pmd_rail.as_mut().unwrap().floor_mv = Some(990.0);
                    raw
                },
                "pmd_rail.floor_mv",
            ),
            (
                {
                    let mut raw = base();
                    raw.vmin.as_mut().unwrap().low_freq_mhz = Some(2400.0);
                    raw
                },
                "vmin.low_freq_mhz",
            ),
            (
                {
                    let mut raw = base();
                    raw.campaign = Some(vec![]);
                    raw
                },
                "campaign",
            ),
            (
                {
                    let mut raw = base();
                    raw.campaign.as_mut().unwrap()[0].pmd_mv = Some(993.0);
                    raw
                },
                "campaign[0].pmd_mv",
            ),
            (
                {
                    let mut raw = base();
                    raw.physics.as_mut().unwrap().sram_sigma_bit_cm2 = Some(f64::NAN);
                    raw
                },
                "physics.sram_sigma_bit_cm2",
            ),
            (
                {
                    let mut raw = base();
                    raw.physics.as_mut().unwrap().timing_sigma_at_fmax_mv = Some(0.0);
                    raw
                },
                "physics.timing_sigma_at_fmax_mv",
            ),
            (
                {
                    let mut raw = base();
                    raw.physics.as_mut().unwrap().timing_sigma_at_fmax_mv = Some(-0.0);
                    raw
                },
                "physics.timing_sigma_at_fmax_mv",
            ),
        ];
        for (raw, field) in cases {
            let err = PlatformSpec::try_from(raw).expect_err(&format!("{field} must be rejected"));
            assert_eq!(err.field, field, "{err}");
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = parse_platform("{\"cpus\":8}").expect_err("typo field");
        assert_eq!(err.field, "cpus");
        assert!(err.reason.contains("known fields"), "{err}");
    }

    #[test]
    fn non_json_bodies_land_on_the_body_field() {
        let deep = "[".repeat(60_000);
        for body in ["[1]", "7", "not json", "", &deep] {
            let err = parse_platform(body).expect_err(body);
            assert_eq!(err.field, "body", "{body} → {err}");
        }
    }
}
