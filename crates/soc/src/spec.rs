//! Declarative platform specifications.
//!
//! The die modelled by [`crate::platform`] is *data*. A platform arrives as
//! a JSON document, and [`parse_platform`] reads it in one pass straight
//! into a [`PlatformSpec`] whose every field is finite, on-grid, and
//! mutually consistent. Each field is checked where it is read, in the
//! order [`PlatformSpec`] declares them, except that the `campaign`
//! schedule comes last because its points are checked against the rails
//! and grids. The checks and the [`SpecObject`] reader come from
//! [`serscale_types::spec`], which `serscale-core`'s campaign specs
//! share: unknown keys are rejected, so a typo'd field cannot silently
//! fall back to a default, and the first failure is a [`SpecError`]
//! naming the offending field (dotted path, e.g. `arrays[3].interleave`)
//! and how to fix it.
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
use serscale_types::json::JsonValue;
use serscale_types::spec::{finite_in, identifier, integer_in, label, SpecError, SpecObject};
use serscale_types::{ArrayKind, Bytes, Error, Megahertz, Millivolts, Result};

use crate::platform::OperatingPoint;

type Result2<T> = std::result::Result<T, SpecError>;

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

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// The top-level keys of a platform document.
const PLATFORM_FIELDS: [&str; 20] = [
    "name",
    "description",
    "isa",
    "pipeline",
    "technology",
    "cores",
    "cores_per_pmd",
    "tlb_entry_bytes",
    "arrays",
    "pmd_rail",
    "soc_rail",
    "standby_mv",
    "freq_min_mhz",
    "freq_max_mhz",
    "campaign",
    "vmin",
    "physics",
    "power",
    "dvfs_floor_mv",
    "sweep_floor_mv",
];

/// The keys of an `arrays[i]` entry. `bytes` and `entries` are
/// exclusive; `interleave` defaults to 1 and `note` to none.
const ARRAY_FIELDS: [&str; 7] = [
    "kind",
    "scope",
    "bytes",
    "entries",
    "protection",
    "interleave",
    "note",
];

/// The keys of `pmd_rail` and `soc_rail`.
const RAIL_FIELDS: [&str; 2] = ["nominal_mv", "floor_mv"];

/// The keys of a `campaign[i]` point; `label` defaults to `Session i`.
const CAMPAIGN_POINT_FIELDS: [&str; 5] = ["label", "pmd_mv", "soc_mv", "freq_mhz", "minutes"];

/// The keys of the `vmin` anchor pair.
const VMIN_FIELDS: [&str; 4] = ["low_freq_mhz", "low_mv", "high_freq_mhz", "high_mv"];

/// The keys of the `physics` calibration block, one per [`PhysicsSpec`]
/// field.
const PHYSICS_FIELDS: [&str; 18] = [
    "sram_sigma_bit_cm2",
    "sram_voltage_sensitivity",
    "mbu_p_extra",
    "mbu_max_cluster",
    "logic_sigma_ctrl_cm2",
    "logic_sigma_data_cm2",
    "logic_voltage_sensitivity",
    "logic_amplification",
    "logic_margin_tau_mv",
    "logic_frequency_gamma",
    "timing_vc_at_fmax_mv",
    "timing_slope_mv_per_mhz",
    "timing_sigma_at_fmax_mv",
    "timing_sigma_slope_mv",
    "detect_tlb",
    "detect_l1",
    "detect_l2",
    "detect_l3",
];

/// The keys of the `power` block, one per [`PowerSpec`] field.
const POWER_FIELDS: [&str; 4] = [
    "pmd_dynamic_w",
    "pmd_static_w",
    "soc_dynamic_w",
    "soc_static_w",
];

/// Parses and validates a JSON platform document.
///
/// # Errors
///
/// The first [`SpecError`] in validation order: JSON syntax errors come
/// back on the pseudo-field `body`, unknown keys, type errors and range
/// errors on the offending field's dotted path.
pub fn parse_platform(body: &str) -> Result2<PlatformSpec> {
    SpecObject::read(body, &PLATFORM_FIELDS, platform)
}

fn validated_rail(doc: &SpecObject<'_>, key: &str) -> Result2<RailSpec> {
    let rail = doc.need_object(key, &RAIL_FIELDS)?;
    let nominal = grid_millivolts(
        &rail.field("nominal_mv"),
        rail.need_number("nominal_mv")?,
        300.0,
        1400.0,
    )?;
    let floor = grid_millivolts(
        &rail.field("floor_mv"),
        rail.need_number("floor_mv")?,
        300.0,
        1400.0,
    )?;
    if floor > nominal {
        return Err(SpecError::new(
            rail.field("floor_mv"),
            format!("floor {floor} is above the {nominal} nominal"),
        ));
    }
    Ok(RailSpec { nominal, floor })
}

fn validated_arrays(items: &[JsonValue], tlb_entry_bytes: u64) -> Result2<Vec<ArraySpec>> {
    if items.is_empty() {
        return Err(SpecError::new(
            "arrays",
            "a platform needs at least one SRAM array",
        ));
    }
    if items.len() > 64 {
        return Err(SpecError::new(
            "arrays",
            format!("{} entries exceed the 64-array cap", items.len()),
        ));
    }
    let mut arrays: Vec<ArraySpec> = Vec::with_capacity(items.len());
    for (at, item) in items.iter().enumerate() {
        let entry = SpecObject::open(format!("arrays[{at}]"), item, &ARRAY_FIELDS)?;
        let kind = array_kind(&entry.field("kind"), entry.need_string("kind")?)?;
        let scope = array_scope(&entry.field("scope"), entry.need_string("scope")?)?;
        let capacity = match (entry.number("bytes")?, entry.number("entries")?) {
            (Some(_), Some(_)) => {
                return Err(SpecError::new(
                    entry.field("bytes"),
                    "bytes and entries are mutually exclusive; give the capacity once",
                ));
            }
            (Some(bytes), None) => Bytes::new(integer_in(
                &entry.field("bytes"),
                bytes,
                1.0,
                1.0e12,
                "an array holds at least one byte",
            )?),
            (None, Some(entries)) => Bytes::new(
                integer_in(
                    &entry.field("entries"),
                    entries,
                    1.0,
                    1.0e9,
                    "a TLB holds at least one entry",
                )? * tlb_entry_bytes,
            ),
            (None, None) => {
                return Err(SpecError::new(
                    entry.field("bytes"),
                    "required field is missing; give the capacity in bytes or TLB entries",
                ));
            }
        };
        let protection = protection(&entry.field("protection"), entry.need_string("protection")?)?;
        let interleave = integer_in(
            &entry.field("interleave"),
            entry.number("interleave")?.unwrap_or(1.0),
            1.0,
            64.0,
            "interleave degree 1 means no interleaving",
        )? as u32;
        let note = match entry.string("note")? {
            Some(note) => Some(label(&entry.field("note"), note)?),
            None => None,
        };
        if let Some(earlier) = arrays.iter().position(|a| a.kind == kind) {
            return Err(SpecError::new(
                entry.field("kind"),
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

fn validated_vmin(doc: &SpecObject<'_>) -> Result2<VminAnchors> {
    let vmin = doc.need_object("vmin", &VMIN_FIELDS)?;
    let low_freq = grid_megahertz(
        &vmin.field("low_freq_mhz"),
        vmin.need_number("low_freq_mhz")?,
    )?;
    let high_freq = grid_megahertz(
        &vmin.field("high_freq_mhz"),
        vmin.need_number("high_freq_mhz")?,
    )?;
    if low_freq >= high_freq {
        return Err(SpecError::new(
            vmin.field("low_freq_mhz"),
            format!("low anchor {low_freq} must sit below the high anchor {high_freq}"),
        ));
    }
    let low_mv = integer_in(
        &vmin.field("low_mv"),
        vmin.need_number("low_mv")?,
        100.0,
        2000.0,
        "a measured Vmin in millivolts",
    )? as u32;
    let high_mv = integer_in(
        &vmin.field("high_mv"),
        vmin.need_number("high_mv")?,
        100.0,
        2000.0,
        "a measured Vmin in millivolts",
    )? as u32;
    if low_mv > high_mv {
        return Err(SpecError::new(
            vmin.field("low_mv"),
            format!("{low_mv} mV at the low anchor exceeds {high_mv} mV at the high one"),
        ));
    }
    Ok(VminAnchors {
        low_freq,
        low_mv,
        high_freq,
        high_mv,
    })
}

fn validated_physics(doc: &SpecObject<'_>) -> Result2<PhysicsSpec> {
    let physics = doc.need_object("physics", &PHYSICS_FIELDS)?;
    let f = |key: &str, min: f64, max: f64, hint: &str| -> Result2<f64> {
        finite_in(
            &physics.field(key),
            physics.need_number(key)?,
            min,
            max,
            hint,
        )
    };
    Ok(PhysicsSpec {
        sram_sigma_bit_cm2: f(
            "sram_sigma_bit_cm2",
            1.0e-24,
            1.0e-6,
            "per-bit cross-sections are small positive areas",
        )?,
        sram_voltage_sensitivity: f(
            "sram_voltage_sensitivity",
            0.0,
            100.0,
            "dimensionless exponential sensitivity",
        )?,
        mbu_p_extra: f("mbu_p_extra", 0.0, 0.999, "a probability below 1")?,
        mbu_max_cluster: integer_in(
            &physics.field("mbu_max_cluster"),
            physics.need_number("mbu_max_cluster")?,
            1.0,
            64.0,
            "the largest modelled MBU cluster",
        )? as u32,
        logic_sigma_ctrl_cm2: f(
            "logic_sigma_ctrl_cm2",
            0.0,
            1.0,
            "a chip-level cross-section area",
        )?,
        logic_sigma_data_cm2: f(
            "logic_sigma_data_cm2",
            0.0,
            1.0,
            "a chip-level cross-section area",
        )?,
        logic_voltage_sensitivity: f(
            "logic_voltage_sensitivity",
            0.0,
            100.0,
            "dimensionless exponential sensitivity",
        )?,
        logic_amplification: f(
            "logic_amplification",
            1.0,
            1000.0,
            "the near-Vmin amplification factor (1 = none)",
        )?,
        logic_margin_tau_mv: f(
            "logic_margin_tau_mv",
            0.1,
            1000.0,
            "a positive decay constant in millivolts",
        )?,
        logic_frequency_gamma: f(
            "logic_frequency_gamma",
            0.0,
            100.0,
            "the frequency exponent",
        )?,
        timing_vc_at_fmax_mv: f(
            "timing_vc_at_fmax_mv",
            100.0,
            2000.0,
            "a critical voltage in millivolts",
        )?,
        timing_slope_mv_per_mhz: f(
            "timing_slope_mv_per_mhz",
            0.0,
            10.0,
            "millivolts of critical-voltage per MHz",
        )?,
        timing_sigma_at_fmax_mv: f(
            "timing_sigma_at_fmax_mv",
            0.0,
            100.0,
            "a spread in millivolts",
        )
        .and_then(|sigma| {
            if sigma > 0.0 {
                Ok(sigma)
            } else {
                Err(SpecError::new(
                    physics.field("timing_sigma_at_fmax_mv"),
                    format!("{sigma} is not above 0; the timing model needs a non-zero spread"),
                ))
            }
        })?,
        timing_sigma_slope_mv: f(
            "timing_sigma_slope_mv",
            0.0,
            100.0,
            "millivolts of spread growth per GHz",
        )?,
        detect_tlb: f("detect_tlb", 0.0, 1.0, "an efficiency in [0, 1]")?,
        detect_l1: f("detect_l1", 0.0, 1.0, "an efficiency in [0, 1]")?,
        detect_l2: f("detect_l2", 0.0, 1.0, "an efficiency in [0, 1]")?,
        detect_l3: f("detect_l3", 0.0, 1.0, "an efficiency in [0, 1]")?,
    })
}

fn validated_power(doc: &SpecObject<'_>) -> Result2<PowerSpec> {
    let power = doc.need_object("power", &POWER_FIELDS)?;
    let f = |key: &str| -> Result2<f64> {
        finite_in(
            &power.field(key),
            power.need_number(key)?,
            0.0,
            10_000.0,
            "a non-negative wattage",
        )
    };
    Ok(PowerSpec {
        pmd_dynamic_w: f("pmd_dynamic_w")?,
        pmd_static_w: f("pmd_static_w")?,
        soc_dynamic_w: f("soc_dynamic_w")?,
        soc_static_w: f("soc_static_w")?,
    })
}

/// Reads the root object of a platform document into a [`PlatformSpec`].
fn platform(doc: &SpecObject<'_>) -> Result2<PlatformSpec> {
    let name = identifier("name", doc.need_string("name")?)?;
    let description = match doc.string("description")? {
        Some(d) => label("description", d)?,
        None => name.clone(),
    };
    let isa = label("isa", doc.string("isa")?.unwrap_or("unknown"))?;
    let pipeline = label("pipeline", doc.string("pipeline")?.unwrap_or("unknown"))?;
    let technology = label("technology", doc.string("technology")?.unwrap_or("unknown"))?;
    let cores = integer_in(
        "cores",
        doc.need_number("cores")?,
        1.0,
        64.0,
        "the number of cores on the die",
    )? as u8;
    let cores_per_pmd = integer_in(
        "cores_per_pmd",
        doc.need_number("cores_per_pmd")?,
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
        doc.number("tlb_entry_bytes")?.unwrap_or(16.0),
        1.0,
        256.0,
        "modelled bytes per TLB entry",
    )?;
    let arrays = validated_arrays(doc.need_array("arrays")?, tlb_entry_bytes)?;
    let pmd_rail = validated_rail(doc, "pmd_rail")?;
    let soc_rail = validated_rail(doc, "soc_rail")?;
    let standby = match doc.number("standby_mv")? {
        Some(mv) => grid_millivolts("standby_mv", mv, 300.0, 1400.0)?,
        None => soc_rail.nominal,
    };
    let freq_min = grid_megahertz("freq_min_mhz", doc.need_number("freq_min_mhz")?)?;
    let freq_max = grid_megahertz("freq_max_mhz", doc.need_number("freq_max_mhz")?)?;
    if freq_min > freq_max {
        return Err(SpecError::new(
            "freq_min_mhz",
            format!("{freq_min} is above the {freq_max} maximum"),
        ));
    }
    let vmin = validated_vmin(doc)?;
    let physics = validated_physics(doc)?;
    let power = validated_power(doc)?;
    let dvfs_floor = match doc.number("dvfs_floor_mv")? {
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
    let sweep_floor = match doc.number("sweep_floor_mv")? {
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
    // Campaign points validate against the rails/grid above, so the spec
    // is assembled first and the schedule folded in last.
    let items = doc.need_array("campaign")?;
    if items.is_empty() {
        return Err(SpecError::new(
            "campaign",
            "a platform needs at least one campaign operating point",
        ));
    }
    if items.len() > 16 {
        return Err(SpecError::new(
            "campaign",
            format!("{} points exceed the 16-session cap", items.len()),
        ));
    }
    let mut campaign: Vec<CampaignPointSpec> = Vec::with_capacity(items.len());
    for (at, item) in items.iter().enumerate() {
        let entry = SpecObject::open(format!("campaign[{at}]"), item, &CAMPAIGN_POINT_FIELDS)?;
        let point = OperatingPoint {
            pmd: grid_millivolts(
                &entry.field("pmd_mv"),
                entry.need_number("pmd_mv")?,
                0.0,
                2000.0,
            )?,
            soc: grid_millivolts(
                &entry.field("soc_mv"),
                entry.need_number("soc_mv")?,
                0.0,
                2000.0,
            )?,
            frequency: grid_megahertz(&entry.field("freq_mhz"), entry.need_number("freq_mhz")?)?,
        };
        if let Err(e) = spec.validate_point(point) {
            return Err(SpecError::new(format!("campaign[{at}]"), e.to_string()));
        }
        let minutes = entry.need_number("minutes")?;
        if !minutes.is_finite() || minutes <= 0.0 || minutes > 10_000.0 {
            return Err(SpecError::new(
                entry.field("minutes"),
                format!("{minutes} is outside (0, 10000] minutes"),
            ));
        }
        let label_text = match entry.string("label")? {
            Some(text) => label(&entry.field("label"), text)?,
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

#[cfg(test)]
mod tests {
    use serscale_types::json;

    use super::*;

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

    /// The X-Gene 2 file with its top-level member `key` rewritten by
    /// `edit`, which receives the member's JSON text.
    fn xgene2_with(key: &str, edit: impl FnOnce(&str) -> String) -> String {
        let file = BUILTINS[0].1;
        let mut found = None;
        json::members(file, |name, _, text| {
            if name.get() == key {
                found = Some(text);
            }
        })
        .expect("xgene2.json is JSON");
        let old = found.unwrap_or_else(|| panic!("xgene2.json has no {key}"));
        let new = edit(old);
        assert_ne!(new, old, "the edit of {key} changed nothing");
        file.replacen(&format!("\"{key}\":{old}"), &format!("\"{key}\":{new}"), 1)
    }

    #[test]
    fn rejections_name_the_offending_field() {
        let set = |value: &str| {
            let value = value.to_string();
            move |_: &str| value
        };
        let cases: Vec<(String, &str)> = vec![
            ("{}".to_string(), "name"),
            (xgene2_with("cores", set("7")), "cores_per_pmd"),
            (xgene2_with("arrays", set("[]")), "arrays"),
            (
                xgene2_with("arrays", |a| {
                    a.replacen("\"bytes\":32768.0", "\"bytes\":0", 1)
                }),
                "arrays[0].bytes",
            ),
            (
                xgene2_with("arrays", |a| {
                    a.replacen("\"interleave\":4.0", "\"interleave\":0", 1)
                }),
                "arrays[0].interleave",
            ),
            (
                xgene2_with("arrays", |a| {
                    let first = &a[1..=a.find('}').expect("an array entry")];
                    format!("{},{first}]", &a[..a.len() - 1])
                }),
                "arrays[7].kind",
            ),
            (
                xgene2_with("pmd_rail", set("{\"nominal_mv\":980,\"floor_mv\":990}")),
                "pmd_rail.floor_mv",
            ),
            (
                xgene2_with("vmin", |v| {
                    v.replace("\"low_freq_mhz\":900.0", "\"low_freq_mhz\":2400")
                }),
                "vmin.low_freq_mhz",
            ),
            (xgene2_with("campaign", set("[]")), "campaign"),
            (
                xgene2_with("campaign", |c| {
                    c.replacen("\"pmd_mv\":980.0", "\"pmd_mv\":993", 1)
                }),
                "campaign[0].pmd_mv",
            ),
            // JSON has no NaN; 1e400 overflows to infinity.
            (
                xgene2_with("physics", |p| {
                    p.replace(
                        "\"sram_sigma_bit_cm2\":0.000000000000001",
                        "\"sram_sigma_bit_cm2\":1e400",
                    )
                }),
                "physics.sram_sigma_bit_cm2",
            ),
            (
                xgene2_with("physics", |p| {
                    p.replace(
                        "\"timing_sigma_at_fmax_mv\":2.2",
                        "\"timing_sigma_at_fmax_mv\":0",
                    )
                }),
                "physics.timing_sigma_at_fmax_mv",
            ),
            (
                xgene2_with("physics", |p| {
                    p.replace(
                        "\"timing_sigma_at_fmax_mv\":2.2",
                        "\"timing_sigma_at_fmax_mv\":-0.0",
                    )
                }),
                "physics.timing_sigma_at_fmax_mv",
            ),
        ];
        for (body, field) in cases {
            let err = parse_platform(&body).expect_err(&format!("{field} must be rejected"));
            assert_eq!(err.field, field, "{err}");
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = parse_platform("{\"cpus\":8}").expect_err("typo field");
        assert_eq!(err.field, "cpus");
        assert!(err.reason.contains("known fields"), "{err}");
        // A nested typo is refused on its dotted path and the reason lists
        // the object's own keys.
        let body = xgene2_with("physics", |p| p.replace("\"detect_l1\"", "\"detect_ll\""));
        let err = parse_platform(&body).expect_err("nested typo field");
        assert_eq!(err.field, "physics.detect_ll");
        assert!(
            err.reason
                .starts_with("unknown field \"detect_ll\"; known fields are ")
                && err.reason.contains("sram_sigma_bit_cm2"),
            "{err}"
        );
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
