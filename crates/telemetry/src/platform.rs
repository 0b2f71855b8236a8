//! JSON wire format for platform specs: the mapping behind
//! `repro --platform <file>` and the `POST /campaigns` `"platform"`
//! field's future file-based cousin.
//!
//! The shape mirrors [`crate::control`]'s campaign-spec mapping: a parsed
//! JSON document is lowered field-by-field onto the permissive
//! [`RawPlatformSpec`] carrier (unknown keys are rejected so a typo'd
//! field cannot silently fall back to a default), and all *value*
//! judgment lives in `PlatformSpec::try_from` in `serscale-soc`.
//! [`platform_to_json`] renders the normalization inverse: parsing its
//! output reproduces the validated spec exactly, the property the schema
//! fuzz suite pins for both built-in platforms.

use serscale_soc::spec::{
    RawArraySpec, RawCampaignPointSpec, RawPhysicsSpec, RawPowerSpec, RawRailSpec, RawVminAnchors,
};
use serscale_soc::{PlatformSpec, RawPlatformSpec};
use serscale_types::json::{self, JsonValue};
use serscale_types::spec::{want_array, want_number, want_object, want_string, SpecError};

/// Parses and validates a JSON platform document.
///
/// # Errors
///
/// A [`SpecError`] naming the offending field: JSON syntax errors come
/// back on the pseudo-field `body`, type errors and unknown fields on
/// their dotted path, and range errors from the soc schema's `TryFrom`.
pub fn parse_platform(body: &str) -> Result<PlatformSpec, SpecError> {
    let doc =
        json::parse(body).map_err(|e| SpecError::new("body", format!("not valid JSON: {e}")))?;
    let raw = raw_platform_from_json(&doc)?;
    PlatformSpec::try_from(raw)
}

fn unknown_field(field: &str, known: &str) -> SpecError {
    SpecError::new(field, format!("unknown field; known fields are {known}"))
}

fn rail_from_json(field: &str, doc: &JsonValue) -> Result<RawRailSpec, SpecError> {
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

fn array_from_json(at: usize, doc: &JsonValue) -> Result<RawArraySpec, SpecError> {
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

fn campaign_point_from_json(at: usize, doc: &JsonValue) -> Result<RawCampaignPointSpec, SpecError> {
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

fn vmin_from_json(doc: &JsonValue) -> Result<RawVminAnchors, SpecError> {
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

fn physics_from_json(doc: &JsonValue) -> Result<RawPhysicsSpec, SpecError> {
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

fn power_from_json(doc: &JsonValue) -> Result<RawPowerSpec, SpecError> {
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
/// Unknown fields are rejected; value validation happens later in
/// `PlatformSpec::try_from`.
///
/// # Errors
///
/// A [`SpecError`] for non-object documents, unknown fields, or
/// wrongly-typed values.
pub fn raw_platform_from_json(doc: &JsonValue) -> Result<RawPlatformSpec, SpecError> {
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

fn push_str_field(out: &mut String, key: &str, value: &Option<String>) {
    if let Some(value) = value {
        if !out.ends_with('{') {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\":{}", json::escape(value)));
    }
}

fn push_num_field(out: &mut String, key: &str, value: Option<f64>) {
    if let Some(value) = value {
        if !out.ends_with('{') {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\":{}", json::number(value)));
    }
}

fn rail_json(raw: &RawRailSpec) -> String {
    let mut out = String::from("{");
    push_num_field(&mut out, "nominal_mv", raw.nominal_mv);
    push_num_field(&mut out, "floor_mv", raw.floor_mv);
    out.push('}');
    out
}

/// Renders a validated platform spec back to its normalized JSON
/// document. A round-trip through [`parse_platform`] reproduces the spec
/// exactly — the property the platform schema fuzz suite pins for both
/// built-ins.
pub fn platform_to_json(spec: &PlatformSpec) -> String {
    let raw = RawPlatformSpec::from(spec);
    let mut out = String::from("{");
    push_str_field(&mut out, "name", &raw.name);
    push_str_field(&mut out, "description", &raw.description);
    push_str_field(&mut out, "isa", &raw.isa);
    push_str_field(&mut out, "pipeline", &raw.pipeline);
    push_str_field(&mut out, "technology", &raw.technology);
    push_num_field(&mut out, "cores", raw.cores);
    push_num_field(&mut out, "cores_per_pmd", raw.cores_per_pmd);
    push_num_field(&mut out, "tlb_entry_bytes", raw.tlb_entry_bytes);
    if let Some(arrays) = &raw.arrays {
        out.push_str(",\"arrays\":[");
        for (at, a) in arrays.iter().enumerate() {
            if at > 0 {
                out.push(',');
            }
            let mut entry = String::from("{");
            push_str_field(&mut entry, "kind", &a.kind);
            push_str_field(&mut entry, "scope", &a.scope);
            push_num_field(&mut entry, "bytes", a.bytes);
            push_num_field(&mut entry, "entries", a.entries);
            push_str_field(&mut entry, "protection", &a.protection);
            push_num_field(&mut entry, "interleave", a.interleave);
            push_str_field(&mut entry, "note", &a.note);
            entry.push('}');
            out.push_str(&entry);
        }
        out.push(']');
    }
    if let Some(rail) = &raw.pmd_rail {
        out.push_str(&format!(",\"pmd_rail\":{}", rail_json(rail)));
    }
    if let Some(rail) = &raw.soc_rail {
        out.push_str(&format!(",\"soc_rail\":{}", rail_json(rail)));
    }
    push_num_field(&mut out, "standby_mv", raw.standby_mv);
    push_num_field(&mut out, "freq_min_mhz", raw.freq_min_mhz);
    push_num_field(&mut out, "freq_max_mhz", raw.freq_max_mhz);
    if let Some(points) = &raw.campaign {
        out.push_str(",\"campaign\":[");
        for (at, c) in points.iter().enumerate() {
            if at > 0 {
                out.push(',');
            }
            let mut entry = String::from("{");
            push_str_field(&mut entry, "label", &c.label);
            push_num_field(&mut entry, "pmd_mv", c.pmd_mv);
            push_num_field(&mut entry, "soc_mv", c.soc_mv);
            push_num_field(&mut entry, "freq_mhz", c.freq_mhz);
            push_num_field(&mut entry, "minutes", c.minutes);
            entry.push('}');
            out.push_str(&entry);
        }
        out.push(']');
    }
    if let Some(vmin) = &raw.vmin {
        let mut entry = String::from("{");
        push_num_field(&mut entry, "low_freq_mhz", vmin.low_freq_mhz);
        push_num_field(&mut entry, "low_mv", vmin.low_mv);
        push_num_field(&mut entry, "high_freq_mhz", vmin.high_freq_mhz);
        push_num_field(&mut entry, "high_mv", vmin.high_mv);
        entry.push('}');
        out.push_str(&format!(",\"vmin\":{entry}"));
    }
    if let Some(p) = &raw.physics {
        let mut entry = String::from("{");
        push_num_field(&mut entry, "sram_sigma_bit_cm2", p.sram_sigma_bit_cm2);
        push_num_field(
            &mut entry,
            "sram_voltage_sensitivity",
            p.sram_voltage_sensitivity,
        );
        push_num_field(&mut entry, "mbu_p_extra", p.mbu_p_extra);
        push_num_field(&mut entry, "mbu_max_cluster", p.mbu_max_cluster);
        push_num_field(&mut entry, "logic_sigma_ctrl_cm2", p.logic_sigma_ctrl_cm2);
        push_num_field(&mut entry, "logic_sigma_data_cm2", p.logic_sigma_data_cm2);
        push_num_field(
            &mut entry,
            "logic_voltage_sensitivity",
            p.logic_voltage_sensitivity,
        );
        push_num_field(&mut entry, "logic_amplification", p.logic_amplification);
        push_num_field(&mut entry, "logic_margin_tau_mv", p.logic_margin_tau_mv);
        push_num_field(&mut entry, "logic_frequency_gamma", p.logic_frequency_gamma);
        push_num_field(&mut entry, "timing_vc_at_fmax_mv", p.timing_vc_at_fmax_mv);
        push_num_field(
            &mut entry,
            "timing_slope_mv_per_mhz",
            p.timing_slope_mv_per_mhz,
        );
        push_num_field(
            &mut entry,
            "timing_sigma_at_fmax_mv",
            p.timing_sigma_at_fmax_mv,
        );
        push_num_field(&mut entry, "timing_sigma_slope_mv", p.timing_sigma_slope_mv);
        push_num_field(&mut entry, "detect_tlb", p.detect_tlb);
        push_num_field(&mut entry, "detect_l1", p.detect_l1);
        push_num_field(&mut entry, "detect_l2", p.detect_l2);
        push_num_field(&mut entry, "detect_l3", p.detect_l3);
        entry.push('}');
        out.push_str(&format!(",\"physics\":{entry}"));
    }
    if let Some(p) = &raw.power {
        let mut entry = String::from("{");
        push_num_field(&mut entry, "pmd_dynamic_w", p.pmd_dynamic_w);
        push_num_field(&mut entry, "pmd_static_w", p.pmd_static_w);
        push_num_field(&mut entry, "soc_dynamic_w", p.soc_dynamic_w);
        push_num_field(&mut entry, "soc_static_w", p.soc_static_w);
        entry.push('}');
        out.push_str(&format!(",\"power\":{entry}"));
    }
    push_num_field(&mut out, "dvfs_floor_mv", raw.dvfs_floor_mv);
    push_num_field(&mut out, "sweep_floor_mv", raw.sweep_floor_mv);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_round_trip_through_the_json_wire() {
        for name in PlatformSpec::BUILTIN_NAMES {
            let spec = PlatformSpec::builtin(name).expect("builtin");
            let rendered = platform_to_json(&spec);
            let reparsed = parse_platform(&rendered)
                .unwrap_or_else(|e| panic!("{name} failed to reparse: {e}\n{rendered}"));
            assert_eq!(reparsed, spec, "{name} must round-trip byte-faithfully");
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
