//! Validated campaign specifications for the control plane, and their
//! wire format.
//!
//! A campaign submitted over HTTP arrives as an untrusted JSON document.
//! This module is the schema layer between the wire and the engine:
//! [`parse_campaign`] reads the document in one pass straight into a
//! [`CampaignSpec`] whose every field is finite, in range, and exactly
//! representable, checking each field where it is read, or fails with the
//! first [`SpecError`] in validation order, naming the offending field and
//! how to fix it. The reader and the checks come from
//! [`serscale_types::spec`], which the platform schema shares;
//! [`CampaignSpec::to_json`] renders a validated spec back to the
//! normalized document.
//!
//! A validated spec converts to a [`CampaignConfig`] via
//! [`CampaignSpec::config`]; the default spec maps to the exact
//! configuration the `repro` CLI builds, so a campaign run through the
//! control plane is bit-identical to the same spec run solo.

use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_types::json::{self, JsonValue};
use serscale_types::spec::{identifier, integer_in, SpecError, SpecObject, EXACT_INT_MAX};
use serscale_types::{Megahertz, Millivolts, SimDuration};

use crate::campaign::{CampaignConfig, VminSource};
use crate::session::SessionLimits;

/// A fully validated campaign spec: every field finite, in range, and
/// ready to become a [`CampaignConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Sanitized job name.
    pub name: String,
    /// Tenant for fair-share scheduling.
    pub tenant: String,
    /// Master RNG seed.
    pub seed: u64,
    /// Session-duration fraction of the paper campaign, in (0, 1].
    pub scale: f64,
    /// Worker-thread override, if the submitter set one.
    pub jobs: Option<u32>,
    /// Vmin characterization trials (`None` = paper anchors).
    pub vmin_trials: Option<u32>,
    /// Explicit session schedule (`None` = paper Table 2 × `scale`).
    pub sessions: Option<Vec<(OperatingPoint, SessionLimits)>>,
    /// Cancelled job id to resume, if any.
    pub resume: Option<u64>,
    /// The platform the campaign runs on.
    pub platform: PlatformSpec,
}

impl CampaignSpec {
    /// The scale a spec that names none gets: the CI-sized fraction the
    /// repro golden artifacts are pinned at.
    pub const DEFAULT_SCALE: f64 = 0.005;

    /// Builds the engine configuration this spec describes.
    ///
    /// A spec without an explicit `sessions` list maps to
    /// [`CampaignConfig::paper_scaled`]`(scale)` with the spec's seed —
    /// exactly what the one-shot CLI builds, which is what makes control
    /// plane reports byte-comparable to solo runs.
    pub fn config(&self) -> CampaignConfig {
        let mut config = match &self.sessions {
            None => CampaignConfig::for_platform_scaled(&self.platform, self.scale),
            Some(sessions) => {
                let mut config = CampaignConfig::for_platform(&self.platform);
                config.sessions = sessions.clone();
                config
            }
        };
        config.seed = self.seed;
        if let Some(trials) = self.vmin_trials {
            config.vmin_source = VminSource::Characterized { trials };
        }
        config
    }

    /// Renders the spec back to its normalized JSON document. A
    /// round-trip through [`parse_campaign`] reproduces the spec exactly —
    /// the property the schema fuzz suite pins.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":{},\"tenant\":{},\"seed\":{}",
            json::escape(&self.name),
            json::escape(&self.tenant),
            self.seed
        );
        if self.platform != PlatformSpec::xgene2() {
            out.push_str(&format!(
                ",\"platform\":{}",
                json::escape(&self.platform.name)
            ));
        }
        if self.sessions.is_none() {
            out.push_str(&format!(",\"scale\":{}", json::number(self.scale)));
        }
        if let Some(jobs) = self.jobs {
            out.push_str(&format!(",\"jobs\":{jobs}"));
        }
        if let Some(trials) = self.vmin_trials {
            out.push_str(&format!(",\"vmin_trials\":{trials}"));
        }
        if let Some(sessions) = &self.sessions {
            out.push_str(",\"sessions\":[");
            for (at, (point, limits)) in sessions.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                let minutes = limits.max_duration.map_or(0.0, SimDuration::as_minutes);
                out.push_str(&format!(
                    "{{\"pmd_mv\":{},\"soc_mv\":{},\"freq_mhz\":{},\"minutes\":{}}}",
                    point.pmd.get(),
                    point.soc.get(),
                    point.frequency.get(),
                    json::number(minutes)
                ));
            }
            out.push(']');
        }
        if let Some(resume) = self.resume {
            out.push_str(&format!(",\"resume\":{resume}"));
        }
        out.push('}');
        out
    }
}

/// The top-level keys of a campaign document. `scale` and `sessions` are
/// exclusive; every key is optional.
const CAMPAIGN_FIELDS: [&str; 9] = [
    "name",
    "tenant",
    "platform",
    "seed",
    "scale",
    "jobs",
    "vmin_trials",
    "sessions",
    "resume",
];

/// The keys of a `sessions[i]` entry, all required.
const SESSION_FIELDS: [&str; 4] = ["pmd_mv", "soc_mv", "freq_mhz", "minutes"];

/// Parses and validates a `POST /campaigns` body into a [`CampaignSpec`].
///
/// # Errors
///
/// The first [`SpecError`] in validation order: JSON syntax errors come
/// back on the pseudo-field `body`, unknown keys, type errors and range
/// errors on the offending field's dotted path.
pub fn parse_campaign(body: &str) -> Result<CampaignSpec, SpecError> {
    SpecObject::read(body, &CAMPAIGN_FIELDS, campaign)
}

/// Reads the root object of a campaign document into a [`CampaignSpec`].
fn campaign(doc: &SpecObject<'_>) -> Result<CampaignSpec, SpecError> {
    let name = match doc.string("name")? {
        Some(name) => identifier("name", name)?,
        None => "campaign".to_string(),
    };
    let tenant = match doc.string("tenant")? {
        Some(tenant) => identifier("tenant", tenant)?,
        None => "anonymous".to_string(),
    };
    let seed = match doc.number("seed")? {
        Some(seed) => integer_in(
            "seed",
            seed,
            0.0,
            EXACT_INT_MAX,
            "seeds must survive the JSON double round-trip exactly",
        )?,
        None => CampaignConfig::paper().seed,
    };
    let scale = doc.number("scale")?;
    let sessions = doc.array("sessions")?;
    if scale.is_some() && sessions.is_some() {
        return Err(SpecError::new(
            "scale",
            "mutually exclusive with `sessions`; scale the explicit session minutes instead",
        ));
    }
    let scale = match scale {
        Some(scale) => {
            if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
                return Err(SpecError::new(
                    "scale",
                    format!(
                        "{scale} is outside (0, 1]; 1.0 replays the full 64.8-beam-hour campaign"
                    ),
                ));
            }
            scale
        }
        None => CampaignSpec::DEFAULT_SCALE,
    };
    let jobs = match doc.number("jobs")? {
        Some(jobs) => Some(integer_in(
            "jobs",
            jobs,
            1.0,
            64.0,
            "worker counts beyond the host's cores are clamped, not rejected",
        )? as u32),
        None => None,
    };
    let vmin_trials = match doc.number("vmin_trials")? {
        Some(trials) => Some(integer_in(
            "vmin_trials",
            trials,
            1.0,
            100_000.0,
            "zero trials cannot characterize Vmin; omit the field to use the paper's anchors",
        )? as u32),
        None => None,
    };
    let platform = match doc.string("platform")? {
        Some(name) => PlatformSpec::builtin(name).ok_or_else(|| {
            SpecError::new(
                "platform",
                format!(
                    "{name:?} is not a built-in platform; known platforms: {}",
                    PlatformSpec::BUILTIN_NAMES.join(", ")
                ),
            )
        })?,
        None => PlatformSpec::xgene2(),
    };
    let sessions = match sessions {
        Some(items) => Some(validated_sessions(items, &platform)?),
        None => None,
    };
    let resume = match doc.number("resume")? {
        Some(id) => Some(integer_in(
            "resume",
            id,
            0.0,
            EXACT_INT_MAX,
            "pass the numeric id of the cancelled job to resume",
        )?),
        None => None,
    };
    Ok(CampaignSpec {
        name,
        tenant,
        seed,
        scale,
        jobs,
        vmin_trials,
        sessions,
        resume,
        platform,
    })
}

fn validated_sessions(
    items: &[JsonValue],
    platform: &PlatformSpec,
) -> Result<Vec<(OperatingPoint, SessionLimits)>, SpecError> {
    if items.is_empty() {
        return Err(SpecError::new(
            "sessions",
            "an explicit session list must hold at least one session; omit the field for the paper schedule",
        ));
    }
    if items.len() > 16 {
        return Err(SpecError::new(
            "sessions",
            format!("{} sessions exceed the 16-session cap", items.len()),
        ));
    }
    let pmd_hint = format!(
        "PMD voltages are whole millivolts between {} and the {} nominal",
        platform.pmd_rail.floor, platform.pmd_rail.nominal
    );
    let soc_hint = format!(
        "SoC voltages are whole millivolts between {} and the {} nominal",
        platform.soc_rail.floor, platform.soc_rail.nominal
    );
    let freq_hint = format!(
        "frequencies sit on the {} PLL grid up to {}",
        Megahertz::new(Megahertz::STEP),
        platform.freq_max
    );
    let mut sessions = Vec::with_capacity(items.len());
    for (at, item) in items.iter().enumerate() {
        let session = SpecObject::open(format!("sessions[{at}]"), item, &SESSION_FIELDS)?;
        let point = OperatingPoint {
            pmd: Millivolts::new(integer_in(
                &session.field("pmd_mv"),
                session.need_number("pmd_mv")?,
                f64::from(platform.pmd_rail.floor.get()),
                f64::from(platform.pmd_rail.nominal.get()),
                &pmd_hint,
            )? as u32),
            soc: Millivolts::new(integer_in(
                &session.field("soc_mv"),
                session.need_number("soc_mv")?,
                f64::from(platform.soc_rail.floor.get()),
                f64::from(platform.soc_rail.nominal.get()),
                &soc_hint,
            )? as u32),
            frequency: Megahertz::new(integer_in(
                &session.field("freq_mhz"),
                session.need_number("freq_mhz")?,
                f64::from(platform.freq_min.get()),
                f64::from(platform.freq_max.get()),
                &freq_hint,
            )? as u32),
        };
        // The regulator/PLL constraints of §3.1 (5 mV step, 300 MHz
        // grid) are the platform's own validation.
        if let Err(e) = platform.validate_point(point) {
            return Err(SpecError::new(format!("sessions[{at}]"), e.to_string()));
        }
        let minutes = session.need_number("minutes")?;
        if !minutes.is_finite() || minutes <= 0.0 || minutes > 10_000.0 {
            return Err(SpecError::new(
                session.field("minutes"),
                format!(
                    "{minutes} is outside (0, 10000]; the paper's longest session is 1651 minutes"
                ),
            ));
        }
        if let Some(earlier) = sessions
            .iter()
            .position(|(p, _): &(OperatingPoint, SessionLimits)| *p == point)
        {
            return Err(SpecError::new(
                format!("sessions[{at}]"),
                format!(
                    "overlaps session {earlier}: both run {}; campaign reports index sessions by operating point",
                    point.label()
                ),
            ));
        }
        sessions.push((
            point,
            SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
        ));
    }
    Ok(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The X-Gene 2 campaign point `platforms/xgene2.json` labels `label`.
    fn xgene2_point(label: &str) -> OperatingPoint {
        let spec = PlatformSpec::xgene2();
        let row = spec.campaign.iter().find(|c| c.label == label);
        row.expect("an X-Gene 2 campaign label").point
    }

    /// A body whose explicit schedule is one five-minute session, with
    /// `extra` members before it.
    fn one_session(extra: &str, pmd_mv: &str, soc_mv: &str, freq_mhz: &str) -> String {
        format!(
            "{{{extra}\"sessions\":[{{\"pmd_mv\":{pmd_mv},\"soc_mv\":{soc_mv},\
             \"freq_mhz\":{freq_mhz},\"minutes\":5}}]}}"
        )
    }

    #[test]
    fn empty_raw_spec_maps_to_the_cli_default_campaign() {
        let spec = parse_campaign("{}").expect("valid");
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.tenant, "anonymous");
        assert_eq!(spec.seed, CampaignConfig::paper().seed);
        assert_eq!(spec.scale, CampaignSpec::DEFAULT_SCALE);
        let mut expected = CampaignConfig::paper_scaled(CampaignSpec::DEFAULT_SCALE);
        expected.seed = spec.seed;
        assert_eq!(spec.config(), expected);
    }

    #[test]
    fn scaled_spec_matches_the_cli_config_exactly() {
        let spec = parse_campaign("{\"seed\":20231028,\"scale\":0.01}").expect("valid");
        let mut expected = CampaignConfig::paper_scaled(0.01);
        expected.seed = 20231028;
        assert_eq!(spec.config(), expected);
    }

    #[test]
    fn explicit_sessions_build_custom_schedules() {
        let spec = parse_campaign(
            "{\"sessions\":[{\"pmd_mv\":980,\"soc_mv\":950,\"freq_mhz\":2400,\"minutes\":10},\
             {\"pmd_mv\":790,\"soc_mv\":950,\"freq_mhz\":900,\"minutes\":5}]}",
        )
        .expect("valid");
        let config = spec.config();
        assert_eq!(config.sessions.len(), 2);
        assert_eq!(config.sessions[0].0, xgene2_point("Nominal"));
        assert_eq!(
            config.sessions[1].1.max_duration,
            Some(SimDuration::from_minutes(5.0))
        );
    }

    #[test]
    fn default_platform_is_the_xgene2() {
        let spec = parse_campaign("{}").expect("valid");
        assert_eq!(spec.platform, PlatformSpec::xgene2());
    }

    #[test]
    fn zynq_platform_spec_builds_its_own_campaign() {
        let spec = parse_campaign("{\"platform\":\"zynq-mpsoc\",\"scale\":0.01}").expect("valid");
        assert_eq!(spec.platform.name, "zynq-mpsoc");
        let mut expected = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), 0.01);
        expected.seed = spec.seed;
        assert_eq!(spec.config(), expected);
    }

    #[test]
    fn unknown_platform_is_rejected_with_the_known_names() {
        let err = parse_campaign("{\"platform\":\"epyc\"}").expect_err("unknown platform rejected");
        assert_eq!(err.field, "platform");
        assert!(err.reason.contains("xgene2"), "{err}");
        assert!(err.reason.contains("zynq-mpsoc"), "{err}");
    }

    #[test]
    fn session_bounds_follow_the_selected_platform() {
        // 980 mV is the X-Gene nominal but sits above the Zynq 850 mV rail.
        let err = parse_campaign(&one_session(
            "\"platform\":\"zynq-mpsoc\",",
            "980",
            "850",
            "1500",
        ))
        .expect_err("overvolt rejected");
        assert_eq!(err.field, "sessions[0].pmd_mv");
        assert!(err.reason.contains("850 mV nominal"), "{err}");
        // The same point is legal on its own rails at 850 mV.
        let spec = parse_campaign(&one_session(
            "\"platform\":\"zynq-mpsoc\",",
            "850",
            "850",
            "1500",
        ))
        .expect("valid zynq session");
        assert_eq!(spec.config().sessions.len(), 1);
    }

    #[test]
    fn rejections_name_the_field_and_how_to_fix_it() {
        let cases: Vec<(String, &str)> = vec![
            ("{\"scale\":0}".to_string(), "scale"),
            // JSON has no NaN; 1e400 overflows to infinity.
            ("{\"scale\":1e400}".to_string(), "scale"),
            ("{\"seed\":1.5}".to_string(), "seed"),
            ("{\"jobs\":0}".to_string(), "jobs"),
            ("{\"vmin_trials\":0}".to_string(), "vmin_trials"),
            ("{\"name\":\"no spaces allowed\"}".to_string(), "name"),
            (
                "{\"scale\":0.5,\"sessions\":[{\"pmd_mv\":980,\"soc_mv\":950,\
                 \"freq_mhz\":2400,\"minutes\":1}]}"
                    .to_string(),
                "scale",
            ),
            ("{\"sessions\":[]}".to_string(), "sessions"),
        ];
        for (body, field) in cases {
            let err = parse_campaign(&body).expect_err(&format!("{body} must be rejected"));
            assert_eq!(err.field, field, "{body} → {err}");
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn first_error_in_validation_order_wins() {
        let err = parse_campaign("{\"name\":\"bad name\",\"seed\":\"x\"}").expect_err("two errors");
        assert_eq!(err.field, "name", "{err}");
    }

    #[test]
    fn missing_session_members_are_required_fields() {
        let err =
            parse_campaign("{\"sessions\":[{\"pmd_mv\":940,\"soc_mv\":950,\"freq_mhz\":2400}]}")
                .expect_err("session without minutes");
        assert_eq!(err.field, "sessions[0].minutes");
        assert_eq!(err.reason, "required field is missing");
    }

    #[test]
    fn non_finite_voltage_is_rejected_with_the_session_path() {
        let err = parse_campaign(&one_session("", "1e400", "950", "2400"))
            .expect_err("infinite voltage rejected");
        assert_eq!(err.field, "sessions[0].pmd_mv");
        assert!(err.reason.contains("finite"), "{err}");
    }

    #[test]
    fn off_grid_points_are_rejected_by_platform_validation() {
        // 913 mV is not on the 5 mV regulator step.
        let err = parse_campaign(&one_session("", "913", "950", "2400"))
            .expect_err("off-step voltage rejected");
        assert_eq!(err.field, "sessions[0]");
        assert!(err.reason.contains("5 mV"), "{err}");
    }

    #[test]
    fn overlapping_sessions_are_rejected() {
        let point = "{\"pmd_mv\":920,\"soc_mv\":920,\"freq_mhz\":2400,\"minutes\":2}";
        let err = parse_campaign(&format!("{{\"sessions\":[{point},{point}]}}"))
            .expect_err("duplicate point rejected");
        assert_eq!(err.field, "sessions[1]");
        assert!(err.reason.contains("overlaps session 0"), "{err}");
    }
}
