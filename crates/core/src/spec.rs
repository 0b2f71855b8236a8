//! Validated campaign specifications for the control plane.
//!
//! A campaign submitted over HTTP arrives as an untrusted JSON document.
//! This module is the schema layer between the wire and the engine: the
//! permissive carrier [`RawCampaignSpec`] holds whatever the document
//! said (numbers as raw `f64`, everything optional), and `TryFrom`
//! narrows it into a [`CampaignSpec`] whose every field is finite, in
//! range, and exactly representable — or fails with a [`SpecError`]
//! naming the offending field and how to fix it. The checks come from
//! [`serscale_types::spec`], which the platform schema shares.
//!
//! A validated spec converts to a [`CampaignConfig`] via
//! [`CampaignSpec::config`]; the default spec maps to the exact
//! configuration the `repro` CLI builds, so a campaign run through the
//! control plane is bit-identical to the same spec run solo.

use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_types::spec::{identifier, integer_in, SpecError, EXACT_INT_MAX};
use serscale_types::{Megahertz, Millivolts, SimDuration};

use crate::campaign::{CampaignConfig, VminSource};
use crate::session::SessionLimits;

/// The permissive wire-side carrier for a campaign spec.
///
/// Every field is optional and every number is a raw `f64` (JSON has only
/// doubles), so deserialization never fails on *values* — all judgment
/// lives in the [`TryFrom`] conversion to [`CampaignSpec`], which is
/// where actionable errors come from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawCampaignSpec {
    /// Display name for the job (sanitized identifier).
    pub name: Option<String>,
    /// Tenant the job is queued under (fair-share round-robin key).
    pub tenant: Option<String>,
    /// Master RNG seed. Must be integer-valued and ≤ 2^53 to survive the
    /// JSON double round-trip exactly.
    pub seed: Option<f64>,
    /// Fraction of the paper campaign's session durations, in (0, 1].
    /// Mutually exclusive with `sessions`.
    pub scale: Option<f64>,
    /// Worker-thread override for this job (integer ≥ 1).
    pub jobs: Option<f64>,
    /// Run the offline Vmin characterization with this many trials per
    /// step instead of the paper's anchors (integer ≥ 1).
    pub vmin_trials: Option<f64>,
    /// Explicit session list replacing the paper's Table 2 schedule.
    pub sessions: Option<Vec<RawSessionSpec>>,
    /// Id of a cancelled control-plane job whose journal this submission
    /// resumes (integer ≥ 0).
    pub resume: Option<f64>,
    /// Built-in platform to run on (see
    /// [`PlatformSpec::BUILTIN_NAMES`]); omitted means the X-Gene 2.
    pub platform: Option<String>,
}

/// One session of an explicit schedule, as raw wire-side numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawSessionSpec {
    /// PMD (core) domain voltage, millivolts.
    pub pmd_mv: f64,
    /// SoC domain voltage, millivolts.
    pub soc_mv: f64,
    /// Core clock frequency, megahertz.
    pub freq_mhz: f64,
    /// Beam-time box for the session, minutes.
    pub minutes: f64,
}

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
}

impl TryFrom<RawCampaignSpec> for CampaignSpec {
    type Error = SpecError;

    fn try_from(raw: RawCampaignSpec) -> Result<Self, SpecError> {
        let name = match &raw.name {
            Some(name) => identifier("name", name)?,
            None => "campaign".to_string(),
        };
        let tenant = match &raw.tenant {
            Some(tenant) => identifier("tenant", tenant)?,
            None => "anonymous".to_string(),
        };
        let seed = match raw.seed {
            Some(seed) => integer_in(
                "seed",
                seed,
                0.0,
                EXACT_INT_MAX,
                "seeds must survive the JSON double round-trip exactly",
            )?,
            None => CampaignConfig::paper().seed,
        };
        if raw.scale.is_some() && raw.sessions.is_some() {
            return Err(SpecError::new(
                "scale",
                "mutually exclusive with `sessions`; scale the explicit session minutes instead",
            ));
        }
        let scale = match raw.scale {
            Some(scale) => {
                if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
                    return Err(SpecError::new(
                        "scale",
                        format!("{scale} is outside (0, 1]; 1.0 replays the full 64.8-beam-hour campaign"),
                    ));
                }
                scale
            }
            None => Self::DEFAULT_SCALE,
        };
        let jobs = match raw.jobs {
            Some(jobs) => Some(integer_in(
                "jobs",
                jobs,
                1.0,
                64.0,
                "worker counts beyond the host's cores are clamped, not rejected",
            )? as u32),
            None => None,
        };
        let vmin_trials = match raw.vmin_trials {
            Some(trials) => Some(integer_in(
                "vmin_trials",
                trials,
                1.0,
                100_000.0,
                "zero trials cannot characterize Vmin; omit the field to use the paper's anchors",
            )? as u32),
            None => None,
        };
        let platform = match &raw.platform {
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
        let sessions = match &raw.sessions {
            Some(list) => Some(validated_sessions(list, &platform)?),
            None => None,
        };
        let resume = match raw.resume {
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
}

fn validated_sessions(
    list: &[RawSessionSpec],
    platform: &PlatformSpec,
) -> Result<Vec<(OperatingPoint, SessionLimits)>, SpecError> {
    if list.is_empty() {
        return Err(SpecError::new(
            "sessions",
            "an explicit session list must hold at least one session; omit the field for the paper schedule",
        ));
    }
    if list.len() > 16 {
        return Err(SpecError::new(
            "sessions",
            format!("{} sessions exceed the 16-session cap", list.len()),
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
    let mut sessions = Vec::with_capacity(list.len());
    for (at, raw) in list.iter().enumerate() {
        let point = OperatingPoint {
            pmd: Millivolts::new(integer_in(
                &format!("sessions[{at}].pmd_mv"),
                raw.pmd_mv,
                f64::from(platform.pmd_rail.floor.get()),
                f64::from(platform.pmd_rail.nominal.get()),
                &pmd_hint,
            )? as u32),
            soc: Millivolts::new(integer_in(
                &format!("sessions[{at}].soc_mv"),
                raw.soc_mv,
                f64::from(platform.soc_rail.floor.get()),
                f64::from(platform.soc_rail.nominal.get()),
                &soc_hint,
            )? as u32),
            frequency: Megahertz::new(integer_in(
                &format!("sessions[{at}].freq_mhz"),
                raw.freq_mhz,
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
        if !raw.minutes.is_finite() || raw.minutes <= 0.0 || raw.minutes > 10_000.0 {
            return Err(SpecError::new(
                format!("sessions[{at}].minutes"),
                format!(
                    "{} is outside (0, 10000]; the paper's longest session is 1651 minutes",
                    raw.minutes
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
            SessionLimits::time_boxed(SimDuration::from_minutes(raw.minutes)),
        ));
    }
    Ok(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_raw_spec_maps_to_the_cli_default_campaign() {
        let spec = CampaignSpec::try_from(RawCampaignSpec::default()).expect("valid");
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
        let raw = RawCampaignSpec {
            seed: Some(20231028.0),
            scale: Some(0.01),
            ..Default::default()
        };
        let spec = CampaignSpec::try_from(raw).expect("valid");
        let mut expected = CampaignConfig::paper_scaled(0.01);
        expected.seed = 20231028;
        assert_eq!(spec.config(), expected);
    }

    #[test]
    fn explicit_sessions_build_custom_schedules() {
        let raw = RawCampaignSpec {
            sessions: Some(vec![
                RawSessionSpec {
                    pmd_mv: 980.0,
                    soc_mv: 950.0,
                    freq_mhz: 2400.0,
                    minutes: 10.0,
                },
                RawSessionSpec {
                    pmd_mv: 790.0,
                    soc_mv: 950.0,
                    freq_mhz: 900.0,
                    minutes: 5.0,
                },
            ]),
            ..Default::default()
        };
        let spec = CampaignSpec::try_from(raw).expect("valid");
        let config = spec.config();
        assert_eq!(config.sessions.len(), 2);
        assert_eq!(config.sessions[0].0, OperatingPoint::nominal());
        assert_eq!(
            config.sessions[1].1.max_duration,
            Some(SimDuration::from_minutes(5.0))
        );
    }

    #[test]
    fn default_platform_is_the_xgene2() {
        let spec = CampaignSpec::try_from(RawCampaignSpec::default()).expect("valid");
        assert_eq!(spec.platform, PlatformSpec::xgene2());
    }

    #[test]
    fn zynq_platform_spec_builds_its_own_campaign() {
        let raw = RawCampaignSpec {
            platform: Some("zynq-mpsoc".into()),
            scale: Some(0.01),
            ..Default::default()
        };
        let spec = CampaignSpec::try_from(raw).expect("valid");
        assert_eq!(spec.platform.name, "zynq-mpsoc");
        let mut expected = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), 0.01);
        expected.seed = spec.seed;
        assert_eq!(spec.config(), expected);
    }

    #[test]
    fn unknown_platform_is_rejected_with_the_known_names() {
        let raw = RawCampaignSpec {
            platform: Some("epyc".into()),
            ..Default::default()
        };
        let err = CampaignSpec::try_from(raw).expect_err("unknown platform rejected");
        assert_eq!(err.field, "platform");
        assert!(err.reason.contains("xgene2"), "{err}");
        assert!(err.reason.contains("zynq-mpsoc"), "{err}");
    }

    #[test]
    fn session_bounds_follow_the_selected_platform() {
        // 980 mV is the X-Gene nominal but sits above the Zynq 850 mV rail.
        let session = RawSessionSpec {
            pmd_mv: 980.0,
            soc_mv: 850.0,
            freq_mhz: 1500.0,
            minutes: 5.0,
        };
        let raw = RawCampaignSpec {
            platform: Some("zynq-mpsoc".into()),
            sessions: Some(vec![session.clone()]),
            ..Default::default()
        };
        let err = CampaignSpec::try_from(raw).expect_err("overvolt rejected");
        assert_eq!(err.field, "sessions[0].pmd_mv");
        assert!(err.reason.contains("850 mV nominal"), "{err}");
        // The same point is legal on its own rails at 850 mV.
        let raw = RawCampaignSpec {
            platform: Some("zynq-mpsoc".into()),
            sessions: Some(vec![RawSessionSpec {
                pmd_mv: 850.0,
                ..session
            }]),
            ..Default::default()
        };
        let spec = CampaignSpec::try_from(raw).expect("valid zynq session");
        assert_eq!(spec.config().sessions.len(), 1);
    }

    #[test]
    fn rejections_name_the_field_and_how_to_fix_it() {
        let cases: Vec<(RawCampaignSpec, &str)> = vec![
            (
                RawCampaignSpec {
                    scale: Some(0.0),
                    ..Default::default()
                },
                "scale",
            ),
            (
                RawCampaignSpec {
                    scale: Some(f64::NAN),
                    ..Default::default()
                },
                "scale",
            ),
            (
                RawCampaignSpec {
                    seed: Some(1.5),
                    ..Default::default()
                },
                "seed",
            ),
            (
                RawCampaignSpec {
                    jobs: Some(0.0),
                    ..Default::default()
                },
                "jobs",
            ),
            (
                RawCampaignSpec {
                    vmin_trials: Some(0.0),
                    ..Default::default()
                },
                "vmin_trials",
            ),
            (
                RawCampaignSpec {
                    name: Some("no spaces allowed".into()),
                    ..Default::default()
                },
                "name",
            ),
            (
                RawCampaignSpec {
                    scale: Some(0.5),
                    sessions: Some(vec![RawSessionSpec {
                        pmd_mv: 980.0,
                        soc_mv: 950.0,
                        freq_mhz: 2400.0,
                        minutes: 1.0,
                    }]),
                    ..Default::default()
                },
                "scale",
            ),
            (
                RawCampaignSpec {
                    sessions: Some(vec![]),
                    ..Default::default()
                },
                "sessions",
            ),
        ];
        for (raw, field) in cases {
            let err = CampaignSpec::try_from(raw.clone())
                .expect_err(&format!("{raw:?} must be rejected"));
            assert_eq!(err.field, field, "{raw:?} → {err}");
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn non_finite_voltage_is_rejected_with_the_session_path() {
        let raw = RawCampaignSpec {
            sessions: Some(vec![RawSessionSpec {
                pmd_mv: f64::NAN,
                soc_mv: 950.0,
                freq_mhz: 2400.0,
                minutes: 1.0,
            }]),
            ..Default::default()
        };
        let err = CampaignSpec::try_from(raw).expect_err("NaN voltage rejected");
        assert_eq!(err.field, "sessions[0].pmd_mv");
        assert!(err.reason.contains("finite"), "{err}");
    }

    #[test]
    fn off_grid_points_are_rejected_by_platform_validation() {
        let raw = RawCampaignSpec {
            sessions: Some(vec![RawSessionSpec {
                pmd_mv: 913.0, // not on the 5 mV regulator step
                soc_mv: 950.0,
                freq_mhz: 2400.0,
                minutes: 1.0,
            }]),
            ..Default::default()
        };
        let err = CampaignSpec::try_from(raw).expect_err("off-step voltage rejected");
        assert_eq!(err.field, "sessions[0]");
        assert!(err.reason.contains("5 mV"), "{err}");
    }

    #[test]
    fn overlapping_sessions_are_rejected() {
        let point = RawSessionSpec {
            pmd_mv: 920.0,
            soc_mv: 920.0,
            freq_mhz: 2400.0,
            minutes: 2.0,
        };
        let raw = RawCampaignSpec {
            sessions: Some(vec![point.clone(), point]),
            ..Default::default()
        };
        let err = CampaignSpec::try_from(raw).expect_err("duplicate point rejected");
        assert_eq!(err.field, "sessions[1]");
        assert!(err.reason.contains("overlaps session 0"), "{err}");
    }
}
