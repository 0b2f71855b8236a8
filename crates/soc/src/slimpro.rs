//! The SLIMpro management processor interface.
//!
//! §3.1: "The dedicated SLIMpro processor uses an I2C interface to
//! communicate with system sensors and peripherals to monitor and
//! configure the system attributes, such as supply voltage and the DRAM
//! refresh rate. It also gathers health status reports, such as soft error
//! events in the microprocessor's L1, L2, and L3 caches."
//!
//! This module is that control path: a mailbox command interface through
//! which the host (or the campaign's Control-PC, over the BMC) sets rail
//! voltages with full validation, reads sensors, and drains the EDAC
//! health log — the way the real undervolting tooling for this platform
//! (\[57\]) actually drove it.

use serscale_types::{Celsius, Megahertz, Millivolts, VoltageDomain, Watts};

use crate::edac::{EdacLog, EdacRecord};
use crate::platform::{OperatingPoint, Platform};
use crate::power::PowerModel;
use crate::spec::PlatformSpec;
use crate::thermal::ThermalModel;

/// A mailbox command to the management processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Set one voltage rail (5 mV granularity, validated).
    SetVoltage {
        /// Which rail.
        domain: VoltageDomain,
        /// The requested level.
        level: Millivolts,
    },
    /// Set the (global, in our campaign configuration) PMD clock.
    SetFrequency {
        /// The requested clock.
        frequency: Megahertz,
    },
    /// Read the sensor block (voltages, frequency, power, die temp).
    ReadSensors,
    /// Drain the EDAC health log.
    ReadHealthLog,
}

/// A mailbox response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The command was applied.
    Ack,
    /// The sensor block.
    Sensors(SensorBlock),
    /// The drained health records.
    HealthLog(Vec<EdacRecord>),
    /// The command was rejected (reason mirrors the regulator/PLL
    /// validation of the platform model).
    Rejected {
        /// Why.
        reason: String,
    },
}

/// The sensor snapshot `ReadSensors` returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorBlock {
    /// PMD rail voltage.
    pub pmd: Millivolts,
    /// SoC rail voltage.
    pub soc: Millivolts,
    /// PMD clock.
    pub frequency: Megahertz,
    /// Modelled package power at the current point.
    pub power: Watts,
    /// Modelled die temperature.
    pub die_temperature: Celsius,
}

/// The management processor: owns the current operating point and the
/// health log the hardware pushes into.
#[derive(Debug, Clone, PartialEq)]
pub struct SlimPro {
    platform: Platform,
    power_model: PowerModel,
    thermal: ThermalModel,
    point: OperatingPoint,
    health_log: EdacLog,
}

impl SlimPro {
    /// Boots the management processor of an arbitrary platform at that
    /// platform's nominal conditions.
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        SlimPro {
            platform: Platform::from_spec(spec),
            power_model: PowerModel::for_platform(spec),
            thermal: ThermalModel::beam_room(),
            point: spec.nominal_point(),
            health_log: EdacLog::new(),
        }
    }

    /// The current operating point.
    pub const fn operating_point(&self) -> OperatingPoint {
        self.point
    }

    /// Hardware-side hook: the EDAC machinery pushes a record into the
    /// health log.
    pub fn report_health(&mut self, record: EdacRecord) {
        self.health_log.push(record);
    }

    /// Processes one mailbox command.
    pub fn execute(&mut self, command: Command) -> Response {
        match command {
            Command::SetVoltage { domain, level } => {
                let mut candidate = self.point;
                match domain {
                    VoltageDomain::Pmd => candidate.pmd = level,
                    VoltageDomain::Soc => candidate.soc = level,
                    VoltageDomain::Standby => {
                        return Response::Rejected {
                            reason: "the standby rail is not software controlled".into(),
                        }
                    }
                }
                match self.platform.validate(candidate) {
                    Ok(()) => {
                        self.point = candidate;
                        Response::Ack
                    }
                    Err(e) => Response::Rejected {
                        reason: e.to_string(),
                    },
                }
            }
            Command::SetFrequency { frequency } => {
                let candidate = OperatingPoint {
                    frequency,
                    ..self.point
                };
                match self.platform.validate(candidate) {
                    Ok(()) => {
                        self.point = candidate;
                        Response::Ack
                    }
                    Err(e) => Response::Rejected {
                        reason: e.to_string(),
                    },
                }
            }
            Command::ReadSensors => {
                let power = self.power_model.total_power(self.point);
                Response::Sensors(SensorBlock {
                    pmd: self.point.pmd,
                    soc: self.point.soc,
                    frequency: self.point.frequency,
                    power,
                    die_temperature: self.thermal.die_temperature(power),
                })
            }
            Command::ReadHealthLog => Response::HealthLog(self.health_log.drain()),
        }
    }

    /// Convenience: drive the chip to a full operating point (the paper's
    /// session transitions), one validated command per knob.
    ///
    /// # Errors
    ///
    /// Returns the first rejection reason if any knob is refused; prior
    /// knobs keep their new values (exactly what a half-applied mailbox
    /// sequence does on real hardware — the caller re-reads the sensors).
    pub fn apply_point(&mut self, target: OperatingPoint) -> Result<(), String> {
        // Frequency first: raising voltage for a faster clock must precede
        // the clock change; we only ever descend in the campaign, so the
        // simple order is safe for its transitions.
        for command in [
            Command::SetFrequency {
                frequency: target.frequency,
            },
            Command::SetVoltage {
                domain: VoltageDomain::Pmd,
                level: target.pmd,
            },
            Command::SetVoltage {
                domain: VoltageDomain::Soc,
                level: target.soc,
            },
        ] {
            if let Response::Rejected { reason } = self.execute(command) {
                return Err(reason);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edac::EdacSeverity;
    use serscale_types::{ArrayKind, SimInstant};

    /// The X-Gene 2's management processor.
    fn xgene2() -> SlimPro {
        SlimPro::for_platform(&PlatformSpec::xgene2())
    }

    #[test]
    fn boots_at_nominal() {
        let sp = xgene2();
        assert_eq!(sp.operating_point(), PlatformSpec::xgene2().nominal_point());
    }

    #[test]
    fn campaign_transitions_apply() {
        let mut sp = xgene2();
        for target in PlatformSpec::xgene2().campaign_points() {
            sp.apply_point(target)
                .unwrap_or_else(|e| panic!("{}: {e}", target.label()));
            assert_eq!(sp.operating_point(), target);
        }
    }

    #[test]
    fn rejects_off_grid_voltage_without_side_effects() {
        let mut sp = xgene2();
        let before = sp.operating_point();
        let r = sp.execute(Command::SetVoltage {
            domain: VoltageDomain::Pmd,
            level: Millivolts::new(923),
        });
        assert!(matches!(r, Response::Rejected { .. }), "{r:?}");
        assert_eq!(sp.operating_point(), before);
    }

    #[test]
    fn rejects_overvolting_and_standby_control() {
        let mut sp = xgene2();
        let over = sp.execute(Command::SetVoltage {
            domain: VoltageDomain::Pmd,
            level: Millivolts::new(1005),
        });
        assert!(matches!(over, Response::Rejected { .. }));
        let standby = sp.execute(Command::SetVoltage {
            domain: VoltageDomain::Standby,
            level: Millivolts::new(900),
        });
        assert!(matches!(standby, Response::Rejected { .. }));
    }

    #[test]
    fn sensors_track_the_operating_point() {
        let mut sp = xgene2();
        // The 790 mV / 900 MHz session.
        sp.apply_point(PlatformSpec::xgene2().campaign[3].point)
            .unwrap();
        match sp.execute(Command::ReadSensors) {
            Response::Sensors(s) => {
                assert_eq!(s.pmd, Millivolts::new(790));
                assert_eq!(s.frequency, Megahertz::new(900));
                assert!(s.power.get() < 11.0, "power = {}", s.power);
                assert!(s.die_temperature < Celsius::new(45.0));
            }
            other => panic!("expected sensors, got {other:?}"),
        }
    }

    #[test]
    fn health_log_drains_once() {
        let mut sp = xgene2();
        sp.report_health(EdacRecord {
            time: SimInstant::from_secs(1.0),
            array: ArrayKind::L3Shared,
            severity: EdacSeverity::Corrected,
        });
        match sp.execute(Command::ReadHealthLog) {
            Response::HealthLog(records) => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
        match sp.execute(Command::ReadHealthLog) {
            Response::HealthLog(records) => assert!(records.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zynq_slimpro_enforces_its_own_rails() {
        let spec = PlatformSpec::zynq_mpsoc();
        let mut sp = SlimPro::for_platform(&spec);
        assert_eq!(sp.operating_point(), spec.nominal_point());
        // 980 mV is legal on the X-Gene but above the Zynq 850 mV nominal.
        let r = sp.execute(Command::SetVoltage {
            domain: VoltageDomain::Pmd,
            level: Millivolts::new(980),
        });
        assert!(matches!(r, Response::Rejected { .. }), "{r:?}");
        for c in &spec.campaign {
            sp.apply_point(c.point)
                .unwrap_or_else(|e| panic!("{}: {e}", c.label));
        }
    }

    #[test]
    fn bad_frequency_rejected() {
        let mut sp = xgene2();
        let r = sp.execute(Command::SetFrequency {
            frequency: Megahertz::new(1000),
        });
        assert!(matches!(r, Response::Rejected { .. }));
    }
}
