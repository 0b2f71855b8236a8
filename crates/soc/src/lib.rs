//! # serscale-soc
//!
//! A structural model of the X-Gene-2-class multicore server SoC the paper
//! irradiated (Table 1, Figure 1):
//!
//! * [`spec`] — declarative platform descriptions: the validated
//!   [`spec::PlatformSpec`] schema (arrays, rails, grids, campaign points,
//!   physics calibration) and its JSON parser, [`spec::parse_platform`].
//!   The X-Gene 2 and a Zynq UltraScale+ MPSoC profile are built in, each
//!   defined once by its file under `platforms/`.
//! * [`platform`] — the die built from a spec: for the X-Gene 2, 8 Armv8
//!   cores in 4 dual-core PMDs, per-core parity-protected L1I/L1D and
//!   TLBs, per-pair SECDED L2, shared SECDED L3, two scalable voltage
//!   domains (PMD from 980 mV, SoC from 950 mV, 5 mV steps) and per-PMD
//!   frequency (300–2400 MHz in 300 MHz steps).
//! * [`power`] — the package power model `P = Σ(dyn·(V/V₀)²·(f/f₀) +
//!   static·(V/V₀))` per domain, least-squares calibrated against the four
//!   operating points Figure 9 reports (max residual 0.25 W).
//! * [`edac`] — the error-detection-and-correction log: the Linux-EDAC-like
//!   stream of corrected/uncorrected events per array that the campaign
//!   harvests (§4.2).
//! * [`logic`] — soft-error susceptibility of the *unprotected* core logic,
//!   split into control-path faults (→ crashes) and datapath faults
//!   (→ SDCs), with the near-Vmin timing-margin amplification that makes
//!   the SDC rate explode at the lowest safe voltage (§6, Design
//!   implication #4).
//!
//! ## Example
//!
//! ```
//! use serscale_soc::{Platform, PlatformSpec};
//! use serscale_types::CacheLevel;
//!
//! let soc = Platform::from_spec(&PlatformSpec::xgene2());
//! // Table 1 geometry: 8 cores, 8 MiB shared L3.
//! assert_eq!(soc.cores(), 8);
//! let l3_bits: u64 = soc
//!     .arrays()
//!     .filter(|a| a.kind().cache_level() == CacheLevel::L3)
//!     .map(|a| a.data_bits().get())
//!     .sum();
//! assert_eq!(l3_bits, 8 * 1024 * 1024 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvfs;
pub mod edac;
pub mod logic;
pub mod platform;
pub mod power;
pub mod slimpro;
pub mod spec;
pub mod thermal;

pub use dvfs::{DvfsTable, PState};
pub use edac::{EdacLog, EdacRecord, EdacSeverity};
pub use logic::LogicSusceptibility;
pub use platform::{OperatingPoint, Platform};
pub use power::PowerModel;
pub use slimpro::SlimPro;
pub use spec::{parse_platform, PlatformSpec};
pub use thermal::ThermalModel;
