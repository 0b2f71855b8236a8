//! # serscale-types
//!
//! Strongly-typed units and identifiers shared across the `serscale`
//! workspace — a simulation-based reproduction of *"Impact of Voltage Scaling
//! on Soft Errors Susceptibility of Multicore Server CPUs"* (MICRO 2023).
//!
//! Every physical quantity that crosses a crate boundary in this workspace is
//! a newtype ([`Millivolts`], [`Fluence`], [`Fit`], …) so that, e.g., a
//! neutron flux can never be passed where a fluence is expected and a PMD
//! voltage can never be confused with a frequency. The paper's analysis mixes
//! many unit systems (mV, MHz, n/cm²/s, FIT/Mbit, W); getting one conversion
//! wrong silently corrupts every downstream figure, which is exactly the kind
//! of bug newtypes rule out statically.
//!
//! The crate is also the one home of the JSON wire vocabulary: [`json`]
//! is the codec behind the run journal, the telemetry streams, campaign
//! specs and platform files, and [`spec`] is the [`spec::SpecError`]-based
//! validation toolkit both spec schemas share.
//!
//! ## Example
//!
//! ```
//! use serscale_types::{Flux, SimDuration, Millivolts};
//!
//! // The TNF halo flux used in the paper's campaign.
//! let flux = Flux::per_cm2_s(1.5e6);
//! let session = SimDuration::from_minutes(1651.0);
//! let fluence = flux * session;
//! assert!((fluence.as_per_cm2() - 1.486e11).abs() / 1.486e11 < 1e-3);
//!
//! let nominal = Millivolts::new(980);
//! let vmin = Millivolts::new(920);
//! assert_eq!(nominal - vmin, 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ids;
pub mod json;
mod memory;
mod radiation;
pub mod spec;
mod time;
mod units;

pub use error::{Error, Result};
pub use ids::{ArrayKind, CacheLevel, CoreId, PmdId, ThreadId, VoltageDomain};
pub use memory::{Bits, Bytes, MemSize};
pub use radiation::{
    CrossSection, Fit, Fluence, Flux, NeutronEnergy, FIT_HOURS, NYC_SEA_LEVEL_FLUX,
};
pub use time::{SimDuration, SimInstant};
pub use units::{Celsius, Megahertz, Millivolts, Watts};
