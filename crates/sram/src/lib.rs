//! # serscale-sram
//!
//! Bit-cell and SRAM-array soft-error physics for the serscale workspace.
//!
//! Two models live here, each mirroring a mechanism the paper leans on:
//!
//! * [`qcrit`] — the critical-charge model of voltage-dependent
//!   susceptibility. A stored bit flips when a particle strike collects more
//!   charge than the cell's critical charge `Qcrit`; `Qcrit` scales with the
//!   supply voltage (Chandra & Aitken \[16\] in the paper), so the per-bit
//!   cross-section grows exponentially as voltage drops. This is the
//!   mechanism behind Table 2's rising upset rates and Observation #1.
//! * [`mbu`] — multi-bit-upset clustering. One strike can flip a physically
//!   contiguous run of cells; the cluster-size distribution shifts toward
//!   larger clusters at lower voltage (§4.3 of the paper), and whether a
//!   physical cluster becomes a logical multi-bit error depends on the
//!   array's interleaving (see `serscale-ecc`).
//! * [`mod@array`] — ties the two together: an [`array::SramArray`] has a
//!   geometry, a protection scheme and an interleaver, and
//!   [`array::SramArray::strike`] turns one neutron hit into the per-word
//!   ECC outcomes the EDAC log will see.
//!
//! ## Example
//!
//! ```
//! use serscale_sram::qcrit::SoftErrorModel;
//! use serscale_types::{CrossSection, Millivolts};
//!
//! // The X-Gene 2's 28 nm calibration: 10⁻¹⁵ cm²/bit at 980 mV, k = 3.2.
//! let model = SoftErrorModel::new(CrossSection::cm2(1.0e-15), Millivolts::new(980), 3.2);
//! let nominal = model.sigma_bit(Millivolts::new(980));
//! let scaled = model.sigma_bit(Millivolts::new(790));
//! // Susceptibility grows at reduced voltage …
//! assert!(scaled.as_cm2() > nominal.as_cm2());
//! // … by tens of percent over the paper's 190 mV range, not by orders of
//! // magnitude.
//! assert!(scaled.as_cm2() / nominal.as_cm2() < 2.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod mbu;
pub mod qcrit;

pub use array::{SramArray, StrikeEffect, StrikeScratch, WordHit};
pub use mbu::MbuModel;
pub use qcrit::SoftErrorModel;
