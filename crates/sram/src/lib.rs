//! # serscale-sram
//!
//! Bit-cell and SRAM-array soft-error physics for the serscale workspace.
//!
//! Three models live here, each mirroring a mechanism the paper leans on:
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
//! * [`cell`] — the weak-cell population induced by Random Dopant
//!   Fluctuations: each cell has its own minimum retention voltage, normally
//!   distributed, so the count of *persistently* failing cells explodes as
//!   the supply approaches the distribution's tail (§2.2, §4.3). This is
//!   what pins the safe Vmin.
//! * [`mod@array`] — ties the three together: an [`array::SramArray`] has a
//!   geometry, a protection scheme and an interleaver, and
//!   [`array::SramArray::strike`] turns one neutron hit into the per-word
//!   ECC outcomes the EDAC log will see.
//!
//! ## Example
//!
//! ```
//! use serscale_sram::qcrit::SoftErrorModel;
//! use serscale_types::Millivolts;
//!
//! let model = SoftErrorModel::tech_28nm();
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
pub mod cell;
pub mod mbu;
pub mod qcrit;

pub use array::{SramArray, StrikeEffect, StrikeScratch, WordHit};
pub use cell::WeakCellPopulation;
pub use mbu::MbuModel;
pub use qcrit::SoftErrorModel;
