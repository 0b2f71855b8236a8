//! # serscale-undervolt
//!
//! The safe-Vmin characterization harness (§4.1 of the paper, reproducing
//! Figure 4).
//!
//! Before any beam time, the paper exhaustively characterized the chip
//! offline: for each clock frequency, run every benchmark hundreds of times
//! at each 5 mV step below nominal, record the probability of failure
//! (pfail), and call the lowest voltage where *all* executions complete
//! correctly the *safe Vmin*. Any error observed later under beam at or
//! above that voltage is then attributable to radiation, not to
//! undervolting — the keystone of the paper's methodology (§3.6).
//!
//! * [`timing`] — why chips fail under undervolting at all: the
//!   critical-path timing model, with its frequency-dependent critical
//!   voltage (lower clock ⇒ longer cycle ⇒ deeper safe undervolting:
//!   920 mV at 2.4 GHz vs 790 mV at 900 MHz).
//! * [`characterize`] — the sweep harness: pfail curves per voltage
//!   (Figure 4) and the safe-Vmin extraction.
//!
//! ## Example
//!
//! ```
//! use serscale_soc::PlatformSpec;
//! use serscale_stats::SimRng;
//! use serscale_undervolt::characterize::Characterizer;
//! use serscale_types::Megahertz;
//!
//! let spec = PlatformSpec::xgene2();
//! let mut rng = SimRng::seed_from(7);
//! let harness = Characterizer::for_platform(&spec, 100);
//! let curve = harness.sweep_platform(&mut rng, &spec, Megahertz::new(2400));
//! let vmin = curve.safe_vmin().expect("sweep reaches a safe level");
//! assert_eq!(vmin.get(), 920); // the paper's 2.4 GHz safe Vmin
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod timing;
pub mod variation;

pub use characterize::{Characterizer, PfailCurve};
pub use timing::TimingFailureModel;
pub use variation::{ChipPopulation, FleetCharacterization};
