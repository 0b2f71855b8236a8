//! # serscale-workload
//!
//! The workload substrate: executable miniature versions of the six NAS
//! Parallel Benchmarks the paper ran (CG, EP, FT, IS, LU, MG — §3.3), plus
//! the per-benchmark sensitivity profiles that drive the fault-propagation
//! model.
//!
//! ## Why real kernels?
//!
//! The paper's SDC detector is "compare the application output against a
//! golden reference". To exercise that code path honestly, the simulator
//! needs applications that *compute something*: each kernel here is a
//! scaled-down but algorithmically faithful implementation of its NPB
//! namesake (a conjugate-gradient solve, a Gaussian-pair Monte Carlo, a 3-D
//! FFT, a bucket sort, an SSOR sweep, a multigrid V-cycle), deterministic
//! down to the bit, with a checksum-comparable output. Corruption injection
//! ([`kernel::Corruption`]) flips a bit of the working state mid-run, and
//! the output either changes (an SDC the harness catches by golden
//! comparison) or doesn't (logical masking — which is why SER studies need
//! per-workload AVFs at all).
//!
//! Each kernel is written as one main loop over explicit state
//! ([`stepped::Stepped`]). [`Benchmark::kernel`] re-executes a corrupted
//! run in full; [`Benchmark::shared_kernel`] resumes it from golden
//! checkpoints ([`stepped::Checkpointed`]) and returns the same output.
//!
//! ## Profiles
//!
//! [`profile::WorkloadProfile`] carries the measurable per-benchmark
//! characteristics the campaign model needs: class-A runtime, the
//! detection-efficiency factor (how much of the raw cache upset rate this
//! benchmark's access pattern surfaces — calibrated against Figure 5), the
//! probability that consumed corrupt data escapes masking, and relative
//! power draw.
//!
//! ## Example
//!
//! ```
//! use serscale_workload::{Benchmark, kernel::Kernel};
//!
//! let cg = Benchmark::Cg.kernel();
//! let golden = cg.run();
//! // Deterministic: a healthy re-run reproduces the golden output.
//! assert_eq!(cg.run(), golden);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod ep;
pub mod ft;
pub mod is;
pub mod kernel;
pub mod lu;
pub mod mg;
pub mod parallel;
pub mod profile;
pub mod stepped;
pub mod virus;

pub use kernel::{Corruption, Kernel, KernelOutput};
pub use parallel::{run_suite_parallel, EpParallel};
pub use profile::{Benchmark, WorkloadProfile};
pub use virus::MicroVirus;
