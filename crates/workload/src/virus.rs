//! Micro-viruses: targeted voltage-stress kernels.
//!
//! The paper's Vmin methodology descends from Papadimitriou et al. \[51\]
//! ("Micro-Viruses for Fast System-Level Voltage Margins
//! Characterization"): tiny loops engineered to draw worst-case current
//! transients expose a *higher* (more conservative) safe Vmin than
//! ordinary benchmarks, and do it in seconds instead of hours.
//!
//! Each virus here is a real executable kernel (so the golden-comparison
//! machinery works on it unchanged) with a calibrated *droop* figure: the
//! extra supply sag its current signature induces at the critical paths,
//! which the characterization harness adds to the timing model's failure
//! point. The benchmarks' own (mild) droop is already folded into the
//! calibrated timing-failure model of `serscale-undervolt` — virus droops
//! are *relative to benchmark-grade activity*.

use crate::kernel::{Corruption, Kernel, KernelOutput};

/// The micro-virus family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MicroVirus {
    /// Dense FMA pressure on every core: maximal dI/dt, worst droop.
    PowerVirus,
    /// Cache-thrashing pointer chase: memory-subsystem current spikes.
    CacheThrash,
    /// Data-dependent branch storm: front-end/speculation activity.
    BranchStorm,
}

impl MicroVirus {
    /// All viruses, worst droop first.
    pub const ALL: [MicroVirus; 3] = [
        MicroVirus::PowerVirus,
        MicroVirus::CacheThrash,
        MicroVirus::BranchStorm,
    ];

    /// The virus's short name.
    pub const fn name(self) -> &'static str {
        match self {
            MicroVirus::PowerVirus => "dI/dt",
            MicroVirus::CacheThrash => "thrash",
            MicroVirus::BranchStorm => "branch",
        }
    }

    /// The extra supply droop this virus induces at the critical paths,
    /// relative to benchmark-grade activity, in mV. Calibrated to \[51\]'s
    /// observation that virus-exposed Vmins sit ~10–15 mV above
    /// benchmark-exposed ones on the same chips.
    pub const fn droop_mv(self) -> f64 {
        match self {
            MicroVirus::PowerVirus => 12.0,
            MicroVirus::CacheThrash => 8.0,
            MicroVirus::BranchStorm => 5.0,
        }
    }

    /// Instantiates the executable kernel.
    pub fn kernel(self) -> Box<dyn Kernel> {
        match self {
            MicroVirus::PowerVirus => Box::new(PowerVirusKernel::default_size()),
            MicroVirus::CacheThrash => Box::new(CacheThrashKernel::default_size()),
            MicroVirus::BranchStorm => Box::new(BranchStormKernel::default_size()),
        }
    }

    /// The droops of all viruses, for the characterization harness.
    pub fn all_droops() -> Vec<f64> {
        Self::ALL.iter().map(|v| v.droop_mv()).collect()
    }
}

impl std::fmt::Display for MicroVirus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The dI/dt virus: alternating dense-FMA and idle phases — the classic
/// resonant current stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerVirusKernel {
    phases: usize,
    lanes: usize,
}

impl PowerVirusKernel {
    /// A millisecond-scale instance.
    pub fn default_size() -> Self {
        PowerVirusKernel {
            phases: 64,
            lanes: 256,
        }
    }

    fn run_impl(&self, corruption: Option<Corruption>) -> KernelOutput {
        let mut acc = vec![1.0f64; self.lanes];
        let inject_at = corruption.map(|c| c.iteration(self.phases));
        for phase in 0..self.phases {
            if inject_at == Some(phase) {
                if let Some(c) = corruption {
                    c.apply(&mut acc);
                }
            }
            let burst = phase % 2 == 0;
            for (i, a) in acc.iter_mut().enumerate() {
                if burst {
                    // Dense multiply-add chains (the high-current phase).
                    for _ in 0..8 {
                        *a = a.mul_add(1.000_000_1, 1.0e-9 * (i as f64 + 1.0));
                    }
                } else {
                    // Idle-ish phase: minimal work, maximal dI/dt swing.
                    *a += 0.0;
                }
            }
        }
        let sum: f64 = acc.iter().sum();
        KernelOutput::new(vec![sum], acc)
    }
}

impl Kernel for PowerVirusKernel {
    fn name(&self) -> &'static str {
        "dI/dt"
    }

    fn run(&self) -> KernelOutput {
        self.run_impl(None)
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        self.run_impl(Some(corruption))
    }
}

/// The cache-thrash virus: a deterministic pointer chase over a buffer
/// larger than any single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheThrashKernel {
    slots: usize,
    hops: usize,
}

impl CacheThrashKernel {
    /// A buffer big enough to sweep through L1 and L2 footprints.
    pub fn default_size() -> Self {
        CacheThrashKernel {
            slots: 1 << 15,
            hops: 1 << 16,
        }
    }

    fn run_impl(&self, corruption: Option<Corruption>) -> KernelOutput {
        // A full-cycle permutation: slot i points to (i*stride+1) mod n
        // with stride coprime to n.
        let n = self.slots;
        let mut next = vec![0u64; n];
        for (i, v) in next.iter_mut().enumerate() {
            *v = ((i * 40_503 + 1) % n) as u64;
        }
        let inject_at = corruption.map(|c| c.iteration(self.hops));
        let mut at = 0usize;
        let mut signature = 0u64;
        for hop in 0..self.hops {
            if inject_at == Some(hop) {
                if let Some(c) = corruption {
                    c.apply_u64(&mut next);
                    for v in next.iter_mut() {
                        *v %= n as u64; // keep the chase in bounds
                    }
                }
            }
            at = next[at] as usize;
            signature = signature
                .rotate_left(7)
                .wrapping_add(at as u64 ^ hop as u64);
        }
        KernelOutput::new(
            vec![signature as f64, at as f64],
            next.into_iter().map(|v| v as f64),
        )
    }
}

impl Kernel for CacheThrashKernel {
    fn name(&self) -> &'static str {
        "thrash"
    }

    fn run(&self) -> KernelOutput {
        self.run_impl(None)
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        self.run_impl(Some(corruption))
    }
}

/// The branch-storm virus: data-dependent branching over a pseudo-random
/// array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchStormKernel {
    decisions: usize,
}

impl BranchStormKernel {
    /// A millisecond-scale instance.
    pub fn default_size() -> Self {
        BranchStormKernel { decisions: 1 << 16 }
    }

    fn run_impl(&self, corruption: Option<Corruption>) -> KernelOutput {
        let mut state = vec![0xACE1u64; 4];
        let inject_at = corruption.map(|c| c.iteration(self.decisions));
        let mut taken = 0u64;
        let mut weave = 0i64;
        for i in 0..self.decisions {
            if inject_at == Some(i) {
                if let Some(c) = corruption {
                    c.apply_u64(&mut state);
                }
            }
            // Galois LFSR per lane; the branch pattern is data dependent
            // and unlearnable.
            let lane = i % 4;
            let lfsr = &mut state[lane];
            let bit = *lfsr & 1;
            *lfsr >>= 1;
            if bit == 1 {
                *lfsr ^= 0xB400_0000_0000_0000;
                taken += 1;
                weave += (*lfsr & 0xFF) as i64;
            } else if (*lfsr).is_multiple_of(3) {
                weave -= (*lfsr & 0x7F) as i64;
            } else {
                weave ^= 1;
            }
        }
        KernelOutput::new(
            vec![taken as f64, weave as f64],
            state.into_iter().map(|v| v as f64),
        )
    }
}

impl Kernel for BranchStormKernel {
    fn name(&self) -> &'static str {
        "branch"
    }

    fn run(&self) -> KernelOutput {
        self.run_impl(None)
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        self.run_impl(Some(corruption))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_viruses_deterministic() {
        for v in MicroVirus::ALL {
            let k = v.kernel();
            assert_eq!(k.run(), k.run(), "{v}");
            assert_eq!(k.name(), v.name());
        }
    }

    #[test]
    fn droops_ordered_worst_first() {
        let droops = MicroVirus::all_droops();
        assert_eq!(droops.len(), 3);
        for pair in droops.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(droops[0] > 10.0, "the dI/dt virus must dominate");
    }

    #[test]
    fn power_virus_accumulates() {
        let out = PowerVirusKernel::default_size().run();
        assert!(out.values[0] > 256.0, "sum = {}", out.values[0]);
        assert!(out.values[0].is_finite());
    }

    #[test]
    fn thrash_chase_stays_in_bounds_and_mixes() {
        let out = CacheThrashKernel::default_size().run();
        let final_slot = out.values[1];
        assert!(final_slot >= 0.0 && final_slot < (1 << 15) as f64);
        assert_ne!(out.values[0], 0.0, "signature must mix");
    }

    #[test]
    fn branch_storm_takes_roughly_half_the_branches() {
        let out = BranchStormKernel::default_size().run();
        let taken = out.values[0];
        let total = (1 << 16) as f64;
        assert!(
            (taken / total - 0.5).abs() < 0.05,
            "taken share = {}",
            taken / total
        );
    }

    #[test]
    fn viruses_are_corruptible() {
        for v in MicroVirus::ALL {
            let k = v.kernel();
            let golden = k.golden();
            let corrupted = k.run_corrupted(Corruption::new(0.2, 1, 40));
            // A flip either masks or corrupts; both must be deterministic.
            assert_eq!(
                corrupted,
                k.run_corrupted(Corruption::new(0.2, 1, 40)),
                "{v}"
            );
            let _ = corrupted.matches(&golden);
        }
    }
}
