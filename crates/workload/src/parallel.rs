//! Multithreaded execution: the "8 threads on 8 cores" shape of the
//! paper's runs (§3.3 uses the multicore NPB versions on all 8 cores).
//!
//! Two facilities, both bit-deterministic regardless of scheduling:
//!
//! * [`run_suite_parallel`] — run several kernels concurrently, one per
//!   worker thread (the campaign's throughput shape: six class-A binaries
//!   cycling over the machine). Each kernel is pure, so the outputs are
//!   identical to serial execution by construction.
//! * [`EpParallel`] — an intra-kernel-parallel EP, partitioned the way
//!   real NPB EP partitions: each of `threads` workers draws its own
//!   deterministic substream and accumulates locally; the reduction is
//!   ordered by worker index. The result depends on the partition count
//!   (like real EP's per-rank streams) but never on thread scheduling.

use crate::kernel::{Corruption, Kernel, KernelOutput, NpbRandom};

/// Runs each kernel on its own worker thread and returns the outputs in
/// input order.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_suite_parallel(kernels: &[Box<dyn Kernel + Sync>]) -> Vec<KernelOutput> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = kernels.iter().map(|k| scope.spawn(|| k.run())).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel thread panicked"))
            .collect()
    })
}

/// The thread-parallel EP kernel: `pairs` Gaussian-pair draws split across
/// `threads` deterministic substreams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpParallel {
    pairs: u32,
    seed: u64,
    threads: u32,
}

impl EpParallel {
    /// A class-A-shaped instance on 8 threads.
    pub fn class_a() -> Self {
        EpParallel {
            pairs: 1 << 15,
            seed: 271_828_183,
            threads: 8,
        }
    }

    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` or `threads` is zero.
    pub fn new(pairs: u32, seed: u64, threads: u32) -> Self {
        assert!(pairs > 0, "EP needs at least one pair");
        assert!(threads > 0, "need at least one thread");
        EpParallel {
            pairs,
            seed,
            threads,
        }
    }

    /// The worker count.
    pub const fn threads(&self) -> u32 {
        self.threads
    }

    /// One worker's share of the pairs.
    fn share(&self, worker: u32) -> u32 {
        let base = self.pairs / self.threads;
        let extra = u32::from(worker < self.pairs % self.threads);
        base + extra
    }

    /// One worker's partial accumulators `[sx, sy, q0..q9]`, optionally
    /// with a corruption applied to *that worker's* state mid-loop.
    fn worker_state(&self, worker: u32, corruption: Option<Corruption>) -> [f64; 12] {
        let mut state = [0.0f64; 12];
        let mut rng =
            NpbRandom::new(self.seed ^ (u64::from(worker) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = self.share(worker);
        let inject_at = corruption.map(|c| c.iteration(n as usize));
        for i in 0..n as usize {
            if inject_at == Some(i) {
                if let Some(c) = corruption {
                    c.apply(&mut state);
                }
            }
            let x = 2.0 * rng.next_f64() - 1.0;
            let y = 2.0 * rng.next_f64() - 1.0;
            let t = x * x + y * y;
            if t <= 1.0 && t > 0.0 {
                let factor = ((-2.0 * t.ln()) / t).sqrt();
                let gx = x * factor;
                let gy = y * factor;
                state[0] += gx;
                state[1] += gy;
                let l = gx.abs().max(gy.abs()) as usize;
                if l < 10 {
                    state[2 + l] += 1.0;
                }
            }
        }
        state
    }

    /// Deterministic ordered reduction of per-worker partials.
    fn reduce(partials: Vec<[f64; 12]>) -> KernelOutput {
        let mut total = [0.0f64; 12];
        for partial in &partials {
            for (t, p) in total.iter_mut().zip(partial) {
                *t += p;
            }
        }
        KernelOutput::new(vec![total[0], total[1]], total)
    }

    fn run_impl(&self, corruption: Option<Corruption>) -> KernelOutput {
        // The corrupted worker, when injecting: the corruption word picks
        // it, so campaigns hit different cores.
        let victim = corruption.map(|c| (c.word as u32) % self.threads);
        let partials = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|w| {
                    let c = if victim == Some(w) { corruption } else { None };
                    scope.spawn(move || self.worker_state(w, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("EP worker panicked"))
                .collect::<Vec<_>>()
        });
        Self::reduce(partials)
    }
}

impl Kernel for EpParallel {
    fn name(&self) -> &'static str {
        "EP(mt)"
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
    use crate::Benchmark;

    #[test]
    fn suite_parallel_matches_serial() {
        let kernels: Vec<Box<dyn Kernel + Sync>> = vec![
            Box::new(crate::cg::Cg::tiny()),
            Box::new(crate::ep::Ep::tiny()),
            Box::new(crate::is::Is::tiny()),
            Box::new(crate::lu::Lu::tiny()),
        ];
        let parallel = run_suite_parallel(&kernels);
        for (k, out) in kernels.iter().zip(&parallel) {
            assert_eq!(out, &k.run(), "{}", k.name());
        }
    }

    #[test]
    fn six_benchmark_kernels_run_concurrently() {
        // The campaign shape: all six class-A kernels at once. (Benchmark
        // kernels are built fresh per thread because Box<dyn Kernel> from
        // `Benchmark::kernel()` is not Sync; concrete kernels are.)
        let kernels: Vec<Box<dyn Kernel + Sync>> = vec![
            Box::new(crate::cg::Cg::class_a()),
            Box::new(crate::ep::Ep::class_a()),
            Box::new(crate::ft::Ft::class_a()),
            Box::new(crate::is::Is::class_a()),
            Box::new(crate::lu::Lu::class_a()),
            Box::new(crate::mg::Mg::class_a()),
        ];
        let outputs = run_suite_parallel(&kernels);
        assert_eq!(outputs.len(), 6);
        // Cross-check one against the Benchmark registry's golden.
        assert_eq!(outputs[0], Benchmark::Cg.kernel().golden());
    }

    #[test]
    fn parallel_ep_is_schedule_independent() {
        let ep = EpParallel::class_a();
        let a = ep.run();
        let b = ep.run();
        let c = ep.run();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn partition_shares_cover_all_pairs() {
        let ep = EpParallel::new(1000, 7, 8);
        let total: u32 = (0..8).map(|w| ep.share(w)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn thread_count_changes_streams_but_stays_deterministic() {
        let four = EpParallel::new(1 << 12, 7, 4);
        let eight = EpParallel::new(1 << 12, 7, 8);
        assert_ne!(four.run(), eight.run(), "per-rank substreams differ");
        assert_eq!(eight.run(), eight.run());
    }

    #[test]
    fn gaussian_statistics_hold_in_parallel() {
        let ep = EpParallel::class_a();
        let out = ep.run();
        let n = (1 << 15) as f64;
        assert!(out.values[0].abs() < 5.0 * n.sqrt());
        assert!(out.values[1].abs() < 5.0 * n.sqrt());
    }

    #[test]
    fn corruption_hits_exactly_one_worker() {
        let ep = EpParallel::class_a();
        let golden = ep.golden();
        let corrupted = ep.run_corrupted(Corruption::new(0.1, 3, 62));
        assert!(!corrupted.matches(&golden));
        // Deterministic under repetition despite threading.
        assert_eq!(corrupted, ep.run_corrupted(Corruption::new(0.1, 3, 62)));
    }
}
