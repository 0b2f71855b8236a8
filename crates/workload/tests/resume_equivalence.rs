//! The checkpointed resume path must return exactly what a full
//! re-execution returns, for every corruption.
//!
//! `Benchmark::shared_kernel()` resumes corrupted runs from golden
//! snapshots and stops at the first bitwise reconvergence;
//! `Benchmark::kernel()` re-executes from iteration 0. Both drive the same
//! step functions, so their outputs must be equal as whole
//! `KernelOutput`s — headline values and checksum — not merely agree on
//! whether the run matched the golden output.

use serscale_stats::SimRng;
use serscale_workload::cg::Cg;
use serscale_workload::ep::Ep;
use serscale_workload::ft::Ft;
use serscale_workload::is::Is;
use serscale_workload::lu::Lu;
use serscale_workload::mg::Mg;
use serscale_workload::stepped::{Checkpointed, Stepped};
use serscale_workload::{Benchmark, Corruption, Kernel, KernelOutput};

/// Corruptions per benchmark in the sampled comparison.
const SAMPLES: usize = 300;

/// Draws a corruption exactly the way the trial runner does when a strike
/// reaches live state.
fn draw(rng: &mut SimRng) -> Corruption {
    Corruption::new(
        rng.uniform_in(0.0, 0.999),
        rng.below(1 << 20) as usize,
        rng.below(64) as u8,
    )
}

fn sampled_resume_matches_full_run(benchmark: Benchmark) {
    let reference = benchmark.kernel();
    let checkpointed = benchmark.shared_kernel();
    assert_eq!(checkpointed.golden(), reference.golden(), "{benchmark}");
    let mut rng = SimRng::seed_from(0x5eed_c0de).fork(benchmark.name());
    let mut masked = 0;
    for _ in 0..SAMPLES {
        let corruption = draw(&mut rng);
        let full = reference.run_corrupted(corruption);
        assert_eq!(
            checkpointed.run_corrupted(corruption),
            full,
            "{benchmark} {corruption:?}"
        );
        masked += usize::from(full.matches(benchmark.shared_golden()));
    }
    assert!(
        masked < SAMPLES,
        "{benchmark}: every sampled flip was masked"
    );
}

#[test]
fn cg_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Cg);
}

#[test]
fn ep_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Ep);
}

#[test]
fn ft_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Ft);
}

#[test]
fn is_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Is);
}

#[test]
fn lu_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Lu);
}

#[test]
fn mg_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Mg);
}

/// `at_fraction` landing exactly on iteration `i` of `steps`.
fn fraction_at(i: usize, steps: usize) -> f64 {
    (i as f64 + 0.5) / steps as f64
}

/// Asserts the checkpointed wrapper of `kernel` keeps `snapshots`
/// snapshots and agrees with `kernel`'s full re-execution at the loop's
/// ends and on and around its first snapshot boundary.
fn edges_match<K: Stepped + Clone>(kernel: K, snapshots: usize) {
    let steps = kernel.steps();
    let checkpointed = Checkpointed::new(kernel.clone());
    assert_eq!(checkpointed.snapshots(), snapshots, "{}", K::NAME);
    let every = checkpointed.every();
    let mut fractions = vec![0.0, 0.998];
    for i in [every - 1, every, every + 1, 2 * every] {
        if i < steps {
            fractions.push(fraction_at(i, steps));
        }
    }
    for at_fraction in fractions {
        for bit in [0, 31, 52, 62, 63] {
            let corruption = Corruption::new(at_fraction, 12_345, bit);
            assert_eq!(
                checkpointed.run_corrupted(corruption),
                kernel.run_corrupted(corruption),
                "{} {corruption:?}",
                K::NAME
            );
        }
    }
}

#[test]
fn loop_ends_and_snapshot_boundaries_match_full_run() {
    // At most 16 snapshots and 256 KiB per kernel: IS's key array alone
    // is over the byte cap, MG's grid fills it once.
    edges_match(Cg::class_a(), 9);
    edges_match(Ep::class_a(), 16);
    edges_match(Ft::class_a(), 3);
    edges_match(Is::class_a(), 0);
    edges_match(Lu::class_a(), 7);
    edges_match(Mg::class_a(), 1);
}

#[test]
fn a_negative_zero_is_not_a_reconvergence() {
    // LU's corner word is zero and no stencil ever reads or writes it, so
    // a sign flip there at iteration 0 leaves every other word on its
    // golden trajectory. Compared with `==`, the state would look
    // reconverged at the first snapshot; by bit pattern it is not, and
    // the -0.0 reaches the output checksum.
    let lu = Lu::class_a();
    let checkpointed = Checkpointed::new(lu.clone());
    let corruption = Corruption::new(0.0, 0, 63);
    let full = lu.run_corrupted(corruption);
    assert!(
        !full.matches(&lu.golden()),
        "the -0.0 must reach the output"
    );
    assert_eq!(checkpointed.run_corrupted(corruption), full);
}

/// A test-only stepped kernel whose loop ends early, the way CG's
/// `pap.abs() < 1e-300` breakdown guard ends it: `level` halves each
/// iteration and the loop stops, before changing any state, on the first
/// iteration that finds it below `floor`. Injections hit `x`, which never
/// feeds the stopping test.
#[derive(Debug, Clone)]
struct Halving {
    steps: usize,
    floor: f64,
}

#[derive(Debug, Clone)]
struct HalvingState {
    x: Vec<f64>,
    level: f64,
}

impl Stepped for Halving {
    type State = HalvingState;
    const NAME: &'static str = "HALVING";

    fn steps(&self) -> usize {
        self.steps
    }

    fn init(&self) -> HalvingState {
        HalvingState {
            x: vec![0.0; 4],
            level: 1.0,
        }
    }

    fn step(&self, state: &mut HalvingState, i: usize) -> bool {
        if state.level < self.floor {
            return false;
        }
        state.level *= 0.5;
        state.x[i % 4] += state.level;
        true
    }

    fn inject(&self, state: &mut HalvingState, corruption: Corruption) -> bool {
        corruption.apply(&mut state.x)
    }

    fn finish(&self, state: HalvingState) -> KernelOutput {
        KernelOutput::new(vec![state.level], state.x)
    }

    fn same(a: &HalvingState, b: &HalvingState) -> bool {
        a.level.to_bits() == b.level.to_bits()
            && a.x
                .iter()
                .zip(&b.x)
                .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    fn bytes(state: &HalvingState) -> usize {
        8 * (state.x.len() + 1)
    }
}

#[test]
fn an_injection_past_an_early_loop_end_returns_the_golden_output() {
    // level after i halvings is 2^-i: iteration 6 finds 1/64 < 0.02 and
    // stops, so the golden run enters iterations 0..=6 of 16.
    let kernel = Halving {
        steps: 16,
        floor: 0.02,
    };
    let stop = 6;
    let checkpointed = Checkpointed::new(kernel.clone());
    let golden = kernel.golden();
    assert_eq!(checkpointed.golden(), golden);
    for at in 0..kernel.steps {
        let corruption = Corruption::new(fraction_at(at, kernel.steps), 1, 62);
        let full = kernel.run_corrupted(corruption);
        assert_eq!(checkpointed.run_corrupted(corruption), full, "at {at}");
        // Before and at the stopping iteration the flip lands and
        // survives; after it the golden run never reaches the injection.
        assert_eq!(full.matches(&golden), at > stop, "at {at}");
    }
}
