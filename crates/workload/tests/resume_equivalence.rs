//! The checkpointed resume path must return exactly what a full
//! re-execution returns, for every corruption.
//!
//! `Benchmark::shared_kernel()` resumes corrupted runs from golden
//! snapshots and stops at the first bitwise reconvergence (CG and EP
//! replay their golden increments instead); `Benchmark::kernel()` re-executes from
//! iteration 0. Both drive the same step functions, so their outputs must
//! be equal as whole `KernelOutput`s — headline values and checksum — not
//! merely agree on whether the run matched the golden output. The
//! verdict path, `Kernel::corrupts`, stops a run at its first recorded
//! value that leaves the golden run's, and must give the full
//! re-execution's verdict.
//!
//! The sampled comparison also pins the kernels' arithmetic by value: the
//! golden output and every full re-execution fold into one digest per
//! benchmark, asserted against a recorded constant. Two paths through the
//! same `step` agree even when `step` itself changes; the pin does not.
//! Re-record a pin only for a deliberate change to a kernel's arithmetic,
//! and name it in CHANGES.md.

use proptest::prelude::*;
use serscale_stats::SimRng;
use serscale_workload::cg::{Cg, CgReplay};
use serscale_workload::ep::{Ep, EpReplay};
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

/// FNV-1a-64 over the little-endian bytes of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an output's checksum, value count and the bits of every value.
    fn output(&mut self, output: &KernelOutput) {
        self.word(output.checksum);
        self.word(output.values.len() as u64);
        for value in &output.values {
            self.word(value.to_bits());
        }
    }
}

/// Checks the resume path against full re-execution over `SAMPLES`
/// corruptions, output and verdict, and pins the outputs: `digest` is the
/// [`Digest`] of the golden output followed by every full re-execution,
/// and `masked` the number of those that matched the golden output, which
/// the verdict path must count too.
fn sampled_resume_matches_full_run(benchmark: Benchmark, digest: u64, masked: usize) {
    let reference = benchmark.kernel();
    let checkpointed = benchmark.shared_kernel();
    let golden = reference.golden();
    assert_eq!(checkpointed.golden(), golden, "{benchmark}");
    let mut outputs = Digest::new();
    outputs.output(&golden);
    let mut rng = SimRng::seed_from(0x5eed_c0de).fork(benchmark.name());
    let (mut matched, mut verdicts_masked) = (0, 0);
    for _ in 0..SAMPLES {
        let corruption = draw(&mut rng);
        let full = reference.run_corrupted(corruption);
        assert_eq!(
            checkpointed.run_corrupted(corruption),
            full,
            "{benchmark} {corruption:?}"
        );
        let corrupts = checkpointed.corrupts(corruption);
        assert_eq!(
            corrupts,
            !full.matches(&golden),
            "{benchmark} {corruption:?}: verdict"
        );
        outputs.output(&full);
        matched += usize::from(full.matches(benchmark.shared_golden()));
        verdicts_masked += usize::from(!corrupts);
    }
    assert!(
        matched < SAMPLES,
        "{benchmark}: every sampled flip was masked"
    );
    assert_eq!(
        (outputs.0, matched, verdicts_masked),
        (digest, masked, masked),
        "{benchmark}: kernel outputs moved (digest {:#018x}, {matched} masked)",
        outputs.0
    );
}

#[test]
fn cg_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Cg, 0x5014_f8d7_d316_288a, 6);
}

#[test]
fn ep_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Ep, 0x4624_a39e_d46d_7c7e, 6);
}

#[test]
fn ft_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Ft, 0x3375_4847_e684_68bc, 0);
}

#[test]
fn is_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Is, 0x5791_9e28_7ce4_0bba, 251);
}

#[test]
fn lu_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Lu, 0xc797_4db6_85d4_e8ca, 17);
}

#[test]
fn mg_resume_matches_full_run() {
    sampled_resume_matches_full_run(Benchmark::Mg, 0x1081_7f54_6a66_f8ba, 71);
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
    // At most 8 snapshots, 256 KiB each and 768 KiB per kernel: IS's key
    // array alone is over the per-snapshot cap, MG's grid fills the
    // kernel's bytes three times, one snapshot entering every V-cycle.
    edges_match(Cg::class_a(), 8);
    edges_match(Ep::class_a(), 8);
    edges_match(Ft::class_a(), 3);
    edges_match(Is::class_a(), 0);
    edges_match(Lu::class_a(), 7);
    edges_match(Mg::class_a(), 3);
}

/// The [`Stepped::recorded`] values of `kernel`'s full run with
/// `corruption` injected.
fn recorded_run<K: Stepped>(kernel: &K, corruption: Option<Corruption>) -> Vec<f64> {
    let mut state = kernel.init();
    let at = corruption.map(|c| c.iteration(kernel.steps()));
    for i in 0..kernel.steps() {
        if let Some(c) = corruption.filter(|_| at == Some(i)) {
            kernel.inject(&mut state, c);
        }
        if !kernel.step(&mut state, i) {
            break;
        }
    }
    K::recorded(&state).to_vec()
}

/// Asserts that `corruption`'s run records one value per step, that the
/// one of its injection step is golden and a later one is not, and that
/// the verdict path still calls it an SDC, as the full re-execution does.
fn diverges_after_its_injection_step<K: Stepped>(
    kernel: K,
    benchmark: Benchmark,
    corruption: Corruption,
) {
    let at = corruption.iteration(kernel.steps());
    let golden = recorded_run(&kernel, None);
    let corrupted = recorded_run(&kernel, Some(corruption));
    assert_eq!(golden.len(), kernel.steps(), "{}", K::NAME);
    assert_eq!(corrupted.len(), golden.len(), "{}", K::NAME);
    let first = (0..golden.len()).find(|&k| corrupted[k].to_bits() != golden[k].to_bits());
    assert!(
        first.is_some_and(|k| k > at),
        "{}: first differing recorded value {first:?}, injection step {at}",
        K::NAME
    );
    assert!(
        !kernel.run_corrupted(corruption).matches(&kernel.golden()),
        "{}",
        K::NAME
    );
    assert!(
        benchmark.shared_kernel().corrupts(corruption),
        "{}",
        K::NAME
    );
}

/// An MG flip at step 1 whose step-1 residual norm is golden and whose
/// step-2 one is not.
const MG_LATE: Corruption = Corruption {
    at_fraction: 0.25,
    word: 12_345,
    bit: 20,
};

/// An LU flip at sweep 3 whose residual norms stay golden until sweep 9.
const LU_LATE: Corruption = Corruption {
    at_fraction: 0.1,
    word: 1000,
    bit: 8,
};

#[test]
fn a_recorded_value_that_diverges_after_the_injection_step_is_an_sdc() {
    diverges_after_its_injection_step(Mg::class_a(), Benchmark::Mg, MG_LATE);
    diverges_after_its_injection_step(Lu::class_a(), Benchmark::Lu, LU_LATE);
}

/// Checks [`Stepped::recorded`]'s contract on corrupted runs of `kernel`:
/// `inject` leaves the recorded values alone, each later step keeps the
/// ones before it, and `finish` ends `values` with them after a prefix as
/// long as the golden output's.
fn recorded_contract_holds<K: Stepped>(kernel: K) {
    let golden = kernel.golden();
    let prefix = golden.values.len() - recorded_run(&kernel, None).len();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rng = SimRng::seed_from(0x7ec0_4d3d).fork(K::NAME);
    let mut corruptions: Vec<Corruption> = (0..12).map(|_| draw(&mut rng)).collect();
    corruptions.extend([0.0, 0.998].map(|at| Corruption::new(at, 777, 62)));
    for corruption in corruptions {
        let at = corruption.iteration(kernel.steps());
        let mut state = kernel.init();
        for i in 0..at {
            kernel.step(&mut state, i);
        }
        let before = bits(K::recorded(&state));
        kernel.inject(&mut state, corruption);
        assert_eq!(
            bits(K::recorded(&state)),
            before,
            "{} {corruption:?}: inject",
            K::NAME
        );
        let mut kept = before;
        for i in at..kernel.steps() {
            if !kernel.step(&mut state, i) {
                break;
            }
            let now = bits(K::recorded(&state));
            assert_eq!(
                now[..kept.len()],
                kept[..],
                "{} {corruption:?}: step {i}",
                K::NAME
            );
            kept = now;
        }
        let output = kernel.finish(state);
        assert_eq!(
            output.values.len(),
            prefix + kept.len(),
            "{} {corruption:?}",
            K::NAME
        );
        assert_eq!(
            bits(&output.values[prefix..]),
            kept,
            "{} {corruption:?}",
            K::NAME
        );
    }
}

#[test]
fn recorded_values_obey_their_contract_on_corrupted_runs() {
    recorded_contract_holds(Cg::class_a());
    recorded_contract_holds(Ep::class_a());
    recorded_contract_holds(Ft::class_a());
    recorded_contract_holds(Is::class_a());
    recorded_contract_holds(Lu::class_a());
    recorded_contract_holds(Mg::class_a());
}

#[test]
fn ep_replay_matches_full_run_on_every_accumulator_and_bit() {
    let ep = Ep::class_a();
    let replay = Benchmark::Ep.shared_kernel();
    let golden = ep.golden();
    for at_fraction in [0.0, 0.998] {
        for word in 0..12 {
            for bit in 0..64 {
                let corruption = Corruption::new(at_fraction, word, bit);
                let full = ep.run_corrupted(corruption);
                assert_eq!(replay.run_corrupted(corruption), full, "{corruption:?}");
                assert_eq!(
                    replay.corrupts(corruption),
                    !full.matches(&golden),
                    "{corruption:?}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn ep_replay_matches_full_run_bit_for_bit(
        pairs in 1u32..3000,
        seed in any::<u64>(),
        word in 0usize..12,
        bit in 0u8..64,
        edge in 0u8..4,
        inside in 0.0f64..0.999,
    ) {
        let at_fraction = [0.0, 0.998].get(usize::from(edge)).copied().unwrap_or(inside);
        let ep = Ep::new(pairs, seed);
        let replay = EpReplay::new(ep);
        prop_assert_eq!(replay.golden(), ep.golden());
        let corruption = Corruption::new(at_fraction, word, bit);
        let (got, full) = (replay.run_corrupted(corruption), ep.run_corrupted(corruption));
        let bits = |o: &KernelOutput| (o.checksum, o.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        prop_assert_eq!(bits(&got), bits(&full));
        prop_assert_eq!(replay.corrupts(corruption), !full.matches(&ep.golden()));
    }
}

/// The iteration at which `Cg::new(2, 40)`'s breakdown guard ends its
/// loop: the golden run enters iterations `0..=CG_BREAK` and the last one
/// adds nothing.
const CG_BREAK: usize = 27;

/// `replay`'s output and verdict for `corruption` against `cg`'s full
/// re-execution, by bit pattern.
fn cg_replay_agrees(cg: &Cg, replay: &CgReplay, corruption: Corruption) -> Result<(), String> {
    let bits = |o: &KernelOutput| {
        let values: Vec<u64> = o.values.iter().map(|v| v.to_bits()).collect();
        (o.checksum, values)
    };
    let full = cg.run_corrupted(corruption);
    if bits(&replay.run_corrupted(corruption)) != bits(&full) {
        return Err(format!("{corruption:?}: output"));
    }
    if replay.corrupts(corruption) == full.matches(&cg.golden()) {
        return Err(format!("{corruption:?}: verdict"));
    }
    Ok(())
}

#[test]
fn cg_replay_matches_full_run_on_every_step_around_a_breakdown() {
    let cg = Cg::new(2, 40);
    let mut state = cg.init();
    let breaks = (0..cg.steps()).find(|&i| !cg.step(&mut state, i));
    assert_eq!(breaks, Some(CG_BREAK), "Cg::new(2, 40) breaks down");
    let replay = CgReplay::new(cg.clone());
    assert_eq!(replay.golden(), cg.golden());
    for at in 0..cg.steps() {
        for word in 0..4 {
            for bit in [0, 31, 51, 52, 62, 63] {
                let corruption = Corruption::new(fraction_at(at, cg.steps()), word, bit);
                cg_replay_agrees(&cg, &replay, corruption).unwrap();
            }
        }
    }
}

proptest! {
    #[test]
    fn cg_replay_matches_full_run_bit_for_bit(
        side in 2usize..=32,
        iterations in 1usize..=60,
        word in 0usize..1 << 20,
        bit in 0u8..64,
        edge in 0u8..5,
        seed in any::<u64>(),
    ) {
        let cg = Cg::new(side, iterations);
        let replay = CgReplay::new(cg.clone());
        prop_assert_eq!(replay.golden(), cg.golden());
        let mut rng = SimRng::seed_from(seed);
        // The loop's ends, and where `Cg::new(2, 40)` breaks down and the
        // step after it.
        let edges = [0.0, 0.9999, fraction_at(CG_BREAK, 40), fraction_at(CG_BREAK + 1, 40)];
        let at_fraction = edges
            .get(usize::from(edge))
            .copied()
            .unwrap_or_else(|| rng.uniform_in(0.0, 0.999));
        let mut corruptions = vec![Corruption::new(at_fraction, word, bit)];
        corruptions.extend((0..3).map(|_| draw(&mut rng)));
        for corruption in corruptions {
            let agrees = cg_replay_agrees(&cg, &replay, corruption);
            prop_assert!(agrees.is_ok(), "{:?}", agrees);
        }
    }
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
