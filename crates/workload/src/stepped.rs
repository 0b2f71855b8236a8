//! Kernels as one main loop over explicit state, and the golden-checkpoint
//! wrapper that resumes corrupted runs instead of re-running them.
//!
//! Every kernel of the suite is a fixed setup, a main loop whose iterations
//! read and write a working state, and a verification pass over the final
//! state. [`Stepped`] names those pieces. A corrupted run repeats the
//! golden run bit for bit up to its injection step, so [`Checkpointed`]
//! keeps golden snapshots of the state from the one golden pass and starts
//! each corrupted run from the nearest one at or before the injection. It
//! also stops a run early as soon as its outcome is known to be golden: when
//! the flip changed no bit, or when the state later equals a golden snapshot
//! bit for bit. Both paths call the same step functions in the same
//! order, so a checkpointed run returns exactly the [`KernelOutput`] of a
//! full re-execution.

use crate::kernel::{Corruption, Kernel, KernelOutput};

/// A deterministic kernel written as `init`, `steps()` main-loop
/// iterations and `finish`.
///
/// `step` must be a pure function of the state and the iteration index:
/// inputs that never change (forcing tables, charges, right-hand sides)
/// live in the kernel, scratch buffers that every iteration overwrites
/// before reading live in `step`, and everything else lives in
/// [`Stepped::State`]. That makes two bit-identical states at the same
/// iteration indistinguishable to the rest of the run.
pub trait Stepped {
    /// Everything one iteration leaves behind for the next ones.
    type State: Clone;

    /// The benchmark's short name (e.g. `"CG"`).
    const NAME: &'static str;

    /// The number of main-loop iterations.
    fn steps(&self) -> usize;

    /// The state entering iteration 0.
    fn init(&self) -> Self::State;

    /// Runs iteration `i`. Returns `false` when the loop ends after it,
    /// before `steps()` (CG's breakdown guard).
    fn step(&self, state: &mut Self::State, i: usize) -> bool;

    /// Flips the corruption's bit in the live state; returns whether any
    /// bit of the state changed.
    fn inject(&self, state: &mut Self::State, corruption: Corruption) -> bool;

    /// The verification pass: the output of a run that ended in `state`.
    fn finish(&self, state: Self::State) -> KernelOutput;

    /// Whether two states are bit-identical (`to_bits`, so `-0.0` and
    /// `0.0` differ and equal NaNs match).
    fn same(a: &Self::State, b: &Self::State) -> bool;

    /// The heap bytes a snapshot of `state` holds.
    fn bytes(state: &Self::State) -> usize;
}

/// Every stepped kernel is a [`Kernel`] by full re-execution: `init`, each
/// iteration with the flip applied at the start of its injection step, and
/// `finish`. This is the reference [`Checkpointed`] must reproduce.
impl<K: Stepped> Kernel for K {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn run(&self) -> KernelOutput {
        execute(self, None)
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        execute(self, Some(corruption))
    }
}

fn execute<K: Stepped>(kernel: &K, corruption: Option<Corruption>) -> KernelOutput {
    let mut state = kernel.init();
    let inject_at = corruption.map(|c| c.iteration(kernel.steps()));
    for i in 0..kernel.steps() {
        if inject_at == Some(i) {
            if let Some(c) = corruption {
                kernel.inject(&mut state, c);
            }
        }
        if !kernel.step(&mut state, i) {
            break;
        }
    }
    kernel.finish(state)
}

/// The most snapshots one kernel keeps.
const MAX_SNAPSHOTS: usize = 16;

/// The most snapshot bytes one kernel keeps, counted on the initial state
/// (per-iteration histories add a few words per step on top).
const MAX_SNAPSHOT_BYTES: usize = 256 << 10;

/// The iteration spacing of snapshots for a loop of `steps` iterations
/// over a state of `state_bytes`: as many evenly spaced snapshots as both
/// caps allow, strictly inside the loop. A spacing of `steps` means none.
fn spacing(steps: usize, state_bytes: usize) -> usize {
    let count = MAX_SNAPSHOTS.min(MAX_SNAPSHOT_BYTES / state_bytes.max(1));
    steps.div_ceil(count + 1).max(1)
}

/// A stepped kernel plus golden snapshots of its state, taken during its
/// one golden pass.
///
/// [`Kernel::run_corrupted`] clones the nearest snapshot at or before the
/// injection step, runs the clean iterations left, injects, and runs on,
/// returning the golden output at once if the flip changed no bit or the
/// state later equals a golden snapshot bit for bit. Its outputs equal the
/// wrapped kernel's full re-execution for every corruption.
#[derive(Debug)]
pub struct Checkpointed<K: Stepped> {
    kernel: K,
    /// Snapshots sit at every multiple of `every` inside the loop.
    every: usize,
    /// `snapshots[j]` is the golden state entering iteration
    /// `(j + 1) * every`.
    snapshots: Vec<K::State>,
    /// How many iterations the golden run entered: `steps()` unless the
    /// loop ended early.
    entered: usize,
    golden: KernelOutput,
}

impl<K: Stepped> Checkpointed<K> {
    /// Runs the golden pass of `kernel`, keeping its snapshots.
    pub fn new(kernel: K) -> Self {
        let steps = kernel.steps();
        let mut state = kernel.init();
        let every = spacing(steps, K::bytes(&state));
        let mut snapshots = Vec::new();
        let mut entered = steps;
        for i in 0..steps {
            if i > 0 && i.is_multiple_of(every) {
                snapshots.push(state.clone());
            }
            if !kernel.step(&mut state, i) {
                entered = i + 1;
                break;
            }
        }
        let golden = kernel.finish(state);
        Checkpointed {
            kernel,
            every,
            snapshots,
            entered,
            golden,
        }
    }

    /// The number of snapshots held.
    pub fn snapshots(&self) -> usize {
        self.snapshots.len()
    }

    /// The snapshot spacing in iterations.
    pub fn every(&self) -> usize {
        self.every
    }

    /// The golden state entering iteration `i`, if a snapshot holds it.
    fn snapshot_at(&self, i: usize) -> Option<&K::State> {
        if !i.is_multiple_of(self.every) {
            return None;
        }
        self.snapshots.get((i / self.every).checked_sub(1)?)
    }
}

impl<K: Stepped> Kernel for Checkpointed<K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn run(&self) -> KernelOutput {
        self.golden.clone()
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        let kernel = &self.kernel;
        let at = corruption.iteration(kernel.steps());
        if at >= self.entered {
            // The golden loop ended before the injection step: the flip
            // never lands.
            return self.golden.clone();
        }
        let resume = at - at % self.every;
        let mut state = self
            .snapshot_at(resume)
            .cloned()
            .unwrap_or_else(|| kernel.init());
        // The golden run went on past every one of these iterations.
        for i in resume..at {
            kernel.step(&mut state, i);
        }
        if !kernel.inject(&mut state, corruption) {
            return self.golden.clone();
        }
        for i in at..kernel.steps() {
            if !kernel.step(&mut state, i) {
                break;
            }
            if let Some(snapshot) = self.snapshot_at(i + 1) {
                if K::same(&state, snapshot) {
                    return self.golden.clone();
                }
            }
        }
        kernel.finish(state)
    }
}
