//! CG — the Conjugate Gradient kernel.
//!
//! Solves `A·x = b` for a sparse symmetric positive-definite matrix (the
//! five-point 2-D Laplacian, the canonical CG testbed) and reports the
//! final residual norm and solution statistics. Mirrors NPB CG's role of
//! stressing irregular memory access and inner products.
//!
//! A flip can only hit the solution `x`, and nothing reads `x` before the
//! verification pass, so [`CgReplay`] answers corrupted runs from the
//! golden run's logged increments instead of re-running the solve.

use crate::kernel::{same_bits, Corruption, Kernel, KernelOutput};
use crate::stepped::Stepped;

/// The CG kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Cg {
    /// Grid side; the system has `side²` unknowns.
    side: usize,
    /// Number of CG iterations.
    iterations: usize,
    /// The deterministic right-hand side `b`.
    b: Vec<f64>,
}

/// The vectors and scalar CG carries from one iteration to the next.
#[derive(Debug, Clone)]
pub struct CgState {
    /// The solution estimate — the kernel's long-lived state.
    x: Vec<f64>,
    /// The residual `b − A·x`.
    r: Vec<f64>,
    /// The search direction.
    p: Vec<f64>,
    /// `r·r`.
    rr: f64,
}

impl Cg {
    /// A miniature class-A-shaped instance (1024 unknowns, 60 iterations).
    pub fn class_a() -> Self {
        Cg::new(32, 60)
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Cg::new(8, 10)
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if `side < 2` or `iterations == 0`.
    pub fn new(side: usize, iterations: usize) -> Self {
        assert!(side >= 2, "grid side must be at least 2");
        assert!(iterations > 0, "need at least one iteration");
        let b = (0..side * side)
            .map(|i| 1.0 + (i % 7) as f64 * 0.125)
            .collect();
        Cg {
            side,
            iterations,
            b,
        }
    }

    /// Applies the 2-D five-point Laplacian: `y = A·x`.
    fn apply_laplacian(&self, x: &[f64], y: &mut [f64]) {
        let n = self.side;
        for i in 0..n {
            for j in 0..n {
                let idx = i * n + j;
                let mut v = 4.0 * x[idx];
                if i > 0 {
                    v -= x[idx - n];
                }
                if i + 1 < n {
                    v -= x[idx + n];
                }
                if j > 0 {
                    v -= x[idx - 1];
                }
                if j + 1 < n {
                    v -= x[idx + 1];
                }
                y[idx] = v;
            }
        }
    }

    /// Runs one CG iteration, first appending to `log`, if given, the
    /// increment it adds to each word of `x`. Returns `false`, having
    /// changed nothing, when the breakdown guard ends the loop.
    fn advance(&self, state: &mut CgState, log: Option<&mut Vec<f64>>) -> bool {
        let CgState { x, r, p, rr } = state;
        let n = x.len();
        let mut ap = vec![0.0f64; n];
        self.apply_laplacian(p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if pap.abs() < 1e-300 {
            return false;
        }
        let alpha = *rr / pap;
        if let Some(log) = log {
            log.extend(p.iter().map(|&p| alpha * p));
        }
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / *rr;
        *rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        true
    }

    /// The verification pass over a final solution `x`.
    fn output(&self, x: Vec<f64>) -> KernelOutput {
        // True residual from the (possibly corrupted) solution.
        let mut ax = vec![0.0f64; x.len()];
        self.apply_laplacian(&x, &mut ax);
        let residual: f64 = self
            .b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        let xsum: f64 = x.iter().sum();
        KernelOutput::new(vec![residual, xsum], x)
    }
}

impl Stepped for Cg {
    type State = CgState;
    const NAME: &'static str = "CG";

    fn steps(&self) -> usize {
        self.iterations
    }

    fn init(&self) -> CgState {
        let r = self.b.clone();
        let p = r.clone();
        let rr: f64 = r.iter().map(|v| v * v).sum();
        CgState {
            x: vec![0.0f64; self.b.len()],
            r,
            p,
            rr,
        }
    }

    fn step(&self, state: &mut CgState, _: usize) -> bool {
        self.advance(state, None)
    }

    fn inject(&self, state: &mut CgState, corruption: Corruption) -> bool {
        corruption.apply(&mut state.x)
    }

    fn finish(&self, state: CgState) -> KernelOutput {
        self.output(state.x)
    }

    fn same(a: &CgState, b: &CgState) -> bool {
        a.rr.to_bits() == b.rr.to_bits()
            && same_bits(&a.x, &b.x)
            && same_bits(&a.r, &b.r)
            && same_bits(&a.p, &b.p)
    }

    fn bytes(state: &CgState) -> usize {
        8 * (state.x.len() + state.r.len() + state.p.len() + 1)
    }
}

/// CG answering corrupted runs by replaying its golden increments.
///
/// A flip only ever hits `x`, and `x` is write-only: step k adds
/// `alpha * p[i]` to `x[i]`, and nothing reads `x` until `finish`. So `r`,
/// `p`, `rr` and the breakdown guard follow the golden run whatever the
/// flip, and a corrupted `x` is the golden `x` with one word `w` changed.
/// That word ends at w's golden increments from the steps before the
/// injection step, folded from `+0.0`, with the bit flipped, plus w's
/// increments from the injection step on, added in step order: the
/// additions a full re-execution performs, so the same bits. A step the
/// breakdown guard ends adds nothing, so a flip on it lands and stays, and
/// a flip after it never lands.
///
/// The one golden pass logs what every step that applied its update
/// added to every word, 60 × 1024 words (480 KiB) for the class-A
/// instance.
#[derive(Debug)]
pub struct CgReplay {
    cg: Cg,
    /// How many iterations the golden run entered: `steps()` unless the
    /// breakdown guard ended the loop.
    entered: usize,
    /// `increments[k * n + i]`: what step `k` added to `x[i]`, for every
    /// step that applied its update.
    increments: Vec<f64>,
    /// The golden run's final `x`.
    x: Vec<f64>,
    golden: KernelOutput,
}

impl CgReplay {
    /// Runs the golden pass of `cg`, logging its increments.
    pub fn new(cg: Cg) -> Self {
        let steps = cg.steps();
        let mut state = cg.init();
        // Reserved up front, so the log never copies itself as it grows.
        let mut increments = Vec::with_capacity(steps * state.x.len());
        let mut entered = steps;
        for i in 0..steps {
            if !cg.advance(&mut state, Some(&mut increments)) {
                entered = i + 1;
                break;
            }
        }
        let x = state.x.clone();
        let golden = cg.finish(state);
        CgReplay {
            cg,
            entered,
            increments,
            x,
            golden,
        }
    }

    /// The golden increments of `x[word % n]`, one per step that applied
    /// its update, in step order.
    pub fn increments(&self, word: usize) -> impl Iterator<Item = f64> + '_ {
        let n = self.x.len();
        self.increments[word % n..].iter().step_by(n).copied()
    }

    /// The output of a run that ends in the golden `x` with `x[word % n]`
    /// replaced by `value`.
    pub fn output_with(&self, word: usize, value: f64) -> KernelOutput {
        let mut x = self.x.clone();
        let n = x.len();
        x[word % n] = value;
        self.cg.output(x)
    }

    /// The flipped word and the value it ends at, or `None` when the
    /// golden loop ended before the injection step.
    fn replay(&self, corruption: Corruption) -> Option<(usize, f64)> {
        let at = corruption.iteration(self.cg.steps());
        if at >= self.entered {
            return None;
        }
        let word = corruption.word % self.x.len();
        let mut increments = self.increments(word);
        let before = increments.by_ref().take(at).fold(0.0, |sum, d| sum + d);
        let flipped = f64::from_bits(before.to_bits() ^ (1 << corruption.bit));
        Some((word, increments.fold(flipped, |sum, d| sum + d)))
    }
}

impl Kernel for CgReplay {
    fn name(&self) -> &'static str {
        Cg::NAME
    }

    fn run(&self) -> KernelOutput {
        self.golden.clone()
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        match self.replay(corruption) {
            Some((word, value)) => self.output_with(word, value),
            None => self.golden.clone(),
        }
    }

    /// The output's checksum covers every word of `x`, so the run is an
    /// SDC exactly when the flipped word ends off its golden bits.
    fn corrupts(&self, corruption: Corruption) -> bool {
        self.replay(corruption)
            .is_some_and(|(word, value)| value.to_bits() != self.x[word].to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cg = Cg::class_a();
        assert_eq!(cg.run(), cg.run());
    }

    #[test]
    fn converges() {
        // CG on an SPD system must shrink the residual dramatically.
        let out = Cg::class_a().run();
        let residual = out.values[0];
        let b_norm = ((32 * 32) as f64).sqrt() * 1.4; // ‖b‖ scale
        assert!(residual < 0.05 * b_norm, "residual = {residual}");
    }

    #[test]
    fn early_corruption_is_repaired_by_cg() {
        // CG is self-correcting for perturbations of x early in the solve:
        // the residual recurrence keeps pulling x back toward the solution.
        // But the output CHECKSUM still differs because x's bits differ —
        // this is precisely the "output mismatch" subtlety golden
        // comparison has to catch.
        let cg = Cg::class_a();
        let golden = cg.golden();
        let corrupted = cg.run_corrupted(Corruption::new(0.2, 100, 40));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn late_corruption_visible_in_residual() {
        let cg = Cg::class_a();
        let golden = cg.golden();
        // High-exponent-bit flip on x near the end: residual blows up.
        let corrupted = cg.run_corrupted(Corruption::new(0.95, 500, 62));
        assert!(!corrupted.matches(&golden));
        assert!(corrupted.values[0] > golden.values[0]);
    }

    #[test]
    fn laplacian_of_constant_vector() {
        // For a constant vector, interior rows of A·x are zero; only
        // boundary rows are nonzero. Checks the stencil wiring.
        let cg = Cg::tiny();
        let x = vec![1.0; 64];
        let mut y = vec![0.0; 64];
        cg.apply_laplacian(&x, &mut y);
        // Interior point (3,3): 4 - 4 neighbours = 0.
        assert_eq!(y[3 * 8 + 3], 0.0);
        // Corner (0,0): 4 - 2 neighbours = 2.
        assert_eq!(y[0], 2.0);
    }

    #[test]
    fn tiny_and_class_a_differ() {
        assert_ne!(Cg::class_a().run(), Cg::tiny().run());
    }
}
