//! LU — the SSOR-style regular-sparse solver kernel.
//!
//! NPB LU is a CFD application that solves a regular-sparse block system
//! with Symmetric Successive Over-Relaxation. This miniature keeps the
//! numerical heart: SSOR sweeps (forward then backward Gauss–Seidel with an
//! over-relaxation factor) over a 2-D Poisson problem, reporting the
//! residual norm trajectory like LU's verification stage.

use crate::kernel::{same_bits, Corruption, KernelOutput};
use crate::stepped::Stepped;

/// The LU kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Lu {
    /// Grid side; the system has `side²` unknowns.
    side: usize,
    /// SSOR sweeps.
    sweeps: usize,
    /// The forcing term, fixed for the whole solve: tabulated once so the
    /// two transcendentals per point stay out of every sweep.
    rhs: Vec<f64>,
}

/// The over-relaxation factor (NPB LU uses ω = 1.2).
const OMEGA: f64 = 1.2;

impl Lu {
    /// A miniature class-A-shaped instance (64×64 grid, 30 sweeps).
    pub fn class_a() -> Self {
        Lu::new(64, 30)
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Lu::new(12, 8)
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if `side < 3` or `sweeps == 0`.
    pub fn new(side: usize, sweeps: usize) -> Self {
        assert!(side >= 3, "grid side must be at least 3");
        assert!(sweeps > 0, "need at least one sweep");
        let rhs = (0..side * side)
            .map(|idx| forcing(side, idx / side, idx % side))
            .collect();
        Lu { side, sweeps, rhs }
    }

    fn residual_norm(&self, u: &[f64]) -> f64 {
        let n = self.side;
        let rhs = &self.rhs;
        let mut sum = 0.0;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let idx = i * n + j;
                let lap = 4.0 * u[idx] - u[idx - n] - u[idx + n] - u[idx - 1] - u[idx + 1];
                let r = rhs[idx] - lap;
                sum += r * r;
            }
        }
        sum.sqrt()
    }
}

/// A smooth deterministic forcing term.
fn forcing(side: usize, i: usize, j: usize) -> f64 {
    let n = side as f64;
    let x = i as f64 / n;
    let y = j as f64 / n;
    (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
}

/// The SSOR iterate and the residual norms of the sweeps so far.
#[derive(Debug, Clone)]
pub struct LuState {
    u: Vec<f64>,
    residuals: Vec<f64>,
}

impl Stepped for Lu {
    type State = LuState;
    const NAME: &'static str = "LU";

    fn steps(&self) -> usize {
        self.sweeps
    }

    fn init(&self) -> LuState {
        LuState {
            u: vec![0.0f64; self.side * self.side],
            residuals: Vec::with_capacity(self.sweeps),
        }
    }

    fn step(&self, state: &mut LuState, _: usize) -> bool {
        let n = self.side;
        let (u, rhs) = (&mut state.u, &self.rhs);
        // Forward Gauss–Seidel with over-relaxation.
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let idx = i * n + j;
                let gs = (rhs[idx] + u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]) / 4.0;
                u[idx] += OMEGA * (gs - u[idx]);
            }
        }
        // Backward sweep (the "symmetric" in SSOR).
        for i in (1..n - 1).rev() {
            for j in (1..n - 1).rev() {
                let idx = i * n + j;
                let gs = (rhs[idx] + u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]) / 4.0;
                u[idx] += OMEGA * (gs - u[idx]);
            }
        }
        let residual = self.residual_norm(u);
        state.residuals.push(residual);
        true
    }

    fn inject(&self, state: &mut LuState, corruption: Corruption) -> bool {
        corruption.apply(&mut state.u)
    }

    fn finish(&self, state: LuState) -> KernelOutput {
        let LuState { u, residuals } = state;
        let final_residual = *residuals.last().expect("at least one sweep");
        let usum: f64 = u.iter().sum();
        let mut values = vec![final_residual, usum];
        values.extend(residuals.iter().copied());
        KernelOutput::new(values, u)
    }

    fn same(a: &LuState, b: &LuState) -> bool {
        same_bits(&a.u, &b.u) && same_bits(&a.residuals, &b.residuals)
    }

    fn bytes(state: &LuState) -> usize {
        8 * (state.u.len() + state.residuals.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    #[test]
    fn deterministic() {
        let lu = Lu::class_a();
        assert_eq!(lu.run(), lu.run());
    }

    #[test]
    fn residual_decreases_monotonically() {
        let out = Lu::class_a().run();
        // values[2..] is the residual trajectory.
        let residuals = &out.values[2..];
        for pair in residuals.windows(2) {
            assert!(pair[1] <= pair[0] * 1.0001, "{} -> {}", pair[0], pair[1]);
        }
        // SSOR on a 64×64 grid converges slowly (spectral radius near 1);
        // 30 sweeps buy a solid but not dramatic reduction.
        assert!(residuals.last().unwrap() < &(residuals[0] * 0.9));
    }

    #[test]
    fn solution_is_positive_bump() {
        // -∇²u = sin·sin forcing with zero boundary ⇒ positive interior.
        let out = Lu::class_a().run();
        assert!(out.values[1] > 0.0, "sum(u) = {}", out.values[1]);
    }

    #[test]
    fn corruption_mid_solve_changes_state() {
        let lu = Lu::class_a();
        let golden = lu.golden();
        let corrupted = lu.run_corrupted(Corruption::new(0.9, 2000, 55));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn ssor_tolerates_and_repairs_small_early_upsets() {
        // Relaxation smooths early perturbations away: final residual stays
        // close to golden even though bit-exact state differs.
        let lu = Lu::class_a();
        let golden = lu.golden();
        let corrupted = lu.run_corrupted(Corruption::new(0.1, 2000, 30));
        let rel = (corrupted.values[0] - golden.values[0]).abs() / golden.values[0].max(1e-30);
        assert!(
            rel < 0.5,
            "early small upset should not derail convergence (rel = {rel})"
        );
    }

    #[test]
    fn boundary_stays_zero() {
        let lu = Lu::tiny();
        let out = lu.run();
        // usum of a 12×12 grid with zero boundary: reconstruct by re-running
        // and checking the checksum is stable (boundary handled inside).
        assert_eq!(out, lu.run());
    }
}
