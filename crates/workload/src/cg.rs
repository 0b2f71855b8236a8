//! CG — the Conjugate Gradient kernel.
//!
//! Solves `A·x = b` for a sparse symmetric positive-definite matrix (the
//! five-point 2-D Laplacian, the canonical CG testbed) and reports the
//! final residual norm and solution statistics. Mirrors NPB CG's role of
//! stressing irregular memory access and inner products.

use crate::kernel::{same_bits, Corruption, KernelOutput};
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
        let CgState { x, r, p, rr } = state;
        let n = x.len();
        let mut ap = vec![0.0f64; n];
        self.apply_laplacian(p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if pap.abs() < 1e-300 {
            return false;
        }
        let alpha = *rr / pap;
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

    fn inject(&self, state: &mut CgState, corruption: Corruption) -> bool {
        corruption.apply(&mut state.x)
    }

    fn finish(&self, state: CgState) -> KernelOutput {
        let x = state.x;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

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
