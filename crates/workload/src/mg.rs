//! MG — the Multigrid kernel.
//!
//! Mirrors NPB MG: V-cycles of a geometric multigrid solver for the 3-D
//! Poisson equation — Jacobi-style smoothing, full-weighting restriction to
//! a coarser grid, trilinear-ish prolongation back — reporting the L2 norm
//! of the residual, which is exactly what NPB MG verifies.

use crate::kernel::{same_bits, Corruption, KernelOutput};
use crate::stepped::Stepped;

/// The MG kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Mg {
    /// Finest grid side (power of two).
    side: usize,
    /// Number of V-cycles.
    cycles: usize,
    /// Deterministic ±1 point charges, like MG's input.
    f: Vec<f64>,
}

impl Mg {
    /// A miniature class-A-shaped instance (32³ fine grid, 4 V-cycles).
    pub fn class_a() -> Self {
        Mg::new(32, 4)
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Mg::new(8, 2)
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not a power of two ≥ 4 or `cycles == 0`.
    pub fn new(side: usize, cycles: usize) -> Self {
        assert!(
            side >= 4 && side.is_power_of_two(),
            "side must be a power of two ≥ 4"
        );
        assert!(cycles > 0, "need at least one V-cycle");
        let total = side * side * side;
        let mut f = vec![0.0f64; total];
        for k in 0..10 {
            let idx = (k * 7919) % total;
            f[idx] = if k % 2 == 0 { 1.0 } else { -1.0 };
        }
        Mg { side, cycles, f }
    }
}

/// The multigrid iterate and the residual norms of the V-cycles so far.
#[derive(Debug, Clone)]
pub struct MgState {
    u: Vec<f64>,
    residuals: Vec<f64>,
}

impl Stepped for Mg {
    type State = MgState;
    const NAME: &'static str = "MG";

    fn steps(&self) -> usize {
        self.cycles
    }

    fn init(&self) -> MgState {
        MgState {
            u: vec![0.0f64; self.f.len()],
            residuals: Vec::with_capacity(self.cycles),
        }
    }

    fn step(&self, state: &mut MgState, _: usize) -> bool {
        v_cycle(&mut state.u, &self.f, self.side);
        let residual = residual_norm(&state.u, &self.f, self.side);
        state.residuals.push(residual);
        true
    }

    fn inject(&self, state: &mut MgState, corruption: Corruption) -> bool {
        corruption.apply(&mut state.u)
    }

    fn finish(&self, state: MgState) -> KernelOutput {
        let MgState { u, residuals } = state;
        let final_res = *residuals.last().expect("at least one cycle");
        let mut values = vec![final_res];
        values.extend(residuals.iter().copied());
        KernelOutput::new(values, u)
    }

    fn same(a: &MgState, b: &MgState) -> bool {
        same_bits(&a.u, &b.u) && same_bits(&a.residuals, &b.residuals)
    }

    fn bytes(state: &MgState) -> usize {
        8 * (state.u.len() + state.residuals.len())
    }
}

fn idx(n: usize, x: usize, y: usize, z: usize) -> usize {
    (z * n + y) * n + x
}

/// Weighted-Jacobi smoothing for -∇²u = f (7-point stencil, periodic-free:
/// interior only, zero boundary).
fn smooth(u: &mut [f64], f: &[f64], n: usize, passes: usize) {
    let omega = 0.8;
    // One scratch snapshot reused across passes; each pass refreshes it
    // with a memcpy instead of a fresh allocation.
    let mut prev = vec![0.0; u.len()];
    for _ in 0..passes {
        prev.copy_from_slice(u);
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = idx(n, x, y, z);
                    let neighbours = prev[idx(n, x - 1, y, z)]
                        + prev[idx(n, x + 1, y, z)]
                        + prev[idx(n, x, y - 1, z)]
                        + prev[idx(n, x, y + 1, z)]
                        + prev[idx(n, x, y, z - 1)]
                        + prev[idx(n, x, y, z + 1)];
                    let jac = (f[i] + neighbours) / 6.0;
                    u[i] = (1.0 - omega) * prev[i] + omega * jac;
                }
            }
        }
    }
}

fn residual(u: &[f64], f: &[f64], n: usize) -> Vec<f64> {
    let mut r = vec![0.0; n * n * n];
    for z in 1..n - 1 {
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = idx(n, x, y, z);
                let lap = 6.0 * u[i]
                    - u[idx(n, x - 1, y, z)]
                    - u[idx(n, x + 1, y, z)]
                    - u[idx(n, x, y - 1, z)]
                    - u[idx(n, x, y + 1, z)]
                    - u[idx(n, x, y, z - 1)]
                    - u[idx(n, x, y, z + 1)];
                r[i] = f[i] - lap;
            }
        }
    }
    r
}

fn residual_norm(u: &[f64], f: &[f64], n: usize) -> f64 {
    residual(u, f, n).iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Injection (full-weighting lite): coarse point takes the fine point value.
fn restrict(fine: &[f64], nf: usize) -> Vec<f64> {
    let nc = nf / 2;
    let mut coarse = vec![0.0; nc * nc * nc];
    for z in 0..nc {
        for y in 0..nc {
            for x in 0..nc {
                coarse[idx(nc, x, y, z)] = fine[idx(nf, x * 2, y * 2, z * 2)];
            }
        }
    }
    coarse
}

/// Nearest-neighbour prolongation with additive correction.
fn prolong_add(u: &mut [f64], coarse: &[f64], nf: usize) {
    let nc = nf / 2;
    for z in 0..nf - 1 {
        for y in 0..nf - 1 {
            for x in 0..nf - 1 {
                let c = coarse[idx(
                    nc,
                    (x / 2).min(nc - 1),
                    (y / 2).min(nc - 1),
                    (z / 2).min(nc - 1),
                )];
                u[idx(nf, x, y, z)] += c;
            }
        }
    }
}

/// One V-cycle: smooth, restrict residual, recurse (or bottom-solve),
/// prolong correction, smooth again.
fn v_cycle(u: &mut [f64], f: &[f64], n: usize) {
    smooth(u, f, n, 2);
    if n <= 4 {
        smooth(u, f, n, 8); // bottom solve by heavy smoothing
        return;
    }
    // The fine-grid residual is dead once restricted: drop it before the
    // coarse solve instead of holding it through the second smooth.
    let rc = restrict(&residual(u, f, n), n);
    let nc = n / 2;
    let mut ec = vec![0.0; nc * nc * nc];
    v_cycle(&mut ec, &rc, nc);
    // Scale correction: coarse-grid operator differs by h² factor 4.
    for v in ec.iter_mut() {
        *v *= 4.0;
    }
    prolong_add(u, &ec, n);
    smooth(u, f, n, 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    #[test]
    fn deterministic() {
        let mg = Mg::tiny();
        assert_eq!(mg.run(), mg.run());
    }

    #[test]
    fn residual_shrinks_over_cycles() {
        let out = Mg::class_a().run();
        let residuals = &out.values[1..];
        assert!(
            residuals.last().unwrap() < &residuals[0],
            "V-cycles must reduce the residual: {residuals:?}"
        );
    }

    #[test]
    fn smoother_reduces_residual() {
        let n = 8;
        let total = n * n * n;
        let mut f = vec![0.0; total];
        f[idx(n, 4, 4, 4)] = 1.0;
        let mut u = vec![0.0; total];
        let r0 = residual_norm(&u, &f, n);
        smooth(&mut u, &f, n, 10);
        let r1 = residual_norm(&u, &f, n);
        assert!(r1 < r0, "{r1} !< {r0}");
    }

    #[test]
    fn restriction_halves_grid() {
        let fine = vec![1.0; 8 * 8 * 8];
        let coarse = restrict(&fine, 8);
        assert_eq!(coarse.len(), 4 * 4 * 4);
        assert!(coarse.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn prolongation_adds_correction() {
        let mut u = vec![0.0; 8 * 8 * 8];
        let coarse = vec![2.0; 4 * 4 * 4];
        prolong_add(&mut u, &coarse, 8);
        assert_eq!(u[idx(8, 3, 3, 3)], 2.0);
    }

    #[test]
    fn corruption_changes_output() {
        let mg = Mg::tiny();
        let golden = mg.golden();
        let corrupted = mg.run_corrupted(Corruption::new(0.5, 100, 62));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn zero_forcing_stays_zero() {
        let n = 8;
        let f = vec![0.0; n * n * n];
        let mut u = vec![0.0; n * n * n];
        v_cycle(&mut u, &f, n);
        assert!(u.iter().all(|&v| v == 0.0));
    }
}
