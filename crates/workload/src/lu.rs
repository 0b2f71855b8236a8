//! LU — the SSOR-style regular-sparse solver kernel.
//!
//! NPB LU is a CFD application that solves a regular-sparse block system
//! with Symmetric Successive Over-Relaxation. This miniature keeps the
//! numerical heart: SSOR sweeps (forward then backward Gauss–Seidel with an
//! over-relaxation factor) over a 2-D Poisson problem, reporting the
//! residual norm trajectory like LU's verification stage.
//!
//! Each sweep runs in hyperplane (wavefront) order: every point still reads
//! its up and left neighbours already relaxed and its down and right
//! neighbours not yet relaxed, and sums them in the same order, so the
//! iterates are bit-identical to row-major sweeps — only independent points
//! are interleaved.

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
}

/// Rows a sweep keeps in flight.
///
/// A point reads the point just relaxed before it in its row, so each row
/// is one chain of dependent floating-point operations and a row-major
/// sweep waits on their latency. A band of `BAND` rows, each one column
/// behind the row before it, gives the core `BAND` independent chains.
const BAND: usize = 4;

/// The over-relaxed Gauss–Seidel update of a point from its forcing and
/// its neighbours at `idx - n`, `idx + n`, `idx - 1` and `idx + 1`, summed
/// in that order.
fn relaxed(centre: f64, rhs: f64, north: f64, south: f64, west: f64, east: f64) -> f64 {
    let gs = (rhs + north + south + west + east) / 4.0;
    centre + OMEGA * (gs - centre)
}

/// Relaxes the point at `idx` in place.
fn relax(u: &mut [f64], rhs: &[f64], n: usize, idx: usize) {
    u[idx] = relaxed(
        u[idx],
        rhs[idx],
        u[idx - n],
        u[idx + n],
        u[idx - 1],
        u[idx + 1],
    );
}

/// Relaxes the `rows` rows that come `first` rows into a [`sweep`] in
/// hyperplane order: at step `t`, row `r` of the band relaxes its
/// `(t - r)`-th point. The points of one step are never
/// neighbours, and the points before each one in its row and in the row
/// before it were relaxed at earlier steps, so every point reads the
/// values a row-by-row sweep shows it.
fn relax_band<const FORWARD: bool>(
    u: &mut [f64],
    rhs: &[f64],
    n: usize,
    first: usize,
    rows: usize,
) {
    let m = n - 2;
    // The index of row r's c-th interior point in sweep order.
    let at = |r: usize, c: usize| {
        if FORWARD {
            (1 + first + r) * n + 1 + c
        } else {
            (m - first - r) * n + m - c
        }
    };
    // Relaxes the points of steps `range` that lie inside the grid.
    let relax_steps = |u: &mut [f64], range: std::ops::Range<usize>| {
        for t in range {
            for r in t.saturating_sub(m - 1)..rows.min(t + 1) {
                relax(u, rhs, n, at(r, t - r));
            }
        }
    };
    if rows < BAND {
        relax_steps(u, 0..m + rows - 1);
        return;
    }
    relax_steps(u, 0..BAND - 1);
    // The steady state, where every row of the band has a point in each
    // step. The value row r relaxed at the previous step is both the point
    // before its next one and the neighbour row r + 1 reads from the row
    // before it, so it stays in a register; rows go last to first, so
    // each row reads `last` before the row before it overwrites it.
    let behind = |idx: usize| if FORWARD { idx - 1 } else { idx + 1 };
    let mut last: [f64; BAND] = std::array::from_fn(|r| u[behind(at(r, BAND - 1 - r))]);
    for t in BAND - 1..m {
        for r in (0..BAND).rev() {
            let idx = at(r, t - r);
            let above = match r {
                0 if FORWARD => u[idx - n],
                0 => u[idx + n],
                _ => last[r - 1],
            };
            let (north, south, west, east) = if FORWARD {
                (above, u[idx + n], last[r], u[idx + 1])
            } else {
                (u[idx - n], above, u[idx - 1], last[r])
            };
            last[r] = relaxed(u[idx], rhs[idx], north, south, west, east);
            u[idx] = last[r];
        }
    }
    relax_steps(u, m..m + BAND - 1);
}

/// One Gauss–Seidel sweep with over-relaxation, in bands of `BAND` rows:
/// rows top to bottom and each left to right when `FORWARD`; otherwise
/// bottom to top and right to left, the backward sweep that makes SSOR
/// symmetric.
fn sweep<const FORWARD: bool>(u: &mut [f64], rhs: &[f64], n: usize) {
    let m = n - 2;
    for first in (0..m).step_by(BAND) {
        relax_band::<FORWARD>(u, rhs, n, first, BAND.min(m - first));
    }
}

/// The L2 norm of `rhs - A·u` over the interior, summed row by row in
/// index order.
fn residual_norm(u: &[f64], rhs: &[f64], n: usize) -> f64 {
    let mut sum = 0.0;
    for i in 1..n - 1 {
        let row = i * n;
        let (up, mid, down) = (&u[row - n..row], &u[row..row + n], &u[row + n..row + 2 * n]);
        let rhs = &rhs[row..row + n];
        for j in 1..n - 1 {
            let lap = 4.0 * mid[j] - up[j] - down[j] - mid[j - 1] - mid[j + 1];
            let r = rhs[j] - lap;
            sum += r * r;
        }
    }
    sum.sqrt()
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
        let (n, u, rhs) = (self.side, &mut state.u, &self.rhs);
        sweep::<true>(u, rhs, n);
        sweep::<false>(u, rhs, n);
        let residual = residual_norm(u, rhs, n);
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

    fn recorded(state: &LuState) -> &[f64] {
        &state.residuals
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
    use crate::kernel::{awkward_grid, Kernel};
    use proptest::prelude::*;

    /// The row-major forward sweep the wavefront order replaced.
    fn row_major_forward(u: &mut [f64], rhs: &[f64], n: usize) {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let idx = i * n + j;
                let gs = (rhs[idx] + u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]) / 4.0;
                u[idx] += OMEGA * (gs - u[idx]);
            }
        }
    }

    /// The row-major backward sweep the wavefront order replaced.
    fn row_major_backward(u: &mut [f64], rhs: &[f64], n: usize) {
        for i in (1..n - 1).rev() {
            for j in (1..n - 1).rev() {
                let idx = i * n + j;
                let gs = (rhs[idx] + u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]) / 4.0;
                u[idx] += OMEGA * (gs - u[idx]);
            }
        }
    }

    /// The residual norm over indexed lookups, as first written.
    fn indexed_residual_norm(u: &[f64], rhs: &[f64], n: usize) -> f64 {
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

    proptest! {
        // Sides 3..=20 cover a single interior row, bands cut short by the
        // grid (fewer interior rows than `BAND`, or a count that is not a
        // multiple of it) and rows shorter than a band's stagger.
        #[test]
        fn wavefront_sweeps_match_row_major_bit_for_bit(side in 3usize..=20, seed in any::<u64>()) {
            let len = side * side;
            let grid = awkward_grid(seed, 2 * len);
            let (start, rhs) = grid.split_at(len);
            let (mut expected, mut got) = (start.to_vec(), start.to_vec());
            row_major_forward(&mut expected, rhs, side);
            sweep::<true>(&mut got, rhs, side);
            prop_assert!(same_bits(&got, &expected), "forward sweep, side {side}");
            row_major_backward(&mut expected, rhs, side);
            sweep::<false>(&mut got, rhs, side);
            prop_assert!(same_bits(&got, &expected), "backward sweep, side {side}");
            prop_assert_eq!(
                residual_norm(&got, rhs, side).to_bits(),
                indexed_residual_norm(&expected, rhs, side).to_bits()
            );
        }
    }

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
