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

    fn recorded(state: &MgState) -> &[f64] {
        &state.residuals
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

/// The seven-point stencil around one row's interior: the points
/// `lo..lo + n - 2` and their six neighbours, each as a slice of that
/// length.
struct Stencil<'a> {
    centre: &'a [f64],
    x_lo: &'a [f64],
    x_hi: &'a [f64],
    y_lo: &'a [f64],
    y_hi: &'a [f64],
    z_lo: &'a [f64],
    z_hi: &'a [f64],
}

impl<'a> Stencil<'a> {
    fn new(u: &'a [f64], n: usize, lo: usize) -> Self {
        let m = n - 2;
        let at = |start: usize| &u[start..start + m];
        Stencil {
            centre: at(lo),
            x_lo: at(lo - 1),
            x_hi: at(lo + 1),
            y_lo: at(lo - n),
            y_hi: at(lo + n),
            z_lo: at(lo - n * n),
            z_hi: at(lo + n * n),
        }
    }
}

/// The first interior point of each interior row, in z/y order.
fn interior_rows(n: usize) -> impl Iterator<Item = usize> {
    (1..n - 1).flat_map(move |z| (1..n - 1).map(move |y| idx(n, 1, y, z)))
}

/// Weighted-Jacobi smoothing for -∇²u = f (7-point stencil, periodic-free:
/// interior only, zero boundary).
fn smooth(u: &mut [f64], f: &[f64], n: usize, passes: usize) {
    let omega = 0.8;
    let m = n - 2;
    // One scratch snapshot reused across passes; each later pass
    // refreshes it with a memcpy instead of a fresh allocation.
    let mut prev = u.to_vec();
    for pass in 0..passes {
        if pass > 0 {
            prev.copy_from_slice(u);
        }
        for lo in interior_rows(n) {
            let s = Stencil::new(&prev, n, lo);
            let (f, out) = (&f[lo..lo + m], &mut u[lo..lo + m]);
            for x in 0..m {
                let neighbours =
                    s.x_lo[x] + s.x_hi[x] + s.y_lo[x] + s.y_hi[x] + s.z_lo[x] + s.z_hi[x];
                let jac = (f[x] + neighbours) / 6.0;
                out[x] = (1.0 - omega) * s.centre[x] + omega * jac;
            }
        }
    }
}

/// Writes `f - A·u` for the interior of the row starting at `lo` into
/// `out`, which holds `n - 2` values.
fn residual_row(u: &[f64], f: &[f64], n: usize, lo: usize, out: &mut [f64]) {
    let s = Stencil::new(u, n, lo);
    let f = &f[lo..lo + out.len()];
    for x in 0..out.len() {
        let lap = 6.0 * s.centre[x]
            - s.x_lo[x]
            - s.x_hi[x]
            - s.y_lo[x]
            - s.y_hi[x]
            - s.z_lo[x]
            - s.z_hi[x];
        out[x] = f[x] - lap;
    }
}

/// The L2 norm of the residual, without the residual grid. The grid's
/// boundary terms are `+0.0`: the first turns the `-0.0` that `f64`'s
/// `Sum` starts from into `+0.0`, and each later one leaves a sum of
/// squares, never `-0.0`, unchanged. So the interior squares summed in
/// the same z/y/x order from `+0.0` give the same bits.
fn residual_norm(u: &[f64], f: &[f64], n: usize) -> f64 {
    let mut row = vec![0.0; n - 2];
    let mut sum = 0.0;
    for lo in interior_rows(n) {
        residual_row(u, f, n, lo, &mut row);
        for r in &row {
            sum += r * r;
        }
    }
    sum.sqrt()
}

/// The residual `f - A·u` restricted to the coarse grid by injection
/// (full-weighting lite): coarse point `(x, y, z)` takes the fine
/// residual at `(2x, 2y, 2z)`. Only those fine points are computed, each
/// with [`residual_row`]'s expression order. A coarse point on a low face
/// sits on the fine grid's boundary, where the residual is `+0.0`.
fn restricted_residual(u: &[f64], f: &[f64], n: usize) -> Vec<f64> {
    let nc = n / 2;
    let mut coarse = vec![0.0; nc * nc * nc];
    for z in 1..nc {
        for y in 1..nc {
            let fine = idx(n, 0, 2 * y, 2 * z);
            let row = &mut coarse[idx(nc, 0, y, z)..idx(nc, nc, y, z)];
            for (x, r) in row.iter_mut().enumerate().skip(1) {
                let i = fine + 2 * x;
                let lap = 6.0 * u[i]
                    - u[i - 1]
                    - u[i + 1]
                    - u[i - n]
                    - u[i + n]
                    - u[i - n * n]
                    - u[i + n * n];
                *r = f[i] - lap;
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
            let start = idx(nc, 0, (y / 2).min(nc - 1), (z / 2).min(nc - 1));
            let coarse = &coarse[start..start + nc];
            let row = &mut u[idx(nf, 0, y, z)..idx(nf, nf - 1, y, z)];
            for (x, v) in row.iter_mut().enumerate() {
                // x < nf - 1, so x / 2 never needs clamping to nc - 1.
                *v += coarse[x / 2];
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
    let rc = restricted_residual(u, f, n);
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
    use crate::kernel::{awkward_grid, Kernel};
    use proptest::prelude::*;

    /// The smoother over indexed lookups, as first written.
    fn indexed_smooth(u: &mut [f64], f: &[f64], n: usize, passes: usize) {
        let omega = 0.8;
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

    /// The residual grid over row slices, which restriction read one
    /// point in eight of.
    fn residual(u: &[f64], f: &[f64], n: usize) -> Vec<f64> {
        let mut r = vec![0.0; n * n * n];
        for lo in interior_rows(n) {
            residual_row(u, f, n, lo, &mut r[lo..lo + n - 2]);
        }
        r
    }

    /// Injection of the whole fine residual grid, as first written.
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

    /// The residual grid over indexed lookups, as first written.
    fn indexed_residual(u: &[f64], f: &[f64], n: usize) -> Vec<f64> {
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

    proptest! {
        #[test]
        fn slice_stencils_match_indexed_ones_bit_for_bit(
            log_side in 2u32..=5,
            passes in 1usize..=3,
            seed in any::<u64>(),
        ) {
            let n = 1usize << log_side;
            let total = n * n * n;
            let grid = awkward_grid(seed, 2 * total);
            let (u, f) = grid.split_at(total);
            let expected = indexed_residual(u, f, n);
            prop_assert!(same_bits(&residual(u, f, n), &expected), "residual, side {n}");
            let norm = expected.iter().map(|v| v * v).sum::<f64>().sqrt();
            prop_assert_eq!(residual_norm(u, f, n).to_bits(), norm.to_bits(), "side {}", n);
            let (mut expected, mut got) = (u.to_vec(), u.to_vec());
            indexed_smooth(&mut expected, f, n, passes);
            smooth(&mut got, f, n, passes);
            prop_assert!(same_bits(&got, &expected), "smooth, side {n}, {passes} passes");
        }

        #[test]
        fn restricted_residual_matches_the_restricted_grid_bit_for_bit(
            log_side in 2u32..=5,
            seed in any::<u64>(),
        ) {
            let n = 1usize << log_side;
            let total = n * n * n;
            let grid = awkward_grid(seed, 2 * total);
            let (u, f) = grid.split_at(total);
            let expected = restrict(&residual(u, f, n), n);
            prop_assert!(same_bits(&restricted_residual(u, f, n), &expected), "side {n}");
        }
    }

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
