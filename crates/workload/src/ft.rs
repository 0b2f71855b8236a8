//! FT — the 3-D Fast Fourier Transform kernel.
//!
//! Mirrors NPB FT's structure: fill a 3-D complex grid with deterministic
//! pseudo-random data, take the forward 3-D FFT, evolve the spectrum over a
//! few time steps with an exponential damping factor, inverse-transform and
//! accumulate a checksum per step. Exercises strided memory access across
//! all three dimensions.

use crate::kernel::{same_bits, Corruption, KernelOutput, NpbRandom};
use crate::stepped::Stepped;

/// The FT kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ft {
    /// Grid side (power of two); the grid has `side³` complex points.
    side: usize,
    /// Number of evolution steps.
    steps: usize,
}

impl Ft {
    /// A miniature class-A-shaped instance (16³ grid, 4 steps).
    pub fn class_a() -> Self {
        Ft { side: 16, steps: 4 }
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Ft { side: 8, steps: 2 }
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not a power of two ≥ 2 or `steps == 0`.
    pub fn new(side: usize, steps: usize) -> Self {
        assert!(
            side >= 2 && side.is_power_of_two(),
            "side must be a power of two ≥ 2"
        );
        assert!(steps > 0, "need at least one step");
        Ft { side, steps }
    }
}

/// FT's spectral working state and the checksums of the steps so far.
#[derive(Debug, Clone)]
pub struct FtState {
    re: Vec<f64>,
    im: Vec<f64>,
    checksums: Vec<f64>,
}

impl Stepped for Ft {
    type State = FtState;
    const NAME: &'static str = "FT";

    fn steps(&self) -> usize {
        self.steps
    }

    fn init(&self) -> FtState {
        let n = self.side;
        let total = n * n * n;
        // Interleaved re/im working state.
        let mut re = vec![0.0f64; total];
        let mut im = vec![0.0f64; total];
        let mut rng = NpbRandom::new(314_159_265);
        for i in 0..total {
            re[i] = rng.next_f64() - 0.5;
            im[i] = rng.next_f64() - 0.5;
        }
        forward_3d(&mut re, &mut im, n);
        FtState {
            re,
            im,
            checksums: Vec::with_capacity(self.steps * 2),
        }
    }

    fn step(&self, state: &mut FtState, step: usize) -> bool {
        let n = self.side;
        // Evolve: multiply each mode by exp(-t·k²)-style damping.
        evolve(&mut state.re, &mut state.im, n, (step + 1) as f64 * 1.0e-4);
        // Inverse-transform a copy and fold its checksum, as NPB FT
        // checksums each time step.
        let mut cre = state.re.clone();
        let mut cim = state.im.clone();
        inverse_3d(&mut cre, &mut cim, n);
        let (sre, sim) = checksum(&cre, &cim, n);
        state.checksums.push(sre);
        state.checksums.push(sim);
        true
    }

    fn inject(&self, state: &mut FtState, corruption: Corruption) -> bool {
        // Hit the spectral working state.
        corruption.apply(&mut state.re)
    }

    fn finish(&self, state: FtState) -> KernelOutput {
        let FtState { re, im, checksums } = state;
        KernelOutput::new(checksums, re.into_iter().chain(im))
    }

    fn recorded(state: &FtState) -> &[f64] {
        &state.checksums
    }

    fn same(a: &FtState, b: &FtState) -> bool {
        same_bits(&a.re, &b.re) && same_bits(&a.im, &b.im) && same_bits(&a.checksums, &b.checksums)
    }

    fn bytes(state: &FtState) -> usize {
        8 * (state.re.len() + state.im.len() + state.checksums.len())
    }
}

/// NPB-style checksum: sum a stride-walked subset of grid points.
fn checksum(re: &[f64], im: &[f64], n: usize) -> (f64, f64) {
    let total = n * n * n;
    let mut sre = 0.0;
    let mut sim = 0.0;
    for j in 1..=1024usize {
        let q = (j * 17) % total;
        sre += re[q];
        sim += im[q];
    }
    (sre, sim)
}

fn evolve(re: &mut [f64], im: &mut [f64], n: usize, t: f64) {
    // k² = kx²+ky²+kz² only takes 3·(n/2)²+1 small-integer values (exact
    // in f64), so the damping exponential is tabulated per value instead
    // of recomputed per grid point — identical factors, n³ fewer `exp`s.
    let half = n / 2;
    let table: Vec<f64> = (0..=3 * half * half)
        .map(|k2| (-t * k2 as f64).exp())
        .collect();
    for z in 0..n {
        let kz = if z <= half { z } else { n - z };
        for y in 0..n {
            let ky = if y <= half { y } else { n - y };
            for x in 0..n {
                let kx = if x <= half { x } else { n - x };
                let factor = table[kx * kx + ky * ky + kz * kz];
                let idx = (z * n + y) * n + x;
                re[idx] *= factor;
                im[idx] *= factor;
            }
        }
    }
}

/// Lines transformed together. Their points interleave in the line
/// buffers, so each butterfly step runs across all of them at once.
const LANES: usize = 4;

/// The line FFT of one 3-D transform: the bit-reversal permutation and
/// each butterfly stage's twiddle factors, which every line shares, and
/// the contiguous buffers the strided lines are transformed in.
struct LineFft {
    /// `reversed[i]` is `i` with its `log2(n)` bits reversed.
    reversed: Vec<usize>,
    /// Real parts of the twiddles, stage after stage: the stage of span
    /// `2h` uses `h` factors.
    twiddle_re: Vec<f64>,
    /// Imaginary parts, laid out like `twiddle_re`.
    twiddle_im: Vec<f64>,
    /// Real parts of `LANES` lines, point-major: point `k` of lane `l`
    /// sits at `k * LANES + l`.
    lines_re: Vec<f64>,
    /// Imaginary parts, laid out like `lines_re`.
    lines_im: Vec<f64>,
}

impl LineFft {
    /// The FFT of lines of `n` points. Each stage's twiddles come from the
    /// same `cos`/`sin` pair and the same recurrence a line would compute
    /// for itself, so they are the same values.
    fn new(n: usize, inverse: bool) -> Self {
        let mut reversed = Vec::with_capacity(n);
        let mut j = 0usize;
        for _ in 0..n {
            reversed.push(j);
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
            }
            j |= m;
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddle_re = Vec::with_capacity(n);
        let mut twiddle_im = Vec::with_capacity(n);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut cur_r = 1.0;
            let mut cur_i = 0.0;
            for _ in 0..len / 2 {
                twiddle_re.push(cur_r);
                twiddle_im.push(cur_i);
                let nr = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = nr;
            }
            len <<= 1;
        }
        LineFft {
            reversed,
            twiddle_re,
            twiddle_im,
            lines_re: vec![0.0; n * LANES],
            lines_im: vec![0.0; n * LANES],
        }
    }

    /// Transforms in place the `LANES` lines whose points sit at
    /// `start + k * stride` for each `start` in `starts`: an iterative
    /// radix-2 Cooley–Tukey per line, over contiguous copies gathered in
    /// bit-reversed order.
    fn lines(&mut self, re: &mut [f64], im: &mut [f64], starts: [usize; LANES], stride: usize) {
        let (lines_re, lines_im) = (&mut self.lines_re, &mut self.lines_im);
        for (k, &from) in self.reversed.iter().enumerate() {
            for (l, start) in starts.iter().enumerate() {
                lines_re[k * LANES + l] = re[start + from * stride];
                lines_im[k * LANES + l] = im[start + from * stride];
            }
        }
        let n = self.reversed.len();
        let mut half = 1;
        while half < n {
            let stage = half - 1..2 * half - 1;
            let (wr, wi) = (&self.twiddle_re[stage.clone()], &self.twiddle_im[stage]);
            let blocks = lines_re
                .chunks_exact_mut(2 * half * LANES)
                .zip(lines_im.chunks_exact_mut(2 * half * LANES));
            for (block_re, block_im) in blocks {
                let (a_re, b_re) = block_re.split_at_mut(half * LANES);
                let (a_im, b_im) = block_im.split_at_mut(half * LANES);
                for (k, (&wr, &wi)) in wr.iter().zip(wi).enumerate() {
                    for p in k * LANES..(k + 1) * LANES {
                        let tr = b_re[p] * wr - b_im[p] * wi;
                        let ti = b_re[p] * wi + b_im[p] * wr;
                        b_re[p] = a_re[p] - tr;
                        b_im[p] = a_im[p] - ti;
                        a_re[p] += tr;
                        a_im[p] += ti;
                    }
                }
            }
            half <<= 1;
        }
        for k in 0..n {
            for (l, start) in starts.iter().enumerate() {
                re[start + k * stride] = lines_re[k * LANES + l];
                im[start + k * stride] = lines_im[k * LANES + l];
            }
        }
    }
}

fn transform_3d(re: &mut [f64], im: &mut [f64], n: usize, inverse: bool) {
    let mut fft = LineFft::new(n, inverse);
    // The X, Y and Z lines, each pass as (first point of every line, stride
    // between its points). A pass holds n² lines, a multiple of `LANES`.
    let passes: [(Vec<usize>, usize); 3] = [
        ((0..n * n).map(|zy| zy * n).collect(), 1),
        ((0..n * n).map(|zx| zx / n * n * n + zx % n).collect(), n),
        ((0..n * n).collect(), n * n),
    ];
    for (starts, stride) in passes {
        for &group in starts.as_chunks::<LANES>().0 {
            fft.lines(re, im, group, stride);
        }
    }
    if inverse {
        let scale = 1.0 / (n * n * n) as f64;
        for v in re.iter_mut() {
            *v *= scale;
        }
        for v in im.iter_mut() {
            *v *= scale;
        }
    }
}

fn forward_3d(re: &mut [f64], im: &mut [f64], n: usize) {
    transform_3d(re, im, n, false);
}

fn inverse_3d(re: &mut [f64], im: &mut [f64], n: usize) {
    transform_3d(re, im, n, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{awkward_grid, same_bits, Kernel};
    use proptest::prelude::*;

    /// The in-place radix-2 Cooley–Tukey over a strided line that
    /// [`LineFft`] replaced: it permutes in place and derives its twiddles
    /// per line.
    fn fft_line(
        re: &mut [f64],
        im: &mut [f64],
        offset: usize,
        stride: usize,
        n: usize,
        inverse: bool,
    ) {
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 0..n {
            if i < j {
                re.swap(offset + i * stride, offset + j * stride);
                im.swap(offset + i * stride, offset + j * stride);
            }
            let mut m = n >> 1;
            while m >= 1 && j & m != 0 {
                j ^= m;
                m >>= 1;
            }
            j |= m;
        }
        // Butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let mut cur_r = 1.0;
                let mut cur_i = 0.0;
                for k in 0..len / 2 {
                    let a = offset + (i + k) * stride;
                    let b = offset + (i + k + len / 2) * stride;
                    let tr = re[b] * cur_r - im[b] * cur_i;
                    let ti = re[b] * cur_i + im[b] * cur_r;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                    let nr = cur_r * wr - cur_i * wi;
                    cur_i = cur_r * wi + cur_i * wr;
                    cur_r = nr;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    /// The 3-D transform over [`fft_line`], as first written.
    fn strided_transform_3d(re: &mut [f64], im: &mut [f64], n: usize, inverse: bool) {
        for z in 0..n {
            for y in 0..n {
                fft_line(re, im, (z * n + y) * n, 1, n, inverse);
            }
        }
        for z in 0..n {
            for x in 0..n {
                fft_line(re, im, z * n * n + x, n, n, inverse);
            }
        }
        for y in 0..n {
            for x in 0..n {
                fft_line(re, im, y * n + x, n * n, n, inverse);
            }
        }
        if inverse {
            let scale = 1.0 / (n * n * n) as f64;
            for v in re.iter_mut() {
                *v *= scale;
            }
            for v in im.iter_mut() {
                *v *= scale;
            }
        }
    }

    /// The forward transform of one contiguous line, run as every lane of
    /// a group.
    fn line_fft(re: &mut [f64], im: &mut [f64]) {
        LineFft::new(re.len(), false).lines(re, im, [0; LANES], 1);
    }

    proptest! {
        #[test]
        fn line_buffered_transform_matches_the_strided_one(
            log_side in 1u32..=5,
            seed in any::<u64>(),
            inverse in any::<bool>(),
        ) {
            let n = 1usize << log_side;
            let total = n * n * n;
            let grid = awkward_grid(seed, 2 * total);
            let (re, im) = grid.split_at(total);
            let (mut expected_re, mut expected_im) = (re.to_vec(), im.to_vec());
            strided_transform_3d(&mut expected_re, &mut expected_im, n, inverse);
            let (mut got_re, mut got_im) = (re.to_vec(), im.to_vec());
            transform_3d(&mut got_re, &mut got_im, n, inverse);
            prop_assert!(same_bits(&got_re, &expected_re), "re, side {n}, inverse {inverse}");
            prop_assert!(same_bits(&got_im, &expected_im), "im, side {n}, inverse {inverse}");
        }
    }

    #[test]
    fn deterministic() {
        let ft = Ft::tiny();
        assert_eq!(ft.run(), ft.run());
    }

    #[test]
    fn fft_roundtrip_recovers_input() {
        let n = 8;
        let total = n * n * n;
        let mut rng = NpbRandom::new(99);
        let orig_re: Vec<f64> = (0..total).map(|_| rng.next_f64()).collect();
        let orig_im: Vec<f64> = (0..total).map(|_| rng.next_f64()).collect();
        let mut re = orig_re.clone();
        let mut im = orig_im.clone();
        forward_3d(&mut re, &mut im, n);
        inverse_3d(&mut re, &mut im, n);
        for i in 0..total {
            assert!((re[i] - orig_re[i]).abs() < 1e-10, "re[{i}]");
            assert!((im[i] - orig_im[i]).abs() < 1e-10, "im[{i}]");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let n = 8;
        let mut re = vec![0.0; n];
        let mut im = vec![0.0; n];
        re[0] = 1.0;
        line_fft(&mut re, &mut im);
        for i in 0..n {
            assert!((re[i] - 1.0).abs() < 1e-12);
            assert!(im[i].abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 16;
        let mut rng = NpbRandom::new(5);
        let mut re: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
        let mut im = vec![0.0; n];
        let time_energy: f64 = re.iter().map(|v| v * v).sum();
        line_fft(&mut re, &mut im);
        let freq_energy: f64 =
            re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn corruption_perturbs_checksums() {
        let ft = Ft::tiny();
        let golden = ft.golden();
        let corrupted = ft.run_corrupted(Corruption::new(0.0, 10, 60));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn evolution_damps_high_modes() {
        let n = 8;
        let total = n * n * n;
        let mut re = vec![1.0; total];
        let mut im = vec![0.0; total];
        evolve(&mut re, &mut im, n, 0.1);
        // DC mode untouched; the (4,4,4) Nyquist corner damped hardest.
        assert_eq!(re[0], 1.0);
        let nyquist = (4 * n + 4) * n + 4;
        assert!(re[nyquist] < 0.01);
    }
}
