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

/// In-place iterative radix-2 Cooley–Tukey over a strided 1-D line.
fn fft_line(re: &mut [f64], im: &mut [f64], offset: usize, stride: usize, n: usize, inverse: bool) {
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

fn transform_3d(re: &mut [f64], im: &mut [f64], n: usize, inverse: bool) {
    // X lines.
    for z in 0..n {
        for y in 0..n {
            fft_line(re, im, (z * n + y) * n, 1, n, inverse);
        }
    }
    // Y lines.
    for z in 0..n {
        for x in 0..n {
            fft_line(re, im, z * n * n + x, n, n, inverse);
        }
    }
    // Z lines.
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

fn forward_3d(re: &mut [f64], im: &mut [f64], n: usize) {
    transform_3d(re, im, n, false);
}

fn inverse_3d(re: &mut [f64], im: &mut [f64], n: usize) {
    transform_3d(re, im, n, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

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
        fft_line(&mut re, &mut im, 0, 1, n, false);
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
        fft_line(&mut re, &mut im, 0, 1, n, false);
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
