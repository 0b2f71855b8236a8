//! The kernel abstraction: a deterministic computation with a comparable
//! output and a corruption-injection hook.

use std::fmt;

/// The output of one kernel run: a numeric result vector plus an
/// order-sensitive checksum over the full working state.
///
/// Two outputs compare equal exactly when the computation produced
/// bit-identical results — the golden-comparison SDC detector of the
/// paper's test flow (§3.6). Values compare by bit pattern, so two runs
/// that both end in the same NaN are equal.
#[derive(Debug, Clone)]
pub struct KernelOutput {
    /// Headline result values (residual norms, counts, checksums — kernel
    /// specific).
    pub values: Vec<f64>,
    /// FNV-1a-style checksum over the bit patterns of the full result
    /// state, folded one 64-bit word per round.
    pub checksum: u64,
}

impl KernelOutput {
    /// Builds an output from headline values and the full result state the
    /// checksum should cover.
    ///
    /// The fold is one xor-multiply round per f64 (FNV-1a's constants on
    /// whole words rather than bytes): each round is injective in the
    /// running state, so any single-element difference is guaranteed to
    /// change the checksum, and the fold stays order sensitive. Golden
    /// comparison only ever tests *equality* of two outputs produced by
    /// this same fold, so the fingerprint choice is free — one round per
    /// word keeps the checksum out of the corrupted-run hot path's budget.
    pub fn new(values: Vec<f64>, state: impl IntoIterator<Item = f64>) -> Self {
        let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: f64| {
            checksum ^= x.to_bits();
            checksum = checksum.wrapping_mul(0x1000_0000_01b3);
        };
        for v in &values {
            fold(*v);
        }
        for x in state {
            fold(x);
        }
        KernelOutput { values, checksum }
    }

    /// Whether this output matches a golden reference — the SDC check.
    pub fn matches(&self, golden: &KernelOutput) -> bool {
        self == golden
    }
}

impl PartialEq for KernelOutput {
    fn eq(&self, other: &Self) -> bool {
        self.checksum == other.checksum && same_bits(&self.values, &other.values)
    }
}

impl Eq for KernelOutput {}

/// Whether two f64 slices hold the same bit patterns (`-0.0` and `0.0`
/// differ; equal NaNs match).
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl fmt::Display for KernelOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checksum {:016x}, values {:?}",
            self.checksum, self.values
        )
    }
}

/// A bit flip injected into a kernel's working state mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corruption {
    /// When to inject, as a fraction of the kernel's main loop (`[0, 1)`).
    pub at_fraction: f64,
    /// Which word of the working state to hit (wrapped modulo state size).
    pub word: usize,
    /// Which bit of the 64-bit word to flip.
    pub bit: u8,
}

impl Corruption {
    /// Creates a corruption.
    ///
    /// # Panics
    ///
    /// Panics if `at_fraction` is outside `[0, 1)` or `bit > 63`.
    pub fn new(at_fraction: f64, word: usize, bit: u8) -> Self {
        assert!(
            (0.0..1.0).contains(&at_fraction),
            "fraction must be in [0,1)"
        );
        assert!(bit < 64, "64-bit words have bits 0..=63");
        Corruption {
            at_fraction,
            word,
            bit,
        }
    }

    /// Applies this corruption to a slice of f64 state. Returns whether a
    /// bit flipped, which it does unless the state is empty.
    pub fn apply(&self, state: &mut [f64]) -> bool {
        if state.is_empty() {
            return false;
        }
        let idx = self.word % state.len();
        state[idx] = f64::from_bits(state[idx].to_bits() ^ (1u64 << self.bit));
        true
    }

    /// The main-loop iteration (out of `total`) at which to inject.
    pub fn iteration(&self, total: usize) -> usize {
        ((self.at_fraction * total as f64) as usize).min(total.saturating_sub(1))
    }

    /// Applies this corruption to integer working state (e.g. the IS key
    /// array).
    pub fn apply_u64(&self, state: &mut [u64]) {
        if state.is_empty() {
            return;
        }
        let idx = self.word % state.len();
        state[idx] ^= 1u64 << self.bit;
    }
}

/// A deterministic benchmark kernel.
///
/// Implementations are pure: [`Kernel::run`] always produces the same
/// output, so the golden reference is simply a clean run.
pub trait Kernel {
    /// The benchmark's short name (e.g. `"CG"`).
    fn name(&self) -> &'static str;

    /// Runs the kernel to completion, fault-free.
    fn run(&self) -> KernelOutput;

    /// Runs the kernel with a bit flip injected into its working state.
    ///
    /// The output may equal the golden output (the flip was logically
    /// masked — overwritten, or in dead data) or differ (a potential SDC).
    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput;

    /// Whether the run with `corruption` injected ends in an output other
    /// than the golden one: the SDC verdict of the paper's golden
    /// comparison (§3.6). An implementation may stop the run as soon as
    /// the answer is known. Default: one corrupted run compared with
    /// [`Kernel::golden`].
    fn corrupts(&self, corruption: Corruption) -> bool {
        self.run_corrupted(corruption) != self.golden()
    }

    /// A clean reference output. Default: one fault-free run.
    fn golden(&self) -> KernelOutput {
        self.run()
    }
}

/// A deterministic pseudo-random stream used by kernels for input
/// generation — NPB-style linear congruential (matches the spirit of NPB's
/// `randlc`, not its exact constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpbRandom {
    state: u64,
}

impl NpbRandom {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        NpbRandom {
            state: seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A deterministic grid for the kernels' differential tests: finite
/// values of mixed sign and magnitude with `±0.0`, subnormals, `±inf` and
/// NaNs mixed in at a rate the seed picks (never, one in 256, or one in
/// 16), so some cases stay finite throughout and others carry special
/// values through every operation.
///
/// Every NaN is the one the hardware returns for an invalid operation
/// such as `inf - inf`. Rust leaves unspecified which payload an
/// operation returns when two NaNs meet, and the compiler may swap the
/// operands of `+` and `*`, so two NaNs of different payloads would make
/// `to_bits` comparisons depend on code generation rather than on the
/// arithmetic. With one payload, every NaN a kernel produces carries it.
#[cfg(test)]
pub(crate) fn awkward_grid(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = NpbRandom::new(seed);
    let rate = [0, 256, 16][(seed % 3) as usize];
    let nan = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
    (0..len)
        .map(|_| {
            let draw = rng.next_u64();
            let scale = f64::powi(2.0, ((draw >> 8) % 17) as i32 - 8);
            let sign = if draw & 1 == 0 { 1.0 } else { -1.0 };
            if rate == 0 || !draw.is_multiple_of(rate) {
                return (rng.next_f64() * 2.0 - 1.0) * scale;
            }
            match (draw >> 16) % 4 {
                0 => sign * 0.0,
                1 => sign * f64::from_bits(rng.next_u64() >> 12),
                2 => sign * f64::INFINITY,
                _ => nan,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_equality_is_bit_exact() {
        let a = KernelOutput::new(vec![1.0, 2.0], [3.0, 4.0]);
        let b = KernelOutput::new(vec![1.0, 2.0], [3.0, 4.0]);
        assert!(a.matches(&b));
        let c = KernelOutput::new(vec![1.0, 2.0], [3.0, f64::from_bits(4.0f64.to_bits() ^ 1)]);
        assert!(!a.matches(&c));
    }

    #[test]
    fn output_equality_compares_bit_patterns() {
        let nan = KernelOutput::new(vec![f64::NAN], [1.0]);
        assert_eq!(nan, nan.clone(), "identical runs ending in NaN are equal");
        let zero = KernelOutput::new(vec![0.0], []);
        let negative_zero = KernelOutput {
            values: vec![-0.0],
            checksum: zero.checksum,
        };
        assert_ne!(zero, negative_zero);
    }

    #[test]
    fn checksum_covers_state_not_just_values() {
        let a = KernelOutput::new(vec![1.0], [5.0, 6.0]);
        let b = KernelOutput::new(vec![1.0], [6.0, 5.0]);
        assert_ne!(a.checksum, b.checksum, "checksum must be order sensitive");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut state = vec![1.0f64, 2.0, 3.0];
        let original = state.clone();
        Corruption::new(0.5, 1, 52).apply(&mut state);
        assert_eq!(state[0], original[0]);
        assert_eq!(state[2], original[2]);
        assert_ne!(state[1], original[1]);
        // Re-applying restores (XOR involution).
        Corruption::new(0.5, 1, 52).apply(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn corruption_wraps_word_index() {
        let mut state = vec![1.0f64, 2.0];
        Corruption::new(0.0, 7, 0).apply(&mut state); // 7 % 2 == 1
        assert_eq!(state[0], 1.0);
        assert_ne!(state[1], 2.0);
    }

    #[test]
    fn corruption_iteration_mapping() {
        let c = Corruption::new(0.5, 0, 0);
        assert_eq!(c.iteration(100), 50);
        assert_eq!(c.iteration(1), 0);
        let end = Corruption::new(0.999, 0, 0);
        assert_eq!(end.iteration(10), 9);
    }

    #[test]
    fn corruption_on_empty_state_is_noop() {
        let mut state: Vec<f64> = vec![];
        Corruption::new(0.1, 3, 3).apply(&mut state);
        assert!(state.is_empty());
    }

    #[test]
    fn npb_random_is_deterministic_and_uniform() {
        let mut a = NpbRandom::new(7);
        let mut b = NpbRandom::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = NpbRandom::new(1);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }
}
