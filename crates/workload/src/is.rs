//! IS — the Integer Sort kernel.
//!
//! Mirrors NPB IS: generate integer keys with a (roughly) Gaussian-shaped
//! distribution, rank them with a counting sort over several iterations
//! (each iteration perturbs two keys, as real IS does, to defeat
//! memoization), and verify that the final ranking is a valid sort. The
//! output carries the ranking checksum the golden comparison inspects.

use crate::kernel::{same_bits, Corruption, KernelOutput, NpbRandom};
use crate::stepped::Stepped;

/// The IS kernel configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Is {
    /// Number of keys.
    keys: usize,
    /// Key range: keys are in `[0, range)`.
    range: u64,
    /// Ranking iterations.
    iterations: usize,
    /// The deterministic initial key array (a pure function of `keys` and
    /// `range`): generated once at construction so repeated runs start
    /// from a memcpy instead of re-deriving a quarter-million uniforms.
    initial_keys: Vec<u64>,
}

impl Is {
    /// A miniature class-A-shaped instance (64 Ki keys over 2¹¹ buckets).
    pub fn class_a() -> Self {
        Is::new(1 << 16, 1 << 11, 10)
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Is::new(1 << 8, 1 << 6, 3)
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(keys: usize, range: u64, iterations: usize) -> Self {
        assert!(
            keys > 0 && range > 0 && iterations > 0,
            "IS dimensions must be positive"
        );
        let mut rng = NpbRandom::new(77_617_777);
        // Sum of four uniforms ≈ NPB's key distribution shape.
        let initial_keys = (0..keys)
            .map(|_| {
                let sum: f64 = (0..4).map(|_| rng.next_f64()).sum::<f64>() / 4.0;
                ((sum * range as f64) as u64).min(range - 1)
            })
            .collect();
        Is {
            keys,
            range,
            iterations,
            initial_keys,
        }
    }

    fn generate_keys(&self) -> Vec<u64> {
        self.initial_keys.clone()
    }

    /// Counting sort of `keys` into per-value counts.
    fn count(&self, keys: &[u64]) -> Vec<u64> {
        let mut counts = vec![0u64; self.range as usize];
        for &k in keys {
            counts[k as usize] += 1;
        }
        counts
    }
}

/// The key array IS ranks and the partial-verification checksums of the
/// iterations so far.
#[derive(Debug, Clone)]
pub struct IsState {
    keys: Vec<u64>,
    partial_checksums: Vec<f64>,
}

impl Stepped for Is {
    type State = IsState;
    const NAME: &'static str = "IS";

    fn steps(&self) -> usize {
        self.iterations
    }

    fn init(&self) -> IsState {
        IsState {
            keys: self.generate_keys(),
            partial_checksums: Vec::with_capacity(self.iterations),
        }
    }

    fn step(&self, state: &mut IsState, it: usize) -> bool {
        let keys = &mut state.keys;
        // NPB IS perturbs two keys each iteration.
        let a = it % self.keys;
        let b = (it * 31 + 7) % self.keys;
        keys[a] = (keys[a] + it as u64) % self.range;
        keys[b] = (keys[b] + self.range / 2) % self.range;

        // Counting sort (ranking).
        let mut counts = self.count(keys);
        // Prefix sum gives the rank of the first key with each value.
        let mut acc = 0u64;
        for c in counts.iter_mut() {
            let v = *c;
            *c = acc;
            acc += v;
        }
        // Fold a checksum of a few ranks, like IS's partial verify.
        let probe = keys[(it * 131) % self.keys];
        state.partial_checksums.push(counts[probe as usize] as f64);
        true
    }

    fn inject(&self, state: &mut IsState, corruption: Corruption) -> bool {
        let keys = &mut state.keys;
        let word = corruption.word % keys.len();
        let before = keys[word];
        corruption.apply_u64(keys);
        // Keys must stay in range after a flip — real IS would index out
        // of bounds and crash; we clamp and let the ranking checksum catch
        // the corruption instead, which keeps the SDC (rather than crash)
        // path exercised. Every other key is already in range. With a
        // power-of-two range, a flip above the range's bits clamps back
        // to the key it hit.
        if keys[word] >= self.range {
            keys[word] %= self.range;
        }
        keys[word] != before
    }

    fn finish(&self, state: IsState) -> KernelOutput {
        let IsState {
            keys,
            partial_checksums,
        } = state;
        // Full verification pass: walk the sorted permutation and check
        // order. A counting sort over the (bounded) key range yields the
        // identical ascending sequence a comparison sort would, so the
        // sequence is read straight from the counts.
        let counts = self.count(&keys);
        let sorted = || {
            counts
                .iter()
                .enumerate()
                .flat_map(|(value, &count)| std::iter::repeat_n(value as u64, count as usize))
        };
        let is_sorted = sorted().is_sorted();
        let key_sum: u64 = keys.iter().sum();

        let mut values = vec![if is_sorted { 1.0 } else { 0.0 }, key_sum as f64];
        values.extend(&partial_checksums);
        KernelOutput::new(values, sorted().map(|k| k as f64))
    }

    fn same(a: &IsState, b: &IsState) -> bool {
        a.keys == b.keys && same_bits(&a.partial_checksums, &b.partial_checksums)
    }

    fn bytes(state: &IsState) -> usize {
        8 * (state.keys.len() + state.partial_checksums.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    #[test]
    fn deterministic() {
        let is = Is::class_a();
        assert_eq!(is.run(), is.run());
    }

    #[test]
    fn output_reports_valid_sort() {
        let out = Is::class_a().run();
        assert_eq!(out.values[0], 1.0, "sorted flag must be set");
    }

    #[test]
    fn keys_within_range() {
        let is = Is::tiny();
        for k in is.generate_keys() {
            assert!(k < 1 << 6);
        }
    }

    #[test]
    fn key_distribution_is_centered() {
        // Sum-of-uniforms keys cluster around range/2.
        let is = Is::class_a();
        let keys = is.generate_keys();
        let mean = keys.iter().sum::<u64>() as f64 / keys.len() as f64;
        let mid = (1 << 11) as f64 / 2.0;
        assert!((mean - mid).abs() < mid * 0.05, "mean = {mean}");
    }

    #[test]
    fn key_corruption_changes_output() {
        let is = Is::class_a();
        let golden = is.golden();
        let corrupted = is.run_corrupted(Corruption::new(0.5, 1234, 9));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn corruption_outcome_is_deterministic() {
        let is = Is::tiny();
        let a = is.run_corrupted(Corruption::new(0.3, 42, 3));
        let b = is.run_corrupted(Corruption::new(0.3, 42, 3));
        assert_eq!(a, b);
    }
}
