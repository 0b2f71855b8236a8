//! An SRAM array: geometry, protection, interleaving — and the translation
//! of one neutron strike into the per-word ECC outcomes the EDAC log sees.

use serscale_ecc::interleave::{Interleaver, PhysicalBit};
use serscale_ecc::{ProtectionScheme, UpsetOutcome};
use serscale_stats::SimRng;
use serscale_types::{ArrayKind, Bits, Bytes, VoltageDomain};

/// One SRAM array instance on the die.
///
/// ```
/// use serscale_sram::SramArray;
/// use serscale_ecc::ProtectionScheme;
/// use serscale_types::{ArrayKind, Bytes};
///
/// // The modelled L3: 8 MiB, SECDED, no interleaving.
/// let l3 = SramArray::new(ArrayKind::L3Shared, Bytes::mib(8), ProtectionScheme::Secded, 1);
/// assert_eq!(l3.data_bits().get(), 8 * 1024 * 1024 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramArray {
    kind: ArrayKind,
    capacity: Bytes,
    protection: ProtectionScheme,
    interleaver: Interleaver,
}

impl SramArray {
    /// Creates an array.
    ///
    /// # Panics
    ///
    /// Panics if `interleave_degree` is zero.
    pub fn new(
        kind: ArrayKind,
        capacity: Bytes,
        protection: ProtectionScheme,
        interleave_degree: u32,
    ) -> Self {
        SramArray {
            kind,
            capacity,
            protection,
            interleaver: Interleaver::new(interleave_degree, protection.entry_bits()),
        }
    }

    /// The array kind (which cache level it reports under, which voltage
    /// domain feeds it).
    pub const fn kind(&self) -> ArrayKind {
        self.kind
    }

    /// The data capacity.
    pub const fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// The number of data bits (check bits excluded; cross-section
    /// bookkeeping in the paper is per data capacity).
    pub const fn data_bits(&self) -> Bits {
        self.capacity.as_bits()
    }

    /// The protection scheme guarding this array.
    pub const fn protection(&self) -> ProtectionScheme {
        self.protection
    }

    /// The interleaving degree (1 = none).
    pub const fn interleave_degree(&self) -> u32 {
        self.interleaver.degree()
    }

    /// The voltage domain supplying this array.
    pub const fn voltage_domain(&self) -> VoltageDomain {
        self.kind.voltage_domain()
    }

    /// Applies one strike of `cluster_len` physically adjacent flipped
    /// cells at a random position, returning the per-word outcomes after
    /// interleaving and ECC decode.
    pub fn strike(&self, rng: &mut SimRng, cluster_len: u32) -> StrikeEffect {
        assert!(cluster_len >= 1, "a strike flips at least one cell");
        let row_bits = self.interleaver.row_bits();
        let start = PhysicalBit(rng.below(u64::from(row_bits)) as u32);
        let spread = self
            .interleaver
            .spread_cluster(start, cluster_len.min(row_bits));
        let words = spread
            .into_iter()
            .map(|(_, bits)| WordHit {
                outcome: self.protection.classify(&bits),
                flipped_bits: bits.len() as u32,
            })
            .collect();
        StrikeEffect {
            array: self.kind,
            cluster_len,
            words,
        }
    }

    /// [`Self::strike`] into a reusable scratch arena: the same position
    /// draw, the same per-word outcomes in the same first-touch word
    /// order, but through the mask-batched classifiers and with zero
    /// allocation after the scratch warms up. This is the hot-path form;
    /// `strike` remains the per-event reference implementation the
    /// differential oracles compare against.
    ///
    /// Draw-for-draw identical RNG consumption to `strike` (one position
    /// draw; classification consumes none).
    ///
    /// # Panics
    ///
    /// Panics if `cluster_len` is zero.
    pub fn strike_into(&self, rng: &mut SimRng, cluster_len: u32, scratch: &mut StrikeScratch) {
        assert!(cluster_len >= 1, "a strike flips at least one cell");
        let row_bits = self.interleaver.row_bits();
        let start = PhysicalBit(rng.below(u64::from(row_bits)) as u32);
        self.interleaver
            .spread_cluster_masks(start, cluster_len.min(row_bits), &mut scratch.masks);
        self.protection.classify_masks(
            scratch.masks.iter().map(|&(_, mask)| mask),
            &mut scratch.outcomes,
        );
    }
}

/// Reusable per-worker buffers for [`SramArray::strike_into`]: the word
/// masks a cluster spread into and their classification, overwritten on
/// every strike. A worker keeps one of these for its whole lifetime, so
/// the steady-state hot path performs no strike-local allocation.
#[derive(Debug, Clone, Default)]
pub struct StrikeScratch {
    masks: Vec<(u32, u128)>,
    outcomes: Vec<UpsetOutcome>,
}

impl StrikeScratch {
    /// An empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-word outcomes of the last strike, in first-touch word
    /// order (the order `StrikeEffect::words` uses).
    pub fn outcomes(&self) -> &[UpsetOutcome] {
        &self.outcomes
    }

    /// The `(word, error_mask)` pairs of the last strike.
    pub fn word_masks(&self) -> &[(u32, u128)] {
        &self.masks
    }
}

/// The ECC outcome for one logical word touched by a strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordHit {
    /// How many bits flipped within this word.
    pub flipped_bits: u32,
    /// What the protection hardware did about it.
    pub outcome: UpsetOutcome,
}

/// The full effect of one neutron strike on one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrikeEffect {
    /// The struck array.
    pub array: ArrayKind,
    /// The physical cluster length of the strike.
    pub cluster_len: u32,
    /// Per-logical-word outcomes (one entry per word the cluster touched).
    pub words: Vec<WordHit>,
}

impl StrikeEffect {
    /// Number of corrected-error log entries this strike generates.
    pub fn corrected_count(&self) -> usize {
        self.words
            .iter()
            .filter(|w| w.outcome.logs_corrected())
            .count()
    }

    /// Number of uncorrected-error log entries this strike generates.
    pub fn uncorrected_count(&self) -> usize {
        self.words
            .iter()
            .filter(|w| w.outcome.logs_uncorrected())
            .count()
    }

    /// Whether any word ends up silently corrupt (with or without a
    /// deceptive corrected-error notification).
    pub fn corrupts_data(&self) -> bool {
        self.words.iter().any(|w| w.outcome.corrupts_data())
    }

    /// Whether data corruption coincides with a corrected-error
    /// notification — the paper's rare Fig. 12 case.
    pub fn corrupt_with_notification(&self) -> bool {
        self.words
            .iter()
            .any(|w| w.outcome == UpsetOutcome::MiscorrectedReported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> SramArray {
        SramArray::new(
            ArrayKind::L1Data,
            Bytes::kib(32),
            ProtectionScheme::Parity,
            4,
        )
    }

    fn l3() -> SramArray {
        SramArray::new(
            ArrayKind::L3Shared,
            Bytes::mib(8),
            ProtectionScheme::Secded,
            1,
        )
    }

    #[test]
    fn geometry() {
        assert_eq!(l1().data_bits().get(), 32 * 1024 * 8);
        assert_eq!(l3().data_bits().get(), 8 * 1024 * 1024 * 8);
        assert_eq!(l1().interleave_degree(), 4);
        assert_eq!(l3().interleave_degree(), 1);
        assert_eq!(l3().voltage_domain(), VoltageDomain::Soc);
        assert_eq!(l1().voltage_domain(), VoltageDomain::Pmd);
    }

    #[test]
    fn single_bit_strike_on_parity_is_corrected() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..200 {
            let e = l1().strike(&mut rng, 1);
            assert_eq!(e.words.len(), 1);
            assert_eq!(e.words[0].outcome, UpsetOutcome::Corrected);
            assert_eq!(e.corrected_count(), 1);
            assert_eq!(e.uncorrected_count(), 0);
            assert!(!e.corrupts_data());
        }
    }

    #[test]
    fn single_bit_strike_on_secded_is_corrected() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..200 {
            let e = l3().strike(&mut rng, 1);
            assert_eq!(e.words[0].outcome, UpsetOutcome::Corrected);
        }
    }

    #[test]
    fn interleaved_cluster_spreads_into_corrected_singles() {
        // A 4-cell cluster on a 4-way interleaved parity array becomes four
        // separate single-bit (detected, refilled) events.
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let e = l1().strike(&mut rng, 4);
            assert_eq!(e.words.len(), 4);
            for w in &e.words {
                assert_eq!(w.flipped_bits, 1);
                assert_eq!(w.outcome, UpsetOutcome::Corrected);
            }
        }
    }

    #[test]
    fn uninterleaved_double_cluster_is_uncorrectable() {
        // A 2-cell cluster on the un-interleaved SECDED L3 lands in one
        // word and defeats SECDED — the paper's L3-only UE mechanism.
        let mut rng = SimRng::seed_from(4);
        let mut uncorrectable = 0;
        for _ in 0..100 {
            let e = l3().strike(&mut rng, 2);
            if e.words.len() == 1 {
                assert_eq!(e.words[0].flipped_bits, 2);
                assert_eq!(e.words[0].outcome, UpsetOutcome::DetectedUncorrectable);
                uncorrectable += 1;
            }
            // A cluster starting at the last cell of a row wraps to the
            // next word; both words then see singles.
        }
        assert!(uncorrectable > 90);
    }

    #[test]
    fn triple_cluster_on_l3_can_miscorrect() {
        let mut rng = SimRng::seed_from(5);
        let mut miscorrected = 0;
        for _ in 0..500 {
            let e = l3().strike(&mut rng, 3);
            if e.corrupt_with_notification() {
                miscorrected += 1;
            }
        }
        assert!(
            miscorrected > 0,
            "triple clusters should occasionally mis-correct"
        );
    }

    #[test]
    fn strike_is_deterministic_under_seed() {
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            (0..50)
                .map(|_| l3().strike(&mut rng, 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cluster_panics() {
        let mut rng = SimRng::seed_from(6);
        let _ = l1().strike(&mut rng, 0);
    }

    #[test]
    fn scratch_strike_matches_reference_strike_and_rng_stream() {
        for array in [l1(), l3()] {
            let mut ref_rng = SimRng::seed_from(91);
            let mut fast_rng = SimRng::seed_from(91);
            let mut scratch = StrikeScratch::new();
            for len in [1u32, 2, 3, 4, 8, 200] {
                let effect = array.strike(&mut ref_rng, len);
                array.strike_into(&mut fast_rng, len, &mut scratch);
                let ref_outcomes: Vec<UpsetOutcome> =
                    effect.words.iter().map(|w| w.outcome).collect();
                assert_eq!(scratch.outcomes(), ref_outcomes.as_slice(), "len {len}");
                assert_eq!(scratch.word_masks().len(), effect.words.len());
                for (&(_, mask), word) in scratch.word_masks().iter().zip(&effect.words) {
                    // Duplicate hits cancel in the mask but are listed in
                    // the word hit count, so ≤ rather than ==.
                    assert!(mask.count_ones() <= word.flipped_bits);
                }
                // Both forms must have consumed the identical draws.
                assert_eq!(ref_rng.uniform(), fast_rng.uniform(), "len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cluster_panics_in_scratch_form() {
        let mut rng = SimRng::seed_from(7);
        l1().strike_into(&mut rng, 0, &mut StrikeScratch::new());
    }
}
