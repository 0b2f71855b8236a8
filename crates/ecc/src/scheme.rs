//! A unified view of the platform's protection schemes: given the set of
//! bits an upset flipped within one protected entry, what does the hardware
//! do, and what does it report?
//!
//! This is the vocabulary the SoC model and the fault-propagation analysis
//! speak; classification is performed by the *actual* codecs in
//! [`crate::parity`] and [`crate::secded`], not by a probability table, so
//! corner cases (mis-correction, even-weight parity escapes) fall out of the
//! real code behaviour.

use crate::parity::{ParityCheck, ParityWord};
use crate::secded::{mask_syndrome, Codeword, DecodeOutcome, DATA_MASK};

/// The protection scheme guarding an SRAM array (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionScheme {
    /// No protection (core-logic flops, architectural registers).
    None,
    /// Even parity per entry with invalidate-and-refill recovery
    /// (write-through L1 caches, TLBs).
    Parity,
    /// Hamming(72,64) SECDED per 64-bit word (write-back L2/L3 caches).
    Secded,
}

/// What the hardware did about a cluster of bit flips inside one protected
/// entry, and what it reported to the EDAC log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpsetOutcome {
    /// Error removed and a *corrected error* (CE) logged. Data integrity
    /// preserved. For parity arrays this is detection + architectural
    /// refill; for SECDED it is in-line correction.
    Corrected,
    /// Error detected but not correctable; an *uncorrected error* (UE)
    /// logged. The data is lost and the consuming context sees a fault
    /// (SECDED double-bit flips).
    DetectedUncorrectable,
    /// The decoder believed it corrected a single-bit error and logged a CE,
    /// but handed back corrupt data (SECDED aliasing of ≥3-bit flips).
    /// The silent-corruption path *with* a hardware notification (Fig. 12).
    MiscorrectedReported,
    /// Nothing detected, nothing logged, data corrupt (even-weight parity
    /// escapes; any flip in an unprotected structure).
    SilentCorruption,
}

impl UpsetOutcome {
    /// Whether this outcome produces a corrected-error EDAC log entry.
    pub const fn logs_corrected(self) -> bool {
        matches!(
            self,
            UpsetOutcome::Corrected | UpsetOutcome::MiscorrectedReported
        )
    }

    /// Whether this outcome produces an uncorrected-error EDAC log entry.
    pub const fn logs_uncorrected(self) -> bool {
        matches!(self, UpsetOutcome::DetectedUncorrectable)
    }

    /// Whether the architectural data is corrupt after hardware handling.
    pub const fn corrupts_data(self) -> bool {
        matches!(
            self,
            UpsetOutcome::MiscorrectedReported | UpsetOutcome::SilentCorruption
        )
    }
}

/// The canary pattern classification encodes behind the scenes; any value
/// works because the codes are linear, a mixed pattern just makes aliasing
/// visible.
const CANARY: u64 = 0xC0FE_D00D_5EED_BEEF;

impl ProtectionScheme {
    /// The number of distinct bit positions an upset can hit within one
    /// protected entry (data + stored check bits).
    pub const fn entry_bits(self) -> u32 {
        match self {
            ProtectionScheme::None => 64,
            ProtectionScheme::Parity => 65,
            ProtectionScheme::Secded => 72,
        }
    }

    /// Classifies a cluster of flipped bit positions (each `< entry_bits()`,
    /// duplicates cancel as real double-flips would) by running the actual
    /// codec.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range for this scheme.
    ///
    /// ```
    /// use serscale_ecc::{ProtectionScheme, UpsetOutcome};
    ///
    /// assert_eq!(ProtectionScheme::Secded.classify(&[5]), UpsetOutcome::Corrected);
    /// assert_eq!(
    ///     ProtectionScheme::Secded.classify(&[5, 9]),
    ///     UpsetOutcome::DetectedUncorrectable
    /// );
    /// assert_eq!(
    ///     ProtectionScheme::None.classify(&[5]),
    ///     UpsetOutcome::SilentCorruption
    /// );
    /// ```
    pub fn classify(self, positions: &[u32]) -> UpsetOutcome {
        match self {
            ProtectionScheme::None => {
                if effective_flips(positions).is_empty() {
                    // An even number of flips on the same bit restores it.
                    UpsetOutcome::Corrected
                } else {
                    UpsetOutcome::SilentCorruption
                }
            }
            ProtectionScheme::Parity => {
                let mut w = ParityWord::encode(CANARY);
                for &p in positions {
                    w.flip(p);
                }
                match w.check() {
                    ParityCheck::Mismatch => UpsetOutcome::Corrected,
                    ParityCheck::Clean { data } => {
                        if data == CANARY {
                            UpsetOutcome::Corrected
                        } else {
                            UpsetOutcome::SilentCorruption
                        }
                    }
                }
            }
            ProtectionScheme::Secded => {
                let mut cw = Codeword::encode(CANARY);
                for &p in positions {
                    cw.flip(p);
                }
                match cw.decode() {
                    // Clean with intact data only happens when flips
                    // cancelled each other; clean with corrupt data would
                    // require a flip pattern equal to a nonzero codeword of
                    // the code (impossible below its Hamming distance of 4,
                    // but reachable for wide clusters).
                    DecodeOutcome::Clean { data } if data == CANARY => UpsetOutcome::Corrected,
                    DecodeOutcome::Clean { .. } => UpsetOutcome::SilentCorruption,
                    DecodeOutcome::Corrected { data, .. } if data == CANARY => {
                        UpsetOutcome::Corrected
                    }
                    DecodeOutcome::Corrected { .. } => UpsetOutcome::MiscorrectedReported,
                    DecodeOutcome::DetectedUncorrectable => UpsetOutcome::DetectedUncorrectable,
                }
            }
        }
    }

    /// [`Self::classify`] on an XOR-accumulated error mask instead of a
    /// position list — the word-batched form the hot path uses.
    ///
    /// Because all three codes are linear, the classification of
    /// `codeword ⊕ mask` depends only on `mask`, so this needs no encode,
    /// no decode, and no canary: a handful of popcounts and mask tests
    /// replaces the full codec walk. Duplicate flips must already be
    /// cancelled (XOR accumulation does that for free — see
    /// [`crate::interleave::Interleaver::spread_cluster_masks`]).
    ///
    /// # Panics
    ///
    /// Panics if bits at or above `entry_bits()` are set.
    pub fn classify_mask(self, mask: u128) -> UpsetOutcome {
        assert!(
            mask >> self.entry_bits() == 0,
            "mask wider than a protected entry"
        );
        match self {
            ProtectionScheme::None => {
                if mask == 0 {
                    UpsetOutcome::Corrected
                } else {
                    UpsetOutcome::SilentCorruption
                }
            }
            ProtectionScheme::Parity => {
                if mask.count_ones() % 2 == 1 {
                    // Odd weight breaks the parity check: detected,
                    // invalidate-and-refill recovers the line.
                    UpsetOutcome::Corrected
                } else if mask == 0 {
                    UpsetOutcome::Corrected
                } else {
                    // Even nonzero weight passes the check. At least one
                    // of the ≥2 set bits is a data bit (only one parity
                    // bit exists), so the data is silently corrupt.
                    UpsetOutcome::SilentCorruption
                }
            }
            ProtectionScheme::Secded => {
                if mask == 0 {
                    return UpsetOutcome::Corrected;
                }
                let syndrome = mask_syndrome(mask);
                let parity_odd = mask.count_ones() % 2 == 1;
                if parity_odd && syndrome <= 71 {
                    // The decoder flips `syndrome` back (position 0 when
                    // the syndrome is zero); the data survives iff the
                    // residual error avoids every data position.
                    let residual = mask ^ (1u128 << syndrome);
                    if residual & DATA_MASK == 0 {
                        UpsetOutcome::Corrected
                    } else {
                        UpsetOutcome::MiscorrectedReported
                    }
                } else if !parity_odd && syndrome == 0 {
                    // Nonzero even-weight mask with zero syndrome is a
                    // codeword of the Hamming code: it cannot be confined
                    // to check bits (distinct powers of two never XOR to
                    // zero), so the data is corrupt and nothing is logged.
                    UpsetOutcome::SilentCorruption
                } else {
                    UpsetOutcome::DetectedUncorrectable
                }
            }
        }
    }

    /// Classifies a batch of error masks into `out` (cleared first) — one
    /// [`Self::classify_mask`] per mask, in order.
    pub fn classify_masks<I>(self, masks: I, out: &mut Vec<UpsetOutcome>)
    where
        I: IntoIterator<Item = u128>,
    {
        out.clear();
        out.extend(masks.into_iter().map(|mask| self.classify_mask(mask)));
    }
}

/// Cancels duplicate flips (the same cell hit twice is restored).
fn effective_flips(positions: &[u32]) -> Vec<u32> {
    let mut v = positions.to_vec();
    v.sort_unstable();
    let mut out = Vec::new();
    let mut i = 0;
    while i < v.len() {
        let mut run = 1;
        while i + run < v.len() && v[i + run] == v[i] {
            run += 1;
        }
        if run % 2 == 1 {
            out.push(v[i]);
        }
        i += run;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_any_flip_is_silent() {
        assert_eq!(
            ProtectionScheme::None.classify(&[0]),
            UpsetOutcome::SilentCorruption
        );
        assert_eq!(
            ProtectionScheme::None.classify(&[3, 7, 12]),
            UpsetOutcome::SilentCorruption
        );
    }

    #[test]
    fn unprotected_cancelled_flips_are_harmless() {
        assert_eq!(
            ProtectionScheme::None.classify(&[5, 5]),
            UpsetOutcome::Corrected
        );
    }

    #[test]
    fn parity_single_flip_corrected() {
        for p in [0u32, 17, 63, 64] {
            assert_eq!(
                ProtectionScheme::Parity.classify(&[p]),
                UpsetOutcome::Corrected
            );
        }
    }

    #[test]
    fn parity_double_flip_escapes_silently() {
        assert_eq!(
            ProtectionScheme::Parity.classify(&[3, 9]),
            UpsetOutcome::SilentCorruption
        );
    }

    #[test]
    fn parity_double_flip_involving_parity_bit_escapes() {
        assert_eq!(
            ProtectionScheme::Parity.classify(&[3, 64]),
            UpsetOutcome::SilentCorruption
        );
    }

    #[test]
    fn parity_triple_flip_detected() {
        assert_eq!(
            ProtectionScheme::Parity.classify(&[1, 2, 3]),
            UpsetOutcome::Corrected
        );
    }

    #[test]
    fn secded_single_corrected_double_detected() {
        for p in 0..72 {
            assert_eq!(
                ProtectionScheme::Secded.classify(&[p]),
                UpsetOutcome::Corrected,
                "{p}"
            );
        }
        assert_eq!(
            ProtectionScheme::Secded.classify(&[10, 50]),
            UpsetOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn secded_triple_flip_miscorrects_somewhere() {
        let mut saw_miscorrection = false;
        for a in 0..24u32 {
            let triple = [a, a + 24, a + 48];
            let outcome = ProtectionScheme::Secded.classify(&triple);
            // A triple either aliases to a bogus correction or XORs to an
            // invalid syndrome and is flagged uncorrectable; it can never
            // look clean.
            assert_ne!(outcome, UpsetOutcome::SilentCorruption, "triple {triple:?}");
            if outcome == UpsetOutcome::MiscorrectedReported {
                saw_miscorrection = true;
            }
        }
        assert!(saw_miscorrection);
    }

    #[test]
    fn outcome_logging_properties() {
        assert!(UpsetOutcome::Corrected.logs_corrected());
        assert!(!UpsetOutcome::Corrected.corrupts_data());
        assert!(UpsetOutcome::DetectedUncorrectable.logs_uncorrected());
        assert!(UpsetOutcome::MiscorrectedReported.logs_corrected());
        assert!(UpsetOutcome::MiscorrectedReported.corrupts_data());
        assert!(UpsetOutcome::SilentCorruption.corrupts_data());
        assert!(!UpsetOutcome::SilentCorruption.logs_corrected());
    }

    #[test]
    fn entry_bits_per_scheme() {
        assert_eq!(ProtectionScheme::None.entry_bits(), 64);
        assert_eq!(ProtectionScheme::Parity.entry_bits(), 65);
        assert_eq!(ProtectionScheme::Secded.entry_bits(), 72);
    }

    const ALL_SCHEMES: [ProtectionScheme; 3] = [
        ProtectionScheme::None,
        ProtectionScheme::Parity,
        ProtectionScheme::Secded,
    ];

    fn mask_of(positions: &[u32]) -> u128 {
        positions.iter().fold(0u128, |m, &p| m ^ (1u128 << p))
    }

    #[test]
    fn mask_classifier_matches_codec_on_singles_and_pairs() {
        for scheme in ALL_SCHEMES {
            let bits = scheme.entry_bits();
            for a in 0..bits {
                assert_eq!(
                    scheme.classify_mask(mask_of(&[a])),
                    scheme.classify(&[a]),
                    "{scheme:?} single {a}"
                );
                for b in (a + 1)..bits {
                    assert_eq!(
                        scheme.classify_mask(mask_of(&[a, b])),
                        scheme.classify(&[a, b]),
                        "{scheme:?} pair {a},{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn classify_masks_batches_in_order() {
        let masks = [0u128, 1, 0b11, mask_of(&[5, 9, 33])];
        let mut out = vec![UpsetOutcome::Corrected]; // stale content
        ProtectionScheme::Secded.classify_masks(masks.iter().copied(), &mut out);
        let singles: Vec<UpsetOutcome> = masks
            .iter()
            .map(|&m| ProtectionScheme::Secded.classify_mask(m))
            .collect();
        assert_eq!(out, singles);
    }

    #[test]
    #[should_panic(expected = "wider than a protected entry")]
    fn mask_out_of_range_panics() {
        ProtectionScheme::Parity.classify_mask(1u128 << 65);
    }

    mod mask_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn cluster(scheme: ProtectionScheme) -> impl Strategy<Value = Vec<u32>> {
            let bits = scheme.entry_bits();
            // Up to 8 flips, duplicates allowed — duplicates must cancel
            // identically in both forms.
            proptest::collection::vec(0..bits, 1..=8)
        }

        proptest! {
            #[test]
            fn mask_form_equals_codec_form_none(positions in cluster(ProtectionScheme::None)) {
                let scheme = ProtectionScheme::None;
                prop_assert_eq!(scheme.classify_mask(mask_of(&positions)), scheme.classify(&positions));
            }

            #[test]
            fn mask_form_equals_codec_form_parity(positions in cluster(ProtectionScheme::Parity)) {
                let scheme = ProtectionScheme::Parity;
                prop_assert_eq!(scheme.classify_mask(mask_of(&positions)), scheme.classify(&positions));
            }

            #[test]
            fn mask_form_equals_codec_form_secded(positions in cluster(ProtectionScheme::Secded)) {
                let scheme = ProtectionScheme::Secded;
                prop_assert_eq!(scheme.classify_mask(mask_of(&positions)), scheme.classify(&positions));
            }
        }
    }
}
