//! Hamming(72,64) SECDED: the Single-Error-Correct / Double-Error-Detect
//! code protecting the modelled L2 and L3 caches (Table 1, \[33\]).
//!
//! ## Layout
//!
//! The 72-bit codeword uses the classic extended-Hamming layout:
//!
//! * positions `1..=71` (1-indexed) hold the Hamming code: positions that
//!   are powers of two (1, 2, 4, 8, 16, 32, 64 — seven of them) are check
//!   bits, and the remaining 64 positions hold the data bits in ascending
//!   order;
//! * position `0` holds the overall (even) parity of positions `1..=71`,
//!   extending plain Hamming SEC into SECDED.
//!
//! ## Decode semantics
//!
//! | syndrome | overall parity | meaning |
//! |---|---|---|
//! | 0 | even | clean |
//! | 0 | odd | overall-parity bit itself flipped (corrected) |
//! | ≠0 | odd | single-bit error at position = syndrome (corrected) |
//! | ≠0, ≤71 | even | double-bit error (detected, uncorrectable) |
//! | >71 | any | inconsistent syndrome (detected, uncorrectable) |
//!
//! Three or more flips can alias to the "single-bit error" row and be
//! silently *mis-corrected* — the code reports a corrected event while
//! handing back wrong data. That behaviour is physical and is exactly the
//! mechanism behind the paper's rare "SDC accompanied by a corrected-error
//! notification" events (§6.2).

/// Number of data bits per codeword.
pub const DATA_BITS: u32 = 64;
/// Number of check bits (7 Hamming + 1 overall parity).
pub const CHECK_BITS: u32 = 8;
/// Total codeword width.
pub const CODEWORD_BITS: u32 = DATA_BITS + CHECK_BITS;

/// The 64 codeword positions (1-indexed) that carry data bits, in the order
/// data bit 0, 1, 2, … are placed.
fn data_positions() -> impl Iterator<Item = u32> {
    (1u32..=71).filter(|p| !p.is_power_of_two())
}

/// The positions covered by check bit `2^k`: every position in `1..=71`
/// whose `k`-th bit is set (including the check-bit position itself, which
/// participates in its own parity group).
const fn cover_mask(k: u32) -> u128 {
    let mut mask = 0u128;
    let mut pos = 1u32;
    while pos <= 71 {
        if pos & (1 << k) != 0 {
            mask |= 1u128 << pos;
        }
        pos += 1;
    }
    mask
}

/// The seven Hamming parity groups as bit masks over codeword positions —
/// the word-parallel form of the decoder: syndrome bit `k` is the popcount
/// parity of `mask & COVER_MASKS[k]`, seven AND+popcount pairs instead of
/// a 71-iteration position loop.
const COVER_MASKS: [u128; 7] = [
    cover_mask(0),
    cover_mask(1),
    cover_mask(2),
    cover_mask(3),
    cover_mask(4),
    cover_mask(5),
    cover_mask(6),
];

/// The codeword positions that carry data bits, as a mask: an error mask
/// confined to `!DATA_MASK` leaves the decoded data word intact.
pub const DATA_MASK: u128 = {
    let mut mask = 0u128;
    let mut pos = 1u32;
    while pos <= 71 {
        // Power-of-two positions are check bits; everything else is data.
        if pos & (pos - 1) != 0 {
            mask |= 1u128 << pos;
        }
        pos += 1;
    }
    mask
};

/// The Hamming syndrome of an error mask over codeword bits `0..=71`,
/// computed with bitwise cover-mask popcounts (no per-position loop).
///
/// Because the code is linear, the syndrome of `codeword ⊕ mask` equals
/// the syndrome of `mask` alone for any valid codeword — this is the
/// word-batched decode primitive the hot path classifies strikes with.
///
/// # Panics
///
/// Panics (debug only) if bits above position 71 are set.
pub fn mask_syndrome(mask: u128) -> u32 {
    debug_assert!(mask >> CODEWORD_BITS == 0, "mask wider than the codeword");
    let mut s = 0u32;
    let mut k = 0;
    while k < 7 {
        s |= ((mask & COVER_MASKS[k]).count_ones() & 1) << k;
        k += 1;
    }
    s
}

/// A 72-bit SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword(u128);

/// The outcome of decoding a (possibly corrupted) codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// No error detected; data returned as stored.
    Clean {
        /// The decoded data word.
        data: u64,
    },
    /// A single-bit error was detected and corrected (or so the decoder
    /// believes — a ≥3-bit error can alias here with wrong data).
    Corrected {
        /// The post-correction data word.
        data: u64,
        /// The 1-indexed codeword position that was flipped back
        /// (`0` = the overall-parity bit).
        position: u32,
    },
    /// A double-bit (or inconsistent) error was detected and cannot be
    /// corrected. The stored data must not be used.
    DetectedUncorrectable,
}

impl Codeword {
    /// Encodes a 64-bit data word into a 72-bit SECDED codeword.
    ///
    /// ```
    /// use serscale_ecc::secded::{Codeword, DecodeOutcome};
    ///
    /// let cw = Codeword::encode(12345);
    /// assert_eq!(cw.decode(), DecodeOutcome::Clean { data: 12345 });
    /// ```
    pub fn encode(data: u64) -> Self {
        let mut bits: u128 = 0;
        // Scatter data bits into non-power-of-two positions.
        for (i, pos) in data_positions().enumerate() {
            if (data >> i) & 1 == 1 {
                bits |= 1u128 << pos;
            }
        }
        // Hamming check bits: check bit at position 2^k covers every
        // position whose k-th bit is set; even parity over covered data.
        for k in 0..7u32 {
            let p = 1u32 << k;
            let mut parity = false;
            for pos in 1..=71u32 {
                if pos != p && pos & p != 0 && (bits >> pos) & 1 == 1 {
                    parity = !parity;
                }
            }
            if parity {
                bits |= 1u128 << p;
            }
        }
        // Overall parity over positions 1..=71 stored at position 0.
        let ones = (bits >> 1).count_ones();
        if ones % 2 == 1 {
            bits |= 1;
        }
        Codeword(bits)
    }

    /// The raw 72-bit codeword image (bits above 71 are always zero).
    pub const fn raw(&self) -> u128 {
        self.0
    }

    /// Reconstructs a codeword from a raw 72-bit image, e.g. after storage
    /// corruption.
    ///
    /// # Panics
    ///
    /// Panics if bits above position 71 are set.
    pub fn from_raw(raw: u128) -> Self {
        assert!(
            raw >> CODEWORD_BITS == 0,
            "codeword is {CODEWORD_BITS} bits"
        );
        Codeword(raw)
    }

    /// Flips one bit of the codeword. Position `0` is the overall-parity
    /// bit; positions `1..=71` are the Hamming codeword.
    ///
    /// # Panics
    ///
    /// Panics if `position > 71`.
    pub fn flip(&mut self, position: u32) {
        assert!(
            position < CODEWORD_BITS,
            "codeword has bits 0..{CODEWORD_BITS}"
        );
        self.0 ^= 1u128 << position;
    }

    /// The Hamming syndrome: XOR of the positions of all set bits in
    /// `1..=71`, including check bits. Zero for a clean codeword.
    fn syndrome(&self) -> u32 {
        // Position 0 (overall parity) is in no cover mask, so the full
        // image can go straight through the word-parallel form.
        mask_syndrome(self.0)
    }

    /// Whether the overall parity (positions 0..=71 together) is odd.
    fn overall_parity_odd(&self) -> bool {
        self.0.count_ones() % 2 == 1
    }

    /// Extracts the data word ignoring any errors.
    fn extract_data(&self) -> u64 {
        let mut data = 0u64;
        for (i, pos) in data_positions().enumerate() {
            if (self.0 >> pos) & 1 == 1 {
                data |= 1u64 << i;
            }
        }
        data
    }

    /// Decodes the codeword, correcting a single-bit error if present.
    ///
    /// See the module docs for the full outcome table. Note that a ≥3-bit
    /// error may be silently mis-corrected (reported as
    /// [`DecodeOutcome::Corrected`] with wrong data) — this mirrors real
    /// SECDED hardware and is relied on by the fault-propagation model.
    pub fn decode(&self) -> DecodeOutcome {
        let syndrome = self.syndrome();
        let parity_odd = self.overall_parity_odd();
        match (syndrome, parity_odd) {
            (0, false) => DecodeOutcome::Clean {
                data: self.extract_data(),
            },
            (0, true) => {
                // Only the overall-parity bit is wrong; data is intact.
                DecodeOutcome::Corrected {
                    data: self.extract_data(),
                    position: 0,
                }
            }
            (s, true) if s <= 71 => {
                let mut fixed = *self;
                fixed.flip(s);
                DecodeOutcome::Corrected {
                    data: fixed.extract_data(),
                    position: s,
                }
            }
            // Even overall parity with nonzero syndrome ⇒ an even number of
            // flips ⇒ uncorrectable; syndrome >71 is inconsistent.
            _ => DecodeOutcome::DetectedUncorrectable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATTERNS: [u64; 6] = [
        0,
        u64::MAX,
        0xDEAD_BEEF_CAFE_F00D,
        0x5555_5555_5555_5555,
        1,
        1 << 63,
    ];

    #[test]
    fn clean_roundtrip() {
        for data in PATTERNS {
            assert_eq!(
                Codeword::encode(data).decode(),
                DecodeOutcome::Clean { data }
            );
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let data = 0xDEAD_BEEF_CAFE_F00D;
        for pos in 0..CODEWORD_BITS {
            let mut cw = Codeword::encode(data);
            cw.flip(pos);
            match cw.decode() {
                DecodeOutcome::Corrected { data: d, position } => {
                    assert_eq!(d, data, "position {pos}");
                    assert_eq!(position, pos, "position {pos}");
                }
                other => panic!("position {pos}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_double_bit_error_is_detected() {
        let data = 0x0123_4567_89AB_CDEF;
        let base = Codeword::encode(data);
        for a in 0..CODEWORD_BITS {
            for b in (a + 1)..CODEWORD_BITS {
                let mut cw = base;
                cw.flip(a);
                cw.flip(b);
                assert_eq!(
                    cw.decode(),
                    DecodeOutcome::DetectedUncorrectable,
                    "flips at {a},{b}"
                );
            }
        }
    }

    #[test]
    fn triple_errors_can_miscorrect() {
        // Sweep a family of triples; at least one must alias to a bogus
        // "corrected" outcome with wrong data — the Fig. 12 mechanism.
        let data = 0xAAAA_5555_F0F0_0F0F;
        let base = Codeword::encode(data);
        let mut miscorrections = 0;
        let mut detections = 0;
        for a in (0..72).step_by(7) {
            for b in ((a + 1)..72).step_by(5) {
                for c in ((b + 1)..72).step_by(3) {
                    let mut cw = base;
                    cw.flip(a);
                    cw.flip(b);
                    cw.flip(c);
                    match cw.decode() {
                        DecodeOutcome::Corrected { data: d, .. } => {
                            // Triple error reported as corrected: data is
                            // silently wrong (or in freak cases right).
                            if d != data {
                                miscorrections += 1;
                            }
                        }
                        DecodeOutcome::DetectedUncorrectable => detections += 1,
                        DecodeOutcome::Clean { .. } => {
                            panic!("odd-weight error cannot look clean")
                        }
                    }
                }
            }
        }
        // Some triples alias to a bogus single-bit correction; others XOR to
        // a syndrome above 71 and are (correctly) flagged uncorrectable.
        assert!(miscorrections > 0, "no triple error mis-corrected");
        assert!(detections > 0, "no triple error flagged uncorrectable");
    }

    #[test]
    fn check_bit_positions_are_powers_of_two() {
        let positions: Vec<u32> = data_positions().collect();
        assert_eq!(positions.len(), 64);
        for p in &positions {
            assert!(!p.is_power_of_two());
        }
        // All positions 1..=71 are either data or one of the 7 check bits.
        assert_eq!(positions.len() + 7, 71);
    }

    #[test]
    fn raw_roundtrip() {
        let cw = Codeword::encode(99);
        let again = Codeword::from_raw(cw.raw());
        assert_eq!(cw, again);
    }

    #[test]
    fn codeword_never_uses_high_bits() {
        for data in PATTERNS {
            assert_eq!(Codeword::encode(data).raw() >> 72, 0);
        }
    }

    #[test]
    #[should_panic(expected = "codeword has bits")]
    fn flip_out_of_range_panics() {
        Codeword::encode(0).flip(72);
    }

    /// The position-loop syndrome the cover masks replaced.
    fn syndrome_by_loop(mask: u128) -> u32 {
        let mut s = 0u32;
        for pos in 1..=71u32 {
            if (mask >> pos) & 1 == 1 {
                s ^= pos;
            }
        }
        s
    }

    #[test]
    fn mask_syndrome_matches_position_loop() {
        for pos in 0..CODEWORD_BITS {
            assert_eq!(mask_syndrome(1u128 << pos), if pos == 0 { 0 } else { pos });
        }
        // Pseudo-random dense masks via a splitmix-ish walk.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(0xd129_2647_26ae_3800).rotate_left(21) ^ 0x5D;
            let mask = (u128::from(x) ^ (u128::from(x) << 57)) & ((1u128 << 72) - 1);
            assert_eq!(
                mask_syndrome(mask),
                syndrome_by_loop(mask),
                "mask {mask:#x}"
            );
        }
    }

    #[test]
    fn data_mask_is_exactly_the_data_positions() {
        let mut expected = 0u128;
        for pos in data_positions() {
            expected |= 1u128 << pos;
        }
        assert_eq!(DATA_MASK, expected);
        assert_eq!(DATA_MASK.count_ones(), DATA_BITS);
        // Check-bit and overall-parity positions are excluded.
        for k in 0..7 {
            assert_eq!(DATA_MASK >> (1u32 << k) & 1, 0);
        }
        assert_eq!(DATA_MASK & 1, 0);
    }

    #[test]
    fn cover_masks_are_disjoint_from_position_zero_and_tile_the_code() {
        let mut union = 0u128;
        for mask in COVER_MASKS {
            assert_eq!(mask & 1, 0, "position 0 is outside the Hamming code");
            union |= mask;
        }
        // Every position 1..=71 is in at least one parity group.
        assert_eq!(union, ((1u128 << 72) - 1) & !1);
    }
}
