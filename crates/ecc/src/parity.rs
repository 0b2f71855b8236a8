//! Single even-parity protection, as used by the modelled L1 caches and
//! TLBs.
//!
//! Parity detects any *odd* number of flipped bits in an entry and detects
//! nothing about even-weight errors. The protected arrays are write-through,
//! so detection is sufficient for recovery: the entry is invalidated and
//! refilled from the next level (§3.1 of the paper), which is why L1/TLB
//! single-bit upsets never reach software.

/// The even-parity bit of a 64-bit data word.
///
/// ```
/// use serscale_ecc::parity::parity_bit;
///
/// assert!(!parity_bit(0)); // zero ones → even → parity 0
/// assert!(parity_bit(0b1)); // one one → odd → parity 1
/// assert!(!parity_bit(0b11));
/// ```
pub fn parity_bit(data: u64) -> bool {
    data.count_ones() % 2 == 1
}

/// A parity-protected 64-bit entry: the data word plus its stored parity
/// bit, both of which radiation can flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParityWord {
    data: u64,
    parity: bool,
}

/// The result of checking a parity-protected entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParityCheck {
    /// Stored parity matches the data: either no error, or an undetectable
    /// even-weight error.
    Clean {
        /// The data word as stored.
        data: u64,
    },
    /// Parity mismatch: an odd-weight error is present somewhere in the
    /// entry (data or the parity bit itself). The entry must be invalidated
    /// and refilled.
    Mismatch,
}

impl ParityWord {
    /// Encodes a data word with its even-parity bit.
    pub fn encode(data: u64) -> Self {
        ParityWord {
            data,
            parity: parity_bit(data),
        }
    }

    /// The stored (possibly corrupted) data word.
    pub const fn raw_data(&self) -> u64 {
        self.data
    }

    /// The stored (possibly corrupted) parity bit.
    pub const fn raw_parity(&self) -> bool {
        self.parity
    }

    /// Flips one bit of the entry. Bits `0..=63` address the data word;
    /// bit `64` addresses the parity bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 64`.
    pub fn flip(&mut self, bit: u32) {
        match bit {
            0..=63 => self.data ^= 1u64 << bit,
            64 => self.parity = !self.parity,
            _ => panic!("parity entry has 65 bits (0..=64), got {bit}"),
        }
    }

    /// The number of bit positions in the entry (64 data + 1 parity).
    pub const fn width() -> u32 {
        65
    }

    /// Checks the entry against its stored parity.
    pub fn check(&self) -> ParityCheck {
        if parity_bit(self.data) == self.parity {
            ParityCheck::Clean { data: self.data }
        } else {
            ParityCheck::Mismatch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_word_checks_clean() {
        for data in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(
                ParityWord::encode(data).check(),
                ParityCheck::Clean { data }
            );
        }
    }

    #[test]
    fn single_flip_detected_anywhere() {
        let data = 0x0123_4567_89AB_CDEF;
        for bit in 0..=64 {
            let mut w = ParityWord::encode(data);
            w.flip(bit);
            assert_eq!(w.check(), ParityCheck::Mismatch, "bit {bit}");
        }
    }

    #[test]
    fn double_flip_in_data_is_silent() {
        let mut w = ParityWord::encode(0xFFFF_0000_FFFF_0000);
        w.flip(3);
        w.flip(57);
        // Undetectable — parity still matches, but the data is wrong.
        match w.check() {
            ParityCheck::Clean { data } => assert_ne!(data, 0xFFFF_0000_FFFF_0000),
            ParityCheck::Mismatch => panic!("even-weight error must be silent"),
        }
    }

    #[test]
    fn data_plus_parity_flip_is_silent() {
        let mut w = ParityWord::encode(42);
        w.flip(0);
        w.flip(64);
        assert!(matches!(w.check(), ParityCheck::Clean { .. }));
    }

    #[test]
    fn triple_flip_detected() {
        let mut w = ParityWord::encode(42);
        w.flip(1);
        w.flip(2);
        w.flip(3);
        assert_eq!(w.check(), ParityCheck::Mismatch);
    }

    #[test]
    fn flip_is_involution() {
        let original = ParityWord::encode(7);
        let mut w = original;
        w.flip(12);
        w.flip(12);
        assert_eq!(w, original);
    }

    #[test]
    #[should_panic(expected = "65 bits")]
    fn flip_out_of_range_panics() {
        ParityWord::encode(0).flip(65);
    }
}
