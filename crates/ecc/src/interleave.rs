//! Physical-to-logical bit interleaving.
//!
//! A neutron strike deposits charge in a physically contiguous patch of
//! silicon, so a multi-bit upset flips *physically adjacent* cells. Memory
//! designers interleave codewords so that adjacent physical cells belong to
//! different logical words: a physical 4-bit cluster then becomes four
//! single-bit errors in four words, each trivially handled by SECDED,
//! instead of one fatal 4-bit error in one word.
//!
//! The paper attributes the L3's higher uncorrectable rate to its *lack* of
//! interleaving (§4.3); the SoC model instantiates [`Interleaver`] with
//! degree 1 (identity) for the L3 and degree 4 for the smaller arrays.

/// A physical bit location inside an array row of `degree × word_bits`
/// physical cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalBit(pub u32);

/// A logical location: which of the `degree` words in the row, and which
/// bit within that word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogicalBit {
    /// Index of the logical word within the interleaved row (`0..degree`).
    pub word: u32,
    /// Bit index within the logical word (`0..word_bits`).
    pub bit: u32,
}

/// A `degree`-way bit interleaver over rows of `word_bits`-bit words.
///
/// Physical cell `p` belongs to logical word `p % degree`, at bit
/// `p / degree` — the standard column-mux arrangement. Degree 1 is the
/// identity (no interleaving).
///
/// ```
/// use serscale_ecc::interleave::{Interleaver, PhysicalBit};
///
/// let il = Interleaver::new(4, 72);
/// // Four physically adjacent cells land in four different words.
/// let words: Vec<u32> = (0..4)
///     .map(|p| il.to_logical(PhysicalBit(p)).word)
///     .collect();
/// assert_eq!(words, vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interleaver {
    degree: u32,
    word_bits: u32,
}

impl Interleaver {
    /// Creates an interleaver.
    ///
    /// # Panics
    ///
    /// Panics if `degree` or `word_bits` is zero.
    pub fn new(degree: u32, word_bits: u32) -> Self {
        assert!(degree > 0, "interleaving degree must be positive");
        assert!(word_bits > 0, "word width must be positive");
        Interleaver { degree, word_bits }
    }

    /// The identity interleaver (degree 1) — the modelled L3 configuration.
    pub fn none(word_bits: u32) -> Self {
        Self::new(1, word_bits)
    }

    /// The interleaving degree.
    pub const fn degree(&self) -> u32 {
        self.degree
    }

    /// Bits per logical word.
    pub const fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Physical cells per interleaved row.
    pub const fn row_bits(&self) -> u32 {
        self.degree * self.word_bits
    }

    /// Maps a physical cell to its logical word/bit.
    ///
    /// # Panics
    ///
    /// Panics if the physical index is outside the row.
    pub fn to_logical(&self, p: PhysicalBit) -> LogicalBit {
        assert!(
            p.0 < self.row_bits(),
            "physical bit {} outside row of {}",
            p.0,
            self.row_bits()
        );
        LogicalBit {
            word: p.0 % self.degree,
            bit: p.0 / self.degree,
        }
    }

    /// Maps a logical word/bit back to its physical cell.
    ///
    /// # Panics
    ///
    /// Panics if the logical coordinates are out of range.
    pub fn to_physical(&self, l: LogicalBit) -> PhysicalBit {
        assert!(
            l.word < self.degree,
            "word {} outside degree {}",
            l.word,
            self.degree
        );
        assert!(
            l.bit < self.word_bits,
            "bit {} outside word of {}",
            l.bit,
            self.word_bits
        );
        PhysicalBit(l.bit * self.degree + l.word)
    }

    /// Distributes a physically contiguous cluster starting at `start` of
    /// length `len` into per-word bit lists — the shape the decoder sees.
    ///
    /// Returns `(word, bits_within_word)` pairs for each affected word.
    pub fn spread_cluster(&self, start: PhysicalBit, len: u32) -> Vec<(u32, Vec<u32>)> {
        let mut per_word: Vec<(u32, Vec<u32>)> = Vec::new();
        for offset in 0..len {
            let p = PhysicalBit((start.0 + offset) % self.row_bits());
            let l = self.to_logical(p);
            match per_word.iter_mut().find(|(w, _)| *w == l.word) {
                Some((_, bits)) => bits.push(l.bit),
                None => per_word.push((l.word, vec![l.bit])),
            }
        }
        per_word
    }

    /// [`Self::spread_cluster`] in mask form, reusing the caller's buffer:
    /// each affected word gets an XOR-accumulated error mask instead of a
    /// bit list (a cell hit twice cancels, exactly as flipping a codeword
    /// bit twice does). This is the allocation-free primitive the hot path
    /// feeds to the word-batched classifiers.
    ///
    /// Word order matches `spread_cluster` (first-touch order), so the two
    /// forms describe identical strikes word for word.
    pub fn spread_cluster_masks(&self, start: PhysicalBit, len: u32, out: &mut Vec<(u32, u128)>) {
        out.clear();
        for offset in 0..len {
            let p = PhysicalBit((start.0 + offset) % self.row_bits());
            let l = self.to_logical(p);
            match out.iter_mut().find(|(w, _)| *w == l.word) {
                Some((_, mask)) => *mask ^= 1u128 << l.bit,
                None => out.push((l.word, 1u128 << l.bit)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bijective() {
        let il = Interleaver::new(4, 72);
        for p in 0..il.row_bits() {
            let l = il.to_logical(PhysicalBit(p));
            assert_eq!(il.to_physical(l), PhysicalBit(p));
        }
    }

    #[test]
    fn identity_interleaver() {
        let il = Interleaver::none(72);
        for p in 0..72 {
            let l = il.to_logical(PhysicalBit(p));
            assert_eq!(l.word, 0);
            assert_eq!(l.bit, p);
        }
    }

    #[test]
    fn adjacent_cells_map_to_distinct_words() {
        let il = Interleaver::new(4, 72);
        for base in [0u32, 40, 100] {
            let words: Vec<u32> = (0..4)
                .map(|i| il.to_logical(PhysicalBit(base + i)).word)
                .collect();
            let mut sorted = words.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                4,
                "cluster at {base} not fully spread: {words:?}"
            );
        }
    }

    #[test]
    fn cluster_of_degree_size_gives_single_bit_per_word() {
        let il = Interleaver::new(4, 72);
        let spread = il.spread_cluster(PhysicalBit(10), 4);
        assert_eq!(spread.len(), 4);
        for (_, bits) in &spread {
            assert_eq!(bits.len(), 1);
        }
    }

    #[test]
    fn cluster_without_interleaving_hits_one_word() {
        let il = Interleaver::none(72);
        let spread = il.spread_cluster(PhysicalBit(5), 3);
        assert_eq!(spread.len(), 1);
        assert_eq!(spread[0].0, 0);
        assert_eq!(spread[0].1, vec![5, 6, 7]);
    }

    #[test]
    fn oversized_cluster_wraps_and_doubles_up() {
        let il = Interleaver::new(2, 8); // 16-cell row
        let spread = il.spread_cluster(PhysicalBit(0), 6);
        // 6 cells over 2 words → 3 bits per word.
        assert_eq!(spread.len(), 2);
        for (_, bits) in &spread {
            assert_eq!(bits.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "outside row")]
    fn out_of_row_physical_panics() {
        Interleaver::new(2, 8).to_logical(PhysicalBit(16));
    }

    #[test]
    fn mask_spread_agrees_with_list_spread() {
        for il in [Interleaver::new(4, 72), Interleaver::none(72)] {
            let mut masks = Vec::new();
            for start in 0..il.row_bits() {
                for len in 1..=9 {
                    let lists = il.spread_cluster(PhysicalBit(start), len);
                    il.spread_cluster_masks(PhysicalBit(start), len, &mut masks);
                    assert_eq!(lists.len(), masks.len(), "start {start} len {len}");
                    for ((lw, bits), &(mw, mask)) in lists.iter().zip(&masks) {
                        assert_eq!(*lw, mw, "word order start {start} len {len}");
                        let xored = bits.iter().fold(0u128, |m, &b| m ^ (1u128 << b));
                        assert_eq!(xored, mask, "start {start} len {len} word {mw}");
                    }
                }
            }
        }
    }

    #[test]
    fn mask_spread_cancels_wraparound_double_hits() {
        let il = Interleaver::new(2, 8); // 16-cell row
        let mut masks = Vec::new();
        // A full wrap hits every cell twice: all masks cancel to zero.
        il.spread_cluster_masks(PhysicalBit(3), 32, &mut masks);
        assert_eq!(masks.len(), 2);
        for &(_, mask) in &masks {
            assert_eq!(mask, 0);
        }
    }
}
