//! Memory-capacity newtypes.
//!
//! Cache sizes in the modelled platform span 32 KB (L1) to 8 MB (L3); SER is
//! reported per Mbit (Table 2); per-bit cross-sections are per bit. [`Bits`]
//! and [`Bytes`] keep those scales straight.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A memory capacity in bits.
///
/// ```
/// use serscale_types::{Bits, Bytes};
///
/// let l3 = Bytes::mib(8).as_bits();
/// assert_eq!(l3, Bits::new(8 * 1024 * 1024 * 8));
/// assert!((l3.as_mbit() - 67.108864).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(u64);

impl Bits {
    /// The zero capacity.
    pub const ZERO: Bits = Bits(0);

    /// Creates a capacity from a raw bit count.
    pub const fn new(bits: u64) -> Self {
        Bits(bits)
    }

    /// Returns the raw bit count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the capacity in megabits (10⁶ bits, the SI-style "Mbit" used
    /// by FIT/Mbit SER figures).
    pub fn as_mbit(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Returns the capacity as a floating-point bit count, for
    /// cross-section arithmetic (`σ_array = bits × σ_bit`).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Bits {
    type Output = Bits;
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        iter.fold(Bits::ZERO, Add::add)
    }
}

impl From<Bytes> for Bits {
    fn from(b: Bytes) -> Bits {
        b.as_bits()
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

/// A memory capacity in bytes, with binary-prefix constructors matching how
/// cache sizes are quoted (32 KB, 256 KB, 8 MB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Creates a capacity from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a capacity of `n` KiB.
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a capacity of `n` MiB.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Returns the raw byte count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts to a bit count.
    pub const fn as_bits(self) -> Bits {
        Bits(self.0 * 8)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::new(0), Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{} MiB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{} KiB", self.0 / 1024)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A convenience pairing of a human-readable size with its bit capacity,
/// used by platform spec tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemSize {
    bytes: Bytes,
}

impl MemSize {
    /// Creates a size from bytes.
    pub const fn from_bytes(bytes: Bytes) -> Self {
        MemSize { bytes }
    }

    /// The size in bytes.
    pub const fn bytes(self) -> Bytes {
        self.bytes
    }

    /// The size in bits.
    pub const fn bits(self) -> Bits {
        self.bytes.as_bits()
    }
}

impl From<Bytes> for MemSize {
    fn from(bytes: Bytes) -> Self {
        MemSize { bytes }
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_prefixes() {
        assert_eq!(Bytes::kib(32).get(), 32768);
        assert_eq!(Bytes::mib(8).get(), 8 * 1024 * 1024);
    }

    #[test]
    fn bytes_to_bits() {
        assert_eq!(Bytes::kib(1).as_bits(), Bits::new(8192));
        let b: Bits = Bytes::new(3).into();
        assert_eq!(b, Bits::new(24));
    }

    #[test]
    fn mbit_is_decimal() {
        // "FIT per Mbit" in SER literature uses 10^6 bits.
        assert!((Bits::new(1_000_000).as_mbit() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xgene2_total_sram_is_about_10_mb() {
        // 8×(32+32) KB L1 + 4×256 KB L2 + 8 MB L3 ≈ 9.5 MiB: the paper's
        // "assuming 10 MB of on-chip SRAM" in §3.3.
        let total: Bytes = [
            Bytes::kib(32 * 8),
            Bytes::kib(32 * 8),
            Bytes::kib(256 * 4),
            Bytes::mib(8),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, Bytes::kib(512 + 1024 + 8192));
        let mbit = total.as_bits().as_mbit();
        assert!(mbit > 70.0 && mbit < 90.0, "mbit = {mbit}");
    }

    #[test]
    fn display_units() {
        assert_eq!(Bytes::kib(256).to_string(), "256 KiB");
        assert_eq!(Bytes::mib(8).to_string(), "8 MiB");
        assert_eq!(Bytes::new(100).to_string(), "100 B");
        assert_eq!(MemSize::from_bytes(Bytes::kib(32)).to_string(), "32 KiB");
    }

    #[test]
    fn bits_sum() {
        let total: Bits = [Bits::new(8), Bits::new(16)].into_iter().sum();
        assert_eq!(total.get(), 24);
    }
}
