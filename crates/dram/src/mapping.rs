//! Physical address mapping (paper Fig. 15(a)).
//!
//! The host's physical addresses are scattered ("interleaved or scrambled",
//! Section IX) across pseudo channels, bank groups, banks, rows and columns.
//! The PIM software stack must know this mapping to place operands so that
//! all banks see the right data in AB mode — that is the job of the PIM-BLAS
//! data-layout rearrangement (Fig. 15(b)). This module is the single source
//! of truth for the mapping.
//!
//! The default layout, low bits to high bits, is
//!
//! ```text
//! | row | ba (2) | bg (2) | col_hi (2) | pch (p) | col_lo (3) | offset (5) |
//! ```
//!
//! * `offset` — 5 bits: a byte within the 32-byte column block;
//! * `col_lo` — 3 bits: 8 consecutive column blocks = 256 B contiguous per
//!   pseudo channel, matching the programming model's "8 accesses × 32 bytes
//!   per access" per thread group (Fig. 8);
//! * `pch` — channel interleaving at 256 B granularity;
//! * `col_hi` — the remaining 2 column bits (32 columns per 1 KiB row);
//! * `bg`/`ba` — bank bits above the column bits, so a contiguous stream
//!   sweeps bank groups before reopening rows;
//! * `row` — the top bits.

use crate::bank::{COLS_PER_ROW, ROWS_PER_BANK};
use crate::command::BankAddr;

/// A physical address decomposed into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Pseudo channel index.
    pub pch: usize,
    /// Bank coordinates within the pseudo channel.
    pub bank: BankAddr,
    /// Row index.
    pub row: u32,
    /// Column (32-byte block) index within the row.
    pub col: u32,
    /// Byte offset within the 32-byte block.
    pub offset: u32,
}

/// The physical-address ↔ DRAM-coordinate mapping of the system.
///
/// # Example
///
/// ```
/// use pim_dram::AddressMapping;
/// let m = AddressMapping::new(16);
/// let d = m.decode(0x1234);
/// assert_eq!(m.encode(&d), 0x1234);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapping {
    pch_count: usize,
    pch_bits: u32,
}

impl AddressMapping {
    /// Creates a mapping over `pch_count` pseudo channels.
    ///
    /// # Panics
    ///
    /// Panics if `pch_count` is not a power of two or is zero.
    pub fn new(pch_count: usize) -> AddressMapping {
        assert!(pch_count.is_power_of_two() && pch_count > 0, "pch count must be a power of two");
        AddressMapping { pch_count, pch_bits: pch_count.trailing_zeros() }
    }

    /// Number of pseudo channels covered.
    pub fn pch_count(&self) -> usize {
        self.pch_count
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.pch_count as u64
            * crate::BANKS_PER_PCH as u64
            * ROWS_PER_BANK as u64
            * crate::bank::ROW_BYTES as u64
    }

    /// Decodes a physical address.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds [`AddressMapping::capacity_bytes`].
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        assert!(addr < self.capacity_bytes(), "address 0x{addr:X} beyond capacity");
        let mut a = addr;
        let offset = (a & 0x1F) as u32;
        a >>= 5;
        let col_lo = (a & 0x7) as u32;
        a >>= 3;
        let pch = (a & ((1 << self.pch_bits) - 1)) as usize;
        a >>= self.pch_bits;
        let col_hi = (a & 0x3) as u32;
        a >>= 2;
        let bg = (a & 0x3) as u8;
        a >>= 2;
        let ba = (a & 0x3) as u8;
        a >>= 2;
        let row = a as u32;
        debug_assert!(row < ROWS_PER_BANK);
        let col = (col_hi << 3) | col_lo;
        debug_assert!(col < COLS_PER_ROW);
        DecodedAddr { pch, bank: BankAddr::new(bg, ba), row, col, offset }
    }

    /// Encodes DRAM coordinates back into a physical address
    /// (inverse of [`AddressMapping::decode`]).
    pub fn encode(&self, d: &DecodedAddr) -> u64 {
        let col_lo = (d.col & 0x7) as u64;
        let col_hi = ((d.col >> 3) & 0x3) as u64;
        let mut a = d.row as u64;
        a = (a << 2) | d.bank.ba as u64;
        a = (a << 2) | d.bank.bg as u64;
        a = (a << 2) | col_hi;
        a = (a << self.pch_bits) | d.pch as u64;
        a = (a << 3) | col_lo;
        (a << 5) | d.offset as u64
    }

    /// The physical address of the 32-byte block at the given coordinates
    /// (offset 0).
    pub fn block_addr(&self, pch: usize, bank: BankAddr, row: u32, col: u32) -> u64 {
        self.encode(&DecodedAddr { pch, bank, row, col, offset: 0 })
    }
}

impl Default for AddressMapping {
    fn default() -> AddressMapping {
        AddressMapping::new(crate::PCH_PER_STACK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_encode_roundtrip() {
        let m = AddressMapping::new(16);
        for addr in [0u64, 31, 32, 255, 256, 4096, 0xDEAD00, m.capacity_bytes() - 1] {
            assert_eq!(m.encode(&m.decode(addr)), addr, "addr 0x{addr:X}");
        }
    }

    #[test]
    fn contiguous_256b_stays_in_one_channel() {
        // The programming model sends 8 × 32 B from one thread group to one
        // channel (Fig. 8); the mapping must keep those in one pCH.
        let m = AddressMapping::new(16);
        let base = 0x4000u64;
        let pch = m.decode(base).pch;
        for off in (0..256).step_by(32) {
            assert_eq!(m.decode(base + off).pch, pch);
        }
        // The next 256 B block goes to the next channel.
        assert_ne!(m.decode(base + 256).pch, pch);
    }

    #[test]
    fn consecutive_256b_blocks_sweep_all_channels() {
        let m = AddressMapping::new(16);
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            seen.insert(m.decode(i * 256).pch);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn bank_bits_above_column_bits() {
        // Walking one channel's contiguous space sweeps all 32 columns of a
        // row in one bank-group... then moves to the next bank group.
        let m = AddressMapping::new(16);
        let d0 = m.decode(0);
        assert_eq!((d0.bank, d0.row, d0.col), (BankAddr::new(0, 0), 0, 0));
        // Same channel, next column-hi block: +16 channels' worth of 256 B.
        let d1 = m.decode(256 * 16);
        assert_eq!(d1.pch, 0);
        assert_eq!(d1.col, 8);
        assert_eq!(d1.bank, BankAddr::new(0, 0));
        // After 4 col_hi steps the bg increments.
        let d2 = m.decode(256 * 16 * 4);
        assert_eq!(d2.bank, BankAddr::new(1, 0));
        assert_eq!(d2.col, 0);
    }

    #[test]
    fn capacity_is_512mib_per_stack_of_4gb_dies() {
        // 16 pCH × 16 banks × 8192 rows × 1 KiB = 2 GiB per stack of four
        // 4 Gb PIM dies (the paper's PIM-HBM half of the 6 GB cube).
        let m = AddressMapping::new(16);
        assert_eq!(m.capacity_bytes(), 2 * 1024 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_range_address_panics() {
        let m = AddressMapping::new(16);
        m.decode(m.capacity_bytes());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        AddressMapping::new(3);
    }
}
