//! DRAM commands and addresses.
//!
//! The PIM architecture is controlled entirely through these standard
//! commands — that is its central practicality claim (Section III): "it is
//! architected for host processors to control PIM operations through
//! standard DRAM interfaces". There is deliberately no `PimExec` command in
//! this enum; PIM execution is a *side effect* of `Rd`/`Wr` while the device
//! is in AB-PIM mode.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Size in bytes of one column access: 256 bits over 4 64-bit bursts on a
/// pseudo channel (Section II-B).
pub const DATA_BLOCK_BYTES: usize = 32;

/// The 32-byte data block transferred by one column command — 16 FP16 lanes.
pub type DataBlock = [u8; DATA_BLOCK_BYTES];

/// A WR's data block behind one pointer, so that a WR is 16 bytes like any
/// other command and still carries its own block wherever a list is copied
/// or flattened. An all-zero block — every input write a kernel builder
/// emits before a launch patches it — owns no allocation.
///
/// ```
/// use pim_dram::Payload;
/// let mut p = Payload::from([0; 32]);
/// assert_eq!(*p, [0; 32]);
/// p[3] = 7;
/// assert_eq!(p, Payload::from(*p));
/// ```
#[derive(Debug, Clone)]
pub struct Payload(Option<Box<DataBlock>>);

impl From<DataBlock> for Payload {
    fn from(block: DataBlock) -> Payload {
        Payload((block != [0; DATA_BLOCK_BYTES]).then(|| Box::new(block)))
    }
}

impl Deref for Payload {
    type Target = DataBlock;

    fn deref(&self) -> &DataBlock {
        self.0.as_deref().unwrap_or(&[0; DATA_BLOCK_BYTES])
    }
}

impl DerefMut for Payload {
    fn deref_mut(&mut self) -> &mut DataBlock {
        self.0.get_or_insert_default()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

/// Bank coordinates within a pseudo channel.
///
/// ```
/// use pim_dram::BankAddr;
/// let b = BankAddr::new(2, 3);
/// assert_eq!(b.flat_index(), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankAddr {
    /// Bank group index (0..4).
    pub bg: u8,
    /// Bank index within the group (0..4).
    pub ba: u8,
}

impl BankAddr {
    /// Creates a bank address.
    ///
    /// # Panics
    ///
    /// Panics if `bg` or `ba` is out of range (0..4 each).
    pub fn new(bg: u8, ba: u8) -> BankAddr {
        assert!(bg < crate::BANK_GROUPS as u8, "bank group {bg} out of range");
        assert!(ba < crate::BANKS_PER_GROUP as u8, "bank {ba} out of range");
        BankAddr { bg, ba }
    }

    /// Flat bank index in `0..16`: `bg * 4 + ba`.
    pub fn flat_index(self) -> usize {
        self.bg as usize * crate::BANKS_PER_GROUP + self.ba as usize
    }

    /// Inverse of [`BankAddr::flat_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn from_flat_index(index: usize) -> BankAddr {
        assert!(index < crate::BANKS_PER_PCH, "bank index {index} out of range");
        BankAddr {
            bg: (index / crate::BANKS_PER_GROUP) as u8,
            ba: (index % crate::BANKS_PER_GROUP) as u8,
        }
    }

    /// All 16 bank addresses of a pseudo channel, in flat-index order.
    pub fn all() -> impl Iterator<Item = BankAddr> {
        (0..crate::BANKS_PER_PCH).map(BankAddr::from_flat_index)
    }
}

impl fmt::Display for BankAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BG{}/BA{}", self.bg, self.ba)
    }
}

/// A standard DRAM command as sent over a pseudo channel's CA bus.
///
/// `Rd`/`Wr` column addresses select one [`DATA_BLOCK_BYTES`]-sized block in
/// the open row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Activate (open) `row` in the addressed bank.
    Act {
        /// Target bank.
        bank: BankAddr,
        /// Row to open.
        row: u32,
    },
    /// Precharge (close) the addressed bank.
    Pre {
        /// Target bank.
        bank: BankAddr,
    },
    /// Precharge all banks in the pseudo channel.
    PreAll,
    /// Column read of the 32-byte block at `col` in the open row.
    Rd {
        /// Target bank.
        bank: BankAddr,
        /// Column (32-byte block index within the row).
        col: u32,
    },
    /// Column write of the 32-byte block at `col` in the open row. The
    /// block is a [`Payload`], boxed so that a command is an address.
    Wr {
        /// Target bank.
        bank: BankAddr,
        /// Column (32-byte block index within the row).
        col: u32,
        /// Data to write.
        data: Payload,
    },
    /// All-bank refresh. All banks must be precharged.
    Ref,
}

impl Command {
    /// The bank this command targets, if it is bank-scoped.
    pub fn bank(&self) -> Option<BankAddr> {
        match self {
            Command::Act { bank, .. }
            | Command::Pre { bank }
            | Command::Rd { bank, .. }
            | Command::Wr { bank, .. } => Some(*bank),
            Command::PreAll | Command::Ref => None,
        }
    }

    /// `true` for column (`Rd`/`Wr`) commands — the commands that trigger
    /// PIM instruction execution in AB-PIM mode (Section III-A).
    pub fn is_column(&self) -> bool {
        matches!(self, Command::Rd { .. } | Command::Wr { .. })
    }

    /// Short mnemonic for traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Command::Act { .. } => "ACT",
            Command::Pre { .. } => "PRE",
            Command::PreAll => "PREA",
            Command::Rd { .. } => "RD",
            Command::Wr { .. } => "WR",
            Command::Ref => "REF",
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Act { bank, row } => write!(f, "ACT {bank} row={row}"),
            Command::Pre { bank } => write!(f, "PRE {bank}"),
            Command::PreAll => write!(f, "PREA"),
            Command::Rd { bank, col } => write!(f, "RD {bank} col={col}"),
            Command::Wr { bank, col, .. } => write!(f, "WR {bank} col={col}"),
            Command::Ref => write!(f, "REF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_addr_flat_roundtrip() {
        for i in 0..16 {
            assert_eq!(BankAddr::from_flat_index(i).flat_index(), i);
        }
        assert_eq!(BankAddr::all().count(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_addr_rejects_bad_group() {
        BankAddr::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_addr_rejects_bad_bank() {
        BankAddr::new(0, 4);
    }

    #[test]
    fn command_classification() {
        let b = BankAddr::new(0, 0);
        assert!(Command::Rd { bank: b, col: 0 }.is_column());
        assert!(Command::Wr { bank: b, col: 0, data: [0; 32].into() }.is_column());
        assert!(!Command::Act { bank: b, row: 0 }.is_column());
        assert_eq!(Command::Ref.bank(), None);
        assert_eq!(Command::Pre { bank: b }.bank(), Some(b));
        assert_eq!(Command::PreAll.mnemonic(), "PREA");
    }

    #[test]
    fn display_is_informative() {
        let b = BankAddr::new(1, 2);
        let s = format!("{}", Command::Act { bank: b, row: 7 });
        assert!(s.contains("BG1/BA2") && s.contains("row=7"));
    }
}
