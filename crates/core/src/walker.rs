//! The timing-free mode-machine walker: the SB → AB → AB-PIM protocol of
//! Section III-B (Fig. 3) with everything but the protocol removed.
//!
//! [`PimChannel`](crate::PimChannel) owns the protocol on the issue path,
//! interleaved with timing, stats and fault hooks. Every consumer that
//! needs to know what a *recorded* command stream does without issuing it
//! — the launch-replay data walk, the launch key and its static proof —
//! steps a [`ModeWalker`] instead of tracking modes and open rows itself.
//! `tests/device_equivalence.rs` holds the walker to the device on
//! generated streams, command by command.

use crate::device::{PimMode, ABMR_ROW, PIM_CONF_FIRST_ROW, PIM_OP_MODE_ROW, SBMR_ROW};
use pim_dram::{BankAddr, Command, BANKS_PER_PCH};

/// An armed mode transition: an ACT to `ABMR`/`SBMR` awaiting its PRE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingTransition {
    ToAllBank(BankAddr),
    ToSingleBank,
}

/// What one command does to a fault-free channel beyond moving the mode
/// machine, as classified by [`ModeWalker::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// No storage or register effect: ACT/PRE/PREA/REF, every single-bank
    /// read, and all-bank reads that trigger nothing.
    RowManagement,
    /// Single-bank write to data row `row` of the command's bank.
    SbWrite {
        /// The bank's open row.
        row: u32,
    },
    /// Write to a `PIM_CONF` register row. `unit` is the one unit a
    /// single-bank write addresses (the block is stored in the bank array
    /// as well) or `None` for an all-bank broadcast to every unit.
    /// Single-bank writes to `PIM_OP_MODE` land here too: the device
    /// ignores them.
    ConfWrite {
        /// The open configuration row.
        row: u32,
        /// The addressed unit, or `None` for all.
        unit: Option<usize>,
    },
    /// All-bank write to `PIM_OP_MODE`.
    PimOpMode {
        /// Bit 0 of the payload.
        enable: bool,
        /// Whether the write changed the mode (writing the current value
        /// again does not, and does not reset the sequencers).
        toggled: bool,
    },
    /// Plain all-bank write: the block lands at `row` of every bank.
    AbWrite {
        /// The all-bank open row.
        row: u32,
    },
    /// AB-PIM column command on data row `row`: one instruction per unit.
    Trigger {
        /// The all-bank open row.
        row: u32,
    },
    /// A write whose bank has no open row — illegal on the device.
    UnresolvedWrite,
}

/// Tracks mode, armed transition and open rows over a command stream.
#[derive(Debug, Clone, Default)]
pub struct ModeWalker {
    mode: PimMode,
    pending: Option<PendingTransition>,
    ab_open: Option<u32>,
    sb_open: [Option<u32>; BANKS_PER_PCH],
}

impl ModeWalker {
    /// A walker in the launch entry state: single-bank mode, nothing
    /// armed, every bank precharged.
    pub fn new() -> ModeWalker {
        ModeWalker::default()
    }

    /// The mode after the commands stepped so far.
    pub fn mode(&self) -> PimMode {
        self.mode
    }

    /// The row a column command to `bank` would address.
    pub fn open_row(&self, bank: BankAddr) -> Option<u32> {
        match self.mode {
            PimMode::SingleBank => self.sb_open[bank.flat_index()],
            _ => self.ab_open,
        }
    }

    /// Advances over `cmd` and classifies its effect.
    #[inline]
    pub fn step(&mut self, cmd: &Command) -> Step {
        if self.mode == PimMode::SingleBank {
            self.step_sb(cmd)
        } else {
            self.step_ab(cmd)
        }
    }

    #[inline]
    fn step_sb(&mut self, cmd: &Command) -> Step {
        match *cmd {
            Command::Act { bank, row } => {
                self.sb_open[bank.flat_index()] = Some(row);
                self.pending = (row == ABMR_ROW).then_some(PendingTransition::ToAllBank(bank));
            }
            Command::Pre { bank } => {
                self.sb_open[bank.flat_index()] = None;
                if self.pending == Some(PendingTransition::ToAllBank(bank)) {
                    self.pending = None;
                    self.mode = PimMode::AllBank;
                    self.ab_open = None;
                }
            }
            Command::PreAll => self.sb_open = [None; BANKS_PER_PCH],
            // Any column command disarms a pending all-bank entry.
            Command::Rd { .. } => self.pending = None,
            Command::Wr { bank, .. } => {
                self.pending = None;
                return match self.sb_open[bank.flat_index()] {
                    None => Step::UnresolvedWrite,
                    Some(row) if row >= PIM_CONF_FIRST_ROW => {
                        Step::ConfWrite { row, unit: Some(bank.flat_index() / 2) }
                    }
                    Some(row) => Step::SbWrite { row },
                };
            }
            Command::Ref => {}
        }
        Step::RowManagement
    }

    #[inline]
    fn step_ab(&mut self, cmd: &Command) -> Step {
        match *cmd {
            Command::Act { row, .. } => {
                self.ab_open = Some(row);
                self.pending = (row == SBMR_ROW).then_some(PendingTransition::ToSingleBank);
            }
            Command::Pre { .. } | Command::PreAll => {
                self.ab_open = None;
                if self.pending == Some(PendingTransition::ToSingleBank) {
                    self.pending = None;
                    self.mode = PimMode::SingleBank;
                    self.sb_open = [None; BANKS_PER_PCH];
                }
            }
            Command::Rd { .. } => {
                if let (PimMode::AllBankPim, Some(row)) = (self.mode, self.ab_open) {
                    if row < PIM_CONF_FIRST_ROW {
                        return Step::Trigger { row };
                    }
                }
            }
            Command::Wr { ref data, .. } => {
                return match self.ab_open {
                    None => Step::UnresolvedWrite,
                    Some(PIM_OP_MODE_ROW) => {
                        let enable = data[0] & 1 == 1;
                        let next = if enable { PimMode::AllBankPim } else { PimMode::AllBank };
                        let toggled = self.mode != next;
                        self.mode = next;
                        Step::PimOpMode { enable, toggled }
                    }
                    Some(row) if row >= PIM_CONF_FIRST_ROW => Step::ConfWrite { row, unit: None },
                    Some(row) if self.mode == PimMode::AllBankPim => Step::Trigger { row },
                    Some(row) => Step::AbWrite { row },
                };
            }
            Command::Ref => {}
        }
        Step::RowManagement
    }
}
