//! The command-stream protocol linter: a side-effect-free mirror of the
//! [`pim_core::PimChannel`] mode machine (Section III-B, Fig. 3) that
//! walks a stream and reports protocol violations instead of simulating
//! them.
//!
//! The tracker reproduces the device's observable state exactly — mode,
//! armed transition, open rows — and classifies each command's effect so
//! the fence-race pass ([`crate::fence`]) can reuse the walk. Where the
//! device is *permissive* (it executes whatever arrives), the linter is
//! *strict*: sequences the device would silently ignore or that deviate
//! from the paper's published transition protocol get a diagnostic.

use crate::diag::{PvCode, Report, Site};
use crate::stream::{StreamEvent, StreamItem};
use pim_core::conf::{ABMR_ROW, CRF_ROW, GRF_ROW, PIM_CONF_FIRST_ROW, PIM_OP_MODE_ROW, SBMR_ROW};
use pim_core::PimMode;
use pim_dram::{BankAddr, Command, DataBlock};

/// An armed mode transition (the ACT half of an ACT+PRE pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// ACT on `ABMR` seen in SB mode; the matching PRE enters AB mode.
    ToAllBank(BankAddr),
    /// ACT on `SBMR` seen in an AB mode; the next PRE exits to SB mode.
    ToSingleBank,
}

/// What a command *does*, as classified by the tracker — the protocol
/// pass reports on these, and the fence pass replays them against a
/// shadow PIM unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// No data-visible effect (row management, ignored writes, ...).
    None,
    /// The device changed mode after this command.
    ModeChange {
        /// The mode now in force.
        to: PimMode,
    },
    /// A memory-mapped CRF write: 8 instruction words land at
    /// `(col % 4) * 8`.
    CrfLoad {
        /// The command's column address.
        col: u32,
        /// The 32-byte block carrying 8 little-endian instruction words.
        data: DataBlock,
    },
    /// An AB-PIM column command that triggers PIM execution.
    Trigger {
        /// `Some(block)` for a WR trigger (the `WDATA` operand), `None`
        /// for a RD trigger.
        write_data: Option<DataBlock>,
        /// The open row the trigger addresses.
        row: u32,
        /// The trigger's column (also the AAM index source).
        col: u32,
    },
    /// A host-visible read of a data row (SB mode, or lock-step plain-AB).
    DataRead {
        /// Open row.
        row: u32,
        /// Column.
        col: u32,
    },
    /// A host write of a data row outside AB-PIM mode.
    DataWrite {
        /// Open row.
        row: u32,
        /// Column.
        col: u32,
    },
    /// A host read of the memory-mapped GRF row (result readback).
    GrfRead {
        /// Column 0–7 → GRF_A, 8–15 → GRF_B.
        col: u32,
    },
}

/// The linter's replica of the device mode machine.
#[derive(Debug, Clone)]
pub struct ModeTracker {
    mode: PimMode,
    pending: Option<Pending>,
    /// Per-bank open row in SB mode (flat index, 16 banks).
    sb_open: [Option<u32>; 16],
    /// The all-bank open row in AB modes.
    ab_open: Option<u32>,
    /// Whether any CRF load has been observed (PV110).
    crf_loaded: bool,
}

impl Default for ModeTracker {
    fn default() -> ModeTracker {
        ModeTracker::new()
    }
}

impl ModeTracker {
    /// A tracker in the power-on state: SB mode, all banks closed.
    pub fn new() -> ModeTracker {
        ModeTracker {
            mode: PimMode::SingleBank,
            pending: None,
            sb_open: [None; 16],
            ab_open: None,
            crf_loaded: false,
        }
    }

    /// The mode after the commands applied so far.
    pub fn mode(&self) -> PimMode {
        self.mode
    }

    /// Reports a PV106 if a transition was armed, and disarms it.
    fn cancel_pending(&mut self, what: &str, site: &Site, report: &mut Report) {
        if let Some(p) = self.pending.take() {
            let dir = match p {
                Pending::ToAllBank(_) => "SB→AB",
                Pending::ToSingleBank => "AB→SB",
            };
            report.error(
                PvCode::Pv106TransitionCancelled,
                site.clone(),
                format!("{what} cancels the armed {dir} transition before its PRE"),
            );
        }
    }

    /// Applies one command: updates the mirrored state, appends any
    /// protocol diagnostics to `report`, and returns the command's
    /// classified [`Effect`].
    pub fn apply(&mut self, cmd: &Command, site: &Site, report: &mut Report) -> Effect {
        match self.mode {
            PimMode::SingleBank => self.apply_sb(cmd, site, report),
            PimMode::AllBank | PimMode::AllBankPim => self.apply_ab(cmd, site, report),
        }
    }

    fn apply_sb(&mut self, cmd: &Command, site: &Site, report: &mut Report) -> Effect {
        match cmd {
            Command::Act { bank, row } => {
                let b = bank.flat_index();
                if let Some(open) = self.sb_open[b] {
                    report.error(
                        PvCode::Pv102ActWhileOpen,
                        site.clone(),
                        format!("ACT {bank} row={row}: row {open} is already open"),
                    );
                }
                self.sb_open[b] = Some(*row);
                if *row == ABMR_ROW {
                    // Arming (or re-arming) the SB→AB transition.
                    self.pending = Some(Pending::ToAllBank(*bank));
                } else {
                    self.cancel_pending("ACT of a non-ABMR row", site, report);
                }
                Effect::None
            }
            Command::Pre { bank } => {
                let b = bank.flat_index();
                if self.pending == Some(Pending::ToAllBank(*bank)) {
                    self.pending = None;
                    self.sb_open[b] = None;
                    let still_open = self.sb_open.iter().filter(|r| r.is_some()).count();
                    if still_open > 0 {
                        report.error(
                            PvCode::Pv107EnterAbWithOpenBank,
                            site.clone(),
                            format!(
                                "entering AB mode with {still_open} bank row(s) still open \
                                 (the host must precharge all banks first)"
                            ),
                        );
                    }
                    self.mode = PimMode::AllBank;
                    self.sb_open = [None; 16];
                    self.ab_open = None;
                    return Effect::ModeChange { to: PimMode::AllBank };
                }
                if self.sb_open[b].is_none() {
                    report.error(
                        PvCode::Pv101NoOpenRow,
                        site.clone(),
                        format!("PRE {bank} with no open row"),
                    );
                }
                self.sb_open[b] = None;
                Effect::None
            }
            Command::PreAll => {
                // The device leaves an armed transition untouched on PREA.
                self.sb_open = [None; 16];
                Effect::None
            }
            Command::Rd { bank, col } => {
                self.cancel_pending("a column RD", site, report);
                let b = bank.flat_index();
                match self.sb_open[b] {
                    None => {
                        report.error(
                            PvCode::Pv101NoOpenRow,
                            site.clone(),
                            format!("RD {bank} col={col} with no open row"),
                        );
                        Effect::None
                    }
                    Some(row) if row == GRF_ROW => Effect::GrfRead { col: *col },
                    Some(row) if row >= PIM_CONF_FIRST_ROW => Effect::None,
                    Some(row) => Effect::DataRead { row, col: *col },
                }
            }
            Command::Wr { bank, col, data } => {
                self.cancel_pending("a column WR", site, report);
                let b = bank.flat_index();
                match self.sb_open[b] {
                    None => {
                        report.error(
                            PvCode::Pv101NoOpenRow,
                            site.clone(),
                            format!("WR {bank} col={col} with no open row"),
                        );
                        Effect::None
                    }
                    Some(PIM_OP_MODE_ROW) => {
                        report.error(
                            PvCode::Pv103PimOpModeOutsideAb,
                            site.clone(),
                            "PIM_OP_MODE write in SB mode is ignored by the device \
                             (AB-PIM must be entered from AB mode)"
                                .to_string(),
                        );
                        Effect::None
                    }
                    Some(CRF_ROW) => {
                        self.crf_loaded = true;
                        Effect::CrfLoad { col: *col, data: *data }
                    }
                    Some(row) if row >= PIM_CONF_FIRST_ROW => Effect::None,
                    Some(row) => Effect::DataWrite { row, col: *col },
                }
            }
            Command::Ref => {
                if self.sb_open.iter().any(Option::is_some) {
                    report.error(
                        PvCode::Pv109RefreshWithOpenRow,
                        site.clone(),
                        "REF issued while bank rows are open".to_string(),
                    );
                }
                Effect::None
            }
        }
    }

    fn apply_ab(&mut self, cmd: &Command, site: &Site, report: &mut Report) -> Effect {
        match cmd {
            Command::Act { row, .. } => {
                if let Some(open) = self.ab_open {
                    report.error(
                        PvCode::Pv102ActWhileOpen,
                        site.clone(),
                        format!("all-bank ACT row={row}: row {open} is already open"),
                    );
                }
                self.ab_open = Some(*row);
                if *row == SBMR_ROW {
                    self.pending = Some(Pending::ToSingleBank);
                } else {
                    self.cancel_pending("ACT of a non-SBMR row", site, report);
                }
                Effect::None
            }
            Command::Pre { .. } | Command::PreAll => {
                if self.ab_open.is_none() {
                    report.error(
                        PvCode::Pv101NoOpenRow,
                        site.clone(),
                        "all-bank PRE with no open row".to_string(),
                    );
                    return Effect::None;
                }
                self.ab_open = None;
                if self.pending == Some(Pending::ToSingleBank) {
                    self.pending = None;
                    if self.mode == PimMode::AllBankPim {
                        report.error(
                            PvCode::Pv108ExitFromAbPim,
                            site.clone(),
                            "exit to SB mode directly from AB-PIM: PIM_OP_MODE must be \
                             cleared first (Fig. 3 transitions through AB mode)"
                                .to_string(),
                        );
                    }
                    self.mode = PimMode::SingleBank;
                    self.sb_open = [None; 16];
                    return Effect::ModeChange { to: PimMode::SingleBank };
                }
                Effect::None
            }
            Command::Rd { col, .. } => {
                let Some(row) = self.ab_open else {
                    report.error(
                        PvCode::Pv101NoOpenRow,
                        site.clone(),
                        format!("all-bank RD col={col} with no open row"),
                    );
                    return Effect::None;
                };
                if row == GRF_ROW {
                    return Effect::GrfRead { col: *col };
                }
                if row >= PIM_CONF_FIRST_ROW {
                    return Effect::None;
                }
                match self.mode {
                    PimMode::AllBank => {
                        report.warn(
                            PvCode::Pv105DataAccessInPlainAb,
                            site.clone(),
                            format!(
                                "lock-step RD of data row {row} in plain AB mode \
                                 (the host observes bank (0,0) only)"
                            ),
                        );
                        Effect::DataRead { row, col: *col }
                    }
                    PimMode::AllBankPim => {
                        self.warn_unprogrammed(site, report);
                        Effect::Trigger { write_data: None, row, col: *col }
                    }
                    PimMode::SingleBank => unreachable!("apply_ab in SB mode"),
                }
            }
            Command::Wr { col, data, .. } => {
                let Some(row) = self.ab_open else {
                    report.error(
                        PvCode::Pv101NoOpenRow,
                        site.clone(),
                        format!("all-bank WR col={col} with no open row"),
                    );
                    return Effect::None;
                };
                if row == CRF_ROW {
                    if self.mode == PimMode::AllBankPim {
                        report.error(
                            PvCode::Pv104CrfLoadWhileArmed,
                            site.clone(),
                            "CRF load while PIM_OP_MODE is enabled: the running \
                             microkernel is being overwritten"
                                .to_string(),
                        );
                    }
                    self.crf_loaded = true;
                    return Effect::CrfLoad { col: *col, data: *data };
                }
                if row == PIM_OP_MODE_ROW {
                    let enable = data[0] & 1 == 1;
                    return match (self.mode, enable) {
                        (PimMode::AllBank, true) => {
                            self.mode = PimMode::AllBankPim;
                            Effect::ModeChange { to: PimMode::AllBankPim }
                        }
                        (PimMode::AllBankPim, false) => {
                            self.mode = PimMode::AllBank;
                            Effect::ModeChange { to: PimMode::AllBank }
                        }
                        _ => Effect::None,
                    };
                }
                if row >= PIM_CONF_FIRST_ROW {
                    return Effect::None;
                }
                match self.mode {
                    PimMode::AllBank => {
                        // Broadcast write — a documented operand-replication
                        // feature, so worth a note but not an error.
                        report.warn(
                            PvCode::Pv105DataAccessInPlainAb,
                            site.clone(),
                            format!("broadcast WR of data row {row} in plain AB mode"),
                        );
                        Effect::DataWrite { row, col: *col }
                    }
                    PimMode::AllBankPim => {
                        self.warn_unprogrammed(site, report);
                        Effect::Trigger { write_data: Some(*data), row, col: *col }
                    }
                    PimMode::SingleBank => unreachable!("apply_ab in SB mode"),
                }
            }
            Command::Ref => {
                if self.ab_open.is_some() {
                    report.error(
                        PvCode::Pv109RefreshWithOpenRow,
                        site.clone(),
                        "REF issued while the all-bank row is open".to_string(),
                    );
                }
                Effect::None
            }
        }
    }

    fn warn_unprogrammed(&mut self, site: &Site, report: &mut Report) {
        if !self.crf_loaded {
            report.warn(
                PvCode::Pv110TriggerWithoutProgram,
                site.clone(),
                "PIM trigger with no CRF program loaded in this stream".to_string(),
            );
            // One warning per stream is enough.
            self.crf_loaded = true;
        }
    }

    /// End-of-stream check: the host must hand the channel back in SB mode.
    pub fn finish(&self, report: &mut Report) {
        if self.mode != PimMode::SingleBank {
            report.warn(
                PvCode::Pv111EndsOutsideSb,
                Site::Whole,
                format!("stream ends in {:?} mode (expected SingleBank)", self.mode),
            );
        }
    }
}

/// Lints a command stream against the mode-transition protocol.
/// Fence markers are ignored by this pass (see [`crate::check_fences`]).
pub fn lint_stream(events: &[StreamEvent]) -> Report {
    let mut report = Report::new();
    let mut tracker = ModeTracker::new();
    for ev in events {
        if let StreamItem::Cmd(cmd) = &ev.item {
            if let Command::Act { row, .. } = cmd {
                if *row >= pim_dram::ROWS_PER_BANK {
                    report.error(
                        PvCode::Pv304RowOutOfBounds,
                        ev.site.clone(),
                        format!(
                            "ACT row {row:#x} is beyond the bank's {} rows",
                            pim_dram::ROWS_PER_BANK
                        ),
                    );
                }
            }
            tracker.apply(cmd, &ev.site, &mut report);
        }
    }
    tracker.finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamEvent;
    use pim_core::conf;

    fn ev(cmds: Vec<Command>) -> Vec<StreamEvent> {
        cmds.into_iter().enumerate().map(|(i, c)| StreamEvent::cmd(i, c)).collect()
    }

    fn bank() -> BankAddr {
        BankAddr::new(0, 0)
    }

    fn enable_block(on: bool) -> DataBlock {
        let mut d = [0u8; 32];
        d[0] = on as u8;
        d
    }

    /// The executor's canonical choreography must lint clean.
    #[test]
    fn canonical_choreography_is_clean() {
        let mut cmds = conf::enter_ab_sequence();
        // Program the CRF (one block of 8 instructions).
        cmds.push(Command::Act { bank: bank(), row: conf::CRF_ROW });
        cmds.push(Command::Wr { bank: bank(), col: 0, data: [0u8; 32] });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        // Data phase: open a row, trigger, close.
        cmds.push(Command::Act { bank: bank(), row: 7 });
        cmds.push(Command::Rd { bank: bank(), col: 0 });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::set_pim_op_mode_sequence(false));
        cmds.extend(conf::exit_ab_sequence());
        let r = lint_stream(&ev(cmds));
        assert!(r.is_clean(), "unexpected diagnostics:\n{r}");
    }

    #[test]
    fn out_of_bounds_act_row_is_pv304() {
        let r = lint_stream(&ev(vec![
            Command::Act { bank: bank(), row: pim_dram::ROWS_PER_BANK },
            Command::Pre { bank: bank() },
        ]));
        assert!(r.has_code(PvCode::Pv304RowOutOfBounds), "expected PV304:\n{r}");
        // The highest conf row (CRF) is still in bounds.
        let r = lint_stream(&ev(vec![
            Command::Act { bank: bank(), row: pim_dram::ROWS_PER_BANK - 1 },
            Command::Pre { bank: bank() },
        ]));
        assert!(!r.has_code(PvCode::Pv304RowOutOfBounds), "{r}");
    }

    #[test]
    fn column_without_act_is_pv101() {
        let r = lint_stream(&ev(vec![Command::Rd { bank: bank(), col: 0 }]));
        assert!(r.has_code(PvCode::Pv101NoOpenRow));
    }

    #[test]
    fn double_act_is_pv102() {
        let r = lint_stream(&ev(vec![
            Command::Act { bank: bank(), row: 1 },
            Command::Act { bank: bank(), row: 2 },
        ]));
        assert!(r.has_code(PvCode::Pv102ActWhileOpen));
    }

    #[test]
    fn sb_pim_op_mode_write_is_pv103() {
        let r = lint_stream(&ev(vec![
            Command::Act { bank: bank(), row: conf::PIM_OP_MODE_ROW },
            Command::Wr { bank: bank(), col: 0, data: enable_block(true) },
            Command::Pre { bank: bank() },
        ]));
        assert!(r.has_code(PvCode::Pv103PimOpModeOutsideAb));
    }

    #[test]
    fn crf_load_in_ab_pim_is_pv104() {
        let mut cmds = conf::enter_ab_sequence();
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        cmds.push(Command::Act { bank: bank(), row: conf::CRF_ROW });
        cmds.push(Command::Wr { bank: bank(), col: 0, data: [0u8; 32] });
        cmds.push(Command::Pre { bank: bank() });
        let r = lint_stream(&ev(cmds));
        assert!(r.has_code(PvCode::Pv104CrfLoadWhileArmed));
    }

    #[test]
    fn interrupted_transition_is_pv106() {
        let r = lint_stream(&ev(vec![
            Command::Act { bank: bank(), row: conf::ABMR_ROW },
            Command::Rd { bank: bank(), col: 0 },
            Command::Pre { bank: bank() },
        ]));
        assert!(r.has_code(PvCode::Pv106TransitionCancelled));
        // The cancelled transition means the stream stays in SB: no PV111.
        assert!(!r.has_code(PvCode::Pv111EndsOutsideSb));
    }

    #[test]
    fn entering_ab_with_open_bank_is_pv107() {
        let other = BankAddr::new(1, 0);
        let mut cmds = vec![Command::Act { bank: other, row: 5 }];
        cmds.extend(conf::enter_ab_sequence());
        cmds.extend(conf::exit_ab_sequence());
        let r = lint_stream(&ev(cmds));
        assert!(r.has_code(PvCode::Pv107EnterAbWithOpenBank));
    }

    #[test]
    fn exiting_from_ab_pim_is_pv108() {
        let mut cmds = conf::enter_ab_sequence();
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        cmds.extend(conf::exit_ab_sequence());
        let r = lint_stream(&ev(cmds));
        assert!(r.has_code(PvCode::Pv108ExitFromAbPim));
    }

    #[test]
    fn refresh_with_open_row_is_pv109() {
        let r = lint_stream(&ev(vec![Command::Act { bank: bank(), row: 1 }, Command::Ref]));
        assert!(r.has_code(PvCode::Pv109RefreshWithOpenRow));
    }

    #[test]
    fn trigger_without_program_is_pv110_once() {
        let mut cmds = conf::enter_ab_sequence();
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        cmds.push(Command::Act { bank: bank(), row: 3 });
        cmds.push(Command::Rd { bank: bank(), col: 0 });
        cmds.push(Command::Rd { bank: bank(), col: 1 });
        let r = lint_stream(&ev(cmds));
        assert_eq!(
            r.diagnostics.iter().filter(|d| d.code == PvCode::Pv110TriggerWithoutProgram).count(),
            1
        );
    }

    #[test]
    fn ending_in_ab_mode_is_pv111() {
        let r = lint_stream(&ev(conf::enter_ab_sequence()));
        assert!(r.has_code(PvCode::Pv111EndsOutsideSb));
    }

    #[test]
    fn plain_ab_data_write_is_pv105_warning_only() {
        let mut cmds = conf::enter_ab_sequence();
        cmds.push(Command::Act { bank: bank(), row: 9 });
        cmds.push(Command::Wr { bank: bank(), col: 0, data: [1u8; 32] });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::exit_ab_sequence());
        let r = lint_stream(&ev(cmds));
        assert!(r.has_code(PvCode::Pv105DataAccessInPlainAb));
        assert_eq!(r.error_count(), 0);
    }
}
