//! The command-stream protocol linter: [`pim_core::ModeWalker`] — the
//! SB / AB / AB-PIM mode machine of Section III-B (Fig. 3) that
//! `tests/device_equivalence.rs` holds to the device command by command —
//! plus diagnostics. It walks a stream and reports protocol violations
//! instead of simulating them, reading each one off the walker's state
//! before and after the command and the [`Step`] the walker classified it
//! as. The device steps the same walker on every command it accepts, so
//! there is no second copy of the mode machine to drift from.
//!
//! Where the device is *permissive* (it executes whatever arrives), the
//! linter is *strict*: sequences the device would silently ignore or that
//! deviate from the paper's published transition protocol get a
//! diagnostic.

use crate::diag::{PvCode, Report, Site};
use crate::stream::{StreamEvent, StreamItem};
use pim_core::conf::{CRF_ROW, PIM_CONF_FIRST_ROW, PIM_OP_MODE_ROW};
use pim_core::{ModeWalker, PimMode, Step};
use pim_dram::{BankAddr, Command};

/// Lints a command stream against the mode-transition protocol.
/// Fence markers are ignored by this pass (see [`crate::check_fences`]).
pub fn lint_stream(events: &[StreamEvent]) -> Report {
    let mut report = Report::new();
    let mut walker = ModeWalker::new();
    // A CRF load seen, or the one PV110 warning a stream gets issued.
    let mut programmed = false;
    for ev in events {
        let StreamItem::Cmd(cmd) = &ev.item else { continue };
        let before = walker.clone();
        let step = walker.step(cmd);
        let mut error = |code, message: String| report.error(code, ev.site.clone(), message);
        let sb = before.mode() == PimMode::SingleBank;
        let open = |bank| before.open_row(bank);
        let any_open = BankAddr::all().any(|b| open(b).is_some());
        match *cmd {
            Command::Act { bank, row } => {
                if row >= pim_dram::ROWS_PER_BANK {
                    let rows = pim_dram::ROWS_PER_BANK;
                    error(
                        PvCode::Pv304RowOutOfBounds,
                        format!("ACT row {row:#x} is beyond the bank's {rows} rows"),
                    );
                }
                if let Some(was) = open(bank) {
                    let act = if sb { format!("ACT {bank}") } else { "all-bank ACT".to_string() };
                    error(
                        PvCode::Pv102ActWhileOpen,
                        format!("{act} row={row}: row {was} is already open"),
                    );
                }
            }
            Command::Pre { bank } if sb && walker.mode() != PimMode::SingleBank => {
                let still_open =
                    BankAddr::all().filter(|&b| b != bank && open(b).is_some()).count();
                if still_open > 0 {
                    error(
                        PvCode::Pv107EnterAbWithOpenBank,
                        format!(
                            "entering AB mode with {still_open} bank row(s) still open \
                             (the host must precharge all banks first)"
                        ),
                    );
                }
            }
            Command::Pre { bank } if sb && open(bank).is_none() => {
                error(PvCode::Pv101NoOpenRow, format!("PRE {bank} with no open row"));
            }
            Command::Pre { .. } | Command::PreAll if !sb => {
                if !any_open {
                    error(PvCode::Pv101NoOpenRow, "all-bank PRE with no open row".to_string());
                } else if walker.mode() == PimMode::SingleBank
                    && before.mode() == PimMode::AllBankPim
                {
                    error(
                        PvCode::Pv108ExitFromAbPim,
                        "exit to SB mode directly from AB-PIM: PIM_OP_MODE must be \
                         cleared first (Fig. 3 transitions through AB mode)"
                            .to_string(),
                    );
                }
            }
            Command::Ref if any_open => {
                let what = if sb { "bank rows are open" } else { "the all-bank row is open" };
                error(PvCode::Pv109RefreshWithOpenRow, format!("REF issued while {what}"));
            }
            _ => {}
        }
        if before.armed() && !walker.armed() && before.mode() == walker.mode() {
            let what = match cmd {
                Command::Act { .. } if sb => "ACT of a non-ABMR row",
                Command::Act { .. } => "ACT of a non-SBMR row",
                Command::Rd { .. } => "a column RD",
                _ => "a column WR",
            };
            let dir = if sb { "SB→AB" } else { "AB→SB" };
            error(
                PvCode::Pv106TransitionCancelled,
                format!("{what} cancels the armed {dir} transition before its PRE"),
            );
        }
        match (step, cmd) {
            (Step::Unresolved, Command::Rd { bank, col } | Command::Wr { bank, col, .. }) => {
                let rd = if matches!(cmd, Command::Rd { .. }) { "RD" } else { "WR" };
                let at = if sb { format!("{rd} {bank}") } else { format!("all-bank {rd}") };
                error(PvCode::Pv101NoOpenRow, format!("{at} col={col} with no open row"));
            }
            (Step::ConfWrite { row: PIM_OP_MODE_ROW, unit: Some(_) }, _) => error(
                PvCode::Pv103PimOpModeOutsideAb,
                "PIM_OP_MODE write in SB mode is ignored by the device \
                 (AB-PIM must be entered from AB mode)"
                    .to_string(),
            ),
            (Step::ConfWrite { row: CRF_ROW, .. }, _) => {
                if before.mode() == PimMode::AllBankPim {
                    error(
                        PvCode::Pv104CrfLoadWhileArmed,
                        "CRF load while PIM_OP_MODE is enabled: the running \
                         microkernel is being overwritten"
                            .to_string(),
                    );
                }
                programmed = true;
            }
            (Step::Read { row }, _) if !sb && row < PIM_CONF_FIRST_ROW => report.warn(
                PvCode::Pv105DataAccessInPlainAb,
                ev.site.clone(),
                format!(
                    "lock-step RD of data row {row} in plain AB mode \
                     (the host observes bank (0,0) only)"
                ),
            ),
            // Broadcast write — a documented operand-replication feature,
            // so worth a note but not an error.
            (Step::AbWrite { row }, _) => report.warn(
                PvCode::Pv105DataAccessInPlainAb,
                ev.site.clone(),
                format!("broadcast WR of data row {row} in plain AB mode"),
            ),
            (Step::Trigger { .. }, _) if !programmed => {
                report.warn(
                    PvCode::Pv110TriggerWithoutProgram,
                    ev.site.clone(),
                    "PIM trigger with no CRF program loaded in this stream".to_string(),
                );
                programmed = true;
            }
            _ => {}
        }
    }
    // The host must hand the channel back in SB mode.
    if walker.mode() != PimMode::SingleBank {
        report.warn(
            PvCode::Pv111EndsOutsideSb,
            Site::Whole,
            format!("stream ends in {:?} mode (expected SingleBank)", walker.mode()),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamEvent;
    use pim_core::conf;
    use pim_dram::DataBlock;

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
        cmds.push(Command::Wr { bank: bank(), col: 0, data: [0u8; 32].into() });
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
            Command::Wr { bank: bank(), col: 0, data: enable_block(true).into() },
            Command::Pre { bank: bank() },
        ]));
        assert!(r.has_code(PvCode::Pv103PimOpModeOutsideAb));
    }

    #[test]
    fn crf_load_in_ab_pim_is_pv104() {
        let mut cmds = conf::enter_ab_sequence();
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        cmds.push(Command::Act { bank: bank(), row: conf::CRF_ROW });
        cmds.push(Command::Wr { bank: bank(), col: 0, data: [0u8; 32].into() });
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
        cmds.push(Command::Wr { bank: bank(), col: 0, data: [1u8; 32].into() });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::exit_ab_sequence());
        let r = lint_stream(&ev(cmds));
        assert!(r.has_code(PvCode::Pv105DataAccessInPlainAb));
        assert_eq!(r.error_count(), 0);
    }
}
