//! The fence-race detector: a happens-before pass over a command stream
//! that finds host reads of PIM-written state with no intervening fence.
//!
//! The paper's software stack inserts "a barrier for every 8 DRAM
//! commands" (Section VII-D) because the memory controller may reorder
//! commands between barriers; a host read that consumes a PIM result
//! before the producing trigger is guaranteed drained is a race. The
//! detector steps the stream through [`pim_core::ModeWalker`] and the
//! unit's own [`pim_core::Sequencer`] over a shadow [`pim_core::Crf`]
//! loaded from the stream's `CRF`-row writes — control flow in this ISA is
//! data-independent, so no data needs simulating. Each trigger's resolved
//! instruction says exactly which cell it dirtied: a bank-port destination
//! dirties `(port parity, row, col)`, a GRF destination dirties
//! `(file, index)` (AAM-exact). A fence clears the dirty sets; a host read
//! of a still-dirty location reports `PV201` (bank data, parity-matched
//! against the read command's bank) or `PV202` (memory-mapped GRF
//! readback). Footprint precision means reads of disjoint columns, other
//! GRF entries, or opposite-parity banks never race.

use crate::diag::{PvCode, Report};
use crate::stream::{StreamEvent, StreamItem};
use pim_core::conf::{
    crf_block_base, crf_block_words, grf_entry, CRF_ROW, GRF_ROW, PIM_CONF_FIRST_ROW,
};
use pim_core::isa::Slot;
use pim_core::{Crf, ModeWalker, Sequencer, Step};
use pim_dram::Command;
use std::collections::HashSet;

/// Runs the fence-race pass over a stream. The units run in lock-step on
/// one program, so one shadow CRF and sequencer stand for all of them.
pub fn check_fences(events: &[StreamEvent]) -> Report {
    let mut report = Report::new();
    let mut walker = ModeWalker::new();
    let (mut crf, mut seq) = (Crf::new(), Sequencer::new());
    // Dirty bank cells, keyed (bank parity, row, col): the units run in
    // lock-step, so an EVEN_BANK write dirties that cell in every
    // even-parity bank (and only those).
    let mut dirty_bank: HashSet<(u8, u32, u32)> = HashSet::new();
    // Dirty GRF entries, keyed (file, index) as `Slot::Grf` names them.
    let mut dirty_grf: HashSet<(u8, usize)> = HashSet::new();
    for ev in events {
        let cmd = match &ev.item {
            StreamItem::Fence => {
                dirty_bank.clear();
                dirty_grf.clear();
                continue;
            }
            StreamItem::Cmd(c) => c,
        };
        match (walker.step(cmd), cmd) {
            (Step::ConfWrite { row: CRF_ROW, .. }, Command::Wr { col, data, .. }) => {
                for (i, word) in crf_block_words(data).into_iter().enumerate() {
                    crf.write_word(crf_block_base(*col) + i, word);
                }
            }
            (Step::PimOpMode { enable: true, toggled: true }, _) => seq = Sequencer::new(),
            (Step::Trigger { row }, Command::Rd { col, .. } | Command::Wr { col, .. }) => {
                let mut fuel = Sequencer::FUEL;
                let Some(instr) = seq.step(&crf, &mut fuel).0 else { continue };
                let Some(dst) = instr.dst() else { continue };
                match dst.slot(instr.aam(), *col) {
                    Slot::Bank(port) => {
                        dirty_bank.insert((port as u8, row, *col));
                    }
                    Slot::Grf(file, idx) => {
                        dirty_grf.insert((file, idx));
                    }
                    // SRF loads and dropped WDATA writes are not
                    // host-readable through the fence-guarded paths.
                    Slot::Srf(..) | Slot::Wdata => {}
                }
            }
            (Step::Read { row }, Command::Rd { bank, col }) if row < PIM_CONF_FIRST_ROW => {
                let parity = (bank.flat_index() % 2) as u8;
                if dirty_bank.contains(&(parity, row, *col)) {
                    report.error(
                        PvCode::Pv201UnfencedHostRead,
                        ev.site.clone(),
                        format!(
                            "host read of (row {row}, col {col}) in a parity-{parity} bank \
                             written by a PIM trigger with no intervening fence"
                        ),
                    );
                }
            }
            (Step::Read { row: GRF_ROW }, Command::Rd { col, .. }) => {
                let (file, idx) = grf_entry(*col);
                if dirty_grf.contains(&(file, idx)) {
                    let name = if file == 0 { "GRF_A" } else { "GRF_B" };
                    report.error(
                        PvCode::Pv202UnfencedGrfReadback,
                        ev.site.clone(),
                        format!(
                            "readback of {name}[{idx}] written by a PIM trigger \
                             with no intervening fence"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{strip_fences, StreamItem};
    use pim_core::conf;
    use pim_core::isa::{Instruction, Operand};
    use pim_dram::{BankAddr, Command};

    fn bank() -> BankAddr {
        BankAddr::new(0, 0)
    }

    /// A kernel that stores results to the even bank, followed by a host
    /// read of the same address.
    fn store_then_read(fence_between: bool) -> Vec<StreamEvent> {
        let program = vec![
            Instruction::Mov {
                dst: Operand::even_bank(),
                src: Operand::grf_a(0),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ];
        let mut cmds = conf::enter_ab_sequence();
        cmds.push(Command::Act { bank: bank(), row: conf::CRF_ROW });
        cmds.push(Command::Wr { bank: bank(), col: 0, data: conf::crf_blocks(&program)[0].into() });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        cmds.push(Command::Act { bank: bank(), row: 3 });
        cmds.push(Command::Rd { bank: bank(), col: 5 });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::set_pim_op_mode_sequence(false));
        cmds.extend(conf::exit_ab_sequence());
        let mut events: Vec<StreamEvent> =
            cmds.into_iter().enumerate().map(|(i, c)| StreamEvent::cmd(i, c)).collect();
        if fence_between {
            events.push(StreamEvent {
                item: StreamItem::Fence,
                site: crate::Site::Command { index: events.len(), desc: "fence".into() },
            });
        }
        // Host readback of the address the MOV stored to.
        let n = events.len();
        for (i, c) in [
            Command::Act { bank: bank(), row: 3 },
            Command::Rd { bank: bank(), col: 5 },
            Command::Pre { bank: bank() },
        ]
        .into_iter()
        .enumerate()
        {
            events.push(StreamEvent::cmd(n + i, c));
        }
        events
    }

    #[test]
    fn unfenced_bank_read_is_pv201() {
        let r = check_fences(&store_then_read(false));
        assert!(r.has_code(PvCode::Pv201UnfencedHostRead), "expected PV201:\n{r}");
    }

    #[test]
    fn fenced_bank_read_is_clean() {
        let r = check_fences(&store_then_read(true));
        assert!(r.is_clean(), "unexpected diagnostics:\n{r}");
    }

    #[test]
    fn stripping_fences_reintroduces_the_race() {
        let fenced = store_then_read(true);
        let r = check_fences(&strip_fences(&fenced));
        assert!(r.has_code(PvCode::Pv201UnfencedHostRead));
    }

    /// A kernel accumulating into GRF_A[0], then a memory-mapped GRF
    /// readback of that entry.
    fn accumulate_then_readback(fence_between: bool) -> Vec<StreamEvent> {
        let program = vec![
            Instruction::Fill { dst: Operand::grf_a(0), src: Operand::even_bank(), aam: false },
            Instruction::Exit,
        ];
        let mut cmds = conf::enter_ab_sequence();
        cmds.push(Command::Act { bank: bank(), row: conf::CRF_ROW });
        cmds.push(Command::Wr { bank: bank(), col: 0, data: conf::crf_blocks(&program)[0].into() });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::set_pim_op_mode_sequence(true));
        cmds.push(Command::Act { bank: bank(), row: 3 });
        cmds.push(Command::Rd { bank: bank(), col: 0 });
        cmds.push(Command::Pre { bank: bank() });
        cmds.extend(conf::set_pim_op_mode_sequence(false));
        cmds.extend(conf::exit_ab_sequence());
        let mut events: Vec<StreamEvent> =
            cmds.into_iter().enumerate().map(|(i, c)| StreamEvent::cmd(i, c)).collect();
        if fence_between {
            events.push(StreamEvent {
                item: StreamItem::Fence,
                site: crate::Site::Command { index: events.len(), desc: "fence".into() },
            });
        }
        let n = events.len();
        for (i, c) in [
            Command::Act { bank: bank(), row: conf::GRF_ROW },
            Command::Rd { bank: bank(), col: 0 },
            Command::Pre { bank: bank() },
        ]
        .into_iter()
        .enumerate()
        {
            events.push(StreamEvent::cmd(n + i, c));
        }
        events
    }

    #[test]
    fn unfenced_grf_readback_is_pv202() {
        let r = check_fences(&accumulate_then_readback(false));
        assert!(r.has_code(PvCode::Pv202UnfencedGrfReadback), "expected PV202:\n{r}");
    }

    #[test]
    fn fenced_grf_readback_is_clean() {
        let r = check_fences(&accumulate_then_readback(true));
        assert!(r.is_clean(), "unexpected diagnostics:\n{r}");
    }

    #[test]
    fn reading_a_different_grf_entry_is_clean() {
        // The kernel writes GRF_A[0]; reading GRF_B[3] (column 11) races
        // with nothing. The readback RD is the last RD in the stream.
        let mut events = accumulate_then_readback(false);
        if let Some(ev) =
            events.iter_mut().rev().find(|e| matches!(e.item, StreamItem::Cmd(Command::Rd { .. })))
        {
            if let StreamItem::Cmd(Command::Rd { col, .. }) = &mut ev.item {
                *col = 11;
            }
        }
        let r = check_fences(&events);
        assert!(r.is_clean(), "unexpected diagnostics:\n{r}");
    }
}
