//! The PIM execution unit (Section IV): a 16-wide SIMD FPU, register files,
//! and the instruction-sequencing controller.
//!
//! One unit is shared by two banks ("we decide to place one PIM execution
//! unit between two banks", Section IV-A) and executes exactly one
//! instruction per column-command trigger, in lock-step with every other
//! unit on the channel. The five pipeline stages (fetch/decode, bank read,
//! multiply, add, write-back) all overlap with the tCCD_L command cadence,
//! so at the command-level timing abstraction a trigger maps to one
//! completed instruction; the pipeline depth only shows up as a fixed drain
//! latency accounted by [`PimUnit::PIPELINE_STAGES`].

use crate::isa::{Instruction, Operand, OperandKind};
use crate::regfile::{Crf, Grf, Srf, CRF_ENTRIES};
use crate::vector::LaneVec;

/// Which of the unit's two banks an operand touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankPort {
    /// The even-numbered bank (EVEN_BANK operand).
    Even,
    /// The odd-numbered bank (ODD_BANK operand).
    Odd,
}

impl BankPort {
    /// The bank port an operand of `kind` names, if it names one.
    fn of(kind: OperandKind) -> Option<BankPort> {
        match kind {
            OperandKind::EvenBank => Some(BankPort::Even),
            OperandKind::OddBank => Some(BankPort::Odd),
            _ => None,
        }
    }
}

/// What kind of column command triggered execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerKind {
    /// A DRAM column RD command.
    Read,
    /// A DRAM column WR command carrying a 32-byte block on the write
    /// datapath (the `WDATA` operand).
    Write(LaneVec),
}

/// A column-command trigger delivered to the unit: the implicit memory
/// operand address (open row + command column, Section IV-B) and the data
/// visible at the unit's two bank ports.
#[derive(Debug, Clone, Copy)]
pub struct Trigger {
    /// RD or WR (with write data).
    pub kind: TriggerKind,
    /// The row currently open in both banks.
    pub row: u32,
    /// The column carried by the command — also the AAM index source.
    pub col: u32,
    /// The even bank's 32-byte block at (row, col).
    pub even_data: LaneVec,
    /// The odd bank's 32-byte block at (row, col).
    pub odd_data: LaneVec,
}

/// The observable effect of one trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// The instruction that executed, if the unit was running.
    pub executed: Option<Instruction>,
    /// A block the instruction wrote back to a bank at (row, col), if any
    /// (e.g. `MOV EVEN_BANK, GRF_A` storing results).
    pub bank_write: Option<(BankPort, LaneVec)>,
    /// The bank port a source operand consumed, if any — drives the energy
    /// model's per-bank access accounting.
    pub bank_read: Option<BankPort>,
    /// `true` if the unit is halted (EXIT reached) after this trigger.
    pub halted: bool,
}

/// The data-independent effects of one instruction on one trigger: what
/// the statistics, the energy model and the device's bank ports see of it,
/// whatever the register and bank *contents* are. Decided by
/// [`Effects::of`] from the instruction and the trigger kind alone — the
/// one place a trigger is counted — so a unit whose results nobody reads
/// retires an instruction without executing it, and [`PimUnit::dataflow`]
/// counts nothing (it shares only [`BankPort::of`], the one place an
/// operand kind becomes a port).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Effects {
    /// The bank port the result is written back to at (row, col), if any.
    pub(crate) bank_write: Option<BankPort>,
    /// The bank port a source operand consumed, if any (the last one read
    /// when both ports are named).
    pub(crate) bank_read: Option<BankPort>,
    /// FP operations performed.
    pub(crate) flops: u64,
    /// WDATA operands requested on a RD trigger (zeros are supplied).
    pub(crate) wdata_on_read: u64,
}

impl Effects {
    /// The effects of `instr` executing on a `kind` trigger. Sources count
    /// in the order [`PimUnit::dataflow`] reads them: MAC also reads its
    /// destination (the accumulator); MAD's third operand is always SRF_A.
    #[inline(always)]
    pub(crate) fn of(instr: &Instruction, kind: &TriggerKind) -> Effects {
        let on_read = matches!(kind, TriggerKind::Read);
        let port = |op: Operand| BankPort::of(op.kind);
        let wdata = |op: Operand| u64::from(on_read && op.kind == OperandKind::Wdata);
        match *instr {
            Instruction::Nop { .. } | Instruction::Jump { .. } | Instruction::Exit => {
                Effects::default()
            }
            Instruction::Mov { dst, src, .. } | Instruction::Fill { dst, src, .. } => Effects {
                bank_write: port(dst),
                bank_read: port(src),
                flops: 0,
                wdata_on_read: wdata(src),
            },
            Instruction::Add { dst, src0, src1, .. } | Instruction::Mul { dst, src0, src1, .. } => {
                Effects {
                    bank_write: port(dst),
                    bank_read: port(src1).or(port(src0)),
                    flops: 16,
                    wdata_on_read: wdata(src0) + wdata(src1),
                }
            }
            Instruction::Mac { dst, src0, src1, .. } => Effects {
                bank_write: port(dst),
                bank_read: port(dst).or(port(src1)).or(port(src0)),
                flops: 32,
                wdata_on_read: wdata(src0) + wdata(src1) + wdata(dst),
            },
            Instruction::Mad { dst, src0, src1, .. } => Effects {
                bank_write: port(dst),
                bank_read: port(src1).or(port(src0)),
                flops: 32,
                wdata_on_read: wdata(src0) + wdata(src1),
            },
        }
    }

    /// One trigger with these effects, as [`UnitStats`] counts it.
    pub(crate) fn retired(&self) -> UnitStats {
        UnitStats {
            instructions: 1,
            flops: self.flops,
            bank_reads: u64::from(self.bank_read.is_some()),
            bank_writes: u64::from(self.bank_write.is_some()),
            wdata_on_read: self.wdata_on_read,
        }
    }
}

/// Per-unit execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Instructions executed (NOP repeats count once per consumed trigger).
    pub instructions: u64,
    /// FP operations performed (a 16-lane ADD/MUL = 16, MAC/MAD = 32).
    pub flops: u64,
    /// Source operands read from a bank.
    pub bank_reads: u64,
    /// Results written to a bank.
    pub bank_writes: u64,
    /// WDATA operands requested by an instruction on a RD trigger (a
    /// microkernel bug; the hardware would see stale bus data, we supply
    /// zeros).
    pub wdata_on_read: u64,
}

pim_dram::counter_table!(UnitStats { instructions, flops, bank_reads, bank_writes, wdata_on_read });

/// Snapshot of a unit's instruction-sequencing state (everything that
/// determines which instruction the next trigger resolves to, independent
/// of the data in the register files). Captured at the end of a recorded
/// launch replay and restored after each tape-driven replay, so the
/// sequencer ends bit-identical to a full execution of the same stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencerState {
    ppc: usize,
    jump_taken: [u32; CRF_ENTRIES],
    nop_remaining: u32,
    halted: bool,
}

/// One PIM execution unit: CRF + GRF_A/GRF_B + SRF_M/SRF_A + 16-wide FPU +
/// controller (Fig. 4).
#[derive(Debug, Clone)]
pub struct PimUnit {
    crf: Crf,
    grf_a: Grf,
    grf_b: Grf,
    srf_m: Srf,
    srf_a: Srf,
    /// PIM program counter (PPC, Section III-A).
    ppc: usize,
    /// Times each JUMP entry has been taken since its counter last reset.
    jump_taken: [u32; CRF_ENTRIES],
    /// Remaining triggers the current multi-cycle NOP will absorb.
    nop_remaining: u32,
    halted: bool,
    stats: UnitStats,
}

impl Default for PimUnit {
    fn default() -> PimUnit {
        PimUnit::new()
    }
}

impl PimUnit {
    /// Pipeline depth (Section IV-B): fetch/decode, bank read, multiply,
    /// add, write-back. Exposed for end-of-kernel drain accounting.
    pub const PIPELINE_STAGES: u64 = 5;

    /// A fresh, halt-on-first-trigger unit.
    pub fn new() -> PimUnit {
        PimUnit {
            crf: Crf::new(),
            grf_a: Grf::new(),
            grf_b: Grf::new(),
            srf_m: Srf::new(),
            srf_a: Srf::new(),
            ppc: 0,
            jump_taken: [0; CRF_ENTRIES],
            nop_remaining: 0,
            halted: false,
            stats: UnitStats::default(),
        }
    }

    /// The instruction buffer.
    pub fn crf(&self) -> &Crf {
        &self.crf
    }

    /// Mutable instruction buffer (memory-mapped CRF writes land here).
    pub fn crf_mut(&mut self) -> &mut Crf {
        &mut self.crf
    }

    /// GRF file A.
    pub fn grf_a(&self) -> &Grf {
        &self.grf_a
    }

    /// Mutable GRF file A.
    pub fn grf_a_mut(&mut self) -> &mut Grf {
        &mut self.grf_a
    }

    /// GRF file B.
    pub fn grf_b(&self) -> &Grf {
        &self.grf_b
    }

    /// Mutable GRF file B.
    pub fn grf_b_mut(&mut self) -> &mut Grf {
        &mut self.grf_b
    }

    /// SRF_M (multiplication scalars).
    pub fn srf_m(&self) -> &Srf {
        &self.srf_m
    }

    /// Mutable SRF_M.
    pub fn srf_m_mut(&mut self) -> &mut Srf {
        &mut self.srf_m
    }

    /// SRF_A (addition scalars).
    pub fn srf_a(&self) -> &Srf {
        &self.srf_a
    }

    /// Mutable SRF_A.
    pub fn srf_a_mut(&mut self) -> &mut Srf {
        &mut self.srf_a
    }

    /// Current program counter.
    pub fn ppc(&self) -> usize {
        self.ppc
    }

    /// `true` once EXIT has been reached.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The CRF entry, and the word in it, that halted this unit because the
    /// word decodes to no instruction. `None` for a running unit and for
    /// one stopped by EXIT, an out-of-range JUMP or the end of the CRF.
    pub fn undecodable_halt(&self) -> Option<(usize, u32)> {
        (self.halted && self.ppc < CRF_ENTRIES && self.crf.decoded(self.ppc).is_none())
            .then(|| (self.ppc, self.crf.read_word(self.ppc)))
    }

    /// Execution statistics.
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Mutable statistics: the launch-replay path adds a recorded launch's
    /// delta here instead of re-counting.
    pub(crate) fn stats_mut(&mut self) -> &mut UnitStats {
        &mut self.stats
    }

    /// Captures the sequencer state (see [`SequencerState`]).
    pub(crate) fn sequencer_state(&self) -> SequencerState {
        SequencerState {
            ppc: self.ppc,
            jump_taken: self.jump_taken,
            nop_remaining: self.nop_remaining,
            halted: self.halted,
        }
    }

    /// Restores a sequencer snapshot taken by
    /// [`PimUnit::sequencer_state`].
    pub(crate) fn set_sequencer_state(&mut self, s: &SequencerState) {
        self.ppc = s.ppc;
        self.jump_taken = s.jump_taken;
        self.nop_remaining = s.nop_remaining;
        self.halted = s.halted;
    }

    /// Resets the sequencer (PPC, loop counters, halt flag) — performed by
    /// the device when `PIM_OP_MODE` is set to 1, so every entry into
    /// AB-PIM mode starts the microkernel from CRF entry 0.
    pub fn reset_sequencer(&mut self) {
        self.ppc = 0;
        self.jump_taken = [0; CRF_ENTRIES];
        self.nop_remaining = 0;
        self.halted = false;
    }

    /// Resolves zero-cycle control flow: follows JUMPs (without consuming
    /// a trigger) and returns the next executable instruction, leaving the
    /// PPC on it; `None` once the unit has halted. EXIT halts, and so does
    /// an entry that did not decode when it was written. Every JUMP entry
    /// whose counter moves sets its bit in `jumped`.
    fn resolve_control(&mut self, jumped: &mut u32) -> Option<Instruction> {
        while !self.halted {
            match self.crf.decoded(self.ppc) {
                Some(Instruction::Jump { target, count }) => {
                    // The JUMP encoding carries more target bits than the
                    // CRF has entries, so a raw CRF image can name an
                    // out-of-range target. The static verifier rejects such
                    // programs (PV007); if one reaches the sequencer anyway,
                    // halt instead of indexing past the CRF.
                    debug_assert!(
                        (target as usize) < CRF_ENTRIES,
                        "JUMP target {target} outside the {CRF_ENTRIES}-entry CRF \
                         reached the sequencer (rejected statically by pim-verify)"
                    );
                    // Otherwise the body executes `count` times: take the
                    // backward jump `count - 1` times, then fall through.
                    if (target as usize) >= CRF_ENTRIES {
                        self.halted = true;
                    } else {
                        *jumped |= 1 << self.ppc;
                        if self.jump_taken[self.ppc] + 1 < count {
                            self.jump_taken[self.ppc] += 1;
                            self.ppc = target as usize;
                        } else {
                            self.jump_taken[self.ppc] = 0;
                            self.ppc += 1;
                        }
                    }
                }
                // A raw CRF image can hold a word no instruction encodes
                // (PV011 statically, `ScheduleError::Undecodable` in the
                // schedule model): the unit stops, like on EXIT.
                Some(Instruction::Exit) | None => self.halted = true,
                Some(instr) => return Some(instr),
            }
            if self.ppc >= CRF_ENTRIES {
                self.halted = true;
            }
        }
        None
    }

    fn aam_idx(col: u32) -> usize {
        (col & 0x7) as usize
    }

    fn src_index(op: Operand, aam: bool, col: u32) -> usize {
        if aam {
            Self::aam_idx(col)
        } else {
            op.idx as usize
        }
    }

    /// Reads source operand `op`, asking `bank` only for a bank port.
    /// Inlined so that one trigger is one straight-line body with its
    /// vectors in registers.
    #[inline(always)]
    fn read_operand(
        &self,
        op: Operand,
        aam: bool,
        kind: TriggerKind,
        col: u32,
        bank: &mut impl FnMut(BankPort) -> LaneVec,
    ) -> LaneVec {
        let idx = Self::src_index(op, aam, col);
        match op.kind {
            OperandKind::GrfA => self.grf_a.read(idx),
            OperandKind::GrfB => self.grf_b.read(idx),
            OperandKind::EvenBank => bank(BankPort::Even),
            OperandKind::OddBank => bank(BankPort::Odd),
            OperandKind::SrfM => self.srf_m.read_broadcast(idx),
            OperandKind::SrfA => self.srf_a.read_broadcast(idx),
            OperandKind::Wdata => match kind {
                TriggerKind::Write(d) => d,
                TriggerKind::Read => LaneVec::zero(),
            },
        }
    }

    /// Writes `value` to register destination `dst`. A bank destination is
    /// the device's to write.
    #[inline(always)]
    fn write_register(&mut self, dst: Operand, aam: bool, col: u32, value: LaneVec) {
        let idx = Self::src_index(dst, aam, col);
        match dst.kind {
            OperandKind::GrfA => self.grf_a.write(idx, value),
            OperandKind::GrfB => self.grf_b.write(idx, value),
            // A 256-bit move into a scalar file loads 8 scalars: SRF_M from
            // the low half of the word, SRF_A from the high half — matching
            // the memory-mapped SRF write layout of the device.
            OperandKind::SrfM => self.srf_m.load_from_lanes(&value, 0),
            OperandKind::SrfA => self.srf_a.load_from_lanes(&value, 8),
            // The write bus is not a destination; treat as a dropped write
            // (decodable but rejected by Instruction::validate).
            OperandKind::Wdata | OperandKind::EvenBank | OperandKind::OddBank => {}
        }
    }

    /// The sequencer half of a trigger: resolves zero-cycle control flow
    /// and advances the PPC past the instruction this trigger executes.
    /// Returns that instruction — one repeat of a multi-cycle NOP reads as
    /// `NOP 1` — or `None` once the unit has halted. Nothing is decoded
    /// ([`Crf`] did that when the word was written) and no register data is
    /// read: which instruction the n-th trigger resolves to is a function
    /// of the CRF image alone.
    #[inline]
    pub(crate) fn sequence(&mut self) -> Option<Instruction> {
        self.lead(&mut 0)
    }

    /// [`PimUnit::sequence`], also setting in `jumped` the bit of every
    /// JUMP entry whose loop counter it moved — with the PPC, the NOP
    /// count and the halt flag, everything a sequencer step can change, so
    /// a unit in lock-step can [`PimUnit::follow`] it.
    #[inline]
    pub(crate) fn lead(&mut self, jumped: &mut u32) -> Option<Instruction> {
        let instr = if self.nop_remaining > 0 {
            // A multi-cycle NOP absorbs this trigger without a fetch; the
            // PPC moves on when the last repeat is consumed.
            self.nop_remaining -= 1;
            Instruction::Nop { cycles: 1 }
        } else {
            let instr = self.resolve_control(jumped)?;
            if let Instruction::Nop { cycles } = instr {
                self.nop_remaining = cycles.saturating_sub(1);
            }
            instr
        };
        if self.nop_remaining == 0 {
            self.ppc += 1;
            if self.ppc >= CRF_ENTRIES {
                self.halted = true;
            }
        }
        Some(instr)
    }

    /// The sequencer half of a trigger for a unit in lock-step with
    /// `leader`: one that held the same CRF image and the same sequencer
    /// state when `leader` took this trigger through [`PimUnit::lead`],
    /// which moved the loop counters in `jumped`. The step is a function
    /// of exactly that, so this unit's own [`PimUnit::sequence`] would
    /// resolve the same instruction and end in the same state; it adopts
    /// the state instead of recomputing it.
    #[inline]
    pub(crate) fn follow(&mut self, leader: &PimUnit, mut jumped: u32) {
        debug_assert!(self.crf == leader.crf, "following a unit with another CRF image");
        self.ppc = leader.ppc;
        self.nop_remaining = leader.nop_remaining;
        self.halted = leader.halted;
        while jumped != 0 {
            let entry = jumped.trailing_zeros() as usize;
            self.jump_taken[entry] = leader.jump_taken[entry];
            jumped &= jumped - 1;
        }
    }

    /// The dataflow half of a trigger: the register effects of one
    /// already-resolved instruction, with no sequencer advance and no
    /// stats. `bank` supplies the block at a bank port, and is asked only
    /// for ports the instruction reads; a result bound for a bank port is
    /// returned for the device to write back at (row, col).
    ///
    /// Running it on an instruction resolved by an *earlier* execution of
    /// the same launch (the tape replay) is legal because control flow in
    /// this ISA is data-independent: the full trigger schedule of a CRF
    /// image derives statically ([`crate::schedule::StaticSchedule`]), and
    /// the fast path only records launches whose armed images prove
    /// (`pim-verify`'s PV301 flags the rest ahead of time).
    #[inline]
    pub(crate) fn dataflow(
        &mut self,
        instr: Instruction,
        kind: TriggerKind,
        col: u32,
        mut bank: impl FnMut(BankPort) -> LaneVec,
    ) -> Option<(BankPort, LaneVec)> {
        let (dst, aam, value) = match instr {
            Instruction::Nop { .. } | Instruction::Jump { .. } | Instruction::Exit => return None,
            Instruction::Mov { dst, src, relu, aam } => {
                let v = self.read_operand(src, aam, kind, col, &mut bank);
                (dst, aam, if relu { v.relu() } else { v })
            }
            Instruction::Fill { dst, src, aam } => {
                (dst, aam, self.read_operand(src, aam, kind, col, &mut bank))
            }
            Instruction::Add { dst, src0, src1, aam } => {
                let a = self.read_operand(src0, aam, kind, col, &mut bank);
                let b = self.read_operand(src1, aam, kind, col, &mut bank);
                (dst, aam, a.add(b))
            }
            Instruction::Mul { dst, src0, src1, aam } => {
                let a = self.read_operand(src0, aam, kind, col, &mut bank);
                let b = self.read_operand(src1, aam, kind, col, &mut bank);
                (dst, aam, a.mul(b))
            }
            Instruction::Mac { dst, src0, src1, aam } => {
                let a = self.read_operand(src0, aam, kind, col, &mut bank);
                let b = self.read_operand(src1, aam, kind, col, &mut bank);
                let acc = self.read_operand(dst, aam, kind, col, &mut bank);
                (dst, aam, a.mac(b, acc))
            }
            Instruction::Mad { dst, src0, src1, aam } => {
                // SRC2 shares SRC1's index, in SRF_A (Section III-C).
                let c = self.srf_a.read_broadcast(Self::src_index(src1, aam, col));
                let a = self.read_operand(src0, aam, kind, col, &mut bank);
                let b = self.read_operand(src1, aam, kind, col, &mut bank);
                (dst, aam, a.mac(b, c))
            }
        };
        match BankPort::of(dst.kind) {
            Some(port) => Some((port, value)),
            None => {
                self.write_register(dst, aam, col, value);
                None
            }
        }
    }

    /// Counts one executed trigger ([`Effects::retired`]) into the unit's
    /// statistics.
    pub(crate) fn retire(&mut self, retired: &UnitStats) {
        self.stats.merge(retired);
    }

    /// Executes one trigger: sequencer step, dataflow of the resolved
    /// instruction, statistics.
    ///
    /// This is "a DRAM column command triggers the execution of a PIM
    /// instruction" (Section III-A), at the heart of the architecture.
    pub fn execute(&mut self, trig: &Trigger) -> ExecOutcome {
        let Some(instr) = self.sequence() else {
            return ExecOutcome { executed: None, bank_write: None, bank_read: None, halted: true };
        };
        let fx = Effects::of(&instr, &trig.kind);
        let bank_write = self.dataflow(instr, trig.kind, trig.col, |port| match port {
            BankPort::Even => trig.even_data,
            BankPort::Odd => trig.odd_data,
        });
        self.retire(&fx.retired());
        ExecOutcome {
            executed: Some(instr),
            bank_write,
            bank_read: fx.bank_read,
            halted: self.halted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_fp16::F16;

    fn rd_trigger(col: u32, even: [f32; 16], odd: [f32; 16]) -> Trigger {
        Trigger {
            kind: TriggerKind::Read,
            row: 0,
            col,
            even_data: LaneVec::from_f32(even),
            odd_data: LaneVec::from_f32(odd),
        }
    }

    #[test]
    fn fresh_unit_halts_immediately() {
        let mut u = PimUnit::new();
        let out = u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16]));
        assert!(out.halted);
        assert_eq!(out.executed, None);
    }

    #[test]
    fn mov_from_bank_to_grf() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            Instruction::Mov {
                dst: Operand::grf_a(2),
                src: Operand::even_bank(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ]);
        u.reset_sequencer();
        let out = u.execute(&rd_trigger(5, [3.0; 16], [0.0; 16]));
        assert_eq!(out.bank_read, Some(BankPort::Even));
        assert_eq!(u.grf_a().read(2).to_f32(), [3.0; 16]);
        assert!(!out.halted);
        // Next trigger hits EXIT.
        assert!(u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16])).halted);
    }

    #[test]
    fn mov_relu_clamps_negative() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[Instruction::Mov {
            dst: Operand::grf_b(0),
            src: Operand::odd_bank(),
            relu: true,
            aam: false,
        }]);
        u.reset_sequencer();
        let mut vals = [1.0f32; 16];
        vals[5] = -9.0;
        u.execute(&rd_trigger(0, [0.0; 16], vals));
        assert_eq!(u.grf_b().read(0)[5], F16::ZERO);
        assert_eq!(u.grf_b().read(0)[0].to_f32(), 1.0);
    }

    #[test]
    fn mac_accumulates_into_dst() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            Instruction::Mac {
                dst: Operand::grf_b(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(0),
                aam: false,
            },
            Instruction::Jump { target: 0, count: 3 },
            Instruction::Exit,
        ]);
        u.reset_sequencer();
        u.srf_m_mut().write(0, F16::from_f32(2.0));
        for _ in 0..3 {
            u.execute(&rd_trigger(0, [1.5; 16], [0.0; 16]));
        }
        // 3 × (1.5 × 2.0) = 9.0 in every lane.
        assert_eq!(u.grf_b().read(0).to_f32(), [9.0; 16]);
        assert!(u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16])).halted);
        assert_eq!(u.stats().flops, 3 * 32);
    }

    #[test]
    fn jump_is_zero_cycle() {
        // MAC + JUMP(count=8): exactly 8 triggers execute 8 MACs; the JUMP
        // itself consumes no trigger.
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            Instruction::Mac {
                dst: Operand::grf_a(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(0),
                aam: false,
            },
            Instruction::Jump { target: 0, count: 8 },
            Instruction::Exit,
        ]);
        u.reset_sequencer();
        u.srf_m_mut().write(0, F16::ONE);
        for i in 0..8 {
            let out = u.execute(&rd_trigger(i, [1.0; 16], [0.0; 16]));
            assert!(matches!(out.executed, Some(Instruction::Mac { .. })), "trigger {i}");
        }
        assert_eq!(u.grf_a().read(0).to_f32(), [8.0; 16]);
        assert!(u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16])).halted);
    }

    #[test]
    fn nested_loops_via_two_jumps() {
        // FILL SRF_M←WDATA; MAC×4 inner; outer ×2 — the GEMV kernel shape.
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            Instruction::Fill { dst: Operand::srf_m(0), src: Operand::wdata(), aam: false },
            Instruction::Mac {
                dst: Operand::grf_b(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(0),
                aam: true,
            },
            Instruction::Jump { target: 1, count: 4 },
            Instruction::Jump { target: 0, count: 2 },
            Instruction::Exit,
        ]);
        u.reset_sequencer();
        let mut total = 0.0f32;
        for outer in 0..2 {
            // WR trigger loads 8 scalars into SRF_M.
            let scalars: [f32; 16] = std::array::from_fn(|i| (outer * 8 + i) as f32);
            u.execute(&Trigger {
                kind: TriggerKind::Write(LaneVec::from_f32(scalars)),
                row: 0,
                col: 0,
                even_data: LaneVec::zero(),
                odd_data: LaneVec::zero(),
            });
            for c in 0..4u32 {
                u.execute(&rd_trigger(c, [1.0; 16], [0.0; 16]));
                total += scalars[(c & 7) as usize];
            }
        }
        // GRF_B[0..4] accumulated via AAM dst index = col
        let got: f32 = (0..4).map(|i| u.grf_b().read(i).to_f32()[0]).sum();
        assert_eq!(got, total);
        assert!(u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16])).halted);
    }

    #[test]
    fn multi_cycle_nop_absorbs_triggers() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            Instruction::Nop { cycles: 3 },
            Instruction::Mov {
                dst: Operand::grf_a(0),
                src: Operand::even_bank(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ]);
        u.reset_sequencer();
        for _ in 0..3 {
            let out = u.execute(&rd_trigger(0, [7.0; 16], [0.0; 16]));
            assert!(matches!(out.executed, Some(Instruction::Nop { .. })));
        }
        assert_eq!(u.grf_a().read(0).to_f32(), [0.0; 16], "MOV must not have run yet");
        u.execute(&rd_trigger(0, [7.0; 16], [0.0; 16]));
        assert_eq!(u.grf_a().read(0).to_f32(), [7.0; 16]);
    }

    #[test]
    fn mad_uses_srf_a_as_third_operand() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[Instruction::Mad {
            dst: Operand::grf_a(0),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(3),
            aam: false,
        }]);
        u.reset_sequencer();
        u.srf_m_mut().write(3, F16::from_f32(2.0));
        u.srf_a_mut().write(3, F16::from_f32(10.0));
        u.execute(&rd_trigger(0, [4.0; 16], [0.0; 16]));
        // 4*2 + 10 = 18 — BN's scale-and-shift shape.
        assert_eq!(u.grf_a().read(0).to_f32(), [18.0; 16]);
    }

    #[test]
    fn bank_store_returns_write_back() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[Instruction::Mov {
            dst: Operand::even_bank(),
            src: Operand::grf_a(1),
            relu: false,
            aam: false,
        }]);
        u.reset_sequencer();
        u.grf_a_mut().write(1, LaneVec::from_f32([5.0; 16]));
        let out = u.execute(&rd_trigger(9, [0.0; 16], [0.0; 16]));
        let (port, data) = out.bank_write.unwrap();
        assert_eq!(port, BankPort::Even);
        assert_eq!(data.to_f32(), [5.0; 16]);
        assert_eq!(u.stats().bank_writes, 1);
    }

    #[test]
    fn wdata_on_read_counts_and_yields_zero() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[Instruction::Fill {
            dst: Operand::grf_a(0),
            src: Operand::wdata(),
            aam: false,
        }]);
        u.reset_sequencer();
        u.grf_a_mut().write(0, LaneVec::from_f32([1.0; 16]));
        u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16]));
        assert_eq!(u.grf_a().read(0).to_f32(), [0.0; 16]);
        assert_eq!(u.stats().wdata_on_read, 1);
    }

    /// The counting side and the executing side of a trigger agree: for
    /// every operand kind in every operand position, the port
    /// [`Effects::of`] says is read is the last one the dataflow asked its
    /// bank closure for, the port it says is written is the one the
    /// dataflow hands back, and a register destination is written by the
    /// dataflow itself.
    #[test]
    fn effects_name_exactly_what_the_dataflow_touches() {
        use OperandKind::*;
        let kinds = [GrfA, GrfB, EvenBank, OddBank, SrfM, SrfA, Wdata];
        let op = |kind| Operand::new(kind, 1);
        let mut cases = 0;
        for (dst, a, b) in kinds
            .iter()
            .flat_map(|&d| kinds.iter().flat_map(move |&a| kinds.map(move |b| (d, a, b))))
        {
            let (dst, src0, src1, src, aam) = (op(dst), op(a), op(b), op(a), false);
            for instr in [
                Instruction::Mov { dst, src, relu: true, aam },
                Instruction::Fill { dst, src, aam },
                Instruction::Add { dst, src0, src1, aam },
                Instruction::Mul { dst, src0, src1, aam },
                Instruction::Mac { dst, src0, src1, aam },
                Instruction::Mad { dst, src0, src1, aam },
            ] {
                for kind in [TriggerKind::Read, TriggerKind::Write(LaneVec::from_f32([2.0; 16]))] {
                    let fx = Effects::of(&instr, &kind);
                    let mut unit = PimUnit::new();
                    let before = unit.clone();
                    let mut asked = Vec::new();
                    let wrote = unit.dataflow(instr, kind, 0, |port| {
                        asked.push(port);
                        LaneVec::from_f32([3.0; 16])
                    });
                    assert_eq!(fx.bank_read, asked.last().copied(), "{instr} {kind:?}");
                    assert_eq!(fx.bank_write, wrote.map(|(port, _)| port), "{instr} {kind:?}");
                    let mut reads = instr.sources();
                    if let Instruction::Mac { dst, .. } = instr {
                        reads.push(dst);
                    }
                    let wdata_reads = reads.iter().filter(|o| o.kind == Wdata).count()
                        * usize::from(kind == TriggerKind::Read);
                    assert_eq!(fx.wdata_on_read, wdata_reads as u64, "{instr} {kind:?}");
                    if fx.bank_write.is_some() || dst.kind == Wdata {
                        let regs = |u: &PimUnit| -> Vec<_> {
                            let grf = (0..8).map(|i| (u.grf_a.read(i), u.grf_b.read(i)));
                            grf.zip((0..8).map(|i| (u.srf_m.read(i), u.srf_a.read(i)))).collect()
                        };
                        assert_eq!(regs(&unit), regs(&before), "{instr}: no register may change");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 7 * 7 * 7 * 6 * 2);
        for control in [Instruction::Nop { cycles: 3 }, Instruction::Exit] {
            assert_eq!(Effects::of(&control, &TriggerKind::Read), Effects::default());
        }
    }

    #[test]
    fn sequencer_reset_restarts_program() {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            Instruction::Mov {
                dst: Operand::grf_a(0),
                src: Operand::even_bank(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ]);
        u.reset_sequencer();
        u.execute(&rd_trigger(0, [1.0; 16], [0.0; 16]));
        assert!(u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16])).halted);
        assert_eq!(u.undecodable_halt(), None, "EXIT is a decodable halt");
        u.reset_sequencer();
        assert!(!u.is_halted());
        let out = u.execute(&rd_trigger(0, [2.0; 16], [0.0; 16]));
        assert!(!out.halted);
        assert_eq!(u.grf_a().read(0).to_f32(), [2.0; 16]);
    }

    #[test]
    fn undecodable_entry_halts_the_unit() {
        // Reserved operand kind 7 in every field: decodes to nothing.
        let garbage = 0x7BFF_7BFF;
        assert!(Instruction::decode(garbage).is_err());
        let mov = Instruction::Mov {
            dst: Operand::grf_a(0),
            src: Operand::even_bank(),
            relu: false,
            aam: false,
        };
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[mov, Instruction::Jump { target: 3, count: 1 }, mov]);
        u.crf_mut().write_word(2, garbage);
        u.reset_sequencer();
        // The MOV runs; the JUMP falls through onto the garbage word, which
        // stops the unit without consuming the instruction after it.
        assert_eq!(u.execute(&rd_trigger(0, [1.0; 16], [0.0; 16])).executed, Some(mov));
        let out = u.execute(&rd_trigger(0, [2.0; 16], [0.0; 16]));
        assert_eq!((out.executed, out.halted), (None, true));
        assert_eq!(u.undecodable_halt(), Some((2, garbage)));
        assert_eq!(u.grf_a().read(0).to_f32(), [1.0; 16]);
        assert_eq!(u.stats().instructions, 1);
        // ... and agrees with the static model of the same image.
        let schedule = crate::schedule::StaticSchedule::of_crf(u.crf(), 1 << 20);
        assert!(matches!(
            schedule,
            Err(crate::schedule::ScheduleError::Undecodable { index: 2, word }) if word == garbage
        ));
    }

    #[test]
    fn runaway_ppc_halts() {
        let mut u = PimUnit::new();
        // A single MOV with no EXIT after... CRF pads with EXIT, so fill
        // the entire CRF with MOVs manually.
        for i in 0..CRF_ENTRIES {
            u.crf_mut().write_word(
                i,
                Instruction::Mov {
                    dst: Operand::grf_a(0),
                    src: Operand::even_bank(),
                    relu: false,
                    aam: false,
                }
                .encode(),
            );
        }
        u.reset_sequencer();
        for _ in 0..CRF_ENTRIES {
            u.execute(&rd_trigger(0, [0.0; 16], [0.0; 16]));
        }
        assert!(u.is_halted());
    }
}
