//! Static resolution of CRF control flow.
//!
//! The DataTape fast path (`pim_host::fastpath`) replays only the FP16
//! dataflow of a recorded launch, which is sound **iff** the program's
//! control flow is data-independent: every JUMP target and iteration
//! count must be derivable from the CRF image alone, without looking at
//! any data value. In this ISA that holds by construction — JUMP carries
//! immediate target/count fields and there is no conditional branch — but
//! a raw CRF image can still defeat static resolution (undecodable words
//! reached by the sequencer, out-of-range JUMP targets, or loop-count
//! products so large that unrolling them is intractable).
//!
//! [`StaticSchedule::derive`] walks the image with the *exact* sequencer
//! semantics of [`crate::PimUnit`]'s `resolve_control`/`execute` pair and
//! either produces the complete resolved trigger schedule — the proof
//! object — or a typed [`ScheduleError`] saying why the program is not
//! statically provable. Consumers:
//!
//! * `pim_host::fastpath` gates DataTape compilation on `derive`
//!   succeeding; unprovable programs fall back to full simulation.
//! * `pim_verify`'s symbolic executor unrolls the returned steps to build
//!   footprints and output summaries, and surfaces `derive` failures as
//!   the PV301 diagnostic.

use std::fmt;

use crate::isa::Instruction;
use crate::regfile::{Crf, CRF_ENTRIES};

/// Default work budget for [`StaticSchedule::derive`]: an upper bound on
/// sequencer-loop iterations (JUMP resolutions *and* executed
/// instructions) spent unrolling one program. Large enough for every
/// practical kernel (a Table VI GEMV launch resolves in tens of
/// thousands of iterations), small enough that adversarial nested-loop
/// images (two 17-bit counts multiply to ~4 × 10⁹ iterations) fail fast
/// instead of hanging the prover.
pub const DEFAULT_SCHEDULE_BUDGET: u64 = 4_000_000;

/// Why a CRF image's control flow could not be statically resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The sequencer reaches a word that does not decode to an
    /// instruction.
    Undecodable {
        /// CRF index of the word.
        index: usize,
        /// The raw word.
        word: u32,
    },
    /// The sequencer reaches a JUMP whose target names a CRF entry past
    /// the end of the file (the encoding carries more target bits than
    /// the CRF has entries).
    JumpTargetOutOfRange {
        /// CRF index of the JUMP.
        index: usize,
        /// The out-of-range target.
        target: u8,
    },
    /// Unrolling exceeded the iteration budget; the schedule exists but
    /// is too large to materialize (e.g. adversarial nested JUMP counts).
    BudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Undecodable { index, word } => {
                write!(f, "CRF word {index} ({word:#010x}) is reachable but does not decode")
            }
            ScheduleError::JumpTargetOutOfRange { index, target } => {
                write!(
                    f,
                    "JUMP at CRF entry {index} targets entry {target}, outside the \
                     {CRF_ENTRIES}-entry CRF"
                )
            }
            ScheduleError::BudgetExceeded { budget } => {
                write!(f, "control-flow unrolling exceeded the {budget}-iteration proof budget")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One run of the resolved schedule: the instruction at CRF entry
/// `index` executes for `triggers` consecutive triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStep {
    /// CRF entry (= program instruction index) the run executes.
    pub index: usize,
    /// The resolved instruction.
    pub instr: Instruction,
    /// Consecutive triggers it consumes (a multi-cycle `NOP { cycles }`
    /// consumes `cycles` with one fetch; a single-instruction loop body
    /// merges its iterations).
    pub triggers: u64,
}

/// The fully resolved trigger schedule of a CRF program: which
/// instruction executes on the 1st, 2nd, … trigger, independent of any
/// data value. Its existence *is* the data-independence proof the fast
/// path relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticSchedule {
    /// Run-length-compressed schedule in execution order.
    steps: Vec<ScheduleStep>,
    total_triggers: u64,
}

impl StaticSchedule {
    /// Statically resolves `words` (a CRF image, at most `CRF_ENTRIES`
    /// words; missing trailing words read as EXIT, matching
    /// `Crf::load_program` padding) into the complete trigger schedule.
    ///
    /// The walk mirrors the sequencer exactly: JUMPs are followed without
    /// consuming triggers (`count - 1` taken, then fall through), EXIT or
    /// running off the end of the CRF halts, a multi-cycle NOP consumes
    /// `cycles` triggers with one fetch. `budget` bounds the total number
    /// of walk iterations — JUMP resolutions included, so images whose
    /// *schedule* is astronomically long fail even if each trigger is
    /// cheap.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the walk reaches an undecodable
    /// word or an out-of-range JUMP target, or exhausts `budget`.
    pub fn derive(words: &[u32], budget: u64) -> Result<StaticSchedule, ScheduleError> {
        let mut ppc = 0usize;
        let mut jump_taken = [0u32; CRF_ENTRIES];
        let mut halted = false;
        let mut work = 0u64;
        let mut steps: Vec<ScheduleStep> = Vec::new();
        let mut total: u64 = 0;

        let fetch = |index: usize| -> Result<Instruction, ScheduleError> {
            match words.get(index) {
                Some(&word) => Instruction::decode(word)
                    .map_err(|_| ScheduleError::Undecodable { index, word }),
                None => Ok(Instruction::Exit),
            }
        };

        'schedule: loop {
            // Resolve zero-cycle control flow, mirroring
            // `SequencerState::resolve_control`.
            let instr = loop {
                if halted {
                    break 'schedule;
                }
                work += 1;
                if work > budget {
                    return Err(ScheduleError::BudgetExceeded { budget });
                }
                if ppc >= CRF_ENTRIES {
                    halted = true;
                    continue;
                }
                match fetch(ppc)? {
                    Instruction::Jump { target, count } => {
                        if (target as usize) >= CRF_ENTRIES {
                            return Err(ScheduleError::JumpTargetOutOfRange { index: ppc, target });
                        }
                        if jump_taken[ppc] + 1 < count {
                            jump_taken[ppc] += 1;
                            ppc = target as usize;
                        } else {
                            jump_taken[ppc] = 0;
                            ppc += 1;
                        }
                    }
                    Instruction::Exit => halted = true,
                    other => break other,
                }
                if ppc >= CRF_ENTRIES {
                    halted = true;
                    continue;
                }
            };

            // One fetch executes: a multi-cycle NOP consumes `cycles`
            // triggers, everything else consumes one.
            let triggers = match instr {
                Instruction::Nop { cycles } => u64::from(cycles.max(1)),
                _ => 1,
            };
            total += triggers;
            match steps.last_mut() {
                Some(last) if last.index == ppc && last.instr == instr => {
                    last.triggers += triggers;
                }
                _ => steps.push(ScheduleStep { index: ppc, instr, triggers }),
            }
            ppc += 1;
            if ppc >= CRF_ENTRIES {
                halted = true;
            }
        }

        Ok(StaticSchedule { steps, total_triggers: total })
    }

    /// [`derive`](Self::derive)s the schedule of a loaded CRF.
    pub fn of_crf(crf: &Crf, budget: u64) -> Result<StaticSchedule, ScheduleError> {
        let words: Vec<u32> = (0..CRF_ENTRIES).map(|i| crf.read_word(i)).collect();
        StaticSchedule::derive(&words, budget)
    }

    /// [`derive`](Self::derive)s the schedule of an assembled program
    /// (encoded and EXIT-padded exactly as the executor loads it).
    pub fn of_program(
        program: &[Instruction],
        budget: u64,
    ) -> Result<StaticSchedule, ScheduleError> {
        let words: Vec<u32> = program.iter().map(Instruction::encode).collect();
        StaticSchedule::derive(&words, budget)
    }

    /// The run-length-compressed schedule, in execution order.
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// Total triggers the program consumes before halting.
    pub fn total_triggers(&self) -> u64 {
        self.total_triggers
    }

    /// The resolved instruction of every trigger, in order (multi-cycle
    /// NOPs repeat once per consumed trigger). Prefer [`steps`](Self::steps)
    /// when loop bodies repeat many times.
    pub fn triggers(&self) -> impl Iterator<Item = Instruction> + '_ {
        self.steps.iter().flat_map(|s| std::iter::repeat_n(s.instr, s.triggers as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand;

    fn image(program: &[Instruction]) -> Vec<u32> {
        program.iter().map(Instruction::encode).collect()
    }

    #[test]
    fn gemv_inner_loop_schedule_matches_hand_unroll() {
        let prog = [
            Instruction::Fill { dst: Operand::srf_m(0), src: Operand::wdata(), aam: false },
            Instruction::Mac {
                dst: Operand::grf_b(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(0),
                aam: true,
            },
            Instruction::Jump { target: 1, count: 8 },
            Instruction::Jump { target: 0, count: 2 },
            Instruction::Exit,
        ];
        let sched = StaticSchedule::derive(&image(&prog), DEFAULT_SCHEDULE_BUDGET).unwrap();
        // Two groups of FILL + 8×MAC.
        assert_eq!(sched.total_triggers(), 2 * 9);
        assert_eq!(sched.steps().len(), 4);
        assert_eq!(sched.steps()[0], ScheduleStep { index: 0, instr: prog[0], triggers: 1 });
        assert_eq!(sched.steps()[1], ScheduleStep { index: 1, instr: prog[1], triggers: 8 });
        assert_eq!(sched.steps()[2], ScheduleStep { index: 0, instr: prog[0], triggers: 1 });
        assert_eq!(sched.triggers().count(), 18);
    }

    #[test]
    fn multi_cycle_nop_consumes_its_cycles_in_one_step() {
        let prog = [
            Instruction::Nop { cycles: 5 },
            Instruction::Mov {
                dst: Operand::grf_a(0),
                src: Operand::wdata(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ];
        let sched = StaticSchedule::derive(&image(&prog), DEFAULT_SCHEDULE_BUDGET).unwrap();
        assert_eq!(
            sched.steps()[0],
            ScheduleStep { index: 0, instr: Instruction::Nop { cycles: 5 }, triggers: 5 }
        );
        assert_eq!(sched.total_triggers(), 6);
    }

    #[test]
    fn empty_and_exit_only_images_resolve_to_zero_triggers() {
        for words in [&[][..], &image(&[Instruction::Exit])[..]] {
            let sched = StaticSchedule::derive(words, DEFAULT_SCHEDULE_BUDGET).unwrap();
            assert_eq!(sched.total_triggers(), 0);
            assert!(sched.steps().is_empty());
        }
    }

    #[test]
    fn nested_huge_jump_counts_exceed_the_budget() {
        // Each trigger is cheap to *execute* (one NOP), but the schedule
        // itself has ~count² entries: provable only by exhausting the
        // budget, which is exactly what the prover must refuse to do.
        let prog = [
            Instruction::Nop { cycles: 1 },
            Instruction::Jump { target: 0, count: 65_535 },
            Instruction::Jump { target: 0, count: 65_535 },
            Instruction::Exit,
        ];
        assert_eq!(
            StaticSchedule::derive(&image(&prog), DEFAULT_SCHEDULE_BUDGET),
            Err(ScheduleError::BudgetExceeded { budget: DEFAULT_SCHEDULE_BUDGET })
        );
    }

    #[test]
    fn undecodable_reached_word_and_bad_jump_target_are_typed() {
        // Opcode 0xF is unassigned.
        let bad = [0xF000_0000u32];
        assert_eq!(
            StaticSchedule::derive(&bad, DEFAULT_SCHEDULE_BUDGET),
            Err(ScheduleError::Undecodable { index: 0, word: 0xF000_0000 })
        );
        // An undecodable word *after* the halt is never fetched.
        let prog = [Instruction::Exit.encode(), 0xF000_0000];
        assert!(StaticSchedule::derive(&prog, DEFAULT_SCHEDULE_BUDGET).is_ok());
        // JUMP target 40 is encodable (the field is wider than the CRF)
        // but out of range.
        let jump40 = Instruction::Jump { target: 40, count: 2 }.encode();
        assert_eq!(
            StaticSchedule::derive(&[jump40], DEFAULT_SCHEDULE_BUDGET),
            Err(ScheduleError::JumpTargetOutOfRange { index: 0, target: 40 })
        );
    }

    #[test]
    fn schedule_matches_a_live_sequencer_walk() {
        // Cross-check the walker against the real PimUnit sequencer on a
        // loop shape with a multi-cycle NOP in the body.
        let prog = vec![
            Instruction::Nop { cycles: 2 },
            Instruction::Fill { dst: Operand::grf_a(1), src: Operand::wdata(), aam: false },
            Instruction::Jump { target: 0, count: 3 },
            Instruction::Exit,
        ];
        let sched = StaticSchedule::of_program(&prog, DEFAULT_SCHEDULE_BUDGET).unwrap();
        assert_eq!(sched.total_triggers(), 3 * 3);

        let mut unit = crate::PimUnit::new();
        unit.crf_mut().load_program(&prog);
        let mut executed = 0u64;
        for t in 0..64u32 {
            let trig = crate::Trigger {
                row: 0,
                col: t % 32,
                kind: crate::TriggerKind::Write(crate::LaneVec::zero()),
                even_data: crate::LaneVec::zero(),
                odd_data: crate::LaneVec::zero(),
            };
            let out = unit.execute(&trig);
            if out.executed.is_some() {
                executed += 1;
            }
            if out.halted {
                break;
            }
        }
        assert_eq!(executed, sched.total_triggers());
    }
}
