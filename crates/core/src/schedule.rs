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
//! [`StaticSchedule::derive`] steps the unit's own [`Sequencer`] over the
//! image, trigger after trigger, and either produces the complete resolved
//! trigger schedule — the proof object — or maps the sequencer's [`Halt`]
//! to a typed [`ScheduleError`] saying why the program is not statically
//! provable. There is no second copy of the sequencing rules to drift from
//! the unit's. Consumers:
//!
//! * `pim_host::fastpath` gates DataTape compilation on `derive`
//!   succeeding; unprovable programs fall back to full simulation.
//! * `pim_verify`'s symbolic executor unrolls the returned steps to build
//!   footprints and output summaries, and surfaces `derive` failures as
//!   the PV301 diagnostic.

use std::fmt;

use crate::isa::Instruction;
use crate::regfile::{Crf, CRF_ENTRIES};
use crate::unit::{Halt, Sequencer};

/// Default work budget for [`StaticSchedule::derive`]: the sequencer fuel
/// — CRF fetches, JUMP resolutions *and* executed instructions — spent
/// unrolling one program. Large enough for every practical kernel (a
/// Table VI GEMV launch resolves in tens of thousands of fetches), small
/// enough that adversarial nested-loop images (two 17-bit counts multiply
/// to ~4 × 10⁹ fetches) fail fast instead of hanging the prover.
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
    /// Unrolling spent the fuel budget; the schedule exists but is too
    /// large to materialize (e.g. adversarial nested JUMP counts).
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
    /// The walk is a [`Sequencer`] stepped once per trigger (a multi-cycle
    /// NOP's repeats taken at once: one fetch, `cycles` triggers). `budget`
    /// is its fuel for the whole walk — JUMP resolutions included, so
    /// images whose *schedule* is astronomically long fail even if each
    /// trigger is cheap — and no one trigger gets more than a unit's
    /// [`Sequencer::FUEL`].
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if the sequencer halts on an
    /// undecodable word or an out-of-range JUMP target, or runs out of
    /// fuel.
    pub fn derive(words: &[u32], budget: u64) -> Result<StaticSchedule, ScheduleError> {
        let mut crf = Crf::new();
        for (index, &word) in words.iter().take(CRF_ENTRIES).enumerate() {
            crf.write_word(index, word);
        }
        StaticSchedule::of_crf(&crf, budget)
    }

    /// [`derive`](Self::derive)s the schedule of a loaded CRF.
    pub fn of_crf(crf: &Crf, budget: u64) -> Result<StaticSchedule, ScheduleError> {
        let mut seq = Sequencer::new();
        let (mut left, mut steps, mut total) = (budget, Vec::<ScheduleStep>::new(), 0);
        loop {
            // No trigger gets more fuel than a unit's, so a schedule that
            // derives is one the unit runs to its end.
            let granted = left.min(Sequencer::FUEL);
            let mut fuel = granted;
            let (instr, _) = seq.step(crf, &mut fuel);
            left -= granted - fuel;
            let Some(instr) = instr else { break };
            let triggers = 1 + u64::from(seq.finish_nop());
            let index = seq.ppc() - 1;
            total += triggers;
            match steps.last_mut() {
                Some(last) if last.index == index && last.instr == instr => {
                    last.triggers += triggers;
                }
                _ => steps.push(ScheduleStep { index, instr, triggers }),
            }
        }
        match seq.halt() {
            Some(Halt::Undecodable { index, word }) => {
                Err(ScheduleError::Undecodable { index, word })
            }
            Some(Halt::JumpTargetOutOfRange { index, target }) => {
                Err(ScheduleError::JumpTargetOutOfRange { index, target })
            }
            Some(Halt::OutOfFuel) => Err(ScheduleError::BudgetExceeded { budget }),
            Some(Halt::Exit | Halt::EndOfCrf) | None => {
                Ok(StaticSchedule { steps, total_triggers: total })
            }
        }
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

    /// The instruction of every trigger, in order, as the unit reports it:
    /// a multi-cycle NOP as itself on the trigger that fetches it and as
    /// `NOP 1` on each repeat. Prefer [`steps`](Self::steps) when loop
    /// bodies repeat many times.
    pub fn triggers(&self) -> impl Iterator<Item = Instruction> + '_ {
        self.steps.iter().flat_map(|s| {
            (0..s.triggers).map(move |t| match s.instr {
                // A step merges whole fetches, `cycles` (≥ 1) triggers each.
                Instruction::Nop { cycles } if t % u64::from(cycles) != 0 => {
                    Instruction::Nop { cycles: 1 }
                }
                instr => instr,
            })
        })
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

    #[test]
    fn no_trigger_gets_more_fuel_than_a_unit() {
        // 1100 × 1101 ≈ 1.2 × 10⁶ fetches before the first MOV: inside the
        // budget, past one trigger's fuel. The unit halts, so the walk errs.
        let jump = Instruction::Jump { target: 0, count: 1100 };
        let mov = Instruction::Mov {
            dst: Operand::grf_a(0),
            src: Operand::wdata(),
            relu: false,
            aam: false,
        };
        let prog = [jump, jump, mov, Instruction::Exit];
        assert_eq!(
            StaticSchedule::of_program(&prog, DEFAULT_SCHEDULE_BUDGET),
            Err(ScheduleError::BudgetExceeded { budget: DEFAULT_SCHEDULE_BUDGET })
        );
        let mut unit = crate::PimUnit::new();
        unit.crf_mut().load_program(&prog);
        let out = unit.execute(&crate::Trigger {
            row: 0,
            col: 0,
            kind: crate::TriggerKind::Read,
            even_data: crate::LaneVec::zero(),
            odd_data: crate::LaneVec::zero(),
        });
        assert_eq!(out.executed, None);
        assert_eq!(unit.sequencer().halt(), Some(Halt::OutOfFuel));
    }
}
