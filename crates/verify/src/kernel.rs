//! The static kernel verifier: whole-program checks over a microkernel
//! that [`pim_core::isa::Instruction::validate`] cannot see in isolation.
//!
//! The pass is deliberately conservative about *warnings* (a clean bill
//! from the verifier should mean "this program is shaped like the paper's
//! kernels"), but *errors* are reserved for programs that provably cannot
//! execute as written on the Section IV microarchitecture:
//!
//! * structural operand rules per instruction (PV001–PV008, via
//!   [`pim_core::PimConfig::instruction_legal`], so the 2-bank-access
//!   variant legalizes its merged loads);
//! * program shape — size, emptiness, JUMP topology, guaranteed EXIT
//!   (PV007, PV009, PV010, PV012, PV013);
//! * data flow — read-before-write, dead writes, AAM consistency
//!   (PV014–PV017), with the host-preload conventions of the software
//!   stack baked in (SRF entries and MAC accumulators are seeded by the
//!   executor's `srf`/`clear_grf_b` phases, so they are exempt);
//! * the 5-stage pipeline's bank write→read window (PV018), modeling the
//!   write-back latency of [`pim_core::PimUnit::PIPELINE_STAGES`].

use crate::diag::{PvCode, Report, Site};
use pim_core::isa::{Instruction, OperandKind, ValidateError};
use pim_core::{PimConfig, PimUnit, CRF_ENTRIES};

/// Maps a structural [`ValidateError`] to its stable code.
pub fn code_of_violation(v: &ValidateError) -> PvCode {
    match v {
        ValidateError::BadDestination(_) => PvCode::Pv001BadDestination,
        ValidateError::MultipleBankOperands => PvCode::Pv002MultipleBankOperands,
        ValidateError::MultipleScalarOperands => PvCode::Pv003MultipleScalarOperands,
        ValidateError::SameGrfFileTwice => PvCode::Pv004SameGrfFileTwice,
        ValidateError::NonGrfDestination(_) => PvCode::Pv005NonGrfDestination,
        ValidateError::ScalarOperandMisplaced(_) => PvCode::Pv006ScalarMisplaced,
        ValidateError::JumpTargetOutOfRange(_) => PvCode::Pv007JumpTargetOutOfRange,
        ValidateError::JumpZeroCount => PvCode::Pv008JumpZeroCount,
    }
}

/// GRF file selector: 0 = GRF_A, 1 = GRF_B (None for non-GRF kinds).
fn grf_file(kind: OperandKind) -> Option<usize> {
    match kind {
        OperandKind::GrfA => Some(0),
        OperandKind::GrfB => Some(1),
        _ => None,
    }
}

/// Per-file write-tracking state for the data-flow warnings.
#[derive(Default)]
struct GrfState {
    /// Entry has been written at least once.
    written: [[bool; 8]; 2],
    /// PV015 already reported for this entry (report each once).
    reported_rbw: [[bool; 8]; 2],
    /// Instruction index of the last unread non-AAM write, per entry.
    unread_write: [[Option<usize>; 8]; 2],
    /// File accessed with AAM / without AAM anywhere in the program.
    aam_access: [bool; 2],
    plain_access: [bool; 2],
}

/// Verifies a decoded program against `config`.
///
/// Returns every finding; [`Report::has_errors`] distinguishes programs
/// that must be rejected from ones that merely look suspicious.
pub fn verify_program(config: &PimConfig, program: &[Instruction]) -> Report {
    let mut r = Report::new();
    if program.is_empty() {
        r.error(
            PvCode::Pv010EmptyProgram,
            Site::Whole,
            "empty program: the sequencer would execute whatever the CRF last held",
        );
        return r;
    }
    if program.len() > CRF_ENTRIES {
        r.error(
            PvCode::Pv009ProgramTooLong,
            Site::Whole,
            format!("program has {} instructions; the CRF holds {}", program.len(), CRF_ENTRIES),
        );
        return r;
    }

    // Per-instruction structural rules and register-index bounds.
    for (idx, i) in program.iter().enumerate() {
        if let Err(v) = config.instruction_legal(i) {
            r.error(code_of_violation(&v), Site::Instruction(idx), format!("`{i}`: {v}"));
        }
        for op in i.dst().into_iter().chain(i.sources()) {
            let limit = match op.kind {
                OperandKind::GrfA | OperandKind::GrfB => config.grf_entries_per_file(),
                OperandKind::SrfM | OperandKind::SrfA => 8,
                _ => continue,
            };
            if (op.idx as usize) >= limit {
                r.error(
                    PvCode::Pv019IndexOutOfBounds,
                    Site::Instruction(idx),
                    format!("`{i}`: {op} indexes past the {limit}-entry file"),
                );
            }
        }
    }

    // Control-flow topology. The sequencer only supports backward loops
    // (JUMP body executes `count` times, then falls through), so straight-
    // line order is first-iteration execution order and EXIT reachability
    // reduces to "an EXIT exists on the straight-line path".
    let mut first_exit: Option<usize> = None;
    for (idx, i) in program.iter().enumerate() {
        match *i {
            Instruction::Jump { target, count } => {
                if count == 0 || target >= 32 {
                    continue; // already PV007/PV008 above
                }
                if target as usize >= idx {
                    r.error(
                        PvCode::Pv012NonBackwardJump,
                        Site::Instruction(idx),
                        format!(
                            "`{i}`: target {target} is not before the JUMP \
                             (the sequencer only loops backward)"
                        ),
                    );
                }
            }
            Instruction::Exit if first_exit.is_none() => first_exit = Some(idx),
            _ => {}
        }
    }
    match first_exit {
        None => r.error(
            PvCode::Pv013NoExit,
            Site::Whole,
            "no reachable EXIT: execution falls off the program into stale CRF words",
        ),
        Some(e) => {
            for (idx, i) in program.iter().enumerate().skip(e + 1) {
                // EXIT/NOP padding after the terminator is normal for CRF
                // images (the executor pads partial 8-word blocks).
                if !matches!(i, Instruction::Exit | Instruction::Nop { .. }) {
                    r.warn(
                        PvCode::Pv014DeadCode,
                        Site::Instruction(idx),
                        format!("`{i}` follows the terminating EXIT at {e} and never executes"),
                    );
                }
            }
        }
    }

    // Data-flow warnings + the pipeline bank-hazard error, in straight-line
    // order over the live region. The software stack's conventions are
    // baked in: SRF entries are preloaded by the executor's `srf` phase and
    // MAC accumulators are seeded by `clear_grf_b`, so neither trips PV015.
    let live_end = first_exit.unwrap_or(program.len().saturating_sub(1));
    let mut g = GrfState::default();
    let window = (PimUnit::PIPELINE_STAGES - 2) as usize;
    let mut trigger_idx = 0usize;
    let mut last_bank_write: Option<usize> = None;
    for (idx, i) in program.iter().enumerate().take(live_end + 1) {
        if i.is_control() {
            // A control instruction breaks the straight-line trigger run:
            // loop back-edges re-activate rows / switch columns, so the
            // static window ends here.
            last_bank_write = None;
            continue;
        }
        let aam = i.aam();
        let dst = i.dst();
        let mut reads = i.sources();
        // MAC reads its destination as the accumulator.
        let accumulates = matches!(i, Instruction::Mac { .. });
        if accumulates {
            // Seeded by the host (`clear_grf_b`); tracked as an access for
            // AAM consistency but exempt from read-before-write.
            if let Some(d) = dst {
                if let Some(f) = grf_file(d.kind) {
                    if aam {
                        g.aam_access[f] = true;
                    } else {
                        g.plain_access[f] = true;
                    }
                }
            }
        }

        // Bank hazard window (PV018): a bank read issued while an earlier
        // bank write is still in the pipeline's write-back stages.
        if reads.iter().any(|o| o.kind.is_bank()) {
            if let Some(w) = last_bank_write {
                let dist = trigger_idx - w;
                if dist <= window {
                    r.error(
                        PvCode::Pv018BankHazard,
                        Site::Instruction(idx),
                        format!(
                            "`{i}`: bank read {dist} trigger(s) after a bank write — \
                             inside the {}-stage pipeline's write-back window",
                            PimUnit::PIPELINE_STAGES
                        ),
                    );
                }
            }
        }

        // GRF reads (PV015) and read-tracking for PV016.
        for op in reads.drain(..) {
            let Some(f) = grf_file(op.kind) else { continue };
            if aam {
                g.aam_access[f] = true;
            } else {
                g.plain_access[f] = true;
            }
            let indices: Vec<usize> = if aam { (0..8).collect() } else { vec![op.idx as usize] };
            for ix in indices {
                g.unread_write[f][ix] = None;
                if !g.written[f][ix] && !g.reported_rbw[f][ix] {
                    g.reported_rbw[f][ix] = true;
                    r.warn(
                        PvCode::Pv015ReadBeforeWrite,
                        Site::Instruction(idx),
                        format!("`{i}`: reads {op} before any instruction writes it"),
                    );
                }
            }
        }

        // Writes: GRF tracking (PV016) and the bank-write marker (PV018).
        if let Some(d) = dst {
            if let Some(f) = grf_file(d.kind) {
                if aam {
                    g.aam_access[f] = true;
                    for ix in 0..8 {
                        g.written[f][ix] = true;
                        g.unread_write[f][ix] = None;
                    }
                } else {
                    g.plain_access[f] = true;
                    let ix = d.idx as usize;
                    if let Some(prev) = g.unread_write[f][ix] {
                        r.warn(
                            PvCode::Pv016DeadWrite,
                            Site::Instruction(idx),
                            format!(
                                "`{i}`: overwrites {d} written at instruction {prev} \
                                 before anything reads it"
                            ),
                        );
                    }
                    g.written[f][ix] = true;
                    g.unread_write[f][ix] = Some(idx);
                }
            }
            if d.kind.is_bank() {
                last_bank_write = Some(trigger_idx);
            }
        }
        trigger_idx += 1;
    }

    // AAM consistency (PV017): mixing address-aligned and register-indexed
    // access to the same GRF file usually means the author misjudged which
    // entry a loop touches.
    for (f, name) in [(0usize, "GRF_A"), (1, "GRF_B")] {
        if g.aam_access[f] && g.plain_access[f] {
            r.warn(
                PvCode::Pv017MixedAam,
                Site::Whole,
                format!("{name} is accessed both with and without AAM"),
            );
        }
    }

    r
}

/// Verifies a raw CRF image (e.g. captured from `CRF` row writes in a
/// command trace): decodes every word, then runs [`verify_program`] on the
/// result. Undecodable words are PV011 errors and stop further analysis.
pub fn verify_image(config: &PimConfig, words: &[u32]) -> Report {
    let mut r = Report::new();
    let mut program = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        match Instruction::decode(*w) {
            Ok(instr) => program.push(instr),
            Err(e) => r.error(
                PvCode::Pv011UndecodableWord,
                Site::Word(i),
                format!("{w:#010x} does not decode: {e}"),
            ),
        }
    }
    if r.has_errors() {
        return r;
    }
    r.merge(verify_program(config, &program));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::must_assemble;
    use pim_core::asm::assemble;

    fn verify_src(src: &str) -> Report {
        verify_program(&PimConfig::paper(), &must_assemble(src))
    }

    #[test]
    fn paper_gemv_kernel_is_clean() {
        let r = verify_src(
            "FILL SRF_M[0], WDATA\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             JUMP 1, #8\n\
             JUMP 0, #16\n\
             EXIT",
        );
        assert!(r.is_clean(), "{}", r.render("gemv"));
    }

    #[test]
    fn empty_program_is_pv010() {
        let r = verify_program(&PimConfig::paper(), &[]);
        assert!(r.has_code(PvCode::Pv010EmptyProgram));
        assert!(r.has_errors());
    }

    #[test]
    fn missing_exit_is_pv013() {
        let r = verify_src("FILL GRF_A[0], EVEN_BANK (AAM)\nJUMP 0, #4");
        assert!(r.has_code(PvCode::Pv013NoExit), "{}", r.render("k"));
    }

    #[test]
    fn forward_jump_is_pv012() {
        let prog = vec![
            Instruction::Nop { cycles: 1 },
            Instruction::Jump { target: 3, count: 2 },
            Instruction::Nop { cycles: 1 },
            Instruction::Exit,
        ];
        let r = verify_program(&PimConfig::paper(), &prog);
        assert!(r.has_code(PvCode::Pv012NonBackwardJump), "{}", r.render("k"));
    }

    #[test]
    fn code_after_exit_is_pv014_warning_only() {
        let r = verify_src("EXIT\nFILL GRF_A[0], EVEN_BANK (AAM)");
        assert!(r.has_code(PvCode::Pv014DeadCode));
        assert!(!r.has_errors(), "dead code is a warning");
        // EXIT padding after EXIT stays silent (CRF images pad with EXIT).
        let r = verify_src("EXIT\nEXIT\nNOP 1");
        assert!(r.is_clean(), "{}", r.render("k"));
    }

    #[test]
    fn read_before_write_is_pv015() {
        let r = verify_src("MOV EVEN_BANK, GRF_A[3]\nEXIT");
        assert!(r.has_code(PvCode::Pv015ReadBeforeWrite), "{}", r.render("k"));
    }

    #[test]
    fn mac_accumulator_is_exempt_from_pv015() {
        let r = verify_src("MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\nEXIT");
        assert!(!r.has_code(PvCode::Pv015ReadBeforeWrite), "{}", r.render("k"));
    }

    #[test]
    fn dead_write_is_pv016() {
        let r = verify_src(
            "FILL GRF_A[2], EVEN_BANK\n\
             FILL GRF_A[2], ODD_BANK\n\
             MOV EVEN_BANK, GRF_A[2]\n\
             EXIT",
        );
        assert!(r.has_code(PvCode::Pv016DeadWrite), "{}", r.render("k"));
    }

    #[test]
    fn mixed_aam_is_pv017() {
        let r = verify_src(
            "FILL GRF_A[0], EVEN_BANK (AAM)\n\
             MOV ODD_BANK, GRF_A[0]\n\
             EXIT",
        );
        assert!(r.has_code(PvCode::Pv017MixedAam), "{}", r.render("k"));
    }

    #[test]
    fn bank_write_then_read_is_pv018() {
        let r = verify_src(
            "FILL GRF_A[0], EVEN_BANK\n\
             MOV EVEN_BANK, GRF_A[0]\n\
             FILL GRF_B[0], EVEN_BANK\n\
             EXIT",
        );
        assert!(r.has_code(PvCode::Pv018BankHazard), "{}", r.render("k"));
        assert!(r.has_errors());
    }

    #[test]
    fn control_break_clears_the_hazard_window() {
        // The shipped stream kernels: bank write, then a loop back-edge
        // before the next group's bank read — no hazard.
        let r = verify_src(
            "FILL GRF_A[0], EVEN_BANK (AAM)\n\
             JUMP 0, #8\n\
             MOV EVEN_BANK, GRF_A[0] (AAM)\n\
             JUMP 2, #8\n\
             JUMP 0, #4\n\
             EXIT",
        );
        assert!(!r.has_code(PvCode::Pv018BankHazard), "{}", r.render("k"));
    }

    #[test]
    fn oversize_program_is_pv009() {
        let prog = vec![Instruction::Nop { cycles: 1 }; 33];
        let r = verify_program(&PimConfig::paper(), &prog);
        assert!(r.has_code(PvCode::Pv009ProgramTooLong));
    }

    #[test]
    fn two_bank_variant_legalizes_merged_loads() {
        use pim_core::PimVariant;
        let i = assemble("ADD GRF_A[0], EVEN_BANK, ODD_BANK\nEXIT");
        // Base config rejects (PV002), 2BA accepts.
        let prog = match i {
            Err(_) => {
                // assemble() itself enforces the base rule; build directly.
                use pim_core::isa::Operand;
                vec![
                    Instruction::Add {
                        dst: Operand::grf_a(0),
                        src0: Operand::even_bank(),
                        src1: Operand::odd_bank(),
                        aam: true,
                    },
                    Instruction::Exit,
                ]
            }
            Ok(p) => p,
        };
        let base = verify_program(&PimConfig::paper(), &prog);
        assert!(base.has_code(PvCode::Pv002MultipleBankOperands));
        let tba = PimConfig::with_variant(PimVariant::TwoBankAccess);
        let r = verify_program(&tba, &prog);
        assert!(!r.has_code(PvCode::Pv002MultipleBankOperands), "{}", r.render("k"));
    }

    #[test]
    fn image_roundtrip_and_undecodable_word() {
        let prog = must_assemble("FILL GRF_A[0], EVEN_BANK (AAM)\nJUMP 0, #8\nEXIT");
        let mut words: Vec<u32> = prog.iter().map(|i| i.encode()).collect();
        // Pad to a full CRF image with EXIT, as the executor does.
        words.resize(32, Instruction::Exit.encode());
        let r = verify_image(&PimConfig::paper(), &words);
        assert!(r.is_clean(), "{}", r.render("image"));
        words[1] = 0xF000_0000;
        let r = verify_image(&PimConfig::paper(), &words);
        assert!(r.has_code(PvCode::Pv011UndecodableWord));
    }
}
