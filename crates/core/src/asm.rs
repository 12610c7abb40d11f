//! A tiny assembler for PIM microkernels.
//!
//! The PIM programming model ultimately ships 32-bit words into the CRF;
//! during development it is far more pleasant to write microkernels as
//! text. [`assemble`] parses exactly the syntax [`Instruction`]'s
//! `Display` implementation prints (so assembly and disassembly round-trip
//! by construction), one instruction per line, with `;` comments:
//!
//! ```text
//! ; GEMV inner loop (Fig. 7)
//! FILL SRF_M[0], WDATA
//! MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)
//! JUMP 1, #8
//! JUMP 0, #512
//! EXIT
//! ```

use crate::isa::{Instruction, Operand, OperandKind, ValidateError};
use std::fmt;

/// An assembly error with its 1-based line and column numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// Line the error occurred on (1-based).
    pub line: usize,
    /// Column the error starts at (1-based, pointing at the offending
    /// token within the source line).
    pub col: usize,
    /// What went wrong.
    pub message: String,
    /// The structural rule violated, when the error came from
    /// [`Instruction::validate`] (`None` for pure syntax errors). Lets
    /// tools such as `pimlint` map to stable diagnostic codes.
    pub violation: Option<ValidateError>,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, col: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, col, message: message.into(), violation: None })
}

/// 1-based column of `sub` within `raw` (`sub` must be a subslice of `raw`,
/// which every token handed around below is — they all borrow from the same
/// source line).
fn col_of(raw: &str, sub: &str) -> usize {
    (sub.as_ptr() as usize) - (raw.as_ptr() as usize) + 1
}

/// Parses an operand like `GRF_A[3]`, `EVEN_BANK`, `SRF_M[0]`, `WDATA`.
/// `col` is the operand token's 1-based column in its source line.
fn parse_operand(tok: &str, line: usize, col: usize) -> Result<Operand, AsmError> {
    let (name, idx, idx_col) = match tok.find('[') {
        Some(open) => {
            let close = match tok.find(']') {
                Some(c) if c > open => c,
                _ => return err(line, col, format!("malformed index in operand `{tok}`")),
            };
            let idx_col = col + open + 1;
            let idx: u8 = tok[open + 1..close].parse().map_err(|_| AsmError {
                line,
                col: idx_col,
                message: format!("bad register index in `{tok}`"),
                violation: None,
            })?;
            (&tok[..open], idx, idx_col)
        }
        None => (tok, 0u8, col),
    };
    if idx >= 8 {
        return err(line, idx_col, format!("register index {idx} out of range in `{tok}`"));
    }
    let kind = match name {
        "GRF_A" => OperandKind::GrfA,
        "GRF_B" => OperandKind::GrfB,
        "EVEN_BANK" => OperandKind::EvenBank,
        "ODD_BANK" => OperandKind::OddBank,
        "SRF_M" => OperandKind::SrfM,
        "SRF_A" => OperandKind::SrfA,
        "WDATA" => OperandKind::Wdata,
        other => return err(line, col, format!("unknown operand `{other}`")),
    };
    Ok(Operand::new(kind, idx))
}

/// Parses one instruction line. `raw` is the full source line (for column
/// computation); `text` is the comment-stripped, trimmed instruction slice
/// of it.
fn parse_line(raw: &str, text: &str, line: usize) -> Result<Instruction, AsmError> {
    let col = |sub: &str| col_of(raw, sub);
    // Trailing "(AAM)" flag.
    let (text, aam) = match text.strip_suffix("(AAM)") {
        Some(t) => (t.trim_end(), true),
        None => (text, false),
    };
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let operands: Vec<&str> = rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    let need = |n: usize| -> Result<(), AsmError> {
        if operands.len() == n {
            Ok(())
        } else {
            err(
                line,
                col(mnemonic),
                format!("{mnemonic} expects {n} operand(s), got {}", operands.len()),
            )
        }
    };

    let instr = match mnemonic {
        "NOP" => {
            need(1)?;
            let cycles: u32 = operands[0].parse().map_err(|_| AsmError {
                line,
                col: col(operands[0]),
                message: format!("bad NOP count `{}`", operands[0]),
                violation: None,
            })?;
            Instruction::Nop { cycles: cycles.max(1) }
        }
        "JUMP" => {
            need(2)?;
            let target: u8 = operands[0].parse().map_err(|_| AsmError {
                line,
                col: col(operands[0]),
                message: format!("bad JUMP target `{}`", operands[0]),
                violation: None,
            })?;
            let count_str = operands[1].strip_prefix('#').unwrap_or(operands[1]);
            let count: u32 = count_str.parse().map_err(|_| AsmError {
                line,
                col: col(operands[1]),
                message: format!("bad JUMP count `{}`", operands[1]),
                violation: None,
            })?;
            Instruction::Jump { target, count }
        }
        "EXIT" => {
            need(0)?;
            Instruction::Exit
        }
        "MOV" | "MOV(ReLU)" => {
            need(2)?;
            Instruction::Mov {
                dst: parse_operand(operands[0], line, col(operands[0]))?,
                src: parse_operand(operands[1], line, col(operands[1]))?,
                relu: mnemonic == "MOV(ReLU)",
                aam,
            }
        }
        "FILL" => {
            need(2)?;
            Instruction::Fill {
                dst: parse_operand(operands[0], line, col(operands[0]))?,
                src: parse_operand(operands[1], line, col(operands[1]))?,
                aam,
            }
        }
        "ADD" | "MUL" | "MAC" | "MAD" => {
            need(3)?;
            let dst = parse_operand(operands[0], line, col(operands[0]))?;
            let src0 = parse_operand(operands[1], line, col(operands[1]))?;
            let src1 = parse_operand(operands[2], line, col(operands[2]))?;
            match mnemonic {
                "ADD" => Instruction::Add { dst, src0, src1, aam },
                "MUL" => Instruction::Mul { dst, src0, src1, aam },
                "MAC" => Instruction::Mac { dst, src0, src1, aam },
                _ => Instruction::Mad { dst, src0, src1, aam },
            }
        }
        other => return err(line, col(mnemonic), format!("unknown mnemonic `{other}`")),
    };
    Ok(instr)
}

/// Assembles a microkernel: one instruction per line, `;` comments, blank
/// lines ignored.
///
/// # Errors
///
/// Returns the first [`AsmError`] (with line number) on any syntax problem,
/// and rejects programs longer than the 32-entry CRF.
///
/// ```
/// use pim_core::asm::assemble;
/// let prog = assemble(
///     "; add kernel inner step\n\
///      FILL GRF_A[0], EVEN_BANK (AAM)\n\
///      JUMP 0, #8\n\
///      EXIT",
/// ).unwrap();
/// assert_eq!(prog.len(), 3);
/// ```
pub fn assemble(source: &str) -> Result<Vec<Instruction>, AsmError> {
    let mut program = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let line = i + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let instr = parse_line(raw, text, line)?;
        instr.validate().map_err(|v| AsmError {
            line,
            col: col_of(raw, text),
            message: v.to_string(),
            violation: Some(v),
        })?;
        if program.len() >= 32 {
            return err(line, col_of(raw, text), "program exceeds the 32-entry CRF");
        }
        program.push(instr);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_the_gemv_kernel() {
        let prog = assemble(
            "FILL SRF_M[0], WDATA\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             JUMP 1, #8\n\
             JUMP 0, #512\n\
             EXIT",
        )
        .unwrap();
        assert_eq!(prog.len(), 5);
        assert!(matches!(prog[1], Instruction::Mac { aam: true, .. }));
        assert!(matches!(prog[3], Instruction::Jump { target: 0, count: 512 }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let prog = assemble("; header\n\n  EXIT ; trailing\n").unwrap();
        assert_eq!(prog, vec![Instruction::Exit]);
    }

    #[test]
    fn display_round_trips_through_assemble() {
        use crate::isa::Operand;
        let originals = vec![
            Instruction::Nop { cycles: 7 },
            Instruction::Jump { target: 3, count: 100 },
            Instruction::Exit,
            Instruction::Mov {
                dst: Operand::grf_a(2),
                src: Operand::odd_bank(),
                relu: true,
                aam: true,
            },
            Instruction::Fill { dst: Operand::srf_a(1), src: Operand::wdata(), aam: false },
            Instruction::Add {
                dst: Operand::grf_b(4),
                src0: Operand::grf_a(4),
                src1: Operand::even_bank(),
                aam: true,
            },
            Instruction::Mad {
                dst: Operand::grf_a(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(5),
                aam: false,
            },
        ];
        for instr in originals {
            let text = format!("{instr}");
            let parsed = assemble(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, vec![instr], "`{text}`");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("EXIT\nBOGUS GRF_A[0]").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("BOGUS"));
        let e = assemble("MOV GRF_A[9], EVEN_BANK").unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = assemble("ADD GRF_A[0], EVEN_BANK").unwrap_err();
        assert!(e.message.contains("expects 3"));
        let e = assemble("JUMP 40, #1").unwrap_err();
        assert!(e.message.contains("CRF"), "{e}");
    }

    #[test]
    fn illegal_combinations_rejected_at_assembly() {
        let e = assemble("ADD GRF_A[0], EVEN_BANK, ODD_BANK").unwrap_err();
        assert!(e.message.contains("one bank"));
        assert_eq!(e.violation, Some(ValidateError::MultipleBankOperands));
    }

    #[test]
    fn oversized_program_rejected() {
        let src = "NOP 1\n".repeat(33);
        let e = assemble(&src).unwrap_err();
        assert!(e.message.contains("32"));
        assert_eq!((e.line, e.col), (33, 1));
    }

    /// One span assertion per assembler error variant: the reported
    /// (line, col) must point at the offending token so `pimlint` can
    /// render caret diagnostics.
    #[test]
    fn every_error_variant_carries_a_span() {
        let span = |src: &str| {
            let e = assemble(src).unwrap_err();
            (e.line, e.col, e.message.clone())
        };
        // Unknown mnemonic: points at the mnemonic, past indentation.
        let (l, c, m) = span("EXIT\n  BOGUS GRF_A[0]");
        assert_eq!((l, c), (2, 3), "{m}");
        assert!(m.contains("unknown mnemonic"));
        // Wrong operand count: points at the mnemonic.
        let (l, c, m) = span("ADD GRF_A[0], EVEN_BANK");
        assert_eq!((l, c), (1, 1), "{m}");
        assert!(m.contains("expects 3"));
        // Malformed index (missing `]`): points at the operand.
        let (l, c, m) = span("MOV GRF_A[0, EVEN_BANK");
        assert_eq!((l, c), (1, 5), "{m}");
        assert!(m.contains("malformed index"));
        // Non-numeric register index: points at the index digits.
        let (l, c, m) = span("MOV GRF_A[x], EVEN_BANK");
        assert_eq!((l, c), (1, 11), "{m}");
        assert!(m.contains("bad register index"));
        // Out-of-range register index: points at the index digits.
        let (l, c, m) = span("MOV GRF_A[9], EVEN_BANK");
        assert_eq!((l, c), (1, 11), "{m}");
        assert!(m.contains("out of range"));
        // Unknown operand name: points at the operand.
        let (l, c, m) = span("MOV GRF_A[0], BANK_3");
        assert_eq!((l, c), (1, 15), "{m}");
        assert!(m.contains("unknown operand"));
        // Bad NOP cycle count: points at the count.
        let (l, c, m) = span("NOP lots");
        assert_eq!((l, c), (1, 5), "{m}");
        assert!(m.contains("bad NOP count"));
        // Bad JUMP target: points at the target.
        let (l, c, m) = span("JUMP x, #1");
        assert_eq!((l, c), (1, 6), "{m}");
        assert!(m.contains("bad JUMP target"));
        // Bad JUMP count: points at the count.
        let (l, c, m) = span("JUMP 0, #x");
        assert_eq!((l, c), (1, 9), "{m}");
        assert!(m.contains("bad JUMP count"));
        // Validate violation: points at the instruction, carries the
        // typed violation.
        let e = assemble("EXIT\n   JUMP 40, #1 ; too far").unwrap_err();
        assert_eq!((e.line, e.col), (2, 4), "{}", e.message);
        assert_eq!(e.violation, Some(ValidateError::JumpTargetOutOfRange(40)));
        // Display carries line:col.
        assert!(e.to_string().starts_with("line 2:4: "), "{e}");
    }
}
