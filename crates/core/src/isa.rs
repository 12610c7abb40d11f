//! The PIM instruction set architecture (Sections III-C and IV, Tables II
//! and III).
//!
//! Nine 32-bit RISC-style instructions in three classes:
//!
//! * flow control — `NOP`, `JUMP`, `EXIT`;
//! * arithmetic — `ADD`, `MUL`, `MAC`, `MAD`;
//! * data movement — `MOV` (with an optional ReLU flag) and `FILL`.
//!
//! # Bit layout
//!
//! The paper's Table III gives the field order but not every bit boundary;
//! this module fixes a concrete layout consistent with it (`U` = unused):
//!
//! ```text
//! ALU / Data:
//!   [31:28] OPCODE   [27:25] DST  [24:22] SRC0  [21:19] SRC1  [18:16] SRC2
//!   [15] A (AAM)  [14] U  [13] R (ReLU)  [12:11] U
//!   [10:8] DST#   [7] U  [6:4] SRC0#   [3] U  [2:0] SRC1#
//! Control:
//!   [31:28] OPCODE   [27:17] IMM0 (jump target)   [16:0] IMM1 (count)
//! ```
//!
//! Operand-kind encoding: `GRF_A=0, GRF_B=1, EVEN_BANK=2, ODD_BANK=3,
//! SRF_M=4, SRF_A=5, WDATA=6`. `WDATA` is the DRAM write datapath, the
//! operand a `WR`-triggered instruction consumes (and the second operand of
//! the PIM-HBM-SRW variant of Section VII-D).
//!
//! # Table II reproduction
//!
//! [`combination_counts`] enumerates every legal operand combination under
//! the structural rules of the microarchitecture and reproduces the paper's
//! counts exactly — MUL 32, ADD 40, MAC 14, MAD 28, MOV 24, i.e. "a total
//! of 114 operand combinations for computations, and 24 different ways of
//! data movement". The rules are:
//!
//! 1. at most one bank operand per instruction (one bank access per unit
//!    per trigger, Section IV-A);
//! 2. at most one scalar (SRF) operand per instruction (one scalar
//!    broadcast port);
//! 3. for the accumulating forms MAC / MAD, the two sources must not name
//!    the same GRF file (the accumulator occupies that file's port);
//! 4. MAC's destination is the accumulator itself (`SRC2 == DST`), so it
//!    contributes no independent destination choice.

use std::fmt;

/// Where an operand comes from or a result goes (3-bit field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperandKind {
    /// General register file A (serves the even bank).
    GrfA,
    /// General register file B (serves the odd bank).
    GrfB,
    /// The even bank's row buffer at the triggering (row, column).
    EvenBank,
    /// The odd bank's row buffer at the triggering (row, column).
    OddBank,
    /// Scalar register file M (multiplication scalars), broadcast 16×.
    SrfM,
    /// Scalar register file A (addition scalars), broadcast 16×.
    SrfA,
    /// The 32-byte block on the DRAM write datapath (WR triggers only).
    Wdata,
}

impl OperandKind {
    /// All operand kinds.
    pub const ALL: [OperandKind; 7] = [
        OperandKind::GrfA,
        OperandKind::GrfB,
        OperandKind::EvenBank,
        OperandKind::OddBank,
        OperandKind::SrfM,
        OperandKind::SrfA,
        OperandKind::Wdata,
    ];

    /// 3-bit field encoding.
    pub fn encode(self) -> u32 {
        match self {
            OperandKind::GrfA => 0,
            OperandKind::GrfB => 1,
            OperandKind::EvenBank => 2,
            OperandKind::OddBank => 3,
            OperandKind::SrfM => 4,
            OperandKind::SrfA => 5,
            OperandKind::Wdata => 6,
        }
    }

    /// Decodes a 3-bit field.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BadOperandKind`] for the reserved encoding 7.
    pub fn decode(bits: u32) -> Result<OperandKind, DecodeError> {
        match bits & 0x7 {
            0 => Ok(OperandKind::GrfA),
            1 => Ok(OperandKind::GrfB),
            2 => Ok(OperandKind::EvenBank),
            3 => Ok(OperandKind::OddBank),
            4 => Ok(OperandKind::SrfM),
            5 => Ok(OperandKind::SrfA),
            6 => Ok(OperandKind::Wdata),
            _ => Err(DecodeError::BadOperandKind(bits & 0x7)),
        }
    }

    /// `true` for the two bank operands.
    pub fn is_bank(self) -> bool {
        matches!(self, OperandKind::EvenBank | OperandKind::OddBank)
    }

    /// `true` for the two scalar-register operands.
    pub fn is_srf(self) -> bool {
        matches!(self, OperandKind::SrfM | OperandKind::SrfA)
    }

    /// `true` for the two general-register operands.
    pub fn is_grf(self) -> bool {
        matches!(self, OperandKind::GrfA | OperandKind::GrfB)
    }

    /// The assembly mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            OperandKind::GrfA => "GRF_A",
            OperandKind::GrfB => "GRF_B",
            OperandKind::EvenBank => "EVEN_BANK",
            OperandKind::OddBank => "ODD_BANK",
            OperandKind::SrfM => "SRF_M",
            OperandKind::SrfA => "SRF_A",
            OperandKind::Wdata => "WDATA",
        }
    }
}

impl fmt::Display for OperandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An operand reference: a kind plus a 3-bit register index (ignored for
/// bank and WDATA operands, whose "index" is the triggering column address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operand {
    /// Source/destination kind.
    pub kind: OperandKind,
    /// Register index (0..8); meaningful for GRF/SRF kinds only.
    pub idx: u8,
}

impl Operand {
    /// Creates an operand reference.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8` (the # fields are 3 bits; GRF_A/GRF_B/SRF_M/
    /// SRF_A each have 8 entries, Table IV).
    pub fn new(kind: OperandKind, idx: u8) -> Operand {
        assert!(idx < 8, "register index {idx} out of range (3-bit field)");
        Operand { kind, idx }
    }

    /// A GRF_A register.
    pub fn grf_a(idx: u8) -> Operand {
        Operand::new(OperandKind::GrfA, idx)
    }

    /// A GRF_B register.
    pub fn grf_b(idx: u8) -> Operand {
        Operand::new(OperandKind::GrfB, idx)
    }

    /// The even bank at the triggering address.
    pub fn even_bank() -> Operand {
        Operand::new(OperandKind::EvenBank, 0)
    }

    /// The odd bank at the triggering address.
    pub fn odd_bank() -> Operand {
        Operand::new(OperandKind::OddBank, 0)
    }

    /// An SRF_M register.
    pub fn srf_m(idx: u8) -> Operand {
        Operand::new(OperandKind::SrfM, idx)
    }

    /// An SRF_A register.
    pub fn srf_a(idx: u8) -> Operand {
        Operand::new(OperandKind::SrfA, idx)
    }

    /// The write-data bus.
    pub fn wdata() -> Operand {
        Operand::new(OperandKind::Wdata, 0)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind.is_bank() || self.kind == OperandKind::Wdata {
            write!(f, "{}", self.kind)
        } else {
            write!(f, "{}[{}]", self.kind, self.idx)
        }
    }
}

/// The nine PIM instructions (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// No operation for `cycles` consecutive triggers ("multi-cycle NOP",
    /// Section III-C). `cycles == 0` is not meaningful and decodes as 1.
    Nop {
        /// Number of triggers consumed.
        cycles: u32,
    },
    /// Zero-cycle loop: jump back to CRF entry `target`; the loop body
    /// executes `count` times in total (the jump is taken `count - 1`
    /// times).
    Jump {
        /// CRF index of the loop head (0..32).
        target: u8,
        /// Total body iterations.
        count: u32,
    },
    /// Halt the PIM unit until the program counter is reset.
    Exit,
    /// `dst = src` (256-bit move); if `relu`, apply the ReLU sign-bit mux
    /// during the move ("MOV(ReLU)").
    Mov {
        /// Destination.
        dst: Operand,
        /// Source.
        src: Operand,
        /// Apply ReLU ('R' bit of Table III).
        relu: bool,
        /// Address-aligned mode ('A' bit).
        aam: bool,
    },
    /// `dst = src` specialized for loading registers from the bank or the
    /// write-data bus.
    Fill {
        /// Destination register.
        dst: Operand,
        /// Source.
        src: Operand,
        /// Address-aligned mode.
        aam: bool,
    },
    /// `dst = src0 + src1`.
    Add {
        /// Destination (GRF).
        dst: Operand,
        /// First addend.
        src0: Operand,
        /// Second addend.
        src1: Operand,
        /// Address-aligned mode.
        aam: bool,
    },
    /// `dst = src0 * src1`.
    Mul {
        /// Destination (GRF).
        dst: Operand,
        /// Multiplicand.
        src0: Operand,
        /// Multiplier.
        src1: Operand,
        /// Address-aligned mode.
        aam: bool,
    },
    /// `dst += src0 * src1` — the accumulator is the destination register
    /// itself (SRC2 == DST, Section III-C).
    Mac {
        /// Accumulator and destination (GRF).
        dst: Operand,
        /// Multiplicand.
        src0: Operand,
        /// Multiplier.
        src1: Operand,
        /// Address-aligned mode.
        aam: bool,
    },
    /// `dst = src0 * src1 + SRF_A[src1.idx]` — "SRC1 # and SRC2 # point to
    /// the same register index but in different register files" (Section
    /// III-C).
    Mad {
        /// Destination (GRF).
        dst: Operand,
        /// Multiplicand.
        src0: Operand,
        /// Multiplier.
        src1: Operand,
        /// Address-aligned mode.
        aam: bool,
    },
}

/// Why a 32-bit word failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode nibble.
    BadOpcode(u32),
    /// Reserved operand-kind encoding.
    BadOperandKind(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            DecodeError::BadOperandKind(k) => write!(f, "reserved operand kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const OP_NOP: u32 = 0x0;
const OP_JUMP: u32 = 0x1;
const OP_EXIT: u32 = 0x2;
const OP_MOV: u32 = 0x3;
const OP_FILL: u32 = 0x4;
const OP_ADD: u32 = 0x5;
const OP_MUL: u32 = 0x6;
const OP_MAC: u32 = 0x7;
const OP_MAD: u32 = 0x8;

fn encode_fields(
    opcode: u32,
    dst: Operand,
    src0: Operand,
    src1: Option<Operand>,
    aam: bool,
    relu: bool,
) -> u32 {
    let s1 = src1.unwrap_or(Operand { kind: OperandKind::GrfA, idx: 0 });
    (opcode << 28)
        | (dst.kind.encode() << 25)
        | (src0.kind.encode() << 22)
        | (s1.kind.encode() << 19)
        | ((aam as u32) << 15)
        | ((relu as u32) << 13)
        | ((dst.idx as u32) << 8)
        | ((src0.idx as u32) << 4)
        | (s1.idx as u32)
}

fn decode_operand(word: u32, kind_shift: u32, idx_shift: u32) -> Result<Operand, DecodeError> {
    let kind = OperandKind::decode((word >> kind_shift) & 0x7)?;
    let idx = ((word >> idx_shift) & 0x7) as u8;
    Ok(Operand { kind, idx })
}

impl Instruction {
    /// Encodes to the 32-bit instruction word of Table III.
    ///
    /// ```
    /// use pim_core::isa::{Instruction, Operand};
    /// let i = Instruction::Mac {
    ///     dst: Operand::grf_b(2),
    ///     src0: Operand::even_bank(),
    ///     src1: Operand::srf_m(2),
    ///     aam: true,
    /// };
    /// assert_eq!(Instruction::decode(i.encode()), Ok(i));
    /// ```
    pub fn encode(&self) -> u32 {
        match *self {
            Instruction::Nop { cycles } => (OP_NOP << 28) | (cycles & 0x1FFFF),
            Instruction::Jump { target, count } => {
                (OP_JUMP << 28) | (((target as u32) & 0x7FF) << 17) | (count & 0x1FFFF)
            }
            Instruction::Exit => OP_EXIT << 28,
            Instruction::Mov { dst, src, relu, aam } => {
                encode_fields(OP_MOV, dst, src, None, aam, relu)
            }
            Instruction::Fill { dst, src, aam } => {
                encode_fields(OP_FILL, dst, src, None, aam, false)
            }
            Instruction::Add { dst, src0, src1, aam } => {
                encode_fields(OP_ADD, dst, src0, Some(src1), aam, false)
            }
            Instruction::Mul { dst, src0, src1, aam } => {
                encode_fields(OP_MUL, dst, src0, Some(src1), aam, false)
            }
            Instruction::Mac { dst, src0, src1, aam } => {
                encode_fields(OP_MAC, dst, src0, Some(src1), aam, false)
            }
            Instruction::Mad { dst, src0, src1, aam } => {
                encode_fields(OP_MAD, dst, src0, Some(src1), aam, false)
            }
        }
    }

    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for unknown opcodes or reserved operand
    /// kinds.
    pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
        let opcode = word >> 28;
        match opcode {
            OP_NOP => {
                let cycles = word & 0x1FFFF;
                Ok(Instruction::Nop { cycles: cycles.max(1) })
            }
            OP_JUMP => Ok(Instruction::Jump {
                target: ((word >> 17) & 0x7FF) as u8,
                count: word & 0x1FFFF,
            }),
            OP_EXIT => Ok(Instruction::Exit),
            OP_MOV | OP_FILL | OP_ADD | OP_MUL | OP_MAC | OP_MAD => {
                let dst = decode_operand(word, 25, 8)?;
                let src0 = decode_operand(word, 22, 4)?;
                let src1 = decode_operand(word, 19, 0)?;
                let aam = (word >> 15) & 1 == 1;
                let relu = (word >> 13) & 1 == 1;
                Ok(match opcode {
                    OP_MOV => Instruction::Mov { dst, src: src0, relu, aam },
                    OP_FILL => Instruction::Fill { dst, src: src0, aam },
                    OP_ADD => Instruction::Add { dst, src0, src1, aam },
                    OP_MUL => Instruction::Mul { dst, src0, src1, aam },
                    OP_MAC => Instruction::Mac { dst, src0, src1, aam },
                    _ => Instruction::Mad { dst, src0, src1, aam },
                })
            }
            other => Err(DecodeError::BadOpcode(other)),
        }
    }

    /// `true` for flow-control instructions (NOP/JUMP/EXIT).
    pub fn is_control(&self) -> bool {
        matches!(self, Instruction::Nop { .. } | Instruction::Jump { .. } | Instruction::Exit)
    }

    /// The destination operand, for instruction classes that write one
    /// (`None` for NOP/JUMP/EXIT).
    pub fn dst(&self) -> Option<Operand> {
        match *self {
            Instruction::Mov { dst, .. }
            | Instruction::Fill { dst, .. }
            | Instruction::Add { dst, .. }
            | Instruction::Mul { dst, .. }
            | Instruction::Mac { dst, .. }
            | Instruction::Mad { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The explicit source operands in encoding order (empty for
    /// control instructions). MAC's implicit accumulator (its `dst`) and
    /// MAD's implicit SRF_A addend are *not* included — callers modelling
    /// dataflow must account for those per Table III.
    pub fn sources(&self) -> Vec<Operand> {
        match *self {
            Instruction::Mov { src, .. } | Instruction::Fill { src, .. } => vec![src],
            Instruction::Add { src0, src1, .. }
            | Instruction::Mul { src0, src1, .. }
            | Instruction::Mac { src0, src1, .. }
            | Instruction::Mad { src0, src1, .. } => vec![src0, src1],
            _ => Vec::new(),
        }
    }

    /// The address-aligned-mode flag, if the instruction class carries one.
    pub fn aam(&self) -> bool {
        match *self {
            Instruction::Mov { aam, .. }
            | Instruction::Fill { aam, .. }
            | Instruction::Add { aam, .. }
            | Instruction::Mul { aam, .. }
            | Instruction::Mac { aam, .. }
            | Instruction::Mad { aam, .. } => aam,
            _ => false,
        }
    }

    /// Validates the operand combination against the structural rules of
    /// the microarchitecture (see module docs).
    ///
    /// # Errors
    ///
    /// Returns the violated rule as a typed [`ValidateError`]; its
    /// `Display` form is a human-readable description.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let check =
            |dst: Operand, srcs: &[Operand], accumulating: bool| -> Result<(), ValidateError> {
                if !dst.kind.is_grf() && !dst.kind.is_bank() && !dst.kind.is_srf() {
                    return Err(ValidateError::BadDestination(dst.kind));
                }
                let banks =
                    srcs.iter().filter(|o| o.kind.is_bank()).count() + dst.kind.is_bank() as usize;
                if banks > 1 {
                    return Err(ValidateError::MultipleBankOperands);
                }
                let srfs = srcs.iter().filter(|o| o.kind.is_srf()).count();
                if srfs > 1 {
                    return Err(ValidateError::MultipleScalarOperands);
                }
                if accumulating
                    && srcs.len() == 2
                    && srcs[0].kind.is_grf()
                    && srcs[0].kind == srcs[1].kind
                {
                    return Err(ValidateError::SameGrfFileTwice);
                }
                Ok(())
            };
        match *self {
            Instruction::Nop { .. } | Instruction::Exit => Ok(()),
            Instruction::Jump { target, count } => {
                if target >= 32 {
                    return Err(ValidateError::JumpTargetOutOfRange(target));
                }
                if count == 0 {
                    return Err(ValidateError::JumpZeroCount);
                }
                Ok(())
            }
            Instruction::Mov { dst, src, .. } | Instruction::Fill { dst, src, .. } => {
                check(dst, &[src], false)
            }
            Instruction::Add { dst, src0, src1, .. } => {
                if !dst.kind.is_grf() {
                    return Err(ValidateError::NonGrfDestination("ADD"));
                }
                check(dst, &[src0, src1], false)
            }
            Instruction::Mul { dst, src0, src1, .. } => {
                if !dst.kind.is_grf() {
                    return Err(ValidateError::NonGrfDestination("MUL"));
                }
                if src0.kind.is_srf() || src1.kind == OperandKind::SrfA {
                    return Err(ValidateError::ScalarOperandMisplaced("MUL"));
                }
                check(dst, &[src0, src1], false)
            }
            Instruction::Mac { dst, src0, src1, .. } | Instruction::Mad { dst, src0, src1, .. } => {
                if !dst.kind.is_grf() {
                    return Err(ValidateError::NonGrfDestination("MAC/MAD"));
                }
                if src0.kind.is_srf() || src1.kind == OperandKind::SrfA {
                    return Err(ValidateError::ScalarOperandMisplaced("MAC/MAD"));
                }
                check(dst, &[src0, src1], true)
            }
        }
    }
}

/// A structural operand-combination violation reported by
/// [`Instruction::validate`] — the Table II/III routing rules.
///
/// The `Display` output reproduces the historical string messages, so
/// user-facing diagnostics are unchanged; the typed variants let tooling
/// such as `pim-verify` attach stable error codes without parsing text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidateError {
    /// The operand kind cannot be written (e.g. `WDATA` as DST).
    BadDestination(OperandKind),
    /// More than one bank operand in a single instruction (the column
    /// decoder can drive only one bank access per trigger).
    MultipleBankOperands,
    /// More than one scalar (SRF) operand in a single instruction.
    MultipleScalarOperands,
    /// An accumulating op (MAC/MAD) reads the same GRF file twice.
    SameGrfFileTwice,
    /// A JUMP target that does not fit the 32-entry CRF.
    JumpTargetOutOfRange(u8),
    /// A JUMP with a zero iteration count.
    JumpZeroCount,
    /// An arithmetic destination that must be a GRF is not one; carries
    /// the mnemonic (`"ADD"`, `"MUL"`, `"MAC/MAD"`).
    NonGrfDestination(&'static str),
    /// A scalar operand in a position the datapath cannot route; carries
    /// the mnemonic (`"MUL"`, `"MAC/MAD"`).
    ScalarOperandMisplaced(&'static str),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidateError::BadDestination(kind) => write!(f, "{kind} cannot be a destination"),
            ValidateError::MultipleBankOperands => {
                f.write_str("at most one bank operand per instruction")
            }
            ValidateError::MultipleScalarOperands => {
                f.write_str("at most one scalar (SRF) operand per instruction")
            }
            ValidateError::SameGrfFileTwice => {
                f.write_str("accumulating ops cannot read the same GRF file twice")
            }
            ValidateError::JumpTargetOutOfRange(_) => {
                f.write_str("JUMP target beyond the 32-entry CRF")
            }
            ValidateError::JumpZeroCount => f.write_str("JUMP with zero iterations"),
            ValidateError::NonGrfDestination(mnemonic) => {
                write!(f, "{mnemonic} destination must be a GRF")
            }
            ValidateError::ScalarOperandMisplaced(mnemonic) => {
                write!(f, "{mnemonic} scalars come from SRF_M as SRC1 only")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = |aam: bool| if aam { " (AAM)" } else { "" };
        match *self {
            Instruction::Nop { cycles } => write!(f, "NOP {cycles}"),
            Instruction::Jump { target, count } => write!(f, "JUMP {target}, #{count}"),
            Instruction::Exit => write!(f, "EXIT"),
            Instruction::Mov { dst, src, relu, aam } => {
                write!(f, "MOV{} {dst}, {src}{}", if relu { "(ReLU)" } else { "" }, a(aam))
            }
            Instruction::Fill { dst, src, aam } => write!(f, "FILL {dst}, {src}{}", a(aam)),
            Instruction::Add { dst, src0, src1, aam } => {
                write!(f, "ADD {dst}, {src0}, {src1}{}", a(aam))
            }
            Instruction::Mul { dst, src0, src1, aam } => {
                write!(f, "MUL {dst}, {src0}, {src1}{}", a(aam))
            }
            Instruction::Mac { dst, src0, src1, aam } => {
                write!(f, "MAC {dst}, {src0}, {src1}{}", a(aam))
            }
            Instruction::Mad { dst, src0, src1, aam } => {
                write!(f, "MAD {dst}, {src0}, {src1}{}", a(aam))
            }
        }
    }
}

/// Operand-combination counts per operation type, reproducing Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinationCounts {
    /// MUL combinations (paper: 32).
    pub mul: usize,
    /// ADD combinations (paper: 40).
    pub add: usize,
    /// MAC combinations (paper: 14).
    pub mac: usize,
    /// MAD combinations (paper: 28).
    pub mad: usize,
    /// MOV / MOV(ReLU) data movements (paper: 24).
    pub mov: usize,
}

impl CombinationCounts {
    /// Total compute combinations (paper: 114).
    pub fn compute_total(&self) -> usize {
        self.mul + self.add + self.mac + self.mad
    }
}

/// Enumerates every legal operand combination per Table II's operand menus
/// and the structural rules in the module docs.
///
/// The menus (Table II): MUL reads SRC0 ∈ {GRF, BANK}, SRC1 ∈ {GRF, BANK,
/// SRF_M}; ADD reads both sources from {GRF, BANK, SRF_A}; MAC/MAD read like
/// MUL (MAD's SRC2 is implicitly SRF_A); MOV reads {GRF, BANK, SRF} with an
/// independent ReLU flag. "GRF" and "BANK" each stand for two concrete
/// operands (A/B files, even/odd banks).
pub fn combination_counts() -> CombinationCounts {
    use OperandKind::*;
    let grf = [GrfA, GrfB];
    let bank = [EvenBank, OddBank];

    let mul_src0: Vec<OperandKind> = grf.iter().chain(bank.iter()).copied().collect();
    let mul_src1: Vec<OperandKind> =
        grf.iter().chain(bank.iter()).chain([SrfM].iter()).copied().collect();
    let add_src: Vec<OperandKind> =
        grf.iter().chain(bank.iter()).chain([SrfA].iter()).copied().collect();
    let mov_src: Vec<OperandKind> =
        grf.iter().chain(bank.iter()).chain([SrfM, SrfA].iter()).copied().collect();

    let count_pairs = |s0s: &[OperandKind], s1s: &[OperandKind], accumulating: bool| {
        let mut n = 0;
        for &s0 in s0s {
            for &s1 in s1s {
                if s0.is_bank() && s1.is_bank() {
                    continue; // rule 1
                }
                if s0.is_srf() && s1.is_srf() {
                    continue; // rule 2
                }
                if accumulating && s0.is_grf() && s0 == s1 {
                    continue; // rule 3
                }
                n += 1;
            }
        }
        n
    };

    let dsts = 2; // GRF_A or GRF_B
    let mul = count_pairs(&mul_src0, &mul_src1, false) * dsts;
    let add = count_pairs(&add_src, &add_src, false) * dsts;
    // Rule 4: MAC's destination IS the accumulator (SRC2 == DST), so the
    // pair count is the combination count.
    let mac = count_pairs(&mul_src0, &mul_src1, true);
    let mad = count_pairs(&mul_src0, &mul_src1, true) * dsts;
    // MOV: 6 sources × 2 GRF destinations × ReLU on/off.
    let mov = mov_src.len() * dsts * 2;

    CombinationCounts { mul, add, mac, mad, mov }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_counts_reproduced() {
        let c = combination_counts();
        assert_eq!(c.mul, 32, "MUL");
        assert_eq!(c.add, 40, "ADD");
        assert_eq!(c.mac, 14, "MAC");
        assert_eq!(c.mad, 28, "MAD");
        assert_eq!(c.mov, 24, "MOV");
        assert_eq!(c.compute_total(), 114, "total compute combinations");
    }

    #[test]
    fn encode_decode_roundtrip_all_classes() {
        let instrs = [
            Instruction::Nop { cycles: 3 },
            Instruction::Jump { target: 5, count: 100 },
            Instruction::Exit,
            Instruction::Mov {
                dst: Operand::grf_a(1),
                src: Operand::even_bank(),
                relu: true,
                aam: false,
            },
            Instruction::Fill { dst: Operand::srf_m(0), src: Operand::wdata(), aam: false },
            Instruction::Add {
                dst: Operand::grf_b(7),
                src0: Operand::grf_a(3),
                src1: Operand::odd_bank(),
                aam: true,
            },
            Instruction::Mul {
                dst: Operand::grf_a(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(4),
                aam: false,
            },
            Instruction::Mac {
                dst: Operand::grf_b(2),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(2),
                aam: true,
            },
            Instruction::Mad {
                dst: Operand::grf_a(6),
                src0: Operand::odd_bank(),
                src1: Operand::srf_m(1),
                aam: false,
            },
        ];
        for i in instrs {
            let word = i.encode();
            assert_eq!(Instruction::decode(word), Ok(i), "word {word:#010x} ({i})");
        }
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        assert_eq!(Instruction::decode(0xF000_0000), Err(DecodeError::BadOpcode(0xF)));
        assert_eq!(Instruction::decode(0x9000_0000), Err(DecodeError::BadOpcode(0x9)));
    }

    #[test]
    fn decode_rejects_reserved_operand_kind() {
        // MOV with dst kind 7.
        let word = (0x3u32 << 28) | (7 << 25);
        assert_eq!(Instruction::decode(word), Err(DecodeError::BadOperandKind(7)));
    }

    #[test]
    fn nop_zero_decodes_as_one() {
        let w = Instruction::Nop { cycles: 0 }.encode();
        assert_eq!(Instruction::decode(w), Ok(Instruction::Nop { cycles: 1 }));
    }

    #[test]
    fn validate_accepts_paper_examples() {
        // MAC GRF_B += GRF_A × BANK (Section III-C).
        Instruction::Mac {
            dst: Operand::grf_b(0),
            src0: Operand::grf_a(0),
            src1: Operand::even_bank(),
            aam: false,
        }
        .validate()
        .unwrap();
        // MAD GRF_A = BANK × SRF_M + SRF_A (Section III-C).
        Instruction::Mad {
            dst: Operand::grf_a(0),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(3),
            aam: false,
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn validate_rejects_double_bank() {
        let bad = Instruction::Add {
            dst: Operand::grf_a(0),
            src0: Operand::even_bank(),
            src1: Operand::odd_bank(),
            aam: false,
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err, ValidateError::MultipleBankOperands);
        assert!(err.to_string().contains("one bank"));
    }

    #[test]
    fn validate_rejects_double_srf() {
        let bad = Instruction::Add {
            dst: Operand::grf_a(0),
            src0: Operand::srf_a(0),
            src1: Operand::srf_a(1),
            aam: false,
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err, ValidateError::MultipleScalarOperands);
        assert!(err.to_string().contains("scalar"));
    }

    #[test]
    fn validate_rejects_mac_same_grf_file() {
        let bad = Instruction::Mac {
            dst: Operand::grf_a(0),
            src0: Operand::grf_a(1),
            src1: Operand::grf_a(2),
            aam: false,
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err, ValidateError::SameGrfFileTwice);
        assert!(err.to_string().contains("same GRF file"));
    }

    #[test]
    fn validate_rejects_bad_jump() {
        assert_eq!(
            Instruction::Jump { target: 32, count: 1 }.validate(),
            Err(ValidateError::JumpTargetOutOfRange(32))
        );
        assert_eq!(
            Instruction::Jump { target: 0, count: 0 }.validate(),
            Err(ValidateError::JumpZeroCount)
        );
    }

    #[test]
    fn validate_rejects_non_grf_arith_dst() {
        let bad = Instruction::Mul {
            dst: Operand::even_bank(),
            src0: Operand::grf_a(0),
            src1: Operand::grf_b(0),
            aam: false,
        };
        assert_eq!(bad.validate(), Err(ValidateError::NonGrfDestination("MUL")));
    }

    #[test]
    fn instruction_classes() {
        assert!(Instruction::Exit.is_control());
        assert!(Instruction::Nop { cycles: 1 }.is_control());
        assert!(!Instruction::Add {
            dst: Operand::grf_a(0),
            src0: Operand::grf_a(1),
            src1: Operand::grf_b(0),
            aam: false
        }
        .is_control());
    }

    #[test]
    fn display_formats() {
        let i = Instruction::Mac {
            dst: Operand::grf_b(1),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(2),
            aam: true,
        };
        let s = format!("{i}");
        assert!(s.contains("MAC") && s.contains("GRF_B[1]") && s.contains("AAM"), "{s}");
        assert_eq!(format!("{}", Instruction::Exit), "EXIT");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn operand_index_bounds() {
        Operand::grf_a(8);
    }
}
