//! From-scratch IEEE-754 binary16 ([`F16`]) softfloat arithmetic for the
//! PIM-HBM datapath.
//!
//! The PIM execution unit of the paper ("Hardware Architecture and Software
//! Stack for PIM Based on Commercial DRAM Technology", ISCA 2021) computes on
//! 16-bit half-precision floating-point values: a 256-bit datapath holds 16
//! FP16 lanes, and each lane owns one FP16 multiplier and one FP16 adder
//! (Section IV-A, Table IV). This crate provides the exact scalar arithmetic
//! those lanes perform, so that the simulator in `pim-core` is functionally
//! accurate, bit for bit.
//!
//! # Correct rounding strategy
//!
//! Bit-level conversions between `f32` and binary16 are implemented from
//! scratch (see [`F16::from_f32`]); they perform round-to-nearest-even
//! including subnormal handling. Individual arithmetic operations (`+`, `-`,
//! `*`, `/`) are computed by converting the exactly representable operands
//! to `f32`, performing one correctly rounded `f32` operation, and rounding
//! the result back to 16 bits.
//!
//! This two-step scheme is *exactly* correctly rounded, not an approximation:
//! by the classical double-rounding theorem (Figueroa, 1995), rounding a
//! correctly rounded result from precision `q` to precision `p` equals direct
//! rounding whenever `q >= 2p + 2`. For binary16, `p = 11` and `f32` has
//! `q = 24 >= 2*11 + 2 = 24`, so every single operation gets the bit-exact
//! IEEE-754 result.
//!
//! # MAC semantics of the PIM FPU
//!
//! The hardware's MAC is **not** a fused multiply-add: the multiplier and the
//! adder are separate pipeline stages (third and fourth stage, Section IV-B),
//! each of which rounds to FP16. [`F16::mac`] therefore computes
//! `round16(round16(a*b) + acc)`, and the simulator's GEMV results match what
//! the silicon would produce.
//!
//! # Example
//!
//! ```
//! use pim_fp16::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.0);
//! assert_eq!((a * b).to_f32(), 3.0);
//!
//! // The PIM MOV(ReLU) data-movement operation:
//! assert_eq!(F16::from_f32(-0.75).relu(), F16::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod f16;
pub mod intmac;
mod slice;
pub mod softfloat;

pub use f16::F16;
pub use slice::{f16_slice_to_f32, f32_slice_to_f16, max_abs_error, max_ulp_error};

/// Number formats evaluated for the PIM MAC unit in Table I of the paper.
///
/// The paper compares MAC units in a 20nm DRAM logic process across these
/// formats and chooses FP16 (Section III-C). The area/energy figures that go
/// with each format live in `pim-energy`; this enum is the shared vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NumberFormat {
    /// 16-bit integer with a 48-bit accumulator (Table I baseline).
    Int16Acc48,
    /// 8-bit integer with a 48-bit accumulator.
    Int8Acc48,
    /// 8-bit integer with a 32-bit accumulator.
    Int8Acc32,
    /// IEEE-754 binary16 — the format the PIM-HBM silicon implements.
    Fp16,
    /// bfloat16 (8-bit exponent, 7-bit fraction).
    Bfloat16,
    /// IEEE-754 binary32 — rejected in the paper as too large for DRAM logic.
    Fp32,
}

impl NumberFormat {
    /// All formats in Table I order.
    pub const ALL: [NumberFormat; 6] = [
        NumberFormat::Int16Acc48,
        NumberFormat::Int8Acc48,
        NumberFormat::Int8Acc32,
        NumberFormat::Fp16,
        NumberFormat::Bfloat16,
        NumberFormat::Fp32,
    ];

    /// The human-readable label used in Table I.
    pub fn label(self) -> &'static str {
        match self {
            NumberFormat::Int16Acc48 => "INT16 (w/ 48-bit Acc.)",
            NumberFormat::Int8Acc48 => "INT8 (w/ 48-bit Acc.)",
            NumberFormat::Int8Acc32 => "INT8 (w/ 32-bit Acc.)",
            NumberFormat::Fp16 => "FP16",
            NumberFormat::Bfloat16 => "BFLOAT16",
            NumberFormat::Fp32 => "FP32",
        }
    }

    /// Width in bits of one operand in this format.
    pub fn operand_bits(self) -> u32 {
        match self {
            NumberFormat::Int16Acc48 | NumberFormat::Fp16 | NumberFormat::Bfloat16 => 16,
            NumberFormat::Int8Acc48 | NumberFormat::Int8Acc32 => 8,
            NumberFormat::Fp32 => 32,
        }
    }
}

impl std::fmt::Display for NumberFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_labels_match_table1() {
        assert_eq!(NumberFormat::Fp16.label(), "FP16");
        assert_eq!(NumberFormat::Int16Acc48.label(), "INT16 (w/ 48-bit Acc.)");
        assert_eq!(NumberFormat::ALL.len(), 6);
    }

    #[test]
    fn operand_bits() {
        assert_eq!(NumberFormat::Fp16.operand_bits(), 16);
        assert_eq!(NumberFormat::Int8Acc32.operand_bits(), 8);
        assert_eq!(NumberFormat::Fp32.operand_bits(), 32);
    }
}
