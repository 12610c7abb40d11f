//! The PIM-HBM architecture: the primary contribution of the paper
//! ("Hardware Architecture and Software Stack for PIM Based on Commercial
//! DRAM Technology", ISCA 2021), reproduced as a functional + timing model
//! on top of the [`pim_dram`] HBM2 substrate.
//!
//! # What lives here
//!
//! * [`isa`] — the 9-instruction, 32-bit RISC-style PIM ISA of Table III,
//!   with bit-exact encode/decode and the operand-combination rules that
//!   reproduce Table II's counts (114 compute combinations + 24 data
//!   movements).
//! * [`LaneVec`] — the 256-bit (16 × FP16) datapath word.
//! * Register files — [`Crf`] (32 × 32-bit instruction buffer), [`Grf`]
//!   (16 × 256-bit, split into GRF_A / GRF_B for the even / odd bank), and
//!   [`Srf`] (SRF_M + SRF_A scalar files), per Table IV.
//! * [`PimUnit`] — one execution unit (16-wide SIMD FPU + controller +
//!   registers) shared by a pair of banks, executing one instruction per
//!   column-command trigger in the 5-stage pipeline of Section IV-B,
//!   including zero-cycle JUMP, multi-cycle NOP, and address-aligned mode
//!   (AAM, Section IV-C).
//! * [`Sequencer`] — the unit's instruction sequencer (PPC, JUMP counters,
//!   NOP repeats, typed [`Halt`]), stepped over a [`Crf`]. It is the only
//!   one: the static trigger schedule ([`schedule`]) and `pim-verify`'s
//!   fence pass step it too.
//! * [`PimChannel`] — a pseudo channel of PIM-HBM: a plain
//!   [`pim_dram::PseudoChannel`] plus 8 PIM units, stepping the SB / AB /
//!   AB-PIM mode machine of Section III-B on **only** standard DRAM
//!   commands (mode transitions are ACT/PRE sequences to reserved
//!   `PIM_CONF` rows; registers are memory-mapped). It implements
//!   [`pim_dram::CommandSink`], so the unmodified [`pim_dram::MemoryController`]
//!   drives it — the paper's drop-in-replacement property.
//! * [`ModeWalker`] — that mode machine, the one copy of it: the device
//!   steps it on every accepted command, and so do the consumers that must
//!   know what a *recorded* command stream does without issuing it (launch
//!   replay, the launch key, and `pim-verify`'s protocol linter and fence
//!   pass).
//! * [`PimConfig`] / [`PimVariant`] — Table IV/V specification constants
//!   plus the design-space-exploration variants of Fig. 14 (2× resources,
//!   2-bank access, simultaneous RD+WR).
//!
//! # Example: entering all-bank mode with standard DRAM commands
//!
//! ```
//! use pim_core::{PimChannel, PimConfig, conf};
//! use pim_dram::{CommandSink, NoData, TimingParams};
//!
//! let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
//! let mut t = 0;
//! for cmd in conf::enter_ab_sequence() {
//!     t = ch.issue(&cmd, t, &mut NoData).unwrap().issued_at;
//! }
//! assert_eq!(ch.mode(), pim_core::PimMode::AllBank);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod config;
mod device;
pub mod isa;
mod regfile;
pub mod schedule;
mod unit;
mod vector;
mod walker;

pub mod conf {
    //! The reserved `PIM_CONF` memory map and mode-transition command
    //! sequences (Section III-B, Fig. 3).
    pub use crate::device::{
        enter_ab_sequence, exit_ab_sequence, grf_entry, row_write_sequence,
        set_pim_op_mode_sequence, ABMR_ROW, CRF_ROW, GRF_ROW, PIM_CONF_FIRST_ROW, PIM_OP_MODE_ROW,
        SBMR_ROW, SRF_ROW,
    };
    pub use crate::regfile::{crf_block_base, crf_block_words, crf_blocks};
}

pub use config::{PimConfig, PimVariant, UNIT_AREA_MM2, UNIT_GATE_COUNT, UNIT_MHZ};
pub use device::{DataTape, LaunchAccounting, PimChannel, PimChannelStats, PimMode, UnitMask};
pub use regfile::{Crf, Grf, Srf, CRF_ENTRIES};
pub use unit::{BankPort, Halt, PimUnit, Sequencer, Trigger, TriggerKind};
pub use vector::{Fp16, LaneVec, ValueDomain, LANES};
pub use walker::{ModeWalker, Step};
