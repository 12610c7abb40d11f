//! Cycle-level HBM2 DRAM substrate for the PIM-HBM reproduction.
//!
//! The paper ("Hardware Architecture and Software Stack for PIM Based on
//! Commercial DRAM Technology", ISCA 2021) implements its PIM architecture on
//! a commercial HBM2 design and drives it with an **unmodified JEDEC-compliant
//! memory controller**. This crate is the synthetic equivalent of that
//! substrate: a timing-accurate, functionally-accurate model of an HBM2
//! pseudo channel hierarchy plus the host-side memory controller, in the
//! tradition of DRAMSim2 (which the paper itself uses for design-space
//! exploration in Section VII-D).
//!
//! # Organization (paper Fig. 2)
//!
//! * A stack ("device" / "cube") exposes [`PCH_PER_STACK`] = 16 pseudo
//!   channels; `pim_host::PimSystem` owns one [`MemoryController`] per
//!   pseudo channel, so this crate has no stack type of its own.
//! * A [`PseudoChannel`] contains 4 bank groups of 4 [`Bank`]s each
//!   (16 banks), a 64-bit data bus running at 2.4 Gbps/pin, and delivers one
//!   32-byte data block per column command (4 bursts of 64 bits).
//! * Each bank stores real bytes: every read returns the data a real device
//!   would return, so the PIM execution units built on top compute real
//!   FP16 results.
//!
//! # Timing model
//!
//! Time is counted in memory-bus cycles ([`Cycle`]) at 1.2 GHz (the paper's
//! 2.4 Gbps operating point, Table V). The model is event-driven: commands
//! carry issue timestamps and the channel tracks, per resource, the earliest
//! cycle at which each command class may issue ([`PseudoChannel::earliest_issue`]).
//! All JEDEC inter-command constraints relevant to the paper are enforced:
//! tRCD, tRP, tRAS, tRC, tCCD_S/tCCD_L, tRRD_S/tRRD_L, tFAW, tWR, tRTP,
//! tWTR, tCL/tWL/tBL and refresh (tREFI/tRFC).
//!
//! The paper's bandwidth arithmetic falls out of these parameters and is
//! locked in by tests: per pseudo channel, standard (single-bank) operation
//! sustains one 32 B column access per tCCD_S = 2 tCK → 19.2 GB/s, while
//! all-bank PIM operation performs 16 bank accesses per tCCD_L = 4 tCK →
//! 8× more on-chip bandwidth (Section III-B).
//!
//! # Example
//!
//! ```
//! use pim_dram::{MemoryController, ControllerConfig, Request};
//!
//! let mut ctrl = MemoryController::new(ControllerConfig::default());
//! let addr = 0x1000;
//! ctrl.enqueue(Request::write(addr, [0xAB; 32]));
//! ctrl.enqueue(Request::read(addr));
//! let done = ctrl.run_to_completion();
//! assert_eq!(done[1].data.unwrap(), [0xAB; 32]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod channel;
mod command;
mod controller;
pub mod ecc;
mod mapping;
mod request;
mod stats;
mod timing;
mod trace;

pub use bank::{Bank, BankState, COLS_PER_ROW, ROWS_PER_BANK};
pub use channel::{ChannelTimingState, CommandSink, IssueError, IssueOutcome, PseudoChannel};
pub use command::{BankAddr, Command, DataBlock, DATA_BLOCK_BYTES};
pub use controller::{ControllerConfig, MemoryController, PagePolicy, SchedulingPolicy};
pub use mapping::{AddressMapping, DecodedAddr};
pub use request::{CompletedRequest, Request, RequestKind};
pub use stats::{ChannelStats, ControllerStats};
pub use timing::{Cycle, TimingParams};
pub use trace::{TraceEntry, TracingSink};

/// Number of bank groups per pseudo channel (paper Fig. 2).
pub const BANK_GROUPS: usize = 4;
/// Number of banks per bank group (paper Fig. 2).
pub const BANKS_PER_GROUP: usize = 4;
/// Number of banks per pseudo channel.
pub const BANKS_PER_PCH: usize = BANK_GROUPS * BANKS_PER_GROUP;
/// Number of pseudo channels per HBM stack (paper Table V).
pub const PCH_PER_STACK: usize = 16;
