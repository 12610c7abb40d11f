//! The pseudo channel: 16 banks in 4 bank groups behind shared CA/data
//! buses, timed by one [`Clock`].

use crate::bank::{Bank, COLS_PER_ROW};
use crate::clock::Clock;
use crate::command::{BankAddr, Command, DataBlock};
use crate::stats::ChannelStats;
use crate::timing::{Cycle, TimingParams};
use std::fmt;

/// Why a command could not issue: the bank state forbids it at any cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssueError {
    /// ACT addressed to a bank that already has an open row.
    BankAlreadyOpen,
    /// Column command or PRE addressed to a bank with no open row (PRE to a
    /// closed bank is a NOP on real devices; we flag it to catch controller
    /// bugs).
    BankNotOpen,
    /// REF issued while one or more banks still have open rows.
    BanksOpenOnRefresh,
}

impl fmt::Display for IssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueError::BankAlreadyOpen => write!(f, "ACT to a bank with an open row"),
            IssueError::BankNotOpen => write!(f, "column/PRE command to a closed bank"),
            IssueError::BanksOpenOnRefresh => write!(f, "REF with open rows"),
        }
    }
}

impl std::error::Error for IssueError {}

/// The result of successfully issuing a command: when, not what. A read's
/// block goes to the [`DataPort`] the caller hands [`CommandSink::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// The cycle at which the command issued.
    pub issued_at: Cycle,
    /// For `Rd`/`Wr`: the cycle at which the (last beat of) data crosses the
    /// bus — `issued_at + tCL/tWL + tBL`.
    pub data_at: Option<Cycle>,
}

/// What [`CommandSink::issue`] returns.
pub type Issued = Result<IssueOutcome, IssueError>;

/// Where a read's data block goes: the caller names it at the one
/// [`CommandSink::issue`] entry point. A sink reads the array for a port
/// only when the port asks for the block.
pub trait DataPort {
    /// Takes the block a read drives onto the data bus; `read` produces it.
    fn deliver(&mut self, read: impl FnOnce() -> DataBlock);
}

/// The port of a caller that discards read data — the kernel engine, through
/// [`crate::MemoryController::issue_raw`]. No block is read for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoData;

impl DataPort for NoData {
    #[inline(always)]
    fn deliver(&mut self, _: impl FnOnce() -> DataBlock) {}
}

/// A port that keeps the block of the last read that delivered one.
impl DataPort for Option<DataBlock> {
    #[inline(always)]
    fn deliver(&mut self, read: impl FnOnce() -> DataBlock) {
        *self = Some(read());
    }
}

/// Anything that accepts DRAM commands with channel timing semantics.
///
/// [`PseudoChannel`] implements this for a plain HBM2 channel; `pim-core`
/// wraps a channel in a PIM device model that implements the same trait, so
/// the unmodified [`crate::MemoryController`] drives both — which is exactly
/// the drop-in-replacement property the paper demonstrates.
///
/// A sink chooses each command's issue cycle itself: `issue(cmd, now)`
/// issues at the earliest legal cycle at or after `now`, found with one
/// clock lookup, and reports it in [`IssueOutcome::issued_at`]. A caller
/// stepping a stream writes `now = sink.issue(cmd, now, &mut NoData)?.issued_at`.
pub trait CommandSink {
    /// The cycle `issue(cmd, now)` would choose, without issuing — what
    /// FR-FCFS ranks its candidates by. State errors surface from `issue`.
    fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle;

    /// Issues `cmd` at the earliest cycle at or after `now` that the
    /// timing allows; a read's block goes to `port`.
    ///
    /// # Errors
    ///
    /// Returns an [`IssueError`] if the bank state forbids the command; the
    /// channel state is unchanged on error.
    fn issue<P: DataPort>(&mut self, cmd: &Command, now: Cycle, port: &mut P) -> Issued;

    /// The open row of `bank`, if any — the controller's row-hit oracle.
    fn open_row(&self, bank: BankAddr) -> Option<u32>;

    /// Timing parameters of the underlying channel.
    fn timing(&self) -> &TimingParams;
}

/// An HBM2 pseudo channel: 4 bank groups × 4 banks with shared buses.
///
/// The banks' storage, the rows their buffers hold, residency and stats
/// live here, and so do the legality errors; every timing decision and
/// the open / closed state are its [`Clock`]'s. All state mutation goes
/// through [`CommandSink::issue`]; on error no state changes.
#[derive(Debug, Clone)]
pub struct PseudoChannel {
    timing: TimingParams,
    banks: Vec<Bank>,
    clock: Clock,
    stats: ChannelStats,
}

impl PseudoChannel {
    /// Creates a channel with the given timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`TimingParams::validate`].
    pub fn new(timing: TimingParams) -> PseudoChannel {
        timing.validate().expect("invalid timing parameters");
        PseudoChannel {
            timing,
            banks: (0..crate::BANKS_PER_PCH).map(|_| Bank::new()).collect(),
            clock: Clock::default(),
            stats: ChannelStats::default(),
        }
    }

    /// Immutable access to a bank (for PIM units and tests).
    pub fn bank(&self, addr: BankAddr) -> &Bank {
        &self.banks[addr.flat_index()]
    }

    /// Mutable access to a bank (for PIM units, which sit at the bank I/O
    /// boundary and read/write operands directly — Section III-A).
    pub fn bank_mut(&mut self, addr: BankAddr) -> &mut Bank {
        &mut self.banks[addr.flat_index()]
    }

    /// The channel's JEDEC clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Mutable access to the clock, for the PIM device's all-bank hand-off,
    /// its fault stall and the fast path's restore. The open flags must
    /// keep matching the banks' rows, which only [`CommandSink::issue`] and
    /// the `all_bank_*` operations move: the first two leave the flags
    /// alone, and a restore writes an all-closed clock over an all-closed
    /// channel.
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Accumulated per-channel statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// True if every bank is precharged.
    pub fn all_banks_closed(&self) -> bool {
        self.clock.all_closed()
    }

    /// Cycles `bank` has spent with a row open, up to `now`.
    pub fn open_cycles(&self, bank: BankAddr, now: Cycle) -> u64 {
        self.banks[bank.flat_index()].open_cycles(now, self.clock.is_open(bank))
    }

    /// Bank-state residency up to `now`: total cycles banks spent with a
    /// row open and total cycles spent precharged, summed across the 16
    /// banks (so the two numbers add up to `16 * now`).
    pub fn bank_residency(&self, now: Cycle) -> (u64, u64) {
        let open: u64 = BankAddr::all().map(|b| self.open_cycles(b, now)).sum();
        let total = crate::BANKS_PER_PCH as u64 * now;
        (open, total.saturating_sub(open))
    }

    /// All-bank activate: functionally opens `row` in every bank at once.
    ///
    /// This is the PIM device's AB-mode row operation (Section III-B: "the
    /// same row and column of all the banks are concurrently accessed in a
    /// lock-step manner by a single DRAM command"). The caller (the PIM
    /// device model) owns AB-mode timing; per-bank horizons are updated so
    /// a later return to single-bank mode stays legal.
    ///
    /// # Panics
    ///
    /// Panics if any bank already has an open row — lock-step state must be
    /// uniform.
    pub fn all_bank_activate(&mut self, row: u32, cycle: Cycle) {
        assert!(self.all_banks_closed(), "all-bank ACT with an open row");
        for b in &mut self.banks {
            b.activate(row, cycle);
        }
        self.clock.all_bank_activate(cycle, &self.timing);
        self.stats.acts += crate::BANKS_PER_PCH as u64;
    }

    /// All-bank precharge: functionally closes every bank (what PREA does).
    pub fn all_bank_precharge(&mut self, cycle: Cycle) {
        for (b, bank) in BankAddr::all().zip(&mut self.banks) {
            if self.clock.is_open(b) {
                bank.precharge(cycle);
            }
        }
        self.clock.all_bank_precharge(cycle, &self.timing);
        self.stats.pres += 1;
    }

    /// Adds a recorded launch's command-count deltas into this channel's
    /// statistics (the launch-replay accounting path).
    pub fn merge_stats(&mut self, delta: &ChannelStats) {
        self.stats.merge(delta);
    }
}

impl CommandSink for PseudoChannel {
    fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle {
        self.clock.earliest(cmd, now)
    }

    // The leaf of every issue path: inlined into the PIM device and the
    // controller loops, it costs no call per command.
    #[inline(always)]
    fn issue<P: DataPort>(&mut self, cmd: &Command, now: Cycle, port: &mut P) -> Issued {
        let cycle = self.clock.earliest(cmd, now);
        let mut outcome = IssueOutcome { issued_at: cycle, data_at: None };
        let t = &self.timing;
        match *cmd {
            Command::Act { bank, .. } if self.clock.is_open(bank) => {
                return Err(IssueError::BankAlreadyOpen)
            }
            Command::Rd { bank, .. } | Command::Wr { bank, .. } | Command::Pre { bank }
                if !self.clock.is_open(bank) =>
            {
                return Err(IssueError::BankNotOpen)
            }
            Command::Ref if !self.clock.all_closed() => return Err(IssueError::BanksOpenOnRefresh),
            Command::Act { bank, row } => {
                self.banks[bank.flat_index()].activate(row, cycle);
                self.stats.acts += 1;
            }
            Command::Rd { bank, col } => {
                assert!(col < COLS_PER_ROW, "column {col} out of range");
                port.deliver(|| self.banks[bank.flat_index()].read_block(col));
                outcome.data_at = Some(cycle + t.t_cl + t.t_bl);
                self.stats.reads += 1;
            }
            Command::Wr { bank, col, ref data } => {
                self.banks[bank.flat_index()].write_block(col, data);
                outcome.data_at = Some(cycle + t.t_wl + t.t_bl);
                self.stats.writes += 1;
            }
            Command::Pre { bank } => {
                self.banks[bank.flat_index()].precharge(cycle);
                self.stats.pres += 1;
            }
            Command::PreAll => {
                self.all_bank_precharge(cycle);
                return Ok(outcome);
            }
            Command::Ref => self.stats.refreshes += 1,
        }
        self.clock.advance(cmd, cycle, &self.timing);
        Ok(outcome)
    }

    fn open_row(&self, bank: BankAddr) -> Option<u32> {
        self.clock.is_open(bank).then(|| self.banks[bank.flat_index()].row())
    }

    fn timing(&self) -> &TimingParams {
        &self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd(bg: u8, ba: u8, col: u32) -> Command {
        Command::Rd { bank: BankAddr::new(bg, ba), col }
    }

    fn act(bg: u8, ba: u8, row: u32) -> Command {
        Command::Act { bank: BankAddr::new(bg, ba), row }
    }

    #[test]
    fn act_then_read_respects_trcd() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 3), 0, &mut NoData).unwrap();
        // Offered early, a command waits for its earliest cycle.
        let out = ch.issue(&rd(0, 0, 0), 0, &mut NoData).unwrap();
        assert_eq!(out.issued_at, t.t_rcd);
        assert_eq!(out.data_at, Some(t.t_rcd + t.t_cl + t.t_bl));
        // Offered late, it issues when offered.
        let late = out.issued_at + 50;
        assert_eq!(ch.issue(&rd(0, 0, 1), late, &mut NoData).unwrap().issued_at, late);
    }

    #[test]
    fn same_bank_group_columns_spaced_by_tccd_l() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        let second_act = ch.issue(&act(0, 1, 0), 0, &mut NoData).unwrap().issued_at;
        // Wait until both banks are column-ready, so only tCCD_L binds.
        let first = ch.issue(&rd(0, 0, 0), second_act + t.t_rcd, &mut NoData).unwrap().issued_at;
        // Same bank group, different bank: still tCCD_L apart.
        let e = ch.issue(&rd(0, 1, 0), first, &mut NoData).unwrap().issued_at;
        assert_eq!(e, first + t.t_ccd_l);
    }

    #[test]
    fn different_bank_group_columns_spaced_by_tccd_s() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        ch.issue(&act(1, 0, 0), t.t_rrd_s, &mut NoData).unwrap();
        let first = ch.issue(&rd(0, 0, 0), 100, &mut NoData).unwrap().issued_at;
        let e = ch.issue(&rd(1, 0, 0), first, &mut NoData).unwrap().issued_at;
        assert_eq!(e, first + t.t_ccd_s);
    }

    #[test]
    fn faw_limits_activates() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        // Four ACTs to different bank groups at tRRD_S spacing.
        let mut cycle = 0;
        for i in 0..4u8 {
            cycle = ch.issue(&act(i, 0, 0), cycle, &mut NoData).unwrap().issued_at;
        }
        // The fifth ACT must wait for the tFAW window from the first ACT.
        let e = ch.issue(&act(0, 1, 0), cycle, &mut NoData).unwrap().issued_at;
        assert!(e >= t.t_faw, "5th ACT at {e}, expected >= tFAW {}", t.t_faw);
    }

    #[test]
    fn read_returns_written_data() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(2, 1, 9), 0, &mut NoData).unwrap();
        let wr = Command::Wr { bank: BankAddr::new(2, 1), col: 5, data: [0xEE; 32].into() };
        let wr_at = ch.issue(&wr, 0, &mut NoData).unwrap().issued_at;
        let mut data = None;
        ch.issue(&rd(2, 1, 5), wr_at, &mut data).unwrap();
        assert_eq!(data, Some([0xEE; 32]));
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        ch.issue(&act(1, 0, 0), t.t_rrd_s, &mut NoData).unwrap();
        let wr = Command::Wr { bank: BankAddr::new(0, 0), col: 0, data: [0; 32].into() };
        let wr_at = ch.issue(&wr, 100, &mut NoData).unwrap().issued_at;
        let e = ch.issue(&rd(1, 0, 0), wr_at, &mut NoData).unwrap().issued_at;
        assert_eq!(e, wr_at + t.t_wl + t.t_bl + t.t_wtr);
    }

    #[test]
    fn precharge_respects_tras_and_write_recovery() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        let pre = Command::Pre { bank: BankAddr::new(0, 0) };
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        assert_eq!(ch.clone().issue(&pre, 0, &mut NoData).unwrap().issued_at, t.t_ras);
        let wr = Command::Wr { bank: BankAddr::new(0, 0), col: 0, data: [0; 32].into() };
        let wr_at = ch.issue(&wr, 0, &mut NoData).unwrap().issued_at;
        let e = ch.issue(&pre, 0, &mut NoData).unwrap().issued_at;
        assert_eq!(e, wr_at + t.t_wl + t.t_bl + t.t_wr);
    }

    #[test]
    fn state_errors_detected() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t);
        assert_eq!(ch.issue(&rd(0, 0, 0), 1000, &mut NoData), Err(IssueError::BankNotOpen));
        ch.issue(&act(0, 0, 0), 1000, &mut NoData).unwrap();
        assert_eq!(ch.issue(&act(0, 0, 1), 5000, &mut NoData), Err(IssueError::BankAlreadyOpen));
        assert_eq!(
            ch.issue(&Command::Ref, 50_000, &mut NoData),
            Err(IssueError::BanksOpenOnRefresh)
        );
        assert_eq!(
            ch.issue(&Command::Pre { bank: BankAddr::new(3, 3) }, 5000, &mut NoData),
            Err(IssueError::BankNotOpen)
        );
    }

    #[test]
    fn refresh_blocks_activates_for_trfc() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&Command::Ref, 100, &mut NoData).unwrap();
        let e = ch.issue(&act(0, 0, 0), 100, &mut NoData).unwrap().issued_at;
        assert_eq!(e, 100 + t.t_rfc);
    }

    #[test]
    fn preall_closes_everything() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        ch.issue(&act(2, 2, 0), t.t_rrd_s, &mut NoData).unwrap();
        assert!(!ch.all_banks_closed());
        ch.issue(&Command::PreAll, 0, &mut NoData).unwrap();
        assert!(ch.all_banks_closed());
    }

    #[test]
    fn error_leaves_state_unchanged() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t);
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        let (stats, clock) = (ch.stats().clone(), ch.clock().clone());
        assert_eq!(ch.issue(&act(0, 0, 1), 0, &mut NoData), Err(IssueError::BankAlreadyOpen));
        assert_eq!((ch.stats(), ch.clock()), (&stats, &clock));
        assert_eq!(ch.open_row(BankAddr::new(0, 0)), Some(0));
    }

    #[test]
    fn sustained_sb_read_stream_hits_peak_bandwidth() {
        // Alternating bank groups sustains one RD per tCCD_S — the channel's
        // 19.2 GB/s peak that Table V's off-chip number is built from.
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0, &mut NoData).unwrap();
        ch.issue(&act(1, 0, 0), t.t_rrd_s, &mut NoData).unwrap();
        // Start well past both banks' tRCD so only column timing binds.
        let mut cycle = 100;
        let mut start = None;
        let n = 100;
        for i in 0..n {
            let bg = (i % 2) as u8;
            let cmd = rd(bg, 0, (i / 2) as u32 % 32);
            cycle = ch.issue(&cmd, cycle, &mut NoData).unwrap().issued_at;
            start.get_or_insert(cycle);
        }
        let span = cycle - start.unwrap();
        assert_eq!(span, (n - 1) * t.t_ccd_s, "stream not at tCCD_S cadence");
    }
}
