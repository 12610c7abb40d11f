//! The pseudo channel: 16 banks in 4 bank groups, shared CA/data buses, and
//! every inter-command timing constraint between them.

use crate::bank::Bank;
use crate::command::{BankAddr, Command, DataBlock};
use crate::stats::ChannelStats;
use crate::timing::{Cycle, TimingParams};
use std::fmt;

/// Why a command could not issue at the requested cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssueError {
    /// The command violates a timing constraint; it may issue at `earliest`.
    TooEarly {
        /// Earliest legal issue cycle.
        earliest: Cycle,
    },
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
            IssueError::TooEarly { earliest } => {
                write!(f, "command violates timing; earliest legal cycle is {earliest}")
            }
            IssueError::BankAlreadyOpen => write!(f, "ACT to a bank with an open row"),
            IssueError::BankNotOpen => write!(f, "column/PRE command to a closed bank"),
            IssueError::BanksOpenOnRefresh => write!(f, "REF with open rows"),
        }
    }
}

impl std::error::Error for IssueError {}

/// The result of successfully issuing a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueOutcome {
    /// The cycle at which the command issued.
    pub issued_at: Cycle,
    /// For `Rd`: the data block, valid on the bus at `data_at`.
    pub data: Option<DataBlock>,
    /// For `Rd`/`Wr`: the cycle at which the (last beat of) data crosses the
    /// bus — `issued_at + tCL/tWL + tBL`.
    pub data_at: Option<Cycle>,
}

/// Anything that accepts DRAM commands with channel timing semantics.
///
/// [`PseudoChannel`] implements this for a plain HBM2 channel; `pim-core`
/// wraps a channel in a PIM device model that implements the same trait, so
/// the unmodified [`crate::MemoryController`] drives both — which is exactly
/// the drop-in-replacement property the paper demonstrates.
///
/// `Send` is a supertrait: each pseudo channel owns its sink exclusively and
/// the host's parallel execution backend moves whole controllers (sink
/// included) onto worker threads. Sinks hold only per-channel state, so
/// migration is safe by construction.
pub trait CommandSink: Send {
    /// The earliest cycle at or after `now` at which `cmd` could legally
    /// issue, ignoring state errors (those surface from `issue`).
    fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle;

    /// Issues `cmd` at `cycle`.
    ///
    /// # Errors
    ///
    /// Returns an [`IssueError`] if the command violates timing or bank
    /// state; the channel state is unchanged on error.
    fn issue(&mut self, cmd: &Command, cycle: Cycle) -> Result<IssueOutcome, IssueError>;

    /// The open row of `bank`, if any — the controller's row-hit oracle.
    fn open_row(&self, bank: BankAddr) -> Option<u32>;

    /// Timing parameters of the underlying channel.
    fn timing(&self) -> &TimingParams;
}

/// Tracks the four-activate window (tFAW): a ring of the last 4 ACT times.
#[derive(Debug, Clone, Default)]
struct FawWindow {
    acts: [Cycle; 4],
    head: usize,
    count: usize,
}

impl FawWindow {
    /// Earliest cycle a new ACT may issue under tFAW.
    fn earliest(&self, t_faw: Cycle) -> Cycle {
        if self.count < 4 {
            return 0;
        }
        // The oldest of the last 4 ACTs plus tFAW.
        self.acts[self.head].saturating_add(t_faw)
    }

    fn record(&mut self, cycle: Cycle) {
        self.acts[self.head] = cycle;
        self.head = (self.head + 1) % 4;
        self.count = (self.count + 1).min(4);
    }

    /// Whether an entry still constrains an ACT at or after `now`: one aged
    /// `cap` (= tFAW) or more allows a cycle at or before `now`, which is
    /// vacuous, and so does every later eviction of it — a window of such
    /// entries times every future ACT as an empty one does.
    fn live(&self, now: Cycle, cap: Cycle) -> bool {
        self.acts[..self.count].iter().any(|&act| now.saturating_sub(act) < cap)
    }
}

/// An HBM2 pseudo channel: 4 bank groups × 4 banks with shared buses.
///
/// See the crate docs for the timing model. All state mutation goes through
/// [`CommandSink::issue`]; on error no state changes.
#[derive(Debug, Clone)]
pub struct PseudoChannel {
    timing: TimingParams,
    banks: Vec<Bank>,
    /// Per-bank-group earliest next column command (tCCD_L).
    bg_next_col: [Cycle; crate::BANK_GROUPS],
    /// Channel-wide earliest next column command (tCCD_S).
    ch_next_col: Cycle,
    /// Per-bank-group earliest next ACT (tRRD_L).
    bg_next_act: [Cycle; crate::BANK_GROUPS],
    /// Channel-wide earliest next ACT (tRRD_S).
    ch_next_act: Cycle,
    /// Channel-wide earliest next RD (write-to-read turnaround, refresh).
    ch_next_rd: Cycle,
    /// Channel-wide earliest next WR (read-to-write turnaround, refresh).
    ch_next_wr: Cycle,
    faw: FawWindow,
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
            bg_next_col: [0; crate::BANK_GROUPS],
            ch_next_col: 0,
            bg_next_act: [0; crate::BANK_GROUPS],
            ch_next_act: 0,
            ch_next_rd: 0,
            ch_next_wr: 0,
            faw: FawWindow::default(),
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

    /// Accumulated per-channel statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// True if every bank is precharged.
    pub fn all_banks_closed(&self) -> bool {
        self.banks.iter().all(|b| b.open_row().is_none())
    }

    /// Bank-state residency up to `now`: total cycles banks spent with a
    /// row open and total cycles spent precharged, summed across the 16
    /// banks (so the two numbers add up to `16 * now`).
    pub fn bank_residency(&self, now: Cycle) -> (u64, u64) {
        let open: u64 = self.banks.iter().map(|b| b.open_cycles(now)).sum();
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
        let t = &self.timing;
        for b in &mut self.banks {
            assert!(b.open_row().is_none(), "all-bank ACT with an open row");
            b.do_activate(row, cycle, t);
        }
        self.stats.acts += crate::BANKS_PER_PCH as u64;
    }

    /// All-bank precharge: functionally closes every bank.
    pub fn all_bank_precharge(&mut self, cycle: Cycle) {
        let t = &self.timing;
        for b in &mut self.banks {
            if b.open_row().is_some() {
                b.do_precharge(cycle, t);
            }
        }
        self.stats.pres += 1;
    }

    /// Raises every internal timing horizon to at least `cycle`.
    ///
    /// Used by the PIM device model when leaving all-bank mode: all-bank
    /// operation bypasses the per-bank-group trackers (the all-bank control
    /// logic drives the banks directly), so on return to single-bank mode
    /// the channel must not accept commands earlier than the cycle at which
    /// all-bank activity ended.
    pub fn quiesce_until(&mut self, cycle: Cycle) {
        for b in &mut self.banks {
            b.next_act = b.next_act.max(cycle);
            b.next_col = b.next_col.max(cycle);
            b.next_pre = b.next_pre.max(cycle);
        }
        for v in &mut self.bg_next_col {
            *v = (*v).max(cycle);
        }
        for v in &mut self.bg_next_act {
            *v = (*v).max(cycle);
        }
        self.ch_next_col = self.ch_next_col.max(cycle);
        self.ch_next_act = self.ch_next_act.max(cycle);
        self.ch_next_rd = self.ch_next_rd.max(cycle);
        self.ch_next_wr = self.ch_next_wr.max(cycle);
    }

    fn earliest_act(&self, bank: BankAddr, now: Cycle) -> Cycle {
        let b = &self.banks[bank.flat_index()];
        now.max(b.next_act)
            .max(self.bg_next_act[bank.bg as usize])
            .max(self.ch_next_act)
            .max(self.faw.earliest(self.timing.t_faw))
    }

    fn earliest_col(&self, bank: BankAddr, is_read: bool, now: Cycle) -> Cycle {
        let b = &self.banks[bank.flat_index()];
        let turnaround = if is_read { self.ch_next_rd } else { self.ch_next_wr };
        now.max(b.next_col)
            .max(self.bg_next_col[bank.bg as usize])
            .max(self.ch_next_col)
            .max(turnaround)
    }

    fn earliest_pre(&self, bank: BankAddr, now: Cycle) -> Cycle {
        now.max(self.banks[bank.flat_index()].next_pre)
    }

    fn earliest_ref(&self, now: Cycle) -> Cycle {
        // A refresh may start once every bank could accept an ACT (i.e. all
        // precharges and prior refreshes have completed) and in-flight
        // column traffic has drained.
        let banks = self.banks.iter().map(|b| b.next_act).max().unwrap_or(0);
        now.max(banks).max(self.ch_next_col)
    }

    /// Captures every timing constraint as offsets relative to `now`, or
    /// `None` if any bank has an open row (an open row carries absolute
    /// tRAS bookkeeping that offsets cannot represent canonically) or the
    /// tFAW window still holds an ACT younger than tFAW.
    ///
    /// Two channels with equal states accept exactly the same command
    /// stream with exactly the same issue cycles (relative to their
    /// respective `now`s) — the launch-memoization cache key builds on
    /// this. Horizons already in the past collapse to offset 0, so
    /// behaviour-equal states compare equal. The window is not part of the
    /// state: with every bank closed, every ACT was precharged at least
    /// tRAS after it issued and tFAW < tRAS on every preset, so the window
    /// has aged out; a hand-built timing with tFAW ≥ tRAS that leaves it
    /// live gets `None`, and its channel runs cold.
    pub fn timing_state(&self, now: Cycle) -> Option<ChannelTimingState> {
        if !self.all_banks_closed() || self.faw.live(now, self.timing.t_faw) {
            return None;
        }
        let rel = |c: Cycle| c.saturating_sub(now);
        let mut bank_next_act = [0; crate::BANKS_PER_PCH];
        let mut bank_next_col = [0; crate::BANKS_PER_PCH];
        let mut bank_next_pre = [0; crate::BANKS_PER_PCH];
        for (i, b) in self.banks.iter().enumerate() {
            bank_next_act[i] = rel(b.next_act);
            bank_next_col[i] = rel(b.next_col);
            bank_next_pre[i] = rel(b.next_pre);
        }
        Some(ChannelTimingState {
            bank_next_act,
            bank_next_col,
            bank_next_pre,
            bg_next_col: self.bg_next_col.map(rel),
            bg_next_act: self.bg_next_act.map(rel),
            ch_next_col: rel(self.ch_next_col),
            ch_next_act: rel(self.ch_next_act),
            ch_next_rd: rel(self.ch_next_rd),
            ch_next_wr: rel(self.ch_next_wr),
        })
    }

    /// Restores a [`PseudoChannel::timing_state`] snapshot, re-anchored at
    /// `now`, with an empty tFAW window. All banks must be closed
    /// (snapshots are only taken closed).
    pub fn apply_timing_state(&mut self, now: Cycle, st: &ChannelTimingState) {
        debug_assert!(self.all_banks_closed());
        for (i, b) in self.banks.iter_mut().enumerate() {
            b.next_act = now + st.bank_next_act[i];
            b.next_col = now + st.bank_next_col[i];
            b.next_pre = now + st.bank_next_pre[i];
        }
        for (g, v) in self.bg_next_col.iter_mut().enumerate() {
            *v = now + st.bg_next_col[g];
        }
        for (g, v) in self.bg_next_act.iter_mut().enumerate() {
            *v = now + st.bg_next_act[g];
        }
        self.ch_next_col = now + st.ch_next_col;
        self.ch_next_act = now + st.ch_next_act;
        self.ch_next_rd = now + st.ch_next_rd;
        self.ch_next_wr = now + st.ch_next_wr;
        self.faw = FawWindow::default();
    }

    /// Adds a recorded launch's command-count deltas into this channel's
    /// statistics (the launch-replay accounting path).
    pub fn merge_stats(&mut self, delta: &ChannelStats) {
        self.stats.merge(delta);
    }
}

/// A relative (re-anchorable) snapshot of a [`PseudoChannel`]'s complete
/// inter-command timing state, taken with all banks closed and the tFAW
/// window aged out. Produced by [`PseudoChannel::timing_state`], restored
/// by [`PseudoChannel::apply_timing_state`]; equality means "will time
/// every future command stream identically".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChannelTimingState {
    /// Per-bank earliest next ACT, relative to the snapshot cycle.
    pub bank_next_act: [Cycle; crate::BANKS_PER_PCH],
    /// Per-bank earliest next column command (tRCD gate).
    pub bank_next_col: [Cycle; crate::BANKS_PER_PCH],
    /// Per-bank earliest next PRE (tRAS / tWR / tRTP gate).
    pub bank_next_pre: [Cycle; crate::BANKS_PER_PCH],
    /// Per-bank-group earliest next column command (tCCD_L).
    pub bg_next_col: [Cycle; crate::BANK_GROUPS],
    /// Per-bank-group earliest next ACT (tRRD_L).
    pub bg_next_act: [Cycle; crate::BANK_GROUPS],
    /// Channel-wide earliest next column command (tCCD_S).
    pub ch_next_col: Cycle,
    /// Channel-wide earliest next ACT (tRRD_S).
    pub ch_next_act: Cycle,
    /// Channel-wide earliest next RD (write-to-read turnaround).
    pub ch_next_rd: Cycle,
    /// Channel-wide earliest next WR (read-to-write turnaround).
    pub ch_next_wr: Cycle,
}

impl CommandSink for PseudoChannel {
    fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle {
        match cmd {
            Command::Act { bank, .. } => self.earliest_act(*bank, now),
            Command::Rd { bank, .. } => self.earliest_col(*bank, true, now),
            Command::Wr { bank, .. } => self.earliest_col(*bank, false, now),
            Command::Pre { bank } => self.earliest_pre(*bank, now),
            Command::PreAll => {
                BankAddr::all().map(|b| self.earliest_pre(b, now)).max().unwrap_or(now)
            }
            Command::Ref => self.earliest_ref(now),
        }
    }

    fn issue(&mut self, cmd: &Command, cycle: Cycle) -> Result<IssueOutcome, IssueError> {
        let earliest = self.earliest_issue(cmd, cycle);
        if cycle < earliest {
            return Err(IssueError::TooEarly { earliest });
        }
        let t = &self.timing;
        match cmd {
            Command::Act { bank, row } => {
                let b = &mut self.banks[bank.flat_index()];
                if b.open_row().is_some() {
                    return Err(IssueError::BankAlreadyOpen);
                }
                b.do_activate(*row, cycle, t);
                self.bg_next_act[bank.bg as usize] =
                    self.bg_next_act[bank.bg as usize].max(cycle + t.t_rrd_l);
                self.ch_next_act = self.ch_next_act.max(cycle + t.t_rrd_s);
                self.faw.record(cycle);
                self.stats.acts += 1;
                Ok(IssueOutcome { issued_at: cycle, data: None, data_at: None })
            }
            Command::Rd { bank, col } => {
                let b = &self.banks[bank.flat_index()];
                if b.open_row().is_none() {
                    return Err(IssueError::BankNotOpen);
                }
                let data = b.read_block(*col);
                self.banks[bank.flat_index()].note_read(cycle, t);
                self.bg_next_col[bank.bg as usize] =
                    self.bg_next_col[bank.bg as usize].max(cycle + t.t_ccd_l);
                self.ch_next_col = self.ch_next_col.max(cycle + t.t_ccd_s);
                // Read-to-write bus turnaround.
                self.ch_next_wr = self.ch_next_wr.max(cycle + t.t_rtw);
                self.stats.reads += 1;
                let data_at = cycle + t.t_cl + t.t_bl;
                Ok(IssueOutcome { issued_at: cycle, data: Some(data), data_at: Some(data_at) })
            }
            Command::Wr { bank, col, data } => {
                let b = &mut self.banks[bank.flat_index()];
                if b.open_row().is_none() {
                    return Err(IssueError::BankNotOpen);
                }
                b.write_block(*col, data);
                b.note_write(cycle, t);
                self.bg_next_col[bank.bg as usize] =
                    self.bg_next_col[bank.bg as usize].max(cycle + t.t_ccd_l);
                self.ch_next_col = self.ch_next_col.max(cycle + t.t_ccd_s);
                // Write-to-read turnaround (tWTR after last data beat).
                self.ch_next_rd = self.ch_next_rd.max(cycle + t.t_wl + t.t_bl + t.t_wtr);
                self.stats.writes += 1;
                let data_at = cycle + t.t_wl + t.t_bl;
                Ok(IssueOutcome { issued_at: cycle, data: None, data_at: Some(data_at) })
            }
            Command::Pre { bank } => {
                let b = &mut self.banks[bank.flat_index()];
                if b.open_row().is_none() {
                    return Err(IssueError::BankNotOpen);
                }
                b.do_precharge(cycle, t);
                self.stats.pres += 1;
                Ok(IssueOutcome { issued_at: cycle, data: None, data_at: None })
            }
            Command::PreAll => {
                for b in &mut self.banks {
                    if b.open_row().is_some() {
                        b.do_precharge(cycle, t);
                    }
                }
                self.stats.pres += 1;
                Ok(IssueOutcome { issued_at: cycle, data: None, data_at: None })
            }
            Command::Ref => {
                if !self.all_banks_closed() {
                    return Err(IssueError::BanksOpenOnRefresh);
                }
                for b in &mut self.banks {
                    b.next_act = b.next_act.max(cycle + t.t_rfc);
                }
                self.stats.refreshes += 1;
                Ok(IssueOutcome { issued_at: cycle, data: None, data_at: None })
            }
        }
    }

    fn open_row(&self, bank: BankAddr) -> Option<u32> {
        self.banks[bank.flat_index()].open_row()
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
        ch.issue(&act(0, 0, 3), 0).unwrap();
        let e = ch.earliest_issue(&rd(0, 0, 0), 0);
        assert_eq!(e, t.t_rcd);
        assert!(matches!(ch.issue(&rd(0, 0, 0), t.t_rcd - 1), Err(IssueError::TooEarly { .. })));
        let out = ch.issue(&rd(0, 0, 0), t.t_rcd).unwrap();
        assert_eq!(out.data_at, Some(t.t_rcd + t.t_cl + t.t_bl));
    }

    #[test]
    fn same_bank_group_columns_spaced_by_tccd_l() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0).unwrap();
        ch.issue(&act(0, 1, 0), t.t_rrd_l).unwrap();
        // Wait until both banks are column-ready, so only tCCD_L binds.
        let first = ch.earliest_issue(&rd(0, 1, 0), 0).max(ch.earliest_issue(&rd(0, 0, 0), 0));
        ch.issue(&rd(0, 0, 0), first).unwrap();
        // Same bank group, different bank: still tCCD_L apart.
        let e = ch.earliest_issue(&rd(0, 1, 0), first);
        assert_eq!(e, first + t.t_ccd_l);
    }

    #[test]
    fn different_bank_group_columns_spaced_by_tccd_s() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0).unwrap();
        ch.issue(&act(1, 0, 0), t.t_rrd_s).unwrap();
        let first = ch.earliest_issue(&rd(0, 0, 0), 100);
        ch.issue(&rd(0, 0, 0), first).unwrap();
        let e = ch.earliest_issue(&rd(1, 0, 0), first);
        assert_eq!(e, first + t.t_ccd_s);
    }

    #[test]
    fn faw_limits_activates() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        // Four ACTs to different bank groups at tRRD_S spacing.
        let mut cycle = 0;
        for i in 0..4u8 {
            let c = ch.earliest_issue(&act(i, 0, 0), cycle);
            ch.issue(&act(i, 0, 0), c).unwrap();
            cycle = c;
        }
        // The fifth ACT must wait for the tFAW window from the first ACT.
        let e = ch.earliest_issue(&act(0, 1, 0), cycle);
        assert!(e >= t.t_faw, "5th ACT at {e}, expected >= tFAW {}", t.t_faw);
    }

    #[test]
    fn read_returns_written_data() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(2, 1, 9), 0).unwrap();
        let wr_at = ch.earliest_issue(
            &Command::Wr { bank: BankAddr::new(2, 1), col: 5, data: [0xEE; 32] },
            0,
        );
        ch.issue(&Command::Wr { bank: BankAddr::new(2, 1), col: 5, data: [0xEE; 32] }, wr_at)
            .unwrap();
        let rd_at = ch.earliest_issue(&rd(2, 1, 5), wr_at);
        let out = ch.issue(&rd(2, 1, 5), rd_at).unwrap();
        assert_eq!(out.data, Some([0xEE; 32]));
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0).unwrap();
        ch.issue(&act(1, 0, 0), t.t_rrd_s).unwrap();
        let wr_at = ch
            .earliest_issue(&Command::Wr { bank: BankAddr::new(0, 0), col: 0, data: [0; 32] }, 100);
        ch.issue(&Command::Wr { bank: BankAddr::new(0, 0), col: 0, data: [0; 32] }, wr_at).unwrap();
        let e = ch.earliest_issue(&rd(1, 0, 0), wr_at);
        assert_eq!(e, wr_at + t.t_wl + t.t_bl + t.t_wtr);
    }

    #[test]
    fn precharge_respects_tras_and_write_recovery() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0).unwrap();
        assert_eq!(ch.earliest_issue(&Command::Pre { bank: BankAddr::new(0, 0) }, 0), t.t_ras);
        let wr_at = t.t_rcd;
        ch.issue(&Command::Wr { bank: BankAddr::new(0, 0), col: 0, data: [0; 32] }, wr_at).unwrap();
        let e = ch.earliest_issue(&Command::Pre { bank: BankAddr::new(0, 0) }, 0);
        assert_eq!(e, wr_at + t.t_wl + t.t_bl + t.t_wr);
    }

    #[test]
    fn state_errors_detected() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t);
        assert_eq!(ch.issue(&rd(0, 0, 0), 1000), Err(IssueError::BankNotOpen));
        ch.issue(&act(0, 0, 0), 1000).unwrap();
        assert_eq!(ch.issue(&act(0, 0, 1), 5000), Err(IssueError::BankAlreadyOpen));
        assert_eq!(ch.issue(&Command::Ref, 50_000), Err(IssueError::BanksOpenOnRefresh));
        assert_eq!(
            ch.issue(&Command::Pre { bank: BankAddr::new(3, 3) }, 5000),
            Err(IssueError::BankNotOpen)
        );
    }

    #[test]
    fn refresh_blocks_activates_for_trfc() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&Command::Ref, 100).unwrap();
        let e = ch.earliest_issue(&act(0, 0, 0), 100);
        assert_eq!(e, 100 + t.t_rfc);
    }

    #[test]
    fn preall_closes_everything() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0).unwrap();
        ch.issue(&act(2, 2, 0), t.t_rrd_s).unwrap();
        assert!(!ch.all_banks_closed());
        let e = ch.earliest_issue(&Command::PreAll, 0);
        ch.issue(&Command::PreAll, e).unwrap();
        assert!(ch.all_banks_closed());
    }

    #[test]
    fn error_leaves_state_unchanged() {
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t);
        ch.issue(&act(0, 0, 0), 0).unwrap();
        let before = ch.stats().clone();
        let _ = ch.issue(&rd(0, 0, 0), 0); // too early (tRCD)
        assert_eq!(ch.stats(), &before);
        assert_eq!(ch.open_row(BankAddr::new(0, 0)), Some(0));
    }

    #[test]
    fn sustained_sb_read_stream_hits_peak_bandwidth() {
        // Alternating bank groups sustains one RD per tCCD_S — the channel's
        // 19.2 GB/s peak that Table V's off-chip number is built from.
        let t = TimingParams::hbm2();
        let mut ch = PseudoChannel::new(t.clone());
        ch.issue(&act(0, 0, 0), 0).unwrap();
        ch.issue(&act(1, 0, 0), t.t_rrd_s).unwrap();
        // Start well past both banks' tRCD so only column timing binds.
        let mut cycle = 100;
        let start = ch.earliest_issue(&rd(0, 0, 0), cycle);
        let n = 100;
        for i in 0..n {
            let bg = (i % 2) as u8;
            let cmd = rd(bg, 0, (i / 2) as u32 % 32);
            let e = ch.earliest_issue(&cmd, cycle);
            ch.issue(&cmd, e).unwrap();
            cycle = e;
        }
        let span = cycle - start;
        assert_eq!(span, (n - 1) * t.t_ccd_s, "stream not at tCCD_S cadence");
    }
}
