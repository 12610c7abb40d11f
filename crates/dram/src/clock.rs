//! The JEDEC issue clock: every inter-command timing formula of a pseudo
//! channel, in one place.
//!
//! [`Clock`] holds the single-bank horizons — the earliest cycle each
//! command class may next issue, per bank, per bank group and channel-wide
//! — plus the tFAW window and which banks are open. [`AllBankClock`] is the
//! one `{act, col, pre}` triple of the PIM device's virtual all-bank bank.
//! [`crate::PseudoChannel`], the PIM device and the host's closed-form
//! `ChannelPredictor` all time commands through these two types and keep
//! no formula of their own. The timing parameters are an argument, never a
//! field: a `&TimingParams` argument is known not to alias the horizons the
//! formulas write, and a clock without them stays small, `Eq` and `Hash`.
//!
//! The per-command-class formulas (single-bank mode; `b` = the command's
//! bank, `t` = [`TimingParams`]):
//!
//! | class | earliest issue | horizons advanced |
//! |---|---|---|
//! | `ACT` | max(now, b.act, bg.act, ch.act, FAW) | b.col = +tRCD, b.pre = +tRAS, b.act = +tRC, bg.act ≥ +tRRD_L, ch.act ≥ +tRRD_S, FAW ∋ +tFAW |
//! | `RD`  | max(now, b.col, bg.col, ch.col, ch.rd) | b.pre ≥ +tRTP, bg.col ≥ +tCCD_L, ch.col ≥ +tCCD_S, ch.wr ≥ +tRTW |
//! | `WR`  | max(now, b.col, bg.col, ch.col, ch.wr) | b.pre ≥ +tWL+tBL+tWR, bg.col ≥ +tCCD_L, ch.col ≥ +tCCD_S, ch.rd ≥ +tWL+tBL+tWTR |
//! | `PRE` | max(now, b.pre) | b.act ≥ +tRP |
//! | `PREA`| max over banks of PRE | open banks' act ≥ +tRP |
//! | `REF` | max(now, maxᵦ b.act, ch.col) | every b.act ≥ +tRFC |
//!
//! All-bank mode collapses the per-bank vector onto one triple whose
//! columns pace at tCCD_L ("each bank can operate at every tCCD_L in AB
//! mode", Section III-B): [`AllBankClock::enter`] inherits the post-PRE ACT
//! horizon, an all-bank ACT / PRE also opens / closes every bank of the
//! [`Clock`], and [`AllBankClock::exit`] raises every single-bank horizon
//! to the end of all-bank activity.
//!
//! # Seen from `now`
//!
//! [`Clock::seen_from`] is the clock relative to a cycle: every horizon at
//! or before `now` is 0 (it constrains nothing any more), every later one
//! is its distance from `now`. The tFAW window is kept as the expiry cycles
//! (ACT + tFAW) of the last four ACTs, oldest first, so its live entries
//! seen from `now` are the non-zero suffix. Two clocks seen equal from
//! their own `now`s time every future command stream identically, each
//! from its own `now`; [`Clock::at`] re-anchors one. The launch
//! fingerprint, the fast path's restore, the predictor's entry state and
//! its fold's phase are all this one rule.

use crate::command::{BankAddr, Command};
use crate::timing::{Cycle, TimingParams};
use crate::{BANKS_PER_PCH, BANK_GROUPS};

// `Clock::open` is one bit per bank.
const _: () = assert!(BANKS_PER_PCH == 16);

/// The single-bank JEDEC clock of one pseudo channel (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Clock {
    /// Per bank: earliest ACT (tRC, tRP, tRFC).
    act: [Cycle; BANKS_PER_PCH],
    /// Per bank: earliest column command (tRCD).
    col: [Cycle; BANKS_PER_PCH],
    /// Per bank: earliest PRE (tRAS, tWR, tRTP).
    pre: [Cycle; BANKS_PER_PCH],
    /// Per bank group: earliest ACT (tRRD_L) and column command (tCCD_L).
    bg_act: [Cycle; BANK_GROUPS],
    bg_col: [Cycle; BANK_GROUPS],
    /// Channel-wide: earliest ACT (tRRD_S), column command (tCCD_S), RD
    /// (write-to-read turnaround) and WR (read-to-write turnaround).
    ch_act: Cycle,
    ch_col: Cycle,
    ch_rd: Cycle,
    ch_wr: Cycle,
    /// Expiry (ACT + tFAW) of the last four ACTs, oldest first; a fifth
    /// ACT waits for the oldest.
    faw: [Cycle; 4],
    /// Bit `i` set: bank `i` has a row open.
    open: u16,
}

impl Clock {
    /// Whether `bank` has a row open.
    #[inline]
    pub fn is_open(&self, bank: BankAddr) -> bool {
        self.open & (1 << bank.flat_index()) != 0
    }

    /// Whether every bank is precharged.
    #[inline]
    pub fn all_closed(&self) -> bool {
        self.open == 0
    }

    /// The earliest cycle at or after `now` at which `cmd` may issue.
    #[inline(always)]
    pub fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle {
        match *cmd {
            Command::Act { bank, .. } => now
                .max(self.act[bank.flat_index()])
                .max(self.bg_act[bank.bg as usize])
                .max(self.ch_act)
                .max(self.faw[0]),
            Command::Rd { bank, .. } => now
                .max(self.col[bank.flat_index()])
                .max(self.bg_col[bank.bg as usize])
                .max(self.ch_col)
                .max(self.ch_rd),
            Command::Wr { bank, .. } => now
                .max(self.col[bank.flat_index()])
                .max(self.bg_col[bank.bg as usize])
                .max(self.ch_col)
                .max(self.ch_wr),
            Command::Pre { bank } => now.max(self.pre[bank.flat_index()]),
            Command::PreAll => self.pre.iter().fold(now, |at, &p| at.max(p)),
            // Every bank could accept an ACT (precharges and earlier
            // refreshes done) and column traffic has drained.
            Command::Ref => self.act.iter().fold(now.max(self.ch_col), |at, &a| at.max(a)),
        }
    }

    /// Advances the horizons for `cmd` issued at `at` (legality already
    /// checked by the caller).
    #[inline(always)]
    pub fn advance(&mut self, cmd: &Command, at: Cycle, t: &TimingParams) {
        match *cmd {
            Command::Act { bank, .. } => {
                let (i, g) = (bank.flat_index(), bank.bg as usize);
                self.open |= 1 << i;
                self.col[i] = at + t.t_rcd;
                self.pre[i] = at + t.t_ras;
                self.act[i] = at + t.t_rc;
                self.bg_act[g] = self.bg_act[g].max(at + t.t_rrd_l);
                self.ch_act = self.ch_act.max(at + t.t_rrd_s);
                self.faw = [self.faw[1], self.faw[2], self.faw[3], at + t.t_faw];
            }
            Command::Rd { bank, .. } => {
                let (i, g) = (bank.flat_index(), bank.bg as usize);
                self.pre[i] = self.pre[i].max(at + t.t_rtp);
                self.bg_col[g] = self.bg_col[g].max(at + t.t_ccd_l);
                self.ch_col = self.ch_col.max(at + t.t_ccd_s);
                self.ch_wr = self.ch_wr.max(at + t.t_rtw);
            }
            Command::Wr { bank, .. } => {
                let (i, g) = (bank.flat_index(), bank.bg as usize);
                self.pre[i] = self.pre[i].max(at + t.t_wl + t.t_bl + t.t_wr);
                self.bg_col[g] = self.bg_col[g].max(at + t.t_ccd_l);
                self.ch_col = self.ch_col.max(at + t.t_ccd_s);
                self.ch_rd = self.ch_rd.max(at + t.t_wl + t.t_bl + t.t_wtr);
            }
            Command::Pre { bank } => {
                let i = bank.flat_index();
                self.open &= !(1 << i);
                self.act[i] = self.act[i].max(at + t.t_rp);
            }
            Command::PreAll => self.all_bank_precharge(at, t),
            Command::Ref => {
                for a in &mut self.act {
                    *a = (*a).max(at + t.t_rfc);
                }
            }
        }
    }

    /// An all-bank ACT at `at`: every bank opens in lock-step. It bypasses
    /// the bank-group, channel and tFAW trackers (the all-bank control
    /// logic drives the banks directly).
    pub fn all_bank_activate(&mut self, at: Cycle, t: &TimingParams) {
        self.open = u16::MAX;
        self.col = [at + t.t_rcd; BANKS_PER_PCH];
        self.pre = [at + t.t_ras; BANKS_PER_PCH];
        self.act = [at + t.t_rc; BANKS_PER_PCH];
    }

    /// A precharge of every open bank at `at` (PREA, or an all-bank PRE).
    pub fn all_bank_precharge(&mut self, at: Cycle, t: &TimingParams) {
        for (i, a) in self.act.iter_mut().enumerate() {
            if self.open & (1 << i) != 0 {
                *a = (*a).max(at + t.t_rp);
            }
        }
        self.open = 0;
    }

    /// Raises every horizon (the tFAW window aside) to at least `cycle`.
    pub fn quiesce_until(&mut self, cycle: Cycle) {
        let horizons = (self.act.iter_mut())
            .chain(&mut self.col)
            .chain(&mut self.pre)
            .chain(&mut self.bg_act)
            .chain(&mut self.bg_col)
            .chain([&mut self.ch_act, &mut self.ch_col, &mut self.ch_rd, &mut self.ch_wr]);
        for h in horizons {
            *h = (*h).max(cycle);
        }
    }

    /// The clock seen from `now`: a horizon at or before `now` is 0, a
    /// later one its distance from `now` (see the module docs).
    pub fn seen_from(&self, now: Cycle) -> Clock {
        self.map(|c| c.saturating_sub(now))
    }

    /// A clock [`Clock::seen_from`] made re-anchored at `now`.
    pub fn at(&self, now: Cycle) -> Clock {
        self.map(|c| c + now)
    }

    fn map(&self, f: impl Fn(Cycle) -> Cycle) -> Clock {
        Clock {
            act: self.act.map(&f),
            col: self.col.map(&f),
            pre: self.pre.map(&f),
            bg_act: self.bg_act.map(&f),
            bg_col: self.bg_col.map(&f),
            ch_act: f(self.ch_act),
            ch_col: f(self.ch_col),
            ch_rd: f(self.ch_rd),
            ch_wr: f(self.ch_wr),
            faw: self.faw.map(&f),
            open: self.open,
        }
    }
}

/// The all-bank clock: in the AB modes every bank carries identical state,
/// so one `{act, col, pre}` triple times them all (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AllBankClock {
    act: Cycle,
    col: Cycle,
    pre: Cycle,
}

impl AllBankClock {
    /// The all-bank clock the PRE to `bank` at `at` that commits the entry
    /// to all-bank mode hands over: the first all-bank ACT respects that
    /// PRE's tRP and every single-bank ACT constraint.
    pub fn enter(sb: &Clock, bank: BankAddr, at: Cycle) -> AllBankClock {
        let act = sb.earliest(&Command::Act { bank, row: 0 }, at);
        AllBankClock { act, col: at, pre: at }
    }

    /// Hands the single-bank clock back with every horizon at or past the
    /// end of all-bank activity.
    pub fn exit(&self, sb: &mut Clock) {
        sb.quiesce_until(self.act);
    }

    /// The earliest cycle at or after `now` at which `cmd` may issue in an
    /// all-bank mode, whatever bank it names.
    #[inline]
    pub fn earliest(&self, cmd: &Command, now: Cycle) -> Cycle {
        match cmd {
            Command::Act { .. } | Command::Ref => now.max(self.act),
            Command::Rd { .. } | Command::Wr { .. } => now.max(self.col),
            Command::Pre { .. } | Command::PreAll => now.max(self.pre),
        }
    }

    /// Advances the triple for `cmd` issued at `at`. Columns pace at
    /// tCCD_L.
    #[inline]
    pub fn advance(&mut self, cmd: &Command, at: Cycle, t: &TimingParams) {
        match cmd {
            Command::Act { .. } => {
                self.col = at + t.t_rcd;
                self.pre = at + t.t_ras;
                self.act = at + t.t_rc;
            }
            Command::Pre { .. } | Command::PreAll => self.act = self.act.max(at + t.t_rp),
            Command::Rd { .. } => {
                self.col = at + t.t_ccd_l;
                self.pre = self.pre.max(at + t.t_rtp);
            }
            Command::Wr { .. } => {
                self.col = at + t.t_ccd_l;
                self.pre = self.pre.max(at + t.t_wl + t.t_bl + t.t_wr);
            }
            Command::Ref => self.act = self.act.max(at + t.t_rfc),
        }
    }

    /// Raises the triple to at least `cycle`.
    pub fn quiesce_until(&mut self, cycle: Cycle) {
        *self = self.map(|c| c.max(cycle));
    }

    /// The triple seen from `now` (the [`Clock::seen_from`] rule).
    pub fn seen_from(&self, now: Cycle) -> AllBankClock {
        self.map(|c| c.saturating_sub(now))
    }

    /// A triple [`AllBankClock::seen_from`] made re-anchored at `now`.
    pub fn at(&self, now: Cycle) -> AllBankClock {
        self.map(|c| c + now)
    }

    fn map(&self, f: impl Fn(Cycle) -> Cycle) -> AllBankClock {
        AllBankClock { act: f(self.act), col: f(self.col), pre: f(self.pre) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(bg: u8, ba: u8) -> Command {
        Command::Act { bank: BankAddr::new(bg, ba), row: 0 }
    }

    #[test]
    fn activate_sets_the_bank_horizons() {
        let t = TimingParams::hbm2();
        let mut c = Clock::default();
        let b = BankAddr::new(0, 0);
        c.advance(&act(0, 0), 100, &t);
        assert!(c.is_open(b));
        assert_eq!(c.earliest(&Command::Rd { bank: b, col: 0 }, 0), 100 + t.t_rcd);
        assert_eq!(c.earliest(&Command::Pre { bank: b }, 0), 100 + t.t_ras);
        c.advance(&Command::Pre { bank: b }, 100 + t.t_ras, &t);
        assert!(c.all_closed());
        assert_eq!(c.earliest(&act(0, 0), 0), 100 + t.t_rc);
    }

    #[test]
    fn write_extends_precharge_horizon() {
        let t = TimingParams::hbm2();
        let mut c = Clock::default();
        let b = BankAddr::new(0, 0);
        c.advance(&act(0, 0), 0, &t);
        let before = c.earliest(&Command::Pre { bank: b }, 0);
        c.advance(&Command::Wr { bank: b, col: 0, data: [0; 32].into() }, 100, &t);
        let after = c.earliest(&Command::Pre { bank: b }, 0);
        assert!(after > before);
        assert_eq!(after, 100 + t.t_wl + t.t_bl + t.t_wr);
    }

    #[test]
    fn read_extends_precharge_horizon_by_rtp() {
        let t = TimingParams::hbm2();
        let mut c = Clock::default();
        let b = BankAddr::new(0, 0);
        c.advance(&act(0, 0), 0, &t);
        c.advance(&Command::Rd { bank: b, col: 0 }, 1000, &t);
        assert_eq!(c.earliest(&Command::Pre { bank: b }, 0), 1000 + t.t_rtp);
    }

    /// Seen from `now`, past horizons and aged-out tFAW entries read 0, so
    /// a window that still binds survives the round trip and one that no
    /// longer does compares equal to an empty one.
    #[test]
    fn seen_from_keeps_only_live_constraints() {
        let t = TimingParams::hbm2();
        let mut c = Clock::default();
        let mut at = 0;
        for bg in 0..4 {
            at = c.earliest(&act(bg, 0), at);
            c.advance(&act(bg, 0), at, &t);
        }
        let fifth = c.earliest(&act(0, 1), at);
        assert_eq!(c.seen_from(at).at(at + 1000).earliest(&act(0, 1), at + 1000), fifth + 1000);
        let quiet = 10_000;
        assert_eq!(c.seen_from(quiet), Clock { open: c.open, ..Clock::default() });
    }
}
