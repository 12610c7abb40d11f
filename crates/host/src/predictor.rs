//! The analytic launch predictor: per-command-class closed-form issue
//! cycles, computed without touching the simulated system.
//!
//! This is the second (cheaper) tier of the launch fast path (see
//! [`crate::fastpath`]). Where the memoization cache replays a *recorded*
//! launch, the predictor derives a launch's end cycle, command count, and
//! fence count from first principles: each DRAM command class has a
//! closed-form earliest-issue formula over a compact vector of timing
//! horizons, and the engine's issue loop only ever takes the max of those
//! horizons and advances them. Folding the formulas over the command
//! stream reproduces the full simulator's clock exactly — without
//! allocating banks, moving data blocks, or executing FP16 arithmetic.
//!
//! The per-command-class formulas (single-bank mode; `b` = the command's
//! bank, `t` = [`TimingParams`]):
//!
//! | class | earliest issue | horizons advanced |
//! |---|---|---|
//! | `ACT` | max(now, b.act, bg.act, ch.act, FAW) | b.col += tRCD, b.pre += tRAS, b.act += tRC, bg.act ≥ +tRRD_L, ch.act ≥ +tRRD_S, FAW ∋ at |
//! | `RD`  | max(now, b.col, bg.col, ch.col, ch.rd) | b.pre ≥ +tRTP, bg.col ≥ +tCCD_L, ch.col ≥ +tCCD_S, ch.wr ≥ +tRTW |
//! | `WR`  | max(now, b.col, bg.col, ch.col, ch.wr) | b.pre ≥ +tWL+tBL+tWR, bg.col ≥ +tCCD_L, ch.col ≥ +tCCD_S, ch.rd ≥ +tWL+tBL+tWTR |
//! | `PRE` | max(now, b.pre) | b.act ≥ +tRP |
//! | `PREA`| max over banks of PRE | open banks' act ≥ +tRP |
//! | `REF` | max(now, maxᵦ b.act, ch.col) | every b.act ≥ +tRFC |
//!
//! All-bank mode collapses the per-bank vector onto one `{act, col, pre}`
//! triple paced at tCCD_L, and the SB↔AB mode machine (ACT to
//! `ABMR`/`SBMR` arming a transition that the matching PRE commits) is
//! mirrored verbatim — mode transitions change *which* formula applies.
//!
//! # Exactness
//!
//! The predictor is exact, not approximate. [`ChannelPredictor::run`]
//! returns the same end cycle, command count, fence count and cancellation
//! flag as [`crate::KernelEngine::run_on_channel_bounded`] on a channel in
//! the same state, and [`predict_launch`] — the loop over it, one clock per
//! channel plus the closing barrier — the same as
//! [`crate::KernelEngine::run_system_bounded`]. The tests hold it to that
//! before every pass of Table VI's GEMVs and every launch of the synthetic
//! engine corpus (see `docs/FASTPATH.md`), and
//! `crates/models/tests/timing_only.rs` over every DRAM generation, unit
//! count, fence cost and ordering regime the cost model is swept across.
//! A launch it cannot predict exactly — a channel outside the canonical
//! single-bank state — is declined with `None`, never mispredicted.
//!
//! # Callers
//!
//! [`predict_launch`] cross-checks and pre-prices launches on a live
//! [`PimSystem`]. `pim_models::CostModel`, which only ever asks "how
//! long?", prices each kernel shape's [`Kernel`] with
//! [`ChannelPredictor::fold`] directly: it constructs no device and unrolls
//! no command list.

use crate::config::HostConfig;
use crate::engine::{Batch, BoundedResult, ExecutionMode, KernelResult};
use crate::kernel::Kernel;
use crate::system::PimSystem;
use pim_core::conf::{ABMR_ROW, SBMR_ROW};
use pim_dram::{BankAddr, ChannelTimingState, Command, CommandSink, Cycle, TimingParams};

/// What a launch will do to the system clock, predicted analytically.
///
/// Field-for-field comparable with the accounting of
/// [`crate::KernelEngine::run_system_bounded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchPrediction {
    /// The closing-barrier cycle (the launch's `KernelResult::end_cycle`).
    pub end_cycle: Cycle,
    /// Total commands issued, summed over channels.
    pub commands: u64,
    /// Total fences, summed over channels.
    pub fences: u64,
    /// Per batch list, whether the cycle limit would cancel that channel.
    pub cancelled: Vec<bool>,
}

/// An armed mode transition (mirrors `pim_core::ModeWalker`'s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    ToAllBank(BankAddr),
    ToSingleBank,
}

/// What [`ChannelPredictor::fold`] did: the accounting [`ChannelPredictor::run`]
/// would give for the materialised kernel, and how much of it was stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folded {
    /// The accounting of the whole kernel.
    pub ran: BoundedResult,
    /// Commands stepped through the issue formulas one by one; the other
    /// `ran.result.commands - stepped` were accounted as repetitions.
    pub stepped: u64,
}

/// The all-bank clock triple (mirrors the device's `AbTiming`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbClock {
    open: bool,
    next_act: Cycle,
    next_col: Cycle,
    next_pre: Cycle,
}

/// A clock's state relative to its `now`, canonical by the
/// [`ChannelTimingState`] rule (a horizon at or before `now` is 0) plus
/// the tFAW window's live entries as ages, oldest first: two clocks in
/// equal phase time every future command stream identically, each from its
/// own `now`. Unlike a quiescent channel's, a trip boundary's window can
/// be live.
#[derive(Debug, PartialEq, Eq)]
struct Phase {
    sb: ChannelTimingState,
    faw: ([Cycle; 4], usize),
    bank_open: [bool; pim_dram::BANKS_PER_PCH],
    ab_mode: bool,
    pending: Option<Pending>,
    ab: AbClock,
}

/// One channel's closed-form clock: every horizon the issue formulas
/// consult, and nothing else (no banks, no data, no stats).
///
/// This is the per-channel answer to "how long?". [`predict_launch`] loops
/// it over a system's channels, and `pim_models::CostModel` folds every
/// kernel shape it prices over one, so the two share one set of formulas.
#[derive(Debug, Clone)]
pub struct ChannelPredictor<'t> {
    t: &'t TimingParams,
    now: Cycle,
    bank_next_act: [Cycle; pim_dram::BANKS_PER_PCH],
    bank_next_col: [Cycle; pim_dram::BANKS_PER_PCH],
    bank_next_pre: [Cycle; pim_dram::BANKS_PER_PCH],
    bank_open: [bool; pim_dram::BANKS_PER_PCH],
    bg_next_col: [Cycle; pim_dram::BANK_GROUPS],
    bg_next_act: [Cycle; pim_dram::BANK_GROUPS],
    ch_next_col: Cycle,
    ch_next_act: Cycle,
    ch_next_rd: Cycle,
    ch_next_wr: Cycle,
    /// Absolute cycles of the last ≤4 ACTs (ring, `faw_head` = oldest slot
    /// when full).
    faw_acts: [Cycle; 4],
    faw_head: usize,
    faw_count: usize,
    ab_mode: bool,
    pending: Option<Pending>,
    ab: AbClock,
}

impl<'t> ChannelPredictor<'t> {
    /// A channel as it powers on: cycle 0, every bank closed, single-bank
    /// mode, no constraint pending.
    pub fn power_on(t: &'t TimingParams) -> Self {
        ChannelPredictor {
            t,
            now: 0,
            bank_next_act: [0; pim_dram::BANKS_PER_PCH],
            bank_next_col: [0; pim_dram::BANKS_PER_PCH],
            bank_next_pre: [0; pim_dram::BANKS_PER_PCH],
            bank_open: [false; pim_dram::BANKS_PER_PCH],
            bg_next_col: [0; pim_dram::BANK_GROUPS],
            bg_next_act: [0; pim_dram::BANK_GROUPS],
            ch_next_col: 0,
            ch_next_act: 0,
            ch_next_rd: 0,
            ch_next_wr: 0,
            faw_acts: [0; 4],
            faw_head: 0,
            faw_count: 0,
            ab_mode: false,
            pending: None,
            ab: AbClock { open: false, next_act: 0, next_col: 0, next_pre: 0 },
        }
    }

    /// A channel at cycle `now` in the canonical state `st` fingerprints
    /// (all banks closed, tFAW window aged out, single-bank mode, no
    /// pending transition).
    pub fn from_state(now: Cycle, st: &ChannelTimingState, t: &'t TimingParams) -> Self {
        let abs = |rel: Cycle| now + rel;
        ChannelPredictor {
            now,
            bank_next_act: st.bank_next_act.map(abs),
            bank_next_col: st.bank_next_col.map(abs),
            bank_next_pre: st.bank_next_pre.map(abs),
            bg_next_col: st.bg_next_col.map(abs),
            bg_next_act: st.bg_next_act.map(abs),
            ch_next_col: abs(st.ch_next_col),
            ch_next_act: abs(st.ch_next_act),
            ch_next_rd: abs(st.ch_next_rd),
            ch_next_wr: abs(st.ch_next_wr),
            ..Self::power_on(t)
        }
    }

    /// The channel's clock: the issue cycle of its last command, plus any
    /// fence stall that followed it.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Folds `batches` over the clock exactly as
    /// [`crate::KernelEngine::run_on_channel_bounded`] runs them on a
    /// channel in this state — same cancellation checkpoints, issue order
    /// and fence stalls, all asked of [`Batch`] and [`ExecutionMode`] — and
    /// returns the accounting the engine would.
    pub fn run(
        &mut self,
        host: &HostConfig,
        batches: &[Batch],
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> BoundedResult {
        self.run_from(host, &Batch::issue_list(batches, mode), 0, mode, limit)
    }

    /// [`ChannelPredictor::run`] over `batches`, already as
    /// [`Batch::issue_list`] makes them, as numbers `first..` of their
    /// channel's list (a seeded shuffle is keyed by that number).
    #[inline]
    fn run_from(
        &mut self,
        host: &HostConfig,
        batches: &[Batch],
        first: usize,
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> BoundedResult {
        // Handed down as an argument: a `&TimingParams` parameter is known
        // not to alias the horizons the issue formulas write, a field read
        // back through `self` is not (5.9 -> 5.6 ns per raw command).
        let t = self.t;
        let over = |now: Cycle| limit.is_some_and(|l| now >= l);
        let mut commands = 0u64;
        let mut fences = 0u64;
        let mut cancelled = false;
        for (bi, b) in batches.iter().enumerate() {
            if b.cancellable() && over(self.now) {
                cancelled = true;
                continue;
            }
            commands += b.commands.len() as u64;
            for c in b.issue_order(first + bi, mode).iter() {
                self.issue(t, c);
            }
            if let Some(stall) = mode.fence_stall(b, host, t) {
                self.now += stall;
                fences += 1;
            }
        }
        BoundedResult { result: KernelResult { end_cycle: self.now, commands, fences }, cancelled }
    }

    /// Prices `kernel` as [`ChannelPredictor::run`] prices
    /// `kernel.materialise()` — same accounting, a clock left in a state
    /// that times everything after it the same — without unrolling it.
    ///
    /// Prologue, epilogue and the first trips of every loop step through the
    /// same issue formulas as `run`. At each trip boundary the clock's phase
    /// — its state relative to `now`, past horizons collapsed — is compared
    /// with the boundary before: when the two are **equal**, every remaining
    /// trip repeats the last one shifted by the cycles it took, because the
    /// formulas are max-plus in absolute time and read neither column nor row
    /// (a [`crate::Loop`] cannot reach the mode registers) — so the trips
    /// left are accounted by multiplication and the clock is shifted past
    /// them. Where that argument does not hold the loop is stepped to the
    /// end: under a `limit` (cancellation reads absolute time), under a
    /// seeded [`ExecutionMode::Fenced`] over a commutative batch (the shuffle
    /// differs per trip), and for as long as no two consecutive boundaries
    /// are equal. A mode that reorders across batches (the unfenced demo)
    /// leaves no period to fold: the materialised kernel is run.
    pub fn fold(
        &mut self,
        host: &HostConfig,
        kernel: &Kernel,
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> Folded {
        if mode.crosses_batches() {
            let ran = self.run(host, &kernel.clone().materialise(), mode, limit);
            return Folded { ran, stepped: ran.result.commands };
        }
        let mut total = self.run_from(host, &kernel.prologue, 0, mode, limit);
        let mut index = kernel.prologue.len();
        // Commands accounted by multiplication instead of being stepped.
        let mut multiplied = 0;
        let account = |total: &mut BoundedResult, ran: BoundedResult, times: u64| {
            total.result.commands += times * ran.result.commands;
            total.result.fences += times * ran.result.fences;
            total.cancelled |= ran.cancelled;
        };
        let seeded = matches!(mode, ExecutionMode::Fenced { reorder_seed: Some(_) });
        for l in &kernel.body {
            let period = l.period();
            let shuffled = seeded && period.iter().any(|b| b.commutative && b.commands.len() > 1);
            let periodic = limit.is_none() && !shuffled;
            let mut boundary: Option<(Phase, Cycle)> = None;
            let mut left = u64::from(l.trips());
            while left > 0 {
                let ran = self.run_from(host, period, index, mode, limit);
                account(&mut total, ran, 1);
                index += period.len();
                left -= 1;
                if !periodic || left == 0 {
                    continue;
                }
                let phase = self.phase();
                if let Some((_, at)) = boundary.as_ref().filter(|(last, _)| *last == phase) {
                    self.shift(left * (self.now - at));
                    account(&mut total, ran, left);
                    multiplied += left * ran.result.commands;
                    index += left as usize * period.len();
                    break;
                }
                boundary = Some((phase, self.now));
            }
        }
        let ran = self.run_from(host, &kernel.epilogue, index, mode, limit);
        account(&mut total, ran, 1);
        total.result.end_cycle = self.now;
        Folded { ran: total, stepped: total.result.commands - multiplied }
    }

    /// The clock's state relative to `now`.
    fn phase(&self) -> Phase {
        let rel = |c: Cycle| c.saturating_sub(self.now);
        let mut faw_ages = [0; 4];
        let mut faw_count = 0;
        for i in 0..self.faw_count {
            let act = self.faw_acts[(self.faw_head + 4 - self.faw_count + i) % 4];
            if self.now - act < self.t.t_faw {
                faw_ages[faw_count] = self.now - act;
                faw_count += 1;
            }
        }
        Phase {
            sb: ChannelTimingState {
                bank_next_act: self.bank_next_act.map(rel),
                bank_next_col: self.bank_next_col.map(rel),
                bank_next_pre: self.bank_next_pre.map(rel),
                bg_next_col: self.bg_next_col.map(rel),
                bg_next_act: self.bg_next_act.map(rel),
                ch_next_col: rel(self.ch_next_col),
                ch_next_act: rel(self.ch_next_act),
                ch_next_rd: rel(self.ch_next_rd),
                ch_next_wr: rel(self.ch_next_wr),
            },
            faw: (faw_ages, faw_count),
            bank_open: self.bank_open,
            ab_mode: self.ab_mode,
            pending: self.pending,
            ab: AbClock {
                open: self.ab.open,
                next_act: rel(self.ab.next_act),
                next_col: rel(self.ab.next_col),
                next_pre: rel(self.ab.next_pre),
            },
        }
    }

    /// Moves the clock `by` cycles later in the same [`Phase`].
    fn shift(&mut self, by: Cycle) {
        let ab = &mut self.ab;
        let scalars = [
            &mut self.now,
            &mut self.ch_next_col,
            &mut self.ch_next_act,
            &mut self.ch_next_rd,
            &mut self.ch_next_wr,
            &mut ab.next_act,
            &mut ab.next_col,
            &mut ab.next_pre,
        ];
        let arrays = (self.bank_next_act.iter_mut())
            .chain(&mut self.bank_next_col)
            .chain(&mut self.bank_next_pre)
            .chain(&mut self.bg_next_col)
            .chain(&mut self.bg_next_act)
            .chain(&mut self.faw_acts);
        for horizon in arrays.chain(scalars) {
            *horizon += by;
        }
    }

    fn faw_record(&mut self, cycle: Cycle) {
        self.faw_acts[self.faw_head] = cycle;
        self.faw_head = (self.faw_head + 1) % 4;
        self.faw_count = (self.faw_count + 1).min(4);
    }

    fn faw_earliest(&self) -> Cycle {
        if self.faw_count < 4 {
            return 0;
        }
        self.faw_acts[self.faw_head].saturating_add(self.t.t_faw)
    }

    /// Raises every single-bank horizon to at least `cycle` (the device's
    /// `quiesce_until` on AB-mode exit).
    fn quiesce_until(&mut self, cycle: Cycle) {
        for i in 0..pim_dram::BANKS_PER_PCH {
            self.bank_next_act[i] = self.bank_next_act[i].max(cycle);
            self.bank_next_col[i] = self.bank_next_col[i].max(cycle);
            self.bank_next_pre[i] = self.bank_next_pre[i].max(cycle);
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

    /// Applies one command to the clock exactly as the controller's raw
    /// path would (`earliest_issue` then `issue` at that cycle), advancing
    /// `now` to the issue cycle.
    fn issue(&mut self, t: &TimingParams, cmd: &Command) {
        let at = if self.ab_mode { self.issue_ab(t, cmd) } else { self.issue_sb(t, cmd) };
        self.now = at;
    }

    fn issue_sb(&mut self, t: &TimingParams, cmd: &Command) -> Cycle {
        match cmd {
            Command::Act { bank, row } => {
                let i = bank.flat_index();
                let at = self
                    .now
                    .max(self.bank_next_act[i])
                    .max(self.bg_next_act[bank.bg as usize])
                    .max(self.ch_next_act)
                    .max(self.faw_earliest());
                self.bank_open[i] = true;
                self.bank_next_col[i] = at + t.t_rcd;
                self.bank_next_pre[i] = at + t.t_ras;
                self.bank_next_act[i] = at + t.t_rc;
                let g = bank.bg as usize;
                self.bg_next_act[g] = self.bg_next_act[g].max(at + t.t_rrd_l);
                self.ch_next_act = self.ch_next_act.max(at + t.t_rrd_s);
                self.faw_record(at);
                self.pending = (*row == ABMR_ROW).then_some(Pending::ToAllBank(*bank));
                at
            }
            Command::Rd { bank, .. } => {
                let i = bank.flat_index();
                let g = bank.bg as usize;
                let at = self
                    .now
                    .max(self.bank_next_col[i])
                    .max(self.bg_next_col[g])
                    .max(self.ch_next_col)
                    .max(self.ch_next_rd);
                self.bank_next_pre[i] = self.bank_next_pre[i].max(at + t.t_rtp);
                self.bg_next_col[g] = self.bg_next_col[g].max(at + t.t_ccd_l);
                self.ch_next_col = self.ch_next_col.max(at + t.t_ccd_s);
                self.ch_next_wr = self.ch_next_wr.max(at + t.t_rtw);
                self.pending = None;
                at
            }
            Command::Wr { bank, .. } => {
                let i = bank.flat_index();
                let g = bank.bg as usize;
                let at = self
                    .now
                    .max(self.bank_next_col[i])
                    .max(self.bg_next_col[g])
                    .max(self.ch_next_col)
                    .max(self.ch_next_wr);
                self.bank_next_pre[i] = self.bank_next_pre[i].max(at + t.t_wl + t.t_bl + t.t_wr);
                self.bg_next_col[g] = self.bg_next_col[g].max(at + t.t_ccd_l);
                self.ch_next_col = self.ch_next_col.max(at + t.t_ccd_s);
                self.ch_next_rd = self.ch_next_rd.max(at + t.t_wl + t.t_bl + t.t_wtr);
                self.pending = None;
                at
            }
            Command::Pre { bank } => {
                let i = bank.flat_index();
                let at = self.now.max(self.bank_next_pre[i]);
                self.bank_next_act[i] = self.bank_next_act[i].max(at + t.t_rp);
                self.bank_open[i] = false;
                if self.pending == Some(Pending::ToAllBank(*bank)) {
                    self.pending = None;
                    self.ab_mode = true;
                    // The device inherits the post-PRE ACT horizon so the
                    // first all-bank ACT respects tRP.
                    self.ab = AbClock {
                        open: false,
                        next_act: at
                            .max(self.bank_next_act[i])
                            .max(self.bg_next_act[bank.bg as usize])
                            .max(self.ch_next_act)
                            .max(self.faw_earliest()),
                        next_col: at,
                        next_pre: at,
                    };
                }
                at
            }
            Command::PreAll => {
                let mut at = self.now;
                for &p in &self.bank_next_pre {
                    at = at.max(p);
                }
                for i in 0..pim_dram::BANKS_PER_PCH {
                    if self.bank_open[i] {
                        self.bank_next_act[i] = self.bank_next_act[i].max(at + t.t_rp);
                        self.bank_open[i] = false;
                    }
                }
                at
            }
            Command::Ref => {
                let banks = self.bank_next_act.iter().copied().max().unwrap_or(0);
                let at = self.now.max(banks).max(self.ch_next_col);
                for a in &mut self.bank_next_act {
                    *a = (*a).max(at + t.t_rfc);
                }
                at
            }
        }
    }

    fn issue_ab(&mut self, t: &TimingParams, cmd: &Command) -> Cycle {
        match cmd {
            Command::Act { row, .. } => {
                let at = self.now.max(self.ab.next_act);
                // All-bank ACT drives every bank in lock-step.
                for i in 0..pim_dram::BANKS_PER_PCH {
                    self.bank_open[i] = true;
                    self.bank_next_col[i] = at + t.t_rcd;
                    self.bank_next_pre[i] = at + t.t_ras;
                    self.bank_next_act[i] = at + t.t_rc;
                }
                self.ab.open = true;
                self.ab.next_col = at + t.t_rcd;
                self.ab.next_pre = at + t.t_ras;
                self.ab.next_act = at + t.t_rc;
                self.pending = (*row == SBMR_ROW).then_some(Pending::ToSingleBank);
                at
            }
            Command::Pre { .. } | Command::PreAll => {
                let at = self.now.max(self.ab.next_pre);
                for i in 0..pim_dram::BANKS_PER_PCH {
                    if self.bank_open[i] {
                        self.bank_next_act[i] = self.bank_next_act[i].max(at + t.t_rp);
                        self.bank_open[i] = false;
                    }
                }
                self.ab.open = false;
                self.ab.next_act = self.ab.next_act.max(at + t.t_rp);
                if self.pending == Some(Pending::ToSingleBank) {
                    self.pending = None;
                    self.ab_mode = false;
                    let q = self.ab.next_act;
                    self.quiesce_until(q);
                }
                at
            }
            Command::Rd { .. } => {
                let at = self.now.max(self.ab.next_col);
                self.ab.next_col = at + t.t_ccd_l;
                self.ab.next_pre = self.ab.next_pre.max(at + t.t_rtp);
                at
            }
            Command::Wr { .. } => {
                let at = self.now.max(self.ab.next_col);
                self.ab.next_col = at + t.t_ccd_l;
                self.ab.next_pre = self.ab.next_pre.max(at + t.t_wl + t.t_bl + t.t_wr);
                at
            }
            Command::Ref => {
                let at = self.now.max(self.ab.next_act);
                self.ab.next_act = self.ab.next_act.max(at + t.t_rfc);
                at
            }
        }
    }
}

/// Predicts what [`crate::KernelEngine::run_system_bounded`] would return
/// for `per_channel` on the system's *current* state, without running it.
///
/// Returns `None` — never a wrong answer — when the launch is outside the
/// predictor's exact domain:
///
/// * a participating channel is not in the canonical single-bank state
///   (open row, all-bank mode, pending transition, or installed faults), or
/// * `per_channel` names more channels than the system has.
pub fn predict_launch<L: AsRef<[Batch]>>(
    sys: &PimSystem,
    per_channel: &[L],
    mode: ExecutionMode,
    limit: Option<Cycle>,
) -> Option<LaunchPrediction> {
    if per_channel.len() > sys.channel_count() {
        return None;
    }
    let mut commands = 0u64;
    let mut fences = 0u64;
    let mut cancelled = Vec::with_capacity(per_channel.len());
    // The closing barrier takes the max over every channel, including
    // idle ones that only advance to it.
    let mut end = 0;
    for i in 0..sys.channel_count() {
        end = end.max(sys.channel(i).now());
    }
    for (i, batches) in per_channel.iter().enumerate() {
        let ctrl = sys.channel(i);
        let now = ctrl.now();
        let st = ctrl.sink().launch_fingerprint(now)?;
        let mut clock = ChannelPredictor::from_state(now, &st, ctrl.sink().timing());
        let ran = clock.run(&sys.host, batches.as_ref(), mode, limit);
        commands += ran.result.commands;
        fences += ran.result.fences;
        cancelled.push(ran.cancelled);
        end = end.max(ran.result.end_cycle);
    }
    Some(LaunchPrediction { end_cycle: end, commands, fences, cancelled })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KernelEngine;
    use crate::system::PimSystem;
    use pim_core::{conf, PimConfig};

    fn system() -> PimSystem {
        let mut host = HostConfig::paper();
        host.stacks = 1;
        let mut sys = PimSystem::new(host, PimConfig::paper());
        sys.set_fastpath_enabled(false);
        sys
    }

    fn sb_batches(rows: u32) -> Vec<Batch> {
        let b = BankAddr::new(0, 0);
        let mut out = Vec::new();
        for r in 0..rows {
            out.push(Batch::setup(vec![Command::Act { bank: b, row: r }]));
            out.push(Batch::commutative((0..8).map(|c| Command::Rd { bank: b, col: c }).collect()));
            out.push(Batch::setup(vec![Command::Pre { bank: b }]));
        }
        out
    }

    fn ab_batches() -> Vec<Batch> {
        let b = BankAddr::new(1, 2);
        let mut out = vec![Batch::setup(conf::enter_ab_sequence())];
        out.push(Batch::setup(vec![Command::Act { bank: b, row: 7 }]));
        out.push(Batch::fenced_ordered(
            (0..8).map(|c| Command::Wr { bank: b, col: c, data: [c as u8; 32] }).collect(),
        ));
        out.push(Batch::setup(vec![Command::PreAll]));
        out.push(Batch::setup(conf::exit_ab_sequence()));
        out
    }

    fn assert_matches(per_channel: &[Vec<Batch>], mode: ExecutionMode, limit: Option<Cycle>) {
        let mut sys = system();
        let p = predict_launch(&sys, per_channel, mode, limit).expect("predictable");
        let (r, cancelled) = KernelEngine::run_system_bounded(&mut sys, per_channel, mode, limit);
        assert_eq!(p.end_cycle, r.end_cycle, "end cycle");
        assert_eq!(p.commands, r.commands, "commands");
        assert_eq!(p.fences, r.fences, "fences");
        assert_eq!(p.cancelled, cancelled, "cancellation flags");
    }

    #[test]
    fn predicts_single_bank_fenced_exactly() {
        assert_matches(
            &[sb_batches(3), sb_batches(1)],
            ExecutionMode::Fenced { reorder_seed: None },
            None,
        );
    }

    /// The seeded in-window shuffle, and the Fig. 5(c) demo's whole-kernel
    /// one on single-bank triggers on one bank (a list it keeps legal).
    #[test]
    fn predicts_shuffled_fenced_exactly() {
        assert_matches(
            &[sb_batches(2), sb_batches(2)],
            ExecutionMode::Fenced { reorder_seed: Some(0xC0FFEE) },
            None,
        );
        assert_matches(&[sb_batches(2)], ExecutionMode::UnfencedReordered { seed: 1 }, None);
    }

    #[test]
    fn predicts_ordered_exactly() {
        assert_matches(&[sb_batches(2)], ExecutionMode::Ordered, None);
    }

    #[test]
    fn predicts_ab_mode_choreography_exactly() {
        assert_matches(&[ab_batches()], ExecutionMode::Fenced { reorder_seed: None }, None);
        assert_matches(&[ab_batches(), sb_batches(1)], ExecutionMode::Ordered, None);
        let demo = ExecutionMode::UnfencedReordered { seed: 0xF16 };
        assert_matches(&[ab_batches(), sb_batches(1)], demo, None);
    }

    #[test]
    fn predicts_cancellation_exactly() {
        // A limit that fires mid-kernel: the cold run and the prediction
        // must cancel at the same checkpoints.
        let mut sys = system();
        let per = [sb_batches(6)];
        let mode = ExecutionMode::Fenced { reorder_seed: None };
        let full = KernelEngine::run_system(&mut sys, &per, mode);
        let limit = Some(full.end_cycle / 2);
        assert_matches(&per, mode, limit);
    }

    #[test]
    fn predicts_warm_state_exactly() {
        // Predict the SECOND launch from the state the first left behind.
        let mut sys = system();
        let per = [sb_batches(2), ab_batches()];
        let mode = ExecutionMode::Fenced { reorder_seed: None };
        KernelEngine::run_system(&mut sys, &per, mode);
        let p = predict_launch(&sys, &per, mode, None).expect("predictable");
        let (r, _) = KernelEngine::run_system_bounded(&mut sys, &per, mode, None);
        assert_eq!(p.end_cycle, r.end_cycle);
        assert_eq!(p.commands, r.commands);
        assert_eq!(p.fences, r.fences);
    }

    #[test]
    fn power_on_is_a_fresh_channels_fingerprint() {
        // Two launches back to back, so the second starts from whatever the
        // first left on each clock.
        let sys = system();
        let t = sys.channel(0).sink().timing();
        let st = sys.channel(0).sink().launch_fingerprint(0).expect("canonical at power-on");
        let mode = ExecutionMode::Fenced { reorder_seed: None };
        let mut fresh = ChannelPredictor::power_on(t);
        let mut seeded = ChannelPredictor::from_state(0, &st, t);
        for list in [ab_batches(), sb_batches(2)] {
            let ran = fresh.run(&sys.host, &list, mode, None);
            assert_eq!(ran, seeded.run(&sys.host, &list, mode, None));
        }
    }
}
