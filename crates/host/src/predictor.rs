//! The analytic launch predictor: a launch's end cycle, command count and
//! fence count, computed without touching the simulated system.
//!
//! This is the second (cheaper) tier of the launch fast path (see
//! [`crate::fastpath`]). Where the memoization cache replays a *recorded*
//! launch, the predictor folds the command stream over the same JEDEC
//! clock the device times it with ([`pim_dram::Clock`] and
//! [`pim_dram::AllBankClock`], whose module docs hold the per-command-class
//! formulas) — without allocating banks, moving data blocks, or executing
//! FP16 arithmetic. What it adds to the clock is what the engine and the
//! device add around it:
//!
//! * the SB↔AB mode flags (ACT to `ABMR`/`SBMR` arming a transition that
//!   the matching PRE commits), mirrored verbatim — a transition changes
//!   *which* clock times the next command;
//! * the engine's fences and its cancellation checkpoints;
//! * [`ChannelPredictor::fold`], which accounts a loop's repeating trips by
//!   multiplication once the clock's phase repeats.
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
use pim_dram::{AllBankClock, BankAddr, Clock, Command, CommandSink, Cycle, TimingParams};

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

/// The clocks and mode flags seen from `now` ([`Clock::seen_from`]): two
/// predictors in equal phase time every future command stream identically,
/// each from its own `now`. The open flags are compared, never the rows: a
/// row loop opens a new row every trip. Unlike a quiescent channel's, a
/// trip boundary's tFAW window can be live.
#[derive(Debug, PartialEq, Eq)]
struct Phase {
    sb: Clock,
    ab: AllBankClock,
    ab_mode: bool,
    pending: Option<Pending>,
}

/// One channel's closed-form clock: the device's JEDEC clocks and mode
/// flags, and nothing else (no banks, no data, no stats).
///
/// This is the per-channel answer to "how long?". [`predict_launch`] loops
/// it over a system's channels, and `pim_models::CostModel` folds every
/// kernel shape it prices over one, so the two share one set of formulas
/// — the device's.
#[derive(Debug, Clone)]
pub struct ChannelPredictor<'t> {
    t: &'t TimingParams,
    now: Cycle,
    sb: Clock,
    ab: AllBankClock,
    ab_mode: bool,
    pending: Option<Pending>,
}

impl<'t> ChannelPredictor<'t> {
    /// A channel as it powers on: cycle 0, every bank closed, single-bank
    /// mode, no constraint pending.
    pub fn power_on(t: &'t TimingParams) -> Self {
        ChannelPredictor {
            t,
            now: 0,
            sb: Clock::default(),
            ab: AllBankClock::default(),
            ab_mode: false,
            pending: None,
        }
    }

    /// A channel at cycle `now` whose clock, seen from `now`, is `seen` —
    /// a launch fingerprint — in single-bank mode with no pending
    /// transition.
    pub fn from_state(now: Cycle, seen: &Clock, t: &'t TimingParams) -> Self {
        ChannelPredictor { now, sb: seen.at(now), ..Self::power_on(t) }
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
                    // The same phase, `left` trips later.
                    self.now += left * (self.now - at);
                    (self.sb, self.ab) = (phase.sb.at(self.now), phase.ab.at(self.now));
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
        Phase {
            sb: self.sb.seen_from(self.now),
            ab: self.ab.seen_from(self.now),
            ab_mode: self.ab_mode,
            pending: self.pending,
        }
    }

    /// Applies one command to the clock exactly as the controller's raw
    /// path would (`issue` at the earliest cycle from `now`), advancing
    /// `now` to the issue cycle.
    #[inline]
    fn issue(&mut self, t: &TimingParams, cmd: &Command) {
        if self.ab_mode {
            let at = self.ab.earliest(cmd, self.now);
            self.ab.advance(cmd, at, t);
            match *cmd {
                Command::Act { row, .. } => {
                    self.sb.all_bank_activate(at, t);
                    self.pending = (row == SBMR_ROW).then_some(Pending::ToSingleBank);
                }
                Command::Pre { .. } | Command::PreAll => {
                    self.sb.all_bank_precharge(at, t);
                    if self.pending == Some(Pending::ToSingleBank) {
                        (self.pending, self.ab_mode) = (None, false);
                        self.ab.exit(&mut self.sb);
                    }
                }
                _ => {}
            }
            self.now = at;
            return;
        }
        // Stepped inside each arm, the clock's formulas specialise to the
        // arm's command class: a raw command took 6.1 ns with the clock
        // stepped ahead of this match, 5.1 ns so (medians of 15 runs on a
        // 2-vCPU Xeon).
        let sb = &mut self.sb;
        let step = |sb: &mut Clock| {
            let at = sb.earliest(cmd, self.now);
            sb.advance(cmd, at, t);
            at
        };
        self.now = match *cmd {
            Command::Act { bank, row } => {
                self.pending = (row == ABMR_ROW).then_some(Pending::ToAllBank(bank));
                step(sb)
            }
            Command::Rd { .. } | Command::Wr { .. } => {
                self.pending = None;
                step(sb)
            }
            Command::Pre { bank } => {
                let at = step(sb);
                if self.pending == Some(Pending::ToAllBank(bank)) {
                    (self.pending, self.ab_mode) = (None, true);
                    self.ab = AllBankClock::enter(&self.sb, bank, at);
                }
                at
            }
            Command::PreAll | Command::Ref => step(sb),
        };
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
        let seen = ctrl.sink().launch_fingerprint(now)?;
        let mut clock = ChannelPredictor::from_state(now, &seen, ctrl.sink().timing());
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
            (0..8).map(|c| Command::Wr { bank: b, col: c, data: [c as u8; 32].into() }).collect(),
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
