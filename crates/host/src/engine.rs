//! The kernel engine: turns per-channel PIM command streams into issued
//! DRAM traffic under the paper's ordering regimes.
//!
//! A PIM kernel is a sequence of [`Batch`]es per channel, issued in batch
//! order through [`MemoryController::issue_raw`]; `pim-dram`'s FR-FCFS
//! request path carries no kernel. On the paper's system the controller
//! may reorder the commands of a batch (Fig. 5), so the host inserts a
//! barrier *after every batch* to bound that reordering to the AAM
//! tolerance window — "we need to use a barrier for every 8 DRAM commands
//! [...] because our AAM can handle out-of-order execution of only up to 8
//! PIM instructions at a time" (Section VII-B). The one in-window
//! reordering a launch here sees is [`Batch::issue_order`]'s seeded
//! permutation of commutative batches: an adversary AAM must tolerate.
//!
//! Three execution modes reproduce the paper's ordering regimes:
//!
//! * [`ExecutionMode::Fenced`] — the shipped system: a drain-and-sync cost
//!   per barrier, and optionally the seeded intra-batch permutation;
//! * [`ExecutionMode::Ordered`] — the §VII-B what-if: "a processor
//!   manufacturer confirms that the order of DRAM commands can be preserved
//!   only in PIM mode at negligible hardware and performance costs"; no
//!   reordering, no fences;
//! * [`ExecutionMode::UnfencedReordered`] — Fig. 5(c)'s miscompiled kernel:
//!   [`Batch::issue_list`] turns the list into one unfenced batch whose
//!   triggers are shuffled across the whole kernel, and that list issues
//!   like any other.
//!
//! A system-wide launch ([`KernelEngine::run_system_bounded`]) is one
//! bracket around two things: the cold per-channel runner (which knows
//! nothing but "run this list on this channel") and the launch-memoization
//! fast path ([`crate::fastpath`]), which decides which channels the runner
//! is handed — all of them, none of them on a hit, or on a miss one per
//! class of channels that enter the launch with equal command structure,
//! timing state and clock.

use crate::config::HostConfig;
use crate::fastpath::{LaunchCache, PreparedLaunch};
use crate::system::PimSystem;
use pim_core::PimChannel;
use pim_dram::{Command, CommandSink, Cycle, MemoryController, TimingParams};
use pim_obs::{names, Event, Recorder, Scope};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;

/// One group of DRAM commands for a single channel, optionally followed by
/// a fence.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The commands, in program order.
    pub commands: Vec<Command>,
    /// Whether the batch's triggers are order-tolerant (AAM arithmetic over
    /// disjoint address-derived registers). Order-tolerant batches may be
    /// reordered by the controller without changing results; the engine
    /// only shuffles these — reordering a non-commutative batch models a
    /// *miscompiled* kernel and is used by the Fig. 5 demonstration.
    pub commutative: bool,
    /// Whether the host issues a barrier after this batch (Section IV-C:
    /// the fence bounding the controller's reordering to the AAM window).
    pub fence_after: bool,
    /// Optional name for profiling spans (the executor stamps its phase
    /// here: `enter_ab`, `crf`, `pim_on`, ...).
    pub label: Option<&'static str>,
}

impl Batch {
    /// A fenced batch of order-tolerant trigger commands — the common shape
    /// of a PIM kernel's data phase (e.g. 8 AAM MACs).
    pub fn commutative(commands: Vec<Command>) -> Batch {
        Batch { commands, commutative: true, fence_after: true, label: None }
    }

    /// A fenced batch whose internal order matters (e.g. the single WR that
    /// streams operands into the SRF before a group of MACs).
    pub fn fenced_ordered(commands: Vec<Command>) -> Batch {
        Batch { commands, commutative: false, fence_after: true, label: None }
    }

    /// An unfenced, ordered batch: row management (ACT/PRE) and mode
    /// setup, whose ordering the DRAM controller already guarantees via
    /// bank-state dependencies.
    pub fn setup(commands: Vec<Command>) -> Batch {
        Batch { commands, commutative: false, fence_after: false, label: None }
    }

    /// Names this batch for profiling spans.
    pub fn with_label(mut self, label: &'static str) -> Batch {
        self.label = Some(label);
        self
    }

    /// Whether the watchdog may skip this batch once the cycle limit has
    /// passed: data batches (commutative or fenced) are cancellation
    /// checkpoints, setup/teardown batches always issue.
    pub(crate) fn cancellable(&self) -> bool {
        self.commutative || self.fence_after
    }

    /// The order in which this batch — number `index` of its channel's
    /// list — issues under `mode`: program order, except that a seeded
    /// [`ExecutionMode::Fenced`] shuffles commutative batches with a
    /// permutation derived from the seed and the batch index. The engine,
    /// the predictor and data replay all issue in this order.
    pub(crate) fn issue_order(&self, index: usize, mode: ExecutionMode) -> Cow<'_, [Command]> {
        match mode {
            ExecutionMode::Fenced { reorder_seed: Some(seed) }
                if self.commutative && self.commands.len() > 1 =>
            {
                let mut shuffled = self.commands.clone();
                shuffled.shuffle(&mut SmallRng::seed_from_u64(seed ^ index as u64));
                Cow::Owned(shuffled)
            }
            _ => Cow::Borrowed(&self.commands),
        }
    }

    /// The list a channel issues for `batches` under `mode`: `batches`
    /// itself, except that [`ExecutionMode::UnfencedReordered`] flattens a
    /// list holding a data batch into the one unfenced batch
    /// `unfenced_stream`, with the data batches' column commands shuffled
    /// across the (absent) fence boundaries — the failure mode of Fig.
    /// 5(b/c). Setup commands (mode transitions, CRF programming) keep
    /// their slots: the controller serializes them through bank-state
    /// dependencies, and the hazard the paper describes is among the
    /// *trigger* commands. The flattened list holds no data batch, so a
    /// second application borrows it unchanged. The engine, the predictor
    /// and the fast path all see the list this returns.
    pub(crate) fn issue_list(batches: &[Batch], mode: ExecutionMode) -> Cow<'_, [Batch]> {
        let ExecutionMode::UnfencedReordered { seed } = mode else {
            return Cow::Borrowed(batches);
        };
        if !batches.iter().any(Batch::cancellable) {
            return Cow::Borrowed(batches);
        }
        let mut flat: Vec<Command> = Vec::new();
        let mut shuffle_slots: Vec<usize> = Vec::new();
        for b in batches {
            for c in &b.commands {
                if b.cancellable() && c.is_column() {
                    shuffle_slots.push(flat.len());
                }
                flat.push(c.clone());
            }
        }
        let mut cols: Vec<Command> = shuffle_slots.iter().map(|&i| flat[i].clone()).collect();
        cols.shuffle(&mut SmallRng::seed_from_u64(seed));
        for (&slot, cmd) in shuffle_slots.iter().zip(cols) {
            flat[slot] = cmd;
        }
        Cow::Owned(vec![Batch::setup(flat).with_label("unfenced_stream")])
    }

    /// The span name: the label if set, else `batch<index>`.
    fn span_name(&self, index: usize) -> Cow<'static, str> {
        match self.label {
            Some(l) => Cow::Borrowed(l),
            None => Cow::Owned(format!("batch{index}")),
        }
    }
}

/// The ordering regime under which a kernel executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Per-batch fences, the shipped system. If `reorder_seed` is `Some`,
    /// every commutative batch issues in a seeded permutation
    /// (`Batch::issue_order`): the reordering a controller may apply inside
    /// a fence window, played as an adversary AAM must tolerate.
    Fenced {
        /// Seed for the intra-batch permutation; `None` issues in program
        /// order, which AAM makes equivalent to any order inside the window.
        reorder_seed: Option<u64>,
    },
    /// In-order PIM-mode controller (the no-fence what-if of §VII-B).
    Ordered,
    /// A deliberately broken regime for the Fig. 5 demonstration: the
    /// kernel has **no** fences and no AAM protection — it issues as one
    /// batch whose data-phase column commands are shuffled across the whole
    /// kernel (`Batch::issue_list`).
    UnfencedReordered {
        /// Shuffle seed.
        seed: u64,
    },
}

impl ExecutionMode {
    /// Whether this mode reorders across batch boundaries, so that a list
    /// issues as no concatenation of its parts: only the unfenced demo
    /// does ([`Batch::issue_list`]).
    pub(crate) fn crosses_batches(self) -> bool {
        matches!(self, ExecutionMode::UnfencedReordered { .. })
    }

    /// Cycles the fence after `batch` holds the channel past the batch's
    /// last command — draining in-flight data (read latency + burst) and
    /// synchronizing the thread group — or `None` if no fence follows it
    /// under this mode.
    pub(crate) fn fence_stall(
        self,
        batch: &Batch,
        host: &HostConfig,
        t: &TimingParams,
    ) -> Option<Cycle> {
        (matches!(self, ExecutionMode::Fenced { .. }) && batch.fence_after)
            .then(|| t.t_cl + t.t_bl + host.fence_sync_overhead_cycles)
    }
}

/// The outcome of a bounded (watchdog-limited) kernel run on one channel:
/// the usual accounting plus whether the cycle limit fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedResult {
    /// Accounting for the commands that actually issued.
    pub result: KernelResult,
    /// Whether the cycle limit fired — at least one data batch was skipped.
    pub cancelled: bool,
}

/// The outcome of running a kernel on one channel or across the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResult {
    /// Cycle at which the kernel completed (max across channels).
    pub end_cycle: Cycle,
    /// Total DRAM commands issued.
    pub commands: u64,
    /// Fences executed.
    pub fences: u64,
}

impl KernelResult {
    /// An empty result — the identity element of [`KernelResult::merged`].
    pub const ZERO: KernelResult = KernelResult { end_cycle: 0, commands: 0, fences: 0 };

    /// Folds per-channel results into the system-level result: `end_cycle`
    /// is the max (channels run concurrently — the wall clock is the
    /// slowest channel's), `commands` and `fences` are sums.
    ///
    /// Every channel-level fan-in goes through this one helper — the
    /// engine's launch close and any caller aggregating
    /// [`KernelEngine::run_on_channel`] results.
    pub fn merged(results: impl IntoIterator<Item = KernelResult>) -> KernelResult {
        results.into_iter().fold(KernelResult::ZERO, |acc, r| KernelResult {
            end_cycle: acc.end_cycle.max(r.end_cycle),
            commands: acc.commands + r.commands,
            fences: acc.fences + r.fences,
        })
    }
}

/// Executes PIM kernels over a [`PimSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelEngine;

impl KernelEngine {
    /// Runs `batches` on channel `ctrl` under `mode`; returns the
    /// completion cycle and counts.
    ///
    /// # Panics
    ///
    /// Panics if a command is illegal for the device state (a kernel bug —
    /// PIM execution is deterministic, so the host programmer is expected
    /// to know the exact state, Section III-A).
    pub fn run_on_channel(
        host: &HostConfig,
        ctrl: &mut MemoryController<PimChannel>,
        batches: &[Batch],
        mode: ExecutionMode,
    ) -> KernelResult {
        Self::run_on_channel_bounded(host, ctrl, batches, mode, None).result
    }

    /// [`KernelEngine::run_on_channel`] with a cooperative cancellation
    /// point in the batch loop: once the channel's local clock reaches
    /// `limit`, remaining **data** batches (commutative or fenced) are
    /// skipped, while setup/teardown batches (mode transitions, CRF
    /// programming, `pim_off`/`exit_ab`) still issue so the device is left
    /// in a clean single-bank state. A `limit` of `None` is bit-identical
    /// to the unbounded run.
    ///
    /// The check is against the channel's own deterministic clock.
    ///
    /// # Panics
    ///
    /// As for [`KernelEngine::run_on_channel`].
    pub fn run_on_channel_bounded(
        host: &HostConfig,
        ctrl: &mut MemoryController<PimChannel>,
        batches: &[Batch],
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> BoundedResult {
        let mut cancelled = false;
        let over = |now: Cycle| limit.is_some_and(|l| now >= l);
        let t = ctrl.sink().timing().clone();
        let rec: Option<Recorder> = ctrl.recorder().cloned();
        let scope = Scope::channel(ctrl.channel_id());
        let mut commands = 0u64;
        let mut fences = 0u64;
        for (bi, b) in Batch::issue_list(batches, mode).iter().enumerate() {
            if b.cancellable() && over(ctrl.now()) {
                // The watchdog's cancellation point: data batches (and
                // their fences) stop issuing; the teardown choreography
                // still runs.
                cancelled = true;
                continue;
            }
            let cmds = b.issue_order(bi, mode);
            commands += cmds.len() as u64;
            if let Some(r) = &rec {
                r.begin(ctrl.now(), b.span_name(bi), names::CAT_BATCH, scope);
                r.add(names::ENGINE_BATCHES, 1);
                r.observe(names::ENGINE_BATCH_LEN, names::BATCH_LEN_BUCKETS, cmds.len() as u64);
            }
            let last = ctrl.issue_raw(&cmds);
            if let Some(r) = &rec {
                r.end(last, b.span_name(bi), names::CAT_BATCH, scope);
            }
            if let Some(stall) = mode.fence_stall(b, host, &t) {
                let drain = last + stall;
                ctrl.advance_to(drain);
                fences += 1;
                if let Some(r) = &rec {
                    r.emit(
                        Event::instant(drain, "fence", names::CAT_BATCH, scope)
                            .with_arg("stall_cycles", stall),
                    );
                    r.add(names::ENGINE_FENCES, 1);
                    r.add(names::ENGINE_FENCE_STALL_CYCLES, stall);
                }
            }
        }
        BoundedResult {
            result: KernelResult { end_cycle: ctrl.now(), commands, fences },
            cancelled,
        }
    }

    /// Runs per-channel batch lists across the system concurrently (each
    /// channel advances its own clock); returns the wall-clock result.
    ///
    /// A list is anything that views as `[Batch]`: one `Vec<Batch>` per
    /// channel, or — the lock-step case, one kernel on every channel — the
    /// same `&[Batch]` handed to each of them, which the fast path then
    /// walks once and simulates once per channel class (see
    /// [`crate::fastpath`]).
    ///
    /// One host thread steps the channels in index order, each to its own
    /// end clock, and the launch closes with the global barrier.
    ///
    /// Channels beyond `per_channel.len()` run nothing but still advance to
    /// the closing barrier, exactly as in hardware.
    ///
    /// # Panics
    ///
    /// Panics if `per_channel.len()` exceeds the channel count, or if a
    /// command is illegal for a device's state (a kernel bug).
    pub fn run_system<L: AsRef<[Batch]>>(
        sys: &mut PimSystem,
        per_channel: &[L],
        mode: ExecutionMode,
    ) -> KernelResult {
        Self::run_system_bounded(sys, per_channel, mode, None).0
    }

    /// [`KernelEngine::run_system`] under a watchdog cycle limit: every
    /// channel runs through [`KernelEngine::run_on_channel_bounded`], and
    /// the returned vector flags, per batch list, whether that channel's
    /// run was cancelled. A `limit` of `None` is bit-identical to
    /// [`KernelEngine::run_system`].
    ///
    /// Cancellation is decided against each channel's own deterministic
    /// clock.
    ///
    /// # Panics
    ///
    /// As for [`KernelEngine::run_system`].
    pub fn run_system_bounded<L: AsRef<[Batch]>>(
        sys: &mut PimSystem,
        per_channel: &[L],
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> (KernelResult, Vec<bool>) {
        // The lists as they issue, so the fast path keys, simulates and
        // replays the commands that actually reach the channels.
        let issued: Vec<Cow<'_, [Batch]>> =
            per_channel.iter().map(|l| Batch::issue_list(l.as_ref(), mode)).collect();
        let lists: Vec<&[Batch]> = issued.iter().map(AsRef::as_ref).collect();
        Self::run_lists(sys, &lists, mode, limit)
    }

    /// [`KernelEngine::run_system_bounded`] over plain views of the issued
    /// lists.
    fn run_lists(
        sys: &mut PimSystem,
        lists: &[&[Batch]],
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> (KernelResult, Vec<bool>) {
        assert!(lists.len() <= sys.channel_count(), "more batch lists than channels");
        // The one bracket every launch runs in. Live-unit masks declared
        // for this launch ([`PimSystem::set_live_units`]) sit on the
        // channels for its duration, whichever path runs it. Then the
        // launch-memoization fast path (see [`crate::fastpath`]): replay a
        // recorded launch when its key and entry fingerprints match;
        // otherwise simulate and record. A hit and a miss are
        // bit-identical to each other in everything the contract of
        // `set_live_units` calls exact, and to an unmasked cold run on
        // every live unit's registers and banks.
        sys.arm_live_units();
        let mut cache = sys.take_fastpath();
        let prep = cache.as_mut().and_then(|c| c.prepare(sys, lists, mode));
        let (out, replayed) = match (&mut cache, prep) {
            (Some(cache), Some(prep)) => {
                Self::run_system_memoized(sys, cache, &prep, lists, mode, limit)
            }
            _ => {
                let ran = Self::run_channels(sys, lists, mode, limit);
                (Self::close(sys, ran), 0)
            }
        };
        sys.restore_fastpath(cache);
        sys.count_channels(lists.len() - replayed, replayed);
        sys.disarm_live_units();
        out
    }

    /// A cacheable launch: a hit replays every channel. A miss simulates
    /// the first channel of each class — the rest are handed `&[]`, so the
    /// cold runner needs to know nothing about classes — records, and
    /// serves the followers through the replay a hit uses. When the run
    /// cannot be recorded (a representative was cancelled or ended
    /// non-quiescent, or the launch arms an unprovable CRF image) the
    /// followers, whose clocks and state no one has touched yet, are
    /// simulated as well. Returns the launch's outcome and how many
    /// channels replay served.
    fn run_system_memoized(
        sys: &mut PimSystem,
        cache: &mut LaunchCache,
        prep: &PreparedLaunch,
        lists: &[&[Batch]],
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> ((KernelResult, Vec<bool>), usize) {
        if let Some(hit) = cache.try_replay(sys, lists, prep, mode, limit) {
            return (hit, lists.len());
        }
        let only = |representatives: bool| -> Vec<&[Batch]> {
            (0..lists.len())
                .map(|i| if prep.simulates(i) == representatives { lists[i] } else { &[] })
                .collect()
        };
        let mut ran = Self::run_channels(sys, &only(true), mode, limit);
        if cache.record(sys, prep, &ran) {
            return (cache.replay_followers(sys, lists, prep, mode), prep.followers());
        }
        if prep.followers() > 0 {
            let rest = Self::run_channels(sys, &only(false), mode, limit);
            for (i, r) in rest.into_iter().enumerate().filter(|(i, _)| !prep.simulates(*i)) {
                ran[i] = r;
            }
        }
        (Self::close(sys, ran), 0)
    }

    /// The full cycle-level simulation of every list on its channel:
    /// per-channel results in channel-index order, each channel left at
    /// its own end clock.
    fn run_channels(
        sys: &mut PimSystem,
        lists: &[&[Batch]],
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> Vec<BoundedResult> {
        let host = sys.host.clone();
        lists
            .iter()
            .enumerate()
            .map(|(i, batches)| {
                Self::run_on_channel_bounded(&host, sys.channel_mut(i), batches, mode, limit)
            })
            .collect()
    }

    /// Closes a simulated launch: the global barrier, and the per-channel
    /// results folded into the system-level one.
    fn close(sys: &mut PimSystem, ran: Vec<BoundedResult>) -> (KernelResult, Vec<bool>) {
        let cancelled = ran.iter().map(|b| b.cancelled).collect();
        let merged = KernelResult::merged(ran.into_iter().map(|b| b.result));
        (KernelResult { end_cycle: sys.barrier(), ..merged }, cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::PimConfig;
    use pim_dram::BankAddr;

    fn system() -> PimSystem {
        PimSystem::new(HostConfig::paper(), PimConfig::paper())
    }

    fn simple_batches() -> Vec<Batch> {
        let b = BankAddr::new(0, 0);
        vec![
            Batch::setup(vec![Command::Act { bank: b, row: 1 }]),
            Batch::commutative((0..8).map(|c| Command::Rd { bank: b, col: c }).collect()),
            Batch::setup(vec![Command::Pre { bank: b }]),
        ]
    }

    #[test]
    fn fenced_mode_costs_more_than_ordered() {
        let mut sys = system();
        let r_f = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            sys.channel_mut(0),
            &simple_batches(),
            ExecutionMode::Fenced { reorder_seed: None },
        );
        let r_o = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            sys.channel_mut(1),
            &simple_batches(),
            ExecutionMode::Ordered,
        );
        assert!(r_f.end_cycle > r_o.end_cycle, "{} vs {}", r_f.end_cycle, r_o.end_cycle);
        assert_eq!(r_f.fences, 1, "only the commutative batch is fenced");
        assert_eq!(r_o.fences, 0);
        assert_eq!(r_f.commands, 10);
    }

    #[test]
    fn reordering_within_batch_is_deterministic() {
        let mut sys = system();
        let run = |sys: &mut PimSystem, ch: usize| {
            KernelEngine::run_on_channel(
                &HostConfig::paper(),
                sys.channel_mut(ch),
                &simple_batches(),
                ExecutionMode::Fenced { reorder_seed: Some(42) },
            )
        };
        let a = run(&mut sys, 0);
        let b = run(&mut sys, 1);
        assert_eq!(a.end_cycle, b.end_cycle, "same seed, same schedule");
    }

    /// The one owner of the issue order: only a seeded `Fenced` mode
    /// reorders, only commutative batches, by a permutation that depends
    /// on the seed and the batch index and nothing else.
    #[test]
    fn seeded_issue_order_permutes_commutative_batches_only() {
        let batches = simple_batches();
        let data = &batches[1];
        let seeded = ExecutionMode::Fenced { reorder_seed: Some(42) };
        let cols = |cmds: &[Command]| -> Vec<u32> {
            cmds.iter().map(|c| if let Command::Rd { col, .. } = c { *col } else { 99 }).collect()
        };
        let program = cols(&data.commands);
        for mode in [ExecutionMode::Fenced { reorder_seed: None }, ExecutionMode::Ordered] {
            assert_eq!(cols(&data.issue_order(1, mode)), program, "{mode:?}");
        }
        let shuffled = cols(&data.issue_order(1, seeded));
        assert_ne!(shuffled, program, "seed 42 leaves batch 1 in program order");
        assert_eq!(shuffled, cols(&data.issue_order(1, seeded)), "same seed, same index");
        assert_ne!(shuffled, cols(&data.issue_order(2, seeded)), "the index salts the seed");
        let mut sorted = shuffled;
        sorted.sort_unstable();
        assert_eq!(sorted, program, "a permutation");
        let ordered = Batch::fenced_ordered(data.commands.clone());
        assert_eq!(cols(&ordered.issue_order(1, seeded)), program, "non-commutative");
    }

    #[test]
    fn system_run_advances_all_channels() {
        let mut sys = system();
        let per_channel: Vec<Vec<Batch>> = (0..64).map(|_| simple_batches()).collect();
        let r = KernelEngine::run_system(
            &mut sys,
            &per_channel,
            ExecutionMode::Fenced { reorder_seed: None },
        );
        assert_eq!(r.commands, 64 * 10);
        assert!(r.end_cycle > 0);
        // Channels ran concurrently: the wall time equals one channel's.
        let mut solo = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        let s = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            solo.channel_mut(0),
            &simple_batches(),
            ExecutionMode::Fenced { reorder_seed: None },
        );
        assert_eq!(r.end_cycle, s.end_cycle);
    }

    #[test]
    fn recorder_observes_fence_stalls_and_batch_spans() {
        let mut sys = system();
        let r = Recorder::vec();
        sys.channel_mut(0).set_recorder(r.clone(), 0);
        let b = BankAddr::new(0, 0);
        let batches = vec![
            Batch::setup(vec![Command::Act { bank: b, row: 1 }]).with_label("act"),
            Batch::commutative((0..8).map(|c| Command::Rd { bank: b, col: c }).collect()),
            Batch::setup(vec![Command::Pre { bank: b }]),
        ];
        let res = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            sys.channel_mut(0),
            &batches,
            ExecutionMode::Fenced { reorder_seed: None },
        );
        let m = r.metrics().registry;
        assert_eq!(m.counter(pim_obs::names::ENGINE_FENCES), res.fences);
        assert!(m.counter(pim_obs::names::ENGINE_FENCE_STALL_CYCLES) > 0);
        assert_eq!(m.counter(pim_obs::names::ENGINE_BATCHES), 3);
        assert_eq!(m.histogram(pim_obs::names::ENGINE_BATCH_LEN).unwrap().count(), 3);
        let events = r.events().unwrap();
        assert!(events.iter().any(|e| e.name == "act"), "labelled batch span");
        assert!(events.iter().any(|e| e.name == "batch2"), "unlabelled fallback name");
        assert!(events.iter().any(|e| e.name == "fence"));
        pim_obs::check_nesting(&events).expect("balanced spans");

        // Observer effect must be zero: the same kernel on an uninstrumented
        // channel lands on the same cycle.
        let res_plain = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            sys.channel_mut(1),
            &batches,
            ExecutionMode::Fenced { reorder_seed: None },
        );
        assert_eq!(res.end_cycle, res_plain.end_cycle);
    }

    #[test]
    fn merged_is_max_end_and_summed_counts() {
        let r = KernelResult::merged([
            KernelResult { end_cycle: 10, commands: 3, fences: 1 },
            KernelResult { end_cycle: 25, commands: 4, fences: 0 },
            KernelResult { end_cycle: 7, commands: 1, fences: 2 },
        ]);
        assert_eq!(r, KernelResult { end_cycle: 25, commands: 8, fences: 3 });
        assert_eq!(KernelResult::merged([]), KernelResult::ZERO);
    }

    #[test]
    fn empty_batch_lists_idle_their_channels_to_the_barrier() {
        let mut sys = system();
        // Channels 0 and 2 idle, channel 1 works.
        let per_channel = vec![vec![], simple_batches(), vec![]];
        let r = KernelEngine::run_system(
            &mut sys,
            &per_channel,
            ExecutionMode::Fenced { reorder_seed: None },
        );
        assert_eq!(r.commands, 10);
        assert!(r.end_cycle > 0);
        // The barrier still aligns every channel, idle ones included.
        assert_eq!(sys.channel(0).now(), r.end_cycle);
        assert_eq!(sys.channel(63).now(), r.end_cycle);
    }

    #[test]
    fn no_batch_lists_at_all_is_a_no_op() {
        let mut sys = system();
        let none: &[Vec<Batch>] = &[];
        let r =
            KernelEngine::run_system(&mut sys, none, ExecutionMode::Fenced { reorder_seed: None });
        assert_eq!(r, KernelResult::ZERO);
    }

    #[test]
    #[should_panic(expected = "more batch lists than channels")]
    fn too_many_batch_lists_panic_sequential() {
        let mut sys = system();
        let per_channel: Vec<Vec<Batch>> = (0..65).map(|_| simple_batches()).collect();
        KernelEngine::run_system(&mut sys, &per_channel, ExecutionMode::Ordered);
    }

    #[test]
    fn unbounded_limit_is_bit_identical_to_plain_run() {
        let mut sys = system();
        let plain = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            sys.channel_mut(0),
            &simple_batches(),
            ExecutionMode::Fenced { reorder_seed: None },
        );
        let bounded = KernelEngine::run_on_channel_bounded(
            &HostConfig::paper(),
            sys.channel_mut(1),
            &simple_batches(),
            ExecutionMode::Fenced { reorder_seed: None },
            None,
        );
        assert_eq!(bounded.result, plain);
        assert!(!bounded.cancelled);
    }

    #[test]
    fn zero_limit_cancels_data_batches_but_issues_teardown() {
        let mut sys = system();
        let b = BankAddr::new(0, 0);
        // ACT (setup) + 8 reads (data) + PRE (setup): with limit 0 the
        // data batch is skipped, the row-management skeleton still issues.
        let bounded = KernelEngine::run_on_channel_bounded(
            &HostConfig::paper(),
            sys.channel_mut(0),
            &simple_batches(),
            ExecutionMode::Fenced { reorder_seed: None },
            Some(0),
        );
        assert!(bounded.cancelled);
        assert_eq!(bounded.result.commands, 2, "ACT and PRE only");
        assert_eq!(bounded.result.fences, 0, "skipped batches skip their fences");
        let stats = sys.channel(0).sink().dram().stats();
        assert_eq!(stats.reads, 0);
        assert_eq!(stats.acts, 1);
        let _ = b;
    }

    #[test]
    fn mid_kernel_limit_cancels_later_batches_deterministically() {
        // Find a limit that lands between the first and second data batch.
        let b = BankAddr::new(0, 0);
        let batches = vec![
            Batch::setup(vec![Command::Act { bank: b, row: 1 }]),
            Batch::commutative((0..4).map(|c| Command::Rd { bank: b, col: c }).collect()),
            Batch::commutative((4..8).map(|c| Command::Rd { bank: b, col: c }).collect()),
            Batch::setup(vec![Command::Pre { bank: b }]),
        ];
        let mut probe = system();
        let full = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            probe.channel_mut(0),
            &batches,
            ExecutionMode::Fenced { reorder_seed: None },
        );
        // A limit of 1 lets the first data batch start (clock still low)
        // and cancels the second (clock past the first fence).
        let mut sys = system();
        let bounded = KernelEngine::run_on_channel_bounded(
            &HostConfig::paper(),
            sys.channel_mut(0),
            &batches,
            ExecutionMode::Fenced { reorder_seed: None },
            Some(1),
        );
        assert!(bounded.cancelled);
        assert_eq!(sys.channel(0).sink().dram().stats().reads, 4, "first data batch only");
        assert!(bounded.result.end_cycle < full.end_cycle);
        // And a rerun lands on exactly the same cycle.
        let mut sys2 = system();
        let again = KernelEngine::run_on_channel_bounded(
            &HostConfig::paper(),
            sys2.channel_mut(0),
            &batches,
            ExecutionMode::Fenced { reorder_seed: None },
            Some(1),
        );
        assert_eq!(again, bounded);
    }

    #[test]
    fn bounded_system_run_cancels_every_channel_over_budget() {
        let per_channel: Vec<Vec<Batch>> = (0..16).map(|_| simple_batches()).collect();
        let mut sys = system();
        let (_, cancelled) = KernelEngine::run_system_bounded(
            &mut sys,
            &per_channel,
            ExecutionMode::Fenced { reorder_seed: None },
            Some(0),
        );
        assert_eq!(cancelled, vec![true; 16], "every channel over budget cancels");
    }

    #[test]
    fn unfenced_reorder_shuffles_columns_only() {
        let mut sys = system();
        let r = KernelEngine::run_on_channel(
            &HostConfig::paper(),
            sys.channel_mut(0),
            &simple_batches(),
            ExecutionMode::UnfencedReordered { seed: 7 },
        );
        // Still 10 commands; ACT first, PRE last (non-columns keep slots).
        assert_eq!(r.commands, 10);
        let stats = sys.channel(0).sink().dram().stats();
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.acts, 1);
    }
}
