//! Launch memoization: the kernel-launch fast path.
//!
//! PIM kernels are *launch-dominated* workloads: serving a model replays
//! the same command schedule (same program, same layout, same channel
//! configuration) thousands of times with nothing but the input vector
//! changing. The timing half of such a launch is completely determined by
//! the per-channel DRAM timing state at entry and the command structure —
//! the FP16 payloads never feed back into a single timing decision. This
//! module exploits that: the first execution of a launch key runs the full
//! cycle-level simulation and records, per channel, the end-of-launch
//! timing state and accounting delta; every later launch with the same key
//! and the same entry fingerprint *replays* those deltas analytically and
//! runs only the data path — and, as the cold run does, only on the units
//! the caller will read ([`crate::PimSystem::set_live_units`]).
//!
//! The data path itself is two-tier: the first replay of an entry runs the
//! full unit machinery once while compiling a per-channel
//! [`pim_core::DataTape`] ([`pim_core::PimChannel::replay_data_recording`]),
//! and every replay after that dispatches just the recorded FP16 dataflow
//! ([`pim_core::PimChannel::replay_data_taped`]). Both tiers, and the full
//! simulation, run one interpreter: the tiers differ only in where a
//! trigger's instruction comes from.
//!
//! Nothing here tracks device modes or issue orders: the key pass and the
//! data replay both step [`pim_core::ModeWalker`] over the lists the engine
//! hands in — already as `Batch::issue_list` makes them — and the order a
//! batch issues in is asked of `Batch::issue_order`, as the engine and the
//! predictor do.
//!
//! # Channel classes
//!
//! The paper's execution model is SPMD in lock-step: every pseudo channel
//! runs the same microkernel off the same column-command stream. The proof
//! above — end timing state, accounting delta and trigger schedule are
//! functions of *(entry fingerprint, command structure)* — therefore holds
//! across the channels of **one** launch as well as across launches. The
//! key pass yields a key per channel; channels whose key, entry
//! fingerprint and clock offset are all equal form a **class**, and an
//! entry stores its end states, accounting deltas and data tapes per class.
//! On a miss the engine simulates the first channel of each class and
//! serves the rest through the function a hit uses (`LaunchCache::replay`):
//! a follower receives exactly what a later launch on the same channel
//! receives on a hit. See `docs/FASTPATH.md`, "Channel classes".
//!
//! # Exactness contract
//!
//! A replayed launch is **bit-identical** to the cold run it memoizes:
//! same `sim_cycles`, same command/fence counts, same device and DRAM
//! stats, same bank bytes and register files on live units, and the
//! same follow-on behaviour (the restored timing state is the cold run's,
//! so the *next* launch issues at identical cycles). `tests/fastpath.rs`
//! re-proves this against full simulation, cold and warm
//! (`docs/FASTPATH.md`, "Benchmarks and exactness gates").
//!
//! # What makes a launch cacheable
//!
//! * Every participating channel is quiescent at entry: single-bank mode,
//!   no pending mode transition, all banks precharged, no fault hooks
//!   ([`pim_core::PimChannel::launch_fingerprint`] returns `Some`).
//! * No event recorder is attached to a participating channel — replay
//!   cannot reproduce the per-command event stream, so traced runs always
//!   take the cold path (which *is* exact, trivially).
//! * Every `WR` resolves to a statically known open row (the walker's
//!   [`Step`] is never `Unresolved`), so the key can
//!   distinguish configuration payloads (CRF programs, SRF scalars —
//!   hashed) from data payloads (the input vector — deliberately *not*
//!   hashed, so a new input hits the cache).
//! * Every CRF program the launch arms **proves statically**: its full
//!   trigger schedule derives from the image alone
//!   ([`pim_core::schedule::StaticSchedule`]), which is what makes
//!   replaying a recorded `DataTape` against fresh inputs legal. The
//!   ISA cannot branch on data, so this holds for every decodable
//!   program with in-range JUMPs whose schedule fits the derivation
//!   budget; a launch arming an unprovable image is never recorded
//!   (counted in [`FastpathStats::unproven`]) and always runs the full
//!   simulation — the PV301 lint flags such kernels ahead of time.
//!
//! The cache is invalidated wholesale on strict-mode toggles and memory
//! resets, and disabled permanently once a fault plan is installed
//! (faulted channels never fingerprint, but the double lock keeps the
//! reasoning local). See `docs/FASTPATH.md` for the full semantics.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use pim_core::conf::{crf_block_base, crf_block_words, CRF_ROW};
use pim_core::isa::Instruction;
use pim_core::schedule::{StaticSchedule, DEFAULT_SCHEDULE_BUDGET};
use pim_core::{LaunchAccounting, ModeWalker, PimConfig, Step};
use pim_dram::{Clock, Command, Cycle, TimingParams};

use crate::engine::{Batch, BoundedResult, ExecutionMode, KernelResult};
use crate::system::PimSystem;

/// Maximum number of distinct launch keys the cache retains (FIFO
/// eviction). Serving workloads cycle through a handful of kernels per
/// model; 32 keys cover a model zoo's worth of layers.
const CACHE_CAPACITY: usize = 32;

/// Counters for the launch-memoization fast path; read them through
/// [`crate::PimSystem::fastpath_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastpathStats {
    /// Launches replayed from the cache (no timing simulation ran).
    pub hits: u64,
    /// Cacheable launches that ran cold (no entry, fingerprint mismatch,
    /// or a watchdog limit too tight to prove non-cancellation).
    pub misses: u64,
    /// Cold launches whose end state was recorded into the cache.
    pub insertions: u64,
    /// Launches the fast path refused to consider: recorder attached,
    /// channel not quiescent at entry, or an unresolvable write row.
    pub uncacheable: u64,
    /// Cold runs *not* recorded because a CRF program armed during the
    /// launch could not be statically proven data-independent (its
    /// trigger schedule is underivable — the PV301 condition). Such
    /// launches always take the full simulation.
    pub unproven: u64,
}

/// How many channels launches handed to the cycle-level simulation and
/// how many they served from a recording instead, summed over every launch
/// of the system (fast path armed or not); read them through
/// [`crate::PimSystem::fastpath_channels`]. Every launch adds its list
/// count to exactly one of the two per channel: a hit replays all of them,
/// a recorded miss simulates one channel per class and replays the rest,
/// anything else simulates all of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastpathChannels {
    /// Channels run through the cold per-channel engine.
    pub simulated: u64,
    /// Channels served by replay: every channel of a hit, the followers
    /// of a recorded miss.
    pub replayed: u64,
}

/// Everything `prepare` learned about a launch before consulting the
/// cache: the key, the channel classes with their entry fingerprints, and
/// the representatives' entry accounting snapshots (kept so a cold run can
/// be recorded without re-walking).
pub(crate) struct PreparedLaunch {
    key: u64,
    /// Whether every CRF image the launch arms proved statically (decided
    /// in the key pass; see [`LaunchCache::launch_key`]).
    provable: bool,
    /// The earliest channel clock at entry; offsets and `end_rel` are
    /// relative to it so the entry is position-independent in time.
    base: Cycle,
    /// `now - base` for **every** channel (idle channels' clocks feed the
    /// closing barrier, so they are part of the fingerprint).
    offsets: Vec<Cycle>,
    /// The class of every participating channel: channels are classmates
    /// when their per-channel key, entry fingerprint and clock offset are
    /// all equal. A launch that cannot be recorded (`!provable`) has one
    /// class per channel, since nothing could serve a follower.
    class_of: Vec<usize>,
    /// Per class: its first channel — the representative a miss simulates.
    reps: Vec<usize>,
    /// Per class: the entry timing fingerprint its members share.
    starts: Vec<Clock>,
    /// Per class: the representative's entry accounting snapshot.
    start_accts: Vec<LaunchAccounting>,
}

impl PreparedLaunch {
    /// Whether a miss simulates channel `i` — it is the first of its class
    /// — rather than serving it from the representative's recording.
    pub(crate) fn simulates(&self, i: usize) -> bool {
        self.reps[self.class_of[i]] == i
    }

    /// Channels a recorded miss serves by replay.
    pub(crate) fn followers(&self) -> usize {
        self.class_of.len() - self.reps.len()
    }
}

/// One memoized launch: entry fingerprints to validate a hit, end state
/// and accounting deltas to replay it — stored once per channel class.
#[derive(Debug, Clone)]
struct LaunchEntry {
    offsets: Vec<Cycle>,
    /// The class of every participating channel (see
    /// [`PreparedLaunch::class_of`]).
    class_of: Vec<usize>,
    /// Entry timing fingerprint per class.
    starts: Vec<Clock>,
    /// Barrier (end) cycle relative to the entry `base`.
    end_rel: Cycle,
    /// End timing state per class, relative to the barrier cycle.
    ends: Vec<Clock>,
    /// Accounting delta per class.
    accts: Vec<LaunchAccounting>,
    /// Merged command count (the cold run's `KernelResult::commands`).
    commands: u64,
    /// Merged fence count (the cold run's `KernelResult::fences`).
    fences: u64,
    /// Per-class compiled data tapes (see [`pim_core::DataTape`]), filled
    /// lazily: the first replay of a class member with a live unit runs
    /// the full unit machinery and records the tape, later replays — of
    /// any member; the tape is a function of the CRF image and trigger
    /// sequence the class shares — execute only the resolved FP16
    /// dataflow. A class with no live unit anywhere stays untaped.
    tapes: Vec<Option<pim_core::DataTape>>,
}

/// The launch-memoization cache owned by a [`PimSystem`].
#[derive(Debug, Default)]
pub(crate) struct LaunchCache {
    entries: HashMap<u64, LaunchEntry>,
    order: VecDeque<u64>,
    stats: FastpathStats,
    channels: FastpathChannels,
    /// Memoized control-flow proofs, keyed by CRF-image hash: `true` if
    /// the image's trigger schedule derives statically
    /// ([`StaticSchedule::derive`]). Image content fully determines the
    /// verdict, so entries survive [`LaunchCache::clear`].
    proofs: HashMap<u64, bool>,
}

impl LaunchCache {
    pub(crate) fn new() -> LaunchCache {
        LaunchCache::default()
    }

    pub(crate) fn stats(&self) -> FastpathStats {
        self.stats
    }

    pub(crate) fn channels(&self) -> FastpathChannels {
        self.channels
    }

    /// Accounts one finished launch's channels (see [`FastpathChannels`]).
    pub(crate) fn count_channels(&mut self, simulated: usize, replayed: usize) {
        self.channels.simulated += simulated as u64;
        self.channels.replayed += replayed as u64;
    }

    /// Drops every entry (counters survive — they describe the session,
    /// not the current contents).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Classifies the launch and, if cacheable, computes its key, channel
    /// classes and entry snapshots. `None` means "run cold and do not
    /// record".
    pub(crate) fn prepare(
        &mut self,
        sys: &PimSystem,
        per_channel: &[&[Batch]],
        mode: ExecutionMode,
    ) -> Option<PreparedLaunch> {
        let len = per_channel.len();
        if len == 0 {
            return None;
        }
        // Traced runs must produce their event streams; only the cold
        // path can.
        if (0..len).any(|i| sys.channel(i).recorder().is_some()) {
            self.stats.uncacheable += 1;
            return None;
        }
        let mut fingerprints = Vec::with_capacity(len);
        for i in 0..len {
            let ctrl = sys.channel(i);
            match ctrl.sink().launch_fingerprint(ctrl.now()) {
                Some(st) => fingerprints.push(st),
                None => {
                    self.stats.uncacheable += 1;
                    return None;
                }
            }
        }
        let Some((key, provable, channel_keys)) = self.launch_key(sys, per_channel, mode) else {
            self.stats.uncacheable += 1;
            return None;
        };
        let base = (0..sys.channel_count()).map(|i| sys.channel(i).now()).min().unwrap_or(0);
        let offsets: Vec<Cycle> =
            (0..sys.channel_count()).map(|i| sys.channel(i).now() - base).collect();
        let (mut class_of, mut reps) = (Vec::with_capacity(len), Vec::<usize>::new());
        let (mut starts, mut start_accts) = (Vec::new(), Vec::new());
        for (i, st) in fingerprints.into_iter().enumerate() {
            // The class rule: the existing hit condition — equal key,
            // equal verified entry state — applied across channels.
            let class = (0..reps.len()).find(|&c| {
                let r = reps[c];
                provable
                    && channel_keys[r] == channel_keys[i]
                    && offsets[r] == offsets[i]
                    && starts[c] == st
            });
            class_of.push(class.unwrap_or_else(|| {
                let ctrl = sys.channel(i);
                reps.push(i);
                starts.push(st);
                start_accts.push(ctrl.sink().launch_accounting(ctrl.now()));
                reps.len() - 1
            }));
        }
        Some(PreparedLaunch { key, provable, base, offsets, class_of, reps, starts, start_accts })
    }

    /// Attempts to replay a prepared launch. On a hit the system ends in
    /// the recorded cold-run state (timing, stats, and — on the channels'
    /// live units — data) and the cold run's merged result is returned.
    pub(crate) fn try_replay(
        &mut self,
        sys: &mut PimSystem,
        per_channel: &[&[Batch]],
        prep: &PreparedLaunch,
        mode: ExecutionMode,
        limit: Option<Cycle>,
    ) -> Option<(KernelResult, Vec<bool>)> {
        let hit = self.entries.get(&prep.key).is_some_and(|e| {
            // Equal class maps with equal per-class fingerprints are equal
            // per-channel fingerprints.
            e.offsets == prep.offsets
                && e.class_of == prep.class_of
                && e.starts == prep.starts
                // Replay is only cancellation-equivalent when the limit
                // provably never fires: every clock the cold run would
                // check stays at or below the barrier cycle.
                && limit.is_none_or(|l| prep.base + e.end_rel < l)
        });
        if !hit {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        Some(self.replay(sys, per_channel, prep, mode, false))
    }

    /// Serves the channels a recorded miss did not simulate — every
    /// channel but the first of its class — from the entry
    /// [`LaunchCache::record`] just inserted, and closes the launch.
    pub(crate) fn replay_followers(
        &mut self,
        sys: &mut PimSystem,
        per_channel: &[&[Batch]],
        prep: &PreparedLaunch,
        mode: ExecutionMode,
    ) -> (KernelResult, Vec<bool>) {
        self.replay(sys, per_channel, prep, mode, true)
    }

    /// The one replay: hands every channel (or, `followers_only`, every
    /// channel the miss did not simulate) its class's accounting delta and
    /// end timing state re-anchored at the end clock, runs the data walk
    /// over the channel's *own* command payloads on its live units, and
    /// closes the launch with the barrier the cold run ends in.
    fn replay(
        &mut self,
        sys: &mut PimSystem,
        per_channel: &[&[Batch]],
        prep: &PreparedLaunch,
        mode: ExecutionMode,
        followers_only: bool,
    ) -> (KernelResult, Vec<bool>) {
        let entry = self.entries.get_mut(&prep.key).expect("replay of an entry not in the cache");
        let end_abs = prep.base + entry.end_rel;
        // Data replay applies writes in the cold path's issue order, built
        // once per distinct list (slices compare as in `launch_key`).
        let mut orders: Vec<(&[Batch], Vec<_>)> = Vec::new();
        for (i, &batches) in per_channel.iter().enumerate() {
            if followers_only && prep.simulates(i) {
                continue;
            }
            let class = entry.class_of[i];
            let ctrl = sys.channel_mut(i);
            let sink = ctrl.sink_mut();
            sink.apply_accounting(&entry.accts[class]);
            sink.restore_clock(end_abs, &entry.ends[class]);
            // A channel with no live unit has no data to replay; otherwise
            // the walk itself skips the dead units, as the cold run does.
            if !sink.live_units().is_empty() {
                let at = match orders.iter().position(|o| std::ptr::eq(o.0, batches)) {
                    Some(at) => at,
                    None => {
                        let order =
                            batches.iter().enumerate().map(|(bi, b)| b.issue_order(bi, mode));
                        orders.push((batches, order.collect()));
                        orders.len() - 1
                    }
                };
                let cmds = orders[at].1.iter().flat_map(|b| b.iter());
                match &entry.tapes[class] {
                    Some(tape) => sink.replay_data_taped(cmds, tape),
                    None => entry.tapes[class] = Some(sink.replay_data_recording(cmds)),
                }
            }
            ctrl.advance_to(end_abs);
        }
        let end = sys.barrier();
        debug_assert_eq!(end, end_abs, "replayed barrier diverged from the recorded one");
        (
            KernelResult { end_cycle: end, commands: entry.commands, fences: entry.fences },
            vec![false; per_channel.len()],
        )
    }

    /// Proves (and memoizes) that a CRF image's trigger schedule derives
    /// statically — the legality condition for compiling a `DataTape`
    /// from it.
    fn prove_image(&mut self, image: &[u32; 32]) -> bool {
        let mut k = KeyHasher::new();
        for w in image {
            k.word(u64::from(*w));
        }
        *self
            .proofs
            .entry(k.h)
            .or_insert_with(|| StaticSchedule::derive(image, DEFAULT_SCHEDULE_BUDGET).is_ok())
    }

    /// The key pass: the launch key, whether the launch may be taped, and
    /// the per-channel keys the class rule compares.
    ///
    /// A channel's key is [`LaunchCache::list_key`] of its list. A list is
    /// walked once per distinct allocation: a channel handed the same
    /// slice (pointer and length) as one already walked in this launch —
    /// every channel of a lock-step kernel — reuses its key and verdict.
    /// The launch key folds execution mode, timing/device configuration
    /// and channel topology with the per-channel keys, in channel order.
    ///
    /// Returns `None` when a write's target row cannot be resolved.
    fn launch_key(
        &mut self,
        sys: &PimSystem,
        per_channel: &[&[Batch]],
        mode: ExecutionMode,
    ) -> Option<(u64, bool, Vec<u64>)> {
        let mut k = KeyHasher::new();
        match mode {
            ExecutionMode::Fenced { reorder_seed: None } => k.word(1),
            ExecutionMode::Fenced { reorder_seed: Some(s) } => {
                k.word(2);
                k.word(s);
            }
            ExecutionMode::Ordered => k.word(3),
            // The unfenced demo: its shuffle is in the flattened lists the
            // key walks.
            _ => k.word(4),
        }
        k.configuration(sys.timing(), sys.pim_config());
        k.word(sys.host.fence_sync_overhead_cycles);
        k.word(sys.channel_count() as u64);
        k.word(per_channel.len() as u64);
        let mut provable = true;
        let mut channel_keys = Vec::with_capacity(per_channel.len());
        let mut walked: Vec<(&[Batch], u64, bool)> = Vec::new();
        for &batches in per_channel {
            // Slice pointers compare by address *and* length.
            let (key, proved) = match walked.iter().find(|w| std::ptr::eq(w.0, batches)) {
                Some(&(_, key, proved)) => (key, proved),
                None => {
                    let (key, proved) = self.list_key(batches)?;
                    walked.push((batches, key, proved));
                    (key, proved)
                }
            };
            k.word(key);
            provable &= proved;
            channel_keys.push(key);
        }
        Some((k.h, provable, channel_keys))
    }

    /// The one walk of a channel's command stream, in program order:
    /// hashes its shape into the channel's key and decides whether it may
    /// be taped.
    ///
    /// The key covers batch structure (flags, labels, lengths), every
    /// command's class, bank and row or column, and *configuration*
    /// payloads — writes the [`ModeWalker`] resolves to `PIM_CONF` rows.
    /// Data payloads are deliberately left out so lists that differ only
    /// in their input vector share a key — across launches and across the
    /// channels of one launch.
    ///
    /// The verdict is `true` iff every CRF image in force at a
    /// `PIM_OP_MODE` *enable* write proves statically
    /// ([`LaunchCache::prove_image`]). The image is tracked from the
    /// list's all-bank CRF loads, EXIT-filled at entry.
    ///
    /// Returns `None` when a write's target row cannot be resolved.
    fn list_key(&mut self, batches: &[Batch]) -> Option<(u64, bool)> {
        let mut k = KeyHasher::new();
        let mut provable = true;
        k.word(batches.len() as u64);
        let mut walker = ModeWalker::new();
        let mut image = [Instruction::Exit.encode(); 32];
        for b in batches {
            k.word(u64::from(b.commutative) | u64::from(b.fence_after) << 1);
            k.word(b.label.map_or(u64::MAX, |p| p as u64));
            k.word(b.commands.len() as u64);
            for cmd in &b.commands {
                k.command(cmd);
                let step = walker.step(cmd);
                let Command::Wr { col, data, .. } = cmd else { continue };
                match step {
                    Step::Unresolved => return None,
                    Step::ConfWrite { row, unit } => {
                        k.bytes(&**data);
                        if (row, unit) == (CRF_ROW, None) {
                            let (base, words) = (crf_block_base(*col), crf_block_words(data));
                            image[base..base + words.len()].copy_from_slice(&words);
                        }
                    }
                    Step::PimOpMode { enable, .. } => {
                        k.bytes(&**data);
                        provable &= !enable || self.prove_image(&image);
                    }
                    _ => {}
                }
            }
        }
        Some((k.h, provable))
    }

    /// Records a just-finished cold run of the class representatives under
    /// its prepared key; `ran` holds the per-channel results, before the
    /// closing barrier (the followers still sit at their entry clocks).
    /// Returns whether an entry went in — then, and only then, the
    /// followers may be served from it. Cancelled or
    /// non-quiescent-at-exit runs are not recorded, and neither are
    /// launches arming a CRF program whose control flow cannot be proven
    /// data-independent — those must keep running the full simulation
    /// (the `DataTape` a replay would compile assumes a fixed trigger
    /// schedule).
    pub(crate) fn record(
        &mut self,
        sys: &PimSystem,
        prep: &PreparedLaunch,
        ran: &[BoundedResult],
    ) -> bool {
        if ran.iter().any(|r| r.cancelled) {
            return false;
        }
        if !prep.provable {
            self.stats.unproven += 1;
            return false;
        }
        // The barrier the launch closes on: no follower's clock is ahead
        // of its representative's.
        let end = sys.max_now();
        let classes = prep.reps.len();
        let mut members = vec![0u64; classes];
        for &c in &prep.class_of {
            members[c] += 1;
        }
        let mut ends = Vec::with_capacity(classes);
        let mut accts = Vec::with_capacity(classes);
        let (mut commands, mut fences) = (0, 0);
        for (c, (&rep, start_acct)) in prep.reps.iter().zip(&prep.start_accts).enumerate() {
            let sink = sys.channel(rep).sink();
            match sink.launch_fingerprint(end) {
                Some(st) => ends.push(st),
                // The kernel left the channel non-quiescent (open banks,
                // AB mode): not a launch shape we can replay.
                None => return false,
            }
            accts.push(sink.launch_accounting(end).delta_since(start_acct));
            // Every member issues what its representative issued.
            commands += ran[rep].result.commands * members[c];
            fences += ran[rep].result.fences * members[c];
        }
        let entry = LaunchEntry {
            offsets: prep.offsets.clone(),
            class_of: prep.class_of.clone(),
            starts: prep.starts.clone(),
            end_rel: end - prep.base,
            ends,
            accts,
            commands,
            fences,
            tapes: vec![None; classes],
        };
        if self.entries.insert(prep.key, entry).is_none() {
            self.order.push_back(prep.key);
            if self.order.len() > CACHE_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
        self.stats.insertions += 1;
        true
    }
}

/// A minimal word mixer (multiply-rotate, FxHash-style). The command
/// structure is trusted to the 64-bit key: a hit verifies the entry state
/// (offsets, class map, entry fingerprints), never the command stream, so
/// two launches whose keys collide from equal entry state would replay
/// each other's recording.
struct KeyHasher {
    h: u64,
}

impl KeyHasher {
    fn new() -> KeyHasher {
        KeyHasher { h: 0x9e37_79b9_7f4a_7c15 }
    }

    fn word(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Every field of the timing and device configuration: the timing's
    /// derived `Hash` feeds each field, in declaration order, to
    /// [`KeyHasher::word`], and the device pattern is exhaustive, so a
    /// field added to either struct cannot drop out of the key.
    fn configuration(&mut self, timing: &TimingParams, config: &PimConfig) {
        timing.hash(self);
        let &PimConfig { units_per_pch, variant } = config;
        self.words([units_per_pch as u64, variant as u64]);
    }

    /// A command's class, bank and row or column — never its payload.
    fn command(&mut self, cmd: &Command) {
        match *cmd {
            Command::Act { bank, row } => self.words([1, bank.flat_index() as u64, row.into()]),
            Command::Pre { bank } => self.words([2, bank.flat_index() as u64]),
            Command::PreAll => self.word(3),
            Command::Rd { bank, col } => self.words([4, bank.flat_index() as u64, col.into()]),
            Command::Wr { bank, col, .. } => self.words([5, bank.flat_index() as u64, col.into()]),
            Command::Ref => self.word(6),
        }
    }

    fn words<const N: usize>(&mut self, ws: [u64; N]) {
        for w in ws {
            self.word(w);
        }
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn write_u64(&mut self, w: u64) {
        self.word(w);
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use pim_core::PimVariant;
    use pim_dram::BankAddr;

    /// Every timing field and every device-configuration field is in the
    /// key, so two systems that differ in exactly one of them never share a
    /// cache entry for the same launch.
    #[test]
    fn every_configuration_field_separates_launch_keys() {
        let hash = |timing: &TimingParams, pim: &PimConfig| {
            let mut k = KeyHasher::new();
            k.configuration(timing, pim);
            k.h
        };
        let mut keys = vec![hash(&TimingParams::hbm2(), &PimConfig::paper())];
        let timing_fields: [fn(&mut TimingParams) -> &mut u64; 19] = [
            |t| &mut t.bus_mhz,
            |t| &mut t.t_rcd,
            |t| &mut t.t_rp,
            |t| &mut t.t_ras,
            |t| &mut t.t_rc,
            |t| &mut t.t_ccd_s,
            |t| &mut t.t_ccd_l,
            |t| &mut t.t_rrd_s,
            |t| &mut t.t_rrd_l,
            |t| &mut t.t_faw,
            |t| &mut t.t_cl,
            |t| &mut t.t_wl,
            |t| &mut t.t_bl,
            |t| &mut t.t_wr,
            |t| &mut t.t_rtp,
            |t| &mut t.t_wtr,
            |t| &mut t.t_rtw,
            |t| &mut t.t_refi,
            |t| &mut t.t_rfc,
        ];
        for field in timing_fields {
            let mut t = TimingParams::hbm2();
            *field(&mut t) += 1;
            keys.push(hash(&t, &PimConfig::paper()));
        }
        let config_edits: [fn(&mut PimConfig); 2] =
            [|c| c.units_per_pch -= 1, |c| c.variant = PimVariant::TwoBankAccess];
        for edit in config_edits {
            let mut c = PimConfig::paper();
            edit(&mut c);
            keys.push(hash(&TimingParams::hbm2(), &c));
        }
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "a configuration field fell out of the key");

        // And through `launch_key` itself, on systems that differ in one
        // timing field or one device field.
        let bank = BankAddr::new(0, 0);
        let launch = [Batch::setup(vec![
            Command::Act { bank, row: 3 },
            Command::Rd { bank, col: 0 },
            Command::Pre { bank },
        ])];
        let key = |timing: TimingParams, pim: PimConfig| {
            let sys = PimSystem::with_timing(HostConfig::paper(), pim, timing);
            let mode = ExecutionMode::Fenced { reorder_seed: None };
            LaunchCache::new().launch_key(&sys, &[&launch], mode).expect("cacheable").0
        };
        let base = key(TimingParams::hbm2(), PimConfig::paper());
        assert_eq!(base, key(TimingParams::hbm2(), PimConfig::paper()), "keys repeat");
        let mut slower = TimingParams::hbm2();
        slower.t_ccd_l += 1;
        assert_ne!(base, key(slower, PimConfig::paper()));
        assert_ne!(
            base,
            key(TimingParams::hbm2(), PimConfig::with_variant(PimVariant::TwoBankAccess))
        );
    }
}
