//! The full evaluation platform: host + 4 PIM-HBM stacks (Section VI).

use crate::config::HostConfig;
use crate::fastpath::{FastpathChannels, FastpathStats, LaunchCache};
use crate::parallel::ExecutionBackend;
use pim_core::{PimChannel, PimConfig, UnitMask};
use pim_dram::{
    AddressMapping, ControllerConfig, Cycle, MemoryController, SchedulingPolicy, TimingParams,
};
use pim_faults::FaultPlan;

/// The paper's evaluation system: an unmodified host processor 2.5D-
/// integrated with `stacks × 16` pseudo channels of PIM-HBM, each behind
/// its own JEDEC-compliant memory controller.
///
/// "The host processor can independently control PIM operations of each
/// memory channel" (Section III-A) — hence one controller and one local
/// clock per channel, synchronized only at barriers.
#[derive(Debug)]
pub struct PimSystem {
    /// Host configuration.
    pub host: HostConfig,
    pim_config: PimConfig,
    timing: TimingParams,
    channels: Vec<MemoryController<PimChannel>>,
    /// How `KernelEngine::run_system` distributes channels over host
    /// threads. Defaults to [`ExecutionBackend::Sequential`].
    backend: ExecutionBackend,
    /// The launch-memoization cache (see [`crate::fastpath`]).
    fastpath: LaunchCache,
    /// Whether launches may consult the cache. On by default; forced off
    /// forever once a fault plan is installed.
    fastpath_enabled: bool,
    /// Latched by [`PimSystem::install_faults`]; keeps
    /// [`PimSystem::set_fastpath_enabled`] from re-arming the cache on a
    /// faulted system.
    faults_installed: bool,
    /// The next launch's live-unit masks, one per channel (empty: none
    /// declared); see [`PimSystem::set_live_units`].
    live_units: Vec<UnitMask>,
}

impl PimSystem {
    /// Builds the system: `host.stacks × 16` PIM channels.
    ///
    /// Refresh is **waived**: the controllers are built with
    /// `refresh_enabled: false`, and the raw command path every kernel runs
    /// on never schedules a REF even when the flag is set (only the request
    /// path does). Nothing brackets kernels between refresh windows — Table
    /// VI GEMV1 is 44 574 cycles, 9.5 × HBM2's `t_refi` of 4 680 — so every
    /// simulated PIM time omits at least `t_rfc / t_refi` = 312 / 4 680 =
    /// 6.7 %, before the PRE + ACT an all-bank REF needs around it. The
    /// waiver is a named row in EXPERIMENTS.md ("Named waivers").
    pub fn new(host: HostConfig, pim: PimConfig) -> PimSystem {
        PimSystem::with_timing(host, pim, TimingParams::hbm2())
    }

    /// Builds the system with explicit DRAM timing.
    pub fn with_timing(host: HostConfig, pim: PimConfig, timing: TimingParams) -> PimSystem {
        let n = host.stacks * 16;
        let channels = (0..n)
            .map(|i| {
                let cfg = ControllerConfig {
                    timing: timing.clone(),
                    mapping: AddressMapping::new(16),
                    pch_id: i % 16,
                    policy: SchedulingPolicy::FrFcfs,
                    page_policy: pim_dram::PagePolicy::Open,
                    refresh_enabled: false,
                };
                MemoryController::with_sink(cfg, PimChannel::new(timing.clone(), pim.clone()))
            })
            .collect();
        PimSystem {
            host,
            pim_config: pim,
            timing,
            channels,
            backend: ExecutionBackend::Sequential,
            fastpath: LaunchCache::new(),
            fastpath_enabled: true,
            faults_installed: false,
            live_units: Vec::new(),
        }
    }

    /// The execution backend kernels run under.
    pub fn backend(&self) -> ExecutionBackend {
        self.backend
    }

    /// Selects the execution backend. Purely a host-side scheduling choice:
    /// results, stats, and merged event streams are identical under every
    /// backend (the determinism contract of [`crate::parallel`]).
    pub fn set_backend(&mut self, backend: ExecutionBackend) {
        self.backend = backend;
    }

    /// The PIM device configuration.
    pub fn pim_config(&self) -> &PimConfig {
        &self.pim_config
    }

    /// DRAM timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Number of pseudo channels (64 on the paper system).
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of HBM stacks this system models (4 on the paper system).
    ///
    /// A [`crate::ClusterTopology`] composes several *single-stack*
    /// systems instead of widening one system's channel count, so cluster
    /// code uses this to assert each member really is one stack.
    pub fn stack_count(&self) -> usize {
        self.host.stacks
    }

    /// The controller of channel `i`.
    pub fn channel(&self, i: usize) -> &MemoryController<PimChannel> {
        &self.channels[i]
    }

    /// Mutable controller access.
    pub fn channel_mut(&mut self, i: usize) -> &mut MemoryController<PimChannel> {
        &mut self.channels[i]
    }

    /// All controllers as one mutable slice — what the parallel backend
    /// partitions into disjoint per-worker chunks.
    pub fn channels_mut(&mut self) -> &mut [MemoryController<PimChannel>] {
        &mut self.channels
    }

    /// The latest local clock across channels.
    pub fn max_now(&self) -> Cycle {
        self.channels.iter().map(|c| c.now()).max().unwrap_or(0)
    }

    /// Global barrier: aligns every channel's clock to the latest.
    pub fn barrier(&mut self) -> Cycle {
        let now = self.max_now();
        for c in &mut self.channels {
            c.advance_to(now);
        }
        now
    }

    /// Converts a channel-cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: Cycle) -> f64 {
        self.timing.cycles_to_seconds(cycles)
    }

    /// Sum of PIM triggers across all channels (work actually executed).
    pub fn total_pim_triggers(&self) -> u64 {
        self.channels.iter().map(|c| c.sink().stats().pim_triggers).sum()
    }

    /// Installs a seeded fault plan on every channel: the device-level
    /// command injector plus per-bank cell faults, each salted with the
    /// system-level channel index so channels fault independently. Never
    /// calling this (the default) keeps the system bit-identical to a
    /// build without fault support.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        // Faulted channels never fingerprint as cacheable, but disabling
        // the fast path outright keeps "fault campaigns simulate every
        // cycle" a one-line invariant rather than a proof.
        self.faults_installed = true;
        self.fastpath_enabled = false;
        self.fastpath.clear();
        for (i, c) in self.channels.iter_mut().enumerate() {
            c.sink_mut().install_faults(plan, i as u16);
        }
    }

    /// Channels whose PIM units are hard-failed by the installed plan.
    pub fn hard_failed_channels(&self) -> Vec<usize> {
        (0..self.channels.len()).filter(|&i| self.channels[i].sink().hard_failed()).collect()
    }

    /// Whether the launch-memoization fast path is armed (see
    /// [`crate::fastpath`]). Defaults to `true`.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath_enabled
    }

    /// Arms or disarms the launch-memoization fast path. Disarming keeps
    /// cached entries and counters (re-arming resumes hitting them).
    /// Re-arming is refused — silently, like the cache's other
    /// conservative fallbacks — once a fault plan has been installed:
    /// fault campaigns must simulate every cycle.
    pub fn set_fastpath_enabled(&mut self, enabled: bool) {
        self.fastpath_enabled = enabled && !self.faults_installed;
    }

    /// Hit/miss/insertion counters of the launch-memoization cache.
    pub fn fastpath_stats(&self) -> FastpathStats {
        self.fastpath.stats()
    }

    /// Channels simulated and channels served by replay, summed over every
    /// launch so far — the per-channel view [`PimSystem::fastpath_stats`]
    /// (which counts launches) cannot give: a cold lock-step launch is one
    /// miss and one insertion, and simulates one channel per class.
    pub fn fastpath_channels(&self) -> FastpathChannels {
        self.fastpath.channels()
    }

    /// Drops every memoized launch (counters survive). Call on any host
    /// action that changes behaviour without changing the launch key —
    /// the runtime invalidates on strict-mode toggles and memory resets.
    pub fn clear_fastpath(&mut self) {
        self.fastpath.clear();
    }

    /// Declares, for the **next** launch only, which units' results the
    /// caller will read: `live[i]` is channel `i`'s mask, channels past the
    /// slice stay all-live, and a launch nobody declared anything for is
    /// all-live on every channel. The engine puts the masks on the channels
    /// for exactly that launch — cold or replayed, under every backend —
    /// and takes them off again.
    ///
    /// The contract, on every path (docs/FASTPATH.md, "Live units"):
    ///
    /// * exact on **every channel**: clocks, timing state, the
    ///   [`crate::KernelResult`], channel and unit statistics, launch
    ///   accounting and energy;
    /// * the registers and banks of units in the mask are bit-identical to
    ///   an unmasked full simulation; a unit outside its mask fetches no
    ///   operand, runs no FP16 and writes nothing back, so its registers
    ///   and bank results are *not produced* and must be rewritten before
    ///   they are read (see [`PimChannel::set_live_units`]);
    /// * the sequencers and the CRF are exact on every unit **of a channel
    ///   that has a live unit**. A channel whose mask is empty may be
    ///   served from a recording without walking its command stream at all
    ///   (a fast-path hit, or a class follower of a miss — see
    ///   [`crate::fastpath`]), so its sequencers, CRF, SRF and GRF are
    ///   **unspecified** — those of a cold run or untouched — until the
    ///   next launch arms it. Every runtime kernel reloads the CRF and
    ///   resets the sequencers at `PIM_OP_MODE`, so nothing launched
    ///   through the runtime can observe the difference.
    ///
    /// Ignored once a fault plan is installed: transient cell flips key
    /// off each bank's write counter, so on a faulted system a dead unit's
    /// bank traffic is observable — the same condition that makes fault
    /// campaigns simulate every cycle.
    pub fn set_live_units(&mut self, live: &[UnitMask]) {
        self.live_units.clear();
        self.live_units.extend_from_slice(live);
    }

    /// Moves the declared masks onto the channels for the launch about to
    /// run (none declared, or a faulted system: the channels stay
    /// all-live).
    pub(crate) fn arm_live_units(&mut self) {
        if !self.faults_installed {
            for (c, &live) in self.channels.iter_mut().zip(&self.live_units) {
                c.sink_mut().set_live_units(live);
            }
        }
        self.live_units.clear();
    }

    /// Returns every channel to all-live after a launch.
    pub(crate) fn disarm_live_units(&mut self) {
        for c in &mut self.channels {
            c.sink_mut().set_live_units(UnitMask::ALL);
        }
    }

    /// Takes the cache out for a launch (`None` when disarmed), so the
    /// engine can hold it mutably alongside the channels.
    pub(crate) fn take_fastpath(&mut self) -> Option<LaunchCache> {
        self.fastpath_enabled.then(|| std::mem::take(&mut self.fastpath))
    }

    /// Returns the cache after a launch.
    pub(crate) fn restore_fastpath(&mut self, cache: Option<LaunchCache>) {
        if let Some(c) = cache {
            self.fastpath = c;
        }
    }

    /// Accounts a finished launch's channels, fast path armed or not.
    pub(crate) fn count_channels(&mut self, simulated: usize, replayed: usize) {
        self.fastpath.count_channels(simulated, replayed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_has_64_channels() {
        let sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        assert_eq!(sys.channel_count(), 64);
        assert_eq!(sys.max_now(), 0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        sys.channel_mut(5).advance_to(1000);
        let now = sys.barrier();
        assert_eq!(now, 1000);
        assert_eq!(sys.channel(63).now(), 1000);
    }

    #[test]
    fn channels_start_in_single_bank_mode() {
        let sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        for i in 0..sys.channel_count() {
            assert_eq!(sys.channel(i).sink().mode(), pim_core::PimMode::SingleBank);
        }
    }
}
