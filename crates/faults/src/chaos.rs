//! Cluster-level chaos schedules: phased stack crashes, stragglers, and
//! link degradation over simulated time.
//!
//! [`FaultPlan`](crate::FaultPlan) describes *device*-granularity faults
//! that are fixed for a whole run; a scale-out appliance additionally
//! sees *site*-granularity dynamics — a stack power-cycles mid-campaign,
//! a link renegotiates to half width, a straggler runs hot for a phase
//! and then recovers. [`ClusterFaultPlan`] models those as a time-phased
//! schedule of explicit windows over the shared cluster sim-clock:
//!
//! * **crash windows** — a stack is down (loses its arena) for
//!   `[from, until)` and must re-replicate before rejoining,
//! * **stall windows** — a stack's observed service time is multiplied
//!   by `factor_milli / 1000` (a straggler, not a failure),
//! * **link windows** — the stack's inter-stack link suffers a bandwidth
//!   cut, a latency spike, or a full transient partition.
//!
//! # Determinism
//!
//! Every query ([`ClusterFaultPlan::stack_crashed`] and friends) is a
//! pure function of `(plan, site, cycle)` — there is no RNG stream and
//! no dependence on simulation order, so a chaos campaign is
//! byte-identical from run to run, like everything else in the stack.

/// Nominal stall factor: service time is unchanged.
pub const NOMINAL_MILLI: u64 = 1000;

/// How one chaos window degrades its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// The stack is down: it serves nothing and its arena contents are
    /// lost. Recovery requires re-replication (see `docs/RESILIENCE.md`).
    Crash,
    /// The stack is a straggler: observed service time is multiplied by
    /// `factor_milli / 1000` (values below 1000 are clamped to nominal).
    Stall {
        /// Service-time multiplier in thousandths (2000 = 2× slower).
        factor_milli: u64,
    },
    /// The stack's link serialises at `link_bytes_per_cycle / divisor`
    /// (a lane renegotiation; divisor 0 is clamped to 1).
    BandwidthCut {
        /// Bandwidth divisor (2 = half width).
        divisor: u64,
    },
    /// The stack's link hop latency is multiplied by
    /// `factor_milli / 1000` (values below 1000 clamp to nominal).
    LatencySpike {
        /// Hop-latency multiplier in thousandths.
        factor_milli: u64,
    },
    /// The stack's link is fully partitioned: it cannot participate in
    /// collectives or receive routed requests, but keeps its arena and
    /// rejoins without re-replication when the window closes.
    Partition,
}

/// One scheduled window of chaos at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosWindow {
    /// The member stack (or its link, for the link kinds) affected.
    pub stack: usize,
    /// First cycle (inclusive) the window is active.
    pub from: u64,
    /// First cycle the window is no longer active (exclusive); use
    /// `u64::MAX` for a permanent condition.
    pub until: u64,
    /// What the window does.
    pub kind: ChaosKind,
}

impl ChaosWindow {
    /// Whether the window is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

/// Effective health of one inter-stack link at one instant, as factors
/// over the topology's nominal link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkState {
    /// Hop-latency multiplier in thousandths (1000 = nominal).
    pub latency_milli: u64,
    /// Bandwidth divisor (1 = nominal).
    pub bandwidth_div: u64,
    /// Whether the link is fully partitioned.
    pub partitioned: bool,
}

impl LinkState {
    /// The healthy link: nominal latency and bandwidth, not partitioned.
    pub const NOMINAL: LinkState =
        LinkState { latency_milli: NOMINAL_MILLI, bandwidth_div: 1, partitioned: false };
}

/// A deterministic, time-phased cluster chaos schedule.
///
/// Build one with [`ClusterFaultPlan::quiet`] plus the chainable window
/// constructors. All queries are pure functions of `(plan, site, cycle)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterFaultPlan {
    /// Seed the plan was built from (salts rejoin probes downstream; the
    /// explicit window constructors never consult it).
    pub seed: u64,
    windows: Vec<ChaosWindow>,
}

impl ClusterFaultPlan {
    /// A plan with no scheduled chaos.
    pub fn quiet(seed: u64) -> ClusterFaultPlan {
        ClusterFaultPlan { seed, windows: Vec::new() }
    }

    /// True if the plan schedules nothing.
    pub fn is_quiet(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows, in insertion order.
    pub fn windows(&self) -> &[ChaosWindow] {
        &self.windows
    }

    /// Adds an explicit window.
    pub fn with_window(mut self, w: ChaosWindow) -> ClusterFaultPlan {
        self.windows.push(w);
        self
    }

    /// Schedules a crash of `stack` over `[from, until)`.
    pub fn crash(self, stack: usize, from: u64, until: u64) -> ClusterFaultPlan {
        self.with_window(ChaosWindow { stack, from, until, kind: ChaosKind::Crash })
    }

    /// Schedules a straggler phase: `stack`'s service time ×
    /// `factor_milli / 1000` over `[from, until)`.
    pub fn stall(self, stack: usize, from: u64, until: u64, factor_milli: u64) -> ClusterFaultPlan {
        self.with_window(ChaosWindow {
            stack,
            from,
            until,
            kind: ChaosKind::Stall { factor_milli },
        })
    }

    /// Schedules a bandwidth cut on `stack`'s link over `[from, until)`.
    pub fn bandwidth_cut(
        self,
        stack: usize,
        from: u64,
        until: u64,
        divisor: u64,
    ) -> ClusterFaultPlan {
        self.with_window(ChaosWindow {
            stack,
            from,
            until,
            kind: ChaosKind::BandwidthCut { divisor },
        })
    }

    /// Schedules a latency spike on `stack`'s link over `[from, until)`.
    pub fn latency_spike(
        self,
        stack: usize,
        from: u64,
        until: u64,
        factor_milli: u64,
    ) -> ClusterFaultPlan {
        self.with_window(ChaosWindow {
            stack,
            from,
            until,
            kind: ChaosKind::LatencySpike { factor_milli },
        })
    }

    /// Schedules a transient partition of `stack`'s link over
    /// `[from, until)`.
    pub fn partition(self, stack: usize, from: u64, until: u64) -> ClusterFaultPlan {
        self.with_window(ChaosWindow { stack, from, until, kind: ChaosKind::Partition })
    }

    /// Whether `stack` is crashed at `cycle`.
    pub fn stack_crashed(&self, stack: usize, cycle: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.stack == stack && w.kind == ChaosKind::Crash && w.active_at(cycle))
    }

    /// `stack`'s service-time multiplier at `cycle`, in thousandths.
    /// Overlapping stall windows take the worst factor; no active window
    /// (or sub-nominal factors) yields [`NOMINAL_MILLI`].
    pub fn stack_stall_milli(&self, stack: usize, cycle: u64) -> u64 {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                ChaosKind::Stall { factor_milli } if w.stack == stack && w.active_at(cycle) => {
                    Some(factor_milli)
                }
                _ => None,
            })
            .max()
            .unwrap_or(NOMINAL_MILLI)
            .max(NOMINAL_MILLI)
    }

    /// The effective state of `stack`'s link at `cycle`: worst active
    /// latency factor, worst active bandwidth divisor, and whether any
    /// partition window is active.
    pub fn link_state(&self, stack: usize, cycle: u64) -> LinkState {
        let mut state = LinkState::NOMINAL;
        for w in &self.windows {
            if w.stack != stack || !w.active_at(cycle) {
                continue;
            }
            match w.kind {
                ChaosKind::BandwidthCut { divisor } => {
                    state.bandwidth_div = state.bandwidth_div.max(divisor.max(1));
                }
                ChaosKind::LatencySpike { factor_milli } => {
                    state.latency_milli = state.latency_milli.max(factor_milli.max(NOMINAL_MILLI));
                }
                ChaosKind::Partition => state.partitioned = true,
                ChaosKind::Crash | ChaosKind::Stall { .. } => {}
            }
        }
        state
    }

    /// Whether `stack`'s link is partitioned at `cycle`.
    pub fn link_partitioned(&self, stack: usize, cycle: u64) -> bool {
        self.link_state(stack, cycle).partitioned
    }

    /// Test probe: every finite window edge (both `from` and `until`),
    /// sorted and deduplicated — the instants at which any site's health
    /// can change.
    #[cfg(test)]
    fn phase_boundaries(&self) -> Vec<u64> {
        let mut edges: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| [w.from, w.until])
            .filter(|&c| c != u64::MAX)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_schedules_nothing() {
        let p = ClusterFaultPlan::quiet(7);
        assert!(p.is_quiet());
        assert!(!p.stack_crashed(0, 0));
        assert_eq!(p.stack_stall_milli(3, 1 << 40), NOMINAL_MILLI);
        assert_eq!(p.link_state(1, 500), LinkState::NOMINAL);
        assert!(p.phase_boundaries().is_empty());
    }

    #[test]
    fn windows_are_half_open_and_site_scoped() {
        let p = ClusterFaultPlan::quiet(1).crash(2, 100, 200);
        assert!(!p.stack_crashed(2, 99));
        assert!(p.stack_crashed(2, 100));
        assert!(p.stack_crashed(2, 199));
        assert!(!p.stack_crashed(2, 200));
        assert!(!p.stack_crashed(1, 150));
        assert_eq!(p.phase_boundaries(), vec![100, 200]);
    }

    #[test]
    fn overlapping_windows_take_the_worst_factor() {
        let p = ClusterFaultPlan::quiet(1)
            .stall(0, 0, 100, 2000)
            .stall(0, 50, 150, 4000)
            .stall(0, 0, 100, 500); // sub-nominal clamps up
        assert_eq!(p.stack_stall_milli(0, 10), 2000);
        assert_eq!(p.stack_stall_milli(0, 60), 4000);
        assert_eq!(p.stack_stall_milli(0, 120), 4000);
        assert_eq!(p.stack_stall_milli(0, 150), NOMINAL_MILLI);
    }

    #[test]
    fn link_state_combines_cut_spike_and_partition() {
        let p = ClusterFaultPlan::quiet(1)
            .bandwidth_cut(1, 0, 100, 4)
            .latency_spike(1, 50, 150, 3000)
            .partition(1, 90, 110);
        assert_eq!(
            p.link_state(1, 10),
            LinkState { latency_milli: 1000, bandwidth_div: 4, partitioned: false }
        );
        assert_eq!(
            p.link_state(1, 95),
            LinkState { latency_milli: 3000, bandwidth_div: 4, partitioned: true }
        );
        assert_eq!(
            p.link_state(1, 120),
            LinkState { latency_milli: 3000, bandwidth_div: 1, partitioned: false }
        );
        assert!(p.link_partitioned(1, 100));
        assert!(!p.link_partitioned(1, 110));
    }

    #[test]
    fn crash_and_stall_do_not_leak_into_link_state() {
        let p = ClusterFaultPlan::quiet(1).crash(0, 0, 100).stall(0, 0, 100, 9000);
        assert_eq!(p.link_state(0, 50), LinkState::NOMINAL);
    }

    #[test]
    fn phase_boundaries_are_sorted_dedup_and_skip_forever() {
        let p = ClusterFaultPlan::quiet(1).crash(0, 200, 300).stall(1, 100, 300, 2000).partition(
            2,
            50,
            u64::MAX,
        );
        assert_eq!(p.phase_boundaries(), vec![50, 100, 200, 300]);
    }
}
