//! Multi-stack cluster topology: N PIM-HBM stacks behind one host.
//!
//! The paper's silicon pairs one HBM-PIM stack with one processor
//! (Section VI); production-scale serving shards model weights across
//! many such stacks. [`ClusterTopology`] describes that scale-out shape
//! — how many stacks, how many pseudo channels each exposes, and the
//! modelled inter-stack link the collectives pay to merge partials —
//! entirely in sim-cycles so cluster runs stay deterministic and
//! backend-invariant like everything else in the stack.
//!
//! The link model is deliberately simple: a collective over `S` stacks
//! pays a fixed per-hop latency for each of the `S - 1` transfers of a
//! stack-index-ordered ring walk, plus the serialised byte time of the
//! per-link payload at `link_bytes_per_cycle`. That is enough to make
//! goodput-vs-stack-count curves honest (adding stacks is not free)
//! without simulating a fabric. See `docs/CLUSTER.md`.

use std::fmt;

/// Shape and link model of a multi-stack PIM cluster.
///
/// All costs are in sim-cycles of the shared cluster clock; the
/// collectives in `pim-runtime` charge them by advancing every member
/// stack to the same post-collective instant (a cluster barrier plus the
/// modelled transfer time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of member stacks (each is an independent `PimSystem`).
    pub stacks: usize,
    /// Pseudo channels per stack (16 for the paper's HBM2 stack).
    pub channels_per_stack: usize,
    /// Fixed per-hop latency of one inter-stack transfer, in sim-cycles.
    pub link_latency_cycles: u64,
    /// Serialisation bandwidth of one inter-stack link, in bytes per
    /// sim-cycle.
    pub link_bytes_per_cycle: u64,
    /// Current health of each stack's link, indexed by stack. Lazily
    /// sized: links without an entry are nominal. Chaos schedules update
    /// this over a run via [`ClusterTopology::set_link_health`], and
    /// [`ClusterTopology::collective_cycles`] prices the degradation.
    link_health: Vec<LinkHealth>,
}

/// Health of one inter-stack link as factors over the topology's nominal
/// link parameters: a degraded link has a latency multiplier above 1000
/// thousandths and/or a bandwidth divisor above 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHealth {
    /// Hop-latency multiplier in thousandths (1000 = nominal).
    pub latency_milli: u64,
    /// Serialisation-bandwidth divisor (1 = nominal, 2 = half width).
    pub bandwidth_div: u64,
}

impl LinkHealth {
    /// The healthy link: nominal latency, full bandwidth.
    pub const NOMINAL: LinkHealth = LinkHealth { latency_milli: 1000, bandwidth_div: 1 };
}

impl Default for LinkHealth {
    fn default() -> LinkHealth {
        LinkHealth::NOMINAL
    }
}

/// A [`ClusterTopology`] that cannot describe a runnable cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// `stacks == 0`: a cluster needs at least one member.
    NoStacks,
    /// `channels_per_stack == 0`: a stack with no channels can hold no
    /// operands.
    NoChannels,
    /// `link_bytes_per_cycle == 0` with more than one stack: collectives
    /// would never finish serialising.
    ZeroLinkBandwidth,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoStacks => write!(f, "cluster topology has zero stacks"),
            TopologyError::NoChannels => {
                write!(f, "cluster topology has zero channels per stack")
            }
            TopologyError::ZeroLinkBandwidth => {
                write!(f, "multi-stack topology has zero link bandwidth")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl ClusterTopology {
    /// The paper-shaped topology: `stacks` HBM-PIM stacks of 16 pseudo
    /// channels each, joined by a modest 2.5D-interposer-class link
    /// (120-cycle hop latency, 32 bytes/cycle per link).
    pub fn paper(stacks: usize) -> ClusterTopology {
        ClusterTopology {
            stacks,
            channels_per_stack: 16,
            link_latency_cycles: 120,
            link_bytes_per_cycle: 32,
            link_health: Vec::new(),
        }
    }

    /// Current health of stack `link`'s inter-stack link (nominal when
    /// never set).
    pub fn link_health(&self, link: usize) -> LinkHealth {
        self.link_health.get(link).copied().unwrap_or(LinkHealth::NOMINAL)
    }

    /// Sets the health of stack `link`'s inter-stack link. Out-of-range
    /// indices grow the table (intermediate links stay nominal).
    pub fn set_link_health(&mut self, link: usize, health: LinkHealth) {
        if self.link_health.len() <= link {
            self.link_health.resize(link + 1, LinkHealth::NOMINAL);
        }
        self.link_health[link] = health;
    }

    /// Effective hop latency of stack `link`'s link under its current
    /// health, rounded up to whole cycles.
    pub fn hop_latency_cycles(&self, link: usize) -> u64 {
        let h = self.link_health(link);
        (self.link_latency_cycles * h.latency_milli.max(1000)).div_ceil(1000)
    }

    /// Effective serialisation bandwidth of stack `link`'s link under its
    /// current health, floored at one byte per cycle.
    pub fn hop_bytes_per_cycle(&self, link: usize) -> u64 {
        let h = self.link_health(link);
        (self.link_bytes_per_cycle.max(1) / h.bandwidth_div.max(1)).max(1)
    }

    /// Total pseudo channels across the cluster.
    pub fn channel_count(&self) -> usize {
        self.stacks * self.channels_per_stack
    }

    /// Checks the topology describes a runnable cluster.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.stacks == 0 {
            return Err(TopologyError::NoStacks);
        }
        if self.channels_per_stack == 0 {
            return Err(TopologyError::NoChannels);
        }
        if self.stacks > 1 && self.link_bytes_per_cycle == 0 {
            return Err(TopologyError::ZeroLinkBandwidth);
        }
        Ok(())
    }

    /// Sim-cycles one collective (reduce or all-gather) over the whole
    /// cluster costs, given `total_bytes` of payload crossing the links.
    ///
    /// Modelled as a stack-index-ordered ring walk: `stacks - 1` hops,
    /// each paying the (health-adjusted) hop latency, with the payload
    /// split evenly across the links (remainder charged to the first hop
    /// so the cost is a deterministic function of the inputs) and the
    /// serialisation time set by the slowest link in the walk. With all
    /// links at nominal health this is exactly
    /// `link_latency_cycles * (stacks - 1) + per_link / bw`; a degraded
    /// link raises the price. A single-stack cluster or an empty payload
    /// costs nothing — the N=1 path must be exactly the single-stack
    /// path.
    pub fn collective_cycles(&self, total_bytes: u64) -> u64 {
        let all: Vec<usize> = (0..self.stacks).collect();
        self.collective_cycles_over(total_bytes, &all)
    }

    /// [`ClusterTopology::collective_cycles`] restricted to a participant
    /// subset: the ring walk visits `participants` in the given order,
    /// each of the `participants.len() - 1` hops paying the *sender*
    /// stack's health-adjusted link latency, with serialisation time set
    /// by the slowest participating link. Collectives that route around
    /// crashed or partitioned stacks price exactly the links they still
    /// use.
    pub fn collective_cycles_over(&self, total_bytes: u64, participants: &[usize]) -> u64 {
        let m = participants.len();
        if m <= 1 || total_bytes == 0 {
            return 0;
        }
        let hops = (m - 1) as u64;
        let per_link = total_bytes.div_ceil(hops);
        let mut latency = 0u64;
        let mut serialisation = 0u64;
        for &sender in &participants[..m - 1] {
            latency += self.hop_latency_cycles(sender);
            serialisation = serialisation.max(per_link.div_ceil(self.hop_bytes_per_cycle(sender)));
        }
        latency + serialisation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_validates() {
        let t = ClusterTopology::paper(4);
        assert!(t.validate().is_ok());
        assert_eq!(t.channel_count(), 64);
    }

    #[test]
    fn degenerate_topologies_are_rejected() {
        assert_eq!(ClusterTopology::paper(0).validate(), Err(TopologyError::NoStacks));
        let mut t = ClusterTopology::paper(2);
        t.channels_per_stack = 0;
        assert_eq!(t.validate(), Err(TopologyError::NoChannels));
        let mut t = ClusterTopology::paper(2);
        t.link_bytes_per_cycle = 0;
        assert_eq!(t.validate(), Err(TopologyError::ZeroLinkBandwidth));
        // A single stack never uses the link, so zero bandwidth is fine.
        let mut t = ClusterTopology::paper(1);
        t.link_bytes_per_cycle = 0;
        assert!(t.validate().is_ok());
    }

    #[test]
    fn single_stack_collectives_are_free() {
        let t = ClusterTopology::paper(1);
        assert_eq!(t.collective_cycles(1 << 20), 0);
        let t = ClusterTopology::paper(4);
        assert_eq!(t.collective_cycles(0), 0);
    }

    #[test]
    fn collective_cost_grows_with_stacks_and_bytes() {
        let t2 = ClusterTopology::paper(2);
        let t4 = ClusterTopology::paper(4);
        let small = t2.collective_cycles(1024);
        assert_eq!(small, 120 + 1024u64.div_ceil(32));
        assert!(t2.collective_cycles(1 << 20) > small);
        assert!(t4.collective_cycles(1024) > t2.collective_cycles(1024) / 2);
        // Hop latency dominates tiny payloads at higher stack counts.
        assert!(t4.collective_cycles(1) >= 3 * 120);
    }

    #[test]
    fn nominal_health_prices_exactly_like_the_original_formula() {
        let t = ClusterTopology::paper(4);
        for bytes in [1u64, 32, 1024, 1 << 20] {
            let hops = 3u64;
            let per_link = bytes.div_ceil(hops);
            assert_eq!(t.collective_cycles(bytes), 120 * hops + per_link.div_ceil(32));
            let all: Vec<usize> = (0..4).collect();
            assert_eq!(t.collective_cycles_over(bytes, &all), t.collective_cycles(bytes));
        }
    }

    #[test]
    fn degraded_links_raise_the_collective_price() {
        let mut t = ClusterTopology::paper(4);
        let nominal = t.collective_cycles(4096);
        t.set_link_health(1, LinkHealth { latency_milli: 3000, bandwidth_div: 1 });
        let spiked = t.collective_cycles(4096);
        assert_eq!(spiked, nominal + 2 * 120, "3x latency on one hop adds two extra hops' worth");
        t.set_link_health(2, LinkHealth { latency_milli: 1000, bandwidth_div: 4 });
        let cut = t.collective_cycles(4096);
        let per_link = 4096u64.div_ceil(3);
        assert_eq!(
            cut,
            spiked - per_link.div_ceil(32) + per_link.div_ceil(8),
            "serialisation is set by the slowest link in the walk"
        );
        t.set_link_health(1, LinkHealth::NOMINAL);
        t.set_link_health(2, LinkHealth::NOMINAL);
        assert_eq!(t.collective_cycles(4096), nominal);
    }

    #[test]
    fn collective_over_subset_only_prices_participating_links() {
        let mut t = ClusterTopology::paper(4);
        // Degrade stack 3's link, then run the collective without it:
        // the price must match a healthy 3-stack walk over stacks 0..2.
        t.set_link_health(3, LinkHealth { latency_milli: 9000, bandwidth_div: 16 });
        let survivors = [0usize, 1, 2];
        let healthy3 = ClusterTopology::paper(3).collective_cycles(4096);
        assert_eq!(t.collective_cycles_over(4096, &survivors), healthy3);
        // The last participant is a receiver only — its link is unused.
        let with_3_last = [0usize, 1, 3];
        assert_eq!(t.collective_cycles_over(4096, &with_3_last), healthy3);
        // Single participant or empty payload: free, like N=1.
        assert_eq!(t.collective_cycles_over(4096, &[2]), 0);
        assert_eq!(t.collective_cycles_over(0, &survivors), 0);
    }

    #[test]
    fn link_health_accessors_default_to_nominal_and_clamp() {
        let mut t = ClusterTopology::paper(2);
        assert_eq!(t.link_health(7), LinkHealth::NOMINAL);
        t.set_link_health(1, LinkHealth { latency_milli: 0, bandwidth_div: 0 });
        // Sub-nominal factors clamp to nominal in the effective rates.
        assert_eq!(t.hop_latency_cycles(1), 120);
        assert_eq!(t.hop_bytes_per_cycle(1), 32);
        assert_eq!(t.link_health(0), LinkHealth::NOMINAL, "intermediate links stay nominal");
    }

    #[test]
    fn transfer_rounds_up_to_whole_cycles() {
        // One hop: the fixed link latency plus serialisation time.
        let t = ClusterTopology::paper(2);
        assert_eq!(t.collective_cycles(0), 0);
        assert_eq!(t.collective_cycles(1), 121);
        assert_eq!(t.collective_cycles(32), 121);
        assert_eq!(t.collective_cycles(33), 122);
    }
}
