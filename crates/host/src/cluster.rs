//! Multi-stack cluster topology: N PIM-HBM stacks behind one host.
//!
//! The paper's silicon pairs one HBM-PIM stack with one processor
//! (Section VI); production-scale serving shards model weights across
//! many such stacks, each of [`PCH_PER_STACK`] pseudo channels, joined by
//! the modelled inter-stack link the collectives pay to merge partials.
//! [`collective_cycles`] prices that link entirely in sim-cycles, so
//! cluster runs stay deterministic like everything else in the stack.
//!
//! The link model is deliberately simple: a collective over `S` stacks
//! pays a fixed per-hop latency for each of the `S - 1` transfers of a
//! stack-index-ordered ring walk, plus the serialised byte time of the
//! per-link payload at [`LINK_BYTES_PER_CYCLE`]. That is enough to make
//! goodput-vs-stack-count curves honest (adding stacks is not free)
//! without simulating a fabric. A link's health is the chaos schedule's
//! [`LinkState`] at the collective's start. See `docs/CLUSTER.md`.

use pim_faults::LinkState;

pub use pim_dram::PCH_PER_STACK;

/// Fixed per-hop latency of one inter-stack transfer, in sim-cycles (a
/// modest 2.5D-interposer-class link).
pub const LINK_LATENCY_CYCLES: u64 = 120;
/// Serialisation bandwidth of one inter-stack link, in bytes per
/// sim-cycle.
pub const LINK_BYTES_PER_CYCLE: u64 = 32;

/// Effective hop latency of a link in `state`, rounded up to whole
/// cycles; sub-nominal factors clamp to nominal.
fn hop_latency_cycles(state: &LinkState) -> u64 {
    (LINK_LATENCY_CYCLES * state.latency_milli.max(1000)).div_ceil(1000)
}

/// Effective serialisation bandwidth of a link in `state`, floored at one
/// byte per cycle; a divisor below 1 clamps to nominal.
fn hop_bytes_per_cycle(state: &LinkState) -> u64 {
    (LINK_BYTES_PER_CYCLE / state.bandwidth_div.max(1)).max(1)
}

/// Sim-cycles one collective (reduce or all-gather) of `total_bytes`
/// costs as a ring walk over `participants`, given in walk order as each
/// participant's link state: each of the `participants.len() - 1` hops
/// pays its *sender's* health-adjusted latency, the payload is split
/// evenly across the hops (rounded up), and the slowest sending link sets
/// the serialisation time. The last participant only receives, so its
/// link is unused. On nominal links that is exactly `LINK_LATENCY_CYCLES *
/// (m - 1) + per_link / LINK_BYTES_PER_CYCLE`; a single participant or an
/// empty payload costs nothing, so the N=1 path is exactly the
/// single-stack path. Collectives that route around crashed or
/// partitioned stacks price exactly the links they still use.
///
/// All costs are in sim-cycles of the shared cluster clock; the
/// collectives in `pim-runtime` charge them by advancing every member
/// stack to the same post-collective instant (a cluster barrier plus the
/// modelled transfer time).
pub fn collective_cycles(total_bytes: u64, participants: &[LinkState]) -> u64 {
    let m = participants.len();
    if m <= 1 || total_bytes == 0 {
        return 0;
    }
    let per_link = total_bytes.div_ceil((m - 1) as u64);
    let senders = &participants[..m - 1];
    let latency: u64 = senders.iter().map(hop_latency_cycles).sum();
    let serialisation =
        senders.iter().map(|s| per_link.div_ceil(hop_bytes_per_cycle(s))).max().unwrap_or(0);
    latency + serialisation
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The price of a collective over `stacks` nominal links.
    fn nominal(total_bytes: u64, stacks: usize) -> u64 {
        collective_cycles(total_bytes, &vec![LinkState::NOMINAL; stacks])
    }

    /// A link `latency_milli`/1000 slower and `bandwidth_div`× narrower.
    fn link(latency_milli: u64, bandwidth_div: u64) -> LinkState {
        LinkState { latency_milli, bandwidth_div, partitioned: false }
    }

    #[test]
    fn single_stack_collectives_are_free() {
        assert_eq!(nominal(1 << 20, 1), 0);
        assert_eq!(nominal(0, 4), 0);
    }

    #[test]
    fn collective_cost_grows_with_stacks_and_bytes() {
        let small = nominal(1024, 2);
        assert_eq!(small, 120 + 1024u64.div_ceil(32));
        assert!(nominal(1 << 20, 2) > small);
        assert!(nominal(1024, 4) > small / 2);
        // Hop latency dominates tiny payloads at higher stack counts.
        assert!(nominal(1, 4) >= 3 * 120);
    }

    #[test]
    fn nominal_health_prices_exactly_like_the_original_formula() {
        for bytes in [1u64, 32, 1024, 1 << 20] {
            let hops = 3u64;
            let per_link = bytes.div_ceil(hops);
            assert_eq!(nominal(bytes, 4), 120 * hops + per_link.div_ceil(32));
        }
    }

    #[test]
    fn degraded_links_raise_the_collective_price() {
        let price = |links: &[LinkState]| collective_cycles(4096, links);
        let nominal = price(&[LinkState::NOMINAL; 4]);
        let mut links = [LinkState::NOMINAL; 4];
        links[1] = link(3000, 1);
        let spiked = price(&links);
        assert_eq!(spiked, nominal + 2 * 120, "3x latency on one hop adds two extra hops' worth");
        links[2] = link(1000, 4);
        let per_link = 4096u64.div_ceil(3);
        assert_eq!(
            price(&links),
            spiked - per_link.div_ceil(32) + per_link.div_ceil(8),
            "serialisation is set by the slowest link in the walk"
        );
    }

    #[test]
    fn collective_over_subset_only_prices_participating_links() {
        // Stack 3's link is degraded; a walk without it must match a
        // healthy 3-stack walk.
        let degraded = link(9000, 16);
        let healthy3 = nominal(4096, 3);
        let survivors = [LinkState::NOMINAL; 3];
        assert_eq!(collective_cycles(4096, &survivors), healthy3);
        // The last participant is a receiver only — its link is unused.
        let with_3_last = [LinkState::NOMINAL, LinkState::NOMINAL, degraded];
        assert_eq!(collective_cycles(4096, &with_3_last), healthy3);
        // Single participant or empty payload: free, like N=1.
        assert_eq!(collective_cycles(4096, &[degraded]), 0);
        assert_eq!(collective_cycles(0, &survivors), 0);
    }

    #[test]
    fn sub_nominal_link_factors_clamp_to_nominal() {
        let zero = link(0, 0);
        assert_eq!(hop_latency_cycles(&zero), 120);
        assert_eq!(hop_bytes_per_cycle(&zero), 32);
        assert_eq!(collective_cycles(4096, &[zero, zero]), nominal(4096, 2));
    }

    #[test]
    fn transfer_rounds_up_to_whole_cycles() {
        // One hop: the fixed link latency plus serialisation time.
        assert_eq!(nominal(0, 2), 0);
        assert_eq!(nominal(1, 2), 121);
        assert_eq!(nominal(32, 2), 121);
        assert_eq!(nominal(33, 2), 122);
    }
}
