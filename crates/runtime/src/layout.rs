//! PIM-friendly data layout (Section V-A preprocessor, Fig. 15).
//!
//! "The PIM preprocessor [...] maps associated operand data to memory
//! space in a PIM-friendly way." For lock-step all-bank execution every
//! unit must find its operand at the *same* (row, column) of its own bank,
//! so a vector is distributed round-robin across (channel, unit) at
//! 16-element (32-byte block) granularity. [`BlockMap`] is the single
//! source of that placement arithmetic, shared by the kernel builders and
//! the loaders; [`Placement`] re-targets it onto an explicit channel list
//! (the survivors of a quarantine, a tenant's channel groups).

use pim_core::LaneVec;
use pim_dram::BankAddr;
use pim_fp16::F16;
use pim_host::PimSystem;

/// Elements per 32-byte block (16 FP16 lanes).
pub const BLOCK_ELEMS: usize = 16;

/// Round-robin placement of 16-element blocks across (channel, unit).
///
/// Block `b` lands on channel `b % channels`, unit `(b / channels) %
/// units`, at slot `b / (channels × units)`. Slots are then mapped to
/// (row, column) by each kernel's own row structure (e.g. ADD interleaves
/// x/y/z columns within a row, Fig. 15(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMap {
    /// Channels used.
    pub channels: usize,
    /// Units used per channel.
    pub units: usize,
}

impl BlockMap {
    /// A map over the whole system.
    pub fn full(sys: &PimSystem) -> BlockMap {
        BlockMap { channels: sys.channel_count(), units: sys.pim_config().units_per_pch }
    }

    /// Number of 16-element blocks needed for `len` elements.
    pub fn blocks_for(len: usize) -> usize {
        len.div_ceil(BLOCK_ELEMS)
    }

    /// Placement of block `b`: `(channel, unit, slot)`.
    pub fn locate(&self, b: usize) -> (usize, usize, usize) {
        let ch = b % self.channels;
        let unit = (b / self.channels) % self.units;
        let slot = b / (self.channels * self.units);
        (ch, unit, slot)
    }

    /// Number of slots needed in every unit to hold `nblocks` blocks.
    pub fn slots_for(&self, nblocks: usize) -> usize {
        nblocks.div_ceil(self.channels * self.units)
    }

    /// Lanes of compute available per lock-step column command across the
    /// mapped units.
    pub fn lanes_per_command(&self) -> usize {
        self.channels * self.units * BLOCK_ELEMS
    }
}

/// A [`BlockMap`] over an explicit channel list: block `b` lands on
/// `channels[b % h]` with the unit and slot [`BlockMap::locate`] gives for
/// `h = channels.len()` channels. Over `0..channel_count` it *is*
/// [`BlockMap::full`]; over a subset it is the lock-step re-layout the
/// resilience ladder and the serving layer use after losing channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement<'a> {
    map: BlockMap,
    channels: &'a [usize],
}

impl<'a> Placement<'a> {
    /// Placement over `channels` (physical channel indices, in layout
    /// order) with `units` units per channel. `channels` must be
    /// non-empty before anything is located.
    pub fn over(channels: &'a [usize], units: usize) -> Placement<'a> {
        Placement { map: BlockMap { channels: channels.len(), units }, channels }
    }

    /// The channels laid out over, in layout order.
    pub fn channels(&self) -> &'a [usize] {
        self.channels
    }

    /// Placement of block `b`: `(physical channel, unit, slot)`.
    pub fn locate(&self, b: usize) -> (usize, usize, usize) {
        let (i, unit, slot) = self.map.locate(b);
        (self.channels[i], unit, slot)
    }
}

/// Converts `len` f32 elements into 16-lane blocks, zero-padding the tail
/// ("we can concatenate dummy values to the end of the vectors",
/// Section VIII).
pub fn f32_to_blocks(data: &[f32]) -> Vec<LaneVec> {
    data.chunks(BLOCK_ELEMS)
        .map(|chunk| {
            let mut lanes = [F16::ZERO; BLOCK_ELEMS];
            for (l, &v) in lanes.iter_mut().zip(chunk.iter()) {
                *l = F16::from_f32(v);
            }
            LaneVec::from_lanes(lanes)
        })
        .collect()
}

/// DMA-loads one block into the **even** bank of (`ch`, `unit`) at
/// (`row`, `col`).
///
/// The paper's weights/operands arrive in PIM memory through normal host
/// writes before the kernel is timed (the "PIM BLAS APIs automatically
/// rearrange data layout when the host processor brings weight matrix
/// values to memory"); the backdoor poke models that pre-kernel placement
/// without charging it to kernel time.
pub fn store_block(sys: &mut PimSystem, ch: usize, unit: usize, row: u32, col: u32, v: &LaneVec) {
    let bank = BankAddr::from_flat_index(2 * unit);
    sys.channel_mut(ch).sink_mut().dram_mut().bank_mut(bank).poke_block(row, col, &v.to_block());
}

/// DMA-loads one block into the **odd** bank (used by the 2BA variant's
/// second-operand placement).
pub fn store_block_odd(
    sys: &mut PimSystem,
    ch: usize,
    unit: usize,
    row: u32,
    col: u32,
    v: &LaneVec,
) {
    let bank = BankAddr::from_flat_index(2 * unit + 1);
    sys.channel_mut(ch).sink_mut().dram_mut().bank_mut(bank).poke_block(row, col, &v.to_block());
}

/// Reads one block back from the even bank of (`ch`, `unit`).
pub fn load_block(sys: &PimSystem, ch: usize, unit: usize, row: u32, col: u32) -> LaneVec {
    let bank = BankAddr::from_flat_index(2 * unit);
    LaneVec::from_block(&sys.channel(ch).sink().dram().bank(bank).peek_block(row, col))
}

/// Reads one block back from the **odd** bank of (`ch`, `unit`) — the 2BA
/// variant's second-operand home.
pub fn load_block_odd(sys: &PimSystem, ch: usize, unit: usize, row: u32, col: u32) -> LaneVec {
    let bank = BankAddr::from_flat_index(2 * unit + 1);
    LaneVec::from_block(&sys.channel(ch).sink().dram().bank(bank).peek_block(row, col))
}

/// Balanced contiguous sharding of `len` items over `shards` workers:
/// shard `i` owns the half-open range `(lo, hi)`. The remainder is spread
/// one item each over the first `len % shards` shards, so shard sizes
/// differ by at most one and the partition is a pure function of
/// `(len, shards, i)` — the cluster layer relies on that determinism to
/// keep sharded results bit-identical across backends and worker counts.
pub fn shard_range(len: usize, shards: usize, i: usize) -> (usize, usize) {
    assert!(shards > 0, "shard_range over zero shards");
    assert!(i < shards, "shard index {i} out of {shards}");
    let base = len / shards;
    let extra = len % shards;
    let lo = i * base + i.min(extra);
    let hi = lo + base + usize::from(i < extra);
    (lo, hi.min(len))
}

/// Gathers a distributed vector of `len` elements back to f32, given the
/// map and a function that yields each block's (row, col).
pub fn gather_vector(
    sys: &PimSystem,
    map: &BlockMap,
    len: usize,
    mut pos: impl FnMut(usize) -> (u32, u32),
) -> Vec<f32> {
    let mut out = Vec::with_capacity(len);
    let nblocks = BlockMap::blocks_for(len);
    for b in 0..nblocks {
        let (ch, unit, _) = map.locate(b);
        let (row, col) = pos(b);
        let v = load_block(sys, ch, unit, row, col);
        for lane in 0..BLOCK_ELEMS {
            if out.len() < len {
                out.push(v[lane].to_f32());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::PimConfig;
    use pim_host::HostConfig;

    #[test]
    fn block_math() {
        assert_eq!(BlockMap::blocks_for(16), 1);
        assert_eq!(BlockMap::blocks_for(17), 2);
        let m = BlockMap { channels: 4, units: 2 };
        assert_eq!(m.locate(0), (0, 0, 0));
        assert_eq!(m.locate(3), (3, 0, 0));
        assert_eq!(m.locate(4), (0, 1, 0));
        assert_eq!(m.locate(8), (0, 0, 1));
        assert_eq!(m.slots_for(9), 2);
        assert_eq!(m.lanes_per_command(), 128);
    }

    #[test]
    fn placement_indirects_through_the_channel_list() {
        let survivors = [1usize, 4, 6];
        let p = Placement::over(&survivors, 2);
        assert_eq!(p.locate(0), (1, 0, 0));
        assert_eq!(p.locate(2), (6, 0, 0));
        assert_eq!(p.locate(3), (1, 1, 0));
        assert_eq!(p.locate(6), (1, 0, 1));
    }

    #[test]
    fn f32_blocks_pad_with_zeros() {
        let blocks = f32_to_blocks(&[1.0, 2.0, 3.0]);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0][2].to_f32(), 3.0);
        assert_eq!(blocks[0][3].to_f32(), 0.0);
    }

    #[test]
    fn store_load_roundtrip() {
        let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        let v = LaneVec::from_f32([9.0; 16]);
        store_block(&mut sys, 3, 5, 100, 7, &v);
        assert_eq!(load_block(&sys, 3, 5, 100, 7), v);
    }

    #[test]
    fn shard_range_partitions_exactly() {
        for len in [0usize, 1, 7, 16, 100, 1023] {
            for shards in [1usize, 2, 3, 4, 7] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for i in 0..shards {
                    let (lo, hi) = shard_range(len, shards, i);
                    assert_eq!(lo, prev_hi, "shards must tile contiguously");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, len, "len={len} shards={shards}");
                assert_eq!(prev_hi, len);
            }
        }
        // Sizes differ by at most one.
        for i in 0..4 {
            let (lo, hi) = shard_range(10, 4, i);
            assert!(hi - lo == 2 || hi - lo == 3);
        }
    }

    #[test]
    fn gather_reassembles_in_order() {
        let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        let map = BlockMap { channels: 2, units: 2 };
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let blocks = f32_to_blocks(&data);
        for (b, blk) in blocks.iter().enumerate() {
            let (ch, unit, slot) = map.locate(b);
            store_block(&mut sys, ch, unit, slot as u32, 0, blk);
        }
        let back = gather_vector(&sys, &map, 64, |b| {
            let (_, _, slot) = map.locate(b);
            (slot as u32, 0)
        });
        assert_eq!(back, data);
    }
}
