//! The PIM device driver and memory manager (Section V-A).
//!
//! "The PIM device driver reserves memory space for PIM operations during
//! the booting process. It also sets the reserved memory space to an
//! uncacheable region [...] Receiving a request from an upper software
//! layer, the PIM device driver allocates physically contiguous memory
//! blocks."
//!
//! In this reproduction the reserved region is the row space
//! `[0, PIM_CONF_FIRST_ROW)` of every bank; the [`MemoryManager`] hands out
//! physically contiguous row regions at the same offset in every
//! (channel, PIM unit) with a bump allocator (PIM workloads are
//! kernel-scoped arenas: everything is freed together when the context
//! resets, mirroring the driver's block allocator).

use pim_core::conf::PIM_CONF_FIRST_ROW;
use std::fmt;

/// Allocation failure: the reserved PIM region of some bank is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// The channel that ran out of rows.
    pub channel: usize,
    /// The unit that ran out of rows.
    pub unit: usize,
    /// Rows requested.
    pub requested: u32,
    /// Rows remaining.
    pub available: u32,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PIM memory exhausted on channel {} unit {}: requested {} rows, {} available",
            self.channel, self.unit, self.requested, self.available
        )
    }
}

impl std::error::Error for AllocError {}

/// The device driver: owns the reserved, uncacheable PIM region.
#[derive(Debug, Clone)]
pub struct PimDriver {
    channels: usize,
    units_per_channel: usize,
    reserved_rows: u32,
}

impl PimDriver {
    /// "Boots" the driver: reserves all rows below the `PIM_CONF` area on
    /// every bank of every channel and marks the region uncacheable.
    pub fn boot(channels: usize, units_per_channel: usize) -> PimDriver {
        PimDriver { channels, units_per_channel, reserved_rows: PIM_CONF_FIRST_ROW }
    }

    /// Number of channels under management.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// PIM units per channel.
    pub fn units_per_channel(&self) -> usize {
        self.units_per_channel
    }

    /// Rows reserved per bank for PIM data.
    pub fn reserved_rows(&self) -> u32 {
        self.reserved_rows
    }

    /// Creates the memory manager over the reserved region. A driver
    /// booted over no units (zero channels or zero units a channel) manages
    /// no rows, so nothing can be placed.
    pub fn memory_manager(&self) -> MemoryManager {
        let units = self.channels * self.units_per_channel;
        MemoryManager {
            next_row: 0,
            reserved_rows: if units == 0 { 0 } else { self.reserved_rows },
        }
    }
}

/// The PIM memory manager: a bump allocator over the driver's reserved
/// rows. "The PIM memory manager governs the memory allocated by the PIM
/// device driver" (Section V-A). Every region starts at the same row in
/// every (channel, unit) — the shape every lock-step PIM kernel needs,
/// since all banks open the same row per command — so one bump pointer
/// serves them all.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    next_row: u32,
    reserved_rows: u32,
}

impl MemoryManager {
    /// Allocates `rows` physically contiguous rows at the **same row
    /// offset** in every (channel, unit); returns the first row.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the reserved region cannot hold them.
    pub fn alloc_rows_lockstep(&mut self, rows: u32) -> Result<u32, AllocError> {
        let available = self.min_available();
        if rows > available {
            return Err(AllocError { channel: 0, unit: 0, requested: rows, available });
        }
        let base = self.next_row;
        self.next_row = base + rows;
        Ok(base)
    }

    /// Rows still free in every unit.
    pub fn min_available(&self) -> u32 {
        self.reserved_rows - self.next_row
    }

    /// Frees everything (arena reset between kernels/benchmarks).
    pub fn reset(&mut self) {
        self.next_row = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_reserves_below_conf_rows() {
        let d = PimDriver::boot(64, 8);
        assert_eq!(d.reserved_rows(), PIM_CONF_FIRST_ROW);
    }

    #[test]
    fn alloc_is_contiguous_and_disjoint() {
        let mut mm = PimDriver::boot(2, 8).memory_manager();
        let a = mm.alloc_rows_lockstep(10).unwrap();
        let b = mm.alloc_rows_lockstep(5).unwrap();
        assert_eq!((a, b), (0, 10));
    }

    #[test]
    fn lockstep_alloc_aligns_offsets() {
        let mut mm = PimDriver::boot(2, 2).memory_manager();
        mm.alloc_rows_lockstep(7).unwrap();
        let base = mm.alloc_rows_lockstep(3).unwrap();
        assert_eq!(base, 7, "a region starts past everything allocated before it, in every unit");
        assert_eq!(mm.alloc_rows_lockstep(1).unwrap(), 10);
    }

    #[test]
    fn exhaustion_is_reported() {
        let d = PimDriver::boot(1, 1);
        let mut mm = d.memory_manager();
        mm.alloc_rows_lockstep(d.reserved_rows() - 1).unwrap();
        let err = mm.alloc_rows_lockstep(2).unwrap_err();
        assert_eq!(err.available, 1);
        assert!(err.to_string().contains("exhausted"));
        // A driver booted over nothing can place nothing.
        let err = PimDriver::boot(0, 8).memory_manager().alloc_rows_lockstep(1).unwrap_err();
        assert_eq!(err.available, 0);
    }

    #[test]
    fn reset_frees_everything() {
        let d = PimDriver::boot(1, 2);
        let mut mm = d.memory_manager();
        mm.alloc_rows_lockstep(100).unwrap();
        mm.reset();
        assert_eq!(mm.alloc_rows_lockstep(1).unwrap(), 0);
        assert_eq!(mm.min_available(), d.reserved_rows() - 1);
    }
}
