//! Cache bypassing for PIM memory regions (Section VIII).
//!
//! "PIM requires data to be located in memory. Thus, we need to make
//! memory regions that PIM operates on uncacheable [...] we use cache
//! bypass instructions (e.g., LDNP/STNP in ARMv8) [...] making such memory
//! regions uncacheable in fact reduces interference and contention at
//! caches and thus improves the performance."
//!
//! [`BypassPolicy`] classifies accesses by address range; the resilient
//! host-fallback path (`pim_runtime::resilience`) uses it to issue a
//! quarantined channel's operands around the cache.

/// Why a requested PIM region cannot back a [`BypassPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The region has zero length.
    Empty,
    /// `base + len` overflows the 64-bit address space.
    Overflow {
        /// Start of the rejected region.
        base: u64,
        /// Requested length.
        len: u64,
    },
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Empty => write!(f, "empty PIM region"),
            RegionError::Overflow { base, len } => {
                write!(f, "PIM region {base:#x}+{len:#x} overflows the address space")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Classifies addresses into cacheable host traffic and uncacheable PIM
/// traffic, by address range (the driver's reserved region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BypassPolicy {
    /// Start of the uncacheable PIM region.
    pub pim_base: u64,
    /// Exclusive end of the region.
    pub pim_end: u64,
}

impl BypassPolicy {
    /// A policy over the region `[base, base + len)`.
    ///
    /// # Errors
    ///
    /// Rejects an empty region ([`RegionError::Empty`]) before anything
    /// else — a zero-length request is a caller bug regardless of `base` —
    /// and then a region whose end would overflow the address space
    /// ([`RegionError::Overflow`]). This constructor sits on the runtime
    /// recovery path (host-fallback execution for quarantined channels),
    /// so it reports failure instead of panicking.
    pub fn new(base: u64, len: u64) -> Result<BypassPolicy, RegionError> {
        if len == 0 {
            return Err(RegionError::Empty);
        }
        let end = base.checked_add(len).ok_or(RegionError::Overflow { base, len })?;
        Ok(BypassPolicy { pim_base: base, pim_end: end })
    }

    /// `true` if an access to `addr` must bypass the cache hierarchy and
    /// issue a DRAM command directly (LDNP/STNP-style).
    pub fn bypasses(&self, addr: u64) -> bool {
        (self.pim_base..self.pim_end).contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_classifies_by_range() {
        let p = BypassPolicy::new(0x1000, 0x1000).unwrap();
        assert!(!p.bypasses(0xFFF));
        assert!(p.bypasses(0x1000));
        assert!(p.bypasses(0x1FFF));
        assert!(!p.bypasses(0x2000));
    }

    #[test]
    fn empty_and_overflowing_regions_rejected() {
        assert_eq!(BypassPolicy::new(0, 0), Err(RegionError::Empty));
        // Empty wins even when the base is pathological: a zero-length
        // request is a caller bug regardless of where it points.
        assert_eq!(BypassPolicy::new(u64::MAX, 0), Err(RegionError::Empty));
        assert_eq!(
            BypassPolicy::new(u64::MAX, 2),
            Err(RegionError::Overflow { base: u64::MAX, len: 2 })
        );
        // A region ending exactly at the top of the address space is fine.
        assert!(BypassPolicy::new(u64::MAX - 4, 4).is_ok());
    }
}
