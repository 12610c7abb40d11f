//! Old entry points the frozen `benchmark/` ladder still calls, kept
//! compiling over the one path that survives. Nothing else may name them
//! (`tests/linting.rs::frozen_facades_have_no_other_caller`); the next
//! `benchmark` change (ROADMAP item 1) deletes them.

use crate::system::PimSystem;

/// The execution backend selector the ladder's `Threads(2)` rungs name.
/// Every launch steps the channels one after another in index order, so
/// both variants run the same sequential loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// Channels in index order.
    #[default]
    Sequential,
    /// Accepted and run as [`ExecutionBackend::Sequential`].
    Threads(usize),
}

impl PimSystem {
    /// Ignores `backend`: there is one way to step the channels. Deleted by
    /// ROADMAP item 1.
    #[doc(hidden)]
    pub fn set_backend(&mut self, _backend: ExecutionBackend) {}
}
