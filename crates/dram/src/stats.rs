//! Statistics counters for channels and the memory controller.

use crate::timing::Cycle;

/// Implements `merge` (field-wise add) and `since` (field-wise subtract)
/// for a struct of `u64` counters from the one list of its fields. Both
/// destructure the struct exhaustively, so adding a counter without
/// listing it here is a compile error — it can never be silently dropped
/// from a merged total or a launch delta.
#[macro_export]
macro_rules! counter_table {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $ty {
            /// Adds another counter set into this one.
            pub fn merge(&mut self, other: &$ty) {
                let $ty { $($field),+ } = other;
                $(self.$field += *$field;)+
            }

            /// The counters accumulated since `start` was snapshotted.
            pub fn since(&self, start: &$ty) -> $ty {
                let $ty { $($field),+ } = start;
                $ty { $($field: self.$field - *$field),+ }
            }
        }
    };
}

/// Per-pseudo-channel command counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// ACT commands issued.
    pub acts: u64,
    /// Column read commands issued.
    pub reads: u64,
    /// Column write commands issued.
    pub writes: u64,
    /// PRE / PREA commands issued.
    pub pres: u64,
    /// REF commands issued.
    pub refreshes: u64,
}

counter_table!(ChannelStats { acts, reads, writes, pres, refreshes });

/// Memory-controller level statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Requests that hit an already-open row.
    pub row_hits: u64,
    /// Requests that opened a closed row.
    pub row_misses: u64,
    /// Requests that had to close a different open row first.
    pub row_conflicts: u64,
    /// Requests the scheduler issued out of arrival order (FR-FCFS
    /// reordering — the behaviour AAM must tolerate, Section IV-C).
    pub reordered: u64,
    /// Completed requests.
    pub completed: u64,
    /// Cycle at which the last request completed.
    pub last_completion: Cycle,
}

impl ControllerStats {
    /// Total requests classified by row outcome: hits + misses + conflicts.
    ///
    /// The controller classifies every completed request exactly once, so
    /// this equals [`ControllerStats::completed`]; the controller debug-
    /// asserts that invariant at each stats update.
    pub fn total_requests(&self) -> u64 {
        self.row_hits + self.row_misses + self.row_conflicts
    }

    /// Row-buffer hit rate over all completed requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = ChannelStats { acts: 1, reads: 2, ..Default::default() };
        let b = ChannelStats { acts: 10, writes: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.acts, 11);
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 5);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(ControllerStats::default().row_hit_rate(), 0.0);
        let s = ControllerStats { row_hits: 3, row_misses: 1, ..Default::default() };
        assert_eq!(s.row_hit_rate(), 0.75);
    }
}
