//! Command tracing: a decorator that records every command a sink accepts.
//!
//! DRAMSim2-style command traces are the debugging backbone of memory
//! system work; [`TracingSink`] wraps any [`CommandSink`] (a plain channel
//! or a PIM device) without perturbing timing, records up to a bounded
//! number of entries, and renders a human-readable log. The PIM executor's
//! whole choreography — mode transitions, CRF programming, triggers — can
//! be inspected as the standard-command stream it really is.

use crate::channel::{CommandSink, IssueError, IssueOutcome};
use crate::command::{BankAddr, Command};
use crate::timing::{Cycle, TimingParams};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One recorded command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issue cycle.
    pub cycle: Cycle,
    /// The command (write payloads preserved).
    pub command: Command,
    /// Whether the sink accepted it.
    pub accepted: bool,
}

/// A [`CommandSink`] decorator that records issued commands.
///
/// # Example
///
/// ```
/// use pim_dram::{TracingSink, PseudoChannel, CommandSink, Command, BankAddr, TimingParams};
///
/// let mut ch = TracingSink::new(PseudoChannel::new(TimingParams::hbm2()), 128);
/// let bank = BankAddr::new(0, 0);
/// ch.issue(&Command::Act { bank, row: 3 }, 0).unwrap();
/// assert_eq!(ch.len(), 1);
/// assert!(ch.render().contains("ACT"));
/// ```
#[derive(Debug)]
pub struct TracingSink<S: CommandSink> {
    inner: S,
    trace: VecDeque<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl<S: CommandSink> TracingSink<S> {
    /// Wraps `inner`, keeping the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(inner: S, capacity: usize) -> TracingSink<S> {
        assert!(capacity > 0, "trace capacity must be nonzero");
        TracingSink { inner, trace: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped sink.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps, discarding the trace.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The recorded entries, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter()
    }

    /// The recorded entries, oldest first (alias of [`TracingSink::trace`]
    /// with a concrete iterator type; also available via `&sink` in a
    /// `for` loop).
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, TraceEntry> {
        self.trace.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Entries evicted because the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.trace.clear();
        self.dropped = 0;
    }

    /// Renders the trace as a cycle-stamped text log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} earlier commands dropped ...", self.dropped);
        }
        for e in &self.trace {
            let _ = writeln!(
                out,
                "{:>12} {} {}",
                e.cycle,
                if e.accepted { " " } else { "!" },
                e.command
            );
        }
        // Completeness footer, always present: a truncated trace must never
        // be mistaken for the full command history.
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "=== trace truncated: {} retained, {} dropped ===",
                self.trace.len(),
                self.dropped
            );
        } else {
            let _ = writeln!(out, "=== trace complete: {} commands ===", self.trace.len());
        }
        out
    }

    fn record(&mut self, cycle: Cycle, command: &Command, accepted: bool) {
        if self.trace.len() == self.capacity {
            self.trace.pop_front();
            self.dropped += 1;
        }
        self.trace.push_back(TraceEntry { cycle, command: command.clone(), accepted });
    }
}

impl<'a, S: CommandSink> IntoIterator for &'a TracingSink<S> {
    type Item = &'a TraceEntry;
    type IntoIter = std::collections::vec_deque::Iter<'a, TraceEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<S: CommandSink> CommandSink for TracingSink<S> {
    fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle {
        self.inner.earliest_issue(cmd, now)
    }

    fn issue(&mut self, cmd: &Command, cycle: Cycle) -> Result<IssueOutcome, IssueError> {
        let r = self.inner.issue(cmd, cycle);
        self.record(cycle, cmd, r.is_ok());
        r
    }

    fn open_row(&self, bank: BankAddr) -> Option<u32> {
        self.inner.open_row(bank)
    }

    fn timing(&self) -> &TimingParams {
        self.inner.timing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PseudoChannel;

    fn traced() -> TracingSink<PseudoChannel> {
        TracingSink::new(PseudoChannel::new(TimingParams::hbm2()), 4)
    }

    #[test]
    fn records_accepted_and_rejected() {
        let mut t = traced();
        let bank = BankAddr::new(0, 0);
        t.issue(&Command::Act { bank, row: 1 }, 0).unwrap();
        // Too early: tRCD not elapsed.
        let _ = t.issue(&Command::Rd { bank, col: 0 }, 1);
        assert_eq!(t.len(), 2);
        let entries: Vec<_> = t.trace().collect();
        assert!(entries[0].accepted);
        assert!(!entries[1].accepted);
        assert!(t.render().contains("!"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = traced();
        let bank = BankAddr::new(0, 0);
        t.issue(&Command::Act { bank, row: 9 }, 0).unwrap();
        let mut now = t.earliest_issue(&Command::Rd { bank, col: 0 }, 0);
        for col in 0..5 {
            let cmd = Command::Rd { bank, col };
            let at = t.earliest_issue(&cmd, now);
            t.issue(&cmd, at).unwrap();
            now = at;
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        // The ACT was evicted; first retained entry is a RD.
        assert!(matches!(t.trace().next().unwrap().command, Command::Rd { .. }));
        let log = t.render();
        assert!(log.contains("dropped"));
        assert!(log.contains("truncated: 4 retained, 2 dropped"));
    }

    #[test]
    fn render_footer_marks_complete_traces() {
        let mut t = traced();
        t.issue(&Command::Act { bank: BankAddr::new(0, 0), row: 0 }, 0).unwrap();
        assert_eq!(t.dropped(), 0);
        let log = t.render();
        assert!(log.contains("trace complete: 1 commands"));
        assert!(!log.contains("truncated"));
    }

    #[test]
    fn iterates_by_reference() {
        let mut t = traced();
        let bank = BankAddr::new(0, 0);
        t.issue(&Command::Act { bank, row: 2 }, 0).unwrap();
        let mut seen = 0;
        for e in &t {
            assert!(e.accepted);
            seen += 1;
        }
        assert_eq!(seen, 1);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn timing_is_transparent() {
        let mut plain = PseudoChannel::new(TimingParams::hbm2());
        let mut t = traced();
        let bank = BankAddr::new(1, 1);
        let a = plain.issue(&Command::Act { bank, row: 0 }, 0).unwrap();
        let b = t.issue(&Command::Act { bank, row: 0 }, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            plain.earliest_issue(&Command::Rd { bank, col: 0 }, 0),
            t.earliest_issue(&Command::Rd { bank, col: 0 }, 0)
        );
        assert_eq!(t.open_row(bank), Some(0));
    }

    #[test]
    fn clear_resets() {
        let mut t = traced();
        t.issue(&Command::Act { bank: BankAddr::new(0, 0), row: 0 }, 0).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        TracingSink::new(PseudoChannel::new(TimingParams::hbm2()), 0);
    }
}
