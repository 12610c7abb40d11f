//! Cycle attribution: folds a merged event stream into an exact
//! decomposition of simulated cycles by (channel × kernel phase × command
//! class × tenant), with a conservation invariant.
//!
//! Each channel's timeline `[0, end_cycle]` is partitioned into disjoint
//! intervals by walking that channel's events in stream order with a
//! cursor. Every interval is charged to exactly one bucket, so per-channel
//! bucket totals sum to `end_cycle` *by construction* — no cycle is
//! dropped and none is counted twice ([`Attribution::check_conservation`]
//! re-verifies the invariant after the fold). The gap before each event is
//! charged to the event that terminates it:
//!
//! * a `command` instant (ACT/WR/RD/PRE, …) claims the gap under its own
//!   name — the issue latency of that command class;
//! * a `mode` instant (`SB->AB`, …) claims the gap as mode-switch time;
//! * a span `Begin` charges the gap to `(issue)` inside an open phase, or
//!   `(idle)` outside one, then pushes the phase (batch spans are the
//!   kernel phases: `enter_ab`, `crf`, `pim_on`, data batches, …);
//! * a span `End` charges the gap to `(drain)` — commands issued, waiting
//!   for the channel clock to retire them;
//! * a `fence` instant charges the drain-to-fence gap to `(fence)` under
//!   the phase that just closed;
//! * whatever remains after the last event is `(idle)` up to `end_cycle`.
//!
//! Tenants come from the request trace context stamped on the phase span
//! (inherited by everything inside it); intervals outside any traced span
//! have no tenant. Global-scope events (op/kernel spans, request
//! lifecycle instants) shape no channel time and are ignored here.

use crate::event::{Cycle, Event, EventKind};
use crate::names;
use std::collections::BTreeMap;

/// One attribution bucket's identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    /// The channel whose cycles this bucket holds.
    pub channel: u16,
    /// Kernel phase (batch-span name), or `(idle)` outside any phase.
    pub phase: String,
    /// Command class (`ACT`, `RD`, …) or synthetic class (`(issue)`,
    /// `(drain)`, `(fence)`, `(idle)`, `(other)`).
    pub class: String,
    /// Owning tenant, when the interval lies inside a traced span.
    pub tenant: Option<u32>,
}

/// Synthetic class/phase label for un-attributed (idle) time.
pub const IDLE: &str = "(idle)";
/// Synthetic class for time spent issuing inside a phase before its first
/// command retires.
pub const ISSUE: &str = "(issue)";
/// Synthetic class for end-of-phase drain time.
pub const DRAIN: &str = "(drain)";
/// Synthetic class for fence-stall time after a phase closes.
pub const FENCE: &str = "(fence)";
/// Synthetic class for gaps terminated by uncategorised instants.
pub const OTHER: &str = "(other)";

/// An exact decomposition of per-channel simulated cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    end_cycle: Cycle,
    channels: u16,
    buckets: BTreeMap<BucketKey, u64>,
}

impl Attribution {
    /// Folds `events` (a merged, stream-ordered recording of one run over
    /// `channels` channels that ended with all channel clocks aligned at
    /// `end_cycle` — i.e. after a barrier) into an attribution.
    ///
    /// Fails if any channel's events are non-monotone, run past
    /// `end_cycle`, or leave a span open.
    pub fn from_events(
        events: &[Event],
        channels: u16,
        end_cycle: Cycle,
    ) -> Result<Attribution, String> {
        let mut buckets: BTreeMap<BucketKey, u64> = BTreeMap::new();
        for channel in 0..channels {
            fold_channel(events, channel, end_cycle, &mut buckets)?;
        }
        Ok(Attribution { end_cycle, channels, buckets })
    }

    /// The barrier-aligned end cycle every channel's buckets sum to.
    pub fn end_cycle(&self) -> Cycle {
        self.end_cycle
    }

    /// Number of channels attributed.
    pub fn channels(&self) -> u16 {
        self.channels
    }

    /// Iterates buckets in deterministic key order.
    pub fn buckets(&self) -> impl Iterator<Item = (&BucketKey, u64)> {
        self.buckets.iter().map(|(k, &v)| (k, v))
    }

    /// Total cycles attributed to one channel.
    pub fn channel_total(&self, channel: u16) -> u64 {
        self.buckets.iter().filter(|(k, _)| k.channel == channel).map(|(_, &v)| v).sum()
    }

    /// Total cycles across all buckets (= `channels × end_cycle`). Wider
    /// than a cycle count: sixteen channels at an end cycle near
    /// `u64::MAX` do not fit one.
    pub fn total(&self) -> u128 {
        self.buckets.values().map(|&v| u128::from(v)).sum()
    }

    /// Re-verifies the conservation invariant: every channel's buckets sum
    /// exactly to `end_cycle`, and the grand total to
    /// `channels × end_cycle`.
    pub fn check_conservation(&self) -> Result<(), String> {
        for channel in 0..self.channels {
            let total = self.channel_total(channel);
            if total != self.end_cycle {
                return Err(format!(
                    "channel {channel}: buckets sum to {total}, end cycle is {}",
                    self.end_cycle
                ));
            }
        }
        let grand = self.total();
        let expect = u128::from(self.channels) * u128::from(self.end_cycle);
        if grand != expect {
            return Err(format!("grand total {grand} != channels × end_cycle {expect}"));
        }
        Ok(())
    }

    /// Aggregates across channels into (phase, class, tenant) → cycles,
    /// in deterministic order.
    pub fn by_phase_class(&self) -> BTreeMap<(String, String, Option<u32>), u128> {
        let mut out: BTreeMap<(String, String, Option<u32>), u128> = BTreeMap::new();
        for (k, &v) in &self.buckets {
            *out.entry((k.phase.clone(), k.class.clone(), k.tenant)).or_insert(0) += u128::from(v);
        }
        out
    }

    /// Renders the decomposition as folded stacks
    /// (`channel N;tenant T;phase;class cycles` per line), the input
    /// format flamegraph tools consume. Deterministic: lines follow
    /// bucket key order, zero-cycle buckets are omitted.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.buckets {
            if *v == 0 {
                continue;
            }
            out.push_str(&format!("channel {}", k.channel));
            if let Some(t) = k.tenant {
                out.push_str(&format!(";tenant {t}"));
            }
            out.push_str(&format!(";{};{} {v}\n", k.phase, k.class));
        }
        out
    }
}

fn fold_channel(
    events: &[Event],
    channel: u16,
    end_cycle: Cycle,
    buckets: &mut BTreeMap<BucketKey, u64>,
) -> Result<(), String> {
    let mut cursor: Cycle = 0;
    // Open phase spans on this channel: (name, tenant).
    let mut stack: Vec<(String, Option<u32>)> = Vec::new();
    // The phase that most recently closed — fences bill against it.
    let mut last_phase: Option<(String, Option<u32>)> = None;
    let mut account = |cursor: &mut Cycle,
                       upto: Cycle,
                       phase: &str,
                       class: &str,
                       tenant: Option<u32>| {
        if upto > *cursor {
            let key =
                BucketKey { channel, phase: phase.to_string(), class: class.to_string(), tenant };
            *buckets.entry(key).or_insert(0) += upto - *cursor;
            *cursor = upto;
        }
    };
    for e in events.iter().filter(|e| e.scope.channel == Some(channel)) {
        if e.ts < cursor {
            return Err(format!(
                "channel {channel}: event `{}` at cycle {} behind cursor {cursor}",
                e.name, e.ts
            ));
        }
        if e.ts > end_cycle {
            return Err(format!(
                "channel {channel}: event `{}` at cycle {} past end cycle {end_cycle}",
                e.name, e.ts
            ));
        }
        let (phase, tenant) = match stack.last() {
            Some((p, t)) => (p.as_str(), *t),
            None => (IDLE, None),
        };
        match e.kind {
            EventKind::Begin => {
                let class = if stack.is_empty() { IDLE } else { ISSUE };
                account(&mut cursor, e.ts, phase, class, tenant);
                let t = e.trace.map(|c| c.tenant).or(tenant);
                stack.push((e.name.to_string(), t));
            }
            EventKind::End => {
                account(&mut cursor, e.ts, phase, DRAIN, tenant);
                match stack.pop() {
                    Some(top) => last_phase = Some(top),
                    None => {
                        return Err(format!(
                            "channel {channel}: End `{}` at cycle {} with no open span",
                            e.name, e.ts
                        ));
                    }
                }
            }
            EventKind::Instant => {
                if e.cat == names::CAT_COMMAND || e.cat == names::CAT_MODE {
                    let t = tenant.or(e.trace.map(|c| c.tenant));
                    account(&mut cursor, e.ts, phase, &e.name, t);
                } else if e.cat == names::CAT_BATCH {
                    // Fence instants follow the span they drain.
                    let (p, t) = match (&last_phase, stack.last()) {
                        (_, Some((p, t))) => (p.as_str(), *t),
                        (Some((p, t)), None) => (p.as_str(), *t),
                        (None, None) => (IDLE, None),
                    };
                    account(&mut cursor, e.ts, p, FENCE, t);
                } else {
                    account(&mut cursor, e.ts, phase, OTHER, tenant);
                }
            }
        }
    }
    if let Some((name, _)) = stack.last() {
        return Err(format!("channel {channel}: span `{name}` still open at end of stream"));
    }
    account(&mut cursor, end_cycle, IDLE, IDLE, None);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Scope;
    use crate::trace::TraceCtx;

    fn key(channel: u16, phase: &str, class: &str, tenant: Option<u32>) -> BucketKey {
        BucketKey { channel, phase: phase.to_string(), class: class.to_string(), tenant }
    }

    #[test]
    fn partitions_a_channel_timeline_exactly() {
        let ch = Scope::channel(0);
        let bank = Scope::bank(0, 2);
        let ctx = TraceCtx::root(1, 0, 4);
        let events = vec![
            Event::begin(10, "pim_on", names::CAT_BATCH, ch).with_trace(ctx),
            Event::instant(14, "ACT", names::CAT_COMMAND, bank),
            Event::instant(18, "RD", names::CAT_COMMAND, bank),
            Event::end(25, "pim_on", names::CAT_BATCH, ch),
            Event::instant(30, "fence", names::CAT_BATCH, ch).with_arg("stall_cycles", 5),
        ];
        let a = Attribution::from_events(&events, 2, 40).expect("fold");
        a.check_conservation().expect("conservation");
        let buckets: BTreeMap<BucketKey, u64> = a.buckets().map(|(k, v)| (k.clone(), v)).collect();
        assert_eq!(buckets[&key(0, IDLE, IDLE, None)], 10 + 10); // lead-in + tail
        assert_eq!(buckets[&key(0, "pim_on", "ACT", Some(4))], 4);
        assert_eq!(buckets[&key(0, "pim_on", "RD", Some(4))], 4);
        assert_eq!(buckets[&key(0, "pim_on", DRAIN, Some(4))], 7);
        assert_eq!(buckets[&key(0, "pim_on", FENCE, Some(4))], 5);
        // Channel 1 never appears in the stream: wholly idle.
        assert_eq!(buckets[&key(1, IDLE, IDLE, None)], 40);
        assert_eq!(a.total(), 80);
    }

    /// Sixteen channels ending at `u64::MAX`: the grand total and
    /// `channels × end_cycle` both exceed a `u64`, which used to wrap both
    /// sides of the check in release (vacuously "exact") and abort the
    /// sum in debug.
    #[test]
    fn conservation_holds_at_the_end_of_time() {
        let events = vec![Event::instant(7, "ACT", names::CAT_COMMAND, Scope::channel(3))];
        let a = Attribution::from_events(&events, 16, u64::MAX).expect("fold");
        a.check_conservation().expect("conservation");
        assert_eq!(a.total(), 16 * u128::from(u64::MAX));
        let idle = &a.by_phase_class()[&(IDLE.to_string(), IDLE.to_string(), None)];
        assert_eq!(*idle, a.total() - 7, "cross-channel sums are wide too");
    }

    #[test]
    fn conservation_violations_are_reported() {
        let ch = Scope::channel(0);
        let past_end = vec![Event::instant(50, "RD", names::CAT_COMMAND, ch)];
        assert!(Attribution::from_events(&past_end, 1, 40).is_err());
        let open_span = vec![Event::begin(0, "b", names::CAT_BATCH, ch)];
        assert!(Attribution::from_events(&open_span, 1, 40).is_err());
        let backwards = vec![
            Event::instant(9, "RD", names::CAT_COMMAND, ch),
            Event::instant(3, "RD", names::CAT_COMMAND, ch),
        ];
        assert!(Attribution::from_events(&backwards, 1, 40).is_err());
    }

    #[test]
    fn folded_output_is_deterministic_and_nonzero_only() {
        let ch = Scope::channel(0);
        let events = vec![
            Event::begin(0, "crf", names::CAT_BATCH, ch),
            Event::instant(6, "WR", names::CAT_COMMAND, ch),
            Event::end(6, "crf", names::CAT_BATCH, ch),
        ];
        let a = Attribution::from_events(&events, 1, 8).expect("fold");
        let folded = a.folded();
        assert_eq!(folded, "channel 0;(idle);(idle) 2\nchannel 0;crf;WR 6\n");
        assert_eq!(a.folded(), folded);
    }
}
