//! Event sinks: where recorded events go.

use crate::event::Event;

/// The sink attached to a [`crate::Recorder`]: it keeps every event or
/// only counts them. Sinks run inline with the simulation, but only when a
/// recorder is attached, so the un-instrumented path never pays for them.
#[derive(Debug)]
pub(crate) enum Sink {
    /// Every event, in arrival order ([`crate::Recorder::vec`]).
    Vec(Vec<Event>),
    /// How many events arrived ([`crate::Recorder::counting`]) — used to
    /// measure the observer effect (it must be zero) and for smoke tests.
    Counting(u64),
}

impl Sink {
    /// Receives one event.
    pub(crate) fn record(&mut self, event: &Event) {
        match self {
            Sink::Vec(events) => events.push(event.clone()),
            Sink::Counting(count) => *count += 1,
        }
    }

    /// Events offered to the sink so far.
    pub(crate) fn offered(&self) -> u64 {
        match self {
            Sink::Vec(events) => events.len() as u64,
            Sink::Counting(count) => *count,
        }
    }

    /// The retained events, if this sink retains any.
    pub(crate) fn events(&self) -> Option<Vec<Event>> {
        match self {
            Sink::Vec(events) => Some(events.clone()),
            Sink::Counting(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Scope;

    #[test]
    fn counting_sink_counts() {
        let mut s = Sink::Counting(0);
        for i in 0..7 {
            s.record(&Event::instant(i, "x", "command", Scope::GLOBAL));
        }
        assert_eq!(s.offered(), 7);
        assert!(s.events().is_none());
    }
}
