//! The [`Recorder`]: the cloneable handle simulation crates carry.

use crate::event::{Cycle, Event, Scope};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::Sink;
use crate::trace::TraceCtx;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct Inner {
    sink: Sink,
    metrics: MetricsRegistry,
    /// Ambient trace context stamped onto every emitted event that does
    /// not already carry one (see [`Recorder::set_trace`]).
    trace: Option<TraceCtx>,
}

/// A shared handle to one event sink plus one metrics registry.
///
/// Cloning is cheap (`Arc`); every instrumented layer of one simulation run
/// holds a clone of the same recorder, so events from the controller, the
/// device, the engine, and the runtime interleave into a single stream and
/// a single registry.
///
/// Instrumented code stores an `Option<Recorder>` that defaults to `None`;
/// with no recorder attached the hooks cost one pointer test.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

impl Recorder {
    /// A recorder over `sink` with an empty registry.
    fn new(sink: Sink) -> Recorder {
        Recorder {
            inner: Arc::new(Mutex::new(Inner {
                sink,
                metrics: MetricsRegistry::new(),
                trace: None,
            })),
        }
    }

    /// Locks the shared state. A poisoned lock means an instrumented thread
    /// panicked mid-event; the telemetry is still structurally sound (every
    /// record call is atomic under the lock), so recover the guard rather
    /// than cascading the panic into unrelated threads.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Recorder keeping every event in memory.
    pub fn vec() -> Recorder {
        Recorder::new(Sink::Vec(Vec::new()))
    }

    /// Recorder that only counts events (used by the observer-effect test).
    pub fn counting() -> Recorder {
        Recorder::new(Sink::Counting(0))
    }

    /// Emits a span-begin event.
    pub fn begin(
        &self,
        ts: Cycle,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        scope: Scope,
    ) {
        self.emit(Event::begin(ts, name, cat, scope));
    }

    /// Emits a span-end event.
    pub fn end(
        &self,
        ts: Cycle,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        scope: Scope,
    ) {
        self.emit(Event::end(ts, name, cat, scope));
    }

    /// Emits an instant event.
    pub fn instant(
        &self,
        ts: Cycle,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        scope: Scope,
    ) {
        self.emit(Event::instant(ts, name, cat, scope));
    }

    /// Emits a pre-built event. If an ambient trace context is set
    /// ([`Recorder::set_trace`]) and the event carries none of its own,
    /// the ambient context is stamped onto it.
    pub fn emit(&self, event: Event) {
        let mut inner = self.lock();
        let event = match (event.trace, inner.trace) {
            (None, Some(ctx)) => event.with_trace(ctx),
            _ => event,
        };
        inner.sink.record(&event);
    }

    /// Sets (or clears, with `None`) the ambient trace context. The
    /// serving layer sets this around each request's execution so that
    /// every event the engine, controller, and device emit on the
    /// request's behalf is joined to it.
    pub fn set_trace(&self, trace: Option<TraceCtx>) {
        self.lock().trace = trace;
    }

    /// Adds to a named counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.lock().metrics.add(name, delta);
    }

    /// Sets a named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().metrics.set_gauge(name, value);
    }

    /// Records a sample into a named histogram (created with `bounds` on
    /// first use).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        self.lock().metrics.observe(name, bounds, value);
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.lock().metrics.snapshot()
    }

    /// The retained events, if the sink retains any.
    pub fn events(&self) -> Option<Vec<Event>> {
        self.lock().sink.events()
    }

    /// Events offered to the sink so far.
    pub fn events_offered(&self) -> u64 {
        self.lock().sink.offered()
    }

    /// Runs `f` with mutable access to the metrics registry (bulk import).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.lock().metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let r = Recorder::vec();
        let r2 = r.clone();
        r.instant(1, "a", "command", Scope::GLOBAL);
        r2.instant(2, "b", "command", Scope::GLOBAL);
        r.add("x", 1);
        r2.add("x", 2);
        assert_eq!(r.events().unwrap().len(), 2);
        assert_eq!(r2.metrics().registry.counter("x"), 3);
    }

    #[test]
    fn counting_recorder_reports_offered() {
        let r = Recorder::counting();
        r.instant(1, "a", "command", Scope::GLOBAL);
        r.instant(2, "b", "command", Scope::GLOBAL);
        assert_eq!(r.events_offered(), 2);
        assert!(r.events().is_none());
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    }

    #[test]
    fn ambient_trace_stamps_events_without_overriding_explicit_ones() {
        use crate::trace::TraceCtx;
        let r = Recorder::vec();
        let ambient = TraceCtx::root(1, 0, 7);
        let explicit = TraceCtx::root(2, 0, 9);
        r.instant(0, "before", "command", Scope::GLOBAL);
        r.set_trace(Some(ambient));
        r.instant(1, "stamped", "command", Scope::GLOBAL);
        r.emit(Event::instant(2, "kept", "command", Scope::GLOBAL).with_trace(explicit));
        r.set_trace(None);
        r.instant(3, "after", "command", Scope::GLOBAL);
        let events = r.events().unwrap();
        assert_eq!(events[0].trace, None);
        assert_eq!(events[1].trace, Some(ambient));
        assert_eq!(events[2].trace, Some(explicit));
        assert_eq!(events[3].trace, None);
    }
}
