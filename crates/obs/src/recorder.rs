//! The [`Recorder`]: the cloneable handle simulation crates carry.

use crate::event::{Cycle, Event, Scope};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::{CountingSink, EventSink, Sink, VecSink};
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
/// a single registry. The handle is `Send + Sync` so instrumented channels
/// can migrate across the parallel backend's worker threads; within one
/// channel's simulation the lock is uncontended (the parallel backend swaps
/// in a private per-channel recorder and merges at the barrier, see
/// [`Recorder::merge_from`]).
///
/// Instrumented code stores an `Option<Recorder>` that defaults to `None`;
/// with no recorder attached the hooks cost one pointer test.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

impl Recorder {
    /// Creates a recorder over an arbitrary sink.
    pub fn new(sink: Sink) -> Recorder {
        Recorder {
            inner: Arc::new(Mutex::new(Inner {
                sink,
                metrics: MetricsRegistry::new(),
                trace: None,
            })),
        }
    }

    /// Locks the shared state. A poisoned lock means an instrumented worker
    /// panicked mid-event; the telemetry is still structurally sound (every
    /// record call is atomic under the lock), so recover the guard rather
    /// than cascading the panic into unrelated threads.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Recorder keeping every event in memory.
    pub fn vec() -> Recorder {
        Recorder::new(Sink::Vec(VecSink::new()))
    }

    /// Recorder that only counts events (used by the observer-effect test).
    pub fn counting() -> Recorder {
        Recorder::new(Sink::Counting(CountingSink::new()))
    }

    /// Recorder over a custom sink implementation.
    pub fn custom(sink: Box<dyn EventSink>) -> Recorder {
        Recorder::new(Sink::Custom(sink))
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
    /// request's behalf is joined to it — including events recorded
    /// through per-channel buffer recorders, which inherit the ambient
    /// context at detach time (see `pim-host`'s parallel backend).
    pub fn set_trace(&self, trace: Option<TraceCtx>) {
        self.lock().trace = trace;
    }

    /// The current ambient trace context, if any.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.lock().trace
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

    /// Whether `self` and `other` share the same underlying sink/registry.
    pub fn same_handle(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Folds a per-channel buffer recorder into this one: replays the
    /// buffer's retained events into this recorder's sink in their recorded
    /// order, then merges the buffer's metrics registry
    /// ([`MetricsRegistry::merge`]).
    ///
    /// This is the deterministic reduction step of `pim-host`'s parallel
    /// execution backend: each channel records into a private
    /// [`Recorder::vec`] buffer on its worker thread, and the buffers are
    /// merged in stable channel-index order at the end-of-kernel barrier.
    /// A sequential run emits events in exactly that channel-major order,
    /// so the merged stream (and every derived export — Chrome trace, CSV)
    /// is identical to the sequential one.
    ///
    /// Merging a recorder into itself is a no-op. A buffer whose sink
    /// retains no events (e.g. counting) contributes only its metrics.
    pub fn merge_from(&self, buffer: &Recorder) {
        if self.same_handle(buffer) {
            return;
        }
        let (events, metrics) = {
            let b = buffer.lock();
            (b.sink.events(), b.metrics.clone())
        };
        let mut inner = self.lock();
        if let Some(events) = events {
            for e in &events {
                inner.sink.record(e);
            }
        }
        inner.metrics.merge(&metrics);
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
    fn merge_from_replays_events_and_merges_metrics() {
        let main = Recorder::vec();
        main.instant(1, "before", "command", Scope::GLOBAL);
        main.add("x", 1);
        let buf = Recorder::vec();
        buf.instant(2, "ch0", "command", Scope::channel(0));
        buf.instant(3, "ch0b", "command", Scope::channel(0));
        buf.add("x", 2);
        buf.observe("h", &[4, 8], 5);
        main.merge_from(&buf);
        let events = main.events().unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["before", "ch0", "ch0b"]);
        assert_eq!(main.metrics().registry.counter("x"), 3);
        assert_eq!(main.metrics().registry.histogram("h").unwrap().count(), 1);
        // Self-merge is a no-op, not a deadlock or duplication.
        main.merge_from(&main.clone());
        assert_eq!(main.events().unwrap().len(), 3);
    }

    #[test]
    fn ambient_trace_stamps_events_without_overriding_explicit_ones() {
        use crate::trace::TraceCtx;
        let r = Recorder::vec();
        let ambient = TraceCtx::root(1, 0, 7);
        let explicit = TraceCtx::root(2, 0, 9);
        r.instant(0, "before", "command", Scope::GLOBAL);
        r.set_trace(Some(ambient));
        assert_eq!(r.trace(), Some(ambient));
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

    #[test]
    fn merge_from_preserves_buffer_trace_stamps_verbatim() {
        use crate::trace::TraceCtx;
        let main = Recorder::vec();
        // Ambient trace on the *main* recorder must not restamp merged
        // events: the buffer already resolved its own ambient context.
        main.set_trace(Some(TraceCtx::root(9, 9, 9)));
        let buf = Recorder::vec();
        let ctx = TraceCtx::root(1, 4, 2);
        buf.set_trace(Some(ctx));
        buf.instant(5, "traced", "command", Scope::channel(3));
        main.merge_from(&buf);
        let events = main.events().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace, Some(ctx));
    }

    #[test]
    fn merge_from_counting_buffer_contributes_metrics_only() {
        let main = Recorder::vec();
        let buf = Recorder::counting();
        buf.instant(1, "dropped", "command", Scope::GLOBAL);
        buf.add("y", 7);
        main.merge_from(&buf);
        assert_eq!(main.events().unwrap().len(), 0);
        assert_eq!(main.metrics().registry.counter("y"), 7);
    }
}
