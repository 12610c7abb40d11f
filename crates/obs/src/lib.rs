//! Observability layer for the PIM-HBM simulator.
//!
//! This crate is the simulator's unified telemetry substrate: a structured
//! event bus ([`event`]; a recorder keeps its events or only counts them),
//! a metrics registry of counters, gauges and fixed-bucket histograms
//! ([`metrics`]), deterministic request-scoped trace contexts ([`trace`]),
//! an exact cycle-attribution profiler ([`attrib`]), exporters to Chrome
//! trace-event JSON and the OpenMetrics text format ([`chrome`],
//! [`openmetrics`]), and the cheap, cloneable
//! [`Recorder`] handle the simulation crates carry as an *optional* field —
//! when no recorder is attached, instrumentation reduces to an
//! `Option::None` check, so profiling is strictly opt-in and has zero
//! observer effect on simulated cycle counts.
//!
//! The crate is intentionally dependency-free. The recorder is an
//! `Arc<Mutex<...>>` so instrumented channels can migrate across the host's
//! worker threads (`pim-host`'s parallel execution backend); the lock is
//! uncontended in the common case because the parallel backend gives every
//! channel a private per-channel buffer recorder and merges the buffers in
//! stable channel order at the end-of-kernel barrier
//! ([`Recorder::merge_from`]), which keeps the merged stream byte-identical
//! to a sequential run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod chrome;
pub mod event;
pub mod metrics;
pub mod names;
pub mod openmetrics;
pub mod recorder;
mod sink;
pub mod trace;

pub use attrib::Attribution;
pub use event::{check_nesting, Cycle, Event, EventKind, Scope};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, Quantiles};
pub use recorder::Recorder;
pub use trace::{SpanId, TraceCtx, TraceId};
