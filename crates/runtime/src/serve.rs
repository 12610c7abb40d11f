//! Deterministic multi-tenant serving over the PIM stack: admission
//! control, deadlines, a sim-cycle watchdog, and per-channel-group circuit
//! breakers.
//!
//! The paper's software stack (§VI) assumes a single well-behaved caller;
//! §VIII notes that PIM-HBM "can support virtualization and multi-tenancy"
//! because the host controls each channel independently. This module is
//! the overload-and-failure story a production deployment of that claim
//! needs, layered over [`PimContext`]/`KernelEngine`:
//!
//! 1. **Admission control** — bounded per-tenant FIFO queues with explicit
//!    backpressure: a request that does not fit is shed with a typed
//!    [`RejectReason`] (`QueueFull` when the tenant's queue is at
//!    capacity, `Overloaded` when the priced backlog exceeds the
//!    configured cycle budget). Nothing in the serving path panics.
//! 2. **Deadlines** — every request carries an absolute sim-cycle
//!    deadline. Expired requests are dropped from the queues, and work
//!    that finishes late is reported as [`Disposition::DeadlineMissed`].
//! 3. **Watchdog** — each kernel launch runs under a cycle limit through
//!    the engine's cooperative cancellation point
//!    (`KernelEngine::run_system_bounded`): a launch that exceeds its
//!    budget stops issuing data batches, the teardown choreography still
//!    runs, and the implicated channel groups are charged with a failure.
//! 4. **Circuit breakers** — one breaker per channel group counts
//!    consecutive failures (wrong results or watchdog timeouts). A tripped
//!    breaker opens the group, re-routing work to the survivors (the same
//!    lock-step re-layout the resilience ladder uses); after a cycle-based
//!    cooldown it half-opens and one probe launch decides whether it
//!    closes again.
//! 5. **Graceful degradation** — per request, chosen by deadline slack:
//!    PIM over the available groups, re-layout over surviving groups after
//!    a failure, host BLAS when no group is available or the slack no
//!    longer covers the PIM price.
//!
//! # Prices
//!
//! Admission, dispatch and the host path ask two prices, in bus cycles,
//! and nothing else:
//!
//! * **PIM** — [`Executor::stream_launch`] over the request's channels,
//!   folded from a powered-on channel by [`ChannelPredictor::fold`] under
//!   the context's ordering regime: the kernel and the fold
//!   `pim_models::CostModel::pim_stream` prices, held equal to full
//!   simulation by the cost model's timing tests. Lock-step execution makes
//!   one channel's clock the launch's. Memoized per (op, elements,
//!   channels), since it depends on nothing else the server can change.
//! * **Host** — the request's traffic streamed at the host's element-wise
//!   efficiency ([`pim_host::HostConfig::add_stream_efficiency`], the model
//!   behind Fig. 10's ADD rows), at least one cycle.
//!
//! Admission charges the cheaper of the two against
//! [`MAX_BACKLOG_CYCLES`]; dispatch takes PIM whenever its
//! price fits the slack; the host path advances the clock by its price.
//!
//! # Determinism
//!
//! Every decision — admission, dispatch order, watchdog firing, breaker
//! transitions, degradation — is a function of the simulated clock, the
//! request trace, and seeded tie-break hashes. No wall-clock time, no
//! ambient randomness, so a seeded trace produces a byte-identical
//! [`ServeReport`] on every run.
//!
//! Every action is counted under the `srv.*` names of [`pim_obs::names`]
//! when profiling is enabled, and mirrored in [`ServeStats`] regardless.
//!
//! # Request-scoped tracing
//!
//! When profiling is enabled, every request is minted a deterministic
//! [`TraceCtx`] at admission (splitmix64 over the server seed and the
//! submission id — never a wall clock) and its lifecycle is emitted as
//! `request`-category instants: `req.admit`, `req.dispatch`, one
//! `req.launch` per PIM attempt, and `req.done` carrying the disposition
//! code ([`Disposition::code`]). While a request executes, its context is
//! installed as the recorder's *ambient trace*, so every event the
//! engine, controller, and device emit on the request's behalf — down to
//! per-bank command instants — is stamped with the owning trace id and
//! tenant. The trace id is also echoed on [`RequestOutcome::trace`] for
//! joining reports to event streams, and per-tenant SLO histograms (queue
//! wait, service time, deadline slack) accumulate in [`ServeReport::slo`].

use crate::blas::PimError;
use crate::context::PimContext;
use crate::executor::Executor;
use crate::kernels::StreamOp;
use crate::stream::{self, Attempt, StreamJob, StreamOperands};
use pim_dram::Cycle;
use pim_host::ChannelPredictor;
use pim_obs::{names, Event, Histogram, Recorder, Scope, TraceCtx, TraceId};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// SplitMix64 finalizer for seeded tie-breaks (the shared mixing core,
/// re-exported from pim-obs so trace ids and tie-breaks agree; decisions
/// must not depend on ambient state).
pub(crate) fn mix(z: u64) -> u64 {
    pim_obs::trace::mix(z)
}

/// Bounded per-tenant queue depth; arrivals beyond it are shed with
/// [`RejectReason::QueueFull`].
pub const QUEUE_CAPACITY: usize = 8;
/// Admission budget: when the priced backlog (queued work plus the new
/// request, each at the cheaper of its PIM and host price, in cycles)
/// exceeds this, the arrival is shed with [`RejectReason::Overloaded`].
pub const MAX_BACKLOG_CYCLES: Cycle = 4_000_000;
/// Cycles a tripped breaker stays open before half-opening for a probe.
pub const BREAKER_COOLDOWN: Cycle = 500_000;
/// Channels per breaker group (the quarantine/re-layout granularity). It
/// divides every system's channel count (16 per stack), so every group
/// holds exactly this many.
pub const CHANNELS_PER_GROUP: usize = 4;
/// Default watchdog budget per kernel launch, in cycles (a request may
/// override it; the effective limit never extends past the deadline).
pub const WATCHDOG_BUDGET: Cycle = 500_000;
/// PIM attempts (initial launch plus re-layouts over surviving groups)
/// before a request degrades to the host.
pub const MAX_ATTEMPTS: u32 = 3;

/// The knobs of the serving layer; everything else is a constant of this
/// module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Consecutive failures (wrong result or watchdog timeout) that trip a
    /// channel group's breaker open.
    pub breaker_threshold: u32,
    /// Seed of the deterministic tie-breaks (equal arrivals, equal
    /// deadlines) and of the requests' [`TraceId`]s. A cluster salts it
    /// per member stack.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { breaker_threshold: 3, seed: 0x5E17 }
    }
}

/// The operation a request asks for (element-wise, FP16-exact on device).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// `z = x + y`.
    Add {
        /// Left operand.
        x: Vec<f32>,
        /// Right operand.
        y: Vec<f32>,
    },
    /// `z = x * y`.
    Mul {
        /// Left operand.
        x: Vec<f32>,
        /// Right operand.
        y: Vec<f32>,
    },
}

impl ServeOp {
    fn stream_op(&self) -> StreamOp {
        match self {
            ServeOp::Add { .. } => StreamOp::Add,
            ServeOp::Mul { .. } => StreamOp::Mul,
        }
    }

    fn operands(&self) -> (&[f32], &[f32]) {
        match self {
            ServeOp::Add { x, y } | ServeOp::Mul { x, y } => (x, y),
        }
    }

    /// The host-side oracle: the device computes exact FP16, so the FP16
    /// result is bit-exact on a fault-free run. It doubles as the host
    /// BLAS of the degradation ladder, as the integrity check a
    /// production runtime would run at the application level, and as the
    /// cross-check a rejoin probe must pass before a recovered stack
    /// re-enters cluster routing.
    pub fn host_reference(&self) -> Vec<f32> {
        let (x, y) = self.operands();
        stream::reference(self.stream_op(), x, y)
    }
}

/// Refuses a trace holding a request that no backend could answer whole —
/// [`PimBlas::add`](crate::PimBlas::add)'s rule: [`PimError::Empty`] for
/// empty operands, [`PimError::SizeMismatch`] naming the submission id for
/// operands of unequal length.
pub(crate) fn check_trace(requests: &[ServeRequest]) -> Result<(), PimError> {
    for (id, (x, y)) in requests.iter().map(|r| r.op.operands()).enumerate() {
        if x.is_empty() {
            return Err(PimError::Empty);
        }
        if x.len() != y.len() {
            let detail = format!("request {id}: x has {} elements, y has {}", x.len(), y.len());
            return Err(PimError::SizeMismatch { detail });
        }
    }
    Ok(())
}

/// One request to the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Tenant the request belongs to (its own bounded queue).
    pub tenant: u32,
    /// Arrival time in absolute sim cycles (open-loop traffic).
    pub arrival: Cycle,
    /// Absolute sim-cycle deadline.
    pub deadline: Cycle,
    /// Optional channel-group affinity: the request only runs on these
    /// groups (a tenant's partition under §VIII multi-tenancy). `None`
    /// means any group.
    pub groups: Option<Vec<usize>>,
    /// Optional per-request watchdog budget override, in cycles.
    pub budget: Option<Cycle>,
    /// The operation.
    pub op: ServeOp,
}

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's bounded queue was at capacity.
    QueueFull,
    /// The priced backlog exceeded [`MAX_BACKLOG_CYCLES`].
    Overloaded,
}

/// How a request ended. Every submitted request ends in exactly one of
/// these — the serving layer never panics on load or faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Completed on PIM within the deadline; the verified result is in
    /// [`RequestOutcome::result`].
    Completed,
    /// Shed by admission control with the given typed reason.
    Shed(RejectReason),
    /// Expired in queue, or finished past its deadline.
    DeadlineMissed,
    /// Computed host-side by the degradation policy (no healthy group, or
    /// insufficient deadline slack for PIM).
    FellBackToHost,
}

impl Disposition {
    /// Stable numeric code, carried as the `req.done` trace event's
    /// argument: 0 completed, 1 shed (queue full), 2 shed (overloaded),
    /// 3 deadline missed, 4 fell back to host.
    pub fn code(&self) -> u64 {
        match self {
            Disposition::Completed => 0,
            Disposition::Shed(RejectReason::QueueFull) => 1,
            Disposition::Shed(RejectReason::Overloaded) => 2,
            Disposition::DeadlineMissed => 3,
            Disposition::FellBackToHost => 4,
        }
    }
}

/// The record of one request's journey through the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Submission-order id (index into the trace given to [`Server::run`]).
    pub id: usize,
    /// The tenant.
    pub tenant: u32,
    /// Arrival cycle, as submitted.
    pub arrival: Cycle,
    /// Cycle execution started, if it did.
    pub started: Option<Cycle>,
    /// Cycle the request left the system.
    pub finished: Cycle,
    /// How it ended.
    pub disposition: Disposition,
    /// The result vector for `Completed` and `FellBackToHost`.
    pub result: Option<Vec<f32>>,
    /// The request's deterministic trace id ([`TraceId::mint`] over the
    /// server seed and `id`) — the join key into recorded event streams.
    pub trace: TraceId,
}

/// Counters mirroring the `srv.*` observability names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests submitted ([`names::SRV_SUBMITTED`]).
    pub submitted: u64,
    /// Requests admitted into a queue ([`names::SRV_ADMITTED`]).
    pub admitted: u64,
    /// Sheds with [`RejectReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Sheds with [`RejectReason::Overloaded`].
    pub shed_overloaded: u64,
    /// Requests completed on PIM in time.
    pub completed: u64,
    /// Deadline misses (queue expiry or late finish).
    pub deadline_missed: u64,
    /// Kernel launches cancelled by the watchdog.
    pub watchdog_cancels: u64,
    /// Breaker trips (closed/half-open → open).
    pub breaker_trips: u64,
    /// Breaker half-opens (open → probe allowed).
    pub breaker_half_opens: u64,
    /// Breaker closes (half-open → closed after a good probe).
    pub breaker_closes: u64,
    /// Re-layouts over a reduced group set.
    pub relayouts: u64,
    /// Requests computed host-side.
    pub host_fallbacks: u64,
}

impl ServeStats {
    /// The one table of counters, each with its `srv.*` metric name. The
    /// exhaustive destructure makes adding a counter to [`ServeStats`]
    /// without listing it here a compile error — so it can never be
    /// silently dropped from cluster totals ([`ServeStats::merge`]), run
    /// deltas or the published metrics.
    fn counters(&mut self) -> [(&mut u64, &'static str); 12] {
        let ServeStats {
            submitted,
            admitted,
            shed_queue_full,
            shed_overloaded,
            completed,
            deadline_missed,
            watchdog_cancels,
            breaker_trips,
            breaker_half_opens,
            breaker_closes,
            relayouts,
            host_fallbacks,
        } = self;
        [
            (submitted, names::SRV_SUBMITTED),
            (admitted, names::SRV_ADMITTED),
            (shed_queue_full, names::SRV_SHED_QUEUE_FULL),
            (shed_overloaded, names::SRV_SHED_OVERLOADED),
            (completed, names::SRV_COMPLETED),
            (deadline_missed, names::SRV_DEADLINE_MISSED),
            (watchdog_cancels, names::SRV_WATCHDOG_CANCELS),
            (breaker_trips, names::SRV_BREAKER_TRIPS),
            (breaker_half_opens, names::SRV_BREAKER_HALF_OPENS),
            (breaker_closes, names::SRV_BREAKER_CLOSES),
            (relayouts, names::SRV_RELAYOUTS),
            (host_fallbacks, names::SRV_HOST_FALLBACKS),
        ]
    }

    /// Adds `other`'s counters into `self` (how the cluster scheduler
    /// folds per-stack stats into cluster totals).
    pub fn merge(&mut self, other: &ServeStats) {
        let mut other = *other;
        for ((a, _), (b, _)) in self.counters().into_iter().zip(other.counters()) {
            *a += *b;
        }
    }

    /// The counters accumulated since `before` was snapshotted.
    fn since(mut self, before: &ServeStats) -> ServeStats {
        let mut before = *before;
        for ((a, _), (b, _)) in self.counters().into_iter().zip(before.counters()) {
            *a -= *b;
        }
        self
    }
}

/// Per-tenant SLO histograms, accumulated over one [`Server::run`] call.
///
/// Lives on [`ServeReport`] rather than [`ServeStats`] (which stays a
/// `Copy` bundle of plain counters). All three use
/// [`names::LATENCY_BUCKETS`] bounds, so they merge and export cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSlo {
    /// Cycles from arrival to dispatch (or to expiry, for requests that
    /// died in queue).
    pub queue_wait: Histogram,
    /// Cycles from dispatch to completion; only requests that started.
    pub service: Histogram,
    /// Deadline slack remaining at completion; 0 for a miss.
    pub deadline_slack: Histogram,
}

impl Default for TenantSlo {
    fn default() -> TenantSlo {
        TenantSlo {
            queue_wait: Histogram::new(names::LATENCY_BUCKETS),
            service: Histogram::new(names::LATENCY_BUCKETS),
            deadline_slack: Histogram::new(names::LATENCY_BUCKETS),
        }
    }
}

/// What one [`Server::run`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One outcome per submitted request, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Counter totals for this run.
    pub stats: ServeStats,
    /// Per-tenant SLO histograms for this run (shed requests excluded —
    /// they never occupied the system).
    pub slo: BTreeMap<u32, TenantSlo>,
    /// Sim cycle at which the trace drained.
    pub end_cycle: Cycle,
}

impl ServeReport {
    /// Arrival-to-finish latencies (cycles) of requests that produced a
    /// result (`Completed` and `FellBackToHost`), in submission order.
    pub fn served_latencies(&self) -> Vec<Cycle> {
        served_latencies(&self.outcomes)
    }
}

/// The latencies behind both reports' `served_latencies()`.
pub(crate) fn served_latencies(outcomes: &[RequestOutcome]) -> Vec<Cycle> {
    outcomes
        .iter()
        .filter(|o| matches!(o.disposition, Disposition::Completed | Disposition::FellBackToHost))
        .map(|o| o.finished.saturating_sub(o.arrival))
        .collect()
}

/// The gather at the end of both servers' `run`: every submitted request
/// must have resolved to an outcome. A hole is a scheduling bug, not a
/// load condition, so it surfaces as the typed internal error naming the
/// request instead of panicking mid-campaign (`docs/PANIC_AUDIT.md`).
pub(crate) fn resolve_outcomes(
    outcomes: Vec<Option<RequestOutcome>>,
) -> Result<Vec<RequestOutcome>, PimError> {
    outcomes
        .into_iter()
        .enumerate()
        .map(|(id, o)| {
            o.ok_or_else(|| PimError::Internal {
                detail: format!("request {id} never resolved to an outcome"),
            })
        })
        .collect()
}

/// Per-domain breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: Cycle },
    HalfOpen,
}

/// Observable state transition produced by a breaker call. The caller maps
/// these onto its own counters: the serving layer onto the `srv.breaker_*`
/// stats, the cluster scheduler onto its `cluster.stack_*` stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerEvent {
    /// No observable transition.
    None,
    /// Closed or half-open → open.
    Tripped,
    /// Open → half-open after the cooldown elapsed.
    HalfOpened,
    /// Half-open → closed after a successful probe.
    Closed,
}

/// A consecutive-failure circuit breaker over sim-cycle cooldowns — the
/// same machine at both granularities of the scale-out story: one per
/// channel group inside a [`Server`], one per stack inside
/// [`crate::cluster_serve::ClusterServer`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Breaker {
    state: BreakerState,
    failures: u32,
}

impl Breaker {
    pub(crate) fn new() -> Breaker {
        Breaker { state: BreakerState::Closed, failures: 0 }
    }

    /// Whether the domain may serve at `now`; transitions open → half-open
    /// once the cooldown has elapsed.
    pub(crate) fn admit(&mut self, now: Cycle) -> (bool, BreakerEvent) {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, BreakerEvent::None),
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    (true, BreakerEvent::HalfOpened)
                } else {
                    (false, BreakerEvent::None)
                }
            }
        }
    }

    /// Charges one failure; trips open at `threshold` consecutive failures
    /// (a failed half-open probe re-opens immediately, no threshold).
    pub(crate) fn failure(&mut self, now: Cycle, threshold: u32, cooldown: Cycle) -> BreakerEvent {
        self.failures += 1;
        let reopen = matches!(self.state, BreakerState::HalfOpen);
        if reopen || self.failures >= threshold {
            let tripped = !matches!(self.state, BreakerState::Open { .. });
            self.state = BreakerState::Open { until: now.saturating_add(cooldown) };
            if tripped {
                return BreakerEvent::Tripped;
            }
        }
        BreakerEvent::None
    }

    /// Clears the failure count; a successful half-open probe closes.
    pub(crate) fn success(&mut self) -> BreakerEvent {
        let closed = matches!(self.state, BreakerState::HalfOpen);
        self.failures = 0;
        self.state = BreakerState::Closed;
        if closed {
            BreakerEvent::Closed
        } else {
            BreakerEvent::None
        }
    }
}

/// A request sitting in a tenant queue.
#[derive(Debug)]
struct Queued {
    /// Position in this run's outcome vector.
    slot: usize,
    /// Submission id: names the request in its outcome, events, trace id
    /// and tie-breaks.
    id: usize,
    req: ServeRequest,
    est_cycles: u64,
}

/// The deterministic multi-tenant scheduler. Owns a mutable borrow of the
/// context for its lifetime; all state (queues, breakers, memoized PIM
/// prices) is carried across [`Server::run`] calls.
#[derive(Debug)]
pub struct Server<'a> {
    pub(crate) ctx: &'a mut PimContext,
    cfg: ServeConfig,
    breakers: Vec<Breaker>,
    queues: BTreeMap<u32, VecDeque<Queued>>,
    stats: ServeStats,
    /// Per-tenant SLO histograms for the run in progress (drained into
    /// [`ServeReport::slo`] at the end of each [`Server::run`]).
    slo: BTreeMap<u32, TenantSlo>,
    /// PIM prices by (op, elements, channels) — see the module docs.
    pim_prices: HashMap<(StreamOp, usize, usize), Cycle>,
}

impl<'a> Server<'a> {
    /// Builds a server over `ctx`.
    pub fn new(ctx: &'a mut PimContext, cfg: ServeConfig) -> Server<'a> {
        let channels = ctx.sys.channel_count();
        debug_assert!(channels.is_multiple_of(CHANNELS_PER_GROUP), "{channels} channels");
        Server {
            ctx,
            cfg,
            breakers: vec![Breaker::new(); channels / CHANNELS_PER_GROUP],
            queues: BTreeMap::new(),
            stats: ServeStats::default(),
            slo: BTreeMap::new(),
            pim_prices: HashMap::new(),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The latest simulated cycle across the server's channels.
    pub fn now(&self) -> Cycle {
        self.ctx.sys.max_now()
    }

    /// Advances every channel's clock to `t` without issuing commands
    /// (no-op for cycles already in the past). The cluster layer charges
    /// modelled chaos penalties — straggler stall, crash downtime,
    /// rejoin re-replication — by advancing a member stack this way.
    pub fn advance_to(&mut self, t: Cycle) {
        self.ctx.advance_to(t);
    }

    /// Drops the stack's arena — every tenant's laid-out weights — as a
    /// stack crash does. Subsequent requests re-lay-out their operands from
    /// host memory.
    pub(crate) fn reset_arena(&mut self) {
        self.ctx.reset_memory();
    }

    /// Channels of group `g`.
    fn group_channels(g: usize) -> std::ops::Range<usize> {
        g * CHANNELS_PER_GROUP..(g + 1) * CHANNELS_PER_GROUP
    }

    /// The groups `req` may run on: its affinity, or every group.
    fn affinity<'r>(&self, req: &'r ServeRequest) -> impl Iterator<Item = usize> + 'r {
        (0..self.breakers.len()).filter(|g| req.groups.as_ref().is_none_or(|set| set.contains(g)))
    }

    /// The PIM and host prices of `op` over the channels of `groups` (module
    /// docs, "Prices"). PIM's is `Cycle::MAX` — it fits no deadline — over
    /// no group.
    fn prices(&mut self, op: &ServeOp, groups: &[usize]) -> (Cycle, Cycle) {
        let (op, n) = (op.stream_op(), op.operands().0.len());
        let channels = groups.len() * CHANNELS_PER_GROUP;
        let PimContext { sys, mode, .. } = &*self.ctx;
        let (host, timing) = (&sys.host, sys.timing());
        let bytes = n as u64 * op.bytes_per_element();
        let seconds =
            host.stream_time_s(bytes, timing.peak_pch_bandwidth_gbs(), host.add_stream_efficiency);
        let host_price = ((seconds * timing.bus_mhz as f64 * 1e6).ceil() as Cycle).max(1);
        let pim_price = *self.pim_prices.entry((op, n, channels)).or_insert_with(|| {
            if channels == 0 {
                return Cycle::MAX;
            }
            let kernel = Executor::stream_launch(op, n, channels, sys.pim_config());
            ChannelPredictor::power_on(timing).fold(host, &kernel, *mode, None).ran.result.end_cycle
        });
        (pim_price, host_price)
    }

    /// Total priced cycles of queued work.
    fn backlog_cycles(&self) -> u64 {
        self.queues.values().flatten().map(|q| q.est_cycles).sum()
    }

    /// Typed admission decision for one arrival at the current backlog.
    fn admission(&self, tenant: u32, est: u64) -> Result<(), RejectReason> {
        let depth = self.queues.get(&tenant).map_or(0, VecDeque::len);
        if depth >= QUEUE_CAPACITY {
            return Err(RejectReason::QueueFull);
        }
        if self.backlog_cycles().saturating_add(est) > MAX_BACKLOG_CYCLES {
            return Err(RejectReason::Overloaded);
        }
        Ok(())
    }

    /// Runs a whole open-loop trace to completion. Requests are processed
    /// in arrival order (ties broken by the seeded hash, then submission
    /// id); the queues drain under earliest-deadline-first dispatch.
    ///
    /// Returns one [`RequestOutcome`] per request, in submission order —
    /// every request ends `Completed`, `Shed`, `DeadlineMissed`, or
    /// `FellBackToHost`.
    ///
    /// # Errors
    ///
    /// A malformed request refuses the whole trace before anything is
    /// simulated: [`PimError::Empty`] for empty operands,
    /// [`PimError::SizeMismatch`] for operands of unequal length. Beyond
    /// that, only plumbing failures surface as [`PimError`] (allocation
    /// larger than the reserved region, strict-mode kernel rejection); load
    /// and injected faults never do.
    pub fn run(&mut self, requests: Vec<ServeRequest>) -> Result<ServeReport, PimError> {
        check_trace(&requests)?;
        self.run_submitted(requests.into_iter().enumerate().collect())
    }

    /// [`Server::run`] over `(submission id, request)` pairs: the id names
    /// the request in its outcome, its events and its [`TraceId`] and feeds
    /// the seeded tie-breaks, so a caller handing over a slice of a longer
    /// trace (the cluster, one epoch at a time) passes the trace-wide ids
    /// and no two requests of the trace share an identity on this stack.
    /// Ids must be distinct; outcomes come back in the order given.
    pub(crate) fn run_submitted(
        &mut self,
        requests: Vec<(usize, ServeRequest)>,
    ) -> Result<ServeReport, PimError> {
        let stats_before = self.stats;
        let mut outcomes: Vec<Option<RequestOutcome>> = Vec::new();
        outcomes.resize_with(requests.len(), || None);

        // Arrival order with seeded tie-breaks: a deterministic total order
        // even when two tenants' requests land on the same cycle.
        let mut arrivals: Vec<(usize, usize, ServeRequest)> =
            requests.into_iter().enumerate().map(|(slot, (id, r))| (slot, id, r)).collect();
        arrivals.sort_by_key(|(_, id, r)| (r.arrival, mix(self.cfg.seed ^ *id as u64), *id));
        let mut pending: VecDeque<(usize, usize, ServeRequest)> = arrivals.into();

        loop {
            let now = self.ctx.sys.max_now();

            // 1. Admit everything that has arrived by `now`.
            while pending.front().is_some_and(|(_, _, r)| r.arrival <= now) {
                let (slot, id, req) = pending.pop_front().unwrap_or_else(|| unreachable!());
                self.stats.submitted += 1;
                let groups: Vec<usize> = self.affinity(&req).collect();
                let (pim, host) = self.prices(&req.op, &groups);
                let est = pim.min(host);
                let trace = TraceCtx::root(self.cfg.seed, id as u64, req.tenant);
                match self.admission(req.tenant, est) {
                    Ok(()) => {
                        self.stats.admitted += 1;
                        emit(&self.ctx.recorder, now, names::REQ_ADMIT, ("id", id as u64), trace);
                        self.queues.entry(req.tenant).or_default().push_back(Queued {
                            slot,
                            id,
                            req,
                            est_cycles: est,
                        });
                    }
                    Err(reason) => {
                        match reason {
                            RejectReason::QueueFull => self.stats.shed_queue_full += 1,
                            RejectReason::Overloaded => self.stats.shed_overloaded += 1,
                        }
                        outcomes[slot] = Some(unstarted(
                            &self.ctx.recorder,
                            id,
                            &req,
                            now,
                            Disposition::Shed(reason),
                            trace,
                        ));
                    }
                }
            }

            // 2. Purge queued requests whose deadline already passed.
            let mut purged: Vec<(u32, u64)> = Vec::new();
            let seed = self.cfg.seed;
            for queue in self.queues.values_mut() {
                queue.retain(|q| {
                    if q.req.deadline > now {
                        return true;
                    }
                    self.stats.deadline_missed += 1;
                    let trace = TraceCtx::root(seed, q.id as u64, q.req.tenant);
                    purged.push((q.req.tenant, now.saturating_sub(q.req.arrival)));
                    outcomes[q.slot] = Some(unstarted(
                        &self.ctx.recorder,
                        q.id,
                        &q.req,
                        now,
                        Disposition::DeadlineMissed,
                        trace,
                    ));
                    false
                });
            }
            for (tenant, wait) in purged {
                self.note_slo(tenant, wait, None, 0);
            }

            // 3. Dispatch: earliest deadline among the queue heads (FIFO
            //    within a tenant), seeded tie-break across tenants.
            let next = self
                .queues
                .iter()
                .filter_map(|(&tenant, q)| q.front().map(|h| (tenant, h)))
                .min_by_key(|(_, h)| (h.req.deadline, mix(self.cfg.seed ^ h.id as u64), h.id))
                .map(|(tenant, _)| tenant);

            match next {
                Some(tenant) => {
                    let queued = self
                        .queues
                        .get_mut(&tenant)
                        .and_then(VecDeque::pop_front)
                        .unwrap_or_else(|| unreachable!("head vanished"));
                    let slot = queued.slot;
                    let deadline = queued.req.deadline;
                    let arrival = queued.req.arrival;
                    let outcome = self.execute(queued)?;
                    if let Some(started) = outcome.started {
                        let wait = started.saturating_sub(arrival);
                        let service = outcome.finished.saturating_sub(started);
                        let slack = match outcome.disposition {
                            Disposition::DeadlineMissed => 0,
                            _ => deadline.saturating_sub(outcome.finished),
                        };
                        self.note_slo(tenant, wait, Some(service), slack);
                    }
                    outcomes[slot] = Some(outcome);
                }
                None => match pending.front() {
                    // Idle until the next arrival: the host sleeps, every
                    // channel's clock advances.
                    Some((_, _, r)) => {
                        let t = r.arrival;
                        self.advance_to(t);
                    }
                    None => break,
                },
            }
        }

        let end_cycle = self.ctx.sys.barrier();
        let mut stats = self.stats.since(&stats_before);
        if let Some(r) = &self.ctx.recorder {
            for (count, name) in stats.counters() {
                r.add(name, *count);
            }
        }
        let outcomes = resolve_outcomes(outcomes)?;
        Ok(ServeReport { outcomes, stats, end_cycle, slo: std::mem::take(&mut self.slo) })
    }

    /// Executes one admitted request, wrapping the degradation ladder in a
    /// request-scoped trace: `req.dispatch`/`req.done` instants bracket the
    /// execution, and the request's [`TraceCtx`] is installed as the
    /// recorder's ambient trace for its duration so every device- and
    /// controller-level event joins back to this request and tenant.
    fn execute(&mut self, q: Queued) -> Result<RequestOutcome, PimError> {
        let trace = TraceCtx::root(self.cfg.seed, q.id as u64, q.req.tenant);
        let now = self.ctx.sys.max_now();
        emit(&self.ctx.recorder, now, names::REQ_DISPATCH, ("id", q.id as u64), trace);
        if let Some(r) = &self.ctx.recorder {
            r.set_trace(Some(trace));
        }
        let result = self.execute_inner(q, trace);
        if let Some(r) = &self.ctx.recorder {
            r.set_trace(None);
        }
        if let Ok(o) = &result {
            let done = ("disposition", o.disposition.code());
            emit(&self.ctx.recorder, o.finished, names::REQ_DONE, done, trace);
        }
        result
    }

    /// The degradation ladder itself (PIM attempts, then host fallback).
    fn execute_inner(&mut self, q: Queued, trace: TraceCtx) -> Result<RequestOutcome, PimError> {
        let Queued { id, req, .. } = q;
        let started = self.ctx.sys.max_now();
        let oracle = req.op.host_reference();

        let outcome = |disposition, started, finished, result| RequestOutcome {
            id,
            tenant: req.tenant,
            arrival: req.arrival,
            started,
            finished,
            disposition,
            result,
            trace: trace.trace,
        };

        // Candidate groups: the request's affinity, intersected with the
        // groups whose breakers admit work right now.
        let now = started;
        let candidates: Vec<usize> = self
            .affinity(&req)
            .filter(|&g| {
                let (ok, ev) = self.breakers[g].admit(now);
                if ev == BreakerEvent::HalfOpened {
                    self.stats.breaker_half_opens += 1;
                }
                ok
            })
            .collect();

        // Degradation policy by deadline slack: PIM when its price fits (or
        // nothing else would), host BLAS when PIM's price blows the slack
        // but the host's still fits, miss when already expired.
        let slack = req.deadline.saturating_sub(now);
        let (pim, host) = self.prices(&req.op, &candidates);
        let prefer_host = candidates.is_empty() || (pim > slack && host <= slack);

        if !prefer_host {
            match self.run_on_pim(&req, &candidates, &oracle, trace)? {
                PimAttempt::Done { finished, result } => {
                    return Ok(if finished > req.deadline {
                        self.stats.deadline_missed += 1;
                        outcome(Disposition::DeadlineMissed, Some(started), finished, None)
                    } else {
                        self.stats.completed += 1;
                        outcome(Disposition::Completed, Some(started), finished, Some(result))
                    });
                }
                PimAttempt::Exhausted => {}
            }
        }

        // Host fallback: its price advances the simulated clock.
        let now = self.ctx.sys.max_now();
        if now >= req.deadline {
            self.stats.deadline_missed += 1;
            return Ok(outcome(Disposition::DeadlineMissed, Some(started), now, None));
        }
        self.stats.host_fallbacks += 1;
        let finished = now.saturating_add(host);
        self.advance_to(finished);
        Ok(if finished > req.deadline {
            self.stats.deadline_missed += 1;
            outcome(Disposition::DeadlineMissed, Some(started), finished, None)
        } else {
            outcome(Disposition::FellBackToHost, Some(started), finished, Some(oracle))
        })
    }

    /// The PIM half of the ladder: bounded launches over the candidate
    /// groups, excluding implicated groups (breaker failures) between
    /// attempts. Returns `Exhausted` when the request must degrade to the
    /// host.
    fn run_on_pim(
        &mut self,
        req: &ServeRequest,
        candidates: &[usize],
        oracle: &[f32],
        trace: TraceCtx,
    ) -> Result<PimAttempt, PimError> {
        let (x, y) = req.op.operands();
        debug_assert!(!x.is_empty() && x.len() == y.len(), "`check_trace` admits no such request");
        let operands = StreamOperands::new(self.ctx, req.op.stream_op(), x, Some(y))?;

        let mut avail: Vec<usize> = candidates.to_vec();
        for attempt in 0..MAX_ATTEMPTS {
            if avail.is_empty() {
                return Ok(PimAttempt::Exhausted);
            }
            let now = self.ctx.sys.max_now();
            if now >= req.deadline {
                return Ok(PimAttempt::Exhausted);
            }
            if attempt > 0 {
                self.stats.relayouts += 1;
            }

            // Lock-step layout over the channels of the available groups.
            let channels: Vec<usize> =
                avail.iter().flat_map(|&g| Server::group_channels(g)).collect();
            self.ctx.reset_memory();
            let job = StreamJob::place(self.ctx, &operands, &channels)?;

            // Bounded launch: the watchdog limit never extends past the
            // deadline.
            let budget = req.budget.unwrap_or(WATCHDOG_BUDGET);
            let deadline_capped = req.deadline <= now.saturating_add(budget);
            let limit = req.deadline.min(now.saturating_add(budget));
            // Each PIM attempt runs under a child span so retries after a
            // re-layout are distinguishable in the trace.
            let attempt_ctx = trace.child(attempt as u64 + 1);
            let launch = ("attempt", attempt as u64 + 1);
            emit(&self.ctx.recorder, now, names::REQ_LAUNCH, launch, attempt_ctx);
            if let Some(r) = &self.ctx.recorder {
                r.set_trace(Some(attempt_ctx));
            }
            let ran = job.attempt(self.ctx, oracle, Some(limit))?;
            if let Some(r) = &self.ctx.recorder {
                r.set_trace(Some(trace));
            }

            let (out, bad, finished) = match ran {
                Attempt::TimedOut { channels } => {
                    let timed_out = Server::groups_of(channels.into_iter());
                    self.stats.watchdog_cancels += 1;
                    // A deadline-capped cancel means the request ran out of
                    // slack, not that the hardware is sick: the request
                    // degrades without charging the groups' breakers. Only a
                    // budget-capped cancel is a genuine component timeout.
                    if deadline_capped {
                        return Ok(PimAttempt::Exhausted);
                    }
                    self.charge_failure(&timed_out);
                    avail.retain(|g| !timed_out.contains(g));
                    continue;
                }
                Attempt::Ran { out, bad, finished, .. } => (out, bad, finished),
            };

            let bad_groups = Server::groups_of(job.suspects(&bad).into_iter());
            if bad_groups.is_empty() {
                for &g in &avail {
                    if self.breakers[g].success() == BreakerEvent::Closed {
                        self.stats.breaker_closes += 1;
                    }
                }
                return Ok(PimAttempt::Done { finished, result: out });
            }
            self.charge_failure(&bad_groups);
            avail.retain(|g| !bad_groups.contains(g));
        }
        Ok(PimAttempt::Exhausted)
    }

    /// The breaker groups of `channels`, ascending and deduplicated.
    fn groups_of(channels: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut groups: Vec<usize> = channels.map(|ch| ch / CHANNELS_PER_GROUP).collect();
        groups.sort_unstable();
        groups.dedup();
        groups
    }

    /// Charges one failure to each of `groups`' breakers at the current
    /// cycle.
    fn charge_failure(&mut self, groups: &[usize]) {
        let at = self.ctx.sys.max_now();
        for &g in groups {
            let event = self.breakers[g].failure(at, self.cfg.breaker_threshold, BREAKER_COOLDOWN);
            if event == BreakerEvent::Tripped {
                self.stats.breaker_trips += 1;
            }
        }
    }

    /// Records one request's SLO observations: queue wait always, service
    /// time when the request actually started, and deadline slack (0 for a
    /// miss). Mirrored into the context recorder's histograms so the
    /// OpenMetrics export carries the same distributions as
    /// [`ServeReport::slo`].
    fn note_slo(&mut self, tenant: u32, wait: Cycle, service: Option<Cycle>, slack: Cycle) {
        let slo = self.slo.entry(tenant).or_default();
        slo.queue_wait.record(wait);
        if let Some(s) = service {
            slo.service.record(s);
        }
        slo.deadline_slack.record(slack);
        if let Some(r) = &self.ctx.recorder {
            r.observe(names::SRV_QUEUE_WAIT, names::LATENCY_BUCKETS, wait);
            if let Some(s) = service {
                r.observe(names::SRV_SERVICE, names::LATENCY_BUCKETS, s);
            }
            r.observe(names::SRV_DEADLINE_SLACK, names::LATENCY_BUCKETS, slack);
        }
    }
}

/// What one trip through the PIM ladder produced.
enum PimAttempt {
    Done { finished: Cycle, result: Vec<f32> },
    Exhausted,
}

/// Emits one request-lifecycle instant stamped with `trace` (no-op without
/// a recorder).
fn emit(
    recorder: &Option<Recorder>,
    at: Cycle,
    name: &'static str,
    (key, value): (&'static str, u64),
    trace: TraceCtx,
) {
    if let Some(r) = recorder {
        r.emit(
            Event::instant(at, name, names::CAT_REQUEST, Scope::GLOBAL)
                .with_arg(key, value)
                .with_trace(trace),
        );
    }
}

/// Resolves a request that never started (shed at admission, or expired in
/// queue) at `now`, emitting its `req.done`.
fn unstarted(
    recorder: &Option<Recorder>,
    id: usize,
    req: &ServeRequest,
    now: Cycle,
    disposition: Disposition,
    trace: TraceCtx,
) -> RequestOutcome {
    emit(recorder, now, names::REQ_DONE, ("disposition", disposition.code()), trace);
    RequestOutcome {
        id,
        tenant: req.tenant,
        arrival: req.arrival,
        started: None,
        finished: now,
        disposition,
        result: None,
        trace: trace.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_faults::FaultPlan;

    fn add_req(tenant: u32, arrival: Cycle, deadline: Cycle, n: usize) -> ServeRequest {
        let x: Vec<f32> = (0..n).map(|i| (i % 23) as f32 * 0.25).collect();
        let y: Vec<f32> = (0..n).map(|i| (i % 17) as f32 * 0.5).collect();
        ServeRequest {
            tenant,
            arrival,
            deadline,
            groups: None,
            budget: None,
            op: ServeOp::Add { x, y },
        }
    }

    #[test]
    fn unresolved_request_is_a_typed_error_naming_the_id() {
        let mut ctx = PimContext::small_system();
        let report = Server::new(&mut ctx, ServeConfig::default())
            .run(vec![add_req(0, 0, 10_000_000, 64), add_req(1, 0, 10_000_000, 64)])
            .unwrap();
        let mut gathered: Vec<Option<RequestOutcome>> =
            report.outcomes.iter().cloned().map(Some).collect();
        assert_eq!(resolve_outcomes(gathered.clone()).unwrap(), report.outcomes);
        gathered[1] = None;
        let Err(PimError::Internal { detail }) = resolve_outcomes(gathered) else {
            panic!("a hole in the gather must be PimError::Internal");
        };
        assert!(detail.contains("request 1 never resolved"), "{detail}");
    }

    #[test]
    fn single_request_completes_with_exact_result() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let req = add_req(0, 0, 10_000_000, 1024);
        let oracle = req.op.host_reference();
        let report = server.run(vec![req]).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.disposition, Disposition::Completed);
        assert_eq!(o.result.as_deref(), Some(&oracle[..]));
        assert!(o.finished > 0);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.host_fallbacks, 0);
    }

    #[test]
    fn queue_capacity_sheds_with_typed_reason() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        // Simultaneous arrivals for one tenant all hit admission before any
        // dispatch, so the queue takes `QUEUE_CAPACITY` and sheds the rest.
        let reqs = (0..QUEUE_CAPACITY + 2).map(|_| add_req(7, 0, 50_000_000, 512)).collect();
        let report = server.run(reqs).unwrap();
        let shed = report
            .outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Shed(RejectReason::QueueFull))
            .count();
        assert_eq!(shed, 2, "{:?}", report.stats);
        assert_eq!(report.stats.shed_queue_full, 2);
        assert_eq!(report.stats.completed, QUEUE_CAPACITY as u64);
    }

    /// `tenant`'s queue holding one request priced at `est` cycles.
    fn queue_one(server: &mut Server<'_>, tenant: u32, est: u64) {
        let req = add_req(tenant, 0, 50_000_000, 4);
        let queued = Queued { slot: 0, id: 0, req, est_cycles: est };
        server.queues.entry(tenant).or_default().push_back(queued);
    }

    #[test]
    fn backlog_budget_sheds_overloaded() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        assert_eq!(server.admission(0, MAX_BACKLOG_CYCLES), Ok(()));
        assert_eq!(server.admission(0, MAX_BACKLOG_CYCLES + 1), Err(RejectReason::Overloaded));
        // Other tenants' queued work counts against the same budget.
        queue_one(&mut server, 1, MAX_BACKLOG_CYCLES - 100);
        assert_eq!(server.admission(0, 100), Ok(()));
        assert_eq!(server.admission(0, 101), Err(RejectReason::Overloaded));

        // End to end: a host 9 000x slower than the model's and requests
        // pinned to no channel group, so each is priced at its host time.
        // The first few simultaneous arrivals fill the budget and the rest
        // are shed, one per tenant so no queue fills.
        let mut ctx = PimContext::small_system();
        ctx.sys.host.add_stream_efficiency = 1e-4;
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|tenant| ServeRequest {
                groups: Some(Vec::new()),
                ..add_req(tenant, 0, 50_000_000, 4096)
            })
            .collect();
        let oracle = reqs[0].op.host_reference();
        let (pim, host) = server.prices(&reqs[0].op, &[]);
        assert_eq!(pim, Cycle::MAX, "no group, no PIM price");
        let fits = MAX_BACKLOG_CYCLES / host;
        assert!((1..8).contains(&fits), "host price {host}");
        let report = server.run(reqs).unwrap();
        let shed = Disposition::Shed(RejectReason::Overloaded);
        for o in &report.outcomes {
            match o.disposition {
                d if d == shed => assert!(o.result.is_none(), "shed request {} has a result", o.id),
                d => {
                    assert_eq!(d, Disposition::FellBackToHost, "{:?}", report.stats);
                    assert_eq!(o.result.as_deref(), Some(&oracle[..]));
                }
            }
        }
        assert_eq!(
            report.outcomes.iter().filter(|o| o.disposition == shed).count() as u64,
            8 - fits
        );
        assert_eq!(report.stats.shed_overloaded, 8 - fits);
        assert_eq!(report.stats.shed_queue_full, 0);
        assert_eq!(report.stats.host_fallbacks, fits);
    }

    #[test]
    fn expired_deadline_is_missed_not_run() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        // Deadline of 1 cycle: expires before/at dispatch.
        let report = server.run(vec![add_req(0, 0, 1, 512)]).unwrap();
        assert_eq!(report.outcomes[0].disposition, Disposition::DeadlineMissed);
        assert_eq!(report.stats.deadline_missed, 1);
        assert_eq!(report.stats.completed + report.stats.host_fallbacks, 0);
    }

    #[test]
    fn tight_slack_degrades_to_host() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        // A slack between the two prices: the host's fits, PIM's does not.
        let mut req = add_req(0, 0, 0, 1024);
        let (pim, host) = server.prices(&req.op, &[0, 1, 2, 3]);
        assert!(host < pim, "host {host} vs PIM {pim}");
        req.deadline = (host + pim) / 2;
        let oracle = req.op.host_reference();
        let report = server.run(vec![req]).unwrap();
        let o = &report.outcomes[0];
        assert_eq!(o.disposition, Disposition::FellBackToHost, "{:?}", report.stats);
        assert_eq!(o.result.as_deref(), Some(&oracle[..]));
        assert_eq!(report.stats.host_fallbacks, 1);
    }

    #[test]
    fn watchdog_cancels_and_request_still_resolves() {
        let mut ctx = PimContext::small_system();
        let mut server =
            Server::new(&mut ctx, ServeConfig { breaker_threshold: 1, ..ServeConfig::default() });
        let mut req = add_req(0, 0, 50_000_000, 4096);
        // A 1-cycle budget cancels every data batch on every attempt.
        req.budget = Some(1);
        let report = server.run(vec![req]).unwrap();
        assert!(report.stats.watchdog_cancels > 0);
        assert_eq!(report.outcomes[0].disposition, Disposition::FellBackToHost);
        assert!(report.stats.breaker_trips > 0, "{:?}", report.stats);
    }

    #[test]
    fn hard_failed_group_trips_breaker_and_work_reroutes() {
        // Hard-fail exactly the channels of group 0 (0..4) by finding a
        // seed where only low channels fail — simpler: fail channel 0 only
        // is not directly expressible, so use a plan with chan_fail and
        // check that wherever failures landed, completed results are exact.
        let mut plan = FaultPlan::quiet(0);
        plan.chan_fail_rate = 0.15;
        let mut failed: Vec<usize> = Vec::new();
        for seed in 0..2000 {
            plan.seed = seed;
            failed = (0..16).filter(|&c| plan.channel_failed(c)).collect();
            if !failed.is_empty() && failed.len() <= 4 {
                break;
            }
        }
        assert!(!failed.is_empty());
        let mut ctx = PimContext::small_system();
        ctx.inject_faults(&plan);
        let mut server =
            Server::new(&mut ctx, ServeConfig { breaker_threshold: 1, ..ServeConfig::default() });
        let reqs: Vec<ServeRequest> =
            (0..4).map(|i| add_req(0, i * 1000, 80_000_000, 2048)).collect();
        let oracles: Vec<Vec<f32>> = reqs.iter().map(|r| r.op.host_reference()).collect();
        let report = server.run(reqs).unwrap();
        for (o, oracle) in report.outcomes.iter().zip(&oracles) {
            if let Some(result) = &o.result {
                assert_eq!(result, oracle, "request {} returned wrong data", o.id);
            }
        }
        assert!(report.stats.breaker_trips > 0, "{:?}", report.stats);
        assert!(report.stats.relayouts > 0, "{:?}", report.stats);
        // Later requests avoid the tripped group and complete first try.
        assert!(report.stats.completed > 0, "{:?}", report.stats);
    }

    #[test]
    fn breaker_state_machine() {
        let (threshold, cooldown) = (2u32, 100u64);
        let mut b = Breaker::new();
        assert_eq!(b.admit(0), (true, BreakerEvent::None));
        assert_eq!(b.failure(10, threshold, cooldown), BreakerEvent::None);
        let (ok, _) = b.admit(11);
        assert!(ok, "one failure below threshold keeps it closed");
        assert_eq!(b.failure(12, threshold, cooldown), BreakerEvent::Tripped);
        assert_eq!(b.admit(13), (false, BreakerEvent::None), "open during cooldown");
        assert_eq!(b.admit(112), (true, BreakerEvent::HalfOpened), "half-open after cooldown");
        // A failed probe re-opens immediately (no threshold).
        assert_eq!(b.failure(113, threshold, cooldown), BreakerEvent::Tripped);
        assert_eq!(b.admit(213 + cooldown), (true, BreakerEvent::HalfOpened));
        assert_eq!(b.success(), BreakerEvent::Closed);
        assert_eq!(b.admit(999), (true, BreakerEvent::None));
        // A success while already closed is not a close event.
        assert_eq!(b.success(), BreakerEvent::None);
    }

    #[test]
    fn breaker_cooldown_saturates_at_the_end_of_time() {
        // Regression: `now + cooldown` overflowed for clocks near u64::MAX
        // (reachable from `pimcampaign serve --intervals 18446744073709551615`).
        let mut b = Breaker::new();
        assert_eq!(b.failure(u64::MAX - 1, 1, 500_000), BreakerEvent::Tripped);
        assert_eq!(b.admit(u64::MAX - 1), (false, BreakerEvent::None));
        assert_eq!(b.admit(u64::MAX), (true, BreakerEvent::HalfOpened));
    }

    #[test]
    fn full_quarantine_with_odd_geometry_degrades_without_panic() {
        // Regression: every channel hard-failed used to funnel the
        // re-layout path toward an empty channel set and a `b % 0` panic.
        // The run must instead resolve every request with a typed
        // disposition and exact host-computed results. The geometry is
        // odd: each request spans three of the four groups (12 channels),
        // and every failed attempt re-lays it out over fewer.
        let mut plan = FaultPlan::quiet(3);
        plan.chan_fail_rate = 1.0;
        let mut ctx = PimContext::small_system();
        ctx.inject_faults(&plan);
        let mut server =
            Server::new(&mut ctx, ServeConfig { breaker_threshold: 1, ..ServeConfig::default() });
        let reqs: Vec<ServeRequest> = (0..3)
            .map(|i| ServeRequest {
                groups: Some(vec![0, 1, 3]),
                ..add_req(i, u64::from(i) * 500, 80_000_000, 1024)
            })
            .collect();
        let oracles: Vec<Vec<f32>> = reqs.iter().map(|r| r.op.host_reference()).collect();
        let report = server.run(reqs).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        for (o, oracle) in report.outcomes.iter().zip(&oracles) {
            assert_eq!(o.disposition, Disposition::FellBackToHost, "{:?}", report.stats);
            assert_eq!(o.result.as_deref(), Some(&oracle[..]));
        }
        assert_eq!(report.stats.host_fallbacks, 3);
    }

    #[test]
    fn tiny_requests_cannot_bypass_overload_shedding() {
        // Regression: a price that truncated to 0 for small n let a stream
        // of tiny requests walk past `MAX_BACKLOG_CYCLES` with an apparent
        // backlog of zero. Four elements stream in a fraction of a cycle.
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let tiny = add_req(0, 0, 50_000_000, 4);
        let (pim, host) = server.prices(&tiny.op, &[0]);
        assert_eq!(host, 1, "a price floors at one cycle");
        // With the backlog at the budget, the tiny request is refused.
        queue_one(&mut server, 1, MAX_BACKLOG_CYCLES);
        assert_eq!(server.admission(0, pim.min(host)), Err(RejectReason::Overloaded));
    }

    /// The price is the launch: over every request that completes on a
    /// fault-free stack — all channels, or a three-group affinity — the
    /// PIM price the server dispatched on is within 1 % of the simulated
    /// service time on average and 5 % at worst.
    #[test]
    fn pim_prices_match_the_simulated_launches() {
        for affinity in [None, Some(3)] {
            let mut ctx = PimContext::small_system();
            let mut server = Server::new(&mut ctx, ServeConfig::default());
            let trace: Vec<ServeRequest> = (0..20u64)
                .map(|i| {
                    let n = [128, 512, 4096, 20_000, 65_536][i as usize % 5];
                    // Mostly into an idle stack; every tenth request lands
                    // on its predecessor's cycle and queues behind it.
                    let arrival = (i - u64::from(i % 10 == 9)) * 2_000;
                    let mut r = add_req(i as u32 % 4, arrival, 50_000_000, n);
                    r.groups = affinity.map(|k| (0..k).map(|g| (i as usize + g) % 4).collect());
                    r
                })
                .collect();
            let requests: Vec<(ServeOp, Vec<usize>)> =
                trace.iter().map(|r| (r.op.clone(), server.affinity(r).collect())).collect();
            let report = server.run(trace).unwrap();
            assert_eq!(report.stats.completed, 20, "{affinity:?}: {:?}", report.stats);
            let errors: Vec<f64> = report
                .outcomes
                .iter()
                .zip(requests)
                .map(|(o, (op, groups))| {
                    let launch = o.finished - o.started.unwrap_or(o.finished);
                    let (price, _) = server.prices(&op, &groups);
                    price.abs_diff(launch) as f64 / launch as f64
                })
                .collect();
            let mean = errors.iter().sum::<f64>() / errors.len() as f64;
            let max = errors.iter().copied().fold(0.0, f64::max);
            assert!(mean <= 0.01 && max <= 0.05, "{affinity:?}: mean {mean}, max {max}");
        }
    }

    #[test]
    fn trace_replay_is_deterministic() {
        let trace = |seed: u64| -> Vec<ServeRequest> {
            (0..6)
                .map(|i| {
                    let mut r = add_req((i % 3) as u32, i * 700, 40_000_000 + i * 13, 1024);
                    r.groups = Some(vec![(i % 4) as usize, ((i + 1) % 4) as usize]);
                    let _ = seed;
                    r
                })
                .collect()
        };
        let run = |requests: Vec<ServeRequest>| {
            let mut ctx = PimContext::small_system();
            let mut server = Server::new(&mut ctx, ServeConfig::default());
            server.run(requests).unwrap()
        };
        let a = run(trace(1));
        let b = run(trace(1));
        assert_eq!(a, b);
    }

    #[test]
    fn group_affinity_restricts_placement() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        assert_eq!(server.breakers.len(), 4, "16 channels / 4 per group");
        let mut req = add_req(0, 0, 50_000_000, 512);
        req.groups = Some(vec![2]);
        let report = server.run(vec![req]).unwrap();
        assert_eq!(report.outcomes[0].disposition, Disposition::Completed);
        // Only group 2's channels (8..12) saw PIM triggers.
        for ch in 0..16 {
            let triggers = ctx.sys.channel(ch).sink().stats().pim_triggers;
            if (8..12).contains(&ch) {
                assert!(triggers > 0, "channel {ch} should have executed");
            } else {
                assert_eq!(triggers, 0, "channel {ch} outside the affinity set ran");
            }
        }
    }

    #[test]
    fn mul_requests_are_served_too() {
        let mut ctx = PimContext::small_system();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let x: Vec<f32> = (0..640).map(|i| (i % 13) as f32 * 0.25).collect();
        let y: Vec<f32> = (0..640).map(|i| (i % 7) as f32 * 0.5).collect();
        let req = ServeRequest {
            tenant: 1,
            arrival: 0,
            deadline: 50_000_000,
            groups: None,
            budget: None,
            op: ServeOp::Mul { x: x.clone(), y: y.clone() },
        };
        let oracle = req.op.host_reference();
        let report = server.run(vec![req]).unwrap();
        assert_eq!(report.outcomes[0].result.as_deref(), Some(&oracle[..]));
        for i in 0..640 {
            assert_eq!(oracle[i], x[i] * y[i], "element {i}");
        }
    }

    #[test]
    fn srv_metrics_published_when_profiling() {
        let mut ctx = PimContext::small_system();
        let rec = pim_obs::Recorder::vec();
        ctx.enable_profiling(rec.clone());
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let report = server.run(vec![add_req(0, 0, 50_000_000, 512)]).unwrap();
        assert_eq!(report.stats.completed, 1);
        let m = rec.metrics().registry;
        assert_eq!(m.counter(names::SRV_SUBMITTED), 1);
        assert_eq!(m.counter(names::SRV_ADMITTED), 1);
        assert_eq!(m.counter(names::SRV_COMPLETED), 1);
    }
}
