//! Cluster scheduler: tenant placement, replication, stack-level
//! failover, and chaos-driven recovery over N single-stack serving
//! layers.
//!
//! [`ClusterServer`] lifts [`crate::serve::Server`] from one stack to a
//! cluster: each member stack runs its own full serving stack (bounded
//! tenant queues, EDF dispatch, watchdog, channel-group breakers,
//! degradation ladder), and the cluster layer decides *which stack* each
//! request runs on:
//!
//! * **Placement** — a request's home stack is `tenant % stacks`, so a
//!   tenant's weights live on a deterministic member and its requests
//!   keep hitting the same arena.
//! * **Replication** — each request carries a replica chain of
//!   [`ClusterServeConfig::replication`] stacks (`home`, `home+1`, … mod
//!   stacks). Routing walks the chain in order and takes the first *up*
//!   stack whose stack-level circuit breaker admits.
//! * **Stack-level failover** — a stack that keeps degrading requests to
//!   the host charges its breaker ([`Disposition::FellBackToHost`]);
//!   completions reset it. A tripped stack is skipped by routing until
//!   its cooldown half-opens it for a probe — the same
//!   trip/half-open/close machinery the per-stack serving layer uses on
//!   channel groups, one level up.
//! * **Chaos health tracking** — with a [`ClusterFaultPlan`] installed
//!   ([`ClusterServeConfig::chaos`]), each epoch start re-evaluates the
//!   schedule: a stack entering a crash window goes down and loses its
//!   arena; a link-partition window removes the stack from routing but
//!   keeps its arena; a recovered stack re-enters routing **only after a
//!   verified rejoin** — its weights are re-laid-out (a modelled
//!   re-replication charge) and one probe request must complete on PIM
//!   bit-exact against the FP16 oracle (see `docs/RESILIENCE.md`).
//! * **Hedged dispatch** — when a stack's observed service latency exceeds
//!   [`HEDGE_MULTIPLIER_MILLI`] thousandths of the cluster median, its
//!   queued-but-never-started expiries are re-issued once on the next
//!   admitting replica, and the kept result is chosen
//!   deterministically (lowest stack index that produced a result).
//!
//! Requests are routed in **epochs** of
//! [`ClusterServeConfig::epoch_requests`] arrivals: within an epoch the
//! per-stack sub-traces run back-to-back in stack-index order (host-side
//! determinism), and stack breakers are charged *between* epochs — on
//! the same cluster-max clock that admission reads, so cooldowns expire
//! at well-defined cluster times regardless of how far individual stack
//! clocks lag. The whole schedule is a pure function of the trace, the
//! seeds, and the chaos plan — byte-identical across
//! [`pim_host::ExecutionBackend`]s and worker counts. See
//! `docs/CLUSTER.md`.

use crate::blas::PimError;
use crate::cluster::charge_straggler;
use crate::context::PimContext;
use crate::serve::{
    check_trace, mix, resolve_outcomes, Breaker, BreakerEvent, Disposition, RequestOutcome,
    ServeConfig, ServeOp, ServeRequest, ServeStats, Server, BREAKER_COOLDOWN,
};
use pim_dram::Cycle;
use pim_faults::ClusterFaultPlan;
use pim_obs::{names, Recorder};

/// Straggler threshold in thousandths: a stack whose per-request service
/// latency exceeds `HEDGE_MULTIPLIER_MILLI / 1000` times the cluster median
/// is flagged, and its queued-never-started expiries are hedged on a
/// replica.
pub const HEDGE_MULTIPLIER_MILLI: u64 = 2000;
/// Modelled re-replication time a recovered stack pays before its rejoin
/// probe: the cycles to re-lay-out resident tenant weights from their
/// replicas.
pub const REJOIN_RELAYOUT_CYCLES: Cycle = 50_000;
/// Elements in the rejoin probe request that must complete on PIM
/// bit-exact against the FP16 oracle before the stack rejoins.
pub const PROBE_ELEMENTS: usize = 256;
/// Cycles from a rejoin probe's arrival to its deadline.
pub const PROBE_DEADLINE_CYCLES: Cycle = 4_000_000;

/// Configuration of the cluster scheduler.
#[derive(Debug, Clone)]
pub struct ClusterServeConfig {
    /// Per-stack serving configuration. Each member stack gets a copy
    /// with its seed salted by the stack index, so per-stack tie-breaks
    /// stay decorrelated but deterministic; the salt is the identity at
    /// stack 0, so a one-stack cluster is a [`Server`] with this seed.
    pub serve: ServeConfig,
    /// Length of each request's replica chain (home stack plus
    /// `replication - 1` fallbacks). Clamped to the stack count.
    pub replication: usize,
    /// Requests per routing epoch: placement decisions, health-tracker
    /// updates, and stack-breaker charging happen at epoch granularity.
    pub epoch_requests: usize,
    /// The chaos schedule driving the health tracker. `None` (the
    /// default) means no chaos: every stack stays up and behaviour is
    /// identical to a chaos-free build.
    pub chaos: Option<ClusterFaultPlan>,
}

impl Default for ClusterServeConfig {
    fn default() -> ClusterServeConfig {
        ClusterServeConfig {
            serve: ServeConfig::default(),
            replication: 2,
            epoch_requests: 8,
            chaos: None,
        }
    }
}

/// Routing availability of one member stack, tracked by the cluster
/// scheduler from the chaos schedule's phase windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackHealth {
    /// In routing.
    Up,
    /// Inside a crash window: serves nothing, arena lost.
    Crashed,
    /// Crash window closed, but the verified rejoin (re-replication plus
    /// an oracle-checked probe) has not passed yet — still out of
    /// routing.
    AwaitingRejoin,
    /// Inside a link-partition window: out of routing, but the arena
    /// survives, so the stack returns to [`StackHealth::Up`] directly
    /// when the window closes.
    Partitioned,
}

/// Counter totals for one cluster serving run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterServeStats {
    /// Requests routed to each member stack, by stack index (hedged
    /// re-issues are counted in [`ClusterServeStats::hedges`], not
    /// here).
    pub routed: Vec<u64>,
    /// Requests served by a replica because an earlier stack in their
    /// chain was down or had its breaker open.
    pub failovers: u64,
    /// Stack-level breaker trips.
    pub stack_trips: u64,
    /// Stack-level breaker half-opens.
    pub stack_half_opens: u64,
    /// Stack-level breaker closes.
    pub stack_closes: u64,
    /// Stacks that entered a crash window.
    pub crashes: u64,
    /// Crash windows that closed (the stack then awaits a verified
    /// rejoin).
    pub recoveries: u64,
    /// Stacks that entered a link-partition window.
    pub partitions: u64,
    /// Straggler detections: a stack newly flagged because its observed
    /// service latency exceeded the hedge multiple of the cluster median
    /// (the flag then sticks until a healthy observation clears it).
    pub stragglers: u64,
    /// Hedged dispatches: queued-never-started expiries re-issued on a
    /// replica.
    pub hedges: u64,
    /// Hedged dispatches whose replica produced the kept result.
    pub hedge_wins: u64,
    /// Rejoin probes issued to recovered stacks.
    pub rejoin_probes: u64,
    /// Rejoin probes that failed verification (stack stays out).
    pub rejoin_failures: u64,
    /// Verified rejoins: stacks re-admitted to routing.
    pub rejoins: u64,
    /// Per-stack serving stats summed across members
    /// ([`ServeStats::merge`]). Includes hedged re-issues (so
    /// `submitted` can exceed the trace length under chaos) but not
    /// rejoin probes.
    pub serve: ServeStats,
}

/// What one cluster serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServeReport {
    /// One outcome per submitted request, in submission order;
    /// [`RequestOutcome::id`] is the submission index on every stack.
    pub outcomes: Vec<RequestOutcome>,
    /// Counter totals.
    pub stats: ClusterServeStats,
    /// Cluster sim cycle at which the trace drained (max over stacks).
    pub end_cycle: Cycle,
}

impl ClusterServeReport {
    /// Arrival-to-finish latency of every request that produced a result,
    /// in submission order (mirrors `ServeReport::served_latencies`).
    pub fn served_latencies(&self) -> Vec<Cycle> {
        crate::serve::served_latencies(&self.outcomes)
    }
}

/// The cluster scheduler: one [`Server`] per member stack plus a
/// stack-level breaker array, a chaos-driven health tracker, and
/// epoch-based routing.
pub struct ClusterServer<'a> {
    servers: Vec<Server<'a>>,
    breakers: Vec<Breaker>,
    health: Vec<StackHealth>,
    /// Sticky straggler flags: set when a stack's observed service latency
    /// exceeds the hedge threshold, cleared when a later observation is
    /// back under it. Sticky because an epoch in which every bucketed
    /// request expires unstarted observes no service latency at all —
    /// exactly the epoch whose expiries need hedging.
    straggling: Vec<bool>,
    cfg: ClusterServeConfig,
    recorder: Option<Recorder>,
    /// Monotonic salt decorrelating successive rejoin probes.
    rejoin_salt: u64,
}

impl<'a> ClusterServer<'a> {
    /// Builds one serving layer per member stack. `stacks` are the
    /// cluster's members in stack-index order (see
    /// [`crate::ClusterContext::stacks_mut`]); each must be healthy
    /// enough to construct a server (the per-stack ladder handles
    /// channel-level sickness from there).
    pub fn new(
        stacks: &'a mut [PimContext],
        cfg: ClusterServeConfig,
    ) -> Result<ClusterServer<'a>, PimError> {
        if stacks.is_empty() {
            return Err(PimError::Internal { detail: "cluster server over zero stacks".into() });
        }
        if cfg.replication == 0 || cfg.epoch_requests == 0 {
            return Err(PimError::Internal {
                detail: "replication and epoch_requests must be at least 1".into(),
            });
        }
        let recorder = stacks[0].recorder.clone();
        let n = stacks.len();
        let servers: Vec<Server<'a>> = stacks
            .iter_mut()
            .enumerate()
            .map(|(i, ctx)| {
                let mut serve = cfg.serve.clone();
                serve.seed ^= 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
                Server::new(ctx, serve)
            })
            .collect();
        Ok(ClusterServer {
            servers,
            breakers: vec![Breaker::new(); n],
            health: vec![StackHealth::Up; n],
            straggling: vec![false; n],
            cfg,
            recorder,
            rejoin_salt: 0,
        })
    }

    /// Number of member stacks.
    pub fn stack_count(&self) -> usize {
        self.servers.len()
    }

    /// The cluster clock: the furthest-ahead member's clock.
    pub fn now(&self) -> Cycle {
        self.servers.iter().map(|s| s.now()).max().unwrap_or(0)
    }

    /// Current routing availability of every member stack.
    pub fn stack_health(&self) -> &[StackHealth] {
        &self.health
    }

    /// Re-evaluates the chaos schedule at `epoch_now` and walks every
    /// stack's health machine: up → crashed (arena lost) or partitioned,
    /// crashed → awaiting-rejoin when the window closes, partitioned →
    /// up on heal, and awaiting-rejoin → up only through a verified
    /// rejoin (re-replication charge plus an oracle-checked probe).
    fn update_health(
        &mut self,
        epoch_now: Cycle,
        stats: &mut ClusterServeStats,
    ) -> Result<(), PimError> {
        let Some(plan) = &self.cfg.chaos else { return Ok(()) };
        let windows: Vec<(bool, bool)> = (0..self.servers.len())
            .map(|s| (plan.stack_crashed(s, epoch_now), plan.link_partitioned(s, epoch_now)))
            .collect();
        for (s, (crashed, partitioned)) in windows.into_iter().enumerate() {
            match self.health[s] {
                StackHealth::Up => {
                    if crashed {
                        self.health[s] = StackHealth::Crashed;
                        stats.crashes += 1;
                        // Power loss: the arena (tenant weights, memoized
                        // launches) is gone.
                        self.servers[s].reset_arena();
                    } else if partitioned {
                        self.health[s] = StackHealth::Partitioned;
                        stats.partitions += 1;
                    }
                }
                StackHealth::Partitioned => {
                    if crashed {
                        self.health[s] = StackHealth::Crashed;
                        stats.crashes += 1;
                        self.servers[s].reset_arena();
                    } else if !partitioned {
                        // The arena survived the partition: straight back
                        // into routing, no re-replication needed.
                        self.health[s] = StackHealth::Up;
                    }
                }
                StackHealth::Crashed => {
                    if !crashed {
                        self.health[s] = StackHealth::AwaitingRejoin;
                        stats.recoveries += 1;
                    }
                }
                StackHealth::AwaitingRejoin => {}
            }
            if self.health[s] == StackHealth::AwaitingRejoin && !crashed && !partitioned {
                self.attempt_rejoin(s, epoch_now, stats)?;
            }
        }
        Ok(())
    }

    /// One verified rejoin attempt for recovered stack `s`: catch its
    /// clock up to the cluster (it was down while time passed), charge
    /// the modelled re-replication of its tenants' weights, then run one
    /// probe request that must complete on PIM bit-exact against the
    /// FP16 oracle. Success re-admits the stack with a fresh breaker;
    /// failure leaves it out, to be re-probed next epoch.
    fn attempt_rejoin(
        &mut self,
        s: usize,
        epoch_now: Cycle,
        stats: &mut ClusterServeStats,
    ) -> Result<(), PimError> {
        stats.rejoin_probes += 1;
        let salt = mix(self.cfg.serve.seed ^ ((s as u64) << 32) ^ self.rejoin_salt);
        // Submission ids name a request in its events and its `TraceId`;
        // trace requests count up from 0, probes down from the top, so a
        // probe shares an identity with no request on its stack.
        let probe_id = usize::MAX - self.rejoin_salt as usize;
        self.rejoin_salt += 1;
        self.servers[s].advance_to(epoch_now);
        self.servers[s].reset_arena();
        let relayout_done = self.servers[s].now().saturating_add(REJOIN_RELAYOUT_CYCLES);
        self.servers[s].advance_to(relayout_done);
        let x: Vec<f32> = (0..PROBE_ELEMENTS)
            .map(|i| ((mix(salt ^ i as u64) % 511) as f32 - 255.0) * 0.25)
            .collect();
        let y: Vec<f32> = (0..PROBE_ELEMENTS)
            .map(|i| ((mix(salt ^ (i as u64 + (1 << 40))) % 511) as f32 - 255.0) * 0.125)
            .collect();
        let op = ServeOp::Add { x, y };
        let oracle = op.host_reference();
        let arrival = self.servers[s].now();
        let probe = ServeRequest {
            tenant: s as u32,
            arrival,
            deadline: arrival.saturating_add(PROBE_DEADLINE_CYCLES),
            groups: None,
            budget: None,
            op,
        };
        // The probe's serve stats are deliberately not merged into the
        // cluster totals: it is recovery traffic, not trace traffic.
        let report = self.servers[s].run_submitted(vec![(probe_id, probe)])?;
        let verified = report.outcomes.first().is_some_and(|o| {
            o.disposition == Disposition::Completed && o.result.as_deref() == Some(&oracle[..])
        });
        if verified {
            self.health[s] = StackHealth::Up;
            self.breakers[s] = Breaker::new();
            stats.rejoins += 1;
        } else {
            stats.rejoin_failures += 1;
        }
        Ok(())
    }

    /// The forced route for a request none of whose replicas admitted:
    /// the first up stack in chain order from its home (its own
    /// degradation ladder still guarantees a typed outcome), or the home
    /// stack itself if the whole cluster is down.
    fn forced_route(&self, home: usize) -> usize {
        let n = self.servers.len();
        (0..n).map(|r| (home + r) % n).find(|&c| self.health[c] == StackHealth::Up).unwrap_or(home)
    }

    /// The first stack of `home`'s replica chain (`chain` stacks from
    /// `home`, mod the stack count), other than `skip`, that is up and
    /// whose breaker admits at `now`, with its position in the chain. Every
    /// breaker asked on the way counts its half-open.
    fn admitting_replica(
        &mut self,
        home: usize,
        chain: usize,
        skip: Option<usize>,
        now: Cycle,
        stats: &mut ClusterServeStats,
    ) -> Option<(usize, usize)> {
        let n = self.servers.len();
        for r in 0..chain {
            let cand = (home + r) % n;
            if Some(cand) == skip || self.health[cand] != StackHealth::Up {
                continue;
            }
            let (ok, event) = self.breakers[cand].admit(now);
            if event == BreakerEvent::HalfOpened {
                stats.stack_half_opens += 1;
            }
            if ok {
                return Some((r, cand));
            }
        }
        None
    }

    /// Routes and serves a whole trace. Requests must be in arrival
    /// order; within each epoch the per-stack sub-traces run in
    /// stack-index order, so the result is deterministic for a given
    /// trace, configuration, and chaos plan.
    ///
    /// # Errors
    ///
    /// As [`Server::run`]'s, a malformed request's refusal included.
    pub fn run(&mut self, requests: Vec<ServeRequest>) -> Result<ClusterServeReport, PimError> {
        check_trace(&requests)?;
        let n_stacks = self.servers.len();
        let chain = self.cfg.replication.min(n_stacks);
        let total = requests.len();
        let mut stats =
            ClusterServeStats { routed: vec![0; n_stacks], ..ClusterServeStats::default() };
        let mut outcomes: Vec<Option<RequestOutcome>> = Vec::new();
        outcomes.resize_with(total, || None);

        let mut queue = requests.into_iter().enumerate().peekable();
        while queue.peek().is_some() {
            // The epoch clock: the cluster-max clock, pulled forward to
            // the epoch's first arrival so chaos phase windows are
            // evaluated at the time the work actually shows up. Both
            // breaker admission and (below) breaker charging read this
            // one cluster-domain clock — never a lagging per-stack one.
            let first_arrival = queue.peek().map(|(_, r)| r.arrival).unwrap_or(0);
            let epoch_now = self.now().max(first_arrival);
            self.update_health(epoch_now, &mut stats)?;

            // Route one epoch of arrivals over the up stacks.
            let mut buckets: Vec<Vec<(usize, ServeRequest)>> = vec![Vec::new(); n_stacks];
            for _ in 0..self.cfg.epoch_requests {
                let Some((gid, req)) = queue.next() else { break };
                let home = req.tenant as usize % n_stacks;
                let target = match self.admitting_replica(home, chain, None, epoch_now, &mut stats)
                {
                    Some((r, cand)) => {
                        if r > 0 {
                            stats.failovers += 1;
                        }
                        cand
                    }
                    None => self.forced_route(home),
                };
                stats.routed[target] += 1;
                buckets[target].push((gid, req));
            }

            // Serve the epoch, stack by stack in index order. Breaker
            // charges are deferred to the end of the epoch so they land
            // on the cluster clock (same domain admission reads).
            let mut charges: Vec<(usize, Disposition)> = Vec::new();
            let mut hedgeable: Vec<(usize, usize, ServeRequest)> = Vec::new();
            let mut epoch_lat: Vec<Option<u64>> = vec![None; n_stacks];
            for (s, bucket) in buckets.into_iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                // The stack sees trace-wide submission ids, so outcome ids,
                // trace ids and tie-breaks never repeat across epochs.
                let report = self.servers[s].run_submitted(bucket.clone())?;
                let mut busy = 0u64;
                let mut started = 0u64;
                for (o, (gid, req)) in report.outcomes.into_iter().zip(bucket) {
                    charges.push((s, o.disposition));
                    if let Some(st) = o.started {
                        started += 1;
                        busy += o.finished.saturating_sub(st);
                    }
                    if o.started.is_none() && o.disposition == Disposition::DeadlineMissed {
                        hedgeable.push((s, gid, req));
                    }
                    outcomes[gid] = Some(o);
                }
                // A straggler phase stretches the stack's *service* time:
                // the busy cycles it spent on started requests are
                // re-charged at the stall factor, lagging its clock
                // behind the arrival stream. Idle time passes at the
                // nominal rate — a slow stack must not drag the whole
                // cluster's clock (and every chaos window) forward.
                let stall_milli =
                    self.cfg.chaos.as_ref().map_or(1000, |p| p.stack_stall_milli(s, epoch_now));
                let extra = charge_straggler(self.servers[s].ctx, busy, stall_milli);
                // Latency is only observable when the stack actually
                // serviced something; an all-expired bucket keeps the
                // previous observation (see `straggling`).
                if let Some(per_req) = (busy + extra).saturating_mul(1000).checked_div(started) {
                    epoch_lat[s] = Some(per_req);
                }
                stats.serve.merge(&report.stats);
            }

            // Straggler detection: a stack whose observed per-request
            // service latency exceeds the hedge multiple of the cluster
            // median is flagged (sticky until a healthy observation);
            // its queued-never-started expiries are re-issued once on
            // the next admitting replica. The kept result is the lowest
            // stack index that produced one — here always the replica,
            // since the straggler's expiry produced none.
            let mut lats: Vec<u64> = epoch_lat.iter().filter_map(|&l| l).collect();
            if lats.len() >= 2 {
                lats.sort_unstable();
                let median = lats[(lats.len() - 1) / 2];
                let threshold = median.saturating_mul(HEDGE_MULTIPLIER_MILLI) / 1000;
                for (s, observed) in epoch_lat.iter().enumerate() {
                    let Some(lat) = *observed else { continue };
                    let over = threshold > 0 && lat > threshold;
                    if over && !self.straggling[s] {
                        stats.stragglers += 1;
                    }
                    self.straggling[s] = over;
                }
            }
            for (s, gid, req) in hedgeable {
                if !self.straggling[s] {
                    continue;
                }
                let home = req.tenant as usize % n_stacks;
                let now = self.now();
                let Some((_, replica)) =
                    self.admitting_replica(home, chain, Some(s), now, &mut stats)
                else {
                    continue;
                };
                stats.hedges += 1;
                let report = self.servers[replica].run_submitted(vec![(gid, req)])?;
                stats.serve.merge(&report.stats);
                let Some(o) = report.outcomes.into_iter().next() else { continue };
                charges.push((replica, o.disposition));
                if o.result.is_some() {
                    stats.hedge_wins += 1;
                    outcomes[gid] = Some(o);
                }
            }

            // Charge the stack breakers for the epoch — on the cluster
            // clock, the same domain admission reads, so a tripped
            // stack's cooldown expires at a well-defined cluster time
            // even when its own clock lags the cluster's.
            let at = self.now();
            let (threshold, cooldown) = (self.cfg.serve.breaker_threshold, BREAKER_COOLDOWN);
            for (s, disposition) in charges {
                match disposition {
                    Disposition::FellBackToHost
                        if self.breakers[s].failure(at, threshold, cooldown)
                            == BreakerEvent::Tripped =>
                    {
                        stats.stack_trips += 1;
                    }
                    Disposition::Completed
                        if self.breakers[s].success() == BreakerEvent::Closed =>
                    {
                        stats.stack_closes += 1;
                    }
                    // Sheds and queue-expiry deadline misses say nothing
                    // about the stack's hardware health; the guards above
                    // still charge/reset the breaker as a side effect
                    // even when no counter moves.
                    _ => {}
                }
            }
        }

        let end_cycle = self.now();
        if let Some(r) = &self.recorder {
            r.add(names::CLUSTER_ROUTED, stats.routed.iter().sum());
            r.add(names::CLUSTER_FAILOVERS, stats.failovers);
            r.add(names::CLUSTER_STACK_TRIPS, stats.stack_trips);
            r.add(names::CLUSTER_STACK_HALF_OPENS, stats.stack_half_opens);
            r.add(names::CLUSTER_STACK_CLOSES, stats.stack_closes);
            r.add(names::CLUSTER_REJOINS, stats.rejoins);
            r.add(names::CHAOS_CRASHES, stats.crashes);
            r.add(names::CHAOS_RECOVERIES, stats.recoveries);
            r.add(names::CHAOS_PARTITIONS, stats.partitions);
            r.add(names::CHAOS_STRAGGLERS, stats.stragglers);
            r.add(names::CHAOS_HEDGES, stats.hedges);
            r.add(names::CHAOS_HEDGE_WINS, stats.hedge_wins);
            r.add(names::CHAOS_REJOIN_PROBES, stats.rejoin_probes);
            r.add(names::CHAOS_REJOIN_FAILURES, stats.rejoin_failures);
        }
        let resolved = resolve_outcomes(outcomes)?;
        Ok(ClusterServeReport { outcomes: resolved, stats, end_cycle })
    }
}
