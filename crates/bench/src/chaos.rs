//! Seeded cluster chaos campaigns — the `pimchaos` binary's engine.
//!
//! One campaign replays a single fixed arrival trace against a cluster
//! living through a phased fault schedule: a **baseline** phase, a
//! mid-run **crash** of one member (its arena is lost), a **straggle**
//! phase where another member's service time is stretched, a transient
//! link **partition** of a third, and a final **heal** phase in which
//! the crashed member re-enters routing through the verified-rejoin
//! path (re-replication charge plus an oracle-checked probe — see
//! `docs/RESILIENCE.md`). The trace is split into per-phase sub-traces
//! at the schedule's boundaries and served by **one** persistent
//! [`ClusterServer`], so breaker state, straggler flags, and health all
//! carry across phases; each phase reports its own goodput, tail
//! latency, failovers, hedges, and rejoins.
//!
//! Two correctness gates ride along:
//!
//! * every served result is compared against the exact FP16 oracle —
//!   chaos may cost capacity and latency, never answers;
//! * a row-parallel GEMV sharded mid-outage (crash and partition both in
//!   force) must match the single-stack reference bit-for-bit over the
//!   surviving members.
//!
//! The report (`pim-bench/chaos-campaign-v1`) is deterministic in the
//! config and deliberately omits the backend, so byte-equality holds
//! across `Sequential`/`Threads(n)` — the same contract as
//! [`crate::cluster`].

use crate::campaign::{build_trace, counters, gemv_gate, oracles, report, Audit, TraceShape};
use crate::json::{obj, Json};
use pim_faults::ClusterFaultPlan;
use pim_host::ExecutionBackend;
use pim_runtime::{
    ClusterContext, ClusterServeConfig, ClusterServeStats, ClusterServer, PimError, ServeRequest,
};

/// Campaign shape: one fixed trace, one phased fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaignConfig {
    /// The request trace (split across the five phases by arrival); its
    /// seed also drives the probe payloads.
    pub trace: TraceShape,
    /// Mean inter-arrival cycles. Chaos campaigns run *underloaded* so
    /// the cluster clock tracks arrivals and the schedule's phases land
    /// where the trace says they do.
    pub interval: u64,
    /// Member stacks. Victims are stacks `1..=3` (mod the stack count),
    /// so four or more keeps the crash, straggle, and partition victims
    /// distinct.
    pub stacks: usize,
    /// Straggle-phase service-time stretch in thousandths (8000 = 8x).
    pub stall_milli: u64,
    /// Host execution backend (does not affect the report).
    pub backend: ExecutionBackend,
}

impl Default for ChaosCampaignConfig {
    fn default() -> ChaosCampaignConfig {
        ChaosCampaignConfig {
            // Small requests and a slack just above the cost model's
            // initial PIM estimate (64 cycles/element): PIM is viable
            // from the first request, so healthy members complete on PIM
            // and only genuine chaos shows up in the dispositions. The
            // slack is still tight enough that a stalled member's
            // service lag expires its queued requests — the hedging
            // trigger — without the lag outrunning the schedule's phase
            // windows.
            trace: TraceShape {
                seed: 0xC4A0,
                elements: 128,
                requests: 80,
                tenants: 4,
                deadline_slack: 20_000,
            },
            interval: 4_000,
            stacks: 4,
            stall_milli: 40_000,
            backend: ExecutionBackend::Sequential,
        }
    }
}

/// The five phases of every chaos campaign, in schedule order.
pub const PHASE_NAMES: [&str; 5] = ["baseline", "crash", "straggle", "partition", "heal"];

/// What one phase of the campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPhase {
    /// Phase name (one of [`PHASE_NAMES`]).
    pub name: &'static str,
    /// Schedule window start (cycles).
    pub from: u64,
    /// Schedule window end (cycles; `u64::MAX` for the open-ended heal).
    pub until: u64,
    /// The cluster scheduler's counters for the phase's sub-trace
    /// (`stats.serve.submitted` includes hedged re-issues).
    pub stats: ClusterServeStats,
    /// Served results audited against the exact FP16 oracle, with the
    /// latency percentiles of the served requests.
    pub audit: Audit,
    /// Cluster clock when the phase's sub-trace started.
    pub start_cycle: u64,
    /// Cluster clock when the phase's sub-trace drained.
    pub end_cycle: u64,
    /// Served (correct-result) elements per second of simulated time
    /// spent in the phase.
    pub goodput_eps: f64,
}

/// What one whole campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaignReport {
    /// Per-phase results, in schedule order (always five entries).
    pub phases: Vec<ChaosPhase>,
    /// Served results disagreeing with the oracle, summed over phases.
    pub wrong_answers: u64,
    /// Row-parallel GEMV sharded mid-outage (crash and partition both in
    /// force) matched the single-stack reference bit-for-bit.
    pub gemv_bit_identical_outage: bool,
    /// Shards the mid-outage GEMV ran on (the surviving member count).
    pub outage_shards: usize,
}

/// The phased schedule for a campaign whose trace spans `[0, span)`:
/// boundaries at fifths of the span, crash of stack 1 held from the
/// second fifth until heal (so the rejoin lands in the heal phase),
/// straggle of stack 2 over the third fifth, partition of stack 3 over
/// the fourth. Victim indices wrap at the stack count.
pub fn phased_plan(cfg: &ChaosCampaignConfig, span: u64) -> ClusterFaultPlan {
    let t = |i: u64| scale(span, i, 5);
    ClusterFaultPlan::quiet(cfg.trace.seed)
        .crash(1 % cfg.stacks, t(1), t(4))
        .stall(2 % cfg.stacks, t(2), t(3), cfg.stall_milli.max(1000))
        .partition(3 % cfg.stacks, t(3), t(4))
}

/// `span * num / den` (for `num <= den`) without overflow for spans near
/// `u64::MAX`.
fn scale(span: u64, num: u64, den: u64) -> u64 {
    (u128::from(span) * u128::from(num) / u128::from(den)) as u64
}

/// Runs one campaign: the phased schedule over one persistent cluster
/// server, plus the mid-outage GEMV gate on a fresh cluster under the
/// same schedule.
///
/// # Errors
///
/// Propagates [`PimError`] from the cluster layers (only plumbing
/// failures — overload, crashes, and stalls end as typed dispositions).
pub fn run_campaign(cfg: &ChaosCampaignConfig) -> Result<ChaosCampaignReport, PimError> {
    if cfg.stacks < 2 {
        return Err(PimError::Internal {
            detail: "chaos campaign needs at least 2 stacks to fail over between".into(),
        });
    }
    let trace = build_trace(&cfg.trace, cfg.interval, 0xC4A05);
    let oracles = oracles(&trace);
    let span = trace.last().map_or(1, |r| r.arrival.saturating_add(1));
    let plan = phased_plan(cfg, span);
    let t = |i: u64| scale(span, i, 5);
    let window = |i: usize| match i {
        0 => (0, t(1)),
        4 => (t(4), u64::MAX),
        i => (t(i as u64), t(i as u64 + 1)),
    };

    // Split the trace into per-phase sub-traces at the schedule's
    // boundaries, keeping each request's oracle alongside.
    let mut buckets: Vec<Vec<(ServeRequest, Vec<f32>)>> = (0..5).map(|_| Vec::new()).collect();
    for (req, oracle) in trace.into_iter().zip(oracles) {
        let phase = (0..5).rfind(|&i| req.arrival >= window(i).0).unwrap_or(0);
        buckets[phase].push((req, oracle));
    }

    let mut cluster = ClusterContext::new(cfg.stacks)?;
    cluster.set_backend(cfg.backend);
    // Chains of 3, so a straggler whose next replica is the partitioned
    // stack can still hedge onto the member after it; short epochs, so a
    // hedged re-issue lands on its replica while the request's deadline
    // is still live (hedging happens at epoch end).
    let ccfg = ClusterServeConfig {
        replication: 3.min(cfg.stacks),
        epoch_requests: 4,
        chaos: Some(plan.clone()),
        ..ClusterServeConfig::default()
    };
    let mut phases = Vec::with_capacity(5);
    {
        let mut server = ClusterServer::new(cluster.stacks_mut(), ccfg)?;
        for (i, bucket) in buckets.into_iter().enumerate() {
            let (from, until) = window(i);
            let start_cycle = server.now();
            let (reqs, oracles): (Vec<ServeRequest>, Vec<Vec<f32>>) = bucket.into_iter().unzip();
            let report = server.run(reqs)?;
            phases.push(ChaosPhase {
                name: PHASE_NAMES[i],
                from,
                until,
                audit: Audit::of(&report.outcomes, &oracles, report.served_latencies()),
                stats: report.stats,
                start_cycle,
                end_cycle: report.end_cycle,
                // Scaled from the audit below, once the stacks' borrow
                // ends and the clock model is readable again.
                goodput_eps: 0.0,
            });
        }
    }
    for p in &mut phases {
        let seconds = cluster.stack(0).sys.cycles_to_seconds(p.end_cycle - p.start_cycle);
        p.goodput_eps = p.audit.goodput_eps(seconds);
    }

    // The mid-outage bit-identity gate: advance a fresh cluster (same
    // schedule) to the middle of the partition fifth — crash and partition
    // both in force — and shard a seeded GEMV over whatever survives.
    let mut outage = ClusterContext::new(cfg.stacks)?;
    outage.set_backend(cfg.backend);
    outage.install_chaos(plan);
    outage.advance_cluster_to(scale(span, 7, 10));
    let (bit_identical, shards) = gemv_gate(cfg.trace.seed, cfg.backend, &mut outage)?;
    Ok(ChaosCampaignReport {
        wrong_answers: phases.iter().map(|p| p.audit.wrong_answers).sum(),
        phases,
        gemv_bit_identical_outage: bit_identical,
        outage_shards: shards,
    })
}

/// Serializes a campaign to the `pim-bench/chaos-campaign-v1` document.
/// Backend-independent by construction (see module docs).
pub fn report_json(cfg: &ChaosCampaignConfig, campaign: &ChaosCampaignReport) -> Json {
    let phase_json = |p: &ChaosPhase| {
        let s = &p.stats;
        obj(counters([
            ("from", p.from),
            // Trace arrivals only; hedged re-issues show up in `hedges`.
            ("submitted", s.serve.submitted.saturating_sub(s.hedges)),
            ("completed", s.serve.completed),
            ("host_fallbacks", s.serve.host_fallbacks),
            ("deadline_missed", s.serve.deadline_missed),
            ("shed", s.serve.shed_queue_full + s.serve.shed_overloaded),
            ("failovers", s.failovers),
            ("crashes", s.crashes),
            ("recoveries", s.recoveries),
            ("partitions", s.partitions),
            ("stragglers", s.stragglers),
            ("hedges", s.hedges),
            ("hedge_wins", s.hedge_wins),
            ("rejoin_probes", s.rejoin_probes),
            ("rejoin_failures", s.rejoin_failures),
            ("rejoins", s.rejoins),
            ("start_cycle", p.start_cycle),
            ("end_cycle", p.end_cycle),
        ])
        .chain(p.audit.members())
        .chain([
            ("phase", Json::Str(p.name.to_string())),
            ("until", if p.until == u64::MAX { Json::Null } else { Json::Num(p.until as f64) }),
            ("goodput_eps", Json::Num(p.goodput_eps)),
        ]))
    };
    let header = cfg.trace.header().chain(counters([
        ("interval", cfg.interval),
        ("stacks", cfg.stacks as u64),
        ("stall_milli", cfg.stall_milli),
        ("wrong_answers", campaign.wrong_answers),
        ("outage_shards", campaign.outage_shards as u64),
    ]));
    report(
        "chaos-campaign-v1",
        header
            .chain([("gemv_bit_identical_outage", Json::Bool(campaign.gemv_bit_identical_outage))]),
        "phases",
        campaign.phases.iter().map(phase_json).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn small() -> ChaosCampaignConfig {
        ChaosCampaignConfig::default()
    }

    #[test]
    fn campaign_crashes_hedges_and_rejoins_with_zero_wrong_answers() {
        let report = run_campaign(&small()).unwrap();
        assert_eq!(report.phases.len(), 5);
        assert_eq!(report.wrong_answers, 0, "{report:?}");
        assert!(report.gemv_bit_identical_outage, "{report:?}");
        assert!(report.outage_shards < small().stacks, "outage gate saw no outage: {report:?}");
        let total = |f: fn(&ClusterServeStats) -> u64| {
            report.phases.iter().map(|p| f(&p.stats)).sum::<u64>()
        };
        assert_eq!(total(|s| s.crashes), 1, "{report:?}");
        assert_eq!(total(|s| s.partitions), 1, "{report:?}");
        assert_eq!(total(|s| s.rejoins), 1, "{report:?}");
        assert!(total(|s| s.failovers) > 0, "{report:?}");
        // The rejoin lands in the heal phase, not mid-outage.
        assert_eq!(report.phases[4].stats.rejoins, 1, "{report:?}");
        assert!(total(|s| s.stragglers) >= 1, "{report:?}");
        assert!(total(|s| s.hedges) >= 1, "{report:?}");
    }

    #[test]
    fn report_is_byte_identical_across_backends() {
        crate::campaign::assert_backend_invariant(|backend| {
            let cfg = ChaosCampaignConfig { backend, ..small() };
            let report = run_campaign(&cfg).unwrap();
            json::to_string(&report_json(&cfg, &report))
        });
    }
}
