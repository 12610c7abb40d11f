//! Seeded multi-stack cluster campaigns: the engine of
//! `pimcampaign cluster`.
//!
//! A campaign sweeps stack count against base fault rate. Every point
//! offers the **same** seeded open-loop request trace (arrivals salted
//! only by the fault rate, never by the stack count) to a
//! [`pim_runtime::ClusterServer`] over N single-stack systems, so the
//! goodput and tail-latency columns are an apples-to-apples scaling
//! curve. Faults, when injected, land on member stack 0 — the cluster
//! scheduler's stack-level breakers and replica chains must route around
//! the sick member.
//!
//! Each point also runs the row-parallel GEMV bit-identity gate: the
//! sharded result must match the single-stack [`pim_runtime::PimBlas::gemv`] bits
//! exactly, both on a clean cluster and with stack 0 hard-failed (the
//! failover path shards over the surviving stacks). See `docs/CLUSTER.md`
//! for why row-parallel sharding makes that exactness possible.
//!
//! Every campaign is deterministic in its config, and the JSON report
//! deliberately omits the backend so byte-equality can be asserted
//! across `Sequential`/`Threads(n)` — the same contract as
//! [`crate::serve`].

use crate::campaign::{
    build_trace, check_stacks, counters, gemv_gate, oracles, report, Audit, TraceShape,
};
use crate::faults::fault_mix;
use crate::json::{obj, Json};
use pim_faults::FaultPlan;
use pim_host::ExecutionBackend;
use pim_runtime::{
    ClusterContext, ClusterServeConfig, ClusterServeStats, ClusterServer, PimError, ServeConfig,
};

/// Campaign shape: the sweep grid and the trace parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCampaignConfig {
    /// The per-point request trace; placement spreads its tenants over
    /// the member stacks.
    pub trace: TraceShape,
    /// Mean inter-arrival cycles of the (overload-grade) trace.
    pub interval: u64,
    /// Stack counts to sweep.
    pub stack_counts: Vec<usize>,
    /// Base fault rates to sweep (injected into member stack 0).
    pub fault_rates: Vec<f64>,
    /// Host execution backend (does not affect the report).
    pub backend: ExecutionBackend,
}

impl Default for ClusterCampaignConfig {
    fn default() -> ClusterCampaignConfig {
        ClusterCampaignConfig {
            trace: TraceShape {
                seed: 0xC105,
                elements: 1024,
                requests: 32,
                tenants: 4,
                deadline_slack: 40_000,
            },
            // Far past one stack's sustainable arrival rate: the scaling
            // headroom has to come from added stacks.
            interval: 150,
            stack_counts: vec![1, 2, 4],
            fault_rates: vec![0.0, 1e-3],
            backend: ExecutionBackend::Sequential,
        }
    }
}

/// One sweep point: what the cluster scheduler did at (stacks, rate).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPoint {
    /// Member stacks at this point.
    pub stacks: usize,
    /// Base fault rate injected into stack 0.
    pub rate: f64,
    /// The cluster scheduler's counters for the point's trace.
    pub stats: ClusterServeStats,
    /// Served results audited against the exact FP16 oracle, with the
    /// latency percentiles of the served requests.
    pub audit: Audit,
    /// Cluster sim cycle at which the trace drained.
    pub end_cycle: u64,
    /// Served (correct-result) elements per second of simulated time.
    pub goodput_eps: f64,
    /// Row-parallel GEMV over a clean cluster matched the single-stack
    /// reference bit-for-bit.
    pub gemv_bit_identical: bool,
    /// The same gate with member stack 0 hard-failed (sharding over the
    /// survivors). Vacuously true at one stack.
    pub gemv_bit_identical_failover: bool,
}

/// Runs one sweep point on a fresh cluster of `stacks` members.
///
/// # Errors
///
/// [`PimError::OutOfMemory`], before the trace or the cluster is built,
/// past [`crate::campaign::MAX_STACKS`] stacks or for a shape
/// [`TraceShape::check`] refuses; otherwise propagates [`PimError`] from
/// the cluster layers (only plumbing failures — overload and fault damage
/// end as typed dispositions).
pub fn run_point(
    cfg: &ClusterCampaignConfig,
    stacks: usize,
    rate: f64,
) -> Result<ClusterPoint, PimError> {
    check_stacks(stacks)?;
    cfg.trace.check()?;
    // The trace is salted by the rate only: every stack count sees the
    // same arrivals, so the goodput column is a true scaling curve.
    let trace = build_trace(&cfg.trace, cfg.interval, ((rate * 1e9) as u64).rotate_left(32));
    let oracles = oracles(&trace);

    let mut cluster = ClusterContext::new(stacks)?;
    cluster.set_backend(cfg.backend);
    if rate > 0.0 {
        cluster.stack_mut(0).inject_faults(&fault_mix(cfg.trace.seed, rate));
    }
    let ccfg = ClusterServeConfig {
        serve: ServeConfig { breaker_threshold: 2, ..ServeConfig::default() },
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), ccfg)?;
    let report = server.run(trace)?;

    let audit = Audit::of(&report.outcomes, &oracles, report.served_latencies());
    // The row-parallel bit-identity gates, each on a fresh cluster: clean,
    // then with stack 0 hard-failed (sharding over the survivors).
    let gate = |fail_stack0: bool| -> Result<bool, PimError> {
        let mut cluster = ClusterContext::new(stacks)?;
        cluster.set_backend(cfg.backend);
        if fail_stack0 && stacks > 1 {
            let mut plan = FaultPlan::quiet(cfg.trace.seed);
            plan.chan_fail_rate = 1.0;
            cluster.stack_mut(0).inject_faults(&plan);
        }
        Ok(gemv_gate(cfg.trace.seed, cfg.backend, &mut cluster)?.0)
    };
    Ok(ClusterPoint {
        stacks,
        rate,
        audit,
        end_cycle: report.end_cycle,
        goodput_eps: audit.goodput_eps(cluster.stack(0).sys.cycles_to_seconds(report.end_cycle)),
        stats: report.stats,
        gemv_bit_identical: gate(false)?,
        gemv_bit_identical_failover: gate(true)?,
    })
}

/// Runs the full (stack-count × fault-rate) grid.
///
/// # Errors
///
/// Fails on the first point that returns a [`PimError`].
pub fn run_campaign(cfg: &ClusterCampaignConfig) -> Result<Vec<ClusterPoint>, PimError> {
    let mut points = Vec::new();
    for &stacks in &cfg.stack_counts {
        for &rate in &cfg.fault_rates {
            points.push(run_point(cfg, stacks, rate)?);
        }
    }
    Ok(points)
}

/// Serializes a campaign to the `pim-bench/cluster-campaign-v1` document.
/// Backend-independent by construction (see module docs).
pub fn report_json(cfg: &ClusterCampaignConfig, points: &[ClusterPoint]) -> Json {
    let point_json = |p: &ClusterPoint| {
        obj(counters([
            ("stacks", p.stacks as u64),
            ("submitted", p.stats.serve.submitted),
            ("completed", p.stats.serve.completed),
            ("shed_queue_full", p.stats.serve.shed_queue_full),
            ("shed_overloaded", p.stats.serve.shed_overloaded),
            ("deadline_missed", p.stats.serve.deadline_missed),
            ("host_fallbacks", p.stats.serve.host_fallbacks),
            ("failovers", p.stats.failovers),
            ("stack_trips", p.stats.stack_trips),
            ("end_cycle", p.end_cycle),
        ])
        .chain(p.audit.members())
        .chain([
            ("rate", Json::Num(p.rate)),
            ("goodput_eps", Json::Num(p.goodput_eps)),
            ("gemv_bit_identical", Json::Bool(p.gemv_bit_identical)),
            ("gemv_bit_identical_failover", Json::Bool(p.gemv_bit_identical_failover)),
        ]))
    };
    report(
        "cluster-campaign-v1",
        cfg.trace.header().chain(counters([("interval", cfg.interval)])),
        "points",
        points.iter().map(point_json).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn small() -> ClusterCampaignConfig {
        let d = ClusterCampaignConfig::default();
        ClusterCampaignConfig {
            trace: TraceShape { elements: 512, requests: 8, ..d.trace },
            stack_counts: vec![1, 2],
            fault_rates: vec![0.0],
            ..d
        }
    }

    #[test]
    fn point_serves_and_stays_exact() {
        let p = run_point(&small(), 2, 0.0).unwrap();
        assert_eq!(p.stats.serve.submitted, 8);
        assert_eq!(p.audit.wrong_answers, 0, "{p:?}");
        assert!(p.gemv_bit_identical);
        assert!(p.gemv_bit_identical_failover);
        assert!(p.goodput_eps > 0.0);
    }

    /// `pimcampaign cluster --stacks 100000` and `--elements 999999999`
    /// used to abort in the allocator; both are typed refusals before the
    /// trace or the cluster is built.
    #[test]
    fn oversized_clusters_and_traces_are_refused_before_building() {
        let s = small();
        let huge = ClusterCampaignConfig {
            trace: TraceShape { elements: 999_999_999, ..s.trace.clone() },
            ..s.clone()
        };
        for refused in [run_point(&s, 100_000, 0.0), run_point(&huge, 1, 0.0)] {
            assert!(matches!(refused, Err(PimError::OutOfMemory { .. })), "{refused:?}");
        }
    }

    #[test]
    fn grid_covers_stacks_by_rates() {
        let cfg = ClusterCampaignConfig { fault_rates: vec![0.0, 1e-3], ..small() };
        let points = run_campaign(&cfg).unwrap();
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.audit.wrong_answers == 0), "{points:?}");
        assert!(points.iter().all(|p| p.gemv_bit_identical && p.gemv_bit_identical_failover));
    }

    #[test]
    fn report_is_byte_identical_across_backends() {
        crate::campaign::assert_backend_invariant(|backend| {
            let cfg = ClusterCampaignConfig { backend, ..small() };
            let points = run_campaign(&cfg).unwrap();
            json::to_string(&report_json(&cfg, &points))
        });
    }
}
