//! `cluster_chaos`: one request trace through a 4-stack `ClusterServer`
//! living through the `pimchaos` arc — baseline → crash → straggle ×40 →
//! partition → heal. Same `serve` core as `serve_mix` behind a different
//! front: a gain for one that costs the other shows here.

use super::{audit, count_wrong, system_commands, Rep, Scale, Sim, Workload};
use crate::gen::{build_trace, unit_vector, TraceShape};
use crate::stats::percentile_u64;
use pim_faults::ClusterFaultPlan;
use pim_runtime::{
    ClusterContext, ClusterReport, ClusterServeConfig, ClusterServeReport, ClusterServeStats,
    ClusterServer, PimBlas, PimContext, ServeRequest,
};
use std::time::Instant;

pub const STACKS: usize = 4;
/// Straggle-phase service-time stretch, in thousandths.
const STALL_MILLI: u64 = 40_000;

pub struct ClusterChaos {
    pub trace: Vec<ServeRequest>,
    pub oracles: Vec<Vec<f32>>,
    pub plan: ClusterFaultPlan,
    /// The set-up row-parallel GEMV's report (its collective charge is a
    /// per-layer metric).
    pub gemv: ClusterReport,
}

/// What one arc returned, with the host time it took.
pub struct Arc {
    pub wall_s: f64,
    pub report: ClusterServeReport,
    /// Simulated commands summed over the stacks.
    pub commands: u64,
    pub seconds_per_cycle: f64,
}

/// The arc over a trace spanning `[0, span)`: boundaries at fifths; stack 1
/// crashed from the second fifth until heal (so the verified rejoin lands in
/// the heal phase), stack 2 stalled over the third fifth, stack 3
/// partitioned over the fourth.
pub fn phased_plan(seed: u64, span: u64) -> ClusterFaultPlan {
    let t = |i: u64| span * i / 5;
    ClusterFaultPlan::quiet(seed).crash(1, t(1), t(4)).stall(2, t(2), t(3), STALL_MILLI).partition(
        3,
        t(3),
        t(4),
    )
}

/// The seeded operands `(w, n, k, x)` of the set-up's row-parallel GEMV
/// check.
pub fn gemv_operands(seed: u64, scale: Scale) -> (Vec<f32>, usize, usize, Vec<f32>) {
    let (n, k) = scale.pick((1024, 512), (192, 96));
    (unit_vector(seed, 0xC1A5_7E12, n * k), n, k, unit_vector(seed, 0xC1A5_7E13, k))
}

/// One 4-stack `gemv_row_parallel` with stack 1 crashed; returns the output
/// and the cluster's report.
pub fn row_parallel_gemv(
    seed: u64,
    w: &[f32],
    n: usize,
    k: usize,
    x: &[f32],
) -> Result<(Vec<f32>, ClusterReport), String> {
    let mut cluster = ClusterContext::new(STACKS).map_err(|e| e.to_string())?;
    cluster.install_chaos(ClusterFaultPlan::quiet(seed).crash(1, 0, u64::MAX));
    cluster.gemv_row_parallel(w, n, k, x).map_err(|e| e.to_string())
}

impl ClusterChaos {
    pub fn setup(seed: u64, scale: Scale) -> Result<ClusterChaos, String> {
        // Untimed-in-reps, checked: sharding over the three survivors must
        // not change a single bit of the single-stack result.
        let (w, n, k, x) = gemv_operands(seed, scale);
        let (got, gemv) = row_parallel_gemv(seed, &w, n, k, &x)?;
        let (want, _) = PimBlas::gemv(&mut PimContext::small_system(), &w, n, k, &x)
            .map_err(|e| e.to_string())?;
        if gemv.shards != STACKS - 1 || count_wrong(&got, &want) > 0 {
            return Err(format!(
                "row-parallel GEMV over {} shards differs from the single-stack result",
                gemv.shards
            ));
        }

        let shape = TraceShape {
            requests: scale.pick(3600, 120),
            elements: 128,
            tenants: 4,
            gap: 4_000,
            slack: 20_000,
        };
        let (trace, oracles) = build_trace(seed, 0xC4A05, shape);
        let span = trace.last().map_or(1, |r| r.arrival + 1);
        Ok(ClusterChaos { trace, oracles, plan: phased_plan(seed, span), gemv })
    }

    /// The scheduler configuration of the arc (the `pimchaos` campaign's:
    /// chains of 3 so a straggler next to the partitioned stack can still
    /// hedge, short epochs so a hedge lands while its deadline is live).
    fn config(&self) -> ClusterServeConfig {
        ClusterServeConfig {
            replication: 3,
            epoch_requests: 4,
            chaos: Some(self.plan.clone()),
            ..ClusterServeConfig::default()
        }
    }

    /// One arc on a fresh cluster, timing only `ClusterServer::new` + `run`.
    pub fn run_arc(&self) -> Result<Arc, String> {
        let mut cluster = ClusterContext::new(STACKS).map_err(|e| e.to_string())?;
        let trace = self.trace.clone();
        let watch = Instant::now();
        let report = ClusterServer::new(cluster.stacks_mut(), self.config())
            .and_then(|mut server| server.run(trace))
            .map_err(|e| e.to_string());
        let wall_s = watch.elapsed().as_secs_f64();
        Ok(Arc {
            wall_s,
            report: report?,
            commands: (0..STACKS).map(|s| system_commands(&cluster.stack(s).sys)).sum(),
            seconds_per_cycle: cluster.stack(0).sys.cycles_to_seconds(1),
        })
    }
}

/// The `runtime.cluster_serve.*` counters of an arc.
pub fn arc_counts(s: &ClusterServeStats) -> Vec<(String, f64)> {
    [
        ("failovers", s.failovers),
        ("hedges", s.hedges),
        ("hedge_wins", s.hedge_wins),
        ("stragglers", s.stragglers),
        ("crashes", s.crashes),
        ("partitions", s.partitions),
        ("rejoins", s.rejoins),
        ("rejoin_failures", s.rejoin_failures),
        ("stack_trips", s.stack_trips),
        ("host_fallbacks", s.serve.host_fallbacks),
    ]
    .into_iter()
    .map(|(name, v)| (format!("runtime.cluster_serve.{name}"), v as f64))
    .collect()
}

impl Workload for ClusterChaos {
    fn rep(&mut self, _index: usize) -> Rep {
        let attempted = self.trace.len() as u64;
        let Ok(Arc { wall_s, report, commands, seconds_per_cycle }) = self.run_arc() else {
            return Rep {
                wall_s: 0.0,
                sim: Sim { attempted, failed: attempted, ..Sim::default() },
            };
        };
        let (served, wrong) = audit(&report.outcomes, &self.oracles);
        let latencies = report.served_latencies();
        let s = &report.stats;
        // The arc must complete: a crash, a hedge and a verified rejoin.
        let arc_done = s.crashes >= 1 && s.hedges >= 1 && s.rejoins >= 1;
        let served_ops = latencies.len() as u64;
        let sim = Sim {
            attempted,
            // A request is unserved when neither its home stack nor a hedge
            // produced a result (shed, or deadline missed everywhere).
            unserved: attempted - served_ops,
            failed: if arc_done { 0 } else { attempted },
            wrong_answers: wrong,
            commands,
            cycles_per_op: report.end_cycle as f64 / attempted as f64,
            latency_p50: percentile_u64(&latencies, 50),
            latency_p99: percentile_u64(&latencies, 99),
            goodput_eps: (served - wrong) as f64 / (report.end_cycle as f64 * seconds_per_cycle),
            counts: arc_counts(s),
        };
        Rep { wall_s, sim }
    }
}
