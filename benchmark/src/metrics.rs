//! The metric tables: what the benchmark reports, in which unit, which way
//! is better, and — for end-to-end metrics — by how much a later change may
//! worsen it. `BENCHMARK.json` repeats these tables; a self-test keeps the
//! two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric. Every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// `true` for a pure function of (code, seed): two runs with one seed
    /// must agree exactly, whatever `bound` says across seeds.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact: false }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact: true }
}

/// The end-to-end metrics, in report order. *Host* metrics are what the
/// simulator costs to run; *sim* metrics are what the modelled hardware
/// would do. A sim metric's bound only has to absorb the difference between
/// seeds (arrival jitter, fault sites); at one seed it repeats exactly.
pub const END_TO_END: [EndToEnd; 9] = [
    host("setup_s", "s", Better::Lower, 0.25),
    host("host_ops_per_s", "op/s", Better::Higher, 0.25),
    host("host_cmds_per_s", "cmd/s", Better::Higher, 0.25),
    host("host_peak_rss_mb", "MiB", Better::Lower, 0.10),
    sim("sim_cycles_per_op", "cycles", Better::Lower, 0.08),
    sim("sim_latency_p50_cycles", "cycles", Better::Lower, 0.05),
    sim("sim_latency_p99_cycles", "cycles", Better::Lower, 0.25),
    sim("sim_goodput_eps", "elem/s", Better::Higher, 0.20),
    sim("served_ops_share", "ratio", Better::Higher, 0.20),
];

/// One per-layer metric: a single layer's count, unit cost or share, and
/// the prediction written down before measuring — which end-to-end metric
/// it should move, on which workloads (it should stay flat elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better, moves, on }
}

const COLD: &str = "gemv_cold";
const WARM: &str = "gemv_warm";
const STREAM: &str = "stream_raw";
const SERVE: &str = "serve_mix";
const CLUSTER: &str = "cluster_chaos";
const PAPER: &str = "paper_fig10";
const ALL: &[&str] = &[COLD, WARM, STREAM, SERVE, CLUSTER, PAPER];

/// The per-layer metrics, in report order. Names are
/// `<crate>.<module>.<what>`; a `.A` / `.B` / `.C` suffix is a `serve_mix`
/// load point. Counts are exact; times are estimates taken from outside.
/// A traced run of a workload not in `on` prints 0 for the metric.
pub const PER_LAYER: [PerLayer; 115] = [
    layer("trace.ladder.unattributed_share", "ratio", Better::Lower, "host_ops_per_s", ALL),
    layer("trace.ladder.clamped_share", "ratio", Better::Lower, "host_ops_per_s", ALL),
    layer("trace.root_ms", "ms", Better::Lower, "host_ops_per_s", ALL),
    layer("trace.overhead_ratio", "ratio", Better::Lower, "host_ops_per_s", ALL),
    layer(
        "fp16.ladder.share",
        "ratio",
        Better::Lower,
        "host_ops_per_s",
        &[COLD, WARM, SERVE, CLUSTER],
    ),
    layer("dram.ladder.share", "ratio", Better::Lower, "host_cmds_per_s", &[STREAM]),
    layer("core.ladder.share", "ratio", Better::Lower, "host_ops_per_s", &[COLD, WARM, STREAM]),
    layer("host.ladder.share", "ratio", Better::Lower, "host_ops_per_s", &[COLD, PAPER]),
    layer("runtime.ladder.share", "ratio", Better::Lower, "host_ops_per_s", &[SERVE, CLUSTER]),
    layer("models.ladder.share", "ratio", Better::Lower, "host_ops_per_s", &[PAPER]),
    layer("energy.ladder.share", "ratio", Better::Lower, "host_ops_per_s", &[PAPER]),
    layer("check.wrong_answers", "count", Better::Lower, "served_ops_share", ALL),
    layer("check.ops_failed", "count", Better::Lower, "served_ops_share", ALL),
    layer("fp16.mac_lanes.ns_per_call", "ns", Better::Lower, "host_ops_per_s", &[WARM]),
    layer("fp16.convert.ns_per_elem", "ns", Better::Lower, "host_ops_per_s", &[COLD, SERVE]),
    layer("fp16.addmul.ns_per_elem", "ns", Better::Lower, "host_ops_per_s", &[SERVE]),
    layer("dram.ctrl.raw_ns_per_cmd", "ns", Better::Lower, "host_cmds_per_s", &[STREAM, COLD]),
    layer("dram.ctrl.row_hit_ratio", "ratio", Better::Higher, "host_cmds_per_s", &[STREAM]),
    layer("dram.ctrl.frfcfs_ns_per_req", "ns", Better::Lower, "host_cmds_per_s", &[STREAM]),
    layer("core.channel.sb_ns_per_cmd", "ns", Better::Lower, "host_cmds_per_s", &[STREAM, COLD]),
    layer("core.channel.abpim_ns_per_cmd", "ns", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("core.unit.triggers_per_op", "count", Better::Lower, "host_ops_per_s", &[COLD, WARM]),
    layer("core.unit.ns_per_trigger", "ns", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("core.tape.record_ns_per_trigger", "ns", Better::Lower, "setup_s", &[WARM]),
    layer("core.tape.replay_ns_per_trigger", "ns", Better::Lower, "host_ops_per_s", &[WARM]),
    layer("core.schedule.derive_us", "us", Better::Lower, "setup_s", &[COLD, WARM]),
    layer(
        "host.engine.run_system_ns_per_cmd",
        "ns",
        Better::Lower,
        "host_cmds_per_s",
        &[COLD, STREAM],
    ),
    layer(
        "host.engine.system_over_channel_ratio",
        "ratio",
        Better::Lower,
        "host_ops_per_s",
        &[COLD, STREAM],
    ),
    layer(
        "host.engine.fenced_over_ordered_ratio",
        "ratio",
        Better::Lower,
        "host_ops_per_s",
        &[COLD],
    ),
    layer(
        "host.engine.fences_per_op",
        "count",
        Better::Lower,
        "host_ops_per_s",
        &[COLD, WARM, STREAM],
    ),
    layer("host.fastpath.hit_ratio", "ratio", Better::Higher, "host_ops_per_s", &[COLD, WARM]),
    layer("host.fastpath.hits", "count", Better::Higher, "host_ops_per_s", &[COLD, WARM]),
    layer("host.fastpath.misses", "count", Better::Lower, "host_ops_per_s", &[COLD, WARM]),
    layer("host.fastpath.insertions", "count", Better::Lower, "host_ops_per_s", &[COLD, WARM]),
    layer("host.fastpath.uncacheable", "count", Better::Lower, "host_ops_per_s", &[COLD, WARM]),
    layer("host.fastpath.unproven", "count", Better::Lower, "host_ops_per_s", &[COLD, WARM]),
    layer("host.fastpath.cold_over_warm_ratio", "ratio", Better::Higher, "host_ops_per_s", &[WARM]),
    layer("host.fastpath.record_overhead_ratio", "ratio", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("host.predictor.predict_us", "us", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("host.predictor.cycle_err", "cycles", Better::Lower, "sim_cycles_per_op", &[COLD]),
    layer("host.parallel.t2_speedup", "ratio", Better::Higher, "host_ops_per_s", &[COLD, STREAM]),
    layer(
        "host.cluster.collective_cycles_per_gemv",
        "cycles",
        Better::Lower,
        "sim_cycles_per_op",
        &[CLUSTER],
    ),
    layer("runtime.blas.gemv_overhead_share", "ratio", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("runtime.plan.prepare_ms", "ms", Better::Lower, "setup_s", &[WARM]),
    layer("runtime.plan.launch_overhead_share", "ratio", Better::Lower, "host_ops_per_s", &[WARM]),
    layer("runtime.blas.stream_us_per_elem", "us", Better::Lower, "host_ops_per_s", &[SERVE]),
    layer("runtime.serve.host_us_per_req.A", "us", Better::Lower, "host_ops_per_s", &[SERVE]),
    layer("runtime.serve.host_us_per_req.B", "us", Better::Lower, "host_ops_per_s", &[SERVE]),
    layer("runtime.serve.host_us_per_req.C", "us", Better::Lower, "host_ops_per_s", &[SERVE]),
    layer(
        "runtime.serve.sched_overhead_share.A",
        "ratio",
        Better::Lower,
        "host_ops_per_s",
        &[SERVE],
    ),
    layer("runtime.serve.useful_ratio.A", "ratio", Better::Higher, "served_ops_share", &[SERVE]),
    layer("host.fastpath.hit_ratio.A", "ratio", Better::Higher, "host_ops_per_s", &[SERVE]),
    layer("runtime.serve.completed.A", "count", Better::Higher, "served_ops_share", &[SERVE]),
    layer("runtime.serve.admitted.A", "count", Better::Higher, "served_ops_share", &[SERVE]),
    layer("runtime.serve.shed_queue_full.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.shed_overloaded.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.deadline_missed.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.host_fallbacks.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.watchdog_cancels.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.breaker_trips.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.relayouts.A", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.useful_ratio.B", "ratio", Better::Higher, "served_ops_share", &[SERVE]),
    layer("host.fastpath.hit_ratio.B", "ratio", Better::Higher, "host_ops_per_s", &[SERVE]),
    layer("runtime.serve.completed.B", "count", Better::Higher, "served_ops_share", &[SERVE]),
    layer("runtime.serve.admitted.B", "count", Better::Higher, "served_ops_share", &[SERVE]),
    layer("runtime.serve.shed_queue_full.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.shed_overloaded.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.deadline_missed.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.host_fallbacks.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.watchdog_cancels.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.breaker_trips.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.relayouts.B", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.useful_ratio.C", "ratio", Better::Higher, "served_ops_share", &[SERVE]),
    layer("host.fastpath.hit_ratio.C", "ratio", Better::Higher, "host_ops_per_s", &[SERVE]),
    layer("runtime.serve.completed.C", "count", Better::Higher, "served_ops_share", &[SERVE]),
    layer("runtime.serve.admitted.C", "count", Better::Higher, "served_ops_share", &[SERVE]),
    layer("runtime.serve.shed_queue_full.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.shed_overloaded.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.deadline_missed.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.host_fallbacks.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.watchdog_cancels.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.breaker_trips.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.serve.relayouts.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.resilience.add_us_per_elem", "us", Better::Lower, "host_ops_per_s", &[SERVE]),
    layer("runtime.resilience.retries", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer("runtime.resilience.quarantined", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer(
        "runtime.resilience.fallback_blocks",
        "count",
        Better::Lower,
        "served_ops_share",
        &[SERVE],
    ),
    layer("faults.injected.C", "count", Better::Lower, "served_ops_share", &[SERVE]),
    layer(
        "runtime.cluster_serve.n1_over_server_ratio",
        "ratio",
        Better::Lower,
        "host_ops_per_s",
        &[SERVE],
    ),
    layer(
        "runtime.cluster_serve.n1_sim_identical",
        "bool",
        Better::Higher,
        "sim_cycles_per_op",
        &[SERVE],
    ),
    layer(
        "runtime.cluster_serve.host_us_per_req",
        "us",
        Better::Lower,
        "host_ops_per_s",
        &[CLUSTER],
    ),
    layer(
        "runtime.cluster_serve.failovers",
        "count",
        Better::Lower,
        "sim_latency_p99_cycles",
        &[CLUSTER],
    ),
    layer(
        "runtime.cluster_serve.hedges",
        "count",
        Better::Lower,
        "sim_latency_p99_cycles",
        &[CLUSTER],
    ),
    layer(
        "runtime.cluster_serve.hedge_wins",
        "count",
        Better::Higher,
        "served_ops_share",
        &[CLUSTER],
    ),
    layer(
        "runtime.cluster_serve.stragglers",
        "count",
        Better::Lower,
        "sim_latency_p99_cycles",
        &[CLUSTER],
    ),
    layer("runtime.cluster_serve.crashes", "count", Better::Lower, "served_ops_share", &[CLUSTER]),
    layer(
        "runtime.cluster_serve.partitions",
        "count",
        Better::Lower,
        "served_ops_share",
        &[CLUSTER],
    ),
    layer("runtime.cluster_serve.rejoins", "count", Better::Higher, "served_ops_share", &[CLUSTER]),
    layer(
        "runtime.cluster_serve.rejoin_failures",
        "count",
        Better::Lower,
        "served_ops_share",
        &[CLUSTER],
    ),
    layer(
        "runtime.cluster_serve.stack_trips",
        "count",
        Better::Lower,
        "served_ops_share",
        &[CLUSTER],
    ),
    layer(
        "runtime.cluster_serve.host_fallbacks",
        "count",
        Better::Lower,
        "served_ops_share",
        &[CLUSTER],
    ),
    layer("runtime.cluster.row_parallel_ms", "ms", Better::Lower, "setup_s", &[CLUSTER]),
    layer(
        "runtime.cluster.row_parallel_over_single_ratio",
        "ratio",
        Better::Lower,
        "setup_s",
        &[CLUSTER],
    ),
    layer("faults.chaos_windows", "count", Better::Lower, "served_ops_share", &[CLUSTER]),
    layer("models.cost.pim_gemv_ms_per_shape", "ms", Better::Lower, "host_ops_per_s", &[PAPER]),
    layer("models.cost.shapes_simulated", "count", Better::Lower, "host_ops_per_s", &[PAPER]),
    layer("models.cost.cache_hit_ratio", "ratio", Better::Higher, "host_ops_per_s", &[PAPER]),
    layer("models.runner.us_per_run", "us", Better::Lower, "host_ops_per_s", &[PAPER]),
    layer("models.paper.rel_err_max", "ratio", Better::Lower, "sim_goodput_eps", &[PAPER]),
    layer("models.paper.rel_err_mean", "ratio", Better::Lower, "sim_goodput_eps", &[PAPER]),
    layer("energy.trace.us_per_run", "us", Better::Lower, "host_ops_per_s", &[PAPER]),
    layer("verify.analyze.ms_per_kernel", "ms", Better::Lower, "setup_s", &[COLD, WARM]),
    layer("obs.recorder.overhead_ratio", "ratio", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("obs.recorder.events_per_op", "count", Better::Lower, "host_ops_per_s", &[COLD]),
    layer("obs.recorder.warm_hits_lost", "count", Better::Lower, "host_ops_per_s", &[WARM]),
];
