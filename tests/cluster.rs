//! End-to-end tests of the multi-stack cluster layer: row-parallel
//! sharding is bit-identical to the single-stack reference at every
//! stack count and worker count (including under stack failure with
//! failover), the N=1 cluster costs nothing over the plain path, and the cluster scheduler routes
//! around a tripped stack.

mod common;

use common::{add_oracle, add_req, assert_bits_eq, gemv_inputs, single_stack_gemv, with_malformed};
use pim_bench::campaign::{build_trace, TraceShape};
use pim_bench::cluster::{report_json, run_campaign, ClusterCampaignConfig};
use pim_bench::faults::fault_mix;
use pim_bench::json;
use pim_faults::{ClusterFaultPlan, FaultPlan, LinkState};
use pim_host::{collective_cycles, ExecutionBackend};
use pim_obs::{names, Recorder, TraceId};
use pim_runtime::{
    ClusterContext, ClusterServeConfig, ClusterServer, Disposition, PimBlas, PimContext, PimError,
    ServeConfig, ServeRequest, Server,
};

#[test]
fn row_parallel_gemv_bit_identical_across_stacks_and_workers() {
    let (n, k) = (100, 64);
    let (w, x) = gemv_inputs(n, k);
    let reference = single_stack_gemv(n, k, &w, &x);
    for stacks in [1usize, 2, 4] {
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Threads(1),
            ExecutionBackend::Threads(2),
            ExecutionBackend::Threads(4),
        ] {
            let mut cluster = ClusterContext::new(stacks).unwrap();
            cluster.set_backend(backend);
            let (got, report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
            assert_bits_eq(&got, &reference, &format!("stacks={stacks} backend={backend:?}"));
            assert_eq!(report.shards, stacks.min(n));
            assert!(report.cycles > 0);
        }
    }
}

#[test]
fn row_parallel_gemv_bit_identical_under_stack_failure() {
    let (n, k) = (100, 64);
    let (w, x) = gemv_inputs(n, k);
    let reference = single_stack_gemv(n, k, &w, &x);
    let mut cluster = ClusterContext::new(4).unwrap();
    // Hard-fail every channel of member stack 2: sharding must route
    // around it and stay bit-identical over the three survivors.
    let mut plan = FaultPlan::quiet(11);
    plan.chan_fail_rate = 1.0;
    cluster.stack_mut(2).inject_faults(&plan);
    assert_eq!(cluster.healthy_stacks(), vec![0, 1, 3]);
    let (got, report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
    assert_bits_eq(&got, &reference, "failover over 3 healthy stacks");
    assert_eq!(report.shards, 3);
}

#[test]
fn single_stack_cluster_costs_nothing() {
    let (n, k) = (100, 64);
    let (w, x) = gemv_inputs(n, k);
    let mut plain = PimContext::small_system();
    let (_, plain_report) = PimBlas::gemv(&mut plain, &w, n, k, &x).unwrap();

    let mut cluster = ClusterContext::new(1).unwrap();
    let (_, report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
    assert_eq!(report.cycles, plain_report.cycles, "N=1 must add zero cycles");
    assert_eq!(report.link_bytes, 0);
    assert_eq!(report.link_cycles, 0);
    assert_eq!(cluster.stats().collectives, 0);
}

#[test]
fn multi_stack_collectives_are_counted_and_charged() {
    let (n, k) = (100, 64);
    let (w, x) = gemv_inputs(n, k);
    let mut cluster = ClusterContext::new(2).unwrap();
    let (_, report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
    assert_eq!(report.link_bytes, 4 * n as u64);
    assert!(report.link_cycles > 0);
    let stats = cluster.stats();
    assert_eq!(stats.collectives, 1);
    assert_eq!(stats.link_bytes, 4 * n as u64);
    assert_eq!(stats.link_cycles, report.link_cycles);
    // The charged time matches the topology's model for the payload.
    assert_eq!(report.link_cycles, collective_cycles(4 * n as u64, &[LinkState::NOMINAL; 2]));
}

#[test]
fn degenerate_topologies_are_refused() {
    assert!(matches!(ClusterContext::new(0), Err(PimError::Internal { .. })));
    let mut stacks: Vec<PimContext> = vec![];
    assert!(ClusterServer::new(&mut stacks, ClusterServeConfig::default()).is_err());
    let mut stacks = vec![PimContext::small_system()];
    let bad = ClusterServeConfig { replication: 0, ..ClusterServeConfig::default() };
    assert!(ClusterServer::new(&mut stacks, bad).is_err());
}

/// Sharding goes through the one GEMV shape rule: a shape whose `n * k`
/// overflows is a `SizeMismatch` before any shard is cut.
#[test]
fn sharded_gemv_refuses_a_shape_whose_product_overflows() {
    let mut cluster = ClusterContext::new(2).unwrap();
    let row = cluster.gemv_row_parallel(&[], 1 << 63, 2, &[0.0, 0.0]);
    assert!(matches!(row, Err(PimError::SizeMismatch { .. })), "{row:?}");
}

#[test]
fn cluster_serving_is_deterministic_across_backends() {
    let trace = || (0..8).map(|i| add_req(i % 4, i as u64 * 900, 80_000_000, 512)).collect();
    let run = |backend| {
        let mut cluster = ClusterContext::new(2).unwrap();
        cluster.set_backend(backend);
        let mut server =
            ClusterServer::new(cluster.stacks_mut(), ClusterServeConfig::default()).unwrap();
        server.run(trace()).unwrap()
    };
    let seq = run(ExecutionBackend::Sequential);
    assert_eq!(seq, run(ExecutionBackend::Threads(2)));
    assert_eq!(seq, run(ExecutionBackend::Threads(4)));
    assert_eq!(seq.outcomes.len(), 8);
    // Outcomes come back in submission order with global ids.
    for (i, o) in seq.outcomes.iter().enumerate() {
        assert_eq!(o.id, i);
    }
}

/// Runs a two-stack cluster over [`with_malformed`]`(x, y)`; the trace must
/// be refused before any stack simulates anything.
fn cluster_refusal(x: Vec<f32>, y: Vec<f32>) -> PimError {
    let trace = with_malformed(x, y);
    let mut cluster = ClusterContext::new(2).unwrap();
    let cfg = ClusterServeConfig::default();
    let err = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap().run(trace).unwrap_err();
    assert_eq!(cluster.max_now(), 0, "a refused trace simulated something");
    err
}

/// Operands of unequal length refuse a cluster trace as they refuse the
/// plain server's, naming the request.
#[test]
fn cluster_server_refuses_operands_of_unequal_length() {
    let err = cluster_refusal(vec![1.0; 32], vec![2.0; 16]);
    assert!(
        matches!(&err, PimError::SizeMismatch { detail } if detail.starts_with("request 1:")),
        "{err}"
    );
}

/// Empty operands refuse a cluster trace with `Empty`.
#[test]
fn cluster_server_refuses_empty_operands() {
    assert_eq!(cluster_refusal(Vec::new(), Vec::new()), PimError::Empty);
}

/// A one-stack cluster *is* the plain server: same outcomes (trace ids
/// included), same serving counters, same final clock — on a steady, an
/// overloaded and a faulty trace. The stack salt is the identity at stack 0
/// and each epoch's sub-trace keeps its trace-wide submission ids, so
/// cutting the trace into epochs changes no tie-break.
#[test]
fn one_stack_cluster_equals_the_plain_server() {
    let serve = ServeConfig { breaker_threshold: 2, ..ServeConfig::default() };
    let shape = |requests, deadline_slack| TraceShape {
        seed: 1,
        elements: 512,
        requests,
        tenants: 4,
        deadline_slack,
    };
    for (what, shape, interval, fault_rate) in [
        ("steady", shape(48, 40_000), 2_000, 0.0),
        ("overload", shape(32, 4_000), 150, 0.0),
        ("faulty", shape(24, 40_000), 20_000, 1e-3),
    ] {
        let trace = build_trace(&shape, interval, 0);
        let inject = |ctx: &mut PimContext| {
            if fault_rate > 0.0 {
                ctx.inject_faults(&fault_mix(shape.seed, fault_rate));
            }
        };

        let mut ctx = PimContext::small_system();
        inject(&mut ctx);
        let plain = Server::new(&mut ctx, serve.clone()).run(trace.clone()).unwrap();

        let mut cluster = ClusterContext::new(1).unwrap();
        inject(cluster.stack_mut(0));
        let cfg = ClusterServeConfig { serve: serve.clone(), ..ClusterServeConfig::default() };
        assert!(trace.len() >= 3 * cfg.epoch_requests, "{what}: the trace must span epochs");
        let n1 = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap().run(trace).unwrap();

        // Each trace is the regime its name says, or the identity is vacuous.
        let in_regime = match what {
            "overload" => plain.stats.deadline_missed > 0,
            "faulty" => plain.stats.relayouts > 0,
            _ => plain.stats.completed == plain.stats.submitted,
        };
        assert!(in_regime, "{what}: {:?}", plain.stats);
        assert_eq!(n1.outcomes, plain.outcomes, "{what}: outcomes");
        assert_eq!(n1.stats.serve, plain.stats, "{what}: serving counters");
        assert_eq!(n1.end_cycle, plain.end_cycle, "{what}: final clock");
    }
}

/// A request keeps one identity across the cluster: no two outcomes of a
/// multi-epoch run share a trace id, whichever stack and epoch served them.
#[test]
fn trace_ids_are_distinct_across_stacks_and_epochs() {
    let mut cluster = ClusterContext::new(4).unwrap();
    let cfg = ClusterServeConfig::default();
    let requests = 3 * cfg.epoch_requests + 1;
    let trace: Vec<ServeRequest> =
        (0..requests).map(|i| add_req(i as u32 % 4, i as u64 * 900, 80_000_000, 128)).collect();
    let report = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap().run(trace).unwrap();
    let mut ids: Vec<_> = report.outcomes.iter().map(|o| o.trace).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), requests, "trace ids collide");
}

/// The rejoin probe is recovery traffic with an identity of its own: it
/// runs on the recovered stack just ahead of that stack's first request of
/// the run (submission id 0), and its events must not carry that request's
/// — or any request's — trace id.
#[test]
fn rejoin_probe_shares_a_trace_id_with_no_request() {
    let mut cluster = ClusterContext::new(2).unwrap();
    let recorder = Recorder::vec();
    cluster.enable_profiling(recorder.clone());
    let cfg = ClusterServeConfig {
        replication: 2,
        chaos: Some(ClusterFaultPlan::quiet(17).crash(1, 0, 200_000)),
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();
    // Every request is tenant 1's, whose home is the stack that crashes:
    // the first run sees the outage, the second the verified rejoin.
    let run = |from: u64| (0..4).map(|i| add_req(1, from + i * 2_000, 500_000_000, 512)).collect();
    let outage = server.run(run(0)).unwrap();
    let healed = server.run(run(300_000)).unwrap();
    assert_eq!((healed.stats.rejoin_probes, healed.stats.rejoins), (1, 1), "{:?}", healed.stats);
    assert_eq!(healed.stats.routed, vec![0, 4], "request 0 must follow the probe onto stack 1");

    let requests: Vec<TraceId> =
        outage.outcomes.iter().chain(&healed.outcomes).map(|o| o.trace).collect();
    let admitted: Vec<TraceId> = recorder
        .events()
        .expect("vec sink retains events")
        .iter()
        .filter(|e| e.name == names::REQ_ADMIT)
        .map(|e| e.trace.expect("request events are trace-stamped").trace)
        .collect();
    assert_eq!(admitted.len(), requests.len() + 1, "one admission a request, plus the probe's");
    let foreign = admitted.iter().filter(|t| !requests.contains(t)).count();
    assert_eq!(foreign, 1, "the probe was admitted under a request's trace id");
}

#[test]
fn cluster_scheduler_fails_over_from_a_dead_stack() {
    let mut cluster = ClusterContext::new(2).unwrap();
    // Member stack 0 is dead on arrival: every channel hard-failed.
    let mut plan = FaultPlan::quiet(5);
    plan.chan_fail_rate = 1.0;
    cluster.stack_mut(0).inject_faults(&plan);

    let cfg = ClusterServeConfig {
        // The breaker stays open for the whole run: it ends long before the
        // cooldown does.
        serve: ServeConfig { breaker_threshold: 1, ..ServeConfig::default() },
        replication: 2,
        epoch_requests: 2,
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();
    // All tenant-0 requests: home is the dead stack 0.
    let reqs: Vec<ServeRequest> = (0..8).map(|i| add_req(0, i * 1_000, 500_000_000, 512)).collect();
    let oracles: Vec<Vec<f32>> = reqs.iter().map(add_oracle).collect();
    let report = server.run(reqs).unwrap();

    assert!(report.stats.stack_trips >= 1, "{:?}", report.stats);
    assert!(report.stats.failovers > 0, "no request failed over: {:?}", report.stats);
    assert!(report.stats.routed[1] > 0, "replica stack never used: {:?}", report.stats);
    // Replica-served requests complete on real PIM; every result is exact.
    assert!(report.stats.serve.completed > 0, "{:?}", report.stats);
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        assert!(
            matches!(o.disposition, Disposition::Completed | Disposition::FellBackToHost),
            "request {} ended {:?}",
            o.id,
            o.disposition
        );
        assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
    }
}

#[test]
fn stack_breaker_cooldown_runs_on_the_cluster_clock() {
    // Regression: stack-breaker failures used to be charged at the
    // *failing stack's* clock while admission read the cluster-max
    // clock. A dead stack's clock barely advances (host fallbacks are
    // cheap), so its trip's cooldown expired almost immediately in
    // cluster time and the breaker half-opened on the very next epoch —
    // routing probe traffic straight back into the sick member. Charging
    // on the cluster clock keeps the breaker open for a full cooldown of
    // *cluster* time.
    let mut cluster = ClusterContext::new(2).unwrap();
    let mut plan = FaultPlan::quiet(7);
    plan.chan_fail_rate = 1.0;
    cluster.stack_mut(0).inject_faults(&plan);

    let cfg = ClusterServeConfig {
        serve: ServeConfig { breaker_threshold: 1, ..ServeConfig::default() },
        replication: 2,
        epoch_requests: 4,
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();
    // Epoch 1: one tenant-0 request trips stack 0's breaker (host
    // fallback on the dead stack), while tenant-1 traffic drags the
    // cluster clock far past the dead stack's own (~8k cycles).
    let mut reqs = vec![add_req(0, 0, 500_000_000, 512)];
    for arrival in [100_000, 400_000, 700_000] {
        reqs.push(add_req(1, arrival, 500_000_000, 512));
    }
    // Epoch 2: another tenant-0 request at cluster time ~750k. On the
    // dead stack's lagging clock the 500k-cycle cooldown (8k + 500k) has
    // "expired"; on the cluster clock (~700k + 500k) it has not.
    reqs.push(add_req(0, 750_000, 500_000_000, 512));
    let oracles: Vec<Vec<f32>> = reqs.iter().map(add_oracle).collect();
    let report = server.run(reqs).unwrap();

    assert_eq!(report.stats.stack_trips, 1, "{:?}", report.stats);
    assert_eq!(
        report.stats.stack_half_opens, 0,
        "breaker half-opened during cluster-time cooldown: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.routed[0], 1,
        "probe re-routed into the dead stack: {:?}",
        report.stats
    );
    assert!(report.stats.failovers >= 1, "{:?}", report.stats);
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
    }
}

#[test]
fn stack_breaker_lifecycle_trips_half_opens_and_closes() {
    // Full stack-breaker lifecycle on healthy hardware: a tight-deadline
    // request degrades to the host (its 100-cycle slack is under the
    // 542-cycle PIM price of 512 elements and over the 14-cycle host price)
    // and trips the threshold-1 breaker; the next request fails over to the
    // replica; a request after the cooldown half-opens the breaker,
    // completes on PIM, and closes it.
    let mut cluster = ClusterContext::new(2).unwrap();
    let cfg = ClusterServeConfig {
        serve: ServeConfig { breaker_threshold: 1, ..ServeConfig::default() },
        replication: 2,
        epoch_requests: 1,
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();
    let reqs = vec![
        add_req(0, 0, 100, 512),               // trips stack 0 (host fallback)
        add_req(0, 90_000, 500_000_000, 512),  // breaker open -> failover to stack 1
        add_req(0, 600_000, 500_000_000, 512), // past the 500k cooldown -> half-open, closes
    ];
    let oracles: Vec<Vec<f32>> = reqs.iter().map(add_oracle).collect();
    let report = server.run(reqs).unwrap();

    assert_eq!(report.stats.stack_trips, 1, "{:?}", report.stats);
    assert_eq!(report.stats.stack_half_opens, 1, "{:?}", report.stats);
    assert_eq!(report.stats.stack_closes, 1, "{:?}", report.stats);
    assert_eq!(report.stats.failovers, 1, "{:?}", report.stats);
    assert_eq!(report.stats.routed, vec![2, 1], "{:?}", report.stats);
    assert_eq!(report.outcomes[0].disposition, Disposition::FellBackToHost);
    assert_eq!(report.outcomes[1].disposition, Disposition::Completed);
    assert_eq!(report.outcomes[2].disposition, Disposition::Completed);
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
    }
}

#[test]
fn all_replicas_open_forces_the_home_stack() {
    // When every stack in a request's replica chain has an open breaker,
    // routing falls back to the home stack anyway: its own degradation
    // ladder still guarantees a typed outcome, and that beats dropping
    // the request. No half-open is burned on the forced route.
    let mut cluster = ClusterContext::new(2).unwrap();
    // The run ends long before either breaker cools down.
    let cfg = ClusterServeConfig {
        serve: ServeConfig { breaker_threshold: 1, ..ServeConfig::default() },
        replication: 2,
        epoch_requests: 1,
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();
    let reqs = vec![
        add_req(0, 0, 100, 512),              // tight deadline: trips stack 0
        add_req(1, 1_000, 1_100, 512),        // tight deadline: trips stack 1
        add_req(0, 50_000, 500_000_000, 512), // both breakers open -> forced home
    ];
    let oracles: Vec<Vec<f32>> = reqs.iter().map(add_oracle).collect();
    let report = server.run(reqs).unwrap();

    assert_eq!(report.stats.stack_trips, 2, "{:?}", report.stats);
    assert_eq!(report.stats.stack_half_opens, 0, "{:?}", report.stats);
    assert_eq!(report.stats.routed, vec![2, 1], "forced route must land home: {:?}", report.stats);
    assert_eq!(report.stats.failovers, 0, "{:?}", report.stats);
    assert_eq!(report.outcomes[2].disposition, Disposition::Completed);
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
    }
}

#[test]
fn cluster_campaign_reports_are_backend_invariant_and_scale() {
    let d = ClusterCampaignConfig::default();
    let cfg = ClusterCampaignConfig {
        trace: TraceShape { elements: 512, requests: 12, ..d.trace },
        stack_counts: vec![1, 2],
        fault_rates: vec![0.0],
        ..d
    };
    let points = run_campaign(&cfg).unwrap();
    assert_eq!(points.len(), 2);
    assert!(points.iter().all(|p| p.audit.wrong_answers == 0));
    assert!(points.iter().all(|p| p.gemv_bit_identical && p.gemv_bit_identical_failover));
    assert!(
        points[1].goodput_eps > points[0].goodput_eps,
        "two stacks must outserve one under overload: {points:?}"
    );
    let doc = json::to_string(&report_json(&cfg, &points));
    let threaded = {
        let cfg = ClusterCampaignConfig { backend: ExecutionBackend::Threads(4), ..cfg };
        let points = run_campaign(&cfg).unwrap();
        json::to_string(&report_json(&cfg, &points))
    };
    assert_eq!(doc, threaded);
}
