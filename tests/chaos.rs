//! End-to-end tests of the cluster chaos layer: phased fault schedules
//! drive routing (crashed and partitioned stacks are skipped, then come
//! back), degraded links make collectives dearer without touching
//! result bits, a crashed stack rejoins only through a verified
//! re-replication probe, and stragglers trigger hedged dispatch.

mod common;

use common::{add_oracle, add_req, assert_bits_eq, gemv_inputs, single_stack_gemv};
use pim_faults::ClusterFaultPlan;
use pim_host::{LINK_BYTES_PER_CYCLE, LINK_LATENCY_CYCLES};
use pim_runtime::{
    ClusterContext, ClusterServeConfig, ClusterServer, Disposition, ServeRequest, StackHealth,
};

#[test]
fn sharding_routes_around_crashed_and_partitioned_stacks() {
    let (n, k) = (100, 64);
    let (w, x) = gemv_inputs(n, k);
    let reference = single_stack_gemv(n, k, &w, &x);

    let mut cluster = ClusterContext::new(4).unwrap();
    // Stack 1 crashes and stack 3's link partitions over the same long
    // window; both heal at cycle 1M.
    cluster.install_chaos(
        ClusterFaultPlan::quiet(3).crash(1, 10_000, 1_000_000).partition(3, 10_000, 1_000_000),
    );

    // Inside the window only stacks 0 and 2 may shard — and row-parallel
    // over the two survivors is still bit-identical to single-stack.
    cluster.advance_cluster_to(20_000);
    assert_eq!(cluster.available_stacks(), vec![0, 2]);
    let (got, report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
    assert_bits_eq(&got, &reference, "mid-outage over 2 survivors");
    assert_eq!(report.shards, 2);

    // Past the window everyone is back and sharding widens again.
    cluster.advance_cluster_to(2_000_000);
    assert_eq!(cluster.available_stacks(), vec![0, 1, 2, 3]);
    let (got, report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
    assert_bits_eq(&got, &reference, "post-heal over 4 stacks");
    assert_eq!(report.shards, 4);
}

#[test]
fn degraded_links_make_collectives_dearer_not_different() {
    let (n, k) = (100, 64);
    let (w, x) = gemv_inputs(n, k);
    let reference = single_stack_gemv(n, k, &w, &x);

    let mut nominal = ClusterContext::new(4).unwrap();
    let (bits_nominal, rep_nominal) = nominal.gemv_row_parallel(&w, n, k, &x).unwrap();

    let mut degraded = ClusterContext::new(4).unwrap();
    // A 4x latency spike on stack 0's link and an 8x bandwidth cut on
    // stack 1's, in force for the whole run.
    degraded.install_chaos(
        ClusterFaultPlan::quiet(9).latency_spike(0, 0, u64::MAX, 4000).bandwidth_cut(
            1,
            0,
            u64::MAX,
            8,
        ),
    );
    let (bits_degraded, rep_degraded) = degraded.gemv_row_parallel(&w, n, k, &x).unwrap();

    // Link health prices time, never data: both runs are bit-identical
    // to the single-stack reference, but the degraded collective pays the
    // ring walk's closed form through the damaged links: stack 0's hop at
    // 4x latency, and serialisation at stack 1's 8x-narrower width.
    assert_bits_eq(&bits_nominal, &reference, "nominal links");
    assert_bits_eq(&bits_degraded, &reference, "degraded links");
    let per_link = (4 * n as u64).div_ceil(3);
    assert_eq!(
        rep_nominal.link_cycles,
        3 * LINK_LATENCY_CYCLES + per_link.div_ceil(LINK_BYTES_PER_CYCLE)
    );
    assert_eq!(
        rep_degraded.link_cycles,
        (4 + 1 + 1) * LINK_LATENCY_CYCLES + per_link.div_ceil(LINK_BYTES_PER_CYCLE / 8)
    );
    assert_eq!(rep_degraded.link_bytes, rep_nominal.link_bytes);
}

#[test]
fn crashed_stack_rejoins_only_after_verified_re_replication() {
    let mut cluster = ClusterContext::new(2).unwrap();
    let cfg = ClusterServeConfig {
        replication: 2,
        chaos: Some(ClusterFaultPlan::quiet(17).crash(1, 0, 200_000)),
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();

    // Run 1: inside the crash window. Tenant-1 traffic (home = the
    // crashed stack 1) must fail over to stack 0; nothing routes to the
    // crashed member.
    let outage: Vec<ServeRequest> =
        (0..8).map(|i| add_req(i % 2, i as u64 * 2_000, 500_000_000, 512)).collect();
    let oracles: Vec<Vec<f32>> = outage.iter().map(add_oracle).collect();
    let report = server.run(outage).unwrap();
    assert_eq!(report.stats.crashes, 1, "{:?}", report.stats);
    assert_eq!(report.stats.routed, vec![8, 0], "{:?}", report.stats);
    assert!(report.stats.failovers >= 4, "{:?}", report.stats);
    assert_eq!(report.stats.rejoins, 0, "{:?}", report.stats);
    assert_eq!(server.stack_health()[1], StackHealth::Crashed);
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
    }

    // Run 2: arrivals past the window. The recovered stack re-enters
    // routing only through the verified rejoin — a re-replication charge
    // plus one probe request checked bit-exact against the FP16 oracle —
    // and then serves its tenant's traffic again.
    let healed: Vec<ServeRequest> =
        (0..8).map(|i| add_req(i % 2, 300_000 + i as u64 * 2_000, 500_000_000, 512)).collect();
    let oracles: Vec<Vec<f32>> = healed.iter().map(add_oracle).collect();
    let report = server.run(healed).unwrap();
    assert_eq!(report.stats.recoveries, 1, "{:?}", report.stats);
    assert_eq!(report.stats.rejoin_probes, 1, "{:?}", report.stats);
    assert_eq!(report.stats.rejoin_failures, 0, "{:?}", report.stats);
    assert_eq!(report.stats.rejoins, 1, "{:?}", report.stats);
    assert!(report.stats.routed[1] > 0, "rejoined stack never served: {:?}", report.stats);
    assert_eq!(server.stack_health()[1], StackHealth::Up);
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
    }
}

#[test]
fn straggling_stack_triggers_hedged_dispatch() {
    let mut cluster = ClusterContext::new(2).unwrap();
    let cfg = ClusterServeConfig {
        replication: 2,
        epoch_requests: 2,
        // A 50x stall on stack 1 for the whole run: its first epoch's
        // observed latency blows the 2x-median hedge threshold, and its
        // later queued requests expire unstarted behind the stall.
        chaos: Some(ClusterFaultPlan::quiet(23).stall(1, 0, u64::MAX, 50_000)),
        ..ClusterServeConfig::default()
    };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();

    // Alternating tenants: every epoch gives each stack one request, so
    // the cluster median is always observable from the healthy stack.
    let reqs: Vec<ServeRequest> =
        (0..8).map(|i| add_req(i % 2, i as u64 * 1_000, i as u64 * 1_000 + 40_000, 512)).collect();
    let oracles: Vec<Vec<f32>> = reqs.iter().map(add_oracle).collect();
    let report = server.run(reqs).unwrap();

    assert!(report.stats.stragglers >= 1, "{:?}", report.stats);
    assert!(report.stats.hedges >= 1, "{:?}", report.stats);
    assert!(report.stats.hedge_wins >= 1, "{:?}", report.stats);
    // Every hedge-rescued request carries a bit-exact result; without
    // hedging those queued-never-started expiries would have no result
    // at all.
    let mut rescued = 0;
    for (o, oracle) in report.outcomes.iter().zip(&oracles) {
        if o.disposition == Disposition::Completed && o.id % 2 == 1 {
            rescued += 1;
        }
        if let Some(result) = o.result.as_deref() {
            assert_eq!(result, &oracle[..], "request {}", o.id);
        }
    }
    assert!(rescued >= 1, "no straggler-homed request was rescued: {:?}", report.stats);
}

#[test]
fn chaos_serving_answers_every_request_through_a_crash() {
    let plan = ClusterFaultPlan::quiet(31)
        .crash(1, 5_000, 60_000)
        .stall(2, 10_000, 80_000, 3000)
        .partition(3, 20_000, 90_000)
        .latency_spike(2, 0, 100_000, 2500);
    let mut cluster = ClusterContext::new(4).unwrap();
    let cfg = ClusterServeConfig { chaos: Some(plan), ..ClusterServeConfig::default() };
    let mut server = ClusterServer::new(cluster.stacks_mut(), cfg).unwrap();
    let reqs: Vec<ServeRequest> =
        (0..12).map(|i| add_req(i % 4, i as u64 * 1_500, 500_000_000, 512)).collect();
    let report = server.run(reqs).unwrap();
    assert_eq!(report.outcomes.len(), 12);
    assert!(report.stats.crashes >= 1, "{:?}", report.stats);
}
