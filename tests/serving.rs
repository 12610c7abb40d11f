//! End-to-end tests of the deterministic serving layer
//! (`pim_runtime::serve`) over the full PIM stack: overload never corrupts
//! an answer, and every request ends in a typed disposition.

mod common;

use common::{add_oracle as oracle, add_req, with_malformed};
use pim_faults::FaultPlan;
use pim_runtime::{
    Disposition, PimContext, PimError, RejectReason, ServeConfig, ServeRequest, Server,
};

/// Operands of unequal length are no request to truncate: the server
/// refuses the trace with a `SizeMismatch` naming the request, before
/// anything is simulated.
#[test]
fn server_refuses_operands_of_unequal_length() {
    let mut ctx = PimContext::small_system();
    let trace = with_malformed(vec![1.0; 32], vec![2.0; 16]);
    let err = Server::new(&mut ctx, ServeConfig::default()).run(trace).unwrap_err();
    assert!(
        matches!(&err, PimError::SizeMismatch { detail } if detail.starts_with("request 1:")),
        "{err}"
    );
    assert_eq!(ctx.sys.max_now(), 0, "a refused trace simulated something");
}

/// Empty operands refuse the trace as `PimBlas::add` refuses them.
#[test]
fn server_refuses_empty_operands() {
    let mut ctx = PimContext::small_system();
    let trace = with_malformed(Vec::new(), Vec::new());
    let err = Server::new(&mut ctx, ServeConfig::default()).run(trace).unwrap_err();
    assert_eq!(err, PimError::Empty);
    assert_eq!(ctx.sys.max_now(), 0, "a refused trace simulated something");
}

/// The headline acceptance property: a seeded overload campaign (arrival
/// rate beyond sustainable throughput, nonzero fault rate) completes with
/// zero wrong answers and zero panics, every request ending in one of the
/// four typed dispositions.
#[test]
fn overloaded_faulty_campaign_never_lies() {
    let mut ctx = PimContext::small_system();
    let mut plan = FaultPlan::quiet(42);
    plan.cell_flip_rate = 1e-3;
    plan.cmd_drop_rate = 2e-4;
    ctx.inject_faults(&plan);

    // 40 requests against ~550-cycle service with only 5000 cycles of
    // slack: the first 30 land on cycle 0, ten per tenant against
    // eight-deep queues, and the rest follow at 300-cycle spacing — far
    // past sustainable throughput.
    let requests: Vec<ServeRequest> = (0..40)
        .map(|i| {
            let arrival = (i as u64).saturating_sub(29) * 300;
            add_req(i % 3, arrival, arrival + 5_000, 1024)
        })
        .collect();
    let oracles: Vec<Vec<f32>> = requests.iter().map(oracle).collect();

    let mut server = Server::new(&mut ctx, ServeConfig::default());
    let report = server.run(requests).expect("serving never fails on load or faults");

    assert_eq!(report.outcomes.len(), 40);
    for (o, want) in report.outcomes.iter().zip(&oracles) {
        // A result is present exactly when the disposition says so, and
        // when present it is bit-exact.
        match o.disposition {
            Disposition::Completed | Disposition::FellBackToHost => {
                let got = o.result.as_ref().expect("served requests carry results");
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "request {} returned wrong data", o.id);
                }
            }
            _ => assert!(o.result.is_none(), "unserved request {} has a result", o.id),
        }
    }
    let s = &report.stats;
    assert_eq!(s.submitted, 40);
    assert!(
        s.shed_queue_full > 0 && s.deadline_missed > 0,
        "this trace must overload the scheduler: {s:?}"
    );
    // Every stat counter agrees with the disposition it summarizes.
    let count = |pred: fn(&Disposition) -> bool| {
        report.outcomes.iter().filter(|o| pred(&o.disposition)).count() as u64
    };
    assert_eq!(s.completed, count(|d| *d == Disposition::Completed));
    assert_eq!(s.shed_queue_full, count(|d| *d == Disposition::Shed(RejectReason::QueueFull)));
    assert_eq!(s.shed_overloaded, count(|d| *d == Disposition::Shed(RejectReason::Overloaded)));
    assert_eq!(s.deadline_missed, count(|d| *d == Disposition::DeadlineMissed));
}

/// The serving trace is a pure function of the request trace and seed:
/// identical runs produce identical reports (outcomes, stats, end cycle).
#[test]
fn serving_is_deterministic_across_identical_runs() {
    let run = || {
        let mut ctx = PimContext::small_system();
        let mut plan = FaultPlan::quiet(7);
        plan.cell_flip_rate = 5e-4;
        ctx.inject_faults(&plan);
        let requests: Vec<ServeRequest> = (0..12)
            .map(|i| add_req(i % 2, (i as u64) * 800, (i as u64) * 800 + 50_000, 768))
            .collect();
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        server.run(requests).unwrap()
    };
    assert_eq!(run(), run());
}

/// A channel-group hard failure trips that group's breaker; subsequent
/// requests route around it and still return exact results.
#[test]
fn hard_faults_trip_breakers_and_work_reroutes() {
    // Find a fault seed where at least one but not all channels hard-fail.
    let mut plan = FaultPlan::quiet(0);
    plan.chan_fail_rate = 0.1;
    for seed in 0..3000 {
        plan.seed = seed;
        let failed = (0..16).filter(|&c| plan.channel_failed(c)).count();
        if failed > 0 && failed <= 8 {
            break;
        }
    }
    let mut ctx = PimContext::small_system();
    ctx.inject_faults(&plan);
    let mut server =
        Server::new(&mut ctx, ServeConfig { breaker_threshold: 1, ..ServeConfig::default() });
    let requests: Vec<ServeRequest> = (0..5)
        .map(|i| add_req(0, (i as u64) * 2_000, (i as u64) * 2_000 + 60_000_000, 1536))
        .collect();
    let oracles: Vec<Vec<f32>> = requests.iter().map(oracle).collect();
    let report = server.run(requests).unwrap();
    for (o, want) in report.outcomes.iter().zip(&oracles) {
        if let Some(got) = &o.result {
            assert_eq!(got, want, "request {} returned wrong data", o.id);
        }
    }
    assert!(report.stats.breaker_trips > 0, "{:?}", report.stats);
    assert!(report.stats.completed > 0, "{:?}", report.stats);
}

/// With profiling enabled, the srv.* counters mirror the report's stats.
#[test]
fn srv_counters_mirror_stats() {
    let mut ctx = PimContext::small_system();
    let rec = pim_obs::Recorder::vec();
    ctx.enable_profiling(rec.clone());
    let mut server = Server::new(&mut ctx, ServeConfig::default());
    let requests: Vec<ServeRequest> =
        (0..4).map(|i| add_req(i, (i as u64) * 1_000, 50_000_000, 512)).collect();
    let report = server.run(requests).unwrap();
    let m = rec.metrics().registry;
    assert_eq!(m.counter(pim_obs::names::SRV_SUBMITTED), report.stats.submitted);
    assert_eq!(m.counter(pim_obs::names::SRV_ADMITTED), report.stats.admitted);
    assert_eq!(m.counter(pim_obs::names::SRV_COMPLETED), report.stats.completed);
    assert_eq!(m.counter(pim_obs::names::SRV_DEADLINE_MISSED), report.stats.deadline_missed);
}
