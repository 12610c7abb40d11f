//! Request-scoped tracing integration tests: trace contexts minted at
//! admission must survive the whole serving stack — EDF dispatch, the
//! degradation ladder, per-channel recorder buffer swaps under the
//! threaded backend, and the stable merge back — byte-identically, and the
//! cycle-attribution decomposition built from the traced stream must
//! conserve simulated cycles exactly.

use pim_bench::campaign::TraceShape;
use pim_bench::serve::ServeCampaignConfig;
use pim_bench::trace::{run_traced, run_traced_report};
use pim_faults::FaultPlan;
use pim_host::ExecutionBackend;
use pim_obs::{names, Attribution, Event, Recorder, TraceCtx, TraceId};
use pim_runtime::{resilient_add, PimContext, ResilienceConfig};

fn small(backend: ExecutionBackend) -> ServeCampaignConfig {
    let d = ServeCampaignConfig::default();
    ServeCampaignConfig {
        trace: TraceShape { elements: 512, requests: 6, ..d.trace },
        intervals: vec![],
        fault_rates: vec![],
        backend,
    }
}

fn traced_events(backend: ExecutionBackend, interval: u64, rate: f64) -> Vec<Event> {
    let (_, recorder, _) = run_traced_report(&small(backend), interval, rate).expect("traced run");
    recorder.events().expect("vec sink retains events")
}

#[test]
fn request_events_carry_trace_context_end_to_end() {
    let cfg = small(ExecutionBackend::Sequential);
    // Trace ids are minted from the *server's* seed (not the campaign's):
    // the campaign runner drives the server with its default config.
    let server_seed = pim_runtime::ServeConfig::default().seed;
    let (report, recorder, _) = run_traced_report(&cfg, 5_000, 0.0).expect("traced run");
    let events = recorder.events().expect("events");

    // Every request-lifecycle instant is trace-stamped, and the admission →
    // dispatch → launch → done chain is complete for every completed
    // request.
    let req_events: Vec<&Event> = events.iter().filter(|e| e.cat == names::CAT_REQUEST).collect();
    assert!(!req_events.is_empty());
    assert!(req_events.iter().all(|e| e.trace.is_some()), "untraced request event");

    for o in &report.outcomes {
        let stages: Vec<&str> = req_events
            .iter()
            .filter(|e| e.trace.is_some_and(|t| t.trace == o.trace))
            .map(|e| e.name.as_ref())
            .collect();
        assert!(stages.contains(&names::REQ_ADMIT), "{stages:?}");
        assert!(stages.contains(&names::REQ_DISPATCH), "{stages:?}");
        assert!(stages.contains(&names::REQ_LAUNCH), "{stages:?}");
        assert!(stages.contains(&names::REQ_DONE), "{stages:?}");
        // The outcome's trace id is the deterministic mint for its id.
        assert_eq!(o.trace, TraceId::mint(server_seed, o.id as u64));
    }

    // Launch instants run under a *child* span of the request root, so
    // retries are distinguishable; the root span stamps the rest.
    for e in &req_events {
        if e.name != names::REQ_LAUNCH {
            continue;
        }
        let ctx = e.trace.expect("stamped above");
        // mix(trace.0) is the root span; a launch runs under a child.
        assert_ne!(ctx.span.0, pim_obs::trace::mix(ctx.trace.0), "launch on root span");
    }

    // The ambient trace reaches the device layers: command-level events
    // executed on behalf of a request carry its context (joining every
    // simulator event back to a tenant).
    let traced_commands =
        events.iter().filter(|e| e.cat == names::CAT_COMMAND && e.trace.is_some()).count();
    assert!(traced_commands > 0, "no command-level event joined a request");
}

#[test]
fn trace_stamps_survive_buffer_swap_and_merge_byte_identically() {
    let reference = traced_events(ExecutionBackend::Sequential, 5_000, 0.0);
    for workers in [1, 2, 4, 8] {
        let threaded = traced_events(ExecutionBackend::Threads(workers), 5_000, 0.0);
        assert_eq!(
            reference, threaded,
            "event stream (with trace stamps) diverged under {workers} workers"
        );
    }
}

#[test]
fn faulty_run_with_relayouts_and_fallbacks_stays_deterministic() {
    // A fault rate high enough to push requests down the degradation
    // ladder (watchdog cancels, re-layouts, host fallbacks) — the
    // per-channel buffers then carry mid-request trace stamps through
    // quarantine-driven re-planning, and the merge must still be exact.
    let (report, _, _) =
        run_traced_report(&small(ExecutionBackend::Sequential), 2_000, 1e-3).expect("run");
    assert!(
        report.stats.relayouts + report.stats.host_fallbacks + report.stats.watchdog_cancels > 0,
        "fault rate too low to exercise the ladder: {:?}",
        report.stats
    );

    let reference = traced_events(ExecutionBackend::Sequential, 2_000, 1e-3);
    for workers in [2, 4, 8] {
        let threaded = traced_events(ExecutionBackend::Threads(workers), 2_000, 1e-3);
        assert_eq!(reference, threaded, "faulty event stream diverged under {workers} workers");
    }
}

#[test]
fn attribution_conserves_cycles_on_traced_serve_runs() {
    for rate in [0.0, 1e-3] {
        let (report, recorder, channels) =
            run_traced_report(&small(ExecutionBackend::Sequential), 3_000, rate).expect("run");
        let events = recorder.events().expect("events");
        let a = Attribution::from_events(&events, channels, report.end_cycle).expect("attribution");
        a.check_conservation().expect("conservation");
        assert_eq!(a.total(), u128::from(channels) * u128::from(report.end_cycle));
        for ch in 0..channels {
            assert_eq!(a.channel_total(ch), report.end_cycle, "channel {ch} leaked cycles");
        }
    }
}

#[test]
fn exported_artifacts_match_across_all_worker_counts() {
    let reference = run_traced(&small(ExecutionBackend::Sequential), 5_000, 0.0).expect("run");
    for workers in [1, 2, 4, 8] {
        let alt = run_traced(&small(ExecutionBackend::Threads(workers)), 5_000, 0.0).expect("run");
        assert_eq!(reference.chrome, alt.chrome, "trace.json differs at {workers} workers");
        assert_eq!(reference.folded, alt.folded, "attrib.folded differs at {workers} workers");
        assert_eq!(
            reference.openmetrics, alt.openmetrics,
            "metrics.om differs at {workers} workers"
        );
    }
}

#[test]
fn resilience_ladder_events_inherit_the_ambient_trace() {
    // Half the channels hard-failed: the ladder retries, quarantines the
    // bad channels, and (quarantine budget exceeded) falls back to the
    // host for the still-wrong blocks.
    let plan = FaultPlan { chan_fail_rate: 0.45, ..FaultPlan::quiet(11) };
    let mut ctx = PimContext::small_system();
    ctx.inject_faults(&plan);
    let recorder = Recorder::vec();
    ctx.enable_profiling(recorder.clone());

    // An ambient trace on the recorder (as the serving layer installs per
    // request) must stamp the ladder's lifecycle events too.
    let ambient = TraceCtx::root(0xABCD, 7, 3);
    recorder.set_trace(Some(ambient));

    let n = 4096;
    let x: Vec<f32> = (0..n).map(|i| (i % 19) as f32 * 0.5).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.25).collect();
    let cfg = ResilienceConfig { max_quarantine: 2, ..ResilienceConfig::default() };
    let (out, rep) = resilient_add(&mut ctx, &x, &y, &cfg).expect("resilient add");
    recorder.set_trace(None);
    assert_eq!(out.len(), n);
    assert!(rep.retries > 0, "{rep:?}");
    assert!(!rep.quarantined.is_empty(), "{rep:?}");
    assert!(rep.fallback.is_some(), "{rep:?}");

    let events = recorder.events().expect("events");
    for name in [names::RES_RETRY_EVENT, names::RES_QUARANTINE_EVENT, names::RES_FALLBACK_EVENT] {
        let found: Vec<&Event> = events.iter().filter(|e| e.name == name).collect();
        assert!(!found.is_empty(), "no `{name}` events");
        assert!(found.iter().all(|e| e.trace == Some(ambient)), "`{name}` lost the ambient trace");
    }
}
