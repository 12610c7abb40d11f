//! Seeded open-loop serving campaigns — the engine of `pimcampaign serve`.
//!
//! A campaign sweeps arrival rate (mean inter-arrival cycles) against base
//! fault rate (via [`crate::faults::fault_mix`]), drives the deterministic
//! serving layer (`pim_runtime::serve`) with a seeded request trace at
//! every point, and reports what the scheduler did: goodput, latency
//! percentiles, sheds, deadline misses, watchdog cancels, breaker trips,
//! and (the figure of merit) wrong answers that reached a caller.
//!
//! Every campaign is deterministic in its config: arrivals, operands, and
//! fault decisions are pure hashes of the seed, and every scheduler
//! decision is a function of the simulated clock. The same campaign
//! produces a byte-identical JSON report.

use crate::campaign::{build_trace, counters, oracles, report, Audit, TraceShape};
use crate::faults::fault_mix;
use crate::json::{obj, Json};
use pim_runtime::{PimContext, PimError, ServeConfig, ServeReport, ServeStats, Server};

/// Campaign shape: the sweep grid and the trace parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCampaignConfig {
    /// The per-point request trace (seed, size, tenants, deadline slack).
    pub trace: TraceShape,
    /// Mean inter-arrival cycles to sweep (small = overload).
    pub intervals: Vec<u64>,
    /// Base fault rates to sweep (see [`crate::faults::fault_mix`]).
    pub fault_rates: Vec<f64>,
}

impl Default for ServeCampaignConfig {
    fn default() -> ServeCampaignConfig {
        ServeCampaignConfig {
            trace: TraceShape {
                seed: 0x5E17E,
                elements: 1024,
                requests: 32,
                tenants: 2,
                deadline_slack: 4_000,
            },
            // 150 cycles ≈ 4× the sustainable arrival rate (overload);
            // 2 000 is near saturation; 40 000 is comfortably idle.
            intervals: vec![150, 2_000, 40_000],
            fault_rates: vec![0.0, 1e-3],
        }
    }
}

/// One sweep point: what the serving layer did at (interval, rate).
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Mean inter-arrival cycles of this point.
    pub interval: u64,
    /// Base fault rate of this point.
    pub rate: f64,
    /// The server's counters for the point's trace.
    pub stats: ServeStats,
    /// Served results audited against the exact FP16 oracle, with the
    /// latency percentiles of the served requests.
    pub audit: Audit,
    /// Sim cycle at which the trace drained.
    pub end_cycle: u64,
    /// Served (correct-result) elements per second of simulated time.
    pub goodput_eps: f64,
}

/// The per-point salt mixed into every seeded decision of a sweep point.
pub fn point_salt(interval: u64, rate: f64) -> u64 {
    interval ^ ((rate * 1e9) as u64).rotate_left(32)
}

/// Serves one sweep point's trace on a fresh one-stack (16-channel)
/// system, optionally recorded; returns the server's report, the
/// per-request oracles, and the context the run left behind. Shared with
/// the traced-artifact runner ([`crate::trace`]) so it replays the exact
/// request stream the campaign would.
///
/// # Errors
///
/// [`PimError::OutOfMemory`], before the trace is built, for a shape
/// [`TraceShape::check`] refuses; otherwise propagates [`PimError`] from
/// the serving layer.
pub fn serve_point(
    cfg: &ServeCampaignConfig,
    interval: u64,
    rate: f64,
    recorder: Option<&pim_obs::Recorder>,
) -> Result<(ServeReport, Vec<Vec<f32>>, PimContext), PimError> {
    cfg.trace.check()?;
    let mut ctx = PimContext::small_system();
    if rate > 0.0 {
        ctx.inject_faults(&fault_mix(cfg.trace.seed, rate));
    }
    if let Some(r) = recorder {
        ctx.enable_profiling(r.clone());
    }
    let trace = build_trace(&cfg.trace, interval, point_salt(interval, rate));
    let oracles = oracles(&trace);
    let serve_cfg = ServeConfig { breaker_threshold: 2, ..ServeConfig::default() };
    let report = Server::new(&mut ctx, serve_cfg).run(trace)?;
    Ok((report, oracles, ctx))
}

/// Runs one sweep point on a fresh one-stack (16-channel) system.
///
/// # Errors
///
/// Propagates [`PimError`] from the serving layer (only plumbing failures
/// — overload and fault damage end as typed dispositions, not errors).
pub fn run_point(
    cfg: &ServeCampaignConfig,
    interval: u64,
    rate: f64,
) -> Result<ServePoint, PimError> {
    run_point_recorded(cfg, interval, rate, None)
}

/// [`run_point`] with an optional recorder attached to every simulation
/// layer — the counters and SLO histograms accumulate across points into
/// the recorder's metrics registry (the `pimcampaign serve --metrics` export).
/// Recording has zero observer effect: the returned [`ServePoint`] is
/// byte-for-byte the one an unrecorded run produces.
///
/// # Errors
///
/// Propagates [`PimError`] from the serving layer.
pub fn run_point_recorded(
    cfg: &ServeCampaignConfig,
    interval: u64,
    rate: f64,
    recorder: Option<&pim_obs::Recorder>,
) -> Result<ServePoint, PimError> {
    let (report, oracles, ctx) = serve_point(cfg, interval, rate, recorder)?;
    let audit = Audit::of(&report.outcomes, &oracles, report.served_latencies());
    Ok(ServePoint {
        interval,
        rate,
        stats: report.stats,
        audit,
        end_cycle: report.end_cycle,
        goodput_eps: audit.goodput_eps(ctx.sys.cycles_to_seconds(report.end_cycle)),
    })
}

/// Runs the full (interval × fault-rate) grid.
///
/// # Errors
///
/// Fails on the first point that returns a [`PimError`].
pub fn run_campaign(cfg: &ServeCampaignConfig) -> Result<Vec<ServePoint>, PimError> {
    run_campaign_recorded(cfg, None)
}

/// [`run_campaign`] with an optional recorder shared by every grid point
/// (see [`run_point_recorded`]).
///
/// # Errors
///
/// Fails on the first point that returns a [`PimError`].
pub fn run_campaign_recorded(
    cfg: &ServeCampaignConfig,
    recorder: Option<&pim_obs::Recorder>,
) -> Result<Vec<ServePoint>, PimError> {
    let mut points = Vec::new();
    for &interval in &cfg.intervals {
        for &rate in &cfg.fault_rates {
            points.push(run_point_recorded(cfg, interval, rate, recorder)?);
        }
    }
    Ok(points)
}

/// Serializes a campaign to the `pim-bench/serve-campaign-v1` document.
pub fn report_json(cfg: &ServeCampaignConfig, points: &[ServePoint]) -> Json {
    let point_json = |p: &ServePoint| {
        obj(counters([
            ("interval", p.interval),
            ("submitted", p.stats.submitted),
            ("completed", p.stats.completed),
            ("shed_queue_full", p.stats.shed_queue_full),
            ("shed_overloaded", p.stats.shed_overloaded),
            ("deadline_missed", p.stats.deadline_missed),
            ("host_fallbacks", p.stats.host_fallbacks),
            ("watchdog_cancels", p.stats.watchdog_cancels),
            ("breaker_trips", p.stats.breaker_trips),
            ("relayouts", p.stats.relayouts),
            ("end_cycle", p.end_cycle),
        ])
        .chain(p.audit.members())
        .chain([("rate", Json::Num(p.rate)), ("goodput_eps", Json::Num(p.goodput_eps))]))
    };
    report(
        "serve-campaign-v1",
        cfg.trace.header(),
        "points",
        points.iter().map(point_json).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeCampaignConfig {
        let d = ServeCampaignConfig::default();
        ServeCampaignConfig {
            trace: TraceShape { elements: 512, requests: 8, ..d.trace },
            intervals: vec![5_000],
            fault_rates: vec![0.0],
        }
    }

    fn with_trace(requests: usize, deadline_slack: u64) -> ServeCampaignConfig {
        let s = small();
        ServeCampaignConfig { trace: TraceShape { requests, deadline_slack, ..s.trace }, ..s }
    }

    #[test]
    fn clean_low_rate_point_serves_everything() {
        let p = run_point(&with_trace(8, 2_000_000), 200_000, 0.0).unwrap();
        assert_eq!(p.stats.submitted, 8);
        assert_eq!(p.stats.completed, 8, "{p:?}");
        assert_eq!(p.audit.wrong_answers, 0);
        assert!(p.audit.p50_cycles > 0 && p.audit.p99_cycles >= p.audit.p50_cycles);
        assert!(p.goodput_eps > 0.0);
    }

    #[test]
    fn overload_point_sheds_or_misses_but_never_lies() {
        // Arrivals every ~4 cycles — faster than even the host path drains
        // 512 elements (14 cycles) — into 8-deep queues: some requests must
        // shed or miss, and every result that does come back must be exact.
        let p = run_point(&with_trace(32, 2_000), 4, 0.0).unwrap();
        assert_eq!(p.stats.submitted, 32);
        assert!(
            p.stats.shed_queue_full + p.stats.shed_overloaded + p.stats.deadline_missed > 0,
            "expected overload effects: {p:?}"
        );
        assert_eq!(p.audit.wrong_answers, 0);
    }

    /// An idle, faulty stack serving 4 096-element requests with 40 000
    /// cycles of slack: some requests exhaust their PIM attempts, and the
    /// host rung must deliver them — in time and exact. Regression: at a
    /// flat 16 cycles an element, one request's host price exceeded its
    /// slack and every fallback missed.
    #[test]
    fn faulty_point_falls_back_to_the_host_in_time() {
        let s = with_trace(24, 40_000);
        let cfg = ServeCampaignConfig {
            trace: TraceShape { elements: 4096, tenants: 4, ..s.trace },
            ..s
        };
        let (report, oracles, _) = serve_point(&cfg, 20_000, 1e-3, None).unwrap();
        let fallbacks: Vec<_> = report
            .outcomes
            .iter()
            .zip(&oracles)
            .filter(|(o, _)| o.disposition == pim_runtime::Disposition::FellBackToHost)
            .collect();
        assert!(!fallbacks.is_empty(), "{:?}", report.stats);
        for (o, oracle) in fallbacks {
            assert_eq!(o.result.as_deref(), Some(&oracle[..]), "request {}", o.id);
        }
    }

    /// `pimcampaign serve --elements 999999999 --requests 1` and
    /// `--requests 999999999999` used to abort in the allocator building
    /// the trace; both are typed refusals before it is built.
    #[test]
    fn oversized_traces_are_refused_before_allocating() {
        let s = small();
        for (elements, requests) in [
            (999_999_999, 1),
            (usize::MAX, 1),
            (1024, 999_999_999_999),
            (1024, usize::MAX),
            (1 << 20, 1 << 10),
        ] {
            let cfg = ServeCampaignConfig {
                trace: TraceShape { elements, requests, ..s.trace },
                ..s.clone()
            };
            let refused = run_point(&cfg, 5_000, 0.0);
            assert!(
                matches!(refused, Err(PimError::OutOfMemory { .. })),
                "{elements} x {requests}: {refused:?}"
            );
        }
    }

    #[test]
    fn end_of_time_interval_resolves_every_request() {
        // Regression (CLI-reachable: `pimcampaign serve --intervals 18446744073709551615`):
        // unchecked arrival/deadline/cooldown adds wrapped in release and
        // aborted under overflow checks. Saturated, the run drains with
        // every request in a typed disposition.
        let p = run_point(&small(), u64::MAX, 0.0).unwrap();
        let s = &p.stats;
        assert_eq!(s.submitted, 8);
        let resolved = s.completed
            + s.host_fallbacks
            + s.deadline_missed
            + s.shed_queue_full
            + s.shed_overloaded;
        assert_eq!(resolved, 8, "{p:?}");
        assert_eq!(p.audit.wrong_answers, 0);
    }

    #[test]
    fn campaign_grid_covers_intervals_by_rates() {
        let cfg = ServeCampaignConfig {
            intervals: vec![5_000, 100_000],
            fault_rates: vec![0.0, 1e-3],
            ..small()
        };
        let points = run_campaign(&cfg).unwrap();
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.audit.wrong_answers == 0), "{points:?}");
    }
}
