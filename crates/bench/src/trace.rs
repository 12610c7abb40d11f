//! Traced serving runs and their exported artifacts — the `pimtrace`
//! binary's engine.
//!
//! Re-runs one serve-campaign sweep point (the exact request stream
//! [`crate::serve::serve_point`] serves) with a [`Recorder`] attached to
//! every simulation layer, then folds the recording into the full artifact
//! set:
//!
//! * **`trace.json`** — Chrome trace-event JSON with per-channel tracks
//!   and request flow arrows (admission → dispatch → launch → done).
//! * **`attrib.txt`** — the exact cycle-attribution table: simulated
//!   cycles decomposed by (channel × kernel phase × command class ×
//!   tenant), conserving `channels × end_cycle` to the cycle.
//! * **`attrib.folded`** — the same decomposition as folded stacks for
//!   flamegraph tools.
//! * **`metrics.om`** — the metrics registry in OpenMetrics text format,
//!   validated by the in-repo parser before it is returned.
//!
//! Every artifact is deterministic in the config and byte-identical across
//! execution backends ([`assert_backend_identity`] proves it at runtime);
//! the recorder has zero observer effect on simulated cycle counts, so the
//! traced run reports the same [`crate::serve::ServePoint`]-level counters as the
//! untraced campaign.

use crate::report::format_table;
use crate::serve::{serve_point, ServeCampaignConfig};
use pim_host::ExecutionBackend;
use pim_obs::{chrome::chrome_trace_json, openmetrics, Attribution, Recorder};
use pim_runtime::{PimError, ServeReport};

/// The complete artifact set of one traced sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON (`trace.json`).
    pub chrome: String,
    /// Rendered attribution table (`attrib.txt`).
    pub attrib_table: String,
    /// Folded-stack attribution (`attrib.folded`).
    pub folded: String,
    /// OpenMetrics exposition (`metrics.om`), already validated.
    pub openmetrics: String,
    /// Events the recorder captured.
    pub events: usize,
    /// Sim cycle at which the trace drained (barrier-aligned).
    pub end_cycle: u64,
}

fn internal(detail: String) -> PimError {
    PimError::Internal { detail }
}

/// Runs one sweep point with full tracing and returns the report plus the
/// recorder (callers that only want the artifacts use [`run_traced`]).
///
/// # Errors
///
/// Propagates [`PimError`] from the serving layer.
pub fn run_traced_report(
    cfg: &ServeCampaignConfig,
    interval: u64,
    rate: f64,
) -> Result<(ServeReport, Recorder, u16), PimError> {
    let recorder = Recorder::vec();
    let (report, _, ctx) = serve_point(cfg, interval, rate, Some(&recorder))?;
    Ok((report, recorder, ctx.sys.channel_count() as u16))
}

/// Runs one sweep point with full tracing and exports every artifact.
///
/// The attribution's conservation invariant and the OpenMetrics
/// exposition's well-formedness are both checked before returning; a
/// violation is a simulator bug and surfaces as [`PimError::Internal`].
///
/// # Errors
///
/// Propagates [`PimError`] from the serving layer; fails on a conservation
/// or exposition-format violation.
pub fn run_traced(
    cfg: &ServeCampaignConfig,
    interval: u64,
    rate: f64,
) -> Result<TraceArtifacts, PimError> {
    let (report, recorder, channels) = run_traced_report(cfg, interval, rate)?;
    let events = recorder.events().unwrap_or_default();
    let attribution = Attribution::from_events(&events, channels, report.end_cycle)
        .map_err(|e| internal(format!("attribution failed: {e}")))?;
    attribution
        .check_conservation()
        .map_err(|e| internal(format!("cycle conservation violated: {e}")))?;
    let exposition = openmetrics::render(&recorder.metrics().registry);
    openmetrics::validate(&exposition)
        .map_err(|e| internal(format!("invalid OpenMetrics exposition: {e}")))?;
    Ok(TraceArtifacts {
        chrome: chrome_trace_json(&events),
        attrib_table: render_attrib(&attribution),
        folded: attribution.folded(),
        openmetrics: exposition,
        events: events.len(),
        end_cycle: report.end_cycle,
    })
}

/// Renders an [`Attribution`] as the plain-text table `pimprof --attrib`
/// and `pimtrace run` print: one row per (phase, class, tenant) summed
/// over channels, cycles and share-of-total, then the conservation line.
pub fn render_attrib(a: &Attribution) -> String {
    let total = a.total();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for ((phase, class, tenant), cycles) in a.by_phase_class() {
        if cycles == 0 {
            continue;
        }
        rows.push(vec![
            phase,
            class,
            tenant.map_or("-".to_string(), |t| t.to_string()),
            cycles.to_string(),
            format!("{:.2}%", 100.0 * cycles as f64 / total.max(1) as f64),
        ]);
    }
    let mut out = format_table(&["phase", "class", "tenant", "cycles", "share"], &rows);
    out.push_str(&format!(
        "\nconservation: {} channels x {} cycles = {} attributed ({})\n",
        a.channels(),
        a.end_cycle(),
        total,
        match a.check_conservation() {
            Ok(()) => "exact".to_string(),
            Err(e) => format!("VIOLATED: {e}"),
        }
    ));
    out
}

/// Asserts that every artifact of `(cfg, interval, rate)` is byte-identical
/// when re-run under each backend in `backends`, returning the reference
/// artifacts on success.
///
/// # Errors
///
/// Reports the first artifact that differs (name plus backend), or any
/// underlying [`PimError`].
pub fn assert_backend_identity(
    cfg: &ServeCampaignConfig,
    interval: u64,
    rate: f64,
    backends: &[ExecutionBackend],
) -> Result<TraceArtifacts, PimError> {
    let reference = run_traced(cfg, interval, rate)?;
    for &backend in backends {
        let alt = run_traced(&ServeCampaignConfig { backend, ..cfg.clone() }, interval, rate)?;
        let pairs = [
            ("trace.json", &reference.chrome, &alt.chrome),
            ("attrib.txt", &reference.attrib_table, &alt.attrib_table),
            ("attrib.folded", &reference.folded, &alt.folded),
            ("metrics.om", &reference.openmetrics, &alt.openmetrics),
        ];
        for (name, want, got) in pairs {
            if want != got {
                return Err(internal(format!(
                    "{name} differs under {backend:?} ({} vs {} bytes)",
                    want.len(),
                    got.len()
                )));
            }
        }
    }
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TraceShape;

    fn small() -> ServeCampaignConfig {
        let d = ServeCampaignConfig::default();
        ServeCampaignConfig {
            trace: TraceShape { elements: 512, requests: 6, ..d.trace },
            intervals: vec![5_000],
            fault_rates: vec![0.0],
            ..d
        }
    }

    #[test]
    fn traced_point_produces_all_artifacts() {
        let art = run_traced(&small(), 5_000, 0.0).expect("traced run");
        assert!(art.events > 0);
        assert!(art.end_cycle > 0);
        assert!(art.chrome.starts_with("{\"displayTimeUnit\""));
        assert!(art.attrib_table.contains("conservation:"), "{}", art.attrib_table);
        assert!(art.attrib_table.contains("exact"), "{}", art.attrib_table);
        assert!(art.folded.contains("channel 0;"), "{}", art.folded);
        assert!(art.openmetrics.ends_with("# EOF\n"));
    }

    #[test]
    fn artifacts_are_byte_identical_across_backends() {
        let art = assert_backend_identity(
            &small(),
            5_000,
            0.0,
            &[ExecutionBackend::Threads(2), ExecutionBackend::Threads(4)],
        )
        .expect("identity");
        assert!(art.events > 0);
    }

    #[test]
    fn faulty_point_still_conserves_cycles() {
        // Faults push requests down the resilience ladder (retries,
        // re-layouts, host fallback); attribution must stay exact.
        let art = run_traced(&small(), 2_000, 1e-3).expect("faulty traced run");
        assert!(art.attrib_table.contains("exact"), "{}", art.attrib_table);
    }
}
