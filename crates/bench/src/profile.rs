//! Per-kernel profile reports over the [`pim_obs`] metrics registry.
//!
//! The instrumented simulation layers (controller, device, engine, runtime)
//! feed one shared [`pim_obs::Recorder`]; this module turns the resulting
//! metrics snapshot into the plain-text profile table `pimtrace gemv` and
//! `pimsim --profile` print — row hit rates, fence stalls, bank-state
//! residency, mode transitions — in the same [`crate::report::format_table`]
//! style as the paper-reproduction tables.

use crate::report::format_table;
use crate::trace::{export, TraceArtifacts};
use pim_obs::{names, MetricsSnapshot, Recorder};
use pim_runtime::kernels::COLS_PER_ROW;
use pim_runtime::layout::BLOCK_ELEMS;
use pim_runtime::{KernelReport, PimBlas, PimContext, PimError};

/// A profiled GEMV run: the result vector, the kernel report, the
/// recorder holding the full event stream and metrics registry, and the
/// artifacts exported from it.
#[derive(Debug)]
pub struct ProfiledGemv {
    /// The result vector `y = W x`.
    pub y: Vec<f32>,
    /// The kernel-level cycle/command report.
    pub report: KernelReport,
    /// The recorder attached to every simulation layer for this run.
    pub recorder: Recorder,
    /// The recording's checked artifacts, attributed up to the
    /// barrier-aligned cycle at which the run ended.
    pub artifacts: TraceArtifacts,
}

/// Runs an `n × k` GEMV on a fresh one-stack system with profiling enabled
/// and bank-residency gauges snapshotted at the end of the run, and
/// exports its artifacts ([`crate::trace::export`]).
///
/// Inputs are deterministic ramps (no RNG), so repeated runs produce
/// identical cycle counts and metrics.
///
/// # Errors
///
/// [`PimError::OutOfMemory`] if the weights cannot fit the arena (a shape
/// whose `n * k` overflows never can), before any operand is built;
/// otherwise propagates [`PimError`] from [`PimBlas::gemv`] and from the
/// export.
pub fn profile_gemv(n: usize, k: usize) -> Result<ProfiledGemv, PimError> {
    let mut ctx = PimContext::small_system();
    // `n` and `k` come straight from the command line and `w` is 4·n·k
    // bytes: refuse a shape the arena cannot hold before allocating for it.
    // What passes has `n * k` bounded by the arena's element count.
    let (needed, available) = (gemv_weight_rows(&ctx, n, k), ctx.mm.min_available());
    if needed > available as usize {
        return Err(PimError::OutOfMemory {
            detail: format!("{n}x{k} weights need {needed} rows per unit, {available} available"),
        });
    }
    let recorder = Recorder::vec();
    ctx.enable_profiling(recorder.clone());
    let w: Vec<f32> = (0..n * k).map(|i| ((i * 7 % 41) as f32 - 20.0) / 32.0).collect();
    let x: Vec<f32> = (0..k).map(|i| ((i * 3 % 17) as f32 - 8.0) / 16.0).collect();
    let (y, report) = PimBlas::gemv(&mut ctx, &w, n, k, &x)?;
    ctx.snapshot_residency();
    let channels = ctx.sys.channel_count() as u16;
    let end_cycle = ctx.sys.barrier();
    let artifacts = export(&recorder, channels, end_cycle)?;
    Ok(ProfiledGemv { y, report, recorder, artifacts })
}

/// Rows an `n × k` GEMV's weights occupy in every unit of `ctx`: 16 output
/// rows per unit and pass, 32 inputs per DRAM row
/// ([`pim_runtime::GemvGeometry`], in arithmetic that cannot wrap).
fn gemv_weight_rows(ctx: &PimContext, n: usize, k: usize) -> usize {
    let lanes_per_pass = ctx.sys.channel_count() * ctx.sys.pim_config().units_per_pch * BLOCK_ELEMS;
    n.div_ceil(lanes_per_pass).saturating_mul(k.div_ceil(COLS_PER_ROW as usize))
}

/// Renders the profile table for one metrics snapshot.
///
/// Covers the controller (row hit/miss/conflict classification, queue
/// depth), the banks (open/closed residency), the PIM device (mode
/// transitions, CRF loads, triggers), and the host engine (batches, fences,
/// fence-stall cycles). Metrics that were never recorded render as `-`.
pub fn render_profile(snapshot: &MetricsSnapshot) -> String {
    let m = &snapshot.registry;
    let c = |name: &str| m.counter(name);
    let pct = |num: f64, den: f64| {
        if den == 0.0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * num / den)
        }
    };

    let hits = c(names::CTRL_ROW_HIT);
    let misses = c(names::CTRL_ROW_MISS);
    let conflicts = c(names::CTRL_ROW_CONFLICT);
    let classified = hits + misses + conflicts;
    let open = m.gauge(names::BANK_OPEN_CYCLES).unwrap_or(0.0);
    let closed = m.gauge(names::BANK_CLOSED_CYCLES).unwrap_or(0.0);
    let fences = c(names::ENGINE_FENCES);
    let stall = c(names::ENGINE_FENCE_STALL_CYCLES);
    let batches = c(names::ENGINE_BATCHES);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |metric: &str, value: String, detail: String| {
        rows.push(vec![metric.to_string(), value, detail]);
    };

    push("row hits", hits.to_string(), pct(hits as f64, classified as f64));
    push("row misses", misses.to_string(), pct(misses as f64, classified as f64));
    push("row conflicts", conflicts.to_string(), pct(conflicts as f64, classified as f64));
    push(
        "row hit rate",
        pct(hits as f64, classified as f64),
        format!("{classified} classified accesses"),
    );
    push("requests completed", c(names::CTRL_COMPLETED).to_string(), String::new());
    push("raw PIM-path commands", c(names::CTRL_RAW_COMMANDS).to_string(), String::new());
    push("reordered requests", c(names::CTRL_REORDERED).to_string(), String::new());
    match m.histogram(names::CTRL_QUEUE_DEPTH) {
        Some(h) => push(
            "queue depth",
            format!("mean {:.1}", h.mean()),
            format!("max {}", h.max().unwrap_or(0)),
        ),
        None => push("queue depth", "-".to_string(), String::new()),
    }
    push("bank open cycles", format!("{open:.0}"), pct(open, open + closed));
    push("bank closed cycles", format!("{closed:.0}"), pct(closed, open + closed));
    push("mode transitions", c(names::DEV_MODE_TRANSITIONS).to_string(), String::new());
    push("CRF words loaded", c(names::DEV_CRF_LOADS).to_string(), String::new());
    push("PIM triggers", c(names::DEV_PIM_TRIGGERS).to_string(), String::new());
    push("unit busy cycles", c(names::DEV_UNIT_BUSY_CYCLES).to_string(), String::new());
    let batch_detail = match m.histogram(names::ENGINE_BATCH_LEN) {
        Some(h) => format!("mean len {:.1}, max {}", h.mean(), h.max().unwrap_or(0)),
        None => String::new(),
    };
    push("command batches", batches.to_string(), batch_detail);
    push("fences", fences.to_string(), String::new());
    let stall_detail = if fences == 0 {
        String::new()
    } else {
        format!("{:.1} cycles/fence", stall as f64 / fences as f64)
    };
    push("fence stall cycles", stall.to_string(), stall_detail);

    format_table(&["metric", "value", "detail"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_renders_placeholders() {
        let r = Recorder::counting();
        let table = render_profile(&r.metrics());
        assert!(table.contains("row hit rate"));
        assert!(table.contains("fence stall cycles"));
        // No classified accesses -> percentage columns degrade to `-`.
        assert!(table.contains('-'));
    }

    #[test]
    fn gemv_profile_populates_every_section() {
        let run = profile_gemv(32, 64).expect("gemv");
        assert_eq!(run.y.len(), 32);
        let snapshot = run.recorder.metrics();
        let m = &snapshot.registry;
        assert!(m.counter(names::ENGINE_FENCE_STALL_CYCLES) > 0, "fences must stall");
        assert!(m.counter(names::CTRL_RAW_COMMANDS) > 0);
        assert!(m.gauge(names::BANK_OPEN_CYCLES).unwrap_or(0.0) > 0.0);
        let table = render_profile(&snapshot);
        assert!(table.contains("row hit rate"));
        assert!(table.contains("cycles/fence"), "{table}");
        // The deterministic run matches its own kernel report.
        assert_eq!(m.counter(names::DEV_PIM_TRIGGERS), run.report.pim_triggers);
    }

    /// The shapes `1x99999999999` and `4294967296x4294967296` (whose
    /// product overflows) used to abort in the allocator building `w`; both
    /// are typed errors (`pimtrace gemv` exits 1), and the row count they
    /// are refused on is the one `GemvPlan::prepare` allocates.
    #[test]
    fn unplaceable_shapes_are_refused_before_allocating() {
        for (n, k) in [(1, 99_999_999_999), (1 << 32, 1 << 32), (usize::MAX, usize::MAX)] {
            let refused = profile_gemv(n, k);
            assert!(matches!(refused, Err(PimError::OutOfMemory { .. })), "{n}x{k}: {refused:?}");
        }
        let ctx = PimContext::small_system();
        let (channels, units) = (ctx.sys.channel_count(), ctx.sys.pim_config().units_per_pch);
        for (n, k) in [(1, 1), (32, 64), (2049, 33), (5000, 4100)] {
            let g = pim_runtime::GemvGeometry::new(n, k, channels, units);
            assert_eq!(gemv_weight_rows(&ctx, n, k), g.passes * g.rows_per_pass as usize);
        }
    }
}
