//! Seeded fault-injection campaigns — the engine of `pimcampaign fault`.
//!
//! A campaign sweeps a base fault rate over a fixed mixture of the
//! injector's fault classes, runs the resilient runtime at every point,
//! and reports what the recovery ladder did: corrections, detections,
//! retries, quarantines, host fallbacks, and (the figure of merit) wrong
//! answers that escaped everything.
//!
//! Every campaign is deterministic in `(seed, elements, rates)`: fault
//! decisions are pure hashes of per-channel state, so the same campaign
//! produces a byte-identical JSON report.

use crate::campaign::{add_oracle, check_fits, counters, report, wrong_elements};
use crate::json::{obj, Json};
use pim_faults::FaultPlan;
use pim_runtime::{resilient_add, PimContext, PimError, ResilienceConfig, ResilienceReport};

/// Campaign shape: the sweep and the workload size.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every fault decision derives from it.
    pub seed: u64,
    /// Elements per vector-add workload.
    pub elements: usize,
    /// Base fault rates to sweep (see [`fault_mix`]).
    pub rates: Vec<f64>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { seed: 0xFA17, elements: 4096, rates: vec![0.0, 1e-4, 1e-3, 1e-2] }
    }
}

/// One sweep point: what the recovery ladder did at a base rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPoint {
    /// The base fault rate of this point.
    pub rate: f64,
    /// The ladder's own account: scrubs, corrections, retries,
    /// quarantines, host fallbacks, cycles and commands.
    pub report: ResilienceReport,
    /// Elements wrong in the final output, checked independently against
    /// the exact FP16 sum. Zero means the ladder fully recovered.
    pub wrong_answers: u64,
}

/// The sweep's fault mixture at base rate `r`: transient cell flips
/// dominate (as in the field), persistent and device faults ride along at
/// fixed fractions, and whole-channel failures are rarest.
pub fn fault_mix(seed: u64, rate: f64) -> FaultPlan {
    let mut p = FaultPlan::quiet(seed);
    p.cell_flip_rate = rate;
    p.stuck_cell_rate = rate / 4.0;
    p.stuck_pair_rate = rate / 8.0;
    p.cmd_drop_rate = rate / 4.0;
    p.cmd_corrupt_rate = rate / 4.0;
    p.glitch_rate = rate / 16.0;
    p.chan_fail_rate = rate / 2.0;
    p.chan_stall_rate = rate / 8.0;
    p.stall_penalty = 32;
    p
}

/// Deterministic campaign operands (pure hash of the seed — the campaign
/// must not depend on ambient randomness).
fn operands(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    let mix = |i: u64| {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let val = |i: u64, salt: u64| ((mix(i ^ salt) % 509) as f32 - 254.0) * 0.125;
    let x = (0..n as u64).map(|i| val(i, 0)).collect();
    let y = (0..n as u64).map(|i| val(i, 0x5A5A)).collect();
    (x, y)
}

/// Runs one sweep point on a fresh one-stack (16-channel) system.
///
/// # Errors
///
/// [`PimError::OutOfMemory`], before any operand is built, if `elements`
/// cannot fit the arena; otherwise propagates [`PimError`] from the
/// resilient runtime (only plumbing failures — fault damage itself is
/// recovered, not reported as an error).
pub fn run_point(cfg: &CampaignConfig, rate: f64) -> Result<CampaignPoint, PimError> {
    let mut ctx = PimContext::small_system();
    // `elements` comes straight from the command line and the operands,
    // their golden blocks and the oracle are ~20 bytes an element: refuse
    // what the arena cannot hold before allocating for it.
    check_fits(&ctx, cfg.elements)?;
    if rate > 0.0 {
        ctx.inject_faults(&fault_mix(cfg.seed, rate));
    }
    let (x, y) = operands(cfg.seed, cfg.elements);
    let (z, report) = resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default())?;
    Ok(CampaignPoint { rate, wrong_answers: wrong_elements(&z, &add_oracle(&x, &y)), report })
}

/// Runs the full sweep.
///
/// # Errors
///
/// Fails on the first point that returns a [`PimError`].
pub fn run_campaign(cfg: &CampaignConfig) -> Result<Vec<CampaignPoint>, PimError> {
    cfg.rates.iter().map(|&rate| run_point(cfg, rate)).collect()
}

/// Serializes a campaign to the `pim-bench/fault-campaign-v1` document.
pub fn report_json(cfg: &CampaignConfig, points: &[CampaignPoint]) -> Json {
    let point_json = |p: &CampaignPoint| {
        let r = &p.report;
        obj(counters([
            ("scrubs", r.scrubs),
            ("corrected", r.ecc_corrected),
            ("detected", r.ecc_detected),
            ("restored", r.blocks_restored),
            ("launches", r.launches),
            ("retries", r.retries),
            ("quarantined", r.quarantined.len() as u64),
            ("fallback_blocks", r.host_fallback_blocks),
            ("wrong_answers", p.wrong_answers),
            ("cycles", r.kernel.cycles),
            ("commands", r.kernel.commands),
        ])
        .chain([("rate", Json::Num(p.rate))]))
    };
    report(
        "fault-campaign-v1",
        counters([("seed", cfg.seed), ("elements", cfg.elements as u64)]),
        "points",
        points.iter().map(point_json).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig { elements: 1024, rates: vec![0.0, 1e-3], ..CampaignConfig::default() }
    }

    #[test]
    fn zero_rate_point_is_clean() {
        let cfg = small();
        let p = run_point(&cfg, 0.0).unwrap();
        let r = &p.report;
        assert_eq!(r.launches, 1);
        assert_eq!(r.ecc_corrected + r.ecc_detected + r.retries, 0);
        assert!(r.quarantined.is_empty());
        assert_eq!(p.wrong_answers, 0);
        assert!(r.kernel.cycles > 0);
    }

    /// `pimcampaign fault --elements 999999999 --rates 0` used to be OOM-killed
    /// building ~20 GB of operands before `StreamJob::place` could refuse
    /// them; one element past the arena is already a typed error.
    #[test]
    fn oversized_workloads_are_refused_before_allocating() {
        for elements in [999_999_999, usize::MAX] {
            let cfg = CampaignConfig { elements, ..small() };
            let refused = run_point(&cfg, 0.0);
            assert!(
                matches!(refused, Err(PimError::OutOfMemory { .. })),
                "{elements}: {refused:?}"
            );
        }
        let ctx = PimContext::small_system();
        let units = ctx.sys.channel_count() * ctx.sys.pim_config().units_per_pch;
        // 8 block slots a row, 16 elements a block.
        let fits = ctx.mm.min_available() as usize * 8 * units * 16;
        assert!(run_point(&CampaignConfig { elements: fits + 1, ..small() }, 0.0).is_err());
    }

    #[test]
    fn faulty_points_recover_to_zero_wrong_answers() {
        let cfg = small();
        for p in run_campaign(&cfg).unwrap() {
            assert_eq!(p.wrong_answers, 0, "ladder must fully recover: {p:?}");
        }
    }
}
