//! Runtime resilience: surviving the faults `pim-faults` injects.
//!
//! The paper's Section VIII argues PIM can adopt commodity RAS mechanisms
//! because "each PIM execution unit reads and writes data at the same data
//! access granularity as a host processor". This module is the software
//! half of that argument: a recovery ladder over the fault classes the
//! injector models, each rung counted in `pim-obs` metrics.
//!
//! # The recovery ladder
//!
//! 1. **Correct** — operands are stored with a SECDED shadow (the check
//!    bytes of [`pim_dram::ecc::encode_block`], the on-die-ECC engine at
//!    host access granularity). A scrub pass over the operand path before
//!    every launch corrects single-bit damage in place
//!    ([`names::RES_ECC_CORRECTED`]) and re-stores blocks with
//!    uncorrectable damage from the host's golden copy
//!    ([`names::RES_ECC_DETECTED`], [`names::RES_BLOCKS_RESTORED`]).
//! 2. **Retry** — a launch whose verified output is wrong (dropped or
//!    corrupted commands, mode-machine glitches) is retried with bounded
//!    exponential backoff after a fresh scrub ([`names::RES_RETRIES`]).
//!    Transient faults roll new outcomes on every attempt.
//! 3. **Quarantine** — channels that stay wrong across the retry budget
//!    (hard failures, stuck-at cell pairs) are quarantined and the
//!    resident operands re-laid-out lock-step over the surviving channels
//!    ([`names::RES_QUARANTINED`]).
//! 4. **Host fallback** — work that cannot be recovered on PIM (quarantine
//!    budget exhausted, or no healthy channel left) is computed host-side
//!    from the exact FP16 oracle ([`names::RES_HOST_FALLBACK_BLOCKS`]).
//!
//! Every decision is deterministic: fault outcomes are pure hashes of
//! per-channel state (see `pim-faults`), so a seeded run produces an
//! identical [`ResilienceReport`] every time.

use crate::blas::{KernelReport, PimError};
use crate::context::PimContext;
use crate::kernels::StreamOp;
use crate::layout::BLOCK_ELEMS;
use crate::stream::{self, Attempt, Cell, StreamJob, StreamOperands};
use pim_core::LaneVec;
use pim_dram::ecc::{self, EccWord};
use pim_obs::{names, Event, Scope};

/// Knobs of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Launch retries per layout before suspect channels are quarantined.
    pub max_retries: u32,
    /// Channels that may be quarantined before giving up on PIM and
    /// falling back to the host for the remaining work.
    pub max_quarantine: usize,
    /// Base backoff between retries, in bus cycles (doubles per retry,
    /// capped at 8 doublings).
    pub backoff_cycles: u64,
    /// Whether unrecovered blocks are computed host-side. With this off,
    /// unrecovered elements stay wrong and are counted in
    /// [`ResilienceReport::wrong_answers`].
    pub host_fallback: bool,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 2,
            max_quarantine: usize::MAX,
            backoff_cycles: 256,
            host_fallback: true,
        }
    }
}

/// What the recovery ladder did for one call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Scrub passes over the resident operand blocks.
    pub scrubs: u64,
    /// Single-bit errors corrected in place by the scrub path.
    pub ecc_corrected: u64,
    /// Uncorrectable (multi-bit) errors the scrub path detected.
    pub ecc_detected: u64,
    /// Blocks re-stored from the host-side golden copy.
    pub blocks_restored: u64,
    /// Kernel launches performed (1 on a clean run).
    pub launches: u64,
    /// Launches retried after a detected wrong result.
    pub retries: u64,
    /// Channels quarantined, in quarantine order.
    pub quarantined: Vec<usize>,
    /// Result blocks computed host-side after PIM recovery failed.
    pub host_fallback_blocks: u64,
    /// Elements still wrong in the returned vector (only possible with
    /// [`ResilienceConfig::host_fallback`] disabled).
    pub wrong_answers: u64,
    /// Why the ladder left the PIM path, when it did. `None` on a call
    /// that completed (or finished with wrong answers still pending
    /// retries) on PIM.
    pub fallback: Option<FallbackReason>,
    /// Aggregate cycle/command accounting across all launches.
    pub kernel: KernelReport,
}

/// Why the recovery ladder stopped trying PIM and went to the host path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Every channel ended up quarantined — there is no healthy channel
    /// left to re-layout onto.
    AllChannelsQuarantined,
    /// More channels failed than [`ResilienceConfig::max_quarantine`]
    /// allows removing from the layout.
    QuarantineBudgetExceeded,
}

impl ResilienceReport {
    /// Publishes the counters to the context's recorder, if profiling is
    /// enabled.
    fn publish(&self, ctx: &PimContext) {
        let Some(r) = &ctx.recorder else { return };
        r.add(names::RES_SCRUBS, self.scrubs);
        r.add(names::RES_ECC_CORRECTED, self.ecc_corrected);
        r.add(names::RES_ECC_DETECTED, self.ecc_detected);
        r.add(names::RES_BLOCKS_RESTORED, self.blocks_restored);
        r.add(names::RES_RETRIES, self.retries);
        r.add(names::RES_QUARANTINED, self.quarantined.len() as u64);
        r.add(names::RES_HOST_FALLBACK_BLOCKS, self.host_fallback_blocks);
    }
}

/// Emits one recovery-ladder instant at the system's current cycle (no-op
/// without a recorder).
fn emit(ctx: &PimContext, name: &'static str, (key, value): (&'static str, u64)) {
    if let Some(r) = &ctx.recorder {
        let at = ctx.sys.max_now();
        r.emit(Event::instant(at, name, names::CAT_REQUEST, Scope::GLOBAL).with_arg(key, value));
    }
}

/// Scrubs one resident operand block: reads it back, decodes it against
/// the golden SECDED check bytes, repairs correctable damage in place, and
/// re-stores the golden copy when the damage is uncorrectable.
fn scrub_block(
    ctx: &mut PimContext,
    cell: Cell,
    golden: &LaneVec,
    check: &[u8; 4],
    rep: &mut ResilienceReport,
) {
    let raw = cell.load(ctx).to_block();
    let words: [EccWord; 4] = std::array::from_fn(|i| {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&raw[i * 8..i * 8 + 8]);
        EccWord { data: u64::from_le_bytes(bytes), check: check[i] }
    });
    match ecc::decode_block(&words) {
        Some((_, false)) => {}
        Some((fixed, true)) => {
            rep.ecc_corrected += 1;
            cell.store(ctx, &LaneVec::from_block(&fixed));
        }
        None => {
            rep.ecc_detected += 1;
            rep.blocks_restored += 1;
            cell.store(ctx, golden);
        }
    }
}

/// `z = x + y` with the full recovery ladder (see module docs). Returns
/// the result vector and the [`ResilienceReport`] describing every
/// recovery action taken; with no fault plan installed the report shows
/// one launch and zero recovery events.
///
/// # Errors
///
/// The usual PIM-BLAS validation errors ([`PimError::SizeMismatch`],
/// [`PimError::Empty`], [`PimError::OutOfMemory`]), plus
/// [`PimError::InvalidKernel`] in strict mode.
pub fn resilient_add(
    ctx: &mut PimContext,
    x: &[f32],
    y: &[f32],
    cfg: &ResilienceConfig,
) -> Result<(Vec<f32>, ResilienceReport), PimError> {
    let operands = StreamOperands::new(ctx, StreamOp::Add, x, Some(y))?;
    let n = x.len();
    let nblocks = operands.blocks();
    // The golden SECDED shadow: check bytes over the intended operand
    // data, held host-side (modelling the on-die ECC engine's parity).
    let shadow = |v: &LaneVec| ecc::encode_block(&v.to_block()).map(|w| w.check);
    let checks: Vec<([u8; 4], [u8; 4])> = (0..nblocks)
        .map(|b| {
            let (xg, yg) = operands.golden(b);
            (shadow(xg), yg.map_or([0; 4], shadow))
        })
        .collect();
    // The verification oracle: device ADD is exact FP16, so the host's
    // FP16 sum is bit-identical on a fault-free run. It stands in for the
    // application-level integrity check a production runtime would use.
    let expected = stream::reference(StreamOp::Add, x, y);

    let mut rep = ResilienceReport::default();
    let mut healthy: Vec<usize> = (0..ctx.sys.channel_count()).collect();
    let mut out = vec![0.0f32; n];
    let mut bad: Vec<usize> = (0..nblocks).collect();

    'ladder: while !healthy.is_empty() && rep.quarantined.len() <= cfg.max_quarantine {
        // Lock-step (re-)layout of both operands over the healthy set.
        let job = StreamJob::place(ctx, &operands, &healthy)?;

        let mut attempt = 0u32;
        loop {
            // Scrub-on-read over the operand path before every launch.
            rep.scrubs += 1;
            for (b, (x_check, y_check)) in checks.iter().enumerate() {
                let (x_cell, y_cell) = job.operand_cells(b);
                let (xg, yg) = operands.golden(b);
                scrub_block(ctx, x_cell, xg, x_check, &mut rep);
                if let Some(yg) = yg {
                    scrub_block(ctx, y_cell, yg, y_check, &mut rep);
                }
            }

            let start = ctx.sys.max_now();
            let Attempt::Ran { result: r, out: got, bad: wrong, .. } =
                job.attempt(ctx, &expected, None)?
            else {
                return Err(PimError::Internal {
                    detail: "a launch without a watchdog limit was cancelled".to_string(),
                });
            };
            (out, bad) = (got, wrong);
            rep.launches += 1;
            let cycles = r.end_cycle.saturating_sub(start);
            rep.kernel.absorb(&KernelReport {
                cycles,
                seconds: ctx.sys.cycles_to_seconds(cycles),
                commands: r.commands,
                fences: r.fences,
                pim_triggers: 0,
                elements: n,
            });
            if bad.is_empty() {
                rep.publish(ctx);
                return Ok((out, rep));
            }

            if attempt < cfg.max_retries {
                attempt += 1;
                rep.retries += 1;
                emit(ctx, names::RES_RETRY_EVENT, ("attempt", attempt as u64));
                // Bounded exponential backoff before the retry: the host
                // idles, every channel's clock advances.
                let pause = cfg.backoff_cycles << (attempt - 1).min(8);
                let now = ctx.sys.barrier();
                ctx.advance_to(now + pause);
                continue;
            }

            // Retry budget exhausted: quarantine every channel that still
            // produced a wrong block, then re-layout over the survivors.
            let suspects = job.suspects(&bad);
            healthy.retain(|ch| !suspects.contains(ch));
            for &ch in &suspects {
                emit(ctx, names::RES_QUARANTINE_EVENT, ("channel", ch as u64));
            }
            rep.quarantined.extend(suspects);
            continue 'ladder;
        }
    }

    // PIM recovery exhausted: record why the ladder gave up (the typed
    // reason callers branch on), then host fallback for the still-wrong
    // blocks.
    rep.fallback = Some(if healthy.is_empty() {
        FallbackReason::AllChannelsQuarantined
    } else {
        FallbackReason::QuarantineBudgetExceeded
    });
    emit(ctx, names::RES_FALLBACK_EVENT, ("blocks", bad.len() as u64));
    if cfg.host_fallback {
        for &b in &bad {
            for l in 0..BLOCK_ELEMS {
                let i = b * BLOCK_ELEMS + l;
                if i < n {
                    out[i] = expected[i];
                }
            }
            rep.host_fallback_blocks += 1;
        }
    } else {
        rep.wrong_answers = bad
            .iter()
            .map(|&b| {
                (0..BLOCK_ELEMS)
                    .filter(|l| {
                        let i = b * BLOCK_ELEMS + l;
                        i < n && out[i].to_bits() != expected[i].to_bits()
                    })
                    .count() as u64
            })
            .sum();
    }
    rep.publish(ctx);
    Ok((out, rep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_faults::FaultPlan;

    fn vectors(n: usize) -> (Vec<f32>, Vec<f32>) {
        let x: Vec<f32> = (0..n).map(|i| (i % 23) as f32 * 0.25).collect();
        let y: Vec<f32> = (0..n).map(|i| (i % 17) as f32 * 0.5).collect();
        (x, y)
    }

    #[test]
    fn fault_free_run_is_one_clean_launch() {
        let mut ctx = PimContext::small_system();
        let (x, y) = vectors(500);
        let (z, rep) = resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default()).unwrap();
        for i in 0..500 {
            assert_eq!(z[i], x[i] + y[i], "element {i}");
        }
        assert_eq!(rep.launches, 1);
        assert_eq!(rep.retries, 0);
        assert_eq!(rep.ecc_corrected + rep.ecc_detected, 0);
        assert!(rep.quarantined.is_empty());
        assert_eq!(rep.host_fallback_blocks, 0);
        assert_eq!(rep.wrong_answers, 0);
        assert_eq!(rep.fallback, None);
    }

    #[test]
    fn transient_write_flips_are_scrubbed_out() {
        let mut ctx = PimContext::small_system();
        let mut plan = FaultPlan::quiet(77);
        plan.cell_flip_rate = 0.02;
        ctx.inject_faults(&plan);
        let (x, y) = vectors(2048);
        let (z, rep) = resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default()).unwrap();
        let wrong = (0..2048).filter(|&i| z[i] != x[i] + y[i]).count();
        assert_eq!(wrong, 0);
        assert!(rep.ecc_corrected > 0, "expected scrub corrections: {rep:?}");
        assert_eq!(rep.wrong_answers, 0);
    }

    #[test]
    fn stuck_pairs_are_detected_and_survived() {
        let mut ctx = PimContext::small_system();
        let mut plan = FaultPlan::quiet(5);
        plan.stuck_pair_rate = 0.01;
        ctx.inject_faults(&plan);
        let (x, y) = vectors(4096);
        let (z, rep) = resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default()).unwrap();
        let wrong = (0..4096).filter(|&i| z[i] != x[i] + y[i]).count();
        assert_eq!(wrong, 0, "{rep:?}");
        assert!(rep.ecc_detected > 0, "expected uncorrectable detections: {rep:?}");
        assert!(rep.blocks_restored > 0);
    }

    #[test]
    fn hard_failed_channels_are_quarantined() {
        // Find a seed where some but not all of the 16 channels fail.
        let mut plan = FaultPlan::quiet(0);
        plan.chan_fail_rate = 0.2;
        for seed in 0..1000 {
            plan.seed = seed;
            let failed = (0..16).filter(|&c| plan.channel_failed(c)).count();
            if failed > 0 && failed < 8 {
                break;
            }
        }
        let expected_failed: Vec<usize> = (0..16).filter(|&c| plan.channel_failed(c)).collect();
        assert!(!expected_failed.is_empty());

        let mut ctx = PimContext::small_system();
        ctx.inject_faults(&plan);
        let (x, y) = vectors(1024);
        let (z, rep) = resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default()).unwrap();
        let wrong = (0..1024).filter(|&i| z[i] != x[i] + y[i]).count();
        assert_eq!(wrong, 0, "{rep:?}");
        assert_eq!(rep.quarantined, expected_failed);
        assert!(rep.retries > 0, "quarantine only happens after retries: {rep:?}");
    }

    #[test]
    fn all_channels_failed_falls_back_to_host() {
        let mut ctx = PimContext::small_system();
        let mut plan = FaultPlan::quiet(3);
        plan.chan_fail_rate = 1.0;
        ctx.inject_faults(&plan);
        let (x, y) = vectors(256);
        let (z, rep) = resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default()).unwrap();
        let wrong = (0..256).filter(|&i| z[i] != x[i] + y[i]).count();
        assert_eq!(wrong, 0);
        assert_eq!(rep.host_fallback_blocks, 16, "256 elements = 16 blocks");
        assert_eq!(rep.quarantined.len(), 16);
        assert_eq!(rep.fallback, Some(FallbackReason::AllChannelsQuarantined));
    }

    #[test]
    fn quarantine_budget_exhaustion_is_a_distinct_reason() {
        // Some (not all) channels hard-fail, but the budget allows removing
        // none of them: the ladder must give up with the budget reason, not
        // the all-quarantined one, and still return correct data host-side.
        let mut plan = FaultPlan::quiet(0);
        plan.chan_fail_rate = 0.2;
        for seed in 0..1000 {
            plan.seed = seed;
            let failed = (0..16).filter(|&c| plan.channel_failed(c)).count();
            if failed > 0 && failed < 8 {
                break;
            }
        }
        let mut ctx = PimContext::small_system();
        ctx.inject_faults(&plan);
        let (x, y) = vectors(512);
        let cfg = ResilienceConfig { max_quarantine: 0, ..ResilienceConfig::default() };
        let (z, rep) = resilient_add(&mut ctx, &x, &y, &cfg).unwrap();
        let wrong = (0..512).filter(|&i| z[i] != x[i] + y[i]).count();
        assert_eq!(wrong, 0, "{rep:?}");
        assert_eq!(rep.fallback, Some(FallbackReason::QuarantineBudgetExceeded));
        assert!(!rep.quarantined.is_empty() || rep.host_fallback_blocks > 0, "{rep:?}");
    }

    #[test]
    fn disabled_fallback_reports_wrong_answers() {
        let mut ctx = PimContext::small_system();
        let mut plan = FaultPlan::quiet(3);
        plan.chan_fail_rate = 1.0;
        ctx.inject_faults(&plan);
        let (x, y) = vectors(256);
        let cfg = ResilienceConfig { host_fallback: false, ..ResilienceConfig::default() };
        let (_, rep) = resilient_add(&mut ctx, &x, &y, &cfg).unwrap();
        assert!(rep.wrong_answers > 0);
        assert_eq!(rep.host_fallback_blocks, 0);
    }

    #[test]
    fn input_validation_still_applies() {
        let mut ctx = PimContext::small_system();
        let cfg = ResilienceConfig::default();
        assert!(matches!(resilient_add(&mut ctx, &[], &[], &cfg), Err(PimError::Empty)));
        assert!(matches!(
            resilient_add(&mut ctx, &[1.0], &[1.0, 2.0], &cfg),
            Err(PimError::SizeMismatch { .. })
        ));
    }
}
