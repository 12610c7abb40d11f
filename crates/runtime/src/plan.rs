//! The GEMV job: one owner for the paper's headline kernel, and the
//! serving-path API over the launch-memoization fast path.
//!
//! A [`GemvPlan`] *is* the GEMV. `prepare` validates the shape, derives
//! the [`GemvGeometry`], places the weights and builds the full command
//! list of every pass *once* — one list per pass, which every channel runs
//! in lock-step (Section III-A); `launch` patches the input vector's bytes
//! into the prebuilt write commands in place, hands each channel a view of
//! the pass's list, runs the engine,
//! reduces the eight GRF_B partial sums per lane on the host and
//! assembles the [`KernelReport`]. [`crate::PimBlas::gemv`] is the
//! one-shot form — `prepare` and a single `launch` — and every other GEMV
//! front end (`gemv_bias`, `lstm_cell`, the cluster's sharded GEMV, the
//! cost model's geometry) is a caller of this module. That is the
//! workload the paper serves (Section V: the runtime "caches the
//! generated code to reuse later"): one weight matrix multiplied by a
//! stream of input vectors.
//!
//! Because the input scalars ride in writes to ordinary data rows, every
//! `launch` of a plan shares one launch key (see `pim_host::fastpath`),
//! and from the first steady-state repeat onward the engine replays the
//! recorded timing analytically instead of simulating and runs only the
//! FP16 data path. Because every channel is handed the *same* list, even
//! the first launch simulates one channel per class of equal entry state —
//! one of 64 on a fresh system — and serves the rest from its recording.
//! On both paths the data path runs only where the
//! reduce will look: each pass declares the units that own output rows
//! (`pim_host::PimSystem::set_live_units`), and the rest — 448 of 512 for
//! Table VI GEMV1 — retire their triggers from the instruction alone.
//! Outputs, cycle counts, reports, statistics and energy are those of the
//! full simulation on every launch.

use crate::blas::{traced_op, KernelReport, PimError};
use crate::context::PimContext;
use crate::executor::Executor;
use crate::kernels::{gemv_kernel, gemv_microkernel, gemv_x_block, COLS_PER_ROW, GROUP};
use crate::layout::{self, BLOCK_ELEMS};
use pim_core::isa::Instruction;
use pim_core::{LaneVec, PimVariant, UnitMask};
use pim_dram::Command;
use pim_fp16::F16;
use pim_host::{Batch, KernelResult};

/// The GEMV weight-shape rule, stated once: non-empty, `w` is `n × k`.
pub(crate) fn check_weights(w_len: usize, n: usize, k: usize) -> Result<(), PimError> {
    if n == 0 || k == 0 {
        return Err(PimError::Empty);
    }
    if n.checked_mul(k) != Some(w_len) {
        return Err(PimError::SizeMismatch {
            detail: format!("w has {w_len} elements, expected n*k = {n}*{k}"),
        });
    }
    Ok(())
}

/// The GEMV input-shape rule, stated once: `x` has `k` elements.
pub(crate) fn check_input(x_len: usize, k: usize) -> Result<(), PimError> {
    if x_len != k {
        return Err(PimError::SizeMismatch {
            detail: format!("x has {x_len} elements, expected k = {k}"),
        });
    }
    Ok(())
}

/// Where an `n × k` GEMV lands on a `channels × units` system: outputs are
/// distributed 16 per unit (one per SIMD lane), `lanes_per_pass` per
/// lock-step pass; the reduction dimension is padded to whole 8-input
/// groups, 32 inputs per DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemvGeometry {
    /// Output rows.
    pub n: usize,
    /// Input length (the reduction dimension).
    pub k: usize,
    /// PIM units per channel.
    pub units: usize,
    /// Output lanes one pass covers (`channels × units × 16`).
    pub lanes_per_pass: usize,
    /// Lock-step passes over the system.
    pub passes: usize,
    /// `k` padded to a whole number of 8-input groups.
    pub kpad: usize,
    /// Weight rows each pass occupies in every unit's even bank.
    pub rows_per_pass: u32,
}

impl GemvGeometry {
    /// The geometry of an `n × k` GEMV over `channels × units` PIM units.
    pub fn new(n: usize, k: usize, channels: usize, units: usize) -> GemvGeometry {
        let lanes_per_pass = channels * units * BLOCK_ELEMS;
        let kpad = k.div_ceil(GROUP as usize) * GROUP as usize;
        GemvGeometry {
            n,
            k,
            units,
            lanes_per_pass,
            passes: n.div_ceil(lanes_per_pass),
            kpad,
            rows_per_pass: (kpad as u32).div_ceil(COLS_PER_ROW),
        }
    }

    /// 8-input groups the microkernel loops over.
    pub fn groups(&self) -> u32 {
        (self.kpad / GROUP as usize) as u32
    }

    /// The first output row (`ch`, `unit`) owns in pass `p` — lane `l`
    /// owns `out_base + l` — or `None` when the unit is past the last row.
    pub fn out_base(&self, p: usize, ch: usize, unit: usize) -> Option<usize> {
        let base = p * self.lanes_per_pass + (ch * self.units + unit) * BLOCK_ELEMS;
        (base < self.n).then_some(base)
    }

    /// The `(channel, unit, out_base)` of every unit that owns outputs in
    /// pass `p`, channel-major (`out_base` grows with the unit index, so
    /// the owners are a prefix).
    fn owners(self, p: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        (0..self.lanes_per_pass / BLOCK_ELEMS).map_while(move |i| {
            let (ch, unit) = (i / self.units, i % self.units);
            self.out_base(p, ch, unit).map(|base| (ch, unit, base))
        })
    }
}

/// Where one input scalar group lands in the prebuilt command lists.
#[derive(Debug, Clone, Copy)]
struct XSlot {
    /// Batch index into a pass's full (choreography-wrapped) list.
    batch: usize,
    /// Command index within that batch.
    cmd: usize,
    /// First input index the slot's write carries (`x[j0..j0+8]` packed
    /// into lanes 0–7, or the single `x[j0]` broadcast under the
    /// simultaneous-RD/WR variant).
    j0: usize,
}

/// A prepared GEMV: weights placed, command choreography built, input
/// slots indexed. Create with [`GemvPlan::prepare`], run with
/// [`GemvPlan::launch`].
#[derive(Debug)]
pub struct GemvPlan {
    geometry: GemvGeometry,
    srw: bool,
    program: Vec<Instruction>,
    /// `[pass][batch]` — the exact list every channel runs in that pass
    /// (lock-step execution: the weights differ per channel, the commands
    /// do not).
    per_pass: Vec<Vec<Batch>>,
    /// Input-write positions, identical across passes.
    x_slots: Vec<XSlot>,
    /// `[pass][channel]` — the units whose GRF_B the reduce reads back.
    live: Vec<Vec<UnitMask>>,
}

impl GemvPlan {
    /// Places `w` (`n × k`, row-major) across the system and prebuilds the
    /// complete launch choreography. One plan owns its weight rows for the
    /// context's lifetime.
    ///
    /// # Errors
    ///
    /// [`PimError::SizeMismatch`] if `w.len() != n*k`; [`PimError::Empty`]
    /// for zero dimensions; [`PimError::OutOfMemory`] if the weights do
    /// not fit.
    pub fn prepare(
        ctx: &mut PimContext,
        w: &[f32],
        n: usize,
        k: usize,
    ) -> Result<GemvPlan, PimError> {
        check_weights(w.len(), n, k)?;
        let cfg = ctx.sys.pim_config().clone();
        let srw = cfg.variant == PimVariant::SimultaneousReadWrite;
        let channels = ctx.sys.channel_count();
        let g = GemvGeometry::new(n, k, channels, cfg.units_per_pch);
        let base_row = ctx
            .mm
            .alloc_rows_lockstep(g.rows_per_pass * g.passes as u32)
            .map_err(|e| PimError::OutOfMemory { detail: e.to_string() })?;

        // Weight placement: lane l of (pass, ch, unit) owns output row
        // out_base + l; input j sits at (row j/32, col j%32). Each owned
        // row of `w` is converted in one contiguous sweep into the unit's
        // k blocks, which are then stored.
        let mut blocks = vec![[F16::ZERO; BLOCK_ELEMS]; k];
        for p in 0..g.passes {
            let prow = base_row + p as u32 * g.rows_per_pass;
            for (ch, u, out_base) in g.owners(p) {
                let rows = w[out_base * k..].chunks(k).take(BLOCK_ELEMS);
                if rows.len() < BLOCK_ELEMS {
                    // Lanes past the last output row carry zeros.
                    blocks.fill([F16::ZERO; BLOCK_ELEMS]);
                }
                for (l, row) in rows.enumerate() {
                    for (block, &v) in blocks.iter_mut().zip(row) {
                        block[l] = F16::from_f32(v);
                    }
                }
                for (j, block) in blocks.iter().enumerate() {
                    layout::store_block(
                        &mut ctx.sys,
                        ch,
                        u,
                        prow + j as u32 / COLS_PER_ROW,
                        j as u32 % COLS_PER_ROW,
                        &LaneVec::from_lanes(*block),
                    );
                }
            }
        }

        let program = gemv_microkernel(g.groups(), &cfg);
        let mut per_pass = Vec::with_capacity(g.passes);
        let mut x_slots = Vec::new();
        let mut live = Vec::with_capacity(g.passes);
        for p in 0..g.passes {
            let prow = base_row + p as u32 * g.rows_per_pass;
            let kernel = Executor::kernel(&program, None, true, gemv_kernel(g.kpad, prow, &cfg));
            let prefix = kernel.prologue.len();
            let full = kernel.materialise();
            if p == 0 {
                // Between the choreography prefix (enter-AB, CRF, GRF
                // clear, PIM-on) and its two closing batches, the input
                // writes are the only WRs.
                for (bi, b) in full.iter().enumerate().take(full.len() - 2).skip(prefix) {
                    let writes = (b.commands.iter().enumerate())
                        .filter(|(_, c)| matches!(c, Command::Wr { .. }));
                    for (ci, _) in writes {
                        let j0 = x_slots.len() * if srw { 1 } else { GROUP as usize };
                        x_slots.push(XSlot { batch: bi, cmd: ci, j0 });
                    }
                }
            }
            per_pass.push(full);
            live.push(
                (0..channels)
                    .map(|ch| (0..g.units).filter(|&u| g.out_base(p, ch, u).is_some()).collect())
                    .collect(),
            );
        }
        Ok(GemvPlan { geometry: g, srw, program, per_pass, x_slots, live })
    }

    /// Writes `x` into every prebuilt input-write command of every pass.
    fn patch_x(&mut self, x: &[f32]) {
        for si in 0..self.x_slots.len() {
            let XSlot { batch, cmd, j0 } = self.x_slots[si];
            let block = gemv_x_block(x, j0, self.srw);
            for pass in &mut self.per_pass {
                let Command::Wr { data, .. } = &mut pass[batch].commands[cmd] else {
                    unreachable!("x slot no longer points at a WR");
                };
                *data = block;
            }
        }
    }

    /// Runs the prepared GEMV for one input vector. Numerics, cycle
    /// counts, and reports are those of the cold path on every launch —
    /// only the host-side wall clock differs (steady-state launches
    /// replay from the launch-memoization cache).
    ///
    /// # Errors
    ///
    /// [`PimError::SizeMismatch`] if `x.len() != k`; in strict mode,
    /// [`PimError::InvalidKernel`] if the verifier rejects the microkernel.
    pub fn launch(
        &mut self,
        ctx: &mut PimContext,
        x: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        self.launch_as(ctx, x, "gemv_plan", false)
    }

    /// [`GemvPlan::launch`] with the analytic predictor cross-checked
    /// against the simulator on every pass: before each pass runs,
    /// [`pim_host::predict_launch`] derives the pass's end cycle, command
    /// count, and fence count analytically, and any divergence from what
    /// the engine then actually does fails the launch with
    /// [`PimError::Internal`]. The `fastpath-crosscheck` CI gate drives
    /// this over the committed corpus; see `docs/FASTPATH.md`.
    pub fn launch_crosschecked(
        &mut self,
        ctx: &mut PimContext,
        x: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        self.launch_as(ctx, x, "gemv_plan", true)
    }

    /// The launch under the op span `op`: `"gemv_plan"` for a prepared
    /// plan's launches, `"gemv"` for the one-shot [`crate::PimBlas::gemv`].
    pub(crate) fn launch_as(
        &mut self,
        ctx: &mut PimContext,
        x: &[f32],
        op: &'static str,
        crosscheck: bool,
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        let g = self.geometry;
        check_input(x.len(), g.k)?;
        self.patch_x(x);
        traced_op(ctx, op, g.n, |ctx| {
            let mut out = vec![0.0f32; g.n];
            let mut launched = KernelResult::ZERO;
            for p in 0..g.passes {
                // One list, every channel: the engine sees lock-step.
                let lists = vec![self.per_pass[p].as_slice(); self.live[p].len()];
                let predicted =
                    crosscheck.then(|| pim_host::predict_launch(&ctx.sys, &lists, ctx.mode, None));
                let live = Some(self.live[p].as_slice());
                let (r, _) = Executor::launch(ctx, &self.program, &lists, None, true, live)?;
                if let Some(predicted) = predicted {
                    let agrees = predicted.as_ref().is_some_and(|pr| {
                        pr.end_cycle == r.end_cycle
                            && pr.commands == r.commands
                            && pr.fences == r.fences
                    });
                    if !agrees {
                        return Err(PimError::Internal {
                            detail: format!(
                                "analytic predictor diverged on pass {p}: \
                                 predicted {predicted:?}, simulated {r:?}"
                            ),
                        });
                    }
                }
                launched = KernelResult::merged([launched, r]);
                // Host-side reduction of the 8 partial accumulators per
                // lane, in f32, register order.
                for (ch, u, out_base) in g.owners(p) {
                    debug_assert!(self.live[p][ch].contains(u), "reduce reads a dead unit");
                    let grfb = Executor::try_read_grf_b(ctx, ch, u)?;
                    for (l, o) in out[out_base..].iter_mut().take(BLOCK_ELEMS).enumerate() {
                        *o = grfb.iter().map(|v| v[l].to_f32()).sum();
                    }
                }
                ctx.sys.barrier();
            }
            Ok((out, launched))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PimBlas;

    fn weights(n: usize, k: usize) -> Vec<f32> {
        (0..n * k).map(|i| ((i * 7 % 41) as f32 - 20.0) / 32.0).collect()
    }

    fn input(k: usize, salt: usize) -> Vec<f32> {
        (0..k).map(|i| (((i * 3 + salt) % 17) as f32 - 8.0) / 16.0).collect()
    }

    #[test]
    fn prepare_refuses_a_shape_whose_product_overflows() {
        let mut ctx = PimContext::small_system();
        let refused = GemvPlan::prepare(&mut ctx, &[], 1 << 63, 2);
        assert!(matches!(refused, Err(PimError::SizeMismatch { .. })), "{refused:?}");
        assert_eq!(ctx.mm.min_available(), PimContext::small_system().mm.min_available());
    }

    #[test]
    fn steady_state_launches_hit_and_stay_identical() {
        let (n, k) = (64, 96);
        let w = weights(n, k);
        let (x1, x2) = (input(k, 0), input(k, 5));
        let mut ctx = PimContext::small_system();
        let mut plan = GemvPlan::prepare(&mut ctx, &w, n, k).unwrap();
        let (y1, r1) = plan.launch(&mut ctx, &x1).unwrap();
        let (_y2, r2) = plan.launch(&mut ctx, &x2).unwrap();
        // Launch 3 onward starts from the recurring post-readback state.
        let (y3, r3) = plan.launch(&mut ctx, &x1).unwrap();
        let (y4, r4) = plan.launch(&mut ctx, &x2).unwrap();
        let stats = ctx.sys.fastpath_stats();
        assert!(stats.hits >= 2, "expected steady-state replays, got {stats:?}");
        assert_eq!(y3, y1, "replayed numerics must match the cold run");
        assert_eq!(y4, _y2);
        assert_eq!(r2.cycles, r3.cycles, "steady-state launches cost the same cycles");
        assert_eq!(r3.cycles, r4.cycles);
        assert_eq!(r1.commands, r3.commands);
        assert_eq!(r1.fences, r3.fences);
        assert_eq!(y1, PimBlas::reference_gemv(&w, n, k, &x1));
    }

    /// Each pass declares live exactly the units whose GRF_B the reduce
    /// reads back — a partly populated last channel (n = 1000) and a short
    /// last pass included.
    #[test]
    fn a_pass_masks_exactly_the_units_its_reduce_reads() {
        let per_pass = 64 * 8 * BLOCK_ELEMS;
        for n in [1, 16, 100, 1000, 1024, per_pass + 16] {
            let mut ctx = PimContext::paper_system();
            let plan = GemvPlan::prepare(&mut ctx, &weights(n, 8), n, 8).unwrap();
            let g = plan.geometry;
            assert_eq!(plan.live.len(), g.passes);
            for p in 0..g.passes {
                let read: Vec<(usize, usize)> = g.owners(p).map(|(ch, u, _)| (ch, u)).collect();
                let live: Vec<(usize, usize)> = (0..64)
                    .flat_map(|ch| (0..8).map(move |u| (ch, u)))
                    .filter(|&(ch, u)| plan.live[p][ch].contains(u))
                    .collect();
                assert_eq!(live, read, "n = {n}, pass {p}");
                assert_eq!(read.len(), (n - p * per_pass).min(per_pass).div_ceil(BLOCK_ELEMS));
            }
        }
    }

    #[test]
    fn crosschecked_launch_agrees_with_predictor() {
        let (n, k) = (48, 64);
        let w = weights(n, k);
        let x = input(k, 1);
        let mut ctx = PimContext::small_system();
        let mut plan = GemvPlan::prepare(&mut ctx, &w, n, k).unwrap();
        // Cold, recording, and replaying launches must all agree with the
        // analytic prediction (replay is exact, so the cross-check holds
        // warm too).
        for _ in 0..3 {
            let (y, _) = plan.launch_crosschecked(&mut ctx, &x).unwrap();
            assert_eq!(y, PimBlas::reference_gemv(&w, n, k, &x));
        }
        assert!(ctx.sys.fastpath_stats().hits >= 1);
    }

    #[test]
    fn disabled_fastpath_gives_identical_results() {
        let (n, k) = (32, 64);
        let w = weights(n, k);
        let x = input(k, 3);
        let run = |enable: bool| {
            let mut ctx = PimContext::small_system();
            ctx.sys.set_fastpath_enabled(enable);
            let mut plan = GemvPlan::prepare(&mut ctx, &w, n, k).unwrap();
            let mut outs = Vec::new();
            for _ in 0..4 {
                let (y, r) = plan.launch(&mut ctx, &x).unwrap();
                outs.push((y, r.cycles, r.commands, r.fences));
            }
            (outs, ctx.sys.fastpath_stats().hits)
        };
        let (warm, hits_on) = run(true);
        let (cold, hits_off) = run(false);
        assert!(hits_on >= 1);
        assert_eq!(hits_off, 0);
        assert_eq!(warm, cold, "fast path must be observationally invisible");
    }
}
