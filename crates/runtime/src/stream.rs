//! The stream-kernel job: the one owner of the interleaved x/y/z operand
//! layout (Fig. 15(b)), shared by [`crate::PimBlas`]'s element-wise entry
//! points, the resilience ladder and the serving layer.
//!
//! A job is *mechanism only*: place the operands lock-step over a channel
//! list, build the microkernel and its data batches, and run one verified
//! [`StreamJob::attempt`] — launch on exactly those channels, gather the
//! result, name the blocks that disagree with the exact-FP16
//! [`reference`]. What to do about a bad block or a cancelled channel —
//! scrub and retry, quarantine a channel, trip a breaker, degrade to the
//! host — is the caller's policy and deliberately does not live here.

use crate::blas::PimError;
use crate::context::PimContext;
use crate::executor::Executor;
use crate::kernels::{
    stream_batches, stream_columns, stream_microkernel, stream_rows, StreamOp, GROUP,
};
use crate::layout::{self, Placement, BLOCK_ELEMS};
use pim_core::isa::Instruction;
use pim_core::{LaneVec, PimVariant, UnitMask};
use pim_dram::{BankAddr, Cycle};
use pim_host::{Batch, KernelResult};

/// The home of one resident 32-byte block. `odd` selects the unit's odd
/// bank — where the 2BA variant keeps the second operand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    ch: usize,
    unit: usize,
    row: u32,
    col: u32,
    odd: bool,
}

impl Cell {
    /// The unit's even bank, or its odd one.
    fn bank(&self) -> BankAddr {
        BankAddr::from_flat_index(2 * self.unit + usize::from(self.odd))
    }

    /// Reads the block back (see [`layout::load_block`]).
    pub(crate) fn load(&self, ctx: &PimContext) -> LaneVec {
        let bank = ctx.sys.channel(self.ch).sink().dram().bank(self.bank());
        LaneVec::from_block(&bank.peek_block(self.row, self.col))
    }

    /// DMA-loads `v` into the cell (see [`layout::store_block`]).
    pub(crate) fn store(&self, ctx: &mut PimContext, v: &LaneVec) {
        let bank = ctx.sys.channel_mut(self.ch).sink_mut().dram_mut().bank_mut(self.bank());
        bank.poke_block(self.row, self.col, &v.to_block());
    }
}

/// A stream op's operands, validated and blocked once; re-layouts after a
/// lost channel reuse them.
#[derive(Debug)]
pub(crate) struct StreamOperands {
    op: StreamOp,
    len: usize,
    x: Vec<LaneVec>,
    y: Option<Vec<LaneVec>>,
    x_col: u32,
    /// Column base of the second operand in the even bank; `None` on 2BA,
    /// where it sits in the odd bank at the x columns.
    y_plain_col: Option<u32>,
    z_col: u32,
}

impl StreamOperands {
    /// # Errors
    ///
    /// [`PimError::Empty`] / [`PimError::SizeMismatch`] for bad lengths;
    /// [`PimError::Internal`] if a two-operand op has no second-operand
    /// column on the 1-bank variant (a kernel-table bug).
    pub(crate) fn new(
        ctx: &PimContext,
        op: StreamOp,
        x: &[f32],
        y: Option<&[f32]>,
    ) -> Result<StreamOperands, PimError> {
        if x.is_empty() {
            return Err(PimError::Empty);
        }
        if let Some(y) = y.filter(|y| y.len() != x.len()) {
            return Err(PimError::SizeMismatch {
                detail: format!("x has {} elements, y has {}", x.len(), y.len()),
            });
        }
        let cfg = ctx.sys.pim_config();
        let (x_col, y_col, z_col) = stream_columns(op, cfg);
        let two_bank = cfg.variant == PimVariant::TwoBankAccess;
        if y.is_some() && !two_bank && y_col.is_none() {
            return Err(PimError::Internal {
                detail: format!("stream op {op:?} has no second-operand column"),
            });
        }
        Ok(StreamOperands {
            op,
            len: x.len(),
            x: layout::f32_to_blocks(x),
            y: y.map(layout::f32_to_blocks),
            x_col,
            y_plain_col: y_col.filter(|_| !two_bank),
            z_col,
        })
    }

    pub(crate) fn blocks(&self) -> usize {
        self.x.len()
    }

    /// The intended contents of block `b`: x, and y for two-input ops.
    pub(crate) fn golden(&self, b: usize) -> (&LaneVec, Option<&LaneVec>) {
        (&self.x[b], self.y.as_ref().map(|y| &y[b]))
    }

    /// [`reference`] over the blocks already converted here, so each
    /// operand crosses to FP16 once.
    ///
    /// # Panics
    ///
    /// As [`reference`], and for a one-operand op.
    pub(crate) fn reference(&self) -> Vec<f32> {
        blocks_reference(self.op, &self.x, self.y.as_deref().expect("two operands"), self.len)
    }
}

/// The exact FP16 result of the two-operand op `op` — what a fault-free
/// device returns bit for bit, and so the oracle both recovery ladders
/// verify an attempt against (and the serving layer's host fallback).
///
/// # Panics
///
/// If `op` is not [`StreamOp::Add`] or [`StreamOp::Mul`]: the scalar and
/// one-operand ops are served by no ladder.
pub(crate) fn reference(op: StreamOp, x: &[f32], y: &[f32]) -> Vec<f32> {
    let (xb, yb) = (layout::f32_to_blocks(x), layout::f32_to_blocks(y));
    blocks_reference(op, &xb, &yb, x.len().min(y.len()))
}

/// [`reference`] over operands in 16-lane blocks, a block pair to a call of
/// [`pim_fp16::F16::add_lanes`] / `mul_lanes`, cut to `len` elements.
fn blocks_reference(op: StreamOp, x: &[LaneVec], y: &[LaneVec], len: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len() * BLOCK_ELEMS);
    for (a, b) in x.iter().zip(y) {
        let z = match op {
            StreamOp::Add => a.add(*b),
            StreamOp::Mul => a.mul(*b),
            StreamOp::Relu | StreamOp::Bn | StreamOp::Axpy => {
                unreachable!("{op:?} has no two-operand host reference")
            }
        };
        out.extend(z.to_f32());
    }
    out.truncate(len);
    out
}

/// What one verified launch of a [`StreamJob`] came to.
#[derive(Debug)]
pub(crate) enum Attempt {
    /// The watchdog cancelled these channels (ascending). Nothing was
    /// gathered and no barrier ran: the clocks are where the cancel left
    /// them.
    TimedOut { channels: Vec<usize> },
    /// Every channel ran to completion.
    Ran {
        /// The launch's timing.
        result: KernelResult,
        /// The gathered result vector.
        out: Vec<f32>,
        /// Blocks of `out` that disagree with the oracle, ascending.
        bad: Vec<usize>,
        /// The barrier cycle after the gather.
        finished: Cycle,
    },
}

/// Operands placed over a channel list, with the kernel that consumes them.
#[derive(Debug)]
pub(crate) struct StreamJob<'a> {
    ops: &'a StreamOperands,
    place: Placement<'a>,
    base_row: u32,
    /// Per system channel: the units that hold a real block — the ones
    /// [`StreamJob::gather`] reads.
    live: Vec<UnitMask>,
    program: Vec<Instruction>,
    batches: Vec<Batch>,
}

impl<'a> StreamJob<'a> {
    /// Allocates lock-step rows, stores the operands round-robin over
    /// `channels` (non-empty) and builds the kernel.
    ///
    /// # Errors
    ///
    /// [`PimError::OutOfMemory`] if the reserved region cannot hold them.
    pub(crate) fn place(
        ctx: &mut PimContext,
        ops: &'a StreamOperands,
        channels: &'a [usize],
    ) -> Result<StreamJob<'a>, PimError> {
        let cfg = ctx.sys.pim_config().clone();
        let place = Placement::over(channels, cfg.units_per_pch);
        let rows = stream_rows(ops.len, channels.len(), cfg.units_per_pch);
        let base_row = ctx
            .mm
            .alloc_rows_lockstep(rows)
            .map_err(|e| PimError::OutOfMemory { detail: e.to_string() })?;
        // Blocks past the first `channels × units` land on units already in.
        let mut live = vec![UnitMask::NONE; ctx.sys.channel_count()];
        for b in 0..ops.blocks().min(channels.len() * cfg.units_per_pch) {
            let (ch, unit, _) = place.locate(b);
            live[ch].insert(unit);
        }
        let job = StreamJob {
            ops,
            place,
            base_row,
            live,
            program: stream_microkernel(ops.op, rows, &cfg),
            batches: stream_batches(ops.op, rows, base_row, &cfg),
        };
        for b in 0..ops.blocks() {
            let (x_cell, y_cell) = job.operand_cells(b);
            let (x, y) = ops.golden(b);
            x_cell.store(ctx, x);
            if let Some(y) = y {
                y_cell.store(ctx, y);
            }
        }
        Ok(job)
    }

    /// Block `b`'s cell at column base `col` of the even (or odd) bank.
    fn cell(&self, b: usize, col: u32, odd: bool) -> Cell {
        let (ch, unit, slot) = self.place.locate(b);
        let slot = slot as u32;
        Cell { ch, unit, row: self.base_row + slot / GROUP, col: col + slot % GROUP, odd }
    }

    /// Where block `b` of x and of y live (the y cell is meaningful only
    /// for two-input ops).
    pub(crate) fn operand_cells(&self, b: usize) -> (Cell, Cell) {
        let y = match self.ops.y_plain_col {
            Some(col) => self.cell(b, col, false),
            None => self.cell(b, self.ops.x_col, true),
        };
        (self.cell(b, self.ops.x_col, false), y)
    }

    /// The physical channels the blocks `bad` were placed on, ascending
    /// and deduplicated.
    pub(crate) fn suspects(&self, bad: &[usize]) -> Vec<usize> {
        let mut channels: Vec<usize> = bad.iter().map(|&b| self.place.locate(b).0).collect();
        channels.sort_unstable();
        channels.dedup();
        channels
    }

    /// One verified attempt: launch under the optional watchdog `limit`,
    /// and — unless a channel was cancelled — gather, compare with
    /// `expected` and barrier.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidKernel`] in strict mode.
    pub(crate) fn attempt(
        &self,
        ctx: &mut PimContext,
        expected: &[f32],
        limit: Option<Cycle>,
    ) -> Result<Attempt, PimError> {
        let (result, cancelled) = self.launch(ctx, None, limit, false)?;
        let channels: Vec<usize> =
            cancelled.iter().enumerate().filter(|(_, &c)| c).map(|(ch, _)| ch).collect();
        if !channels.is_empty() {
            return Ok(Attempt::TimedOut { channels });
        }
        let out = self.gather(ctx);
        let bad = bad_blocks(&out, expected);
        let finished = ctx.sys.barrier();
        Ok(Attempt::Ran { result, out, bad, finished })
    }

    /// Launches on exactly the job's channels under an optional watchdog
    /// cycle limit, computing only on the units that hold a real block
    /// (see [`Executor::launch`]). `srf` preloads the scalar registers.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidKernel`] in strict mode.
    pub(crate) fn launch(
        &self,
        ctx: &mut PimContext,
        srf: Option<&LaneVec>,
        limit: Option<Cycle>,
        traced: bool,
    ) -> Result<(KernelResult, Vec<bool>), PimError> {
        let full = Executor::full_kernel(&self.program, srf, false, &self.batches);
        let per_channel = Executor::subset_kernel(ctx, self.place.channels(), &full);
        Executor::launch(ctx, &self.program, &per_channel, limit, traced, Some(&self.live))
    }

    /// Reads the result vector back from the z columns.
    pub(crate) fn gather(&self, ctx: &PimContext) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.ops.blocks() * BLOCK_ELEMS);
        for b in 0..self.ops.blocks() {
            let cell = self.cell(b, self.ops.z_col, false);
            debug_assert!(self.live[cell.ch].contains(cell.unit), "gather reads a dead unit");
            let v = cell.load(ctx);
            out.extend((0..BLOCK_ELEMS).map(|l| v[l].to_f32()));
        }
        out.truncate(self.ops.len);
        out
    }
}

/// Blocks of `got` that differ from `expected` in any bit, ascending.
fn bad_blocks(got: &[f32], expected: &[f32]) -> Vec<usize> {
    got.chunks(BLOCK_ELEMS)
        .zip(expected.chunks(BLOCK_ELEMS))
        .enumerate()
        .filter(|(_, (g, e))| g.iter().zip(*e).any(|(a, b)| a.to_bits() != b.to_bits()))
        .map(|(b, _)| b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_fp16::F16;

    /// Both oracles — [`reference`] from `f32` and
    /// [`StreamOperands::reference`] from the placed blocks — equal the
    /// scalar definition `F16::from_f32(a) + F16::from_f32(b)` (and `*`)
    /// bit for bit, NaN bits included, over lengths on both sides of a
    /// block and operands that keep whole blocks on the lanes' fast path,
    /// plant specials in them, or are arbitrary bit patterns.
    #[test]
    fn both_oracles_equal_the_scalar_definition_bit_for_bit() {
        let specials = [
            f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
            f32::from_bits(0xFF80_0001), // negative signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0e-6,                      // subnormal in binary16
            -6.0e-8,                     // the smallest subnormal's neighbourhood
            f32::from_bits(0x3A00_0000), // 2^-11: 1 + 2^-11 ties to even
            f32::from_bits(0x3A40_0000), // 3 * 2^-12
            2049.0,                      // a tie at ULP 2
            65_520.0,                    // ties to infinity
            65_504.0,
            f32::from_bits(0x3880_0000), // 2^-14, the smallest normal
        ];
        let ctx = PimContext::small_system();
        let mut state = 0xA409_3822_299F_31D0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1, 15, 16, 17, 4097] {
            for op in [StreamOp::Add, StreamOp::Mul] {
                let mut operand = |salt: u64| -> Vec<f32> {
                    (0..len)
                        .map(|i| {
                            let r = next();
                            match ((i / BLOCK_ELEMS) as u64 ^ salt) % 3 {
                                0 => ((r % 4001) as f32 - 2000.0) / 16.0,
                                1 if r % 4 == 0 => specials[(r >> 8) as usize % specials.len()],
                                1 => ((r % 801) as f32 - 400.0) / 64.0,
                                _ => f32::from_bits(r as u32),
                            }
                        })
                        .collect()
                };
                let (x, y) = (operand(0), operand(1));
                let want: Vec<u32> = x
                    .iter()
                    .zip(&y)
                    .map(|(&a, &b)| {
                        let (a, b) = (F16::from_f32(a), F16::from_f32(b));
                        let z = if op == StreamOp::Add { a + b } else { a * b };
                        z.to_f32().to_bits()
                    })
                    .collect();
                let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
                assert_eq!(bits(reference(op, &x, &y)), want, "{op:?}, {len} from f32");
                let ops = StreamOperands::new(&ctx, op, &x, Some(&y)).unwrap();
                assert_eq!(bits(ops.reference()), want, "{op:?}, {len} from the blocks");
            }
        }
    }

    /// A job declares live exactly the units `gather` reads: the ones that
    /// hold a real block, over the whole system and over a channel subset.
    #[test]
    fn a_job_masks_exactly_the_units_its_gather_reads() {
        let all: Vec<usize> = (0..64).collect();
        let survivors = [3usize, 17, 40];
        for len in [1, 16, 17, 128, 4096, 8192, 8193] {
            for channels in [&all[..], &survivors[..]] {
                let mut ctx = PimContext::paper_system();
                let x = vec![1.0f32; len];
                let ops = StreamOperands::new(&ctx, StreamOp::Add, &x, Some(&x)).unwrap();
                let job = StreamJob::place(&mut ctx, &ops, channels).unwrap();
                let mut read: Vec<(usize, usize)> = (0..ops.blocks())
                    .map(|b| job.cell(b, ops.z_col, false))
                    .map(|cell| (cell.ch, cell.unit))
                    .collect();
                read.sort_unstable();
                read.dedup();
                let live: Vec<(usize, usize)> = (0..64)
                    .flat_map(|ch| (0..8).map(move |u| (ch, u)))
                    .filter(|&(ch, u)| job.live[ch].contains(u))
                    .collect();
                assert_eq!(live, read, "len {len} over {} channels", channels.len());
                assert_eq!(read.len(), len.div_ceil(BLOCK_ELEMS).min(channels.len() * 8));
            }
        }
    }
}
