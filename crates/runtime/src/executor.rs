//! The PIM executor (Section V-A): "configures and invokes a PIM kernel".
//!
//! The executor assembles the complete standard-command choreography around
//! a kernel's data phase (Fig. 7):
//!
//! 1. enter all-bank mode (ACT+PRE on `ABMR`);
//! 2. program the microkernel into every CRF (memory-mapped writes,
//!    broadcast across units in AB mode);
//! 3. optionally preload the SRF and clear the GRF accumulators;
//! 4. set `PIM_OP_MODE = 1` — every unit's sequencer resets to CRF entry 0;
//! 5. stream the data-phase batches (the only part the microbenchmarks
//!    time at steady state, but we charge the full choreography);
//! 6. set `PIM_OP_MODE = 0`, exit to single-bank mode.
//!
//! Result readback (e.g. GEMV partial sums) happens afterwards in
//! single-bank mode through the memory-mapped GRF row of each unit's even
//! bank.
//!
//! The choreography is built **once** per launch and every participating
//! channel is handed a view of it ([`Executor::subset_kernel`]): the
//! paper's channels run one kernel in lock-step, and a shared list is what
//! lets the engine walk it once and simulate it once per class of channels
//! in equal state (`pim_host::fastpath`).

use crate::blas::PimError;
use crate::context::PimContext;
use crate::preprocessor::Preprocessor;
use pim_core::isa::Instruction;
use pim_core::{conf, LaneVec, UnitMask};
use pim_dram::{BankAddr, Command, CommandSink, Cycle};
use pim_host::{Batch, Kernel, KernelEngine, KernelResult};
use pim_obs::{names, Scope};

/// The PIM executor: stateless command-choreography builder + runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor;

impl Executor {
    /// Builds the CRF-programming batches: one 32-byte write covers 8
    /// instructions.
    fn crf_batches(program: &[Instruction]) -> Vec<Batch> {
        let bank = BankAddr::new(0, 0);
        let mut cmds = vec![Command::Act { bank, row: conf::CRF_ROW }];
        for (col, data) in conf::crf_blocks(program).into_iter().enumerate() {
            cmds.push(Command::Wr { bank, col: col as u32, data });
        }
        cmds.push(Command::Pre { bank });
        vec![Batch::setup(cmds).with_label("crf")]
    }

    /// Builds the SRF-preload batch (scale scalars in lanes 0–7 → SRF_M,
    /// shift scalars in lanes 8–15 → SRF_A).
    fn srf_batch(values: &LaneVec) -> Batch {
        let bank = BankAddr::new(0, 0);
        Batch::setup(vec![
            Command::Act { bank, row: conf::SRF_ROW },
            Command::Wr { bank, col: 0, data: values.to_block() },
            Command::Pre { bank },
        ])
        .with_label("srf")
    }

    /// Builds the GRF_B-clearing batch (broadcast zeros to columns 8–15 of
    /// the GRF row) — resets GEMV accumulators between passes.
    fn clear_grf_b_batch() -> Batch {
        let bank = BankAddr::new(0, 0);
        let mut cmds = vec![Command::Act { bank, row: conf::GRF_ROW }];
        for c in 8..16 {
            cmds.push(Command::Wr { bank, col: c, data: [0u8; 32] });
        }
        cmds.push(Command::Pre { bank });
        Batch::setup(cmds).with_label("clear_grf_b")
    }

    /// Wraps the data phase `data` (identical per channel — lock-step
    /// execution over per-channel data) in the full kernel choreography.
    pub fn kernel(
        program: &[Instruction],
        srf: Option<&LaneVec>,
        clear_grf_b: bool,
        data: Kernel,
    ) -> Kernel {
        // Sized for the whole materialised list when `data` is a plain one
        // (every stream launch): `materialise` then grows nothing.
        let mut prologue = Vec::with_capacity(7 + data.prologue.len() + data.epilogue.len());
        prologue.push(Batch::setup(conf::enter_ab_sequence()).with_label("enter_ab"));
        prologue.extend(Self::crf_batches(program));
        prologue.extend(srf.map(Self::srf_batch));
        prologue.extend(clear_grf_b.then(Self::clear_grf_b_batch));
        prologue.push(Batch::setup(conf::set_pim_op_mode_sequence(true)).with_label("pim_on"));
        prologue.extend(data.prologue);
        let mut epilogue = data.epilogue;
        epilogue.push(Batch::setup(conf::set_pim_op_mode_sequence(false)).with_label("pim_off"));
        epilogue.push(Batch::setup(conf::exit_ab_sequence()).with_label("exit_ab"));
        Kernel { prologue, body: data.body, epilogue }
    }

    /// [`Executor::kernel`] around the plain list `data_batches`,
    /// materialised.
    pub fn full_kernel(
        program: &[Instruction],
        srf: Option<&LaneVec>,
        clear_grf_b: bool,
        data_batches: &[Batch],
    ) -> Vec<Batch> {
        let data = Kernel { prologue: data_batches.to_vec(), ..Kernel::default() };
        Self::kernel(program, srf, clear_grf_b, data).materialise()
    }

    /// Runs the same kernel choreography on the first `channels` channels
    /// of the system.
    ///
    /// # Panics
    ///
    /// In strict mode ([`PimContext::set_strict`]), panics if the static
    /// verifier rejects `program`; use [`Executor::try_run`] to handle the
    /// report instead.
    pub fn run(
        ctx: &mut PimContext,
        channels: usize,
        program: &[Instruction],
        srf: Option<&LaneVec>,
        clear_grf_b: bool,
        data_batches: &[Batch],
    ) -> KernelResult {
        Self::try_run(ctx, channels, program, srf, clear_grf_b, data_batches)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Executor::run`], but in strict mode a kernel the static verifier
    /// rejects returns [`PimError::InvalidKernel`] (with the full
    /// diagnostic report) instead of being simulated.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidKernel`] when `ctx.strict` is set and
    /// `pim-verify` reports at least one error for `program` under the
    /// system's configured variant.
    pub fn try_run(
        ctx: &mut PimContext,
        channels: usize,
        program: &[Instruction],
        srf: Option<&LaneVec>,
        clear_grf_b: bool,
        data_batches: &[Batch],
    ) -> Result<KernelResult, PimError> {
        let selected: Vec<usize> = (0..channels).collect();
        let full = Self::full_kernel(program, srf, clear_grf_b, data_batches);
        let per_channel = Self::subset_kernel(ctx, &selected, &full);
        Ok(Self::launch(ctx, program, &per_channel, None, true, None)?.0)
    }

    /// The one place a kernel is put on a channel subset: a view of the one
    /// choreography `full` for every channel in `channels` and an empty
    /// batch list — the channel sits the launch out — for the rest of the
    /// system. Lock-step execution is one command list (§III-A, §V);
    /// handing every channel the same slice is how the engine gets to see
    /// that (`pim_host::fastpath`, "Channel classes").
    pub(crate) fn subset_kernel<'a>(
        ctx: &PimContext,
        channels: &[usize],
        full: &'a [Batch],
    ) -> Vec<&'a [Batch]> {
        (0..ctx.sys.channel_count())
            .map(|ch| if channels.contains(&ch) { full } else { &[] })
            .collect()
    }

    /// The one launch bracket, over prebuilt per-channel lists that arm
    /// `program`: strict-mode verification, then the engine under `limit`.
    /// `traced` wraps the run in the `"kernel"` span and folds the
    /// launch-memoization counters it advanced — launches by outcome,
    /// channels by simulated or replayed — into the recorder (the
    /// recovery ladders launch untraced and bracket their attempts with
    /// their own request-scoped events). `live` is the job's per-channel
    /// mask of the units whose results it will read back
    /// ([`pim_host::PimSystem::set_live_units`] states what that buys and
    /// what stays exact); it is declared only once the launch is certain
    /// to run, and `None` launches all-live.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidKernel`] in strict mode, as for
    /// [`Executor::try_run`].
    pub(crate) fn launch(
        ctx: &mut PimContext,
        program: &[Instruction],
        per_channel: &[&[Batch]],
        limit: Option<Cycle>,
        traced: bool,
        live: Option<&[UnitMask]>,
    ) -> Result<(KernelResult, Vec<bool>), PimError> {
        if ctx.strict {
            Preprocessor::verify_kernel(ctx.sys.pim_config(), program)
                .map_err(|report| PimError::InvalidKernel { report })?;
        }
        if let Some(live) = live {
            ctx.sys.set_live_units(live);
        }
        let rec = ctx.recorder.clone().filter(|_| traced);
        let (fp_before, ch_before) = (ctx.sys.fastpath_stats(), ctx.sys.fastpath_channels());
        if let Some(r) = &rec {
            r.begin(ctx.sys.max_now(), "kernel", names::CAT_KERNEL, Scope::GLOBAL);
        }
        let out = KernelEngine::run_system_bounded(&mut ctx.sys, per_channel, ctx.mode, limit);
        if let Some(r) = &rec {
            r.end(ctx.sys.max_now(), "kernel", names::CAT_KERNEL, Scope::GLOBAL);
            // Channel-attached recorders force the cold path, so under full
            // tracing this mostly reports `fastpath.uncacheable` — which is
            // itself the fact worth recording.
            let fp = ctx.sys.fastpath_stats();
            r.add(names::FASTPATH_HITS, fp.hits - fp_before.hits);
            r.add(names::FASTPATH_MISSES, fp.misses - fp_before.misses);
            r.add(names::FASTPATH_INSERTIONS, fp.insertions - fp_before.insertions);
            r.add(names::FASTPATH_UNCACHEABLE, fp.uncacheable - fp_before.uncacheable);
            r.add(names::FASTPATH_UNPROVEN, fp.unproven - fp_before.unproven);
            let ch = ctx.sys.fastpath_channels();
            r.add(names::FASTPATH_CHANNELS_SIMULATED, ch.simulated - ch_before.simulated);
            r.add(names::FASTPATH_CHANNELS_REPLAYED, ch.replayed - ch_before.replayed);
        }
        Ok(out)
    }

    /// Reads GRF_A[0..8] of (`ch`, `unit`) back through the memory-mapped
    /// GRF row in single-bank mode (columns 0-7). Timed: the commands
    /// advance the channel's clock.
    ///
    /// # Errors
    ///
    /// [`PimError::Internal`] if the device rejects a readback command —
    /// the channel was left in a mode where the GRF row is not mapped.
    pub fn try_read_grf_a(
        ctx: &mut PimContext,
        ch: usize,
        unit: usize,
    ) -> Result<[LaneVec; 8], PimError> {
        Self::read_grf(ctx, ch, unit, 0)
    }

    /// Reads GRF_B[0..8] of (`ch`, `unit`) back the same way (columns
    /// 8-15). Timed.
    ///
    /// # Errors
    ///
    /// [`PimError::Internal`] if the device rejects a readback command.
    pub fn try_read_grf_b(
        ctx: &mut PimContext,
        ch: usize,
        unit: usize,
    ) -> Result<[LaneVec; 8], PimError> {
        Self::read_grf(ctx, ch, unit, 8)
    }

    /// The memory-mapped GRF read-back of one unit, as commands: ACT the
    /// GRF row of the unit's even bank, read the eight columns from
    /// `col_base` (0 = GRF_A, 8 = GRF_B), PRE. The timed read-back, the
    /// cost model and the choreography linter all issue exactly this list.
    pub fn grf_readback_commands(unit: usize, col_base: u32) -> Vec<Command> {
        let bank = BankAddr::from_flat_index(2 * unit);
        let mut cmds = vec![Command::Act { bank, row: conf::GRF_ROW }];
        cmds.extend((0..8).map(|i| Command::Rd { bank, col: col_base + i }));
        cmds.push(Command::Pre { bank });
        cmds
    }

    fn read_grf(
        ctx: &mut PimContext,
        ch: usize,
        unit: usize,
        col_base: u32,
    ) -> Result<[LaneVec; 8], PimError> {
        let ctrl = ctx.sys.channel_mut(ch);
        let mut out = [LaneVec::zero(); 8];
        let mut now = ctrl.now();
        let mut next_reg = 0;
        for cmd in &Self::grf_readback_commands(unit, col_base) {
            let at = ctrl.sink().earliest_issue(cmd, now);
            let outcome = ctrl.sink_mut().issue(cmd, at).map_err(|e| PimError::Internal {
                detail: format!("GRF readback on channel {ch} unit {unit}: {cmd}: {e}"),
            })?;
            now = at;
            if let Some(d) = outcome.data {
                out[next_reg] = LaneVec::from_block(&d);
                next_reg += 1;
            }
        }
        ctrl.advance_to(now);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::isa::Operand;
    use pim_core::PimMode;

    #[test]
    fn choreography_brackets_data_phase() {
        let prog = vec![Instruction::Exit];
        let data =
            vec![Batch::commutative(vec![Command::Rd { bank: BankAddr::new(0, 0), col: 0 }])];
        let all = Executor::full_kernel(&prog, None, false, &data);
        // enter AB, CRF, op-mode on, data, op-mode off, exit AB.
        assert_eq!(all.len(), 6);
        assert!(!all[0].fence_after);
    }

    #[test]
    fn run_leaves_system_in_single_bank_mode() {
        let mut ctx = crate::PimContext::small_system();
        let prog = vec![
            Instruction::Mov {
                dst: Operand::grf_a(0),
                src: Operand::even_bank(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ];
        let bank = BankAddr::new(0, 0);
        let data = vec![
            Batch::setup(vec![Command::Act { bank, row: 0 }]),
            Batch::commutative(vec![Command::Rd { bank, col: 0 }]),
            Batch::setup(vec![Command::Pre { bank }]),
        ];
        let r = Executor::run(&mut ctx, 16, &prog, None, false, &data);
        assert!(r.end_cycle > 0);
        for ch in 0..16 {
            assert_eq!(ctx.sys.channel(ch).sink().mode(), PimMode::SingleBank, "ch {ch}");
            assert_eq!(ctx.sys.channel(ch).sink().stats().pim_triggers, 8);
        }
    }

    #[test]
    fn crf_padding_prevents_stale_instructions() {
        // Run kernel A (2 instrs), then kernel B (1 instr): B's CRF block
        // must overwrite A's second instruction with EXIT.
        let mut ctx = crate::PimContext::small_system();
        let bank = BankAddr::new(0, 0);
        let mov = Instruction::Mov {
            dst: Operand::grf_a(0),
            src: Operand::even_bank(),
            relu: false,
            aam: false,
        };
        let data = |n: u32| {
            vec![
                Batch::setup(vec![Command::Act { bank, row: 0 }]),
                Batch::commutative((0..n).map(|c| Command::Rd { bank, col: c }).collect()),
                Batch::setup(vec![Command::Pre { bank }]),
            ]
        };
        Executor::run(&mut ctx, 1, &[mov, mov, Instruction::Exit], None, false, &data(2));
        Executor::run(&mut ctx, 1, &[mov], None, false, &data(2));
        // Second kernel: first trigger runs MOV, second hits the padded
        // EXIT (not kernel A's stale second MOV).
        let unit = ctx.sys.channel(0).sink().unit(0);
        assert!(unit.is_halted());
        // Kernel A executed 2 MOVs; kernel B executed 1 MOV, then its
        // second trigger hit the padded EXIT (halted triggers don't count).
        assert_eq!(unit.stats().instructions, 3);
    }

    #[test]
    fn strict_mode_refuses_invalid_kernel() {
        let mut ctx = crate::PimContext::small_system();
        ctx.set_strict(true);
        // No EXIT: the verifier reports PV013.
        let prog = vec![Instruction::Mov {
            dst: Operand::grf_a(0),
            src: Operand::even_bank(),
            relu: false,
            aam: false,
        }];
        let err = Executor::try_run(&mut ctx, 1, &prog, None, false, &[]).unwrap_err();
        let crate::blas::PimError::InvalidKernel { report } = &err else {
            panic!("expected InvalidKernel, got {err}");
        };
        assert!(report.has_code(pim_verify::PvCode::Pv013NoExit));
        // The same launch is accepted (it simulates, however pointlessly)
        // without strict mode.
        ctx.set_strict(false);
        assert!(Executor::try_run(&mut ctx, 1, &prog, None, false, &[]).is_ok());
    }

    #[test]
    fn grf_readback_returns_unit_state() {
        let mut ctx = crate::PimContext::small_system();
        // Directly place a value in unit 2's GRF_B[3] of channel 1 via a
        // kernel that fills it from bank data.
        let bank = BankAddr::new(0, 0);
        let prog = vec![
            Instruction::Fill { dst: Operand::grf_b(3), src: Operand::even_bank(), aam: false },
            Instruction::Exit,
        ];
        // Seed the even banks of every unit on channel 1.
        for u in 0..8 {
            crate::layout::store_block(
                &mut ctx.sys,
                1,
                u,
                0,
                0,
                &LaneVec::from_f32([u as f32; 16]),
            );
        }
        let data = vec![
            Batch::setup(vec![Command::Act { bank, row: 0 }]),
            Batch::commutative(vec![Command::Rd { bank, col: 0 }]),
            Batch::setup(vec![Command::Pre { bank }]),
        ];
        Executor::run(&mut ctx, 16, &prog, None, false, &data);
        let grf = Executor::try_read_grf_b(&mut ctx, 1, 2).unwrap();
        assert_eq!(grf[3].to_f32(), [2.0; 16]);
        assert_eq!(grf[0].to_f32(), [0.0; 16]);
    }
}
