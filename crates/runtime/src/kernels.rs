//! PIM microkernel builders: the CRF programs and the DRAM command streams
//! that drive them.
//!
//! A PIM operation is two coupled artifacts (Section V-B): a *microkernel*
//! (the ≤32 instructions loaded into every unit's CRF) and a *kernel* (the
//! host command stream whose column commands trigger those instructions in
//! lock-step). The builders here keep the two consistent by construction —
//! every RD/WR the kernel issues maps to exactly the instruction the
//! microkernel's loop structure expects, which is the correctness
//! obligation Fig. 5 is about.
//!
//! ## Stream kernels (ADD / MUL / ReLU / BN)
//!
//! Operands are interleaved within each row of a unit's even bank
//! (Fig. 15(b)): for two-operand ops, columns 0–7 hold x-blocks, 8–15 hold
//! y-blocks and 16–23 receive z; one row therefore processes 8 blocks
//! ("the computed result should be stored to the bank after 8 ADD
//! instructions, which is limited by the number of GRF registers",
//! Section VII-B). The 2BA variant instead places y in the **odd** bank at
//! the same (row, column) and reads both banks in one instruction.
//!
//! ## GEMV
//!
//! Each unit's 16 lanes are 16 output elements; the weight block at
//! (row, col) holds `W[out_lane][j]` for input `j = row*32 + col`. Input
//! scalars stream through the write datapath: one WR loads 8 of them into
//! SRF_M via a `FILL SRF_M ← WDATA`, then 8 AAM MACs accumulate
//! `GRF_B[col&7] += EVEN_BANK × SRF_M[col&7]`. Partial sums land in 8
//! GRF_B registers which the host reduces after reading them back
//! (memory-mapped GRF row). The SRW variant fuses the operand stream into
//! the MACs: every trigger is a WR carrying `splat(x_j)` as WDATA while
//! its column address reads the weight block — "it does not need to write
//! the vector to GRF registers first with a DRAM column WR command and
//! then execute the operation with a subsequent DRAM column RD command"
//! (Section VII-D).

use crate::layout::BlockMap;
use pim_core::isa::{Instruction, Operand};
use pim_core::{LaneVec, PimConfig, PimVariant};
use pim_dram::{BankAddr, Command, DataBlock};
use pim_fp16::F16;
use pim_host::{Batch, Kernel, Loop};

/// Columns per DRAM row (1 KiB row / 32 B blocks).
pub const COLS_PER_ROW: u32 = 32;
/// The AAM tolerance window: 8 consecutive column commands (3-bit index).
pub const GROUP: u32 = 8;

/// The element-wise streaming operations PIM-BLAS offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamOp {
    /// `z = x + y` (residual connections).
    Add,
    /// `z = x * y`.
    Mul,
    /// `z = relu(x)`.
    Relu,
    /// `z = a*x + b` with scalars in SRF (inference-folded batch norm).
    Bn,
    /// `z = a*x + y` with the scalar in SRF_M — the paper's level-1 BLAS
    /// example for CV workloads ("AXPY for CV", Section III-C).
    Axpy,
}

impl StreamOp {
    /// Operands read from memory per element.
    pub fn input_operands(self) -> usize {
        match self {
            StreamOp::Add | StreamOp::Mul | StreamOp::Axpy => 2,
            StreamOp::Relu | StreamOp::Bn => 1,
        }
    }

    /// Bytes of DRAM traffic per element (inputs + the stored result) —
    /// what the HBM baseline must stream.
    pub fn bytes_per_element(self) -> u64 {
        (self.input_operands() as u64 + 1) * 2
    }
}

/// Builds the stream-op microkernel for `groups` row-groups.
///
/// Base-variant ADD program (annotated with the triggering commands):
///
/// ```text
/// 0: FILL GRF_A[aam] ← EVEN_BANK      ; 8 RDs at columns 0-7  (x)
/// 1: JUMP 0, #8
/// 2: ADD  GRF_A[aam] ← GRF_A + EVEN   ; 8 RDs at columns 8-15 (y)
/// 3: JUMP 2, #8
/// 4: MOV  EVEN_BANK ← GRF_A[aam]      ; 8 RDs at columns 16-23 (z store)
/// 5: JUMP 4, #8
/// 6: JUMP 0, #groups                  ; next row
/// 7: EXIT
/// ```
///
/// # Panics
///
/// Panics if `groups == 0`.
pub fn stream_microkernel(op: StreamOp, groups: u32, config: &PimConfig) -> Vec<Instruction> {
    assert!(groups > 0, "a kernel must process at least one group");
    let aam = true;
    let ga = Operand::grf_a(0); // index ignored under AAM
    let even = Operand::even_bank();
    let two_bank = config.variant == PimVariant::TwoBankAccess;

    let mut prog = Vec::new();
    match op {
        StreamOp::Add | StreamOp::Mul => {
            if two_bank {
                // One instruction reads both operands: x from even, y from
                // odd, at the same (row, col).
                let combine = if op == StreamOp::Add {
                    Instruction::Add { dst: ga, src0: even, src1: Operand::odd_bank(), aam }
                } else {
                    Instruction::Mul { dst: ga, src0: even, src1: Operand::odd_bank(), aam }
                };
                prog.push(combine);
                prog.push(Instruction::Jump { target: 0, count: GROUP });
                prog.push(Instruction::Mov { dst: even, src: ga, relu: false, aam });
                prog.push(Instruction::Jump { target: 2, count: GROUP });
                prog.push(Instruction::Jump { target: 0, count: groups });
            } else {
                prog.push(Instruction::Fill { dst: ga, src: even, aam });
                prog.push(Instruction::Jump { target: 0, count: GROUP });
                let combine = if op == StreamOp::Add {
                    Instruction::Add { dst: ga, src0: ga, src1: even, aam }
                } else {
                    Instruction::Mul { dst: ga, src0: ga, src1: even, aam }
                };
                prog.push(combine);
                prog.push(Instruction::Jump { target: 2, count: GROUP });
                prog.push(Instruction::Mov { dst: even, src: ga, relu: false, aam });
                prog.push(Instruction::Jump { target: 4, count: GROUP });
                prog.push(Instruction::Jump { target: 0, count: groups });
            }
        }
        StreamOp::Relu => {
            prog.push(Instruction::Mov { dst: ga, src: even, relu: true, aam });
            prog.push(Instruction::Jump { target: 0, count: GROUP });
            prog.push(Instruction::Mov { dst: even, src: ga, relu: false, aam });
            prog.push(Instruction::Jump { target: 2, count: GROUP });
            prog.push(Instruction::Jump { target: 0, count: groups });
        }
        StreamOp::Bn => {
            // MAD: x*SRF_M + SRF_A; scale/shift were loaded into the SRF
            // once, before AB-PIM mode was entered.
            prog.push(Instruction::Mad { dst: ga, src0: even, src1: Operand::srf_m(0), aam });
            prog.push(Instruction::Jump { target: 0, count: GROUP });
            prog.push(Instruction::Mov { dst: even, src: ga, relu: false, aam });
            prog.push(Instruction::Jump { target: 2, count: GROUP });
            prog.push(Instruction::Jump { target: 0, count: groups });
        }
        StreamOp::Axpy => {
            // Load y into the GRF, accumulate a*x on top (a replicated in
            // SRF_M by the executor's SRF preload), store.
            prog.push(Instruction::Fill { dst: ga, src: even, aam });
            prog.push(Instruction::Jump { target: 0, count: GROUP });
            prog.push(Instruction::Mac { dst: ga, src0: even, src1: Operand::srf_m(0), aam });
            prog.push(Instruction::Jump { target: 2, count: GROUP });
            prog.push(Instruction::Mov { dst: even, src: ga, relu: false, aam });
            prog.push(Instruction::Jump { target: 4, count: GROUP });
            prog.push(Instruction::Jump { target: 0, count: groups });
        }
    }
    prog.push(Instruction::Exit);
    for i in &prog {
        config
            .instruction_legal(i)
            .unwrap_or_else(|e| panic!("generated illegal instruction {i}: {e}"));
    }
    prog
}

/// Column layout of a stream op's row: where x / y / z blocks live.
///
/// Returns `(x_col, y_col, z_col)` bases; `y_col` is `None` for one-input
/// ops and for 2BA (where y sits in the odd bank at the x columns).
pub fn stream_columns(op: StreamOp, config: &PimConfig) -> (u32, Option<u32>, u32) {
    let two_bank = config.variant == PimVariant::TwoBankAccess;
    match (op, two_bank) {
        (StreamOp::Add | StreamOp::Mul, false) => (0, Some(GROUP), 2 * GROUP),
        (StreamOp::Add | StreamOp::Mul, true) => (0, None, GROUP),
        // AXPY's first stage reads y (the FILL), its second reads x (the
        // MAC); the layout places the first operand at columns 0-7 either
        // way. The scalar rides the SRF, so 2BA gains nothing here.
        (StreamOp::Axpy, _) => (0, Some(GROUP), 2 * GROUP),
        (StreamOp::Relu | StreamOp::Bn, _) => (0, None, GROUP),
    }
}

/// Rows a stream op over `elements` occupies in every unit's bank when
/// laid out over `channels × units` units: [`GROUP`] block slots a row
/// (saturating — a count past `u32` fits no arena either way).
pub fn stream_rows(elements: usize, channels: usize, units: usize) -> u32 {
    let slots = BlockMap { channels, units }.slots_for(BlockMap::blocks_for(elements));
    u32::try_from(slots.max(1).div_ceil(GROUP as usize)).unwrap_or(u32::MAX)
}

/// One DRAM row's visit, `trips` rows running: ACT `row`, `data`, PRE.
fn row_loop(data: impl Iterator<Item = Batch>, row: u32, trips: u32) -> Loop {
    let bank = BankAddr::new(0, 0); // BA/BG ignored in AB mode
    let open = Batch::setup(vec![Command::Act { bank, row }]);
    let close = Batch::setup(vec![Command::Pre { bank }]);
    Loop::new(std::iter::once(open).chain(data).chain(std::iter::once(close)).collect(), trips, 1)
}

/// The data phase of a stream op over `rows` row-groups (one group of 8
/// blocks per row) as a loop over rows: per row, one 8-RD stage per
/// operand column base. Identical for every channel — lock-step execution.
pub fn stream_kernel(op: StreamOp, rows: u32, base_row: u32, config: &PimConfig) -> Kernel {
    let bank = BankAddr::new(0, 0);
    let (x_col, y_col, z_col) = stream_columns(op, config);
    let stages: Vec<u32> = [Some(x_col), y_col, Some(z_col)].into_iter().flatten().collect();
    // The 2× variant's doubled GRF lets two 8-command groups share one
    // fence (Section VII-D); we merge fence windows accordingly.
    let merge = (config.fence_window() / GROUP as usize).max(1);
    let data = stages.chunks(merge).map(|window| {
        let mut rds = Vec::with_capacity(window.len() * GROUP as usize);
        let cols = window.iter().flat_map(|&base| base..base + GROUP);
        rds.extend(cols.map(|col| Command::Rd { bank, col }));
        Batch::commutative(rds)
    });
    Kernel { body: vec![row_loop(data, base_row, rows)], ..Kernel::default() }
}

/// [`stream_kernel`], materialised.
pub fn stream_batches(op: StreamOp, rows: u32, base_row: u32, config: &PimConfig) -> Vec<Batch> {
    stream_kernel(op, rows, base_row, config).materialise()
}

/// Builds the GEMV microkernel for `groups` 8-input groups.
///
/// Base variant:
///
/// ```text
/// 0: FILL SRF_M ← WDATA                ; 1 WR streaming 8 x-scalars
/// 1: MAC GRF_B[aam] ← EVEN × SRF_M[aam]; 8 RDs over the weight columns
/// 2: JUMP 1, #8
/// 3: JUMP 0, #groups
/// 4: EXIT
/// ```
///
/// SRW variant (operand rides the WR that triggers the MAC):
///
/// ```text
/// 0: MAC GRF_B[aam] ← EVEN × WDATA     ; 8·groups WRs
/// 1: JUMP 0, #(8·groups)
/// 2: EXIT
/// ```
pub fn gemv_microkernel(groups: u32, config: &PimConfig) -> Vec<Instruction> {
    assert!(groups > 0);
    let prog = if config.variant == PimVariant::SimultaneousReadWrite {
        vec![
            Instruction::Mac {
                dst: Operand::grf_b(0),
                src0: Operand::even_bank(),
                src1: Operand::wdata(),
                aam: true,
            },
            Instruction::Jump { target: 0, count: groups * GROUP },
            Instruction::Exit,
        ]
    } else {
        vec![
            Instruction::Fill { dst: Operand::srf_m(0), src: Operand::wdata(), aam: false },
            Instruction::Mac {
                dst: Operand::grf_b(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(0),
                aam: true,
            },
            Instruction::Jump { target: 1, count: GROUP },
            Instruction::Jump { target: 0, count: groups },
            Instruction::Exit,
        ]
    };
    for i in &prog {
        config
            .instruction_legal(i)
            .unwrap_or_else(|e| panic!("generated illegal instruction {i}: {e}"));
    }
    prog
}

/// The payload of the input write that carries `x[j0..]`: eight scalars
/// packed into lanes 0–7 (they land in SRF_M), or under the
/// simultaneous-RD/WR variant the single `x[j0]` broadcast to every lane.
/// Inputs past the end of `x` are zero.
pub fn gemv_x_block(x: &[f32], j0: usize, srw: bool) -> DataBlock {
    let at = |j: usize| F16::from_f32(x.get(j).copied().unwrap_or(0.0));
    if srw {
        return LaneVec::splat(at(j0)).to_block();
    }
    let mut lanes = [F16::ZERO; 16];
    for (c, lane) in lanes.iter_mut().enumerate().take(GROUP as usize) {
        *lane = at(j0 + c);
    }
    LaneVec::from_lanes(lanes).to_block()
}

/// The data batches of one GEMV weight row holding `groups` 8-input groups,
/// input writes zeroed.
fn gemv_row(groups: u32, config: &PimConfig) -> Vec<Batch> {
    let bank = BankAddr::new(0, 0);
    let wr = |col| Command::Wr { bank, col, data: [0; 32] };
    if config.variant == PimVariant::SimultaneousReadWrite {
        // 8 WRs a group: column addresses select the weight blocks; WDATA
        // carries the input scalar broadcast to all lanes.
        let group = |g| Batch::commutative((g * GROUP..(g + 1) * GROUP).map(wr).collect());
        return (0..groups).map(group).collect();
    }
    // One WR streams 8 x-scalars into SRF_M (lanes 0–7), then 8 MAC
    // triggers read the weight columns. The WR and its MACs share one fence
    // window ("a barrier for every 8 DRAM commands"): the WR leads the group
    // in program order, and the fence at the group boundary bounds
    // controller reordering. The 2× variant's doubled GRF doubles the
    // out-of-order tolerance window, so two 9-command groups share one fence
    // (Section VII-D).
    let merge = (config.fence_window() as u32 / GROUP).max(1);
    let group = |g: u32| {
        let rds = (g * GROUP..(g + 1) * GROUP).map(|col| Command::Rd { bank, col });
        std::iter::once(wr(g * GROUP)).chain(rds)
    };
    (0..groups)
        .step_by(merge as usize)
        .map(|g0| Batch::fenced_ordered((g0..(g0 + merge).min(groups)).flat_map(group).collect()))
        .collect()
}

/// The GEMV data phase for one pass over `k` inputs (padded to a multiple
/// of 8) from `base_row`, as a loop over full weight rows and a last
/// partial one. Every input write carries zeros: the choreography does not
/// depend on `x` ([`gemv_x_block`] is what a launch writes into them).
pub fn gemv_kernel(k: usize, base_row: u32, config: &PimConfig) -> Kernel {
    let per_row = COLS_PER_ROW / GROUP;
    let groups = (k as u32).div_ceil(GROUP);
    let (full, rest) = (groups / per_row, groups % per_row);
    let mut body = vec![row_loop(gemv_row(per_row, config).into_iter(), base_row, full)];
    if rest > 0 {
        body.push(row_loop(gemv_row(rest, config).into_iter(), base_row + full, 1));
    }
    Kernel { body, ..Kernel::default() }
}

/// [`gemv_kernel`], materialised, with the x-vector `x` (inputs from `k` on
/// are zero) in the input writes.
pub fn gemv_batches(k: usize, base_row: u32, x: &[f32], config: &PimConfig) -> Vec<Batch> {
    let srw = config.variant == PimVariant::SimultaneousReadWrite;
    let x = &x[..x.len().min(k)];
    let mut batches = gemv_kernel(k, base_row, config).materialise();
    let writes = batches.iter_mut().flat_map(|b| &mut b.commands).filter_map(|c| match c {
        Command::Wr { data, .. } => Some(data),
        _ => None,
    });
    for (i, data) in writes.enumerate() {
        *data = gemv_x_block(x, if srw { i } else { i * GROUP as usize }, srw);
    }
    batches
}

/// Builds the SLS (sparse-length-sum) microkernel: accumulate `lookups`
/// gathered embedding rows into `GRF_A[0]`.
///
/// The embedding-lookup layer is the paper's motivating memory-bound
/// kernel for recommendation models (Section II-A); capacity keeps RM off
/// the evaluated system (Section VII-A), but the kernel itself maps
/// cleanly onto PIM: every gathered row is one column access, and the
/// row-buffer conflicts of random indices dominate — exactly the SLS
/// behaviour the RM literature reports.
///
/// ```text
/// 0: FILL GRF_A[0] ← EVEN_BANK     ; first lookup
/// 1: ADD  GRF_A[0], GRF_A[0], EVEN_BANK
/// 2: JUMP 1, #(lookups-1)
/// 3: EXIT
/// ```
///
/// # Panics
///
/// Panics if `lookups == 0`.
pub fn sls_microkernel(lookups: u32, config: &PimConfig) -> Vec<Instruction> {
    assert!(lookups > 0, "SLS needs at least one lookup");
    let ga = Operand::grf_a(0);
    let even = Operand::even_bank();
    let mut prog = vec![Instruction::Fill { dst: ga, src: even, aam: false }];
    if lookups > 1 {
        prog.push(Instruction::Add { dst: ga, src0: ga, src1: even, aam: false });
        if lookups > 2 {
            prog.push(Instruction::Jump { target: 1, count: lookups - 1 });
        }
    }
    prog.push(Instruction::Exit);
    for i in &prog {
        config
            .instruction_legal(i)
            .unwrap_or_else(|e| panic!("generated illegal instruction {i}: {e}"));
    }
    prog
}

/// Builds the SLS gather command stream: one (ACT, RD, PRE) per embedding
/// index at `base_row + index/32`, column `index % 32`, merging row
/// management when consecutive indices share a DRAM row.
pub fn sls_batches(indices: &[u32], base_row: u32) -> Vec<Batch> {
    let bank = BankAddr::new(0, 0);
    let mut batches = Vec::new();
    let mut open: Option<u32> = None;
    for (i, &idx) in indices.iter().enumerate() {
        let row = base_row + idx / COLS_PER_ROW;
        let col = idx % COLS_PER_ROW;
        if open != Some(row) {
            if open.is_some() {
                batches.push(Batch::setup(vec![Command::Pre { bank }]));
            }
            batches.push(Batch::setup(vec![Command::Act { bank, row }]));
            open = Some(row);
        }
        // The first lookup must precede the accumulating ADDs (it seeds
        // the register); later lookups commute with each other.
        if i == 0 {
            batches.push(Batch::fenced_ordered(vec![Command::Rd { bank, col }]));
        } else {
            batches.push(Batch {
                commands: vec![Command::Rd { bank, col }],
                commutative: true,
                fence_after: false,
                label: None,
            });
        }
    }
    // The gather's final column batch carries the kernel's closing fence:
    // it drains every in-flight accumulation before the host moves on to
    // the choreography tail and the GRF readback (the race `pim-verify`'s
    // fence pass reports as PV202 when missing).
    if let Some(last) = batches.last_mut() {
        last.fence_after = true;
    }
    if open.is_some() {
        batches.push(Batch::setup(vec![Command::Pre { bank }]));
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_kernels_fit_the_crf() {
        for op in [StreamOp::Add, StreamOp::Mul, StreamOp::Relu, StreamOp::Bn, StreamOp::Axpy] {
            for variant in PimVariant::ALL {
                let cfg = PimConfig::with_variant(variant);
                let prog = stream_microkernel(op, 100, &cfg);
                assert!(prog.len() <= 32, "{op:?}/{variant:?}: {} instrs", prog.len());
                assert!(matches!(prog.last(), Some(Instruction::Exit)));
            }
        }
    }

    #[test]
    fn add_kernel_trigger_budget() {
        // Base ADD: 24 triggers per group (8 loads, 8 adds, 8 stores).
        let cfg = PimConfig::paper();
        let batches = stream_batches(StreamOp::Add, 2, 0, &cfg);
        let cols: usize =
            batches.iter().flat_map(|b| b.commands.iter()).filter(|c| c.is_column()).count();
        assert_eq!(cols, 2 * 24);
        // 3 fences per row (one per 8-command window).
        let fences = batches.iter().filter(|b| b.fence_after).count();
        assert_eq!(fences, 6);
    }

    #[test]
    fn two_bank_variant_halves_input_commands() {
        let base = stream_batches(StreamOp::Add, 1, 0, &PimConfig::paper());
        let tba = stream_batches(
            StreamOp::Add,
            1,
            0,
            &PimConfig::with_variant(PimVariant::TwoBankAccess),
        );
        let count = |bs: &[Batch]| {
            bs.iter().flat_map(|b| b.commands.iter()).filter(|c| c.is_column()).count()
        };
        assert_eq!(count(&base), 24);
        assert_eq!(count(&tba), 16, "2BA reads x and y with one command");
    }

    #[test]
    fn double_resources_variant_halves_fences() {
        let base = stream_batches(StreamOp::Add, 4, 0, &PimConfig::paper());
        let dbl = stream_batches(
            StreamOp::Add,
            4,
            0,
            &PimConfig::with_variant(PimVariant::DoubleResources),
        );
        let fences = |bs: &[Batch]| bs.iter().filter(|b| b.fence_after).count();
        assert!(fences(&dbl) < fences(&base));
    }

    #[test]
    fn gemv_base_command_budget() {
        // K inputs → K/8 groups of (1 WR + 8 RD).
        let cfg = PimConfig::paper();
        let batches = gemv_batches(64, 0, &vec![1.0; 64], &cfg);
        let wrs: usize = batches
            .iter()
            .flat_map(|b| b.commands.iter())
            .filter(|c| matches!(c, Command::Wr { .. }))
            .count();
        let rds: usize = batches
            .iter()
            .flat_map(|b| b.commands.iter())
            .filter(|c| matches!(c, Command::Rd { .. }))
            .count();
        assert_eq!(wrs, 8);
        assert_eq!(rds, 64);
    }

    #[test]
    fn gemv_srw_variant_eliminates_separate_writes() {
        let cfg = PimConfig::with_variant(PimVariant::SimultaneousReadWrite);
        let batches = gemv_batches(64, 0, &vec![1.0; 64], &cfg);
        let cols: usize =
            batches.iter().flat_map(|b| b.commands.iter()).filter(|c| c.is_column()).count();
        assert_eq!(cols, 64, "SRW: one WR per input, no separate SRF loads");
    }

    #[test]
    fn gemv_crosses_rows_with_act_pre() {
        let cfg = PimConfig::paper();
        // 64 inputs = 2 rows of 32 columns.
        let batches = gemv_batches(64, 10, &vec![0.5; 64], &cfg);
        let acts: Vec<u32> = batches
            .iter()
            .flat_map(|b| b.commands.iter())
            .filter_map(|c| match c {
                Command::Act { row, .. } => Some(*row),
                _ => None,
            })
            .collect();
        assert_eq!(acts, vec![10, 11]);
    }

    #[test]
    fn microkernel_validates_on_its_variant() {
        // The 2BA ADD instruction is illegal on the base config...
        let tba_prog = stream_microkernel(
            StreamOp::Add,
            1,
            &PimConfig::with_variant(PimVariant::TwoBankAccess),
        );
        let base = PimConfig::paper();
        let both_banks = tba_prog.iter().find(|i| i.validate().is_err()).unwrap();
        assert!(base.instruction_legal(both_banks).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_group_kernel_rejected() {
        stream_microkernel(StreamOp::Add, 0, &PimConfig::paper());
    }
}
