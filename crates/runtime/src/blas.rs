//! PIM-BLAS (Section V-A): "a set of common linear algebra operations that
//! can exploit PIM [...] it makes users access and utilize the PIM
//! execution unit without knowing how to handle PIM."
//!
//! Every entry point runs **functionally** on the simulated device — real
//! FP16 data through real banks and real PIM units — and returns the
//! numerical result together with a cycle-accurate [`KernelReport`]. The
//! test suite checks both against f32 references.

use crate::context::PimContext;
use crate::executor::Executor;
use crate::kernels::{StreamOp, COLS_PER_ROW};
use crate::layout::{self, BlockMap};
use crate::plan::{check_input, check_weights, GemvPlan};
use crate::stream::{StreamJob, StreamOperands};
use pim_core::LaneVec;
use pim_dram::Cycle;
use pim_fp16::F16;
use pim_host::KernelResult;
use pim_obs::{names, Scope};
use std::fmt;

/// The one op bracket: runs `body` inside an op-level span named `name`
/// (global scope, enclosing every batch/command event the call produces;
/// skipped without a recorder) and accounts it — the cycles and PIM
/// triggers the system advanced by, plus the commands and fences of the
/// launches `body` returns merged — into the call's [`KernelReport`].
pub(crate) fn traced_op<T>(
    ctx: &mut PimContext,
    name: &'static str,
    elements: usize,
    body: impl FnOnce(&mut PimContext) -> Result<(T, KernelResult), PimError>,
) -> Result<(T, KernelReport), PimError> {
    let rec = ctx.recorder.clone();
    if let Some(r) = &rec {
        r.begin(ctx.sys.max_now(), name, names::CAT_OP, Scope::GLOBAL);
    }
    let start = ctx.sys.max_now();
    let triggers_before = ctx.sys.total_pim_triggers();
    let (out, launched) = body(ctx)?;
    let cycles = ctx.sys.max_now() - start;
    let report = KernelReport {
        cycles,
        seconds: ctx.sys.cycles_to_seconds(cycles),
        commands: launched.commands,
        fences: launched.fences,
        pim_triggers: ctx.sys.total_pim_triggers() - triggers_before,
        elements,
    };
    if let Some(r) = &rec {
        r.end(ctx.sys.max_now(), name, names::CAT_OP, Scope::GLOBAL);
    }
    Ok((out, report))
}

/// Errors surfaced by the PIM-BLAS API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PimError {
    /// Input vectors/matrices disagree on length.
    SizeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// The operands do not fit in the reserved PIM region.
    OutOfMemory {
        /// Description of the failed allocation.
        detail: String,
    },
    /// Empty input.
    Empty,
    /// Strict mode refused the kernel: the `pim-verify` static verifier
    /// reported at least one error.
    InvalidKernel {
        /// The verifier's full diagnostic report.
        report: pim_verify::Report,
    },
    /// A runtime invariant was violated (a malformed kernel layout, a
    /// rejected device command). These indicate a bug in the runtime
    /// rather than bad user input, but they surface as typed errors so
    /// library callers are never torn down by a panic.
    Internal {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::SizeMismatch { detail } => write!(f, "size mismatch: {detail}"),
            PimError::OutOfMemory { detail } => write!(f, "PIM memory exhausted: {detail}"),
            PimError::Empty => write!(f, "empty input"),
            PimError::InvalidKernel { report } => {
                write!(f, "kernel rejected by pim-verify:\n{report}")
            }
            PimError::Internal { detail } => write!(f, "runtime invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for PimError {}

/// Cycle-accurate accounting of one PIM-BLAS call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelReport {
    /// Bus cycles the call took (wall clock across channels).
    pub cycles: Cycle,
    /// The same in seconds at the configured bus frequency.
    pub seconds: f64,
    /// DRAM commands issued.
    pub commands: u64,
    /// Fences executed.
    pub fences: u64,
    /// PIM triggers delivered (commands × units).
    pub pim_triggers: u64,
    /// Elements produced.
    pub elements: usize,
}

impl KernelReport {
    /// Merges another report (sequential composition).
    pub fn absorb(&mut self, other: &KernelReport) {
        self.cycles += other.cycles;
        self.seconds += other.seconds;
        self.commands += other.commands;
        self.fences += other.fences;
        self.pim_triggers += other.pim_triggers;
        self.elements = self.elements.max(other.elements);
    }

    /// Effective achieved element throughput in elements/second.
    pub fn elements_per_second(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.elements as f64 / self.seconds
        }
    }
}

/// The PIM-BLAS entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct PimBlas;

impl PimBlas {
    /// `z = x + y`, element-wise, on the PIM units.
    ///
    /// # Errors
    ///
    /// [`PimError::SizeMismatch`] if lengths differ; [`PimError::Empty`]
    /// for empty inputs; [`PimError::OutOfMemory`] if the reserved region
    /// cannot hold the operands.
    pub fn add(
        ctx: &mut PimContext,
        x: &[f32],
        y: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        Self::stream_binary(ctx, StreamOp::Add, x, Some(y), None)
    }

    /// `z = x * y`, element-wise.
    ///
    /// # Errors
    ///
    /// As for [`PimBlas::add`].
    pub fn mul(
        ctx: &mut PimContext,
        x: &[f32],
        y: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        Self::stream_binary(ctx, StreamOp::Mul, x, Some(y), None)
    }

    /// `z = relu(x)`, element-wise (the MOV(ReLU) path).
    ///
    /// # Errors
    ///
    /// As for [`PimBlas::add`].
    pub fn relu(ctx: &mut PimContext, x: &[f32]) -> Result<(Vec<f32>, KernelReport), PimError> {
        Self::stream_binary(ctx, StreamOp::Relu, x, None, None)
    }

    /// Inference-mode batch normalization with folded constants:
    /// `z = scale * x + shift` (the MAD path). `scale`/`shift` are applied
    /// cyclically with period 8 (the SRF depth) over 16-lane blocks.
    ///
    /// # Errors
    ///
    /// As for [`PimBlas::add`].
    pub fn bn(
        ctx: &mut PimContext,
        x: &[f32],
        scale: f32,
        shift: f32,
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        let mut lanes = [F16::ZERO; 16];
        for i in 0..8 {
            lanes[i] = F16::from_f32(scale);
            lanes[8 + i] = F16::from_f32(shift);
        }
        Self::stream_binary(ctx, StreamOp::Bn, x, None, Some(LaneVec::from_lanes(lanes)))
    }

    /// `z = a*x + y` — AXPY, the paper's canonical level-1 BLAS kernel
    /// ("AXPY for CV", Section III-C). The scalar `a` is broadcast through
    /// SRF_M; y streams through the GRF and x accumulates on top.
    ///
    /// # Errors
    ///
    /// As for [`PimBlas::add`].
    pub fn axpy(
        ctx: &mut PimContext,
        a: f32,
        x: &[f32],
        y: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        let mut lanes = [F16::ZERO; 16];
        for lane in lanes.iter_mut().take(8) {
            *lane = F16::from_f32(a);
        }
        // The AXPY kernel's first stage loads y, the second MACs x on top.
        Self::stream_binary(ctx, StreamOp::Axpy, y, Some(x), Some(LaneVec::from_lanes(lanes)))
    }

    /// `out = W·x + b` — GEMV with a fused bias, the shape of a fully
    /// connected layer. The matrix-vector product runs on PIM; the bias
    /// folds into the host-side reduction of the partial sums (zero extra
    /// DRAM traffic).
    ///
    /// # Errors
    ///
    /// As for [`PimBlas::gemv`], plus a bias-length check.
    pub fn gemv_bias(
        ctx: &mut PimContext,
        w: &[f32],
        n: usize,
        k: usize,
        x: &[f32],
        bias: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        if bias.len() != n {
            return Err(PimError::SizeMismatch {
                detail: format!("bias has {} elements, expected n = {n}", bias.len()),
            });
        }
        let (mut out, report) = Self::gemv(ctx, w, n, k, x)?;
        for (o, b) in out.iter_mut().zip(bias) {
            *o += b;
        }
        Ok((out, report))
    }

    /// Sparse-length-sum over an embedding table: `out = Σ_i table[idx_i]`
    /// — the recommendation-model kernel of Section II-A, implemented as a
    /// PIM extension (the paper excludes RM only for *capacity*, Section
    /// VII-A).
    ///
    /// `table` is row-major `rows × dim` (FP16-representable values). The
    /// embedding dimension is sliced 16 lanes per (channel, unit); each
    /// gather is one column access, so random indices pay the realistic
    /// ACT/PRE row-conflict cost.
    ///
    /// # Errors
    ///
    /// [`PimError::SizeMismatch`] for shape problems;
    /// [`PimError::OutOfMemory`] if the table's rows exceed the reserved
    /// region or `dim` exceeds one slice per unit; [`PimError::Empty`] for
    /// empty inputs.
    pub fn sls(
        ctx: &mut PimContext,
        table: &[f32],
        rows: usize,
        dim: usize,
        indices: &[u32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        use crate::kernels::{sls_batches, sls_microkernel};
        if rows == 0 || dim == 0 || indices.is_empty() {
            return Err(PimError::Empty);
        }
        if rows.checked_mul(dim) != Some(table.len()) {
            return Err(PimError::SizeMismatch {
                detail: format!(
                    "table has {} elements, expected rows*dim = {rows}*{dim}",
                    table.len()
                ),
            });
        }
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= rows) {
            return Err(PimError::SizeMismatch {
                detail: format!("index {bad} out of range for {rows} embedding rows"),
            });
        }
        let map = BlockMap::full(&ctx.sys);
        let dim_blocks = BlockMap::blocks_for(dim);
        if map.slots_for(dim_blocks) > 1 {
            return Err(PimError::OutOfMemory {
                detail: format!(
                    "dim {dim} exceeds one 16-lane slice per unit ({} lanes)",
                    map.lanes_per_command()
                ),
            });
        }
        let dram_rows = (rows as u32).div_ceil(COLS_PER_ROW);
        let base_row = ctx
            .mm
            .alloc_rows_lockstep(dram_rows)
            .map_err(|e| PimError::OutOfMemory { detail: e.to_string() })?;

        // Table placement: each (channel, unit) stores its 16-dim slice of
        // every embedding row; embedding row e lives at DRAM
        // (base + e/32, e%32).
        for e in 0..rows {
            for d in 0..dim_blocks {
                let (ch, u, _) = map.locate(d);
                let mut lanes = [F16::ZERO; 16];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let dd = d * 16 + l;
                    if dd < dim {
                        *lane = F16::from_f32(table[e * dim + dd]);
                    }
                }
                layout::store_block(
                    &mut ctx.sys,
                    ch,
                    u,
                    base_row + e as u32 / COLS_PER_ROW,
                    e as u32 % COLS_PER_ROW,
                    &LaneVec::from_lanes(lanes),
                );
            }
        }

        let program = sls_microkernel(indices.len() as u32, ctx.sys.pim_config());
        let data = sls_batches(indices, base_row);
        traced_op(ctx, "sls", dim, |ctx| {
            let channels = ctx.sys.channel_count();
            let r = Executor::try_run(ctx, channels, &program, None, false, &data)?;

            // Gather the per-slice sums from GRF_A[0].
            let mut out = vec![0.0f32; dim];
            for d in 0..dim_blocks {
                let (ch, u, _) = map.locate(d);
                let grf = Executor::try_read_grf_a(ctx, ch, u)?;
                for (l, lane) in grf[0].lanes().iter().enumerate() {
                    let dd = d * 16 + l;
                    if dd < dim {
                        out[dd] = lane.to_f32();
                    }
                }
            }
            ctx.sys.barrier();
            Ok((out, r))
        })
    }

    fn stream_binary(
        ctx: &mut PimContext,
        op: StreamOp,
        x: &[f32],
        y: Option<&[f32]>,
        srf: Option<LaneVec>,
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        let operands = StreamOperands::new(ctx, op, x, y)?;
        let channels: Vec<usize> = (0..ctx.sys.channel_count()).collect();
        let op_name = match op {
            StreamOp::Add => "add",
            StreamOp::Mul => "mul",
            StreamOp::Relu => "relu",
            StreamOp::Bn => "bn",
            StreamOp::Axpy => "axpy",
        };
        // Place operands (Fig. 15(b) interleaving), run, gather z.
        let job = StreamJob::place(ctx, &operands, &channels)?;
        traced_op(ctx, op_name, x.len(), |ctx| {
            let (r, _) = job.launch(ctx, srf.as_ref(), None, true)?;
            Ok((job.gather(ctx), r))
        })
    }

    /// `out = W · x` — the level-2 BLAS kernel at the heart of the paper's
    /// evaluation. `w` is row-major `n × k`.
    ///
    /// This is the one-shot form of a [`GemvPlan`]: `prepare` (place the
    /// weights, build the choreography) and a single `launch`. Outputs are
    /// distributed 16 per unit (one per SIMD lane); inputs stream through
    /// the write datapath; partial sums accumulate in 8 GRF_B registers
    /// per unit and are reduced on the host after a memory-mapped readback
    /// (see [`crate::kernels`]).
    ///
    /// # Errors
    ///
    /// [`PimError::SizeMismatch`] if `w.len() != n*k`; [`PimError::Empty`]
    /// for zero dimensions; [`PimError::OutOfMemory`] if weights do not
    /// fit.
    pub fn gemv(
        ctx: &mut PimContext,
        w: &[f32],
        n: usize,
        k: usize,
        x: &[f32],
    ) -> Result<(Vec<f32>, KernelReport), PimError> {
        // Nothing is placed for an input the launch would refuse.
        check_weights(w.len(), n, k)?;
        check_input(x.len(), k)?;
        GemvPlan::prepare(ctx, w, n, k)?.launch_as(ctx, x, "gemv")
    }

    /// One LSTM cell step on PIM: the two gate GEMVs run on the device;
    /// the gate nonlinearities and element-wise state update run on the
    /// host in f32 — sigmoid and tanh are not PIM ops (the paper
    /// accelerates the LSTM layers' GEMV work, Section VII-A).
    ///
    /// Weight layout: `w_x` is `4h × input`, `w_h` is `4h × h`, `bias` is
    /// `4h`, gate order `[i, f, g, o]`.
    ///
    /// # Errors
    ///
    /// Propagates the GEMV errors and checks all dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn lstm_cell(
        ctx: &mut PimContext,
        w_x: &[f32],
        w_h: &[f32],
        bias: &[f32],
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> Result<(Vec<f32>, Vec<f32>, KernelReport), PimError> {
        let h = h_prev.len();
        if c_prev.len() != h || bias.len() != 4 * h {
            return Err(PimError::SizeMismatch {
                detail: format!("hidden size {h}: bias/c_prev shapes disagree"),
            });
        }
        let (gx, mut report) = Self::gemv(ctx, w_x, 4 * h, x.len(), x)?;
        let (gh, r2) = Self::gemv(ctx, w_h, 4 * h, h, h_prev)?;
        report.absorb(&r2);
        report.elements = h;
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        let pre = |gate: usize, j: usize| gx[gate * h + j] + gh[gate * h + j] + bias[gate * h + j];
        let mut h_next = vec![0.0f32; h];
        let mut c_next = vec![0.0f32; h];
        for j in 0..h {
            let (i_g, f_g, o_g) = (sigmoid(pre(0, j)), sigmoid(pre(1, j)), sigmoid(pre(3, j)));
            c_next[j] = f_g * c_prev[j] + i_g * pre(2, j).tanh();
            h_next[j] = o_g * c_next[j].tanh();
        }
        Ok((h_next, c_next, report))
    }

    /// f32 reference GEMV for verification.
    pub fn reference_gemv(w: &[f32], n: usize, k: usize, x: &[f32]) -> Vec<f32> {
        (0..n)
            .map(|o| {
                // Mirror the device's FP16 rounding of inputs for a fair
                // comparison (operands are stored as binary16).
                (0..k)
                    .map(|j| F16::from_f32(w[o * k + j]).to_f32() * F16::from_f32(x[j]).to_f32())
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index i doubles as the element id in messages
mod tests {
    use super::*;
    use pim_fp16::max_abs_error;

    fn small_ctx() -> PimContext {
        PimContext::small_system()
    }

    #[test]
    fn add_small_vectors() {
        let mut ctx = small_ctx();
        let x: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..100).map(|i| (i * 2) as f32).collect();
        let (z, report) = PimBlas::add(&mut ctx, &x, &y).unwrap();
        for i in 0..100 {
            assert_eq!(z[i], (i * 3) as f32, "element {i}");
        }
        assert!(report.cycles > 0);
        assert!(report.fences > 0);
        assert_eq!(report.elements, 100);
    }

    #[test]
    fn add_spanning_many_rows() {
        let mut ctx = small_ctx();
        // 16 channels × 8 units × 16 lanes = 2048 elements per slot; use
        // enough to need several rows per unit.
        let n = 2048 * 20;
        let x = vec![1.25f32; n];
        let y = vec![2.5f32; n];
        let (z, _) = PimBlas::add(&mut ctx, &x, &y).unwrap();
        assert!(z.iter().all(|&v| v == 3.75), "all elements correct");
    }

    #[test]
    fn mul_matches_reference() {
        let mut ctx = small_ctx();
        let x: Vec<f32> = (0..500).map(|i| (i % 13) as f32 * 0.25).collect();
        let y: Vec<f32> = (0..500).map(|i| (i % 7) as f32 * 0.5).collect();
        let (z, _) = PimBlas::mul(&mut ctx, &x, &y).unwrap();
        for i in 0..500 {
            assert_eq!(z[i], x[i] * y[i], "element {i}");
        }
    }

    #[test]
    fn relu_clamps() {
        let mut ctx = small_ctx();
        let x: Vec<f32> = (0..64).map(|i| i as f32 - 32.0).collect();
        let (z, _) = PimBlas::relu(&mut ctx, &x).unwrap();
        for i in 0..64 {
            assert_eq!(z[i], (i as f32 - 32.0).max(0.0), "element {i}");
        }
    }

    #[test]
    fn bn_scale_and_shift() {
        let mut ctx = small_ctx();
        let x: Vec<f32> = (0..128).map(|i| i as f32).collect();
        let (z, _) = PimBlas::bn(&mut ctx, &x, 0.5, 3.0).unwrap();
        for i in 0..128 {
            let want = F16::from_f32(i as f32).mac(F16::from_f32(0.5), F16::from_f32(3.0)).to_f32();
            assert_eq!(z[i], want, "element {i}");
        }
    }

    #[test]
    fn axpy_matches_reference() {
        let mut ctx = small_ctx();
        let a = 0.75f32;
        let x: Vec<f32> = (0..300).map(|i| (i % 11) as f32 - 5.0).collect();
        let y: Vec<f32> = (0..300).map(|i| (i % 7) as f32).collect();
        let (z, report) = PimBlas::axpy(&mut ctx, a, &x, &y).unwrap();
        for i in 0..300 {
            // Device order: round16(round16(a*x) + y).
            let want = F16::from_f32(x[i]).mac(F16::from_f32(a), F16::from_f32(y[i])).to_f32();
            assert_eq!(z[i], want, "element {i}");
        }
        assert!(report.pim_triggers > 0);
    }

    #[test]
    fn gemv_small_exact() {
        let mut ctx = small_ctx();
        // 2x2 identity-ish.
        let w = vec![1.0, 0.0, 0.0, 2.0];
        let x = vec![3.0, 4.0];
        let (out, report) = PimBlas::gemv(&mut ctx, &w, 2, 2, &x).unwrap();
        assert_eq!(out, vec![3.0, 8.0]);
        assert!(report.cycles > 0);
    }

    #[test]
    fn gemv_matches_reference_within_fp16() {
        let mut ctx = small_ctx();
        let n = 64;
        let k = 48;
        let w: Vec<f32> = (0..n * k).map(|i| ((i % 17) as f32 - 8.0) / 16.0).collect();
        let x: Vec<f32> = (0..k).map(|i| ((i % 5) as f32 - 2.0) / 4.0).collect();
        let (out, _) = PimBlas::gemv(&mut ctx, &w, n, k, &x).unwrap();
        let reference = PimBlas::reference_gemv(&w, n, k, &x);
        let out16: Vec<F16> = out.iter().map(|&v| F16::from_f32(v)).collect();
        let err = max_abs_error(&out16, &reference);
        assert!(err < 0.05, "max abs error {err}");
    }

    #[test]
    fn gemv_bias_folds_into_reduction() {
        let mut ctx = small_ctx();
        let w = vec![1.0f32; 8 * 4];
        let x = vec![0.5f32; 4];
        let bias: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let (out, _) = PimBlas::gemv_bias(&mut ctx, &w, 8, 4, &x, &bias).unwrap();
        for (o, v) in out.iter().enumerate() {
            assert!((v - (2.0 + o as f32)).abs() < 1e-3, "output {o}: {v}");
        }
        assert!(matches!(
            PimBlas::gemv_bias(&mut ctx, &w, 8, 4, &x, &[1.0]),
            Err(PimError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn gemv_multi_pass() {
        let mut ctx = small_ctx();
        // 16 ch × 8 units × 16 lanes = 2048 outputs per pass; force 2
        // passes.
        let n = 2048 + 64;
        let k = 16;
        let w: Vec<f32> =
            (0..n * k).map(|i| if i % k == (i / k) % k { 1.0 } else { 0.0 }).collect();
        let x: Vec<f32> = (0..k).map(|i| i as f32).collect();
        let (out, _) = PimBlas::gemv(&mut ctx, &w, n, k, &x).unwrap();
        let reference = PimBlas::reference_gemv(&w, n, k, &x);
        for o in 0..n {
            assert!(
                (out[o] - reference[o]).abs() < 1e-3,
                "output {o}: {} vs {}",
                out[o],
                reference[o]
            );
        }
    }

    #[test]
    fn sls_matches_reference() {
        let mut ctx = small_ctx();
        let rows = 100;
        let dim = 48; // 3 dim-blocks across (ch0..3, unit 0)
        let table: Vec<f32> = (0..rows * dim).map(|i| ((i % 9) as f32 - 4.0) * 0.5).collect();
        let indices = [3u32, 97, 5, 5, 42, 0, 99];
        let (out, report) = PimBlas::sls(&mut ctx, &table, rows, dim, &indices).unwrap();
        // Device reference: sequential FP16 accumulation in index order.
        for d in 0..dim {
            let mut acc = F16::from_f32(table[indices[0] as usize * dim + d]);
            for &i in &indices[1..] {
                acc = acc + F16::from_f32(table[i as usize * dim + d]);
            }
            assert_eq!(out[d], acc.to_f32(), "dim {d}");
        }
        // Random indices mean row conflicts: at least one ACT per distinct
        // row touched, per channel.
        assert!(report.commands > indices.len() as u64);
    }

    #[test]
    fn sls_rejects_bad_shapes() {
        let mut ctx = small_ctx();
        assert!(matches!(
            PimBlas::sls(&mut ctx, &[1.0; 10], 2, 5, &[7]),
            Err(PimError::SizeMismatch { .. })
        ));
        assert!(matches!(PimBlas::sls(&mut ctx, &[], 0, 0, &[]), Err(PimError::Empty)));
    }

    /// `rows * dim` wraps to 0 in a release build and used to pass for an
    /// empty table; a debug build aborted on the multiply.
    #[test]
    fn sls_refuses_a_shape_whose_product_overflows() {
        let mut ctx = small_ctx();
        assert!(matches!(
            PimBlas::sls(&mut ctx, &[], 1 << 63, 2, &[0]),
            Err(PimError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn lstm_cell_runs_and_is_finite() {
        let mut ctx = small_ctx();
        let h = 32;
        let xdim = 16;
        let w_x: Vec<f32> = (0..4 * h * xdim).map(|i| ((i % 11) as f32 - 5.0) / 64.0).collect();
        let w_h: Vec<f32> = (0..4 * h * h).map(|i| ((i % 7) as f32 - 3.0) / 64.0).collect();
        let bias = vec![0.1f32; 4 * h];
        let x = vec![0.5f32; xdim];
        let h0 = vec![0.0f32; h];
        let c0 = vec![0.0f32; h];
        let (h1, c1, report) =
            PimBlas::lstm_cell(&mut ctx, &w_x, &w_h, &bias, &x, &h0, &c0).unwrap();
        assert_eq!(h1.len(), h);
        assert!(h1.iter().all(|v| v.is_finite() && v.abs() <= 1.0));
        assert!(c1.iter().all(|v| v.is_finite()));
        assert!(report.cycles > 0);
    }

    #[test]
    fn errors_are_reported() {
        let mut ctx = small_ctx();
        assert!(matches!(
            PimBlas::add(&mut ctx, &[1.0], &[1.0, 2.0]),
            Err(PimError::SizeMismatch { .. })
        ));
        assert!(matches!(PimBlas::add(&mut ctx, &[], &[]), Err(PimError::Empty)));
        assert!(matches!(
            PimBlas::gemv(&mut ctx, &[1.0; 4], 2, 3, &[1.0; 3]),
            Err(PimError::SizeMismatch { .. })
        ));
        let err = PimError::Empty;
        assert!(!err.to_string().is_empty());
    }

    /// `n * k` wraps to 0 in a release build and used to pass both shape
    /// checks for an empty `w`, then index out of range while placing it.
    #[test]
    fn gemv_refuses_a_shape_whose_product_overflows() {
        let mut ctx = small_ctx();
        assert!(matches!(
            PimBlas::gemv(&mut ctx, &[], 1 << 63, 2, &[0.0, 0.0]),
            Err(PimError::SizeMismatch { .. })
        ));
    }
}
