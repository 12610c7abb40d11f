//! `gemv_cold` and `gemv_warm`: the same Table VI GEMV1 through opposite
//! layers. Cold runs the full cycle-level simulation (engine fences, device
//! and unit pipeline, controller and banks do nearly all the work; the fast
//! path does none). Warm replays a prepared plan (fast-path replay, the
//! DataTape and `mac_lanes` do the work; engine and controller almost none).

use super::{count_wrong, Rep, Scale, Sim, Workload};
use crate::gen::unit_vector;
use pim_fp16::F16;
use pim_host::FastpathStats;
use pim_runtime::{GemvPlan, KernelReport, PimBlas, PimContext};
use std::time::Instant;

/// Launches per `gemv_warm` rep.
pub const WARM_OPS_PER_REP: usize = 20;

/// The seeded GEMV operands and an exact oracle for the device arithmetic.
pub struct GemvInputs {
    pub n: usize,
    pub k: usize,
    pub w: Vec<f32>,
    seed: u64,
    /// `W` regrouped for the oracle: `[block][j][lane]` holds
    /// `W[16*block + lane][j]` as binary16.
    blocked: Vec<[F16; 16]>,
}

impl GemvInputs {
    /// Table VI GEMV1 (1024 × 4096), or a 128 × 256 smoke shape.
    pub fn generate(seed: u64, scale: Scale) -> GemvInputs {
        let (n, k) = scale.pick((1024, 4096), (128, 256));
        let w = unit_vector(seed, 0x57E1_6475, n * k);
        let mut blocked = vec![[F16::ZERO; 16]; n.div_ceil(16) * k];
        for (o, row) in w.chunks(k).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                blocked[(o / 16) * k + j][o % 16] = F16::from_f32(v);
            }
        }
        GemvInputs { n, k, w, seed, blocked }
    }

    /// Input vector number `salt`.
    pub fn x(&self, salt: u64) -> Vec<f32> {
        unit_vector(self.seed, 0x1A7C_0000 ^ salt, self.k)
    }

    /// `W · x` exactly as the device computes it: input `j` accumulates
    /// into partial-sum register `j % 8` with the two-rounding FP16 MAC, in
    /// ascending `j`; the host then adds the eight registers in f32,
    /// register order. Bit-for-bit what `PimBlas::gemv` must return.
    pub fn oracle(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n);
        for rows in self.blocked.chunks(self.k) {
            let mut acc = [[F16::ZERO; 16]; 8];
            for (j, (wj, &xj)) in rows.iter().zip(x).enumerate() {
                acc[j % 8] = F16::mac_lanes(wj, &[F16::from_f32(xj); 16], &acc[j % 8]);
            }
            for lane in 0..16 {
                out.push(acc.iter().map(|r| r[lane].to_f32()).sum::<f32>());
            }
        }
        out.truncate(self.n);
        out
    }

    /// `mac_lanes` calls one [`GemvInputs::oracle`] evaluation makes.
    pub fn mac_calls(&self) -> u64 {
        self.blocked.len() as u64
    }
}

/// The documented FP16 tolerance against the f32 reference: each of the
/// `k` MACs rounds its running sum to binary16, so the bound grows with
/// the accumulated magnitude. Used once per set-up as a sanity check on the
/// exact oracle itself.
fn within_fp16_tolerance(got: &[f32], reference: &[f32], k: usize) -> bool {
    let tol = 0.02 + 0.002 * (k as f32).sqrt();
    got.len() == reference.len()
        && got.iter().zip(reference).all(|(g, r)| (g - r).abs() <= tol * r.abs().max(1.0))
}

fn sim_of(report: &KernelReport, ops: u64, failed: u64, wrong: u64, fp: FastpathStats) -> Sim {
    let cycles = report.cycles as f64;
    let ok_ops = ops - failed;
    Sim {
        attempted: ops,
        unserved: 0,
        failed,
        wrong_answers: wrong,
        commands: report.commands * ops,
        cycles_per_op: cycles,
        latency_p50: report.cycles,
        latency_p99: report.cycles,
        goodput_eps: if report.seconds > 0.0 {
            (report.elements as u64 * ok_ops) as f64 / (report.seconds * ops as f64)
        } else {
            0.0
        },
        counts: [
            ("host.engine.fences_per_op", report.fences),
            ("core.unit.triggers_per_op", report.pim_triggers),
            ("host.fastpath.hits", fp.hits),
            ("host.fastpath.misses", fp.misses),
            ("host.fastpath.insertions", fp.insertions),
            ("host.fastpath.uncacheable", fp.uncacheable),
            ("host.fastpath.unproven", fp.unproven),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v as f64))
        .chain([("host.fastpath.hit_ratio".to_string(), hit_ratio(&fp))])
        .collect(),
    }
}

/// Launches replayed from the cache ÷ all launches the counters saw.
pub fn hit_ratio(fp: &FastpathStats) -> f64 {
    let launches = fp.hits + fp.misses + fp.uncacheable;
    if launches == 0 {
        0.0
    } else {
        fp.hits as f64 / launches as f64
    }
}

/// Counter difference `after - before`.
pub fn fastpath_delta(after: FastpathStats, before: FastpathStats) -> FastpathStats {
    FastpathStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        uncacheable: after.uncacheable - before.uncacheable,
        unproven: after.unproven - before.unproven,
    }
}

/// One `PimBlas::gemv` on a fresh 64-channel paper system per op, fast path
/// at its default (on), so the launch pays miss + record + proof as a
/// user's first call does.
pub struct GemvCold {
    inputs: GemvInputs,
}

impl GemvCold {
    pub fn setup(seed: u64, scale: Scale) -> Result<GemvCold, String> {
        let inputs = GemvInputs::generate(seed, scale);
        let x = inputs.x(0);
        let reference = PimBlas::reference_gemv(&inputs.w, inputs.n, inputs.k, &x);
        if !within_fp16_tolerance(&inputs.oracle(&x), &reference, inputs.k) {
            return Err("gemv oracle is outside the FP16 tolerance of reference_gemv".into());
        }
        Ok(GemvCold { inputs })
    }

    pub fn inputs(&self) -> &GemvInputs {
        &self.inputs
    }
}

impl Workload for GemvCold {
    fn rep(&mut self, index: usize) -> Rep {
        let g = &self.inputs;
        let x = g.x(1 + index as u64);
        let mut ctx = PimContext::paper_system();
        let watch = Instant::now();
        let result = PimBlas::gemv(&mut ctx, &g.w, g.n, g.k, &x);
        let wall_s = watch.elapsed().as_secs_f64();
        let fp = ctx.sys.fastpath_stats();
        let sim = match result {
            Ok((y, report)) => sim_of(&report, 1, 0, count_wrong(&y, &g.oracle(&x)), fp),
            Err(_) => sim_of(&KernelReport::default(), 1, 1, 0, fp),
        };
        Rep { wall_s, sim }
    }
}

/// Steady-state launches of one prepared plan. Set-up pays prepare, the
/// cold launch, the recording launch and the tape-compiling launch.
pub struct GemvWarm {
    inputs: GemvInputs,
    ctx: PimContext,
    plan: GemvPlan,
    x_ref: Vec<f32>,
    y_ref: Vec<f32>,
    steady: KernelReport,
    /// Test hook: drop the launch cache before every rep, so each rep's
    /// first launches miss.
    pub force_miss: bool,
}

impl GemvWarm {
    pub fn setup(seed: u64, scale: Scale) -> Result<GemvWarm, String> {
        let inputs = GemvInputs::generate(seed, scale);
        let mut ctx = PimContext::paper_system();
        let mut plan = GemvPlan::prepare(&mut ctx, &inputs.w, inputs.n, inputs.k)
            .map_err(|e| format!("plan prepare: {e}"))?;
        let launch = |plan: &mut GemvPlan, ctx: &mut PimContext, x: &[f32]| {
            plan.launch(ctx, x).map_err(|e| format!("warm-up launch: {e}"))
        };
        launch(&mut plan, &mut ctx, &inputs.x(0))?;
        let x_ref = inputs.x(1);
        let (y_ref, steady) = launch(&mut plan, &mut ctx, &x_ref)?;
        let (y_tape, r_tape) = launch(&mut plan, &mut ctx, &x_ref)?;
        if y_tape != y_ref || r_tape != steady || count_wrong(&y_ref, &inputs.oracle(&x_ref)) > 0 {
            return Err("warm-up launches disagree with each other or the oracle".into());
        }
        Ok(GemvWarm { inputs, ctx, plan, x_ref, y_ref, steady, force_miss: false })
    }

    pub fn parts(&mut self) -> (&GemvInputs, &mut PimContext, &mut GemvPlan) {
        (&self.inputs, &mut self.ctx, &mut self.plan)
    }
}

impl Workload for GemvWarm {
    fn rep(&mut self, index: usize) -> Rep {
        if self.force_miss {
            self.ctx.sys.clear_fastpath();
        }
        // Every 2nd launch re-uses the reference input and must reproduce
        // the recorded output bit for bit; the others get a fresh input.
        let fresh: Vec<Vec<f32>> = (0..WARM_OPS_PER_REP / 2)
            .map(|i| self.inputs.x(2 + (index * WARM_OPS_PER_REP + i) as u64))
            .collect();
        let mut outputs = Vec::with_capacity(WARM_OPS_PER_REP);
        let before = self.ctx.sys.fastpath_stats();
        let watch = Instant::now();
        for i in 0..WARM_OPS_PER_REP {
            let x = if i % 2 == 1 { &self.x_ref } else { &fresh[i / 2] };
            let fp = self.ctx.sys.fastpath_stats();
            let out = self.plan.launch(&mut self.ctx, x);
            let hit = fastpath_delta(self.ctx.sys.fastpath_stats(), fp).misses == 0;
            outputs.push((out, hit));
        }
        let wall_s = watch.elapsed().as_secs_f64();
        let fp = fastpath_delta(self.ctx.sys.fastpath_stats(), before);

        let (mut failed, mut wrong) = (0, 0);
        for (i, (out, hit)) in outputs.iter().enumerate() {
            match out {
                // A launch that misses the cache, or whose simulated report
                // drifts from the steady state, failed to be warm.
                Ok((y, report)) => {
                    wrong += if i % 2 == 1 {
                        count_wrong(y, &self.y_ref)
                    } else {
                        count_wrong(y, &self.inputs.oracle(&fresh[i / 2]))
                    };
                    failed += u64::from(!hit || *report != self.steady);
                }
                Err(_) => failed += 1,
            }
        }
        Rep { wall_s, sim: sim_of(&self.steady, WARM_OPS_PER_REP as u64, failed, wrong, fp) }
    }
}
