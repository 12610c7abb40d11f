//! `paper_fig10`: one full Fig. 10 + Fig. 12 evaluation with a fresh cost
//! model — the paper-reproduction path (`models`, `energy`, the runtime's
//! `Preprocessor`, the single-channel engine). Carries the accuracy numbers.
//! No serving or fast-path code runs, so those optimisations predict *no
//! change* here.

use super::{Rep, Scale, Sim, Workload};
use crate::paper::{rel_err, FIG10, REL_ERR_CEILING};
use pim_energy::SystemPowerModel;
use pim_models::models::all_models;
use pim_models::{CostModel, KernelCost, Layer, Model, ModelRunner, RunReport, SystemKind};
use pim_runtime::StreamOp;
use std::collections::BTreeSet;
use std::time::Instant;

pub const BATCHES: [usize; 3] = [1, 2, 4];
/// Table VI: the four GEMV shapes (`n`, `k`) and the four ADD sizes.
pub const GEMV: [(&str, usize, usize); 4] =
    [("GEMV1", 1024, 4096), ("GEMV2", 2048, 4096), ("GEMV3", 4096, 8192), ("GEMV4", 8192, 8192)];
pub const ADD: [(&str, usize); 4] =
    [("ADD1", 2 << 20), ("ADD2", 4 << 20), ("ADD3", 8 << 20), ("ADD4", 16 << 20)];

/// One simulated speed-up: workload, batch, PIM-HBM over PROC-HBM.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub batch: usize,
    pub speedup: f64,
    /// PROC-HBM energy over PIM-HBM energy (models only; Fig. 12).
    pub energy_gain: Option<f64>,
}

/// Everything one evaluation produced.
pub struct Evaluation {
    pub rows: Vec<Row>,
    /// The cost model after the run, shapes memoized.
    pub cost: CostModel,
    /// Per batch, the PIM-HBM run of every model (which layers went to PIM).
    pub pim_runs: Vec<(usize, Vec<RunReport>)>,
}

pub struct PaperFig10 {
    models: Vec<Model>,
    batches: &'static [usize],
}

/// Runs the whole figure on a fresh cost model.
pub fn evaluate(models: &[Model], batches: &[usize]) -> Evaluation {
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    let mut rows = Vec::new();
    let mut pim_runs = Vec::new();
    for &batch in batches {
        for (name, n, k) in GEMV {
            let pim = cost.pim_gemv(n, k).seconds * batch as f64;
            let hbm = cost.host_gemv(n, k, batch, 1.0).seconds;
            rows.push(Row { name: name.into(), batch, speedup: hbm / pim, energy_gain: None });
        }
        for (name, elements) in ADD {
            let pim = cost.pim_stream(StreamOp::Add, elements * batch).seconds;
            let hbm = cost.host_stream(StreamOp::Add, elements * batch, 1.0).seconds;
            rows.push(Row { name: name.into(), batch, speedup: hbm / pim, energy_gain: None });
        }
        let mut runs = Vec::new();
        for m in models {
            let hbm = ModelRunner::run(&mut cost, &power, m, SystemKind::ProcHbm, batch);
            let pim = ModelRunner::run(&mut cost, &power, m, SystemKind::PimHbm, batch);
            rows.push(Row {
                name: m.name.into(),
                batch,
                speedup: pim.speedup_over(&hbm),
                energy_gain: Some(hbm.energy_j(&power) / pim.energy_j(&power)),
            });
            runs.push(pim);
        }
        pim_runs.push((batch, runs));
    }
    Evaluation { rows, cost, pim_runs }
}

/// The simulated speed-up a reference row is compared with.
pub fn measured(rows: &[Row], name: &str, batch: usize) -> Option<f64> {
    if name == "ADD" {
        // Geometric mean over every ADD size and batch.
        let adds: Vec<f64> =
            rows.iter().filter(|r| r.name.starts_with("ADD")).map(|r| r.speedup.ln()).collect();
        return (!adds.is_empty()).then(|| (adds.iter().sum::<f64>() / adds.len() as f64).exp());
    }
    rows.iter().find(|r| r.name == name && r.batch == batch).map(|r| r.speedup)
}

/// `(max, mean)` relative error over the reference rows present in `rows`.
pub fn paper_errors(rows: &[Row]) -> (f64, f64) {
    let errs: Vec<f64> = FIG10
        .iter()
        .filter_map(|r| measured(rows, r.name, r.batch).map(|m| rel_err(m, r.paper)))
        .collect();
    let max = errs.iter().copied().fold(0.0, f64::max);
    (max, errs.iter().sum::<f64>() / errs.len().max(1) as f64)
}

/// Every PIM kernel evaluation the figure asked the cost model for, as
/// `(kind, a, b)` keys — `(0, n, k)` GEMV, `(1 + op, elements, 0)` stream —
/// in call order, repeats included.
pub fn pim_kernel_calls(models: &[Model], eval: &Evaluation) -> Vec<(u8, usize, usize)> {
    let mut calls = Vec::new();
    for (batch, runs) in &eval.pim_runs {
        calls.extend(GEMV.iter().map(|&(_, n, k)| (0, n, k)));
        calls.extend(ADD.iter().map(|&(_, e)| (1, e * batch, 0)));
        for (m, run) in models.iter().zip(runs) {
            for (layer, time) in m.layers.iter().zip(&run.layers) {
                if !time.on_pim {
                    continue;
                }
                match layer {
                    Layer::FullyConnected { n, k, .. } => calls.push((0, *n, *k)),
                    Layer::Lstm { hidden, input, .. } => {
                        calls.push((0, 4 * hidden, *input));
                        calls.push((0, 4 * hidden, *hidden));
                    }
                    _ => {
                        if let Some((op, elements)) = layer.stream_op() {
                            calls.push((1 + op as u8, elements * batch, 0));
                        }
                    }
                }
            }
        }
    }
    calls
}

fn stream_op_of(kind: u8) -> StreamOp {
    [StreamOp::Add, StreamOp::Mul, StreamOp::Relu, StreamOp::Bn, StreamOp::Axpy][kind as usize - 1]
}

/// The memoized cost of one [`pim_kernel_calls`] key and the result
/// elements the kernel produces.
pub fn cost_of(cost: &mut CostModel, key: (u8, usize, usize)) -> (KernelCost, u64) {
    match key {
        (0, n, k) => (cost.pim_gemv(n, k), n as u64),
        (kind, elements, _) => (cost.pim_stream(stream_op_of(kind), elements), elements as u64),
    }
}

impl PaperFig10 {
    /// Builds the model zoo and runs one checked evaluation: every speed-up
    /// finite and positive before anything is timed.
    pub fn setup(scale: Scale) -> Result<PaperFig10, String> {
        let w = PaperFig10 { models: all_models(), batches: scale.pick(&BATCHES, &BATCHES[..1]) };
        let rows = evaluate(&w.models, w.batches).rows;
        match rows.iter().find(|r| !(r.speedup.is_finite() && r.speedup > 0.0)) {
            Some(bad) => Err(format!("{} at batch {} has no valid speed-up", bad.name, bad.batch)),
            None => Ok(w),
        }
    }

    pub fn models(&self) -> &[Model] {
        &self.models
    }

    pub fn batches(&self) -> &'static [usize] {
        self.batches
    }
}

impl Workload for PaperFig10 {
    fn rep(&mut self, _index: usize) -> Rep {
        let watch = Instant::now();
        let mut eval = evaluate(&self.models, self.batches);
        let wall_s = watch.elapsed().as_secs_f64();

        // Each distinct shape was simulated once (the cost model memoizes);
        // re-asking for it is a cache hit that returns its accounting.
        let calls = pim_kernel_calls(&self.models, &eval);
        let distinct: BTreeSet<_> = calls.iter().copied().collect();
        let (mut commands, mut cycles, mut elements, mut seconds) = (0, 0, 0, 0.0);
        for &key in &distinct {
            let (c, elems) = cost_of(&mut eval.cost, key);
            commands += c.commands;
            cycles += c.cycles;
            elements += elems;
            seconds += c.seconds;
        }
        let (err_max, err_mean) = paper_errors(&eval.rows);
        let sane = eval.rows.iter().all(|r| r.speedup.is_finite() && r.speedup > 0.0);
        let sim = Sim {
            attempted: 1,
            failed: u64::from(!sane || err_max > REL_ERR_CEILING),
            commands,
            cycles_per_op: cycles as f64,
            latency_p50: cycles,
            latency_p99: cycles,
            goodput_eps: elements as f64 / seconds,
            counts: vec![
                ("models.cost.shapes_simulated".into(), distinct.len() as f64),
                (
                    "models.cost.cache_hit_ratio".into(),
                    1.0 - distinct.len() as f64 / calls.len() as f64,
                ),
                ("models.paper.rel_err_max".into(), err_max),
                ("models.paper.rel_err_mean".into(), err_mean),
            ],
            ..Sim::default()
        };
        Rep { wall_s, sim }
    }
}
