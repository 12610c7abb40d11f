//! Ladder of `paper_fig10`: the whole figure → the PIM kernel simulations a
//! fresh cost model runs for it (single-channel engine and below) → and,
//! beside them, the model runner on a warm cost model and the energy model.

use super::{Run, Traced};
use crate::workloads::paper_fig10::{cost_of, evaluate, pim_kernel_calls, PaperFig10};
use crate::workloads::{Scale, Workload};
use pim_energy::SystemPowerModel;
use pim_models::{CostModel, ModelRunner, SystemKind};
use std::collections::BTreeSet;
use std::hint::black_box;

pub fn fig10(mut run: Run, scale: Scale) -> Result<Traced, String> {
    const ROOT: &str = "models.figure.evaluate";
    let mut workload = PaperFig10::setup(scale)?;
    let (mut shapes, mut runs) = (0.0, 0.0);
    while run.again() {
        run.untraced(workload.rep(run.iteration()));
        let (models, batches) = (workload.models(), workload.batches());
        let eval = run.t.time(ROOT, None, || evaluate(models, batches));

        // Every distinct shape, simulated cold on a fresh cost model.
        let distinct: BTreeSet<_> = pim_kernel_calls(models, &eval).into_iter().collect();
        let mut cold = CostModel::paper();
        run.t.time("host.engine.pim_kernels", Some(ROOT), || {
            for &key in &distinct {
                black_box(cost_of(&mut cold, key));
            }
        });
        shapes = distinct.len() as f64;

        // The runner and the energy model with every kernel cost memoized.
        let mut warm = eval.cost;
        let power = SystemPowerModel::paper();
        let reports = run.t.time("models.runner.run", Some(ROOT), || {
            let mut reports = Vec::new();
            for &batch in batches {
                for m in models {
                    for system in [SystemKind::ProcHbm, SystemKind::PimHbm] {
                        reports.push(ModelRunner::run(&mut warm, &power, m, system, batch));
                    }
                }
            }
            reports
        });
        runs = reports.len() as f64;
        run.t.time("energy.trace.energy_j", Some(ROOT), || {
            for r in &reports {
                black_box(r.energy_j(&power));
            }
        });
    }

    run.set(
        "models.cost.pim_gemv_ms_per_shape",
        Run::ratio(run.s("host.engine.pim_kernels") * 1e3, shapes),
    );
    run.set("models.runner.us_per_run", Run::ratio(run.s("models.runner.run") * 1e6, runs));
    run.set("energy.trace.us_per_run", Run::ratio(run.s("energy.trace.energy_j") * 1e6, runs));
    let traced_rep_s = run.s(ROOT);
    Ok(run.finish(ROOT, traced_rep_s))
}
