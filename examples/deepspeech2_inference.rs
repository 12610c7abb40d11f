//! End-to-end DeepSpeech2 inference: the paper's flagship application.
//!
//! Executes the DS2 layer graph (2 convs + 6 bidirectional LSTM layers +
//! FC) on the HBM baseline and on PIM-HBM at batch 1, printing per-layer
//! times, the end-to-end speedup, the energy comparison and the average
//! power, each beside what the paper reports (`pim_bench::paper`).
//!
//! Run with: `cargo run -p pim-bench --example deepspeech2_inference --release`

use pim_bench::paper::{find, reported};
use pim_bench::report::{format_table, time};
use pim_energy::SystemPowerModel;
use pim_models::{models, CostModel, ModelRunner, SystemKind};

fn main() {
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    let model = models::deepspeech2();

    let hbm = ModelRunner::run(&mut cost, &power, &model, SystemKind::ProcHbm, 1);
    let pim = ModelRunner::run(&mut cost, &power, &model, SystemKind::PimHbm, 1);

    println!("DeepSpeech2 inference, batch 1 (2-second utterance)\n");
    let rows: Vec<Vec<String>> = hbm
        .layers
        .iter()
        .zip(pim.layers.iter())
        .map(|(h, p)| {
            vec![
                h.name.to_string(),
                time(h.seconds),
                time(p.seconds),
                if p.on_pim { "PIM".into() } else { "host".into() },
            ]
        })
        .collect();
    println!("{}", format_table(&["Layer", "PROC-HBM", "PIM-HBM", "runs on"], &rows));

    println!(
        "end-to-end: {} -> {}  = {:.2}x speedup (paper: {}x)",
        time(hbm.total_seconds),
        time(pim.total_seconds),
        pim.speedup_over(&hbm),
        reported("Fig. 10", "DS2", 1)
    );
    let e_hbm = hbm.energy_j(&power);
    let e_pim = pim.energy_j(&power);
    println!(
        "energy: {:.2} J -> {:.2} J = {:.2}x better efficiency (paper: {}x)",
        e_hbm,
        e_pim,
        e_hbm / e_pim,
        reported("Fig. 12", "DS2", 1)
    );
    // Fig. 13 shows PIM-HBM at lower average power; this model lands a few
    // per cent above the baseline, inside the band the reproduction holds.
    let band = find("Fig. 13", "DS2 power PIM / HBM", 1).expect("a Fig. 13 claim").band;
    println!(
        "average power: {:.0} W -> {:.0} W (paper: lower on PIM-HBM; reproduced as \
         PIM / HBM {band})",
        hbm.trace.average_power_w(&power),
        pim.trace.average_power_w(&power)
    );
}
