//! GEMV acceleration sweep: the paper's headline experiment.
//!
//! Runs the Table VI GEMV sizes at batch 1, 2 and 4 on the HBM baseline
//! and on PIM-HBM, printing the relative-performance curve of Fig. 10
//! beside what the paper reports for each point (`pim_bench::paper`) —
//! including batch 4, where the host's batched GEMM catches up and the
//! runtime keeps the kernel on the host.
//!
//! Run with: `cargo run -p pim-bench --example gemv_acceleration --release`

use pim_bench::micro::gemv_micro;
use pim_bench::paper::{find, reported};
use pim_bench::report::{format_table, ratio, time};
use pim_bench::workloads::gemv_workloads;
use pim_models::CostModel;

fn main() {
    let mut cost = CostModel::paper();
    let (low, high) = (reported("Fig. 10", "GEMV1", 1), reported("Fig. 10", "GEMV4", 1));
    println!("GEMV on PIM-HBM vs HBM (the paper's {low}x .. {high}x headline)\n");
    let mut rows = Vec::new();
    let mut b4 = Vec::new();
    for batch in [1usize, 2, 4] {
        for w in gemv_workloads() {
            let r = gemv_micro(&mut cost, &w, batch);
            if batch == 4 {
                b4.push(r.speedup());
            }
            // The paper's value where it reports one, else the band its
            // range or inequality claim sets.
            let paper = find("Fig. 10", w.name, batch).map_or(String::new(), |c| match c.paper {
                Some(p) => format!("{p}x"),
                None => c.band.to_string(),
            });
            rows.push(vec![
                w.name.to_string(),
                format!("{}x{}", w.n, w.k),
                format!("B{batch}"),
                time(r.hbm_s),
                time(r.pim_s),
                ratio(r.speedup()),
                paper,
            ]);
        }
    }
    let header = ["Workload", "Shape", "Batch", "HBM", "PIM-HBM", "PIM speedup", "Paper"];
    println!("{}", format_table(&header, &rows));
    let wins = b4.iter().filter(|&&s| s < 1.0).count();
    let best = b4.iter().copied().fold(0.0, f64::max);
    println!("Note the shape: at batch 1 the speedup grows with N (PIM computes all");
    println!("outputs in one lock-step pass). By batch 4 the host's batched GEMM has");
    println!(
        "enough LLC reuse to win on {wins} of {} shapes, and PIM's best is {best:.2}x —",
        b4.len()
    );
    println!("\"the processor with HBM begins to outperform\".");
}
