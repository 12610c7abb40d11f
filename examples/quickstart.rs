//! Quickstart: add two vectors on the PIM execution units, then run a
//! fully connected layer.
//!
//! This is the smallest end-to-end trip through the stack: allocate PIM
//! memory, lay the operands out bank-interleaved, program the microkernel
//! into every CRF with memory-mapped writes, drive it with standard DRAM
//! commands, and read the result back — exactly the path a TensorFlow
//! custom op takes in the paper's Fig. 7.
//!
//! Run with: `cargo run -p pim-bench --example quickstart --release`

use pim_runtime::{PimBlas, PimContext};

fn main() {
    // The paper's evaluation platform: an unmodified host with 4 PIM-HBM
    // stacks (64 pseudo channels, 512 PIM units, 8192 FP16 lanes).
    let mut ctx = PimContext::paper_system();

    let n = 1 << 20; // one million elements
    let x: Vec<f32> = (0..n).map(|i| (i % 100) as f32 * 0.25).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 50) as f32 * 0.5).collect();

    println!("PIM ADD over {n} elements on {} channels...", ctx.sys.channel_count());
    let (z, report) = PimBlas::add(&mut ctx, &x, &y).expect("pim add");

    // The device computed in FP16; these inputs are exactly representable,
    // so the results are exact.
    let mut errors = 0;
    for i in 0..n {
        if z[i] != x[i] + y[i] {
            errors += 1;
        }
    }
    println!("verified: {} mismatches out of {n}", errors);
    assert_eq!(errors, 0);

    println!(
        "kernel: {} cycles = {:.1} us | {} DRAM commands | {} fences | {} PIM triggers",
        report.cycles,
        report.seconds * 1e6,
        report.commands,
        report.fences,
        report.pim_triggers,
    );
    println!(
        "throughput: {:.1} G elements/s ({:.1} GB/s of operand traffic)",
        report.elements_per_second() / 1e9,
        report.elements_per_second() * 6.0 / 1e9,
    );

    // A fully connected layer, `out = W·x + b`: the GEMV runs on PIM and
    // the bias folds into the host-side reduction of the partial sums.
    ctx.reset_memory();
    let (rows, cols) = (256, 512);
    let w: Vec<f32> = (0..rows * cols).map(|i| ((i * 7 % 41) as f32 - 20.0) / 32.0).collect();
    let input: Vec<f32> = (0..cols).map(|i| ((i * 3 % 17) as f32 - 8.0) / 16.0).collect();
    let bias: Vec<f32> = (0..rows).map(|i| (i % 5) as f32 * 0.5).collect();
    let (out, report) =
        PimBlas::gemv_bias(&mut ctx, &w, rows, cols, &input, &bias).expect("pim gemv");
    let worst = (0..rows)
        .map(|r| {
            let exact: f32 = (0..cols).map(|c| w[r * cols + c] * input[c]).sum::<f32>() + bias[r];
            (out[r] - exact).abs()
        })
        .fold(0.0f32, f32::max);
    println!(
        "FC layer {rows}x{cols}: {} cycles, max |err| vs f32 = {worst:.4} (FP16 accumulation)",
        report.cycles
    );
    assert!(worst < 0.5);
}
