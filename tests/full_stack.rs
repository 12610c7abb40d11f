//! Full-stack integration tests: application-level ops through the entire
//! software stack (PIM-BLAS → executor → kernel engine →
//! memory controller → PIM device → banks) with functional verification
//! against f32 references.

use pim_fp16::F16;
use pim_runtime::{PimBlas, PimContext};

#[test]
fn custom_ops_compute_correct_results() {
    let mut ctx = PimContext::small_system();
    let n = 5000; // deliberately not a multiple of 16: exercises padding

    let x: Vec<f32> = (0..n).map(|i| ((i % 37) as f32 - 18.0) * 0.25).collect();
    let y: Vec<f32> = (0..n).map(|i| ((i % 23) as f32 - 11.0) * 0.5).collect();

    let (z, _) = PimBlas::add(&mut ctx, &x, &y).unwrap();
    for i in 0..n {
        assert_eq!(z[i], x[i] + y[i], "add element {i}");
    }

    let (z, _) = PimBlas::mul(&mut ctx, &x, &y).unwrap();
    for i in 0..n {
        assert_eq!(z[i], x[i] * y[i], "mul element {i}");
    }

    let (z, _) = PimBlas::relu(&mut ctx, &x).unwrap();
    for i in 0..n {
        assert_eq!(z[i], x[i].max(0.0), "relu element {i}");
    }

    let (z, _) = PimBlas::bn(&mut ctx, &x, 2.0, -1.0).unwrap();
    for i in 0..n {
        let want = F16::from_f32(x[i]).mac(F16::from_f32(2.0), F16::from_f32(-1.0)).to_f32();
        assert_eq!(z[i], want, "bn element {i}");
    }
}

#[test]
fn gemv_through_the_full_stack_matches_reference() {
    let mut ctx = PimContext::small_system();
    let (n, k) = (300, 200); // ragged sizes exercise padding in both dims
    let w: Vec<f32> = (0..n * k).map(|i| ((i * 7 % 41) as f32 - 20.0) / 32.0).collect();
    let x: Vec<f32> = (0..k).map(|i| ((i * 3 % 17) as f32 - 8.0) / 16.0).collect();
    let (out, report) = PimBlas::gemv(&mut ctx, &w, n, k, &x).unwrap();
    let reference = PimBlas::reference_gemv(&w, n, k, &x);
    for o in 0..n {
        let err = (out[o] - reference[o]).abs();
        let tol = 0.02 * reference[o].abs().max(1.0);
        assert!(err <= tol, "output {o}: {} vs {} (err {err})", out[o], reference[o]);
    }
    assert!(report.commands > 0 && report.fences > 0 && report.pim_triggers > 0);
}

#[test]
fn lstm_cell_matches_host_reference() {
    let mut ctx = PimContext::small_system();
    let h = 48;
    let xdim = 32;
    let w_x: Vec<f32> = (0..4 * h * xdim).map(|i| ((i % 19) as f32 - 9.0) / 128.0).collect();
    let w_h: Vec<f32> = (0..4 * h * h).map(|i| ((i % 11) as f32 - 5.0) / 128.0).collect();
    let bias: Vec<f32> = (0..4 * h).map(|i| ((i % 5) as f32 - 2.0) / 16.0).collect();
    let x = vec![0.25f32; xdim];
    let h0 = vec![0.1f32; h];
    let c0 = vec![-0.1f32; h];

    let (h1, c1, _) = PimBlas::lstm_cell(&mut ctx, &w_x, &w_h, &bias, &x, &h0, &c0).unwrap();

    // f32 reference of the same cell.
    let gemv = |w: &[f32], rows: usize, cols: usize, v: &[f32]| -> Vec<f32> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| F16::from_f32(w[r * cols + c]).to_f32() * F16::from_f32(v[c]).to_f32())
                    .sum::<f32>()
            })
            .collect()
    };
    let gx = gemv(&w_x, 4 * h, xdim, &x);
    let gh = gemv(&w_h, 4 * h, h, &h0);
    let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
    for j in 0..h {
        let i_g = sigmoid(gx[j] + gh[j] + bias[j]);
        let f_g = sigmoid(gx[h + j] + gh[h + j] + bias[h + j]);
        let g_g = (gx[2 * h + j] + gh[2 * h + j] + bias[2 * h + j]).tanh();
        let o_g = sigmoid(gx[3 * h + j] + gh[3 * h + j] + bias[3 * h + j]);
        let c_want = f_g * c0[j] + i_g * g_g;
        let h_want = o_g * c_want.tanh();
        assert!((c1[j] - c_want).abs() < 1e-2, "c[{j}]: {} vs {c_want}", c1[j]);
        assert!((h1[j] - h_want).abs() < 1e-2, "h[{j}]: {} vs {h_want}", h1[j]);
    }
}

#[test]
fn execution_is_deterministic() {
    // "executing one wide-SIMD operation commanded by a PIM instruction
    // with deterministic latency in a lock-step manner" — identical runs
    // must produce identical cycle counts and identical results.
    let run = || {
        let mut ctx = PimContext::small_system();
        let x: Vec<f32> = (0..4096).map(|i| (i % 97) as f32).collect();
        let y: Vec<f32> = (0..4096).map(|i| (i % 89) as f32).collect();
        let (z, report) = PimBlas::add(&mut ctx, &x, &y).unwrap();
        (z, report.cycles, report.commands)
    };
    let (z1, c1, n1) = run();
    let (z2, c2, n2) = run();
    assert_eq!(z1, z2);
    assert_eq!(c1, c2, "cycle counts must be bit-identical");
    assert_eq!(n1, n2);
}

#[test]
fn sequential_kernels_share_the_device() {
    // Several BLAS calls back-to-back on one context: the memory manager
    // hands out disjoint regions and results never interfere.
    let mut ctx = PimContext::small_system();
    let a: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    let b = vec![1.0f32; 1024];
    let (s1, _) = PimBlas::add(&mut ctx, &a, &b).unwrap();
    let (s2, _) = PimBlas::mul(&mut ctx, &a, &b).unwrap();
    let (s3, _) = PimBlas::relu(&mut ctx, &a).unwrap();
    for i in 0..1024 {
        assert_eq!(s1[i], a[i] + 1.0);
        assert_eq!(s2[i], a[i]);
        assert_eq!(s3[i], a[i]);
    }
    // The bump allocator really advanced.
    assert!(ctx.mm.min_available() < ctx.driver.reserved_rows());
}

#[test]
fn kernel_reports_compose() {
    let mut ctx = PimContext::small_system();
    let x = vec![1.0f32; 2048];
    let (_, r1) = PimBlas::relu(&mut ctx, &x).unwrap();
    let (_, r2) = PimBlas::relu(&mut ctx, &x).unwrap();
    let mut sum = r1;
    sum.absorb(&r2);
    assert_eq!(sum.commands, 2 * r2.commands);
    assert!(sum.seconds > r2.seconds);
}
