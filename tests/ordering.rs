//! Integration tests of the instruction-ordering story (Section IV-C,
//! Fig. 5), observed functionally, not assumed. Kernels issue through
//! `MemoryController::issue_raw` in batch order (`pim-dram`'s FR-FCFS
//! request path carries no kernel); the reordering a controller may apply
//! inside a fence window is `Batch::issue_order`'s seeded permutation of
//! commutative batches, an adversary AAM must tolerate. Then the fences,
//! Fig. 5(c)'s unfenced demo, and the no-fence controller mode.

use pim_host::ExecutionMode;
use pim_runtime::{PimBlas, PimContext};

fn reference_add(x: &[f32], y: &[f32]) -> Vec<f32> {
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

fn max_err(z: &[f32], want: &[f32]) -> f32 {
    z.iter().zip(want.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
}

#[test]
fn aam_makes_in_window_reordering_invisible() {
    // Shuffle every commutative batch with several different seeds: the
    // result must be bit-identical to in-order execution, because AAM
    // derives register indices from the column address, not arrival order.
    let n = 8192;
    let x: Vec<f32> = (0..n).map(|i| (i % 211) as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 173) as f32).collect();
    let want = reference_add(&x, &y);
    for seed in [1u64, 42, 0xDEAD, 7777] {
        let mut ctx = PimContext::small_system();
        ctx.set_mode(ExecutionMode::Fenced { reorder_seed: Some(seed) });
        let (z, _) = PimBlas::add(&mut ctx, &x, &y).unwrap();
        assert_eq!(max_err(&z, &want), 0.0, "seed {seed}");
    }
}

#[test]
fn unfenced_reordering_corrupts_results() {
    // Remove the fences while the controller reorders beyond the AAM
    // window: Fig. 5(c)'s wrong-operand failure, observed.
    let n = 8192;
    let x: Vec<f32> = (0..n).map(|i| (i % 211) as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 173) as f32).collect();
    let want = reference_add(&x, &y);
    let mut corrupted = 0;
    for seed in [1u64, 42, 0xDEAD] {
        let mut ctx = PimContext::small_system();
        ctx.set_mode(ExecutionMode::UnfencedReordered { seed });
        let (z, _) = PimBlas::add(&mut ctx, &x, &y).unwrap();
        if max_err(&z, &want) > 0.0 {
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 3, "every unfenced reordered run must corrupt data");
}

#[test]
fn ordered_mode_is_correct_and_faster() {
    // The §VII-B what-if: an order-preserving PIM-mode controller needs no
    // fences — same results, fewer cycles.
    let n = 16384;
    let x: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.5).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 61) as f32 * 0.25).collect();
    let want = reference_add(&x, &y);

    let mut fenced_ctx = PimContext::small_system();
    let (zf, rf) = PimBlas::add(&mut fenced_ctx, &x, &y).unwrap();

    let mut ordered_ctx = PimContext::small_system();
    ordered_ctx.set_mode(ExecutionMode::Ordered);
    let (zo, ro) = PimBlas::add(&mut ordered_ctx, &x, &y).unwrap();

    assert_eq!(max_err(&zf, &want), 0.0);
    assert_eq!(zf, zo, "ordering regime must not change results");
    assert!(ro.cycles < rf.cycles, "ordered {} !< fenced {}", ro.cycles, rf.cycles);
    assert_eq!(ro.fences, 0);
    assert!(rf.fences > 0);
}

#[test]
fn gemv_survives_in_window_reordering() {
    // GEMV's MAC groups are fenced_ordered (the leading WR feeds the SRF),
    // so the engine never shuffles them — results must match the in-order
    // run under a reordering controller configuration.
    let (n, k) = (128, 96);
    let w: Vec<f32> = (0..n * k).map(|i| ((i % 29) as f32 - 14.0) / 16.0).collect();
    let x: Vec<f32> = (0..k).map(|i| ((i % 13) as f32 - 6.0) / 8.0).collect();

    let mut inorder = PimContext::small_system();
    let (a, _) = PimBlas::gemv(&mut inorder, &w, n, k, &x).unwrap();

    let mut reordered = PimContext::small_system();
    reordered.set_mode(ExecutionMode::Fenced { reorder_seed: Some(99) });
    let (b, _) = PimBlas::gemv(&mut reordered, &w, n, k, &x).unwrap();

    assert_eq!(a, b);
}

#[test]
fn fence_count_tracks_the_grf_depth() {
    // "a barrier for every 8 DRAM commands ... limited to the number of
    // registers in GRF": the ADD kernel fences 3 windows per row of 8
    // blocks (x-loads, y-adds, z-stores).
    let mut ctx = PimContext::small_system();
    let elements = 16 * 16 * 8 * 8 * 2; // exactly 2 rows per unit (16 ch)
    let x = vec![1.0f32; elements];
    let y = vec![2.0f32; elements];
    let (_, report) = PimBlas::add(&mut ctx, &x, &y).unwrap();
    // 2 rows × 3 windows × 16 channels = 96 data fences (choreography adds
    // none: setup batches are unfenced).
    assert_eq!(report.fences, 96, "fences: {}", report.fences);
}
