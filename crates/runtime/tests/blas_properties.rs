//! Property-based tests of PIM-BLAS: random shapes and data through the
//! full stack, checked against f32 references computed with the device's
//! FP16 rounding semantics.

use pim_fp16::F16;
use pim_host::ExecutionMode;
use pim_runtime::{PimBlas, PimContext};
use proptest::prelude::*;

/// Small, well-scaled values: FP16 exact-friendly without being trivial.
fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-512i32..512).prop_map(|v| v as f32 * 0.125), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ADD matches the FP16 reference for random lengths and data.
    #[test]
    fn add_matches_reference(
        n in 1usize..3000,
        seed in any::<u64>(),
    ) {
        let data: Vec<f32> = (0..2 * n)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((i as u64).wrapping_mul(0x2545F4914F6CDD1D));
                ((h >> 32) as i32 % 256) as f32 * 0.25
            })
            .collect();
        let (x, y) = data.split_at(n);
        let mut ctx = PimContext::small_system();
        let (z, _) = PimBlas::add(&mut ctx, x, y).unwrap();
        for i in 0..n {
            let want = (F16::from_f32(x[i]) + F16::from_f32(y[i])).to_f32();
            prop_assert_eq!(z[i], want, "element {}", i);
        }
    }

    /// AXPY matches the two-step-rounded reference.
    #[test]
    fn axpy_matches_reference(
        x in values(200),
        y in values(200),
        a in -8i32..8,
    ) {
        let a = a as f32 * 0.25;
        let mut ctx = PimContext::small_system();
        let (z, _) = PimBlas::axpy(&mut ctx, a, &x, &y).unwrap();
        for i in 0..x.len() {
            let want = F16::from_f32(x[i]).mac(F16::from_f32(a), F16::from_f32(y[i])).to_f32();
            prop_assert_eq!(z[i], want, "element {}", i);
        }
    }

    /// ReLU is exact for every input.
    #[test]
    fn relu_matches_reference(x in values(500)) {
        let mut ctx = PimContext::small_system();
        let (z, _) = PimBlas::relu(&mut ctx, &x).unwrap();
        for i in 0..x.len() {
            prop_assert_eq!(z[i], x[i].max(0.0), "element {}", i);
        }
    }

    /// GEMV stays within FP16 accumulation error of the f32 reference for
    /// random small shapes.
    #[test]
    fn gemv_matches_reference(
        n in 1usize..96,
        k in 1usize..96,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as i32 % 16) as f32 / 16.0
        };
        let w: Vec<f32> = (0..n * k).map(|_| next()).collect();
        let x: Vec<f32> = (0..k).map(|_| next()).collect();
        let mut ctx = PimContext::small_system();
        let (out, _) = PimBlas::gemv(&mut ctx, &w, n, k, &x).unwrap();
        let reference = PimBlas::reference_gemv(&w, n, k, &x);
        for o in 0..n {
            let tol = 0.01 * reference[o].abs().max(1.0) + 0.02;
            prop_assert!(
                (out[o] - reference[o]).abs() <= tol,
                "output {}: {} vs {}", o, out[o], reference[o]
            );
        }
    }

    /// AAM order-tolerance, fuzzed: any controller reordering within the
    /// fence windows leaves stream-kernel results bit-identical (Section
    /// IV-C, Fig. 5(d/e)).
    #[test]
    fn aam_tolerates_any_in_window_reordering(
        seed in any::<u64>(),
        n in 64usize..4096,
    ) {
        let x: Vec<f32> = (0..n).map(|i| (i % 89) as f32 * 0.5).collect();
        let y: Vec<f32> = (0..n).map(|i| (i % 71) as f32 * 0.25).collect();
        let mut in_order = PimContext::small_system();
        let (a, _) = PimBlas::add(&mut in_order, &x, &y).unwrap();
        let mut reordered = PimContext::small_system();
        reordered.set_mode(ExecutionMode::Fenced { reorder_seed: Some(seed) });
        let (b, _) = PimBlas::add(&mut reordered, &x, &y).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Kernel timing is monotone in problem size (more elements never take
    /// fewer cycles).
    #[test]
    fn add_cycles_monotone(n in 64usize..2000) {
        let mut ctx = PimContext::small_system();
        let x = vec![1.0f32; n];
        let (_, small) = PimBlas::add(&mut ctx, &x, &x).unwrap();
        let mut ctx2 = PimContext::small_system();
        let x2 = vec![1.0f32; n * 4];
        let (_, big) = PimBlas::add(&mut ctx2, &x2, &x2).unwrap();
        prop_assert!(big.cycles >= small.cycles);
    }
}

/// Cross-path differential: the three callers of the shared stream job —
/// `PimBlas::{add,mul}`, `resilient_add` and a single-request
/// `Server::run` — return identical result bits on a fault-free system,
/// at the block- and slot-boundary lengths and a few seeded ones. Over the
/// channel list `0..N` the shared placement is the `BlockMap::full`
/// formula block for block — the property that lets them share one layout.
#[test]
fn stream_callers_agree_bit_for_bit() {
    use pim_runtime::layout::Placement;
    use pim_runtime::{
        resilient_add, ResilienceConfig, ServeConfig, ServeOp, ServeRequest, Server,
    };

    let probe = PimContext::small_system();
    let (channels, units) = (probe.sys.channel_count(), probe.sys.pim_config().units_per_pch);
    let per_slot = channels * units * 16;
    let mut lengths = vec![1, 15, 16, 17, per_slot - 1, per_slot, per_slot + 1];
    let mut state = 0x5EEDu64;
    for _ in 0..3 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lengths.push(1 + (state >> 33) as usize % 6000);
    }

    let all: Vec<usize> = (0..channels).collect();
    let shared = Placement::over(&all, units);
    for b in 0..lengths.iter().max().unwrap().div_ceil(16) {
        let old = (b % channels, (b / channels) % units, b / (channels * units));
        assert_eq!(shared.locate(b), old, "block {b}");
    }

    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
    for &n in &lengths {
        let x: Vec<f32> = (0..n).map(|i| ((i * 7 + 3) % 41) as f32 * 0.25 - 5.0).collect();
        let y: Vec<f32> = (0..n).map(|i| ((i * 11 + 1) % 29) as f32 * 0.5 - 7.0).collect();
        for mul in [false, true] {
            let mut blas_ctx = PimContext::small_system();
            let (direct, op) = if mul {
                (PimBlas::mul(&mut blas_ctx, &x, &y), ServeOp::Mul { x: x.clone(), y: y.clone() })
            } else {
                (PimBlas::add(&mut blas_ctx, &x, &y), ServeOp::Add { x: x.clone(), y: y.clone() })
            };
            let (direct, _) = direct.unwrap();

            let mut ctx = PimContext::small_system();
            let req = ServeRequest {
                tenant: 0,
                arrival: 0,
                deadline: 50_000_000,
                groups: None,
                budget: None,
                op,
            };
            let report = Server::new(&mut ctx, ServeConfig::default()).run(vec![req]).unwrap();
            let served = report.outcomes[0].result.as_deref().expect("request completes");
            assert_eq!(report.stats.completed, 1, "n={n} mul={mul}");
            assert_eq!(bits(served), bits(&direct), "Server vs PimBlas, n={n} mul={mul}");

            if !mul {
                let cfg = ResilienceConfig::default();
                let (resilient, rep) =
                    resilient_add(&mut PimContext::small_system(), &x, &y, &cfg).unwrap();
                assert_eq!(rep.launches, 1, "n={n}");
                assert_eq!(bits(&resilient), bits(&direct), "resilient_add vs PimBlas, n={n}");
            }
        }
    }
}

/// Cross-path differential, the GEMV twin of
/// [`stream_callers_agree_bit_for_bit`]: the one-shot `PimBlas::gemv`, a
/// `GemvPlan`'s cold launch, the same plan's third and fourth launches
/// (replayed from the launch cache: first recording the data tape, then
/// playing it) and `gemv_row_parallel` on a one-stack cluster all return
/// the bits of an independent lane-exact model of the device, and the
/// one-shot call and the plan's cold launch report identical costs.
#[test]
fn gemv_callers_agree_bit_for_bit() {
    use pim_runtime::{ClusterContext, GemvPlan};

    // Input j MACs into partial-sum register j % 8 with the two-rounding
    // FP16 MAC, ascending j over the zero-padded k; the host then adds the
    // eight registers in f32, register order.
    fn oracle(w: &[f32], n: usize, k: usize, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(n);
        for o in 0..n {
            let mut acc = [F16::ZERO; 8];
            for j in 0..k.div_ceil(8) * 8 {
                let (wj, xj) = if j < k { (w[o * k + j], x[j]) } else { (0.0, 0.0) };
                let [r] = F16::mac_lanes(&[F16::from_f32(wj)], &[F16::from_f32(xj)], &[acc[j % 8]]);
                acc[j % 8] = r;
            }
            out.push(acc.iter().map(|r| r.to_f32()).sum::<f32>());
        }
        out
    }

    let probe = PimContext::small_system();
    let per_pass = probe.sys.channel_count() * probe.sys.pim_config().units_per_pch * 16;
    // Lane, group and unit boundaries; `plan_matches_blas_numerics`'s
    // 64 × 96; one two-pass shape; three seeded ones.
    let mut shapes =
        vec![(1, 1), (15, 7), (16, 8), (17, 9), (130, 260), (64, 96), (per_pass + 64, 16)];
    let mut state = 0x5EEDu64;
    let mut next = move |bound: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        1 + (state >> 33) as usize % bound
    };
    for _ in 0..3 {
        shapes.push((next(300), next(300)));
    }

    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
    for (n, k) in shapes {
        let w: Vec<f32> = (0..n * k).map(|i| ((i * 7 + n) % 41) as f32 / 32.0 - 0.625).collect();
        let x: Vec<f32> = (0..k).map(|i| ((i * 3 + k) % 17) as f32 / 16.0 - 0.5).collect();
        let other: Vec<f32> = x.iter().map(|v| 0.25 - v).collect();
        let want = bits(&oracle(&w, n, k, &x));
        let passes = n.div_ceil(per_pass) as u64;

        let (direct, direct_report) =
            PimBlas::gemv(&mut PimContext::small_system(), &w, n, k, &x).unwrap();
        assert_eq!(bits(&direct), want, "PimBlas::gemv vs oracle, {n}x{k}");

        let mut ctx = PimContext::small_system();
        let mut plan = GemvPlan::prepare(&mut ctx, &w, n, k).unwrap();
        let (cold, cold_report) = plan.launch(&mut ctx, &x).unwrap();
        assert_eq!(bits(&cold), want, "cold launch vs oracle, {n}x{k}");
        assert_eq!(cold_report, direct_report, "cold launch vs PimBlas::gemv report, {n}x{k}");
        assert_eq!(cold_report.elements, n);
        // The second launch starts from the recurring post-readback state
        // and is the one the cache records.
        let (second, _) = plan.launch(&mut ctx, &other).unwrap();
        assert_eq!(bits(&second), bits(&oracle(&w, n, k, &other)), "second launch, {n}x{k}");
        for replay in ["recording", "taped"] {
            let hits_before = ctx.sys.fastpath_stats().hits;
            let (warm, warm_report) = plan.launch(&mut ctx, &x).unwrap();
            assert_eq!(
                ctx.sys.fastpath_stats().hits - hits_before,
                passes,
                "{replay} replay must hit on every pass, {n}x{k}"
            );
            assert_eq!(bits(&warm), want, "{replay} replay vs oracle, {n}x{k}");
            assert_eq!(warm_report.commands, cold_report.commands, "{replay} replay, {n}x{k}");
            assert_eq!(warm_report.fences, cold_report.fences, "{replay} replay, {n}x{k}");
            assert_eq!(warm_report.pim_triggers, cold_report.pim_triggers, "{replay}, {n}x{k}");
        }

        let mut cluster = ClusterContext::new(1).unwrap();
        let (sharded, cluster_report) = cluster.gemv_row_parallel(&w, n, k, &x).unwrap();
        assert_eq!(bits(&sharded), want, "gemv_row_parallel vs oracle, {n}x{k}");
        assert_eq!(cluster_report.kernel, direct_report, "one-stack cluster report, {n}x{k}");
    }
}

/// Live-unit masks are invisible in what a call returns. Every GEMV pass
/// and every stream job declares the units it will read back and the rest
/// skip their datapath; a context under a quiet fault plan — which injects
/// nothing, but makes the engine drop every mask and simulate each unit in
/// full, fast path off — must return the same bits and the same
/// `KernelReport`, at the shapes where the live set changes form: one
/// lane, one unit, a partly populated last channel (n = 1000), exactly one
/// channel group, and a short second pass; one block, one block per unit
/// of the 64-channel system (8192 elements), and one more.
#[test]
fn masked_launches_return_what_full_simulation_returns() {
    use pim_faults::FaultPlan;
    use pim_runtime::GemvPlan;

    let unmasked = || {
        let mut ctx = PimContext::paper_system();
        ctx.inject_faults(&FaultPlan::quiet(0));
        ctx
    };
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();

    let k = 24;
    let x: Vec<f32> = (0..k).map(|i| ((i * 3 + 5) % 17) as f32 / 16.0 - 0.5).collect();
    for n in [1, 16, 100, 1000, 1024, 8192 + 16] {
        let w: Vec<f32> = (0..n * k).map(|i| ((i * 7 + n) % 41) as f32 / 32.0 - 0.625).collect();
        let (want, want_report) = PimBlas::gemv(&mut unmasked(), &w, n, k, &x).unwrap();
        let mut ctx = PimContext::paper_system();
        let mut plan = GemvPlan::prepare(&mut ctx, &w, n, k).unwrap();
        // Cold, recorded, replayed while taping, replayed from the tape.
        for launch in 0..4 {
            let (got, report) = plan.launch(&mut ctx, &x).unwrap();
            assert_eq!(bits(&got), bits(&want), "gemv n={n} launch {launch}");
            if launch == 0 {
                assert_eq!(report, want_report, "gemv n={n}");
            }
        }
        assert!(ctx.sys.fastpath_stats().hits >= 2, "gemv n={n}: {:?}", ctx.sys.fastpath_stats());
    }

    for len in [1, 16, 17, 128, 4096, 8192, 8193] {
        let a: Vec<f32> = (0..len).map(|i| ((i * 7 + 3) % 41) as f32 * 0.25 - 5.0).collect();
        let b: Vec<f32> = (0..len).map(|i| ((i * 11 + 1) % 29) as f32 * 0.5 - 7.0).collect();
        let (want, want_report) = PimBlas::add(&mut unmasked(), &a, &b).unwrap();
        let (got, report) = PimBlas::add(&mut PimContext::paper_system(), &a, &b).unwrap();
        assert_eq!(bits(&got), bits(&want), "add len={len}");
        assert_eq!(report, want_report, "add len={len}");
        let (want, want_report) = PimBlas::axpy(&mut unmasked(), 0.75, &a, &b).unwrap();
        let (got, report) = PimBlas::axpy(&mut PimContext::paper_system(), 0.75, &a, &b).unwrap();
        assert_eq!(bits(&got), bits(&want), "axpy len={len}");
        assert_eq!(report, want_report, "axpy len={len}");
    }
}
