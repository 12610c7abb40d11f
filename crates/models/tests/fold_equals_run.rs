//! `ChannelPredictor::fold` over a `Kernel` is `ChannelPredictor::run` over
//! the kernel materialised: same accounting, and a clock left in a state
//! that prices whatever comes next the same — which is what a multi-pass
//! `CostModel::pim_gemv` relies on. Generated over the space the cost model
//! is swept across, then one deterministic case per reason `fold` has to
//! step a loop to its end, and one holding that on the paper's big shapes it
//! does *not*: the gain of folding cannot silently decay into stepping.

use pim_core::{PimConfig, PimVariant};
use pim_dram::{Cycle, TimingParams};
use pim_host::{Batch, ChannelPredictor, ExecutionMode, HostConfig, Kernel};
use pim_runtime::kernels::{gemv_kernel, stream_kernel, stream_rows};
use pim_runtime::{gemv_microkernel, stream_microkernel, Executor, StreamOp};
use proptest::prelude::*;

const FENCED: ExecutionMode = ExecutionMode::Fenced { reorder_seed: None };
const OPS: [StreamOp; 5] =
    [StreamOp::Add, StreamOp::Mul, StreamOp::Relu, StreamOp::Bn, StreamOp::Axpy];

fn timings() -> [TimingParams; 5] {
    [
        TimingParams::hbm2(),
        TimingParams::hbm2_2gbps(),
        TimingParams::gddr6(),
        TimingParams::lpddr5(),
        TimingParams::ddr5(),
    ]
}

/// The full choreography of a GEMV pass over `k` inputs.
fn gemv(k: usize, pim: &PimConfig) -> Kernel {
    let program = gemv_microkernel((k as u32).div_ceil(8), pim);
    Executor::kernel(&program, None, true, gemv_kernel(k, 3, pim))
}

/// The full choreography of a stream op over `rows` rows.
fn stream(op: StreamOp, rows: u32, pim: &PimConfig) -> Kernel {
    Executor::kernel(
        &stream_microkernel(op, rows, pim),
        None,
        false,
        stream_kernel(op, rows, 3, pim),
    )
}

/// The single-bank GRF read-back of every unit: what separates two passes.
fn readback(pim: &PimConfig) -> Vec<Batch> {
    let cmds = (0..pim.units_per_pch).flat_map(|u| Executor::grf_readback_commands(u, 8));
    vec![Batch::setup(cmds.collect())]
}

fn commands(batches: &[Batch]) -> u64 {
    batches.iter().map(|b| b.commands.len() as u64).sum()
}

/// Folds `kernel` on one clock and runs its materialisation on another from
/// the same entry state — power-on, or after a read-back if `warm` — under
/// `limit(unbounded end cycle)`, asserts the two agree now and on one more
/// launch, and returns how many commands `fold` stepped.
fn check(
    kernel: &Kernel,
    pim: &PimConfig,
    host: &HostConfig,
    t: &TimingParams,
    mode: ExecutionMode,
    warm: bool,
    limit: impl Fn(Cycle) -> Option<Cycle>,
) -> u64 {
    let list = kernel.clone().materialise();
    let mut entry = ChannelPredictor::power_on(t);
    if warm {
        entry.run(host, &readback(pim), mode, None);
    }
    let unbounded = entry.clone().run(host, &list, mode, None);
    let limit = limit(unbounded.result.end_cycle);

    let (mut folded, mut ran) = (entry.clone(), entry);
    let f = folded.fold(host, kernel, mode, limit);
    assert_eq!(f.ran, ran.run(host, &list, mode, limit), "{mode:?}, limit {limit:?}");
    assert_eq!(f.ran.result.end_cycle, folded.now());
    assert!(f.stepped <= f.ran.result.commands);
    if limit.is_none() {
        assert_eq!(f.ran, unbounded);
    }
    // The states left behind are behaviourally equal: a read-back and a
    // second pass cost the same from either.
    for next in [readback(pim), list] {
        assert_eq!(folded.run(host, &next, mode, None), ran.run(host, &next, mode, None));
    }
    f.stepped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fold_is_run_over_the_materialised_kernel(
        (variant, units, timing, fence) in (0usize..4, 0usize..4, 0usize..5, 0usize..3),
        (regime, seed) in (0usize..4, any::<u64>()),
        (is_gemv, k, rows, op) in (any::<bool>(), 1usize..9217, 1u32..1101, 0usize..5),
        (warm, cut) in (any::<bool>(), 0u64..8),
    ) {
        let pim = PimConfig {
            units_per_pch: [1, 2, 4, 8][units],
            ..PimConfig::with_variant(PimVariant::ALL[variant])
        };
        let host =
            HostConfig { fence_sync_overhead_cycles: [0, 24, 192][fence], ..HostConfig::paper() };
        let mode = [
            FENCED,
            ExecutionMode::Fenced { reorder_seed: Some(seed) },
            ExecutionMode::Ordered,
            ExecutionMode::UnfencedReordered { seed },
        ][regime];
        let kernel = if is_gemv { gemv(k, &pim) } else { stream(OPS[op], rows, &pim) };
        // Half the cases unbounded, the rest cancelled somewhere mid-kernel.
        let limit = |end: Cycle| (cut >= 4).then(|| end * (cut - 3) / 5);
        check(&kernel, &pim, &host, &timings()[timing], mode, warm, limit);
    }
}

/// Each reason `fold` has for stepping a loop to its end, and the answer is
/// still `run`'s: a loop too short to show two equal boundaries, a seeded
/// shuffle (a different permutation every trip), a cycle limit.
#[test]
fn the_three_fallbacks_step_every_command() {
    let (pim, host, t) = (PimConfig::paper(), HostConfig::paper(), TimingParams::hbm2());
    let seeded = ExecutionMode::Fenced { reorder_seed: Some(0xC0FFEE) };
    let all = |k: &Kernel| commands(&k.clone().materialise());

    let two_trips = stream(StreamOp::Add, 2, &pim);
    assert_eq!(check(&two_trips, &pim, &host, &t, FENCED, false, |_| None), all(&two_trips));
    let long = stream(StreamOp::Add, 64, &pim);
    assert_eq!(check(&long, &pim, &host, &t, seeded, false, |_| None), all(&long));
    assert_eq!(check(&long, &pim, &host, &t, FENCED, false, Some), all(&long));
    // ... and the same loop, unseeded and unbounded, is mostly not stepped.
    assert!(check(&long, &pim, &host, &t, FENCED, false, |_| None) < all(&long) / 8);
}

/// On Table VI GEMV4 and the 64 M-element ADD the extrapolation engages by
/// the third row: `fold` steps the prologue, at most three periods and the
/// epilogue, under both in-order regimes, cold and after a read-back.
#[test]
fn the_big_shapes_are_folded_not_stepped() {
    let (pim, host, t) = (PimConfig::paper(), HostConfig::paper(), TimingParams::hbm2());
    let add64m = stream(StreamOp::Add, stream_rows(64 << 20, 64, pim.units_per_pch), &pim);
    for kernel in [gemv(8192, &pim), add64m] {
        let [rows] = &kernel.body[..] else { panic!("one loop over rows") };
        assert!(rows.trips() >= 256);
        let budget =
            commands(&kernel.prologue) + 3 * commands(rows.period()) + commands(&kernel.epilogue);
        for mode in [FENCED, ExecutionMode::Ordered] {
            for warm in [false, true] {
                let stepped = check(&kernel, &pim, &host, &t, mode, warm, |_| None);
                assert!(stepped <= budget, "{mode:?}: stepped {stepped} of a budget of {budget}");
            }
        }
    }
}
