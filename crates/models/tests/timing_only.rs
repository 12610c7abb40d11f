//! The cost model asks "how long?" and never "what?": it builds each
//! shape's real command lists and folds them over the closed-form
//! `pim_host::ChannelPredictor`, constructing no device. That must be
//! invisible in everything it reports. For every kernel shape of Fig. 10 at
//! the paper configuration, and for a grid over the space a design sweep
//! moves in (DRAM generation × unit count × fence cost × ordering regime ×
//! device variant), the cost equals a **full** simulation assembled here
//! from the same public pieces on a real controller and `PimChannel`. The
//! Fig. 10 numbers themselves are pinned.
//!
//! A channel simulated with no unit live (`UnitMask::NONE`, the all-dead
//! class of a `GemvPlan` launch) must end with the same statistics as the
//! full one — through the single-bank GRF read-back that follows an
//! all-dead launch, too — and is checked alongside.

use pim_core::{PimChannel, PimChannelStats, PimConfig, PimVariant, UnitMask};
use pim_dram::{
    AddressMapping, ChannelStats, Command, ControllerConfig, Cycle, MemoryController, PagePolicy,
    SchedulingPolicy, TimingParams,
};
use pim_host::{Batch, ExecutionMode, HostConfig, KernelEngine};
use pim_models::CostModel;
use pim_runtime::kernels::{gemv_batches, stream_batches};
use pim_runtime::{gemv_microkernel, stream_microkernel, Executor, GemvGeometry, StreamOp};

/// Everything a run leaves behind that anyone could measure it by.
#[derive(Debug, PartialEq)]
struct Measured {
    cycles: Cycle,
    commands: u64,
    fences: u64,
    dram: ChannelStats,
    device: PimChannelStats,
    /// Per unit: instructions, flops, bank reads, bank writes, WDATA on RD.
    units: Vec<[u64; 5]>,
}

/// `passes` launches of `list` on one fresh channel of `cost`'s system
/// with `live` units computing, each followed — for a GEMV — by the
/// partial-sum read-back of every unit's GRF_B.
fn simulate(
    cost: &CostModel,
    list: &[Batch],
    passes: usize,
    readback: bool,
    live: UnitMask,
) -> Measured {
    let mut channel = PimChannel::new(cost.timing().clone(), cost.pim().clone());
    channel.set_live_units(live);
    let cfg = ControllerConfig {
        timing: cost.timing().clone(),
        mapping: AddressMapping::new(16),
        pch_id: 0,
        policy: SchedulingPolicy::FrFcfs,
        page_policy: PagePolicy::Open,
        refresh_enabled: false,
    };
    let mut ctrl = MemoryController::with_sink(cfg, channel);
    let (mut commands, mut fences) = (0, 0);
    for _ in 0..passes {
        let r = KernelEngine::run_on_channel(cost.host(), &mut ctrl, list, cost.mode);
        commands += r.commands;
        fences += r.fences;
        if readback {
            let cmds: Vec<Command> = (0..cost.pim().units_per_pch)
                .flat_map(|u| Executor::grf_readback_commands(u, 8))
                .collect();
            ctrl.issue_raw(&cmds);
        }
    }
    let channel = ctrl.sink();
    Measured {
        cycles: ctrl.now(),
        commands,
        fences,
        dram: channel.dram().stats().clone(),
        device: *channel.stats(),
        units: (0..channel.unit_count())
            .map(|u| {
                let s = channel.unit(u).stats();
                [s.instructions, s.flops, s.bank_reads, s.bank_writes, s.wdata_on_read]
            })
            .collect(),
    }
}

/// Checks one shape: the cost model's answer, a full simulation and a
/// timing-only simulation of the same list agree.
fn check(cost: &CostModel, got: pim_models::KernelCost, list: &[Batch], passes: usize, gemv: bool) {
    let what = format!("{} {:?}, {} commands", cost.pim().variant, cost.mode, got.commands);
    let full = simulate(cost, list, passes, gemv, UnitMask::ALL);
    assert_eq!(simulate(cost, list, passes, gemv, UnitMask::NONE), full, "{what}");
    assert_eq!((got.cycles, got.commands, got.fences), (full.cycles, full.commands, full.fences));
    assert_eq!(got.seconds, cost.timing().cycles_to_seconds(full.cycles), "{what}");
    assert!(full.units.iter().all(|u| u[0] > 0), "{what}: a unit never ran");
}

/// Prices an `n × k` GEMV and checks it against the list the cost model
/// must have built for it.
fn check_gemv(cost: &mut CostModel, n: usize, k: usize) {
    let pim = cost.pim().clone();
    let g = GemvGeometry::new(n, k, cost.channels(), pim.units_per_pch);
    let data = gemv_batches(g.kpad, 0, &[], &pim);
    let list = Executor::full_kernel(&gemv_microkernel(g.groups(), &pim), None, true, &data);
    let got = cost.pim_gemv(n, k);
    check(cost, got, &list, g.passes, true);
}

/// As [`check_gemv`], for a streaming op over `elements`.
fn check_stream(cost: &mut CostModel, op: StreamOp, elements: usize) {
    let pim = cost.pim().clone();
    let slots = elements.div_ceil(16).div_ceil(cost.channels() * pim.units_per_pch);
    let rows = (slots.max(1) as u32).div_ceil(8);
    let data = stream_batches(op, rows, 0, &pim);
    let list = Executor::full_kernel(&stream_microkernel(op, rows, &pim), None, false, &data);
    let got = cost.pim_stream(op, elements);
    check(cost, got, &list, 1, false);
}

#[test]
fn timing_only_costs_equal_full_simulation() {
    // Table VI, plus a GEMV of two passes (a launch after a read-back).
    let gemvs = [(1024, 4096), (2048, 4096), (4096, 8192), (8192, 8192), (16384, 512)];
    // ADD1-4 at batch 1, 2 and 4 are six distinct sizes; one each of the rest.
    let adds = (0..6).map(|i| (StreamOp::Add, (2usize << 20) << i));
    let others =
        [StreamOp::Mul, StreamOp::Relu, StreamOp::Bn, StreamOp::Axpy].map(|op| (op, 1 << 20));
    let streams: Vec<(StreamOp, usize)> = adds.chain(others).collect();

    for variant in PimVariant::ALL {
        for mode in [ExecutionMode::Fenced { reorder_seed: None }, ExecutionMode::Ordered] {
            let pim = PimConfig::with_variant(variant);
            let mut cost = CostModel::new(HostConfig::paper(), pim, TimingParams::hbm2());
            cost.mode = mode;
            for (n, k) in gemvs {
                check_gemv(&mut cost, n, k);
            }
            for &(op, elements) in &streams {
                check_stream(&mut cost, op, elements);
            }
        }
    }
}

/// The space ROADMAP item 8's sweep moves in, on shapes chosen for their
/// edges rather than their size: a GEMV that divides into nothing evenly, a
/// single element, one of two passes at every unit count (16384 × 512 at
/// the paper's eight: a launch entered from a read-back's state), and a
/// stream shorter than one DRAM row.
#[test]
fn costs_equal_full_simulation_across_the_sweep_space() {
    let timings = [
        TimingParams::hbm2(),
        TimingParams::hbm2_2gbps(),
        TimingParams::gddr6(),
        TimingParams::lpddr5(),
        TimingParams::ddr5(),
    ];
    let fenced = ExecutionMode::Fenced { reorder_seed: None };
    let seeded = ExecutionMode::Fenced { reorder_seed: Some(0xC0FFEE) };
    for timing in &timings {
        for units_per_pch in [1, 2, 4, 8] {
            for fence_sync_overhead_cycles in [0, 24, 192] {
                // No fence, no fence cost: once per configuration is enough.
                let ordered = (fence_sync_overhead_cycles == 24).then_some(ExecutionMode::Ordered);
                for variant in PimVariant::ALL {
                    let host = HostConfig { fence_sync_overhead_cycles, ..HostConfig::paper() };
                    let pim = PimConfig { units_per_pch, ..PimConfig::with_variant(variant) };
                    let mut cost = CostModel::new(host, pim, timing.clone());
                    for mode in [fenced, seeded].into_iter().chain(ordered) {
                        cost.mode = mode;
                        check_gemv(&mut cost, 1000, 777);
                        check_gemv(&mut cost, 1, 1);
                        check_gemv(&mut cost, 2048 * units_per_pch, 512);
                        check_stream(&mut cost, StreamOp::Add, 100);
                    }
                }
            }
        }
    }
}

/// The 21 distinct PIM shapes one Fig. 10 + Fig. 12 evaluation prices —
/// GEMV1-4 and ADD1-4 at batch 1, 2 and 4 plus what the five models
/// offload — as `(cycles, commands, fences)` at the paper configuration.
/// Generated from the cost model as it stood when it still ran every shape
/// on a simulated channel; the cycles sum to `pimbench`'s `paper_fig10`
/// `sim_cycles_per_op`. A change to `TimingParams`, the kernel builders or
/// the engine's issue order moves it and must re-pin on purpose.
#[test]
fn fig10_shape_costs_are_pinned() {
    /// `(cycles, commands, fences)`.
    type Pinned = (Cycle, u64, u64);
    const GEMV: [(usize, usize, Pinned); 11] = [
        (1024, 4096, (44574, 4887, 512)),
        (2048, 4096, (44574, 4887, 512)),
        (4096, 240, (3380, 309, 30)),
        (4096, 1024, (11742, 1239, 128)),
        (4096, 4096, (44574, 4887, 512)),
        (4096, 8192, (88350, 9751, 1024)),
        (4096, 9216, (99294, 10967, 1152)),
        (7040, 1312, (14820, 1581, 164)),
        (7040, 1760, (19608, 2113, 220)),
        (7040, 3520, (38418, 4203, 440)),
        (8192, 8192, (88350, 9751, 1024)),
    ];
    const STREAM: [(StreamOp, usize, Pinned); 10] = [
        (StreamOp::Add, 1605632, (6614, 663, 75)),
        (StreamOp::Add, 2 << 20, (8385, 845, 96)),
        (StreamOp::Add, 3211264, (12686, 1287, 147)),
        (StreamOp::Add, 4 << 20, (16481, 1677, 192)),
        (StreamOp::Add, 8 << 20, (32673, 3341, 384)),
        (StreamOp::Add, 16 << 20, (65057, 6669, 768)),
        (StreamOp::Add, 32 << 20, (129825, 13325, 1536)),
        (StreamOp::Add, 64 << 20, (259361, 26637, 3072)),
        (StreamOp::Relu, 3211264, (9109, 895, 98)),
        (StreamOp::Bn, 3211264, (9109, 895, 98)),
    ];
    let mut cost = CostModel::paper();
    let mut total = 0;
    for (n, k, pinned) in GEMV {
        let c = cost.pim_gemv(n, k);
        assert_eq!((c.cycles, c.commands, c.fences), pinned, "GEMV {n} x {k}");
        total += c.cycles;
    }
    for (op, elements, pinned) in STREAM {
        let c = cost.pim_stream(op, elements);
        assert_eq!((c.cycles, c.commands, c.fences), pinned, "{op:?} over {elements}");
        total += c.cycles;
    }
    assert_eq!(total, 1_046_984, "paper_fig10 sim_cycles_per_op");
}
