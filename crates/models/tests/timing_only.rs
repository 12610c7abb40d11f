//! The cost model asks a simulated channel "how long?" and never "what?",
//! so it runs every shape with no unit live (`UnitMask::NONE`). That must
//! be invisible in everything it reports: for every kernel shape of Fig. 10
//! and every device variant and ordering regime, the cost equals a **full**
//! simulation assembled here from the same public pieces, and a masked and
//! an unmasked channel end with identical statistics — through the
//! single-bank GRF read-back that follows an all-dead launch, too.

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
            let mut cost = CostModel::new(HostConfig::paper(), pim.clone(), TimingParams::hbm2());
            cost.mode = mode;
            for (n, k) in gemvs {
                let g = GemvGeometry::new(n, k, cost.channels(), pim.units_per_pch);
                let data = gemv_batches(g.kpad, 0, &[], &pim);
                let list =
                    Executor::full_kernel(&gemv_microkernel(g.groups(), &pim), None, true, &data);
                let got = cost.pim_gemv(n, k);
                check(&cost, got, &list, g.passes, true);
            }
            for &(op, elements) in &streams {
                let slots = elements.div_ceil(16).div_ceil(cost.channels() * pim.units_per_pch);
                let rows = (slots.max(1) as u32).div_ceil(8);
                let data = stream_batches(op, rows, 0, &pim);
                let list =
                    Executor::full_kernel(&stream_microkernel(op, rows, &pim), None, false, &data);
                let got = cost.pim_stream(op, elements);
                check(&cost, got, &list, 1, false);
            }
        }
    }
}
