//! Criterion benchmarks of the simulator substrate itself: how fast the
//! reproduction executes DRAM commands, PIM triggers and FP16 arithmetic.
//! These guard the simulator's own performance (a slow simulator makes the
//! larger reproductions impractical).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pim_core::isa::{Instruction, Operand};
use pim_core::{LaneVec, PimChannel, PimConfig, PimUnit, Trigger, TriggerKind, UnitMask};
use pim_dram::{
    BankAddr, Command, CommandSink, ControllerConfig, MemoryController, Request, SchedulingPolicy,
    TimingParams,
};
use pim_fp16::F16;
use pim_host::{ExecutionMode, HostConfig, KernelEngine};
use pim_models::CostModel;
use pim_runtime::{gemv_microkernel, Executor, GemvGeometry, PimBlas, PimContext, StreamOp};

fn bench_fp16(c: &mut Criterion) {
    let mut g = c.benchmark_group("fp16");
    let a = F16::from_f32(1.2345);
    let b = F16::from_f32(-0.5678);
    let acc = F16::from_f32(10.0);
    g.throughput(Throughput::Elements(1));
    g.bench_function("mac", |bench| bench.iter(|| std::hint::black_box(a).mac(b, acc)));
    g.bench_function("from_f32", |bench| {
        bench.iter(|| F16::from_f32(std::hint::black_box(3.140_62_f32)))
    });
    g.bench_function("lane_vec_mac", |bench| {
        let x = LaneVec::splat(a);
        let y = LaneVec::splat(b);
        let z = LaneVec::splat(acc);
        bench.iter(|| std::hint::black_box(x).mac(y, z))
    });
    g.bench_function("lane_vec_add", |bench| {
        let (x, y) = (LaneVec::splat(a), LaneVec::splat(acc));
        bench.iter(|| std::hint::black_box(x).add(y))
    });
    g.bench_function("lane_vec_mul", |bench| {
        let (x, y) = (LaneVec::splat(a), LaneVec::splat(b));
        bench.iter(|| std::hint::black_box(x).mul(y))
    });
    // One column command's MACs as the device runs them — eight units of
    // 16 lanes — against the same 128 lanes as one structure-of-arrays
    // call. Kept as a recorded negative result: the 16-lane SSE2 loop is
    // already arithmetic-bound, the wide call reads no faster (see ROADMAP
    // item 1 for the figures), so a 128-lane GRF would buy nothing.
    let lanes: [F16; 128] = std::array::from_fn(|i| F16::from_f32(i as f32 * 0.03125 - 2.0));
    let units: [[F16; 16]; 8] = std::array::from_fn(|u| std::array::from_fn(|l| lanes[16 * u + l]));
    g.bench_function("mac_lanes_16x8", |bench| {
        bench.iter(|| {
            let x = std::hint::black_box(&units);
            std::array::from_fn::<_, 8, _>(|u| F16::mac_lanes(&x[u], &units[u], &x[u]))
        })
    });
    g.bench_function("mac_lanes_128", |bench| {
        bench.iter(|| {
            let x = std::hint::black_box(&lanes);
            F16::mac_lanes(x, &lanes, x)
        })
    });
    // The pure bit-level implementation, for comparison with the f32 path.
    g.bench_function("softfloat_mul_bits", |bench| {
        let (x, y) = (a.to_bits(), b.to_bits());
        bench.iter(|| pim_fp16::softfloat::mul_bits(std::hint::black_box(x), y))
    });
    g.bench_function("softfloat_add_bits", |bench| {
        let (x, y) = (a.to_bits(), acc.to_bits());
        bench.iter(|| pim_fp16::softfloat::add_bits(std::hint::black_box(x), y))
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.throughput(Throughput::Elements(1));
    g.bench_function("channel_column_issue", |bench| {
        bench.iter_batched(
            || {
                let mut ch = pim_dram::PseudoChannel::new(TimingParams::hbm2());
                let bank = BankAddr::new(0, 0);
                ch.issue(&Command::Act { bank, row: 0 }, 0).unwrap();
                (ch, 100u64)
            },
            |(mut ch, mut now)| {
                let cmd = Command::Rd { bank: BankAddr::new(0, 0), col: 0 };
                for _ in 0..64 {
                    let at = ch.earliest_issue(&cmd, now);
                    ch.issue(&cmd, at).unwrap();
                    now = at;
                }
                now
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("controller_frfcfs_mixed", |bench| {
        bench.iter_batched(
            || {
                let mut ctrl = MemoryController::new(ControllerConfig {
                    policy: SchedulingPolicy::FrFcfs,
                    refresh_enabled: false,
                    ..Default::default()
                });
                for i in 0..64u64 {
                    ctrl.enqueue(Request::read((i % 8) * 4096 + (i / 8) * 32));
                }
                ctrl
            },
            |mut ctrl| ctrl.run_to_completion().len(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_pim(c: &mut Criterion) {
    let mut g = c.benchmark_group("pim");
    g.throughput(Throughput::Elements(16));
    g.bench_function("unit_mac_trigger", |bench| {
        let mut unit = PimUnit::new();
        unit.crf_mut().load_program(&[
            Instruction::Mac {
                dst: Operand::grf_b(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(0),
                aam: true,
            },
            Instruction::Jump { target: 0, count: 100_000 },
            Instruction::Exit,
        ]);
        unit.reset_sequencer();
        unit.srf_m_mut().write(0, F16::from_f32(0.5));
        let trig = Trigger {
            kind: TriggerKind::Read,
            row: 0,
            col: 3,
            even_data: LaneVec::splat(F16::from_f32(2.0)),
            odd_data: LaneVec::zero(),
        };
        bench.iter(|| unit.execute(std::hint::black_box(&trig)))
    });
    g.bench_function("channel_abpim_trigger_8units", |bench| {
        bench.iter_batched(
            || {
                let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
                let bank = BankAddr::new(0, 0);
                let mut now = 0;
                for cmd in pim_core::conf::enter_ab_sequence() {
                    let at = ch.earliest_issue(&cmd, now);
                    ch.issue(&cmd, at).unwrap();
                    now = at;
                }
                // Program an endless MAC loop and enter AB-PIM mode.
                let prog = [
                    Instruction::Mac {
                        dst: Operand::grf_b(0),
                        src0: Operand::even_bank(),
                        src1: Operand::srf_m(0),
                        aam: true,
                    },
                    Instruction::Jump { target: 0, count: 100_000 },
                ];
                let block = pim_core::conf::crf_blocks(&prog)[0];
                for cmd in [
                    Command::Act { bank, row: pim_core::conf::CRF_ROW },
                    Command::Wr { bank, col: 0, data: block },
                    Command::Pre { bank },
                ] {
                    let at = ch.earliest_issue(&cmd, now);
                    ch.issue(&cmd, at).unwrap();
                    now = at;
                }
                for cmd in pim_core::conf::set_pim_op_mode_sequence(true) {
                    let at = ch.earliest_issue(&cmd, now);
                    ch.issue(&cmd, at).unwrap();
                    now = at;
                }
                let at = ch.earliest_issue(&Command::Act { bank, row: 0 }, now);
                ch.issue(&Command::Act { bank, row: 0 }, at).unwrap();
                (ch, at)
            },
            |(mut ch, mut now)| {
                let bank = BankAddr::new(0, 0);
                for col in 0..32u32 {
                    let cmd = Command::Rd { bank, col };
                    let at = ch.earliest_issue(&cmd, now);
                    ch.issue(&cmd, at).unwrap();
                    now = at;
                }
                now
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A cold Table VI GEMV1 — one `PimBlas::gemv` on a fresh paper system —
/// with the launch-memoization fast path on (one channel per entry class
/// is simulated, the other 63 are served from its recording) and off
/// (every channel simulated). The off side is what `fastpath_check` and
/// the exactness tests compare against; the pair is the cost of that
/// reference over the default.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let wl = pim_bench::workloads::gemv_workloads()[0];
    let w = pim_bench::workloads::bench_weights(wl.n, wl.k);
    let x = pim_bench::workloads::bench_input(wl.k, 1);
    g.sample_size(10);
    g.throughput(Throughput::Elements(1));
    for (id, fastpath) in [("gemv1_cold/fastpath_on", true), ("gemv1_cold/fastpath_off", false)] {
        g.bench_function(id, |bench| {
            bench.iter_batched(
                || {
                    let mut ctx = PimContext::paper_system();
                    ctx.sys.set_fastpath_enabled(fastpath);
                    ctx
                },
                |mut ctx| PimBlas::gemv(&mut ctx, &w, wl.n, wl.k, &x).expect("GEMV1"),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// What a design sweep pays per point: one shape priced by a fresh
/// `pim_models::CostModel` — stating the kernel's loop nest with the
/// runtime's builders and folding it over the closed-form
/// `pim_host::ChannelPredictor`, which steps the prologue, the first two or
/// three rows and the epilogue and multiplies the rest out. No device and no
/// command list is constructed, so the price barely grows with the shape:
/// Table VI GEMV1 and GEMV4 (4× the commands) and a 64 M-element ADD (1024
/// rows).
fn bench_cost_shape(c: &mut Criterion) {
    let gemvs = pim_bench::workloads::gemv_workloads();
    let mut g = c.benchmark_group("models");
    g.throughput(Throughput::Elements(1));
    for (id, wl) in [("cost_shape_gemv1", gemvs[0]), ("cost_shape_gemv4", gemvs[3])] {
        g.bench_function(id, |bench| bench.iter(|| CostModel::paper().pim_gemv(wl.n, wl.k)));
    }
    g.bench_function("cost_shape_add64m", |bench| {
        bench.iter(|| CostModel::paper().pim_stream(StreamOp::Add, 64 << 20))
    });
    g.finish();
}

/// A trigger on a channel with no unit live — the all-dead class
/// representative of a `GemvPlan` or `StreamJob` launch, most of a
/// `cluster_chaos` request (128 elements leave 7 of 8 units dead): GEMV1's
/// command list (it depends on `k` alone) on a 1-unit and an 8-unit
/// channel. The difference over seven units and the list's triggers is a
/// dead unit's cost per trigger (ROADMAP item 1(a3) has the figures).
fn bench_dead_units(c: &mut Criterion) {
    let host = HostConfig::paper();
    let wl = pim_bench::workloads::gemv_workloads()[0];
    let mut g = c.benchmark_group("device");
    for units in [1, 8] {
        let pim = PimConfig { units_per_pch: units, ..PimConfig::paper() };
        let geometry = GemvGeometry::new(wl.n, wl.k, 64, units);
        let data = pim_runtime::kernels::gemv_batches(geometry.kpad, 0, &[], &pim);
        let program = gemv_microkernel(geometry.groups(), &pim);
        let list = Executor::full_kernel(&program, None, true, &data);
        g.throughput(Throughput::Elements(list.iter().map(|b| b.commands.len() as u64).sum()));
        g.bench_function(&format!("dead_units/{units}"), |bench| {
            bench.iter_batched(
                || {
                    let mut ch = PimChannel::new(TimingParams::hbm2(), pim.clone());
                    ch.set_live_units(UnitMask::NONE);
                    let cfg = ControllerConfig { refresh_enabled: false, ..Default::default() };
                    MemoryController::with_sink(cfg, ch)
                },
                |mut ctrl| {
                    let mode = ExecutionMode::Fenced { reorder_seed: None };
                    KernelEngine::run_on_channel(&host, &mut ctrl, &list, mode)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fp16,
    bench_dram,
    bench_pim,
    bench_engine,
    bench_cost_shape,
    bench_dead_units
);
criterion_main!(benches);
