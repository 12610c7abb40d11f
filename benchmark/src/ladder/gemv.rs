//! Ladders of `gemv_cold` and `gemv_warm`.
//!
//! Cold, top down: `PimBlas::gemv` → the equivalent batch lists through
//! `KernelEngine::run_system` with the fast path recording → the same with
//! the fast path off → the 64 channels one by one through `run_on_channel`.
//! Warm: `GemvPlan::launch` → the DataTape replay of the live channels →
//! the bare `mac_lanes` dataflow.

use super::{Run, Traced};
use crate::gen::synthetic_batches;
use crate::workloads::gemv::{GemvCold, GemvInputs, GemvWarm, WARM_OPS_PER_REP};
use crate::workloads::{count_wrong, Scale, Workload};
use pim_core::schedule::{StaticSchedule, DEFAULT_SCHEDULE_BUDGET};
use pim_core::{PimChannel, PimConfig};
use pim_dram::{Command, ControllerConfig, MemoryController, TimingParams};
use pim_fp16::{f16_slice_to_f32, f32_slice_to_f16};
use pim_host::{
    predict_launch, Batch, ExecutionBackend, ExecutionMode, KernelEngine, KernelResult,
};
use pim_obs::Recorder;
use pim_runtime::kernels::gemv_batches;
use pim_runtime::{gemv_microkernel, Executor, GemvPlan, PimBlas, PimContext};
use std::hint::black_box;

const FENCED: ExecutionMode = ExecutionMode::Fenced { reorder_seed: None };

/// A paper system with the GEMV weights in place and the per-channel batch
/// lists `PimBlas::gemv` would run for `x` — the launch, minus the runtime.
struct Placed {
    ctx: PimContext,
    per_channel: Vec<Vec<Batch>>,
}

fn place(g: &GemvInputs, x: &[f32]) -> Result<Placed, String> {
    let mut ctx = PimContext::paper_system();
    let cfg = ctx.sys.pim_config().clone();
    let kpad = g.k.div_ceil(8) * 8;
    if g.n > ctx.sys.channel_count() * cfg.units_per_pch * 16 {
        return Err("the GEMV ladder handles single-pass shapes only".into());
    }
    // `prepare` places the weights exactly as `PimBlas::gemv` does, in the
    // first rows a fresh context hands out.
    let base_row = PimContext::paper_system()
        .mm
        .alloc_rows_lockstep(kpad.div_ceil(32) as u32)
        .map_err(|e| e.to_string())?;
    GemvPlan::prepare(&mut ctx, &g.w, g.n, g.k).map_err(|e| e.to_string())?;
    let program = gemv_microkernel((kpad / 8) as u32, &cfg);
    let full = Executor::full_kernel(&program, None, true, &gemv_batches(kpad, base_row, x, &cfg));
    let per_channel = vec![full; ctx.sys.channel_count()];
    Ok(Placed { ctx, per_channel })
}

impl Placed {
    fn run_system(&mut self, mode: ExecutionMode) -> KernelResult {
        KernelEngine::run_system(&mut self.ctx.sys, &self.per_channel, mode)
    }

    /// Reads the partial sums back and reduces them as `PimBlas::gemv` does.
    fn readback(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let units = self.ctx.sys.pim_config().units_per_pch;
        let mut out = Vec::with_capacity(n);
        for block in 0..n.div_ceil(16) {
            let grf = Executor::try_read_grf_b(&mut self.ctx, block / units, block % units)
                .map_err(|e| e.to_string())?;
            out.extend((0..16).map(|l| grf.iter().map(|v| v.lanes()[l].to_f32()).sum::<f32>()));
        }
        out.truncate(n);
        Ok(out)
    }
}

/// Unit costs of a single-bank command stream on one channel: through a bare
/// `MemoryController` and through the PIM device wrapper in SB mode.
fn single_bank_stream(run: &mut Run, seed: u64, scale: Scale) {
    let stream: Vec<Command> = synthetic_batches(1, scale.pick(16_000, 400), seed)
        .remove(0)
        .into_iter()
        .flat_map(|b| b.commands)
        .collect();
    let cfg = ControllerConfig { refresh_enabled: false, ..ControllerConfig::default() };
    let mut bare = MemoryController::new(cfg.clone());
    run.t.time("dram.ctrl.issue_raw.channel0", None, || black_box(bare.issue_raw(&stream)));
    let device = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    let mut wrapped = MemoryController::with_sink(cfg, device);
    run.t.time("core.channel.issue_raw.channel0", None, || black_box(wrapped.issue_raw(&stream)));
    let per_cmd = 1e9 / stream.len() as f64;
    run.set("dram.ctrl.raw_ns_per_cmd", run.s("dram.ctrl.issue_raw.channel0") * per_cmd);
    run.set("core.channel.sb_ns_per_cmd", run.s("core.channel.issue_raw.channel0") * per_cmd);
}

/// What a cold launch of the GEMV microkernel proves (the static schedule
/// the fast path derives before it records) and what strict mode would
/// verify, with their metrics.
fn proof_rungs(run: &mut Run, k: usize) {
    let cfg = PimConfig::paper();
    let program = gemv_microkernel(k.div_ceil(8) as u32, &cfg);
    run.t.time("core.schedule.derive", None, || {
        black_box(StaticSchedule::of_program(&program, DEFAULT_SCHEDULE_BUDGET).is_ok())
    });
    run.t.time("verify.analyze", None, || black_box(pim_verify::analyze_program(&cfg, &program)));
}

pub fn cold(mut run: Run, seed: u64, scale: Scale) -> Result<Traced, String> {
    const ROOT: &str = "runtime.blas.gemv";
    let mut workload = GemvCold::setup(seed, scale)?;
    let (mut cmds, mut triggers, mut failed, mut events) = (0.0, 0.0, 0u64, 0.0);
    let mut cycle_err = 0.0;
    while run.again() {
        let i = run.iteration();
        run.untraced(workload.rep(i));
        let g = workload.inputs();
        let x = g.x(1 + i as u64);
        let want = g.oracle(&x);

        let mut ctx = PimContext::paper_system();
        let out = run.t.time(ROOT, None, || PimBlas::gemv(&mut ctx, &g.w, g.n, g.k, &x));
        let (y, report) = out.map_err(|e| e.to_string())?;
        failed += u64::from(count_wrong(&y, &want) > 0);
        (cmds, triggers) = (report.commands as f64, report.pim_triggers as f64);

        run.t.time("fp16.convert", Some(ROOT), || {
            let w16 = f32_slice_to_f16(&g.w);
            black_box(f16_slice_to_f32(&w16[..(g.n * 8).min(w16.len())]));
        });

        // The launch without the runtime, first as a user's first call pays
        // it (fast path on: miss + record + proof) ...
        let mut recording = place(g, &x)?;
        let r_on = run
            .t
            .time("host.engine.run_system.recording", Some(ROOT), || recording.run_system(FENCED));
        failed += u64::from(count_wrong(&recording.readback(g.n)?, &want) > 0);

        // ... then fully simulated, one system call and channel by channel.
        let mut placed = place(g, &x)?;
        placed.ctx.sys.set_fastpath_enabled(false);
        let predicted = run.t.time("host.predictor.predict_launch", None, || {
            predict_launch(&placed.ctx.sys, &placed.per_channel, FENCED, None)
        });
        let r_off =
            run.t.time("host.engine.run_system", Some("host.engine.run_system.recording"), || {
                placed.run_system(FENCED)
            });
        failed += u64::from(r_on != r_off || r_off.commands != report.commands);
        cycle_err = predicted.map_or(f64::MAX, |p| p.end_cycle.abs_diff(r_off.end_cycle) as f64);

        let host = placed.ctx.sys.host.clone();
        run.t.time("core.channel.run_on_channel", Some("host.engine.run_system"), || {
            for (ch, batches) in placed.per_channel.iter().enumerate() {
                KernelEngine::run_on_channel(
                    &host,
                    placed.ctx.sys.channel_mut(ch),
                    batches,
                    FENCED,
                );
            }
            placed.ctx.sys.barrier()
        });
        run.t.time("host.engine.run_system.ordered", None, || {
            placed.run_system(ExecutionMode::Ordered)
        });
        placed.ctx.set_backend(ExecutionBackend::Threads(2));
        let r_t2 =
            run.t.time("host.engine.run_system.threads2", None, || placed.run_system(FENCED));
        failed += u64::from(r_t2.commands != r_off.commands || r_t2.fences != r_off.fences);

        proof_rungs(&mut run, g.k);

        // The same op with every layer recording events.
        let mut observed = PimContext::paper_system();
        let recorder = Recorder::counting();
        observed.enable_profiling(recorder.clone());
        let out = run.t.time("runtime.blas.gemv.recorded", None, || {
            PimBlas::gemv(&mut observed, &g.w, g.n, g.k, &x)
        });
        failed += u64::from(out.map_or(true, |(y, r)| count_wrong(&y, &want) > 0 || r != report));
        events = recorder.events_offered() as f64;

        single_bank_stream(&mut run, seed, scale);
    }

    let (gemv, on, off, chan) = (
        run.s(ROOT),
        run.s("host.engine.run_system.recording"),
        run.s("host.engine.run_system"),
        run.s("core.channel.run_on_channel"),
    );
    run.set("check.ops_failed", failed as f64);
    run.set(
        "fp16.convert.ns_per_elem",
        run.s("fp16.convert") * 1e9 / (workload.inputs().w.len() + workload.inputs().n * 8) as f64,
    );
    run.set("runtime.blas.gemv_overhead_share", Run::ratio(gemv - on, gemv));
    run.set("host.fastpath.record_overhead_ratio", Run::ratio(on, off));
    run.set("host.engine.run_system_ns_per_cmd", Run::ratio(off * 1e9, cmds));
    run.set("host.engine.system_over_channel_ratio", Run::ratio(off, chan));
    run.set(
        "host.engine.fenced_over_ordered_ratio",
        Run::ratio(off, run.s("host.engine.run_system.ordered")),
    );
    run.set("host.parallel.t2_speedup", Run::ratio(off, run.s("host.engine.run_system.threads2")));
    run.set("host.predictor.predict_us", run.s("host.predictor.predict_launch") * 1e6);
    run.set("host.predictor.cycle_err", cycle_err);
    run.set("core.channel.abpim_ns_per_cmd", Run::ratio(chan * 1e9, cmds));
    let sb_s = run.values.get("core.channel.sb_ns_per_cmd").copied().unwrap_or(0.0) * 1e-9;
    run.set("core.unit.ns_per_trigger", Run::ratio((chan - cmds * sb_s).max(0.0) * 1e9, triggers));
    run.set("obs.recorder.overhead_ratio", Run::ratio(run.s("runtime.blas.gemv.recorded"), gemv));
    run.set("obs.recorder.events_per_op", events);
    let traced_rep_s = run.s(ROOT);
    Ok(run.finish(ROOT, traced_rep_s))
}

pub fn warm(mut run: Run, seed: u64, scale: Scale) -> Result<Traced, String> {
    const ROOT: &str = "runtime.plan.launch";
    let mut workload = GemvWarm::setup(seed, scale)?;
    let (mut failed, mut hits_lost, mut mac_calls, mut triggers) = (0u64, 0.0, 0.0, 0.0);
    while run.again() {
        let i = run.iteration();
        run.untraced(workload.rep(i));
        let (g, ctx, plan) = workload.parts();
        let x = g.x(0x7ACE_0000 + i as u64);

        let want = g.oracle(&x);
        mac_calls = g.mac_calls() as f64;
        let out = run.t.time(ROOT, None, || plan.launch(ctx, &x));
        let (y, report) = out.map_err(|e| e.to_string())?;
        failed += u64::from(count_wrong(&y, &want) > 0);

        // The data half of a replay, outside the plan: compile the tape on
        // every live channel, then play it; below it, the bare dataflow.
        let cfg = PimConfig::paper();
        let mut placed = place(g, &x)?;
        let live_channels = g.n.div_ceil(16 * cfg.units_per_pch);
        triggers =
            report.pim_triggers as f64 * live_channels as f64 / placed.per_channel.len() as f64;
        let stream: Vec<Command> =
            placed.per_channel[0].iter().flat_map(|b| b.commands.iter().cloned()).collect();
        let tapes = run.t.time("core.tape.record", None, || {
            (0..live_channels)
                .map(|ch| placed.ctx.sys.channel_mut(ch).sink_mut().replay_data_recording(&stream))
                .collect::<Vec<_>>()
        });
        run.t.time("core.tape.replay", Some(ROOT), || {
            for (ch, tape) in tapes.iter().enumerate() {
                placed.ctx.sys.channel_mut(ch).sink_mut().replay_data_taped(&stream, tape);
            }
        });
        failed += u64::from(count_wrong(&placed.readback(g.n)?, &want) > 0);
        run.t.time("fp16.mac_lanes", Some("core.tape.replay"), || black_box(g.oracle(&x)));

        // What set-up paid: prepare, the cold launch, the proof.
        let mut fresh = PimContext::paper_system();
        let prepared = run
            .t
            .time("runtime.plan.prepare", None, || GemvPlan::prepare(&mut fresh, &g.w, g.n, g.k));
        let mut fresh_plan = prepared.map_err(|e| e.to_string())?;
        let cold =
            run.t.time("runtime.plan.launch.cold", None, || fresh_plan.launch(&mut fresh, &x));
        failed += u64::from(cold.map_or(true, |(y, r)| count_wrong(&y, &want) > 0 || r != report));
        proof_rungs(&mut run, g.k);

        // A recorder on the channels silently costs the fast path: warm the
        // fresh plan up, attach one, and count the launches it loses.
        if i == 0 {
            for _ in 0..2 {
                fresh_plan.launch(&mut fresh, &x).map_err(|e| e.to_string())?;
            }
            let before = fresh.sys.fastpath_stats();
            fresh.enable_profiling(Recorder::counting());
            let observed = fresh_plan.launch(&mut fresh, &x);
            failed += u64::from(observed.map_or(true, |(y, _)| count_wrong(&y, &want) > 0));
            let after = fresh.sys.fastpath_stats();
            hits_lost = (after.uncacheable - before.uncacheable) as f64;
            failed += u64::from(after.hits != before.hits);
        }
    }

    let (launch, replay, mac) = (run.s(ROOT), run.s("core.tape.replay"), run.s("fp16.mac_lanes"));
    run.set("check.ops_failed", failed as f64);
    run.set("fp16.mac_lanes.ns_per_call", Run::ratio(mac * 1e9, mac_calls));
    run.set(
        "core.tape.record_ns_per_trigger",
        Run::ratio(run.s("core.tape.record") * 1e9, triggers),
    );
    run.set("core.tape.replay_ns_per_trigger", Run::ratio(replay * 1e9, triggers));
    run.set("runtime.plan.prepare_ms", run.s("runtime.plan.prepare") * 1e3);
    run.set("runtime.plan.launch_overhead_share", Run::ratio(launch - replay, launch));
    run.set(
        "host.fastpath.cold_over_warm_ratio",
        Run::ratio(run.s("runtime.plan.launch.cold"), launch),
    );
    run.set("obs.recorder.warm_hits_lost", hits_lost);
    Ok(run.finish(ROOT, launch * WARM_OPS_PER_REP as f64))
}
