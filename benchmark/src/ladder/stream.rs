//! Ladder of `stream_raw`: `KernelEngine::run_system` → the 64 channels one
//! by one through `run_on_channel` (engine loop plus the PIM device wrapper
//! in single-bank mode) → the same commands on bare `MemoryController`s (the
//! DRAM model alone).

use super::{Run, Traced};
use crate::workloads::stream_raw::{fresh_system, StreamRaw};
use crate::workloads::{Scale, Workload};
use pim_dram::{Command, ControllerConfig, MemoryController, Request};
use pim_host::{ExecutionBackend, ExecutionMode, KernelEngine};
use std::hint::black_box;

/// Requests enqueued before each drain of the FR-FCFS rung: four triples'
/// worth, enough for the scheduler to have something to reorder.
const QUEUE_CHUNK: usize = 32;

pub fn raw(mut run: Run, seed: u64, scale: Scale) -> Result<Traced, String> {
    const ROOT: &str = "host.engine.run_system";
    let mut workload = StreamRaw::setup(seed, scale)?;
    let (mut cmds, mut failed, mut row_hit_ratio, mut requests) = (0.0, 0u64, 0.0, 0.0);
    while run.again() {
        run.untraced(workload.rep(run.iteration()));
        let per_channel = workload.per_channel();

        let mut sys = fresh_system();
        let r = run.t.time(ROOT, None, || {
            KernelEngine::run_system(&mut sys, per_channel, ExecutionMode::Ordered)
        });
        cmds = r.commands as f64;

        let mut sys = fresh_system();
        let host = sys.host.clone();
        let end = run.t.time("core.channel.run_on_channel", Some(ROOT), || {
            for (ch, batches) in per_channel.iter().enumerate() {
                KernelEngine::run_on_channel(
                    &host,
                    sys.channel_mut(ch),
                    batches,
                    ExecutionMode::Ordered,
                );
            }
            sys.barrier()
        });
        failed += u64::from(end != r.end_cycle);

        let cfg = ControllerConfig { refresh_enabled: false, ..ControllerConfig::default() };
        let mut bare: Vec<MemoryController> =
            per_channel.iter().map(|_| MemoryController::new(cfg.clone())).collect();
        let bare_end =
            run.t.time("dram.ctrl.issue_raw", Some("core.channel.run_on_channel"), || {
                for (ctrl, batches) in bare.iter_mut().zip(per_channel) {
                    for b in batches {
                        ctrl.issue_raw(&b.commands);
                    }
                }
                bare.iter().map(MemoryController::now).max()
            });
        // Single-bank timing is the DRAM model's alone: the device wrapper
        // must not change a cycle of it.
        failed += u64::from(bare_end != Some(r.end_cycle));

        // Channel 0's reads again, as requests through the FR-FCFS queue.
        let mut ctrl = MemoryController::new(cfg.clone());
        let mut open = None;
        let addrs: Vec<u64> = per_channel[0]
            .iter()
            .flat_map(|b| &b.commands)
            .filter_map(|cmd| match cmd {
                Command::Act { bank, row } => {
                    open = Some((*bank, *row));
                    None
                }
                Command::Rd { col, .. } => {
                    open.map(|(bank, row)| cfg.mapping.block_addr(0, bank, row, *col))
                }
                _ => None,
            })
            .collect();
        run.t.time("dram.ctrl.frfcfs", None, || {
            for chunk in addrs.chunks(QUEUE_CHUNK) {
                for &addr in chunk {
                    ctrl.enqueue(Request::read(addr));
                }
                black_box(ctrl.run_to_completion());
            }
        });
        requests = addrs.len() as f64;
        row_hit_ratio = ctrl.stats().row_hit_rate();
        failed += u64::from(ctrl.stats().completed != addrs.len() as u64);

        let mut sys = fresh_system();
        sys.set_backend(ExecutionBackend::Threads(2));
        let r_t2 = run.t.time("host.engine.run_system.threads2", None, || {
            KernelEngine::run_system(&mut sys, per_channel, ExecutionMode::Ordered)
        });
        failed += u64::from(r_t2 != r);
    }

    let (system, chan, dram) =
        (run.s(ROOT), run.s("core.channel.run_on_channel"), run.s("dram.ctrl.issue_raw"));
    run.set("check.ops_failed", failed as f64);
    run.set("host.engine.run_system_ns_per_cmd", Run::ratio(system * 1e9, cmds));
    run.set("host.engine.system_over_channel_ratio", Run::ratio(system, chan));
    run.set(
        "host.parallel.t2_speedup",
        Run::ratio(system, run.s("host.engine.run_system.threads2")),
    );
    run.set("core.channel.sb_ns_per_cmd", Run::ratio(chan * 1e9, cmds));
    run.set("dram.ctrl.raw_ns_per_cmd", Run::ratio(dram * 1e9, cmds));
    run.set("dram.ctrl.frfcfs_ns_per_req", Run::ratio(run.s("dram.ctrl.frfcfs") * 1e9, requests));
    run.set("dram.ctrl.row_hit_ratio", row_hit_ratio);
    Ok(run.finish(ROOT, system))
}
