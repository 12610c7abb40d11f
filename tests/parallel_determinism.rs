//! The parallel backend's headline guarantee, tested end to end: a kernel
//! run under [`ExecutionBackend::Threads`] with any worker count produces
//! *bit-identical* results to [`ExecutionBackend::Sequential`] — numerics,
//! kernel reports, per-channel controller and device statistics, metrics,
//! and the merged observability event stream.
//!
//! The guarantee holds by construction (each worker owns disjoint channels;
//! merges happen in channel-index order, matching the sequential
//! channel-major loop), and these tests pin it against regressions.

use pim_bench::workloads::synthetic_batches;
use pim_core::PimConfig;
use pim_host::{
    predict_launch, Batch, ExecutionBackend, ExecutionMode, HostConfig, KernelEngine, KernelResult,
    PimSystem,
};
use pim_obs::Recorder;
use pim_runtime::{PimBlas, PimContext};

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn gemv_inputs(n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let w = (0..n * k).map(|i| ((i * 7 % 41) as f32 - 20.0) / 32.0).collect();
    let x = (0..k).map(|i| ((i * 3 % 17) as f32 - 8.0) / 16.0).collect();
    (w, x)
}

/// Runs a profiled GEMV on the paper system under `backend`; returns the
/// result bits plus everything observable about the run.
fn profiled_gemv(
    backend: ExecutionBackend,
) -> (Vec<u32>, [u64; 5], Vec<pim_obs::Event>, pim_obs::MetricsSnapshot) {
    let (n, k) = (96, 256);
    let (w, x) = gemv_inputs(n, k);
    let mut ctx = PimContext::paper_system();
    ctx.set_backend(backend);
    let recorder = Recorder::vec();
    ctx.enable_profiling(recorder.clone());
    let (y, report) = PimBlas::gemv(&mut ctx, &w, n, k, &x).expect("gemv");
    (
        y.iter().map(|v| v.to_bits()).collect(),
        // Everything in the report except host wall time, which is the one
        // quantity the backend is *allowed* to change.
        [
            report.cycles,
            report.commands,
            report.fences,
            report.pim_triggers,
            report.elements as u64,
        ],
        recorder.events().expect("vec sink retains events"),
        recorder.metrics(),
    )
}

#[test]
fn gemv_is_bit_identical_under_every_worker_count() {
    let (y_seq, rep_seq, ev_seq, m_seq) = profiled_gemv(ExecutionBackend::Sequential);
    assert!(!ev_seq.is_empty());
    for workers in WORKER_COUNTS {
        let (y, rep, ev, m) = profiled_gemv(ExecutionBackend::Threads(workers));
        assert_eq!(y, y_seq, "{workers} workers: numeric result diverged");
        assert_eq!(rep, rep_seq, "{workers} workers: kernel report diverged");
        assert_eq!(ev, ev_seq, "{workers} workers: event stream diverged");
        assert_eq!(m, m_seq, "{workers} workers: metrics diverged");
    }
}

/// The masked row: a GEMV declares live only the units that own output
/// rows — n = 1000 fills 62.5 of the 512, so channel 7 computes on seven of
/// its eight units and channels 8..64 on none. Outputs, the report and
/// every channel's controller, device, DRAM and per-unit statistics are
/// those of the sequential run under every worker count, and those of a
/// run whose masks a quiet fault plan made the engine drop.
#[test]
fn masked_gemv_is_bit_identical_under_every_worker_count() {
    let (n, k) = (1000, 64);
    let (w, x) = gemv_inputs(n, k);
    let run = |backend: ExecutionBackend, unmasked: bool| {
        let mut ctx = PimContext::paper_system();
        ctx.set_backend(backend);
        if unmasked {
            ctx.inject_faults(&pim_faults::FaultPlan::quiet(0));
        }
        let (y, report) = PimBlas::gemv(&mut ctx, &w, n, k, &x).expect("gemv");
        let state: Vec<String> = (0..ctx.sys.channel_count())
            .map(|i| {
                let (ctrl, dev) = (ctx.sys.channel(i), ctx.sys.channel(i).sink());
                let units: Vec<_> = (0..dev.unit_count()).map(|u| *dev.unit(u).stats()).collect();
                format!("{:?}|{:?}|{:?}|{units:?}", ctrl.stats(), dev.stats(), dev.dram().stats())
            })
            .collect();
        (y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(), report, state)
    };
    let seq = run(ExecutionBackend::Sequential, false);
    assert_eq!(seq, run(ExecutionBackend::Sequential, true), "a mask moved something measured");
    for workers in WORKER_COUNTS {
        assert_eq!(run(ExecutionBackend::Threads(workers), false), seq, "{workers} workers");
    }
}

/// Runs the seeded synthetic workload under `backend`; returns the kernel
/// result plus every channel's controller, DRAM, and device statistics.
fn synthetic_run(
    backend: ExecutionBackend,
    per_channel: &[Vec<Batch>],
) -> (KernelResult, Vec<String>) {
    let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
    sys.set_backend(backend);
    let r = KernelEngine::run_system(&mut sys, per_channel, ExecutionMode::Ordered);
    let per_channel_state: Vec<String> = (0..sys.channel_count())
        .map(|i| {
            let ctrl = sys.channel(i);
            format!("{:?}|{:?}|{:?}", ctrl.stats(), ctrl.sink().stats(), ctrl.sink().dram().stats())
        })
        .collect();
    (r, per_channel_state)
}

#[test]
fn random_workload_leaves_identical_per_channel_state() {
    let per_channel = synthetic_batches(64, 40, 0xDECAF);
    let (r_seq, state_seq) = synthetic_run(ExecutionBackend::Sequential, &per_channel);
    assert!(r_seq.commands > 0);
    for workers in WORKER_COUNTS {
        let (r, state) = synthetic_run(ExecutionBackend::Threads(workers), &per_channel);
        assert_eq!(r, r_seq, "{workers} workers: kernel result diverged");
        for (i, (a, b)) in state.iter().zip(&state_seq).enumerate() {
            assert_eq!(a, b, "{workers} workers: channel {i} state diverged");
        }
    }
}

/// The exact gate on the simulated numbers: the seeded 64-channel smoke
/// workload, fully simulated (fast path off), ends at this cycle having
/// issued this many commands under either backend, and the closed-form
/// predictor says the same before the run. A change that moves these moved
/// the DRAM timing model or the engine's issue order, and re-pins on
/// purpose.
#[test]
fn synthetic64_simulated_numbers_are_pinned() {
    let per_channel = synthetic_batches(64, 400, 0x5EED);
    let pinned = KernelResult { end_cycle: 20595, commands: 256_000, fences: 0 };
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threads(2)] {
        let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        sys.set_backend(backend);
        sys.set_fastpath_enabled(false);
        let p = predict_launch(&sys, &per_channel, ExecutionMode::Ordered, None)
            .expect("a fresh system is in the predictor's domain");
        let r = KernelEngine::run_system(&mut sys, &per_channel, ExecutionMode::Ordered);
        assert_eq!(r, pinned, "{backend:?}");
        assert_eq!((p.end_cycle, p.commands, p.fences), (r.end_cycle, r.commands, r.fences));
    }
}

#[test]
fn partial_channel_coverage_matches_sequential() {
    // Fewer batch lists than channels: the uncovered channels idle but
    // still join the closing barrier under both backends.
    let per_channel = synthetic_batches(5, 12, 3);
    let (r_seq, state_seq) = synthetic_run(ExecutionBackend::Sequential, &per_channel);
    for workers in WORKER_COUNTS {
        let (r, state) = synthetic_run(ExecutionBackend::Threads(workers), &per_channel);
        assert_eq!(r, r_seq, "{workers} workers diverged");
        assert_eq!(state, state_seq);
    }
}

#[test]
fn empty_and_missing_batch_lists_are_no_ops_under_both_backends() {
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threads(4)] {
        // Some channels get an explicitly empty list, some get nothing.
        let per_channel = vec![Vec::new(), Vec::new(), Vec::new()];
        let (r, _) = synthetic_run(backend, &per_channel);
        assert_eq!(r.commands, 0, "{backend:?}: no commands from empty lists");
        assert_eq!(r.fences, 0);

        let (r, _) = synthetic_run(backend, &[]);
        assert_eq!(r.commands, 0, "{backend:?}: no commands from no lists");
    }
}

#[test]
fn worker_count_clamps_beyond_channel_count() {
    // More workers than channels must behave like one worker per channel,
    // not panic or leave channels unserved.
    let per_channel = synthetic_batches(3, 6, 11);
    let (r_seq, state_seq) = synthetic_run(ExecutionBackend::Sequential, &per_channel);
    let (r, state) = synthetic_run(ExecutionBackend::Threads(64), &per_channel);
    assert_eq!(r, r_seq);
    assert_eq!(state, state_seq);
}

#[test]
fn repeated_threaded_runs_are_self_consistent() {
    // Thread scheduling varies run to run; results must not.
    let per_channel = synthetic_batches(16, 20, 0xABCD);
    let (r0, state0) = synthetic_run(ExecutionBackend::Threads(4), &per_channel);
    for _ in 0..3 {
        let (r, state) = synthetic_run(ExecutionBackend::Threads(4), &per_channel);
        assert_eq!(r, r0);
        assert_eq!(state, state0);
    }
}
