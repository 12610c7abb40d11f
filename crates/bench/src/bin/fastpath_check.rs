//! The fast-path cross-check CI gate: replay and the analytic predictor
//! must match full simulation **exactly** over the committed corpus.
//!
//! ```text
//! cargo run --release -p pim-bench --bin fastpath_check -- [--smoke] [--workers N]...
//! ```
//!
//! The corpus is Table VI's four GEMV shapes (driven through
//! [`pim_runtime::GemvPlan`], which exercises the full AB-mode
//! choreography), the first of them again under a seeded
//! [`ExecutionMode::Fenced`] shuffle (sequential and two workers — the one
//! issue order the engine, the predictor and data replay share), a GEMV
//! whose last live channel is partly populated (n = 1000), the same GEMV
//! entered with one channel's clock skewed (a class of its own), a
//! 128-element stream ADD (8 live units of 512), stream ADDs served on a
//! 12-channel subset under a watchdog limit, plus the synthetic 64-channel
//! engine workload (64 distinct lists: no two channels share a class). For
//! every corpus item and every backend (sequential plus each `--workers`
//! count, default 1/2/4):
//!
//! * a **reference** run under a quiet fault plan — nothing is injected,
//!   but the engine drops the live-unit masks and the cache, so every
//!   launch simulates every unit cold;
//! * a **fast-path** run on an identical fresh system must produce
//!   bit-identical outputs and exactly matching `sim_cycles` / `commands`
//!   / `fences` on every launch — cold (recording) and warm (replaying)
//!   alike — and must actually hit the cache in steady state; a GEMV row's
//!   cold launch must simulate one channel per entry class (one, or two
//!   with the skew) and serve the rest from its recording;
//! * the **analytic predictor** is cross-checked pass-by-pass inside the
//!   fast-path run ([`pim_runtime::GemvPlan::launch_crosschecked`]) and
//!   against the engine on the synthetic workload;
//! * the **periodic fold** the cost model prices with
//!   ([`ChannelPredictor::fold`] over the pass's [`pim_host::Kernel`]) must
//!   equal both the predictor over the materialised list and the simulated
//!   launch, and says how few commands it had to step;
//! * all backends must agree byte-for-byte with the sequential reference.
//!
//! Any divergence prints the offending workload/backend/launch and the
//! gate exits non-zero.

use pim_bench::cli::Cli;
use pim_bench::workloads::{bench_input, bench_weights, gemv_workloads, synthetic_batches};
use pim_core::PimConfig;
use pim_faults::FaultPlan;
use pim_host::{
    predict_launch, ChannelPredictor, ExecutionBackend, ExecutionMode, HostConfig, KernelEngine,
    PimSystem,
};
use pim_runtime::kernels::gemv_kernel;
use pim_runtime::{
    gemv_microkernel, Executor, GemvGeometry, GemvPlan, PimBlas, PimContext, ServeConfig, ServeOp,
    ServeRequest, Server,
};

/// Launches per corpus item: 1 cold + 1 recording + the rest replaying.
const LAUNCHES: usize = 4;

struct Gate {
    failures: u64,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        eprintln!("FAIL: {msg}");
        self.failures += 1;
    }
}

fn backend_name(b: ExecutionBackend) -> String {
    match b {
        ExecutionBackend::Sequential => "sequential".to_string(),
        ExecutionBackend::Threads(n) => format!("threads({n})"),
    }
}

/// What one launch returned: `(y, cycles, commands, fences)`.
type Launch = (Vec<f32>, u64, u64, u64);

/// A paper-system context for one corpus item: the fast path (cache and
/// live-unit masks) armed, or the full-simulation reference.
fn context(backend: ExecutionBackend, mode: ExecutionMode, fastpath: bool) -> PimContext {
    let mut ctx = PimContext::paper_system();
    ctx.set_mode(mode);
    ctx.set_backend(backend);
    if !fastpath {
        ctx.inject_faults(&FaultPlan::quiet(0));
    }
    ctx
}

/// One GEMV corpus row: a (single-pass) shape, the mode it runs under, and
/// optionally one channel whose clock is advanced before the first launch.
struct GemvRow<'a> {
    name: &'a str,
    n: usize,
    k: usize,
    mode: ExecutionMode,
    skew: Option<(usize, u64)>,
}

/// One GEMV corpus item on one backend: returns the per-launch results,
/// the hit count, and the channels the cold launch simulated and replayed.
fn run_gemv(
    backend: ExecutionBackend,
    row: &GemvRow,
    fastpath: bool,
    crosscheck: bool,
) -> (Vec<Launch>, u64, (u64, u64)) {
    let w = bench_weights(row.n, row.k);
    let mut ctx = context(backend, row.mode, fastpath);
    if let Some((ch, cycles)) = row.skew {
        ctx.sys.channel_mut(ch).advance_to(cycles);
    }
    let mut plan = GemvPlan::prepare(&mut ctx, &w, row.n, row.k).expect("corpus shape fits");
    let mut out = Vec::with_capacity(LAUNCHES);
    let mut cold = (0, 0);
    for i in 0..LAUNCHES {
        let x = bench_input(row.k, i as u64 % 2);
        let (y, r) = if crosscheck {
            plan.launch_crosschecked(&mut ctx, &x).expect("crosschecked launch")
        } else {
            plan.launch(&mut ctx, &x).expect("launch")
        };
        out.push((y, r.cycles, r.commands, r.fences));
        if i == 0 {
            let channels = ctx.sys.fastpath_channels();
            cold = (channels.simulated, channels.replayed);
        }
    }
    (out, ctx.sys.fastpath_stats().hits, cold)
}

/// Fails the gate for every launch of `fast` that is not its `reference`.
fn compare(
    gate: &mut Gate,
    name: &str,
    b: ExecutionBackend,
    fast: &[Launch],
    reference: &[Launch],
) {
    for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
        if f != r {
            gate.fail(format!(
                "{name} [{}] launch {i}: fast path (cycles {} cmds {} fences {}) \
                 != cold reference (cycles {} cmds {} fences {}) or outputs differ",
                backend_name(b),
                f.1,
                f.2,
                f.3,
                r.1,
                r.2,
                r.3,
            ));
        }
    }
}

/// A stream ADD of `len` elements, launched [`LAUNCHES`] times on one
/// context. Every call places fresh operand rows, so the launches differ
/// in their addresses and none replays: this row holds the masked *cold*
/// path of the stream job exact under every backend.
fn check_add(gate: &mut Gate, backends: &[ExecutionBackend], len: usize) {
    let name = format!("ADD {len}");
    let mode = ExecutionMode::Fenced { reorder_seed: None };
    let run = |backend, fastpath| -> Vec<Launch> {
        let mut ctx = context(backend, mode, fastpath);
        (0..LAUNCHES as u64)
            .map(|i| {
                let (x, y) = (bench_input(len, i), bench_input(len, i + 7));
                let (z, r) = PimBlas::add(&mut ctx, &x, &y).expect("stream add");
                (z, r.cycles, r.commands, r.fences)
            })
            .collect()
    };
    let reference = run(ExecutionBackend::Sequential, false);
    for &b in backends {
        compare(gate, &name, b, &run(b, true), &reference);
    }
}

/// The row's pass as the cost model prices it — its loop nest folded over
/// one power-on clock — against the predictor over the materialised list
/// and the simulated launch, all 64 channels in lock-step.
fn check_fold(gate: &mut Gate, row: &GemvRow) {
    let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
    let cfg = sys.pim_config().clone();
    let g = GemvGeometry::new(row.n, row.k, sys.channel_count(), cfg.units_per_pch);
    let program = gemv_microkernel(g.groups(), &cfg);
    let kernel = Executor::kernel(&program, None, true, gemv_kernel(g.kpad, 0, &cfg));
    let list = kernel.clone().materialise();
    let lists = vec![list.as_slice(); sys.channel_count()];

    let mut clock = ChannelPredictor::power_on(sys.timing());
    let folded = clock.fold(&sys.host, &kernel, row.mode, None).expect("a priced mode");
    let predicted = predict_launch(&sys, &lists, row.mode, None).expect("a fresh system");
    let simulated = KernelEngine::run_system(&mut sys, &lists, row.mode);

    let per_channel = folded.ran.result;
    let channels = lists.len() as u64;
    let folded_launch =
        (per_channel.end_cycle, channels * per_channel.commands, channels * per_channel.fences);
    let name = row.name;
    if folded_launch != (predicted.end_cycle, predicted.commands, predicted.fences)
        || folded_launch != (simulated.end_cycle, simulated.commands, simulated.fences)
    {
        gate.fail(format!(
            "{name}: fold {folded_launch:?} != predicted {predicted:?} or simulated {simulated:?}"
        ));
    }
    eprintln!(
        "  {name}: fold stepped {} of {} commands a channel",
        folded.stepped, per_channel.commands
    );
}

fn check_gemv(gate: &mut Gate, backends: &[ExecutionBackend], row: &GemvRow) {
    let name = row.name;
    eprintln!("checking {name} ({}x{}) ...", row.n, row.k);
    if row.skew.is_none() {
        check_fold(gate, row);
    }
    let (reference, ref_hits, ref_cold) = run_gemv(ExecutionBackend::Sequential, row, false, false);
    if ref_hits != 0 || ref_cold != (64, 0) {
        gate.fail(format!("{name}: the reference replayed (cold launch {ref_cold:?})"));
    }
    // A fresh system enters in one class — two when a channel is skewed —
    // and the cold launch simulates one channel of each.
    let classes = 1 + u64::from(row.skew.is_some());
    for &b in backends {
        // The fast-path run also cross-checks the analytic predictor on
        // every pass of every launch.
        let (fast, hits, cold) = run_gemv(b, row, true, true);
        compare(gate, name, b, &fast, &reference);
        if hits == 0 {
            gate.fail(format!(
                "{name} [{}]: no cache hits over {LAUNCHES} identical launches",
                backend_name(b)
            ));
        }
        if cold != (classes, 64 - classes) {
            gate.fail(format!(
                "{name} [{}]: cold launch simulated/replayed {cold:?} channels, \
                 expected ({classes}, {})",
                backend_name(b),
                64 - classes
            ));
        }
    }
}

/// Stream ADDs on a channel subset: a `Server` request pinned to three of
/// the sixteen channel groups launches on their 12 channels — every other
/// channel runs `&[]` — under the serving watchdog's cycle limit. Serving
/// resets the arena per request and the cache outlives it, so the first
/// launch is a classed miss and the rest replay it; the whole report must
/// equal the reference's.
fn check_subset_add(gate: &mut Gate, backends: &[ExecutionBackend]) {
    eprintln!("checking ADD 1024 on 12 channels ...");
    let mode = ExecutionMode::Fenced { reorder_seed: None };
    let run = |backend, fastpath| {
        let mut ctx = context(backend, mode, fastpath);
        let requests = (0..LAUNCHES as u64)
            .map(|i| ServeRequest {
                tenant: 0,
                arrival: i * 100_000,
                deadline: i * 100_000 + 400_000,
                groups: Some(vec![1, 6, 11]),
                budget: None,
                op: ServeOp::Add { x: bench_input(1024, i), y: bench_input(1024, i + 7) },
            })
            .collect();
        let report = Server::new(&mut ctx, ServeConfig::default()).run(requests);
        (report.expect("serve run"), ctx.sys.fastpath_channels())
    };
    let (reference, _) = run(ExecutionBackend::Sequential, false);
    if reference.stats.completed != LAUNCHES as u64 {
        gate.fail(format!("ADD subset: reference completed {:?}", reference.stats));
    }
    for &b in backends {
        let (report, channels) = run(b, true);
        if report != reference {
            gate.fail(format!("ADD subset [{}]: report differs from reference", backend_name(b)));
        }
        // The 12 participants and the 52 bystanders: two classes simulated
        // once, every other channel of every launch replayed.
        if (channels.simulated, channels.replayed) != (2, 64 * LAUNCHES as u64 - 2) {
            gate.fail(format!("ADD subset [{}]: {channels:?}", backend_name(b)));
        }
    }
}

fn check_synthetic(gate: &mut Gate, backends: &[ExecutionBackend], batches: usize) {
    let per_channel = synthetic_batches(64, batches, 0x5EED);
    let mode = ExecutionMode::Ordered;
    // Cold reference: fast path off, sequential.
    let mut reference = Vec::with_capacity(LAUNCHES);
    {
        let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        sys.set_fastpath_enabled(false);
        for _ in 0..LAUNCHES {
            // Predictor check rides the cold reference: predict, then run.
            let p = predict_launch(&sys, &per_channel, mode, None);
            let r = KernelEngine::run_system(&mut sys, &per_channel, mode);
            match p {
                None => gate.fail("synthetic64: predictor declined a canonical state".into()),
                Some(p) => {
                    if p.end_cycle != r.end_cycle
                        || p.commands != r.commands
                        || p.fences != r.fences
                    {
                        gate.fail(format!("synthetic64: predictor {p:?} != simulated {r:?}"));
                    }
                }
            }
            reference.push(r);
        }
    }
    for &b in backends {
        let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
        sys.set_backend(b);
        for (i, want) in reference.iter().enumerate() {
            let r = KernelEngine::run_system(&mut sys, &per_channel, mode);
            if r != *want {
                gate.fail(format!(
                    "synthetic64 [{}] launch {i}: fast path {r:?} != cold reference {want:?}",
                    backend_name(b)
                ));
            }
        }
        let stats = sys.fastpath_stats();
        if stats.hits == 0 {
            gate.fail(format!(
                "synthetic64 [{}]: no cache hits over {LAUNCHES} identical launches",
                backend_name(b)
            ));
        }
    }
}

fn main() {
    let mut smoke = false;
    let mut workers: Vec<usize> = Vec::new();
    let mut cli = Cli::new("fastpath_check", "fastpath_check [--smoke] [--workers N]...");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workers" => workers.push(cli.parse_pos(&arg, "worker count")),
            "--help" | "-h" => cli.usage(),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }
    if workers.is_empty() {
        workers = vec![1, 2, 4];
    }
    let mut backends = vec![ExecutionBackend::Sequential];
    backends.extend(workers.iter().map(|&n| ExecutionBackend::Threads(n)));

    let mut gate = Gate { failures: 0 };

    // Table VI shapes through the full runtime choreography. Smoke scales
    // the shapes down (same choreography, fewer passes) so the gate runs
    // in seconds on a debug build.
    let scale = if smoke { 8 } else { 1 };
    let in_order = ExecutionMode::Fenced { reorder_seed: None };
    let workloads = gemv_workloads();
    for wl in &workloads {
        let (n, k) = ((wl.n / scale).max(1), (wl.k / scale).max(1));
        check_gemv(
            &mut gate,
            &backends,
            &GemvRow { name: wl.name, n, k, mode: in_order, skew: None },
        );
    }

    // The seeded commutative-batch shuffle: cold engine, warm replay and
    // the predictor must all issue in the same order.
    let wl = &workloads[0];
    let (n, k) = ((wl.n / scale).max(1), (wl.k / scale).max(1));
    let name = format!("{} seeded", wl.name);
    let seeded = ExecutionMode::Fenced { reorder_seed: Some(0xF16) };
    let two = [ExecutionBackend::Sequential, ExecutionBackend::Threads(2)];
    check_gemv(&mut gate, &two, &GemvRow { name: &name, n, k, mode: seeded, skew: None });

    // Liveness at unit granularity: 1000 rows fill 62.5 units, so channel
    // 7 computes on 7 of its 8 units and channels 8..64 on none; the
    // stream ADD keeps 8 units live, one on each of 8 channels.
    let (n, k) = (1000, (workloads[0].k / scale).max(1));
    let row = GemvRow { name: "GEMV n=1000", n, k, mode: in_order, skew: None };
    check_gemv(&mut gate, &backends, &row);
    // Entry skew: live channel 5 enters 700 cycles late, so it cannot
    // share the other 63 channels' simulation.
    let row = GemvRow { name: "GEMV n=1000 skewed", skew: Some((5, 700)), ..row };
    check_gemv(&mut gate, &backends, &row);
    eprintln!("checking ADD 128 ...");
    check_add(&mut gate, &backends, 128);
    check_subset_add(&mut gate, &backends);

    let batches = if smoke { 200 } else { 4_000 };
    eprintln!("checking synthetic64 ({batches} batches/channel) ...");
    check_synthetic(&mut gate, &backends, batches);

    if gate.failures > 0 {
        eprintln!("fastpath cross-check FAILED with {} divergence(s)", gate.failures);
        std::process::exit(1);
    }
    eprintln!(
        "fastpath cross-check passed: replay and predictor exact over {} backends",
        backends.len()
    );
}
