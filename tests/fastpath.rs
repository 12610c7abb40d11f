//! Integration tests of the launch-memoization fast path
//! (`docs/FASTPATH.md`): warm replay is observationally identical to cold
//! simulation, every invalidation edge actually misses, traced runs stay
//! cold, and serving artifacts are byte-identical with the fast path on or
//! off.

use pim_bench::json;
use pim_bench::serve::report_json;
use pim_bench::workloads::{bench_input, bench_weights, synthetic_batches};
use pim_faults::FaultPlan;
use pim_host::{
    ExecutionBackend, ExecutionMode, FastpathChannels, FastpathStats, KernelEngine, PimSystem,
};
use pim_obs::{names, Recorder};
use pim_runtime::{GemvPlan, PimBlas, PimContext, ServeConfig, ServeOp, ServeRequest, Server};

const N: usize = 48;
const K: usize = 64;

/// Launches `count` times, returning per-launch `(y-bits, cycles,
/// commands, fences)` — a bit-exact transcript of everything a caller can
/// observe from the launch itself.
fn transcript(
    ctx: &mut PimContext,
    plan: &mut GemvPlan,
    count: usize,
) -> Vec<(Vec<u32>, u64, u64, u64)> {
    (0..count)
        .map(|i| {
            let x = bench_input(K, i as u64);
            let (y, r) = plan.launch(ctx, &x).expect("launch");
            (y.iter().map(|v| v.to_bits()).collect(), r.cycles, r.commands, r.fences)
        })
        .collect()
}

fn warm_ctx() -> (PimContext, GemvPlan) {
    let w = bench_weights(N, K);
    let mut ctx = PimContext::paper_system();
    let mut plan = GemvPlan::prepare(&mut ctx, &w, N, K).expect("shape fits");
    // Launches 1-2 run cold (pristine, then recording the recurring
    // post-readback state); from launch 3 the plan replays.
    let _ = transcript(&mut ctx, &mut plan, 3);
    assert!(ctx.sys.fastpath_stats().hits >= 1, "plan failed to warm up");
    (ctx, plan)
}

/// Warm replay is byte-identical to a cold-only run of the same launch
/// sequence: outputs bit-equal, reports exactly equal, and the cache
/// actually hits in steady state.
#[test]
fn warm_replay_matches_cold_simulation_exactly() {
    let w = bench_weights(N, K);

    let mut cold_ctx = PimContext::paper_system();
    cold_ctx.sys.set_fastpath_enabled(false);
    let mut cold_plan = GemvPlan::prepare(&mut cold_ctx, &w, N, K).expect("shape fits");
    let cold = transcript(&mut cold_ctx, &mut cold_plan, 8);
    assert_eq!(cold_ctx.sys.fastpath_stats().hits, 0);

    let mut ctx = PimContext::paper_system();
    let mut plan = GemvPlan::prepare(&mut ctx, &w, N, K).expect("shape fits");
    let fast = transcript(&mut ctx, &mut plan, 8);

    assert_eq!(fast, cold, "fast-path transcript diverged from cold simulation");
    let stats = ctx.sys.fastpath_stats();
    assert!(stats.hits >= 5, "expected steady-state replay, got {stats:?}");
}

/// `start + (end − start) == end` over every counter a launch advances —
/// device, per-unit, DRAM and bank residency — on whole-struct equality:
/// a counter that `delta_since` captures but `apply_accounting` forgets
/// (or the reverse) would be lost on every warm launch.
#[test]
fn accounting_delta_round_trips_through_apply() {
    let w = bench_weights(N, K);
    let boot = || {
        let mut ctx = PimContext::paper_system();
        ctx.sys.set_fastpath_enabled(false);
        let mut plan = GemvPlan::prepare(&mut ctx, &w, N, K).expect("shape fits");
        let _ = transcript(&mut ctx, &mut plan, 1);
        (ctx, plan)
    };
    let snapshot = |ctx: &PimContext, ch: usize| {
        let ctrl = ctx.sys.channel(ch);
        ctrl.sink().launch_accounting(ctrl.now())
    };

    // `end`: one more real launch on top of `start`.
    let (mut ctx, mut plan) = boot();
    let start: Vec<_> = (0..ctx.sys.channel_count()).map(|ch| snapshot(&ctx, ch)).collect();
    let _ = transcript(&mut ctx, &mut plan, 1);
    // `start + delta` on an identically booted system that never ran it.
    let (mut twin, _) = boot();
    for (ch, start) in start.iter().enumerate() {
        assert_eq!(&snapshot(&twin, ch), start, "twin boot diverged on channel {ch}");
        let end = snapshot(&ctx, ch);
        let delta = end.delta_since(start);
        assert_ne!(&delta, &end.delta_since(&end), "launch moved nothing on channel {ch}");
        twin.sys.channel_mut(ch).sink_mut().apply_accounting(&delta);
        assert_eq!(snapshot(&twin, ch), end, "channel {ch}");
    }
}

/// The warm transcript is identical across Sequential and Threads(1/2/4):
/// the cache records sequential-equivalent timing, so replay cannot
/// depend on the worker count.
#[test]
fn warm_replay_identical_across_backends() {
    let w = bench_weights(N, K);
    let mut reference = None;
    for backend in [
        ExecutionBackend::Sequential,
        ExecutionBackend::Threads(1),
        ExecutionBackend::Threads(2),
        ExecutionBackend::Threads(4),
    ] {
        let mut ctx = PimContext::paper_system();
        ctx.set_backend(backend);
        let mut plan = GemvPlan::prepare(&mut ctx, &w, N, K).expect("shape fits");
        let t = transcript(&mut ctx, &mut plan, 6);
        assert!(ctx.sys.fastpath_stats().hits >= 1, "{backend:?} never hit");
        match &reference {
            None => reference = Some(t),
            Some(r) => assert_eq!(&t, r, "{backend:?} transcript diverged"),
        }
    }
}

/// Preparing a second plan (same shape, different arena placement) misses:
/// the cache key covers the command stream, which encodes the layout.
#[test]
fn layout_change_misses() {
    let (mut ctx, mut plan) = warm_ctx();
    let _ = transcript(&mut ctx, &mut plan, 1);
    let before = ctx.sys.fastpath_stats();

    let w = bench_weights(N, K);
    let mut plan2 = GemvPlan::prepare(&mut ctx, &w, N, K).expect("second plan fits");
    let _ = transcript(&mut ctx, &mut plan2, 1);
    let after = ctx.sys.fastpath_stats();
    assert_eq!(after.hits, before.hits, "relocated plan must not replay the old entry");
    assert!(after.misses > before.misses || after.uncacheable > before.uncacheable);
}

/// An arena reset frees the rows, not the memoized launches: the same op
/// placed again where its predecessor was replays it — what lets a serving
/// trace, which resets the arena before every attempt, hit at all — and
/// every launch equals the one a cache-less context runs.
#[test]
fn launch_cache_outlives_an_arena_reset() {
    let (x, y) = (bench_input(1024, 1), bench_input(1024, 2));
    let run = |fastpath: bool| {
        let mut ctx = PimContext::paper_system();
        ctx.sys.set_fastpath_enabled(fastpath);
        let launches: Vec<(Vec<u32>, u64, u64, u64)> = (0..4)
            .map(|_| {
                ctx.reset_memory();
                let (z, r) = PimBlas::add(&mut ctx, &x, &y).expect("add");
                (z.iter().map(|v| v.to_bits()).collect(), r.cycles, r.commands, r.fences)
            })
            .collect();
        (launches, ctx.sys.fastpath_stats().hits)
    };
    let (cold, _) = run(false);
    let (warm, hits) = run(true);
    assert_eq!(warm, cold);
    assert!(hits >= 1, "no launch replayed across an arena reset");
}

/// Changing the execution mode (part of the launch configuration) misses
/// even though the program and layout are unchanged.
#[test]
fn execution_mode_change_misses() {
    let (mut ctx, mut plan) = warm_ctx();
    let before = ctx.sys.fastpath_stats();

    ctx.set_mode(ExecutionMode::Fenced { reorder_seed: Some(7) });
    let _ = transcript(&mut ctx, &mut plan, 1);
    let after = ctx.sys.fastpath_stats();
    assert_eq!(after.hits, before.hits, "mode change must not replay the old entry");
    assert!(after.misses > before.misses);
}

/// Installing a fault plan disables the fast path outright — fault
/// campaigns must simulate every cycle — and it stays disabled even if
/// re-enabling is attempted.
#[test]
fn fault_plan_install_disables_fastpath() {
    let (mut ctx, mut plan) = warm_ctx();
    let plan_faults = FaultPlan::quiet(7);
    ctx.inject_faults(&plan_faults);
    ctx.sys.set_fastpath_enabled(true); // must be a no-op under faults
    let before = ctx.sys.fastpath_stats();
    let _ = transcript(&mut ctx, &mut plan, 2);
    let after = ctx.sys.fastpath_stats();
    assert_eq!(after.hits, before.hits, "faulted system replayed from cache");
    assert_eq!(after.insertions, before.insertions, "faulted system recorded an entry");
}

/// Toggling strict mode drops every memoized launch; the next launch runs
/// cold and re-records, after which replay resumes.
#[test]
fn strict_mode_toggle_clears_cache() {
    let (mut ctx, mut plan) = warm_ctx();
    let warm = ctx.sys.fastpath_stats();

    ctx.set_strict(true);
    let _ = transcript(&mut ctx, &mut plan, 1);
    let cleared = ctx.sys.fastpath_stats();
    assert_eq!(cleared.hits, warm.hits, "launch after strict toggle must run cold");
    assert!(cleared.misses > warm.misses);

    let _ = transcript(&mut ctx, &mut plan, 1);
    assert!(ctx.sys.fastpath_stats().hits > cleared.hits, "replay did not resume");
}

/// Runs with an event recorder attached are uncacheable: replay cannot
/// reproduce the per-command event stream, so traced runs always simulate
/// (and the `fastpath.uncacheable` counter says so).
#[test]
fn traced_runs_stay_cold() {
    let w = bench_weights(N, K);
    let mut ctx = PimContext::paper_system();
    ctx.enable_profiling(Recorder::vec());
    let mut plan = GemvPlan::prepare(&mut ctx, &w, N, K).expect("shape fits");
    let _ = transcript(&mut ctx, &mut plan, 4);
    let stats = ctx.sys.fastpath_stats();
    assert_eq!(stats.hits, 0, "traced run replayed from cache");
    assert_eq!(stats.insertions, 0, "traced run recorded an entry");
    assert!(stats.uncacheable >= 4, "expected uncacheable classification, got {stats:?}");
}

/// A serving run produces a byte-identical `ServeReport` (and exported
/// JSON) with the fast path on or off — replay preserves cycle
/// accounting, dispositions, and results exactly.
#[test]
fn serve_report_byte_identical_with_fastpath_on_and_off() {
    let requests = || -> Vec<ServeRequest> {
        (0..12)
            .map(|i| {
                let x: Vec<f32> =
                    (0..256).map(|j| ((i * 31 + j * 7) % 41) as f32 * 0.25 - 5.0).collect();
                let y: Vec<f32> =
                    (0..256).map(|j| ((i * 13 + j * 11) % 29) as f32 * 0.5 - 7.0).collect();
                ServeRequest {
                    tenant: (i % 3) as u32,
                    arrival: (i as u64) * 2_000,
                    deadline: (i as u64) * 2_000 + 400_000,
                    groups: None,
                    budget: None,
                    op: ServeOp::Add { x, y },
                }
            })
            .collect()
    };

    let run = |fastpath: bool| {
        let mut ctx = PimContext::small_system();
        ctx.sys.set_fastpath_enabled(fastpath);
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let report = server.run(requests()).expect("serve run");
        assert_eq!(ctx.sys.fastpath_enabled(), fastpath, "the server re-armed the fast path");
        report
    };

    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "ServeReport differs between fast path on and off");
}

/// The serving-campaign JSON artifact is byte-identical too (the artifact
/// CI diffs), via the same exporter the `pimserve` binary uses.
#[test]
fn serve_campaign_artifact_byte_identical() {
    use pim_bench::campaign::TraceShape;
    use pim_bench::serve::{run_campaign, ServeCampaignConfig};
    let d = ServeCampaignConfig::default();
    let cfg = ServeCampaignConfig {
        trace: TraceShape { elements: 512, requests: 6, ..d.trace },
        intervals: vec![5_000],
        fault_rates: vec![0.0],
        ..d
    };
    let points = run_campaign(&cfg).expect("campaign");
    let a = json::to_string(&report_json(&cfg, &points));
    // The campaign constructs its own contexts; serving defaults keep the
    // fast path on, so a second run exercises cache construction again and
    // must serialize identically.
    let points2 = run_campaign(&cfg).expect("campaign");
    let b = json::to_string(&report_json(&cfg, &points2));
    assert_eq!(a, b, "campaign artifact is not reproducible");
}

/// The static control-flow proof gates recording: a structurally valid
/// program whose trigger schedule cannot be derived within the budget
/// (nested 65 535-count JUMPs — the PV301 shape) is never memoized. Both
/// launches run the full simulation and the observable results are
/// identical to a fastpath-disabled system.
#[test]
fn unprovable_program_is_never_recorded() {
    use pim_core::isa::Instruction;
    use pim_dram::{BankAddr, Command};
    use pim_host::Batch;
    use pim_runtime::Executor;

    let unprovable = [
        Instruction::Nop { cycles: 1 },
        Instruction::Jump { target: 0, count: 65_535 },
        Instruction::Jump { target: 0, count: 65_535 },
        Instruction::Exit,
    ];
    let bank = BankAddr::new(0, 0);
    let data = vec![
        pim_host::Batch::setup(vec![Command::Act { bank, row: 7 }]),
        Batch::commutative((0..8).map(|c| Command::Rd { bank, col: c }).collect()),
        Batch::setup(vec![Command::Pre { bank }]),
    ];

    let run_pair = |fastpath: bool| {
        let mut ctx = PimContext::paper_system();
        ctx.sys.set_fastpath_enabled(fastpath);
        let a = Executor::run(&mut ctx, 2, &unprovable, None, false, &data);
        let b = Executor::run(&mut ctx, 2, &unprovable, None, false, &data);
        (a, b, ctx.sys.fastpath_stats())
    };
    let (a_on, b_on, stats) = run_pair(true);
    let (a_off, b_off, _) = run_pair(false);

    assert_eq!(stats.hits, 0, "unprovable program replayed from cache: {stats:?}");
    assert_eq!(stats.insertions, 0, "unprovable program was recorded: {stats:?}");
    assert_eq!(stats.unproven, 2, "both cold runs must hit the proof gate: {stats:?}");
    assert_eq!((a_on, b_on), (a_off, b_off), "fallback diverged from plain simulation");

    // The same system still records (and replays) a provable program, so
    // the gate is specific to the unprovable image, not the choreography.
    let mut ctx = PimContext::paper_system();
    let provable = [Instruction::Nop { cycles: 1 }, Instruction::Exit];
    // Launch 1 runs from the pristine state, launch 2 records the
    // recurring steady state, launch 3 replays it.
    for _ in 0..3 {
        let _ = Executor::run(&mut ctx, 2, &provable, None, false, &data);
    }
    let stats = ctx.sys.fastpath_stats();
    assert!(stats.insertions >= 1, "provable program was not recorded: {stats:?}");
    assert!(stats.hits >= 1, "provable program did not replay: {stats:?}");
}

// ---------------------------------------------------------------------
// Channel classes (docs/FASTPATH.md): a lock-step launch is one list on
// every channel, and channels that enter it in the same state share one
// timing simulation. Reference: the same launches with the fast path off.
// ---------------------------------------------------------------------

const BACKENDS: [ExecutionBackend; 2] =
    [ExecutionBackend::Sequential, ExecutionBackend::Threads(2)];

/// Everything a launch is measured by, per channel: the clock, the timing
/// fingerprint and the `LaunchAccounting` (channel, unit and DRAM
/// statistics, bank residency).
fn measured(sys: &PimSystem) -> Vec<impl PartialEq + std::fmt::Debug> {
    (0..sys.channel_count())
        .map(|i| {
            let (c, now) = (sys.channel(i), sys.channel(i).now());
            (now, c.sink().launch_fingerprint(now), c.sink().launch_accounting(now))
        })
        .collect()
}

/// GRF_B of the first `units` units, channel-major — where a single-pass
/// GEMV of `16 × units` rows leaves its partial sums.
fn partial_sums(sys: &PimSystem, units: usize) -> Vec<[u8; 32]> {
    let per_channel = sys.pim_config().units_per_pch;
    (0..units)
        .flat_map(|g| (0..8).map(move |r| (g, r)))
        .map(|(g, r)| {
            sys.channel(g / per_channel).sink().unit(g % per_channel).grf_b().read(r).to_block()
        })
        .collect()
}

fn channels_since(sys: &PimSystem, before: FastpathChannels) -> (u64, u64) {
    let now = sys.fastpath_channels();
    (now.simulated - before.simulated, now.replayed - before.replayed)
}

/// Lock-step GEMV (n = 1000: the last live channel partly populated, the
/// rest of the system all-dead) and stream ADDs, over 64 and over 16
/// channels, under both backends: after every launch the outputs, the
/// report and every channel's measured state equal the reference, the live
/// units hold the reference's partial sums, the plan hits as often as it
/// ever did — and the cold launch simulated one channel.
#[test]
fn lock_step_launches_equal_the_cold_reference_on_every_channel() {
    let (n, k) = (1000, K);
    let w = bench_weights(n, k);
    for fresh in [PimContext::paper_system, PimContext::small_system] {
        let mut reference = fresh();
        reference.sys.set_fastpath_enabled(false);
        let mut ref_plan = GemvPlan::prepare(&mut reference, &w, n, k).expect("shape fits");
        let mut fast: Vec<(PimContext, GemvPlan)> = BACKENDS
            .iter()
            .map(|&backend| {
                let mut ctx = fresh();
                ctx.set_backend(backend);
                let plan = GemvPlan::prepare(&mut ctx, &w, n, k).expect("shape fits");
                (ctx, plan)
            })
            .collect();
        let channels = reference.sys.channel_count() as u64;
        for launch in 0..4 {
            let x = bench_input(k, launch);
            let (y, report) = ref_plan.launch(&mut reference, &x).expect("reference launch");
            for (ctx, plan) in &mut fast {
                let at = format!("{channels} channels, {:?}, launch {launch}", ctx.backend());
                let before = ctx.sys.fastpath_channels();
                let (got, r) = plan.launch(ctx, &x).expect("launch");
                assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits(&y), "{at}");
                assert_eq!(r, report, "{at}");
                assert_eq!(measured(&ctx.sys), measured(&reference.sys), "{at}");
                let units = n.div_ceil(16);
                assert_eq!(partial_sums(&ctx.sys, units), partial_sums(&reference.sys, units));
                if launch == 0 {
                    assert_eq!(channels_since(&ctx.sys, before), (1, channels - 1), "{at}");
                }
            }
        }
        for len in [128, 4096] {
            let (a, b) = (bench_input(len, 1), bench_input(len, 8));
            let (z, report) = PimBlas::add(&mut reference, &a, &b).expect("reference add");
            for (ctx, _) in &mut fast {
                let at = format!("{channels} channels, {:?}, ADD {len}", ctx.backend());
                let (got, r) = PimBlas::add(ctx, &a, &b).expect("add");
                assert_eq!(bits(&got), bits(&z), "{at}");
                assert_eq!(r, report, "{at}");
                assert_eq!(measured(&ctx.sys), measured(&reference.sys), "{at}");
            }
        }
        for (ctx, _) in &fast {
            let stats = ctx.sys.fastpath_stats();
            assert_eq!((stats.hits, stats.uncacheable), (2, 0), "{:?}: {stats:?}", ctx.backend());
            let total = ctx.sys.fastpath_channels();
            assert_eq!(
                total.simulated + total.replayed,
                6 * channels,
                "every list is counted once"
            );
            assert!(total.simulated < 16, "{:?}: {total:?}", ctx.backend());
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The headline: a cold `PimBlas::gemv` of Table VI GEMV1 on the paper
/// system is one miss and one insertion, as ever — and simulates exactly
/// one of its 64 channels, under both backends. The recorder a context
/// carries reads the same figures.
#[test]
fn a_cold_gemv1_simulates_one_channel_and_replays_63() {
    let (n, k) = (1024, 4096);
    let w = bench_weights(n, k);
    let x = bench_input(k, 1);
    let mut outputs = Vec::new();
    for backend in BACKENDS {
        let mut ctx = PimContext::paper_system();
        ctx.set_backend(backend);
        // The runtime's recorder only: one on the channels would make the
        // launch uncacheable.
        let recorder = Recorder::vec();
        ctx.recorder = Some(recorder.clone());
        let (y, report) = PimBlas::gemv(&mut ctx, &w, n, k, &x).expect("GEMV1");
        assert_eq!(
            ctx.sys.fastpath_stats(),
            FastpathStats { misses: 1, insertions: 1, ..FastpathStats::default() },
            "{backend:?}"
        );
        assert_eq!(
            ctx.sys.fastpath_channels(),
            FastpathChannels { simulated: 1, replayed: 63 },
            "{backend:?}"
        );
        let counters = recorder.metrics().registry;
        assert_eq!(counters.counter(names::FASTPATH_CHANNELS_SIMULATED), 1);
        assert_eq!(counters.counter(names::FASTPATH_CHANNELS_REPLAYED), 63);
        assert_eq!(counters.counter(names::FASTPATH_MISSES), 1);
        outputs.push((bits(&y), report));
    }
    assert_eq!(outputs[0], outputs[1], "backends disagree");
}

/// Nothing classes where nothing may be memoized: with the fast path
/// disabled, a fault plan installed or a recorder on the channels, every
/// launch simulates every channel, as it always has.
#[test]
fn uncached_systems_simulate_every_channel() {
    let w = bench_weights(N, K);
    type Setup = fn(&mut PimContext);
    let setups: [(&str, Setup); 3] = [
        ("fast path disabled", |ctx| ctx.sys.set_fastpath_enabled(false)),
        ("fault plan installed", |ctx| ctx.inject_faults(&FaultPlan::quiet(3))),
        ("channel recorder attached", |ctx| ctx.enable_profiling(Recorder::counting())),
    ];
    for (what, setup) in setups {
        let mut ctx = PimContext::paper_system();
        setup(&mut ctx);
        let mut plan = GemvPlan::prepare(&mut ctx, &w, N, K).expect("shape fits");
        let _ = transcript(&mut ctx, &mut plan, 3);
        assert_eq!(
            ctx.sys.fastpath_channels(),
            FastpathChannels { simulated: 3 * 64, replayed: 0 },
            "{what}"
        );
        let stats = ctx.sys.fastpath_stats();
        assert_eq!((stats.hits, stats.insertions), (0, 0), "{what}: {stats:?}");
    }
}

/// 64 distinct lists are 64 classes: every channel is simulated until the
/// launch as a whole replays, and the results are the reference's.
#[test]
fn distinct_lists_simulate_every_channel() {
    let lists = synthetic_batches(64, 12, 0x5EED);
    let mode = ExecutionMode::Fenced { reorder_seed: None };
    let mut reference = PimContext::paper_system().sys;
    reference.set_fastpath_enabled(false);
    let want: Vec<_> = (0..4)
        .map(|_| (KernelEngine::run_system(&mut reference, &lists, mode), measured(&reference)))
        .collect();
    for backend in BACKENDS {
        let mut sys = PimContext::paper_system().sys;
        sys.set_backend(backend);
        let mut per_launch = Vec::new();
        for (launch, (r, m)) in want.iter().enumerate() {
            let before = sys.fastpath_channels();
            assert_eq!(&KernelEngine::run_system(&mut sys, &lists, mode), r, "launch {launch}");
            assert_eq!(&measured(&sys), m, "{backend:?} launch {launch}");
            per_launch.push(channels_since(&sys, before));
        }
        assert_eq!(per_launch, [(64, 0), (64, 0), (0, 64), (0, 64)], "{backend:?}");
    }
}
