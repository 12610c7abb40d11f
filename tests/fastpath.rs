//! Integration tests of the launch-memoization fast path
//! (`docs/FASTPATH.md`): warm replay is observationally identical to cold
//! simulation, every invalidation edge actually misses, traced runs stay
//! cold, and serving artifacts are byte-identical with the fast path on or
//! off. The unmasked, uncached reference is a context under a quiet fault
//! plan: it injects nothing, but the engine drops every live-unit mask and
//! the launch cache, so every unit of every channel simulates.

use pim_bench::json;
use pim_bench::serve::report_json;
use pim_bench::workloads::{bench_input, bench_weights, synthetic_batches};
use pim_core::PimConfig;
use pim_faults::FaultPlan;
use pim_host::{
    predict_launch, ExecutionMode, FastpathChannels, FastpathStats, HostConfig, KernelEngine,
    KernelResult, PimSystem,
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

    // ADD 1024 pinned to channel groups 1, 6 and 11 — 12 of 64 channels
    // launch, the other 52 run `&[]` — under the watchdog's cycle limit.
    // The arena resets per request and the cache outlives it, so the 12
    // participants and the 52 bystanders are two classes, one channel of
    // each simulated once, and every other channel of the four launches
    // replays; the whole report equals the unmasked, uncached one.
    let pinned = |i: u64| ServeRequest {
        tenant: 0,
        arrival: i * 100_000,
        deadline: i * 100_000 + 400_000,
        groups: Some(vec![1, 6, 11]),
        budget: None,
        op: ServeOp::Add { x: bench_input(1024, i), y: bench_input(1024, i + 7) },
    };
    let serve = |setup: &dyn Fn(&mut PimContext)| {
        let mut ctx = PimContext::paper_system();
        setup(&mut ctx);
        let mut server = Server::new(&mut ctx, ServeConfig::default());
        let report = server.run((0..4).map(pinned).collect()).expect("serve run");
        (report, ctx.sys.fastpath_channels())
    };
    let (reference, _) = serve(&|ctx| ctx.inject_faults(&FaultPlan::quiet(0)));
    assert_eq!(reference.stats.completed, 4, "{:?}", reference.stats);
    let (report, channels) = serve(&|_| {});
    assert_eq!(report, reference);
    assert_eq!(channels, FastpathChannels { simulated: 2, replayed: 4 * 64 - 2 });
}

/// The serving-campaign JSON artifact is byte-identical too (the artifact
/// CI diffs), via the same exporter `pimcampaign serve` uses.
#[test]
fn serve_campaign_artifact_byte_identical() {
    use pim_bench::campaign::TraceShape;
    use pim_bench::serve::{run_campaign, ServeCampaignConfig};
    let d = ServeCampaignConfig::default();
    let cfg = ServeCampaignConfig {
        trace: TraceShape { elements: 512, requests: 6, ..d.trace },
        intervals: vec![5_000],
        fault_rates: vec![0.0],
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
        let a =
            Executor::try_run(&mut ctx, 2, &unprovable, None, false, &data).expect("kernel launch");
        let b =
            Executor::try_run(&mut ctx, 2, &unprovable, None, false, &data).expect("kernel launch");
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
        let _ =
            Executor::try_run(&mut ctx, 2, &provable, None, false, &data).expect("kernel launch");
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

/// Every channel's clock, controller statistics and `LaunchAccounting`:
/// what a masked launch must leave exactly as the unmasked one does. (A
/// faulted channel has no fingerprint, so `measured` cannot compare them.)
fn statistics(sys: &PimSystem) -> Vec<impl PartialEq + std::fmt::Debug + '_> {
    (0..sys.channel_count())
        .map(|i| {
            let (c, now) = (sys.channel(i), sys.channel(i).now());
            (now, c.stats(), c.sink().launch_accounting(now))
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

/// Lock-step GEMV and stream ADDs, over 64 and over 16 channels. After
/// every launch the outputs, the report and every channel's measured state
/// equal a fast-path-off reference, the live units hold the reference's
/// partial sums, and the reference itself returns what the unmasked,
/// uncached system returns — outputs, report, partial sums and every
/// channel's controller, device, DRAM and per-unit statistics under a quiet
/// fault plan, which makes the engine drop every mask and the cache. The
/// cold launch simulates one channel per entry class, and the plan hits as
/// often as it ever did. GEMV rows: n = 1000 (the last live channel partly
/// populated, the rest of the system all-dead); the same with channel 5
/// entering 700 cycles late, a class of its own; and Table VI GEMV1 at 1/8
/// scale under the seeded shuffle the engine, the replay and the predictor
/// must all issue in the same order.
#[test]
fn lock_step_launches_equal_the_cold_reference_on_every_channel() {
    let in_order = ExecutionMode::Fenced { reorder_seed: None };
    let seeded = ExecutionMode::Fenced { reorder_seed: Some(0xF16) };
    let demo = ExecutionMode::UnfencedReordered { seed: 0xF16 };
    // (n, k, mode, skew, cache hits over the four launches): the skewed
    // channel needs a launch more than the rest to reach its steady state.
    // The demo's sums are garbage, so outputs compare as bits.
    let rows = [
        (1000, K, in_order, None, 2),
        (1000, K, in_order, Some((5, 700)), 1),
        (128, 512, seeded, None, 2),
        (128, 512, demo, None, 2),
    ];
    for fresh in [PimContext::paper_system, PimContext::small_system] {
        for (n, k, mode, skew, hits) in rows {
            let w = bench_weights(n, k);
            let boot = |setup: &dyn Fn(&mut PimContext)| {
                let mut ctx = fresh();
                ctx.set_mode(mode);
                setup(&mut ctx);
                if let Some((ch, cycles)) = skew {
                    ctx.sys.channel_mut(ch).advance_to(cycles);
                }
                let plan = GemvPlan::prepare(&mut ctx, &w, n, k).expect("shape fits");
                (ctx, plan)
            };
            let (mut reference, mut ref_plan) = boot(&|ctx| ctx.sys.set_fastpath_enabled(false));
            let (mut unmasked, mut unmasked_plan) =
                boot(&|ctx| ctx.inject_faults(&FaultPlan::quiet(0)));
            let (mut fast, mut plan) = boot(&|_| {});
            let channels = reference.sys.channel_count() as u64;
            let classes = 1 + u64::from(skew.is_some());
            let units = n.div_ceil(16);
            for launch in 0..4 {
                let x = bench_input(k, launch);
                let (y, report) = ref_plan.launch(&mut reference, &x).expect("reference launch");
                let sums = partial_sums(&reference.sys, units);
                let row =
                    format!("{channels} channels, {n}x{k} {mode:?} skew {skew:?}, launch {launch}");
                let (full, full_report) = unmasked_plan.launch(&mut unmasked, &x).expect("launch");
                assert_eq!((bits(&full), full_report), (bits(&y), report), "unmasked, {row}");
                assert_eq!(partial_sums(&unmasked.sys, units), sums, "unmasked, {row}");
                assert_eq!(
                    statistics(&unmasked.sys),
                    statistics(&reference.sys),
                    "unmasked, {row}"
                );
                let before = fast.sys.fastpath_channels();
                let (got, r) = plan.launch(&mut fast, &x).expect("launch");
                assert_eq!(bits(&got), bits(&y), "{row}");
                assert_eq!(r, report, "{row}");
                assert_eq!(measured(&fast.sys), measured(&reference.sys), "{row}");
                assert_eq!(partial_sums(&fast.sys, units), sums, "{row}");
                if launch == 0 {
                    let classed = channels_since(&fast.sys, before);
                    assert_eq!(classed, (classes, channels - classes), "{row}");
                }
            }
            for len in [128, 4096] {
                let (a, b) = (bench_input(len, 1), bench_input(len, 8));
                let (z, report) = PimBlas::add(&mut reference, &a, &b).expect("reference add");
                let at = format!("{channels} channels, ADD {len}");
                let (got, r) = PimBlas::add(&mut fast, &a, &b).expect("add");
                assert_eq!(bits(&got), bits(&z), "{at}");
                assert_eq!(r, report, "{at}");
                assert_eq!(measured(&fast.sys), measured(&reference.sys), "{at}");
            }
            let at = format!("{channels} channels, {n}x{k} {mode:?} skew {skew:?}");
            let stats = fast.sys.fastpath_stats();
            assert_eq!((stats.hits, stats.uncacheable), (hits, 0), "{at}: {stats:?}");
            let total = fast.sys.fastpath_channels();
            assert_eq!(total.simulated + total.replayed, 6 * channels, "{at}");
            assert!(total.simulated < 16, "{at}: {total:?}");
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The headline: a cold `PimBlas::gemv` of Table VI GEMV1 on the paper
/// system is one miss and one insertion, as ever — and simulates exactly
/// one of its 64 channels. The recorder a context carries reads the same
/// figures.
#[test]
fn a_cold_gemv1_simulates_one_channel_and_replays_63() {
    let (n, k) = (1024, 4096);
    let w = bench_weights(n, k);
    let x = bench_input(k, 1);
    let mut ctx = PimContext::paper_system();
    // The runtime's recorder only: one on the channels would make the
    // launch uncacheable.
    let recorder = Recorder::vec();
    ctx.recorder = Some(recorder.clone());
    PimBlas::gemv(&mut ctx, &w, n, k, &x).expect("GEMV1");
    assert_eq!(
        ctx.sys.fastpath_stats(),
        FastpathStats { misses: 1, insertions: 1, ..FastpathStats::default() }
    );
    assert_eq!(ctx.sys.fastpath_channels(), FastpathChannels { simulated: 1, replayed: 63 });
    let counters = recorder.metrics().registry;
    assert_eq!(counters.counter(names::FASTPATH_CHANNELS_SIMULATED), 1);
    assert_eq!(counters.counter(names::FASTPATH_CHANNELS_REPLAYED), 63);
    assert_eq!(counters.counter(names::FASTPATH_MISSES), 1);
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
/// launch as a whole replays, and the results are the reference's — which
/// `predict_launch` gives before each reference launch runs, from whatever
/// state the previous one left. In order and fenced.
#[test]
fn distinct_lists_simulate_every_channel() {
    let lists = synthetic_batches(64, 12, 0x5EED);
    for mode in [ExecutionMode::Fenced { reorder_seed: None }, ExecutionMode::Ordered] {
        let mut reference = PimContext::paper_system().sys;
        reference.set_fastpath_enabled(false);
        let want: Vec<_> = (0..4)
            .map(|launch| {
                let p = predict_launch(&reference, &lists, mode, None).expect("a quiescent entry");
                let r = KernelEngine::run_system(&mut reference, &lists, mode);
                let ran = (r.end_cycle, r.commands, r.fences);
                assert_eq!((p.end_cycle, p.commands, p.fences), ran, "{mode:?} launch {launch}");
                (r, measured(&reference))
            })
            .collect();
        let mut sys = PimContext::paper_system().sys;
        let mut per_launch = Vec::new();
        for (launch, (r, m)) in want.iter().enumerate() {
            let at = format!("{mode:?} launch {launch}");
            let before = sys.fastpath_channels();
            assert_eq!(&KernelEngine::run_system(&mut sys, &lists, mode), r, "{at}");
            assert_eq!(&measured(&sys), m, "{at}");
            per_launch.push(channels_since(&sys, before));
        }
        assert_eq!(per_launch, [(64, 0), (64, 0), (0, 64), (0, 64)], "{mode:?}");
    }
}

/// The exact gate on the simulated numbers: the seeded 64-channel smoke
/// workload, fully simulated (fast path off), ends at this cycle having
/// issued this many commands, and the closed-form predictor says the same
/// before the run. A change that moves these moved the DRAM timing model or
/// the engine's issue order, and re-pins on purpose.
#[test]
fn synthetic64_simulated_numbers_are_pinned() {
    let per_channel = synthetic_batches(64, 400, 0x5EED);
    let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
    sys.set_fastpath_enabled(false);
    let p = predict_launch(&sys, &per_channel, ExecutionMode::Ordered, None)
        .expect("a fresh system is in the predictor's domain");
    let r = KernelEngine::run_system(&mut sys, &per_channel, ExecutionMode::Ordered);
    assert_eq!(r, KernelResult { end_cycle: 20595, commands: 256_000, fences: 0 });
    assert_eq!((p.end_cycle, p.commands, p.fences), (r.end_cycle, r.commands, r.fences));
}

/// A live tFAW window is part of the fingerprint, not a reason to run
/// cold. With tFAW ≥ tRAS (`TimingParams::validate` allows it) the last
/// ACTs of a launch of ACT / 8×RD / PRE triples are still in the window when
/// it ends. Launch 1 records from power-on, launch 2 from that live window,
/// and launch 3, entering the state launch 2 did, replays — equal to a cold
/// run in end cycle, commands, every channel's clock seen from `now`, stats,
/// residency and the bytes of every row the launch names.
#[test]
fn a_live_faw_window_is_recorded_and_replayed_exactly() {
    let mut timing = pim_dram::TimingParams::hbm2();
    timing.t_faw = 4 * timing.t_rc;
    let lists = synthetic_batches(1, 12, 0xFA3);
    let mode = ExecutionMode::Ordered;
    let system = |fastpath| {
        let host = pim_host::HostConfig::paper();
        let mut sys = PimSystem::with_timing(host, pim_core::PimConfig::paper(), timing.clone());
        sys.set_fastpath_enabled(fastpath);
        sys
    };
    let bytes = |sys: &PimSystem| -> Vec<[u8; 32]> {
        let dram = sys.channel(0).sink().dram();
        let rows = lists[0].iter().flat_map(|b| &b.commands).filter_map(|c| match *c {
            pim_dram::Command::Act { bank, row } => Some((bank, row)),
            _ => None,
        });
        rows.flat_map(|(bank, row)| (0..32).map(move |col| dram.bank(bank).peek_block(row, col)))
            .collect()
    };
    let (mut cold, mut warm) = (system(false), system(true));
    for launch in 0..3 {
        let r = KernelEngine::run_system(&mut cold, &lists, mode);
        assert_eq!(KernelEngine::run_system(&mut warm, &lists, mode), r, "launch {launch}");
        assert_eq!(measured(&warm), measured(&cold), "launch {launch}");
        assert_eq!(bytes(&warm), bytes(&cold), "launch {launch}");
    }
    let stats = warm.fastpath_stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 2), "{stats:?}");
}
