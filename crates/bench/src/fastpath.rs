//! Cold-vs-warm launch benchmarking for the launch-memoization fast path.
//!
//! A [`pim_runtime::GemvPlan`] launched repeatedly settles into a steady
//! state where every launch replays recorded timing instead of simulating
//! (see `docs/FASTPATH.md`). This module measures that: the cold (fully
//! simulated) launch wall time, the warm (replayed) launch wall time, and
//! the deterministic evidence that the two are observationally identical
//! — steady-state reports byte-for-byte equal, outputs bit-equal to the
//! FP32 reference shape of the run.
//!
//! `cargo run --release -p pim-bench --bin bench_fastpath` sweeps the
//! committed workloads and writes `BENCH_fastpath.json` — absolute cold
//! and warm seconds per entry; the perf gate (`perfgate`) holds every
//! committed entry to `exact`. The quotient of the two times is printed
//! but gates nothing: both sides legitimately get faster, and it falls
//! whenever the cold side gains more.

use crate::json::{obj, Json};
use crate::parallel::{cpu_time_s, XorShift64};
use pim_runtime::{GemvPlan, KernelReport, PimContext};
use std::time::Instant;

/// One workload's cold/warm fast-path measurement.
#[derive(Debug, Clone)]
pub struct FastpathMeasurement {
    /// Workload label (`GEMV1`, a model layer, ...).
    pub name: String,
    /// Output dimension.
    pub n: usize,
    /// Input dimension.
    pub k: usize,
    /// Wall seconds of the first (cold, fully simulated) launch.
    pub cold_wall_s: f64,
    /// Mean wall seconds per steady-state (replayed) launch.
    pub warm_wall_s: f64,
    /// Steady-state launches measured.
    pub warm_launches: usize,
    /// Cold over warm launch wall time — the fast path's speedup.
    pub warm_over_cold_ratio: f64,
    /// The steady-state per-launch report (identical for every warm
    /// launch; deterministic).
    pub steady: KernelReport,
    /// Fast-path cache hits observed across the measurement.
    pub hits: u64,
    /// Fast-path cache misses observed across the measurement.
    pub misses: u64,
    /// Whether every warm launch's output was bit-identical to the cold
    /// steady-state launch and every warm report matched exactly.
    pub exact: bool,
}

impl FastpathMeasurement {
    /// The JSON object committed per entry in `BENCH_fastpath.json`.
    pub fn to_json(&self) -> Json {
        obj([
            ("name", Json::Str(self.name.clone())),
            ("n", Json::Num(self.n as f64)),
            ("k", Json::Num(self.k as f64)),
            ("cold_wall_s", Json::Num(self.cold_wall_s)),
            ("warm_wall_s", Json::Num(self.warm_wall_s)),
            ("warm_launches", Json::Num(self.warm_launches as f64)),
            ("warm_over_cold_ratio", Json::Num(self.warm_over_cold_ratio)),
            ("steady_sim_cycles", Json::Num(self.steady.cycles as f64)),
            ("steady_commands", Json::Num(self.steady.commands as f64)),
            ("steady_fences", Json::Num(self.steady.fences as f64)),
            ("fastpath_hits", Json::Num(self.hits as f64)),
            ("fastpath_misses", Json::Num(self.misses as f64)),
            ("exact", Json::Bool(self.exact)),
        ])
    }
}

/// Deterministic weight matrix for a bench shape.
pub fn bench_weights(n: usize, k: usize) -> Vec<f32> {
    let mut rng = XorShift64::new(0xFA57_0000 ^ (n as u64) << 20 ^ k as u64);
    (0..n * k).map(|_| ((rng.next_u64() % 64) as f32 - 32.0) / 64.0).collect()
}

/// Deterministic input vector `salt` for a bench shape.
pub fn bench_input(k: usize, salt: u64) -> Vec<f32> {
    let mut rng = XorShift64::new(0x1A7C_0000 ^ (k as u64) << 8 ^ salt);
    (0..k).map(|_| ((rng.next_u64() % 32) as f32 - 16.0) / 32.0).collect()
}

/// Measures one `n × k` GEMV shape: prepares a plan on a fresh paper
/// system, times the cold launch, lets launch 2 record the steady state,
/// then times `warm_launches` replayed launches. Inputs vary per launch
/// (the cache key covers the program, not the data), so the warm numbers
/// are honest serving-path numbers, not same-input shortcuts.
pub fn measure_fastpath(
    name: &str,
    n: usize,
    k: usize,
    warm_launches: usize,
) -> FastpathMeasurement {
    let w = bench_weights(n, k);
    let mut ctx = PimContext::paper_system();
    let mut plan = GemvPlan::prepare(&mut ctx, &w, n, k).expect("bench shape fits");

    let cold_watch = Instant::now();
    let (_y1, _r1) = plan.launch(&mut ctx, &bench_input(k, 1)).expect("cold launch");
    let cold_wall_s = cold_watch.elapsed().as_secs_f64();

    // Launch 2 runs cold from the recurring post-readback state and
    // records it; its result is the steady-state reference.
    let x_ref = bench_input(k, 2);
    let (y_ref, steady) = plan.launch(&mut ctx, &x_ref).expect("recording launch");

    let mut exact = true;
    // Launch 3 is the first replay: it compiles the per-channel data
    // tapes (see `pim_core::DataTape`), a one-time cost that is part of
    // warming up, not of the steady state — run it untimed but hold it
    // to the same exactness bar as the timed launches.
    let (y_tape, r_tape) = plan.launch(&mut ctx, &x_ref).expect("tape-compile launch");
    exact &= r_tape == steady && y_tape == y_ref;

    let before = ctx.sys.fastpath_stats();
    let warm_watch = Instant::now();
    let warm_cpu = cpu_time_s();
    for i in 0..warm_launches {
        // Alternate a fresh input with the reference input; the latter's
        // replayed output must be bit-identical to the recorded run's.
        let same = i % 2 == 1;
        let x = if same { x_ref.clone() } else { bench_input(k, 3 + i as u64) };
        let (y, r) = plan.launch(&mut ctx, &x).expect("warm launch");
        exact &= r == steady;
        if same {
            exact &= y == y_ref;
        }
    }
    let warm_wall_total = warm_watch.elapsed().as_secs_f64();
    let _ = warm_cpu;
    let after = ctx.sys.fastpath_stats();

    let warm_wall_s = warm_wall_total / warm_launches.max(1) as f64;
    FastpathMeasurement {
        name: name.to_string(),
        n,
        k,
        cold_wall_s,
        warm_wall_s,
        warm_launches,
        warm_over_cold_ratio: cold_wall_s / warm_wall_s.max(1e-12),
        steady,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        exact,
    }
}

/// The committed sweep: Table VI's GEMV1 plus a
/// model-zoo layer — AlexNet's first PIM-offloaded fully connected layer,
/// the serving-shaped kernel the paper's stack actually replays.
pub fn sweep(smoke: bool) -> Vec<FastpathMeasurement> {
    let (scale, warm) = if smoke { (8, 6) } else { (1, 20) };
    let gemv1 = crate::workloads::gemv_workloads()[0];
    let fc = model_zoo_fc();
    vec![
        measure_fastpath(gemv1.name, (gemv1.n / scale).max(1), (gemv1.k / scale).max(1), warm),
        measure_fastpath(&fc.0, (fc.1 / scale).max(1), (fc.2 / scale).max(1), warm),
    ]
}

/// `(label, n, k)` of the model-zoo kernel in the sweep: the first
/// PIM-eligible fully connected layer across the evaluated models.
pub fn model_zoo_fc() -> (String, usize, usize) {
    for m in pim_models::models::all_models() {
        for l in &m.layers {
            if let pim_models::Layer::FullyConnected { name, n, k, pim_eligible: true } = l {
                return (format!("{}/{}", m.name, name), *n, *k);
            }
        }
    }
    unreachable!("the model zoo always has a PIM-eligible FC layer");
}

/// Assembles the `BENCH_fastpath.json` document.
pub fn to_json(entries: &[FastpathMeasurement], smoke: bool) -> Json {
    obj([
        ("schema", Json::Str("pim-bench/fastpath-v1".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("entries", Json::Arr(entries.iter().map(FastpathMeasurement::to_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_exact_and_warm() {
        let entries = sweep(true);
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert!(e.exact, "{}: warm launches diverged from cold", e.name);
            assert!(e.hits >= e.warm_launches as u64, "{}: {:?}", e.name, e);
            assert!(e.steady.cycles > 0);
        }
    }

    #[test]
    fn model_zoo_pick_is_stable() {
        let (name, n, k) = model_zoo_fc();
        assert!(n > 0 && k > 0);
        assert!(name.contains('/'));
    }
}
