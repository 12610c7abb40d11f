//! `serve_mix`: single-stack `Server::run` at three load points. A is a clean
//! steady load (its shortest gap outlasts a request's service time, so nothing
//! queues), B is overload (sheds and deadline misses are the designed
//! outcome), C is idle but faulty (retry → re-layout → host-fallback ladder,
//! breakers, fast path disabled by the fault plan). A against B isolates
//! scheduler cost from kernel cost.

use super::gemv::hit_ratio;
use super::{audit, system_commands, Rep, Scale, Sim, Workload};
use crate::gen::{build_trace, fault_mix, TraceShape};
use crate::stats::percentile_u64;
use pim_host::FastpathStats;
use pim_runtime::{PimContext, ServeConfig, ServeReport, ServeRequest, ServeStats, Server};
use std::time::Instant;

/// One load point: its letter, trace, oracles and base fault rate.
pub struct Point {
    pub letter: char,
    pub trace: Vec<ServeRequest>,
    pub oracles: Vec<Vec<f32>>,
    pub fault_rate: f64,
}

/// What one point's run returned, with the host time it took.
pub struct PointRun {
    pub wall_s: f64,
    pub report: ServeReport,
    pub commands: u64,
    pub fastpath: FastpathStats,
    pub seconds_per_cycle: f64,
}

pub struct ServeMix {
    seed: u64,
    pub points: Vec<Point>,
}

/// The serving configuration of every point (the `pimserve` campaign's).
pub fn serve_config() -> ServeConfig {
    ServeConfig { breaker_threshold: 2, ..ServeConfig::default() }
}

impl ServeMix {
    pub fn setup(seed: u64, scale: Scale) -> ServeMix {
        let elements = scale.pick(4096, 512);
        let shape =
            |requests, gap, slack| TraceShape { requests, elements, tenants: 4, gap, slack };
        let specs = [
            ('A', shape(scale.pick(600, 48), 2_000, 40_000), 0.0),
            ('B', shape(scale.pick(300, 32), 150, 4_000), 0.0),
            ('C', shape(scale.pick(300, 24), 20_000, 40_000), 1e-3),
        ];
        let points = specs
            .into_iter()
            .map(|(letter, shape, fault_rate)| {
                let (trace, oracles) = build_trace(seed, letter as u64, shape);
                Point { letter, trace, oracles, fault_rate }
            })
            .collect();
        ServeMix { seed, points }
    }

    /// A fresh single-stack context for `point` (faults installed at C).
    pub fn fresh_context(&self, point: &Point) -> PimContext {
        let mut ctx = PimContext::small_system();
        if point.fault_rate > 0.0 {
            ctx.inject_faults(&fault_mix(self.seed, point.fault_rate));
        }
        ctx
    }

    /// Runs `point` on `ctx`, timing only `Server::new` + `Server::run`.
    pub fn run_point(point: &Point, ctx: &mut PimContext) -> Result<PointRun, String> {
        let trace = point.trace.clone();
        let watch = Instant::now();
        let report = Server::new(ctx, serve_config()).run(trace);
        let wall_s = watch.elapsed().as_secs_f64();
        Ok(PointRun {
            wall_s,
            report: report.map_err(|e| format!("point {}: {e}", point.letter))?,
            commands: system_commands(&ctx.sys),
            fastpath: ctx.sys.fastpath_stats(),
            seconds_per_cycle: ctx.sys.cycles_to_seconds(1),
        })
    }
}

/// The `runtime.serve.*` and fast-path counters of one point, suffixed with
/// its letter.
pub fn point_counts(letter: char, s: &ServeStats, fp: &FastpathStats) -> Vec<(String, f64)> {
    [
        ("runtime.serve.completed", s.completed),
        ("runtime.serve.admitted", s.admitted),
        ("runtime.serve.shed_queue_full", s.shed_queue_full),
        ("runtime.serve.shed_overloaded", s.shed_overloaded),
        ("runtime.serve.deadline_missed", s.deadline_missed),
        ("runtime.serve.host_fallbacks", s.host_fallbacks),
        ("runtime.serve.watchdog_cancels", s.watchdog_cancels),
        ("runtime.serve.breaker_trips", s.breaker_trips),
        ("runtime.serve.relayouts", s.relayouts),
    ]
    .into_iter()
    .map(|(name, v)| (format!("{name}.{letter}"), v as f64))
    .chain([(format!("host.fastpath.hit_ratio.{letter}"), hit_ratio(fp))])
    .collect()
}

impl Workload for ServeMix {
    fn rep(&mut self, _index: usize) -> Rep {
        let mut wall_s = 0.0;
        let mut sim = Sim::default();
        let (mut cycles, mut served_elems, mut seconds) = (0u64, 0u64, 0.0);
        for point in &self.points {
            sim.attempted += point.trace.len() as u64;
            let mut ctx = self.fresh_context(point);
            let Ok(run) = ServeMix::run_point(point, &mut ctx) else {
                sim.failed += point.trace.len() as u64;
                continue;
            };
            wall_s += run.wall_s;
            let s = &run.report.stats;
            let (served, wrong) = audit(&run.report.outcomes, &point.oracles);
            sim.unserved += s.shed_queue_full + s.shed_overloaded + s.deadline_missed;
            sim.wrong_answers += wrong;
            sim.commands += run.commands;
            cycles += run.report.end_cycle;
            served_elems += served - wrong;
            seconds += run.report.end_cycle as f64 * run.seconds_per_cycle;
            if point.letter == 'A' {
                let latencies = run.report.served_latencies();
                sim.latency_p50 = percentile_u64(&latencies, 50);
                sim.latency_p99 = percentile_u64(&latencies, 99);
            }
            sim.counts.extend(point_counts(point.letter, s, &run.fastpath));
        }
        sim.cycles_per_op = cycles as f64 / sim.attempted as f64;
        sim.goodput_eps = if seconds > 0.0 { served_elems as f64 / seconds } else { 0.0 };
        Rep { wall_s, sim }
    }
}
