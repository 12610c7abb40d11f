//! Ladders of `serve_mix` and `cluster_chaos`: the scheduler's run → the
//! same requests as direct `PimBlas::add`/`mul` calls (what the kernels cost
//! without queues, EDF, cost model, breakers, routing) → the FP16
//! conversions those calls make.

use super::{Run, Traced};
use crate::gen::{fault_mix, stream_operands};
use crate::workloads::cluster_chaos::{gemv_operands, row_parallel_gemv, ClusterChaos};
use crate::workloads::serve_mix::{serve_config, ServeMix};
use crate::workloads::{audit, count_wrong, Scale, Workload};
use pim_fp16::{f16_slice_to_f32, f32_slice_to_f16};
use pim_obs::{names, Recorder};
use pim_runtime::{
    resilient_add, ClusterContext, ClusterServeConfig, ClusterServer, Disposition, PimBlas,
    PimContext, PimError, ResilienceConfig, ServeOp, ServeRequest, Server,
};
use std::hint::black_box;

fn operands(op: &ServeOp) -> (&[f32], &[f32]) {
    match op {
        ServeOp::Add { x, y } | ServeOp::Mul { x, y } => (x, y),
    }
}

/// One request as the serving layer's kernel path runs it: arena reset,
/// layout, launch, gather — minus everything the scheduler adds.
fn direct(ctx: &mut PimContext, op: &ServeOp) -> Result<Vec<f32>, PimError> {
    ctx.reset_memory();
    let (x, y) = operands(op);
    Ok(match op {
        ServeOp::Add { .. } => PimBlas::add(ctx, x, y)?,
        ServeOp::Mul { .. } => PimBlas::mul(ctx, x, y)?,
    }
    .0)
}

/// Times `requests` as direct BLAS calls (a child of `parent`) and, below
/// that, their FP16 conversions. Returns how many results were wrong.
fn direct_rungs(
    run: &mut Run,
    parent: &str,
    requests: &[(&ServeRequest, &Vec<f32>)],
) -> Result<u64, String> {
    let mut ctx = PimContext::small_system();
    let results = run.t.time("runtime.blas.stream", Some(parent), || {
        requests.iter().map(|(r, _)| direct(&mut ctx, &r.op)).collect::<Result<Vec<_>, _>>()
    });
    let results = results.map_err(|e| e.to_string())?;
    run.t.time("fp16.convert", Some("runtime.blas.stream"), || {
        for (r, _) in requests {
            let (x, y) = operands(&r.op);
            let x16 = f32_slice_to_f16(x);
            black_box(f32_slice_to_f16(y));
            black_box(f16_slice_to_f32(&x16));
        }
    });
    Ok(results.iter().zip(requests).map(|(got, (_, want))| count_wrong(got, want)).sum())
}

pub fn serve_mix(mut run: Run, seed: u64, scale: Scale) -> Result<Traced, String> {
    const ROOT: &str = "runtime.serve.run.A";
    let mut workload = ServeMix::setup(seed, scale);
    let mut failed = 0u64;
    let (mut elements_a, mut fallback_elems, mut resilient_elems) = (0.0, 0.0, 0.0);
    while run.again() {
        let i = run.iteration();
        run.untraced(workload.rep(i));
        for point in &workload.points {
            let span = format!("runtime.serve.run.{}", point.letter);
            let mut ctx = workload.fresh_context(point);
            let trace = point.trace.clone();
            let report =
                run.t.time(&span, None, || Server::new(&mut ctx, serve_config()).run(trace));
            let report = report.map_err(|e| e.to_string())?;
            let submitted = report.stats.submitted as f64;
            run.set(
                &format!("runtime.serve.host_us_per_req.{}", point.letter),
                Run::ratio(run.s(&span) * 1e6, submitted),
            );
            run.set(
                &format!("runtime.serve.useful_ratio.{}", point.letter),
                Run::ratio(report.stats.completed as f64, submitted),
            );
            let by = |d: Disposition| -> Vec<(&ServeRequest, &Vec<f32>)> {
                report
                    .outcomes
                    .iter()
                    .zip(point.trace.iter().zip(&point.oracles))
                    .filter(|(o, _)| o.disposition == d)
                    .map(|(_, pair)| pair)
                    .collect()
            };
            match point.letter {
                'A' => {
                    let completed = by(Disposition::Completed);
                    elements_a =
                        completed.iter().map(|(r, _)| operands(&r.op).0.len()).sum::<usize>()
                            as f64;
                    failed += direct_rungs(&mut run, ROOT, &completed)?;
                }
                'C' => {
                    // The bottom of the degradation ladder: scalar FP16 on
                    // the host, for as many requests as fell back. (The
                    // outcomes cannot say which: a fallback that finishes
                    // late ends as `DeadlineMissed`.)
                    let n = report.stats.host_fallbacks as usize;
                    let fell_back = &point.trace[..n.min(point.trace.len())];
                    fallback_elems =
                        fell_back.iter().map(|r| operands(&r.op).0.len()).sum::<usize>() as f64;
                    run.t.time("fp16.addmul", None, || {
                        for r in fell_back {
                            black_box(r.op.host_reference());
                        }
                    });
                }
                _ => {}
            }
        }

        // The other recovery ladder, on the same fault mix.
        let elements = scale.pick(4096, 512);
        let (x, y) = stream_operands(seed, 0x4E51, i as u64, elements);
        let mut ctx = PimContext::small_system();
        ctx.inject_faults(&fault_mix(seed, 1e-3));
        let out = run.t.time("runtime.resilience.add", None, || {
            resilient_add(&mut ctx, &x, &y, &ResilienceConfig::default())
        });
        let (z, report) = out.map_err(|e| e.to_string())?;
        failed += u64::from(count_wrong(&z, &ServeOp::Add { x, y }.host_reference()) > 0);
        resilient_elems = elements as f64;
        run.set("runtime.resilience.retries", report.retries as f64);
        run.set("runtime.resilience.quarantined", report.quarantined.len() as f64);
        run.set("runtime.resilience.fallback_blocks", report.host_fallback_blocks as f64);

        if i == 0 {
            // Faults the device injected at C: only a recorder can see them,
            // and at C the fault plan has already disabled the fast path, so
            // attaching one changes nothing it could have observed.
            let c = &workload.points[2];
            let mut ctx = workload.fresh_context(c);
            let recorder = Recorder::counting();
            ctx.enable_profiling(recorder.clone());
            Server::new(&mut ctx, serve_config())
                .run(c.trace.clone())
                .map_err(|e| e.to_string())?;
            let injected = recorder.with_metrics(|m| m.counter(names::DEV_FAULTS_INJECTED));
            run.set("faults.injected.C", injected as f64);
        }

        // One server or two: the cluster scheduler over a single stack
        // against the plain server, on trace A.
        let a = &workload.points[0];
        let mut ctx = PimContext::small_system();
        let plain = Server::new(&mut ctx, serve_config()).run(a.trace.clone());
        let plain = plain.map_err(|e| e.to_string())?;
        let mut cluster = ClusterContext::new(1).map_err(|e| e.to_string())?;
        let cfg = ClusterServeConfig { serve: serve_config(), ..ClusterServeConfig::default() };
        let trace = a.trace.clone();
        let n1 = run.t.time("runtime.cluster_serve.run.n1", None, || {
            ClusterServer::new(cluster.stacks_mut(), cfg).and_then(|mut s| s.run(trace))
        });
        let n1 = n1.map_err(|e| e.to_string())?;
        let identical = n1.outcomes == plain.outcomes
            && n1.stats.serve == plain.stats
            && n1.end_cycle == plain.end_cycle;
        run.set("runtime.cluster_serve.n1_sim_identical", f64::from(u8::from(identical)));
    }

    run.set("check.ops_failed", failed as f64);
    let (serve_a, blas) = (run.s(ROOT), run.s("runtime.blas.stream"));
    run.set("runtime.serve.sched_overhead_share.A", Run::ratio(serve_a - blas, serve_a));
    run.set("runtime.blas.stream_us_per_elem", Run::ratio(blas * 1e6, elements_a));
    run.set("fp16.convert.ns_per_elem", Run::ratio(run.s("fp16.convert") * 1e9, 3.0 * elements_a));
    run.set("fp16.addmul.ns_per_elem", Run::ratio(run.s("fp16.addmul") * 1e9, fallback_elems));
    run.set(
        "runtime.resilience.add_us_per_elem",
        Run::ratio(run.s("runtime.resilience.add") * 1e6, resilient_elems),
    );
    run.set(
        "runtime.cluster_serve.n1_over_server_ratio",
        Run::ratio(run.s("runtime.cluster_serve.run.n1"), serve_a),
    );
    let traced_rep_s: f64 =
        ["A", "B", "C"].map(|p| run.s(&format!("runtime.serve.run.{p}"))).iter().sum();
    Ok(run.finish(ROOT, traced_rep_s))
}

pub fn cluster_chaos(mut run: Run, seed: u64, scale: Scale) -> Result<Traced, String> {
    const ROOT: &str = "runtime.cluster_serve.run";
    let mut workload = ClusterChaos::setup(seed, scale)?;
    let requests = workload.trace.len() as f64;
    let mut failed = 0u64;
    while run.again() {
        run.untraced(workload.rep(run.iteration()));
        run.t.time(ROOT, None, || workload.run_arc())?;
        // The same trace through one plain server on one stack: the serving
        // core's cost without routing, health, hedging or rejoin. (Direct
        // BLAS calls are no rung here: the server lays a 128-element request
        // out over one channel group, `PimBlas` over all sixteen channels.)
        let mut ctx = PimContext::small_system();
        let trace = workload.trace.clone();
        let flat = run.t.time("runtime.serve.run.flat", Some(ROOT), || {
            Server::new(&mut ctx, serve_config()).run(trace)
        });
        let (_, wrong) = audit(&flat.map_err(|e| e.to_string())?.outcomes, &workload.oracles);
        failed += wrong;

        // The set-up check's two sides, timed.
        let (w, n, k, x) = gemv_operands(seed, scale);
        let sharded = run.t.time("runtime.cluster.gemv_row_parallel", None, || {
            row_parallel_gemv(seed, &w, n, k, &x)
        });
        let single = run.t.time("runtime.blas.gemv.single_stack", None, || {
            PimBlas::gemv(&mut PimContext::small_system(), &w, n, k, &x)
        });
        failed += u64::from(count_wrong(&sharded?.0, &single.map_err(|e| e.to_string())?.0) > 0);
    }

    run.set("check.ops_failed", failed as f64);
    run.set("runtime.cluster_serve.host_us_per_req", Run::ratio(run.s(ROOT) * 1e6, requests));
    run.set("runtime.cluster.row_parallel_ms", run.s("runtime.cluster.gemv_row_parallel") * 1e3);
    run.set(
        "runtime.cluster.row_parallel_over_single_ratio",
        Run::ratio(
            run.s("runtime.cluster.gemv_row_parallel"),
            run.s("runtime.blas.gemv.single_stack"),
        ),
    );
    run.set("host.cluster.collective_cycles_per_gemv", workload.gemv.link_cycles as f64);
    run.set("faults.chaos_windows", workload.plan.windows().len() as f64);
    let traced_rep_s = run.s(ROOT);
    Ok(run.finish(ROOT, traced_rep_s))
}
