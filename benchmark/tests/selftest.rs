//! Harness self-tests, at smoke scale: the benchmark checks itself before
//! anything it reports is believed.

use pim_runtime::{PimBlas, PimContext};
use pimbench::harness::{measure, result_line, MIN_REPS, SETUPS};
use pimbench::json::{self, Json};
use pimbench::ladder;
use pimbench::metrics::{Better, END_TO_END, PER_LAYER};
use pimbench::workloads::gemv::{GemvInputs, GemvWarm};
use pimbench::workloads::serve_mix::ServeMix;
use pimbench::workloads::{audit, count_wrong, system_commands, Scale, Workload, NAMES};

#[test]
fn simulated_metrics_repeat_across_reps_and_runs() {
    for name in NAMES {
        let a = measure(name, 7, Scale::Smoke, 0.0).unwrap();
        let b = measure(name, 7, Scale::Smoke, 0.0).unwrap();
        assert!(a.deterministic && b.deterministic, "{name}: reps disagree");
        assert_eq!(a.sim, b.sim, "{name}: two runs of one seed disagree");
        assert!(a.correct(), "{name}: {:?}", a.sim);
        assert!(a.rep_s.len() >= MIN_REPS && a.setup_s.len() == SETUPS);
        for (metric, value) in a.end_to_end() {
            assert!(value.is_finite() && value > 0.0, "{name}.{metric} = {value}");
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_not_the_answers() {
    assert_ne!(GemvInputs::generate(1, Scale::Smoke).w, GemvInputs::generate(2, Scale::Smoke).w);
    for name in NAMES {
        let one = measure(name, 1, Scale::Smoke, 0.0).unwrap();
        let two = measure(name, 2, Scale::Smoke, 0.0).unwrap();
        assert_eq!(one.sim.wrong_answers + two.sim.wrong_answers, 0, "{name}");
        assert_eq!(one.sim.failed + two.sim.failed, 0, "{name}");
        // Traces are drawn from the seed: the serving workloads see
        // different arrivals, so their simulated clocks differ.
        if name == "serve_mix" || name == "cluster_chaos" {
            assert_ne!(one.sim, two.sim, "{name}: seed does not reach the trace");
        }
    }
}

#[test]
fn a_corrupted_result_is_counted_as_wrong() {
    let g = GemvInputs::generate(3, Scale::Smoke);
    let x = g.x(0);
    let mut y = g.oracle(&x);
    assert_eq!(count_wrong(&y, &g.oracle(&x)), 0);
    y[5] = f32::from_bits(y[5].to_bits() ^ 1);
    y.pop();
    assert_eq!(count_wrong(&y, &g.oracle(&x)), 2, "one flipped bit and one missing element");

    // A serving result that reached a caller with one element off.
    let mix = ServeMix::setup(3, Scale::Smoke);
    let point = &mix.points[0];
    let mut ctx = mix.fresh_context(point);
    let mut run = ServeMix::run_point(point, &mut ctx).unwrap();
    assert_eq!(audit(&run.report.outcomes, &point.oracles).1, 0);
    let served = run.report.outcomes.iter_mut().find_map(|o| o.result.as_mut()).unwrap();
    served[0] += 1.0;
    assert_eq!(audit(&run.report.outcomes, &point.oracles).1, 1);
}

#[test]
fn the_command_counter_agrees_with_the_kernel_reports() {
    let x = vec![1.5f32; 4096];
    let mut ctx = PimContext::small_system();
    let (_, add) = PimBlas::add(&mut ctx, &x, &x).unwrap();
    assert_eq!(system_commands(&ctx.sys), add.commands);

    // GEMV also reads its partial sums back: ACT + 8 RD + PRE per live unit.
    let (n, k) = (256, 64);
    let mut ctx = PimContext::small_system();
    let (_, gemv) = PimBlas::gemv(&mut ctx, &vec![0.5f32; n * k], n, k, &x[..k]).unwrap();
    assert_eq!(system_commands(&ctx.sys), gemv.commands + (n as u64 / 16) * 10);
}

#[test]
fn a_forced_fast_path_miss_is_a_failed_op() {
    let mut warm = GemvWarm::setup(4, Scale::Smoke).unwrap();
    let healthy = warm.rep(0).sim;
    assert_eq!((healthy.failed, healthy.served_share()), (0, 1.0));
    warm.force_miss = true;
    let missed = warm.rep(1).sim;
    assert!(missed.failed >= 1, "{missed:?}");
    assert_eq!(missed.wrong_answers, 0, "a miss is slow, not wrong");
    assert!(missed.served_share() < 1.0);
}

#[test]
fn ladder_shares_are_non_negative_and_sum_to_one() {
    for name in NAMES {
        let traced = ladder::trace(name, 5, Scale::Smoke, 0.0).unwrap();
        assert!(traced.correct, "{name}: ladder check failed");
        let value = |metric: &str| {
            traced.metrics.iter().find(|(n, _)| *n == metric).map(|(_, v)| *v).unwrap()
        };
        let shares: Vec<f64> = PER_LAYER
            .iter()
            .filter(|m| m.name.ends_with(".ladder.share"))
            .map(|m| value(m.name))
            .chain([value("trace.ladder.unattributed_share")])
            .collect();
        assert!(shares.iter().all(|s| (0.0..=1.0).contains(s)), "{name}: {shares:?}");
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{name}: {shares:?}");
        assert!(value("trace.ladder.clamped_share") >= 0.0);

        // Every span closed after it opened, and a child's parent exists and
        // was opened before it.
        let spans = traced.tracer.spans();
        assert!(!spans.is_empty());
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns, "{name}: {s:?}");
            assert!(s.parent.is_none_or(|p| p < i), "{name}: {s:?}");
        }
        // A metric is only ever non-zero on a workload its row names.
        for ((metric, v), m) in traced.metrics.iter().zip(&PER_LAYER) {
            assert!(v.is_finite(), "{name}.{metric}");
            assert!(*v == 0.0 || m.on.contains(&name), "{name}.{metric} = {v} is off its row");
        }
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_match_the_grammar_and_the_manifest() {
    let doc = manifest();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.iter().map(|w| field(w, "name")).collect::<Vec<_>>(), NAMES);
    assert!(workloads
        .iter()
        .all(|w| field(w, "why").len() <= 200 && !field(w, "why").contains('\n')));

    let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(&END_TO_END) {
        assert!(is_name(m.name), "{}", m.name);
        assert_eq!((field(entry, "name"), field(entry, "unit")), (m.name, m.unit));
        assert_eq!(field(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").unwrap().as_f64(), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit, setup.better), ("setup_s", "s", Better::Lower));

    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (entry, m) in layers.iter().zip(&PER_LAYER) {
        assert!(is_name(m.name), "{}", m.name);
        assert_eq!((field(entry, "name"), field(entry, "unit")), (m.name, m.unit));
        assert_eq!(field(entry, "better"), m.better.as_str());
        assert!(END_TO_END.iter().any(|e| e.name == m.moves), "{} moves {}", m.name, m.moves);
        assert!(!m.on.is_empty() && m.on.iter().all(|w| NAMES.contains(w)), "{}", m.name);
    }
    let mut names: Vec<&str> =
        END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "a metric name is used twice");
    for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
        assert!(
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let line = result_line(true, 10, 0, &[("setup_s", 0.8127, "s")]);
    let back = json::parse(&line.render()).unwrap();
    let keys: Vec<&str> = back.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let m = back.get("metrics").unwrap().get("setup_s").unwrap();
    assert_eq!((m.get("value").unwrap().as_f64(), field(m, "unit")), (Some(0.8127), "s"));
    assert!(!line.render().contains('\n'));
}
