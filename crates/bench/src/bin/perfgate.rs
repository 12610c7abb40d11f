//! The CI perf-regression gate.
//!
//! ```text
//! cargo run --release -p pim-bench --bin perfgate -- [--baseline PATH] [--write-baseline]
//! ```
//!
//! Runs a fixed smoke workload and compares it against the checked-in
//! `BENCH_baseline.json` on two axes:
//!
//! * **Deterministic fields** (`sim_cycles`, `commands`, `fences`) must
//!   match *exactly* — any drift means the simulator's behaviour changed,
//!   which is either a bug or a change that must re-baseline deliberately.
//! * **Normalized throughput** — simulated cycles per host second, divided
//!   by a simulator-independent calibration score measured in the same
//!   process ([`pim_bench::parallel::calibrate`]). The ratio is
//!   machine-portable, so the gate never flakes on a slower CI runner; a
//!   drop of more than 20% against baseline fails the job.
//!
//! `--write-baseline` reruns the measurement and rewrites the baseline
//! file — use after a deliberate behaviour or performance change.
//!
//! The gate also validates the committed `BENCH_fastpath.json` (schema
//! `pim-bench/fastpath-v1`, regenerated with `bench_fastpath --out`):
//! every entry must be a full-scale exact measurement, GEMV1 among them.
//! A missing or malformed fast-path document fails the gate.

use pim_bench::json::{self, obj, Json};
use pim_bench::parallel::{calibrate, measure_run_system, synthetic_batches, RunMeasurement};
use pim_bench::report::format_table;
use pim_host::ExecutionBackend;

/// Throughput may regress by at most this fraction before the gate fails.
const TOLERANCE: f64 = 0.20;

/// Smoke workload shape: 64 channels × 16k batch triples, fixed seed —
/// sized so one sequential run takes a few hundred milliseconds of CPU
/// time, well above the ~10 ms CPU-clock tick.
const CHANNELS: usize = 64;
const BATCHES: usize = 16_000;
const SEED: u64 = 0x5EED;

/// Calibration loop length (a few hundred milliseconds on a modern core).
const CALIBRATION_ITERS: u64 = 200_000_000;

/// Trials per measurement; the gate keeps each quantity's best trial.
/// Residual CPU-time noise (cache pollution from neighbours, frequency
/// ramps) is one-sided — it only makes runs *slower* — so the max over
/// trials converges on the machine's true speed and the best/best ratio is
/// far more stable than any single run.
const TRIALS: usize = 3;

struct Measured {
    run: RunMeasurement,
    calibration: f64,
}

impl Measured {
    /// Simulated cycles per CPU second, per calibration unit — the
    /// machine-portable throughput figure the gate compares. CPU time
    /// (rather than wall time) makes preemption by other processes not
    /// count against the measurement; the time unit itself cancels out of
    /// the ratio, so even clock-granularity conventions are irrelevant.
    fn normalized(&self) -> f64 {
        self.run.cycles_per_cpu_sec() / self.calibration.max(1e-9)
    }

    fn to_json(&self) -> Json {
        obj([
            ("schema", Json::Str("pim-bench/perfgate-baseline-v1".to_string())),
            ("workload", Json::Str(format!("synthetic{CHANNELS}x{BATCHES}"))),
            ("sim_cycles", Json::Num(self.run.end_cycle as f64)),
            ("commands", Json::Num(self.run.commands as f64)),
            ("fences", Json::Num(self.run.fences as f64)),
            ("calibration_score", Json::Num(self.calibration)),
            ("workload_cycles_per_cpu_sec", Json::Num(self.run.cycles_per_cpu_sec())),
            ("normalized_throughput", Json::Num(self.normalized())),
        ])
    }
}

fn measure() -> Measured {
    let per_channel = synthetic_batches(CHANNELS, BATCHES, SEED);
    let mut calibration = 0.0f64;
    let mut best_run: Option<RunMeasurement> = None;
    for _ in 0..TRIALS {
        calibration = calibration.max(calibrate(CALIBRATION_ITERS).iters_per_cpu_sec);
        // Sequential: single-threaded throughput is the stable quantity;
        // thread scheduling noise would widen the error bars for no benefit.
        let run = measure_run_system(ExecutionBackend::Sequential, &per_channel);
        if best_run.as_ref().is_none_or(|b| run.cpu_s < b.cpu_s) {
            best_run = Some(run);
        }
    }
    Measured { run: best_run.expect("TRIALS > 0"), calibration }
}

/// Validates the committed `BENCH_fastpath.json`: schema, full scale,
/// per-entry exactness, and the presence of GEMV1. Returns the number of
/// failures (each already printed).
fn check_fastpath_doc(path: &str) -> u64 {
    let fail = |msg: String| -> u64 {
        eprintln!("FAIL: {msg}");
        1
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            return fail(format!(
                "cannot read {path}: {e} (regenerate with `bench_fastpath --out {path}`)"
            ))
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    let mut failures = 0;
    if doc.get("schema").and_then(Json::as_str) != Some("pim-bench/fastpath-v1") {
        failures += fail(format!("{path}: wrong or missing schema"));
    }
    if doc.get("smoke").and_then(|j| match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }) != Some(false)
    {
        failures += fail(format!("{path}: committed document must be a full-scale run"));
    }
    let entries = match doc.get("entries").and_then(Json::as_arr) {
        Some(e) if !e.is_empty() => e,
        _ => {
            failures += fail(format!("{path}: missing or empty 'entries'"));
            return failures;
        }
    };
    let mut saw_gemv1 = false;
    for e in entries {
        let name = e.get("name").and_then(Json::as_str).unwrap_or("<unnamed>");
        match e.get("exact") {
            Some(Json::Bool(true)) => {}
            _ => failures += fail(format!("{path}: entry '{name}' is not marked exact")),
        }
        saw_gemv1 |= name == "GEMV1";
        let seconds = |key| e.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        eprintln!(
            "fastpath baseline: {name} cold {:.4} s, warm {:.6} s",
            seconds("cold_wall_s"),
            seconds("warm_wall_s")
        );
    }
    if !saw_gemv1 {
        failures += fail(format!("{path}: entry 'GEMV1' is missing"));
    }
    failures
}

fn main() {
    let mut baseline_path = String::from("BENCH_baseline.json");
    let mut fastpath_path = String::from("BENCH_fastpath.json");
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--baseline" => {
                baseline_path = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a path");
                    std::process::exit(2);
                });
            }
            "--fastpath" => {
                fastpath_path = args.next().unwrap_or_else(|| {
                    eprintln!("--fastpath requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument '{other}' \
                     (expected --baseline PATH / --fastpath PATH / --write-baseline)"
                );
                std::process::exit(2);
            }
        }
    }

    let measured = measure();

    if write_baseline {
        std::fs::write(&baseline_path, json::to_string(&measured.to_json()) + "\n").unwrap_or_else(
            |e| {
                eprintln!("cannot write {baseline_path}: {e}");
                std::process::exit(1);
            },
        );
        eprintln!("wrote baseline to {baseline_path}");
        return;
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read {baseline_path}: {e} (run with --write-baseline first)");
        std::process::exit(1);
    });
    let baseline = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{baseline_path}: {e}");
        std::process::exit(1);
    });
    let base_u64 = |key: &str| {
        baseline.get(key).and_then(Json::as_u64).unwrap_or_else(|| {
            eprintln!("{baseline_path}: missing integer field '{key}'");
            std::process::exit(1);
        })
    };
    let base_f64 = |key: &str| {
        baseline.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            eprintln!("{baseline_path}: missing number field '{key}'");
            std::process::exit(1);
        })
    };

    let base_norm = base_f64("normalized_throughput");
    let ratio = measured.normalized() / base_norm.max(1e-12);

    let exact = [
        ("sim_cycles", base_u64("sim_cycles"), measured.run.end_cycle),
        ("commands", base_u64("commands"), measured.run.commands),
        ("fences", base_u64("fences"), measured.run.fences),
    ];

    let mut rows: Vec<Vec<String>> = exact
        .iter()
        .map(|(name, base, now)| {
            vec![
                name.to_string(),
                format!("{base}"),
                format!("{now}"),
                if base == now { "ok" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    rows.push(vec![
        "normalized throughput".to_string(),
        format!("{base_norm:.4}"),
        format!("{:.4}", measured.normalized()),
        format!("{:+.1}%", (ratio - 1.0) * 100.0),
    ]);
    println!("{}", format_table(&["metric", "baseline", "current", "status"], &rows));

    let mut failed = check_fastpath_doc(&fastpath_path) > 0;
    for (name, base, now) in &exact {
        if base != now {
            eprintln!(
                "FAIL: deterministic field '{name}' changed ({base} -> {now}); \
                       re-baseline deliberately if this is intended"
            );
            failed = true;
        }
    }
    if ratio < 1.0 - TOLERANCE {
        eprintln!(
            "FAIL: normalized throughput regressed {:.1}% (tolerance {:.0}%)",
            (1.0 - ratio) * 100.0,
            TOLERANCE * 100.0
        );
        failed = true;
    } else {
        eprintln!(
            "perf gate passed: throughput ratio {ratio:.3} (tolerance -{:.0}%)",
            TOLERANCE * 100.0
        );
    }
    if failed {
        std::process::exit(1);
    }
}
