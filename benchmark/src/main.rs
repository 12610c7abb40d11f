//! `pimbench` command line. See `benchmark/README.md`.
//!
//! ```text
//! pimbench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! pimbench run   [--seed N] [--seconds S] [--smoke] [--out FILE]   all six, end-to-end metrics
//! pimbench trace [--seed N] [--seconds S] [--smoke]                all six, per-layer metrics
//! pimbench agree A.json B.json                                     compare two `run` files
//! ```

use pimbench::agree;
use pimbench::harness::{measure, result_line, Samples};
use pimbench::json::{self, obj, Json};
use pimbench::ladder::{self, Traced};
use pimbench::metrics::{END_TO_END, PER_LAYER};
use pimbench::stats::{fastest, median, percentile};
use pimbench::workloads::{Scale, NAMES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  pimbench run   [--seed <n>] [--seconds <s per workload>] [--smoke] [--out <file>]
  pimbench trace [--seed <n>] [--seconds <s per workload>] [--smoke]
  pimbench agree <a.json> <b.json>
workloads: gemv_cold gemv_warm stream_raw serve_mix cluster_chaos paper_fig10";

/// Passes of `run`: each pass runs every workload once as a child process,
/// so every workload's samples span the whole invocation and slow drift of
/// the machine averages out instead of landing on one workload.
const PASSES: usize = 3;

/// Parsed `--flag value` pairs, bare `--switches` and positionals.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args { flags: BTreeMap::new(), positional: Vec::new() };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                args.flags.insert(a.clone(), v.clone());
            } else if switches.contains(&a.as_str()) {
                args.flags.insert(a.clone(), String::new());
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a}"));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid number")),
            None => Ok(default),
        }
    }

    fn scale(&self) -> Scale {
        if self.flags.contains_key("--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

/// Results are written only under `benchmark/out/` (or where `--out` says).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn span_file(traced: &[&Traced]) -> Json {
    Json::Arr(
        traced
            .iter()
            .flat_map(|t| match t.tracer.to_json() {
                Json::Arr(spans) => spans,
                _ => Vec::new(),
            })
            .collect(),
    )
}

/// The contract entry point: one workload, one result line on stdout.
fn one(raw: &[String]) -> Result<(), String> {
    let args =
        Args::parse(raw, &["--workload", "--seed", "--seconds", "--trace"], &["--smoke", "--raw"])?;
    let workload = args.flags.get("--workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", 10.0)?;
    let trace: u8 = args.number("--trace", 0)?;
    if !args.positional.is_empty() || trace > 1 || seconds.is_nan() || seconds < 0.0 {
        return Err("bad arguments".into());
    }
    let line = if trace == 1 {
        let traced = ladder::trace(workload, seed, args.scale(), seconds)?;
        let path = out_dir().join(format!("trace-{workload}-{seed}.json"));
        write_file(&path, &span_file(&[&traced]).render())?;
        let metrics: Vec<(&str, f64, &str)> = traced
            .metrics
            .iter()
            .zip(&PER_LAYER)
            .map(|((name, value), m)| (*name, *value, m.unit))
            .collect();
        result_line(traced.correct, traced.attempted.max(1), traced.failed, &metrics)
    } else {
        let samples = measure(workload, seed, args.scale(), seconds)?;
        eprintln!("{workload}: {}", samples.diagnostics().render());
        let metrics: Vec<(&str, f64, &str)> = samples
            .end_to_end()
            .into_iter()
            .zip(&END_TO_END)
            .map(|((name, value), m)| (name, value, m.unit))
            .collect();
        let reps = samples.rep_s.len() as u64;
        let mut line = result_line(
            samples.correct(),
            samples.sim.attempted * reps,
            samples.sim.failed * reps,
            &metrics,
        );
        if args.flags.contains_key("--raw") {
            if let Json::Obj(pairs) = &mut line {
                pairs.push(("samples".into(), raw_samples(&samples)));
            }
        }
        line
    };
    println!("{}", line.render());
    Ok(())
}

/// What `run` pools across passes.
fn raw_samples(s: &Samples) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    obj([
        ("setup_s", nums(&s.setup_s)),
        ("rep_s", nums(&s.rep_s)),
        ("ops_per_rep", Json::Num(s.sim.attempted as f64)),
        ("commands_per_rep", Json::Num(s.sim.commands as f64)),
        ("ops_unserved", Json::Num((s.sim.unserved * s.rep_s.len() as u64) as f64)),
        ("wrong_answers", Json::Num(s.sim.wrong_answers as f64)),
    ])
}

/// Runs one workload in a child process and parses its result line. A child
/// per workload keeps `VmHWM` clean: one workload's peak is not another's.
fn child(workload: &str, seed: u64, seconds: f64, scale: Scale) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", "0", "--raw"]);
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} child failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().ok_or("child printed nothing")?)
}

fn numbers(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_arr).map_or(Vec::new(), |a| a.iter().filter_map(Json::as_f64).collect())
}

fn run(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["--seed", "--seconds", "--out"], &["--smoke"])?;
    let seed: u64 = args.number("--seed", 1)?;
    let scale = args.scale();
    let seconds: f64 = args.number("--seconds", scale.pick(10.0, 0.3))?;
    let passes = scale.pick(PASSES, 1);

    let mut by_workload: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
    for pass in 0..passes {
        for name in NAMES {
            eprintln!("pass {}/{passes}: {name}", pass + 1);
            by_workload.entry(name).or_default().push(child(
                name,
                seed,
                seconds / passes as f64,
                scale,
            )?);
        }
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    println!("{:<14} {:<24} {:>20}  unit", "workload", "metric", "value");
    for name in NAMES {
        let results = &by_workload[name];
        let value =
            |r: &Json, m: &str| r.get("metrics").and_then(|x| x.get(m)?.get("value")?.as_f64());
        let sample = |r: &Json, key: &str| r.get("samples").and_then(|s| s.get(key)).cloned();
        let pooled = |key: &str| -> Vec<f64> {
            results.iter().flat_map(|r| numbers(sample(r, key).as_ref())).collect()
        };
        let (setup_s, rep_s) = (pooled("setup_s"), pooled("rep_s"));
        let first = &results[0];
        let per_rep = |key: &str| sample(first, key).and_then(|j| j.as_f64()).unwrap_or(0.0);
        let rep = fastest(&rep_s);

        // Simulated metrics repeat exactly from pass to pass, or the run is
        // wrong; host metrics come from the pooled samples.
        let mut correct = results.iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
        let mut metrics = Vec::new();
        for m in &END_TO_END {
            let v = match m.name {
                "setup_s" => median(&setup_s),
                "host_ops_per_s" => per_rep("ops_per_rep") / rep,
                "host_cmds_per_s" => per_rep("commands_per_rep") / rep,
                "host_peak_rss_mb" => {
                    results.iter().filter_map(|r| value(r, m.name)).fold(0.0, f64::max)
                }
                _ => {
                    correct &= results.iter().all(|r| value(r, m.name) == value(first, m.name));
                    value(first, m.name).ok_or(format!("{name}: child omitted {}", m.name))?
                }
            };
            println!("{name:<14} {:<24} {v:>20.6}  {}", m.name, m.unit);
            metrics.push((m.name, Json::Num(v)));
        }
        let (mid, p90) = (median(&rep_s), percentile(&rep_s, 90));
        println!(
            "{name:<14} {:<24} {:>20}  reps pooled over {passes} passes (fastest {rep:.4} s, median {mid:.4} s, p90 {p90:.4} s){}",
            "(diagnostic)",
            rep_s.len(),
            if correct { "" } else { "  ** INCORRECT **" }
        );
        all_correct &= correct;
        workloads.push((
            name,
            obj([
                ("correct", Json::Bool(correct)),
                ("metrics", obj(metrics)),
                (
                    "diagnostics",
                    obj([
                        ("reps", Json::Num(rep_s.len() as f64)),
                        ("rep_fastest_s", Json::Num(rep)),
                        ("rep_median_s", Json::Num(mid)),
                        ("rep_p90_s", Json::Num(p90)),
                        ("ops_unserved", sample(first, "ops_unserved").unwrap_or(Json::Null)),
                        ("wrong_answers", sample(first, "wrong_answers").unwrap_or(Json::Null)),
                    ]),
                ),
            ]),
        ));
    }

    let doc = obj([
        ("schema", Json::Str("pimbench/run-v1".into())),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Str(scale.pick("full", "smoke").into())),
        ("passes", Json::Num(passes as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("workloads", obj(workloads)),
    ]);
    let path = match args.flags.get("--out") {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(format!("run-{seed}.json")),
    };
    write_file(&path, &(doc.render() + "\n"))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

fn trace(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["--seed", "--seconds"], &["--smoke"])?;
    let seed: u64 = args.number("--seed", 1)?;
    let scale = args.scale();
    let seconds: f64 = args.number("--seconds", scale.pick(8.0, 0.0))?;

    let mut traced = Vec::new();
    println!("{:<14} {:<44} {:>18}  unit", "workload", "per-layer metric", "value");
    for name in NAMES {
        eprintln!("tracing {name}");
        let t = ladder::trace(name, seed, scale, seconds)?;
        for ((metric, value), m) in t.metrics.iter().zip(&PER_LAYER) {
            if m.on.contains(&name) {
                println!("{name:<14} {metric:<44} {value:>18.6}  {}", m.unit);
            }
        }
        traced.push(t);
    }

    // The per-command gap between the two engine-bound workloads, rung by
    // rung: the same ladder, read across instead of down.
    let of = |workload: &str, metric: &str| -> f64 {
        let i = NAMES.iter().position(|n| *n == workload).expect("known workload");
        traced[i].metrics.iter().find(|(n, _)| *n == metric).map_or(0.0, |(_, v)| *v)
    };
    println!("\nhost ns per simulated command, gemv_cold against stream_raw:");
    let rungs = [
        (
            "dram: bare controller, SB stream",
            of("stream_raw", "dram.ctrl.raw_ns_per_cmd"),
            of("gemv_cold", "dram.ctrl.raw_ns_per_cmd"),
        ),
        (
            "core: device wrapper (SB) / AB-PIM kernel",
            of("stream_raw", "core.channel.sb_ns_per_cmd"),
            of("gemv_cold", "core.channel.abpim_ns_per_cmd"),
        ),
        (
            "host: run_system, fast path off",
            of("stream_raw", "host.engine.run_system_ns_per_cmd"),
            of("gemv_cold", "host.engine.run_system_ns_per_cmd"),
        ),
    ];
    println!("  {:<44} {:>12} {:>12} {:>8}", "rung", "stream_raw", "gemv_cold", "ratio");
    for (rung, stream, cold) in rungs {
        println!(
            "  {rung:<44} {stream:>12.2} {cold:>12.2} {:>8.2}",
            cold / stream.max(f64::MIN_POSITIVE)
        );
    }
    let recording = of("gemv_cold", "host.fastpath.record_overhead_ratio");
    let runtime =
        1.0 / (1.0 - of("gemv_cold", "runtime.blas.gemv_overhead_share")).max(f64::MIN_POSITIVE);
    println!(
        "  {:<44} {:>12} {:>12} {recording:>8.2}",
        "host: fast path recording (x on top)", "-", "-"
    );
    println!(
        "  {:<44} {:>12} {:>12} {runtime:>8.2}",
        "runtime: PimBlas::gemv (x on top)", "-", "-"
    );

    let path = out_dir().join(format!("trace-{seed}.json"));
    write_file(&path, &span_file(&traced.iter().collect::<Vec<_>>()).render())?;
    eprintln!("wrote {}", path.display());
    Ok(traced.iter().all(|t| t.correct))
}

fn agree_files(raw: &[String]) -> Result<bool, String> {
    let [a, b] = raw else { return Err("agree takes exactly two files".into()) };
    let read = |p: &String| {
        std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")).and_then(|t| json::parse(&t))
    };
    let rows = agree::compare(&read(a)?, &read(b)?)?;
    print!("{}", agree::render(&rows));
    Ok(rows.iter().all(|r| r.ok))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("run") => run(&raw[1..]),
        Some("trace") => trace(&raw[1..]),
        Some("agree") => agree_files(&raw[1..]),
        Some(_) => one(&raw).map(|()| true),
        None => Err("no arguments".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pimbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
