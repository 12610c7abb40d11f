//! `pimtrace` — traced serving runs: export, inspect, and diff the
//! request-scoped observability artifacts.
//!
//! ```text
//! pimtrace run      [--seed N] [--elements N] [--requests N] [--tenants N]
//!                   [--deadline-slack N] [--interval N] [--rate R]
//!                   [--backend sequential|threads:N] --out DIR
//! pimtrace selftest [--seed N] [--elements N] [--requests N]
//!                   [--interval N] [--rate R]
//! pimtrace filter   --trace PATH [--name SUBSTR] [--cat SUBSTR]
//! pimtrace diff     A B
//! ```
//!
//! `run` re-runs one serve-campaign sweep point with tracing enabled and
//! writes `trace.json`, `attrib.txt`, `attrib.folded`, and `metrics.om`
//! into `--out DIR`. All four artifacts are deterministic in the config
//! and byte-identical across execution backends.
//!
//! `selftest` proves that claim at runtime: it runs the point under
//! `Sequential`, `Threads(2)`, and `Threads(4)`, asserts every artifact is
//! byte-identical, and re-checks the cycle-conservation invariant (every
//! channel's attribution buckets sum exactly to the end cycle).
//!
//! `filter` loads a `trace.json` and prints matching events (one per
//! line); `diff` compares two artifact files and reports the first
//! difference.

use pim_bench::campaign::TraceShape;
use pim_bench::cli::Cli;
use pim_bench::json::{self, Json};
use pim_bench::serve::ServeCampaignConfig;
use pim_bench::trace::{assert_backend_identity, run_traced};
use pim_host::ExecutionBackend;

const USAGE: &str = "pimtrace run [--seed N] [--elements N] [--requests N] [--tenants N]\n\
    \x20                [--deadline-slack N] [--interval N] [--rate R]\n\
    \x20                [--backend sequential|threads:N] --out DIR\n\
    \x20      pimtrace selftest [--seed N] [--elements N] [--requests N] [--interval N] [--rate R]\n\
    \x20      pimtrace filter --trace PATH [--name SUBSTR] [--cat SUBSTR]\n\
    \x20      pimtrace diff A B";

/// The point parameters shared by `run` and `selftest`.
struct PointArgs {
    cfg: ServeCampaignConfig,
    interval: u64,
    rate: f64,
    out: Option<String>,
}

fn parse_point_args(cli: &mut Cli) -> PointArgs {
    let d = ServeCampaignConfig::default();
    let mut cfg = ServeCampaignConfig {
        trace: TraceShape { elements: 512, requests: 8, ..d.trace },
        intervals: vec![],
        fault_rates: vec![],
        ..d
    };
    let mut interval = 5_000u64;
    let mut rate = 0.0f64;
    let mut out = None;
    while let Some(arg) = cli.next_arg() {
        if cli.parse_shape_flag(&arg, &mut cfg.trace) {
            continue;
        }
        match arg.as_str() {
            "--interval" => interval = cli.parse_pos(&arg, "interval"),
            "--rate" => rate = cli.parse_rate(&arg),
            "--backend" => cfg.backend = cli.parse_backend(&arg),
            "--out" => out = Some(cli.next_value(&arg)),
            "--help" | "-h" => cli.usage(),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }
    PointArgs { cfg, interval, rate, out }
}

fn write_artifact(dir: &std::path::Path, name: &str, content: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("pimtrace: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} bytes)", path.display(), content.len());
}

fn cmd_run(cli: &mut Cli) {
    let p = parse_point_args(cli);
    let Some(out) = p.out else { cli.bad("run requires --out DIR".to_string()) };
    let dir = std::path::Path::new(&out);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("pimtrace: cannot create {out}: {e}");
        std::process::exit(1);
    }
    let art = run_traced(&p.cfg, p.interval, p.rate).unwrap_or_else(|e| {
        eprintln!("pimtrace: traced run failed: {e}");
        std::process::exit(1);
    });
    write_artifact(dir, "trace.json", &art.chrome);
    write_artifact(dir, "attrib.txt", &art.attrib_table);
    write_artifact(dir, "attrib.folded", &art.folded);
    write_artifact(dir, "metrics.om", &art.openmetrics);
    println!(
        "traced point (interval {}, rate {}): {} events, end cycle {}",
        p.interval, p.rate, art.events, art.end_cycle
    );
}

fn cmd_selftest(cli: &mut Cli) {
    let p = parse_point_args(cli);
    let art = assert_backend_identity(
        &p.cfg,
        p.interval,
        p.rate,
        &[ExecutionBackend::Threads(2), ExecutionBackend::Threads(4)],
    )
    .unwrap_or_else(|e| {
        eprintln!("pimtrace: selftest FAILED: {e}");
        std::process::exit(1);
    });
    println!(
        "selftest ok: {} events, end cycle {}, all artifacts byte-identical under \
         sequential / threads:2 / threads:4, cycle conservation exact",
        art.events, art.end_cycle
    );
}

/// One line per Chrome trace event: `ts ph pid:tid cat name [trace]`.
fn event_line(e: &Json) -> String {
    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let n = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
    let trace = e
        .get("args")
        .and_then(|a| a.get("trace"))
        .and_then(Json::as_str)
        .map(|t| format!(" trace={t}"))
        .unwrap_or_default();
    format!("{} {} {}:{} {} {}{trace}", n("ts"), s("ph"), n("pid"), n("tid"), s("cat"), s("name"))
}

fn load_trace_events(path: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("pimtrace: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("pimtrace: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    match doc.get("traceEvents").and_then(Json::as_arr) {
        Some(events) => events.to_vec(),
        None => {
            eprintln!("pimtrace: {path} has no traceEvents array");
            std::process::exit(1);
        }
    }
}

fn cmd_filter(cli: &mut Cli) {
    let mut path = None;
    let mut name = None;
    let mut cat = None;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--trace" => path = Some(cli.next_value(&arg)),
            "--name" => name = Some(cli.next_value(&arg)),
            "--cat" => cat = Some(cli.next_value(&arg)),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }
    let Some(path) = path else { cli.bad("filter requires --trace PATH".to_string()) };
    let events = load_trace_events(&path);
    let total = events.len();
    let mut matched = 0usize;
    // Write through a locked handle and stop quietly on a closed pipe
    // (`pimtrace filter ... | head` is the expected usage).
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for e in &events {
        let ename = e.get("name").and_then(Json::as_str).unwrap_or("");
        let ecat = e.get("cat").and_then(Json::as_str).unwrap_or("");
        if name.as_deref().is_some_and(|n| !ename.contains(n)) {
            continue;
        }
        if cat.as_deref().is_some_and(|c| !ecat.contains(c)) {
            continue;
        }
        if writeln!(out, "{}", event_line(e)).is_err() {
            return;
        }
        matched += 1;
    }
    eprintln!("{matched} of {total} events matched");
}

fn cmd_diff(a: &str, b: &str) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("pimtrace: cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    let (ta, tb) = (read(a), read(b));
    if ta == tb {
        println!("identical: {a} == {b} ({} bytes)", ta.len());
        return;
    }
    for (i, (la, lb)) in ta.lines().zip(tb.lines()).enumerate() {
        if la != lb {
            println!("differ at line {}:", i + 1);
            println!("- {la}");
            println!("+ {lb}");
            std::process::exit(1);
        }
    }
    println!(
        "differ in length: {a} has {} lines, {b} has {}",
        ta.lines().count(),
        tb.lines().count()
    );
    std::process::exit(1);
}

fn main() {
    let mut cli = Cli::new("pimtrace", USAGE);
    match cli.next_arg().as_deref() {
        Some("run") => cmd_run(&mut cli),
        Some("selftest") => cmd_selftest(&mut cli),
        Some("filter") => cmd_filter(&mut cli),
        Some("diff") => {
            let a = cli.next_value("diff");
            let b = cli.next_value("diff");
            cmd_diff(&a, &b);
        }
        Some("--help") | Some("-h") | None => cli.usage(),
        Some(other) => cli.bad(format!("unknown subcommand '{other}'")),
    }
}
