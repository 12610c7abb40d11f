//! `pimtrace` — traced runs: export, inspect, and diff the request-scoped
//! observability artifacts.
//!
//! ```text
//! pimtrace run      [--seed N] [--elements N] [--requests N] [--tenants N]
//!                   [--deadline-slack N] [--interval N] [--rate R]
//!                   [--backend sequential|threads:N] --out DIR
//! pimtrace gemv     [GEMV1|GEMV2|GEMV3|GEMV4 | NxK] [--scale D] --out DIR
//! pimtrace selftest [--seed N] [--elements N] [--requests N]
//!                   [--interval N] [--rate R]
//! pimtrace filter   --trace PATH [--name SUBSTR] [--cat SUBSTR]
//! pimtrace diff     A B
//!   bounds: --elements fits one stack's arena; --requests <= 65536 and
//!           requests x elements <= 67108864
//! ```
//!
//! `run` re-runs one serve-campaign sweep point with tracing enabled and
//! writes `trace.json`, `attrib.txt`, `attrib.folded`, and `metrics.om`
//! into `--out DIR`. All four artifacts are deterministic in the config
//! and byte-identical across execution backends.
//!
//! `gemv` profiles one Table VI GEMV (default GEMV1) on a fully
//! instrumented one-stack system, prints the profile table (row hit rate,
//! fence stalls, bank residency, mode transitions) and writes the same
//! four artifacts. `--scale D` divides both matrix dimensions by `D`: the
//! full Table VI sizes stream up to 128 MB of weights through the
//! simulator, and scaled runs keep the same command mix at a fraction of
//! the wall time.
//!
//! `selftest` proves the backend claim at runtime: it runs the point under
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
use pim_bench::profile::{profile_gemv, render_profile};
use pim_bench::serve::ServeCampaignConfig;
use pim_bench::trace::{assert_backend_identity, run_traced, TraceArtifacts};
use pim_bench::workloads::gemv_workloads;
use pim_bench::{out, outln, report};
use pim_host::ExecutionBackend;

const USAGE: &str = "pimtrace run [--seed N] [--elements N] [--requests N] [--tenants N]\n\
    \x20                [--deadline-slack N] [--interval N] [--rate R]\n\
    \x20                [--backend sequential|threads:N] --out DIR\n\
    \x20      pimtrace gemv [GEMV1|GEMV2|GEMV3|GEMV4 | NxK] [--scale D] --out DIR\n\
    \x20      pimtrace selftest [--seed N] [--elements N] [--requests N] [--interval N] [--rate R]\n\
    \x20      pimtrace filter --trace PATH [--name SUBSTR] [--cat SUBSTR]\n\
    \x20      pimtrace diff A B\n\
    \x20      bounds: --elements fits one stack's arena; --requests <= 65536 and\n\
    \x20              requests x elements <= 67108864";

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

/// Writes the four artifacts into `out` (created if missing), one `wrote`
/// line each.
fn write_artifacts(out: &str, art: &TraceArtifacts) {
    let dir = std::path::Path::new(out);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("pimtrace: cannot create {out}: {e}");
        std::process::exit(1);
    }
    for (name, content) in [
        ("trace.json", &art.chrome),
        ("attrib.txt", &art.attrib_table),
        ("attrib.folded", &art.folded),
        ("metrics.om", &art.openmetrics),
    ] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("pimtrace: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        outln!("wrote {} ({} bytes)", path.display(), content.len());
    }
}

fn cmd_run(cli: &mut Cli) {
    let p = parse_point_args(cli);
    let Some(out) = p.out else { cli.bad("run requires --out DIR".to_string()) };
    let art = run_traced(&p.cfg, p.interval, p.rate).unwrap_or_else(|e| {
        eprintln!("pimtrace: traced run failed: {e}");
        std::process::exit(1);
    });
    write_artifacts(&out, &art);
    outln!(
        "traced point (interval {}, rate {}): {} events, end cycle {}",
        p.interval,
        p.rate,
        art.events,
        art.end_cycle
    );
}

fn cmd_gemv(cli: &mut Cli) {
    let workloads = gemv_workloads();
    let (mut name, mut shape) = (workloads[0].name.to_string(), (workloads[0].n, workloads[0].k));
    let mut scale = 1usize;
    let mut out = None;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--scale" => scale = cli.parse_pos(&arg, "scale"),
            "--out" => out = Some(cli.next_value(&arg)),
            "--help" | "-h" => cli.usage(),
            w => {
                if let Some(wl) = workloads.iter().find(|wl| wl.name.eq_ignore_ascii_case(w)) {
                    (name, shape) = (wl.name.to_string(), (wl.n, wl.k));
                    continue;
                }
                match w.split_once('x').map(|(n, k)| (n.parse(), k.parse())) {
                    Some((Ok(n), Ok(k))) if n > 0 && k > 0 => {
                        (name, shape) = (w.to_string(), (n, k))
                    }
                    Some(_) => cli.bad(format!("bad shape '{w}' (expected NxK, both positive)")),
                    None => cli.bad(format!("unknown argument '{w}'")),
                }
            }
        }
    }
    let Some(out) = out else { cli.bad("gemv requires --out DIR".to_string()) };
    let (n, k) = ((shape.0 / scale).max(1), (shape.1 / scale).max(1));
    outln!("profiling {name} as {n}x{k} GEMV (scale 1/{scale}) on a one-stack system");
    let run = profile_gemv(n, k).unwrap_or_else(|e| {
        eprintln!("pimtrace: {e}");
        std::process::exit(1);
    });
    let r = &run.report;
    outln!(
        "kernel: {} cycles ({}), {} commands, {} fences, {} PIM triggers",
        r.cycles,
        report::time(r.seconds),
        r.commands,
        r.fences,
        r.pim_triggers
    );
    outln!();
    out!("{}", render_profile(&run.recorder.metrics()));
    outln!();
    write_artifacts(&out, &run.artifacts);
    outln!("traced GEMV: {} events, end cycle {}", run.artifacts.events, run.artifacts.end_cycle);
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
    outln!(
        "selftest ok: {} events, end cycle {}, all artifacts byte-identical under \
         sequential / threads:2 / threads:4, cycle conservation exact",
        art.events,
        art.end_cycle
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
    for e in &events {
        let ename = e.get("name").and_then(Json::as_str).unwrap_or("");
        let ecat = e.get("cat").and_then(Json::as_str).unwrap_or("");
        if name.as_deref().is_some_and(|n| !ename.contains(n)) {
            continue;
        }
        if cat.as_deref().is_some_and(|c| !ecat.contains(c)) {
            continue;
        }
        outln!("{}", event_line(e));
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
        outln!("identical: {a} == {b} ({} bytes)", ta.len());
        return;
    }
    for (i, (la, lb)) in ta.lines().zip(tb.lines()).enumerate() {
        if la != lb {
            outln!("differ at line {}:", i + 1);
            outln!("- {la}");
            outln!("+ {lb}");
            std::process::exit(1);
        }
    }
    outln!(
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
        Some("gemv") => cmd_gemv(&mut cli),
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
