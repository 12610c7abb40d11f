//! `pimprof` — per-kernel profiles for the Table VI GEMV microbenchmarks.
//!
//! Runs one GEMV on a fully-instrumented one-stack system and prints the
//! plain-text profile table (row hit rate, fence stalls, bank residency,
//! mode transitions). Optionally writes the event stream as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) and the
//! metrics registry as CSV.
//!
//! ```text
//! usage: pimprof [GEMV1|GEMV2|GEMV3|GEMV4 | NxK] [--scale D]
//!                [--trace PATH.json] [--csv PATH.csv]
//! ```
//!
//! `--scale D` divides both matrix dimensions by `D` (the full Table VI
//! sizes stream up to 128 MB of weights through the simulator; scaled runs
//! keep the same command mix at a fraction of the wall time).

use pim_bench::cli::Cli;
use pim_bench::profile::{profile_gemv, render_profile};
use pim_bench::report;
use pim_bench::trace::render_attrib;
use pim_obs::{chrome::chrome_trace_json, csv::metrics_csv, Attribution};

const USAGE: &str = "pimprof [GEMV1|GEMV2|GEMV3|GEMV4 | NxK] [--scale D] [--trace PATH] \
    [--csv PATH] [--attrib] [--folded PATH]";

fn main() {
    let mut name = "GEMV1".to_string();
    let mut shape: Option<(usize, usize)> = None;
    let mut scale = 1usize;
    let mut trace_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut attrib = false;
    let mut folded_path: Option<String> = None;

    let mut cli = Cli::new("pimprof", USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--help" | "-h" => cli.usage(),
            "--scale" => scale = cli.parse_pos(&arg, "scale"),
            "--trace" => trace_path = Some(cli.next_value(&arg)),
            "--csv" => csv_path = Some(cli.next_value(&arg)),
            "--attrib" => attrib = true,
            "--folded" => folded_path = Some(cli.next_value(&arg)),
            w => {
                if let Some(wl) = pim_bench::workloads::gemv_workloads()
                    .iter()
                    .find(|wl| wl.name.eq_ignore_ascii_case(w))
                {
                    name = wl.name.to_string();
                    shape = Some((wl.n, wl.k));
                } else if let Some((n, k)) = w.split_once('x') {
                    match (n.parse(), k.parse()) {
                        (Ok(n), Ok(k)) if n > 0 && k > 0 => {
                            name = w.to_string();
                            shape = Some((n, k));
                        }
                        _ => cli.bad(format!("bad shape '{w}' (expected NxK, both positive)")),
                    }
                } else {
                    cli.bad(format!("unknown argument '{w}'"))
                }
            }
        }
    }
    let (mut n, mut k) = shape.unwrap_or_else(|| {
        let wl = pim_bench::workloads::gemv_workloads()[0];
        (wl.n, wl.k)
    });
    n = (n / scale).max(1);
    k = (k / scale).max(1);

    println!("profiling {name} as {n}x{k} GEMV (scale 1/{scale}) on a one-stack system");
    let run = profile_gemv(n, k).unwrap_or_else(|e| {
        eprintln!("pimprof: {e}");
        std::process::exit(1);
    });

    let r = &run.report;
    println!(
        "kernel: {} cycles ({}), {} commands, {} fences, {} PIM triggers",
        r.cycles,
        report::time(r.seconds),
        r.commands,
        r.fences,
        r.pim_triggers
    );
    println!();
    print!("{}", render_profile(&run.recorder.metrics()));

    let events = run.recorder.events().unwrap_or_default();
    println!();
    println!("events recorded: {}", events.len());

    if attrib || folded_path.is_some() {
        let a =
            Attribution::from_events(&events, run.channels, run.end_cycle).unwrap_or_else(|e| {
                eprintln!("pimprof: attribution failed: {e}");
                std::process::exit(1);
            });
        if let Err(e) = a.check_conservation() {
            eprintln!("pimprof: cycle conservation violated: {e}");
            std::process::exit(1);
        }
        if attrib {
            println!();
            println!("cycle attribution ({} channels, end cycle {}):", run.channels, run.end_cycle);
            print!("{}", render_attrib(&a));
        }
        if let Some(path) = &folded_path {
            match std::fs::write(path, a.folded()) {
                Ok(()) => println!("folded stacks written to {path}"),
                Err(e) => {
                    eprintln!("pimprof: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if let Some(path) = trace_path {
        let json = chrome_trace_json(&events);
        match std::fs::write(&path, json) {
            Ok(()) => {
                println!("chrome trace written to {path} (open in Perfetto or chrome://tracing)")
            }
            Err(e) => {
                eprintln!("pimprof: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = csv_path {
        match std::fs::write(&path, metrics_csv(&run.recorder.metrics().registry)) {
            Ok(()) => println!("metrics CSV written to {path}"),
            Err(e) => {
                eprintln!("pimprof: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
