//! Seeded open-loop serving campaign runner.
//!
//! ```text
//! cargo run --release -p pim-bench --bin pimserve -- \
//!     [--seed N] [--elements N] [--requests N] [--tenants N] \
//!     [--deadline-slack N] [--intervals I1,I2,...] [--rates R1,R2,...] \
//!     [--backend sequential|threads:N] [--expect-clean]
//! ```
//!
//! Sweeps arrival rate against base fault rate, drives the deterministic
//! serving layer with a seeded request trace at every grid point, and
//! prints the `pim-bench/serve-campaign-v1` JSON report on stdout. The
//! report is deterministic in the config and byte-identical across
//! execution backends.
//!
//! `--expect-clean` exits non-zero if any served result disagrees with the
//! exact FP16 oracle — the CI smoke job's assertion that overload and
//! faults may shed or delay work but never corrupt an answer.
//!
//! `--metrics PATH` attaches a counting recorder to every grid point and
//! writes the accumulated metrics registry (srv.* counters, per-run SLO
//! histograms) as a validated OpenMetrics text exposition. Recording has
//! zero observer effect: the JSON report is byte-identical with or without
//! the flag.

use pim_bench::campaign::Cli;
use pim_bench::json;
use pim_bench::serve::{report_json, run_campaign_recorded, ServeCampaignConfig};
use pim_obs::{openmetrics, Recorder};
use pim_runtime::ServeStats;

const USAGE: &str = "pimserve [--seed N] [--elements N] [--requests N] [--tenants N] \
    [--deadline-slack N] [--intervals I1,I2,...] [--rates R1,R2,...] \
    [--backend sequential|threads:N] [--expect-clean] [--metrics PATH]";

fn main() {
    let mut cli = Cli::new("pimserve", USAGE);
    let mut cfg = ServeCampaignConfig::default();
    let mut expect_clean = false;
    let mut metrics_path: Option<String> = None;
    while let Some(arg) = cli.next_arg() {
        if cli.parse_shape_flag(&arg, &mut cfg.trace) {
            continue;
        }
        match arg.as_str() {
            "--intervals" => cfg.intervals = cli.parse_pos_list(&arg, "interval"),
            "--rates" => cfg.fault_rates = cli.parse_rates(&arg),
            "--backend" => cfg.backend = cli.parse_backend(&arg),
            "--expect-clean" => expect_clean = true,
            "--metrics" => metrics_path = Some(cli.next_value(&arg)),
            "--help" | "-h" => cli.usage(),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }

    // A counting recorder keeps the metrics registry without retaining the
    // event stream (campaigns emit millions of events).
    let recorder = metrics_path.as_ref().map(|_| Recorder::counting());
    let points = cli.or_exit(run_campaign_recorded(&cfg, recorder.as_ref()));
    println!("{}", json::to_string(&report_json(&cfg, &points)));

    if let (Some(path), Some(r)) = (&metrics_path, &recorder) {
        let exposition = openmetrics::render(&r.metrics().registry);
        if let Err(e) = openmetrics::validate(&exposition) {
            eprintln!("pimserve: invalid OpenMetrics exposition: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &exposition) {
            eprintln!("pimserve: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path} ({} bytes)", exposition.len());
    }

    let wrong: u64 = points.iter().map(|p| p.audit.wrong_answers).sum();
    if expect_clean && wrong > 0 {
        eprintln!("FAIL: {wrong} wrong answers reached callers");
        std::process::exit(1);
    }
    let total = |f: fn(&ServeStats) -> u64| points.iter().map(|p| f(&p.stats)).sum::<u64>();
    let served = total(|s| s.completed + s.host_fallbacks);
    let shed = total(|s| s.shed_queue_full + s.shed_overloaded);
    let missed = total(|s| s.deadline_missed);
    eprintln!(
        "campaign done: {} points, {served} served / {shed} shed / {missed} missed, \
         {wrong} wrong answers{}",
        points.len(),
        if expect_clean { " (clean gate passed)" } else { "" }
    );
}
