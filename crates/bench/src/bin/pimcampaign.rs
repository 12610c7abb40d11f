//! `pimcampaign` — the four seeded campaigns behind the committed
//! `BENCH_{fault,serve,cluster,chaos}.json`.
//!
//! ```text
//! pimcampaign fault   [--seed N] [--elements N] [--rates R1,R2,...]
//! pimcampaign serve   [shape] [--intervals I1,I2,...] [--rates R1,R2,...] [--metrics PATH]
//! pimcampaign cluster [shape] [--interval N] [--stacks S1,S2,...] [--rates R1,R2,...]
//! pimcampaign chaos   [shape] [--interval N] [--stacks N] [--stall-milli N]
//!   shape: [--seed N] [--elements N] [--requests N] [--tenants N] [--deadline-slack N]
//!   every kind: [--backend sequential|threads:N] [--expect-clean]
//! ```
//!
//! Each kind prints its `pim-bench/<kind>-campaign-v1` JSON report on
//! stdout — deterministic in the configuration, byte-identical across
//! execution backends, and with no flags exactly the committed golden
//! (`tests/campaign_golden.rs`) — and a one-line summary on stderr.
//!
//! * `fault` sweeps the base fault rate over `pim_bench::faults::fault_mix`
//!   and runs the resilient runtime at every point (docs/RESILIENCE.md).
//! * `serve` sweeps arrival rate against fault rate through the
//!   deterministic serving layer (docs/SERVING.md). `--metrics PATH`
//!   attaches a counting recorder and writes the accumulated registry as a
//!   validated OpenMetrics exposition; the report is byte-identical with
//!   or without it.
//! * `cluster` sweeps stack count against fault rate and runs the
//!   row-parallel GEMV bit-identity gates (docs/CLUSTER.md).
//! * `chaos` replays one trace against a cluster living through baseline,
//!   crash, straggle, partition and heal phases (docs/CLUSTER.md).
//!
//! `--expect-clean` exits 1 if a wrong answer reached a caller — and, for
//! `cluster`, if a bit-identity gate failed; for `chaos`, unless the run
//! showed the whole arc (mid-run crash, verified rejoin, straggler hedge,
//! outage gate). A campaign that cannot run exits 1; a malformed command
//! line exits 2.

use pim_bench::cli::Cli;
use pim_bench::json::{self, Json};
use pim_bench::{chaos, cluster, faults, serve};
use pim_obs::{openmetrics, Recorder};
use pim_runtime::{ClusterServeStats, ServeStats};

const USAGE: &str = "pimcampaign fault [--seed N] [--elements N] [--rates R1,R2,...]\n\
    \x20      pimcampaign serve [SHAPE] [--intervals I1,I2,...] [--rates R1,R2,...] [--metrics PATH]\n\
    \x20      pimcampaign cluster [SHAPE] [--interval N] [--stacks S1,S2,...] [--rates R1,R2,...]\n\
    \x20      pimcampaign chaos [SHAPE] [--interval N] [--stacks N] [--stall-milli N]\n\
    \x20      SHAPE: [--seed N] [--elements N] [--requests N] [--tenants N] [--deadline-slack N]\n\
    \x20      every kind: [--backend sequential|threads:N] [--expect-clean]";

fn clean_suffix(expect_clean: bool) -> &'static str {
    if expect_clean {
        " (clean gate passed)"
    } else {
        ""
    }
}

fn fail(msg: String) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// The `served / shed / missed` part of a serving summary.
fn served_shed_missed<'a>(stats: impl Iterator<Item = &'a ServeStats> + Clone) -> String {
    let total = |f: fn(&ServeStats) -> u64| stats.clone().map(f).sum::<u64>();
    format!(
        "{} served / {} shed / {} missed",
        total(|s| s.completed + s.host_fallbacks),
        total(|s| s.shed_queue_full + s.shed_overloaded),
        total(|s| s.deadline_missed)
    )
}

fn print_report(report: &Json) {
    println!("{}", json::to_string(report));
}

fn fault(cli: &mut Cli) {
    let mut cfg = faults::CampaignConfig::default();
    let mut expect_clean = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--seed" => cfg.seed = cli.parse_seed(),
            "--elements" => cfg.elements = cli.parse_pos(&arg, "element count"),
            "--rates" => cfg.rates = cli.parse_rates(&arg),
            "--backend" => cfg.backend = cli.parse_backend(&arg),
            "--expect-clean" => expect_clean = true,
            "--help" | "-h" => cli.usage(),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }

    let points = cli.or_exit(faults::run_campaign(&cfg));
    print_report(&faults::report_json(&cfg, &points));

    let wrong: u64 = points.iter().map(|p| p.wrong_answers).sum();
    if expect_clean && wrong > 0 {
        fail(format!("{wrong} wrong answers escaped the recovery ladder"));
    }
    eprintln!(
        "campaign done: {} points, {wrong} wrong answers{}",
        points.len(),
        clean_suffix(expect_clean)
    );
}

fn serve(cli: &mut Cli) {
    let mut cfg = serve::ServeCampaignConfig::default();
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
    let points = cli.or_exit(serve::run_campaign_recorded(&cfg, recorder.as_ref()));
    print_report(&serve::report_json(&cfg, &points));

    if let (Some(path), Some(r)) = (&metrics_path, &recorder) {
        let exposition = openmetrics::render(&r.metrics().registry);
        if let Err(e) = openmetrics::validate(&exposition) {
            eprintln!("pimcampaign: invalid OpenMetrics exposition: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &exposition) {
            eprintln!("pimcampaign: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path} ({} bytes)", exposition.len());
    }

    let wrong: u64 = points.iter().map(|p| p.audit.wrong_answers).sum();
    if expect_clean && wrong > 0 {
        fail(format!("{wrong} wrong answers reached callers"));
    }
    eprintln!(
        "campaign done: {} points, {}, {wrong} wrong answers{}",
        points.len(),
        served_shed_missed(points.iter().map(|p| &p.stats)),
        clean_suffix(expect_clean)
    );
}

fn cluster(cli: &mut Cli) {
    let mut cfg = cluster::ClusterCampaignConfig::default();
    let mut expect_clean = false;
    while let Some(arg) = cli.next_arg() {
        if cli.parse_shape_flag(&arg, &mut cfg.trace) {
            continue;
        }
        match arg.as_str() {
            "--interval" => cfg.interval = cli.parse_pos(&arg, "interval"),
            "--stacks" => cfg.stack_counts = cli.parse_pos_list(&arg, "stack count"),
            "--rates" => cfg.fault_rates = cli.parse_rates(&arg),
            "--backend" => cfg.backend = cli.parse_backend(&arg),
            "--expect-clean" => expect_clean = true,
            "--help" | "-h" => cli.usage(),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }

    let points = cli.or_exit(cluster::run_campaign(&cfg));
    print_report(&cluster::report_json(&cfg, &points));

    let wrong: u64 = points.iter().map(|p| p.audit.wrong_answers).sum();
    let gates_ok = points.iter().all(|p| p.gemv_bit_identical && p.gemv_bit_identical_failover);
    if expect_clean && (wrong > 0 || !gates_ok) {
        fail(format!("{wrong} wrong answers, bit-identity gates ok = {gates_ok}"));
    }
    eprintln!(
        "campaign done: {} points, {}, {wrong} wrong answers{}",
        points.len(),
        served_shed_missed(points.iter().map(|p| &p.stats.serve)),
        clean_suffix(expect_clean)
    );
}

fn chaos(cli: &mut Cli) {
    let mut cfg = chaos::ChaosCampaignConfig::default();
    let mut expect_clean = false;
    while let Some(arg) = cli.next_arg() {
        if cli.parse_shape_flag(&arg, &mut cfg.trace) {
            continue;
        }
        match arg.as_str() {
            "--interval" => cfg.interval = cli.parse_pos(&arg, "interval"),
            "--stacks" => cfg.stacks = cli.parse_pos(&arg, "stack count"),
            "--stall-milli" => cfg.stall_milli = cli.parse_pos(&arg, "stall factor"),
            "--backend" => cfg.backend = cli.parse_backend(&arg),
            "--expect-clean" => expect_clean = true,
            "--help" | "-h" => cli.usage(),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }

    let report = cli.or_exit(chaos::run_campaign(&cfg));
    print_report(&chaos::report_json(&cfg, &report));

    let total =
        |f: fn(&ClusterServeStats) -> u64| report.phases.iter().map(|p| f(&p.stats)).sum::<u64>();
    let served = total(|s| s.serve.completed + s.serve.host_fallbacks);
    let missed = total(|s| s.serve.deadline_missed);
    let arc = [
        ("wrong answers", report.wrong_answers == 0),
        ("outage bit-identity gate", report.gemv_bit_identical_outage),
        ("mid-run crash", total(|s| s.crashes) >= 1),
        ("verified rejoin", total(|s| s.rejoins) >= 1),
        ("straggler hedge", total(|s| s.hedges) >= 1),
    ];
    if expect_clean {
        let failed: Vec<&str> = arc.iter().filter(|(_, ok)| !ok).map(|&(what, _)| what).collect();
        if !failed.is_empty() {
            fail(failed.join(", "));
        }
    }
    eprintln!(
        "campaign done: {} phases, {served} served / {missed} missed, {} hedges, \
         {} rejoins, {} wrong answers{}",
        report.phases.len(),
        total(|s| s.hedges),
        total(|s| s.rejoins),
        report.wrong_answers,
        clean_suffix(expect_clean)
    );
}

fn main() {
    let mut cli = Cli::new("pimcampaign", USAGE);
    match cli.next_arg().as_deref() {
        Some("fault") => fault(&mut cli),
        Some("serve") => serve(&mut cli),
        Some("cluster") => cluster(&mut cli),
        Some("chaos") => chaos(&mut cli),
        Some("--help") | Some("-h") | None => cli.usage(),
        Some(other) => cli.bad(format!("unknown campaign '{other}'")),
    }
}
