//! Cluster chaos campaign runner.
//!
//! ```text
//! cargo run --release -p pim-bench --bin pimchaos -- \
//!     [--seed N] [--elements N] [--requests N] [--tenants N] \
//!     [--deadline-slack N] [--interval N] [--stacks N] [--stall-milli N] \
//!     [--backend sequential|threads:N] [--expect-clean]
//! ```
//!
//! Replays one fixed arrival trace against a cluster living through a
//! phased fault schedule — baseline, mid-run stack crash, straggler
//! stall, transient link partition, heal — and reports goodput, tail
//! latency, failovers, hedges, and verified rejoins per phase. The JSON
//! report (`pim-bench/chaos-campaign-v1`) is deterministic in the
//! config and byte-identical across execution backends.
//!
//! `--expect-clean` exits non-zero unless the campaign demonstrated the
//! full chaos arc with zero wrong answers: a stack crashed mid-run and
//! later rejoined through the verified re-replication path, a straggler
//! was detected and hedged around, and the mid-outage row-parallel GEMV
//! matched the single-stack reference bit-for-bit — the CI chaos-smoke
//! job's assertion that chaos costs capacity and latency, never
//! answers.

use pim_bench::campaign::Cli;
use pim_bench::chaos::{report_json, run_campaign, ChaosCampaignConfig};
use pim_bench::json;
use pim_runtime::ClusterServeStats;

const USAGE: &str = "pimchaos [--seed N] [--elements N] [--requests N] [--tenants N] \
    [--deadline-slack N] [--interval N] [--stacks N] [--stall-milli N] \
    [--backend sequential|threads:N] [--expect-clean]";

fn main() {
    let mut cli = Cli::new("pimchaos", USAGE);
    let mut cfg = ChaosCampaignConfig::default();
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

    let report = cli.or_exit(run_campaign(&cfg));
    println!("{}", json::to_string(&report_json(&cfg, &report)));

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
            eprintln!("FAIL: {}", failed.join(", "));
            std::process::exit(1);
        }
    }
    eprintln!(
        "campaign done: {} phases, {served} served / {missed} missed, {} hedges, \
         {} rejoins, {} wrong answers{}",
        report.phases.len(),
        total(|s| s.hedges),
        total(|s| s.rejoins),
        report.wrong_answers,
        if expect_clean { " (clean gate passed)" } else { "" }
    );
}
