//! Seeded multi-stack cluster campaign runner.
//!
//! ```text
//! cargo run --release -p pim-bench --bin pimcluster -- \
//!     [--seed N] [--elements N] [--requests N] [--tenants N] \
//!     [--deadline-slack N] [--interval N] [--stacks S1,S2,...] \
//!     [--rates R1,R2,...] [--backend sequential|threads:N] [--expect-clean]
//! ```
//!
//! Sweeps stack count against base fault rate: every grid point offers
//! the same seeded request trace to a cluster scheduler over N
//! single-stack systems and reports goodput, tail latency, failovers,
//! and the row-parallel GEMV bit-identity gates. The JSON report
//! (`pim-bench/cluster-campaign-v1`) is deterministic in the config and
//! byte-identical across execution backends.
//!
//! `--expect-clean` exits non-zero if any served result disagrees with
//! the exact FP16 oracle or any bit-identity gate fails — the CI
//! cluster-smoke job's assertion that scale-out changes capacity, never
//! answers.

use pim_bench::campaign::Cli;
use pim_bench::cluster::{report_json, run_campaign, ClusterCampaignConfig};
use pim_bench::json;
use pim_runtime::ServeStats;

const USAGE: &str = "pimcluster [--seed N] [--elements N] [--requests N] [--tenants N] \
    [--deadline-slack N] [--interval N] [--stacks S1,S2,...] [--rates R1,R2,...] \
    [--backend sequential|threads:N] [--expect-clean]";

fn main() {
    let mut cli = Cli::new("pimcluster", USAGE);
    let mut cfg = ClusterCampaignConfig::default();
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

    let points = cli.or_exit(run_campaign(&cfg));
    println!("{}", json::to_string(&report_json(&cfg, &points)));

    let wrong: u64 = points.iter().map(|p| p.audit.wrong_answers).sum();
    let gates_ok = points.iter().all(|p| p.gemv_bit_identical && p.gemv_bit_identical_failover);
    if expect_clean && (wrong > 0 || !gates_ok) {
        eprintln!("FAIL: {wrong} wrong answers, bit-identity gates ok = {gates_ok}");
        std::process::exit(1);
    }
    let total = |f: fn(&ServeStats) -> u64| points.iter().map(|p| f(&p.stats.serve)).sum::<u64>();
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
