//! Seeded fault-injection campaign runner.
//!
//! ```text
//! cargo run --release -p pim-bench --bin pimfault -- \
//!     [--seed N] [--elements N] [--rates R1,R2,...] \
//!     [--backend sequential|threads:N] [--expect-clean]
//! ```
//!
//! Sweeps the base fault rate over `pim_bench::faults::fault_mix`, runs
//! the resilient runtime at every point, and prints the
//! `pim-bench/fault-campaign-v1` JSON report on stdout. The report is
//! deterministic in `(seed, elements, rates)` and byte-identical across
//! execution backends.
//!
//! `--expect-clean` exits non-zero if any point has wrong answers — the
//! CI smoke job's assertion that the recovery ladder fully recovers.

use pim_bench::campaign::Cli;
use pim_bench::faults::{report_json, run_campaign, CampaignConfig};
use pim_bench::json;

const USAGE: &str = "pimfault [--seed N] [--elements N] [--rates R1,R2,...] \
    [--backend sequential|threads:N] [--expect-clean]";

fn main() {
    let mut cli = Cli::new("pimfault", USAGE);
    let mut cfg = CampaignConfig::default();
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

    let points = cli.or_exit(run_campaign(&cfg));
    println!("{}", json::to_string(&report_json(&cfg, &points)));

    let wrong: u64 = points.iter().map(|p| p.wrong_answers).sum();
    if expect_clean && wrong > 0 {
        eprintln!("FAIL: {wrong} wrong answers escaped the recovery ladder");
        std::process::exit(1);
    }
    eprintln!(
        "campaign done: {} points, {} wrong answers{}",
        points.len(),
        wrong,
        if expect_clean { " (clean gate passed)" } else { "" }
    );
}
