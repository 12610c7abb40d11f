//! Cold-vs-warm launch throughput for the launch-memoization fast path.
//!
//! ```text
//! cargo run --release -p pim-bench --bin bench_fastpath -- [--smoke] [--out PATH]
//! ```
//!
//! Measures the committed sweep (Table VI GEMV1 plus a model-zoo fully
//! connected layer): one cold (fully simulated) launch, then a train of
//! steady-state launches that replay from the launch-memoization cache.
//! Prints the comparison and, with `--out`, writes the
//! `pim-bench/fastpath-v1` JSON document (`BENCH_fastpath.json` when
//! regenerating the committed file).
//!
//! Exits non-zero if any warm launch diverged from the cold run — the
//! fast path's exactness contract is checked on every measurement, not
//! only in the dedicated gate.

use pim_bench::fastpath::{sweep, to_json};
use pim_bench::json;
use pim_bench::report::format_table;

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument '{other}' (expected --smoke / --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let entries = sweep(smoke);

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.name.clone(),
                format!("{}x{}", e.n, e.k),
                format!("{:.4}", e.cold_wall_s),
                format!("{:.6}", e.warm_wall_s),
                format!("{:.1}x", e.warm_over_cold_ratio),
                format!("{}", e.steady.cycles),
                format!("{}/{}", e.hits, e.misses),
                if e.exact { "exact" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "workload",
                "n x k",
                "cold s",
                "warm s",
                "speedup",
                "steady cycles",
                "hit/miss",
                "warm vs cold"
            ],
            &rows
        )
    );

    if let Some(path) = &out {
        let doc = to_json(&entries, smoke);
        std::fs::write(path, json::to_string(&doc) + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    for e in &entries {
        if !e.exact {
            eprintln!("FAIL: {} warm launches diverged from the cold run", e.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
