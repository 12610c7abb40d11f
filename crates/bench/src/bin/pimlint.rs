//! `pimlint` — the command-line driver for the `pim-verify` static
//! analysis passes.
//!
//! ```text
//! usage: pimlint [OPTIONS] [FILES...]
//!        pimlint --equiv A.pim B.pim
//!
//!   FILES             `.pim` microkernel sources (assembled, then run
//!                     through the kernel verifier + symbolic executor)
//!                     and `.trace` command streams (protocol linter +
//!                     fence-race detector)
//!   --builtin         also lint every built-in runtime microkernel (all
//!                     hardware variants) and every executor choreography
//!   --variant NAME    hardware variant for the kernel pass:
//!                     base | 2x | 2bank | srw        (default: base)
//!   --deny-warnings   exit non-zero on warnings, not just errors
//!   --json            print each report as one JSON object per file
//!                     (schema: pim-verify/report-v1) instead of the
//!                     rustc-style rendering
//!   --equiv A B       decide semantic equivalence of two `.pim` programs
//!                     by symbolic execution: exit 0 if equivalent, 1 if
//!                     inequivalent or unprovable
//!   --encode FILE     assemble FILE and print its CRF image as hex words
//!                     (for authoring `.trace` fixtures), then exit
//! ```
//!
//! A file whose first line is `; expect: PV###` inverts the check: the
//! file *must* produce that diagnostic (the committed invalid corpus under
//! `tests/corpus/` is linted this way in CI).
//!
//! Exit status: 0 clean (or all expectations met, or programs equivalent),
//! 1 diagnostics found, an expectation unmet, or programs inequivalent,
//! 2 usage or I/O error.

use pim_bench::cli::Cli;
use pim_bench::lint;
use pim_bench::{out, outln};
use pim_core::{PimConfig, PimVariant};
use pim_verify::EquivVerdict;

const USAGE: &str = "pimlint [--builtin] [--variant base|2x|2bank|srw] \
    [--deny-warnings] [--json] [--encode FILE] [FILES...]\n\
    \x20      pimlint [--variant ...] --equiv A.pim B.pim";

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("pimlint: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn assemble_file(path: &str) -> Vec<pim_core::isa::Instruction> {
    match pim_core::asm::assemble(&read(path)) {
        Ok(prog) => prog,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut files: Vec<String> = Vec::new();
    let mut builtin = false;
    let mut deny_warnings = false;
    let mut json = false;
    let mut encode: Option<String> = None;
    let mut equiv: Option<(String, String)> = None;
    let mut variant = PimVariant::Base;

    let mut cli = Cli::new("pimlint", USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--help" | "-h" => cli.usage(),
            "--builtin" => builtin = true,
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--encode" => encode = Some(cli.next_value(&arg)),
            "--equiv" => equiv = Some((cli.next_value(&arg), cli.next_value(&arg))),
            "--variant" => {
                let name = cli.next_value(&arg);
                variant = match name.as_str() {
                    "base" => PimVariant::Base,
                    "2x" => PimVariant::DoubleResources,
                    "2bank" => PimVariant::TwoBankAccess,
                    "srw" => PimVariant::SimultaneousReadWrite,
                    _ => cli.bad(format!("unknown variant '{name}'")),
                };
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => cli.bad(format!("unknown argument '{other}'")),
        }
    }
    if files.is_empty() && !builtin && encode.is_none() && equiv.is_none() {
        cli.bad("nothing to lint".to_string());
    }
    let cfg = PimConfig::with_variant(variant);

    if let Some((path_a, path_b)) = equiv {
        let a = assemble_file(&path_a);
        let b = assemble_file(&path_b);
        match pim_verify::check_equivalence(&cfg, &a, &b) {
            EquivVerdict::Equivalent => {
                outln!("{path_a} and {path_b} are semantically equivalent");
                std::process::exit(0);
            }
            EquivVerdict::Inequivalent(why) => {
                outln!("{path_a} and {path_b} are NOT equivalent: {why}");
                std::process::exit(1);
            }
            EquivVerdict::Unprovable(report) => {
                out!("{}", report.render("equiv"));
                outln!("{path_a} vs {path_b}: equivalence is not provable");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = encode {
        match pim_core::asm::assemble(&read(&path)) {
            Ok(prog) => {
                for i in &prog {
                    outln!("0x{:08X}  ; {i}", i.encode());
                }
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut failed = false;

    for path in &files {
        let source = read(path);
        let report = if path.ends_with(".pim") {
            lint::lint_pim_source(&cfg, &source)
        } else if path.ends_with(".trace") {
            lint::lint_trace_source(&source)
        } else {
            eprintln!("pimlint: {path}: expected a .pim or .trace file");
            std::process::exit(2);
        };
        if json {
            outln!("{}", report.render_json(path));
        }
        match lint::expected_code(&source) {
            Some(code) => {
                if report.has_code(code) {
                    if !json {
                        outln!("{path}: produces {code} as expected");
                    }
                } else {
                    if !json {
                        eprint!("{}", report.render(path));
                    }
                    eprintln!("{path}: FAILED — expected {code}, not produced");
                    failed = true;
                }
            }
            None => {
                if !report.is_clean() && !json {
                    out!("{}", report.render(path));
                }
                if report.has_errors() || (deny_warnings && report.warning_count() > 0) {
                    failed = true;
                }
            }
        }
    }

    if builtin {
        let mut checked = 0usize;
        for (name, report) in lint::builtin_kernel_reports() {
            checked += 1;
            if !report.is_clean() {
                if json {
                    outln!("{}", report.render_json(&name));
                } else {
                    out!("{}", report.render(&name));
                }
                failed = true;
            }
        }
        for (name, protocol, fences) in lint::builtin_stream_reports() {
            checked += 1;
            if !protocol.is_clean() {
                if json {
                    outln!("{}", protocol.render_json(&name));
                } else {
                    out!("{}", protocol.render(&name));
                }
                failed = true;
            }
            if !fences.is_clean() {
                if json {
                    outln!("{}", fences.render_json(&name));
                } else {
                    out!("{}", fences.render(&name));
                }
                failed = true;
            }
        }
        outln!(
            "builtin: {checked} kernel/stream targets linted{}",
            if failed { "" } else { ", all clean" }
        );
    }

    std::process::exit(if failed { 1 } else { 0 });
}
