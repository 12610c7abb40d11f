//! Integration tests for the `pim-verify` static analysis stack: the
//! committed invalid corpus, the valid trace fixtures, the equivalence
//! fixtures, the no-fence race reproduction, and the strict launch mode.

use std::path::PathBuf;

use pim_bench::lint;
use pim_core::isa::{Instruction, Operand};
use pim_core::PimConfig;
use pim_runtime::kernels::{gemv_batches, gemv_microkernel};
use pim_runtime::{Executor, PimContext, PimError};
use pim_verify::{check_fences, events_from_batches, strip_fences, PvCode, StreamEvent};

fn repo_tests_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests").join(sub)
}

fn sources_in(sub: &str) -> Vec<(String, String)> {
    let dir = repo_tests_dir(sub);
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        // `corpus/scripts/` holds the `pimsim` front-end corpus, not lint input.
        .filter(|path| path.is_file())
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).unwrap();
            (name, text)
        })
        .collect();
    out.sort();
    out
}

fn lint_by_extension(cfg: &PimConfig, name: &str, source: &str) -> pim_verify::Report {
    if name.ends_with(".pim") {
        lint::lint_pim_source(cfg, source)
    } else if name.ends_with(".trace") {
        lint::lint_trace_source(cfg, source)
    } else {
        panic!("{name}: corpus files must be .pim or .trace");
    }
}

/// Every corpus file declares the diagnostic it reproduces in its
/// `; expect: PV###` header, and the linter produces exactly that code.
#[test]
fn corpus_files_produce_their_expected_codes() {
    let cfg = PimConfig::paper();
    let mut kernel_codes = std::collections::BTreeSet::new();
    let mut stream_codes = std::collections::BTreeSet::new();
    let corpus = sources_in("corpus");
    assert!(corpus.len() >= 20, "corpus shrank to {} files", corpus.len());
    for (name, source) in &corpus {
        let expected = lint::expected_code(source)
            .unwrap_or_else(|| panic!("{name}: missing `; expect: PV###` header"));
        let report = lint_by_extension(&cfg, name, source);
        assert!(
            report.has_code(expected),
            "{name}: expected {expected}, got:\n{}",
            report.render(name)
        );
        if name.ends_with(".pim") {
            kernel_codes.insert(expected);
        } else {
            stream_codes.insert(expected);
        }
    }
    // The acceptance bar: at least ten distinct PV codes per corpus half.
    assert!(kernel_codes.len() >= 10, "only {} distinct kernel codes", kernel_codes.len());
    assert!(stream_codes.len() >= 10, "only {} distinct stream codes", stream_codes.len());
}

/// The valid trace fixtures pass both stream passes with zero diagnostics.
#[test]
fn trace_fixtures_lint_clean() {
    let cfg = PimConfig::paper();
    let fixtures = sources_in("fixtures");
    assert!(fixtures.len() >= 2, "expected at least two valid fixtures");
    for (name, source) in &fixtures {
        let report = lint::lint_trace_source(&cfg, source);
        assert!(report.is_clean(), "{name}:\n{}", report.render(name));
    }
}

/// The committed equivalence fixtures under `tests/equiv/`: both
/// equivalent pairs verify as such, and the single-instruction SRF-index
/// mutation is rejected with a reason naming the diverging output.
#[test]
fn equiv_fixtures_decide_as_documented() {
    use pim_verify::{check_equivalence, must_assemble, EquivVerdict};
    let cfg = PimConfig::paper();
    let load = |name: &str| {
        let path = repo_tests_dir("equiv").join(name);
        must_assemble(&std::fs::read_to_string(&path).unwrap())
    };
    for (a, b) in [("gemv_loop.pim", "gemv_unrolled.pim"), ("sum_store_a.pim", "sum_store_b.pim")] {
        assert!(
            matches!(check_equivalence(&cfg, &load(a), &load(b)), EquivVerdict::Equivalent),
            "{a} vs {b} should be equivalent"
        );
    }
    match check_equivalence(&cfg, &load("srf_index_a.pim"), &load("srf_index_b.pim")) {
        EquivVerdict::Inequivalent(why) => assert!(why.contains("GRF_B"), "{why}"),
        _ => panic!("the srf_index pair should be inequivalent"),
    }
}

/// The diagnostic index in `docs/LINTING.md` must cover every `PV###`
/// code the crate can emit — the doc is asserted against `PvCode::ALL`
/// (and each code's `summary()` text) so the table cannot silently rot
/// when a new diagnostic lands.
#[test]
fn docs_diagnostic_index_covers_every_code() {
    let doc = include_str!("../docs/LINTING.md");
    let table_rows: Vec<&str> =
        doc.lines().filter(|l| l.starts_with('|') && l.contains("PV")).collect();
    for code in PvCode::ALL {
        let row = table_rows.iter().find(|r| r.contains(code.as_str())).unwrap_or_else(|| {
            panic!("{code} is missing from the diagnostic index in docs/LINTING.md")
        });
        assert!(
            row.contains(code.summary()),
            "{code}'s docs/LINTING.md row does not match its summary():\n  row:     {row}\n  summary: {}",
            code.summary()
        );
    }
}

/// `[A-Za-z0-9_]`: what the textual lints below take an identifier to be.
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers that follow each occurrence of `prefix` in `text`
/// (`[A-Za-z0-9_]+`; an occurrence followed by anything else is skipped).
fn names_after<'a>(text: &'a str, prefix: &'a str) -> impl Iterator<Item = &'a str> {
    text.match_indices(prefix).filter_map(move |(at, _)| {
        let rest = &text[at + prefix.len()..];
        let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

/// What CI and the prose say exists, exists, and every committed
/// `BENCH_*.json` has a test that reads it: each binary named by
/// `--bin X`, `./bin/X` or `target/release/X` in the workflow, README.md,
/// DESIGN.md, EXPERIMENTS.md, `docs/*.md` and the verify skill is
/// `crates/bench/src/bin/X.rs`; each word after `pimrepro ` is a registry
/// entry (or `all` / `list`, or CI's deliberate `nosuch`) and each word
/// after `pimcampaign ` one of the four kinds; each `BENCH_*.json` they name is at the repo root; and each
/// one at the root is `include_str!`-ed under `tests/`. A committed number
/// no test reads is how README.md came to quote a file 13× out of date.
#[test]
fn named_binaries_and_bench_files_exist_and_are_enforced() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let files_in = |dir: &str, ext: &str| -> Vec<PathBuf> {
        let dir = root.join(dir);
        std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .collect()
    };

    let mut prose = vec![
        root.join(".github/workflows/ci.yml"),
        root.join("README.md"),
        root.join("DESIGN.md"),
        root.join("EXPERIMENTS.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    prose.extend(files_in("docs", "md"));
    for path in &prose {
        // `pimbench` is built into `benchmark/target`, not from `src/bin`.
        let text = read(path).replace("benchmark/target/release/", "");
        for prefix in ["--bin ", "./bin/", "target/release/"] {
            for bin in names_after(&text, prefix) {
                let src = root.join(format!("crates/bench/src/bin/{bin}.rs"));
                assert!(src.is_file(), "{} names `{prefix}{bin}`: no such binary", path.display());
            }
        }
        for name in names_after(&text, "pimrepro ") {
            // `nosuch` is the name CI passes to see the usage error.
            let known =
                matches!(name, "all" | "list" | "nosuch") || pim_bench::repro::find(name).is_some();
            assert!(known, "{} names `pimrepro {name}`: no such experiment", path.display());
        }
        for kind in names_after(&text, "pimcampaign ") {
            let known = matches!(kind, "fault" | "serve" | "cluster" | "chaos");
            assert!(known, "{} names `pimcampaign {kind}`: no such campaign", path.display());
        }
        for stem in names_after(&text, "BENCH_") {
            let file = format!("BENCH_{stem}.json");
            if text.contains(&file) {
                assert!(root.join(&file).is_file(), "{} names {file}", path.display());
            }
        }
    }

    assert!(pim_bench::repro::find("nosuch").is_none());

    let tests: String = files_in("tests", "rs").iter().map(|p| read(p)).collect();
    for path in files_in(".", "json") {
        let name = path.file_name().unwrap().to_string_lossy();
        if name.starts_with("BENCH_") {
            assert!(
                tests.contains(&format!("include_str!(\"../{name}\")")),
                "{name} is committed but no test under tests/ reads it"
            );
        }
    }
}

/// Every `.rs` file under `dir`, recursively, skipping build directories,
/// with `//` comments (doc comments and their examples included) cut from
/// every line: a name that only prose mentions has no caller.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let code: Vec<&str> =
                text.lines().map(|l| l.find("//").map_or(l, |at| &l[..at])).collect();
            out.push((path, code.join("\n")));
        }
    }
}

/// The repo's Rust sources the caller lints search: `crates/`, `tests/`,
/// `examples/` and `benchmark/`.
fn workspace_sources(root: &std::path::Path) -> Vec<(PathBuf, String)> {
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    sources
}

/// `crates/<c>/src/...` of a workspace crate as `(crate, path under src)`;
/// `None` for everything else and for the vendored `proptest` /
/// `criterion` / `rand` shims.
fn workspace_src(root: &std::path::Path, path: &std::path::Path) -> Option<(String, String)> {
    let rel = path.strip_prefix(root.join("crates")).ok()?;
    let mut parts = rel.iter().map(|p| p.to_string_lossy().into_owned());
    let (krate, src) = (parts.next()?, parts.next()?);
    let vendored = matches!(krate.as_str(), "proptest" | "criterion" | "rand");
    (src == "src" && !vendored).then(|| (krate, parts.collect::<Vec<_>>().join("/")))
}

/// `true` if `name` occurs in `text` as a whole identifier (or, for a
/// needle ending in `::`, as a path prefix).
fn mentions(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        !text[..at].ends_with(is_ident)
            && (name.ends_with(':') || !text[at + name.len()..].starts_with(is_ident))
    })
}

/// No module without a caller: for every `crates/<c>/src/<m>.rs` of a
/// workspace crate (the vendored `proptest` / `criterion` / `rand` shims
/// aside) some `.rs` file under `crates/`, `tests/`, `examples/` or
/// `benchmark/` other than `<m>.rs` itself and the crate's `lib.rs` —
/// which only declares and re-exports — names one of the module's
/// top-level `pub` items or the path `<m>::`. A module only its own unit
/// tests reach is on no path a test, binary, example or `pimbench`
/// workload runs; eight of them had accumulated before this rule existed.
#[test]
fn every_module_has_a_caller_outside_itself() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = workspace_sources(&root);

    let mut modules = 0;
    let mut islands = Vec::new();
    for (path, text) in &sources {
        // `crates/<c>/src/<m>.rs` exactly: binaries and benches are callers, not modules.
        let Some((krate, file)) = workspace_src(&root, path) else { continue };
        let stem = file.trim_end_matches(".rs");
        if file.contains('/') || stem == "lib" {
            continue;
        }
        modules += 1;
        let mut needles = vec![format!("{stem}::")];
        for line in text.lines() {
            // Top-level items only: `pub` in column 0.
            let Some(item) = line.strip_prefix("pub ") else { continue };
            let mut words = item.split(|c| !is_ident(c));
            let is_item = words.any(|w| {
                matches!(w, "fn" | "struct" | "enum" | "trait" | "const" | "static" | "type")
            });
            // `pub const fn f` names `f`, not `fn`.
            if let (true, Some(name)) = (is_item, words.find(|w| !w.is_empty() && *w != "fn")) {
                needles.push(name.to_string());
            }
        }
        let lib = path.with_file_name("lib.rs");
        let called = sources
            .iter()
            .filter(|(other, _)| other != path && *other != lib)
            .any(|(_, other)| needles.iter().any(|n| mentions(other, n)));
        if !called {
            islands.push(format!("crates/{krate}/src/{file}"));
        }
    }
    assert!(modules >= 80, "walked only {modules} modules: did the crate layout move?");
    assert!(
        islands.is_empty(),
        "no .rs file outside the module and its crate's lib.rs names `<module>::` or any of its \
         top-level pub items — wire each to a caller or delete it: {islands:?}"
    );
}

/// No `pub fn` without a caller — the module rule one level down: for
/// every `pub fn` (or `pub const fn`) outside the `#[cfg(test)]` module of
/// a workspace crate's source file, the name occurs, as an identifier and
/// outside comments, in another `.rs` file under `crates/`, `tests/`,
/// `examples/` or `benchmark/`, or in its own file's non-test code at
/// somewhere other than a definition. A function only its own unit tests
/// call is API nothing runs: delete it with the test, make it private or
/// `#[cfg(test)]` if the tests are its purpose, or give it the caller it
/// was written for. Textual, so a name shared with a called function hides
/// an uncalled one; trait-impl methods are not `pub fn`.
#[test]
fn every_pub_fn_has_a_caller_outside_its_own_tests() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = workspace_sources(&root);
    let names: Vec<std::collections::HashSet<&str>> = sources
        .iter()
        .map(|(_, text)| text.split(|c| !is_ident(c)).filter(|w| !w.is_empty()).collect())
        .collect();

    let mut functions = 0;
    let mut islands = Vec::new();
    for (at, (path, text)) in sources.iter().enumerate() {
        let Some((krate, file)) = workspace_src(&root, path) else { continue };
        // The file's own code: everything before its `#[cfg(test)] mod`.
        let lines: Vec<&str> = text.lines().collect();
        let tests_at = (0..lines.len()).find(|&i| {
            lines[i] == "#[cfg(test)]"
                && lines[i + 1..]
                    .iter()
                    .find(|l| !l.starts_with("#["))
                    .is_some_and(|l| l.starts_with("mod ") || l.starts_with("pub(crate) mod "))
        });
        let own = lines[..tests_at.unwrap_or(lines.len())].join("\n");
        for prefix in ["pub fn ", "pub const fn "] {
            for name in names_after(&own, prefix) {
                functions += 1;
                let elsewhere =
                    names.iter().enumerate().any(|(i, set)| i != at && set.contains(name));
                let here = own.match_indices(name).any(|(i, _)| {
                    !own[..i].ends_with(is_ident)
                        && !own[i + name.len()..].starts_with(is_ident)
                        && !own[..i].ends_with("fn ")
                });
                if !elsewhere && !here {
                    islands.push(format!("crates/{krate}/src/{file}: {name}"));
                }
            }
        }
    }
    assert!(functions >= 600, "walked only {functions} pub fns: did the crate layout move?");
    assert!(
        islands.is_empty(),
        "pub fns that no .rs file names outside their own file's #[cfg(test)] module — delete \
         each with its test, make it private, or wire it to a caller: {islands:#?}"
    );
}

/// The shipped example kernel sources assemble and verify clean.
#[test]
fn example_kernel_sources_lint_clean() {
    let cfg = PimConfig::paper();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.display().to_string();
        let report = lint::lint_pim_source(&cfg, &std::fs::read_to_string(&path).unwrap());
        assert!(report.is_clean(), "{name}:\n{}", report.render(&name));
        seen += 1;
    }
    assert!(seen >= 2, "expected the shipped example kernels under examples/kernels/");
}

/// Every built-in microkernel passes the kernel verifier and every
/// executor choreography passes the protocol and fence passes.
#[test]
fn builtin_kernels_and_streams_are_clean() {
    for (name, report) in lint::builtin_kernel_reports() {
        assert!(report.is_clean(), "{name}:\n{}", report.render(&name));
    }
    for (name, protocol, fences) in lint::builtin_stream_reports() {
        assert!(protocol.is_clean(), "{name}:\n{}", protocol.render(&name));
        assert!(fences.is_clean(), "{name}:\n{}", fences.render(&name));
    }
}

/// The GEMV choreography with the host readback of the accumulators: the
/// shipped (fenced) stream is race-free, and the detector pinpoints the
/// unfenced-readback race (PV202) the moment the fences are stripped —
/// the no-fence experiment of Section VII-B, statically.
#[test]
fn fence_detector_flags_stripped_gemv_readback() {
    let cfg = PimConfig::paper();
    let k = 64usize;
    let x = vec![1.0f32; k];
    let prog = gemv_microkernel((k / 8) as u32, &cfg);
    let data = gemv_batches(k, 0x100, &x, &cfg);
    let batches = Executor::full_kernel(&prog, None, true, &data);
    let mut events = events_from_batches(&batches);
    let n = events.len();
    let bank = pim_dram::BankAddr::new(0, 0);
    events.push(StreamEvent::cmd(n, pim_dram::Command::Act { bank, row: pim_core::conf::GRF_ROW }));
    for i in 0..8u32 {
        events
            .push(StreamEvent::cmd(n + 1 + i as usize, pim_dram::Command::Rd { bank, col: 8 + i }));
    }
    events.push(StreamEvent::cmd(n + 9, pim_dram::Command::Pre { bank }));

    let fenced = check_fences(&cfg, &events);
    assert!(fenced.is_clean(), "fenced GEMV should be race-free:\n{}", fenced.render("gemv"));

    let stripped = strip_fences(&events);
    let report = check_fences(&cfg, &stripped);
    assert!(
        report.has_code(PvCode::Pv202UnfencedGrfReadback),
        "stripped GEMV should race:\n{}",
        report.render("gemv-nofence")
    );
}

/// Strict launch mode surfaces the very same report the standalone
/// verifier produces for the rejected kernel.
#[test]
fn strict_mode_report_matches_standalone_verifier() {
    let mut ctx = PimContext::small_system();
    ctx.set_strict(true);
    let prog = vec![
        Instruction::Mac {
            dst: Operand::grf_a(0),
            src0: Operand::even_bank(),
            src1: Operand::odd_bank(),
            aam: false,
        },
        Instruction::Exit,
    ];
    let err = Executor::try_run(&mut ctx, 1, &prog, None, false, &[]).unwrap_err();
    let PimError::InvalidKernel { report } = err else {
        panic!("expected InvalidKernel");
    };
    let standalone = pim_verify::analyze_program(ctx.sys.pim_config(), &prog);
    assert_eq!(report, standalone);
    assert!(report.has_code(PvCode::Pv002MultipleBankOperands));
}
