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
        lint::lint_trace_source(source)
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
    let fixtures = sources_in("fixtures");
    assert!(fixtures.len() >= 2, "expected at least two valid fixtures");
    for (name, source) in &fixtures {
        let report = lint::lint_trace_source(source);
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

/// The linter's full output is pinned: every corpus file and every trace
/// fixture renders, byte for byte, the committed
/// `tests/golden/lint/<file>.txt` (empty for a clean fixture), and that
/// directory holds one golden per input and nothing else. A change to a
/// pass that moves a message, a site or the order of two findings fails
/// here and must move the golden on purpose.
#[test]
fn every_lint_input_renders_its_golden_report() {
    let cfg = PimConfig::paper();
    let dir = repo_tests_dir("golden/lint");
    let mut inputs = sources_in("corpus");
    inputs.extend(sources_in("fixtures"));
    for (name, source) in &inputs {
        let path = dir.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let got = lint_by_extension(&cfg, name, source).render(name);
        assert_eq!(got, want, "{name} no longer lints to {}", path.display());
    }
    let goldens: std::collections::BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let named = inputs.iter().map(|(name, _)| format!("{name}.txt")).collect();
    assert_eq!(goldens, named, "tests/golden/lint/ != one `<input>.txt` per lint input");
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

/// Every file under `dir`, recursively, skipping build directories, with
/// its text (files that are not UTF-8 are skipped).
fn text_files(dir: &std::path::Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                text_files(&path, out);
            }
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            out.push((path, text));
        }
    }
}

/// The prose names binaries that exist: every backticked `` `pim<name>` ``
/// (a lowercase word, so `pim_core` is not one) under `crates/`, `tests/`
/// and `docs/` and in README.md, DESIGN.md and EXPERIMENTS.md is a
/// `crates/bench/src/bin/<name>.rs` or `pimbench`. The history files
/// (CHANGES, ROADMAP) and the frozen `benchmark/` are not read.
/// Eleven comments named binaries folded into `pimcampaign` long after the
/// fold.
#[test]
fn backticked_binary_names_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "docs"] {
        text_files(&root.join(dir), &mut files);
    }
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let path = root.join(doc);
        files.push((path.clone(), std::fs::read_to_string(&path).unwrap()));
    }
    let mut unknown = Vec::new();
    for (path, text) in &files {
        for rest in names_after(text, "`pim") {
            let bin = format!("pim{rest}");
            let binary = root.join(format!("crates/bench/src/bin/{bin}.rs"));
            if rest.bytes().all(|b| b.is_ascii_lowercase())
                && bin != "pimbench"
                && !binary.is_file()
            {
                unknown.push(format!("{}: `{bin}`", path.display()));
            }
        }
    }
    assert!(files.len() > 200, "read only {} files: did the layout move?", files.len());
    assert!(unknown.is_empty(), "backticked names of binaries that do not exist: {unknown:#?}");
}

/// DESIGN.md names modules that exist: every `pim-<crate>::<module>` (the
/// lowercase path segments, so `pim-core::isa::Instruction` names
/// `isa`) is `crates/<crate>/src/<module>.rs`.
#[test]
fn design_module_paths_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let mut checked = 0;
    let mut missing = Vec::new();
    for (at, _) in design.match_indices("pim-") {
        let rest = &design[at + 4..];
        let krate = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
        let mut modules = Vec::new();
        let mut tail = &rest[krate.len()..];
        while let Some(next) = tail.strip_prefix("::") {
            let segment = &next[..next.find(|c| !is_ident(c)).unwrap_or(next.len())];
            if !segment.starts_with(|c: char| c.is_ascii_lowercase()) {
                break;
            }
            modules.push(segment);
            tail = &next[segment.len()..];
        }
        if modules.is_empty() {
            continue;
        }
        checked += 1;
        let file = format!("crates/{krate}/src/{}.rs", modules.join("/"));
        if !root.join(&file).is_file() {
            missing.push(format!("pim-{krate}::{} ({file})", modules.join("::")));
        }
    }
    assert!(checked >= 10, "checked only {checked} module paths in DESIGN.md");
    assert!(missing.is_empty(), "DESIGN.md names modules that do not exist: {missing:#?}");
}

/// README.md, DESIGN.md, EXPERIMENTS.md and every `docs/*.md` — the prose
/// kept beside the code — as `(path from the repo root, text)`.
fn prose_docs(root: &std::path::Path) -> Vec<(String, String)> {
    let mut docs: Vec<String> =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(String::from).into();
    for entry in std::fs::read_dir(root.join("docs")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.ends_with(".md") {
            docs.push(format!("docs/{name}"));
        }
    }
    docs.into_iter()
        .map(|doc| {
            let text = std::fs::read_to_string(root.join(&doc))
                .unwrap_or_else(|e| panic!("read {doc}: {e}"));
            (doc, text)
        })
        .collect()
}

/// The backticked spans of `text` that cite a test or a Rust file:
/// `path.rs::name`, `module::tests::name` or a bare `path.rs`.
fn cited_tests(text: &str) -> Vec<&str> {
    text.match_indices('`')
        .filter_map(|(at, _)| {
            let rest = &text[at + 1..];
            let end = rest
                .find(|c: char| !is_ident(c) && !matches!(c, '/' | '.' | ':' | '-'))
                .unwrap_or(rest.len());
            let span = &rest[..end];
            let cites =
                span.ends_with(".rs") || span.contains(".rs::") || span.contains("::tests::");
            (cites && span.starts_with(is_ident) && rest[end..].starts_with('`')).then_some(span)
        })
        .collect()
}

/// `true` if what `cited` (one of [`cited_tests`]) names exists:
/// `path.rs::name` is a file whose path ends in `path.rs` and declares
/// `fn name`; `module::tests::name` a `crates/<c>/src/**/module.rs` of a
/// workspace crate that declares `fn name`; a bare `path.rs` a file at that
/// path from the repo root, or, with no `/`, a Rust file of that name
/// anywhere in `sources`.
fn resolves(root: &std::path::Path, sources: &[(PathBuf, String)], cited: &str) -> bool {
    let declares = |text: &str, name: &str| text.contains(&format!("fn {name}("));
    if let Some((module, name)) = cited.split_once("::tests::").filter(|(m, _)| !m.contains(".rs"))
    {
        let module = module.rsplit("::").next().unwrap();
        sources.iter().any(|(path, text)| {
            workspace_src(root, path).is_some()
                && path.file_stem().is_some_and(|stem| stem == module)
                && declares(text, name)
        })
    } else if let Some((file, name)) = cited.split_once(".rs::") {
        let file = format!("{file}.rs");
        let name = name.rsplit("::").next().unwrap();
        sources.iter().any(|(path, text)| {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy();
            (rel == file || rel.ends_with(&format!("/{file}"))) && declares(text, name)
        })
    } else if cited.contains('/') {
        root.join(cited).is_file()
    } else {
        sources.iter().any(|(path, _)| path.file_name().is_some_and(|n| n == cited))
    }
}

/// Every doc says in its first 15 lines what it promises and which tests
/// hold the promise: a `**Contract:** <one sentence>.` paragraph, then a
/// `**Held by:**` paragraph citing at least one test (`path.rs::name`,
/// `module::tests::name` or a file under a `tests/` directory) and only
/// tests that exist. A doc that cannot name one is folded into a doc that
/// can, or deleted.
#[test]
fn every_doc_opens_with_its_contract() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = workspace_sources(&root);
    let paragraph = |lines: &[&str], from: usize| {
        lines[from..]
            .iter()
            .take_while(|l| !l.trim().is_empty())
            .copied()
            .collect::<Vec<_>>()
            .join("\n")
    };
    let mut bad = Vec::new();
    for (doc, text) in prose_docs(&root) {
        let lines: Vec<&str> = text.lines().collect();
        let head = &lines[..lines.len().min(15)];
        let contract = head.iter().position(|l| l.starts_with("**Contract:** "));
        let held = head.iter().position(|l| l.starts_with("**Held by:** "));
        let (Some(contract), Some(held)) = (contract, held) else {
            bad.push(format!("{doc}: no `**Contract:**` and `**Held by:**` lines in its first 15"));
            continue;
        };
        if held < contract || !paragraph(&lines, contract).ends_with('.') {
            bad.push(format!(
                "{doc}: the contract is one sentence ending in `.`, before `Held by:`"
            ));
        }
        let held_by = paragraph(&lines, held);
        let cited = cited_tests(&held_by);
        if !cited.iter().any(|c| c.contains("::") || c.contains("tests/")) {
            bad.push(format!("{doc}: `Held by:` cites no test"));
        }
        for c in cited.iter().filter(|c| !resolves(&root, &sources, c)) {
            bad.push(format!("{doc}: `Held by:` cites `{c}`, which does not exist"));
        }
    }
    assert!(bad.is_empty(), "docs without a contract held by a test: {bad:#?}");
}

/// Every test the prose cites exists: each `path.rs::name`,
/// `module::tests::name` and bare `path.rs` in README.md, DESIGN.md,
/// EXPERIMENTS.md, `docs/*.md` and the verify skill resolves as
/// [`resolves`] says. A renamed test otherwise leaves its doc pointing at
/// nothing.
#[test]
fn docs_name_only_tests_that_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = workspace_sources(&root);
    let mut docs = prose_docs(&root);
    let skill = ".claude/skills/verify/SKILL.md";
    docs.push((skill.to_string(), std::fs::read_to_string(root.join(skill)).unwrap()));
    let (mut checked, mut missing) = (0, Vec::new());
    for (doc, text) in &docs {
        for cited in cited_tests(text) {
            checked += 1;
            if !resolves(&root, &sources, cited) {
                missing.push(format!("{doc}: `{cited}`"));
            }
        }
    }
    assert!(checked >= 100, "checked only {checked} test citations: did the docs move?");
    assert!(missing.is_empty(), "docs cite tests or files that do not exist: {missing:#?}");
}

/// The prose's line ceilings: each doc's `wc -l` when its row was last
/// set. A PR may lower a ceiling; raising one takes an edit of this table
/// in the same diff. A `docs/*.md` without a row fails, and so does a row
/// whose file is gone.
const DOC_CEILINGS: &[(&str, usize)] = &[
    ("README.md", 120),
    ("DESIGN.md", 264),
    ("EXPERIMENTS.md", 264),
    ("docs/CLUSTER.md", 236),
    ("docs/FASTPATH.md", 558),
    ("docs/ISA.md", 136),
    ("docs/LINTING.md", 278),
    ("docs/OBSERVABILITY.md", 296),
    ("docs/PANIC_AUDIT.md", 77),
    ("docs/REJECTED.md", 19),
    ("docs/RESILIENCE.md", 157),
    ("docs/SERVING.md", 212),
];

/// `docs/*.md` + README.md + DESIGN.md together, and README.md alone.
const PROSE_BUDGET: usize = 2_500;
const README_BUDGET: usize = 150;

#[test]
fn docs_stay_under_their_budget() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs = prose_docs(&root);
    let (mut total, mut over) = (0, Vec::new());
    for (doc, text) in &docs {
        let lines = text.lines().count();
        if doc != "EXPERIMENTS.md" {
            total += lines;
        }
        if doc == "README.md" && lines > README_BUDGET {
            over.push(format!("README.md: {lines} lines, budget {README_BUDGET}"));
        }
        match DOC_CEILINGS.iter().find(|(name, _)| name == doc) {
            Some(&(_, ceiling)) if lines > ceiling => {
                over.push(format!("{doc}: {lines} lines, ceiling {ceiling}"))
            }
            Some(_) => {}
            None => over.push(format!("{doc}: {lines} lines and no ceiling row")),
        }
    }
    for (name, _) in DOC_CEILINGS {
        if !docs.iter().any(|(doc, _)| doc == name) {
            over.push(format!("{name}: a ceiling row for a file that is gone"));
        }
    }
    if total > PROSE_BUDGET {
        over.push(format!("docs/ + README.md + DESIGN.md: {total} lines, budget {PROSE_BUDGET}"));
    }
    assert!(over.is_empty(), "prose over its budget: {over:#?}");
}

/// CHANGES.md keeps one line per PR, and every line after PR 31's stays
/// within 3 000 characters; the lines up to it are history and are not
/// rewritten.
#[test]
fn changes_lines_stay_short() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).unwrap();
    let lines: Vec<&str> = changes.lines().collect();
    let start = lines.iter().position(|l| l.starts_with("PR 31 ")).expect("CHANGES.md lost PR 31");
    for (i, line) in lines.iter().enumerate().skip(start + 1) {
        let chars = line.chars().count();
        assert!(chars <= 3_000, "CHANGES.md line {}: {chars} characters, cap 3 000", i + 1);
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

/// The column-0 `impl` blocks of a file's lines: the implementing type's
/// last path segment (`Foo` for `impl<T> a::Foo<T>` and for
/// `impl Trait for Foo`) and the block's line range, through its
/// column-0 `}`.
fn impl_blocks(lines: &[&str]) -> Vec<(String, std::ops::Range<usize>)> {
    let mut blocks = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("impl") else { continue };
        if !rest.starts_with([' ', '<']) {
            continue;
        }
        let open = (i..lines.len()).find(|&j| lines[j].contains('{')).unwrap_or(i);
        let header = lines[i..=open].join("\n");
        let header = &header[4..header.find('{').unwrap_or(header.len())];
        let mut ty = skip_generics(header).trim_start();
        if let Some(at) = ty.find(" for ") {
            ty = ty[at + 5..].trim_start();
        }
        let path = &ty[..ty.find(|c: char| !is_ident(c) && c != ':').unwrap_or(ty.len())];
        let name = path.rsplit("::").next().unwrap_or(path);
        let end = if line.ends_with("{}") {
            i
        } else {
            (i + 1..lines.len()).find(|&j| lines[j] == "}").unwrap_or(lines.len() - 1)
        };
        blocks.push((name.to_string(), i..end + 1));
    }
    blocks
}

/// `text` after a leading `<...>` generics list (`->` inside it is not a
/// closing bracket), or `text` itself when it opens with none.
fn skip_generics(text: &str) -> &str {
    if !text.starts_with('<') {
        return text;
    }
    let (mut depth, mut prev) = (0i32, ' ');
    for (i, c) in text.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return &text[i + 1..];
        }
        prev = c;
    }
    ""
}

/// Whether the signature that follows a function's name (generics, then
/// the parameter list, possibly over several lines) opens with a `self`
/// receiver: `self`, `&self`, `&'a mut self`, `mut self`, `self: Box<Self>`.
fn has_receiver(signature: &str) -> bool {
    let Some(params) = skip_generics(signature).trim_start().strip_prefix('(') else {
        return false;
    };
    let mut p = params.trim_start();
    if let Some(r) = p.strip_prefix('&') {
        p = r.trim_start();
        if let Some(lifetime) = p.strip_prefix('\'') {
            p = lifetime.trim_start_matches(is_ident).trim_start();
        }
    }
    p = p.strip_prefix("mut ").map_or(p, str::trim_start);
    p.strip_prefix("self").is_some_and(|r| !r.starts_with(is_ident))
}

/// No `pub fn` without a caller — the module rule one level down: for
/// every `pub fn` (or `pub const fn`) outside the `#[cfg(test)]` module of
/// a workspace crate's source file, the name occurs, as an identifier and
/// outside comments, in another `.rs` file under `crates/`, `tests/`,
/// `examples/` or `benchmark/`, or in its own file's non-test code at
/// somewhere other than a definition. An associated function — one in an
/// `impl T` block with no `self` receiver — is only ever called as
/// `T::f`, so for it the needle is that path (or `Self::f` inside one of
/// `T`'s own impl blocks): a bare `new` or `create` is found everywhere. A
/// function only its own unit tests call is API nothing runs: delete it
/// with the test, make it private or `#[cfg(test)]` if the tests are its
/// purpose, or give it the caller it was written for. Textual, so a
/// method name shared with a called method hides an uncalled one;
/// trait-impl methods are not `pub fn`.
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
        let own_lines = &lines[..tests_at.unwrap_or(lines.len())];
        let own = own_lines.join("\n");
        let impls = impl_blocks(own_lines);
        for prefix in ["pub fn ", "pub const fn "] {
            for (def, _) in own.match_indices(prefix) {
                let rest = &own[def + prefix.len()..];
                let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
                if name.is_empty() {
                    continue;
                }
                functions += 1;
                let line = own[..def].matches('\n').count();
                let owner = impls.iter().find(|(_, lines)| lines.contains(&line));
                let called = match owner {
                    Some((ty, _)) if !has_receiver(&rest[name.len()..]) => {
                        let path = format!("{ty}::{name}");
                        let in_own_impl =
                            impls.iter().filter(|(t, _)| t == ty).any(|(_, range)| {
                                mentions(
                                    &own_lines[range.clone()].join("\n"),
                                    &format!("Self::{name}"),
                                )
                            });
                        in_own_impl
                            || mentions(&own, &path)
                            || sources
                                .iter()
                                .enumerate()
                                .any(|(i, (_, t))| i != at && mentions(t, &path))
                    }
                    _ => {
                        let elsewhere =
                            names.iter().enumerate().any(|(i, set)| i != at && set.contains(name));
                        let here = own.match_indices(name).any(|(i, _)| {
                            !own[..i].ends_with(is_ident)
                                && !own[i + name.len()..].starts_with(is_ident)
                                && !own[..i].ends_with("fn ")
                        });
                        elsewhere || here
                    }
                };
                if !called {
                    let what = owner.map_or(name.to_string(), |(ty, _)| format!("{ty}::{name}"));
                    islands.push(format!("crates/{krate}/src/{file}: {what}"));
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

/// A setting with one value in use is a constant, not a field: the `pub`
/// fields of every `pub struct *Config` in a workspace crate's sources (the
/// vendored shims aside) total at most `BUDGET`. A change may lower the
/// budget; raising it takes an edit of this test in the same diff.
///
/// The fields that still hold one value, and the ROADMAP item that retires
/// each:
/// * `ResilienceConfig` (all four) — item 11, one recovery ladder;
/// * `ControllerConfig::{policy, page_policy}` — item 12, the paper's
///   controller in the loop or out of the tree;
/// * `HostConfig`'s calibration constants (`cus`, `cu_mhz`,
///   `flops_per_cu_cycle_fp16`, `llc_bytes`, the three `*_stream_efficiency`
///   factors, `kernel_launch_overhead_us`) — item 9, a structural host
///   model.
#[test]
fn config_fields_stay_under_their_budget() {
    const BUDGET: usize = 42;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut structs, mut fields) = (0, Vec::new());
    for (path, text) in workspace_sources(&root) {
        if workspace_src(&root, &path).is_none() {
            continue;
        }
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(rest) = line.strip_prefix("pub struct ") else { continue };
            let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            if !name.ends_with("Config") || !rest[name.len()..].trim_start().starts_with('{') {
                continue;
            }
            structs += 1;
            for field in lines[i + 1..].iter().take_while(|l| **l != "}") {
                if let Some(f) = field.strip_prefix("    pub ") {
                    fields.push(format!("{name}::{}", &f[..f.find(':').unwrap_or(f.len())]));
                }
            }
        }
    }
    assert!(structs >= 8, "found only {structs} `pub struct *Config`: did the layout move?");
    assert!(
        fields.len() <= BUDGET,
        "{} pub fields in `*Config` structs, budget {BUDGET}: turn a field with one value in \
         use into a constant: {fields:#?}",
        fields.len()
    );
}

/// Code under `crates/*/src` (the vendored shims aside) stays within
/// `BUDGET` lines: lines that are non-blank once `//` comments are cut,
/// above each file's first column-0 `#[cfg(test)]`. A change may lower the
/// budget; raising it takes an edit of this test in the same diff.
#[test]
fn code_lines_stay_under_their_budget() {
    const BUDGET: usize = 16_217;
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lines: usize = workspace_sources(&root)
        .iter()
        .filter(|(path, _)| workspace_src(&root, path).is_some())
        .map(|(_, text)| {
            let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
            code.filter(|l| !l.trim().is_empty()).count()
        })
        .sum();
    assert!(lines > 10_000, "counted only {lines} code lines: did the layout move?");
    assert!(lines <= BUDGET, "{lines} code lines under crates/*/src, budget {BUDGET}");
}

/// Entry points the frozen `benchmark/` ladder still calls, each kept
/// compiling over the one path that survives, until the next `benchmark`
/// change deletes it (ROADMAP items 1 and 17); `frozen::` is the façade
/// module's path. A later façade appends its names here and its defining
/// file to `FACADE_FILES`.
const FROZEN_FACADES: [&str; 3] = ["ExecutionBackend", "set_backend", "frozen::"];
const FACADE_FILES: [&str; 2] = ["crates/host/src/frozen.rs", "crates/runtime/src/context.rs"];

/// A façade has no caller but the benchmark: outside `benchmark/`, the
/// files that define a façade and this file, no `.rs` file names one of
/// `FROZEN_FACADES` once comments are cut. A crate root's `pub mod frozen`
/// and `pub use frozen::…` lines declare and re-export; they call nothing.
#[test]
fn frozen_facades_have_no_other_caller() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut callers = Vec::new();
    for (path, text) in workspace_sources(&root) {
        let file = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
        if file.starts_with("benchmark/")
            || file == "tests/linting.rs"
            || FACADE_FILES.contains(&file.as_str())
        {
            continue;
        }
        let code: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with("pub mod frozen") && !l.starts_with("pub use frozen::"))
            .collect();
        let code = code.join("\n");
        let named: Vec<&str> =
            FROZEN_FACADES.iter().copied().filter(|name| mentions(&code, name)).collect();
        if !named.is_empty() {
            callers.push(format!("{file}: {named:?}"));
        }
    }
    assert!(callers.is_empty(), "a frozen façade called outside benchmark/: {callers:#?}");
}

/// One layer rule: `pim_models::ModelRunner::layer` places a layer (asking
/// the §V-A preprocessor once) and `SystemKind::phase` prices its power
/// phase, for the applications and Fig. 12's microbenchmark bars alike.
/// Above its `#[cfg(test)]` module, no workspace source outside
/// `crates/energy/` (which defines the power formulas) calls a memory
/// power formula or `Preprocessor::decide` but `runner.rs`, and it calls
/// each exactly once.
#[test]
fn a_layer_is_placed_and_phased_in_one_place() {
    // The call is each name followed by `(`, added at run time so that
    // this file does not count itself.
    const CALLS: [&str; 3] =
        ["memory_stream_power_w", "memory_pim_power_w", "Preprocessor::decide"];
    const OWNER: &str = "crates/models/src/runner.rs";
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut callers = Vec::new();
    for (path, text) in workspace_sources(&root) {
        let file = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
        if file.starts_with("crates/energy/") {
            continue;
        }
        let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
        let counts = CALLS.map(|name| code.matches(&format!("{name}(")).count());
        if counts != [0; 3] {
            callers.push((file, counts));
        }
    }
    assert_eq!(
        callers,
        [(OWNER.to_string(), [1; 3])],
        "calls of {CALLS:?} outside the one layer rule in {OWNER}"
    );
}

/// The Fig. 5(c) miscompiled kernel is a command list (`Batch::issue_list`
/// in `pim_host::engine`), not a case every layer that runs, prices or
/// memoizes a launch carries: above its `#[cfg(test)]` module, no source
/// of a workspace crate but the engine and the experiment that runs the
/// demo names `UnfencedReordered`, in code or in prose.
#[test]
fn unfenced_reordered_is_handled_in_one_module() {
    const OWNERS: [&str; 2] = ["host/src/engine.rs", "bench/src/experiments.rs"];
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut named = Vec::new();
    for (path, _) in workspace_sources(&root) {
        let Some((krate, src)) = workspace_src(&root, &path) else { continue };
        let file = format!("{krate}/src/{src}");
        let text = std::fs::read_to_string(&path).unwrap();
        let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
        if code.contains("UnfencedReordered") && !OWNERS.contains(&file.as_str()) {
            named.push(file);
        }
    }
    assert!(named.is_empty(), "`UnfencedReordered` named outside its owners: {named:?}");
}

/// One mode machine: the SB / AB / AB-PIM protocol of Fig. 3 lives in
/// `pim_core::ModeWalker`, which the device steps on every command it
/// accepts. Above its `#[cfg(test)]` module, no source of a workspace crate
/// but `crates/core/src/walker.rs` names `PendingTransition` (an armed
/// transition) or declares a struct field whose type names `PimMode`.
/// `ChannelPredictor`'s own mode flags — a `bool` and a private enum, so
/// exempt by construction — stay, because a walker in the predictor cost
/// `stream_raw` 14 % of its `setup_s` (docs/REJECTED.md).
#[test]
fn the_mode_machine_lives_in_the_walker() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut copies = Vec::new();
    for (path, text) in workspace_sources(&root) {
        let Some((krate, src)) = workspace_src(&root, &path) else { continue };
        let file = format!("crates/{krate}/src/{src}");
        if file == "crates/core/src/walker.rs" {
            continue;
        }
        let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
        if mentions(code, "PendingTransition") {
            copies.push(format!("{file}: names `PendingTransition`"));
        }
        let mut in_struct = false;
        for line in code.lines().map(str::trim) {
            if line.starts_with('}') {
                in_struct = false;
            }
            let field_type = line.split_once(':').map(|(_, ty)| ty);
            if in_struct && field_type.is_some_and(|ty| mentions(ty, "PimMode")) {
                copies.push(format!("{file}: `{line}`"));
            }
            in_struct |= mentions(line, "struct") && line.ends_with('{');
        }
    }
    assert!(copies.is_empty(), "a second copy of the mode machine outside walker.rs: {copies:#?}");
}

/// One JEDEC clock: the row and bank timing parameters — tRCD, tRAS, tRC,
/// tRP, tRRD_S/L, tFAW, tWR, tRTP, tWTR, tRTW, tRFC — are read only by
/// `crates/dram/src/clock.rs`, the one module that holds the issue
/// formulas, and by `timing.rs`, which defines, presets and validates them.
/// Above its `#[cfg(test)]` module, with comments cut, no other source of a
/// workspace crate names one. The bandwidth, energy and data-arrival uses
/// of tCCD, tCL, tWL and tBL are out of scope.
#[test]
fn jedec_formulas_live_in_one_module() {
    const PARAMS: [&str; 12] = [
        "t_rcd", "t_ras", "t_rc", "t_rp", "t_rrd_s", "t_rrd_l", "t_faw", "t_wr", "t_rtp", "t_wtr",
        "t_rtw", "t_rfc",
    ];
    const OWNERS: [&str; 2] = ["crates/dram/src/clock.rs", "crates/dram/src/timing.rs"];
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut copies = Vec::new();
    for (path, text) in workspace_sources(&root) {
        let Some((krate, src)) = workspace_src(&root, &path) else { continue };
        let file = format!("crates/{krate}/src/{src}");
        let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
        let named: Vec<_> = PARAMS.iter().filter(|p| mentions(code, p)).collect();
        if !named.is_empty() && !OWNERS.contains(&file.as_str()) {
            copies.push(format!("{file}: {named:?}"));
        }
    }
    assert!(copies.is_empty(), "a JEDEC formula outside clock.rs: {copies:#?}");
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

    let fenced = check_fences(&events);
    assert!(fenced.is_clean(), "fenced GEMV should be race-free:\n{}", fenced.render("gemv"));

    let stripped = strip_fences(&events);
    let report = check_fences(&stripped);
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
