//! The experiment registry's output is pinned: every entry of
//! `pim_bench::repro::EXPERIMENTS` renders, byte for byte, the committed
//! `tests/golden/repro/<name>.txt` (taken from the per-figure binaries'
//! stdout before they were folded into `pimrepro`), and the registry, the
//! golden directory and the experiment index in DESIGN.md §4 name the same
//! set. A change that moves a simulated number moves a golden in the same
//! diff; "every figure and table identical" is this test. EXPERIMENTS.md
//! embeds `pimrepro paper`'s output, and is held to it here too.

use std::collections::BTreeSet;
use std::path::PathBuf;

use pim_bench::repro::EXPERIMENTS;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_experiment_renders_its_golden_bytes() {
    let dir = root().join("tests/golden/repro");
    for e in EXPERIMENTS {
        let path = dir.join(format!("{}.txt", e.name));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("read {}: {err}", path.display()));
        let mut got = String::new();
        (e.render)(&mut got);
        if got != want {
            let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
            panic!(
                "`pimrepro {}` no longer prints {}: first differing line {:?}\n  got:  {:?}\n  want: {:?}",
                e.name,
                path.display(),
                line.map(|l| l + 1),
                line.and_then(|l| got.lines().nth(l)),
                line.and_then(|l| want.lines().nth(l)),
            );
        }
    }
}

/// EXPERIMENTS.md's paper-vs-measured record is `pimrepro paper`'s output,
/// embedded verbatim as one fenced block, not cells typed by hand.
#[test]
fn experiments_md_embeds_the_paper_table() {
    let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap();
    let mut table = String::new();
    pim_bench::paper::render(&mut table);
    assert!(
        doc.contains(&format!("```text\n{table}```\n")),
        "EXPERIMENTS.md does not embed the current `pimrepro paper` output; paste it in"
    );
}

#[test]
fn registry_goldens_and_design_index_name_the_same_experiments() {
    let registry: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(registry.len(), EXPERIMENTS.len(), "duplicate experiment name");

    let goldens: BTreeSet<String> = std::fs::read_dir(root().join("tests/golden/repro"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|p| {
            assert!(p.extension().is_some_and(|e| e == "txt"), "{}: not a .txt", p.display());
            p.file_stem().unwrap().to_string_lossy().into_owned()
        })
        .collect();
    assert_eq!(registry, goldens, "registry names != tests/golden/repro/*.txt stems");

    // DESIGN.md §4: the target column writes each entry as `pimrepro <name>`.
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let section = design.split("\n## 4. ").nth(1).and_then(|s| s.split("\n## 5. ").next());
    let section = section.expect("DESIGN.md has a section 4 followed by a section 5");
    let indexed: BTreeSet<String> = section
        .match_indices("pimrepro ")
        .map(|(at, p)| {
            let rest = &section[at + p.len()..];
            let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            rest[..end.unwrap_or(rest.len())].to_string()
        })
        .filter(|name| !name.is_empty())
        .collect();
    assert_eq!(registry, indexed, "registry names != `pimrepro <name>` targets in DESIGN.md §4");
}
