//! The binaries end quietly when their reader goes away. Each one runs
//! with stdout on a pipe whose read end is already closed, so its first
//! write fails with EPIPE deterministically; `println!` would panic there
//! (exit 101), `pim_bench::cli::write_stdout` ends the process with the
//! status a shell reports for SIGPIPE, and says nothing. `pimrepro list`
//! stands alone: beside any other argument it is a usage error, and so is
//! a `pimtrace gemv` with a zero dimension or no `--out`, and a
//! `--backend` flag.

use std::process::{Command, Output, Stdio};

/// Runs `bin args` with stdout on a pipe nobody reads.
fn run_into_closed_pipe(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

#[test]
fn a_closed_stdout_ends_every_binary_quietly_and_list_stands_alone() {
    let runs: [(&str, &[&str]); 8] = [
        (env!("CARGO_BIN_EXE_pimrepro"), &["all"]),
        (env!("CARGO_BIN_EXE_pimrepro"), &["list"]),
        (env!("CARGO_BIN_EXE_pimrepro"), &["fig10"]),
        (env!("CARGO_BIN_EXE_pimlint"), &["tests/corpus/pv001_bad_destination.pim"]),
        (env!("CARGO_BIN_EXE_pimcampaign"), &["fault", "--elements", "4096", "--rates", "0"]),
        (env!("CARGO_BIN_EXE_pimsim"), &["--demo"]),
        (env!("CARGO_BIN_EXE_pimtrace"), &["gemv", "64x64", "--out", "target/cli-gemv"]),
        (env!("CARGO_BIN_EXE_pimtrace"), &["diff", "Cargo.toml", "Cargo.toml"]),
    ];
    for (bin, args) in runs {
        let out = run_into_closed_pipe(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = bin.rsplit('/').next().unwrap_or(bin);
        assert!(!stderr.contains("panicked"), "{name} {args:?} panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(141), "{name} {args:?}: {:?}\n{stderr}", out.status);
    }

    for args in [&["list", "nosuch"][..], &["fig10", "list"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimrepro")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "pimrepro {args:?}");
        assert!(out.stdout.is_empty(), "pimrepro {args:?} printed before refusing");
    }
}

#[test]
fn pimtrace_gemv_refuses_a_zero_dimension_and_a_missing_out_dir() {
    for args in [&["gemv", "0x5", "--out", "target/cli-gemv"][..], &["gemv"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimtrace")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "pimtrace {args:?} panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(2), "pimtrace {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "pimtrace {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "pimtrace {args:?} printed before refusing");
    }
}

/// There is one way to step the channels, so no binary takes `--backend`.
#[test]
fn a_backend_flag_is_a_usage_error() {
    let runs: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_pimcampaign"), &["serve", "--backend", "threads:2"]),
        (env!("CARGO_BIN_EXE_pimtrace"), &["run", "--backend", "threads:2", "--out", "x"]),
    ];
    for (bin, args) in runs {
        let out = Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = bin.rsplit('/').next().unwrap_or(bin);
        assert!(!stderr.contains("panicked"), "{name} {args:?} panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{name} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?} printed before refusing");
    }
}
