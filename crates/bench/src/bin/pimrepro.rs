//! `pimrepro` — prints the tables, figures and extension studies of the
//! reproduction from the one registry, [`pim_bench::repro::EXPERIMENTS`].
//!
//! ```text
//! pimrepro list            the experiment names, one per line, with titles
//! pimrepro NAME...         each named experiment, in the order given
//! pimrepro all             every experiment, in registry order
//! ```
//!
//! A single name prints exactly `tests/golden/repro/NAME.txt`; several
//! are separated by one blank line. An unknown name is a usage error
//! (exit 2) and nothing is printed.

use pim_bench::cli::Cli;
use pim_bench::repro::{find, Experiment, EXPERIMENTS};

const USAGE: &str = "pimrepro list | all | NAME...   (`pimrepro list` names the experiments)";

fn main() {
    let mut cli = Cli::new("pimrepro", USAGE);
    let mut chosen: Vec<&Experiment> = Vec::new();
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--help" | "-h" => cli.usage(),
            "list" => {
                for e in EXPERIMENTS {
                    println!("{:<18}{}", e.name, e.title);
                }
                return;
            }
            "all" => chosen.extend(EXPERIMENTS),
            name => match find(name) {
                Some(e) => chosen.push(e),
                None => cli.bad(format!("unknown experiment '{name}'")),
            },
        }
    }
    if chosen.is_empty() {
        cli.usage();
    }
    let mut out = String::new();
    for (i, e) in chosen.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        (e.render)(&mut out);
    }
    print!("{out}");
}
