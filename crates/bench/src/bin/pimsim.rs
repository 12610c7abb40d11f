//! `pimsim` — a script-driven single-channel PIM-HBM simulator shell.
//!
//! Reads a script from the file named in the first argument (or stdin), executes it
//! against a fresh paper-configuration channel, and prints the output.
//! Run `pimsim --help` for the command language, or try the built-in demo
//! with `pimsim --demo`. See `pim_runtime::script` for the full reference.
use pim_bench::cli::Cli;
use pim_runtime::ScriptSession;
use std::io::Read;

const DEMO: &str = r#"# pimsim demo: scale-by-2 microkernel on unit 0
poke 0 0 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
mode ab
program
  MUL GRF_A[0], EVEN_BANK, SRF_M[0]
  MOV EVEN_BANK, GRF_A[0]
  EXIT
end
srf 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
pim on
act 0
rd 0
rd 0
pre
pim off
mode sb
peek 0 0 0
stats
"#;

const USAGE: &str = "pimsim [SCRIPT | --demo] [--profile]   (stdin if no script is named)\n\n\
    commands: mode ab|sb, pim on|off, program..end, srf, poke, peek,\n\
    \x20         act, rd, wr, pre, prea, dump, stats, trace, profile  (# comments)\n\n\
    --profile attaches a recorder and prints the metrics profile after the run";

fn main() {
    let mut cli = Cli::new("pimsim", USAGE);
    let mut profile = false;
    let mut demo = false;
    let mut path: Option<String> = None;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--help" | "-h" => cli.usage(),
            "--profile" => profile = true,
            "--demo" => demo = true,
            flag if flag.starts_with('-') => cli.bad(format!("unknown argument '{flag}'")),
            _ if path.is_some() => cli.bad(format!("more than one script: '{arg}'")),
            _ => path = Some(arg),
        }
    }
    let source = match path {
        Some(_) if demo => cli.bad("--demo takes no script".to_string()),
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("pimsim: cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None if demo => {
            println!("{DEMO}");
            DEMO.to_string()
        }
        None => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("pimsim: cannot read stdin: {e}");
                std::process::exit(1);
            }
            s
        }
    };
    let mut session = ScriptSession::new();
    if profile {
        session.enable_profiling();
    }
    match session.run(&source) {
        Ok(output) => {
            for line in output {
                println!("{line}");
            }
            println!("-- done at cycle {} in {} mode", session.now(), session.mode());
            if let Some(recorder) = session.recorder() {
                println!();
                print!("{}", pim_bench::profile::render_profile(&recorder.metrics()));
            }
        }
        Err(e) => {
            eprintln!("pimsim: {e}");
            std::process::exit(1);
        }
    }
}
