//! Command-line plumbing shared by every `pim-bench` binary: one
//! convention for a malformed argument — `<bin>: <message>`, the usage
//! text, exit 2 — the flag parsers the campaigns have in common, and one
//! way to write stdout ([`write_stdout`], behind [`crate::out!`] and
//! [`crate::outln!`]).

use std::io::Write;

use crate::campaign::TraceShape;
use pim_host::ExecutionBackend;
use pim_runtime::PimError;

/// Writes `args` to stdout and flushes. A reader that went away —
/// `pimrepro list | head -1` — ends the process quietly with status 141,
/// what a shell reports for a program killed by SIGPIPE; `println!` would
/// panic there instead. Any other write error exits 1 with a message.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The process arguments of one binary.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// Parser for `bin` over the process arguments.
    pub fn new(bin: &'static str, usage: &'static str) -> Cli {
        Cli { bin, usage, args: std::env::args().skip(1) }
    }

    /// Prints the usage text and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }

    /// Reports a malformed command line and exits 2.
    pub fn bad(&self, msg: String) -> ! {
        eprintln!("{}: {msg}", self.bin);
        self.usage();
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`.
    pub fn next_value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| self.bad(format!("{flag} requires a value")))
    }

    /// `--seed N`.
    pub fn parse_seed(&mut self) -> u64 {
        let v = self.next_value("--seed");
        v.parse().unwrap_or_else(|_| self.bad(format!("bad seed '{v}'")))
    }

    fn pos<T: TryFrom<u64>>(&self, v: &str, what: &str) -> T {
        match v.trim().parse::<u64>().ok().filter(|&n| n > 0).and_then(|n| T::try_from(n).ok()) {
            Some(n) => n,
            None => self.bad(format!("bad {what} '{v}' (expected a positive integer in range)")),
        }
    }

    /// The positive integer following `flag`; values that do not fit `T`
    /// are rejected, never truncated.
    pub fn parse_pos<T: TryFrom<u64>>(&mut self, flag: &str, what: &str) -> T {
        let v = self.next_value(flag);
        self.pos(&v, what)
    }

    /// The non-empty comma-separated list of positive integers following
    /// `flag`.
    pub fn parse_pos_list<T: TryFrom<u64>>(&mut self, flag: &str, what: &str) -> Vec<T> {
        self.next_value(flag).split(',').map(|v| self.pos(v, what)).collect()
    }

    fn rate(&self, v: &str) -> f64 {
        match v.trim().parse::<f64>() {
            Ok(r) if (0.0..=1.0).contains(&r) => r,
            _ => self.bad(format!("bad rate '{v}' (expected a number in [0, 1])")),
        }
    }

    /// The fault rate in `[0, 1]` following `flag`.
    pub fn parse_rate(&mut self, flag: &str) -> f64 {
        let v = self.next_value(flag);
        self.rate(&v)
    }

    /// The non-empty comma-separated list of fault rates following `flag`.
    pub fn parse_rates(&mut self, flag: &str) -> Vec<f64> {
        self.next_value(flag).split(',').map(|v| self.rate(v)).collect()
    }

    /// `sequential` or `threads:N` following `flag`.
    pub fn parse_backend(&mut self, flag: &str) -> ExecutionBackend {
        let text = self.next_value(flag);
        match text.strip_prefix("threads:") {
            Some(n) => ExecutionBackend::Threads(self.pos(n, "worker count")),
            None if text == "sequential" => ExecutionBackend::Sequential,
            None => {
                self.bad(format!("unknown backend '{text}' (expected sequential or threads:N)"))
            }
        }
    }

    /// Unwraps a campaign result or exits 1 with `<bin>: campaign failed`.
    pub fn or_exit<T>(&self, result: Result<T, PimError>) -> T {
        result.unwrap_or_else(|e| {
            eprintln!("{}: campaign failed: {e}", self.bin);
            std::process::exit(1);
        })
    }

    /// Handles the trace-shape flags every serving campaign shares
    /// (`--seed`, `--elements`, `--requests`, `--tenants`,
    /// `--deadline-slack`); `false` means `arg` is not one of them.
    pub fn parse_shape_flag(&mut self, arg: &str, shape: &mut TraceShape) -> bool {
        match arg {
            "--seed" => shape.seed = self.parse_seed(),
            "--elements" => shape.elements = self.parse_pos(arg, "element count"),
            "--requests" => shape.requests = self.parse_pos(arg, "request count"),
            "--tenants" => shape.tenants = self.parse_pos(arg, "tenant count"),
            "--deadline-slack" => shape.deadline_slack = self.parse_pos(arg, "deadline slack"),
            _ => return false,
        }
        true
    }
}
