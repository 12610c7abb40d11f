//! `pimsim` scripting: drive a single PIM-HBM channel from a small text
//! language — assemble microkernels, seed banks, fire standard DRAM
//! commands, and inspect registers and traces. The debugging workflow the
//! paper's FPGA bring-up system provided ("we can precisely control the
//! operation of PIM-HBM with this system", Section VI), in text form.
//!
//! # Commands
//!
//! ```text
//! mode ab | mode sb          enter/exit all-bank mode (ACT+PRE sequences)
//! pim on | pim off           set PIM_OP_MODE (ACT+WR+PRE sequence)
//! program                    begin a microkernel block (pim-core assembly)
//!   MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)
//!   ...
//! end                        assemble + load into every CRF
//! srf  m0..m7 a0..a7         load 16 scalars into SRF_M / SRF_A
//! poke UNIT ROW COL v0..v15  backdoor-seed a unit's even bank
//! peek UNIT ROW COL          print a block (backdoor read)
//! act ROW | rd COL | pre | prea
//! wr COL v0..v15             column write (WDATA in AB-PIM mode)
//! dump grf_a|grf_b|srf_m|srf_a UNIT   print a unit's registers
//! stats                      print PIM channel statistics
//! trace                      print the recorded command trace
//! profile                    print recorded metrics (needs profiling on)
//! # comment / ; comment
//! ```

use pim_core::asm;
use pim_core::{conf, LaneVec, PimChannel, PimConfig, PimMode};
use pim_dram::{
    BankAddr, Command, CommandSink, Cycle, TimingParams, TracingSink, COLS_PER_ROW, ROWS_PER_BANK,
};
use pim_fp16::F16;
use pim_obs::Recorder;
use std::fmt;

/// A script execution error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// Line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

/// An interactive single-channel PIM session.
#[derive(Debug)]
pub struct ScriptSession {
    channel: TracingSink<PimChannel>,
    now: Cycle,
    recorder: Option<Recorder>,
}

impl Default for ScriptSession {
    fn default() -> ScriptSession {
        ScriptSession::new()
    }
}

impl ScriptSession {
    /// A fresh paper-configuration channel with a 4096-entry trace.
    pub fn new() -> ScriptSession {
        ScriptSession {
            channel: TracingSink::new(
                PimChannel::new(TimingParams::hbm2(), PimConfig::paper()),
                4096,
            ),
            now: 0,
            recorder: None,
        }
    }

    /// Attaches an in-memory [`Recorder`] to the channel so subsequent
    /// commands feed the metrics registry and event stream; idempotent.
    /// Returns a clone of the session's recorder.
    pub fn enable_profiling(&mut self) -> Recorder {
        if let Some(recorder) = &self.recorder {
            return recorder.clone();
        }
        let recorder = Recorder::vec();
        self.channel.inner_mut().set_recorder(recorder.clone(), 0);
        self.recorder = Some(recorder.clone());
        recorder
    }

    /// The session recorder, if profiling is enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The channel under test.
    pub fn channel(&self) -> &PimChannel {
        self.channel.inner()
    }

    fn issue_all(&mut self, cmds: &[Command], line: usize) -> Result<Option<LaneVec>, ScriptError> {
        let mut data = None;
        for c in cmds {
            let at = self.channel.earliest_issue(c, self.now);
            let out = self
                .channel
                .issue(c, at)
                .map_err(|e| ScriptError { line, message: format!("{c}: {e}") })?;
            if let Some(d) = out.data {
                data = Some(LaneVec::from_block(&d));
            }
            self.now = at;
        }
        Ok(data)
    }

    /// After a column command in AB-PIM mode: a trigger that lands on a CRF
    /// word no instruction encodes halts the unit without a trace, which in
    /// a bring-up shell is an error worth a line number.
    fn check_triggered_units(&self, line: usize) -> Result<(), ScriptError> {
        let ch = self.channel.inner();
        if ch.mode() != PimMode::AllBankPim {
            return Ok(());
        }
        match (0..ch.unit_count()).find_map(|u| Some((u, ch.unit(u).undecodable_halt()?))) {
            Some((u, (index, word))) => err(
                line,
                format!("unit {u} halted on CRF[{index}] = {word:#010X}, which is no instruction"),
            ),
            None => Ok(()),
        }
    }

    /// Parses the `UNIT ROW COL` prefix of `poke` / `peek`, range-checked.
    fn parse_cell(&self, toks: &[&str], line: usize) -> Result<(usize, u32, u32), ScriptError> {
        let units = self.channel.inner().unit_count() as u32;
        Ok((
            parse_below(toks[0], "unit", units, line)? as usize,
            parse_below(toks[1], "row", ROWS_PER_BANK, line)?,
            parse_below(toks[2], "column", COLS_PER_ROW, line)?,
        ))
    }

    /// Executes a whole script; returns the printed output lines.
    ///
    /// # Errors
    ///
    /// Stops at the first [`ScriptError`].
    pub fn run(&mut self, source: &str) -> Result<Vec<String>, ScriptError> {
        let mut out = Vec::new();
        let mut lines = source.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line = i + 1;
            let text = raw.split(['#', ';']).next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            let mut toks = text.split_whitespace();
            let Some(cmd) = toks.next() else { continue };
            let rest: Vec<&str> = toks.collect();
            match cmd {
                "mode" => match rest.as_slice() {
                    ["ab"] => {
                        self.issue_all(&conf::enter_ab_sequence(), line)?;
                    }
                    ["sb"] => {
                        self.issue_all(&conf::exit_ab_sequence(), line)?;
                    }
                    _ => return err(line, "mode expects `ab` or `sb`"),
                },
                "pim" => match rest.as_slice() {
                    ["on"] => {
                        self.issue_all(&conf::set_pim_op_mode_sequence(true), line)?;
                    }
                    ["off"] => {
                        self.issue_all(&conf::set_pim_op_mode_sequence(false), line)?;
                    }
                    _ => return err(line, "pim expects `on` or `off`"),
                },
                "program" => {
                    let mut body = String::new();
                    let mut closed = false;
                    for (j, praw) in lines.by_ref() {
                        if praw.trim() == "end" {
                            closed = true;
                            break;
                        }
                        body.push_str(praw);
                        body.push('\n');
                        let _ = j;
                    }
                    if !closed {
                        return err(line, "program block missing `end`");
                    }
                    let program = asm::assemble(&body)
                        .map_err(|e| ScriptError { line: line + e.line, message: e.message })?;
                    let bank = BankAddr::new(0, 0);
                    let mut cmds = vec![Command::Act { bank, row: conf::CRF_ROW }];
                    for (ci, data) in conf::crf_blocks(&program).into_iter().enumerate() {
                        cmds.push(Command::Wr { bank, col: ci as u32, data });
                    }
                    cmds.push(Command::Pre { bank });
                    self.issue_all(&cmds, line)?;
                    out.push(format!("loaded {} instructions", program.len()));
                }
                "srf" => {
                    let vals = parse_floats(&rest, 16, line)?;
                    let bank = BankAddr::new(0, 0);
                    let block = LaneVec::from_f32(vals).to_block();
                    self.issue_all(
                        &[
                            Command::Act { bank, row: conf::SRF_ROW },
                            Command::Wr { bank, col: 0, data: block },
                            Command::Pre { bank },
                        ],
                        line,
                    )?;
                }
                "poke" => {
                    if rest.len() != 19 {
                        return err(line, "poke UNIT ROW COL v0..v15");
                    }
                    let (unit, row, col) = self.parse_cell(&rest, line)?;
                    let vals = parse_floats(&rest[3..], 16, line)?;
                    let bank = BankAddr::from_flat_index(2 * unit);
                    self.channel.inner_mut().dram_mut().bank_mut(bank).poke_block(
                        row,
                        col,
                        &LaneVec::from_f32(vals).to_block(),
                    );
                }
                "peek" => {
                    if rest.len() != 3 {
                        return err(line, "peek UNIT ROW COL");
                    }
                    let (unit, row, col) = self.parse_cell(&rest, line)?;
                    let bank = BankAddr::from_flat_index(2 * unit);
                    let v = LaneVec::from_block(
                        &self.channel.inner().dram().bank(bank).peek_block(row, col),
                    );
                    out.push(format!("peek u{unit} r{row} c{col}: {}", fmt_lanes(&v)));
                }
                "act" => {
                    let row = parse_below(first(&rest), "row", ROWS_PER_BANK, line)?;
                    self.issue_all(&[Command::Act { bank: BankAddr::new(0, 0), row }], line)?;
                }
                "rd" => {
                    let col = parse_below(first(&rest), "column", COLS_PER_ROW, line)?;
                    if let Some(v) =
                        self.issue_all(&[Command::Rd { bank: BankAddr::new(0, 0), col }], line)?
                    {
                        out.push(format!("rd c{col}: {}", fmt_lanes(&v)));
                    }
                    self.check_triggered_units(line)?;
                }
                "wr" => {
                    if rest.len() != 17 {
                        return err(line, "wr COL v0..v15");
                    }
                    let col = parse_below(rest[0], "column", COLS_PER_ROW, line)?;
                    let vals = parse_floats(&rest[1..], 16, line)?;
                    self.issue_all(
                        &[Command::Wr {
                            bank: BankAddr::new(0, 0),
                            col,
                            data: LaneVec::from_f32(vals).to_block(),
                        }],
                        line,
                    )?;
                    self.check_triggered_units(line)?;
                }
                "pre" => {
                    self.issue_all(&[Command::Pre { bank: BankAddr::new(0, 0) }], line)?;
                }
                "prea" => {
                    self.issue_all(&[Command::PreAll], line)?;
                }
                "dump" => {
                    if rest.len() != 2 {
                        return err(line, "dump grf_a|grf_b|srf_m|srf_a UNIT");
                    }
                    let units = self.channel.inner().unit_count() as u32;
                    let unit = parse_below(rest[1], "unit", units, line)? as usize;
                    let u = self.channel.inner().unit(unit);
                    match rest[0] {
                        "grf_a" | "grf_b" => {
                            for r in 0..8 {
                                let v = if rest[0] == "grf_a" {
                                    u.grf_a().read(r)
                                } else {
                                    u.grf_b().read(r)
                                };
                                out.push(format!("{}[{r}] = {}", rest[0], fmt_lanes(&v)));
                            }
                        }
                        "srf_m" | "srf_a" => {
                            let vals: Vec<String> = (0..8)
                                .map(|r| {
                                    let s = if rest[0] == "srf_m" {
                                        u.srf_m().read(r)
                                    } else {
                                        u.srf_a().read(r)
                                    };
                                    format!("{}", s.to_f32())
                                })
                                .collect();
                            out.push(format!("{} = [{}]", rest[0], vals.join(", ")));
                        }
                        other => return err(line, format!("unknown register file `{other}`")),
                    }
                }
                "stats" => {
                    let s = self.channel.inner().stats();
                    out.push(format!(
                        "mode={} transitions={} ab_acts={} ab_reads={} ab_writes={} triggers={}",
                        self.channel.inner().mode(),
                        s.mode_transitions,
                        s.ab_acts,
                        s.ab_reads,
                        s.ab_writes,
                        s.pim_triggers
                    ));
                }
                "trace" => {
                    out.push(self.channel.render());
                }
                "profile" => match &self.recorder {
                    None => out.push(
                        "profiling disabled (enable_profiling() / pimsim --profile)".to_string(),
                    ),
                    Some(r) => {
                        let snapshot = r.metrics();
                        for (name, v) in snapshot.registry.counters() {
                            out.push(format!("{name} = {v}"));
                        }
                        for (name, v) in snapshot.registry.gauges() {
                            out.push(format!("{name} = {v}"));
                        }
                        out.push(format!("events = {}", r.events_offered()));
                    }
                },
                other => return err(line, format!("unknown command `{other}`")),
            }
        }
        Ok(out)
    }

    /// Current operating mode.
    pub fn mode(&self) -> PimMode {
        self.channel.inner().mode()
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ScriptError> {
    Err(ScriptError { line, message: message.into() })
}

fn parse<T: std::str::FromStr>(tok: &str, line: usize) -> Result<T, ScriptError> {
    tok.parse().map_err(|_| ScriptError { line, message: format!("bad number `{tok}`") })
}

/// Parses `tok` as a `what` (unit, row, column) below `limit` — script
/// operands index fixed-size hardware, and the simulator asserts on them.
fn parse_below(tok: &str, what: &str, limit: u32, line: usize) -> Result<u32, ScriptError> {
    let n: u32 = parse(tok, line)?;
    if n >= limit {
        return err(line, format!("{what} {n} out of range (0..{limit})"));
    }
    Ok(n)
}

/// The first operand, or an empty token that fails to parse.
fn first<'a>(rest: &[&'a str]) -> &'a str {
    rest.first().copied().unwrap_or("")
}

fn parse_floats(toks: &[&str], n: usize, line: usize) -> Result<[f32; 16], ScriptError> {
    if toks.len() != n {
        return err(line, format!("expected {n} values, got {}", toks.len()));
    }
    let mut vals = [0.0f32; 16];
    for (v, t) in vals.iter_mut().zip(toks.iter()) {
        *v = parse(t, line)?;
    }
    Ok(vals)
}

fn fmt_lanes(v: &LaneVec) -> String {
    let lanes: Vec<String> = v.lanes().iter().map(|l: &F16| format!("{}", l.to_f32())).collect();
    format!("[{}]", lanes.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
# seed unit 0's even bank
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

    #[test]
    fn demo_script_runs_end_to_end() {
        let mut s = ScriptSession::new();
        let out = s.run(DEMO).unwrap();
        assert_eq!(s.mode(), PimMode::SingleBank);
        assert!(out.iter().any(|l| l.contains("loaded 3 instructions")), "{out:?}");
        // The kernel doubled the seeded vector in place.
        let peek = out.iter().find(|l| l.starts_with("peek")).unwrap();
        assert!(peek.contains("[2, 4, 6, 8"), "{peek}");
        let stats = out.iter().find(|l| l.starts_with("mode=")).unwrap();
        assert!(stats.contains("triggers=16"), "{stats}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut s = ScriptSession::new();
        let e = s.run("mode ab\nbogus cmd\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = ScriptSession::new().run("rd 0").unwrap_err();
        assert!(e.message.contains("closed bank") || e.message.contains("RD"), "{e}");
    }

    /// Every script under `tests/corpus/scripts/` declares its outcome in a
    /// `# expect:` header — `ok`, or the `line N: ...` error `pimsim` must
    /// print — and none of them may panic (CI runs the same files through
    /// the `pimsim` binary).
    #[test]
    fn script_corpus_ends_as_each_file_declares() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/scripts");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let source = std::fs::read_to_string(&path).unwrap();
            let expect = source.lines().next().and_then(|l| l.strip_prefix("# expect: "));
            let expect =
                expect.unwrap_or_else(|| panic!("{}: no `# expect:` header", path.display()));
            let got = match ScriptSession::new().run(&source) {
                Ok(_) => "ok".to_string(),
                Err(e) => e.to_string(),
            };
            assert_eq!(got, expect, "{}", path.display());
            seen += 1;
        }
        assert!(seen >= 5, "script corpus shrank to {seen} files");
    }

    #[test]
    fn out_of_range_operands_are_errors_not_panics() {
        let v16 = "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16";
        for (script, want) in [
            (format!("poke 9 0 0 {v16}"), "unit 9 out of range (0..8)"),
            (format!("poke 0 99999 0 {v16}"), "row 99999 out of range (0..8192)"),
            (format!("poke 0 0 32 {v16}"), "column 32 out of range (0..32)"),
            ("peek 0 0 77".to_string(), "column 77 out of range (0..32)"),
            ("peek 8 0 0".to_string(), "unit 8 out of range (0..8)"),
            ("act 8192".to_string(), "row 8192 out of range (0..8192)"),
            ("act 0\nrd 32".to_string(), "column 32 out of range (0..32)"),
            (format!("mode ab\nact 0\nwr 99 {v16}"), "column 99 out of range (0..32)"),
            ("dump grf_a 9".to_string(), "unit 9 out of range (0..8)"),
        ] {
            let e = ScriptSession::new().run(&script).unwrap_err();
            assert_eq!(e.message, want, "{script}");
            assert_eq!(e.line, script.lines().count(), "{script}");
        }
        // The last row, column and unit are all in range.
        ScriptSession::new().run(&format!("poke 7 8191 31 {v16}\npeek 7 8191 31")).unwrap();
    }

    #[test]
    fn trigger_on_an_undecodable_crf_word_is_reported_with_its_line() {
        // 65504.0 is 0x7BFF: a CRF-row write of it loads 0x7BFF7BFF words
        // (reserved operand kind 7) into unit 0, in single-bank mode.
        let max16 = ["65504"; 16].join(" ");
        let script = format!("act 8188\nwr 0 {max16}\npre\nmode ab\npim on\nact 0\nrd 0\n");
        let mut s = ScriptSession::new();
        let e = s.run(&script).unwrap_err();
        assert_eq!(e.line, 7);
        assert_eq!(e.message, "unit 0 halted on CRF[0] = 0x7BFF7BFF, which is no instruction");
        // The unit stopped; nothing executed and the channel is intact.
        assert!(s.channel().unit(0).is_halted());
        assert_eq!(s.channel().unit(0).stats().instructions, 0);
        assert_eq!(s.mode(), PimMode::AllBankPim);
    }

    #[test]
    fn program_without_end_rejected() {
        let e = ScriptSession::new().run("program\nEXIT\n").unwrap_err();
        assert!(e.message.contains("end"));
    }

    #[test]
    fn assembly_errors_point_into_the_block() {
        let e = ScriptSession::new().run("mode ab\nprogram\nBOGUS\nend\n").unwrap_err();
        assert!(e.message.contains("BOGUS"));
        assert!(e.line >= 3, "line {}", e.line);
    }

    #[test]
    fn profile_command_reports_metrics_when_enabled() {
        let mut off = ScriptSession::new();
        let out = off.run("profile").unwrap();
        assert!(out.iter().any(|l| l.contains("profiling disabled")), "{out:?}");

        let mut s = ScriptSession::new();
        let rec = s.enable_profiling();
        let out = s.run(DEMO).unwrap();
        assert!(out.iter().any(|l| l.contains("peek")), "{out:?}");
        let out = s.run("profile").unwrap();
        // The demo walks SB -> AB -> AB-PIM and back: 4 transitions.
        assert!(out.iter().any(|l| l == "dev.mode_transitions = 4"), "{out:?}");
        assert!(out.iter().any(|l| l.starts_with("dev.pim_triggers = ")), "{out:?}");
        assert_eq!(rec.metrics().registry.counter("dev.mode_transitions"), 4);
        // Enabling twice hands back the same recorder.
        let again = s.enable_profiling();
        assert_eq!(again.metrics().registry.counter("dev.mode_transitions"), 4);
    }

    #[test]
    fn dump_and_trace_produce_output() {
        let mut s = ScriptSession::new();
        let out = s.run("mode ab\nsrf 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\ndump srf_m 0\ndump srf_a 0\ntrace").unwrap();
        assert!(out.iter().any(|l| l.contains("srf_m = [1, 2, 3")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("srf_a = [9, 10")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("ACT")), "trace should show commands");
    }
}
