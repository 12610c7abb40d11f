//! Diagnostics: stable `PV###` codes, severities, sites, and the
//! rustc-style report rendering shared by every pass and by `pimlint`.

use pim_host::Phase;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong — the program may still be what
    /// the author intended (e.g. dead code, a trigger with no program).
    Warning,
    /// A violated invariant: the program or stream cannot behave as the
    /// architecture specifies.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. `PV0xx` come from the kernel verifier (and the
/// assembler/trace front ends), `PV1xx` from the command-stream protocol
/// linter, `PV2xx` from the fence-race detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PvCode {
    /// Operand kind cannot be a destination (Table III routing).
    Pv001BadDestination,
    /// More than one bank operand per instruction.
    Pv002MultipleBankOperands,
    /// More than one scalar (SRF) operand per instruction.
    Pv003MultipleScalarOperands,
    /// Accumulating op reads the same GRF file twice.
    Pv004SameGrfFileTwice,
    /// Arithmetic destination is not a GRF.
    Pv005NonGrfDestination,
    /// Scalar operand in a position the datapath cannot route.
    Pv006ScalarMisplaced,
    /// JUMP target beyond the CRF (or beyond the program).
    Pv007JumpTargetOutOfRange,
    /// JUMP with a zero iteration count.
    Pv008JumpZeroCount,
    /// Program longer than the CRF.
    Pv009ProgramTooLong,
    /// Empty program (the sequencer would run off uninitialized CRF words).
    Pv010EmptyProgram,
    /// CRF image word that does not decode to any instruction.
    Pv011UndecodableWord,
    /// JUMP that is not a backward loop (target at or past the JUMP).
    Pv012NonBackwardJump,
    /// Execution can fall off the program without reaching an EXIT.
    Pv013NoExit,
    /// Instruction after the terminating EXIT can never execute.
    Pv014DeadCode,
    /// GRF entry read before any instruction writes it.
    Pv015ReadBeforeWrite,
    /// GRF entry overwritten before anything reads it (dead write).
    Pv016DeadWrite,
    /// Same GRF file accessed both with and without AAM.
    Pv017MixedAam,
    /// Bank read inside the 5-stage write-back window of a bank write.
    Pv018BankHazard,
    /// Register index beyond the configured file size.
    Pv019IndexOutOfBounds,
    /// Assembly syntax error (from `pim_core::asm`).
    Pv030AsmSyntax,
    /// Trace syntax error (from the `.trace` parser).
    Pv031TraceSyntax,
    /// Column or precharge command with no open row.
    Pv101NoOpenRow,
    /// ACT while a row is already open (single open row per bank / AB set).
    Pv102ActWhileOpen,
    /// PIM_OP_MODE write outside all-bank mode (silently ignored by hw).
    Pv103PimOpModeOutsideAb,
    /// CRF load while AB-PIM is armed.
    Pv104CrfLoadWhileArmed,
    /// Data-row column access in plain AB mode (broadcast/lock-step).
    Pv105DataAccessInPlainAb,
    /// Armed mode transition cancelled by an intervening command.
    Pv106TransitionCancelled,
    /// Entering AB mode with a bank row still open.
    Pv107EnterAbWithOpenBank,
    /// Exit straight from AB-PIM to SB without disabling PIM_OP_MODE.
    Pv108ExitFromAbPim,
    /// Refresh issued while a row is open.
    Pv109RefreshWithOpenRow,
    /// Trigger issued with no CRF program loaded.
    Pv110TriggerWithoutProgram,
    /// Stream ends outside single-bank mode.
    Pv111EndsOutsideSb,
    /// Host read of a PIM-written address with no intervening fence.
    Pv201UnfencedHostRead,
    /// GRF readback of a PIM-written entry with no intervening fence.
    Pv202UnfencedGrfReadback,
    /// Control flow could not be statically proven data-independent
    /// (undecodable reachable word, out-of-range JUMP target, or proof
    /// budget exceeded) — the fast path must not replay this program.
    Pv301ControlFlowUnprovable,
    /// Symbolic execution observed a read of a GRF entry no instruction
    /// had written (catches AAM index patterns PV015's straight-line
    /// pass cannot see).
    Pv302UninitializedGrfRead,
    /// Symbolic execution proved a GRF write is never read before being
    /// overwritten or the program halts (loop-aware, unlike PV016).
    Pv303SymbolicDeadWrite,
    /// ACT names a row at or past the bank's row count.
    Pv304RowOutOfBounds,
}

impl PvCode {
    /// The `PV###` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            PvCode::Pv001BadDestination => "PV001",
            PvCode::Pv002MultipleBankOperands => "PV002",
            PvCode::Pv003MultipleScalarOperands => "PV003",
            PvCode::Pv004SameGrfFileTwice => "PV004",
            PvCode::Pv005NonGrfDestination => "PV005",
            PvCode::Pv006ScalarMisplaced => "PV006",
            PvCode::Pv007JumpTargetOutOfRange => "PV007",
            PvCode::Pv008JumpZeroCount => "PV008",
            PvCode::Pv009ProgramTooLong => "PV009",
            PvCode::Pv010EmptyProgram => "PV010",
            PvCode::Pv011UndecodableWord => "PV011",
            PvCode::Pv012NonBackwardJump => "PV012",
            PvCode::Pv013NoExit => "PV013",
            PvCode::Pv014DeadCode => "PV014",
            PvCode::Pv015ReadBeforeWrite => "PV015",
            PvCode::Pv016DeadWrite => "PV016",
            PvCode::Pv017MixedAam => "PV017",
            PvCode::Pv018BankHazard => "PV018",
            PvCode::Pv019IndexOutOfBounds => "PV019",
            PvCode::Pv030AsmSyntax => "PV030",
            PvCode::Pv031TraceSyntax => "PV031",
            PvCode::Pv101NoOpenRow => "PV101",
            PvCode::Pv102ActWhileOpen => "PV102",
            PvCode::Pv103PimOpModeOutsideAb => "PV103",
            PvCode::Pv104CrfLoadWhileArmed => "PV104",
            PvCode::Pv105DataAccessInPlainAb => "PV105",
            PvCode::Pv106TransitionCancelled => "PV106",
            PvCode::Pv107EnterAbWithOpenBank => "PV107",
            PvCode::Pv108ExitFromAbPim => "PV108",
            PvCode::Pv109RefreshWithOpenRow => "PV109",
            PvCode::Pv110TriggerWithoutProgram => "PV110",
            PvCode::Pv111EndsOutsideSb => "PV111",
            PvCode::Pv201UnfencedHostRead => "PV201",
            PvCode::Pv202UnfencedGrfReadback => "PV202",
            PvCode::Pv301ControlFlowUnprovable => "PV301",
            PvCode::Pv302UninitializedGrfRead => "PV302",
            PvCode::Pv303SymbolicDeadWrite => "PV303",
            PvCode::Pv304RowOutOfBounds => "PV304",
        }
    }

    /// One-line summary of what the code means (the `docs/LINTING.md`
    /// table is generated from the same text).
    pub fn summary(self) -> &'static str {
        match self {
            PvCode::Pv001BadDestination => "operand kind cannot be a destination",
            PvCode::Pv002MultipleBankOperands => "more than one bank operand per instruction",
            PvCode::Pv003MultipleScalarOperands => "more than one scalar (SRF) operand",
            PvCode::Pv004SameGrfFileTwice => "accumulating op reads the same GRF file twice",
            PvCode::Pv005NonGrfDestination => "arithmetic destination is not a GRF",
            PvCode::Pv006ScalarMisplaced => "scalar operand in an unroutable position",
            PvCode::Pv007JumpTargetOutOfRange => "JUMP target outside the CRF/program",
            PvCode::Pv008JumpZeroCount => "JUMP with zero iterations",
            PvCode::Pv009ProgramTooLong => "program longer than the 32-entry CRF",
            PvCode::Pv010EmptyProgram => "empty program",
            PvCode::Pv011UndecodableWord => "CRF word does not decode to an instruction",
            PvCode::Pv012NonBackwardJump => "JUMP is not a backward loop",
            PvCode::Pv013NoExit => "execution can fall off the program without EXIT",
            PvCode::Pv014DeadCode => "instruction after EXIT can never execute",
            PvCode::Pv015ReadBeforeWrite => "GRF entry read before it is written",
            PvCode::Pv016DeadWrite => "GRF write overwritten before any read",
            PvCode::Pv017MixedAam => "GRF file accessed both with and without AAM",
            PvCode::Pv018BankHazard => "bank read inside the write-back window of a bank write",
            PvCode::Pv019IndexOutOfBounds => "register index beyond the configured file size",
            PvCode::Pv030AsmSyntax => "assembly syntax error",
            PvCode::Pv031TraceSyntax => "trace syntax error",
            PvCode::Pv101NoOpenRow => "column/precharge command with no open row",
            PvCode::Pv102ActWhileOpen => "ACT while a row is already open",
            PvCode::Pv103PimOpModeOutsideAb => "PIM_OP_MODE write outside AB mode is ignored",
            PvCode::Pv104CrfLoadWhileArmed => "CRF load while AB-PIM is armed",
            PvCode::Pv105DataAccessInPlainAb => "data-row column access in plain AB mode",
            PvCode::Pv106TransitionCancelled => "armed mode transition cancelled mid-sequence",
            PvCode::Pv107EnterAbWithOpenBank => "entering AB mode with a bank row open",
            PvCode::Pv108ExitFromAbPim => "exit from AB-PIM to SB without disabling PIM_OP_MODE",
            PvCode::Pv109RefreshWithOpenRow => "refresh with a row open",
            PvCode::Pv110TriggerWithoutProgram => "trigger with no CRF program loaded",
            PvCode::Pv111EndsOutsideSb => "stream ends outside single-bank mode",
            PvCode::Pv201UnfencedHostRead => "host read of PIM-written address without a fence",
            PvCode::Pv202UnfencedGrfReadback => "GRF readback of a dirty entry without a fence",
            PvCode::Pv301ControlFlowUnprovable => "control flow not statically provable",
            PvCode::Pv302UninitializedGrfRead => "read of a GRF entry never written (symbolic)",
            PvCode::Pv303SymbolicDeadWrite => "GRF write proven dead by symbolic execution",
            PvCode::Pv304RowOutOfBounds => "ACT row beyond the bank's row count",
        }
    }

    /// Every code, in numeric order (drives `pimlint --codes` and the
    /// documentation table).
    pub const ALL: [PvCode; 38] = [
        PvCode::Pv001BadDestination,
        PvCode::Pv002MultipleBankOperands,
        PvCode::Pv003MultipleScalarOperands,
        PvCode::Pv004SameGrfFileTwice,
        PvCode::Pv005NonGrfDestination,
        PvCode::Pv006ScalarMisplaced,
        PvCode::Pv007JumpTargetOutOfRange,
        PvCode::Pv008JumpZeroCount,
        PvCode::Pv009ProgramTooLong,
        PvCode::Pv010EmptyProgram,
        PvCode::Pv011UndecodableWord,
        PvCode::Pv012NonBackwardJump,
        PvCode::Pv013NoExit,
        PvCode::Pv014DeadCode,
        PvCode::Pv015ReadBeforeWrite,
        PvCode::Pv016DeadWrite,
        PvCode::Pv017MixedAam,
        PvCode::Pv018BankHazard,
        PvCode::Pv019IndexOutOfBounds,
        PvCode::Pv030AsmSyntax,
        PvCode::Pv031TraceSyntax,
        PvCode::Pv101NoOpenRow,
        PvCode::Pv102ActWhileOpen,
        PvCode::Pv103PimOpModeOutsideAb,
        PvCode::Pv104CrfLoadWhileArmed,
        PvCode::Pv105DataAccessInPlainAb,
        PvCode::Pv106TransitionCancelled,
        PvCode::Pv107EnterAbWithOpenBank,
        PvCode::Pv108ExitFromAbPim,
        PvCode::Pv109RefreshWithOpenRow,
        PvCode::Pv110TriggerWithoutProgram,
        PvCode::Pv111EndsOutsideSb,
        PvCode::Pv201UnfencedHostRead,
        PvCode::Pv202UnfencedGrfReadback,
        PvCode::Pv301ControlFlowUnprovable,
        PvCode::Pv302UninitializedGrfRead,
        PvCode::Pv303SymbolicDeadWrite,
        PvCode::Pv304RowOutOfBounds,
    ];
}

impl fmt::Display for PvCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Site {
    /// An instruction index within a program.
    Instruction(usize),
    /// A word index within a CRF image.
    Word(usize),
    /// A line/column in a text source (`.pim` or `.trace`).
    Line {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
    },
    /// A command within a flat stream (0-based), with its display form.
    Command {
        /// Index in the stream.
        index: usize,
        /// Rendered command, e.g. `ACT BG0/BA0 row=31`.
        desc: String,
    },
    /// A command within a [`pim_host::Batch`] list.
    Batch {
        /// Batch index.
        batch: usize,
        /// Command index within the batch.
        command: usize,
        /// The batch's executor phase, if any.
        label: Option<Phase>,
    },
    /// The stream or program as a whole (e.g. "ends outside SB").
    Whole,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Instruction(i) => write!(f, "instruction {i}"),
            Site::Word(i) => write!(f, "word {i}"),
            Site::Line { line, col } => write!(f, "{line}:{col}"),
            Site::Command { index, desc } => write!(f, "command {index} ({desc})"),
            Site::Batch { batch, command, label: Some(l) } => {
                write!(f, "batch {batch} `{}` command {command}", l.as_str())
            }
            Site::Batch { batch, command, label: None } => {
                write!(f, "batch {batch} command {command}")
            }
            Site::Whole => f.write_str("end of input"),
        }
    }
}

/// One finding of a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: PvCode,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description of this specific occurrence.
    pub message: String,
    /// What the diagnostic points at.
    pub site: Site,
}

impl Diagnostic {
    /// Renders one diagnostic rustc-style; `origin` names the source
    /// (file, kernel, ...) in the `-->` location line.
    pub fn render(&self, origin: &str) -> String {
        format!(
            "{}[{}]: {}\n  --> {}:{}\n",
            self.severity, self.code, self.message, origin, self.site
        )
    }
}

/// The outcome of running one or more passes over one subject.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Findings in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records an error.
    pub fn error(&mut self, code: PvCode, site: Site, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            site,
        });
    }

    /// Records a warning.
    pub fn warn(&mut self, code: PvCode, site: Site, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            site,
        });
    }

    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` if any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` if nothing at all was recorded (no errors, no warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if any diagnostic carries `code`.
    pub fn has_code(&self, code: PvCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the report as one stable JSON object (the `pimlint --json`
    /// schema): `origin`, `clean`, `errors`, `warnings`, and a
    /// `diagnostics` array with one object per finding — `code`,
    /// `severity`, `summary`, `message`, and a structured `site` tagged
    /// by `kind` (`instruction`/`word`/`line`/`command`/`batch`/`whole`).
    pub fn render_json(&self, origin: &str) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"origin\":{}", json_str(origin)));
        out.push_str(&format!(",\"clean\":{}", self.is_clean()));
        out.push_str(&format!(",\"errors\":{}", self.error_count()));
        out.push_str(&format!(",\"warnings\":{}", self.warning_count()));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"code\":{}", json_str(d.code.as_str())));
            out.push_str(&format!(",\"severity\":{}", json_str(&d.severity.to_string())));
            out.push_str(&format!(",\"summary\":{}", json_str(d.code.summary())));
            out.push_str(&format!(",\"message\":{}", json_str(&d.message)));
            out.push_str(",\"site\":{");
            match &d.site {
                Site::Instruction(i) => {
                    out.push_str(&format!("\"kind\":\"instruction\",\"index\":{i}"));
                }
                Site::Word(i) => out.push_str(&format!("\"kind\":\"word\",\"index\":{i}")),
                Site::Line { line, col } => {
                    out.push_str(&format!("\"kind\":\"line\",\"line\":{line},\"col\":{col}"));
                }
                Site::Command { index, desc } => {
                    out.push_str(&format!(
                        "\"kind\":\"command\",\"index\":{index},\"desc\":{}",
                        json_str(desc)
                    ));
                }
                Site::Batch { batch, command, label } => {
                    out.push_str(&format!(
                        "\"kind\":\"batch\",\"batch\":{batch},\"command\":{command},\"label\":"
                    ));
                    match label {
                        Some(l) => out.push_str(&json_str(l.as_str())),
                        None => out.push_str("null"),
                    }
                }
                Site::Whole => out.push_str("\"kind\":\"whole\""),
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders all diagnostics rustc-style, with a trailing summary line;
    /// `origin` names the subject (file name, kernel name, ...).
    pub fn render(&self, origin: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(origin));
        }
        if !self.diagnostics.is_empty() {
            out.push_str(&format!(
                "{origin}: {} error(s), {} warning(s)\n",
                self.error_count(),
                self.warning_count()
            ));
        }
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        f.write_str(self.render("input").trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_ordered() {
        let strs: Vec<&str> = PvCode::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), PvCode::ALL.len(), "duplicate PV codes");
        assert_eq!(strs, sorted, "ALL must be in numeric order");
        for c in PvCode::ALL {
            assert!(c.as_str().starts_with("PV"));
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn report_counts_and_rendering() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.error(PvCode::Pv007JumpTargetOutOfRange, Site::Instruction(3), "JUMP target 40");
        r.warn(PvCode::Pv014DeadCode, Site::Instruction(5), "unreachable");
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.has_code(PvCode::Pv014DeadCode));
        let text = r.render("k.pim");
        assert!(text.contains("error[PV007]"), "{text}");
        assert!(text.contains("warning[PV014]"), "{text}");
        assert!(text.contains("--> k.pim:instruction 3"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
    }
}
