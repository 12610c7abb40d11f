//! `pim-verify` — static analysis for the PIM software stack.
//!
//! Four passes, all running *before* (or instead of) simulation:
//!
//! 1. **Kernel verifier** ([`verify_program`], [`verify_image`]): checks a
//!    microkernel — per-instruction legality on the configured variant,
//!    register-index bounds, control flow (backward-only JUMPs, guaranteed
//!    EXIT, dead code), data flow (read-before-write, dead writes, mixed
//!    AAM addressing), and the 5-stage pipeline's bank read-after-write
//!    hazard window (Section IV-B).
//! 2. **Protocol linter** ([`lint_stream`]): steps a standard-DRAM command
//!    stream through [`pim_core::ModeWalker`] — the SB / AB / AB-PIM mode
//!    machine (Section III-B, Fig. 3) the device is held to — and flags
//!    sequences the device would reject, silently ignore, or execute with
//!    surprising results, reading each off the walker's state before and
//!    after the command.
//! 3. **Fence-race detector** ([`check_fences`]): a happens-before pass
//!    that finds host reads of PIM-written bank addresses or GRF entries
//!    with no intervening fence (the Section VII-D barrier contract). It
//!    is footprint-precise: the same walker, and the unit's own
//!    [`pim_core::Sequencer`] over the stream's CRF image, resolve exactly
//!    which `(bank parity, row, column)` cell each trigger dirtied, so
//!    reads of disjoint columns never race.
//! 4. **Symbolic executor** ([`symex_program`], [`check_equivalence`]):
//!    an abstract interpreter over the statically resolved trigger
//!    schedule ([`pim_core::schedule::StaticSchedule`]) that proves
//!    control flow data-independent (PV301 when it cannot — the proof
//!    the DataTape fast path is gated on), runs the unit's own dataflow
//!    over hash-consed expressions into symbolic output summaries
//!    ([`KernelSummary`]), flags index-exact uninitialized reads (PV302)
//!    and loop-aware dead writes (PV303), and decides semantic
//!    equivalence of two programs.
//!
//! Every diagnostic carries a stable `PV###` code ([`PvCode`]) documented
//! in `docs/LINTING.md`; [`Report::render`] produces `rustc`-style output
//! and [`Report::render_json`] a machine-readable form. The `pimlint`
//! binary (in `pim-bench`) drives all passes from the command line;
//! `pim-runtime`'s strict mode runs [`analyze_program`] at launch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod fence;
mod kernel;
mod protocol;
mod stream;
mod symex;

pub use diag::{Diagnostic, PvCode, Report, Severity, Site};
pub use fence::check_fences;
pub use kernel::{code_of_violation, verify_image, verify_program};
pub use protocol::lint_stream;
pub use stream::{events_from_batches, parse_trace, strip_fences, StreamEvent, StreamItem};
pub use symex::{
    check_equivalence, symex_program, EquivVerdict, EvalOutput, KernelSummary, SymexOutcome,
};

/// Runs the full static-analysis pipeline over one program: the
/// structural kernel verifier ([`verify_program`]) plus the symbolic
/// executor ([`symex_program`]), merged into one report. This is what
/// `pimlint` and `pim-runtime`'s strict mode run.
pub fn analyze_program(
    config: &pim_core::PimConfig,
    program: &[pim_core::isa::Instruction],
) -> Report {
    let mut report = verify_program(config, program);
    report.merge(symex_program(program).report);
    report
}

/// Assembles `source`, panicking with the error span *and* the full
/// program text on failure — the test-helper convention documented in
/// `docs/PANIC_AUDIT.md` (a bare `unwrap` on [`pim_core::asm::assemble`]
/// loses the source being assembled).
#[track_caller]
pub fn must_assemble(source: &str) -> Vec<pim_core::isa::Instruction> {
    match pim_core::asm::assemble(source) {
        Ok(program) => program,
        Err(e) => panic!(
            "kernel failed to assemble at line {}:{}: {}\n--- source ---\n{source}",
            e.line, e.col, e.message
        ),
    }
}
