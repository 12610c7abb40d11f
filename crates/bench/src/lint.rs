//! Shared drivers for `pimlint` and the linting integration tests: run the
//! `pim-verify` passes over every built-in microkernel and every executor
//! command choreography the runtime ships.

use pim_core::{PimConfig, PimVariant};
use pim_runtime::kernels::{
    gemv_batches, gemv_microkernel, sls_batches, sls_microkernel, stream_batches,
    stream_microkernel, StreamOp,
};
use pim_runtime::Executor;
use pim_verify::{
    analyze_program, check_fences, events_from_batches, lint_stream, PvCode, Report, Site,
};

/// Lints `.pim` assembly text: assembler diagnostics (which carry spans
/// and, for semantic violations, a typed [`pim_core::isa::ValidateError`])
/// are mapped to their PV codes; a program that assembles runs the full
/// analysis pipeline (kernel verifier + symbolic executor).
pub fn lint_pim_source(cfg: &PimConfig, source: &str) -> Report {
    match pim_core::asm::assemble(source) {
        Ok(prog) => analyze_program(cfg, &prog),
        Err(e) => {
            let code = match &e.violation {
                Some(v) => pim_verify::code_of_violation(v),
                None if e.message.contains("exceeds") => PvCode::Pv009ProgramTooLong,
                None => PvCode::Pv030AsmSyntax,
            };
            let mut r = Report::new();
            r.error(code, Site::Line { line: e.line, col: e.col }, e.message.clone());
            r
        }
    }
}

/// Lints `.trace` command-stream text: parse, then the protocol and
/// fence-race passes over the parsed stream.
pub fn lint_trace_source(cfg: &PimConfig, source: &str) -> Report {
    match pim_verify::parse_trace(source) {
        Err(r) => r,
        Ok(events) => {
            let mut r = lint_stream(&events);
            r.merge(check_fences(cfg, &events));
            r
        }
    }
}

/// The `; expect: PV###` header of a corpus file, if present on the first
/// non-blank line.
pub fn expected_code(source: &str) -> Option<PvCode> {
    let line = source.lines().find(|l| !l.trim().is_empty())?;
    let rest = line.trim().trim_start_matches([';', '#']).trim();
    let code = rest.strip_prefix("expect:")?.trim();
    PvCode::ALL.into_iter().find(|c| c.as_str() == code)
}

/// All stream ops, in declaration order.
const STREAM_OPS: [StreamOp; 5] =
    [StreamOp::Add, StreamOp::Mul, StreamOp::Relu, StreamOp::Bn, StreamOp::Axpy];

/// Runs the full analysis pipeline (kernel verifier + symbolic
/// executor) over every built-in microkernel on every hardware variant.
/// Returns `(name, report)` pairs; all must be clean — which also
/// proves every builtin's control flow is statically resolvable (no
/// PV301), the property the launch fast path's taping relies on.
pub fn builtin_kernel_reports() -> Vec<(String, Report)> {
    let mut out = Vec::new();
    for variant in PimVariant::ALL {
        let cfg = PimConfig::with_variant(variant);
        for op in STREAM_OPS {
            for groups in [1u32, 2] {
                let prog = stream_microkernel(op, groups, &cfg);
                out.push((
                    format!("{op:?}(groups={groups}) on {variant:?}"),
                    analyze_program(&cfg, &prog),
                ));
            }
        }
        for groups in [1u32, 8] {
            let prog = gemv_microkernel(groups, &cfg);
            out.push((
                format!("GEMV(groups={groups}) on {variant:?}"),
                analyze_program(&cfg, &prog),
            ));
        }
        for lookups in [1u32, 8] {
            let prog = sls_microkernel(lookups, &cfg);
            out.push((
                format!("SLS(lookups={lookups}) on {variant:?}"),
                analyze_program(&cfg, &prog),
            ));
        }
    }
    out
}

/// Runs the protocol linter and the fence-race detector over the full
/// executor choreography of each built-in kernel family (including the
/// post-kernel GRF readback where the BLAS layer performs one). Returns
/// `(name, protocol report, fence report)` triples; all must be clean.
pub fn builtin_stream_reports() -> Vec<(String, Report, Report)> {
    let cfg = PimConfig::paper();
    let base_row = 0x100;
    let mut out = Vec::new();

    for op in STREAM_OPS {
        let prog = stream_microkernel(op, 2, &cfg);
        let data = stream_batches(op, 2, base_row, &cfg);
        let batches = Executor::full_kernel(&prog, None, false, &data);
        let events = events_from_batches(&batches);
        out.push((
            format!("{op:?} choreography"),
            lint_stream(&events),
            check_fences(&cfg, &events),
        ));
    }

    // GEMV: data phase + the host-side readback of the GRF_B accumulators.
    let k = 64usize;
    let x = vec![1.0f32; k];
    let prog = gemv_microkernel((k / 8) as u32, &cfg);
    let data = gemv_batches(k, base_row, &x, &cfg);
    let batches = Executor::full_kernel(&prog, None, true, &data);
    let mut events = events_from_batches(&batches);
    let n = events.len();
    for (i, c) in Executor::grf_readback_commands(0, 8).into_iter().enumerate() {
        events.push(pim_verify::StreamEvent::cmd(n + i, c));
    }
    out.push((
        "GEMV choreography + readback".to_string(),
        lint_stream(&events),
        check_fences(&cfg, &events),
    ));

    // SLS: gather phase + the GRF_A partial-sum readback.
    let prog = sls_microkernel(4, &cfg);
    let data = sls_batches(&[0, 1, 2, 3], base_row);
    let batches = Executor::full_kernel(&prog, None, false, &data);
    let mut events = events_from_batches(&batches);
    let n = events.len();
    for (i, c) in Executor::grf_readback_commands(0, 0).into_iter().enumerate() {
        events.push(pim_verify::StreamEvent::cmd(n + i, c));
    }
    out.push((
        "SLS choreography + readback".to_string(),
        lint_stream(&events),
        check_fences(&cfg, &events),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_kernel_is_clean() {
        for (name, report) in builtin_kernel_reports() {
            assert!(report.is_clean(), "{name} not clean:\n{}", report.render(&name));
        }
    }

    #[test]
    fn every_builtin_stream_is_clean() {
        for (name, protocol, fences) in builtin_stream_reports() {
            assert!(protocol.is_clean(), "{name} protocol:\n{}", protocol.render(&name));
            assert!(fences.is_clean(), "{name} fences:\n{}", fences.render(&name));
        }
    }
}
