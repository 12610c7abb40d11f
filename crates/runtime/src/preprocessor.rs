//! The PIM preprocessor (Section V-A): "analyzes the source code of
//! applications and finds TensorFlow ops suitable for PIM acceleration at
//! runtime."
//!
//! The suitability test is the paper's own criterion: PIM targets
//! **memory-bound** kernels — low operations-per-byte, footprints that do
//! not fit in the LLC — and must "not hurt the performance of compute-bound
//! applications" (ResNet-50 in Fig. 10, which runs entirely on the host).

use crate::ops::OpKind;
use pim_core::isa::Instruction;
use pim_core::PimConfig;
use pim_host::HostConfig;

/// Where the preprocessor decides an op should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionTarget {
    /// Offload to the PIM execution units.
    Pim,
    /// Keep on the host processor.
    Host,
}

/// The preprocessor: a stateless analysis over op descriptors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Preprocessor;

impl Preprocessor {
    /// Arithmetic intensity (FLOPs per DRAM byte) below which a kernel is
    /// memory-bound on `host` with `per_pch_gbs` of bandwidth per pseudo
    /// channel: the machine balance `peak_flops / peak_bandwidth`, on the
    /// paper's host and HBM2 ≈ 26.5 TFLOPS / 1.23 TB/s ≈ 21.6 FLOP/B;
    /// anything far below is bandwidth-limited.
    pub fn machine_balance(host: &HostConfig, per_pch_gbs: f64) -> f64 {
        host.peak_fp16_gflops() / host.peak_bandwidth_gbs(per_pch_gbs)
    }

    /// Decides where `op` with the given working set and batch should run on
    /// `host` streaming `per_pch_gbs` per pseudo channel.
    ///
    /// Level-1/2 BLAS at batch 1 (GEMV, element-wise ops, BN) have ≤ ~1
    /// FLOP/B and go to PIM when their footprint exceeds the LLC; batching
    /// multiplies reuse (GEMV`→`GEMM), and once the effective intensity
    /// approaches the machine balance the host wins — "the processor with
    /// HBM begins to outperform one with PIM-HBM as it becomes less
    /// memory-bound" (Section VII-B, batch 4).
    pub fn decide(
        host: &HostConfig,
        per_pch_gbs: f64,
        op: OpKind,
        footprint_bytes: u64,
        batch: usize,
    ) -> ExecutionTarget {
        let intensity = op.flops_per_byte() * batch as f64;
        let balance = Self::machine_balance(host, per_pch_gbs);
        let fits_in_llc = footprint_bytes <= host.llc_bytes as u64;
        // An op batched up to the machine balance is compute-bound: host.
        if intensity >= balance {
            return ExecutionTarget::Host;
        }
        // Cache-resident data is cheaper to keep on the host.
        if fits_in_llc {
            return ExecutionTarget::Host;
        }
        // The paper's measured crossover: at batch ≥ 4 the batched GEMM's
        // LLC reuse beats PIM even though intensity is still below balance
        // (Fig. 10). Element-wise ops stay memory-bound at any batch
        // ("ADD, which is the level-1 BLAS, is still memory-bound
        // regardless of the batch size").
        if op.batch_raises_reuse() && batch >= 4 {
            return ExecutionTarget::Host;
        }
        ExecutionTarget::Pim
    }

    /// Statically verifies a microkernel before launch (strict mode).
    ///
    /// Runs the full `pim-verify` analysis pipeline — the structural
    /// kernel pass plus the symbolic executor — on `program` under
    /// `config`'s variant; warnings (including the PV3xx symbolic
    /// findings) are tolerated, errors refuse the launch.
    ///
    /// # Errors
    ///
    /// The full diagnostic [`pim_verify::Report`] when the analysis finds
    /// at least one error-severity finding.
    pub fn verify_kernel(
        config: &PimConfig,
        program: &[Instruction],
    ) -> Result<(), pim_verify::Report> {
        let report = pim_verify::analyze_program(config, program);
        if report.has_errors() {
            Err(report)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: u64 = 64 << 20; // 64 MB ≫ LLC

    fn hbm2_gbs() -> f64 {
        pim_dram::TimingParams::hbm2().peak_pch_bandwidth_gbs()
    }

    #[test]
    fn machine_balance_is_about_22() {
        let b = Preprocessor::machine_balance(&HostConfig::paper(), hbm2_gbs());
        assert!((20.0..24.0).contains(&b), "balance {b}");
    }

    #[test]
    fn gemv_batch1_goes_to_pim() {
        let h = HostConfig::paper();
        assert_eq!(
            Preprocessor::decide(&h, hbm2_gbs(), OpKind::Gemv, BIG, 1),
            ExecutionTarget::Pim
        );
    }

    #[test]
    fn gemv_batch4_returns_to_host() {
        let h = HostConfig::paper();
        assert_eq!(
            Preprocessor::decide(&h, hbm2_gbs(), OpKind::Gemv, BIG, 4),
            ExecutionTarget::Host
        );
    }

    #[test]
    fn add_stays_on_pim_at_any_batch() {
        let h = HostConfig::paper();
        for b in [1, 2, 4, 16] {
            assert_eq!(
                Preprocessor::decide(&h, hbm2_gbs(), OpKind::Add, BIG, b),
                ExecutionTarget::Pim
            );
        }
    }

    #[test]
    fn cache_resident_stays_on_host() {
        let h = HostConfig::paper();
        assert_eq!(
            Preprocessor::decide(&h, hbm2_gbs(), OpKind::Gemv, 1 << 20, 1),
            ExecutionTarget::Host
        );
    }
}
