//! The PIM custom-op layer (Section V-A, Fig. 7): "PIM BLAS functions can
//! also be called directly by TF 'PIM custom ops' [...] We currently
//! support six custom TF operations (ADD, MUL, Relu, LSTM, GEMV, and BN)."
//!
//! [`OpKind`] is the vocabulary the [`crate::Preprocessor`] reasons over on
//! the native path; the PIM-supported kinds each have a [`crate::PimBlas`]
//! entry point, which is what a custom op calls (Fig. 6's yellow arrow).

/// The operation kinds the stack understands — the six PIM custom ops plus
/// the host-only kinds the preprocessor must classify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Element-wise addition (residual connections).
    Add,
    /// Element-wise multiplication.
    Mul,
    /// ReLU activation.
    Relu,
    /// Matrix-vector multiplication.
    Gemv,
    /// Batch normalization (inference, folded constants).
    Bn,
    /// One LSTM cell step.
    Lstm,
    /// 2-D convolution — compute-bound, host only.
    Conv2d,
    /// Batched matrix-matrix multiplication — compute-bound, host only.
    Gemm,
    /// Softmax/attention-style reductions — host only in this generation.
    Softmax,
}

impl OpKind {
    /// Approximate arithmetic intensity (FLOPs per DRAM byte) at batch 1.
    ///
    /// Level-1/2 BLAS sit near 0.5–1 FLOP/B (2 FLOPs per 2-byte weight at
    /// best); convolutions reuse each weight across the whole feature map.
    pub fn flops_per_byte(self) -> f64 {
        match self {
            OpKind::Add | OpKind::Mul | OpKind::Relu => 0.33,
            OpKind::Bn => 0.67,
            OpKind::Gemv | OpKind::Lstm => 1.0,
            OpKind::Gemm => 8.0,
            OpKind::Conv2d => 50.0,
            OpKind::Softmax => 1.0,
        }
    }

    /// Whether a PIM microkernel exists for this op.
    pub fn pim_supported(self) -> bool {
        matches!(
            self,
            OpKind::Add | OpKind::Mul | OpKind::Relu | OpKind::Gemv | OpKind::Bn | OpKind::Lstm
        )
    }

    /// Whether batching converts this op's reuse profile toward
    /// compute-bound (GEMV → GEMM); element-wise ops only grow linearly.
    pub fn batch_raises_reuse(self) -> bool {
        matches!(self, OpKind::Gemv | OpKind::Lstm | OpKind::Gemm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kinds_classify() {
        assert!(OpKind::Gemv.pim_supported());
        assert!(!OpKind::Conv2d.pim_supported());
        assert!(OpKind::Gemv.batch_raises_reuse());
        assert!(!OpKind::Add.batch_raises_reuse());
        assert!(OpKind::Conv2d.flops_per_byte() > OpKind::Gemv.flops_per_byte());
    }
}
