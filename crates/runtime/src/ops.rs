//! The PIM custom-op layer (Section V-A, Fig. 7): "PIM BLAS functions can
//! also be called directly by TF 'PIM custom ops' [...] We currently
//! support six custom TF operations (ADD, MUL, Relu, LSTM, GEMV, and BN)."
//!
//! [`OpKind`] is exactly those six ops: the vocabulary the
//! [`crate::Preprocessor`] reasons over on the native path, each with a
//! [`crate::PimBlas`] entry point, which is what a custom op calls (Fig. 6's
//! yellow arrow). A compute-bound layer (convolution, attention) never
//! reaches the preprocessor, so it has no kind here.

use crate::StreamOp;

/// The six PIM custom ops.
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
}

impl OpKind {
    /// Approximate arithmetic intensity (FLOPs per DRAM byte) at batch 1:
    /// level-1/2 BLAS sit near 0.5–1 FLOP/B (2 FLOPs per 2-byte weight at
    /// best).
    pub fn flops_per_byte(self) -> f64 {
        match self {
            OpKind::Add | OpKind::Mul | OpKind::Relu => 0.33,
            OpKind::Bn => 0.67,
            OpKind::Gemv | OpKind::Lstm => 1.0,
        }
    }

    /// Whether batching converts this op's reuse profile toward
    /// compute-bound (GEMV → GEMM); element-wise ops only grow linearly.
    pub fn batch_raises_reuse(self) -> bool {
        matches!(self, OpKind::Gemv | OpKind::Lstm)
    }
}

impl From<StreamOp> for OpKind {
    /// The custom op a PIM-BLAS stream kernel serves.
    fn from(op: StreamOp) -> OpKind {
        match op {
            StreamOp::Add => OpKind::Add,
            StreamOp::Mul => OpKind::Mul,
            StreamOp::Relu => OpKind::Relu,
            // AXPY shares ADD's level-1 BLAS profile.
            StreamOp::Axpy => OpKind::Add,
            StreamOp::Bn => OpKind::Bn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kinds_classify() {
        assert!(OpKind::Gemv.batch_raises_reuse());
        assert!(!OpKind::Add.batch_raises_reuse());
        assert!(OpKind::Gemv.flops_per_byte() > OpKind::Add.flops_per_byte());
        assert_eq!(OpKind::from(StreamOp::Axpy), OpKind::Add);
        assert_eq!(OpKind::from(StreamOp::Bn), OpKind::Bn);
    }
}
