//! The PIM software stack (Section V, Fig. 6) — everything between an
//! application's tensor operation and the DRAM command stream.
//!
//! The paper's stack has four layers, all reproduced here:
//!
//! * **PIM device driver** ([`PimDriver`]) — "reserves memory space for PIM
//!   operations during the booting process", marks it uncacheable, and
//!   "allocates physically contiguous memory blocks" so the runtime never
//!   worries about virtual-address translation mid-kernel.
//! * **PIM runtime** — the [`MemoryManager`] (placement of operands in a
//!   PIM-friendly layout and caching of generated microkernels), the
//!   [`Preprocessor`] (decides which ops are worth running on PIM and
//!   generates microkernel code), and the [`Executor`] (programs the CRF,
//!   drives mode transitions, and streams the DRAM commands).
//! * **PIM BLAS** ([`PimBlas`]) — the user-facing linear-algebra API
//!   (ADD, MUL, ReLU, BN, GEMV, LSTM), each of which runs functionally on
//!   the simulated device and returns both the numerical result and a
//!   cycle-accurate [`KernelReport`].
//! * **Custom ops** ([`ops`]) — the vocabulary of the six
//!   TensorFlow-style PIM custom operations the paper implements (ADD, MUL,
//!   Relu, LSTM, GEMV, BN) plus the host-only kinds; a custom op is a call
//!   to its [`PimBlas`] entry point, and the native path is the
//!   [`Preprocessor`] deciding per op (driven by `pim_models::ModelRunner`).
//!
//! # Example
//!
//! ```
//! use pim_runtime::{PimBlas, PimContext};
//!
//! let mut ctx = PimContext::paper_system();
//! let x = vec![1.0f32; 4096];
//! let y = vec![2.0f32; 4096];
//! let (z, report) = PimBlas::add(&mut ctx, &x, &y).unwrap();
//! assert!(z.iter().all(|&v| v == 3.0));
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blas;
pub mod cluster;
pub mod cluster_serve;
mod context;
mod driver;
mod executor;
pub mod kernels;
pub mod layout;
pub mod ops;
mod plan;
mod preprocessor;
pub mod resilience;
pub mod script;
pub mod serve;
mod stream;

pub use blas::{KernelReport, PimBlas, PimError};
pub use cluster::{ClusterContext, ClusterReport, ClusterStats};
pub use cluster_serve::{
    ClusterServeConfig, ClusterServeReport, ClusterServeStats, ClusterServer, StackHealth,
};
pub use context::PimContext;
pub use driver::{AllocError, MemoryManager, PimDriver};
pub use executor::Executor;
pub use kernels::{gemv_microkernel, stream_microkernel, StreamOp};
pub use layout::BlockMap;
pub use pim_host::ExecutionBackend;
pub use plan::{GemvGeometry, GemvPlan};
pub use preprocessor::{ExecutionTarget, Preprocessor};
pub use resilience::{resilient_add, FallbackReason, ResilienceConfig, ResilienceReport};
pub use script::{ScriptError, ScriptSession};
pub use serve::{
    Disposition, RejectReason, RequestOutcome, ServeConfig, ServeOp, ServeReport, ServeRequest,
    ServeStats, Server, TenantSlo,
};
