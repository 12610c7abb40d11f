//! Host processor model for the PIM-HBM reproduction.
//!
//! The paper integrates four PIM-HBM stacks with an **unmodified commercial
//! processor** — "60 compute units, each operating at 1.725 GHz" (Section
//! VI), i.e. a GPU-class device. The host's role in every reported result
//! is threefold, and all three are modelled here:
//!
//! 1. **Command generation** ([`KernelEngine`]): PIM kernels are ordinary
//!    memory kernels — thread groups of 16 threads issue 16-byte accesses,
//!    256 bytes per group per step, one thread group per pseudo channel,
//!    with barriers enforcing order every GRF's-worth of commands
//!    (Fig. 8 programming model; Section IV-C fencing). The engine models
//!    what a group emits — one [`Batch`] stream per channel, eight column
//!    commands per 256-byte step, a fence per barrier — not the threads;
//!    the group arithmetic survives as [`THREADS_PER_GROUP`] ×
//!    [`THREAD_ACCESS_BYTES`] = [`GROUP_ACCESS_BYTES`].
//! 2. **Cache filtering** ([`llc::batched_miss_rate`],
//!    [`llc::batched_traffic_bytes`]): batching turns the memory-bound GEMV
//!    into the compute-bound GEMM by raising LLC hit rates (Fig. 10's
//!    B1/B2/B4 sweep).
//! 3. **Compute throughput** ([`HostConfig::compute_time_s`]): the
//!    compute-bound layers (convolutions, batched GEMM) run on the host's
//!    FP16/FP32 units; PIM never slows them down (ResNet-50 in Fig. 10).
//!
//! [`PimSystem`] assembles the full evaluation platform: 4 stacks × 16
//! pseudo channels = 64 channels, each behind its own JEDEC controller
//! driving a [`pim_core::PimChannel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod config;
mod engine;
pub mod fastpath;
#[doc(hidden)]
pub mod frozen;
mod kernel;
pub mod llc;
pub mod predictor;
mod system;

pub use cluster::{collective_cycles, LINK_BYTES_PER_CYCLE, LINK_LATENCY_CYCLES, PCH_PER_STACK};
pub use config::{HostConfig, GROUP_ACCESS_BYTES, THREADS_PER_GROUP, THREAD_ACCESS_BYTES};
pub use engine::{Batch, BoundedResult, ExecutionMode, KernelEngine, KernelResult, Phase};
pub use fastpath::{FastpathChannels, FastpathStats};
#[doc(hidden)]
pub use frozen::ExecutionBackend;
pub use kernel::{Kernel, Loop};
pub use predictor::{predict_launch, ChannelPredictor, Folded, LaunchPrediction};
pub use system::PimSystem;
