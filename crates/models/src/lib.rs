//! The evaluated workloads (Section VII-A): microbenchmark definitions and
//! the five applications — DeepSpeech2, RNN-T, GNMT, AlexNet and
//! ResNet-50 — expressed as layer graphs and executed through the same
//! cost machinery the microbenchmarks use.
//!
//! * [`cost`] — kernel cost models. PIM kernel times come from the **real
//!   choreography**: the per-channel command lists for a shape are
//!   generated by `pim-runtime`'s builders, and the DRAM and PIM-mode
//!   timing constraints are folded over them in closed form
//!   ([`pim_host::ChannelPredictor`]) — no device is constructed, and
//!   `tests/timing_only.rs` holds every cost equal to the cycle-level
//!   simulator's. Because execution is lock-step, one channel's cycle
//!   count is the wall time. [`KernelCost::commands`] counts the kernel
//!   and not the GEMV's partial-sum read-back, as it always has. Host
//!   (HBM-baseline) times come from the documented streaming/compute/LLC
//!   models in `pim-host`.
//! * [`layer`] — the layer vocabulary (convolutions, LSTM, fully
//!   connected, BN, ReLU, residual ADD, attention) with per-layer FLOP and
//!   byte accounting.
//! * [`models`] — the five applications with their paper-described
//!   structures (e.g. DS2: "2 convolution layers, 6 bidirectional LSTM
//!   layers, and a fully connected layer").
//! * [`runner`] — executes a model on the HBM system and the PIM-HBM
//!   system at a given batch size, producing per-layer times, end-to-end
//!   speedups, and power phases for the energy figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod cost;
pub mod layer;
pub mod models;
pub mod runner;

pub use cost::{CostModel, KernelCost};
pub use layer::{LaunchPattern, Layer};
pub use models::{alexnet, deepspeech2, gnmt, resnet50, rnnt, vgg16, Model};
pub use runner::{LayerTime, ModelRunner, Placement, RunReport, SystemKind};
