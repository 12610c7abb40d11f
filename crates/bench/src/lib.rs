//! The reproduction harness: every table and figure of the paper's
//! evaluation as a callable experiment.
//!
//! Each experiment is a library function returning structured data; the
//! `src/bin/*` targets print them (`cargo run -p pim-bench --bin fig10`
//! etc.), the integration tests assert their shapes against the paper, and
//! the Criterion benches time scaled versions. EXPERIMENTS.md records the
//! paper-vs-measured comparison for every entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod cluster;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod lint;
pub mod micro;
pub mod profile;
pub mod report;
pub mod serve;
pub mod trace;
pub mod workloads;

pub use micro::MicroResult;
