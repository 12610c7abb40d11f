//! The reproduction harness: every table and figure of the paper's
//! evaluation as a callable experiment.
//!
//! Each experiment is a library function returning structured data
//! ([`experiments`]); the registry ([`repro`]) names and formats them,
//! `pimrepro <name>` prints an entry and `tests/repro_golden.rs` pins its
//! bytes. What the paper reports is one table ([`paper`]):
//! `tests/reproduction.rs` holds every measured value in its band, and
//! `pimrepro paper` prints the comparison EXPERIMENTS.md embeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod cluster;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod lint;
pub mod micro;
pub mod paper;
pub mod profile;
pub mod report;
pub mod repro;
pub mod serve;
pub mod trace;
pub mod workloads;

pub use micro::MicroResult;
