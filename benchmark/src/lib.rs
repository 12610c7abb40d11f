//! `pimbench` — the repository's one benchmark. See `benchmark/README.md`.
//!
//! Two clocks: *simulated* numbers are pure functions of (code, seed) and
//! repeat exactly; *host* numbers are what the simulator costs to run. The
//! harness calls only public functions of the layer crates and changes none
//! of them.

pub mod agree;
pub mod gen;
pub mod harness;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod paper;
pub mod span;
pub mod stats;
pub mod workloads;
