//! Power and energy model for HBM and PIM-HBM (Section VII-C).
//!
//! The paper measures silicon; we compose the same component-level story
//! analytically and drive it with the simulator's command statistics:
//!
//! * [`mac`] — Table I's MAC-unit area/energy across number formats.
//! * [`components`] — per-command, per-component DRAM energies (cell,
//!   IOSA/decoders, internal global I/O bus, I/O PHY, buffer-die I/O, PIM
//!   units). AB-PIM mode multiplies the array-side components by the
//!   number of operating banks but **skips the global bus and PHY** — "the
//!   AB-PIM mode does not consume power for transferring data from the
//!   bank I/O all the way to the I/O circuits that interface with the host
//!   processor" — which is why PIM-HBM burns only ~5% more power at 4× the
//!   bandwidth (Fig. 11).
//! * [`system`] — host + memory system power states and energy
//!   integration for Fig. 12 (relative power/energy of PROC-HBM, PIM-HBM,
//!   PROC-HBM×4) and Fig. 13 (power over time).
//!
//! Every constant is documented with its calibration rationale; the
//! headline checks (±5.4% power at 4× bandwidth, ~3.5× lower energy/bit,
//! ~10% saving if the buffer-die I/O gated) are locked in by unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod mac;
pub mod system;
pub mod trace;

pub use components::{EnergyParams, MemoryEnergyBreakdown, PowerComponent};
pub use mac::{table1, MacUnitModel};
pub use system::{HostPowerState, SystemPowerModel};
pub use trace::{PowerPhase, PowerTrace};
