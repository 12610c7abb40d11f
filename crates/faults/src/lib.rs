//! Deterministic, seeded fault injection for the PIM-HBM simulator.
//!
//! The paper's RAS argument (Section VIII) is that PIM can adopt commodity
//! reliability mechanisms because the execution unit reads and writes at
//! host access granularity. This crate supplies the *fault half* of testing
//! that claim: a [`FaultPlan`] describes a seeded fault environment, and
//! the simulation layers consult small per-site decision objects
//! ([`CellFaults`] per bank, [`DeviceFaults`] per channel) that each layer
//! stores behind an `Option` — with no plan installed every hook costs one
//! pointer test and the simulation is bit-identical to a build without this
//! crate (the zero-observer-effect contract the perf gate enforces).
//!
//! # Determinism
//!
//! Every fault decision is a pure hash of `(seed, site identity)` or
//! `(seed, channel, per-channel event counter)` — never of global
//! simulation order. Channels are simulated independently, so an identical
//! plan produces identical faults on every run.
//!
//! # Fault classes
//!
//! | class | layer | persistence |
//! |---|---|---|
//! | cell write flip | `pim-dram` bank | transient (one write) |
//! | stuck-at cell (1 bit) | `pim-dram` bank | persistent, ECC-correctable |
//! | stuck-at pair (2 bits) | `pim-dram` bank | persistent, ECC-uncorrectable |
//! | dropped column command | `pim-core` device | transient |
//! | corrupted write data | `pim-core` device | transient |
//! | mode-machine glitch | `pim-core` device | transient (sequencer reset) |
//! | channel stall | `pim-core` device | persistent (timing only) |
//! | channel hard failure | `pim-core` device | persistent |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

pub use chaos::{ChaosKind, ChaosWindow, ClusterFaultPlan, LinkState};

/// SplitMix64 finalizer — the mixing core of every fault decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a fault site: `seed`, a per-class domain tag, and up to three
/// site coordinates. Pure — the same site always hashes the same way.
fn site_hash(seed: u64, domain: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(mix(seed ^ domain) ^ a) ^ b) ^ c)
}

/// True with probability `rate` for this hash (top 53 bits as a uniform
/// fraction).
fn happens(hash: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    ((hash >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

/// Domain tags keep the per-class hash streams independent.
mod domain {
    pub const CELL_FLIP: u64 = 0x01;
    pub const CELL_STUCK: u64 = 0x02;
    pub const CELL_STUCK_PAIR: u64 = 0x03;
    pub const CMD_DROP: u64 = 0x10;
    pub const CMD_CORRUPT: u64 = 0x11;
    pub const GLITCH: u64 = 0x12;
    pub const CHAN_FAIL: u64 = 0x20;
    pub const CHAN_STALL: u64 = 0x21;
}

/// A seeded description of the fault environment for one simulation.
///
/// All rates are probabilities in `[0, 1]`. The default plan
/// ([`FaultPlan::quiet`]) injects nothing; campaign runners scale the rates
/// up from there.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every fault decision derives.
    pub seed: u64,
    /// Probability that one bit of a written block flips in transit
    /// (transient; per block write).
    pub cell_flip_rate: f64,
    /// Probability that a 32-byte block site contains one stuck-at cell
    /// (persistent; forced on every read; single-bit, so ECC-correctable).
    pub stuck_cell_rate: f64,
    /// Probability that a block site contains a stuck-at *pair* in one
    /// 64-bit codeword (persistent; ECC detects but cannot correct).
    pub stuck_pair_rate: f64,
    /// Probability that an all-bank-mode data column command is silently
    /// lost (per command).
    pub cmd_drop_rate: f64,
    /// Probability that an all-bank-mode data write's payload suffers a
    /// single-bit corruption (per command).
    pub cmd_corrupt_rate: f64,
    /// Probability of a spurious mode-machine glitch on an all-bank data
    /// column command: the units' sequencers reset as if `PIM_OP_MODE` had
    /// been rewritten (per command).
    pub glitch_rate: f64,
    /// Probability that a channel is hard-failed for the whole run: its
    /// PIM units never execute, so its results are garbage.
    pub chan_fail_rate: f64,
    /// Probability that a channel is degraded: every command it accepts
    /// costs [`FaultPlan::stall_penalty`] extra cycles.
    pub chan_stall_rate: f64,
    /// Extra cycles per command on a stalled channel.
    pub stall_penalty: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            cell_flip_rate: 0.0,
            stuck_cell_rate: 0.0,
            stuck_pair_rate: 0.0,
            cmd_drop_rate: 0.0,
            cmd_corrupt_rate: 0.0,
            glitch_rate: 0.0,
            chan_fail_rate: 0.0,
            chan_stall_rate: 0.0,
            stall_penalty: 0,
        }
    }

    /// True if the plan can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.cell_flip_rate <= 0.0
            && self.stuck_cell_rate <= 0.0
            && self.stuck_pair_rate <= 0.0
            && self.cmd_drop_rate <= 0.0
            && self.cmd_corrupt_rate <= 0.0
            && self.glitch_rate <= 0.0
            && self.chan_fail_rate <= 0.0
            && self.chan_stall_rate <= 0.0
    }

    /// Whether channel `ch` is hard-failed under this plan.
    pub fn channel_failed(&self, ch: usize) -> bool {
        happens(site_hash(self.seed, domain::CHAN_FAIL, ch as u64, 0, 0), self.chan_fail_rate)
    }

    /// Whether channel `ch` is stall-degraded under this plan.
    pub fn channel_stalled(&self, ch: usize) -> bool {
        happens(site_hash(self.seed, domain::CHAN_STALL, ch as u64, 0, 0), self.chan_stall_rate)
    }
}

/// A persistent cell defect at one 32-byte block site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckFault {
    /// One bit (index in `0..256`) is stuck at the given level.
    Bit {
        /// Bit index within the 256-bit block.
        bit: u16,
        /// The level the cell is stuck at.
        level: bool,
    },
    /// Two bits of the same 64-bit codeword are stuck — an uncorrectable
    /// pattern for the SECDED code.
    Pair {
        /// First stuck bit index within the block.
        bit_a: u16,
        /// Second stuck bit index, same 64-bit word as `bit_a`.
        bit_b: u16,
        /// The level both cells are stuck at.
        level: bool,
    },
}

/// Flips one bit (index in `0..256`) of a 32-byte block. Public so device
/// models can apply a [`ColumnFault::CorruptBit`] decision to in-flight
/// data.
pub fn flip_bit(data: &mut [u8; 32], bit: u16) {
    data[(bit / 8) as usize] ^= 1 << (bit % 8);
}

fn force_bit(data: &mut [u8; 32], bit: u16, level: bool) {
    let byte = (bit / 8) as usize;
    let mask = 1u8 << (bit % 8);
    if level {
        data[byte] |= mask;
    } else {
        data[byte] &= !mask;
    }
}

/// Per-bank cell-fault state, installed by
/// `PimSystem::install_faults` and consulted by the bank's read/write
/// paths. `salt` encodes the bank's system-wide identity so every bank
/// sees an independent fault pattern from one seed.
#[derive(Debug, Clone)]
pub struct CellFaults {
    seed: u64,
    salt: u64,
    flip_rate: f64,
    stuck_rate: f64,
    pair_rate: f64,
    /// Per-bank write counter — transient flips key off it, so a rewrite
    /// of the same site rolls fresh dice (and a scrub repair can stick).
    writes: u64,
}

impl CellFaults {
    /// Builds the per-bank state for `plan`, or `None` when the plan has no
    /// cell-level fault classes (keeping the zero-cost hook dormant).
    pub fn new(plan: &FaultPlan, salt: u64) -> Option<CellFaults> {
        if plan.cell_flip_rate <= 0.0 && plan.stuck_cell_rate <= 0.0 && plan.stuck_pair_rate <= 0.0
        {
            return None;
        }
        Some(CellFaults {
            seed: plan.seed,
            salt,
            flip_rate: plan.cell_flip_rate,
            stuck_rate: plan.stuck_cell_rate,
            pair_rate: plan.stuck_pair_rate,
            writes: 0,
        })
    }

    /// The persistent defect at block site (`row`, `col`), if any.
    pub fn stuck_at(&self, row: u32, col: u32) -> Option<StuckFault> {
        let pair = site_hash(self.seed, domain::CELL_STUCK_PAIR, self.salt, row as u64, col as u64);
        if happens(pair, self.pair_rate) {
            let bit_a = (pair % 256) as u16;
            let word = bit_a / 64;
            // A second, distinct bit within the same 64-bit codeword.
            let off = (bit_a % 64 + 1 + ((pair >> 10) % 63) as u16) % 64;
            let bit_b = word * 64 + off;
            return Some(StuckFault::Pair { bit_a, bit_b, level: (pair >> 9) & 1 == 1 });
        }
        let h = site_hash(self.seed, domain::CELL_STUCK, self.salt, row as u64, col as u64);
        if happens(h, self.stuck_rate) {
            return Some(StuckFault::Bit { bit: (h % 256) as u16, level: (h >> 9) & 1 == 1 });
        }
        None
    }

    /// Applies persistent defects to a block being read from (`row`,
    /// `col`). Called on every array read; pure, so read order never
    /// changes the outcome.
    pub fn corrupt_read(&self, row: u32, col: u32, data: &mut [u8; 32]) {
        match self.stuck_at(row, col) {
            Some(StuckFault::Bit { bit, level }) => force_bit(data, bit, level),
            Some(StuckFault::Pair { bit_a, bit_b, level }) => {
                force_bit(data, bit_a, level);
                force_bit(data, bit_b, level);
            }
            None => {}
        }
    }

    /// Applies a transient in-transit flip to a block being written to
    /// (`row`, `col`), advancing the bank's write counter.
    pub fn corrupt_write(&mut self, row: u32, col: u32, data: &mut [u8; 32]) {
        self.writes += 1;
        let h = site_hash(
            self.seed,
            domain::CELL_FLIP,
            self.salt,
            (row as u64) << 32 | col as u64,
            self.writes,
        );
        if happens(h, self.flip_rate) {
            let bit = (h % 256) as u16;
            data[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
}

/// What the device-level injector decided for one all-bank data column
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnFault {
    /// Deliver the command normally.
    None,
    /// The command is silently lost (no triggers, no data movement).
    Drop,
    /// A write's payload has the given bit flipped in transit.
    CorruptBit(u16),
    /// A spurious mode-machine glitch: unit sequencers reset as if
    /// `PIM_OP_MODE` had been rewritten.
    Glitch,
}

/// Per-channel device-fault state, installed into `pim-core`'s channel
/// model. Decisions hash `(seed, channel, command counter)`, so they are
/// identical on every run.
#[derive(Debug, Clone)]
pub struct DeviceFaults {
    seed: u64,
    channel: u64,
    drop_rate: f64,
    corrupt_rate: f64,
    glitch_rate: f64,
    hard_failed: bool,
    stall_penalty: u64,
    cmds: u64,
}

impl DeviceFaults {
    /// Builds the per-channel state for `plan`, or `None` when the plan has
    /// no device-level fault classes for this channel.
    pub fn new(plan: &FaultPlan, channel: u64) -> Option<DeviceFaults> {
        let hard_failed = plan.channel_failed(channel as usize);
        let stall_penalty =
            if plan.channel_stalled(channel as usize) { plan.stall_penalty } else { 0 };
        if plan.cmd_drop_rate <= 0.0
            && plan.cmd_corrupt_rate <= 0.0
            && plan.glitch_rate <= 0.0
            && !hard_failed
            && stall_penalty == 0
        {
            return None;
        }
        Some(DeviceFaults {
            seed: plan.seed,
            channel,
            drop_rate: plan.cmd_drop_rate,
            corrupt_rate: plan.cmd_corrupt_rate,
            glitch_rate: plan.glitch_rate,
            hard_failed,
            stall_penalty,
            cmds: 0,
        })
    }

    /// True if this channel never executes PIM work.
    pub fn hard_failed(&self) -> bool {
        self.hard_failed
    }

    /// Extra cycles every accepted command costs on this channel.
    pub fn stall_penalty(&self) -> u64 {
        self.stall_penalty
    }

    /// Rolls the fault decision for the next all-bank data column command.
    /// At most one fault class fires per command (drop > corrupt > glitch).
    pub fn next_column(&mut self) -> ColumnFault {
        self.cmds += 1;
        let n = self.cmds;
        let drop = site_hash(self.seed, domain::CMD_DROP, self.channel, n, 0);
        if happens(drop, self.drop_rate) {
            return ColumnFault::Drop;
        }
        let corrupt = site_hash(self.seed, domain::CMD_CORRUPT, self.channel, n, 0);
        if happens(corrupt, self.corrupt_rate) {
            return ColumnFault::CorruptBit((corrupt % 256) as u16);
        }
        let glitch = site_hash(self.seed, domain::GLITCH, self.channel, n, 0);
        if happens(glitch, self.glitch_rate) {
            return ColumnFault::Glitch;
        }
        ColumnFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            cell_flip_rate: 0.3,
            stuck_cell_rate: 0.2,
            stuck_pair_rate: 0.1,
            cmd_drop_rate: 0.1,
            cmd_corrupt_rate: 0.1,
            glitch_rate: 0.1,
            chan_fail_rate: 0.1,
            chan_stall_rate: 0.1,
            stall_penalty: 16,
        }
    }

    #[test]
    fn quiet_plan_installs_nothing() {
        let p = FaultPlan::quiet(7);
        assert!(p.is_quiet());
        assert!(CellFaults::new(&p, 0).is_none());
        assert!(DeviceFaults::new(&p, 0).is_none());
        assert!(!p.channel_failed(3));
        assert!(!p.channel_stalled(3));
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = busy_plan(42);
        let a = CellFaults::new(&p, 5).unwrap();
        let b = CellFaults::new(&p, 5).unwrap();
        for row in 0..64 {
            for col in 0..32 {
                assert_eq!(a.stuck_at(row, col), b.stuck_at(row, col));
            }
        }
        let mut da = DeviceFaults::new(&p, 2).unwrap();
        let mut db = DeviceFaults::new(&p, 2).unwrap();
        for _ in 0..1000 {
            assert_eq!(da.next_column(), db.next_column());
        }
    }

    #[test]
    fn seeds_and_salts_decorrelate_sites() {
        let p1 = busy_plan(1);
        let p2 = busy_plan(2);
        let count = |f: &CellFaults| {
            (0..256u32)
                .flat_map(|r| (0..32u32).map(move |c| (r, c)))
                .filter(|&(r, c)| f.stuck_at(r, c).is_some())
                .count()
        };
        let a = count(&CellFaults::new(&p1, 0).unwrap());
        let b = count(&CellFaults::new(&p2, 0).unwrap());
        let c = count(&CellFaults::new(&p1, 9).unwrap());
        // ~28% of 8192 sites each; identical counts across seeds/salts
        // would mean the hash ignores them.
        assert!(a > 1500 && b > 1500 && c > 1500);
        let different = |x: usize, y: usize| x != y;
        assert!(different(a, b) || different(a, c));
    }

    #[test]
    fn stuck_pair_stays_within_one_codeword() {
        let mut p = busy_plan(3);
        p.stuck_pair_rate = 1.0;
        let f = CellFaults::new(&p, 0).unwrap();
        for row in 0..32 {
            for col in 0..32 {
                match f.stuck_at(row, col) {
                    Some(StuckFault::Pair { bit_a, bit_b, .. }) => {
                        assert_ne!(bit_a, bit_b, "({row},{col})");
                        assert_eq!(bit_a / 64, bit_b / 64, "({row},{col})");
                    }
                    other => panic!("expected a pair at ({row},{col}), got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn transient_flip_keys_off_write_counter() {
        let mut p = FaultPlan::quiet(11);
        p.cell_flip_rate = 0.5;
        let mut f = CellFaults::new(&p, 1).unwrap();
        let clean = [0u8; 32];
        let mut flipped = 0;
        for _ in 0..200 {
            let mut d = clean;
            f.corrupt_write(10, 3, &mut d);
            if d != clean {
                flipped += 1;
                assert_eq!(d.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
            }
        }
        assert!(flipped > 50 && flipped < 150, "{flipped}/200 writes flipped");
    }

    #[test]
    fn rate_extremes_clamp() {
        assert!(!happens(u64::MAX, 0.0));
        assert!(happens(0, 1.0));
        assert!(happens(u64::MAX, 1.5));
        assert!(!happens(0, -1.0));
    }

    #[test]
    fn failed_and_stalled_channels_come_from_the_plan() {
        let mut p = FaultPlan::quiet(9);
        p.chan_fail_rate = 1.0;
        p.chan_stall_rate = 1.0;
        p.stall_penalty = 8;
        let d = DeviceFaults::new(&p, 4).unwrap();
        assert!(d.hard_failed());
        assert_eq!(d.stall_penalty(), 8);
    }
}
