//! The PIM-HBM pseudo channel: a standard HBM2 channel plus PIM execution
//! units and the SB / AB / AB-PIM operating-mode machinery of Section III.
//!
//! [`PimChannel`] implements [`pim_dram::CommandSink`], so the **unmodified**
//! [`pim_dram::MemoryController`] drives it exactly as it drives a plain
//! channel — the paper's drop-in-replacement property. Everything PIM is
//! expressed through standard DRAM commands:
//!
//! * **Mode transitions** (Fig. 3) are ACT+PRE sequences to reserved rows.
//!   The host enters all-bank mode by activating and precharging the `ABMR`
//!   row, and returns by the same sequence on the `SBMR` row. "This
//!   approach is compatible with any processors adopting JEDEC-compliant
//!   DRAM controllers because it relies on standard DRAM commands"
//!   (Section III-B).
//! * **AB-PIM mode** is toggled by writing the memory-mapped `PIM_OP_MODE`
//!   register.
//! * **Registers are memory-mapped**: writes to the `CRF`/`SRF`/`GRF` rows
//!   program the units; reads of the `GRF` row in single-bank mode read a
//!   specific unit's results back.
//!
//! The channel keeps no mode of its own: it steps a [`ModeWalker`] on every
//! command it accepts and applies the [`Step`] the walker returns, so the
//! protocol above is written once, in `walker.rs`.
//!
//! # The reserved `PIM_CONF` memory map
//!
//! The top rows of every bank are reserved (the PIM device driver never
//! allocates them — the "gray region" of Fig. 3):
//!
//! | row | contents |
//! |---|---|
//! | `0x1FFF` | `ABMR` — ACT+PRE enters all-bank mode |
//! | `0x1FFE` | `SBMR` — ACT+PRE exits to single-bank mode |
//! | `0x1FFD` | `PIM_OP_MODE` — WR with bit 0 set enters AB-PIM |
//! | `0x1FFC` | `CRF` — WR at column c loads CRF words 8c..8c+8 |
//! | `0x1FFB` | `SRF` — WR loads SRF_M (lanes 0–7) and SRF_A (lanes 8–15) |
//! | `0x1FFA` | `GRF` — columns 0–7 map GRF_A[0..8], 8–15 map GRF_B[0..8] |

use crate::config::PimConfig;
use crate::isa::Instruction;
use crate::regfile::{crf_block, crf_block_base, crf_block_words};
use crate::unit::{BankPort, Effects, PimUnit, Sequencer, TriggerKind, UnitStats};
use crate::vector::LaneVec;
use crate::walker::{ModeWalker, Step};
use pim_dram::{
    AllBankClock, BankAddr, Clock, Command, CommandSink, Cycle, DataBlock, IssueError,
    IssueOutcome, PseudoChannel, TimingParams,
};
use pim_faults::{CellFaults, ColumnFault, DeviceFaults, FaultPlan};
use pim_obs::{names, Event, Recorder, Scope};

/// First reserved row of the `PIM_CONF` region.
pub const PIM_CONF_FIRST_ROW: u32 = 0x1FFA;
/// Memory-mapped GRF row.
pub const GRF_ROW: u32 = 0x1FFA;
/// Memory-mapped SRF row.
pub const SRF_ROW: u32 = 0x1FFB;
/// Memory-mapped CRF row.
pub const CRF_ROW: u32 = 0x1FFC;
/// The `PIM_OP_MODE` register row.
pub const PIM_OP_MODE_ROW: u32 = 0x1FFD;
/// The SB-mode-return register row (`SBMR`).
pub const SBMR_ROW: u32 = 0x1FFE;
/// The AB-mode-entry register row (`ABMR`).
pub const ABMR_ROW: u32 = 0x1FFF;

/// The operating mode of a PIM-HBM channel (Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PimMode {
    /// Standard DRAM operation; each command targets one bank. The
    /// power-on mode.
    #[default]
    SingleBank,
    /// All banks respond to every command in lock-step; no PIM execution.
    AllBank,
    /// All-bank operation where every column command triggers one PIM
    /// instruction per unit.
    AllBankPim,
}

impl std::fmt::Display for PimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PimMode::SingleBank => "SB",
            PimMode::AllBank => "AB",
            PimMode::AllBankPim => "AB-PIM",
        })
    }
}

/// The standard-command sequence that enters all-bank mode: ACT then PRE on
/// the `ABMR` row (Fig. 3).
pub fn enter_ab_sequence() -> Vec<Command> {
    let bank = BankAddr::new(0, 0);
    vec![Command::Act { bank, row: ABMR_ROW }, Command::Pre { bank }]
}

/// The sequence that exits all-bank mode back to single-bank mode: ACT then
/// PRE on the `SBMR` row. In AB mode the PRE closes **all** banks, which is
/// exactly the paper's exit requirement ("the host processor precharges
/// (closes) all the open rows of the banks so that there is no row-buffer
/// conflict after the transition").
pub fn exit_ab_sequence() -> Vec<Command> {
    let bank = BankAddr::new(0, 0);
    vec![Command::Act { bank, row: SBMR_ROW }, Command::Pre { bank }]
}

/// The sequence that sets the `PIM_OP_MODE` register to `enable`:
/// ACT of the register row, a WR whose bit 0 carries the value, and PRE.
pub fn set_pim_op_mode_sequence(enable: bool) -> Vec<Command> {
    let bank = BankAddr::new(0, 0);
    let mut data: DataBlock = [0u8; 32];
    data[0] = enable as u8;
    vec![
        Command::Act { bank, row: PIM_OP_MODE_ROW },
        Command::Wr { bank, col: 0, data },
        Command::Pre { bank },
    ]
}

/// Statistics of a PIM channel, feeding the energy model (Fig. 11) and the
/// performance reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PimChannelStats {
    /// SB↔AB↔AB-PIM transitions performed.
    pub mode_transitions: u64,
    /// All-bank ACT commands (each activates 16 banks).
    pub ab_acts: u64,
    /// All-bank precharges.
    pub ab_pres: u64,
    /// Column RD commands in AB / AB-PIM mode.
    pub ab_reads: u64,
    /// Column WR commands in AB / AB-PIM mode.
    pub ab_writes: u64,
    /// Triggers delivered to PIM units (commands × units).
    pub pim_triggers: u64,
    /// Bank blocks read as instruction operands.
    pub bank_operand_reads: u64,
    /// Bank blocks written as instruction results.
    pub bank_result_writes: u64,
    /// Configuration-row register writes.
    pub conf_writes: u64,
    /// Configuration-row register reads.
    pub conf_reads: u64,
}

pim_dram::counter_table!(PimChannelStats {
    mode_transitions,
    ab_acts,
    ab_pres,
    ab_reads,
    ab_writes,
    pim_triggers,
    bank_operand_reads,
    bank_result_writes,
    conf_writes,
    conf_reads,
});

/// A set of one channel's PIM units, one bit per unit (`units_per_pch ≤ 8`):
/// the units whose registers and bank results a launch's caller will read
/// ([`PimChannel::set_live_units`]); a channel nobody told otherwise is
/// [`UnitMask::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitMask(u8);

impl UnitMask {
    /// Every unit.
    pub const ALL: UnitMask = UnitMask(u8::MAX);
    /// No unit.
    pub const NONE: UnitMask = UnitMask(0);

    /// Whether `unit` is in the set.
    pub fn contains(self, unit: usize) -> bool {
        unit < 8 && self.0 >> unit & 1 == 1
    }

    /// Adds `unit` to the set.
    ///
    /// # Panics
    ///
    /// If `unit` is not below the 8 units a pseudo channel can have.
    pub fn insert(&mut self, unit: usize) {
        assert!(unit < 8, "unit {unit} outside a pseudo channel's 8 units");
        self.0 |= 1 << unit;
    }

    /// Whether the set has no unit in it.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl FromIterator<usize> for UnitMask {
    fn from_iter<I: IntoIterator<Item = usize>>(units: I) -> UnitMask {
        let mut mask = UnitMask::NONE;
        for u in units {
            mask.insert(u);
        }
        mask
    }
}

/// A PIM-HBM pseudo channel (see module docs).
#[derive(Debug)]
pub struct PimChannel {
    inner: PseudoChannel,
    config: PimConfig,
    /// The mode machine and the open rows commands resolve against,
    /// stepped by every accepted command and by nothing else.
    walker: ModeWalker,
    units: Vec<PimUnit>,
    /// The units that execute their triggers; the rest retire them from
    /// the instruction alone. See [`PimChannel::set_live_units`].
    live: UnitMask,
    /// Whether every unit holds the same CRF image and the same sequencer
    /// state, so that one unit's sequencer step is every unit's. Checked
    /// when the sequencers are reset together
    /// ([`PimChannel::reset_sequencers`]); an all-bank CRF write and a
    /// trigger keep it, and whatever reaches into one unit drops it.
    lockstep: bool,
    /// The all-bank clock, live in the AB modes.
    ab: AllBankClock,
    stats: PimChannelStats,
    /// Observability hook; `None` (the default) costs one pointer test.
    recorder: Option<Recorder>,
    /// System-level channel index stamped into event scopes.
    channel_id: u16,
    /// Seeded device-fault injector; `None` (the default) keeps the
    /// channel bit-identical to a build without fault support.
    faults: Option<Box<DeviceFaults>>,
}

impl PimChannel {
    /// Creates a PIM-HBM channel.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PimConfig::validate`].
    pub fn new(timing: TimingParams, config: PimConfig) -> PimChannel {
        config.validate().expect("invalid PIM configuration");
        let units = (0..config.units_per_pch).map(|_| PimUnit::new()).collect();
        PimChannel {
            inner: PseudoChannel::new(timing),
            config,
            walker: ModeWalker::new(),
            units,
            live: UnitMask::ALL,
            lockstep: false,
            ab: AllBankClock::default(),
            stats: PimChannelStats::default(),
            recorder: None,
            channel_id: 0,
            faults: None,
        }
    }

    /// Installs the seeded fault state for this channel: the device-level
    /// command injector plus per-bank cell faults. `channel` is the
    /// system-level channel index; it salts every decision so channels
    /// fault independently of one another under one seed.
    pub fn install_faults(&mut self, plan: &FaultPlan, channel: u16) {
        self.faults = DeviceFaults::new(plan, channel as u64).map(Box::new);
        for bank in BankAddr::all() {
            let salt = ((channel as u64) << 8) | bank.flat_index() as u64;
            self.inner.bank_mut(bank).set_faults(CellFaults::new(plan, salt));
        }
    }

    /// Declares which units' results the caller of the launch about to run
    /// will read; [`UnitMask::ALL`] (the default) is full simulation. Meant
    /// to be set for one launch and reset after it — `pim-host`'s engine
    /// does both.
    ///
    /// Everything a launch is *measured* by stays exact on every unit:
    /// each unit still sequences every trigger the channel is handed from
    /// its CRF, is still checked against the device variant in debug
    /// builds, and retires the instruction into `UnitStats` and the
    /// channel's `bank_operand_reads` / `bank_result_writes`, because those follow
    /// from the instruction alone ("timing/energy are data-independent").
    /// The taped replay sequences nothing and visits only the live units:
    /// every unit's instructions were checked when the tape was recorded,
    /// and every sequencer is restored from the tape's end state. What a
    /// unit outside the mask skips is the part nobody will observe: it
    /// fetches no operand, runs no FP16 and writes nothing back, under the
    /// full simulation and both data-replay tiers alike. Its registers and
    /// bank results are therefore *not produced*, and must be rewritten
    /// before they are read; units inside the mask end bit-identical to an
    /// unmasked run.
    ///
    /// The device keeps that promise command by command; what it cannot
    /// promise is that it is handed the commands. `pim-host`'s fast path
    /// serves a channel whose mask is **empty** from a recording without
    /// walking its stream (counters and timing state are applied as
    /// deltas), so such a channel's sequencers, CRF, SRF and GRF are
    /// unspecified after the launch — a cold run's or untouched — until
    /// the next launch arms it. `pim_host::PimSystem::set_live_units`
    /// states the system-level contract.
    ///
    /// A faulted channel must stay all-live: transient cell flips key off
    /// each bank's write counter, so a dead unit's bank traffic is part of
    /// the fault model.
    pub fn set_live_units(&mut self, live: UnitMask) {
        debug_assert!(
            self.faults.is_none() || live == UnitMask::ALL,
            "masking units of a faulted channel changes which cells flip"
        );
        self.live = live;
    }

    /// The units that execute their triggers (see
    /// [`PimChannel::set_live_units`]).
    pub fn live_units(&self) -> UnitMask {
        self.live
    }

    /// Whether this channel's PIM units are hard-failed by the installed
    /// fault plan (they never execute, so PIM results are garbage).
    pub fn hard_failed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.hard_failed())
    }

    /// Attaches an observability recorder; `channel_id` is the system-level
    /// channel index stamped into event scopes.
    pub fn set_recorder(&mut self, recorder: Recorder, channel_id: u16) {
        self.recorder = Some(recorder);
        self.channel_id = channel_id;
    }

    /// Current operating mode.
    pub fn mode(&self) -> PimMode {
        self.walker.mode()
    }

    /// The device configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// PIM channel statistics.
    pub fn stats(&self) -> &PimChannelStats {
        &self.stats
    }

    /// Access to PIM unit `idx` (for result readback in tests and the
    /// energy model's per-unit accounting).
    pub fn unit(&self, idx: usize) -> &PimUnit {
        &self.units[idx]
    }

    /// Number of PIM units on this channel.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The wrapped plain channel (bank contents, HBM-level stats).
    pub fn dram(&self) -> &PseudoChannel {
        &self.inner
    }

    /// Mutable access to the wrapped channel — the software stack's DMA
    /// backdoor for loading tensors ([`pim_dram::Bank::poke_block`]).
    pub fn dram_mut(&mut self) -> &mut PseudoChannel {
        &mut self.inner
    }

    /// Handles a register write at (`row`, `col`) for unit `unit_idx`
    /// (SB mode) or broadcast to all units (`None`, AB modes). An all-bank
    /// `PIM_OP_MODE` write is the walker's [`Step::PimOpMode`], not this;
    /// a single-bank one lands here and is ignored, as the paper's AB-PIM
    /// mode "is proceeded by the AB mode".
    fn conf_write(&mut self, row: u32, col: u32, data: &DataBlock, unit_idx: Option<usize>) {
        self.stats.conf_writes += 1;
        let crf_loads = self.conf_write_regs(row, col, data, unit_idx);
        if crf_loads > 0 {
            if let Some(r) = &self.recorder {
                r.add(names::DEV_CRF_LOADS, crf_loads);
            }
        }
    }

    /// The pure register-file mutation of a non-`PIM_OP_MODE` conf write:
    /// no stats, no recorder, no mode machine. Shared between the full
    /// issue path and the launch-replay data walk. Returns the number of
    /// CRF words loaded (for the issue path's metric). A single-bank write
    /// to a bank whose pair has no unit (a channel of fewer than 8 units)
    /// reaches no register: it is a plain array write.
    fn conf_write_regs(
        &mut self,
        row: u32,
        col: u32,
        data: &DataBlock,
        unit_idx: Option<usize>,
    ) -> u64 {
        let word = LaneVec::from_block(data);
        let targets = match unit_idx {
            Some(u) => self.units.get_mut(u..=u).unwrap_or_default(),
            None => &mut self.units[..],
        };
        match row {
            CRF_ROW => {
                // One decode per word, however many units the write reaches.
                let block = crf_block_words(data).map(|w| (w, Instruction::decode(w).ok()));
                self.lockstep &= unit_idx.is_none();
                for unit in targets.iter_mut() {
                    unit.crf_mut().write_block(crf_block_base(col), &block);
                }
                (block.len() * targets.len()) as u64
            }
            SRF_ROW => {
                for unit in targets {
                    unit.srf_m_mut().load_from_lanes(&word, 0);
                    unit.srf_a_mut().load_from_lanes(&word, 8);
                }
                0
            }
            GRF_ROW => {
                let c = (col as usize) % 16;
                for unit in targets {
                    if c < 8 {
                        unit.grf_a_mut().write(c, word);
                    } else {
                        unit.grf_b_mut().write(c - 8, word);
                    }
                }
                0
            }
            _ => {
                // ABMR/SBMR rows have no data registers; writes are ignored.
                0
            }
        }
    }

    /// Handles a register read at (`row`, `col`) from unit `unit_idx`;
    /// `None` for a register row of a unit the channel does not have,
    /// which reads the bank array like any data row.
    fn conf_read(&mut self, row: u32, col: u32, unit_idx: usize) -> Option<DataBlock> {
        self.stats.conf_reads += 1;
        let unit = self.units.get(unit_idx);
        Some(match (row, unit) {
            (PIM_OP_MODE_ROW, _) => {
                let mut d = [0u8; 32];
                d[0] = (self.walker.mode() == PimMode::AllBankPim) as u8;
                d
            }
            (CRF_ROW | SRF_ROW | GRF_ROW, None) => return None,
            (CRF_ROW, Some(unit)) => {
                let crf = unit.crf();
                crf_block(std::array::from_fn(|i| crf.read_word(crf_block_base(col) + i)))
            }
            (SRF_ROW, Some(unit)) => {
                let mut lanes = [pim_fp16::F16::ZERO; 16];
                for i in 0..8 {
                    lanes[i] = unit.srf_m().read(i);
                    lanes[8 + i] = unit.srf_a().read(i);
                }
                LaneVec::from_lanes(lanes).to_block()
            }
            (GRF_ROW, Some(unit)) => {
                let c = (col as usize) % 16;
                let v = if c < 8 { unit.grf_a().read(c) } else { unit.grf_b().read(c - 8) };
                v.to_block()
            }
            _ => [0u8; 32],
        })
    }

    /// Rolls the per-command fault decision for a data-row column command
    /// in an all-bank mode and applies it to `block`, the burst the command
    /// moves: `None` if the command is dropped, the block with a bit
    /// flipped if it is corrupted. A mode-machine glitch is applied on the
    /// spot: the units' sequencers reset as if `PIM_OP_MODE` had been
    /// rewritten, and the command then proceeds with the corrupted program
    /// state.
    fn roll_column_fault(&mut self, mut block: DataBlock) -> Option<DataBlock> {
        let Some(f) = &mut self.faults else { return Some(block) };
        let fault = f.next_column();
        if fault != ColumnFault::None {
            if let Some(r) = &self.recorder {
                r.add(names::DEV_FAULTS_INJECTED, 1);
            }
        }
        match fault {
            ColumnFault::Drop => return None,
            ColumnFault::CorruptBit(bit) => pim_faults::flip_bit(&mut block, bit),
            ColumnFault::Glitch => self.reset_sequencers(),
            ColumnFault::None => {}
        }
        Some(block)
    }

    /// Restarts every unit's microkernel at CRF entry 0 — what writing 1 to
    /// `PIM_OP_MODE` does on purpose and a mode-machine glitch by accident
    /// — and, the sequencers now being equal, checks whether the CRF
    /// images are too.
    fn reset_sequencers(&mut self) {
        for u in &mut self.units {
            u.reset_sequencer();
        }
        self.lockstep = self.units.windows(2).all(|pair| pair[0].crf() == pair[1].crf());
    }

    /// Delivers a column-command trigger to every PIM unit on the issue
    /// path, and accounts for it.
    fn dispatch_triggers(&mut self, kind: TriggerKind, row: u32, col: u32) {
        // A hard-failed channel's units never execute: triggers arrive but
        // nothing runs and no results are written, so resident outputs stay
        // stale — the wrong-answer signature the runtime quarantines on.
        if self.hard_failed() {
            return;
        }
        let (reads, writes) = self.run_trigger(kind, row, col, &mut InstrSource::Live);
        let n = self.units.len() as u64;
        self.stats.pim_triggers += n;
        self.stats.bank_operand_reads += reads;
        self.stats.bank_result_writes += writes;
        if let Some(r) = &self.recorder {
            r.add(names::DEV_PIM_TRIGGERS, n);
            // Each trigger occupies a unit's pipeline for one column slot
            // (tCCD_L — "each bank can operate at every tCCD_L in AB mode").
            r.add(names::DEV_UNIT_BUSY_CYCLES, n * self.inner.timing().t_ccd_l);
        }
    }

    /// One column-command trigger on every unit in lock-step — the single
    /// datapath loop under the full simulation and both replay tiers. Each
    /// unit's instruction comes from `source`; the issue path counts it
    /// from the instruction alone ([`Effects::of`]). A live unit
    /// ([`PimChannel::set_live_units`]) then executes it: the bank blocks
    /// it reads are fetched at (`row`, `col`) — the open row on the issue
    /// path, so the backdoor peek is what the row buffer would return,
    /// cell faults included — and a bank result is written back the same
    /// way. Returns the operand-read and result-write counts for the issue
    /// path to add to its statistics (zero on a replay).
    ///
    /// While the units are in lock-step (`self.lockstep`) the sequencers
    /// run once: unit 0 resolves the trigger and the others
    /// [`PimUnit::follow`] it, so a unit outside the mask costs its
    /// counters and no more. A taped trigger counts and sequences nothing,
    /// so there a dead unit costs one mask test: only the live units' tape
    /// slots are read.
    fn run_trigger(
        &mut self,
        kind: TriggerKind,
        row: u32,
        col: u32,
        source: &mut InstrSource<'_>,
    ) -> (u64, u64) {
        let (mut reads, mut writes) = (0, 0);
        let (live, lockstep) = (self.live, self.lockstep);
        // Only the issue path counts; a replay's recorded delta has it all.
        let counted = matches!(source, InstrSource::Live);
        let taped = matches!(source, InstrSource::Play(..));
        // The instruction a unit resolved, what retiring it counts for and
        // the loop counters resolving it moved — unit 0's for every unit
        // once it has `led`.
        let (mut instr, mut retired, mut jumped) = (None, UnitStats::default(), 0);
        let mut led = false;
        for u in 0..self.units.len() {
            // Nothing to count or sequence: a dead unit is done with a tape.
            if taped && !live.contains(u) {
                continue;
            }
            let (before, rest) = self.units.split_at_mut(u);
            let unit = &mut rest[0];
            match source {
                InstrSource::Play(tape, next) => instr = tape.resolved[*next + u],
                _ if led => unit.follow(&before[0], jumped),
                _ => {
                    (instr, jumped) = unit.lead();
                    if let (true, Some(instr)) = (counted, instr) {
                        retired = Effects::of(&instr, &kind).retired();
                    }
                    led = lockstep;
                }
            }
            if let InstrSource::Record(tape) = source {
                tape.resolved.push(instr);
            }
            let Some(instr) = instr else { continue };
            // Cross-check the static verifier's contract: any instruction
            // the unit actually executes must be legal on this variant. A
            // failure here means a program bypassed `pim-verify` (or the
            // verifier has a soundness hole) — debug builds stop at the
            // first dynamic violation.
            #[cfg(debug_assertions)]
            if let Err(e) = self.config.instruction_legal(&instr) {
                panic!("unit {u} executed an illegal instruction `{instr}`: {e}");
            }
            if counted {
                unit.retire(&retired);
                reads += retired.bank_reads;
                writes += retired.bank_writes;
            }
            if !live.contains(u) {
                continue;
            }
            let bank_at =
                |port| BankAddr::from_flat_index(2 * u + usize::from(port == BankPort::Odd));
            let inner = &self.inner;
            let bank_write = unit.dataflow(
                instr,
                kind,
                col,
                #[inline(always)]
                |port| LaneVec::from_block(&inner.bank(bank_at(port)).peek_block(row, col)),
            );
            if let Some((port, v)) = bank_write {
                self.inner.bank_mut(bank_at(port)).poke_block(row, col, &v.to_block());
            }
        }
        // The tape moves on by every unit's slot at once.
        if let InstrSource::Play(_, next) = source {
            *next += self.units.len();
        }
        (reads, writes)
    }

    /// Accepts or refuses `cmd` on the all-bank clock — against the
    /// walker's open row, which every bank shares, whatever BA/BG the
    /// command names — and advances the clock for an accepted command:
    /// step one of [`CommandSink::issue`] in an all-bank mode.
    fn accept_ab(&mut self, cmd: &Command, cycle: Cycle) -> Result<IssueOutcome, IssueError> {
        let earliest = self.ab.earliest(cmd, cycle);
        if cycle < earliest {
            return Err(IssueError::TooEarly { earliest });
        }
        let open = self.walker.open_row(BankAddr::new(0, 0)).is_some();
        let t = self.inner.timing();
        let data_at = match cmd {
            Command::Act { .. } if open => return Err(IssueError::BankAlreadyOpen),
            Command::Ref if open => return Err(IssueError::BanksOpenOnRefresh),
            Command::Pre { .. } | Command::PreAll | Command::Rd { .. } | Command::Wr { .. }
                if !open =>
            {
                return Err(IssueError::BankNotOpen)
            }
            Command::Rd { .. } => {
                self.stats.ab_reads += 1;
                Some(cycle + t.t_cl + t.t_bl)
            }
            Command::Wr { .. } => {
                self.stats.ab_writes += 1;
                Some(cycle + t.t_wl + t.t_bl)
            }
            _ => None,
        };
        self.ab.advance(cmd, cycle, t);
        Ok(IssueOutcome { issued_at: cycle, data: None, data_at })
    }

    /// What an accepted ACT / PRE / PREA / REF does beyond the clock that
    /// accepted it, the mode machine having moved from `before`: an
    /// all-bank row command reaches every bank, and the PREs that enter
    /// and leave all-bank mode hand the clocks over.
    fn row_management(&mut self, cmd: &Command, before: PimMode, cycle: Cycle) {
        let (was_sb, is_sb) =
            (before == PimMode::SingleBank, self.walker.mode() == PimMode::SingleBank);
        match *cmd {
            Command::Act { row, .. } if !was_sb => {
                self.inner.all_bank_activate(row, cycle);
                self.stats.ab_acts += 1;
            }
            Command::Pre { .. } | Command::PreAll if !was_sb => {
                self.inner.all_bank_precharge(cycle);
                self.stats.ab_pres += 1;
                if is_sb {
                    self.ab.exit(self.inner.clock_mut());
                }
            }
            Command::Pre { bank } if !is_sb => {
                assert!(
                    self.inner.all_banks_closed(),
                    "entering all-bank mode requires all banks precharged \
                     (the PIM executor must close open rows first)"
                );
                self.ab = AllBankClock::enter(self.inner.clock(), bank, cycle);
            }
            _ => {}
        }
    }

    /// The launch-memoization fingerprint: the channel's clock seen from
    /// `now` ([`Clock::seen_from`]), or `None` if the channel is not in a
    /// replay-safe configuration (an all-bank mode, a pending mode
    /// transition, an installed fault plan, or an open row).
    ///
    /// Two channels with equal fingerprints execute any launch command
    /// stream with identical relative issue cycles, identical stats deltas,
    /// and identical mode choreography — which is what lets a recorded
    /// launch be replayed as a pure state delta.
    pub fn launch_fingerprint(&self, now: Cycle) -> Option<Clock> {
        let quiescent = self.walker.mode() == PimMode::SingleBank && !self.walker.armed();
        (quiescent && self.faults.is_none() && self.inner.all_banks_closed())
            .then(|| self.inner.clock().seen_from(now))
    }

    /// Re-anchors a recorded end-of-launch fingerprint at `now` (the
    /// replayed launch's end cycle).
    pub fn restore_clock(&mut self, now: Cycle, seen: &Clock) {
        debug_assert!(self.inner.all_banks_closed() && seen.all_closed());
        *self.inner.clock_mut() = seen.at(now);
    }

    /// Snapshot of every monotone counter a launch advances: device stats,
    /// per-unit stats, wrapped-channel stats, and per-bank open-row
    /// residency. Two snapshots around a launch subtract to the launch's
    /// accounting delta ([`LaunchAccounting::delta_since`]), which
    /// [`PimChannel::apply_accounting`] replays onto a warm channel.
    pub fn launch_accounting(&self, now: Cycle) -> LaunchAccounting {
        LaunchAccounting {
            stats: self.stats,
            units: self.units.iter().map(|u| *u.stats()).collect(),
            dram: self.inner.stats().clone(),
            bank_open_cycles: BankAddr::all().map(|b| self.inner.open_cycles(b, now)).collect(),
        }
    }

    /// Adds a recorded launch's accounting delta into this channel's
    /// counters without simulating the commands that produced it.
    pub fn apply_accounting(&mut self, delta: &LaunchAccounting) {
        self.stats.merge(&delta.stats);
        for (u, du) in self.units.iter_mut().zip(&delta.units) {
            u.stats_mut().merge(du);
        }
        self.inner.merge_stats(&delta.dram);
        for (i, b) in BankAddr::all().enumerate() {
            self.inner.bank_mut(b).add_open_cycles(delta.bank_open_cycles[i]);
        }
    }

    /// Replays the **data** (functional) effects of a recorded launch
    /// command stream and compiles a [`DataTape`] for later replays of the
    /// same launch: bank storage, unit register files, and unit sequencer
    /// state are updated — nothing else. Timing horizons, stats, and the
    /// mode machine are untouched (the caller restores those from the
    /// recorded deltas), so the channel ends bit-identical to a full
    /// simulation of the same stream — on the units of
    /// [`PimChannel::set_live_units`]; the tape itself covers every unit
    /// and is valid under any later mask.
    ///
    /// The stream must be a complete launch (it returns the device to
    /// single-bank mode) previously validated by a full cold run; the
    /// walker assumes legality rather than re-checking it. Requires a
    /// fault-free channel — fault hooks fire on the issue path this walk
    /// bypasses.
    pub fn replay_data_recording<'a, I>(&mut self, cmds: I) -> DataTape
    where
        I: IntoIterator<Item = &'a Command>,
    {
        let mut tape =
            DataTape { resolved: Vec::new(), units: self.units.len(), end_seq: Vec::new() };
        self.replay_data_walk(cmds, &mut InstrSource::Record(&mut tape));
        tape.end_seq = self.units.iter().map(|u| u.sequencer().clone()).collect();
        tape
    }

    /// Replays the data effects of a recorded launch stream from a
    /// [`DataTape`] compiled by [`PimChannel::replay_data_recording`] on an
    /// identical entry state. The per-trigger instruction resolution was
    /// recorded by the taping pass (control flow in this ISA never depends
    /// on register data, so it recurs exactly), leaving only the FP16
    /// dataflow of the live units to execute. No sequencer is stepped or
    /// reset on the way; each is restored from the recorded end snapshot,
    /// so the channel ends bit-identical to the taping pass.
    ///
    /// # Panics
    ///
    /// If the tape was compiled for another unit count, or the stream's
    /// triggers do not use up the tape exactly.
    pub fn replay_data_taped<'a, I>(&mut self, cmds: I, tape: &DataTape)
    where
        I: IntoIterator<Item = &'a Command>,
    {
        assert_eq!(tape.units, self.units.len(), "tape compiled for a different channel shape");
        let mut source = InstrSource::Play(tape, 0);
        self.replay_data_walk(cmds, &mut source);
        if let InstrSource::Play(_, next) = source {
            assert_eq!(next, tape.resolved.len(), "tape/stream trigger count diverged");
        }
        for (u, s) in self.units.iter_mut().zip(tape.end_seq.iter()) {
            *u.sequencer_mut() = s.clone();
        }
        self.lockstep = false;
    }

    /// The walk behind both replay entry points: step the mode machine
    /// ([`ModeWalker`]), then apply the step's effect to storage.
    fn replay_data_walk<'a, I>(&mut self, cmds: I, source: &mut InstrSource<'_>)
    where
        I: IntoIterator<Item = &'a Command>,
    {
        debug_assert!(self.faults.is_none(), "replay_data on a faulted channel");
        debug_assert_eq!(self.walker.mode(), PimMode::SingleBank);
        let mut walker = ModeWalker::new();
        for cmd in cmds {
            let step = walker.step(cmd);
            match *cmd {
                Command::Rd { col, .. } => {
                    if let Step::Trigger { row } = step {
                        self.run_trigger(TriggerKind::Read, row, col, source);
                    }
                }
                Command::Wr { bank, col, ref data } => match step {
                    Step::SbWrite { row } => self.inner.bank_mut(bank).poke_block(row, col, data),
                    Step::ConfWrite { row, unit } => {
                        // The single-bank issue path stores the block *and*
                        // decodes the register write.
                        if unit.is_some() {
                            self.inner.bank_mut(bank).poke_block(row, col, data);
                        }
                        self.conf_write_regs(row, col, data, unit);
                    }
                    Step::PimOpMode { enable: true, toggled: true } => {
                        // Recording a tape is only legal for programs whose
                        // trigger schedule is statically derivable; the fast
                        // path proves this before calling us.
                        #[cfg(debug_assertions)]
                        if matches!(source, InstrSource::Record(_)) {
                            for u in &self.units {
                                debug_assert!(
                                    crate::schedule::StaticSchedule::of_crf(
                                        u.crf(),
                                        crate::schedule::DEFAULT_SCHEDULE_BUDGET,
                                    )
                                    .is_ok(),
                                    "taping an unprovable CRF program"
                                );
                            }
                        }
                        // A tape needs no sequencer; `replay_data_taped` restores them.
                        if !matches!(source, InstrSource::Play(..)) {
                            self.reset_sequencers();
                        }
                    }
                    Step::AbWrite { row } => {
                        for b in BankAddr::all() {
                            self.inner.bank_mut(b).poke_block(row, col, data);
                        }
                    }
                    Step::Trigger { row } => {
                        let wdata = LaneVec::from_block(data);
                        self.run_trigger(TriggerKind::Write(wdata), row, col, source);
                    }
                    Step::PimOpMode { .. }
                    | Step::Read { .. }
                    | Step::Unresolved
                    | Step::RowManagement => {}
                },
                _ => {}
            }
        }
        debug_assert_eq!(walker.mode(), PimMode::SingleBank, "replayed stream must exit AB mode");
    }
}

/// A compiled launch data tape: for every AB-PIM trigger of a recorded
/// launch stream, the instruction each unit's sequencer resolved, plus the
/// sequencer end state. Compiled by [`PimChannel::replay_data_recording`]
/// (which runs the full unit machinery once) and consumed by
/// [`PimChannel::replay_data_taped`]. Valid only for replays starting from
/// the same fingerprinted entry state the recording pass started from —
/// the launch cache guarantees exactly that.
#[derive(Debug, Clone)]
pub struct DataTape {
    /// `triggers × units` resolved instructions, trigger-major. `None`
    /// means the unit was halted and the trigger had no effect on it.
    resolved: Vec<Option<Instruction>>,
    units: usize,
    /// Per-unit sequencer state at the end of the recorded stream.
    end_seq: Vec<Sequencer>,
}

/// Where a trigger's per-unit instructions come from.
enum InstrSource<'a> {
    /// The units' live sequencers, on the issue path: unit statistics
    /// advance.
    Live,
    /// The live sequencers, logging every resolved instruction onto a tape.
    Record(&'a mut DataTape),
    /// A compiled tape and the index of its next unplayed instruction.
    Play(&'a DataTape, usize),
}

/// Snapshot of the monotone counters a launch advances on one channel; see
/// [`PimChannel::launch_accounting`]. As a *delta* (the field-wise
/// difference of two snapshots) it is the accounting payload of a cached
/// launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchAccounting {
    stats: PimChannelStats,
    units: Vec<UnitStats>,
    dram: pim_dram::ChannelStats,
    bank_open_cycles: Vec<u64>,
}

impl LaunchAccounting {
    /// The field-wise difference `self - start` (both snapshots of the same
    /// channel, `start` taken earlier).
    pub fn delta_since(&self, start: &LaunchAccounting) -> LaunchAccounting {
        LaunchAccounting {
            stats: self.stats.since(&start.stats),
            units: self.units.iter().zip(&start.units).map(|(a, b)| a.since(b)).collect(),
            dram: self.dram.since(&start.dram),
            bank_open_cycles: self
                .bank_open_cycles
                .iter()
                .zip(&start.bank_open_cycles)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl CommandSink for PimChannel {
    fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle {
        match self.walker.mode() {
            PimMode::SingleBank => self.inner.earliest_issue(cmd, now),
            _ => self.ab.earliest(cmd, now),
        }
    }

    /// Three steps: accept or refuse `cmd` under the current mode — a
    /// refused command leaves everything, the mode machine included, where
    /// it was; step the walker; apply what the walker classified the
    /// command as, in either mode.
    fn issue(&mut self, cmd: &Command, cycle: Cycle) -> Result<IssueOutcome, IssueError> {
        let before = self.walker.mode();
        let sb = before == PimMode::SingleBank;
        let mut outcome =
            if sb { self.inner.issue(cmd, cycle)? } else { self.accept_ab(cmd, cycle)? };
        let step = self.walker.step(cmd);
        let (bank, col, wdata) = match *cmd {
            Command::Rd { bank, col } => (bank, col, None),
            Command::Wr { bank, col, ref data } => (bank, col, Some(data)),
            _ => (BankAddr::new(0, 0), 0, None),
        };
        match (step, wdata) {
            (Step::RowManagement, _) => self.row_management(cmd, before, cycle),
            (Step::Read { row }, _) if row >= PIM_CONF_FIRST_ROW => {
                // One unit per even/odd bank pair; all-bank reads unit 0.
                let unit = if sb { bank.flat_index() / 2 } else { 0 };
                if let Some(data) = self.conf_read(row, col, unit) {
                    outcome.data = Some(data);
                }
            }
            (Step::ConfWrite { row, unit }, Some(data)) => self.conf_write(row, col, data, unit),
            (Step::PimOpMode { enable, toggled }, _) => {
                self.stats.conf_writes += 1;
                if enable && toggled {
                    self.reset_sequencers();
                }
            }
            (Step::Read { .. }, _) if !sb => {
                // Lock-step read: the host observes bank (0,0); a dropped
                // read returns an empty burst.
                let data = self.inner.bank(BankAddr::new(0, 0)).read_block(col);
                outcome.data = Some(self.roll_column_fault(data).unwrap_or_default());
            }
            (Step::AbWrite { .. }, Some(data)) => {
                // Broadcast write: the same block lands in every bank — how
                // the software stack replicates shared operands across
                // banks in one command.
                if let Some(block) = self.roll_column_fault(*data) {
                    for b in BankAddr::all() {
                        self.inner.bank_mut(b).write_block(col, &block);
                    }
                }
            }
            (Step::Trigger { row }, None) => {
                // The RD triggers PIM execution; no data crosses the
                // external I/O ("the AB-PIM mode does not consume power for
                // transferring data from the bank I/O all the way to the
                // I/O circuits", Section III-B).
                if self.roll_column_fault(DataBlock::default()).is_some() {
                    self.dispatch_triggers(TriggerKind::Read, row, col);
                }
                outcome.data_at = Some(cycle);
            }
            (Step::Trigger { row }, Some(data)) => {
                // The WR's block rides the write datapath into the units as
                // the WDATA operand; the array itself is not written
                // (instructions write banks explicitly).
                if let Some(block) = self.roll_column_fault(*data) {
                    let wdata = LaneVec::from_block(&block);
                    self.dispatch_triggers(TriggerKind::Write(wdata), row, col);
                }
            }
            // A single-bank data access: the channel already read or stored
            // the block.
            _ => {}
        }
        if let Some(p) = self.faults.as_ref().map(|f| f.stall_penalty()).filter(|&p| p > 0) {
            // A stall-degraded channel: every accepted command pushes the
            // timing horizons out by the penalty.
            match self.walker.mode() {
                PimMode::SingleBank => self.inner.clock_mut().quiesce_until(cycle + p),
                _ => self.ab.quiesce_until(cycle + p),
            }
        }
        let after = self.walker.mode();
        if after != before {
            self.stats.mode_transitions += 1;
            if let Some(r) = &self.recorder {
                r.add(names::DEV_MODE_TRANSITIONS, 1);
                r.emit(Event::instant(
                    cycle,
                    format!("{before}->{after}"),
                    names::CAT_MODE,
                    Scope::channel(self.channel_id),
                ));
            }
        }
        Ok(outcome)
    }

    fn open_row(&self, bank: BankAddr) -> Option<u32> {
        self.walker.open_row(bank)
    }

    fn timing(&self) -> &TimingParams {
        self.inner.timing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, Operand};

    /// Issues a command sequence back-to-back at the earliest legal cycles.
    fn run(ch: &mut PimChannel, cmds: &[Command], mut now: Cycle) -> Cycle {
        for c in cmds {
            let at = ch.earliest_issue(c, now);
            ch.issue(c, at).unwrap_or_else(|e| panic!("{c} at {at}: {e}"));
            now = at;
        }
        now
    }

    fn fresh() -> PimChannel {
        PimChannel::new(TimingParams::hbm2(), PimConfig::paper())
    }

    #[test]
    fn starts_in_single_bank_mode_as_plain_hbm() {
        let mut ch = fresh();
        assert_eq!(ch.mode(), PimMode::SingleBank);
        // Plain DRAM traffic works untouched.
        let b = BankAddr::new(1, 2);
        run(
            &mut ch,
            &[
                Command::Act { bank: b, row: 10 },
                Command::Wr { bank: b, col: 3, data: [7; 32] },
                Command::Rd { bank: b, col: 3 },
            ],
            0,
        );
        assert_eq!(ch.dram().bank(b).peek_block(10, 3), [7; 32]);
    }

    #[test]
    fn abmr_sequence_enters_ab_mode() {
        let mut ch = fresh();
        run(&mut ch, &enter_ab_sequence(), 0);
        assert_eq!(ch.mode(), PimMode::AllBank);
        assert_eq!(ch.stats().mode_transitions, 1);
    }

    #[test]
    fn sbmr_sequence_exits_ab_mode() {
        let mut ch = fresh();
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let _ = run(&mut ch, &exit_ab_sequence(), now);
        assert_eq!(ch.mode(), PimMode::SingleBank);
        assert!(ch.dram().all_banks_closed());
    }

    #[test]
    fn plain_act_pre_does_not_transition() {
        let mut ch = fresh();
        let b = BankAddr::new(0, 0);
        run(&mut ch, &[Command::Act { bank: b, row: 5 }, Command::Pre { bank: b }], 0);
        assert_eq!(ch.mode(), PimMode::SingleBank);
    }

    #[test]
    fn intervening_column_cancels_pending_transition() {
        let mut ch = fresh();
        let b = BankAddr::new(0, 0);
        run(
            &mut ch,
            &[
                Command::Act { bank: b, row: ABMR_ROW },
                Command::Rd { bank: b, col: 0 },
                Command::Pre { bank: b },
            ],
            0,
        );
        assert_eq!(ch.mode(), PimMode::SingleBank);
    }

    #[test]
    fn ab_mode_broadcast_write_reaches_all_banks() {
        let mut ch = fresh();
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let b = BankAddr::new(0, 0);
        run(
            &mut ch,
            &[
                Command::Act { bank: b, row: 4 },
                Command::Wr { bank: b, col: 2, data: [0xCD; 32] },
                Command::Pre { bank: b },
            ],
            now,
        );
        for bank in BankAddr::all() {
            assert_eq!(ch.dram().bank(bank).peek_block(4, 2), [0xCD; 32], "{bank}");
        }
    }

    #[test]
    fn ab_mode_columns_pace_at_tccd_l() {
        let mut ch = fresh();
        let t = ch.timing().clone();
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let b = BankAddr::new(0, 0);
        let now = run(&mut ch, &[Command::Act { bank: b, row: 0 }], now);
        let first = ch.earliest_issue(&Command::Rd { bank: b, col: 0 }, now);
        ch.issue(&Command::Rd { bank: b, col: 0 }, first).unwrap();
        let second = ch.earliest_issue(&Command::Rd { bank: b, col: 1 }, first);
        assert_eq!(second, first + t.t_ccd_l);
    }

    #[test]
    fn pim_op_mode_toggles_ab_pim() {
        let mut ch = fresh();
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
        assert_eq!(ch.mode(), PimMode::AllBankPim);
        let _ = run(&mut ch, &set_pim_op_mode_sequence(false), now);
        assert_eq!(ch.mode(), PimMode::AllBank);
    }

    #[test]
    fn pim_op_mode_ignored_in_sb_mode() {
        let mut ch = fresh();
        run(&mut ch, &set_pim_op_mode_sequence(true), 0);
        assert_eq!(ch.mode(), PimMode::SingleBank);
    }

    /// End-to-end: program a broadcast-MOV microkernel through memory-mapped
    /// CRF writes, run it with RD triggers, and read results back per unit
    /// in SB mode — entirely with standard DRAM commands.
    #[test]
    fn full_pim_round_trip_with_standard_commands() {
        let mut ch = fresh();
        let b = BankAddr::new(0, 0);

        // Seed distinct data in every even bank at row 1, col 0 (SB mode
        // writes — the "weights" the kernel will read).
        for u in 0..8u8 {
            let bank = BankAddr::from_flat_index(2 * u as usize);
            let block = LaneVec::from_f32([u as f32 + 1.0; 16]).to_block();
            ch.dram_mut().bank_mut(bank).poke_block(1, 0, &block);
        }

        // Enter AB mode; program the CRF: MOV GRF_A[0] <- EVEN_BANK; EXIT.
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let prog = [
            Instruction::Mov {
                dst: Operand::grf_a(0),
                src: Operand::even_bank(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ];
        let crf_block = crate::conf::crf_blocks(&prog)[0];
        let now = run(
            &mut ch,
            &[
                Command::Act { bank: b, row: CRF_ROW },
                Command::Wr { bank: b, col: 0, data: crf_block },
                Command::Pre { bank: b },
            ],
            now,
        );

        // Enter AB-PIM and fire one RD trigger on data row 1.
        let now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
        let now = run(
            &mut ch,
            &[
                Command::Act { bank: b, row: 1 },
                Command::Rd { bank: b, col: 0 },
                Command::Pre { bank: b },
            ],
            now,
        );
        assert_eq!(ch.stats().pim_triggers, 8);

        // Leave PIM, return to SB, and read unit 3's GRF_A[0] back through
        // the memory-mapped GRF row of bank 6 (unit 3's even bank).
        let now = run(&mut ch, &set_pim_op_mode_sequence(false), now);
        let now = run(&mut ch, &exit_ab_sequence(), now);
        assert_eq!(ch.mode(), PimMode::SingleBank);
        let bank6 = BankAddr::from_flat_index(6);
        let mut got = None;
        let cmds = [
            Command::Act { bank: bank6, row: GRF_ROW },
            Command::Rd { bank: bank6, col: 0 },
            Command::Pre { bank: bank6 },
        ];
        let mut t = now;
        for c in &cmds {
            let at = ch.earliest_issue(c, t);
            let out = ch.issue(c, at).unwrap();
            if out.data.is_some() {
                got = out.data;
            }
            t = at;
        }
        let v = LaneVec::from_block(&got.unwrap());
        assert_eq!(v.to_f32(), [4.0; 16], "unit 3 loaded even bank 6's value 3+1");
    }

    /// Units whose CRFs were loaded apart (single-bank CRF writes) resolve
    /// different instructions off one command, and each is counted as its
    /// own instruction — the effects shared across lock-step units are
    /// shared only between equal instructions — whether or not it is live.
    #[test]
    fn units_with_different_programs_retire_their_own_instructions() {
        let mov = |dst, src| Instruction::Mov { dst, src, relu: false, aam: false };
        let programs = [
            vec![mov(Operand::grf_a(0), Operand::even_bank())],
            vec![Instruction::Add {
                dst: Operand::grf_a(1),
                src0: Operand::odd_bank(),
                src1: Operand::grf_b(0),
                aam: false,
            }],
            vec![mov(Operand::even_bank(), Operand::grf_a(0))],
            vec![Instruction::Fill { dst: Operand::grf_b(2), src: Operand::wdata(), aam: false }],
            vec![mov(Operand::grf_a(0), Operand::even_bank())],
        ];
        let per_trigger: [UnitStats; 5] = [
            UnitStats { instructions: 1, bank_reads: 1, ..UnitStats::default() },
            UnitStats { instructions: 1, flops: 16, bank_reads: 1, ..UnitStats::default() },
            UnitStats { instructions: 1, bank_writes: 1, ..UnitStats::default() },
            UnitStats { instructions: 1, wdata_on_read: 1, ..UnitStats::default() },
            UnitStats { instructions: 1, bank_reads: 1, ..UnitStats::default() },
        ];
        for live in [UnitMask::ALL, UnitMask::NONE, [1, 4].into_iter().collect()] {
            let mut ch = fresh();
            ch.set_live_units(live);
            let mut now = 0;
            for (u, prog) in programs.iter().enumerate() {
                let bank = BankAddr::from_flat_index(2 * u);
                let data = crate::conf::crf_blocks(prog)[0];
                let load = [
                    Command::Act { bank, row: CRF_ROW },
                    Command::Wr { bank, col: 0, data },
                    Command::Pre { bank },
                ];
                now = run(&mut ch, &load, now);
            }
            let b = BankAddr::new(0, 0);
            now = run(&mut ch, &enter_ab_sequence(), now);
            now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
            // One RD trigger: every program is one instruction, then EXIT.
            let trigger = [
                Command::Act { bank: b, row: 1 },
                Command::Rd { bank: b, col: 0 },
                Command::Pre { bank: b },
            ];
            run(&mut ch, &trigger, now);
            for (u, want) in per_trigger.iter().enumerate() {
                assert_eq!(ch.unit(u).stats(), want, "unit {u} under {live:?}");
            }
            for u in 5..8 {
                assert_eq!(ch.unit(u).stats(), &UnitStats::default(), "unit {u} holds EXIT");
            }
            assert_eq!(ch.stats().pim_triggers, 8);
            assert_eq!((ch.stats().bank_operand_reads, ch.stats().bank_result_writes), (3, 1));
        }
    }

    #[test]
    fn ab_pim_rd_returns_no_external_data() {
        let mut ch = fresh();
        let b = BankAddr::new(0, 0);
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
        let now = run(&mut ch, &[Command::Act { bank: b, row: 0 }], now);
        let at = ch.earliest_issue(&Command::Rd { bank: b, col: 0 }, now);
        let out = ch.issue(&Command::Rd { bank: b, col: 0 }, at).unwrap();
        assert_eq!(out.data, None, "AB-PIM reads do not drive the external I/O");
    }

    #[test]
    fn srf_row_write_loads_both_files() {
        let mut ch = fresh();
        let b = BankAddr::new(0, 0);
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let mut vals = [0.0f32; 16];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as f32 * 0.5;
        }
        let block = LaneVec::from_f32(vals).to_block();
        run(
            &mut ch,
            &[
                Command::Act { bank: b, row: SRF_ROW },
                Command::Wr { bank: b, col: 0, data: block },
                Command::Pre { bank: b },
            ],
            now,
        );
        for u in 0..8 {
            assert_eq!(ch.unit(u).srf_m().read(2).to_f32(), 1.0);
            assert_eq!(ch.unit(u).srf_a().read(2).to_f32(), 5.0);
        }
    }

    #[test]
    fn recorder_observes_transitions_crf_and_triggers() {
        let mut ch = fresh();
        let r = Recorder::vec();
        ch.set_recorder(r.clone(), 0);
        let b = BankAddr::new(0, 0);
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        // Program a one-instruction kernel so triggers execute.
        let prog = [
            Instruction::Mov {
                dst: Operand::grf_a(0),
                src: Operand::even_bank(),
                relu: false,
                aam: false,
            },
            Instruction::Exit,
        ];
        let crf_block = crate::conf::crf_blocks(&prog)[0];
        let now = run(
            &mut ch,
            &[
                Command::Act { bank: b, row: CRF_ROW },
                Command::Wr { bank: b, col: 0, data: crf_block },
                Command::Pre { bank: b },
            ],
            now,
        );
        let now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
        let now = run(
            &mut ch,
            &[
                Command::Act { bank: b, row: 1 },
                Command::Rd { bank: b, col: 0 },
                Command::Pre { bank: b },
            ],
            now,
        );
        let now = run(&mut ch, &set_pim_op_mode_sequence(false), now);
        let _ = run(&mut ch, &exit_ab_sequence(), now);

        let m = r.metrics().registry;
        assert_eq!(m.counter(pim_obs::names::DEV_MODE_TRANSITIONS), ch.stats().mode_transitions);
        assert_eq!(m.counter(pim_obs::names::DEV_CRF_LOADS), 8 * 8, "8 words x 8 units");
        assert_eq!(m.counter(pim_obs::names::DEV_PIM_TRIGGERS), 8);
        assert!(m.counter(pim_obs::names::DEV_UNIT_BUSY_CYCLES) > 0);
        let events = r.events().unwrap();
        let modes: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == pim_obs::names::CAT_MODE)
            .map(|e| e.name.as_ref())
            .collect();
        assert_eq!(modes, ["SB->AB", "AB->AB-PIM", "AB-PIM->AB", "AB->SB"]);
    }

    /// One way a CRF entry can change.
    #[derive(Debug, Clone)]
    enum CrfWrite {
        Word { unit: usize, index: usize, word: u32 },
        Program { unit: usize, words: Vec<u32> },
        SbConf { bank: usize, col: u32, words: Vec<u32> },
        AbConf { col: u32, words: Vec<u32> },
    }

    fn any_crf_write() -> impl proptest::prelude::Strategy<Value = CrfWrite> {
        use proptest::prelude::*;
        let block = || proptest::collection::vec(any::<u32>(), 8);
        prop_oneof![
            (0usize..8, 0usize..32, any::<u32>()).prop_map(|(unit, index, word)| CrfWrite::Word {
                unit,
                index,
                word
            }),
            (0usize..8, proptest::collection::vec(any::<u32>(), 0..33))
                .prop_map(|(unit, words)| CrfWrite::Program { unit, words }),
            (0usize..16, 0u32..32, block()).prop_map(|(bank, col, words)| CrfWrite::SbConf {
                bank,
                col,
                words
            }),
            (0u32..32, block()).prop_map(|(col, words)| CrfWrite::AbConf { col, words }),
        ]
    }

    proptest::proptest! {
        /// Whatever writes a CRF word — `write_word`, `load_program`, a
        /// single-bank or an all-bank write to the `CRF` row, in any order
        /// and with arbitrary (mostly undecodable) words — every entry's
        /// predecoded instruction is the decode of the word it holds, and
        /// the words are the ones a plain model of the four paths predicts.
        #[test]
        fn crf_entries_stay_predecoded_under_every_write_path(
            writes in proptest::collection::vec(any_crf_write(), 1..24),
        ) {
            let mut ch = fresh();
            let mut model = [[Instruction::Exit.encode(); 32]; 8];
            let mut now = 0;
            for w in writes {
                let conf = |bank, col, words: &[u32]| {
                    let data = crf_block(std::array::from_fn(|i| words[i]));
                    [Command::Act { bank, row: CRF_ROW }, Command::Wr { bank, col, data }, Command::Pre { bank }]
                };
                match w {
                    CrfWrite::Word { unit, index, word } => {
                        ch.units[unit].crf_mut().write_word(index, word);
                        model[unit][index] = word;
                    }
                    CrfWrite::Program { unit, words } => {
                        let program: Vec<Instruction> =
                            words.iter().filter_map(|&w| Instruction::decode(w).ok()).collect();
                        ch.units[unit].crf_mut().load_program(&program);
                        for (i, m) in model[unit].iter_mut().enumerate() {
                            *m = program.get(i).unwrap_or(&Instruction::Exit).encode();
                        }
                    }
                    CrfWrite::SbConf { bank, col, words } => {
                        let bank = BankAddr::from_flat_index(bank);
                        now = run(&mut ch, &conf(bank, col, &words), now);
                        let base = crf_block_base(col);
                        model[bank.flat_index() / 2][base..base + 8].copy_from_slice(&words);
                    }
                    CrfWrite::AbConf { col, words } => {
                        now = run(&mut ch, &enter_ab_sequence(), now);
                        now = run(&mut ch, &conf(BankAddr::new(0, 0), col, &words), now);
                        now = run(&mut ch, &exit_ab_sequence(), now);
                        let base = crf_block_base(col);
                        for m in &mut model {
                            m[base..base + 8].copy_from_slice(&words);
                        }
                    }
                }
                for (u, m) in model.iter().enumerate() {
                    let crf = ch.unit(u).crf();
                    for (i, &word) in m.iter().enumerate() {
                        proptest::prop_assert_eq!(crf.read_word(i), word, "unit {} entry {}", u, i);
                        proptest::prop_assert_eq!(
                            crf.decoded(i),
                            Instruction::decode(word).ok(),
                            "unit {} entry {} word {:#010X}", u, i, word
                        );
                    }
                }
            }
        }
    }

    /// A CRF word as the decoder meets it: any opcode (9–15 decode to
    /// nothing) over random operand fields, half the time with one operand
    /// kind forced to the reserved 7.
    fn any_crf_word() -> impl proptest::prelude::Strategy<Value = u32> {
        use proptest::prelude::*;
        (0u32..16, any::<u32>(), 0usize..6).prop_map(|(opcode, fields, kind7)| {
            let reserved = [25, 22, 19].get(kind7).map_or(0, |shift| 7 << shift);
            opcode << 28 | fields & 0x0FFF_FFFF | reserved
        })
    }

    proptest::proptest! {
        /// One decode per broadcast word is exact: `CRF`-row blocks of such
        /// words, written all-bank or through any of the 16 banks to one
        /// unit, leave every unit's entries decoded as `Instruction::decode`
        /// of the word they hold and equal to a per-unit `Crf::write_word`
        /// model — on the issue path and on both replay tiers.
        #[test]
        fn crf_blocks_decode_once_and_exactly_on_every_path(
            writes in proptest::collection::vec(
                (0usize..17, 0u32..8, proptest::collection::vec(any_crf_word(), 8)),
                1..12,
            ),
        ) {
            let mut model: Vec<crate::regfile::Crf> = vec![Default::default(); 8];
            let mut cmds = Vec::new();
            for (bank, col, words) in writes {
                let words: [u32; 8] = std::array::from_fn(|i| words[i]);
                let at = match bank {
                    16 => BankAddr::new(0, 0),
                    b => BankAddr::from_flat_index(b),
                };
                let write = [
                    Command::Act { bank: at, row: CRF_ROW },
                    Command::Wr { bank: at, col, data: crf_block(words) },
                    Command::Pre { bank: at },
                ];
                let units = match bank {
                    16 => {
                        cmds.extend(enter_ab_sequence());
                        cmds.extend(write);
                        cmds.extend(exit_ab_sequence());
                        0..8
                    }
                    b => {
                        cmds.extend(write);
                        b / 2..b / 2 + 1
                    }
                };
                for crf in &mut model[units] {
                    for (i, &w) in words.iter().enumerate() {
                        crf.write_word(crf_block_base(col) + i, w);
                    }
                }
            }
            let mut issued = fresh();
            run(&mut issued, &cmds, 0);
            let mut recording = fresh();
            let tape = recording.replay_data_recording(&cmds);
            let mut taped = fresh();
            taped.replay_data_taped(&cmds, &tape);
            for (path, ch) in [("issue", &issued), ("recording", &recording), ("taped", &taped)] {
                for (u, want) in model.iter().enumerate() {
                    let crf = ch.unit(u).crf();
                    for i in 0..32 {
                        let word = crf.read_word(i);
                        proptest::prop_assert_eq!(word, want.read_word(i), "{} unit {} entry {}", path, u, i);
                        proptest::prop_assert_eq!(crf.decoded(i), want.decoded(i), "{} unit {} entry {}", path, u, i);
                        proptest::prop_assert_eq!(
                            crf.decoded(i),
                            Instruction::decode(word).ok(),
                            "{} unit {} entry {} word {:#010X}", path, u, i, word
                        );
                    }
                }
            }
        }
    }

    /// One CRF entry of a generated program, before it knows its index.
    type Slot = (u8, u8, u8);

    /// The word `slot` puts at CRF entry `index`: a data instruction of
    /// every counted kind, a multi-cycle NOP, a backward (or self) JUMP —
    /// nested and overlapping loops, all of which terminate — EXIT, or a
    /// word nothing decodes.
    fn slot_word(index: usize, (kind, a, b): Slot) -> u32 {
        let mov = |dst, src, relu| Instruction::Mov { dst, src, relu, aam: false };
        let (ga, gb) = (Operand::grf_a(a % 8), Operand::grf_b(b % 8));
        let (src0, src1) = (Operand::even_bank(), Operand::srf_m(b % 8));
        let instr = match kind % 16 {
            0 => mov(ga, Operand::even_bank(), false),
            1 => mov(Operand::odd_bank(), gb, false),
            2 => mov(gb, Operand::odd_bank(), true),
            3 => Instruction::Add { dst: ga, src0: Operand::odd_bank(), src1: gb, aam: false },
            4 => Instruction::Mul { dst: ga, src0: ga, src1: gb, aam: a & 8 != 0 },
            5 => Instruction::Mac { dst: gb, src0, src1, aam: true },
            6 => Instruction::Mad { dst: ga, src0, src1, aam: false },
            7 => Instruction::Fill { dst: gb, src: Operand::wdata(), aam: false },
            8 | 9 => Instruction::Nop { cycles: 1 + u32::from(a % 5) },
            10..=13 => Instruction::Jump {
                target: (usize::from(a) % (index + 1)) as u8,
                count: u32::from(b % 5),
            },
            14 => Instruction::Exit,
            _ => return 0x7BFF_7BFF,
        };
        instr.encode()
    }

    fn any_slot(kinds: std::ops::Range<u8>) -> impl proptest::prelude::Strategy<Value = Slot> {
        use proptest::prelude::*;
        (kinds, any::<u8>(), any::<u8>())
    }

    /// One event of a generated AB-PIM session.
    #[derive(Debug, Clone)]
    enum Poke {
        /// A column command on the open data row: RD, or WR of `fill` bytes.
        Trigger { col: u32, write: Option<u8> },
        /// An all-bank write to the `CRF` row in the middle of the launch.
        AbCrf { col: u32, slots: Vec<Slot> },
        /// The register side of a single-bank `CRF` write to one unit,
        /// landing while the launch is running.
        UnitCrf { unit: usize, col: u32, slots: Vec<Slot> },
        /// What `ColumnFault::Glitch` does to the sequencers.
        Glitch,
        /// Leave for single-bank mode, load one unit's CRF the way
        /// software does, and enter AB-PIM again.
        Relaunch { unit: usize, col: u32, slots: Vec<Slot> },
    }

    fn any_poke() -> impl proptest::prelude::Strategy<Value = Poke> {
        use proptest::prelude::*;
        let block = || proptest::collection::vec(any_slot(0..16), 8);
        let trigger = || {
            (0u32..32, any::<bool>(), any::<u8>())
                .prop_map(|(col, wr, fill)| Poke::Trigger { col, write: wr.then_some(fill) })
        };
        prop_oneof![
            trigger(),
            trigger(),
            trigger(),
            trigger(),
            trigger(),
            trigger(),
            (0u32..4, block()).prop_map(|(col, slots)| Poke::AbCrf { col, slots }),
            (0usize..8, 0u32..4, block()).prop_map(|(unit, col, slots)| Poke::UnitCrf {
                unit,
                col,
                slots
            }),
            Just(Poke::Glitch),
            (0usize..8, 0u32..4, block()).prop_map(|(unit, col, slots)| Poke::Relaunch {
                unit,
                col,
                slots
            }),
        ]
    }

    fn any_live_mask() -> impl proptest::prelude::Strategy<Value = UnitMask> {
        use proptest::prelude::*;
        prop_oneof![Just(0u8), (0u32..8).prop_map(|u| 1 << u), any::<u8>()]
            .prop_map(|bits| (0..8).filter(|u| bits >> u & 1 == 1).collect())
    }

    proptest::proptest! {
        /// However the units come to sequence a trigger — each from its
        /// own CRF, or following unit 0 while the channel has checked them
        /// to be in lock-step — and whether or not they then execute it,
        /// after every command every unit's sequencer state and statistics
        /// and the channel's bank-port counts are what stepping each unit
        /// on its own gives: `lead`, `Effects::of`, `retire`. CRF
        /// images change under it by every route (all-bank and per-unit
        /// writes, inside a launch and between two), the sequencers are
        /// glitched, and programs halt on EXIT, on an undecodable word and
        /// by running off the end of the CRF.
        #[test]
        fn sequencing_is_exact_dead_or_alive_in_lock_step_or_out_of_it(
            program in proptest::prelude::prop_oneof![
                proptest::collection::vec(any_slot(0..16), 1..33),
                // All 32 entries and nothing that halts: off the end.
                proptest::collection::vec(any_slot(0..14), 32),
            ],
            live in any_live_mask(),
            pokes in proptest::collection::vec(any_poke(), 1..48),
        ) {
            let b = BankAddr::new(0, 0);
            let conf = |bank, col, words: [u32; 8]| {
                let data = crf_block(words);
                [Command::Act { bank, row: CRF_ROW }, Command::Wr { bank, col, data }, Command::Pre { bank }]
            };
            let block_at = |col: u32, slots: &[Slot]| -> [u32; 8] {
                std::array::from_fn(|i| slot_word(crf_block_base(col) + i, slots[i]))
            };
            let mut ch = fresh();
            ch.set_live_units(live);
            let mut model: Vec<PimUnit> = (0..8).map(|_| PimUnit::new()).collect();
            let (mut reads, mut writes) = (0, 0);

            // Load the program all-bank, enter AB-PIM, open a data row.
            let mut words = [Instruction::Exit.encode(); 32];
            for (i, &slot) in program.iter().enumerate() {
                words[i] = slot_word(i, slot);
                if let Ok(instr) = Instruction::decode(words[i]) {
                    proptest::prop_assert!(ch.config().instruction_legal(&instr).is_ok() || instr.is_control(), "{}", instr);
                }
            }
            let mut now = run(&mut ch, &enter_ab_sequence(), 0);
            for col in 0..4 {
                let block = std::array::from_fn(|i| words[8 * col + i]);
                now = run(&mut ch, &conf(b, col as u32, block), now);
            }
            for unit in &mut model {
                for (i, &w) in words.iter().enumerate() {
                    unit.crf_mut().write_word(i, w);
                }
            }
            now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
            now = run(&mut ch, &[Command::Act { bank: b, row: 1 }], now);

            for poke in pokes {
                match poke {
                    Poke::Trigger { col, write } => {
                        let (cmd, kind) = match write {
                            None => (Command::Rd { bank: b, col }, TriggerKind::Read),
                            Some(fill) => (
                                Command::Wr { bank: b, col, data: [fill; 32] },
                                TriggerKind::Write(LaneVec::from_block(&[fill; 32])),
                            ),
                        };
                        now = run(&mut ch, &[cmd], now);
                        for unit in &mut model {
                            if let Some(instr) = unit.lead().0 {
                                let fx = Effects::of(&instr, &kind);
                                unit.retire(&fx.retired());
                                reads += u64::from(fx.bank_read.is_some());
                                writes += u64::from(fx.bank_write.is_some());
                            }
                        }
                    }
                    Poke::AbCrf { col, slots } => {
                        let block = block_at(col, &slots);
                        now = run(&mut ch, &[Command::Pre { bank: b }], now);
                        now = run(&mut ch, &conf(b, col, block), now);
                        now = run(&mut ch, &[Command::Act { bank: b, row: 1 }], now);
                        for unit in &mut model {
                            for (i, w) in block.into_iter().enumerate() {
                                unit.crf_mut().write_word(crf_block_base(col) + i, w);
                            }
                        }
                    }
                    Poke::UnitCrf { unit, col, slots } => {
                        let block = block_at(col, &slots);
                        ch.conf_write_regs(CRF_ROW, col, &crf_block(block), Some(unit));
                        for (i, w) in block.into_iter().enumerate() {
                            model[unit].crf_mut().write_word(crf_block_base(col) + i, w);
                        }
                    }
                    Poke::Glitch => {
                        ch.reset_sequencers();
                        model.iter_mut().for_each(PimUnit::reset_sequencer);
                    }
                    Poke::Relaunch { unit, col, slots } => {
                        let block = block_at(col, &slots);
                        now = run(&mut ch, &[Command::Pre { bank: b }], now);
                        now = run(&mut ch, &set_pim_op_mode_sequence(false), now);
                        now = run(&mut ch, &exit_ab_sequence(), now);
                        now = run(&mut ch, &conf(BankAddr::from_flat_index(2 * unit), col, block), now);
                        now = run(&mut ch, &enter_ab_sequence(), now);
                        now = run(&mut ch, &set_pim_op_mode_sequence(true), now);
                        now = run(&mut ch, &[Command::Act { bank: b, row: 1 }], now);
                        for (i, w) in block.into_iter().enumerate() {
                            model[unit].crf_mut().write_word(crf_block_base(col) + i, w);
                        }
                        model.iter_mut().for_each(PimUnit::reset_sequencer);
                    }
                }
                for (u, want) in model.iter().enumerate() {
                    let got = ch.unit(u);
                    proptest::prop_assert_eq!(got.sequencer(), want.sequencer(), "unit {}", u);
                    proptest::prop_assert_eq!(got.stats(), want.stats(), "unit {}", u);
                }
                let stats = ch.stats();
                proptest::prop_assert_eq!((stats.bank_operand_reads, stats.bank_result_writes), (reads, writes));
            }
        }
    }

    proptest::proptest! {
        /// The static schedule is the unit's, on the images the two
        /// proptests above generate — a slot program with arbitrary CRF
        /// writes over it: `StaticSchedule::derive(..).triggers()` is what
        /// a `PimUnit` executes trigger by trigger (of the first 4096), and
        /// then the unit halts on EXIT or the end of the CRF; `derive` errs
        /// on an undecodable word or an out-of-range JUMP exactly when the
        /// unit halts on that entry, and a schedule that derives never
        /// leaves the unit out of fuel.
        #[test]
        fn the_static_schedule_is_what_the_unit_executes(
            program in proptest::prelude::prop_oneof![
                proptest::collection::vec(any_slot(0..16), 1..33),
                proptest::collection::vec(any_slot(0..14), 32),
            ],
            writes in proptest::collection::vec(any_crf_write(), 0..3),
        ) {
            use crate::schedule::{ScheduleError, StaticSchedule, DEFAULT_SCHEDULE_BUDGET};
            use crate::unit::{Halt, Trigger};
            const SHOWN: usize = 4096;
            let mut image = [Instruction::Exit.encode(); 32];
            for (i, &slot) in program.iter().enumerate() {
                image[i] = slot_word(i, slot);
            }
            for w in writes {
                let (base, words) = match w {
                    CrfWrite::Word { index, word, .. } => (index, vec![word]),
                    CrfWrite::Program { words, .. } => (0, words),
                    CrfWrite::SbConf { col, words, .. } | CrfWrite::AbConf { col, words } => {
                        (crf_block_base(col), words)
                    }
                };
                image[base..base + words.len()].copy_from_slice(&words);
            }
            let mut unit = PimUnit::new();
            for (i, &word) in image.iter().enumerate() {
                unit.crf_mut().write_word(i, word);
            }
            let trigger = Trigger {
                kind: TriggerKind::Read,
                row: 0,
                col: 0,
                even_data: LaneVec::zero(),
                odd_data: LaneVec::zero(),
            };
            let expect = match StaticSchedule::derive(&image, DEFAULT_SCHEDULE_BUDGET) {
                Ok(s) => Ok(s.triggers().take(SHOWN).collect::<Vec<_>>()),
                Err(ScheduleError::Undecodable { index, word }) => {
                    Err(Halt::Undecodable { index, word })
                }
                Err(ScheduleError::JumpTargetOutOfRange { index, target }) => {
                    Err(Halt::JumpTargetOutOfRange { index, target })
                }
                // Past the budget one trigger may fetch up to `FUEL`
                // entries: too slow to step, and the unit need not halt.
                Err(ScheduleError::BudgetExceeded { .. }) => return Ok(()),
            };
            let mut ran = Vec::new();
            while ran.len() < SHOWN {
                let Some(instr) = unit.execute(&trigger).executed else { break };
                ran.push(instr);
            }
            let halted = (ran.len() < SHOWN).then(|| unit.sequencer().halt());
            match expect {
                Ok(want) => {
                    proptest::prop_assert_eq!(&ran, &want);
                    if let Some(halt) = halted {
                        let clean = matches!(halt, Some(Halt::Exit | Halt::EndOfCrf));
                        proptest::prop_assert!(clean, "halted on {:?}", halt);
                    }
                }
                Err(want) => {
                    if let Some(halt) = halted {
                        proptest::prop_assert_eq!(halt, Some(want));
                    }
                }
            }
        }
    }

    /// A command the channel refuses moves nothing: not the mode, not an
    /// open row, not the launch fingerprint — and the channel then goes
    /// on as if it had never been sent.
    #[test]
    fn refused_commands_leave_the_mode_machine_alone() {
        let mut ch = fresh();
        let b = BankAddr::new(0, 0);
        let state = |ch: &PimChannel, now| {
            let open: Vec<_> = BankAddr::all().map(|bank| ch.open_row(bank)).collect();
            (ch.mode(), open, ch.launch_fingerprint(now))
        };
        let refuse = |ch: &mut PimChannel, cmd: Command, at: Cycle, want: IssueError| {
            let before = state(ch, at);
            assert_eq!(ch.issue(&cmd, at), Err(want), "{cmd}");
            assert_eq!(state(ch, at), before, "refused {cmd} moved the channel");
        };
        let late = 1_000_000;
        // Single-bank, every bank closed: the fingerprint is there to move.
        refuse(&mut ch, Command::Pre { bank: b }, 100, IssueError::BankNotOpen);
        refuse(&mut ch, Command::Rd { bank: b, col: 0 }, 100, IssueError::BankNotOpen);
        let now = run(&mut ch, &enter_ab_sequence(), 100);
        // All-bank with `PIM_OP_MODE` open: that WR, had it stepped the
        // walker, would have entered AB-PIM, and that ACT armed the exit.
        let now = run(&mut ch, &[Command::Act { bank: b, row: PIM_OP_MODE_ROW }], now);
        let mut enable = [0u8; 32];
        enable[0] = 1;
        let wr = Command::Wr { bank: b, col: 0, data: enable };
        let earliest = ch.earliest_issue(&wr, now);
        refuse(&mut ch, wr, earliest - 1, IssueError::TooEarly { earliest });
        let act = Command::Act { bank: b, row: SBMR_ROW };
        refuse(&mut ch, act, late, IssueError::BankAlreadyOpen);
        refuse(&mut ch, Command::Ref, late, IssueError::BanksOpenOnRefresh);
        let now = run(&mut ch, &[Command::Pre { bank: b }], now);
        refuse(&mut ch, Command::Pre { bank: b }, late, IssueError::BankNotOpen);
        refuse(&mut ch, Command::Rd { bank: b, col: 0 }, late, IssueError::BankNotOpen);
        assert_eq!(ch.mode(), PimMode::AllBank);
        run(&mut ch, &exit_ab_sequence(), now);
        assert_eq!((ch.mode(), ch.stats().mode_transitions), (PimMode::SingleBank, 2));
        assert_eq!((ch.stats().conf_writes, ch.stats().ab_writes), (0, 0));
    }

    /// §III-A allows fewer units than bank pairs: on a 4-unit channel the
    /// register rows of banks 8–15 are plain array rows. A single-bank
    /// write stores its block and a read returns the bank's, on the issue
    /// path and on the replay walk alike, and no unit's SRF or GRF moves.
    #[test]
    fn register_rows_of_a_bank_without_a_unit_are_plain_array_rows() {
        let config = PimConfig { units_per_pch: 4, ..PimConfig::paper() };
        let fresh4 = || PimChannel::new(TimingParams::hbm2(), config.clone());
        let registers = |ch: &PimChannel| -> Vec<_> {
            let at = |u: usize, i| {
                let unit = ch.unit(u);
                let srf = [unit.srf_m().read(i).to_bits(), unit.srf_a().read(i).to_bits()];
                (srf, unit.grf_a().read(i).to_block(), unit.grf_b().read(i).to_block())
            };
            (0..4).flat_map(|u| (0..8).map(move |i| at(u, i))).collect()
        };
        let (bank8, bank12) = (BankAddr::from_flat_index(8), BankAddr::from_flat_index(12));
        let (block, stored) = ([0x5A; 32], [0xC3; 32]);
        let write = [
            Command::Act { bank: bank8, row: SRF_ROW },
            Command::Wr { bank: bank8, col: 0, data: block },
            Command::Pre { bank: bank8 },
        ];
        let untouched = registers(&fresh4());

        let mut ch = fresh4();
        ch.dram_mut().bank_mut(bank12).poke_block(GRF_ROW, 3, &stored);
        let mut now = run(&mut ch, &write, 0);
        let mut read = None;
        for cmd in [
            Command::Act { bank: bank12, row: GRF_ROW },
            Command::Rd { bank: bank12, col: 3 },
            Command::Pre { bank: bank12 },
        ] {
            now = ch.earliest_issue(&cmd, now);
            read = ch.issue(&cmd, now).unwrap().data.or(read);
        }
        assert_eq!(read, Some(stored), "the GRF row of bank 12 reads its array");
        assert_eq!(ch.dram().bank(bank8).peek_block(SRF_ROW, 0), block);
        assert_eq!(registers(&ch), untouched);

        let mut replayed = fresh4();
        replayed.replay_data_recording(&write);
        assert_eq!(replayed.dram().bank(bank8).peek_block(SRF_ROW, 0), block);
        assert_eq!(registers(&replayed), untouched);
    }

    #[test]
    fn exit_quiesces_sb_timing() {
        let mut ch = fresh();
        let now = run(&mut ch, &enter_ab_sequence(), 0);
        let b = BankAddr::new(0, 0);
        let now = run(
            &mut ch,
            &[
                Command::Act { bank: b, row: 2 },
                Command::Rd { bank: b, col: 0 },
                Command::Pre { bank: b },
            ],
            now,
        );
        let end = run(&mut ch, &exit_ab_sequence(), now);
        // An SB command must not be allowed before AB activity ended.
        let e = ch.earliest_issue(&Command::Act { bank: b, row: 0 }, 0);
        assert!(e >= end, "SB ACT at {e} before AB activity ended at {end}");
    }
}
