//! Property-based equivalence: in single-bank mode, a PIM-HBM channel is
//! observationally identical to a plain HBM2 channel under arbitrary
//! legal traffic — data AND timing. This is the drop-in-replacement
//! property ("the PIM-HBM's technical specifications seen by the host
//! processor ... are precisely the same as conventional HBM2",
//! Section VI), checked over random request streams.

use pim_core::{PimChannel, PimConfig};
use pim_dram::{
    AddressMapping, BankAddr, ControllerConfig, MemoryController, PseudoChannel, Request,
    SchedulingPolicy, TimingParams,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64, u8),
}

/// Addresses below the PIM_CONF rows (ordinary data space).
fn data_addr() -> impl Strategy<Value = u64> {
    let m = AddressMapping::new(16);
    (0u32..64, 0u8..4, 0u8..4, 0u32..8)
        .prop_map(move |(row, bg, ba, col)| m.block_addr(0, BankAddr::new(bg, ba), row, col * 4))
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            data_addr().prop_map(Op::Read),
            (data_addr(), any::<u8>()).prop_map(|(a, v)| Op::Write(a, v)),
        ],
        1..60,
    )
}

fn run_stream<S: pim_dram::CommandSink>(
    mut ctrl: MemoryController<S>,
    stream: &[Op],
) -> Vec<(u64, Option<[u8; 32]>, u64, u64)> {
    for op in stream {
        match op {
            Op::Read(a) => {
                ctrl.enqueue(Request::read(*a));
            }
            Op::Write(a, v) => {
                ctrl.enqueue(Request::write(*a, [*v; 32]));
            }
        }
    }
    ctrl.run_to_completion()
        .into_iter()
        .map(|c| (c.seq, c.data, c.issued_at, c.completed_at))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under both scheduling policies, every observable of the two devices
    /// matches: completion order, data, issue cycles, completion cycles.
    #[test]
    fn sb_mode_is_observationally_hbm2(
        stream in ops(),
        frfcfs in any::<bool>(),
    ) {
        let cfg = ControllerConfig {
            policy: if frfcfs { SchedulingPolicy::FrFcfs } else { SchedulingPolicy::InOrder },
            refresh_enabled: false,
            ..Default::default()
        };
        let plain = MemoryController::with_sink(
            cfg.clone(),
            PseudoChannel::new(TimingParams::hbm2()),
        );
        let pim = MemoryController::with_sink(
            cfg,
            PimChannel::new(TimingParams::hbm2(), PimConfig::paper()),
        );
        let a = run_stream(plain, &stream);
        let b = run_stream(pim, &stream);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Launch streams: the mode-machine walker tracks the device command by
// command, and both data-replay tiers end where the full simulation ends.
// ---------------------------------------------------------------------

use pim_core::isa::{Instruction, Operand};
use pim_core::{conf, DataTape, Halt, ModeWalker, PimMode, Sequencer, Step};
use pim_dram::{Command, CommandSink, DataBlock};

/// Microkernels the generated streams load (entries 0–3): AAM and fixed
/// indexing, bank write-back, WDATA (a stats-only anomaly on RD triggers),
/// MAD's SRF_A addend, JUMP loops (nested), multi-cycle NOPs, and one
/// program that spans two CRF blocks. Entry 4 is the one no generator
/// draws: nested 65 535-count JUMPs, whose trigger schedule does not derive
/// within the budget (the PV301 shape the fast path refuses to record).
fn program_pool() -> Vec<Vec<Instruction>> {
    let mac = |aam| Instruction::Mac {
        dst: Operand::grf_b(0),
        src0: Operand::even_bank(),
        src1: Operand::srf_m(1),
        aam,
    };
    let fill_srf = Instruction::Fill { dst: Operand::srf_m(0), src: Operand::wdata(), aam: false };
    let store = Instruction::Mov {
        dst: Operand::odd_bank(),
        src: Operand::grf_b(0),
        relu: true,
        aam: true,
    };
    let add = Instruction::Add {
        dst: Operand::grf_a(2),
        src0: Operand::grf_b(1),
        src1: Operand::odd_bank(),
        aam: false,
    };
    let mut long = vec![mac(true); 9];
    long.push(store);
    vec![
        vec![mac(true), Instruction::Jump { target: 0, count: 5 }, store, Instruction::Exit],
        vec![
            fill_srf,
            mac(true),
            Instruction::Jump { target: 1, count: 3 },
            Instruction::Jump { target: 0, count: 2 },
            Instruction::Nop { cycles: 3 },
            store,
        ],
        vec![
            Instruction::Nop { cycles: 2 },
            Instruction::Mad {
                dst: Operand::grf_a(0),
                src0: Operand::even_bank(),
                src1: Operand::srf_m(3),
                aam: true,
            },
            add,
            Instruction::Mul {
                dst: Operand::grf_b(3),
                src0: Operand::grf_a(2),
                src1: Operand::wdata(),
                aam: false,
            },
            Instruction::Mov {
                dst: Operand::even_bank(),
                src: Operand::grf_a(0),
                relu: false,
                aam: true,
            },
            Instruction::Jump { target: 1, count: 4 },
        ],
        long,
        vec![
            Instruction::Nop { cycles: 1 },
            Instruction::Jump { target: 0, count: 65_535 },
            Instruction::Jump { target: 0, count: 65_535 },
            Instruction::Exit,
        ],
    ]
}

#[test]
fn program_pool_is_legal_on_the_paper_device() {
    for (p, prog) in program_pool().iter().enumerate() {
        for i in prog {
            PimConfig::paper()
                .instruction_legal(i)
                .unwrap_or_else(|e| panic!("pool[{p}] {i}: {e}"));
        }
    }
}

#[derive(Debug, Clone)]
enum Col {
    Rd(u32),
    Wr(u32, u8),
}

/// One choreography fragment. Every fragment leaves all rows closed, and
/// [`build`] adapts it to the mode it lands in, so any sequence is legal.
#[derive(Debug, Clone)]
enum Frag {
    /// ACT / columns / PRE on a data row: plain traffic in SB, broadcast
    /// writes in AB, RD and WR triggers in AB-PIM.
    Data {
        bank: u8,
        row: u32,
        cols: Vec<Col>,
    },
    /// Loads pool program `prog`: one unit in SB, broadcast in AB.
    Crf {
        bank: u8,
        prog: usize,
    },
    Srf {
        bank: u8,
        seed: u8,
    },
    Grf {
        bank: u8,
        col: u32,
        seed: u8,
    },
    EnterAb {
        bank: u8,
    },
    /// ACT ABMR, a column command, PRE: in SB the column disarms the entry.
    DisarmedEnter {
        bank: u8,
        write: bool,
    },
    /// ACT SBMR, optionally a column command, PRE: all-bank columns do not
    /// disarm the exit.
    ExitAb {
        column: bool,
    },
    /// The `PIM_OP_MODE` sequence: ignored in SB, redundant when repeated.
    PimOpMode(bool),
    /// The executor's choreography up to the data phase — enter AB, load a
    /// program, `PIM_OP_MODE = 1`, run these fragments — left in AB-PIM
    /// for whatever follows.
    Launch(Vec<Frag>),
}

fn payload(seed: u8) -> DataBlock {
    std::array::from_fn(|i| seed.wrapping_mul(31).wrapping_add(i as u8 * 7))
}

fn data() -> impl Strategy<Value = Frag> {
    let col = prop_oneof![
        (0u32..32).prop_map(Col::Rd),
        (0u32..32, any::<u8>()).prop_map(|(c, v)| Col::Wr(c, v)),
    ];
    (0u8..16, 0u32..4, proptest::collection::vec(col, 1..12))
        .prop_map(|(bank, row, cols)| Frag::Data { bank, row, cols })
}

fn frags() -> impl Strategy<Value = Vec<Frag>> {
    let bank = || 0u8..16;
    proptest::collection::vec(
        prop_oneof![
            data(),
            (bank(), 0usize..4, proptest::collection::vec(data(), 1..4)).prop_map(
                |(bank, prog, mut body)| {
                    body.splice(
                        0..0,
                        [Frag::EnterAb { bank }, Frag::Crf { bank, prog }, Frag::PimOpMode(true)],
                    );
                    Frag::Launch(body)
                }
            ),
            (bank(), 0usize..4).prop_map(|(bank, prog)| Frag::Crf { bank, prog }),
            (bank(), any::<u8>()).prop_map(|(bank, seed)| Frag::Srf { bank, seed }),
            (bank(), 0u32..16, any::<u8>()).prop_map(|(bank, col, seed)| Frag::Grf {
                bank,
                col,
                seed
            }),
            bank().prop_map(|bank| Frag::EnterAb { bank }),
            (bank(), any::<bool>()).prop_map(|(bank, write)| Frag::DisarmedEnter { bank, write }),
            any::<bool>().prop_map(|column| Frag::ExitAb { column }),
            any::<bool>().prop_map(Frag::PimOpMode),
        ],
        1..40,
    )
}

/// Lowers fragments to a complete launch stream (it ends in SB mode).
fn build(frags: &[Frag]) -> Vec<Command> {
    let mut ab = false;
    let mut out = Vec::new();
    lower(frags, &mut ab, &mut out);
    lower(&[Frag::ExitAb { column: false }], &mut ab, &mut out);
    out
}

fn lower(frags: &[Frag], ab: &mut bool, out: &mut Vec<Command>) {
    let pool = program_pool();
    for f in frags {
        let on = |bank: &u8| BankAddr::from_flat_index(*bank as usize);
        match f {
            Frag::Data { bank, row, cols } => {
                let bank = on(bank);
                out.push(Command::Act { bank, row: *row });
                out.extend(cols.iter().map(|c| match *c {
                    Col::Rd(col) => Command::Rd { bank, col },
                    Col::Wr(col, v) => Command::Wr { bank, col, data: payload(v) },
                }));
                out.push(Command::Pre { bank });
            }
            Frag::Crf { bank, prog } => {
                let bank = on(bank);
                out.push(Command::Act { bank, row: conf::CRF_ROW });
                for (c, data) in conf::crf_blocks(&pool[*prog]).into_iter().enumerate() {
                    out.push(Command::Wr { bank, col: c as u32, data });
                }
                out.push(Command::Pre { bank });
            }
            Frag::Srf { bank, seed } => {
                let bank = on(bank);
                out.push(Command::Act { bank, row: conf::SRF_ROW });
                out.push(Command::Wr { bank, col: 0, data: payload(*seed) });
                out.push(Command::Pre { bank });
            }
            Frag::Grf { bank, col, seed } => {
                let bank = on(bank);
                out.push(Command::Act { bank, row: conf::GRF_ROW });
                out.push(Command::Wr { bank, col: *col, data: payload(*seed) });
                out.push(Command::Pre { bank });
            }
            Frag::EnterAb { bank } if !*ab => {
                let bank = on(bank);
                out.push(Command::Act { bank, row: conf::ABMR_ROW });
                out.push(Command::Pre { bank });
                *ab = true;
            }
            Frag::DisarmedEnter { bank, write } if !*ab => {
                let bank = on(bank);
                out.push(Command::Act { bank, row: conf::ABMR_ROW });
                out.push(if *write {
                    Command::Wr { bank, col: 1, data: payload(9) }
                } else {
                    Command::Rd { bank, col: 1 }
                });
                out.push(Command::Pre { bank });
            }
            Frag::ExitAb { column } if *ab => {
                let bank = BankAddr::new(0, 0);
                out.push(Command::Act { bank, row: conf::SBMR_ROW });
                if *column {
                    out.push(Command::Rd { bank, col: 0 });
                }
                out.push(Command::Pre { bank });
                *ab = false;
            }
            Frag::PimOpMode(enable) => out.extend(conf::set_pim_op_mode_sequence(*enable)),
            Frag::Launch(body) => lower(body, ab, out),
            Frag::EnterAb { .. } | Frag::DisarmedEnter { .. } | Frag::ExitAb { .. } => {}
        }
    }
}

fn fresh_channel() -> PimChannel {
    PimChannel::new(TimingParams::hbm2(), PimConfig::paper())
}

/// A fresh channel whose data rows hold nonzero bytes, so that a unit
/// computing where it should not leaves a mark.
fn seeded_channel() -> PimChannel {
    let mut ch = fresh_channel();
    for (b, bank) in BankAddr::all().enumerate() {
        for (row, col) in (0..4).flat_map(|row| (0..32).map(move |col| (row, col))) {
            let seed = (b as u32 * 131 + row * 32 + col) as u8;
            ch.dram_mut().bank_mut(bank).poke_block(row, col, &payload(seed));
        }
    }
    ch
}

/// Everything a launch's data path can change: bank bytes (the data rows
/// the fragments use plus the `PIM_CONF` rows single-bank register writes
/// also store to), register files, and the sequencer's visible state.
#[derive(Debug, PartialEq)]
struct DataState {
    banks: Vec<DataBlock>,
    units: Vec<UnitState>,
}

#[derive(Debug, PartialEq)]
struct UnitState {
    grf: Vec<DataBlock>,
    srf: Vec<u16>,
    crf: Vec<u32>,
    ppc: usize,
    halt: Option<Halt>,
}

fn data_state(ch: &PimChannel) -> DataState {
    let rows = (0..4).chain(conf::PIM_CONF_FIRST_ROW..=conf::ABMR_ROW);
    let banks = BankAddr::all()
        .flat_map(|b| rows.clone().map(move |r| (b, r)))
        .flat_map(|(b, r)| (0..32).map(move |c| (b, r, c)))
        .map(|(b, r, c)| ch.dram().bank(b).peek_block(r, c))
        .collect();
    let units = (0..ch.unit_count())
        .map(|u| {
            let u = ch.unit(u);
            let grf = (0..8).flat_map(|i| [u.grf_a().read(i), u.grf_b().read(i)]);
            let srf = (0..8).flat_map(|i| [u.srf_m().read(i), u.srf_a().read(i)]);
            UnitState {
                grf: grf.map(|v| v.to_block()).collect(),
                srf: srf.map(|s| s.to_bits()).collect(),
                crf: (0..32).map(|i| u.crf().read_word(i)).collect(),
                ppc: u.sequencer().ppc(),
                halt: u.sequencer().halt(),
            }
        })
        .collect();
    DataState { banks, units }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every command the walker's mode and every bank's resolved
    /// open row equal the device's, and its classification accounts for
    /// exactly the register writes, register reads, column reads and
    /// triggers the device counted.
    #[test]
    fn walker_tracks_the_device_command_by_command(frags in frags()) {
        let mut ch = fresh_channel();
        let mut walker = ModeWalker::new();
        let (mut now, mut conf_writes, mut triggers) = (0, 0u64, 0u64);
        let (mut reads, mut conf_reads) = (0u64, 0u64);
        for cmd in build(&frags) {
            let at = ch.earliest_issue(&cmd, now);
            ch.issue(&cmd, at).unwrap_or_else(|e| panic!("{cmd} at {at}: {e}"));
            now = at;
            match walker.step(&cmd) {
                Step::ConfWrite { .. } | Step::PimOpMode { .. } => conf_writes += 1,
                Step::Trigger { .. } => {
                    triggers += 1;
                    reads += u64::from(matches!(cmd, Command::Rd { .. }));
                }
                Step::Read { row } => {
                    let open = cmd.bank().and_then(|bank| ch.open_row(bank));
                    prop_assert_eq!(Some(row), open, "{}", cmd);
                    reads += 1;
                    conf_reads += u64::from(row >= conf::PIM_CONF_FIRST_ROW);
                }
                Step::Unresolved => prop_assert!(false, "{} did not resolve", cmd),
                Step::RowManagement | Step::SbWrite { .. } | Step::AbWrite { .. } => {}
            }
            prop_assert_eq!(walker.mode(), ch.mode(), "after {}", cmd);
            for bank in BankAddr::all() {
                prop_assert_eq!(walker.open_row(bank), ch.open_row(bank), "{} after {}", bank, cmd);
            }
        }
        prop_assert_eq!(walker.mode(), PimMode::SingleBank);
        prop_assert_eq!(ch.stats().conf_writes, conf_writes);
        prop_assert_eq!(ch.stats().conf_reads, conf_reads);
        prop_assert_eq!(ch.stats().ab_reads + ch.dram().stats().reads, reads);
        prop_assert_eq!(ch.stats().pim_triggers, triggers * ch.unit_count() as u64);
    }

    /// A fresh channel driven by the recording replay, and a third driven
    /// by the taped replay of that tape, end with the data state of the
    /// fully simulated one — and with untouched counters.
    #[test]
    fn both_replay_tiers_end_where_the_simulation_ends(frags in frags()) {
        let cmds = build(&frags);
        let mut full = fresh_channel();
        issue_all(&mut full, &cmds);
        let want = data_state(&full);

        let mut recording = fresh_channel();
        let tape: DataTape = recording.replay_data_recording(&cmds);
        prop_assert_eq!(&data_state(&recording), &want, "recording replay");

        let mut taped = fresh_channel();
        taped.replay_data_taped(&cmds, &tape);
        prop_assert_eq!(&data_state(&taped), &want, "taped replay");

        let idle = fresh_channel();
        for (name, ch) in [("recording", &recording), ("taped", &taped)] {
            prop_assert_eq!(ch.stats(), idle.stats(), "{} replay moved device stats", name);
            for u in 0..ch.unit_count() {
                prop_assert_eq!(
                    ch.unit(u).stats(),
                    idle.unit(u).stats(),
                    "{} replay moved unit {} stats", name, u
                );
            }
        }
    }

    /// With the device on the walker, the predictor's mode flags are the
    /// one mirror of the protocol left: on every generated stream —
    /// aborted transitions, redundant `PIM_OP_MODE` writes, single-bank
    /// register traffic, triggers — a power-on `ChannelPredictor` accounts
    /// the launch as a fresh channel runs it, and then a fixed single-bank
    /// probe that touches every bank from the state each was left in.
    #[test]
    fn the_predictor_follows_the_device_on_every_stream(frags in frags()) {
        let (host, t) = (HostConfig::paper(), TimingParams::hbm2());
        let cfg = ControllerConfig { refresh_enabled: false, ..Default::default() };
        let mut ctrl = MemoryController::with_sink(cfg, fresh_channel());
        let mut clock = ChannelPredictor::power_on(&t);
        let probe: Vec<Command> = BankAddr::all()
            .flat_map(|bank| {
                let data = payload(bank.flat_index() as u8);
                [
                    Command::Act { bank, row: 2 },
                    Command::Rd { bank, col: 1 },
                    Command::Wr { bank, col: 2, data },
                    Command::Pre { bank },
                ]
            })
            .collect();
        for (what, cmds) in [("stream", build(&frags)), ("probe", probe)] {
            let list = [Batch::setup(cmds)];
            let want =
                KernelEngine::run_on_channel_bounded(&host, &mut ctrl, &list, ExecutionMode::Ordered, None);
            let got = clock.run(&host, &list, ExecutionMode::Ordered, None);
            prop_assert_eq!(got, want, "{}", what);
        }
    }
}

// ---------------------------------------------------------------------
// Live-unit masks: a launch that declares which units it will read is, on
// every path, the unmasked full simulation in everything measured and in
// every live unit's registers and banks.
// ---------------------------------------------------------------------

use pim_core::UnitMask;
use pim_faults::FaultPlan;
use pim_host::{
    Batch, ChannelPredictor, ExecutionMode, FastpathStats, HostConfig, KernelEngine, PimSystem,
};

/// All-live, all-dead, one unit, and arbitrary subsets.
fn mask() -> impl Strategy<Value = UnitMask> {
    prop_oneof![
        Just(UnitMask::ALL),
        Just(UnitMask::NONE),
        (0usize..8).prop_map(|u| [u].into_iter().collect()),
        any::<u8>().prop_map(|bits| (0..8).filter(|u| bits >> u & 1 == 1).collect()),
    ]
}

/// [`data_state`] restricted to what a masked launch promises: the
/// registers and the two banks of every unit in `live`. (Sequencer state
/// and the CRF are in it too; they are exact on dead units as well, which
/// the callers that can promise it check through [`sequencers`].)
fn live_state(ch: &PimChannel, live: UnitMask) -> DataState {
    let DataState { banks, units } = data_state(ch);
    let per_bank = banks.len() / 16;
    DataState {
        banks: banks
            .chunks(per_bank)
            .enumerate()
            .filter(|(b, _)| live.contains(b / 2))
            .flat_map(|(_, blocks)| blocks.to_vec())
            .collect(),
        units: units
            .into_iter()
            .enumerate()
            .filter(|(u, _)| live.contains(*u))
            .map(|x| x.1)
            .collect(),
    }
}

/// Every unit's whole sequencer — loop counters and NOP repeats included —
/// and CRF image.
fn sequencers(ch: &PimChannel) -> Vec<(Sequencer, Vec<u32>)> {
    let crfs = data_state(ch).units.into_iter().map(|u| u.crf);
    crfs.enumerate().map(|(u, crf)| (ch.unit(u).sequencer().clone(), crf)).collect()
}

/// Issues `cmds` back to back on the issue path; returns the last cycle.
fn issue_all(ch: &mut PimChannel, cmds: &[Command]) -> u64 {
    let mut now = 0;
    for cmd in cmds {
        let at = ch.earliest_issue(cmd, now);
        ch.issue(cmd, at).unwrap_or_else(|e| panic!("{cmd} at {at}: {e}"));
        now = at;
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One channel, one mask: the masked full simulation moves every
    /// counter, clock and sequencer exactly as the unmasked one does and
    /// leaves the live units bit-identical; both masked replay tiers end
    /// on the same live state; the taped tier leaves every dead unit alone
    /// and every sequencer at the tape's end state; and the tape a masked
    /// recording compiled still covers every unit.
    #[test]
    fn a_masked_channel_is_the_unmasked_one_wherever_it_is_observed(
        frags in frags(),
        live in mask(),
    ) {
        let cmds = build(&frags);
        let unit_stats = |ch: &PimChannel| -> Vec<_> {
            (0..ch.unit_count()).map(|u| *ch.unit(u).stats()).collect()
        };
        let mut full = seeded_channel();
        let end = issue_all(&mut full, &cmds);

        let mut cold = seeded_channel();
        cold.set_live_units(live);
        prop_assert_eq!(issue_all(&mut cold, &cmds), end);
        prop_assert_eq!(cold.stats(), full.stats());
        prop_assert_eq!(unit_stats(&cold), unit_stats(&full));
        prop_assert_eq!(cold.launch_accounting(end), full.launch_accounting(end));
        prop_assert_eq!(cold.launch_fingerprint(end), full.launch_fingerprint(end));
        prop_assert_eq!(sequencers(&cold), sequencers(&full));
        prop_assert_eq!(&live_state(&cold, live), &live_state(&full, live), "masked cold run");

        let mut recording = seeded_channel();
        recording.set_live_units(live);
        let tape: DataTape = recording.replay_data_recording(&cmds);
        prop_assert_eq!(&live_state(&recording, live), &live_state(&full, live), "recording");
        prop_assert_eq!(sequencers(&recording), sequencers(&full));

        let mut taped = seeded_channel();
        taped.set_live_units(live);
        taped.replay_data_taped(&cmds, &tape);
        prop_assert_eq!(&live_state(&taped, live), &live_state(&full, live), "taped");
        prop_assert_eq!(sequencers(&taped), sequencers(&full));

        // Every sequencer ended above where the recording pass — the tape's
        // end state — left it. A dead unit's registers and banks keep their
        // entry state but for the host's own writes, which a channel where
        // no unit computes at all receives too.
        let dead: UnitMask = (0..8).filter(|u| !live.contains(*u)).collect();
        let mut idle = seeded_channel();
        idle.set_live_units(UnitMask::NONE);
        issue_all(&mut idle, &cmds);
        prop_assert_eq!(&live_state(&taped, dead), &live_state(&idle, dead), "taped dead units");

        let mut unmasked = seeded_channel();
        unmasked.replay_data_taped(&cmds, &tape);
        prop_assert_eq!(&data_state(&unmasked), &data_state(&full), "a masked tape, played all-live");
    }
}

/// A tape played against a stream that triggers fewer times than the one
/// it was recorded from is refused — by an `assert`, so in release builds
/// too — rather than leaving the channel half replayed.
#[test]
#[should_panic(expected = "tape/stream trigger count diverged")]
fn a_tape_that_outlasts_its_stream_is_refused() {
    let launch = |cols| {
        let bank = 0;
        build(&[Frag::Launch(vec![
            Frag::EnterAb { bank },
            Frag::Crf { bank, prog: 0 },
            Frag::PimOpMode(true),
            Frag::Data { bank, row: 1, cols },
        ])])
    };
    let tape = fresh_channel().replay_data_recording(&launch(vec![Col::Rd(0), Col::Rd(1)]));
    fresh_channel().replay_data_taped(&launch(vec![Col::Rd(0)]), &tape);
}

/// A `16 × stacks`-channel system, fast path as given.
fn system_of(stacks: usize, fastpath: bool) -> PimSystem {
    let mut sys = PimSystem::new(HostConfig { stacks, ..HostConfig::paper() }, PimConfig::paper());
    sys.set_fastpath_enabled(fastpath);
    sys
}

/// A 16-channel system, fast path as given.
fn system(fastpath: bool) -> PimSystem {
    system_of(1, fastpath)
}

/// What the engine and the cache account a launch by, per channel: the
/// clock, the timing fingerprint, and the `LaunchAccounting` — channel,
/// unit and DRAM statistics and bank residency.
#[allow(clippy::type_complexity)]
fn measured(
    sys: &PimSystem,
    channels: usize,
) -> Vec<(u64, Option<pim_dram::Clock>, pim_core::LaunchAccounting)> {
    (0..channels)
        .map(|i| {
            let (c, now) = (sys.channel(i), sys.channel(i).now());
            (now, c.sink().launch_fingerprint(now), c.sink().launch_accounting(now))
        })
        .collect()
}

/// One launch sequence, three ways. `lists[i]` runs on channel `i` of a
/// `16 × stacks`-channel system `launches` times under `mode` and `limit`,
/// every launch declaring `masks`, after `skew` has had its way with the
/// fresh system. The reference never hears of masks and never uses the
/// cache: every channel and every unit simulated. A fast-path system must
/// equal it after every launch in the `KernelResult` and the cancelled
/// flags, in every channel's [`measured`] state, and in every live unit's
/// registers and banks. Returns what was counted — the system's
/// `FastpathStats` (anything `skew` launched included) and the channels
/// simulated and replayed by each launch.
fn launches_equal_the_reference(
    stacks: usize,
    skew: &dyn Fn(&mut PimSystem),
    lists: &[&[Batch]],
    masks: &[UnitMask],
    (mode, limit): (ExecutionMode, Option<u64>),
    launches: usize,
) -> Result<(FastpathStats, Vec<(u64, u64)>), TestCaseError> {
    let n = 16 * stacks;
    let mask = |i: usize| masks.get(i).copied().unwrap_or(UnitMask::ALL);
    let mut reference = system_of(stacks, false);
    skew(&mut reference);
    let mut want = Vec::new();
    for _ in 0..launches {
        let r = KernelEngine::run_system_bounded(&mut reference, lists, mode, limit);
        let live: Vec<DataState> =
            (0..n).map(|i| live_state(reference.channel(i).sink(), mask(i))).collect();
        want.push((r, measured(&reference, n), live));
    }
    let mut sys = system_of(stacks, true);
    skew(&mut sys);
    let mut per_launch = Vec::new();
    for (launch, (r, m, live)) in want.iter().enumerate() {
        let channels = sys.fastpath_channels();
        sys.set_live_units(masks);
        let got = KernelEngine::run_system_bounded(&mut sys, lists, mode, limit);
        prop_assert_eq!(&got, r, "launch {}", launch);
        prop_assert_eq!(&measured(&sys, n), m, "launch {}", launch);
        for (i, want) in live.iter().enumerate() {
            let ch = sys.channel(i).sink();
            prop_assert_eq!(ch.live_units(), UnitMask::ALL, "mask outlived its launch");
            prop_assert_eq!(&live_state(ch, mask(i)), want, "launch {} channel {}", launch, i);
        }
        let after = sys.fastpath_channels();
        per_launch.push((after.simulated - channels.simulated, after.replayed - channels.replayed));
    }
    Ok((sys.fastpath_stats(), per_launch))
}

const IN_ORDER: (ExecutionMode, Option<u64>) = (ExecutionMode::Ordered, None);
const FENCED: ExecutionMode = ExecutionMode::Fenced { reorder_seed: None };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Through the engine: four launches of per-channel generated streams,
    /// each declaring generated masks — cold, then recorded, then replayed
    /// while the tape is compiled, then replayed from the tape — equal a
    /// system that never heard of masks and never used the cache.
    #[test]
    fn masked_launches_equal_unmasked_simulation(
        streams in proptest::collection::vec(frags(), 1..4),
        masks in proptest::collection::vec(mask(), 3),
    ) {
        let lists: Vec<Vec<Batch>> =
            streams.iter().map(|f| vec![Batch::setup(build(f))]).collect();
        let lists: Vec<&[Batch]> = lists.iter().map(Vec::as_slice).collect();
        let (stats, _) = launches_equal_the_reference(
            1, &|_| {}, &lists, &masks[..lists.len()], IN_ORDER, 4,
        )?;
        prop_assert_eq!((stats.hits, stats.uncacheable), (2, 0), "{:?}", stats);
    }

    /// Lock-step: one generated stream handed to every channel of a 16- or
    /// 64-channel system as the *same* list, every channel under its own
    /// generated mask. The four launches are exact, hit as often as ever —
    /// and the two that miss simulate one channel each: equal key, equal
    /// entry state and equal clock make all the channels one class.
    #[test]
    fn lock_step_channels_simulate_once_and_equal_the_reference(
        stream in frags(),
        masks in proptest::collection::vec(mask(), 64),
        four_stacks in any::<bool>(),
    ) {
        let n = if four_stacks { 64 } else { 16 };
        let list = [Batch::setup(build(&stream))];
        let (stats, channels) = launches_equal_the_reference(
            n / 16, &|_| {}, &vec![&list[..]; n], &masks[..n], IN_ORDER, 4,
        )?;
        prop_assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 2, 2), "{:?}", stats);
        let n = n as u64;
        prop_assert_eq!(channels, vec![(1, n - 1), (1, n - 1), (0, n), (0, n)]);
    }
}

/// A lock-step kernel with cancellable data batches: a per-unit CRF load
/// in SB, then the executor's choreography — enter AB, broadcast pool
/// program `prog`, an SRF scalar, `PIM_OP_MODE`, three rows of RD and WR
/// triggers (each row a fenced batch) — and back to SB.
fn lock_step_kernel(prog: usize, unit_prog: usize, srf_seed: u8, wr_seed: u8) -> Vec<Batch> {
    let data = |row, cols: std::ops::Range<u32>| Frag::Data {
        bank: 0,
        row,
        cols: cols
            .map(
                |c| if c % 5 == 4 { Col::Wr(c, wr_seed.wrapping_add(c as u8)) } else { Col::Rd(c) },
            )
            .collect(),
    };
    let frags = [
        Frag::Crf { bank: 3, prog: unit_prog },
        Frag::EnterAb { bank: 0 },
        Frag::Crf { bank: 0, prog },
        Frag::Srf { bank: 0, seed: srf_seed },
        Frag::PimOpMode(true),
        data(0, 0..12),
        data(1, 4..20),
        data(2, 0..8),
        Frag::PimOpMode(false),
        Frag::ExitAb { column: false },
    ];
    let mut ab = false;
    frags
        .iter()
        .map(|f| {
            let mut cmds = Vec::new();
            lower(std::slice::from_ref(f), &mut ab, &mut cmds);
            match f {
                Frag::Data { .. } => Batch::fenced_ordered(cmds),
                _ => Batch::setup(cmds),
            }
        })
        .collect()
}

/// Masks that differ channel to channel: all-live, all-dead, single units.
fn mixed_masks(n: usize) -> Vec<UnitMask> {
    (0..n)
        .map(|i| match i % 4 {
            0 => UnitMask::ALL,
            1 => UnitMask::NONE,
            _ => [i % 8].into_iter().collect(),
        })
        .collect()
}

fn exact(
    r: Result<(FastpathStats, Vec<(u64, u64)>), TestCaseError>,
) -> (FastpathStats, Vec<(u64, u64)>) {
    r.unwrap_or_else(|e| panic!("{e:?}"))
}

/// Classes are exactly as coarse as the class rule says: a channel whose
/// clock or timing state differs at entry is simulated on its own, and so
/// is one whose list differs in anything the key hashes — while lists that
/// differ only in data payloads, in separate allocations, still share.
#[test]
fn a_class_is_equal_key_equal_entry_state_and_equal_clock() {
    let kernel = lock_step_kernel(0, 1, 7, 1);
    let lists = vec![&kernel[..]; 16];
    let masks = mixed_masks(16);
    let run = |skew: &dyn Fn(&mut PimSystem), lists: &[&[Batch]]| {
        exact(launches_equal_the_reference(1, skew, lists, &masks, (FENCED, None), 4))
    };

    // Undisturbed: one class; the cold and the recording launch simulate
    // one channel each, and `commands` / `fences` are 16 channels' worth
    // (the reference comparison inside `run`).
    let (stats, channels) = run(&|_| {}, &lists);
    assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 2, 2));
    assert_eq!(channels, [(1, 15), (1, 15), (0, 16), (0, 16)]);

    // A clock skew: `advance_to` moves channel 5's clock and nothing else
    // (a fresh channel's horizons are all in the past either way), so only
    // the offset tells it apart. It then closes launch 1 a thousand cycles
    // after the others, whose horizons have all lapsed by that barrier
    // while its own have not: launch 2 finds the clocks equal and the
    // fingerprints apart.
    let (_, channels) = run(&|sys| sys.channel_mut(5).advance_to(1000), &lists);
    assert_eq!(channels, [(2, 14), (2, 14), (0, 16), (0, 16)]);

    // A timing skew: a launch on channel 3 alone ends in the barrier, so
    // every clock is equal and only the fingerprint tells channel 3 apart
    // (its banks are still inside tRP). It stays apart: its history never
    // becomes the others'.
    let solo = [&[][..], &[], &[], &kernel];
    let prior = |sys: &mut PimSystem| {
        KernelEngine::run_system(sys, &solo, FENCED);
    };
    let (_, channels) = run(&prior, &lists);
    assert_eq!(channels[0], (2, 14));

    // Structure is what the key hashes, not the allocation and not the
    // data: a second copy of the kernel with other WR-trigger payloads
    // classes with the first ...
    let other_data = lock_step_kernel(0, 1, 7, 99);
    let mut mixed = lists.clone();
    mixed[2] = &other_data;
    mixed[9] = &other_data;
    let (_, channels) = run(&|_| {}, &mixed);
    assert_eq!(channels[0], (1, 15));
    // ... while a differing configuration payload — an SRF scalar, one
    // unit's CRF words — is a different kernel, however equal its shape.
    let other_srf = lock_step_kernel(0, 1, 8, 1);
    let other_unit_crf = lock_step_kernel(0, 0, 7, 1);
    mixed[2] = &other_srf;
    mixed[9] = &other_unit_crf;
    let (_, channels) = run(&|_| {}, &mixed);
    assert_eq!(channels[0], (3, 13));

    // A subset launch: the channels sitting it out run `&[]`, a class of
    // their own that must not be handed the kernel's accounting.
    let subset: Vec<&[Batch]> =
        (0..16).map(|i| if [1, 4, 9].contains(&i) { &kernel[..] } else { &[] }).collect();
    let (stats, channels) = run(&|_| {}, &subset);
    assert_eq!(stats.hits, 2);
    assert_eq!(channels[0], (2, 14));
}

/// The three fall-backs: a representative the watchdog cancels, or a CRF
/// image that does not prove, and every channel is simulated — the flags
/// and the state those of the reference — and nothing is inserted. A limit
/// the launch provably beats is no fall-back at all.
#[test]
fn an_unrecordable_launch_simulates_every_channel() {
    let kernel = lock_step_kernel(0, 1, 7, 1);
    let lists = vec![&kernel[..]; 16];
    let masks = mixed_masks(16);
    let full = {
        let mut sys = system(false);
        KernelEngine::run_system(&mut sys, &lists, FENCED).end_cycle
    };
    // Every data batch, the later ones, none (cancellation is part of the
    // `run_system_bounded` result the helper compares).
    for (limit, cancels) in [(1, true), (full / 2, true), (2 * full, false)] {
        let launches = if cancels { 2 } else { 1 };
        let (stats, channels) = exact(launches_equal_the_reference(
            1,
            &|_| {},
            &lists,
            &masks,
            (FENCED, Some(limit)),
            launches,
        ));
        if cancels {
            assert_eq!((stats.misses, stats.insertions, stats.hits), (2, 0, 0), "limit {limit}");
            assert_eq!(channels, [(16, 0), (16, 0)], "limit {limit}");
        } else {
            assert_eq!((stats.misses, stats.insertions), (1, 1), "limit {limit}");
            assert_eq!(channels, [(1, 15)], "limit {limit}");
        }
    }

    let unprovable = lock_step_kernel(4, 1, 7, 1);
    let (stats, channels) = exact(launches_equal_the_reference(
        1,
        &|_| {},
        &vec![&unprovable[..]; 16],
        &masks,
        (FENCED, None),
        2,
    ));
    assert_eq!((stats.unproven, stats.insertions, stats.hits), (2, 0, 0));
    assert_eq!(channels, [(16, 0), (16, 0)]);
}

/// The sequencer half of the live-unit contract: exact on every unit of a
/// channel that has a live unit — simulated, or served from the class's
/// recording with its own data walk — and *unspecified* on an all-dead
/// channel, which a recording serves without walking its stream: its CRF,
/// registers and sequencers stay as they were while everything the launch
/// is measured by is exact.
#[test]
fn an_all_dead_channel_is_measured_exactly_and_its_units_are_left_alone() {
    let kernel = lock_step_kernel(2, 1, 7, 1);
    let lists = vec![&kernel[..]; 3];
    let masks = [UnitMask::ALL, UnitMask::NONE, [2].into_iter().collect()];
    let mut reference = system(false);
    let mut sys = system(true);
    // Cold (channel 1 a dead follower), recording, and a hit.
    for launch in 0..3 {
        let want = KernelEngine::run_system(&mut reference, &lists, FENCED);
        sys.set_live_units(&masks);
        assert_eq!(KernelEngine::run_system(&mut sys, &lists, FENCED), want, "launch {launch}");
        assert_eq!(measured(&sys, 3), measured(&reference, 3), "launch {launch}");
        for i in [0, 2] {
            let (got, want) = (sys.channel(i).sink(), reference.channel(i).sink());
            assert_eq!(sequencers(got), sequencers(want), "launch {launch} channel {i}");
            assert_eq!(live_state(got, masks[i]), live_state(want, masks[i]));
        }
        assert_eq!(
            data_state(sys.channel(1).sink()),
            data_state(&fresh_channel()),
            "launch {launch}: the all-dead channel's units and banks were touched"
        );
        assert_ne!(sequencers(sys.channel(1).sink()), sequencers(reference.channel(1).sink()));
    }
    assert_eq!(sys.fastpath_stats().hits, 1);
}

/// On a faulted system the declared masks are dropped: transient cell
/// flips key off each bank's write counter, so a unit that skipped its
/// write-backs would move every later flip in its banks. The masked run
/// equals the unmasked faulted run on *every* unit, and an identical
/// follow-up write to every bank lands identically in both — the write
/// counters agree.
#[test]
fn a_fault_plan_makes_the_engine_ignore_the_masks() {
    let data = |row, cols: std::ops::Range<u32>| Frag::Data {
        bank: 0,
        row,
        cols: cols.map(|c| if c % 5 == 4 { Col::Wr(c, c as u8) } else { Col::Rd(c) }).collect(),
    };
    let body = vec![
        Frag::EnterAb { bank: 0 },
        Frag::Crf { bank: 0, prog: 2 },
        Frag::PimOpMode(true),
        data(0, 0..12),
        data(1, 4..20),
    ];
    let lists = vec![vec![Batch::setup(build(&[Frag::Launch(body)]))]; 2];
    let plan = FaultPlan {
        cell_flip_rate: 0.3,
        stuck_cell_rate: 0.05,
        cmd_corrupt_rate: 0.1,
        ..FaultPlan::quiet(0xFA17)
    };
    let run = |masks: Option<&[UnitMask]>| {
        let mut sys = system(true);
        sys.install_faults(&plan);
        if let Some(masks) = masks {
            sys.set_live_units(masks);
        }
        let r = KernelEngine::run_system(&mut sys, &lists, ExecutionMode::Ordered);
        let after_launch: Vec<DataState> =
            (0..2).map(|i| data_state(sys.channel(i).sink())).collect();
        for i in 0..2 {
            for bank in BankAddr::all() {
                let dram = sys.channel_mut(i).sink_mut().dram_mut();
                for col in 0..8 {
                    dram.bank_mut(bank).poke_block(2, col, &payload(col as u8));
                }
            }
        }
        let after_writes: Vec<DataState> =
            (0..2).map(|i| data_state(sys.channel(i).sink())).collect();
        (r, measured(&sys, 2), after_launch, after_writes)
    };
    let unmasked = run(None);
    assert_ne!(
        unmasked.2,
        {
            let mut clean = system(false);
            KernelEngine::run_system(&mut clean, &lists, ExecutionMode::Ordered);
            (0..2).map(|i| data_state(clean.channel(i).sink())).collect::<Vec<_>>()
        },
        "the plan must actually corrupt something"
    );
    assert_eq!(run(Some(&[UnitMask::NONE, [3].into_iter().collect()])), unmasked);
}
