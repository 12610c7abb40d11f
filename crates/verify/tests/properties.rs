//! Property tests for the static analysis passes: valid kernels stay
//! clean through the program/image round-trip, arbitrary single-word
//! image mutations are either still valid or rejected with an
//! attributable diagnostic, random command streams never panic the
//! protocol linter, the fence pass flags exactly the unfenced
//! store-then-read shape, the symbolic executor's summary reproduces
//! concrete execution bit for bit, and equivalence verdicts agree with
//! concrete execution under single-instruction mutations.

use std::collections::HashMap;

use proptest::collection;
use proptest::prelude::*;

use pim_core::conf;
use pim_core::isa::{Instruction, Operand};
use pim_core::{BankPort, LaneVec, PimConfig, PimUnit, PimVariant, Trigger, TriggerKind};
use pim_dram::{BankAddr, Command, DataBlock};
use pim_verify::{
    check_equivalence, check_fences, lint_stream, strip_fences, symex_program, verify_image,
    verify_program, EquivVerdict, PvCode, StreamEvent,
};

/// The GEMV inner loop shape (`docs/ISA.md` worked example), parameterized.
fn gemv_like(groups: u32, srf: u8, grf: u8) -> Vec<Instruction> {
    vec![
        Instruction::Fill { dst: Operand::srf_m(srf), src: Operand::wdata(), aam: false },
        Instruction::Mac {
            dst: Operand::grf_b(grf),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(srf),
            aam: true,
        },
        Instruction::Jump { target: 1, count: 8 },
        Instruction::Jump { target: 0, count: groups },
        Instruction::Exit,
    ]
}

/// The SLS gather shape, parameterized by lookup count.
fn sls_like(lookups: u32, grf: u8) -> Vec<Instruction> {
    let mut prog =
        vec![Instruction::Fill { dst: Operand::grf_a(grf), src: Operand::even_bank(), aam: false }];
    if lookups > 1 {
        prog.push(Instruction::Add {
            dst: Operand::grf_a(grf),
            src0: Operand::grf_a(grf),
            src1: Operand::even_bank(),
            aam: false,
        });
        prog.push(Instruction::Jump { target: 1, count: lookups - 1 });
    }
    prog.push(Instruction::Exit);
    prog
}

/// Encodes a program into a full 32-word CRF image, EXIT-padded the way
/// the executor pads partial chunks.
fn image_of(program: &[Instruction]) -> Vec<u32> {
    let mut words: Vec<u32> = program.iter().map(Instruction::encode).collect();
    words.resize(32, Instruction::Exit.encode());
    words
}

/// A looped load-store shape: gather a block into a GRF entry, store it
/// back through the odd-bank port (exercises symbolic bank writes).
fn store_like(n: u32, grf: u8, relu: bool) -> Vec<Instruction> {
    vec![
        Instruction::Fill { dst: Operand::grf_a(grf), src: Operand::even_bank(), aam: false },
        Instruction::Mov { dst: Operand::odd_bank(), src: Operand::grf_a(grf), relu, aam: false },
        Instruction::Jump { target: 0, count: n },
        Instruction::Exit,
    ]
}

/// A strategy over valid kernels: the documented GEMV and SLS shapes with
/// randomized loop bounds, register indices and trailing NOP padding.
fn valid_kernel() -> impl Strategy<Value = Vec<Instruction>> {
    prop_oneof![
        (1u32..2048, 0u8..8, 0u8..8).prop_map(|(g, s, r)| gemv_like(g, s, r)),
        (1u32..64, 0u8..8).prop_map(|(l, r)| sls_like(l, r)),
    ]
}

/// Like [`valid_kernel`] but with small loop bounds (concrete execution
/// runs every trigger) and the store shape mixed in.
fn small_valid_kernel() -> impl Strategy<Value = Vec<Instruction>> {
    prop_oneof![
        (1u32..48, 0u8..8, 0u8..8).prop_map(|(g, s, r)| gemv_like(g, s, r)),
        (1u32..48, 0u8..8).prop_map(|(l, r)| sls_like(l, r)),
        (1u32..48, 0u8..8, any::<bool>()).prop_map(|(n, r, relu)| store_like(n, r, relu)),
    ]
}

/// A deterministic F16 value derived from (`seed`, `salt`): small
/// magnitudes so products and sums stay representable.
fn f16_of(seed: u16, salt: u32) -> pim_fp16::F16 {
    let x = (u32::from(seed).wrapping_add(salt.wrapping_mul(2_654_435_761))) % 29;
    pim_fp16::F16::from_f32((x as f32 - 14.0) * 0.25)
}

/// Concrete inputs for the canonical trigger schedule: distinct write
/// data per trigger and distinct contents per bank cell.
#[allow(clippy::type_complexity)]
fn concrete_inputs(seed: u16, total: u32) -> (Vec<LaneVec>, HashMap<(u8, u32, u32), LaneVec>) {
    let lanes = |salt: u32| {
        LaneVec::from_lanes(std::array::from_fn(|l| f16_of(seed, salt * 16 + l as u32)))
    };
    let wdata: Vec<LaneVec> = (0..total).map(|t| lanes(2 * t)).collect();
    let mut bank_init = HashMap::new();
    for t in 0..total {
        for parity in 0..2u8 {
            bank_init.insert((parity, t / 32, t % 32), lanes(2 * t + 1 + u32::from(parity) * 97));
        }
    }
    (wdata, bank_init)
}

/// Runs a real [`PimUnit`] over the canonical trigger schedule and
/// returns its final GRF files plus every bank write it performed.
#[allow(clippy::type_complexity)]
fn run_concrete(
    prog: &[Instruction],
    total: u32,
    wdata: &[LaneVec],
    bank_init: &HashMap<(u8, u32, u32), LaneVec>,
) -> ([LaneVec; 8], [LaneVec; 8], Vec<((u8, u32, u32), LaneVec)>) {
    let mut unit = PimUnit::new();
    unit.crf_mut().load_program(prog);
    let mut writes = Vec::new();
    for t in 0..total {
        let out = unit.execute(&Trigger {
            kind: TriggerKind::Write(wdata[t as usize]),
            row: t / 32,
            col: t % 32,
            even_data: bank_init[&(0, t / 32, t % 32)],
            odd_data: bank_init[&(1, t / 32, t % 32)],
        });
        if let Some((port, data)) = out.bank_write {
            let parity = match port {
                BankPort::Even => 0u8,
                BankPort::Odd => 1,
            };
            writes.push(((parity, t / 32, t % 32), data));
        }
    }
    (
        std::array::from_fn(|i| unit.grf_a().read(i)),
        std::array::from_fn(|i| unit.grf_b().read(i)),
        writes,
    )
}

/// Applies a semantics-bearing single-instruction mutation; returns the
/// input unchanged for variants with nothing safe to tweak.
fn mutate_instruction(instr: Instruction) -> Instruction {
    match instr {
        Instruction::Jump { target, count } => {
            Instruction::Jump { target, count: count % 65_534 + 1 }
        }
        Instruction::Nop { cycles } => Instruction::Nop { cycles: cycles % 15 + 1 },
        Instruction::Exit => Instruction::Nop { cycles: 1 },
        Instruction::Mov { dst, src, relu, aam } => Instruction::Mov { dst, src, relu: !relu, aam },
        Instruction::Fill { dst, src, aam } => Instruction::Fill { dst, src, aam: !aam },
        Instruction::Add { dst, src0, src1, aam } => Instruction::Mul { dst, src0, src1, aam },
        Instruction::Mul { dst, src0, src1, aam } => Instruction::Add { dst, src0, src1, aam },
        Instruction::Mac { dst, src0, src1, aam } => Instruction::Mul { dst, src0, src1, aam },
        Instruction::Mad { dst, src0, src1, aam } => Instruction::Mul { dst, src0, src1, aam },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Valid kernels verify clean, and stay clean through the
    /// encode-to-CRF-image round trip on every hardware variant.
    #[test]
    fn valid_kernels_survive_the_image_round_trip(prog in valid_kernel()) {
        for variant in PimVariant::ALL {
            let cfg = PimConfig::with_variant(variant);
            let direct = verify_program(&cfg, &prog);
            prop_assert!(direct.is_clean(), "{variant:?} direct:\n{direct}");
            let image = verify_image(&cfg, &image_of(&prog));
            prop_assert!(image.is_clean(), "{variant:?} image:\n{image}");
        }
    }

    /// Mutating one word of a valid CRF image never panics the verifier,
    /// is deterministic, and any undecodable word is pinned as PV011 at
    /// the mutated position.
    #[test]
    fn single_word_mutations_are_attributed(
        prog in valid_kernel(),
        pos in 0usize..32,
        word in any::<u32>(),
    ) {
        let cfg = PimConfig::paper();
        let mut words = image_of(&prog);
        prop_assume!(words[pos] != word);
        words[pos] = word;
        let report = verify_image(&cfg, &words);
        prop_assert_eq!(&report, &verify_image(&cfg, &words), "non-deterministic");
        if Instruction::decode(word).is_err() {
            prop_assert!(report.has_code(PvCode::Pv011UndecodableWord), "{report}");
        } else {
            // Still decodable: the verifier must reach a verdict (clean or
            // coded diagnostics) and render it without panicking.
            let _ = report.render("mutated");
        }
    }

    /// The protocol linter is total and deterministic over arbitrary
    /// command streams.
    #[test]
    fn protocol_linter_never_panics(cmds in collection::vec(arb_command(), 0..40)) {
        let events: Vec<StreamEvent> =
            cmds.into_iter().enumerate().map(|(i, c)| StreamEvent::cmd(i, c)).collect();
        let a = lint_stream(&events);
        let b = lint_stream(&events);
        prop_assert_eq!(a, b);
    }

    /// The fence-race detector flags the unfenced store-then-read at any
    /// address, and a single fence between the trigger and the readback
    /// always clears it.
    #[test]
    fn fence_detector_is_exact_for_store_then_read(
        row in 0u32..4096,
        col in 0u32..32,
        fenced in any::<bool>(),
    ) {
        let events = store_then_read(row, col, fenced);
        let report = check_fences(&events);
        if fenced {
            prop_assert!(report.is_clean(), "fenced:\n{report}");
            let stripped = check_fences(&strip_fences(&events));
            prop_assert!(stripped.has_code(PvCode::Pv201UnfencedHostRead), "{stripped}");
        } else {
            prop_assert!(report.has_code(PvCode::Pv201UnfencedHostRead), "{report}");
        }
    }

    /// The symbolic summary is *sound*: evaluating it on arbitrary
    /// concrete inputs reproduces, bit for bit, the GRF files and every
    /// bank write of a real PIM unit fed the same inputs over the
    /// canonical trigger schedule.
    #[test]
    fn symbolic_summary_matches_concrete_execution(
        prog in small_valid_kernel(),
        seed in any::<u16>(),
    ) {
        let summary = symex_program(&prog).summary.expect("valid kernels are provable");
        let total = u32::try_from(summary.total_triggers()).expect("small kernel");
        let (wdata, bank_init) = concrete_inputs(seed, total);
        let (grf_a, grf_b, writes) = run_concrete(&prog, total, &wdata, &bank_init);
        let eval = summary.eval(&wdata, &bank_init);
        for i in 0..8 {
            prop_assert_eq!(eval.grf_a[i].lanes(), grf_a[i].lanes(), "GRF_A[{}]", i);
            prop_assert_eq!(eval.grf_b[i].lanes(), grf_b[i].lanes(), "GRF_B[{}]", i);
        }
        prop_assert_eq!(writes.len(), eval.bank_writes.len(), "bank write count");
        for (addr, data) in &writes {
            let sym = eval.bank_writes.get(addr);
            prop_assert_eq!(
                Some(data.lanes()),
                sym.map(LaneVec::lanes),
                "bank write at {:?}", addr
            );
        }
    }

    /// Equivalence verdicts agree with concrete execution under
    /// single-instruction mutations: `Equivalent` implies bit-identical
    /// outputs on random data, and concretely different outputs imply
    /// the verdict is *not* `Equivalent`.
    #[test]
    fn equivalence_verdicts_agree_with_concrete_execution(
        prog in small_valid_kernel(),
        pos in 0usize..8,
        seed in any::<u16>(),
    ) {
        let cfg = PimConfig::paper();
        let mut mutated = prog.clone();
        let pos = pos % mutated.len();
        mutated[pos] = mutate_instruction(mutated[pos]);
        prop_assume!(mutated != prog);
        let verdict = check_equivalence(&cfg, &prog, &mutated);

        let sa = symex_program(&prog).summary.expect("valid kernels are provable");
        let Some(sb) = symex_program(&mutated).summary else {
            // Mutation broke provability: the verdict must not claim
            // equivalence.
            prop_assert!(!matches!(verdict, EquivVerdict::Equivalent), "unprovable mutant");
            return Ok(());
        };
        let total_a = u32::try_from(sa.total_triggers()).expect("small kernel");
        let total_b = u32::try_from(sb.total_triggers()).expect("small kernel");
        let total = total_a.max(total_b);
        let (wdata, bank_init) = concrete_inputs(seed, total);
        let ea = sa.eval(&wdata, &bank_init);
        let eb = sb.eval(&wdata, &bank_init);
        match verdict {
            EquivVerdict::Equivalent => {
                prop_assert!(ea == eb, "Equivalent verdict but concrete outputs differ");
                prop_assert_eq!(total_a, total_b, "Equivalent verdict but schedules differ");
            }
            EquivVerdict::Inequivalent(_) | EquivVerdict::Unprovable(_) => {
                // One concrete sample cannot prove inequivalence; nothing
                // further to check.
            }
        }
        if ea != eb {
            prop_assert!(
                !matches!(verdict, EquivVerdict::Equivalent),
                "concrete outputs differ but verdict is Equivalent"
            );
        }
    }
}

/// Strategy over single DRAM commands (bank addresses in range, rows
/// spanning both data and configuration space).
fn arb_command() -> impl Strategy<Value = Command> {
    let bank = (0u8..4, 0u8..4).prop_map(|(bg, ba)| BankAddr::new(bg, ba));
    let row = prop_oneof![0u32..64, conf::PIM_CONF_FIRST_ROW..conf::PIM_CONF_FIRST_ROW + 6];
    prop_oneof![
        (bank.clone(), row).prop_map(|(bank, row)| Command::Act { bank, row }),
        bank.clone().prop_map(|bank| Command::Pre { bank }),
        Just(Command::PreAll),
        Just(Command::Ref),
        (bank.clone(), 0u32..32).prop_map(|(bank, col)| Command::Rd { bank, col }),
        (bank, 0u32..32, any::<u8>()).prop_map(|(bank, col, b)| {
            let data: DataBlock = [b; 32];
            Command::Wr { bank, col, data: data.into() }
        }),
    ]
}

/// The full store-then-read choreography: program a bank-storing kernel,
/// fire one write trigger at (`row`, `col`), optionally fence, then read
/// the same address back from plain all-bank mode.
fn store_then_read(row: u32, col: u32, fenced: bool) -> Vec<StreamEvent> {
    let bank = BankAddr::new(0, 0);
    let program = [
        Instruction::Mov {
            dst: Operand::even_bank(),
            src: Operand::wdata(),
            relu: false,
            aam: false,
        },
        Instruction::Exit,
    ];
    let crf = conf::crf_blocks(&program)[0];

    let mut cmds = conf::enter_ab_sequence();
    cmds.push(Command::Act { bank, row: conf::CRF_ROW });
    cmds.push(Command::Wr { bank, col: 0, data: crf.into() });
    cmds.push(Command::Pre { bank });
    cmds.extend(conf::set_pim_op_mode_sequence(true));
    cmds.push(Command::Act { bank, row });
    cmds.push(Command::Wr { bank, col, data: [0x3C; 32].into() });
    cmds.push(Command::Pre { bank });
    cmds.extend(conf::set_pim_op_mode_sequence(false));

    let mut events: Vec<StreamEvent> =
        cmds.into_iter().enumerate().map(|(i, c)| StreamEvent::cmd(i, c)).collect();
    if fenced {
        events.push(StreamEvent::fence(events.len()));
    }
    let n = events.len();
    for (i, c) in [Command::Act { bank, row }, Command::Rd { bank, col }, Command::Pre { bank }]
        .into_iter()
        .enumerate()
    {
        events.push(StreamEvent::cmd(n + i, c));
    }
    events
}

/// The worked example in `docs/ISA.md` ("Worked example: the GEMV inner
/// loop") assembles and passes the kernel verifier on every variant.
#[test]
fn documented_worked_example_verifies() {
    let doc = include_str!("../../../docs/ISA.md");
    let marker = "## Worked example";
    let start = doc.find(marker).expect("ISA.md lost its worked example");
    let block = &doc[start..];
    let open = block.find("```text").expect("worked example lost its code block") + 7;
    let close = block[open..].find("```").expect("unterminated code block") + open;
    let source = &block[open..close];
    let prog = pim_verify::must_assemble(source);
    for variant in PimVariant::ALL {
        let report = verify_program(&PimConfig::with_variant(variant), &prog);
        assert!(report.is_clean(), "{variant:?}:\n{report}");
    }
}
