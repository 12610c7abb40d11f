//! Bare-metal PIM programming: hand-assemble a microkernel and drive it
//! with raw, standard DRAM commands — no BLAS, no runtime.
//!
//! This is what the paper means by "the host processor can control
//! execution of every PIM instruction one by one with its load and store
//! instructions which are translated into standard DRAM commands": the
//! entire choreography below is ACT / WR / RD / PRE, and an unmodified
//! JEDEC controller checks every timing constraint.
//!
//! The kernel computes `relu(a * s)` for a 16-lane vector per unit, with
//! `s` a scalar from SRF_M — a miniature activation layer.
//!
//! Run with: `cargo run -p pim-bench --example pim_microkernel --release`

use pim_core::isa::{Instruction, Operand};
use pim_core::{conf, LaneVec, PimChannel, PimConfig, PimMode};
use pim_dram::{BankAddr, Command, CommandSink, NoData, TimingParams};
use pim_fp16::F16;

/// Issues each command at its earliest legal cycle; returns the clock.
fn run(ch: &mut PimChannel, cmds: &[Command], mut now: u64) -> u64 {
    for c in cmds {
        now = ch.issue(c, now, &mut NoData).unwrap_or_else(|e| panic!("{c}: {e}")).issued_at;
    }
    now
}

fn main() {
    let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    let bank0 = BankAddr::new(0, 0);

    // 1. Seed input data: each unit's even bank gets its own vector at
    //    row 0, column 0 (normal host writes / DMA before the kernel).
    for u in 0..8 {
        let vals: [f32; 16] = std::array::from_fn(|l| (u as f32 + 1.0) * (l as f32 - 8.0));
        ch.dram_mut().bank_mut(BankAddr::from_flat_index(2 * u)).poke_block(
            0,
            0,
            &LaneVec::from_f32(vals).to_block(),
        );
    }

    // 2. Enter all-bank mode: ACT + PRE on the ABMR row. Standard commands.
    let mut now = run(&mut ch, &conf::enter_ab_sequence(), 0);
    assert_eq!(ch.mode(), PimMode::AllBank);

    // 3. Hand-assemble the microkernel and write it into every CRF through
    //    the memory-mapped CRF row (one 32-byte WR = 8 instructions).
    let program = [
        // MUL GRF_A[0] = EVEN_BANK * SRF_M[0]
        Instruction::Mul {
            dst: Operand::grf_a(0),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(0),
            aam: false,
        },
        // MOV(ReLU) writes the clamped product back to the bank at the
        // triggering column.
        Instruction::Mov {
            dst: Operand::even_bank(),
            src: Operand::grf_a(0),
            relu: true,
            aam: false,
        },
        Instruction::Exit,
    ];
    let mut crf_block = [0u8; 32];
    for (i, ins) in program.iter().enumerate() {
        crf_block[i * 4..i * 4 + 4].copy_from_slice(&ins.encode().to_le_bytes());
    }
    for (i, b) in crf_block.iter_mut().enumerate().skip(program.len() * 4) {
        if i % 4 == 3 {
            *b = 0x20; // pad with EXIT opcodes
        }
    }
    now = run(
        &mut ch,
        &[
            Command::Act { bank: bank0, row: conf::CRF_ROW },
            Command::Wr { bank: bank0, col: 0, data: crf_block.into() },
            Command::Pre { bank: bank0 },
        ],
        now,
    );

    // 4. Load the scalar s = 0.5 into SRF_M[0] of every unit.
    let mut srf = [F16::ZERO; 16];
    srf[0] = F16::from_f32(0.5);
    now = run(
        &mut ch,
        &[
            Command::Act { bank: bank0, row: conf::SRF_ROW },
            Command::Wr { bank: bank0, col: 0, data: LaneVec::from_lanes(srf).to_block().into() },
            Command::Pre { bank: bank0 },
        ],
        now,
    );

    // 5. PIM_OP_MODE = 1, open the data row, fire two RD triggers (one per
    //    instruction), close, PIM_OP_MODE = 0, exit to single-bank mode.
    now = run(&mut ch, &conf::set_pim_op_mode_sequence(true), now);
    now = run(
        &mut ch,
        &[
            Command::Act { bank: bank0, row: 0 },
            Command::Rd { bank: bank0, col: 0 }, // trigger: MUL
            Command::Rd { bank: bank0, col: 0 }, // trigger: MOV(ReLU) store
            Command::Pre { bank: bank0 },
        ],
        now,
    );
    now = run(&mut ch, &conf::set_pim_op_mode_sequence(false), now);
    let end = run(&mut ch, &conf::exit_ab_sequence(), now);
    assert_eq!(ch.mode(), PimMode::SingleBank);

    // 6. Verify: every even bank now holds relu(a * 0.5).
    println!("hand-assembled kernel ran in {end} bus cycles; results:");
    for u in 0..8 {
        let bank = BankAddr::from_flat_index(2 * u);
        let got = LaneVec::from_block(&ch.dram().bank(bank).peek_block(0, 0));
        let want: [f32; 16] =
            std::array::from_fn(|l| (((u as f32 + 1.0) * (l as f32 - 8.0)) * 0.5).max(0.0));
        assert_eq!(got.to_f32(), want, "unit {u}");
        println!("  unit {u}: lane 15 = {} (= relu({} * 0.5))", got[15], (u + 1) as f32 * 7.0);
    }
    println!("all 8 units verified: standard DRAM commands are the whole interface.");
    println!("PIM triggers delivered: {}", ch.stats().pim_triggers);
}
