//! Claim-by-claim traceability: every *quantitative sentence* of the paper
//! that is not already pinned by a figure/table test, asserted against the
//! implementation. Each test quotes the sentence it covers.

use pim_core::{conf, isa, PimChannel, PimConfig, PimMode, PimUnit};
use pim_dram::{BankAddr, Command, CommandSink, NoData, TimingParams};
use pim_host::{HostConfig, PimSystem, THREADS_PER_GROUP};

/// "a total of 114 operand combinations for computations, and 24 different
/// ways of data movement" (Section III-C).
#[test]
fn claim_114_compute_combinations() {
    let c = isa::combination_counts();
    assert_eq!(c.compute_total(), 114);
    assert_eq!(c.mov, 24);
}

/// "There are total of 9 instructions" (Section III-C): NOP, JUMP, EXIT,
/// ADD, MUL, MAD, MAC, MOV, FILL — every opcode nibble 0..=8 decodes and
/// 9..=15 are rejected.
#[test]
fn claim_nine_instructions() {
    let mut decodable = 0;
    for opcode in 0u32..16 {
        if isa::Instruction::decode(opcode << 28).is_ok() {
            decodable += 1;
        }
    }
    assert_eq!(decodable, 9);
}

/// "The CRF serving as an instruction buffer comprises 32 32-bit
/// registers. GRF has 16 256-bit registers that are evenly split into
/// GRF_A and GRF_B [...] SRF [...] consists of SRF_M and SRF_A, each with
/// 8 registers" (Section IV-A).
#[test]
fn claim_register_file_complement() {
    assert_eq!(pim_core::CRF_ENTRIES, 32);
    assert_eq!(2 * PimConfig::paper().grf_entries_per_file(), 16);
    let u = PimUnit::new();
    // 8 entries per GRF file and per SRF file — indices 0..8 valid.
    u.grf_a().read(7);
    u.grf_b().read(7);
    u.srf_m().read(7);
    u.srf_a().read(7);
}

/// "It is designed to operate at the same frequency as the HBM2 DRAM
/// (250MHz~300MHz) [...] the operating frequency of HBM2 DRAM is 4× slower
/// than the memory bus frequency (1.0GHz~1.2GHz)" (Section VI).
#[test]
fn claim_unit_clock_is_bus_over_4() {
    let t = TimingParams::hbm2();
    assert_eq!(t.bus_mhz / pim_core::UNIT_MHZ, 4);
    let t0 = TimingParams::hbm2_2gbps();
    assert_eq!(t0.bus_mhz, 1000);
}

/// "delivering up to 9.6GFLOPS of throughput" per unit (Table IV) and the
/// device-level "4.915TB/s" on-chip compute bandwidth for 4 devices
/// (Section VI).
#[test]
fn claim_throughput_numbers() {
    let c = PimConfig::paper();
    assert_eq!(c.unit_gflops(), 9.6);
    let t = TimingParams::hbm2();
    let four_devices = 4.0 * t.peak_pch_allbank_bandwidth_gbs(c.units_per_pch) * 16.0;
    assert!((four_devices - 4915.2).abs() < 0.1, "got {four_devices}");
}

/// "we implement a PIM kernel that allocates 64 thread groups for PIM-HBM
/// because there are 64 pCHs in 4 HBM2 cubes (16 pCHs each) [...]
/// resulting in a total of 1,024 threads" (Section V-B).
#[test]
fn claim_64_groups_1024_threads() {
    let sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
    assert_eq!(sys.channel_count(), 64);
    assert_eq!(sys.channel_count() * THREADS_PER_GROUP, 1024);
}

/// "a total of 32 PIM execution units as a PIM-HBM DRAM die has 4 pCHs
/// and a pCH is connected to 16 banks (8 PIM execution units per pCH × 4
/// pCHs per PIM-HBM DRAM die)" (Section VI).
#[test]
fn claim_32_units_per_die() {
    let c = PimConfig::paper();
    let pchs_per_die = 4;
    assert_eq!(c.units_per_pch * pchs_per_die, 32);
    // And one unit per bank pair: 16 banks / 2.
    assert_eq!(c.units_per_pch, pim_dram::BANKS_PER_PCH / 2);
}

/// "executing one wide-SIMD operation commanded by a PIM instruction with
/// deterministic latency in a lock-step manner" (Section III-A): the same
/// trigger sequence always consumes the same instructions at the same
/// PPCs, independent of data.
#[test]
fn claim_deterministic_lock_step() {
    let run = |values: f32| -> Vec<usize> {
        let mut u = PimUnit::new();
        u.crf_mut().load_program(&[
            isa::Instruction::Fill {
                dst: isa::Operand::grf_a(0),
                src: isa::Operand::even_bank(),
                aam: true,
            },
            isa::Instruction::Jump { target: 0, count: 4 },
            isa::Instruction::Exit,
        ]);
        u.reset_sequencer();
        let mut ppcs = Vec::new();
        for col in 0..4 {
            ppcs.push(u.sequencer().ppc());
            u.execute(&pim_core::Trigger {
                kind: pim_core::TriggerKind::Read,
                row: 0,
                col,
                even_data: pim_core::LaneVec::from_f32([values; 16]),
                odd_data: pim_core::LaneVec::zero(),
            });
        }
        ppcs
    };
    assert_eq!(run(0.0), run(12345.0), "control flow must not depend on data");
}

/// "the AB-PIM mode does not consume power for transferring data from the
/// bank I/O all the way to the I/O circuits that interface with the host
/// processor" (Section III-B): an AB-PIM read returns no external data.
#[test]
fn claim_abpim_no_external_transfer() {
    let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    let mut now = 0;
    for cmd in conf::enter_ab_sequence()
        .into_iter()
        .chain(conf::set_pim_op_mode_sequence(true))
        .chain([Command::Act { bank: BankAddr::new(0, 0), row: 0 }])
    {
        now = ch.issue(&cmd, now, &mut NoData).unwrap().issued_at;
    }
    let mut data = None;
    ch.issue(&Command::Rd { bank: BankAddr::new(0, 0), col: 0 }, now, &mut data).unwrap();
    assert_eq!(data, None);
    assert_eq!(ch.mode(), PimMode::AllBankPim);
}

/// "the BA and BG of a given column address are ignored and the same row
/// and column of all the banks are concurrently accessed" (Section III-B):
/// the same AB command addressed to two different banks behaves
/// identically.
#[test]
fn claim_ab_mode_ignores_bank_address() {
    let run = |bank: BankAddr| -> [u8; 32] {
        let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
        let mut now = 0;
        for cmd in conf::enter_ab_sequence() {
            now = ch.issue(&cmd, now, &mut NoData).unwrap().issued_at;
        }
        for cmd in
            [Command::Act { bank, row: 6 }, Command::Wr { bank, col: 3, data: [0x77; 32].into() }]
        {
            now = ch.issue(&cmd, now, &mut NoData).unwrap().issued_at;
        }
        // Whatever bank the command named, bank (3,3) received the write.
        ch.dram().bank(BankAddr::new(3, 3)).peek_block(6, 3)
    };
    assert_eq!(run(BankAddr::new(0, 0)), [0x77; 32]);
    assert_eq!(run(BankAddr::new(2, 1)), [0x77; 32]);
}

/// "ReLU ... (1) it is simple to implement and fast (i.e., a 2-to-1
/// multiplexer controlled by the sign bit of a given input value)"
/// (Section III-C): exhaustive check that ReLU == sign-bit mux.
#[test]
fn claim_relu_is_a_sign_mux() {
    use pim_fp16::F16;
    for bits in 0u16..=u16::MAX {
        let x = F16::from_bits(bits);
        let want = if bits & 0x8000 != 0 { F16::ZERO } else { x };
        assert_eq!(x.relu().to_bits(), want.to_bits(), "bits {bits:#06x}");
    }
}

/// "an access to HBM transfers a 256-bit data block over 4 64-bit bursts
/// over one pCH" (Section II-B).
#[test]
fn claim_access_granularity() {
    assert_eq!(pim_dram::DATA_BLOCK_BYTES * 8, 256);
    assert_eq!(TimingParams::hbm2().t_bl, 4, "4 bursts");
}

/// "PIM-HBM with 16 banks per pCH can provide 8× higher on-chip compute
/// bandwidth than standard HBM" (Section III-B).
#[test]
fn claim_8x_onchip_bandwidth() {
    let t = TimingParams::hbm2();
    assert_eq!(t.pim_bandwidth_gain(pim_dram::BANKS_PER_PCH), 8.0);
}

/// "the GEMV PIM microkernel consists of only two PIM instructions: (1)
/// MAC ... and (2) JUMP" (Section V-A) — our kernel adds the FILL that
/// streams the input vector (the paper's example elides operand delivery),
/// but the steady-state loop is exactly MAC + JUMP.
#[test]
fn claim_gemv_microkernel_is_mac_plus_jump() {
    let prog = pim_runtime::gemv_microkernel(8, &PimConfig::paper());
    let body: Vec<&isa::Instruction> = prog
        .iter()
        .filter(|i| matches!(i, isa::Instruction::Mac { .. } | isa::Instruction::Jump { .. }))
        .collect();
    assert!(body.len() >= 2, "MAC + JUMP present");
    assert!(matches!(body[0], isa::Instruction::Mac { aam: true, .. }));
    assert!(prog.len() <= 5, "the whole kernel is a handful of instructions");
}
