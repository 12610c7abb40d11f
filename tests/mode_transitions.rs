//! Integration tests of the Fig. 3 operating-mode machinery driven through
//! the **unmodified** memory controller — the drop-in-replacement claim.

use pim_core::{conf, LaneVec, PimChannel, PimConfig, PimMode};
use pim_dram::{
    BankAddr, Command, CommandSink, ControllerConfig, MemoryController, NoData, PseudoChannel,
    Request, TimingParams,
};

/// The same controller type drives a plain HBM2 channel and a PIM channel:
/// the paper's "drop-in replacement of current JEDEC-compliant DRAM with
/// PIM-DRAM for any systems".
#[test]
fn unmodified_controller_drives_both_devices() {
    let cfg = ControllerConfig { refresh_enabled: false, ..Default::default() };

    let mut plain: MemoryController<PseudoChannel> = MemoryController::new(cfg.clone());
    let mut pim: MemoryController<PimChannel> = MemoryController::with_sink(
        cfg.clone(),
        PimChannel::new(TimingParams::hbm2(), PimConfig::paper()),
    );

    // Identical request streams...
    for addr in [0u64, 32, 64, 4096, 8192] {
        plain.enqueue(Request::write(addr, [addr as u8; 32]));
        pim.enqueue(Request::write(addr, [addr as u8; 32]));
    }
    for addr in [0u64, 32, 64, 4096, 8192] {
        plain.enqueue(Request::read(addr));
        pim.enqueue(Request::read(addr));
    }
    let a = plain.run_to_completion();
    let b = pim.run_to_completion();
    // ...produce identical data AND identical timing: in single-bank mode
    // PIM-HBM is indistinguishable from HBM2 ("precisely the same as
    // conventional HBM2").
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.data, y.data);
        assert_eq!(x.issued_at, y.issued_at, "timing must match");
        assert_eq!(x.completed_at, y.completed_at);
    }
}

fn issue_all(ch: &mut PimChannel, cmds: &[Command], mut now: u64) -> u64 {
    for c in cmds {
        now = ch.issue(c, now, &mut NoData).unwrap_or_else(|e| panic!("{c}: {e}")).issued_at;
    }
    now
}

#[test]
fn full_mode_cycle_sb_ab_abpim_and_back() {
    let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    assert_eq!(ch.mode(), PimMode::SingleBank);

    let now = issue_all(&mut ch, &conf::enter_ab_sequence(), 0);
    assert_eq!(ch.mode(), PimMode::AllBank);

    let now = issue_all(&mut ch, &conf::set_pim_op_mode_sequence(true), now);
    assert_eq!(ch.mode(), PimMode::AllBankPim);

    let now = issue_all(&mut ch, &conf::set_pim_op_mode_sequence(false), now);
    assert_eq!(ch.mode(), PimMode::AllBank);

    issue_all(&mut ch, &conf::exit_ab_sequence(), now);
    assert_eq!(ch.mode(), PimMode::SingleBank);
    assert!(ch.dram().all_banks_closed(), "no row-buffer conflicts after exit");
    assert_eq!(ch.stats().mode_transitions, 4);
}

#[test]
fn mode_transitions_cost_only_standard_command_latency() {
    // The paper rejects the MRS approach because of kernel-call overhead;
    // the ACT/PRE sequence costs just a handful of DRAM cycles.
    let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    let t = ch.timing().clone();
    let end = issue_all(&mut ch, &conf::enter_ab_sequence(), 0);
    // ACT at 0, PRE at tRAS: the transition completes within one row cycle.
    assert_eq!(end, t.t_ras);
}

#[test]
fn sb_mode_traffic_unaffected_after_pim_use() {
    // Run a PIM episode, then verify plain DRAM traffic still works and
    // never issues before all-bank activity ended.
    let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    let b = BankAddr::new(2, 3);
    let now = issue_all(&mut ch, &conf::enter_ab_sequence(), 0);
    let now = issue_all(
        &mut ch,
        &[
            Command::Act { bank: b, row: 7 },
            Command::Wr { bank: b, col: 0, data: [0x11; 32].into() },
            Command::Pre { bank: b },
        ],
        now,
    );
    let end_ab = issue_all(&mut ch, &conf::exit_ab_sequence(), now);

    // AB-mode writes broadcast: every bank's row 7 got the block.
    for bank in BankAddr::all() {
        assert_eq!(ch.dram().bank(bank).peek_block(7, 0), [0x11; 32]);
    }

    // Plain single-bank traffic afterwards.
    let at = ch.issue(&Command::Act { bank: b, row: 9 }, 0, &mut NoData).unwrap().issued_at;
    assert!(at >= end_ab, "SB command at {at} before AB activity ended ({end_ab})");
    let cmds = [
        Command::Wr { bank: b, col: 1, data: [0x22; 32].into() },
        Command::Rd { bank: b, col: 1 },
        Command::Pre { bank: b },
    ];
    let mut now = at;
    let mut seen = None;
    for c in &cmds {
        now = ch.issue(c, now, &mut seen).unwrap().issued_at;
    }
    assert_eq!(seen, Some([0x22; 32]));
}

#[test]
fn registers_are_memory_mapped_per_unit() {
    // Write unit 5's GRF_A[2] through bank 10's GRF row in SB mode and
    // read it back; other units are untouched.
    let mut ch = PimChannel::new(TimingParams::hbm2(), PimConfig::paper());
    let bank10 = BankAddr::from_flat_index(10); // unit 5's even bank
    let block = LaneVec::from_f32([6.5; 16]).to_block();
    let now = issue_all(
        &mut ch,
        &[
            Command::Act { bank: bank10, row: conf::GRF_ROW },
            Command::Wr { bank: bank10, col: 2, data: block.into() },
        ],
        0,
    );
    // Read back over the same mapping.
    let mut data = None;
    ch.issue(&Command::Rd { bank: bank10, col: 2 }, now, &mut data).unwrap();
    assert_eq!(data, Some(block));
    assert_eq!(ch.unit(5).grf_a().read(2).to_f32(), [6.5; 16]);
    assert_eq!(ch.unit(4).grf_a().read(2), LaneVec::zero());
}
