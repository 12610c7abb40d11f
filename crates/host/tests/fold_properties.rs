//! `ChannelPredictor::fold` on kernels nobody would write: random commands
//! on random banks, in and out of all-bank mode, legal or not — the clock
//! prices a stream without judging it. These loops have what the real
//! kernels lack (a tFAW window that fills over several trips, turnarounds
//! that alternate, periods that never settle), so here the *equality* rule
//! decides when a loop may be multiplied out, and `fold` must still equal
//! `run` over the materialised list, now and on the launch after.
//! (`crates/models/tests/fold_equals_run.rs` covers the real choreography.)

use pim_core::conf;
use pim_dram::{BankAddr, Command, Cycle, TimingParams};
use pim_host::{Batch, ChannelPredictor, ExecutionMode, HostConfig, Kernel, Loop};
use proptest::prelude::*;

fn command() -> impl Strategy<Value = Command> {
    (0u8..16, 0usize..16, 0u32..64, 0u32..32).prop_map(|(kind, bank, row, col)| {
        let bank = BankAddr::from_flat_index(bank);
        match kind {
            0..=3 => Command::Act { bank, row },
            4..=7 => Command::Rd { bank, col },
            8..=10 => Command::Wr { bank, col, data: [col as u8; 32].into() },
            11..=13 => Command::Pre { bank },
            14 => Command::PreAll,
            _ => Command::Ref,
        }
    })
}

fn batches(max: usize) -> impl Strategy<Value = Vec<Batch>> {
    let batch =
        (proptest::collection::vec(command(), 1..6), 0u8..3).prop_map(|(cmds, kind)| match kind {
            0 => Batch::setup(cmds),
            1 => Batch::commutative(cmds),
            _ => Batch::fenced_ordered(cmds),
        });
    proptest::collection::vec(batch, 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fold_is_run_over_the_materialised_kernel(
        (all_bank, before, after) in (any::<bool>(), batches(3), batches(3)),
        loops in proptest::collection::vec((batches(4), 0u32..40, 0u32..3), 0..3),
        (regime, seed, fence, cut) in (0usize..3, any::<u64>(), 0u64..64, 0u64..8),
        long_faw in any::<bool>(),
    ) {
        let mut prologue = before;
        let mut epilogue = after;
        if all_bank {
            prologue.insert(0, Batch::setup(conf::enter_ab_sequence()));
            epilogue.push(Batch::setup(conf::exit_ab_sequence()));
        }
        let body = loops.into_iter().map(|(p, trips, stride)| Loop::new(p, trips, stride)).collect();
        let kernel = Kernel { prologue, body, epilogue };
        let list = kernel.clone().materialise();

        // No shipped generation has tFAW above 4 × tRRD_S; one that does is
        // what makes the four-activate window bind.
        let t = TimingParams { t_faw: if long_faw { 48 } else { 16 }, ..TimingParams::hbm2() };
        let host = HostConfig { fence_sync_overhead_cycles: fence, ..HostConfig::paper() };
        let mode = [
            ExecutionMode::Fenced { reorder_seed: None },
            ExecutionMode::Fenced { reorder_seed: Some(seed) },
            ExecutionMode::Ordered,
        ][regime];
        let end = ChannelPredictor::power_on(&t).run(&host, &list, mode, None);
        let limit: Option<Cycle> = (cut >= 5).then(|| end.result.end_cycle * (cut - 4) / 4);

        let (mut folded, mut ran) = (ChannelPredictor::power_on(&t), ChannelPredictor::power_on(&t));
        let f = folded.fold(&host, &kernel, mode, limit);
        prop_assert_eq!(f.ran, ran.run(&host, &list, mode, limit));
        prop_assert_eq!(f.ran.result.end_cycle, folded.now());
        prop_assert!(f.stepped <= f.ran.result.commands);
        prop_assert_eq!(folded.run(&host, &list, mode, None), ran.run(&host, &list, mode, None));
    }
}
