//! The choreography did not move: an FNV-1a over every command (class,
//! bank, row, column, payload bytes) and every batch flag and label of the
//! full kernel lists the builders hand out, per device variant, pinned as
//! literals taken before the builders became the materialisation of a
//! `pim_host::Kernel`.
//!
//! `crates/models/tests/timing_only.rs` holds the cost model equal to a
//! simulation *of the list*; the list and the loop nest the cost model
//! folds now come from one definition, so this table is what keeps the
//! list itself honest. A change here is a change to what every GEMV and
//! stream launch issues and must re-pin on purpose.

use pim_core::{LaneVec, PimConfig, PimVariant};
use pim_dram::Command;
use pim_host::Batch;
use pim_runtime::kernels::{gemv_batches, stream_batches};
use pim_runtime::{gemv_microkernel, stream_microkernel, Executor, StreamOp};

fn fnv1a(list: &[Batch]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in list {
        eat(&[0xB0, u8::from(b.commutative), u8::from(b.fence_after)]);
        eat(b.label.unwrap_or("-").as_bytes());
        for c in &b.commands {
            let (class, row, col) = match c {
                Command::Act { row, .. } => (1u8, *row, 0),
                Command::Pre { .. } => (2, 0, 0),
                Command::PreAll => (3, 0, 0),
                Command::Rd { col, .. } => (4, 0, *col),
                Command::Wr { col, .. } => (5, 0, *col),
                Command::Ref => (6, 0, 0),
            };
            let bank = c.bank().map_or([0xFF, 0xFF], |b| [b.bg, b.ba]);
            eat(&[class, bank[0], bank[1]]);
            eat(&row.to_le_bytes());
            eat(&col.to_le_bytes());
            if let Command::Wr { data, .. } = c {
                eat(data);
            }
        }
    }
    h
}

/// The eight pinned kernels of one variant, in table order.
fn kernels(variant: PimVariant) -> [u64; 8] {
    let cfg = PimConfig::with_variant(variant);
    let gemv = |k: usize, base_row: u32| {
        let x: Vec<f32> = (0..k).map(|j| ((j * 7 % 23) as f32 - 11.0) / 8.0).collect();
        let groups = (k as u32).div_ceil(8);
        let data = gemv_batches(k, base_row, &x, &cfg);
        fnv1a(&Executor::full_kernel(&gemv_microkernel(groups, &cfg), None, true, &data))
    };
    let stream = |op: StreamOp, rows: u32, base_row: u32, srf: Option<&LaneVec>| {
        let data = stream_batches(op, rows, base_row, &cfg);
        fnv1a(&Executor::full_kernel(&stream_microkernel(op, rows, &cfg), srf, false, &data))
    };
    let scalars = LaneVec::from_f32([0.5; 16]);
    [
        gemv(4096, 0),   // Table VI GEMV1
        gemv(8192, 128), // Table VI GEMV4, second pass
        gemv(777, 5),    // ragged: 98 groups, a 2-group last row
        stream(StreamOp::Add, 1, 0, None),
        stream(StreamOp::Add, 3, 9, None),
        stream(StreamOp::Add, 256, 0, None),
        stream(StreamOp::Relu, 2, 4, None),
        stream(StreamOp::Axpy, 2, 4, Some(&scalars)),
    ]
}

#[test]
fn the_choreography_did_not_move() {
    #[rustfmt::skip]
    let pinned: [(PimVariant, [u64; 8]); 4] = [
        (PimVariant::Base, [
            0xb5415bf80b38e76f, 0xe17ce4d22c2e8c4e, 0x38a2972010cd6a4e, 0x2442ea13412c9b38,
            0x4f7e89f0d92cc4ee, 0x82582b1c1a326520, 0x5f0eb70914346fd8, 0x2e2138b9418b2523,
        ]),
        (PimVariant::DoubleResources, [
            0x1c719a38c4973a17, 0x510bcc92361cf9a6, 0x038cf2628362f58c, 0xfe7a48bed06dd739,
            0x73f0e1fb99fd9a7f, 0x811df2a56d2b9920, 0xdca9206a3f0634d8, 0x46bbe25ce4e98123,
        ]),
        (PimVariant::TwoBankAccess, [
            0xb5415bf80b38e76f, 0xe17ce4d22c2e8c4e, 0x38a2972010cd6a4e, 0xb48196ef7fff2481,
            0x91e2ee40b04aa31f, 0x014b35cc57ef3258, 0x5f0eb70914346fd8, 0x2e2138b9418b2523,
        ]),
        (PimVariant::SimultaneousReadWrite, [
            0xeed9fe0656334f45, 0xcfa139f0f6bbef95, 0xc7a063047f8a22ca, 0x2442ea13412c9b38,
            0x4f7e89f0d92cc4ee, 0x82582b1c1a326520, 0x5f0eb70914346fd8, 0x2e2138b9418b2523,
        ]),
    ];
    for (variant, expected) in pinned {
        let got = kernels(variant);
        assert_eq!(got, expected, "{variant:?}: {got:#018x?}");
    }
}
