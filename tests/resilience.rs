//! Resilience-subsystem integration tests: the SECDED contract the scrub
//! path relies on, exercised through a real DRAM bank at random
//! addresses, and the determinism contract of seeded fault campaigns.

mod common;

use pim_bench::faults::{run_campaign, CampaignConfig};
use pim_dram::ecc::{self, EccWord};
use pim_dram::{Bank, DataBlock};
use proptest::prelude::*;

/// Stores `data` at (`row`, `col`) of a fresh bank, applies `flips` to
/// the stored copy, then runs the scrub-path decode: read the block back
/// and decode it against the golden check bytes.
fn store_damage_decode(
    row: u32,
    col: u32,
    data: &DataBlock,
    flips: &[u16],
) -> Option<(DataBlock, bool)> {
    let mut bank = Bank::new();
    bank.poke_block(row, col, data);
    let mut raw = bank.peek_block(row, col);
    for &bit in flips {
        raw[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    bank.poke_block(row, col, &raw);

    let shadow = ecc::encode_block(data).map(|w| w.check);
    let read = bank.peek_block(row, col);
    let words: [EccWord; 4] = std::array::from_fn(|i| {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&read[i * 8..i * 8 + 8]);
        EccWord { data: u64::from_le_bytes(bytes), check: shadow[i] }
    });
    ecc::decode_block(&words)
}

fn block_strategy() -> impl Strategy<Value = DataBlock> {
    proptest::collection::vec(any::<u8>(), 32).prop_map(|v| {
        let mut b = [0u8; 32];
        b.copy_from_slice(&v);
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SECDED half 1: every single-bit fault, at any bank address, is
    /// corrected by the scrub path — and corrected to the original data,
    /// not merely to *something* decodable.
    #[test]
    fn every_single_bit_fault_is_corrected(
        data in block_strategy(),
        row in 0u32..8192,
        col in 0u32..32,
        bit in 0u16..256,
    ) {
        let got = store_damage_decode(row, col, &data, &[bit]);
        let (decoded, corrected) = got.expect("single-bit damage must be correctable");
        prop_assert!(corrected, "a flipped bit must be reported as corrected");
        prop_assert_eq!(decoded, data);
    }

    /// SECDED half 2: every double-bit fault within one codeword is
    /// *detected* — decode refuses rather than miscorrecting to a wrong
    /// block. (This is the fault shape `pim-faults` stuck pairs produce.)
    #[test]
    fn every_double_bit_fault_is_detected_not_miscorrected(
        data in block_strategy(),
        row in 0u32..8192,
        col in 0u32..32,
        word in 0u16..4,
        bit_a in 0u16..64,
        delta in 1u16..64,
    ) {
        let a = word * 64 + bit_a;
        let b = word * 64 + (bit_a + delta) % 64;
        prop_assume!(a != b);
        let got = store_damage_decode(row, col, &data, &[a, b]);
        prop_assert_eq!(got, None, "double-bit damage must be uncorrectable");
    }

    /// One flip per codeword is still fully correctable: SECDED protects
    /// each 64-bit word independently.
    #[test]
    fn one_flip_per_codeword_is_corrected(
        data in block_strategy(),
        bits in proptest::collection::vec(0u16..64, 4),
    ) {
        let flips: Vec<u16> = bits.iter().enumerate().map(|(w, &b)| w as u16 * 64 + b).collect();
        let got = store_damage_decode(0, 0, &data, &flips);
        let (decoded, corrected) = got.expect("one flip per word is correctable");
        prop_assert!(corrected);
        prop_assert_eq!(decoded, data);
    }
}

/// The zero-fault path is observer-free: a campaign at rate 0 reports
/// exactly the cycles and commands of a system with no fault plan
/// installed at all (the exact-match guarantee
/// `fastpath.rs::synthetic64_simulated_numbers_are_pinned`
/// makes for the engine, asserted at the campaign level).
#[test]
fn zero_rate_point_matches_uninstrumented_run() {
    let cfg = CampaignConfig { seed: 1, elements: 1024, rates: vec![0.0] };
    let a = run_campaign(&cfg).expect("campaign runs");
    let b = run_campaign(&cfg).expect("campaign runs");
    assert_eq!(a, b, "zero-fault campaigns are reproducible");
    let r = &a[0].report;
    assert_eq!(r.ecc_corrected + r.ecc_detected + r.retries, 0);
    assert!(r.quarantined.is_empty());
    assert_eq!(a[0].wrong_answers, 0);
}
