//! The reproduction holds: every number the paper reports
//! (`pim_bench::paper::CLAIMS`) reads inside its band, so a change anywhere
//! in the workspace that moves a result out of its band fails here. The
//! other tests are the structural facts behind the figures, which are not
//! paper numbers.

use std::collections::BTreeSet;

use pim_bench::experiments;
use pim_bench::paper::{Snapshot, CLAIMS};

#[test]
fn every_claim_is_inside_its_band() {
    let s = Snapshot::take();
    let outside: Vec<String> = CLAIMS
        .iter()
        .filter_map(|c| {
            let m = c.measure(&s);
            let row = format!("{} {} B{}: {m} outside {}", c.figure, c.workload, c.batch, c.band);
            (!c.band.contains(m)).then_some(row)
        })
        .collect();
    assert!(outside.is_empty(), "claims outside their bands:\n{}", outside.join("\n"));

    let keys: BTreeSet<_> = CLAIMS.iter().map(|c| (c.figure, c.workload, c.batch)).collect();
    assert_eq!(keys.len(), CLAIMS.len(), "two claims share a (figure, workload, batch)");
}

/// Fig. 11: the AB-PIM read moves nothing over the global bus or the PHY,
/// and its array-side power scales with the operating banks.
#[test]
fn fig11_transport_power_collapses() {
    let [hbm, pim] = experiments::fig11().bars;
    assert_eq!(pim.global_io, 0.0);
    assert_eq!(pim.io_phy, 0.0);
    assert!((pim.cell / hbm.cell - 4.0).abs() < 1e-9);
}

/// Fig. 14: the variants keep the paper's order, 2x >= 2BA >= SRW >= base.
#[test]
fn fig14_variant_ordering() {
    let (_, geo) = experiments::fig14();
    let g = |v: &str| geo.iter().find(|(name, _)| *name == v).unwrap().1;
    assert!(g("PIM-HBM-2x") >= g("PIM-HBM-2BA"));
    assert!(g("PIM-HBM-2BA") >= g("PIM-HBM-SRW"));
    assert!(g("PIM-HBM-SRW") >= g("PIM-HBM"));
}
