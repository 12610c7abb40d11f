//! Microbenchmark execution: HBM-baseline vs PIM-HBM times per workload
//! and batch, with the LLC miss rates of Fig. 10's lower panel.

use crate::workloads::{AddWorkload, GemvWorkload};
use pim_host::llc;
use pim_models::CostModel;
use pim_runtime::StreamOp;

/// One microbenchmark data point.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Workload name (e.g. "GEMV2").
    pub name: String,
    /// Batch size.
    pub batch: usize,
    /// HBM-baseline seconds.
    pub hbm_s: f64,
    /// PIM-HBM seconds.
    pub pim_s: f64,
    /// LLC miss rate on the HBM baseline.
    pub llc_miss: f64,
}

impl MicroResult {
    /// Relative performance of PIM-HBM over HBM (>1 means PIM wins).
    pub fn speedup(&self) -> f64 {
        self.hbm_s / self.pim_s
    }
}

/// Runs one GEMV workload at `batch` on both systems.
///
/// PIM executes the batch as `batch` sequential matrix-vector products
/// (the device has no batching notion); the host's library gets the usual
/// batched-GEMM benefits (Section VII-B).
pub fn gemv_micro(cost: &mut CostModel, w: &GemvWorkload, batch: usize) -> MicroResult {
    let pim = cost.pim_gemv(w.n, w.k);
    let hbm = cost.host_gemv(w.n, w.k, batch, 1.0);
    MicroResult {
        name: w.name.to_string(),
        batch,
        hbm_s: hbm.seconds,
        pim_s: pim.seconds * batch as f64,
        llc_miss: llc::batched_miss_rate(w.weight_bytes(), cost.host().llc_bytes, batch),
    }
}

/// Runs one ADD workload at `batch` on both systems. "ADD, which is the
/// level-1 BLAS, is still memory-bound regardless of the batch size": the
/// work simply scales with batch on both sides.
pub fn add_micro(cost: &mut CostModel, w: &AddWorkload, batch: usize) -> MicroResult {
    stream_micro(cost, w, batch, StreamOp::Add)
}

/// Runs one BN workload at `batch` (Fig. 14's extra kernel).
pub fn bn_micro(cost: &mut CostModel, w: &AddWorkload, batch: usize) -> MicroResult {
    stream_micro(cost, w, batch, StreamOp::Bn)
}

fn stream_micro(cost: &mut CostModel, w: &AddWorkload, batch: usize, op: StreamOp) -> MicroResult {
    let elements = w.elements * batch;
    let pim = cost.pim_stream(op, elements);
    let hbm = cost.host_stream(op, elements, 1.0);
    MicroResult {
        name: w.name.to_string(),
        batch,
        hbm_s: hbm.seconds,
        pim_s: pim.seconds,
        // Pure streaming: no reuse at any batch.
        llc_miss: 1.0,
    }
}

/// Geometric mean of a nonempty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geo_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geo-mean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn gemv_batch1_strongly_favors_pim() {
        let mut cost = CostModel::paper();
        let w = &workloads::gemv_workloads()[3]; // GEMV4
        let r = gemv_micro(&mut cost, w, 1);
        // Paper: "PIM-HBM improves the performance of GEMV by up to 11.2x".
        assert!((9.0..13.0).contains(&r.speedup()), "GEMV4 B1 speedup {}", r.speedup());
        assert!((r.llc_miss - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gemv_batch4_favors_hbm() {
        let mut cost = CostModel::paper();
        let w = &workloads::gemv_workloads()[1];
        let r = gemv_micro(&mut cost, w, 4);

        assert!(r.speedup() < 1.0, "B4 speedup {} should flip to HBM", r.speedup());
        assert!(r.llc_miss < 0.85, "B4 miss {} drops below streaming", r.llc_miss);
    }

    #[test]
    fn add_modestly_favors_pim_at_all_batches() {
        let mut cost = CostModel::paper();
        let w = &workloads::add_workloads()[0];
        for batch in [1, 2, 4] {
            let r = add_micro(&mut cost, w, batch);
            assert!(r.speedup() > 1.0 && r.speedup() < 3.5, "ADD B{batch} speedup {}", r.speedup());
        }
    }

    #[test]
    fn geo_mean_math() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn geo_mean_empty_panics() {
        geo_mean(&[]);
    }
}
