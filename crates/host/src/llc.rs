//! Last-level cache model: the analytic form of how batching raises the
//! LLC hit rate of BLAS kernels ([`batched_miss_rate`]), used by the cost
//! model and the application runner for Fig. 10's batch sweep (tracing a
//! 128 MB GEMM per layer per model per batch would be pointlessly slow; the
//! analytic form is standard tiling arithmetic, documented below).

/// Analytic LLC miss rate of a batched BLAS-2/3 kernel whose dominant
/// traffic is a weight matrix of `weight_bytes` reused across `batch`
/// inputs.
///
/// Derivation: a tiled GEMM touches each weight element once per batch
/// *tile*; with batch `B`, the weight stream amortizes over the batch, so
/// compulsory traffic scales as `1/B`. Real kernels keep a residual stream
/// (activations, partial tiles, TLB/prefetch inefficiency) that does not
/// amortize, captured by `residual`. Weights that fit in the LLC outright
/// are hits after the first pass regardless of batch.
///
/// `miss(B) = residual + (1 - residual) / B` for weights ≫ LLC, clamped by
/// a pure-capacity term otherwise. With `residual = 0.6` this gives
/// 100% / 80% / 70% for B = 1/2/4 — matching Fig. 10's reported drop from
/// "almost ~100%" to "70–80%".
pub fn batched_miss_rate(weight_bytes: u64, llc_bytes: usize, batch: usize) -> f64 {
    assert!(batch >= 1, "batch must be at least 1");
    if weight_bytes <= llc_bytes as u64 / 2 {
        // Comfortably cache-resident (half the LLC left for activations):
        // only compulsory misses on the first pass.
        return (1.0 / batch as f64).min(1.0) * 0.1;
    }
    const RESIDUAL: f64 = 0.6;
    RESIDUAL + (1.0 - RESIDUAL) / batch as f64
}

/// Effective off-chip traffic of the batched kernel in bytes: the weight
/// stream filtered by [`batched_miss_rate`], for all `batch` inputs.
pub fn batched_traffic_bytes(weight_bytes: u64, llc_bytes: usize, batch: usize) -> u64 {
    let miss = batched_miss_rate(weight_bytes, llc_bytes, batch);
    (weight_bytes as f64 * batch as f64 * miss).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_model_matches_fig10_shape() {
        let weights = 128u64 << 20; // 128 MB ≫ 8 MB LLC
        let llc = 8 << 20;
        let b1 = batched_miss_rate(weights, llc, 1);
        let b2 = batched_miss_rate(weights, llc, 2);
        let b4 = batched_miss_rate(weights, llc, 4);
        assert_eq!(b1, 1.0, "B1 is pure streaming: ~100% (Fig. 10)");
        assert!((0.75..=0.85).contains(&b2), "B2 ~80%, got {b2}");
        assert!((0.65..=0.80).contains(&b4), "B4 in the 70-80% band, got {b4}");
        assert!(b1 > b2 && b2 > b4);
    }

    #[test]
    fn cache_resident_weights_mostly_hit() {
        let m = batched_miss_rate(1 << 20, 8 << 20, 1);
        assert!(m < 0.2);
    }

    #[test]
    fn traffic_amortizes_with_batch() {
        let weights = 128u64 << 20;
        let llc = 8 << 20;
        let t1 = batched_traffic_bytes(weights, llc, 1);
        let t4 = batched_traffic_bytes(weights, llc, 4);
        // Per-input traffic drops with batch even as total grows.
        assert!(t4 < 4 * t1);
        assert!((t4 / 4) < t1);
    }
}
