//! Last-level cache model.
//!
//! Two layers:
//!
//! * [`Llc`] — a functional set-associative LRU cache driven by address
//!   traces, used in tests and for small-kernel miss-rate measurements;
//! * [`batched_miss_rate`] — the analytic model of how batching raises the
//!   LLC hit rate of BLAS kernels, used by the application runner for
//!   Fig. 10's batch sweep (tracing a 128 MB GEMM per layer per model per
//!   batch would be pointlessly slow; the analytic form is standard tiling
//!   arithmetic, documented below).

/// A set-associative, LRU, write-allocate cache model.
///
/// # Example
///
/// ```
/// use pim_host::Llc;
/// let mut c = Llc::new(1024, 64, 4);
/// assert!(!c.access(0));      // cold miss
/// assert!(c.access(0));       // hit
/// assert!(c.access(32));      // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    line: usize,
    sets: usize,
    ways: usize,
    /// `tags[set]` = lines in LRU order (front = most recent).
    tags: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates a cache of `capacity` bytes with `line`-byte lines and
    /// `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways × line` sets, or non-power-of-two line size).
    pub fn new(capacity: usize, line: usize, ways: usize) -> Llc {
        assert!(line.is_power_of_two() && line > 0, "line size must be a power of two");
        assert!(
            ways > 0 && capacity.is_multiple_of(ways * line),
            "capacity must be sets*ways*line"
        );
        let sets = capacity / (ways * line);
        Llc { line, sets, ways, tags: vec![Vec::new(); sets], hits: 0, misses: 0 }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate (LRU
    /// eviction).
    pub fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.line as u64;
        let set = (line_addr % self.sets as u64) as usize;
        let ways = &mut self.tags[set];
        if let Some(pos) = ways.iter().position(|&t| t == line_addr) {
            ways.remove(pos);
            ways.insert(0, line_addr);
            self.hits += 1;
            true
        } else {
            ways.insert(0, line_addr);
            ways.truncate(self.ways);
            self.misses += 1;
            false
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

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
    fn streaming_misses_everything() {
        let mut c = Llc::new(64 * 64, 64, 4); // 4 KiB
        for i in 0..1024u64 {
            c.access(i * 64);
        }
        assert_eq!((c.hits(), c.misses()), (0, 1024));
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = Llc::new(64 * 64, 64, 4);
        let lines = 32u64; // half the cache
        for _ in 0..2 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        let warmup_misses = c.misses();
        for i in 0..lines {
            assert!(c.access(i * 64), "line {i} should hit");
        }
        assert_eq!(c.misses(), warmup_misses);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Llc::new(4 * 64, 64, 4); // one set, 4 ways
        for i in 0..4u64 {
            c.access(i * 64); // all map to set 0 (single set)
        }
        c.access(4 * 64); // evicts line 0
        assert!(!c.access(0), "line 0 was evicted");
        assert!(c.access(4 * 64));
    }

    #[test]
    fn spatial_locality_within_line() {
        let mut c = Llc::new(1024, 64, 4);
        assert!(!c.access(128));
        assert!(c.access(129));
        assert!(c.access(191));
        assert!(!c.access(192));
    }

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

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Llc::new(1000, 60, 4);
    }
}
