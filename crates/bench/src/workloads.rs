//! The microbenchmark workloads of Table VI, and the seeded generators
//! the exactness gates and benches share.

use pim_dram::{BankAddr, Command};
use pim_host::Batch;

/// One GEMV microbenchmark: `n × k` (the paper writes them `k × n`-style
/// as "1k×4k" meaning a 4k-input, 1k-output matrix-vector product —
/// dimensioned here so GEMV4 streams 128 MB of weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemvWorkload {
    /// Table VI name.
    pub name: &'static str,
    /// Output dimension.
    pub n: usize,
    /// Input dimension.
    pub k: usize,
}

impl GemvWorkload {
    /// Weight bytes (FP16).
    pub fn weight_bytes(&self) -> u64 {
        (self.n * self.k * 2) as u64
    }
}

/// One element-wise ADD microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddWorkload {
    /// Table VI name.
    pub name: &'static str,
    /// Vector elements.
    pub elements: usize,
}

/// Table VI's four GEMV sizes.
pub fn gemv_workloads() -> Vec<GemvWorkload> {
    vec![
        GemvWorkload { name: "GEMV1", n: 1024, k: 4096 },
        GemvWorkload { name: "GEMV2", n: 2048, k: 4096 },
        GemvWorkload { name: "GEMV3", n: 4096, k: 8192 },
        GemvWorkload { name: "GEMV4", n: 8192, k: 8192 },
    ]
}

/// Table VI's four ADD sizes.
pub fn add_workloads() -> Vec<AddWorkload> {
    vec![
        AddWorkload { name: "ADD1", elements: 2 << 20 },
        AddWorkload { name: "ADD2", elements: 4 << 20 },
        AddWorkload { name: "ADD3", elements: 8 << 20 },
        AddWorkload { name: "ADD4", elements: 16 << 20 },
    ]
}

/// The BN workload of Fig. 14 ("a batch-normalization kernel (BN) with the
/// same input size as ADD") — paired with each ADD size.
pub fn bn_workloads() -> Vec<AddWorkload> {
    add_workloads()
        .into_iter()
        .map(|w| AddWorkload {
            name: match w.name {
                "ADD1" => "BN1",
                "ADD2" => "BN2",
                "ADD3" => "BN3",
                _ => "BN4",
            },
            elements: w.elements,
        })
        .collect()
}

/// A deterministic xorshift64* stream — the generators can't use `rand`
/// (it is a dev-dependency only).
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the stream (0 is remapped — xorshift has a zero fixed point).
    fn new(seed: u64) -> XorShift64 {
        XorShift64 { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Builds the seeded synthetic workload: `channels` batch lists, each
/// `batches_per_channel` fenced 8-read batches bracketed by row management,
/// over pseudo-random (bank, row) pairs.
///
/// Fully deterministic in `(channels, batches_per_channel, seed)`: the
/// generator never consults the clock or the thread, so the same arguments
/// describe the same kernel on every machine — the property the exact
/// cycle/command pin in `tests/parallel_determinism.rs` rests on.
pub fn synthetic_batches(
    channels: usize,
    batches_per_channel: usize,
    seed: u64,
) -> Vec<Vec<Batch>> {
    (0..channels)
        .map(|ch| {
            let mut rng = XorShift64::new(seed ^ (ch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut batches = Vec::with_capacity(batches_per_channel * 3);
            for _ in 0..batches_per_channel {
                let r = rng.next_u64();
                let bank = BankAddr::new((r & 3) as u8, ((r >> 2) & 3) as u8);
                let row = ((r >> 4) & 0x1FFF) as u32;
                batches.push(Batch::setup(vec![Command::Act { bank, row }]));
                batches.push(Batch::commutative(
                    (0..8).map(|c| Command::Rd { bank, col: c }).collect(),
                ));
                batches.push(Batch::setup(vec![Command::Pre { bank }]));
            }
            batches
        })
        .collect()
}

/// Deterministic weight matrix for a bench shape.
pub fn bench_weights(n: usize, k: usize) -> Vec<f32> {
    let mut rng = XorShift64::new(0xFA57_0000 ^ (n as u64) << 20 ^ k as u64);
    (0..n * k).map(|_| ((rng.next_u64() % 64) as f32 - 32.0) / 64.0).collect()
}

/// Deterministic input vector `salt` for a bench shape.
pub fn bench_input(k: usize, salt: u64) -> Vec<f32> {
    let mut rng = XorShift64::new(0x1A7C_0000 ^ (k as u64) << 8 ^ salt);
    (0..k).map(|_| ((rng.next_u64() % 32) as f32 - 16.0) / 32.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_sizes() {
        let g = gemv_workloads();
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].name, "GEMV1");
        assert_eq!((g[0].n, g[0].k), (1024, 4096));
        assert_eq!((g[3].n, g[3].k), (8192, 8192));
        assert_eq!(g[3].weight_bytes(), 128 << 20);
        let a = add_workloads();
        assert_eq!(a[0].elements, 2 << 20);
        assert_eq!(a[3].elements, 16 << 20);
        assert_eq!(bn_workloads()[2].name, "BN3");
    }

    #[test]
    fn synthetic_workload_is_deterministic() {
        let a = synthetic_batches(4, 3, 42);
        let b = synthetic_batches(4, 3, 42);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].len(), 9);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.commands, y.commands);
        }
        // Different channels get different rows.
        assert_ne!(format!("{:?}", a[0][0].commands), format!("{:?}", a[1][0].commands));
    }
}
