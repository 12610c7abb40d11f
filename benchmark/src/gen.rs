//! Seeded input generators. Every input of every workload is a pure
//! function of `--seed`; nothing here reads a clock, a thread id or the
//! environment. The generators are local copies of the shapes `pim-bench`
//! uses (the harness must not depend on that crate — it is due a rewrite).

use pim_dram::{BankAddr, Command};
use pim_faults::FaultPlan;
use pim_host::Batch;
use pim_runtime::{ServeOp, ServeRequest};

/// SplitMix64 finalizer: the hash behind every seeded decision.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xorshift64* stream.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the stream (0 is remapped — xorshift has a zero fixed point).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 { state: mix(seed).max(1) }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `len` values on a 1/64 grid in [-0.5, 0.5): exactly representable in
/// FP16, small enough that a 4096-term FP16 dot product cannot overflow.
pub fn unit_vector(seed: u64, salt: u64, len: usize) -> Vec<f32> {
    let mut rng = XorShift64::new(mix(seed) ^ salt);
    (0..len).map(|_| ((rng.next_u64() >> 40) % 64) as f32 / 64.0 - 0.5).collect()
}

/// Two `len`-element operands on a 1/8 grid in [-31.75, 31.75]: sums and
/// products stay finite in FP16, so the device's exact-FP16 result is the
/// oracle bit for bit.
pub fn stream_operands(seed: u64, salt: u64, id: u64, len: usize) -> (Vec<f32>, Vec<f32>) {
    // Hashes are chained, not XOR-ed together: `seed ^ id` would make two
    // seeds draw the same multiset of values in a different order.
    let base = mix(mix(mix(seed) ^ salt) ^ id);
    let val = |i: u64, operand: u64| (mix(mix(base ^ operand) ^ i) % 509) as f32 * 0.125 - 31.75;
    let x = (0..len as u64).map(|i| val(i, 0)).collect();
    let y = (0..len as u64).map(|i| val(i, 1)).collect();
    (x, y)
}

/// The `synthetic64` shape: per channel, `triples` × (ACT / 8×RD / PRE)
/// over seeded (bank, row) pairs — single-bank mode, no PIM, no FP16.
pub fn synthetic_batches(channels: usize, triples: usize, seed: u64) -> Vec<Vec<Batch>> {
    (0..channels)
        .map(|ch| {
            let mut rng = XorShift64::new(mix(seed) ^ ch as u64);
            let mut batches = Vec::with_capacity(triples * 3);
            for _ in 0..triples {
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

/// Shape of one open-loop request trace. Arrivals are pre-stamped in
/// *simulated* cycles, so the generator can never run late; in host time a
/// trace is one batch call.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    pub requests: usize,
    pub elements: usize,
    pub tenants: u32,
    /// Mean inter-arrival gap in cycles; gaps are uniform in
    /// `[gap/2, 3*gap/2)`.
    pub gap: u64,
    /// Deadline slack past arrival, in cycles.
    pub slack: u64,
}

/// Builds a seeded trace with a 50/50 `Add`/`Mul` mix and, per request,
/// the exact-FP16 oracle its result must equal bit for bit.
pub fn build_trace(seed: u64, salt: u64, shape: TraceShape) -> (Vec<ServeRequest>, Vec<Vec<f32>>) {
    let base = mix(mix(seed) ^ salt);
    let mut arrival = 0u64;
    let mut oracles = Vec::with_capacity(shape.requests);
    let trace = (0..shape.requests as u64)
        .map(|id| {
            let h = mix(base ^ id);
            arrival += shape.gap / 2 + h % shape.gap.max(1);
            let (x, y) = stream_operands(seed, salt, id, shape.elements);
            let op = if (h >> 40) & 1 == 0 { ServeOp::Add { x, y } } else { ServeOp::Mul { x, y } };
            oracles.push(op.host_reference());
            ServeRequest {
                tenant: (id % u64::from(shape.tenants.max(1))) as u32,
                arrival,
                deadline: arrival + shape.slack,
                groups: None,
                budget: None,
                op,
            }
        })
        .collect();
    (trace, oracles)
}

/// The fault mixture at base rate `r`: transient cell flips dominate,
/// persistent and device faults ride along at fixed fractions, whole-channel
/// failures are rarest.
pub fn fault_mix(seed: u64, rate: f64) -> FaultPlan {
    let mut p = FaultPlan::quiet(seed);
    p.cell_flip_rate = rate;
    p.stuck_cell_rate = rate / 4.0;
    p.stuck_pair_rate = rate / 8.0;
    p.cmd_drop_rate = rate / 4.0;
    p.cmd_corrupt_rate = rate / 4.0;
    p.glitch_rate = rate / 16.0;
    p.chan_fail_rate = rate / 2.0;
    p.chan_stall_rate = rate / 8.0;
    p.stall_penalty = 32;
    p
}
