//! Helpers shared by the serving / cluster / chaos integration tests:
//! seeded requests with their exact-FP16 oracle, GEMV inputs with the
//! single-stack reference, and bit-exact slice comparison.
#![allow(dead_code)] // each test binary uses its own subset

use pim_runtime::{PimBlas, PimContext, ServeOp, ServeRequest};

pub fn add_req(tenant: u32, arrival: u64, deadline: u64, n: usize) -> ServeRequest {
    let x: Vec<f32> = (0..n).map(|i| ((i * 7 + 3) % 41) as f32 * 0.25 - 5.0).collect();
    let y: Vec<f32> = (0..n).map(|i| ((i * 11 + 1) % 29) as f32 * 0.5 - 7.0).collect();
    ServeRequest {
        tenant,
        arrival,
        deadline,
        groups: None,
        budget: None,
        op: ServeOp::Add { x, y },
    }
}

pub fn add_oracle(req: &ServeRequest) -> Vec<f32> {
    let ServeOp::Add { x, y } = &req.op else { unreachable!() };
    pim_bench::campaign::add_oracle(x, y)
}

pub fn gemv_inputs(n: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
    let w: Vec<f32> = (0..n * k).map(|i| ((i * 13 + 5) % 37) as f32 * 0.125 - 2.0).collect();
    let x: Vec<f32> = (0..k).map(|i| ((i * 7 + 1) % 23) as f32 * 0.25 - 2.5).collect();
    (w, x)
}

pub fn single_stack_gemv(n: usize, k: usize, w: &[f32], x: &[f32]) -> Vec<f32> {
    let mut ctx = PimContext::small_system();
    PimBlas::gemv(&mut ctx, w, n, k, x).unwrap().0
}

pub fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// `run` must produce the same value under the sequential backend and 2 / 4
/// worker threads; returns the sequential one.
pub fn assert_backend_invariant<T: PartialEq + std::fmt::Debug>(
    run: impl Fn(pim_host::ExecutionBackend) -> T,
) -> T {
    use pim_host::ExecutionBackend::{Sequential, Threads};
    let seq = run(Sequential);
    assert_eq!(seq, run(Threads(2)), "Threads(2) diverged");
    assert_eq!(seq, run(Threads(4)), "Threads(4) diverged");
    seq
}
