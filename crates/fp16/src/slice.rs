//! Slice conversion and error-measurement helpers.
//!
//! The software stack moves tensors between the host's `f32` world and the
//! PIM device's binary16 world; these helpers are the single place where
//! that happens, and the error metrics are what the test suite uses to
//! compare PIM results against `f32` references.

use crate::F16;

/// Converts a slice of `f32` to binary16 with round-to-nearest-even, bit
/// for bit [`F16::from_f32`] per element: the one bulk entry point, which
/// converts 16 lanes at a time through [`F16::from_f32_lanes`] (a partial
/// last chunk is padded with `+0.0`, which stays on the fast path, and the
/// padding is cut off again).
///
/// ```
/// use pim_fp16::{f32_slice_to_f16, F16};
/// let v = f32_slice_to_f16(&[1.0, 2.0]);
/// assert_eq!(v, vec![F16::from_f32(1.0), F16::from_f32(2.0)]);
/// ```
pub fn f32_slice_to_f16(src: &[f32]) -> Vec<F16> {
    // Room for the padded last chunk, so no extend reallocates.
    let mut out = Vec::with_capacity(src.len() + 16);
    let chunks = src.chunks_exact(16);
    let tail = chunks.remainder();
    for chunk in chunks {
        out.extend(F16::from_f32_lanes::<16>(chunk.try_into().expect("a whole chunk")));
    }
    let mut lanes = [0.0f32; 16];
    lanes[..tail.len()].copy_from_slice(tail);
    out.extend(F16::from_f32_lanes(&lanes));
    out.truncate(src.len());
    out
}

/// Converts a slice of binary16 to `f32` (exact).
///
/// ```
/// use pim_fp16::{f16_slice_to_f32, F16};
/// let v = f16_slice_to_f32(&[F16::ONE]);
/// assert_eq!(v, vec![1.0]);
/// ```
pub fn f16_slice_to_f32(src: &[F16]) -> Vec<f32> {
    src.iter().map(|x| x.to_f32()).collect()
}

/// Maximum absolute difference between a binary16 result and an `f32`
/// reference, element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_error(result: &[F16], reference: &[f32]) -> f32 {
    assert_eq!(result.len(), reference.len(), "result and reference must have the same length");
    result.iter().zip(reference.iter()).map(|(r, &x)| (r.to_f32() - x).abs()).fold(0.0f32, f32::max)
}

/// Maximum error in binary16 ULPs between a result and the correctly rounded
/// binary16 value of an `f32` reference.
///
/// An accumulation of `n` MACs in binary16 legitimately drifts from the f32
/// reference; tests bound that drift in ULPs of the reference magnitude.
///
/// # Panics
///
/// Panics if the slices have different lengths or if either side contains a
/// non-finite value.
pub fn max_ulp_error(result: &[F16], reference: &[f32]) -> u32 {
    assert_eq!(result.len(), reference.len());
    result
        .iter()
        .zip(reference.iter())
        .map(|(r, &x)| {
            assert!(r.is_finite(), "non-finite result {r:?}");
            let want = F16::from_f32(x);
            assert!(want.is_finite(), "non-finite reference {x}");
            ulp_distance(*r, want)
        })
        .max()
        .unwrap_or(0)
}

/// ULP distance between two finite binary16 values, using the total-order
/// integer mapping (so the distance across zero is well defined).
fn ulp_distance(a: F16, b: F16) -> u32 {
    a.total_order_key().abs_diff(b.total_order_key())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_slices() {
        let src = [0.0f32, 1.0, -2.5, 100.0];
        let h = f32_slice_to_f16(&src);
        let back = f16_slice_to_f32(&h);
        assert_eq!(back, src.to_vec());
    }

    #[test]
    fn abs_error_of_exact_values_is_zero() {
        let src = [1.0f32, 2.0, 4.0];
        let h = f32_slice_to_f16(&src);
        assert_eq!(max_abs_error(&h, &src), 0.0);
    }

    #[test]
    fn ulp_error_counts_steps() {
        let one = F16::from_f32(1.0);
        let next = F16::from_bits(one.to_bits() + 1);
        assert_eq!(max_ulp_error(&[next], &[1.0]), 1);
        assert_eq!(max_ulp_error(&[one], &[1.0]), 0);
    }

    #[test]
    fn ulp_distance_across_zero() {
        let pos = F16::from_bits(0x0001);
        let neg = F16::from_bits(0x8001);
        assert_eq!(ulp_distance(pos, neg), 2);
        assert_eq!(ulp_distance(pos, F16::ZERO), 1);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        max_abs_error(&[F16::ONE], &[1.0, 2.0]);
    }
}
