//! Property-based tests for the softfloat implementations.
//!
//! These pin down the IEEE-754 semantics the PIM datapath depends on by
//! comparing against the host's native `f32`/`f64` arithmetic over random
//! inputs, including exhaustive sweeps of the 16-bit space where cheap.

use pim_fp16::F16;
use proptest::prelude::*;

/// An arbitrary finite F16 via a random bit pattern with a non-max exponent.
fn finite_f16() -> impl Strategy<Value = F16> {
    any::<u16>().prop_map(F16::from_bits).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    /// from_f32 must agree with the reference "cast via f64 comparison":
    /// the produced value is one of the two binary16 neighbours of the input,
    /// and of those two it is the closer one (ties broken to even).
    #[test]
    fn from_f32_is_nearest(x in -70000.0f32..70000.0) {
        let h = F16::from_f32(x);
        prop_assume!(h.is_finite());
        let v = h.to_f64();
        let err = (v - x as f64).abs();
        // Any neighbouring representable value must not be closer.
        let bits = h.to_bits();
        for nb in [bits.wrapping_sub(1), bits.wrapping_add(1)] {
            let n = F16::from_bits(nb);
            if n.is_finite() {
                let nerr = (n.to_f64() - x as f64).abs();
                prop_assert!(err <= nerr + f64::EPSILON,
                    "{x} -> {v} (err {err}) but neighbour {} closer (err {nerr})", n.to_f64());
            }
        }
    }

    /// Addition is commutative on non-NaN values.
    #[test]
    fn add_commutes(a in finite_f16(), b in finite_f16()) {
        let ab = a + b;
        let ba = b + a;
        if !ab.is_nan() {
            prop_assert_eq!(ab.to_bits(), ba.to_bits());
        }
    }

    /// Multiplication is commutative on non-NaN values.
    #[test]
    fn mul_commutes(a in finite_f16(), b in finite_f16()) {
        let ab = a * b;
        if !ab.is_nan() {
            prop_assert_eq!(ab.to_bits(), (b * a).to_bits());
        }
    }

    /// x + 0 == x for finite x (sign of zero per IEEE: +0 is the identity).
    #[test]
    fn additive_identity(a in finite_f16()) {
        prop_assert_eq!((a + F16::ZERO).to_f32(), a.to_f32());
    }

    /// x * 1 == x exactly for finite x.
    #[test]
    fn multiplicative_identity(a in finite_f16()) {
        prop_assert_eq!((a * F16::ONE).to_bits(), a.to_bits());
    }

    /// x - x == +0 for finite x (round-to-nearest mode).
    #[test]
    fn self_subtraction_is_zero(a in finite_f16()) {
        prop_assert!((a - a).is_zero());
    }

    /// MAC equals explicit two-step computation.
    #[test]
    fn mac_is_two_step(a in finite_f16(), b in finite_f16(), c in finite_f16()) {
        let mac = a.mac(b, c);
        let explicit = (a * b) + c;
        if mac.is_nan() {
            prop_assert!(explicit.is_nan());
        } else {
            prop_assert_eq!(mac.to_bits(), explicit.to_bits());
        }
    }

    /// ReLU output is never negative-signed and is idempotent.
    #[test]
    fn relu_properties(a in any::<u16>().prop_map(F16::from_bits)) {
        let r = a.relu();
        prop_assert!(!r.is_sign_negative());
        prop_assert_eq!(r.relu().to_bits(), r.to_bits());
    }

    /// Rounding is monotone: x <= y implies round(x) <= round(y).
    #[test]
    fn rounding_is_monotone(x in -70000.0f32..70000.0, y in -70000.0f32..70000.0) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        let rl = F16::from_f32(lo);
        let rh = F16::from_f32(hi);
        prop_assert!(rl <= rh, "round({lo})={rl:?} > round({hi})={rh:?}");
    }
}

/// Exhaustive: negation is an involution over every bit pattern.
#[test]
fn negation_involution_exhaustive() {
    for bits in 0u16..=u16::MAX {
        let x = F16::from_bits(bits);
        assert_eq!((-(-x)).to_bits(), bits);
    }
}

/// Exhaustive: abs clears exactly the sign bit.
#[test]
fn abs_exhaustive() {
    for bits in 0u16..=u16::MAX {
        let x = F16::from_bits(bits);
        assert_eq!(x.abs().to_bits(), bits & 0x7FFF);
    }
}

/// Exhaustive single-operand sweep: doubling any finite value matches the
/// f32 reference rounded back to binary16.
#[test]
fn doubling_matches_reference_exhaustive() {
    let two = F16::from_f32(2.0);
    for bits in 0u16..=u16::MAX {
        let x = F16::from_bits(bits);
        if !x.is_finite() {
            continue;
        }
        let got = x * two;
        let want = F16::from_f32(x.to_f32() * 2.0);
        if got.is_nan() {
            assert!(want.is_nan());
        } else {
            assert_eq!(got.to_bits(), want.to_bits(), "bits 0x{bits:04X}");
        }
    }
}
