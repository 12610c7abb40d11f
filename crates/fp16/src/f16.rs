//! IEEE-754 binary16 implemented from scratch on top of a `u16` bit pattern.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An IEEE-754 binary16 ("half precision") floating-point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 fraction bits.
/// This is the number format of every lane of the PIM execution unit's
/// 16-wide SIMD FPU (Table IV of the paper).
///
/// All conversions and operations round to nearest, ties to even, exactly as
/// IEEE-754 requires; see the crate-level documentation for the correctness
/// argument.
///
/// # Example
///
/// ```
/// use pim_fp16::F16;
///
/// let x = F16::from_f32(0.1);
/// // 0.1 is not representable; the nearest binary16 is 0.0999755859375.
/// assert!((x.to_f32() - 0.1).abs() < 1e-4);
/// assert_eq!(F16::from_bits(x.to_bits()), x);
/// ```
#[derive(Clone, Copy, Default)]
pub struct F16(u16);

const EXP_BITS: u32 = 5;
const FRAC_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;
const EXP_MASK: u16 = ((1 << EXP_BITS) - 1) << FRAC_BITS; // 0x7C00
const FRAC_MASK: u16 = (1 << FRAC_BITS) - 1; // 0x03FF
const SIGN_MASK: u16 = 0x8000;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// The difference between `1.0` and the next larger representable value,
    /// `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates a value from its raw IEEE-754 binary16 bit pattern.
    ///
    /// ```
    /// use pim_fp16::F16;
    /// assert_eq!(F16::from_bits(0x3C00), F16::ONE);
    /// ```
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw IEEE-754 binary16 bit pattern.
    ///
    /// ```
    /// use pim_fp16::F16;
    /// assert_eq!(F16::ONE.to_bits(), 0x3C00);
    /// ```
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values too large for binary16 become infinity; values too small become
    /// (possibly signed) zero, passing through the subnormal range with
    /// correct rounding. Every NaN input folds to the canonical quiet NaN
    /// `0x7E00` (payload and sign dropped): f32 arithmetic leaves NaN
    /// payload and sign operand-order-dependent, so canonicalizing here is
    /// what keeps f32-backed binary16 arithmetic deterministic.
    ///
    /// This is a from-scratch bit manipulation, not a cast: it is the
    /// reference conversion everything else in the workspace relies on.
    #[inline]
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let exp = (bits >> 23) & 0xFF;
        // Fast path: f32 exponents 113..=142 are exactly the inputs whose
        // rounded binary16 result is normal (or rolls into infinity via a
        // full mantissa carry, which the add below produces correctly:
        // a carry out of exponent 142 yields 31 << 10 == the infinity bit
        // pattern with a zero fraction). Round-to-nearest-even over the 13
        // dropped mantissa bits is the classic "add half, biased by the
        // kept LSB" increment. `tests::fast_path_matches_general` pins this
        // against the general path over every boundary mantissa.
        if (113..=142).contains(&exp) {
            let sign = ((bits >> 16) & 0x8000) as u16;
            let half = 0x0FFF + ((bits >> 13) & 1);
            let rounded = ((bits + half) >> 13) & 0x3_FFFF;
            return F16(sign | (rounded - (112 << 10)) as u16);
        }
        Self::from_f32_general(bits)
    }

    /// Converts 16 (or any `N`) `f32` lanes at once: `out[i] ==
    /// F16::from_f32(x[i])` for every lane, bit for bit
    /// (`tests::from_f32_lanes_matches_scalar`, and an ignored sweep of all
    /// 2^32 patterns). This is the bulk converter every host-to-PIM tensor
    /// crossing goes through ([`crate::f32_slice_to_f16`]).
    ///
    /// In the style of [`F16::mac_lanes`]: the fast-range narrow is applied
    /// to every lane unconditionally, with a select for the signed zeros,
    /// and a per-lane mask records whether the lane stayed inside its
    /// proven domain; if any lane strayed (a subnormal or zero result from
    /// a nonzero input, overflow, infinity, NaN), the whole call is redone
    /// through the scalar [`F16::from_f32`].
    pub fn from_f32_lanes<const N: usize>(x: &[f32; N]) -> [F16; N] {
        let mut out = [F16::ZERO; N];
        let mut slow = false;
        for i in 0..N {
            // `from_f32`'s fast path: exact for f32 exponents 113..=142,
            // whose rounded result is normal or rolls into infinity through
            // a full mantissa carry (31 << 10 is the infinity pattern), and
            // here also for the signed zeros, through the select.
            let bits = x[i].to_bits();
            let rounded = (bits.wrapping_add(0x0FFF + ((bits >> 13) & 1)) >> 13) & 0x3_FFFF;
            let zero = bits & 0x7FFF_FFFF == 0;
            let mag16 = if zero { 0 } else { rounded.wrapping_sub(112 << 10) as u16 };
            out[i] = F16(((bits >> 16) & 0x8000) as u16 | mag16);
            slow |= !((((bits >> 23) & 0xFF).wrapping_sub(113) <= 142 - 113) | zero);
        }
        if slow {
            out = x.map(F16::from_f32);
        }
        out
    }

    /// The general conversion covering every case (zeros, subnormals,
    /// overflow, infinity, NaN — and the normal range, making it a complete
    /// reference for the fast path above).
    fn from_f32_general(bits: u32) -> F16 {
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN.
            return if frac == 0 {
                F16(sign | EXP_MASK)
            } else {
                // Canonical quiet NaN, matching the softfloat reference.
                // The payload and sign of an f32 arithmetic NaN are not
                // specified by IEEE 754 and in practice depend on operand
                // order, which the optimizer is free to commute — so
                // folding every NaN to one pattern is the only way
                // f32-backed binary16 arithmetic can be deterministic.
                F16(0x7E00)
            };
        }

        // Unbiased exponent of the f32 value (f32 bias is 127).
        let unbiased = exp - 127;
        // Target binary16 biased exponent.
        let half_exp = unbiased + EXP_BIAS;

        if half_exp >= 0x1F {
            // Overflow to infinity. (Round-to-nearest-even sends everything
            // at or above 65520 to infinity; 65519.996.. rounds to MAX. The
            // threshold falls out of the exponent check because values below
            // 2^16 - 2^4 have half_exp == 0x1E after rounding, handled below
            // via mantissa carry.)
            return F16(sign | EXP_MASK);
        }

        // Full 24-bit significand of the f32 (with implicit leading one when
        // normal).
        let significand = frac | if exp != 0 { 0x0080_0000 } else { 0 };

        if half_exp <= 0 {
            // The value is subnormal in binary16 (or underflows to zero).
            // We need to shift the significand right by (14 - unbiased)
            // + 13 extra bits; i.e. total shift = 13 + 1 - half_exp.
            let shift = 14 - half_exp; // >= 14, applied to the 24-bit sig.
            if shift > 24 {
                // The value is below half of the smallest subnormal (the
                // 24-bit significand is < 2^24 == the rounding midpoint at
                // shift 25), so it always underflows to signed zero.
                return F16(sign);
            }
            let shifted = significand >> shift;
            let remainder = significand & ((1u32 << shift) - 1);
            let half = 1u32 << (shift - 1);
            let mut result = shifted as u16;
            if remainder > half || (remainder == half && (result & 1) == 1) {
                result += 1; // May carry into the exponent field: that is
                             // correct (smallest normal).
            }
            return F16(sign | result);
        }

        // Normal range: keep the top 11 bits of the 24-bit significand.
        let shift = 13u32;
        let shifted = significand >> shift; // 11 bits incl. leading one.
        let remainder = significand & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut result = ((half_exp as u16) << FRAC_BITS) | (shifted as u16 & FRAC_MASK);
        if remainder > half || (remainder == half && (result & 1) == 1) {
            result += 1; // Carry may roll fraction into exponent and exponent
                         // into infinity — all correct by construction.
        }
        F16(sign | result)
    }

    /// Converts to `f32`. This conversion is exact: every binary16 value is
    /// representable in binary32.
    ///
    /// Finite values go through a branch-free rescale: placing the 15
    /// exponent+fraction bits at the f32 mantissa/exponent boundary
    /// (`em << 13`) yields `magnitude × 2^-112` exactly — normals land as
    /// normals with a biased-low exponent, subnormals land as f32
    /// subnormals — so one exact multiply by `2^112` (`0x7780_0000`)
    /// restores the value. Only infinity/NaN take a branch.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let bits = u32::from(self.0);
        let sign = (bits & 0x8000) << 16;
        let em = bits & 0x7FFF;
        if em < 0x7C00 {
            let mag = f32::from_bits(em << 13) * f32::from_bits(0x7780_0000);
            return f32::from_bits(mag.to_bits() | sign);
        }
        let frac = em & 0x3FF;
        let mag = if frac == 0 {
            0x7F80_0000 // infinity
        } else {
            0x7FC0_0000 | (frac << 13) // NaN, payload kept, quiet bit set
        };
        f32::from_bits(sign | mag)
    }

    /// Converts to `f64` (exact).
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// `true` if this value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) == 0
    }

    /// `true` if this value is neither infinite nor NaN.
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// `true` if this value is positive or negative zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// `true` if the sign bit is set (including `-0.0` and negative NaN).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// The absolute value (clears the sign bit).
    pub fn abs(self) -> F16 {
        F16(self.0 & !SIGN_MASK)
    }

    /// The PIM `MOV(ReLU)` activation: zero for negative inputs, identity
    /// otherwise (Section III-C).
    ///
    /// The silicon implements ReLU as "a 2-to-1 multiplexer controlled by the
    /// sign bit of a given input value", which maps `-0.0` to `+0.0` and
    /// negative NaNs to zero as well; we reproduce exactly that mux.
    ///
    /// ```
    /// use pim_fp16::F16;
    /// assert_eq!(F16::from_f32(-3.0).relu(), F16::ZERO);
    /// assert_eq!(F16::from_f32(3.0).relu(), F16::from_f32(3.0));
    /// assert_eq!(F16::NEG_ZERO.relu(), F16::ZERO);
    /// ```
    #[inline]
    pub fn relu(self) -> F16 {
        if self.is_sign_negative() {
            F16::ZERO
        } else {
            self
        }
    }

    /// The hardware MAC of the PIM FPU: `round16(round16(self * b) + acc)`.
    ///
    /// The multiplier (pipeline stage 3) and adder (stage 4) each round to
    /// binary16 — this is *not* a fused multiply-add. See the crate docs.
    ///
    /// ```
    /// use pim_fp16::F16;
    /// let acc = F16::from_f32(1.0);
    /// let r = F16::from_f32(2.0).mac(F16::from_f32(3.0), acc);
    /// assert_eq!(r.to_f32(), 7.0);
    /// ```
    #[inline]
    pub fn mac(self, b: F16, acc: F16) -> F16 {
        // Semantically exactly `(self * b) + acc` (the test
        // `mac_equals_explicit_two_step` pins the equivalence), but the
        // intermediate product is rounded to binary16 *in the f32 domain*,
        // skipping the u16 pack/unpack between the two stages. The product
        // of two 11-bit significands is exact in f32 (22 <= 24 bits), so
        // rounding its f32 bit pattern to 10 kept mantissa bits is the same
        // round-to-nearest-even `from_f32` performs. Only exponents
        // 113..=141 qualify: the result is then a normal binary16 even
        // after a mantissa carry (141 -> 142 stays finite). Exponent 142
        // must take the general path because a carry there means infinity,
        // which the f32-domain bit arithmetic would misrepresent as 2^16.
        let p = self.to_f32() * b.to_f32();
        F16::from_f32(Self::round16_in_f32(p) + acc.to_f32())
    }

    /// Rounds `p` to the nearest binary16 value, returned as the exactly
    /// equal `f32` — semantically `F16::from_f32(p).to_f32()` without the
    /// u16 pack/unpack when the result is a normal binary16.
    #[inline]
    fn round16_in_f32(p: f32) -> f32 {
        let bits = p.to_bits();
        let exp = (bits >> 23) & 0xFF;
        if (113..=141).contains(&exp) {
            let half = 0x0FFF + ((bits >> 13) & 1);
            f32::from_bits((bits + half) & !0x1FFF)
        } else {
            // Exponent 142 is excluded even though `from_f32` keeps it in
            // its fast range: a mantissa carry there means the binary16
            // result is infinity, which the f32-domain arithmetic would
            // misrepresent as the finite 2^16.
            F16::from_f32(p).to_f32()
        }
    }

    /// The hardware MAD: `round16(round16(self * b) + c)` where `c` comes
    /// from a different register file than the destination (Section III-C).
    /// Numerically identical to [`F16::mac`]; kept separate to mirror the ISA.
    #[inline]
    pub fn mad(self, b: F16, c: F16) -> F16 {
        self.mac(b, c)
    }

    /// Lane-parallel [`F16::mac`]: `out[i] = a[i].mac(b[i], acc[i])` for
    /// every lane, bit for bit (`tests::mac_lanes_matches_scalar` pins the
    /// equivalence over specials and random fills).
    ///
    /// The hot body is a branch-free, select-only loop over the same
    /// formulas the scalar operators use on their fast paths — the
    /// rescaling widen of [`F16::to_f32`], the f32-domain rounding of
    /// `round16_in_f32`, and the narrowing add of [`F16::from_f32`] — so
    /// the compiler can keep all lanes in SIMD registers. Each formula is
    /// applied unconditionally and a per-lane mask records whether the
    /// lane stayed inside the proven domain (finite inputs, product
    /// exponent 113..=141 or zero, sum exponent 113..=142 or zero); if any
    /// lane strayed, the whole call redoes every lane through the scalar
    /// [`F16::mac`], whose general paths cover all specials.
    pub fn mac_lanes<const N: usize>(a: &[F16; N], b: &[F16; N], acc: &[F16; N]) -> [F16; N] {
        let mut out = [F16::ZERO; N];
        let mut slow = false;
        for i in 0..N {
            let ab = u32::from(a[i].0);
            let bb = u32::from(b[i].0);
            let cb = u32::from(acc[i].0);
            let a_em = ab & 0x7FFF;
            let b_em = bb & 0x7FFF;
            let c_em = cb & 0x7FFF;
            // Widen: exact for every finite input (the non-finite lanes
            // are caught by the mask below and redone by the fallback).
            let scale = f32::from_bits(0x7780_0000); // 2^112
            let a32 = f32::from_bits(
                (f32::from_bits(a_em << 13) * scale).to_bits() | ((ab & 0x8000) << 16),
            );
            let b32 = f32::from_bits(
                (f32::from_bits(b_em << 13) * scale).to_bits() | ((bb & 0x8000) << 16),
            );
            let c32 = f32::from_bits(
                (f32::from_bits(c_em << 13) * scale).to_bits() | ((cb & 0x8000) << 16),
            );
            // Stage 3, the multiplier: exact in f32, then rounded to
            // binary16 in the f32 domain. The bit formula is also exact
            // for a signed-zero product (adding 0x0FFF never reaches bit
            // 13), so only exponents outside 113..=141 need the fallback.
            let p = a32 * b32;
            let pbits = p.to_bits();
            let p_exp = (pbits >> 23) & 0xFF;
            let ph = 0x0FFF + ((pbits >> 13) & 1);
            let r = f32::from_bits(pbits.wrapping_add(ph) & !0x1FFF);
            // Stage 4, the adder: add and narrow, `from_f32`'s fast-range
            // formula with an explicit select for the signed-zero sum.
            let s = r + c32;
            let sbits = s.to_bits();
            let s_exp = (sbits >> 23) & 0xFF;
            let sh = 0x0FFF + ((sbits >> 13) & 1);
            let rounded = (sbits.wrapping_add(sh) >> 13) & 0x3_FFFF;
            let sign16 = ((sbits >> 16) & 0x8000) as u16;
            let mag16 =
                if sbits & 0x7FFF_FFFF == 0 { 0 } else { rounded.wrapping_sub(112 << 10) as u16 };
            out[i] = F16(sign16 | mag16);
            let p_ok = (p_exp.wrapping_sub(113) <= 141 - 113) | (pbits & 0x7FFF_FFFF == 0);
            let s_ok = (s_exp.wrapping_sub(113) <= 142 - 113) | (sbits & 0x7FFF_FFFF == 0);
            let finite = (a_em < 0x7C00) & (b_em < 0x7C00) & (c_em < 0x7C00);
            slow |= !(p_ok & s_ok & finite);
        }
        if slow {
            for i in 0..N {
                out[i] = a[i].mac(b[i], acc[i]);
            }
        }
        out
    }

    /// Lane-parallel `+`: `out[i] = a[i] + b[i]` for every lane, bit for
    /// bit (`tests::add_mul_lanes_match_scalar_operators`), in the style of
    /// [`F16::mac_lanes`].
    pub fn add_lanes<const N: usize>(a: &[F16; N], b: &[F16; N]) -> [F16; N] {
        Self::binary_lanes(a, b, |x, y| x + y)
    }

    /// Lane-parallel `*`: `out[i] = a[i] * b[i]` for every lane, bit for
    /// bit, in the style of [`F16::mac_lanes`].
    pub fn mul_lanes<const N: usize>(a: &[F16; N], b: &[F16; N]) -> [F16; N] {
        Self::binary_lanes(a, b, |x, y| x * y)
    }

    /// One single-rounding FPU stage over all lanes:
    /// `out[i] = from_f32(op(a[i].to_f32(), b[i].to_f32()))`, which is how
    /// the scalar `+` and `*` are defined. Branch-free and select-only like
    /// [`F16::mac_lanes`]: the rescaling widen and the fast-range narrow are
    /// applied unconditionally, a mask records whether every lane stayed
    /// inside their proven domain (finite inputs, result exponent
    /// 113..=142 or a signed zero), and if any lane strayed the whole call
    /// is redone through the scalar conversions, whose general paths cover
    /// subnormal results, overflow and every special.
    #[inline(always)]
    fn binary_lanes<const N: usize>(
        a: &[F16; N],
        b: &[F16; N],
        op: impl Fn(f32, f32) -> f32,
    ) -> [F16; N] {
        let mut out = [F16::ZERO; N];
        let mut slow = false;
        for i in 0..N {
            let ab = u32::from(a[i].0);
            let bb = u32::from(b[i].0);
            let a_em = ab & 0x7FFF;
            let b_em = bb & 0x7FFF;
            let scale = f32::from_bits(0x7780_0000); // 2^112
            let a32 = f32::from_bits(
                (f32::from_bits(a_em << 13) * scale).to_bits() | ((ab & 0x8000) << 16),
            );
            let b32 = f32::from_bits(
                (f32::from_bits(b_em << 13) * scale).to_bits() | ((bb & 0x8000) << 16),
            );
            let rbits = op(a32, b32).to_bits();
            let r_exp = (rbits >> 23) & 0xFF;
            let half = 0x0FFF + ((rbits >> 13) & 1);
            let rounded = (rbits.wrapping_add(half) >> 13) & 0x3_FFFF;
            let sign16 = ((rbits >> 16) & 0x8000) as u16;
            let zero = rbits & 0x7FFF_FFFF == 0;
            let mag16 = if zero { 0 } else { rounded.wrapping_sub(112 << 10) as u16 };
            out[i] = F16(sign16 | mag16);
            let r_ok = (r_exp.wrapping_sub(113) <= 142 - 113) | zero;
            slow |= !(r_ok & (a_em < 0x7C00) & (b_em < 0x7C00));
        }
        if slow {
            for i in 0..N {
                out[i] = F16::from_f32(op(a[i].to_f32(), b[i].to_f32()));
            }
        }
        out
    }

    /// Total-order comparison key used by tests: maps the bit pattern to a
    /// monotonically increasing integer (negative values reversed).
    pub(crate) fn total_order_key(self) -> i32 {
        let bits = self.0 as i32;
        if bits & 0x8000 != 0 {
            0x8000 - bits
        } else {
            bits
        }
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} /* 0x{:04X} */)", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialEq for F16 {
    /// IEEE semantics: NaN != NaN, and `-0.0 == +0.0`.
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        if self.is_nan() || other.is_nan() {
            return None;
        }
        if self.is_zero() && other.is_zero() {
            return Some(Ordering::Equal);
        }
        Some(self.total_order_key().cmp(&other.total_order_key()))
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl Add for F16 {
    type Output = F16;
    /// Correctly rounded binary16 addition (see crate docs for the double-
    /// rounding argument).
    #[inline]
    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F16 {
    type Output = F16;
    #[inline]
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = F16;
    /// Correctly rounded binary16 multiplication.
    #[inline]
    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = F16;
    /// Correctly rounded binary16 division. The PIM ISA has no divide; this
    /// exists for host-side reference computations.
    fn div(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation of [`F16::to_f32`] by explicit field
    /// re-encoding; kept for the exhaustive equivalence test.
    fn to_f32_general(h: F16) -> f32 {
        let sign = ((h.0 & SIGN_MASK) as u32) << 16;
        let exp = ((h.0 & EXP_MASK) >> FRAC_BITS) as u32;
        let frac = (h.0 & FRAC_MASK) as u32;

        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal: renormalize. value = frac * 2^-24 with the
                // highest set bit of `frac` at position p: 1.m * 2^(p-24).
                let shift = frac.leading_zeros() - 21; // 10 - p
                let normalized_frac = (frac << shift) & 0x3FF;
                let exp32 = 113 - shift; // (10 - shift) + (127 - 24)
                sign | (exp32 << 23) | (normalized_frac << 13)
            }
        } else if exp == 0x1F {
            if frac == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (frac << 13)
            }
        } else {
            let exp32 = exp + (127 - 15);
            sign | (exp32 << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    #[test]
    fn constants_have_expected_bit_patterns() {
        assert_eq!(F16::ZERO.to_bits(), 0x0000);
        assert_eq!(F16::NEG_ZERO.to_bits(), 0x8000);
        assert_eq!(F16::ONE.to_bits(), 0x3C00);
        assert_eq!(F16::INFINITY.to_bits(), 0x7C00);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn roundtrip_simple_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 100.0, -0.25, 65504.0] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY); // exact midpoint ties to even=Inf
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn underflow_and_subnormals() {
        // 2^-24 is the smallest subnormal.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        // Half of that ties to even => zero.
        assert_eq!(F16::from_f32(tiny / 2.0).to_bits(), 0x0000);
        // Slightly more than half rounds up.
        assert_eq!(F16::from_f32(tiny * 0.75).to_bits(), 0x0001);
        // Way below underflows to zero.
        assert_eq!(F16::from_f32(1e-30), F16::ZERO);
        assert_eq!(F16::from_f32(-1e-30), F16::NEG_ZERO);
        // Subnormal arithmetic round-trips exactly.
        let sub = F16::from_bits(0x0123);
        assert_eq!(F16::from_f32(sub.to_f32()).to_bits(), 0x0123);
    }

    #[test]
    fn subnormal_boundary_rounds_to_min_normal() {
        // The largest subnormal plus half a ULP rounds up into the normal
        // range — the mantissa carry must flow into the exponent field.
        let largest_sub = F16::from_bits(0x03FF).to_f32();
        let min_normal = F16::MIN_POSITIVE.to_f32();
        let mid = (largest_sub + min_normal) / 2.0;
        assert_eq!(F16::from_f32(mid).to_bits(), 0x0400);
    }

    #[test]
    fn nan_propagation() {
        assert!(F16::NAN.is_nan());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::NAN * F16::ONE).is_nan());
        assert!(F16::NAN != F16::NAN);
        assert!(F16::NAN.partial_cmp(&F16::ONE).is_none());
    }

    #[test]
    fn signed_zero_semantics() {
        assert_eq!(F16::NEG_ZERO, F16::ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(!F16::ZERO.is_sign_negative());
        assert_eq!(F16::NEG_ZERO.to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    #[allow(clippy::approx_constant)] // arbitrary grid points, not uses of PI/E
    fn arithmetic_matches_f32_reference() {
        // Exhaustive-ish grid of interesting operands.
        let vals = [
            0.0f32, -0.0, 1.0, -1.0, 0.5, 1.5, 3.14159, -2.71828, 1e-3, 1e3, 65504.0, -65504.0,
            6.1e-5, 5.9e-8,
        ];
        for &a in &vals {
            for &b in &vals {
                let ha = F16::from_f32(a);
                let hb = F16::from_f32(b);
                let sum = (ha + hb).to_f32();
                let refsum = F16::from_f32(ha.to_f32() + hb.to_f32()).to_f32();
                assert_eq!(sum.to_bits(), refsum.to_bits(), "{a} + {b}");
                let prod = (ha * hb).to_f32();
                let refprod = F16::from_f32(ha.to_f32() * hb.to_f32()).to_f32();
                assert_eq!(prod.to_bits(), refprod.to_bits(), "{a} * {b}");
            }
        }
    }

    #[test]
    fn mac_is_two_step_rounded_not_fused() {
        // Pick operands where fused and two-step MAC differ:
        // a*b needs more than 11 bits; the intermediate rounding changes the
        // final sum. a = 1 + 2^-10 (ULP of 1), b = 1 + 2^-10.
        let a = F16::from_bits(0x3C01);
        let b = F16::from_bits(0x3C01);
        // Exact product = 1 + 2^-9 + 2^-20; rounds to 1 + 2^-9.
        let prod = a * b;
        assert_eq!(prod.to_bits(), 0x3C02);
        let acc = F16::from_f32(-1.0);
        let mac = a.mac(b, acc);
        // Two-step: (1 + 2^-9) - 1 = 2^-9 exactly.
        assert_eq!(mac.to_f32(), 2.0f32.powi(-9));
        // A fused MAC would give 2^-9 + 2^-20 rounded to 11 bits ≈ 0.001954...
        // which differs from 2^-9 = 0.001953125 in binary16? 2^-9 has exponent
        // -9; ULP is 2^-19; 2^-20 is half a ULP, ties-to-even keeps 2^-9.
        // Choose a sharper case instead: verify against explicit two-step.
        let explicit = (a * b) + acc;
        assert_eq!(mac.to_bits(), explicit.to_bits());
    }

    #[test]
    fn relu_is_a_sign_bit_mux() {
        assert_eq!(F16::from_f32(5.0).relu(), F16::from_f32(5.0));
        assert_eq!(F16::from_f32(-5.0).relu(), F16::ZERO);
        assert_eq!(F16::NEG_ZERO.relu().to_bits(), 0x0000);
        assert_eq!(F16::NEG_INFINITY.relu(), F16::ZERO);
        // Negative NaN goes through the mux to zero, like the silicon.
        let neg_nan = F16::from_bits(0xFE00);
        assert!(neg_nan.is_nan());
        assert_eq!(neg_nan.relu().to_bits(), 0x0000);
        // Positive NaN passes through unchanged.
        assert!(F16::NAN.relu().is_nan());
    }

    #[test]
    fn ordering_is_consistent() {
        let mut v: Vec<F16> =
            [-3.0f32, -0.5, 0.0, 0.25, 1.0, 1000.0].iter().map(|&x| F16::from_f32(x)).collect();
        let sorted = v.clone();
        v.reverse();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in v.iter().zip(sorted.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert!(F16::MAX < F16::INFINITY);
    }

    #[test]
    fn exhaustive_f32_roundtrip() {
        // Every one of the 65536 binary16 bit patterns must survive a
        // round-trip through f32 (NaNs stay NaN).
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            let rt = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(rt.is_nan(), "bits 0x{bits:04X}");
            } else {
                assert_eq!(rt.to_bits(), bits, "bits 0x{bits:04X}");
            }
        }
    }

    #[test]
    fn fast_path_matches_general() {
        // The `from_f32` fast path must agree with the general conversion
        // bit for bit. Sweep every f32 exponent (inside and outside the
        // fast range) with the rounding-critical mantissas — all-zero,
        // all-one, and every pattern around the 13-bit round/sticky
        // boundary — plus a seeded pseudo-random fill, in both signs.
        let mut mantissas: Vec<u32> = Vec::new();
        for base in [0u32, 0x0000_1000, 0x0000_2000, 0x007F_E000, 0x007F_F000] {
            for delta in -2i64..=2 {
                let m = (base as i64 + delta).rem_euclid(0x0080_0000) as u32;
                mantissas.push(m);
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            mantissas.push((state as u32) & 0x007F_FFFF);
        }
        for exp in 0u32..=0xFF {
            for &m in &mantissas {
                for sign in [0u32, 0x8000_0000] {
                    let bits = sign | (exp << 23) | m;
                    let got = F16::from_f32(f32::from_bits(bits)).to_bits();
                    let want = F16::from_f32_general(bits).to_bits();
                    assert_eq!(got, want, "f32 bits 0x{bits:08X}");
                }
            }
        }
    }

    #[test]
    fn to_f32_rescale_matches_general() {
        // The multiply-based `to_f32` must agree bit for bit with the
        // explicit field re-encoding over the entire 16-bit input space
        // (zeros, subnormals, normals, infinities, every NaN payload).
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            assert_eq!(h.to_f32().to_bits(), to_f32_general(h).to_bits(), "f16 bits 0x{bits:04X}");
        }
    }

    #[test]
    fn mac_lanes_matches_scalar() {
        // `mac_lanes` must agree with per-lane scalar `mac` bit for bit,
        // on vectors that stay entirely on the fast path and on vectors
        // where single lanes force the whole-call fallback. The operand
        // pool mixes specials (zeros, subnormals, infinities, NaN, max
        // finite) with ordinary values and a seeded pseudo-random fill.
        let mut pool: Vec<F16> = [
            0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x3C00, 0xBC00, 0x3800, 0x4880, 0x7BFF, 0xFBFF,
            0x7C00, 0xFC00, 0x7E00, 0x7C01, 0x1000, 0x9000, 0x6800, 0xE800,
        ]
        .into_iter()
        .map(F16::from_bits)
        .collect();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            pool.push(F16::from_bits(next() as u16));
        }
        for _ in 0..20_000 {
            let pick = |r: u64, pool: &[F16]| pool[(r as usize) % pool.len()];
            let a: [F16; 8] = core::array::from_fn(|_| pick(next(), &pool));
            let b: [F16; 8] = core::array::from_fn(|_| pick(next(), &pool));
            let c: [F16; 8] = core::array::from_fn(|_| pick(next(), &pool));
            let got = F16::mac_lanes(&a, &b, &c);
            for i in 0..8 {
                let want = a[i].mac(b[i], c[i]);
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "lane {i}: {:04X} * {:04X} + {:04X}",
                    a[i].to_bits(),
                    b[i].to_bits(),
                    c[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn from_f32_lanes_matches_scalar() {
        // `from_f32_lanes` must equal the scalar `from_f32` on every lane,
        // bit for bit, when one lane outside the branch-free domain (or on
        // its edge) sits at any position of an otherwise fast-range call.
        let planted = [
            0.0f32,
            -0.0,
            1.0e-6,                      // a subnormal binary16 result
            -2.0e-8,                     // below 2^-25: underflows to -0
            f32::from_bits(0x477F_FFFF), // exponent 142, rounds up to infinity
            65_520.0,                    // the tie at the top, also infinity
            f32::from_bits(0x477F_EFFF), // the largest value that rounds to MAX
            f32::from_bits(0x3880_0000), // 2^-14, the smallest normal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7F80_1234), // a signalling NaN with a payload
            f32::from_bits(0xFFC0_0001), // a negative quiet NaN with a payload
        ];
        let mut state = 0x4528_21E6_38D0_1377u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            // Exponents 113..=142 only: every lane of the fill is fast.
            let fill: [f32; 16] = core::array::from_fn(|_| {
                let r = next();
                let exp = 113 + (r >> 32) as u32 % 30;
                f32::from_bits((r as u32 & 0x807F_FFFF) | (exp << 23))
            });
            for &v in &planted {
                for at in 0..16 {
                    let mut x = fill;
                    x[at] = v;
                    let got = F16::from_f32_lanes(&x);
                    for i in 0..16 {
                        let want = F16::from_f32(x[i]);
                        assert_eq!(got[i].0, want.0, "lane {i} of {x:?}, planted at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn add_mul_lanes_match_scalar_operators() {
        // `add_lanes` / `mul_lanes` must equal the scalar `+` / `*` bit for
        // bit. Every special — signed zeros, the subnormal and normal
        // boundaries, the largest finites, infinities, a quiet NaN and a
        // signalling NaN with a payload — meets all 65 536 values, on both
        // sides, sixteen consecutive values to a call so that calls mix
        // lanes inside and outside the branch-free domain.
        let check = |a: &[F16; 16], b: &[F16; 16]| {
            let (sum, prod) = (F16::add_lanes(a, b), F16::mul_lanes(a, b));
            for i in 0..16 {
                let (x, y) = (a[i], b[i]);
                assert_eq!(sum[i].0, (x + y).0, "{:04X} + {:04X}", x.0, y.0);
                assert_eq!(prod[i].0, (x * y).0, "{:04X} * {:04X}", x.0, y.0);
            }
        };
        let specials = [
            0x0000u16, 0x8000, 0x0001, 0x8001, 0x03FF, 0x0400, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00,
            0x7E00, 0x7D55, 0xFD55,
        ];
        for s in specials {
            let splat = [F16(s); 16];
            for base in (0u32..0x1_0000).step_by(16) {
                let run: [F16; 16] = core::array::from_fn(|i| F16((base + i as u32) as u16));
                check(&splat, &run);
                check(&run, &splat);
            }
        }
        // Seeded fills: arbitrary bit patterns, and moderate values whose
        // sums and products stay normal (the path the kernels live on).
        let mut state = 0x1319_8A2E_0370_7344u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let a: [F16; 16] = core::array::from_fn(|_| F16(next() as u16));
            let b: [F16; 16] = core::array::from_fn(|_| F16(next() as u16));
            check(&a, &b);
            let moderate = |r: u64| F16::from_f32((r % 4001) as f32 / 16.0 - 125.0);
            let a: [F16; 16] = core::array::from_fn(|_| moderate(next()));
            let b: [F16; 16] = core::array::from_fn(|_| moderate(next()));
            check(&a, &b);
        }
    }

    #[test]
    fn mac_equals_explicit_two_step() {
        // `mac` is specified as round16(round16(a*b) + acc); its optimized
        // body must agree with the explicit two-step composition for every
        // operand class, including products at the overflow and subnormal
        // boundaries of the intermediate rounding.
        let specials = [
            0x0000u16, 0x8000, 0x3C00, 0xBC00, 0x7C00, 0xFC00, 0x7E00, 0x7BFF, 0xFBFF, 0x0400,
            0x0001, 0x03FF, 0x3C01, 0x4000, 0x7800, 0x0800, 0x1400,
        ];
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut operands: Vec<u16> = specials.to_vec();
        for _ in 0..48 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            operands.push(state as u16);
        }
        for &a in &operands {
            for &b in &operands {
                for &c in &specials {
                    let (fa, fb, fc) = (F16::from_bits(a), F16::from_bits(b), F16::from_bits(c));
                    let got = fa.mac(fb, fc).to_bits();
                    let want = ((fa * fb) + fc).to_bits();
                    assert_eq!(got, want, "a=0x{a:04X} b=0x{b:04X} acc=0x{c:04X}");
                }
            }
        }
    }

    #[test]
    #[ignore = "exhaustive 2^32 sweep; run explicitly with --release -- --ignored"]
    fn exhaustive_from_f32_fast_vs_general() {
        // Every f32 bit pattern: the fast path must agree with the general
        // conversion bit for bit (NaN payloads included).
        for bits in 0u32..=u32::MAX {
            let got = F16::from_f32(f32::from_bits(bits)).to_bits();
            let want = F16::from_f32_general(bits).to_bits();
            assert_eq!(got, want, "f32 bits 0x{bits:08X}");
        }
    }

    #[test]
    #[ignore = "exhaustive 2^32 sweep; run explicitly with --release -- --ignored"]
    fn exhaustive_from_f32_lanes() {
        // Every f32 bit pattern, sixteen consecutive patterns to a call:
        // the bulk converter must agree with the scalar one bit for bit.
        for base in (0u32..=u32::MAX - 15).step_by(16) {
            let x: [f32; 16] = core::array::from_fn(|i| f32::from_bits(base + i as u32));
            let got = F16::from_f32_lanes(&x);
            for i in 0..16 {
                assert_eq!(got[i].0, F16::from_f32(x[i]).0, "f32 bits 0x{:08X}", x[i].to_bits());
            }
        }
    }

    #[test]
    #[ignore = "exhaustive sweep of the fast rounding range; run with --release -- --ignored"]
    fn exhaustive_round16_in_f32() {
        // Every f32 bit pattern the in-f32 rounding fast path accepts must
        // round exactly like the reference conversion round trip.
        for exp in 113u32..=141 {
            for m in 0u32..0x0080_0000 {
                for sign in [0u32, 0x8000_0000] {
                    let bits = sign | (exp << 23) | m;
                    let p = f32::from_bits(bits);
                    let got = F16::round16_in_f32(p).to_bits();
                    let want = F16::from_f32_general(bits).to_f32().to_bits();
                    assert_eq!(got, want, "f32 bits 0x{bits:08X}");
                }
            }
        }
    }

    #[test]
    fn neg_flips_only_sign() {
        assert_eq!((-F16::ONE).to_bits(), 0xBC00);
        assert_eq!((-F16::NEG_ZERO).to_bits(), 0x0000);
        assert_eq!((-F16::INFINITY).to_bits(), 0xFC00);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert!(!format!("{}", F16::ONE).is_empty());
        assert!(format!("{:?}", F16::ONE).contains("0x3C00"));
    }
}
