//! Integer MAC unit models: the Table I alternatives the paper evaluated
//! and rejected in favour of FP16.
//!
//! Table I compares INT16 (48-bit accumulator), INT8 (48- and 32-bit
//! accumulators), FP16, BFLOAT16 and FP32 MAC units. The paper keeps FP16
//! because the integer formats need per-tensor quantization ("INT8
//! operations have been widely used especially for inference") while FP16
//! "provides enough compute accuracy" natively. This module implements
//! the integer datapaths bit-exactly — including accumulator width and
//! saturation — so the accuracy trade-off behind Table I's area/energy
//! numbers can be *measured* (see the `quantization` binary).

/// Symmetric linear quantization parameters: `real = q × scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// The step size.
    pub scale: f32,
}

impl QuantParams {
    /// Chooses a scale covering `max_abs` with the given signed bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not 8 or 16, or `max_abs` is not positive-finite.
    pub fn fit(max_abs: f32, bits: u32) -> QuantParams {
        assert!(bits == 8 || bits == 16, "supported widths: 8, 16");
        assert!(max_abs.is_finite() && max_abs > 0.0, "max_abs must be positive");
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        QuantParams { scale: max_abs / qmax }
    }

    /// Quantizes with round-to-nearest and saturation to the signed range.
    pub fn quantize(&self, v: f32, bits: u32) -> i32 {
        let qmax = (1i32 << (bits - 1)) - 1;
        let qmin = -qmax - 1;
        let q = (v / self.scale).round();
        (q as i64).clamp(qmin as i64, qmax as i64) as i32
    }

    /// Dequantizes an accumulator value given the product scale.
    pub fn dequantize_product(&self, other: &QuantParams, acc: i64) -> f32 {
        acc as f32 * self.scale * other.scale
    }
}

/// A signed integer multiply-accumulate unit with a bounded accumulator —
/// the Table I INT16/INT8 datapaths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntMac {
    /// Operand width (8 or 16).
    pub operand_bits: u32,
    /// Accumulator width (32 or 48).
    pub acc_bits: u32,
    acc: i64,
    /// Saturation events observed (narrow accumulators clip).
    saturations: u64,
}

impl IntMac {
    /// The Table I INT16 MAC with a 48-bit accumulator (the baseline row).
    pub fn int16_acc48() -> IntMac {
        IntMac { operand_bits: 16, acc_bits: 48, acc: 0, saturations: 0 }
    }

    /// The INT8 MAC with a 32-bit accumulator (smallest/cheapest row).
    pub fn int8_acc32() -> IntMac {
        IntMac { operand_bits: 8, acc_bits: 32, acc: 0, saturations: 0 }
    }

    fn clamp_operand(&self, v: i32) -> i64 {
        let max = (1i64 << (self.operand_bits - 1)) - 1;
        (v as i64).clamp(-max - 1, max)
    }

    /// One multiply-accumulate step with saturating accumulation.
    pub fn mac(&mut self, a: i32, b: i32) {
        let p = self.clamp_operand(a) * self.clamp_operand(b);
        let max = (1i64 << (self.acc_bits - 1)) - 1;
        let min = -max - 1;
        let sum = self.acc.saturating_add(p);
        if sum > max {
            self.acc = max;
            self.saturations += 1;
        } else if sum < min {
            self.acc = min;
            self.saturations += 1;
        } else {
            self.acc = sum;
        }
    }

    /// The accumulator value.
    pub fn accumulator(&self) -> i64 {
        self.acc
    }

    /// Saturation events so far.
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Clears the accumulator (keeps the saturation counter).
    pub fn reset(&mut self) {
        self.acc = 0;
    }
}

/// Computes a dot product three ways — FP16 two-step-rounded (the shipped
/// datapath), INT16/48 and INT8/32 (the Table I alternatives) — and
/// returns each result's absolute error versus the f64 reference.
///
/// The quantized paths use per-vector symmetric scales fit to the data, the
/// standard inference recipe.
pub fn dot_product_errors(a: &[f32], b: &[f32]) -> DotErrors {
    assert_eq!(a.len(), b.len());
    let reference: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();

    // FP16: two-step rounded MAC chain, like the PIM unit.
    let mut acc = crate::F16::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = crate::F16::from_f32(x).mac(crate::F16::from_f32(y), acc);
    }
    let fp16_err = (acc.to_f64() - reference).abs();

    let max_abs = |v: &[f32]| v.iter().fold(1e-12f32, |m, &x| m.max(x.abs()));
    let int_err = |bits: u32, mut mac: IntMac| -> (f64, u64) {
        let qa = QuantParams::fit(max_abs(a), bits);
        let qb = QuantParams::fit(max_abs(b), bits);
        for (&x, &y) in a.iter().zip(b) {
            mac.mac(qa.quantize(x, bits), qb.quantize(y, bits));
        }
        let v = qa.dequantize_product(&qb, mac.accumulator());
        ((v as f64 - reference).abs(), mac.saturations())
    };
    let (int16_err, int16_sat) = int_err(16, IntMac::int16_acc48());
    let (int8_err, int8_sat) = int_err(8, IntMac::int8_acc32());

    DotErrors {
        reference,
        fp16_err,
        int16_err,
        int8_err,
        int16_saturations: int16_sat,
        int8_saturations: int8_sat,
    }
}

/// The result of [`dot_product_errors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotErrors {
    /// f64 reference value.
    pub reference: f64,
    /// |FP16 result − reference|.
    pub fp16_err: f64,
    /// |INT16/48 result − reference|.
    pub int16_err: f64,
    /// |INT8/32 result − reference|.
    pub int8_err: f64,
    /// INT16 accumulator saturations.
    pub int16_saturations: u64,
    /// INT8 accumulator saturations.
    pub int8_saturations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_roundtrip_is_tight() {
        let q = QuantParams::fit(4.0, 8);
        let v = q.quantize(3.0, 8);
        assert!((v as f32 * q.scale - 3.0).abs() <= q.scale / 2.0);
        // Saturation at the edges.
        assert_eq!(q.quantize(100.0, 8), 127);
        assert_eq!(q.quantize(-100.0, 8), -128);
    }

    #[test]
    fn int_mac_accumulates_exactly() {
        let mut m = IntMac::int16_acc48();
        for _ in 0..1000 {
            m.mac(30000, 30000);
        }
        assert_eq!(m.accumulator(), 1000i64 * 30000 * 30000);
        assert_eq!(m.saturations(), 0);
    }

    #[test]
    fn narrow_accumulator_saturates() {
        // INT8/32: 127×127 ≈ 2^14; ~2^17 such products overflow 2^31.
        let mut m = IntMac::int8_acc32();
        for _ in 0..200_000 {
            m.mac(127, 127);
        }
        assert!(m.saturations() > 0, "32-bit accumulator must clip");
        assert_eq!(m.accumulator(), (1i64 << 31) - 1);
    }

    #[test]
    fn operands_clamped_to_width() {
        let mut m = IntMac::int8_acc32();
        m.mac(1000, 1); // clamps to 127
        assert_eq!(m.accumulator(), 127);
    }

    #[test]
    fn fp16_accuracy_beats_int8_on_wide_dynamic_range() {
        // Mixed magnitudes: quantization noise hits INT8 hard, FP16's
        // per-value exponent shrugs it off — Table I's accuracy rationale.
        let a: Vec<f32> = (0..256).map(|i| if i % 16 == 0 { 8.0 } else { 0.01 }).collect();
        let b: Vec<f32> = (0..256).map(|i| if i % 16 == 1 { -8.0 } else { 0.01 }).collect();
        let e = dot_product_errors(&a, &b);
        let rel = |err: f64| err / e.reference.abs().max(1e-9);
        assert!(rel(e.fp16_err) < 0.05, "fp16 rel err {}", rel(e.fp16_err));
        assert!(
            e.int8_err > e.fp16_err * 5.0,
            "int8 {} should be much worse than fp16 {}",
            e.int8_err,
            e.fp16_err
        );
    }

    #[test]
    fn int16_is_competitive_on_uniform_data() {
        // Uniform, well-scaled data is where INT16 shines — which is why
        // Table I uses it as the baseline.
        let a: Vec<f32> = (0..512).map(|i| ((i % 41) as f32 - 20.0) / 20.0).collect();
        let b: Vec<f32> = (0..512).map(|i| ((i % 37) as f32 - 18.0) / 18.0).collect();
        let e = dot_product_errors(&a, &b);
        assert!(e.int16_err < 0.05 * e.reference.abs().max(1.0));
        assert_eq!(e.int16_saturations, 0);
    }
}
