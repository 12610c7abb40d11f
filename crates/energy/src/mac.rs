//! Table I: relative area and energy/op of MAC units in the 20nm DRAM
//! logic process, normalized to the INT16 MAC with a 48-bit accumulator.

use pim_fp16::NumberFormat;

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacUnitModel {
    /// The number format.
    pub format: NumberFormat,
    /// Area relative to the INT16/48-bit-accumulator MAC.
    pub rel_area: f64,
    /// Energy per operation, same normalization.
    pub rel_energy: f64,
}

/// The complete Table I, in the paper's row order. Values are copied
/// verbatim from the paper.
pub fn table1() -> Vec<MacUnitModel> {
    vec![
        MacUnitModel { format: NumberFormat::Int16Acc48, rel_area: 1.0, rel_energy: 1.0 },
        MacUnitModel { format: NumberFormat::Int8Acc48, rel_area: 0.45, rel_energy: 0.81 },
        MacUnitModel { format: NumberFormat::Int8Acc32, rel_area: 0.35, rel_energy: 0.77 },
        MacUnitModel { format: NumberFormat::Fp16, rel_area: 1.32, rel_energy: 1.21 },
        MacUnitModel { format: NumberFormat::Bfloat16, rel_area: 1.15, rel_energy: 1.04 },
        MacUnitModel { format: NumberFormat::Fp32, rel_area: 3.96, rel_energy: 1.34 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn for_format(format: NumberFormat) -> MacUnitModel {
        table1().into_iter().find(|m| m.format == format).expect("every format has a Table I row")
    }

    #[test]
    fn table1_has_all_formats_in_order() {
        let t = table1();
        assert_eq!(t.len(), 6);
        for (row, fmt) in t.iter().zip(NumberFormat::ALL.iter()) {
            assert_eq!(row.format, *fmt);
        }
    }

    #[test]
    fn paper_design_choices_hold() {
        // Section III-C's reasoning, checked against the data:
        let fp32 = for_format(NumberFormat::Fp32);
        let fp16 = for_format(NumberFormat::Fp16);
        let bf16 = for_format(NumberFormat::Bfloat16);
        // "the area and energy/op of FP32 MAC units are too large" — 3×
        // the FP16 area.
        assert!(fp32.rel_area / fp16.rel_area > 2.9);
        // "the BFLOAT16 MAC unit is slightly smaller and more energy-
        // efficient than the FP16 MAC unit".
        assert!(bf16.rel_area < fp16.rel_area);
        assert!(bf16.rel_energy < fp16.rel_energy);
        // FP16/BF16 are "comparable to INT16": within ~35%.
        assert!(fp16.rel_area <= 1.35 && bf16.rel_area <= 1.35);
    }
}
