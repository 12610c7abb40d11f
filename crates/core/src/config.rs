//! PIM execution unit and device configuration (Tables IV and V), plus the
//! design-space-exploration variants of Section VII-D / Fig. 14.

use crate::regfile::GRF_ENTRIES_PER_FILE;
use crate::vector::LANES;

/// The architectural variants evaluated in the paper.
///
/// The base variant is the fabricated chip; the other three are the
/// enhanced microarchitectures the paper simulates with DRAMSim2 because
/// they "could not be implemented due to constraints such as die size, pin
/// compatibility, timing, and use of a JEDEC-compliant DRAM controller".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimVariant {
    /// The fabricated PIM-HBM (Table IV/V).
    Base,
    /// PIM-HBM-2×: every PIM execution unit gets 2× the resources (GRF
    /// depth doubles, so the out-of-order tolerance window and the fence
    /// interval double). Costs +24% die area (Fig. 14 discussion).
    DoubleResources,
    /// PIM-HBM-2BA: a unit can access EVEN_BANK and ODD_BANK in the same
    /// instruction, so two-source streaming ops (ADD/BN) need half the
    /// column commands. Costs +60% power.
    TwoBankAccess,
    /// PIM-HBM-SRW: simultaneous column RD and WR — a WR command's 32-byte
    /// block arrives on the write datapath *while* the column address reads
    /// the bank, so GEMV skips the separate GRF/SRF preload commands.
    SimultaneousReadWrite,
}

impl PimVariant {
    /// All variants in Fig. 14 order.
    pub const ALL: [PimVariant; 4] = [
        PimVariant::Base,
        PimVariant::DoubleResources,
        PimVariant::TwoBankAccess,
        PimVariant::SimultaneousReadWrite,
    ];

    /// Label used in Fig. 14.
    pub fn label(self) -> &'static str {
        match self {
            PimVariant::Base => "PIM-HBM",
            PimVariant::DoubleResources => "PIM-HBM-2x",
            PimVariant::TwoBankAccess => "PIM-HBM-2BA",
            PimVariant::SimultaneousReadWrite => "PIM-HBM-SRW",
        }
    }
}

impl std::fmt::Display for PimVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// PIM unit clock in MHz (Table IV: 250–300; bus/4).
pub const UNIT_MHZ: u64 = 300;
/// Equivalent gate count of one unit (Table IV: ~200,000).
pub const UNIT_GATE_COUNT: u64 = 200_000;
/// Area of one unit in mm² (Table IV: 0.712).
pub const UNIT_AREA_MM2: f64 = 0.712;

/// Configuration of a PIM-HBM device: the two design axes the paper
/// varies. Everything else of Tables IV/V is fixed silicon — [`LANES`],
/// [`CRF_ENTRIES`], [`UNIT_MHZ`], [`UNIT_GATE_COUNT`], [`UNIT_AREA_MM2`] —
/// and the GRF depth follows from the variant
/// ([`PimConfig::grf_entries_per_file`]).
///
/// [`LANES`]: crate::LANES
/// [`CRF_ENTRIES`]: crate::CRF_ENTRIES
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimConfig {
    /// PIM execution units per pseudo channel (paper: 8, one per bank
    /// pair).
    pub units_per_pch: usize,
    /// The microarchitectural variant.
    pub variant: PimVariant,
}

impl PimConfig {
    /// The fabricated chip's configuration (Tables IV and V).
    pub fn paper() -> PimConfig {
        PimConfig::with_variant(PimVariant::Base)
    }

    /// The paper configuration with a different variant.
    pub fn with_variant(variant: PimVariant) -> PimConfig {
        PimConfig { units_per_pch: 8, variant }
    }

    /// GRF registers per file: 8 (16 per unit), doubled by
    /// [`PimVariant::DoubleResources`].
    pub fn grf_entries_per_file(&self) -> usize {
        match self.variant {
            PimVariant::DoubleResources => 2 * GRF_ENTRIES_PER_FILE,
            _ => GRF_ENTRIES_PER_FILE,
        }
    }

    /// Peak throughput of one unit in GFLOPS: `lanes × 2 ops × f`.
    ///
    /// At 300 MHz this is Table IV's 9.6 GFLOPS.
    pub fn unit_gflops(&self) -> f64 {
        LANES as f64 * 2.0 * UNIT_MHZ as f64 / 1e3
    }

    /// The out-of-order tolerance window in column commands: AAM can fix up
    /// reordering only within one GRF's worth of commands, so the host must
    /// fence every `fence_window` commands (Sections IV-C, VII-B).
    pub fn fence_window(&self) -> usize {
        self.grf_entries_per_file()
    }

    /// How many banks' operands one column command consumes: 1 per unit
    /// normally (8 "operating banks" per pCH, Table V); 2 per unit for the
    /// 2BA variant.
    pub fn operand_banks_per_command(&self) -> usize {
        match self.variant {
            PimVariant::TwoBankAccess => 2 * self.units_per_pch,
            _ => self.units_per_pch,
        }
    }

    /// Whether `instr` is legal on this variant: the base microarchitecture
    /// enforces [`crate::isa::Instruction::validate`]'s single-bank-operand
    /// rule, while PIM-HBM-2BA "can access EVEN_BANK and ODD_BANK at the
    /// same time to get two operands for one PIM instruction" (Section
    /// VII-D).
    ///
    /// # Errors
    ///
    /// Returns the violated rule, as in `Instruction::validate`.
    pub fn instruction_legal(
        &self,
        instr: &crate::isa::Instruction,
    ) -> Result<(), crate::isa::ValidateError> {
        match instr.validate() {
            Err(crate::isa::ValidateError::MultipleBankOperands)
                if self.variant == PimVariant::TwoBankAccess =>
            {
                Ok(())
            }
            r => r,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.units_per_pch == 0 || self.units_per_pch > 8 {
            return Err("units_per_pch must be in 1..=8 (one per bank pair)".into());
        }
        Ok(())
    }
}

impl Default for PimConfig {
    fn default() -> PimConfig {
        PimConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_throughput() {
        let c = PimConfig::paper();
        assert_eq!(c.unit_gflops(), 9.6, "Table IV: 9.6 GFLOPs at 300MHz");
        c.validate().unwrap();
    }

    #[test]
    fn device_throughput_scales() {
        let c = PimConfig::paper();
        // 8 units × 16 pCH × 9.6 GFLOPS = 1.2288 TFLOPS per device.
        let device_gflops = c.unit_gflops() * c.units_per_pch as f64 * 16.0;
        assert!((device_gflops - 1228.8).abs() < 1e-9);
    }

    #[test]
    fn fence_window_is_grf_depth() {
        assert_eq!(PimConfig::paper().fence_window(), 8);
        assert_eq!(
            PimConfig::with_variant(PimVariant::DoubleResources).fence_window(),
            16,
            "2x variant doubles the tolerance window"
        );
    }

    #[test]
    fn operand_banks() {
        assert_eq!(PimConfig::paper().operand_banks_per_command(), 8);
        assert_eq!(
            PimConfig::with_variant(PimVariant::TwoBankAccess).operand_banks_per_command(),
            16
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = PimConfig::paper();
        c.units_per_pch = 9;
        assert!(c.validate().is_err());
        c.units_per_pch = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn variant_labels() {
        assert_eq!(PimVariant::Base.label(), "PIM-HBM");
        assert_eq!(PimVariant::ALL.len(), 4);
    }
}
