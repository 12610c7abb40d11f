//! The 256-bit datapath word: 16 FP16 lanes.

use pim_dram::{DataBlock, DATA_BLOCK_BYTES};
use pim_fp16::F16;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of FP16 lanes in the PIM datapath (Table IV: 16 bits × 16 lanes).
pub const LANES: usize = 16;

/// One 256-bit PIM datapath word: 16 FP16 lanes, byte-compatible with the
/// 32-byte DRAM column block it is loaded from (little-endian lanes).
///
/// # Example
///
/// ```
/// use pim_core::LaneVec;
/// use pim_fp16::F16;
///
/// let v = LaneVec::splat(F16::from_f32(2.0));
/// let w = LaneVec::splat(F16::from_f32(3.0));
/// assert_eq!(v.mul(w)[0].to_f32(), 6.0);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct LaneVec([F16; LANES]);

impl LaneVec {
    /// All lanes zero.
    pub const fn zero() -> LaneVec {
        LaneVec([F16::ZERO; LANES])
    }

    /// Every lane set to `value` — exactly what the SRF does when supplying
    /// a scalar operand ("SRF replicates a given 16-bit value by 16 times",
    /// Section IV-A).
    pub fn splat(value: F16) -> LaneVec {
        LaneVec([value; LANES])
    }

    /// Builds a vector from 16 lanes.
    pub fn from_lanes(lanes: [F16; LANES]) -> LaneVec {
        LaneVec(lanes)
    }

    /// The lanes as a slice.
    pub fn lanes(&self) -> &[F16; LANES] {
        &self.0
    }

    /// Reinterprets a 32-byte DRAM column block as 16 little-endian FP16
    /// lanes (the bank I/O boundary view of the PIM unit).
    pub fn from_block(block: &DataBlock) -> LaneVec {
        let mut lanes = [F16::ZERO; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let lo = block[2 * i] as u16;
            let hi = block[2 * i + 1] as u16;
            *lane = F16::from_bits(lo | (hi << 8));
        }
        LaneVec(lanes)
    }

    /// Serializes back to a 32-byte column block (inverse of
    /// [`LaneVec::from_block`]).
    pub fn to_block(&self) -> DataBlock {
        let mut block = [0u8; DATA_BLOCK_BYTES];
        for (i, lane) in self.0.iter().enumerate() {
            let bits = lane.to_bits();
            block[2 * i] = (bits & 0xFF) as u8;
            block[2 * i + 1] = (bits >> 8) as u8;
        }
        block
    }

    /// Lane-wise addition (one pass through the FP adders). Named after
    /// the FPU stage rather than `std::ops::Add` deliberately: the PIM
    /// datapath has no operator-like polymorphism, and the explicit call
    /// sites read like the microkernel they implement.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: LaneVec) -> LaneVec {
        LaneVec(F16::add_lanes(&self.0, &rhs.0))
    }

    /// Lane-wise multiplication (one pass through the FP multipliers).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: LaneVec) -> LaneVec {
        LaneVec(F16::mul_lanes(&self.0, &rhs.0))
    }

    /// Lane-wise multiply-accumulate: `acc + self*rhs` with the hardware's
    /// two-step rounding ([`F16::mac`]).
    pub fn mac(self, rhs: LaneVec, acc: LaneVec) -> LaneVec {
        LaneVec(F16::mac_lanes(&self.0, &rhs.0, &acc.0))
    }

    /// Lane-wise ReLU (the MOV(ReLU) data-movement mux).
    pub fn relu(self) -> LaneVec {
        let mut out = self.0;
        for lane in &mut out {
            *lane = lane.relu();
        }
        LaneVec(out)
    }

    /// Converts every lane to `f32`.
    pub fn to_f32(&self) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        for (o, l) in out.iter_mut().zip(self.0.iter()) {
            *o = l.to_f32();
        }
        out
    }

    /// Builds a vector from 16 `f32` values (rounded to FP16 by the bulk
    /// converter, [`F16::from_f32_lanes`]).
    pub fn from_f32(values: [f32; LANES]) -> LaneVec {
        LaneVec(F16::from_f32_lanes(&values))
    }
}

impl Default for LaneVec {
    fn default() -> LaneVec {
        LaneVec::zero()
    }
}

impl Index<usize> for LaneVec {
    type Output = F16;
    fn index(&self, i: usize) -> &F16 {
        &self.0[i]
    }
}

impl IndexMut<usize> for LaneVec {
    fn index_mut(&mut self, i: usize) -> &mut F16 {
        &mut self.0[i]
    }
}

impl fmt::Debug for LaneVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LaneVec[")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.to_f32())?;
        }
        write!(f, "]")
    }
}

/// What the unit's datapath computes on. [`crate::PimUnit`]'s dataflow —
/// the operand rules of Section III-C — is written once over this trait:
/// [`Fp16`] runs it on lane values, and `pim-verify`'s symbolic executor
/// runs it on hash-consed expressions. Methods take `&mut self` so a
/// domain can intern what it builds.
pub trait ValueDomain {
    /// A 256-bit datapath word.
    type Vec: Copy + fmt::Debug;
    /// One 16-bit SRF scalar.
    type Scalar: Copy + fmt::Debug;
    /// The word a WDATA operand reads on a RD trigger.
    fn zero(&mut self) -> Self::Vec;
    /// A scalar broadcast across the lanes: an SRF operand read.
    fn splat(&mut self, s: Self::Scalar) -> Self::Vec;
    /// Lane `lane` of a word: one scalar of an SRF load.
    fn lane(&mut self, v: Self::Vec, lane: usize) -> Self::Scalar;
    /// Lane-wise ReLU.
    fn relu(&mut self, v: Self::Vec) -> Self::Vec;
    /// Lane-wise addition.
    fn add(&mut self, a: Self::Vec, b: Self::Vec) -> Self::Vec;
    /// Lane-wise multiplication.
    fn mul(&mut self, a: Self::Vec, b: Self::Vec) -> Self::Vec;
    /// Lane-wise `a * b + acc` with the hardware's rounding.
    fn mac(&mut self, a: Self::Vec, b: Self::Vec, acc: Self::Vec) -> Self::Vec;
}

/// The FP16 domain the hardware computes in: [`LaneVec`]'s own operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fp16;

impl ValueDomain for Fp16 {
    type Vec = LaneVec;
    type Scalar = F16;
    #[inline(always)]
    fn zero(&mut self) -> LaneVec {
        LaneVec::zero()
    }
    #[inline(always)]
    fn splat(&mut self, s: F16) -> LaneVec {
        LaneVec::splat(s)
    }
    #[inline(always)]
    fn lane(&mut self, v: LaneVec, lane: usize) -> F16 {
        v[lane]
    }
    #[inline(always)]
    fn relu(&mut self, v: LaneVec) -> LaneVec {
        v.relu()
    }
    #[inline(always)]
    fn add(&mut self, a: LaneVec, b: LaneVec) -> LaneVec {
        a.add(b)
    }
    #[inline(always)]
    fn mul(&mut self, a: LaneVec, b: LaneVec) -> LaneVec {
        a.mul(b)
    }
    #[inline(always)]
    fn mac(&mut self, a: LaneVec, b: LaneVec, acc: LaneVec) -> LaneVec {
        a.mac(b, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let mut block = [0u8; 32];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as u8 * 7;
        }
        let v = LaneVec::from_block(&block);
        assert_eq!(v.to_block(), block);
    }

    #[test]
    fn lanes_are_little_endian() {
        let mut block = [0u8; 32];
        block[0] = 0x00;
        block[1] = 0x3C; // lane 0 = 0x3C00 = 1.0
        let v = LaneVec::from_block(&block);
        assert_eq!(v[0].to_f32(), 1.0);
        assert_eq!(v[1].to_f32(), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = LaneVec::from_f32([1.0; 16]);
        let b = LaneVec::from_f32([2.0; 16]);
        assert_eq!(a.add(b).to_f32(), [3.0; 16]);
        assert_eq!(a.mul(b).to_f32(), [2.0; 16]);
        let acc = LaneVec::from_f32([10.0; 16]);
        assert_eq!(a.mac(b, acc).to_f32(), [12.0; 16]);
    }

    #[test]
    fn relu_lane_wise() {
        let mut vals = [1.0f32; 16];
        vals[3] = -5.0;
        vals[7] = -0.0;
        let v = LaneVec::from_f32(vals).relu();
        assert_eq!(v[3].to_f32(), 0.0);
        assert_eq!(v[7].to_bits(), 0);
        assert_eq!(v[0].to_f32(), 1.0);
    }

    #[test]
    fn lane_ops_equal_the_scalar_operators_bit_for_bit() {
        // Every FP16 value through `relu`, and against its bitwise
        // complement-ish partner through `add` / `mul` (the exhaustive
        // special × value sweep lives with `F16::add_lanes`).
        for base in (0u32..0x1_0000).step_by(LANES) {
            let a = LaneVec::from_lanes(std::array::from_fn(|i| {
                F16::from_bits((base as usize + i) as u16)
            }));
            let b = LaneVec::from_lanes(std::array::from_fn(|i| {
                F16::from_bits(((base as usize + i) as u16).wrapping_mul(0x9E37).rotate_left(3))
            }));
            let (relu, sum, prod) = (a.relu(), a.add(b), a.mul(b));
            for i in 0..LANES {
                assert_eq!(relu[i].to_bits(), a[i].relu().to_bits(), "relu {:?}", a[i]);
                assert_eq!(sum[i].to_bits(), (a[i] + b[i]).to_bits(), "{:?} + {:?}", a[i], b[i]);
                assert_eq!(prod[i].to_bits(), (a[i] * b[i]).to_bits(), "{:?} * {:?}", a[i], b[i]);
            }
        }
    }

    #[test]
    fn splat_fills_all_lanes() {
        use pim_fp16::F16;
        let v = LaneVec::splat(F16::from_f32(4.5));
        assert!(v.lanes().iter().all(|l| l.to_f32() == 4.5));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", LaneVec::zero()).contains("LaneVec"));
    }
}
