//! The PIM execution unit's register files (Section IV-A, Table IV).

use crate::isa::Instruction;
use crate::vector::{Fp16, LaneVec, ValueDomain};
use pim_dram::DataBlock;
use pim_fp16::F16;

/// Number of CRF (instruction) entries: 32 × 32-bit (Table IV).
pub const CRF_ENTRIES: usize = 32;
/// Number of 256-bit registers per GRF file (GRF_A and GRF_B each).
pub const GRF_ENTRIES_PER_FILE: usize = 8;
/// Number of 16-bit scalars per SRF file (SRF_M and SRF_A each).
pub const SRF_ENTRIES_PER_FILE: usize = 8;

/// CRF words carried by one 32-byte block of the memory-mapped `CRF` row.
pub const CRF_WORDS_PER_BLOCK: usize = 8;

/// The first CRF entry a block written at column `col` of the `CRF` row
/// covers: four blocks map the 32 entries, higher columns alias them.
pub fn crf_block_base(col: u32) -> usize {
    (col as usize % (CRF_ENTRIES / CRF_WORDS_PER_BLOCK)) * CRF_WORDS_PER_BLOCK
}

/// Packs eight instruction words into one `CRF`-row block, little-endian.
pub fn crf_block(words: [u32; CRF_WORDS_PER_BLOCK]) -> DataBlock {
    let mut block: DataBlock = [0u8; 32];
    for (bytes, w) in block.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    block
}

/// The eight instruction words of one `CRF`-row block.
pub fn crf_block_words(block: &DataBlock) -> [u32; CRF_WORDS_PER_BLOCK] {
    std::array::from_fn(|i| {
        u32::from_le_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]])
    })
}

/// The blocks that load `program` through the `CRF` row, block `c` at
/// column `c`. The last block is padded with EXIT so stale words from a
/// previous kernel cannot run past the program's end.
///
/// # Panics
///
/// Panics if the program exceeds the 32-entry CRF.
pub fn crf_blocks(program: &[Instruction]) -> Vec<DataBlock> {
    assert!(program.len() <= CRF_ENTRIES, "microkernel exceeds the 32-entry CRF");
    program
        .chunks(CRF_WORDS_PER_BLOCK)
        .map(|chunk| {
            let mut words = [Instruction::Exit.encode(); CRF_WORDS_PER_BLOCK];
            for (w, instr) in words.iter_mut().zip(chunk) {
                *w = instr.encode();
            }
            crf_block(words)
        })
        .collect()
}

/// The command register file: a 32-entry instruction buffer holding the PIM
/// microkernel. "PIM instructions are stored in the CRF serving as an
/// instruction buffer" (Section III-A).
///
/// A word is decoded once, when it is written: every entry keeps its
/// decoded instruction beside the raw word (`None` when the word does not
/// decode), so the sequencer only ever reads.
#[derive(Debug, Clone)]
pub struct Crf {
    words: [u32; CRF_ENTRIES],
    /// `Instruction::decode(words[i]).ok()`, kept in step by every write.
    decoded: [Option<Instruction>; CRF_ENTRIES],
}

impl Default for Crf {
    fn default() -> Crf {
        Crf::new()
    }
}

/// Two CRFs are equal when they hold the same image: the decoded entries
/// are a function of the words.
impl PartialEq for Crf {
    fn eq(&self, other: &Crf) -> bool {
        self.words == other.words
    }
}

impl Eq for Crf {}

impl Crf {
    /// A CRF initialized with EXIT in every slot, so an unprogrammed unit
    /// halts on its first trigger instead of executing garbage.
    pub fn new() -> Crf {
        Crf {
            words: [Instruction::Exit.encode(); CRF_ENTRIES],
            decoded: [Some(Instruction::Exit); CRF_ENTRIES],
        }
    }

    /// Writes the raw instruction word at `index`, decoding it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn write_word(&mut self, index: usize, word: u32) {
        assert!(index < CRF_ENTRIES, "CRF index {index} out of range");
        self.words[index] = word;
        self.decoded[index] = Instruction::decode(word).ok();
    }

    /// Writes one `CRF`-row block from entry `base` as (word, decode) pairs,
    /// each decode `Instruction::decode(word).ok()`: an all-bank write
    /// decodes its block once and stores the pairs into every unit.
    pub(crate) fn write_block(&mut self, base: usize, block: &[(u32, Option<Instruction>); 8]) {
        for (i, &(word, decoded)) in block.iter().enumerate() {
            debug_assert_eq!(decoded, Instruction::decode(word).ok(), "CRF word {word:#010X}");
            self.words[base + i] = word;
            self.decoded[base + i] = decoded;
        }
    }

    /// Reads the raw instruction word at `index`.
    pub fn read_word(&self, index: usize) -> u32 {
        assert!(index < CRF_ENTRIES, "CRF index {index} out of range");
        self.words[index]
    }

    /// Loads a whole microkernel starting at entry 0.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds 32 instructions.
    pub fn load_program(&mut self, program: &[Instruction]) {
        assert!(program.len() <= CRF_ENTRIES, "microkernel exceeds the 32-entry CRF");
        for i in 0..CRF_ENTRIES {
            self.write_word(i, program.get(i).unwrap_or(&Instruction::Exit).encode());
        }
    }

    /// The instruction the word at `index` decoded to when it was written;
    /// `None` if it does not decode.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[inline]
    pub fn decoded(&self, index: usize) -> Option<Instruction> {
        self.decoded[index]
    }
}

/// One general register file (GRF_A or GRF_B): 8 × 256-bit vector
/// registers, holding words of the value domain `D`.
#[derive(Debug, Clone)]
pub struct Grf<D: ValueDomain = Fp16> {
    regs: [D::Vec; GRF_ENTRIES_PER_FILE],
}

impl Default for Grf {
    fn default() -> Grf {
        Grf::new()
    }
}

impl Grf {
    /// A zeroed file.
    pub fn new() -> Grf {
        Grf::with_regs([LaneVec::zero(); GRF_ENTRIES_PER_FILE])
    }

    /// Clears all registers to zero.
    pub fn clear(&mut self) {
        *self = Grf::new();
    }
}

impl<D: ValueDomain> Grf<D> {
    /// A file holding `regs`.
    pub fn with_regs(regs: [D::Vec; GRF_ENTRIES_PER_FILE]) -> Grf<D> {
        Grf { regs }
    }

    /// Reads register `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    pub fn read(&self, idx: usize) -> D::Vec {
        self.regs[idx]
    }

    /// Writes register `idx`.
    pub fn write(&mut self, idx: usize, value: D::Vec) {
        self.regs[idx] = value;
    }
}

/// One scalar register file (SRF_M or SRF_A): 8 × 16-bit scalars of the
/// value domain `D`, each broadcast across all 16 lanes when used as an
/// operand.
#[derive(Debug, Clone)]
pub struct Srf<D: ValueDomain = Fp16> {
    regs: [D::Scalar; SRF_ENTRIES_PER_FILE],
}

impl Default for Srf {
    fn default() -> Srf {
        Srf::new()
    }
}

impl Srf {
    /// A zeroed file.
    pub fn new() -> Srf {
        Srf::with_regs([F16::ZERO; SRF_ENTRIES_PER_FILE])
    }
}

impl<D: ValueDomain> Srf<D> {
    /// A file holding `regs`.
    pub fn with_regs(regs: [D::Scalar; SRF_ENTRIES_PER_FILE]) -> Srf<D> {
        Srf { regs }
    }

    /// Reads scalar `idx`.
    pub fn read(&self, idx: usize) -> D::Scalar {
        self.regs[idx]
    }

    /// Reads scalar `idx` broadcast across 16 lanes.
    #[inline(always)]
    pub fn read_broadcast(&self, dom: &mut D, idx: usize) -> D::Vec {
        dom.splat(self.regs[idx])
    }

    /// Writes scalar `idx`.
    pub fn write(&mut self, idx: usize, value: D::Scalar) {
        self.regs[idx] = value;
    }

    /// Loads all 8 scalars from the 8 lanes of a datapath word from
    /// `lane_offset` on — the shape of a memory-mapped SRF write (half of a
    /// 32-byte column block).
    #[inline(always)]
    pub fn load_from_lanes(&mut self, dom: &mut D, v: D::Vec, lane_offset: usize) {
        for i in 0..SRF_ENTRIES_PER_FILE {
            self.regs[i] = dom.lane(v, lane_offset + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand;

    #[test]
    fn fresh_crf_halts() {
        let crf = Crf::new();
        assert_eq!(crf.decoded(0), Some(Instruction::Exit));
        assert_eq!(crf.decoded(31), Some(Instruction::Exit));
    }

    #[test]
    fn program_load_and_padding() {
        let mut crf = Crf::new();
        let prog = vec![Instruction::Nop { cycles: 1 }, Instruction::Jump { target: 0, count: 4 }];
        crf.load_program(&prog);
        assert_eq!(crf.decoded(0), Some(prog[0]));
        assert_eq!(crf.decoded(1), Some(prog[1]));
        assert_eq!(crf.decoded(2), Some(Instruction::Exit));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_program_rejected() {
        let mut crf = Crf::new();
        crf.load_program(&vec![Instruction::Exit; 33]);
    }

    #[test]
    fn crf_word_access() {
        let mut crf = Crf::new();
        let w = Instruction::Mov {
            dst: Operand::grf_a(0),
            src: Operand::even_bank(),
            relu: false,
            aam: true,
        }
        .encode();
        crf.write_word(7, w);
        assert_eq!(crf.read_word(7), w);
        assert!(crf.decoded(7).is_some_and(|i| i.aam()));
    }

    #[test]
    fn undecodable_word_predecodes_to_none() {
        let mut crf = Crf::new();
        crf.write_word(3, 0xF000_0000);
        assert_eq!(crf.decoded(3), None);
        assert_eq!(crf.decoded(2), Some(Instruction::Exit));
        // Overwriting it decodes again.
        crf.write_word(3, Instruction::Nop { cycles: 2 }.encode());
        assert_eq!(crf.decoded(3), Some(Instruction::Nop { cycles: 2 }));
    }

    #[test]
    fn grf_read_write() {
        let mut grf = Grf::new();
        let v = LaneVec::from_f32([1.5; 16]);
        grf.write(3, v);
        assert_eq!(grf.read(3), v);
        assert_eq!(grf.read(0), LaneVec::zero());
        grf.clear();
        assert_eq!(grf.read(3), LaneVec::zero());
    }

    #[test]
    fn srf_broadcast() {
        let mut srf = Srf::new();
        srf.write(2, F16::from_f32(0.5));
        let v = srf.read_broadcast(&mut Fp16, 2);
        assert!(v.lanes().iter().all(|l| l.to_f32() == 0.5));
    }

    #[test]
    fn srf_load_from_lanes() {
        let mut vals = [0.0f32; 16];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as f32;
        }
        let word = LaneVec::from_f32(vals);
        let mut m = Srf::new();
        let mut a = Srf::new();
        m.load_from_lanes(&mut Fp16, word, 0);
        a.load_from_lanes(&mut Fp16, word, 8);
        assert_eq!(m.read(3).to_f32(), 3.0);
        assert_eq!(a.read(3).to_f32(), 11.0);
    }
}
