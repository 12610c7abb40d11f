//! A single DRAM bank: functional row storage plus per-bank timing state.
//!
//! The paper's key design philosophy is to leave the bank itself untouched
//! ("it does not disturb the key components (i.e., subarray and bank) of
//! commodity DRAM", Section III-A); the PIM execution unit sits at the
//! bank's I/O boundary. Accordingly this model is a plain JEDEC bank — the
//! PIM logic in `pim-core` consumes the same [`Bank::read_block`] /
//! [`Bank::write_block`] interface the chip-external I/O path does.

use crate::command::{DataBlock, DATA_BLOCK_BYTES};
use crate::timing::Cycle;
use pim_faults::CellFaults;

/// Bytes per DRAM row (page) per bank, per pseudo channel: 1 KiB for HBM2.
pub const ROW_BYTES: usize = 1024;
/// Number of 32-byte column blocks per row.
pub const COLS_PER_ROW: u32 = (ROW_BYTES / DATA_BLOCK_BYTES) as u32;
/// Rows per bank. 8192 rows × 1 KiB × 16 banks × 4 pCH = 512 MiB per die
/// (4 Gb, the paper's PIM-HBM die capacity in Section VI).
pub const ROWS_PER_BANK: u32 = 8192;

/// The row-buffer state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row is open.
    Closed,
    /// `row` is open in the row buffer (sense amplifiers).
    Open(u32),
}

/// One DRAM bank: an array of rows with an open-row (row buffer) state
/// machine and the per-bank timing horizon.
///
/// Rows are materialized lazily and indexed directly by row number: the
/// index grows to the highest row written, a row's 1 KiB is allocated by
/// its first write, and an operand fetch is two loads with no hashing.
/// Untouched rows read as zero bytes, which stands in for an initialized
/// device.
///
/// # Example
///
/// ```
/// use pim_dram::{Bank, BankState};
/// let mut bank = Bank::new();
/// assert_eq!(bank.state(), BankState::Closed);
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    state: BankState,
    /// `rows[r]` is row `r`'s storage once written; rows past the end and
    /// `None` entries are untouched.
    rows: Vec<Option<Box<[u8; ROW_BYTES]>>>,
    /// Earliest cycle an ACT may issue (tRC after previous ACT, tRP after
    /// precharge completes).
    pub(crate) next_act: Cycle,
    /// Earliest cycle a column command may issue (tRCD after ACT).
    pub(crate) next_col: Cycle,
    /// Earliest cycle a PRE may issue (tRAS after ACT, tWR after write data,
    /// tRTP after read).
    pub(crate) next_pre: Cycle,
    /// Cycle of the most recent ACT, for tRAS accounting.
    pub(crate) last_act: Cycle,
    /// Cycles accumulated with a row open, over all closed open-intervals.
    open_cycles: u64,
    /// Seeded cell-fault state, absent in the fault-free configuration.
    /// Boxed so the dormant hook costs one pointer per bank and one null
    /// test per array access.
    faults: Option<Box<CellFaults>>,
}

impl Default for Bank {
    fn default() -> Bank {
        Bank::new()
    }
}

impl Bank {
    /// Creates a closed, zero-initialized bank.
    pub fn new() -> Bank {
        Bank {
            state: BankState::Closed,
            rows: Vec::new(),
            next_act: 0,
            next_col: 0,
            next_pre: 0,
            last_act: 0,
            open_cycles: 0,
            faults: None,
        }
    }

    /// Installs (or clears) the seeded cell-fault state for this bank.
    /// With `None` — the default — the array is fault-free and every
    /// access path is bit-identical to a build without fault support.
    pub fn set_faults(&mut self, faults: Option<CellFaults>) {
        self.faults = faults.map(Box::new);
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Open(r) => Some(r),
            BankState::Closed => None,
        }
    }

    /// Records an ACT at `cycle` with the given timing parameters.
    ///
    /// The caller (the pseudo channel) has already validated legality.
    pub(crate) fn do_activate(&mut self, row: u32, cycle: Cycle, t: &crate::TimingParams) {
        debug_assert!(row < ROWS_PER_BANK, "row {row} out of range");
        debug_assert_eq!(self.state, BankState::Closed);
        self.state = BankState::Open(row);
        self.last_act = cycle;
        self.next_col = cycle + t.t_rcd;
        self.next_pre = cycle + t.t_ras;
        self.next_act = cycle + t.t_rc;
    }

    /// Records a PRE at `cycle`.
    pub(crate) fn do_precharge(&mut self, cycle: Cycle, t: &crate::TimingParams) {
        if self.state != BankState::Closed {
            self.open_cycles += cycle.saturating_sub(self.last_act);
        }
        self.state = BankState::Closed;
        self.next_act = self.next_act.max(cycle + t.t_rp);
    }

    /// Records a column read at `cycle`; extends the precharge horizon by
    /// tRTP.
    pub(crate) fn note_read(&mut self, cycle: Cycle, t: &crate::TimingParams) {
        self.next_pre = self.next_pre.max(cycle + t.t_rtp);
    }

    /// Records a column write at `cycle`; extends the precharge horizon to
    /// write-data end plus tWR.
    pub(crate) fn note_write(&mut self, cycle: Cycle, t: &crate::TimingParams) {
        self.next_pre = self.next_pre.max(cycle + t.t_wl + t.t_bl + t.t_wr);
    }

    /// The block at (`row`, `col`) as the array returns it: zero for an
    /// untouched row, cell faults applied.
    #[inline]
    fn load(&self, row: u32, col: u32) -> DataBlock {
        let mut block = [0u8; DATA_BLOCK_BYTES];
        if let Some(Some(data)) = self.rows.get(row as usize) {
            let off = col as usize * DATA_BLOCK_BYTES;
            block.copy_from_slice(&data[off..off + DATA_BLOCK_BYTES]);
        }
        if let Some(f) = &self.faults {
            f.corrupt_read(row, col, &mut block);
        }
        block
    }

    /// Stores `data` at (`row`, `col`), write faults applied, materializing
    /// the row on its first write.
    #[inline]
    fn store(&mut self, row: u32, col: u32, data: &DataBlock) {
        // Bounds the index: it grows to `row + 1` entries.
        assert!(row < ROWS_PER_BANK, "row {row} out of range");
        let mut data = *data;
        if let Some(f) = &mut self.faults {
            f.corrupt_write(row, col, &mut data);
        }
        let row = row as usize;
        if row >= self.rows.len() {
            self.rows.resize_with(row + 1, || None);
        }
        let storage = self.rows[row].get_or_insert_with(|| Box::new([0u8; ROW_BYTES]));
        let off = col as usize * DATA_BLOCK_BYTES;
        storage[off..off + DATA_BLOCK_BYTES].copy_from_slice(&data);
    }

    /// Reads the 32-byte block at `col` of the **open** row.
    ///
    /// # Panics
    ///
    /// Panics if no row is open or `col` is out of range — the pseudo
    /// channel validates both before calling.
    pub fn read_block(&self, col: u32) -> DataBlock {
        let row = self.open_row().expect("read with no open row");
        assert!(col < COLS_PER_ROW, "column {col} out of range");
        self.load(row, col)
    }

    /// Writes the 32-byte block at `col` of the **open** row.
    ///
    /// # Panics
    ///
    /// Panics if no row is open or `col` is out of range.
    pub fn write_block(&mut self, col: u32, data: &DataBlock) {
        let row = self.open_row().expect("write with no open row");
        assert!(col < COLS_PER_ROW, "column {col} out of range");
        self.store(row, col, data);
    }

    /// Direct backdoor read used by test assertions and by the functional
    /// loader of the software stack (modelling DMA initialization): reads a
    /// block without touching row-buffer or timing state.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn peek_block(&self, row: u32, col: u32) -> DataBlock {
        assert!(row < ROWS_PER_BANK && col < COLS_PER_ROW);
        self.load(row, col)
    }

    /// Direct backdoor write (see [`Bank::peek_block`]). Like the in-band
    /// path, it is subject to transient write faults: DMA traffic crosses
    /// the same array.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn poke_block(&mut self, row: u32, col: u32, data: &DataBlock) {
        assert!(row < ROWS_PER_BANK && col < COLS_PER_ROW);
        self.store(row, col, data);
    }

    /// Number of rows that have been materialized (written at least once).
    #[cfg(test)]
    fn touched_rows(&self) -> usize {
        self.rows.iter().flatten().count()
    }

    /// Adds completed open-interval cycles to the residency accumulator
    /// without a PRE. This is the launch-replay accounting hook: a replayed
    /// launch restores the residency its recorded run accumulated instead
    /// of re-simulating the ACT/PRE sequence.
    pub fn add_open_cycles(&mut self, cycles: u64) {
        self.open_cycles += cycles;
    }

    /// Cycles this bank has spent with a row open, up to `now`: completed
    /// open-intervals plus the in-progress one if a row is open.
    ///
    /// Row-state residency is the denominator-side of the paper's
    /// row-buffer analysis: open time is when column traffic can flow,
    /// closed time is precharge/idle overhead.
    pub fn open_cycles(&self, now: Cycle) -> u64 {
        let in_progress = match self.state {
            BankState::Open(_) => now.saturating_sub(self.last_act),
            BankState::Closed => 0,
        };
        self.open_cycles + in_progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingParams;

    #[test]
    fn new_bank_is_closed_and_zeroed() {
        let bank = Bank::new();
        assert_eq!(bank.state(), BankState::Closed);
        assert_eq!(bank.open_row(), None);
        assert_eq!(bank.peek_block(0, 0), [0u8; 32]);
        assert_eq!(bank.touched_rows(), 0);
    }

    #[test]
    fn activate_read_write_cycle() {
        let t = TimingParams::hbm2();
        let mut bank = Bank::new();
        bank.do_activate(5, 100, &t);
        assert_eq!(bank.open_row(), Some(5));
        assert_eq!(bank.next_col, 100 + t.t_rcd);
        assert_eq!(bank.next_pre, 100 + t.t_ras);
        assert_eq!(bank.next_act, 100 + t.t_rc);

        let data = [7u8; 32];
        bank.write_block(3, &data);
        assert_eq!(bank.read_block(3), data);
        // Other columns remain zero.
        assert_eq!(bank.read_block(4), [0u8; 32]);
        assert_eq!(bank.touched_rows(), 1);

        bank.do_precharge(200, &t);
        assert_eq!(bank.state(), BankState::Closed);
        // Data persists across precharge.
        assert_eq!(bank.peek_block(5, 3), data);
    }

    #[test]
    fn write_extends_precharge_horizon() {
        let t = TimingParams::hbm2();
        let mut bank = Bank::new();
        bank.do_activate(0, 0, &t);
        let before = bank.next_pre;
        bank.note_write(100, &t);
        assert!(bank.next_pre > before);
        assert_eq!(bank.next_pre, 100 + t.t_wl + t.t_bl + t.t_wr);
    }

    #[test]
    fn read_extends_precharge_horizon_by_rtp() {
        let t = TimingParams::hbm2();
        let mut bank = Bank::new();
        bank.do_activate(0, 0, &t);
        bank.note_read(1000, &t);
        assert_eq!(bank.next_pre, 1000 + t.t_rtp);
    }

    #[test]
    #[should_panic(expected = "no open row")]
    fn read_closed_bank_panics() {
        Bank::new().read_block(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_bounds_checked() {
        let t = TimingParams::hbm2();
        let mut bank = Bank::new();
        bank.do_activate(0, 0, &t);
        bank.read_block(COLS_PER_ROW);
    }

    #[test]
    fn open_cycles_accumulate_across_intervals() {
        let t = TimingParams::hbm2();
        let mut bank = Bank::new();
        assert_eq!(bank.open_cycles(100), 0);
        bank.do_activate(0, 100, &t);
        // In-progress interval counts.
        assert_eq!(bank.open_cycles(150), 50);
        bank.do_precharge(160, &t);
        assert_eq!(bank.open_cycles(300), 60);
        bank.do_activate(1, 400, &t);
        bank.do_precharge(450, &t);
        assert_eq!(bank.open_cycles(500), 110);
    }

    /// One access to a bank's storage, through the backdoor or in band.
    #[derive(Debug, Clone)]
    enum Access {
        Poke {
            row: u32,
            col: u32,
            fill: u8,
        },
        Peek {
            row: u32,
            col: u32,
        },
        /// ACT `row`, write `fill` at `col`, read it back, PRE.
        WriteBlock {
            row: u32,
            col: u32,
            fill: u8,
        },
        /// ACT `row`, read `col`, PRE.
        ReadBlock {
            row: u32,
            col: u32,
        },
    }

    fn any_access() -> impl proptest::prelude::Strategy<Value = Access> {
        use proptest::prelude::*;
        // The ends of the bank, the reserved PIM_CONF rows at its top, and
        // rows in between; few enough that sequences revisit them.
        let row = || {
            prop_oneof![
                Just(0u32),
                Just(ROWS_PER_BANK - 1),
                0x1FFAu32..0x2000,
                0u32..4,
                (0u32..ROWS_PER_BANK).prop_map(|r| r / 1000 * 1000),
            ]
        };
        let col = || 0u32..COLS_PER_ROW;
        prop_oneof![
            (row(), col(), any::<u8>()).prop_map(|(row, col, fill)| Access::Poke {
                row,
                col,
                fill
            }),
            (row(), col()).prop_map(|(row, col)| Access::Peek { row, col }),
            (row(), col(), any::<u8>()).prop_map(|(row, col, fill)| Access::WriteBlock {
                row,
                col,
                fill
            }),
            (row(), col()).prop_map(|(row, col)| Access::ReadBlock { row, col }),
        ]
    }

    proptest::proptest! {
        /// The row storage against a `(row, col) -> block` map: every read,
        /// in band or backdoor, returns the last block written there or
        /// zeros, and `touched_rows` counts the distinct rows written.
        #[test]
        fn storage_matches_a_map_model(
            accesses in proptest::collection::vec(any_access(), 1..64),
        ) {
            let t = TimingParams::hbm2();
            let mut bank = Bank::new();
            let mut model: std::collections::HashMap<(u32, u32), DataBlock> = Default::default();
            let stored = |model: &std::collections::HashMap<(u32, u32), DataBlock>, row, col| {
                model.get(&(row, col)).copied().unwrap_or([0u8; DATA_BLOCK_BYTES])
            };
            for (i, access) in accesses.into_iter().enumerate() {
                let cycle = i as Cycle * 1000;
                match access {
                    Access::Poke { row, col, fill } => {
                        bank.poke_block(row, col, &[fill; DATA_BLOCK_BYTES]);
                        model.insert((row, col), [fill; DATA_BLOCK_BYTES]);
                    }
                    Access::Peek { row, col } => {
                        proptest::prop_assert_eq!(bank.peek_block(row, col), stored(&model, row, col));
                    }
                    Access::WriteBlock { row, col, fill } => {
                        bank.do_activate(row, cycle, &t);
                        bank.write_block(col, &[fill; DATA_BLOCK_BYTES]);
                        model.insert((row, col), [fill; DATA_BLOCK_BYTES]);
                        proptest::prop_assert_eq!(bank.read_block(col), [fill; DATA_BLOCK_BYTES]);
                        bank.do_precharge(cycle + 500, &t);
                    }
                    Access::ReadBlock { row, col } => {
                        bank.do_activate(row, cycle, &t);
                        proptest::prop_assert_eq!(bank.read_block(col), stored(&model, row, col));
                        bank.do_precharge(cycle + 500, &t);
                    }
                }
                let rows: std::collections::HashSet<u32> = model.keys().map(|k| k.0).collect();
                proptest::prop_assert_eq!(bank.touched_rows(), rows.len());
            }
            // Every block of every row ever named, not only the ones read.
            for &(row, _) in model.keys() {
                for col in 0..COLS_PER_ROW {
                    proptest::prop_assert_eq!(bank.peek_block(row, col), stored(&model, row, col));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 8192 out of range")]
    fn in_band_write_past_the_last_row_is_refused() {
        // ACT only debug-checks the row; the store must not grow the index
        // for a row the bank does not have.
        let mut bank = Bank::new();
        bank.state = BankState::Open(ROWS_PER_BANK);
        bank.write_block(0, &[1; 32]);
    }

    #[test]
    fn poke_then_activate_read_sees_data() {
        let t = TimingParams::hbm2();
        let mut bank = Bank::new();
        bank.poke_block(11, 2, &[0x5A; 32]);
        bank.do_activate(11, 0, &t);
        assert_eq!(bank.read_block(2), [0x5A; 32]);
    }
}
