//! The choreography of a PIM kernel as what it is: a loop nest.
//!
//! The paper's kernels are tiny loops over DRAM rows — a GEMV is `rows ×
//! (ACT + 4 × (WR + 8 RD + fence) + PRE)`, a stream op `rows × (ACT + 2–3
//! stages × 8 RD + PRE)` — bracketed by a fixed mode-setting prologue and
//! epilogue. A [`Kernel`] states that structure once. [`Kernel::materialise`]
//! unrolls it into the `Vec<Batch>` the engine runs, and
//! [`crate::ChannelPredictor::fold`] prices it without unrolling: once the
//! clock's state repeats from one trip to the next, the remaining trips are
//! a multiplication.

use crate::engine::Batch;
use pim_core::conf::PIM_CONF_FIRST_ROW;
use pim_dram::Command;

/// `trips` repetitions of one list of batches. Trip `t` issues the period
/// with every `ACT` row raised by `t · row_stride`; nothing else varies.
#[derive(Debug, Clone)]
pub struct Loop {
    period: Vec<Batch>,
    trips: u32,
    row_stride: u32,
}

impl Loop {
    /// A loop over `period`.
    ///
    /// # Panics
    ///
    /// If any trip would activate a row of the reserved `PIM_CONF` region
    /// (the mode registers included): such an ACT changes what the commands
    /// after it mean, so the trips would not be repetitions of one another.
    pub fn new(period: Vec<Batch>, trips: u32, row_stride: u32) -> Loop {
        let reach = trips.saturating_sub(1).checked_mul(row_stride);
        for c in period.iter().flat_map(|b| &b.commands) {
            if let Command::Act { row, .. } = c {
                assert!(
                    reach.and_then(|r| r.checked_add(*row)).is_some_and(|r| r < PIM_CONF_FIRST_ROW),
                    "a loop from row {row}, {trips} trips of stride {row_stride}, reaches PIM_CONF"
                );
            }
        }
        Loop { period, trips, row_stride }
    }

    /// The batches of trip 0.
    pub fn period(&self) -> &[Batch] {
        &self.period
    }

    /// How many times the period issues.
    pub fn trips(&self) -> u32 {
        self.trips
    }
}

/// `batch` with every `ACT` row raised by `offset`.
fn raised(mut batch: Batch, offset: u32) -> Batch {
    for c in &mut batch.commands {
        if let Command::Act { row, .. } = c {
            *row += offset;
        }
    }
    batch
}

/// One channel's command choreography: `prologue`, then every loop of
/// `body` in turn, then `epilogue`.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    /// Batches issued once, before the loops.
    pub prologue: Vec<Batch>,
    /// The loops, in issue order.
    pub body: Vec<Loop>,
    /// Batches issued once, after the loops.
    pub epilogue: Vec<Batch>,
}

impl Kernel {
    /// The kernel unrolled: exactly the batch list the engine is handed.
    pub fn materialise(self) -> Vec<Batch> {
        let looped: usize = self.body.iter().map(|l| l.period.len() * l.trips as usize).sum();
        let mut out = self.prologue;
        out.reserve_exact(looped + self.epilogue.len());
        for l in self.body {
            // Every trip but the last copies the period; the last takes it.
            let Some(last) = l.trips.checked_sub(1) else { continue };
            for t in 0..last {
                out.extend(l.period.iter().map(|b| raised(b.clone(), t * l.row_stride)));
            }
            out.extend(l.period.into_iter().map(|b| raised(b, last * l.row_stride)));
        }
        out.extend(self.epilogue);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::BankAddr;

    fn row(row: u32) -> Vec<Batch> {
        let bank = BankAddr::new(0, 0);
        vec![
            Batch::setup(vec![Command::Act { bank, row }]),
            Batch::commutative(vec![Command::Rd { bank, col: 3 }]),
            Batch::setup(vec![Command::Pre { bank }]),
        ]
    }

    #[test]
    fn materialise_strides_act_rows_and_nothing_else() {
        let k = Kernel {
            prologue: row(100),
            body: vec![Loop::new(row(7), 3, 2), Loop::new(row(50), 1, 0)],
            epilogue: row(200),
        };
        let list = k.materialise();
        assert_eq!(list.len(), 3 * (1 + 3 + 1 + 1));
        let acts: Vec<u32> = list
            .iter()
            .flat_map(|b| &b.commands)
            .filter_map(|c| if let Command::Act { row, .. } = c { Some(*row) } else { None })
            .collect();
        assert_eq!(acts, [100, 7, 9, 11, 50, 200]);
        assert!(list.iter().skip(1).step_by(3).all(|b| b.commutative && b.fence_after));
    }

    #[test]
    #[should_panic(expected = "reaches PIM_CONF")]
    fn a_loop_into_the_mode_registers_is_refused() {
        Loop::new(row(PIM_CONF_FIRST_ROW - 4), 3, 2);
    }
}
