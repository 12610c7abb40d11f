//! The paper's reported Fig. 10 speed-ups: the reference every simulated
//! speed-up the harness prints is compared against. Values are the paper's,
//! as recorded in `EXPERIMENTS.md` §Fig. 10 (line numbers below refer to
//! that file); the simulator's own measured column there is *not* used.

/// One reference row: workload, batch, PIM-HBM over HBM speed-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub name: &'static str,
    pub batch: usize,
    pub paper: f64,
}

/// The reference rows of `paper_rel_err_*`.
pub const FIG10: [Reference; 10] = [
    // EXPERIMENTS.md:43 — GEMV1..GEMV4 at batch 1, "1.4~11.2x".
    Reference { name: "GEMV1", batch: 1, paper: 1.4 },
    Reference { name: "GEMV4", batch: 1, paper: 11.2 },
    // EXPERIMENTS.md:44
    Reference { name: "GEMV4", batch: 2, paper: 3.2 },
    // EXPERIMENTS.md:46 — "~1.6x at every batch"; compared against the
    // geometric mean of ADD1..ADD4 over batches 1, 2 and 4.
    Reference { name: "ADD", batch: 0, paper: 1.6 },
    // EXPERIMENTS.md:47
    Reference { name: "DS2", batch: 1, paper: 3.5 },
    Reference { name: "DS2", batch: 2, paper: 1.6 },
    // EXPERIMENTS.md:48 — batch 1 is not reported by the paper.
    Reference { name: "RNN-T", batch: 2, paper: 1.9 },
    // EXPERIMENTS.md:49
    Reference { name: "GNMT", batch: 1, paper: 1.5 },
    // EXPERIMENTS.md:50
    Reference { name: "AlexNet", batch: 1, paper: 1.4 },
    // EXPERIMENTS.md:51
    Reference { name: "ResNet-50", batch: 1, paper: 1.0 },
];

/// The worst relative error the harness accepts as "the reproduction still
/// holds". Today the RNN-T batch-2 deviation (1.26 against 1.9, 0.34) sets
/// the maximum; `EXPERIMENTS.md` documents why.
pub const REL_ERR_CEILING: f64 = 0.40;

/// `|measured − paper| ÷ paper`.
pub fn rel_err(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper
}
