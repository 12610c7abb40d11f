//! What the paper reports, written once. Every number of its evaluation
//! is a [`Claim`]: figure, workload, batch, the paper's value (`None` for
//! a range or inequality claim), the band the reproduction must hold, and
//! how to read the measured value from one [`Snapshot`] of
//! [`crate::experiments`].
//!
//! `pimrepro paper` ([`render`]) prints paper | measured | rel_err | band
//! per row and the error per figure, EXPERIMENTS.md embeds that output,
//! `tests/reproduction.rs` holds every row inside its band, and the
//! `paper=` lines of the figure entries and the examples read their
//! numbers through [`reported`].

use std::fmt;

use crate::experiments::{self as exp, Fig10Row, Fig11Result, Fig12Row, Fig14Row, PowerSeries};
use crate::micro::geo_mean;
use crate::report::format_table;
use pim_core::PimConfig;
use pim_dram::{BANKS_PER_PCH, PCH_PER_STACK};
use Band::{Above, Below, Exact, Within};

/// Where a measured value must land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `lo <= v < hi`.
    Within(f64, f64),
    /// `v < x`.
    Below(f64),
    /// `v > x`.
    Above(f64),
    /// `v == x`: a count or constant the model reproduces exactly.
    Exact(f64),
}

impl Band {
    /// Whether `v` lies in the band.
    pub fn contains(self, v: f64) -> bool {
        match self {
            Within(lo, hi) => (lo..hi).contains(&v),
            Below(x) => v < x,
            Above(x) => v > x,
            Exact(x) => v == x,
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Within(lo, hi) => write!(f, "[{lo}, {hi})"),
            Below(x) => write!(f, "< {x}"),
            Above(x) => write!(f, "> {x}"),
            Exact(x) => write!(f, "= {x}"),
        }
    }
}

/// One number the paper reports.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The table or figure, or `§VII-B` for the no-fence study.
    pub figure: &'static str,
    /// The workload or quantity the claim is about.
    pub workload: &'static str,
    /// The batch size; 0 for a claim about no one batch (a table value, or
    /// a geometric mean over every batch).
    pub batch: usize,
    /// The paper's value; `None` for a range or inequality claim, which
    /// its band alone states.
    pub paper: Option<f64>,
    /// Where the measured value must land.
    pub band: Band,
    read: fn(&Snapshot, &Claim) -> f64,
}

impl Claim {
    /// The claim's measured value in `s`.
    pub fn measure(&self, s: &Snapshot) -> f64 {
        (self.read)(s, self)
    }

    /// `|measured − paper| ÷ paper`, for a claim with a paper value.
    pub fn rel_err(&self, measured: f64) -> Option<f64> {
        self.paper.map(|p| (measured - p).abs() / p)
    }
}

/// One evaluation of every figure a claim reads (about half a millisecond:
/// the cost model prices each shape once); the tables' claims read the
/// model's constants directly.
#[derive(Debug)]
pub struct Snapshot {
    fig10: Vec<Fig10Row>,
    fig11: Fig11Result,
    fig12: Vec<Fig12Row>,
    fig13: (PowerSeries, PowerSeries),
    fig14: (Vec<Fig14Row>, Vec<(&'static str, f64)>),
    nofence: Vec<(usize, f64)>,
}

impl Snapshot {
    /// Evaluates every figure once.
    pub fn take() -> Snapshot {
        Snapshot {
            fig10: exp::fig10(),
            fig11: exp::fig11(),
            fig12: exp::fig12(),
            fig13: exp::fig13(),
            fig14: exp::fig14(),
            nofence: exp::nofence(),
        }
    }

    fn fig10_row(&self, name: &str, batch: usize) -> &Fig10Row {
        self.fig10.iter().find(|r| r.name == name && r.batch == batch).expect("a Fig. 10 row")
    }

    /// Fig. 10's speedup of the claim's workload at its batch; batch 0 is
    /// the geometric mean over every size (`ADD` is ADD1–4) and batch.
    fn perf(&self, c: &Claim) -> f64 {
        if c.batch > 0 {
            return self.fig10_row(c.workload, c.batch).relative_perf;
        }
        let sizes = self.fig10.iter().filter(|r| r.name.starts_with(c.workload));
        geo_mean(&sizes.map(|r| r.relative_perf).collect::<Vec<_>>())
    }

    /// Fig. 10's LLC miss rate of the HBM baseline.
    fn llc(&self, name: &str, batch: usize) -> f64 {
        self.fig10_row(name, batch).llc_miss.expect("a microbenchmark")
    }

    fn fig12_row(&self, name: &str) -> &Fig12Row {
        self.fig12.iter().find(|r| r.name == name).expect("a Fig. 12 workload")
    }

    /// Fig. 12's energy-efficiency gain of the claim's workload over PROC-HBM.
    fn efficiency(&self, c: &Claim) -> f64 {
        self.fig12_row(c.workload).pim_efficiency_gain()
    }

    /// Fig. 12's gain of `name` over PROC-HBMx4.
    fn x4(&self, name: &str) -> f64 {
        self.fig12_row(name).pim_gain_over_x4()
    }

    /// Fig. 13: how many times sooner DS2 finishes on PIM-HBM.
    fn ds2_speedup(&self, _: &Claim) -> f64 {
        let end = |s: &PowerSeries| s.last().map_or(0.0, |(t, _)| *t);
        end(&self.fig13.0) / end(&self.fig13.1)
    }

    /// Fig. 13: PIM-HBM's average power over the baseline's.
    fn ds2_power(&self, _: &Claim) -> f64 {
        let mean = |s: &PowerSeries| s.iter().map(|(_, w)| w).sum::<f64>() / s.len() as f64;
        mean(&self.fig13.1) / mean(&self.fig13.0)
    }

    /// Fig. 14's geometric-mean speedup of the claim's variant over the base.
    fn variant_gain(&self, c: &Claim) -> f64 {
        let geo = |v: &str| self.fig14.1.iter().find(|(name, _)| *name == v).expect("a variant").1;
        geo(c.workload) / geo("PIM-HBM")
    }

    /// Fig. 14's speedup of `variant` on `workload` over the base's.
    fn over_base(&self, variant: &str, workload: &str) -> f64 {
        let rows = &self.fig14.0;
        let speedup = |v: &str| rows.iter().find(|r| r.variant == v && r.workload == workload);
        speedup(variant).expect("a variant").speedup / speedup("PIM-HBM").expect("base").speedup
    }

    /// §VII-B's no-fence gain at the claim's batch; batch 0 is the geometric
    /// mean over the batches.
    fn nofence(&self, c: &Claim) -> f64 {
        match self.nofence.iter().find(|(batch, _)| *batch == c.batch) {
            Some(&(_, gain)) => gain,
            None => geo_mean(&self.nofence.iter().map(|(_, g)| *g).collect::<Vec<_>>()),
        }
    }
}

type S = &'static str;
type Read = fn(&Snapshot, &Claim) -> f64;

/// A claim with a paper value.
const fn at(figure: S, workload: S, batch: usize, paper: f64, band: Band, read: Read) -> Claim {
    Claim { figure, workload, batch, paper: Some(paper), band, read }
}

/// A range or inequality claim.
const fn bound(figure: S, workload: S, batch: usize, band: Band, read: Read) -> Claim {
    Claim { figure, workload, batch, paper: None, band, read }
}

/// A table value the model reproduces exactly.
const fn exact(figure: S, workload: S, paper: f64, read: Read) -> Claim {
    at(figure, workload, 0, paper, Exact(paper), read)
}

const T1: S = "Table I";
const T2: S = "Table II";
const T5: S = "Table V";
const F10: S = "Fig. 10";
const F11: S = "Fig. 11";
const F12: S = "Fig. 12";
const F14: S = "Fig. 14";
const NOFENCE: S = "§VII-B";

/// Every number the paper reports, in the order `pimrepro paper` prints
/// them. A band may tighten but never widen: a measured value that leaves
/// its band is a regression to explain, not a reason to move the band.
pub const CLAIMS: &[Claim] = &[
    // Table I (§III-C): MAC units, normalized to INT16 with a 48-bit accumulator.
    exact(T1, "INT16/48 area", 1.0, |_, _| exp::table1()[0].rel_area),
    exact(T1, "INT16/48 energy", 1.0, |_, _| exp::table1()[0].rel_energy),
    exact(T1, "INT8/48 area", 0.45, |_, _| exp::table1()[1].rel_area),
    exact(T1, "INT8/48 energy", 0.81, |_, _| exp::table1()[1].rel_energy),
    exact(T1, "INT8/32 area", 0.35, |_, _| exp::table1()[2].rel_area),
    exact(T1, "INT8/32 energy", 0.77, |_, _| exp::table1()[2].rel_energy),
    exact(T1, "FP16 area", 1.32, |_, _| exp::table1()[3].rel_area),
    exact(T1, "FP16 energy", 1.21, |_, _| exp::table1()[3].rel_energy),
    exact(T1, "BFLOAT16 area", 1.15, |_, _| exp::table1()[4].rel_area),
    exact(T1, "BFLOAT16 energy", 1.04, |_, _| exp::table1()[4].rel_energy),
    exact(T1, "FP32 area", 3.96, |_, _| exp::table1()[5].rel_area),
    exact(T1, "FP32 energy", 1.34, |_, _| exp::table1()[5].rel_energy),
    // Table II: operand combinations, enumerated from the ISA.
    exact(T2, "MUL", 32.0, |_, _| exp::table2().mul as f64),
    exact(T2, "ADD", 40.0, |_, _| exp::table2().add as f64),
    exact(T2, "MAC", 14.0, |_, _| exp::table2().mac as f64),
    exact(T2, "MAD", 28.0, |_, _| exp::table2().mad as f64),
    exact(T2, "MOV", 24.0, |_, _| exp::table2().mov as f64),
    exact(T2, "compute total", 114.0, |_, _| exp::table2().compute_total() as f64),
    // Table V: one device, bandwidths derived from the timing engine.
    exact(T5, "pCHs", 16.0, |_, _| PCH_PER_STACK as f64),
    exact(T5, "banks per pCH", 16.0, |_, _| BANKS_PER_PCH as f64),
    exact(T5, "PIM units per pCH", 8.0, |_, _| PimConfig::paper().units_per_pch as f64),
    exact(T5, "on-chip GB/s @ 1.0 GHz", 1024.0, |_, _| exp::device_bandwidth().on_chip_gbs[0]),
    exact(T5, "on-chip GB/s @ 1.2 GHz", 1228.8, |_, _| exp::device_bandwidth().on_chip_gbs[1]),
    exact(T5, "off-chip GB/s @ 1.0 GHz", 256.0, |_, _| exp::device_bandwidth().off_chip_gbs[0]),
    exact(T5, "off-chip GB/s @ 1.2 GHz", 307.2, |_, _| exp::device_bandwidth().off_chip_gbs[1]),
    // Fig. 10: PIM-HBM over HBM. "1.4~11.2x higher performance ... for the
    // microbenchmarks"; "improves the performance of ADD by only 1.6x".
    at(F10, "GEMV1", 1, 1.4, Within(1.2, 1.7), Snapshot::perf),
    at(F10, "GEMV4", 1, 11.2, Within(10.0, 12.5), Snapshot::perf),
    bound(F10, "ADD1", 1, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD2", 1, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD3", 1, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD4", 1, Within(1.4, 1.9), Snapshot::perf),
    // "For DS2, GNMT, and AlexNet, PIM-HBM gives 3.5x, 1.5x, and 1.4x";
    // ResNet-50 "gives the same performance as HBM".
    at(F10, "DS2", 1, 3.5, Within(3.0, 4.0), Snapshot::perf),
    at(F10, "GNMT", 1, 1.5, Within(1.3, 2.1), Snapshot::perf),
    at(F10, "AlexNet", 1, 1.4, Within(1.1, 1.6), Snapshot::perf),
    at(F10, "ResNet-50", 1, 1.0, Within(0.97, 1.03), Snapshot::perf),
    // Batch 2: "3.2x" for GEMV, "1.6x" and "1.9x" for DS2 and RNN-T.
    at(F10, "GEMV4", 2, 3.2, Within(2.9, 3.5), Snapshot::perf),
    bound(F10, "ADD1", 2, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD2", 2, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD3", 2, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD4", 2, Within(1.4, 1.9), Snapshot::perf),
    at(F10, "DS2", 2, 1.6, Within(1.4, 1.9), Snapshot::perf),
    at(F10, "RNN-T", 2, 1.9, Within(1.1, 2.1), Snapshot::perf),
    // Batch 4: "the processor with HBM begins to outperform" on GEMV, ADD
    // "is still memory-bound regardless of the batch size", and PIM "does
    // not hurt" an application.
    bound(F10, "GEMV1", 4, Below(1.0), Snapshot::perf),
    bound(F10, "GEMV2", 4, Below(1.0), Snapshot::perf),
    bound(F10, "GEMV4", 4, Below(1.15), Snapshot::perf),
    bound(F10, "ADD1", 4, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD2", 4, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD3", 4, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "ADD4", 4, Within(1.4, 1.9), Snapshot::perf),
    bound(F10, "DS2", 4, Within(0.95, 1.1), Snapshot::perf),
    bound(F10, "RNN-T", 4, Within(0.95, 1.1), Snapshot::perf),
    bound(F10, "GNMT", 4, Within(0.95, 1.1), Snapshot::perf),
    bound(F10, "AlexNet", 4, Within(0.95, 1.1), Snapshot::perf),
    bound(F10, "ResNet-50", 4, Within(0.95, 1.1), Snapshot::perf),
    at(F10, "ADD", 0, 1.6, Within(1.4, 1.9), Snapshot::perf),
    // "LLC miss rates that decrease from almost ~100% to 70-80%".
    bound(F10, "GEMV4 LLC miss", 1, Exact(1.0), |s, _| s.llc("GEMV4", 1)),
    bound(F10, "GEMV2 LLC miss", 4, Below(0.85), |s, _| s.llc("GEMV2", 4)),
    bound(F10, "GEMV4 LLC miss", 4, Within(0.65, 0.85), |s, _| s.llc("GEMV4", 4)),
    // Fig. 11 / §VII-C: "only 5.4% higher power even with 4x higher
    // bandwidth", "reduces the energy per bit transfer by 3.5x", "~10%
    // lower" with the buffer-die I/O gated.
    at(F11, "power PIM-HBM / HBM", 0, 1.054, Within(1.02, 1.09), |s, _| s.fig11.power_ratio),
    exact(F11, "on-chip bandwidth ratio", 4.0, |s, _| s.fig11.bandwidth_ratio),
    at(F11, "energy/bit HBM / PIM", 0, 3.5, Within(3.2, 3.8), |s, _| s.fig11.energy_per_bit_ratio),
    at(F11, "buffer I/O gating", 0, 0.1, Within(0.08, 0.12), |s, _| s.fig11.buffer_gating_saving),
    // Fig. 12: energy-efficiency gain over PROC-HBM, then over PROC-HBMx4.
    at(F12, "GEMV", 1, 8.25, Within(7.0, 11.0), Snapshot::efficiency),
    at(F12, "ADD", 1, 1.4, Within(1.3, 2.1), Snapshot::efficiency),
    at(F12, "DS2", 1, 3.2, Within(2.6, 3.6), Snapshot::efficiency),
    at(F12, "GNMT", 1, 1.38, Within(1.2, 1.9), Snapshot::efficiency),
    at(F12, "AlexNet", 1, 1.5, Within(1.0, 1.7), Snapshot::efficiency),
    at(F12, "DS2 vs x4", 1, 2.8, Within(2.0, 3.2), |s, _| s.x4("DS2")),
    at(F12, "GNMT vs x4", 1, 1.1, Within(1.0, 1.8), |s, _| s.x4("GNMT")),
    at(F12, "AlexNet vs x4", 1, 1.3, Within(1.0, 1.7), |s, _| s.x4("AlexNet")),
    // Fig. 13: DS2 on PIM-HBM finishes earlier "and" at lower average
    // power; the model lands within 5% of the baseline's (EXPERIMENTS.md).
    bound("Fig. 13", "DS2 time HBM / PIM", 1, Above(1.0), Snapshot::ds2_speedup),
    bound("Fig. 13", "DS2 power PIM / HBM", 1, Below(1.05), Snapshot::ds2_power),
    // Fig. 14: geometric-mean gain of each variant over PIM-HBM, ~+40% /
    // ~+20% / ~+10%; 2BA is "useful especially for ADD", SRW helps GEMV.
    at(F14, "PIM-HBM-2x", 1, 1.4, Within(1.15, 1.5), Snapshot::variant_gain),
    at(F14, "PIM-HBM-2BA", 1, 1.2, Within(1.05, 1.3), Snapshot::variant_gain),
    at(F14, "PIM-HBM-SRW", 1, 1.1, Within(1.0, 1.2), Snapshot::variant_gain),
    bound(F14, "2BA on ADD4", 1, Above(1.3), |s, _| s.over_base("PIM-HBM-2BA", "ADD4")),
    bound(F14, "SRW on GEMV4", 1, Above(1.0), |s, _| s.over_base("PIM-HBM-SRW", "GEMV4")),
    // §VII-B: "2.2x, 1.9x, and 2.0x higher performance ... for
    // microbenchmarks with batch size of 1, 2, and 4" without fences.
    at(NOFENCE, "no-fence gain", 1, 2.2, Within(1.7, 2.3), Snapshot::nofence),
    at(NOFENCE, "no-fence gain", 2, 1.9, Within(1.7, 2.3), Snapshot::nofence),
    at(NOFENCE, "no-fence gain", 4, 2.0, Within(1.7, 2.3), Snapshot::nofence),
    bound(NOFENCE, "no-fence gain", 0, Within(1.8, 2.1), Snapshot::nofence),
];

/// The claim about `workload` at `batch` in `figure`.
pub fn find(figure: &str, workload: &str, batch: usize) -> Option<&'static Claim> {
    CLAIMS.iter().find(|c| c.figure == figure && c.workload == workload && c.batch == batch)
}

/// The paper's value for `workload` at `batch` in `figure`.
///
/// # Panics
///
/// Panics if the table holds no such claim or the claim has no paper value.
pub fn reported(figure: &str, workload: &str, batch: usize) -> f64 {
    let value = find(figure, workload, batch).and_then(|c| c.paper);
    value.unwrap_or_else(|| panic!("the paper reports no {figure} value for {workload} B{batch}"))
}

/// `pimrepro paper`: every claim against its measured value, then the
/// relative error per figure.
pub fn render(out: &mut String) {
    let s = Snapshot::take();
    let measured: Vec<(&Claim, f64)> = CLAIMS.iter().map(|c| (c, c.measure(&s))).collect();
    let dash = || "-".to_string();
    let batch = |c: &Claim| if c.batch == 0 { dash() } else { format!("B{}", c.batch) };
    let number = |v: f64| if v.fract() == 0.0 { format!("{v}") } else { format!("{v:.3}") };
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|&(c, m)| {
            let paper = c.paper.map_or_else(dash, |p| p.to_string());
            let err = c.rel_err(m).map_or_else(dash, |e| format!("{e:.3}"));
            let band = c.band.to_string();
            vec![c.figure.into(), c.workload.into(), batch(c), paper, number(m), err, band]
        })
        .collect();
    out.push_str("Every number the paper reports, against the reproduction\n\n");
    let header = ["Figure", "Claim", "Batch", "Paper", "Measured", "rel_err", "Band"];
    out.push_str(&format_table(&header, &rows));

    let mut figures: Vec<&str> = CLAIMS.iter().map(|c| c.figure).collect();
    figures.dedup();
    let rows: Vec<Vec<String>> = figures
        .into_iter()
        .map(|f| {
            let mine: Vec<_> = measured.iter().filter(|(c, _)| c.figure == f).collect();
            let errs: Vec<(f64, &Claim)> =
                mine.iter().filter_map(|&&(c, m)| c.rel_err(m).map(|e| (e, c))).collect();
            let mean = errs.iter().map(|(e, _)| e).sum::<f64>() / errs.len() as f64;
            let worst = errs.iter().max_by(|a, b| a.0.total_cmp(&b.0));
            let (max, mean) = match worst {
                Some((max, _)) => (format!("{max:.3}"), format!("{mean:.3}")),
                None => (dash(), dash()),
            };
            let worst = match worst {
                Some(&(e, c)) if e > 0.0 => format!("{} {}", c.workload, batch(c)),
                _ => dash(),
            };
            vec![f.into(), mine.len().to_string(), errs.len().to_string(), max, mean, worst]
        })
        .collect();
    out.push_str("\nrel_err = |measured - paper| / paper, per figure:\n\n");
    let header = ["Figure", "Claims", "With paper value", "Max", "Mean", "Worst"];
    out.push_str(&format_table(&header, &rows));
    out.push_str("\nA claim without a paper value is a range or an inequality: its band\n");
    out.push_str("states it. tests/reproduction.rs holds every measured value in its band.\n");
}
