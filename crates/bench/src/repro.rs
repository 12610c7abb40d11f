//! The experiment registry: every table, figure and extension study of
//! the reproduction as a named entry whose `render` writes the text the
//! `pimrepro` binary prints. `tests/repro_golden.rs` holds each entry's
//! output equal, byte for byte, to `tests/golden/repro/<name>.txt`, so a
//! change that moves a simulated number moves a golden file in the same
//! diff.
//!
//! The numbers come from [`crate::experiments`] and the model crates, and
//! what the paper reports from [`crate::paper`]; an entry only formats
//! them.

use std::fmt::Write;

use crate::experiments as exp;
use crate::micro::{bn_micro, geo_mean, microbenchmarks, MicroResult};
use crate::paper::{self, reported};
use crate::report::{format_table, time};
use crate::workloads;
use pim_core::PimConfig;
use pim_dram::TimingParams;
use pim_energy::{PowerComponent, SystemPowerModel};
use pim_fp16::intmac::dot_product_errors;
use pim_host::HostConfig;
use pim_models::capacity::collaborative_gemv;
use pim_models::{models, CostModel, ModelRunner, SystemKind};
use pim_runtime::kernels::{stream_columns, StreamOp};
use pim_runtime::layout::BlockMap;

/// One named experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `pimrepro` takes and the stem of the golden file.
    pub name: &'static str,
    /// What the entry reproduces, in one line.
    pub title: &'static str,
    /// Appends the entry's full text to the buffer.
    pub render: fn(&mut String),
}

const fn entry(name: &'static str, title: &'static str, render: fn(&mut String)) -> Experiment {
    Experiment { name, title, render }
}

/// Every experiment, in the order `pimrepro all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table1", "MAC unit area and energy/op (Table I)", table1),
    entry("table2", "operand combinations enumerated from the ISA (Table II)", table2),
    entry("table3", "instruction encodings (Table III)", table3),
    entry("table4", "PIM execution unit spec (Table IV)", table4),
    entry("table5", "PIM-HBM device spec, bandwidth derived (Table V)", table5),
    entry("table6", "microbenchmark sizes (Table VI)", table6),
    entry("fig5_aam", "ordering hazard and AAM demonstration (Fig. 5)", fig5_aam),
    entry("fig10", "relative performance and LLC miss rates (Fig. 10)", fig10),
    entry("fig11", "power breakdown over back-to-back reads (Fig. 11)", fig11),
    entry("fig12", "relative power and energy (Fig. 12)", fig12),
    entry("fig13", "DS2 system power over time (Fig. 13)", fig13),
    entry("fig14", "DSE variants 2x / 2BA / SRW (Fig. 14)", fig14),
    entry("fig15", "data placement for PIM ADD (Fig. 15)", fig15),
    entry("nofence", "ordered controller vs fenced baseline (Section VII-B)", nofence),
    entry("ablation", "fence cost and PIM units per pseudo channel", ablation),
    entry("batch_tradeoff", "DS2 latency vs throughput across batch sizes", batch_tradeoff),
    entry("calibration", "every headline number, raw (the tuning record)", calibration),
    entry(
        "dram_generations",
        "all-bank bandwidth gain on HBM2 / GDDR6 / LPDDR5 / DDR5",
        dram_generations,
    ),
    entry("hbm3_future", "collaborative host + PIM GEMV (Section VIII)", hbm3_future),
    entry("quantization", "dot-product error of FP16 / INT16 / INT8 MAC units", quantization),
    entry("models_info", "application inventory (Section VII-A)", models_info),
    entry("paper", "every number the paper reports: paper, measured, rel_err, band", paper::render),
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `println!` into the buffer; writing to a `String` cannot fail.
macro_rules! say {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

fn table1(out: &mut String) {
    say!(
        out,
        "Table I: MAC units in a DRAM 20nm technology (normalized to INT16 w/ 48-bit Acc.)\n"
    );
    let rows: Vec<Vec<String>> = exp::table1()
        .into_iter()
        .map(|m| {
            vec![
                m.format.label().to_string(),
                format!("{:.2}", m.rel_area),
                format!("{:.2}", m.rel_energy),
            ]
        })
        .collect();
    print_table(out, &["Number format", "Area", "Energy/Op."], &rows);
    say!(out, "paper= identical values (Table I is reproduced verbatim as model constants;");
    say!(out, "       the FP16-over-BFLOAT16 design rationale is asserted by unit tests).");
}

fn table2(out: &mut String) {
    let c = exp::table2();
    say!(out, "Table II: operand combinations enumerated from the ISA\n");
    let rows: Vec<Vec<String>> = [
        ("MUL", "GRF, BANK", "GRF, BANK, SRF_M", "GRF", c.mul),
        ("ADD", "GRF, BANK, SRF_A", "GRF, BANK, SRF_A", "GRF", c.add),
        ("MAC", "GRF, BANK", "GRF, BANK, SRF_M", "GRF_B", c.mac),
        ("MAD", "GRF, BANK", "GRF, BANK, SRF_M (+SRF_A)", "GRF", c.mad),
        ("MOV(ReLU)", "GRF, BANK, SRF", "-", "GRF", c.mov),
    ]
    .iter()
    .map(|(op, src0, src1, dst, n)| {
        vec![op.to_string(), src0.to_string(), src1.to_string(), dst.to_string(), n.to_string()]
    })
    .collect();
    print_table(out, &["Op. Type", "SRC0", "SRC1", "DST", "# of Combinations"], &rows);
    let p = |op: &str| reported("Table II", op, 0);
    let (total, mul, add, mac, mad, mov) =
        (p("compute total"), p("MUL"), p("ADD"), p("MAC"), p("MAD"), p("MOV"));
    let (got_total, got_mov) = (c.compute_total(), c.mov);
    say!(
        out,
        "compute total = {got_total} (paper: {total}), data movements = {got_mov} (paper: {mov})"
    );
    say!(
        out,
        "paper= MUL {mul}, ADD {add}, MAC {mac}, MAD {mad}, MOV {mov} -- all reproduced exactly."
    );
}

fn table3(out: &mut String) {
    say!(out, "Table III: instruction encodings (layout: see pim_core::isa docs)\n");
    let rows: Vec<Vec<String>> = exp::table3()
        .into_iter()
        .map(|(text, word)| vec![text, format!("{word:#010X}"), format!("{word:032b}")])
        .collect();
    print_table(out, &["Instruction", "Word", "Bits"], &rows);
    say!(out, "paper= field order matches Table III (OPCODE | DST SRC0 SRC1 SRC2 | A R | #s);");
    say!(out, "       exact bit positions are this implementation's documented concretization.");
    say!(out, "       Round-trip encode/decode is property-tested over the full field space.");
}

/// `format_table` and a blank line.
fn print_table(out: &mut String, header: &[&str], rows: &[Vec<String>]) {
    say!(out, "{}", format_table(header, rows));
}

fn key_value_table(out: &mut String, rows: Vec<(String, String)>) {
    let rows: Vec<Vec<String>> = rows.into_iter().map(|(k, v)| vec![k, v]).collect();
    print_table(out, &["Parameter", "Value"], &rows);
}

fn table4(out: &mut String) {
    say!(out, "Table IV: Specification of PIM execution unit\n");
    key_value_table(out, exp::table4());
    say!(
        out,
        "paper= identical structural values; 9.6 GFLOPS is derived (16 lanes x 2 ops x 300MHz)."
    );
}

fn table5(out: &mut String) {
    say!(out, "Table V: Specification of PIM-HBM device\n");
    key_value_table(out, exp::table5());
    say!(out, "paper= 1TB/s~1.229TB/s on-chip, 256~307.2GB/s off-chip -- derived, not copied:");
    say!(out, "       16 banks/pCH at tCCD_L with 8 operating banks vs 1 bank at tCCD_S.");
}

fn table6(out: &mut String) {
    say!(out, "Table VI: Microbenchmark\n");
    let mut rows = Vec::new();
    for (g, a) in workloads::gemv_workloads().iter().zip(workloads::add_workloads().iter()) {
        rows.push(vec![
            g.name.to_string(),
            format!("{}k x {}k", g.n / 1024, g.k / 1024),
            a.name.to_string(),
            format!("{}M", a.elements >> 20),
        ]);
    }
    print_table(out, &["Name", "GEMV Dim.", "Name", "ADD Dim."], &rows);
    say!(out, "paper= identical sizes (GEMV 1kx4k..8kx8k; ADD 2M..16M).");
}

fn fig5_aam(out: &mut String) {
    say!(out, "Fig. 5: ordering MAC/ADD triggers under DRAM-controller reordering\n");
    let r = exp::fig5_aam_demo();
    say!(out, "fenced, program order      : max |err| = {}", r.fenced_in_order_err);
    say!(
        out,
        "fenced, reordered in-window: max |err| = {}  (AAM makes reordering invisible)",
        r.fenced_reordered_err
    );
    say!(
        out,
        "NO fences, reordered       : max |err| = {}  (Fig. 5(c): wrong operands)",
        r.unfenced_reordered_err
    );
    assert_eq!(r.fenced_in_order_err, 0.0);
    assert_eq!(r.fenced_reordered_err, 0.0);
    assert!(r.unfenced_reordered_err > 0.0);
    say!(out, "\npaper= AAM tolerates out-of-order accesses within the 8-command window;");
    say!(out, "       without fences, commands re-associate with the wrong PIM instructions.");
}

fn fig10(out: &mut String) {
    say!(out, "Fig. 10: relative performance (PIM-HBM / HBM) and LLC miss rates\n");
    let rows = exp::fig10();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("B{}", r.batch),
                format!("{:.2}x", r.relative_perf),
                r.llc_miss.map(|m| format!("{:.0}%", m * 100.0)).unwrap_or_else(|| "n/a".into()),
            ]
        })
        .collect();
    print_table(out, &["Workload", "Batch", "Rel. perf", "LLC miss (HBM)"], &table);
    let p = |workload: &str, batch: usize| reported("Fig. 10", workload, batch);
    let (gemv1, gemv4, add, ds2) = (p("GEMV1", 1), p("GEMV4", 1), p("ADD", 0), p("DS2", 1));
    let (gnmt, alexnet, resnet) = (p("GNMT", 1), p("AlexNet", 1), p("ResNet-50", 1));
    let (gemv4_b2, ds2_b2, rnnt_b2) = (p("GEMV4", 2), p("DS2", 2), p("RNN-T", 2));
    say!(
        out,
        "paper= B1: GEMV {gemv1:.1}~{gemv4:.1}x, ADD ~{add:.1}x, DS2 {ds2:.1}x, GNMT {gnmt:.1}x, \
         AlexNet {alexnet:.1}x, ResNet {resnet:.1}x;\n       B2: GEMV4 {gemv4_b2:.1}x, DS2 \
         {ds2_b2:.1}x, RNN-T {rnnt_b2:.1}x; B4: HBM outperforms for GEMV."
    );
    say!(out, "       LLC miss ~100% at B1 dropping to 70-80% at B4.");
}

fn fig11(out: &mut String) {
    say!(out, "Fig. 11: per-pCH power breakdown over back-to-back column reads\n");
    let f = exp::fig11();
    let [hbm, pim] = f.bars;
    let watts = |v: f64| format!("{v:.3} W");
    let mut rows: Vec<Vec<String>> = PowerComponent::ALL
        .iter()
        .map(|&c| vec![c.label().to_string(), watts(hbm.get(c)), watts(pim.get(c))])
        .collect();
    rows.push(vec!["TOTAL".into(), watts(hbm.total()), watts(pim.total())]);
    print_table(out, &["Component", "HBM", "PIM-HBM"], &rows);
    let p = |quantity: &str| reported("Fig. 11", quantity, 0);
    let (power, bandwidth) = (p("power PIM-HBM / HBM"), p("on-chip bandwidth ratio"));
    let (energy, gating) = (p("energy/bit HBM / PIM"), p("buffer I/O gating") * 100.0);
    let higher = (power - 1.0) * 100.0;
    let f_gating = f.buffer_gating_saving * 100.0;
    say!(
        out,
        "power ratio         = {:.3}   (paper: {power:.3}, '{higher:.1}% higher power')",
        f.power_ratio
    );
    say!(out, "on-chip bandwidth   = {:.1}x   (paper: {bandwidth:.0}x)", f.bandwidth_ratio);
    say!(
        out,
        "energy/bit ratio    = {:.2}x   (paper: ~{energy:.1}x lower energy per bit)",
        f.energy_per_bit_ratio
    );
    say!(
        out,
        "buffer-I/O gating   = {f_gating:.1}%   (paper: '~{gating:.0}% lower than HBM' if gated)"
    );
}

fn fig12(out: &mut String) {
    say!(out, "Fig. 12: relative power and energy (normalized to PROC-HBM)\n");
    let rows = exp::fig12();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.rel_power[1]),
                format!("{:.2}", r.rel_power[2]),
                format!("{:.2}", r.rel_energy[1]),
                format!("{:.2}", r.rel_energy[2]),
                format!("{:.2}x", r.pim_efficiency_gain()),
                format!("{:.2}x", r.pim_gain_over_x4()),
            ]
        })
        .collect();
    print_table(
        out,
        &["Workload", "P(PIM)", "P(x4)", "E(PIM)", "E(x4)", "PIM eff vs HBM", "vs x4"],
        &table,
    );
    let p = |workload: &str| reported("Fig. 12", workload, 1);
    let (gemv, add, ds2, gnmt, alexnet) = (p("GEMV"), p("ADD"), p("DS2"), p("GNMT"), p("AlexNet"));
    let (ds2_x4, gnmt_x4, alexnet_x4) = (p("DS2 vs x4"), p("GNMT vs x4"), p("AlexNet vs x4"));
    say!(
        out,
        "paper= efficiency gains: GEMV {gemv}x, ADD {add}x, DS2 {ds2}x, GNMT {gnmt}x, \
         AlexNet {alexnet}x;"
    );
    say!(out, "       vs PROC-HBMx4: DS2 {ds2_x4}x, GNMT {gnmt_x4}x, AlexNet {alexnet_x4}x.");
}

fn fig13(out: &mut String) {
    say!(out, "Fig. 13: average system power of DS2 over time\n");
    let (hbm, pim) = exp::fig13();
    let mut render = |name: &str, series: &[(f64, f64)]| {
        say!(out, "{name}:");
        for (t, w) in series {
            let bars = (*w / 5.0).round() as usize;
            say!(out, "  {:>7.2} ms | {:<60} {:.0} W", t * 1e3, "#".repeat(bars.min(60)), w);
        }
        let avg: f64 = series.iter().map(|(_, w)| w).sum::<f64>() / series.len() as f64;
        let end = series.last().map(|(t, _)| *t).unwrap_or(0.0);
        say!(out, "  average {avg:.0} W over {:.1} ms\n", end * 1e3);
    };
    render("PROC-HBM", &hbm);
    render("PIM-HBM", &pim);
    say!(out, "paper= PIM-HBM finishes earlier AND at lower average power.");
}

fn fig14(out: &mut String) {
    say!(out, "Fig. 14: DSE variants, speedup over the HBM baseline\n");
    let (rows, geo) = exp::fig14();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.variant.to_string(), r.workload.clone(), format!("{:.2}x", r.speedup)])
        .collect();
    print_table(out, &["Variant", "Workload", "Speedup"], &table);
    say!(out, "geometric means:");
    let base = geo.iter().find(|(v, _)| *v == "PIM-HBM").map(|(_, g)| *g).unwrap();
    for (v, g) in &geo {
        say!(out, "  {v:<14} {g:.2}x  ({:+.0}% vs base)", (g / base - 1.0) * 100.0);
    }
    let gain = |variant: &str| (reported("Fig. 14", variant, 1) - 1.0) * 100.0;
    let (x2, ba2, srw) = (gain("PIM-HBM-2x"), gain("PIM-HBM-2BA"), gain("PIM-HBM-SRW"));
    say!(
        out,
        "\npaper= 2x: ~+{x2:.0}% geo-mean (+24% die); 2BA: ~+{ba2:.0}% (esp. ADD, +60% power);"
    );
    say!(out, "       SRW: ~+{srw:.0}% (esp. GEMV +25%). See EXPERIMENTS.md for deviations.");
}

/// Where the runtime places the 128-byte-aligned operand blocks of vectors
/// a and b so that every lock-step column command finds both operands at
/// the same (row, column) across banks.
fn fig15(out: &mut String) {
    say!(out, "Fig. 15: data placement of vectors a and b for PIM ADD\n");
    let cfg = PimConfig::paper();
    let (a_col, b_col, z_col) = stream_columns(StreamOp::Add, &cfg);
    let map = BlockMap { channels: 4, units: 2 }; // a small window for display
    let mut rows = Vec::new();
    for block in 0..16usize {
        let (ch, unit, slot) = map.locate(block);
        let row = slot / 8;
        let coff = (slot % 8) as u32;
        rows.push(vec![
            format!("{block}"),
            format!("pCH{ch}"),
            format!("unit{unit} (bank {})", 2 * unit),
            format!("r{row}"),
            format!("c{}", a_col + coff),
            format!("c{}", b_col.unwrap() + coff),
            format!("c{}", z_col + coff),
        ]);
    }
    print_table(
        out,
        &["16-elem block", "channel", "PIM unit", "DRAM row", "a", "b", "z=a+b"],
        &rows,
    );
    say!(out, "paper= operands at 128-byte-aligned boundaries per channel (Fig. 15(b));");
    say!(out, "       our row interleave puts a at columns 0-7, b at 8-15, z at 16-23,");
    say!(out, "       so one AAM window (8 commands) covers each operand stage.");
    say!(out, "       Tail padding: \"we can concatenate dummy values to the end of the");
    say!(out, "       vectors\" — f32_to_blocks zero-pads the last block.");
}

fn nofence(out: &mut String) {
    say!(out, "No-fence experiment: ordered PIM-mode controller vs fenced baseline\n");
    for (batch, gain) in exp::nofence() {
        say!(
            out,
            "batch {batch}: removing fences speeds PIM microbenchmarks by {gain:.2}x (geo-mean)"
        );
    }
    let p = |batch: usize| reported("§VII-B", "no-fence gain", batch);
    let (b1, b2, b4) = (p(1), p(2), p(4));
    say!(out, "\npaper= {b1:.1}x / {b2:.1}x / {b4:.1}x for batch 1 / 2 / 4.");
}

/// Two design choices DESIGN.md calls out: what the per-barrier fence
/// overhead costs the AB-mode bandwidth advantage (Section IV-C / VII-B),
/// and the paper's explicit trade-off that "the number of PIM execution
/// units can be fewer than that of banks" (Section III-A).
fn ablation(out: &mut String) {
    say!(out, "Ablation 1: fence synchronization overhead (GEMV4, batch 1)\n");
    let mut rows = Vec::new();
    for sync in [0u64, 12, 24, 48, 96, 192] {
        let mut host = HostConfig::paper();
        host.fence_sync_overhead_cycles = sync;
        let mut cost = CostModel::new(host, PimConfig::paper(), TimingParams::hbm2());
        let r = cost.pim_gemv(8192, 8192);
        rows.push(vec![format!("{sync} cycles"), time(r.seconds), format!("{}", r.fences)]);
    }
    print_table(out, &["fence sync", "GEMV4 time", "fences"], &rows);
    say!(out, "The shipped system sits at 24 cycles; the no-fence controller of");
    say!(out, "Section VII-B is the 'ordered' row of the nofence binary.\n");

    say!(out, "Ablation 2: PIM execution units per pseudo channel (GEMV4)\n");
    let mut rows = Vec::new();
    let mut base = None;
    for units in [1usize, 2, 4, 8] {
        let mut pim = PimConfig::paper();
        pim.units_per_pch = units;
        let mut cost = CostModel::new(HostConfig::paper(), pim, TimingParams::hbm2());
        let r = cost.pim_gemv(8192, 8192);
        let b = *base.get_or_insert(r.seconds);
        rows.push(vec![
            units.to_string(),
            format!("{}", units * 2),
            time(r.seconds),
            format!("{:.2}x", b / r.seconds),
        ]);
    }
    print_table(out, &["units/pCH", "banks served", "GEMV4 time", "speedup vs 1 unit"], &rows);
    say!(out, "Fewer units shrink the per-pass lane count, multiplying passes: the");
    say!(out, "cost/bandwidth knob the paper describes, quantified.");
}

/// The latency/throughput trade-off behind the paper's batch-1 focus
/// (Section VII-A): batching buys throughput and costs response time.
fn batch_tradeoff(out: &mut String) {
    say!(out, "DS2: latency vs throughput across batch sizes\n");
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    let model = models::deepspeech2();
    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 8] {
        let hbm = ModelRunner::run(&mut cost, &power, &model, SystemKind::ProcHbm, batch);
        let pim = ModelRunner::run(&mut cost, &power, &model, SystemKind::PimHbm, batch);
        rows.push(vec![
            format!("B{batch}"),
            time(hbm.total_seconds),
            time(pim.total_seconds),
            format!("{:.1}/s", batch as f64 / hbm.total_seconds),
            format!("{:.1}/s", batch as f64 / pim.total_seconds),
            format!("{:.2}x", pim.speedup_over(&hbm)),
        ]);
    }
    print_table(
        out,
        &["batch", "HBM latency", "PIM latency", "HBM thru", "PIM thru", "PIM speedup"],
        &rows,
    );
    say!(out, "PIM's advantage is a *latency* advantage: it peaks at batch 1, where");
    say!(out, "online services live; batching buys the host throughput instead.");
}

fn calibration(out: &mut String) {
    let mut cost = CostModel::paper();
    say!(out, "== micro (fenced) ==");
    for b in [1usize, 2, 4] {
        let results = microbenchmarks(&mut cost, b);
        for r in &results {
            let (hbm_us, pim_us, speedup) = (r.hbm_s * 1e6, r.pim_s * 1e6, r.speedup());
            // Streaming never reuses a byte: only the GEMV rows report a miss rate.
            let gemv = r.name.starts_with("GEMV");
            let miss = if gemv { format!(" miss={:.2}", r.llc_miss) } else { String::new() };
            say!(
                out,
                "{} B{b}: hbm={hbm_us:.1}us pim={pim_us:.1}us speedup={speedup:.2}{miss}",
                r.name
            );
        }
        let speedups: Vec<f64> = results.iter().map(MicroResult::speedup).collect();
        say!(out, "geo-mean B{b}: {:.2}", geo_mean(&speedups));
    }
    say!(out, "== no-fence ratio ==");
    for (b, gain) in exp::nofence() {
        say!(out, "B{b} no-fence gain geo-mean: {gain:.2}");
    }
    say!(out, "== BN ==");
    for w in workloads::bn_workloads() {
        let r = bn_micro(&mut cost, &w, 1);
        say!(out, "{}: speedup {:.2}", w.name, r.speedup());
    }
    say!(out, "== apps ==");
    let power = SystemPowerModel::paper();
    for m in models::all_models() {
        for b in [1usize, 2, 4] {
            let hbm = ModelRunner::run(&mut cost, &power, &m, SystemKind::ProcHbm, b);
            let pim = ModelRunner::run(&mut cost, &power, &m, SystemKind::PimHbm, b);
            let x4 = ModelRunner::run(&mut cost, &power, &m, SystemKind::ProcHbmX4, b);
            let e_h = hbm.energy_j(&power);
            let e_p = pim.energy_j(&power);
            let e_x = x4.energy_j(&power);
            say!(
                out,
                "{} B{b}: speedup={:.2} (hbm {:.1}ms pim {:.1}ms) eff_vs_hbm={:.2} \
                 eff_vs_x4={:.2} pimfrac={:.2}",
                m.name,
                pim.speedup_over(&hbm),
                hbm.total_seconds * 1e3,
                pim.total_seconds * 1e3,
                e_h / e_p,
                e_x / e_p,
                pim.pim_time_fraction()
            );
        }
    }
}

/// The paper's portability claim (Section III): the architecture "is
/// applicable to any standard DRAM such as DDR, LPDDR, and GDDR DRAM with
/// a few changes" — the all-bank compute-bandwidth gain on each
/// generation's timing parameters.
fn dram_generations(out: &mut String) {
    say!(out, "PIM all-bank bandwidth gain across DRAM generations\n");
    let gens: [(&str, TimingParams, usize); 4] = [
        ("HBM2 (2.4 Gbps)", TimingParams::hbm2(), 16),
        ("GDDR6 (16 Gbps)", TimingParams::gddr6(), 16),
        ("LPDDR5 (6.4 Gbps)", TimingParams::lpddr5(), 16),
        ("DDR5-4800", TimingParams::ddr5(), 32),
    ];
    let mut rows = Vec::new();
    for (name, t, banks) in gens {
        t.validate().unwrap();
        rows.push(vec![
            name.to_string(),
            format!("{}", banks),
            format!("{} / {}", t.t_ccd_s, t.t_ccd_l),
            format!("{:.1} GB/s", t.peak_pch_bandwidth_gbs()),
            format!("{:.0}x", t.pim_bandwidth_gain(banks)),
        ]);
    }
    print_table(
        out,
        &["Generation", "banks/ch", "tCCD_S/tCCD_L", "std channel BW", "PIM gain"],
        &rows,
    );
    say!(out, "The structural gain is banks x tCCD_S/tCCD_L — half the banks whenever");
    say!(out, "tCCD_L is twice tCCD_S (Section III-B), independent of generation.");
}

/// The paper's future work (Section VIII): HBM3-generation fine-grained
/// SB/AB-PIM interleaving enabling host + PIM *collaborative* GEMV.
fn hbm3_future(out: &mut String) {
    say!(out, "Collaborative GEMV (host + PIM on disjoint banks), 16384 x 4096\n");
    let mut rows = Vec::new();
    for host_speedup in [1.0f64, 2.0, 5.0, 10.0, 20.0] {
        let mut cost = CostModel::paper();
        let (share, combined, pim_only) = collaborative_gemv(&mut cost, 16384, 4096, host_speedup);
        rows.push(vec![
            format!("{host_speedup:.0}x"),
            format!("{:.0}%", share * 100.0),
            time(combined),
            time(pim_only),
            format!("{:.2}x", pim_only / combined),
        ]);
    }
    print_table(
        out,
        &["host GEMV quality", "best host share", "combined", "PIM alone", "gain"],
        &rows,
    );
    say!(out, "With the paper-calibrated (unoptimized) host GEMV the best share is 0%:");
    say!(out, "PIM's pass-quantized time cannot be trimmed by a host that slow — the");
    say!(out, "quantified reason the paper leaves collaboration as future work.");
}

/// Table I's accuracy dimension: the area/energy table says what each MAC
/// unit *costs*; this shows what each one *loses*. FP16's per-value
/// exponent keeps dot-product error low across data distributions without
/// calibration — the paper's rationale for paying 1.32x the INT16 area
/// (Section III-C).
fn quantization(out: &mut String) {
    say!(out, "MAC-unit accuracy: dot-product error vs f64 reference (n=1024)\n");
    let n = 1024;
    let cases: Vec<(&str, Vec<f32>, Vec<f32>)> = vec![
        (
            "uniform [-1,1]",
            (0..n).map(|i| ((i * 37 % 201) as f32 - 100.0) / 100.0).collect(),
            (0..n).map(|i| ((i * 53 % 199) as f32 - 99.0) / 99.0).collect(),
        ),
        (
            "gaussian-ish small",
            (0..n).map(|i| (((i * 29 % 97) as f32 - 48.0) / 480.0).powi(3) * 10.0).collect(),
            (0..n).map(|i| (((i * 31 % 89) as f32 - 44.0) / 440.0).powi(3) * 10.0).collect(),
        ),
        (
            "wide dynamic range",
            (0..n).map(|i| if i % 16 == 0 { 8.0 } else { 0.01 }).collect(),
            (0..n).map(|i| if i % 16 == 1 { -8.0 } else { 0.01 }).collect(),
        ),
        (
            "outlier-heavy",
            (0..n).map(|i| if i == 7 { 60.0 } else { ((i % 11) as f32 - 5.0) * 0.05 }).collect(),
            (0..n).map(|i| if i == 7 { 60.0 } else { ((i % 13) as f32 - 6.0) * 0.05 }).collect(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, a, b) in &cases {
        let e = dot_product_errors(a, b);
        let rel = |err: f64| format!("{:.3}%", 100.0 * err / e.reference.abs().max(1e-9));
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", e.reference),
            rel(e.fp16_err),
            rel(e.int16_err),
            rel(e.int8_err),
        ]);
    }
    print_table(out, &["distribution", "reference", "FP16 err", "INT16 err", "INT8 err"], &rows);
    say!(out, "FP16 needs no calibration and degrades gracefully on skewed data —");
    say!(out, "the accuracy side of Table I's 'comparable to INT16' cost argument.");
}

fn models_info(out: &mut String) {
    say!(out, "Application inventory (Section VII-A + extensions)\n");
    let mut all = models::all_models();
    all.push(models::vgg16());
    let rows: Vec<Vec<String>> = all
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.layers.len().to_string(),
                format!("{:.1} MB", m.weight_bytes() as f64 / 1048576.0),
                format!("{:.1} GFLOP", m.inference_flops() as f64 / 1e9),
                format!("{:.0}%", m.pim_eligible_weight_fraction() * 100.0),
            ]
        })
        .collect();
    print_table(
        out,
        &["Model", "layers", "weights", "FLOPs/inference", "PIM-eligible weights"],
        &rows,
    );
    say!(out, "Note: convolution weights are not tabulated (the model tracks only");
    say!(out, "the memory-bound layers' parameters — convs never touch the PIM path),");
    say!(out, "so 'weights' is the streamed-parameter footprint, the quantity that");
    say!(out, "matters for bandwidth. The eligible fraction predicts the Fig. 10");
    say!(out, "ordering: DS2 (all LSTM) gains most, ResNet-50 (all conv) shows parity.");
}
