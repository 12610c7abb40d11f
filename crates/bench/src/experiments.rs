//! Every table and figure of the paper's evaluation, as callable
//! experiments returning structured data. See DESIGN.md §4 for the index;
//! [`crate::paper`] holds what the paper reports for each.

use crate::micro::{add_micro, bn_micro, gemv_micro, geo_mean, microbenchmarks, MicroResult};
use crate::workloads;
use pim_core::isa;
use pim_core::{
    PimConfig, PimVariant, CRF_ENTRIES, LANES, UNIT_AREA_MM2, UNIT_GATE_COUNT, UNIT_MHZ,
};
use pim_dram::{TimingParams, BANKS_PER_PCH, PCH_PER_STACK};
use pim_energy::components::StreamMode;
use pim_energy::{EnergyParams, HostPowerState, MemoryEnergyBreakdown, SystemPowerModel};
use pim_host::{ExecutionMode, HostConfig};
use pim_models::{models, CostModel, ModelRunner, Placement, RunReport, SystemKind};
use pim_runtime::{PimBlas, PimContext};

/// One row of Table I (re-exported from the energy model, where the data
/// lives).
pub use pim_energy::mac::table1;

/// Table II: the operand-combination counts enumerated from the ISA.
pub fn table2() -> isa::CombinationCounts {
    isa::combination_counts()
}

/// Table III: a representative encoding of every instruction class with
/// its 32-bit word, demonstrating the bit-exact format.
pub fn table3() -> Vec<(String, u32)> {
    let samples = "NOP 4\nJUMP 1, #8\nEXIT\nMOV(ReLU) GRF_A[0], EVEN_BANK\nFILL SRF_M[0], WDATA\n\
        ADD GRF_A[1], GRF_A[1], EVEN_BANK (AAM)\nMUL GRF_B[0], EVEN_BANK, SRF_M[2]\n\
        MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\nMAD GRF_A[0], EVEN_BANK, SRF_M[3] (AAM)";
    let program = pim_core::asm::assemble(samples).expect("the Table III samples assemble");
    program.into_iter().map(|i| (format!("{i}"), i.encode())).collect()
}

/// Table IV: the PIM execution unit specification, with derived values.
pub fn table4() -> Vec<(String, String)> {
    let c = PimConfig::paper();
    vec![
        ("# of MUL/ADD FPUs".into(), format!("{LANES}/{LANES}")),
        ("Datapath Width".into(), format!("{} bits (16 bits x {LANES} lanes)", LANES * 16)),
        ("Operating Frequency".into(), "250MHz ~ 300MHz".into()),
        ("Throughput".into(), format!("{} GFLOPs at {UNIT_MHZ}MHz", c.unit_gflops())),
        ("Equivalent Gate Count".into(), format!("{UNIT_GATE_COUNT} (only logic)")),
        ("Instruction Registers".into(), format!("32b x {CRF_ENTRIES} (CRF)")),
        (
            "Vector and Scalar Registers".into(),
            format!("256b x {} (GRF), 16b x 16 (SRF)", 2 * c.grf_entries_per_file()),
        ),
        ("Area".into(), format!("{UNIT_AREA_MM2} mm2")),
    ]
}

/// Table V's bandwidths of one 16-pCH device in GB/s, derived from the
/// timing engine: `[at 1.0 GHz, at 1.2 GHz]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceBandwidth {
    /// All-bank compute bandwidth: the operating banks per tCCD_L.
    pub on_chip_gbs: [f64; 2],
    /// Single-bank I/O bandwidth: one bank per tCCD_S.
    pub off_chip_gbs: [f64; 2],
}

/// Table V's bandwidth rows.
pub fn device_bandwidth() -> DeviceBandwidth {
    let banks = PimConfig::paper().operand_banks_per_command();
    let pchs = PCH_PER_STACK as f64;
    let clocks = [TimingParams::hbm2_2gbps(), TimingParams::hbm2()];
    DeviceBandwidth {
        on_chip_gbs: clocks.each_ref().map(|t| t.peak_pch_allbank_bandwidth_gbs(banks) * pchs),
        off_chip_gbs: clocks.each_ref().map(|t| t.peak_pch_bandwidth_gbs() * pchs),
    }
}

/// Table V: the PIM-HBM device specification, with bandwidths derived from
/// the timing engine.
pub fn table5() -> Vec<(String, String)> {
    let c = PimConfig::paper();
    let DeviceBandwidth { on_chip_gbs: [on_lo, on_hi], off_chip_gbs: [off_lo, off_hi] } =
        device_bandwidth();
    vec![
        ("Ext. Clocking Frequency".into(), "1 ~ 1.2GHz".into()),
        ("Timing Parameters".into(), "Same as HBM2".into()),
        ("# of pCHs".into(), format!("{PCH_PER_STACK}")),
        ("# of banks per pCH".into(), format!("{BANKS_PER_PCH}")),
        ("# of PIM exe. units per pCH".into(), format!("{}", c.units_per_pch)),
        ("On-Chip (Compute) Bandwidth".into(), format!("{on_lo:.0}GB/s ~ {on_hi:.1}GB/s")),
        ("Off-Chip (I/O) Bandwidth".into(), format!("{off_lo:.0}GB/s ~ {off_hi:.1}GB/s")),
        ("Capacity".into(), "6GB (4x4Gb PIM dies + 4x8Gb HBM dies)".into()),
        ("Area of DRAM Die".into(), "84.4 mm2".into()),
    ]
}

/// The Fig. 5 ordering demonstration: functional ADD results under the
/// three ordering regimes, on real data through the real device.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Max abs error with fences, program order.
    pub fenced_in_order_err: f32,
    /// Max abs error with fences and controller reordering *within* the
    /// AAM window — must still be zero (AAM tolerance).
    pub fenced_reordered_err: f32,
    /// Max abs error with reordering and **no** fences — must be wrong,
    /// demonstrating why the fences exist (Fig. 5(c)).
    pub unfenced_reordered_err: f32,
}

/// Runs the Fig. 5 demonstration.
pub fn fig5_aam_demo() -> Fig5Result {
    let n = 4096usize;
    let x: Vec<f32> = (0..n).map(|i| (i % 251) as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 127) as f32).collect();
    let reference: Vec<f32> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
    let err = |mode: ExecutionMode| -> f32 {
        let mut ctx = PimContext::small_system();
        ctx.set_mode(mode);
        let (z, _) = PimBlas::add(&mut ctx, &x, &y).expect("add");
        z.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    };
    Fig5Result {
        fenced_in_order_err: err(ExecutionMode::Fenced { reorder_seed: None }),
        fenced_reordered_err: err(ExecutionMode::Fenced { reorder_seed: Some(0xF16) }),
        unfenced_reordered_err: err(ExecutionMode::UnfencedReordered { seed: 0xF16 }),
    }
}

/// One bar of Fig. 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Workload name.
    pub name: String,
    /// Batch size.
    pub batch: usize,
    /// PIM-HBM performance relative to HBM (>1: PIM wins).
    pub relative_perf: f64,
    /// LLC miss rate on the HBM system, if measurable for the workload
    /// (the paper cannot report it for multi-kernel applications either).
    pub llc_miss: Option<f64>,
}

/// Fig. 10: relative performance and LLC miss rates of every workload at
/// batch 1, 2 and 4.
pub fn fig10() -> Vec<Fig10Row> {
    let mut rows = Vec::new();
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    for batch in [1usize, 2, 4] {
        for r in microbenchmarks(&mut cost, batch) {
            let (relative_perf, llc_miss) = (r.speedup(), Some(r.llc_miss));
            rows.push(Fig10Row { name: r.name, batch, relative_perf, llc_miss });
        }
        for m in models::all_models() {
            let hbm = ModelRunner::run(&mut cost, &power, &m, SystemKind::ProcHbm, batch);
            let pim = ModelRunner::run(&mut cost, &power, &m, SystemKind::PimHbm, batch);
            rows.push(Fig10Row {
                name: m.name.to_string(),
                batch,
                relative_perf: pim.speedup_over(&hbm),
                llc_miss: None,
            });
        }
    }
    rows
}

/// Fig. 11 plus the Section VII-C headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// The two stacked bars, HBM then PIM-HBM: per-component watts of one
    /// pseudo channel streaming back-to-back column reads.
    pub bars: [MemoryEnergyBreakdown; 2],
    /// PIM-HBM power / HBM power.
    pub power_ratio: f64,
    /// On-chip bandwidth ratio at those powers.
    pub bandwidth_ratio: f64,
    /// HBM energy/bit divided by PIM energy/bit.
    pub energy_per_bit_ratio: f64,
    /// Power saving if the buffer-die I/O were gated, as a fraction of HBM
    /// power.
    pub buffer_gating_saving: f64,
}

/// Fig. 11: power breakdown of HBM vs PIM-HBM over back-to-back reads —
/// single-bank reads every tCCD_S against all-bank PIM reads every tCCD_L.
pub fn fig11() -> Fig11Result {
    let p = EnergyParams::hbm2();
    let t = TimingParams::hbm2();
    let c = PimConfig::paper();
    let banks = c.operand_banks_per_command();
    let ab_mode = |buffer_io_gated| StreamMode::AbPim {
        operating_banks: banks,
        units: c.units_per_pch,
        buffer_io_gated,
    };
    let sb = p.stream_power_w(StreamMode::SingleBank, t.t_ccd_s, t.bus_mhz);
    let ab = p.stream_power_w(ab_mode(false), t.t_ccd_l, t.bus_mhz);
    let gated = p.stream_power_w(ab_mode(true), t.t_ccd_l, t.bus_mhz);
    Fig11Result {
        bars: [sb, ab],
        power_ratio: ab.total() / sb.total(),
        bandwidth_ratio: t.peak_pch_allbank_bandwidth_gbs(banks) / t.peak_pch_bandwidth_gbs(),
        energy_per_bit_ratio: p.energy_per_bit_pj(StreamMode::SingleBank)
            / p.energy_per_bit_pj(ab_mode(false)),
        buffer_gating_saving: (ab.total() - gated.total()) / sb.total(),
    }
}

/// One workload row of Fig. 12: relative power and energy of the three
/// systems (normalized to PROC-HBM).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Workload name.
    pub name: String,
    /// [PROC-HBM, PIM-HBM, PROC-HBM×4] average power relative to PROC-HBM.
    pub rel_power: [f64; 3],
    /// Same, for energy per inference.
    pub rel_energy: [f64; 3],
}

impl Fig12Row {
    /// PIM-HBM's energy-efficiency gain over PROC-HBM.
    pub fn pim_efficiency_gain(&self) -> f64 {
        self.rel_energy[0] / self.rel_energy[1]
    }

    /// PIM-HBM's energy-efficiency gain over PROC-HBM×4.
    pub fn pim_gain_over_x4(&self) -> f64 {
        self.rel_energy[2] / self.rel_energy[1]
    }
}

/// Fig. 12: the GEMV and ADD microbenchmarks plus DS2 / GNMT / AlexNet.
pub fn fig12() -> Vec<Fig12Row> {
    let mut out = Vec::new();
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    let host = HostConfig::paper();

    // Microbenchmarks: GEMV4 and ADD4 at batch 1, phased as the runner
    // phases a layer; the bandwidth-bound micro runs 4× faster on ×4.
    let micro_row = |name: &str, r: &MicroResult, util_hbm: f64| -> Fig12Row {
        let watts = |system: SystemKind, placement| {
            let (state, memory_w) = system.phase(&power, placement);
            power.system_power_w(state, memory_w)
        };
        let streaming = Placement::Host(HostPowerState::Streaming, util_hbm);
        let p_hbm = watts(SystemKind::ProcHbm, streaming);
        let p_pim = watts(SystemKind::PimHbm, Placement::Pim);
        let p_x4 = watts(SystemKind::ProcHbmX4, streaming);
        let e = [p_hbm * r.hbm_s, p_pim * r.pim_s, p_x4 * r.hbm_s / 4.0];
        Fig12Row {
            name: name.to_string(),
            rel_power: [1.0, p_pim / p_hbm, p_x4 / p_hbm],
            rel_energy: [1.0, e[1] / e[0], e[2] / e[0]],
        }
    };
    let g4 = workloads::gemv_workloads()[3];
    let r = gemv_micro(&mut cost, &g4, 1);
    out.push(micro_row("GEMV", &r, host.gemv_efficiency(1)));
    let a4 = workloads::add_workloads()[3];
    let r = add_micro(&mut cost, &a4, 1);
    out.push(micro_row("ADD", &r, host.add_stream_efficiency));

    // Applications, from the runner's traces.
    for m in [models::deepspeech2(), models::gnmt(), models::alexnet()] {
        let systems = [SystemKind::ProcHbm, SystemKind::PimHbm, SystemKind::ProcHbmX4];
        let runs: Vec<RunReport> =
            systems.iter().map(|&s| ModelRunner::run(&mut cost, &power, &m, s, 1)).collect();
        let e: Vec<f64> = runs.iter().map(|r| r.energy_j(&power)).collect();
        let p: Vec<f64> = runs.iter().zip(e.iter()).map(|(r, e)| e / r.total_seconds).collect();
        out.push(Fig12Row {
            name: m.name.to_string(),
            rel_power: [1.0, p[1] / p[0], p[2] / p[0]],
            rel_energy: [1.0, e[1] / e[0], e[2] / e[0]],
        });
    }
    out
}

/// A sampled power time series: `(seconds, watts)` points.
pub type PowerSeries = Vec<(f64, f64)>;

/// Fig. 13: average system power of DS2 over time, on both systems, at 40
/// samples each. Returns `(hbm_series, pim_series)`.
pub fn fig13() -> (PowerSeries, PowerSeries) {
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    let m = models::deepspeech2();
    let hbm = ModelRunner::run(&mut cost, &power, &m, SystemKind::ProcHbm, 1);
    let pim = ModelRunner::run(&mut cost, &power, &m, SystemKind::PimHbm, 1);
    (hbm.trace.sample(&power, 40), pim.trace.sample(&power, 40))
}

/// One point of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Variant label.
    pub variant: &'static str,
    /// Workload name.
    pub workload: String,
    /// Speedup over the HBM baseline.
    pub speedup: f64,
}

/// Fig. 14: the DSE variants over the microbenchmarks + BN. Returns the
/// per-workload rows and the per-variant geometric means.
pub fn fig14() -> (Vec<Fig14Row>, Vec<(&'static str, f64)>) {
    let mut rows = Vec::new();
    let mut geo = Vec::new();
    for variant in PimVariant::ALL {
        let cfg = PimConfig::with_variant(variant);
        let mut cost = CostModel::new(HostConfig::paper(), cfg, TimingParams::hbm2());
        let mut results = microbenchmarks(&mut cost, 1);
        results.extend(workloads::bn_workloads().iter().map(|w| bn_micro(&mut cost, w, 1)));
        let speedups: Vec<f64> = results.iter().map(MicroResult::speedup).collect();
        rows.extend(results.into_iter().zip(&speedups).map(|(r, &speedup)| Fig14Row {
            variant: variant.label(),
            workload: r.name,
            speedup,
        }));
        geo.push((variant.label(), geo_mean(&speedups)));
    }
    (rows, geo)
}

/// §VII-B's no-fence experiment: the geometric-mean factor by which
/// removing fences (an order-preserving PIM-mode controller) speeds up the
/// PIM microbenchmarks, per batch size.
pub fn nofence() -> Vec<(usize, f64)> {
    let mut fenced = CostModel::paper();
    let mut ordered = CostModel::paper();
    ordered.mode = ExecutionMode::Ordered;
    let mut out = Vec::new();
    for batch in [1usize, 2, 4] {
        let (f, o) = (microbenchmarks(&mut fenced, batch), microbenchmarks(&mut ordered, batch));
        let gains: Vec<f64> = f.iter().zip(&o).map(|(f, o)| f.pim_s / o.pim_s).collect();
        out.push((batch, geo_mean(&gains)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_round_trips() {
        for (text, word) in table3() {
            let decoded = isa::Instruction::decode(word).unwrap();
            assert_eq!(format!("{decoded}"), text);
        }
    }

    #[test]
    fn fig5_demonstrates_the_ordering_hazard() {
        let r = fig5_aam_demo();
        assert_eq!(r.fenced_in_order_err, 0.0);
        assert_eq!(r.fenced_reordered_err, 0.0, "AAM tolerates in-window reordering");
        assert!(r.unfenced_reordered_err > 0.0, "unfenced reordering must corrupt results");
    }
}
