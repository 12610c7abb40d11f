//! Every table and figure of the paper's evaluation, as callable
//! experiments returning structured data. See DESIGN.md §4 for the index
//! and EXPERIMENTS.md for the paper-vs-measured record.

use crate::micro::{add_micro, bn_micro, gemv_micro, geo_mean, MicroResult};
use crate::workloads;
use pim_core::isa;
use pim_core::{PimConfig, PimVariant};
use pim_dram::TimingParams;
use pim_energy::components::{paper_abpim_mode, StreamMode};
use pim_energy::{EnergyParams, HostPowerState, MemoryEnergyBreakdown, SystemPowerModel};
use pim_fp16::F16;
use pim_host::{ExecutionMode, HostConfig};
use pim_models::{models, CostModel, ModelRunner, RunReport, SystemKind};
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
    use isa::{Instruction, Operand};
    let samples = vec![
        Instruction::Nop { cycles: 4 },
        Instruction::Jump { target: 1, count: 8 },
        Instruction::Exit,
        Instruction::Mov {
            dst: Operand::grf_a(0),
            src: Operand::even_bank(),
            relu: true,
            aam: false,
        },
        Instruction::Fill { dst: Operand::srf_m(0), src: Operand::wdata(), aam: false },
        Instruction::Add {
            dst: Operand::grf_a(1),
            src0: Operand::grf_a(1),
            src1: Operand::even_bank(),
            aam: true,
        },
        Instruction::Mul {
            dst: Operand::grf_b(0),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(2),
            aam: false,
        },
        Instruction::Mac {
            dst: Operand::grf_b(0),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(0),
            aam: true,
        },
        Instruction::Mad {
            dst: Operand::grf_a(0),
            src0: Operand::even_bank(),
            src1: Operand::srf_m(3),
            aam: true,
        },
    ];
    samples.into_iter().map(|i| (format!("{i}"), i.encode())).collect()
}

/// Table IV: the PIM execution unit specification, with derived values.
pub fn table4() -> Vec<(String, String)> {
    let c = PimConfig::paper();
    vec![
        ("# of MUL/ADD FPUs".into(), format!("{}/{}", c.lanes, c.lanes)),
        ("Datapath Width".into(), format!("{} bits (16 bits x {} lanes)", c.lanes * 16, c.lanes)),
        ("Operating Frequency".into(), "250MHz ~ 300MHz".into()),
        ("Throughput".into(), format!("{} GFLOPs at {}MHz", c.unit_gflops(), c.unit_mhz)),
        ("Equivalent Gate Count".into(), format!("{} (only logic)", c.gate_count)),
        ("Instruction Registers".into(), format!("32b x {} (CRF)", c.crf_entries)),
        (
            "Vector and Scalar Registers".into(),
            format!("256b x {} (GRF), 16b x 16 (SRF)", 2 * c.grf_entries_per_file),
        ),
        ("Area".into(), format!("{} mm2", c.unit_area_mm2)),
    ]
}

/// Table V: the PIM-HBM device specification, with bandwidths derived from
/// the timing engine.
pub fn table5() -> Vec<(String, String)> {
    let t = TimingParams::hbm2();
    let t_lo = TimingParams::hbm2_2gbps();
    let c = PimConfig::paper();
    let on_hi = t.peak_pch_allbank_bandwidth_gbs(c.operand_banks_per_command()) * 16.0;
    let on_lo = t_lo.peak_pch_allbank_bandwidth_gbs(c.operand_banks_per_command()) * 16.0;
    let off_hi = t.peak_pch_bandwidth_gbs() * 16.0;
    let off_lo = t_lo.peak_pch_bandwidth_gbs() * 16.0;
    vec![
        ("Ext. Clocking Frequency".into(), "1 ~ 1.2GHz".into()),
        ("Timing Parameters".into(), "Same as HBM2".into()),
        ("# of pCHs".into(), "16".into()),
        ("# of banks per pCH".into(), "16".into()),
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
        for w in workloads::gemv_workloads() {
            let r = gemv_micro(&mut cost, &w, batch);
            rows.push(Fig10Row {
                name: r.name.clone(),
                batch,
                relative_perf: r.speedup(),
                llc_miss: Some(r.llc_miss),
            });
        }
        for w in workloads::add_workloads() {
            let r = add_micro(&mut cost, &w, batch);
            rows.push(Fig10Row {
                name: r.name.clone(),
                batch,
                relative_perf: r.speedup(),
                llc_miss: Some(r.llc_miss),
            });
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

/// One bar of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Bar {
    /// "HBM" or "PIM-HBM".
    pub system: &'static str,
    /// Per-component power in watts of one pseudo channel streaming
    /// back-to-back column reads.
    pub breakdown: MemoryEnergyBreakdown,
}

/// Fig. 11 plus the Section VII-C headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// The two stacked bars.
    pub bars: Vec<Fig11Bar>,
    /// PIM-HBM power / HBM power (paper: 1.054).
    pub power_ratio: f64,
    /// On-chip bandwidth ratio at those powers (4×).
    pub bandwidth_ratio: f64,
    /// HBM energy/bit divided by PIM energy/bit (paper: ~3.5×).
    pub energy_per_bit_ratio: f64,
    /// Power saving if the buffer-die I/O were gated, as a fraction of HBM
    /// power (paper: ~10%).
    pub buffer_gating_saving: f64,
}

/// Fig. 11: power breakdown of HBM vs PIM-HBM over back-to-back reads.
pub fn fig11() -> Fig11Result {
    let p = EnergyParams::hbm2();
    let bus = 1200;
    let sb = p.stream_power_w(StreamMode::SingleBank, 2, bus);
    let ab = p.stream_power_w(paper_abpim_mode(), 4, bus);
    let gated = p.stream_power_w(
        StreamMode::AbPim { operating_banks: 8, units: 8, buffer_io_gated: true },
        4,
        bus,
    );
    Fig11Result {
        bars: vec![
            Fig11Bar { system: "HBM", breakdown: sb },
            Fig11Bar { system: "PIM-HBM", breakdown: ab },
        ],
        power_ratio: ab.total() / sb.total(),
        bandwidth_ratio: (8.0 / 4.0) / (1.0 / 2.0),
        energy_per_bit_ratio: p.energy_per_bit_pj(StreamMode::SingleBank)
            / p.energy_per_bit_pj(paper_abpim_mode()),
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
    /// PIM-HBM's energy-efficiency gain over PROC-HBM (the paper's quoted
    /// numbers: GEMV 8.25×, ADD 1.4×, DS2 3.2×, GNMT 1.38×, AlexNet 1.5×).
    pub fn pim_efficiency_gain(&self) -> f64 {
        self.rel_energy[0] / self.rel_energy[1]
    }

    /// PIM-HBM's gain over PROC-HBM×4 (paper: DS2 2.8×, GNMT 1.1×,
    /// AlexNet 1.3×).
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

    // Microbenchmarks: GEMV4 and ADD4 at batch 1, phases built directly.
    let micro_row =
        |name: &str, r: &MicroResult, util_hbm: f64, power: &SystemPowerModel| -> Fig12Row {
            let p_hbm = power.system_power_w(
                HostPowerState::Streaming,
                power.memory_stream_power_w(util_hbm, 4),
            );
            let p_pim = power.system_power_w(
                HostPowerState::DrivingPim,
                power.memory_pim_power_w(SystemPowerModel::PIM_PHASE_UTILIZATION),
            );
            // ×4: bandwidth-bound micro scales 4× faster at ~4× the
            // memory-side power (see SystemPowerModel::x4_host_overhead).
            let p_x4 = power.system_power_w(
                HostPowerState::Streaming,
                power.memory_stream_power_w(util_hbm, 16)
                    + power.host_power_w(HostPowerState::Streaming) * power.x4_host_overhead,
            );
            let t_hbm = r.hbm_s;
            let t_pim = r.pim_s;
            let t_x4 = r.hbm_s / 4.0;
            let e = [p_hbm * t_hbm, p_pim * t_pim, p_x4 * t_x4];
            Fig12Row {
                name: name.to_string(),
                rel_power: [1.0, p_pim / p_hbm, p_x4 / p_hbm],
                rel_energy: [1.0, e[1] / e[0], e[2] / e[0]],
            }
        };
    let g4 = workloads::gemv_workloads()[3];
    let r = gemv_micro(&mut cost, &g4, 1);
    out.push(micro_row("GEMV", &r, host.gemv_efficiency(1), &power));
    let a4 = workloads::add_workloads()[3];
    let r = add_micro(&mut cost, &a4, 1);
    out.push(micro_row("ADD", &r, host.add_stream_efficiency, &power));

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

/// Fig. 13: average system power of DS2 over time, on both systems.
/// Returns `(hbm_series, pim_series)`.
pub fn fig13(samples: usize) -> (PowerSeries, PowerSeries) {
    let mut cost = CostModel::paper();
    let power = SystemPowerModel::paper();
    let m = models::deepspeech2();
    let hbm = ModelRunner::run(&mut cost, &power, &m, SystemKind::ProcHbm, 1);
    let pim = ModelRunner::run(&mut cost, &power, &m, SystemKind::PimHbm, 1);
    (hbm.trace.sample(&power, samples), pim.trace.sample(&power, samples))
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
        let mut speedups = Vec::new();
        let push = |rows: &mut Vec<Fig14Row>, name: String, s: f64, speedups: &mut Vec<f64>| {
            speedups.push(s);
            rows.push(Fig14Row { variant: variant.label(), workload: name, speedup: s });
        };
        for w in workloads::gemv_workloads() {
            let r = gemv_micro(&mut cost, &w, 1);
            push(&mut rows, w.name.to_string(), r.speedup(), &mut speedups);
        }
        for w in workloads::add_workloads() {
            let r = add_micro(&mut cost, &w, 1);
            push(&mut rows, w.name.to_string(), r.speedup(), &mut speedups);
        }
        for w in workloads::bn_workloads() {
            let r = bn_micro(&mut cost, &w, 1);
            push(&mut rows, w.name.to_string(), r.speedup(), &mut speedups);
        }
        geo.push((variant.label(), geo_mean(&speedups)));
    }
    (rows, geo)
}

/// §VII-B's no-fence experiment: the geometric-mean factor by which
/// removing fences (an order-preserving PIM-mode controller) speeds up the
/// PIM microbenchmarks, per batch size. Paper: 2.2× / 1.9× / 2.0×.
pub fn nofence() -> Vec<(usize, f64)> {
    let mut fenced = CostModel::paper();
    let mut ordered = CostModel::paper();
    ordered.mode = ExecutionMode::Ordered;
    let mut out = Vec::new();
    for batch in [1usize, 2, 4] {
        let mut gains = Vec::new();
        for w in workloads::gemv_workloads() {
            let f = gemv_micro(&mut fenced, &w, batch);
            let o = gemv_micro(&mut ordered, &w, batch);
            gains.push(f.pim_s / o.pim_s);
        }
        for w in workloads::add_workloads() {
            let f = add_micro(&mut fenced, &w, batch);
            let o = add_micro(&mut ordered, &w, batch);
            gains.push(f.pim_s / o.pim_s);
        }
        out.push((batch, geo_mean(&gains)));
    }
    out
}

/// A tiny end-to-end functional check used by several binaries: PIM GEMV
/// against the f32 reference.
pub fn functional_spot_check() -> f32 {
    let mut ctx = PimContext::small_system();
    let n = 64;
    let k = 64;
    let w: Vec<f32> = (0..n * k).map(|i| ((i % 13) as f32 - 6.0) / 8.0).collect();
    let x: Vec<f32> = (0..k).map(|i| ((i % 7) as f32 - 3.0) / 4.0).collect();
    let (out, _) = PimBlas::gemv(&mut ctx, &w, n, k, &x).expect("gemv");
    let reference = PimBlas::reference_gemv(&w, n, k, &x);
    let out16: Vec<F16> = out.iter().map(|&v| F16::from_f32(v)).collect();
    pim_fp16::max_abs_error(&out16, &reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_the_paper_table() {
        let c = table2();
        assert_eq!((c.mul, c.add, c.mac, c.mad, c.mov), (32, 40, 14, 28, 24));
        assert_eq!(c.compute_total(), 114);
    }

    #[test]
    fn table3_round_trips() {
        for (text, word) in table3() {
            let decoded = isa::Instruction::decode(word).unwrap();
            assert_eq!(format!("{decoded}"), text);
        }
    }

    #[test]
    fn table5_bandwidth_band() {
        let rows = table5();
        let on = rows.iter().find(|(k, _)| k.starts_with("On-Chip")).unwrap();
        assert!(on.1.contains("1228.8"), "{}", on.1);
        let off = rows.iter().find(|(k, _)| k.starts_with("Off-Chip")).unwrap();
        assert!(off.1.contains("307.2"), "{}", off.1);
    }

    #[test]
    fn fig5_demonstrates_the_ordering_hazard() {
        let r = fig5_aam_demo();
        assert_eq!(r.fenced_in_order_err, 0.0);
        assert_eq!(r.fenced_reordered_err, 0.0, "AAM tolerates in-window reordering");
        assert!(r.unfenced_reordered_err > 0.0, "unfenced reordering must corrupt results");
    }

    #[test]
    fn fig11_headlines() {
        let f = fig11();
        assert!((1.0..1.10).contains(&f.power_ratio), "{}", f.power_ratio);
        assert_eq!(f.bandwidth_ratio, 4.0);
        assert!((3.0..4.0).contains(&f.energy_per_bit_ratio), "{}", f.energy_per_bit_ratio);
        assert!((0.07..0.13).contains(&f.buffer_gating_saving), "{}", f.buffer_gating_saving);
    }

    #[test]
    fn nofence_gains_are_about_2x() {
        for (batch, gain) in nofence() {
            assert!((1.6..2.4).contains(&gain), "B{batch} gain {gain}");
        }
    }

    #[test]
    fn functional_spot_check_is_accurate() {
        assert!(functional_spot_check() < 0.05);
    }
}
