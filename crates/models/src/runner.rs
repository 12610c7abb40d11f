//! The model runner: executes an application's layer graph on a given
//! system (PROC-HBM, PIM-HBM, PROC-HBM×4) at a given batch size,
//! producing per-layer times and the power phases for Fig. 12/13.
//!
//! Offload decisions go through the real [`pim_runtime::Preprocessor`] —
//! the same component the software stack uses — so the batch-size
//! crossover of Fig. 10 emerges from the stack's own policy rather than
//! from hard-coded per-figure switches.

use crate::cost::CostModel;
use crate::layer::{LaunchPattern, Layer};
use crate::models::Model;
use pim_energy::{HostPowerState, PowerTrace, SystemPowerModel};
use pim_runtime::ops::OpKind;
use pim_runtime::{ExecutionTarget, Preprocessor, StreamOp};

/// Which evaluated system a run models (Fig. 12's three bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The baseline: processor + 4 HBM stacks.
    ProcHbm,
    /// Processor + 4 PIM-HBM stacks.
    PimHbm,
    /// The hypothetical processor with 4× the HBM devices/bandwidth.
    ProcHbmX4,
}

impl SystemKind {
    /// Off-chip bandwidth multiplier relative to PROC-HBM.
    pub fn bandwidth_scale(self) -> f64 {
        match self {
            SystemKind::ProcHbmX4 => 4.0,
            _ => 1.0,
        }
    }

    /// HBM stacks in the system (for memory power).
    pub fn stacks(self) -> usize {
        match self {
            SystemKind::ProcHbmX4 => 16,
            _ => 4,
        }
    }

    /// Fig. 12 label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::ProcHbm => "PROC-HBM",
            SystemKind::PimHbm => "PIM-HBM",
            SystemKind::ProcHbmX4 => "PROC-HBMx4",
        }
    }
}

/// One layer's execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Layer name.
    pub name: &'static str,
    /// Seconds spent.
    pub seconds: f64,
    /// Whether the layer ran on the PIM units.
    pub on_pim: bool,
}

/// The outcome of running one model on one system at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Application name.
    pub model: &'static str,
    /// System evaluated.
    pub system: SystemKind,
    /// Batch size.
    pub batch: usize,
    /// Per-layer records.
    pub layers: Vec<LayerTime>,
    /// End-to-end seconds.
    pub total_seconds: f64,
    /// Power phases for energy integration (Fig. 12/13).
    pub trace: PowerTrace,
}

impl RunReport {
    /// Speedup of this run over `baseline` (baseline_time / this_time).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.total_seconds / self.total_seconds
    }

    /// Energy in joules under `power`.
    pub fn energy_j(&self, power: &SystemPowerModel) -> f64 {
        self.trace.total_energy_j(power)
    }

    /// Fraction of time spent on PIM.
    pub fn pim_time_fraction(&self) -> f64 {
        if self.total_seconds == 0.0 {
            return 0.0;
        }
        let pim: f64 = self.layers.iter().filter(|l| l.on_pim).map(|l| l.seconds).sum();
        pim / self.total_seconds
    }
}

/// Runs models over systems.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelRunner;

impl ModelRunner {
    /// Executes `model` on `system` at `batch`, using `cost` for kernel
    /// times and `power` for the phase bookkeeping.
    pub fn run(
        cost: &mut CostModel,
        power: &SystemPowerModel,
        model: &Model,
        system: SystemKind,
        batch: usize,
    ) -> RunReport {
        assert!(batch >= 1, "batch must be at least 1");
        let scale = system.bandwidth_scale();
        let stacks = system.stacks();
        let pim_available = system == SystemKind::PimHbm;
        let mut layers = Vec::new();
        let mut trace = PowerTrace::new();
        let host_cfg = cost.host().clone();
        let pch_gbs = cost.timing().peak_pch_bandwidth_gbs();

        let record = |layers: &mut Vec<LayerTime>,
                      trace: &mut PowerTrace,
                      name: &'static str,
                      seconds: f64,
                      on_pim: bool,
                      state: HostPowerState,
                      memory_w: f64| {
            layers.push(LayerTime { name, seconds, on_pim });
            trace.push(name, seconds, state, memory_w);
        };

        // The ×4 system's scaled host I/O & controllers, folded into each
        // phase's memory term (see SystemPowerModel::x4_host_overhead).
        // Only bandwidth-active (streaming) phases pay it: the extra PHYs
        // clock-gate while the host computes.
        let x4_extra = |state: HostPowerState| -> f64 {
            if system == SystemKind::ProcHbmX4 && state == HostPowerState::Streaming {
                power.host_power_w(state) * power.x4_host_overhead
            } else {
                0.0
            }
        };

        for layer in &model.layers {
            match layer {
                Layer::Conv2d { name, gflops } | Layer::Attention { name, gflops } => {
                    let t = cost.host_compute((gflops * 1e9) as u64 * batch as u64, batch).seconds
                        + cost.launch().seconds;
                    let mem = power.memory_stream_power_w(0.15, stacks)
                        + x4_extra(HostPowerState::Compute);
                    record(&mut layers, &mut trace, name, t, false, HostPowerState::Compute, mem);
                }
                Layer::FullyConnected { name, n, k, pim_eligible } => {
                    let to_pim = pim_available
                        && *pim_eligible
                        && Preprocessor::decide(
                            &host_cfg,
                            pch_gbs,
                            OpKind::Gemv,
                            layer.weight_bytes(),
                            batch,
                        ) == ExecutionTarget::Pim;
                    if to_pim {
                        let t =
                            batch as f64 * cost.pim_gemv(*n, *k).seconds + cost.launch().seconds;
                        let mem = power.memory_pim_power_w(SystemPowerModel::PIM_PHASE_UTILIZATION);
                        record(
                            &mut layers,
                            &mut trace,
                            name,
                            t,
                            true,
                            HostPowerState::DrivingPim,
                            mem,
                        );
                    } else {
                        let t =
                            cost.host_gemv(*n, *k, batch, scale).seconds + cost.launch().seconds;
                        let util = host_cfg.gemv_efficiency(batch).min(1.0);
                        let mem = power.memory_stream_power_w(util, stacks)
                            + x4_extra(HostPowerState::Streaming);
                        record(
                            &mut layers,
                            &mut trace,
                            name,
                            t,
                            false,
                            HostPowerState::Streaming,
                            mem,
                        );
                    }
                }
                Layer::Lstm { name, hidden, input, steps, launches, .. } => {
                    let dirs = layer.lstm_directions();
                    let to_pim = pim_available
                        && Preprocessor::decide(
                            &host_cfg,
                            pch_gbs,
                            OpKind::Lstm,
                            layer.weight_bytes(),
                            batch,
                        ) == ExecutionTarget::Pim;
                    if to_pim {
                        let step_cost = cost.pim_lstm_step(*hidden, *input).seconds;
                        let launch_count = match launches {
                            // Autoregressive: every step launches the two
                            // gate GEMVs plus the element-wise gate and
                            // state kernels — the GNMT decoder's limiter
                            // ("the overhead caused by many kernel calls
                            // limits the performance improvement").
                            LaunchPattern::PerStep => steps * dirs * 4,
                            // All inputs available: a couple of launches
                            // per direction cover the sequence.
                            LaunchPattern::Single => 2 * dirs,
                        };
                        let t = batch as f64 * (*steps as f64) * dirs as f64 * step_cost
                            + launch_count as f64 * cost.launch().seconds;
                        let mem = power.memory_pim_power_w(SystemPowerModel::PIM_PHASE_UTILIZATION);
                        record(
                            &mut layers,
                            &mut trace,
                            name,
                            t,
                            true,
                            HostPowerState::DrivingPim,
                            mem,
                        );
                    } else {
                        let eff_scale = CostModel::lstm_size_factor(layer.weight_bytes());
                        let per_step = cost
                            .host_lstm_gemv(4 * hidden, *input, batch, scale, eff_scale)
                            .seconds
                            + cost
                                .host_lstm_gemv(4 * hidden, *hidden, batch, scale, eff_scale)
                                .seconds;
                        // The host library fuses the sequence into one
                        // launch regardless of recurrence.
                        let t = (*steps as f64) * dirs as f64 * per_step + cost.launch().seconds;
                        let util = host_cfg.lstm_efficiency(batch);
                        let mem = power.memory_stream_power_w(util, stacks)
                            + x4_extra(HostPowerState::Streaming);
                        record(
                            &mut layers,
                            &mut trace,
                            name,
                            t,
                            false,
                            HostPowerState::Streaming,
                            mem,
                        );
                    }
                }
                Layer::BatchNorm { name, .. }
                | Layer::Relu { name, .. }
                | Layer::ResidualAdd { name, .. } => {
                    let (op, elements) = layer.stream_op().expect("stream layer");
                    let kind = match op {
                        StreamOp::Add => OpKind::Add,
                        StreamOp::Mul => OpKind::Mul,
                        StreamOp::Relu => OpKind::Relu,
                        // AXPY shares ADD's level-1 BLAS profile.
                        StreamOp::Axpy => OpKind::Add,
                        StreamOp::Bn => OpKind::Bn,
                    };
                    let bytes = (elements * batch) as u64 * op.bytes_per_element();
                    let to_pim = pim_available
                        && Preprocessor::decide(&host_cfg, pch_gbs, kind, bytes, 1)
                            == ExecutionTarget::Pim;
                    if to_pim {
                        let t =
                            cost.pim_stream(op, elements * batch).seconds + cost.launch().seconds;
                        let mem = power.memory_pim_power_w(SystemPowerModel::PIM_PHASE_UTILIZATION);
                        record(
                            &mut layers,
                            &mut trace,
                            name,
                            t,
                            true,
                            HostPowerState::DrivingPim,
                            mem,
                        );
                    } else {
                        let t = cost.host_stream(op, elements * batch, scale).seconds
                            + cost.launch().seconds;
                        let util = host_cfg.add_stream_efficiency;
                        let mem = power.memory_stream_power_w(util, stacks)
                            + x4_extra(HostPowerState::Streaming);
                        record(
                            &mut layers,
                            &mut trace,
                            name,
                            t,
                            false,
                            HostPowerState::Streaming,
                            mem,
                        );
                    }
                }
            }
        }

        let total_seconds = layers.iter().map(|l| l.seconds).sum();
        RunReport { model: model.name, system, batch, layers, total_seconds, trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn run_pair(model: &Model, batch: usize) -> (RunReport, RunReport) {
        let mut cost = CostModel::paper();
        let power = SystemPowerModel::paper();
        let hbm = ModelRunner::run(&mut cost, &power, model, SystemKind::ProcHbm, batch);
        let pim = ModelRunner::run(&mut cost, &power, model, SystemKind::PimHbm, batch);
        (hbm, pim)
    }

    #[test]
    fn ds2_speedup_is_substantial_at_batch_1() {
        let (hbm, pim) = run_pair(&models::deepspeech2(), 1);
        let s = pim.speedup_over(&hbm);
        assert!(s > 2.0, "DS2 speedup {s}");
        assert!(pim.pim_time_fraction() > 0.5, "DS2 is LSTM-dominated on PIM");
    }

    #[test]
    fn resnet_performance_parity() {
        let (hbm, pim) = run_pair(&models::resnet50(), 1);
        let s = pim.speedup_over(&hbm);
        assert!((0.95..1.05).contains(&s), "ResNet-50 speedup {s} should be ~1.0");
        assert_eq!(pim.pim_time_fraction(), 0.0, "nothing offloads");
    }

    #[test]
    fn gnmt_limited_by_decoder_launches() {
        let (hbm, pim) = run_pair(&models::gnmt(), 1);
        let s = pim.speedup_over(&hbm);
        assert!(s > 1.0 && s < 4.0, "GNMT speedup {s} limited by kernel calls");
    }

    #[test]
    fn alexnet_modest_speedup_via_fc() {
        let (hbm, pim) = run_pair(&models::alexnet(), 1);
        let s = pim.speedup_over(&hbm);
        assert!(s > 1.0 && s < 3.0, "AlexNet speedup {s}");
    }

    #[test]
    fn speedups_shrink_with_batch() {
        let model = models::deepspeech2();
        let (h1, p1) = run_pair(&model, 1);
        let (h4, p4) = run_pair(&model, 4);
        let s1 = p1.speedup_over(&h1);
        let s4 = p4.speedup_over(&h4);
        assert!(s4 < s1, "batch 4 speedup {s4} must be below batch 1 {s1}");
    }

    #[test]
    fn x4_bandwidth_helps_memory_bound_apps() {
        let mut cost = CostModel::paper();
        let power = SystemPowerModel::paper();
        let model = models::deepspeech2();
        let hbm = ModelRunner::run(&mut cost, &power, &model, SystemKind::ProcHbm, 1);
        let x4 = ModelRunner::run(&mut cost, &power, &model, SystemKind::ProcHbmX4, 1);
        let s = x4.speedup_over(&hbm);
        assert!(s > 2.0, "4x bandwidth speedup {s}");
    }

    #[test]
    fn energy_accounting_is_positive_and_consistent() {
        let (hbm, pim) = run_pair(&models::deepspeech2(), 1);
        let power = SystemPowerModel::paper();
        let e_hbm = hbm.energy_j(&power);
        let e_pim = pim.energy_j(&power);
        assert!(e_hbm > 0.0 && e_pim > 0.0);
        // PIM runs faster AND at no more power: energy strictly improves.
        assert!(e_pim < e_hbm, "PIM energy {e_pim} vs HBM {e_hbm}");
    }
}
