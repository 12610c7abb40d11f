//! The model runner: executes an application's layer graph on a given
//! system (PROC-HBM, PIM-HBM, PROC-HBM×4) at a given batch size,
//! producing per-layer times and the power phases for Fig. 12/13.
//!
//! One rule places, prices and phases every layer:
//! [`ModelRunner::layer`] asks the real [`pim_runtime::Preprocessor`] —
//! the same component the software stack uses — once about the layer's
//! custom op and returns its seconds (launches included) and its
//! [`Placement`]; [`SystemKind::phase`] turns the placement into the host
//! state and memory watts of its power phase. The batch-size crossover of
//! Fig. 10 therefore emerges from the stack's own policy rather than from
//! hard-coded per-figure switches, and Fig. 12's microbenchmark bars use
//! the same phases as the applications.

use crate::cost::CostModel;
use crate::layer::{LaunchPattern, Layer};
use crate::models::Model;
use pim_energy::{HostPowerState, PowerTrace, SystemPowerModel};
use pim_runtime::ops::OpKind;
use pim_runtime::{ExecutionTarget, Preprocessor};

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

    /// The power phase of a layer placed at `placement` on this system:
    /// the host's state and the memory watts.
    ///
    /// The ×4 system's scaled host I/O and controllers are folded into the
    /// memory term (see [`SystemPowerModel::x4_host_overhead`]). Only
    /// streaming phases pay them: the extra PHYs clock-gate while the host
    /// computes.
    pub fn phase(self, power: &SystemPowerModel, placement: Placement) -> (HostPowerState, f64) {
        match placement {
            Placement::Pim => (
                HostPowerState::DrivingPim,
                power.memory_pim_power_w(SystemPowerModel::PIM_PHASE_UTILIZATION),
            ),
            Placement::Host(state, utilization) => {
                let x4_extra =
                    if self == SystemKind::ProcHbmX4 && state == HostPowerState::Streaming {
                        power.host_power_w(state) * power.x4_host_overhead
                    } else {
                        0.0
                    };
                (state, power.memory_stream_power_w(utilization, self.stacks()) + x4_extra)
            }
        }
    }
}

/// Where a layer runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// On the PIM units, the host driving them.
    Pim,
    /// On the host, in the given state, with memory streaming at the given
    /// fraction of its peak column rate.
    Host(HostPowerState, f64),
}

/// Memory utilization while the host computes a compute-bound layer.
const COMPUTE_UTILIZATION: f64 = 0.15;

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

/// Runs models over systems: one run's system, batch, and the
/// run-invariant prices every layer shares.
#[derive(Debug, Clone, Copy)]
pub struct ModelRunner {
    system: SystemKind,
    batch: usize,
    pch_gbs: f64,
    launch_s: f64,
}

impl ModelRunner {
    /// A runner for `system` at `batch` over `cost`'s configuration.
    pub fn new(cost: &CostModel, system: SystemKind, batch: usize) -> ModelRunner {
        assert!(batch >= 1, "batch must be at least 1");
        let (pch_gbs, launch_s) = (cost.timing().peak_pch_bandwidth_gbs(), cost.launch().seconds);
        ModelRunner { system, batch, pch_gbs, launch_s }
    }

    /// Executes `model` on `system` at `batch`, using `cost` for kernel
    /// times and `power` for the phase bookkeeping.
    pub fn run(
        cost: &mut CostModel,
        power: &SystemPowerModel,
        model: &Model,
        system: SystemKind,
        batch: usize,
    ) -> RunReport {
        let runner = ModelRunner::new(cost, system, batch);
        let (mut layers, mut trace) = (Vec::new(), PowerTrace::new());
        for layer in &model.layers {
            let (seconds, placement) = runner.layer(cost, layer);
            let (state, memory_w) = system.phase(power, placement);
            let (name, on_pim) = (layer.name(), placement == Placement::Pim);
            layers.push(LayerTime { name, seconds, on_pim });
            trace.push(name, seconds, state, memory_w);
        }
        let total_seconds = layers.iter().map(|l| l.seconds).sum();
        RunReport { model: model.name, system, batch, layers, total_seconds, trace }
    }

    /// One layer's seconds, kernel launches included, and its placement.
    ///
    /// A memory-bound layer is one of the six custom ops; it runs on PIM
    /// only on PIM-HBM and only where [`Preprocessor::decide`] sends it.
    /// A compute-bound layer (convolution, attention) stays on the host.
    pub fn layer(&self, cost: &mut CostModel, layer: &Layer) -> (f64, Placement) {
        let (batch, scale) = (self.batch, self.system.bandwidth_scale());
        let custom_op = match *layer {
            Layer::FullyConnected { pim_eligible: true, .. } => {
                Some((OpKind::Gemv, layer.weight_bytes(), batch))
            }
            Layer::Lstm { .. } => Some((OpKind::Lstm, layer.weight_bytes(), batch)),
            // A stream op's footprint is the whole batch, streamed once.
            _ => layer.stream_op().map(|(op, elements)| {
                (OpKind::from(op), (elements * batch) as u64 * op.bytes_per_element(), 1)
            }),
        };
        let on_pim = self.system == SystemKind::PimHbm
            && custom_op.is_some_and(|(op, bytes, op_batch)| {
                Preprocessor::decide(cost.host(), self.pch_gbs, op, bytes, op_batch)
                    == ExecutionTarget::Pim
            });
        let streaming = |utilization| Placement::Host(HostPowerState::Streaming, utilization);
        let (work_s, launches, placement) = match *layer {
            Layer::Conv2d { gflops, .. } | Layer::Attention { gflops, .. } => (
                cost.host_compute((gflops * 1e9) as u64 * batch as u64, batch).seconds,
                1,
                Placement::Host(HostPowerState::Compute, COMPUTE_UTILIZATION),
            ),
            Layer::FullyConnected { n, k, .. } if on_pim => {
                (batch as f64 * cost.pim_gemv(n, k).seconds, 1, Placement::Pim)
            }
            Layer::FullyConnected { n, k, .. } => (
                cost.host_gemv(n, k, batch, scale).seconds,
                1,
                streaming(cost.host().gemv_efficiency(batch).min(1.0)),
            ),
            Layer::Lstm { hidden, input, steps, launches, .. } => {
                let dirs = layer.lstm_directions();
                if on_pim {
                    let launch_count = match launches {
                        // Autoregressive: every step launches the two gate
                        // GEMVs plus the element-wise gate and state
                        // kernels — the GNMT decoder's limiter ("the
                        // overhead caused by many kernel calls limits the
                        // performance improvement").
                        LaunchPattern::PerStep => steps * dirs * 4,
                        // All inputs available: a couple of launches per
                        // direction cover the sequence.
                        LaunchPattern::Single => 2 * dirs,
                    };
                    let step_s = cost.pim_lstm_step(hidden, input).seconds;
                    let seconds = batch as f64 * steps as f64 * dirs as f64 * step_s;
                    (seconds, launch_count, Placement::Pim)
                } else {
                    let eff_scale = CostModel::lstm_size_factor(layer.weight_bytes());
                    let gemv = |k| cost.host_lstm_gemv(4 * hidden, k, batch, scale, eff_scale);
                    let per_step = gemv(input).seconds + gemv(hidden).seconds;
                    // The host library fuses the sequence into one launch
                    // regardless of recurrence.
                    let utilization = cost.host().lstm_efficiency(batch);
                    (steps as f64 * dirs as f64 * per_step, 1, streaming(utilization))
                }
            }
            Layer::BatchNorm { .. } | Layer::Relu { .. } | Layer::ResidualAdd { .. } => {
                let (op, elements) = layer.stream_op().expect("stream layer");
                if on_pim {
                    (cost.pim_stream(op, elements * batch).seconds, 1, Placement::Pim)
                } else {
                    let host_s = cost.host_stream(op, elements * batch, scale).seconds;
                    (host_s, 1, streaming(cost.host().add_stream_efficiency))
                }
            }
        };
        (work_s + launches as f64 * self.launch_s, placement)
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

    /// The per-kind rule, stated directly: every `Layer` variant on every
    /// system at batch 1 and 4 is placed on PIM only on PIM-HBM and only
    /// where the preprocessor says so, and is phased by its placement.
    #[test]
    fn every_layer_kind_gets_one_placement_and_its_phase() {
        use pim_runtime::StreamOp;
        let lstm = |name, launches| Layer::Lstm {
            name,
            hidden: 1024,
            input: 1024,
            steps: 4,
            bidirectional: true,
            launches,
        };
        let elements = 4 << 20;
        let model = Model {
            name: "every kind",
            layers: vec![
                Layer::Conv2d { name: "conv", gflops: 0.5 },
                Layer::Attention { name: "attention", gflops: 0.4 },
                Layer::FullyConnected { name: "fc", n: 4096, k: 4096, pim_eligible: true },
                Layer::FullyConnected { name: "fc host", n: 4096, k: 4096, pim_eligible: false },
                lstm("lstm single", LaunchPattern::Single),
                lstm("lstm per step", LaunchPattern::PerStep),
                Layer::BatchNorm { name: "bn", elements },
                Layer::Relu { name: "relu", elements },
                Layer::ResidualAdd { name: "add", elements },
            ],
        };
        let mut cost = CostModel::paper();
        let power = SystemPowerModel::paper();
        let (host, pch_gbs) = (cost.host().clone(), cost.timing().peak_pch_bandwidth_gbs());
        let pim_phase_w = power.memory_pim_power_w(SystemPowerModel::PIM_PHASE_UTILIZATION);
        let x4_extra_w = power.host_power_w(HostPowerState::Streaming) * power.x4_host_overhead;
        for batch in [1, 4] {
            let asked = |layer: &Layer| {
                let stream = |op: StreamOp, elements: usize| {
                    (OpKind::from(op), (elements * batch) as u64 * op.bytes_per_element(), 1)
                };
                match *layer {
                    Layer::FullyConnected { pim_eligible: true, .. } => {
                        Some((OpKind::Gemv, layer.weight_bytes(), batch))
                    }
                    Layer::Lstm { .. } => Some((OpKind::Lstm, layer.weight_bytes(), batch)),
                    Layer::BatchNorm { elements, .. } => Some(stream(StreamOp::Bn, elements)),
                    Layer::Relu { elements, .. } => Some(stream(StreamOp::Relu, elements)),
                    Layer::ResidualAdd { elements, .. } => Some(stream(StreamOp::Add, elements)),
                    _ => None,
                }
            };
            let runs = [SystemKind::ProcHbm, SystemKind::PimHbm, SystemKind::ProcHbmX4]
                .map(|system| ModelRunner::run(&mut cost, &power, &model, system, batch));
            for run in &runs {
                let phases = run.trace.phases();
                assert_eq!(phases.len(), model.layers.len());
                for ((layer, time), phase) in model.layers.iter().zip(&run.layers).zip(phases) {
                    let at = format!("{} on {} at batch {batch}", layer.name(), run.system.label());
                    let decided = asked(layer).is_some_and(|(op, bytes, b)| {
                        Preprocessor::decide(&host, pch_gbs, op, bytes, b) == ExecutionTarget::Pim
                    });
                    assert_eq!(time.on_pim, run.system == SystemKind::PimHbm && decided, "{at}");
                    assert_eq!(time.on_pim, phase.host == HostPowerState::DrivingPim, "{at}");
                    assert_eq!((phase.label.as_str(), phase.seconds), (time.name, time.seconds));
                    if time.on_pim {
                        assert_eq!(phase.memory_w, pim_phase_w, "{at}");
                    } else if matches!(layer, Layer::Conv2d { .. } | Layer::Attention { .. }) {
                        assert_eq!(phase.host, HostPowerState::Compute, "{at}");
                        let compute_w = power.memory_stream_power_w(0.15, run.system.stacks());
                        assert_eq!(phase.memory_w, compute_w, "{at}");
                    } else {
                        assert_eq!(phase.host, HostPowerState::Streaming, "{at}");
                    }
                }
            }
            // What PIM-HBM offloads: the GEMV-like layers return to the
            // host at batch 4, the element-wise ones never do.
            let g = batch == 1;
            let on_pim: Vec<bool> = runs[1].layers.iter().map(|l| l.on_pim).collect();
            assert_eq!(on_pim, [false, false, g, false, g, g, true, true, true], "batch {batch}");
            // ×4 streams the same utilization over 4× the stacks; only a
            // streaming phase adds the scaled host I/O on top.
            let [hbm, _, x4] = &runs;
            for (h, x) in hbm.trace.phases().iter().zip(x4.trace.phases()) {
                let extra = x.memory_w - 4.0 * h.memory_w;
                let want = if x.host == HostPowerState::Streaming { x4_extra_w } else { 0.0 };
                assert!((extra - want).abs() < 1e-9 * x.memory_w, "{}: {extra} W", x.label);
            }
        }
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
