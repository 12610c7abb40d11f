//! Kernel cost models for the application runner.
//!
//! **PIM costs are the real choreography, timed in closed form.** For each
//! distinct kernel shape the cost model takes the [`pim_host::Kernel`] —
//! the loop nest `pim-runtime`'s builders state and `GemvPlan` and the
//! stream job materialise and launch — and folds it over a
//! [`pim_host::ChannelPredictor`]: the engine's issue loop over the DRAM
//! and PIM-mode timing constraints, with no banks, no registers and no FP16
//! behind it, and with the trips of a loop that repeat exactly accounted by
//! multiplication. A cost is cycles, commands and fences, and none of them
//! depends on a register or a bank ("timing/energy are data-independent"),
//! so neither a device nor a command list is constructed here. Lock-step
//! execution means one channel's cycle count *is* the system wall time, so
//! one channel per shape is exact and cheap; results are memoized per shape
//! and ordering regime.
//!
//! The closed form is not trusted, it is held: `tests/timing_only.rs`
//! assembles a full, unmasked simulation of the materialised lists on a
//! real controller and [`pim_core::PimChannel`] and asserts every cost equal
//! to it — every Fig. 10 shape, and a grid over DRAM generations, unit
//! counts, fence costs, ordering regimes and device variants — and pins
//! the Fig. 10 numbers themselves.
//!
//! **Host (HBM-baseline) costs** use the documented streaming-efficiency /
//! LLC / compute models of [`pim_host`] — the substitution for the paper's
//! real GPU libraries (see DESIGN.md).

use pim_core::PimConfig;
use pim_dram::{Cycle, TimingParams, PCH_PER_STACK};
use pim_host::{llc, Batch, ChannelPredictor, ExecutionMode, HostConfig, Kernel, KernelResult};
use pim_runtime::kernels::gemv_kernel;
use pim_runtime::{gemv_microkernel, Executor, GemvGeometry, StreamOp};
use std::collections::HashMap;

/// The timed / modelled cost of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Bus cycles (PIM kernels only; 0 for analytic host costs).
    pub cycles: Cycle,
    /// DRAM commands of the kernel per channel (PIM kernels only). A GEMV's
    /// partial-sum read-back is in `cycles` but not in here.
    pub commands: u64,
    /// Fences per channel (PIM kernels only).
    pub fences: u64,
}

impl KernelCost {
    fn analytic(seconds: f64) -> KernelCost {
        KernelCost { seconds, cycles: 0, commands: 0, fences: 0 }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ShapeKey {
    Gemv { n: usize, k: usize },
    Stream { op: StreamOp, elements: usize },
}

/// Memoizing cost model bound to one system configuration.
#[derive(Debug)]
pub struct CostModel {
    // The configuration is fixed at construction: a memoized cost is a
    // function of it, so nothing may change it afterwards.
    host: HostConfig,
    pim: PimConfig,
    timing: TimingParams,
    /// Ordering regime for PIM kernels. May be changed at any time: costs
    /// are memoized per mode.
    pub mode: ExecutionMode,
    cache: HashMap<(ExecutionMode, ShapeKey), KernelCost>,
}

impl CostModel {
    /// The paper system's cost model.
    pub fn paper() -> CostModel {
        CostModel::new(HostConfig::paper(), PimConfig::paper(), TimingParams::hbm2())
    }

    /// A cost model over explicit configurations.
    pub fn new(host: HostConfig, pim: PimConfig, timing: TimingParams) -> CostModel {
        CostModel {
            host,
            pim,
            timing,
            mode: ExecutionMode::Fenced { reorder_seed: None },
            cache: HashMap::new(),
        }
    }

    /// Host configuration (baseline efficiencies, launch overhead).
    pub fn host(&self) -> &HostConfig {
        &self.host
    }

    /// PIM device configuration (variant, fence window).
    pub fn pim(&self) -> &PimConfig {
        &self.pim
    }

    /// DRAM timing.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Total pseudo channels in the system.
    pub fn channels(&self) -> usize {
        self.host.stacks * PCH_PER_STACK
    }

    /// Folds `kernel` over `clock` under the model's ordering regime.
    fn time(&self, clock: &mut ChannelPredictor, kernel: &Kernel) -> KernelResult {
        clock.fold(&self.host, kernel, self.mode, None).ran.result
    }

    fn cost(&self, cycles: Cycle, commands: u64, fences: u64) -> KernelCost {
        KernelCost { seconds: self.timing.cycles_to_seconds(cycles), cycles, commands, fences }
    }

    /// The PIM GEMV time for an `n × k` matrix (batch 1): the real command
    /// choreography of one channel, pass by pass, each pass followed by the
    /// read-back of every unit's partial sums.
    pub fn pim_gemv(&mut self, n: usize, k: usize) -> KernelCost {
        let key = (self.mode, ShapeKey::Gemv { n, k });
        if let Some(c) = self.cache.get(&key) {
            return *c;
        }
        let g = GemvGeometry::new(n, k, self.channels(), self.pim.units_per_pch);
        let program = gemv_microkernel(g.groups(), &self.pim);
        let kernel = Executor::kernel(&program, None, true, gemv_kernel(g.kpad, 0, &self.pim));
        // Partial-sum readback: per channel, 8 units × (ACT + 8 RD + PRE)
        // on the memory-mapped GRF row, in single-bank mode, unfenced.
        let readback = Batch::setup(
            (0..self.pim.units_per_pch)
                .flat_map(|u| Executor::grf_readback_commands(u, 8))
                .collect(),
        );
        let readback = Kernel { prologue: vec![readback], ..Kernel::default() };

        let mut clock = ChannelPredictor::power_on(&self.timing);
        let mut commands = 0;
        let mut fences = 0;
        for _ in 0..g.passes {
            let r = self.time(&mut clock, &kernel);
            commands += r.commands;
            fences += r.fences;
            self.time(&mut clock, &readback);
        }
        let cost = self.cost(clock.now(), commands, fences);
        self.cache.insert(key, cost);
        cost
    }

    /// The PIM time of a streaming op over `elements`.
    pub fn pim_stream(&mut self, op: StreamOp, elements: usize) -> KernelCost {
        let key = (self.mode, ShapeKey::Stream { op, elements });
        if let Some(c) = self.cache.get(&key) {
            return *c;
        }
        let kernel = Executor::stream_launch(op, elements, self.channels(), &self.pim);
        let r = self.time(&mut ChannelPredictor::power_on(&self.timing), &kernel);
        let cost = self.cost(r.end_cycle, r.commands, r.fences);
        self.cache.insert(key, cost);
        cost
    }

    /// One PIM LSTM step: the two gate GEMVs (`4h × x` and `4h × h`).
    pub fn pim_lstm_step(&mut self, hidden: usize, input: usize) -> KernelCost {
        let a = self.pim_gemv(4 * hidden, input);
        let b = self.pim_gemv(4 * hidden, hidden);
        KernelCost {
            seconds: a.seconds + b.seconds,
            cycles: a.cycles + b.cycles,
            commands: a.commands + b.commands,
            fences: a.fences + b.fences,
        }
    }

    /// Host GEMV at the given batch: streaming the (LLC-filtered) weight
    /// traffic at the *unoptimized-GEMV* efficiency (batch-dependent —
    /// batching dispatches progressively better GEMM kernels), floored by
    /// compute.
    pub fn host_gemv(&self, n: usize, k: usize, batch: usize, bandwidth_scale: f64) -> KernelCost {
        self.host_matrix_kernel(n, k, batch, self.host.gemv_efficiency(batch), bandwidth_scale)
    }

    /// Host LSTM-class GEMV (library quality) at the given batch.
    ///
    /// `eff_scale` captures how library efficiency grows with the layer's
    /// total weight footprint (bigger matrices amortize kernel overheads
    /// better); the runner derives it from the layer's weight bytes.
    pub fn host_lstm_gemv(
        &self,
        n: usize,
        k: usize,
        batch: usize,
        bandwidth_scale: f64,
        eff_scale: f64,
    ) -> KernelCost {
        let eff = (self.host.lstm_efficiency(batch) * eff_scale).min(1.0);
        self.host_matrix_kernel(n, k, batch, eff, bandwidth_scale)
    }

    /// Library-efficiency scale for an LSTM layer with `weight_bytes` of
    /// parameters: `(wb / 48 MB)^0.25`, clamped — large layers keep the
    /// memory pipeline busier.
    pub fn lstm_size_factor(weight_bytes: u64) -> f64 {
        ((weight_bytes as f64 / (48.0 * 1048576.0)).powf(0.25)).clamp(0.65, 1.15)
    }

    fn host_matrix_kernel(
        &self,
        n: usize,
        k: usize,
        batch: usize,
        efficiency: f64,
        bandwidth_scale: f64,
    ) -> KernelCost {
        let weight_bytes = (n * k * 2) as u64;
        let traffic = llc::batched_traffic_bytes(weight_bytes, self.host.llc_bytes, batch);
        let per_pch_gbs = self.timing.peak_pch_bandwidth_gbs() * bandwidth_scale;
        let t_mem = self.host.stream_time_s(traffic, per_pch_gbs, efficiency);
        // Batched GEMM approaches the compute roofline at modest
        // utilization for skinny matrices.
        let flops = 2 * n * k * batch;
        let t_compute = self.host.compute_time_s(flops as u64, 0.35);
        KernelCost::analytic(t_mem.max(t_compute))
    }

    /// Host streaming element-wise op over `elements` (near-peak).
    pub fn host_stream(&self, op: StreamOp, elements: usize, bandwidth_scale: f64) -> KernelCost {
        let bytes = elements as u64 * op.bytes_per_element();
        let per_pch_gbs = self.timing.peak_pch_bandwidth_gbs() * bandwidth_scale;
        KernelCost::analytic(self.host.stream_time_s(
            bytes,
            per_pch_gbs,
            self.host.add_stream_efficiency,
        ))
    }

    /// Host compute-bound kernel (convolutions, attention, batched GEMM)
    /// at the given batch size.
    ///
    /// Batch-1 inference leaves most CUs idle (kernels too small to fill
    /// 60 CUs): utilization starts at ~2.5% and grows with batch, matching
    /// observed batch-1 latencies of AlexNet/ResNet-class models on
    /// GPU-class parts (a few ms).
    pub fn host_compute(&self, flops: u64, batch: usize) -> KernelCost {
        let util = (0.025 * batch as f64).min(0.55);
        KernelCost::analytic(self.host.compute_time_s(flops, util))
    }

    /// One kernel launch.
    pub fn launch(&self) -> KernelCost {
        KernelCost::analytic(self.host.launch_overhead_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pim_gemv_scales_with_k() {
        let mut m = CostModel::paper();
        let small = m.pim_gemv(1024, 1024);
        let big = m.pim_gemv(1024, 4096);
        assert!(big.seconds > 3.0 * small.seconds, "{} vs {}", big.seconds, small.seconds);
        assert!(small.cycles > 0 && small.fences > 0);
    }

    #[test]
    fn pim_gemv_passes_scale_with_n() {
        let mut m = CostModel::paper();
        let one_pass = m.pim_gemv(8192, 512);
        let two_pass = m.pim_gemv(8192 * 2, 512);
        let ratio = two_pass.seconds / one_pass.seconds;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pim_gemv_is_memoized() {
        let mut m = CostModel::paper();
        let a = m.pim_gemv(2048, 2048);
        let b = m.pim_gemv(2048, 2048);
        assert_eq!(a, b);
    }

    #[test]
    fn changing_the_mode_reprices_a_memoized_shape() {
        let mut m = CostModel::paper();
        let fenced = (m.pim_gemv(1024, 1024), m.pim_stream(StreamOp::Add, 1 << 20));
        m.mode = ExecutionMode::Ordered;
        let ordered = (m.pim_gemv(1024, 1024), m.pim_stream(StreamOp::Add, 1 << 20));
        assert!(fenced.0.fences > 0 && fenced.1.fences > 0);
        assert_eq!((ordered.0.fences, ordered.1.fences), (0, 0), "priced under the old mode");
        assert!(ordered.0.cycles < fenced.0.cycles && ordered.1.cycles < fenced.1.cycles);
        // ... and going back finds the first answer again.
        m.mode = ExecutionMode::Fenced { reorder_seed: None };
        assert_eq!((m.pim_gemv(1024, 1024), m.pim_stream(StreamOp::Add, 1 << 20)), fenced);
    }

    #[test]
    fn ordered_mode_is_faster_than_fenced() {
        let mut fenced = CostModel::paper();
        let mut ordered = CostModel::paper();
        ordered.mode = ExecutionMode::Ordered;
        let f = fenced.pim_gemv(4096, 4096);
        let o = ordered.pim_gemv(4096, 4096);
        let ratio = f.seconds / o.seconds;
        // §VII-B: removing fences buys ~2.2× on the microbenchmarks.
        assert!((1.5..3.0).contains(&ratio), "fence overhead ratio {ratio}");
    }

    #[test]
    fn pim_stream_scales_linearly() {
        let mut m = CostModel::paper();
        let a = m.pim_stream(StreamOp::Add, 1 << 21);
        let b = m.pim_stream(StreamOp::Add, 1 << 22);
        let ratio = b.seconds / a.seconds;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn host_gemv_batch_amortizes() {
        let m = CostModel::paper();
        let b1 = m.host_gemv(8192, 8192, 1, 1.0);
        let b4 = m.host_gemv(8192, 8192, 4, 1.0);
        // 4× the work in less than 4× the time (LLC reuse).
        assert!(b4.seconds < 4.0 * b1.seconds);
    }

    #[test]
    fn host_streams_at_the_models_timing() {
        let t = TimingParams::hbm2_2gbps();
        let m = CostModel::new(HostConfig::paper(), PimConfig::paper(), t.clone());
        let n = 1 << 20;
        let bytes = n as u64 * StreamOp::Add.bytes_per_element();
        let h = m.host();
        let want = h.stream_time_s(bytes, t.peak_pch_bandwidth_gbs(), h.add_stream_efficiency);
        assert_eq!(m.host_stream(StreamOp::Add, n, 1.0).seconds, want);
    }

    #[test]
    fn bandwidth_scale_speeds_host_kernels() {
        let m = CostModel::paper();
        let x1 = m.host_gemv(8192, 8192, 1, 1.0);
        let x4 = m.host_gemv(8192, 8192, 1, 4.0);
        let ratio = x1.seconds / x4.seconds;
        assert!((3.9..4.1).contains(&ratio), "PROC-HBM×4 ratio {ratio}");
    }
}
