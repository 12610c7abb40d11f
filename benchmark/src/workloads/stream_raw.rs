//! `stream_raw`: the `synthetic64` shape straight through
//! `KernelEngine::run_system`. Uses the engine and the DRAM model the other
//! way from `gemv_cold`: no fences, no PIM mode, no FP16. A fence-handling
//! fix should move `gemv_cold` and leave this flat; a bank or timing-check
//! fix moves both.

use super::{system_commands, Rep, Scale, Sim, Workload};
use crate::gen::synthetic_batches;
use pim_core::PimConfig;
use pim_host::{
    predict_launch, Batch, ExecutionMode, HostConfig, KernelEngine, KernelResult, PimSystem,
};
use std::time::Instant;

/// FP16 elements one column read moves; the unit of this workload's goodput.
const ELEMS_PER_READ: u64 = 16;

pub struct StreamRaw {
    per_channel: Vec<Vec<Batch>>,
    /// What the closed-form launch predictor — a model that shares no
    /// stepping code with the engine — says the run must return.
    predicted: KernelResult,
    reads: u64,
}

/// A fresh paper system with the fast path off: every command is simulated.
pub fn fresh_system() -> PimSystem {
    let mut sys = PimSystem::new(HostConfig::paper(), PimConfig::paper());
    sys.set_fastpath_enabled(false);
    sys
}

impl StreamRaw {
    pub fn setup(seed: u64, scale: Scale) -> Result<StreamRaw, String> {
        let (channels, triples) = scale.pick((64, 16_000), (8, 200));
        let per_channel = synthetic_batches(channels, triples, seed);
        let p = predict_launch(&fresh_system(), &per_channel, ExecutionMode::Ordered, None)
            .ok_or("launch predictor declined the synthetic stream")?;
        let predicted =
            KernelResult { end_cycle: p.end_cycle, commands: p.commands, fences: p.fences };
        Ok(StreamRaw { per_channel, predicted, reads: (channels * triples * 8) as u64 })
    }

    pub fn per_channel(&self) -> &[Vec<Batch>] {
        &self.per_channel
    }
}

impl Workload for StreamRaw {
    fn rep(&mut self, _index: usize) -> Rep {
        let mut sys = fresh_system();
        let watch = Instant::now();
        let r = KernelEngine::run_system(&mut sys, &self.per_channel, ExecutionMode::Ordered);
        let wall_s = watch.elapsed().as_secs_f64();

        // Outputs: the launch result against the predictor, and the
        // controllers' own counters against the generated stream.
        let triples = self.reads / 8;
        let stats_ok = (0..sys.channel_count())
            .map(|i| sys.channel(i).sink().dram().stats().clone())
            .fold((0, 0, 0), |a, s| (a.0 + s.acts, a.1 + s.reads, a.2 + s.pres))
            == (triples, self.reads, triples);
        let ok = r == self.predicted && stats_ok && system_commands(&sys) == r.commands;
        let seconds = sys.cycles_to_seconds(r.end_cycle);
        let sim = Sim {
            attempted: 1,
            unserved: 0,
            failed: u64::from(!ok),
            wrong_answers: 0,
            commands: r.commands,
            cycles_per_op: r.end_cycle as f64,
            latency_p50: r.end_cycle,
            latency_p99: r.end_cycle,
            goodput_eps: if ok { (self.reads * ELEMS_PER_READ) as f64 / seconds } else { 0.0 },
            counts: vec![("host.engine.fences_per_op".to_string(), r.fences as f64)],
        };
        Rep { wall_s, sim }
    }
}
