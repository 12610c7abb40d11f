//! The PIM runtime context: system + driver + memory manager + execution
//! mode, threaded through every PIM-BLAS call.

use crate::driver::{MemoryManager, PimDriver};
use pim_core::PimConfig;
use pim_dram::Cycle;
use pim_host::{ExecutionBackend, ExecutionMode, HostConfig, PimSystem};
use pim_obs::Recorder;

/// Everything a PIM-BLAS call needs: the simulated system, the booted
/// driver, the memory manager, and the ordering regime.
#[derive(Debug)]
pub struct PimContext {
    /// The simulated host + PIM-HBM system.
    pub sys: PimSystem,
    /// The booted device driver.
    pub driver: PimDriver,
    /// The runtime memory manager over the driver's reserved region.
    pub mm: MemoryManager,
    /// The ordering regime kernels run under (fenced by default, matching
    /// the shipped system; [`ExecutionMode::Ordered`] reproduces the
    /// no-fence what-if).
    pub mode: ExecutionMode,
    /// The shared observability recorder, if profiling is enabled
    /// ([`PimContext::enable_profiling`]). `None` by default: instrumented
    /// layers then skip all event/metric work.
    pub recorder: Option<Recorder>,
    /// Strict launch mode: when set, every kernel launched through the
    /// executor is first checked by the `pim-verify` static verifier, and
    /// launches with verifier errors are refused with the full diagnostic
    /// report instead of being simulated.
    pub strict: bool,
}

impl PimContext {
    /// The paper's full evaluation system: 4 stacks, 64 channels.
    pub fn paper_system() -> PimContext {
        PimContext::new(HostConfig::paper(), PimConfig::paper())
    }

    /// A one-stack system for fast tests (16 channels).
    pub fn small_system() -> PimContext {
        let mut host = HostConfig::paper();
        host.stacks = 1;
        PimContext::new(host, PimConfig::paper())
    }

    /// Builds a context over explicit configurations.
    pub fn new(host: HostConfig, pim: PimConfig) -> PimContext {
        let sys = PimSystem::new(host, pim.clone());
        let driver = PimDriver::boot(sys.channel_count(), pim.units_per_pch);
        let mm = driver.memory_manager();
        PimContext {
            sys,
            driver,
            mm,
            mode: ExecutionMode::Fenced { reorder_seed: None },
            recorder: None,
            strict: false,
        }
    }

    /// Switches the ordering regime.
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        self.mode = mode;
    }

    /// Enables or disables strict launch mode (see [`PimContext::strict`]).
    ///
    /// Toggling also drops every memoized launch: strict mode changes
    /// which launches are *refused*, and a cached entry must never answer
    /// for a launch the verifier would now reject.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
        self.sys.clear_fastpath();
    }

    /// Selects the execution backend every kernel launched through this
    /// context runs under ([`ExecutionBackend::Sequential`] by default,
    /// [`ExecutionBackend::Threads`] to fan channels out over host worker
    /// threads). A scheduling choice only: results, stats, and merged event
    /// streams are identical under every backend.
    pub fn set_backend(&mut self, backend: ExecutionBackend) {
        self.sys.set_backend(backend);
    }

    /// The execution backend kernels currently run under.
    pub fn backend(&self) -> ExecutionBackend {
        self.sys.backend()
    }

    /// Attaches `recorder` to every layer of the simulation: each channel's
    /// memory controller and PIM device, plus the runtime itself (op
    /// spans). All layers share one event stream and one metrics registry.
    pub fn enable_profiling(&mut self, recorder: Recorder) {
        self.enable_profiling_with_base(recorder, 0);
    }

    /// [`PimContext::enable_profiling`] with the channel track ids offset
    /// by `base`. A multi-stack cluster gives each member stack a disjoint
    /// base (`stack_index × channel_count`) so the merged event stream
    /// keeps per-channel tracks distinguishable across stacks.
    pub fn enable_profiling_with_base(&mut self, recorder: Recorder, base: u16) {
        for i in 0..self.sys.channel_count() {
            let ctrl = self.sys.channel_mut(i);
            ctrl.set_recorder(recorder.clone(), base + i as u16);
            ctrl.sink_mut().set_recorder(recorder.clone(), base + i as u16);
        }
        self.recorder = Some(recorder);
    }

    /// Folds per-bank row-state residency (cycles spent with a row open vs
    /// precharged) into the recorder's gauges, summed over all channels up
    /// to each channel's current cycle. Call after the workload of
    /// interest; gauges overwrite, so repeated calls stay correct.
    pub fn snapshot_residency(&self) {
        let Some(r) = &self.recorder else { return };
        let (mut open, mut closed) = (0u64, 0u64);
        for i in 0..self.sys.channel_count() {
            let ctrl = self.sys.channel(i);
            let (o, c) = ctrl.sink().dram().bank_residency(ctrl.now());
            open += o;
            closed += c;
        }
        r.set_gauge(pim_obs::names::BANK_OPEN_CYCLES, open as f64);
        r.set_gauge(pim_obs::names::BANK_CLOSED_CYCLES, closed as f64);
    }

    /// Installs a seeded fault plan across the simulated system (see
    /// `pim_faults`). Off by default: a context that never calls this is
    /// bit-identical — cycle counts, command counts, results — to one
    /// built before fault support existed.
    pub fn inject_faults(&mut self, plan: &pim_faults::FaultPlan) {
        self.sys.install_faults(plan);
    }

    /// Advances every channel's clock to `t` without issuing commands
    /// (no-op for channels already past it): idle time, and the modelled
    /// penalties the recovery and cluster layers charge.
    pub fn advance_to(&mut self, t: Cycle) {
        for i in 0..self.sys.channel_count() {
            self.sys.channel_mut(i).advance_to(t);
        }
    }

    /// Frees all PIM memory (arena reset between benchmarks and serving
    /// attempts). Memoized launches outlive the arena: their key hashes the
    /// rows and configuration payloads of the command list and a hit
    /// re-verifies each channel's entry fingerprint, so a request that is
    /// placed where its predecessor was replays it.
    pub fn reset_memory(&mut self) {
        self.mm.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_context_shape() {
        let ctx = PimContext::paper_system();
        assert_eq!(ctx.sys.channel_count(), 64);
        assert_eq!(ctx.driver.units_per_channel(), 8);
    }

    #[test]
    fn small_context_shape() {
        let ctx = PimContext::small_system();
        assert_eq!(ctx.sys.channel_count(), 16);
    }

    #[test]
    fn backend_defaults_sequential_and_round_trips() {
        let mut ctx = PimContext::small_system();
        assert_eq!(ctx.backend(), ExecutionBackend::Sequential);
        ctx.set_backend(ExecutionBackend::Threads(4));
        assert_eq!(ctx.backend(), ExecutionBackend::Threads(4));
    }
}
