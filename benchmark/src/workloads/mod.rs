//! The six workloads. Names are fixed — later issues cite them.
//!
//! A workload is built once per set-up ([`setup`], timed as `setup_s`) and
//! then asked for *reps*: the timed unit. Each rep regenerates what must be
//! fresh (contexts, inputs) outside the timed section, times only the call
//! into the program, and checks every output against an oracle afterwards.

pub mod cluster_chaos;
pub mod gemv;
pub mod paper_fig10;
pub mod serve_mix;
pub mod stream_raw;

/// Workload names, in the order `run` and `trace` visit them.
pub const NAMES: [&str; 6] =
    ["gemv_cold", "gemv_warm", "stream_raw", "serve_mix", "cluster_chaos", "paper_fig10"];

/// Input scale. `Smoke` shrinks every shape so the self-tests finish in
/// seconds in a debug build; published numbers are always `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` in smoke runs.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What one rep produced on the *simulated* clock: a pure function of
/// (code, seed). Every rep of a run must return an identical `Sim`; a
/// mismatch is a failed run, not noise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Operations attempted in the rep (the unit of `host_ops_per_s`).
    pub attempted: u64,
    /// Operations that ended without a result by design of the workload's
    /// load point: sheds and deadline misses.
    pub unserved: u64,
    /// Operations that errored or failed a check (a fast-path miss in
    /// `gemv_warm`, a simulated report off its oracle). Zero on healthy code.
    pub failed: u64,
    /// Result elements that reached a caller and differ from the oracle.
    pub wrong_answers: u64,
    /// Simulated DRAM commands issued in the rep.
    pub commands: u64,
    /// Simulated cycles per operation.
    pub cycles_per_op: f64,
    /// Median and nearest-rank p99 of simulated request latency.
    pub latency_p50: u64,
    pub latency_p99: u64,
    /// Oracle-correct result elements per simulated second.
    pub goodput_eps: f64,
    /// Layer counters read from the program's public statistics, by
    /// per-layer metric name.
    pub counts: Vec<(String, f64)>,
}

impl Sim {
    /// Share of attempted operations that produced a correct result.
    pub fn served_share(&self) -> f64 {
        self.attempted.saturating_sub(self.unserved + self.failed) as f64
            / self.attempted.max(1) as f64
    }
}

/// One timed rep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host wall seconds spent inside the program.
    pub wall_s: f64,
    pub sim: Sim,
}

/// A set-up workload.
pub trait Workload {
    fn rep(&mut self, index: usize) -> Rep;
}

/// Builds workload `name` from `seed`: operand generation, context build,
/// plan warm-up and set-up checks. The time this takes is `setup_s`.
///
/// # Errors
///
/// An unknown name, or a set-up check that failed (the message says which).
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "gemv_cold" => Box::new(gemv::GemvCold::setup(seed, scale)?),
        "gemv_warm" => Box::new(gemv::GemvWarm::setup(seed, scale)?),
        "stream_raw" => Box::new(stream_raw::StreamRaw::setup(seed, scale)?),
        "serve_mix" => Box::new(serve_mix::ServeMix::setup(seed, scale)),
        "cluster_chaos" => Box::new(cluster_chaos::ClusterChaos::setup(seed, scale)?),
        "paper_fig10" => Box::new(paper_fig10::PaperFig10::setup(scale)?),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

/// Counts positions where `got` and `want` differ bit for bit (a length
/// mismatch counts every missing or extra element).
pub fn count_wrong(got: &[f32], want: &[f32]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g.to_bits() != w.to_bits()).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Served result elements and wrong elements among `outcomes`, each checked
/// against its request's exact-FP16 oracle.
pub fn audit(outcomes: &[pim_runtime::RequestOutcome], oracles: &[Vec<f32>]) -> (u64, u64) {
    let (mut served, mut wrong) = (0, 0);
    for (o, oracle) in outcomes.iter().zip(oracles) {
        if let Some(result) = &o.result {
            served += result.len() as u64;
            wrong += count_wrong(result, oracle);
        }
    }
    (served, wrong)
}

/// Simulated commands a context has issued since it was built, from the
/// public counters: single-bank commands from the DRAM channel's stats,
/// all-bank commands from the device's. An all-bank ACT also books one ACT
/// per bank on the DRAM side and an all-bank PRE books one PRE there, so
/// those are taken out again. (A self-test holds this equal to the command
/// counts the kernel reports carry.)
pub fn system_commands(sys: &pim_host::PimSystem) -> u64 {
    (0..sys.channel_count())
        .map(|i| {
            let dev = sys.channel(i).sink();
            let d = dev.dram().stats();
            let p = dev.stats();
            let single_bank_acts = d.acts - pim_dram::BANKS_PER_PCH as u64 * p.ab_acts;
            single_bank_acts + d.pres + d.reads + d.writes + p.ab_acts + p.ab_reads + p.ab_writes
        })
        .sum()
}
