//! The untraced run of one workload: set up, rep until the time budget is
//! spent, check, and turn the samples into the end-to-end metrics.

use crate::json::{obj, Json};
use crate::metrics::END_TO_END;
use crate::stats::{fastest, median, peak_rss_mib, percentile};
use crate::workloads::{self, Scale, Sim};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Fewest reps a run takes, however short its time budget.
pub const MIN_REPS: usize = 3;

/// Raw samples of one workload run.
#[derive(Debug, Clone)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub rep_s: Vec<f64>,
    /// The first rep's simulated report (every rep must equal it).
    pub sim: Sim,
    /// Whether every rep returned an identical simulated report.
    pub deterministic: bool,
    pub peak_rss_mib: f64,
}

/// Sets `name` up [`SETUPS`] times, then reps for `seconds`.
///
/// # Errors
///
/// Unknown workload or a failed set-up check.
pub fn measure(name: &str, seed: u64, scale: Scale, seconds: f64) -> Result<Samples, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous build first: two resident copies of a
        // workload's inputs would double the peak this run reports.
        drop(workload.take());
        let watch = Instant::now();
        workload = Some(workloads::setup(name, seed, scale)?);
        setup_s.push(watch.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least 1");

    let budget = Instant::now();
    let first = workload.rep(0);
    let mut rep_s = vec![first.wall_s];
    let mut deterministic = true;
    while rep_s.len() < MIN_REPS || budget.elapsed().as_secs_f64() < seconds {
        let rep = workload.rep(rep_s.len());
        deterministic &= rep.sim == first.sim;
        rep_s.push(rep.wall_s);
    }
    Ok(Samples {
        setup_s,
        rep_s,
        sim: first.sim,
        deterministic,
        peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
    })
}

impl Samples {
    /// Every output matched its oracle, no operation failed, and the
    /// simulated reports repeated exactly.
    pub fn correct(&self) -> bool {
        self.deterministic && self.sim.failed == 0 && self.sim.wrong_answers == 0
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Host throughput
    /// comes from the fastest rep ([`fastest`]).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let rep = fastest(&self.rep_s);
        let s = &self.sim;
        let values = [
            median(&self.setup_s),
            s.attempted as f64 / rep,
            s.commands as f64 / rep,
            self.peak_rss_mib,
            s.cycles_per_op,
            s.latency_p50 as f64,
            s.latency_p99 as f64,
            s.goodput_eps,
            s.served_share(),
        ];
        END_TO_END.iter().map(|m| m.name).zip(values).collect()
    }

    /// Diagnostics printed beside the metrics, not gated: the sample count
    /// and the fastest, median and p90 rep times.
    pub fn diagnostics(&self) -> Json {
        obj([
            ("reps", Json::Num(self.rep_s.len() as f64)),
            ("rep_fastest_s", Json::Num(fastest(&self.rep_s))),
            ("rep_median_s", Json::Num(median(&self.rep_s))),
            ("rep_p90_s", Json::Num(percentile(&self.rep_s, 90))),
            ("ops_attempted", Json::Num((self.sim.attempted * self.rep_s.len() as u64) as f64)),
            ("ops_unserved", Json::Num((self.sim.unserved * self.rep_s.len() as u64) as f64)),
            ("ops_failed", Json::Num((self.sim.failed * self.rep_s.len() as u64) as f64)),
            ("wrong_answers", Json::Num(self.sim.wrong_answers as f64)),
            ("deterministic", Json::Bool(self.deterministic)),
        ])
    }
}

/// The one-line result object of the benchmark contract: `correct`,
/// `attempted`, `failed`, and `metrics` as `{name: {value, unit}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Json {
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            obj(metrics.iter().map(|(name, value, unit)| {
                (*name, obj([("value", Json::Num(*value)), ("unit", Json::Str((*unit).into()))]))
            })),
        ),
    ])
}
