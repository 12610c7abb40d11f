//! The traced run: per-layer numbers for one workload.
//!
//! Each workload has a *ladder*: its own inputs re-executed one layer down
//! at a time through that layer's public entry points, every call wrapped in
//! a span ([`crate::span`]). Estimates taken from outside are not the
//! program's own self times — scoped timers inside the crates are a later
//! change — so what no rung re-executes is reported as
//! `trace.ladder.unattributed_share`, never hidden.
//!
//! A traced run prints every per-layer metric. One that a workload's ladder
//! does not reach prints 0 there; [`crate::metrics::PER_LAYER`] says on
//! which workloads each is measured.

mod gemv;
mod paper;
mod serving;
mod stream;

use crate::metrics::PER_LAYER;
use crate::span::Tracer;
use crate::stats::fastest;
use crate::workloads::{Scale, Sim};
use std::collections::BTreeMap;
use std::time::Instant;

/// What a traced run produced.
pub struct Traced {
    /// Every per-layer metric by name, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Metric values a ladder measured, by name.
pub type Values = BTreeMap<String, f64>;

/// Shared state of a ladder run: the span recorder, the time budget, and
/// the untraced reps taken between iterations.
pub struct Run {
    pub t: Tracer,
    pub values: Values,
    started: Instant,
    seconds: f64,
    iterations: usize,
    untraced_rep_s: Vec<f64>,
    sim: Option<Sim>,
    deterministic: bool,
}

impl Run {
    fn new(workload: &str, seconds: f64) -> Run {
        Run {
            t: Tracer::new(workload),
            values: Values::new(),
            started: Instant::now(),
            seconds,
            iterations: 0,
            untraced_rep_s: Vec::new(),
            sim: None,
            deterministic: true,
        }
    }

    /// `true` while another ladder iteration fits the budget (always for
    /// the first).
    pub fn again(&mut self) -> bool {
        let go = self.iterations == 0 || self.started.elapsed().as_secs_f64() < self.seconds;
        self.iterations += usize::from(go);
        go
    }

    /// Zero-based index of the current iteration.
    pub fn iteration(&self) -> usize {
        self.iterations - 1
    }

    /// Records one untraced rep taken beside the traced rungs: its time
    /// feeds `trace.overhead_ratio`, its counters the count metrics.
    pub fn untraced(&mut self, rep: crate::workloads::Rep) {
        self.untraced_rep_s.push(rep.wall_s);
        match &self.sim {
            Some(first) => self.deterministic &= *first == rep.sim,
            None => self.sim = Some(rep.sim),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Seconds of the fastest span called `name`.
    pub fn s(&self, name: &str) -> f64 {
        self.t.fastest_s(name)
    }

    /// `a ÷ b`, or 0 when `b` is 0 (a rung that did not run).
    pub fn ratio(a: f64, b: f64) -> f64 {
        if b > 0.0 {
            a / b
        } else {
            0.0
        }
    }

    /// Fills in what every ladder reports the same way: the share tree
    /// under `root` summed per layer crate, the tracing overhead (`traced_rep_s`
    /// is what one rep's worth of work took inside spans), the untraced rep's
    /// counters and the check results.
    fn finish(mut self, root: &str, traced_rep_s: f64) -> Traced {
        let shares = self.t.shares(root);
        for (rung, share) in &shares.rungs {
            // Rungs are named `<crate>.<module>.<what>`.
            let layer = rung.split('.').next().unwrap_or(rung);
            *self.values.entry(format!("{layer}.ladder.share")).or_insert(0.0) += share;
        }
        self.set("trace.ladder.unattributed_share", shares.root_self);
        self.set("trace.ladder.clamped_share", shares.clamped);
        self.set("trace.root_ms", self.s(root) * 1e3);
        let untraced =
            if self.untraced_rep_s.is_empty() { 0.0 } else { fastest(&self.untraced_rep_s) };
        self.set("trace.overhead_ratio", Run::ratio(traced_rep_s, untraced));

        let sim = self.sim.take().unwrap_or_default();
        for (name, value) in &sim.counts {
            self.values.entry(name.clone()).or_insert(*value);
        }
        self.set("check.wrong_answers", sim.wrong_answers as f64);
        let ladder_failed = self.values.get("check.ops_failed").copied().unwrap_or(0.0);
        self.set("check.ops_failed", sim.failed as f64 + ladder_failed);

        let unknown: Vec<&String> =
            self.values.keys().filter(|k| !PER_LAYER.iter().any(|m| m.name == *k)).collect();
        assert!(unknown.is_empty(), "ladder reported metrics outside the table: {unknown:?}");
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, self.values.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        let reps = self.untraced_rep_s.len() as u64;
        Traced {
            metrics,
            correct: self.deterministic
                && sim.wrong_answers == 0
                && sim.failed == 0
                && ladder_failed == 0.0,
            attempted: sim.attempted * reps,
            failed: sim.failed * reps + ladder_failed as u64,
            tracer: self.t,
        }
    }
}

/// Runs workload `name`'s ladder for about `seconds`.
///
/// # Errors
///
/// Unknown workload, or a set-up check that failed.
pub fn trace(name: &str, seed: u64, scale: Scale, seconds: f64) -> Result<Traced, String> {
    let run = Run::new(name, seconds);
    match name {
        "gemv_cold" => gemv::cold(run, seed, scale),
        "gemv_warm" => gemv::warm(run, seed, scale),
        "stream_raw" => stream::raw(run, seed, scale),
        "serve_mix" => serving::serve_mix(run, seed, scale),
        "cluster_chaos" => serving::cluster_chaos(run, seed, scale),
        "paper_fig10" => paper::fig10(run, scale),
        other => Err(format!("unknown workload `{other}`")),
    }
}
