//! Spans around the harness's own calls into each layer.
//!
//! This change may not instrument the program, so the traced run measures
//! each layer *from outside*: it re-executes a workload's inputs one layer
//! down at a time through that layer's public entry points (a ladder) and
//! wraps every call in a span. A rung's parent is the rung one layer up that
//! contains the same work; the link is logical (the calls run one after the
//! other, not nested). Spans stay in memory and are written out at exit.

use crate::json::{obj, Json};
use crate::stats::fastest;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span one rung up, if this is a decomposition rung.
    pub parent: Option<usize>,
}

/// In-memory span recorder of one traced workload run.
#[derive(Debug)]
pub struct Tracer {
    pub workload: String,
    origin: Instant,
    spans: Vec<Span>,
}

/// Self times of a rung tree, as shares of the root's duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Shares {
    /// Rung name → self share. Sums to 1 with `root_self`.
    pub rungs: BTreeMap<String, f64>,
    /// The root's self time: what no lower rung re-executed.
    pub root_self: f64,
    /// How far the children's estimates overshot their parents (0 when every
    /// rung fits inside the rung above it).
    pub clamped: f64,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer { workload: workload.to_string(), origin: Instant::now(), spans: Vec::new() }
    }

    /// Runs `f` inside a span called `name`. `parent` names the rung one
    /// layer up; the span links to the most recent span of that name.
    pub fn time<T>(&mut self, name: &str, parent: Option<&str>, f: impl FnOnce() -> T) -> T {
        let parent = parent.and_then(|p| self.spans.iter().rposition(|s| s.name == p));
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration in seconds of the fastest span called `name` (0 if none) —
    /// the same estimator the end-to-end host metrics use.
    pub fn fastest_s(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            fastest(&durations)
        }
    }

    /// Self-time shares of the rung tree under `root`, from the fastest
    /// duration of each rung name. A parent's self time is its duration minus its
    /// children's. Children are fitted top-down: if a rung's children add up
    /// to more than the rung (they are estimates taken in separate calls),
    /// they are scaled to fit and the excess is reported in `clamped`, so
    /// self times are never negative and the shares always sum to 1.
    pub fn shares(&self, root: &str) -> Shares {
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let kids = children.entry(self.spans[p].name.as_str()).or_default();
                if !kids.contains(&s.name.as_str()) {
                    kids.push(&s.name);
                }
            }
        }
        let total = self.fastest_s(root);
        let mut out = Shares { rungs: BTreeMap::new(), root_self: 1.0, clamped: 0.0 };
        if total <= 0.0 {
            return out;
        }
        let mut stack = vec![(root, total)];
        while let Some((name, budget)) = stack.pop() {
            let kids = children.get(name).map_or(&[][..], Vec::as_slice);
            let wanted: f64 = kids.iter().map(|k| self.fastest_s(k)).sum();
            let scale = if wanted > budget { budget / wanted } else { 1.0 };
            out.clamped += (wanted - wanted * scale) / total;
            let self_share = (budget - wanted * scale) / total;
            if name == root {
                out.root_self = self_share;
            } else {
                out.rungs.insert(name.to_string(), self_share);
            }
            stack.extend(kids.iter().map(|k| (*k, self.fastest_s(k) * scale)));
        }
        out
    }

    /// The span file: one object per span.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("workload", Json::Str(self.workload.clone())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&str, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new("test");
        for (name, dur, parent) in spans {
            t.spans.push(Span { name: (*name).into(), start_ns: 0, end_ns: *dur, parent: *parent });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer(&[
            ("root", 100, None),
            ("a", 60, Some(0)),
            ("b", 30, Some(1)),
            ("c", 10, Some(0)),
        ]);
        let s = t.shares("root");
        assert!((s.root_self - 0.30).abs() < 1e-12);
        assert!((s.rungs["a"] - 0.30).abs() < 1e-12);
        assert!((s.rungs["b"] - 0.30).abs() < 1e-12);
        assert!((s.rungs["c"] - 0.10).abs() < 1e-12);
        assert_eq!(s.clamped, 0.0);
    }

    #[test]
    fn overshooting_children_are_fitted_not_hidden() {
        let t = tracer(&[("root", 100, None), ("a", 90, Some(0)), ("b", 30, Some(0))]);
        let s = t.shares("root");
        assert!(s.root_self.abs() < 1e-12);
        assert!(s.rungs.values().all(|v| *v >= 0.0));
        assert!((s.rungs.values().sum::<f64>() + s.root_self - 1.0).abs() < 1e-12);
        assert!((s.clamped - 0.20).abs() < 1e-12);
    }

    #[test]
    fn time_links_to_latest_parent() {
        let mut t = Tracer::new("w");
        for _ in 0..3 {
            t.time("root", None, || std::hint::black_box(1));
            t.time("kid", Some("root"), || std::hint::black_box(2));
        }
        assert_eq!(t.spans()[5].parent, Some(4));
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.fastest_s("missing") == 0.0);
    }
}
