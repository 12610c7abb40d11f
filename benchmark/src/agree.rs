//! `pimbench agree a.json b.json`: do two result files of `run` agree within
//! the benchmark's own bounds? This is the tool the repeatability criterion
//! is checked with, and what later changes use for parent-vs-change tables.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) ÷ |a|`, signed so that positive is *worse*.
    pub worse_by: f64,
    /// The allowed difference: the metric's bound, or 0 where the two files
    /// must agree exactly.
    pub allowed: f64,
    pub ok: bool,
}

fn metric(file: &Json, workload: &str, name: &str) -> Option<f64> {
    file.get("workloads")?.get(workload)?.get("metrics")?.get(name)?.as_f64()
}

/// Compares every end-to-end metric of every workload of `a` against `b`.
/// Simulated metrics are pure functions of (code, seed): when both files
/// carry the same seed and scale they must be exactly equal. Host metrics —
/// and simulated ones across different seeds — may differ by the metric's
/// bound in either direction.
///
/// # Errors
///
/// A file that is not a `run` result, or a workload or metric present in one
/// file and missing from the other.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads =
        a.get("workloads").and_then(Json::as_obj).ok_or("first file has no `workloads`")?;
    let same_inputs = a.get("seed") == b.get("seed") && a.get("scale") == b.get("scale");
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in &END_TO_END {
            let va = metric(a, workload, m.name)
                .ok_or(format!("{workload}.{} missing in first file", m.name))?;
            let vb = metric(b, workload, m.name)
                .ok_or(format!("{workload}.{} missing in second file", m.name))?;
            let allowed = if m.exact && same_inputs { 0.0 } else { m.bound };
            let rel = if va == vb { 0.0 } else { (vb - va) / va.abs().max(f64::MIN_POSITIVE) };
            let worse_by = if m.better == Better::Higher { -rel } else { rel };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: va,
                b: vb,
                worse_by,
                allowed,
                ok: rel.abs() <= allowed,
            });
        }
    }
    if b.get("workloads").and_then(Json::as_obj).map(<[_]>::len) != Some(workloads.len()) {
        return Err("the two files cover different workloads".into());
    }
    Ok(rows)
}

/// One line per row, aligned.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>8}  {}\n",
        "workload", "metric", "a", "b", "worse by", "allowed", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<24} {:>16.6} {:>16.6} {:>+8.2}% {:>7.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.allowed * 100.0,
            if r.ok { "ok" } else { "DIFFERS" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn file(seed: f64, ops: f64, cycles: f64) -> Json {
        let metrics = obj(END_TO_END.iter().map(|m| {
            let v = match m.name {
                "host_ops_per_s" => ops,
                "sim_cycles_per_op" => cycles,
                _ => 1.0,
            };
            (m.name, Json::Num(v))
        }));
        obj([
            ("seed", Json::Num(seed)),
            ("scale", Json::Str("full".into())),
            ("workloads", obj([("w", obj([("metrics", metrics)]))])),
        ])
    }

    #[test]
    fn host_metrics_get_their_bound_and_sim_metrics_none() {
        let bound = END_TO_END.iter().find(|m| m.name == "host_ops_per_s").unwrap().bound;
        let base = file(1.0, 100.0, 5000.0);
        let inside = file(1.0, 100.0 * (1.0 - 0.5 * bound), 5000.0);
        assert!(compare(&base, &inside).unwrap().iter().all(|r| r.ok));
        let slow = compare(&base, &file(1.0, 100.0 * (1.0 - 1.2 * bound), 5000.0)).unwrap();
        let bad: Vec<_> = slow.iter().filter(|r| !r.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "host_ops_per_s");
        assert!(bad[0].worse_by > bound);
        // One cycle of drift at the same seed is a difference ...
        assert!(compare(&base, &file(1.0, 100.0, 5001.0)).unwrap().iter().any(|r| !r.ok));
        // ... but across seeds the simulated bound applies.
        assert!(compare(&base, &file(2.0, 100.0, 5001.0)).unwrap().iter().all(|r| r.ok));
    }

    #[test]
    fn missing_pieces_are_errors() {
        let base = file(1.0, 1.0, 1.0);
        assert!(compare(&base, &obj([("workloads", obj::<&str>([]))])).is_err());
        assert!(compare(&obj::<&str>([]), &base).is_err());
    }
}
