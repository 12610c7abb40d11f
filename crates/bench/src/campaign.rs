//! The campaign engine: everything the seeded campaigns
//! ([`crate::faults`], [`crate::serve`], [`crate::cluster`],
//! [`crate::chaos`]) share — the open-loop request trace, the exact-FP16
//! ADD oracle, the served-result audit, the row-parallel GEMV bit-identity
//! gate and report assembly. A campaign module keeps only what is its own:
//! the sweep grid, how its server is built, and which counters it reports.
//!
//! Everything here is a pure function of its arguments: arrivals and
//! operands are splitmix64 hashes of the seed, so a campaign's report is
//! byte-identical across execution backends.

use crate::json::{obj, Json};
use pim_fp16::F16;
use pim_host::ExecutionBackend;
use pim_obs::trace::mix;
use pim_obs::Quantiles;
use pim_runtime::{
    ClusterContext, PimBlas, PimContext, PimError, RequestOutcome, ServeOp, ServeRequest,
};

/// Shape of one seeded open-loop request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceShape {
    /// Master seed; arrivals, operands, and fault decisions derive from it.
    pub seed: u64,
    /// Elements per request.
    pub elements: usize,
    /// Requests in the trace.
    pub requests: usize,
    /// Tenants the trace round-robins over.
    pub tenants: u32,
    /// Deadline slack granted to each request, in cycles past its arrival.
    pub deadline_slack: u64,
}

impl TraceShape {
    /// The shape's fields as report-header counters.
    pub fn header(&self) -> impl Iterator<Item = (&'static str, Json)> {
        counters([
            ("seed", self.seed),
            ("elements", self.elements as u64),
            ("requests", self.requests as u64),
            ("tenants", u64::from(self.tenants)),
            ("deadline_slack", self.deadline_slack),
        ])
    }
}

/// Builds the seeded ADD trace for one sweep point: jittered gaps with
/// mean ≈ `interval` (uniform in `[interval/2, 3*interval/2)`), tenants
/// round-robin. Arrivals and deadlines saturate at `u64::MAX`, so the
/// trace is in arrival order with `deadline >= arrival` for every
/// `interval` a command line can express.
pub fn build_trace(shape: &TraceShape, interval: u64, point_salt: u64) -> Vec<ServeRequest> {
    let operand = |id: u64, salt: u64| -> Vec<f32> {
        let base = shape.seed ^ point_salt.rotate_left(17) ^ id.rotate_left(32) ^ salt;
        (0..shape.elements as u64).map(|i| (mix(base ^ i) % 509) as f32 * 0.125 - 31.75).collect()
    };
    let mut arrival = 0u64;
    (0..shape.requests as u64)
        .map(|id| {
            let jitter = mix(shape.seed ^ point_salt ^ id) % interval.max(1);
            arrival = arrival.saturating_add((interval / 2).saturating_add(jitter));
            ServeRequest {
                tenant: (id % u64::from(shape.tenants.max(1))) as u32,
                arrival,
                deadline: arrival.saturating_add(shape.deadline_slack),
                groups: None,
                budget: None,
                op: ServeOp::Add { x: operand(id, 0), y: operand(id, 0x5A5A) },
            }
        })
        .collect()
}

/// The exact FP16 sum — what the device computes bit for bit on a
/// fault-free run. Deliberately not `ServeOp::host_reference`: the audit
/// must not share code with the fallback path it audits.
pub fn add_oracle(x: &[f32], y: &[f32]) -> Vec<f32> {
    x.iter().zip(y).map(|(&a, &b)| (F16::from_f32(a) + F16::from_f32(b)).to_f32()).collect()
}

/// The per-request oracles of an ADD trace (kept aside because the
/// server consumes the trace).
pub fn oracles(trace: &[ServeRequest]) -> Vec<Vec<f32>> {
    trace
        .iter()
        .map(|r| match &r.op {
            ServeOp::Add { x, y } => add_oracle(x, y),
            ServeOp::Mul { .. } => unreachable!("campaign traces are ADD-only"),
        })
        .collect()
}

/// Elements of `got` whose bits differ from `want`.
pub fn wrong_elements(got: &[f32], want: &[f32]) -> u64 {
    got.iter().zip(want).filter(|(g, w)| g.to_bits() != w.to_bits()).count() as u64
}

/// What a served trace amounted to, audited against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Elements in results that reached a caller.
    pub served_elements: u64,
    /// Served elements that disagree with the exact FP16 oracle. Zero
    /// means every result that reached a caller was right.
    pub wrong_answers: u64,
    /// Median arrival-to-finish latency of served requests, in cycles.
    pub p50_cycles: u64,
    /// 99th-percentile latency of served requests, in cycles.
    pub p99_cycles: u64,
}

impl Audit {
    /// Audits `outcomes` (submission order) against their `oracles`;
    /// `latencies` are the report's `served_latencies()`.
    pub fn of(outcomes: &[RequestOutcome], oracles: &[Vec<f32>], latencies: Vec<u64>) -> Audit {
        let lat = Quantiles::from_samples(latencies);
        let mut audit = Audit {
            served_elements: 0,
            wrong_answers: 0,
            p50_cycles: lat.percentile(50),
            p99_cycles: lat.percentile(99),
        };
        for (o, oracle) in outcomes.iter().zip(oracles) {
            if let Some(result) = &o.result {
                audit.served_elements += result.len() as u64;
                audit.wrong_answers += wrong_elements(result, oracle);
            }
        }
        audit
    }

    /// The audit's report members (`wrong_answers`, `p50_cycles`,
    /// `p99_cycles`).
    pub fn members(&self) -> impl Iterator<Item = (&'static str, Json)> {
        counters([
            ("wrong_answers", self.wrong_answers),
            ("p50_cycles", self.p50_cycles),
            ("p99_cycles", self.p99_cycles),
        ])
    }

    /// Served elements per second of simulated time.
    pub fn goodput_eps(&self, seconds: f64) -> f64 {
        if seconds > 0.0 {
            self.served_elements as f64 / seconds
        } else {
            0.0
        }
    }
}

/// The row-parallel bit-identity gate: shards a seeded 192×96 GEMV over
/// `cluster` — whatever state the caller put it in (clean, a member
/// hard-failed, mid-outage) — and compares every result bit against the
/// single-stack [`PimBlas::gemv`] reference. Returns the verdict and the
/// number of shards the cluster ran.
///
/// # Errors
///
/// Propagates [`PimError`] from either GEMV.
pub fn gemv_gate(
    seed: u64,
    backend: ExecutionBackend,
    cluster: &mut ClusterContext,
) -> Result<(bool, usize), PimError> {
    let (n, k) = (192usize, 96usize);
    let val = |i: usize, salt: u64| {
        ((seed ^ salt).wrapping_mul(i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as f32
            * 0.25
            - 512.0
    };
    let w: Vec<f32> = (0..n * k).map(|i| val(i, 0x11)).collect();
    let x: Vec<f32> = (0..k).map(|i| val(i, 0x22)).collect();

    let mut reference_ctx = PimContext::small_system();
    reference_ctx.set_backend(backend);
    let (reference, _) = PimBlas::gemv(&mut reference_ctx, &w, n, k, &x)?;
    let (got, report) = cluster.gemv_row_parallel(&w, n, k, &x)?;
    let ok = got.len() == reference.len() && wrong_elements(&got, &reference) == 0;
    Ok((ok, report.shards))
}

/// Integer report fields as JSON members.
pub fn counters<const N: usize>(
    fields: [(&'static str, u64); N],
) -> impl Iterator<Item = (&'static str, Json)> {
    fields.into_iter().map(|(k, v)| (k, Json::Num(v as f64)))
}

/// Assembles a `pim-bench/<schema>` report document: the schema tag, the
/// campaign's header members, and its row array under `rows_key`.
/// Backend-independent by construction — no campaign puts the backend in
/// its header.
pub fn report(
    schema: &str,
    header: impl IntoIterator<Item = (&'static str, Json)>,
    rows_key: &'static str,
    rows: Vec<Json>,
) -> Json {
    obj(header
        .into_iter()
        .chain([("schema", Json::Str(format!("pim-bench/{schema}"))), (rows_key, Json::Arr(rows))]))
}

/// Test support: `run` must produce the same value under the sequential
/// backend and 2 / 4 worker threads; returns the sequential one.
#[cfg(test)]
pub(crate) fn assert_backend_invariant<T: PartialEq + std::fmt::Debug>(
    run: impl Fn(ExecutionBackend) -> T,
) -> T {
    let seq = run(ExecutionBackend::Sequential);
    assert_eq!(seq, run(ExecutionBackend::Threads(2)), "Threads(2) diverged");
    assert_eq!(seq, run(ExecutionBackend::Threads(4)), "Threads(4) diverged");
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TraceShape {
        TraceShape { seed: 9, elements: 32, requests: 12, tenants: 3, deadline_slack: 4_000 }
    }

    #[test]
    fn trace_is_seeded_ordered_and_round_robins_tenants() {
        let trace = build_trace(&shape(), 1_000, 7);
        assert_eq!(trace, build_trace(&shape(), 1_000, 7));
        assert_ne!(trace, build_trace(&shape(), 1_000, 8));
        assert!(trace.windows(2).all(|w| w[0].arrival < w[1].arrival));
        for (id, r) in trace.iter().enumerate() {
            assert_eq!(r.tenant, id as u32 % 3);
            assert_eq!(r.deadline, r.arrival + 4_000);
        }
        assert_eq!(oracles(&trace)[0], trace[0].op.host_reference());
    }

    #[test]
    fn extreme_intervals_saturate_instead_of_wrapping() {
        // Regression: `arrival += gap` and `arrival + deadline_slack` were
        // unchecked, so a CLI-supplied interval near u64::MAX wrapped in
        // release (non-monotonic arrivals) and aborted under overflow
        // checks.
        for interval in [u64::MAX, u64::MAX / 2 + 1, 1 << 63] {
            let trace = build_trace(&shape(), interval, 0);
            assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival), "{interval}");
            assert!(trace.iter().all(|r| r.deadline >= r.arrival), "{interval}");
        }
    }

    #[test]
    fn audit_counts_only_served_results() {
        let outcome = |id, result: Option<Vec<f32>>| RequestOutcome {
            id,
            tenant: 0,
            arrival: 0,
            started: None,
            finished: 10,
            disposition: pim_runtime::Disposition::Completed,
            result,
            trace: pim_obs::TraceId(0),
        };
        let outcomes = [outcome(0, Some(vec![1.0, 2.0])), outcome(1, None)];
        let oracles = [vec![1.0, 2.5], vec![0.0]];
        let audit = Audit::of(&outcomes, &oracles, vec![10]);
        assert_eq!((audit.served_elements, audit.wrong_answers), (2, 1));
        assert_eq!(audit.p50_cycles, 10);
        assert_eq!(audit.goodput_eps(0.0), 0.0);
        assert_eq!(audit.goodput_eps(2.0), 1.0);
    }
}
