//! Multi-stack scale-out: sharded PIM-BLAS over a cluster of stacks.
//!
//! The paper's system is one HBM-PIM stack per processor; the ROADMAP
//! north star is production serving, which shards model weights across
//! many stacks. [`ClusterContext`] composes N independent single-stack
//! [`PimContext`]s under one [`ClusterTopology`] and provides sharded
//! GEMV/LSTM with **deterministic collectives**: partials are merged in
//! fixed stack-index order, on the host, in the same f32 arithmetic the
//! single-stack path uses, so results are reproducible at any worker
//! count and backend.
//!
//! Two partitioning schemes are offered (see `docs/CLUSTER.md`):
//!
//! * **Row-parallel** ([`ClusterContext::gemv_row_parallel`]): output
//!   rows are sharded. Each output element's FP16 MAC sequence over `k`
//!   and its host-side register-order reduce are exactly the ones the
//!   single-stack [`crate::PimBlas::gemv`] performs, so the concatenated
//!   result is **bit-identical to the single-stack reference** at every
//!   healthy-stack count — the property the cluster determinism tests and
//!   the `pimcluster` campaign pin.
//! * **Tensor-parallel** ([`ClusterContext::gemv_tensor_parallel`]): the
//!   reduction dimension `k` is sharded and per-stack partials are summed
//!   host-side in stack-index order. Deterministic and backend-invariant,
//!   but **not** bit-equal to single-stack: splitting the accumulation
//!   changes FP16/f32 rounding. It exists for weights too tall to
//!   replicate, and its contract is "identical across backends and
//!   worker counts at a fixed stack count", not cross-stack-count
//!   equality.
//!
//! Host-side the member stacks are stepped serially in stack-index order
//! (determinism); in *simulated* time they run concurrently — every
//! sharded call starts from a cluster barrier and ends at the slowest
//! member's clock plus the modelled collective cost, so cluster wall
//! time is `max` over stacks, not the sum, and goodput scales with stack
//! count.

use crate::blas::{check_lstm_state, lstm_gates, KernelReport, PimBlas, PimError};
use crate::context::PimContext;
use crate::layout::shard_range;
use crate::plan::{check_input, check_weights};
use pim_dram::Cycle;
use pim_faults::ClusterFaultPlan;
use pim_host::{ClusterTopology, ExecutionBackend, LinkHealth};
use pim_obs::{names, Recorder};

/// Cumulative collective-traffic counters for one cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Collectives executed (reduce + all-gather).
    pub collectives: u64,
    /// Payload bytes moved across inter-stack links.
    pub link_bytes: u64,
    /// Sim-cycles the cluster clock advanced to pay for link transfers.
    pub link_cycles: u64,
}

/// What one sharded cluster call cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterReport {
    /// Cluster wall-clock cycles: barrier-to-barrier, i.e. the slowest
    /// member stack's compute plus the collective's link time.
    pub cycles: Cycle,
    /// The same in seconds at the configured bus frequency.
    pub seconds: f64,
    /// Member stacks that executed a (non-empty) shard.
    pub shards: usize,
    /// Per-stack kernel reports summed (commands, fences, triggers).
    pub kernel: KernelReport,
    /// Collective link traffic this call generated.
    pub link_bytes: u64,
    /// Sim-cycles this call's collective charged the cluster clock.
    pub link_cycles: u64,
}

/// N single-stack [`PimContext`]s behind one topology, with sharded BLAS
/// entry points and deterministic host-side collectives.
#[derive(Debug)]
pub struct ClusterContext {
    stacks: Vec<PimContext>,
    topology: ClusterTopology,
    stats: ClusterStats,
    recorder: Option<Recorder>,
    chaos: Option<ClusterFaultPlan>,
}

impl ClusterContext {
    /// A cluster of `stacks` paper-shaped single-stack systems (16 pseudo
    /// channels each) joined by [`ClusterTopology::paper`]'s link model.
    pub fn new(stacks: usize) -> Result<ClusterContext, PimError> {
        ClusterContext::with_topology(ClusterTopology::paper(stacks))
    }

    /// A cluster over an explicit topology. Each member is built as an
    /// independent single-stack [`PimContext`]; the topology must
    /// therefore describe 16-channel stacks (the HBM2 stack shape every
    /// `PimContext` models).
    pub fn with_topology(topology: ClusterTopology) -> Result<ClusterContext, PimError> {
        topology.validate().map_err(|e| PimError::Internal { detail: e.to_string() })?;
        if topology.channels_per_stack != 16 {
            return Err(PimError::Internal {
                detail: format!(
                    "cluster members are single HBM2 stacks of 16 pseudo channels, \
                     topology asked for {}",
                    topology.channels_per_stack
                ),
            });
        }
        let stacks = (0..topology.stacks).map(|_| PimContext::small_system()).collect();
        Ok(ClusterContext {
            stacks,
            topology,
            stats: ClusterStats::default(),
            recorder: None,
            chaos: None,
        })
    }

    /// Installs a cluster chaos schedule: crash, stall, and link windows
    /// are evaluated against the cluster clock on every sharded call, so
    /// routing and collective pricing follow the schedule's phases.
    /// Unlike device-level fault installation this never touches the
    /// member stacks' fast paths — with a quiet plan (or none) behaviour
    /// is byte-identical to a chaos-free build.
    pub fn install_chaos(&mut self, plan: ClusterFaultPlan) {
        self.chaos = Some(plan);
    }

    /// The installed chaos schedule, if any.
    pub fn chaos(&self) -> Option<&ClusterFaultPlan> {
        self.chaos.as_ref()
    }

    /// The cluster's topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Number of member stacks.
    pub fn stack_count(&self) -> usize {
        self.stacks.len()
    }

    /// Cumulative collective-traffic counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Member stack `i`.
    pub fn stack(&self, i: usize) -> &PimContext {
        &self.stacks[i]
    }

    /// Mutable member stack `i`.
    pub fn stack_mut(&mut self, i: usize) -> &mut PimContext {
        &mut self.stacks[i]
    }

    /// All member stacks, mutably (the cluster serving layer drives them
    /// directly).
    pub fn stacks_mut(&mut self) -> &mut [PimContext] {
        &mut self.stacks
    }

    /// Selects the execution backend on every member stack. Like the
    /// single-stack knob this is scheduling only: sharded results are
    /// identical under every backend.
    pub fn set_backend(&mut self, backend: ExecutionBackend) {
        for s in &mut self.stacks {
            s.set_backend(backend);
        }
    }

    /// Attaches one shared recorder to every member stack, with disjoint
    /// per-stack channel-track bases, and to the cluster itself (the
    /// `cluster.*` collective counters).
    pub fn enable_profiling(&mut self, recorder: Recorder) {
        for (i, s) in self.stacks.iter_mut().enumerate() {
            let base = (i * self.topology.channels_per_stack) as u16;
            s.enable_profiling_with_base(recorder.clone(), base);
        }
        self.recorder = Some(recorder);
    }

    /// The cluster clock: the furthest-ahead member stack's clock.
    pub fn max_now(&self) -> Cycle {
        self.stacks.iter().map(|s| s.sys.max_now()).max().unwrap_or(0)
    }

    /// Cluster-wide barrier: advances every channel of every member stack
    /// to the cluster clock and returns it.
    pub fn barrier(&mut self) -> Cycle {
        let target = self.max_now();
        self.advance_all_to(target);
        target
    }

    /// Indices of stacks with no hard-failed channels, in stack-index
    /// order. Sharded calls run on exactly this set, so a dead stack is
    /// routed around deterministically.
    pub fn healthy_stacks(&self) -> Vec<usize> {
        (0..self.stacks.len())
            .filter(|&i| self.stacks[i].sys.hard_failed_channels().is_empty())
            .collect()
    }

    /// Indices of stacks that can participate in a sharded call *right
    /// now*: healthy ([`ClusterContext::healthy_stacks`]) and neither
    /// crashed nor link-partitioned under the installed chaos schedule at
    /// the current cluster clock. With no schedule this is exactly the
    /// healthy set.
    pub fn available_stacks(&self) -> Vec<usize> {
        let now = self.max_now();
        self.healthy_stacks()
            .into_iter()
            .filter(|&i| match &self.chaos {
                Some(plan) => !plan.stack_crashed(i, now) && !plan.link_partitioned(i, now),
                None => true,
            })
            .collect()
    }

    /// Advances the whole cluster to `target` (no-op for past cycles) —
    /// how campaigns step the cluster clock into a chaos phase without
    /// running work.
    pub fn advance_cluster_to(&mut self, target: Cycle) {
        let target = target.max(self.max_now());
        self.advance_all_to(target);
    }

    fn advance_all_to(&mut self, target: Cycle) {
        for s in &mut self.stacks {
            s.advance_to(target);
        }
    }

    /// Re-derives every link's health from the chaos schedule at the
    /// current cluster clock, so the topology prices collectives with the
    /// degradation in force *now*. No schedule means nominal links.
    fn refresh_link_health(&mut self) {
        let Some(plan) = &self.chaos else { return };
        let now = self.max_now();
        for s in 0..self.stacks.len() {
            let state = plan.link_state(s, now);
            self.topology.set_link_health(
                s,
                LinkHealth {
                    latency_milli: state.latency_milli,
                    bandwidth_div: state.bandwidth_div,
                },
            );
        }
    }

    /// Charges one collective of `payload_bytes` over `participants` to
    /// the cluster clock: barriers the cluster (compute time = slowest
    /// member) and advances everyone by the modelled link time of a ring
    /// walk over exactly the participating stacks, at their current link
    /// health. Returns the cycles charged.
    fn collective(&mut self, payload_bytes: u64, participants: &[usize]) -> Cycle {
        self.refresh_link_health();
        let cost = self.topology.collective_cycles_over(payload_bytes, participants);
        let target = self.max_now() + cost;
        self.advance_all_to(target);
        self.stats.collectives += 1;
        self.stats.link_bytes += payload_bytes;
        self.stats.link_cycles += cost;
        if let Some(r) = &self.recorder {
            r.add(names::CLUSTER_COLLECTIVES, 1);
            r.add(names::CLUSTER_LINK_BYTES, payload_bytes);
            r.add(names::CLUSTER_LINK_CYCLES, cost);
        }
        cost
    }

    /// Row-parallel GEMV: output rows are sharded over the healthy
    /// stacks; each stack computes its rows with the full `x`, and the
    /// shard results are concatenated in stack-index order (an all-gather
    /// of `n × 4` result bytes on the modelled link).
    ///
    /// Because each output element's device MAC sequence and host-side
    /// register-order reduce are untouched by the sharding, the result is
    /// bit-identical to single-stack [`PimBlas::gemv`] — at any healthy
    /// stack count, under any backend.
    pub fn gemv_row_parallel(
        &mut self,
        w: &[f32],
        n: usize,
        k: usize,
        x: &[f32],
    ) -> Result<(Vec<f32>, ClusterReport), PimError> {
        self.sharded_gemv(w, n, k, x, Partition::Rows)
    }

    /// Tensor-parallel GEMV: the reduction dimension `k` is sharded; each
    /// stack computes a full-length partial over its `k`-slice and the
    /// partials are reduced host-side in stack-index order (`n × 4` f32
    /// bytes per non-root shard on the modelled link).
    ///
    /// Deterministic and backend-invariant at a fixed stack count, but
    /// **not** bit-equal to the single-stack result: sharding `k` splits
    /// the FP16 accumulation into differently-rounded pieces.
    pub fn gemv_tensor_parallel(
        &mut self,
        w: &[f32],
        n: usize,
        k: usize,
        x: &[f32],
    ) -> Result<(Vec<f32>, ClusterReport), PimError> {
        self.sharded_gemv(w, n, k, x, Partition::Reduction)
    }

    fn sharded_gemv(
        &mut self,
        w: &[f32],
        n: usize,
        k: usize,
        x: &[f32],
        partition: Partition,
    ) -> Result<(Vec<f32>, ClusterReport), PimError> {
        check_weights(w.len(), n, k)?;
        check_input(x.len(), k)?;
        let healthy = self.available_stacks();
        if healthy.is_empty() {
            return Err(PimError::Internal { detail: "no available stacks in cluster".into() });
        }
        let start = self.barrier();
        let shard_dim = match partition {
            Partition::Rows => n,
            Partition::Reduction => k,
        };
        let mut kernel: Option<KernelReport> = None;
        let mut shards_run = 0usize;
        let mut participants: Vec<usize> = Vec::with_capacity(healthy.len());
        let mut out = match partition {
            Partition::Rows => Vec::with_capacity(n),
            Partition::Reduction => vec![0.0f32; n],
        };
        for (s, &stack) in healthy.iter().enumerate() {
            let (lo, hi) = shard_range(shard_dim, healthy.len(), s);
            if lo == hi {
                continue;
            }
            shards_run += 1;
            participants.push(stack);
            let stall_milli = match &self.chaos {
                Some(plan) => plan.stack_stall_milli(stack, start),
                None => 1000,
            };
            let ctx = &mut self.stacks[stack];
            // Mirror the serving layer: every shard starts from a clean
            // arena so placement is a pure function of the shard inputs.
            ctx.reset_memory();
            let (shard_out, report) = match partition {
                Partition::Rows => PimBlas::gemv(ctx, &w[lo * k..hi * k], hi - lo, k, x)?,
                Partition::Reduction => {
                    let cols = hi - lo;
                    let mut wk = Vec::with_capacity(n * cols);
                    for o in 0..n {
                        wk.extend_from_slice(&w[o * k + lo..o * k + hi]);
                    }
                    PimBlas::gemv(ctx, &wk, n, cols, &x[lo..hi])?
                }
            };
            match partition {
                Partition::Rows => out.extend_from_slice(&shard_out),
                // Fixed stack-index-order f32 reduce: deterministic.
                Partition::Reduction => {
                    for (acc, v) in out.iter_mut().zip(&shard_out) {
                        *acc += v;
                    }
                }
            }
            match &mut kernel {
                Some(kr) => kr.absorb(&report),
                None => kernel = Some(report),
            }
            // A straggler stack computes the same bits, just slower: its
            // shard's elapsed time is re-charged at the active stall factor.
            let ctx = &mut self.stacks[stack];
            charge_straggler(ctx, ctx.sys.max_now().saturating_sub(start), stall_milli);
        }
        debug_assert_eq!(out.len(), n);
        let payload = match partition {
            Partition::Rows => 4 * n as u64,
            Partition::Reduction => 4 * n as u64 * (shards_run.saturating_sub(1)) as u64,
        };
        let (link_bytes, link_cycles) = if shards_run > 1 {
            (payload, self.collective(payload, &participants))
        } else {
            (0, 0)
        };
        let end = self.barrier();
        let mut kernel = kernel.expect("at least one shard ran");
        kernel.elements = n;
        let cycles = end - start;
        let report = ClusterReport {
            cycles,
            seconds: self.stacks[0].sys.cycles_to_seconds(cycles),
            shards: shards_run,
            kernel,
            link_bytes,
            link_cycles,
        };
        Ok((out, report))
    }

    /// Row-parallel LSTM cell: both GEMVs shard their `4h` output rows
    /// over the healthy stacks ([`ClusterContext::gemv_row_parallel`]),
    /// the gathered gate pre-activations are combined with the same
    /// host-side f32 gate math as [`PimBlas::lstm_cell`], and the result
    /// is therefore bit-identical to the single-stack cell.
    #[allow(clippy::too_many_arguments)]
    pub fn lstm_cell_row_parallel(
        &mut self,
        w_x: &[f32],
        w_h: &[f32],
        bias: &[f32],
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> Result<(Vec<f32>, Vec<f32>, ClusterReport), PimError> {
        let h = check_lstm_state(bias, h_prev, c_prev)?;
        let (gx, mut report) = self.gemv_row_parallel(w_x, 4 * h, x.len(), x)?;
        let (gh, r2) = self.gemv_row_parallel(w_h, 4 * h, h, h_prev)?;
        report.cycles += r2.cycles;
        report.seconds += r2.seconds;
        report.shards = report.shards.max(r2.shards);
        report.link_bytes += r2.link_bytes;
        report.link_cycles += r2.link_cycles;
        report.kernel.absorb(&r2.kernel);
        let (h_next, c_next) = lstm_gates(&gx, &gh, bias, c_prev);
        report.kernel.elements = h;
        Ok((h_next, c_next, report))
    }
}

/// The straggler charge: re-charges the `busy` cycles a stack just spent
/// at its stall factor by advancing every channel of the stack a further
/// `busy·(stall_milli − 1000)/1000` cycles, and returns that extra (0 at
/// the nominal 1000). Timing-only — a straggler computes the same bits,
/// so determinism and bit-identity survive.
pub(crate) fn charge_straggler(ctx: &mut PimContext, busy: Cycle, stall_milli: u64) -> Cycle {
    let extra = busy.saturating_mul(stall_milli.saturating_sub(1000)) / 1000;
    if extra > 0 {
        ctx.advance_to(ctx.sys.max_now() + extra);
    }
    extra
}

/// Which GEMV dimension a sharded call partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partition {
    /// Shard output rows (`n`): bit-identical to single-stack.
    Rows,
    /// Shard the reduction dimension (`k`): deterministic, not bit-equal.
    Reduction,
}
