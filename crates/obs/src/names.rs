//! Canonical metric and category names used by the instrumented crates.
//!
//! Centralised so that producers (dram/core/host/runtime) and consumers
//! (profile report, OpenMetrics export, tests) agree on spelling.

/// Category for runtime-level operation spans (one BLAS call).
pub const CAT_OP: &str = "op";
/// Category for kernel-phase spans emitted by the executor/engine.
pub const CAT_KERNEL: &str = "kernel";
/// Category for per-batch spans emitted by the kernel engine.
pub const CAT_BATCH: &str = "batch";
/// Category for individual DRAM command instants.
pub const CAT_COMMAND: &str = "command";
/// Category for device mode-transition instants.
pub const CAT_MODE: &str = "mode";
/// Category for serving-layer request-lifecycle instants (admission,
/// dispatch, launch attempts, completion) and resilience-ladder actions.
pub const CAT_REQUEST: &str = "request";

/// Counter: column command hit an already-open row.
pub const CTRL_ROW_HIT: &str = "ctrl.row_hit";
/// Counter: column command to an idle (closed) bank.
pub const CTRL_ROW_MISS: &str = "ctrl.row_miss";
/// Counter: column command required closing a different open row.
pub const CTRL_ROW_CONFLICT: &str = "ctrl.row_conflict";
/// Counter: requests completed by the controller queue.
pub const CTRL_COMPLETED: &str = "ctrl.completed";
/// Counter: requests issued ahead of an older queued request (FR-FCFS).
pub const CTRL_REORDERED: &str = "ctrl.reordered";
/// Counter: raw (PIM-path) commands issued to the device.
pub const CTRL_RAW_COMMANDS: &str = "ctrl.raw_commands";
/// Histogram: queue depth observed at each enqueue.
pub const CTRL_QUEUE_DEPTH: &str = "ctrl.queue_depth";
/// Counter: cycles all banks spent with a row open (residency).
pub const BANK_OPEN_CYCLES: &str = "bank.open_cycles";
/// Counter: cycles all banks spent precharged/idle (residency).
pub const BANK_CLOSED_CYCLES: &str = "bank.closed_cycles";

/// Counter: operating-mode transitions (SB <-> AB <-> AB-PIM).
pub const DEV_MODE_TRANSITIONS: &str = "dev.mode_transitions";
/// Counter: CRF instruction words programmed.
pub const DEV_CRF_LOADS: &str = "dev.crf_loads";
/// Counter: PIM instructions triggered across units.
pub const DEV_PIM_TRIGGERS: &str = "dev.pim_triggers";
/// Counter: cycles PIM units spent executing triggered instructions.
pub const DEV_UNIT_BUSY_CYCLES: &str = "dev.unit_busy_cycles";
/// Counter: device-level faults injected (dropped/corrupted commands and
/// mode-machine glitches) by an installed fault plan.
pub const DEV_FAULTS_INJECTED: &str = "dev.faults_injected";

/// Counter: ECC scrub passes over resident operand blocks.
pub const RES_SCRUBS: &str = "res.scrubs";
/// Counter: single-bit errors corrected in place by the scrub path.
pub const RES_ECC_CORRECTED: &str = "res.ecc_corrected";
/// Counter: uncorrectable (multi-bit) errors detected by the scrub path.
pub const RES_ECC_DETECTED: &str = "res.ecc_detected";
/// Counter: blocks re-stored from the host-side golden copy.
pub const RES_BLOCKS_RESTORED: &str = "res.blocks_restored";
/// Counter: kernel launches retried after a detected wrong result.
pub const RES_RETRIES: &str = "res.retries";
/// Counter: channels quarantined (removed from the active layout).
pub const RES_QUARANTINED: &str = "res.quarantined_channels";
/// Counter: result blocks computed host-side after PIM recovery failed.
pub const RES_HOST_FALLBACK_BLOCKS: &str = "res.host_fallback_blocks";

/// Counter: requests submitted to the serving layer.
pub const SRV_SUBMITTED: &str = "srv.submitted";
/// Counter: requests admitted into a tenant queue.
pub const SRV_ADMITTED: &str = "srv.admitted";
/// Counter: requests shed because the tenant's bounded queue was full.
pub const SRV_SHED_QUEUE_FULL: &str = "srv.shed_queue_full";
/// Counter: requests shed because the estimated backlog exceeded the
/// admission controller's cycle budget.
pub const SRV_SHED_OVERLOADED: &str = "srv.shed_overloaded";
/// Counter: requests completed on PIM within their deadline.
pub const SRV_COMPLETED: &str = "srv.completed";
/// Counter: requests that missed their deadline (expired in queue, or
/// finished past it).
pub const SRV_DEADLINE_MISSED: &str = "srv.deadline_missed";
/// Counter: kernel launches cancelled by the sim-cycle watchdog.
pub const SRV_WATCHDOG_CANCELS: &str = "srv.watchdog_cancels";
/// Counter: circuit breakers tripped open on a channel group.
pub const SRV_BREAKER_TRIPS: &str = "srv.breaker_trips";
/// Counter: circuit breakers moved from open to half-open after cooldown.
pub const SRV_BREAKER_HALF_OPENS: &str = "srv.breaker_half_opens";
/// Counter: circuit breakers closed again after a successful probe.
pub const SRV_BREAKER_CLOSES: &str = "srv.breaker_closes";
/// Counter: operand re-layouts over a reduced channel-group set.
pub const SRV_RELAYOUTS: &str = "srv.relayouts";
/// Counter: requests computed host-side by the degradation policy.
pub const SRV_HOST_FALLBACKS: &str = "srv.host_fallbacks";
/// Histogram: cycles admitted requests waited in queue before dispatch.
pub const SRV_QUEUE_WAIT: &str = "srv.queue_wait_cycles";
/// Histogram: cycles dispatched requests spent in service (dispatch to
/// completion, on PIM or on the host fallback path).
pub const SRV_SERVICE: &str = "srv.service_cycles";
/// Histogram: cycles of deadline slack remaining at completion (0 for a
/// missed deadline).
pub const SRV_DEADLINE_SLACK: &str = "srv.deadline_slack_cycles";

/// Instant: a request was admitted into its tenant queue.
pub const REQ_ADMIT: &str = "req.admit";
/// Instant: the EDF dispatcher selected a request for execution.
pub const REQ_DISPATCH: &str = "req.dispatch";
/// Instant: a kernel launch attempt started on behalf of a request.
pub const REQ_LAUNCH: &str = "req.launch";
/// Instant: a request reached a terminal disposition (arg: the
/// disposition code, see `pim_runtime::serve`).
pub const REQ_DONE: &str = "req.done";
/// Instant: the resilience ladder retried a kernel launch.
pub const RES_RETRY_EVENT: &str = "res.retry";
/// Instant: the resilience ladder quarantined a channel and re-laid-out
/// operands over the surviving set (arg: quarantined channel count).
pub const RES_QUARANTINE_EVENT: &str = "res.quarantine";
/// Instant: the resilience ladder fell back to the host for result
/// blocks PIM could not produce (arg: block count).
pub const RES_FALLBACK_EVENT: &str = "res.host_fallback";

/// Counter: inter-stack collectives executed by the cluster layer (the
/// all-gather of a row-parallel GEMV's shards).
pub const CLUSTER_COLLECTIVES: &str = "cluster.collectives";
/// Counter: payload bytes moved across modelled inter-stack links.
pub const CLUSTER_LINK_BYTES: &str = "cluster.link_bytes";
/// Counter: sim-cycles the cluster clock advanced to pay for link
/// transfers.
pub const CLUSTER_LINK_CYCLES: &str = "cluster.link_cycles";
/// Counter: requests routed to a member stack by the cluster scheduler.
pub const CLUSTER_ROUTED: &str = "cluster.routed";
/// Counter: requests served by a replica because the home stack's
/// breaker was open.
pub const CLUSTER_FAILOVERS: &str = "cluster.failovers";
/// Counter: stack-level circuit breakers tripped open.
pub const CLUSTER_STACK_TRIPS: &str = "cluster.stack_trips";
/// Counter: stack-level breakers moved open -> half-open after cooldown.
pub const CLUSTER_STACK_HALF_OPENS: &str = "cluster.stack_half_opens";
/// Counter: stack-level breakers closed again after a successful probe.
pub const CLUSTER_STACK_CLOSES: &str = "cluster.stack_closes";
/// Counter: recovered stacks re-admitted to routing after a verified
/// re-replication pass (weights re-laid-out, probe matched the oracle).
pub const CLUSTER_REJOINS: &str = "cluster.rejoins";

/// Counter: stacks that entered a crash window of the chaos schedule.
pub const CHAOS_CRASHES: &str = "chaos.crashes";
/// Counter: crashed stacks whose crash window closed (now awaiting a
/// verified rejoin before they serve again).
pub const CHAOS_RECOVERIES: &str = "chaos.recoveries";
/// Counter: stacks that entered a link-partition window (routed around,
/// but their arena survives — no re-replication needed on heal).
pub const CHAOS_PARTITIONS: &str = "chaos.partitions";
/// Counter: straggler detections — epochs in which a stack's observed
/// latency exceeded the hedge multiple of the cluster median.
pub const CHAOS_STRAGGLERS: &str = "chaos.stragglers";
/// Counter: hedged dispatches — queued-not-started requests re-issued on
/// a replica after their stack was flagged as a straggler.
pub const CHAOS_HEDGES: &str = "chaos.hedges";
/// Counter: hedged dispatches whose replica produced the kept result.
pub const CHAOS_HEDGE_WINS: &str = "chaos.hedge_wins";
/// Counter: rejoin probes issued to recovered stacks.
pub const CHAOS_REJOIN_PROBES: &str = "chaos.rejoin_probes";
/// Counter: rejoin probes that failed verification (the stack stays out
/// of routing and is re-probed next epoch).
pub const CHAOS_REJOIN_FAILURES: &str = "chaos.rejoin_failures";

/// Counter: cycles the host spent draining fences.
pub const ENGINE_FENCE_STALL_CYCLES: &str = "engine.fence_stall_cycles";
/// Counter: fences executed.
pub const ENGINE_FENCES: &str = "engine.fences";
/// Counter: command batches issued.
pub const ENGINE_BATCHES: &str = "engine.batches";
/// Histogram: commands per batch.
pub const ENGINE_BATCH_LEN: &str = "engine.batch_len";

/// Counter: kernel launches replayed from the launch-memoization cache
/// (no cycle-level simulation ran; see `docs/FASTPATH.md`).
pub const FASTPATH_HITS: &str = "fastpath.hits";
/// Counter: cacheable kernel launches that ran the full simulation (no
/// entry yet, entry-state mismatch, or a watchdog limit too tight to
/// prove the replay cancellation-free).
pub const FASTPATH_MISSES: &str = "fastpath.misses";
/// Counter: cold launches whose end state was recorded into the
/// launch-memoization cache.
pub const FASTPATH_INSERTIONS: &str = "fastpath.insertions";
/// Counter: launches the fast path refused to consider (event recorder
/// attached, channel not quiescent at entry, unresolvable write row, or
/// an uncacheable execution mode).
pub const FASTPATH_UNCACHEABLE: &str = "fastpath.uncacheable";
/// Counter: launches refused recording because an armed CRF program's
/// trigger schedule failed the static data-independence proof (the
/// `pim-verify` PV301 condition; see `docs/FASTPATH.md`).
pub const FASTPATH_UNPROVEN: &str = "fastpath.unproven";
/// Counter: channels launches ran through the cycle-level simulation —
/// every channel of a launch that was not served from the cache, one per
/// channel class of a recorded miss (see `docs/FASTPATH.md`, "Channel
/// classes").
pub const FASTPATH_CHANNELS_SIMULATED: &str = "fastpath.channels_simulated";
/// Counter: channels launches served by replay instead of simulating
/// them — every channel of a hit, the followers of a recorded miss.
pub const FASTPATH_CHANNELS_REPLAYED: &str = "fastpath.channels_replayed";

/// Bucket upper bounds for queue-depth style histograms.
pub const QUEUE_DEPTH_BUCKETS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64];
/// Bucket upper bounds for batch-length histograms (fences every 8).
pub const BATCH_LEN_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32];
/// Bucket upper bounds for cycle-latency histograms (queue wait, service
/// time, deadline slack): powers of four from 256 cycles to ~4M.
pub const LATENCY_BUCKETS: &[u64] = &[256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304];
