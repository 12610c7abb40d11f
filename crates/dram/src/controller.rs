//! A JEDEC-compliant, per-pseudo-channel memory controller.
//!
//! The paper's central constraint is that PIM-HBM is driven by *unmodified*
//! DRAM controllers. Two controller behaviours matter for the results:
//!
//! * **FR-FCFS reordering** (Rixner et al. [47], cited in Section IV-C):
//!   "modern DRAM controllers often re-order DRAM commands to maximize
//!   performance". This is what breaks naive PIM instruction ordering
//!   (Fig. 5) and what address-aligned mode tolerates. The
//!   [`SchedulingPolicy::FrFcfs`] policy implements it: ready row hits are
//!   served before older row misses.
//! * **In-order issue** ([`SchedulingPolicy::InOrder`]): the paper's
//!   §VII-B notes "a processor manufacturer confirms that the order of DRAM
//!   commands can be preserved only in PIM mode at negligible cost"; the
//!   no-fence experiment uses this policy.
//!
//! The controller runs an open-page policy: rows stay open until a
//! conflicting request needs the bank (or refresh closes everything).

use crate::channel::{CommandSink, NoData, PseudoChannel};
use crate::command::{BankAddr, Command};
use crate::mapping::AddressMapping;
use crate::request::{CompletedRequest, Request, RequestKind};
use crate::stats::ControllerStats;
use crate::timing::{Cycle, TimingParams};
use pim_obs::{names, Event, Recorder, Scope};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// First-ready, first-come-first-served: row hits bypass older misses.
    /// The default behaviour of commodity controllers.
    FrFcfs,
    /// Strict arrival order. Models the PIM-mode ordering guarantee used by
    /// the paper's no-fence evaluation.
    InOrder,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Rows stay open until a conflicting request (or refresh) closes them
    /// — rewards locality, the policy the paper's host assumes (row hits
    /// are what FR-FCFS reorders for).
    Open,
    /// Every column command is followed by an immediate precharge when no
    /// queued request hits the open row — rewards random traffic by hiding
    /// tRP.
    Closed,
}

/// Configuration of a [`MemoryController`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// DRAM timing parameters for the attached channel.
    pub timing: TimingParams,
    /// Physical address mapping.
    pub mapping: AddressMapping,
    /// Which pseudo channel of the mapping this controller serves.
    pub pch_id: usize,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Whether periodic refresh is injected (tREFI/tRFC).
    pub refresh_enabled: bool,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            timing: TimingParams::hbm2(),
            mapping: AddressMapping::default(),
            pch_id: 0,
            policy: SchedulingPolicy::FrFcfs,
            page_policy: PagePolicy::Open,
            refresh_enabled: true,
        }
    }
}

/// Per-request progress through the command sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextStep {
    /// Bank has a different row open; must precharge first.
    Pre,
    /// Bank closed; must activate.
    Act,
    /// Row open; column command can go.
    Col,
}

#[derive(Debug)]
struct PendingRequest {
    req: Request,
    bank: BankAddr,
    row: u32,
    /// The RD or WR that serves the request, built once at enqueue: a WR
    /// owns its block, and ranking must not copy it per candidate.
    column: Command,
    /// Set once this request has caused a precharge (row conflict), for
    /// stats attribution.
    conflicted: bool,
    /// Set once this request has caused an activate (row miss).
    missed: bool,
}

/// A memory controller bound to one command sink (a plain
/// [`PseudoChannel`] or a PIM device wrapping one).
///
/// Requests are [`MemoryController::enqueue`]d and drained by
/// [`MemoryController::run_to_completion`] (or stepped by
/// [`MemoryController::drain_one`]); completions are returned in completion
/// order, which under [`SchedulingPolicy::FrFcfs`] may differ from arrival
/// order.
#[derive(Debug)]
pub struct MemoryController<S: CommandSink = PseudoChannel> {
    config: ControllerConfig,
    sink: S,
    queue: VecDeque<PendingRequest>,
    now: Cycle,
    next_seq: u64,
    next_refresh: Cycle,
    stats: ControllerStats,
    /// Observability hook; `None` (the default) costs one pointer test per
    /// instrumented site.
    recorder: Option<Recorder>,
    /// System-level channel index reported in event scopes. The controller
    /// itself does not know which channel of the system it serves, so this
    /// is set alongside the recorder.
    channel_id: u16,
    /// Last row each bank activated on the raw (PIM) path, for row-outcome
    /// classification of command streams that bypass the request queue.
    raw_last_row: [Option<u32>; crate::BANKS_PER_PCH],
}

impl MemoryController<PseudoChannel> {
    /// Creates a controller driving a fresh HBM2 pseudo channel.
    pub fn new(config: ControllerConfig) -> MemoryController<PseudoChannel> {
        let channel = PseudoChannel::new(config.timing.clone());
        MemoryController::with_sink(config, channel)
    }
}

impl<S: CommandSink> MemoryController<S> {
    /// Creates a controller driving an existing sink (e.g. a PIM device).
    pub fn with_sink(config: ControllerConfig, sink: S) -> MemoryController<S> {
        let next_refresh = config.timing.t_refi;
        MemoryController {
            config,
            sink,
            queue: VecDeque::new(),
            now: 0,
            next_seq: 0,
            next_refresh,
            stats: ControllerStats::default(),
            recorder: None,
            channel_id: 0,
            raw_last_row: [None; crate::BANKS_PER_PCH],
        }
    }

    /// Attaches an observability recorder. `channel_id` is the system-level
    /// channel index stamped into event scopes (a standalone controller is
    /// channel 0).
    pub fn set_recorder(&mut self, recorder: Recorder, channel_id: u16) {
        self.recorder = Some(recorder);
        self.channel_id = channel_id;
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// The system-level channel index stamped into event scopes (0 unless
    /// set by [`MemoryController::set_recorder`]).
    pub fn channel_id(&self) -> u16 {
        self.channel_id
    }

    /// The sink (channel / PIM device) behind this controller.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink, for test setup and PIM device
    /// configuration reads.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Current simulation time in bus cycles.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Number of queued, unfinished requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request at the current cycle; returns its sequence number.
    pub fn enqueue(&mut self, mut req: Request) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        req.seq = seq;
        let d = self.config.mapping.decode(req.addr);
        assert_eq!(
            d.pch, self.config.pch_id,
            "request addr 0x{:X} routes to pCH {} but this controller serves pCH {}",
            req.addr, d.pch, self.config.pch_id
        );
        assert_eq!(d.offset, 0, "requests must address the start of a 32-byte block");
        let (bank, col) = (d.bank, d.col);
        let column = match req.kind {
            RequestKind::Read => Command::Rd { bank, col },
            RequestKind::Write => {
                let data = req.data.take().expect("write request without data");
                Command::Wr { bank, col, data: data.into() }
            }
        };
        self.queue.push_back(PendingRequest {
            req,
            bank,
            row: d.row,
            column,
            conflicted: false,
            missed: false,
        });
        if let Some(r) = &self.recorder {
            r.observe(names::CTRL_QUEUE_DEPTH, names::QUEUE_DEPTH_BUCKETS, self.queue.len() as u64);
        }
        seq
    }

    /// Emits a command instant event (no-op without a recorder).
    fn emit_command(&self, cmd: &Command, at: Cycle) {
        let Some(r) = &self.recorder else { return };
        let scope = match cmd.bank() {
            Some(bank) => Scope::bank(self.channel_id, bank.flat_index() as u16),
            None => Scope::channel(self.channel_id),
        };
        let ev = Event::instant(at, cmd.mnemonic(), names::CAT_COMMAND, scope);
        let ev = match cmd {
            Command::Act { row, .. } => ev.with_arg("row", *row as u64),
            Command::Rd { col, .. } | Command::Wr { col, .. } => ev.with_arg("col", *col as u64),
            _ => ev,
        };
        r.emit(ev);
    }

    /// What the given pending request needs next.
    fn next_step(&self, p: &PendingRequest) -> NextStep {
        match self.sink.open_row(p.bank) {
            None => NextStep::Act,
            Some(r) if r == p.row => NextStep::Col,
            Some(_) => NextStep::Pre,
        }
    }

    /// Whether any queued request is a row hit on `bank`'s open row — used
    /// to defer conflict precharges until hits drain (FR-FCFS).
    fn bank_has_pending_hit(&self, bank: BankAddr) -> bool {
        let open = self.sink.open_row(bank);
        match open {
            None => false,
            Some(row) => self.queue.iter().any(|p| p.bank == bank && p.row == row),
        }
    }

    fn command_for(p: &PendingRequest, step: NextStep) -> Cow<'_, Command> {
        match step {
            NextStep::Pre => Cow::Owned(Command::Pre { bank: p.bank }),
            NextStep::Act => Cow::Owned(Command::Act { bank: p.bank, row: p.row }),
            NextStep::Col => Cow::Borrowed(&p.column),
        }
    }

    /// Performs a refresh if one is due: closes all rows and issues REF.
    fn maybe_refresh(&mut self) {
        if !self.config.refresh_enabled || self.now < self.next_refresh {
            return;
        }
        let pre = Command::PreAll;
        let at = self.sink.issue(&pre, self.now, &mut NoData).expect("PREA for refresh").issued_at;
        self.emit_command(&pre, at);
        let rf = Command::Ref;
        let at = self.sink.issue(&rf, at, &mut NoData).expect("REF failed").issued_at;
        self.emit_command(&rf, at);
        self.now = at;
        self.next_refresh += self.config.timing.t_refi;
    }

    /// Issues commands until one queued request's column command completes;
    /// returns it, or `None` if the queue is empty.
    pub fn drain_one(&mut self) -> Option<CompletedRequest> {
        loop {
            self.maybe_refresh();
            let idx = self.choose_request()?;
            let step = self.next_step(&self.queue[idx]);
            let cmd = Self::command_for(&self.queue[idx], step);
            let mut data = None;
            let outcome = self
                .sink
                .issue(&cmd, self.now, &mut data)
                .unwrap_or_else(|e| panic!("scheduler issued illegal command {cmd}: {e}"));
            self.now = outcome.issued_at;
            self.emit_command(&cmd, self.now);
            match step {
                NextStep::Pre => {
                    self.queue[idx].conflicted = true;
                }
                NextStep::Act => {
                    self.queue[idx].missed = true;
                }
                NextStep::Col => {
                    let p = self.queue.remove(idx).expect("index in range");
                    // Closed-page policy: precharge immediately unless a
                    // queued request still hits this row.
                    if self.config.page_policy == PagePolicy::Closed
                        && !self.bank_has_pending_hit(p.bank)
                        && self.sink.open_row(p.bank).is_some()
                    {
                        self.sink
                            .issue(&Command::Pre { bank: p.bank }, self.now, &mut NoData)
                            .expect("auto-precharge");
                    }
                    if p.conflicted {
                        self.stats.row_conflicts += 1;
                    } else if p.missed {
                        self.stats.row_misses += 1;
                    } else {
                        self.stats.row_hits += 1;
                    }
                    let reordered = self.queue.iter().any(|q| q.req.seq < p.req.seq);
                    if reordered {
                        self.stats.reordered += 1;
                    }
                    let completed_at = outcome.data_at.expect("column command carries data time");
                    self.stats.completed += 1;
                    self.stats.last_completion = completed_at;
                    debug_assert_eq!(
                        self.stats.total_requests(),
                        self.stats.completed,
                        "every completed request must be classified as exactly one of \
                         hit/miss/conflict"
                    );
                    if let Some(r) = &self.recorder {
                        r.add(
                            if p.conflicted {
                                names::CTRL_ROW_CONFLICT
                            } else if p.missed {
                                names::CTRL_ROW_MISS
                            } else {
                                names::CTRL_ROW_HIT
                            },
                            1,
                        );
                        r.add(names::CTRL_COMPLETED, 1);
                        if reordered {
                            r.add(names::CTRL_REORDERED, 1);
                        }
                    }
                    return Some(CompletedRequest {
                        seq: p.req.seq,
                        addr: p.req.addr,
                        kind: p.req.kind,
                        data,
                        issued_at: outcome.issued_at,
                        completed_at,
                    });
                }
            }
        }
    }

    /// Picks the queue index to advance next, per policy.
    fn choose_request(&self) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        match self.config.policy {
            SchedulingPolicy::InOrder => Some(0),
            SchedulingPolicy::FrFcfs => {
                // Candidate = (earliest issue cycle, class, seq, idx); lower
                // wins. Class: column=0 beats act=1 beats pre=2 on ties, so
                // ready row hits are served before row misses (FR-FCFS).
                let mut best: Option<(Cycle, u8, u64, usize)> = None;
                for (idx, p) in self.queue.iter().enumerate() {
                    let step = self.next_step(p);
                    // Defer a conflict precharge while other requests still
                    // hit the open row.
                    if step == NextStep::Pre && self.bank_has_pending_hit(p.bank) {
                        continue;
                    }
                    let class = match step {
                        NextStep::Col => 0u8,
                        NextStep::Act => 1,
                        NextStep::Pre => 2,
                    };
                    let cmd = Self::command_for(p, step);
                    let at = self.sink.earliest_issue(&cmd, self.now);
                    let key = (at, class, p.req.seq, idx);
                    if best.is_none_or(|b| key < (b.0, b.1, b.2, b.3)) {
                        best = Some(key);
                    }
                }
                // All candidates deferred (only conflict-precharges remain
                // behind hits) cannot happen: a hit candidate always exists
                // in that case and is never deferred.
                best.map(|(_, _, _, idx)| idx)
            }
        }
    }

    /// Drains the whole queue; returns completions in completion order.
    pub fn run_to_completion(&mut self) -> Vec<CompletedRequest> {
        let mut done = Vec::with_capacity(self.queue.len());
        while let Some(c) = self.drain_one() {
            done.push(c);
        }
        done
    }

    /// Issues a raw command stream in order (used by the PIM executor for
    /// mode transitions and CRF programming, which bypass the request
    /// queue). Returns the issue cycle of the last command.
    ///
    /// # Panics
    ///
    /// Panics if any command is illegal for the current bank state — raw
    /// streams are programmer-controlled, so an illegal command is a bug in
    /// the PIM kernel, which is exactly what the paper's deterministic
    /// execution model lets the host reason about.
    pub fn issue_raw(&mut self, commands: &[Command]) -> Cycle {
        assert!(self.queue.is_empty(), "raw issue with queued requests would interleave");
        for cmd in commands {
            let out = self.sink.issue(cmd, self.now, &mut NoData);
            self.now = out.unwrap_or_else(|e| panic!("raw command {cmd} illegal: {e}")).issued_at;
            if self.recorder.is_some() {
                self.emit_command(cmd, self.now);
                self.classify_raw(cmd);
            }
        }
        self.now
    }

    /// Row-outcome accounting for the raw (PIM) path, which bypasses the
    /// request queue and so never reaches the [`ControllerStats`] update in
    /// [`MemoryController::drain_one`]. An ACT re-opening a bank on a
    /// different row than last time is a conflict-shaped access (the
    /// previous row's locality was lost); a first-time or same-row ACT is a
    /// miss; every column command lands on the open row by construction and
    /// counts as a hit. Metrics-only: `ControllerStats` stays a
    /// queued-request measure.
    fn classify_raw(&mut self, cmd: &Command) {
        let r = self.recorder.as_ref().expect("caller checked recorder");
        r.add(names::CTRL_RAW_COMMANDS, 1);
        match cmd {
            Command::Act { bank, row } => {
                let slot = &mut self.raw_last_row[bank.flat_index()];
                match *slot {
                    Some(prev) if prev != *row => r.add(names::CTRL_ROW_CONFLICT, 1),
                    _ => r.add(names::CTRL_ROW_MISS, 1),
                }
                *slot = Some(*row);
            }
            Command::Rd { .. } | Command::Wr { .. } => r.add(names::CTRL_ROW_HIT, 1),
            Command::Pre { .. } | Command::PreAll | Command::Ref => {}
        }
    }

    /// Advances local time without issuing commands (models host-side gaps
    /// such as kernel-launch overhead between PIM kernels).
    pub fn advance_to(&mut self, cycle: Cycle) {
        self.now = self.now.max(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: SchedulingPolicy) -> ControllerConfig {
        ControllerConfig { policy, refresh_enabled: false, ..Default::default() }
    }

    use super::PagePolicy;

    /// Two addresses in the same bank, different rows; one in a different
    /// bank group.
    fn addr_at(row: u32, bank: BankAddr, col: u32) -> u64 {
        AddressMapping::default().block_addr(0, bank, row, col)
    }

    #[test]
    fn read_after_write_returns_data() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::FrFcfs));
        let a = addr_at(3, BankAddr::new(0, 0), 4);
        c.enqueue(Request::write(a, [0x42; 32]));
        c.enqueue(Request::read(a));
        let done = c.run_to_completion();
        assert_eq!(done.len(), 2);
        let rd = done.iter().find(|d| d.kind == RequestKind::Read).unwrap();
        assert_eq!(rd.data, Some([0x42; 32]));
    }

    #[test]
    fn frfcfs_reorders_row_hits_ahead_of_misses() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::FrFcfs));
        let bank = BankAddr::new(0, 0);
        // Open row 0 with a first read.
        c.enqueue(Request::read(addr_at(0, bank, 0)));
        let _ = c.drain_one().unwrap();
        // Now a row-miss request (row 1) arrives before a row-hit (row 0).
        c.enqueue(Request::read(addr_at(1, bank, 0))); // seq 1, conflict
        c.enqueue(Request::read(addr_at(0, bank, 1))); // seq 2, hit
        let done = c.run_to_completion();
        assert_eq!(done[0].seq, 2, "row hit must be served first");
        assert_eq!(done[1].seq, 1);
        assert!(c.stats().reordered >= 1);
        let s = c.stats();
        // First read was a miss (opened row 0); seq 2 hit it; seq 1 conflicted.
        assert_eq!((s.row_misses, s.row_hits, s.row_conflicts), (1, 1, 1));
    }

    #[test]
    fn inorder_preserves_arrival_order() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::InOrder));
        let bank = BankAddr::new(0, 0);
        c.enqueue(Request::read(addr_at(1, bank, 0)));
        c.enqueue(Request::read(addr_at(0, bank, 1)));
        c.enqueue(Request::read(addr_at(1, bank, 2)));
        let done = c.run_to_completion();
        let seqs: Vec<u64> = done.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(c.stats().reordered, 0);
    }

    #[test]
    fn row_hit_miss_conflict_accounting() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::InOrder));
        let bank = BankAddr::new(1, 1);
        c.enqueue(Request::read(addr_at(0, bank, 0))); // miss (opens row 0)
        c.enqueue(Request::read(addr_at(0, bank, 1))); // hit
        c.enqueue(Request::read(addr_at(2, bank, 0))); // conflict (closes 0)
        c.run_to_completion();
        let s = c.stats();
        assert_eq!((s.row_misses, s.row_hits, s.row_conflicts), (1, 1, 1));
    }

    #[test]
    fn bank_level_parallelism_overlaps_activates() {
        // Reads to different bank groups should take far less than the
        // serialized time: ACTs overlap under tRRD_S.
        let t = TimingParams::hbm2();
        let mut c = MemoryController::new(cfg(SchedulingPolicy::FrFcfs));
        for bg in 0..4u8 {
            c.enqueue(Request::read(addr_at(0, BankAddr::new(bg, 0), 0)));
        }
        let done = c.run_to_completion();
        let last = done.iter().map(|d| d.completed_at).max().unwrap();
        // Serialized would be ~4 × (tRCD + tCL + tBL); overlapped should be
        // roughly tRRD_S*3 + tRCD + tCL + tBL plus small slack.
        let serialized = 4 * (t.t_rcd + t.t_cl + t.t_bl);
        assert!(
            last < serialized,
            "last completion {last} not overlapped (serialized {serialized})"
        );
    }

    #[test]
    fn refresh_is_injected_when_enabled() {
        let mut c =
            MemoryController::new(ControllerConfig { refresh_enabled: true, ..Default::default() });
        // Jump past tREFI and touch the channel.
        let t = c.config.timing.clone();
        c.advance_to(t.t_refi + 1);
        c.enqueue(Request::read(addr_at(0, BankAddr::new(0, 0), 0)));
        c.run_to_completion();
        assert_eq!(c.sink().stats().refreshes, 1);
    }

    #[test]
    fn raw_issue_preserves_program_order() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::FrFcfs));
        let bank = BankAddr::new(0, 0);
        let end = c.issue_raw(&[
            Command::Act { bank, row: 5 },
            Command::Wr { bank, col: 0, data: [9; 32].into() },
            Command::Rd { bank, col: 0 },
            Command::Pre { bank },
        ]);
        assert!(end > 0);
        assert_eq!(c.sink().stats().reads, 1);
        assert!(c.sink().all_banks_closed());
    }

    #[test]
    fn closed_page_wins_on_sparse_random_rows() {
        // One request at a time to a fresh row, with idle gaps between
        // arrivals: closed-page hides tRP in the gap, open-page pays the
        // conflict (PRE then ACT) on the critical path of every request.
        let run = |page_policy: PagePolicy| {
            let mut c = MemoryController::new(ControllerConfig {
                policy: SchedulingPolicy::InOrder,
                page_policy,
                refresh_enabled: false,
                ..Default::default()
            });
            let bank = BankAddr::new(0, 0);
            let mut last = 0;
            for i in 0..16u32 {
                c.enqueue(Request::read(addr_at(i % 7, bank, 0)));
                last = c.run_to_completion().last().unwrap().completed_at;
                // Idle gap before the next arrival (long enough for the
                // auto-precharge to complete in the background).
                let gap_end = c.now() + 60;
                c.advance_to(gap_end);
            }
            last
        };
        let open = run(PagePolicy::Open);
        let closed = run(PagePolicy::Closed);
        assert!(closed < open, "closed {closed} should beat open {open} on sparse random rows");
    }

    #[test]
    fn open_page_wins_on_streaming_rows() {
        let run = |page_policy: PagePolicy| {
            let mut c = MemoryController::new(ControllerConfig {
                policy: SchedulingPolicy::InOrder,
                page_policy,
                refresh_enabled: false,
                ..Default::default()
            });
            let bank = BankAddr::new(0, 0);
            for col in 0..16u32 {
                c.enqueue(Request::read(addr_at(0, bank, col)));
            }
            let done = c.run_to_completion();
            (done.last().unwrap().completed_at, c.stats().row_hits)
        };
        let (open, open_hits) = run(PagePolicy::Open);
        let (closed, _) = run(PagePolicy::Closed);
        assert!(open <= closed, "open {open} should not lose to closed {closed} when streaming");
        assert_eq!(open_hits, 15, "every request after the first hits the open row");
    }

    #[test]
    fn closed_page_keeps_rows_open_for_pending_hits() {
        // Two same-row requests enqueued together: the auto-precharge must
        // not fire between them.
        let mut c = MemoryController::new(ControllerConfig {
            policy: SchedulingPolicy::InOrder,
            page_policy: PagePolicy::Closed,
            refresh_enabled: false,
            ..Default::default()
        });
        let bank = BankAddr::new(2, 0);
        c.enqueue(Request::read(addr_at(4, bank, 0)));
        c.enqueue(Request::read(addr_at(4, bank, 1)));
        c.run_to_completion();
        assert_eq!(c.stats().row_hits, 1, "second request hits before auto-precharge");
        // And after draining, the bank is closed.
        assert_eq!(c.sink().open_row(bank), None);
    }

    #[test]
    fn recorder_counters_match_stats() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::InOrder));
        c.set_recorder(Recorder::vec(), 0);
        let bank = BankAddr::new(1, 1);
        c.enqueue(Request::read(addr_at(0, bank, 0))); // miss
        c.enqueue(Request::read(addr_at(0, bank, 1))); // hit
        c.enqueue(Request::read(addr_at(2, bank, 0))); // conflict
        c.run_to_completion();
        let r = c.recorder().unwrap();
        let m = r.metrics().registry;
        assert_eq!(m.counter(names::CTRL_ROW_MISS), c.stats().row_misses);
        assert_eq!(m.counter(names::CTRL_ROW_HIT), c.stats().row_hits);
        assert_eq!(m.counter(names::CTRL_ROW_CONFLICT), c.stats().row_conflicts);
        assert_eq!(m.counter(names::CTRL_COMPLETED), 3);
        assert_eq!(m.histogram(names::CTRL_QUEUE_DEPTH).unwrap().count(), 3);
        let events = r.events().unwrap();
        assert!(events.iter().any(|e| e.name == "ACT"));
        assert!(events.iter().any(|e| e.name == "RD"));
        assert_eq!(c.stats().total_requests(), c.stats().completed);
    }

    #[test]
    fn raw_path_classifies_rows_into_metrics_only() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::FrFcfs));
        c.set_recorder(Recorder::vec(), 2);
        let bank = BankAddr::new(0, 0);
        c.issue_raw(&[
            Command::Act { bank, row: 5 },                      // miss (first open)
            Command::Wr { bank, col: 0, data: [1; 32].into() }, // hit
            Command::Rd { bank, col: 0 },                       // hit
            Command::Pre { bank },
            Command::Act { bank, row: 6 }, // conflict (row changed)
        ]);
        let m = c.recorder().unwrap().metrics().registry;
        assert_eq!(m.counter(names::CTRL_RAW_COMMANDS), 5);
        assert_eq!(m.counter(names::CTRL_ROW_MISS), 1);
        assert_eq!(m.counter(names::CTRL_ROW_HIT), 2);
        assert_eq!(m.counter(names::CTRL_ROW_CONFLICT), 1);
        // ControllerStats stays a queued-request measure.
        assert_eq!(c.stats().completed, 0);
        assert_eq!(c.stats().total_requests(), 0);
    }

    #[test]
    #[should_panic(expected = "routes to pCH")]
    fn wrong_channel_address_rejected() {
        let mut c = MemoryController::new(cfg(SchedulingPolicy::FrFcfs));
        // 256 bytes in: maps to pCH 1.
        c.enqueue(Request::read(256));
    }
}
