//! Symbolic execution of CRF programs.
//!
//! The kernel verifier ([`crate::verify_program`]) checks structural
//! rules instruction by instruction; this module goes further and
//! *executes* the program abstractly, over its full statically resolved
//! trigger schedule ([`pim_core::schedule::StaticSchedule`]):
//!
//! * Every 256-bit value is an expression over free leaves — the
//!   trigger write data, the initial bank cells, and the initial
//!   register contents — hash-consed into a [`SymTable`] arena.
//! * Triggers are given *canonical* addresses (trigger `t` fires at
//!   row `t / 32`, column `t % 32`), so every trigger's bank cell and
//!   write-data word is a distinct free variable. Two programs that
//!   compute equal expressions over these free leaves compute equal
//!   values under **any** concrete addressing and data.
//! * The walk records the exact effect footprint ([`Footprint`]) and
//!   emits the PV3xx diagnostics: PV301 when the control flow cannot be
//!   statically resolved (the schedule *is* the data-independence proof
//!   the DataTape fast path relies on), PV302 for reads of GRF entries
//!   no instruction wrote (index-exact, so AAM patterns that defeat
//!   PV015's conservative pass are caught), and PV303 for writes proven
//!   dead across the fully unrolled schedule (loop-aware, unlike
//!   PV016's straight-line pass).
//!
//! [`check_equivalence`] decides semantic equivalence of two programs by
//! canonicalizing both summaries into a shared arena (commutative
//! operands sorted — FP16 add/mul are commutative in this
//! implementation because NaNs are canonicalized) and comparing final
//! register values and bank-write maps. [`KernelSummary::eval`]
//! instantiates the leaves with concrete data, which the property tests
//! use to pin the symbolic model against the real [`pim_core::PimUnit`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pim_core::isa::{Instruction, Operand, OperandKind};
use pim_core::schedule::{ScheduleError, StaticSchedule, DEFAULT_SCHEDULE_BUDGET};
use pim_core::{LaneVec, PimConfig};

use crate::diag::{PvCode, Report, Site};
use crate::footprint::Footprint;

/// Index of an expression in a [`SymTable`].
type ExprId = u32;

/// One node of the expression DAG. Children always precede parents in
/// the arena, so a single forward pass visits the DAG in topological
/// order — evaluation and canonicalization never recurse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// The 256-bit write data of canonical trigger `t`.
    Wdata(u64),
    /// The initial contents of bank cell `(parity, row, col)`.
    BankCell(u8, u32, u32),
    /// The initial contents of GRF entry `(file, idx)`.
    InitGrf(u8, u8),
    /// The initial broadcast value of `SRF_M[idx]`.
    InitSrfM(u8),
    /// The initial broadcast value of `SRF_A[idx]`.
    InitSrfA(u8),
    /// Broadcast of lane `lane` of `of` (a scalar-file load + read).
    LaneSplat(ExprId, u8),
    /// Lane-wise ReLU.
    Relu(ExprId),
    /// Lane-wise FP16 addition.
    Add(ExprId, ExprId),
    /// Lane-wise FP16 multiplication.
    Mul(ExprId, ExprId),
    /// Lane-wise fused two-step `a * b + acc` (`LaneVec::mac`; *not*
    /// `Add(Mul(a, b), acc)` — the rounding differs).
    Mac(ExprId, ExprId, ExprId),
}

/// Hash-consed expression arena: structurally identical nodes share one
/// id, so equal subcomputations are stored (and compared) once.
#[derive(Debug, Clone, Default)]
struct SymTable {
    nodes: Vec<Node>,
    intern: HashMap<Node, ExprId>,
}

impl SymTable {
    fn new() -> SymTable {
        SymTable::default()
    }

    fn intern(&mut self, node: Node) -> ExprId {
        if let Some(&id) = self.intern.get(&node) {
            return id;
        }
        let id = self.nodes.len() as ExprId;
        self.nodes.push(node);
        self.intern.insert(node, id);
        id
    }
}

/// The symbolic summary of one program: its exact footprint, trigger
/// count, and the final value of every register and written bank cell
/// as expressions over the program's free inputs.
#[derive(Debug, Clone)]
pub struct KernelSummary {
    table: SymTable,
    total_triggers: u64,
    footprint: Footprint,
    /// Final GRF values; `None` = never written (still holds its
    /// initial contents).
    grf: [[Option<ExprId>; 8]; 2],
    /// Final SRF broadcast values per entry.
    srf_m: [ExprId; 8],
    srf_a: [ExprId; 8],
    /// Final value written to each bank cell.
    bank_writes: BTreeMap<(u8, u32, u32), ExprId>,
}

/// Concrete final state produced by [`KernelSummary::eval`].
#[derive(Clone, PartialEq)]
pub struct EvalOutput {
    /// Final GRF_A contents.
    pub grf_a: [LaneVec; 8],
    /// Final GRF_B contents.
    pub grf_b: [LaneVec; 8],
    /// Final SRF_M broadcast values.
    pub srf_m: [LaneVec; 8],
    /// Final SRF_A broadcast values.
    pub srf_a: [LaneVec; 8],
    /// Final value written to each bank cell `(parity, row, col)`.
    pub bank_writes: BTreeMap<(u8, u32, u32), LaneVec>,
}

impl KernelSummary {
    /// Total triggers the program consumes before halting.
    pub fn total_triggers(&self) -> u64 {
        self.total_triggers
    }

    /// The exact effect footprint under canonical trigger addressing.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// Evaluates the summary on concrete inputs: `wdata[t]` is the write
    /// data of canonical trigger `t` (missing entries read as zero) and
    /// `bank_init` the initial contents of bank cells (missing cells are
    /// zero). Initial registers are zero, matching a fresh
    /// [`pim_core::PimUnit`].
    pub fn eval(
        &self,
        wdata: &[LaneVec],
        bank_init: &HashMap<(u8, u32, u32), LaneVec>,
    ) -> EvalOutput {
        let mut vals: Vec<LaneVec> = Vec::with_capacity(self.table.nodes.len());
        for node in &self.table.nodes {
            let v = match *node {
                Node::InitGrf(..) | Node::InitSrfM(_) | Node::InitSrfA(_) => LaneVec::zero(),
                Node::Wdata(t) => usize::try_from(t)
                    .ok()
                    .and_then(|t| wdata.get(t))
                    .copied()
                    .unwrap_or(LaneVec::zero()),
                Node::BankCell(p, r, c) => {
                    bank_init.get(&(p, r, c)).copied().unwrap_or(LaneVec::zero())
                }
                Node::LaneSplat(of, lane) => LaneVec::splat(vals[of as usize][lane as usize]),
                Node::Relu(a) => vals[a as usize].relu(),
                Node::Add(a, b) => vals[a as usize].add(vals[b as usize]),
                Node::Mul(a, b) => vals[a as usize].mul(vals[b as usize]),
                Node::Mac(a, b, acc) => vals[a as usize].mac(vals[b as usize], vals[acc as usize]),
            };
            vals.push(v);
        }
        let reg = |e: Option<ExprId>| e.map(|e| vals[e as usize]).unwrap_or(LaneVec::zero());
        EvalOutput {
            grf_a: std::array::from_fn(|i| reg(self.grf[0][i])),
            grf_b: std::array::from_fn(|i| reg(self.grf[1][i])),
            srf_m: std::array::from_fn(|i| vals[self.srf_m[i] as usize]),
            srf_a: std::array::from_fn(|i| vals[self.srf_a[i] as usize]),
            bank_writes: self.bank_writes.iter().map(|(&k, &e)| (k, vals[e as usize])).collect(),
        }
    }
}

/// What [`symex_program`] produced: diagnostics plus, when the control
/// flow was provable, the full symbolic summary.
#[derive(Debug, Clone)]
pub struct SymexOutcome {
    /// PV301/PV302/PV303 findings.
    pub report: Report,
    /// The summary; `None` exactly when PV301 was emitted.
    pub summary: Option<KernelSummary>,
}

/// Runs the symbolic executor over an assembled program.
///
/// Emits PV301 (warning, with no summary) when the static schedule
/// cannot be derived; otherwise unrolls the schedule under canonical
/// trigger addressing and emits index-exact PV302/PV303 warnings.
pub fn symex_program(program: &[Instruction]) -> SymexOutcome {
    let mut report = Report::new();
    let schedule = match StaticSchedule::of_program(program, DEFAULT_SCHEDULE_BUDGET) {
        Ok(s) => s,
        Err(e) => {
            let site = match e {
                ScheduleError::Undecodable { index, .. }
                | ScheduleError::JumpTargetOutOfRange { index, .. } => Site::Instruction(index),
                ScheduleError::BudgetExceeded { .. } => Site::Whole,
            };
            report.warn(
                PvCode::Pv301ControlFlowUnprovable,
                site,
                format!("control flow is not statically provable: {e}"),
            );
            return SymexOutcome { report, summary: None };
        }
    };
    let summary = Walker::new().run(&schedule, &mut report);
    SymexOutcome { report, summary: Some(summary) }
}

/// The abstract interpreter state during one unrolled walk.
struct Walker {
    table: SymTable,
    footprint: Footprint,
    grf: [[Option<ExprId>; 8]; 2],
    /// Per GRF entry: the instruction index of the last write, if it has
    /// not been read since.
    unread_write: [[Option<usize>; 8]; 2],
    srf_m: [ExprId; 8],
    srf_a: [ExprId; 8],
    bank: HashMap<(u8, u32, u32), ExprId>,
    bank_writes: BTreeMap<(u8, u32, u32), ExprId>,
    uninit_reads: BTreeSet<(usize, u8, u8)>,
    dead_writes: BTreeSet<usize>,
}

impl Walker {
    fn new() -> Walker {
        let mut table = SymTable::new();
        let srf_m = std::array::from_fn(|i| table.intern(Node::InitSrfM(i as u8)));
        let srf_a = std::array::from_fn(|i| table.intern(Node::InitSrfA(i as u8)));
        Walker {
            table,
            footprint: Footprint::new(),
            grf: [[None; 8]; 2],
            unread_write: [[None; 8]; 2],
            srf_m,
            srf_a,
            bank: HashMap::new(),
            bank_writes: BTreeMap::new(),
            uninit_reads: BTreeSet::new(),
            dead_writes: BTreeSet::new(),
        }
    }

    fn run(mut self, schedule: &StaticSchedule, report: &mut Report) -> KernelSummary {
        let mut t: u64 = 0;
        for step in schedule.steps() {
            if step.instr.is_control() {
                // Only NOP appears in the schedule among control
                // instructions; it consumes triggers without effects.
                t += step.triggers;
                continue;
            }
            for _ in 0..step.triggers {
                self.exec(step.index, step.instr, t);
                t += 1;
            }
        }
        for (site, file, idx) in &self.uninit_reads {
            let name = if *file == 0 { "GRF_A" } else { "GRF_B" };
            report.warn(
                PvCode::Pv302UninitializedGrfRead,
                Site::Instruction(*site),
                format!("{name}[{idx}] is read but no instruction in the schedule writes it"),
            );
        }
        for site in &self.dead_writes {
            report.warn(
                PvCode::Pv303SymbolicDeadWrite,
                Site::Instruction(*site),
                "this write is always overwritten before any read (proven over the full \
                 unrolled schedule)",
            );
        }
        KernelSummary {
            table: self.table,
            total_triggers: schedule.total_triggers(),
            footprint: self.footprint,
            grf: self.grf,
            srf_m: self.srf_m,
            srf_a: self.srf_a,
            bank_writes: self.bank_writes,
        }
    }

    fn operand_index(op: Operand, aam: bool, col: u32) -> usize {
        if aam {
            (col & 0x7) as usize
        } else {
            op.idx as usize
        }
    }

    /// Mirrors `PimUnit::read_operand` symbolically. `is_acc` marks
    /// MAC's implicit accumulator read, which is exempt from PV302 (the
    /// idiomatic accumulate-into-host-prepared-register pattern).
    fn read(&mut self, site: usize, op: Operand, aam: bool, t: u64, is_acc: bool) -> ExprId {
        let (row, col) = ((t / 32) as u32, (t % 32) as u32);
        let idx = Self::operand_index(op, aam, col);
        match op.kind {
            OperandKind::GrfA | OperandKind::GrfB => {
                let file = if op.kind == OperandKind::GrfA { 0 } else { 1 };
                self.footprint.grf_reads.insert((file, idx as u8));
                self.unread_write[file as usize][idx] = None;
                match self.grf[file as usize][idx] {
                    Some(e) => e,
                    None => {
                        if !is_acc {
                            self.uninit_reads.insert((site, file, idx as u8));
                        }
                        let leaf = self.table.intern(Node::InitGrf(file, idx as u8));
                        self.grf[file as usize][idx] = Some(leaf);
                        leaf
                    }
                }
            }
            OperandKind::EvenBank | OperandKind::OddBank => {
                let parity = if op.kind == OperandKind::EvenBank { 0 } else { 1 };
                let key = (parity, row, col);
                self.footprint.bank_reads.insert(key);
                match self.bank.get(&key) {
                    Some(&e) => e,
                    None => self.table.intern(Node::BankCell(parity, row, col)),
                }
            }
            OperandKind::SrfM => {
                self.footprint.srf_m_reads.insert(idx as u8);
                self.srf_m[idx]
            }
            OperandKind::SrfA => {
                self.footprint.srf_a_reads.insert(idx as u8);
                self.srf_a[idx]
            }
            OperandKind::Wdata => self.table.intern(Node::Wdata(t)),
        }
    }

    /// Mirrors `PimUnit::write_register` symbolically.
    fn write(&mut self, site: usize, dst: Operand, aam: bool, t: u64, value: ExprId) {
        let (row, col) = ((t / 32) as u32, (t % 32) as u32);
        let idx = Self::operand_index(dst, aam, col);
        match dst.kind {
            OperandKind::GrfA | OperandKind::GrfB => {
                let file = if dst.kind == OperandKind::GrfA { 0usize } else { 1 };
                self.footprint.grf_writes.insert((file as u8, idx as u8));
                if let Some(prev) = self.unread_write[file][idx] {
                    self.dead_writes.insert(prev);
                }
                self.unread_write[file][idx] = Some(site);
                self.grf[file][idx] = Some(value);
            }
            OperandKind::EvenBank | OperandKind::OddBank => {
                let parity = if dst.kind == OperandKind::EvenBank { 0 } else { 1 };
                let key = (parity, row, col);
                self.footprint.bank_writes.insert(key);
                self.bank.insert(key, value);
                self.bank_writes.insert(key, value);
            }
            OperandKind::SrfM => {
                for i in 0..8u8 {
                    self.srf_m[i as usize] = self.table.intern(Node::LaneSplat(value, i));
                }
            }
            OperandKind::SrfA => {
                for i in 0..8u8 {
                    self.srf_a[i as usize] = self.table.intern(Node::LaneSplat(value, 8 + i));
                }
            }
            // WDATA is not a destination; the datapath drops the write.
            OperandKind::Wdata => {}
        }
    }

    fn exec(&mut self, site: usize, instr: Instruction, t: u64) {
        match instr {
            Instruction::Mov { dst, src, relu, aam } => {
                let mut v = self.read(site, src, aam, t, false);
                if relu {
                    v = self.table.intern(Node::Relu(v));
                }
                self.write(site, dst, aam, t, v);
            }
            Instruction::Fill { dst, src, aam } => {
                let v = self.read(site, src, aam, t, false);
                self.write(site, dst, aam, t, v);
            }
            Instruction::Add { dst, src0, src1, aam } => {
                let a = self.read(site, src0, aam, t, false);
                let b = self.read(site, src1, aam, t, false);
                let v = self.table.intern(Node::Add(a, b));
                self.write(site, dst, aam, t, v);
            }
            Instruction::Mul { dst, src0, src1, aam } => {
                let a = self.read(site, src0, aam, t, false);
                let b = self.read(site, src1, aam, t, false);
                let v = self.table.intern(Node::Mul(a, b));
                self.write(site, dst, aam, t, v);
            }
            Instruction::Mac { dst, src0, src1, aam } => {
                let a = self.read(site, src0, aam, t, false);
                let b = self.read(site, src1, aam, t, false);
                let acc = self.read(site, dst, aam, t, true);
                let v = self.table.intern(Node::Mac(a, b, acc));
                self.write(site, dst, aam, t, v);
            }
            Instruction::Mad { dst, src0, src1, aam } => {
                let a = self.read(site, src0, aam, t, false);
                let b = self.read(site, src1, aam, t, false);
                // SRC2 shares SRC1's (possibly AAM) index, in SRF_A.
                let c_idx = Self::operand_index(src1, aam, (t % 32) as u32);
                self.footprint.srf_a_reads.insert(c_idx as u8);
                let c = self.srf_a[c_idx];
                let v = self.table.intern(Node::Mac(a, b, c));
                self.write(site, dst, aam, t, v);
            }
            Instruction::Nop { .. } | Instruction::Jump { .. } | Instruction::Exit => {}
        }
    }
}

/// The decision [`check_equivalence`] reaches.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivVerdict {
    /// The two programs compute identical final register values and
    /// identical bank-write maps over every input.
    Equivalent,
    /// A concrete observable differs; the string names the first one.
    Inequivalent(String),
    /// At least one side could not be summarized (verifier errors or
    /// PV301); the report says why.
    Unprovable(Report),
}

/// Decides semantic equivalence of two programs under `config`.
///
/// Both sides are verified ([`crate::analyze_program`]) and
/// symbolically summarized; the summaries are canonicalized into one
/// shared arena (commutative ADD/MUL/MAC-product operands sorted) and
/// compared output by output: trigger counts, all 16 GRF entries, all
/// 16 SRF entries, and the full bank-write map. Distinct canonical
/// expressions over the shared free leaves mean some concrete input
/// separates the programs; identical ones mean no input can.
pub fn check_equivalence(config: &PimConfig, a: &[Instruction], b: &[Instruction]) -> EquivVerdict {
    let ra = crate::analyze_program(config, a);
    let rb = crate::analyze_program(config, b);
    let (sa, sb) = (symex_program(a), symex_program(b));
    if ra.has_errors() || rb.has_errors() || sa.summary.is_none() || sb.summary.is_none() {
        let mut r = ra;
        r.merge(rb);
        return EquivVerdict::Unprovable(r);
    }
    let (ka, kb) = (sa.summary.unwrap(), sb.summary.unwrap());

    if ka.total_triggers != kb.total_triggers {
        return EquivVerdict::Inequivalent(format!(
            "trigger counts differ: {} vs {}",
            ka.total_triggers, kb.total_triggers
        ));
    }

    let mut canon = SymTable::new();
    let ma = canonical_map(&ka.table, &mut canon);
    let mb = canonical_map(&kb.table, &mut canon);

    for file in 0..2u8 {
        for idx in 0..8usize {
            let init = canon.intern(Node::InitGrf(file, idx as u8));
            let ca = ka.grf[file as usize][idx].map(|e| ma[e as usize]).unwrap_or(init);
            let cb = kb.grf[file as usize][idx].map(|e| mb[e as usize]).unwrap_or(init);
            if ca != cb {
                let name = if file == 0 { "GRF_A" } else { "GRF_B" };
                return EquivVerdict::Inequivalent(format!("final {name}[{idx}] differs"));
            }
        }
    }
    for idx in 0..8usize {
        if ma[ka.srf_m[idx] as usize] != mb[kb.srf_m[idx] as usize] {
            return EquivVerdict::Inequivalent(format!("final SRF_M[{idx}] differs"));
        }
        if ma[ka.srf_a[idx] as usize] != mb[kb.srf_a[idx] as usize] {
            return EquivVerdict::Inequivalent(format!("final SRF_A[{idx}] differs"));
        }
    }

    let wa: BTreeMap<_, _> = ka.bank_writes.iter().map(|(&k, &e)| (k, ma[e as usize])).collect();
    let wb: BTreeMap<_, _> = kb.bank_writes.iter().map(|(&k, &e)| (k, mb[e as usize])).collect();
    if let Some(k) = wa.keys().chain(wb.keys()).find(|k| wa.get(*k) != wb.get(*k)) {
        return EquivVerdict::Inequivalent(format!(
            "bank write at (parity {}, row {}, col {}) differs",
            k.0, k.1, k.2
        ));
    }
    EquivVerdict::Equivalent
}

/// Re-interns every node of `table` into `canon` with commutative
/// operands sorted; returns the old-id → canonical-id map. Children
/// precede parents in the arena, so one forward pass suffices.
fn canonical_map(table: &SymTable, canon: &mut SymTable) -> Vec<ExprId> {
    let mut map: Vec<ExprId> = Vec::with_capacity(table.nodes.len());
    for &node in &table.nodes {
        let c = match node {
            Node::LaneSplat(of, lane) => Node::LaneSplat(map[of as usize], lane),
            Node::Relu(a) => Node::Relu(map[a as usize]),
            Node::Add(a, b) => {
                let (x, y) = sorted2(map[a as usize], map[b as usize]);
                Node::Add(x, y)
            }
            Node::Mul(a, b) => {
                let (x, y) = sorted2(map[a as usize], map[b as usize]);
                Node::Mul(x, y)
            }
            Node::Mac(a, b, acc) => {
                let (x, y) = sorted2(map[a as usize], map[b as usize]);
                Node::Mac(x, y, map[acc as usize])
            }
            leaf => leaf,
        };
        map.push(canon.intern(c));
    }
    map
}

fn sorted2(a: ExprId, b: ExprId) -> (ExprId, ExprId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::must_assemble;

    fn cfg() -> PimConfig {
        PimConfig::paper()
    }

    #[test]
    fn gemv_loop_and_unroll_are_equivalent() {
        let looped = must_assemble(
            "FILL SRF_M[0], WDATA\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             JUMP 1, #8\n\
             EXIT\n",
        );
        let unrolled = must_assemble(
            "FILL SRF_M[0], WDATA\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             EXIT\n",
        );
        assert_eq!(check_equivalence(&cfg(), &looped, &unrolled), EquivVerdict::Equivalent);
    }

    #[test]
    fn differing_srf_index_is_inequivalent() {
        let a = must_assemble("FILL SRF_M[0], WDATA\nMUL GRF_A[0], EVEN_BANK, SRF_M[0]\nEXIT\n");
        let b = must_assemble("FILL SRF_M[0], WDATA\nMUL GRF_A[0], EVEN_BANK, SRF_M[1]\nEXIT\n");
        assert!(matches!(check_equivalence(&cfg(), &a, &b), EquivVerdict::Inequivalent(_)));
    }

    #[test]
    fn commutative_operand_order_is_normalized() {
        let a = must_assemble("FILL GRF_A[0], WDATA\nADD GRF_A[1], GRF_A[0], EVEN_BANK\nEXIT\n");
        let b = must_assemble("FILL GRF_A[0], WDATA\nADD GRF_A[1], EVEN_BANK, GRF_A[0]\nEXIT\n");
        assert_eq!(check_equivalence(&cfg(), &a, &b), EquivVerdict::Equivalent);
    }

    #[test]
    fn unprovable_program_reports_pv301_and_no_summary() {
        let prog = must_assemble(
            "NOP 1\n\
             JUMP 0, #65535\n\
             JUMP 0, #65535\n\
             EXIT\n",
        );
        let out = symex_program(&prog);
        assert!(out.summary.is_none());
        assert!(out.report.has_code(PvCode::Pv301ControlFlowUnprovable), "{}", out.report);
        assert!(matches!(check_equivalence(&cfg(), &prog, &prog), EquivVerdict::Unprovable(_)));
    }

    #[test]
    fn aam_partial_write_then_read_is_pv302() {
        // The AAM loop writes GRF_A[0..4] (columns 0..4); the straight
        // read of GRF_A[5] hits an entry nothing wrote. PV015's
        // conservative pass treats the AAM write as covering all 8.
        let prog = must_assemble(
            "FILL GRF_A[0], WDATA (AAM)\n\
             JUMP 0, #4\n\
             MOV EVEN_BANK, GRF_A[5]\n\
             EXIT\n",
        );
        let out = symex_program(&prog);
        assert!(out.report.has_code(PvCode::Pv302UninitializedGrfRead), "{}", out.report);
        assert!(!crate::verify_program(&cfg(), &prog).has_code(PvCode::Pv015ReadBeforeWrite));
    }

    #[test]
    fn loop_carried_dead_write_is_pv303() {
        // Every iteration overwrites GRF_A[0] before anything reads the
        // previous value; only the last write is ever read. PV016's
        // straight-line pass sees one write followed by one read.
        let prog = must_assemble(
            "FILL GRF_A[0], EVEN_BANK\n\
             JUMP 0, #4\n\
             MOV EVEN_BANK, GRF_A[0]\n\
             EXIT\n",
        );
        let out = symex_program(&prog);
        assert!(out.report.has_code(PvCode::Pv303SymbolicDeadWrite), "{}", out.report);
        assert!(!crate::verify_program(&cfg(), &prog).has_code(PvCode::Pv016DeadWrite));
    }

    #[test]
    fn summary_matches_concrete_execution_on_the_worked_example() {
        use pim_core::{PimUnit, Trigger, TriggerKind};
        let prog = must_assemble(
            "FILL SRF_M[0], WDATA\n\
             MAC GRF_B[0], EVEN_BANK, SRF_M[0] (AAM)\n\
             JUMP 1, #8\n\
             JUMP 0, #2\n\
             EXIT\n",
        );
        let out = symex_program(&prog);
        let summary = out.summary.expect("provable");
        let total = summary.total_triggers() as usize;

        // Concrete inputs: distinct wdata per trigger, distinct bank
        // cells.
        let wdata: Vec<LaneVec> =
            (0..total).map(|t| LaneVec::splat(pim_fp16::F16::from_f32(t as f32 + 1.5))).collect();
        let mut bank_init = HashMap::new();
        for t in 0..total as u32 {
            for parity in 0..2u8 {
                bank_init.insert(
                    (parity, t / 32, t % 32),
                    LaneVec::splat(pim_fp16::F16::from_f32(0.25 * (t as f32 + 1.0))),
                );
            }
        }

        let mut unit = PimUnit::new();
        unit.crf_mut().load_program(&prog);
        for t in 0..total as u32 {
            let trig = Trigger {
                kind: TriggerKind::Write(wdata[t as usize]),
                row: t / 32,
                col: t % 32,
                even_data: bank_init[&(0, t / 32, t % 32)],
                odd_data: bank_init[&(1, t / 32, t % 32)],
            };
            let out = unit.execute(&trig);
            assert!(out.executed.is_some(), "trigger {t} executed nothing");
        }
        // Control resolves lazily: the unit discovers the EXIT on the
        // next trigger, which must execute nothing.
        let drain = unit.execute(&Trigger {
            kind: TriggerKind::Read,
            row: 0,
            col: 0,
            even_data: LaneVec::zero(),
            odd_data: LaneVec::zero(),
        });
        assert_eq!(drain.executed, None);
        assert_eq!(unit.sequencer().halt(), Some(pim_core::Halt::Exit));

        let eval = summary.eval(&wdata, &bank_init);
        for i in 0..8 {
            assert_eq!(eval.grf_b[i].lanes(), unit.grf_b().read(i).lanes(), "GRF_B[{i}]");
            assert_eq!(eval.grf_a[i].lanes(), unit.grf_a().read(i).lanes(), "GRF_A[{i}]");
        }
    }
}
