//! A single-bank JEDEC timing oracle that shares no code with the channel's
//! clock: a table of (earlier command, later command, scope, minimum
//! distance) rows built from `TimingParams` fields alone.
//!
//! Seeded streams that are legal by row state are issued through
//! `PseudoChannel::issue`, which picks each command's cycle (and picks
//! `earliest_issue`'s), on every preset and on a hand-built
//! timing whose tFAW exceeds tRAS. The check is two-sided: no pair of
//! commands sits closer than its row allows, and every command issues at
//! exactly the maximum of the previous issue cycle and all its row bounds,
//! so an over-cautious formula fails as surely as a lax one.

use pim_dram::{BankAddr, Command, CommandSink, Cycle, NoData, PseudoChannel, TimingParams};

/// A command class as the table names it (PREA is a PRE to each open bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Act,
    Rd,
    Wr,
    Pre,
    Ref,
}

/// Which pairs of commands a row relates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    SameBank,
    SameGroup,
    AnyBank,
    /// The later ACT is the fourth ACT after the earlier one: at most four
    /// ACTs fit in any tFAW window.
    FourthAct,
}

struct Row {
    earlier: Class,
    later: Class,
    scope: Scope,
    min: Cycle,
}

fn table(t: &TimingParams) -> Vec<Row> {
    use Class::*;
    use Scope::*;
    let wr_end = t.t_wl + t.t_bl;
    let row = |earlier, later, scope, min| Row { earlier, later, scope, min };
    let mut rows = vec![
        row(Act, Act, SameBank, t.t_rc),
        row(Act, Rd, SameBank, t.t_rcd),
        row(Act, Wr, SameBank, t.t_rcd),
        row(Act, Pre, SameBank, t.t_ras),
        row(Rd, Pre, SameBank, t.t_rtp),
        row(Wr, Pre, SameBank, wr_end + t.t_wr),
        row(Pre, Act, SameBank, t.t_rp),
        row(Act, Act, SameGroup, t.t_rrd_l),
        row(Act, Act, AnyBank, t.t_rrd_s),
        row(Act, Act, FourthAct, t.t_faw),
        row(Rd, Wr, AnyBank, t.t_rtw),
        row(Wr, Rd, AnyBank, wr_end + t.t_wtr),
        row(Ref, Act, AnyBank, t.t_rfc),
        row(Ref, Ref, AnyBank, t.t_rfc),
        row(Act, Ref, AnyBank, t.t_rc),
        row(Pre, Ref, AnyBank, t.t_rp),
    ];
    for earlier in [Rd, Wr] {
        for later in [Rd, Wr] {
            rows.push(row(earlier, later, SameGroup, t.t_ccd_l));
            rows.push(row(earlier, later, AnyBank, t.t_ccd_s));
        }
        rows.push(row(earlier, Ref, AnyBank, t.t_ccd_s));
    }
    rows
}

/// One issued command as the oracle sees it: class, bank (`None` for REF),
/// cycle, and for an ACT its ordinal among the stream's ACTs.
#[derive(Debug, Clone, Copy)]
struct Event {
    class: Class,
    bank: Option<BankAddr>,
    at: Cycle,
    act_no: usize,
}

fn in_scope(scope: Scope, e: &Event, later_bank: Option<BankAddr>, later_act_no: usize) -> bool {
    match scope {
        Scope::AnyBank => true,
        Scope::SameBank => e.bank.is_some() && e.bank == later_bank,
        Scope::SameGroup => matches!((e.bank, later_bank), (Some(a), Some(b)) if a.bg == b.bg),
        Scope::FourthAct => later_act_no == e.act_no + 4,
    }
}

/// The events a command becomes: PREA is a PRE to every bank it closes.
/// (A bank it finds closed bounds it no later than that bank's own PRE,
/// which the previous issue cycle already covers.)
fn events(cmd: &Command, open: &[bool; 16]) -> Vec<(Class, Option<BankAddr>)> {
    match *cmd {
        Command::Act { bank, .. } => vec![(Class::Act, Some(bank))],
        Command::Rd { bank, .. } => vec![(Class::Rd, Some(bank))],
        Command::Wr { bank, .. } => vec![(Class::Wr, Some(bank))],
        Command::Pre { bank } => vec![(Class::Pre, Some(bank))],
        Command::PreAll => BankAddr::all()
            .filter(|b| open[b.flat_index()])
            .map(|b| (Class::Pre, Some(b)))
            .collect(),
        Command::Ref => vec![(Class::Ref, None)],
    }
}

/// A small seeded generator (xorshift64*), so the stream needs no crate.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// A command legal by row state: ACT to a closed bank; RD / WR / PRE to an
/// open one; PREA; REF only with every bank closed.
fn next_command(rng: &mut Rng, open: &[bool; 16]) -> Command {
    let bank = BankAddr::from_flat_index(rng.below(16) as usize);
    let col = rng.below(32) as u32;
    let any_open = open.iter().any(|&o| o);
    match rng.below(20) {
        0 if !any_open => Command::Ref,
        1 => Command::PreAll,
        _ if !open[bank.flat_index()] => Command::Act { bank, row: rng.below(64) as u32 },
        2..=4 => Command::Pre { bank },
        5..=10 => Command::Wr { bank, col, data: [col as u8; 32].into() },
        _ => Command::Rd { bank, col },
    }
}

fn check_stream(t: &TimingParams, seed: u64, len: usize) {
    let rows = table(t);
    let mut ch = PseudoChannel::new(t.clone());
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut open = [false; 16];
    let mut history: Vec<Event> = Vec::new();
    let (mut now, mut acts) = (0, 0);
    for step in 0..len {
        let cmd = next_command(&mut rng, &open);
        let earliest = ch.earliest_issue(&cmd, now);
        let out = ch.issue(&cmd, now, &mut NoData);
        let at = out.unwrap_or_else(|e| panic!("seed {seed} step {step}: {cmd}: {e}")).issued_at;
        assert_eq!(at, earliest, "seed {seed} step {step}: {cmd} issued off its earliest cycle");
        let mine = events(&cmd, &open);
        let mut bound = now;
        for &(class, bank) in &mine {
            for row in rows.iter().filter(|r| r.later == class) {
                for e in history.iter().filter(|e| e.class == row.earlier) {
                    if in_scope(row.scope, e, bank, acts) {
                        assert!(
                            at >= e.at + row.min,
                            "seed {seed} step {step}: {cmd} at {at} is {} after a {:?} at {}, \
                             its {:?} row wants {}",
                            at - e.at,
                            row.earlier,
                            e.at,
                            row.scope,
                            row.min
                        );
                        bound = bound.max(e.at + row.min);
                    }
                }
            }
        }
        assert_eq!(at, bound, "seed {seed} step {step}: {cmd} held back past every row bound");
        for (class, bank) in mine {
            history.push(Event { class, bank, at, act_no: acts });
            if class == Class::Act {
                acts += 1;
            }
            match (class, bank) {
                (Class::Act, Some(b)) => open[b.flat_index()] = true,
                (Class::Pre, Some(b)) => open[b.flat_index()] = false,
                _ => {}
            }
        }
        now = at;
    }
}

fn timings() -> Vec<(&'static str, TimingParams)> {
    let mut wide_faw = TimingParams::hbm2();
    wide_faw.t_faw = wide_faw.t_ras + 8;
    vec![
        ("hbm2", TimingParams::hbm2()),
        ("hbm2_2gbps", TimingParams::hbm2_2gbps()),
        ("gddr6", TimingParams::gddr6()),
        ("lpddr5", TimingParams::lpddr5()),
        ("ddr5", TimingParams::ddr5()),
        ("hbm2 with tFAW > tRAS", wide_faw),
    ]
}

#[test]
fn every_command_issues_at_the_latest_of_its_pair_bounds() {
    for (name, t) in timings() {
        t.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        for seed in 0..24 {
            check_stream(&t, seed, 300);
        }
    }
}

/// `issue(cmd, now)` acts on the cycle `earliest_issue(cmd, now)` names:
/// offered at or before it, a command issues there; offered after it, a
/// command issues exactly when offered.
#[test]
fn a_command_issues_at_its_earliest_cycle_or_when_offered() {
    for (name, t) in timings() {
        for seed in 0..24u64 {
            let mut ch = PseudoChannel::new(t.clone());
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let (mut now, mut late) = (0, 0);
            for step in 0..300 {
                let open =
                    std::array::from_fn(|i| ch.open_row(BankAddr::from_flat_index(i)).is_some());
                let cmd = next_command(&mut rng, &open);
                let earliest = ch.earliest_issue(&cmd, now);
                let offered = if rng.below(3) == 0 { earliest + 1 + rng.below(8) } else { now };
                let out = ch.issue(&cmd, offered, &mut NoData);
                let at = out.unwrap_or_else(|e| panic!("{name} seed {seed}: {cmd}: {e}")).issued_at;
                assert_eq!(at, earliest.max(offered), "{name} seed {seed} step {step}: {cmd}");
                late += usize::from(offered > earliest);
                now = at;
            }
            assert!(late > 50, "{name} seed {seed}: only {late} late offers");
        }
    }
}
