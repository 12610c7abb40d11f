//! Command-stream input: the shared event type over which the protocol
//! linter and the fence-race detector run, plus a small text format for
//! committed `.trace` fixtures.
//!
//! A stream is a flat sequence of standard DRAM commands with optional
//! `fence` markers (the per-batch barrier of Section IV-C). Streams come
//! from two places: parsed `.trace` files and flattened
//! [`pim_host::Batch`] lists ([`events_from_batches`]).
//!
//! # Trace text format
//!
//! One command per line; `;` and `#` start comments; numbers are decimal
//! or `0x` hex; mnemonics are case-insensitive:
//!
//! ```text
//! act  <bg> <ba> <row>          ; activate
//! pre  <bg> <ba>                ; precharge one bank
//! prea                          ; precharge all
//! rd   <bg> <ba> <col>          ; column read
//! wr   <bg> <ba> <col> [w0..w7] ; column write, eight 32-bit data words
//! ref                           ; all-bank refresh
//! fence                         ; host barrier
//! ```

use crate::diag::{PvCode, Report, Site};
use pim_dram::{BankAddr, Command, DataBlock};
use pim_host::Batch;

/// One element of a command stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamItem {
    /// A standard DRAM command.
    Cmd(Command),
    /// A host barrier (the `fence_after` of a batch).
    Fence,
}

/// A stream element with the location it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEvent {
    /// The command or fence.
    pub item: StreamItem,
    /// Where it sits in its source (trace line, batch/command index, ...).
    pub site: Site,
}

impl StreamEvent {
    /// Wraps a command with a flat-stream site.
    pub fn cmd(index: usize, c: Command) -> StreamEvent {
        let desc = c.to_string();
        StreamEvent { item: StreamItem::Cmd(c), site: Site::Command { index, desc } }
    }

    /// A fence with a flat-stream site.
    pub fn fence(index: usize) -> StreamEvent {
        StreamEvent { item: StreamItem::Fence, site: Site::Command { index, desc: "fence".into() } }
    }
}

/// Flattens a batch list into a stream: each command in order, with a
/// [`StreamItem::Fence`] after every batch whose `fence_after` is set.
pub fn events_from_batches(batches: &[Batch]) -> Vec<StreamEvent> {
    let mut out = Vec::new();
    for (bi, b) in batches.iter().enumerate() {
        for (ci, c) in b.commands.iter().enumerate() {
            out.push(StreamEvent {
                item: StreamItem::Cmd(c.clone()),
                site: Site::Batch { batch: bi, command: ci, label: b.label },
            });
        }
        if b.fence_after {
            out.push(StreamEvent {
                item: StreamItem::Fence,
                site: Site::Batch { batch: bi, command: b.commands.len(), label: b.label },
            });
        }
    }
    out
}

/// Removes every fence from a stream — the "what if the host skipped the
/// barriers" transformation used by the race-detector tests.
pub fn strip_fences(events: &[StreamEvent]) -> Vec<StreamEvent> {
    events.iter().filter(|e| !matches!(e.item, StreamItem::Fence)).cloned().collect()
}

fn parse_num(tok: &str) -> Option<u32> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

/// Parses the `.trace` text format (see module docs).
///
/// # Errors
///
/// Returns a [`Report`] of `PV031` syntax errors (one per bad line) if any
/// line fails to parse.
pub fn parse_trace(source: &str) -> Result<Vec<StreamEvent>, Report> {
    let mut events = Vec::new();
    let mut report = Report::new();
    for (i, raw) in source.lines().enumerate() {
        let line = i + 1;
        let text = raw.split([';', '#']).next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut bad = |msg: String| {
            report.error(PvCode::Pv031TraceSyntax, Site::Line { line, col: 1 }, msg);
        };
        let toks: Vec<&str> = text.split_whitespace().collect();
        let nums: Option<Vec<u32>> = toks[1..].iter().map(|t| parse_num(t)).collect();
        let Some(nums) = nums else {
            bad(format!("unparseable number in `{text}`"));
            continue;
        };
        let site = Site::Line { line, col: 1 };
        let bank = |nums: &[u32]| -> Option<BankAddr> {
            if nums[0] < 4 && nums[1] < 4 {
                Some(BankAddr::new(nums[0] as u8, nums[1] as u8))
            } else {
                None
            }
        };
        let item = match (toks[0].to_ascii_lowercase().as_str(), nums.len()) {
            ("act", 3) => match bank(&nums) {
                Some(b) => StreamItem::Cmd(Command::Act { bank: b, row: nums[2] }),
                None => {
                    bad(format!("bank out of range in `{text}`"));
                    continue;
                }
            },
            ("pre", 2) => match bank(&nums) {
                Some(b) => StreamItem::Cmd(Command::Pre { bank: b }),
                None => {
                    bad(format!("bank out of range in `{text}`"));
                    continue;
                }
            },
            ("prea", 0) => StreamItem::Cmd(Command::PreAll),
            ("rd", 3) => match bank(&nums) {
                Some(b) => StreamItem::Cmd(Command::Rd { bank: b, col: nums[2] }),
                None => {
                    bad(format!("bank out of range in `{text}`"));
                    continue;
                }
            },
            ("wr", n) if (3..=11).contains(&n) => match bank(&nums) {
                Some(b) => {
                    let mut data: DataBlock = [0; 32];
                    for (wi, w) in nums[3..].iter().enumerate() {
                        data[wi * 4..wi * 4 + 4].copy_from_slice(&w.to_le_bytes());
                    }
                    StreamItem::Cmd(Command::Wr { bank: b, col: nums[2], data: data.into() })
                }
                None => {
                    bad(format!("bank out of range in `{text}`"));
                    continue;
                }
            },
            ("ref", 0) => StreamItem::Cmd(Command::Ref),
            ("fence", 0) => StreamItem::Fence,
            (m, _) => {
                bad(format!("unknown or malformed command `{m}` in `{text}`"));
                continue;
            }
        };
        events.push(StreamEvent { item, site });
    }
    if report.has_errors() {
        Err(report)
    } else {
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_mnemonic() {
        let ev = parse_trace(
            "; header comment\n\
             act 0 0 0x1FFF\n\
             pre 0 0\n\
             prea\n\
             rd 1 2 5\n\
             wr 0 0 0 0x1 0x2  # data words\n\
             ref\n\
             fence\n",
        )
        .unwrap();
        assert_eq!(ev.len(), 7);
        assert!(matches!(ev[0].item, StreamItem::Cmd(Command::Act { row: 0x1FFF, .. })));
        assert!(matches!(ev.last().unwrap().item, StreamItem::Fence));
        if let StreamItem::Cmd(Command::Wr { data, .. }) = &ev[4].item {
            assert_eq!(data[0], 1);
            assert_eq!(data[4], 2);
        } else {
            panic!("expected WR");
        }
    }

    #[test]
    fn syntax_errors_are_pv031_with_line() {
        let e = parse_trace("act 0 0 1\nbogus 1 2\n").unwrap_err();
        assert!(e.has_code(PvCode::Pv031TraceSyntax));
        assert_eq!(e.diagnostics[0].site, Site::Line { line: 2, col: 1 });
        let e = parse_trace("act 9 9 1\n").unwrap_err();
        assert!(e.has_code(PvCode::Pv031TraceSyntax));
        let e = parse_trace("rd 0 0 zz\n").unwrap_err();
        assert!(e.has_code(PvCode::Pv031TraceSyntax));
    }

    #[test]
    fn strip_fences_drops_only_fences() {
        let ev = parse_trace("act 0 0 1\nfence\npre 0 0\nfence\n").unwrap();
        let stripped = strip_fences(&ev);
        assert_eq!(stripped.len(), 2);
        assert!(stripped.iter().all(|e| matches!(e.item, StreamItem::Cmd(_))));
    }
}
