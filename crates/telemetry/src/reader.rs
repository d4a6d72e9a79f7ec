//! Trace reading and span-tree reconstruction.
//!
//! [`read_jsonl_lossy`] is the one event-JSONL reader. It skips (and
//! counts) malformed lines instead of aborting: a trace truncated by a
//! crashed run or a corrupted line in a multi-gigabyte capture should
//! not make the other 99.99 % of the evidence unreadable. Round-trip
//! checks read through it too and demand that nothing was skipped.
//!
//! [`SpanTree`] then rebuilds the nesting structure of the event stream.
//! The simulation is single-threaded with one global cycle counter, so
//! begin/end events of *all* tracks interleave as one properly nested
//! stack (an EL2 `hypercall-verify` sits textually inside the EL1
//! `syscall` that issued the `HVC`). The builder is tolerant of the two
//! ways real traces break that ideal:
//!
//! * syscalls that abort leave their span open by design — open spans at
//!   end-of-trace are kept, with [`SpanNode::end`] `None`;
//! * an `End` whose kind does not match the innermost open span closes
//!   the intervening spans implicitly (Chrome-trace semantics) and is
//!   counted, so one lost event cannot shear the whole tree.

use crate::event::{Event, EventKind, PointKind, SpanKind, Track};
use crate::export::event_from_json;
use crate::json::Json;

/// Result of a lossy JSONL read: every parseable event, plus an honest
/// account of what was skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LossyTrace {
    /// Events recovered, in file order.
    pub events: Vec<Event>,
    /// Number of non-blank lines that failed to parse as events.
    pub skipped: u64,
    /// Up to [`MAX_SKIP_DETAILS`] `(line number, reason)` samples of the
    /// skipped lines, for diagnostics.
    pub skip_details: Vec<(usize, String)>,
}

/// How many skipped-line samples [`read_jsonl_lossy`] keeps.
pub const MAX_SKIP_DETAILS: usize = 8;

/// Parses JSONL, skipping malformed or truncated lines instead of
/// aborting. Blank lines are ignored silently; any other unparseable
/// line increments [`LossyTrace::skipped`].
pub fn read_jsonl_lossy(input: &str) -> LossyTrace {
    let mut trace = LossyTrace::default();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match Json::parse(line) {
            Ok(value) => match event_from_json(&value) {
                Some(event) => {
                    trace.events.push(event);
                    continue;
                }
                None => "not a telemetry event".to_string(),
            },
            Err(e) => e.to_string(),
        };
        trace.skipped += 1;
        if trace.skip_details.len() < MAX_SKIP_DETAILS {
            trace.skip_details.push((idx + 1, outcome));
        }
    }
    trace
}

/// One reconstructed span: a begin/end pair with everything that
/// happened inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Track the span ran on.
    pub track: Track,
    /// What the span measures.
    pub kind: SpanKind,
    /// Cycle stamp of the `Begin` event.
    pub begin: u64,
    /// Cycle stamp of the `End` event; `None` if the span never closed
    /// (aborted syscall, truncated trace) or was closed implicitly by a
    /// mismatched outer `End`.
    pub end: Option<u64>,
    /// Payload of the `Begin` event (e.g. the hypercall number).
    pub begin_arg: u64,
    /// Payload of the `End` event (status word; `1` = denied).
    pub end_arg: Option<u64>,
    /// Spans nested inside this one, in begin order.
    pub children: Vec<SpanNode>,
    /// Marks observed while this span was innermost, in stream order.
    pub marks: Vec<Mark>,
}

impl SpanNode {
    /// Total duration in cycles: `end - begin`. Open spans report the
    /// time up to `close_cycles` (the last stamp seen in the trace).
    pub fn total_cycles(&self, close_cycles: u64) -> u64 {
        self.end.unwrap_or(close_cycles).saturating_sub(self.begin)
    }

    /// Cycles spent in this span itself, excluding nested child spans.
    pub fn self_cycles(&self, close_cycles: u64) -> u64 {
        let nested: u64 = self
            .children
            .iter()
            .map(|c| c.total_cycles(close_cycles))
            .sum();
        self.total_cycles(close_cycles).saturating_sub(nested)
    }
}

/// An instantaneous mark, positioned inside the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Cycle stamp.
    pub cycles: u64,
    /// Originating track.
    pub track: Track,
    /// What happened.
    pub kind: PointKind,
    /// First payload word (usually an address or line number).
    pub a: u64,
    /// Second payload word (usually a value).
    pub b: u64,
}

/// The reconstructed nesting structure of one event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level spans, in begin order.
    pub roots: Vec<SpanNode>,
    /// Marks that occurred outside any span.
    pub orphan_marks: Vec<Mark>,
    /// `End` events that matched no open span at all.
    pub unmatched_ends: u64,
    /// Spans closed implicitly because an outer span ended first.
    pub implicitly_closed: u64,
    /// Spans still open at end-of-trace (kept in the tree with
    /// `end: None`).
    pub left_open: u64,
    /// Cycle stamp of the last event in the stream (used to bound open
    /// spans in duration queries).
    pub last_cycles: u64,
}

impl SpanTree {
    /// Builds the tree from an event stream in emission order.
    pub fn build(events: &[Event]) -> SpanTree {
        let mut tree = SpanTree::default();
        // The open-span stack: each frame owns its completed children.
        let mut stack: Vec<SpanNode> = Vec::new();

        let close_into =
            |tree: &mut SpanTree, stack: &mut Vec<SpanNode>, node: SpanNode| match stack.last_mut()
            {
                Some(parent) => parent.children.push(node),
                None => tree.roots.push(node),
            };

        for event in events {
            tree.last_cycles = tree.last_cycles.max(event.cycles);
            match event.kind {
                EventKind::Begin(kind, arg) => stack.push(SpanNode {
                    track: event.track,
                    kind,
                    begin: event.cycles,
                    end: None,
                    begin_arg: arg,
                    end_arg: None,
                    children: Vec::new(),
                    marks: Vec::new(),
                }),
                EventKind::End(kind, arg) => {
                    let matches = |n: &SpanNode| n.track == event.track && n.kind == kind;
                    if !stack.iter().any(matches) {
                        tree.unmatched_ends += 1;
                        continue;
                    }
                    // Implicitly close everything above the matching
                    // frame (its `End` was lost or it aborted).
                    while !matches(stack.last().expect("checked non-empty")) {
                        let node = stack.pop().expect("checked non-empty");
                        tree.implicitly_closed += 1;
                        close_into(&mut tree, &mut stack, node);
                    }
                    let mut node = stack.pop().expect("matching frame");
                    node.end = Some(event.cycles);
                    node.end_arg = Some(arg);
                    close_into(&mut tree, &mut stack, node);
                }
                EventKind::Mark(kind, a, b) => {
                    let mark = Mark {
                        cycles: event.cycles,
                        track: event.track,
                        kind,
                        a,
                        b,
                    };
                    match stack.last_mut() {
                        Some(top) => top.marks.push(mark),
                        None => tree.orphan_marks.push(mark),
                    }
                }
            }
        }
        // Whatever is still on the stack stayed open to end-of-trace.
        while let Some(node) = stack.pop() {
            tree.left_open += 1;
            close_into(&mut tree, &mut stack, node);
        }
        tree
    }

    /// Depth-first walk over every span, parents before children.
    pub fn walk(&self, mut visit: impl FnMut(&SpanNode, usize)) {
        fn go(node: &SpanNode, depth: usize, visit: &mut impl FnMut(&SpanNode, usize)) {
            visit(node, depth);
            for child in &node.children {
                go(child, depth + 1, visit);
            }
        }
        for root in &self.roots {
            go(root, 0, &mut visit);
        }
    }

    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        let mut n = 0;
        self.walk(|_, _| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::write_jsonl;

    fn sample() -> Vec<Event> {
        vec![
            Event::begin(0, Track::El1, SpanKind::Syscall, 57),
            Event::mark(2, Track::El1, PointKind::Hypercall, 3, 0),
            Event::begin(4, Track::El2, SpanKind::HypercallVerify, 3),
            Event::begin(5, Track::El2, SpanKind::Stage2Check, 0),
            Event::end(9, Track::El2, SpanKind::Stage2Check, 0),
            Event::end(12, Track::El2, SpanKind::HypercallVerify, 0),
            Event::end(20, Track::El1, SpanKind::Syscall, 0),
        ]
    }

    #[test]
    fn lossy_read_recovers_good_lines() {
        let good = write_jsonl(&sample());
        let mut corrupted = String::new();
        for (i, line) in good.lines().enumerate() {
            if i == 2 {
                corrupted.push_str("{\"cycles\": 4, \"track\": \"el2\", \"ty"); // truncated
            } else if i == 4 {
                corrupted.push_str("not json at all");
            } else {
                corrupted.push_str(line);
            }
            corrupted.push('\n');
        }
        let trace = read_jsonl_lossy(&corrupted);
        assert_eq!(trace.events.len(), sample().len() - 2);
        assert_eq!(trace.skipped, 2);
        assert_eq!(trace.skip_details.len(), 2);
        assert_eq!(trace.skip_details[0].0, 3); // 1-based line numbers
        assert_eq!(trace.skip_details[1].0, 5);
    }

    #[test]
    fn lossy_read_of_clean_trace_skips_nothing() {
        let trace = read_jsonl_lossy(&write_jsonl(&sample()));
        assert_eq!(trace.events, sample());
        assert_eq!(trace.skipped, 0);
        assert!(trace.skip_details.is_empty());
    }

    #[test]
    fn tree_nests_across_tracks() {
        let tree = SpanTree::build(&sample());
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.unmatched_ends, 0);
        assert_eq!(tree.left_open, 0);
        let syscall = &tree.roots[0];
        assert_eq!(syscall.kind, SpanKind::Syscall);
        assert_eq!(syscall.marks.len(), 1);
        assert_eq!(syscall.children.len(), 1);
        let verify = &syscall.children[0];
        assert_eq!(verify.kind, SpanKind::HypercallVerify);
        assert_eq!(verify.children[0].kind, SpanKind::Stage2Check);
        // syscall total 20, verify total 8 → syscall self 12.
        assert_eq!(syscall.total_cycles(tree.last_cycles), 20);
        assert_eq!(syscall.self_cycles(tree.last_cycles), 12);
        // verify total 8, inner check 4 → verify self 4.
        assert_eq!(verify.self_cycles(tree.last_cycles), 4);
    }

    #[test]
    fn aborted_span_stays_open_without_shearing_the_tree() {
        let events = vec![
            Event::begin(0, Track::El1, SpanKind::Syscall, 1),
            // An EL2 check whose End was lost (truncated capture).
            Event::begin(5, Track::El2, SpanKind::HypercallVerify, 2),
            Event::end(30, Track::El1, SpanKind::Syscall, 0),
            Event::begin(40, Track::El1, SpanKind::Syscall, 3),
            Event::end(50, Track::El1, SpanKind::Syscall, 0),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.roots.len(), 2);
        assert_eq!(tree.implicitly_closed, 1);
        assert_eq!(tree.left_open, 0);
        let first = &tree.roots[0];
        assert_eq!(first.end, Some(30));
        // The aborted inner span was folded into the outer one, open.
        assert_eq!(first.children.len(), 1);
        assert_eq!(first.children[0].end, None);
        assert_eq!(tree.roots[1].begin, 40);
    }

    #[test]
    fn nested_same_kind_spans_pair_innermost_first() {
        // Mirrors the registry's pairing semantics: with identical
        // (track, kind), an End always closes the innermost Begin.
        let events = vec![
            Event::begin(0, Track::El1, SpanKind::Syscall, 1),
            Event::begin(5, Track::El1, SpanKind::Syscall, 2),
            Event::end(30, Track::El1, SpanKind::Syscall, 0),
            Event::end(90, Track::El1, SpanKind::Syscall, 0),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].end, Some(90));
        assert_eq!(tree.roots[0].children[0].end, Some(30));
        assert_eq!(tree.implicitly_closed, 0);
    }

    #[test]
    fn unmatched_end_and_trailing_open_are_counted() {
        let events = vec![
            Event::end(3, Track::El2, SpanKind::Stage2Check, 0),
            Event::begin(10, Track::El1, SpanKind::MbmIrqService, 5),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.unmatched_ends, 1);
        assert_eq!(tree.left_open, 1);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].end, None);
        assert_eq!(tree.roots[0].total_cycles(tree.last_cycles), 0);
    }

    #[test]
    fn marks_outside_spans_are_orphans() {
        let events = vec![
            Event::mark(1, Track::Mbm, PointKind::MbmFifoPush, 0x40, 7),
            Event::begin(2, Track::El1, SpanKind::Syscall, 0),
            Event::mark(3, Track::Mbm, PointKind::MbmWatchHit, 0x40, 7),
            Event::end(4, Track::El1, SpanKind::Syscall, 0),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.orphan_marks.len(), 1);
        assert_eq!(tree.roots[0].marks.len(), 1);
        assert_eq!(tree.span_count(), 1);
    }
}
