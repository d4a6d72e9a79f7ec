//! Robustness of the analysis-side ingestion paths: corrupted trace
//! files must not abort a read, and ring-buffer eviction must stay
//! honest when it splits a begin/end pair.

use hypernel_telemetry::export::write_jsonl;
use hypernel_telemetry::reader::read_jsonl_lossy;
use hypernel_telemetry::{Event, PointKind, RingSink, SpanKind, SpanTree, Telemetry, Track};

fn span_pair(base: u64) -> [Event; 2] {
    [
        Event::begin(base, Track::El2, SpanKind::HypercallVerify, 1),
        Event::end(base + 10, Track::El2, SpanKind::HypercallVerify, 0),
    ]
}

#[test]
fn corrupted_trace_file_reads_lossy_but_not_strict() {
    let mut events = Vec::new();
    for i in 0..50u64 {
        events.extend(span_pair(i * 100));
    }
    let clean = write_jsonl(&events);

    // Corrupt the file the way real captures break: a line truncated
    // mid-write (crashed run), a line of garbage, and a well-formed JSON
    // object that is not an event.
    let mut corrupted = String::new();
    for (i, line) in clean.lines().enumerate() {
        match i {
            10 => corrupted.push_str(&line[..line.len() / 2]),
            20 => corrupted.push_str("\u{0}\u{0}garbage\u{0}"),
            30 => corrupted.push_str("{\"cycles\": 1, \"unrelated\": true}"),
            _ => corrupted.push_str(line),
        }
        corrupted.push('\n');
    }

    let path = std::env::temp_dir().join("hypernel-telemetry-corrupted-trace.jsonl");
    std::fs::write(&path, &corrupted).expect("write temp trace");
    let read_back = std::fs::read_to_string(&path).expect("read temp trace");
    let _ = std::fs::remove_file(&path);

    // The reader does not abort on the damage: it recovers everything
    // else and counts what it skipped.
    let trace = read_jsonl_lossy(&read_back);
    assert_eq!(trace.events.len(), events.len() - 3);
    assert_eq!(trace.skipped, 3);
    assert_eq!(
        trace
            .skip_details
            .iter()
            .map(|(l, _)| *l)
            .collect::<Vec<_>>(),
        vec![11, 21, 31]
    );

    // The recovered stream is still analyzable: the three broken lines
    // split at most three begin/end pairs.
    let tree = SpanTree::build(&trace.events);
    assert!(tree.span_count() >= events.len() / 2 - 3);
    assert!(tree.unmatched_ends + tree.left_open <= 3);
}

#[test]
fn ring_overflow_mid_span_keeps_unmatched_ends_honest() {
    // Capacity 8: one span begin, then enough marks to evict it, then
    // the end. The exported window now contains an End with no Begin.
    let mut ring = RingSink::new(8);
    ring.record(&Event::begin(0, Track::El1, SpanKind::Syscall, 7));
    for i in 0..10u64 {
        ring.record(&Event::mark(1 + i, Track::El1, PointKind::Wfi, 0, 0));
    }
    ring.record(&Event::end(100, Track::El1, SpanKind::Syscall, 0));

    assert_eq!(ring.len(), 8);
    assert_eq!(ring.recorded_total(), 12);
    assert_eq!(ring.dropped(), 4);

    // Replaying the surviving window into an aggregator must report the
    // orphaned End rather than inventing a latency for it.
    let mut registry = Telemetry::new(16);
    for event in ring.to_vec() {
        registry.record(&event);
    }
    assert_eq!(registry.unmatched_ends(), 1);
    assert!(registry.histogram(Track::El1, SpanKind::Syscall).is_none());

    // The tree builder reaches the same verdict from the same window.
    let tree = SpanTree::build(&ring.to_vec());
    assert_eq!(tree.unmatched_ends, 1);
    assert_eq!(tree.span_count(), 0);
}

#[test]
fn ring_overflow_dropping_the_end_leaves_the_span_open() {
    // Mirror case: the Begin survives, the End was never recorded
    // because the run stopped. Nothing should pair.
    let mut ring = RingSink::new(4);
    ring.record(&Event::begin(0, Track::El2, SpanKind::MbmDrain, 3));
    ring.record(&Event::mark(1, Track::Mbm, PointKind::MbmFifoPush, 0x40, 1));
    let mut registry = Telemetry::new(16);
    for event in ring.to_vec() {
        registry.record(&event);
    }
    assert_eq!(registry.open_span_count(), 1);
    assert_eq!(registry.unmatched_ends(), 0);
    let tree = SpanTree::build(&ring.to_vec());
    assert_eq!(tree.left_open, 1);
}
