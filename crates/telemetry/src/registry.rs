//! The [`Telemetry`] recorder: the one pipeline every event takes.
//!
//! It keeps the raw event stream in a bounded [`RingSink`] for export
//! and turns the same stream into aggregate measurements. Begin/end
//! pairs are matched per `(track, span kind)` with a stack, so nested
//! spans of the same kind on one track pair innermost-first. The
//! resulting latencies feed per-span [`Histogram`]s; point events feed
//! counters. [`Telemetry::snapshot`] freezes the aggregates into a
//! [`Snapshot`], and [`Snapshot::since`] diffs two snapshots to isolate
//! one phase of a run.

use crate::event::{Event, EventKind, PointKind, SpanKind, Track};
use crate::histogram::{Histogram, HistogramSummary};
use crate::sink::RingSink;
use std::collections::BTreeMap;

/// The telemetry recorder: the raw-event ring, span latency histograms
/// and point-event counters, all fed by [`Telemetry::record`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    ring: RingSink,
    histograms: BTreeMap<(Track, SpanKind), Histogram>,
    open_spans: BTreeMap<(Track, SpanKind), Vec<u64>>,
    counters: BTreeMap<(Track, PointKind), u64>,
    /// `End` events that arrived with no matching `Begin`.
    unmatched_ends: u64,
}

impl Telemetry {
    /// An empty recorder whose ring keeps the newest `ring_capacity`
    /// raw events (min 1).
    pub fn new(ring_capacity: usize) -> Self {
        Self {
            ring: RingSink::new(ring_capacity),
            histograms: BTreeMap::new(),
            open_spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            unmatched_ends: 0,
        }
    }

    /// Records one event: into the ring, and into the aggregates.
    pub fn record(&mut self, event: &Event) {
        self.ring.record(event);
        match event.kind {
            EventKind::Begin(span, _) => {
                self.open_spans
                    .entry((event.track, span))
                    .or_default()
                    .push(event.cycles);
            }
            EventKind::End(span, _) => {
                let stack = self.open_spans.entry((event.track, span)).or_default();
                match stack.pop() {
                    Some(begin) => {
                        let latency = event.cycles.saturating_sub(begin);
                        self.histograms
                            .entry((event.track, span))
                            .or_default()
                            .record(latency);
                    }
                    None => self.unmatched_ends += 1,
                }
            }
            EventKind::Mark(point, _, _) => {
                *self.counters.entry((event.track, point)).or_insert(0) += 1;
            }
        }
    }

    /// The raw events still buffered, with the count of evicted ones.
    pub fn ring(&self) -> &RingSink {
        &self.ring
    }

    /// The latency histogram for one span kind on one track, if any
    /// spans completed there.
    pub fn histogram(&self, track: Track, span: SpanKind) -> Option<&Histogram> {
        self.histograms.get(&(track, span))
    }

    /// The count of one point event on one track.
    pub fn counter(&self, track: Track, point: PointKind) -> u64 {
        self.counters.get(&(track, point)).copied().unwrap_or(0)
    }

    /// The count of one point event summed across tracks.
    pub fn total(&self, point: PointKind) -> u64 {
        self.counters
            .iter()
            .filter(|((_, p), _)| *p == point)
            .map(|(_, n)| n)
            .sum()
    }

    /// Spans currently open (begun but not yet ended).
    pub fn open_span_count(&self) -> usize {
        self.open_spans.values().map(Vec::len).sum()
    }

    /// `End` events that had no matching `Begin`.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// Freezes the current aggregates.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            spans: self
                .histograms
                .iter()
                .map(|(k, h)| (*k, h.summary()))
                .collect(),
            counters: self.counters.clone(),
            open_spans: self.open_span_count() as u64,
            unmatched_ends: self.unmatched_ends,
        }
    }
}

/// A frozen view of a [`Telemetry`] recorder's aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Latency summaries per `(track, span kind)`.
    pub spans: BTreeMap<(Track, SpanKind), HistogramSummary>,
    /// Point-event counts per `(track, point kind)`.
    pub counters: BTreeMap<(Track, PointKind), u64>,
    /// Spans still open at snapshot time.
    pub open_spans: u64,
    /// `End` events with no matching `Begin`.
    pub unmatched_ends: u64,
}

impl Snapshot {
    /// Counter and span-count deltas since `earlier` (histogram
    /// percentiles are not diffable; the delta reports counts and total
    /// span activity instead).
    pub fn since(&self, earlier: &Snapshot) -> SnapshotDelta {
        let mut counters = BTreeMap::new();
        for (key, now) in &self.counters {
            let before = earlier.counters.get(key).copied().unwrap_or(0);
            if *now != before {
                counters.insert(*key, now.saturating_sub(before));
            }
        }
        let mut span_counts = BTreeMap::new();
        for (key, now) in &self.spans {
            let before = earlier.spans.get(key).map(|s| s.count).unwrap_or(0);
            if now.count != before {
                span_counts.insert(*key, now.count.saturating_sub(before));
            }
        }
        SnapshotDelta {
            counters,
            span_counts,
        }
    }
}

/// What changed between two [`Snapshot`]s; zero-delta entries are omitted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    /// Point-event count increases.
    pub counters: BTreeMap<(Track, PointKind), u64>,
    /// Completed-span count increases.
    pub span_counts: BTreeMap<(Track, SpanKind), u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_pair_into_latencies() {
        let mut t = Telemetry::new(16);
        t.record(&Event::begin(100, Track::El2, SpanKind::HypercallVerify, 1));
        t.record(&Event::end(150, Track::El2, SpanKind::HypercallVerify, 0));
        t.record(&Event::begin(200, Track::El2, SpanKind::HypercallVerify, 2));
        t.record(&Event::end(280, Track::El2, SpanKind::HypercallVerify, 0));
        let h = t.histogram(Track::El2, SpanKind::HypercallVerify).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(50));
        assert_eq!(h.max(), Some(80));
        assert_eq!(t.open_span_count(), 0);
    }

    #[test]
    fn nested_same_kind_spans_pair_innermost_first() {
        let mut t = Telemetry::new(16);
        t.record(&Event::begin(0, Track::El1, SpanKind::Syscall, 0));
        t.record(&Event::begin(10, Track::El1, SpanKind::Syscall, 1));
        t.record(&Event::end(15, Track::El1, SpanKind::Syscall, 0)); // inner: 5
        t.record(&Event::end(100, Track::El1, SpanKind::Syscall, 0)); // outer: 100
        let h = t.histogram(Track::El1, SpanKind::Syscall).unwrap();
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn tracks_are_independent() {
        let mut t = Telemetry::new(16);
        t.record(&Event::begin(0, Track::El1, SpanKind::MbmIrqService, 0));
        t.record(&Event::begin(5, Track::El2, SpanKind::MbmIrqService, 0));
        t.record(&Event::end(30, Track::El2, SpanKind::MbmIrqService, 0));
        assert_eq!(t.open_span_count(), 1);
        assert!(t.histogram(Track::El1, SpanKind::MbmIrqService).is_none());
        let el2 = t.histogram(Track::El2, SpanKind::MbmIrqService).unwrap();
        assert_eq!(el2.count(), 1);
        assert_eq!(el2.max(), Some(25));
    }

    #[test]
    fn unmatched_end_is_counted_not_paired() {
        let mut t = Telemetry::new(16);
        t.record(&Event::end(9, Track::El2, SpanKind::Stage2Check, 0));
        assert_eq!(t.unmatched_ends(), 1);
        assert!(t.histogram(Track::El2, SpanKind::Stage2Check).is_none());
    }

    #[test]
    fn marks_count_per_track_and_in_total() {
        let mut t = Telemetry::new(16);
        t.record(&Event::mark(1, Track::Mbm, PointKind::MbmFifoPush, 0x40, 7));
        t.record(&Event::mark(2, Track::Mbm, PointKind::MbmFifoPush, 0x48, 8));
        t.record(&Event::mark(3, Track::El1, PointKind::TlbMaintenance, 4, 0));
        assert_eq!(t.counter(Track::Mbm, PointKind::MbmFifoPush), 2);
        assert_eq!(t.counter(Track::El1, PointKind::MbmFifoPush), 0);
        assert_eq!(t.total(PointKind::MbmFifoPush), 2);
        assert_eq!(t.total(PointKind::TlbMaintenance), 1);
    }

    #[test]
    fn snapshot_diff_isolates_a_phase() {
        let mut t = Telemetry::new(16);
        t.record(&Event::mark(1, Track::El1, PointKind::Hypercall, 1, 0));
        t.record(&Event::begin(0, Track::El2, SpanKind::HypercallVerify, 1));
        t.record(&Event::end(40, Track::El2, SpanKind::HypercallVerify, 0));
        let before = t.snapshot();

        t.record(&Event::mark(50, Track::El1, PointKind::Hypercall, 2, 0));
        t.record(&Event::mark(51, Track::El1, PointKind::Hypercall, 3, 0));
        t.record(&Event::begin(60, Track::El2, SpanKind::HypercallVerify, 2));
        t.record(&Event::end(90, Track::El2, SpanKind::HypercallVerify, 0));
        let after = t.snapshot();

        let delta = after.since(&before);
        assert_eq!(delta.counters[&(Track::El1, PointKind::Hypercall)], 2);
        assert_eq!(
            delta.span_counts[&(Track::El2, SpanKind::HypercallVerify)],
            1
        );
        // Unchanged keys are omitted entirely.
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.span_counts.len(), 1);
    }
}
