//! [`RingSink`], the bounded raw-event ring the [`Telemetry`]
//! recorder keeps beside its aggregates.
//!
//! [`Telemetry`]: crate::registry::Telemetry

use crate::event::Event;
use std::collections::VecDeque;

/// A bounded in-memory event buffer. When full, the oldest events are
/// evicted; [`RingSink::dropped`] reports how many, so exporters can
/// say "truncated" instead of silently pretending full coverage.
#[derive(Debug, Clone)]
pub struct RingSink {
    events: VecDeque<Event>,
    capacity: usize,
    recorded_total: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity,
            recorded_total: 0,
        }
    }

    /// Appends one event, evicting the oldest when the ring is full.
    pub fn record(&mut self, event: &Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(*event);
        self.recorded_total += 1;
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Copies the buffered events out, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().copied().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded_total(&self) -> u64 {
        self.recorded_total
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded_total - self.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PointKind, Track};

    fn mark(cycles: u64) -> Event {
        Event::mark(cycles, Track::El1, PointKind::Wfi, 0, 0)
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&mark(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded_total(), 5);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<u64> = ring.events().map(|e| e.cycles).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut ring = RingSink::new(8);
        ring.record(&mark(1));
        ring.record(&mark(2));
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.to_vec().len(), 2);
    }
}
