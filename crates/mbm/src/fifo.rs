//! The snoop FIFO between the bus traffic snooper and the bitmap
//! translator (paper Fig. 5).
//!
//! The snooper captures write address/value pairs faster than the
//! translator can look them up in DRAM, so a bounded FIFO decouples them.
//! If the FIFO is full the oldest behaviour a real design can afford is to
//! drop the incoming event and count it — that loss is observable in the
//! statistics and exercised by the failure-injection tests.

use std::collections::VecDeque;

use hypernel_machine::addr::PhysAddr;

/// One captured write: address/value pair (paper §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnoopedWrite {
    /// Word-aligned physical address of the write.
    pub addr: PhysAddr,
    /// The value written.
    pub value: u64,
}

/// Bounded FIFO of snooped writes.
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_mbm::fifo::{SnoopFifo, SnoopedWrite};
///
/// let mut fifo = SnoopFifo::new(2);
/// let w = SnoopedWrite { addr: PhysAddr::new(0x8), value: 1 };
/// assert!(fifo.push(w));
/// assert_eq!(fifo.pop(), Some(w));
/// ```
#[derive(Debug, Clone)]
pub struct SnoopFifo {
    queue: VecDeque<SnoopedWrite>,
    capacity: usize,
    pushed: u64,
    dropped: u64,
    high_watermark: usize,
}

impl SnoopFifo {
    /// Creates a FIFO holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be non-zero");
        Self {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            pushed: 0,
            dropped: 0,
            high_watermark: 0,
        }
    }

    /// Enqueues a write. Returns `false` (and counts a drop) if full.
    pub fn push(&mut self, write: SnoopedWrite) -> bool {
        if self.queue.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.queue.push_back(write);
        self.pushed += 1;
        self.high_watermark = self.high_watermark.max(self.queue.len());
        true
    }

    /// Dequeues the oldest write.
    pub fn pop(&mut self) -> Option<SnoopedWrite> {
        self.queue.pop_front()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Capacity the FIFO was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries accepted.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total entries lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue has ever been.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Accounts an occupancy the reference pipeline would have reached
    /// even though the corresponding entries never physically enqueued
    /// (the watch-word filter short-circuits them). Keeps the
    /// high-water mark a model value, identical with the host filter on
    /// or off.
    pub fn note_occupancy(&mut self, depth: usize) {
        self.high_watermark = self.high_watermark.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(addr: u64) -> SnoopedWrite {
        SnoopedWrite {
            addr: PhysAddr::new(addr),
            value: addr ^ 0xFF,
        }
    }

    #[test]
    fn fifo_order() {
        let mut f = SnoopFifo::new(4);
        for i in 0..3 {
            assert!(f.push(w(i * 8)));
        }
        assert_eq!(f.pop().unwrap().addr, PhysAddr::new(0));
        assert_eq!(f.pop().unwrap().addr, PhysAddr::new(8));
        assert_eq!(f.pop().unwrap().addr, PhysAddr::new(16));
        assert!(f.pop().is_none());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut f = SnoopFifo::new(2);
        assert!(f.push(w(0)));
        assert!(f.push(w(8)));
        assert!(!f.push(w(16)));
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.pushed(), 2);
        assert_eq!(f.len(), 2);
        // Drained events are the ones that fit — the overflowed event is
        // gone (the failure mode the monitor must surface).
        assert_eq!(f.pop().unwrap().addr, PhysAddr::new(0));
    }

    #[test]
    fn watermark_tracks_peak() {
        let mut f = SnoopFifo::new(8);
        f.push(w(0));
        f.push(w(8));
        f.pop();
        f.push(w(16));
        assert_eq!(f.high_watermark(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        SnoopFifo::new(0);
    }
}
