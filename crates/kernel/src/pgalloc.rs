//! Physical frame allocator.
//!
//! A simple bump-then-freelist allocator over the kernel's frame pool.
//! Deterministic (no randomness) so whole-system runs are reproducible.

use hypernel_machine::addr::{PhysAddr, PAGE_SIZE};

/// Error returned when the frame pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfFramesError;

impl std::fmt::Display for OutOfFramesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "physical frame pool exhausted")
    }
}

impl std::error::Error for OutOfFramesError {}

/// Allocator of 4 KiB physical frames.
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_kernel::pgalloc::FrameAllocator;
///
/// let mut alloc = FrameAllocator::new(PhysAddr::new(0x10_0000), PhysAddr::new(0x20_0000));
/// let frame = alloc.alloc()?;
/// assert!(frame.is_page_aligned());
/// alloc.free(frame);
/// # Ok::<(), hypernel_kernel::pgalloc::OutOfFramesError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    next: u64,
    end: u64,
    free_list: Vec<PhysAddr>,
    allocated: u64,
    freed: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `[base, end)`.
    ///
    /// # Panics
    ///
    /// Panics unless both bounds are page-aligned and the range is
    /// non-empty.
    pub fn new(base: PhysAddr, end: PhysAddr) -> Self {
        assert!(
            base.is_page_aligned() && end.is_page_aligned(),
            "bounds must be page-aligned"
        );
        assert!(base < end, "empty frame pool");
        Self {
            next: base.raw(),
            end: end.raw(),
            free_list: Vec::new(),
            allocated: 0,
            freed: 0,
        }
    }

    /// Allocates one frame. Fresh (never-used) frames are preferred over
    /// recycled ones — as in a real kernel with ample memory, where the
    /// page allocator keeps handing out cold pages. Under a lazily
    /// populated hypervisor this is what makes every fork/exec keep
    /// paying stage-2 faults, exactly as the paper's KVM baseline does.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFramesError`] when the pool is exhausted.
    pub fn alloc(&mut self) -> Result<PhysAddr, OutOfFramesError> {
        self.allocated += 1;
        if self.next < self.end {
            let frame = PhysAddr::new(self.next);
            self.next += PAGE_SIZE;
            return Ok(frame);
        }
        if let Some(frame) = self.free_list.pop() {
            return Ok(frame);
        }
        self.allocated -= 1;
        Err(OutOfFramesError)
    }

    /// Allocates `n` frames (not necessarily contiguous).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFramesError`] if fewer than `n` frames remain; no
    /// frames are leaked on failure.
    pub fn alloc_many(&mut self, n: usize) -> Result<Vec<PhysAddr>, OutOfFramesError> {
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            match self.alloc() {
                Ok(f) => frames.push(f),
                Err(e) => {
                    for f in frames {
                        self.free(f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(frames)
    }

    /// Returns a frame to the pool.
    pub fn free(&mut self, frame: PhysAddr) {
        debug_assert!(frame.is_page_aligned());
        self.freed += 1;
        self.free_list.push(frame);
    }

    /// Frames currently live (allocated minus freed).
    pub fn live(&self) -> u64 {
        self.allocated - self.freed
    }

    /// Total allocations performed.
    pub fn allocated_total(&self) -> u64 {
        self.allocated
    }

    /// The bump watermark: every frame below this address has been handed
    /// out at least once.
    pub fn fresh_watermark(&self) -> PhysAddr {
        PhysAddr::new(self.next)
    }

    /// Frames currently sitting in the free list (allocated once, then
    /// returned) — the ownership sanitizer seeds these as `Free`.
    pub fn free_frames(&self) -> &[PhysAddr] {
        &self.free_list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_frames_preferred_over_recycled() {
        let mut a = FrameAllocator::new(PhysAddr::new(0x1000), PhysAddr::new(0x4000));
        let f1 = a.alloc().unwrap();
        let _f2 = a.alloc().unwrap();
        a.free(f1);
        // A fresh frame remains, so the freed one is NOT reused yet.
        let f3 = a.alloc().unwrap();
        assert_eq!(f3, PhysAddr::new(0x3000));
        // Pool exhausted: now recycling kicks in.
        let f4 = a.alloc().unwrap();
        assert_eq!(f4, f1);
        assert_eq!(a.live(), 3);
    }

    #[test]
    fn exhaustion() {
        let mut a = FrameAllocator::new(PhysAddr::new(0x1000), PhysAddr::new(0x3000));
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(OutOfFramesError));
    }

    #[test]
    fn alloc_many_rolls_back_on_failure() {
        let mut a = FrameAllocator::new(PhysAddr::new(0x1000), PhysAddr::new(0x3000));
        assert!(a.alloc_many(3).is_err());
        assert_eq!(a.live(), 0);
        assert_eq!(a.alloc_many(2).unwrap().len(), 2);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            OutOfFramesError.to_string(),
            "physical frame pool exhausted"
        );
    }
}
