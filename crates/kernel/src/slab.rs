//! Slab allocator for kernel objects.
//!
//! Objects of one type are packed into dedicated pages, as the Linux slab
//! allocator does. This packing is what the paper's Table 2 estimation
//! leans on: "the number of interrupts that occur when monitoring the
//! entire object would be the same as the number of faults that occur
//! when the target kernel data objects are aggregated in specific pages"
//! and those pages are monitored read-only (§7.2).

use hypernel_machine::addr::{PhysAddr, PAGE_SIZE};

use crate::kobj::ObjectKind;
use crate::pgalloc::{FrameAllocator, OutOfFramesError};

/// Statistics for one slab cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Objects currently allocated.
    pub live: u64,
    /// Total allocations performed.
    pub allocated_total: u64,
    /// Backing pages acquired from the frame allocator.
    pub pages: u64,
}

/// A slab cache for one [`ObjectKind`].
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_kernel::kobj::ObjectKind;
/// use hypernel_kernel::pgalloc::FrameAllocator;
/// use hypernel_kernel::slab::SlabCache;
///
/// let mut frames = FrameAllocator::new(PhysAddr::new(0x10_0000), PhysAddr::new(0x20_0000));
/// let mut creds = SlabCache::new(ObjectKind::Cred);
/// let a = creds.alloc(&mut frames)?;
/// let b = creds.alloc(&mut frames)?;
/// assert_eq!(a.page_base(), b.page_base(), "objects pack into one page");
/// # Ok::<(), hypernel_kernel::pgalloc::OutOfFramesError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlabCache {
    kind: ObjectKind,
    partial: Vec<(PhysAddr, u64)>, // (page, next slot index)
    free_objects: Vec<PhysAddr>,
    stats: SlabStats,
}

impl SlabCache {
    /// Creates an empty cache for `kind`.
    pub fn new(kind: ObjectKind) -> Self {
        Self {
            kind,
            partial: Vec::new(),
            free_objects: Vec::new(),
            stats: SlabStats::default(),
        }
    }

    /// The object type this cache serves.
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// Objects per backing page.
    pub fn slots_per_page(&self) -> u64 {
        PAGE_SIZE / self.kind.bytes()
    }

    /// Allocates one object, taking a fresh page from `frames` when no
    /// slot is free.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFramesError`] if a new backing page is needed but
    /// the pool is exhausted.
    pub fn alloc(&mut self, frames: &mut FrameAllocator) -> Result<PhysAddr, OutOfFramesError> {
        self.stats.allocated_total += 1;
        self.stats.live += 1;
        if let Some(obj) = self.free_objects.pop() {
            return Ok(obj);
        }
        if let Some((page, slot)) = self.partial.last_mut() {
            let obj = page.add(*slot * self.kind.bytes());
            *slot += 1;
            if *slot >= self.slots_per_page() {
                self.partial.pop();
            }
            return Ok(obj);
        }
        let page = match frames.alloc() {
            Ok(p) => p,
            Err(e) => {
                self.stats.allocated_total -= 1;
                self.stats.live -= 1;
                return Err(e);
            }
        };
        self.stats.pages += 1;
        self.partial.push((page, 1));
        Ok(page)
    }

    /// Returns an object slot to the cache. Pages are never returned to
    /// the frame allocator (matching slab behaviour under steady churn).
    pub fn free(&mut self, obj: PhysAddr) {
        debug_assert!(
            obj.offset_from(obj.page_base())
                .is_multiple_of(self.kind.bytes()),
            "address is not an object slot boundary"
        );
        self.stats.live -= 1;
        self.free_objects.push(obj);
    }

    /// Statistics.
    pub fn stats(&self) -> SlabStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> FrameAllocator {
        FrameAllocator::new(PhysAddr::new(0x10_0000), PhysAddr::new(0x40_0000))
    }

    #[test]
    fn packs_objects_into_pages() {
        let mut f = frames();
        let mut cache = SlabCache::new(ObjectKind::Cred);
        let per_page = cache.slots_per_page();
        assert_eq!(per_page, 32); // 4096 / 128
        let objs: Vec<_> = (0..per_page)
            .map(|_| cache.alloc(&mut f).unwrap())
            .collect();
        assert!(objs.iter().all(|o| o.page_base() == objs[0].page_base()));
        assert_eq!(cache.stats().pages, 1);
        // One more spills to a second page.
        let next = cache.alloc(&mut f).unwrap();
        assert_ne!(next.page_base(), objs[0].page_base());
        assert_eq!(cache.stats().pages, 2);
    }

    #[test]
    fn objects_are_disjoint() {
        let mut f = frames();
        let mut cache = SlabCache::new(ObjectKind::Dentry);
        let a = cache.alloc(&mut f).unwrap();
        let b = cache.alloc(&mut f).unwrap();
        assert_eq!(b.offset_from(a), ObjectKind::Dentry.bytes());
    }

    #[test]
    fn free_slot_is_reused() {
        let mut f = frames();
        let mut cache = SlabCache::new(ObjectKind::Cred);
        let a = cache.alloc(&mut f).unwrap();
        let _b = cache.alloc(&mut f).unwrap();
        cache.free(a);
        assert_eq!(cache.alloc(&mut f).unwrap(), a);
        assert_eq!(cache.stats().live, 2);
        assert_eq!(cache.stats().allocated_total, 3);
    }

    #[test]
    fn dentry_slots_leave_tail_slack() {
        let cache = SlabCache::new(ObjectKind::Dentry);
        // 4096 / 192 = 21 slots, 64 bytes of tail slack — objects never
        // straddle a page boundary.
        assert_eq!(cache.slots_per_page(), 21);
    }

    #[test]
    fn exhaustion_is_clean() {
        let mut tiny = FrameAllocator::new(PhysAddr::new(0x1000), PhysAddr::new(0x2000));
        let mut cache = SlabCache::new(ObjectKind::Cred);
        for _ in 0..32 {
            cache.alloc(&mut tiny).unwrap();
        }
        assert!(cache.alloc(&mut tiny).is_err());
        assert_eq!(cache.stats().live, 32);
    }
}
