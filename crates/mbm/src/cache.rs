//! The MBM's internal bitmap cache.
//!
//! "Since accessing the main memory and fetching the bitmap data for every
//! write event in the same region is inefficient, we implemented a bitmap
//! cache in MBM. The bitmap cache follows the read-allocate cache policy
//! and is updated when a memory write event to the bitmap is detected"
//! (paper §6.3).
//!
//! Each cache entry holds one 64-bit bitmap word (covering 64 monitored
//! words = 512 bytes of the window). Coherence is maintained by snooping:
//! the MBM watches bus writes into the bitmap storage region and
//! invalidates the matching entry.

use std::collections::VecDeque;

use hypernel_machine::addr::PhysAddr;
use hypernel_machine::fxhash::FxHashMap;

/// Statistics for the bitmap cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitmapCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to fetch from DRAM.
    pub misses: u64,
    /// Entries invalidated by snooped bitmap writes.
    pub invalidations: u64,
    /// Entries discarded by capacity replacement.
    pub evictions: u64,
}

impl BitmapCacheStats {
    /// Hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Read-allocate cache of bitmap words, keyed by the word's physical
/// address.
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_mbm::cache::BitmapCache;
///
/// let mut cache = BitmapCache::new(16);
/// let addr = PhysAddr::new(0x1000);
/// assert_eq!(cache.lookup(addr), None);       // miss
/// cache.fill(addr, 0b1010);                   // read-allocate
/// assert_eq!(cache.lookup(addr), Some(0b1010));
/// ```
#[derive(Debug, Clone)]
pub struct BitmapCache {
    entries: FxHashMap<u64, u64>,
    order: VecDeque<u64>,
    capacity: usize,
    enabled: bool,
    stats: BitmapCacheStats,
}

impl BitmapCache {
    /// Creates a cache holding `capacity` bitmap words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`BitmapCache::disabled`] to
    /// model a cacheless MBM for the ablation study).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            entries: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            enabled: true,
            stats: BitmapCacheStats::default(),
        }
    }

    /// Creates a disabled cache: every lookup misses. Used by the
    /// bitmap-cache ablation bench to quantify the design choice.
    pub fn disabled() -> Self {
        Self {
            entries: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: 1,
            enabled: false,
            stats: BitmapCacheStats::default(),
        }
    }

    /// Returns `true` if caching is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Statistics.
    pub fn stats(&self) -> BitmapCacheStats {
        self.stats
    }

    /// Zeroes the statistics; the resident entries stay.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = BitmapCacheStats::default();
    }

    /// Looks up the cached value of the bitmap word at `addr`.
    pub fn lookup(&mut self, addr: PhysAddr) -> Option<u64> {
        if !self.enabled {
            self.stats.misses += 1;
            return None;
        }
        match self.entries.get(&addr.raw()).copied() {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Non-mutating lookup: the cached value of the bitmap word at
    /// `addr`, with no statistics or replacement side effects. The
    /// host-side watch-word filter probes with it, then charges what
    /// it skipped with [`BitmapCache::charge_lookups`].
    pub fn peek(&self, addr: PhysAddr) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        self.entries.get(&addr.raw()).copied()
    }

    /// Charges `n` lookups of the word at `addr`, each miss followed by
    /// a fill of `value`, given what [`BitmapCache::peek`] just found
    /// (`resident`) instead of probing again. Returns the misses, each a
    /// DRAM fetch.
    pub fn charge_lookups(&mut self, addr: PhysAddr, value: u64, resident: bool, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        if resident {
            self.stats.hits += n;
            return 0;
        }
        if !self.enabled {
            self.stats.misses += n;
            return n;
        }
        self.stats.misses += 1;
        self.stats.hits += n - 1;
        self.fill(addr, value);
        1
    }

    /// Installs a word fetched from DRAM (read-allocate policy).
    pub fn fill(&mut self, addr: PhysAddr, value: u64) {
        if !self.enabled {
            return;
        }
        if self.entries.insert(addr.raw(), value).is_none() {
            self.order.push_back(addr.raw());
            if self.entries.len() > self.capacity {
                while let Some(old) = self.order.pop_front() {
                    if self.entries.remove(&old).is_some() {
                        self.stats.evictions += 1;
                        break;
                    }
                }
            }
        }
    }

    /// Snooped a write of `value` to the bitmap word at `addr`: update the
    /// cached copy if resident ("updated when a memory write event to the
    /// bitmap is detected").
    pub fn snoop_update(&mut self, addr: PhysAddr, value: u64) {
        if !self.enabled {
            return;
        }
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.entries.entry(addr.raw()) {
            e.insert(value);
            self.stats.invalidations += 1;
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_allocate_cycle() {
        let mut c = BitmapCache::new(4);
        let a = PhysAddr::new(0x100);
        assert_eq!(c.lookup(a), None);
        c.fill(a, 7);
        assert_eq!(c.lookup(a), Some(7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn snoop_update_refreshes_resident_entry() {
        let mut c = BitmapCache::new(4);
        let a = PhysAddr::new(0x100);
        c.fill(a, 1);
        c.snoop_update(a, 3);
        assert_eq!(c.lookup(a), Some(3));
        assert_eq!(c.stats().invalidations, 1);
        // Snooping a non-resident word does nothing.
        c.snoop_update(PhysAddr::new(0x200), 9);
        assert_eq!(c.lookup(PhysAddr::new(0x200)), None);
    }

    #[test]
    fn capacity_eviction() {
        let mut c = BitmapCache::new(2);
        c.fill(PhysAddr::new(0x0), 0);
        c.fill(PhysAddr::new(0x8), 1);
        c.fill(PhysAddr::new(0x10), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.lookup(PhysAddr::new(0x0)), None);
        assert_eq!(c.lookup(PhysAddr::new(0x10)), Some(2));
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = BitmapCache::disabled();
        assert!(!c.is_enabled());
        let a = PhysAddr::new(0x100);
        c.fill(a, 7);
        assert_eq!(c.lookup(a), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hit_rate() {
        let mut c = BitmapCache::new(2);
        assert!(c.stats().hit_rate().is_none());
        c.lookup(PhysAddr::new(0));
        c.fill(PhysAddr::new(0), 0);
        c.lookup(PhysAddr::new(0));
        assert_eq!(c.stats().hit_rate(), Some(0.5));
    }
}
