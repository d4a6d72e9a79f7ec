//! Write-back, write-allocate data cache model.
//!
//! The cache sits between the CPU and the memory bus. Cacheable stores that
//! hit stay in the cache (dirty) and are invisible on the bus until the
//! line is written back — which is exactly why the paper's Hypersec
//! "modifies the kernel page table so that any cache entry for the page
//! including the monitored region is not generated" (§5.3). Non-cacheable
//! accesses bypass this module entirely.
//!
//! Geometry: physically indexed/tagged, 64-byte lines, set-associative with
//! true-LRU replacement. The platform's cache (`Machine::new`) approximates
//! a Cortex-A57 L1D (32 KiB, 2-way in hardware; we use 4-way × 128 sets =
//! 32 KiB).

use crate::addr::PhysAddr;
use crate::bus::LINE_WORDS;
use hypernel_telemetry::counter;
use hypernel_telemetry::counters::Counter;

/// Line size in bytes (64 B, eight 8-byte words).
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// What the cache needs the machine to do on the bus before an access can
/// complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePlan {
    /// The access hits; no bus traffic required.
    Hit,
    /// The access misses; the machine must (1) write back the evicted dirty
    /// line if present, (2) fill `line` from memory, (3) call
    /// [`DataCache::install`], then retry.
    Refill {
        /// Line-aligned address to fill.
        line: PhysAddr,
        /// Dirty victim to write back first, if any.
        evict: Option<Eviction>,
    },
}

/// The locator of a resident cache line (its flat way index), returned
/// by [`DataCache::install`] so the refilling access can finish — and a
/// block access stream the rest of the line — without another set
/// scan. [`DataCache::replay_run`] re-validates it before trusting it,
/// so a stale locator fails closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHint(usize);

/// A dirty line that must be written back to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: PhysAddr,
    /// Final contents of the victim line.
    pub data: [u64; LINE_WORDS],
}

/// Running statistics for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back (capacity evictions + maintenance).
    pub writebacks: u64,
}

impl CacheStats {
    /// Every counter with its artifact names — the one list of them.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<CacheStats>] = &[
        counter!(hits, report = "cache_hits"),
        counter!(misses, report = "cache_misses"),
        counter!(writebacks),
    ];

    /// Hit rate in `[0, 1]`; `None` before the first access.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// The tag an invalid way holds. A tag is a line index shifted right by
/// the set bits, so no resident line can carry it.
const INVALID_TAG: u64 = u64::MAX;

/// The state of one way beside its tag. Dead while the way is invalid.
#[derive(Debug, Clone, Copy)]
struct Line {
    dirty: bool,
    lru: u64,
    data: [u64; LINE_WORDS],
}

impl Line {
    const EMPTY: Line = Line {
        dirty: false,
        lru: 0,
        data: [0; LINE_WORDS],
    };
}

/// Set-associative write-back data cache.
///
/// The ways are two flat set-major arrays indexed `set * ways + way`: the
/// tags, where an invalid way holds `u64::MAX`, and the line state. A
/// lookup scans one set's slice of tags.
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_machine::cache::{CachePlan, DataCache};
///
/// let mut cache = DataCache::new(128, 4);
/// let pa = PhysAddr::new(0x4000);
/// // First touch misses and asks for a refill.
/// match cache.probe(pa) {
///     CachePlan::Refill { line, evict } => {
///         assert_eq!(line, pa);
///         assert!(evict.is_none());
///         cache.install(line, [0; 8]);
///     }
///     CachePlan::Hit => unreachable!("cold cache cannot hit"),
/// }
/// cache.write_word(pa, 7);
/// assert_eq!(cache.read_word(pa), 7);
/// ```
#[derive(Debug, Clone)]
pub struct DataCache {
    tags: Vec<u64>,
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    tick: u64,
    stats: CacheStats,
}

impl DataCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either parameter is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        Self {
            tags: vec![INVALID_TAG; sets * ways],
            lines: vec![Line::EMPTY; sets * ways],
            sets,
            ways,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.tags.len() as u64 * LINE_SIZE
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.raw() >> LINE_SHIFT;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.sets.trailing_zeros();
        (set, tag)
    }

    fn line_base(&self, addr: PhysAddr) -> PhysAddr {
        PhysAddr::new(addr.raw() & !(LINE_SIZE - 1))
    }

    /// The flat index of the way in `set` holding `tag`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// The flat index of the way holding the line of `addr`.
    #[inline]
    fn find_addr(&self, addr: PhysAddr) -> Option<usize> {
        let (set, tag) = self.index(addr);
        self.find(set, tag)
    }

    /// The flat way `hint` names, if it still holds the line of `addr`.
    #[inline]
    fn located(&self, hint: LineHint, addr: PhysAddr) -> Option<usize> {
        let (set, tag) = self.index(addr);
        let ways = set * self.ways..(set + 1) * self.ways;
        (ways.contains(&hint.0) && self.tags[hint.0] == tag).then_some(hint.0)
    }

    /// Probes for `addr` (read or write — the plan is the same) and records
    /// a hit or miss. On a miss the caller must perform the returned refill
    /// protocol before retrying the word access.
    pub fn probe(&mut self, addr: PhysAddr) -> CachePlan {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        if let Some(i) = self.find(set, tag) {
            self.lines[i].lru = self.tick;
            self.stats.hits += 1;
            return CachePlan::Hit;
        }
        self.stats.misses += 1;
        // Choose victim: invalid way first, else the first least recent.
        let victim = self.find(set, INVALID_TAG).unwrap_or_else(|| {
            let base = set * self.ways;
            (base..base + self.ways)
                .min_by_key(|&i| self.lines[i].lru)
                .expect("ways > 0")
        });
        let victim_tag = self.tags[victim];
        let evict = if victim_tag != INVALID_TAG && self.lines[victim].dirty {
            self.stats.writebacks += 1;
            Some(Eviction {
                addr: self.reconstruct_addr(set, victim_tag),
                data: self.lines[victim].data,
            })
        } else {
            None
        };
        // Mark the victim way invalid so `install` can find it.
        self.tags[victim] = INVALID_TAG;
        CachePlan::Refill {
            line: self.line_base(addr),
            evict,
        }
    }

    fn reconstruct_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let bits = self.sets.trailing_zeros();
        PhysAddr::new(((tag << bits) | set as u64) << LINE_SHIFT)
    }

    /// Installs a freshly fetched line. Must follow a `Refill` plan for the
    /// same line. Returns the line's locator so the caller can finish the
    /// word access without another set scan.
    ///
    /// # Panics
    ///
    /// Panics if the set has no free way (i.e. `probe` was not called or a
    /// different line was probed).
    pub fn install(&mut self, line_addr: PhysAddr, data: [u64; LINE_WORDS]) -> LineHint {
        self.tick += 1;
        let (set, tag) = self.index(line_addr);
        let i = self
            .find(set, INVALID_TAG)
            .expect("install requires a prior Refill probe that freed a way");
        self.tags[i] = tag;
        self.lines[i] = Line {
            dirty: false,
            lru: self.tick,
            data,
        };
        LineHint(i)
    }

    /// Completes the word access that follows a [`DataCache::install`]
    /// through the locator `install` returned — the reference
    /// post-refill [`DataCache::read_word`]/[`DataCache::write_word`]
    /// without the redundant set scan. No stats/LRU bookkeeping, same
    /// as those methods.
    ///
    /// # Panics
    ///
    /// Panics if the hint does not address the line containing `addr`
    /// (the caller must pass the locator of the line it just installed).
    pub fn word_access(&mut self, hint: LineHint, addr: PhysAddr, write: Option<u64>) -> u64 {
        let i = self
            .located(hint, addr)
            .expect("word_access locator does not match the accessed line");
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        let line = &mut self.lines[i];
        match write {
            Some(v) => {
                line.data[word] = v;
                line.dirty = true;
                v
            }
            None => line.data[word],
        }
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `probe`/`install`
    /// first).
    pub fn read_word(&mut self, addr: PhysAddr) -> u64 {
        let i = self
            .find_addr(addr)
            .expect("read_word requires a resident line");
        self.lines[i].data[(addr.raw() >> 3) as usize & (LINE_WORDS - 1)]
    }

    /// Writes the word at `addr` and marks the line dirty.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn write_word(&mut self, addr: PhysAddr, value: u64) {
        let i = self
            .find_addr(addr)
            .expect("write_word requires a resident line");
        let line = &mut self.lines[i];
        line.data[(addr.raw() >> 3) as usize & (LINE_WORDS - 1)] = value;
        line.dirty = true;
    }

    /// Accesses `n` consecutive words of one line, starting at `addr`,
    /// as `n` hits: one tag scan, then the batched bookkeeping of
    /// [`DataCache::replay_run`]. Returns the line's words from `addr`
    /// (length `n`) for the caller to read or fill. On a miss returns
    /// `None` with **no** side effects, so the caller falls back to the
    /// reference [`DataCache::probe`], which then does the miss
    /// bookkeeping exactly once. With `n == 1` this is `probe` followed
    /// by [`DataCache::read_word`]/[`DataCache::write_word`] on a hit.
    #[inline]
    pub fn access_run(&mut self, addr: PhysAddr, n: u64, write: bool) -> Option<&mut [u64]> {
        let i = self.find_addr(addr)?;
        Some(self.hit_run(i, addr, n, write))
    }

    /// Replays `n` consecutive same-line word hits through a locator,
    /// with the batched bookkeeping of [`DataCache::access_run`] but no
    /// set scan. Returns the line's words from `addr` (length `n`) on
    /// success; `None` — with **no** side effects — when the locator is
    /// stale (line evicted, way reused), so the caller can fall back to
    /// [`DataCache::probe`].
    pub fn replay_run(
        &mut self,
        hint: LineHint,
        addr: PhysAddr,
        n: u64,
        write: bool,
    ) -> Option<&mut [u64]> {
        let i = self.located(hint, addr)?;
        Some(self.hit_run(i, addr, n, write))
    }

    /// The bookkeeping of `n` consecutive word hits on flat way `i`.
    ///
    /// Model equivalence: `n` reference hit-probes perform `tick += 1;
    /// line.lru = tick; stats.hits += 1` each plus the word access
    /// (writes set the dirty bit). Intermediate `tick`/`lru` values are
    /// unobservable — hits generate no bus traffic — so batching to
    /// `tick += n; lru = final tick; hits += n` leaves every observable
    /// end state identical. The caller guarantees `addr + 8·n` stays
    /// inside one line and charges the batched simulated cycles.
    #[inline]
    fn hit_run(&mut self, i: usize, addr: PhysAddr, n: u64, write: bool) -> &mut [u64] {
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        debug_assert!(word as u64 + n <= LINE_WORDS as u64, "run crosses a line");
        self.tick += n;
        self.stats.hits += n;
        let line = &mut self.lines[i];
        line.lru = self.tick;
        if write {
            line.dirty = true;
        }
        &mut line.data[word..word + n as usize]
    }

    /// Cleans and invalidates every line inside the 4 KiB page containing
    /// `page_addr`, returning dirty lines that must be written back, in
    /// line-address order (the order their bus writebacks are snooped).
    ///
    /// Hypersec performs this maintenance when it makes a page
    /// non-cacheable so that stale dirty data cannot shadow future
    /// bus-visible writes.
    pub fn clean_invalidate_page(&mut self, page_addr: PhysAddr) -> Vec<Eviction> {
        let base = page_addr.page_base();
        let mut out = Vec::new();
        for offset in (0..crate::addr::PAGE_SIZE).step_by(LINE_SIZE as usize) {
            let line_addr = base.add(offset);
            if let Some(i) = self.find_addr(line_addr) {
                if self.lines[i].dirty {
                    self.stats.writebacks += 1;
                    out.push(Eviction {
                        addr: line_addr,
                        data: self.lines[i].data,
                    });
                }
                self.tags[i] = INVALID_TAG;
            }
        }
        out
    }

    /// Invalidates the whole cache, returning all dirty lines for
    /// write-back in set-major order.
    pub fn clean_invalidate_all(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for (i, &tag) in self.tags.iter().enumerate() {
            if tag != INVALID_TAG && self.lines[i].dirty {
                out.push(Eviction {
                    addr: self.reconstruct_addr(i / self.ways, tag),
                    data: self.lines[i].data,
                });
            }
        }
        self.stats.writebacks += out.len() as u64;
        self.tags.fill(INVALID_TAG);
        out
    }

    /// Discards (invalidates without write-back) every line of the 4 KiB
    /// page containing `page_addr`. Used when a frame is recycled and its
    /// old contents are dead — stale dirty lines must not resurface.
    ///
    /// The page's lines are consecutive line indices, so they sit in a
    /// run of consecutive sets (every set, when there are fewer sets than
    /// lines in a page) under a run of consecutive tags: one pass over
    /// those sets' tags drops them all.
    pub fn discard_page(&mut self, page_addr: PhysAddr) {
        const PAGE_LINES: usize = (crate::addr::PAGE_SIZE / LINE_SIZE) as usize;
        let base = page_addr.page_base();
        let (first_set, first_tag) = self.index(base);
        let (_, last_tag) = self.index(base.add(crate::addr::PAGE_SIZE - LINE_SIZE));
        let sets = PAGE_LINES.min(self.sets);
        // One subtract and one compare per tag (`INVALID_TAG` wraps far
        // above the span); the store is rare, so it stays a branch.
        let span = last_tag - first_tag;
        for tag in &mut self.tags[first_set * self.ways..(first_set + sets) * self.ways] {
            if tag.wrapping_sub(first_tag) <= span {
                *tag = INVALID_TAG;
            }
        }
    }

    /// Returns `true` if the line containing `addr` is resident.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.find_addr(addr).is_some()
    }

    /// The page index of every page with at least one resident line,
    /// sorted and deduplicated: one pass over the tags. Pure like
    /// [`DataCache::contains`].
    pub(crate) fn resident_pages(&self) -> Vec<u64> {
        let mut pages = Vec::new();
        // Way by way, consecutive sets mostly hold lines of one page:
        // keep only a change of page, then sort what is left.
        for way in 0..self.ways {
            let mut last = None;
            for set in 0..self.sets {
                let tag = self.tags[set * self.ways + way];
                if tag == INVALID_TAG {
                    continue;
                }
                let page = self.reconstruct_addr(set, tag).page_index();
                if last != Some(page) {
                    pages.push(page);
                    last = Some(page);
                }
            }
        }
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The words of the resident line containing `addr`, if any. Pure
    /// like [`DataCache::contains`]: no statistics or recency updates.
    pub(crate) fn resident_line(&self, addr: PhysAddr) -> Option<&[u64; LINE_WORDS]> {
        self.find_addr(addr).map(|i| &self.lines[i].data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Makes the line of `addr` resident, returning its locator when
    /// this installed it.
    fn fill(cache: &mut DataCache, addr: PhysAddr) -> Option<LineHint> {
        match cache.probe(addr) {
            CachePlan::Hit => None,
            CachePlan::Refill { line, .. } => Some(cache.install(line, [0; LINE_WORDS])),
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = DataCache::new(16, 2);
        let pa = PhysAddr::new(0x1000);
        assert!(matches!(cache.probe(pa), CachePlan::Refill { .. }));
        cache.install(pa, [9; LINE_WORDS]);
        assert_eq!(cache.probe(pa), CachePlan::Hit);
        assert_eq!(cache.read_word(pa.add(16)), 9);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn dirty_eviction_carries_data() {
        // 1 set x 1 way: second distinct line always evicts the first.
        let mut cache = DataCache::new(1, 1);
        let a = PhysAddr::new(0x0);
        let b = PhysAddr::new(0x40);
        fill(&mut cache, a);
        cache.write_word(a, 0xAA);
        match cache.probe(b) {
            CachePlan::Refill { line, evict } => {
                assert_eq!(line, b);
                let ev = evict.expect("dirty victim");
                assert_eq!(ev.addr, a);
                assert_eq!(ev.data[0], 0xAA);
            }
            CachePlan::Hit => panic!("must miss"),
        }
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut cache = DataCache::new(1, 1);
        fill(&mut cache, PhysAddr::new(0));
        match cache.probe(PhysAddr::new(0x40)) {
            CachePlan::Refill { evict, .. } => assert!(evict.is_none()),
            CachePlan::Hit => panic!("must miss"),
        }
    }

    #[test]
    fn lru_replacement_order() {
        let mut cache = DataCache::new(1, 2);
        let a = PhysAddr::new(0x000);
        let b = PhysAddr::new(0x040);
        let c = PhysAddr::new(0x080);
        fill(&mut cache, a);
        fill(&mut cache, b);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(cache.probe(a), CachePlan::Hit);
        fill(&mut cache, c);
        assert!(cache.contains(a));
        assert!(!cache.contains(b));
        assert!(cache.contains(c));
    }

    #[test]
    fn page_maintenance_flushes_dirty_lines() {
        let mut cache = DataCache::new(128, 4);
        let page = PhysAddr::new(0x3000);
        fill(&mut cache, page);
        fill(&mut cache, page.add(0x80));
        cache.write_word(page, 1);
        cache.write_word(page.add(0x80), 2);
        // A line in a different page stays.
        fill(&mut cache, PhysAddr::new(0x9000));
        let evictions = cache.clean_invalidate_page(page);
        assert_eq!(evictions.len(), 2);
        assert!(!cache.contains(page));
        assert!(cache.contains(PhysAddr::new(0x9000)));
    }

    #[test]
    fn full_flush_returns_every_dirty_line() {
        let mut cache = DataCache::new(4, 2);
        for i in 0..4u64 {
            let a = PhysAddr::new(i * 0x40);
            fill(&mut cache, a);
            cache.write_word(a, i);
        }
        let mut evs = cache.clean_invalidate_all();
        evs.sort_by_key(|e| e.addr);
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[2].data[0], 2);
        assert!(!cache.contains(PhysAddr::new(0)));
    }

    #[test]
    fn eviction_address_reconstruction() {
        let mut cache = DataCache::new(64, 2);
        let a = PhysAddr::new(0xAB_CDC0); // arbitrary line-aligned address
        fill(&mut cache, a);
        cache.write_word(a, 5);
        let evs = cache.clean_invalidate_all();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].addr, a);
    }

    #[test]
    fn replay_run_matches_the_reference_hit_sequence() {
        // Reference: probe + read_word per word. Replay and stream: one
        // batched run, through a locator and through a tag scan.
        let mut reference = DataCache::new(16, 2);
        let mut replayed = DataCache::new(16, 2);
        let mut streamed = DataCache::new(16, 2);
        let base = PhysAddr::new(0x2000);
        fill(&mut reference, base);
        let hint = fill(&mut replayed, base).expect("cold line installs");
        fill(&mut streamed, base);
        for cache in [&mut reference, &mut replayed, &mut streamed] {
            for w in 0..4u64 {
                cache.write_word(base.add(w * 8), w + 1);
            }
        }
        // Reference path: four per-word hit probes.
        let mut ref_last = 0;
        for w in 0..4u64 {
            assert_eq!(reference.probe(base.add(w * 8)), CachePlan::Hit);
            ref_last = reference.read_word(base.add(w * 8));
        }
        let words = replayed
            .replay_run(hint, base, 4, false)
            .expect("fresh hint replays");
        assert_eq!(words[3], ref_last);
        let words = streamed
            .access_run(base, 4, false)
            .expect("resident line streams");
        assert_eq!(words[3], ref_last);
        for batched in [&mut replayed, &mut streamed] {
            assert_eq!(batched.stats(), reference.stats(), "hits batch exactly");
            assert_eq!(batched.tick, reference.tick, "tick advances per word");
            // LRU end state matches too: a subsequent conflict evicts
            // the same victim on both sides.
            let conflict = PhysAddr::new(0x2000 + 16 * 64);
            assert_eq!(batched.probe(conflict), reference.clone().probe(conflict));
        }
    }

    #[test]
    fn replay_run_write_sets_dirty() {
        let mut cache = DataCache::new(16, 2);
        let pa = PhysAddr::new(0x1000);
        let hint = fill(&mut cache, pa).expect("cold line installs");
        {
            let words = cache.replay_run(hint, pa, 2, true).expect("replay");
            words[0] = 0xA;
            words[1] = 0xB;
        }
        assert_eq!(cache.read_word(pa.add(8)), 0xB);
        // Dirty: evicting it must produce a writeback.
        match cache.probe(PhysAddr::new(0x1000 + 16 * 64)) {
            CachePlan::Refill { .. } => {}
            CachePlan::Hit => panic!("must miss"),
        }
        fill(&mut cache, PhysAddr::new(0x1000 + 16 * 64));
        match cache.probe(PhysAddr::new(0x1000 + 32 * 64)) {
            CachePlan::Refill { evict, .. } => {
                let ev = evict.expect("dirty line written back");
                assert_eq!(ev.data[0], 0xA);
            }
            CachePlan::Hit => panic!("must miss"),
        }
    }

    #[test]
    fn stale_replay_hints_fail_closed_without_side_effects() {
        let mut cache = DataCache::new(1, 1);
        let a = PhysAddr::new(0x0);
        let b = PhysAddr::new(0x40);
        let hint = fill(&mut cache, a).expect("cold line installs");
        // Evict `a` by filling `b` into the only way.
        let reused = fill(&mut cache, b).expect("conflicting line installs");
        let stats_before = cache.stats();
        let tick_before = cache.tick;
        assert!(cache.replay_run(hint, a, 1, false).is_none());
        assert!(cache.access_run(a, 1, false).is_none());
        assert_eq!(cache.stats(), stats_before, "failed replay records nothing");
        assert_eq!(cache.tick, tick_before);
        // The hint now points at `b`'s line; tag validation rejects `a`
        // but accepts `b`.
        assert_eq!(reused, hint, "way was reused");
        assert!(cache.replay_run(reused, b, 1, false).is_some());
    }

    #[test]
    fn hit_rate() {
        let mut cache = DataCache::new(16, 2);
        assert!(cache.stats().hit_rate().is_none());
        fill(&mut cache, PhysAddr::new(0));
        cache.probe(PhysAddr::new(0));
        assert_eq!(cache.stats().hit_rate(), Some(0.5));
    }

    #[test]
    fn capacity() {
        assert_eq!(DataCache::new(128, 4).capacity(), 32 * 1024);
    }
}
