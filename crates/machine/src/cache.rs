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
//! true-LRU replacement. The defaults approximate a Cortex-A57 L1D
//! (32 KiB, 2-way in hardware; we use 4-way × 128 sets = 32 KiB).

use crate::addr::PhysAddr;
use crate::bus::LINE_WORDS;

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

/// A packed `(set, way)` locator for a resident cache line, recorded by
/// the compiled access-plan layer ([`crate::compiled`]) so replays can
/// skip the associative set scan. A hint is only ever a *guess*:
/// [`DataCache::replay_run`] re-validates the tag before trusting it,
/// so stale hints (after evictions or invalidations) fail closed onto
/// the reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHint(u32);

impl LineHint {
    /// The "no hint recorded" sentinel.
    pub const INVALID: LineHint = LineHint(u32::MAX);

    fn pack(set: usize, way: usize) -> Self {
        debug_assert!(set < (1 << 24) && way < (1 << 8));
        LineHint(((way as u32) << 24) | set as u32)
    }

    fn unpack(self) -> Option<(usize, usize)> {
        (self != Self::INVALID)
            .then_some(((self.0 & 0x00FF_FFFF) as usize, (self.0 >> 24) as usize))
    }

    /// Whether this hint carries a location (it may still be stale).
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

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
    /// Hit rate in `[0, 1]`; `None` before the first access.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
    data: [u64; LINE_WORDS],
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        lru: 0,
        data: [0; LINE_WORDS],
    };
}

/// Set-associative write-back data cache.
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
    sets: Vec<Vec<Line>>,
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
            sets: vec![vec![Line::INVALID; ways]; sets],
            ways,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets.len() * self.ways) as u64 * LINE_SIZE
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
        let set = (line as usize) & (self.sets.len() - 1);
        let tag = line >> self.sets.len().trailing_zeros();
        (set, tag)
    }

    fn line_base(&self, addr: PhysAddr) -> PhysAddr {
        PhysAddr::new(addr.raw() & !(LINE_SIZE - 1))
    }

    /// Probes for `addr` (read or write — the plan is the same) and records
    /// a hit or miss. On a miss the caller must perform the returned refill
    /// protocol before retrying the word access.
    pub fn probe(&mut self, addr: PhysAddr) -> CachePlan {
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, tag) = self.index(addr);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            self.stats.hits += 1;
            return CachePlan::Hit;
        }
        self.stats.misses += 1;
        // Choose victim: invalid way first, else LRU.
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("ways > 0")
        });
        let victim_line = set[victim];
        let evict = if victim_line.valid && victim_line.dirty {
            self.stats.writebacks += 1;
            Some(Eviction {
                addr: self.reconstruct_addr(set_idx, victim_line.tag),
                data: victim_line.data,
            })
        } else {
            None
        };
        // Mark the victim way invalid so `install` can find it.
        self.sets[set_idx][victim] = Line::INVALID;
        CachePlan::Refill {
            line: self.line_base(addr),
            evict,
        }
    }

    fn reconstruct_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let bits = self.sets.len().trailing_zeros();
        PhysAddr::new(((tag << bits) | set as u64) << LINE_SHIFT)
    }

    /// Installs a freshly fetched line. Must follow a `Refill` plan for the
    /// same line. Returns the line's locator so the caller can finish the
    /// word access (and record a plan hint) without another set scan.
    ///
    /// # Panics
    ///
    /// Panics if the set has no free way (i.e. `probe` was not called or a
    /// different line was probed).
    pub fn install(&mut self, line_addr: PhysAddr, data: [u64; LINE_WORDS]) -> LineHint {
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, tag) = self.index(line_addr);
        let set = &mut self.sets[set_idx];
        let way = set
            .iter()
            .position(|l| !l.valid)
            .expect("install requires a prior Refill probe that freed a way");
        set[way] = Line {
            tag,
            valid: true,
            dirty: false,
            lru: tick,
            data,
        };
        LineHint::pack(set_idx, way)
    }

    /// Probes for `addr` and, on a hit, completes the word access in the
    /// same set scan, returning the value and the line's locator. On a
    /// miss returns `None` with **no** side effects so the caller falls
    /// back to the reference [`DataCache::probe`] — which then performs
    /// the miss bookkeeping exactly once. Hit bookkeeping (tick, LRU,
    /// stats) is identical to `probe` followed by
    /// [`DataCache::read_word`]/[`DataCache::write_word`].
    pub fn probe_access(&mut self, addr: PhysAddr, write: Option<u64>) -> Option<(u64, LineHint)> {
        let (set_idx, tag) = self.index(addr);
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        let tick = self.tick + 1;
        let (way, line) = self.sets[set_idx]
            .iter_mut()
            .enumerate()
            .find(|(_, l)| l.valid && l.tag == tag)?;
        self.tick = tick;
        line.lru = tick;
        self.stats.hits += 1;
        let v = match write {
            Some(v) => {
                line.data[word] = v;
                line.dirty = true;
                v
            }
            None => line.data[word],
        };
        Some((v, LineHint::pack(set_idx, way)))
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
        let (set_idx, way) = hint.unpack().expect("word_access requires a locator");
        let (want_set, want_tag) = self.index(addr);
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        let line = &mut self.sets[set_idx][way];
        assert!(
            set_idx == want_set && line.valid && line.tag == want_tag,
            "word_access locator does not match the accessed line"
        );
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
        let (set_idx, tag) = self.index(addr);
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        let line = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
            .expect("read_word requires a resident line");
        line.data[word]
    }

    /// Writes the word at `addr` and marks the line dirty.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn write_word(&mut self, addr: PhysAddr, value: u64) {
        let (set_idx, tag) = self.index(addr);
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        let line = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
            .expect("write_word requires a resident line");
        line.data[word] = value;
        line.dirty = true;
    }

    /// Locates the resident line containing `addr`, returning a packed
    /// `(set, way)` hint for later [`DataCache::replay_run`] calls.
    /// Pure: no statistics, recency or tick updates — this is host-side
    /// bookkeeping for the compiled plan layer, not a modeled access.
    pub fn locate(&self, addr: PhysAddr) -> Option<LineHint> {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|way| LineHint::pack(set_idx, way))
    }

    /// Replays `n` consecutive same-line word hits through a recorded
    /// hint, batching the bookkeeping the reference path would do one
    /// access at a time. Returns the line's word slice starting at
    /// `addr` (length `n`) on success; `None` — with **no** side
    /// effects — when the hint is stale (line evicted, way reused) so
    /// the caller can fall back to [`DataCache::probe`].
    ///
    /// Model equivalence: `n` reference hit-probes perform `tick += 1;
    /// line.lru = tick; stats.hits += 1` each plus the word access
    /// (writes set the dirty bit). Intermediate `tick`/`lru` values are
    /// unobservable — hits generate no bus traffic — so batching to
    /// `tick += n; lru = final tick; hits += n` leaves every observable
    /// end state identical. The caller guarantees `addr + 8·n` stays
    /// inside one line and charges the batched simulated cycles.
    pub fn replay_run(
        &mut self,
        hint: LineHint,
        addr: PhysAddr,
        n: u64,
        write: bool,
    ) -> Option<&mut [u64]> {
        let (set_idx, way) = hint.unpack()?;
        let (want_set, want_tag) = self.index(addr);
        if set_idx != want_set {
            return None;
        }
        let line = self.sets.get_mut(set_idx)?.get_mut(way)?;
        if !line.valid || line.tag != want_tag {
            return None;
        }
        let word = (addr.raw() >> 3) as usize & (LINE_WORDS - 1);
        debug_assert!(word as u64 + n <= LINE_WORDS as u64, "run crosses a line");
        self.tick += n;
        line.lru = self.tick;
        self.stats.hits += n;
        if write {
            line.dirty = true;
        }
        Some(&mut line.data[word..word + n as usize])
    }

    /// Cleans and invalidates every line inside the 4 KiB page containing
    /// `page_addr`, returning dirty lines that must be written back.
    ///
    /// Hypersec performs this maintenance when it makes a page
    /// non-cacheable so that stale dirty data cannot shadow future
    /// bus-visible writes.
    pub fn clean_invalidate_page(&mut self, page_addr: PhysAddr) -> Vec<Eviction> {
        let base = page_addr.page_base();
        let mut out = Vec::new();
        for offset in (0..crate::addr::PAGE_SIZE).step_by(LINE_SIZE as usize) {
            let line_addr = base.add(offset);
            let (set_idx, tag) = self.index(line_addr);
            if let Some(line) = self.sets[set_idx]
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)
            {
                if line.dirty {
                    self.stats.writebacks += 1;
                    out.push(Eviction {
                        addr: line_addr,
                        data: line.data,
                    });
                }
                *line = Line::INVALID;
            }
        }
        out
    }

    /// Invalidates the whole cache, returning all dirty lines for
    /// write-back.
    pub fn clean_invalidate_all(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for set_idx in 0..self.sets.len() {
            for way in 0..self.ways {
                let line = self.sets[set_idx][way];
                if line.valid && line.dirty {
                    self.stats.writebacks += 1;
                    out.push(Eviction {
                        addr: self.reconstruct_addr(set_idx, line.tag),
                        data: line.data,
                    });
                }
                self.sets[set_idx][way] = Line::INVALID;
            }
        }
        out
    }

    /// Discards (invalidates without write-back) every line of the 4 KiB
    /// page containing `page_addr`. Used when a frame is recycled and its
    /// old contents are dead — stale dirty lines must not resurface.
    pub fn discard_page(&mut self, page_addr: PhysAddr) {
        let base = page_addr.page_base();
        for offset in (0..crate::addr::PAGE_SIZE).step_by(LINE_SIZE as usize) {
            let line_addr = base.add(offset);
            let (set_idx, tag) = self.index(line_addr);
            if let Some(line) = self.sets[set_idx]
                .iter_mut()
                .find(|l| l.valid && l.tag == tag)
            {
                *line = Line::INVALID;
            }
        }
    }

    /// Returns `true` if the line containing `addr` is resident.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// The page index of every page with at least one resident line,
    /// sorted and deduplicated: one pass over the lines. Pure like
    /// [`DataCache::contains`].
    pub(crate) fn resident_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = (0..self.sets.len())
            .flat_map(|set| {
                self.sets[set]
                    .iter()
                    .filter(|l| l.valid)
                    .map(move |l| self.reconstruct_addr(set, l.tag).page_index())
            })
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The words of the resident line containing `addr`, if any. Pure
    /// like [`DataCache::contains`]: no statistics or recency updates.
    pub(crate) fn resident_line(&self, addr: PhysAddr) -> Option<&[u64; LINE_WORDS]> {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| &l.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(cache: &mut DataCache, addr: PhysAddr) {
        match cache.probe(addr) {
            CachePlan::Hit => {}
            CachePlan::Refill { line, .. } => {
                cache.install(line, [0; LINE_WORDS]);
            }
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
        // Reference: probe + read_word per word. Replay: one batched run.
        let mut reference = DataCache::new(16, 2);
        let mut replayed = DataCache::new(16, 2);
        let base = PhysAddr::new(0x2000);
        fill(&mut reference, base);
        fill(&mut replayed, base);
        for w in 0..4u64 {
            reference.write_word(base.add(w * 8), w + 1);
            replayed.write_word(base.add(w * 8), w + 1);
        }
        // Reference path: four per-word hit probes.
        let mut ref_last = 0;
        for w in 0..4u64 {
            assert_eq!(reference.probe(base.add(w * 8)), CachePlan::Hit);
            ref_last = reference.read_word(base.add(w * 8));
        }
        // Replay path: one validated batch.
        let hint = replayed.locate(base).expect("line is resident");
        let words = replayed
            .replay_run(hint, base, 4, false)
            .expect("fresh hint replays");
        let rep_last = words[3];
        assert_eq!(rep_last, ref_last);
        assert_eq!(replayed.stats(), reference.stats(), "hits batch exactly");
        assert_eq!(replayed.tick, reference.tick, "tick advances per word");
        // LRU end state matches too: a subsequent conflict evicts the
        // same victim on both sides.
        let probe_r = reference.probe(PhysAddr::new(0x2000 + 16 * 64));
        let probe_p = replayed.probe(PhysAddr::new(0x2000 + 16 * 64));
        assert_eq!(probe_r, probe_p);
    }

    #[test]
    fn replay_run_write_sets_dirty() {
        let mut cache = DataCache::new(16, 2);
        let pa = PhysAddr::new(0x1000);
        fill(&mut cache, pa);
        let hint = cache.locate(pa).expect("resident");
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
        fill(&mut cache, a);
        let hint = cache.locate(a).expect("resident");
        // Evict `a` by filling `b` into the only way.
        fill(&mut cache, b);
        let stats_before = cache.stats();
        let tick_before = cache.tick;
        assert!(cache.replay_run(hint, a, 1, false).is_none());
        assert!(LineHint::INVALID.unpack().is_none());
        assert!(cache.replay_run(LineHint::INVALID, b, 1, false).is_none());
        assert_eq!(cache.stats(), stats_before, "failed replay records nothing");
        assert_eq!(cache.tick, tick_before);
        // The hint now points at `b`'s line; tag validation rejects `a`
        // but accepts `b`.
        let reused = cache.locate(b).expect("resident");
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
