//! Translation lookaside buffer model.
//!
//! Two structures mirror a modern ARM core:
//!
//! * the **main TLB** caches *completed* translations — VA page → final PA
//!   page with combined stage-1 (and, under nested paging, stage-2)
//!   permissions. Entries are tagged by [`Regime`] and ASID so a context
//!   switch need not flush.
//! * the **stage-2 TLB** caches IPA page → PA page mappings used while
//!   nested walks resolve stage-1 table accesses. It only fills when a
//!   hypervisor enables stage-2 translation.
//!
//! **Replacement policy:** both TLBs are true LRU. A lookup hit and a
//! re-insert of an existing key refresh the entry's recency; capacity
//! eviction always discards the least-recently-used entry. Misses are
//! what make nested paging expensive, so sizes and policy matter for
//! reproducing the paper's KVM numbers.
//!
//! In front of the main TLB sits a host-side **L0 micro-TLB**: a small
//! direct-mapped array of recently resolved lookups, turning the
//! dominant hit path into an index + key compare instead of a hash-map
//! probe. The L0 is *model-invisible* — an L0 hit performs the same LRU
//! recency update and the same `hits` accounting as the map path, so
//! simulated state is byte-identical whether it is enabled or not; only
//! the host-observability counters `l0_hits`/`l0_misses` differ. It is
//! invalidated on every flush, on inserts covering its slot, and by
//! [`Tlb::l0_invalidate`] (which the machine calls on every TLBI and
//! translation-system-register write).

use std::hash::Hash;

use crate::addr::{PhysAddr, VirtAddr};
use crate::fastpath::fastpath_enabled;
use crate::fxhash::FxHashMap;
use crate::pagetable::PagePerms;
use hypernel_telemetry::counters::Counter;
use hypernel_telemetry::{counter, metrics};

/// Translation regime a main-TLB entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// EL0/EL1 stage-1 (plus stage-2 when nested paging is on).
    El1 {
        /// Address-space identifier of the owning process; `None` marks a
        /// global (kernel) mapping shared by all ASIDs.
        asid: Option<u16>,
    },
    /// The EL2 (Hypersec) translation regime.
    El2,
}

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Final physical page base.
    pub pa_page: PhysAddr,
    /// Combined effective permissions.
    pub perms: PagePerms,
    /// Number of stage-1 + stage-2 table accesses a walk for this entry
    /// cost when it was filled (replayed as the TLB-miss penalty).
    pub walk_accesses: u32,
}

/// Main-TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries discarded by capacity replacement.
    pub evictions: u64,
    /// Entries discarded by explicit invalidation.
    pub flushes: u64,
    /// Hits served by the L0 micro-TLB (host observability; subset of
    /// `hits`, zero when the L0 is disabled).
    pub l0_hits: u64,
    /// Lookups that consulted the L0 micro-TLB and fell through to the
    /// main map (host observability, zero when the L0 is disabled).
    pub l0_misses: u64,
}

impl TlbStats {
    /// Every counter with its artifact names — the one list of them.
    /// The L0 micro-TLB's counters are host counters.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<TlbStats>] = &[
        counter!(hits, coverage = "machine/tlb/hit", metric = metrics::TLB_HITS, report = "tlb_hits"),
        counter!(misses, coverage = "machine/tlb/miss", metric = metrics::TLB_MISSES, report = "tlb_misses"),
        counter!(evictions, coverage = "machine/tlb/eviction"),
        counter!(flushes, coverage = "machine/tlb/flush"),
        counter!(host l0_hits),
        counter!(host l0_misses),
    ];

    /// Hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    regime: Regime,
    va_page: u64,
}

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<K> {
    key: K,
    entry: TlbEntry,
    prev: usize,
    next: usize,
    live: bool,
}

/// A fixed-capacity LRU map: slab of slots + intrusive doubly-linked
/// recency list + key index. Hit/re-insert moves the slot to the MRU
/// head in O(1); eviction pops the LRU tail. The index hashes with
/// [`crate::fxhash`]: its keys are simulation state, and nothing
/// iterates it (`retain` walks the recency list).
#[derive(Debug, Clone)]
struct LruMap<K: Eq + Hash + Copy> {
    index: FxHashMap<K, usize>,
    slots: Vec<Slot<K>>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
}

impl<K: Eq + Hash + Copy> LruMap<K> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            index: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Moves slot `i` to the MRU position.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Looks up `key`; a hit refreshes recency. Returns the slot index.
    fn get(&mut self, key: &K) -> Option<usize> {
        let i = *self.index.get(key)?;
        self.touch(i);
        Some(i)
    }

    fn entry(&self, i: usize) -> &TlbEntry {
        &self.slots[i].entry
    }

    /// Inserts or refreshes `key`; returns `true` when a capacity
    /// eviction happened.
    fn insert(&mut self, key: K, entry: TlbEntry) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].entry = entry;
            self.touch(i);
            return false;
        }
        let mut evicted = false;
        let i = if self.index.len() >= self.capacity {
            // Reuse the LRU tail slot in place.
            let t = self.tail;
            self.unlink(t);
            self.index.remove(&self.slots[t].key);
            evicted = true;
            t
        } else if let Some(i) = self.free.pop() {
            i
        } else {
            self.slots.push(Slot {
                key,
                entry,
                prev: NIL,
                next: NIL,
                live: false,
            });
            self.slots.len() - 1
        };
        self.slots[i].key = key;
        self.slots[i].entry = entry;
        self.slots[i].live = true;
        self.push_front(i);
        self.index.insert(key, i);
        evicted
    }

    /// Removes every entry failing `keep`; returns how many were
    /// removed.
    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> u64 {
        let mut removed = 0u64;
        let mut i = self.head;
        while i != NIL {
            let next = self.slots[i].next;
            if !keep(&self.slots[i].key) {
                self.unlink(i);
                self.index.remove(&self.slots[i].key);
                self.slots[i].live = false;
                self.free.push(i);
                removed += 1;
            }
            i = next;
        }
        removed
    }

    /// Drops everything; returns how many entries were removed.
    fn clear(&mut self) -> u64 {
        let removed = self.index.len() as u64;
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        removed
    }
}

/// Number of direct-mapped L0 micro-TLB slots (power of two).
const L0_SLOTS: usize = 64;

/// One L0 slot: the VA page it answers for and the main-map slot the
/// resolution lives in. Self-validating — a hit requires the slab slot
/// to still be live with an acceptable key, so stale pointers can never
/// produce a wrong translation, only a fall-through to the map.
#[derive(Debug, Clone, Copy)]
struct L0Entry {
    va_page: u64,
    slot: usize,
}

const L0_EMPTY: L0Entry = L0Entry {
    va_page: 0,
    slot: NIL,
};

/// Finite, LRU-replaced TLB with an L0 micro-TLB front cache.
///
/// ```
/// use hypernel_machine::addr::{PhysAddr, VirtAddr};
/// use hypernel_machine::pagetable::PagePerms;
/// use hypernel_machine::tlb::{Regime, Tlb, TlbEntry};
///
/// let mut tlb = Tlb::new(64, 64);
/// let regime = Regime::El1 { asid: Some(1) };
/// let va = VirtAddr::new(0x1000);
/// assert!(tlb.lookup(regime, va).is_none());
/// tlb.insert(regime, va, TlbEntry {
///     pa_page: PhysAddr::new(0x8000),
///     perms: PagePerms::USER_DATA,
///     walk_accesses: 4,
/// });
/// assert!(tlb.lookup(regime, va).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    main: LruMap<Key>,
    stage2: LruMap<u64>,
    l0: [L0Entry; L0_SLOTS],
    l0_enabled: bool,
    stats: TlbStats,
    s2_stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given main and stage-2 capacities (entries).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(main_capacity: usize, stage2_capacity: usize) -> Self {
        Self {
            main: LruMap::new(main_capacity),
            stage2: LruMap::new(stage2_capacity),
            l0: [L0_EMPTY; L0_SLOTS],
            l0_enabled: fastpath_enabled(),
            stats: TlbStats::default(),
            s2_stats: TlbStats::default(),
        }
    }

    /// Main-TLB statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Stage-2 TLB statistics.
    pub fn stage2_stats(&self) -> TlbStats {
        self.s2_stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        self.s2_stats = TlbStats::default();
    }

    /// Number of live main-TLB entries.
    pub fn len(&self) -> usize {
        self.main.len()
    }

    /// Returns `true` if the main TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.main.len() == 0
    }

    /// Enables or disables the L0 micro-TLB (testing hook; the default
    /// follows [`fastpath_enabled`]). Simulated state is identical
    /// either way.
    pub fn set_l0_enabled(&mut self, enabled: bool) {
        self.l0_enabled = enabled;
        self.l0 = [L0_EMPTY; L0_SLOTS];
    }

    /// Drops every L0 micro-TLB slot. The machine calls this on every
    /// TLBI and on writes to translation system registers (TTBR/SCTLR/
    /// TCR/VTTBR…); flushes and covering inserts also invalidate
    /// internally.
    pub fn l0_invalidate(&mut self) {
        self.l0 = [L0_EMPTY; L0_SLOTS];
    }

    #[inline]
    fn l0_index(va_page: u64) -> usize {
        (va_page as usize) & (L0_SLOTS - 1)
    }

    /// Whether a stored key satisfies a lookup key — exact match, or a
    /// global (ASID-less) kernel entry answering any EL1 ASID.
    #[inline]
    fn key_serves(stored: &Key, regime: Regime, va_page: u64) -> bool {
        stored.va_page == va_page
            && (stored.regime == regime
                || (stored.regime == Regime::El1 { asid: None }
                    && matches!(regime, Regime::El1 { asid: Some(_) })))
    }

    /// Looks up `va` in `regime`, recording a hit or miss and (on a hit)
    /// refreshing the entry's LRU recency. Global (kernel) entries match
    /// any ASID of the same EL1 regime.
    pub fn lookup(&mut self, regime: Regime, va: VirtAddr) -> Option<TlbEntry> {
        let va_page = va.page_index();
        if self.l0_enabled {
            let cached = self.l0[Self::l0_index(va_page)];
            let mut served = None;
            if cached.va_page == va_page {
                if let Some(slot) = self.main.slots.get(cached.slot) {
                    if slot.live && Self::key_serves(&slot.key, regime, va_page) {
                        served = Some(slot.entry);
                    }
                }
            }
            if let Some(entry) = served {
                // Same accounting + recency update as the map path;
                // only the l0_* observability counters differ.
                self.stats.l0_hits += 1;
                self.stats.hits += 1;
                self.main.touch(cached.slot);
                return Some(entry);
            }
            self.stats.l0_misses += 1;
        }
        let exact = Key { regime, va_page };
        let resolved = self.main.get(&exact).or_else(|| {
            // Global kernel entries are stored with asid: None and hit
            // for any EL1 ASID.
            if let Regime::El1 { asid: Some(_) } = regime {
                self.main.get(&Key {
                    regime: Regime::El1 { asid: None },
                    va_page,
                })
            } else {
                None
            }
        });
        match resolved {
            Some(i) => {
                self.stats.hits += 1;
                if self.l0_enabled {
                    self.l0[Self::l0_index(va_page)] = L0Entry { va_page, slot: i };
                }
                Some(*self.main.entry(i))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Consults the main TLB without touching statistics or recency — a
    /// host-side peek used by the block-access fast path right after a
    /// reference access resolved (and proved permissions for) `va`.
    /// Global kernel entries match any EL1 ASID, as in [`Tlb::lookup`].
    pub fn peek(&self, regime: Regime, va: VirtAddr) -> Option<TlbEntry> {
        let va_page = va.page_index();
        let i = self
            .main
            .index
            .get(&Key { regime, va_page })
            .copied()
            .or_else(|| {
                if let Regime::El1 { asid: Some(_) } = regime {
                    self.main
                        .index
                        .get(&Key {
                            regime: Regime::El1 { asid: None },
                            va_page,
                        })
                        .copied()
                } else {
                    None
                }
            })?;
        Some(self.main.slots[i].entry)
    }

    /// Records `n` main-TLB hits without performing lookups. The block-
    /// access fast path streams words through a translation it already
    /// resolved; this keeps `hits` identical to the per-word reference
    /// path. (Recency needs no update: the resolving access made the
    /// entry MRU and nothing ran in between.)
    pub fn record_block_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Inserts a completed translation, refreshing recency when the key
    /// already exists and evicting the least-recently-used entry when
    /// full.
    pub fn insert(&mut self, regime: Regime, va: VirtAddr, entry: TlbEntry) {
        let va_page = va.page_index();
        let key = Key { regime, va_page };
        // The covering L0 slot may cache a resolution this insert
        // shadows (e.g. a global entry when an exact one appears);
        // dropping it keeps the micro-TLB coherent for O(1).
        if self.l0_enabled {
            self.l0[Self::l0_index(va_page)] = L0_EMPTY;
        }
        if self.main.insert(key, entry) {
            self.stats.evictions += 1;
        }
    }

    /// Looks up an IPA page in the stage-2 TLB, refreshing recency on a
    /// hit.
    pub fn lookup_stage2(&mut self, ipa_page: u64) -> Option<TlbEntry> {
        match self.stage2.get(&ipa_page) {
            Some(i) => {
                self.s2_stats.hits += 1;
                Some(*self.stage2.entry(i))
            }
            None => {
                self.s2_stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a stage-2 translation (LRU replacement, recency refresh
    /// on re-insert).
    pub fn insert_stage2(&mut self, ipa_page: u64, entry: TlbEntry) {
        if self.stage2.insert(ipa_page, entry) {
            self.s2_stats.evictions += 1;
        }
    }

    /// Invalidates everything (`TLBI VMALLS12`, roughly).
    pub fn flush_all(&mut self) {
        self.stats.flushes += self.main.clear();
        self.s2_stats.flushes += self.stage2.clear();
        self.l0_invalidate();
    }

    /// Invalidates every main-TLB entry of one ASID (`TLBI ASID`).
    pub fn flush_asid(&mut self, asid: u16) {
        self.stats.flushes += self.main.retain(|k| {
            !matches!(
                k.regime,
                Regime::El1 { asid: Some(a) } if a == asid
            )
        });
        self.l0_invalidate();
    }

    /// Invalidates the main-TLB entry covering `va` in every ASID of the
    /// regime class (`TLBI VAE1`, conservatively broad).
    pub fn flush_va(&mut self, va: VirtAddr) {
        let page = va.page_index();
        self.stats.flushes += self.main.retain(|k| k.va_page != page);
        self.l0_invalidate();
    }

    /// Invalidates stage-2 entries (and, because the main TLB may hold
    /// combined translations, the whole main TLB — as `TLBI IPAS2` plus
    /// `VMALLE1` would).
    pub fn flush_stage2(&mut self) {
        self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pa: u64) -> TlbEntry {
        TlbEntry {
            pa_page: PhysAddr::new(pa),
            perms: PagePerms::KERNEL_DATA,
            walk_accesses: 4,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut tlb = Tlb::new(8, 8);
        let r = Regime::El1 { asid: Some(1) };
        assert!(tlb.lookup(r, VirtAddr::new(0x1000)).is_none());
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x8000));
        assert_eq!(
            tlb.lookup(r, VirtAddr::new(0x1FFF)).unwrap().pa_page,
            PhysAddr::new(0x8000)
        );
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn global_entries_hit_any_asid() {
        let mut tlb = Tlb::new(8, 8);
        tlb.insert(
            Regime::El1 { asid: None },
            VirtAddr::new(0x2000),
            entry(0x9000),
        );
        assert!(tlb
            .lookup(Regime::El1 { asid: Some(7) }, VirtAddr::new(0x2000))
            .is_some());
        assert!(tlb
            .lookup(Regime::El1 { asid: Some(9) }, VirtAddr::new(0x2000))
            .is_some());
        // But not the EL2 regime.
        assert!(tlb.lookup(Regime::El2, VirtAddr::new(0x2000)).is_none());
    }

    #[test]
    fn asid_isolation() {
        let mut tlb = Tlb::new(8, 8);
        tlb.insert(
            Regime::El1 { asid: Some(1) },
            VirtAddr::new(0x2000),
            entry(0x9000),
        );
        assert!(tlb
            .lookup(Regime::El1 { asid: Some(2) }, VirtAddr::new(0x2000))
            .is_none());
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut tlb = Tlb::new(2, 2);
        let r = Regime::El1 { asid: Some(1) };
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x1000));
        tlb.insert(r, VirtAddr::new(0x2000), entry(0x2000));
        // Touch 0x1000 so 0x2000 becomes the LRU victim.
        assert!(tlb.lookup(r, VirtAddr::new(0x1000)).is_some());
        tlb.insert(r, VirtAddr::new(0x3000), entry(0x3000));
        assert_eq!(tlb.len(), 2);
        assert!(tlb.lookup(r, VirtAddr::new(0x2000)).is_none());
        assert!(tlb.lookup(r, VirtAddr::new(0x1000)).is_some());
        assert!(tlb.lookup(r, VirtAddr::new(0x3000)).is_some());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut tlb = Tlb::new(2, 2);
        let r = Regime::El2;
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x1000));
        tlb.insert(r, VirtAddr::new(0x2000), entry(0x2000));
        // Re-inserting 0x1000 makes it MRU, so 0x2000 is the victim.
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x1000));
        tlb.insert(r, VirtAddr::new(0x3000), entry(0x3000));
        assert_eq!(tlb.len(), 2);
        assert!(tlb.lookup(r, VirtAddr::new(0x1000)).is_some());
        assert!(tlb.lookup(r, VirtAddr::new(0x2000)).is_none());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_payload() {
        let mut tlb = Tlb::new(2, 2);
        let r = Regime::El2;
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x1000));
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x7000));
        assert_eq!(tlb.len(), 1);
        assert_eq!(
            tlb.lookup(r, VirtAddr::new(0x1000)).unwrap().pa_page,
            PhysAddr::new(0x7000)
        );
    }

    #[test]
    fn stage2_eviction_is_lru_too() {
        let mut tlb = Tlb::new(2, 2);
        tlb.insert_stage2(1, entry(0x1000));
        tlb.insert_stage2(2, entry(0x2000));
        assert!(tlb.lookup_stage2(1).is_some()); // 2 becomes LRU
        tlb.insert_stage2(3, entry(0x3000));
        assert!(tlb.lookup_stage2(2).is_none());
        assert!(tlb.lookup_stage2(1).is_some());
        assert_eq!(tlb.stage2_stats().evictions, 1);
    }

    #[test]
    fn flush_asid_spares_globals() {
        let mut tlb = Tlb::new(8, 8);
        tlb.insert(
            Regime::El1 { asid: Some(1) },
            VirtAddr::new(0x1000),
            entry(0x1000),
        );
        tlb.insert(
            Regime::El1 { asid: None },
            VirtAddr::new(0x2000),
            entry(0x2000),
        );
        tlb.flush_asid(1);
        assert!(tlb
            .lookup(Regime::El1 { asid: Some(1) }, VirtAddr::new(0x1000))
            .is_none());
        assert!(tlb
            .lookup(Regime::El1 { asid: Some(1) }, VirtAddr::new(0x2000))
            .is_some());
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    fn flush_va_hits_all_asids() {
        let mut tlb = Tlb::new(8, 8);
        tlb.insert(
            Regime::El1 { asid: Some(1) },
            VirtAddr::new(0x1000),
            entry(0x1000),
        );
        tlb.insert(
            Regime::El1 { asid: Some(2) },
            VirtAddr::new(0x1000),
            entry(0x1000),
        );
        tlb.flush_va(VirtAddr::new(0x1234));
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().flushes, 2);
    }

    #[test]
    fn stage2_roundtrip_and_flush() {
        let mut tlb = Tlb::new(4, 4);
        assert!(tlb.lookup_stage2(5).is_none());
        tlb.insert_stage2(5, entry(0x5000));
        assert!(tlb.lookup_stage2(5).is_some());
        tlb.flush_stage2();
        assert!(tlb.lookup_stage2(5).is_none());
        assert_eq!(tlb.stage2_stats().hits, 1);
        assert_eq!(tlb.stage2_stats().misses, 2);
        assert_eq!(tlb.stage2_stats().flushes, 1);
    }

    #[test]
    fn reinsert_does_not_grow_order_queue() {
        let mut tlb = Tlb::new(2, 2);
        let r = Regime::El2;
        for _ in 0..10 {
            tlb.insert(r, VirtAddr::new(0x1000), entry(0x1000));
        }
        tlb.insert(r, VirtAddr::new(0x2000), entry(0x2000));
        tlb.insert(r, VirtAddr::new(0x3000), entry(0x3000));
        // Exactly one eviction happened at capacity.
        assert_eq!(tlb.len(), 2);
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn eviction_and_flush_statistics_accumulate() {
        let mut tlb = Tlb::new(2, 8);
        let r = Regime::El1 { asid: Some(3) };
        for page in 0..5u64 {
            tlb.insert(r, VirtAddr::new(page * 0x1000), entry(page * 0x1000));
        }
        // 5 inserts into 2 slots: 3 capacity evictions.
        assert_eq!(tlb.stats().evictions, 3);
        tlb.flush_all();
        assert_eq!(tlb.stats().flushes, 2);
        assert_eq!(tlb.len(), 0);
        // Flush counters keep accumulating across flushes.
        tlb.insert(r, VirtAddr::new(0x9000), entry(0x9000));
        tlb.flush_va(VirtAddr::new(0x9008));
        assert_eq!(tlb.stats().flushes, 3);
    }

    #[test]
    fn hit_rate() {
        let mut tlb = Tlb::new(4, 4);
        let r = Regime::El2;
        assert!(tlb.stats().hit_rate().is_none());
        tlb.lookup(r, VirtAddr::new(0));
        tlb.insert(r, VirtAddr::new(0), entry(0));
        tlb.lookup(r, VirtAddr::new(0));
        assert_eq!(tlb.stats().hit_rate(), Some(0.5));
    }

    // ------------------------------------------------------------------
    // L0 micro-TLB
    // ------------------------------------------------------------------

    /// Simulated state (entries, hit/miss/eviction accounting) must be
    /// identical with the L0 on or off; only l0_* counters may differ.
    fn strip_l0(mut s: TlbStats) -> TlbStats {
        s.l0_hits = 0;
        s.l0_misses = 0;
        s
    }

    #[test]
    fn l0_serves_repeat_lookups_and_matches_reference() {
        let mut fast = Tlb::new(4, 4);
        fast.set_l0_enabled(true);
        let mut slow = Tlb::new(4, 4);
        slow.set_l0_enabled(false);
        let r = Regime::El1 { asid: Some(1) };
        for t in [&mut fast, &mut slow] {
            for page in 0..6u64 {
                let va = VirtAddr::new(page * 0x1000);
                t.lookup(r, va);
                t.insert(r, va, entry(page * 0x1000));
                t.lookup(r, va);
                t.lookup(r, va);
            }
        }
        assert_eq!(strip_l0(fast.stats()), strip_l0(slow.stats()));
        assert!(fast.stats().l0_hits > 0, "repeat lookups hit the L0");
        assert_eq!(slow.stats().l0_hits, 0);
        assert_eq!(slow.stats().l0_misses, 0);
        // Same visible contents.
        for page in 0..6u64 {
            let va = VirtAddr::new(page * 0x1000);
            assert_eq!(fast.lookup(r, va).is_some(), slow.lookup(r, va).is_some());
        }
    }

    #[test]
    fn l0_hit_refreshes_lru_recency() {
        let mut tlb = Tlb::new(2, 2);
        tlb.set_l0_enabled(true);
        let r = Regime::El2;
        tlb.insert(r, VirtAddr::new(0x1000), entry(0x1000));
        tlb.insert(r, VirtAddr::new(0x2000), entry(0x2000));
        // Two lookups: the second is an L0 hit and must still bump LRU.
        tlb.lookup(r, VirtAddr::new(0x1000));
        tlb.lookup(r, VirtAddr::new(0x1000));
        assert!(tlb.stats().l0_hits >= 1);
        tlb.insert(r, VirtAddr::new(0x3000), entry(0x3000));
        assert!(tlb.lookup(r, VirtAddr::new(0x1000)).is_some());
        assert!(tlb.lookup(r, VirtAddr::new(0x2000)).is_none());
    }

    #[test]
    fn l0_invalidated_by_flushes() {
        let mut tlb = Tlb::new(8, 8);
        tlb.set_l0_enabled(true);
        let r = Regime::El1 { asid: Some(1) };
        let va = VirtAddr::new(0x4000);
        tlb.insert(r, va, entry(0x4000));
        tlb.lookup(r, va); // map hit populates L0
        tlb.lookup(r, va); // L0 hit
        assert_eq!(tlb.stats().l0_hits, 1);
        tlb.flush_va(va);
        assert!(tlb.lookup(r, va).is_none(), "flushed entry must not hit");
        tlb.insert(r, va, entry(0x4000));
        tlb.lookup(r, va);
        tlb.flush_asid(1);
        assert!(tlb.lookup(r, va).is_none());
        tlb.insert(r, va, entry(0x4000));
        tlb.lookup(r, va);
        tlb.flush_all();
        assert!(tlb.lookup(r, va).is_none());
    }

    #[test]
    fn l0_explicit_invalidate_falls_back_to_map() {
        let mut tlb = Tlb::new(8, 8);
        tlb.set_l0_enabled(true);
        let r = Regime::El2;
        let va = VirtAddr::new(0x7000);
        tlb.insert(r, va, entry(0x7000));
        tlb.lookup(r, va);
        tlb.l0_invalidate();
        // Entry still lives in the map; the L0 misses then repopulates.
        let before = tlb.stats().l0_hits;
        assert!(tlb.lookup(r, va).is_some());
        assert!(tlb.lookup(r, va).is_some());
        assert!(tlb.stats().l0_hits > before);
    }

    #[test]
    fn l0_never_leaks_stale_entries_across_eviction() {
        let mut tlb = Tlb::new(2, 2);
        tlb.set_l0_enabled(true);
        let r = Regime::El1 { asid: Some(1) };
        let va = VirtAddr::new(0x1000);
        tlb.insert(r, va, entry(0x1000));
        tlb.lookup(r, va); // L0 now caches 0x1000's slot
                           // Evict 0x1000 by filling the 2-entry TLB with newer pages.
        tlb.insert(r, VirtAddr::new(0x2000), entry(0x2000));
        tlb.lookup(r, VirtAddr::new(0x2000));
        tlb.insert(r, VirtAddr::new(0x3000), entry(0x3000));
        // 0x1000's slot was reused; the L0 must not resurrect it.
        assert!(tlb.lookup(r, va).is_none());
    }

    #[test]
    fn l0_respects_asid_and_regime_boundaries() {
        let mut tlb = Tlb::new(8, 8);
        tlb.set_l0_enabled(true);
        let va = VirtAddr::new(0x2000);
        tlb.insert(Regime::El1 { asid: Some(1) }, va, entry(0x9000));
        tlb.lookup(Regime::El1 { asid: Some(1) }, va);
        tlb.lookup(Regime::El1 { asid: Some(1) }, va);
        // Another ASID or regime must not be served by the cached slot.
        assert!(tlb.lookup(Regime::El1 { asid: Some(2) }, va).is_none());
        assert!(tlb.lookup(Regime::El2, va).is_none());
        // Global entries keep serving any ASID through the L0.
        let kva = VirtAddr::new(0x8000);
        tlb.insert(Regime::El1 { asid: None }, kva, entry(0x8000));
        tlb.lookup(Regime::El1 { asid: Some(5) }, kva);
        let l0_before = tlb.stats().l0_hits;
        assert!(tlb.lookup(Regime::El1 { asid: Some(6) }, kva).is_some());
        assert!(tlb.stats().l0_hits > l0_before);
    }
}
