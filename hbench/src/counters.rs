//! Simulated counters read from a finished `System`: the digest that two
//! runs (or two commits) must agree on exactly, and the per-unit deltas
//! the per-layer metrics are computed from.

use hypernel::System;
use hypernel_mbm::Mbm;

/// FNV-1a over 64-bit words: stable across platforms and runs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn bytes(&mut self, text: &str) -> &mut Self {
        for b in text.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the model-visible simulated state counters of `sys`:
/// cycles, `MachineStats`, `HypersecStats`, `KernelStats`, the KVM
/// counters, the data cache, and the model-visible `TlbStats` and
/// `MbmStats` fields. Host-only counters (the L0 micro-TLB hits, the MBM
/// page-filter skips, device reads and bitmap-cache counters, and
/// `PlanStats`) are left out, so the digest is the same with any fast
/// path on or off.
pub fn sim_digest(sys: &System) -> u64 {
    let mut h = Fnv::default();
    let m = sys.machine();
    let s = m.stats();
    h.word(sys.cycles());
    for w in [
        s.reads,
        s.writes,
        s.uncached_accesses,
        s.hypercalls,
        s.sysreg_traps,
        s.stage2_faults,
        s.el1_aborts,
        s.irqs_delivered,
    ] {
        h.word(w);
    }
    for t in [m.tlb().stats(), m.tlb().stage2_stats()] {
        h.word(t.hits)
            .word(t.misses)
            .word(t.evictions)
            .word(t.flushes);
    }
    let c = m.data_cache().stats();
    h.word(c.hits).word(c.misses).word(c.writebacks);
    if let Some(mbm) = m.bus().snooper::<Mbm>() {
        let s = mbm.stats();
        for w in [
            s.bus_writes_seen,
            s.captured,
            s.fifo_dropped,
            s.first_dropped_addr.map_or(u64::MAX, |a| a.raw()),
            s.bitmap_lookups,
            s.events_matched,
            s.ring_overflows,
            s.irqs_raised,
            s.device_writes,
            s.secure_alarms,
            s.lookup_divergences,
        ] {
            h.word(w);
        }
    }
    if let Some(hs) = sys.hypersec() {
        let s = hs.stats();
        for w in [
            s.hypercalls,
            s.pt_writes,
            s.pt_denials,
            s.tables_registered,
            s.sysreg_allowed,
            s.sysreg_denied,
            s.regions_live,
            s.events_dispatched,
            s.stray_events,
            s.detections,
            s.emulated_writes,
        ] {
            h.word(w);
        }
    }
    if let Some(kvm) = sys.kvm() {
        let s = kvm.stats();
        for w in [
            s.stage2_faults,
            s.pages_mapped,
            s.wfi_exits,
            s.sgi_exits,
            s.protection_traps,
        ] {
            h.word(w);
        }
    }
    let k = sys.kernel().stats();
    for w in [
        k.syscalls,
        k.forks,
        k.execs,
        k.exits,
        k.context_switches,
        k.page_faults,
        k.files_created,
        k.irqs_forwarded,
        k.emulated_writes,
        k.monitor_registrations,
    ] {
        h.word(w);
    }
    h.finish()
}

/// The counters the per-layer metrics read. A snapshot of one system;
/// [`Counters::delta`] turns two snapshots into the work one unit did,
/// and [`Counters::add`] sums units.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub accesses: u64,
    pub uncached: u64,
    pub sysreg_traps: u64,
    pub stage2_faults: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub tlb_l0_hits: u64,
    pub s2_tlb_hits: u64,
    pub s2_tlb_misses: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub plan_replayed_words: u64,
    pub plan_hint_repairs: u64,
    pub plan_invalidations: u64,
    pub mbm_captured: u64,
    pub mbm_filter_skips: u64,
    pub mbm_events_matched: u64,
    pub mbm_fifo_dropped: u64,
    pub bitmap_hits: u64,
    pub bitmap_misses: u64,
    pub hypercalls: u64,
    pub pt_writes: u64,
    pub syscalls: u64,
    pub forks: u64,
    pub page_faults: u64,
}

impl Counters {
    pub fn of(sys: &System) -> Self {
        let m = sys.machine();
        let s = m.stats();
        let tlb = m.tlb().stats();
        let s2 = m.tlb().stage2_stats();
        let cache = m.data_cache().stats();
        let plans = m.plan_stats();
        let k = sys.kernel().stats();
        let mut c = Self {
            accesses: s.reads + s.writes,
            uncached: s.uncached_accesses,
            sysreg_traps: s.sysreg_traps,
            stage2_faults: s.stage2_faults,
            tlb_hits: tlb.hits,
            tlb_misses: tlb.misses,
            tlb_l0_hits: tlb.l0_hits,
            s2_tlb_hits: s2.hits,
            s2_tlb_misses: s2.misses,
            dcache_hits: cache.hits,
            dcache_misses: cache.misses,
            plan_replayed_words: plans.replayed_words,
            plan_hint_repairs: plans.hint_repairs,
            plan_invalidations: plans.total_invalidations(),
            syscalls: k.syscalls,
            forks: k.forks,
            page_faults: k.page_faults,
            ..Self::default()
        };
        if let Some(mbm) = m.bus().snooper::<Mbm>() {
            let s = mbm.stats();
            let b = mbm.bitmap_cache_stats();
            c.mbm_captured = s.captured;
            c.mbm_filter_skips = s.page_filter_skips;
            c.mbm_events_matched = s.events_matched;
            c.mbm_fifo_dropped = s.fifo_dropped;
            c.bitmap_hits = b.hits;
            c.bitmap_misses = b.misses;
        }
        if let Some(hs) = sys.hypersec() {
            c.hypercalls = hs.stats().hypercalls;
            c.pt_writes = hs.stats().pt_writes;
        }
        c
    }

    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            accesses: f(self.accesses, other.accesses),
            uncached: f(self.uncached, other.uncached),
            sysreg_traps: f(self.sysreg_traps, other.sysreg_traps),
            stage2_faults: f(self.stage2_faults, other.stage2_faults),
            tlb_hits: f(self.tlb_hits, other.tlb_hits),
            tlb_misses: f(self.tlb_misses, other.tlb_misses),
            tlb_l0_hits: f(self.tlb_l0_hits, other.tlb_l0_hits),
            s2_tlb_hits: f(self.s2_tlb_hits, other.s2_tlb_hits),
            s2_tlb_misses: f(self.s2_tlb_misses, other.s2_tlb_misses),
            dcache_hits: f(self.dcache_hits, other.dcache_hits),
            dcache_misses: f(self.dcache_misses, other.dcache_misses),
            plan_replayed_words: f(self.plan_replayed_words, other.plan_replayed_words),
            plan_hint_repairs: f(self.plan_hint_repairs, other.plan_hint_repairs),
            plan_invalidations: f(self.plan_invalidations, other.plan_invalidations),
            mbm_captured: f(self.mbm_captured, other.mbm_captured),
            mbm_filter_skips: f(self.mbm_filter_skips, other.mbm_filter_skips),
            mbm_events_matched: f(self.mbm_events_matched, other.mbm_events_matched),
            mbm_fifo_dropped: f(self.mbm_fifo_dropped, other.mbm_fifo_dropped),
            bitmap_hits: f(self.bitmap_hits, other.bitmap_hits),
            bitmap_misses: f(self.bitmap_misses, other.bitmap_misses),
            hypercalls: f(self.hypercalls, other.hypercalls),
            pt_writes: f(self.pt_writes, other.pt_writes),
            syscalls: f(self.syscalls, other.syscalls),
            forks: f(self.forks, other.forks),
            page_faults: f(self.page_faults, other.page_faults),
        }
    }

    /// The work done between snapshot `before` and `self`.
    pub fn delta(self, before: Self) -> Self {
        self.zip(before, u64::wrapping_sub)
    }

    pub fn add(self, other: Self) -> Self {
        self.zip(other, u64::wrapping_add)
    }
}
