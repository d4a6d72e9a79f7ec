//! Compiled access plans: a record-and-replay fast path for hot
//! access sequences.
//!
//! The abstract per-access interpreter walk — translate, cache model,
//! cost accounting, bus snoop — dominates host time once the L0
//! micro-TLB and the MBM watch-page filter are in place, even though
//! for a hot loop nothing about the mapping, the watch set, or the
//! fault plan changes between accesses. This module bakes that
//! observation into a *plan cache*: the first execution of an access
//! sequence through a page records, per 64-byte cache line, where the
//! line landed ([`crate::cache::LineHint`]); subsequent executions
//! replay whole line runs in one step, charging the identical batched
//! simulated cycles and statistics (see
//! [`crate::cache::DataCache::replay_run`] for the equivalence
//! argument).
//!
//! # Plan keys and validation
//!
//! Plans key on `(asid, VA page)` — the access *pattern* is carried by
//! the per-line hint vector, which is populated lazily in exactly the
//! order the recorded sequence touched the page. Replay safety never
//! rests on invalidation alone; every replay re-validates, in order:
//!
//! 1. the live TLB entry (the translation is looked up or peeked on
//!    the reference path first, with full hit accounting),
//! 2. the plan's recorded physical page against that entry
//!    (`pa_page` mismatch recompiles the plan), and
//! 3. the line hint's tag, inside [`DataCache::replay_run`]
//!    (stale hints fail closed onto the reference probe).
//!
//! # Invalidation matrix
//!
//! On top of the self-validation, the machine explicitly invalidates
//! plans whenever the environment a plan was compiled under may have
//! changed — each cause has its own host counter in [`PlanStats`]:
//!
//! | event | scope | counter |
//! |---|---|---|
//! | `TLBI` (all / ASID / VA / stage-2), permission re-walk | matching plans | `inval_tlb` |
//! | TTBR / translation-system-register write | all plans | `inval_translation_reg` |
//! | watch-set registration / revocation | all plans | `inval_watch_set` |
//! | sanitizer tag install / removal | all plans | `inval_sanitizer` |
//! | fault-injector install / removal | all plans | `inval_fault_injector` |
//!
//! While a sanitizer or a fault injector is *installed*, the machine
//! additionally gates plan use off entirely, so fault sites always
//! take the reference path.
//!
//! Whole-cache invalidation is O(1): plans carry the epoch they were
//! compiled in and a global epoch bump strands them all.
//!
//! # Determinism contract
//!
//! Like every host fast path (see [`crate::fastpath`]), the plan layer
//! is contractually invisible: simulated cycles, stats, bus/snoop
//! traffic, telemetry and metrics are byte-identical with plans on or
//! off. [`PlanStats`] counters are *host* observability and must never
//! serialize into run artifacts.
//!
//! [`DataCache::replay_run`]: crate::cache::DataCache::replay_run

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::cache::{LineHint, LINE_SIZE};

/// Cache lines per 4 KiB page (the length of a plan's hint vector).
pub const PAGE_LINES: usize = (PAGE_SIZE / LINE_SIZE) as usize;

/// Direct-mapped plan slots. Each plan is ~300 B, so the cache tops
/// out around 150 KiB of host memory.
const PLAN_SLOTS: usize = 512;

/// Host-side counters for the compiled plan layer, read through
/// [`crate::machine::Machine::plan_stats`] by the host-time benches
/// only. Never part of a run artifact — they legitimately differ
/// across `HYPERNEL_NO_COMPILED` configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Plans compiled (first execution of a hot page recorded).
    pub plans_compiled: u64,
    /// Successful line-run replays.
    pub plan_replays: u64,
    /// Words served by replays (each would have been one full
    /// interpreter walk on the reference path).
    pub replayed_words: u64,
    /// Stale line hints refreshed via the reference path.
    pub hint_repairs: u64,
    /// Plans evicted by a different page hashing to their slot.
    pub capacity_evictions: u64,
    /// Plans recompiled because the live translation's physical page
    /// no longer matched the recorded one.
    pub pa_recompiles: u64,
    /// Invalidations from TLB maintenance (TLBI, permission re-walks).
    pub inval_tlb: u64,
    /// Invalidations from translation-system-register (TTBR/SCTLR/…)
    /// writes.
    pub inval_translation_reg: u64,
    /// Invalidations from watch-set registration or revocation.
    pub inval_watch_set: u64,
    /// Invalidations from sanitizer-tag install or removal.
    pub inval_sanitizer: u64,
    /// Invalidations from fault-injector install or removal.
    pub inval_fault_injector: u64,
    /// Workload basic-block boundary hints observed (see
    /// [`crate::machine::Machine::hint_block_boundary`]).
    pub block_hints: u64,
}

impl PlanStats {
    /// Total explicit invalidation events across all causes.
    pub fn total_invalidations(&self) -> u64 {
        self.inval_tlb
            + self.inval_translation_reg
            + self.inval_watch_set
            + self.inval_sanitizer
            + self.inval_fault_injector
    }
}

/// Why a plan invalidation fired (selects the [`PlanStats`] counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidateCause {
    /// TLB maintenance: TLBI instructions and conservative permission
    /// re-walk flushes.
    TlbMaintenance,
    /// A write to a translation system register (TTBR, SCTLR, …).
    TranslationReg,
    /// MBM watch-set registration or revocation.
    WatchSet,
    /// Ownership-sanitizer tags installed or removed.
    Sanitizer,
    /// Fault injector installed or removed.
    FaultInjector,
}

/// What the plan cache wants the machine to do for one line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanQuery {
    /// A recorded hint exists — attempt a batched replay (the hint may
    /// still be stale; the cache re-validates it).
    Replay(LineHint),
    /// The plan exists (or was just compiled) but this line has no
    /// hint yet — take the reference path and record the outcome.
    Record,
}

#[derive(Debug, Clone)]
struct PagePlan {
    asid: u16,
    va_page: u64,
    pa_page: PhysAddr,
    epoch: u64,
    hints: [LineHint; PAGE_LINES],
}

/// Direct-mapped cache of per-page access plans. Purely host state:
/// cloning a [`crate::machine::Machine`] clones the plans (they stay
/// valid — the underlying cache and TLB clone with them), and
/// disabling the cache only changes how fast the simulator runs.
#[derive(Debug, Clone)]
pub struct PlanCache {
    slots: Vec<Option<PagePlan>>,
    epoch: u64,
    enabled: bool,
    stats: PlanStats,
}

impl PlanCache {
    /// Creates an empty plan cache.
    pub fn new(enabled: bool) -> Self {
        Self {
            slots: vec![None; PLAN_SLOTS],
            epoch: 0,
            enabled,
            stats: PlanStats::default(),
        }
    }

    /// Whether the compiled layer is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-structure test hook (mirrors `Tlb::set_l0_enabled`): turns
    /// the plan layer on or off in-process and drops every plan, so a
    /// disabled cache cannot serve stale state when re-enabled.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.slots = vec![None; PLAN_SLOTS];
    }

    /// Host counters.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    #[inline]
    fn slot_of(va_page: u64) -> usize {
        (va_page as usize) & (PLAN_SLOTS - 1)
    }

    /// Looks up (compiling on demand) the plan for `(asid, va_page)`
    /// and returns what to do for the line at `line_idx`. `pa_page` is
    /// the physical page the *live* TLB entry resolved to — a plan
    /// recorded against a different frame is recompiled.
    pub fn prepare(
        &mut self,
        asid: u16,
        va_page: u64,
        pa_page: PhysAddr,
        line_idx: usize,
    ) -> PlanQuery {
        let epoch = self.epoch;
        let slot = &mut self.slots[Self::slot_of(va_page)];
        if let Some(plan) = slot {
            if plan.epoch == epoch && plan.asid == asid && plan.va_page == va_page {
                if plan.pa_page == pa_page {
                    let hint = plan.hints[line_idx];
                    return if hint.is_valid() {
                        PlanQuery::Replay(hint)
                    } else {
                        PlanQuery::Record
                    };
                }
                self.stats.pa_recompiles += 1;
            } else if plan.epoch == epoch {
                self.stats.capacity_evictions += 1;
            }
        }
        *slot = Some(PagePlan {
            asid,
            va_page,
            pa_page,
            epoch,
            hints: [LineHint::INVALID; PAGE_LINES],
        });
        self.stats.plans_compiled += 1;
        PlanQuery::Record
    }

    /// Page-level variant of [`PlanCache::prepare`]: validates (or
    /// compiles) the plan for `(asid, va_page)` against the live frame
    /// once and returns a copy of its per-line hint vector, so a block
    /// loop can replay many line runs without re-validating the plan
    /// key per line. Returns `None` — after compiling a fresh plan —
    /// when no live matching plan existed; the caller then takes the
    /// reference path and records hints as it goes.
    pub fn page_hints(
        &mut self,
        asid: u16,
        va_page: u64,
        pa_page: PhysAddr,
    ) -> Option<[LineHint; PAGE_LINES]> {
        let epoch = self.epoch;
        let slot = &mut self.slots[Self::slot_of(va_page)];
        if let Some(plan) = slot {
            if plan.epoch == epoch && plan.asid == asid && plan.va_page == va_page {
                if plan.pa_page == pa_page {
                    return Some(plan.hints);
                }
                self.stats.pa_recompiles += 1;
            } else if plan.epoch == epoch {
                self.stats.capacity_evictions += 1;
            }
        }
        *slot = Some(PagePlan {
            asid,
            va_page,
            pa_page,
            epoch,
            hints: [LineHint::INVALID; PAGE_LINES],
        });
        self.stats.plans_compiled += 1;
        None
    }

    /// Records (or repairs) the hint for one line of the plan keyed
    /// `(asid, va_page)`. A `None` location clears the hint.
    pub fn set_hint(&mut self, asid: u16, va_page: u64, line_idx: usize, hint: Option<LineHint>) {
        let epoch = self.epoch;
        if let Some(plan) = &mut self.slots[Self::slot_of(va_page)] {
            if plan.epoch == epoch && plan.asid == asid && plan.va_page == va_page {
                plan.hints[line_idx] = hint.unwrap_or(LineHint::INVALID);
            }
        }
    }

    /// Counts a successful replay of `words` consecutive words.
    pub fn note_replay(&mut self, words: u64) {
        self.note_replays(1, words);
    }

    /// Counts `runs` successful replays serving `words` words in one
    /// batched update (one call per page run instead of one per line).
    pub fn note_replays(&mut self, runs: u64, words: u64) {
        self.stats.plan_replays += runs;
        self.stats.replayed_words += words;
    }

    /// Counts a stale hint repaired through the reference path.
    pub fn note_repair(&mut self) {
        self.stats.hint_repairs += 1;
    }

    /// Counts a workload basic-block boundary hint.
    pub fn note_block_hint(&mut self) {
        self.stats.block_hints += 1;
    }

    fn count(&mut self, cause: InvalidateCause) {
        match cause {
            InvalidateCause::TlbMaintenance => self.stats.inval_tlb += 1,
            InvalidateCause::TranslationReg => self.stats.inval_translation_reg += 1,
            InvalidateCause::WatchSet => self.stats.inval_watch_set += 1,
            InvalidateCause::Sanitizer => self.stats.inval_sanitizer += 1,
            InvalidateCause::FaultInjector => self.stats.inval_fault_injector += 1,
        }
    }

    /// Strands every plan (O(1) epoch bump).
    pub fn invalidate_all(&mut self, cause: InvalidateCause) {
        self.epoch = self.epoch.wrapping_add(1);
        self.count(cause);
    }

    /// Drops the plan covering one VA page (any ASID — `TLBI VAE1`
    /// invalidates across address spaces).
    pub fn invalidate_va(&mut self, va_page: u64) {
        let slot = &mut self.slots[Self::slot_of(va_page)];
        if slot.as_ref().is_some_and(|p| p.va_page == va_page) {
            *slot = None;
        }
        self.count(InvalidateCause::TlbMaintenance);
    }

    /// Drops every plan recorded under `asid` (kernel-global plans,
    /// keyed on the reserved kernel ASID, survive — mirroring how the
    /// TLB's global entries survive `TLBI ASID`).
    pub fn invalidate_asid(&mut self, asid: u16) {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|p| p.asid == asid) {
                *slot = None;
            }
        }
        self.count(InvalidateCause::TlbMaintenance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PA: PhysAddr = PhysAddr::new(0x4000);

    #[test]
    fn first_touch_compiles_then_replays() {
        let mut plans = PlanCache::new(true);
        assert_eq!(plans.prepare(1, 7, PA, 0), PlanQuery::Record);
        assert_eq!(plans.stats().plans_compiled, 1);
        // No hint recorded yet: still Record, no recompile.
        assert_eq!(plans.prepare(1, 7, PA, 0), PlanQuery::Record);
        assert_eq!(plans.stats().plans_compiled, 1);
        plans.set_hint(1, 7, 0, Some(LineHint::INVALID));
        assert_eq!(plans.prepare(1, 7, PA, 0), PlanQuery::Record);
        // A real hint replays; other lines still record.
        let mut cache = crate::cache::DataCache::new(16, 2);
        match cache.probe(PA) {
            crate::cache::CachePlan::Refill { line, .. } => {
                cache.install(line, [0; 8]);
            }
            crate::cache::CachePlan::Hit => unreachable!(),
        }
        let hint = cache.locate(PA).expect("resident");
        plans.set_hint(1, 7, 0, Some(hint));
        assert_eq!(plans.prepare(1, 7, PA, 0), PlanQuery::Replay(hint));
        assert_eq!(plans.prepare(1, 7, PA, 5), PlanQuery::Record);
    }

    #[test]
    fn pa_change_and_slot_conflicts_recompile() {
        let mut plans = PlanCache::new(true);
        plans.prepare(1, 7, PA, 0);
        // Same key, new frame: recompile, counted as pa_recompile.
        plans.prepare(1, 7, PhysAddr::new(0x8000), 0);
        assert_eq!(plans.stats().pa_recompiles, 1);
        assert_eq!(plans.stats().plans_compiled, 2);
        // Different page hashing to the same direct-mapped slot.
        plans.prepare(1, 7 + 512, PA, 0);
        assert_eq!(plans.stats().capacity_evictions, 1);
        assert_eq!(plans.stats().plans_compiled, 3);
        // Different ASID, same page: also a conflict eviction.
        plans.prepare(2, 7 + 512, PA, 0);
        assert_eq!(plans.stats().capacity_evictions, 2);
    }

    #[test]
    fn epoch_bump_strands_every_plan() {
        let mut plans = PlanCache::new(true);
        plans.prepare(1, 7, PA, 0);
        plans.set_hint(1, 7, 0, crate::cache::DataCache::new(2, 1).locate(PA));
        plans.invalidate_all(InvalidateCause::TranslationReg);
        assert_eq!(plans.stats().inval_translation_reg, 1);
        // The stranded plan recompiles rather than replaying; the
        // recompile is not miscounted as an eviction.
        assert_eq!(plans.prepare(1, 7, PA, 0), PlanQuery::Record);
        assert_eq!(plans.stats().plans_compiled, 2);
        assert_eq!(plans.stats().capacity_evictions, 0);
    }

    #[test]
    fn va_and_asid_invalidation_scopes() {
        let mut plans = PlanCache::new(true);
        plans.prepare(1, 7, PA, 0);
        plans.prepare(1, 8, PA, 0);
        plans.prepare(9, 20, PA, 0);
        plans.invalidate_va(7);
        plans.invalidate_asid(9);
        assert_eq!(plans.stats().inval_tlb, 2);
        assert_eq!(plans.stats().total_invalidations(), 2);
        // Page 8 (asid 1) survived both.
        assert_eq!(plans.prepare(1, 8, PA, 0), PlanQuery::Record);
        assert_eq!(plans.stats().plans_compiled, 3, "survivor not recompiled");
        // Pages 7 and 20 were dropped.
        plans.prepare(1, 7, PA, 0);
        plans.prepare(9, 20, PA, 0);
        assert_eq!(plans.stats().plans_compiled, 5);
    }

    #[test]
    fn disabling_drops_plans() {
        let mut plans = PlanCache::new(true);
        plans.prepare(1, 7, PA, 0);
        plans.set_enabled(false);
        assert!(!plans.enabled());
        plans.set_enabled(true);
        assert_eq!(plans.prepare(1, 7, PA, 0), PlanQuery::Record);
        assert_eq!(plans.stats().plans_compiled, 2);
    }
}
