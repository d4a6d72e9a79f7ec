//! Guest-memory ownership sanitizer: a shadow tag per physical page
//! with a writer/tag policy matrix checked on CPU and DMA stores.
//!
//! This is the KASAN-style half of `hypernel-audit` (the other half is
//! the static page-table walker in the `hypernel-audit` crate). Every
//! DRAM page carries one [`PageTag`] describing who *owns* it; the
//! kernel maintains the tags at its allocation/mapping sites and the
//! machine consults a [`TagPolicy`] on every store performed through
//! [`crate::Machine`]'s access chokepoint. A denied combination does
//! not abort the access — the simulated hardware has no such trap —
//! it records a typed [`TagViolation`] so silent corruption becomes a
//! diagnostic.
//!
//! Checks happen where the *writer identity* is still known: at the
//! CPU's physical-access chokepoint (`Machine::perform`) and at the
//! DMA entry point, not on raw bus transactions. Cache write-backs
//! carry no provenance (a line dirtied at EL1 may be evicted during an
//! EL2 access), so checking bus `WriteLine`/`WriteWord` traffic would
//! misattribute writers; see `docs/AUDIT.md` for the full rationale.
//!
//! The sanitizer is off by default, charges **zero simulated cycles**,
//! and never changes architectural state — enabling it leaves every
//! simulated result byte-identical.

use crate::addr::PhysAddr;
use crate::addr::PAGE_SIZE;

/// Ownership class of one physical page.
///
/// The lattice from the paper discussion plus `KernelData`, which the
/// issue's list folds into "everything else" but which we keep distinct
/// so the EL0 policy can separate kernel heap from user-mapped frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PageTag {
    /// Unallocated (or freed) frame-pool memory.
    Free = 0,
    /// Kernel image text/rodata.
    KernelText = 1,
    /// Kernel heap: slabs, stacks, page cache, file data, pipe buffers.
    KernelData = 2,
    /// A live stage-1 translation table page.
    PageTable = 3,
    /// The Hypersec-owned secure region (private heap included).
    SecureRegion = 4,
    /// Device-owned storage (MBM bitmap + event ring).
    Mmio = 5,
    /// A frame currently mapped into some user address space.
    UserData = 6,
}

/// Number of distinct [`PageTag`] values (for policy matrices).
pub const TAG_COUNT: usize = 7;

impl PageTag {
    /// Stable lower-case name, used in diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PageTag::Free => "free",
            PageTag::KernelText => "kernel-text",
            PageTag::KernelData => "kernel-data",
            PageTag::PageTable => "page-table",
            PageTag::SecureRegion => "secure-region",
            PageTag::Mmio => "mmio",
            PageTag::UserData => "user-data",
        }
    }

    fn from_index(i: u8) -> Self {
        match i {
            1 => PageTag::KernelText,
            2 => PageTag::KernelData,
            3 => PageTag::PageTable,
            4 => PageTag::SecureRegion,
            5 => PageTag::Mmio,
            6 => PageTag::UserData,
            _ => PageTag::Free,
        }
    }
}

/// Who performed a store, as known at the access chokepoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Writer {
    /// A user-mode store (EL0).
    El0 = 0,
    /// A kernel-mode store (EL1).
    El1 = 1,
    /// A hypervisor store (EL2).
    El2 = 2,
    /// A device write that bypasses the MMU and caches.
    Dma = 3,
}

/// Number of distinct [`Writer`] values.
pub const WRITER_COUNT: usize = 4;

impl Writer {
    /// Stable lower-case name, used in diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Writer::El0 => "el0",
            Writer::El1 => "el1",
            Writer::El2 => "el2",
            Writer::Dma => "dma",
        }
    }
}

/// Writer × tag allow-matrix.
#[derive(Clone, Debug)]
pub struct TagPolicy {
    allow: [[bool; TAG_COUNT]; WRITER_COUNT],
}

impl TagPolicy {
    /// The strict Hypernel policy: the kernel owns its heap and may
    /// copy to user frames, but never touches page tables (those are
    /// edited only by Hypersec at EL2), text, device storage, the
    /// secure region, or freed frames. EL0 writes only user frames.
    /// EL2 is trusted everywhere; DMA reaches only user/kernel data.
    pub fn hypernel() -> Self {
        let mut allow = [[false; TAG_COUNT]; WRITER_COUNT];
        allow[Writer::El0 as usize][PageTag::UserData as usize] = true;
        for tag in [PageTag::KernelData, PageTag::UserData] {
            allow[Writer::El1 as usize][tag as usize] = true;
            allow[Writer::Dma as usize][tag as usize] = true;
        }
        allow[Writer::El2 as usize] = [true; TAG_COUNT];
        Self { allow }
    }

    /// The native/KVM policy: identical to [`TagPolicy::hypernel`]
    /// except that EL1 may also write live page-table pages — an
    /// unprotected kernel edits its own stage-1 tables directly.
    pub fn native() -> Self {
        let mut policy = Self::hypernel();
        policy.allow[Writer::El1 as usize][PageTag::PageTable as usize] = true;
        policy
    }

    /// Whether `writer` may store to a page tagged `tag`.
    pub fn allows(&self, writer: Writer, tag: PageTag) -> bool {
        self.allow[writer as usize][tag as usize]
    }
}

/// One denied store, recorded with everything needed for a diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagViolation {
    /// Who stored.
    pub writer: Writer,
    /// Where (word-aligned physical address).
    pub pa: PhysAddr,
    /// The value stored.
    pub value: u64,
    /// The ownership tag of the target page at the time of the store.
    pub tag: PageTag,
}

impl std::fmt::Display for TagViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} store of {:#x} to {} page at {}",
            self.writer.name(),
            self.value,
            self.tag.name(),
            self.pa
        )
    }
}

/// Cap on retained [`TagViolation`] records; further denials only
/// bump the counters (the log stays bounded under a write storm).
pub const MAX_VIOLATIONS: usize = 64;

/// Monotonic sanitizer counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Stores checked against the policy.
    pub checked: u64,
    /// Stores the policy denied (including those past the log cap).
    pub denied: u64,
    /// Pages (re)tagged by maintenance calls.
    pub retags: u64,
}

/// The shadow-tag store: one [`PageTag`] per DRAM page plus the
/// policy, a bounded violation log, and counters.
#[derive(Clone, Debug)]
pub struct ShadowTags {
    tags: Vec<u8>,
    policy: TagPolicy,
    violations: Vec<TagViolation>,
    stats: ShadowStats,
}

impl ShadowTags {
    /// Creates a store covering `dram_size` bytes, all pages `Free`.
    pub fn new(dram_size: u64, policy: TagPolicy) -> Self {
        let pages = (dram_size / PAGE_SIZE) as usize;
        Self {
            tags: vec![PageTag::Free as u8; pages],
            policy,
            violations: Vec::new(),
            stats: ShadowStats::default(),
        }
    }

    /// Tags the page containing `pa`.
    pub fn tag_page(&mut self, pa: PhysAddr, tag: PageTag) {
        let idx = pa.page_index() as usize;
        if let Some(slot) = self.tags.get_mut(idx) {
            *slot = tag as u8;
            self.stats.retags += 1;
        }
    }

    /// Tags every page of `[base, base + len)`.
    pub fn tag_range(&mut self, base: PhysAddr, len: u64, tag: PageTag) {
        let mut pa = base.page_base();
        let end = base.raw() + len;
        while pa.raw() < end {
            self.tag_page(pa, tag);
            pa = pa.add(PAGE_SIZE);
        }
    }

    /// The current tag of the page containing `pa` (`Free` if out of
    /// range).
    pub fn tag_of(&self, pa: PhysAddr) -> PageTag {
        self.tags
            .get(pa.page_index() as usize)
            .map_or(PageTag::Free, |&t| PageTag::from_index(t))
    }

    /// Checks one store against the policy, recording a violation on
    /// denial. Zero simulated cycles; never blocks the access.
    pub fn check_write(&mut self, writer: Writer, pa: PhysAddr, value: u64) {
        self.stats.checked += 1;
        let tag = self.tag_of(pa);
        if self.policy.allows(writer, tag) {
            return;
        }
        self.stats.denied += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(TagViolation {
                writer,
                pa,
                value,
                tag,
            });
        }
    }

    /// The recorded violations (bounded by [`MAX_VIOLATIONS`]).
    pub fn violations(&self) -> &[TagViolation] {
        &self.violations
    }

    /// Sanitizer counters.
    pub fn stats(&self) -> ShadowStats {
        self.stats
    }

    /// The active policy.
    pub fn policy(&self) -> &TagPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypernel_policy_matrix() {
        let p = TagPolicy::hypernel();
        assert!(p.allows(Writer::El1, PageTag::KernelData));
        assert!(p.allows(Writer::El1, PageTag::UserData));
        assert!(!p.allows(Writer::El1, PageTag::PageTable));
        assert!(!p.allows(Writer::El1, PageTag::KernelText));
        assert!(!p.allows(Writer::El1, PageTag::SecureRegion));
        assert!(!p.allows(Writer::El1, PageTag::Free));
        assert!(!p.allows(Writer::El0, PageTag::KernelData));
        assert!(p.allows(Writer::El0, PageTag::UserData));
        assert!(p.allows(Writer::El2, PageTag::SecureRegion));
        assert!(!p.allows(Writer::Dma, PageTag::PageTable));
        assert!(p.allows(Writer::Dma, PageTag::UserData));
    }

    #[test]
    fn native_policy_allows_el1_pt_edits() {
        let p = TagPolicy::native();
        assert!(p.allows(Writer::El1, PageTag::PageTable));
        assert!(!p.allows(Writer::El1, PageTag::KernelText));
    }

    #[test]
    fn violations_are_recorded_and_capped() {
        let mut s = ShadowTags::new(1 << 20, TagPolicy::hypernel());
        let pa = PhysAddr::new(0x3000);
        s.tag_page(pa, PageTag::PageTable);
        assert_eq!(s.tag_of(pa), PageTag::PageTable);
        for i in 0..(MAX_VIOLATIONS as u64 + 8) {
            s.check_write(Writer::El1, pa.add(8 * (i % 16)), i);
        }
        assert_eq!(s.violations().len(), MAX_VIOLATIONS);
        assert_eq!(s.stats().denied, MAX_VIOLATIONS as u64 + 8);
        s.check_write(Writer::El1, pa, 7); // allowed? no — still denied
        assert_eq!(s.stats().checked, MAX_VIOLATIONS as u64 + 9);
        assert_eq!(s.violations().len(), MAX_VIOLATIONS);
    }

    #[test]
    fn out_of_range_pages_read_as_free() {
        let s = ShadowTags::new(1 << 20, TagPolicy::hypernel());
        assert_eq!(s.tag_of(PhysAddr::new(1 << 30)), PageTag::Free);
    }
}
