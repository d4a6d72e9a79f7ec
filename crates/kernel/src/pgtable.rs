//! Kernel-side page-table management.
//!
//! All post-boot page-table edits funnel through [`PtManager::apply`],
//! which routes each descriptor write either **directly** (native and
//! KVM-guest configurations) or **through a hypercall to Hypersec**
//! (the Hypernel configuration, paper §6.2: "we modified the kernel to
//! force it to write onto the kernel page table via hypercalls instead of
//! directly modifying the page table").
//!
//! Boot-time construction of the linear map is trusted (secure boot, §4)
//! and uses cost-free direct writes via [`build_linear_map`].

use hypernel_machine::addr::{PhysAddr, VirtAddr, PAGE_SIZE, SECTION_SIZE};
use hypernel_machine::machine::{Exception, Hyp, Machine};
use hypernel_machine::pagetable::{
    self, plan_map, plan_unmap, Descriptor, EntryWrite, MapError, PagePerms,
};
use hypernel_machine::shadow::PageTag;

use crate::abi::Hypercall;
use crate::layout;
use crate::pgalloc::{FrameAllocator, OutOfFramesError};

/// How descriptor writes reach memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtRoute {
    /// The kernel writes page tables itself (native / KVM-guest).
    Direct,
    /// Every write is submitted to Hypersec via hypercall (Hypernel).
    Hypercall,
}

/// How the kernel linear map is built (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinearMapMode {
    /// Vanilla kernel: 2 MiB section (block) mappings. Page tables end up
    /// sharing sections with unrelated data — the protection-granularity
    /// gap.
    Sections,
    /// Instrumented kernel: 4 KiB page mappings, so page-table pages can
    /// be individually write-protected.
    Pages,
}

/// Errors from kernel page-table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtError {
    /// The frame pool is exhausted.
    OutOfFrames,
    /// The planner could not express the request.
    Plan(MapError),
    /// A trap or denial occurred while applying the writes.
    Machine(Exception),
}

impl std::fmt::Display for PtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfFrames => write!(f, "out of physical frames"),
            Self::Plan(e) => write!(f, "mapping plan failed: {e}"),
            Self::Machine(e) => write!(f, "page-table update rejected: {e}"),
        }
    }
}

impl std::error::Error for PtError {}

impl From<OutOfFramesError> for PtError {
    fn from(_: OutOfFramesError) -> Self {
        Self::OutOfFrames
    }
}

impl From<MapError> for PtError {
    fn from(e: MapError) -> Self {
        Self::Plan(e)
    }
}

impl From<Exception> for PtError {
    fn from(e: Exception) -> Self {
        Self::Machine(e)
    }
}

/// The kernel's page-table manager.
#[derive(Debug, Clone)]
pub struct PtManager {
    route: PtRoute,
    /// Quicklist of retired page-table pages, reused hot before fresh
    /// frames are taken (like Linux's historical pte quicklists) — this
    /// keeps per-exec table churn off the cold-frame path.
    pool: Vec<PhysAddr>,
}

impl PtManager {
    /// Creates a manager using `route` for descriptor writes.
    pub fn new(route: PtRoute) -> Self {
        Self {
            route,
            pool: Vec::new(),
        }
    }

    fn take_page(&mut self, frames: &mut FrameAllocator) -> Result<PhysAddr, OutOfFramesError> {
        match self.pool.pop() {
            Some(p) => Ok(p),
            None => frames.alloc(),
        }
    }

    /// The active route.
    pub fn route(&self) -> PtRoute {
        self.route
    }

    /// Switches the route (done once, right after the `LOCK` hypercall).
    pub fn set_route(&mut self, route: PtRoute) {
        self.route = route;
    }

    /// Applies one descriptor write via the active route.
    ///
    /// # Errors
    ///
    /// Propagates machine exceptions: under the hypercall route, Hypersec
    /// may deny the write; under the direct route the write may fault if
    /// the table page is read-only (which is exactly what happens when a
    /// rootkit tries to edit a protected table).
    pub fn apply(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        write: EntryWrite,
    ) -> Result<(), Exception> {
        match self.route {
            PtRoute::Direct => {
                m.write_u64(layout::kva(write.addr()), write.value, hyp)?;
            }
            PtRoute::Hypercall => {
                let (nr, args) = Hypercall::PtWrite {
                    table: write.table,
                    index: write.index,
                    value: write.value,
                }
                .encode();
                m.hvc(nr, args, hyp)?;
            }
        }
        Ok(())
    }

    /// Allocates and prepares a fresh table page: takes a frame, zeroes
    /// it (charged as one `clear_page`), and — under the hypercall route —
    /// registers it with Hypersec.
    ///
    /// # Errors
    ///
    /// Fails if the pool is empty or Hypersec rejects the registration.
    pub fn alloc_table(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        frames: &mut FrameAllocator,
        root: bool,
    ) -> Result<PhysAddr, PtError> {
        let table = self.take_page(frames)?;
        m.tag_page(table, PageTag::PageTable);
        // clear_page: modeled as a fixed stream of stores.
        m.charge(m.cost().cache_hit * 64);
        m.debug_zero_page(table);
        if self.route == PtRoute::Hypercall {
            let (nr, args) = Hypercall::PtRegisterTable { table, root }.encode();
            m.hvc(nr, args, hyp)?;
        }
        Ok(table)
    }

    /// Maps one 4 KiB page `va → pa` under `root`, allocating intermediate
    /// tables (quicklist-first) as needed. Returns the freshly linked
    /// table pages so the owner can retire them later.
    ///
    /// # Errors
    ///
    /// See [`PtError`].
    #[allow(clippy::too_many_arguments)] // mirrors the hardware operation's natural arity
    pub fn map_page(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        frames: &mut FrameAllocator,
        root: PhysAddr,
        va: VirtAddr,
        pa: PhysAddr,
        perms: PagePerms,
    ) -> Result<Vec<PhysAddr>, PtError> {
        // Pre-grab candidate table pages (a 4-level walk needs at most
        // three); unused ones go back to the quicklist.
        let mut candidates: Vec<PhysAddr> = Vec::new();
        for _ in 0..3 {
            match self.take_page(frames) {
                Ok(p) => {
                    // Zero before planning: the planner walks through
                    // freshly linked tables, and recycled quicklist pages
                    // still hold their previous contents.
                    m.debug_zero_page(p);
                    candidates.push(p);
                }
                Err(_) => break,
            }
        }
        let mut unused = candidates.clone();
        let plan_result = {
            let mut view = m.pt_view();
            plan_map(&mut view, root, va.raw(), pa, perms, 3, &mut || {
                unused.pop()
            })
        };
        let plan = match plan_result {
            Ok(p) => p,
            Err(e) => {
                self.pool.extend(candidates);
                return Err(e.into());
            }
        };
        self.pool.extend(unused);
        if perms.user {
            m.tag_page(pa, PageTag::UserData);
        }
        // Register the consumed tables (already zeroed above).
        for t in &plan.new_tables {
            m.tag_page(*t, PageTag::PageTable);
            m.charge(m.cost().cache_hit * 64);
            if self.route == PtRoute::Hypercall {
                let (nr, args) = Hypercall::PtRegisterTable {
                    table: *t,
                    root: false,
                }
                .encode();
                m.hvc(nr, args, hyp).map_err(PtError::Machine)?;
            }
        }
        for w in &plan.writes {
            self.apply(m, hyp, *w)?;
        }
        Ok(plan.new_tables)
    }

    /// Retires an entire address space: one `PT_UNREGISTER_TABLE`
    /// hypercall for the root (Hypersec unregisters the whole tree) and
    /// the table pages return to the quicklist. This is how exit/exec
    /// tear down an mm without one hypercall per descriptor.
    ///
    /// # Errors
    ///
    /// Propagates a Hypersec denial.
    pub fn retire_address_space(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        root: PhysAddr,
        tables: impl IntoIterator<Item = PhysAddr>,
    ) -> Result<(), PtError> {
        if self.route == PtRoute::Hypercall {
            let (nr, args) = Hypercall::PtUnregisterTable { table: root }.encode();
            m.hvc(nr, args, hyp)?;
        }
        self.pool.push(root);
        self.pool.extend(tables);
        Ok(())
    }

    /// Unmaps the page covering `va` under `root` and invalidates its TLB
    /// entry. Returns `true` if a mapping existed.
    ///
    /// # Errors
    ///
    /// Propagates denial/abort while applying the write.
    pub fn unmap_page(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        root: PhysAddr,
        va: VirtAddr,
    ) -> Result<bool, PtError> {
        let write = {
            let mut view = m.pt_view();
            plan_unmap(&mut view, root, va.raw())
        };
        match write {
            Some(w) => {
                self.apply(m, hyp, w)?;
                m.tlbi_va(va);
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

/// Result of boot-time linear-map construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearMapInfo {
    /// Every table page used by the mapping (including intermediate
    /// levels) — the set Hypersec will write-protect at `LOCK`.
    pub table_pages: Vec<PhysAddr>,
    /// Number of leaf descriptors written.
    pub leaves: u64,
}

/// Builds the kernel linear map at boot: maps physical range
/// `[0, layout::SECURE_BASE)` at [`layout::LINEAR_BASE`] with
/// [`PagePerms::KERNEL_DATA`], using 2 MiB blocks or 4 KiB pages per
/// `mode`. Trusted boot code: writes go straight to physical memory with
/// no cycle cost.
///
/// # Errors
///
/// Returns [`PtError::OutOfFrames`] if the pool cannot supply the tables.
pub fn build_linear_map(
    m: &mut Machine,
    frames: &mut FrameAllocator,
    root: PhysAddr,
    mode: LinearMapMode,
) -> Result<LinearMapInfo, PtError> {
    let mut tables = vec![root];
    m.mem_mut().fill(root, PAGE_SIZE, 0);
    let mut leaves = 0u64;

    // Walk VA space in order, keeping a cursor of intermediate tables so
    // each is resolved once instead of re-walking per leaf.
    let leaf_level = match mode {
        LinearMapMode::Sections => 2,
        LinearMapMode::Pages => 3,
    };
    let step = match mode {
        LinearMapMode::Sections => SECTION_SIZE,
        LinearMapMode::Pages => PAGE_SIZE,
    };

    let mut cursor: [Option<(u64, PhysAddr)>; 4] = [Some((u64::MAX, root)); 4];
    cursor[0] = Some((0, root));

    let mut pa = 0u64;
    while pa < layout::SECURE_BASE {
        let va = layout::LINEAR_BASE + pa;
        let input = va & ((1u64 << 48) - 1);
        // Resolve (or create) intermediate tables down to the leaf level.
        let mut table = root;
        for level in 0..leaf_level {
            let idx = (input >> (12 + 9 * (3 - level))) & 0x1FF;
            let cached = cursor[(level + 1) as usize];
            let key = input >> (12 + 9 * (3 - level));
            if let Some((k, t)) = cached {
                if k == key {
                    table = t;
                    continue;
                }
            }
            let eaddr = pagetable::entry_addr(table, input, level);
            let raw = m.mem_mut().read_u64(eaddr);
            let next = match Descriptor::decode(raw, level) {
                Descriptor::Table { next } => next,
                Descriptor::Invalid => {
                    let fresh = frames.alloc()?;
                    m.mem_mut().fill(fresh, PAGE_SIZE, 0);
                    tables.push(fresh);
                    m.mem_mut()
                        .write_u64(eaddr, Descriptor::Table { next: fresh }.encode());
                    fresh
                }
                Descriptor::Leaf { .. } => unreachable!("linear map built in order"),
            };
            cursor[(level + 1) as usize] = Some((key, next));
            table = next;
            let _ = idx;
        }
        let eaddr = pagetable::entry_addr(table, input, leaf_level);
        // The kernel image is text: read-only + executable (W^X from the
        // start); everything else is non-executable data.
        let perms = if pa + step <= layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE {
            PagePerms::KERNEL_TEXT
        } else {
            PagePerms::KERNEL_DATA
        };
        m.mem_mut().write_u64(
            eaddr,
            Descriptor::Leaf {
                out: PhysAddr::new(pa),
                perms,
            }
            .encode(),
        );
        leaves += 1;
        pa += step;
    }
    Ok(LinearMapInfo {
        table_pages: tables,
        leaves,
    })
}

/// Convenience: reads the descriptor that currently maps `va` under
/// `root` (coherently), for assertions and verification.
pub fn read_leaf(m: &mut Machine, root: PhysAddr, va: VirtAddr) -> Option<(PhysAddr, PagePerms)> {
    let mut view = m.pt_view();
    match pagetable::walk(&mut view, root, va.raw()) {
        Ok(res) => Some((res.out, res.perms)),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::machine::{MachineConfig, NullHyp};
    use hypernel_machine::regs::{sctlr, ExceptionLevel, SysReg};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            dram_size: layout::DRAM_SIZE,
            ..MachineConfig::default()
        })
    }

    fn frames() -> FrameAllocator {
        FrameAllocator::new(
            PhysAddr::new(layout::FRAME_POOL_BASE),
            PhysAddr::new(layout::FRAME_POOL_END),
        )
    }

    #[test]
    fn linear_map_pages_mode_translates_everywhere() {
        let mut m = machine();
        let mut f = frames();
        let root = f.alloc().unwrap();
        let info = build_linear_map(&mut m, &mut f, root, LinearMapMode::Pages).unwrap();
        assert_eq!(info.leaves, layout::SECURE_BASE / PAGE_SIZE);
        // Probe a few addresses across the range.
        for pa in [0u64, 0x1234_5000, layout::SECURE_BASE - PAGE_SIZE] {
            let (out, perms) =
                read_leaf(&mut m, root, layout::kva(PhysAddr::new(pa))).expect("mapped");
            assert_eq!(out, PhysAddr::new(pa));
            assert!(!perms.user);
            if pa < layout::KERNEL_IMAGE_SIZE {
                assert!(!perms.write && perms.exec, "kernel text is W^X");
            } else {
                assert!(perms.write && !perms.exec, "kernel data is W^X");
            }
        }
    }

    #[test]
    fn linear_map_sections_mode_uses_blocks() {
        let mut m = machine();
        let mut f = frames();
        let root = f.alloc().unwrap();
        let info = build_linear_map(&mut m, &mut f, root, LinearMapMode::Sections).unwrap();
        assert_eq!(info.leaves, layout::SECURE_BASE / SECTION_SIZE);
        // Sections need far fewer tables than pages mode.
        assert!(
            info.table_pages.len() < 16,
            "got {}",
            info.table_pages.len()
        );
        let (out, _) = read_leaf(&mut m, root, layout::kva(PhysAddr::new(0x12_3456))).unwrap();
        assert_eq!(out, PhysAddr::new(0x12_3456));
    }

    #[test]
    fn linear_map_never_reaches_secure_region() {
        let mut m = machine();
        let mut f = frames();
        let root = f.alloc().unwrap();
        build_linear_map(&mut m, &mut f, root, LinearMapMode::Pages).unwrap();
        let secure_va = VirtAddr::new(layout::LINEAR_BASE + layout::SECURE_BASE);
        assert!(read_leaf(&mut m, root, secure_va).is_none());
    }

    #[test]
    fn direct_route_map_and_access() {
        let mut m = machine();
        let mut f = frames();
        let mut hyp = NullHyp;
        let root = f.alloc().unwrap();
        build_linear_map(&mut m, &mut f, root, LinearMapMode::Pages).unwrap();
        m.el2_write_sysreg(SysReg::TTBR1_EL1, root.raw());
        m.el2_write_sysreg(SysReg::TTBR0_EL1, root.raw());
        m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
        m.set_el(ExceptionLevel::El1);

        let mut pt = PtManager::new(PtRoute::Direct);
        let user_root = pt.alloc_table(&mut m, &mut hyp, &mut f, true).unwrap();
        let frame = f.alloc().unwrap();
        pt.map_page(
            &mut m,
            &mut hyp,
            &mut f,
            user_root,
            VirtAddr::new(0x40_0000),
            frame,
            PagePerms::USER_DATA,
        )
        .unwrap();
        let (out, perms) = read_leaf(&mut m, user_root, VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(out, frame);
        assert!(perms.user);
    }

    #[test]
    fn unmap_and_protect() {
        let mut m = machine();
        let mut f = frames();
        let mut hyp = NullHyp;
        let root = f.alloc().unwrap();
        build_linear_map(&mut m, &mut f, root, LinearMapMode::Pages).unwrap();
        m.el2_write_sysreg(SysReg::TTBR1_EL1, root.raw());
        m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
        m.set_el(ExceptionLevel::El1);

        let mut pt = PtManager::new(PtRoute::Direct);
        let user_root = pt.alloc_table(&mut m, &mut hyp, &mut f, true).unwrap();
        let frame = f.alloc().unwrap();
        let va = VirtAddr::new(0x40_0000);
        pt.map_page(
            &mut m,
            &mut hyp,
            &mut f,
            user_root,
            va,
            frame,
            PagePerms::USER_DATA,
        )
        .unwrap();
        let write =
            pagetable::plan_protect(&mut m.pt_view(), user_root, va.raw(), PagePerms::KERNEL_RO)
                .expect("mapped");
        pt.apply(&mut m, &mut hyp, write).unwrap();
        let (_, perms) = read_leaf(&mut m, user_root, va).unwrap();
        assert!(!perms.write);
        assert!(pt.unmap_page(&mut m, &mut hyp, user_root, va).unwrap());
        assert!(read_leaf(&mut m, user_root, va).is_none());
        assert!(!pt.unmap_page(&mut m, &mut hyp, user_root, va).unwrap());
    }

    #[test]
    fn hypercall_route_fails_without_el2_software() {
        let mut m = machine();
        let mut f = frames();
        let mut hyp = NullHyp;
        let root = f.alloc().unwrap();
        build_linear_map(&mut m, &mut f, root, LinearMapMode::Pages).unwrap();
        m.el2_write_sysreg(SysReg::TTBR1_EL1, root.raw());
        m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
        m.set_el(ExceptionLevel::El1);

        let mut pt = PtManager::new(PtRoute::Hypercall);
        let err = pt.alloc_table(&mut m, &mut hyp, &mut f, false).unwrap_err();
        assert!(matches!(err, PtError::Machine(Exception::Denied(_))));
    }

    #[test]
    fn pt_error_display() {
        assert_eq!(PtError::OutOfFrames.to_string(), "out of physical frames");
        assert!(PtError::Plan(MapError::OutOfTablePages)
            .to_string()
            .contains("plan failed"));
    }
}
