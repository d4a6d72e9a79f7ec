//! Hypersec: the secure-space software of the Hypernel framework.
//!
//! Hypersec runs at EL2 — above the kernel it does not trust — and
//! provides the isolated execution environment of paper §5.2 **without
//! nested paging**:
//!
//! * it owns an **EL2 page table** (linear, `va == pa`) covering all of
//!   DRAM, with the secure region mapped non-cacheable so its writes to
//!   the MBM's bitmap and its reads of the ring buffer are bus-coherent;
//! * it **verifies every kernel page-table write** submitted by hypercall
//!   (W⊕X, linear-map identity, secure-region unmappability, page-table
//!   pages read-only) — §5.2.1;
//! * it **validates trapped writes to the VM control registers**
//!   (`HCR_EL2.TVM`) so the kernel can neither point `TTBR` at a rogue
//!   table nor switch the MMU off — §5.2.2;
//! * it manages **monitored regions** on behalf of security applications:
//!   VA→PA translation, word-granularity bitmap programming, cache
//!   maintenance + non-cacheable remapping of monitored pages, and MBM
//!   event dispatch — §5.3, Fig. 4.

use std::collections::BTreeMap;
use std::rc::Rc;

use hypernel_machine::fxhash::FxHashMap;

use hypernel_kernel::abi::Hypercall;
use hypernel_kernel::layout;
use hypernel_machine::addr::{
    IntermAddr, PhysAddr, VirtAddr, PAGE_SIZE, SECTION_SHIFT, SECTION_SIZE,
};
use hypernel_machine::machine::{AccessKind, Hyp, Machine, PolicyViolation, Stage2Outcome};
use hypernel_machine::pagetable::{self, Descriptor, PagePerms, ENTRIES_PER_TABLE};
use hypernel_machine::regs::{hcr, sctlr, ExceptionLevel, SysReg};
use hypernel_machine::snapshot::TableView;
use hypernel_mbm::bitmap::BitmapLayout;
use hypernel_mbm::ring::RingLayout;
use hypernel_telemetry::counter;
use hypernel_telemetry::counters::Counter;
use hypernel_telemetry::SpanKind;

use crate::audit::{self, AuditBaseline, Ctx};
use crate::secapp::{MonitorEvent, Region, SecurityApp, Verdict};

/// Violation codes reported by Hypersec.
pub mod codes {
    /// Hypercall number unknown.
    pub const UNKNOWN_HYPERCALL: u32 = 0x5001;
    /// The target page is not a registered page table.
    pub const NOT_A_TABLE: u32 = 0x5002;
    /// Attempt to map the secure region.
    pub const SECURE_MAPPING: u32 = 0x5003;
    /// W⊕X violation.
    pub const WXORX: u32 = 0x5004;
    /// Kernel linear mapping must stay identity.
    pub const LINEAR_IDENTITY: u32 = 0x5005;
    /// Writable mapping of a page-table page.
    pub const WRITABLE_TABLE: u32 = 0x5006;
    /// Table registration rejected (non-zero content, double
    /// registration, secure address…).
    pub const BAD_TABLE_REGISTRATION: u32 = 0x5007;
    /// `TTBR` pointed at an unregistered root.
    pub const ROGUE_ROOT: u32 = 0x5008;
    /// Attempt to disable the MMU or rewrite frozen translation config.
    pub const FROZEN_SYSREG: u32 = 0x5009;
    /// Monitored region request rejected.
    pub const BAD_MONITOR_REQUEST: u32 = 0x500A;
    /// Emulated write rejected (targets a protected object).
    pub const BAD_EMULATED_WRITE: u32 = 0x500B;
    /// A monitored page must stay non-cacheable.
    pub const MONITORED_CACHEABLE: u32 = 0x500C;
    /// Operation requires the post-LOCK state (or must precede it).
    pub const BAD_PHASE: u32 = 0x500D;
    /// Stage-2 faults cannot happen: Hypernel does not use nested paging.
    pub const NO_STAGE2: u32 = 0x500E;
    /// The kernel image (text) is immutable after LOCK.
    pub const TEXT_IMMUTABLE: u32 = 0x500F;

    /// Machine-readable description of one policy rule: its violation
    /// code, its stable kebab-case name (the `hypersec/rule/<name>`
    /// coverage key), and the surface it guards. This table is the
    /// single source the coverage universe and the static reachability
    /// analyzer both consume.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RuleMeta {
        /// Violation code (`0x5001..`).
        pub code: u32,
        /// Stable kebab-case name.
        pub name: &'static str,
        /// Which verification surface the rule guards.
        pub surface: &'static str,
    }

    /// Every rule, in numeric code order — the one authoritative list.
    pub const METADATA: &[RuleMeta] = &[
        RuleMeta {
            code: UNKNOWN_HYPERCALL,
            name: "unknown-hypercall",
            surface: "hypercall ABI decode",
        },
        RuleMeta {
            code: NOT_A_TABLE,
            name: "not-a-table",
            surface: "page-table write verification",
        },
        RuleMeta {
            code: SECURE_MAPPING,
            name: "secure-mapping",
            surface: "secure-region unreachability",
        },
        RuleMeta {
            code: WXORX,
            name: "wxorx",
            surface: "W^X over kernel mappings",
        },
        RuleMeta {
            code: LINEAR_IDENTITY,
            name: "linear-identity",
            surface: "kernel linear-map identity",
        },
        RuleMeta {
            code: WRITABLE_TABLE,
            name: "writable-table",
            surface: "page-table page immutability",
        },
        RuleMeta {
            code: BAD_TABLE_REGISTRATION,
            name: "bad-table-registration",
            surface: "table registration handshake",
        },
        RuleMeta {
            code: ROGUE_ROOT,
            name: "rogue-root",
            surface: "translation-root trust (TTBR traps)",
        },
        RuleMeta {
            code: FROZEN_SYSREG,
            name: "frozen-sysreg",
            surface: "frozen translation sysregs (TVM traps)",
        },
        RuleMeta {
            code: BAD_MONITOR_REQUEST,
            name: "bad-monitor-request",
            surface: "monitor registration interface",
        },
        RuleMeta {
            code: BAD_EMULATED_WRITE,
            name: "bad-emulated-write",
            surface: "emulated-write whitelist",
        },
        RuleMeta {
            code: MONITORED_CACHEABLE,
            name: "monitored-cacheable",
            surface: "monitored-page cacheability",
        },
        RuleMeta {
            code: BAD_PHASE,
            name: "bad-phase",
            surface: "boot/LOCK phase ordering",
        },
        RuleMeta {
            code: NO_STAGE2,
            name: "no-stage2",
            surface: "absence of nested paging",
        },
        RuleMeta {
            code: TEXT_IMMUTABLE,
            name: "text-immutable",
            surface: "kernel text immutability",
        },
    ];

    /// Every violation code, in numeric order — the rule universe for
    /// coverage accounting. Kept as a plain code list for callers that
    /// do not need the full [`METADATA`]; a unit test pins the two in
    /// sync.
    pub const ALL: &[u32] = &[
        UNKNOWN_HYPERCALL,
        NOT_A_TABLE,
        SECURE_MAPPING,
        WXORX,
        LINEAR_IDENTITY,
        WRITABLE_TABLE,
        BAD_TABLE_REGISTRATION,
        ROGUE_ROOT,
        FROZEN_SYSREG,
        BAD_MONITOR_REQUEST,
        BAD_EMULATED_WRITE,
        MONITORED_CACHEABLE,
        BAD_PHASE,
        NO_STAGE2,
        TEXT_IMMUTABLE,
    ];

    /// The metadata row for a violation code, if the code is known.
    pub fn meta(code: u32) -> Option<&'static RuleMeta> {
        METADATA.iter().find(|m| m.code == code)
    }

    /// Stable kebab-case name of a violation code, used as the
    /// `hypersec/rule/<name>` coverage key and in reports.
    pub fn name(code: u32) -> &'static str {
        meta(code).map_or("unknown-code", |m| m.name)
    }
}

/// Which translation root family a table belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    /// Reached from `TTBR1` (kernel linear map).
    Kernel,
    /// Reached from a registered `TTBR0` root.
    User,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct TableInfo {
    level: u32,
    va_base: u64,
    space: Space,
}

/// The verified pool: every registered table page, ascending, beside
/// its place in the tree. Shared copy-on-write, so a clone (a fork)
/// copies one pointer and the audit borrows the sorted list; a lookup is
/// a binary search.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pool {
    tables: Vec<PhysAddr>,
    info: Vec<TableInfo>,
}

impl Pool {
    fn get(&self, table: PhysAddr) -> Option<&TableInfo> {
        let i = self.tables.binary_search(&table).ok()?;
        Some(&self.info[i])
    }

    pub(crate) fn contains(&self, table: PhysAddr) -> bool {
        self.tables.binary_search(&table).is_ok()
    }

    fn insert(&mut self, table: PhysAddr, info: TableInfo) {
        match self.tables.binary_search(&table) {
            Ok(i) => self.info[i] = info,
            Err(i) => {
                self.tables.insert(i, table);
                self.info.insert(i, info);
            }
        }
    }

    fn remove(&mut self, table: PhysAddr) -> Option<TableInfo> {
        let i = self.tables.binary_search(&table).ok()?;
        self.tables.remove(i);
        Some(self.info.remove(i))
    }

    /// The tables exactly one of the two pools holds, ascending: one
    /// merge of the sorted lists, and nothing to do when both are one
    /// pool.
    pub(crate) fn difference(&self, other: &Pool) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        if std::ptr::eq(self, other) {
            return out;
        }
        let (a, b) = (&self.tables, &other.tables);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }
}

/// One detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Security application that raised it.
    pub sid: u32,
    /// The offending write.
    pub event: MonitorEvent,
    /// The application's reason.
    pub reason: String,
}

/// Result of a [`Hypersec::audit`] pass over live machine state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Table pages visited.
    pub tables_checked: u64,
    /// Leaf descriptors inspected.
    pub leaves_checked: u64,
    /// Monitored regions verified.
    pub regions_checked: u64,
    /// Invariant violations found (empty on a healthy system).
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Returns `true` if every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    pub(crate) fn violation(&mut self, message: String) {
        self.violations.push(message);
    }
}

/// Cycle-cost knobs for Hypersec's handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypersecCosts {
    /// Verification work per page-table write.
    pub pt_verify: u64,
    /// Verification work per table registration.
    pub table_register: u64,
    /// Work per trapped system-register write.
    pub sysreg_verify: u64,
    /// Work per monitor (un)registration, excluding memory traffic.
    pub monitor_register: u64,
    /// Work per drained MBM event, excluding memory traffic.
    pub event_dispatch: u64,
    /// Work per emulated data write.
    pub emulate_write: u64,
}

impl Default for HypersecCosts {
    fn default() -> Self {
        Self {
            pt_verify: 90,
            table_register: 260,
            sysreg_verify: 60,
            monitor_register: 420,
            event_dispatch: 300,
            emulate_write: 110,
        }
    }
}

/// Hypersec configuration.
#[derive(Debug, Clone, Copy)]
pub struct HypersecConfig {
    /// Cursor region for EL2 page tables (inside the secure region).
    pub el2_table_base: PhysAddr,
    /// Bytes reserved for EL2 tables.
    pub el2_table_len: u64,
    /// MBM bitmap geometry (must match the attached MBM device).
    pub bitmap: BitmapLayout,
    /// MBM ring geometry (must match the attached MBM device).
    pub ring: RingLayout,
    /// Handler costs.
    pub costs: HypersecCosts,
}

impl HypersecConfig {
    /// The standard configuration for the simulated platform layout,
    /// consistent with [`hypernel_kernel::layout`].
    pub fn standard() -> Self {
        Self {
            el2_table_base: PhysAddr::new(layout::HYPERSEC_PRIVATE_BASE),
            el2_table_len: layout::HYPERSEC_PRIVATE_SIZE,
            bitmap: BitmapLayout::new(
                PhysAddr::new(layout::MBM_WINDOW_BASE),
                layout::MBM_WINDOW_LEN,
                PhysAddr::new(layout::MBM_BITMAP_BASE),
            ),
            ring: RingLayout::new(
                PhysAddr::new(layout::MBM_RING_BASE),
                layout::MBM_RING_ENTRIES,
            ),
            costs: HypersecCosts::default(),
        }
    }
}

/// Hypersec statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HypersecStats {
    /// Hypercalls handled.
    pub hypercalls: u64,
    /// Page-table writes verified and applied.
    pub pt_writes: u64,
    /// Page-table writes denied.
    pub pt_denials: u64,
    /// Table pages registered.
    pub tables_registered: u64,
    /// Trapped system-register writes allowed.
    pub sysreg_allowed: u64,
    /// Trapped system-register writes denied.
    pub sysreg_denied: u64,
    /// Monitored regions currently live.
    pub regions_live: u64,
    /// MBM events dispatched to applications.
    pub events_dispatched: u64,
    /// Events with no owning region (stale bitmap bits).
    pub stray_events: u64,
    /// Malicious verdicts raised.
    pub detections: u64,
    /// Data writes emulated for the kernel.
    pub emulated_writes: u64,
}

impl HypersecStats {
    /// Every counter with its artifact names — the one list of them.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<HypersecStats>] = &[
        counter!(hypercalls),
        counter!(pt_writes, coverage = "hypersec/verdict/pt-write-allowed"),
        counter!(pt_denials, coverage = "hypersec/verdict/pt-write-denied"),
        counter!(tables_registered, coverage = "hypersec/verdict/table-registered"),
        counter!(sysreg_allowed, coverage = "hypersec/verdict/sysreg-allowed"),
        counter!(sysreg_denied, coverage = "hypersec/verdict/sysreg-denied"),
        counter!(regions_live),
        counter!(events_dispatched, coverage = "hypersec/verdict/event-dispatched"),
        counter!(stray_events, coverage = "hypersec/verdict/stray-event"),
        counter!(detections, coverage = "hypersec/verdict/detection"),
        counter!(emulated_writes, coverage = "hypersec/verdict/emulated-write"),
    ];
}

/// The Hypersec EL2 runtime. Implements [`Hyp`]; create with
/// [`Hypersec::install`] on a machine still in its EL2 boot state.
///
/// `Clone` deep-copies the whole EL2 state — table shadows, regions,
/// security apps (via [`SecurityApp::clone_box`]), detections and stats —
/// supporting warm-boot forking of a booted system. The clones share the
/// verified pool until one changes it, and share one [`AuditBaseline`].
#[derive(Clone)]
pub struct Hypersec {
    config: HypersecConfig,
    tables: Rc<Pool>,
    pending_tables: FxHashMap<u64, ()>,
    roots: FxHashMap<u64, ()>,
    kernel_root: Option<PhysAddr>,
    locked: bool,
    regions: Vec<Region>,
    nc_refcount: FxHashMap<u64, u32>,
    apps: Vec<Box<dyn SecurityApp>>,
    detections: Vec<Detection>,
    stats: HypersecStats,
    /// Per-rule denial counters, keyed by violation code: how many
    /// times each policy rule fired at an EL2 boundary (hypercall,
    /// trapped sysreg, stage-2 stub). Model-visible — feeds the
    /// campaign coverage atlas.
    rule_hits: BTreeMap<u32, u64>,
    /// Test-only miswire switch: skips the W⊕X clause in both the
    /// incremental verifier and the runtime auditor, emulating a
    /// verifier bug the *static* auditor must still catch (the
    /// differential check in `hypernel-audit` exists for exactly this).
    wx_check_disabled: bool,
    /// The baseline [`Hypersec::audit`] walks against, shared with
    /// every clone.
    audit_baseline: AuditBaseline,
}

impl std::fmt::Debug for Hypersec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hypersec")
            .field("locked", &self.locked)
            .field("tables", &self.tables.tables.len())
            .field("regions", &self.regions.len())
            .field("apps", &self.apps.len())
            .field("stats", &self.stats)
            .finish()
    }
}

pub(crate) fn level_shift(level: u32) -> u32 {
    12 + 9 * (3 - level)
}

/// Whether `[out, out + span)` overlaps the kernel image (its text).
pub(crate) fn is_kernel_text(out: PhysAddr, span: u64) -> bool {
    out.raw() < layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE
        && out.raw() + span > layout::KERNEL_IMAGE_BASE
}

/// Where `input`'s walk from `root` leaves level 2: `Ok` with the
/// level-3 table when levels 0–2 all hold table descriptors, else `Err`
/// with the walk's verdict — `Some` with a block leaf's permissions,
/// `None` for an invalid descriptor. Reads the same entries, in the same
/// order, as the first three steps of `pagetable::walk`.
fn level3_table(
    view: &TableView<'_>,
    root: PhysAddr,
    input: u64,
) -> Result<PhysAddr, Option<PagePerms>> {
    let mut table = root;
    for level in 0..3 {
        match Descriptor::decode(
            view.read_word(pagetable::entry_addr(table, input, level)),
            level,
        ) {
            Descriptor::Table { next } => table = next,
            Descriptor::Leaf { perms, .. } => return Err(Some(perms)),
            Descriptor::Invalid => return Err(None),
        }
    }
    Ok(table)
}

/// The permissions `pagetable::walk` finds for `input` on the path
/// [`level3_table`] resolved, or `None` when `input` is unmapped.
fn leaf_perms(
    view: &TableView<'_>,
    path: Result<PhysAddr, Option<PagePerms>>,
    input: u64,
) -> Option<PagePerms> {
    let l3 = match path {
        Ok(l3) => l3,
        Err(verdict) => return verdict,
    };
    match Descriptor::decode(view.read_word(pagetable::entry_addr(l3, input, 3)), 3) {
        Descriptor::Leaf { perms, .. } => Some(perms),
        _ => None, // invalid: level 3 holds no table descriptor
    }
}

impl Hypersec {
    /// Installs Hypersec on a machine in its EL2 boot state: builds the
    /// EL2 linear page table (secure region non-cacheable), programs
    /// `TTBR0_EL2`/`SP_EL2`/`VBAR_EL2`, and arms `HCR_EL2.TVM` (paper
    /// §6.1). Nested paging stays **off**.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not at EL2 or the table region is too
    /// small.
    pub fn install(m: &mut Machine, config: HypersecConfig) -> Self {
        assert_eq!(m.el(), ExceptionLevel::El2, "install requires EL2 (boot)");
        let root = config.el2_table_base;
        let end = config.el2_table_base.raw() + config.el2_table_len;
        let mut next = root.raw() + PAGE_SIZE;
        m.debug_zero_page(root);
        let dram = layout::DRAM_SIZE;
        let mut pa = 0u64;
        while pa < dram {
            let perms = if pa >= layout::SECURE_BASE {
                PagePerms::KERNEL_DATA_NC
            } else {
                PagePerms::KERNEL_DATA
            };
            let mut fresh = Vec::new();
            let plan = {
                let mut view = m.pt_view();
                pagetable::plan_map(
                    &mut view,
                    root,
                    pa,
                    PhysAddr::new(pa),
                    perms,
                    2,
                    &mut || {
                        if next + PAGE_SIZE > end {
                            return None;
                        }
                        let t = PhysAddr::new(next);
                        next += PAGE_SIZE;
                        fresh.push(t);
                        Some(t)
                    },
                )
            }
            .expect("EL2 table region too small");
            for t in &fresh {
                m.debug_zero_page(*t);
            }
            for w in &plan.writes {
                let mut view = m.pt_view();
                pagetable::apply_entry_write(&mut view, *w);
            }
            pa += SECTION_SIZE;
        }
        m.el2_write_sysreg(SysReg::TTBR0_EL2, root.raw());
        m.el2_write_sysreg(SysReg::SP_EL2, layout::HYPERSEC_PRIVATE_BASE + (1 << 20));
        m.el2_write_sysreg(SysReg::VBAR_EL2, layout::HYPERSEC_PRIVATE_BASE);
        m.el2_write_sysreg(SysReg::HCR_EL2, hcr::TVM);
        Self {
            config,
            tables: Rc::default(),
            pending_tables: FxHashMap::default(),
            roots: FxHashMap::default(),
            kernel_root: None,
            locked: false,
            regions: Vec::new(),
            nc_refcount: FxHashMap::default(),
            apps: Vec::new(),
            detections: Vec::new(),
            stats: HypersecStats::default(),
            rule_hits: BTreeMap::new(),
            wx_check_disabled: false,
            audit_baseline: AuditBaseline::default(),
        }
    }

    /// Hosts a security application in the secure space.
    pub fn install_app(&mut self, app: Box<dyn SecurityApp>) {
        self.apps.push(app);
    }

    /// Statistics.
    pub fn stats(&self) -> HypersecStats {
        self.stats
    }

    /// Whether boot has been finalized by `LOCK`.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Per-rule denial counts as `(code, hits)` pairs in code order:
    /// which policy rules have fired since install. Codes that never
    /// fired are absent.
    pub fn rule_hits(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.rule_hits.iter().map(|(code, n)| (*code, *n))
    }

    fn note_rule(&mut self, code: u32) {
        *self.rule_hits.entry(code).or_insert(0) += 1;
    }

    /// Detections raised so far.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Drains the detection log.
    pub fn take_detections(&mut self) -> Vec<Detection> {
        std::mem::take(&mut self.detections)
    }

    /// Live monitored regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The installed configuration (table region, bitmap/ring geometry).
    pub fn config(&self) -> &HypersecConfig {
        &self.config
    }

    /// Physical addresses of every verified (registered) table page,
    /// ascending — the Hypersec-verified pool a static auditor compares
    /// reachable tables against. Kept sorted, so this borrows it.
    pub fn verified_tables(&self) -> &[PhysAddr] {
        &self.tables.tables
    }

    /// Physical addresses of tables registered but not yet adopted into
    /// the verified pool (pre-LOCK or mid-construction), sorted.
    pub fn pending_tables(&self) -> Vec<PhysAddr> {
        let mut tables: Vec<PhysAddr> = self
            .pending_tables
            .keys()
            .map(|t| PhysAddr::new(*t))
            .collect();
        tables.sort();
        tables
    }

    /// Physical addresses of every verified user address-space root,
    /// sorted (the kernel root is separate; see
    /// [`Hypersec::kernel_root`]).
    pub fn verified_roots(&self) -> Vec<PhysAddr> {
        let mut roots: Vec<PhysAddr> = self.roots.keys().map(|r| PhysAddr::new(*r)).collect();
        roots.sort();
        roots
    }

    /// The adopted kernel root, once `LOCK` has run.
    pub fn kernel_root(&self) -> Option<PhysAddr> {
        self.kernel_root
    }

    /// The baseline [`Hypersec::audit`] walks against, shared with
    /// every clone.
    pub fn audit_baseline(&self) -> &AuditBaseline {
        &self.audit_baseline
    }

    /// Disables the W⊕X clause in both the incremental verifier and
    /// the runtime auditor — an intentionally-miswired verifier for
    /// differential-audit tests. Never call outside tests.
    #[doc(hidden)]
    pub fn testonly_disable_wx_check(&mut self) {
        self.wx_check_disabled = true;
    }

    /// Audits every security invariant Hypersec is responsible for, by
    /// re-walking the actual machine state (not Hypersec's bookkeeping):
    ///
    /// 1. every page reachable as a table from a registered root is
    ///    itself registered;
    /// 2. no reachable leaf maps the secure region;
    /// 3. no reachable leaf is writable+executable (W⊕X);
    /// 4. kernel linear leaves are identity;
    /// 5. every registered table page is read-only in the kernel's view;
    /// 6. every monitored region's page is non-cacheable in the kernel's
    ///    view and its watch bits are set in the bitmap.
    ///
    /// The paper's §8 argues Hypersec's ~1.5 KLoC is small enough to
    /// verify formally; this runtime auditor is the testable stand-in —
    /// integration tests run it after every adversarial scenario.
    ///
    /// A fork of a template walks only the tables its run changed
    /// (and their ancestors) and copies the rest from the family's
    /// [`AuditBaseline`]; the report is the same as a cold walk's.
    ///
    /// # Panics
    ///
    /// Panics if called before `LOCK` (there is nothing to audit).
    pub fn audit(&self, m: &mut Machine) -> AuditReport {
        self.audit_view(&m.table_view())
    }

    /// [`Hypersec::audit`] through a table view the caller already
    /// holds, so the static audit derives the view (and its dirty set)
    /// once for both walks. Panics before `LOCK`, as `audit` does.
    pub fn audit_view(&self, view: &TableView<'_>) -> AuditReport {
        let kernel_root = self.kernel_root.expect("audit requires the locked state");
        let mut report = AuditReport::default();
        let mut roots: Vec<PhysAddr> = self.roots.keys().map(|r| PhysAddr::new(*r)).collect();
        roots.sort();
        roots.insert(0, kernel_root);
        let roots: Vec<Ctx> = (0..)
            .zip(roots)
            .map(|(i, root)| Ctx {
                root,
                kernel_space: i == 0,
                wx_check: !self.wx_check_disabled,
            })
            .collect();
        audit::walk_roots(
            view,
            &self.tables,
            &self.audit_baseline,
            &roots,
            &mut report,
        );
        // Invariant 5: registered tables are read-only to the kernel.
        Self::audit_tables_read_only(view, kernel_root, self.verified_tables(), &mut report);
        // Invariant 6: monitored regions are non-cacheable and armed.
        for region in &self.regions {
            let va = region.base_va.raw();
            match leaf_perms(view, level3_table(view, kernel_root, va), va) {
                Some(perms) if perms.cacheable => report.violation(format!(
                    "monitored region at {} is cacheable - writes can hide from the MBM",
                    region.base_va
                )),
                Some(_) => {}
                None => report.violation(format!(
                    "monitored region at {} is unmapped",
                    region.base_va
                )),
            }
            let mut addr = region.pa;
            let end = region.pa.add(region.len);
            while addr < end {
                if let Some((word, mask)) = self.config.bitmap.locate(addr) {
                    if view.read_word(word) & mask == 0 {
                        report.violation(format!("watch bit missing for {addr}"));
                    }
                }
                addr = addr.add(8);
            }
            report.regions_checked += 1;
        }
        report
    }

    /// Invariant 5 of [`Hypersec::audit`] over `verified` (the sorted
    /// [`Hypersec::verified_tables`]), in ascending table order: each
    /// registered table page's kernel linear mapping must exist and be
    /// read-only. The verdict is that of one `pagetable::walk` of the
    /// page's linear address from `kernel_root`, with levels 0–2
    /// resolved once per 2 MiB region: they index by VA bits 21 and up,
    /// so every table of one region shares that path. A path that ends
    /// in a block or an invalid entry gives the whole region its
    /// verdict; otherwise each table reads one level-3 entry.
    fn audit_tables_read_only(
        view: &TableView<'_>,
        kernel_root: PhysAddr,
        verified: &[PhysAddr],
        report: &mut AuditReport,
    ) {
        // The last region resolved: its VA above the section bits, and
        // where its path leaves level 2.
        let mut region: Option<(u64, Result<PhysAddr, Option<PagePerms>>)> = None;
        for &table in verified {
            let va = layout::kva(table).raw();
            let path = match region {
                Some((section, path)) if section == va >> SECTION_SHIFT => path,
                _ => {
                    let path = level3_table(view, kernel_root, va);
                    region = Some((va >> SECTION_SHIFT, path));
                    path
                }
            };
            match leaf_perms(view, path, va) {
                Some(perms) if perms.write => {
                    report.violation(format!("table page {table} is writable in the kernel view"))
                }
                Some(_) => {}
                None => report.violation(format!("table page {table} has no kernel mapping")),
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Whether `page` is a registered table page, linked or pending.
    fn is_table(&self, page: u64) -> bool {
        self.tables.contains(PhysAddr::new(page)) || self.pending_tables.contains_key(&page)
    }

    /// The verified pool, copied first if a clone still shares it.
    fn pool_mut(&mut self) -> &mut Pool {
        Rc::make_mut(&mut self.tables)
    }

    fn deny(code: u32, message: impl Into<String>) -> PolicyViolation {
        PolicyViolation::new(code, message)
    }

    /// Leaf policy shared by the LOCK walk and PT_WRITE verification.
    ///
    /// `adopting` is true during the LOCK walk: at that point the linear
    /// map still (writably) covers the very table pages being adopted —
    /// the write-protect pass that immediately follows adoption is what
    /// establishes the invariant, so the writable-table check is deferred.
    fn check_leaf(
        &self,
        space: Space,
        va: u64,
        out: PhysAddr,
        perms: PagePerms,
        level: u32,
        adopting: bool,
    ) -> Result<(), PolicyViolation> {
        let span = 1u64 << level_shift(level);
        if out.raw() + span > layout::SECURE_BASE {
            return Err(Self::deny(
                codes::SECURE_MAPPING,
                format!("mapping reaches the secure region: {out}"),
            ));
        }
        if perms.write && perms.exec && !self.wx_check_disabled {
            return Err(Self::deny(
                codes::WXORX,
                format!("writable+executable mapping at va {va:#x}"),
            ));
        }
        match space {
            Space::Kernel => {
                // The kernel image is immutable: no writable mapping of
                // text may ever appear (inline-hook rootkits patch the
                // image through exactly such a downgrade).
                if is_kernel_text(out, span) && perms.write {
                    return Err(Self::deny(
                        codes::TEXT_IMMUTABLE,
                        format!("writable mapping of kernel text at va {va:#x}"),
                    ));
                }
                // Kernel half: linear identity only.
                if va != out.raw() {
                    return Err(Self::deny(
                        codes::LINEAR_IDENTITY,
                        format!("kernel linear mapping must be identity: va {va:#x} -> {out}"),
                    ));
                }
                // Monitored pages must stay non-cacheable.
                for off in (0..span).step_by(PAGE_SIZE as usize) {
                    let page = PhysAddr::new(out.raw() + off);
                    if self
                        .nc_refcount
                        .get(&page.page_index())
                        .copied()
                        .unwrap_or(0)
                        > 0
                        && perms.cacheable
                    {
                        return Err(Self::deny(
                            codes::MONITORED_CACHEABLE,
                            format!("monitored page {page} must remain non-cacheable"),
                        ));
                    }
                }
            }
            Space::User => {
                if !perms.user {
                    // Kernel-only data reachable from a user root is
                    // suspicious but not an isolation break; allow.
                }
            }
        }
        // No writable view of any page-table page, from either space.
        if perms.write && !adopting {
            for off in (0..span).step_by(PAGE_SIZE as usize) {
                let page = out.raw() + off;
                if self.is_table(page) {
                    return Err(Self::deny(
                        codes::WRITABLE_TABLE,
                        format!("writable mapping of page-table page {page:#x}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Write-protects (or restores) the kernel linear mapping of a
    /// page-table page. In the 2 MiB-section linear map this over-protects
    /// the whole section — the protection-granularity gap of §6.2.
    fn set_linear_perms(
        &mut self,
        m: &mut Machine,
        page: PhysAddr,
        perms: PagePerms,
    ) -> Result<(), PolicyViolation> {
        let Some(kernel_root) = self.kernel_root else {
            return Ok(()); // pre-LOCK: nothing to protect against yet
        };
        let kva = layout::kva(page);
        let write = {
            let mut view = m.pt_view();
            pagetable::plan_protect(&mut view, kernel_root, kva.raw(), perms)
        };
        if let Some(w) = write {
            m.el2_write_u64(VirtAddr::new(w.addr().raw()), w.value)
                .map_err(|e| {
                    Self::deny(codes::BAD_PHASE, format!("linear map edit failed: {e}"))
                })?;
            m.tlbi_va(kva);
        }
        Ok(())
    }

    fn linear_leaf_level(&self, m: &mut Machine, page: PhysAddr) -> Option<u32> {
        let kernel_root = self.kernel_root?;
        let mut view = m.pt_view();
        pagetable::walk(&mut view, kernel_root, layout::kva(page).raw())
            .ok()
            .map(|r| r.level)
    }

    // ------------------------------------------------------------------
    // Hypercall handlers
    // ------------------------------------------------------------------

    fn handle_pt_register(
        &mut self,
        m: &mut Machine,
        table: PhysAddr,
        root: bool,
    ) -> Result<u64, PolicyViolation> {
        m.charge(self.config.costs.table_register);
        if !table.is_page_aligned() || layout::is_secure(table) {
            return Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                format!("bad table address {table}"),
            ));
        }
        if self.is_table(table.raw()) {
            return Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                format!("table {table} already registered"),
            ));
        }
        // A monitored page is remapped writable (non-cacheable) until its
        // last region goes; a table page must stay read-only.
        if self.nc_refcount.contains_key(&table.page_index()) {
            return Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                format!("table {table} is a monitored page"),
            ));
        }
        // The page must be zeroed: no pre-seeded descriptors.
        let entries = m.debug_read_table(table).map_err(|e| {
            Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                format!("bad table address {table}: {e}"),
            )
        })?;
        if entries.iter().any(|&raw| raw != 0) {
            return Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                format!("table {table} is not zeroed"),
            ));
        }
        if root {
            self.pool_mut().insert(
                table,
                TableInfo {
                    level: 0,
                    va_base: 0,
                    space: Space::User,
                },
            );
            self.roots.insert(table.raw(), ());
        } else {
            self.pending_tables.insert(table.raw(), ());
        }
        self.stats.tables_registered += 1;
        self.set_linear_perms(m, table, PagePerms::KERNEL_RO)?;
        Ok(0)
    }

    /// The stage-2-equivalent check of a single descriptor write: the
    /// pure verification (and table-linking bookkeeping) with no machine
    /// side effects, so [`Hypersec::handle_pt_write`] can time it as one
    /// span regardless of which branch rejects.
    fn verify_pt_write(
        &mut self,
        table: PhysAddr,
        index: usize,
        value: u64,
    ) -> Result<(), PolicyViolation> {
        if index >= pagetable::ENTRIES_PER_TABLE {
            return Err(Self::deny(codes::NOT_A_TABLE, "entry index out of range"));
        }
        let info = *self.tables.get(table).ok_or_else(|| {
            Self::deny(
                codes::NOT_A_TABLE,
                format!("{table} is not a linked page-table page"),
            )
        })?;
        let va = info.va_base | (index as u64) << level_shift(info.level);
        match Descriptor::decode(value, info.level) {
            Descriptor::Invalid => {} // unmapping is always allowed
            Descriptor::Table { next } => {
                if info.level >= 3 {
                    return Err(Self::deny(
                        codes::NOT_A_TABLE,
                        "table pointer at leaf level",
                    ));
                }
                if self.tables.contains(next) {
                    return Err(Self::deny(
                        codes::BAD_TABLE_REGISTRATION,
                        format!("table {next} already linked (aliasing)"),
                    ));
                }
                if self.pending_tables.remove(&next.raw()).is_none() {
                    return Err(Self::deny(
                        codes::NOT_A_TABLE,
                        format!("descriptor points at unregistered table {next}"),
                    ));
                }
                self.pool_mut().insert(
                    next,
                    TableInfo {
                        level: info.level + 1,
                        va_base: va,
                        space: info.space,
                    },
                );
            }
            Descriptor::Leaf { out, perms } => {
                self.check_leaf(info.space, va, out, perms, info.level, false)?;
            }
        }
        Ok(())
    }

    fn handle_pt_write(
        &mut self,
        m: &mut Machine,
        table: PhysAddr,
        index: usize,
        value: u64,
    ) -> Result<u64, PolicyViolation> {
        m.emit_begin(SpanKind::Stage2Check, table.raw());
        m.charge(self.config.costs.pt_verify);
        let verdict = self.verify_pt_write(table, index, value);
        m.emit_end(SpanKind::Stage2Check, u64::from(verdict.is_err()));
        verdict?;
        // Apply through the EL2 view (the kernel's own mapping is RO).
        m.el2_write_u64(VirtAddr::new(table.add(index as u64 * 8).raw()), value)
            .map_err(|e| Self::deny(codes::BAD_PHASE, format!("descriptor store failed: {e}")))?;
        self.stats.pt_writes += 1;
        Ok(0)
    }

    fn unregister_tree(&mut self, m: &mut Machine, table: PhysAddr) {
        if !self.tables.contains(table) {
            return;
        }
        let Some(info) = self.pool_mut().remove(table) else {
            return;
        };
        self.roots.remove(&table.raw());
        if info.level < 3 {
            let entries = m.debug_read_table(table).unwrap_or([0; ENTRIES_PER_TABLE]);
            for raw in entries {
                if let Descriptor::Table { next } = Descriptor::decode(raw, info.level) {
                    self.unregister_tree(m, next);
                }
            }
        }
        let _ = self.set_linear_perms(m, table, PagePerms::KERNEL_DATA);
    }

    fn handle_pt_unregister(
        &mut self,
        m: &mut Machine,
        table: PhysAddr,
    ) -> Result<u64, PolicyViolation> {
        m.charge(self.config.costs.table_register);
        if Some(table) == self.kernel_root {
            return Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                "the kernel root cannot be retired",
            ));
        }
        if self.pending_tables.remove(&table.raw()).is_some() {
            let _ = self.set_linear_perms(m, table, PagePerms::KERNEL_DATA);
            return Ok(0);
        }
        match self.tables.get(table) {
            Some(info) if info.space == Space::Kernel => Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                "kernel-space tables cannot be retired",
            )),
            Some(_) if !self.roots.contains_key(&table.raw()) => Err(Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                "only translation roots can be retired",
            )),
            Some(_) => {
                self.unregister_tree(m, table);
                Ok(0)
            }
            None => Err(Self::deny(
                codes::NOT_A_TABLE,
                format!("{table} is not registered"),
            )),
        }
    }

    /// The LOCK walk: adopt and verify an existing (boot-built) table
    /// tree, registering every table page.
    fn adopt_tree(
        &mut self,
        m: &mut Machine,
        table: PhysAddr,
        level: u32,
        va_base: u64,
        space: Space,
    ) -> Result<Vec<PhysAddr>, PolicyViolation> {
        let mut pages = vec![table];
        self.pool_mut().insert(
            table,
            TableInfo {
                level,
                va_base,
                space,
            },
        );
        let entries = m.debug_read_table(table).map_err(|e| {
            Self::deny(
                codes::BAD_TABLE_REGISTRATION,
                format!("bad table address {table}: {e}"),
            )
        })?;
        for (i, raw) in (0u64..).zip(entries) {
            let va = va_base | i << level_shift(level);
            match Descriptor::decode(raw, level) {
                Descriptor::Invalid => {}
                Descriptor::Table { next } => {
                    if layout::is_secure(next) {
                        return Err(Self::deny(
                            codes::SECURE_MAPPING,
                            format!("table pointer into secure region: {next}"),
                        ));
                    }
                    pages.extend(self.adopt_tree(m, next, level + 1, va, space)?);
                }
                Descriptor::Leaf { out, perms } => {
                    self.check_leaf(space, va, out, perms, level, true)?;
                }
            }
        }
        Ok(pages)
    }

    fn handle_lock(
        &mut self,
        m: &mut Machine,
        kernel_root: PhysAddr,
        user_root: PhysAddr,
    ) -> Result<u64, PolicyViolation> {
        if self.locked {
            return Err(Self::deny(codes::BAD_PHASE, "already locked"));
        }
        // Verify + adopt both trees. Charge a boot-time verification cost
        // proportional to the table count.
        let mut pages = self.adopt_tree(m, kernel_root, 0, 0, Space::Kernel)?;
        pages.extend(self.adopt_tree(m, user_root, 0, 0, Space::User)?);
        m.charge(self.config.costs.table_register * pages.len() as u64);
        self.stats.tables_registered += pages.len() as u64;
        self.kernel_root = Some(kernel_root);
        self.roots.insert(user_root.raw(), ());
        self.locked = true;
        // Write-protect every adopted table page in the kernel's view.
        for page in pages {
            self.set_linear_perms(m, page, PagePerms::KERNEL_RO)?;
        }
        m.tlbi_all();
        Ok(0)
    }

    fn translate_kernel_va(
        &self,
        m: &mut Machine,
        va: VirtAddr,
    ) -> Result<PhysAddr, PolicyViolation> {
        let root = self
            .kernel_root
            .ok_or_else(|| Self::deny(codes::BAD_PHASE, "not locked yet"))?;
        let mut view = m.pt_view();
        pagetable::walk(&mut view, root, va.raw())
            .map(|r| r.out)
            .map_err(|e| {
                Self::deny(
                    codes::BAD_MONITOR_REQUEST,
                    format!("translation failed: {e}"),
                )
            })
    }

    fn program_bitmap(
        &mut self,
        m: &mut Machine,
        pa: PhysAddr,
        len: u64,
        watch: bool,
    ) -> Result<(), PolicyViolation> {
        for update in self.config.bitmap.plan_update(pa, len, watch) {
            let va = VirtAddr::new(update.word.raw());
            let cur = m
                .el2_read_u64(va)
                .map_err(|e| Self::deny(codes::BAD_MONITOR_REQUEST, format!("bitmap read: {e}")))?;
            m.el2_write_u64(va, update.apply_to(cur)).map_err(|e| {
                Self::deny(codes::BAD_MONITOR_REQUEST, format!("bitmap write: {e}"))
            })?;
        }
        Ok(())
    }

    fn handle_monitor_register(
        &mut self,
        m: &mut Machine,
        sid: u32,
        base: VirtAddr,
        len: u64,
    ) -> Result<u64, PolicyViolation> {
        m.charge(self.config.costs.monitor_register);
        if len == 0 || !len.is_multiple_of(8) || !base.is_word_aligned() {
            return Err(Self::deny(
                codes::BAD_MONITOR_REQUEST,
                "region must be word-aligned",
            ));
        }
        if !self.apps.iter().any(|a| a.sid() == sid) {
            return Err(Self::deny(
                codes::BAD_MONITOR_REQUEST,
                format!("no security application with sid {sid}"),
            ));
        }
        let pa = self.translate_kernel_va(m, base)?;
        if len > PAGE_SIZE - pa.page_offset() {
            return Err(Self::deny(
                codes::BAD_MONITOR_REQUEST,
                "monitored regions must not straddle pages (slab objects never do)",
            ));
        }
        if layout::is_secure(pa) {
            return Err(Self::deny(
                codes::SECURE_MAPPING,
                "cannot monitor secure memory",
            ));
        }
        // Monitoring remaps the page writable (non-cacheable), and
        // unregistering restores kernel data: only a data page may be
        // monitored.
        let page = pa.page_base();
        if self.is_table(page.raw()) {
            return Err(Self::deny(
                codes::WRITABLE_TABLE,
                format!("cannot monitor page-table page {page}"),
            ));
        }
        if is_kernel_text(page, PAGE_SIZE) {
            return Err(Self::deny(
                codes::TEXT_IMMUTABLE,
                format!("cannot monitor kernel text at {page}"),
            ));
        }
        // The non-cacheable remap rewrites the linear-map leaf covering
        // the page, so a larger leaf would make its whole block writable,
        // table pages and text included (the §6.2 granularity gap).
        if self
            .linear_leaf_level(m, page)
            .is_some_and(|level| level < 3)
        {
            return Err(Self::deny(
                codes::BAD_MONITOR_REQUEST,
                format!("cannot monitor {page}: its linear map leaf is larger than 4 KiB"),
            ));
        }
        let region = Region {
            sid,
            base_va: base,
            pa,
            len,
        };
        if self
            .regions
            .iter()
            .any(|r| r.sid == sid && r.base_va == base && r.len == len)
        {
            return Err(Self::deny(
                codes::BAD_MONITOR_REQUEST,
                "region already registered",
            ));
        }
        // 1. Push dirty lines of the page to DRAM *before* arming the
        //    bitmap, so stale write-backs cannot raise events.
        // 2. Make the page non-cacheable so every future write is
        //    bus-visible to the MBM (paper §5.3).
        let refs = self
            .nc_refcount
            .get(&page.page_index())
            .copied()
            .unwrap_or(0);
        if refs == 0 {
            m.cache_clean_invalidate_page(page);
            self.set_linear_perms(m, page, PagePerms::KERNEL_DATA_NC)?;
        }
        self.nc_refcount.insert(page.page_index(), refs + 1);
        // 3. Arm the watch bits.
        self.program_bitmap(m, pa, len, true)?;
        self.regions.push(region);
        self.stats.regions_live += 1;
        for app in &mut self.apps {
            if app.sid() == sid {
                app.on_region_registered(m, &region);
            }
        }
        Ok(0)
    }

    fn handle_monitor_unregister(
        &mut self,
        m: &mut Machine,
        sid: u32,
        base: VirtAddr,
        len: u64,
    ) -> Result<u64, PolicyViolation> {
        m.charge(self.config.costs.monitor_register);
        let pos = self
            .regions
            .iter()
            .position(|r| r.sid == sid && r.base_va == base && r.len == len)
            .ok_or_else(|| Self::deny(codes::BAD_MONITOR_REQUEST, "region not registered"))?;
        let region = self.regions.remove(pos);
        self.stats.regions_live -= 1;
        self.program_bitmap(m, region.pa, region.len, false)?;
        let page = region.pa.page_base();
        if let Some(refs) = self.nc_refcount.get_mut(&page.page_index()) {
            *refs -= 1;
            if *refs == 0 {
                self.nc_refcount.remove(&page.page_index());
                // Restore cacheability only when the linear map can
                // express a per-page change (4 KiB leaves).
                if self.linear_leaf_level(m, page) == Some(3) {
                    self.set_linear_perms(m, page, PagePerms::KERNEL_DATA)?;
                }
            }
        }
        for app in &mut self.apps {
            if app.sid() == sid {
                app.on_region_unregistered(&region);
            }
        }
        Ok(0)
    }

    fn handle_irq_notify(&mut self, m: &mut Machine) -> Result<u64, PolicyViolation> {
        // Drain the ring buffer through the non-cacheable EL2 mapping.
        let ring = self.config.ring;
        let head_va = VirtAddr::new(ring.head_addr().raw());
        let tail_va = VirtAddr::new(ring.tail_addr().raw());
        let mut drained = 0u64;
        loop {
            let head = m
                .el2_read_u64(head_va)
                .map_err(|e| Self::deny(codes::BAD_PHASE, format!("ring head read: {e}")))?;
            let tail = m
                .el2_read_u64(tail_va)
                .map_err(|e| Self::deny(codes::BAD_PHASE, format!("ring tail read: {e}")))?;
            if head == tail {
                break;
            }
            let at = ring.entry_addr(head);
            let pa = PhysAddr::new(
                m.el2_read_u64(VirtAddr::new(at.raw()))
                    .map_err(|e| Self::deny(codes::BAD_PHASE, format!("ring read: {e}")))?,
            );
            let value = m
                .el2_read_u64(VirtAddr::new(at.add(8).raw()))
                .map_err(|e| Self::deny(codes::BAD_PHASE, format!("ring read: {e}")))?;
            m.el2_write_u64(head_va, head.wrapping_add(1))
                .map_err(|e| Self::deny(codes::BAD_PHASE, format!("ring head write: {e}")))?;
            drained += 1;
            m.charge(self.config.costs.event_dispatch);
            let Some(region) = self.regions.iter().find(|r| r.covers(pa)).copied() else {
                self.stats.stray_events += 1;
                continue;
            };
            let event = MonitorEvent { pa, value, region };
            self.stats.events_dispatched += 1;
            for app in &mut self.apps {
                if app.sid() == region.sid {
                    if let Verdict::Malicious { reason } = app.on_event(&event) {
                        self.stats.detections += 1;
                        self.detections.push(Detection {
                            sid: region.sid,
                            event,
                            reason,
                        });
                    }
                }
            }
        }
        Ok(drained)
    }

    fn handle_emulate_write(
        &mut self,
        m: &mut Machine,
        va: VirtAddr,
        value: u64,
    ) -> Result<u64, PolicyViolation> {
        m.charge(self.config.costs.emulate_write);
        // Emulation exists solely for *over-protection*: a data word that
        // became read-only because it shares a 2 MiB section with a
        // protected page. A read-only 4 KiB leaf is protected exactly, on
        // purpose (page-table page, kernel text) — writes there are
        // attacks, not collateral.
        {
            let root = self
                .kernel_root
                .ok_or_else(|| Self::deny(codes::BAD_PHASE, "not locked yet"))?;
            let walk = {
                let mut view = m.pt_view();
                pagetable::walk(&mut view, root, va.raw())
            };
            match walk {
                Ok(res) if res.level == 3 && !res.perms.write => {
                    return Err(Self::deny(
                        codes::BAD_EMULATED_WRITE,
                        format!("{va} is deliberately read-only, not over-protected"),
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    return Err(Self::deny(
                        codes::BAD_EMULATED_WRITE,
                        format!("translation failed: {e}"),
                    ))
                }
            }
        }
        let pa = self.translate_kernel_va(m, va)?;
        if layout::is_secure(pa) {
            return Err(Self::deny(
                codes::SECURE_MAPPING,
                "emulated write into secure region",
            ));
        }
        if self.is_table(pa.page_base().raw()) {
            return Err(Self::deny(
                codes::BAD_EMULATED_WRITE,
                format!("emulated write targets page-table page {pa}"),
            ));
        }
        self.stats.emulated_writes += 1;
        if self.nc_refcount.get(&pa.page_index()).copied().unwrap_or(0) > 0 {
            // Monitored page: write through an uncached alias so the MBM
            // observes it.
            m.dma_write_u64(pa, value);
        } else {
            m.el2_write_u64(VirtAddr::new(pa.raw()), value)
                .map_err(|e| Self::deny(codes::BAD_PHASE, format!("emulated store failed: {e}")))?;
        }
        Ok(0)
    }
}

impl Hyp for Hypersec {
    fn on_hypercall(
        &mut self,
        machine: &mut Machine,
        call: u64,
        args: [u64; 4],
    ) -> Result<u64, PolicyViolation> {
        self.stats.hypercalls += 1;
        let request = match Hypercall::decode(call, args) {
            Ok(request) => request,
            Err(e) => {
                self.note_rule(codes::UNKNOWN_HYPERCALL);
                return Err(Self::deny(codes::UNKNOWN_HYPERCALL, e.to_string()));
            }
        };
        let result = match request {
            Hypercall::PtWrite {
                table,
                index,
                value,
            } => self.handle_pt_write(machine, table, index, value),
            Hypercall::PtRegisterTable { table, root } => {
                self.handle_pt_register(machine, table, root)
            }
            Hypercall::PtUnregisterTable { table } => self.handle_pt_unregister(machine, table),
            Hypercall::Lock {
                kernel_root,
                user_root,
            } => self.handle_lock(machine, kernel_root, user_root),
            Hypercall::MonitorRegister { sid, base, len } => {
                self.handle_monitor_register(machine, sid, base, len)
            }
            Hypercall::MonitorUnregister { sid, base, len } => {
                self.handle_monitor_unregister(machine, sid, base, len)
            }
            Hypercall::IrqNotify => self.handle_irq_notify(machine),
            Hypercall::EmulateWrite { va, value } => self.handle_emulate_write(machine, va, value),
        };
        if let Err(v) = &result {
            self.note_rule(v.code);
            if matches!(request, Hypercall::PtWrite { .. }) {
                self.stats.pt_denials += 1;
            }
        }
        result
    }

    fn on_sysreg_trap(
        &mut self,
        machine: &mut Machine,
        reg: SysReg,
        value: u64,
    ) -> Result<(), PolicyViolation> {
        machine.charge(self.config.costs.sysreg_verify);
        if !self.locked {
            // Boot phase: trusted (secure boot, paper §4).
            machine.el2_write_sysreg(reg, value);
            self.stats.sysreg_allowed += 1;
            return Ok(());
        }
        let verdict = match reg {
            SysReg::TTBR0_EL1 => {
                let root = value & pagetable::desc::ADDR_MASK;
                if self.roots.contains_key(&root) {
                    Ok(())
                } else {
                    Err(Self::deny(
                        codes::ROGUE_ROOT,
                        format!("TTBR0 points at unregistered root {root:#x}"),
                    ))
                }
            }
            SysReg::TTBR1_EL1 => {
                if Some(PhysAddr::new(value & pagetable::desc::ADDR_MASK)) == self.kernel_root {
                    Ok(())
                } else {
                    Err(Self::deny(
                        codes::ROGUE_ROOT,
                        format!("TTBR1 may only hold the verified kernel root, not {value:#x}"),
                    ))
                }
            }
            SysReg::SCTLR_EL1 => {
                if value & sctlr::M != 0 {
                    Ok(())
                } else {
                    Err(Self::deny(
                        codes::FROZEN_SYSREG,
                        "the MMU must stay enabled",
                    ))
                }
            }
            SysReg::TCR_EL1 | SysReg::MAIR_EL1 => Err(Self::deny(
                codes::FROZEN_SYSREG,
                format!("{reg} is frozen after LOCK"),
            )),
            other => Err(Self::deny(
                codes::FROZEN_SYSREG,
                format!("unexpected trap on {other}"),
            )),
        };
        match verdict {
            Ok(()) => {
                machine.el2_write_sysreg(reg, value);
                self.stats.sysreg_allowed += 1;
                Ok(())
            }
            Err(v) => {
                self.stats.sysreg_denied += 1;
                self.note_rule(v.code);
                Err(v)
            }
        }
    }

    fn on_stage2_fault(
        &mut self,
        _machine: &mut Machine,
        ipa: IntermAddr,
        kind: AccessKind,
        _value: Option<u64>,
    ) -> Result<Stage2Outcome, PolicyViolation> {
        // Hypernel's whole point: stage 2 is never enabled.
        self.note_rule(codes::NO_STAGE2);
        Err(Self::deny(
            codes::NO_STAGE2,
            format!("impossible stage-2 {kind} fault at {ipa}"),
        ))
    }
}
