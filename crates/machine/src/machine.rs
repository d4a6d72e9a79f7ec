//! The simulated machine: CPU front-end, MMU, caches, bus and trap routing.
//!
//! [`Machine`] is the passive hardware state; software (the kernel,
//! Hypersec, workloads) drives it by calling its methods. Operations that
//! can trap to EL2 take a `hyp: &mut dyn Hyp` argument — the installed
//! EL2 software (Hypersec, a KVM-style hypervisor, or [`NullHyp`] for a
//! native machine) — and the machine invokes it synchronously, exactly as
//! a hardware exception would transfer control.
//!
//! Every operation charges cycles from the [`CostModel`], which is how the
//! paper's performance experiments (Table 1, Figure 6) are reproduced.

use std::cell::OnceCell;
use std::rc::Rc;

use crate::addr::{IntermAddr, PhysAddr, VirtAddr};
use crate::bus::{BusTransaction, MemoryBus, LINE_WORDS};
use crate::cache::{CachePlan, DataCache, LineHint, LINE_SIZE};
use crate::cost::CostModel;
use crate::fault::{FaultStats, SharedFaults};
use crate::irq::IrqController;
use crate::mem::{AccessOutOfRangeError, PhysMemory};
use crate::pagetable::{self, PagePerms, WalkFault, ENTRIES_PER_TABLE};
use crate::regs::{ExceptionLevel, SysReg, SysRegs};
use crate::shadow::{PageTag, ShadowTags, Writer as ShadowWriter};
use crate::snapshot::{Snapshot, TableView};
use crate::tlb::{Regime, Tlb, TlbEntry};
use hypernel_telemetry::counters::Counter;
use hypernel_telemetry::{counter, metrics};
use hypernel_telemetry::{Event, PointKind, SharedSink, SpanKind, Track};

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Read => write!(f, "read"),
            Self::Write => write!(f, "write"),
        }
    }
}

/// A security-policy denial produced by EL2 software.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyViolation {
    /// Machine-readable reason code (defined by the EL2 software).
    pub code: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl PolicyViolation {
    /// Creates a violation with the given code and message.
    pub fn new(code: u32, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy violation {}: {}", self.code, self.message)
    }
}

impl std::error::Error for PolicyViolation {}

/// Architectural exceptions surfaced to the executing software.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exception {
    /// Stage-1 data abort, delivered to the EL1 kernel (e.g. demand
    /// paging).
    DataAbort {
        /// The faulting virtual address.
        va: VirtAddr,
        /// The attempted access.
        kind: AccessKind,
        /// Whether the fault is a translation (unmapped) or permission
        /// fault.
        permission: bool,
    },
    /// The EL2 software denied the operation.
    Denied(PolicyViolation),
    /// A stage-2 abort with no hypervisor resolution (hardware would hang
    /// or the VM would be killed).
    Stage2Abort {
        /// The faulting intermediate physical address.
        ipa: IntermAddr,
        /// The attempted access.
        kind: AccessKind,
    },
    /// An undefined-instruction style fault (e.g. EL0 touching a system
    /// register).
    Undefined {
        /// Short description of the offending operation.
        what: &'static str,
    },
}

impl std::fmt::Display for Exception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DataAbort {
                va,
                kind,
                permission,
            } => write!(
                f,
                "{} abort at {va} ({})",
                kind,
                if *permission {
                    "permission"
                } else {
                    "translation"
                }
            ),
            Self::Denied(v) => write!(f, "{v}"),
            Self::Stage2Abort { ipa, kind } => write!(f, "unhandled stage-2 {kind} abort at {ipa}"),
            Self::Undefined { what } => write!(f, "undefined operation: {what}"),
        }
    }
}

impl std::error::Error for Exception {}

impl From<PolicyViolation> for Exception {
    fn from(v: PolicyViolation) -> Self {
        Self::Denied(v)
    }
}

/// A fault part-way through a block access ([`Machine::read_block`] /
/// [`Machine::write_block`]): `completed` words transferred, then the
/// next word raised `exception`. The faulting word's attempt has the
/// exact side effects a per-word access would have had, so callers can
/// resume (or emulate the faulting word) without replaying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFault {
    /// Words successfully transferred before the fault.
    pub completed: u64,
    /// The exception the faulting word raised.
    pub exception: Exception,
}

impl std::fmt::Display for BlockFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after {} words", self.exception, self.completed)
    }
}

impl std::error::Error for BlockFault {}

/// Resolution of a stage-2 fault by the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage2Outcome {
    /// The handler repaired the stage-2 tables; the machine retries the
    /// translation.
    Retry,
    /// The handler performed (emulated) the access itself; the machine
    /// does not replay it. Only meaningful for writes.
    Emulated,
}

/// The EL2 software installed on the machine.
///
/// Implementations: Hypersec (the paper's secure-space software), the
/// KVM-style nested-paging hypervisor baseline, and [`NullHyp`] for a
/// native machine where EL2 is unused.
pub trait Hyp {
    /// Handles an `HVC` from EL1. Returns a value to the caller or denies.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyViolation`] if the request violates the security
    /// policy; the machine surfaces it to the caller as
    /// [`Exception::Denied`].
    fn on_hypercall(
        &mut self,
        machine: &mut Machine,
        call: u64,
        args: [u64; 4],
    ) -> Result<u64, PolicyViolation>;

    /// Handles a trapped EL1 write to a VM-group system register
    /// (`HCR_EL2.TVM`). On `Ok(())` the handler has either applied the
    /// write itself or decided to discard it.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyViolation`] to reject the write.
    fn on_sysreg_trap(
        &mut self,
        machine: &mut Machine,
        reg: SysReg,
        value: u64,
    ) -> Result<(), PolicyViolation>;

    /// Handles a stage-2 fault (translation or permission). `value` is the
    /// store value for write faults.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyViolation`] to kill the access.
    fn on_stage2_fault(
        &mut self,
        machine: &mut Machine,
        ipa: IntermAddr,
        kind: AccessKind,
        value: Option<u64>,
    ) -> Result<Stage2Outcome, PolicyViolation>;

    /// Called when EL1 executes `WFI` (blocking wait). Hypervisors that
    /// trap WFI (KVM does, to schedule the host) charge their world-switch
    /// cost here; the default is a no-op, as on bare metal and under
    /// Hypersec (which does not set `HCR_EL2.TWI`).
    fn on_wfi(&mut self, machine: &mut Machine) {
        let _ = machine;
    }

    /// Called when EL1 sends a software-generated interrupt (an IPI via
    /// the GIC's `SGI` register). Under KVM the SGI register access traps
    /// so the vGIC can inject the virtual IPI; on bare metal and under
    /// Hypersec it is free.
    fn on_sgi(&mut self, machine: &mut Machine) {
        let _ = machine;
    }
}

/// The EL2 handler of a machine with no hypervisor: every EL2 entry is a
/// configuration error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullHyp;

impl NullHyp {
    fn violation() -> PolicyViolation {
        PolicyViolation::new(u32::MAX, "no EL2 software installed")
    }
}

impl Hyp for NullHyp {
    fn on_hypercall(
        &mut self,
        _machine: &mut Machine,
        _call: u64,
        _args: [u64; 4],
    ) -> Result<u64, PolicyViolation> {
        Err(Self::violation())
    }

    fn on_sysreg_trap(
        &mut self,
        _machine: &mut Machine,
        _reg: SysReg,
        _value: u64,
    ) -> Result<(), PolicyViolation> {
        Err(Self::violation())
    }

    fn on_stage2_fault(
        &mut self,
        _machine: &mut Machine,
        _ipa: IntermAddr,
        _kind: AccessKind,
        _value: Option<u64>,
    ) -> Result<Stage2Outcome, PolicyViolation> {
        Err(Self::violation())
    }
}

/// Running event counters for a machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Translated data reads performed.
    pub reads: u64,
    /// Translated data writes performed.
    pub writes: u64,
    /// Accesses that bypassed the cache (non-cacheable attribute).
    pub uncached_accesses: u64,
    /// Hypercalls taken.
    pub hypercalls: u64,
    /// VM-register writes trapped to EL2.
    pub sysreg_traps: u64,
    /// Stage-2 faults routed to the hypervisor.
    pub stage2_faults: u64,
    /// Stage-1 aborts delivered to EL1.
    pub el1_aborts: u64,
    /// Interrupts delivered to software.
    pub irqs_delivered: u64,
}

impl MachineStats {
    /// Every counter with its artifact names — the one list of them.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<MachineStats>] = &[
        counter!(reads, report = "memory_reads"),
        counter!(writes, report = "memory_writes"),
        counter!(uncached_accesses, report = "uncached_accesses"),
        counter!(hypercalls, coverage = "machine/trap/hypercall", metric = metrics::HYPERCALLS, report = "hypercalls"),
        counter!(sysreg_traps, coverage = "machine/trap/sysreg", metric = metrics::SYSREG_TRAPS, report = "sysreg_traps"),
        counter!(stage2_faults, coverage = "machine/trap/stage2-fault", report = "stage2_faults"),
        counter!(el1_aborts, coverage = "machine/trap/el1-abort", report = "el1_aborts"),
        counter!(irqs_delivered, coverage = "machine/irq/delivered", metric = metrics::IRQS_DELIVERED, report = "irqs_delivered"),
    ];
}

/// Host-side counters of the line runs of [`Machine::read_block`] and
/// [`Machine::write_block`], read through [`Machine::plan_stats`] by the
/// host-time benches only. Never part of a run artifact: they differ
/// with line runs on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Words served by line runs: each a cache hit batched with the
    /// rest of its run instead of a per-word probe.
    pub replayed_words: u64,
    /// Always 0. A line run finds its line by one tag scan and keeps
    /// no locator between runs, so there is no stale hint to repair.
    pub hint_repairs: u64,
}

impl PlanStats {
    /// Always 0: line runs keep no state between accesses, so no event
    /// has anything to invalidate.
    pub fn total_invalidations(&self) -> u64 {
        0
    }
}

/// Static configuration of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// DRAM size in bytes.
    pub dram_size: u64,
    /// Cycle cost table.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            // 2 GiB, as in the paper's motherboard-DRAM experiments (§7.1).
            dram_size: 2 << 30,
            cost: CostModel::calibrated(),
        }
    }
}

/// The simulated machine.
///
/// ```
/// use hypernel_machine::machine::{Machine, MachineConfig};
///
/// let machine = Machine::new(MachineConfig::default());
/// assert_eq!(machine.cycles(), 0);
/// ```
///
/// `Clone` deep-copies all architectural state (memory, TLB, cache,
/// registers, attached bus devices), supporting warm-boot forking. Two
/// host-side attachments are shared handles and are *not* deepened: the
/// telemetry sink and the fault injector (both `Rc`). Callers forking a
/// machine must re-wire those (see `System::fork` in `hypernel-core`).
#[derive(Clone)]
pub struct Machine {
    mem: PhysMemory,
    bus: MemoryBus,
    cache: DataCache,
    tlb: Tlb,
    regs: SysRegs,
    irq: IrqController,
    el: ExceptionLevel,
    cycles: u64,
    cost: CostModel,
    stats: MachineStats,
    sink: Option<SharedSink>,
    faults: Option<SharedFaults>,
    /// Host-side switch for the block-access streaming path. Model
    /// state is byte-identical either way; see [`crate::fastpath`].
    block_fastpath: bool,
    /// Host-side switch for the line runs inside that path; off, each
    /// streamed word takes a per-word `perform`.
    line_runs: bool,
    /// Host counters of the line runs.
    plan_stats: PlanStats,
    /// Ownership sanitizer (off by default; see [`crate::shadow`]).
    /// Checked at the physical-access chokepoint with zero simulated
    /// cycles — enabling it never changes a simulated result.
    shadow: Option<Box<ShadowTags>>,
    /// The template family's snapshot, recorded by the first
    /// [`Machine::fork`] and shared by every fork (see
    /// [`crate::snapshot`]). Host-only: nothing simulated reads it.
    snapshot: OnceCell<Rc<Snapshot>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("el", &self.el)
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

const MAX_STAGE2_RETRIES: u32 = 8;

/// Data-cache sets of the platform: with [`CACHE_WAYS`], a 32 KiB L1D.
const CACHE_SETS: usize = 128;
/// Data-cache associativity of the platform.
const CACHE_WAYS: usize = 4;
/// Main-TLB capacity of the platform, in entries.
const TLB_ENTRIES: usize = 512;
/// Stage-2 TLB capacity of the platform, in entries.
const STAGE2_TLB_ENTRIES: usize = 512;

impl Machine {
    /// Creates a machine in EL2 (boot state) with the MMU off, with the
    /// platform's cache and TLB geometry.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            mem: PhysMemory::new(config.dram_size),
            bus: MemoryBus::new(),
            cache: DataCache::new(CACHE_SETS, CACHE_WAYS),
            tlb: Tlb::new(TLB_ENTRIES, STAGE2_TLB_ENTRIES),
            regs: SysRegs::new(),
            irq: IrqController::new(),
            el: ExceptionLevel::El2,
            cycles: 0,
            cost: config.cost,
            stats: MachineStats::default(),
            sink: None,
            faults: None,
            block_fastpath: crate::fastpath::fastpath_enabled(),
            line_runs: crate::fastpath::fastpath_enabled(),
            plan_stats: PlanStats::default(),
            shadow: None,
            snapshot: OnceCell::new(),
        }
    }

    /// Forks this machine: a [`Clone`] that shares the template family's
    /// [`Snapshot`], which the first fork records. The snapshot copies
    /// the DRAM directory (chunk pointers) and the data cache; it is
    /// host-only bookkeeping for [`Machine::table_view`]'s dirty set.
    pub fn fork(&self) -> Machine {
        self.snapshot
            .get_or_init(|| Rc::new(Snapshot::of(&self.mem, &self.cache)));
        self.clone()
    }

    /// Installs (or, with `None`, removes) the ownership sanitizer.
    /// Tags start as seeded by the caller; the kernel maintains them
    /// at its allocation/mapping sites via [`Machine::tag_page`].
    /// While a sanitizer is installed block accesses take no line runs,
    /// so every store reaches the sanitizer chokepoint in `perform`.
    pub fn set_shadow_tags(&mut self, shadow: Option<Box<ShadowTags>>) {
        self.shadow = shadow;
    }

    /// The installed ownership sanitizer, if any.
    pub fn shadow_tags(&self) -> Option<&ShadowTags> {
        self.shadow.as_deref()
    }

    /// Retags the page containing `pa`. No-op (one branch) when the
    /// sanitizer is disabled, so allocation sites call unconditionally.
    #[inline]
    pub fn tag_page(&mut self, pa: PhysAddr, tag: PageTag) {
        if let Some(shadow) = &mut self.shadow {
            shadow.tag_page(pa, tag);
        }
    }

    /// Retags every page of `[base, base + len)`. No-op when disabled.
    #[inline]
    pub fn tag_range(&mut self, base: PhysAddr, len: u64, tag: PageTag) {
        if let Some(shadow) = &mut self.shadow {
            shadow.tag_range(base, len, tag);
        }
    }

    /// The sanitizer writer identity for the current exception level.
    fn shadow_writer(&self) -> ShadowWriter {
        match self.el {
            ExceptionLevel::El0 => ShadowWriter::El0,
            ExceptionLevel::El1 => ShadowWriter::El1,
            ExceptionLevel::El2 => ShadowWriter::El2,
        }
    }

    /// Enables or disables the block-access streaming fast path
    /// (testing hook; the default follows
    /// [`crate::fastpath::fastpath_enabled`]).
    pub fn set_block_fastpath(&mut self, enabled: bool) {
        self.block_fastpath = enabled;
    }

    /// Enables or disables the line runs of block accesses in-process
    /// (testing hook, like [`crate::tlb::Tlb::set_l0_enabled`]; the
    /// default follows [`crate::fastpath::fastpath_enabled`]). Off, every
    /// word a block access streams takes a per-word `perform` instead.
    pub fn set_compiled_enabled(&mut self, enabled: bool) {
        self.line_runs = enabled;
    }

    /// Host-side counters of the line runs. Never serialized into run
    /// artifacts — see [`crate::fastpath`] for the determinism contract.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_stats
    }

    /// Whether a block access may stream line runs right now: they are
    /// enabled, no sanitizer is watching stores, and no fault injector
    /// is installed (fault sites always take the reference path).
    #[inline]
    fn line_runs_active(&self) -> bool {
        self.line_runs && self.shadow.is_none() && self.faults.is_none()
    }

    /// Installs (or removes) the fault injector on the machine's own
    /// fault sites — lost hypercalls here, snoop corruption on the bus.
    /// The same shared injector is typically also handed to bus devices
    /// (the MBM) so one schedule covers the whole pipeline. While an
    /// injector is installed block accesses take no line runs: fault
    /// sites always take the reference path.
    pub fn set_fault_injector(&mut self, faults: Option<SharedFaults>) {
        self.bus.set_fault_injector(faults.clone());
        self.faults = faults;
    }

    /// The installed fault injector, for cloning into devices.
    pub fn fault_injector(&self) -> Option<SharedFaults> {
        self.faults.clone()
    }

    /// Injection counters of the installed fault injector, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.borrow().stats())
    }

    /// Installs (or, with `None`, removes) the telemetry sink. The same
    /// shared sink is typically also handed to the kernel, Hypersec and
    /// the MBM so all layers stamp one event stream on one clock.
    pub fn set_telemetry_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// The telemetry track for the current exception level.
    pub fn track(&self) -> Track {
        match self.el {
            ExceptionLevel::El0 => Track::El0,
            ExceptionLevel::El1 => Track::El1,
            ExceptionLevel::El2 => Track::El2,
        }
    }

    /// Emits a point event on the current EL's track. One branch when no
    /// sink is installed.
    #[inline]
    pub fn emit_mark(&self, point: PointKind, a: u64, b: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut()
                .record(&Event::mark(self.cycles, self.track(), point, a, b));
        }
    }

    /// Opens a span on the current EL's track.
    #[inline]
    pub fn emit_begin(&self, span: SpanKind, arg: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut()
                .record(&Event::begin(self.cycles, self.track(), span, arg));
        }
    }

    /// Closes the innermost open span of `span`'s kind on the current
    /// EL's track.
    #[inline]
    pub fn emit_end(&self, span: SpanKind, arg: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut()
                .record(&Event::end(self.cycles, self.track(), span, arg));
        }
    }

    /// Emits the point event of a stage-1 data abort: the faulting VA,
    /// and the access kind with the permission flag in bit 1.
    fn emit_abort(&self, va: VirtAddr, kind: AccessKind, permission: bool) {
        let detail = (u64::from(permission) << 1) | kind as u64;
        self.emit_mark(PointKind::DataAbort, va.raw(), detail);
    }

    // ------------------------------------------------------------------
    // State accessors
    // ------------------------------------------------------------------

    /// Total cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Event counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The current exception level.
    pub fn el(&self) -> ExceptionLevel {
        self.el
    }

    /// Changes the current exception level (used by the kernel/hypervisor
    /// scaffolding to model `ERET`/exception entry; costs are charged by
    /// the dedicated entry helpers).
    pub fn set_el(&mut self, el: ExceptionLevel) {
        self.el = el;
    }

    /// The system register file (read-only view).
    pub fn regs(&self) -> &SysRegs {
        &self.regs
    }

    /// The interrupt controller.
    pub fn irq(&self) -> &IrqController {
        &self.irq
    }

    /// Mutable interrupt controller (software acks through this).
    pub fn irq_mut(&mut self) -> &mut IrqController {
        &mut self.irq
    }

    /// The memory bus (to attach devices or inspect snoopers).
    pub fn bus(&self) -> &MemoryBus {
        &self.bus
    }

    /// Mutable memory bus.
    pub fn bus_mut(&mut self) -> &mut MemoryBus {
        &mut self.bus
    }

    /// The TLB (statistics inspection).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Mutable TLB — for per-structure host fast-path toggles
    /// ([`Tlb::set_l0_enabled`]) in tests that compare the two paths
    /// within one process.
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// The data cache (statistics inspection).
    pub fn data_cache(&self) -> &DataCache {
        &self.cache
    }

    /// Charges `n` cycles of computation.
    pub fn charge(&mut self, n: u64) {
        self.cycles += n;
    }

    // ------------------------------------------------------------------
    // Debug (cost-free, trap-free) physical access — for boot code,
    // device emulation and tests. Not visible on the bus.
    // ------------------------------------------------------------------

    /// Reads physical memory without cost, translation or bus visibility.
    /// Coherent: sees dirty data still sitting in the CPU cache.
    pub fn debug_read_phys(&mut self, pa: PhysAddr) -> u64 {
        if self.cache.contains(pa) {
            self.cache.read_word(pa.word_base())
        } else {
            self.mem.read_u64(pa)
        }
    }

    /// Reads the 4 KiB translation table at `table` whole: exactly the
    /// 512 words that [`Machine::debug_read_phys`] returns for its
    /// entries, with one cache-residency probe per 64-byte line instead
    /// of one per word. Cost-free and coherent like `debug_read_phys`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRangeError`] if the page lies outside DRAM
    /// (a corrupt table pointer, say) instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not page-aligned.
    pub fn debug_read_table(
        &self,
        table: PhysAddr,
    ) -> Result<[u64; ENTRIES_PER_TABLE], AccessOutOfRangeError> {
        crate::snapshot::read_table(&self.mem, Some(&self.cache), table)
    }

    /// A read-only view of the translation tables, with the dirty set
    /// against the family's snapshot if the machine's family was ever
    /// forked; see [`crate::snapshot`]. With a snapshot, taking it
    /// compares the DRAM directories and makes one pass over the data
    /// cache's lines.
    pub fn table_view(&self) -> TableView<'_> {
        TableView::new(&self.mem, &self.cache, self.snapshot.get())
    }

    /// Writes physical memory without cost, translation or bus visibility.
    /// Coherent: updates a resident cache line as well as DRAM.
    ///
    /// Intended for boot-time population and test setup only — the MBM
    /// cannot see these writes.
    pub fn debug_write_phys(&mut self, pa: PhysAddr, value: u64) {
        if self.cache.contains(pa) {
            self.cache.write_word(pa.word_base(), value);
        }
        self.mem.write_u64(pa, value);
    }

    /// Direct access to backing memory for trusted device/boot code.
    pub fn mem_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// Bytes of simulated DRAM.
    pub fn dram_size(&self) -> u64 {
        self.mem.size()
    }

    /// A cache-coherent view of physical memory for page-table planners
    /// and walkers (hardware walkers snoop the data cache, so stale DRAM
    /// behind dirty lines must never be observed).
    pub fn pt_view(&mut self) -> CoherentMemView<'_> {
        CoherentMemView {
            cache: &mut self.cache,
            mem: &mut self.mem,
        }
    }

    /// Pre-faults the host memory backing `[base, base + len)` (the
    /// emulator equivalent of QEMU's `-mem-prealloc`). Model-invisible:
    /// sparse DRAM materialization never affects simulated state, so this
    /// only moves host first-touch page faults out of whatever the caller
    /// measures next. Benchmarks call it from their untimed setup.
    pub fn preallocate(&mut self, base: PhysAddr, len: u64) {
        self.mem.preallocate(base, len);
    }

    /// Zeroes the 4 KiB page containing `pa`, discarding any stale cached
    /// lines of the recycled frame. Cost-free (the cycle cost of
    /// `clear_page` is charged separately by callers that model it).
    pub fn debug_zero_page(&mut self, pa: PhysAddr) {
        let base = pa.page_base();
        self.cache.discard_page(base);
        self.mem.fill(base, crate::addr::PAGE_SIZE, 0);
    }

    /// A DMA write: goes straight onto the bus, bypassing the CPU's MMU
    /// and caches — the vector discussed in the paper's §8 (DMA attacks).
    pub fn dma_write_u64(&mut self, pa: PhysAddr, value: u64) {
        if let Some(shadow) = &mut self.shadow {
            shadow.check_write(ShadowWriter::Dma, pa.word_base(), value);
        }
        self.cycles += self.cost.dram_access;
        self.bus.issue(
            BusTransaction::WriteWord {
                addr: pa.word_base(),
                value,
            },
            &mut self.mem,
            &mut self.irq,
            self.cycles,
        );
    }

    // ------------------------------------------------------------------
    // System registers, hypercalls, exceptions
    // ------------------------------------------------------------------

    /// Writes a system register from the current exception level,
    /// applying privilege checks and `HCR_EL2.TVM` trapping.
    ///
    /// # Errors
    ///
    /// * [`Exception::Undefined`] if the current EL may not access `reg`.
    /// * [`Exception::Denied`] if the write traps and EL2 software rejects
    ///   it.
    pub fn write_sysreg(
        &mut self,
        reg: SysReg,
        value: u64,
        hyp: &mut dyn Hyp,
    ) -> Result<(), Exception> {
        match self.el {
            ExceptionLevel::El0 => Err(Exception::Undefined {
                what: "system register write from EL0",
            }),
            ExceptionLevel::El1 => {
                if reg.is_el2_only() {
                    return Err(Exception::Undefined {
                        what: "EL2 register write from EL1",
                    });
                }
                if reg.is_vm_group() && self.regs.tvm_enabled() {
                    self.stats.sysreg_traps += 1;
                    self.emit_mark(PointKind::SysregTrap, reg as u64, value);
                    self.cycles += self.cost.hyp_roundtrip;
                    let from = self.el;
                    self.el = ExceptionLevel::El2;
                    self.emit_begin(SpanKind::SysregVerify, reg as u64);
                    let result = hyp.on_sysreg_trap(self, reg, value);
                    self.emit_end(SpanKind::SysregVerify, u64::from(result.is_err()));
                    self.el = from;
                    result.map_err(Exception::Denied)
                } else {
                    self.regs.write(reg, value);
                    if reg.affects_translation() {
                        self.tlb.l0_invalidate();
                    }
                    Ok(())
                }
            }
            ExceptionLevel::El2 => {
                self.regs.write(reg, value);
                if reg.affects_translation() {
                    self.tlb.l0_invalidate();
                }
                Ok(())
            }
        }
    }

    /// Applies a system-register write with EL2 authority. Only callable
    /// while executing at EL2 (i.e. from `Hyp` handlers or boot code).
    ///
    /// # Panics
    ///
    /// Panics if called while the machine is not at EL2 — that would let
    /// unprivileged code forge register state.
    pub fn el2_write_sysreg(&mut self, reg: SysReg, value: u64) {
        assert_eq!(
            self.el,
            ExceptionLevel::El2,
            "el2_write_sysreg requires EL2 execution"
        );
        self.regs.write(reg, value);
        if reg.affects_translation() {
            self.tlb.l0_invalidate();
        }
    }

    /// Reads a system register (reads are not trapped by TVM).
    pub fn read_sysreg(&self, reg: SysReg) -> u64 {
        self.regs.read(reg)
    }

    /// Executes an `HVC` (hypercall) from EL1.
    ///
    /// # Errors
    ///
    /// * [`Exception::Undefined`] if executed from EL0.
    /// * [`Exception::Denied`] if EL2 software rejects the request.
    pub fn hvc(&mut self, call: u64, args: [u64; 4], hyp: &mut dyn Hyp) -> Result<u64, Exception> {
        if self.el == ExceptionLevel::El0 {
            return Err(Exception::Undefined {
                what: "HVC from EL0",
            });
        }
        self.stats.hypercalls += 1;
        self.emit_mark(PointKind::Hypercall, call, 0);
        self.cycles += self.cost.hyp_roundtrip;
        // Fault site: the trap is taken (cycles charged, event traced)
        // but the EL2 handler never runs — a lost doorbell.
        if let Some(faults) = &self.faults {
            if faults.borrow_mut().on_hypercall(call) {
                return Ok(0);
            }
        }
        let from = self.el;
        self.el = ExceptionLevel::El2;
        self.emit_begin(SpanKind::HypercallVerify, call);
        let result = hyp.on_hypercall(self, call, args);
        self.emit_end(SpanKind::HypercallVerify, u64::from(result.is_err()));
        self.el = from;
        result.map_err(Exception::Denied)
    }

    /// Executes `WFI`: waits for an interrupt. On bare metal this is
    /// cycle-free in our model (idle time is not charged to the
    /// benchmark); a trapping hypervisor charges its exit cost via
    /// [`Hyp::on_wfi`].
    pub fn wfi(&mut self, hyp: &mut dyn Hyp) {
        self.emit_mark(PointKind::Wfi, 0, 0);
        let from = self.el;
        self.el = ExceptionLevel::El2;
        hyp.on_wfi(self);
        self.el = from;
    }

    /// Sends a software-generated interrupt (cross-CPU wakeup). Traps to
    /// a hypervisor's vGIC via [`Hyp::on_sgi`]; free otherwise.
    pub fn send_sgi(&mut self, hyp: &mut dyn Hyp) {
        self.emit_mark(PointKind::Sgi, 0, 0);
        let from = self.el;
        self.el = ExceptionLevel::El2;
        hyp.on_sgi(self);
        self.el = from;
    }

    /// Charges the EL0→EL1 syscall round-trip cost.
    pub fn charge_syscall(&mut self) {
        self.cycles += self.cost.syscall_roundtrip;
    }

    /// Charges an EL1 IRQ round trip and counts the delivery.
    pub fn charge_irq(&mut self) {
        self.stats.irqs_delivered += 1;
        self.cycles += self.cost.irq_roundtrip;
    }

    /// Charges an EL1 fault (data abort) round trip.
    pub fn charge_fault(&mut self) {
        self.cycles += self.cost.fault_roundtrip;
    }

    /// Charges a full EL2 world switch (KVM vmexit/vmentry pair).
    pub fn charge_world_switch(&mut self) {
        self.cycles += self.cost.world_switch;
    }

    // ------------------------------------------------------------------
    // TLB / cache maintenance (software-visible instructions)
    // ------------------------------------------------------------------

    /// `TLBI VMALLE1`-style full invalidation.
    pub fn tlbi_all(&mut self) {
        self.emit_mark(PointKind::TlbMaintenance, 0, 0);
        self.cycles += self.cost.tlb_maintenance;
        self.tlb.flush_all();
    }

    /// `TLBI ASID` — invalidate one address space.
    pub fn tlbi_asid(&mut self, asid: u16) {
        self.emit_mark(PointKind::TlbMaintenance, 0, 0);
        self.cycles += self.cost.tlb_maintenance;
        self.tlb.flush_asid(asid);
    }

    /// `TLBI VAE1` — invalidate one page in all address spaces.
    pub fn tlbi_va(&mut self, va: VirtAddr) {
        self.emit_mark(PointKind::TlbMaintenance, 0, 0);
        self.cycles += self.cost.tlb_maintenance;
        self.tlb.flush_va(va);
    }

    /// Invalidate stage-2 (and combined) entries after a stage-2 table
    /// change.
    pub fn tlbi_stage2(&mut self) {
        self.emit_mark(PointKind::TlbMaintenance, 0, 0);
        self.cycles += self.cost.tlb_maintenance;
        self.tlb.flush_stage2();
    }

    /// Cleans and invalidates every cache line of the physical page
    /// containing `pa`, pushing dirty data onto the bus (where the MBM can
    /// see it). Charged per line.
    pub fn cache_clean_invalidate_page(&mut self, pa: PhysAddr) {
        let evictions = self.cache.clean_invalidate_page(pa);
        self.cycles += self.cost.cache_maintenance * (crate::addr::PAGE_SIZE / LINE_SIZE);
        let mut written_back = 0u64;
        for ev in evictions {
            self.cycles += self.cost.dram_access;
            self.bus.issue(
                BusTransaction::WriteLine {
                    addr: ev.addr,
                    data: ev.data,
                },
                &mut self.mem,
                &mut self.irq,
                self.cycles,
            );
            written_back += 1;
        }
        self.emit_mark(
            PointKind::CacheMaintenance,
            pa.page_base().raw(),
            written_back,
        );
    }

    /// Lets attached bus devices (the MBM) drain internal queues; call at
    /// operation boundaries.
    pub fn step_devices(&mut self) {
        self.bus
            .step_snoopers(&mut self.mem, &mut self.irq, self.cycles);
    }

    // ------------------------------------------------------------------
    // Translated memory access (EL0/EL1)
    // ------------------------------------------------------------------

    /// Reads a 64-bit word at `va` from the current EL0/EL1 context.
    ///
    /// # Errors
    ///
    /// Propagates translation/permission aborts and EL2 denials.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 8-byte aligned or if called at EL2 (use
    /// [`Machine::el2_read_u64`]).
    pub fn read_u64(&mut self, va: VirtAddr, hyp: &mut dyn Hyp) -> Result<u64, Exception> {
        assert!(va.is_word_aligned(), "unaligned word read at {va}");
        assert_ne!(self.el, ExceptionLevel::El2, "EL2 must use el2_read_u64");
        self.stats.reads += 1;
        match self.access_el01(va, AccessKind::Read, None, hyp)? {
            Some(v) => Ok(v),
            None => unreachable!("reads always produce a value"),
        }
    }

    /// Writes a 64-bit word at `va` from the current EL0/EL1 context.
    ///
    /// # Errors
    ///
    /// Propagates translation/permission aborts and EL2 denials.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 8-byte aligned or if called at EL2 (use
    /// [`Machine::el2_write_u64`]).
    pub fn write_u64(
        &mut self,
        va: VirtAddr,
        value: u64,
        hyp: &mut dyn Hyp,
    ) -> Result<(), Exception> {
        assert!(va.is_word_aligned(), "unaligned word write at {va}");
        assert_ne!(self.el, ExceptionLevel::El2, "EL2 must use el2_write_u64");
        self.stats.writes += 1;
        self.access_el01(va, AccessKind::Write, Some(value), hyp)?;
        Ok(())
    }

    /// Reads `words` consecutive 64-bit words starting at `va`, returning
    /// the last word read (0 when `words == 0`).
    ///
    /// Model-equivalent to calling [`Machine::read_u64`] once per word:
    /// identical cycles, statistics, bus traffic and fault behavior. The
    /// host fast path takes the first word of each page through the full
    /// reference access, then streams the rest of the page through the
    /// translation that access just resolved (and proved permissions
    /// for) — so only the first word of a page run can fault.
    ///
    /// # Errors
    ///
    /// The exception the faulting word raised, with the count of words
    /// that completed before it.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 8-byte aligned or if called at EL2.
    pub fn read_block(
        &mut self,
        va: VirtAddr,
        words: u64,
        hyp: &mut dyn Hyp,
    ) -> Result<u64, BlockFault> {
        self.block_access(va, words, hyp, None::<fn(u64) -> u64>)
    }

    /// Writes `words` consecutive 64-bit words starting at `va`, taking
    /// the value of word `i` from `value_of(i)`.
    ///
    /// Model-equivalent to calling [`Machine::write_u64`] once per word;
    /// see [`Machine::read_block`] for the fast-path contract. On a
    /// fault, `value_of` has been consulted for words `0..=completed`.
    ///
    /// # Errors
    ///
    /// The exception the faulting word raised, with the count of words
    /// that completed before it.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not 8-byte aligned or if called at EL2.
    pub fn write_block(
        &mut self,
        va: VirtAddr,
        words: u64,
        hyp: &mut dyn Hyp,
        value_of: impl FnMut(u64) -> u64,
    ) -> Result<(), BlockFault> {
        self.block_access(va, words, hyp, Some(value_of))
            .map(|_| ())
    }

    /// The walker behind [`Machine::read_block`] (`value_of` is `None`)
    /// and [`Machine::write_block`]. Returns the last word read.
    ///
    /// Each page's first word is a full reference access. With the
    /// block fast path on, the rest of the page streams through the TLB
    /// entry that access left, charging the per-word TLB lookup. On a
    /// cacheable page with line runs active, each run of words within
    /// one cache line is a unit:
    ///
    /// - a hit is one tag scan ([`DataCache::access_run`]) with the
    ///   batched bookkeeping and cycles of that many hits;
    /// - a miss refills through the run's first word, then streams the
    ///   rest of the line through the locator the refill returned
    ///   ([`DataCache::replay_run`]).
    ///
    /// Otherwise every streamed word takes a per-word `perform`.
    fn block_access<F: FnMut(u64) -> u64>(
        &mut self,
        va: VirtAddr,
        words: u64,
        hyp: &mut dyn Hyp,
        mut value_of: Option<F>,
    ) -> Result<u64, BlockFault> {
        let write = value_of.is_some();
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let mut last = 0u64;
        let mut i = 0u64;
        while i < words {
            let cur = va.add(i * 8);
            let first = match value_of.as_mut() {
                Some(value_of) => self.write_u64(cur, value_of(i), hyp).map(|()| 0),
                None => self.read_u64(cur, hyp),
            };
            match first {
                Ok(v) => last = v,
                Err(exception) => {
                    return Err(BlockFault {
                        completed: i,
                        exception,
                    })
                }
            }
            i += 1;
            if !self.block_fastpath {
                continue;
            }
            let in_page = ((crate::addr::PAGE_SIZE - cur.page_offset() - 8) / 8).min(words - i);
            if in_page == 0 {
                continue;
            }
            let regime = Regime::El1 {
                asid: Some(self.current_asid()),
            };
            // An emulated access leaves no TLB entry behind; stay on the
            // reference path then.
            let Some(entry) = self.tlb.peek(regime, cur) else {
                continue;
            };
            self.tlb.record_block_hits(in_page);
            if write {
                self.stats.writes += in_page;
            } else {
                self.stats.reads += in_page;
            }
            let end = i + in_page;
            if !(entry.perms.cacheable && self.line_runs_active()) {
                while i < end {
                    self.cycles += self.cost.tlb_lookup;
                    let pa = entry.pa_page.add(va.add(i * 8).page_offset());
                    let value = value_of.as_mut().map(|value_of| value_of(i));
                    last = self.perform(pa, kind, value, entry.perms.cacheable);
                    i += 1;
                }
                continue;
            }
            while i < end {
                let pa = entry.pa_page.add(va.add(i * 8).page_offset());
                let word_in_line = (pa.raw() >> 3) & (LINE_WORDS as u64 - 1);
                let mut run = (LINE_WORDS as u64 - word_in_line).min(end - i);
                let line = match self.cache.access_run(pa, run, write) {
                    Some(line) => line,
                    None => {
                        self.cycles += self.cost.tlb_lookup;
                        let value = value_of.as_mut().map(|value_of| value_of(i));
                        let (v, hint) = self.refill(pa, value);
                        last = v;
                        i += 1;
                        run -= 1;
                        if run == 0 {
                            continue;
                        }
                        self.cache
                            .replay_run(hint, pa.add(8), run, write)
                            .expect("the line just refilled is resident")
                    }
                };
                match value_of.as_mut() {
                    Some(value_of) => {
                        for (k, w) in line.iter_mut().enumerate() {
                            *w = value_of(i + k as u64);
                        }
                    }
                    None => last = line[run as usize - 1],
                }
                self.cycles += self.cost.hit_access() * run;
                self.plan_stats.replayed_words += run;
                i += run;
            }
        }
        Ok(last)
    }

    fn current_asid(&self) -> u16 {
        (self.regs.read(SysReg::TTBR0_EL1) >> 48) as u16
    }

    fn stage1_root(&self, va: VirtAddr) -> PhysAddr {
        let ttbr = if va.is_kernel() {
            self.regs.read(SysReg::TTBR1_EL1)
        } else {
            self.regs.read(SysReg::TTBR0_EL1)
        };
        PhysAddr::new(ttbr & pagetable::desc::ADDR_MASK)
    }

    /// Resolves an IPA through stage 2, filling the stage-2 TLB. Returns
    /// the physical address and the stage-2 write permission.
    fn stage2_resolve(
        &mut self,
        ipa: IntermAddr,
        walk_accesses: &mut u32,
    ) -> Result<(PhysAddr, PagePerms), WalkFault> {
        if let Some(e) = self.tlb.lookup_stage2(ipa.page_index()) {
            return Ok((e.pa_page.add(ipa.page_offset()), e.perms));
        }
        let root = PhysAddr::new(self.regs.read(SysReg::VTTBR_EL2) & pagetable::desc::ADDR_MASK);
        let res = {
            let mut view = CoherentMemView {
                cache: &mut self.cache,
                mem: &mut self.mem,
            };
            pagetable::walk(&mut view, root, ipa.raw())?
        };
        *walk_accesses += res.accesses.len() as u32;
        self.cycles += self.cost.walk_access * res.accesses.len() as u64;
        self.tlb.insert_stage2(
            ipa.page_index(),
            TlbEntry {
                pa_page: res.out.page_base(),
                perms: res.perms,
                walk_accesses: res.accesses.len() as u32,
            },
        );
        Ok((res.out, res.perms))
    }

    /// Walks stage 1 (with per-level stage-2 resolution of table pointers
    /// when nested paging is active). Returns the final PA, combined
    /// permissions, and total walk accesses.
    fn translate_slow(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<(PhysAddr, PagePerms, u32), TranslateFault> {
        let s2_on = self.regs.stage2_enabled();
        let mut accesses = 0u32;
        // Stage-1 disabled: the VA is used directly as an IPA.
        let (leaf_ipa, s1_perms) = if self.regs.stage1_enabled() {
            let root_ipa = IntermAddr::new(self.stage1_root(va).raw());
            let input = va.raw() & ((1u64 << 48) - 1);
            let mut table_ipa = root_ipa;
            let mut result = None;
            for level in 0..pagetable::LEVELS {
                let table_pa = if s2_on {
                    self.stage2_resolve(table_ipa, &mut accesses)
                        .map_err(|_| TranslateFault::Stage2 {
                            ipa: table_ipa,
                            kind: AccessKind::Read,
                        })?
                        .0
                } else {
                    table_ipa.as_phys()
                };
                let eaddr = pagetable::entry_addr(table_pa, input, level);
                accesses += 1;
                self.cycles += self.cost.walk_access;
                let raw = if self.cache.contains(eaddr) {
                    self.cache.read_word(eaddr.word_base())
                } else {
                    self.mem.read_u64(eaddr)
                };
                match pagetable::Descriptor::decode(raw, level) {
                    pagetable::Descriptor::Invalid => {
                        return Err(TranslateFault::Stage1 { permission: false })
                    }
                    pagetable::Descriptor::Table { next } => {
                        table_ipa = IntermAddr::new(next.raw());
                    }
                    pagetable::Descriptor::Leaf { out, perms } => {
                        let mask = (1u64 << (12 + 9 * (pagetable::LEVELS - 1 - level))) - 1;
                        result = Some((IntermAddr::new(out.raw() | (input & mask)), perms));
                        break;
                    }
                }
            }
            result.ok_or(TranslateFault::Stage1 { permission: false })?
        } else {
            (
                IntermAddr::new(va.raw()),
                PagePerms {
                    write: true,
                    exec: true,
                    user: true,
                    cacheable: true,
                },
            )
        };

        // Stage-1 permission check.
        let user = self.el == ExceptionLevel::El0;
        if user && !s1_perms.user {
            return Err(TranslateFault::Stage1 { permission: true });
        }
        if kind == AccessKind::Write && !s1_perms.write {
            return Err(TranslateFault::Stage1 { permission: true });
        }

        // Stage-2 translation of the leaf output.
        if s2_on {
            let (pa, s2_perms) = self.stage2_resolve(leaf_ipa, &mut accesses).map_err(|_| {
                TranslateFault::Stage2 {
                    ipa: leaf_ipa,
                    kind,
                }
            })?;
            if kind == AccessKind::Write && !s2_perms.write {
                return Err(TranslateFault::Stage2 {
                    ipa: leaf_ipa,
                    kind,
                });
            }
            let combined = PagePerms {
                write: s1_perms.write && s2_perms.write,
                exec: s1_perms.exec,
                user: s1_perms.user,
                cacheable: s1_perms.cacheable && s2_perms.cacheable,
            };
            Ok((pa, combined, accesses))
        } else {
            Ok((leaf_ipa.as_phys(), s1_perms, accesses))
        }
    }

    fn access_el01(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        value: Option<u64>,
        hyp: &mut dyn Hyp,
    ) -> Result<Option<u64>, Exception> {
        for _attempt in 0..MAX_STAGE2_RETRIES {
            self.cycles += self.cost.tlb_lookup;
            let regime = Regime::El1 {
                asid: Some(self.current_asid()),
            };
            // TLB hit path.
            if let Some(entry) = self.tlb.lookup(regime, va) {
                let user = self.el == ExceptionLevel::El0;
                if (user && !entry.perms.user) || (kind == AccessKind::Write && !entry.perms.write)
                {
                    // Conservative: a permission mismatch on a cached entry
                    // re-walks so stage-1 vs stage-2 can be distinguished.
                    self.tlb.flush_va(va);
                } else {
                    let pa = entry.pa_page.add(va.page_offset());
                    let v = self.perform(pa, kind, value, entry.perms.cacheable);
                    return Ok(Some(v));
                }
            }
            match self.translate_slow(va, kind) {
                Ok((pa, perms, walk_accesses)) => {
                    let regime_insert = if va.is_kernel() {
                        Regime::El1 { asid: None }
                    } else {
                        regime
                    };
                    self.tlb.insert(
                        regime_insert,
                        va,
                        TlbEntry {
                            pa_page: pa.page_base(),
                            perms,
                            walk_accesses,
                        },
                    );
                    let v = self.perform(pa, kind, value, perms.cacheable);
                    return Ok(Some(v));
                }
                Err(TranslateFault::Stage1 { permission }) => {
                    self.stats.el1_aborts += 1;
                    self.emit_abort(va, kind, permission);
                    return Err(Exception::DataAbort {
                        va,
                        kind,
                        permission,
                    });
                }
                Err(TranslateFault::Stage2 { ipa, kind: fk }) => {
                    self.stats.stage2_faults += 1;
                    self.emit_mark(PointKind::Stage2Fault, ipa.raw(), fk as u64);
                    self.cycles += self.cost.world_switch;
                    let from = self.el;
                    self.el = ExceptionLevel::El2;
                    let outcome = hyp.on_stage2_fault(self, ipa, fk, value);
                    self.el = from;
                    match outcome {
                        Ok(Stage2Outcome::Retry) => continue,
                        Ok(Stage2Outcome::Emulated) => return Ok(value.map(|_| 0)),
                        Err(v) => return Err(Exception::Denied(v)),
                    }
                }
            }
        }
        Err(Exception::Stage2Abort {
            ipa: IntermAddr::new(va.raw()),
            kind,
        })
    }

    /// Performs the physical access through the cache hierarchy / bus.
    fn perform(
        &mut self,
        pa: PhysAddr,
        kind: AccessKind,
        value: Option<u64>,
        cacheable: bool,
    ) -> u64 {
        // Ownership sanitizer: the one point where every CPU store —
        // cacheable or not, any EL — passes with its writer identity
        // still attached. Zero cycles, no architectural effect.
        if kind == AccessKind::Write && self.shadow.is_some() {
            let writer = self.shadow_writer();
            if let Some(shadow) = &mut self.shadow {
                shadow.check_write(writer, pa.word_base(), value.unwrap_or(0));
            }
        }
        if !cacheable {
            self.stats.uncached_accesses += 1;
            self.cycles += self.cost.dram_access;
            let txn = match kind {
                AccessKind::Read => BusTransaction::ReadWord {
                    addr: pa.word_base(),
                },
                AccessKind::Write => BusTransaction::WriteWord {
                    addr: pa.word_base(),
                    value: value.expect("write carries a value"),
                },
            };
            let (read, _) = self
                .bus
                .issue(txn, &mut self.mem, &mut self.irq, self.cycles);
            return read;
        }
        self.perform_cached(pa, kind, value)
    }

    /// The cacheable half of [`Machine::perform`]: a hit completes the
    /// word access in one set scan; a miss takes [`Machine::refill`].
    /// The sanitizer check and the non-cacheable path live in
    /// `perform`.
    fn perform_cached(&mut self, pa: PhysAddr, kind: AccessKind, value: Option<u64>) -> u64 {
        let write = match kind {
            AccessKind::Read => None,
            AccessKind::Write => Some(value.expect("write carries a value")),
        };
        // Reference: `probe` then `read_word`/`write_word`.
        if let Some(line) = self.cache.access_run(pa, 1, write.is_some()) {
            self.cycles += self.cost.cache_hit;
            return match write {
                Some(v) => {
                    line[0] = v;
                    v
                }
                None => line[0],
            };
        }
        self.refill(pa, write).0
    }

    /// Completes a word access that missed the cache: write back the
    /// victim if dirty, fill the line, install it and access the word
    /// (`write` carries a store's value). Returns the word and the
    /// line's locator, so a block access can stream the rest of the
    /// line without another set scan.
    fn refill(&mut self, pa: PhysAddr, write: Option<u64>) -> (u64, LineHint) {
        let CachePlan::Refill { line, evict } = self.cache.probe(pa) else {
            unreachable!("refill follows a miss");
        };
        if let Some(ev) = evict {
            self.cycles += self.cost.dram_access;
            self.bus.issue(
                BusTransaction::WriteLine {
                    addr: ev.addr,
                    data: ev.data,
                },
                &mut self.mem,
                &mut self.irq,
                self.cycles,
            );
        }
        self.cycles += self.cost.dram_access;
        self.bus.issue(
            BusTransaction::ReadLine { addr: line },
            &mut self.mem,
            &mut self.irq,
            self.cycles,
        );
        let data = self.mem.read_line(line);
        let hint = self.cache.install(line, data);
        self.cycles += self.cost.cache_hit;
        (self.cache.word_access(hint, pa, write), hint)
    }

    /// Models an instruction fetch from `va`: translates like a read but
    /// additionally requires execute permission. Returns the first word
    /// of the fetched instruction slot.
    ///
    /// This is how W⊕X pays off at runtime: code injected into a
    /// writable page translates fine for loads but *fetching* it takes a
    /// permission abort — the attacker cannot run what they can write.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::DataAbort`] with `permission: true` for
    /// execute-never pages (and the usual translation faults otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `va` is unaligned or the machine is at EL2.
    pub fn fetch(&mut self, va: VirtAddr, hyp: &mut dyn Hyp) -> Result<u64, Exception> {
        assert!(va.is_word_aligned(), "unaligned fetch at {va}");
        assert_ne!(self.el, ExceptionLevel::El2, "EL2 fetch is not modeled");
        // Reuse the read path for translation + data, then enforce the
        // execute permission from the cached entry / fresh walk.
        let value = self.read_u64(va, hyp)?;
        let regime = Regime::El1 {
            asid: Some(self.current_asid()),
        };
        let entry = self
            .tlb
            .lookup(regime, va)
            .expect("read_u64 just filled this entry");
        let user = self.el == ExceptionLevel::El0;
        if !entry.perms.exec || (user && !entry.perms.user) {
            self.stats.el1_aborts += 1;
            self.emit_abort(va, AccessKind::Read, true);
            return Err(Exception::DataAbort {
                va,
                kind: AccessKind::Read,
                permission: true,
            });
        }
        Ok(value)
    }

    // ------------------------------------------------------------------
    // EL2 (Hypersec) memory access: translated by the EL2 table, never by
    // stage 2, never trapped.
    // ------------------------------------------------------------------

    fn translate_el2(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<(PhysAddr, PagePerms), Exception> {
        self.cycles += self.cost.tlb_lookup;
        if let Some(e) = self.tlb.lookup(Regime::El2, va) {
            if kind == AccessKind::Write && !e.perms.write {
                return Err(Exception::DataAbort {
                    va,
                    kind,
                    permission: true,
                });
            }
            return Ok((e.pa_page.add(va.page_offset()), e.perms));
        }
        let root = PhysAddr::new(self.regs.read(SysReg::TTBR0_EL2) & pagetable::desc::ADDR_MASK);
        let res = {
            let mut view = CoherentMemView {
                cache: &mut self.cache,
                mem: &mut self.mem,
            };
            pagetable::walk(&mut view, root, va.raw())
        }
        .map_err(|_| Exception::DataAbort {
            va,
            kind,
            permission: false,
        })?;
        self.cycles += self.cost.walk_access * res.accesses.len() as u64;
        if kind == AccessKind::Write && !res.perms.write {
            return Err(Exception::DataAbort {
                va,
                kind,
                permission: true,
            });
        }
        self.tlb.insert(
            Regime::El2,
            va,
            TlbEntry {
                pa_page: res.out.page_base(),
                perms: res.perms,
                walk_accesses: res.accesses.len() as u32,
            },
        );
        Ok((res.out, res.perms))
    }

    /// Reads a word through the EL2 translation regime.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::DataAbort`] if the EL2 table does not map `va`.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unaligned or the machine is not at EL2.
    pub fn el2_read_u64(&mut self, va: VirtAddr) -> Result<u64, Exception> {
        assert!(va.is_word_aligned(), "unaligned EL2 read at {va}");
        assert_eq!(self.el, ExceptionLevel::El2, "el2_read_u64 requires EL2");
        let (pa, perms) = self.translate_el2(va, AccessKind::Read)?;
        Ok(self.perform(pa, AccessKind::Read, None, perms.cacheable))
    }

    /// Writes a word through the EL2 translation regime.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::DataAbort`] on a missing mapping or a
    /// read-only page.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unaligned or the machine is not at EL2.
    pub fn el2_write_u64(&mut self, va: VirtAddr, value: u64) -> Result<(), Exception> {
        assert!(va.is_word_aligned(), "unaligned EL2 write at {va}");
        assert_eq!(self.el, ExceptionLevel::El2, "el2_write_u64 requires EL2");
        let (pa, perms) = self.translate_el2(va, AccessKind::Write)?;
        self.perform(pa, AccessKind::Write, Some(value), perms.cacheable);
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TranslateFault {
    Stage1 { permission: bool },
    Stage2 { ipa: IntermAddr, kind: AccessKind },
}

/// Cache-coherent physical memory view: reads and writes consult the data
/// cache before DRAM, exactly as a coherent hardware table walker does.
/// Obtained from [`Machine::pt_view`].
pub struct CoherentMemView<'a> {
    cache: &'a mut DataCache,
    mem: &'a mut PhysMemory,
}

impl pagetable::PtMemory for CoherentMemView<'_> {
    fn read_pt(&mut self, pa: PhysAddr) -> u64 {
        if self.cache.contains(pa) {
            self.cache.read_word(pa.word_base())
        } else {
            self.mem.read_u64(pa)
        }
    }

    fn write_pt(&mut self, pa: PhysAddr, value: u64) {
        if self.cache.contains(pa) {
            self.cache.write_word(pa.word_base(), value);
        }
        self.mem.write_u64(pa, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::pagetable::{apply_entry_write, plan_map, PagePerms};
    use crate::regs::{hcr, sctlr};

    /// Test helper: builds identity-ish stage-1 mappings directly in
    /// physical memory (trusted boot-style writes).
    struct Rig {
        m: Machine,
        next_table: u64,
    }

    impl Rig {
        fn new() -> Self {
            let mut m = Machine::new(MachineConfig {
                dram_size: 64 << 20,
                ..MachineConfig::default()
            });
            // Stage-1 root at 1 MiB.
            m.el2_write_sysreg(SysReg::TTBR0_EL1, 0x10_0000);
            m.el2_write_sysreg(SysReg::TTBR1_EL1, 0x10_0000);
            m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
            m.set_el(ExceptionLevel::El1);
            Self {
                m,
                next_table: 0x20_0000,
            }
        }

        fn map(&mut self, va: u64, pa: u64, perms: PagePerms) {
            let next = &mut self.next_table;
            let plan = plan_map(
                self.m.mem_mut(),
                PhysAddr::new(0x10_0000),
                va,
                PhysAddr::new(pa),
                perms,
                3,
                &mut || {
                    let t = *next;
                    *next += PAGE_SIZE;
                    Some(PhysAddr::new(t))
                },
            )
            .expect("plan");
            for w in &plan.writes {
                apply_entry_write(self.m.mem_mut(), *w);
            }
        }
    }

    #[derive(Default)]
    struct CountingHyp {
        hypercalls: u64,
        traps: u64,
        s2_faults: u64,
        allow: bool,
    }

    impl Hyp for CountingHyp {
        fn on_hypercall(
            &mut self,
            _m: &mut Machine,
            call: u64,
            args: [u64; 4],
        ) -> Result<u64, PolicyViolation> {
            self.hypercalls += 1;
            if self.allow {
                Ok(call + args[0])
            } else {
                Err(PolicyViolation::new(1, "rejected"))
            }
        }

        fn on_sysreg_trap(
            &mut self,
            m: &mut Machine,
            reg: SysReg,
            value: u64,
        ) -> Result<(), PolicyViolation> {
            self.traps += 1;
            if self.allow {
                m.el2_write_sysreg(reg, value);
                Ok(())
            } else {
                Err(PolicyViolation::new(2, "sysreg write rejected"))
            }
        }

        fn on_stage2_fault(
            &mut self,
            _m: &mut Machine,
            _ipa: IntermAddr,
            _kind: AccessKind,
            _value: Option<u64>,
        ) -> Result<Stage2Outcome, PolicyViolation> {
            self.s2_faults += 1;
            Err(PolicyViolation::new(3, "stage-2 fault"))
        }
    }

    #[test]
    fn read_write_through_stage1() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        rig.m
            .write_u64(VirtAddr::new(0x5008), 0xFEED, &mut hyp)
            .unwrap();
        assert_eq!(
            rig.m.read_u64(VirtAddr::new(0x5008), &mut hyp).unwrap(),
            0xFEED
        );
        // The data landed at the mapped physical address.
        assert_eq!(rig.m.debug_read_phys(PhysAddr::new(0x8_0008)), 0xFEED);
    }

    #[test]
    fn table_read_equals_per_word_reads() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        for (i, va) in [0x5008u64, 0x5200, 0x5FF8].into_iter().enumerate() {
            rig.m
                .write_u64(VirtAddr::new(va), 0xD1E7 + i as u64, &mut hyp)
                .unwrap();
        }
        // The write-back cache still holds the stores: DRAM is stale.
        let dirty = PhysAddr::new(0x8_0008);
        assert!(rig.m.data_cache().contains(dirty));
        assert_eq!(rig.m.mem_mut().read_u64(dirty), 0);
        // A table page the kernel wrote, a frame with dirty lines and a
        // frame nothing ever touched.
        for page in [0x10_0000u64, 0x8_0000, 0x30_0000] {
            let page = PhysAddr::new(page);
            let batched = rig.m.debug_read_table(page).expect("inside DRAM");
            let per_word: Vec<u64> = (0..ENTRIES_PER_TABLE as u64)
                .map(|i| rig.m.debug_read_phys(page.add(i * 8)))
                .collect();
            assert_eq!(batched.as_slice(), per_word.as_slice(), "page {page}");
        }
        assert_eq!(
            rig.m.debug_read_table(PhysAddr::new(0x8_0000)).unwrap()[1],
            0xD1E7
        );
        let outside = rig.m.debug_read_table(PhysAddr::new(64 << 20));
        assert_eq!(outside.unwrap_err().addr, PhysAddr::new(64 << 20));
    }

    #[test]
    fn unmapped_va_aborts() {
        let mut rig = Rig::new();
        let mut hyp = NullHyp;
        let err = rig.m.read_u64(VirtAddr::new(0x9000), &mut hyp).unwrap_err();
        assert!(matches!(
            err,
            Exception::DataAbort {
                permission: false,
                ..
            }
        ));
        assert_eq!(rig.m.stats().el1_aborts, 1);
    }

    #[test]
    fn readonly_page_rejects_writes() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_RO);
        let mut hyp = NullHyp;
        assert!(rig.m.read_u64(VirtAddr::new(0x5000), &mut hyp).is_ok());
        let err = rig
            .m
            .write_u64(VirtAddr::new(0x5000), 1, &mut hyp)
            .unwrap_err();
        assert!(matches!(
            err,
            Exception::DataAbort {
                permission: true,
                ..
            }
        ));
    }

    #[test]
    fn user_cannot_touch_kernel_pages() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        rig.m.set_el(ExceptionLevel::El0);
        let mut hyp = NullHyp;
        let err = rig.m.read_u64(VirtAddr::new(0x5000), &mut hyp).unwrap_err();
        assert!(matches!(
            err,
            Exception::DataAbort {
                permission: true,
                ..
            }
        ));
    }

    #[test]
    fn tlb_caches_translations() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        rig.m.read_u64(VirtAddr::new(0x5000), &mut hyp).unwrap();
        let misses = rig.m.tlb().stats().misses;
        rig.m.read_u64(VirtAddr::new(0x5010), &mut hyp).unwrap();
        assert_eq!(rig.m.tlb().stats().misses, misses);
        assert!(rig.m.tlb().stats().hits >= 1);
    }

    #[test]
    fn tvm_traps_route_to_hyp() {
        let mut rig = Rig::new();
        rig.m.set_el(ExceptionLevel::El2);
        rig.m.el2_write_sysreg(SysReg::HCR_EL2, hcr::TVM);
        rig.m.set_el(ExceptionLevel::El1);
        let mut hyp = CountingHyp {
            allow: true,
            ..CountingHyp::default()
        };
        rig.m
            .write_sysreg(SysReg::TTBR1_EL1, 0x30_0000, &mut hyp)
            .unwrap();
        assert_eq!(hyp.traps, 1);
        assert_eq!(rig.m.read_sysreg(SysReg::TTBR1_EL1), 0x30_0000);
        assert_eq!(rig.m.stats().sysreg_traps, 1);
    }

    #[test]
    fn tvm_denial_blocks_write() {
        let mut rig = Rig::new();
        rig.m.set_el(ExceptionLevel::El2);
        rig.m.el2_write_sysreg(SysReg::HCR_EL2, hcr::TVM);
        rig.m.set_el(ExceptionLevel::El1);
        let before = rig.m.read_sysreg(SysReg::TTBR1_EL1);
        let mut hyp = CountingHyp::default();
        let err = rig
            .m
            .write_sysreg(SysReg::TTBR1_EL1, 0xBAD000, &mut hyp)
            .unwrap_err();
        assert!(matches!(err, Exception::Denied(_)));
        assert_eq!(rig.m.read_sysreg(SysReg::TTBR1_EL1), before);
    }

    #[test]
    fn untrapped_sysreg_write_is_direct() {
        let mut rig = Rig::new();
        let mut hyp = CountingHyp::default();
        rig.m
            .write_sysreg(SysReg::TTBR0_EL1, 0x40_0000, &mut hyp)
            .unwrap();
        assert_eq!(hyp.traps, 0);
        assert_eq!(rig.m.read_sysreg(SysReg::TTBR0_EL1), 0x40_0000);
    }

    #[test]
    fn el0_sysreg_write_is_undefined() {
        let mut rig = Rig::new();
        rig.m.set_el(ExceptionLevel::El0);
        let mut hyp = NullHyp;
        let err = rig
            .m
            .write_sysreg(SysReg::TTBR0_EL1, 0, &mut hyp)
            .unwrap_err();
        assert!(matches!(err, Exception::Undefined { .. }));
    }

    #[test]
    fn el1_cannot_write_el2_registers() {
        let mut rig = Rig::new();
        let mut hyp = NullHyp;
        let err = rig
            .m
            .write_sysreg(SysReg::HCR_EL2, hcr::VM, &mut hyp)
            .unwrap_err();
        assert!(matches!(err, Exception::Undefined { .. }));
    }

    #[test]
    fn hypercall_roundtrip() {
        let mut rig = Rig::new();
        let mut hyp = CountingHyp {
            allow: true,
            ..CountingHyp::default()
        };
        let ret = rig.m.hvc(10, [32, 0, 0, 0], &mut hyp).unwrap();
        assert_eq!(ret, 42);
        assert_eq!(rig.m.stats().hypercalls, 1);
        // EL restored after the call.
        assert_eq!(rig.m.el(), ExceptionLevel::El1);
    }

    #[test]
    fn nested_paging_costs_more_cycles() {
        // Build two identical rigs; enable stage-2 identity mapping on one.
        let mut native = Rig::new();
        native.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);

        let mut nested = Rig::new();
        nested.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        // Stage-2 identity map covering low memory with 2 MiB blocks.
        {
            let s2_root = PhysAddr::new(0x100_0000);
            let mut next = 0x110_0000u64;
            for section in 0..16u64 {
                let ipa = section * crate::addr::SECTION_SIZE;
                let plan = plan_map(
                    nested.m.mem_mut(),
                    s2_root,
                    ipa,
                    PhysAddr::new(ipa),
                    PagePerms::KERNEL_DATA,
                    2,
                    &mut || {
                        let t = next;
                        next += PAGE_SIZE;
                        Some(PhysAddr::new(t))
                    },
                )
                .expect("s2 plan");
                for w in &plan.writes {
                    apply_entry_write(nested.m.mem_mut(), *w);
                }
            }
            nested.m.set_el(ExceptionLevel::El2);
            nested.m.el2_write_sysreg(SysReg::VTTBR_EL2, s2_root.raw());
            nested.m.el2_write_sysreg(SysReg::HCR_EL2, hcr::VM);
            nested.m.set_el(ExceptionLevel::El1);
        }

        let mut hyp = NullHyp;
        let c0 = native.m.cycles();
        native.m.read_u64(VirtAddr::new(0x5000), &mut hyp).unwrap();
        let native_cost = native.m.cycles() - c0;

        let c0 = nested.m.cycles();
        nested.m.read_u64(VirtAddr::new(0x5000), &mut hyp).unwrap();
        let nested_cost = nested.m.cycles() - c0;

        assert!(
            nested_cost > native_cost,
            "nested TLB-miss cost {nested_cost} must exceed native {native_cost}"
        );
    }

    #[test]
    fn stage2_fault_routes_to_hyp() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        rig.m.set_el(ExceptionLevel::El2);
        // Stage-2 enabled but the table is empty: every access faults.
        rig.m.el2_write_sysreg(SysReg::VTTBR_EL2, 0x100_0000);
        rig.m.el2_write_sysreg(SysReg::HCR_EL2, hcr::VM);
        rig.m.set_el(ExceptionLevel::El1);
        let mut hyp = CountingHyp::default();
        let err = rig.m.read_u64(VirtAddr::new(0x5000), &mut hyp).unwrap_err();
        assert!(matches!(err, Exception::Denied(_)));
        assert_eq!(hyp.s2_faults, 1);
        assert_eq!(rig.m.stats().stage2_faults, 1);
    }

    #[test]
    fn noncacheable_writes_hit_the_bus_immediately() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA_NC);
        rig.map(0x6000, 0x9_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        let writes0 = rig.m.bus().writes();
        rig.m.write_u64(VirtAddr::new(0x5000), 1, &mut hyp).unwrap();
        assert_eq!(rig.m.bus().writes(), writes0 + 1, "NC write visible");
        // A cacheable write only produces a line *fill* (read), no write.
        rig.m.write_u64(VirtAddr::new(0x6000), 1, &mut hyp).unwrap();
        assert_eq!(rig.m.bus().writes(), writes0 + 1, "cached write hidden");
        assert_eq!(rig.m.stats().uncached_accesses, 1);
    }

    #[test]
    fn dma_write_bypasses_translation() {
        let mut rig = Rig::new();
        let w0 = rig.m.bus().writes();
        rig.m.dma_write_u64(PhysAddr::new(0x7_0000), 99);
        assert_eq!(rig.m.debug_read_phys(PhysAddr::new(0x7_0000)), 99);
        assert_eq!(rig.m.bus().writes(), w0 + 1);
    }

    #[test]
    fn el2_access_uses_el2_table() {
        let mut rig = Rig::new();
        // EL2 table: linear map of the first 2 MiB at root 0x50_0000.
        let root = PhysAddr::new(0x50_0000);
        let mut next = 0x51_0000u64;
        let plan = plan_map(
            rig.m.mem_mut(),
            root,
            0x0,
            PhysAddr::new(0x0),
            PagePerms::KERNEL_DATA,
            2,
            &mut || {
                let t = next;
                next += PAGE_SIZE;
                Some(PhysAddr::new(t))
            },
        )
        .expect("plan");
        for w in &plan.writes {
            apply_entry_write(rig.m.mem_mut(), *w);
        }
        rig.m.set_el(ExceptionLevel::El2);
        rig.m.el2_write_sysreg(SysReg::TTBR0_EL2, root.raw());
        rig.m.el2_write_u64(VirtAddr::new(0x12_3000), 7).unwrap();
        assert_eq!(rig.m.el2_read_u64(VirtAddr::new(0x12_3000)).unwrap(), 7);
        assert_eq!(rig.m.debug_read_phys(PhysAddr::new(0x12_3000)), 7);
    }

    #[test]
    fn cache_maintenance_flushes_dirty_data_to_bus() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        rig.m
            .write_u64(VirtAddr::new(0x5000), 0xCAFE, &mut hyp)
            .unwrap();
        let w0 = rig.m.bus().writes();
        rig.m.cache_clean_invalidate_page(PhysAddr::new(0x8_0000));
        assert!(rig.m.bus().writes() > w0, "dirty line written back on bus");
    }

    #[test]
    fn fetch_requires_execute_permission() {
        let mut rig = Rig::new();
        rig.map(0x5000, 0x8_0000, PagePerms::KERNEL_TEXT);
        rig.map(0x6000, 0x9_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        // Text fetches succeed.
        rig.m
            .fetch(VirtAddr::new(0x5000), &mut hyp)
            .expect("text fetch");
        // Data pages are execute-never: reads fine, fetches abort.
        rig.m
            .read_u64(VirtAddr::new(0x6000), &mut hyp)
            .expect("data read");
        let err = rig.m.fetch(VirtAddr::new(0x6000), &mut hyp).unwrap_err();
        assert!(matches!(
            err,
            Exception::DataAbort {
                permission: true,
                ..
            }
        ));
    }

    #[test]
    fn injected_code_cannot_run() {
        // The classic payload: write shellcode into writable memory, jump
        // to it. The write lands; the jump faults.
        let mut rig = Rig::new();
        rig.map(0x6000, 0x9_0000, PagePerms::KERNEL_DATA);
        let mut hyp = NullHyp;
        rig.m
            .write_u64(VirtAddr::new(0x6000), 0xD65F03C0 /* RET */, &mut hyp)
            .expect("shellcode written");
        let err = rig.m.fetch(VirtAddr::new(0x6000), &mut hyp).unwrap_err();
        assert!(matches!(
            err,
            Exception::DataAbort {
                permission: true,
                ..
            }
        ));
    }

    #[test]
    fn exception_display() {
        let e = Exception::DataAbort {
            va: VirtAddr::new(0x1000),
            kind: AccessKind::Write,
            permission: true,
        };
        assert_eq!(e.to_string(), "write abort at 0x1000 (permission)");
        let d: Exception = PolicyViolation::new(9, "nope").into();
        assert!(d.to_string().contains("nope"));
    }
}
