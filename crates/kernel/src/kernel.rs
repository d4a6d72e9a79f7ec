//! The mini monolithic kernel.
//!
//! [`Kernel`] drives the simulated machine the way Linux 3.10 drives the
//! Juno board in the paper: it boots (builds the linear map, creates the
//! init task, optionally hands control of its page tables to Hypersec via
//! the `LOCK` hypercall), services syscalls, schedules tasks, manages
//! `cred`/`dentry` objects through slab caches, and — when instrumented —
//! reports monitored-object lifecycles to Hypersec through the hooks the
//! paper describes (§5.3, §6.2).
//!
//! The cycle calibration constants live in [`tuning`]; see EXPERIMENTS.md
//! for how they were chosen.

use hypernel_machine::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hypernel_machine::fxhash::FxHashMap;
use hypernel_machine::irq::IrqLine;
use hypernel_machine::machine::{BlockFault, Exception, Hyp, Machine};
use hypernel_machine::pagetable::PagePerms;
use hypernel_machine::regs::{sctlr, ExceptionLevel, SysReg};
use hypernel_machine::shadow::PageTag;
use hypernel_telemetry::counter;
use hypernel_telemetry::counters::Counter;
use hypernel_telemetry::SpanKind;

use crate::abi::Hypercall;
use crate::compose::{
    compose_stamp, ChannelInfo, ComposeState, ComposeStats, DomainInfo, DomainRole, RegionInfo,
    CHANNEL_HEADER_BYTES, MAX_CHANNELS,
};
use crate::kobj::{CredField, DentryField, ObjectKind};
use crate::layout;
use crate::pgalloc::FrameAllocator;
use crate::pgtable::{build_linear_map, LinearMapMode, PtError, PtManager, PtRoute};
use crate::slab::SlabCache;
use crate::task::{Pid, Task, Vma};

/// Calibration constants (cycles) for kernel operations, chosen so the
/// *native* configuration lands near the paper's Table 1 and the relative
/// overheads of KVM/Hypernel emerge from mechanism, not fiat.
pub mod tuning {
    /// Fixed syscall-path compute beyond the hardware round trip.
    pub const SYSCALL_COMPUTE: u64 = 120;
    /// `stat` path-resolution and inode compute.
    pub const STAT_COMPUTE: u64 = 1500;
    /// Per path component hashing/locking compute.
    pub const PATH_COMPONENT_COMPUTE: u64 = 90;
    /// `sigaction` bookkeeping.
    pub const SIGNAL_INSTALL_COMPUTE: u64 = 340;
    /// Signal delivery + `sigreturn` compute.
    pub const SIGNAL_DELIVER_COMPUTE: u64 = 2500;
    /// Scheduler + context-switch bookkeeping.
    pub const SCHED_COMPUTE: u64 = 900;
    /// Pipe read/write bookkeeping per end.
    pub const PIPE_COMPUTE: u64 = 2000;
    /// Extra protocol processing for a local socket round trip.
    pub const SOCKET_EXTRA_COMPUTE: u64 = 4200;
    /// `fork` fixed compute (task struct, namespaces, accounting).
    pub const FORK_COMPUTE: u64 = 212_000;
    /// `exit` fixed compute.
    pub const EXIT_COMPUTE: u64 = 90_000;
    /// `execve` fixed compute (ELF parsing, setup).
    pub const EXEC_COMPUTE: u64 = 10_000;
    /// Page-fault handler compute (vma lookup, accounting).
    pub const FAULT_COMPUTE: u64 = 1100;
    /// `mmap`/`munmap` fixed compute (VMA bookkeeping, file refs).
    pub const MMAP_COMPUTE: u64 = 18_000;
    /// `clear_page` cost for a freshly allocated frame.
    pub const CLEAR_PAGE_COMPUTE: u64 = 350;
    /// File create (inode allocation etc.) compute.
    pub const CREATE_COMPUTE: u64 = 2_500;
    /// Per-4KiB file data copy compute (on top of the modeled stores).
    pub const FILE_COPY_COMPUTE_PER_PAGE: u64 = 400;
    /// Number of user image pages mapped per process.
    pub const USER_IMAGE_PAGES: usize = 64;
    /// Pages of the new image `execve` maps eagerly (the rest are
    /// demand-paged from the binary's page-cache pages).
    pub const EXEC_EAGER_PAGES: usize = 24;
    /// Pages eagerly mapped (and unmapped) by the `mmap` benchmark path.
    pub const MMAP_EAGER_PAGES: usize = 4;
    /// Size of the warm page-cache pool backing demand faults.
    pub const PAGE_CACHE_FRAMES: usize = 64;
    /// Every Nth page-cache allocation takes a cold fresh frame (cache
    /// growth), which costs a lazy stage-2 fault under KVM.
    pub const PAGE_CACHE_GROWTH_PERIOD: usize = 32;
    /// A dget touches rotate the LRU every this many references.
    pub const LRU_ROTATE_PERIOD: u64 = 8;
    /// A dentry's first references take the write-heavy ref-walk path.
    pub const REF_WALK_WARMUP: u64 = 16;
    /// Afterwards, only every Nth reference falls back to ref-walk; the
    /// rest are RCU-walk and write nothing.
    pub const REF_WALK_PERIOD: u64 = 12;
}

/// Which monitoring policy the kernel's security hooks report (paper
/// §7.2's two security solutions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorMode {
    /// Register only the sensitive fields of each object
    /// (word-granularity monitoring).
    SensitiveFields,
    /// Register every field of each object — the paper's estimator for
    /// page-granularity monitoring.
    WholeObject,
}

impl MonitorMode {
    /// Both policies, in declaration order.
    pub const ALL: [MonitorMode; 2] = [Self::SensitiveFields, Self::WholeObject];

    /// Stable kebab-case name (the scenario-TOML `monitor` value).
    pub fn name(self) -> &'static str {
        match self {
            Self::SensitiveFields => "sensitive-fields",
            Self::WholeObject => "whole-object",
        }
    }
}

/// Security-hook configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorHooks {
    /// Monitoring policy.
    pub mode: MonitorMode,
}

/// Kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Linear-map construction mode (paper §6.2).
    pub linear_map: LinearMapMode,
    /// Post-boot page-table write route.
    pub pt_route: PtRoute,
    /// Whether the interrupt handler forwards MBM interrupts to Hypersec.
    pub forward_irq: bool,
    /// Security hooks for `cred`/`dentry` monitoring, if any.
    pub monitor_hooks: Option<MonitorHooks>,
}

impl KernelConfig {
    /// The vanilla kernel: direct page-table writes, no hooks.
    pub fn native() -> Self {
        Self {
            linear_map: LinearMapMode::Pages,
            pt_route: PtRoute::Direct,
            forward_irq: false,
            monitor_hooks: None,
        }
    }

    /// The instrumented kernel for the Hypernel configuration.
    pub fn hypernel() -> Self {
        Self {
            linear_map: LinearMapMode::Pages,
            pt_route: PtRoute::Hypercall,
            forward_irq: true,
            monitor_hooks: None,
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::native()
    }
}

/// Kernel event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscalls serviced.
    pub syscalls: u64,
    /// Forks performed.
    pub forks: u64,
    /// Execs performed.
    pub execs: u64,
    /// Exits performed.
    pub exits: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Demand page faults handled.
    pub page_faults: u64,
    /// Files created.
    pub files_created: u64,
    /// Interrupts forwarded to Hypersec.
    pub irqs_forwarded: u64,
    /// Data writes emulated by Hypersec due to protection-granularity
    /// overreach (section-mode linear map).
    pub emulated_writes: u64,
    /// Monitor-registration hypercalls issued by the hooks.
    pub monitor_registrations: u64,
}

impl KernelStats {
    /// Every counter with its artifact names — the one list of them.
    /// Coverage splits `syscalls` into families: the ones with their
    /// own counters plus the residual `other` bucket (stat/signal/mmap
    /// traffic and everything else), derived in the last row.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<KernelStats>] = &[
        counter!(syscalls, report = "syscalls"),
        counter!(forks, coverage = "kernel/syscall/fork", report = "forks"),
        counter!(execs, coverage = "kernel/syscall/exec"),
        counter!(exits, coverage = "kernel/syscall/exit"),
        counter!(context_switches, coverage = "kernel/event/context-switch", report = "context_switches"),
        counter!(page_faults, coverage = "kernel/event/page-fault", report = "page_faults"),
        counter!(files_created, coverage = "kernel/event/file-create"),
        counter!(irqs_forwarded, coverage = "kernel/irq-service/forwarded"),
        counter!(emulated_writes, coverage = "kernel/irq-service/emulated-write"),
        counter!(monitor_registrations, coverage = "kernel/irq-service/monitor-registration"),
        counter!(derived "syscalls - forks - execs - exits" = |k| k.syscalls.saturating_sub(k.forks + k.execs + k.exits), coverage = "kernel/syscall/other"),
    ];
}

/// Errors surfaced by kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A machine exception the kernel could not resolve.
    Machine(Exception),
    /// Page-table management failed.
    Pt(PtError),
    /// Out of physical frames.
    OutOfFrames,
    /// Path lookup failed.
    NoSuchPath(String),
    /// Unknown pid.
    NoSuchTask(Pid),
    /// Unknown composed protection domain.
    NoSuchDomain(String),
    /// Unknown composed channel.
    NoSuchChannel(String),
    /// Unknown composed shared region.
    NoSuchRegion(String),
    /// A compose description exceeded a lowering limit.
    ComposeLimit(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Machine(e) => write!(f, "machine exception: {e}"),
            Self::Pt(e) => write!(f, "page-table error: {e}"),
            Self::OutOfFrames => write!(f, "out of physical frames"),
            Self::NoSuchPath(p) => write!(f, "no such path: {p}"),
            Self::NoSuchTask(pid) => write!(f, "no such task: {pid}"),
            Self::NoSuchDomain(name) => write!(f, "no such protection domain: {name}"),
            Self::NoSuchChannel(name) => write!(f, "no such channel: {name}"),
            Self::NoSuchRegion(name) => write!(f, "no such shared region: {name}"),
            Self::ComposeLimit(what) => write!(f, "compose lowering limit: {what}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<Exception> for KernelError {
    fn from(e: Exception) -> Self {
        Self::Machine(e)
    }
}

impl From<PtError> for KernelError {
    fn from(e: PtError) -> Self {
        Self::Pt(e)
    }
}

impl From<crate::pgalloc::OutOfFramesError> for KernelError {
    fn from(_: crate::pgalloc::OutOfFramesError) -> Self {
        Self::OutOfFrames
    }
}

/// Modeled address of an installed user signal handler.
const SIGNAL_HANDLER_ADDR: u64 = 0x40_2000;

/// The dcache node of `/`, made at boot: a lookup starts from its
/// dentry without probing for it.
const ROOT_NODE: usize = 0;

/// A dcache path node: what one key of the dcache maps to.
///
/// A node outlives the dentry cached under it (unlink and rename leave
/// a tombstone), and the prefixes of a canonical key get nodes of their
/// own, so the dcache holds one node per distinct path, and canonical
/// prefix, that was ever cached: it grows with the paths a system has
/// named, not with the files alive, and a fork copies it.
#[derive(Debug, Clone, Copy, Default)]
struct PathNode {
    /// The [`DentryRecord`] cached under this path, if any.
    dentry: Option<usize>,
    /// For a canonical path (`/a/b`), the node of its parent prefix
    /// (`/a`); `None` for a top-level component and for other spellings.
    parent: Option<usize>,
}

/// The host state of one dentry slab slot. A slot keeps its record for
/// good: the next dentry allocated there inherits its ref-walk heat.
#[derive(Debug, Clone, Copy)]
struct DentryRecord {
    /// The slab slot.
    pa: PhysAddr,
    /// Path-walk references taken so far (see [`Kernel::ref_walk`]).
    heat: u64,
    /// The file's data page, once written.
    data: Option<PhysAddr>,
}

/// Reused buffers of [`Kernel::lookup`]: the canonical spelling of an
/// odd path and the node chain of a walk, leaf first. Empty between
/// lookups, so a warm lookup allocates nothing and a clone copies
/// nothing.
#[derive(Debug, Clone, Default)]
struct WalkBuffers {
    spelling: String,
    chain: Vec<usize>,
}

/// The kernel.
///
/// `Clone` deep-copies every allocator, slab and task table, so a booted
/// kernel can be snapshotted alongside its machine for warm-boot forking.
#[derive(Debug, Clone)]
pub struct Kernel {
    config: KernelConfig,
    frames: FrameAllocator,
    pt: PtManager,
    kernel_root: PhysAddr,
    creds: SlabCache,
    dentries: SlabCache,
    tasks: FxHashMap<Pid, Task>,
    current: Pid,
    next_pid: u64,
    next_asid: u16,
    /// Path (the raw string given to create or rename) -> node.
    dcache: FxHashMap<String, usize>,
    path_nodes: Vec<PathNode>,
    dentry_records: Vec<DentryRecord>,
    /// Records of freed slots, pushed and popped in step with the dentry
    /// slab's free list (both LIFO), so a reused slot gets its own back.
    free_records: Vec<usize>,
    walk: WalkBuffers,
    page_cache: Vec<PhysAddr>,
    page_cache_cursor: usize,
    pipe_buffer: PhysAddr,
    lru_tick: u64,
    next_mmap_va: u64,
    mmap_count: u64,
    compose: ComposeState,
    stats: KernelStats,
    locked: bool,
}

impl Kernel {
    /// Boots the kernel on `m`: builds the linear map, creates the init
    /// task and — when configured for Hypernel — issues the `LOCK`
    /// hypercall that hands page-table control to Hypersec.
    ///
    /// The machine must have at least [`layout::DRAM_SIZE`] of DRAM. On
    /// return the machine executes at EL1 with the MMU on and the init
    /// task current.
    ///
    /// # Errors
    ///
    /// Fails if memory is exhausted or EL2 software rejects the `LOCK`.
    pub fn boot(
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        config: KernelConfig,
    ) -> Result<Self, KernelError> {
        let mut frames = FrameAllocator::new(
            PhysAddr::new(layout::FRAME_POOL_BASE),
            PhysAddr::new(layout::FRAME_POOL_END),
        );
        let kernel_root = frames.alloc()?;
        build_linear_map(m, &mut frames, kernel_root, config.linear_map)?;

        // Install translation state. Boot runs before TVM is armed, so
        // these writes are direct even in the Hypernel configuration.
        m.set_el(ExceptionLevel::El1);
        m.write_sysreg(SysReg::TTBR1_EL1, kernel_root.raw(), hyp)?;
        m.write_sysreg(SysReg::SCTLR_EL1, sctlr::M, hyp)?;

        let mut kernel = Self {
            config,
            frames,
            pt: PtManager::new(PtRoute::Direct),
            kernel_root,
            creds: SlabCache::new(ObjectKind::Cred),
            dentries: SlabCache::new(ObjectKind::Dentry),
            tasks: FxHashMap::default(),
            current: Pid(1),
            next_pid: 1,
            next_asid: 1,
            dcache: FxHashMap::from_iter([("/".to_string(), ROOT_NODE)]),
            path_nodes: vec![PathNode::default()],
            dentry_records: Vec::new(),
            free_records: Vec::new(),
            walk: WalkBuffers::default(),
            page_cache: Vec::new(),
            page_cache_cursor: 0,
            pipe_buffer: PhysAddr::new(0),
            lru_tick: 0,
            next_mmap_va: 0x2000_0000,
            mmap_count: 0,
            compose: ComposeState::new(),
            stats: KernelStats::default(),
            locked: false,
        };

        // Warm page-cache pool for demand faults (physically resident,
        // like file pages already in the page cache).
        kernel.page_cache = kernel.frames.alloc_many(tuning::PAGE_CACHE_FRAMES)?;
        kernel.pipe_buffer = kernel.frames.alloc()?;

        // Root filesystem skeleton.
        for path in ["/", "/bin", "/etc", "/tmp", "/usr", "/bin/sh"] {
            kernel.create_dentry_at(m, hyp, path)?;
        }

        // Init task.
        let init = kernel.spawn_task(m, hyp)?;
        kernel.current = init;
        let task = &kernel.tasks[&init];
        let ttbr0 = task.user_root.raw() | (task.asid as u64) << 48;
        m.write_sysreg(SysReg::TTBR0_EL1, ttbr0, hyp)?;

        // Hand over to Hypersec.
        if config.pt_route == PtRoute::Hypercall {
            let user_root = kernel.tasks[&init].user_root;
            let (nr, args) = Hypercall::Lock {
                kernel_root,
                user_root,
            }
            .encode();
            m.hvc(nr, args, hyp)?;
            kernel.pt.set_route(PtRoute::Hypercall);
            kernel.locked = true;
        }
        Ok(kernel)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The kernel (TTBR1) translation root.
    pub fn kernel_root(&self) -> PhysAddr {
        self.kernel_root
    }

    /// Highest physical frame address the allocator has handed out — the
    /// region a hypervisor should treat as warm after boot.
    pub fn frames_watermark(&self) -> PhysAddr {
        self.frames.fresh_watermark()
    }

    /// Allocates one raw frame from the kernel pool (scratch memory for
    /// attack simulations and tests).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutOfFrames`] when the pool is exhausted.
    pub fn alloc_raw_frame(&mut self) -> Result<PhysAddr, KernelError> {
        Ok(self.frames.alloc()?)
    }

    /// The currently running task.
    pub fn current(&self) -> Pid {
        self.current
    }

    /// The task table entry for `pid`.
    pub fn task(&self, pid: Pid) -> Option<&Task> {
        self.tasks.get(&pid)
    }

    /// Live pids, sorted.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.tasks.keys().copied().collect();
        v.sort();
        v
    }

    /// Physical roots of every live user address space, in pid order —
    /// the kernel-known ground truth a static auditor compares the
    /// active `TTBR0_EL1` against.
    pub fn user_roots(&self) -> Vec<PhysAddr> {
        self.pids()
            .into_iter()
            .filter_map(|pid| self.tasks.get(&pid))
            .map(|t| t.user_root)
            .collect()
    }

    /// Frames currently in the allocator's free list (see
    /// [`crate::pgalloc::FrameAllocator::free_frames`]).
    pub fn free_frames(&self) -> &[PhysAddr] {
        self.frames.free_frames()
    }

    /// The dentry slab (for inspection, e.g. by page-granularity
    /// baselines that must know the backing pages).
    pub fn dentry_slab(&self) -> &SlabCache {
        &self.dentries
    }

    /// The cred slab.
    pub fn cred_slab(&self) -> &SlabCache {
        &self.creds
    }

    /// Physical address of `path`'s dentry, if cached.
    pub fn dentry_of(&self, path: &str) -> Option<PhysAddr> {
        let node = self.path_nodes[*self.dcache.get(path)?];
        node.dentry.map(|r| self.dentry_records[r].pa)
    }

    /// Enables or replaces the security hooks at runtime (used by the
    /// monitoring experiments after boot). Prefer
    /// [`Kernel::arm_monitor_hooks`], which also registers the objects
    /// that already exist.
    pub fn set_monitor_hooks(&mut self, hooks: Option<MonitorHooks>) {
        self.config.monitor_hooks = hooks;
    }

    /// Arms the security hooks and sweeps every live `cred` and `dentry`
    /// into the monitor — the paper's solution protects the objects that
    /// exist when it starts, not only future allocations.
    ///
    /// # Errors
    ///
    /// Propagates hypercall denials.
    pub fn arm_monitor_hooks(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        hooks: MonitorHooks,
    ) -> Result<(), KernelError> {
        self.config.monitor_hooks = Some(hooks);
        // One registration per cached key: a dentry cached under two
        // spellings registers twice.
        let mut dentries: Vec<PhysAddr> = (self.path_nodes.iter())
            .filter_map(|n| n.dentry)
            .map(|r| self.dentry_records[r].pa)
            .collect();
        dentries.sort();
        for d in dentries {
            self.hook_register_object(m, hyp, ObjectKind::Dentry, d, true)?;
        }
        let mut creds: Vec<PhysAddr> = self.tasks.values().map(|t| t.cred).collect();
        creds.sort();
        creds.dedup();
        for c in creds {
            self.hook_register_object(m, hyp, ObjectKind::Cred, c, true)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Composed multi-domain systems (`hypernel-compose` lowering targets)
    // ------------------------------------------------------------------

    /// Compose lowering counters.
    pub fn compose_stats(&self) -> ComposeStats {
        self.compose.stats
    }

    /// Resolves a composed protection domain by name.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchDomain`] for unknown names.
    pub fn compose_domain(&self, name: &str) -> Result<DomainInfo, KernelError> {
        self.compose
            .domain(name)
            .cloned()
            .ok_or_else(|| KernelError::NoSuchDomain(name.to_string()))
    }

    /// Resolves a composed channel by name.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchChannel`] for unknown names.
    pub fn compose_channel(&self, name: &str) -> Result<ChannelInfo, KernelError> {
        self.compose
            .channel(name)
            .cloned()
            .ok_or_else(|| KernelError::NoSuchChannel(name.to_string()))
    }

    /// Resolves a composed shared region by name.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchRegion`] for unknown names.
    pub fn compose_region(&self, name: &str) -> Result<RegionInfo, KernelError> {
        self.compose
            .region(name)
            .cloned()
            .ok_or_else(|| KernelError::NoSuchRegion(name.to_string()))
    }

    /// Spawns the tasks backing one protection domain and records it in
    /// the registry. Returns the domain's principal pid.
    ///
    /// # Errors
    ///
    /// Propagates frame exhaustion and hypercall denials.
    pub fn compose_spawn_domain(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        name: &str,
        role: DomainRole,
        priority: u64,
        tasks: u64,
    ) -> Result<Pid, KernelError> {
        let mut pids = Vec::new();
        for _ in 0..tasks.max(1) {
            pids.push(self.spawn_task(m, hyp)?);
        }
        self.compose.stats.domain_tasks += pids.len() as u64;
        match role {
            DomainRole::Server => self.compose.stats.server_domains += 1,
            DomainRole::Client => self.compose.stats.client_domains += 1,
        }
        let principal = pids[0];
        self.compose.domains.push((
            name.to_string(),
            DomainInfo {
                pids,
                role,
                priority,
            },
        ));
        Ok(principal)
    }

    /// Creates a channel between two domains: claims the next slot in
    /// the shared channel table page and populates its header — the one
    /// legitimate write of each watched word.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchDomain`] for dangling endpoints and
    /// [`KernelError::ComposeLimit`] past [`MAX_CHANNELS`].
    pub fn compose_create_channel(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        name: &str,
        from: &str,
        to: &str,
        capacity: u64,
    ) -> Result<(), KernelError> {
        let from_pid = self.compose_domain(from)?.pid();
        let to_pid = self.compose_domain(to)?.pid();
        let table = match self.compose.channel_table {
            Some(table) => table,
            None => {
                let table = self.frames.alloc()?;
                self.prep_frame(m, hyp, table)?;
                self.compose.channel_table = Some(table);
                table
            }
        };
        let slot = self.compose.channels.len();
        if slot >= MAX_CHANNELS {
            return Err(KernelError::ComposeLimit(format!(
                "at most {MAX_CHANNELS} channels per system"
            )));
        }
        let info = ChannelInfo {
            table,
            slot,
            from: from_pid,
            to: to_pid,
        };
        let header = info.header_pa();
        let fields = [from_pid.0, to_pid.0, capacity.max(1)];
        self.kwrite_block(m, hyp, layout::kva(header), 3, |j| fields[j as usize])?;
        self.compose.channels.push((name.to_string(), info));
        self.compose.stats.channels_created += 1;
        Ok(())
    }

    /// Allocates a shared memory region and maps it at one virtual
    /// address into the owner and every sharer. The owner stamps the
    /// first word of each page before the watch set arms — the baseline
    /// a write-once monitor learns. Returns the mapping base.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchDomain`] for a dangling owner or
    /// sharer; propagates frame exhaustion and mapping denials.
    #[allow(clippy::too_many_arguments)] // mirrors the declaration 1:1
    pub fn compose_map_region(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        name: &str,
        owner: &str,
        sharers: &[String],
        pages: u64,
        protect: bool,
        va: Option<u64>,
    ) -> Result<VirtAddr, KernelError> {
        let owner_pid = self.compose_domain(owner)?.pid();
        let mut mapped = vec![owner_pid];
        for sharer in sharers {
            mapped.push(self.compose_domain(sharer)?.pid());
        }
        let pages = pages.max(1);
        let base = match va {
            Some(v) => VirtAddr::new(v),
            None => {
                let v = self.compose.next_region_va;
                self.compose.next_region_va += pages * PAGE_SIZE;
                VirtAddr::new(v)
            }
        };
        let mut frames = Vec::new();
        for i in 0..pages {
            let frame = self.frames.alloc()?;
            self.prep_frame(m, hyp, frame)?;
            self.kwrite(m, hyp, layout::kva(frame), compose_stamp(name, i))?;
            frames.push(frame);
        }
        for pid in &mapped {
            let mut task = self
                .tasks
                .remove(pid)
                .ok_or(KernelError::NoSuchTask(*pid))?;
            for (i, frame) in frames.iter().enumerate() {
                let page_va = base.add(i as u64 * PAGE_SIZE);
                self.map_user_page(m, hyp, &mut task, page_va, *frame, *pid == owner_pid)?;
                self.compose.stats.shared_mappings += 1;
            }
            self.tasks.insert(*pid, task);
        }
        self.compose.stats.regions_mapped += 1;
        if protect {
            self.compose.stats.protected_regions += 1;
        }
        self.compose.regions.push((
            name.to_string(),
            RegionInfo {
                frames,
                va: base,
                protect,
                owner: owner_pid,
                sharers: mapped[1..].to_vec(),
            },
        ));
        Ok(base)
    }

    /// Sends one legitimate message over a channel: bumps the slot's
    /// sequence word and stores the payload. Both words live in the
    /// table page's data area, outside every derived watch span, so
    /// benign traffic never raises monitor events.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchChannel`] for unknown names.
    pub fn compose_channel_send(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        name: &str,
        payload: u64,
    ) -> Result<(), KernelError> {
        let info = self.compose_channel(name)?;
        m.charge(tuning::PIPE_COMPUTE);
        let data = info.data_pa();
        let seq = self.kread(m, hyp, layout::kva(data))?;
        let fields = [seq + 1, payload];
        self.kwrite_block(m, hyp, layout::kva(data), 2, |j| fields[j as usize])?;
        self.compose.stats.channel_messages += 1;
        Ok(())
    }

    /// Derives the composed system's watch set — every channel header
    /// and every page of every protected region — and registers it with
    /// the security layer in one deterministic batch: spans are sorted
    /// by physical address and physically adjacent spans coalesce into
    /// a single registration (never across a page boundary: monitored
    /// regions must not straddle pages). No hand-maintained watch list
    /// exists anywhere; this derivation is the only source. Returns the
    /// number of registration hypercalls issued (always 0 when the
    /// security hooks are off — baseline modes run the same composition
    /// unwatched).
    ///
    /// # Errors
    ///
    /// Propagates hypercall denials.
    pub fn compose_arm_watch(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
    ) -> Result<u64, KernelError> {
        let mut spans: Vec<(PhysAddr, u64)> = Vec::new();
        for (_, channel) in &self.compose.channels {
            spans.push((channel.header_pa(), CHANNEL_HEADER_BYTES));
        }
        for (_, region) in &self.compose.regions {
            if region.protect {
                for frame in &region.frames {
                    spans.push((*frame, PAGE_SIZE));
                }
            }
        }
        self.compose.stats.watch_spans_derived = spans.len() as u64;
        if self.config.monitor_hooks.is_none() || spans.is_empty() {
            return Ok(0);
        }
        spans.sort();
        let mut merged: Vec<(PhysAddr, u64)> = Vec::new();
        for (pa, len) in spans {
            if let Some(last) = merged.last_mut() {
                let contiguous = last.0.raw() + last.1 == pa.raw();
                let same_page = last.0.page_base() == pa.add(len - 1).page_base();
                if contiguous && same_page {
                    last.1 += len;
                    self.compose.stats.watch_spans_merged += 1;
                    continue;
                }
            }
            merged.push((pa, len));
        }
        for (pa, len) in &merged {
            let (nr, args) = Hypercall::MonitorRegister {
                sid: crate::abi::sid::COMPOSE_MONITOR,
                base: layout::kva(*pa),
                len: *len,
            }
            .encode();
            self.stats.monitor_registrations += 1;
            self.compose.stats.watch_calls_issued += 1;
            m.hvc(nr, args, hyp)?;
        }
        Ok(merged.len() as u64)
    }

    // ------------------------------------------------------------------
    // Low-level kernel memory access
    // ------------------------------------------------------------------

    /// Kernel data write with the paper's granularity-gap fallback: if the
    /// write lands in a region the protection scheme had to over-protect
    /// (e.g. a 2 MiB section containing page tables), the permission fault
    /// is resolved by asking Hypersec to emulate the write.
    fn kwrite(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        va: VirtAddr,
        value: u64,
    ) -> Result<(), KernelError> {
        match m.write_u64(va, value, hyp) {
            Ok(()) => Ok(()),
            Err(Exception::DataAbort {
                permission: true, ..
            }) if self.locked => {
                m.charge_fault();
                self.stats.emulated_writes += 1;
                let (nr, args) = Hypercall::EmulateWrite { va, value }.encode();
                m.hvc(nr, args, hyp)?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn kread(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        va: VirtAddr,
    ) -> Result<u64, KernelError> {
        Ok(m.read_u64(va, hyp)?)
    }

    /// Block variant of [`Kernel::kwrite`]: writes `words` consecutive
    /// words starting at `va`, word `j` taking `value_of(j)`. Model-
    /// equivalent to one `kwrite` per word — including the granularity-
    /// gap emulation fallback, applied per faulting word.
    fn kwrite_block(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        va: VirtAddr,
        words: u64,
        mut value_of: impl FnMut(u64) -> u64,
    ) -> Result<(), KernelError> {
        let mut done = 0u64;
        while done < words {
            match m.write_block(va.add(done * 8), words - done, hyp, |j| value_of(done + j)) {
                Ok(()) => return Ok(()),
                Err(BlockFault {
                    completed,
                    exception,
                }) => {
                    done += completed;
                    // The faulting word's machine attempt already
                    // happened inside write_block; resolve it the way
                    // kwrite would, without replaying the access.
                    match exception {
                        Exception::DataAbort {
                            permission: true, ..
                        } if self.locked => {
                            m.charge_fault();
                            self.stats.emulated_writes += 1;
                            let (nr, args) = Hypercall::EmulateWrite {
                                va: va.add(done * 8),
                                value: value_of(done),
                            }
                            .encode();
                            m.hvc(nr, args, hyp)?;
                            done += 1;
                        }
                        e => return Err(e.into()),
                    }
                }
            }
        }
        Ok(())
    }

    /// Block variant of [`Kernel::kread`]: reads `words` consecutive
    /// words starting at `va`, returning the last one.
    fn kread_block(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        va: VirtAddr,
        words: u64,
    ) -> Result<u64, KernelError> {
        m.read_block(va, words, hyp).map_err(|f| f.exception.into())
    }

    /// Streams `words` sequential writes through the page-cache copy
    /// pattern: stream word `i` goes to `base + (i % 512) * 8` (the VA
    /// wraps modulo one page) with value `first_value + i`. Splits the
    /// stream into contiguous page runs for [`Kernel::kwrite_block`];
    /// model-equivalent to one `kwrite` per word.
    fn kcopy_to_page(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        base: PhysAddr,
        words: u64,
        first_value: u64,
    ) -> Result<(), KernelError> {
        const WORDS_PER_PAGE: u64 = PAGE_SIZE / 8;
        let mut i = 0u64;
        while i < words {
            let off = i % WORDS_PER_PAGE;
            let run = (WORDS_PER_PAGE - off).min(words - i);
            let start = i;
            self.kwrite_block(m, hyp, layout::kva(base.add(off * 8)), run, |j| {
                first_value + start + j
            })?;
            i += run;
        }
        Ok(())
    }

    /// Read counterpart of [`Kernel::kcopy_to_page`].
    fn kread_from_page(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        base: PhysAddr,
        words: u64,
    ) -> Result<(), KernelError> {
        const WORDS_PER_PAGE: u64 = PAGE_SIZE / 8;
        let mut i = 0u64;
        while i < words {
            let off = i % WORDS_PER_PAGE;
            let run = (WORDS_PER_PAGE - off).min(words - i);
            self.kread_block(m, hyp, layout::kva(base.add(off * 8)), run)?;
            i += run;
        }
        Ok(())
    }

    /// Prepares a freshly allocated frame: zeroes it and performs one
    /// translated store so lazily populated stage-2 tables (KVM) take
    /// their first-touch fault here, as real guests do.
    fn prep_frame(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        frame: PhysAddr,
    ) -> Result<(), KernelError> {
        m.charge(tuning::CLEAR_PAGE_COMPUTE);
        m.tag_page(frame, PageTag::KernelData);
        m.debug_zero_page(frame);
        self.kwrite(m, hyp, layout::kva(frame), 0)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // cred / dentry object helpers
    // ------------------------------------------------------------------

    /// Clears an object slot (kzalloc). Modeled as a short store burst;
    /// the clearing itself precedes monitoring, so it is not bus-visible.
    fn zero_object(&mut self, m: &mut Machine, kind: ObjectKind, base: PhysAddr) {
        m.charge(m.cost().cache_hit * kind.words());
        for w in 0..kind.words() {
            m.debug_write_phys(base.add(w * 8), 0);
        }
    }

    fn cred_va(cred: PhysAddr, field: CredField) -> VirtAddr {
        layout::kva(cred.add(field.byte_offset()))
    }

    fn dentry_va(dentry: PhysAddr, field: DentryField) -> VirtAddr {
        layout::kva(dentry.add(field.byte_offset()))
    }

    fn cred_write(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        cred: PhysAddr,
        field: CredField,
        value: u64,
    ) -> Result<(), KernelError> {
        self.kwrite(m, hyp, Self::cred_va(cred, field), value)
    }

    /// Writes `field` of the dentry whose record is `dentry`.
    fn dentry_write(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        dentry: usize,
        field: DentryField,
        value: u64,
    ) -> Result<(), KernelError> {
        let va = Self::dentry_va(self.dentry_records[dentry].pa, field);
        self.kwrite(m, hyp, va, value)
    }

    fn dentry_read(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        dentry: usize,
        field: DentryField,
    ) -> Result<u64, KernelError> {
        let va = Self::dentry_va(self.dentry_records[dentry].pa, field);
        self.kread(m, hyp, va)
    }

    /// Issues the monitor-registration hypercalls for one object,
    /// according to the configured policy.
    fn hook_register_object(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        kind: ObjectKind,
        base: PhysAddr,
        register: bool,
    ) -> Result<(), KernelError> {
        let Some(hooks) = self.config.monitor_hooks else {
            return Ok(());
        };
        let sid = match kind {
            ObjectKind::Cred => crate::abi::sid::CRED_MONITOR,
            ObjectKind::Dentry => crate::abi::sid::DENTRY_MONITOR,
        };
        let ranges = match hooks.mode {
            MonitorMode::SensitiveFields => kind.sensitive_ranges(),
            MonitorMode::WholeObject => vec![(0, kind.words())],
        };
        for (off_words, len_words) in ranges {
            let va = layout::kva(base.add(off_words * 8));
            let len = len_words * 8;
            let call = if register {
                Hypercall::MonitorRegister { sid, base: va, len }
            } else {
                Hypercall::MonitorUnregister { sid, base: va, len }
            };
            self.stats.monitor_registrations += 1;
            let (nr, args) = call.encode();
            m.hvc(nr, args, hyp)?;
        }
        Ok(())
    }

    /// Allocates and initializes a new `cred` for uid/gid 1000, wiring
    /// the security hook: register first (the fields become watched),
    /// then populate — field population is the legitimate-write window
    /// the security application learns as the baseline.
    fn cred_alloc(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        uid: u64,
    ) -> Result<PhysAddr, KernelError> {
        let cred = self.creds.alloc(&mut self.frames)?;
        m.tag_page(cred.page_base(), PageTag::KernelData);
        // kzalloc semantics: the slot is cleared before use (recycled
        // slots hold the previous occupant). Then the hook fires, before
        // any field is written — both monitoring policies observe the
        // full construction.
        self.zero_object(m, ObjectKind::Cred, cred);
        self.hook_register_object(m, hyp, ObjectKind::Cred, cred, true)?;
        self.cred_write(m, hyp, cred, CredField::Usage, 1)?;
        for field in [
            CredField::Uid,
            CredField::Suid,
            CredField::Euid,
            CredField::Fsuid,
        ] {
            self.cred_write(m, hyp, cred, field, uid)?;
        }
        for field in [
            CredField::Gid,
            CredField::Sgid,
            CredField::Egid,
            CredField::Fsgid,
        ] {
            self.cred_write(m, hyp, cred, field, uid)?;
        }
        self.cred_write(m, hyp, cred, CredField::Securebits, 0)?;
        for field in [
            CredField::CapInheritable,
            CredField::CapPermitted,
            CredField::CapEffective,
            CredField::CapBset,
        ] {
            self.cred_write(m, hyp, cred, field, 0)?;
        }
        Ok(cred)
    }

    fn cred_get(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        cred: PhysAddr,
    ) -> Result<(), KernelError> {
        let usage = self.kread(m, hyp, Self::cred_va(cred, CredField::Usage))?;
        self.cred_write(m, hyp, cred, CredField::Usage, usage + 1)
    }

    /// Drops a cred reference; frees the slab slot at zero.
    fn cred_put(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        cred: PhysAddr,
    ) -> Result<(), KernelError> {
        let usage = self.kread(m, hyp, Self::cred_va(cred, CredField::Usage))?;
        self.cred_write(m, hyp, cred, CredField::Usage, usage - 1)?;
        if usage - 1 == 0 {
            self.hook_register_object(m, hyp, ObjectKind::Cred, cred, false)?;
            self.creds.free(cred);
        }
        Ok(())
    }

    /// `d_alloc` + `d_instantiate`: creates (and caches) the dentry for
    /// `path`. The hook registers at allocation; the inode fields are then
    /// instantiated — legitimate sensitive writes the security solution
    /// observes and verifies (paper §7.2).
    fn create_dentry_at(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
    ) -> Result<PhysAddr, KernelError> {
        if let Some(d) = self.dentry_of(path) {
            return Ok(d);
        }
        let dentry = self.dentries.alloc(&mut self.frames)?;
        let record = self.free_records.pop().unwrap_or_else(|| {
            self.dentry_records.push(DentryRecord {
                pa: dentry,
                heat: 0,
                data: None,
            });
            self.dentry_records.len() - 1
        });
        debug_assert_eq!(self.dentry_records[record].pa, dentry, "slot and record");
        m.tag_page(dentry.page_base(), PageTag::KernelData);
        self.zero_object(m, ObjectKind::Dentry, dentry);
        self.hook_register_object(m, hyp, ObjectKind::Dentry, dentry, true)?;
        let parent = parent_path(path)
            .and_then(|p| self.dentry_of(p))
            .unwrap_or(dentry);
        // d_alloc + d_instantiate as one dense stream over the object,
        // fields landing in offset order. Watched sensitive words still
        // trap and are emulated individually when locked — kwrite_block
        // resolves each faulting word exactly like a lone kwrite.
        let name_hash = crate::fnv1a(path.as_bytes());
        let inode = 0x1000 + dentry.raw();
        let name_len = path.len() as u64;
        let parent_ptr = parent.raw();
        self.kwrite_block(
            m,
            hyp,
            layout::kva(dentry),
            DentryField::WORDS,
            |j| match () {
                _ if j == DentryField::Count.offset() => 1,
                _ if j == DentryField::Flags.offset() => 1,
                _ if j == DentryField::NameHash.offset() => name_hash,
                _ if j == DentryField::NameLen.offset() => name_len,
                _ if j == DentryField::Parent.offset() => parent_ptr,
                _ if j == DentryField::Inode.offset() => inode,
                _ if j == DentryField::Op.offset() => 0xD0,
                _ if j == DentryField::Sb.offset() => 0x5B,
                _ => 0,
            },
        )?;
        self.cache(path, record);
        Ok(dentry)
    }

    /// Caches the dentry record `dentry` under the key `path`, making
    /// the key's node if missing. A canonical path's missing prefixes
    /// get nodes first, root-first, each linked to the one before it.
    fn cache(&mut self, path: &str, dentry: usize) {
        let node = match self.dcache.get(path) {
            Some(&node) => node,
            None => {
                let mut parent = None;
                if Self::path_is_canonical(path) {
                    for (end, _) in path.match_indices('/').skip(1) {
                        parent = Some(match self.dcache.get(&path[..end]) {
                            Some(&node) => node,
                            None => self.push_path_node(&path[..end], parent),
                        });
                    }
                }
                self.push_path_node(path, parent)
            }
        };
        self.path_nodes[node].dentry = Some(dentry);
    }

    fn push_path_node(&mut self, path: &str, parent: Option<usize>) -> usize {
        let node = self.path_nodes.len();
        self.path_nodes.push(PathNode {
            dentry: None,
            parent,
        });
        self.dcache.insert(path.to_string(), node);
        node
    }

    /// Drops the dentry cached under the key `path`, leaving its node.
    fn uncache(&mut self, path: &str) {
        if let Some(&node) = self.dcache.get(path) {
            self.path_nodes[node].dentry = None;
        }
    }

    /// Whether a path-walk reference that brings a dentry's heat to
    /// `heat` takes the ref-walk (write) path. Fresh dentries are
    /// ref-walked; once hot, lookups go through RCU-walk, which writes
    /// nothing — this skew is what drives the per-benchmark Table 2
    /// churn (cold dcache workloads like untar write constantly, hot
    /// ones like apache rarely).
    fn ref_walk(heat: u64) -> bool {
        heat <= tuning::REF_WALK_WARMUP || heat.is_multiple_of(tuning::REF_WALK_PERIOD)
    }

    /// `dget`: reference a dentry during a path walk (lockref bump plus
    /// periodic LRU rotation — the bookkeeping churn Table 2 measures).
    fn dget(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        dentry: usize,
    ) -> Result<(), KernelError> {
        let record = &mut self.dentry_records[dentry];
        record.heat += 1;
        if !Self::ref_walk(record.heat) {
            m.charge(8); // RCU-walk: seqcount checks only
            return Ok(());
        }
        let count = self.dentry_read(m, hyp, dentry, DentryField::Count)?;
        self.dentry_write(m, hyp, dentry, DentryField::Count, count + 1)?;
        self.lru_tick += 1;
        if self.lru_tick.is_multiple_of(tuning::LRU_ROTATE_PERIOD) {
            self.dentry_write(m, hyp, dentry, DentryField::LruPrev, self.lru_tick)?;
            self.dentry_write(m, hyp, dentry, DentryField::LruNext, self.lru_tick + 1)?;
        }
        Ok(())
    }

    fn dput(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        dentry: usize,
    ) -> Result<(), KernelError> {
        // Mirror of dget: only ref-walked references drop a count.
        if !Self::ref_walk(self.dentry_records[dentry].heat) {
            m.charge(8);
            return Ok(());
        }
        let count = self.dentry_read(m, hyp, dentry, DentryField::Count)?;
        self.dentry_write(m, hyp, dentry, DentryField::Count, count.saturating_sub(1))
    }

    /// True when every resolved prefix of `path` is literally a prefix
    /// slice of `path` itself ("/a/b/c" — absolute, no empty components,
    /// no trailing slash): the spelling `lookup` probes the dcache with.
    fn path_is_canonical(path: &str) -> bool {
        path.len() > 1 && path.starts_with('/') && !path.ends_with('/') && !path.contains("//")
    }

    /// Resolves `path`, touching every component like ref-walk does, and
    /// returns its dentry's record.
    ///
    /// The dcache is probed once, for the canonical spelling of `path`
    /// (`//tmp/x/` is spelled `/tmp/x`). The walk follows parent links
    /// from that node up and then runs each component's step root-first:
    /// the path-component compute, the hash-chain read, the lockref bump
    /// on the component and the drop on the one before it. It fails at
    /// the first component with no cached dentry, after charging the
    /// steps before it and its own compute. The spelling has no node
    /// only when a component is missing, so only that error path probes
    /// shorter prefixes, for the longest that has one.
    fn lookup(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
    ) -> Result<usize, KernelError> {
        let root = self.path_nodes[ROOT_NODE]
            .dentry
            .ok_or_else(|| KernelError::NoSuchPath("/".into()))?;
        let mut walk = std::mem::take(&mut self.walk);
        let found = self.walk_path(m, hyp, path, root, &mut walk);
        walk.spelling.clear();
        walk.chain.clear();
        self.walk = walk;
        found
    }

    fn walk_path(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
        root: usize,
        walk: &mut WalkBuffers,
    ) -> Result<usize, KernelError> {
        let spelling = if Self::path_is_canonical(path) {
            path
        } else {
            for comp in path.split('/').filter(|c| !c.is_empty()) {
                walk.spelling.push('/');
                walk.spelling.push_str(comp);
            }
            walk.spelling.as_str()
        };
        let mut end = spelling.len();
        let mut node = None;
        while end > 0 {
            node = self.dcache.get(&spelling[..end]).copied();
            if node.is_some() {
                break;
            }
            end = spelling[..end].rfind('/').unwrap_or(0);
        }
        while let Some(n) = node {
            walk.chain.push(n);
            node = self.path_nodes[n].parent;
        }
        let missing = || KernelError::NoSuchPath(path.to_string());
        let mut last = root;
        for &n in walk.chain.iter().rev() {
            m.charge(tuning::PATH_COMPONENT_COMPUTE);
            let dentry = self.path_nodes[n].dentry.ok_or_else(missing)?;
            self.dentry_read(m, hyp, dentry, DentryField::NameHash)?;
            self.dget(m, hyp, dentry)?;
            self.dput(m, hyp, last)?;
            last = dentry;
        }
        if end < spelling.len() {
            m.charge(tuning::PATH_COMPONENT_COMPUTE);
            return Err(missing());
        }
        Ok(last)
    }

    // ------------------------------------------------------------------
    // Task management
    // ------------------------------------------------------------------

    fn spawn_task(&mut self, m: &mut Machine, hyp: &mut dyn Hyp) -> Result<Pid, KernelError> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let asid = self.next_asid;
        self.next_asid = self.next_asid.wrapping_add(1).max(1);

        let user_root = self.pt.alloc_table(m, hyp, &mut self.frames, true)?;
        let mut task = Task {
            pid,
            asid,
            user_root,
            cred: PhysAddr::new(0),
            user_pages: Vec::new(),
            table_pages: Vec::new(),
            sigactions: PhysAddr::new(0),
            kernel_stack: Vec::new(),
            vmas: Vec::new(),
            demand_pages: Vec::new(),
        };

        // Image pages come from the page cache (binary file pages,
        // shared and warm); the stack is fresh anonymous memory.
        task.vmas.push(Vma {
            base: VirtAddr::new(layout::USER_IMAGE_BASE),
            len: tuning::USER_IMAGE_PAGES as u64 * PAGE_SIZE,
        });
        for i in 0..tuning::USER_IMAGE_PAGES {
            let frame = self.page_cache_frame();
            let va = VirtAddr::new(layout::USER_IMAGE_BASE + i as u64 * PAGE_SIZE);
            self.map_user_page(m, hyp, &mut task, va, frame, false)?;
        }
        let stack = self.frames.alloc()?;
        self.prep_frame(m, hyp, stack)?;
        self.map_user_page(
            m,
            hyp,
            &mut task,
            VirtAddr::new(layout::USER_STACK_TOP),
            stack,
            true,
        )?;

        // Kernel stack + signal table (fresh anonymous frames).
        for _ in 0..2 {
            let f = self.frames.alloc()?;
            self.prep_frame(m, hyp, f)?;
            task.kernel_stack.push(f);
        }
        let sig = self.frames.alloc()?;
        self.prep_frame(m, hyp, sig)?;
        task.sigactions = sig;

        task.cred = self.cred_alloc(m, hyp, 1000)?;
        self.tasks.insert(pid, task);
        Ok(pid)
    }

    fn map_user_page(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        task: &mut Task,
        va: VirtAddr,
        frame: PhysAddr,
        owned: bool,
    ) -> Result<(), KernelError> {
        let new_tables = self.pt.map_page(
            m,
            hyp,
            &mut self.frames,
            task.user_root,
            va,
            frame,
            PagePerms::USER_DATA,
        )?;
        for table in &new_tables {
            m.tag_page(*table, PageTag::PageTable);
        }
        m.tag_page(frame, PageTag::UserData);
        task.table_pages.extend(new_tables);
        task.user_pages.push((va.page_base(), frame, owned));
        Ok(())
    }

    /// Context switch to `to` (scheduler + `TTBR0` install, which traps to
    /// Hypersec when TVM is armed).
    ///
    /// # Errors
    ///
    /// Fails if `to` does not exist or Hypersec rejects the root.
    pub fn switch_to(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        to: Pid,
    ) -> Result<(), KernelError> {
        let task = self.tasks.get(&to).ok_or(KernelError::NoSuchTask(to))?;
        let ttbr0 = task.user_root.raw() | (task.asid as u64) << 48;
        m.charge(tuning::SCHED_COMPUTE);
        m.write_sysreg(SysReg::TTBR0_EL1, ttbr0, hyp)?;
        self.current = to;
        self.stats.context_switches += 1;
        Ok(())
    }

    /// Polls the interrupt controller and services pending lines; MBM
    /// interrupts are forwarded to Hypersec via hypercall when the kernel
    /// is instrumented (paper §6.2).
    ///
    /// Returns the number of interrupts handled.
    ///
    /// # Errors
    ///
    /// Propagates hypercall denials.
    pub fn poll_irqs(&mut self, m: &mut Machine, hyp: &mut dyn Hyp) -> Result<u64, KernelError> {
        let mut handled = 0;
        loop {
            // Step devices on every iteration, not just once up front:
            // servicing an interrupt can drain the MBM ring while the
            // snoop FIFO still holds captures, and those only become new
            // interrupts after another pipeline step. A single pre-loop
            // step would return with IRQs still pending.
            m.step_devices();
            let Some(line) = m.irq_mut().ack_next() else {
                break;
            };
            let mbm = line == IrqLine::MBM;
            if mbm {
                m.emit_begin(SpanKind::MbmIrqService, u64::from(line.0));
            }
            m.charge_irq();
            handled += 1;
            let outcome = if mbm && self.config.forward_irq {
                self.stats.irqs_forwarded += 1;
                let (nr, args) = Hypercall::IrqNotify.encode();
                m.hvc(nr, args, hyp).map(|_| ())
            } else {
                Ok(())
            };
            if mbm {
                m.emit_end(SpanKind::MbmIrqService, u64::from(outcome.is_err()));
            }
            outcome?;
        }
        Ok(handled)
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    fn syscall_prologue(&mut self, m: &mut Machine) {
        self.stats.syscalls += 1;
        m.charge_syscall();
        m.charge(tuning::SYSCALL_COMPUTE);
        m.emit_begin(SpanKind::Syscall, self.stats.syscalls);
    }

    /// Closes the span opened by [`Kernel::syscall_prologue`]. Syscalls
    /// that abort with an error leave their span open; the telemetry
    /// recorder surfaces those as open spans rather than latencies.
    fn syscall_epilogue(m: &mut Machine) {
        m.emit_end(SpanKind::Syscall, 0);
    }

    /// `getpid` — the null syscall.
    pub fn sys_getpid(&mut self, m: &mut Machine) -> Pid {
        self.syscall_prologue(m);
        Self::syscall_epilogue(m);
        self.current
    }

    /// `stat(path)` — resolve and fill a stat buffer on the user stack.
    ///
    /// # Errors
    ///
    /// Fails when the path does not exist.
    pub fn sys_stat(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::STAT_COMPUTE);
        let dentry = self.lookup(m, hyp, path)?;
        let inode = self.dentry_read(m, hyp, dentry, DentryField::Inode)?;
        // Fill the user's stat buffer (8 words on the stack page).
        let sp = VirtAddr::new(layout::USER_STACK_TOP);
        m.write_block(sp, 8, hyp, |i| inode + i)
            .map_err(|f| f.exception)?;
        self.dput(m, hyp, dentry)?;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `sigaction` — install a handler for `sig`.
    ///
    /// # Errors
    ///
    /// Fails only on machine exceptions.
    pub fn sys_signal_install(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        sig: u64,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::SIGNAL_INSTALL_COMPUTE);
        let task = self.tasks.get(&self.current).expect("current task exists");
        let base = task.sigactions;
        let slot = layout::kva(base.add((sig % 64) * 16));
        let fields = [SIGNAL_HANDLER_ADDR, sig];
        self.kwrite_block(m, hyp, slot, 2, |j| fields[j as usize])?;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// Deliver a signal to the current task and return from the handler
    /// (the `lat_sig catch` path).
    ///
    /// # Errors
    ///
    /// Fails only on machine exceptions.
    pub fn sys_signal_deliver(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        sig: u64,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::SIGNAL_DELIVER_COMPUTE);
        let task = self.tasks.get(&self.current).expect("current task exists");
        let base = task.sigactions;
        // Read the handler, push a signal frame onto the user stack,
        // "run" the handler, then sigreturn (second kernel entry).
        self.kread(m, hyp, layout::kva(base.add((sig % 64) * 16)))?;
        let sp = VirtAddr::new(layout::USER_STACK_TOP);
        m.write_block(sp, 16, hyp, |i| i).map_err(|f| f.exception)?;
        m.charge_syscall(); // sigreturn
        m.read_block(sp, 16, hyp).map_err(|f| f.exception)?;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `fork` — clone the current task.
    ///
    /// # Errors
    ///
    /// Fails on memory exhaustion or Hypersec denial.
    pub fn sys_fork(&mut self, m: &mut Machine, hyp: &mut dyn Hyp) -> Result<Pid, KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::FORK_COMPUTE);
        self.stats.forks += 1;

        let parent = self.current;
        let (parent_pages, parent_cred) = {
            let t = self
                .tasks
                .get(&parent)
                .ok_or(KernelError::NoSuchTask(parent))?;
            (t.user_pages.clone(), t.cred)
        };

        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let asid = self.next_asid;
        self.next_asid = self.next_asid.wrapping_add(1).max(1);
        let user_root = self.pt.alloc_table(m, hyp, &mut self.frames, true)?;
        let mut task = Task {
            pid,
            asid,
            user_root,
            cred: parent_cred,
            user_pages: Vec::new(),
            table_pages: Vec::new(),
            sigactions: PhysAddr::new(0),
            kernel_stack: Vec::new(),
            vmas: Vec::new(),
            demand_pages: Vec::new(),
        };

        // Share the parent's frames (COW in spirit): copy the mappings —
        // except the stack, whose first write breaks COW onto a fresh
        // anonymous frame immediately.
        let stack_va = VirtAddr::new(layout::USER_STACK_TOP);
        for (va, frame, _owned) in parent_pages {
            if va == stack_va {
                let fresh = self.frames.alloc()?;
                self.prep_frame(m, hyp, fresh)?;
                self.map_user_page(m, hyp, &mut task, va, fresh, true)?;
            } else {
                self.map_user_page(m, hyp, &mut task, va, frame, false)?;
            }
        }
        task.vmas = self
            .tasks
            .get(&parent)
            .map(|t| t.vmas.clone())
            .unwrap_or_default();
        // Private kernel stack and signal table.
        for _ in 0..2 {
            let f = self.frames.alloc()?;
            self.prep_frame(m, hyp, f)?;
            task.kernel_stack.push(f);
        }
        let sig = self.frames.alloc()?;
        self.prep_frame(m, hyp, sig)?;
        task.sigactions = sig;
        // Share the cred.
        self.cred_get(m, hyp, parent_cred)?;
        self.tasks.insert(pid, task);
        Self::syscall_epilogue(m);
        Ok(pid)
    }

    /// `execve` — replace the image of `pid` (must be current) with a new
    /// one, resolving the binary path.
    ///
    /// # Errors
    ///
    /// Fails if the binary path is missing or on memory exhaustion.
    pub fn sys_execve(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::EXEC_COMPUTE);
        self.stats.execs += 1;
        let binary = self.lookup(m, hyp, path)?;
        self.dput(m, hyp, binary)?;

        // exec installs fresh credentials (`prepare_exec_creds` +
        // `commit_creds` in Linux) — the legitimate sensitive-write burst
        // the paper's cred monitor observes and verifies.
        let old_cred = self
            .tasks
            .get(&self.current)
            .ok_or(KernelError::NoSuchTask(self.current))?
            .cred;
        let new_cred = self.cred_alloc(m, hyp, 1000)?;
        self.tasks
            .get_mut(&self.current)
            .expect("checked above")
            .cred = new_cred;
        self.cred_put(m, hyp, old_cred)?;

        // exec_mmap: build a brand-new address space around a fresh root
        // (table pages come hot from the quicklist), switch TTBR0 to it,
        // and retire the old tree with a single unregister call — no
        // per-descriptor teardown, as Linux frees a dead mm wholesale.
        let pid = self.current;
        let mut task = self
            .tasks
            .remove(&pid)
            .ok_or(KernelError::NoSuchTask(pid))?;
        let old_root = task.user_root;
        let old_tables = std::mem::take(&mut task.table_pages);
        let old_pages = std::mem::take(&mut task.user_pages);
        task.vmas.clear();
        task.demand_pages.clear();

        task.user_root = self.pt.alloc_table(m, hyp, &mut self.frames, true)?;
        task.vmas.push(Vma {
            base: VirtAddr::new(layout::USER_IMAGE_BASE),
            len: tuning::USER_IMAGE_PAGES as u64 * PAGE_SIZE,
        });
        // Eagerly map the touched prefix of the binary (page-cache
        // frames); the rest of the image demand-faults.
        for i in 0..tuning::EXEC_EAGER_PAGES {
            let frame = self.page_cache_frame();
            let va = VirtAddr::new(layout::USER_IMAGE_BASE + i as u64 * PAGE_SIZE);
            self.map_user_page(m, hyp, &mut task, va, frame, false)?;
        }
        let stack = self.frames.alloc()?;
        self.prep_frame(m, hyp, stack)?;
        self.map_user_page(
            m,
            hyp,
            &mut task,
            VirtAddr::new(layout::USER_STACK_TOP),
            stack,
            true,
        )?;

        // Install the new address space, then retire the old one.
        let ttbr0 = task.user_root.raw() | (task.asid as u64) << 48;
        m.write_sysreg(SysReg::TTBR0_EL1, ttbr0, hyp)?;
        m.tlbi_asid(task.asid);
        self.pt.retire_address_space(m, hyp, old_root, old_tables)?;
        for (_va, frame, owned) in old_pages {
            if owned {
                m.tag_page(frame, PageTag::Free);
                self.frames.free(frame);
            }
        }
        self.tasks.insert(pid, task);
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `exit` — tear down `pid` and reschedule to `reap_to`.
    ///
    /// # Errors
    ///
    /// Fails if `pid` or `reap_to` is unknown.
    pub fn sys_exit(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        pid: Pid,
        reap_to: Pid,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::EXIT_COMPUTE);
        self.stats.exits += 1;
        let task = self
            .tasks
            .remove(&pid)
            .ok_or(KernelError::NoSuchTask(pid))?;
        // exit_mmap: the whole tree is retired at once (one unregister
        // hypercall under Hypernel); owned anonymous frames are freed,
        // shared/page-cache frames are not.
        self.pt
            .retire_address_space(m, hyp, task.user_root, task.table_pages)?;
        for (_va, frame, owned) in task.user_pages {
            if owned {
                m.tag_page(frame, PageTag::Free);
                self.frames.free(frame);
            }
        }
        for f in task.kernel_stack {
            m.tag_page(f, PageTag::Free);
            self.frames.free(f);
        }
        m.tag_page(task.sigactions, PageTag::Free);
        self.frames.free(task.sigactions);
        m.tlbi_asid(task.asid);
        self.cred_put(m, hyp, task.cred)?;
        if self.current == pid {
            self.switch_to(m, hyp, reap_to)?;
        }
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `mmap` — create a demand-paged region of `pages` pages, eagerly
    /// populating the first [`tuning::MMAP_EAGER_PAGES`] as file-backed
    /// mmap does for the touched prefix.
    ///
    /// # Errors
    ///
    /// Fails on memory exhaustion or Hypersec denial.
    pub fn sys_mmap(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        pages: usize,
    ) -> Result<VirtAddr, KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::MMAP_COMPUTE);
        // VMA/slab growth: every few mmaps the kernel touches a fresh
        // slab page for vm_area_structs (a lazy stage-2 fault in a VM).
        self.mmap_count += 1;
        if self.mmap_count.is_multiple_of(4) {
            let slab_page = self.frames.alloc()?;
            self.prep_frame(m, hyp, slab_page)?;
            m.tag_page(slab_page, PageTag::Free);
            self.frames.free(slab_page); // stays warm; modeled growth only
        }
        let base = VirtAddr::new(self.next_mmap_va);
        self.next_mmap_va += (pages as u64 + 16) * PAGE_SIZE;
        let pid = self.current;
        let mut task = self
            .tasks
            .remove(&pid)
            .ok_or(KernelError::NoSuchTask(pid))?;
        task.vmas.push(Vma {
            base,
            len: pages as u64 * PAGE_SIZE,
        });
        let eager = tuning::MMAP_EAGER_PAGES.min(pages);
        for i in 0..eager {
            let frame = self.page_cache_frame();
            let va = base.add(i as u64 * PAGE_SIZE);
            let new_tables = self.pt.map_page(
                m,
                hyp,
                &mut self.frames,
                task.user_root,
                va,
                frame,
                PagePerms::USER_DATA,
            )?;
            task.table_pages.extend(new_tables);
            task.demand_pages.push((va, frame));
        }
        self.tasks.insert(pid, task);
        Self::syscall_epilogue(m);
        Ok(base)
    }

    /// `munmap` — tear down the region at `base`.
    ///
    /// # Errors
    ///
    /// Fails if `base` is not a mapped region of the current task.
    pub fn sys_munmap(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        base: VirtAddr,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::MMAP_COMPUTE / 2);
        let pid = self.current;
        let mut task = self
            .tasks
            .remove(&pid)
            .ok_or(KernelError::NoSuchTask(pid))?;
        let Some(pos) = task.vmas.iter().position(|v| v.base == base) else {
            self.tasks.insert(pid, task);
            return Err(KernelError::NoSuchPath(format!("vma at {base}")));
        };
        let vma = task.vmas.remove(pos);
        let mut kept = Vec::new();
        for (va, frame) in task.demand_pages.drain(..) {
            if vma.contains(va) {
                self.pt.unmap_page(m, hyp, task.user_root, va)?;
            } else {
                kept.push((va, frame));
            }
        }
        task.demand_pages = kept;
        self.tasks.insert(pid, task);
        Self::syscall_epilogue(m);
        Ok(())
    }

    fn page_cache_frame(&mut self) -> PhysAddr {
        self.page_cache_cursor += 1;
        if self
            .page_cache_cursor
            .is_multiple_of(tuning::PAGE_CACHE_GROWTH_PERIOD)
        {
            // Page-cache growth: a cold frame joins the pool (first guest
            // touch of it lazily faults stage 2 under KVM).
            if let Ok(fresh) = self.frames.alloc() {
                self.page_cache.push(fresh);
                return fresh;
            }
        }
        self.page_cache[self.page_cache_cursor % self.page_cache.len()]
    }

    /// A user-mode touch of `va`: performs the load at EL0, handling a
    /// demand fault by mapping a page-cache frame (the LMbench `lat_pagefault`
    /// path).
    ///
    /// # Errors
    ///
    /// Fails if `va` is in no VMA of the current task.
    pub fn user_touch(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        va: VirtAddr,
    ) -> Result<u64, KernelError> {
        m.set_el(ExceptionLevel::El0);
        let result = m.read_u64(va.word_base(), hyp);
        m.set_el(ExceptionLevel::El1);
        match result {
            Ok(v) => Ok(v),
            Err(Exception::DataAbort {
                permission: false, ..
            }) => {
                m.charge_fault();
                m.charge(tuning::FAULT_COMPUTE);
                self.stats.page_faults += 1;
                let pid = self.current;
                let mut task = self
                    .tasks
                    .remove(&pid)
                    .ok_or(KernelError::NoSuchTask(pid))?;
                if task.vma_for(va).is_none() {
                    self.tasks.insert(pid, task);
                    return Err(KernelError::Machine(Exception::DataAbort {
                        va,
                        kind: hypernel_machine::machine::AccessKind::Read,
                        permission: false,
                    }));
                }
                let frame = self.page_cache_frame();
                let page_va = va.page_base();
                let new_tables = self.pt.map_page(
                    m,
                    hyp,
                    &mut self.frames,
                    task.user_root,
                    page_va,
                    frame,
                    PagePerms::USER_DATA,
                )?;
                task.table_pages.extend(new_tables);
                task.demand_pages.push((page_va, frame));
                self.tasks.insert(pid, task);
                // Retry at EL0.
                m.set_el(ExceptionLevel::El0);
                let v = m.read_u64(va.word_base(), hyp);
                m.set_el(ExceptionLevel::El1);
                Ok(v?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// A user-mode store to `va`, with the same demand-fault handling as
    /// [`Kernel::user_touch`].
    ///
    /// # Errors
    ///
    /// Fails if `va` is in no VMA of the current task.
    pub fn user_store(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        va: VirtAddr,
        value: u64,
    ) -> Result<(), KernelError> {
        m.set_el(ExceptionLevel::El0);
        let result = m.write_u64(va.word_base(), value, hyp);
        m.set_el(ExceptionLevel::El1);
        match result {
            Ok(()) => Ok(()),
            Err(Exception::DataAbort {
                permission: false, ..
            }) => {
                // Fault in the page via the shared demand path, then retry.
                self.user_touch(m, hyp, va)?;
                m.set_el(ExceptionLevel::El0);
                let r = m.write_u64(va.word_base(), value, hyp);
                m.set_el(ExceptionLevel::El1);
                Ok(r?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// `creat(path)` — create a file (dentry + inode).
    ///
    /// # Errors
    ///
    /// Fails if the parent directory does not exist.
    pub fn sys_create(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::CREATE_COMPUTE);
        if let Some(parent) = parent_path(path) {
            let pd = self.lookup(m, hyp, parent)?;
            // Parent directory bookkeeping.
            self.dentry_write(m, hyp, pd, DentryField::SubdirsHead, self.lru_tick)?;
            self.dput(m, hyp, pd)?;
        }
        self.create_dentry_at(m, hyp, path)?;
        self.stats.files_created += 1;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `rename(from, to)` — move a file. The dentry's identity fields
    /// (name hash, parent) legitimately change here, so the kernel opens
    /// an *authorized update window*: unregister, rewrite, re-register.
    /// A write-once security application sees a fresh registration and
    /// accepts the new values — while the same writes outside a window
    /// are flagged (paper §7.2's "verifies the integrity" protocol).
    ///
    /// # Errors
    ///
    /// Fails when the source path does not exist or the target's parent
    /// is missing.
    pub fn sys_rename(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        from: &str,
        to: &str,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        m.charge(tuning::CREATE_COMPUTE / 2);
        let dentry = self.lookup(m, hyp, from)?;
        let new_parent = parent_path(to)
            .map(|p| self.lookup(m, hyp, p))
            .transpose()?
            .unwrap_or(dentry);
        let pa = self.dentry_records[dentry].pa;
        let new_parent_pa = self.dentry_records[new_parent].pa;
        // Authorized update window.
        self.hook_register_object(m, hyp, ObjectKind::Dentry, pa, false)?;
        self.dentry_write(
            m,
            hyp,
            dentry,
            DentryField::NameHash,
            crate::fnv1a(to.as_bytes()),
        )?;
        self.dentry_write(m, hyp, dentry, DentryField::NameLen, to.len() as u64)?;
        self.dentry_write(m, hyp, dentry, DentryField::Parent, new_parent_pa.raw())?;
        self.hook_register_object(m, hyp, ObjectKind::Dentry, pa, true)?;
        // Only the two keys change: cached children keep their spelling.
        self.uncache(from);
        self.cache(to, dentry);
        self.dput(m, hyp, dentry)?;
        if new_parent != dentry {
            self.dput(m, hyp, new_parent)?;
        }
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `unlink(path)` — remove a file: the dentry turns negative (a
    /// legitimate sensitive-field update) and is freed.
    ///
    /// # Errors
    ///
    /// Fails when the path does not exist.
    pub fn sys_unlink(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        let dentry = self.lookup(m, hyp, path)?;
        let pa = self.dentry_records[dentry].pa;
        // Unregister before d_delete: the negative-turn writes happen in
        // the authorized-update window, not under monitoring.
        self.hook_register_object(m, hyp, ObjectKind::Dentry, pa, false)?;
        self.dentry_write(m, hyp, dentry, DentryField::Flags, 0)?;
        self.dentry_write(m, hyp, dentry, DentryField::Inode, 0)?;
        self.uncache(path);
        if let Some(data) = self.dentry_records[dentry].data.take() {
            m.tag_page(data, PageTag::Free);
            self.frames.free(data);
        }
        self.dentries.free(pa);
        self.free_records.push(dentry);
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `write(path, bytes)` — append-style write through the page cache.
    ///
    /// # Errors
    ///
    /// Fails when the path does not exist.
    pub fn sys_write_file(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
        bytes: u64,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        let dentry = self.lookup(m, hyp, path)?;
        let data = match self.dentry_records[dentry].data {
            Some(d) => d,
            None => {
                let d = self.frames.alloc()?;
                self.prep_frame(m, hyp, d)?;
                self.dentry_records[dentry].data = Some(d);
                d
            }
        };
        m.charge((bytes / PAGE_SIZE + 1) * tuning::FILE_COPY_COMPUTE_PER_PAGE);
        self.kcopy_to_page(m, hyp, data, (bytes / 8).max(1), 0)?;
        // File writes update the *inode* mtime, not the dentry — dentry
        // fields stay untouched on the data path.
        self.dput(m, hyp, dentry)?;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// `read(path, bytes)` — read through the page cache.
    ///
    /// # Errors
    ///
    /// Fails when the path does not exist.
    pub fn sys_read_file(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
        bytes: u64,
    ) -> Result<(), KernelError> {
        self.syscall_prologue(m);
        let dentry = self.lookup(m, hyp, path)?;
        if let Some(data) = self.dentry_records[dentry].data {
            m.charge((bytes / PAGE_SIZE + 1) * tuning::FILE_COPY_COMPUTE_PER_PAGE);
            self.kread_from_page(m, hyp, data, (bytes / 8).max(1))?;
        }
        self.dput(m, hyp, dentry)?;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// One pipe round trip between the current task and `peer`: write a
    /// token, block (WFI under KVM), switch, peer reads and replies,
    /// switch back (the `lat_pipe` path).
    ///
    /// # Errors
    ///
    /// Fails if `peer` is unknown.
    pub fn sys_pipe_roundtrip(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        peer: Pid,
        bytes: u64,
    ) -> Result<(), KernelError> {
        let me = self.current;
        let words = (bytes / 8).max(1);
        let buf = self.pipe_buffer;
        // Writer side.
        self.syscall_prologue(m);
        m.charge(tuning::PIPE_COMPUTE);
        self.kcopy_to_page(m, hyp, buf, words, 0)?;
        // Wake the peer: cross-CPU IPI (a vGIC trap under KVM).
        m.send_sgi(hyp);
        Self::syscall_epilogue(m);
        self.switch_to(m, hyp, peer)?;
        // Reader side.
        self.syscall_prologue(m);
        m.charge(tuning::PIPE_COMPUTE);
        self.kread_from_page(m, hyp, buf, words)?;
        Self::syscall_epilogue(m);
        // Reply.
        self.syscall_prologue(m);
        m.charge(tuning::PIPE_COMPUTE);
        self.kcopy_to_page(m, hyp, buf, words, 1)?;
        m.send_sgi(hyp);
        Self::syscall_epilogue(m);
        self.switch_to(m, hyp, me)?;
        // Original task consumes the reply.
        self.syscall_prologue(m);
        m.charge(tuning::PIPE_COMPUTE);
        self.kread_from_page(m, hyp, buf, words)?;
        Self::syscall_epilogue(m);
        Ok(())
    }

    /// One AF_UNIX socket round trip: a pipe round trip plus protocol
    /// processing (the `lat_unix` path).
    ///
    /// # Errors
    ///
    /// Fails if `peer` is unknown.
    pub fn sys_socket_roundtrip(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        peer: Pid,
        bytes: u64,
    ) -> Result<(), KernelError> {
        m.charge(tuning::SOCKET_EXTRA_COMPUTE);
        // AF_UNIX raises extra wakeups (`sock_def_readable` on each end).
        m.send_sgi(hyp);
        m.send_sgi(hyp);
        self.sys_pipe_roundtrip(m, hyp, peer, bytes)
    }
}

/// Parent of `path`, or `None` for `/`.
fn parent_path(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => Some("/"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::machine::{MachineConfig, NullHyp};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            dram_size: layout::DRAM_SIZE,
            ..MachineConfig::default()
        })
    }

    fn boot() -> (Machine, NullHyp, Kernel) {
        let mut m = machine();
        let mut hyp = NullHyp;
        let k = Kernel::boot(&mut m, &mut hyp, KernelConfig::native()).expect("boot");
        (m, hyp, k)
    }

    #[test]
    fn boot_creates_init_task() {
        let (_m, _hyp, k) = boot();
        assert_eq!(k.current(), Pid(1));
        let init = k.task(Pid(1)).expect("init exists");
        assert_eq!(init.user_pages.len(), tuning::USER_IMAGE_PAGES + 1);
        // Exactly one owned (anonymous stack) frame; the image is shared
        // page-cache memory.
        assert_eq!(init.user_pages.iter().filter(|(_, _, o)| *o).count(), 1);
        assert_eq!(k.cred_slab().stats().live, 1);
    }

    #[test]
    fn stat_existing_and_missing() {
        let (mut m, mut hyp, mut k) = boot();
        k.sys_stat(&mut m, &mut hyp, "/bin/sh").expect("stat ok");
        let err = k.sys_stat(&mut m, &mut hyp, "/bin/missing").unwrap_err();
        assert!(matches!(err, KernelError::NoSuchPath(_)));
    }

    #[test]
    fn fork_shares_cred_and_frames() {
        let (mut m, mut hyp, mut k) = boot();
        let child = k.sys_fork(&mut m, &mut hyp).expect("fork");
        let parent = k.task(Pid(1)).unwrap();
        let childt = k.task(child).unwrap();
        assert_eq!(parent.cred, childt.cred);
        assert_eq!(parent.user_pages.len(), childt.user_pages.len());
        assert_ne!(parent.user_root, childt.user_root);
        // Image frames shared, stack frame private (COW broken).
        assert_eq!(parent.user_pages[0].1, childt.user_pages[0].1);
        let pstack = parent.user_pages.iter().find(|(_, _, o)| *o).unwrap();
        let cstack = childt.user_pages.iter().find(|(_, _, o)| *o).unwrap();
        assert_ne!(pstack.1, cstack.1);
        // Usage count bumped to 2.
        let usage = m.debug_read_phys(parent.cred);
        assert_eq!(usage, 2);
    }

    #[test]
    fn fork_exit_restores_task_count() {
        let (mut m, mut hyp, mut k) = boot();
        for _ in 0..5 {
            let child = k.sys_fork(&mut m, &mut hyp).expect("fork");
            k.switch_to(&mut m, &mut hyp, child).expect("switch");
            k.sys_exit(&mut m, &mut hyp, child, Pid(1)).expect("exit");
        }
        assert_eq!(k.pids(), vec![Pid(1)]);
        assert_eq!(k.current(), Pid(1));
        let usage = m.debug_read_phys(k.task(Pid(1)).unwrap().cred);
        assert_eq!(usage, 1, "cred refcount balanced");
    }

    #[test]
    fn exec_replaces_image() {
        let (mut m, mut hyp, mut k) = boot();
        let old_root = k.task(Pid(1)).unwrap().user_root;
        k.sys_execve(&mut m, &mut hyp, "/bin/sh").expect("exec");
        let task = k.task(Pid(1)).unwrap();
        // A fresh address space with only the eager prefix mapped.
        assert_ne!(task.user_root, old_root);
        assert_eq!(task.user_pages.len(), tuning::EXEC_EAGER_PAGES + 1);
        assert_eq!(k.stats().execs, 1);
        // The rest of the image demand-faults on touch.
        let tail = VirtAddr::new(
            layout::USER_IMAGE_BASE + (tuning::USER_IMAGE_PAGES as u64 - 1) * PAGE_SIZE,
        );
        k.user_touch(&mut m, &mut hyp, tail).expect("demand page");
        assert_eq!(k.stats().page_faults, 1);
    }

    #[test]
    fn mmap_touch_munmap() {
        let (mut m, mut hyp, mut k) = boot();
        let base = k.sys_mmap(&mut m, &mut hyp, 16).expect("mmap");
        // Touch an eagerly mapped page and a demand page.
        k.user_touch(&mut m, &mut hyp, base).expect("eager touch");
        let faults_before = k.stats().page_faults;
        k.user_touch(&mut m, &mut hyp, base.add(8 * PAGE_SIZE))
            .expect("demand touch");
        assert_eq!(k.stats().page_faults, faults_before + 1);
        k.sys_munmap(&mut m, &mut hyp, base).expect("munmap");
        // The whole region is gone.
        let err = k.user_touch(&mut m, &mut hyp, base).unwrap_err();
        assert!(matches!(err, KernelError::Machine(_)));
    }

    #[test]
    fn create_write_read_unlink() {
        let (mut m, mut hyp, mut k) = boot();
        k.sys_create(&mut m, &mut hyp, "/tmp/x").expect("create");
        k.sys_write_file(&mut m, &mut hyp, "/tmp/x", 4096)
            .expect("write");
        k.sys_read_file(&mut m, &mut hyp, "/tmp/x", 4096)
            .expect("read");
        let live_before = k.dentry_slab().stats().live;
        k.sys_unlink(&mut m, &mut hyp, "/tmp/x").expect("unlink");
        assert_eq!(k.dentry_slab().stats().live, live_before - 1);
        assert!(k.dentry_of("/tmp/x").is_none());
    }

    #[test]
    fn pipe_roundtrip_switches_context() {
        let (mut m, mut hyp, mut k) = boot();
        let child = k.sys_fork(&mut m, &mut hyp).expect("fork");
        let switches = k.stats().context_switches;
        k.sys_pipe_roundtrip(&mut m, &mut hyp, child, 512)
            .expect("pipe");
        assert_eq!(k.stats().context_switches, switches + 2);
        assert_eq!(k.current(), Pid(1));
    }

    #[test]
    fn signal_install_and_deliver() {
        let (mut m, mut hyp, mut k) = boot();
        k.sys_signal_install(&mut m, &mut hyp, 10).expect("install");
        k.sys_signal_deliver(&mut m, &mut hyp, 10).expect("deliver");
        assert!(k.stats().syscalls >= 2);
    }

    #[test]
    fn syscalls_charge_cycles() {
        let (mut m, mut hyp, mut k) = boot();
        let c0 = m.cycles();
        k.sys_stat(&mut m, &mut hyp, "/bin/sh").expect("stat");
        let stat_cost = m.cycles() - c0;
        assert!(
            stat_cost > 500,
            "stat must cost real cycles, got {stat_cost}"
        );
        let c1 = m.cycles();
        k.sys_fork(&mut m, &mut hyp).expect("fork");
        let fork_cost = m.cycles() - c1;
        assert!(
            fork_cost > 10 * stat_cost,
            "fork ({fork_cost}) must dwarf stat ({stat_cost})"
        );
    }

    #[test]
    fn rename_moves_the_dentry() {
        let (mut m, mut hyp, mut k) = boot();
        k.sys_create(&mut m, &mut hyp, "/tmp/a").expect("create");
        k.sys_write_file(&mut m, &mut hyp, "/tmp/a", 512)
            .expect("write");
        let dentry = k.dentry_of("/tmp/a").unwrap();
        k.sys_rename(&mut m, &mut hyp, "/tmp/a", "/etc/b")
            .expect("rename");
        assert!(k.dentry_of("/tmp/a").is_none());
        assert_eq!(k.dentry_of("/etc/b"), Some(dentry));
        // New parent recorded.
        let parent = m.debug_read_phys(dentry.add(DentryField::Parent.byte_offset()));
        assert_eq!(parent, k.dentry_of("/etc").unwrap().raw());
        // The file content travels with the dentry.
        k.sys_read_file(&mut m, &mut hyp, "/etc/b", 512)
            .expect("read");
    }

    #[test]
    fn rename_of_missing_path_fails() {
        let (mut m, mut hyp, mut k) = boot();
        let err = k
            .sys_rename(&mut m, &mut hyp, "/tmp/ghost", "/tmp/x")
            .unwrap_err();
        assert!(matches!(err, KernelError::NoSuchPath(_)));
    }

    #[test]
    fn parent_path_cases() {
        assert_eq!(parent_path("/"), None);
        assert_eq!(parent_path("/bin"), Some("/"));
        assert_eq!(parent_path("/bin/sh"), Some("/bin"));
        assert_eq!(parent_path("relative"), Some("/"));
    }

    #[test]
    fn poll_irqs_with_nothing_pending() {
        let (mut m, mut hyp, mut k) = boot();
        assert_eq!(k.poll_irqs(&mut m, &mut hyp).expect("poll"), 0);
    }

    /// One line of the path-walk transcript: the op, its result and the
    /// machine's cycle count after it.
    fn note(log: &mut Vec<String>, m: &Machine, op: &str, r: Result<(), KernelError>) {
        log.push(format!("{op} -> {r:?} @ {}", m.cycles()));
    }

    /// Pins the path walk's whole observable behaviour on odd spellings,
    /// renamed directories, reused slab slots and deep paths — cases the
    /// corpus never reaches. The dcache keys are the raw strings given
    /// to create and rename; a lookup resolves the canonical prefixes of
    /// its argument root-first and fails at the first uncached one after
    /// charging the earlier steps; a renamed directory's children keep
    /// their old spelling; ref-walk heat belongs to the slab slot.
    #[test]
    fn path_walk_is_pinned() {
        let (mut m, mut hyp, mut k) = boot();
        let mut log = Vec::new();
        let mut paths: Vec<String> = ["/", "/bin", "/etc", "/tmp", "/usr", "/bin/sh"]
            .map(String::from)
            .to_vec();
        let used = |paths: &mut Vec<String>, p: &str| {
            if !paths.iter().any(|q| q == p) {
                paths.push(p.to_string());
            }
        };

        // A tree four components deep.
        for p in ["/tmp/d", "/tmp/d/e", "/tmp/d/e/f"] {
            used(&mut paths, p);
            let r = k.sys_create(&mut m, &mut hyp, p);
            note(&mut log, &m, &format!("create {p}"), r);
        }
        // Canonical and odd spellings, the root, and misses part-way.
        for p in [
            "/tmp/d/e/f",
            "//tmp/d/",
            "tmp/d",
            "/tmp//d/e/",
            "/",
            "",
            "/tmp/d/missing",
            "/nope/x",
            "/tmp/d/e/f/g",
        ] {
            used(&mut paths, p);
            let r = k.sys_stat(&mut m, &mut hyp, p);
            note(&mut log, &m, &format!("stat {p}"), r);
        }
        // Creates under a missing parent; under a parent spelling that
        // is not a key, whose dentries point at themselves; and with a
        // trailing slash, a key of its own.
        for p in ["/nope/x", "tmp/rel", "/tmp//dbl", "/tmp/d/"] {
            used(&mut paths, p);
            let r = k.sys_create(&mut m, &mut hyp, p);
            note(&mut log, &m, &format!("create {p}"), r);
        }
        for p in ["tmp/rel", "/tmp/rel", "/tmp/dbl", "/tmp//dbl", "/tmp/d/"] {
            used(&mut paths, p);
            let r = k.sys_stat(&mut m, &mut hyp, p);
            note(&mut log, &m, &format!("stat {p}"), r);
        }

        // Rename a directory with cached children: the children keep
        // their old spelling, which no longer resolves, and do not
        // resolve under the new one either — until it is renamed back.
        for (op, a, b) in [
            ("rename", "/tmp/d/e", "/tmp/d/e2"),
            ("stat", "/tmp/d/e/f", ""),
            ("stat", "/tmp/d/e2/f", ""),
            ("stat", "/tmp/d/e2", ""),
            ("stat", "/tmp/d/e", ""),
            ("create", "/tmp/d/e2/g", ""),
            ("stat", "/tmp/d/e2/g", ""),
            ("rename", "/tmp/d/e2", "/tmp/d/e"),
            ("stat", "/tmp/d/e/f", ""),
            ("stat", "/tmp/d/e/g", ""),
            ("stat", "/tmp/d/e2/g", ""),
        ] {
            used(&mut paths, a);
            let r = match op {
                "rename" => {
                    used(&mut paths, b);
                    k.sys_rename(&mut m, &mut hyp, a, b)
                }
                "create" => k.sys_create(&mut m, &mut hyp, a),
                _ => k.sys_stat(&mut m, &mut hyp, a),
            };
            note(&mut log, &m, &format!("{op} {a} {b}"), r);
        }

        // Heat belongs to the slab slot: a hot file's successor in the
        // same slot starts hot.
        used(&mut paths, "/tmp/hot");
        used(&mut paths, "/tmp/cold");
        let r = k.sys_create(&mut m, &mut hyp, "/tmp/hot");
        note(&mut log, &m, "create /tmp/hot", r);
        for i in 0..=tuning::REF_WALK_WARMUP + 3 {
            let r = k.sys_stat(&mut m, &mut hyp, "/tmp/hot");
            note(&mut log, &m, &format!("stat /tmp/hot #{i}"), r);
        }
        let hot = k.dentry_of("/tmp/hot");
        let r = k.sys_unlink(&mut m, &mut hyp, "/tmp/hot");
        note(&mut log, &m, "unlink /tmp/hot", r);
        let r = k.sys_create(&mut m, &mut hyp, "/tmp/cold");
        note(&mut log, &m, "create /tmp/cold", r);
        assert_eq!(k.dentry_of("/tmp/cold"), hot, "the slot is reused");
        for i in 0..4 {
            let r = k.sys_stat(&mut m, &mut hyp, "/tmp/cold");
            note(&mut log, &m, &format!("stat /tmp/cold #{i}"), r);
        }
        let r = k.sys_stat(&mut m, &mut hyp, "/tmp/hot");
        note(&mut log, &m, "stat /tmp/hot", r);

        // File data follows the dentry through rename and is freed at
        // unlink; the next file's data reuses the frame.
        for (op, a, b) in [
            ("create", "/tmp/w", ""),
            ("write", "/tmp/w", ""),
            ("rename", "/tmp/w", "/etc/w2"),
            ("read", "/etc/w2", ""),
            ("read", "/tmp/w", ""),
            ("unlink", "/etc/w2", ""),
            ("create", "/tmp/w3", ""),
            ("read", "/tmp/w3", ""),
            ("write", "/tmp/w3", ""),
            ("read", "/tmp/w3", ""),
        ] {
            used(&mut paths, a);
            let r = match op {
                "create" => k.sys_create(&mut m, &mut hyp, a),
                "write" => k.sys_write_file(&mut m, &mut hyp, a, 4096),
                "read" => k.sys_read_file(&mut m, &mut hyp, a, 4096),
                "unlink" => k.sys_unlink(&mut m, &mut hyp, a),
                _ => {
                    used(&mut paths, b);
                    k.sys_rename(&mut m, &mut hyp, a, b)
                }
            };
            note(&mut log, &m, &format!("{op} {a} {b}"), r);
        }

        // A 64-component path, one component at a time. Its 64 creates
        // and dentries fold into one digest line each.
        let fold = |digest: u64, text: &str| {
            text.bytes().fold(digest, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        let mut deep = vec![String::new()];
        let mut creates = crate::fnv1a(&[]);
        let mut dentries = crate::fnv1a(&[]);
        for i in 0..64 {
            let p = format!("{}/n{i}", deep[i]);
            let r = k.sys_create(&mut m, &mut hyp, &p);
            creates = fold(creates, &format!("{r:?} @ {}\n", m.cycles()));
            dentries = fold(dentries, &format!("{:?}\n", k.dentry_of(&p)));
            deep.push(p);
        }
        log.push(format!(
            "create deep 1..=64 fnv1a {creates:#018x} @ {}",
            m.cycles()
        ));
        log.push(format!("dentry_of deep 1..=64 fnv1a {dentries:#018x}"));
        for suffix in ["", "/", "/n64"] {
            let r = k.sys_stat(&mut m, &mut hyp, &format!("{}{suffix}", deep[64]));
            let r = r.map_err(|e| format!("{e}").replace(&deep[64], "<deep>"));
            log.push(format!("stat <deep>{suffix} -> {r:?} @ {}", m.cycles()));
        }

        log.push(format!("{:?}", k.stats()));
        for p in &paths {
            log.push(format!("dentry_of {p:?} = {:?}", k.dentry_of(p)));
        }
        let mut words = crate::fnv1a(&[]);
        for d in paths.iter().chain(&deep).filter_map(|p| k.dentry_of(p)) {
            for w in 0..DentryField::WORDS {
                let word = m.debug_read_phys(d.add(w * 8));
                words = fold(words, &format!("{word:x},"));
            }
        }
        log.push(format!("dentry words fnv1a {words:#018x}"));

        let expected: &[&str] = &[
            "create /tmp/d -> Ok(()) @ 16058",
            "create /tmp/d/e -> Ok(()) @ 19949",
            "create /tmp/d/e/f -> Ok(()) @ 23955",
            "stat /tmp/d/e/f -> Ok(()) @ 26788",
            "stat //tmp/d/ -> Ok(()) @ 28993",
            "stat tmp/d -> Ok(()) @ 31198",
            "stat /tmp//d/e/ -> Ok(()) @ 33528",
            "stat / -> Ok(()) @ 35503",
            "stat  -> Ok(()) @ 37478",
            "stat /tmp/d/missing -> Err(NoSuchPath(\"/tmp/d/missing\")) @ 39718",
            "stat /nope/x -> Err(NoSuchPath(\"/nope/x\")) @ 41728",
            "stat /tmp/d/e/f/g -> Err(NoSuchPath(\"/tmp/d/e/f/g\")) @ 44198",
            "create /nope/x -> Err(NoSuchPath(\"/nope\")) @ 47208",
            "create tmp/rel -> Ok(()) @ 50994",
            "create /tmp//dbl -> Ok(()) @ 54770",
            "create /tmp/d/ -> Ok(()) @ 58661",
            "stat tmp/rel -> Err(NoSuchPath(\"tmp/rel\")) @ 60786",
            "stat /tmp/rel -> Err(NoSuchPath(\"/tmp/rel\")) @ 62911",
            "stat /tmp/dbl -> Err(NoSuchPath(\"/tmp/dbl\")) @ 65036",
            "stat /tmp//dbl -> Err(NoSuchPath(\"/tmp//dbl\")) @ 67161",
            "stat /tmp/d/ -> Ok(()) @ 69372",
            "rename /tmp/d/e /tmp/d/e2 -> Ok(()) @ 71644",
            "stat /tmp/d/e/f  -> Err(NoSuchPath(\"/tmp/d/e/f\")) @ 73880",
            "stat /tmp/d/e2/f  -> Err(NoSuchPath(\"/tmp/d/e2/f\")) @ 76231",
            "stat /tmp/d/e2  -> Ok(()) @ 78557",
            "stat /tmp/d/e  -> Err(NoSuchPath(\"/tmp/d/e\")) @ 80793",
            "create /tmp/d/e2/g  -> Ok(()) @ 84795",
            "stat /tmp/d/e2/g  -> Ok(()) @ 87222",
            "rename /tmp/d/e2 /tmp/d/e -> Ok(()) @ 89486",
            "stat /tmp/d/e/f  -> Ok(()) @ 91923",
            "stat /tmp/d/e/g  -> Err(NoSuchPath(\"/tmp/d/e/g\")) @ 94270",
            "stat /tmp/d/e2/g  -> Err(NoSuchPath(\"/tmp/d/e2/g\")) @ 96504",
            "create /tmp/hot -> Ok(()) @ 100276",
            "stat /tmp/hot #0 -> Ok(()) @ 102477",
            "stat /tmp/hot #1 -> Ok(()) @ 104678",
            "stat /tmp/hot #2 -> Ok(()) @ 106879",
            "stat /tmp/hot #3 -> Ok(()) @ 109080",
            "stat /tmp/hot #4 -> Ok(()) @ 111285",
            "stat /tmp/hot #5 -> Ok(()) @ 113496",
            "stat /tmp/hot #6 -> Ok(()) @ 115697",
            "stat /tmp/hot #7 -> Ok(()) @ 117898",
            "stat /tmp/hot #8 -> Ok(()) @ 120099",
            "stat /tmp/hot #9 -> Ok(()) @ 122300",
            "stat /tmp/hot #10 -> Ok(()) @ 124501",
            "stat /tmp/hot #11 -> Ok(()) @ 126702",
            "stat /tmp/hot #12 -> Ok(()) @ 128903",
            "stat /tmp/hot #13 -> Ok(()) @ 131114",
            "stat /tmp/hot #14 -> Ok(()) @ 133315",
            "stat /tmp/hot #15 -> Ok(()) @ 135516",
            "stat /tmp/hot #16 -> Ok(()) @ 137717",
            "stat /tmp/hot #17 -> Ok(()) @ 139914",
            "stat /tmp/hot #18 -> Ok(()) @ 142111",
            "stat /tmp/hot #19 -> Ok(()) @ 144308",
            "unlink /tmp/hot -> Ok(()) @ 144962",
            "create /tmp/cold -> Ok(()) @ 148224",
            "stat /tmp/cold #0 -> Ok(()) @ 150421",
            "stat /tmp/cold #1 -> Ok(()) @ 152618",
            "stat /tmp/cold #2 -> Ok(()) @ 154819",
            "stat /tmp/cold #3 -> Ok(()) @ 157016",
            "stat /tmp/hot -> Err(NoSuchPath(\"/tmp/hot\")) @ 159139",
            "create /tmp/w  -> Ok(()) @ 162911",
            "write /tmp/w  -> Ok(()) @ 178384",
            "rename /tmp/w /etc/w2 -> Ok(()) @ 180440",
            "read /etc/w2  -> Ok(()) @ 184460",
            "read /tmp/w  -> Err(NoSuchPath(\"/tmp/w\")) @ 185083",
            "unlink /etc/w2  -> Ok(()) @ 185743",
            "create /tmp/w3  -> Ok(()) @ 189005",
            "read /tmp/w3  -> Ok(()) @ 189661",
            "write /tmp/w3  -> Ok(()) @ 205130",
            "read /tmp/w3  -> Ok(()) @ 209146",
            "create deep 1..=64 fnv1a 0x76cc02dedb02b70a @ 673174",
            "dentry_of deep 1..=64 fnv1a 0x01b3657063d734b0",
            "stat <deep> -> Ok(()) @ 682363",
            "stat <deep>/ -> Ok(()) @ 691538",
            "stat <deep>/n64 -> Err(\"no such path: <deep>/n64\") @ 700754",
            "KernelStats { syscalls: 137, forks: 0, execs: 0, exits: 0, context_switches: 0, page_faults: 0, files_created: 75, irqs_forwarded: 0, emulated_writes: 0, monitor_registrations: 0 }",
            "dentry_of \"/\" = Some(PhysAddr(0x805000))",
            "dentry_of \"/bin\" = Some(PhysAddr(0x8050c0))",
            "dentry_of \"/etc\" = Some(PhysAddr(0x805180))",
            "dentry_of \"/tmp\" = Some(PhysAddr(0x805240))",
            "dentry_of \"/usr\" = Some(PhysAddr(0x805300))",
            "dentry_of \"/bin/sh\" = Some(PhysAddr(0x8053c0))",
            "dentry_of \"/tmp/d\" = Some(PhysAddr(0x805480))",
            "dentry_of \"/tmp/d/e\" = Some(PhysAddr(0x805540))",
            "dentry_of \"/tmp/d/e/f\" = Some(PhysAddr(0x805600))",
            "dentry_of \"//tmp/d/\" = None",
            "dentry_of \"tmp/d\" = None",
            "dentry_of \"/tmp//d/e/\" = None",
            "dentry_of \"\" = None",
            "dentry_of \"/tmp/d/missing\" = None",
            "dentry_of \"/nope/x\" = None",
            "dentry_of \"/tmp/d/e/f/g\" = None",
            "dentry_of \"tmp/rel\" = Some(PhysAddr(0x8056c0))",
            "dentry_of \"/tmp//dbl\" = Some(PhysAddr(0x805780))",
            "dentry_of \"/tmp/d/\" = Some(PhysAddr(0x805840))",
            "dentry_of \"/tmp/rel\" = None",
            "dentry_of \"/tmp/dbl\" = None",
            "dentry_of \"/tmp/d/e2\" = None",
            "dentry_of \"/tmp/d/e2/f\" = None",
            "dentry_of \"/tmp/d/e2/g\" = Some(PhysAddr(0x805900))",
            "dentry_of \"/tmp/d/e/g\" = None",
            "dentry_of \"/tmp/hot\" = None",
            "dentry_of \"/tmp/cold\" = Some(PhysAddr(0x8059c0))",
            "dentry_of \"/tmp/w\" = None",
            "dentry_of \"/etc/w2\" = None",
            "dentry_of \"/tmp/w3\" = Some(PhysAddr(0x805a80))",
            "dentry words fnv1a 0x342611e9c539ac8c",
        ];
        let got: Vec<&str> = log.iter().map(String::as_str).collect();
        assert_eq!(got, expected);
    }
}
