//! Whole-system assembly: machine + EL2 software + kernel (+ MBM).
//!
//! [`System`] wires up one of the paper's three evaluation configurations
//! (§7.1):
//!
//! * [`Mode::Native`] — the base kernel on bare metal.
//! * [`Mode::KvmGuest`] — the kernel inside a KVM-style VM with nested
//!   paging and lazy stage-2 population.
//! * [`Mode::Hypernel`] — the kernel under Hypersec (no nested paging)
//!   with the memory bus monitor attached.

use hypernel_audit::WalkBaseline;
use hypernel_hypersec::{
    ComposeMonitor, CredMonitor, DentryMonitor, Hypersec, HypersecConfig, SecurityApp,
};
use hypernel_hypervisor::{KvmConfig, KvmHypervisor};
use hypernel_kernel::kernel::{Kernel, KernelConfig, KernelError};
use hypernel_kernel::layout;
use hypernel_machine::addr::PhysAddr;
use hypernel_machine::fault::{FaultHit, FaultInjector, FaultPlan, FaultStats};
use hypernel_machine::machine::{Hyp, Machine, MachineConfig, NullHyp};
use hypernel_machine::shadow::TagPolicy;
use hypernel_mbm::{Mbm, MbmConfig, MbmStats};
use hypernel_telemetry::{Event, Snapshot, Telemetry};

/// Default event-ring capacity used by [`SystemBuilder::telemetry`] and
/// [`System::enable_telemetry`] callers that have no better number:
/// large enough to hold a full lmbench table run without eviction.
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 1 << 16;

/// The platform's MBM: the lossless monitor over the platform layout's
/// window, with its bitmap and ring in the secure region. §8 extension:
/// it alarms on any bus (DMA) write into Hypersec's private memory — the
/// CPU never writes it through the bus, so bus writes there are
/// tampering.
pub fn platform_mbm_config() -> MbmConfig {
    MbmConfig::standard(
        PhysAddr::new(layout::MBM_WINDOW_BASE),
        layout::MBM_WINDOW_LEN,
        PhysAddr::new(layout::MBM_BITMAP_BASE),
        PhysAddr::new(layout::MBM_RING_BASE),
        layout::MBM_RING_ENTRIES,
    )
    .with_secure_guard(
        PhysAddr::new(layout::HYPERSEC_PRIVATE_BASE),
        layout::HYPERSEC_PRIVATE_SIZE,
    )
}

/// The three evaluated system configurations (paper §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Base kernel, no hypervisor-level software.
    Native,
    /// Kernel in a KVM-style VM (nested paging).
    KvmGuest,
    /// Kernel protected by Hypernel (Hypersec + MBM, no nested paging).
    Hypernel,
}

impl Mode {
    /// Every mode, sorted by [`Mode::key`].
    pub const ALL: [Mode; 3] = [Mode::Hypernel, Mode::KvmGuest, Mode::Native];

    /// Stable lowercase key: the scenario-TOML `mode` value, the CLIs'
    /// `--mode` value and the coverage-key component (`Display` is the
    /// human form, `KVM-guest`).
    pub fn key(self) -> &'static str {
        match self {
            Self::Native => "native",
            Self::KvmGuest => "kvm",
            Self::Hypernel => "hypernel",
        }
    }

    /// Inverse of [`Mode::key`].
    pub fn from_key(key: &str) -> Option<Mode> {
        Self::ALL.into_iter().find(|m| m.key() == key)
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Native => write!(f, "Native"),
            Self::KvmGuest => write!(f, "KVM-guest"),
            Self::Hypernel => write!(f, "Hypernel"),
        }
    }
}

/// The EL2 software installed on the machine.
#[allow(clippy::large_enum_variant)] // one instance per system; boxing buys nothing
#[derive(Clone)]
enum El2Software {
    Native(NullHyp),
    Kvm(KvmHypervisor),
    Hypersec(Hypersec),
}

impl El2Software {
    fn as_hyp(&mut self) -> &mut dyn Hyp {
        match self {
            Self::Native(h) => h,
            Self::Kvm(h) => h,
            Self::Hypersec(h) => h,
        }
    }
}

/// Builder for a [`System`].
///
/// ```
/// use hypernel::system::{Mode, SystemBuilder};
///
/// let system = SystemBuilder::new(Mode::Native).build()?;
/// assert_eq!(system.mode(), Mode::Native);
/// # Ok::<(), hypernel_kernel::kernel::KernelError>(())
/// ```
pub struct SystemBuilder {
    mode: Mode,
    machine_config: MachineConfig,
    extra_apps: Vec<Box<dyn SecurityApp>>,
    section_linear_map: bool,
    mbm_config: Option<MbmConfig>,
    telemetry_capacity: Option<usize>,
    fault_plan: Option<FaultPlan>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("mode", &self.mode)
            .field("section_linear_map", &self.section_linear_map)
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// Starts a builder for the given mode.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            machine_config: MachineConfig {
                dram_size: layout::DRAM_SIZE,
                ..MachineConfig::default()
            },
            extra_apps: Vec::new(),
            section_linear_map: false,
            mbm_config: None,
            telemetry_capacity: None,
            fault_plan: None,
        }
    }

    /// Overrides the machine configuration (DRAM is always forced to the
    /// platform layout's size).
    pub fn machine_config(mut self, mut config: MachineConfig) -> Self {
        config.dram_size = layout::DRAM_SIZE;
        self.machine_config = config;
        self
    }

    /// Hosts an additional security application (Hypernel mode only; the
    /// cred and dentry monitors are always installed).
    pub fn app(mut self, app: Box<dyn SecurityApp>) -> Self {
        self.extra_apps.push(app);
        self
    }

    /// Uses the vanilla 2 MiB-section linear map instead of the
    /// instrumented 4 KiB-page map (the §6.2 ablation).
    pub fn section_linear_map(mut self, yes: bool) -> Self {
        self.section_linear_map = yes;
        self
    }

    /// Overrides the MBM configuration (Hypernel mode only).
    pub fn mbm_config(mut self, config: MbmConfig) -> Self {
        self.mbm_config = Some(config);
        self
    }

    /// Enables telemetry from the very first boot cycle, buffering up to
    /// `ring_capacity` raw events (see [`DEFAULT_TELEMETRY_CAPACITY`]).
    /// Use [`System::enable_telemetry`] instead to skip boot noise.
    pub fn telemetry(mut self, ring_capacity: usize) -> Self {
        self.telemetry_capacity = Some(ring_capacity);
        self
    }

    /// Injects faults at the machine/MBM boundary during the run:
    /// dropped or delayed MBM interrupts, translator stalls (FIFO
    /// pressure), bit-flipped snoop addresses, lost hypercalls, and
    /// watch-bitmap desyncs. The injector is installed *after* boot, so
    /// spec occurrence counts start at the first post-boot event — a
    /// scenario's `at = 1` means "the first IRQ the workload raises",
    /// not whatever boot happened to do.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Assembles and boots the system.
    ///
    /// # Errors
    ///
    /// Propagates kernel boot failures (including Hypersec denials, which
    /// indicate a misconfiguration).
    pub fn build(self) -> Result<System, KernelError> {
        let mut machine = Machine::new(self.machine_config);
        let mut kernel_config = match self.mode {
            Mode::Native | Mode::KvmGuest => KernelConfig::native(),
            Mode::Hypernel => KernelConfig::hypernel(),
        };
        if self.section_linear_map {
            kernel_config.linear_map = hypernel_kernel::pgtable::LinearMapMode::Sections;
        }

        let mut el2 = match self.mode {
            Mode::Native => El2Software::Native(NullHyp),
            Mode::KvmGuest => {
                let mut kvm = KvmHypervisor::new(KvmConfig::standard(
                    PhysAddr::new(layout::SECURE_BASE),
                    layout::SECURE_SIZE,
                    layout::SECURE_BASE,
                ));
                kvm.install(&mut machine);
                El2Software::Kvm(kvm)
            }
            Mode::Hypernel => {
                let mbm_config = self.mbm_config.unwrap_or_else(platform_mbm_config);
                machine.bus_mut().attach(Box::new(Mbm::new(mbm_config)));
                let mut hypersec = Hypersec::install(&mut machine, HypersecConfig::standard());
                hypersec.install_app(Box::new(CredMonitor::new()));
                hypersec.install_app(Box::new(DentryMonitor::new()));
                hypersec.install_app(Box::new(ComposeMonitor::new()));
                for app in self.extra_apps {
                    hypersec.install_app(app);
                }
                El2Software::Hypersec(hypersec)
            }
        };

        // Install telemetry before boot so the event stream covers the
        // kernel's own bring-up.
        machine.set_telemetry_sink(self.telemetry_capacity.map(Telemetry::new));

        let kernel = Kernel::boot(&mut machine, el2.as_hyp(), kernel_config)?;

        // KVM warms stage 2 for boot-time memory so only post-boot
        // allocations fault lazily.
        if let El2Software::Kvm(kvm) = &mut el2 {
            let watermark = kernel.frames_watermark();
            kvm.prefault(&mut machine, watermark);
        }

        // Faults arm only after boot completes (see `fault_plan`).
        machine.set_fault_injector(self.fault_plan.map(FaultInjector::new));

        Ok(System {
            mode: self.mode,
            machine,
            kernel,
            el2,
            audit_baseline: WalkBaseline::default(),
        })
    }
}

/// A booted system in one of the three configurations.
pub struct System {
    mode: Mode,
    machine: Machine,
    kernel: Kernel,
    el2: El2Software,
    /// The static audit's walk baseline, shared by a template and its
    /// forks.
    audit_baseline: WalkBaseline,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.mode)
            .field("cycles", &self.machine.cycles())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Boots a system with default settings for `mode`.
    ///
    /// # Errors
    ///
    /// See [`SystemBuilder::build`].
    pub fn boot(mode: Mode) -> Result<Self, KernelError> {
        SystemBuilder::new(mode).build()
    }

    /// The configuration this system was built in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The machine (read-only).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The machine, mutable — for debug inspection (cache-coherent
    /// physical reads need `&mut`) and direct device access in tests.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The kernel (read-only).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Splits the system into the `(kernel, machine, el2)` triple that
    /// kernel operations and workloads take.
    pub fn parts(&mut self) -> (&mut Kernel, &mut Machine, &mut dyn Hyp) {
        (&mut self.kernel, &mut self.machine, self.el2.as_hyp())
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// MBM statistics (Hypernel mode only).
    pub fn mbm_stats(&self) -> Option<MbmStats> {
        self.machine.bus().snooper::<Mbm>().map(Mbm::stats)
    }

    /// Resets the MBM statistics (between experiment phases).
    pub fn reset_mbm_stats(&mut self) {
        if let Some(mbm) = self.machine.bus_mut().snooper_mut::<Mbm>() {
            mbm.reset_stats();
        }
    }

    /// Per-kind counters of injected faults, if a
    /// [`SystemBuilder::fault_plan`] was installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.machine.fault_stats()
    }

    /// Chronological log of every fault that fired, if an injector is
    /// installed.
    pub fn fault_log(&self) -> Option<Vec<FaultHit>> {
        self.machine.fault_injector().map(|f| f.log().to_vec())
    }

    /// The Hypersec runtime (Hypernel mode only).
    pub fn hypersec(&self) -> Option<&Hypersec> {
        match &self.el2 {
            El2Software::Hypersec(h) => Some(h),
            _ => None,
        }
    }

    /// Mutable Hypersec runtime (Hypernel mode only).
    pub fn hypersec_mut(&mut self) -> Option<&mut Hypersec> {
        match &mut self.el2 {
            El2Software::Hypersec(h) => Some(h),
            _ => None,
        }
    }

    /// The KVM hypervisor (KVM-guest mode only).
    pub fn kvm(&self) -> Option<&KvmHypervisor> {
        match &self.el2 {
            El2Software::Kvm(h) => Some(h),
            _ => None,
        }
    }

    /// Turns telemetry on mid-run (a no-op if already enabled), keeping
    /// up to `ring_capacity` raw events for export. All events from this
    /// point on — CPU-side and MBM-side — feed the machine's one
    /// recorder: its ring and its aggregates.
    pub fn enable_telemetry(&mut self, ring_capacity: usize) {
        if !self.telemetry_enabled() {
            self.machine
                .set_telemetry_sink(Some(Telemetry::new(ring_capacity)));
        }
    }

    /// Removes the recorder: subsequent events are no longer recorded
    /// and the emit helpers reduce to a single branch again.
    pub fn disable_telemetry(&mut self) {
        self.machine.set_telemetry_sink(None);
    }

    /// Whether a telemetry recorder is installed.
    pub fn telemetry_enabled(&self) -> bool {
        self.machine.telemetry().is_some()
    }

    /// Freezes the current aggregates (histograms + counters), if
    /// telemetry is enabled.
    pub fn telemetry_snapshot(&self) -> Option<Snapshot> {
        self.machine.telemetry().map(Telemetry::snapshot)
    }

    /// Copies out the buffered raw events, oldest first, if telemetry is
    /// enabled. Pair with [`System::telemetry_dropped`] to report
    /// truncation honestly.
    pub fn telemetry_events(&self) -> Option<Vec<Event>> {
        self.machine.telemetry().map(|t| t.ring().to_vec())
    }

    /// Raw events evicted from the ring because it was full.
    pub fn telemetry_dropped(&self) -> Option<u64> {
        self.machine.telemetry().map(|t| t.ring().dropped())
    }

    /// Forks this booted system into an independent copy (warm-boot
    /// reuse): all architectural and software state — memory, TLB,
    /// cache, registers, bus devices, kernel tables, EL2 software — is
    /// deep-copied. The machine is the only holder of the fault
    /// injector and the telemetry recorder, so the copy shares neither:
    /// its injector is a copy whose occurrence counters advance
    /// independently, and it starts without a recorder (enable
    /// telemetry on the fork afterwards if the experiment needs it).
    ///
    /// Memory is copy-on-write: the copy shares every DRAM chunk and
    /// page until one side writes it. The first fork records the
    /// family's snapshot ([`Machine::fork`]), and the audit baselines
    /// (the static walk's and Hypersec's) are shared, not copied: they
    /// belong to the template family and are walks of its snapshot.
    ///
    /// A fork taken immediately after boot is observationally identical
    /// to a fresh [`SystemBuilder::build`] with the same settings: the
    /// campaign engine relies on this to boot each scenario once and
    /// fork per seed.
    pub fn fork(&self) -> System {
        System {
            mode: self.mode,
            machine: self.machine.fork(),
            kernel: self.kernel.clone(),
            el2: self.el2.clone(),
            audit_baseline: self.audit_baseline.clone(),
        }
    }

    /// Runs Hypersec's invariant auditor against the live machine state
    /// (Hypernel mode only). See [`Hypersec::audit`].
    pub fn audit_hypersec(&mut self) -> Option<hypernel_hypersec::AuditReport> {
        match &self.el2 {
            El2Software::Hypersec(hs) => Some(hs.audit(&mut self.machine)),
            _ => None,
        }
    }

    /// The static audit's walk baseline, shared with this system's
    /// template and every fork of it (see [`System::fork`]).
    pub fn audit_baseline(&self) -> &WalkBaseline {
        &self.audit_baseline
    }

    /// Runs the whole-system static audit pass (`hypernel-audit`): the
    /// full mapping-graph walk, every static invariant, the
    /// differential comparison against Hypersec's incremental verdict
    /// (Hypernel mode, post-LOCK) and the ownership-sanitizer section
    /// (when enabled). Works in every mode; costs zero simulated
    /// cycles. See [`hypernel_audit::audit_system`].
    pub fn audit_static(&mut self) -> hypernel_audit::StaticAuditReport {
        self.audit().0
    }

    /// Both final-state audits from one Hypersec pass: the static report
    /// of [`System::audit_static`] and the [`Hypersec::audit`] report
    /// its differential compared against (`Some` once Hypersec is
    /// locked, i.e. in Hypernel mode after boot).
    pub fn audit(
        &mut self,
    ) -> (
        hypernel_audit::StaticAuditReport,
        Option<hypernel_hypersec::AuditReport>,
    ) {
        let hypersec = match &self.el2 {
            El2Software::Hypersec(h) => Some(h),
            _ => None,
        };
        hypernel_audit::audit_system(
            &mut self.machine,
            &self.kernel,
            hypersec,
            &self.audit_baseline,
        )
    }

    /// Turns on the guest-memory ownership sanitizer: seeds a shadow
    /// tag for every DRAM page from the current system state and
    /// installs the mode-appropriate write policy (strict for
    /// [`Mode::Hypernel`] — the kernel never writes page tables — and
    /// the relaxed native matrix otherwise). Idempotent; zero simulated
    /// cycles; never changes simulated results.
    pub fn enable_sanitizer(&mut self) {
        if self.machine.shadow_tags().is_some() {
            return;
        }
        let policy = match self.mode {
            Mode::Hypernel => TagPolicy::hypernel(),
            Mode::Native | Mode::KvmGuest => TagPolicy::native(),
        };
        let mbm_config = self.machine.bus().snooper::<Mbm>().map(|mbm| *mbm.config());
        let tags = hypernel_audit::seed_shadow(
            &mut self.machine,
            &self.kernel,
            policy,
            mbm_config.as_ref(),
        );
        self.machine.set_shadow_tags(Some(tags));
    }

    /// Whether the ownership sanitizer is installed.
    pub fn sanitizer_enabled(&self) -> bool {
        self.machine.shadow_tags().is_some()
    }

    /// Services pending interrupts (forwarding MBM events to Hypersec in
    /// Hypernel mode) — call between workload phases.
    ///
    /// # Errors
    ///
    /// Propagates hypercall denials.
    pub fn service_interrupts(&mut self) -> Result<u64, KernelError> {
        let (kernel, machine, hyp) = (&mut self.kernel, &mut self.machine, self.el2.as_hyp_raw());
        // SAFETY of the split: fields are disjoint.
        kernel.poll_irqs(machine, hyp)
    }
}

impl El2Software {
    fn as_hyp_raw(&mut self) -> &mut dyn Hyp {
        self.as_hyp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_boots() {
        let sys = System::boot(Mode::Native).expect("native boot");
        assert_eq!(sys.mode(), Mode::Native);
        assert!(sys.mbm_stats().is_none());
        assert!(sys.hypersec().is_none());
        assert!(sys.kvm().is_none());
    }

    #[test]
    fn kvm_guest_boots_with_stage2() {
        let sys = System::boot(Mode::KvmGuest).expect("kvm boot");
        assert!(sys.machine().regs().stage2_enabled());
        assert!(sys.kvm().is_some());
        assert!(sys.kvm().unwrap().stats().pages_mapped > 0);
    }

    #[test]
    fn hypernel_boots_locked_without_stage2() {
        let sys = System::boot(Mode::Hypernel).expect("hypernel boot");
        assert!(!sys.machine().regs().stage2_enabled(), "no nested paging");
        assert!(sys.machine().regs().tvm_enabled(), "TVM armed");
        let hs = sys.hypersec().expect("hypersec installed");
        assert!(hs.is_locked());
        assert!(hs.stats().tables_registered > 0);
        assert!(sys.mbm_stats().is_some());
    }

    #[test]
    fn hypernel_kernel_ops_route_through_hypercalls() {
        let mut sys = System::boot(Mode::Hypernel).expect("boot");
        let hypercalls_before = sys.machine().stats().hypercalls;
        let (kernel, machine, hyp) = sys.parts();
        let child = kernel.sys_fork(machine, hyp).expect("fork");
        kernel.switch_to(machine, hyp, child).expect("switch");
        kernel
            .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
            .expect("exit");
        assert!(
            sys.machine().stats().hypercalls > hypercalls_before + 20,
            "fork under Hypernel must issue many PT hypercalls"
        );
        assert!(
            sys.machine().stats().sysreg_traps >= 2,
            "TTBR switches trap"
        );
    }

    #[test]
    fn telemetry_captures_cross_el_spans_under_hypernel() {
        use hypernel_telemetry::{SpanKind, Track};
        let mut sys = SystemBuilder::new(Mode::Hypernel)
            .telemetry(DEFAULT_TELEMETRY_CAPACITY)
            .build()
            .expect("boot");
        assert!(sys.telemetry_enabled());
        {
            let (kernel, machine, hyp) = sys.parts();
            let child = kernel.sys_fork(machine, hyp).expect("fork");
            kernel.switch_to(machine, hyp, child).expect("switch");
            kernel
                .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                .expect("exit");
        }
        let snap = sys.telemetry_snapshot().expect("snapshot");
        // Fork under Hypernel routes PT updates through verified
        // hypercalls: both the EL2 verification span and its inner
        // stage-2-equivalent check must have fired.
        let verify = &snap.spans[&(Track::El2, SpanKind::HypercallVerify)];
        assert!(verify.count > 20, "fork issues many PT hypercalls");
        assert!(verify.p50 > 0 && verify.p99 >= verify.p50);
        let check = &snap.spans[&(Track::El2, SpanKind::Stage2Check)];
        assert!(check.count > 0 && check.count <= verify.count);
        // TTBR switches trap and are verified at EL2.
        assert!(snap.spans[&(Track::El2, SpanKind::SysregVerify)].count >= 2);
        assert!(!sys.telemetry_events().unwrap().is_empty());
        assert_eq!(sys.telemetry_dropped(), Some(0));
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let mut sys = System::boot(Mode::Hypernel).expect("boot");
        assert!(!sys.telemetry_enabled());
        assert!(sys.telemetry_snapshot().is_none());
        // Enable, run work, then disable: the stream must stop.
        sys.enable_telemetry(1024);
        {
            let (kernel, machine, _hyp) = sys.parts();
            kernel.sys_getpid(machine);
        }
        let n = sys.telemetry_events().unwrap().len();
        assert!(n > 0, "enabled telemetry records syscall spans");
        sys.disable_telemetry();
        assert!(sys.telemetry_snapshot().is_none());
    }

    #[test]
    fn fork_after_boot_matches_fresh_boot() {
        for mode in [Mode::Native, Mode::KvmGuest, Mode::Hypernel] {
            let template = System::boot(mode).expect("boot template");
            let mut forked = template.fork();
            let mut fresh = System::boot(mode).expect("boot fresh");
            for sys in [&mut forked, &mut fresh] {
                let (kernel, machine, hyp) = sys.parts();
                let child = kernel.sys_fork(machine, hyp).expect("fork");
                kernel.switch_to(machine, hyp, child).expect("switch");
                kernel
                    .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                    .expect("exit");
            }
            assert_eq!(forked.cycles(), fresh.cycles(), "cycles diverge ({mode})");
            assert_eq!(forked.mbm_stats(), fresh.mbm_stats(), "mbm ({mode})");
            assert_eq!(
                forked.machine().stats().hypercalls,
                fresh.machine().stats().hypercalls,
                "hypercalls ({mode})"
            );
            // Work on the fork must not leak back into the template.
            assert_eq!(template.cycles(), System::boot(mode).unwrap().cycles());
        }
    }

    #[test]
    fn fork_counts_faults_apart_from_its_template() {
        use hypernel_kernel::kernel::{MonitorHooks, MonitorMode};
        use hypernel_kernel::task::Pid;
        use hypernel_machine::fault::FaultSpec;
        let template = SystemBuilder::new(Mode::Hypernel)
            .fault_plan(FaultPlan::new().with(FaultSpec::drop_irq(1, 1)))
            .build()
            .expect("boot");
        // A watched write on the fork raises the MBM interrupt, and the
        // fork's injector drops it: the MBM consults the fork's copy.
        let mut forked = template.fork();
        {
            let (kernel, machine, hyp) = forked.parts();
            let hooks = MonitorHooks {
                mode: MonitorMode::SensitiveFields,
            };
            kernel
                .arm_monitor_hooks(machine, hyp, hooks)
                .expect("arm hooks");
            kernel
                .attack_cred_escalation(machine, hyp, Pid(1))
                .expect("attack runs");
        }
        assert_eq!(forked.fault_stats().map(|s| s.irqs_dropped), Some(1));
        // The template's counters never moved, so a second fork starts
        // where the first did.
        assert_eq!(template.fault_stats().map(|s| s.total()), Some(0));
        assert_eq!(template.fork().fault_stats().map(|s| s.total()), Some(0));
    }

    #[test]
    fn static_audit_is_clean_after_boot_in_every_mode() {
        for mode in [Mode::Native, Mode::KvmGuest, Mode::Hypernel] {
            let mut sys = System::boot(mode).expect("boot");
            let report = sys.audit_static();
            assert!(
                report.is_clean(),
                "{mode:?} boot not clean: {:?}",
                report.findings
            );
            assert!(report.roots_walked >= 1);
            assert!(report.leaves_checked > 0);
            assert_eq!(
                report.differential.is_some(),
                mode == Mode::Hypernel,
                "differential runs exactly when Hypersec is locked"
            );
        }
    }

    #[test]
    fn static_audit_stays_clean_across_syscalls() {
        for mode in [Mode::Native, Mode::Hypernel] {
            let mut sys = System::boot(mode).expect("boot");
            {
                let (kernel, machine, hyp) = sys.parts();
                let child = kernel.sys_fork(machine, hyp).expect("fork");
                kernel.switch_to(machine, hyp, child).expect("switch");
                kernel
                    .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                    .expect("exit");
            }
            let report = sys.audit_static();
            assert!(
                report.is_clean(),
                "{mode:?} post-syscall not clean: {:?}",
                report.findings
            );
        }
    }

    #[test]
    fn sanitizer_is_free_and_quiet_on_benign_work() {
        for mode in [Mode::Native, Mode::Hypernel] {
            let mut plain = System::boot(mode).expect("boot");
            let mut tagged = System::boot(mode).expect("boot");
            tagged.enable_sanitizer();
            assert!(tagged.sanitizer_enabled() && !plain.sanitizer_enabled());
            for sys in [&mut plain, &mut tagged] {
                let (kernel, machine, hyp) = sys.parts();
                let child = kernel.sys_fork(machine, hyp).expect("fork");
                kernel.switch_to(machine, hyp, child).expect("switch");
                kernel
                    .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                    .expect("exit");
            }
            // Zero simulated cost: cycle-for-cycle identical runs.
            assert_eq!(plain.cycles(), tagged.cycles(), "sanitizer costs cycles");
            let report = tagged.audit_static();
            let san = report.sanitizer.as_ref().expect("sanitizer section");
            assert!(san.stats.checked > 0, "stores were checked");
            assert_eq!(
                san.stats.denied, 0,
                "benign run denied: {:?}",
                san.violations
            );
        }
    }

    #[test]
    fn same_workload_costs_most_under_kvm_for_fork() {
        let mut costs = Vec::new();
        for mode in [Mode::Native, Mode::KvmGuest, Mode::Hypernel] {
            let mut sys = System::boot(mode).expect("boot");
            let (kernel, machine, hyp) = sys.parts();
            let c0 = machine.cycles();
            for _ in 0..3 {
                let child = kernel.sys_fork(machine, hyp).expect("fork");
                kernel.switch_to(machine, hyp, child).expect("switch");
                kernel
                    .sys_exit(machine, hyp, child, hypernel_kernel::task::Pid(1))
                    .expect("exit");
            }
            costs.push((mode, machine.cycles() - c0));
        }
        let native = costs[0].1 as f64;
        let kvm = costs[1].1 as f64;
        let hypernel = costs[2].1 as f64;
        assert!(kvm > native, "KVM fork slower than native: {costs:?}");
        assert!(
            hypernel > native,
            "Hypernel fork slower than native: {costs:?}"
        );
    }
}
