#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hypernel-hypervisor
//!
//! A KVM/ARM-style **nested-paging hypervisor**, the baseline the paper
//! compares against (§7.1, "KVM-guest"). It provides exactly the costs
//! Hypernel is designed to avoid:
//!
//! * **Stage-2 translation** for every EL0/EL1 access — two-stage table
//!   walks on TLB misses, the "up to about 30 %" overhead the paper cites
//!   from Dall et al. (ISCA'16).
//! * **Lazily populated stage-2 tables**: the first guest touch of each
//!   physical page exits to the host, which allocates and maps it — the
//!   dominant cost of fork/exec-heavy workloads in a VM.
//! * **WFI trapping**: blocking waits exit to the host scheduler, taxing
//!   pipe/socket round trips.
//!
//! Table 2's page-granularity column (the trap-and-emulate monitoring
//! scheme's granularity gap) comes from the whole-object estimator
//! (`MonitorMode::WholeObject`), as in the paper, not from stage-2 write
//! protection here.

use hypernel_machine::addr::{IntermAddr, PhysAddr, PAGE_SIZE};
use hypernel_machine::machine::{AccessKind, Hyp, Machine, PolicyViolation};
use hypernel_machine::pagetable::{self, PagePerms};
use hypernel_machine::regs::{hcr, ExceptionLevel, SysReg};

/// Configuration of the KVM-style hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvmConfig {
    /// Host memory region for stage-2 tables (the guest never sees it).
    pub host_base: PhysAddr,
    /// Size of the host region in bytes.
    pub host_len: u64,
    /// Guest "physical" (IPA) space: `[0, guest_len)`, identity-mapped.
    pub guest_len: u64,
    /// Host-side compute per stage-2 fault (get_user_pages, mm locking…).
    pub stage2_fault_compute: u64,
    /// Host-side compute per WFI exit (host scheduler round trip).
    pub wfi_exit_compute: u64,
    /// Cost of a trapped SGI (vGIC virtual-IPI injection).
    pub sgi_exit_compute: u64,
}

impl KvmConfig {
    /// Defaults matching the simulated platform layout, with fault costs
    /// calibrated against the paper's Table 1 KVM column.
    pub fn standard(host_base: PhysAddr, host_len: u64, guest_len: u64) -> Self {
        Self {
            host_base,
            host_len,
            guest_len,
            stage2_fault_compute: 16_000,
            wfi_exit_compute: 900,
            sgi_exit_compute: 800,
        }
    }
}

/// Statistics of hypervisor activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvmStats {
    /// Stage-2 faults taken (lazy population).
    pub stage2_faults: u64,
    /// Pages mapped into stage 2.
    pub pages_mapped: u64,
    /// WFI exits.
    pub wfi_exits: u64,
    /// SGI (virtual IPI) exits.
    pub sgi_exits: u64,
    /// Writes trapped by page-granularity protection. Nothing protects
    /// a page any more, so it reads 0; a benchmark digest still hashes
    /// it.
    pub protection_traps: u64,
}

/// Violation codes reported by the hypervisor.
pub mod codes {
    /// Guest touched an IPA outside its memory.
    pub const BAD_IPA: u32 = 0x4B01;
    /// The host ran out of stage-2 table memory.
    pub const HOST_OOM: u32 = 0x4B02;
    /// The guest issued a hypercall KVM does not provide.
    pub const NO_SUCH_HYPERCALL: u32 = 0x4B03;
}

/// The KVM-style hypervisor. Implements [`Hyp`]; install with
/// [`KvmHypervisor::install`] before booting the guest kernel.
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_machine::machine::{Machine, MachineConfig};
/// use hypernel_hypervisor::{KvmConfig, KvmHypervisor};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let mut kvm = KvmHypervisor::new(KvmConfig::standard(
///     PhysAddr::new(0x7800_0000), // host region: top of DRAM
///     128 << 20,
///     0x7800_0000,                // guest sees everything below it
/// ));
/// kvm.install(&mut machine);
/// assert!(machine.regs().stage2_enabled());
/// ```
#[derive(Debug, Clone)]
pub struct KvmHypervisor {
    config: KvmConfig,
    s2_root: PhysAddr,
    next_table: u64,
    stats: KvmStats,
}

impl KvmHypervisor {
    /// Creates a hypervisor; call [`KvmHypervisor::install`] next.
    pub fn new(config: KvmConfig) -> Self {
        Self {
            config,
            s2_root: config.host_base,
            next_table: config.host_base.raw() + PAGE_SIZE,
            stats: KvmStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> KvmStats {
        self.stats
    }

    /// Installs stage-2 translation: builds an empty stage-2 root, points
    /// `VTTBR_EL2` at it and sets `HCR_EL2.VM`. The machine must be at
    /// EL2 (boot state).
    ///
    /// # Panics
    ///
    /// Panics if the machine is not at EL2.
    pub fn install(&mut self, m: &mut Machine) {
        assert_eq!(m.el(), ExceptionLevel::El2, "install requires EL2 (boot)");
        m.debug_zero_page(self.s2_root);
        m.el2_write_sysreg(SysReg::VTTBR_EL2, self.s2_root.raw());
        m.el2_write_sysreg(SysReg::HCR_EL2, hcr::VM);
    }

    /// Maps the guest page holding `ipa` into stage 2, read-write and
    /// cacheable.
    fn map_ipa(&mut self, m: &mut Machine, ipa: IntermAddr) -> Result<(), PolicyViolation> {
        let page = IntermAddr::new(ipa.raw() & !(PAGE_SIZE - 1));
        let mut fresh: Vec<PhysAddr> = Vec::new();
        let root = self.s2_root;
        let end = self.config.host_base.raw() + self.config.host_len;
        let mut next = self.next_table;
        let plan_result = {
            let mut view = m.pt_view();
            pagetable::plan_map(
                &mut view,
                root,
                page.raw(),
                page.as_phys(),
                PagePerms::KERNEL_DATA,
                3,
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
        };
        self.next_table = next;
        let plan = plan_result.map_err(|e| {
            PolicyViolation::new(codes::HOST_OOM, format!("stage-2 map failed: {e}"))
        })?;
        for t in &fresh {
            m.debug_zero_page(*t);
        }
        for w in &plan.writes {
            let mut view = m.pt_view();
            pagetable::apply_entry_write(&mut view, *w);
        }
        self.stats.pages_mapped += 1;
        Ok(())
    }

    /// Eagerly maps the guest IPA range `[0, up_to)` (RW, cacheable),
    /// used after guest boot so that only *post-boot* allocations fault
    /// lazily — mirroring a guest whose boot-time memory is warm.
    ///
    /// # Panics
    ///
    /// Panics if the host table region is too small.
    pub fn prefault(&mut self, m: &mut Machine, up_to: PhysAddr) {
        let mut ipa = 0u64;
        while ipa < up_to.raw().min(self.config.guest_len) {
            self.map_ipa(m, IntermAddr::new(ipa))
                .expect("host table region exhausted during prefault");
            ipa += PAGE_SIZE;
        }
        m.tlbi_stage2();
    }
}

impl Hyp for KvmHypervisor {
    fn on_hypercall(
        &mut self,
        _machine: &mut Machine,
        call: u64,
        _args: [u64; 4],
    ) -> Result<u64, PolicyViolation> {
        Err(PolicyViolation::new(
            codes::NO_SUCH_HYPERCALL,
            format!("KVM provides no hypercall {call:#x}"),
        ))
    }

    fn on_sysreg_trap(
        &mut self,
        _machine: &mut Machine,
        reg: SysReg,
        _value: u64,
    ) -> Result<(), PolicyViolation> {
        // This model's KVM does not set TVM; a trap here is a config bug.
        Err(PolicyViolation::new(
            codes::NO_SUCH_HYPERCALL,
            format!("unexpected {reg} trap under KVM"),
        ))
    }

    fn on_stage2_fault(
        &mut self,
        machine: &mut Machine,
        ipa: IntermAddr,
        _kind: AccessKind,
    ) -> Result<(), PolicyViolation> {
        self.stats.stage2_faults += 1;
        machine.charge(self.config.stage2_fault_compute);
        if ipa.raw() >= self.config.guest_len {
            return Err(PolicyViolation::new(
                codes::BAD_IPA,
                format!("guest access outside memory at {ipa}"),
            ));
        }
        // Lazy population.
        self.map_ipa(machine, ipa)
    }

    fn on_wfi(&mut self, machine: &mut Machine) {
        self.stats.wfi_exits += 1;
        machine.charge_world_switch();
        machine.charge(self.config.wfi_exit_compute);
    }

    fn on_sgi(&mut self, machine: &mut Machine) {
        self.stats.sgi_exits += 1;
        machine.charge(self.config.sgi_exit_compute);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::addr::VirtAddr;
    use hypernel_machine::machine::{Exception, MachineConfig};
    use hypernel_machine::pagetable::{apply_entry_write, plan_map};
    use hypernel_machine::regs::sctlr;

    const GUEST_LEN: u64 = 64 << 20;
    const HOST_BASE: u64 = 64 << 20;

    fn config() -> KvmConfig {
        KvmConfig::standard(PhysAddr::new(HOST_BASE), 32 << 20, GUEST_LEN)
    }

    /// Guest rig: stage-1 identity-maps the low 16 MiB; stage-2 empty.
    fn rig() -> (Machine, KvmHypervisor) {
        let mut m = Machine::new(MachineConfig {
            dram_size: 128 << 20,
            ..MachineConfig::default()
        });
        let mut kvm = KvmHypervisor::new(config());
        kvm.install(&mut m);
        let root = PhysAddr::new(0x10_0000);
        let mut next = 0x20_0000u64;
        for page in (0..(16u64 << 20)).step_by(PAGE_SIZE as usize) {
            let plan = plan_map(
                m.mem_mut(),
                root,
                page,
                PhysAddr::new(page),
                PagePerms::KERNEL_DATA,
                3,
                &mut || {
                    let t = next;
                    next += PAGE_SIZE;
                    Some(PhysAddr::new(t))
                },
            )
            .expect("stage-1 plan");
            for w in &plan.writes {
                apply_entry_write(m.mem_mut(), *w);
            }
        }
        m.el2_write_sysreg(SysReg::TTBR0_EL1, root.raw());
        m.el2_write_sysreg(SysReg::TTBR1_EL1, root.raw());
        m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
        m.set_el(ExceptionLevel::El1);
        (m, kvm)
    }

    #[test]
    fn first_touch_faults_then_succeeds() {
        let (mut m, mut kvm) = rig();
        let va = VirtAddr::new(0x50_0000);
        m.write_u64(va, 7, &mut kvm).expect("lazy populate + retry");
        assert!(kvm.stats().stage2_faults >= 1);
        assert!(kvm.stats().pages_mapped >= 1);
        let faults = kvm.stats().stage2_faults;
        m.write_u64(va.add(8), 8, &mut kvm).expect("warm");
        assert_eq!(kvm.stats().stage2_faults, faults, "no refault on warm page");
    }

    #[test]
    fn prefault_avoids_lazy_faults() {
        let (mut m, mut kvm) = rig();
        kvm.prefault(&mut m, PhysAddr::new(16 << 20));
        let before = kvm.stats().stage2_faults;
        m.write_u64(VirtAddr::new(0x50_0000), 7, &mut kvm)
            .expect("warm");
        assert_eq!(kvm.stats().stage2_faults, before);
    }

    #[test]
    fn nested_translation_cold_miss_is_expensive() {
        let (mut m, mut kvm) = rig();
        kvm.prefault(&mut m, PhysAddr::new(16 << 20));
        m.tlbi_all();
        let c0 = m.cycles();
        m.read_u64(VirtAddr::new(0x51_0000), &mut kvm)
            .expect("read");
        let cold = m.cycles() - c0;
        let c1 = m.cycles();
        m.read_u64(VirtAddr::new(0x51_0000), &mut kvm)
            .expect("read");
        let warm = m.cycles() - c1;
        assert!(cold > warm * 3, "nested walk cold={cold} warm={warm}");
    }

    #[test]
    fn out_of_guest_memory_is_denied() {
        let (mut m, mut kvm) = rig();
        let root = PhysAddr::new(0x10_0000);
        let bad_ipa = GUEST_LEN + 0x1000;
        let mut next = 0x1F0_0000u64;
        let plan = plan_map(
            m.mem_mut(),
            root,
            0xF00_0000,
            PhysAddr::new(bad_ipa),
            PagePerms::KERNEL_DATA,
            3,
            &mut || {
                let t = next;
                next += PAGE_SIZE;
                Some(PhysAddr::new(t))
            },
        )
        .expect("plan");
        for w in &plan.writes {
            apply_entry_write(m.mem_mut(), *w);
        }
        let err = m.read_u64(VirtAddr::new(0xF00_0000), &mut kvm).unwrap_err();
        assert!(matches!(err, Exception::Denied(v) if v.code == codes::BAD_IPA));
    }

    #[test]
    fn wfi_exits_cost_cycles() {
        let (mut m, mut kvm) = rig();
        let c0 = m.cycles();
        m.wfi(&mut kvm);
        assert!(m.cycles() - c0 >= 1500);
        assert_eq!(kvm.stats().wfi_exits, 1);
    }

    #[test]
    fn kvm_rejects_hypercalls() {
        let (mut m, mut kvm) = rig();
        let err = m.hvc(0x100, [0; 4], &mut kvm).unwrap_err();
        assert!(matches!(err, Exception::Denied(v) if v.code == codes::NO_SUCH_HYPERCALL));
    }
}
