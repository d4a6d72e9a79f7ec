//! Behavioral tests for the Hypersec runtime against a real booted
//! kernel: lifecycle phases, handler edge cases, and the invariant
//! auditor (including deliberate state corruption it must catch).

use hypernel_hypersec::{codes, CredMonitor, DentryMonitor, Hypersec, HypersecConfig};
use hypernel_kernel::abi::Hypercall;
use hypernel_kernel::kernel::{Kernel, KernelConfig};
use hypernel_kernel::layout;
use hypernel_kernel::pgtable::LinearMapMode;
use hypernel_kernel::task::Pid;
use hypernel_machine::addr::{PhysAddr, VirtAddr, SECTION_SIZE};
use hypernel_machine::machine::{Exception, Machine, MachineConfig};
use hypernel_machine::pagetable::{self, desc, Descriptor, PagePerms};
use hypernel_machine::regs::SysReg;

fn boot() -> (Machine, Hypersec, Kernel) {
    boot_with(KernelConfig::hypernel())
}

fn boot_with(config: KernelConfig) -> (Machine, Hypersec, Kernel) {
    let mut m = Machine::new(MachineConfig {
        dram_size: layout::DRAM_SIZE,
        ..MachineConfig::default()
    });
    // Attach the MBM hardware so the monitoring pipeline is live.
    let mbm_config = hypernel_mbm::MbmConfig::standard(
        PhysAddr::new(layout::MBM_WINDOW_BASE),
        layout::MBM_WINDOW_LEN,
        PhysAddr::new(layout::MBM_BITMAP_BASE),
        PhysAddr::new(layout::MBM_RING_BASE),
        layout::MBM_RING_ENTRIES,
    );
    m.bus_mut()
        .attach(Box::new(hypernel_mbm::Mbm::new(mbm_config)));
    let mut hs = Hypersec::install(&mut m, HypersecConfig::standard());
    hs.install_app(Box::new(CredMonitor::new()));
    hs.install_app(Box::new(DentryMonitor::new()));
    let k = Kernel::boot(&mut m, &mut hs, config).expect("boot");
    (m, hs, k)
}

#[test]
fn install_configures_el2_without_nested_paging() {
    let mut m = Machine::new(MachineConfig {
        dram_size: layout::DRAM_SIZE,
        ..MachineConfig::default()
    });
    let hs = Hypersec::install(&mut m, HypersecConfig::standard());
    assert!(!hs.is_locked());
    assert!(m.regs().tvm_enabled(), "TVM armed at init (paper §6.1)");
    assert!(!m.regs().stage2_enabled(), "no nested paging, ever");
    assert_ne!(m.read_sysreg(SysReg::TTBR0_EL2), 0, "EL2 table installed");
    assert_ne!(m.read_sysreg(SysReg::SP_EL2), 0, "EL2 stack installed");
}

#[test]
fn boot_locks_and_adopts_the_kernel_tables() {
    let (_m, hs, k) = boot();
    assert!(hs.is_locked());
    let _ = &k;
    assert!(
        hs.stats().tables_registered > 0,
        "LOCK adopted the boot tables"
    );
    assert!(hs.stats().sysreg_allowed > 0, "boot-phase traps allowed");
    assert_eq!(hs.stats().sysreg_denied, 0);
}

#[test]
fn audit_is_clean_after_boot_and_heavy_use() {
    let (mut m, mut hs, mut k) = boot();
    let report = hs.audit(&mut m);
    assert!(
        report.is_clean(),
        "boot violations: {:?}",
        report.violations
    );
    assert!(report.tables_checked > 2);
    assert!(
        report.leaves_checked > 1000,
        "the whole linear map is walked"
    );

    // Heavy churn: processes, exec, files, monitoring.
    {
        use hypernel_kernel::kernel::{MonitorHooks, MonitorMode};
        k.arm_monitor_hooks(
            &mut m,
            &mut hs,
            MonitorHooks {
                mode: MonitorMode::SensitiveFields,
            },
        )
        .expect("arm");
        for i in 0..5 {
            let child = k.sys_fork(&mut m, &mut hs).expect("fork");
            k.switch_to(&mut m, &mut hs, child).expect("switch");
            k.sys_execve(&mut m, &mut hs, "/bin/sh").expect("exec");
            let p = format!("/tmp/audit{i}");
            k.sys_create(&mut m, &mut hs, &p).expect("create");
            k.sys_write_file(&mut m, &mut hs, &p, 2048).expect("write");
            k.sys_exit(&mut m, &mut hs, child, Pid(1)).expect("exit");
            k.poll_irqs(&mut m, &mut hs).expect("irqs");
        }
    }
    let report = hs.audit(&mut m);
    assert!(
        report.is_clean(),
        "post-churn violations: {:?}",
        report.violations
    );
    assert!(report.regions_checked > 0, "monitored regions audited");
}

#[test]
fn audit_catches_smuggled_secure_mapping() {
    // Simulate a hypothetical Hypersec bug/bypass: a leaf pointing into
    // the secure region appears behind Hypersec's back (debug write).
    let (mut m, hs, k) = boot();
    let root = k.task(Pid(1)).expect("init").user_root;
    let evil = Descriptor::Leaf {
        out: PhysAddr::new(layout::SECURE_BASE),
        perms: PagePerms::KERNEL_DATA,
    }
    .encode();
    // Forge directly into the root's entry 7 (bypassing verification).
    m.debug_write_phys(root.add(7 * 8), evil);
    let report = hs.audit(&mut m);
    assert!(!report.is_clean());
    assert!(report
        .violations
        .iter()
        .any(|v| v.contains("secure") || v.contains("not registered")));
}

#[test]
fn audit_catches_rewritable_table_page() {
    let (mut m, hs, k) = boot();
    // Flip the kernel linear-map leaf for the kernel root back to RW,
    // behind Hypersec's back.
    let kernel_root = k.kernel_root();
    let kva = layout::kva(kernel_root);
    let write = {
        let mut view = m.pt_view();
        hypernel_machine::pagetable::plan_protect(
            &mut view,
            kernel_root,
            kva.raw(),
            PagePerms::KERNEL_DATA,
        )
    }
    .expect("mapped");
    m.debug_write_phys(write.addr(), write.value);
    let report = hs.audit(&mut m);
    assert!(report
        .violations
        .iter()
        .any(|v| v.contains("writable in the kernel view")));
}

/// Invariant 5 as one `pagetable::walk` per registered table, in
/// ascending table order: the reference `Hypersec::audit` must match.
fn read_only_reference(m: &mut Machine, hs: &Hypersec) -> Vec<String> {
    let root = hs.kernel_root().expect("locked");
    let mut view = m.pt_view();
    hs.verified_tables()
        .into_iter()
        .filter_map(
            |table| match pagetable::walk(&mut view, root, layout::kva(table).raw()) {
                Ok(res) if res.perms.write => {
                    Some(format!("table page {table} is writable in the kernel view"))
                }
                Ok(_) => None,
                Err(_) => Some(format!("table page {table} has no kernel mapping")),
            },
        )
        .collect()
}

/// Registers zeroed root tables at pages of the guest's choosing, above
/// the boot allocations: two in each of three consecutive 2 MiB regions.
/// Tables then span several regions of one 1 GiB region under either
/// linear map (the section map's boot tables share one region).
fn register_spread_roots(m: &mut Machine, hs: &mut Hypersec, k: &Kernel) {
    let base = (k.frames_watermark().raw() + 2 * SECTION_SIZE) & !(SECTION_SIZE - 1);
    for region in 0..3 {
        for page in [0x3000, 0x1f_d000] {
            let table = PhysAddr::new(base + region * SECTION_SIZE + page);
            m.debug_zero_page(table);
            let (nr, args) = Hypercall::PtRegisterTable { table, root: true }.encode();
            m.hvc(nr, args, hs).expect("register a root table");
        }
    }
}

/// Corrupts the kernel linear map behind Hypersec's back: in each
/// 2 MiB region of the first table's 1 GiB region that holds registered
/// tables, the leaf over the first and the last of them turns writable,
/// and the leaf over the middle table of the last region is unmapped.
/// Under the section map a leaf is the region's whole block. Hypersec's
/// invariant-5 violations must equal the reference walk's, in order.
fn invariant_5_matches_the_per_table_walk(config: KernelConfig) {
    let (mut m, mut hs, k) = boot_with(config);
    register_spread_roots(&mut m, &mut hs, &k);
    let root = k.kernel_root();
    let tables = hs.verified_tables();
    let gib = layout::kva(tables[0]).raw() >> 30;
    let mut regions: Vec<Vec<PhysAddr>> = Vec::new();
    for table in tables {
        let va = layout::kva(table).raw();
        if va >> 30 != gib {
            continue;
        }
        match regions.last_mut() {
            Some(region) if layout::kva(region[0]).raw() >> 21 == va >> 21 => region.push(table),
            _ => regions.push(vec![table]),
        }
    }
    assert!(regions.len() >= 3, "tables in {} region(s)", regions.len());
    let mut leaf_of = |table: PhysAddr| {
        let mut view = m.pt_view();
        let walked = pagetable::walk(&mut view, root, layout::kva(table).raw()).expect("mapped");
        *walked.accesses.last().expect("a walk reads its leaf")
    };
    let mut writable = Vec::new();
    for region in &regions {
        writable.push(leaf_of(region[0]));
        writable.push(leaf_of(region[region.len() - 1]));
    }
    let last = regions.last().expect("three regions");
    let unmapped = leaf_of(last[last.len() / 2]);
    for leaf in writable {
        let raw = m.debug_read_phys(leaf);
        m.debug_write_phys(leaf, raw & !desc::RO);
    }
    m.debug_write_phys(unmapped, 0);

    let expected = read_only_reference(&mut m, &hs);
    assert!(expected
        .iter()
        .any(|v| v.ends_with("writable in the kernel view")));
    assert!(expected
        .iter()
        .any(|v| v.ends_with("has no kernel mapping")));
    let report = hs.audit(&mut m);
    let invariant_5: Vec<String> = report
        .violations
        .into_iter()
        .filter(|v| v.starts_with("table page "))
        .collect();
    assert_eq!(invariant_5, expected);
}

#[test]
fn invariant_5_matches_the_per_table_walk_under_the_page_map() {
    invariant_5_matches_the_per_table_walk(KernelConfig::hypernel());
}

#[test]
fn invariant_5_matches_the_per_table_walk_under_the_section_map() {
    invariant_5_matches_the_per_table_walk(KernelConfig {
        linear_map: LinearMapMode::Sections,
        ..KernelConfig::hypernel()
    });
}

#[test]
fn audit_catches_disarmed_watch_bits() {
    use hypernel_kernel::kernel::{MonitorHooks, MonitorMode};
    let (mut m, mut hs, mut k) = boot();
    k.arm_monitor_hooks(
        &mut m,
        &mut hs,
        MonitorHooks {
            mode: MonitorMode::SensitiveFields,
        },
    )
    .expect("arm");
    assert!(hs.audit(&mut m).is_clean());
    // Clear the whole bitmap behind Hypersec's back (what a DMA-capable
    // attacker would try — paper §8).
    let region = hs.regions()[0];
    let config = HypersecConfig::standard();
    for u in config.bitmap.plan_update(region.pa, region.len, false) {
        let v = u.apply_to(m.debug_read_phys(u.word));
        m.debug_write_phys(u.word, v);
    }
    let report = hs.audit(&mut m);
    assert!(report
        .violations
        .iter()
        .any(|v| v.contains("watch bit missing")));
}

/// Arming the monitor hooks registers the cached dentries in ascending
/// address order, as it does the creds: the order of the
/// `MONITOR_REGISTER` calls, and through it the model's cache state,
/// must not follow the host's hash order of the dentry cache.
#[test]
fn arming_registers_cached_dentries_in_address_order() {
    use hypernel_kernel::abi::sid;
    use hypernel_kernel::kernel::{MonitorHooks, MonitorMode};
    let (mut m, mut hs, mut k) = boot();
    for i in 0..16 {
        k.sys_create(&mut m, &mut hs, &format!("/tmp/f{i}"))
            .expect("create");
    }
    k.arm_monitor_hooks(
        &mut m,
        &mut hs,
        MonitorHooks {
            mode: MonitorMode::SensitiveFields,
        },
    )
    .expect("arm");
    let dentries: Vec<PhysAddr> = hs
        .regions()
        .iter()
        .filter(|r| r.sid == sid::DENTRY_MONITOR)
        .map(|r| r.pa)
        .collect();
    assert!(dentries.len() >= 16, "{} dentry regions", dentries.len());
    assert!(
        dentries.windows(2).all(|w| w[0] < w[1]),
        "registered out of address order: {dentries:?}"
    );
}

#[test]
fn pt_register_rejects_garbage() {
    let (mut m, mut hs, mut k) = boot();
    // Non-aligned.
    let (nr, args) = Hypercall::PtRegisterTable {
        table: PhysAddr::new(0x40_0008),
        root: false,
    }
    .encode();
    assert!(
        matches!(m.hvc(nr, args, &mut hs), Err(Exception::Denied(v)) if v.code == codes::BAD_TABLE_REGISTRATION)
    );
    // In the secure region.
    let (nr, args) = Hypercall::PtRegisterTable {
        table: PhysAddr::new(layout::SECURE_BASE + 0x1000),
        root: false,
    }
    .encode();
    assert!(
        matches!(m.hvc(nr, args, &mut hs), Err(Exception::Denied(v)) if v.code == codes::BAD_TABLE_REGISTRATION)
    );
    // Not zeroed.
    let dirty = k.alloc_raw_frame().expect("frame");
    m.debug_write_phys(dirty.add(64), 0xFF);
    let (nr, args) = Hypercall::PtRegisterTable {
        table: dirty,
        root: false,
    }
    .encode();
    assert!(
        matches!(m.hvc(nr, args, &mut hs), Err(Exception::Denied(v)) if v.code == codes::BAD_TABLE_REGISTRATION)
    );
    // Double registration.
    let fresh = k.alloc_raw_frame().expect("frame");
    m.debug_zero_page(fresh);
    let (nr, args) = Hypercall::PtRegisterTable {
        table: fresh,
        root: true,
    }
    .encode();
    m.hvc(nr, args, &mut hs).expect("first registration");
    assert!(
        matches!(m.hvc(nr, args, &mut hs), Err(Exception::Denied(v)) if v.code == codes::BAD_TABLE_REGISTRATION)
    );
}

#[test]
fn pt_write_polices_wxorx() {
    let (mut m, mut hs, mut k) = boot();
    // Build a root -> L1 chain, then attempt a writable+executable 1 GiB
    // block leaf at L1 (small enough not to trip the secure-region check
    // first, so the W^X verdict is isolated).
    let root = k.alloc_raw_frame().expect("frame");
    let l1 = k.alloc_raw_frame().expect("frame");
    m.debug_zero_page(root);
    m.debug_zero_page(l1);
    let (nr, args) = Hypercall::PtRegisterTable {
        table: root,
        root: true,
    }
    .encode();
    m.hvc(nr, args, &mut hs).expect("register root");
    let (nr, args) = Hypercall::PtRegisterTable {
        table: l1,
        root: false,
    }
    .encode();
    m.hvc(nr, args, &mut hs).expect("register l1");
    let (nr, args) = Hypercall::PtWrite {
        table: root,
        index: 0,
        value: Descriptor::Table { next: l1 }.encode(),
    }
    .encode();
    m.hvc(nr, args, &mut hs).expect("link l1");
    let wx = Descriptor::Leaf {
        out: PhysAddr::new(0),
        perms: PagePerms {
            write: true,
            exec: true,
            user: true,
            cacheable: true,
        },
    }
    .encode();
    let (nr, args) = Hypercall::PtWrite {
        table: l1,
        index: 0,
        value: wx,
    }
    .encode();
    let err = m.hvc(nr, args, &mut hs).expect_err("W^X must be denied");
    assert!(matches!(err, Exception::Denied(v) if v.code == codes::WXORX));
}

#[test]
fn kernel_root_cannot_be_retired() {
    let (mut m, mut hs, k) = boot();
    let (nr, args) = Hypercall::PtUnregisterTable {
        table: k.kernel_root(),
    }
    .encode();
    let err = m
        .hvc(nr, args, &mut hs)
        .expect_err("kernel root is permanent");
    assert!(matches!(err, Exception::Denied(v) if v.code == codes::BAD_TABLE_REGISTRATION));
}

#[test]
fn monitor_register_requires_mapped_kernel_va() {
    let (mut m, mut hs, _k) = boot();
    // A kernel VA that is not mapped (beyond the linear map).
    let (nr, args) = Hypercall::MonitorRegister {
        sid: hypernel_kernel::abi::sid::CRED_MONITOR,
        base: VirtAddr::new(layout::LINEAR_BASE + layout::SECURE_BASE + 0x1000),
        len: 8,
    }
    .encode();
    let err = m.hvc(nr, args, &mut hs).expect_err("unmapped region");
    assert!(matches!(err, Exception::Denied(v) if v.code == codes::BAD_MONITOR_REQUEST));
}

#[test]
fn irq_notify_on_empty_ring_is_harmless() {
    let (mut m, mut hs, _k) = boot();
    let (nr, args) = Hypercall::IrqNotify.encode();
    let drained = m.hvc(nr, args, &mut hs).expect("empty drain");
    assert_eq!(drained, 0);
}

#[test]
fn detections_can_be_drained() {
    use hypernel_kernel::kernel::{MonitorHooks, MonitorMode};
    let (mut m, mut hs, mut k) = boot();
    k.arm_monitor_hooks(
        &mut m,
        &mut hs,
        MonitorHooks {
            mode: MonitorMode::SensitiveFields,
        },
    )
    .expect("arm");
    k.attack_cred_escalation(&mut m, &mut hs, Pid(1))
        .expect("attack");
    k.poll_irqs(&mut m, &mut hs).expect("irqs");
    assert!(!hs.detections().is_empty());
    let taken = hs.take_detections();
    assert!(!taken.is_empty());
    assert!(hs.detections().is_empty());
}

#[test]
fn rule_metadata_is_the_single_source_of_truth() {
    // `ALL` is a convenience projection of `METADATA`: same codes, same
    // order, and `name()` agrees with every row. Surfaces are non-empty
    // so reports always have something to print.
    let metadata_codes: Vec<u32> = codes::METADATA.iter().map(|m| m.code).collect();
    assert_eq!(metadata_codes, codes::ALL.to_vec());
    for meta in codes::METADATA {
        assert_eq!(codes::name(meta.code), meta.name);
        assert_eq!(codes::meta(meta.code), Some(meta));
        assert!(!meta.surface.is_empty());
        // Kebab-case names (digits allowed: `no-stage2`) — these are
        // coverage-key segments, so the charset is contractual.
        assert!(meta
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
    }
    assert_eq!(codes::name(0xDEAD), "unknown-code");
    assert_eq!(codes::meta(0xDEAD), None);
}
