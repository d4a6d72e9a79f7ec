//! The word-granularity monitoring pipeline end to end (paper Fig. 4):
//! hook → hypercall → bitmap programming + cache-disable → bus-visible
//! write → MBM match → ring buffer → interrupt → Hypersec dispatch →
//! security-application verdict.

use hypernel::hypersec::codes;
use hypernel::kernel::abi::Hypercall;
use hypernel::kernel::kernel::{KernelError, MonitorHooks, MonitorMode};
use hypernel::kernel::kobj::{DentryField, ObjectKind};
use hypernel::kernel::layout;
use hypernel::machine::machine::Exception;
use hypernel::mbm::{Mbm, MbmStats};
use hypernel::workloads::{apps, AppBenchmark};
use hypernel::{Mode, System, SystemBuilder};

fn armed(mode: MonitorMode) -> System {
    let mut sys = System::boot(Mode::Hypernel).expect("boot");
    let (kernel, machine, hyp) = sys.parts();
    kernel
        .arm_monitor_hooks(machine, hyp, MonitorHooks { mode })
        .expect("arm");
    sys
}

#[test]
fn registration_pipeline_reaches_the_bitmap() {
    let mut sys = armed(MonitorMode::SensitiveFields);
    let hs = sys.hypersec().expect("hypersec");
    // Boot dentries + the init cred were swept in.
    assert!(hs.stats().regions_live > 0);
    let regions = hs.regions().len();
    // Creating a file registers its dentry's sensitive runs (3 runs).
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .sys_create(machine, hyp, "/tmp/watched")
            .expect("create");
    }
    let hs = sys.hypersec().expect("hypersec");
    assert_eq!(
        hs.regions().len(),
        regions + ObjectKind::Dentry.sensitive_ranges().len()
    );
}

#[test]
fn word_filtering_is_exact() {
    // Writes to non-sensitive words of a monitored dentry produce no
    // events under sensitive-field monitoring; one sensitive write does.
    let mut sys = armed(MonitorMode::SensitiveFields);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .sys_create(machine, hyp, "/tmp/exact")
            .expect("create");
    }
    sys.service_interrupts().expect("drain");
    sys.reset_mbm_stats();
    let dentry = sys.kernel().dentry_of("/tmp/exact").expect("cached");
    {
        let (_kernel, machine, hyp) = sys.parts();
        // Non-sensitive churn: Count, Seq, Time.
        for f in [DentryField::Count, DentryField::Seq, DentryField::Time] {
            machine
                .write_u64(layout::kva(dentry.add(f.byte_offset())), 7, hyp)
                .expect("write");
        }
    }
    assert_eq!(sys.mbm_stats().unwrap().events_matched, 0);
    {
        let (_kernel, machine, hyp) = sys.parts();
        machine
            .write_u64(
                layout::kva(dentry.add(DentryField::Inode.byte_offset())),
                0xF00D,
                hyp,
            )
            .expect("write");
    }
    assert_eq!(sys.mbm_stats().unwrap().events_matched, 1);
}

#[test]
fn monitored_pages_become_non_cacheable_and_back() {
    let mut sys = armed(MonitorMode::SensitiveFields);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel.sys_create(machine, hyp, "/tmp/nc").expect("create");
    }
    let dentry = sys.kernel().dentry_of("/tmp/nc").expect("cached");
    // Every write to the monitored page goes on the bus.
    let writes0 = sys.machine().bus().writes();
    {
        let (_kernel, machine, hyp) = sys.parts();
        machine
            .write_u64(
                layout::kva(dentry.add(DentryField::Time.byte_offset())),
                1,
                hyp,
            )
            .expect("write");
    }
    assert!(sys.machine().bus().writes() > writes0, "bus-visible");
    // Unlink unregisters; once no region covers the page it may become
    // cacheable again and writes can hide in the cache.
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel.sys_unlink(machine, hyp, "/tmp/nc").expect("unlink");
    }
    // NOTE: other dentries share the slab page, so the page may stay NC;
    // this only asserts the unregister path ran without violation.
    sys.service_interrupts().expect("drain");
}

#[test]
fn monitoring_is_denied_under_the_section_linear_map() {
    // The non-cacheable remap rewrites the linear-map leaf covering a
    // monitored page. Under 2 MiB sections that leaf is a whole block,
    // table pages included, so Hypersec refuses the region instead.
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .section_linear_map(true)
        .build()
        .expect("boot");
    assert!(sys.audit_static().is_clean());
    {
        let (kernel, machine, hyp) = sys.parts();
        let denied = |r: Result<(), KernelError>| {
            matches!(r, Err(KernelError::Machine(Exception::Denied(v)))
                if v.code == codes::BAD_MONITOR_REQUEST)
        };
        let hooks = MonitorHooks {
            mode: MonitorMode::SensitiveFields,
        };
        assert!(denied(kernel.arm_monitor_hooks(machine, hyp, hooks)));
        assert!(denied(kernel.sys_create(machine, hyp, "/tmp/watched")));
    }
    assert_eq!(sys.hypersec().expect("hypersec").regions().len(), 0);
    let (audit, hypersec_audit) = sys.audit();
    assert!(audit.is_clean(), "{:?}", audit.findings);
    assert!(hypersec_audit.expect("locked").is_clean());
}

#[test]
fn interrupt_forwarding_reaches_the_application() {
    let mut sys = armed(MonitorMode::SensitiveFields);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel.sys_create(machine, hyp, "/tmp/irq").expect("create");
    }
    let forwarded0 = sys.kernel().stats().irqs_forwarded;
    let dispatched0 = sys.hypersec().unwrap().stats().events_dispatched;
    let dentry = sys.kernel().dentry_of("/tmp/irq").expect("cached");
    {
        let (_kernel, machine, hyp) = sys.parts();
        machine
            .write_u64(
                layout::kva(dentry.add(DentryField::Parent.byte_offset())),
                0xABC000,
                hyp,
            )
            .expect("write");
    }
    sys.service_interrupts().expect("drain");
    assert!(sys.kernel().stats().irqs_forwarded > forwarded0);
    assert!(sys.hypersec().unwrap().stats().events_dispatched > dispatched0);
}

#[test]
fn duplicate_and_bogus_registrations_are_rejected() {
    let mut sys = armed(MonitorMode::SensitiveFields);
    let (_kernel, machine, hyp) = sys.parts();
    // Unknown sid.
    let (nr, args) = Hypercall::MonitorRegister {
        sid: 999,
        base: layout::kva(hypernel::machine::PhysAddr::new(0x40_0000)),
        len: 8,
    }
    .encode();
    assert!(matches!(
        machine.hvc(nr, args, hyp),
        Err(Exception::Denied(_))
    ));
    // Unaligned region.
    let (nr, args) = Hypercall::MonitorRegister {
        sid: hypernel::kernel::abi::sid::CRED_MONITOR,
        base: layout::kva(hypernel::machine::PhysAddr::new(0x40_0003)),
        len: 8,
    }
    .encode();
    assert!(matches!(
        machine.hvc(nr, args, hyp),
        Err(Exception::Denied(_))
    ));
    // Unregistering something that was never registered.
    let (nr, args) = Hypercall::MonitorUnregister {
        sid: hypernel::kernel::abi::sid::CRED_MONITOR,
        base: layout::kva(hypernel::machine::PhysAddr::new(0x40_0000)),
        len: 8,
    }
    .encode();
    assert!(matches!(
        machine.hvc(nr, args, hyp),
        Err(Exception::Denied(_))
    ));
}

#[test]
fn whole_object_monitoring_sees_the_churn_word_monitoring_skips() {
    let word_events = {
        let mut sys = armed(MonitorMode::SensitiveFields);
        sys.reset_mbm_stats();
        let (kernel, machine, hyp) = sys.parts();
        for i in 0..20 {
            let p = format!("/tmp/churn{i}");
            kernel.sys_create(machine, hyp, &p).expect("create");
            kernel
                .sys_write_file(machine, hyp, &p, 2048)
                .expect("write");
            kernel.sys_stat(machine, hyp, &p).expect("stat");
        }
        sys.mbm_stats().unwrap().events_matched
    };
    let object_events = {
        let mut sys = armed(MonitorMode::WholeObject);
        sys.reset_mbm_stats();
        let (kernel, machine, hyp) = sys.parts();
        for i in 0..20 {
            let p = format!("/tmp/churn{i}");
            kernel.sys_create(machine, hyp, &p).expect("create");
            kernel
                .sys_write_file(machine, hyp, &p, 2048)
                .expect("write");
            kernel.sys_stat(machine, hyp, &p).expect("stat");
        }
        sys.mbm_stats().unwrap().events_matched
    };
    assert!(
        object_events >= word_events * 4,
        "whole-object ({object_events}) must dwarf word-granularity ({word_events})"
    );
}

#[test]
fn mbm_pipeline_statistics_are_consistent() {
    let mut sys = armed(MonitorMode::WholeObject);
    {
        let (kernel, machine, hyp) = sys.parts();
        for i in 0..10 {
            let p = format!("/tmp/s{i}");
            kernel.sys_create(machine, hyp, &p).expect("create");
        }
    }
    sys.service_interrupts().expect("drain");
    let stats = sys.mbm_stats().unwrap();
    assert!(stats.captured >= stats.events_matched);
    assert!(stats.bitmap_lookups >= stats.events_matched);
    assert_eq!(stats.fifo_dropped, 0, "lossless configuration");
    assert_eq!(stats.ring_overflows, 0, "ring drained in time");
    // Hypersec dispatched exactly the matched events (none stray).
    let hs = sys.hypersec().unwrap().stats();
    assert_eq!(hs.events_dispatched + hs.stray_events, stats.events_matched);
}

/// The MBM's watch-word filter is a host fast path: a Table 2
/// application under either granularity ends with the same cycles, MBM
/// and bitmap-cache counters and detections with the filter on or off,
/// while the filter-on run does skip captures.
#[test]
fn watch_word_filter_leaves_a_table2_app_unchanged() {
    let app = AppBenchmark::Iozone;
    for mode in [MonitorMode::SensitiveFields, MonitorMode::WholeObject] {
        let [(on_skips, on), (off_skips, off)] = [true, false].map(|filter| {
            // As `hypernel_bench::trap_events` measures Table 2, with the
            // filter switched after boot.
            let mut sys = System::boot(Mode::Hypernel).expect("boot");
            {
                let (kernel, machine, hyp) = sys.parts();
                let mbm = machine.bus_mut().snooper_mut::<Mbm>().expect("mbm");
                mbm.set_filter_enabled(filter);
                apps::prepare(kernel, machine, hyp, app).expect("prepare");
                kernel
                    .arm_monitor_hooks(machine, hyp, MonitorHooks { mode })
                    .expect("arm");
            }
            sys.reset_mbm_stats();
            {
                let (kernel, machine, hyp) = sys.parts();
                apps::run(kernel, machine, hyp, app, 1, 42).expect("run");
            }
            sys.service_interrupts().expect("drain");
            let mbm = sys.machine().bus().snooper::<Mbm>().expect("mbm");
            let stats = mbm.stats();
            let observed = (
                sys.cycles(),
                MbmStats {
                    page_filter_skips: 0,
                    ..stats
                },
                mbm.bitmap_cache_stats(),
                sys.hypersec().expect("hypersec").detections().to_vec(),
            );
            (stats.page_filter_skips, observed)
        });
        assert!(on_skips > 0, "{mode:?}: the filter ran");
        assert_eq!(off_skips, 0);
        assert!(on.1.events_matched > 0, "{mode:?}: watched words written");
        assert_eq!(on, off, "{mode:?}");
    }
}

#[test]
fn rename_uses_the_authorized_update_window() {
    // rename legitimately rewrites sensitive dentry fields (name hash,
    // parent). Done through the kernel's unregister/rewrite/re-register
    // window it raises no detection; the same writes forged directly do.
    let mut sys = armed(MonitorMode::SensitiveFields);
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .sys_create(machine, hyp, "/tmp/mv-src")
            .expect("create");
        kernel
            .sys_rename(machine, hyp, "/tmp/mv-src", "/tmp/mv-dst")
            .expect("rename");
    }
    sys.service_interrupts().expect("drain");
    assert!(
        sys.hypersec().unwrap().detections().is_empty(),
        "authorized rename flagged: {:?}",
        sys.hypersec().unwrap().detections()
    );
    // Now forge the same field outside a window.
    let dentry = sys.kernel().dentry_of("/tmp/mv-dst").expect("cached");
    {
        let (_kernel, machine, hyp) = sys.parts();
        machine
            .write_u64(
                layout::kva(dentry.add(DentryField::NameHash.byte_offset())),
                0xF0F0,
                hyp,
            )
            .expect("forge");
    }
    sys.service_interrupts().expect("drain");
    assert!(
        !sys.hypersec().unwrap().detections().is_empty(),
        "unauthorized forge must be flagged"
    );
}

#[test]
fn ring_overflow_is_loud_not_silent() {
    // Failure injection: a tiny output ring overflows under an event
    // storm. Events are lost (documented hardware behavior), but the loss
    // is observable — ring_overflows counts every dropped event, so a
    // deployment can size the ring and the interrupt cadence.
    use hypernel::machine::PhysAddr;
    use hypernel::mbm::MbmConfig;
    use hypernel::SystemBuilder;

    let config = MbmConfig::standard(
        PhysAddr::new(hypernel::kernel::layout::MBM_WINDOW_BASE),
        hypernel::kernel::layout::MBM_WINDOW_LEN,
        PhysAddr::new(hypernel::kernel::layout::MBM_BITMAP_BASE),
        PhysAddr::new(hypernel::kernel::layout::MBM_RING_BASE),
        8, // eight entries only
    );
    let mut sys = SystemBuilder::new(hypernel::Mode::Hypernel)
        .mbm_config(config)
        .build()
        .expect("boot");
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .arm_monitor_hooks(
                machine,
                hyp,
                MonitorHooks {
                    mode: MonitorMode::WholeObject,
                },
            )
            .expect("arm");
        // Storm: many monitored writes with no interrupt servicing.
        for i in 0..30 {
            let p = format!("/tmp/storm{i}");
            kernel.sys_create(machine, hyp, &p).expect("create");
        }
    }
    let stats = sys.mbm_stats().expect("mbm");
    assert!(
        stats.ring_overflows > 0,
        "storm must overflow an 8-entry ring"
    );
    let hs = sys.hypersec().unwrap().stats();
    let accounted =
        stats.ring_overflows + hs.events_dispatched + hs.stray_events + ring_backlog(&mut sys);
    assert_eq!(
        stats.events_matched, accounted,
        "every matched event is accounted: delivered, queued, or counted lost"
    );
}

/// Events still sitting in the ring (matched, not yet dispatched).
fn ring_backlog(sys: &mut System) -> u64 {
    use hypernel::mbm::RingLayout;
    let ring = RingLayout::new(
        hypernel::machine::PhysAddr::new(hypernel::kernel::layout::MBM_RING_BASE),
        8,
    );
    ring.len(sys.machine_mut().mem_mut())
}

#[test]
fn custom_whitelist_app_rides_the_same_pipeline() {
    // Host a third-party security application (a KI-Mon-style vtable
    // guard) next to the built-in monitors and drive it end to end.
    use hypernel::hypersec::ValueWhitelistMonitor;
    use hypernel::kernel::abi::Hypercall;
    use hypernel::SystemBuilder;

    const GUARD_SID: u32 = 40;
    let mut sys = SystemBuilder::new(Mode::Hypernel)
        .app(Box::new(ValueWhitelistMonitor::new(
            GUARD_SID,
            "vtable-guard",
            [0],
            [0xD0, 0xD1],
        )))
        .build()
        .expect("boot");
    // Register one watched word on behalf of the custom app: the d_op
    // slot of a file's dentry.
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel.sys_create(machine, hyp, "/tmp/vt").expect("create");
    }
    let dentry = sys.kernel().dentry_of("/tmp/vt").expect("cached");
    let op_va = layout::kva(dentry.add(DentryField::Op.byte_offset()));
    {
        let (_kernel, machine, hyp) = sys.parts();
        let (nr, args) = Hypercall::MonitorRegister {
            sid: GUARD_SID,
            base: op_va,
            len: 8,
        }
        .encode();
        machine.hvc(nr, args, hyp).expect("register");
        // A whitelisted vtable swap: benign.
        machine.write_u64(op_va, 0xD1, hyp).expect("write");
        // A forged pointer: malicious.
        machine.write_u64(op_va, 0xBADBAD, hyp).expect("write");
    }
    sys.service_interrupts().expect("drain");
    let detections = sys.hypersec().unwrap().detections();
    let guard_hits: Vec<_> = detections.iter().filter(|d| d.sid == GUARD_SID).collect();
    assert_eq!(
        guard_hits.len(),
        1,
        "exactly the forged write: {detections:?}"
    );
    assert!(guard_hits[0].reason.contains("whitelist"));
}
