//! Adversarial property testing of the Hypersec verification surface:
//! an attacker who fully controls the hypercall arguments (and the
//! trapped register values) fires arbitrary sequences at Hypersec. Some
//! calls are denied, some are accepted — but **no sequence may leave the
//! machine in a state that violates the security invariants**, as
//! checked by re-walking the real machine state with `Hypersec::audit`.
//!
//! This is the testable stand-in for the formal verification the paper's
//! §8 proposes for Hypersec's small code base.

use hypernel_hypersec::{codes, CredMonitor, DentryMonitor, Hypersec, HypersecConfig};
use hypernel_kernel::abi::{call, sid};
use hypernel_kernel::kernel::{Kernel, KernelConfig};
use hypernel_kernel::layout;
use hypernel_kernel::task::Pid;
use hypernel_machine::addr::{PhysAddr, PAGE_SIZE};
use hypernel_machine::machine::{Exception, Machine, MachineConfig};
use hypernel_machine::pagetable::{desc, Descriptor, PagePerms};
use hypernel_machine::regs::SysReg;
use proptest::prelude::*;

/// An attacker-chosen EL2 entry.
#[derive(Debug, Clone)]
enum Hostile {
    /// Raw hypercall with semi-structured arguments.
    Hvc {
        nr_idx: u8,
        a0: u64,
        a1: u64,
        a2: u64,
    },
    /// A crafted page-table write against a known table.
    PtWrite {
        table_sel: u8,
        index: u16,
        desc_kind: u8,
        out_page: u32,
    },
    /// Register a page as a table (possibly garbage).
    Register { page: u32, root: bool },
    /// Trapped TTBR/SCTLR write.
    Sysreg { reg_sel: u8, value: u64 },
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    prop_oneof![
        (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(nr_idx, a0, a1, a2)| Hostile::Hvc { nr_idx, a0, a1, a2 }),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<u32>()).prop_map(
            |(table_sel, index, desc_kind, out_page)| Hostile::PtWrite {
                table_sel,
                index,
                desc_kind,
                out_page,
            }
        ),
        (any::<u32>(), any::<bool>()).prop_map(|(page, root)| Hostile::Register { page, root }),
        (any::<u8>(), any::<u64>()).prop_map(|(reg_sel, value)| Hostile::Sysreg { reg_sel, value }),
    ]
}

const CALL_NUMBERS: [u64; 9] = [
    call::PT_WRITE,
    call::PT_REGISTER_TABLE,
    call::PT_UNREGISTER_TABLE,
    call::LOCK,
    call::MONITOR_REGISTER,
    call::MONITOR_UNREGISTER,
    call::IRQ_NOTIFY,
    call::EMULATE_WRITE,
    0xDEAD, // unknown
];

fn boot() -> (Machine, Hypersec, Kernel) {
    let mut m = Machine::new(MachineConfig {
        dram_size: layout::DRAM_SIZE,
        ..MachineConfig::default()
    });
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
    let k = Kernel::boot(&mut m, &mut hs, KernelConfig::hypernel()).expect("boot");
    (m, hs, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_hostile_sequence_breaks_the_invariants(
        ops in prop::collection::vec(arb_hostile(), 1..40),
    ) {
        let (mut m, mut hs, mut k) = boot();
        // Give the attacker a few real handles to aim with: a registered
        // root, a scratch frame pool, the init task's root.
        let init_root = k.task(Pid(1)).expect("init").user_root;
        let mut scratch: Vec<PhysAddr> = Vec::new();
        for _ in 0..8 {
            let f = k.alloc_raw_frame().expect("frame");
            m.debug_zero_page(f);
            scratch.push(f);
        }

        for op in &ops {
            // Every call may be denied; denials are fine. Panics or
            // accepted-but-invariant-breaking calls are not.
            let _ = match op {
                Hostile::Hvc { nr_idx, a0, a1, a2 } => {
                    let nr = CALL_NUMBERS[*nr_idx as usize % CALL_NUMBERS.len()];
                    m.hvc(nr, [*a0, *a1, *a2, 0], &mut hs)
                }
                Hostile::PtWrite { table_sel, index, desc_kind, out_page } => {
                    let table = match table_sel % 3 {
                        0 => init_root,
                        1 => scratch[*table_sel as usize % scratch.len()],
                        _ => k.kernel_root(),
                    };
                    let out = PhysAddr::new(
                        ((*out_page as u64 * PAGE_SIZE) % layout::DRAM_SIZE) & !(PAGE_SIZE - 1),
                    );
                    let value = match desc_kind % 4 {
                        0 => 0,
                        1 => Descriptor::Table { next: out }.encode(),
                        2 => Descriptor::Leaf { out, perms: PagePerms::USER_DATA }.encode(),
                        _ => out.raw() | desc::VALID, // raw block, full perms
                    };
                    m.hvc(
                        call::PT_WRITE,
                        [table.raw(), *index as u64 % 512, value, 0],
                        &mut hs,
                    )
                }
                Hostile::Register { page, root } => {
                    let table = PhysAddr::new(
                        ((*page as u64 * PAGE_SIZE) % layout::DRAM_SIZE) & !(PAGE_SIZE - 1),
                    );
                    m.hvc(
                        call::PT_REGISTER_TABLE,
                        [table.raw(), *root as u64, 0, 0],
                        &mut hs,
                    )
                }
                Hostile::Sysreg { reg_sel, value } => {
                    let reg = match reg_sel % 3 {
                        0 => SysReg::TTBR0_EL1,
                        1 => SysReg::TTBR1_EL1,
                        _ => SysReg::SCTLR_EL1,
                    };
                    m.write_sysreg(reg, *value, &mut hs).map(|_| 0)
                }
            };
        }

        // The MMU is still on and the roots are still sane.
        prop_assert!(m.regs().stage1_enabled(), "MMU must stay enabled");
        let ttbr1 = m.read_sysreg(SysReg::TTBR1_EL1) & desc::ADDR_MASK;
        prop_assert_eq!(PhysAddr::new(ttbr1), k.kernel_root(), "TTBR1 pinned");
        // Every security invariant holds on the live machine state.
        let report = hs.audit(&mut m);
        prop_assert!(
            report.is_clean(),
            "hostile sequence {:?} broke invariants: {:?}",
            ops,
            report.violations
        );
        // And the kernel still works afterwards.
        k.sys_stat(&mut m, &mut hs, "/bin/sh").expect("kernel functional");
    }
}

/// A monitor or table-registration request aimed at a real page: the
/// requests `Hostile::Hvc` almost never reaches, since a random base VA
/// is almost never a mapped kernel address.
#[derive(Debug, Clone)]
struct Aimed {
    call_sel: u8,
    target_sel: u8,
    /// Word offset of a monitored region's base within the page.
    word: u16,
    len_sel: u8,
    /// The cred monitor's sid (else the dentry monitor's) for a region;
    /// whether the page is a root for a table registration.
    flag: bool,
}

fn arb_aimed() -> impl Strategy<Value = Aimed> {
    (
        any::<u8>(),
        any::<u8>(),
        0u16..512,
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(call_sel, target_sel, word, len_sel, flag)| Aimed {
            call_sel,
            target_sel,
            word,
            len_sel,
            flag,
        })
}

/// The pages worth aiming at: the kernel root, init's root, kernel text,
/// init's live cred, then scratch frames (the first four registered as
/// tables, two roots and two pending, and the rest plain data).
fn targets(m: &mut Machine, hs: &mut Hypersec, k: &mut Kernel) -> Vec<PhysAddr> {
    let init = k.task(Pid(1)).expect("init");
    let mut targets = vec![
        k.kernel_root(),
        init.user_root,
        PhysAddr::new(layout::KERNEL_IMAGE_BASE + PAGE_SIZE),
        init.cred.page_base(),
    ];
    for i in 0..8u64 {
        let frame = k.alloc_raw_frame().expect("frame");
        m.debug_zero_page(frame);
        if i < 4 {
            m.hvc(
                call::PT_REGISTER_TABLE,
                [frame.raw(), u64::from(i < 2), 0, 0],
                hs,
            )
            .expect("a zeroed frame registers");
        }
        targets.push(frame);
    }
    targets
}

/// Issues one aimed request. A region's length is 0, 8, a page, one
/// that crosses into the next page, or large enough to overflow.
fn fire(
    m: &mut Machine,
    hs: &mut Hypersec,
    targets: &[PhysAddr],
    op: &Aimed,
) -> Result<u64, Exception> {
    let page = targets[op.target_sel as usize % targets.len()];
    let offset = u64::from(op.word) * 8;
    let len = match op.len_sel % 5 {
        0 => 0,
        1 => 8,
        2 => PAGE_SIZE,
        3 => PAGE_SIZE - offset + 8,
        _ => u64::MAX - 7,
    };
    let sid = if op.flag {
        sid::CRED_MONITOR
    } else {
        sid::DENTRY_MONITOR
    };
    let base = layout::kva(page).raw() + offset;
    match op.call_sel % 3 {
        0 => m.hvc(call::MONITOR_REGISTER, [u64::from(sid), base, len, 0], hs),
        1 => m.hvc(call::MONITOR_UNREGISTER, [u64::from(sid), base, len, 0], hs),
        _ => m.hvc(
            call::PT_REGISTER_TABLE,
            [page.raw(), u64::from(op.flag), 0, 0],
            hs,
        ),
    }
}

/// The code of a denied request.
fn denial(result: Result<u64, Exception>) -> u32 {
    match result {
        Err(Exception::Denied(v)) => v.code,
        other => panic!("expected a denial, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Monitor and table-registration requests aimed at table pages,
    /// kernel text, a live cred and scratch frames, in any order: no
    /// panic, and the invariants hold afterwards.
    #[test]
    fn aimed_monitor_and_table_requests_keep_the_invariants(
        ops in prop::collection::vec(arb_aimed(), 1..24),
    ) {
        let (mut m, mut hs, mut k) = boot();
        let targets = targets(&mut m, &mut hs, &mut k);
        for op in &ops {
            let _ = fire(&mut m, &mut hs, &targets, op);
        }
        let report = hs.audit(&mut m);
        prop_assert!(
            report.is_clean(),
            "aimed sequence {:?} broke invariants: {:?}",
            ops,
            report.violations
        );
        k.sys_stat(&mut m, &mut hs, "/bin/sh").expect("kernel functional");
    }
}

/// Monitoring remaps a page writable and non-cacheable, so a table page
/// or kernel text can never be monitored.
#[test]
fn monitoring_a_table_page_or_kernel_text_is_denied() {
    let (mut m, mut hs, k) = boot();
    let cred = u64::from(sid::CRED_MONITOR);
    let table = layout::kva(k.kernel_root()).raw() + 0x10;
    let code = denial(m.hvc(call::MONITOR_REGISTER, [cred, table, 8, 0], &mut hs));
    assert_eq!(code, codes::WRITABLE_TABLE);
    let text = layout::kva(PhysAddr::new(0x1000)).raw();
    let code = denial(m.hvc(call::MONITOR_REGISTER, [cred, text, 8, 0], &mut hs));
    assert_eq!(code, codes::TEXT_IMMUTABLE);
    assert!(hs.regions().is_empty());
    let report = hs.audit(&mut m);
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// The reverse order: a monitored frame cannot become a table, so the
/// monitor's later retirement cannot restore a writable mapping of one.
#[test]
fn a_monitored_frame_cannot_be_registered_as_a_table() {
    let (mut m, mut hs, mut k) = boot();
    let frame = k.alloc_raw_frame().expect("frame");
    m.debug_zero_page(frame);
    let region = [u64::from(sid::CRED_MONITOR), layout::kva(frame).raw(), 8, 0];
    m.hvc(call::MONITOR_REGISTER, region, &mut hs)
        .expect("a data page can be monitored");
    let code = denial(m.hvc(call::PT_REGISTER_TABLE, [frame.raw(), 0, 0, 0], &mut hs));
    assert_eq!(code, codes::BAD_TABLE_REGISTRATION);
    m.hvc(call::MONITOR_UNREGISTER, region, &mut hs)
        .expect("the region retires");
    let report = hs.audit(&mut m);
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// A region length near `u64::MAX` is a denial, not an overflow.
#[test]
fn an_overflowing_monitor_length_is_denied() {
    let (mut m, mut hs, k) = boot();
    let cred = k.task(Pid(1)).expect("init").cred;
    let base = layout::kva(cred).raw();
    let request = [u64::from(sid::CRED_MONITOR), base, u64::MAX - 7, 0];
    let code = denial(m.hvc(call::MONITOR_REGISTER, request, &mut hs));
    assert_eq!(code, codes::BAD_MONITOR_REQUEST);
    let report = hs.audit(&mut m);
    assert!(report.is_clean(), "{:?}", report.violations);
}
