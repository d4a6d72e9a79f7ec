//! Integration tests for the static whole-system auditor, its
//! differential cross-check against Hypersec's incremental verifier,
//! and the ownership sanitizer's zero-cost-when-off contract
//! (docs/AUDIT.md).
//!
//! The load-bearing properties:
//!
//! - for *any* attack primitive and seed under Hypernel, the static and
//!   incremental audits agree (proptest);
//! - a deliberately miswired verifier (W⊕X check disabled) is caught by
//!   the differential — the static pass sees the mapping the
//!   incremental pass no longer checks;
//! - a `desync-bitmap` hardware fault is caught by the audit oracle
//!   (bitmap lookup divergences) even when every other oracle has an
//!   excuse;
//! - under Native, attack footprints surface as the expected static
//!   findings (`linear-identity`, `rogue-root`, `wx-mapping`);
//! - enabling the sanitizer changes no simulated result;
//! - the report and every finding are pinned byte for byte over the
//!   corpus, every primitive in every mode and the miswired verifier,
//!   walked cold and through a warm template family;
//! - the audit baselines belong to a template family, and a fork walked
//!   against them gives the same static and Hypersec reports as a
//!   system never forked, after table pages change through every write
//!   path and when a changed table points into an unchanged subtree.

use std::path::PathBuf;

use hypernel::{Mode, System};
use hypernel_audit::{chain_display, MappingGraph, RootOrigin, RootSpec};
use hypernel_campaign::engine::{boot_system, run_one, run_one_full};
use hypernel_campaign::scenario::{Scenario, StepExpect};
use hypernel_kernel::abi::call;
use hypernel_kernel::{layout, AttackStep};
use hypernel_machine::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hypernel_machine::fault::{self, FaultPlan};
use hypernel_machine::pagetable::{self, Descriptor, PagePerms};
use hypernel_machine::{ExceptionLevel, FaultSpec, Hyp, Machine, SysReg};
use proptest::prelude::*;

fn arb_attack() -> impl Strategy<Value = AttackStep> {
    prop_oneof![
        Just(AttackStep::CredEscalation { pid: 1 }),
        any::<u16>().prop_map(|inode| AttackStep::DentryHijack {
            path: "/bin/sh".to_string(),
            rogue_inode: 0xE00 + u64::from(inode % 256),
        }),
        Just(AttackStep::MapSecureRegion { pid: 1 }),
        any::<u16>().prop_map(|v| AttackStep::PtDirectWrite {
            pid: 1,
            value: u64::from(v),
        }),
        Just(AttackStep::TtbrRedirect),
        Just(AttackStep::CodeInjection),
        Just(AttackStep::TextPatch),
        Just(AttackStep::AtraCred { pid: 1 }),
        Just(AttackStep::AtraDentry {
            path: "/bin/sh".to_string()
        }),
        Just(AttackStep::DoubleMapCred { pid: 1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any primitive and interleaving, the static auditor and the
    /// incremental verifier reach the same verdict — the differential
    /// never fires on a correctly-wired system.
    #[test]
    fn static_and_incremental_audits_always_agree(
        step in arb_attack(),
        seed in any::<u64>(),
        background in any::<u64>(),
    ) {
        let s = Scenario::new("prop-audit", Mode::Hypernel)
            .background(background % 5)
            .step(step, StepExpect::Any);
        let record = run_one(&s, seed).expect("run");
        let audit = record.audit.expect("every run carries an audit record");
        prop_assert_eq!(
            audit.differential_agrees,
            Some(true),
            "disagreement (seed {}): {:?}",
            seed,
            record.violations
        );
        prop_assert_eq!(audit.findings, 0, "static findings under Hypernel: {:?}", record.violations);
        prop_assert!(audit.tables > 0 && audit.leaves > 0, "the walk must cover the graph");
        prop_assert!(record.passed, "unexpected violations: {:?}", record.violations);
    }
}

/// A desynced watch bitmap blinds the decision unit: the detection gap
/// is excused by the declared fault (`masked`), the W⊕X/incremental
/// audits are clean — only the audit oracle, watching the MBM's
/// lookup-divergence counter, reports the run as genuinely broken.
#[test]
fn desync_bitmap_fault_is_caught_only_by_the_audit_oracle() {
    let scenario = Scenario::new("unit-desync", Mode::Hypernel)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Masked)
        .fault(FaultSpec::desync_bitmap(1, u64::MAX));
    let record = run_one(&scenario, 3).expect("run");
    let mbm = record.mbm.expect("hypernel runs have MBM stats");
    assert!(
        mbm.lookup_divergences > 0,
        "the fault must actually desync a lookup"
    );
    let unexpected: Vec<_> = record.violations.iter().filter(|v| !v.expected).collect();
    assert!(
        !unexpected.is_empty() && unexpected.iter().all(|v| v.oracle == "audit"),
        "only the audit oracle may flag the desync as unexpected: {:?}",
        record.violations
    );
    assert!(
        unexpected.iter().any(|v| v.detail.contains("desync")),
        "the violation must name the desync: {unexpected:?}"
    );
    assert!(!record.passed);
}

/// The differential's reason to exist: disable the incremental
/// verifier's W⊕X check (a seeded verifier bug) and the injected
/// writable+executable mapping sails through every runtime check — but
/// the static pass, which re-derives the invariant from the raw tables,
/// sees it, and the disagreement convicts the verifier.
#[test]
fn miswired_verifier_is_convicted_by_the_differential() {
    let scenario = miswired_scenario();
    let mut sys = boot_system(&scenario).expect("boot");
    sys.hypersec_mut()
        .expect("hypernel mode has hypersec")
        .testonly_disable_wx_check();
    let (record, _, mut sys) = run_one_full(sys, &scenario, 1).expect("run");

    assert!(
        !record.steps[0].blocked,
        "with the check disabled the injection must land"
    );
    let audit = record.audit.expect("audit record");
    assert_eq!(
        audit.differential_agrees,
        Some(false),
        "the static pass must disagree with the blinded verifier"
    );
    assert!(audit.findings > 0);
    assert!(
        record
            .violations
            .iter()
            .any(|v| v.oracle == "audit" && !v.expected && v.detail.contains("disagreement")),
        "the disagreement must be an unexpected violation: {:?}",
        record.violations
    );
    assert!(!record.passed);

    // The report itself names the missed invariant, with a descriptor
    // chain proving where it lives.
    let report = sys.audit_static();
    assert!(report
        .findings
        .iter()
        .any(|f| f.check == hypernel_audit::CheckKind::WxMapping));
    let diff = report.differential.expect("locked system runs it");
    assert!(!diff.agrees());
    assert!(diff.static_findings > diff.incremental_violations.len() as u64);
}

/// Under Native the attacks land by design, and the static auditor
/// names each footprint with the right invariant.
#[test]
fn native_attack_footprints_surface_as_expected_findings() {
    let cases = [
        (AttackStep::DoubleMapCred { pid: 1 }, "linear-identity"),
        (AttackStep::TtbrRedirect, "rogue-root"),
        (AttackStep::CodeInjection, "wx-mapping"),
    ];
    for (step, check) in cases {
        let name = step.name().to_string();
        let scenario =
            Scenario::new("unit-native-audit", Mode::Native).step(step, StepExpect::Undetected);
        let record = run_one(&scenario, 1).expect("run");
        let audit_violations: Vec<_> = record
            .violations
            .iter()
            .filter(|v| v.oracle == "audit")
            .collect();
        assert!(
            audit_violations.iter().any(|v| v.detail.contains(check)),
            "{name}: expected a `{check}` finding, got {audit_violations:?}"
        );
        assert!(
            audit_violations.iter().all(|v| v.expected),
            "{name}: native footprint findings are declared/expected"
        );
        assert!(record.passed, "{name}: {:?}", record.violations);
    }
}

/// The sanitizer is contractually free when enabled on a clean system
/// and *zero-cost* in simulated terms either way: the same (scenario,
/// seed) produces byte-identical records and identical cycle counts
/// with and without it.
#[test]
fn sanitizer_costs_zero_simulated_cycles_and_changes_no_result() {
    let scenario = Scenario::new("unit-sanitizer-cost", Mode::Hypernel)
        .background(3)
        .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected);

    let plain = boot_system(&scenario).expect("boot");
    let mut tagged = boot_system(&scenario).expect("boot");
    tagged.enable_sanitizer();
    assert!(tagged.sanitizer_enabled());

    let (record_plain, _, sys_plain) = run_one_full(plain, &scenario, 9).expect("run");
    let (record_tagged, _, mut sys_tagged) = run_one_full(tagged, &scenario, 9).expect("run");

    assert_eq!(
        sys_plain.cycles(),
        sys_tagged.cycles(),
        "zero simulated cost"
    );
    assert_eq!(
        record_plain.to_json().to_string(),
        record_tagged.to_json().to_string(),
        "byte-identical run record"
    );

    // And the tagged run really was checking: the report carries the
    // sanitizer counters, with nothing denied on a healthy system.
    let report = sys_tagged.audit_static();
    let sanitizer = report.sanitizer.as_ref().expect("enabled");
    assert!(sanitizer.stats.checked > 0, "stores were checked");
    assert_eq!(sanitizer.stats.denied, 0);
    assert!(report.is_clean(), "{report:?}");
}

/// What [`audit_reports_and_findings_are_pinned_byte_for_byte`] must
/// see: runs audited, findings reported and the digest of both.
const PIN_RUNS: u64 = 57;
const PIN_FINDINGS: u64 = 21;
const PIN_DIGEST: u64 = 0xe61e_c44f_9edd_ac19;

/// The code-injection run with the incremental W⊕X check disabled.
fn miswired_scenario() -> Scenario {
    Scenario::new("unit-miswired", Mode::Hypernel).step(AttackStep::CodeInjection, StepExpect::Any)
}

/// The pinned cases: every corpus scenario, every non-compose primitive
/// in every mode, and the miswired verifier (the `true` case).
fn pin_cases() -> Vec<(Scenario, bool)> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut cases: Vec<(Scenario, bool)> = hypernel_campaign::load_corpus(&corpus)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|s| (s, false))
        .collect();
    for mode in Mode::ALL {
        for step in AttackStep::defaults() {
            let compose = matches!(
                step,
                AttackStep::CrossDomainCredTheft { .. }
                    | AttackStep::SharedRegionToctou { .. }
                    | AttackStep::ChannelSpoof { .. }
            );
            if !compose {
                cases.push((
                    Scenario::new("pin-audit", mode).step(step, StepExpect::Any),
                    false,
                ));
            }
        }
    }
    cases.push((miswired_scenario(), true));
    cases
}

/// A booted system for a pinned case.
fn pin_boot(scenario: &Scenario, miswired: bool) -> System {
    let mut sys = boot_system(scenario).expect("boot");
    if miswired {
        sys.hypersec_mut()
            .expect("hypernel mode has hypersec")
            .testonly_disable_wx_check();
    }
    sys
}

/// The runs audited, findings reported and an FNV-1a digest over every
/// report JSON and every finding's check, detail and chain.
struct Pin {
    runs: u64,
    findings: u64,
    digest: u64,
}

impl Pin {
    fn new() -> Self {
        Self {
            runs: 0,
            findings: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Feeds `text` and a separator byte.
    fn feed(&mut self, text: &str) {
        for byte in text.bytes().chain([0xFF]) {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn audit(&mut self, sys: &mut System) {
        let report = sys.audit_static();
        self.feed(&report.to_json().to_string());
        for finding in &report.findings {
            self.feed(finding.check.name());
            self.feed(&finding.detail);
            self.feed(&chain_display(&finding.chain));
        }
        self.runs += 1;
        self.findings += report.findings.len() as u64;
    }

    fn assert_pinned(&self) {
        println!(
            "pinned audit: {} runs, {} findings, digest {:#018x}",
            self.runs, self.findings, self.digest
        );
        assert_eq!(
            (self.runs, self.findings, self.digest),
            (PIN_RUNS, PIN_FINDINGS, PIN_DIGEST),
            "the audit output changed"
        );
    }
}

/// Every observable of the static audit, pinned byte for byte: the
/// report JSON and each finding's check, detail and descriptor chain,
/// after every corpus scenario at seed 1, every non-compose primitive
/// in every mode and the miswired verifier. Runs the engine refuses
/// (`ttbr-redirect` under KVM faults on some seeds) are skipped; at
/// seed 1 there are none. The expected values were
/// produced by the per-leaf walker that preceded the run-based one, so
/// the walk's representation can change but its output cannot. Every
/// case boots fresh and is never forked, so every audit here walks
/// cold.
#[test]
fn audit_reports_and_findings_are_pinned_byte_for_byte() {
    let mut pin = Pin::new();
    for (scenario, miswired) in &pin_cases() {
        let sys = pin_boot(scenario, *miswired);
        let Ok((_, _, mut sys)) = run_one_full(sys, scenario, 1) else {
            continue;
        };
        pin.audit(&mut sys);
    }
    pin.assert_pinned();
}

/// The same pin through a warm family: each case forks a template whose
/// audit baselines a run at seed 0 has made, then runs seed 1 on a
/// second fork.
#[test]
fn a_warm_template_family_reaches_the_pinned_audit_digest() {
    let (mut pin, mut warmed) = (Pin::new(), 0);
    for (scenario, miswired) in &pin_cases() {
        let template = pin_boot(scenario, *miswired);
        let _ = run_one_full(template.fork(), scenario, 0);
        warmed += usize::from(!template.audit_baseline().is_empty());
        let Ok((_, _, mut sys)) = run_one_full(template.fork(), scenario, 1) else {
            continue;
        };
        pin.audit(&mut sys);
    }
    assert_eq!(
        warmed,
        pin_cases().len(),
        "every template's family was warm"
    );
    pin.assert_pinned();
}

/// The baselines (the memos of a template's walks) belong to a template
/// family: a fork's audit makes the
/// family's (static and Hypersec's alike), a system never forked walks
/// cold and makes none, and another template's family is untouched.
#[test]
fn audit_memos_are_shared_by_a_template_family_only() {
    let mut alone = System::boot(Mode::Hypernel).expect("boot");
    alone.audit();
    assert!(
        alone.audit_baseline().is_empty(),
        "never forked, walked cold"
    );
    let hypersec_baseline = |sys: &System| sys.hypersec().expect("hypernel").audit_baseline().len();
    assert_eq!(hypersec_baseline(&alone), 0);

    let template = System::boot(Mode::Hypernel).expect("boot");
    let other = System::boot(Mode::Hypernel).expect("boot");
    template.fork().audit();
    let (walk, hypersec) = (
        template.audit_baseline().len(),
        hypersec_baseline(&template),
    );
    assert!(
        walk > 0 && hypersec > 0,
        "the fork's audit made the family's baselines"
    );
    let mut fork = template.fork();
    assert_eq!(fork.audit_baseline().len(), walk, "a new fork shares them");
    fork.audit();
    assert_eq!(
        (
            template.audit_baseline().len(),
            hypersec_baseline(&template)
        ),
        (walk, hypersec),
        "the same roots walk the same baselines"
    );
    assert!(other.audit_baseline().is_empty() && hypersec_baseline(&other) == 0);
}

/// A template whose kernel linear map holds a writable+executable leaf
/// (for a frame past the allocator's watermark) that Hypersec never saw,
/// written behind its back. No line of the table page stays cached, so
/// its forks' audits may copy it from the family's baselines.
fn wx_template() -> System {
    let mut template = System::boot(Mode::Hypernel).expect("boot");
    let root = template.kernel().kernel_root();
    let va = layout::kva(template.kernel().frames_watermark().add(PAGE_SIZE)).raw();
    let perms = PagePerms {
        exec: true,
        ..PagePerms::KERNEL_DATA
    };
    let m = template.machine_mut();
    let write = pagetable::plan_protect(&mut m.pt_view(), root, va, perms).expect("mapped");
    pagetable::apply_entry_write(&mut m.pt_view(), write);
    m.cache_clean_invalidate_page(write.table);
    template
}

/// Hypersec's baselines are keyed by the W⊕X switch: a walk by the
/// correctly wired verifier is never copied into a miswired one's
/// report, so the differential still convicts it with the family warm.
#[test]
fn a_warm_memo_still_convicts_a_miswired_verifier() {
    let template = wx_template();
    let report = template.fork().audit_static();
    let diff = report.differential.expect("locked");
    assert!(diff.agrees() && !report.findings.is_empty(), "both see W^X");
    let mut miswired = template.fork();
    miswired
        .hypersec_mut()
        .expect("hypernel")
        .testonly_disable_wx_check();
    let diff = miswired.audit_static().differential.expect("locked");
    assert!(!diff.agrees(), "the blinded verifier is convicted");
}

/// The kernel root's tables the aliasing regressions edit: the root,
/// and in walk order the level-2 tables under it and the first level-3
/// table of each.
struct KernelTree {
    root: PhysAddr,
    l2: Vec<PhysAddr>,
    l3: Vec<PhysAddr>,
}

fn kernel_tree(sys: &System) -> KernelTree {
    let children = |table: PhysAddr, level: u32| -> Vec<PhysAddr> {
        let entries = sys.machine().debug_read_table(table).expect("in DRAM");
        entries
            .iter()
            .filter_map(|&raw| match Descriptor::decode(raw, level) {
                Descriptor::Table { next } => Some(next),
                _ => None,
            })
            .collect()
    };
    let root = sys.kernel().kernel_root();
    let l2: Vec<PhysAddr> = children(root, 0)
        .into_iter()
        .flat_map(|l1| children(l1, 1))
        .collect();
    let l3 = l2.iter().map(|&t| children(t, 2)[0]).collect();
    KernelTree { root, l2, l3 }
}

/// A fork of a warm template whose run points entry 0 of a level-2
/// kernel table at `target(tree)` behind Hypersec's back audits exactly
/// as a system never forked given the same write: the static report
/// and `Hypersec::audit`. Returns the cold static report.
fn aliased_fork_audits_cold(
    table: impl Fn(&KernelTree) -> PhysAddr,
    target: impl Fn(&KernelTree) -> PhysAddr,
) -> hypernel_audit::StaticAuditReport {
    let template = System::boot(Mode::Hypernel).expect("boot");
    template.fork().audit();
    let tree = kernel_tree(&template);
    assert!(
        tree.l2.len() >= 2,
        "two level-2 tables under the kernel root"
    );
    let mut warm = template.fork();
    let mut cold = System::boot(Mode::Hypernel).expect("boot");
    let clean = cold.audit_static();
    for sys in [&mut warm, &mut cold] {
        let value = Descriptor::Table {
            next: target(&tree),
        }
        .encode();
        sys.machine_mut().debug_write_phys(table(&tree), value);
    }
    let (warm, cold) = (warm.audit(), cold.audit());
    assert_eq!(warm.0.to_json().to_string(), cold.0.to_json().to_string());
    let chains = |r: &hypernel_audit::StaticAuditReport| -> Vec<String> {
        r.findings.iter().map(|f| chain_display(&f.chain)).collect()
    };
    assert_eq!(chains(&warm.0), chains(&cold.0));
    assert_eq!(warm.1, cold.1, "Hypersec audit");
    assert_ne!(
        cold.0.leaves_checked, clean.leaves_checked,
        "the write took"
    );
    cold.0
}

/// The changed table comes first in the walk and points into a subtree
/// the walk reaches later: the aliased table is walked at its new place,
/// and its own parent's pointer later counts as a revisit.
#[test]
fn a_fork_pointer_into_an_unchanged_subtree_walked_later_audits_cold() {
    let report = aliased_fork_audits_cold(|t| t.l2[0], |t| t.l3[1]);
    assert!(report
        .findings
        .iter()
        .any(|f| f.check == hypernel_audit::CheckKind::LinearIdentity));
}

/// The changed table points into a subtree the walk copied earlier: the
/// pointer counts as a revisit.
#[test]
fn a_fork_pointer_into_an_unchanged_subtree_walked_earlier_audits_cold() {
    aliased_fork_audits_cold(|t| t.l2[1], |t| t.l3[0]);
}

/// The changed table points back at the kernel root: the static walk
/// counts a revisit, and Hypersec's walk decodes the root again as a
/// level-3 table.
#[test]
fn a_fork_pointer_back_to_the_root_audits_cold() {
    aliased_fork_audits_cold(|t| t.l2[1], |t| t.root);
}

/// A Hypernel system whose first user root links, behind Hypersec's
/// back, a zeroed frame past the allocator's watermark as a level-1
/// table: reachable, but not in the verified pool. Returns the frame.
fn unverified_table_system() -> (System, PhysAddr) {
    let mut sys = System::boot(Mode::Hypernel).expect("boot");
    let root = sys.kernel().user_roots()[0];
    let table = sys.kernel().frames_watermark().add(PAGE_SIZE);
    let m = sys.machine_mut();
    m.debug_zero_page(table);
    let entries = m.debug_read_table(root).expect("in DRAM");
    let free = entries.iter().position(|&e| e == 0).expect("a free entry") as u64;
    let link = Descriptor::Table { next: table }.encode();
    m.debug_write_phys(root.add(free * 8), link);
    (sys, table)
}

/// Hypersec's verdict on a table its run leaves untouched follows the
/// current pool, not the one the family's baseline was walked with: a
/// fork that registers the unverified table audits as a system never
/// forked that does the same.
#[test]
fn a_fork_that_registers_an_unchanged_table_audits_cold() {
    let (template, table) = unverified_table_system();
    let unregistered = format!("reachable table {table} is not registered");
    let (_, hypersec) = template.fork().audit();
    assert!(hypersec.expect("locked").violations.contains(&unregistered));
    let mut warm = template.fork();
    let (mut cold, _) = unverified_table_system();
    for sys in [&mut warm, &mut cold] {
        let (_, m, hyp) = sys.parts();
        // Registered as a root, the frame joins the verified pool.
        m.hvc(call::PT_REGISTER_TABLE, [table.raw(), 1, 0, 0], hyp)
            .expect("registered");
    }
    let (warm, cold) = (warm.audit(), cold.audit());
    assert_eq!(warm.0.to_json().to_string(), cold.0.to_json().to_string());
    assert_eq!(warm.1, cold.1, "Hypersec audit");
    assert!(!cold.1.expect("locked").violations.contains(&unregistered));
}

/// One way to change a table page on a forked system. `path` picks the
/// write path, `table` the target among the template's tables, `index`
/// the entry and `value` the descriptor written.
#[derive(Debug, Clone)]
struct TableEdit {
    path: u8,
    table: u16,
    index: u16,
    value: u8,
    page: u16,
}

fn arb_edit() -> impl Strategy<Value = TableEdit> {
    (
        any::<u8>(),
        any::<u16>(),
        0u16..512,
        any::<u8>(),
        any::<u16>(),
    )
        .prop_map(|(path, table, index, value, page)| TableEdit {
            path,
            table,
            index,
            value,
            page,
        })
}

/// A template whose family baselines a fork's audit made, and its table
/// pages.
struct Warmed {
    template: System,
    tables: Vec<PhysAddr>,
}

fn warmed(mode: Mode) -> Warmed {
    let template = System::boot(mode).expect("boot");
    template.fork().audit();
    let kernel = template.kernel();
    let roots: Vec<RootSpec> = std::iter::once((kernel.kernel_root(), true))
        .chain(kernel.user_roots().into_iter().map(|r| (r, false)))
        .map(|(pa, kernel_space)| RootSpec {
            pa,
            kernel_space,
            origins: vec![RootOrigin::KernelKnown],
        })
        .collect();
    let tables = MappingGraph::walk(template.machine(), &roots, None).tables;
    Warmed { template, tables }
}

thread_local! {
    static WARMED: [Warmed; 2] = [warmed(Mode::Hypernel), warmed(Mode::Native)];
}

/// Applies one edit. Every path is tried in both modes; a path the mode
/// refuses (an EL1 store to a read-only table under Hypernel, a
/// hypercall under Native) simply changes nothing.
fn apply_edit(sys: &mut System, tables: &[PhysAddr], edit: &TableEdit) {
    let table = tables[usize::from(edit.table) % tables.len()];
    let entry = table.add(u64::from(edit.index) * 8);
    let out = PhysAddr::new(layout::FRAME_POOL_BASE + u64::from(edit.page) * PAGE_SIZE);
    let value = match edit.value % 5 {
        0 => 0,
        1 => Descriptor::Leaf {
            out,
            perms: PagePerms::USER_DATA,
        }
        .encode(),
        2 => Descriptor::Leaf {
            out,
            perms: PagePerms {
                exec: true,
                ..PagePerms::KERNEL_DATA
            },
        }
        .encode(),
        3 => Descriptor::Table {
            next: tables[usize::from(edit.page) % tables.len()],
        }
        .encode(),
        _ => Descriptor::Leaf {
            out: table,
            perms: PagePerms::KERNEL_DATA,
        }
        .encode(),
    };
    let kernel_root = sys.kernel().kernel_root();
    let (_, m, hyp) = sys.parts();
    let el1_store = |m: &mut Machine, hyp: &mut dyn Hyp, pa: PhysAddr, value: u64| {
        let _ = m.write_u64(layout::kva(pa), value, hyp);
    };
    match edit.path % 9 {
        0 => {
            let _ = m.hvc(
                call::PT_WRITE,
                [table.raw(), u64::from(edit.index), value, 0],
                hyp,
            );
        }
        1 => el1_store(m, hyp, entry, value),
        2 => {
            // Remap the table's linear alias non-cacheable through the
            // kernel's own linear map, then store through it.
            let kva = layout::kva(table);
            if let Some(w) = pagetable::plan_protect(
                &mut m.pt_view(),
                kernel_root,
                kva.raw(),
                PagePerms::KERNEL_DATA_NC,
            ) {
                el1_store(m, hyp, w.addr(), w.value);
                m.tlbi_va(kva);
            }
            el1_store(m, hyp, entry, value);
        }
        3 if m.read_sysreg(SysReg::TTBR0_EL2) != 0 => {
            let el = m.el();
            m.set_el(ExceptionLevel::El2);
            let _ = m.el2_write_u64(VirtAddr::new(entry.raw()), value);
            m.set_el(el);
        }
        4 => m.debug_write_phys(entry, value),
        5 => m.dma_write_u64(entry, value),
        6 => m.debug_zero_page(table),
        7 => m.cache_clean_invalidate_page(table),
        _ => {
            // The trap is taken but the fault loses the handler: the
            // store never reaches the table.
            let plan = FaultPlan {
                specs: vec![FaultSpec::lose_hypercall(1, 1, call::PT_WRITE)],
            };
            m.set_fault_injector(Some(fault::share(plan)));
            let _ = m.hvc(
                call::PT_WRITE,
                [table.raw(), u64::from(edit.index), value, 0],
                hyp,
            );
            m.set_fault_injector(None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both walkers take the same dirty set, so the static ≡
    /// incremental differential cannot catch a wrong one. This can:
    /// after table pages change through every write path, a fork of a
    /// warm template (its family baselines made) audits exactly as a
    /// cold one, a fresh boot never forked given the same edits, for the
    /// static report and for `Hypersec::audit`.
    #[test]
    fn warm_and_cold_memos_give_identical_audits(
        native in any::<bool>(),
        edits in prop::collection::vec(arb_edit(), 1..10),
    ) {
        WARMED.with(|warmed| {
            let warmed = &warmed[usize::from(native)];
            prop_assert!(!warmed.template.audit_baseline().is_empty(), "a warm family");
            let mut warm = warmed.template.fork();
            let mut cold = System::boot(warmed.template.mode()).expect("boot");
            for sys in [&mut warm, &mut cold] {
                for edit in &edits {
                    apply_edit(sys, &warmed.tables, edit);
                }
            }
            prop_assert!(cold.machine().table_view().snapshot().is_none());
            let (warm, cold) = (warm.audit(), cold.audit());
            prop_assert_eq!(
                warm.0.to_json().to_string(),
                cold.0.to_json().to_string(),
                "static audit, edits {:?}",
                edits
            );
            prop_assert_eq!(warm.1, cold.1, "Hypersec audit, edits {:?}", edits);
        });
    }
}

/// Under Native nothing stops a page-table write from pointing a table
/// entry past the end of DRAM (here at 4 GiB, twice the DRAM size).
/// The walker reports it as a `malformed` finding instead of reading
/// outside DRAM.
#[test]
fn table_pointer_outside_dram_is_a_malformed_finding() {
    let scenario = Scenario::from_toml(
        r#"
name = "pt-pointer-outside-dram"
mode = "native"

[[step]]
kind = "pt-direct-write"
pid = 1
value = 0x100000003
expect = "any"
"#,
    )
    .expect("load");
    let record = run_one(&scenario, 1).expect("run");
    let malformed: Vec<_> = record
        .violations
        .iter()
        .filter(|v| v.oracle == "audit" && v.detail.starts_with("[malformed]"))
        .collect();
    assert_eq!(malformed.len(), 1, "{:?}", record.violations);
    assert!(
        malformed[0].detail.contains("outside DRAM") && malformed[0].detail.contains("0x100000000"),
        "{malformed:?}"
    );
    assert!(malformed[0].expected, "native footprints are expected");
    assert!(record.passed, "{:?}", record.violations);
}
