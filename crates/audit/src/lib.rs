#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # hypernel-audit
//!
//! A static whole-system invariant auditor for the [Hypernel (DAC
//! 2018)][paper] reproduction, plus the seeding half of the
//! guest-memory ownership sanitizer.
//!
//! Hypersec verifies page-table updates *incrementally* — one
//! hypercall, one trapped register write at a time. A bug in that
//! verifier admits exactly the attacks Hypernel exists to stop, and no
//! amount of incremental checking can catch it. This crate is the
//! independent cross-check: from a **paused** machine it re-derives the
//! complete stage-1 mapping graph from first principles (every table
//! reachable from the live `TTBR0_EL1`/`TTBR1_EL1`, the kernel's own
//! bookkeeping, and Hypersec's verified root set), statically checks
//! every security invariant over the whole graph at once, and then
//! *differentially* compares its verdict against Hypersec's runtime
//! audit — any disagreement is a verifier bug (or an auditor gap) by
//! construction.
//!
//! Static invariants checked over the mapping graph:
//!
//! - **secure-reachable** — no stage-1 path maps the secure region;
//! - **wx-mapping** — no leaf is writable *and* executable;
//! - **linear-identity** — kernel-half leaves are identity mappings
//!   (double maps and ATRA-style aliases surface here);
//! - **text-writable** — kernel text is nowhere writable;
//! - **table-writable** — no live table page is writable (only while
//!   Hypersec is locked: an unprotected native kernel edits its own
//!   tables by design);
//! - **unverified-table** — every table reachable from Hypersec's roots
//!   is in its verified pool (locked only);
//! - **rogue-root** — the active `TTBR` roots are in the trusted root
//!   set;
//! - **watch-coverage** — every word of every registered monitored
//!   region has its MBM watch bit set and a non-cacheable kernel
//!   mapping;
//! - **malformed** — no table pointer sits at leaf level.
//!
//! The ownership sanitizer ([`sanitizer::seed_shadow`] +
//! [`hypernel_machine::shadow`]) is the dynamic complement: a shadow
//! tag per physical page, maintained by the kernel at allocation sites
//! and checked against a writer/tag policy on every store.
//!
//! The pass walks the graph once ([`MappingGraph::walk`]), reading
//! every table page whole through the machine's table view — cache
//! coherent, zero simulated cycles, no architectural side effects — so
//! auditing never perturbs the simulation it inspects. A fork of a
//! template decodes only the tables its run changed, and their
//! ancestors, and copies every other subtree from its family's
//! [`WalkBaseline`]. Leaves are checked as runs: a run whose O(1) range
//! tests show that no leaf can fire is never expanded, and a descriptor
//! chain is rebuilt only for a finding.
//!
//! [paper]: https://doi.org/10.1145/3195970.3196061

pub mod graph;
pub mod report;
pub mod sanitizer;

pub use graph::{
    chain_display, ChainLink, LeafRun, MappingGraph, RootOrigin, RootSpec, TableVisit, WalkBaseline,
};
pub use report::{
    CheckKind, DifferentialReport, Finding, SanitizerReport, StaticAuditReport, AUDIT_SCHEMA,
    REPORT_KIND,
};
pub use sanitizer::seed_shadow;

use hypernel_hypersec::{AuditReport, Hypersec};
use hypernel_kernel::{layout, Kernel};
use hypernel_machine::addr::PhysAddr;
use hypernel_machine::fxhash::FxHashSet;
use hypernel_machine::machine::Machine;
use hypernel_machine::regs::SysReg;

/// Runs the complete static audit pass over a paused system.
///
/// `kernel` supplies the kernel-known ground truth (its root, the
/// per-task user roots); `hypersec`, when present **and locked**, adds
/// the verified root/table pools, enables the strict table checks, and
/// arms the differential comparison against [`Hypersec::audit`]. That
/// runtime audit runs once and is returned beside the report, so a
/// caller that needs it too (the campaign's W⊕X oracle) does not audit
/// the same state twice. The ownership-sanitizer section is filled in
/// when shadow tags are enabled on the machine. `baseline` is the walk
/// baseline of the system's template family; the report is the same
/// with any baseline, and a machine never forked walks cold.
pub fn audit_system(
    m: &mut Machine,
    kernel: &Kernel,
    hypersec: Option<&Hypersec>,
    baseline: &WalkBaseline,
) -> (StaticAuditReport, Option<AuditReport>) {
    let mut report = StaticAuditReport::default();
    let locked = hypersec.filter(|h| h.is_locked());

    let roots = collect_roots(m, kernel, hypersec);
    check_rogue_roots(&roots, kernel, locked, &mut report);

    // One view, and one dirty set, for both walks of the same state.
    let view = m.table_view();
    let graph = MappingGraph::walk_view(&view, &roots, Some(baseline));
    let incremental = locked.map(|hyp| hyp.audit_view(&view));
    report.roots_walked = graph.roots.len() as u64;
    report.tables_walked = graph.tables.len() as u64;
    report.leaves_checked = graph.leaf_count();

    for (detail, chain) in &graph.malformed {
        report.finding(CheckKind::Malformed, detail.clone(), chain.clone());
    }
    check_leaves(&graph, &mut report);
    if let Some(hyp) = locked {
        check_tables_ro(&graph, hyp.verified_tables(), &mut report);
        check_verified_pool(&graph, hyp.verified_tables(), &mut report);
    }
    if let Some(hyp) = hypersec {
        check_watch_coverage(m, hyp, &graph, &mut report);
    }
    if let Some(incremental) = &incremental {
        report.differential = Some(differential(&report, incremental));
    }
    if let Some(shadow) = m.shadow_tags() {
        report.sanitizer = Some(SanitizerReport {
            stats: shadow.stats(),
            violations: shadow.violations().to_vec(),
        });
    }
    (report, incremental)
}

/// Gathers every translation root the system knows about, deduplicated
/// with accumulated provenance. Order is deterministic: kernel-known
/// kernel root, active `TTBR1`, Hypersec's kernel root, kernel-known
/// user roots, active `TTBR0`, Hypersec's verified roots.
fn collect_roots(m: &Machine, kernel: &Kernel, hypersec: Option<&Hypersec>) -> Vec<RootSpec> {
    fn push(roots: &mut Vec<RootSpec>, pa: PhysAddr, kernel_space: bool, origin: RootOrigin) {
        if pa.raw() == 0 {
            return; // an unset TTBR, not a root
        }
        match roots.iter_mut().find(|r| r.pa == pa) {
            Some(existing) => {
                if !existing.origins.contains(&origin) {
                    existing.origins.push(origin);
                }
            }
            None => roots.push(RootSpec {
                pa,
                kernel_space,
                origins: vec![origin],
            }),
        }
    }

    let mut roots = Vec::new();
    push(
        &mut roots,
        kernel.kernel_root(),
        true,
        RootOrigin::KernelKnown,
    );
    if m.regs().stage1_enabled() {
        push(
            &mut roots,
            graph::ttbr_base(m.regs().read(SysReg::TTBR1_EL1)),
            true,
            RootOrigin::ActiveTtbr1,
        );
    }
    if let Some(hyp) = hypersec {
        if let Some(root) = hyp.kernel_root() {
            push(&mut roots, root, true, RootOrigin::HypervisorVerified);
        }
    }
    for pa in kernel.user_roots() {
        push(&mut roots, pa, false, RootOrigin::KernelKnown);
    }
    if m.regs().stage1_enabled() {
        push(
            &mut roots,
            graph::ttbr_base(m.regs().read(SysReg::TTBR0_EL1)),
            false,
            RootOrigin::ActiveTtbr0,
        );
    }
    for pa in hypersec.map(Hypersec::verified_roots).unwrap_or_default() {
        push(&mut roots, pa, false, RootOrigin::HypervisorVerified);
    }
    roots
}

/// The active `TTBR` roots must come from the trusted set: Hypersec's
/// verified roots once locked, otherwise the kernel's own bookkeeping.
/// (Kernel-known user roots are *not* checked against Hypersec's pool —
/// a freshly spawned task's root may legitimately await its first
/// verified switch.)
fn check_rogue_roots(
    roots: &[RootSpec],
    kernel: &Kernel,
    locked: Option<&Hypersec>,
    report: &mut StaticAuditReport,
) {
    let trusted: FxHashSet<u64> = match locked {
        Some(hyp) => hyp
            .kernel_root()
            .into_iter()
            .chain(hyp.verified_roots())
            .map(|r| r.raw())
            .collect(),
        None => std::iter::once(kernel.kernel_root())
            .chain(kernel.user_roots())
            .map(|r| r.raw())
            .collect(),
    };
    for root in roots {
        let active = root
            .origins
            .iter()
            .any(|o| matches!(o, RootOrigin::ActiveTtbr0 | RootOrigin::ActiveTtbr1));
        if active && !trusted.contains(&root.pa.raw()) {
            let origins: Vec<&str> = root.origins.iter().map(|o| o.name()).collect();
            report.finding(
                CheckKind::RogueRoot,
                format!(
                    "active root {} ({}) is not in the trusted root set",
                    root.pa,
                    origins.join(", ")
                ),
                Vec::new(),
            );
        }
    }
}

/// The per-leaf invariants: secure unreachability, W^X, kernel linear
/// identity, kernel text never writable. A run is expanded leaf by leaf
/// only when one of its range tests says some leaf can fail a check:
/// outputs grow along a run while permissions and `va - out` stay fixed,
/// so each check holds for all of a run's leaves or for a stretch of
/// them that the run's own bounds reveal.
fn check_leaves(graph: &MappingGraph, report: &mut StaticAuditReport) {
    let image_end = layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE;
    for run in &graph.runs {
        let wx = run.perms.write && run.perms.exec;
        let may_fire = run.out_end() > layout::SECURE_BASE
            || wx
            || (run.kernel_space && run.va != run.out.raw())
            || (run.perms.write
                && run.overlaps(layout::KERNEL_IMAGE_BASE, layout::KERNEL_IMAGE_SIZE));
        if !may_fire {
            continue;
        }
        for (entry, va, out) in run.leaves() {
            let chain = || graph.chain(run.visit, entry);
            if out.raw() + run.span > layout::SECURE_BASE {
                report.finding(
                    CheckKind::SecureReachable,
                    format!("leaf at va {va:#x} maps secure memory ({out})"),
                    chain(),
                );
            }
            if wx {
                report.finding(
                    CheckKind::WxMapping,
                    format!("writable+executable leaf at va {va:#x} -> {out}"),
                    chain(),
                );
            }
            if run.kernel_space && va != out.raw() {
                report.finding(
                    CheckKind::LinearIdentity,
                    format!("kernel linear leaf not identity: va {va:#x} -> {out}"),
                    chain(),
                );
            }
            if run.perms.write
                && out.raw() < image_end
                && out.raw() + run.span > layout::KERNEL_IMAGE_BASE
            {
                report.finding(
                    CheckKind::TextWritable,
                    format!("kernel text writable at va {va:#x} -> {out}"),
                    chain(),
                );
            }
        }
    }
}

/// No writable leaf may cover a live table page (the union of the
/// graph's reachable tables and Hypersec's verified pool). Only
/// meaningful under a locked Hypersec — a native kernel writes its own
/// tables through its linear map by design. A run's leaves cover its
/// output range in order, so the tables inside that range, ascending,
/// are the per-leaf findings in leaf order.
fn check_tables_ro(graph: &MappingGraph, verified: &[PhysAddr], report: &mut StaticAuditReport) {
    let mut tables: Vec<u64> = graph
        .tables
        .iter()
        .chain(verified)
        .map(|t| t.raw())
        .collect();
    // Two ascending runs, which the stable sort merges in one pass.
    tables.sort();
    tables.dedup();
    for run in graph.runs.iter().filter(|r| r.perms.write) {
        let start = tables.partition_point(|&t| t < run.out.raw());
        for &table in tables[start..].iter().take_while(|&&t| t < run.out_end()) {
            let offset = table - run.out.raw();
            report.finding(
                CheckKind::TableWritable,
                format!(
                    "table page {} is writable via va {:#x}",
                    PhysAddr::new(table),
                    run.va + offset
                ),
                graph.chain(run.visit, run.first + offset / run.span),
            );
        }
    }
}

/// Every table reachable from Hypersec's registered roots must be in
/// its verified pool (`verified`, sorted) — the exact invariant the
/// incremental runtime audit re-checks, so both sides flag the same
/// tables, ascending. Every Hypersec root is among the walked roots,
/// tagged [`RootOrigin::HypervisorVerified`], so the walk already holds
/// the tables they reach.
fn check_verified_pool(
    graph: &MappingGraph,
    verified: &[PhysAddr],
    report: &mut StaticAuditReport,
) {
    let mut unverified: Vec<PhysAddr> = graph
        .visits
        .iter()
        .filter(|v| {
            graph.roots[v.root]
                .origins
                .contains(&RootOrigin::HypervisorVerified)
        })
        .map(|v| v.table)
        .filter(|table| verified.binary_search(table).is_err())
        .collect();
    unverified.sort_unstable();
    unverified.dedup();
    for table in unverified {
        report.finding(
            CheckKind::UnverifiedTable,
            format!("reachable table {table} is not in the verified pool"),
            Vec::new(),
        );
    }
}

/// Every word of every registered monitored region must have its watch
/// bit set, and the region's kernel mapping must exist and be
/// non-cacheable (a cacheable mapping hides writes from the bus, and
/// therefore from the MBM).
fn check_watch_coverage(
    m: &mut Machine,
    hyp: &Hypersec,
    graph: &MappingGraph,
    report: &mut StaticAuditReport,
) {
    for region in hyp.regions() {
        report.regions_checked += 1;
        let (base, len) = (region.pa.raw(), region.len);
        let mut mapped = false;
        for run in graph
            .runs
            .iter()
            .filter(|r| r.kernel_space && r.overlaps(base, len))
        {
            mapped = true;
            if !run.perms.cacheable {
                continue;
            }
            for (entry, va, out) in run.leaves() {
                if out.raw() < base + len && out.raw() + run.span > base {
                    report.finding(
                        CheckKind::WatchCoverage,
                        format!(
                            "monitored region sid {} at {} is mapped cacheable (va {va:#x})",
                            region.sid, region.base_va
                        ),
                        graph.chain(run.visit, entry),
                    );
                }
            }
        }
        if !mapped {
            report.finding(
                CheckKind::WatchCoverage,
                format!(
                    "monitored region sid {} at {} has no kernel mapping",
                    region.sid, region.base_va
                ),
                Vec::new(),
            );
        }
        let coverage = hyp
            .config()
            .bitmap
            .coverage(region.pa, region.len, |pa| m.debug_read_phys(pa));
        if !coverage.is_full() {
            let mut detail = format!(
                "monitored region sid {} at {}: {}/{} words watched",
                region.sid, region.base_va, coverage.watched, coverage.words
            );
            if let Some(first) = coverage.unwatched.first() {
                detail.push_str(&format!(", first unwatched {first}"));
            }
            if let Some(first) = coverage.outside_window.first() {
                detail.push_str(&format!(", first outside window {first}"));
            }
            report.finding(CheckKind::WatchCoverage, detail, Vec::new());
        }
    }
}

/// Compares the static findings with Hypersec's incremental runtime
/// audit of the same state. The comparison is on the *verdict*, not
/// the phrasing: both analyses must agree on whether the system is
/// dirty. A static-only finding means the incremental verifier admitted
/// something it should not have (a verifier bug); an incremental-only
/// violation means the static pass has a gap.
fn differential(report: &StaticAuditReport, incremental: &AuditReport) -> DifferentialReport {
    let mut diff = DifferentialReport {
        static_findings: report.findings.len() as u64,
        incremental_violations: incremental.violations.clone(),
        disagreements: Vec::new(),
    };
    let static_dirty = !report.findings.is_empty();
    let incremental_dirty = !incremental.violations.is_empty();
    if static_dirty && !incremental_dirty {
        for finding in &report.findings {
            diff.disagreements.push(format!("static-only: {finding}"));
        }
    } else if incremental_dirty && !static_dirty {
        for violation in &incremental.violations {
            diff.disagreements
                .push(format!("incremental-only: {violation}"));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::machine::MachineConfig;
    use hypernel_machine::pagetable::{desc, Descriptor, PagePerms};

    /// A kernel-half walk down to one level-3 table whose entries
    /// `0x10..0x30` identity-map `0x41_0000..0x43_0000`: entry `0x18` is
    /// writable+executable, the rest kernel data, and the level-3 table
    /// page itself (`0x41_4000`) lies inside the mapped range.
    fn identity_run_graph() -> MappingGraph {
        let mut m = Machine::new(MachineConfig {
            dram_size: 8 << 20,
            ..MachineConfig::default()
        });
        let (root, l1, l2, l3) = (0x10_0000u64, 0x10_1000, 0x10_2000, 0x41_4000);
        for t in [root, l1, l2, l3] {
            m.debug_zero_page(PhysAddr::new(t));
        }
        let table = |next: u64| next | desc::VALID | desc::TABLE;
        m.debug_write_phys(PhysAddr::new(root), table(l1));
        m.debug_write_phys(PhysAddr::new(l1), table(l2));
        m.debug_write_phys(PhysAddr::new(l2 + 2 * 8), table(l3));
        for i in 0x10..0x30u64 {
            let perms = PagePerms {
                exec: i == 0x18,
                ..PagePerms::KERNEL_DATA
            };
            let out = PhysAddr::new(0x40_0000 + i * 0x1000);
            m.debug_write_phys(
                PhysAddr::new(l3 + i * 8),
                Descriptor::Leaf { out, perms }.encode(),
            );
        }
        let roots = [RootSpec {
            pa: PhysAddr::new(root),
            kernel_space: true,
            origins: vec![RootOrigin::KernelKnown],
        }];
        MappingGraph::walk(&m, &roots, None)
    }

    /// The findings, chains and leaf count a per-leaf walk gives for
    /// this table, from three runs.
    #[test]
    fn runs_give_the_per_leaf_findings_and_leaf_count() {
        let graph = identity_run_graph();
        assert_eq!(graph.runs.len(), 3);
        assert_eq!(graph.leaf_count(), 32);
        let mut report = StaticAuditReport::default();
        check_leaves(&graph, &mut report);
        check_tables_ro(&graph, &[], &mut report);
        let findings: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
        assert_eq!(
            findings,
            [
                "[wx-mapping] writable+executable leaf at va 0x418000 -> 0x418000 \
                 (via 0x100000[0] -> 0x101000[0] -> 0x102000[2] -> 0x414000[24])",
                "[table-writable] table page 0x414000 is writable via va 0x414000 \
                 (via 0x100000[0] -> 0x101000[0] -> 0x102000[2] -> 0x414000[20])",
            ]
        );
    }
}
