//! The table walk of [`Hypersec::audit`] (invariants 1–4), and the
//! baseline a template family's forks run it against.
//!
//! The walk descends from each root through every table descriptor,
//! without a visited set: a table reached twice is checked twice, and
//! the levels bound the depth. Each table's verdicts depend only on its
//! entries, its context (level, VA base, kernel half, the W⊕X switch)
//! and whether the verified pool holds it.
//!
//! An [`AuditBaseline`] keeps, per root and context, a cold walk of the
//! family snapshot (see [`hypernel_machine::snapshot`]), flat in
//! depth-first order: per visit its subtree's extent, leaf count and
//! range of violations. Every walk of one family checks registration
//! against one pool, the first auditing fork's. A fork's walk copies
//! the counts and violations of every subtree that holds no page of
//! the dirty set D and no table whose registration differs between
//! that pool and the current one. It replays an unchanged table above
//! such a page from the baseline, checking its registration afresh, and
//! decodes only the tables of D. The report is the cold walk's.
//!
//! [`Hypersec::audit`]: crate::Hypersec::audit

use std::cell::RefCell;
use std::rc::Rc;

use hypernel_kernel::layout;
use hypernel_machine::addr::{PhysAddr, PAGE_SHIFT};
use hypernel_machine::fxhash::FxHashMap;
use hypernel_machine::pagetable::Descriptor;
use hypernel_machine::snapshot::{Snapshot, TableView};

use crate::hypersec::{is_kernel_text, level_shift, AuditReport, Pool};

/// Invariant 1's violation for `table`.
fn unregistered(table: PhysAddr) -> String {
    format!("reachable table {table} is not registered")
}

/// One visit of the audit walk, with its subtree in depth-first order.
#[derive(Clone, Copy, Debug)]
struct Visit {
    table: PhysAddr,
    level: u32,
    va_base: u64,
    parent: Option<usize>,
    /// One past the subtree's last visit.
    end: usize,
    /// Leaves the subtree holds.
    leaves: u64,
    /// The subtree's range of violations.
    violations: (usize, usize),
    /// Whether the table failed invariant 1: then the first violation
    /// of its range says so.
    unregistered: bool,
}

/// A cold walk of one root in the family snapshot.
#[derive(Debug)]
struct RootBaseline {
    visits: Vec<Visit>,
    violations: Vec<String>,
    /// `(table, visit)` for every visit, sorted.
    index: Vec<(PhysAddr, usize)>,
}

impl RootBaseline {
    /// The visits of `table`, in walk order.
    fn visits_of(&self, table: PhysAddr) -> impl Iterator<Item = usize> + '_ {
        let start = self.index.partition_point(|&(t, _)| t < table);
        self.index[start..]
            .iter()
            .take_while(move |&&(t, _)| t == table)
            .map(|&(_, visit)| visit)
    }

    /// A visit of `table` at `level` and `va_base`, if the walk made one.
    fn find(&self, table: PhysAddr, level: u32, va_base: u64) -> Option<usize> {
        self.visits_of(table).find(|&v| {
            let visit = &self.visits[v];
            (visit.level, visit.va_base) == (level, va_base)
        })
    }
}

/// [`Hypersec::audit`]'s baseline for a template family: per root and
/// context (kernel half, W⊕X switch), a cold walk of the family
/// snapshot, made when a fork's audit first meets it. Keyed by the
/// switch, a miswired verifier never copies a correctly wired one's
/// result. `Clone` shares it, so a Hypersec and its clones (a template
/// and its forks) hold one; `Default` is empty.
///
/// [`Hypersec::audit`]: crate::Hypersec::audit
#[derive(Clone, Debug, Default)]
pub struct AuditBaseline(Rc<RefCell<Baselines>>);

#[derive(Debug, Default)]
struct Baselines {
    /// The snapshot the walks read; another snapshot starts afresh.
    snapshot: Option<Rc<Snapshot>>,
    /// The pool every walk's "not registered" verdicts hold for.
    pool: Rc<Pool>,
    roots: FxHashMap<(PhysAddr, bool, bool), Rc<RootBaseline>>,
}

impl AuditBaseline {
    /// Number of root walks held.
    pub fn len(&self) -> usize {
        self.0.borrow().roots.len()
    }

    /// Whether no root walk is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The baselines of `roots` in `snapshot`, each walked on first
    /// use, and the tables on which the pool they were walked with and
    /// `pool` disagree. The family's first audit sets that pool.
    fn roots(
        &self,
        snapshot: &Rc<Snapshot>,
        pool: &Rc<Pool>,
        roots: &[Ctx],
    ) -> (Vec<Rc<RootBaseline>>, Vec<PhysAddr>) {
        let mut baselines = self.0.borrow_mut();
        if !baselines
            .snapshot
            .as_ref()
            .is_some_and(|s| Rc::ptr_eq(s, snapshot))
        {
            *baselines = Baselines {
                snapshot: Some(Rc::clone(snapshot)),
                pool: Rc::clone(pool),
                roots: FxHashMap::default(),
            };
        }
        let Baselines {
            pool: family,
            roots: walks,
            ..
        } = &mut *baselines;
        let bases = roots
            .iter()
            .map(|&ctx| {
                let key = (ctx.root, ctx.kernel_space, ctx.wx_check);
                let base = walks
                    .entry(key)
                    .or_insert_with(|| Rc::new(RootBaseline::walk(snapshot, family, ctx)));
                Rc::clone(base)
            })
            .collect();
        (bases, family.difference(pool))
    }
}

impl RootBaseline {
    /// The cold walk of `ctx.root` in `snapshot`, registration checked
    /// against `pool`.
    fn walk(snapshot: &Snapshot, pool: &Pool, ctx: Ctx) -> Self {
        let mut report = AuditReport::default();
        let view = snapshot.view();
        let mut walk = Walk::new(&view, pool, ctx, &mut report, None, &[]);
        walk.record = Some(Vec::new());
        walk.tree(ctx.root, 0, 0, None, None);
        let visits = walk.record.take().unwrap_or_default();
        let mut index: Vec<(PhysAddr, usize)> = (0..)
            .zip(&visits)
            .map(|(v, visit)| (visit.table, v))
            .collect();
        index.sort_unstable();
        Self {
            visits,
            violations: report.violations,
            index,
        }
    }
}

/// What one root's walk checks against.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ctx {
    pub(crate) root: PhysAddr,
    pub(crate) kernel_space: bool,
    pub(crate) wx_check: bool,
}

/// Walks each of `roots` into `report`: invariant 1 against `pool`,
/// 2–4 on every leaf. With a machine whose family was forked, subtrees
/// are copied from `baseline` where that gives the same report.
pub(crate) fn walk_roots(
    view: &TableView<'_>,
    pool: &Rc<Pool>,
    baseline: &AuditBaseline,
    roots: &[Ctx],
    report: &mut AuditReport,
) {
    let (bases, changed) = match view.snapshot() {
        Some(snapshot) => baseline.roots(snapshot, pool, roots),
        None => (Vec::new(), Vec::new()),
    };
    for (i, &ctx) in roots.iter().enumerate() {
        let base = bases.get(i).map(Rc::as_ref);
        Walk::new(view, pool, ctx, report, base, &changed).tree(ctx.root, 0, 0, None, None);
    }
}

struct Walk<'w> {
    view: &'w TableView<'w>,
    pool: &'w Pool,
    ctx: Ctx,
    report: &'w mut AuditReport,
    base: Option<&'w RootBaseline>,
    /// Per baseline visit: whether its subtree holds a page of D or a
    /// table the two pools disagree on.
    hot: Vec<bool>,
    /// The visits, recorded while walking a baseline.
    record: Option<Vec<Visit>>,
}

impl<'w> Walk<'w> {
    /// A walk of `ctx.root`, against `base` if given; `changed` lists
    /// the tables on which `pool` and the baseline's pool disagree.
    fn new(
        view: &'w TableView<'w>,
        pool: &'w Pool,
        ctx: Ctx,
        report: &'w mut AuditReport,
        base: Option<&'w RootBaseline>,
        changed: &[PhysAddr],
    ) -> Self {
        let mut hot = Vec::new();
        if let Some(base) = base {
            hot = vec![false; base.visits.len()];
            let dirty = view
                .dirty()
                .iter()
                .map(|&page| PhysAddr::new(page << PAGE_SHIFT));
            for table in dirty.chain(changed.iter().copied()) {
                for visit in base.visits_of(table) {
                    let mut at = Some(visit);
                    while let Some(v) = at.filter(|&v| !hot[v]) {
                        hot[v] = true;
                        at = base.visits[v].parent;
                    }
                }
            }
        }
        Self {
            view,
            pool,
            ctx,
            report,
            base,
            hot,
            record: None,
        }
    }

    /// Audits the table at `table` and everything below it. `hint` is
    /// its baseline visit when the caller already knows it.
    fn tree(
        &mut self,
        table: PhysAddr,
        level: u32,
        va_base: u64,
        parent: Option<usize>,
        hint: Option<usize>,
    ) {
        let base = self.base;
        let at = hint.or_else(|| base.and_then(|b| b.find(table, level, va_base)));
        if let (Some(base), Some(u)) = (base, at) {
            if !self.hot[u] {
                let visit = &base.visits[u];
                self.report.tables_checked += (visit.end - u) as u64;
                self.report.leaves_checked += visit.leaves;
                let (from, to) = visit.violations;
                self.report
                    .violations
                    .extend_from_slice(&base.violations[from..to]);
                return;
            }
            if !self.view.is_dirty(table) {
                self.expand(base, u);
                return;
            }
        }
        let (leaves, violations) = (self.report.leaves_checked, self.report.violations.len());
        let visit = self.record.as_ref().map_or(0, Vec::len);
        if let Some(record) = &mut self.record {
            record.push(Visit {
                table,
                level,
                va_base,
                parent,
                end: 0,
                leaves: 0,
                violations: (violations, 0),
                unregistered: false,
            });
        }
        self.report.tables_checked += 1;
        let registered = self.pool.contains(table);
        if !registered {
            self.report.violation(unregistered(table));
        }
        match self.view.read(table) {
            Ok(entries) => {
                for (i, raw) in (0u64..).zip(&entries) {
                    let va = va_base | i << level_shift(level);
                    match Descriptor::decode(*raw, level) {
                        Descriptor::Invalid => {}
                        Descriptor::Table { .. } if level >= 3 => self
                            .report
                            .violation(format!("table pointer at leaf level in {table}")),
                        Descriptor::Table { next } => {
                            self.tree(next, level + 1, va, Some(visit), None);
                        }
                        Descriptor::Leaf { out, perms } => {
                            self.report.leaves_checked += 1;
                            let span = 1u64 << level_shift(level);
                            if out.raw() + span > layout::SECURE_BASE {
                                self.report.violation(format!(
                                    "leaf at va {va:#x} maps secure memory ({out})"
                                ));
                            }
                            if perms.write && perms.exec && self.ctx.wx_check {
                                self.report
                                    .violation(format!("W^X violation at va {va:#x}"));
                            }
                            if self.ctx.kernel_space && va != out.raw() {
                                self.report.violation(format!(
                                    "kernel linear leaf not identity: va {va:#x} -> {out}"
                                ));
                            }
                            if self.ctx.kernel_space && perms.write && is_kernel_text(out, span) {
                                self.report
                                    .violation(format!("kernel text writable at va {va:#x}"));
                            }
                        }
                    }
                }
            }
            Err(_) => self
                .report
                .violation(format!("reachable table {table} is outside DRAM")),
        }
        if let Some(record) = &mut self.record {
            let end = record.len();
            let entry = &mut record[visit];
            entry.end = end;
            entry.leaves = self.report.leaves_checked - leaves;
            entry.violations.1 = self.report.violations.len();
            entry.unregistered = !registered;
        }
    }

    /// Audits baseline visit `u`, whose table the run left unchanged,
    /// without decoding it: its registration afresh, its own leaves and
    /// violations from the baseline, and each child in turn.
    fn expand(&mut self, base: &'w RootBaseline, u: usize) {
        let visit = &base.visits[u];
        self.report.tables_checked += 1;
        // The baseline's own verdicts start with its registration one.
        let mut from = visit.violations.0 + usize::from(visit.unregistered);
        if !self.pool.contains(visit.table) {
            self.report.violation(unregistered(visit.table));
        }
        let mut leaves = visit.leaves;
        let mut c = u + 1;
        while c < visit.end {
            let child = base.visits[c];
            self.report
                .violations
                .extend_from_slice(&base.violations[from..child.violations.0]);
            leaves -= child.leaves;
            self.tree(child.table, child.level, child.va_base, None, Some(c));
            (from, c) = (child.violations.1, child.end);
        }
        self.report
            .violations
            .extend_from_slice(&base.violations[from..visit.violations.1]);
        self.report.leaves_checked += leaves;
    }
}
