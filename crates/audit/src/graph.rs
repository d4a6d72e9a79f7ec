//! The snapshot walker: from a paused machine, rebuild the full
//! stage-1 mapping graph reachable from a set of translation roots.
//!
//! The walker reads each table page whole through the machine's
//! [`TableView`] (cache coherent, zero simulated cycles, no
//! architectural effect) and keeps the graph compact:
//!
//! - every table *visit* records its parent link — the `(table, index)`
//!   entry that led to it — so the *descriptor chain* from the root to
//!   any entry is rebuilt on demand ([`MappingGraph::chain`]) instead of
//!   being stored with every leaf;
//! - leaves are stored as *runs* ([`LeafRun`]): consecutive entries of
//!   one table with contiguous outputs and equal permissions. A 2 GiB
//!   linear map of 4 KiB pages is half a million leaves but a few
//!   thousand runs, and a check whose verdict is the same for a whole
//!   run looks at each run once.
//!
//! A fork's walk reads little. Its family keeps a [`WalkBaseline`]: a
//! cold walk of the snapshot its template recorded at its first fork
//! (see [`hypernel_machine::snapshot`]), flat in depth-first order, so
//! each visit's subtree is one contiguous range of visits, of runs and
//! of malformed descriptors. The fork decodes only the tables of its
//! dirty set D that it reaches (and any table the baseline does not
//! hold at the same place). An unchanged table on the path to one is
//! replayed from the baseline, and every other subtree, and each
//! stretch of unchanged siblings, is copied as one block with visit
//! indexes and parent links rebased. A block is copied only when the
//! copy is what decoding would give: its table is reached at the
//! baseline's level and address, no page of the block is in D, the walk
//! has not yet reached any of its tables under this root, and no
//! pointer inside it was skipped as a revisit of a table outside it. A
//! table reached afterwards inside a copied block counts as a revisit,
//! as the cold walk's visited set would count it.
//!
//! The walk is cycle-safe: a table revisited along one root's walk is
//! not descended into again, so a maliciously self-referencing table
//! terminates instead of recursing forever, and a chain is the path of
//! the table's first visit under its root. A root or table pointer
//! outside DRAM is recorded as malformed and not descended into.

use std::cell::RefCell;
use std::rc::Rc;

use hypernel_machine::addr::{PhysAddr, PAGE_SHIFT};
use hypernel_machine::fxhash::FxHashMap;
use hypernel_machine::machine::Machine;
use hypernel_machine::pagetable::{desc, Descriptor, PagePerms};
use hypernel_machine::snapshot::{Snapshot, TableView};

/// How a root entered the walk — provenance shown in findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootOrigin {
    /// The live `TTBR1_EL1` value (kernel half).
    ActiveTtbr1,
    /// The live `TTBR0_EL1` value (user half, ASID stripped).
    ActiveTtbr0,
    /// A root the kernel's own bookkeeping knows about.
    KernelKnown,
    /// A root in Hypersec's verified set.
    HypervisorVerified,
}

impl RootOrigin {
    /// Stable lower-case name for diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RootOrigin::ActiveTtbr1 => "active-ttbr1",
            RootOrigin::ActiveTtbr0 => "active-ttbr0",
            RootOrigin::KernelKnown => "kernel-known",
            RootOrigin::HypervisorVerified => "hypervisor-verified",
        }
    }
}

/// One translation root fed to the walker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootSpec {
    /// Physical address of the level-0 table.
    pub pa: PhysAddr,
    /// `true` for the kernel half (linear-identity rules apply).
    pub kernel_space: bool,
    /// Every provenance this root was seen with (deduplicated).
    pub origins: Vec<RootOrigin>,
}

/// One `(table, index)` step of a descriptor chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// Physical address of the table page holding the descriptor.
    pub table: PhysAddr,
    /// Entry index within the table (0..512).
    pub index: u64,
}

impl std::fmt::Display for ChainLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.table, self.index)
    }
}

/// Renders a descriptor chain as `root[i] -> table[j] -> ...`.
pub fn chain_display(chain: &[ChainLink]) -> String {
    chain
        .iter()
        .map(ChainLink::to_string)
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// One table page as reached during one root's walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableVisit {
    /// Physical address of the table page.
    pub table: PhysAddr,
    /// Index into [`MappingGraph::roots`] of the root being walked.
    pub root: usize,
    /// The visit and entry index of the descriptor that pointed here;
    /// `None` for the root table.
    pub parent: Option<(usize, u64)>,
}

/// A run of reachable leaves: entries `first..first + len` of one table
/// visit, with equal permissions and contiguous outputs. Leaf `k` of
/// the run maps `va + k * span` to `out + k * span`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafRun {
    /// Index into [`MappingGraph::visits`] of the table holding the run.
    pub visit: usize,
    /// Entry index of the first leaf.
    pub first: u64,
    /// Number of leaves.
    pub len: u64,
    /// Whether the run was reached from a kernel-half root.
    pub kernel_space: bool,
    /// Virtual address the first leaf maps.
    pub va: u64,
    /// Output physical address of the first leaf.
    pub out: PhysAddr,
    /// Bytes each leaf covers (4 KiB page or a 2 MiB / 1 GiB block).
    pub span: u64,
    /// Decoded permissions of every leaf.
    pub perms: PagePerms,
}

impl LeafRun {
    /// End of the output range the run maps (exclusive).
    pub fn out_end(&self) -> u64 {
        self.out.raw() + self.len * self.span
    }

    /// Whether some leaf of the run maps a byte of `[base, base + len)`.
    pub fn overlaps(&self, base: u64, len: u64) -> bool {
        self.out.raw() < base + len && self.out_end() > base
    }

    /// The run's leaves, in entry order, as `(entry index, va, out)`.
    pub fn leaves(&self) -> impl Iterator<Item = (u64, u64, PhysAddr)> {
        let run = *self;
        (0..run.len).map(move |k| {
            (
                run.first + k,
                run.va + k * run.span,
                run.out.add(k * run.span),
            )
        })
    }
}

/// The reconstructed mapping graph of a paused machine.
#[derive(Clone, Debug, Default)]
pub struct MappingGraph {
    /// The roots that were walked, in walk order.
    pub roots: Vec<RootSpec>,
    /// Every table visit, in walk order. A table reached from two roots
    /// is visited once under each.
    pub visits: Vec<TableVisit>,
    /// Every table page visited, sorted and deduplicated.
    pub tables: Vec<PhysAddr>,
    /// Every reachable leaf, as runs in deterministic walk order.
    pub runs: Vec<LeafRun>,
    /// Structurally malformed descriptors (a table pointer at leaf
    /// level, a root or table outside DRAM), each with the offending
    /// chain.
    pub malformed: Vec<(String, Vec<ChainLink>)>,
}

/// A malformed descriptor and the entry that holds it (`None` for a
/// root outside DRAM). Its chain is rebuilt from the parent links once
/// the walk is done, so a copied block needs only its links rebased.
type Malformed = (String, Option<(usize, u64)>);

/// A walk's output, flat in depth-first order: each visit's subtree is
/// one contiguous range of `visits`, one of `runs` and one of
/// `malformed`.
#[derive(Debug, Default)]
struct Flat {
    visits: Vec<TableVisit>,
    runs: Vec<LeafRun>,
    malformed: Vec<Malformed>,
}

/// A position in a flat walk: an index into its visits, its runs and
/// its malformed descriptors. Whole sibling subtrees lie between two.
type Pos = (usize, usize, usize);

impl Flat {
    /// The position where the next visit, run or descriptor goes.
    fn end(&self) -> Pos {
        (self.visits.len(), self.runs.len(), self.malformed.len())
    }
}

/// Where one baseline visit's subtree lies, and what reading it took.
#[derive(Clone, Copy, Debug)]
struct Subtree {
    level: u32,
    va_base: u64,
    /// Where the subtree begins (at its own visit) and ends.
    start: Pos,
    end: Pos,
    /// Whether a pointer inside the subtree was skipped as a revisit of
    /// a table reached before the subtree began: a copy of the subtree
    /// alone would skip it too, where the walk copying it need not.
    open: bool,
    /// Whether the table's own entries are only leaves, invalid entries
    /// and pointers to its children: then its own runs and its children
    /// are all it adds, and a walk may replay them without decoding it.
    plain: bool,
}

/// A cold walk of one root in the family snapshot.
#[derive(Debug)]
struct RootBaseline {
    flat: Flat,
    subtrees: Vec<Subtree>,
    /// Each table's visit: a walk visits a table at most once per root.
    index: FxHashMap<u64, usize>,
}

impl RootBaseline {
    fn walk(view: &TableView<'_>, spec: &RootSpec) -> Self {
        let mut flat = Flat::default();
        let mut walk = Walk::new(view, &mut flat, 0, spec.kernel_space, None);
        walk.subtrees = Some(Vec::new());
        walk.table(spec.pa, 0, 0, None, None);
        let subtrees = walk.subtrees.take().unwrap_or_default();
        let index = (0..)
            .zip(&flat.visits)
            .map(|(visit, v)| (v.table.raw(), visit))
            .collect();
        Self {
            flat,
            subtrees,
            index,
        }
    }
}

/// The static walk's baseline for a template family: per root (its
/// address and half), a cold walk of the family snapshot (see
/// [`hypernel_machine::snapshot`]), made when a fork's audit first
/// meets the root. A fork's walk decodes only the tables its run
/// changed and takes everything else from the baseline. `Clone` shares it, so a template and its forks hold one;
/// `Default` is empty.
#[derive(Clone, Debug, Default)]
pub struct WalkBaseline(Rc<RefCell<Baselines>>);

#[derive(Debug, Default)]
struct Baselines {
    /// The snapshot the walks read; another snapshot starts afresh.
    snapshot: Option<Rc<Snapshot>>,
    roots: FxHashMap<(u64, bool), Rc<RootBaseline>>,
}

impl WalkBaseline {
    /// Number of root walks held.
    pub fn len(&self) -> usize {
        self.0.borrow().roots.len()
    }

    /// Whether no root walk is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The baseline of `spec` in `snapshot`, walked on first use.
    fn root(&self, snapshot: &Rc<Snapshot>, spec: &RootSpec) -> Rc<RootBaseline> {
        let mut baselines = self.0.borrow_mut();
        if !baselines
            .snapshot
            .as_ref()
            .is_some_and(|s| Rc::ptr_eq(s, snapshot))
        {
            *baselines = Baselines {
                snapshot: Some(Rc::clone(snapshot)),
                roots: FxHashMap::default(),
            };
        }
        let key = (spec.pa.raw(), spec.kernel_space);
        let base = baselines
            .roots
            .entry(key)
            .or_insert_with(|| Rc::new(RootBaseline::walk(&snapshot.view(), spec)));
        Rc::clone(base)
    }
}

impl MappingGraph {
    /// Walks every root and returns the graph. Deterministic: roots are
    /// walked in order, entries in index order. With a `baseline` and a
    /// machine whose family was forked, a subtree the run left unchanged
    /// is copied from the baseline instead of decoded; the graph is the
    /// same either way.
    pub fn walk(m: &Machine, roots: &[RootSpec], baseline: Option<&WalkBaseline>) -> Self {
        Self::walk_view(&m.table_view(), roots, baseline)
    }

    /// [`MappingGraph::walk`] through a view the caller holds.
    pub fn walk_view(
        view: &TableView<'_>,
        roots: &[RootSpec],
        baseline: Option<&WalkBaseline>,
    ) -> Self {
        let mut flat = Flat::default();
        for (root, spec) in roots.iter().enumerate() {
            let base = baseline
                .zip(view.snapshot())
                .map(|(baseline, snapshot)| baseline.root(snapshot, spec));
            let mut walk = Walk::new(view, &mut flat, root, spec.kernel_space, base.as_deref());
            walk.table(spec.pa, 0, 0, None, None);
        }
        let mut graph = MappingGraph {
            roots: roots.to_vec(),
            visits: flat.visits,
            runs: flat.runs,
            ..MappingGraph::default()
        };
        graph.malformed = flat
            .malformed
            .into_iter()
            .map(|(detail, at)| {
                let chain = at.map_or_else(Vec::new, |(visit, index)| graph.chain(visit, index));
                (detail, chain)
            })
            .collect();
        graph.tables = graph.visits.iter().map(|v| v.table).collect();
        graph.tables.sort_unstable();
        graph.tables.dedup();
        graph
    }

    /// Number of reachable leaves, counted once per root that reaches
    /// them.
    pub fn leaf_count(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// The descriptor chain from the root to entry `entry` of `visit`.
    pub fn chain(&self, visit: usize, entry: u64) -> Vec<ChainLink> {
        let mut chain = vec![ChainLink {
            table: self.visits[visit].table,
            index: entry,
        }];
        let mut parent = self.visits[visit].parent;
        while let Some((visit, index)) = parent {
            chain.push(ChainLink {
                table: self.visits[visit].table,
                index,
            });
            parent = self.visits[visit].parent;
        }
        chain.reverse();
        chain
    }
}

/// One root's walk: the state its recursion carries.
struct Walk<'w> {
    view: &'w TableView<'w>,
    out: &'w mut Flat,
    root: usize,
    kernel_space: bool,
    /// Tables walked under this root that have no baseline visit, each
    /// with the first visit that reached it: its own, or for a table
    /// outside DRAM the visit holding the pointer.
    seen: FxHashMap<u64, usize>,
    /// The subtrees, recorded while walking a baseline.
    subtrees: Option<Vec<Subtree>>,
    base: Option<&'w RootBaseline>,
    /// Per baseline visit: whether its subtree holds a page of D.
    hot: Vec<bool>,
    /// Per baseline visit: whether this walk has reached its table.
    reached: Vec<bool>,
}

impl<'w> Walk<'w> {
    fn new(
        view: &'w TableView<'w>,
        out: &'w mut Flat,
        root: usize,
        kernel_space: bool,
        base: Option<&'w RootBaseline>,
    ) -> Self {
        let visits = base.map_or(0, |b| b.flat.visits.len());
        let mut hot = vec![false; visits];
        if let Some(base) = base {
            for page in view.dirty() {
                let mut visit = base.index.get(&(page << PAGE_SHIFT)).copied();
                while let Some(v) = visit.filter(|&v| !hot[v]) {
                    hot[v] = true;
                    visit = base.flat.visits[v].parent.map(|(p, _)| p);
                }
            }
        }
        Self {
            view,
            out,
            root,
            kernel_space,
            seen: FxHashMap::default(),
            subtrees: None,
            base,
            hot,
            reached: vec![false; visits],
        }
    }

    /// Walks the table at `table`, reached through `parent`. `hint` is
    /// its baseline visit when the caller already knows it.
    fn table(
        &mut self,
        table: PhysAddr,
        level: u32,
        va_base: u64,
        parent: Option<(usize, u64)>,
        hint: Option<usize>,
    ) {
        let base = self.base;
        let at = hint.or_else(|| base.and_then(|b| b.index.get(&table.raw()).copied()));
        match (base, at) {
            (_, Some(u)) if self.reached[u] => return, // walked under this root
            (Some(b), Some(u)) => {
                let sub = &b.subtrees[u];
                if self.copyable(u, level, va_base) {
                    self.copy((sub.start, sub.end), parent.map(|(visit, _)| visit));
                    return;
                }
                if sub.plain
                    && (sub.level, sub.va_base) == (level, va_base)
                    && !self.view.is_dirty(table)
                {
                    self.expand(b, u, parent);
                    return;
                }
                self.reached[u] = true;
            }
            _ => {
                if let Some(&first) = self.seen.get(&table.raw()) {
                    self.revisit(first, parent);
                    return;
                }
                self.seen.insert(table.raw(), self.out.visits.len());
            }
        }
        let Ok(entries) = self.view.read(table) else {
            let detail = match parent {
                None => format!("root table {table} is outside DRAM"),
                Some(_) => format!("table pointer outside DRAM ({table}), va {va_base:#x}"),
            };
            self.out.malformed.push((detail, parent));
            self.seen
                .insert(table.raw(), parent.map_or(0, |(visit, _)| visit));
            if let (Some(subtrees), Some((holder, _))) = (&mut self.subtrees, parent) {
                subtrees[holder].plain = false;
            }
            return;
        };
        let visit = self.out.visits.len();
        self.out.visits.push(TableVisit {
            table,
            root: self.root,
            parent,
        });
        if let Some(subtrees) = &mut self.subtrees {
            let start = (visit, self.out.runs.len(), self.out.malformed.len());
            subtrees.push(Subtree {
                level,
                va_base,
                start,
                end: start,
                open: false,
                plain: true,
            });
        }
        let shift = level_shift(level);
        let mut run: Option<LeafRun> = None;
        // The raw descriptor of the open run's last leaf.
        let mut last = 0u64;
        for (i, &raw) in (0u64..).zip(&entries) {
            if let Some(r) = &mut run {
                // The same attributes one leaf further on: no decode.
                if raw == last.wrapping_add(1 << shift) && (raw ^ last) & !desc::ADDR_MASK == 0 {
                    r.len += 1;
                    last = raw;
                    continue;
                }
            }
            let va = va_base | i << shift;
            match Descriptor::decode(raw, level) {
                Descriptor::Leaf { out, perms } => {
                    last = raw;
                    match &mut run {
                        Some(r) if r.perms == perms && r.out_end() == out.raw() => r.len += 1,
                        _ => self.out.runs.extend(run.replace(LeafRun {
                            visit,
                            first: i,
                            len: 1,
                            kernel_space: self.kernel_space,
                            va,
                            out,
                            span: 1 << shift,
                            perms,
                        })),
                    }
                }
                Descriptor::Invalid => self.out.runs.extend(run.take()),
                Descriptor::Table { next } => {
                    self.out.runs.extend(run.take());
                    if level >= 3 {
                        let detail = format!("table pointer at leaf level, va {va:#x}");
                        self.out.malformed.push((detail, Some((visit, i))));
                        if let Some(subtrees) = &mut self.subtrees {
                            subtrees[visit].plain = false;
                        }
                        continue;
                    }
                    self.table(next, level + 1, va, Some((visit, i)), None);
                }
            }
        }
        self.out.runs.extend(run);
        if let Some(subtrees) = &mut self.subtrees {
            subtrees[visit].end = self.out.end();
        }
    }

    /// A pointer from `parent` to a table first reached at visit
    /// `first`: the cold walk skips it. While recording a baseline, it
    /// makes the holder not plain and opens every subtree on the way up
    /// that begins after `first`.
    fn revisit(&mut self, first: usize, parent: Option<(usize, u64)>) {
        let Some(subtrees) = &mut self.subtrees else {
            return;
        };
        let mut visit = parent.map(|(v, _)| v);
        if let Some(holder) = visit {
            subtrees[holder].plain = false;
        }
        while let Some(v) = visit.filter(|&v| v > first) {
            subtrees[v].open = true;
            visit = self.out.visits[v].parent.map(|(p, _)| p);
        }
    }

    /// Whether baseline visit `u`'s subtree, its table reached at
    /// `level` and `va_base`, is what decoding it would give: reached at
    /// the baseline's level and address, with no page of D, no table
    /// this walk has reached, and no revisit of a table outside it.
    fn copyable(&self, u: usize, level: u32, va_base: u64) -> bool {
        let Some(base) = self.base else {
            return false;
        };
        let sub = &base.subtrees[u];
        (sub.level, sub.va_base) == (level, va_base)
            && !sub.open
            && !self.hot[u]
            && !self.reached[u..sub.end.0].contains(&true)
    }

    /// Walks baseline visit `u`, a plain table the run left unchanged and
    /// reached at the baseline's level and address, without decoding it:
    /// its own runs and the children that may be copied go in blocks,
    /// and each other child is walked, or skipped if this walk has
    /// reached it already.
    fn expand(&mut self, b: &'w RootBaseline, u: usize, parent: Option<(usize, u64)>) {
        self.reached[u] = true;
        let visit = self.out.visits.len();
        self.out.visits.push(TableVisit {
            table: b.flat.visits[u].table,
            root: self.root,
            parent,
        });
        let sub = b.subtrees[u];
        // Where the stretch still to copy begins.
        let mut from = (u + 1, sub.start.1, sub.start.2);
        let mut c = u + 1;
        while c < sub.end.0 {
            let child = b.subtrees[c];
            if !self.copyable(c, child.level, child.va_base) {
                self.copy((from, child.start), Some(visit));
                if !self.reached[c] {
                    let link = b.flat.visits[c].parent.expect("a child");
                    let table = b.flat.visits[c].table;
                    let va = child.va_base;
                    self.table(table, child.level, va, Some((visit, link.1)), Some(c));
                }
                from = child.end;
            }
            c = child.end.0;
        }
        self.copy((from, sub.end), Some(visit));
    }

    /// Appends the baseline between `from` and `to` as the walk of its
    /// tables (whole sibling subtrees, and runs of their parent): visit
    /// indexes rebased, and a link or run of a table outside the block
    /// (its parent) moved to visit `parent`, with the same entry index,
    /// as the level and address match. Chains are rebuilt at the end.
    fn copy(&mut self, (from, to): (Pos, Pos), parent: Option<usize>) {
        let base = self.base.expect("copies come from a baseline");
        let (start, end) = (from.0, to.0);
        let new = self.out.visits.len();
        let rebase = |v: usize| {
            if v < start {
                parent.expect("a parent outside the block")
            } else {
                v + new - start
            }
        };
        let link = |(p, i): (usize, u64)| (rebase(p), i);
        let root = self.root;
        self.out
            .visits
            .extend(base.flat.visits[start..end].iter().map(|v| TableVisit {
                table: v.table,
                root,
                parent: v.parent.map(link),
            }));
        let (runs, malformed) = (&base.flat.runs, &base.flat.malformed);
        self.out
            .runs
            .extend(runs[from.1..to.1].iter().map(|r| LeafRun {
                visit: rebase(r.visit),
                ..*r
            }));
        self.out.malformed.extend(
            malformed[from.2..to.2]
                .iter()
                .map(|(detail, at)| (detail.clone(), at.map(link))),
        );
        self.reached[start..end].fill(true);
    }
}

fn level_shift(level: u32) -> u32 {
    12 + 9 * (3 - level)
}

/// Strips the ASID field from a raw `TTBRn_EL1` value, leaving the
/// table base.
pub fn ttbr_base(raw: u64) -> PhysAddr {
    PhysAddr::new(raw & desc::ADDR_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::machine::MachineConfig;
    use hypernel_machine::pagetable::desc as d;

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            dram_size: 8 << 20,
            ..MachineConfig::default()
        })
    }

    fn table_desc(next: u64) -> u64 {
        next | d::VALID | d::TABLE
    }

    #[test]
    fn walks_chain_and_records_leaf() {
        let mut m = machine();
        // root(0x1000) -> l1(0x2000) -> l2(0x3000) -> l3(0x4000) -> page 0x5000
        for t in [0x1000u64, 0x2000, 0x3000, 0x4000] {
            m.debug_zero_page(PhysAddr::new(t));
        }
        m.debug_write_phys(PhysAddr::new(0x1000), table_desc(0x2000));
        m.debug_write_phys(PhysAddr::new(0x2000), table_desc(0x3000));
        m.debug_write_phys(PhysAddr::new(0x3000), table_desc(0x4000));
        let leaf = Descriptor::Leaf {
            out: PhysAddr::new(0x5000),
            perms: PagePerms::KERNEL_DATA,
        }
        .encode();
        m.debug_write_phys(PhysAddr::new(0x4000 + 7 * 8), leaf);
        let roots = [RootSpec {
            pa: PhysAddr::new(0x1000),
            kernel_space: true,
            origins: vec![RootOrigin::ActiveTtbr1],
        }];
        let g = MappingGraph::walk(&m, &roots, None);
        assert_eq!(g.tables.len(), 4);
        assert_eq!(g.visits.len(), 4);
        assert_eq!(g.leaf_count(), 1);
        assert_eq!(g.runs.len(), 1);
        let run = g.runs[0];
        assert_eq!(run.out, PhysAddr::new(0x5000));
        assert_eq!(run.va, 7 << 12);
        assert_eq!(run.span, 4096);
        assert_eq!(run.first, 7);
        assert!(run.kernel_space);
        assert_eq!(run.perms, PagePerms::KERNEL_DATA);
        let chain = g.chain(run.visit, run.first);
        assert_eq!(chain.len(), 4);
        assert_eq!(
            chain
                .iter()
                .map(|l| (l.table.raw(), l.index))
                .collect::<Vec<_>>(),
            [(0x1000, 0), (0x2000, 0), (0x3000, 0), (0x4000, 7)]
        );
        assert!(chain_display(&chain).contains("[7]"));
        assert!(g.malformed.is_empty());
    }

    #[test]
    fn contiguous_leaves_with_equal_perms_form_one_run() {
        let mut m = machine();
        for t in [0x1000u64, 0x2000, 0x3000, 0x4000] {
            m.debug_zero_page(PhysAddr::new(t));
        }
        m.debug_write_phys(PhysAddr::new(0x1000), table_desc(0x2000));
        m.debug_write_phys(PhysAddr::new(0x2000), table_desc(0x3000));
        m.debug_write_phys(PhysAddr::new(0x3000), table_desc(0x4000));
        // Entries 0..4 map 0x40_0000.. contiguously; entry 4 changes the
        // permissions, entry 5 breaks contiguity, 6 is invalid, 7 follows.
        let leaf = |out: u64, perms| Descriptor::Leaf {
            out: PhysAddr::new(out),
            perms,
        };
        let entries = [
            leaf(0x40_0000, PagePerms::KERNEL_DATA),
            leaf(0x40_1000, PagePerms::KERNEL_DATA),
            leaf(0x40_2000, PagePerms::KERNEL_DATA),
            leaf(0x40_3000, PagePerms::KERNEL_DATA),
            leaf(0x40_4000, PagePerms::KERNEL_RO),
            leaf(0x50_0000, PagePerms::KERNEL_RO),
            Descriptor::Invalid,
            leaf(0x50_2000, PagePerms::KERNEL_RO),
        ];
        for (i, d) in (0u64..).zip(entries) {
            m.debug_write_phys(PhysAddr::new(0x4000 + i * 8), d.encode());
        }
        let roots = [RootSpec {
            pa: PhysAddr::new(0x1000),
            kernel_space: false,
            origins: vec![RootOrigin::ActiveTtbr0],
        }];
        let g = MappingGraph::walk(&m, &roots, None);
        let shape: Vec<(u64, u64, u64)> = g
            .runs
            .iter()
            .map(|r| (r.first, r.len, r.out.raw()))
            .collect();
        assert_eq!(
            shape,
            [
                (0, 4, 0x40_0000),
                (4, 1, 0x40_4000),
                (5, 1, 0x50_0000),
                (7, 1, 0x50_2000)
            ]
        );
        assert_eq!(g.leaf_count(), 7);
        let expanded: Vec<(u64, u64, u64)> = g.runs[0]
            .leaves()
            .map(|(entry, va, out)| (entry, va, out.raw()))
            .collect();
        assert_eq!(expanded[3], (3, 3 << 12, 0x40_3000));
        assert!(g.runs[0].overlaps(0x40_3FF8, 8) && !g.runs[0].overlaps(0x40_4000, 8));
    }

    #[test]
    fn pointers_outside_dram_are_malformed_not_walked() {
        let mut m = machine();
        m.debug_zero_page(PhysAddr::new(0x1000));
        m.debug_write_phys(PhysAddr::new(0x1000 + 3 * 8), table_desc(1 << 32));
        let roots = [
            RootSpec {
                pa: PhysAddr::new(0x1000),
                kernel_space: false,
                origins: vec![RootOrigin::ActiveTtbr0],
            },
            RootSpec {
                pa: PhysAddr::new(1 << 40),
                kernel_space: false,
                origins: vec![RootOrigin::ActiveTtbr0],
            },
        ];
        let g = MappingGraph::walk(&m, &roots, None);
        assert_eq!(g.tables, [PhysAddr::new(0x1000)]);
        assert_eq!(g.malformed.len(), 2);
        assert!(g.malformed[0].0.contains("outside DRAM"));
        assert_eq!(chain_display(&g.malformed[0].1), "0x1000[3]");
        assert!(g.malformed[1].0.starts_with("root table"));
        assert!(g.malformed[1].1.is_empty());
    }

    #[test]
    fn self_referencing_table_terminates() {
        let mut m = machine();
        m.debug_zero_page(PhysAddr::new(0x1000));
        // Entry 0 points back at the table itself.
        m.debug_write_phys(PhysAddr::new(0x1000), table_desc(0x1000));
        let roots = [RootSpec {
            pa: PhysAddr::new(0x1000),
            kernel_space: false,
            origins: vec![RootOrigin::ActiveTtbr0],
        }];
        let g = MappingGraph::walk(&m, &roots, None);
        assert_eq!(g.tables.len(), 1);
        assert_eq!(g.visits.len(), 1);
        assert!(g.runs.is_empty());
    }

    /// A machine where one table page is reached in two contexts: at
    /// level 1 of a kernel-half root and at level 2 of a user root. Its
    /// leaf is a 1 GiB block in the first and a 2 MiB block in the
    /// second.
    fn two_contexts() -> (Machine, [RootSpec; 2]) {
        let mut m = machine();
        let (a, b, mid, shared) = (0x1000u64, 0x2000, 0x3000, 0x4000);
        for t in [a, b, mid, shared] {
            m.debug_zero_page(PhysAddr::new(t));
        }
        m.debug_write_phys(PhysAddr::new(a), table_desc(shared));
        m.debug_write_phys(PhysAddr::new(b + 5 * 8), table_desc(mid));
        m.debug_write_phys(PhysAddr::new(mid + 2 * 8), table_desc(shared));
        let leaf = Descriptor::Leaf {
            out: PhysAddr::new(0),
            perms: PagePerms::KERNEL_DATA,
        };
        m.debug_write_phys(PhysAddr::new(shared + 3 * 8), leaf.encode());
        let roots = [(a, true), (b, false)].map(|(pa, kernel_space)| RootSpec {
            pa: PhysAddr::new(pa),
            kernel_space,
            origins: vec![RootOrigin::KernelKnown],
        });
        (m, roots)
    }

    /// A fork walked against its family's baseline (the warm memo of its
    /// template's walk) gives the graph a machine never forked in the
    /// same state gives (a cold walk), in every context and after its
    /// run changes a table; each root has one baseline.
    #[test]
    fn a_warm_memo_walks_like_a_cold_one_in_every_context() {
        let (template, roots) = two_contexts();
        let (cold, _) = two_contexts();
        let cold = format!("{:?}", MappingGraph::walk(&cold, &roots, None));
        let baseline = WalkBaseline::default();
        let fork = template.fork();
        for _ in 0..2 {
            let warm = MappingGraph::walk(&fork, &roots, Some(&baseline));
            assert_eq!(format!("{warm:?}"), cold);
        }
        assert_eq!(baseline.len(), 2, "one baseline per root");
        let spans: Vec<u64> = MappingGraph::walk(&fork, &roots, Some(&baseline))
            .runs
            .iter()
            .map(|r| r.span)
            .collect();
        assert_eq!(spans, [1 << 30, 2 << 20]);
        // The run rewrites the middle table: the user root's walk decodes
        // it and the kernel root's copies its whole subtree.
        let (mut cold, _) = two_contexts();
        let mut fork = template.fork();
        for m in [&mut cold, &mut fork] {
            m.debug_write_phys(PhysAddr::new(0x3000 + 9 * 8), table_desc(0x4000));
        }
        let warm = MappingGraph::walk(&fork, &roots, Some(&baseline));
        assert_eq!(
            format!("{warm:?}"),
            format!("{:?}", MappingGraph::walk(&cold, &roots, None))
        );
        assert_eq!(warm.leaf_count(), 2, "the second pointer is a revisit");
    }

    /// Root entries 0 and 1 point at tables A and B, and both point at
    /// C: in the template's walk, B's pointer to C is a revisit. A fork
    /// that drops A's pointer reaches C through B, so B's subtree, which
    /// skipped C in the baseline, must be walked, not copied.
    #[test]
    fn a_subtree_that_skipped_a_revisit_is_not_copied() {
        let (root, a, b, c) = (0x1000u64, 0x2000, 0x3000, 0x4000);
        let template = || {
            let mut m = machine();
            for t in [root, a, b, c] {
                m.debug_zero_page(PhysAddr::new(t));
            }
            m.debug_write_phys(PhysAddr::new(root), table_desc(a));
            m.debug_write_phys(PhysAddr::new(root + 8), table_desc(b));
            m.debug_write_phys(PhysAddr::new(a), table_desc(c));
            m.debug_write_phys(PhysAddr::new(b), table_desc(c));
            let leaf = Descriptor::Leaf {
                out: PhysAddr::new(0x40_0000),
                perms: PagePerms::USER_DATA,
            };
            m.debug_write_phys(PhysAddr::new(c + 3 * 8), leaf.encode());
            m
        };
        let roots = [RootSpec {
            pa: PhysAddr::new(root),
            kernel_space: false,
            origins: vec![RootOrigin::KernelKnown],
        }];
        let baseline = WalkBaseline::default();
        let family = template();
        MappingGraph::walk(&family.fork(), &roots, Some(&baseline));
        let (mut fork, mut cold) = (family.fork(), template());
        for m in [&mut fork, &mut cold] {
            m.debug_write_phys(PhysAddr::new(a), 0);
        }
        let warm = MappingGraph::walk(&fork, &roots, Some(&baseline));
        let cold = MappingGraph::walk(&cold, &roots, None);
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        assert_eq!(warm.leaf_count(), 1, "C is reached through B");
    }

    #[test]
    fn ttbr_base_strips_asid() {
        assert_eq!(ttbr_base(0x0005_0000_0000_3000), PhysAddr::new(0x3000),);
    }
}
