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
//! Each table page is decoded once into a `TableFragment` — its leaf
//! runs, child table pointers and leaf-level table pointers, in entry
//! order — and the fragment is replayed into the graph. A [`WalkMemo`]
//! keeps the fragments of pages a template family shares, so a fork
//! re-decodes only the tables it changed (see
//! [`hypernel_machine::pagememo`] for when a fragment may be replayed).
//!
//! The walk is cycle-safe: a table revisited along one root's walk is
//! not descended into again, so a maliciously self-referencing table
//! terminates instead of recursing forever, and a chain is the path of
//! the table's first visit under its root. A root or table pointer
//! outside DRAM is recorded as malformed and not descended into.

use hypernel_machine::addr::PhysAddr;
use hypernel_machine::fxhash::FxHashSet;
use hypernel_machine::machine::Machine;
use hypernel_machine::pagememo::{PageMemo, TableView};
use hypernel_machine::pagetable::{desc, Descriptor, PagePerms, ENTRIES_PER_TABLE};

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

/// One entry-order item of a [`TableFragment`].
#[derive(Clone, Copy, Debug)]
enum Item {
    /// A leaf run; its `visit` is filled in on replay.
    Run(LeafRun),
    /// Entry `index` points at the next-level table `next`, which maps
    /// from `va`.
    Child { index: u64, next: PhysAddr, va: u64 },
    /// Entry `index` is a table pointer at leaf level, at `va`.
    LeafLevelTable { index: u64, va: u64 },
}

/// What one table page contributes to the graph: its leaf runs, child
/// table pointers and leaf-level table pointers, in entry order. A
/// function of the page's entries and its [`WalkMemo`] key alone.
#[derive(Debug)]
struct TableFragment(Vec<Item>);

impl TableFragment {
    fn decode(
        entries: &[u64; ENTRIES_PER_TABLE],
        level: u32,
        va_base: u64,
        kernel_space: bool,
    ) -> Self {
        let shift = level_shift(level);
        let mut items = Vec::new();
        let mut run: Option<LeafRun> = None;
        for (i, raw) in (0u64..).zip(entries) {
            let va = va_base | i << shift;
            match Descriptor::decode(*raw, level) {
                Descriptor::Leaf { out, perms } => match &mut run {
                    Some(r) if r.perms == perms && r.out_end() == out.raw() => r.len += 1,
                    _ => items.extend(
                        run.replace(LeafRun {
                            visit: 0,
                            first: i,
                            len: 1,
                            kernel_space,
                            va,
                            out,
                            span: 1 << shift,
                            perms,
                        })
                        .map(Item::Run),
                    ),
                },
                Descriptor::Invalid => items.extend(run.take().map(Item::Run)),
                Descriptor::Table { next } => {
                    items.extend(run.take().map(Item::Run));
                    items.push(if level >= 3 {
                        Item::LeafLevelTable { index: i, va }
                    } else {
                        Item::Child { index: i, next, va }
                    });
                }
            }
        }
        items.extend(run.map(Item::Run));
        TableFragment(items)
    }
}

/// The static walker's memo: a table page's fragment (its leaf runs,
/// child table pointers and leaf-level table pointers) by page
/// identity, keyed by (table, level, va base, address space). `Clone`
/// shares it, so a template and its forks hold one; `Default` is empty,
/// and walking with an empty memo is a cold walk.
#[derive(Clone, Debug, Default)]
pub struct WalkMemo(PageMemo<(u32, u64, bool), TableFragment>);

impl WalkMemo {
    /// Number of fragments held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the memo holds no fragment.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl MappingGraph {
    /// Walks every root and returns the graph. Deterministic: roots are
    /// walked in the order given, entries in index order. `memo` only
    /// saves decoding: the graph is the same with any memo.
    pub fn walk(m: &Machine, roots: &[RootSpec], memo: &WalkMemo) -> Self {
        let mut graph = MappingGraph {
            roots: roots.to_vec(),
            ..MappingGraph::default()
        };
        let view = m.table_view();
        for (root, spec) in roots.iter().enumerate() {
            let mut walk = Walk {
                view: &view,
                memo,
                visited: FxHashSet::default(),
                root,
            };
            walk.table(&mut graph, spec.pa, 0, 0, None);
        }
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
struct Walk<'v, 'm> {
    view: &'v TableView<'m>,
    memo: &'v WalkMemo,
    /// Tables already walked under this root.
    visited: FxHashSet<u64>,
    root: usize,
}

impl Walk<'_, '_> {
    fn table(
        &mut self,
        graph: &mut MappingGraph,
        table: PhysAddr,
        level: u32,
        va_base: u64,
        parent: Option<(usize, u64)>,
    ) {
        if !self.visited.insert(table.raw()) {
            return; // cycle (or diamond) — already walked under this root
        }
        let kernel_space = graph.roots[self.root].kernel_space;
        let key = (level, va_base, kernel_space);
        let Ok(fragment) = self.memo.0.fragment(self.view, table, key, |entries| {
            TableFragment::decode(entries, level, va_base, kernel_space)
        }) else {
            let (detail, chain) = match parent {
                None => (format!("root table {table} is outside DRAM"), Vec::new()),
                Some((visit, index)) => (
                    format!("table pointer outside DRAM ({table}), va {va_base:#x}"),
                    graph.chain(visit, index),
                ),
            };
            graph.malformed.push((detail, chain));
            return;
        };
        let visit = graph.visits.len();
        graph.visits.push(TableVisit {
            table,
            root: self.root,
            parent,
        });
        for item in &fragment.0 {
            match *item {
                Item::Run(run) => graph.runs.push(LeafRun { visit, ..run }),
                Item::Child { index, next, va } => {
                    self.table(graph, next, level + 1, va, Some((visit, index)));
                }
                Item::LeafLevelTable { index, va } => {
                    let chain = graph.chain(visit, index);
                    graph
                        .malformed
                        .push((format!("table pointer at leaf level, va {va:#x}"), chain));
                }
            }
        }
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
        let g = MappingGraph::walk(&m, &roots, &WalkMemo::default());
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
        let g = MappingGraph::walk(&m, &roots, &WalkMemo::default());
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
        let g = MappingGraph::walk(&m, &roots, &WalkMemo::default());
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
        let g = MappingGraph::walk(&m, &roots, &WalkMemo::default());
        assert_eq!(g.tables.len(), 1);
        assert_eq!(g.visits.len(), 1);
        assert!(g.runs.is_empty());
    }

    /// One table page reached in two contexts: at level 1 of a
    /// kernel-half root and at level 2 of a user root. Its leaf is a
    /// 1 GiB block in the first and a 2 MiB block in the second, so each
    /// context needs its own memo entry.
    #[test]
    fn a_warm_memo_walks_like_a_cold_one_in_every_context() {
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
        let fork = m.clone();
        let cold = format!(
            "{:?}",
            MappingGraph::walk(&fork, &roots, &WalkMemo::default())
        );
        let memo = WalkMemo::default();
        for _ in 0..2 {
            let warm = format!("{:?}", MappingGraph::walk(&fork, &roots, &memo));
            assert_eq!(warm, cold);
        }
        assert_eq!(memo.len(), 5, "the shared table has an entry per context");
        let spans: Vec<u64> = MappingGraph::walk(&fork, &roots, &memo)
            .runs
            .iter()
            .map(|r| r.span)
            .collect();
        assert_eq!(spans, [1 << 30, 2 << 20]);
    }

    #[test]
    fn ttbr_base_strips_asid() {
        assert_eq!(ttbr_base(0x0005_0000_0000_3000), PhysAddr::new(0x3000),);
    }
}
