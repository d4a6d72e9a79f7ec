//! Property-based tests for the machine substrate: the page-table
//! walker against a reference model, TLB/translation consistency, cache
//! write-back correctness, bus visibility rules, and block accesses
//! against per-word accesses.

use std::any::Any;
use std::collections::HashMap;

use hypernel_machine::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hypernel_machine::bus::{BusContext, BusSnooper, BusTransaction};
use hypernel_machine::cache::{CachePlan, DataCache, Eviction};
use hypernel_machine::machine::{Machine, MachineConfig, NullHyp};
use hypernel_machine::mem::PhysMemory;
use hypernel_machine::pagetable::{
    apply_entry_write, plan_map, plan_protect, plan_unmap, walk, PagePerms, WalkFault,
};
use hypernel_machine::regs::{sctlr, ExceptionLevel, SysReg};
use proptest::prelude::*;

const ROOT: u64 = 0x10_0000;
const TABLE_POOL: u64 = 0x20_0000;
const FRAME_POOL: u64 = 0x100_0000;

fn arb_perms() -> impl Strategy<Value = PagePerms> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(write, user, cacheable)| PagePerms {
        write,
        // Keep W^X honest in generated mappings (exec only when !write).
        exec: !write,
        user,
        cacheable,
    })
}

/// A random sequence of map/unmap/protect operations against one table,
/// mirrored into a `HashMap` reference model, must agree with the walker
/// on every probed address.
#[derive(Debug, Clone)]
enum PtOp {
    Map {
        slot: u8,
        frame: u8,
        perms: PagePerms,
    },
    Unmap {
        slot: u8,
    },
    Protect {
        slot: u8,
        perms: PagePerms,
    },
}

fn arb_op() -> impl Strategy<Value = PtOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), arb_perms()).prop_map(|(slot, frame, perms)| PtOp::Map {
            slot,
            frame,
            perms
        }),
        any::<u8>().prop_map(|slot| PtOp::Unmap { slot }),
        (any::<u8>(), arb_perms()).prop_map(|(slot, perms)| PtOp::Protect { slot, perms }),
    ]
}

/// Pages the cache property draws its word addresses from.
const CACHE_PAGES: u64 = 8;

/// One step of the cache property, at a word address.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Write(u64, u64),
    Read(u64),
    CleanInvalidatePage(u64),
    DiscardPage(u64),
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    let word = || (0..CACHE_PAGES * PAGE_SIZE / 8).prop_map(|w| w * 8);
    prop_oneof![
        (word(), any::<u64>()).prop_map(|(addr, value)| CacheOp::Write(addr, value)),
        (word(), any::<u64>()).prop_map(|(addr, value)| CacheOp::Write(addr, value)),
        word().prop_map(CacheOp::Read),
        word().prop_map(CacheOp::Read),
        word().prop_map(CacheOp::CleanInvalidatePage),
        word().prop_map(CacheOp::DiscardPage),
    ]
}

/// Where [`mapped_machine`] maps its first page.
const MAPPED_VA: u64 = 0x10_0000;
/// Pages the block property maps. The page after them is unmapped, so a
/// run past the end faults.
const BLOCK_PAGES: u64 = 12;

/// One step of the block property. Word indices count from `MAPPED_VA`.
#[derive(Debug, Clone, Copy)]
enum BlockOp {
    Read {
        word: u64,
        len: u64,
    },
    Write {
        word: u64,
        len: u64,
        seed: u64,
    },
    /// One word in the first four lines of a page. Those lines of the
    /// even (odd) pages share four sets, six lines to four ways, so
    /// these accesses evict each other, dirty lines included.
    Single {
        page: u64,
        word: u64,
        store: Option<u64>,
    },
    Clean {
        page: u64,
    },
}

fn arb_block_op() -> impl Strategy<Value = BlockOp> {
    let word = || 0..BLOCK_PAGES * PAGE_SIZE / 8;
    prop_oneof![
        (word(), 0u64..1101).prop_map(|(word, len)| BlockOp::Read { word, len }),
        (word(), 0u64..1101, any::<u64>()).prop_map(|(word, len, seed)| BlockOp::Write {
            word,
            len,
            seed
        }),
        (0..BLOCK_PAGES, 0u64..32, any::<bool>(), any::<u64>()).prop_map(
            |(page, word, write, value)| BlockOp::Single {
                page,
                word,
                store: write.then_some(value),
            }
        ),
        (0..BLOCK_PAGES).prop_map(|page| BlockOp::Clean { page }),
    ]
}

/// Records every bus transaction with the cycle count it was issued at.
#[derive(Debug, Clone, Default)]
struct Recorder(Vec<(BusTransaction, u64)>);

impl BusSnooper for Recorder {
    fn on_transaction(&mut self, txn: &BusTransaction, ctx: &mut BusContext<'_>) {
        self.0.push((*txn, ctx.cycles));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn BusSnooper> {
        Box::new(self.clone())
    }
}

/// A machine at EL1 with one page mapped per entry of `perms`, from VA
/// `MAPPED_VA` onto consecutive frames from `FRAME_POOL`.
fn mapped_machine(perms: impl IntoIterator<Item = PagePerms>) -> Machine {
    let mut m = Machine::new(MachineConfig {
        dram_size: 64 << 20,
        ..MachineConfig::default()
    });
    let mut next_table = TABLE_POOL;
    for (page, perms) in perms.into_iter().enumerate() {
        let plan = plan_map(
            m.mem_mut(),
            PhysAddr::new(ROOT),
            MAPPED_VA + page as u64 * PAGE_SIZE,
            PhysAddr::new(FRAME_POOL + page as u64 * PAGE_SIZE),
            perms,
            3,
            &mut || {
                let t = next_table;
                next_table += PAGE_SIZE;
                Some(PhysAddr::new(t))
            },
        )
        .expect("plan");
        for w in &plan.writes {
            apply_entry_write(m.mem_mut(), *w);
        }
    }
    m.el2_write_sysreg(SysReg::TTBR0_EL1, ROOT);
    m.el2_write_sysreg(SysReg::TTBR1_EL1, ROOT);
    m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
    m.set_el(ExceptionLevel::El1);
    m
}

fn slot_va(slot: u8) -> u64 {
    // Spread slots across several L2/L3 tables so intermediate-table
    // allocation paths are exercised.
    (0x4000_0000 + (slot as u64) * 0x40_3000) & !(PAGE_SIZE - 1)
}

fn frame_pa(frame: u8) -> PhysAddr {
    PhysAddr::new(FRAME_POOL + frame as u64 * PAGE_SIZE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn walker_matches_reference_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut mem = PhysMemory::new(64 << 20);
        let root = PhysAddr::new(ROOT);
        let mut next_table = TABLE_POOL;
        let mut model: HashMap<u64, (PhysAddr, PagePerms)> = HashMap::new();

        for op in &ops {
            match *op {
                PtOp::Map { slot, frame, perms } => {
                    let va = slot_va(slot);
                    let pa = frame_pa(frame);
                    let plan = plan_map(&mut mem, root, va, pa, perms, 3, &mut || {
                        let t = next_table;
                        next_table += PAGE_SIZE;
                        Some(PhysAddr::new(t))
                    }).expect("maps at level 3 never hit blocks here");
                    for w in &plan.writes {
                        apply_entry_write(&mut mem, *w);
                    }
                    model.insert(va, (pa, perms));
                }
                PtOp::Unmap { slot } => {
                    let va = slot_va(slot);
                    let write = plan_unmap(&mut mem, root, va);
                    prop_assert_eq!(write.is_some(), model.contains_key(&va));
                    if let Some(w) = write {
                        apply_entry_write(&mut mem, w);
                    }
                    model.remove(&va);
                }
                PtOp::Protect { slot, perms } => {
                    let va = slot_va(slot);
                    let write = plan_protect(&mut mem, root, va, perms);
                    prop_assert_eq!(write.is_some(), model.contains_key(&va));
                    if let Some(w) = write {
                        apply_entry_write(&mut mem, w);
                        let pa = model[&va].0;
                        model.insert(va, (pa, perms));
                    }
                }
            }
        }

        // Every model entry walks to the right output with the right
        // permissions; every non-entry faults.
        for slot in 0..=255u8 {
            let va = slot_va(slot);
            match (walk(&mut mem, root, va + 0x128), model.get(&va)) {
                (Ok(res), Some(&(pa, perms))) => {
                    prop_assert_eq!(res.out, pa.add(0x128));
                    prop_assert_eq!(res.perms, perms);
                    prop_assert_eq!(res.level, 3);
                    prop_assert_eq!(res.accesses.len(), 4);
                }
                (Err(WalkFault::Translation { .. }), None) => {}
                (got, want) => prop_assert!(false, "walk mismatch at {va:#x}: {got:?} vs {want:?}"),
            }
        }
    }

    /// Data written through translated stores is always read back
    /// identically (through the cache hierarchy, across random TLB and
    /// cache maintenance).
    #[test]
    fn translated_memory_is_coherent(
        writes in prop::collection::vec((0u8..32, any::<u64>()), 1..64),
        flush_points in prop::collection::vec(any::<bool>(), 64),
    ) {
        // Odd pages non-cacheable: both paths must stay coherent.
        let mut m = mapped_machine((0..32).map(|page| {
            if page % 2 == 0 { PagePerms::KERNEL_DATA } else { PagePerms::KERNEL_DATA_NC }
        }));
        let mut hyp = NullHyp;

        let mut model: HashMap<u64, u64> = HashMap::new();
        for (i, (page, value)) in writes.iter().enumerate() {
            let va = VirtAddr::new(MAPPED_VA + *page as u64 * PAGE_SIZE + 0x18);
            m.write_u64(va, *value, &mut hyp).expect("write");
            model.insert(va.raw(), *value);
            if flush_points[i % flush_points.len()] {
                m.tlbi_all();
            }
            if i % 7 == 0 {
                m.cache_clean_invalidate_page(PhysAddr::new(FRAME_POOL + *page as u64 * PAGE_SIZE));
            }
        }
        for (va, value) in &model {
            prop_assert_eq!(
                m.read_u64(VirtAddr::new(*va), &mut hyp).expect("read"),
                *value
            );
            // The debug (cache-coherent physical) view agrees.
            let pa = PhysAddr::new(FRAME_POOL + (*va - MAPPED_VA));
            prop_assert_eq!(m.debug_read_phys(pa), *value);
        }
    }

    /// The write-back cache never loses or corrupts data: random probe /
    /// install / read / write / maintenance sequences over eight pages,
    /// on every geometry from one set to the platform's 128 sets, checked
    /// against a model.
    #[test]
    fn cache_is_a_faithful_store(
        sets in prop_oneof![Just(1usize), Just(4), Just(16), Just(64), Just(128)],
        ways in prop_oneof![Just(1usize), Just(2), Just(4)],
        ops in prop::collection::vec(arb_cache_op(), 1..200),
    ) {
        let mut cache = DataCache::new(sets, ways);
        let mut backing: HashMap<u64, u64> = HashMap::new(); // "DRAM"
        let mut model: HashMap<u64, u64> = HashMap::new();   // truth
        let write_back = |backing: &mut HashMap<u64, u64>, evictions: Vec<Eviction>| {
            for ev in evictions {
                for (i, w) in ev.data.iter().enumerate() {
                    backing.insert(ev.addr.raw() + i as u64 * 8, *w);
                }
            }
        };

        for op in ops {
            match op {
                CacheOp::Write(addr, _) | CacheOp::Read(addr) => {
                    let addr = PhysAddr::new(addr);
                    match cache.probe(addr) {
                        CachePlan::Hit => {}
                        CachePlan::Refill { line, evict } => {
                            write_back(&mut backing, evict.into_iter().collect());
                            let mut data = [0u64; 8];
                            for (i, slot) in data.iter_mut().enumerate() {
                                *slot = backing.get(&(line.raw() + i as u64 * 8)).copied().unwrap_or(0);
                            }
                            cache.install(line, data);
                        }
                    }
                    if let CacheOp::Write(_, value) = op {
                        cache.write_word(addr, value);
                        model.insert(addr.raw(), value);
                    } else {
                        prop_assert_eq!(
                            cache.read_word(addr),
                            model.get(&addr.raw()).copied().unwrap_or(0)
                        );
                    }
                }
                CacheOp::CleanInvalidatePage(addr) => {
                    write_back(&mut backing, cache.clean_invalidate_page(PhysAddr::new(addr)));
                }
                CacheOp::DiscardPage(addr) => {
                    let page = addr & !(PAGE_SIZE - 1);
                    let resident: Vec<u64> = (0..CACHE_PAGES * PAGE_SIZE)
                        .step_by(64)
                        .filter(|&line| cache.contains(PhysAddr::new(line)))
                        .collect();
                    cache.discard_page(PhysAddr::new(addr));
                    for line in (page..page + PAGE_SIZE).step_by(64) {
                        prop_assert!(!cache.contains(PhysAddr::new(line)), "line {line:#x} survived");
                    }
                    for line in resident.into_iter().filter(|line| line & !(PAGE_SIZE - 1) != page) {
                        prop_assert!(cache.contains(PhysAddr::new(line)), "line {line:#x} was dropped");
                    }
                    // A discarded line's unwritten words revert to DRAM's.
                    for word in (page..page + PAGE_SIZE).step_by(8) {
                        if let Some(value) = model.get_mut(&word) {
                            *value = backing.get(&word).copied().unwrap_or(0);
                        }
                    }
                }
            }
        }
        // Flush everything; DRAM must now equal the model.
        write_back(&mut backing, cache.clean_invalidate_all());
        for (addr, value) in &model {
            prop_assert_eq!(backing.get(addr).copied().unwrap_or(0), *value);
        }
    }

    /// Non-cacheable stores are always immediately bus-visible; cacheable
    /// stores never are (until eviction).
    #[test]
    fn bus_visibility_follows_cacheability(pages in prop::collection::vec(any::<bool>(), 1..40)) {
        let mut m = mapped_machine(pages.iter().map(|nc| {
            if *nc { PagePerms::KERNEL_DATA_NC } else { PagePerms::KERNEL_DATA }
        }));
        let mut hyp = NullHyp;

        for (i, nc) in pages.iter().enumerate() {
            let va = VirtAddr::new(MAPPED_VA + i as u64 * PAGE_SIZE);
            // Warm the line so cacheable writes are pure hits.
            m.read_u64(va, &mut hyp).expect("warm");
            let writes_before = m.bus().writes();
            m.write_u64(va, 0xC0FFEE, &mut hyp).expect("write");
            let delta = m.bus().writes() - writes_before;
            if *nc {
                prop_assert_eq!(delta, 1, "NC store must hit the bus");
            } else {
                prop_assert_eq!(delta, 0, "cached store must stay silent");
            }
        }
    }

    /// `read_block`/`write_block` with line runs are model-equivalent to
    /// the per-word reference: two clones of one machine run the same
    /// mix of block accesses (any start, any length up to two pages and
    /// more, so runs start mid-line, cross lines and pages of either
    /// cacheability, and may fault past the end), conflicting single
    /// words and page cleans, and must agree on every return value, the
    /// order `value_of` is called in, cycles, statistics and bus
    /// traffic.
    #[test]
    fn block_accesses_match_per_word_reference(
        kinds in prop::collection::vec(0u8..4, BLOCK_PAGES as usize),
        ops in prop::collection::vec(arb_block_op(), 1..40),
    ) {
        // One page in four non-cacheable.
        let mut base = mapped_machine(kinds.iter().map(|kind| {
            if *kind == 0 { PagePerms::KERNEL_DATA_NC } else { PagePerms::KERNEL_DATA }
        }));
        base.bus_mut().attach(Box::new(Recorder::default()));
        let mut fast = base.clone();
        fast.set_block_fastpath(true);
        fast.set_compiled_enabled(true);
        let mut reference = base;
        reference.set_block_fastpath(false);
        let mut hyp = NullHyp;
        let frame = |page: u64| PhysAddr::new(FRAME_POOL + page * PAGE_SIZE);

        for op in &ops {
            match *op {
                BlockOp::Read { word, len } => {
                    let va = VirtAddr::new(MAPPED_VA + word * 8);
                    prop_assert_eq!(
                        fast.read_block(va, len, &mut hyp),
                        reference.read_block(va, len, &mut hyp)
                    );
                }
                BlockOp::Write { word, len, seed } => {
                    let va = VirtAddr::new(MAPPED_VA + word * 8);
                    let value = |i: u64| seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let (mut fast_calls, mut reference_calls) = (Vec::new(), Vec::new());
                    prop_assert_eq!(
                        fast.write_block(va, len, &mut hyp, |i| {
                            fast_calls.push(i);
                            value(i)
                        }),
                        reference.write_block(va, len, &mut hyp, |i| {
                            reference_calls.push(i);
                            value(i)
                        })
                    );
                    prop_assert_eq!(fast_calls, reference_calls);
                }
                BlockOp::Single { page, word, store } => {
                    let va = VirtAddr::new(MAPPED_VA + page * PAGE_SIZE + word * 8);
                    match store {
                        Some(v) => prop_assert_eq!(
                            fast.write_u64(va, v, &mut hyp),
                            reference.write_u64(va, v, &mut hyp)
                        ),
                        None => prop_assert_eq!(
                            fast.read_u64(va, &mut hyp),
                            reference.read_u64(va, &mut hyp)
                        ),
                    }
                }
                BlockOp::Clean { page } => {
                    fast.cache_clean_invalidate_page(frame(page));
                    reference.cache_clean_invalidate_page(frame(page));
                }
            }
            prop_assert_eq!(fast.cycles(), reference.cycles(), "cycles after {:?}", op);
            prop_assert_eq!(fast.stats(), reference.stats(), "stats after {:?}", op);
            prop_assert_eq!(fast.data_cache().stats(), reference.data_cache().stats());
            let (f, r) = (fast.tlb().stats(), reference.tlb().stats());
            prop_assert_eq!(
                (f.hits, f.misses, f.evictions, f.flushes),
                (r.hits, r.misses, r.evictions, r.flushes),
                "TLB after {:?}", op
            );
        }
        for page in 0..BLOCK_PAGES {
            fast.cache_clean_invalidate_page(frame(page));
            reference.cache_clean_invalidate_page(frame(page));
        }
        let traffic = |m: &Machine| m.bus().snooper::<Recorder>().expect("attached").0.clone();
        prop_assert_eq!(traffic(&fast), traffic(&reference));
        prop_assert!(*fast.mem_mut() == *reference.mem_mut(), "DRAM differs after cleaning");
    }
}
