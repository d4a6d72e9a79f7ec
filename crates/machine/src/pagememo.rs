//! Per-table-page work memoised by copy-on-write page identity.
//!
//! A walker that decodes every table page of a paused machine repeats
//! almost all of its work on a forked machine: a fork shares its
//! template's DRAM pages until it writes them ([`crate::mem`]). A
//! [`PageMemo`] lets a walker decode each table page once per *family*
//! (a template and its forks) into a fragment of its own type, and
//! replay that fragment wherever page identity proves the table
//! unchanged. The rules, each enforced here rather than by the walkers:
//!
//! - An entry holds its page (a `PageRef`). While it lives, every write
//!   detaches a copy, so the page's bytes are immutable, and a freed and
//!   reused frame cannot alias it.
//! - An entry is used only when that same page backs the table now and
//!   no line of the page is resident in the data cache
//!   (`TableView::holds`). With no resident line, the coherent read of
//!   the table is exactly the page, so the fragment is what decoding it
//!   afresh would give.
//! - The key is the table's address plus the walker's context (level,
//!   va base, address space, and whatever else its decode reads), so a
//!   page reached in two contexts has two entries.
//! - An entry is made only from a page with no resident line that
//!   another memory also holds (`TableView::shared_page`). A run's
//!   private pages never enter the family's memo, and a page replaced by
//!   a later write leaves at most one stale entry per key.
//!
//! `Clone` shares the memo (an `Rc`), which is how a template hands it
//! to its forks; `Default` is an empty memo, and walking with one is a
//! cold walk. Decode, fragment, replay is the only code path.

use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::bus::LINE_WORDS;
use crate::cache::{DataCache, LINE_SIZE};
use crate::fxhash::FxHashMap;
use crate::mem::{AccessOutOfRangeError, PageRef, PhysMemory};
use crate::pagetable::ENTRIES_PER_TABLE;

/// Reads the 4 KiB table at `table` whole and coherently: a resident
/// cache line wins over DRAM, one residency probe per line.
pub(crate) fn read_table(
    mem: &PhysMemory,
    cache: &DataCache,
    table: PhysAddr,
) -> Result<[u64; ENTRIES_PER_TABLE], AccessOutOfRangeError> {
    assert!(table.is_page_aligned(), "table {table} is not page-aligned");
    mem.try_check(table, PAGE_SIZE)?;
    let mut words = [0u64; ENTRIES_PER_TABLE];
    for (line, out) in (0u64..).zip(words.chunks_exact_mut(LINE_WORDS)) {
        let addr = table.add(line * LINE_SIZE);
        match cache.resident_line(addr) {
            Some(data) => out.copy_from_slice(data),
            None => out.copy_from_slice(&mem.read_line(addr)),
        }
    }
    Ok(words)
}

/// A read-only view of a paused machine's translation tables, from
/// [`crate::machine::Machine::table_view`]. It borrows the machine, so
/// nothing can change while a walk holds it.
pub struct TableView<'a> {
    mem: &'a PhysMemory,
    cache: &'a DataCache,
    /// Page index of every page with a resident cache line, sorted.
    cached: Vec<u64>,
}

impl<'a> TableView<'a> {
    pub(crate) fn new(mem: &'a PhysMemory, cache: &'a DataCache) -> Self {
        Self {
            mem,
            cache,
            cached: cache.resident_pages(),
        }
    }

    /// The 512 entries of the table at `table`, read coherently; the
    /// same words as `Machine::debug_read_table`.
    fn read(&self, table: PhysAddr) -> Result<[u64; ENTRIES_PER_TABLE], AccessOutOfRangeError> {
        read_table(self.mem, self.cache, table)
    }

    fn uncached(&self, table: PhysAddr) -> bool {
        self.cached.binary_search(&table.page_index()).is_err()
    }

    /// Whether the coherent content of the table at `table` is exactly
    /// `page`: DRAM holds that very page and no line of it is resident.
    fn holds(&self, table: PhysAddr, page: &PageRef) -> bool {
        self.uncached(table) && self.mem.holds(table, page)
    }

    /// A handle on the page that is exactly the coherent content of the
    /// table at `table`, if no line of it is resident and another memory
    /// also holds it: the only pages a memo entry may be made from.
    fn shared_page(&self, table: PhysAddr) -> Option<PageRef> {
        self.uncached(table)
            .then(|| self.mem.shared_page(table))
            .flatten()
    }
}

struct Entry<F> {
    page: PageRef,
    fragment: Rc<F>,
}

/// Entries by (table address, walker context).
type Entries<K, F> = FxHashMap<(u64, K), Entry<F>>;

/// One walker's memo from page identity to its decoded fragment `F`,
/// keyed by the table's address and the walker's context `K`. See the
/// [module docs](self) for the rules it keeps.
pub struct PageMemo<K, F> {
    entries: Rc<RefCell<Entries<K, F>>>,
}

impl<K, F> Clone for PageMemo<K, F> {
    fn clone(&self) -> Self {
        Self {
            entries: Rc::clone(&self.entries),
        }
    }
}

impl<K, F> Default for PageMemo<K, F> {
    fn default() -> Self {
        Self {
            entries: Rc::default(),
        }
    }
}

impl<K, F> std::fmt::Debug for PageMemo<K, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageMemo")
            .field("entries", &self.len())
            .finish()
    }
}

impl<K, F> PageMemo<K, F> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the memo has no entries (a cold walk's memo).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, F> PageMemo<K, F> {
    /// The fragment of the table at `table` in context `key`: replayed
    /// from the memo when the entry's page still is the table's coherent
    /// content, else `decode`d from the table's 512 entries, and
    /// remembered when the page qualifies. `decode` must read nothing but
    /// the entries and what `key` and `table` carry.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRangeError`] if the table lies outside DRAM.
    pub fn fragment(
        &self,
        view: &TableView<'_>,
        table: PhysAddr,
        key: K,
        decode: impl FnOnce(&[u64; ENTRIES_PER_TABLE]) -> F,
    ) -> Result<Rc<F>, AccessOutOfRangeError> {
        let key = (table.raw(), key);
        if let Some(entry) = self.entries.borrow().get(&key) {
            if view.holds(table, &entry.page) {
                return Ok(Rc::clone(&entry.fragment));
            }
        }
        let fragment = Rc::new(decode(&view.read(table)?));
        if let Some(page) = view.shared_page(table) {
            let entry = Entry {
                page,
                fragment: Rc::clone(&fragment),
            };
            self.entries.borrow_mut().insert(key, entry);
        }
        Ok(fragment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::machine::{Machine, MachineConfig, NullHyp};
    use crate::regs::ExceptionLevel;
    use std::cell::Cell;

    const TABLE: PhysAddr = PhysAddr::new(0x4000);

    /// A template with a written table page, at EL1 with the MMU off
    /// (flat, cacheable accesses).
    fn template() -> Machine {
        let mut m = Machine::new(MachineConfig {
            dram_size: 8 << 20,
            ..MachineConfig::default()
        });
        m.debug_write_phys(TABLE.add(8), 0x11);
        m.set_el(ExceptionLevel::El1);
        m
    }

    /// Walks `table` through `memo`, returning the decoded first-two-words
    /// fragment and counting decodes.
    fn walk(
        memo: &PageMemo<u32, [u64; 2]>,
        m: &Machine,
        key: u32,
        decodes: &Cell<u32>,
    ) -> [u64; 2] {
        let view = m.table_view();
        let fragment = memo
            .fragment(&view, TABLE, key, |e| {
                decodes.set(decodes.get() + 1);
                [e[0], e[1]]
            })
            .expect("inside DRAM");
        *fragment
    }

    #[test]
    fn a_family_decodes_a_shared_page_once() {
        let template = template();
        let memo = PageMemo::default();
        let decodes = Cell::new(0);
        // Alone, the template's page is its own: no entry is made.
        assert_eq!(walk(&memo, &template, 0, &decodes), [0, 0x11]);
        assert!(memo.is_empty());
        let (a, b) = (template.clone(), template.clone());
        walk(&memo, &a, 0, &decodes);
        assert_eq!(memo.len(), 1);
        assert_eq!(walk(&memo, &b, 0, &decodes), [0, 0x11]);
        assert_eq!(decodes.get(), 2, "the second fork replays");
        // Another context is another key.
        walk(&memo, &b, 1, &decodes);
        assert_eq!((decodes.get(), memo.len()), (3, 2));
    }

    #[test]
    fn a_written_page_is_decoded_afresh_and_never_remembered() {
        let template = template();
        let memo = PageMemo::default();
        let decodes = Cell::new(0);
        walk(&memo, &template.clone(), 0, &decodes);
        let mut fork = template.clone();
        fork.debug_write_phys(TABLE, 0x22);
        assert_eq!(walk(&memo, &fork, 0, &decodes), [0x22, 0x11]);
        assert_eq!(walk(&memo, &fork, 0, &decodes), [0x22, 0x11]);
        assert_eq!(decodes.get(), 3, "a private page is never replayed");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_resident_line_forbids_replay_and_entry() {
        let template = template();
        let memo = PageMemo::default();
        let decodes = Cell::new(0);
        // A dirty line: DRAM still holds the shared page, but the
        // coherent content differs.
        let mut dirty = template.clone();
        dirty
            .write_u64(VirtAddr::new(TABLE.raw()), 0x33, &mut NullHyp)
            .expect("flat store");
        assert_eq!(walk(&memo, &dirty, 0, &decodes), [0x33, 0x11]);
        assert!(memo.is_empty(), "no entry from a page with a resident line");
        walk(&memo, &template.clone(), 0, &decodes);
        assert_eq!(walk(&memo, &dirty, 0, &decodes), [0x33, 0x11]);
        // Even a clean resident line forbids replay.
        let mut clean = template.clone();
        clean
            .read_u64(VirtAddr::new(TABLE.raw()), &mut NullHyp)
            .expect("flat load");
        walk(&memo, &clean, 0, &decodes);
        assert_eq!(decodes.get(), 4);
    }

    #[test]
    fn a_table_outside_dram_is_an_error() {
        let m = template();
        let memo: PageMemo<u32, ()> = PageMemo::default();
        let view = m.table_view();
        assert!(memo
            .fragment(&view, PhysAddr::new(64 << 20), 0, |_| ())
            .is_err());
    }
}
