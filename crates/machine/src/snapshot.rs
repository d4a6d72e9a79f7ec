//! What a fork changed: the snapshot a template family is audited
//! against, and the dirty set of pages a walker must read afresh.
//!
//! The first [`Machine::fork`] of a template records a [`Snapshot`]: a
//! copy of its DRAM directory (chunk pointers, not pages; see
//! [`crate::mem`]) and of its data cache. The template and every fork
//! share it. DRAM is copy-on-write, so a write through any member
//! detaches a private copy of the page it writes, and a page whose
//! directory slot still holds the snapshot's page still has the
//! snapshot's bytes. The directory is therefore the log of what changed:
//! no write path records anything.
//!
//! A [`TableView`] of a machine with a snapshot carries the *dirty set*
//! D against it: every page whose directory slot is no longer the
//! snapshot's, and every page with a resident cache line now or in the
//! snapshot. A page outside D reads coherently the same bytes in the
//! machine and in the snapshot, so whatever a walker derived from the
//! snapshot's bytes of such a page holds for the machine too. A machine
//! that was never forked has no snapshot, and its view has no D.
//!
//! [`Machine::fork`]: crate::machine::Machine::fork

use std::rc::Rc;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::bus::LINE_WORDS;
use crate::cache::{DataCache, LINE_SIZE};
use crate::mem::{AccessOutOfRangeError, PhysMemory};
use crate::pagetable::ENTRIES_PER_TABLE;

/// Reads the 4 KiB table at `table` whole and coherently: the DRAM page
/// in one lookup, then each line `cache` holds over it, one residency
/// probe per line. `None` is for a page with no resident line.
pub(crate) fn read_table(
    mem: &PhysMemory,
    cache: Option<&DataCache>,
    table: PhysAddr,
) -> Result<[u64; ENTRIES_PER_TABLE], AccessOutOfRangeError> {
    assert!(table.is_page_aligned(), "table {table} is not page-aligned");
    mem.try_check(table, PAGE_SIZE)?;
    let mut words = mem.read_page(table);
    for (line, out) in (0u64..).zip(words.chunks_exact_mut(LINE_WORDS)) {
        if let Some(data) = cache.and_then(|c| c.resident_line(table.add(line * LINE_SIZE))) {
            out.copy_from_slice(data);
        }
    }
    Ok(words)
}

/// A template's DRAM directory and data cache as they were at its first
/// fork, shared by the template and its forks.
#[derive(Debug)]
pub struct Snapshot {
    mem: PhysMemory,
    cache: DataCache,
    /// Page index of every page with a resident line, sorted.
    cached: Vec<u64>,
}

impl Snapshot {
    pub(crate) fn of(mem: &PhysMemory, cache: &DataCache) -> Self {
        Self {
            mem: mem.clone(),
            cache: cache.clone(),
            cached: cache.resident_pages(),
        }
    }

    /// A view of the snapshot's own tables: the state a baseline walk
    /// reads. It has no snapshot and no dirty set of its own.
    pub fn view(&self) -> TableView<'_> {
        TableView {
            mem: &self.mem,
            cache: &self.cache,
            resident: self.cached.clone(),
            snapshot: None,
            dirty: Vec::new(),
        }
    }
}

/// A read-only view of a paused machine's translation tables, from
/// [`crate::machine::Machine::table_view`]. It borrows the machine, so
/// nothing can change while a walk holds it.
pub struct TableView<'a> {
    mem: &'a PhysMemory,
    cache: &'a DataCache,
    /// Page index of every page with a resident line, sorted.
    resident: Vec<u64>,
    snapshot: Option<&'a Rc<Snapshot>>,
    /// D: page indexes, sorted.
    dirty: Vec<u64>,
}

impl<'a> TableView<'a> {
    pub(crate) fn new(
        mem: &'a PhysMemory,
        cache: &'a DataCache,
        snapshot: Option<&'a Rc<Snapshot>>,
    ) -> Self {
        let resident = cache.resident_pages();
        let dirty = snapshot.map_or_else(Vec::new, |snap| {
            let mut dirty = mem.changed_pages(&snap.mem);
            dirty.extend_from_slice(&resident);
            dirty.extend_from_slice(&snap.cached);
            // Three ascending runs, which the stable sort merges.
            dirty.sort();
            dirty.dedup();
            dirty
        });
        Self {
            mem,
            cache,
            resident,
            snapshot,
            dirty,
        }
    }

    /// The 512 entries of the table at `table`, read coherently; the
    /// same words as `Machine::debug_read_table`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRangeError`] if the table lies outside DRAM.
    pub fn read(&self, table: PhysAddr) -> Result<[u64; ENTRIES_PER_TABLE], AccessOutOfRangeError> {
        let cached = self.resident.binary_search(&table.page_index()).is_ok();
        read_table(self.mem, cached.then_some(self.cache), table)
    }

    /// The word at `pa`, read coherently; the same word as
    /// `Machine::debug_read_phys`.
    pub fn read_word(&self, pa: PhysAddr) -> u64 {
        match self.cache.resident_line(pa) {
            Some(line) => line[(pa.raw() >> 3) as usize & (LINE_WORDS - 1)],
            None => self.mem.read_u64(pa),
        }
    }

    /// The snapshot of the machine's template family, if it was ever
    /// forked.
    pub fn snapshot(&self) -> Option<&'a Rc<Snapshot>> {
        self.snapshot
    }

    /// The dirty set D against the snapshot, as ascending page indexes:
    /// the only pages whose coherent content may differ from the
    /// snapshot's. Empty without a snapshot.
    pub fn dirty(&self) -> &[u64] {
        &self.dirty
    }

    /// Whether the page holding `addr` is in D.
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        self.dirty.binary_search(&addr.page_index()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::machine::{Machine, MachineConfig, NullHyp};
    use crate::pagetable::PtMemory;
    use crate::regs::ExceptionLevel;

    /// A template at EL1 with the MMU off (flat, cacheable accesses):
    /// pages 0x4, 0x9 (one 2 MiB chunk) and 0x205 (another) written
    /// through DRAM, a dirty line on page 0x30, whose DRAM frame was never
    /// written, and a clean line on page 0x31.
    fn template() -> Machine {
        let mut m = Machine::new(MachineConfig {
            dram_size: 8 << 20,
            ..MachineConfig::default()
        });
        for page in [0x4u64, 0x9, 0x205] {
            m.debug_write_phys(PhysAddr::new(page << 12), page);
        }
        m.set_el(ExceptionLevel::El1);
        m.write_u64(VirtAddr::new(0x30 << 12), 0x30, &mut NullHyp)
            .expect("flat store");
        m.read_u64(VirtAddr::new(0x31 << 12), &mut NullHyp)
            .expect("flat load");
        m
    }

    fn dirty(m: &Machine) -> Vec<u64> {
        m.table_view().dirty().to_vec()
    }

    /// Adds `page` to `expect` and checks that D is exactly `expect`.
    fn wrote(m: &Machine, expect: &mut Vec<u64>, page: u64) {
        expect.push(page);
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(&dirty(m), expect, "after writing page {page:#x}");
    }

    /// A fresh fork's D is the pages with a resident line. Each
    /// `PhysMemory` write method and each machine write path then adds
    /// the page it wrote and no other, and reads add nothing.
    #[test]
    fn the_dirty_set_is_exactly_the_written_and_cached_pages() {
        let template = template();
        assert!(template.table_view().snapshot().is_none());
        assert!(dirty(&template).is_empty(), "no snapshot, no D");
        let mut fork = template.fork();
        assert!(template.table_view().snapshot().is_some());
        let mut expect = vec![0x30, 0x31];
        assert_eq!(dirty(&fork), expect);
        assert_eq!(dirty(&template), expect);

        // Reads of every kind add nothing.
        let _ = (
            fork.mem_mut().read_u8(PhysAddr::new(0x4000)),
            fork.mem_mut().read_u64(PhysAddr::new(0x9000)),
            fork.mem_mut().read_line(PhysAddr::new(0x20_5000)),
            fork.debug_read_phys(PhysAddr::new(0x4008)),
            fork.debug_read_table(PhysAddr::new(0x9000)),
            fork.pt_view().read_pt(PhysAddr::new(0x20_5008)),
        );
        assert_eq!(dirty(&fork), expect);

        fork.mem_mut().write_u8(PhysAddr::new(0x4001), 1);
        wrote(&fork, &mut expect, 0x4);
        fork.mem_mut().write_u64(PhysAddr::new(0x9010), 2);
        wrote(&fork, &mut expect, 0x9);
        fork.mem_mut().write_line(PhysAddr::new(0x20_5040), &[3; 8]);
        wrote(&fork, &mut expect, 0x205);
        fork.mem_mut().fill(PhysAddr::new(0x12000), 8, 5);
        wrote(&fork, &mut expect, 0x12);
        fork.mem_mut().preallocate(PhysAddr::new(0x13000), 8);
        wrote(&fork, &mut expect, 0x13);
        fork.debug_write_phys(PhysAddr::new(0x14000), 6);
        wrote(&fork, &mut expect, 0x14);
        fork.dma_write_u64(PhysAddr::new(0x15000), 7);
        wrote(&fork, &mut expect, 0x15);
        fork.pt_view().write_pt(PhysAddr::new(0x16000), 8);
        wrote(&fork, &mut expect, 0x16);
        // A cacheable store (EL2 stores take the same `perform` path)
        // leaves a dirty line in the cache.
        fork.write_u64(VirtAddr::new(0x18000), 10, &mut NullHyp)
            .expect("flat store");
        wrote(&fork, &mut expect, 0x18);
        fork.cache_clean_invalidate_page(PhysAddr::new(0x18000));
        assert_eq!(dirty(&fork), expect, "the write-back lands in DRAM");
        // Zeroing a page DRAM holds drops the fork's reference to it;
        // zeroing an absent page changes nothing.
        fork.debug_zero_page(PhysAddr::new(0x20_5000));
        fork.debug_zero_page(PhysAddr::new(0x19000));
        fork.mem_mut().fill(PhysAddr::new(0x1a000), PAGE_SIZE, 0);
        assert_eq!(dirty(&fork), expect);
        fork.debug_zero_page(PhysAddr::new(0x4000));
        assert_eq!(dirty(&fork), expect, "page 0x4 was already in D");

        // A page with a line resident in the snapshot stays in D after
        // the fork drops the line: the dirty line that `debug_zero_page`
        // discards unwritten, and a clean line invalidated.
        let mut other = template.fork();
        other.debug_zero_page(PhysAddr::new(0x30 << 12));
        other.cache_clean_invalidate_page(PhysAddr::new(0x31 << 12));
        assert_eq!(dirty(&other), [0x30, 0x31]);
        // A page DRAM shared with the snapshot that the fork zeroes.
        other.debug_zero_page(PhysAddr::new(0x9000));
        assert_eq!(dirty(&other), [0x9, 0x30, 0x31]);
        // The template's own writes count against the snapshot too, and
        // a fork of a fork shares the family's snapshot.
        let mut template = template;
        template.debug_write_phys(PhysAddr::new(0x1b000), 11);
        assert_eq!(dirty(&template), [0x1b, 0x30, 0x31]);
        assert_eq!(dirty(&other.fork()), [0x9, 0x30, 0x31]);
    }

    /// The snapshot is the template as it was at its first fork: later
    /// writes, through the template or a fork, never reach it.
    #[test]
    fn the_snapshot_keeps_the_first_fork_state() {
        let mut template = template();
        let mut fork = template.fork();
        template.debug_write_phys(PhysAddr::new(0x4000), 0xa);
        fork.debug_write_phys(PhysAddr::new(0x4000), 0xb);
        let _second = template.fork();
        let view = template.table_view();
        let snapshot = view.snapshot().expect("forked").view();
        assert_eq!(snapshot.read(PhysAddr::new(0x4000)).unwrap()[0], 4);
        assert_eq!(snapshot.read(PhysAddr::new(0x30 << 12)).unwrap()[0], 0x30);
        assert!(snapshot.snapshot().is_none() && snapshot.dirty().is_empty());
        assert!(Rc::ptr_eq(
            view.snapshot().unwrap(),
            fork.table_view().snapshot().unwrap()
        ));
        assert!(view.read(PhysAddr::new(64 << 20)).is_err(), "outside DRAM");
    }
}
