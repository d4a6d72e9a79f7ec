//! Sparse physical memory backing store.
//!
//! [`PhysMemory`] models the DRAM of the simulated platform. It is sparse:
//! a frame nothing has written reads as the shared zero page and costs
//! nothing, so a multi-gigabyte address space costs only what the
//! workload writes. Frames live in a two-level directory: one pointer per
//! 512-page chunk (2 MiB of DRAM), and one slot per page in a
//! chunk, so the hot page lookup is two indexes instead of a hash probe.
//! All accesses are raw — translation, permissions, caching and bus
//! visibility are handled by the layers above
//! ([`crate::machine::Machine`]).
//!
//! Both levels are reference-counted and copy-on-write. `Clone` copies
//! the chunk pointers (1,024 for the platform's 2 GiB) and shares
//! everything below them; the first write through either copy detaches
//! its chunk (512 page pointers), then its page (4 KiB). Snapshotting a
//! booted machine (warm-boot forking) therefore costs a directory copy
//! instead of a slot per frame, and a fork pays only for the chunks and
//! pages it writes. Reads never materialise or detach anything.
//!
//! Because every write detaches a page that anything else still
//! references, a copy of the directory keeps the bytes it points at,
//! and comparing two directories slot by slot finds every page either
//! side wrote since they were one ([`PhysMemory::changed_pages`]; the
//! audit's fork snapshot, [`crate::snapshot`], rests on that).

use std::rc::Rc;

use crate::addr::{PhysAddr, PAGE_SIZE};

/// Pages per directory chunk: 512 pages, 2 MiB of DRAM.
const CHUNK_PAGES: usize = 512;

type Page = [u8; PAGE_SIZE as usize];
type Chunk = [Option<Rc<Page>>; CHUNK_PAGES];

/// What every absent frame reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// The directory position of a frame: its chunk and its slot there.
fn split(frame: u64) -> (usize, usize) {
    (
        (frame / CHUNK_PAGES as u64) as usize,
        (frame % CHUNK_PAGES as u64) as usize,
    )
}

/// Error returned when an access falls outside the populated DRAM range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessOutOfRangeError {
    /// The faulting physical address.
    pub addr: PhysAddr,
    /// The size of DRAM in bytes.
    pub dram_size: u64,
}

impl std::fmt::Display for AccessOutOfRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "physical access at {} outside DRAM of {} bytes",
            self.addr, self.dram_size
        )
    }
}

impl std::error::Error for AccessOutOfRangeError {}

/// Sparse byte-addressable physical memory.
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_machine::mem::PhysMemory;
///
/// let mut mem = PhysMemory::new(1 << 20);
/// mem.write_u64(PhysAddr::new(0x100), 0xDEAD_BEEF);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x100)), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    chunks: Vec<Option<Rc<Chunk>>>,
    size: u64,
}

impl PhysMemory {
    /// Creates a DRAM of `size` bytes (rounded up to a whole page).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u64) -> Self {
        assert!(size > 0, "DRAM size must be non-zero");
        let size = (size + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let chunk_bytes = CHUNK_PAGES as u64 * PAGE_SIZE;
        Self {
            chunks: vec![None; size.div_ceil(chunk_bytes) as usize],
            size,
        }
    }

    /// Total DRAM size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Returns `true` if `addr..addr+len` lies inside DRAM.
    pub fn contains(&self, addr: PhysAddr, len: u64) -> bool {
        addr.raw()
            .checked_add(len)
            .is_some_and(|end| end <= self.size)
    }

    /// Read-only view of a frame: an absent frame reads as the shared
    /// zero page, so reads never materialise or detach anything.
    fn page_ref(&self, frame: u64) -> &Page {
        let (c, p) = split(frame);
        match &self.chunks[c] {
            Some(chunk) => chunk[p].as_deref().unwrap_or(&ZERO_PAGE),
            None => &ZERO_PAGE,
        }
    }

    /// The slot of a frame in a private chunk: creates the chunk if
    /// absent and detaches it first if it is shared with a fork.
    fn slot_mut(&mut self, frame: u64) -> &mut Option<Rc<Page>> {
        let (c, p) = split(frame);
        let chunk = self.chunks[c].get_or_insert_with(|| Rc::new([const { None }; CHUNK_PAGES]));
        &mut Rc::make_mut(chunk)[p]
    }

    /// Writable view of a frame: materialises the page if absent and
    /// detaches a private copy of its chunk and of the page itself when
    /// either is shared (copy-on-write).
    fn page_mut(&mut self, frame: u64) -> &mut Page {
        let slot = self.slot_mut(frame);
        Rc::make_mut(slot.get_or_insert_with(|| Rc::new([0; PAGE_SIZE as usize])))
    }

    /// The page index of every frame whose slot differs from `other`'s,
    /// ascending: a page materialised, detached, replaced or dropped on
    /// either side since the two were one directory. An unchanged chunk
    /// costs one pointer compare, a changed one a compare per slot.
    /// `other` must be as large as `self`.
    pub(crate) fn changed_pages(&self, other: &PhysMemory) -> Vec<u64> {
        const EMPTY: Chunk = [const { None }; CHUNK_PAGES];
        let mut pages = Vec::new();
        for (c, (mine, theirs)) in self.chunks.iter().zip(&other.chunks).enumerate() {
            let (mine, theirs) = match (mine, theirs) {
                (None, None) => continue,
                (Some(a), Some(b)) if Rc::ptr_eq(a, b) => continue,
                (a, b) => (
                    a.as_deref().unwrap_or(&EMPTY),
                    b.as_deref().unwrap_or(&EMPTY),
                ),
            };
            for (p, (a, b)) in mine.iter().zip(theirs).enumerate() {
                let same = match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => Rc::ptr_eq(a, b),
                    _ => false,
                };
                if !same {
                    pages.push((c * CHUNK_PAGES + p) as u64);
                }
            }
        }
        pages
    }

    /// Materializes private zeroed pages for every absent frame in
    /// `[addr, addr + len)`, pre-faulting the host memory behind them.
    ///
    /// Host-side warm-up only (the emulator equivalent of QEMU's
    /// `-mem-prealloc`): sparse materialization is model-invisible, so
    /// this changes nothing but host-page-fault timing. Benchmarks call
    /// it outside the timed region so steady-state throughput is not
    /// billed for first-touch faults on the host.
    pub fn preallocate(&mut self, addr: PhysAddr, len: u64) {
        self.check(addr, len);
        let first = addr.page_index();
        let last = addr.add(len.saturating_sub(1)).page_index();
        for frame in first..=last {
            self.slot_mut(frame)
                .get_or_insert_with(|| Rc::new([0; PAGE_SIZE as usize]));
        }
    }

    fn check(&self, addr: PhysAddr, len: u64) {
        assert!(
            self.contains(addr, len),
            "physical access at {addr} (+{len}) outside DRAM of {} bytes",
            self.size
        );
    }

    /// Checked variant of the bounds test used by fallible callers.
    ///
    /// # Errors
    ///
    /// Returns [`AccessOutOfRangeError`] if the range escapes DRAM.
    pub fn try_check(&self, addr: PhysAddr, len: u64) -> Result<(), AccessOutOfRangeError> {
        if self.contains(addr, len) {
            Ok(())
        } else {
            Err(AccessOutOfRangeError {
                addr,
                dram_size: self.size,
            })
        }
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside DRAM.
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.check(addr, 1);
        self.page_ref(addr.page_index())[addr.page_offset() as usize]
    }

    /// Writes one byte.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside DRAM.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        self.check(addr, 1);
        self.page_mut(addr.page_index())[addr.page_offset() as usize] = value;
    }

    /// Reads a little-endian 64-bit word. The access may straddle a page
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if any byte of the word is outside DRAM.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        self.check(addr, 8);
        if addr.page_offset() <= PAGE_SIZE - 8 {
            let page = self.page_ref(addr.page_index());
            let off = addr.page_offset() as usize;
            u64::from_le_bytes(page[off..off + 8].try_into().expect("8-byte slice"))
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian 64-bit word. The access may straddle a page
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if any byte of the word is outside DRAM.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.check(addr, 8);
        if addr.page_offset() <= PAGE_SIZE - 8 {
            let off = addr.page_offset() as usize;
            self.page_mut(addr.page_index())[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.add(i as u64), *b);
            }
        }
    }

    /// Reads a line-aligned group of eight little-endian words with one
    /// bounds check and one page lookup. Lines never straddle a page
    /// (the page size is a multiple of the line size), so this is
    /// byte-for-byte equivalent to eight [`PhysMemory::read_u64`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned or the line is outside
    /// DRAM.
    pub fn read_line(&self, addr: PhysAddr) -> [u64; 8] {
        assert!(
            addr.raw().is_multiple_of(64),
            "read_line requires line alignment"
        );
        self.check(addr, 64);
        let page = self.page_ref(addr.page_index());
        let off = addr.page_offset() as usize;
        let mut out = [0u64; 8];
        for (i, w) in out.iter_mut().enumerate() {
            let o = off + i * 8;
            *w = u64::from_le_bytes(page[o..o + 8].try_into().expect("8-byte slice"));
        }
        out
    }

    /// The page holding `addr` as 512 little-endian words, with one
    /// bounds check and one page lookup: the words of 64
    /// [`PhysMemory::read_line`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the page is outside DRAM.
    pub fn read_page(&self, addr: PhysAddr) -> [u64; (PAGE_SIZE / 8) as usize] {
        self.check(addr.page_base(), PAGE_SIZE);
        let page = self.page_ref(addr.page_index());
        let mut out = [0u64; (PAGE_SIZE / 8) as usize];
        for (w, bytes) in out.iter_mut().zip(page.chunks_exact(8)) {
            *w = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
        }
        out
    }

    /// Writes a line-aligned group of eight little-endian words with one
    /// bounds check and one page lookup (the write-path counterpart of
    /// [`PhysMemory::read_line`]).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned or the line is outside
    /// DRAM.
    pub fn write_line(&mut self, addr: PhysAddr, data: &[u64; 8]) {
        assert!(
            addr.raw().is_multiple_of(64),
            "write_line requires line alignment"
        );
        self.check(addr, 64);
        let page = self.page_mut(addr.page_index());
        let off = addr.page_offset() as usize;
        for (i, w) in data.iter().enumerate() {
            let o = off + i * 8;
            page[o..o + 8].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Copies `buf.len()` bytes out of DRAM starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside DRAM.
    pub fn read_bytes(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.check(addr, buf.len() as u64);
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr.add(i as u64));
        }
    }

    /// Copies `buf` into DRAM starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside DRAM.
    pub fn write_bytes(&mut self, addr: PhysAddr, buf: &[u8]) {
        self.check(addr, buf.len() as u64);
        for (i, b) in buf.iter().enumerate() {
            self.write_u8(addr.add(i as u64), *b);
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside DRAM.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, value: u8) {
        self.check(addr, len);
        let mut cur = addr;
        let end = addr.add(len);
        while cur < end {
            let in_page = (PAGE_SIZE - cur.page_offset()).min(end.offset_from(cur));
            if value == 0 && in_page == PAGE_SIZE {
                self.zero_page(cur.page_index());
            } else {
                let page = self.page_mut(cur.page_index());
                let off = cur.page_offset() as usize;
                page[off..off + in_page as usize].fill(value);
            }
            cur = cur.add(in_page);
        }
    }

    /// Whole-page zero fill. An absent frame already reads as zero and a
    /// shared one drops its reference (no allocation, no copy-on-write
    /// detach of the page); a private frame is memset in place so its
    /// already-faulted backing page stays warm.
    fn zero_page(&mut self, frame: u64) {
        let (c, p) = split(frame);
        if self.chunks[c]
            .as_ref()
            .is_none_or(|chunk| chunk[p].is_none())
        {
            return;
        }
        let slot = self.slot_mut(frame);
        match slot.as_mut().and_then(Rc::get_mut) {
            Some(page) => page.fill(0),
            None => *slot = None,
        }
    }
}

impl PartialEq for PhysMemory {
    fn eq(&self, other: &Self) -> bool {
        // Two memories are equal if every frame reads the same; an absent
        // frame reads as zero. Shared pages compare by identity first.
        self.size == other.size
            && (0..self.size / PAGE_SIZE).all(|frame| {
                let (a, b) = (self.page_ref(frame), other.page_ref(frame));
                std::ptr::eq(a, b) || a == b
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = PhysMemory::new(PAGE_SIZE * 4);
        assert_eq!(mem.read_u64(PhysAddr::new(0)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(PAGE_SIZE * 4 - 1)), 0);
        // Reads never materialise a chunk or a page.
        assert!(mem.chunks.iter().all(Option::is_none));
    }

    #[test]
    fn u64_roundtrip() {
        let mut mem = PhysMemory::new(1 << 16);
        mem.write_u64(PhysAddr::new(0x38), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(PhysAddr::new(0x38)), 0x0102_0304_0506_0708);
        // Little-endian byte order.
        assert_eq!(mem.read_u8(PhysAddr::new(0x38)), 0x08);
        assert_eq!(mem.read_u8(PhysAddr::new(0x3F)), 0x01);
    }

    #[test]
    fn straddling_page_boundary() {
        let mut mem = PhysMemory::new(1 << 16);
        let addr = PhysAddr::new(PAGE_SIZE - 4);
        mem.write_u64(addr, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(mem.read_u64(addr), 0xAABB_CCDD_EEFF_0011);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut mem = PhysMemory::new(1 << 16);
        let data = [1u8, 2, 3, 4, 5];
        mem.write_bytes(PhysAddr::new(100), &data);
        let mut out = [0u8; 5];
        mem.read_bytes(PhysAddr::new(100), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn fill_spans_pages() {
        let mut mem = PhysMemory::new(1 << 16);
        mem.fill(PhysAddr::new(PAGE_SIZE - 16), 32, 0xAB);
        for i in 0..32 {
            assert_eq!(mem.read_u8(PhysAddr::new(PAGE_SIZE - 16 + i)), 0xAB);
        }
        assert_eq!(mem.read_u8(PhysAddr::new(PAGE_SIZE - 17)), 0);
        assert_eq!(mem.read_u8(PhysAddr::new(PAGE_SIZE + 16)), 0);
    }

    #[test]
    #[should_panic(expected = "outside DRAM")]
    fn out_of_range_panics() {
        let mem = PhysMemory::new(PAGE_SIZE);
        mem.read_u64(PhysAddr::new(PAGE_SIZE - 4));
    }

    #[test]
    fn try_check_reports_error() {
        let mem = PhysMemory::new(PAGE_SIZE);
        let err = mem.try_check(PhysAddr::new(PAGE_SIZE), 8).unwrap_err();
        assert_eq!(err.addr, PhysAddr::new(PAGE_SIZE));
        assert!(err.to_string().contains("outside DRAM"));
        assert!(mem.try_check(PhysAddr::new(0), PAGE_SIZE).is_ok());
    }

    #[test]
    fn size_rounds_to_page() {
        let mem = PhysMemory::new(100);
        assert_eq!(mem.size(), PAGE_SIZE);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = PhysMemory::new(1 << 16);
        a.write_u64(PhysAddr::new(0x100), 11);
        a.write_u64(PhysAddr::new(PAGE_SIZE + 8), 22);
        let mut b = a.clone();
        // Writes through either copy never leak into the other.
        b.write_u64(PhysAddr::new(0x100), 99);
        a.write_u64(PhysAddr::new(PAGE_SIZE + 8), 33);
        assert_eq!(a.read_u64(PhysAddr::new(0x100)), 11);
        assert_eq!(b.read_u64(PhysAddr::new(0x100)), 99);
        assert_eq!(a.read_u64(PhysAddr::new(PAGE_SIZE + 8)), 33);
        assert_eq!(b.read_u64(PhysAddr::new(PAGE_SIZE + 8)), 22);
        // Reads alone keep the untouched page shared (no divergence).
        assert_eq!(b.read_u64(PhysAddr::new(PAGE_SIZE + 8)), 22);
    }

    #[test]
    fn a_fork_shares_chunks_then_pages_until_it_writes() {
        let (page, neighbour, far) = (
            PhysAddr::new(0x3000),
            PhysAddr::new(0x5000),
            PhysAddr::new(0x30_0000),
        );
        let mut a = PhysMemory::new(4 << 20);
        a.write_u64(page, 7);
        a.write_u64(neighbour, 8);
        let mut b = a.clone();
        assert!(b.changed_pages(&a).is_empty(), "a copy shares every chunk");
        // A write detaches its chunk (the other pages stay shared), then
        // its page; a read changes nothing.
        b.write_u64(neighbour, 9);
        let _ = b.read_u64(far);
        assert_eq!(b.changed_pages(&a), [5]);
        // A chunk only one side has, and a page zeroed away.
        b.write_u64(far, 1);
        b.fill(page, PAGE_SIZE, 0);
        assert_eq!(b.changed_pages(&a), [3, 5, 0x300]);
        assert_eq!(a.changed_pages(&b), [3, 5, 0x300]);
        assert_eq!((a.read_u64(page), b.read_u64(page)), (7, 0));
    }

    /// A copy of the directory is a handle on every page it points at:
    /// the pages keep their bytes while it lives.
    #[test]
    fn a_handle_keeps_its_page_immutable() {
        let addr = PhysAddr::new(0x2000);
        let mut a = PhysMemory::new(1 << 16);
        a.write_u64(addr, 1);
        let snapshot = a.clone();
        // The owner's write detaches a copy; the snapshot's bytes stay.
        a.write_u64(addr, 2);
        assert_eq!((snapshot.read_u64(addr), a.read_u64(addr)), (1, 2));
        // Zero-filling a shared page drops the reference instead.
        let mut b = a.clone();
        b.fill(addr.page_base(), PAGE_SIZE, 0);
        assert_eq!((a.read_u64(addr), b.read_u64(addr)), (2, 0));
    }

    #[test]
    fn sparse_equality() {
        let mut a = PhysMemory::new(1 << 16);
        let mut b = PhysMemory::new(1 << 16);
        assert_eq!(a, b);
        a.write_u8(PhysAddr::new(5), 7);
        assert_ne!(a, b);
        b.write_u8(PhysAddr::new(5), 7);
        assert_eq!(a, b);
        // Touching a page with zeroes keeps equality with an untouched one.
        a.write_u8(PhysAddr::new(PAGE_SIZE * 3), 0);
        assert_eq!(a, b);
    }
}
