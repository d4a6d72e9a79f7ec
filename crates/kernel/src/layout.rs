//! Physical and virtual memory layout of the simulated platform.
//!
//! Mirrors the paper's prototype: DRAM holds the kernel image, a general
//! frame pool, and — at the top — the *secure region* reserved for
//! Hypersec and the MBM's bitmap and ring buffer. The kernel linear map
//! covers everything **except** the secure region; keeping it that way is
//! the isolation invariant Hypersec enforces (paper §5.2).

use hypernel_machine::addr::{PhysAddr, VirtAddr, KERNEL_VA_BASE};

/// Total DRAM size: 2 GiB, as in the paper's performance experiments
/// (§7.1 uses the motherboard's 2 GB DRAM).
pub const DRAM_SIZE: u64 = 2 << 30;

/// Start of the secure region (top 128 MiB of DRAM), matching the 128 MB
/// SDRAM on the paper's LogicTile daughterboard (§6).
pub const SECURE_BASE: u64 = DRAM_SIZE - (128 << 20);

/// Size of the secure region.
pub const SECURE_SIZE: u64 = DRAM_SIZE - SECURE_BASE;

/// Kernel image (text + static data): first 4 MiB of DRAM.
pub const KERNEL_IMAGE_BASE: u64 = 0;
/// Size of the kernel image region.
pub const KERNEL_IMAGE_SIZE: u64 = 4 << 20;

/// General frame pool available to the kernel allocator.
pub const FRAME_POOL_BASE: u64 = KERNEL_IMAGE_BASE + KERNEL_IMAGE_SIZE;
/// End (exclusive) of the kernel frame pool — the secure region starts
/// here.
pub const FRAME_POOL_END: u64 = SECURE_BASE;

// ---------------------------------------------------------------------
// Secure-region internal layout (only Hypersec and the MBM touch these).
// ---------------------------------------------------------------------

/// EL2 page tables and Hypersec private data.
pub const HYPERSEC_PRIVATE_BASE: u64 = SECURE_BASE;
/// Size reserved for Hypersec private data.
pub const HYPERSEC_PRIVATE_SIZE: u64 = 16 << 20;

/// MBM watch bitmap: one bit per 8-byte word of the monitored window
/// (`0..SECURE_BASE`), i.e. `SECURE_BASE / 64` bytes = 30 MiB.
pub const MBM_BITMAP_BASE: u64 = HYPERSEC_PRIVATE_BASE + HYPERSEC_PRIVATE_SIZE;
/// Bitmap storage size.
pub const MBM_BITMAP_SIZE: u64 = SECURE_BASE / 64;

/// MBM output ring buffer.
pub const MBM_RING_BASE: u64 = MBM_BITMAP_BASE + ((MBM_BITMAP_SIZE + 0xFFF) & !0xFFF);
/// Ring capacity in entries (power of two).
pub const MBM_RING_ENTRIES: u64 = 4096;

/// The monitored physical window: all normal-world DRAM.
pub const MBM_WINDOW_BASE: u64 = 0;
/// Length of the monitored window.
pub const MBM_WINDOW_LEN: u64 = SECURE_BASE;

// ---------------------------------------------------------------------
// Virtual layout
// ---------------------------------------------------------------------

/// Base of the kernel linear (direct) mapping: `kva = LINEAR_BASE + pa`.
pub const LINEAR_BASE: u64 = KERNEL_VA_BASE;

/// Base of user program images.
pub const USER_IMAGE_BASE: u64 = 0x0040_0000;
/// Top of the user stack (grows down).
pub const USER_STACK_TOP: u64 = 0x7FFF_F000;

/// Converts a normal-world physical address to its kernel linear-map
/// virtual address.
///
/// # Panics
///
/// Panics if `pa` lies in the secure region — the kernel must never hold
/// a virtual address for secure memory.
pub fn kva(pa: PhysAddr) -> VirtAddr {
    assert!(
        pa.raw() < SECURE_BASE,
        "no kernel mapping exists for secure-region address {pa}"
    );
    VirtAddr::new(LINEAR_BASE + pa.raw())
}

/// Returns `true` if `pa` lies in the secure region.
pub fn is_secure(pa: PhysAddr) -> bool {
    pa.raw() >= SECURE_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate layout sanity checks
    fn regions_are_disjoint_and_ordered() {
        assert!(KERNEL_IMAGE_BASE + KERNEL_IMAGE_SIZE <= FRAME_POOL_BASE);
        assert!(FRAME_POOL_END <= SECURE_BASE);
        assert!(HYPERSEC_PRIVATE_BASE + HYPERSEC_PRIVATE_SIZE <= MBM_BITMAP_BASE);
        assert!(MBM_BITMAP_BASE + MBM_BITMAP_SIZE <= MBM_RING_BASE);
        let ring_bytes = 16 + MBM_RING_ENTRIES * 16;
        assert!(MBM_RING_BASE + ring_bytes <= DRAM_SIZE);
    }

    #[test]
    fn bitmap_covers_whole_normal_world() {
        // One bit per word of the window.
        assert_eq!(MBM_BITMAP_SIZE, MBM_WINDOW_LEN / 8 / 8);
        assert_eq!(MBM_WINDOW_BASE, 0);
        assert_eq!(MBM_WINDOW_LEN, SECURE_BASE);
    }

    #[test]
    fn kva_roundtrip() {
        let pa = PhysAddr::new(0x12_3456);
        assert_eq!(kva(pa).raw(), KERNEL_VA_BASE + 0x12_3456);
    }

    #[test]
    #[should_panic(expected = "secure-region")]
    fn kva_of_secure_memory_panics() {
        kva(PhysAddr::new(SECURE_BASE));
    }

    #[test]
    fn secure_predicate() {
        assert!(!is_secure(PhysAddr::new(SECURE_BASE - 1)));
        assert!(is_secure(PhysAddr::new(SECURE_BASE)));
        assert!(is_secure(PhysAddr::new(DRAM_SIZE - 1)));
    }
}
