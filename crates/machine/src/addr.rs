//! Address newtypes and layout constants.
//!
//! The simulated machine uses three address spaces, mirroring AArch64 with
//! the virtualization extension (paper §3):
//!
//! * [`VirtAddr`] — virtual addresses used at EL0/EL1 (translated by the
//!   stage-1 page table) and at EL2 (translated by the EL2 page table).
//! * [`IntermAddr`] — intermediate physical addresses (IPA), the output of
//!   stage-1 translation when a hypervisor with nested paging is active.
//! * [`PhysAddr`] — real physical addresses on the memory bus.
//!
//! When nested paging is disabled (native or Hypernel configurations) the
//! IPA space is identical to the physical space.

use core::fmt;

/// Size of one translation granule (page): 4 KiB, as in the paper's
/// instrumented kernel (§6.2).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a 2 MiB section, the vanilla AArch64 Linux linear-map block size
/// the paper's kernel instrumentation replaces with 4 KiB pages (§6.2).
pub const SECTION_SIZE: u64 = 2 * 1024 * 1024;
/// log2 of [`SECTION_SIZE`].
pub const SECTION_SHIFT: u32 = 21;
/// Size of one machine word: 8 bytes. The MBM watch bitmap maps one word to
/// one bit (paper §5.3).
pub const WORD_SIZE: u64 = 8;
/// log2 of [`WORD_SIZE`].
pub const WORD_SHIFT: u32 = 3;
/// Number of valid virtual-address bits (48-bit VA, 4-level translation).
pub const VA_BITS: u32 = 48;

/// Base of the kernel virtual address space (addresses with bit 47 set
/// select `TTBR1_EL1`, mirroring the AArch64 split).
pub const KERNEL_VA_BASE: u64 = 0xFFFF_0000_0000_0000;

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Constructs the address from a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the address rounded down to its 4 KiB page boundary.
            #[inline]
            pub const fn page_base(self) -> Self {
                Self(self.0 & !(PAGE_SIZE - 1))
            }

            /// Returns the offset of this address within its 4 KiB page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// Returns the page frame number (address divided by the page size).
            #[inline]
            pub const fn page_index(self) -> u64 {
                self.0 >> PAGE_SHIFT
            }

            /// Returns the address rounded down to its 8-byte word boundary.
            #[inline]
            pub const fn word_base(self) -> Self {
                Self(self.0 & !(WORD_SIZE - 1))
            }

            /// Returns the word index (address divided by the word size).
            #[inline]
            pub const fn word_index(self) -> u64 {
                self.0 >> WORD_SHIFT
            }

            /// Returns `true` if the address is aligned to an 8-byte word.
            #[inline]
            pub const fn is_word_aligned(self) -> bool {
                self.0 % WORD_SIZE == 0
            }

            /// Returns `true` if the address is aligned to a 4 KiB page.
            #[inline]
            pub const fn is_page_aligned(self) -> bool {
                self.0 % PAGE_SIZE == 0
            }

            /// Returns the address advanced by `bytes`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if the addition overflows.
            #[inline]
            pub const fn add(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }

            /// Returns the byte distance from `base` to `self`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `self < base`.
            #[inline]
            pub const fn offset_from(self, base: Self) -> u64 {
                self.0 - base.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }
    };
}

addr_newtype! {
    /// A physical address on the memory bus.
    ///
    /// ```
    /// use hypernel_machine::addr::PhysAddr;
    /// let pa = PhysAddr::new(0x8000_1234);
    /// assert_eq!(pa.page_base(), PhysAddr::new(0x8000_1000));
    /// assert_eq!(pa.page_offset(), 0x234);
    /// ```
    PhysAddr
}

addr_newtype! {
    /// A virtual address as seen by EL0/EL1 software (stage-1 input) or EL2
    /// software (EL2-table input).
    ///
    /// ```
    /// use hypernel_machine::addr::{VirtAddr, KERNEL_VA_BASE};
    /// let va = VirtAddr::new(KERNEL_VA_BASE + 0x1000);
    /// assert!(va.is_kernel());
    /// ```
    VirtAddr
}

addr_newtype! {
    /// An intermediate physical address: the output of stage-1 translation
    /// and the input of stage-2 translation under nested paging.
    IntermAddr
}

impl VirtAddr {
    /// Returns `true` for addresses in the upper (kernel, `TTBR1`) half of
    /// the virtual address space: bits 63:48 all ones, as AArch64 requires
    /// for `TTBR1`-translated addresses with a 48-bit VA.
    #[inline]
    pub const fn is_kernel(self) -> bool {
        self.0 >> VA_BITS == 0xFFFF
    }

    /// Returns the stage-1 table index for translation level `level`
    /// (0 = root). Each level resolves 9 bits of the address.
    #[inline]
    pub const fn table_index(self, level: u32) -> usize {
        ((self.0 >> (PAGE_SHIFT + 9 * (3 - level))) & 0x1FF) as usize
    }
}

impl IntermAddr {
    /// Returns the stage-2 table index for translation level `level`.
    #[inline]
    pub const fn table_index(self, level: u32) -> usize {
        ((self.0 >> (PAGE_SHIFT + 9 * (3 - level))) & 0x1FF) as usize
    }
}

impl IntermAddr {
    /// Reinterprets the IPA as a physical address (identity mapping), the
    /// situation when nested paging is disabled.
    #[inline]
    pub const fn as_phys(self) -> PhysAddr {
        PhysAddr(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let pa = PhysAddr::new(0x1234_5678);
        assert_eq!(pa.page_base().raw(), 0x1234_5000);
        assert_eq!(pa.page_offset(), 0x678);
        assert_eq!(pa.page_index(), 0x12345);
        assert!(!pa.is_page_aligned());
        assert!(pa.page_base().is_page_aligned());
    }

    #[test]
    fn word_arithmetic() {
        let pa = PhysAddr::new(0x1001);
        assert_eq!(pa.word_base().raw(), 0x1000);
        assert_eq!(pa.word_index(), 0x200);
        assert!(!pa.is_word_aligned());
        assert!(pa.word_base().is_word_aligned());
    }

    #[test]
    fn kernel_user_split() {
        assert!(VirtAddr::new(KERNEL_VA_BASE).is_kernel());
        assert!(VirtAddr::new(u64::MAX).is_kernel());
        assert!(!VirtAddr::new(0x7FFF_FFFF_FFFF).is_kernel());
        assert!(!VirtAddr::new(0).is_kernel());
    }

    #[test]
    fn table_indices_cover_va() {
        // VA = L0:1, L1:2, L2:3, L3:4, offset 5
        let va =
            VirtAddr::new((1u64 << (12 + 27)) | (2 << (12 + 18)) | (3 << (12 + 9)) | (4 << 12) | 5);
        assert_eq!(va.table_index(0), 1);
        assert_eq!(va.table_index(1), 2);
        assert_eq!(va.table_index(2), 3);
        assert_eq!(va.table_index(3), 4);
        assert_eq!(va.page_offset(), 5);
    }

    #[test]
    fn display_and_hex() {
        let pa = PhysAddr::new(0xBEEF);
        assert_eq!(format!("{pa}"), "0xbeef");
        assert_eq!(format!("{pa:x}"), "beef");
        assert_eq!(format!("{pa:X}"), "BEEF");
        assert_eq!(format!("{pa:?}"), "PhysAddr(0xbeef)");
    }

    #[test]
    fn conversions_roundtrip() {
        let pa = PhysAddr::from(42u64);
        let raw: u64 = pa.into();
        assert_eq!(raw, 42);
    }

    #[test]
    fn add_and_offset() {
        let a = VirtAddr::new(0x1000);
        assert_eq!(a.add(0x20).offset_from(a), 0x20);
    }
}
