//! Tasks (processes) and their address spaces.

use hypernel_machine::addr::{PhysAddr, VirtAddr};

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// A lazily populated user mapping created by `mmap` (demand paging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First page of the region.
    pub base: VirtAddr,
    /// Region length in bytes (page multiple).
    pub len: u64,
}

impl Vma {
    /// Returns `true` if `va` falls inside this region.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.base && va.raw() < self.base.raw() + self.len
    }
}

/// Kernel-side process state.
#[derive(Debug, Clone)]
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Address-space id (tags TLB entries).
    pub asid: u16,
    /// Stage-1 root table for the user (TTBR0) half.
    pub user_root: PhysAddr,
    /// Physical address of this task's `cred` object (slab slot).
    pub cred: PhysAddr,
    /// Eagerly mapped user pages: `(va, frame, owned)`. `owned` marks
    /// private anonymous frames freed at exit; shared/page-cache frames
    /// are not.
    pub user_pages: Vec<(VirtAddr, PhysAddr, bool)>,
    /// Intermediate/leaf table pages owned by this address space
    /// (excluding `user_root`), retired at exit.
    pub table_pages: Vec<PhysAddr>,
    /// Kernel page holding the signal-handler table.
    pub sigactions: PhysAddr,
    /// Kernel stack frames.
    pub kernel_stack: Vec<PhysAddr>,
    /// Demand-paged regions and the frames faulted into them.
    pub vmas: Vec<Vma>,
    /// Frames faulted into demand regions: `(va, frame)`.
    pub demand_pages: Vec<(VirtAddr, PhysAddr)>,
}

impl Task {
    /// Looks up the VMA covering `va`, if any.
    pub fn vma_for(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(va))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vma_containment() {
        let vma = Vma {
            base: VirtAddr::new(0x10000),
            len: 0x3000,
        };
        assert!(vma.contains(VirtAddr::new(0x10000)));
        assert!(vma.contains(VirtAddr::new(0x12FFF)));
        assert!(!vma.contains(VirtAddr::new(0x13000)));
        assert!(!vma.contains(VirtAddr::new(0xFFFF)));
    }

    #[test]
    fn pid_display() {
        assert_eq!(Pid(7).to_string(), "pid 7");
    }
}
