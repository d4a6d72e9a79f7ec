//! Seeding the guest-memory ownership sanitizer.
//!
//! The shadow-tag store itself lives in `hypernel-machine`
//! ([`hypernel_machine::shadow`]) so the physical-access chokepoint can
//! consult it with zero simulated cost. *Classifying* every DRAM page,
//! however, needs whole-system knowledge — the platform layout, the
//! kernel's frame allocator, its live page tables and the MBM geometry
//! — none of which the machine crate may depend on. This module owns
//! that classification: [`seed_shadow`] builds a fully-tagged
//! [`ShadowTags`] from a paused system, after which the kernel keeps
//! the tags current at its allocation and mapping sites.

use hypernel_kernel::{layout, Kernel};
use hypernel_machine::addr::{PhysAddr, PAGE_SIZE};
use hypernel_machine::machine::Machine;
use hypernel_machine::shadow::{PageTag, ShadowTags, TagPolicy};
use hypernel_mbm::monitor::MbmConfig;

use crate::graph::{MappingGraph, RootOrigin, RootSpec};

/// Classifies every DRAM page of a paused system and returns the
/// seeded shadow-tag store, ready for
/// [`Machine::set_shadow_tags`](hypernel_machine::machine::Machine).
///
/// Classification order (later rules override earlier ones):
///
/// 1. everything starts `Free`;
/// 2. the kernel image is `KernelText`;
/// 3. the secure region (Hypersec private heap included) is
///    `SecureRegion`;
/// 4. the MBM's bitmap storage and event ring are `Mmio` (they sit
///    inside the secure region but are written by the device, not
///    Hypersec);
/// 5. live translation tables reachable from the kernel-known roots are
///    `PageTable`, and frames mapped by user-half leaves are
///    `UserData`;
/// 6. every other frame-pool page below the allocator's bump watermark
///    has been handed out at least once and is kernel heap
///    (`KernelData`) — slabs, stacks, page cache, file data;
/// 7. frames sitting on the allocator's free list are `Free` again.
pub fn seed_shadow(
    m: &mut Machine,
    kernel: &Kernel,
    policy: TagPolicy,
    mbm: Option<&MbmConfig>,
) -> Box<ShadowTags> {
    let dram = m.dram_size();
    let mut tags = Box::new(ShadowTags::new(dram, policy));
    tags.tag_range(
        PhysAddr::new(layout::KERNEL_IMAGE_BASE),
        layout::KERNEL_IMAGE_SIZE,
        PageTag::KernelText,
    );
    if dram > layout::SECURE_BASE {
        tags.tag_range(
            PhysAddr::new(layout::SECURE_BASE),
            dram - layout::SECURE_BASE,
            PageTag::SecureRegion,
        );
    }
    if let Some(cfg) = mbm {
        tags.tag_range(
            cfg.bitmap.bitmap_base(),
            cfg.bitmap.bitmap_bytes(),
            PageTag::Mmio,
        );
        tags.tag_range(cfg.ring.base(), cfg.ring.bytes(), PageTag::Mmio);
    }

    let mut roots = vec![RootSpec {
        pa: kernel.kernel_root(),
        kernel_space: true,
        origins: vec![RootOrigin::KernelKnown],
    }];
    for pa in kernel.user_roots() {
        roots.push(RootSpec {
            pa,
            kernel_space: false,
            origins: vec![RootOrigin::KernelKnown],
        });
    }
    let graph = MappingGraph::walk(m, &roots, None);
    for table in &graph.tables {
        tags.tag_page(*table, PageTag::PageTable);
    }
    for run in graph.runs.iter().filter(|r| !r.kernel_space) {
        tags.tag_range(run.out, run.len * run.span, PageTag::UserData);
    }

    // The kernel linear map covers the whole frame pool, so kernel-half
    // leaves say nothing about ownership; the bump watermark does —
    // every page below it was handed out by the frame allocator at
    // least once.
    let watermark = kernel.frames_watermark().raw().min(layout::FRAME_POOL_END);
    let mut pa = PhysAddr::new(layout::FRAME_POOL_BASE);
    while pa.raw() < watermark {
        if tags.tag_of(pa) == PageTag::Free {
            tags.tag_page(pa, PageTag::KernelData);
        }
        pa = pa.add(PAGE_SIZE);
    }
    for frame in kernel.free_frames() {
        tags.tag_page(*frame, PageTag::Free);
    }
    tags
}
