//! The compose compiler: lowering a [`ComposeDoc`] into kernel state.
//!
//! Lowering is deterministic and happens in four fixed phases, each in
//! declaration order: spawn every domain's tasks, create every
//! channel (plus a bootstrap message through its unwatched data path),
//! allocate and map every shared region (the owner stamps
//! each page before anything watches it), and finally derive and arm
//! the watch set in one batch ([`Kernel::compose_arm_watch`]). The
//! derived set — every channel header plus every page of every
//! `protect = true` region — is the *only* source of compose Hypersec
//! registrations; nothing else in the pipeline maintains a watch list.
//!
//! [`plan`] produces the same phases as a pure description (what the
//! `hypernel compose compile` command prints); [`apply`] executes them.

use std::fmt;

use hypernel_kernel::compose::{compose_stamp, CHANNEL_HEADER_BYTES, REGION_VA_BASE};
use hypernel_kernel::{Kernel, KernelError};
use hypernel_machine::addr::PAGE_SIZE;
use hypernel_machine::machine::{Hyp, Machine};

use crate::doc::ComposeDoc;

/// One step of the lowering plan, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerStep {
    /// Spawn `tasks` kernel tasks backing the named domain.
    SpawnDomain {
        /// Domain name.
        name: String,
        /// `"server"` or `"client"`.
        role: &'static str,
        /// Declared priority.
        priority: u64,
        /// Task count.
        tasks: u64,
    },
    /// Claim a channel-table slot and write its header.
    CreateChannel {
        /// Channel name.
        name: String,
        /// Sender domain.
        from: String,
        /// Receiver domain.
        to: String,
        /// Table slot index the channel lands in.
        slot: usize,
    },
    /// Allocate `pages` frames and map them into owner + sharers.
    MapRegion {
        /// Region name.
        name: String,
        /// Owner domain.
        owner: String,
        /// Number of user mappings installed (owner + sharers, per page).
        mappings: u64,
        /// Base virtual address of the mapping.
        va: u64,
        /// Whether the watch set covers the region.
        protected: bool,
    },
    /// Derive the watch set and issue the batched registrations.
    ArmWatch {
        /// Spans before coalescing (channel headers + protected pages).
        spans: u64,
        /// Watched bytes across all spans.
        bytes: u64,
    },
}

impl fmt::Display for LowerStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SpawnDomain {
                name,
                role,
                priority,
                tasks,
            } => write!(
                f,
                "spawn domain `{name}` ({role}, priority {priority}, {tasks} task{})",
                if *tasks == 1 { "" } else { "s" }
            ),
            Self::CreateChannel {
                name,
                from,
                to,
                slot,
            } => write!(f, "create channel `{name}` {from} -> {to} (slot {slot})"),
            Self::MapRegion {
                name,
                owner,
                mappings,
                va,
                protected,
            } => write!(
                f,
                "map region `{name}` at 0x{va:X} (owner {owner}, {mappings} mappings{})",
                if *protected { ", protected" } else { "" }
            ),
            Self::ArmWatch { spans, bytes } => {
                write!(f, "arm derived watch set ({spans} spans, {bytes} bytes)")
            }
        }
    }
}

/// The deterministic lowering plan for a description — exactly the
/// steps [`apply`] will execute, without touching a kernel.
pub fn plan(doc: &ComposeDoc) -> Vec<LowerStep> {
    let mut steps = Vec::new();
    for d in &doc.domains {
        steps.push(LowerStep::SpawnDomain {
            name: d.name.clone(),
            role: d.role.name(),
            priority: d.priority,
            tasks: d.tasks.max(1),
        });
    }
    for (slot, c) in doc.channels.iter().enumerate() {
        steps.push(LowerStep::CreateChannel {
            name: c.name.clone(),
            from: c.from.clone(),
            to: c.to.clone(),
            slot,
        });
    }
    let mut next_auto = REGION_VA_BASE;
    for r in &doc.regions {
        let pages = r.pages.max(1);
        let va = match r.va {
            Some(va) => va,
            None => {
                let va = next_auto;
                next_auto += pages * PAGE_SIZE;
                va
            }
        };
        steps.push(LowerStep::MapRegion {
            name: r.name.clone(),
            owner: r.owner.clone(),
            mappings: (1 + r.share.len() as u64) * pages,
            va,
            protected: r.protect,
        });
    }
    if doc.watch {
        let channel_bytes = doc.channels.len() as u64 * CHANNEL_HEADER_BYTES;
        let region_pages: u64 = doc
            .regions
            .iter()
            .filter(|r| r.protect)
            .map(|r| r.pages.max(1))
            .sum();
        steps.push(LowerStep::ArmWatch {
            spans: doc.channels.len() as u64 + region_pages,
            bytes: channel_bytes + region_pages * PAGE_SIZE,
        });
    }
    steps
}

/// Lowers a description onto a booted kernel: spawns domains, creates
/// channels, maps regions, and (when `doc.watch`) arms the derived
/// watch set. Runs identically in every protection mode — under
/// native/KVM the watch derivation still happens but registers nothing,
/// so the composed system itself is byte-identical across modes.
///
/// # Errors
///
/// Propagates the first [`KernelError`] (frame exhaustion, hypercall
/// denials; dangling names only for a description built by hand, since
/// the loader rejects them).
pub fn apply(
    doc: &ComposeDoc,
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
) -> Result<(), KernelError> {
    for d in &doc.domains {
        kernel.compose_spawn_domain(m, hyp, &d.name, d.role, d.priority, d.tasks)?;
    }
    for (slot, c) in doc.channels.iter().enumerate() {
        kernel.compose_create_channel(m, hyp, &c.name, &c.from, &c.to, c.capacity)?;
        // Bootstrap message: proves the slot's data path works before
        // anything watches. Message data lives outside every derived
        // span, so this (and later sends) never trips the monitor.
        kernel.compose_channel_send(m, hyp, &c.name, compose_stamp(&c.name, slot as u64))?;
    }
    for r in &doc.regions {
        kernel.compose_map_region(
            m, hyp, &r.name, &r.owner, &r.share, r.pages, r.protect, r.va,
        )?;
    }
    if doc.watch {
        kernel.compose_arm_watch(m, hyp)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{ChannelDecl, DomainDecl, RegionDecl};
    use hypernel_kernel::DomainRole;

    #[test]
    fn plan_mirrors_the_description_in_order() {
        let doc = ComposeDoc {
            watch: true,
            domains: vec![
                DomainDecl {
                    name: "srv".into(),
                    role: DomainRole::Server,
                    priority: 5,
                    tasks: 1,
                },
                DomainDecl {
                    name: "cli".into(),
                    role: DomainRole::Client,
                    priority: 0,
                    tasks: 1,
                },
            ],
            channels: vec![ChannelDecl {
                name: "req".into(),
                from: "cli".into(),
                to: "srv".into(),
                capacity: 16,
            }],
            regions: vec![RegionDecl {
                name: "buf".into(),
                owner: "srv".into(),
                share: vec!["cli".into()],
                pages: 2,
                protect: true,
                va: None,
            }],
        };
        let steps = plan(&doc);
        assert_eq!(steps.len(), 5);
        assert_eq!(
            steps[3],
            LowerStep::MapRegion {
                name: "buf".into(),
                owner: "srv".into(),
                mappings: 4,
                va: REGION_VA_BASE,
                protected: true,
            }
        );
        assert_eq!(
            steps[4],
            LowerStep::ArmWatch {
                spans: 3,
                bytes: CHANNEL_HEADER_BYTES + 2 * PAGE_SIZE,
            }
        );
        // Turning the watch off drops exactly the arming step.
        let unwatched = ComposeDoc {
            watch: false,
            ..doc
        };
        assert_eq!(plan(&unwatched).len(), 4);
    }
}
