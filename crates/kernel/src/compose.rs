//! Kernel-side registry for composed multi-domain systems.
//!
//! `hypernel-compose` lowers a declarative system description —
//! protection domains, channels, shared memory regions — into concrete
//! kernel state through the `compose_*` methods on
//! [`Kernel`](crate::Kernel). This module holds the bookkeeping those
//! methods maintain: which pid backs which named domain, where each
//! channel's slab slot and each region's frames live, and the counters
//! the campaign coverage atlas reads back. Everything here is `Clone`
//! so a composed system snapshots with the kernel for warm-boot
//! forking, and every collection is a `Vec` in creation order so
//! iteration (and therefore the derived watch set) is deterministic.

use hypernel_machine::addr::{PhysAddr, VirtAddr, PAGE_SIZE};

use crate::task::Pid;
use hypernel_telemetry::counter;
use hypernel_telemetry::counters::Counter;

/// Whether a protection domain is a passive server or a client task
/// (microkit's two protection-domain flavors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainRole {
    /// Passive server: waits on channels, owns shared state.
    Server,
    /// Client: drives requests into servers.
    Client,
}

impl DomainRole {
    /// Both roles, in declaration order.
    pub const ALL: [DomainRole; 2] = [Self::Server, Self::Client];

    /// Stable lowercase name (used by TOML and coverage keys).
    pub fn name(self) -> &'static str {
        match self {
            Self::Server => "server",
            Self::Client => "client",
        }
    }
}

/// A lowered protection domain: one or more kernel tasks plus the
/// declared scheduling metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainInfo {
    /// Tasks backing the domain, in spawn order; `pids[0]` is the
    /// domain's principal task.
    pub pids: Vec<Pid>,
    /// Server or client.
    pub role: DomainRole,
    /// Declared priority (scheduling metadata only; recorded so the
    /// lowering is faithful to the description).
    pub priority: u64,
}

impl DomainInfo {
    /// The domain's principal task.
    pub fn pid(&self) -> Pid {
        self.pids[0]
    }
}

/// Byte size of one channel slot header (`from`, `to`, `capacity`) —
/// the immutable part the derived watch set covers.
pub const CHANNEL_HEADER_BYTES: u64 = 24;

/// Offset of the mutable per-channel data area (sequence counter +
/// last payload) inside the channel table page. Headers pack
/// contiguously from offset 0 so the derived watch spans of adjacent
/// channels coalesce into one registration; the churn of legitimate
/// sends lands up here, outside every watched span.
pub const CHANNEL_DATA_BASE: u64 = 2048;

/// Bytes of mutable data per channel slot (sequence word + payload
/// word).
pub const CHANNEL_DATA_BYTES: u64 = 16;

/// Maximum channels one table page can hold: headers must stay below
/// the data area and data must stay inside the page.
pub const MAX_CHANNELS: usize = (CHANNEL_DATA_BASE / CHANNEL_HEADER_BYTES) as usize;

const _: () = assert!(
    CHANNEL_DATA_BASE + (MAX_CHANNELS as u64) * CHANNEL_DATA_BYTES <= PAGE_SIZE,
    "channel data area overflows the table page"
);

/// A lowered channel: a slot in the shared channel table page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelInfo {
    /// The channel table page this slot lives in.
    pub table: PhysAddr,
    /// Slot index within the table.
    pub slot: usize,
    /// Sending domain's principal task.
    pub from: Pid,
    /// Receiving domain's principal task.
    pub to: Pid,
}

impl ChannelInfo {
    /// Physical address of this slot's (watched) header.
    pub fn header_pa(&self) -> PhysAddr {
        self.table.add(self.slot as u64 * CHANNEL_HEADER_BYTES)
    }

    /// Physical address of this slot's (unwatched) data words.
    pub fn data_pa(&self) -> PhysAddr {
        self.table
            .add(CHANNEL_DATA_BASE + self.slot as u64 * CHANNEL_DATA_BYTES)
    }
}

/// A lowered shared memory region: page frames mapped at the same
/// virtual address into the owner and every sharer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Backing frames, one per page, in VA order.
    pub frames: Vec<PhysAddr>,
    /// Base virtual address of the mapping (identical in every domain
    /// that maps the region).
    pub va: VirtAddr,
    /// Whether the region is write-protected by the derived watch set.
    pub protect: bool,
    /// Owning domain's principal task.
    pub owner: Pid,
    /// Principal tasks of the sharing domains.
    pub sharers: Vec<Pid>,
}

/// Counters the compose lowering maintains (read back into the
/// `compose/*` coverage feature group).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComposeStats {
    /// Server domains spawned.
    pub server_domains: u64,
    /// Client domains spawned.
    pub client_domains: u64,
    /// Tasks spawned across all domains.
    pub domain_tasks: u64,
    /// Channels created.
    pub channels_created: u64,
    /// Legitimate messages sent over channels.
    pub channel_messages: u64,
    /// Shared regions mapped.
    pub regions_mapped: u64,
    /// Of those, regions covered by the derived watch set.
    pub protected_regions: u64,
    /// Individual user-space mappings installed for shared regions
    /// (owner + sharers, per page).
    pub shared_mappings: u64,
    /// Watch spans derived before coalescing.
    pub watch_spans_derived: u64,
    /// Spans eliminated by coalescing physically adjacent spans.
    pub watch_spans_merged: u64,
    /// Monitor-registration hypercalls actually issued.
    pub watch_calls_issued: u64,
}

impl ComposeStats {
    /// Every counter with its artifact names — the one list of them.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<ComposeStats>] = &[
        counter!(server_domains, coverage = "compose/domain/server"),
        counter!(client_domains, coverage = "compose/domain/client"),
        counter!(domain_tasks, coverage = "compose/domain/task"),
        counter!(channels_created, coverage = "compose/channel/created"),
        counter!(channel_messages, coverage = "compose/channel/message"),
        counter!(regions_mapped, coverage = "compose/region/mapped"),
        counter!(protected_regions, coverage = "compose/region/protected"),
        counter!(shared_mappings, coverage = "compose/region/shared-mapping"),
        counter!(watch_spans_derived, coverage = "compose/watch/derived-span"),
        counter!(watch_spans_merged, coverage = "compose/watch/merged-span"),
        counter!(watch_calls_issued, coverage = "compose/watch/batched-call"),
    ];
}

/// The kernel's registry of composed state, in creation order.
#[derive(Debug, Clone, Default)]
pub struct ComposeState {
    /// Declared domains, `(name, info)`.
    pub domains: Vec<(String, DomainInfo)>,
    /// Declared channels, `(name, info)`.
    pub channels: Vec<(String, ChannelInfo)>,
    /// Declared regions, `(name, info)`.
    pub regions: Vec<(String, RegionInfo)>,
    /// The shared channel table page, allocated with the first channel.
    pub channel_table: Option<PhysAddr>,
    /// Next virtual address the region allocator will hand out.
    pub next_region_va: u64,
    /// Lowering counters.
    pub stats: ComposeStats,
}

/// Deterministic nonzero stamp the owner writes into the first word of
/// each shared-region page before the watch set arms (FNV-1a of the
/// region name, mixed with the page index, forced odd).
pub fn compose_stamp(region: &str, page: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in region.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    (h ^ page) | 1
}

/// Default base of the automatically assigned shared-region window
/// (clear of the user image, the mmap arena at `0x2000_0000` and the
/// stack top).
pub const REGION_VA_BASE: u64 = 0x6000_0000;

impl ComposeState {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self {
            next_region_va: REGION_VA_BASE,
            ..Self::default()
        }
    }

    /// The domain registered under `name`.
    pub fn domain(&self, name: &str) -> Option<&DomainInfo> {
        self.domains.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// The channel registered under `name`.
    pub fn channel(&self, name: &str) -> Option<&ChannelInfo> {
        self.channels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }

    /// The region registered under `name`.
    pub fn region(&self, name: &str) -> Option<&RegionInfo> {
        self.regions.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_slot_geometry_is_page_safe() {
        let info = ChannelInfo {
            table: PhysAddr::new(0x40_0000),
            slot: MAX_CHANNELS - 1,
            from: Pid(1),
            to: Pid(2),
        };
        assert!(
            info.header_pa().raw() + CHANNEL_HEADER_BYTES <= info.table.raw() + CHANNEL_DATA_BASE
        );
        assert!(info.data_pa().raw() + CHANNEL_DATA_BYTES <= info.table.raw() + PAGE_SIZE);
    }

    #[test]
    fn registry_lookups_resolve_by_name() {
        let mut state = ComposeState::new();
        state.domains.push((
            "fs".into(),
            DomainInfo {
                pids: vec![Pid(2)],
                role: DomainRole::Server,
                priority: 10,
            },
        ));
        assert_eq!(state.domain("fs").map(DomainInfo::pid), Some(Pid(2)));
        assert!(state.domain("net").is_none());
        assert!(state.channel("c").is_none());
        assert!(state.region("r").is_none());
        assert_eq!(state.next_region_va, REGION_VA_BASE);
    }
}
