//! Security applications hosted in the secure space.
//!
//! The paper's evaluation runs "a security solution which monitors
//! sensitive kernel data on Hypernel … the sensitive fields of the target
//! kernel data objects (cred, dentry) and verifies the integrity of these
//! fields" (§7.2). [`SecurityApp`] is the interface Hypersec offers such
//! solutions; [`CredMonitor`] and [`DentryMonitor`] implement the paper's
//! two targets.
//!
//! Verification model: a monitored object's sensitive fields are written
//! exactly once after registration (`commit_creds` / `d_instantiate`);
//! any later mutation arrives outside an authorized update window and is
//! flagged. Linux `cred` objects really are copy-on-write-immutable after
//! commit, so this matches the invariant the paper's solution checks.

use std::collections::HashMap;

use hypernel_kernel::abi::sid;
use hypernel_kernel::kobj::{CredField, DentryField, ObjectKind};
use hypernel_machine::addr::{PhysAddr, VirtAddr};
use hypernel_machine::machine::Machine;

/// A monitored region as tracked by Hypersec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Owning security application.
    pub sid: u32,
    /// Kernel virtual base the kernel registered.
    pub base_va: VirtAddr,
    /// Physical base after Hypersec's translation.
    pub pa: PhysAddr,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// Returns `true` if the physical address lies inside the region.
    pub fn covers(&self, pa: PhysAddr) -> bool {
        pa >= self.pa && pa.raw() < self.pa.raw() + self.len
    }
}

/// A monitored-write event delivered to a security application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorEvent {
    /// Physical address of the written word.
    pub pa: PhysAddr,
    /// The value written.
    pub value: u64,
    /// The region the write landed in.
    pub region: Region,
}

/// A security application's judgement of an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Expected behaviour.
    Benign,
    /// Integrity violation.
    Malicious {
        /// Human-readable explanation.
        reason: String,
    },
}

/// A security solution hosted by Hypersec.
pub trait SecurityApp {
    /// The application id used in `MONITOR_REGISTER` hypercalls.
    fn sid(&self) -> u32;

    /// Human-readable name.
    fn name(&self) -> &str;

    /// Called when a region is registered on this app's behalf.
    fn on_region_registered(&mut self, machine: &mut Machine, region: &Region) {
        let _ = (machine, region);
    }

    /// Called when a region is unregistered.
    fn on_region_unregistered(&mut self, region: &Region) {
        let _ = region;
    }

    /// Judges one monitored write.
    fn on_event(&mut self, event: &MonitorEvent) -> Verdict;

    /// Deep-copies the app (including any accumulated per-object state),
    /// so a whole [`crate::hypersec::Hypersec`] instance — and with it a
    /// booted system — can be snapshotted and forked for warm-boot reuse.
    fn clone_box(&self) -> Box<dyn SecurityApp>;
}

impl Clone for Box<dyn SecurityApp> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Tracks per-word write counts to implement the write-once invariant.
#[derive(Debug, Clone, Default)]
struct WriteOnce {
    writes: HashMap<u64, u32>,
}

impl WriteOnce {
    /// Records a write; returns the count including this one.
    fn record(&mut self, pa: PhysAddr) -> u32 {
        let c = self.writes.entry(pa.raw()).or_insert(0);
        *c += 1;
        *c
    }

    fn forget_region(&mut self, region: &Region) {
        self.writes
            .retain(|&pa, _| !region.covers(PhysAddr::new(pa)));
    }

    /// Seeds state for a region registered over an *already initialized*
    /// object (the arming sweep): every word currently holding a nonzero
    /// value has had its one legitimate commit write — any further
    /// mutation is flagged.
    fn preconsume(&mut self, machine: &mut Machine, region: &Region) {
        let mut pa = region.pa;
        let end = region.pa.add(region.len);
        while pa < end {
            let value = machine.el2_read_u64(VirtAddr::new(pa.raw())).unwrap_or(0);
            if value != 0 {
                self.writes.insert(pa.raw(), 1);
            }
            pa = pa.add(8);
        }
    }
}

/// Resolves which field of a monitored object an event hit, given the
/// region's shape (sensitive run vs whole object).
fn field_offset_words(kind: ObjectKind, event: &MonitorEvent) -> u64 {
    let region_off_words = if event.region.len == kind.bytes() {
        // Whole-object region starts at the object base.
        0
    } else {
        // Sensitive-run region: recover the run's start offset by length
        // match against the layout.
        kind.sensitive_ranges()
            .into_iter()
            .find(|(_, words)| *words * 8 == event.region.len)
            .map(|(off, _)| off)
            .unwrap_or(0)
    };
    region_off_words + event.pa.offset_from(event.region.pa) / 8
}

/// The cred-integrity monitor: watches user/group ids, capabilities and
/// secure bits; flags any mutation after the commit write.
#[derive(Debug, Clone, Default)]
pub struct CredMonitor {
    state: WriteOnce,
    events_seen: u64,
}

impl CredMonitor {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events this app has judged.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

impl SecurityApp for CredMonitor {
    fn clone_box(&self) -> Box<dyn SecurityApp> {
        Box::new(self.clone())
    }

    fn on_region_registered(&mut self, machine: &mut Machine, region: &Region) {
        self.state.preconsume(machine, region);
    }

    fn sid(&self) -> u32 {
        sid::CRED_MONITOR
    }

    fn name(&self) -> &str {
        "cred-integrity"
    }

    fn on_region_unregistered(&mut self, region: &Region) {
        self.state.forget_region(region);
    }

    fn on_event(&mut self, event: &MonitorEvent) -> Verdict {
        self.events_seen += 1;
        let off = field_offset_words(ObjectKind::Cred, event);
        let sensitive = CredField::ALL
            .iter()
            .any(|f| f.offset() == off && f.is_sensitive());
        if !sensitive {
            return Verdict::Benign;
        }
        if self.state.record(event.pa) > 1 {
            Verdict::Malicious {
                reason: format!(
                    "cred word {off} rewritten to {:#x} after commit (classic \
                     privilege-escalation signature)",
                    event.value
                ),
            }
        } else {
            Verdict::Benign
        }
    }
}

/// The dentry-integrity monitor: watches identity/redirection fields
/// (`d_inode`, `d_parent`, `d_op`, name hash, flags).
#[derive(Debug, Clone, Default)]
pub struct DentryMonitor {
    state: WriteOnce,
    events_seen: u64,
}

impl DentryMonitor {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events this app has judged.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

impl SecurityApp for DentryMonitor {
    fn clone_box(&self) -> Box<dyn SecurityApp> {
        Box::new(self.clone())
    }

    fn on_region_registered(&mut self, machine: &mut Machine, region: &Region) {
        self.state.preconsume(machine, region);
    }

    fn sid(&self) -> u32 {
        sid::DENTRY_MONITOR
    }

    fn name(&self) -> &str {
        "dentry-integrity"
    }

    fn on_region_unregistered(&mut self, region: &Region) {
        self.state.forget_region(region);
    }

    fn on_event(&mut self, event: &MonitorEvent) -> Verdict {
        self.events_seen += 1;
        let off = field_offset_words(ObjectKind::Dentry, event);
        let sensitive = DentryField::ALL
            .iter()
            .any(|f| f.offset() == off && f.is_sensitive());
        if !sensitive {
            return Verdict::Benign;
        }
        if self.state.record(event.pa) > 1 {
            Verdict::Malicious {
                reason: format!(
                    "dentry word {off} rewritten to {:#x} outside an \
                     authorized update window (VFS hijack signature)",
                    event.value
                ),
            }
        } else {
            Verdict::Benign
        }
    }
}

/// The composed-system guard: watches the regions `hypernel-compose`
/// derives — channel headers and protected shared pages. Every watched
/// word is write-once: the lowering populates headers and stamps
/// region pages *before* registration, so any post-registration write
/// inside a derived span (cross-domain theft, TOCTOU rewrite, channel
/// spoofing) is a rewrite and flags. The app needs no field map — what
/// is sensitive was already decided by the derivation.
#[derive(Debug, Clone, Default)]
pub struct ComposeMonitor {
    state: WriteOnce,
    events_seen: u64,
}

impl ComposeMonitor {
    /// Creates the monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events this app has judged.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

impl SecurityApp for ComposeMonitor {
    fn clone_box(&self) -> Box<dyn SecurityApp> {
        Box::new(self.clone())
    }

    fn on_region_registered(&mut self, machine: &mut Machine, region: &Region) {
        self.state.preconsume(machine, region);
    }

    fn sid(&self) -> u32 {
        sid::COMPOSE_MONITOR
    }

    fn name(&self) -> &str {
        "compose-guard"
    }

    fn on_region_unregistered(&mut self, region: &Region) {
        self.state.forget_region(region);
    }

    fn on_event(&mut self, event: &MonitorEvent) -> Verdict {
        self.events_seen += 1;
        if self.state.record(event.pa) > 1 {
            Verdict::Malicious {
                reason: format!(
                    "composed-system word at {:#x} rewritten to {:#x} after \
                     lowering (cross-domain tampering signature)",
                    event.pa.raw(),
                    event.value
                ),
            }
        } else {
            Verdict::Benign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cred_region(pa: u64) -> Region {
        // Sensitive run of cred: words 1..=13, 104 bytes.
        Region {
            sid: sid::CRED_MONITOR,
            base_va: VirtAddr::new(0xFFFF_0000_0000_1000),
            pa: PhysAddr::new(pa),
            len: 104,
        }
    }

    fn event(region: Region, pa: u64, value: u64) -> MonitorEvent {
        MonitorEvent {
            pa: PhysAddr::new(pa),
            value,
            region,
        }
    }

    #[test]
    fn cred_first_write_is_commit_second_is_attack() {
        let mut app = CredMonitor::new();
        let r = cred_region(0x8008); // object base 0x8000, run starts at word 1
                                     // Euid is word 5 → pa 0x8028.
        assert_eq!(app.on_event(&event(r, 0x8028, 1000)), Verdict::Benign);
        let v = app.on_event(&event(r, 0x8028, 0));
        assert!(matches!(v, Verdict::Malicious { .. }));
        assert_eq!(app.events_seen(), 2);
    }

    #[test]
    fn cred_whole_object_mode_ignores_refcount_churn() {
        let mut app = CredMonitor::new();
        let r = Region {
            sid: sid::CRED_MONITOR,
            base_va: VirtAddr::new(0xFFFF_0000_0000_1000),
            pa: PhysAddr::new(0x8000),
            len: ObjectKind::Cred.bytes(),
        };
        // Usage (word 0) churns — always benign.
        for i in 0..10 {
            assert_eq!(app.on_event(&event(r, 0x8000, i)), Verdict::Benign);
        }
        // Euid (word 5) is still protected.
        app.on_event(&event(r, 0x8028, 1000));
        assert!(matches!(
            app.on_event(&event(r, 0x8028, 0)),
            Verdict::Malicious { .. }
        ));
    }

    #[test]
    fn unregister_resets_write_once_state() {
        let mut app = CredMonitor::new();
        let r = cred_region(0x8008);
        app.on_event(&event(r, 0x8028, 1000));
        app.on_region_unregistered(&r);
        // A recycled slot is a fresh object: first write benign again.
        assert_eq!(app.on_event(&event(r, 0x8028, 1001)), Verdict::Benign);
    }

    #[test]
    fn dentry_inode_rewrite_is_flagged() {
        let mut app = DentryMonitor::new();
        // Sensitive run (6,3) covers Parent/Inode/Op: 24 bytes at word 6.
        let r = Region {
            sid: sid::DENTRY_MONITOR,
            base_va: VirtAddr::new(0xFFFF_0000_0000_2000),
            pa: PhysAddr::new(0x9030),
            len: 24,
        };
        // Inode is word 7 → pa 0x9038.
        assert_eq!(app.on_event(&event(r, 0x9038, 0xAAA)), Verdict::Benign);
        let v = app.on_event(&event(r, 0x9038, 0xEE1));
        assert!(matches!(v, Verdict::Malicious { .. }));
    }

    #[test]
    fn region_covers() {
        let r = cred_region(0x8008);
        assert!(r.covers(PhysAddr::new(0x8008)));
        assert!(r.covers(PhysAddr::new(0x806F)));
        assert!(!r.covers(PhysAddr::new(0x8070)));
        assert!(!r.covers(PhysAddr::new(0x8000)));
    }
}

/// A KI-Mon-style value-verifying monitor (Lee et al., USENIX Sec'13,
/// the paper's reference 17): instead of the write-once invariant it
/// checks every write against a whitelist of allowed values. The classic
/// use is function-pointer fields (`d_op` vtables): only pointers into
/// known vtable sets are legitimate, and a single forged write is caught
/// on its *first* occurrence — even during an object's construction.
#[derive(Debug, Clone)]
pub struct ValueWhitelistMonitor {
    sid: u32,
    name: String,
    /// Word offsets (within the monitored region) this monitor judges.
    watched_offsets: Vec<u64>,
    /// Values allowed at those offsets.
    allowed: std::collections::HashSet<u64>,
    events_seen: u64,
}

impl ValueWhitelistMonitor {
    /// Creates a whitelist monitor for application id `sid`.
    pub fn new(
        sid: u32,
        name: impl Into<String>,
        watched_offsets: impl IntoIterator<Item = u64>,
        allowed: impl IntoIterator<Item = u64>,
    ) -> Self {
        Self {
            sid,
            name: name.into(),
            watched_offsets: watched_offsets.into_iter().collect(),
            allowed: allowed.into_iter().collect(),
            events_seen: 0,
        }
    }

    /// Total events judged.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

impl SecurityApp for ValueWhitelistMonitor {
    fn clone_box(&self) -> Box<dyn SecurityApp> {
        Box::new(self.clone())
    }

    fn sid(&self) -> u32 {
        self.sid
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_event(&mut self, event: &MonitorEvent) -> Verdict {
        self.events_seen += 1;
        let offset = event.pa.offset_from(event.region.pa) / 8;
        if !self.watched_offsets.contains(&offset) {
            return Verdict::Benign;
        }
        if self.allowed.contains(&event.value) {
            Verdict::Benign
        } else {
            Verdict::Malicious {
                reason: format!(
                    "value {:#x} at region offset {offset} is not in the whitelist                      (forged pointer signature)",
                    event.value
                ),
            }
        }
    }
}

#[cfg(test)]
mod whitelist_tests {
    use super::*;

    fn region() -> Region {
        Region {
            sid: 7,
            base_va: VirtAddr::new(0xFFFF_0000_0000_3000),
            pa: PhysAddr::new(0xA000),
            len: 64,
        }
    }

    fn event(pa: u64, value: u64) -> MonitorEvent {
        MonitorEvent {
            pa: PhysAddr::new(pa),
            value,
            region: region(),
        }
    }

    #[test]
    fn whitelisted_values_pass_forever() {
        let mut app = ValueWhitelistMonitor::new(7, "vtable-guard", [2], [0xD0, 0xD1]);
        for _ in 0..5 {
            assert_eq!(app.on_event(&event(0xA010, 0xD0)), Verdict::Benign);
            assert_eq!(app.on_event(&event(0xA010, 0xD1)), Verdict::Benign);
        }
        assert_eq!(app.events_seen(), 10);
    }

    #[test]
    fn first_forged_value_is_flagged() {
        let mut app = ValueWhitelistMonitor::new(7, "vtable-guard", [2], [0xD0]);
        let v = app.on_event(&event(0xA010, 0xBAD));
        assert!(matches!(v, Verdict::Malicious { .. }));
        assert!(matches!(v, Verdict::Malicious { reason } if reason.contains("0xbad")));
    }

    #[test]
    fn unwatched_offsets_are_ignored() {
        let mut app = ValueWhitelistMonitor::new(7, "vtable-guard", [2], [0xD0]);
        // Offset 0 of the region is not watched.
        assert_eq!(app.on_event(&event(0xA000, 0xBAD)), Verdict::Benign);
    }

    #[test]
    fn identity() {
        let app = ValueWhitelistMonitor::new(9, "guard", [0], [1]);
        assert_eq!(app.sid(), 9);
        assert_eq!(app.name(), "guard");
    }
}
