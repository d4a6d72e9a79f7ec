//! Deterministic hardware-fault injection at the machine/MBM boundary.
//!
//! The adversarial campaign engine (`crates/campaign`) stresses the
//! detection pipeline not just with attacker programs but with the
//! hardware misbehaving underneath them: interrupts that never arrive,
//! a bus tap that flips an address bit, a translator that stalls until
//! its FIFO overflows. A [`FaultPlan`] declares those events as a
//! deterministic schedule — each [`FaultSpec`] names a *site* (an
//! observable pipeline point) and the occurrence window at which it
//! fires — and a [`FaultInjector`] executes the schedule, keeping
//! per-fault counters and a hit log so verdict oracles can attribute
//! every missed detection to the fault that caused it.
//!
//! Everything here is deterministic: the same plan against the same
//! workload produces bit-identical injections, which is what makes
//! campaign runs reproducible from `(scenario, seed)` alone and lets
//! the minimizer bisect a failing schedule.

use std::cell::RefCell;
use std::rc::Rc;

use crate::addr::PhysAddr;
use hypernel_telemetry::counter;
use hypernel_telemetry::counters::Counter;

/// The kinds of injectable hardware faults, each tied to one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The MBM's interrupt assertion is lost on the wire.
    /// Site: MBM IRQ raise attempts.
    DropIrq,
    /// The MBM's interrupt assertion is delayed by `param` pipeline
    /// steps before reaching the controller.
    /// Site: MBM IRQ raise attempts.
    DelayIrq,
    /// The bitmap translator stalls for one drain opportunity, letting
    /// the snoop FIFO back up (and eventually overflow).
    /// Site: MBM drain invocations.
    StallTranslator,
    /// The bus tap observes a corrupted address: bit `param` of the
    /// snooped write address is flipped. DRAM still receives the true
    /// write — only the monitor's view is wrong.
    /// Site: snooped bus write transactions.
    FlipSnoopAddr,
    /// A hypercall traps to EL2 but its effect is lost (the doorbell
    /// rings in an empty room). `param` selects the hypercall number to
    /// lose, or `u64::MAX` for any.
    /// Site: hypercalls matching the filter.
    LoseHypercall,
    /// The watch bitmap the decision unit consults reads back as zero
    /// (a desynchronized/corrupted bitmap word).
    /// Site: bitmap lookups.
    DesyncBitmap,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 6] = [
        Self::DropIrq,
        Self::DelayIrq,
        Self::StallTranslator,
        Self::FlipSnoopAddr,
        Self::LoseHypercall,
        Self::DesyncBitmap,
    ];

    /// Stable machine-readable name (used by scenario TOML and reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::DropIrq => "drop-irq",
            Self::DelayIrq => "delay-irq",
            Self::StallTranslator => "stall-translator",
            Self::FlipSnoopAddr => "flip-snoop-addr",
            Self::LoseHypercall => "lose-hypercall",
            Self::DesyncBitmap => "desync-bitmap",
        }
    }

    /// Parses a [`FaultKind::name`] back into the kind.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The kind's [`FaultSpec::param`] as scenario files spell it: its
    /// key and default value, or `None` for kinds without one.
    pub fn param(self) -> Option<(&'static str, u64)> {
        match self {
            Self::DelayIrq => Some(("steps", 1)),
            Self::FlipSnoopAddr => Some(("bit", 12)),
            Self::LoseHypercall => Some(("call", u64::MAX)),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault: fire on the `at`-th through `at + count - 1`-th
/// occurrence (1-based) of the kind's site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// First site occurrence (1-based) the fault fires on.
    pub at: u64,
    /// Number of consecutive occurrences affected.
    pub count: u64,
    /// Kind-specific parameter (delay steps, bit index, hypercall nr).
    pub param: u64,
}

impl FaultSpec {
    /// A fault of `kind` on the given schedule, with the kind's default
    /// parameter ([`FaultKind::param`]).
    pub fn of_kind(kind: FaultKind, at: u64, count: u64) -> Self {
        Self {
            kind,
            at,
            count,
            param: kind.param().map_or(0, |(_, default)| default),
        }
    }

    /// Drop the `at`-th through `at + count - 1`-th MBM IRQ assertions.
    pub fn drop_irq(at: u64, count: u64) -> Self {
        Self {
            kind: FaultKind::DropIrq,
            at,
            count,
            param: 0,
        }
    }

    /// Delay matching MBM IRQ assertions by `steps` pipeline steps.
    pub fn delay_irq(at: u64, count: u64, steps: u64) -> Self {
        Self {
            kind: FaultKind::DelayIrq,
            at,
            count,
            param: steps,
        }
    }

    /// Stall the bitmap translator for `count` drain opportunities.
    pub fn stall_translator(at: u64, count: u64) -> Self {
        Self {
            kind: FaultKind::StallTranslator,
            at,
            count,
            param: 0,
        }
    }

    /// Flip address bit `bit` of matching snooped writes.
    pub fn flip_snoop_addr(at: u64, count: u64, bit: u64) -> Self {
        Self {
            kind: FaultKind::FlipSnoopAddr,
            at,
            count,
            param: bit,
        }
    }

    /// Lose matching hypercalls numbered `call` (`u64::MAX` = any).
    pub fn lose_hypercall(at: u64, count: u64, call: u64) -> Self {
        Self {
            kind: FaultKind::LoseHypercall,
            at,
            count,
            param: call,
        }
    }

    /// Zero the bitmap word seen by matching decision-unit lookups.
    pub fn desync_bitmap(at: u64, count: u64) -> Self {
        Self {
            kind: FaultKind::DesyncBitmap,
            at,
            count,
            param: 0,
        }
    }
}

/// A declarative fault schedule, threaded through `SystemBuilder`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, in declaration order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault to the schedule.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Returns `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Per-fault injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// MBM IRQ assertions dropped.
    pub irqs_dropped: u64,
    /// MBM IRQ assertions delayed.
    pub irqs_delayed: u64,
    /// Translator drain opportunities stalled.
    pub translator_stalls: u64,
    /// Snooped write addresses corrupted.
    pub snoop_addr_flips: u64,
    /// Hypercalls lost.
    pub hypercalls_lost: u64,
    /// Bitmap lookups desynchronized.
    pub bitmap_desyncs: u64,
}

impl FaultStats {
    /// Every counter with its artifact field name, in declaration order
    /// — the one list of fault-counter names. Run reports, campaign
    /// records and summaries serialize through it, and a summary's
    /// `faults` object is read back through it.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<FaultStats>] = &[
        counter!(irqs_dropped, report = "irqs_dropped", record = "irqs_dropped"),
        counter!(irqs_delayed, report = "irqs_delayed", record = "irqs_delayed"),
        counter!(translator_stalls, report = "translator_stalls", record = "translator_stalls"),
        counter!(snoop_addr_flips, report = "snoop_addr_flips", record = "snoop_addr_flips"),
        counter!(hypercalls_lost, report = "hypercalls_lost", record = "hypercalls_lost"),
        counter!(bitmap_desyncs, report = "bitmap_desyncs", record = "bitmap_desyncs"),
    ];

    /// Total injections across all kinds.
    pub fn total(&self) -> u64 {
        Self::COUNTERS.iter().filter_map(|c| c.value(self)).sum()
    }

    /// Injections that can hide a watched write from the detection
    /// pipeline (everything except pure delays).
    pub fn detection_threatening(&self) -> u64 {
        self.total() - self.irqs_delayed
    }
}

/// One recorded injection, for post-run attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultHit {
    /// The kind that fired.
    pub kind: FaultKind,
    /// The site-occurrence index (1-based) it fired on.
    pub site_index: u64,
    /// Kind-specific detail (affected address, hypercall nr, …).
    pub info: u64,
}

/// The decision an IRQ-raise site gets back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqFault {
    /// Deliver normally.
    None,
    /// Suppress the assertion entirely.
    Drop,
    /// Deliver after this many pipeline steps.
    Delay(u64),
}

#[derive(Clone)]
struct SpecState {
    spec: FaultSpec,
    seen: u64,
}

impl SpecState {
    /// Advances this spec's private site counter and reports whether the
    /// occurrence falls inside the firing window.
    fn hit(&mut self) -> bool {
        self.seen += 1;
        self.seen >= self.spec.at && self.seen < self.spec.at.saturating_add(self.spec.count)
    }
}

/// Executes a [`FaultPlan`]: each site consults the injector, which
/// tracks occurrence counts per spec and records every injection.
///
/// `Clone` copies the occurrence counters, stats and log as they stand,
/// so a forked system resumes fault injection exactly where the original
/// was at fork time (for warm-boot reuse, that is the fresh post-boot
/// state).
#[derive(Clone)]
pub struct FaultInjector {
    specs: Vec<SpecState>,
    stats: FaultStats,
    log: Vec<FaultHit>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("specs", &self.specs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            specs: plan
                .specs
                .into_iter()
                .map(|spec| SpecState { spec, seen: 0 })
                .collect(),
            stats: FaultStats::default(),
            log: Vec::new(),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Every injection performed, in order.
    pub fn log(&self) -> &[FaultHit] {
        &self.log
    }

    fn record(&mut self, kind: FaultKind, site_index: u64, info: u64) {
        self.log.push(FaultHit {
            kind,
            site_index,
            info,
        });
    }

    /// Site: the MBM asserts its interrupt line. Returns what the wire
    /// does with it. `addr` is the triggering write address (logged).
    pub fn on_irq_raise(&mut self, addr: u64) -> IrqFault {
        let mut verdict = IrqFault::None;
        let mut hits = Vec::new();
        for s in &mut self.specs {
            let matches = matches!(s.spec.kind, FaultKind::DropIrq | FaultKind::DelayIrq);
            if !matches {
                continue;
            }
            if s.hit() {
                hits.push((s.spec.kind, s.seen, s.spec.param));
            }
        }
        for (kind, site, param) in hits {
            match kind {
                FaultKind::DropIrq => {
                    self.stats.irqs_dropped += 1;
                    self.record(kind, site, addr);
                    verdict = IrqFault::Drop;
                }
                FaultKind::DelayIrq => {
                    self.stats.irqs_delayed += 1;
                    self.record(kind, site, addr);
                    // A drop beats a delay when both fire.
                    if verdict == IrqFault::None {
                        verdict = IrqFault::Delay(param.max(1));
                    }
                }
                _ => unreachable!("filtered above"),
            }
        }
        verdict
    }

    /// Site: the bitmap translator gets a drain opportunity. Returns
    /// `true` when the translator must stall this time.
    pub fn on_drain(&mut self) -> bool {
        let mut stalled = false;
        let mut hits = Vec::new();
        for s in &mut self.specs {
            if s.spec.kind != FaultKind::StallTranslator {
                continue;
            }
            if s.hit() {
                hits.push(s.seen);
            }
        }
        for site in hits {
            self.stats.translator_stalls += 1;
            self.record(FaultKind::StallTranslator, site, 0);
            stalled = true;
        }
        stalled
    }

    /// Site: a write transaction is shown to bus snoopers. Returns the
    /// (possibly corrupted) address the snoopers observe.
    pub fn on_snoop_write(&mut self, addr: PhysAddr) -> PhysAddr {
        let mut out = addr;
        let mut hits = Vec::new();
        for s in &mut self.specs {
            if s.spec.kind != FaultKind::FlipSnoopAddr {
                continue;
            }
            if s.hit() {
                hits.push((s.seen, s.spec.param));
            }
        }
        for (site, bit) in hits {
            out = PhysAddr::new(out.raw() ^ (1u64 << (bit % 64)));
            self.stats.snoop_addr_flips += 1;
            self.record(FaultKind::FlipSnoopAddr, site, addr.raw());
        }
        out
    }

    /// Site: EL1 issues hypercall `call`. Returns `true` when the call
    /// is lost (trap taken, handler never runs).
    pub fn on_hypercall(&mut self, call: u64) -> bool {
        let mut lost = false;
        let mut hits = Vec::new();
        for s in &mut self.specs {
            if s.spec.kind != FaultKind::LoseHypercall {
                continue;
            }
            if s.spec.param != u64::MAX && s.spec.param != call {
                continue;
            }
            if s.hit() {
                hits.push(s.seen);
            }
        }
        for site in hits {
            self.stats.hypercalls_lost += 1;
            self.record(FaultKind::LoseHypercall, site, call);
            lost = true;
        }
        lost
    }

    /// Site: the decision unit fetches a bitmap word. Returns `true`
    /// when the word must read back as zero.
    pub fn on_bitmap_lookup(&mut self, word_addr: u64) -> bool {
        let mut desync = false;
        let mut hits = Vec::new();
        for s in &mut self.specs {
            if s.spec.kind != FaultKind::DesyncBitmap {
                continue;
            }
            if s.hit() {
                hits.push(s.seen);
            }
        }
        for site in hits {
            self.stats.bitmap_desyncs += 1;
            self.record(FaultKind::DesyncBitmap, site, word_addr);
            desync = true;
        }
        desync
    }
}

/// The shared handle components hold on one injector. The machine and
/// its devices live on one thread (the whole `System` is single-
/// threaded), so `Rc<RefCell<…>>` matches the existing telemetry-sink
/// sharing pattern.
pub type SharedFaults = Rc<RefCell<FaultInjector>>;

/// Wraps a plan into the shared handle form the taps consume.
pub fn share(plan: FaultPlan) -> SharedFaults {
    Rc::new(RefCell::new(FaultInjector::new(plan)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fire_on_exact_occurrences() {
        let mut inj = FaultInjector::new(FaultPlan::new().with(FaultSpec::drop_irq(2, 2)));
        assert_eq!(inj.on_irq_raise(0xA), IrqFault::None);
        assert_eq!(inj.on_irq_raise(0xB), IrqFault::Drop);
        assert_eq!(inj.on_irq_raise(0xC), IrqFault::Drop);
        assert_eq!(inj.on_irq_raise(0xD), IrqFault::None);
        assert_eq!(inj.stats().irqs_dropped, 2);
        assert_eq!(inj.log().len(), 2);
        assert_eq!(inj.log()[0].site_index, 2);
        assert_eq!(inj.log()[0].info, 0xB);
    }

    #[test]
    fn drop_beats_delay_on_overlap() {
        let mut inj = FaultInjector::new(
            FaultPlan::new()
                .with(FaultSpec::drop_irq(1, 1))
                .with(FaultSpec::delay_irq(1, 1, 5)),
        );
        assert_eq!(inj.on_irq_raise(0), IrqFault::Drop);
        assert_eq!(inj.stats().irqs_dropped, 1);
        assert_eq!(inj.stats().irqs_delayed, 1);
    }

    #[test]
    fn hypercall_filter_only_counts_matching_calls() {
        let mut inj =
            FaultInjector::new(FaultPlan::new().with(FaultSpec::lose_hypercall(1, 1, 0x130)));
        assert!(!inj.on_hypercall(0x100), "non-matching call not counted");
        assert!(!inj.on_hypercall(0x100));
        assert!(inj.on_hypercall(0x130), "first matching call is lost");
        assert!(!inj.on_hypercall(0x130), "window exhausted");
        assert_eq!(inj.stats().hypercalls_lost, 1);
    }

    #[test]
    fn snoop_flip_changes_only_the_observed_address() {
        let mut inj =
            FaultInjector::new(FaultPlan::new().with(FaultSpec::flip_snoop_addr(1, 1, 3)));
        let seen = inj.on_snoop_write(PhysAddr::new(0x1000));
        assert_eq!(seen, PhysAddr::new(0x1008));
        let seen = inj.on_snoop_write(PhysAddr::new(0x1000));
        assert_eq!(seen, PhysAddr::new(0x1000), "window exhausted");
        assert_eq!(inj.stats().snoop_addr_flips, 1);
    }

    #[test]
    fn stall_and_desync_sites() {
        let mut inj = FaultInjector::new(
            FaultPlan::new()
                .with(FaultSpec::stall_translator(1, 3))
                .with(FaultSpec::desync_bitmap(2, 1)),
        );
        assert!(inj.on_drain());
        assert!(inj.on_drain());
        assert!(inj.on_drain());
        assert!(!inj.on_drain());
        assert!(!inj.on_bitmap_lookup(0x40));
        assert!(inj.on_bitmap_lookup(0x48));
        assert!(!inj.on_bitmap_lookup(0x50));
        let stats = inj.stats();
        assert_eq!(stats.translator_stalls, 3);
        assert_eq!(stats.bitmap_desyncs, 1);
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.detection_threatening(), 4);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }
}
