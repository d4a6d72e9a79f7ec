//! The Memory Bus Monitor device (paper Fig. 5).
//!
//! Pipeline, module for module as in the paper's microarchitecture:
//!
//! 1. **Bus traffic snooper** — captures write address/value pairs from
//!    the CPU↔DRAM bus ([`hypernel_machine::bus::BusSnooper`] hook).
//! 2. **FIFO buffer** — decouples capture from lookup
//!    ([`crate::fifo::SnoopFifo`]).
//! 3. **Bitmap translator** — computes the bitmap word address for each
//!    captured write and fetches it, from the **bitmap cache**
//!    ([`crate::cache::BitmapCache`]) when possible or main memory
//!    otherwise (read-allocate).
//! 4. **Decision unit** — tests the watch bit; on a match records the
//!    event in the output ring buffer and raises the MBM interrupt line.
//!
//! The bitmap and ring buffer both live in the secure region, "so the
//! kernel cannot undermine the MBM operation" (§5.3).
//!
//! ## Watch-word filter (host fast path)
//!
//! Real workloads write overwhelmingly to words nobody watches. Every
//! capture of one write transaction (a word, or a 64-byte line
//! write-back) is translated through the same bitmap word, so the
//! filter reads that word once, as the decision unit would (from the
//! bitmap cache when resident, otherwise from DRAM, without counting
//! the read), and short-circuits every capture whose watch bit is
//! clear: it never enters the FIFO and the translator never looks it
//! up. Captures whose bit is set take the reference pipeline. The
//! filter keeps no state of its own, so no bitmap update, snooped or
//! not, can leave it stale. After the transaction it charges what the
//! reference pipeline would have: `captured` and `bitmap_lookups` per
//! skip, the skipped lookups to the bitmap cache (hits while the word
//! is resident, otherwise one miss, one device read and a fill, after
//! which the rest hit) and the FIFO depth they would have reached.
//! The skip is taken only when it is provably model-invisible: no
//! fault injector, no telemetry sink, lossless drain, and an empty
//! FIFO deep enough for a whole line write-back, so the reference
//! pipeline would translate every capture of the transaction, in
//! order, before the next one. Only the host counter
//! `page_filter_skips` differs with the filter on or off.
//! `HYPERNEL_NO_FASTPATH=1` (or [`Mbm::set_filter_enabled`]) forces
//! the reference pipeline.

use std::any::Any;

use hypernel_machine::addr::PhysAddr;
use hypernel_machine::bus::{BusContext, BusSnooper, BusTransaction};
use hypernel_machine::fastpath_enabled;
use hypernel_machine::fault::{IrqFault, SharedFaults};
use hypernel_machine::irq::IrqLine;
use hypernel_machine::mem::PhysMemory;
use hypernel_telemetry::counters::Counter;
use hypernel_telemetry::{counter, metrics};
use hypernel_telemetry::{Event, PointKind, SharedSink, SpanKind, Track};

use crate::bitmap::BitmapLayout;
use crate::cache::{BitmapCache, BitmapCacheStats};
use crate::fifo::{SnoopFifo, SnoopedWrite};
use crate::ring::{RingLayout, WriteEvent};

/// Most captures a single bus transaction can produce (a full cache-line
/// write-back). An empty FIFO at least this deep cannot overflow within
/// one transaction, which the watch-word filter's envelope requires.
const MAX_CAPTURES_PER_TXN: usize = 8;

/// The bitmap word the decision unit would consult for a transaction,
/// its value and whether the bitmap cache held it.
#[derive(Debug, Clone, Copy)]
struct FilterProbe {
    word: PhysAddr,
    value: u64,
    resident: bool,
}

/// Configuration of an MBM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbmConfig {
    /// Geometry of the watch bitmap (window + storage).
    pub bitmap: BitmapLayout,
    /// Geometry of the output ring buffer.
    pub ring: RingLayout,
    /// Snoop FIFO depth (entries).
    pub fifo_capacity: usize,
    /// Maximum FIFO entries the bitmap translator processes per bus
    /// transaction (and per [`BusSnooper::step`] call). `None` means the
    /// translator always keeps up — the lossless configuration used for
    /// the paper experiments.
    pub drain_per_transaction: Option<usize>,
    /// Bitmap cache capacity in 64-bit words; `None` disables the cache
    /// (ablation configuration).
    pub bitmap_cache_words: Option<usize>,
    /// Optional guarded physical range `(base, len)`: *any* bus write
    /// into it raises an immediate alarm, with no bitmap lookup. The
    /// paper's §8 suggests the MBM can detect DMA attacks on the secure
    /// space "with additional engineering efforts" — this is that
    /// engineering: Hypersec's private memory is only ever written
    /// through the CPU cache (never the bus), so bus-level writes there
    /// can only be DMA tampering.
    pub secure_guard: Option<(PhysAddr, u64)>,
}

impl MbmConfig {
    /// A lossless monitor with the paper's structure and a 64-word bitmap
    /// cache, covering `window_len` bytes from `window_base`, with secure
    /// structures at `bitmap_base` / `ring_base`.
    pub fn standard(
        window_base: PhysAddr,
        window_len: u64,
        bitmap_base: PhysAddr,
        ring_base: PhysAddr,
        ring_entries: u64,
    ) -> Self {
        Self {
            bitmap: BitmapLayout::new(window_base, window_len, bitmap_base),
            ring: RingLayout::new(ring_base, ring_entries),
            fifo_capacity: 16,
            drain_per_transaction: None,
            bitmap_cache_words: Some(64),
            secure_guard: None,
        }
    }

    /// Returns the configuration with a guarded range for DMA protection
    /// of the secure space (paper §8 extension).
    pub fn with_secure_guard(mut self, base: PhysAddr, len: u64) -> Self {
        self.secure_guard = Some((base, len));
        self
    }
}

/// Running statistics of the monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MbmStats {
    /// Write transactions observed on the bus (any address).
    pub bus_writes_seen: u64,
    /// Word-writes captured into the FIFO (inside the monitored window).
    pub captured: u64,
    /// Captured writes lost to FIFO overflow.
    pub fifo_dropped: u64,
    /// Address of the first capture lost to FIFO overflow, so verdict
    /// oracles can tell "missed by design (overflow)" from "missed
    /// (bug)" — a watched word inside the page of this address was
    /// provably never translated.
    pub first_dropped_addr: Option<PhysAddr>,
    /// Bitmap lookups performed by the translator.
    pub bitmap_lookups: u64,
    /// Events whose watch bit was set (the paper's "interrupts generated"
    /// count in Table 2).
    pub events_matched: u64,
    /// Matched events lost because the output ring was full.
    pub ring_overflows: u64,
    /// Interrupt assertions to the host CPU.
    pub irqs_raised: u64,
    /// DRAM reads the MBM issued for bitmap fetches.
    pub device_reads: u64,
    /// DRAM writes the MBM issued for ring-buffer updates.
    pub device_writes: u64,
    /// Bus writes into the guarded secure range (DMA-tampering alarms).
    pub secure_alarms: u64,
    /// Captured writes short-circuited by the watch-word filter (host
    /// observability; zero when the filter is disabled).
    pub page_filter_skips: u64,
    /// Lookups where the value the decision unit consumed differed from
    /// the stored bitmap word — the device's own desync self-check. Any
    /// nonzero count means the translator was blinded (e.g. by a
    /// `desync-bitmap` fault); the audit oracle treats it as a failure
    /// even when every per-step verdict looked clean.
    pub lookup_divergences: u64,
}

impl MbmStats {
    /// Every counter with its artifact names — the one list of them. The
    /// first three lead because campaign records list them in this
    /// order. The last two rows split `captured` by outcome for
    /// coverage.
    #[rustfmt::skip]
    pub const COUNTERS: &'static [Counter<MbmStats>] = &[
        counter!(events_matched, coverage = "mbm/stage/matched", metric = metrics::MBM_WATCH_HITS, report = "events_matched", record = "events_matched"),
        counter!(irqs_raised, coverage = "mbm/stage/irq-raised", metric = metrics::MBM_IRQS_RAISED, report = "irqs_raised", record = "irqs_raised"),
        counter!(fifo_dropped, coverage = "mbm/edge/fifo-overflow", metric = metrics::MBM_FIFO_DROPPED, report = "fifo_dropped", record = "fifo_dropped"),
        counter!(bus_writes_seen, coverage = "mbm/stage/snooped", metric = metrics::MBM_BUS_WRITES, report = "bus_writes_seen"),
        counter!(captured, coverage = "mbm/stage/captured", metric = metrics::MBM_CAPTURED, report = "captured"),
        counter!(bitmap_lookups, coverage = "mbm/stage/translated"),
        counter!(ring_overflows, coverage = "mbm/edge/ring-overflow"),
        counter!(device_reads),
        counter!(device_writes),
        counter!(secure_alarms, coverage = "mbm/edge/secure-alarm", report = "secure_alarms"),
        counter!(lookup_divergences, coverage = "mbm/edge/lookup-divergence", report = "lookup_divergences"),
        counter!(host page_filter_skips),
        counter!(derived "events_matched" = |s| s.events_matched, coverage = "mbm/capture/matched"),
        counter!(derived "captured - events_matched" = |s| s.captured.saturating_sub(s.events_matched), coverage = "mbm/capture/unmatched"),
    ];
}

/// The memory bus monitor device. Attach it to a machine with
/// [`hypernel_machine::bus::MemoryBus::attach`].
///
/// ```
/// use hypernel_machine::addr::PhysAddr;
/// use hypernel_mbm::monitor::{Mbm, MbmConfig};
///
/// let config = MbmConfig::standard(
///     PhysAddr::new(0),          // monitor the first…
///     1 << 20,                   // …1 MiB of DRAM
///     PhysAddr::new(64 << 20),   // bitmap at 64 MiB
///     PhysAddr::new(65 << 20),   // ring at 65 MiB
///     256,
/// );
/// let mbm = Mbm::new(config);
/// assert_eq!(mbm.stats().captured, 0);
/// ```
#[derive(Clone)]
pub struct Mbm {
    config: MbmConfig,
    fifo: SnoopFifo,
    cache: BitmapCache,
    stats: MbmStats,
    sink: Option<SharedSink>,
    faults: Option<SharedFaults>,
    /// Interrupt assertions a fault is holding back: `(remaining pipeline
    /// steps, triggering write address)`.
    delayed_irqs: Vec<(u64, u64)>,
    /// Host switch for the watch-word filter (see module docs).
    filter_enabled: bool,
}

impl std::fmt::Debug for Mbm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mbm")
            .field("config", &self.config)
            .field("fifo", &self.fifo)
            .field("cache", &self.cache)
            .field("stats", &self.stats)
            .field("telemetry", &self.sink.is_some())
            .finish()
    }
}

impl Mbm {
    /// Creates a monitor from its configuration.
    pub fn new(config: MbmConfig) -> Self {
        Self {
            config,
            fifo: SnoopFifo::new(config.fifo_capacity),
            cache: match config.bitmap_cache_words {
                Some(words) => BitmapCache::new(words),
                None => BitmapCache::disabled(),
            },
            stats: MbmStats::default(),
            sink: None,
            faults: None,
            delayed_irqs: Vec::new(),
            filter_enabled: fastpath_enabled(),
        }
    }

    /// Enables or disables the watch-word filter (testing hook; the
    /// default follows [`fastpath_enabled`]). The filter keeps no state,
    /// so toggling is always safe.
    pub fn set_filter_enabled(&mut self, enabled: bool) {
        self.filter_enabled = enabled;
    }

    /// The bitmap word the decision unit would read for the captures of
    /// a write transaction of `words` words at `addr`, when the filter's
    /// envelope holds and the transaction lies in the window under one
    /// bitmap word; `None` when the reference pipeline must run.
    fn filter_probe(
        &self,
        addr: PhysAddr,
        words: usize,
        mem: &mut PhysMemory,
    ) -> Option<FilterProbe> {
        let envelope = self.filter_enabled
            && self.faults.is_none()
            && self.sink.is_none()
            && self.config.drain_per_transaction.is_none()
            && self.fifo.capacity() >= MAX_CAPTURES_PER_TXN
            && self.fifo.is_empty();
        if !envelope {
            return None;
        }
        let (word, _) = self.config.bitmap.locate(addr)?;
        let last = addr.add((words as u64 - 1) * 8);
        if self.config.bitmap.locate(last)?.0 != word {
            return None;
        }
        let cached = self.cache.peek(word);
        Some(FilterProbe {
            word,
            value: cached.unwrap_or_else(|| mem.read_u64(word)),
            resident: cached.is_some(),
        })
    }

    /// Installs (or removes) the fault injector covering the monitor's
    /// fault sites: IRQ drop/delay, translator stalls and bitmap
    /// desync. Share the same injector with the machine so one schedule
    /// spans the whole pipeline.
    pub fn set_fault_injector(&mut self, faults: Option<SharedFaults>) {
        self.faults = faults;
    }

    /// The installed fault-injector handle, if any (an owned `Rc`
    /// clone). Forking callers use this to verify re-wiring.
    pub fn fault_injector(&self) -> Option<SharedFaults> {
        self.faults.clone()
    }

    /// Installs (or removes) the telemetry sink; MBM events are stamped
    /// on [`Track::Mbm`] with the CPU cycle counter carried in on the bus.
    pub fn set_telemetry_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Emits a point event on the MBM track. One branch when disabled.
    #[inline]
    fn emit(&self, cycles: u64, point: PointKind, a: u64, b: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut()
                .record(&Event::mark(cycles, Track::Mbm, point, a, b));
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MbmConfig {
        &self.config
    }

    /// Mutable configuration access — experiments and stress tests
    /// adjust the drain rate mid-run to model translator backpressure.
    pub fn config_mut(&mut self) -> &mut MbmConfig {
        &mut self.config
    }

    /// Running statistics.
    pub fn stats(&self) -> MbmStats {
        self.stats
    }

    /// Bitmap-cache statistics.
    pub fn bitmap_cache_stats(&self) -> BitmapCacheStats {
        self.cache.stats()
    }

    /// Resets all statistics, the bitmap cache's included (the hardware
    /// equivalent of clearing its performance counters between benchmark
    /// runs). The bitmap cache keeps its contents.
    pub fn reset_stats(&mut self) {
        self.stats = MbmStats::default();
        self.cache.reset_stats();
    }

    /// Current FIFO depth (for queue-pressure tests).
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// Deepest the FIFO has ever been (for queue-pressure time series).
    pub fn fifo_high_watermark(&self) -> usize {
        self.fifo.high_watermark()
    }

    /// The FIFO gauges read from the device, with their artifact names.
    #[rustfmt::skip]
    pub const GAUGES: &'static [Counter<Mbm>] = &[
        counter!(derived "FIFO depth" = |m| m.fifo_len() as u64, metric = metrics::MBM_FIFO_DEPTH, report = "fifo_depth"),
        counter!(derived "FIFO high-water mark" = |m| m.fifo_high_watermark() as u64, metric = metrics::MBM_FIFO_HIGH_WATER, report = "fifo_high_water"),
    ];

    /// Every bucket [`Mbm::fifo_occupancy_bucket`] returns, in order of
    /// rising occupancy.
    pub const FIFO_OCCUPANCY_BUCKETS: [&'static str; 4] = ["empty", "low", "high", "full"];

    /// Coarse occupancy bucket of the FIFO's high watermark relative to
    /// its configured capacity: `empty`, `low` (under half), `high`
    /// (half or more), or `full` (capacity reached). Derived from
    /// model-visible state only, so coverage keys built on it are
    /// fastpath-invariant.
    pub fn fifo_occupancy_bucket(&self) -> &'static str {
        let [empty, low, high, full] = Self::FIFO_OCCUPANCY_BUCKETS;
        let capacity = self.config.fifo_capacity.max(1);
        let peak = self.fifo_high_watermark();
        if peak == 0 {
            empty
        } else if peak >= capacity {
            full
        } else if peak * 2 >= capacity {
            high
        } else {
            low
        }
    }

    fn capture(&mut self, write: SnoopedWrite, cycles: u64) {
        self.stats.captured += 1;
        if self.fifo.push(write) {
            self.emit(
                cycles,
                PointKind::MbmFifoPush,
                write.addr.raw(),
                write.value,
            );
        } else {
            self.stats.fifo_dropped += 1;
            if self.stats.first_dropped_addr.is_none() {
                self.stats.first_dropped_addr = Some(write.addr);
            }
            self.emit(
                cycles,
                PointKind::MbmFifoDrop,
                write.addr.raw(),
                write.value,
            );
        }
    }

    /// Asserts the MBM interrupt line, subject to drop/delay faults.
    /// `trigger` is the write address that caused the assertion.
    fn raise_irq(&mut self, ctx: &mut BusContext<'_>, trigger: u64) {
        let fault = match &self.faults {
            Some(f) => f.borrow_mut().on_irq_raise(trigger),
            None => IrqFault::None,
        };
        match fault {
            IrqFault::None => {
                self.stats.irqs_raised += 1;
                ctx.irq.raise(IrqLine::MBM);
                self.emit(
                    ctx.cycles,
                    PointKind::IrqRaised,
                    u64::from(IrqLine::MBM.0),
                    trigger,
                );
            }
            IrqFault::Drop => {}
            IrqFault::Delay(steps) => self.delayed_irqs.push((steps.max(1), trigger)),
        }
    }

    /// Advances delayed interrupt assertions by one pipeline step,
    /// delivering any that have run out their delay.
    fn tick_delayed_irqs(&mut self, ctx: &mut BusContext<'_>) {
        if self.delayed_irqs.is_empty() {
            return;
        }
        let mut due = Vec::new();
        self.delayed_irqs.retain_mut(|(remaining, trigger)| {
            *remaining -= 1;
            if *remaining == 0 {
                due.push(*trigger);
                false
            } else {
                true
            }
        });
        for trigger in due {
            self.stats.irqs_raised += 1;
            ctx.irq.raise(IrqLine::MBM);
            self.emit(
                ctx.cycles,
                PointKind::IrqRaised,
                u64::from(IrqLine::MBM.0),
                trigger,
            );
        }
    }

    /// The bitmap translator + decision unit: processes one FIFO entry.
    fn translate_one(&mut self, ctx: &mut BusContext<'_>) -> bool {
        let Some(write) = self.fifo.pop() else {
            return false;
        };
        let Some((bitmap_word, mask)) = self.config.bitmap.locate(write.addr) else {
            // Window membership was checked at capture; a failure here
            // would be a hardware bug.
            return true;
        };
        self.stats.bitmap_lookups += 1;
        let mut word_value = match self.cache.lookup(bitmap_word) {
            Some(v) => v,
            None => {
                let v = ctx.mem.read_u64(bitmap_word);
                self.stats.device_reads += 1;
                *ctx.extra_mem_accesses += 1;
                self.cache.fill(bitmap_word, v);
                v
            }
        };
        // Fault site: a desynchronized bitmap word reads back as zero,
        // blinding the decision unit for this lookup.
        let stored_value = word_value;
        if let Some(faults) = &self.faults {
            if faults.borrow_mut().on_bitmap_lookup(bitmap_word.raw()) {
                word_value = 0;
            }
        }
        if word_value != stored_value {
            self.stats.lookup_divergences += 1;
        }
        // Decision unit.
        if word_value & mask != 0 {
            self.stats.events_matched += 1;
            self.emit(
                ctx.cycles,
                PointKind::MbmWatchHit,
                write.addr.raw(),
                write.value,
            );
            let pushed = self.config.ring.push(
                ctx.mem,
                WriteEvent {
                    addr: write.addr,
                    value: write.value,
                },
            );
            self.stats.device_writes += 3; // entry (2 words) + tail index
            if pushed {
                self.raise_irq(ctx, write.addr.raw());
            } else {
                self.stats.ring_overflows += 1;
            }
        }
        true
    }

    fn drain(&mut self, ctx: &mut BusContext<'_>) {
        self.tick_delayed_irqs(ctx);
        // Fault site: a stalled translator skips this whole drain
        // opportunity, letting the FIFO back up.
        if let Some(faults) = &self.faults {
            if faults.borrow_mut().on_drain() {
                return;
            }
        }
        let budget = self.config.drain_per_transaction.unwrap_or(usize::MAX);
        let backlog = self.fifo.len() as u64;
        if backlog > 0 {
            self.emit_span_begin(ctx.cycles, backlog);
        }
        let mut processed = 0u64;
        for _ in 0..budget {
            if !self.translate_one(ctx) {
                break;
            }
            processed += 1;
        }
        if backlog > 0 {
            self.emit_span_end(ctx.cycles, processed);
        }
    }

    #[inline]
    fn emit_span_begin(&self, cycles: u64, arg: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut()
                .record(&Event::begin(cycles, Track::Mbm, SpanKind::MbmDrain, arg));
        }
    }

    #[inline]
    fn emit_span_end(&self, cycles: u64, arg: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut()
                .record(&Event::end(cycles, Track::Mbm, SpanKind::MbmDrain, arg));
        }
    }
}

impl Mbm {
    fn check_guard(&mut self, addr: PhysAddr, ctx: &mut BusContext<'_>) {
        if let Some((base, len)) = self.config.secure_guard {
            if addr >= base && addr.raw() < base.raw() + len {
                self.stats.secure_alarms += 1;
                self.raise_irq(ctx, addr.raw());
            }
        }
    }
}

impl BusSnooper for Mbm {
    fn on_transaction(&mut self, txn: &BusTransaction, ctx: &mut BusContext<'_>) {
        let (addr, words) = match txn {
            BusTransaction::WriteWord { addr, value } => (*addr, std::slice::from_ref(value)),
            BusTransaction::WriteLine { addr, data } => (*addr, &data[..]),
            BusTransaction::ReadWord { .. } | BusTransaction::ReadLine { .. } => {
                return self.drain(ctx);
            }
        };
        self.check_guard(addr, ctx);
        self.stats.bus_writes_seen += 1;
        let probe = self.filter_probe(addr, words.len(), ctx.mem);
        let mut skipped = 0;
        for (i, &value) in words.iter().enumerate() {
            let word_addr = addr.add(i as u64 * 8);
            if self.config.bitmap.in_bitmap_storage(word_addr) {
                self.cache.snoop_update(word_addr, value);
            } else if let Some((_, mask)) = self.config.bitmap.locate(word_addr) {
                if probe.is_some_and(|p| p.value & mask == 0) {
                    skipped += 1;
                } else {
                    self.capture(
                        SnoopedWrite {
                            addr: word_addr,
                            value,
                        },
                        ctx.cycles,
                    );
                }
            }
        }
        if let Some(p) = probe {
            // Charge the skipped captures as the reference pipeline
            // would have: captured, queued behind the ones in the FIFO
            // (which started empty) and translated through the probed
            // word before the next transaction. Every lookup of the
            // transaction reads that word, so their order cannot change
            // what the bitmap cache counts.
            self.stats.captured += skipped;
            self.stats.bitmap_lookups += skipped;
            self.stats.page_filter_skips += skipped;
            self.fifo.note_occupancy(self.fifo.len() + skipped as usize);
            let fetches = self
                .cache
                .charge_lookups(p.word, p.value, p.resident, skipped);
            self.stats.device_reads += fetches;
            *ctx.extra_mem_accesses += fetches;
        }
        self.drain(ctx);
    }

    fn step(&mut self, ctx: &mut BusContext<'_>) {
        self.drain(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn BusSnooper> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::irq::IrqController;

    const WINDOW_LEN: u64 = 1 << 20;
    const BITMAP_BASE: u64 = 0x400_0000;
    const RING_BASE: u64 = 0x500_0000;

    fn config() -> MbmConfig {
        MbmConfig::standard(
            PhysAddr::new(0),
            WINDOW_LEN,
            PhysAddr::new(BITMAP_BASE),
            PhysAddr::new(RING_BASE),
            64,
        )
    }

    struct Rig {
        mbm: Mbm,
        mem: PhysMemory,
        irq: IrqController,
        extra: u64,
    }

    impl Rig {
        fn new(config: MbmConfig) -> Self {
            Self {
                mbm: Mbm::new(config),
                mem: PhysMemory::new(0x600_0000),
                irq: IrqController::new(),
                extra: 0,
            }
        }

        /// Marks `len` bytes at `pa` as watched by writing the bitmap the
        /// way Hypersec would (via bus-visible writes so the cache stays
        /// coherent).
        fn watch(&mut self, pa: u64, len: u64) {
            let updates = self
                .mbm
                .config()
                .bitmap
                .plan_update(PhysAddr::new(pa), len, true);
            for u in updates {
                let cur = self.mem.read_u64(u.word);
                let val = u.apply_to(cur);
                self.mem.write_u64(u.word, val);
                self.txn(BusTransaction::WriteWord {
                    addr: u.word,
                    value: val,
                });
            }
        }

        fn txn(&mut self, txn: BusTransaction) {
            let mut ctx = BusContext {
                mem: &mut self.mem,
                irq: &mut self.irq,
                extra_mem_accesses: &mut self.extra,
                cycles: 0,
            };
            self.mbm.on_transaction(&txn, &mut ctx);
        }

        fn write(&mut self, addr: u64, value: u64) {
            self.mem.write_u64(PhysAddr::new(addr), value);
            self.txn(BusTransaction::WriteWord {
                addr: PhysAddr::new(addr),
                value,
            });
        }

        fn pop_event(&mut self) -> Option<WriteEvent> {
            self.mbm.config().ring.pop(&mut self.mem)
        }
    }

    #[test]
    fn watched_write_raises_interrupt_with_event() {
        let mut rig = Rig::new(config());
        rig.watch(0x1000, 8);
        rig.write(0x1000, 0xDEAD);
        assert!(rig.irq.is_pending(IrqLine::MBM));
        let ev = rig.pop_event().expect("event recorded");
        assert_eq!(ev.addr, PhysAddr::new(0x1000));
        assert_eq!(ev.value, 0xDEAD);
        assert_eq!(rig.mbm.stats().events_matched, 1);
    }

    #[test]
    fn unwatched_write_is_filtered() {
        let mut rig = Rig::new(config());
        rig.watch(0x1000, 8);
        rig.write(0x2000, 1);
        rig.write(0x1008, 2); // adjacent word, same page — still filtered
        assert!(!rig.irq.is_pending(IrqLine::MBM));
        assert!(rig.pop_event().is_none());
        assert_eq!(rig.mbm.stats().bitmap_lookups, 2);
        assert_eq!(rig.mbm.stats().events_matched, 0);
    }

    #[test]
    fn word_granularity_vs_page_granularity() {
        // The paper's core claim: watching one word of a page means writes
        // to the other 511 words cost nothing.
        let mut rig = Rig::new(config());
        rig.watch(0x3000, 8);
        for w in 1..512u64 {
            rig.write(0x3000 + w * 8, w);
        }
        assert_eq!(rig.mbm.stats().events_matched, 0);
        rig.write(0x3000, 42);
        assert_eq!(rig.mbm.stats().events_matched, 1);
    }

    #[test]
    fn line_writeback_is_scanned_word_by_word() {
        let mut rig = Rig::new(config());
        rig.watch(0x4010, 8); // third word of the line at 0x4000
        let mut data = [0u64; 8];
        data[2] = 0x77;
        rig.txn(BusTransaction::WriteLine {
            addr: PhysAddr::new(0x4000),
            data,
        });
        assert_eq!(rig.mbm.stats().events_matched, 1);
        let ev = rig.pop_event().unwrap();
        assert_eq!(ev.addr, PhysAddr::new(0x4010));
        assert_eq!(ev.value, 0x77);
    }

    #[test]
    fn bitmap_cache_serves_repeated_lookups() {
        let mut rig = Rig::new(config());
        rig.watch(0x5000, 8);
        for i in 0..10 {
            rig.write(0x5000, i);
        }
        let cs = rig.mbm.bitmap_cache_stats();
        assert_eq!(cs.misses, 1, "only the first lookup fetches from DRAM");
        assert_eq!(cs.hits, 9);
        assert_eq!(rig.mbm.stats().device_reads, 1);
    }

    #[test]
    fn snooped_bitmap_write_keeps_cache_coherent() {
        let mut rig = Rig::new(config());
        rig.watch(0x6000, 8);
        rig.write(0x6000, 1); // fills the cache, matches
        assert_eq!(rig.mbm.stats().events_matched, 1);
        // Hypersec un-watches the word; the bitmap write is snooped.
        let updates = rig
            .mbm
            .config()
            .bitmap
            .plan_update(PhysAddr::new(0x6000), 8, false);
        for u in updates {
            let cur = rig.mem.read_u64(u.word);
            let val = u.apply_to(cur);
            rig.mem.write_u64(u.word, val);
            rig.txn(BusTransaction::WriteWord {
                addr: u.word,
                value: val,
            });
        }
        rig.write(0x6000, 2);
        assert_eq!(
            rig.mbm.stats().events_matched,
            1,
            "stale cached bitmap would have matched again"
        );
    }

    #[test]
    fn cacheless_ablation_reads_dram_every_time() {
        let mut cfg = config();
        cfg.bitmap_cache_words = None;
        let mut rig = Rig::new(cfg);
        rig.watch(0x5000, 8);
        for i in 0..10 {
            rig.write(0x5000, i);
        }
        assert_eq!(rig.mbm.stats().device_reads, 10);
    }

    #[test]
    fn slow_translator_overflows_fifo() {
        let mut cfg = config();
        cfg.fifo_capacity = 4;
        cfg.drain_per_transaction = Some(0); // translator stalled
        let mut rig = Rig::new(cfg);
        rig.watch(0x7000, 64);
        for w in 0..8u64 {
            rig.write(0x7000 + w * 8, w);
        }
        assert_eq!(rig.mbm.stats().fifo_dropped, 4);
        assert_eq!(rig.mbm.fifo_len(), 4);
        // Un-stall: step drains the backlog.
        rig.mbm.config.drain_per_transaction = None;
        let mut ctx = BusContext {
            mem: &mut rig.mem,
            irq: &mut rig.irq,
            extra_mem_accesses: &mut rig.extra,
            cycles: 0,
        };
        rig.mbm.step(&mut ctx);
        assert_eq!(rig.mbm.fifo_len(), 0);
        assert_eq!(rig.mbm.stats().events_matched, 4);
    }

    #[test]
    fn ring_overflow_is_counted() {
        let mut cfg = config();
        cfg.ring = RingLayout::new(PhysAddr::new(RING_BASE), 2);
        let mut rig = Rig::new(cfg);
        rig.watch(0x8000, 8);
        for i in 0..5 {
            rig.write(0x8000, i);
        }
        assert_eq!(rig.mbm.stats().events_matched, 5);
        assert_eq!(rig.mbm.stats().ring_overflows, 3);
        assert_eq!(rig.mbm.stats().irqs_raised, 2);
    }

    #[test]
    fn secure_guard_alarms_on_any_write_in_range() {
        let mut cfg = config().with_secure_guard(PhysAddr::new(0x580_0000), 0x10_0000);
        cfg.bitmap = BitmapLayout::new(PhysAddr::new(0), WINDOW_LEN, PhysAddr::new(BITMAP_BASE));
        let mut rig = Rig::new(cfg);
        // A write inside the guarded range alarms without any bitmap bit.
        rig.mem = PhysMemory::new(0x600_0000);
        rig.txn(BusTransaction::WriteWord {
            addr: PhysAddr::new(0x580_0008),
            value: 0xD77A,
        });
        assert_eq!(rig.mbm.stats().secure_alarms, 1);
        assert!(rig.irq.is_pending(IrqLine::MBM));
        // Reads never alarm; writes outside the range never alarm.
        rig.txn(BusTransaction::ReadWord {
            addr: PhysAddr::new(0x580_0008),
        });
        rig.txn(BusTransaction::WriteWord {
            addr: PhysAddr::new(0x1000),
            value: 1,
        });
        assert_eq!(rig.mbm.stats().secure_alarms, 1);
    }

    #[test]
    fn secure_guard_covers_line_writebacks() {
        let cfg = config().with_secure_guard(PhysAddr::new(0x580_0000), 0x10_0000);
        let mut rig = Rig::new(cfg);
        rig.txn(BusTransaction::WriteLine {
            addr: PhysAddr::new(0x580_0040),
            data: [7; 8],
        });
        assert_eq!(rig.mbm.stats().secure_alarms, 1);
    }

    #[test]
    fn reset_stats() {
        let mut rig = Rig::new(config());
        rig.watch(0x1000, 8);
        rig.write(0x1000, 1);
        assert_ne!(rig.mbm.stats(), MbmStats::default());
        assert_ne!(rig.mbm.bitmap_cache_stats(), BitmapCacheStats::default());
        rig.mbm.reset_stats();
        assert_eq!(rig.mbm.stats(), MbmStats::default());
        assert_eq!(rig.mbm.bitmap_cache_stats(), BitmapCacheStats::default());
        // The cache keeps its contents: the next lookup of the word hits.
        rig.write(0x1000, 2);
        assert_eq!(rig.mbm.bitmap_cache_stats().hits, 1);
    }

    #[test]
    fn fifo_overflow_records_first_dropped_addr() {
        let mut cfg = config();
        cfg.fifo_capacity = 2;
        cfg.drain_per_transaction = Some(0); // translator stalled
        let mut rig = Rig::new(cfg);
        rig.watch(0x7000, 64);
        for w in 0..5u64 {
            rig.write(0x7000 + w * 8, w);
        }
        // Capacity 2 ⇒ writes 0 and 1 queue; write 2 (addr 0x7010) is the
        // first casualty and must be the one remembered.
        assert_eq!(rig.mbm.stats().fifo_dropped, 3);
        assert_eq!(
            rig.mbm.stats().first_dropped_addr,
            Some(PhysAddr::new(0x7010))
        );
    }

    #[test]
    fn drop_irq_fault_suppresses_assertion_but_event_lands_in_ring() {
        use hypernel_machine::fault::{share, FaultPlan, FaultSpec};
        let mut rig = Rig::new(config());
        rig.mbm.set_fault_injector(Some(share(
            FaultPlan::new().with(FaultSpec::drop_irq(1, 1)),
        )));
        rig.watch(0x1000, 8);
        rig.write(0x1000, 99);
        assert_eq!(rig.mbm.stats().events_matched, 1);
        assert_eq!(rig.mbm.stats().irqs_raised, 0);
        assert!(!rig.irq.is_pending(IrqLine::MBM));
        // The ring still holds the event: the monitor saw the write, only
        // the line assertion was swallowed.
        assert!(rig.pop_event().is_some());
    }

    #[test]
    fn delay_irq_fault_defers_assertion_by_pipeline_steps() {
        use hypernel_machine::fault::{share, FaultPlan, FaultSpec};
        let mut rig = Rig::new(config());
        let faults = share(FaultPlan::new().with(FaultSpec::delay_irq(1, 1, 2)));
        rig.mbm.set_fault_injector(Some(faults));
        rig.watch(0x1000, 8);
        rig.write(0x1000, 7);
        assert!(!rig.irq.is_pending(IrqLine::MBM));
        // Each step (or drain) ticks the delay once; two ticks deliver it.
        let mut ctx = BusContext {
            mem: &mut rig.mem,
            irq: &mut rig.irq,
            extra_mem_accesses: &mut rig.extra,
            cycles: 0,
        };
        rig.mbm.step(&mut ctx);
        assert!(!ctx.irq.is_pending(IrqLine::MBM));
        rig.mbm.step(&mut ctx);
        assert!(ctx.irq.is_pending(IrqLine::MBM));
        assert_eq!(rig.mbm.stats().irqs_raised, 1);
    }

    #[test]
    fn stall_translator_fault_backs_up_fifo() {
        use hypernel_machine::fault::{share, FaultPlan, FaultSpec};
        let mut rig = Rig::new(config());
        rig.watch(0x1000, 8);
        // Stall the next two drain opportunities (installed after `watch`
        // so the bitmap-update transactions don't consume the window).
        rig.mbm.set_fault_injector(Some(share(
            FaultPlan::new().with(FaultSpec::stall_translator(1, 2)),
        )));
        rig.write(0x1000, 1); // drain stalled: capture stays queued
        assert_eq!(rig.mbm.fifo_len(), 1);
        rig.write(0x2000, 2); // unwatched, but its drain is stalled too
        assert_eq!(rig.mbm.fifo_len(), 2);
        rig.write(0x3000, 3); // third drain runs, clears the backlog
        assert_eq!(rig.mbm.fifo_len(), 0);
        assert_eq!(rig.mbm.stats().events_matched, 1);
    }

    // ------------------------------------------------------------------
    // Watch-word filter
    // ------------------------------------------------------------------

    #[test]
    fn filter_short_circuits_unwatched_pages() {
        let mut rig = Rig::new(config());
        rig.mbm.set_filter_enabled(true);
        rig.watch(0x1000, 8);
        // Writes to a page with no watched word skip the pipeline…
        for w in 0..100u64 {
            rig.write(0x9000 + w * 8, w);
        }
        assert_eq!(rig.mbm.stats().page_filter_skips, 100);
        // …but charge the same capture/lookup counters as the reference.
        assert_eq!(rig.mbm.stats().captured, 100);
        assert_eq!(rig.mbm.stats().bitmap_lookups, 100);
        assert_eq!(rig.mbm.stats().events_matched, 0);
        // Watched writes still go through the real pipeline and match.
        rig.write(0x1000, 7);
        assert_eq!(rig.mbm.stats().events_matched, 1);
        assert!(rig.irq.is_pending(IrqLine::MBM));
    }

    #[test]
    fn filter_coherent_when_watch_bits_set_and_cleared_mid_run() {
        let mut rig = Rig::new(config());
        rig.mbm.set_filter_enabled(true);
        // Initially unwatched: writes to the page are skipped.
        rig.write(0x6000, 1);
        assert_eq!(rig.mbm.stats().page_filter_skips, 1);
        // Hypersec sets the watch bit (bus-visible bitmap write): the
        // very next write must take the real pipeline and match.
        rig.watch(0x6000, 8);
        rig.write(0x6000, 2);
        assert_eq!(rig.mbm.stats().events_matched, 1);
        // Clearing it re-arms the short circuit.
        let updates = rig
            .mbm
            .config()
            .bitmap
            .plan_update(PhysAddr::new(0x6000), 8, false);
        for u in updates {
            let cur = rig.mem.read_u64(u.word);
            let val = u.apply_to(cur);
            rig.mem.write_u64(u.word, val);
            rig.txn(BusTransaction::WriteWord {
                addr: u.word,
                value: val,
            });
        }
        rig.write(0x6000, 3);
        assert_eq!(rig.mbm.stats().events_matched, 1);
        assert_eq!(rig.mbm.stats().page_filter_skips, 2);
        // A watched word beside it, under the same bitmap word, does
        // not stop the filter skipping the unwatched one…
        rig.watch(0x6100, 8);
        rig.write(0x6008, 4);
        assert_eq!(rig.mbm.stats().page_filter_skips, 3);
        assert_eq!(rig.mbm.stats().events_matched, 1);
        // …nor does the skip hide the watched word's next write.
        rig.write(0x6100, 5);
        assert_eq!(rig.mbm.stats().page_filter_skips, 3);
        assert_eq!(rig.mbm.stats().events_matched, 2);
    }

    #[test]
    fn filter_matches_reference_pipeline_statistics() {
        let mut runs = Vec::new();
        for enabled in [true, false] {
            let mut rig = Rig::new(config());
            rig.mbm.set_filter_enabled(enabled);
            rig.watch(0x2000, 16);
            for w in 0..64u64 {
                rig.write(0x4000 + w * 8, w); // unwatched page
            }
            rig.write(0x2008, 1); // watched
            rig.txn(BusTransaction::WriteLine {
                addr: PhysAddr::new(0x4100),
                data: [9; 8],
            });
            let mut stats = rig.mbm.stats();
            assert_eq!(stats.page_filter_skips > 0, enabled);
            // Only the filter's own host counter may diverge.
            stats.page_filter_skips = 0;
            // The high-water mark is a *model* value: short-circuited
            // captures count as transient occupancy, so the skipping
            // run reports the depth the reference run actually reached.
            runs.push((
                stats,
                rig.mbm.bitmap_cache_stats(),
                rig.mbm.fifo_high_watermark(),
                rig.irq.is_pending(IrqLine::MBM),
            ));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn filter_self_disables_outside_safety_envelope() {
        // A lossy FIFO (or throttled drain) can drop captures; skipping
        // would change which ones. The filter must stand down.
        let mut cfg = config();
        cfg.fifo_capacity = 2;
        let mut rig = Rig::new(cfg);
        rig.mbm.set_filter_enabled(true);
        rig.write(0x9000, 1);
        assert_eq!(rig.mbm.stats().page_filter_skips, 0);

        let mut cfg = config();
        cfg.drain_per_transaction = Some(1);
        let mut rig = Rig::new(cfg);
        rig.mbm.set_filter_enabled(true);
        rig.write(0x9000, 1);
        assert_eq!(rig.mbm.stats().page_filter_skips, 0);

        // The depth that counts is the FIFO's own, not a configuration
        // edited after the device was built.
        let mut cfg = config();
        cfg.fifo_capacity = 4;
        let mut rig = Rig::new(cfg);
        rig.mbm.set_filter_enabled(true);
        rig.mbm.config_mut().fifo_capacity = 16;
        rig.txn(BusTransaction::WriteLine {
            addr: PhysAddr::new(0x9000),
            data: [1; 8],
        });
        assert_eq!(rig.mbm.stats().page_filter_skips, 0);
        assert_eq!(rig.mbm.stats().fifo_dropped, 4);

        // A fault injector also forces the reference pipeline.
        use hypernel_machine::fault::{share, FaultPlan};
        let mut rig = Rig::new(config());
        rig.mbm.set_filter_enabled(true);
        rig.mbm.set_fault_injector(Some(share(FaultPlan::new())));
        rig.write(0x9000, 1);
        assert_eq!(rig.mbm.stats().page_filter_skips, 0);
    }

    #[test]
    fn filter_stands_down_over_a_fifo_backlog() {
        // A stalled translator leaves 12 captures queued in the 16-entry
        // FIFO; the line written back behind them overflows it by 4 in
        // the reference pipeline, so the filter must not skip them.
        for enabled in [true, false] {
            let mut rig = Rig::new(config());
            rig.mbm.set_filter_enabled(enabled);
            rig.mbm.config_mut().drain_per_transaction = Some(0);
            for w in 0..12u64 {
                rig.write(0x9000 + w * 8, w);
            }
            rig.mbm.config_mut().drain_per_transaction = None;
            rig.txn(BusTransaction::WriteLine {
                addr: PhysAddr::new(0xa000),
                data: [9; 8],
            });
            let stats = rig.mbm.stats();
            assert_eq!(stats.page_filter_skips, 0, "filter {enabled}");
            assert_eq!(stats.fifo_dropped, 4, "filter {enabled}");
            assert_eq!(stats.bitmap_lookups, 16, "filter {enabled}");
            assert_eq!(
                stats.first_dropped_addr,
                Some(PhysAddr::new(0xa020)),
                "filter {enabled}"
            );
            assert_eq!(rig.mbm.fifo_high_watermark(), 16, "filter {enabled}");
        }
    }

    #[test]
    fn filter_confirms_against_memory_for_non_bus_bitmap_writes() {
        // Out-of-band bitmap programming (no bus transaction — the
        // bare-monitor ATRA rig does exactly this): the filter reads the
        // word from DRAM, as the decision unit would, and must not skip.
        let mut rig = Rig::new(config());
        rig.mbm.set_filter_enabled(true);
        let (word, mask) = rig
            .mbm
            .config()
            .bitmap
            .locate(PhysAddr::new(0x3000))
            .unwrap();
        rig.mem.write_u64(word, mask);
        rig.write(0x3000, 5);
        assert_eq!(rig.mbm.stats().events_matched, 1);
        assert_eq!(rig.mbm.stats().page_filter_skips, 0);
    }

    #[test]
    fn desync_bitmap_fault_blinds_one_lookup() {
        use hypernel_machine::fault::{share, FaultPlan, FaultSpec};
        let mut rig = Rig::new(config());
        rig.mbm.set_fault_injector(Some(share(
            FaultPlan::new().with(FaultSpec::desync_bitmap(1, 1)),
        )));
        rig.watch(0x1000, 8);
        rig.write(0x1000, 1); // lookup desynced: watched write missed
        assert_eq!(rig.mbm.stats().events_matched, 0);
        rig.write(0x1000, 2); // fault window exhausted: detected again
        assert_eq!(rig.mbm.stats().events_matched, 1);
    }
}
