//! Property-based tests for the MBM: the central soundness/completeness
//! claim — *the monitor raises exactly one event per bus-visible write to
//! a watched word, and none for anything else* — plus bitmap and ring
//! algebra, and the watch-word filter's invisibility to the model.

use std::collections::HashSet;

use hypernel_machine::addr::PhysAddr;
use hypernel_machine::bus::{BusContext, BusSnooper, BusTransaction};
use hypernel_machine::irq::{IrqController, IrqLine};
use hypernel_machine::mem::PhysMemory;
use hypernel_mbm::bitmap::BitmapLayout;
use hypernel_mbm::monitor::{Mbm, MbmConfig, MbmStats};
use hypernel_mbm::ring::{RingLayout, WriteEvent};
use proptest::prelude::*;

const WINDOW_LEN: u64 = 1 << 16; // 64 KiB window = 8192 words
const BITMAP_BASE: u64 = 0x40_0000;
const RING_BASE: u64 = 0x50_0000;

fn config() -> MbmConfig {
    MbmConfig::standard(
        PhysAddr::new(0),
        WINDOW_LEN,
        PhysAddr::new(BITMAP_BASE),
        PhysAddr::new(RING_BASE),
        4096,
    )
}

/// A monitor with its own DRAM and interrupt controller.
struct Rig {
    mbm: Mbm,
    mem: PhysMemory,
    irq: IrqController,
    extra: u64,
}

impl Rig {
    fn new(config: MbmConfig, filter: bool) -> Self {
        let mut mbm = Mbm::new(config);
        mbm.set_filter_enabled(filter);
        Self {
            mbm,
            mem: PhysMemory::new(0x60_0000),
            irq: IrqController::new(),
            extra: 0,
        }
    }

    /// Writes `data` to DRAM at `addr` and shows the monitor the bus
    /// transaction: a word write, or a line write-back for 8 words.
    fn write(&mut self, addr: PhysAddr, data: &[u64]) {
        for (i, &v) in data.iter().enumerate() {
            self.mem.write_u64(addr.add(i as u64 * 8), v);
        }
        let txn = match *data {
            [value] => BusTransaction::WriteWord { addr, value },
            _ => BusTransaction::WriteLine {
                addr,
                data: data.try_into().expect("a line is 8 words"),
            },
        };
        let mut ctx = BusContext {
            mem: &mut self.mem,
            irq: &mut self.irq,
            extra_mem_accesses: &mut self.extra,
            cycles: 0,
        };
        self.mbm.on_transaction(&txn, &mut ctx);
    }

    /// Everything the model can observe of the monitor: its counters
    /// (less the filter's host counter), the bitmap cache's counters,
    /// the FIFO gauges, DRAM traffic, the pending interrupt and the
    /// ring's contents (drained).
    fn observe(&mut self) -> impl PartialEq + std::fmt::Debug {
        let stats = MbmStats {
            page_filter_skips: 0,
            ..self.mbm.stats()
        };
        let mut ring = Vec::new();
        while let Some(ev) = self.mbm.config().ring.pop(&mut self.mem) {
            ring.push(ev);
        }
        (
            stats,
            self.mbm.bitmap_cache_stats(),
            self.mbm.fifo_len(),
            self.mbm.fifo_high_watermark(),
            self.extra,
            self.irq.is_pending(IrqLine::MBM),
            ring,
        )
    }
}

/// Words of the window the filter differential writes: four pages, so
/// bitmap updates and writes meet often.
const HOT_WORDS: u64 = 2048;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The watch-word filter is invisible to the model: two monitors
    /// fed the same word writes, line write-backs (mixing watched and
    /// unwatched words), bitmap set and clear writes and translator
    /// stalls, one with the filter on and one with it off, end
    /// identical in everything but the filter's host counter. The
    /// window base may sit off a bitmap word's span, so a line can
    /// straddle two bitmap words or the window's edge.
    #[test]
    fn filter_is_invisible_to_the_model(
        window_offset in 0u64..3,
        cache_choice in 0usize..4,
        ops in prop::collection::vec((0u8..5, 0u64..HOT_WORDS, any::<u64>()), 0..200),
    ) {
        let mut config = config();
        config.bitmap = BitmapLayout::new(
            PhysAddr::new(window_offset * 8),
            WINDOW_LEN,
            PhysAddr::new(BITMAP_BASE),
        );
        config.bitmap_cache_words = [None, Some(1), Some(2), Some(64)][cache_choice];
        let mut rigs = [Rig::new(config, true), Rig::new(config, false)];
        let mut stalled = false;
        for &(kind, word, value) in &ops {
            for rig in &mut rigs {
                match kind {
                    0 => rig.write(PhysAddr::new(word * 8), &[value]),
                    1 => {
                        let line = PhysAddr::new((word * 8) & !63);
                        let data: Vec<u64> = (0..8).map(|i| value.rotate_left(i * 8)).collect();
                        rig.write(line, &data);
                    }
                    2 | 3 => {
                        // Set about one bit in eight, or clear about
                        // half, of the bitmap word guarding `word`.
                        let Some((bw, _)) = config.bitmap.locate(PhysAddr::new(word * 8)) else {
                            continue;
                        };
                        let cur = rig.mem.read_u64(bw);
                        let next = if kind == 2 {
                            cur | (value & (value >> 17) & (value >> 31))
                        } else {
                            cur & !value
                        };
                        rig.write(bw, &[next]);
                    }
                    _ => {
                        rig.mbm.config_mut().drain_per_transaction =
                            (!stalled).then_some(0);
                    }
                }
            }
            if kind == 4 {
                stalled = !stalled;
            }
        }
        prop_assert_eq!(rigs[1].mbm.stats().page_filter_skips, 0);
        let [on, off] = &mut rigs;
        prop_assert_eq!(on.observe(), off.observe());
    }

    /// Exactly the watched words raise events; every watched write is
    /// recorded with its value; nothing is lost or invented.
    #[test]
    fn exactly_watched_words_raise_events(
        watched in prop::collection::hash_set(0u64..(WINDOW_LEN / 8), 0..64),
        writes in prop::collection::vec((0u64..(WINDOW_LEN / 8), any::<u64>()), 0..200),
    ) {
        let config = config();
        let mut mbm = Mbm::new(config);
        let mut mem = PhysMemory::new(0x60_0000);
        let mut irq = IrqController::new();
        let mut extra = 0u64;

        // Program the bitmap the way Hypersec would (bus-visible writes).
        for &w in &watched {
            for u in config.bitmap.plan_update(PhysAddr::new(w * 8), 8, true) {
                let v = u.apply_to(mem.read_u64(u.word));
                mem.write_u64(u.word, v);
                let mut ctx = BusContext { mem: &mut mem, irq: &mut irq, extra_mem_accesses: &mut extra, cycles: 0 };
                mbm.on_transaction(&BusTransaction::WriteWord { addr: u.word, value: v }, &mut ctx);
            }
        }
        // Drain any stray state.
        let _ = irq.ack_next();

        let mut expected: Vec<WriteEvent> = Vec::new();
        for &(word, value) in &writes {
            let addr = PhysAddr::new(word * 8);
            mem.write_u64(addr, value);
            let mut ctx = BusContext { mem: &mut mem, irq: &mut irq, extra_mem_accesses: &mut extra, cycles: 0 };
            mbm.on_transaction(&BusTransaction::WriteWord { addr, value }, &mut ctx);
            if watched.contains(&word) {
                expected.push(WriteEvent { addr, value });
            }
        }

        prop_assert_eq!(mbm.stats().events_matched, expected.len() as u64);
        prop_assert_eq!(mbm.stats().fifo_dropped, 0);
        prop_assert_eq!(mbm.stats().ring_overflows, 0);
        // The ring holds exactly the expected events, in order.
        let mut got = Vec::new();
        while let Some(ev) = config.ring.pop(&mut mem) {
            got.push(ev);
        }
        prop_assert_eq!(got, expected);
    }

    /// Setting and then clearing bitmap ranges always round-trips: the
    /// final watch set equals the model.
    #[test]
    fn bitmap_updates_compose(
        ops in prop::collection::vec(
            (0u64..(WINDOW_LEN / 8 - 16), 1u64..16, any::<bool>()),
            1..64
        ),
    ) {
        let layout = BitmapLayout::new(PhysAddr::new(0), WINDOW_LEN, PhysAddr::new(BITMAP_BASE));
        let mut mem = PhysMemory::new(0x60_0000);
        let mut model: HashSet<u64> = HashSet::new();
        for (start, len, watch) in ops {
            for u in layout.plan_update(PhysAddr::new(start * 8), len * 8, watch) {
                let v = u.apply_to(mem.read_u64(u.word));
                mem.write_u64(u.word, v);
            }
            for w in start..start + len {
                if watch {
                    model.insert(w);
                } else {
                    model.remove(&w);
                }
            }
        }
        for w in 0..(WINDOW_LEN / 8) {
            prop_assert_eq!(
                layout.is_watched(&mut mem, PhysAddr::new(w * 8)),
                model.contains(&w),
                "word {}", w
            );
        }
    }

    /// The ring buffer is a FIFO queue under any interleaving of pushes
    /// and pops, and never exceeds its capacity.
    #[test]
    fn ring_is_fifo_under_interleaving(
        ops in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let ring = RingLayout::new(PhysAddr::new(0x1000), 16);
        let mut mem = PhysMemory::new(0x10_0000);
        let mut model: std::collections::VecDeque<WriteEvent> = Default::default();
        let mut seq = 0u64;
        for push in ops {
            if push {
                let ev = WriteEvent { addr: PhysAddr::new(seq * 8), value: seq };
                seq += 1;
                let accepted = ring.push(&mut mem, ev);
                prop_assert_eq!(accepted, model.len() < 16);
                if accepted {
                    model.push_back(ev);
                }
            } else {
                prop_assert_eq!(ring.pop(&mut mem), model.pop_front());
            }
            prop_assert_eq!(ring.len(&mut mem), model.len() as u64);
        }
    }

    /// A throttled translator plus `step()` drains eventually deliver
    /// every event that fit in the FIFO — queueing changes latency, not
    /// correctness.
    #[test]
    fn throttled_pipeline_loses_only_overflow(
        drain_rate in 1usize..4,
        burst in 1u64..24,
    ) {
        let mut cfg = config();
        cfg.fifo_capacity = 8;
        cfg.drain_per_transaction = Some(drain_rate);
        let mut mbm = Mbm::new(cfg);
        let mut mem = PhysMemory::new(0x60_0000);
        let mut irq = IrqController::new();
        let mut extra = 0u64;
        // Watch one word, write it `burst` times back-to-back.
        for u in cfg.bitmap.plan_update(PhysAddr::new(0x100), 8, true) {
            let v = u.apply_to(mem.read_u64(u.word));
            mem.write_u64(u.word, v);
            let mut ctx = BusContext { mem: &mut mem, irq: &mut irq, extra_mem_accesses: &mut extra, cycles: 0 };
            mbm.on_transaction(&BusTransaction::WriteWord { addr: u.word, value: v }, &mut ctx);
        }
        for i in 0..burst {
            let mut ctx = BusContext { mem: &mut mem, irq: &mut irq, extra_mem_accesses: &mut extra, cycles: 0 };
            mbm.on_transaction(
                &BusTransaction::WriteWord { addr: PhysAddr::new(0x100), value: i },
                &mut ctx,
            );
        }
        // Let the pipeline drain fully.
        for _ in 0..64 {
            let mut ctx = BusContext { mem: &mut mem, irq: &mut irq, extra_mem_accesses: &mut extra, cycles: 0 };
            mbm.step(&mut ctx);
        }
        let s = mbm.stats();
        prop_assert_eq!(s.captured, burst);
        prop_assert_eq!(s.events_matched + s.fifo_dropped, burst);
        prop_assert_eq!(mbm.fifo_len(), 0);
    }
}
