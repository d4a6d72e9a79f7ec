//! The CPU↔DRAM memory bus and its snooping interface.
//!
//! The paper's MBM "eavesdrops on the system bus between the host processor
//! and main memory" (§1). This module models that bus: every access that
//! actually leaves the cache hierarchy becomes a [`BusTransaction`], and any
//! attached [`BusSnooper`] observes it *after* the backing DRAM has been
//! updated (write-through ordering on the bus itself).
//!
//! Crucially, cacheable writes that hit in the write-back data cache do
//! **not** appear here — only misses, write-backs of dirty lines, and
//! non-cacheable accesses do. This reproduces the visibility constraint
//! that forces Hypersec to mark monitored pages non-cacheable (paper §5.3).

use std::any::Any;

use hypernel_telemetry::Telemetry;

use crate::addr::PhysAddr;
use crate::fault::FaultInjector;
use crate::irq::IrqController;
use crate::mem::PhysMemory;

/// Number of 8-byte words in one cache line (64-byte lines).
pub const LINE_WORDS: usize = 8;

/// A transaction observed on the memory bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusTransaction {
    /// A single 8-byte read (non-cacheable load or page-table walk access).
    ReadWord {
        /// Word-aligned physical address.
        addr: PhysAddr,
    },
    /// A single 8-byte write (non-cacheable store).
    WriteWord {
        /// Word-aligned physical address.
        addr: PhysAddr,
        /// The value written.
        value: u64,
    },
    /// A 64-byte line fill (cache miss refill).
    ReadLine {
        /// Line-aligned physical address.
        addr: PhysAddr,
    },
    /// A 64-byte dirty-line write-back. Carries the final contents of the
    /// line; intermediate store values coalesced inside the cache are lost,
    /// which is precisely why monitored regions must be non-cacheable.
    WriteLine {
        /// Line-aligned physical address.
        addr: PhysAddr,
        /// Final contents of the eight words of the line.
        data: [u64; LINE_WORDS],
    },
}

impl BusTransaction {
    /// Physical address of the transaction (word- or line-aligned).
    pub fn addr(&self) -> PhysAddr {
        match self {
            Self::ReadWord { addr }
            | Self::WriteWord { addr, .. }
            | Self::ReadLine { addr }
            | Self::WriteLine { addr, .. } => *addr,
        }
    }

    /// Returns `true` for write transactions (the MBM only inspects writes).
    pub fn is_write(&self) -> bool {
        matches!(self, Self::WriteWord { .. } | Self::WriteLine { .. })
    }
}

/// What the machine lends the bus and its snoopers for one transaction
/// or device step: backing memory (a snooper such as the MBM fetches its
/// bitmap from DRAM), the interrupt controller (to signal the host CPU)
/// and the machine's host attachments. The machine owns the fault
/// injector and the telemetry recorder; nothing on the bus keeps a
/// handle on either.
pub struct BusContext<'a> {
    /// Backing DRAM. Snooper reads here model the MBM's own memory port.
    pub mem: &'a mut PhysMemory,
    /// Platform interrupt controller.
    pub irq: &'a mut IrqController,
    /// CPU cycle counter at the moment of the transaction, so snoopers
    /// can timestamp telemetry on the same clock as the core.
    pub cycles: u64,
    /// The machine's fault injector, if one is installed. The bus
    /// consults it for snoop-address corruption, snoopers for their own
    /// fault sites.
    pub faults: Option<&'a mut FaultInjector>,
    /// The machine's telemetry recorder, if one is installed.
    pub telemetry: Option<&'a mut Telemetry>,
}

/// A device attached to the memory bus that observes every transaction.
///
/// Implementors also get a chance to run their internal pipeline via
/// [`BusSnooper::step`], which the machine calls at instruction boundaries
/// so queued work drains even when the bus goes quiet.
pub trait BusSnooper: Any {
    /// Called for every bus transaction, after DRAM has been updated.
    fn on_transaction(&mut self, txn: &BusTransaction, ctx: &mut BusContext<'_>);

    /// Called periodically to let the device drain internal queues.
    fn step(&mut self, ctx: &mut BusContext<'_>) {
        let _ = ctx;
    }

    /// Upcast to [`Any`] so callers can recover the concrete device type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast to [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Deep-copies the device (including any queued internal state), so
    /// a whole bus — and with it a whole machine — can be snapshotted
    /// and forked for warm-boot reuse.
    fn clone_box(&self) -> Box<dyn BusSnooper>;
}

/// The memory bus: DRAM plus an ordered list of snooping devices.
///
/// All machine-level memory traffic funnels through [`MemoryBus::issue`],
/// which applies the access to DRAM and then shows it to every snooper.
#[derive(Default)]
pub struct MemoryBus {
    snoopers: Vec<Box<dyn BusSnooper>>,
    reads: u64,
    writes: u64,
}

impl std::fmt::Debug for MemoryBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryBus")
            .field("snoopers", &self.snoopers.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl Clone for MemoryBus {
    /// Deep-copies every attached snooper via
    /// [`BusSnooper::clone_box`]. The bus holds no host attachment, so
    /// the copy shares nothing with the original.
    fn clone(&self) -> Self {
        Self {
            snoopers: self.snoopers.iter().map(|s| s.clone_box()).collect(),
            reads: self.reads,
            writes: self.writes,
        }
    }
}

impl MemoryBus {
    /// Creates a bus with no attached devices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a snooping device. Devices observe transactions in
    /// attachment order.
    pub fn attach(&mut self, snooper: Box<dyn BusSnooper>) {
        self.snoopers.push(snooper);
    }

    /// Returns a reference to the first attached snooper of type `T`.
    pub fn snooper<T: BusSnooper>(&self) -> Option<&T> {
        self.snoopers
            .iter()
            .find_map(|s| s.as_any().downcast_ref::<T>())
    }

    /// Returns a mutable reference to the first attached snooper of type `T`.
    pub fn snooper_mut<T: BusSnooper>(&mut self) -> Option<&mut T> {
        self.snoopers
            .iter_mut()
            .find_map(|s| s.as_any_mut().downcast_mut::<T>())
    }

    /// Issues a transaction: applies it to DRAM through `ctx`, updates
    /// counters, then lets each snooper observe it with the same context.
    ///
    /// Returns the value read for read transactions (word reads return the
    /// word; line reads return the first word — callers wanting the full
    /// line read it from memory directly).
    ///
    /// The only fault the bus itself executes is snoop-path address
    /// corruption ([`crate::fault::FaultKind::FlipSnoopAddr`]): DRAM
    /// always receives the true write; the corrupted address is what
    /// snoopers observe.
    pub fn issue(&mut self, txn: BusTransaction, ctx: &mut BusContext<'_>) -> u64 {
        let value = match txn {
            BusTransaction::ReadWord { addr } | BusTransaction::ReadLine { addr } => {
                self.reads += 1;
                ctx.mem.read_u64(addr)
            }
            BusTransaction::WriteWord { addr, value } => {
                self.writes += 1;
                ctx.mem.write_u64(addr, value);
                value
            }
            BusTransaction::WriteLine { addr, data } => {
                self.writes += 1;
                ctx.mem.write_line(addr, &data);
                data[0]
            }
        };
        let snooped = match (&mut ctx.faults, txn) {
            (Some(faults), BusTransaction::WriteWord { addr, value }) => {
                BusTransaction::WriteWord {
                    addr: faults.on_snoop_write(addr),
                    value,
                }
            }
            (Some(faults), BusTransaction::WriteLine { addr, data }) => BusTransaction::WriteLine {
                addr: faults.on_snoop_write(addr),
                data,
            },
            _ => txn,
        };
        for s in &mut self.snoopers {
            s.on_transaction(&snooped, ctx);
        }
        value
    }

    /// Lets every snooper drain internal queues.
    pub fn step_snoopers(&mut self, ctx: &mut BusContext<'_>) {
        for s in &mut self.snoopers {
            s.step(ctx);
        }
    }

    /// Total read transactions issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total write transactions issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, Clone)]
    struct Recorder {
        seen: Vec<BusTransaction>,
    }

    impl BusSnooper for Recorder {
        fn on_transaction(&mut self, txn: &BusTransaction, _ctx: &mut BusContext<'_>) {
            self.seen.push(*txn);
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

    fn rig() -> (MemoryBus, PhysMemory, IrqController) {
        (
            MemoryBus::new(),
            PhysMemory::new(1 << 20),
            IrqController::new(),
        )
    }

    /// Issues `txn` with a context lending no host attachment.
    fn issue(
        bus: &mut MemoryBus,
        mem: &mut PhysMemory,
        irq: &mut IrqController,
        txn: BusTransaction,
    ) -> u64 {
        let mut ctx = BusContext {
            mem,
            irq,
            cycles: 0,
            faults: None,
            telemetry: None,
        };
        bus.issue(txn, &mut ctx)
    }

    #[test]
    fn write_reaches_memory_then_snooper() {
        let (mut bus, mut mem, mut irq) = rig();
        bus.attach(Box::new(Recorder::default()));
        issue(
            &mut bus,
            &mut mem,
            &mut irq,
            BusTransaction::WriteWord {
                addr: PhysAddr::new(0x100),
                value: 42,
            },
        );
        assert_eq!(mem.read_u64(PhysAddr::new(0x100)), 42);
        let rec: &Recorder = bus.snooper().unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert!(rec.seen[0].is_write());
        assert_eq!(rec.seen[0].addr(), PhysAddr::new(0x100));
    }

    #[test]
    fn read_returns_value() {
        let (mut bus, mut mem, mut irq) = rig();
        mem.write_u64(PhysAddr::new(0x80), 77);
        let v = issue(
            &mut bus,
            &mut mem,
            &mut irq,
            BusTransaction::ReadWord {
                addr: PhysAddr::new(0x80),
            },
        );
        assert_eq!(v, 77);
        assert_eq!(bus.reads(), 1);
        assert_eq!(bus.writes(), 0);
    }

    #[test]
    fn line_writeback_updates_all_words() {
        let (mut bus, mut mem, mut irq) = rig();
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        issue(
            &mut bus,
            &mut mem,
            &mut irq,
            BusTransaction::WriteLine {
                addr: PhysAddr::new(0x1000),
                data,
            },
        );
        for (i, w) in data.iter().enumerate() {
            assert_eq!(mem.read_u64(PhysAddr::new(0x1000 + i as u64 * 8)), *w);
        }
    }

    #[test]
    fn snooper_downcast_by_type() {
        let (mut bus, _, _) = rig();
        bus.attach(Box::new(Recorder::default()));
        assert!(bus.snooper::<Recorder>().is_some());
        assert!(bus.snooper_mut::<Recorder>().is_some());
    }

    #[test]
    fn reads_are_snooped_too() {
        let (mut bus, mut mem, mut irq) = rig();
        bus.attach(Box::new(Recorder::default()));
        issue(
            &mut bus,
            &mut mem,
            &mut irq,
            BusTransaction::ReadLine {
                addr: PhysAddr::new(0),
            },
        );
        let rec: &Recorder = bus.snooper().unwrap();
        assert_eq!(rec.seen.len(), 1);
        assert!(!rec.seen[0].is_write());
    }
}
