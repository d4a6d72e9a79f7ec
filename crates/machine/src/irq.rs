//! Interrupt controller model.
//!
//! A minimal GIC-like controller: devices (the MBM, timers, …) assert
//! numbered lines; software polls and acknowledges them. Interrupt
//! *delivery* is cooperative — the kernel checks for pending interrupts at
//! operation boundaries, mirroring how the simulation serializes
//! asynchronous hardware events.

/// Interrupt line numbers used by the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrqLine(pub u32);

impl IrqLine {
    /// The line wired to the memory bus monitor (paper Fig. 4, step 6).
    pub const MBM: IrqLine = IrqLine(48);
}

impl std::fmt::Display for IrqLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IRQ{}", self.0)
    }
}

/// A simple level-triggered interrupt controller.
///
/// ```
/// use hypernel_machine::irq::{IrqController, IrqLine};
///
/// let mut gic = IrqController::new();
/// gic.raise(IrqLine::MBM);
/// assert!(gic.is_pending(IrqLine::MBM));
/// assert_eq!(gic.ack_next(), Some(IrqLine::MBM));
/// assert!(gic.ack_next().is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IrqController {
    pending: std::collections::BTreeSet<IrqLine>,
    raised_total: u64,
}

impl IrqController {
    /// Creates a controller with no pending interrupts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asserts `line`. Idempotent while the line is already pending
    /// (level-triggered semantics), but every assertion is counted.
    pub fn raise(&mut self, line: IrqLine) {
        self.raised_total += 1;
        self.pending.insert(line);
    }

    /// Returns `true` if `line` is asserted and unacknowledged.
    pub fn is_pending(&self, line: IrqLine) -> bool {
        self.pending.contains(&line)
    }

    /// Acknowledges and returns the lowest-numbered pending line, if any.
    pub fn ack_next(&mut self) -> Option<IrqLine> {
        let line = self.pending.iter().next().copied()?;
        self.pending.remove(&line);
        Some(line)
    }

    /// Acknowledges a specific line. Returns `true` if it was pending.
    pub fn ack(&mut self, line: IrqLine) -> bool {
        self.pending.remove(&line)
    }

    /// Total number of `raise` calls since construction (including
    /// assertions coalesced by level-triggering).
    pub fn raised_total(&self) -> u64 {
        self.raised_total
    }

    /// The currently pending lines, lowest-numbered first (for state
    /// snapshots such as the campaign flight recorder).
    pub fn pending_lines(&self) -> Vec<IrqLine> {
        self.pending.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_ack_cycle() {
        let mut gic = IrqController::new();
        gic.raise(IrqLine(3));
        gic.raise(IrqLine(1));
        assert!(gic.is_pending(IrqLine(1)));
        assert_eq!(gic.ack_next(), Some(IrqLine(1)));
        assert_eq!(gic.ack_next(), Some(IrqLine(3)));
        assert_eq!(gic.ack_next(), None);
    }

    #[test]
    fn level_triggered_coalescing() {
        let mut gic = IrqController::new();
        gic.raise(IrqLine::MBM);
        gic.raise(IrqLine::MBM);
        assert_eq!(gic.raised_total(), 2);
        assert_eq!(gic.ack_next(), Some(IrqLine::MBM));
        assert_eq!(gic.ack_next(), None);
    }

    #[test]
    fn targeted_ack() {
        let mut gic = IrqController::new();
        gic.raise(IrqLine(7));
        assert!(gic.ack(IrqLine(7)));
        assert!(!gic.ack(IrqLine(7)));
    }

    #[test]
    fn display() {
        assert_eq!(IrqLine::MBM.to_string(), "IRQ48");
    }
}
