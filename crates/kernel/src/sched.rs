//! A preemptive round-robin scheduler.
//!
//! The benchmark drivers switch tasks explicitly (as LMbench's ping-pong
//! processes do), but a downstream user building longer-running scenarios
//! wants timer-driven preemption: a run queue, a quantum, and a `tick`
//! that charges the timer-interrupt path and rotates the queue. Every
//! context switch goes through [`crate::kernel::Kernel::switch_to`], so
//! under Hypernel each preemption pays the same verified `TTBR0` trap a
//! real system would.

use std::collections::VecDeque;

use hypernel_machine::machine::{Hyp, Machine};

use crate::kernel::{Kernel, KernelError};
use crate::task::Pid;

/// Scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Timer ticks processed.
    pub ticks: u64,
    /// Preemptive context switches performed.
    pub preemptions: u64,
}

/// Round-robin scheduler over a set of runnable tasks.
///
/// ```
/// use hypernel_kernel::sched::Scheduler;
/// use hypernel_kernel::task::Pid;
///
/// let mut sched = Scheduler::new(3);
/// sched.enqueue(Pid(1));
/// sched.enqueue(Pid(2));
/// assert_eq!(sched.runnable(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    queue: VecDeque<Pid>,
    /// Ticks a task runs before preemption.
    quantum: u32,
    remaining: u32,
    stats: SchedStats,
}

impl Scheduler {
    /// Creates a scheduler with the given quantum (ticks per time slice).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: u32) -> Self {
        assert!(quantum > 0, "quantum must be non-zero");
        Self {
            queue: VecDeque::new(),
            quantum,
            remaining: quantum,
            stats: SchedStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Number of queued (runnable, not running) tasks.
    pub fn runnable(&self) -> usize {
        self.queue.len()
    }

    /// Adds a task to the back of the run queue.
    pub fn enqueue(&mut self, pid: Pid) {
        if !self.queue.contains(&pid) {
            self.queue.push_back(pid);
        }
    }

    /// One timer tick: charges the timer-interrupt path and, when the
    /// quantum expires and another task is runnable, preempts — the
    /// current task goes to the back of the queue and the head runs.
    ///
    /// Returns the task now running.
    ///
    /// # Errors
    ///
    /// Propagates context-switch failures (e.g. a Hypersec denial of the
    /// `TTBR0` load, which only a corrupted run queue could cause).
    pub fn tick(
        &mut self,
        kernel: &mut Kernel,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
    ) -> Result<Pid, KernelError> {
        self.stats.ticks += 1;
        m.charge_irq(); // the timer interrupt itself
        self.remaining = self.remaining.saturating_sub(1);
        let current = kernel.current();
        if self.remaining > 0 || self.queue.is_empty() {
            return Ok(current);
        }
        self.remaining = self.quantum;
        let next = self.queue.pop_front().expect("checked non-empty");
        if next == current {
            return Ok(current);
        }
        self.queue.push_back(current);
        kernel.switch_to(m, hyp, next)?;
        self.stats.preemptions += 1;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use crate::layout;
    use hypernel_machine::machine::{MachineConfig, NullHyp};

    fn boot() -> (Machine, NullHyp, Kernel) {
        let mut m = Machine::new(MachineConfig {
            dram_size: layout::DRAM_SIZE,
            ..MachineConfig::default()
        });
        let mut hyp = NullHyp;
        let k = Kernel::boot(&mut m, &mut hyp, KernelConfig::native()).expect("boot");
        (m, hyp, k)
    }

    #[test]
    fn round_robin_rotation() {
        let (mut m, mut hyp, mut k) = boot();
        let a = k.sys_fork(&mut m, &mut hyp).expect("fork");
        let b = k.sys_fork(&mut m, &mut hyp).expect("fork");
        let mut sched = Scheduler::new(2);
        sched.enqueue(a);
        sched.enqueue(b);
        // Quantum 2: first tick stays on init, second preempts to a.
        assert_eq!(sched.tick(&mut k, &mut m, &mut hyp).unwrap(), Pid(1));
        assert_eq!(sched.tick(&mut k, &mut m, &mut hyp).unwrap(), a);
        assert_eq!(k.current(), a);
        // Two more ticks rotate to b, then back around to init.
        sched.tick(&mut k, &mut m, &mut hyp).unwrap();
        assert_eq!(sched.tick(&mut k, &mut m, &mut hyp).unwrap(), b);
        sched.tick(&mut k, &mut m, &mut hyp).unwrap();
        assert_eq!(sched.tick(&mut k, &mut m, &mut hyp).unwrap(), Pid(1));
        assert_eq!(sched.stats().preemptions, 3);
        assert_eq!(sched.stats().ticks, 6);
        // Cleanup.
        k.sys_exit(&mut m, &mut hyp, a, Pid(1)).expect("exit a");
        k.sys_exit(&mut m, &mut hyp, b, Pid(1)).expect("exit b");
    }

    #[test]
    fn lone_task_is_never_preempted() {
        let (mut m, mut hyp, mut k) = boot();
        let mut sched = Scheduler::new(1);
        for _ in 0..5 {
            assert_eq!(sched.tick(&mut k, &mut m, &mut hyp).unwrap(), Pid(1));
        }
        assert_eq!(sched.stats().preemptions, 0);
    }

    #[test]
    fn ticks_cost_cycles() {
        let (mut m, mut hyp, mut k) = boot();
        let c0 = m.cycles();
        let mut sched = Scheduler::new(4);
        sched.tick(&mut k, &mut m, &mut hyp).unwrap();
        assert!(m.cycles() > c0, "the timer interrupt is charged");
    }
}
