//! LMbench-style kernel-operation microbenchmarks (paper Table 1).
//!
//! Each [`LmbenchOp`] reproduces the kernel-operation mix of the
//! corresponding LMbench test: the set of syscalls, page-table updates,
//! context switches and memory touches the real benchmark performs. The
//! three system configurations then diverge purely through mechanism —
//! hypercalls and TVM traps under Hypernel, nested walks, lazy stage-2
//! faults and WFI exits under KVM.

use hypernel_kernel::kernel::{Kernel, KernelError};
use hypernel_machine::addr::{VirtAddr, PAGE_SIZE};
use hypernel_machine::machine::{Hyp, Machine};

use crate::measure::Measurement;

/// The nine kernel operations of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LmbenchOp {
    /// `lat_syscall stat` — resolve a path and fill a stat buffer.
    SyscallStat,
    /// `lat_sig install` — install a signal handler.
    SignalInstall,
    /// `lat_sig catch` — deliver and return from a signal.
    SignalOverhead,
    /// `lat_pipe` — token round trip between two processes.
    PipeLatency,
    /// `lat_unix` — AF_UNIX socket round trip.
    SocketLatency,
    /// `lat_proc fork` — fork a child that exits immediately.
    ForkExit,
    /// `lat_proc exec` — fork + execve + exit.
    ForkExecve,
    /// `lat_pagefault` — fault a page of a mapped file.
    PageFault,
    /// `lat_mmap` — map and unmap a region.
    Mmap,
}

impl LmbenchOp {
    /// Every operation, in the paper's Table 1 row order.
    pub const ALL: &'static [LmbenchOp] = &[
        Self::SyscallStat,
        Self::SignalInstall,
        Self::SignalOverhead,
        Self::PipeLatency,
        Self::SocketLatency,
        Self::ForkExit,
        Self::ForkExecve,
        Self::PageFault,
        Self::Mmap,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Self::SyscallStat => "syscall stat",
            Self::SignalInstall => "signal install",
            Self::SignalOverhead => "signal ovh",
            Self::PipeLatency => "pipe lat",
            Self::SocketLatency => "socket lat",
            Self::ForkExit => "fork+exit",
            Self::ForkExecve => "fork+execv",
            Self::PageFault => "page fault",
            Self::Mmap => "mmap",
        }
    }

    /// The paper's measured native latency in microseconds (Table 1),
    /// used by EXPERIMENTS.md to compare shapes.
    pub fn paper_native_us(self) -> f64 {
        match self {
            Self::SyscallStat => 1.92,
            Self::SignalInstall => 0.68,
            Self::SignalOverhead => 2.96,
            Self::PipeLatency => 10.07,
            Self::SocketLatency => 13.76,
            Self::ForkExit => 271.68,
            Self::ForkExecve => 285.53,
            Self::PageFault => 1.57,
            Self::Mmap => 24.60,
        }
    }

    /// The paper's KVM-guest latency (µs).
    pub fn paper_kvm_us(self) -> f64 {
        match self {
            Self::SyscallStat => 1.83,
            Self::SignalInstall => 0.75,
            Self::SignalOverhead => 3.38,
            Self::PipeLatency => 11.45,
            Self::SocketLatency => 16.08,
            Self::ForkExit => 337.84,
            Self::ForkExecve => 351.81,
            Self::PageFault => 1.98,
            Self::Mmap => 28.40,
        }
    }

    /// The paper's Hypernel latency (µs).
    pub fn paper_hypernel_us(self) -> f64 {
        match self {
            Self::SyscallStat => 1.94,
            Self::SignalInstall => 0.68,
            Self::SignalOverhead => 2.98,
            Self::PipeLatency => 10.68,
            Self::SocketLatency => 14.51,
            Self::ForkExit => 314.77,
            Self::ForkExecve => 340.70,
            Self::PageFault => 1.89,
            Self::Mmap => 27.50,
        }
    }
}

impl std::fmt::Display for LmbenchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs `op` for `iterations` and returns the measured latency.
///
/// Setup work (spawning a peer process, creating files, mapping the
/// fault region) happens outside the measured window, as LMbench does.
///
/// # Errors
///
/// Propagates kernel errors — under a correctly configured system none
/// occur.
pub fn run_op(
    kernel: &mut Kernel,
    m: &mut Machine,
    hyp: &mut dyn Hyp,
    op: LmbenchOp,
    iterations: u64,
) -> Result<Measurement, KernelError> {
    match op {
        LmbenchOp::SyscallStat => {
            kernel.sys_stat(m, hyp, "/bin/sh")?; // warm the path
            let start = m.cycles();
            for _ in 0..iterations {
                kernel.sys_stat(m, hyp, "/bin/sh")?;
            }
            Ok(Measurement {
                total_cycles: m.cycles() - start,
                iterations,
            })
        }
        LmbenchOp::SignalInstall => {
            let start = m.cycles();
            for i in 0..iterations {
                kernel.sys_signal_install(m, hyp, i % 32)?;
            }
            Ok(Measurement {
                total_cycles: m.cycles() - start,
                iterations,
            })
        }
        LmbenchOp::SignalOverhead => {
            kernel.sys_signal_install(m, hyp, 10)?;
            let start = m.cycles();
            for _ in 0..iterations {
                kernel.sys_signal_deliver(m, hyp, 10)?;
            }
            Ok(Measurement {
                total_cycles: m.cycles() - start,
                iterations,
            })
        }
        LmbenchOp::PipeLatency | LmbenchOp::SocketLatency => {
            let me = kernel.current();
            let peer = kernel.sys_fork(m, hyp)?;
            // Warm one round trip.
            match op {
                LmbenchOp::PipeLatency => kernel.sys_pipe_roundtrip(m, hyp, peer, 8)?,
                _ => kernel.sys_socket_roundtrip(m, hyp, peer, 8)?,
            }
            let start = m.cycles();
            for _ in 0..iterations {
                match op {
                    LmbenchOp::PipeLatency => kernel.sys_pipe_roundtrip(m, hyp, peer, 8)?,
                    _ => kernel.sys_socket_roundtrip(m, hyp, peer, 8)?,
                }
            }
            let total = m.cycles() - start;
            kernel.sys_exit(m, hyp, peer, me)?;
            Ok(Measurement {
                total_cycles: total,
                iterations,
            })
        }
        LmbenchOp::ForkExit => {
            let me = kernel.current();
            let start = m.cycles();
            for _ in 0..iterations {
                let child = kernel.sys_fork(m, hyp)?;
                kernel.switch_to(m, hyp, child)?;
                kernel.sys_exit(m, hyp, child, me)?;
            }
            Ok(Measurement {
                total_cycles: m.cycles() - start,
                iterations,
            })
        }
        LmbenchOp::ForkExecve => {
            let me = kernel.current();
            let start = m.cycles();
            for _ in 0..iterations {
                let child = kernel.sys_fork(m, hyp)?;
                kernel.switch_to(m, hyp, child)?;
                kernel.sys_execve(m, hyp, "/bin/sh")?;
                kernel.sys_exit(m, hyp, child, me)?;
            }
            Ok(Measurement {
                total_cycles: m.cycles() - start,
                iterations,
            })
        }
        LmbenchOp::PageFault => {
            // Map a lazy region large enough that each iteration faults a
            // fresh page (LMbench faults pages of an mmap'd file).
            let eager = hypernel_kernel::kernel::tuning::MMAP_EAGER_PAGES as u64;
            let pages = iterations + eager + 1;
            let base = kernel.sys_mmap(m, hyp, pages as usize)?;
            let start = m.cycles();
            for i in 0..iterations {
                let va = VirtAddr::new(base.raw() + (eager + i) * PAGE_SIZE);
                kernel.user_touch(m, hyp, va)?;
            }
            let total = m.cycles() - start;
            kernel.sys_munmap(m, hyp, base)?;
            Ok(Measurement {
                total_cycles: total,
                iterations,
            })
        }
        LmbenchOp::Mmap => {
            let start = m.cycles();
            for _ in 0..iterations {
                let base = kernel.sys_mmap(m, hyp, 16)?;
                kernel.sys_munmap(m, hyp, base)?;
            }
            Ok(Measurement {
                total_cycles: m.cycles() - start,
                iterations,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_kernel::kernel::KernelConfig;
    use hypernel_kernel::layout;
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
    fn every_op_runs_natively() {
        let (mut m, mut hyp, mut k) = boot();
        for &op in LmbenchOp::ALL {
            let measurement = run_op(&mut k, &mut m, &mut hyp, op, 3).expect("op runs");
            assert!(measurement.total_cycles > 0, "{op} must consume cycles");
            assert_eq!(measurement.iterations, 3);
        }
    }

    #[test]
    fn fork_dwarfs_stat() {
        let (mut m, mut hyp, mut k) = boot();
        let stat = run_op(&mut k, &mut m, &mut hyp, LmbenchOp::SyscallStat, 10).unwrap();
        let fork = run_op(&mut k, &mut m, &mut hyp, LmbenchOp::ForkExit, 10).unwrap();
        assert!(
            fork.cycles_per_iter() > 20.0 * stat.cycles_per_iter(),
            "fork {:.0} vs stat {:.0}",
            fork.cycles_per_iter(),
            stat.cycles_per_iter()
        );
    }

    #[test]
    fn page_fault_measures_faults() {
        let (mut m, mut hyp, mut k) = boot();
        run_op(&mut k, &mut m, &mut hyp, LmbenchOp::PageFault, 16).unwrap();
        assert_eq!(k.stats().page_faults, 16);
    }

    #[test]
    fn labels_and_paper_rows_are_complete() {
        for &op in LmbenchOp::ALL {
            assert!(!op.label().is_empty());
            assert!(op.paper_native_us() > 0.0);
            assert!(op.paper_kvm_us() > 0.0);
            assert!(op.paper_hypernel_us() > 0.0);
            assert_eq!(op.to_string(), op.label());
        }
        assert_eq!(LmbenchOp::ALL.len(), 9);
    }
}
